"""The lazy package API and the modules a cold `ds` process loads per verb."""

import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import isods

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(isods.__file__).resolve().parents[1])

# The public names by home module, as the package has always exported them,
# and the submodules `from isods import *` binds as well.
PUBLIC = {
    "orbits": "AdjointOrbit Block HasseDiagram NilpotentOrbit closure_le cone_contains dim_centralizer"
              " dim_centralizer_oracle ls_induction",
    "partitions": "ParityClass Partition collapse dominance_le is_valid lambda_evenly lambda_tilde partition"
                  " sum_parts transpose",
    "root_data": "AffineDiagram LieType Slope UnsupportedSlopeError affine_marks coxeter_number exponents"
                 " is_elliptic_regular is_regular lie_type parse_slope phi_count slope",
    "coxeter": "AllowableSubset coxeter_solve enumerate_d_allowable orbit_J_reg",
    "rigidity": "RigidityReport closed_form_delta delta is_cohomologically_rigid non_resonant rigidity_report"
                " scan_rigid",
    "skeleton": "GradedModel jordan_type minimal_jordan_type",
    "solver": "DSAnswer ds_solve ds_solve_q o_nu",
}
STAR_MODULES = {"coxeter", "exceptional_data", "linalg", "orbits", "partitions", "rigidity", "root_data",
                "skeleton", "solver"}


def _python(code: str, *argv: str) -> str:
    """stdout of a fresh interpreter running code, with this checkout's
    package first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_public_name_is_the_object_of_its_home_module():
    homes = {name: mod for mod, names in PUBLIC.items() for name in names.split()}
    assert sorted(isods.__all__) == isods.__all__
    assert set(isods.__all__) == set(homes) | STAR_MODULES
    for name in isods.__all__:
        obj = getattr(isods, name)
        if name in STAR_MODULES:
            assert isinstance(obj, ModuleType) and obj is import_module(f"isods.{name}"), name
        else:
            assert obj is getattr(import_module(f"isods.{homes[name]}"), name), name
    assert set(isods.__all__) <= set(dir(isods))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        isods.no_such_name


def test_relocated_exceptions_keep_their_old_paths():
    from isods import coxeter, orbits, root_data

    assert coxeter.UnsupportedSlopeError is root_data.UnsupportedSlopeError is isods.UnsupportedSlopeError
    assert orbits.UnsupportedComparisonError is root_data.UnsupportedComparisonError
    with pytest.raises(coxeter.UnsupportedSlopeError):
        isods.ds_solve(isods.lie_type("B", 3), isods.slope(1, 5), isods.NilpotentOrbit(isods.lie_type("B", 3), (7,)))


def test_importing_the_package_loads_no_engine_module():
    code = "import sys, isods; print(json.dumps(sorted(m for m in sys.modules if m.startswith('isods.'))))"
    assert json.loads(_python("import json; " + code)) == []


def test_star_import_binds_every_public_name():
    code = "from isods import *; import json; print(json.dumps(sorted(k for k in dir() if not k.startswith('_'))))"
    assert set(json.loads(_python(code))) == set(isods.__all__) | {"json"}


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    lines = _python(code).splitlines()
    assert lines[0] == "(3, 3, 3)" and lines[-1] == "(5, 3, 1)"


_FOOTPRINT = """
import contextlib, io, json, sys
from isods.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m[len("isods."):] for m in sys.modules if m.startswith("isods.")),
                  [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""

_ADJOINT_B4 = json.dumps({"kind": "adjoint", "blocks": [{"eig": "a1", "mult": 2, "partition": [2]}],
                          "zero_block": [3, 1, 1]})


def _run(*argv: str) -> tuple[int, list[str], list[str]]:
    """Exit code of `ds argv` in a fresh process, the isods modules it
    loaded, and which of `dataclasses` and `inspect` it loaded."""
    return tuple(json.loads(_python(_FOOTPRINT, *argv)))


def footprint(*argv: str) -> tuple[int, set[str]]:
    """Exit code of `ds argv` in a fresh process, and the isods modules it loaded."""
    code, modules, _ = _run(*argv)
    return code, set(modules)


@pytest.mark.parametrize("argv", [
    ["solve", "--type=B", "--rank=4", "--slope=3/8", "--orbit=[3,3,3]"],
    ["solve", "--type=B", "--rank=4", "--slope=3/8", f"--orbit={_ADJOINT_B4}"],
    ["solve-q", "--type=B", "--rank=4", "--slope=3/8", f"--orbit={_ADJOINT_B4}"],
    ["delta", "--type=D", "--rank=4", "--slope=1/6", "--orbit=[3,3,1,1]"],
])
def test_classical_orbit_verbs_load_no_route_or_table_module(argv):
    code, modules = footprint(*argv)
    assert code == 0
    assert {"cli", "root_data", "rigidity" if argv[0] == "delta" else "solver"} <= modules
    assert not modules & {"catalogue", "coxeter", "skeleton", "tables", "checks", "exceptional_data"}, modules
    assert "linalg" not in modules, modules


@pytest.mark.parametrize("argv", [
    ["delta", "--type=D", "--rank=4", "--slope=1/6", "--orbit=[3,3,1,1]"],
    ["delta", "--type=E7", "--slope=7/18", "--orbit=A1"],
])
def test_delta_loads_no_solver(argv):
    # Delta reads dim C of the orbit it is given; only the verdict and the
    # rigid scan call the solver
    code, modules = footprint(*argv)
    assert code == 0 and "rigidity" in modules
    assert "solver" not in modules, modules


@pytest.mark.parametrize("name", ["t_excCox", "DSsolnF4"])
def test_embedded_tables_load_no_classical_engine(name):
    assert footprint("tables", f"--name={name}") == (0, {"cli", "root_data", "tables", "exceptional_data"})


def test_e7_label_loads_no_linalg():
    # the E7 primes come from a count of orthogonal positive roots, not a rank
    code, modules = footprint("solve", "--type=E7", "--slope=7/18", "--orbit=(A5)''")
    assert code == 3  # unknown-needs-hasse
    assert "catalogue" in modules and not modules & {"coxeter", "linalg"}, modules


@pytest.mark.parametrize("argv", [
    ["solve", "--type=G2", "--slope=1/6", "--orbit=G2(a1)"],
    ["solve", "--type=F4", "--slope=5/6", "--orbit=C3(a1)"],
])
def test_g2_f4_label_loads_the_catalogue_not_coxeter(argv):
    code, modules = footprint(*argv)
    assert code == 0
    assert "catalogue" in modules and "coxeter" not in modules, modules


@pytest.mark.parametrize("argv", [
    ["coxeter", "--type=B", "--rank=5", "--d=3"],
    ["coxeter", "--type=F4", "--d=5", "--show-subsets"],
    ["coxeter", "--type=E8", "--d=7"],
])
def test_coxeter_loads_no_solver(argv):
    code, modules = footprint(*argv)
    assert code == 0 and "coxeter" in modules
    assert not modules & {"solver", "rigidity", "skeleton", "tables", "checks"}, modules


@pytest.mark.parametrize("argv", [
    ["coxeter", "--type=B", "--rank=5", "--d=3"],
    ["coxeter", "--type=D", "--rank=6", "--d=7", "--show-subsets"],
])
def test_classical_coxeter_loads_no_exceptional_module(argv):
    code, modules = footprint(*argv)
    assert code == 0 and "coxeter" in modules
    assert not modules & {"catalogue", "exceptional_data"}, modules


def test_oracle_loads_only_the_lattice_models():
    code, modules = footprint("oracle", "--type=B", "--rank=4", "--slope=1/4", "--budget=2")
    assert code == 0
    assert modules == {"cli", "root_data", "skeleton", "linalg", "partitions"}


@pytest.mark.parametrize("argv", [
    ["solve", "--type=B", "--rank=4", "--slope=x/8", "--orbit=[3,3,3]"],
    ["solve", "--type=B", "--rank=4", "--slope=3/8", "--orbit=[3,3"],
    ["solve-q", "--type=B", "--rank=4", "--slope=3/0", f"--orbit={_ADJOINT_B4}"],
    ["delta", "--type=Z", "--rank=4", "--slope=3/8", "--orbit=[3,3,3]"],
    ["oracle", "--type=B", "--rank=4", "--slope=1/4", "--budget=-1"],
    ["oracle", "--type=B", "--rank=100", "--slope=1/200"],
    ["tables", "--name=t_clq", "--rank=4", "--slope=0/4", "--mults=2"],
    ["tables", "--name=t_clCox", "--max-rank=101"],
    ["rigid", "--family=C", "--max-rank=101"],
])
def test_malformed_input_exits_before_any_engine_module_loads(argv):
    assert footprint(*argv) == (2, {"cli", "root_data"})


@pytest.mark.parametrize("argv,want", [
    (["solve", "--type=B", "--rank=4", "--slope=3/8", "--orbit=[3,3,3]"], 0),
    (["solve", "--type=F4", "--slope=5/6", "--orbit=A1"], 0),
    (["solve-q", "--type=B", "--rank=4", "--slope=3/8", f"--orbit={_ADJOINT_B4}"], 0),
    (["delta", "--type=E7", "--slope=7/18", "--orbit=A1"], 0),
    (["coxeter", "--type=E8", "--d=7", "--show-subsets"], 0),
    (["oracle", "--type=B", "--rank=4", "--slope=1/4", "--budget=2"], 0),
    (["tables", "--name=t_excCox"], 0),
    (["solve", "--type=B", "--rank=4", "--slope=x/8", "--orbit=[3,3,3]"], 2),
])
def test_no_verb_loads_dataclasses_or_inspect(argv, want):
    # the value classes are plain slotted classes: `dataclasses` would load
    # `inspect` and exec the generated methods of each class at import
    code, _, loaded = _run(*argv)
    assert (code, loaded) == (want, [])
