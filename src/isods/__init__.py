"""Decision engine and verification toolkit for the isoclinic Deligne-Simpson
problem: threshold orbits, existence verdicts, rigidity indices, and
independent combinatorial and geometric oracles.

The public names load on first access (PEP 562), so that importing the
package, or `isods.cli`, compiles no engine module: a `ds` process loads only
the modules its verb runs.
"""

from importlib import import_module

# Public name -> the module that defines it.
_HOME = {
    **dict.fromkeys(
        ("AdjointOrbit", "Block", "HasseDiagram", "NilpotentOrbit", "closure_le", "cone_contains",
         "dim_centralizer", "dim_centralizer_oracle", "ls_induction"),
        "orbits",
    ),
    **dict.fromkeys(
        ("ParityClass", "Partition", "collapse", "dominance_le", "is_valid", "lambda_evenly", "lambda_tilde",
         "partition", "sum_parts", "transpose"),
        "partitions",
    ),
    **dict.fromkeys(
        ("AffineDiagram", "LieType", "Slope", "UnsupportedSlopeError", "affine_marks", "coxeter_number",
         "exponents", "is_elliptic_regular", "is_regular", "lie_type", "parse_slope", "phi_count", "slope"),
        "root_data",
    ),
    **dict.fromkeys(("AllowableSubset", "coxeter_solve", "enumerate_d_allowable", "orbit_J_reg"), "coxeter"),
    **dict.fromkeys(
        ("RigidityReport", "closed_form_delta", "delta", "is_cohomologically_rigid", "non_resonant",
         "rigidity_report", "scan_rigid"),
        "rigidity",
    ),
    **dict.fromkeys(("GradedModel", "jordan_type", "minimal_jordan_type"), "skeleton"),
    **dict.fromkeys(("DSAnswer", "ds_solve", "ds_solve_q", "o_nu"), "solver"),
}
# Submodules that `from isods import *` has always bound as well.
_STAR_MODULES = (
    "coxeter", "exceptional_data", "linalg", "orbits", "partitions", "rigidity", "root_data", "skeleton", "solver",
)

__all__ = sorted([*_HOME, *_STAR_MODULES])


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _STAR_MODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
