import argparse
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import isods
from isods.cli import CHECK_MAX_RANK, build_parser, main
from isods.catalogue import orbit_labels
from isods.coxeter import orbit_J_reg
from isods.partitions import ParityClass, valid_partitions
from isods.root_data import affine_marks, lie_type
from isods.tables import TABLE_NAMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_classical(capsys):
    code, out = run_cli(capsys, "solve", "--type", "B", "--rank", "2", "--slope", "3/4", "--orbit", "[3,1,1]")
    assert code == 0
    data = json.loads(out)
    assert data["affirmative"] is True
    assert data["o_nu"]["partition"] == [2, 2, 1]
    assert data["path"].startswith("table:")


def test_solve_invalid_orbit(capsys):
    code = main(["solve", "--type", "B", "--rank", "2", "--slope", "3/4", "--orbit", "[4,1]"])
    assert code == 2


@pytest.mark.parametrize("text", ["1/", "1_1/4", "\u0663/\u0664", "3/\u0664", "+3/4", " 3/4"])
def test_malformed_slope_exit_2(capsys, text):
    # each once answered with exit 0, "1/" as slope 1/1 and "1_1/4" as 11/4
    for verb in ("solve", "solve-q", "delta"):
        orbit = "[5]" if verb != "solve-q" else _adjoint_json([1], [3])
        assert main([verb, "--type", "B", "--rank", "2", "--slope", text, "--orbit", orbit]) == 2, verb
        captured = capsys.readouterr()
        assert captured.out == "" and "slope must be d or d/m in ASCII digits" in captured.err, verb
    assert main(["oracle", "--type", "B", "--rank", "2", "--slope", text]) == 2
    assert main(["tables", "--name", "t_clq", "--family", "B", "--rank", "2", "--slope", text, "--mults", "1",
                 "--zero-mult", "1"]) == 2
    capsys.readouterr()
    code, out = run_cli(capsys, "solve", "--type", "B", "--rank", "2", "--slope", "1", "--orbit", "[5]")
    assert code == 0 and json.loads(out)["affirmative"] is True


def test_solve_needs_hasse(capsys):
    code, out = run_cli(capsys, "solve", "--type", "E6", "--slope", "5/12", "--orbit", "2A2")
    assert code == 3
    assert json.loads(out)["affirmative"] == "unknown-needs-hasse"


def test_solve_with_hasse_file(tmp_path, capsys):
    hasse = [
        {"from": "A2+2A1", "to": "2A2"},
        {"label": "2A2", "dimC": 30},
        {"label": "A2+2A1", "dimC": 28},
    ]
    path = tmp_path / "hasse.json"
    path.write_text(json.dumps(hasse))
    code, out = run_cli(
        capsys,
        "solve", "--type", "E6", "--slope", "5/12", "--orbit", "2A2", "--hasse-file", str(path),
    )
    assert code == 0
    assert json.loads(out)["affirmative"] is False


@pytest.mark.parametrize("covers,message", [
    ([("2A2", "A2+2A1"), ("A2+2A1", "2A2")], "invalid input: covers form a cycle through 2A2 -> A2+2A1"),
    ([("A2+2A1", "2A2"), ("2A2", "2A2")], "invalid input: covers form a cycle through 2A2 -> 2A2"),
    ([("2A2", "FOO"), ("FOO", "A2+2A1")], "error: unknown E6 orbit labels in the Hasse file: 'FOO'"),
], ids=["cycle", "self-cover", "unknown-label"])
def test_hasse_file_that_is_no_closure_order_exits_2(tmp_path, capsys, covers, message):
    # each of these once answered "affirmative: true, rigid: true" or
    # "affirmative: false" with exit 0
    path = tmp_path / "hasse.json"
    path.write_text(json.dumps([{"from": hi, "to": lo} for hi, lo in covers]))
    assert main(["solve", "--type", "E6", "--slope", "5/12", "--orbit", "2A2", "--hasse-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


@pytest.mark.parametrize("items,message", [
    ([{"from": "A2+2A1", "to": "2A2"}, {"from": "0", "to": "A1"}],
     "invalid input: dim C must increase downward: 0 -> A1"),
    ([{"from": "A2+2A1", "to": "2A2"}, {"label": "2A2", "dimC": 31}],
     "error: dimC in the Hasse file disagrees with the embedded E6 values: '2A2' (31, embedded 30)"),
], ids=["cover-against-embedded", "dimC-against-embedded"])
def test_hasse_file_against_the_embedded_dim_c_exits_2(tmp_path, capsys, items, message):
    # the zero orbit (dim C 78) above A1 (56) once answered with exit 0
    path = tmp_path / "hasse.json"
    path.write_text(json.dumps(items))
    assert main(["solve", "--type", "E6", "--slope", "5/12", "--orbit", "2A2", "--hasse-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


@pytest.mark.parametrize("argv,partial,contrary", [
    (["solve", "--type", "F4", "--slope", "5/6", "--orbit", "C3(a1)"], ("A2", "A1"), ("A1", "A2")),
    (["solve", "--type", "G2", "--slope", "5/6", "--orbit", "~A1"], ("G2(a1)", "~A1"), ("A1", "~A1")),
], ids=["F4", "G2"])
def test_g2_f4_hasse_file_adds_to_the_embedded_order(tmp_path, capsys, argv, partial, contrary):
    # a partial file once replaced the embedded order, and these exited 2
    # ("unknown orbit label 'A1' or 'C3(a1)'")
    assert main(argv) == 0
    want = capsys.readouterr()
    path = tmp_path / "hasse.json"
    path.write_text(json.dumps([{"from": partial[0], "to": partial[1]}]))
    assert main([*argv, "--hasse-file", str(path)]) == 0
    assert capsys.readouterr() == want
    path.write_text(json.dumps([{"from": contrary[0], "to": contrary[1]}]))
    assert main([*argv, "--hasse-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: covers form a cycle through {contrary[0]} -> {contrary[1]}\n"


def test_classical_hasse_file_is_refused_before_it_is_read(tmp_path, capsys):
    # a classical solve once read and validated the file, then ignored it
    argv = ["solve", "--type", "B", "--rank", "3", "--slope", "1/6", "--orbit", "[7]"]
    present = tmp_path / "hasse.json"
    present.write_text(json.dumps([{"from": "A2+2A1", "to": "2A2"}]))
    for path in (tmp_path / "no-such.json", present):
        assert main([*argv, "--hasse-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --hasse-file applies to G2-E8 only, not to B\n"
    assert main(argv) == 0
    capsys.readouterr()


def test_missing_input_files_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "no-such.json")
    cases = (
        ["solve", "--type", "B", "--rank", "4", "--slope", "3/8", "--orbit-file", missing],
        ["solve-q", "--type", "B", "--rank", "4", "--slope", "3/8", "--orbit-file", missing],
        ["delta", "--type", "F4", "--slope", "5/6", "--orbit-file", missing],
        ["solve", "--type", "E6", "--slope", "5/12", "--orbit", "2A2", "--hasse-file", missing],
        ["solve", "--type", "B", "--rank", "4", "--slope", "3/8", "--orbit-file", str(tmp_path)],
    )
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("fam,sl", [("G2", "1/6"), ("F4", "5/6"), ("E6", "1/12")])
def test_unknown_exceptional_label_exit_2(tmp_path, capsys, fam, sl):
    # a suffix that names no distinguished orbit of its factor, and factors of another type
    wrong = {"G2": ["G2(a2)"], "F4": ["F4(a4)", "C3(a2)", "B3(a1)", "B2(a1)"], "E6": ["C3(a1)", "F4(a1)"]}[fam]
    for label in ("FOO", "A9", "G2(a9)", "~A3", *wrong):
        assert main(["solve", "--type", fam, "--slope", sl, "--orbit", label]) == 2
        assert main(["delta", "--type", fam, "--slope", sl, "--orbit", label]) == 2
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"kind": "nilpotent", "label": label}))
        assert main(["solve", "--type", fam, "--slope", sl, "--orbit-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unknown {fam} orbit label" in captured.err
    # every catalogued label is still accepted
    from isods import exceptional_data as xd

    for f, label in xd.DIM_C:
        if f == fam:
            assert main(["solve", "--type", fam, "--slope", sl, "--orbit", label]) == 0, label
    capsys.readouterr()


def _embedded_labels(fam):
    from isods import exceptional_data as xd

    return (
        {label for f, label in xd.DIM_C if f == fam}
        | {label for (f, _), (label, _) in xd.EXC_COXETER.items() if f == fam}
        | {label for f, _, label, _ in xd.POTENTIALLY_RIGID_EXC if f == fam}
    )


@pytest.mark.parametrize("fam,sl", [("E6", "5/12"), ("E7", "7/18"), ("E8", "7/30")])
def test_e_type_label_grammar(tmp_path, capsys, fam, sl):
    too_big = {"E6": "A6+A1", "E7": "E7+A1", "E8": "E8+A1"}[fam]
    # no Levi subalgebra has these types; factors come in falling rank; E7
    # splits 3A1 and A5 into primed classes, and only E7 has primed classes
    not_levi = {"E6": ["(3A1)'"], "E7": ["D4+2A1", "3A1", "A5"], "E8": ["D6+A1"]}[fam]
    # D and E factors carry only the suffixes of their distinguished orbits
    bad_suffix = {"E6": ["E6(a9)", "E6(a2)", "D4(a2)"], "E7": ["D4(a7)+A1", "E7(b4)", "D6(a3)"],
                  "E8": ["E7(b4)", "E8(a8)", "D7(b1)"]}[fam]
    for label in ("FOO", "A9", "A4(a1)", "2D4", "D3", "(A5)", "(A5)'''", "A1+", "0+A1", too_big, "A1+A2", *not_levi,
                  *bad_suffix):
        assert main(["solve", "--type", fam, "--slope", sl, "--orbit", label]) == 2, label
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"kind": "nilpotent", "label": label}))
        assert main(["delta", "--type", fam, "--slope", sl, "--orbit-file", str(path)]) == 2, label
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 2 and f"unknown {fam} orbit label" in captured.err
    # every label of the embedded data, and the primed E7 forms, still parse
    labels = _embedded_labels(fam) | ({"(3A1)''", "(A3+A1)'", "(A5)''"} if fam == "E7" else set())
    assert len(labels) >= 8
    for label in sorted(labels):
        assert main(["solve", "--type", fam, "--slope", sl, "--orbit", label]) in (0, 3), label
    capsys.readouterr()


def test_e_type_full_rank_labels(capsys):
    # the only Levi subalgebra of full rank is the whole algebra
    for fam, sl, label in (("E7", "7/18", "A7"), ("E8", "7/30", "E7+A1"), ("E6", "5/12", "D5+A1")):
        assert main(["solve", "--type", fam, "--slope", sl, "--orbit", label]) == 2, label
        captured = capsys.readouterr()
        assert captured.out == "" and f"unknown {fam} orbit label" in captured.err
    assert main(["solve", "--type", "E7", "--slope", "7/18", "--orbit", "E7(a1)"]) in (0, 3)
    assert json.loads(capsys.readouterr().out)["o_nil"]["label"] == "E7(a1)"
    assert main(["solve", "--type", "E8", "--slope", "7/30", "--orbit", "A7"]) in (0, 3)


def test_coxeter_route_labels_are_accepted(capsys):
    # every label the Coxeter route gives a subset of the diagram is a valid
    # orbit label, so the CLI and the route name Levi subalgebras alike
    for fam, sl in (("E6", "5/12"), ("E7", "7/18"), ("E8", "7/30")):
        t = lie_type(fam)
        nodes = affine_marks(t).finite_nodes
        labels = {orbit_J_reg(t, J).label for k in range(len(nodes) + 1) for J in combinations(nodes, k)}
        for label in sorted(labels):
            assert main(["solve", "--type", fam, "--slope", sl, "--orbit", label]) in (0, 3), label
    capsys.readouterr()


def test_coxeter_show_subsets_rank_budget(capsys):
    from isods.cli import SHOW_SUBSETS_MAX_RANK

    code = main(["coxeter", "--type", "B", "--rank", str(SHOW_SUBSETS_MAX_RANK + 1), "--d", "1", "--show-subsets"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "--show-subsets" in captured.err
    code, out = run_cli(capsys, "coxeter", "--type", "B", "--rank", str(SHOW_SUBSETS_MAX_RANK), "--d", "1", "--show-subsets")
    assert code == 0 and json.loads(out)["o_nu"]["partition"] == [2 * SHOW_SUBSETS_MAX_RANK + 1]


def test_q_route_tail_size_budget(capsys):
    """The q route answers a B/C/D zero sector of any size: its tails come in
    closed form, so solve-q and tables --name t_clq bound no tail size.  Zero
    sectors of size 66 and 65, which the CLI once refused, answer as the
    in-process route does."""
    from isods.orbits import AdjointOrbit
    from isods.root_data import slope
    from isods.solver import ds_solve_q
    from isods.tables import generate

    # C33 with zero multiplicity 33 and B32 with 32 (B is the default family)
    for family, rank, sl, zero_mult in (("C", 33, slope(1, 2), 33), (None, 32, slope(1, 4), 32)):
        argv = ["tables", "--name", "t_clq", "--rank", str(rank), "--slope", str(sl), "--mults", "",
                "--zero-mult", str(zero_mult)] + (["--family", family] if family else [])
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out == generate("t_clq", family, None, rank=rank, slope=sl, mults=(),
                                            zero_mult=zero_mult), argv
        assert out.splitlines()[1].startswith(f"{family or 'B'},{rank},{sl},"), argv
    t = lie_type("B", 32)
    code, out = run_cli(capsys, "solve-q", "--type", "B", "--rank", "32", "--slope", "1/4", "--orbit",
                        _adjoint_json([], [1] * 65))
    answer = ds_solve_q(t, slope(1, 4), AdjointOrbit(t, (), (1,) * 65)).to_json()
    assert code == 0 and out == json.dumps(answer, sort_keys=True) + "\n"
    # the cells that answered under the old bound of 64 still do: sizes 64 and 63, and the golden cell C26
    code, out = run_cli(capsys, "tables", "--name", "t_clq", "--family", "C", "--rank", "32", "--slope", "1/4",
                        "--mults", "", "--zero-mult", "32")
    assert code == 0 and out.splitlines()[1] == "C,32,1/4,,[" + ",".join(["4"] * 16) + "]"
    code, out = run_cli(capsys, "solve-q", "--type", "B", "--rank", "31", "--slope", "1/2", "--orbit",
                        _adjoint_json([], [1] * 63))
    assert code == 0 and json.loads(out)["affirmative"] is False
    code, out = run_cli(capsys, "tables", "--name", "t_clq", "--family", "C", "--rank", "26", "--slope", "1/4",
                        "--mults", "1", "--zero-mult", "25")
    assert code == 0 and out.splitlines()[1] == "C,26,1/4,[1],[4,4,4,4,4,4,4,4,4,4,4,3,3]"


def test_coxeter_rank_30_answers(capsys):
    code, out = run_cli(capsys, "coxeter", "--type", "B", "--rank", "30", "--d", "1")
    assert code == 0 and json.loads(out) == {"o_nu": {"kind": "nilpotent", "partition": [61]}}
    code, out = run_cli(capsys, "coxeter", "--type", "D", "--rank", "30", "--d", "21")
    assert code == 0 and json.loads(out)["o_nu"]["partition"] == [3] * 17 + [2] * 4 + [1]
    assert main(["coxeter", "--type", "B", "--rank", "4", "--d", "-1"]) == 2


def test_coxeter_rank_bound(capsys):
    from isods.cli import COXETER_MAX_RANK

    assert COXETER_MAX_RANK >= 30  # test_coxeter_rank_30_answers runs B30 and D30
    for fam in ("A", "B", "C", "D"):
        code = main(["coxeter", "--type", fam, "--rank", str(COXETER_MAX_RANK + 1), "--d", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1, fam
        assert f"above the bound {COXETER_MAX_RANK}" in captured.err, fam
    code, out = run_cli(capsys, "coxeter", "--type", "C", "--rank", str(COXETER_MAX_RANK), "--d", "1")
    assert code == 0 and json.loads(out)["o_nu"]["partition"] == [2 * COXETER_MAX_RANK]


def test_tables_and_rigid_rank_bound(capsys):
    from isods.cli import TABLES_MAX_RANK

    above = str(TABLES_MAX_RANK + 1)
    for argv in (["tables", "--name", "t_clCox", "--family", "C"], ["tables", "--name", "t_cl_ell_rig"],
                 ["tables", "--name", "t_excCox"], ["rigid", "--family", "D"],
                 ["rigid", "--family", "B", "--format", "json"]):
        code = main([*argv, "--max-rank", above])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1, argv
        assert f"--max-rank {above} is above the bound {TABLES_MAX_RANK}" in captured.err, argv
    code, out = run_cli(capsys, "tables", "--name", "t_clCox", "--family", "A", "--max-rank", str(TABLES_MAX_RANK))
    assert code == 0 and out.splitlines()[-1].startswith(f"A,{TABLES_MAX_RANK},")


def test_solve_adjoint_file(tmp_path, capsys):
    orbit = {
        "kind": "adjoint",
        "blocks": [{"eig": "a1", "mult": 2, "partition": [2]}],
        "zero_block": [3, 1, 1],
    }
    path = tmp_path / "o.json"
    path.write_text(json.dumps(orbit))
    code, out = run_cli(
        capsys, "solve", "--type", "B", "--rank", "4", "--slope", "3/8", "--orbit-file", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["o_nil"]["partition"] == [7, 1, 1]


def test_solve_q_matches_solve(capsys):
    orbit = json.dumps(
        {
            "kind": "adjoint",
            "blocks": [{"eig": "a1", "mult": 2, "partition": [1, 1]}],
            "zero_block": [1, 1, 1, 1, 1],
        }
    )
    code, out1 = run_cli(capsys, "solve", "--type", "B", "--rank", "4", "--slope", "3/8", "--orbit", orbit)
    assert code == 0
    code, out2 = run_cli(capsys, "solve-q", "--type", "B", "--rank", "4", "--slope", "3/8", "--orbit", orbit)
    assert code == 0
    assert json.loads(out1)["affirmative"] == json.loads(out2)["affirmative"]


def _adjoint_json(mults, zero_block):
    blocks = [{"eig": f"a{i}", "mult": m, "partition": [1] * max(m, 0)} for i, m in enumerate(mults)]
    return json.dumps({"kind": "adjoint", "blocks": blocks, "zero_block": list(zero_block)})


def test_inconsistent_slot_data_exit_2(capsys):
    # each multiplicity is positive, the zero multiplicity is nonnegative, and
    # together they fill rank + 1 (type A) or rank (types B/C/D)
    cases = (
        (["--family", "C", "--rank", "4", "--slope", "1/2", "--mults", "3,3"], "sum to 6, expected 4"),
        (["--family", "A", "--rank", "5", "--slope", "1/2", "--mults", "4"], "sum to 4, expected 6"),
        (["--family", "D", "--rank", "4", "--slope", "1/2", "--mults", "2"], "sum to 2, expected 4"),
        (["--family", "C", "--rank", "4", "--slope", "1/2", "--mults", "4", "--zero-mult=-1"],
         "zero multiplicity must be >= 0"),
        (["--family", "C", "--rank", "4", "--slope", "1/2", "--mults", "0,4"], "multiplicities must be positive"),
        (["--family", "B", "--rank", "4", "--slope", "1/2", "--mults=-1,5"], "multiplicities must be positive"),
        (["--family", "B", "--rank", "4", "--slope", "1/4", "--mults", "2,,1", "--zero-mult=1"], "empty entry"),
        (["--family", "B", "--rank", "4", "--slope", "1/4", "--mults", ",3", "--zero-mult=1"], "empty entry"),
        (["--family", "B", "--rank", "4", "--slope", "1/4", "--mults", "3,", "--zero-mult=1"], "empty entry"),
        # an empty --mults lists no nonzero multiplicity
        (["--family", "B", "--rank", "4", "--slope", "1/4", "--mults", "", "--zero-mult=1"], "sum to 1, expected 4"),
        # a given but invalid rank or slope is reported as such, not as missing
        (["--family", "B", "--rank", "0", "--slope", "1/4", "--mults", "1"], "B-rank must be >= 2"),
        (["--family", "B", "--rank", "4", "--slope=", "--mults", "4"], "slope must be d or d/m in ASCII digits"),
    )
    for argv, message in cases:
        assert main(["tables", "--name", "t_clq", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, (argv, captured.err)
    # the same structures are accepted once they are consistent
    assert main(["tables", "--name", "t_clq", "--family", "C", "--rank", "6", "--slope", "1/2", "--mults", "3,3"]) == 0
    assert main(["tables", "--name", "t_clq", "--family", "A", "--rank", "5", "--slope", "1/2", "--mults", "4",
                 "--zero-mult", "2"]) == 0
    assert main(["tables", "--name", "t_clq", "--family", "B", "--rank", "4", "--slope", "1/4", "--mults", "2,1",
                 "--zero-mult", "1"]) == 0
    assert main(["tables", "--name", "t_clq", "--family", "B", "--rank", "4", "--slope", "1/4", "--mults", "",
                 "--zero-mult", "4"]) == 0
    capsys.readouterr()
    # an eigenvalue of multiplicity 0 in an orbit given to any orbit verb
    orbit = _adjoint_json([0, 2], [1, 1, 1, 1, 1])
    for verb in ("solve", "solve-q", "delta"):
        assert main([verb, "--type", "B", "--rank", "4", "--slope", "3/8", "--orbit", orbit]) == 2, verb
        captured = capsys.readouterr()
        assert captured.out == "" and "multiplicities must be positive" in captured.err, verb


def test_zero_eigenvalue_block_exit_2(capsys):
    # eigenvalue 0 belongs to the zero block: a block tagged 0 is invalid in
    # B/C/D, and in type A when the zero block is nonempty
    a3 = ["--type", "A", "--rank", "3", "--slope", "1/4"]
    for head, zero_block in ((a3, [2]), (["--type", "C", "--rank", "2", "--slope", "1/4"], [])):
        for eig in (0, "0", "0/3"):
            block = {"eig": eig, "mult": 2, "partition": [2]}
            orbit = json.dumps({"kind": "adjoint", "blocks": [block], "zero_block": zero_block})
            for verb in ("solve", "solve-q", "delta"):
                assert main([verb, *head, "--orbit", orbit]) == 2, (verb, head, eig)
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.count("\n") == 1
                assert "eigenvalue 0 goes in the zero block" in captured.err
    # the A3 orbit above written as the nilpotent orbit it is
    code, out = run_cli(capsys, "solve", *a3, "--orbit", "[2,2]")
    assert code == 0 and json.loads(out)["affirmative"] is False
    code, out = run_cli(capsys, "delta", *a3, "--orbit", "[2,2]")
    assert code == 0 and json.loads(out)["delta"] == "-2"
    # type A may write 0 as a block while its zero block is empty
    blocks = [{"eig": 0, "mult": 2, "partition": [2]}, {"eig": "a", "mult": 2, "partition": [2]}]
    orbit = json.dumps({"kind": "adjoint", "blocks": blocks, "zero_block": []})
    assert main(["solve", *a3, "--orbit", orbit]) == 0
    capsys.readouterr()


def _exit_code(argv) -> int:
    """Exit code of main on argv, output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            return exc.code


def _usually(valid, malformed):
    """valid three times in four, malformed otherwise."""
    return st.sampled_from((True, True, True, False)).flatmap(lambda ok: valid if ok else malformed)


_SLOPES = _usually(
    st.builds("{}/{}".format, st.integers(1, 21), st.integers(1, 20)),
    st.one_of(
        st.builds("{}/{}".format, st.integers(-1, 2), st.integers(-1, 2)),
        st.sampled_from(("abc", "1/0", "0/0", "3", "", "2/4", "1/2/3", "/2", "1/")),
    ),
)
_RANK_TEXTS = st.sampled_from(("x", "1.5", ""))


@st.composite
def q_argv(draw):
    """argv of solve-q or tables --name t_clq: each of family, rank, slope,
    multiplicities and zero multiplicity is usually well formed (the
    multiplicities then fill the type) and otherwise malformed."""
    family = draw(_usually(st.sampled_from("ABCD"), st.sampled_from(("G2", "E6", "Q", "", " ", "b", "B4"))))
    rank = draw(_usually(st.integers(1, 9), st.integers(-2, 0)))
    slope = draw(_SLOPES)
    cap = rank + 1 if family == "A" else rank
    zero_mult = draw(_usually(st.integers(0, max(cap, 0)), st.integers(-2, 12)))
    mults, rest = [], cap - zero_mult
    while rest > 0:
        mults.append(draw(st.integers(1, rest)))
        rest -= mults[-1]
    mults = draw(_usually(st.just(mults), st.lists(st.integers(-2, 9), max_size=4)))
    argv = [f"--slope={slope}", f"--rank={draw(_usually(st.just(str(rank)), _RANK_TEXTS))}"]
    if draw(st.booleans()):
        tail = zero_mult if family == "A" else 2 * zero_mult + (family == "B")
        zero_block = [1] * draw(_usually(st.just(max(tail, 0)), st.integers(0, 19)))
        return ["solve-q", f"--type={family}", "--orbit", _adjoint_json(mults, zero_block), *argv]
    return ["tables", "--name", "t_clq", f"--family={family}", f"--mults={','.join(map(str, mults))}",
            f"--zero-mult={zero_mult}", *argv]


@settings(max_examples=200, deadline=None)
@given(q_argv())
def test_q_verbs_exit_with_documented_codes(argv):
    """solve-q and tables --name t_clq on malformed family, rank, slope,
    multiplicities and zero multiplicity end in a documented exit code and
    never in a traceback."""
    assert _exit_code(argv) in (0, 2, 3, 4), argv


# elliptic regular numbers of many types up to rank 8 and of G2-E8, so that a
# well-formed oracle slope often reaches a lattice model (or, for G2-E8, the
# refusal to build one)
_ELLIPTIC_MS = (2, 3, 4, 6, 8, 9, 12, 14, 16, 18, 30)


@st.composite
def oracle_argv(draw):
    """argv of oracle or coxeter, ranks up to 8: each of type, rank, slope,
    --d, --budget and --seed is usually well formed and otherwise malformed."""
    family = draw(_usually(
        st.sampled_from(("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")),
        st.sampled_from(("Q", "", " ", "b", "B4", "E9", "e6")),
    ))
    rank = draw(_usually(st.integers(1, 8).map(str), st.one_of(st.integers(-2, 0).map(str), _RANK_TEXTS)))
    argv = [f"--type={family}"]
    if family[:1] not in "EFG" or draw(st.booleans()):  # exceptional types need no rank
        argv.append(f"--rank={rank}")
    if draw(st.booleans()):
        budget = draw(_usually(st.integers(0, 50).map(str), st.sampled_from(("-1", "x", "", "1e3"))))
        seed = draw(_usually(st.integers(0, 99).map(str), st.sampled_from(("-5", "x", "", "0.5"))))
        slope = draw(st.one_of(_SLOPES, st.builds("{}/{}".format, st.integers(1, 40), st.sampled_from(_ELLIPTIC_MS))))
        return ["oracle", *argv, f"--slope={slope}", f"--budget={budget}", f"--seed={seed}"]
    d = draw(_usually(st.integers(1, 40).map(str), st.sampled_from(("0", "-3", "x", "", "1.5"))))
    return ["coxeter", *argv, f"--d={d}", *(["--show-subsets"] if draw(st.booleans()) else [])]


@settings(max_examples=200, deadline=None)
@given(oracle_argv())
@example(["oracle", "--type=G2", "--slope=1/6", "--budget=3", "--seed=0"])
def test_oracle_verbs_exit_with_documented_codes(argv):
    """oracle and coxeter on malformed type, rank, slope, --d, --budget and
    --seed end in a documented exit code and never in a traceback."""
    assert _exit_code(argv) in (0, 2, 3, 4), argv


# malformed JSON input that once answered for a truncated orbit ([7.5] as
# [7], a mult of 2.7 as 2) or ended in a traceback; the last two are the
# contents of a Hasse file
_SOLVE_B3 = ["solve", "--type=B", "--rank=3", "--slope=1/6"]
_SOLVE_E6 = ["solve", "--type=E6", "--slope=5/12"]
_MALFORMED_JSON = (
    (_SOLVE_B3, "[7.5]", None),
    (_SOLVE_B3, _adjoint_json([2], [3]).replace('"mult": 2', '"mult": 2.7'), None),
    (_SOLVE_B3, '{"partition":7}', None),
    (_SOLVE_B3, "[[7]]", None),
    (_SOLVE_B3, "[1e400]", None),
    (_SOLVE_B3, "[true, 6]", None),
    (_SOLVE_B3, '{"kind":"adjoint","blocks":[1],"zero_block":[1]}', None),
    (_SOLVE_E6, '{"label":5}', None),
    (_SOLVE_E6, "2A2", [1]),
    (_SOLVE_E6, "2A2", [{"from": ["A2"], "to": "A1"}]),
)


def _with_hasse(argv, hasse, tmp):
    """argv with a --hasse-file holding hasse as JSON, when hasse is not None."""
    if hasse is None:
        return argv
    path = os.path.join(tmp, "hasse.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(hasse, fh)
    return [*argv, f"--hasse-file={path}"]


def test_malformed_json_input_exit_2(tmp_path, capsys):
    # parts, mult and dimC are JSON integers (not booleans), blocks and a
    # Hasse file are lists of objects, labels are strings
    for head, orbit, hasse in _MALFORMED_JSON:
        argv = _with_hasse([*head, f"--orbit={orbit}"], hasse, str(tmp_path))
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, (argv, captured.err)
    # the well-formed versions still answer
    assert main([*_SOLVE_B3, "--orbit=[7]"]) == 0
    assert main([*_SOLVE_B3, f"--orbit={_adjoint_json([2], [3])}"]) == 0
    capsys.readouterr()


_EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")
_FAMILIES = _usually(
    st.sampled_from(("A", "B", "C", "D") + _EXCEPTIONAL),
    st.sampled_from(("Q", "", " ", "b", "B4", "E9", "e6")),
)
# JSON values of any shape, over the keys that orbits and Hasse files use
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.sampled_from(("", "A1", "2A2", "a1", "adjoint")),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(("kind", "label", "partition", "blocks", "eig", "mult", "zero_block", "very_even_label",
                         "from", "to", "dimC")),
        inner, max_size=4,
    ),
    max_leaves=12,
)
_HASSE_LABELS = st.sampled_from(("0", "A1", "2A1", "A2", "2A2", "A2+2A1"))
_HASSE = st.lists(st.one_of(
    st.fixed_dictionaries({"from": _HASSE_LABELS, "to": _HASSE_LABELS}),
    st.fixed_dictionaries({"label": _HASSE_LABELS, "dimC": st.integers(20, 80)}),
), max_size=5)


@st.composite
def orbit_text(draw, family, rank):
    """An --orbit value: usually a well-formed orbit of the type (a label, a
    partition of the right size, or an adjoint orbit whose multiplicities
    fill the type), otherwise any JSON value."""
    if not draw(st.sampled_from((True, True, True, False))):
        return json.dumps(draw(_JSON_VALUES))
    if family in _EXCEPTIONAL:
        label = draw(st.sampled_from(sorted(orbit_labels(lie_type(family)))))
        return draw(st.sampled_from((label, json.dumps({"kind": "nilpotent", "label": label}))))
    parts, rest = [], {"A": rank + 1, "B": 2 * rank + 1}.get(family, 2 * rank)
    while rest > 0:
        parts.append(draw(st.integers(1, rest)))
        rest -= parts[-1]
    if draw(st.booleans()):
        return draw(st.sampled_from((json.dumps(parts), json.dumps({"kind": "nilpotent", "partition": parts}))))
    cap = rank + 1 if family == "A" else rank
    zero_mult = draw(st.integers(0, cap))
    mults, rest = [], cap - zero_mult
    while rest > 0:
        mults.append(draw(st.integers(1, rest)))
        rest -= mults[-1]
    tail = zero_mult if family == "A" else 2 * zero_mult + (family == "B")
    return _adjoint_json(mults, [1] * tail)


@st.composite
def orbit_verb_argv(draw):
    """(argv, Hasse file contents or None) of solve, delta, rigid or tables
    (names other than t_clq), ranks up to 8: type, rank, slope, orbit, Hasse
    file, --format and --name are each usually well formed."""
    verb = draw(st.sampled_from(("solve", "delta", "rigid", "tables")))
    family = draw(_FAMILIES)
    rank = draw(st.integers(1, 8))
    rank_text = draw(_usually(st.just(str(rank)), st.one_of(st.integers(-2, 0).map(str), _RANK_TEXTS)))
    if verb == "rigid":
        fmt = draw(_usually(st.sampled_from(("csv", "json")), st.sampled_from(("", "xml"))))
        return ["rigid", f"--family={family}", f"--max-rank={rank_text}", f"--format={fmt}"], None
    if verb == "tables":
        names = [name for name in TABLE_NAMES if name != "t_clq"]
        name = draw(_usually(st.sampled_from(names), st.sampled_from(("", "bogus", "T_CLCOX"))))
        argv = ["tables", f"--name={name}", f"--max-rank={rank_text}"]
        return argv + ([f"--family={family}"] if draw(st.booleans()) else []), None
    slope = draw(st.one_of(_SLOPES, st.builds("{}/{}".format, st.integers(1, 40), st.sampled_from(_ELLIPTIC_MS))))
    argv = [verb, f"--type={family}", f"--slope={slope}", f"--orbit={draw(orbit_text(family, rank))}"]
    if family[:1] not in "EFG" or draw(st.booleans()):  # exceptional types need no rank
        argv.append(f"--rank={rank_text}")
    hasse = draw(_usually(_HASSE, _JSON_VALUES)) if verb == "solve" and draw(st.booleans()) else None
    return argv, hasse


def _examples(cases):
    """A hypothesis @example for each (argv head, orbit, Hasse file contents)."""
    def decorate(test):
        for head, orbit, hasse in cases:
            test = example(([*head, f"--orbit={orbit}"], hasse))(test)
        return test
    return decorate


@settings(max_examples=200, deadline=None)
@given(orbit_verb_argv())
@_examples(_MALFORMED_JSON)
@example((["tables", "--name=t_clCox", "--family=G2"], None))  # a classical table of G2 once raised TypeError
def test_orbit_verbs_exit_with_documented_codes(case):
    """solve, delta, rigid and tables on malformed type, rank, slope, orbit,
    Hasse file, --format and --name end in a documented exit code and never
    in a traceback.  (check has its fixed-argv test below.)"""
    argv, hasse = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = _with_hasse(argv, hasse, tmp)
        assert _exit_code(argv) in (0, 2, 3, 4), argv


def test_delta_command(capsys):
    code, out = run_cli(capsys, "delta", "--type", "F4", "--slope", "5/6", "--orbit", "A1")
    assert code == 0
    assert json.loads(out) == {"delta": "2", "rigid": False}


def test_delta_and_solve_agree_on_undecidable_rigid(capsys):
    # symbolic and rational tags at an elliptic m with Delta = 0: ds delta
    # once printed false where ds solve printed "n/a"
    orbit = json.dumps({"kind": "adjoint", "zero_block": [], "blocks": [
        {"eig": "a", "mult": 1, "partition": [1]}, {"eig": "1/3", "mult": 2, "partition": [2]}]})
    head = ["--type", "C", "--rank", "3", "--slope", "1/6", "--orbit", orbit]
    code, out = run_cli(capsys, "delta", *head)
    assert code == 0 and json.loads(out) == {"delta": "0", "rigid": "n/a"}
    code, out = run_cli(capsys, "solve", *head)
    assert code == 0 and json.loads(out)["rigid"] == "n/a"


def test_delta_at_a_non_regular_slope_is_an_unsupported_slope(capsys):
    assert main(["delta", "--type", "B", "--rank", "2", "--slope", "1/3", "--orbit", "[3,1,1]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("unsupported slope: ")


def test_coxeter_command(capsys):
    code, out = run_cli(capsys, "coxeter", "--type", "F4", "--d", "5", "--show-subsets")
    assert code == 0
    data = json.loads(out)
    assert data["o_nu"]["label"] == "A2+~A1"
    minimal = [a for a in data["allowable"] if a["minimal"]]
    assert {tuple(a["J"]) for a in minimal if 0 not in a["J"]} == {(2, 3), (1, 2, 4), (1, 3, 4)}


def test_oracle_negative_budget_exit_2(capsys):
    # --budget -1 once ran as 0 and certified B3 1/6 as [7]
    head = ["oracle", "--type", "B", "--rank", "3", "--slope", "1/6"]
    for budget in ("-1", "-10000"):
        assert main([*head, "--budget", budget]) == 2, budget
        captured = capsys.readouterr()
        assert captured.out == "" and f"--budget {budget} is negative" in captured.err, budget
    code, out = run_cli(capsys, *head, "--budget", "0")
    assert code == 0 and json.loads(out) == {"certified": True, "jordan_type": [7]}


def test_oracle_command(capsys):
    code, out = run_cli(capsys, "oracle", "--type", "B", "--rank", "4", "--slope", "1/4", "--budget", "100", "--seed", "7")
    assert code == 0
    assert json.loads(out) == {"certified": True, "jordan_type": [5, 3, 1]}
    # the lattice models cover types A-D only: F4 1/2 used to answer a
    # certified Jordan type of a B/D model and E6 1/12 to raise AssertionError
    for argv in (["--type", "F4", "--slope", "1/2"], ["--type", "E6", "--slope", "1/12"]):
        assert main(["oracle", *argv]) == 2, argv
    assert "cover types A-D" in capsys.readouterr().err


def test_oracle_rank_bound(capsys):
    from isods.cli import ORACLE_MAX_RANK

    for fam in ("A", "B", "C", "D"):
        code = main(["oracle", "--type", fam, "--rank", str(ORACLE_MAX_RANK + 1), "--slope", "1/4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1, fam
        assert f"above the bound {ORACLE_MAX_RANK}" in captured.err, fam
    code, out = run_cli(capsys, "oracle", "--type", "C", "--rank", str(ORACLE_MAX_RANK), "--slope",
                        f"1/{2 * ORACLE_MAX_RANK}")
    assert code == 0 and json.loads(out) == {"certified": True, "jordan_type": [2 * ORACLE_MAX_RANK]}


def test_rigid_command(capsys):
    code, out = run_cli(capsys, "rigid", "--family", "C", "--max-rank", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "family,rank,m,d,o_nu"


def test_tables_roundtrip_stability(capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "tables", "--name", "t_clCox", "--family", "B", "--max-rank", "5")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].endswith("\n") and "\r" not in outs[0]


def test_unknown_table(capsys):
    with pytest.raises(SystemExit):
        main(["tables", "--name", "bogus"])


def test_check_command(capsys):
    code, out = run_cli(capsys, "check", "--max-rank", "3")
    assert code == 0
    report = json.loads(out)
    assert set(report.values()) == {"ok"} and "coxeter_classical" in report


@pytest.mark.parametrize("max_rank", (-3, 0, 2, 3, 4, CHECK_MAX_RANK, CHECK_MAX_RANK + 1, 10**9))
def test_check_exit_codes_at_small_max_rank(capsys, max_rank):
    # below rank 3 the D draws of the q-equivalence check once ended in
    # "invalid input: empty range for randrange()"; above the upper bound
    # its partition listing grows past seconds and hundreds of MB
    t0 = time.perf_counter()
    code = main(["check", f"--max-rank={max_rank}"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if max_rank < 3:
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --max-rank {max_rank} is below 3, the least rank ds check runs at\n"
    elif max_rank > CHECK_MAX_RANK:
        assert code == 2 and captured.out == "" and time.perf_counter() - t0 < 1
        assert captured.err == (
            f"error: ds check lists the partitions of 2*rank+1; --max-rank {max_rank} is above the bound {CHECK_MAX_RANK}\n"
        )
    else:
        assert set(json.loads(captured.out).values()) == {"ok"}


def test_malformed_eigenvalue_exit_2(capsys):
    # an eig that is no JSON string or number once answered as the symbolic
    # tag "[1]", "True" or "None"
    head = ["solve", "--type=B", "--rank=4", "--slope=3/8"]

    def orbit(eig):
        return json.dumps({"kind": "adjoint", "blocks": [{"eig": eig, "mult": 3, "partition": [2, 1]}],
                           "zero_block": [1, 1, 1]})

    for eig in ([1], True, None, "", " ", float("inf")):
        assert main([*head, f"--orbit={orbit(eig)}"]) == 2, eig
        captured = capsys.readouterr()
        assert captured.out == "" and "eig must be a nonempty string or a number" in captured.err, eig
    # strings and finite numbers still answer, rational or symbolic alike
    for eig in ("1/3", 0.5, 2, "a"):
        assert main([*head, f"--orbit={orbit(eig)}"]) == 0, eig
        assert json.loads(capsys.readouterr().out)["o_nil"]["partition"] == [5, 3, 1]


def test_console_script_subprocess():
    # the child finds the package where this process imported it, installed or not
    src = str(Path(isods.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "isods.cli", "solve", "--type", "C", "--rank", "2", "--slope", "1/4", "--orbit", "[4]"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["affirmative"] is True and data["rigid"] is True


def _orbit_forms(text, key, tmp):
    """The argv tails that give an orbit as a bare --orbit text, as an --orbit
    JSON object {key: text}, and as an --orbit-file holding that object."""
    obj = f'{{"{key}": {text if key == "partition" else json.dumps(text)}}}'
    path = os.path.join(tmp, "orbit.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(obj)
    return [[f"--orbit={text}"], [f"--orbit={obj}"], ["--orbit-file", path]]


def _run_captured(argv):
    """(exit code, stdout, stderr) of main on argv."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_orbit_forms_answer_alike(tmp_path):
    # a partition or label given bare, as a JSON object or in an orbit file
    # reaches the same reader, so stdout and the exit code agree
    rng = random.Random(31)
    cases = [(fam, n, json.dumps(list(p)), "partition")
             for fam, n, size in (("B", 3, 7), ("C", 3, 6), ("D", 4, 8))
             for p in rng.sample(valid_partitions(size, ParityClass[fam]), 4)]
    cases += [("E6", None, label, "label") for label in rng.sample(sorted(orbit_labels(lie_type("E6"))), 6)]
    for fam, n, text, key in cases:
        for verb, sl in (("solve", {"B": "1/6", "C": "1/6", "D": "1/4", "E6": "5/12"}[fam]), ("delta", "1/2")):
            head = [verb, f"--type={fam}", f"--slope={sl}"] + ([f"--rank={n}"] if n else [])
            runs = {_run_captured([*head, *form])[:2] for form in _orbit_forms(text, key, str(tmp_path))}
            assert len(runs) == 1, (head, text, runs)
    # malformed entries exit 2 with one line on stderr in every form
    for text in ("[7.5]", "[true, 6]", "[1e400]", "[3,1"):
        for form in _orbit_forms(text, "partition", str(tmp_path)):
            code, out, err = _run_captured([*_SOLVE_B3, *form])
            assert (code, out, err.count("\n")) == (2, "", 1), (form, err)


def test_hasse_file_with_two_faults_reports_the_first(tmp_path):
    # an unknown label inside a cycle: labels are checked before cycles
    path = tmp_path / "hasse.json"
    path.write_text(json.dumps([{"from": "2A2", "to": "FOO"}, {"from": "FOO", "to": "2A2"}]))
    assert _run_captured([*_SOLVE_E6, "--orbit=2A2", f"--hasse-file={path}"]) == (
        2, "", "error: unknown E6 orbit labels in the Hasse file: 'FOO'\n")


@pytest.mark.parametrize("item,key", [({"from": "A1"}, "to"), ({"label": "A1"}, "dimC")], ids=["to", "dimC"])
def test_hasse_file_item_without_its_second_key_exits_2(tmp_path, item, key):
    # these once exited 2 with the bare KeyError text, which named neither
    # the key nor the file
    path = tmp_path / "hasse.json"
    path.write_text(json.dumps([item]))
    code, out, err = _run_captured([*_SOLVE_E6, "--orbit=2A2", f"--hasse-file={path}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and f"'{key}'" in err and "Hasse file" in err, err


@pytest.mark.parametrize("orbit,key,owner", [
    ({"kind": "adjoint"}, "blocks", "the orbit"),
    ({"kind": "adjoint", "blocks": [{"mult": 1, "partition": [1]}]}, "eig", "a block"),
    ({"kind": "adjoint", "blocks": [{"eig": "a", "partition": [1]}]}, "mult", "a block"),
    ({"kind": "adjoint", "blocks": [{"eig": "a", "mult": 1}]}, "partition", "a block"),
    ({"kind": "nilpotent"}, "partition", "the orbit"),
], ids=["blocks", "eig", "mult", "block-partition", "partition"])
def test_orbit_without_a_key_names_the_key_and_its_owner(orbit, key, owner):
    # these once exited 2 with the bare KeyError text, e.g. "invalid input: 'eig'"
    code, out, err = _run_captured([*_SOLVE_B3, f"--orbit={json.dumps(orbit)}"])
    assert (code, out, err) == (2, "", f"error: {owner} has no '{key}'\n")


def test_mults_entry_that_is_not_an_integer_exits_2():
    argv = ["tables", "--name", "t_clq", "--family", "B", "--rank", "3", "--slope", "1/2", "--mults", "1,x"]
    assert _run_captured(argv) == (2, "", "error: --mults '1,x' has an entry that is not an integer\n")


_HELP = ("('-h', '--help')", "help", False, "==SUPPRESS==", None, None, "show this help message and exit")
_TYPE = [("('--type',)", "type", True, None, None, None, "A/B/C/D/G2/F4/E6/E7/E8"),
         ("('--rank',)", "rank", False, None, "int", None, "rank (classical families)")]
_QUERY = _TYPE + [("('--slope',)", "slope", True, None, None, None, None),
                  ("('--orbit',)", "orbit", False, None, None, None, None),
                  ("('--orbit-file',)", "orbit_file", False, None, None, None, None)]
# (option strings, dest, required, default, type, choices, help) of each verb
_PARSER = {
    "solve": [_HELP, *_QUERY, ("('--hasse-file',)", "hasse_file", False, None, None, None, None)],
    "solve-q": [_HELP, *_QUERY],
    "coxeter": [_HELP, *_TYPE, ("('--d',)", "d", True, None, "int", None, None),
                ("('--show-subsets',)", "show_subsets", False, False, None, None,
                 "also list the allowable subsets (rank <= 12)")],
    "delta": [_HELP, *_QUERY],
    "rigid": [_HELP, ("('--family',)", "family", True, None, None, None, None),
              ("('--max-rank',)", "max_rank", False, 10, "int", None, "at most 100"),
              ("('--format',)", "format", False, "csv", None, ("csv", "json"), None)],
    "oracle": [_HELP, *_TYPE, ("('--slope',)", "slope", True, None, None, None, None),
               ("('--budget',)", "budget", False, 10000, "int", None, "at least 0; does not change the answer"),
               ("('--seed',)", "seed", False, 0, "int", None, "does not change the answer")],
    "tables": [_HELP, ("('--name',)", "name", True, None, None, (
                   "t_clCox", "t_excCox", "t_completecl", "t_clq", "t_cl_index_rig", "t_cl_ell_rig", "DSsolnF4",
                   "potigexc-numerics"), None),
               ("('--family',)", "family", False, None, None, None, None),
               ("('--max-rank',)", "max_rank", False, 6, "int", None, "at most 100"),
               ("('--rank',)", "rank", False, None, "int", None, None),
               ("('--slope',)", "slope", False, None, None, None, None),
               ("('--mults',)", "mults", False, None, None, None, "comma-separated nonzero multiplicities"),
               ("('--zero-mult',)", "zero_mult", False, 0, "int", None, None)],
    "check": [_HELP, ("('--max-rank',)", "max_rank", False, 5, "int", None, None)],
}


def test_parser_options_are_pinned(capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_PARSER)
    for verb, parser in sub.choices.items():
        got = [(repr(tuple(a.option_strings)), a.dest, a.required, a.default, getattr(a.type, "__name__", a.type),
                a.choices, a.help) for a in parser._actions]
        assert got == _PARSER[verb], verb
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith(f"usage: ds {verb}"), verb
