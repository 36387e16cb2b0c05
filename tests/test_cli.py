import json
import subprocess
import sys

import pytest

from isods.cli import main


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


@pytest.mark.parametrize("fam,sl", [("G2", "1/6"), ("F4", "5/6")])
def test_unknown_exceptional_label_exit_2(tmp_path, capsys, fam, sl):
    for label in ("FOO", "A9", "G2(a9)", "~A3"):
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
    for label in ("FOO", "A9", "A4(a1)", "2D4", "D3", "(A5)", "(A5)'''", "A1+", "0+A1", too_big):
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


def test_coxeter_show_subsets_rank_budget(capsys):
    from isods.cli import SHOW_SUBSETS_MAX_RANK

    code = main(["coxeter", "--type", "B", "--rank", str(SHOW_SUBSETS_MAX_RANK + 1), "--d", "1", "--show-subsets"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "--show-subsets" in captured.err
    code, out = run_cli(capsys, "coxeter", "--type", "B", "--rank", str(SHOW_SUBSETS_MAX_RANK), "--d", "1", "--show-subsets")
    assert code == 0 and json.loads(out)["o_nu"]["partition"] == [2 * SHOW_SUBSETS_MAX_RANK + 1]


def test_coxeter_rank_30_answers(capsys):
    code, out = run_cli(capsys, "coxeter", "--type", "B", "--rank", "30", "--d", "1")
    assert code == 0 and json.loads(out) == {"o_nu": {"kind": "nilpotent", "partition": [61]}}
    code, out = run_cli(capsys, "coxeter", "--type", "D", "--rank", "30", "--d", "21")
    assert code == 0 and json.loads(out)["o_nu"]["partition"] == [3] * 17 + [2] * 4 + [1]
    assert main(["coxeter", "--type", "B", "--rank", "4", "--d", "-1"]) == 2


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


def test_delta_command(capsys):
    code, out = run_cli(capsys, "delta", "--type", "F4", "--slope", "5/6", "--orbit", "A1")
    assert code == 0
    assert json.loads(out) == {"delta": "2", "rigid": False}


def test_coxeter_command(capsys):
    code, out = run_cli(capsys, "coxeter", "--type", "F4", "--d", "5", "--show-subsets")
    assert code == 0
    data = json.loads(out)
    assert data["o_nu"]["label"] == "A2+~A1"
    minimal = [a for a in data["allowable"] if a["minimal"]]
    assert {tuple(a["J"]) for a in minimal if 0 not in a["J"]} == {(2, 3), (1, 2, 4), (1, 3, 4)}


def test_oracle_command(capsys):
    code, out = run_cli(capsys, "oracle", "--type", "B", "--rank", "4", "--slope", "1/4", "--budget", "100", "--seed", "7")
    assert code == 0
    assert json.loads(out) == {"certified": True, "jordan_type": [5, 3, 1]}


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
    assert set(report.values()) == {"ok"}


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "isods.cli", "solve", "--type", "C", "--rank", "2", "--slope", "1/4", "--orbit", "[4]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["affirmative"] is True and data["rigid"] is True
