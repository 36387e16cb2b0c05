"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured scope.  All tolerances are exact (integer/rational arithmetic).
"""

import time
from fractions import Fraction
from math import gcd
from pathlib import Path

from isods import exceptional_data as xd
from isods.checks import (
    check_centralizer_oracle,
    check_coxeter,
    check_delta,
    check_q_equivalence,
    check_row_overlap,
    check_skeleton,
)
from isods.coxeter import coxeter_candidates, coxeter_solve
from isods.orbits import NilpotentOrbit, builtin_hasse, dim_centralizer
from isods.partitions import (
    ParityClass,
    dominance_le,
    is_valid,
    partitions_of,
)
from isods.rigidity import delta_of_orbit, rigid_predicate, scan_rigid
from isods.root_data import (
    coxeter_number,
    is_elliptic_regular,
    lie_type,
    phi_count,
    slope,
    slope_cells,
)
from isods.solver import o_nu, o_nu_rows
from isods.tables import generate, t_cl_ell_rig, t_cl_index_rig, t_clCox

# Committed table outputs that criterion 11 compares byte for byte.  After a
# deliberate change to a table, rewrite them with
#   PYTHONPATH=src python tests/test_acceptance.py
GOLDEN_DIR = Path(__file__).parent / "golden"
_CLQ_CELLS = (
    ("A", 15, 5, 16, (16,), 0),
    ("A", 15, 3, 16, (6, 4, 3, 2), 1),
    ("B", 4, 1, 4, (2, 1), 1),
    ("B", 6, 1, 6, (2,), 4),
    ("C", 4, 1, 2, (1, 1), 2),
    ("C", 6, 7, 12, (2, 1), 3),
    ("C", 16, 1, 32, (5,), 11),
    ("C", 16, 7, 32, (5,), 11),
    ("C", 26, 1, 4, (1,), 25),
    ("D", 5, 3, 4, (1, 1, 1), 2),
    ("D", 6, 1, 5, (3,), 3),
    ("B", 2000, 3, 4, (1000, 500), 500),
)
GOLDEN = {
    **{
        f"{name}-{fam}10.csv": {"name": name, "family": fam, "max_rank": 10}
        for name in ("t_clCox", "t_completecl", "t_cl_index_rig", "t_cl_ell_rig")
        for fam in ("A", "B", "C", "D")
    },
    **{f"{name}.csv": {"name": name} for name in ("t_excCox", "DSsolnF4", "potigexc-numerics")},
    **{
        f"t_clq-{fam}{n}-{d}_{m}-{'.'.join(map(str, mults))}-z{z}.csv": {
            "name": "t_clq", "family": fam, "rank": n, "slope": slope(d, m), "mults": mults, "zero_mult": z,
        }
        for fam, n, d, m, mults, z in _CLQ_CELLS
    },
}


def test_criterion_1_coxeter_classical_agreement():
    t0 = time.time()
    cells, failure = check_coxeter(10)
    elapsed = time.time() - t0
    assert failure is None, failure
    assert elapsed < 30
    assert cells == 492
    print(f"PASS criterion 1: Coxeter-classical agreement on {cells} cells in {elapsed:.1f}s")


def test_criterion_1_coxeter_high_rank():
    t0 = time.time()
    cells, failure = check_coxeter(60, per_family=15, seed=20261018, min_rank=14)
    elapsed = time.time() - t0
    assert failure is None, failure
    assert elapsed < 30
    assert cells == 60
    print(f"PASS criterion 1 (high rank): Coxeter-classical agreement on {cells} cells "
          f"at ranks 14-60 in {elapsed:.1f}s")


def test_criterion_2_coxeter_exceptional_agreement():
    for (fam, d), (label, _) in sorted(xd.EXC_COXETER.items()):
        t = lie_type(fam)
        if fam in ("G2", "F4"):
            solved = coxeter_solve(t, d)
            assert solved.label == label, (fam, d, solved.label, label)
        else:
            labels = {c.label for c in coxeter_candidates(t, d)}
            assert label in labels, (fam, d, labels, label)
    print("PASS criterion 2: Coxeter-exceptional route matches the embedded table "
          "(G2/F4 exact; E-types by candidate containment)")


def _exhaustive_collapse(p, cls, valid_cache):
    best = None
    for q in valid_cache:
        if dominance_le(q, p):
            if best is None or dominance_le(best, q):
                best = q
    for q in valid_cache:
        if dominance_le(q, p):
            assert dominance_le(q, best)
    return best


def test_criterion_3_collapse_oracle():
    from isods.partitions import collapse

    t0 = time.time()
    cases = 0
    for cls in ParityClass:
        parity = 1 if cls is ParityClass.B else 0
        for n in range(1, 15):
            if n % 2 != parity:
                continue
            valid = [q for q in partitions_of(n) if is_valid(q, cls)]
            for p in partitions_of(n):
                cases += 1
                assert collapse(p, cls) == _exhaustive_collapse(p, cls, valid), (p, cls)
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"PASS criterion 3: greedy collapse equals exhaustive maximum on {cases} partitions in {elapsed:.1f}s")


def test_criterion_4_centralizer_oracle():
    t0 = time.time()
    cases, failure = check_centralizer_oracle(14)
    assert failure is None, failure
    assert cases == 842
    print(f"PASS criterion 4: closed-form centralizer dims equal matrix kernels on {cases} Jordan types "
          f"in {time.time() - t0:.1f}s")


def test_criterion_4_centralizer_oracle_total_18():
    t0 = time.time()
    cases, failure = check_centralizer_oracle(18)
    assert failure is None, failure
    assert cases == 2501
    print(f"PASS criterion 4: closed-form centralizer dims equal matrix kernels on {cases} Jordan types "
          f"of total at most 18 in {time.time() - t0:.1f}s")


def test_criterion_5_skeleton_equivalence():
    t0 = time.time()
    cases, failure = check_skeleton(6, seed=17)
    assert failure is None, failure
    assert cases == 178
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"PASS criterion 5: skeleton minimal Jordan types equal thresholds on {cases} elliptic slopes "
          f"in {elapsed:.1f}s")


def test_criterion_6_delta_agreement():
    t0 = time.time()
    cells, skipped, failure = check_delta(10)
    assert failure is None, failure
    assert (cells, skipped) == (553, 316)
    print(f"PASS criterion 6: closed-form Delta equals direct Delta on {cells} cells "
          f"({skipped} cells outside the rows' domain) in {time.time() - t0:.1f}s")


def test_criterion_7_rigid_classification():
    for fam in ("A", "B", "C", "D"):
        got = {(r["rank"], r["m"], r["d"]) for r in scan_rigid(fam, 10)}
        want = {
            (t.rank, m, d)
            for t, m, d, _ in slope_cells(fam, 10, lambda t: range(2, 2 * t.rank + 1), lambda m: range(1, 2 * m))
            if is_elliptic_regular(t, m) and rigid_predicate(fam, t.rank, m, d)
        }
        assert got == want, (fam, sorted(got ^ want))
    print("PASS criterion 7: rigid scan reproduces the classification predicate rows, ranks <= 10")


def test_criterion_7_documented_corrections():
    # the two delicate classification rows: C admits d | m+-1 only at
    # m = 2n (proper even divisors keep d = 1 alone), and D has the
    # m = n even, d = 3 family
    deltas_c = set()
    for t, m, d, s in slope_cells("C", 10, lambda t: range(2, 2 * t.rank), lambda m: range(2, m)):
        if is_elliptic_regular(t, m) and ((m - 1) % d == 0 or (m + 1) % d == 0):
            if delta_of_orbit(t, s, o_nu(t, s)) != 0:
                deltas_c.add((t.rank, m, d))
    assert deltas_c, "expected nonrigid C cells with d | m+-1 at proper divisors"
    for n in (4, 6, 8, 10):
        t = lie_type("D", n)
        if gcd(3, n) == 1:
            s = slope(3, n)
            assert delta_of_orbit(t, s, o_nu(t, s)) == 0
    print("PASS criterion 7 addendum: the delicate classification rows verified directly")


def test_criterion_8_exceptional_delta_consistency():
    checked = 0
    for (fam, d), (label, delta) in xd.EXC_COXETER.items():
        t = lie_type(fam)
        r = t.rank
        assert d * r - 2 * delta == dim_centralizer(NilpotentOrbit(t, label=label)), (fam, d)
        # nu * |Phi| = (d/h) * h * r = d * r
        assert Fraction(d, coxeter_number(t)) * phi_count(t) == d * r
        checked += 1
    F4 = lie_type("F4")
    for nu, (label, delta) in xd.F4_SMALL.items():
        assert nu * 48 - 2 * delta == dim_centralizer(NilpotentOrbit(F4, label=label))
        checked += 1
    assert dim_centralizer(NilpotentOrbit(F4, label="A1")) == 36
    assert dim_centralizer(NilpotentOrbit(F4, label="~A1")) == 30
    for fam, nu, label, _ in xd.POTENTIALLY_RIGID_EXC:
        t = lie_type(fam)
        assert nu * phi_count(t) == dim_centralizer(NilpotentOrbit(t, label=label)), (fam, nu, label)
        checked += 1
    # Hasse dims strictly decrease upward along both embedded diagrams
    for famname in ("G2", "F4"):
        h = builtin_hasse(famname)
        dims = dict(h.dims)
        for hi, lo in h.covers:
            assert dims[hi] < dims[lo]
    print(f"PASS criterion 8: nu|Phi| - 2 Delta = dim C holds for {checked} embedded exceptional rows")


def test_criterion_9_q_equivalence():
    t0 = time.time()
    cases, failure = check_q_equivalence(500, 8, seed=20240808)
    assert failure is None, failure
    assert cases == 2000
    print(f"PASS criterion 9: candidate route equals induction route on {cases} seeded orbits "
          f"in {time.time() - t0:.1f}s")


def test_criterion_9_q_equivalence_high_rank():
    t0 = time.time()
    cases, failure = check_q_equivalence(50, 20, seed=20261018, min_rank=14)
    assert failure is None, failure
    assert cases == 200
    print(f"PASS criterion 9 (high rank): candidate route equals induction route on {cases} seeded "
          f"orbits at ranks 14-20 in {time.time() - t0:.1f}s")


def test_criterion_10_row_overlap():
    cells, failure = check_row_overlap(12)
    assert failure is None, failure
    assert cells == 1304
    # spot instance: D4 at m = 2, d = 1 has two applicable rows agreeing
    rows = o_nu_rows(lie_type("D", 4), slope(1, 2))
    assert len(rows) > 1 and {r.orbit.partition for r in rows} == {(3, 2, 2, 1)}
    print(f"PASS criterion 10: no conflicting table rows across {cells} cells, ranks <= 12")


def test_criterion_11_golden_stability():
    snapshots = []
    for _ in range(2):
        snapshots.append(
            (
                t_clCox("B", 6),
                t_clCox("D", 6),
                t_cl_index_rig("C", 6),
                t_cl_ell_rig("B", 8),
            )
        )
    assert snapshots[0] == snapshots[1]
    for text in snapshots[0]:
        assert "\r" not in text and text.endswith("\n")
    for fname, kw in GOLDEN.items():
        assert generate(**kw).encode() == (GOLDEN_DIR / fname).read_bytes(), fname
    print(f"PASS criterion 11: regenerated table CSVs are byte-stable across runs and equal "
          f"{len(GOLDEN)} golden files")


def regenerate_golden():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for fname, kw in GOLDEN.items():
        (GOLDEN_DIR / fname).write_bytes(generate(**kw).encode())


if __name__ == "__main__":
    regenerate_golden()
