"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured scope.  All tolerances are exact (integer/rational arithmetic).
"""

import random
import time
from fractions import Fraction
from math import gcd

from isods import exceptional_data as xd
from isods.coxeter import UnsupportedSlopeError, coxeter_candidates, coxeter_solve
from isods.orbits import (
    AdjointOrbit,
    Block,
    NilpotentOrbit,
    builtin_hasse,
    dim_centralizer,
    dim_centralizer_oracle,
)
from isods.partitions import (
    ParityClass,
    dominance_le,
    is_valid,
    lambda_evenly,
    partition,
    partitions_of,
)
from isods.rigidity import closed_form_delta, delta_of_orbit, rigid_predicate, scan_rigid
from isods.root_data import (
    coxeter_number,
    is_elliptic_regular,
    is_regular,
    lie_type,
    phi_count,
    slope,
)
from isods.skeleton import minimal_jordan_type_report
from isods.solver import ds_solve, ds_solve_q, o_nu, o_nu_rows
from isods.tables import t_cl_ell_rig, t_cl_index_rig, t_clCox


def _clcox_closed_form(fam, n, d):
    if fam == "A":
        return lambda_evenly(n + 1, d)
    if fam == "B":
        return lambda_evenly(2 * n + 1, d)
    if fam == "C":
        return lambda_evenly(2 * n, d)
    return partition(lambda_evenly(2 * n - 1, d) + (1,))


def test_criterion_1_coxeter_classical_agreement():
    t0 = time.time()
    cells = 0
    for fam in ("A", "B", "C", "D"):
        for n in range(3 if fam == "D" else 2, 11):
            t = lie_type(fam, n)
            h = coxeter_number(t)
            for d in range(1, 3 * h):
                if gcd(d, h) != 1:
                    continue
                cells += 1
                derived = coxeter_solve(t, d).partition
                assert derived == _clcox_closed_form(fam, n, d), (fam, n, d)
                # path cross-agreement with the table route
                assert derived == o_nu(t, slope(d, h)).partition, (fam, n, d)
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"PASS criterion 1: Coxeter-classical agreement on {cells} cells in {elapsed:.1f}s")


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
    cases = 0
    for fam, dim_of, lo in (
        ("B", lambda n: 2 * n + 1, 2),
        ("C", lambda n: 2 * n, 2),
        ("D", lambda n: 2 * n, 3),
    ):
        n = lo
        while dim_of(n) <= 14:
            t = lie_type(fam, n)
            for p in partitions_of(dim_of(n)):
                if not is_valid(p, ParityClass[fam]):
                    continue
                o = NilpotentOrbit(t, p)
                assert dim_centralizer(o) == dim_centralizer_oracle(o), (fam, n, p)
                cases += 1
            n += 1
    for N in range(2, 15):
        t = lie_type("A", N - 1)
        for p in partitions_of(N):
            o = NilpotentOrbit(t, p)
            assert dim_centralizer(o) == dim_centralizer_oracle(o), ("A", N, p)
            cases += 1
    print(f"PASS criterion 4: closed-form centralizer dims equal matrix kernels on {cases} Jordan types "
          f"in {time.time() - t0:.1f}s")


def test_criterion_5_skeleton_equivalence():
    t0 = time.time()
    cases = 0
    for fam in ("A", "B", "C", "D"):
        ranks = range(1, 7) if fam == "A" else range(3 if fam == "D" else 2, 7)
        for n in ranks:
            t = lie_type(fam, n)
            for m in range(2, 2 * n + 2):
                if not is_regular(t, m):
                    continue
                if fam == "A":
                    if m != n + 1:
                        continue
                elif not is_elliptic_regular(t, m):
                    continue
                for d in range(1, 2 * m):
                    if gcd(d, m) != 1:
                        continue
                    s = slope(d, m)
                    got, certified = minimal_jordan_type_report(t, s, seed=17)
                    assert certified, (fam, n, str(s))
                    assert got == o_nu(t, s).partition, (fam, n, str(s))
                    cases += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"PASS criterion 5: skeleton minimal Jordan types equal thresholds on {cases} elliptic slopes "
          f"in {elapsed:.1f}s")


def test_criterion_6_delta_agreement():
    t0 = time.time()
    cells = skipped = 0
    for fam in ("A", "B", "C", "D"):
        for n in range(3 if fam == "D" else 2, 11):
            t = lie_type(fam, n)
            h = coxeter_number(t)
            for m in range(1, 2 * n + 2):
                if not is_regular(t, m):
                    continue
                for d in range(1, 2 * m):
                    if gcd(d, m) != 1:
                        continue
                    s = slope(d, m)
                    direct = delta_of_orbit(t, s, o_nu(t, s))
                    assert direct >= 0
                    try:
                        cf = closed_form_delta(t, s)
                    except UnsupportedSlopeError:
                        # the rows provably stop at nu = 1 away from m = h
                        # (and at the Airy slope for D); see the ledger
                        assert s.nu >= 1 and (m != h or (fam == "D" and d > m + 1)), (fam, n, m, d)
                        skipped += 1
                        continue
                    assert cf == direct, (fam, n, m, d, cf, direct)
                    cells += 1
                    from isods.rigidity import coxeter_delta_column

                    if m == h and d <= h + 1:
                        assert coxeter_delta_column(t, d) == direct, (fam, n, d)
    print(f"PASS criterion 6: closed-form Delta equals direct Delta on {cells} cells "
          f"({skipped} cells outside the rows' domain) in {time.time() - t0:.1f}s")


def test_criterion_7_rigid_classification():
    for fam in ("A", "B", "C", "D"):
        got = {(r["rank"], r["m"], r["d"]) for r in scan_rigid(fam, 10)}
        want = set()
        for n in range(3 if fam == "D" else 2, 11):
            t = lie_type(fam, n)
            for m in range(2, 2 * n + 1):
                if not is_regular(t, m) or not is_elliptic_regular(t, m):
                    continue
                for d in range(1, 2 * m):
                    if gcd(d, m) == 1 and rigid_predicate(fam, n, m, d):
                        want.add((n, m, d))
        assert got == want, (fam, sorted(got ^ want))
    print("PASS criterion 7: rigid scan reproduces the classification predicate rows, ranks <= 10")


def test_criterion_7_documented_corrections():
    # the two delicate classification rows: C admits d | m+-1 only at
    # m = 2n (proper even divisors keep d = 1 alone), and D has the
    # m = n even, d = 3 family
    deltas_c = set()
    for n in range(2, 11):
        t = lie_type("C", n)
        for m in range(2, 2 * n + 1):
            if not is_regular(t, m) or not is_elliptic_regular(t, m) or m == 2 * n:
                continue
            for d in range(2, m):
                if gcd(d, m) == 1 and ((m - 1) % d == 0 or (m + 1) % d == 0):
                    s = slope(d, m)
                    if delta_of_orbit(t, s, o_nu(t, s)) != 0:
                        deltas_c.add((n, m, d))
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
        for hi, lo in h.covers:
            assert h.dims[hi] < h.dims[lo]
    print(f"PASS criterion 8: nu|Phi| - 2 Delta = dim C holds for {checked} embedded exceptional rows")


def _random_adjoint(rng, fam, n):
    t = lie_type(fam, n)
    cap = n + 1 if fam == "A" else n
    m = rng.choice([m for m in range(1, 2 * cap + 1) if is_regular(t, m)])
    d = rng.choice([d for d in range(1, 2 * m + 1) if gcd(d, m) == 1])
    s = slope(d, m)
    zero_mult = rng.randint(0, cap)
    rest = cap - zero_mult
    mults = []
    while rest:
        x = rng.randint(1, rest)
        mults.append(x)
        rest -= x
    eps = 1 if fam == "B" else 0
    tail_total = zero_mult if fam == "A" else 2 * zero_mult + eps
    if fam == "A":
        tails = list(partitions_of(tail_total)) if tail_total else [()]
    else:
        tails = [p for p in partitions_of(tail_total) if is_valid(p, ParityClass[fam])] or [()]
    blocks = tuple(
        Block(f"a{i}", mults[i], rng.choice(list(partitions_of(mults[i]))))
        for i in range(len(mults))
    )
    return t, s, AdjointOrbit(t, blocks, rng.choice(tails))


def test_criterion_9_q_equivalence():
    t0 = time.time()
    rng = random.Random(20240808)
    for fam in ("A", "B", "C", "D"):
        for _ in range(500):
            t, s, a = _random_adjoint(rng, fam, rng.randint(3 if fam == "D" else 2, 8))
            assert ds_solve(t, s, a).affirmative == ds_solve_q(t, s, a).affirmative, (
                str(t), str(s), a.to_json(),
            )
    print(f"PASS criterion 9: candidate route equals induction route on 2000 seeded orbits "
          f"in {time.time() - t0:.1f}s")


def test_criterion_9_q_equivalence_high_rank():
    t0 = time.time()
    rng = random.Random(20261018)
    for fam in ("A", "B", "C", "D"):
        for _ in range(50):
            t, s, a = _random_adjoint(rng, fam, rng.randint(14, 20))
            assert ds_solve(t, s, a).affirmative == ds_solve_q(t, s, a).affirmative, (
                str(t), str(s), a.to_json(),
            )
    print(f"PASS criterion 9 (high rank): candidate route equals induction route on 200 seeded "
          f"orbits at ranks 14-20 in {time.time() - t0:.1f}s")


def test_criterion_10_row_overlap():
    cells = conflicts = 0
    for fam in ("A", "B", "C", "D"):
        for n in range(3 if fam == "D" else 2, 13):
            t = lie_type(fam, n)
            for m in range(1, 2 * n + 1):
                if not is_regular(t, m):
                    continue
                for d in range(1, 2 * m + 1):
                    if gcd(d, m) != 1:
                        continue
                    rows = o_nu_rows(t, slope(d, m))
                    cells += 1
                    if len({r.orbit.partition for r in rows}) != 1:
                        conflicts += 1
    assert conflicts == 0
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
    print("PASS criterion 11: regenerated table CSVs are byte-stable across runs")
