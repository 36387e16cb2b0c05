import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from isods import exceptional_data as xd
from isods.checks import _random_adjoint, check_delta
from isods.orbits import AdjointOrbit, Block, NilpotentOrbit, dim_centralizer, ls_induction, zero_orbit
from isods.partitions import ParityClass, partitions_of, valid_partitions
from isods.rigidity import (
    closed_form_delta,
    coxeter_delta_column,
    delta,
    delta_of_orbit,
    is_cohomologically_rigid,
    non_resonant,
    rigid_predicate,
    rigidity_report,
    rigidity_verdict,
    scan_rigid,
)
from isods.root_data import (
    UnsupportedSlopeError,
    coxeter_number,
    dim_cartan_fixed,
    is_regular,
    lie_type,
    phi_count,
    slope,
    slope_cells,
)
from isods.solver import ds_solve, o_nu


def test_delta_examples():
    B2 = lie_type("B", 2)
    assert delta(B2, slope(3, 4), NilpotentOrbit(B2, (2, 2, 1))) == 0
    F4 = lie_type("F4")
    assert delta(F4, slope(5, 6), NilpotentOrbit(F4, label="A1")) == 2
    E8 = lie_type("E8")
    assert delta(E8, slope(7, 30), NilpotentOrbit(E8, label="A4+2A1")) == 0


def test_delta_equals_induced_value_for_adjoint():
    C3 = lie_type("C", 3)
    a = AdjointOrbit(C3, (Block("a", 1, (1,)),), (2, 2))
    assert delta(C3, slope(1, 6), a) == delta(C3, slope(1, 6), NilpotentOrbit(C3, (4, 2)))


def test_rigid_examples():
    C2 = lie_type("C", 2)
    assert is_cohomologically_rigid(C2, slope(1, 4), NilpotentOrbit(C2, (4,)))
    B2 = lie_type("B", 2)
    assert is_cohomologically_rigid(B2, slope(3, 4), NilpotentOrbit(B2, (2, 2, 1)))
    A2 = lie_type("A", 2)
    assert is_cohomologically_rigid(A2, slope(2, 3), NilpotentOrbit(A2, (2, 1)))
    with pytest.raises(ValueError):
        is_cohomologically_rigid(B2, slope(3, 4), NilpotentOrbit(B2, (1, 1, 1, 1, 1)))


def test_rigid_false_when_not_elliptic():
    # m = 3 is regular but not elliptic for B3: delta may vanish, rigid must not hold
    B3 = lie_type("B", 3)
    rep = rigidity_report(B3, slope(2, 3), o_nu(B3, slope(2, 3)))
    assert rep.delta == 0 and not rep.m_elliptic and rep.rigid is False


def test_ds_solve_rigidity_fields():
    C3, s = lie_type("C", 3), slope(1, 6)
    # symbolic and rational tags: Delta is defined, the resonance undecidable
    mixed = AdjointOrbit(C3, (Block("a", 1, (1,)), Block(Fraction(1, 3), 2, (2,))), ())
    ans = ds_solve(C3, s, mixed)
    assert ans.affirmative is True and ans.delta == 0 and ans.rigid == "n/a"
    assert ans.to_json()["delta"] == "0" and ans.to_json()["rigid"] == "n/a"
    assert rigidity_report(C3, s, mixed).rigid is None
    # the resonance is undecidable again, but Delta = 5 decides rigid as false
    # (it once printed "n/a"), as rigidity_report does
    A3, s5 = lie_type("A", 3), slope(5, 4)
    mixed = AdjointOrbit(A3, (Block("a1", 1, (1,)), Block(Fraction(1, 2), 1, (1,))), (1, 1))
    ans = ds_solve(A3, s5, mixed)
    assert ans.affirmative is True and ans.delta == 5 and ans.rigid is False
    assert rigidity_report(A3, s5, mixed).rigid is False
    # resonant: the long root doubles 1/2 to 1
    resonant = AdjointOrbit(C3, (Block(Fraction(1, 2), 3, (3,)),), ())
    ans = ds_solve(C3, s, resonant)
    assert ans.affirmative is True and ans.delta == 0 and ans.rigid is False
    B2, s = lie_type("B", 2), slope(3, 4)
    ans = ds_solve(B2, s, NilpotentOrbit(B2, (1,) * 5))
    assert ans.affirmative is False and ans.delta is None and ans.rigid == "n/a"
    ans = ds_solve(B2, s, NilpotentOrbit(B2, (2, 2, 1)))
    assert ans.affirmative is True and ans.delta == 0 and ans.rigid is True
    # affirmative, but Delta needs a centralizer dimension that is not embedded
    E7 = lie_type("E7")
    ans = ds_solve(E7, slope(19, 18), NilpotentOrbit(E7, label="A6"))
    assert ans.affirmative is True and ans.delta is None and ans.rigid == "n/a"


def test_closed_form_examples():
    A6 = lie_type("A", 6)
    assert closed_form_delta(A6, slope(2, 7)) == 0
    B2 = lie_type("B", 2)
    assert closed_form_delta(B2, slope(3, 4)) == 0
    assert coxeter_delta_column(B2, 3) == 0
    E7 = lie_type("E7")
    assert coxeter_delta_column(E7, 7) == 0
    assert coxeter_delta_column(lie_type("E8"), 29) == 21


def test_closed_form_matches_direct_rank8():
    cells, skipped, failure = check_delta(8)
    assert failure is None, failure
    assert cells and skipped


def test_coxeter_column_refuses_outside_its_domain():
    D3 = lie_type("D", 3)
    # past the Airy slope the D column is not Delta: D3 at 7/4 has Delta 3
    assert delta_of_orbit(D3, slope(7, 4), o_nu(D3, slope(7, 4))) == 3
    with pytest.raises(UnsupportedSlopeError, match="stop at d = h"):
        coxeter_delta_column(D3, 7)
    assert coxeter_delta_column(D3, 5) == delta_of_orbit(D3, slope(5, 4), o_nu(D3, slope(5, 4)))
    with pytest.raises(UnsupportedSlopeError, match="prime to h"):
        coxeter_delta_column(D3, 0)
    with pytest.raises(UnsupportedSlopeError, match="prime to h"):
        coxeter_delta_column(lie_type("B", 2), 2)


# The row formulas as they were written over Fraction, kept as the reference
# for the integer rows (4 Delta) of isods.rigidity.


def _fraction_orthogonal_row(ell, m, d):
    F = Fraction
    k, dp = m // d, m % d
    lead = F(ell * (ell - 1), 4) * dp * (d - dp)
    if ell % 2:
        if k % 2 == 0:
            return lead + F(ell, 4) * dp * (d - dp - 1)
        return lead + F(ell, 4) * (dp + 1) * (d - dp - 2) + F(ell - 1, 2)
    if m % 2 == 0 and d == 1:
        return F(0)
    shift = 2 if m % 2 == 0 else 1
    if k % 2 == 0:
        return lead + F(ell, 4) * ((dp - 2) * (d - dp - 1) - shift)
    return lead + F(ell, 4) * ((dp - 1) * (d - dp - 2) - shift)


def _fraction_closed_form_delta(t, s):
    d, m = s.d, s.m
    fam, n = t.family, t.rank
    if not is_regular(t, m):
        raise UnsupportedSlopeError(f"{m} not regular for {t}")
    if s.nu >= 1 and m != coxeter_number(t):
        raise UnsupportedSlopeError(f"Delta rows apply for nu < 1 or m = h; got {s} for {t}")
    if s.nu >= 1 and fam == "D" and d > m + 1:
        raise UnsupportedSlopeError(f"Delta rows for D stop at d = h + 1; got {s}")
    k, dp = m // d, m % d
    F = Fraction
    if fam == "A":
        vals = [
            F(ell * (ell - 1), 2) * dp * (d - dp) + F(ell, 2) * (dp - 1) * (d - dp - 1)
            for ell in (N // m for N in (n + 1, n) if N % m == 0)
        ]
    elif fam == "C":
        ell = 2 * n // m
        lead = F(ell * (ell - 1), 4) * dp * (d - dp)
        if m % 2 == 0:
            if k % 2 == 0:
                vals = [lead + F(ell, 4) * dp * (d - dp - 1)]
            else:
                vals = [lead + F(ell, 4) * (dp - 1) * (d - dp)]
        else:
            if k % 2 == 0:
                vals = [lead + F(ell, 4) * (dp * (d - dp - 1) + 1)]
            else:
                vals = [lead + F(ell, 4) * ((dp - 1) * (d - dp) + 1)]
    else:
        counts = (2 * n, 2 * n - 2) if fam == "D" else (2 * n,)
        vals = [_fraction_orthogonal_row(c // m, m, d) for c in counts if c % m == 0]
    if not vals:
        raise UnsupportedSlopeError(f"no Delta row matches {t} at {s}")
    assert all(v == vals[0] for v in vals), (t, s, vals)
    return vals[0]


def _fraction_coxeter_delta_column(t, d):
    F = Fraction
    fam, n = t.family, t.rank
    N = {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n - 1}[fam]
    k, dp = divmod(N, d)
    if fam == "A":
        return F((dp - 1) * (d - dp - 1), 2)
    if fam == "C":
        return F(dp * (d - dp - 1), 4) if k % 2 == 0 else F((dp - 1) * (d - dp), 4)
    return F((dp - 1) * (d - dp), 4) if k % 2 == 0 else F(dp * (d - dp - 1), 4)


def _outcome(f, *args):
    """The value and whether it is a Fraction, or the exception class and
    message."""
    try:
        v = f(*args)
    except Exception as e:
        return type(e), str(e)
    return v, type(v) is Fraction


def test_row_formulas_match_the_fraction_reference():
    cells = 0
    for fam in ("A", "B", "C", "D"):
        for n in range({"A": 1, "D": 3}.get(fam, 2), 25):
            t = lie_type(fam, n)
            h = coxeter_number(t)
            for m in range(1, 2 * n + 4):
                for d in range(1, 3 * m + 2):
                    if gcd(d, m) != 1:
                        continue
                    s = slope(d, m)
                    got = _outcome(closed_form_delta, t, s)
                    assert got == _outcome(_fraction_closed_form_delta, t, s), (t, s)
                    if m == h:
                        if fam == "D" and d > h + 1:
                            assert got[0] is UnsupportedSlopeError
                            with pytest.raises(UnsupportedSlopeError):
                                coxeter_delta_column(t, d)
                        else:
                            want = _outcome(_fraction_coxeter_delta_column, t, d)
                            assert _outcome(coxeter_delta_column, t, d) == want, (t, d)
                    cells += 1
    assert cells == 91274


def _fraction_delta(t, s, o_nil):
    return (s.nu * phi_count(t) - dim_centralizer(o_nil) + dim_cartan_fixed(t, s.m)) / 2


def _assert_fraction_identity(t, s, o):
    rep = rigidity_verdict(t, s, o, o)
    assert type(rep.delta) is Fraction and type(rep.nu_phi) is Fraction
    assert rep.delta == _fraction_delta(t, s, o) and rep.nu_phi == s.nu * phi_count(t), (t, s, o)
    assert (rep.dim_c, rep.dim_tw) == (dim_centralizer(o), dim_cartan_fixed(t, s.m)), (t, s, o)
    return rep


def test_rigidity_verdict_matches_the_fraction_identity():
    cells = 0
    for fam in ("A", "B", "C", "D"):
        cells_of_fam = slope_cells(
            fam, 8, lambda t: range(1, 2 * t.rank + 4), lambda m: range(1, 3 * m + 2), min_rank=1 if fam == "A" else None
        )
        for t, m, d, s in cells_of_fam:
            o = o_nu(t, s)
            _assert_fraction_identity(t, s, o)
            _assert_fraction_identity(t, s, NilpotentOrbit(t, (1,) * sum(o.partition)))
            cells += 1
    assert cells == 997
    for fam in ("G2", "F4", "E6", "E7", "E8"):
        t = lie_type(fam)
        h = coxeter_number(t)
        for (f, d), (label, table_delta) in xd.EXC_COXETER.items():
            if f != fam:
                continue
            s = slope(d, h)
            assert _assert_fraction_identity(t, s, NilpotentOrbit(t, label=label)).delta == table_delta
            for f2, other in xd.DIM_C:
                if f2 == fam:
                    _assert_fraction_identity(t, s, NilpotentOrbit(t, label=other))


def test_delta_of_orbit_is_the_verdict_delta():
    # every classical cell of rank <= 8 at its threshold and zero orbits, and
    # every Coxeter row of G2-E8 with each embedded dim C of its type
    cells = 0
    for fam in ("A", "B", "C", "D"):
        cells_of_fam = slope_cells(
            fam, 8, lambda t: range(1, 2 * t.rank + 4), lambda m: range(1, 3 * m + 2), min_rank=1 if fam == "A" else None
        )
        for t, m, d, s in cells_of_fam:
            for o in (o_nu(t, s), zero_orbit(t)):
                got = delta_of_orbit(t, s, o)
                assert type(got) is Fraction and got == rigidity_verdict(t, s, o, o).delta, (t, s, o)
            cells += 1
    assert cells == 997
    rows = set()
    for (fam, d), (label, _) in xd.EXC_COXETER.items():
        t = lie_type(fam)
        s = slope(d, coxeter_number(t))
        for other in {label} | {other for f, other in xd.DIM_C if f == fam}:
            o = NilpotentOrbit(t, label=other)
            assert delta_of_orbit(t, s, o) == rigidity_verdict(t, s, o, o).delta, (t, s, o)
            rows.add((fam, other))
    assert set(xd.DIM_C) <= rows


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_delta_is_the_report_delta_with_its_exceptions():
    # seeded adjoint orbits and their induced orbits at their own slope and
    # at a slope 1/m for every m up to 2 * rank + 2, regular or not
    rng = random.Random(13)
    outcomes = set()
    for fam in ("A", "B", "C", "D"):
        for n in range(3, 9):
            t, s, a = _random_adjoint(rng, fam, n)
            for sl in [s] + [slope(1, m) for m in range(1, 2 * n + 3)]:
                for orbit in (a, ls_induction(a)):
                    want = _outcome(lambda: rigidity_report(t, sl, orbit).delta)
                    assert _outcome(delta, t, sl, orbit) == want, (t, sl, orbit)
                    outcomes.add(type(want))
    assert outcomes == {Fraction, tuple}


def test_delta_of_orbit_reads_no_ellipticity(monkeypatch):
    from isods import rigidity

    def refuse(t, m):
        raise AssertionError(f"delta_of_orbit asked whether {m} is elliptic for {t}")

    monkeypatch.setattr(rigidity, "is_elliptic_regular", refuse)
    B2, E8 = lie_type("B", 2), lie_type("E8")
    assert delta_of_orbit(B2, slope(3, 4), NilpotentOrbit(B2, (2, 2, 1))) == 0
    assert delta_of_orbit(E8, slope(1, 30), NilpotentOrbit(E8, label="E8")) == 0
    with pytest.raises(UnsupportedSlopeError):
        delta_of_orbit(B2, slope(1, 3), NilpotentOrbit(B2, (2, 2, 1)))


def _root_non_resonant(a):
    """Non-resonance read root by root.  The coordinates of s are each tag
    repeated mult times and m_s zeros (the eigenvalue 0 in A), and no root
    value is a nonzero integer: x_i - x_j in A; +-x_i +- x_j for i != j in
    B/C/D, with x_i in B and 2x_i in C."""
    fam = a.type.family
    xs = [Fraction(b.tag) for b in a.blocks for _ in range(b.mult)]
    xs += [Fraction(0)] * (sum(a.zero_block) // (1 if fam == "A" else 2))
    values = [x - y for i, x in enumerate(xs) for y in xs[i + 1:]]
    if fam != "A":
        values += [x + y for i, x in enumerate(xs) for y in xs[i + 1:]]
        values += xs if fam == "B" else [2 * x for x in xs] if fam == "C" else []
    return not any(v and v.denominator == 1 for v in values)


def _reference_tags(rng, fam):
    """Up to 12 tags with denominators dividing 12, integral ones written as
    int half the time.  Free draws plant some tags as -y or y + j for an
    earlier tag y and an integer j.  Spreads put the tags in distinct classes
    r/12 mod 1, in B/C/D with 0 < r < 6 and at times the exact negative too,
    which is non-resonant until one tag is moved by 1."""
    tags = []
    if rng.random() < 0.5:
        for _ in range(rng.randint(0, 12)):
            r = rng.random()
            if tags and r < 0.2:
                tags.append(-rng.choice(tags))
            elif tags and r < 0.4:
                tags.append(rng.choice(tags) + rng.choice([-2, -1, 1, 2]))
            else:
                tags.append(Fraction(rng.randint(-25, 25), rng.choice([1, 2, 3, 4, 6, 12])))
    else:
        for r in rng.sample(range(12) if fam == "A" else range(1, 6), rng.randint(1, 12 if fam == "A" else 5)):
            x = Fraction(r, 12) + rng.randint(-2, 2)
            tags += [x, -x] if fam != "A" and rng.random() < 0.6 else [x]
        if rng.random() < 0.5:
            i = rng.randrange(len(tags))
            tags[i] += rng.choice([-1, 1])
    return [int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in tags]


def test_non_resonant_matches_the_fraction_reference():
    rng = random.Random(9)
    seen = set()
    pm_pairs = Counter()  # verdicts of B/C/D orbits holding a pair x, -x with 2x not integral
    for fam in ("A", "B", "C", "D"):
        for _ in range(1500):
            # a block of multiplicity 1 to 3 per tag and a zero block of the rest
            tags = _reference_tags(rng, fam)
            mults = [rng.randint(1, 3) for _ in tags]
            least = max(3, sum(mults) - (fam == "A"))
            n = rng.randint(least, max(least, 11 if fam == "A" else 12))
            zero = n + (fam == "A") - sum(mults)
            tails = partitions_of(zero) if fam == "A" else valid_partitions(2 * zero + (fam == "B"), ParityClass[fam])
            blocks = tuple(Block(g, k, rng.choice(partitions_of(k))) for g, k in zip(tags, mults))
            try:
                a = AdjointOrbit(lie_type(fam, n), blocks, rng.choice(tails))
            except ValueError:  # a repeated tag, or a tag 0 outside type A
                continue
            got = non_resonant(a)
            assert got == _root_non_resonant(a), a.to_json()
            ints = [b for b in blocks if Fraction(b.tag).denominator == 1]
            # in D, x and 2x are root values only beside a nonempty zero block or at multiplicity >= 2
            forced = bool(ints) and (fam != "D" or bool(a.zero_block) or any(b.mult > 1 for b in ints))
            seen.add((fam, got, len(tags) > 8, forced))
            if fam != "A" and any(-x in tags and (2 * x).denominator > 1 for x in tags):
                pm_pairs[got] += 1
    # an integral tag x is resonant in B (x) and C (2x); in D at multiplicity
    # >= 2 (2x) or beside a nonempty zero block (x); in A beside a nonempty
    # zero block
    assert {(fam, got, long) for fam, got, long, _ in seen} == set(product("ABCD", (True, False), (True, False)))
    assert {(fam, got) for fam, got, _, forced in seen if forced} == {("A", True), *product("ABCD", (False,))}
    assert pm_pairs[True] and pm_pairs[False], pm_pairs


@pytest.mark.parametrize("fn", [ds_solve, rigidity_report], ids=["ds_solve", "rigidity_report"])
def test_many_rational_blocks_answer_fast(fn):
    # resonance took about 2 s here with a Fraction difference per pair of tags
    t = lie_type("A", 999)
    a = AdjointOrbit(t, tuple(Block(Fraction(i, 10007), 1, (1,)) for i in range(1, 1001)), ())
    start = time.perf_counter()
    ans = fn(t, slope(1, 1000), a)
    assert time.perf_counter() - start < 0.5
    assert ans.rigid is True  # Delta 0 and every tag non-resonant


def test_non_resonant_examples():
    C2 = lie_type("C", 2)
    a = AdjointOrbit(C2, (Block(Fraction(1, 2), 2, (2,)),), ())
    assert non_resonant(a) is False  # the long root doubles 1/2 to 1
    a = AdjointOrbit(C2, (Block(Fraction(1, 3), 2, (2,)),), ())
    assert non_resonant(a) is True
    A3 = lie_type("A", 3)
    a = AdjointOrbit(A3, (Block(Fraction(0), 2, (1, 1)), Block(Fraction(1), 2, (2,))), ())
    assert non_resonant(a) is False  # difference 1
    a = AdjointOrbit(A3, (Block("x", 2, (1, 1)), Block("y", 2, (2,))), ())
    assert non_resonant(a) is True  # symbolic-generic
    with pytest.raises(ValueError):
        non_resonant(AdjointOrbit(A3, (Block("x", 2, (1, 1)), Block(Fraction(1), 2, (2,))), ()))
    # nilpotent: all eigenvalues zero
    B2 = lie_type("B", 2)
    assert non_resonant(AdjointOrbit(B2, (), (5,))) is True
    # 2x is a root value in C, and in B/D only for a block of multiplicity
    # >= 2; x is one in B, and in C/D beside a nonempty zero block
    half, third = Block(Fraction(3, 2), 1, (1,)), Block(Fraction(1, 3), 1, (1,))
    assert non_resonant(AdjointOrbit(B2, (half, third), (1,))) is True
    assert non_resonant(AdjointOrbit(B2, (Block(Fraction(3, 2), 2, (2,)),), (1,))) is False
    assert non_resonant(AdjointOrbit(C2, (half, third), ())) is False
    D3 = lie_type("D", 3)
    one = Block(1, 1, (1,))
    assert non_resonant(AdjointOrbit(D3, (one, third, Block(Fraction(1, 5), 1, (1,))), ())) is True
    assert non_resonant(AdjointOrbit(D3, (one, third), (1, 1))) is False
    assert non_resonant(AdjointOrbit(D3, (Block(1, 2, (1, 1)), third), ())) is False
    assert non_resonant(AdjointOrbit(lie_type("B", 3), (one, third, half), (1,))) is False


def test_scan_rigid_row_examples():
    rows = scan_rigid("C", 4)
    assert {(r["m"], r["d"]) for r in rows if r["rank"] == 4} >= {(8, 3), (8, 7), (8, 9), (2, 1), (4, 1), (8, 1)}
    rows = scan_rigid("B", 4)
    assert (4, 3) in {(r["m"], r["d"]) for r in rows if r["rank"] == 4}  # m = n even, d = 3
    rows = scan_rigid("A", 6)
    assert {(r["m"], r["d"]) for r in rows if r["rank"] == 6} == {(7, 1), (7, 2), (7, 3), (7, 4), (7, 6), (7, 8)}


def test_scan_rigid_exceptional_numerics():
    rows = scan_rigid("E7", 7)
    tagged = {(r["d"], r["m"], r["orbit"]): r["existence"] for r in rows}
    assert tagged[(7, 18, "A2+3A1")] == "yes"
    assert tagged[(7, 18, "2A2")] == "no"
    assert tagged[(3, 14, "D5(a1)")] == "numerics-only"


def test_rigid_predicate_spot_values():
    assert rigid_predicate("C", 4, 8, 3)
    assert not rigid_predicate("C", 4, 4, 3)  # proper even divisor: only d = 1
    assert rigid_predicate("B", 4, 4, 3)
    assert rigid_predicate("D", 4, 4, 3)  # mirror of the B row
    assert rigid_predicate("A", 6, 7, 8)  # the 1 + 1/h slope
    assert not rigid_predicate("A", 6, 7, 5)
