"""Isogeny and triality invariance: so(5) = sp(4), so(6) = sl(4), and the
triality of D4 give the same answers from different table rows, parity rules
and resonance branches.  Slope monotonicity: a larger regular slope never
needs a larger threshold orbit, across the rows of one type's table."""

import random
from fractions import Fraction
from math import gcd

from isods.checks import _random_adjoint
from isods.orbits import AdjointOrbit, Block, NilpotentOrbit, UnsupportedComparisonError, closure_le
from isods.root_data import UnsupportedSlopeError, coxeter_number, is_regular, lie_type, slope
from isods.solver import ds_solve, ds_solve_q, o_nu

# the nilpotent orbits of B2 and D3 and their images in C2 and A3
ISOGENIES = {
    ("B2", "C2"): {(5,): (4,), (3, 1, 1): (2, 2), (2, 2, 1): (2, 1, 1), (1,) * 5: (1,) * 4},
    ("D3", "A3"): {(5, 1): (4,), (3, 3): (3, 1), (3, 1, 1, 1): (2, 2), (2, 2, 1, 1): (2, 1, 1), (1,) * 6: (1,) * 4},
}
# triality of D4 permutes (5,1,1,1) with the two (4,4), and (3,1^5) with the two (2^4)
TRIALITY = (((5, 1, 1, 1), (4, 4)), ((3, 1, 1, 1, 1, 1), (2, 2, 2, 2)))


def _slopes(*types):
    """d/m for every m <= 12 regular for all the types and d <= 4m + 1 prime to m."""
    return [slope(d, m) for m in range(1, 13) if all(is_regular(t, m) for t in types)
            for d in range(1, 4 * m + 2) if gcd(d, m) == 1]


def _answer(t, s, orbit, image=None):
    """The o_nu (through image), verdict, Delta and rigid of ds_solve."""
    ans = ds_solve(t, s, orbit)
    o_nu = ans.o_nu.partition
    return image[o_nu] if image else o_nu, ans.affirmative, ans.delta, ans.rigid


def test_isogenous_types_give_the_same_answers():
    cells = mismatches = 0
    for (src, dst), image in ISOGENIES.items():
        t, u = lie_type(src), lie_type(dst)
        for s in _slopes(t, u):
            for p, q in image.items():
                cells += 1
                mismatches += _answer(t, s, NilpotentOrbit(t, p), image) != _answer(u, s, NilpotentOrbit(u, q))
    assert (cells, mismatches) == (216, 0)


def test_triality_of_d4_gives_the_same_answers():
    t = lie_type("D", 4)
    slopes = _slopes(t)
    for s in slopes:
        for p, q in TRIALITY:
            assert _answer(t, s, NilpotentOrbit(t, p)) == _answer(t, s, NilpotentOrbit(t, q)), (s, p, q)
    assert len(slopes) * len(TRIALITY) == 74


def test_isogenous_adjoint_orbits_agree_on_resonance():
    # B2 coordinates (x1, x2) are C2's ((x1 + x2)/2, (x1 - x2)/2): no root
    # value of either is an integer, and both orbits are rigid at 1/4
    s = slope(1, 4)
    b = AdjointOrbit(lie_type("B2"), (Block(Fraction(3, 2), 1, (1,)), Block(Fraction(1, 3), 1, (1,))), (1,))
    c = AdjointOrbit(lie_type("C2"), (Block(Fraction(11, 12), 1, (1,)), Block(Fraction(7, 12), 1, (1,))), ())
    ours, theirs = ds_solve(b.type, s, b), ds_solve(c.type, s, c)
    image = ISOGENIES[("B2", "C2")]
    assert (image[ours.o_nu.partition], image[ours.o_nil.partition]) == (theirs.o_nu.partition, theirs.o_nil.partition)
    assert (ours.affirmative, ours.delta, ours.rigid) == (theirs.affirmative, theirs.delta, theirs.rigid) == (True, 0, True)


def _ascending_slopes(t, max_m):
    """d/m for every regular m <= max_m and d <= 3m prime to m, ascending."""
    cells = (slope(d, m) for m in range(1, max_m + 1) if is_regular(t, m) for d in range(1, 3 * m + 1) if gcd(d, m) == 1)
    return sorted(cells, key=lambda s: s.nu)


def _monotone_pairs(t, max_m):
    """(pairs nu < nu' with O_nu' <= O_nu, pairs violating it, pairs closure
    leaves undecided, slopes no table answers) over _ascending_slopes."""
    orbits = []
    unanswered = 0
    for s in _ascending_slopes(t, max_m):
        try:
            orbits.append(o_nu(t, s))
        except UnsupportedSlopeError:
            unanswered += 1
    held = violated = undecided = 0
    for i, low in enumerate(orbits):
        for high in orbits[i + 1:]:
            try:
                if closure_le(high, low):
                    held += 1
                else:
                    violated += 1
            except UnsupportedComparisonError:
                undecided += 1
    return held, violated, undecided, unanswered


def test_threshold_orbit_falls_as_the_slope_rises():
    # nu < nu' regular slopes of one type: O_nu' <= O_nu.  Classical ranks
    # <= 12 with m <= 2n + 2; in G2-E8 every regular m, E pairs only where
    # closure is decided today (the rest wait on E6-E8 Hasse data).
    classical = [0, 0, 0, 0]
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 13):
            classical = [a + b for a, b in zip(classical, _monotone_pairs(lie_type(fam, n), 2 * n + 2))]
    assert classical == [53613, 0, 0, 0]
    exceptional = {}
    for fam in ("G2", "F4", "E6", "E7", "E8"):
        t = lie_type(fam)
        exceptional[fam] = _monotone_pairs(t, coxeter_number(t))
    assert exceptional == {
        "G2": (105, 0, 0, 3),
        "F4": (780, 0, 0, 8),
        "E6": (1173, 0, 3, 17),
        "E7": (2201, 0, 10, 23),
        "E8": (7239, 0, 21, 47),
    }


def test_verdicts_stay_affirmative_as_the_slope_rises():
    # on seeded adjoint orbits, affirmative at nu stays affirmative at every
    # larger regular nu', on the induction route and on the candidate route
    rng = random.Random(21)
    cells = late = 0
    for fam in ("A", "B", "C", "D"):
        for n in range(3 if fam == "D" else 2, 9):
            t = lie_type(fam, n)
            slopes = _ascending_slopes(t, 2 * n + 2)
            for _ in range(4):
                a = _random_adjoint(rng, fam, n)[2]
                for solve in (ds_solve, ds_solve_q):
                    verdicts = [solve(t, s, a).affirmative for s in slopes]
                    first = verdicts.index(True) if True in verdicts else len(verdicts)
                    assert verdicts == [False] * first + [True] * (len(verdicts) - first), (solve.__name__, t, a)
                    cells += len(verdicts)
                    late += first > 0
    assert (cells, late) == (6912, 168)
