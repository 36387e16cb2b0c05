"""Isogeny and triality invariance: so(5) = sp(4), so(6) = sl(4), and the
triality of D4 give the same answers from different table rows, parity rules
and resonance branches."""

from fractions import Fraction
from math import gcd

from isods.orbits import AdjointOrbit, Block, NilpotentOrbit
from isods.root_data import is_regular, lie_type, slope
from isods.solver import ds_solve

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
