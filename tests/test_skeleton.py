import random
from fractions import Fraction

import pytest

from isods.checks import check_skeleton
from isods.coxeter import UnsupportedSlopeError
from isods.linalg import sparse_rank
from isods.root_data import is_elliptic_regular, lie_type, slope, slope_cells
from isods.skeleton import (
    QuadraticSpace,
    _orthogonal_space,
    _quotient_basis,
    _rank_s,
    jordan_type,
    minimal_jordan_type,
    minimal_jordan_type_report,
    model_orthogonal,
    model_type_a,
    model_type_c,
)


def test_type_a_model():
    assert jordan_type(model_type_a(4, 3)) == (2, 1, 1)
    assert jordan_type(model_type_a(4, 1)) == (4,)
    assert jordan_type(model_type_a(4, 5)) == (1, 1, 1, 1)


def test_type_c_model():
    assert jordan_type(model_type_c(3, 2, 1)) == (2, 2, 2)
    assert jordan_type(model_type_c(4, 8, 3)) == (3, 3, 2)


def test_minimal_jordan_type_examples():
    assert minimal_jordan_type(lie_type("C", 4), slope(3, 8)) == (3, 3, 2)
    assert minimal_jordan_type(lie_type("B", 4), slope(1, 4)) == (5, 3, 1)
    assert minimal_jordan_type(lie_type("D", 4), slope(1, 4)) == (5, 3)
    assert minimal_jordan_type(lie_type("B", 2), slope(3, 4)) == (2, 2, 1)


def test_unsupported_cases():
    with pytest.raises(UnsupportedSlopeError):
        minimal_jordan_type(lie_type("A", 3), slope(1, 3))  # m must be n + 1
    with pytest.raises(UnsupportedSlopeError):
        minimal_jordan_type(lie_type("B", 3), slope(1, 3))  # m = 3 not elliptic


def test_certified_lagrangian_rank_one():
    for cvals in ([1, 2], [0, 1, 2, 3], [1, 2, 3, 4], [0, 1, 2, 3, 4, 5]):
        for m in (2, 4, 6):
            space = QuadraticSpace([Fraction(c) for c in cvals], m)
            lag = space.lagrangian
            assert _rank_s(space, [list(v) for v in lag]) == 1


def test_jordan_type_independent_of_lagrangian_basis():
    rng = random.Random(13)
    t = lie_type("B", 4)
    base = model_orthogonal(t, 4, 3)
    jt = jordan_type(base)
    space = QuadraticSpace([Fraction(1), Fraction(2)], 4)
    lag = [list(v) for v in space.lagrangian]
    # mix the basis of L: the subspace, hence the type, is unchanged
    for _ in range(5):
        i, j = rng.randrange(len(lag)), rng.randrange(len(lag))
        if i != j:
            lag[i] = [a + 2 * b for a, b in zip(lag[i], lag[j])]
        other = model_orthogonal(t, 4, 3, [tuple(v) for v in lag])
        assert jordan_type(other) == jt


def _rank_s_by_quotient(space, lag):
    """Reference: the rank of L -> Q -> Q/L with a.L reduced modulo L by
    elimination, the way the oracle first computed it."""
    reduce = _quotient_basis(space.q, lag)
    return sparse_rank(dict(enumerate(reduce([ai * vi for ai, vi in zip(space.a, v)]))) for v in lag)


def test_rank_s_matches_quotient_reference():
    rng = random.Random(5)
    spaces = [QuadraticSpace([Fraction(c) for c in cvals], m)
              for cvals in ([1, 2], [0, 1, 2, 3], [1, 2, 3, 4], [0, 1, 2, 3, 4, 5]) for m in (2, 4, 6)]
    spaces += [_orthogonal_space(lie_type(fam, n), m)[0] for fam, n, m in (("B", 6, 4), ("D", 7, 4), ("B", 8, 2))]
    ranks = set()
    for space in spaces:
        for lag in [space.lagrangian] + [space.random_lagrangian(rng) for _ in range(4)]:
            got = _rank_s(space, lag)
            assert got == _rank_s_by_quotient(space, lag), (space.c, lag)
            ranks.add(got)
    assert len(ranks) > 1  # the random Lagrangians reach ranks other than one


def _kind(t, m):
    """The kind table the B/D quadratic spaces were first keyed by."""
    n = t.rank
    if t.family == "B":
        return "B-even" if (2 * n // m) % 2 == 0 else "B-odd"
    return "D-even" if m % 2 == 0 and n % m == 0 else "D-odd"


def test_orthogonal_space_matches_kind_table():
    cells = 0
    for fam in "BD":
        for t, m, _, _ in slope_cells(fam, 12, lambda t: range(1, 2 * t.rank + 2), lambda m: (1,)):
            if not is_elliptic_regular(t, m):
                continue
            kind = _kind(t, m)
            zero_line = kind in ("B-odd", "D-odd")
            ell = (2 * t.rank - 2) // m if kind == "D-odd" else 2 * t.rank // m
            space, isolated = _orthogonal_space(t, m)
            assert (space.c[0] == 0, isolated) == (zero_line, int(kind in ("B-even", "D-odd"))), (t, m)
            assert space.c == [Fraction(0)] * zero_line + [Fraction(i) for i in range(1, ell + 1)], (t, m)
            cells += 1
    assert cells == 60


def test_block_size_window():
    # block sizes of the graded part sit in [floor((m-1)/d), ceil((m+1)/d)]
    for (fam, n, m, d) in (("B", 4, 4, 3), ("B", 5, 10, 3), ("D", 4, 4, 1), ("D", 6, 10, 7)):
        t = lie_type(fam, n)
        s = slope(d, m)
        p, cert = minimal_jordan_type_report(t, s)
        assert cert


def test_oracle_equivalence_rank_le_5():
    cases, failure = check_skeleton(5, seed=3)
    assert failure is None, failure
    assert cases
