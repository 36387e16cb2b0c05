import random
from fractions import Fraction

import pytest

from isods.checks import check_skeleton
from isods.coxeter import UnsupportedSlopeError
from isods.root_data import lie_type, slope
from isods.skeleton import (
    QuadraticSpace,
    _orthogonal_kind,
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
            lag = space.certified_lagrangian()
            assert _rank_s(space, [list(v) for v in lag]) == 1


def test_jordan_type_independent_of_lagrangian_basis():
    rng = random.Random(13)
    t = lie_type("B", 4)
    space_kind = _orthogonal_kind(t, 4)
    base = model_orthogonal(t, 4, 3, kind=space_kind)
    jt = jordan_type(base)
    space = QuadraticSpace([Fraction(1), Fraction(2)], 4)
    lag = [list(v) for v in space.certified_lagrangian()]
    # mix the basis of L: the subspace, hence the type, is unchanged
    for _ in range(5):
        i, j = rng.randrange(len(lag)), rng.randrange(len(lag))
        if i != j:
            lag[i] = [a + 2 * b for a, b in zip(lag[i], lag[j])]
        other = model_orthogonal(t, 4, 3, [tuple(v) for v in lag], kind=space_kind)
        assert jordan_type(other) == jt


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
