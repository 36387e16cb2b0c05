import json
import random
from fractions import Fraction
from math import gcd

import pytest

from isods import checks, skeleton
from isods.checks import check_skeleton
from isods.cli import main
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
    model_blocks,
    model_orthogonal,
)


def test_type_a_model():
    A3 = lie_type("A", 3)
    assert jordan_type(model_blocks(A3, 4, 3)) == (2, 1, 1)
    assert jordan_type(model_blocks(A3, 4, 1)) == (4,)
    assert jordan_type(model_blocks(A3, 4, 5)) == (1, 1, 1, 1)


def test_type_c_model():
    assert jordan_type(model_blocks(lie_type("C", 3), 2, 1)) == (2, 2, 2)
    assert jordan_type(model_blocks(lie_type("C", 4), 8, 3)) == (3, 3, 2)


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


def _elliptic_orthogonal_cells(max_rank=12):
    """(type, m) of the elliptic B/D cells of rank <= max_rank."""
    for fam in "BD":
        for t, m, _, _ in slope_cells(fam, max_rank, lambda t: range(1, 2 * t.rank + 2), lambda m: (1,)):
            if is_elliptic_regular(t, m):
                yield t, m


def test_certified_lagrangian_rank_one():
    # the certificate is all that stands behind a d = 1 answer, so it is
    # checked on the space of every elliptic B/D cell of rank <= 12 as well
    spaces = [QuadraticSpace(cvals, m) for cvals in ([1, 2], [0, 1, 2, 3], [1, 2, 3, 4], [0, 1, 2, 3, 4, 5])
              for m in (2, 4, 6)]
    cells = list(_elliptic_orthogonal_cells())
    assert len(cells) == 60
    for space in spaces + [_orthogonal_space(t, m)[0] for t, m in cells]:
        assert _rank_s(space, [list(v) for v in space.lagrangian]) == 1, (space.c, space.a)


def test_answers_draw_no_random_lagrangian(monkeypatch, capsys):
    def refuse(self, rng):
        raise RuntimeError("the answer drew a random Lagrangian")

    monkeypatch.setattr(QuadraticSpace, "random_lagrangian", refuse)
    B4 = lie_type("B", 4)
    assert minimal_jordan_type_report(B4, slope(1, 4), search_budget=1000, seed=3) == ((5, 3, 1), True)
    assert main(["oracle", "--type", "B", "--rank", "4", "--slope", "1/4", "--budget", "10000", "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out) == {"certified": True, "jordan_type": [5, 3, 1]}


@pytest.mark.parametrize("fake,passed,first_bad", [
    # dominates every type, so B2 1/2 (d = 1) passes and B2 3/2 fails
    (lambda model: (len(model.operator) + model.isolated_lines,), 7, "B2 3/2 gives (5,)"),
    (lambda model: (1,) * (len(model.operator) + model.isolated_lines), 6, "B2 1/2 gives (1, 1, 1, 1, 1)"),
], ids=["regular", "zero"])
def test_check_skeleton_reports_a_sample_against_the_certificate(monkeypatch, fake, passed, first_bad):
    # a sample off the certified type is a failure string of the check after
    # the 6 cells of A1 and A2, not an AssertionError inside the oracle
    monkeypatch.setattr(checks, "jordan_type", fake)
    cases, failure = check_skeleton(2)
    assert cases == passed and failure.startswith(f"a random Lagrangian at {first_bad} against"), failure


def test_jordan_type_independent_of_lagrangian_basis():
    rng = random.Random(13)
    t = lie_type("B", 4)
    base = model_orthogonal(t, 4, 3)
    jt = jordan_type(base)
    space = QuadraticSpace([1, 2], 4)
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


def _reference_spaces():
    spaces = [QuadraticSpace(cvals, m) for cvals in ([1, 2], [0, 1, 2, 3], [1, 2, 3, 4], [0, 1, 2, 3, 4, 5])
              for m in (2, 4, 6)]
    return spaces + [_orthogonal_space(lie_type(fam, n), m)[0] for fam, n, m in (("B", 6, 4), ("D", 7, 4), ("B", 8, 2))]


def test_rank_s_matches_quotient_reference():
    rng = random.Random(5)
    ranks = set()
    for space in _reference_spaces():
        for lag in [space.lagrangian] + [space.random_lagrangian(rng) for _ in range(4)]:
            got = _rank_s(space, lag)
            assert got == _rank_s_by_quotient(space, lag), (space.c, lag)
            ranks.add(got)
    assert len(ranks) > 1  # the random Lagrangians reach ranks other than one


def _fraction_weights(a):
    """Reference: the Lagrange weights 1 / prod_{j != i} (a_i - a_j)."""
    out = []
    for i, ai in enumerate(a):
        prod = Fraction(1)
        for j, aj in enumerate(a):
            if j != i:
                prod *= ai - aj
        out.append(1 / prod)
    return out


def _fraction_random_lagrangian(space, rng):
    """Reference: the reflections of the certified Lagrangian in Fraction
    arithmetic, as the oracle first drew them."""
    beta = _fraction_weights(space.a)

    def inner(x, y):
        return sum(b * xi * yi for b, xi, yi in zip(beta, x, y))

    basis = [list(map(Fraction, v)) for v in space.lagrangian]
    for _ in range(3):
        while True:
            w = [Fraction(rng.randint(-9, 9)) for _ in range(space.q)]
            ww = inner(w, w)
            if ww:
                break
        for v in basis:
            f = 2 * inner(v, w) / ww
            for i in range(space.q):
                v[i] -= f * w[i]
    return [tuple(v) for v in basis]


def _fraction_quotient_basis(q, lag):
    """Reference: coordinates on Q/L by elimination with Fraction pivots of
    lead 1, as the oracle first computed them."""
    pivots = []
    for row in lag:
        row = list(map(Fraction, row))
        for c, prow in pivots:
            if row[c]:
                f = row[c]
                row = [x - f * y for x, y in zip(row, prow)]
        lead = next(i for i, x in enumerate(row) if x)
        pivots.append((lead, [x / row[lead] for x in row]))
    free = [i for i in range(q) if i not in {c for c, _ in pivots}]

    def reduce(vec):
        v = list(map(Fraction, vec))
        for c, prow in pivots:
            if v[c]:
                f = v[c]
                v = [x - f * y for x, y in zip(v, prow)]
        return tuple(v[i] for i in free)

    return reduce


def _ratio(u, v):
    """The nonzero scalar r with u = r·v, or None when there is none."""
    lead = next((i for i, x in enumerate(v) if x), None)
    if lead is None or not u[lead]:
        return None
    r = Fraction(u[lead]) / v[lead]
    return r if all(x == r * y for x, y in zip(u, v)) else None


def test_weights_are_a_positive_multiple_of_the_lagrange_weights():
    for space in _reference_spaces():
        assert all(type(b) is int for b in space.beta)
        assert len({Fraction(b) / w for b, w in zip(space.beta, _fraction_weights(space.a))}) == 1
        assert space.beta[0] * _fraction_weights(space.a)[0] > 0


def test_integer_lagrangians_span_the_fraction_reference_lines():
    # the same draws reflect the same lines: each integer vector is a nonzero
    # multiple of the Fraction one, with content 1
    for space in _reference_spaces():
        for seed in range(5):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(2):
                lag, ref = space.random_lagrangian(rng), _fraction_random_lagrangian(space, ref_rng)
                assert len(lag) == len(ref) == space.q // 2
                for v, r in zip(lag, ref):
                    assert all(type(x) is int for x in v) and gcd(*v) == 1, (space.c, seed, v)
                    assert _ratio(v, r) is not None, (space.c, seed, v, r)


def test_quotient_coordinates_are_a_common_multiple_of_the_reference():
    rng = random.Random(11)
    for space in _reference_spaces():
        for lag in [space.lagrangian] + [space.random_lagrangian(rng) for _ in range(2)]:
            reduce, ref = _quotient_basis(space.q, lag), _fraction_quotient_basis(space.q, lag)
            vecs = [[rng.randint(-5, 5) for _ in range(space.q)] for _ in range(4)]
            vecs += [[int(i == j) for j in range(space.q)] for i in range(space.q)]
            ratios = {_ratio(reduce(v), ref(v)) for v in vecs if any(ref(v))}
            assert len(ratios) == 1 and None not in ratios, (space.c, ratios)
            assert all(not any(reduce(v)) for v in lag)


def test_models_are_built_over_the_integers(monkeypatch):
    models = []
    traced = skeleton.jordan_type

    def record(model):
        models.append(model)
        return traced(model)

    monkeypatch.setattr(skeleton, "jordan_type", record)
    monkeypatch.setattr(checks, "jordan_type", record)  # the random-Lagrangian models
    cases, failure = check_skeleton(6)
    assert failure is None and cases
    assert {m.type.family for m in models} == set("ABCD")
    bad = [(m.type, m.m, m.d) for m in models if any(type(x) is not int for row in m.operator for x in row)]
    assert not bad, bad[:5]


def _kind(t, m):
    """The kind table the B/D quadratic spaces were first keyed by."""
    n = t.rank
    if t.family == "B":
        return "B-even" if (2 * n // m) % 2 == 0 else "B-odd"
    return "D-even" if m % 2 == 0 and n % m == 0 else "D-odd"


def test_orthogonal_space_matches_kind_table():
    cells = 0
    for t, m in _elliptic_orthogonal_cells():
        kind = _kind(t, m)
        zero_line = kind in ("B-odd", "D-odd")
        ell = (2 * t.rank - 2) // m if kind == "D-odd" else 2 * t.rank // m
        space, isolated = _orthogonal_space(t, m)
        assert (space.c[0] == 0, isolated) == (zero_line, int(kind in ("B-even", "D-odd"))), (t, m)
        assert space.c == [0] * zero_line + list(range(1, ell + 1)), (t, m)
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
