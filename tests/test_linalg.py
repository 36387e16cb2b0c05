from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isods import skeleton
from isods.checks import check_skeleton
from isods.linalg import jordan_type_from_ranks, row_basis, sparse_rank


def _fraction_rank(rows) -> int:
    """Reference: Gaussian elimination over Q with Fraction pivots of lead 1."""
    pivots: dict[int, dict] = {}
    rank = 0
    for raw in rows:
        row = {c: Fraction(v) for c, v in raw.items() if v}
        while row:
            c = min(row)
            if c in pivots:
                f = row.pop(c)
                for cc, vv in pivots[c].items():
                    nv = row.get(cc, 0) - f * vv
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            else:
                f = row.pop(c)
                pivots[c] = {cc: vv / f for cc, vv in row.items()}
                rank += 1
                break
    return rank


_SCALARS = st.integers(-6, 6)


@st.composite
def sparse_rows(draw):
    """Sparse rows of int entries, explicit zeros and empty rows among them,
    with integer combinations of earlier rows planted in."""
    ncols = draw(st.integers(1, 9))
    rows: list[dict] = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            combo: dict = {}
            for row in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                f = draw(_SCALARS)
                for c, v in row.items():
                    combo[c] = combo.get(c, 0) + f * v  # cancellations stay as explicit zeros
            rows.append(combo)
        else:
            cols = draw(st.lists(st.integers(0, ncols - 1), max_size=ncols, unique=True))
            rows.append({c: draw(_SCALARS) for c in cols})
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
def test_sparse_rank_matches_fraction_elimination(rows):
    assert sparse_rank(rows) == _fraction_rank(rows)


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
def test_row_basis_is_independent_and_spans_the_rows(rows):
    basis = row_basis(rows)
    assert _fraction_rank(basis) == len(basis) == _fraction_rank(rows)
    assert _fraction_rank([*rows, *basis]) == len(basis)


def _dense_power_jordan_type(dim, op) -> tuple[int, ...]:
    """Reference: the rank of every dense power N^j, each built as
    N^(j-1)·N, with the same part multiplicities."""
    ranks = [dim]
    power = op
    while True:
        r = sparse_rank({j: v for j, v in enumerate(row) if v} for row in power)
        ranks.append(r)
        if r == 0:
            break
        power = [[sum(x * op[t][j] for t, x in enumerate(row) if x) for j in range(dim)] for row in power]
        if len(ranks) > dim + 2:
            raise ValueError("operator is not nilpotent")
    parts: list[int] = []
    ranks.append(0)
    for j in range(1, len(ranks) - 1):
        parts.extend([j] * (ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]))
    assert sum(parts) == dim
    return tuple(sorted(parts, reverse=True))


@st.composite
def conjugated_jordan_forms(draw):
    """(partition, P·J·P⁻¹): J nilpotent in Jordan form with nonzero integer
    superdiagonal scalars, P a product of integer transvections I + c·E_ij,
    whose inverses I - c·E_ij are integer too."""
    parts = sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)), reverse=True)
    n = sum(parts)
    a = [[0] * n for _ in range(n)]
    off = 0
    for k in parts:
        for i in range(off, off + k - 1):
            a[i][i + 1] = draw(_SCALARS.filter(bool))
        off += k
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(_SCALARS)
        # A -> (I + c E_ij) A (I - c E_ij): add c·row j to row i, then subtract c·column i from column j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= c * row[i]
    return tuple(parts), a


@settings(max_examples=150, deadline=None)
@given(conjugated_jordan_forms())
def test_jordan_type_of_rational_conjugates(case):
    parts, op = case
    assert jordan_type_from_ranks(len(op), op) == _dense_power_jordan_type(len(op), op) == parts


def test_jordan_type_matches_dense_powers_on_the_lattice_models(monkeypatch):
    seen = []

    def recording(dim, op):
        seen.append((dim, op))
        return jordan_type_from_ranks(dim, op)

    monkeypatch.setattr(skeleton, "jordan_type_from_ranks", recording)
    assert check_skeleton(7) == (226, None)
    assert len(seen) == 458
    for dim, op in seen:
        assert jordan_type_from_ranks(dim, op) == _dense_power_jordan_type(dim, op)


def test_non_nilpotent_operator_raises():
    for op in ([[1]], [[0, 1], [1, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 2]]):
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_type_from_ranks(len(op), op)
