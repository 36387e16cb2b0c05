from fractions import Fraction

from hypothesis import given, settings, strategies as st

from isods.linalg import jordan_type_from_ranks, sparse_rank


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
    assert jordan_type_from_ranks(len(op), op) == parts
