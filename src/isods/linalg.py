"""Exact linear algebra over Q on small sparse/dense integer matrices, by
fraction-free integer elimination.

Every caller builds its matrices over the integers, and elimination stays
in them, as in the fraction-free methods of Bareiss (Math. Comp. 22, 1968):
a row with entry b in the lead column c of a stored row with lead a becomes
(a/g)·row − (b/g)·stored, g = gcd(a, b), and a row multiplied this way is
divided by the gcd of its entries to keep the numbers small.  Each step
replaces a row by a nonzero multiple of itself plus a multiple of a stored
row, so the span over Q of the rows seen so far does not change.  The stored
rows have distinct lead columns, so they are independent, and a row that
reduces to zero lies in their span: they are a basis of the row space
(`row_basis`), and their number is the rank over Q (`sparse_rank`), the rank
that elimination with rational pivots gives.  No rational number is formed
inside the loops.

The Jordan type of a nilpotent N comes from the ranks of its powers, taken
along the image chain: rowspace(N^(j+1)) = rowspace(N^j)·N, so a basis of
rowspace(N^j), each row multiplied by the sparse rows of N, spans
rowspace(N^(j+1)).  No power of N is formed.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

Row = dict[int, int]


def row_basis(rows: Iterable[Row]) -> list[Row]:
    """Independent integer rows spanning the same space over Q as the sparse
    integer rows (col -> int) given: the pivot rows elimination keeps."""
    pivots: dict[int, tuple[int, dict[int, int]]] = {}  # lead column -> (lead, rest of the row)
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = min(row)
            b = row.pop(c)
            if c not in pivots:
                pivots[c] = (b, row)
                break
            a, rest = pivots[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {cc: a * v for cc, v in row.items()}
            for cc, v in rest.items():
                nv = row.get(cc, 0) - b * v
                if nv:
                    row[cc] = nv
                else:
                    del row[cc]
            if a != 1 and row:
                g = gcd(*row.values())
                if g > 1:
                    row = {cc: v // g for cc, v in row.items()}
    return [{c: a, **rest} for c, (a, rest) in pivots.items()]


def sparse_rank(rows: Iterable[Row]) -> int:
    """Rank over Q of a matrix given as sparse integer rows (col -> int)."""
    return len(row_basis(rows))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += v * bt[j]
    return out


def jordan_type_from_ranks(dim: int, rows: Sequence[Row]) -> tuple[int, ...]:
    """Jordan type of a nilpotent integer operator, given as its dim sparse
    rows, from the rank sequence of its powers: multiplicity of part j is
    rank(N^(j-1)) - 2 rank(N^j) + rank(N^(j+1)).  rank(N^(j+1)) is the rank
    of a basis of rowspace(N^j) times N."""
    ranks = [dim]
    basis = row_basis(rows)
    while True:
        ranks.append(len(basis))
        if not basis:
            break
        if len(ranks) > dim + 2:
            raise ValueError("operator is not nilpotent")
        image = []
        for row in basis:
            out: dict[int, int] = {}
            for i, x in row.items():
                for j, y in rows[i].items():
                    out[j] = out.get(j, 0) + x * y
            image.append(out)
        basis = row_basis(image)
    parts: list[int] = []
    ranks.append(0)
    for j in range(1, len(ranks) - 1):
        mult = ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
        parts.extend([j] * mult)
    assert sum(parts) == dim
    return tuple(sorted(parts, reverse=True))
