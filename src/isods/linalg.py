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
reduces to zero lies in their span: their number is the rank over Q, the
rank that elimination with rational pivots gives.  No rational number is
formed inside the loops.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

Row = dict[int, int]


def sparse_rank(rows: Iterable[Row]) -> int:
    """Rank over Q of a matrix given as sparse integer rows (col -> int)."""
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
    return len(pivots)


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


def jordan_type_from_ranks(dim: int, op: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Jordan type of a nilpotent integer operator from the rank sequence of
    its powers: multiplicity of part j is rank(N^(j-1)) - 2 rank(N^j) +
    rank(N^(j+1))."""
    ranks = [dim]
    power = op
    while True:
        r = sparse_rank({j: v for j, v in enumerate(row) if v} for row in power)
        ranks.append(r)
        if r == 0:
            break
        power = mat_mul(power, op)
        if len(ranks) > dim + 2:
            raise ValueError("operator is not nilpotent")
    parts: list[int] = []
    ranks.append(0)
    for j in range(1, len(ranks) - 1):
        mult = ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
        parts.extend([j] * mult)
    assert sum(parts) == dim
    return tuple(sorted(parts, reverse=True))
