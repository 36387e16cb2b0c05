"""Exact integer-partition arithmetic: dominance order, parity classes, collapses.

A partition is a canonical tuple of weakly decreasing positive integers; the
empty partition is ``()``.  Everything here is pure and exact.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from functools import lru_cache
from itertools import accumulate, zip_longest
from operator import ge, neg
from typing import Iterable, Sequence

Partition = tuple[int, ...]


class ParityClass(Enum):
    """Parity constraint family for nilpotent-orbit partitions; its value is
    (parity of the total, parity of the parts needing even multiplicity)."""

    B = (1, 0)  # odd total, even parts occur with even multiplicity
    C = (0, 1)  # even total, odd parts occur with even multiplicity
    D = (0, 0)  # even total, even parts occur with even multiplicity


def partition(parts: Iterable[int]) -> Partition:
    """Canonical form: sort descending, drop zeros, reject negatives."""
    out = tuple(sorted(map(int, parts), reverse=True))
    if out and out[-1] < 0:
        raise ValueError(f"partition parts must be nonnegative, got {out}")
    return out[: out.index(0)] if out and out[-1] == 0 else out


def transpose(p: Partition) -> Partition:
    """Conjugate partition (column counts of the Young diagram)."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > i) for i in range(p[0]))


def prefix_sums(p: Partition, upto: int) -> list[int]:
    """The first `upto` prefix sums of p, padded with its total."""
    out = list(accumulate(p[:upto]))
    out += [out[-1] if out else 0] * (upto - len(out))
    return out


def dominance_le(p: Partition, q: Partition) -> bool:
    """True iff every prefix sum of p is <= the one of q (equal totals)."""
    if sum(p) != sum(q):
        raise ValueError(f"dominance needs equal totals: {p} vs {q}")
    # diff runs through Q_i - P_i; past its last part a sequence adds zeros,
    # so its prefix sums stay at the total.
    diff = 0
    for a, b in zip_longest(p, q, fillvalue=0):
        diff += b - a
        if diff < 0:
            return False
    return True


def least_clearing(n: int, bound: Sequence[int]) -> Partition | None:
    """The dominance-least partition of n with at most W = len(bound) parts
    whose prefix sums P_1, ..., P_W are >= bound pointwise.  None exactly
    when max(bound) > n, or when the bound is empty and n > 0; otherwise (n)
    clears the bound.

    Its prefix sums P_0 = 0, ..., P_W = n are the least concave integer
    sequence above the clipped bound c_k = max(b_k, 0), pinned at c_0 = 0
    and c_W = n: concave sequences are closed under the pointwise minimum,
    the dominance meet (Brylawski, The lattice of integer partitions, 1973).
    Write E(a, b) for the even spread from (a, c_a) to (b, c_b), c_a plus
    the prefix sums of lambda_evenly(c_b - c_a, b - a); its first part is
    the ceiling and its last the floor of the slope
    s_ab = (c_b - c_a)/(b - a).

    1. Between consecutive points a < b where P meets c, P = E(a, b): if its
       parts there differed by 2 or more, moving a unit from the last
       largest to the first smallest would keep them decreasing and lower P
       by one strictly between a and b, where P > c.
    2. E(a, b) is the least concave integer path from (a, c_a) to (b, c_b)
       (lambda_evenly is the least partition with at most b - a parts), and
       lies below any concave path with higher ends too: one more unit in a
       spread's total raises each of its prefix sums by 0 or 1.
    3. The pass joins k by one step to the path of spreads found for
       c_0..c_{k-1}, then pops the top vertex v, with u below it, while
       floor(s_uv) < ceil(s_vk).  A pop replaces E(u, v) and E(v, k) by
       E(u, k), which reaches c_v at v (v lies below the chord from u to k,
       or both slopes lie in one [f, f + 1] and E(u, k) puts its parts f + 1
       first), so by 2 it lies above both and the path still clears c.
       After the pops the join at v is concave.  By induction and 2, every
       concave path above c_0..c_k lies above this one, so at k = W it is P
       (its parts are nonnegative: it lies below the prefix sums of (n) and
       ends at n).

    Early exit: a partition of n has at most n parts, so P has at most
    w = min(W, n) of them, and lambda_evenly(n, w) is the least partition
    of n with at most w parts.  When its prefix sums clear the bound, it is
    P, and the pass is skipped."""
    if max(bound, default=0) > n or (not bound and n):
        return None
    # A partition of n has P_k = n for every k >= n, so past position n the
    # bound asks only what the check above did.
    width = min(len(bound), n)
    if not width:
        return ()
    spread = lambda_evenly(n, width)
    if all(map(ge, accumulate(spread), bound)):
        return spread
    c = [0, *(max(b, 0) for b in bound[:width])]
    c[width] = n
    hull = [0]
    for k in range(1, width + 1):
        while len(hull) > 1:
            u, v = hull[-2:]
            if (c[v] - c[u]) // (v - u) >= -((c[v] - c[k]) // (k - v)):
                break
            hull.pop()
        hull.append(k)
    return tuple(x for a, b in zip(hull, hull[1:]) for x in lambda_evenly(c[b] - c[a], b - a))


def lambda_evenly(n: int, r: int) -> Partition:
    """The unique partition of n with at most r parts, all of size
    floor(n/r) or ceil(n/r).  It is the dominance minimum among
    partitions of n with at most r parts."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    k, rem = divmod(n, r)
    return (k + 1,) * rem + (k,) * (r - rem) if k else (1,) * rem


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n with parts bounded by max_part, descending parts."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out: list[Partition] = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def lambda_tilde(n: int, r: int) -> Partition:
    """Dominance minimum among partitions of n with exactly r parts, other
    than E = lambda_evenly(n, r) = ((k+1)^rem, k^(r-rem)), n = k*r + rem;
    ValueError when n <= r, when E is alone, or when it is not unique.

    Less one per part, these are the partitions of n - r with at most r
    parts, an up-set of the dominance lattice whose least element is E less
    one per part, so its minimal elements other than E are the covers of E:
    moves of one unit to an earlier part that is adjacent or of equal size
    (Brylawski, The lattice of integer partitions, 1973) that keep the parts
    decreasing and positive.  From E: the last k to the first k (rem <= r - 2,
    k >= 2), the last k+1 to the first part (rem >= 2), or (k+1, k) to
    (k+2, k-1) (r = 2, rem = 1, k >= 2)."""
    if r < 1 or n <= r:
        raise ValueError(f"lambda_tilde undefined for n={n}, r={r}")
    k, rem = divmod(n, r)
    covers = []
    if rem <= r - 2 and k >= 2:
        covers.append((k + 1,) * (rem + 1) + (k,) * (r - rem - 2) + (k - 1,))
    if rem >= 2:
        covers.append((k + 2,) + (k + 1,) * (rem - 2) + (k,) * (r - rem + 1))
    if r == 2 and rem == 1 and k >= 2:
        covers.append((k + 2, k - 1))
    if not covers:
        raise ValueError(f"no partition of {n} with {r} parts other than {lambda_evenly(n, r)}")
    if len(covers) > 1:
        raise ValueError(f"no unique next-smallest partition for n={n}, r={r}")
    return covers[0]


def is_very_even(p: Partition) -> bool:
    return all(x % 2 == 0 for x in p)


def is_valid(p: Partition, cls: ParityClass) -> bool:
    """Parity-class membership test, including the total-parity constraint.

    In a weakly decreasing p each value fills one run of equal parts, so one
    scan counts the runs; equal values apart imply a rise between them, and
    at a rise the parts are counted value by value."""
    total_parity, paired = cls.value
    if sum(p) % 2 != total_parity:
        return False
    valid, prev, odd = True, None, False  # odd: the run of prev has odd length
    for x in p:
        if x == prev:
            odd = not odd
            continue
        if prev is not None:
            if x > prev:
                return all(p.count(v) % 2 == 0 for v in set(p) if v % 2 == paired)
            if odd and prev % 2 == paired:
                valid = False
        prev, odd = x, True
    return valid and not (odd and prev % 2 == paired)


@lru_cache(maxsize=None)
def valid_partitions(n: int, cls: ParityClass) -> tuple[Partition, ...]:
    """All partitions of n in the parity class cls, in partitions_of order."""
    return tuple(p for p in partitions_of(n) if is_valid(p, cls))


def collapse(p: Partition, cls: ParityClass) -> Partition:
    """Dominance maximum among parity-valid partitions dominated by p.

    The greedy unit move (Collingwood-McGovern, section 6.3) takes the
    largest bad-parity value v of odd multiplicity, lowers its last part to
    v - 1 and grows the first part below v - 1 by one, the earliest that
    keeps the parts decreasing (a trailing 0 becomes a part 1).  One scan
    over the runs of equal parts, from the largest down, makes exactly the
    greedy's moves in its order: a move at v leaves v with even multiplicity
    and changes only parts below v, each to at most v - 1, so the values
    above v stay valid and the greedy's next v is smaller.  The scan resumes
    at the lowered part, which starts the run of v - 1, so it visits each
    value once.  No part 1 is lowered: in C, once the larger odd values are
    paired, the even total pairs the 1s.  Verified against exhaustive search.
    """
    total_parity, bad_residue = cls.value
    if sum(p) % 2 != total_parity:
        raise ValueError(f"{cls.name}-collapse needs {'odd' if total_parity else 'even'} total")

    parts = list(partition(p))
    i = 0
    while i < len(parts):
        v = parts[i]
        end = bisect_right(parts, -v, i, key=neg)  # past the run of v
        if v % 2 == bad_residue and (end - i) % 2:
            parts[end - 1] = v - 1
            below = bisect_right(parts, 1 - v, end, key=neg)  # first part below v - 1
            if below < len(parts):
                parts[below] += 1
            else:
                parts.append(1)
            end -= 1
        i = end
    out = tuple(parts)
    assert is_valid(out, cls), (p, cls, out)
    return out


def sum_parts(ps: Iterable[Partition]) -> Partition:
    """Componentwise sum of part sequences, padding with zeros: each one is
    added into the longest read so far, so the cost is linear in the parts."""
    out: list[int] = []
    for p in ps:
        if len(p) > len(out):
            out, p = list(p), out
        for i, x in enumerate(p):
            out[i] += x
    return partition(out)


def union_parts(p: Partition, extra: Iterable[int]) -> Partition:
    """Multiset union, e.g. union_parts((3,2), (1,)) == (3,2,1)."""
    return partition(tuple(p) + tuple(extra))
