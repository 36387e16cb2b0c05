"""The d-allowable-subset route to the threshold orbit at Coxeter slope d/h:
the closure minimum of the regular-in-Levi orbits of the minimal d-allowable
subsets J of the finite diagram.

In the classical types the closure order is dominance of partitions, and
the orbit of J depends only on its tail, its mark-1 nodes and the sizes of
its A-type runs; `_configuration_candidates` builds the partition of one
dominance-least candidate per configuration, O(rank) of them in O(rank)
time each, and only the answer becomes a `NilpotentOrbit`.  Most of the
work per part runs in builtins: each candidate's parts are sorted once in
one list, its prefix sums are one `itertools.accumulate`, and each of the
O(rank) comparisons of the pick is one length test and one `map` over two
such sums (`partitions.dominance_le_sums`).  G2,
F4 and E6-E8 (rank <= 8) hold a subset of the finite diagram as a bit mask
(node a is bit a - 1): `_minimal_masks` filters a table of the mark sum and
least mark of every subset, and each label is read by mask from
`catalogue.label_table`, both tables built once per type.
(`minimal_allowable_in_finite` gives the same masks as node sets, the
classical oracle of the tests.)  The marks come from `affine_marks` alone;
the route reads none of the table code it is checked against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, lcm

from .orbits import NilpotentOrbit, closure_le, zero_orbit
from .partitions import Partition, dominance_le_sums, lambda_evenly
from .root_data import (
    FrozenRecord,
    LieType,
    UnsupportedSlopeError,
    affine_marks,
    components,
    coxeter_number,
    defining_dim,
    sorted_pairs,
    submodule,
)


class AllowableSubset(FrozenRecord):
    """Proper subset J of the affine diagram whose complement admits positive
    integer weights summing (against the marks) to d; witness holds the
    (node, weight) pairs sorted by node, given as a mapping or as pairs."""

    __slots__ = ("J", "witness", "is_minimal")

    def _store(self, values: tuple) -> None:
        J, witness, is_minimal = values
        super()._store((J, sorted_pairs(witness), is_minimal))


@lru_cache(maxsize=None)
def _gaps(marks: frozenset[int]) -> tuple[int, frozenset[int]]:
    """(g, gaps): the sums of the marks with coefficients >= 0 are the
    multiples of g = gcd(marks) outside the finite set gaps.  Every gap lies
    below g * (max/g)^2, since the Frobenius number of coprime a < b is
    (a-1)(b-1) - 1; marks are at most 6, so the table stays small."""
    g = gcd(*marks)
    basis = [m // g for m in marks]
    bound = max(basis) ** 2
    reach = [True] + [False] * bound
    for x in range(1, bound + 1):
        reach[x] = any(b <= x and reach[x - b] for b in basis)
    return g, frozenset(g * x for x in range(bound + 1) if not reach[x])


def _fills(marks: tuple[int, ...], x: int) -> bool:
    """Is x a sum of the marks with every coefficient >= 1?"""
    x -= sum(marks)
    if not marks:
        return x == 0
    g, gaps = _gaps(frozenset(marks))
    return x >= 0 and x % g == 0 and x not in gaps


def _witness(marks: list[tuple[int, int]], d: int) -> dict[int, int] | None:
    """Positive integers k_a with sum k_a * n_a = d over the given (node, mark)
    list, or None.  Nodes are taken by falling mark, and each gets the least k
    whose remainder the later marks can still fill: the lexicographically
    least witness in that order.  Past the first few k every remainder in the
    right residue class fills, so each node takes a number of steps bounded
    independently of d; the last node takes the whole remainder."""
    nodes = sorted(marks, key=lambda nm: -nm[1])
    if not _fills(tuple(n for _, n in nodes), d):
        return None
    out: dict[int, int] = {}
    for i, (node, n) in enumerate(nodes):
        rest = tuple(m for _, m in nodes[i + 1 :])
        k = 1 if rest else d // n
        while not _fills(rest, d - n * k):
            k += 1
        out[node] = k
        d -= n * k
    return out


def enumerate_d_allowable(t: LieType, d: int) -> list[AllowableSubset]:
    """All proper allowable J in the affine diagram, with one witness each and
    minimality (under inclusion) flags."""
    diag = affine_marks(t)
    allnodes = list(diag.nodes)
    found: dict[frozenset[int], dict[int, int]] = {}
    n = len(allnodes)
    for mask in range(2 ** n - 1):
        J = frozenset(allnodes[i] for i in range(n) if mask >> i & 1)
        comp = [(a, diag.marks[a]) for a in allnodes if a not in J]
        w = _witness(comp, d)
        if w is not None:
            found[J] = w
    minimal: list[frozenset[int]] = []
    out = []
    for J in sorted(found, key=len):
        is_min = not any(m < J for m in minimal)
        if is_min:
            minimal.append(J)
        out.append(AllowableSubset(J, found[J], is_min))
    return out


@lru_cache(maxsize=None)
def _subset_marks(t: LieType) -> tuple[tuple[int, int, int], ...]:
    """(mask, mark sum, least mark) of every nonempty subset of the finite
    diagram, by mask (node a is bit a - 1).  Each row extends the row of its
    mask less the top bit by one node."""
    marks = affine_marks(t).marks
    rows = [(0, 0, 0)]
    for a in range(1, t.rank + 1):
        rows += [(mask | 1 << (a - 1), s + marks[a], min(low, marks[a]) if mask else marks[a]) for mask, s, low in rows]
    return tuple(rows[1:])


def _nodes(mask: int) -> list[int]:
    """The nodes of the finite-diagram subset with this mask, increasing."""
    return [a for a in range(1, mask.bit_length() + 1) if mask >> (a - 1) & 1]


def _minimal_masks(t: LieType, d: int) -> list[int]:
    """Masks of the minimal d-allowable subsets contained in the finite
    diagram, in mask order.

    For J inside the finite diagram the affine node (mark 1) belongs to the
    complement, so J is allowable iff marksum(J) >= h - d; allowability is
    then monotone and minimality reduces to single-node removals: removing
    the least mark leaves the sum below h - d.
    """
    need = coxeter_number(t) - d
    if need <= 0:
        return [0]
    return [mask for mask, s, low in _subset_marks(t) if s >= need > s - low]


def minimal_allowable_in_finite(t: LieType, d: int) -> list[frozenset[int]]:
    """Minimal d-allowable subsets contained in the finite diagram, in mask
    order (`_minimal_masks` as node sets)."""
    return [frozenset(_nodes(mask)) for mask in _minimal_masks(t, d)]


# ---------------------------------------------------------------------------
# Regular-in-Levi orbits from subsets of the finite diagram
# ---------------------------------------------------------------------------


def _runs_partition(t: LieType, runs, tail: int) -> Partition:
    """Jordan type of a regular nilpotent of a classical Levi: A-type
    components with `runs` nodes each, plus a tail component of `tail` nodes
    (0 for none).  The tail is the component holding node n in B and C, and
    in D the so(2*tail) spanned by the components meeting both fork nodes.

    The runs come in any order, so the parts above 1 (each run's size plus
    1, twice in B-D, and the tail's part 2*tail + 1 in B, 2*tail in C and
    2*tail - 1 in D) are sorted once; they are all at least 2, so the 1s
    (the D tail's 1 among them) follow as they are."""
    fam = t.family
    parts = [r + 1 for r in runs]
    if fam != "A":
        parts *= 2
        if tail:
            parts.append(2 * tail + 1 if fam == "B" else 2 * tail if fam == "C" else 2 * tail - 1)
    parts.sort(reverse=True)
    return (*parts, *(1,) * (defining_dim(t) - sum(parts)))


def _classical_levi_partition(t: LieType, J: frozenset[int]) -> Partition:
    """`_runs_partition` of the components of J: the tail is the component
    through node n in B and C, and in D the components meeting the fork when
    J holds both fork nodes; the other components are runs."""
    fam, n, comps = t.family, t.rank, components(t, J)
    ends = {n} if fam in ("B", "C") else {n - 1, n} if fam == "D" and {n - 1, n} <= J else set()
    return _runs_partition(t, [len(c) for c in comps if not c & ends], sum(len(c) for c in comps if c & ends))


def _configuration_candidates(t: LieType, d: int) -> list[Partition]:
    """The partition of the least candidate of each configuration of a
    minimal d-allowable J in a classical finite diagram.

    In B-D every mark is 1 or 2.  J is its tail, the c nodes n - c + 1..n of
    the component through node n (B, C) or both fork nodes (D), and k A-type
    runs of S nodes in all on the path left of it: nodes 1..n - c - 1, or
    1..n - 1 in D with no tail (one fork node in J taken as n - 1, same
    orbit).  J holds each mark-1 end of the path (pinned) or not (it leaves
    the path).  With m1 mark-1 nodes in J, s = 2(S + c) - m1 and the least
    mark is 1 if m1 else 2, so minimality, s >= h - d > s - least mark,
    fixes S for each c and choice of pinned ends.  On L nodes with p pinned
    ends, k runs fit iff p <= S and k <= L - S + 1, with equality when
    p = 2, and then every composition of S into k parts is placed: the runs'
    outer ends stay put and interior nodes have mark 2.  The partition is
    each run's size plus 1, twice in B-D, then the tail's parts and 1s.

    The balanced composition (`lambda_evenly`) at the largest k is the least
    partition of S with at most k parts; adding 1 to k parts, doubling them
    and adding the same tail and 1s keep dominance.  So each candidate lies
    above the one built for its configuration, and the least of these
    O(rank) real candidates, once `coxeter_solve` checks that it lies below
    them all, is the least candidate.  In A all marks are 1: S = h - d on
    the path 1..n.  Configurations that give the same partition give one
    candidate, at the first of them.  Each candidate is a canonical
    partition (`_runs_partition`), and no `NilpotentOrbit` is built for it:
    `coxeter_solve` validates only the one it returns.

    Cost: O(rank) configurations, each a constant number of integer steps
    (the mark-1 nodes of the tails come from one running count) and one
    `_runs_partition`: a comprehension over its k runs, then a builtin sort,
    fill and dict insertion over its O(rank) parts.
    """
    fam, n = t.family, t.rank
    need = coxeter_number(t) - d
    if need <= 0:
        return [(1,) * defining_dim(t)]
    if fam == "A":
        return [_runs_partition(t, lambda_evenly(need, min(need, n - need + 1)), 0)]
    marks = affine_marks(t).marks
    # (tail length c, path length, mark-1 path ends, mark-1 tail nodes); the
    # last is one running count over the nodes n, n - 1, ..., 1
    shapes, count = [], 0
    for c in range(n + 1):
        count += c > 0 and marks[n + 1 - c] == 1
        if fam != "D" or c > 1:
            shapes.append((c, max(n - c - 1, 0), n - c > 1 and marks[1] == 1, count))
    if fam == "D":
        shapes.append((0, n - 1, 2, 0))
    out = {}  # partition -> None, in order of first construction
    for c, length, ends, tail_ones in shapes:
        for p in range(ends + 1):  # p ends pinned, the others dropped
            m1 = p + tail_ones
            S = (need + m1 + 1) // 2 - c
            L = length - ends + p
            s = 2 * (S + c) - m1  # >= need by the choice of S
            if s - (1 if m1 else 2) < need and p <= S <= L and (p < 2 or 2 * S > L):
                runs = lambda_evenly(S, min(S, L - S + 1)) if S else ()
                out[_runs_partition(t, runs, c)] = None
    return list(out)


def orbit_J_reg(t: LieType, J: frozenset[int] | set[int]) -> NilpotentOrbit:
    """Nilpotent orbit of a regular nilpotent element of the Levi with simple
    roots J (J inside the finite diagram)."""
    if t.is_exceptional:
        from .catalogue import exceptional_label

        return NilpotentOrbit(t, label=exceptional_label(t, frozenset(J)))
    return NilpotentOrbit(t, _classical_levi_partition(t, frozenset(J)))


def coxeter_candidates(t: LieType, d: int) -> list[NilpotentOrbit]:
    """Orbits attached to the minimal d-allowable subsets of the finite
    diagram (`_minimal_masks`), duplicates removed, in the order of
    sorted(J): in G2-E8 the labels read from `catalogue.label_table` by
    mask, in A-D the `_classical_levi_partition`s."""
    masks = sorted(_minimal_masks(t, d), key=_nodes)
    if t.is_exceptional:
        from .catalogue import label_table

        labels = label_table(t)
        return [NilpotentOrbit(t, label=label) for label in dict.fromkeys(labels[mask] for mask in masks)]
    parts = dict.fromkeys(_classical_levi_partition(t, frozenset(_nodes(mask))) for mask in masks)
    return [NilpotentOrbit(t, p) for p in parts]


def coxeter_solve(t: LieType, d: int) -> NilpotentOrbit:
    """Threshold orbit for slope d/h via the d-allowable route.

    Exceptional types without embedded closure data (E6/E7/E8) fall back to
    the embedded Coxeter table after checking the candidate set is sane.
    In A-D the candidates are partitions, compared by dominance (the closure
    order there) on prefix sums taken once per candidate
    (`dominance_le_sums`), and only the least becomes a `NilpotentOrbit`.
    """
    h = coxeter_number(t)
    if d < 1:
        raise UnsupportedSlopeError(f"d={d} is not positive")
    if gcd(d, h) != 1:
        raise UnsupportedSlopeError(f"d={d} is not coprime to the Coxeter number {h}")
    if gcd(d, lcm(*affine_marks(t).marks)) != 1:  # d shares a factor with some mark
        raise UnsupportedSlopeError(f"d={d} shares a factor with a mark; stabilizers may be non-parabolic")
    cands = coxeter_candidates(t, d) if t.is_exceptional else _configuration_candidates(t, d)
    if d >= h:
        assert cands == [zero_orbit(t) if t.is_exceptional else (1,) * defining_dim(t)]
        return zero_orbit(t)
    if t.family in ("E6", "E7", "E8"):
        xd = submodule("exceptional_data")
        key = (t.family, d)
        if key not in xd.EXC_COXETER:
            raise UnsupportedSlopeError(f"no embedded Coxeter data for {key}")
        label = xd.EXC_COXETER[key][0]
        if label not in [c.label for c in cands]:
            raise AssertionError(f"table orbit {label} missing from candidates for {key}")
        return NilpotentOrbit(t, label=label)
    if t.is_exceptional:
        keys, le = cands, closure_le
    else:
        keys, le = [list(accumulate(c)) for c in cands], dominance_le_sums
    # One pass moves to each candidate below the current one, so it ends on
    # the least candidate if there is one; a second pass checks that there is.
    least = 0
    for i in range(1, len(keys)):
        if le(keys[i], keys[least]):
            least = i
    if not all(map(le, repeat(keys[least]), keys)):
        raise AssertionError(f"no unique closure-minimal candidate for {t}, d={d}: {cands}")
    return cands[least] if t.is_exceptional else NilpotentOrbit(t, cands[least])
