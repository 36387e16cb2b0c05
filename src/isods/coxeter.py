"""The d-allowable-subset route to the threshold orbit at Coxeter slope d/h:
the closure minimum of the regular-in-Levi orbits of the minimal d-allowable
subsets J of the finite diagram.

In the classical types the orbit of J depends only on its chain shape: the
lengths of its components, the tail component (B, C) and whether J holds
both fork nodes (D).  There the candidates come from a walk over chain
shapes (`_chain_shape_candidates`): its states number a constant times
rank^2 times the partitions of the numbers up to the rank, not 2^rank.
G2, F4 and E6-E8 (rank <= 8) scan all 2^rank subsets
(`minimal_allowable_in_finite`), which the tests keep as the classical
oracle.  The marks come from `affine_marks` alone; the route reads none of
the table code it is checked against.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from . import exceptional_data as xd
from .orbits import NilpotentOrbit, closure_le, parity_class, zero_orbit
from .partitions import Partition, is_valid, partition
from .root_data import (
    FrozenRecord,
    LieType,
    UnsupportedSlopeError,
    affine_marks,
    cartan_matrix,
    coxeter_number,
    defining_dim,
    levi_factor_types,
    positive_roots,
)


class AllowableSubset(FrozenRecord):
    """Proper subset J of the affine diagram whose complement admits positive
    integer weights summing (against the marks) to d."""

    __slots__ = ("J", "witness", "is_minimal")


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


def minimal_allowable_in_finite(t: LieType, d: int) -> list[frozenset[int]]:
    """Minimal d-allowable subsets contained in the finite diagram.

    For J inside the finite diagram the affine node (mark 1) belongs to the
    complement, so J is allowable iff marksum(J) >= h - d; allowability is
    then monotone and minimality reduces to single-node removals.
    """
    diag = affine_marks(t)
    h = coxeter_number(t)
    nodes = diag.finite_nodes
    need = h - d
    if need <= 0:
        return [frozenset()]
    out = []
    for mask in range(2 ** len(nodes)):
        J = [nodes[i] for i in range(len(nodes)) if mask >> i & 1]
        s = sum(diag.marks[a] for a in J)
        if s >= need and all(s - diag.marks[a] < need for a in J):
            out.append(frozenset(J))
    return out


# ---------------------------------------------------------------------------
# Regular-in-Levi orbits from subsets of the finite diagram
# ---------------------------------------------------------------------------


def _runs_partition(t: LieType, runs, tail: int) -> Partition:
    """Jordan type of a regular nilpotent of a classical Levi: A-type
    components with `runs` nodes each, plus a tail component of `tail` nodes
    (0 for none).  The tail is the component holding node n in B and C, and
    in D the so(2*tail) spanned by the components meeting both fork nodes."""
    fam = t.family
    if fam == "A":
        parts = [r + 1 for r in runs]
    else:
        parts = [r + 1 for r in runs for _ in (0, 1)]
        if tail:
            parts += {"B": [2 * tail + 1], "C": [2 * tail], "D": [2 * tail - 1, 1]}[fam]
    parts += [1] * (defining_dim(t) - sum(parts))
    return partition(parts)


def _classical_levi_partition(t: LieType, J: frozenset[int]) -> Partition:
    factors = levi_factor_types(t, J)
    runs = [int(f[1:]) for f in factors if f[0] == "A"]
    return _runs_partition(t, runs, sum(int(f[1:]) for f in factors if f[0] != "A"))


def _chain_shape_candidates(t: LieType, d: int) -> list[NilpotentOrbit]:
    """The distinct orbits of the minimal d-allowable subsets of a classical
    finite diagram, in the order of `sorted(J)`, by a walk over chain shapes.

    The walk adds nodes in increasing order, so its preorder is the
    lexicographic order of sorted(J).  A state is (last node, open run
    length, sorted closed run lengths, tail length, mark sum, smallest mark
    in J): the orbit of every completion depends only on it, so a state seen
    before can only yield orbits already emitted and is skipped.  A walk
    stops once the mark sum reaches h - d (supersets of an allowable subset
    are not minimal) or can no longer reach it.
    """
    fam, n = t.family, t.rank
    marks = affine_marks(t).marks
    need = coxeter_number(t) - d
    if need <= 0:
        return [zero_orbit(t)]
    # reach[k]: the mark sum of the nodes after k
    reach = [sum(marks[a] for a in range(k + 1, n + 1)) for k in range(n + 1)]
    out: dict[Partition, NilpotentOrbit] = {}
    seen = set()
    # J empty: `low` is never read, since need > 0
    stack = [(0, 0, (), 0, 0, max(marks))]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        last, run, closed, tail, s, low = state
        if s >= need:
            if s - low < need:
                p = _runs_partition(t, closed + (run,) if run else closed, tail)
                if p not in out:
                    out[p] = NilpotentOrbit(t, p)
            continue
        if s + reach[last] < need:
            continue
        # a node not adjacent to the run closes it and starts its own
        restart = (1, tuple(sorted(closed + (run,))) if run else closed, 0)
        children = []
        for k in range(last + 1, n + 1):
            if fam == "D" and k == n and last == n - 1:
                k_run, k_closed, k_tail = 0, closed, run + 1  # both fork nodes: the so(2c) tail
            elif last == (k - 2 if fam == "D" and k == n else k - 1):
                k_run, k_closed, k_tail = run + 1, closed, 0  # k joins the run of its lower neighbour
            else:
                k_run, k_closed, k_tail = restart
            if k == n and fam in ("B", "C"):
                k_run, k_tail = 0, k_run
            m = marks[k]
            children.append((k, k_run, k_closed, k_tail, s + m, m if m < low else low))
        stack.extend(reversed(children))
    return list(out.values())


@lru_cache(maxsize=None)
def _e7_primed_invariants() -> dict[str, tuple]:
    """Orthogonal-complement invariants of the primed Levi classes of E7
    (shapes 3A1, A3+A1, A5); the double-primed class of a shape has another.
    The primed class is the one conjugate into the standard E6 parabolic
    (nodes 1..6)."""
    t = LieType("E7", 7)
    refs = {"3A1": frozenset({2, 3, 5}), "A3+A1": frozenset({1, 3, 4, 6}), "A5": frozenset({1, 3, 4, 5, 6})}
    return {shape: _perp_invariant(t, J) for shape, J in refs.items()}


def _perp_invariant(t: LieType, J: frozenset[int]) -> tuple:
    """(rank, size) of the sub-root-system orthogonal to the span of J."""
    from .linalg import sparse_rank

    M = cartan_matrix(t)  # the pairing matrix for a simply-laced type
    r = t.rank

    def pair_with_simple(g, j):
        return sum(g[i] * M[i][j] for i in range(r))

    perp = [
        g
        for g in positive_roots(t)
        if all(pair_with_simple(g, j - 1) == 0 for j in sorted(J))
    ]
    rows = [{i: x for i, x in enumerate(g) if x} for g in perp]
    return (sparse_rank(rows), len(perp))


def _exceptional_label(t: LieType, J: frozenset[int]) -> str:
    """Bala-Carter label of the regular orbit of the Levi on J: its factor
    types by falling rank, A-type factors after the others of their rank and
    long-root ones before short-root (~) ones, equal factors counted, and the
    E7 prime of 3A1, A3+A1 and A5."""
    factors = sorted(levi_factor_types(t, J), key=lambda f: (-int(f[-1]), f.lstrip("~")[0] == "A", f))
    if not factors:
        return "0"
    label = "+".join(f"{k}{f}" if k > 1 else f for f, k in Counter(factors).items())
    if t.family == "E7" and label in _e7_primed_invariants():
        prime = "'" if _perp_invariant(t, J) == _e7_primed_invariants()[label] else "''"
        label = f"({label}){prime}"
    return label


@lru_cache(maxsize=None)
def levi_labels(t: LieType) -> frozenset[str]:
    """The Bala-Carter labels of the Levi subalgebras of an exceptional type:
    `_exceptional_label` of every subset of the finite diagram (17, 32 and 41
    labels in E6, E7 and E8)."""
    nodes = affine_marks(t).finite_nodes
    return frozenset(
        _exceptional_label(t, frozenset(J)) for k in range(len(nodes) + 1) for J in combinations(nodes, k)
    )


# The distinguished orbits of each D and E factor other than its regular one,
# by the suffix of their Bala-Carter label (Bala-Carter 1976).
DISTINGUISHED = {
    "D4": ("a1",), "D5": ("a1",), "D6": ("a1", "a2"), "D7": ("a1", "a2"), "E6": ("a1", "a3"),
    "E7": ("a1", "a2", "a3", "a4", "a5"), "E8": ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "b4", "b5", "b6"),
}


@lru_cache(maxsize=None)
def orbit_labels(t: LieType) -> frozenset[str]:
    """The Bala-Carter labels of the nilpotent orbits of E6-E8: each Levi
    label with each of its D and E factors regular or suffixed by one of its
    `DISTINGUISHED` orbits (21, 45 and 70 labels)."""
    out = set()
    for label in levi_labels(t):
        pieces = re.split(r"([DE][4-8])", label)  # the factors at the odd places
        choices = [[p, *(f"{p}({k})" for k in DISTINGUISHED[p])] if i % 2 else [p] for i, p in enumerate(pieces)]
        out.update(map("".join, product(*choices)))
    return frozenset(out)


def orbit_J_reg(t: LieType, J: frozenset[int] | set[int]) -> NilpotentOrbit:
    """Nilpotent orbit of a regular nilpotent element of the Levi with simple
    roots J (J inside the finite diagram)."""
    J = frozenset(J)
    if t.is_exceptional:
        return NilpotentOrbit(t, label=_exceptional_label(t, J))
    p = _classical_levi_partition(t, J)
    if t.family != "A":
        assert is_valid(p, parity_class(t)), (t, J, p)
    return NilpotentOrbit(t, p)


def coxeter_candidates(t: LieType, d: int) -> list[NilpotentOrbit]:
    """Orbits attached to the minimal d-allowable subsets of the finite
    diagram, duplicates removed, in the order of sorted(J): by the chain-shape
    walk in A-D, by the subset scan in G2, F4 and E6-E8."""
    if not t.is_exceptional:
        return _chain_shape_candidates(t, d)
    seen = []
    for J in sorted(minimal_allowable_in_finite(t, d), key=sorted):
        o = orbit_J_reg(t, J)
        if o not in seen:
            seen.append(o)
    return seen


def coxeter_solve(t: LieType, d: int) -> NilpotentOrbit:
    """Threshold orbit for slope d/h via the d-allowable route.

    Exceptional types without embedded closure data (E6/E7/E8) fall back to
    the embedded Coxeter table after checking the candidate set is sane.
    """
    h = coxeter_number(t)
    if d < 1:
        raise UnsupportedSlopeError(f"d={d} is not positive")
    if gcd(d, h) != 1:
        raise UnsupportedSlopeError(f"d={d} is not coprime to the Coxeter number {h}")
    if any(gcd(d, n) != 1 for n in affine_marks(t).marks):
        raise UnsupportedSlopeError(f"d={d} shares a factor with a mark; stabilizers may be non-parabolic")
    cands = coxeter_candidates(t, d)
    if d >= h:
        assert cands == [zero_orbit(t)]
        return cands[0]
    if t.family in ("E6", "E7", "E8"):
        key = (t.family, d)
        if key not in xd.EXC_COXETER:
            raise UnsupportedSlopeError(f"no embedded Coxeter data for {key}")
        label = xd.EXC_COXETER[key][0]
        if label not in [c.label for c in cands]:
            raise AssertionError(f"table orbit {label} missing from candidates for {key}")
        return NilpotentOrbit(t, label=label)
    # One pass moves to each candidate below the current one, so it ends on
    # the least candidate if there is one; a second pass checks that there is
    # (the candidates can number thousands at rank 30, too many for pairs).
    least = cands[0]
    for o in cands[1:]:
        if closure_le(o, least):
            least = o
    if not all(closure_le(least, o) for o in cands):
        raise AssertionError(f"no unique closure-minimal candidate for {t}, d={d}: {cands}")
    return least
