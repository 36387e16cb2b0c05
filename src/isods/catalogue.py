"""Bala-Carter labels of the exceptional types G2, F4 and E6-E8 (Bala-Carter
1976), derived from the Cartan matrix: the short simple roots, the factor
types of each Levi subalgebra, the label of its regular orbit (one table
per type, by subset of the finite diagram, which the Coxeter route reads),
and the catalogue of every orbit label, which the command line checks a
label against.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import product
from sys import intern

from .root_data import LieType, adjacency, affine_marks, cartan_matrix, components, positive_roots


@lru_cache(maxsize=None)
def short_nodes(t: LieType) -> frozenset[int]:
    """The simple roots shorter than the longest.  Along an edge i-j the
    squared lengths have the ratio (a_j, a_j)/(a_i, a_i) = A[i][j]/A[j][i];
    node 1 gets 6, so every squared length is an integer."""
    A, adj, length = cartan_matrix(t), adjacency(t), {1: 6}
    stack = [1]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if j not in length:
                length[j] = length[i] * A[i - 1][j - 1] // A[j - 1][i - 1]
                stack.append(j)
    longest = max(length.values())
    return frozenset(j for j, sq in length.items() if sq < longest)


def levi_factor_types(t: LieType, J) -> tuple[str, ...]:
    """Irreducible factor types of the sub-diagram on J of an exceptional
    diagram.  A factor that mixes root lengths is the whole G2 or F4, or else
    B_k with one short node and C_k with more; any other factor is simply
    laced, with '~' when all its nodes are short."""
    shorts = short_nodes(t)
    out = []
    for comp in components(t, J):
        short = comp & shorts
        if short and comp - shorts:
            out.append(t.family if len(comp) == t.rank else f"{'B' if len(short) == 1 else 'C'}{len(comp)}")
        else:
            fam, rank = simply_laced_component_type(t, comp)
            out.append(f"{'~' if short else ''}{fam}{rank}")
    return tuple(sorted(out))


def simply_laced_component_type(t: LieType, comp: frozenset[int]) -> tuple[str, int]:
    """Cartan type (family, rank) of a connected simply-laced sub-diagram of
    an exceptional diagram: A with no branch node, else D or E as its second
    shortest arm (a component of the rest once the branch node is removed)
    has one node or two."""
    adj = adjacency(t)
    branch = [x for x in comp if len(adj[x] & comp) == 3]
    if not branch:
        return ("A", len(comp))
    arms = sorted(map(len, components(t, comp - {branch[0]})))
    return ("D" if arms[1] == 1 else "E", len(comp))


@lru_cache(maxsize=None)
def _e7_primed_invariants() -> dict[str, int]:
    """Orthogonal-complement invariants of the primed Levi classes of E7:
    4, 2 and 1 positive roots for 3A1, A3+A1 and A5, against 12, 6 and 3 in
    the double-primed class.  The primed class is the one conjugate into the
    standard E6 parabolic (nodes 1..6)."""
    t = LieType("E7", 7)
    refs = {"3A1": frozenset({2, 3, 5}), "A3+A1": frozenset({1, 3, 4, 6}), "A5": frozenset({1, 3, 4, 5, 6})}
    return {shape: _perp_invariant(t, J) for shape, J in refs.items()}


@lru_cache(maxsize=None)
def _zero_pairings(t: LieType) -> tuple[frozenset[int], ...]:
    """For each positive root, the simple roots it is orthogonal to (the
    Cartan matrix is the pairing matrix of a simply-laced type)."""
    columns = tuple(zip(*cartan_matrix(t)))
    return tuple(
        frozenset(j for j, col in enumerate(columns, 1) if sum(g * c for g, c in zip(root, col)) == 0)
        for root in positive_roots(t)
    )


def _perp_invariant(t: LieType, J: frozenset[int]) -> int:
    """The number of positive roots orthogonal to the span of J."""
    return sum(J <= zero for zero in _zero_pairings(t))


def exceptional_label(t: LieType, J: frozenset[int]) -> str:
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
def label_table(t: LieType) -> tuple[str, ...]:
    """`exceptional_label` of every subset of the finite diagram, indexed by
    its bit mask (node a is bit a - 1): 4, 16, 64, 128 and 256 entries in
    G2, F4, E6, E7 and E8, derived once per type.  Equal labels share one
    interned string."""
    nodes = affine_marks(t).finite_nodes
    return tuple(
        intern(exceptional_label(t, frozenset(a for a in nodes if mask >> (a - 1) & 1)))
        for mask in range(2 ** len(nodes))
    )


@lru_cache(maxsize=None)
def levi_labels(t: LieType) -> frozenset[str]:
    """The Bala-Carter labels of the Levi subalgebras of an exceptional type:
    the values of `label_table` (4, 12, 17, 32 and 41 labels in G2, F4, E6,
    E7 and E8)."""
    return frozenset(label_table(t))


# The distinguished orbits of each factor other than its regular one, by the
# suffix of their Bala-Carter label (Bala-Carter 1976).
DISTINGUISHED = {
    "G2": ("a1",), "C3": ("a1",), "F4": ("a1", "a2", "a3"),
    "D4": ("a1",), "D5": ("a1",), "D6": ("a1", "a2"), "D7": ("a1", "a2"), "E6": ("a1", "a3"),
    "E7": ("a1", "a2", "a3", "a4", "a5"), "E8": ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "b4", "b5", "b6"),
}


@lru_cache(maxsize=None)
def orbit_labels(t: LieType) -> frozenset[str]:
    """The Bala-Carter labels of the nilpotent orbits of an exceptional type:
    each Levi label with each of its `DISTINGUISHED` factors regular or
    suffixed by one of its distinguished orbits (5, 16, 21, 45 and 70
    labels in G2, F4, E6, E7 and E8)."""
    out = set()
    for label in levi_labels(t):
        pieces = re.split(f"({'|'.join(DISTINGUISHED)})", label)  # the factors at the odd places
        choices = [[p, *(f"{p}({k})" for k in DISTINGUISHED[p])] if i % 2 else [p] for i, p in enumerate(pieces)]
        out.update(map("".join, product(*choices)))
    return frozenset(out)
