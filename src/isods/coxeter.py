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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import exceptional_data as xd
from .orbits import NilpotentOrbit, closure_le, parity_class, zero_orbit
from .partitions import Partition, is_valid, partition
from .root_data import (
    LieType,
    affine_marks,
    cartan_matrix,
    components,
    coxeter_number,
    defining_dim,
    positive_roots,
    simply_laced_component_type,
)


class UnsupportedSlopeError(Exception):
    """The requested (type, slope) has no supported solution path."""


@dataclass(frozen=True)
class AllowableSubset:
    """Proper subset J of the affine diagram whose complement admits positive
    integer weights summing (against the marks) to d."""

    J: frozenset[int]
    witness: dict[int, int]
    is_minimal: bool


def _witness(marks: list[tuple[int, int]], d: int) -> dict[int, int] | None:
    """Positive integers k_a with sum k_a * n_a = d over the given (node, mark)
    list, or None.  Small coin-problem search."""
    nodes = sorted(marks, key=lambda nm: -nm[1])
    if sum(n for _, n in nodes) > d:
        return None
    out: dict[int, int] = {}

    def go(i: int, rem: int) -> bool:
        if i == len(nodes):
            return rem == 0
        node, n = nodes[i]
        tail = sum(m for _, m in nodes[i + 1 :])
        k = 1
        while n * k + tail <= rem:
            out[node] = k
            if go(i + 1, rem - n * k):
                return True
            k += 1
        out.pop(node, None)
        return False

    return dict(out) if go(0, d) else None


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
    fam, n = t.family, t.rank
    comps = components(t, J)
    if fam in ("B", "C"):
        tail_comps = [c for c in comps if n in c]
    elif fam == "D" and {n - 1, n} <= J:
        # D: both fork nodes together span an so(2*c0) tail even when the
        # connecting node n-2 is absent (alpha_{n-1} and alpha_n are then
        # orthogonal but act on the same four coordinates).
        tail_comps = [c for c in comps if c & {n - 1, n}]
    else:
        tail_comps = []
    runs = [len(c) for c in comps if c not in tail_comps]
    return _runs_partition(t, runs, sum(len(c) for c in tail_comps))


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
    stack = [(0, 0, (), 0, 0, max(marks.values()))]
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


def _f4_component_label(comp: frozenset[int]) -> str:
    from .root_data import _F4_MIXED

    longs = comp & {1, 2}
    shorts = comp & {3, 4}
    if longs and shorts:
        return _F4_MIXED[comp]
    if shorts:
        return f"~A{len(comp)}"
    return f"A{len(comp)}"


def _g2_component_label(comp: frozenset[int]) -> str:
    if comp == frozenset({1, 2}):
        return "G2"
    return "~A1" if comp == frozenset({2}) else "A1"


@lru_cache(maxsize=None)
def _e7_prime_reference() -> dict[str, dict[tuple, str]]:
    """Orthogonal-complement invariants separating the primed/double-primed
    Levi classes of E7 (shapes 3A1, A3+A1, A5).  The primed class is the one
    conjugate into the standard E6 parabolic (nodes 1..6)."""
    from .root_data import lie_type

    t = lie_type("E7")
    refs = {"3A1": frozenset({2, 3, 5}), "A3+A1": frozenset({1, 3, 4, 6}), "A5": frozenset({1, 3, 4, 5, 6})}
    out: dict[str, dict[tuple, str]] = {}
    for shape, J in refs.items():
        inv = _perp_invariant(t, J)
        out[shape] = {inv: "'"}
    return out


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
    rows = [{i: Fraction(x) for i, x in enumerate(g) if x} for g in perp]
    return (sparse_rank(rows), len(perp))


def _e7_prime_suffix(t: LieType, J: frozenset[int], shape: str) -> str:
    refs = _e7_prime_reference()
    if shape not in refs:
        return ""
    inv = _perp_invariant(t, J)
    return "'" if refs[shape].get(inv) == "'" else "''"


def _exceptional_label(t: LieType, J: frozenset[int]) -> str:
    fam = t.family
    comps = components(t, J)
    if not comps:
        return "0"
    if fam == "G2":
        pieces = [(_g2_component_label(c), c) for c in comps]
    elif fam == "F4":
        pieces = [(_f4_component_label(c), c) for c in comps]
    else:
        pieces = []
        for c in comps:
            cf, cr = simply_laced_component_type(t, c)
            pieces.append((f"{cf}{cr}", c))

    def sort_key(item):
        name = item[0]
        tilde = name.startswith("~")
        body = name.lstrip("~")
        fam_order = {"F": 0, "G": 0, "E": 0, "D": 1, "B": 1, "C": 1, "A": 2}[body[0]]
        rank = int(body[1:]) if body[1:].isdigit() else 9
        return (-rank, fam_order, tilde, name)

    pieces.sort(key=sort_key)
    names = [p[0] for p in pieces]
    grouped: list[str] = []
    i = 0
    while i < len(names):
        j = i
        while j < len(names) and names[j] == names[i]:
            j += 1
        count = j - i
        grouped.append(f"{count}{names[i]}" if count > 1 else names[i])
        i = j
    label = "+".join(grouped)
    if fam == "E7" and label in ("3A1", "A3+A1", "A5"):
        suffix = _e7_prime_suffix(t, J, label)
        label = f"({label}){suffix}" if suffix else label
    return label


def orbit_J_reg(t: LieType, J: frozenset[int] | set[int]) -> NilpotentOrbit:
    """Nilpotent orbit of a regular nilpotent element of the Levi with simple
    roots J (J inside the finite diagram)."""
    J = frozenset(J)
    bad = J - set(affine_marks(t).finite_nodes)
    if bad:
        raise ValueError(f"nodes {sorted(bad)} are not finite diagram nodes of {t}")
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
    marks = affine_marks(t).marks
    bad = [a for a, n in marks.items() if gcd(d, n) != 1]
    if bad:
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
