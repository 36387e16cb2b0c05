"""Top-level decision procedures: threshold orbits from the complete tables,
the existence verdict for a slope and an adjoint orbit, and the refined
verdict for a fixed characteristic polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .orbits import (
    AdjointOrbit,
    HasseDiagram,
    NilpotentOrbit,
    closure_le_detail,
    ls_induction,
    parity_class,
    zero_orbit,
)
from .partitions import (
    Partition,
    dominance_le,
    is_valid,
    is_very_even,
    lambda_evenly,
    least_clearing,
    prefix_sums,
    union_parts,
)
from .root_data import (
    FrozenRecord,
    LieType,
    Record,
    Slope,
    UnsupportedComparisonError,
    UnsupportedSlopeError,
    coxeter_number,
    defining_dim,
    is_regular,
)


class DSAnswer(Record):
    """Verdict record for one existence query."""

    __slots__ = ("affirmative", "o_nu", "o_nil", "delta", "rigid", "path", "notes")

    def __init__(
        self,
        affirmative: bool | str,  # True / False / "unknown-needs-hasse"
        o_nu: NilpotentOrbit,
        o_nil: NilpotentOrbit | None,
        delta: Fraction | None,
        rigid: bool | str,  # True / False / "n/a"
        path: str,
        notes: tuple[str, ...] = (),
    ):
        self._store((affirmative, o_nu, o_nil, delta, rigid, path, notes))

    def to_json(self) -> dict:
        out = {
            "affirmative": self.affirmative,
            "o_nu": self.o_nu.to_json(),
            "delta": str(self.delta) if self.delta is not None else None,
            "rigid": self.rigid,
            "path": self.path,
        }
        if self.o_nil is not None:
            out["o_nil"] = self.o_nil.to_json()
        if self.notes:
            out["notes"] = list(self.notes)
        return out


# ---------------------------------------------------------------------------
# Threshold orbits
# ---------------------------------------------------------------------------


class _Row(FrozenRecord):
    # parts_bound: the superscript count e used by the row (0 when n/a); ones: the parts 1 it adds
    __slots__ = ("row_id", "orbit", "parts_bound", "ones")


# Block counts c = a*n + b and row ids of the classical rows.  Where m divides c,
# e = c*d/m and ones = defining_dim - c, the row is, by its ids in order: in B and D
# with e odd, E(c+1, e) + 1^(ones-1) (none if ones = 0); in B and D with d = 1 and
# m even, the edge partition + 1^ones; else E(c, e) + 1^ones (A and C: this id only).
_BLOCK_COUNTS = {
    "A": ((1, 1, ("A1",)), (1, 0, ("A2",))),
    "B": ((2, 0, ("B1", "B3", "B2")),),
    "C": ((2, 0, ("C1",)),),
    "D": ((2, 0, (None, "D2", "D1")), (2, -2, ("D3", "D5", "D4"))),
}


def _edge_case_partition(m: int, ell: int) -> Partition:
    """(m+1, m, ..., m, m-1) with ell-2 middle copies."""
    return (m + 1,) + (m,) * (ell - 2) + (m - 1,)


def o_nu_rows(t: LieType, s: Slope) -> list[_Row]:
    """All applicable threshold-table rows for (t, s), the classical ones by
    the rule of _BLOCK_COUNTS."""
    d, m = s.d, s.m
    if not is_regular(t, m):
        raise UnsupportedSlopeError(f"{m} is not a regular number for {t}")
    if d >= m:
        return [_Row("nu_ge_1", zero_orbit(t), 0, 0)]
    fam, n = t.family, t.rank
    rows: list[_Row] = []
    if fam in _BLOCK_COUNTS:
        orth = fam in ("B", "D")
        for a, b, ids in _BLOCK_COUNTS[fam]:
            c = a * n + b
            if c % m:
                continue
            e, ones = c * d // m, defining_dim(t) - c
            if orth and e % 2:
                if not ones:
                    continue
                row_id, spread, ones = ids[0], lambda_evenly(c + 1, e), ones - 1
            elif orth and d == 1 and m % 2 == 0:
                row_id, spread = ids[1], _edge_case_partition(m, c // m)
            else:
                row_id, spread = ids[-1], lambda_evenly(c, e)
            rows.append(_Row(row_id, NilpotentOrbit(t, spread + (1,) * ones), e, ones))
    else:
        from . import exceptional_data as xd

        h = coxeter_number(t)
        if m == h:
            key = (fam, d)
            if key in xd.EXC_COXETER:
                rows.append(_Row("t_excCox", NilpotentOrbit(t, label=xd.EXC_COXETER[key][0]), 0, 0))
        elif fam == "F4" and s.nu in xd.F4_SMALL:
            rows.append(_Row("DSsolnF4", NilpotentOrbit(t, label=xd.F4_SMALL[s.nu][0]), 0, 0))
        if not rows:
            raise UnsupportedSlopeError(
                f"no embedded table covers {t} at slope {s} (exceptional non-Coxeter data"
                f" exists only for F4 at 5/6, 5/8, 7/8)"
            )
    assert rows, (t, s)
    for row in rows:
        o = row.orbit
        if o.partition is not None and t.family == "D":
            assert not is_very_even(o.partition), (t, s, o)
    return rows


def o_nu(t: LieType, s: Slope) -> NilpotentOrbit:
    """Threshold orbit: existence holds iff this orbit lies below the induced
    nilpotent orbit of the input."""
    return o_nu_rows(t, s)[0].orbit


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def ds_solve(
    t: LieType,
    s: Slope,
    orbit: NilpotentOrbit | AdjointOrbit,
    hasse: HasseDiagram | None = None,
) -> DSAnswer:
    """Existence of a connection with regular residue in the given orbit and
    isoclinic slope s: affirmative iff the threshold orbit lies below the
    orbit's induced nilpotent orbit."""
    row = o_nu_rows(t, s)[0]
    threshold, path = row.orbit, "corollary:nu_ge_1"
    if row.row_id != "nu_ge_1":  # the classical rows are those of t_completecl
        path = f"table:{row.row_id}" if t.is_exceptional else f"table:t_completecl:{row.row_id}"
    if orbit.type != t:
        raise ValueError("orbit type mismatch")
    o_nil = ls_induction(orbit) if isinstance(orbit, AdjointOrbit) else orbit
    try:
        verdict, ambiguous = closure_le_detail(threshold, o_nil, hasse)
    except UnsupportedComparisonError:
        return DSAnswer("unknown-needs-hasse", threshold, o_nil, None, "n/a", path)
    notes = ("very-even comparison decided by dominance only",) if ambiguous else ()
    # Delta and rigidity are reported for affirmative verdicts only; rigid is
    # "n/a" when Delta is undefined or only an undecidable resonance decides it
    delta, rigid = None, "n/a"
    if verdict is True:
        from .rigidity import rigidity_verdict

        try:
            rep = rigidity_verdict(t, s, orbit, o_nil)
        except (ValueError, KeyError):
            pass
        else:
            delta, rigid = rep.delta, ("n/a" if rep.rigid is None else rep.rigid)
    return DSAnswer(verdict, threshold, o_nil, delta, rigid, path, notes)


# ---------------------------------------------------------------------------
# Fixed characteristic polynomial: candidate lists
# ---------------------------------------------------------------------------


class QCandidate(FrozenRecord):
    """One candidate orbit for a fixed eigenvalue structure: partitions for
    the linear factors (by multiplicity slot) plus the zero-sector partition."""

    __slots__ = ("linear", "tail")


# a candidate before it becomes a QCandidate: (linear, tail)
Candidate = tuple[tuple[Partition, ...], Partition]


class QCandidates(list):
    """The candidates of q_candidates, a plain list to every reader, that
    also carries the threshold orbit it read, so ds_solve_q reads the
    threshold table once."""

    __slots__ = ("threshold",)

    def __init__(self, cands, threshold: NilpotentOrbit):
        super().__init__(cands)
        self.threshold = threshold


def _anchor_bounds(
    c: int, p_o: list[int], linear: tuple[Partition, ...], tail: Partition
) -> tuple[list[list[int]], list[int]]:
    """The works test around one anchor, as bounds on prefix sums to the
    width of p_o (the threshold's length; see q_candidates): for each slot j,
    the bound that the prefix sums of a replacement for linear[j] must clear;
    and the bound for a replacement of the tail.  c is the weight of a linear
    factor in the sum (1 in type A, 2 otherwise)."""
    width = len(p_o)
    p_lin = [prefix_sums(p, width) for p in linear]
    p_tail = prefix_sums(tail, width)
    lin_sum = [sum(col) for col in zip(*p_lin)] if p_lin else [0] * width
    tail_bound = [o - c * ls for o, ls in zip(p_o, lin_sum)]
    # c * P_mu >= P_o - P_tail - c * (sum of the other factors), rounded up:
    # the bound common to every slot, plus the slot's own prefix sums
    common = [-((pt - tb) // c) for pt, tb in zip(p_tail, tail_bound)]
    return [list(map(add, common, pl)) for pl in p_lin], tail_bound


def q_candidates(t: LieType, s: Slope, mults: tuple[int, ...], zero_mult: int) -> QCandidates:
    """Minimal orbits with the given eigenvalue multiplicities for which the
    verdict is affirmative: base factors are the evenly-distributed thresholds
    of the matching table row; one factor at a time is allowed to deviate and
    its dominance-minimal working choices are kept.

    The multiplicities must be positive and the zero multiplicity
    nonnegative, and together they must fill the defining representation:
    sum(mults) + zero_mult is rank + 1 in type A and rank otherwise.

    A candidate works when the threshold is dominated by the sum of its
    factors (each doubled outside type A, where it stands for a pair +-a) and
    its tail.  Componentwise sums of weakly decreasing sequences stay weakly
    decreasing, so prefix sums add and the test is a set of linear bounds:
    with c = 1 in type A and 2 otherwise and prefix sums P taken to width
    L = len(threshold), a choice mu for slot j works iff
    c * P_mu >= P_threshold - P_tail - c * sum_{i != j} P_i pointwise, and a
    tail works iff P_tail >= P_threshold - c * sum_i P_i (_anchor_bounds).

    Width L suffices: with N = sum(threshold), P_threshold(k) = N for every
    k >= L, and the componentwise sum is a partition of N, so its prefix
    sums never decrease and never pass N; once P_sum(L) >= N, every later
    entry equals N.  The same entry forces each slot and the tail to have at
    most L parts, so the bound at position L already refuses every choice
    with more parts, as the entries past L did.

    The choices that clear a bound are closed under the dominance meet, the
    pointwise minimum of prefix sums, so a slot has at most one minimal
    working choice: partitions.least_clearing computes it in closed form,
    without listing the partitions of the slot size.  The tails must also lie
    in a parity class, which the meet does not respect, but the least
    clearing tail lam = least_clearing(T, bound) of the tail size
    T = 2 * zero_mult + eps is always valid, so it is the one minimal tail.
    The last entry of a tail bound is N - 2 * sum_i P_i(L), at least
    N - 2 * sum(mults) = T, so a tail that clears has at most L parts and
    lam is the least of them; every valid tail that clears dominates lam,
    and with no lam none clears.

    Proof that lam is valid.  Write E(T, e) = ((q+1)^r, q^(e-r)) for the even
    spread, T = q*e + r (lambda_evenly), tau + (1^j) for tau with j parts 1
    added, and S for twice the componentwise sum of the linear factors, a
    partition of N - T; a tail tau clears iff P_tau + P_S >= P_threshold.
    The bound depends only on the factors, not on the anchor's tail.
    - Parity.  E(T, e) is valid when e and T are even (r and e - r are
      even), and when e is odd and T is odd in B and D, even in C: the part
      whose parity must pair up then has an even multiplicity.  Parts 1
      need no partner in B and D, the only classes with j > 0 below.
    - Least elements.  E(T, e) is the least partition of T with at most e
      parts, and E(T-j, e) + (1^j) the least with at most e + j parts and
      P(e) >= T - j.  A partition of at least m*l with at most l parts has
      P(k) >= k*m + 1 for 0 < k < l unless it is m^l (above m*l, as E's
      do; at m*l, a concave sequence above the line k*m that touches it
      inside (0, l) is the line), and these are the prefix sums of
      (m+1, m^(l-2), m-1).
    - nu >= 1: the threshold is (1^N) and the factors are (1^M), so (1^T),
      the least partition of T, clears, and lam = (1^T) is valid.
    - T = 0 (C, D): the only tail is (), which is valid.  Otherwise for
      nu < 1 the factors are E(M, e) but for one slot of a placed anchor,
      and each row has the threshold X + (1^j), X = E(N-j, e) in B1, C1, D1
      (j = 0), B2, D3 (j = 1) and D4 (j = 2), and X = (m+1, m^(l-2), m-1)
      with d = 1, m even and l = e even in D2 (j = 0), B3 (1) and D5 (2).
    - Factors with at most e parts: the bound is T - j at e and T - j + i
      at e + i, so a tail clears iff it has at most e + j parts,
      P(e) >= T - j (each further part is at least 1) and its first e parts
      tau' meet the bound below e.  With X = E(N-j, e), tau' + S has at
      least N - j in at most e parts, so its prefix sums are at least X's
      (those of E(n, e) grow with n): lam = E(T-j, e) + (1^j), with e odd
      in B1, T even in C1, e even in B2, D1 and D4, and e and T - j odd in
      D3.  With X the edge partition, the bound below e refuses only
      tau' + S = m^l, and m^l - S, which weakly increases, is a partition
      only when S is flat, (2a)^l.  The refused tau' is then q^l with
      q = m - 2a even and T - j = q*l.  For q >= 2 the bound is the prefix
      sums of lam = (q+1, q^(l-2), q-1) + (1^j), valid as l - 2 is even.
      Otherwise (S not flat, or q = 0, where no tail of T >= 1 has
      tau' = ()) lam = E(T-j, e) + (1^j) as above, with l and T - j even.
    - A placed factor E(M-1, e) + (1) with e + 1 parts lowers P_S(e) to
      N - T - 2, and the bound at e to T - j + 2.  For j <= 1 that is above
      T and nothing clears.  For j = 2 a tail has at most e parts, and the
      first e parts of S, a partition of N - 2 - T, give the bound below e
      of the j = 0 row with threshold X: lam is E(T, e) in D4 (e and T
      even) and in D5 the answer of D2 above.  A placed factor with at most
      e parts is (1^M), covered above.

    The result is a QCandidates list, which also carries the threshold orbit
    that the route read."""
    fam = t.family
    if t.is_exceptional:
        raise ValueError("fixed-characteristic-polynomial route is classical only")
    if any(M < 1 for M in mults):
        raise ValueError(f"multiplicities must be positive, got {list(mults)}")
    if zero_mult < 0:
        raise ValueError(f"zero multiplicity must be >= 0, got {zero_mult}")
    cap = t.rank + 1 if fam == "A" else t.rank
    if sum(mults) + zero_mult != cap:
        raise ValueError(
            f"multiplicities {list(mults)} and zero multiplicity {zero_mult} sum to"
            f" {sum(mults) + zero_mult}, expected {cap} for {t}"
        )
    row = o_nu_rows(t, s)[0]
    o_part = row.orbit.partition
    # e = 0 exactly on the row nu_ge_1, whose threshold is (1^N)
    e = row.parts_bound
    # in type A the zero eigenvalue behaves like any other linear factor
    slots = list(mults) + ([zero_mult] if fam == "A" and zero_mult else [])
    tail_total = 0 if fam == "A" else 2 * zero_mult + (fam == "B")
    base = [lambda_evenly(M, e) if e else (1,) * M for M in slots]
    if not e:
        base_tail: Partition = (1,) * tail_total
    elif row.ones == 1 and tail_total:  # B2, B3, and D3 with a zero eigenvalue
        base_tail = union_parts(lambda_evenly(tail_total - 1, e), (1,))
    else:  # ones 0 or 2, or no zero sector to split (type A, D3 without a zero eigenvalue)
        base_tail = lambda_evenly(tail_total, e)

    # Search anchors.  A minimal candidate deviates from one of these in at
    # most one position: the all-base tuple; the tuple with two ones appended
    # to the zero sector (the alternate tail of the rows that split the zero
    # multiplicities); and for each factor the tuple with a one placed there.
    # Only an anchor's least clearing replacements, one slot or the tail at a
    # time, are added; each works, so extra anchors are harmless.  An anchor
    # that works clears its own bounds, so each replacement lies at or below
    # it, and the first is the anchor itself, in its place, or prunes it.
    # A slot's bound never reads that slot, and the tail bound never reads
    # the tail, so a placed anchor's replacement of its placed slot, and the
    # alternate anchor's replacement of its tail, repeat the base anchor's:
    # each anchor maps to the position it skips (len(slots) for the tail).
    anchors = {(tuple(base), base_tail): None}
    if e:
        if row.ones == 2 and tail_total >= 2:
            alt = union_parts(lambda_evenly(tail_total - 2, e), (1, 1))
            anchors.setdefault((tuple(base), alt), len(slots))
        for k, M in enumerate(slots):
            placed = list(base)
            placed[k] = union_parts(lambda_evenly(M - 1, e), (1,))
            anchors.setdefault((tuple(placed), base_tail), k)

    width = len(o_part)
    c = 1 if fam == "A" else 2
    p_o = prefix_sums(o_part, width)

    found: dict[Candidate, None] = {}  # distinct candidates, in the order found
    for (anchor_lin, anchor_tail), skip in anchors.items():
        slot_bounds, tail_bound = _anchor_bounds(c, p_o, anchor_lin, anchor_tail)
        for j, bound in enumerate(slot_bounds):
            if j == skip:
                continue
            mu = least_clearing(slots[j], bound)
            if mu is not None:
                found[(*anchor_lin[:j], mu, *anchor_lin[j + 1:]), anchor_tail] = None
        if fam != "A" and skip != len(slots):
            tl = least_clearing(tail_total, tail_bound)
            if tl is not None:
                assert is_valid(tl, parity_class(t)), (t, s, mults, zero_mult, tl)
                found[anchor_lin, tl] = None
    kept = _prune_candidates(list(found), _mult_groups(slots)) if len(found) > 1 else found
    return QCandidates([QCandidate(lin, tail) for lin, tail in kept], row.orbit)


def _cand_le(c1: Candidate, c2: Candidate, mult_groups) -> bool:
    """Componentwise closure comparison of (linear, tail) pairs, permuting
    factors with equal multiplicities."""
    (lin1, tail1), (lin2, tail2) = c1, c2
    if not dominance_le(tail1, tail2):
        return False
    for idxs in mult_groups:
        left = [lin1[i] for i in idxs]
        right = [lin2[i] for i in idxs]
        if not _matchable(left, right):
            return False
    return True


def _matchable(left: list[Partition], right: list[Partition]) -> bool:
    """Is there a bijection with left[i] <= right[sigma(i)] in dominance?
    Augmenting-path bipartite matching."""
    n = len(left)
    if n <= 1:
        return all(dominance_le(a, b) for a, b in zip(left, right))
    ok = [[dominance_le(left[i], right[j]) for j in range(n)] for i in range(n)]
    match_of: list[int | None] = [None] * n

    def augment(i: int, seen: list[bool]) -> bool:
        for j in range(n):
            if ok[i][j] and not seen[j]:
                seen[j] = True
                if match_of[j] is None or augment(match_of[j], seen):
                    match_of[j] = i
                    return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


def _prune_candidates(cands: list[Candidate], groups) -> list[Candidate]:
    """The candidates (distinct, as q_candidates keeps them) that no other
    candidate lies strictly below, factors in one of the groups of equal
    multiplicity compared up to permutation."""
    return [
        c for c in cands
        if not any(o is not c and _cand_le(o, c, groups) and not _cand_le(c, o, groups) for o in cands)
    ]


def _mult_groups(mults):
    groups: dict[int, list[int]] = {}
    for i, m in enumerate(mults):
        groups.setdefault(m, []).append(i)
    return list(groups.values())


def ds_solve_q(t: LieType, s: Slope, a: AdjointOrbit) -> DSAnswer:
    """Verdict from the explicit candidate orbits for the eigenvalue structure
    of `a`: affirmative iff some candidate is componentwise below the input.
    Independent of the induction route used by ds_solve."""
    if a.type != t:
        raise ValueError("orbit type mismatch")
    z = a.zero_block
    linear = tuple(b.partition for b in a.blocks)
    # in type A the zero block is one more slot, as in q_candidates; outside
    # A it is the tail, and the B tail's extra 1 falls out of the floor division
    inp = (linear + ((z,) if z else ()), ()) if t.family == "A" else (linear, z)
    cands = q_candidates(t, s, tuple(b.mult for b in a.blocks), sum(z) if t.family == "A" else sum(z) // 2)
    groups = _mult_groups([sum(p) for p in inp[0]])
    verdict = any(_cand_le((c.linear, c.tail), inp, groups) for c in cands)
    return DSAnswer(
        verdict,
        cands.threshold,
        None,
        None,
        "n/a",
        "table:t_clq",
        tuple(f"candidate:{c.linear}+{c.tail}" for c in cands),
    )
