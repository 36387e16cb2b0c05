"""Nilpotent and adjoint orbits: validity, centralizer dimensions (closed form
and matrix-kernel oracle), Lusztig-Spaltenstein induction, closure order.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import count
from operator import mul

from .partitions import (
    ParityClass,
    Partition,
    collapse,
    dominance_le,
    is_canonical,
    is_valid,
    is_very_even,
    partition,
    sum_parts,
)
from .root_data import FrozenRecord, LieType, UnsupportedComparisonError, defining_dim, sorted_pairs, submodule

_canonical = partition  # NilpotentOrbit's field of that name shadows it in __init__


def parity_class(t: LieType) -> ParityClass:
    if t.family not in ("B", "C", "D"):
        raise ValueError(f"no parity class for {t}")
    return ParityClass[t.family]


class NilpotentOrbit(FrozenRecord):
    """Nilpotent orbit: a partition for classical types (with an optional
    very-even label I/II in type D), or a Bala-Carter label for exceptional
    types."""

    __slots__ = ("type", "partition", "label", "very_even_label")

    def __init__(
        self,
        type: LieType,
        partition: Partition | None = None,
        label: str | None = None,
        very_even_label: str | None = None,
    ):
        self._store((type, partition, label, very_even_label))
        t, p = type, partition
        if t.is_exceptional:
            if label is None or p is not None:
                raise ValueError("exceptional orbits carry a Bala-Carter label")
            return
        if p is None:
            raise ValueError("classical orbits carry a partition")
        if not is_canonical(p) and p != _canonical(p):
            raise ValueError(f"partition not canonical: {p}")
        if sum(p) != defining_dim(t):
            raise ValueError(f"partition of {sum(p)} does not fit {t}")
        if t.family != "A" and not is_valid(p, parity_class(t)):
            raise ValueError(f"{p} violates the {t.family}-parity constraint")
        if very_even_label is not None:
            if t.family != "D" or not is_very_even(p):
                raise ValueError("very-even label only on very even type-D orbits")
            if very_even_label not in ("I", "II"):
                raise ValueError("very-even label must be 'I' or 'II'")

    @property
    def is_very_even(self) -> bool:
        return (
            self.type.family == "D"
            and self.partition is not None
            and is_very_even(self.partition)
        )

    def to_json(self) -> dict:
        if self.type.is_exceptional:
            return {"kind": "nilpotent", "label": self.label}
        out: dict = {"kind": "nilpotent", "partition": list(self.partition)}
        if self.very_even_label:
            out["very_even_label"] = self.very_even_label
        return out


class Block(FrozenRecord):
    """One nonzero eigenvalue class: in types B/C/D the tag stands for the
    pair of eigenvalues +-a."""

    __slots__ = ("tag", "mult", "partition")


class AdjointOrbit(FrozenRecord):
    """Adjoint orbit of a classical type, given by eigenvalue blocks plus the
    zero block (type A: partition of the zero multiplicity; B: of 2*m_s+1;
    C/D: of 2*m_s)."""

    __slots__ = ("type", "blocks", "zero_block")

    def __init__(self, type: LieType, blocks: tuple[Block, ...], zero_block: Partition):
        self._store((type, blocks, zero_block))
        t = type
        if t.is_exceptional:
            raise ValueError("adjoint orbits are modeled for classical types only")
        tags = [b.tag for b in self.blocks]
        if len(set(map(str, tags))) != len(tags):
            raise ValueError("eigenvalue tags must be pairwise distinct")
        for b in self.blocks:
            if b.mult < 1:
                raise ValueError(f"multiplicities must be positive, got {b.mult} for eigenvalue {b.tag}")
            if sum(b.partition) != b.mult or b.partition != partition(b.partition):
                raise ValueError(f"block partition {b.partition} must be of {b.mult}")
        z = self.zero_block
        if z != partition(z):
            raise ValueError("zero block not canonical")
        # the eigenvalue 0 belongs to the zero block; type A may still write
        # it as a block when the zero block is empty
        if any(b.tag == 0 for b in self.blocks) and (t.family != "A" or z):
            raise ValueError("eigenvalue 0 goes in the zero block, not in a block")
        N = defining_dim(t)
        if t.family == "A":
            total = sum(b.mult for b in self.blocks) + sum(z)
        else:
            total = 2 * sum(b.mult for b in self.blocks) + sum(z)
            if t.family == "B":
                if not is_valid(z, ParityClass.B):
                    raise ValueError("type B zero block must be a valid odd B-partition")
            else:
                if not is_valid(z, parity_class(t)):
                    raise ValueError(f"zero block {z} invalid for {t.family}")
        if total != N:
            raise ValueError(f"multiplicities sum to {total}, expected {N}")

    def to_json(self) -> dict:
        return {
            "kind": "adjoint",
            "blocks": [
                {"eig": str(b.tag), "mult": b.mult, "partition": list(b.partition)}
                for b in self.blocks
            ],
            "zero_block": list(self.zero_block),
        }


@lru_cache(maxsize=None)
def zero_orbit(t: LieType) -> NilpotentOrbit:
    """The zero orbit, partition (1^N) or label "0": built and validated once
    per type, like `affine_marks`, and shared, as it is read-only."""
    if t.is_exceptional:
        return NilpotentOrbit(t, label="0")
    return NilpotentOrbit(t, (1,) * defining_dim(t))


# ---------------------------------------------------------------------------
# Centralizer dimensions
# ---------------------------------------------------------------------------


def dim_centralizer(o: NilpotentOrbit) -> int:
    """dim C of a nilpotent orbit: the embedded value in G2-E8; in A-D the
    formulas of Collingwood-McGovern, Nilpotent Orbits, 6.1, from the sum
    sq of the squared column lengths of p and its number of odd parts.

    sq is read from the rows of p in one pass: sq = sum_i (2i+1)·p_i,
    0-indexed (Macdonald, Symmetric Functions and Hall Polynomials, I
    (1.6)).  Column j of the diagram holds the rows a with p_a > j, so
    sum_j (p^T_j)^2 counts the triples (a, b, j) with j < min(p_a, p_b),
    that is sum_{a,b} min(p_a, p_b).  The rows decrease, so min(p_a, p_b)
    = p_max(a,b), and 2i+1 ordered pairs (a, b) have max(a, b) = i."""
    t = o.type
    if t.is_exceptional:
        xd = submodule("exceptional_data")
        key = (t.family, o.label)
        if key not in xd.DIM_C:
            raise ValueError(f"no embedded centralizer dimension for {key}")
        return xd.DIM_C[key]
    p = o.partition
    sq = sum(map(mul, count(1, 2), p))
    odd = sum(1 for x in p if x % 2)
    if t.family == "A":
        return sq - 1
    if t.family == "C":
        return (sq + odd) // 2
    return (sq - odd) // 2


def _jordan_shift_entries(p: Partition) -> tuple[list[tuple[int, int]], int]:
    """Entries (row, col) of the nilpotent shift e with Jordan type p."""
    entries: list[tuple[int, int]] = []
    off = 0
    for k in p:
        for i in range(1, k):
            entries.append((off + i - 1, off + i))
        off += k
    return entries, off


def _form_blocks(p: Partition, symplectic: bool):
    """Pairing data realizing Jordan type p inside so(N) or sp(N).

    Returns (e_entries, form) with form a dict {(i, j): +-1}; the form is
    symmetric in the orthogonal case and antisymmetric in the symplectic one,
    and e is skew-adjoint for it.  Parts of the wrong parity are consumed in
    equal pairs.
    """
    eps = -1 if symplectic else 1
    self_parity = 0 if symplectic else 1  # part size parity admitting a self-dual block
    entries, _ = _jordan_shift_entries(p)
    form: dict[tuple[int, int], int] = {}
    off = 0
    pending: dict[int, int] = {}
    for k in p:
        if k % 2 == self_parity:
            for i in range(k):
                j = k - 1 - i
                form[(off + i, off + j)] = (-1) ** (i + 1)
        elif k in pending:
            o2 = pending.pop(k)
            for i in range(k):
                j = k - 1 - i
                v = (-1) ** (i + 1)
                form[(o2 + i, off + j)] = v
                form[(off + j, o2 + i)] = eps * v
        else:
            pending[k] = off
        off += k
    if pending:
        raise ValueError(f"partition {p} not valid for this form")
    return entries, form


@lru_cache(maxsize=None)
def _shift_piece_rank(a: int, b: int, down: bool, sym: int = 0) -> int:
    """Rank of S -> L·S + S·e on a×b matrices, e the upper shift of size b and
    L the lower shift of size a (down) or minus the upper one.  With sym = ±1
    (a == b) the map is taken on the symmetric or antisymmetric matrices, which
    it preserves, in the coordinates of their upper triangle.  The matrix
    depends only on the four arguments, so each shape is eliminated in full
    once per process."""
    from .linalg import sparse_rank

    d = 1 if down else -1
    rows = []
    for r in range(a):
        for c in range(r + (sym < 0), b) if sym else range(b):
            # E_(r,c) -> d·E_(r+d,c) + E_(r,c+1).  With sym, S = E_(r,c) + sym·E_(c,r)
            # for r < c, and of the image of sym·E_(c,r) only sym·E_(c,c), when
            # c = r + 1, lies in the upper triangle
            row = {r * b + c + 1: 1} if c + 1 < b else {}
            if 0 <= r + d < a and (not sym or r < c):
                row[(r + d) * b + c] = d + sym * (c == r + 1)
            rows.append(row)
    return sparse_rank(rows)


@lru_cache(maxsize=None)
def _block_form_defect(k: int, paired: bool, symplectic: bool) -> str | None:
    """What fails of B^T = eps·B and e^T B + B e = 0 for the form
    `_form_blocks` builds on one self-dual Jordan block of size k, or on a
    pair of them (paired), as a message about a partition {p}; None when
    both hold.  The form of a partition is the direct sum of these pieces,
    and e shifts within each block, so each block shape is checked once per
    process."""
    entries, form = _form_blocks((k, k) if paired else (k,), symplectic)
    # from the nonzero entries of B, with e = sum of E_(r,r+1)
    eps, ups = (-1 if symplectic else 1), {r for r, _ in entries}
    skew: Counter = Counter()
    for (i, j), v in form.items():
        if form.get((j, i)) != eps * v:
            return f"form built for {{p}} is not {'anti' * symplectic}symmetric"
        if i in ups:
            skew[(i + 1, j)] += v
        if j in ups:
            skew[(i, j + 1)] += v
    if any(skew.values()):
        return "shift of type {p} is not skew-adjoint for its form"
    return None


def dim_centralizer_oracle(o: NilpotentOrbit, bound: int = 14) -> int:
    """Centralizer dimension in the matrix Lie algebra, by exact linear
    algebra: dimension of {X in g : [X, e] = 0} for an explicit nilpotent e of
    the given Jordan type.  Independent of the closed-form route.

    ad(e) maps the (i, j) block of X, rows in Jordan block i and columns in
    block j, to itself, so its rank is a sum over block pairs.  The pairs of
    each shape are counted from the multiplicities c_a of the part sizes a,
    not listed; each shape's rank is eliminated once per process
    (`_shift_piece_rank`), and in B/C/D each block shape's form is checked
    once per process (`_block_form_defect`)."""
    t = o.type
    if t.is_exceptional:
        raise ValueError("matrix oracle is for classical types")
    p = o.partition
    N = sum(p)
    if N > bound:
        raise ValueError(f"total {N} exceeds oracle bound {bound}")
    mult = Counter(p).items()

    if t.family == "A":
        # ad(e) on gl_N: X_ij -> f·X_ij - X_ij·e, f and e the shifts of sizes
        # p_i, p_j: c_a·c_b pieces for each ordered pair of sizes (a, b)
        pieces = [(a, b, 0, ca * cb) for a, ca in mult for b, cb in mult]
        down, dim = False, N * N - 1
    else:
        symplectic = t.family == "C"
        # the form is a direct sum of self-dual blocks of one parity of size
        # and equal pairs of the other, as `_form_blocks` lays it out
        self_dual = 0 if symplectic else 1
        if any(a % 2 != self_dual and ca % 2 for a, ca in mult):
            raise ValueError(f"partition {p} not valid for this form")
        for a, _ in mult:
            if defect := _block_form_defect(a, a % 2 != self_dual, symplectic):
                raise ValueError(defect.format(p=p))
        # g = {B^-1 S}, S antisymmetric (B, D) or symmetric (C), and ad(e) is
        # S -> e^T S + S e: a free p_i×p_j piece S_ij for each pair of blocks
        # i < j, c_a·c_b of sizes a > b and c_a(c_a - 1)/2 of equal sizes a
        # (none, and no elimination, when c_a = 1), and an (anti)symmetric
        # piece S_ii for each block, c_a of size a
        sym = 1 if symplectic else -1
        pieces = [(a, b, 0, ca * cb) for a, ca in mult for b, cb in mult if a > b]
        pieces += [(a, a, 0, ca * (ca - 1) // 2) for a, ca in mult if ca > 1]
        pieces += [(a, a, sym, ca) for a, ca in mult]
        down, dim = True, N * (N + sym) // 2
    return dim - sum(n * _shift_piece_rank(a, b, down, s) for a, b, s, n in pieces)


# ---------------------------------------------------------------------------
# Lusztig-Spaltenstein induction and the asymptotic cone
# ---------------------------------------------------------------------------


def ls_induction(a: AdjointOrbit) -> NilpotentOrbit:
    """Nilpotent orbit attached to an adjoint orbit: componentwise sums in
    type A; in B/C/D, each nonzero block counts twice, then the zero block
    is added and the parity collapse taken."""
    t, parts = a.type, [b.partition for b in a.blocks]
    if t.family == "A":
        return NilpotentOrbit(t, sum_parts(parts + [a.zero_block]))
    return NilpotentOrbit(t, collapse(sum_parts(parts * 2 + [a.zero_block]), parity_class(t)))


# ---------------------------------------------------------------------------
# Closure order
# ---------------------------------------------------------------------------


class HasseDiagram(FrozenRecord):
    """Closure order on exceptional orbits from covering relations; orbits
    is a sorted tuple of labels and dims the (label, dim C) pairs sorted by
    label, so the diagram hashes and its repr is free of the hash seed.  The
    closure of each orbit is computed once, at construction."""

    __slots__ = ("orbits", "covers", "dims", "_below")

    def __init__(
        self,
        orbits: tuple[str, ...],
        covers: tuple[tuple[str, str], ...],  # (upper, lower)
        dims: dict[str, int] | tuple[tuple[str, int], ...] | None = None,
    ):
        self._store((orbits, covers, sorted_pairs(dims or ())))
        # the orbits in the closure of each orbit, itself included; a cover
        # between unknown labels raises KeyError here
        below = {o: {o} for o in orbits}
        changed = True
        while changed:
            changed = False
            for hi, lo in covers:
                new = below[lo] - below[hi]
                if new:
                    below[hi] |= new
                    changed = True
        dim = dict(self.dims)
        for hi, lo in covers:
            if hi in below[lo]:
                raise ValueError(f"covers form a cycle through {hi} -> {lo}")
            if hi in dim and lo in dim and not dim[hi] < dim[lo]:
                raise ValueError(f"dim C must increase downward: {hi} -> {lo}")
        object.__setattr__(self, "_below", below)

    def le(self, a: str, b: str) -> bool:
        """a <= b in the closure order."""
        if a not in self.orbits or b not in self.orbits:
            raise KeyError(f"unknown orbit label {a!r} or {b!r}")
        return a in self._below[b]


@lru_cache(maxsize=None)
def builtin_hasse(family: str) -> HasseDiagram | None:
    """The embedded closure order of G2 or F4, built once; None otherwise."""
    xd = submodule("exceptional_data")
    if family == "G2":
        covers = xd.G2_HASSE_COVERS
    elif family == "F4":
        covers = xd.F4_HASSE_COVERS
    else:
        return None
    labels = tuple(sorted({x for c in covers for x in c}))
    dims = {lbl: xd.DIM_C[(family, lbl)] for lbl in labels}
    return HasseDiagram(labels, covers, dims)


def closure_le_detail(
    o1: NilpotentOrbit, o2: NilpotentOrbit, hasse: HasseDiagram | None = None
) -> tuple[bool, bool]:
    """(o1 <= o2, ambiguous): ambiguous flags a very-even type-D comparison
    decided by dominance only because a label was unspecified.

    In D the closure order is dominance, except that the two orbits of one
    very even partition are incomparable (Collingwood-McGovern, Thm 6.2.5),
    so only a comparison of one very even partition with itself reads the
    labels."""
    if o1.type is not o2.type and o1.type != o2.type:
        raise ValueError("closure comparison needs equal types")
    t = o1.type
    if t.is_exceptional:
        a, b = o1.label, o2.label
        if a == b:
            return True, False
        if a == "0" or b == t.family:
            return True, False
        if b == "0" or a == t.family:
            return False, False
        h = hasse or builtin_hasse(t.family)
        if h is None:
            raise UnsupportedComparisonError(
                f"no Hasse data for {t.family}: cannot compare {a} and {b}"
            )
        return h.le(a, b), False
    p, q = o1.partition, o2.partition
    if p == q and o1.is_very_even:
        a, b = o1.very_even_label, o2.very_even_label
        return (a == b, False) if a and b else (True, True)
    return dominance_le(p, q), False


def closure_le(o1: NilpotentOrbit, o2: NilpotentOrbit, hasse: HasseDiagram | None = None) -> bool:
    return closure_le_detail(o1, o2, hasse)[0]


def cone_contains(o_target: NilpotentOrbit, a: AdjointOrbit) -> bool:
    """True iff o_target lies in the closure of the scaling cone of a,
    i.e. o_target <= the induced nilpotent orbit of a."""
    return closure_le(o_target, ls_induction(a))
