"""Static root-system data: Cartan matrices, positive roots, affine marks,
exponents, Coxeter numbers, regular and elliptic-regular number predicates.

Of the Weyl-group invariants only the exponents are given, as closed forms
in A-D and derived from the root heights in G2-E8: the root count, the
regular numbers and ellipticity derive from them (Springer, Invent. Math.
1974; Lehrer-Springer, Canad. J. Math. 1999), and no list of regular
numbers is embedded.

It also holds what the command line needs before it loads an engine module:
the two exceptions `cli.main` maps to exit codes and the table names; and
the two bases of the package's value classes, `Record` and `FrozenRecord`,
which bind and store the fields each class declares in its `__slots__`, and
`sorted_pairs`, the form in which a frozen value holds a mapping.

Each per-type value is built once: `lie_type` and `slope_cells` hand out
one shared `LieType` per (family, rank), so the `lru_cache` lookups keyed on
a type below find their entry by identity, without calling `__eq__`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")
EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}


class UnsupportedSlopeError(Exception):
    """The requested (type, slope) has no supported solution path."""


class UnsupportedComparisonError(Exception):
    """Closure comparison requires Hasse data that is not available."""


# The package defines no @dataclass: `import dataclasses` loads `inspect`,
# and each decorated class execs its generated methods at import, which
# together cost a cold `ds solve` about a fifth of its run.  These two bases
# store the fields of the value classes and give them the equality, hash,
# repr, read-only fields, copy and pickle that the decorator generated.
class Record:
    """Mutable value class, unhashable and equal by its field tuple.  Its
    fields are the names in its `__slots__` that do not start with `_`, after
    those of its bases; `__init__` binds them by position or by name, and a
    subclass with its own `__init__` passes them to `_store` in that order.
    `_store` writes each field through the `__set__` of its slot descriptor,
    which `__init_subclass__` collects once per class in `_setters`, so no
    field is looked up by name per object."""

    __slots__ = ()
    __hash__ = None
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_"))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values):]
            if len(values) > len(fields) or named.keys() ^ set(rest):
                raise TypeError(
                    f"{type(self).__qualname__} takes the fields {', '.join(fields)}; got {len(values)} by position"
                    f" and {', '.join(named) or 'none'} by name"
                )
            values += tuple(named[name] for name in rest)
        self._store(values)

    def _store(self, values: tuple) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    @property
    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """Read-only value class: `_store` writes each field and the field tuple
    `_key` through their slot descriptors, past the refusing `__setattr__`,
    and it hashes as `_key`."""

    __slots__ = ("_key",)

    def _store(self, values: tuple) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)
        _set_key(self, values)

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key


_set_key = FrozenRecord._key.__set__


def sorted_pairs(items) -> tuple:
    """A mapping, or an iterable of (key, value) pairs, as the tuple of its
    pairs sorted by key: the hashable form in which a frozen value holds a
    mapping.  A tuple already in that form comes back as it is."""
    pairs = tuple(sorted(dict(items).items()))
    return items if pairs == items else pairs


class LieType(FrozenRecord):
    """Simple Lie type: family plus rank (rank fixed for exceptional families)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        self._store((family, rank))
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family in EXCEPTIONAL_RANK:
            if rank != EXCEPTIONAL_RANK[family]:
                raise ValueError(f"{family} has rank {EXCEPTIONAL_RANK[family]}")
        else:
            lo = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
            if rank < lo:
                raise ValueError(f"{family}-rank must be >= {lo}")

    @property
    def is_exceptional(self) -> bool:
        return self.family in EXCEPTIONAL_RANK

    def __str__(self):
        return f"{self.family}{self.rank}" if not self.is_exceptional else self.family


_SHARED_TYPES: dict[tuple[str, int], LieType] = {}


def lie_type(family: str, rank: int | None = None) -> LieType:
    """The LieType of e.g. ('B', 4), ('F4', None) or the string 'B4': one
    shared immutable instance per (family, rank), validated when first built,
    so that the caches keyed on a type hit by identity.  `LieType(...)` still
    builds a fresh object, equal to the shared one."""
    family = family.strip()
    if rank is None:
        if family in EXCEPTIONAL_RANK:
            rank = EXCEPTIONAL_RANK[family]
        elif family[:1] in ("A", "B", "C", "D") and family[1:].isdigit():
            family, rank = family[:1], int(family[1:])
        else:
            raise ValueError(f"cannot parse Lie type {family!r}")
    key = (family, int(rank))
    t = _SHARED_TYPES.get(key)
    if t is None:
        t = _SHARED_TYPES[key] = LieType(*key)
    return t


class Slope(FrozenRecord):
    """Positive slope d/m in lowest terms."""

    __slots__ = ("d", "m")

    def __init__(self, d: int, m: int):
        self._store((d, m))
        if d < 1 or m < 1:
            raise ValueError("slope needs positive numerator and denominator")
        if gcd(d, m) != 1:
            raise ValueError(f"slope {d}/{m} not in lowest terms")

    @property
    def nu(self) -> Fraction:
        return Fraction(self.d, self.m)

    def __str__(self):
        return f"{self.d}/{self.m}"


def slope(d: int, m: int) -> Slope:
    g = gcd(d, m) or 1  # 0/0 is left to Slope to reject
    return Slope(d // g, m // g)


def _digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_slope(text: str) -> Slope:
    """The slope written `d` or `d/m` in ASCII digits, put in lowest terms."""
    num, bar, den = text.partition("/")
    if not _digits(num) or (bar and not _digits(den)):
        raise ValueError(f"slope must be d or d/m in ASCII digits, got {text!r}")
    return slope(int(num), int(den) if bar else 1)


# ---------------------------------------------------------------------------
# Dynkin diagrams and Cartan matrices.  Nodes are numbered 1..rank; for the
# exceptional families the conventions are:
#   G2: node 1 long, node 2 short (highest root 2a1 + 3a2)
#   F4: chain 1-2=>3-4, nodes 1,2 long and 3,4 short
#   E6/E7/E8: Bourbaki (chain 1-3-4-5-...-r with node 2 attached to node 4)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cartan_matrix(t: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with A[i][j] = <alpha_j, alpha_i^vee> (0-based nodes)."""
    r = t.rank
    A = [[0] * r for _ in range(r)]
    for i in range(r):
        A[i][i] = 2

    def edge(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    fam = t.family
    if fam == "A":
        for i in range(r - 1):
            edge(i, i + 1)
    elif fam == "B":
        for i in range(r - 2):
            edge(i, i + 1)
        # last node short: <alpha_{r-1}, alpha_r^vee> = -2
        edge(r - 2, r - 1, -1, -2)
    elif fam == "C":
        for i in range(r - 2):
            edge(i, i + 1)
        # last node long
        edge(r - 2, r - 1, -2, -1)
    elif fam == "D":
        for i in range(r - 2):
            edge(i, i + 1)
        edge(r - 3, r - 1)
    elif fam == "G2":
        edge(0, 1, -1, -3)
    elif fam == "F4":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    else:  # E-series, Bourbaki
        chain = [1, 3, 4, 5, 6, 7, 8][: r - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a - 1, b - 1)
        edge(2 - 1, 4 - 1)
    return tuple(tuple(row) for row in A)


@lru_cache(maxsize=None)
def adjacency(t: LieType) -> dict[int, frozenset[int]]:
    """Finite Dynkin diagram adjacency on nodes 1..rank."""
    A = cartan_matrix(t)
    r = t.rank
    out = {}
    for i in range(r):
        out[i + 1] = frozenset(j + 1 for j in range(r) if j != i and A[i][j] != 0)
    return out


@lru_cache(maxsize=None)
def positive_roots(t: LieType) -> tuple[tuple[int, ...], ...]:
    """All positive roots as coefficient vectors over the simple roots,
    reached from them by the reflections that raise a root."""
    A, r = cartan_matrix(t), t.rank
    roots = {tuple(int(i == j) for j in range(r)) for i in range(r)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i, row in enumerate(A):
            c = sum(b * a for b, a in zip(beta, row))
            if c < 0:
                up = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if up not in roots:
                    roots.add(up)
                    frontier.append(up)
    return tuple(sorted(roots, key=lambda v: (sum(v), v)))


@lru_cache(maxsize=None)
def highest_root(t: LieType) -> tuple[int, ...]:
    """The higher dominant root in the Weyl orbits of the two end simple
    roots, one of which is long, each raised by the s_i with
    <beta, alpha_i^vee> < 0 until there is none."""
    A, found = cartan_matrix(t), []
    for end in (0, t.rank - 1):
        beta, pair = [int(i == end) for i in range(t.rank)], [row[end] for row in A]
        while (c := min(pair)) < 0:
            i = pair.index(c)
            beta[i] -= c
            pair = [x - c * row[i] for x, row in zip(pair, A)]
        found.append(tuple(beta))
    return max(found, key=sum)


@lru_cache(maxsize=None)
def exponents(t: LieType) -> tuple[int, ...]:
    """The exponents: closed forms in A-D; in G2-E8 the partition dual to the
    numbers of positive roots of each height (Kostant 1959), the j-th largest
    exponent being the number of heights with at least j roots."""
    fam, n = t.family, t.rank
    if fam == "A":
        return tuple(range(1, n + 1))
    if fam in ("B", "C"):
        return tuple(range(1, 2 * n, 2))
    if fam == "D":
        return tuple(sorted(tuple(range(1, 2 * n - 2, 2)) + (n - 1,)))
    heights = [sum(root) for root in positive_roots(t)]
    counts = [heights.count(k) for k in range(1, max(heights) + 1)]
    return tuple(sum(c >= j for c in counts) for j in range(n, 0, -1))


def coxeter_number(t: LieType) -> int:
    """The largest exponent plus one; `exponents` lists them ascending."""
    return exponents(t)[-1] + 1


@lru_cache(maxsize=None)
def phi_count(t: LieType) -> int:
    """Number of roots: the rank times the Coxeter number."""
    return t.rank * coxeter_number(t)


@lru_cache(maxsize=None)
def dim_cartan_fixed(t: LieType, m: int) -> int:
    """dim of the fixed space of a regular element of order m on the Cartan:
    the number of exponents divisible by m, as its eigenvalues there are
    zeta^e over the exponents e, zeta a primitive m-th root of unity
    (Springer)."""
    return sum(1 for e in exponents(t) if e % m == 0)


@lru_cache(maxsize=None)
def is_regular(t: LieType, m: int) -> bool:
    """Whether m >= 1 is a regular number of the Weyl group: as many degrees
    e + 1 as codegrees e - 1 are multiples of m (Lehrer-Springer), with no
    embedded list of regular numbers."""
    es = exponents(t)
    return m >= 1 and sum((e + 1) % m == 0 for e in es) == sum((e - 1) % m == 0 for e in es)


def is_elliptic_regular(t: LieType, m: int) -> bool:
    """Whether a regular element of order m fixes no nonzero vector of the
    Cartan, that is no exponent is divisible by m (Springer); a ValueError
    when m is not regular."""
    if not is_regular(t, m):
        raise ValueError(f"{m} is not a regular number for {t}")
    return dim_cartan_fixed(t, m) == 0


# The tables `tables.generate` writes, by their `ds tables --name`.
TABLE_NAMES = (
    "t_clCox",
    "t_excCox",
    "t_completecl",
    "t_clq",
    "t_cl_index_rig",
    "t_cl_ell_rig",
    "DSsolnF4",
    "potigexc-numerics",
)


def slope_cells(family: str, max_rank: int, m_range, d_range, min_rank: int | None = None):
    """The slope cells (t, m, d, d/m) of a classical family, rank by rank:
    every regular m in m_range(t) and every d in d_range(m) prime to m.  The
    ranks run from min_rank, by default the lowest rank of the classical
    tables (3 in D, 2 otherwise), to max_rank."""
    if family not in ("A", "B", "C", "D"):
        raise ValueError(f"slope cells are tabulated for the families A-D, not {family!r}")
    lo = (3 if family == "D" else 2) if min_rank is None else min_rank
    for n in range(lo, max_rank + 1):
        t = lie_type(family, n)
        for m in m_range(t):
            if is_regular(t, m):
                for d in d_range(m):
                    if gcd(d, m) == 1:
                        yield t, m, d, Slope(d, m)


class AffineDiagram(FrozenRecord):
    """Affine Dynkin diagram: node 0 is the affine node; marks[a] is the mark
    n_a of node a, in a tuple so that the shared cached diagram stays read-only."""

    __slots__ = ("type", "nodes", "marks")

    @property
    def finite_nodes(self) -> tuple[int, ...]:
        return self.nodes[1:]


@lru_cache(maxsize=None)
def affine_marks(t: LieType) -> AffineDiagram:
    """Marks from the highest-root coefficients; the affine node gets 1."""
    return AffineDiagram(t, tuple(range(t.rank + 1)), (1,) + highest_root(t))


def defining_dim(t: LieType) -> int:
    """Dimension of the defining representation of the classical families."""
    fam, n = t.family, t.rank
    if fam == "A":
        return n + 1
    if fam == "B":
        return 2 * n + 1
    if fam in ("C", "D"):
        return 2 * n
    raise ValueError(f"no defining matrix representation used for {t}")


def dim_g(t: LieType) -> int:
    return phi_count(t) + t.rank


def components(t: LieType, J) -> list[frozenset[int]]:
    """Connected components of the sub-diagram on nodes J; a ValueError if a
    node lies outside the finite diagram."""
    adj = adjacency(t)
    J = set(J)
    bad = J - adj.keys()
    if bad:
        raise ValueError(f"nodes {sorted(bad)} are not finite diagram nodes of {t}")
    seen: set[int] = set()
    comps = []
    for start in sorted(J):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(y for y in adj[x] if y in J and y not in comp)
        seen |= comp
        comps.append(frozenset(comp))
    return comps
