"""Seeded input generation shared by the benchmark workloads.

Every generator takes a ``random.Random`` built by ``rng_for(seed, role)``.
The timed inputs and the warm-up inputs come from different roles, so they
are drawn from disjoint seed streams: a cache keyed on the exact query that
was filled during warm-up cannot pass as a speed-up of the timed run.

Only root data (set-up, not a measured layer) and the orbit constructors of
``isods`` are used here; partitions are drawn with a local sampler so that
generating inputs fills no cache of a measured layer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from isods import exceptional_data as xd
from isods.orbits import AdjointOrbit, Block, NilpotentOrbit
from isods.root_data import (
    LieType,
    Slope,
    coxeter_number,
    defining_dim,
    is_elliptic_regular,
    is_regular,
    lie_type,
    slope,
)

CLASSICAL = ("A", "B", "C", "D")
EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")


def rng_for(seed: int, role: str) -> random.Random:
    """Independent stream per (seed, role); string seeds hash with SHA-512,
    so the streams do not depend on PYTHONHASHSEED."""
    return random.Random(f"isods-bench/{role}/{seed}")


# ---------------------------------------------------------------------------
# Partitions, slopes and orbits
# ---------------------------------------------------------------------------


def random_partition(rng: random.Random, n: int, cls: str = "A") -> tuple[int, ...]:
    """A partition of n that is valid for the parity class cls (A: any).

    B and D admit odd parts singly and even parts in pairs; C admits even
    parts singly and odd parts in pairs.  Every unit keeps the total exact,
    so the result is valid by construction."""
    parts: list[int] = []
    rest = n
    while rest:
        k = rng.randint(1, rest)
        single = cls == "A" or (k % 2 == 1) == (cls in ("B", "D"))
        if single:
            parts.append(k)
            rest -= k
        elif 2 * k <= rest:
            parts += [k, k]
            rest -= 2 * k
    return tuple(sorted(parts, reverse=True))


def all_partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Every partition of n, parts at most `largest`, in decreasing order."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(k,) + rest for k in range(top, 0, -1) for rest in all_partitions(n - k, k)]


def random_composition(rng: random.Random, total: int) -> list[int]:
    out = []
    while total:
        x = rng.randint(1, total)
        out.append(x)
        total -= x
    return out


def regular_denominators(t: LieType, limit: int) -> list[int]:
    return [m for m in range(1, limit + 1) if is_regular(t, m)]


def random_slope(rng: random.Random, m: int, lo: float = 0.0, hi: float = 2.0) -> Slope:
    """d/m in lowest terms with lo < d/m < hi."""
    ds = [d for d in range(1, 2 * m + 1) if gcd(d, m) == 1 and lo < d / m < hi]
    return slope(rng.choice(ds), m)


def random_tags(rng: random.Random, k: int) -> list:
    """Either all symbolic tags or all nonzero rational ones (a mix is
    undecidable for the resonance test)."""
    if rng.random() < 0.5:
        return [f"a{i}" for i in range(k)]
    out: list = []
    while len(out) < k:
        tag = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((2, 3, 5, 7)))
        if tag not in out:
            out.append(tag)
    return out


def random_adjoint(rng: random.Random, t: LieType, slots: list[int] | None = None, zero_mult: int | None = None):
    """Adjoint orbit of a classical type with the given nonzero
    multiplicities and zero multiplicity (random when omitted)."""
    fam, n = t.family, t.rank
    cap = n + 1 if fam == "A" else n
    if zero_mult is None:
        zero_mult = rng.randint(0, cap)
    if slots is None:
        slots = random_composition(rng, cap - zero_mult)
    tail_total = zero_mult if fam == "A" else 2 * zero_mult + (1 if fam == "B" else 0)
    tags = random_tags(rng, len(slots))
    blocks = tuple(Block(tag, mult, random_partition(rng, mult)) for tag, mult in zip(tags, slots))
    return AdjointOrbit(t, blocks, random_partition(rng, tail_total, fam))


def random_nilpotent(rng: random.Random, t: LieType) -> NilpotentOrbit:
    return NilpotentOrbit(t, random_partition(rng, defining_dim(t), t.family))


def as_adjoint(o: NilpotentOrbit) -> AdjointOrbit:
    """A nilpotent orbit as an adjoint orbit with only a zero block, the form
    the candidate route takes."""
    return AdjointOrbit(o.type, (), o.partition)


def orbit_json(orbit) -> str:
    return json.dumps(orbit.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# Exceptional cells
# ---------------------------------------------------------------------------


def exceptional_labels(fam: str) -> list[str]:
    """Labels with embedded centralizer data (a superset of the table orbits)."""
    return sorted(lbl for f, lbl in xd.DIM_C if f == fam)


def exceptional_slopes(fam: str) -> list[Slope]:
    """Supported slopes: Coxeter slopes d/h with embedded data, the F4
    slopes at 6 and 8, and (G2/F4 only) slopes nu >= 1 at every regular m."""
    t = lie_type(fam)
    h = coxeter_number(t)
    out = [slope(d, h) for (f, d) in sorted(xd.EXC_COXETER) if f == fam]
    if fam == "F4":
        out += [slope(nu.numerator, nu.denominator) for nu in sorted(xd.F4_SMALL)]
    if fam in ("G2", "F4"):
        for m in regular_denominators(t, h):
            out += [slope(d, m) for d in range(m, 2 * m) if gcd(d, m) == 1]
    return out


# ---------------------------------------------------------------------------
# query_stream
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One in-process verdict query: kind is 'solve' (ds_solve) or 'rigidity'
    (rigidity_report)."""

    kind: str
    type: LieType
    slope: Slope
    orbit: object

    def key(self) -> tuple:
        return (self.kind, str(self.type), str(self.slope), orbit_json(self.orbit))


# Composition of every chunk of the query stream: (kind, orbit source, count).
QUERY_CHUNK = (
    ("solve", "adjoint", 8),
    ("solve", "nilpotent", 4),
    ("rigidity", "adjoint", 3),
    ("rigidity", "nilpotent", 2),
    ("solve", "exceptional", 2),
    ("rigidity", "exceptional", 1),
)


def classical_cell(rng: random.Random) -> tuple[LieType, Slope]:
    """A classical type of rank 2..12 and a slope at a regular denominator
    (every regular denominator equally likely), with 0 < nu < 2."""
    fam = rng.choice(CLASSICAL)
    t = lie_type(fam, rng.randint(3 if fam == "D" else 2, 12))
    m = rng.choice(regular_denominators(t, 2 * t.rank + 2))
    return t, random_slope(rng, m)


def query_chunk(rng: random.Random) -> list[Query]:
    """One chunk of the query stream, in shuffled order, with the fixed
    composition QUERY_CHUNK."""
    out = []
    for kind, source, count in QUERY_CHUNK:
        for _ in range(count):
            if source == "exceptional":
                fam = rng.choice(EXCEPTIONAL)
                t = lie_type(fam)
                s = rng.choice(exceptional_slopes(fam))
                orbit = NilpotentOrbit(t, label=rng.choice(exceptional_labels(fam)))
            else:
                t, s = classical_cell(rng)
                orbit = random_adjoint(rng, t) if source == "adjoint" else random_nilpotent(rng, t)
            out.append(Query(kind, t, s, orbit))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# q_growth
# ---------------------------------------------------------------------------

Q_FAMILIES = ("A", "B", "C", "D")
Q_RANK = {"A": 15, "B": 16, "C": 16, "D": 16}  # slot sizes up to 16
Q_STRUCTURES = ("one-slot", "several-slots", "zero-heavy")


def q_slot_structure(t: LieType, structure: str) -> tuple[list[int], int]:
    """(nonzero multiplicities, zero multiplicity) of a structure."""
    cap = t.rank + 1 if t.family == "A" else t.rank
    if structure == "one-slot":
        return [cap], 0
    if structure == "several-slots":
        k = (cap - 1) // 3
        return [cap - 1 - 2 * k, k, k], 1
    slot = cap // 3
    return [slot], cap - slot


def q_grid() -> list[tuple]:
    """Every (type, slope, structure) cell of q_growth: for each family its
    largest elliptic regular denominator m and every d/m in (0, 1) in lowest
    terms.  The cells, not the orbits, set the cost of the candidate route,
    so a fixed grid keeps that cost the same from seed to seed."""
    cells = []
    for fam in Q_FAMILIES:
        t = lie_type(fam, Q_RANK[fam])
        m = max(m for m in regular_denominators(t, 2 * t.rank + 2) if is_elliptic_regular(t, m))
        for structure in Q_STRUCTURES:
            cells += [(t, slope(d, m), structure) for d in range(1, m) if gcd(d, m) == 1]
    return cells


def q_cycle(rng: random.Random) -> list[tuple]:
    """The grid once, in shuffled order, each cell with a fresh seeded orbit
    of its eigenvalue structure: (type, slope, adjoint orbit)."""
    out = []
    for t, s, structure in q_grid():
        slots, zero = q_slot_structure(t, structure)
        out.append((t, s, random_adjoint(rng, t, slots, zero)))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    """One `ds` invocation.  verb and spec are what workloads.cli_reference
    computes the expected exit code and stdout from."""

    argv: tuple[str, ...]
    verb: str
    spec: tuple


# Composition of every cycle of the CLI mix: (case maker name, count).
CLI_CYCLE = (
    ("solve_partition", 2),
    ("solve_adjoint", 1),
    ("solve_exceptional", 1),
    ("solve_q", 3),
    ("delta", 3),
    ("coxeter", 2),
    ("oracle", 2),
    ("tables", 1),
    ("malformed", 2),
    ("needs_hasse", 1),
)


def _type_args(t: LieType) -> list[str]:
    if t.is_exceptional:
        return ["--type", t.family]
    return ["--type", t.family, "--rank", str(t.rank)]


def _small_classical(rng: random.Random, max_rank: int) -> LieType:
    fam = rng.choice(CLASSICAL)
    return lie_type(fam, rng.randint(3 if fam == "D" else 2, max_rank))


def _cli_solve_partition(rng):
    t, s = classical_cell(rng)
    o = random_nilpotent(rng, t)
    argv = ["solve", *_type_args(t), "--slope", str(s), "--orbit", json.dumps(list(o.partition))]
    return CliCase(tuple(argv), "solve", (t, s, o))


def _cli_solve_adjoint(rng):
    t, s = classical_cell(rng)
    a = random_adjoint(rng, t)
    return CliCase(("solve", *_type_args(t), "--slope", str(s), "--orbit", orbit_json(a)), "solve", (t, s, a))


def _cli_solve_exceptional(rng):
    fam = rng.choice(("G2", "F4"))
    t = lie_type(fam)
    s = rng.choice(exceptional_slopes(fam))
    o = NilpotentOrbit(t, label=rng.choice(exceptional_labels(fam)))
    return CliCase(("solve", *_type_args(t), "--slope", str(s), "--orbit", o.label), "solve", (t, s, o))


def _cli_solve_q(rng):
    t = _small_classical(rng, 8)
    m = rng.choice(regular_denominators(t, 2 * t.rank + 2))
    s = random_slope(rng, m)
    a = random_adjoint(rng, t)
    return CliCase(("solve-q", *_type_args(t), "--slope", str(s), "--orbit", orbit_json(a)), "solve-q", (t, s, a))


def _cli_delta(rng):
    if rng.random() < 0.25:
        fam = rng.choice(EXCEPTIONAL)
        t = lie_type(fam)
        s = rng.choice(exceptional_slopes(fam))
        o = NilpotentOrbit(t, label=rng.choice(exceptional_labels(fam)))
        text = o.label
    else:
        t, s = classical_cell(rng)
        o = random_nilpotent(rng, t)
        text = json.dumps(list(o.partition))
    return CliCase(("delta", *_type_args(t), "--slope", str(s), "--orbit", text), "delta", (t, s, o))


def _cli_coxeter(rng):
    if rng.random() < 0.25:
        t = lie_type(rng.choice(("G2", "F4")))
    else:
        t = _small_classical(rng, 8)
    h = coxeter_number(t)
    d = rng.choice([d for d in range(1, 2 * h) if gcd(d, h) == 1])
    return CliCase(("coxeter", *_type_args(t), "--d", str(d)), "coxeter", (t, d))


def _cli_oracle(rng):
    t = _small_classical(rng, 5)
    ms = [m for m in regular_denominators(t, 2 * t.rank + 2) if is_elliptic_regular(t, m)]
    if t.family == "A":
        ms = [t.rank + 1]
    s = random_slope(rng, rng.choice(ms))
    seed = rng.randint(0, 999)
    argv = ("oracle", *_type_args(t), "--slope", str(s), "--budget", "1000", "--seed", str(seed))
    return CliCase(argv, "oracle", (t, s, seed))


def _cli_tables(rng):
    return CliCase(("tables", "--name", "t_excCox"), "tables", ())


def _cli_malformed(rng):
    """Inputs the CLI documents as invalid (exit code 2)."""
    t = _small_classical(rng, 6)
    base = ["solve", *_type_args(t)]
    n = defining_dim(t)
    bad_m = next(m for m in range(2, 4 * t.rank + 4) if not is_regular(t, m))
    variants = (
        base + ["--slope", "3/0", "--orbit", json.dumps([1] * n)],
        base + ["--slope", f"1/{bad_m}", "--orbit", json.dumps([1] * n)],
        base + ["--slope", "1/2", "--orbit", json.dumps([1] * (n + 1))],
        base + ["--slope", "1/2", "--orbit", "[3,1"],
        ["solve", "--type", "Z", "--rank", "3", "--slope", "1/2", "--orbit", "[1]"],
        ["solve", *_type_args(t), "--slope", "1/2"],
    )
    return CliCase(tuple(rng.choice(variants)), "error", (2,))


def _cli_needs_hasse(rng):
    """An E-type comparison without Hasse data: documented exit code 3."""
    fam = rng.choice(("E6", "E7", "E8"))
    t = lie_type(fam)
    h = coxeter_number(t)
    d, (label, _) = rng.choice([(d, v) for (f, d), v in sorted(xd.EXC_COXETER.items()) if f == fam and d > 1])
    others = [lbl for lbl in exceptional_labels(fam) if lbl not in (label, "0", fam)]
    o = NilpotentOrbit(t, label=rng.choice(others))
    return CliCase(("solve", "--type", fam, "--slope", f"{d}/{h}", "--orbit", o.label), "solve", (t, slope(d, h), o))


UNKNOWN_LABELS = ("FOO", "A9", "B7", "G2(a9)", "3~A5", "X1")


def _cli_unknown_label(rng):
    """ROADMAP item 4: an unknown G2/F4 label gets a confident verdict and
    exit 0, where an invalid input should exit 2."""
    fam = rng.choice(("G2", "F4"))
    s = rng.choice(exceptional_slopes(fam))
    argv = ("solve", "--type", fam, "--slope", str(s), "--orbit", rng.choice(UNKNOWN_LABELS))
    return CliCase(argv, "error", (2,))


def _cli_missing_orbit_file(rng):
    """ROADMAP item 4: a missing --orbit-file ends in a traceback and exit 1,
    where an I/O error on input should exit 2."""
    t, s = classical_cell(rng)
    path = f"perfbench/no-such-orbit-{rng.randint(0, 10**6)}.json"
    argv = ("solve", *_type_args(t), "--slope", str(s), "--orbit-file", path)
    return CliCase(argv, "error", (2,))


CLI_MAKERS = {
    "solve_partition": _cli_solve_partition,
    "solve_adjoint": _cli_solve_adjoint,
    "solve_exceptional": _cli_solve_exceptional,
    "solve_q": _cli_solve_q,
    "delta": _cli_delta,
    "coxeter": _cli_coxeter,
    "oracle": _cli_oracle,
    "tables": _cli_tables,
    "malformed": _cli_malformed,
    "needs_hasse": _cli_needs_hasse,
}

# Input-boundary defects of ROADMAP item 4, probed once per run outside the
# timed mix (see workloads.known_defects): name -> case maker.
KNOWN_DEFECTS = {
    "unknown-exceptional-label": _cli_unknown_label,
    "missing-orbit-file": _cli_missing_orbit_file,
}


def cli_cycle(rng: random.Random) -> list[CliCase]:
    """One cycle of the CLI mix with the fixed composition CLI_CYCLE."""
    out = [CLI_MAKERS[name](rng) for name, count in CLI_CYCLE for _ in range(count)]
    rng.shuffle(out)
    return out
