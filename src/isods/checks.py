"""Cross-validation suite behind `ds check` and the acceptance criteria:
oracle equivalences, Delta agreement, and the row-overlap consistency of the
threshold table.  Each check returns the number of cells it covered and, last,
its first failure (None when every cell passed)."""

from __future__ import annotations

import random

from .coxeter import UnsupportedSlopeError, coxeter_solve
from .orbits import AdjointOrbit, Block, NilpotentOrbit, dim_centralizer, dim_centralizer_oracle
from .partitions import ParityClass, collapse, dominance_le, lambda_evenly, partition, partitions_of, valid_partitions
from .rigidity import closed_form_delta, coxeter_delta_column, delta_of_orbit
from .root_data import coxeter_number, defining_dim, is_elliptic_regular, is_regular, lie_type, slope, slope_cells
from .skeleton import _orthogonal_space, jordan_type, minimal_jordan_type_report, model_orthogonal
from .solver import ds_solve, ds_solve_q, o_nu, o_nu_rows


def _coxeter_closed_form(t, d: int):
    """The t_clCox column: the threshold at a classical Coxeter slope d/h
    splits the defining dimension evenly into d parts (2n - 1 in D, plus a
    part 1)."""
    if t.family == "D":
        return partition(lambda_evenly(2 * t.rank - 1, d) + (1,))
    return lambda_evenly(defining_dim(t), d)


def check_coxeter(
    max_rank: int = 10, per_family: int | None = None, seed: int = 0, min_rank: int | None = None
) -> tuple[int, str | None]:
    """The Coxeter route against the closed form and the table route at the
    Coxeter slopes d/h, d < 3h, of the classical families: every cell from
    min_rank (by default the lowest: 3 in D, 2 otherwise) to max_rank, or,
    with per_family, that many seeded cells per family with d < h (a nonzero
    threshold), the first at max_rank."""
    rng = random.Random(seed)
    cases = 0
    for fam in ("A", "B", "C", "D"):
        cells = list(slope_cells(fam, max_rank, lambda t: (coxeter_number(t),), lambda h: range(1, 3 * h), min_rank))
        if per_family is not None:
            pool = [c for c in cells if c[2] < c[1]]
            top = [c for c in pool if c[0].rank == max_rank]
            cells = [rng.choice(top)] + [rng.choice(pool) for _ in range(per_family - 1)]
        for t, _, d, s in cells:
            derived = coxeter_solve(t, d).partition
            if derived != _coxeter_closed_form(t, d) or derived != o_nu(t, s).partition:
                return cases, f"mismatch at {t} d={d}: {derived}"
            cases += 1
    return cases, None


def check_centralizer_oracle(max_total: int = 10) -> tuple[int, str | None]:
    """Closed-form centralizer dimensions against matrix kernels, for every
    valid Jordan type of total at most max_total."""
    cases = 0
    for fam in ("A", "B", "C", "D"):
        for n in range(3 if fam == "D" else (1 if fam == "A" else 2), max_total):
            t = lie_type(fam, n)
            N = defining_dim(t)
            if N > max_total:
                break
            for p in partitions_of(N) if fam == "A" else valid_partitions(N, ParityClass[fam]):
                o = NilpotentOrbit(t, p)
                if dim_centralizer(o) != dim_centralizer_oracle(o, bound=max_total):
                    return cases, f"mismatch at {fam}{n} {p}"
                cases += 1
    return cases, None


def check_skeleton(max_rank: int = 5, seed: int = 0) -> tuple[int, str | None]:
    """Skeleton minimal Jordan types against the thresholds at the elliptic
    slopes d/m, d < 2m (type A from rank 1).  At each B/D cell, the models
    on two Lagrangians drawn from random.Random(seed) test the certificate:
    their type equals the answer when d > 1 and dominates it when d = 1."""
    rng = random.Random(seed)
    cases = 0
    for fam in ("A", "B", "C", "D"):
        cells = slope_cells(
            fam, max_rank, lambda t: range(2, 2 * t.rank + 2), lambda m: range(1, 2 * m),
            min_rank=1 if fam == "A" else None,
        )
        for t, m, d, s in cells:
            if not is_elliptic_regular(t, m):
                continue
            got, cert = minimal_jordan_type_report(t, s)
            if not cert or got != o_nu(t, s).partition:
                return cases, f"mismatch at {t} {s}"
            for _ in range(2 if fam in "BD" else 0):
                other = jordan_type(model_orthogonal(t, m, d, _orthogonal_space(t, m)[0].random_lagrangian(rng)))
                if (other != got if d > 1 else not dominance_le(got, other)):
                    return cases, f"a random Lagrangian at {t} {s} gives {other} against the certified {got}"
            cases += 1
    return cases, None


def _column_refuses(t, d: int) -> bool:
    try:
        coxeter_delta_column(t, d)
    except UnsupportedSlopeError:
        return True
    return False


def check_delta(max_rank: int = 8) -> tuple[int, int, str | None]:
    """Closed-form Delta rows against the direct Delta of the threshold, and
    against the Coxeter columns at m = h, which must refuse exactly the
    cells the rows refuse there.  Returns the agreeing cells, the cells
    outside the rows' domain, and the first failure."""
    cases = skipped = 0
    for fam in ("A", "B", "C", "D"):
        cells = slope_cells(fam, max_rank, lambda t: range(1, 2 * t.rank + 2), lambda m: range(1, 2 * m))
        for t, m, d, s in cells:
            h = coxeter_number(t)
            direct = delta_of_orbit(t, s, o_nu(t, s))
            if direct < 0:
                return cases, skipped, f"negative Delta at {t} {s}: {direct}"
            try:
                cf = closed_form_delta(t, s)
            except UnsupportedSlopeError:
                # the rows provably stop at nu = 1 away from m = h (and at
                # the Airy slope for D)
                if d < m or (m == h and not (fam == "D" and d > m + 1)):
                    return cases, skipped, f"unexpectedly unsupported: {t} {s}"
                if m == h and not _column_refuses(t, d):
                    return cases, skipped, f"Coxeter column answers outside the rows' domain: {t} {s}"
                skipped += 1
                continue
            if cf != direct:
                return cases, skipped, f"mismatch at {t} {s}: {cf} vs {direct}"
            if m == h and coxeter_delta_column(t, d) != direct:
                return cases, skipped, f"Coxeter column mismatch at {t} {s}"
            cases += 1
    return cases, skipped, None


def check_row_overlap(max_rank: int = 12) -> tuple[int, str | None]:
    """Every applicable threshold-table row gives the same orbit."""
    cases = 0
    for fam in ("A", "B", "C", "D"):
        cells = slope_cells(fam, max_rank, lambda t: range(1, 2 * t.rank + 1), lambda m: range(1, 2 * m + 1))
        for t, m, d, s in cells:
            parts = {r.orbit.partition for r in o_nu_rows(t, s)}
            if len(parts) != 1:
                return cases, f"row conflict at {t} {d}/{m}: {sorted(parts)}"
            cases += 1
    return cases, None


def _random_adjoint(rng: random.Random, fam: str, n: int):
    """A seeded draw of (type, slope, adjoint orbit) at rank n: a regular m,
    a slope d/m with d <= 2m, the multiplicities and the partitions."""
    t = lie_type(fam, n)
    cap = n + 1 if fam == "A" else n
    m = rng.choice([m for m in range(1, 2 * cap + 1) if is_regular(t, m)])
    cells = slope_cells(fam, n, lambda t: (m,), lambda m: range(1, 2 * m + 1), min_rank=n)
    s = rng.choice([s for *_, s in cells])
    zero_mult = rng.randint(0, cap)
    rest = cap - zero_mult
    mults = []
    while rest:
        x = rng.randint(1, rest)
        mults.append(x)
        rest -= x
    eps = 1 if fam == "B" else 0
    tail_total = zero_mult if fam == "A" else 2 * zero_mult + eps
    tails = partitions_of(tail_total) if fam == "A" else valid_partitions(tail_total, ParityClass[fam])
    blocks = tuple(
        Block(f"a{i}", mults[i], rng.choice(list(partitions_of(mults[i]))))
        for i in range(len(mults))
    )
    return t, s, AdjointOrbit(t, blocks, rng.choice(tails))


def _zero_heavy_adjoint(rng: random.Random, fam: str, n: int):
    """A seeded draw at rank n and slope 1/4 (elliptic when n is even) of an
    orbit with one eigenvalue of multiplicity 1 and zero multiplicity n - 1.
    The threshold there has parts near 4, so the tail collapses a random
    partition into parts top - 1 and top, for a random top from 2 to 6, and
    both verdicts occur; no list of valid tails is built."""
    t = lie_type(fam, n)
    rest = 2 * n - 2 + (1 if fam == "B" else 0)
    top, parts = rng.randint(2, 6), []
    while rest:
        parts.append(min(rng.randint(top - 1, top), rest))
        rest -= parts[-1]
    return t, slope(1, 4), AdjointOrbit(t, (Block("a0", 1, (1,)),), collapse(partition(parts), ParityClass[fam]))


def check_q_equivalence(
    per_type: int = 100,
    max_rank: int = 6,
    seed: int = 11,
    min_rank: int | None = None,
    zero_heavy_ranks: tuple[int, ...] = (),
) -> tuple[int, str | None]:
    """The candidate route against the induction route on per_type seeded
    orbits of each classical family, at ranks from min_rank (by default the
    lowest: 3 in D, 2 otherwise) to max_rank; then on 4 seeded orbits of each
    zero-heavy cell of the README: B, C and D at each rank R of
    zero_heavy_ranks, slope 1/4, mults (1,) and zero multiplicity R - 1."""
    rng = random.Random(seed)

    def draws():
        for fam in ("A", "B", "C", "D"):
            for _ in range(per_type):
                yield _random_adjoint(rng, fam, rng.randint(min_rank or (3 if fam == "D" else 2), max_rank))
        for fam in ("B", "C", "D"):
            for n in zero_heavy_ranks:
                for _ in range(4):
                    yield _zero_heavy_adjoint(rng, fam, n)

    cases = 0
    for t, s, a in draws():
        if ds_solve(t, s, a).affirmative != ds_solve_q(t, s, a).affirmative:
            return cases, f"mismatch at {t} {s} {a.to_json()}"
        cases += 1
    return cases, None


def run_all(max_rank: int = 5) -> dict[str, str]:
    results = {
        "coxeter_classical": check_coxeter(max_rank),
        "centralizer_oracle": check_centralizer_oracle(10),
        "skeleton_vs_tables": check_skeleton(max_rank),
        "delta_agreement": check_delta(max_rank + 2),
        "row_overlap": check_row_overlap(max_rank + 4),
        "q_equivalence": check_q_equivalence(60, max_rank),
        # the ranks of the q_growth benchmark, where len(O_nu) is far below
        # the defining dimension, and the README's zero-heavy cells, some
        # with zero sectors larger than 64
        "q_equivalence_high_rank": check_q_equivalence(
            10, 16, min_rank=12, zero_heavy_ranks=(20, 24, 28, 32, 36, 48, 64)
        ),
    }
    return {name: result[-1] or "ok" for name, result in results.items()}
