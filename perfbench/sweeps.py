"""Growth sweeps: the time of one call against problem size, for the paths
whose cost grows fastest.  Each size is timed as the best of REPEAT calls,
and each size after the first also gets the ratio to the previous size: a
ratio that stays constant as the size steps by a constant amount means
exponential growth, a ratio that falls towards 1 means polynomial growth.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

from isods import coxeter, orbits, skeleton, solver
from isods.orbits import NilpotentOrbit
from isods.root_data import lie_type, slope

REPEAT = 2
Q_NU_SLOT = 16


def _quarter_slope(M: int):
    """d/(2M) with d the least integer >= M/2 coprime to 2M."""
    d = M // 2
    while gcd(d, 2 * M) != 1:
        d += 1
    return slope(d, 2 * M)


def _three_blocks(N: int) -> tuple[int, ...]:
    k, r = divmod(N, 3)
    return tuple(k + 1 if i < r else k for i in range(3))


# (metric prefix, size key, sizes, call at one size, report ratios)
SWEEPS = (
    # coxeter_solve on B_r at d = 1
    ("sweep.coxeter", "rank", (8, 10, 12, 14), lambda r: coxeter.coxeter_solve(lie_type("B", r), 1), True),
    # q_candidates on C_M with one slot of M, nu near 1/4
    ("sweep.q_candidates", "slot", (12, 14, 16, 18),
     lambda M: solver.q_candidates(lie_type("C", M), _quarter_slope(M), (M,), 0), True),
    # q_candidates on C_16 with one slot of 16 at nu = d/32
    ("sweep.q_candidates", f"slot{Q_NU_SLOT}_nu", (1, 5, 9, 13, 17, 25),
     lambda d: solver.q_candidates(lie_type("C", Q_NU_SLOT), slope(d, 2 * Q_NU_SLOT), (Q_NU_SLOT,), 0), False),
    # lattice-model oracle on B_r at slope 1/(2r)
    ("sweep.skeleton", "rank", (4, 6, 8, 10), lambda r: skeleton.minimal_jordan_type_report(lie_type("B", r), slope(1, 2 * r)), True),
    # matrix-kernel centralizer in sl_N, three near-equal Jordan blocks
    ("sweep.centralizer_oracle", "total", (8, 10, 12, 14, 16),
     lambda N: orbits.dim_centralizer_oracle(NilpotentOrbit(lie_type("A", N - 1), _three_blocks(N)), bound=N), True),
)


def best_ms(fn) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best * 1e3


def names() -> list[str]:
    out = []
    for prefix, key, sizes, _, ratios in SWEEPS:
        out += [f"{prefix}.{key}{size}_ms" for size in sizes]
        if ratios:
            out += [f"{prefix}.ratio_{key}{size}" for size in sizes[1:]]
    return out


def run_sweeps() -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    for prefix, key, sizes, call, ratios in SWEEPS:
        prev = None
        for size in sizes:
            ms = best_ms(lambda: call(size))
            m[f"{prefix}.{key}{size}_ms"] = (ms, "ms")
            if ratios and prev is not None:
                m[f"{prefix}.ratio_{key}{size}"] = (ms / prev, "ratio")
            prev = ms
    return m
