"""Span tracing of the isods layers from outside the package.

The tracer replaces public functions of the package with wrappers, in every
isods module that holds a reference to them, and restores them on
``uninstall``.  Nothing under ``src/`` changes.  A wrapper records only while
an operation of the benchmark is open (``begin_op``/``end_op``), so warm-up
and correctness gates leave no spans.

Self time is computed online for every call: a span's duration minus the
time of the child spans it contains.  The wrapper's own cost would otherwise
land in the self time of hot leaves (inside their spans) and of their
callers (outside them).  The tracer measures both parts on a no-op
function, once at ``install`` and then after an operation at most every
CALIBRATION_INTERVAL_S, because the host's speed, and with it the
wrapper's cost, drifts during a run.  Each round prices the spans recorded
since the one before, and the reported self times subtract the average
cost per call and per child span.  The span log itself (name, start, end, parent, operation id) is kept
in memory up to MAX_SPANS entries and written out at exit; spans beyond the
cap are counted, not stored, so a hot leaf such as ``dominance_le`` cannot
exhaust memory.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

MAX_SPANS = 50_000
CALIBRATION_CALLS = 2_000  # no-op calls per calibration round
CALIBRATION_INTERVAL_S = 0.1

# Module of the package -> layer it belongs to.
LAYER_OF_MODULE = {
    "partitions": "partitions",
    "orbits": "orbits",
    "solver": "solver",
    "coxeter": "coxeter",
    "skeleton": "skeleton",
    "linalg": "skeleton",
    "rigidity": "rigidity",
    "tables": "tables",
    "checks": "tables",
    "cli": "cli",
}
LAYERS = ("partitions", "orbits", "solver", "coxeter", "skeleton", "rigidity", "tables", "cli")

# Public functions wrapped, by module.  Every one must exist.
WRAPPED = {
    "partitions": ("collapse", "dominance_le", "partitions_of", "lambda_evenly", "lambda_tilde"),
    "orbits": ("ls_induction", "closure_le_detail", "dim_centralizer", "dim_centralizer_oracle"),
    "solver": ("o_nu_rows", "o_nu", "ds_solve", "q_candidates", "ds_solve_q"),
    "coxeter": ("minimal_allowable_in_finite", "coxeter_candidates", "coxeter_solve", "orbit_J_reg"),
    "skeleton": ("minimal_jordan_type_report", "model_orthogonal", "jordan_type"),
    "linalg": ("jordan_type_from_ranks", "mat_mul", "sparse_rank"),
    "rigidity": ("delta_of_orbit", "rigidity_report", "non_resonant", "closed_form_delta", "scan_rigid"),
    "tables": (
        "generate", "t_clCox", "t_excCox", "t_completecl", "t_cl_index_rig", "t_cl_ell_rig",
        "dssoln_f4", "potigexc_numerics",
    ),
    "checks": ("run_all",),
    "cli": ("main",),
}

# Functions reported one by one (calls and self time).
REPORTED = (
    "partitions.collapse",
    "partitions.dominance_le",
    "partitions.partitions_of",
    "orbits.ls_induction",
    "orbits.closure_le_detail",
    "orbits.dim_centralizer_oracle",
    "solver.o_nu_rows",
    "solver.ds_solve",
    "solver.q_candidates",
    "solver.ds_solve_q",
    "rigidity.delta_of_orbit",
    "rigidity.closed_form_delta",
    "coxeter.minimal_allowable_in_finite",
    "coxeter.coxeter_solve",
    "skeleton.minimal_jordan_type_report",
    "linalg.jordan_type_from_ranks",
    "linalg.sparse_rank",
)

# Table generators reported by their `ds tables --name`.
TABLE_OF_FUNCTION = {
    "t_clCox": "t_clCox",
    "t_excCox": "t_excCox",
    "t_completecl": "t_completecl",
    "t_cl_index_rig": "t_cl_index_rig",
    "t_cl_ell_rig": "t_cl_ell_rig",
    "dssoln_f4": "DSsolnF4",
    "potigexc_numerics": "potigexc-numerics",
}


class Tracer:
    """In-memory spans and exact self times for the wrapped functions."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span id, name, start, end, parent id, op id)
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, child spans]
        self.op_seconds = 0.0  # total duration of the operation spans
        self.subsets_scanned = 0
        self.minimal_subsets = 0
        self.q_kept = 0
        self.q_examined = 0
        self._stack: list[list] = []  # open frames: [span id, name, child seconds, child spans]
        self._next_id = 0
        self._op_id: int | None = None
        self._patches: list[tuple] = []
        # Wrapper cost of the spans priced so far, inside the spans and left
        # to their callers; the spans priced; the latest round's cost per span.
        self._cost = [0.0, 0.0]
        self._spans_priced = 0
        self._last = (0.0, 0.0)
        self._next_calibration = 0.0
        self._noop = lambda: None
        self._wrapped_noop = self._wrap("calibration", self._noop)
        self._noop_stats = self.stats.pop("calibration")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self._calibrate()
        modules = {name: importlib.import_module(f"isods.{name}") for name in WRAPPED}
        importlib.import_module("isods")
        loaded = [m for n, m in sys.modules.items() if n == "isods" or n.startswith("isods.")]
        for mod_name, names in WRAPPED.items():
            for fn_name in names:
                original = getattr(modules[mod_name], fn_name, None)
                if not callable(original):
                    self.uninstall()
                    raise RuntimeError(f"traced function isods.{mod_name}.{fn_name} no longer exists")
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def _calibrate(self) -> None:
        """One round on a no-op: its wrapper cost per call, inside the span
        and left to the caller, prices the spans recorded since the last
        round.  The round's own spans leave no trace."""
        n = CALIBRATION_CALLS
        noop, wrapped, stats = self._noop, self._wrapped_noop, self._noop_stats
        saved = (self._op_id, self._stack[:], len(self.spans), self.dropped)
        self._op_id = -1
        self._stack[:] = [[-1, "calibration", 0.0, 0]]
        stats[:] = [0, 0.0, 0]
        start = perf_counter()
        for _ in range(n):
            noop()
        raw = perf_counter() - start
        start = perf_counter()
        for _ in range(n):
            wrapped()
        traced = perf_counter() - start
        self._op_id, self._stack[:], spans, self.dropped = saved
        del self.spans[spans:]
        inner = stats[1] / n
        self._last = (inner, max(0.0, (traced - raw) / n - inner))
        recorded = self.span_count()
        for i in (0, 1):
            self._cost[i] += (recorded - self._spans_priced) * self._last[i]
        self._spans_priced = recorded
        self._next_calibration = perf_counter() + CALIBRATION_INTERVAL_S

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        after = {
            "coxeter.minimal_allowable_in_finite": self._count_subsets,
            "solver.q_candidates": self._count_kept,
            "partitions.partitions_of": self._count_examined,
        }.get(name)
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [self._next_id, name, 0.0, 0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[2]
                stats[2] += frame[3]
                parent[2] += duration
                parent[3] += 1
                self._log(frame[0], name, start, end, parent[0])
            if after is not None:
                after(args, result, parent[1])
            return result

        return wrapper

    # -- counters measured at the layer boundary ----------------------------

    def _count_subsets(self, args, result, parent):
        t = args[0]
        self.subsets_scanned += 2 ** t.rank
        self.minimal_subsets += len(result)

    def _count_kept(self, args, result, parent):
        self.q_kept += len(result)

    def _count_examined(self, args, result, parent):
        if parent == "solver.q_candidates":
            self.q_examined += len(result)

    # -- operations ----------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        self._op_id = op_id
        self._stack[:] = [[self._next_id, f"op.{name}", 0.0, 0]]
        self._next_id += 1
        self._op_start = perf_counter()

    def end_op(self) -> None:
        end = perf_counter()
        frame = self._stack.pop()
        self.op_seconds += end - self._op_start
        self._log(frame[0], frame[1], self._op_start, end, None)
        self._op_id = None
        if perf_counter() >= self._next_calibration:
            self._calibrate()

    def _log(self, span_id, name, start, end, parent_id) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent_id, self._op_id))
        else:
            self.dropped += 1

    # -- results ---------------------------------------------------------------

    def span_count(self) -> int:
        return sum(calls for calls, _, _ in self.stats.values())

    def cost_per_span(self) -> tuple[float, float]:
        """Average wrapper cost per span, inside it and left to its caller;
        spans after the last round are priced at that round's cost."""
        spans = self.span_count()
        if not spans:
            return self._last
        rest = spans - self._spans_priced
        return tuple((self._cost[i] + rest * self._last[i]) / spans for i in (0, 1))

    def self_seconds(self, name: str) -> float:
        """Self time with the wrapper's cost taken out (never below 0)."""
        calls, self_s, children = self.stats[name]
        inner, outer = self.cost_per_span()
        return max(0.0, self_s - calls * inner - children * outer)

    def traced_seconds(self) -> float:
        """Total time of the operations with the wrapper's cost taken out."""
        return self.op_seconds - self.span_count() * sum(self.cost_per_span())

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name in self.stats:
            out[LAYER_OF_MODULE[name.split(".")[0]]] += self.self_seconds(name)
        return out

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: calls and self time of the reported
    functions, self time and share per layer and per table, and the ratios
    counted at the layer boundaries."""
    m: dict[str, tuple[float, str]] = {}
    for name in REPORTED:
        m[f"{name}.calls"] = (tracer.stats[name][0], "count")
        m[f"{name}.self_ms"] = (tracer.self_seconds(name) * 1e3, "ms")
    for fn, table in TABLE_OF_FUNCTION.items():
        m[f"tables.{table}.self_ms"] = (tracer.self_seconds(f"tables.{fn}") * 1e3, "ms")
    total = tracer.traced_seconds()
    for layer, self_s in tracer.layer_self_seconds().items():
        m[f"layer.{layer}.self_ms"] = (self_s * 1e3, "ms")
        m[f"layer.{layer}.share"] = (self_s / total if total > 0 else 0.0, "share")
    m["solver.q_keep_ratio"] = (tracer.q_kept / tracer.q_examined if tracer.q_examined else 0.0, "ratio")
    m["coxeter.subsets_scanned"] = (tracer.subsets_scanned, "count")
    m["coxeter.minimal_ratio"] = (
        tracer.minimal_subsets / tracer.subsets_scanned if tracer.subsets_scanned else 0.0,
        "ratio",
    )
    return m
