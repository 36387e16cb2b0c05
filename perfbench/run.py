"""Benchmark of the isods decision engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the environment, the metrics under their workload-specific names and
the first failures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
INTERPRETER_PROBES = 5

WORKLOAD_NAMES = ("query_stream", "cli_cold", "oracle_sweep", "q_growth")

# Workload-specific names of the end-to-end metrics: name -> (generic metric,
# scale, unit).
NAMED = {
    "query_stream": {
        "query_p50_us": ("p50_ms", 1e3, "us"),
        "query_p99_us": ("p99_ms", 1e3, "us"),
        "queries_per_s": ("ops_per_s", 1, "1/s"),
    },
    "cli_cold": {"cli_p50_ms": ("p50_ms", 1, "ms"), "cli_p90_ms": ("tail_ms", 1, "ms")},
    "oracle_sweep": {"sweep_s": ("cycle_s", 1, "s")},
    "q_growth": {
        "q_p50_ms": ("p50_ms", 1, "ms"),
        "q_p90_ms": ("tail_ms", 1, "ms"),
        "q_verdicts_per_s": ("ops_per_s", 1, "1/s"),
    },
}


@dataclass
class Record:
    """What one pass of the closed loop measured."""

    seconds: list[float] = field(default_factory=list)  # timed span of each operation
    reference_ms: list[float] = field(default_factory=list)  # samples of the host-speed reference
    sample_index: list[int] = field(default_factory=list)  # per operation: latest sample before it
    peak_rss_kb: int = 0  # high-water mark before the first gate ran
    cycle_seconds: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    keys: list = field(default_factory=list)


def drive(
    cycles, seconds: float | None = None, tracer=None, keep_results: bool = False, gate: bool = True,
    reference=None, peak_rss=None,
) -> Record:
    """Closed loop with one caller: the operations of a cycle run back to
    back, each starting when the previous one has returned; their gates run
    after the cycle, so a gate's work does not disturb the next timed call.
    Whole cycles run until `seconds` have passed (or until `cycles` ends), so
    every run has the same mix.  A given host-speed `reference` is timed
    between operations every hostspeed.INTERVAL_S.
    `peak_rss` (a function returning KiB) is read once, after the first
    cycle's operations and before any gate, so the gates' memory is not in
    it."""
    rec = Record()
    deadline = None if seconds is None else perf_counter() + seconds
    next_reference = perf_counter()
    for cycle in cycles:
        outcomes = []
        for op in cycle:
            if reference is not None and perf_counter() >= next_reference:
                rec.reference_ms.append(reference())
                next_reference = perf_counter() + hostspeed.INTERVAL_S
            if reference is not None:
                rec.sample_index.append(len(rec.reference_ms) - 1)
            if tracer is not None:
                tracer.begin_op(len(rec.seconds), op.name)
            start = perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # noqa: BLE001 - an undocumented exception is a failure
                result, error = None, exc
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            rec.seconds.append(elapsed)
            outcomes.append((result, error))
        rec.cycle_seconds.append(sum(rec.seconds[-len(cycle):]))
        if peak_rss is not None and not rec.peak_rss_kb:
            rec.peak_rss_kb = peak_rss()
        for op, (result, error) in zip(cycle, outcomes):
            if error is not None:
                message = f"undocumented exception {type(error).__name__}: {error}"
            elif gate:
                try:
                    message = op.check(result)
                except Exception as exc:  # noqa: BLE001
                    message = f"gate raised {type(exc).__name__}: {exc}"
            else:
                message = None
            if message:
                rec.failures.append((op.name, message))
            if keep_results:
                rec.results.append(result)
            if op.key is not None:
                rec.keys.append(op.key())
        if deadline is not None and perf_counter() >= deadline:
            break
    return rec


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _run(args: list[str], **kw) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True, **kw)


def interpreter_ms() -> float:
    """Median wall time of a bare `python -c pass`: the floor under any `ds` call."""
    times = []
    for _ in range(INTERPRETER_PROBES):
        start = perf_counter()
        _run([sys.executable, "-c", "pass"])
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of import plus warm-up (see setup_probe),
    corrected for host speed and raw."""
    corrected, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = _run([sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)])
        setup_s, speed = map(float, proc.stdout.split()[-2:])
        corrected.append(setup_s * speed)
        raw.append(setup_s)
    return statistics.median(corrected), statistics.median(raw)


def setup_probe(workload: str, seed: int) -> None:
    """Print the time of import plus warm-up in this fresh process, then the
    host-speed factor measured right after it."""
    start = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload]()
    wl.warm_up(seed)
    setup_s = perf_counter() - start
    print(setup_s, hostspeed.factor([wl.reference() for _ in range(3)]))


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def latency(rec: Record, scales: list[float] | None = None) -> dict:
    """Latency metrics of the timed spans, each multiplied by its scale (raw
    without scales)."""
    ms = [x * 1e3 * (scales[i] if scales else 1.0) for i, x in enumerate(rec.seconds)]
    return {
        "p50_ms": (statistics.median(ms), "ms"),
        "tail_ms": (percentile(ms, 90), "ms"),
        "ops_per_s": (len(ms) / sum(ms) * 1e3, "1/s"),
        "p99_ms": (percentile(ms, 99), "ms"),
        "cycle_s": (statistics.median(rec.cycle_seconds), "s"),
    }


def untraced_run(wl, seed: int, seconds: float) -> tuple[dict, Record, dict]:
    import workloads

    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliCold) else resource.RUSAGE_SELF
    rec = drive(wl.timed_cycles(seed), seconds, reference=wl.reference, peak_rss=lambda: resource.getrusage(who).ru_maxrss)
    peak_rss_mb = rec.peak_rss_kb / 1024
    end_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_s, raw_setup_s = setup_seconds(wl.name, seed)
    speed = hostspeed.factor(rec.reference_ms)
    corrected = latency(rec, hostspeed.local_factors(rec.reference_ms, rec.sample_index))
    failed_share = len(rec.failures) / len(rec.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (1 - failed_share, "share"),
        **{k: corrected[k] for k in ("p50_ms", "tail_ms", "ops_per_s")},
    }
    raw = latency(rec)
    named = {"failed_share": (failed_share, "share"), "setup_s": (raw_setup_s, "s"), "peak_rss_mb": metrics["peak_rss_mb"]}
    for name, (generic, scale, unit) in NAMED[wl.name].items():
        named[name] = (raw[generic][0] * scale, unit)
    details = {
        "raw_named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "host_speed": speed,
        "peak_rss_mb_end_of_run": end_rss_mb,
        "reference_samples": len(rec.reference_ms),
    }
    return metrics, rec, details


def traced_run(wl, seed: int, interpreter: float) -> tuple[dict, Record, dict]:
    """Fixed work (the first trace_cycles cycles): once traced, then once
    untraced for the tracing overhead and to check the verdicts agree."""
    import sweeps
    import tracing
    import workloads

    if isinstance(wl, workloads.CliCold):
        wl.in_process = True
    cycles = list(itertools.islice(wl.timed_cycles(seed), wl.trace_cycles))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = drive(cycles, tracer=tracer, keep_results=True)
    finally:
        tracer.uninstall()
    plain = drive(cycles, keep_results=True, gate=False)
    for i, (a, b) in enumerate(zip(traced.results, plain.results)):
        if a != b:
            traced.failures.append((f"op {i}", f"traced verdict {a!r} differs from untraced {b!r}"))
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{wl.name}-{seed}.jsonl"
    tracer.write(span_file)
    overhead_s = sum(traced.seconds) - sum(plain.seconds)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ms"] = (overhead_s * 1e3, "ms")
    metrics["trace.overhead_share"] = (overhead_s / sum(plain.seconds), "share")
    metrics |= cli_probe(seed, interpreter)
    metrics |= sweeps.run_sweeps()
    return metrics, traced, {"span_file": str(span_file.relative_to(ROOT)), "dropped_spans": tracer.dropped}


def cli_probe(seed: int, interpreter: float) -> dict:
    import inputs
    import workloads

    import_s = [
        float(_run([sys.executable, "-c", "import time; t = time.perf_counter(); import isods.cli; print(time.perf_counter() - t)"]).stdout)
        for _ in range(INTERPRETER_PROBES)
    ]
    main_s = []
    for case in inputs.cli_cycle(inputs.rng_for(seed, "cli/probe")):
        start = perf_counter()
        workloads.ds_in_process(case.argv)
        main_s.append(perf_counter() - start)
    return {
        "cli.import_ms": (statistics.median(import_s) * 1e3, "ms"),
        "cli.main_ms": (statistics.median(main_s) * 1e3, "ms"),
        "cli.interpreter_ms": (interpreter, "ms"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "isods" / "__init__.py").is_file():
        sys.stderr.write(f"error: no isods package under {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import workloads
    from isods import partitions

    nproc = len(os.sched_getaffinity(0))
    wl = workloads.WORKLOADS[args.workload]()
    wl.warm_up(args.seed)
    cache_size = partitions.partitions_of.cache_info().currsize
    interpreter = interpreter_ms()
    if args.trace:
        metrics, rec, details = traced_run(wl, args.seed, interpreter)
    else:
        metrics, rec, details = untraced_run(wl, args.seed, args.seconds)
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": nproc,
            "cores_used": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "interpreter_ms": interpreter,
            "partitions_of_cache_after_warm_up": cache_size,
        },
        **details,
        "repeat_share": (1 - len(set(rec.keys)) / len(rec.keys)) if rec.keys else 0.0,
        "known_defects": workloads.known_defects(args.seed) if isinstance(wl, workloads.CliCold) else [],
        "failures": [f"{name}: {msg}" for name, msg in rec.failures[:5]],
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": len(rec.seconds),
        "failed": len(rec.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
