"""Tests of the benchmark itself: seeded inputs repeat exactly, the warm-up
stream is disjoint from the timed one, the traced run gives the same verdicts
as the untraced run, and BENCHMARK.json names the metrics the run prints."""

import itertools
import json
from pathlib import Path

import inputs
import run
import sweeps
import tracing
import workloads


def _first_cycles(wl, seed, n, role="timed"):
    return list(itertools.islice(wl.cycles(inputs.rng_for(seed, f"{wl.name}/{role}")), n))


def test_same_seed_gives_identical_inputs():
    for seed in (0, 7):
        assert inputs.query_chunk(inputs.rng_for(seed, "q")) == inputs.query_chunk(inputs.rng_for(seed, "q"))
        assert inputs.q_cycle(inputs.rng_for(seed, "g")) == inputs.q_cycle(inputs.rng_for(seed, "g"))
        assert inputs.cli_cycle(inputs.rng_for(seed, "c")) == inputs.cli_cycle(inputs.rng_for(seed, "c"))
    assert inputs.query_chunk(inputs.rng_for(0, "q")) != inputs.query_chunk(inputs.rng_for(1, "q"))


def test_warm_up_stream_differs_from_timed_stream():
    timed = inputs.query_chunk(inputs.rng_for(3, "query_stream/timed"))
    warm = inputs.query_chunk(inputs.rng_for(3, "query_stream/warm"))
    assert not {q.key() for q in timed} & {q.key() for q in warm}


def test_generated_orbits_are_valid_for_their_parity_class():
    rng = inputs.rng_for(5, "partitions")
    for cls, n in (("B", 13), ("C", 12), ("D", 14), ("A", 9)):
        for _ in range(50):
            p = inputs.random_partition(rng, n, cls)
            assert sum(p) == n and list(p) == sorted(p, reverse=True)
            if cls != "A":
                assert workloads.is_valid(p, workloads.ParityClass[cls])


def test_exceptional_dim_c_route_agrees_with_embedded_table():
    for (fam, label), dim in workloads.xd.DIM_C.items():
        assert workloads.exceptional_dim_c(workloads.lie_type(fam), label) == dim, (fam, label)


def test_known_defects_stay_out_of_the_timed_cli_mix():
    assert not set(inputs.KNOWN_DEFECTS) & {name for name, _ in inputs.CLI_CYCLE}
    assert set(workloads.known_defects(4)) <= set(inputs.KNOWN_DEFECTS)


def _traced_and_untraced(wl, cycles):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.drive(cycles, tracer=tracer, keep_results=True)
    finally:
        tracer.uninstall()
    plain = run.drive(cycles, keep_results=True)
    return tracer, traced, plain


def test_traced_and_untraced_runs_give_identical_verdicts():
    for wl, n in ((workloads.QueryStream(), 2), (workloads.CliCold(in_process=True), 1), (workloads.QGrowth(), 1)):
        cycles = _first_cycles(wl, 11, n)
        if isinstance(wl, workloads.QGrowth):  # keep the test fast: the cheapest cells
            cycles = [[op for op in cycles[0] if op.key()[0].startswith("A")][:3]]
        tracer, traced, plain = _traced_and_untraced(wl, cycles)
        assert traced.results == plain.results
        assert not traced.failures and not plain.failures, traced.failures + plain.failures
        assert sum(v[0] for v in tracer.stats.values()) > 0
    # the tracer restored every wrapped function
    assert not hasattr(workloads.solver.ds_solve, "__wrapped__")


def test_self_time_excludes_child_spans():
    wl = workloads.QueryStream()
    tracer, traced, plain = _traced_and_untraced(wl, _first_cycles(wl, 2, 1))
    raw_self = sum(v[1] for v in tracer.stats.values())
    assert 0 < raw_self <= tracer.op_seconds
    assert 0 < tracer.traced_seconds() < tracer.op_seconds
    assert all(tracer.self_seconds(name) >= 0 for name in tracer.stats)
    assert tracer.stats["solver.q_candidates"][0] == 0  # the q route is only in the gate


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracing.WRAPPED, "solver", tracing.WRAPPED["solver"] + ("no_such_function",))
    tracer = tracing.Tracer()
    try:
        tracer.install()
    except RuntimeError as exc:
        assert "no_such_function" in str(exc)
    else:
        raise AssertionError("install accepted a missing name")
    assert not hasattr(workloads.solver.ds_solve, "__wrapped__")


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    per_layer = set(tracing.layer_metrics(tracer)) | {"trace.overhead_ms", "trace.overhead_share"}
    per_layer |= {"cli.import_ms", "cli.main_ms", "cli.interpreter_ms"}
    per_layer |= set(sweeps.names())
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb", "ok_share", "p50_ms", "tail_ms", "ops_per_s"}
