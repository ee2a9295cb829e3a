"""The benchmark's traced run still finds every layer metric it declares.

perfbench/tracer.py wraps hpfold functions by name and reads counters from
their arguments and results; perfbench/run.py turns those into the per-layer
metrics that BENCHMARK.json names. A renamed function or a changed result
shape drops a metric from a traced run without failing it, so this test runs
the same path on tiny configurations of all three solvers.
"""

import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import hpfold as hp
from hpfold.pipeline import RunConfig, solve_sequence

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = (
    RunConfig(sequence="HPPH", sweeps=20, restarts=2, draws=2, seed=1),
    RunConfig(sequence="HPPH", solver="exhaustive", draws=2, seed=1),
    RunConfig(sequence="HPH", solver="vqe", max_evals=40, draws=2, seed=1),
)


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def timed_solve(cfg):
    start = time.perf_counter()
    result = solve_sequence(cfg)
    return result, time.perf_counter() - start


def test_traced_run_reports_every_declared_layer_metric(tmp_path):
    tracer, run = load_bench_module("tracer"), load_bench_module("run")
    solve_tracer, emit_tracer = tracer.Tracer(), tracer.Tracer()
    results, plain_s, traced_s = [], 0.0, 0.0
    for cfg in CONFIGS:
        plain_s += timed_solve(cfg)[1]
        solve_tracer.install()
        try:
            result, seconds = timed_solve(cfg)
        finally:
            solve_tracer.uninstall()
        results.append(result)
        traced_s += seconds
    emit_tracer.install()
    try:
        for i, result in enumerate(results):
            hp.emit(result, str(tmp_path / str(i)))
    finally:
        emit_tracer.uninstall()

    metrics, missing = run.layer_metrics(solve_tracer, emit_tracer, plain_s, traced_s)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert missing == []
    assert solve_tracer.counter_errors == [] and emit_tracer.counter_errors == []
    assert [name for name in declared if name not in metrics] == []
    assert [name for name in declared if not math.isfinite(metrics[name][0])] == []

    # one solvers.anneal span and counter per draw: the tracer's per-draw contract
    cfg = CONFIGS[0]
    n_vars = hp.VariableLayout(len(cfg.sequence), first_turn_fixed=cfg.fix_first_turn).n_vars
    assert sum(span[0] == "solvers.anneal" for span in solve_tracer.spans) == cfg.draws
    assert solve_tracer.counters["anneal.proposals"] == (
        cfg.draws * cfg.sweeps * cfg.restarts * n_vars
    )

    # one ansatz.simulate per objective evaluation plus the final state, per draw
    cfg, result = CONFIGS[2], results[2]
    evaluations = sum(out.selected.provenance["evaluations"] for out in result.draws)
    assert solve_tracer.totals()["ansatz.simulate"]["calls"] == evaluations + cfg.draws
