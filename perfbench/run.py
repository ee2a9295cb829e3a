"""Benchmark of the hpfold pipeline: time, quality and per-layer cost.

Run from the repository root:

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 52 --trace 0

The workload (see workloads.py and BENCHMARK.json) is a fixed list of
``hpfold.solve_sequence`` calls generated from ``--seed``. One process runs
them with workers=1 and one BLAS thread.

``--trace 0`` runs every call once, checks each result against the scalar
oracle (checks.py), then repeats calls round-robin until ``--seconds`` have
passed, requiring every repeat to reproduce the first result exactly. It
reports set-up time (median of fresh interpreters that import hpfold and
prepare the workload's sequences), solve time (sum over calls of the median
wall time per call), the contact quality of the first pass and peak memory.
The host's speed drifts by half or more over minutes, so both times are
rescaled to nominal host speed by a reference task timed right before and
after each call (hostspeed.py); the times as measured are printed as well.

``--trace 1`` runs every call twice, plainly and with tracer.py wrapping the
public layer functions, then emits and reloads every result, and reports
per-layer times and counts plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A detailed
record, including the determinism digest and the machine, goes to
``.bench_out/`` under the repository root. The program exits with code 2
when the repository's ``src/hpfold`` package is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Imports hpfold in a fresh interpreter and prepares the given sequences the
# way solve_sequence does before its first draw; prints the elapsed seconds.
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hpfold as hp
for text in sys.argv[2:]:
    seq = hp.parse_sequence(text)
    hp.VariableLayout(n_beads=len(seq))
    hp.calibrate_penalties(seq)
print(time.perf_counter() - start)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workers": 1,
    }


def measure_setup(sequences: list[str]) -> tuple[list[float], list[float]]:
    """Seconds of each fresh-interpreter set-up, as measured and host-scaled."""
    measured, scaled = [], []
    before = hostspeed.sample()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), *sequences],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        after = hostspeed.sample()
        measured.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(hostspeed.scale(measured[-1], before, after))
        before = after
    return measured, scaled


class Runner:
    """Runs workload units, timing and checking each call."""

    def __init__(self, units):
        self.units = units
        self.times = [[] for _ in units]
        # Per unit, the first result's (feasible, contacts) for the winner and
        # for every draw; results themselves are dropped so that memory does
        # not grow with the number of repeats.
        self.outcomes = [None] * len(units)
        self.digests = [None] * len(units)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def solve(self, i: int):
        """One timed call; returns (result, seconds), or (None, nan) if it raised."""
        unit = self.units[i]
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = hp.solve_sequence(unit.config)
            return result, time.perf_counter() - start
        except Exception:
            self.fail(f"{unit.config.sequence}: {traceback.format_exc(limit=3)}")
            return None, math.nan

    def check(self, i: int, result) -> None:
        """Re-validate a result and require it to repeat the unit's first one."""
        if result is None:
            return
        unit = self.units[i]
        try:
            problems = checks.check_result(result, unit)
            digest = checks.digest(result)
        except Exception:
            self.fail(f"{unit.config.sequence}: {traceback.format_exc(limit=3)}")
            return
        if self.digests[i] is None:
            self.digests[i] = digest
            self.outcomes[i] = (
                (result.best.selected.feasible, result.best.selected.contacts),
                [(out.selected.feasible, out.selected.contacts) for out in result.draws],
            )
        elif digest != self.digests[i]:
            problems.append(f"{unit.config.sequence}: repeat differs from the first result")
        if problems:
            self.fail("; ".join(problems))

    def step(self, i: int) -> None:
        """Solve, check and time unit ``i``, keeping only its outcome."""
        result, elapsed = self.solve(i)
        self.check(i, result)
        self.times[i].append(elapsed)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def quality(units, outcomes, unit_seconds) -> dict:
    """Contact quality of the first pass and time to target (TTS99)."""
    best_fracs, draw_contacts, draw_bounds = [], 0, 0
    feasible_draws = total_draws = misses = targeted = 0
    tts = 0.0
    for unit, outcome, seconds in zip(units, outcomes, unit_seconds):
        draws = unit.config.draws
        total_draws += draws
        bound = hp.max_contacts(hp.parse_sequence(unit.config.sequence))
        draw_bounds += bound * draws
        targeted += unit.target is not None
        if outcome is None:
            best_fracs.append(0.0)
            misses += unit.target is not None
            continue
        (feasible, contacts), per_draw = outcome
        best = contacts if feasible else 0
        best_fracs.append(best / bound)
        hits = 0
        for feasible, contacts in per_draw:
            if feasible:
                feasible_draws += 1
                draw_contacts += contacts
                hits += unit.target is not None and contacts >= unit.target
        if unit.target is None:
            continue
        misses += best < unit.target
        # Ronnow et al., Science 345, 420 (2014): draws needed for 99% confidence
        p = hits / draws
        repeats = 1.0 if p >= 0.99 else (math.inf if p == 0 else math.log(0.01) / math.log(1 - p))
        tts += seconds / draws * repeats
    return {
        "best_contact_frac": statistics.fmean(best_fracs),
        "draw_contact_frac": draw_contacts / draw_bounds,
        "feasible_frac": feasible_draws / total_draws,
        "floor_misses": misses,
        "target_hit_frac": 1 - misses / targeted,
        "tts99_s": tts,
    }


def untraced(args, units) -> tuple[dict, Runner, dict]:
    setup, setup_scaled = measure_setup([u.config.sequence for u in units])
    runner = Runner(units)
    deadline = time.perf_counter() + args.seconds
    speed = [hostspeed.sample()]
    scaled = [[] for _ in units]
    done = 0
    while done < len(units) or time.perf_counter() < deadline:
        i = done % len(units)
        runner.step(i)
        speed.append(hostspeed.sample())
        scaled[i].append(hostspeed.scale(runner.times[i][-1], speed[-2], speed[-1]))
        done += 1
    medians = [statistics.median(t) for t in runner.times]
    q = quality(units, runner.outcomes, medians)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "solve_scaled_s": (sum(statistics.median(t) for t in scaled), "s"),
        "best_contact_frac": (q["best_contact_frac"], "fraction"),
        "target_hit_frac": (q["target_hit_frac"], "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "outcomes": [
            {"sequence": u.config.sequence, "target": u.target, "winner": o and o[0], "draws": o and o[1]}
            for u, o in zip(units, runner.outcomes)
        ],
        "setup_samples_s": setup,
        "setup_scaled_samples_s": setup_scaled,
        "solve_s": sum(medians),
        "reference_samples_s": speed,
        "unit_seconds": runner.times,
        "draw_contact_frac": q["draw_contact_frac"],
        "feasible_frac": q["feasible_frac"],
        "floor_misses": q["floor_misses"],
        "tts99_s": q["tts99_s"],
        "failed_frac": runner.failed / runner.attempted,
    }
    return metrics, runner, details


def traced(args, units) -> tuple[dict, Runner, dict]:
    runner = Runner(units)
    solve_tracer = tracer.Tracer()
    results, plain, timed, spans = [], [], [], []
    # Plain and traced calls of each unit run back to back, in alternating
    # order, so that drift in host speed cancels from the overhead estimate.
    for i in range(len(units)):
        for traced_call in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_call:
                first = len(solve_tracer.spans)
                solve_tracer.install()
                try:
                    result, elapsed = runner.solve(i)
                finally:
                    solve_tracer.uninstall()
                results.append(result)
                timed.append(elapsed)
                spans.append((first, len(solve_tracer.spans)))
            else:
                result, elapsed = runner.solve(i)
                plain.append(elapsed)
            runner.check(i, result)
            result = None

    emit_tracer = tracer.Tracer()
    out_dir = Path(tempfile.mkdtemp(prefix="emit-", dir=OUT))
    try:
        emit_tracer.install()
        try:
            written = [
                (result, hp.emit(result, str(out_dir / str(i))))
                for i, result in enumerate(results) if result is not None
            ]
        finally:
            emit_tracer.uninstall()
        for result, paths in written:
            for problem in checks.check_emitted(result, paths):
                runner.fail(problem)
    finally:
        shutil.rmtree(out_dir)

    metrics, missing = layer_metrics(solve_tracer, emit_tracer, sum(plain), sum(timed))
    details = {
        "plain_solve_s": sum(plain),
        "traced_solve_s": sum(timed),
        "missing": missing,
        "layers": solve_tracer.totals(),
        "per_call": [
            {"sequence": unit.config.sequence, "layers": solve_tracer.totals(*span_range)}
            for unit, span_range in zip(units, spans)
        ],
        "spans": {"solve": solve_tracer.to_dict(), "emit": emit_tracer.to_dict()},
    }
    return metrics, runner, details


def layer_metrics(solve_tr, emit_tr, plain_s, traced_s):
    totals = solve_tr.totals()
    emitted = emit_tr.totals()
    counters = solve_tr.counters
    # A metric is missing when a traced function it times no longer exists,
    # or when the counters read from that function's arguments or result fail.
    gone = set(solve_tr.missing) | set(emit_tr.missing)
    broken = gone | set(solve_tr.counter_errors) | set(emit_tr.counter_errors)
    missing_targets = gone | {f"{name} counters" for name in broken}

    def ms(name, table=totals):
        return table.get(name, {}).get("total_s", 0.0) * 1000

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def per_s(count, name):
        seconds = ms(name) / 1000
        return count / seconds if seconds > 0 else 0.0

    def self_ms(layer):
        return 1000 * sum(row["self_s"] for name, row in totals.items() if name.startswith(layer + "."))

    solve_total = ms("pipeline.solve_sequence")
    validated = counters["validate.rejected"]
    checked = calls("model.validate")
    # name: (value, unit, traced functions it depends on)
    table = {
        "encoder.draw_axes_ms": (ms("encoder.draw_axes"), "ms", ["encoder.draw_axes"]),
        "encoder.assemble_ms": (ms("encoder.assemble"), "ms", ["encoder.assemble"]),
        "encoder.to_dense_calls": (calls("encoder.to_dense"), "count", ["encoder.to_dense"]),
        "encoder.to_dense_ms": (ms("encoder.to_dense"), "ms", ["encoder.to_dense"]),
        "encoder.self_ms": (self_ms("encoder"), "ms", []),
        "polynomial.terms": (counters["polynomial.terms"], "count", ["encoder.assemble counters"]),
        "solvers.anneal_ms": (ms("solvers.anneal"), "ms", ["solvers.anneal"]),
        "solvers.anneal_proposals_per_s": (
            per_s(counters["anneal.proposals"], "solvers.anneal"), "1/s", ["solvers.anneal counters"]),
        "solvers.anneal_kept_frac": (
            counters["anneal.kept"] / counters["anneal.rows"] if counters["anneal.rows"] else 0.0,
            "fraction", ["solvers.anneal counters"]),
        "solvers.postselect_ms": (ms("solvers.postselect"), "ms", ["solvers.postselect"]),
        "solvers.postselect_candidates_per_s": (
            per_s(counters["postselect.candidates"], "solvers.postselect"), "1/s",
            ["solvers.postselect counters"]),
        "solvers.exhaustive_ms": (ms("solvers.exhaustive"), "ms", ["solvers.exhaustive"]),
        "solvers.exhaustive_states_per_s": (
            per_s(counters["exhaustive.states"], "solvers.exhaustive"), "1/s",
            ["solvers.exhaustive counters"]),
        "solvers.vqe_ms": (ms("solvers.vqe_statevector"), "ms", ["solvers.vqe_statevector"]),
        "solvers.vqe_evals_per_s": (
            per_s(counters["vqe.evals"], "solvers.vqe_statevector"), "1/s",
            ["solvers.vqe_statevector counters"]),
        "solvers.self_ms": (self_ms("solvers"), "ms", []),
        "model.validate_calls": (checked, "count", ["model.validate"]),
        "model.validate_ms": (ms("model.validate"), "ms", ["model.validate"]),
        "model.decode_ms": (ms("model.decode_bitstring"), "ms", ["model.decode_bitstring"]),
        "model.pair_exclusions_ms": (ms("model.pair_exclusions"), "ms", ["model.pair_exclusions"]),
        "model.count_contacts_calls": (calls("model.count_contacts"), "count", ["model.count_contacts"]),
        "model.reject_frac": (
            validated / checked if checked else 0.0, "fraction", ["model.validate counters"]),
        "ising.qubo_to_ising_ms": (ms("ising.qubo_to_ising"), "ms", ["ising.qubo_to_ising"]),
        "ising.basis_energies_ms": (ms("ising.basis_energies"), "ms", ["ising.basis_energies"]),
        "ansatz.simulate_calls": (calls("ansatz.simulate"), "count", ["ansatz.simulate"]),
        "ansatz.simulate_ms": (ms("ansatz.simulate"), "ms", ["ansatz.simulate"]),
        "pipeline.self_ms": (self_ms("pipeline"), "ms", ["pipeline.solve_sequence"]),
        "pipeline.emit_ms": (ms("pipeline.emit", emitted), "ms", ["pipeline.emit"]),
        "pipeline.artifact_bytes": (
            emit_tr.counters["emit.bytes"], "bytes", ["pipeline.emit counters"]),
        "trace.overhead_frac": (traced_s / plain_s - 1, "fraction", []),
        "trace.coverage_frac": (
            1 - self_ms("pipeline") / solve_total if solve_total else 0.0, "fraction",
            ["pipeline.solve_sequence"]),
    }
    for kind in ("continuity", "overlap", "crossing", "pair_exclusion"):
        table[f"model.reject_{kind}"] = (
            counters[f"reject.{kind}"], "count", ["model.validate counters"])

    metrics, missing = {}, []
    for name, (value, unit, deps) in table.items():
        if missing_targets.intersection(deps):
            missing.append(name)
        else:
            metrics[name] = (value, unit)
    return metrics, missing


def report(args, metrics, runner, details, info) -> dict:
    print(f"hpfold benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {info['cpu']}, nproc={info['nproc']}, python {info['python']}, "
          f"numpy {info['numpy']}, scipy {info['scipy']}, blas threads "
          f"{info['blas_threads']['OPENBLAS_NUM_THREADS']}, workers 1")
    for unit, digest in zip(runner.units, runner.digests):
        cfg = unit.config
        print(f"  {cfg.sequence} solver={cfg.solver} draws={cfg.draws} target={unit.target} "
              f"digest={(digest or 'none')[:12]}")
    print(f"determinism digest: {checks.combined_digest(runner.digests)}")
    if args.trace:
        print(f"  {'traced function':32s} {'calls':>8s} {'total ms':>10s} {'self ms':>10s}")
        for name, row in sorted(details["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:32s} {row['calls']:8d} {1000 * row['total_s']:10.1f} "
                  f"{1000 * row['self_s']:10.1f}")
        for call in details["per_call"]:
            rows = call["layers"]
            total = rows.get("pipeline.solve_sequence", {}).get("total_s") or math.nan
            top = sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])[:3]
            print(f"  self-time shares in {call['sequence']}: " + ", ".join(
                f"{name} {row['self_s'] / total:.0%}" for name, row in top))
        if details["missing"]:
            print(f"missing metrics (traced function gone or changed): {', '.join(details['missing'])}")
    else:
        print(f"  draw_contact_frac={details['draw_contact_frac']:.4f} "
              f"feasible_frac={details['feasible_frac']:.4f} "
              f"floor_misses={details['floor_misses']} failed_frac={details['failed_frac']:.4f} "
              f"tts99_s={details['tts99_s']:.3f} calls={runner.attempted}")
        print(f"  as measured: setup_s={statistics.median(details['setup_samples_s']):.4f} "
              f"solve_s={details['solve_s']:.3f} "
              f"reference_median_s={statistics.median(details['reference_samples_s']):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}")
    for problem in runner.problems:
        print(f"FAILED: {problem}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "sequences": [u.config.sequence for u in runner.units],
        "digest": checks.combined_digest(runner.digests),
        "unit_digests": runner.digests,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **details,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hpfold" / "__init__.py").is_file():
        print(f"error: no hpfold package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    global hp, checks, hostspeed, tracer, workloads
    import hpfold as hp

    if Path(hp.__file__).resolve().parent != (SRC / "hpfold").resolve():
        print(f"error: imported hpfold from {hp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import hostspeed
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    info = machine_info()
    units = workloads.build(args.workload, args.seed)
    measure = traced if args.trace else untraced
    metrics, runner, details = measure(args, units)
    record = report(args, metrics, runner, details, info)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))

    finite = all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": runner.failed == 0 and finite,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
