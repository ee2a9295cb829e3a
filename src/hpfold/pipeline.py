"""End-to-end driver: sequence in, solved conformation and artifacts out.

The overlap and crossing rewards each act along one randomly drawn axis per
pair, so a single encoding is a random representative of the problem. The
pipeline therefore assembles ``draws`` independently seeded encodings, solves
each, post-selects each population, and keeps the overall best feasible
conformation. It runs stage by stage over a contiguous range of draws (all
of them, or one range per worker): assemble every problem, then solve every
problem, then post-select every population. Everything derives
deterministically from one master seed and the draw index.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from . import model
from .encoder import (
    PenaltyConfig,
    QuboProblem,
    VariableLayout,
    assemble,
    calibrate_penalties,
    draw_axes,
    json_value,
    qubo_to_json,
    strict_json,
)
from .ising import basis_energies, check_count, check_cvar, check_enumerable
from .solvers import (
    CVAR_ALPHA,
    TOP_K,
    AnnealSchedule,
    AnsatzSpec,
    Population,
    Selection,
    VqeSettings,
    anneal,
    check_vqe_settings,
    default_schedule,
    exhaustive,
    postselect,
    vqe_statevector,
)

SOLVERS = ("anneal", "exhaustive", "vqe")
FORMATS = ("json", "xyz", "csv")


class PipelineIOError(RuntimeError):
    """Raised when writing or reading an artifact fails; carries the path."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one reproducible pipeline run depends on. A setting that a
    library layer also takes names that layer's default, except ``shots``: the
    library is exact (0) by default, a run samples."""

    sequence: str
    solver: str = "anneal"
    draws: int = 50
    restarts: int = AnnealSchedule.restarts
    sweeps: int = AnnealSchedule.sweeps
    alpha: float = CVAR_ALPHA
    shots: int = 4000
    reps: int = AnsatzSpec.reps
    top_k: int = TOP_K
    fix_first_turn: bool = VariableLayout.first_turn_fixed
    allow_steric: bool = True
    lambda_overrides: Optional[dict[str, float]] = None
    weights: Optional[dict[tuple[int, int], float]] = None
    seed: int = 0
    out_dir: str = "hpfold_out"
    formats: tuple[str, ...] = FORMATS
    export_qubo: bool = False
    resume_params: Optional[tuple[float, ...]] = None
    max_evals: int = VqeSettings.max_evals
    workers: int = 1

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; choose from {SOLVERS}")
        for name in ("draws", "restarts", "sweeps", "reps", "top_k", "max_evals", "workers"):
            check_count(getattr(self, name), name)
        check_count(self.seed, "seed", 0)
        check_cvar(self.alpha, self.shots)
        if self.reps not in (1, 2):
            raise ValueError(f"reps must be 1 or 2, got {self.reps}")
        unknown = set(self.formats) - set(FORMATS)
        if unknown:
            raise ValueError(f"unknown output formats {sorted(unknown)}")
        if self.resume_params is not None and self.solver != "vqe":
            raise ValueError("resume parameters only apply to the vqe solver")


@dataclass(frozen=True)
class DrawOutcome:
    """One axis draw: its problem, the solver's population and post-selection's verdict."""

    draw: int
    seed: int
    qubo: QuboProblem
    population: Population
    selected: Selection


@dataclass(frozen=True)
class PipelineResult:
    sequence: model.HpSequence
    config: RunConfig
    best: DrawOutcome
    draws: tuple[DrawOutcome, ...]
    max_contacts: int


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _solve_draws(
    seq: model.HpSequence, layout: VariableLayout, penalties: PenaltyConfig, cfg: RunConfig,
    spec: Optional[AnsatzSpec], settings: Optional[VqeSettings], draws: range,
) -> list[DrawOutcome]:
    """Run the draws of ``draws`` stage by stage: assemble, solve, post-select."""
    seeds = [_derived_seed(cfg.seed, d, 0) for d in draws]
    problems = [
        assemble(seq, layout, penalties, draw_axes(np.random.default_rng(s), layout), rng_seed=s)
        for s in seeds
    ]

    populations = []
    for d, q in zip(draws, problems):
        solver_seed = _derived_seed(cfg.seed, d, 1)
        if cfg.solver == "anneal":
            sched = default_schedule(q, sweeps=cfg.sweeps, restarts=cfg.restarts, seed=solver_seed)
            populations.append(anneal(q, sched, keep=cfg.top_k))
        elif cfg.solver == "exhaustive":
            populations.append(exhaustive(q, keep=cfg.top_k))
        else:
            populations.append(vqe_statevector(
                basis_energies(q), spec, replace(settings, seed=solver_seed),
                alpha=cfg.alpha, shots=cfg.shots, keep=cfg.top_k,
            ))

    outcomes = []
    for d, s, q, pop in zip(draws, seeds, problems, populations):
        sel = postselect(pop.samples, q, seq, allow_steric=cfg.allow_steric)
        provenance = {**sel.provenance, "top_k": cfg.top_k, **pop.provenance}
        outcomes.append(DrawOutcome(d, s, q, pop, replace(sel, provenance=provenance)))
    return outcomes


def solve_sequence(cfg: RunConfig) -> PipelineResult:
    """Run the draw ensemble and pick the overall best conformation."""
    seq = model.parse_sequence(cfg.sequence, weights=cfg.weights)
    layout = VariableLayout(n_beads=len(seq), first_turn_fixed=cfg.fix_first_turn)
    if cfg.solver == "exhaustive":
        check_enumerable(layout.n_vars)
    spec = settings = None
    if cfg.solver == "vqe":  # AnsatzSpec enforces the qubit budget
        spec = AnsatzSpec(n_qubits=layout.n_vars, reps=cfg.reps)
        settings = VqeSettings(max_evals=cfg.max_evals, initial_params=cfg.resume_params)
        check_vqe_settings(spec, settings)
    penalties = calibrate_penalties(seq, overrides=cfg.lambda_overrides)

    stages = partial(_solve_draws, seq, layout, penalties, cfg, spec, settings)
    workers = min(cfg.workers, cfg.draws)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only workers > 1 loads multiprocessing

        bounds = [cfg.draws * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(stages, map(range, bounds, bounds[1:]))
            outcomes = [out for part in parts for out in part]
    else:
        outcomes = stages(range(cfg.draws))

    # feasible first, then the most contacts, the lowest energy and the first draw
    best = min(outcomes, key=lambda out: (
        not out.selected.feasible, -out.selected.contacts, out.selected.best_value, out.draw
    ))
    return PipelineResult(seq, cfg, best, tuple(outcomes), model.max_contacts(seq))


def result_document(result: PipelineResult) -> dict:
    """JSON-ready summary of a pipeline run."""
    cfg = result.config
    sel = result.best.selected
    return {
        "sequence": str(result.sequence),
        "solver": cfg.solver,
        "seed": cfg.seed,
        "draws": cfg.draws,
        "winning_draw": result.best.draw,
        "winning_draw_seed": result.best.seed,
        "max_contacts": result.max_contacts,
        "contacts": sel.contacts,
        "feasible": sel.feasible,
        "energy": sel.best_value,
        "bitstring": "".join(map(str, sel.best_bits)),
        "turns": [list(t) for t in model.decode_bitstring(sel.best_bits, result.best.qubo.layout)],
        "coords": [list(c) for c in sel.conformation],
        "violations": sel.report.to_dict(),
        "penalties": result.best.qubo.penalties.to_dict(),
        "provenance": sel.provenance,
        "per_draw": [
            {
                "draw": out.draw,
                "seed": out.seed,
                "feasible": out.selected.feasible,
                "contacts": out.selected.contacts,
                "energy": out.selected.best_value,
                "candidates": out.selected.provenance["candidates"],
                **out.selected.census,
            }
            for out in result.draws
        ],
    }


def emit(result: PipelineResult, out_dir: Optional[str] = None) -> dict[str, str]:
    """Write the requested artifacts; returns {artifact name: path}."""
    cfg = result.config
    target = out_dir if out_dir is not None else cfg.out_dir
    written: dict[str, str] = {}
    try:
        os.makedirs(target, exist_ok=True)
    except OSError as exc:
        raise PipelineIOError(f"cannot create output directory {target}: {exc}") from exc

    def write(name: str, text: str):
        path = os.path.join(target, name)
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PipelineIOError(f"cannot write {path}: {exc}") from exc
        written[name] = path

    sel = result.best.selected
    if "json" in cfg.formats:
        write(
            "result.json",
            json.dumps(result_document(result), indent=2, sort_keys=True, allow_nan=False),
        )
        write("samples.json", result.best.population.samples.to_json())
    if "xyz" in cfg.formats:
        write("conformation.xyz", model.conformation_to_xyz(sel.conformation, result.sequence))
    if "csv" in cfg.formats:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["draw", "iteration", "objective", "best_so_far"])
        for out in result.draws:
            trace = out.population.trace  # best_so_far is its running minimum
            rows = zip(range(trace.size), trace.tolist(), np.minimum.accumulate(trace).tolist())
            writer.writerows([out.draw, *row] for row in rows)
        write("trace.csv", buf.getvalue())
    if cfg.export_qubo:
        write("qubo.json", qubo_to_json(result.best.qubo, sequence=str(result.sequence)))
    if cfg.solver == "vqe":
        write("params.json", json.dumps(sel.provenance["final_params"], allow_nan=False))
    return written


def run_pipeline(cfg: RunConfig) -> tuple[PipelineResult, dict[str, str]]:
    """Solve and emit; returns the result and {artifact name: path}."""
    result = solve_sequence(cfg)
    return result, emit(result)


def load_result(path: str) -> dict:
    """Load an emitted result document strictly and re-validate it under its steric setting."""
    try:
        with open(path) as fh:
            doc = strict_json(fh.read())
    except OSError as exc:
        raise PipelineIOError(f"cannot read {path}: {exc}") from exc
    seq = model.parse_sequence(json_value(doc["sequence"], str, "sequence"))
    turns = tuple(tuple(json_value(c, int, "turns entry") for c in t) for t in doc["turns"])
    coords = model.turns_to_coordinates(turns)
    if [list(c) for c in coords] != doc["coords"]:
        raise ValueError("stored coordinates disagree with stored turns")
    steric = json_value(doc["provenance"]["allow_steric"], bool, "provenance.allow_steric")
    report = model.validate(turns, seq, allow_steric=steric)
    if json_value(doc["feasible"], bool, "feasible") and not report.feasible:
        raise ValueError("stored feasible result fails re-validation")
    # a pair-exclusion violation is not visible in the turns, so an infeasible
    # verdict stands; the contacts are recounted either way
    if model.count_contacts(coords, seq) != json_value(doc["contacts"], int, "contacts"):
        raise ValueError("stored contact count fails re-validation")
    return doc
