"""End-to-end driver: sequence in, solved conformation and artifacts out.

The overlap and crossing rewards each act along one randomly drawn axis per
pair, so a single encoding is a random representative of the problem. The
pipeline therefore assembles ``draws`` independently seeded encodings, solves
each, post-selects each population, and keeps the overall best feasible
conformation. Everything derives deterministically from one master seed.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import model
from .ansatz import QUBIT_BUDGET
from .encoder import (
    PenaltyConfig,
    QuboProblem,
    VariableLayout,
    assemble,
    calibrate_penalties,
    draw_axes,
    qubo_to_json,
)
from .ising import basis_energies
from .solvers import (
    EXHAUSTIVE_VARIABLE_BUDGET,
    AnsatzSpec,
    SolveResult,
    VqeSettings,
    anneal,
    check_vqe_budget,
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
    """Everything one reproducible pipeline run depends on."""

    sequence: str
    solver: str = "anneal"
    draws: int = 50
    restarts: int = 20
    sweeps: int = 2000
    alpha: float = 0.05
    shots: int = 4000
    reps: int = 1
    top_k: int = 4000
    fix_first_turn: bool = True
    allow_steric: bool = True
    lambda_overrides: Optional[dict[str, float]] = None
    lambda3_hint: float = 0.5
    weights: Optional[dict[tuple[int, int], float]] = None
    seed: int = 0
    out_dir: str = "hpfold_out"
    formats: tuple[str, ...] = FORMATS
    export_qubo: bool = False
    resume_params: Optional[tuple[float, ...]] = None
    max_evals: int = 500
    workers: int = 1

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; choose from {SOLVERS}")
        for name in ("draws", "restarts", "sweeps", "top_k", "max_evals", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.shots < 0:
            raise ValueError("shots must be >= 0 (0 = exact)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.reps not in (1, 2):
            raise ValueError(f"reps must be 1 or 2, got {self.reps}")
        unknown = set(self.formats) - set(FORMATS)
        if unknown:
            raise ValueError(f"unknown output formats {sorted(unknown)}")
        if self.resume_params is not None and self.solver != "vqe":
            raise ValueError("resume parameters only apply to the vqe solver")


@dataclass(frozen=True)
class DrawOutcome:
    """Post-selected result of one axis draw."""

    draw: int
    seed: int
    selected: SolveResult
    solver_trace: tuple[tuple[int, float, float], ...]
    qubo: QuboProblem


@dataclass(frozen=True)
class PipelineResult:
    sequence: model.HpSequence
    config: RunConfig
    best: DrawOutcome
    draws: tuple[DrawOutcome, ...]
    max_contacts: int


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _solve_one_draw(
    seq: model.HpSequence,
    layout: VariableLayout,
    penalties: PenaltyConfig,
    cfg: RunConfig,
    draw_idx: int,
) -> DrawOutcome:
    draw_seed = _derived_seed(cfg.seed, draw_idx, 0)
    solver_seed = _derived_seed(cfg.seed, draw_idx, 1)

    rng = np.random.default_rng(draw_seed)
    axis_draw = draw_axes(rng, layout)
    q = assemble(seq, layout, penalties, axis_draw, rng_seed=draw_seed)

    if cfg.solver == "anneal":
        sched = default_schedule(
            q, sweeps=cfg.sweeps, restarts=cfg.restarts, seed=solver_seed
        )
        solved = anneal(q, sched)
    elif cfg.solver == "exhaustive":
        solved = exhaustive(q, keep=cfg.top_k)
    else:
        spec = AnsatzSpec(n_qubits=q.n_vars, reps=cfg.reps)
        settings = VqeSettings(
            max_evals=cfg.max_evals,
            seed=solver_seed,
            initial_params=cfg.resume_params,
        )
        solved = vqe_statevector(
            basis_energies(q), spec, settings, alpha=cfg.alpha, shots=cfg.shots
        )

    selected = postselect(
        solved.samples, q, seq, top_k=cfg.top_k, allow_steric=cfg.allow_steric
    )
    return DrawOutcome(
        draw=draw_idx,
        seed=draw_seed,
        selected=replace(selected, provenance={**selected.provenance, **solved.provenance}),
        solver_trace=solved.trace,
        qubo=q,
    )


def _draw_task(args) -> DrawOutcome:
    return _solve_one_draw(*args)


def solve_sequence(cfg: RunConfig) -> PipelineResult:
    """Run the draw ensemble and pick the overall best conformation."""
    seq = model.parse_sequence(cfg.sequence, weights=cfg.weights)
    layout = VariableLayout(n_beads=len(seq), first_turn_fixed=cfg.fix_first_turn)
    budget = {"exhaustive": EXHAUSTIVE_VARIABLE_BUDGET, "vqe": QUBIT_BUDGET}.get(cfg.solver)
    if budget is not None and layout.n_vars > budget:
        raise ValueError(
            f"{layout.n_vars} variables exceed the {cfg.solver} budget of {budget}"
        )
    if cfg.solver == "vqe":
        check_vqe_budget(AnsatzSpec(n_qubits=layout.n_vars, reps=cfg.reps), cfg.max_evals)
    penalties = calibrate_penalties(seq, cfg.lambda3_hint, cfg.lambda_overrides)

    tasks = [(seq, layout, penalties, cfg, d) for d in range(cfg.draws)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_draw_task, tasks))
    else:
        outcomes = [_draw_task(t) for t in tasks]

    def rank(out: DrawOutcome):
        sel = out.selected
        return (
            not sel.feasible,
            -(sel.contacts or 0),
            sel.best_value,
            out.draw,
        )

    best = min(outcomes, key=rank)
    return PipelineResult(
        sequence=seq,
        config=cfg,
        best=best,
        draws=tuple(outcomes),
        max_contacts=model.max_contacts(seq),
    )


def result_document(result: PipelineResult) -> dict:
    """JSON-ready summary of a pipeline run."""
    cfg = result.config
    sel = result.best.selected
    doc = {
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
        "coords": [list(c) for c in (sel.conformation or ())],
        "violations": sel.report.to_dict() if sel.report else None,
        "penalties": result.best.qubo.penalties.to_dict(),
        "provenance": sel.provenance,
        "per_draw": [
            {
                "draw": out.draw,
                "seed": out.seed,
                "feasible": out.selected.feasible,
                "contacts": out.selected.contacts,
                "energy": out.selected.best_value,
            }
            for out in result.draws
        ],
    }
    return doc


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
        write("samples.json", sel.samples.to_json())
    if "xyz" in cfg.formats and sel.conformation:
        write("conformation.xyz", model.conformation_to_xyz(sel.conformation, result.sequence))
    if "csv" in cfg.formats:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["draw", "iteration", "objective", "best_so_far"])
        for out in result.draws:
            for iteration, objective, best_so_far in out.solver_trace:
                writer.writerow([out.draw, iteration, objective, best_so_far])
        write("trace.csv", buf.getvalue())
    if cfg.export_qubo:
        write("qubo.json", qubo_to_json(result.best.qubo, sequence=str(result.sequence)))
    if cfg.solver == "vqe":
        params = result.best.selected.provenance.get("final_params")
        if params is not None:
            write("params.json", json.dumps(params, allow_nan=False))
    return written


def run_pipeline(cfg: RunConfig) -> tuple[int, PipelineResult, dict[str, str]]:
    """Solve, emit, and report an exit status (0 even when nothing feasible)."""
    result = solve_sequence(cfg)
    written = emit(result)
    return 0, result, written


def load_result(path: str) -> dict:
    """Load an emitted result document and re-validate it under the run's steric setting."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise PipelineIOError(f"cannot read {path}: {exc}") from exc
    seq = model.parse_sequence(doc["sequence"])
    turns = tuple(tuple(t) for t in doc["turns"])
    coords = model.turns_to_coordinates(turns)
    if [list(c) for c in coords] != doc["coords"]:
        raise ValueError("stored coordinates disagree with stored turns")
    report = model.validate(turns, seq, allow_steric=doc["provenance"]["allow_steric"])
    if doc["feasible"]:
        if not report.feasible:
            raise ValueError("stored feasible result fails re-validation")
        if model.count_contacts(coords, seq) != doc["contacts"]:
            raise ValueError("stored contact count fails re-validation")
    return doc
