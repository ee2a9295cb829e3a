"""Minimizers for the assembled problem and feasibility post-selection.

Three routes to low-energy bitstrings: a vectorized single-flip Metropolis
annealer, an exact exhaustive scan for small variable counts, and a CVaR
objective variational loop over an exact statevector. Post-selection then
decodes sampled bitstrings, validates the geometry, and keeps the
maximum-contact feasible conformation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from . import model
from .ansatz import AnsatzSpec, probabilities, random_initial_params, simulate
from .encoder import QuboProblem
from .ising import SampleSet, basis_energy_chunks, cvar

EXHAUSTIVE_VARIABLE_BUDGET = 24
# Distinct states that an annealing run or an exact VQE distribution passes on.
KEPT_SAMPLES = 4096
# A simplex restart perturbs the best parameters uniformly within +-RESTART_SCALE * pi.
RESTART_SCALE = 0.3


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric temperature ladder for the single-flip annealer."""

    t_initial: float
    t_final: float = 0.01
    sweeps: int = 2000
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if not self.t_initial > self.t_final > 0:
            raise ValueError("need t_initial > t_final > 0")
        if self.sweeps < 1 or self.restarts < 1:
            raise ValueError("sweeps and restarts must be >= 1")

    def temperatures(self) -> np.ndarray:
        if self.sweeps == 1:
            return np.array([self.t_initial])
        ratio = (self.t_final / self.t_initial) ** (1.0 / (self.sweeps - 1))
        return self.t_initial * ratio ** np.arange(self.sweeps)


def default_schedule(
    q: QuboProblem, sweeps: int = 2000, restarts: int = 20, seed: int = 0
) -> AnnealSchedule:
    """Scale the start temperature to the largest coefficient so early
    acceptance is near-uniform. The final temperature is 0.01, or a hundredth
    of the start where coefficients are below 1e-3; a problem whose
    coefficients are all zero or subnormal anneals from 1 to 0.01."""
    const, lin, quad = q.to_dense()
    scale = max(
        float(np.max(np.abs(lin))) if lin.size else 0.0,
        float(np.max(np.abs(quad))) if quad.size else 0.0,
    )
    t_init = 10.0 * scale if scale >= np.finfo(float).tiny else 1.0
    return AnnealSchedule(
        t_initial=t_init,
        t_final=min(0.01, t_init / 100),
        sweeps=sweeps,
        restarts=restarts,
        seed=seed,
    )


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run, before or after post-selection."""

    best_bits: tuple[int, ...]
    best_value: float
    samples: SampleSet
    trace: tuple[tuple[int, float, float], ...]  # (iteration, objective, best so far)
    provenance: dict
    conformation: Optional[model.Conformation] = None
    contacts: Optional[int] = None
    feasible: Optional[bool] = None
    report: Optional[model.FeasibilityReport] = None
    # for annealing: sweep at which each sample row first appeared
    sample_first_seen: Optional[np.ndarray] = None


def anneal(q: QuboProblem, sched: AnnealSchedule) -> SolveResult:
    """Simulated annealing with Metropolis single-flip sweeps.

    All restarts run in lockstep as rows of one state matrix. Every sweep
    proposes each variable once in a random order; flip costs come from
    maintained local fields, so a proposal is O(1) per restart. The sweep-end
    state of every restart is recorded, and the lowest-energy ``KEPT_SAMPLES``
    distinct states form the returned population. Their energies are
    recomputed from the states, so they do not depend on the path taken.
    """
    n = q.n_vars
    const, lin, quad = q.to_dense()
    rng = np.random.default_rng(sched.seed)
    r = sched.restarts

    x = rng.integers(0, 2, size=(r, n)).astype(float)
    g = lin + x @ quad  # g[s, j] = flip cost of x_j from 0 to 1 in state s
    energy = const + x @ lin + 0.5 * np.einsum("si,si->s", x @ quad, x)

    best_energy = energy.copy()
    best_x = x.copy()
    best_sweep = np.zeros(r, dtype=int)

    sweeps = sched.sweeps
    snap_states = np.empty((sweeps, r, n), dtype=np.uint8)

    trace = []
    for sweep, t in enumerate(sched.temperatures()):
        order = rng.permutation(n)
        # accept iff u < exp(-dE/T), i.e. dE < -T*log(u); 1-u is uniform too
        thresholds = -t * np.log(1.0 - rng.random((n, r)))
        for step in range(n):
            j = order[step]
            sign = 1.0 - 2.0 * x[:, j]
            d_energy = g[:, j] * sign
            accept = d_energy < thresholds[step]
            delta = sign * accept
            x[:, j] += delta
            energy += d_energy * accept
            g += delta[:, None] * quad[j]
        improved = energy < best_energy
        if improved.any():
            best_energy[improved] = energy[improved]
            best_x[improved] = x[improved]
            best_sweep[improved] = sweep
        snap_states[sweep] = x
        trace.append((sweep, float(energy.min()), float(best_energy.min())))

    all_states = np.concatenate(
        [snap_states.reshape(sweeps * r, n), best_x.astype(np.uint8)]
    )
    all_sweeps = np.concatenate([np.repeat(np.arange(sweeps), r), best_sweep])
    uniq, inverse = np.unique(all_states, axis=0, return_inverse=True)
    uniq_energy = q.energies(uniq)
    uniq_first = np.full(uniq.shape[0], sweeps)
    np.minimum.at(uniq_first, inverse, all_sweeps)
    uniq_counts = np.bincount(inverse, minlength=uniq.shape[0])
    order = np.argsort(uniq_energy, kind="stable")[:KEPT_SAMPLES]
    samples = SampleSet(uniq[order], uniq_counts[order], uniq_energy[order])

    winner = int(np.argmin(best_energy))
    return SolveResult(
        best_bits=tuple(int(b) for b in best_x[winner]),
        best_value=float(uniq_energy[inverse[sweeps * r + winner]]),
        samples=samples,
        trace=tuple(trace),
        provenance={
            "solver": "anneal",
            "seed": sched.seed,
            "t_initial": sched.t_initial,
            "t_final": sched.t_final,
            "sweeps": sched.sweeps,
            "restarts": sched.restarts,
            "sweeps_to_best": int(best_sweep[winner]),
        },
        sample_first_seen=uniq_first[order],
    )


def exhaustive(q: QuboProblem, keep: int = 4096) -> SolveResult:
    """Exact scan of all 2^n assignments; retains the ``keep`` lowest states.

    States are ranked by energy, then by state index (bit i of the index is
    variable i), so the kept set does not depend on how the scan is chunked.
    """
    n = q.n_vars
    if n > EXHAUSTIVE_VARIABLE_BUDGET:
        raise ValueError(
            f"{n} variables exceed the exhaustive budget of {EXHAUSTIVE_VARIABLE_BUDGET}"
        )
    top_idx = np.empty(0, dtype=np.int64)
    top_energy = np.empty(0)
    for start, energy in basis_energy_chunks(q):
        # states stay in ascending order, so the lowest state wins a tie
        top_idx = np.concatenate([top_idx, np.arange(start, start + energy.size)])
        top_energy = np.concatenate([top_energy, energy])
        if top_idx.size > keep:
            kth = np.partition(top_energy, keep - 1)[keep - 1]
            kept = top_energy < kth
            kept[np.flatnonzero(top_energy == kth)[: keep - np.count_nonzero(kept)]] = True
            top_idx, top_energy = top_idx[kept], top_energy[kept]

    order = np.lexsort((top_idx, top_energy))
    top_idx = top_idx[order]
    top_energy = top_energy[order]

    bits = (top_idx[:, None] >> np.arange(n)) & 1
    samples = SampleSet(bits, np.ones(top_idx.size, dtype=np.int64), top_energy)
    return SolveResult(
        best_bits=tuple(bits[0].tolist()),
        best_value=float(top_energy[0]),
        samples=samples,
        trace=((0, float(top_energy[0]), float(top_energy[0])),),
        provenance={"solver": "exhaustive", "states_scanned": 1 << n, "kept": top_idx.size},
    )


@dataclass(frozen=True)
class VqeSettings:
    """Derivative-free optimization settings for the variational loop."""

    max_evals: int = 500
    seed: int = 0
    initial_params: Optional[tuple[float, ...]] = None


def check_vqe_settings(spec: AnsatzSpec, settings: VqeSettings) -> None:
    """Reject non-finite or wrong-shape resume parameters, or a budget below one simplex."""
    shape = None if settings.initial_params is None else np.shape(settings.initial_params)
    if shape not in (None, (spec.n_params,)):
        raise ValueError(f"resume parameters have shape {shape}, expected ({spec.n_params},)")
    if shape is not None and not np.isfinite(settings.initial_params).all():
        raise ValueError("resume parameters must be finite")
    if spec.n_params and settings.max_evals < spec.n_params + 2:
        raise ValueError(
            f"max_evals {settings.max_evals} cannot fit one simplex of "
            f"{spec.n_params + 2} evaluations"
        )


def vqe_statevector(
    energies: np.ndarray,
    spec: AnsatzSpec,
    settings: VqeSettings = VqeSettings(),
    alpha: float = 0.05,
    shots: int = 0,
) -> SolveResult:
    """Minimize the CVaR of the measured energy over the ansatz parameters.

    ``energies`` holds the energy of every basis state, indexed by state
    (``ising.basis_energies``). With ``shots = 0`` the objective is the CVaR
    of the exact basis distribution; otherwise each evaluation draws a fresh
    multinomial sample. A Nelder-Mead simplex search runs under a total
    evaluation budget (see ``check_vqe_settings``) and restarts from a perturbed
    best point whenever it converges early; with no parameters it evaluates
    once. Returns the sampled population at the best parameters.
    """
    n = spec.n_qubits
    if np.shape(energies) != (1 << n,):
        raise ValueError(f"{np.size(energies)} basis energies for {n} qubits")
    check_vqe_settings(spec, settings)
    rng = np.random.default_rng(settings.seed)

    if settings.initial_params is not None:
        x0 = np.asarray(settings.initial_params, dtype=float)
    else:
        x0 = random_initial_params(spec, rng)

    trace: list[tuple[int, float, float]] = []
    state = {"evals": 0, "best_value": np.inf, "best_params": x0.copy()}
    # Weights are read in energy order, so cvar's stable sort finds them sorted.
    by_energy = np.argsort(energies, kind="stable")
    sorted_energies = energies[by_energy]

    def objective(params: np.ndarray) -> float:
        probs = probabilities(simulate(spec, params))
        if shots > 0:
            weights = rng.multinomial(shots, probs / probs.sum())[by_energy]
        else:
            weights = probs[by_energy]
        nz = weights.nonzero()[0]
        value = cvar(sorted_energies[nz], alpha, weights[nz])
        state["evals"] += 1
        if value < state["best_value"]:
            state["best_value"] = value
            state["best_params"] = np.array(params)
        trace.append((state["evals"], float(value), float(state["best_value"])))
        return value

    if spec.n_params == 0:  # nothing to optimize; one evaluation fixes the value
        objective(x0)
    start = x0
    while spec.n_params and (budget := settings.max_evals - state["evals"]) >= spec.n_params + 2:
        minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"maxfev": budget, "xatol": 1e-4, "fatol": 1e-6},
        )
        start = state["best_params"] + RESTART_SCALE * random_initial_params(spec, rng)

    final_probs = probabilities(simulate(spec, state["best_params"]))
    if shots > 0:
        counts = rng.multinomial(shots, final_probs / final_probs.sum())
        kept = counts.nonzero()[0]
        counts = counts[kept]
    else:
        kept = np.argsort(-final_probs, kind="stable")[:KEPT_SAMPLES]
        kept = kept[final_probs[kept] > 1e-12]
        counts = np.ones(kept.size, dtype=int)
    bits, first = np.unique((kept[:, None] >> np.arange(n)) & 1, axis=0, return_index=True)
    samples = SampleSet(bits, counts[first], energies[kept[first]])
    # rows are in bitstring order, so the first lowest energy breaks ties by bits
    best = int(np.argmin(samples.energies))
    return SolveResult(
        best_bits=tuple(bits[best].tolist()),
        best_value=float(samples.energies[best]),
        samples=samples,
        trace=tuple(trace),
        provenance={
            "solver": "vqe",
            "seed": settings.seed,
            "alpha": alpha,
            "shots": shots,
            "reps": spec.reps,
            "entangler": spec.entangler,
            "evaluations": state["evals"],
            "objective_value": float(state["best_value"]),
            "final_params": [float(v) for v in state["best_params"]],
        },
    )


def postselect(
    samples: SampleSet,
    q: QuboProblem,
    seq: model.HpSequence,
    top_k: int = 4000,
    allow_steric: bool = True,
) -> SolveResult:
    """Pick the best geometrically valid conformation from a sample population.

    Keeps the ``top_k`` lowest-energy distinct bitstrings, decodes each, and
    returns the maximum-contact fully feasible one (energy, then bitstring,
    break ties, so the outcome is independent of sample order). If nothing is
    feasible the least-violating state is returned with ``feasible=False``.
    """
    ranked = np.lexsort((*samples.bits.T[::-1], samples.energies))[:top_k]

    best_key = None
    best = None  # (bits, energy, report, conformation, contacts)
    fallback_key = None
    fallback = None
    for row, energy in zip(samples.bits[ranked].tolist(), samples.energies[ranked].tolist()):
        bits = tuple(row)
        turns = model.decode_bitstring(bits, q.layout)
        report = model.validate(
            turns,
            seq,
            allow_steric=allow_steric,
            pair_exclusion=model.pair_exclusions(bits, q.layout),
        )
        conf = model.turns_to_coordinates(turns)
        if report.feasible:
            contacts = model.count_contacts(conf, seq)
            key = (-contacts, energy, bits)
            if best_key is None or key < best_key:
                best_key = key
                best = (bits, energy, report, conf, contacts)
        elif best_key is None:
            key = (report.violation_count(), energy, bits)
            if fallback_key is None or key < fallback_key:
                fallback_key = key
                fallback = (bits, energy, report, conf, model.count_contacts(conf, seq))

    chosen = best if best is not None else fallback
    if chosen is None:
        raise ValueError("empty sample set")
    bits, energy, report, conf, contacts = chosen
    return SolveResult(
        best_bits=bits,
        best_value=float(energy),
        samples=samples,
        trace=(),
        provenance={
            "solver": "postselect",
            "top_k": top_k,
            "candidates": len(ranked),
            "allow_steric": allow_steric,
        },
        conformation=conf,
        contacts=contacts,
        feasible=report.feasible,
        report=report,
    )
