"""Minimizers for the assembled problem and feasibility post-selection.

Three routes to low-energy bitstrings: a single-flip Metropolis annealer
that proposes uncoupled variables together, an exact exhaustive scan for
small variable counts, and a CVaR objective variational loop over an exact
statevector. The loop's optimizer is an in-package Nelder-Mead simplex that
evaluates the same points as scipy's, so every solver runs on numpy alone.
Each solver returns a ``Population``: its distinct states best first, so row
0 is its best, with its trace and provenance. Post-selection checks every
row's geometry in one array pass and returns a ``Selection``: the
maximum-contact feasible conformation, its report and the rejection census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import ising, model
from .ansatz import AnsatzSpec, probabilities, random_initial_params, simulate
from .encoder import QuboProblem, VariableLayout, crossing_pairs, overlap_pairs
from .ising import SampleSet, sorted_cvar, unique_rows

# Distinct states each solver passes on to post-selection by default.
TOP_K = 4000
# Default CVaR tail fraction of the variational objective.
CVAR_ALPHA = 0.05
# A simplex restart perturbs the best parameters uniformly within +-RESTART_SCALE * pi.
RESTART_SCALE = 0.3
# Per-candidate counts from candidate_counts, in column order; all but the last are violations.
CANDIDATE_COUNTS = ("continuity", "overlap", "crossing", "pair_exclusion", "contacts")
# Candidate rows checked at once; bounds the memory of the pair gathers.
COUNT_BLOCK = 512


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
        ising.check_count(self.sweeps, "sweeps")
        ising.check_count(self.restarts, "restarts")

    def temperatures(self) -> np.ndarray:
        if self.sweeps == 1:
            return np.array([self.t_initial])
        ratio = (self.t_final / self.t_initial) ** (1.0 / (self.sweeps - 1))
        return self.t_initial * ratio ** np.arange(self.sweeps)


def default_schedule(
    q: QuboProblem, sweeps: int = AnnealSchedule.sweeps,
    restarts: int = AnnealSchedule.restarts, seed: int = 0,
) -> AnnealSchedule:
    """Scale the start temperature to the largest coefficient so early
    acceptance is near-uniform. It falls to ``AnnealSchedule.t_final``, or to a
    hundredth of the start if lower; all-zero or subnormal coefficients start at 1."""
    const, lin, quad = q.to_dense()
    scale = max(
        float(np.max(np.abs(lin))) if lin.size else 0.0,
        float(np.max(np.abs(quad))) if quad.size else 0.0,
    )
    t_init = 10.0 * scale if scale >= np.finfo(float).tiny else 1.0
    return AnnealSchedule(
        t_initial=t_init,
        t_final=min(AnnealSchedule.t_final, t_init / 100),
        sweeps=sweeps,
        restarts=restarts,
        seed=seed,
    )


@dataclass(frozen=True)
class Population:
    """A solver's distinct states, best first, so that row 0 is its best state."""

    samples: SampleSet
    trace: np.ndarray  # float64, the objective at each iteration (sweep or evaluation)
    provenance: dict
    first_seen: Optional[np.ndarray] = None  # anneal only: the sweep each row first appeared

    def __post_init__(self):
        # read-only copies, as SampleSet keeps: the caller's arrays stay writable
        trace = np.array(self.trace, dtype=float)
        first_seen = None if self.first_seen is None else np.array(self.first_seen)
        for name, value in (("trace", trace), ("first_seen", first_seen)):
            if value is not None:
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Rebuild on unpickling, so the arrays stay read-only.
        return Population, (self.samples, self.trace, self.provenance, self.first_seen)


@dataclass(frozen=True)
class Selection:
    """Post-selection's verdict on one population: the winning row and its checks."""

    best_bits: tuple[int, ...]
    best_value: float
    conformation: model.Conformation
    contacts: int
    feasible: bool
    report: model.FeasibilityReport
    census: dict  # feasible candidates and rejected candidates per constraint type
    provenance: dict


def coupling_classes(quad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Colour the coupling graph ``quad != 0`` greedily in index order.

    Returns ``(perm, starts)``: the variables sorted by colour, by index within
    a colour, and the offset of every colour's run in ``perm`` followed by n.
    No two variables of one colour share a nonzero ``quad`` entry.
    """
    n = quad.shape[0]
    colour = np.zeros(n, dtype=int)
    for i in range(1, n):
        taken = np.zeros(i + 1, dtype=bool)
        taken[colour[:i][quad[i, :i] != 0]] = True
        colour[i] = taken.argmin()
    perm = np.argsort(colour, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(colour))])
    return perm, starts


def anneal(q: QuboProblem, sched: AnnealSchedule, keep: int = TOP_K) -> Population:
    """Simulated annealing with Metropolis single-flip sweeps over colour classes.

    All restarts run in lockstep as columns of one state matrix. The
    variables are relabelled once so that every class of
    ``coupling_classes`` is a contiguous block of rows. Every sweep visits
    the classes in a random order and proposes all members of a class in one
    step: members share no coupling, so their flip costs, read from the
    current spins, do not change while the others flip, and the step equals
    flipping them one at a time. A step is four NumPy calls: the class's
    flip-cost product, a multiply, a compare and a masked copy of the spins
    negated at the start of the sweep, which a class still holds at its
    step. From the first sweep in which at most a quarter of the classes
    were accepted anywhere (temperatures only fall, so the switch is made
    once), every later sweep computes the flip costs of all variables in
    one pass and jumps to the first remaining class that some restart
    accepts; the jump skips only classes in which nothing would flip.

    The sweep-end state of every restart is recorded and deduplicated on
    packed 64-bit keys (``ising.unique_rows``). Energies and the trace come from
    energies recomputed from the states, so they do not depend on the path
    taken. The ``keep`` lowest-energy distinct states, ties by bitstring, form
    the returned population; ``first_seen`` gives each row's first sweep, and
    ``sweeps_to_best`` the first sweep that reached the lowest energy.
    """
    ising.check_count(keep, "keep")
    n = q.n_vars
    const, lin, quad = q.to_dense()
    perm, starts = coupling_classes(quad)
    quad = quad[np.ix_(perm, perm)]
    # With spin = 1 - 2x and a closing 1, flipping x_j costs
    # spin_j * (cost_j . spin), since cost_j . spin = lin_j + quad_j . x.
    cost = np.hstack([-0.5 * quad, (lin[perm] + 0.5 * quad.sum(axis=1))[:, None]])
    rng = np.random.default_rng(sched.seed)
    r = sched.restarts

    # Variables are rows, restarts columns: a class is a contiguous block.
    spin = np.ones((n + 1, r))
    spin[:n] -= 2 * rng.integers(0, 2, size=(r, n)).T[perm]
    thresholds, flipped = np.empty((n, r)), np.empty((n, r))
    # per class: views of its rows of spin, thresholds and flipped, and its flip-cost product
    blocks = [
        (spin[c], thresholds[c], flipped[c], cost[c].dot) for c in map(slice, starts, starts[1:])
    ]

    sweeps = sched.sweeps
    snap_states = np.empty((sweeps + 1, n, r), dtype=np.uint8)  # row 0: the start states
    snap_states[0] = spin[:n] < 0
    quiet = False
    for sweep, t in enumerate(sched.temperatures(), 1):
        order = rng.permutation(len(blocks))
        # accept iff u < exp(-dE/T), i.e. dE < -T*log(u); 1-u is uniform too
        rng.random(out=thresholds)
        np.log(np.subtract(1.0, thresholds, out=thresholds), out=thresholds)
        thresholds *= -t
        # a sweep steps each class at most once, so a class's spins at its
        # step are still those of the sweep's start
        np.negative(spin[:n], out=flipped)
        if quiet:  # jump from class to class that some restart accepts
            step = 0
            while step < len(blocks):
                hits = (cost.dot(spin) * spin[:n] < thresholds).any(axis=1)
                hits = np.logical_or.reduceat(hits, starts[:-1])[order[step:]]
                skip = hits.argmax()
                if not hits[skip]:
                    break
                step += skip
                spin_c, thresholds_c, flipped_c, dot_c = blocks[order[step]]
                np.putmask(spin_c, dot_c(spin) * spin_c < thresholds_c, flipped_c)
                step += 1
        else:
            for spin_c, thresholds_c, flipped_c, dot_c in map(blocks.__getitem__, order.tolist()):
                np.putmask(spin_c, dot_c(spin) * spin_c < thresholds_c, flipped_c)
        snap_states[sweep] = spin[:n] < 0
        if not quiet:
            # In a busy sweep most classes accept somewhere, and a look-ahead per
            # step costs more than the step (BENCH_12.json, BENCH_15.json). Each
            # class was visited once, so it accepted somewhere iff a member changed.
            changed = (snap_states[sweep] != snap_states[sweep - 1]).any(axis=1)
            accepting = np.count_nonzero(np.logical_or.reduceat(changed, starts[:-1]))
            quiet = 4 * accepting <= len(blocks)

    # one row per sweep-end state, sweep-major, in the original labels; "clip"
    # (the indices are valid) lets take write into out without a temporary
    states = np.empty((sweeps, r, n), dtype=np.uint8)
    np.take(snap_states[1:].transpose(0, 2, 1), np.argsort(perm), axis=2, out=states, mode="clip")
    states = states.reshape(sweeps * r, n)
    first, inverse = unique_rows(states)
    uniq = states[first]
    uniq_energy = q.energies(uniq)
    sweep_min = uniq_energy[inverse].reshape(sweeps, r).min(axis=1)
    uniq_counts = np.bincount(inverse, minlength=uniq.shape[0])
    order = np.argsort(uniq_energy, kind="stable")[:keep]
    samples = SampleSet(uniq[order], uniq_counts[order], uniq_energy[order])

    return Population(
        samples=samples,
        trace=sweep_min,
        provenance={
            "solver": "anneal",
            "seed": sched.seed,
            "t_initial": sched.t_initial,
            "t_final": sched.t_final,
            "sweeps": sched.sweeps,
            "restarts": sched.restarts,
            "sweeps_to_best": int(np.argmin(sweep_min)),
        },
        first_seen=first[order] // r,  # first occurrences; rows are sweep-major
    )


def exhaustive(q: QuboProblem, keep: int = TOP_K) -> Population:
    """Exact scan of all 2^n assignments; retains the ``keep`` lowest states.

    States are ranked by their ``ising.energy_chunks`` energies, which equal
    ``QuboProblem.energies`` bit for bit; ties at the ``keep``-th energy go by
    state index (bit i of the index is variable i), so the kept set does not
    depend on the chunking. The population lists them best first.
    """
    n = q.n_vars
    ising.check_enumerable(n)
    ising.check_count(keep, "keep")
    # The pool holds the best keep states of the last cut by (energy, index)
    # and every later state whose energy is at most the keep-th of them. It is
    # cut back to keep rows once it holds 2 * keep, and after the last chunk.
    pool_idx, pool_energy, size, kth = [], [], 0, np.inf
    for c, energy in enumerate(ising.energy_chunks(q)):
        stride = (1 << n) // energy.size  # also the number of chunks
        new = np.flatnonzero(energy <= kth)
        pool_idx.append(c + new * stride)
        pool_energy.append(energy[new])
        size += new.size
        if size >= 2 * keep or (c == stride - 1 and size > keep):
            pool_idx, pool_energy = np.concatenate(pool_idx), np.concatenate(pool_energy)
            kth = np.partition(pool_energy, keep - 1)[keep - 1]
            below, tied = pool_energy < kth, pool_energy == kth
            # the ties at kth that fit, lowest indices first
            spare = keep - np.count_nonzero(below)
            cut = np.partition(pool_idx[tied], spare - 1)[spare - 1]
            kept = below | (tied & (pool_idx <= cut))
            pool_idx, pool_energy, size = [pool_idx[kept]], [pool_energy[kept]], keep
    bits = ising.index_bits(np.concatenate(pool_idx), n)
    samples = SampleSet(bits, np.ones(size, dtype=np.int64), np.concatenate(pool_energy))
    return Population(
        samples=samples,
        trace=samples.energies[:1],
        provenance={"solver": "exhaustive", "states_scanned": 1 << n, "kept": size},
    )


@dataclass(frozen=True)
class VqeSettings:
    """Derivative-free optimization settings for the variational loop."""

    max_evals: int = 500
    seed: int = 0
    initial_params: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        ising.check_count(self.max_evals, "max_evals")


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


class _BudgetSpent(Exception):
    """Raised by ``_nelder_mead``'s counter at the first call past ``maxfev``."""


def _by_value(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(
    f: Callable[[np.ndarray], float], x0: np.ndarray, maxfev: int, xatol: float, fatol: float
) -> None:
    """Nelder-Mead simplex search for a minimum of ``f``, starting at ``x0``.

    A port of scipy's unbounded, non-adaptive ``minimize(method="Nelder-Mead")``
    with the options ``maxfev``, ``xatol`` and ``fatol``: ``f`` gets the same
    points (each its own copy) in the same order, and the search stops where
    scipy's budget refuses a call, even partway through a step. It returns
    nothing; the caller keeps what it needs from the calls of ``f``.
    """
    calls = 0

    def func(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return f(np.copy(x))

    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    diag = np.arange(n)
    sim[diag + 1, diag] = np.where(sim[0] != 0, 1.05 * sim[0], 0.00025)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = func(sim[k])
        # scipy sorts the first simplex twice; an unstable argsort may reorder ties again
        sim, fsim = _by_value(*_by_value(sim, fsim))
        while calls < maxfev:
            x_spread = np.abs(sim[1:] - sim[0]).max()
            if x_spread <= xatol and np.abs(fsim[0] - fsim[1:]).max() <= fatol:
                return
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]  # reflection
            fxr = func(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]  # expansion
                fxe = func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                    fxc = func(xc)
                    kept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                    fxc = func(xc)
                    kept = fxc < fsim[-1]
                if kept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
            sim, fsim = _by_value(sim, fsim)
    except _BudgetSpent:
        return


def _sampled_cvar(
    rng: np.random.Generator, sorted_energies: np.ndarray, probs: np.ndarray,
    alpha: float, shots: int,
) -> float:
    """CVaR of ``shots`` draws from ``probs``, drawing only the shots in the tail.

    ``sorted_energies`` ascend, and ``probs`` (non-negative, not necessarily
    normalized) follows the same order. Only the lowest m = ceil(alpha * shots)
    shots enter the CVaR, so only they are drawn: the m smallest of ``shots``
    iid uniforms come in ascending order from Renyi's representation (partial
    sums of exponentials over their total plus a gamma for the other shots),
    and the inverse of the energy-ordered CDF maps each to its state. The value
    has the law of ``cvar`` over a ``multinomial(shots, probs)`` sample.
    """
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    m = math.ceil(alpha * shots)
    s = np.cumsum(rng.standard_exponential(m))
    u = s / (s[-1] + rng.standard_gamma(shots + 1 - m))
    # u < 1 exactly, but it may round to 1; the last state takes it then
    tail = sorted_energies[np.searchsorted(cdf[:-1], u, side="right")]
    return sorted_cvar(tail, np.ones(m), alpha * shots / m)


def vqe_statevector(
    energies: np.ndarray,
    spec: AnsatzSpec,
    settings: VqeSettings = VqeSettings(),
    alpha: float = CVAR_ALPHA,
    shots: int = 0,
    keep: int = TOP_K,
) -> Population:
    """Minimize the CVaR of the measured energy over the ansatz parameters.

    ``energies`` holds the energy of every basis state, indexed by state
    (``ising.basis_energies``). With ``shots = 0`` the objective is the CVaR
    of the exact basis distribution; otherwise it is the CVaR of ``shots``
    fresh measurements, of which each evaluation draws only the lowest
    ceil(alpha * shots) (``_sampled_cvar``). The default is exact;
    ``RunConfig.shots`` samples. A Nelder-Mead simplex search
    (``_nelder_mead``, which calls the objective at scipy's points) runs under
    a total evaluation budget (see ``check_vqe_settings``) and restarts from a
    perturbed best point whenever it converges early; with no parameters it
    evaluates once. Returns the population at the best parameters: the ``keep``
    best states of a ``shots`` multinomial sample, or the ``keep`` most probable.
    """
    ising.check_count(keep, "keep")
    ising.check_cvar(alpha, shots)
    n = spec.n_qubits
    if np.shape(energies) != (1 << n,):
        raise ValueError(f"{np.size(energies)} basis energies for {n} qubits")
    check_vqe_settings(spec, settings)
    rng = np.random.default_rng(settings.seed)

    if settings.initial_params is not None:
        start = np.asarray(settings.initial_params, dtype=float)
    else:
        start = random_initial_params(spec, rng)

    values, points = [], []  # every evaluation, in order
    # Energies and weights are read in ascending energy order, as sorted_cvar needs.
    by_energy = np.argsort(energies, kind="stable")
    sorted_energies = energies[by_energy]

    def objective(params: np.ndarray) -> float:
        weights = probabilities(simulate(spec, params))[by_energy]
        if shots > 0:
            value = _sampled_cvar(rng, sorted_energies, weights, alpha, shots)
        else:
            nz = weights.nonzero()[0]
            value = sorted_cvar(sorted_energies[nz], weights[nz], alpha)
        values.append(value)
        points.append(params)  # _nelder_mead passes each point as its own copy
        return value

    if spec.n_params == 0:  # nothing to optimize; one evaluation fixes the value
        objective(start)
    while spec.n_params and (budget := settings.max_evals - len(values)) >= spec.n_params + 2:
        _nelder_mead(objective, start, budget, xatol=1e-4, fatol=1e-6)
        start = points[np.argmin(values)] + RESTART_SCALE * random_initial_params(spec, rng)

    best = int(np.argmin(values))  # the first evaluation at the lowest value
    final_probs = probabilities(simulate(spec, points[best]))
    if shots > 0:
        counts = rng.multinomial(shots, final_probs / final_probs.sum())
        kept = counts.nonzero()[0]
        counts = counts[kept]
    else:
        kept = np.argsort(-final_probs, kind="stable")[:keep]
        kept = kept[final_probs[kept] > 1e-12]
        counts = np.ones(kept.size, dtype=int)
    samples = SampleSet(ising.index_bits(kept, n), counts, energies[kept])
    if len(counts) > keep:  # only a sample holds more states than keep
        samples = SampleSet(samples.bits[:keep], samples.counts[:keep], samples.energies[:keep])
    return Population(
        samples=samples,
        trace=np.array(values),
        provenance={
            "solver": "vqe",
            "seed": settings.seed,
            "alpha": alpha,
            "shots": shots,
            "reps": spec.reps,
            "entangler": "linear",  # the CNOT chain of ansatz._chain_source
            "evaluations": len(values),
            "objective_value": values[best],
            "final_params": points[best].tolist(),
        },
    )


def candidate_counts(
    bits: np.ndarray, layout: VariableLayout, seq: model.HpSequence, allow_steric: bool = True
) -> np.ndarray:
    """Violations of each constraint and contacts, per row of a ``(k, n)`` bit matrix.

    Columns follow ``CANDIDATE_COUNTS``. Each equals, for the decoded row, the
    length of the matching ``model.validate`` list (with ``model.pair_exclusions``
    merged in) or ``model.count_contacts``.
    """
    n_beads = layout.n_beads
    (ov_a, ov_b), (cr_a, cr_b), (hh_a, hh_b) = (
        np.array(pairs, dtype=np.intp).reshape(-1, 2).T - 1
        for pairs in (
            overlap_pairs(n_beads), crossing_pairs(n_beads), model.hydrophobic_pairs(seq)
        )
    )
    # coordinates and bond sums stay within +-2N, so base 4N+1 packs them uniquely
    base = 4 * n_beads + 1
    place = np.array([base * base, base, 1])
    out = np.empty((len(bits), len(CANDIDATE_COUNTS)), dtype=np.int64)
    for start in range(0, len(bits), COUNT_BLOCK):
        block = bits[start : start + COUNT_BLOCK]
        rows = len(block)
        halves = block.reshape(rows, len(layout.encoded_turns), 3, 2).astype(np.int64)
        turns = halves[..., 0] - halves[..., 1]
        if layout.first_turn_fixed:
            fixed = np.broadcast_to(model.FIXED_TURN, (rows, 1, 3))
            turns = np.concatenate([fixed, turns], axis=1)
        moved = np.count_nonzero(turns, axis=2)
        coords = np.zeros((rows, n_beads, 3), dtype=np.int64)
        np.cumsum(turns, axis=1, out=coords[:, 1:])
        keys = coords @ place
        bond_keys = keys[:, 1:] + keys[:, :-1]
        counts = out[start : start + rows]
        counts[:, 0] = np.sum((moved == 0) | ((moved == 3) & (not allow_steric)), axis=1)
        counts[:, 1] = np.sum(keys[:, ov_a] == keys[:, ov_b], axis=1)
        counts[:, 2] = np.sum(bond_keys[:, cr_a] == bond_keys[:, cr_b], axis=1)
        counts[:, 3] = np.sum(halves[..., 0] & halves[..., 1], axis=(1, 2))
        counts[:, 4] = np.sum(np.abs(coords[:, hh_a] - coords[:, hh_b]).max(axis=2) == 1, axis=1)
    return out


def postselect(
    samples: SampleSet,
    q: QuboProblem,
    seq: model.HpSequence,
    allow_steric: bool = True,
) -> Selection:
    """Pick the best geometrically valid conformation from a sample population.

    Every row is a candidate; all are checked in one array pass
    (``candidate_counts``). Rows come best first, by (energy, bitstring), so
    the first with the most contacts among the feasible ones wins, or, if none
    is feasible, the first with the fewest violations (``feasible=False``):
    the choice a scalar loop over the ``model`` oracle makes, independent of
    sample order. Only the winner goes through that oracle, for its report.
    ``census`` counts the feasible candidates and, per constraint type, the
    candidates with at least one violation of it.
    """
    if len(samples.bits) == 0:
        raise ValueError("empty sample set")
    counts = candidate_counts(samples.bits, q.layout, seq, allow_steric)
    violations = counts[:, :-1].sum(axis=1)
    feasible = np.flatnonzero(violations == 0)
    # argmax and argmin return the first extreme, i.e. ties go by (energy, bits)
    pick = feasible[np.argmax(counts[feasible, -1])] if feasible.size else np.argmin(violations)

    bits = tuple(samples.bits[pick].tolist())
    turns = model.decode_bitstring(bits, q.layout)
    report = model.validate(
        turns,
        seq,
        allow_steric=allow_steric,
        pair_exclusion=model.pair_exclusions(bits, q.layout),
    )
    conf = model.turns_to_coordinates(turns)
    return Selection(
        best_bits=bits,
        best_value=float(samples.energies[pick]),
        conformation=conf,
        contacts=model.count_contacts(conf, seq),
        feasible=report.feasible,
        report=report,
        census={
            "feasible_candidates": len(feasible),
            "rejected": dict(
                zip(CANDIDATE_COUNTS[:-1], np.count_nonzero(counts[:, :-1], axis=0).tolist())
            ),
        },
        provenance={"solver": "postselect", "candidates": len(counts),
                    "allow_steric": allow_steric},
    )
