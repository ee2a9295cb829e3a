"""Scalar reference code that the package's fast paths are tested against.

The ``build_*`` polynomials state each part of the penalized objective term by
term; ``encoder.assemble`` is property-tested to equal their weighted sum.
``build_continuity(form="exact")`` is the paper's degree-4/6 continuity
penalty, which the quadratic reduction agrees with off the excluded states.
``spin_operator`` rewrites a quadratic polynomial over spins term by term
(x = (1 - z) / 2), the walk that ``ising.qubo_to_ising``'s closed form must
match. ``entangler_pairs`` lists the CNOTs of the gate-by-gate ansatz circuit.
``reference_anneal`` is ``solvers.anneal`` without its shortcuts: every class
is stepped in every sweep and states are deduplicated by ``np.unique``.

Imports only the standard library, numpy and hpfold, so the numpy-only install can run them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from hpfold import solvers
from hpfold.ansatz import AnsatzSpec
from hpfold.encoder import (
    _AXIS_OFFSET,
    AxisDraw,
    QuboProblem,
    VariableLayout,
    crossing_pairs,
    overlap_pairs,
)
from hpfold.ising import SampleSet
from hpfold.model import AXES, FIXED_TURN, HpSequence, hydrophobic_pairs
from hpfold.polynomial import BinaryPolynomial

HALVES = ("plus", "minus")


def _axis_step(layout: VariableLayout, turn: int, axis: str) -> BinaryPolynomial:
    """The signed step of one turn along one axis, as a polynomial.

    plus - minus for an encoded turn, a constant for the fixed first turn.
    """
    if layout.is_fixed(turn):
        return BinaryPolynomial.constant(FIXED_TURN[_AXIS_OFFSET[axis]])
    plus = BinaryPolynomial.variable(layout.index(turn, axis, "plus"))
    minus = BinaryPolynomial.variable(layout.index(turn, axis, "minus"))
    return plus - minus


def turn_square(layout: VariableLayout, turn: int, axis: str) -> BinaryPolynomial:
    """Multilinear form of the squared step: plus + minus - 2*plus*minus.

    Takes value 1 exactly when the step is nonzero, except that the excluded
    both-halves-set state also evaluates to 0.
    """
    step = _axis_step(layout, turn, axis)
    return step * step


def _span_sum(layout: VariableLayout, first: int, last: int, axis: str) -> BinaryPolynomial:
    """Sum of axis steps over turns first..last inclusive (the per-axis separation)."""
    total = BinaryPolynomial()
    for t in range(first, last + 1):
        total = total + _axis_step(layout, t, axis)
    return total


def build_objective(seq: HpSequence, layout: VariableLayout) -> BinaryPolynomial:
    """Weighted sum of squared per-axis separations over all non-bonded H pairs."""
    if len(seq) != layout.n_beads:
        raise ValueError("sequence/layout bead count mismatch")
    obj = BinaryPolynomial()
    for j, k in hydrophobic_pairs(seq):
        w = seq.weight(j, k)
        for axis in AXES:
            span = _span_sum(layout, j, k - 1, axis)
            obj = obj + w * (span * span)
    return obj


def build_continuity(
    layout: VariableLayout,
    steric_allowed: bool = False,
    form: str = "quadratic",
) -> BinaryPolynomial:
    """Penalty that is high on invalid turns.

    ``form="quadratic"`` gives the reduced degree-2 version used in the
    assembled problem; it agrees with the exact degree-4 form on every
    assignment that sets at most one half per plus/minus pair, and requires
    ``steric_allowed=False`` (body-diagonal turns count as violations there).
    ``form="exact"`` gives the literal product expansion: degree 4 when
    steric turns are penalized, degree 6 when they are allowed (only the
    all-zero turn fires).
    """
    if form not in ("quadratic", "exact"):
        raise ValueError(f"unknown form {form!r}")
    if form == "quadratic" and steric_allowed:
        raise ValueError(
            "the quadratic reduction penalizes steric turns; "
            "use form='exact' to allow them"
        )
    total = BinaryPolynomial()
    for t in range(1, layout.n_turns + 1):
        if layout.is_fixed(t):
            sq = [float(c * c) for c in FIXED_TURN]
            value = 1.0 - sq[0] - sq[1] - sq[2] + sq[0] * sq[1] + sq[1] * sq[2] + sq[2] * sq[0]
            if steric_allowed and form == "exact":
                value -= sq[0] * sq[1] * sq[2]
            total = total + value
            continue
        xs = turn_square(layout, t, "x")
        ys = turn_square(layout, t, "y")
        zs = turn_square(layout, t, "z")
        term = BinaryPolynomial.constant(1.0) - xs - ys - zs
        if form == "exact":
            term = term + xs * ys + ys * zs + zs * xs
            if steric_allowed:
                term = term - xs * ys * zs
        else:
            for u, v in (("x", "y"), ("y", "z"), ("z", "x")):
                for hu in HALVES:
                    for hv in HALVES:
                        term = term + (
                            BinaryPolynomial.variable(layout.index(t, u, hu))
                            * BinaryPolynomial.variable(layout.index(t, v, hv))
                        )
        total = total + term
    return total


def build_overlap(layout: VariableLayout, draw: AxisDraw) -> BinaryPolynomial:
    """Squared separation of every non-adjacent bead pair along its drawn axis.

    Subtracted from the assembled objective, so separation is rewarded.
    """
    total = BinaryPolynomial()
    for i, j in overlap_pairs(layout.n_beads):
        try:
            axis = draw.overlap[(i, j)]
        except KeyError:
            raise ValueError(f"axis draw missing overlap pair ({i},{j})") from None
        span = _span_sum(layout, i, j - 1, axis)
        total = total + span * span
    return total


def build_crossing(layout: VariableLayout, draw: AxisDraw) -> BinaryPolynomial:
    """Squared midpoint separation of every non-adjacent bond pair along its drawn axis.

    The midpoint separation of bonds r and k along an axis equals
    step(k) + step(r) + 2 * (steps strictly between them); it vanishes on all
    three axes exactly when the bonds cross. Subtracted from the assembled
    objective.
    """
    total = BinaryPolynomial()
    for r, k in crossing_pairs(layout.n_beads):
        try:
            axis = draw.crossing[(r, k)]
        except KeyError:
            raise ValueError(f"axis draw missing crossing pair ({r},{k})") from None
        mid = (
            _axis_step(layout, k, axis)
            + _axis_step(layout, r, axis)
            + 2.0 * _span_sum(layout, r + 1, k - 1, axis)
        )
        total = total + mid * mid
    return total


def build_pair_exclusion(layout: VariableLayout) -> BinaryPolynomial:
    """One penalty unit per turn axis whose plus and minus halves are both set."""
    total = BinaryPolynomial()
    for t in layout.encoded_turns:
        for axis in AXES:
            total = total + (
                BinaryPolynomial.variable(layout.index(t, axis, "plus"))
                * BinaryPolynomial.variable(layout.index(t, axis, "minus"))
            )
    return total


def entangler_pairs(spec: AnsatzSpec) -> list[tuple[int, int]]:
    """(control, target) of each CNOT in one entangling block, in circuit order."""
    return [(i, i + 1) for i in range(spec.n_qubits - 1)]


@dataclass(frozen=True)
class IsingOperator:
    """Constant + single-spin (Z) + spin-pair (ZZ) coefficients."""

    n: int
    constant: float
    h: Mapping[int, float]
    j: Mapping[tuple[int, int], float]

    def __post_init__(self):
        for i in self.h:
            if not 0 <= i < self.n:
                raise ValueError(f"Z index {i} out of range")
        for a, b in self.j:
            if not (0 <= a < b < self.n):
                raise ValueError(f"ZZ index pair ({a},{b}) must satisfy 0 <= a < b < n")


def spin_operator(
    q: Union[QuboProblem, BinaryPolynomial], n_vars: int | None = None
) -> IsingOperator:
    """Rewrite a degree-2 binary polynomial over the spin variables.

    Substituting x = (1 - z) / 2 term by term:
    c*x_i contributes c/2 to the constant and -c/2 to h_i;
    c*x_i*x_j contributes c/4 to the constant, -c/4 to both h's, +c/4 to J_ij.
    """
    if isinstance(q, QuboProblem):
        poly = q.polynomial
        n = q.n_vars
    else:
        poly = q
        used = poly.variables()
        n = n_vars if n_vars is not None else (max(used) + 1 if used else 0)
    if poly.degree() > 2:
        raise ValueError("polynomial degree exceeds 2")

    constant = 0.0
    h: dict[int, float] = {}
    j: dict[tuple[int, int], float] = {}
    for key, coeff in poly.terms.items():
        if not key:
            constant += coeff
        elif len(key) == 1:
            (i,) = key
            constant += coeff / 2.0
            h[i] = h.get(i, 0.0) - coeff / 2.0
        else:
            a, b = sorted(key)
            constant += coeff / 4.0
            h[a] = h.get(a, 0.0) - coeff / 4.0
            h[b] = h.get(b, 0.0) - coeff / 4.0
            j[(a, b)] = j.get((a, b), 0.0) + coeff / 4.0
    h = {i: v for i, v in h.items() if v != 0.0}
    j = {p: v for p, v in j.items() if v != 0.0}
    return IsingOperator(n=n, constant=constant, h=h, j=j)


def ising_energy(op: IsingOperator, bits: Sequence[int]) -> float:
    """Energy of one bitstring: bit 0 maps to z = +1 and bit 1 to z = -1."""
    if len(bits) != op.n:
        raise ValueError(f"expected {op.n} bits, got {len(bits)}")
    total = op.constant
    z = [1 - 2 * b for b in bits]
    for i, coeff in op.h.items():
        total += coeff * z[i]
    for (a, b), coeff in op.j.items():
        total += coeff * z[a] * z[b]
    return total


def reference_anneal(q: QuboProblem, sched: solvers.AnnealSchedule) -> solvers.Population:
    """``solvers.anneal`` stepping every class in every sweep, with the same
    arithmetic per step: it negates a class's spins at its own step, skips no
    class, counts no acceptances and deduplicates the sweep-end states with
    ``np.unique`` over packed-byte keys. The fast path must equal it byte for byte."""
    n, r = q.n_vars, sched.restarts
    const, lin, quad = q.to_dense()
    perm, starts = solvers.coupling_classes(quad)
    quad = quad[np.ix_(perm, perm)]
    cost = np.hstack([-0.5 * quad, (lin[perm] + 0.5 * quad.sum(axis=1))[:, None]])
    rng = np.random.default_rng(sched.seed)

    spin = np.ones((n + 1, r))
    spin[:n] -= 2 * rng.integers(0, 2, size=(r, n)).T[perm]
    classes = list(map(slice, starts, starts[1:]))
    states = np.empty((sched.sweeps, r, n), dtype=np.uint8)  # sweep-major, original labels
    for sweep, t in enumerate(sched.temperatures()):
        order = rng.permutation(len(classes))
        thresholds = -t * np.log(np.subtract(1.0, rng.random((n, r))))
        for c in order:
            cls = classes[c]
            spin_c = spin[cls]
            np.putmask(spin_c, cost[cls].dot(spin) * spin_c < thresholds[cls], -spin_c)
        states[sweep] = (spin[:n] < 0)[np.argsort(perm)].T

    states = states.reshape(sched.sweeps * r, n)
    packed = np.packbits(states, axis=1)
    if n:
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:  # zero-width rows are all one row
        first, inverse = np.zeros(1, dtype=np.intp), np.zeros(len(states), dtype=np.intp)
    uniq = states[first]
    uniq_energy = q.energies(uniq)
    sweep_min = uniq_energy[inverse].reshape(sched.sweeps, r).min(axis=1)
    order = np.argsort(uniq_energy, kind="stable")[: solvers.TOP_K]
    counts = np.bincount(inverse, minlength=len(uniq))
    return solvers.Population(
        samples=SampleSet(uniq[order], counts[order], uniq_energy[order]),
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
        first_seen=first[order] // r,
    )
