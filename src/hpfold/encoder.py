"""Penalized binary-polynomial encoding of the folding problem.

Every turn is represented by six binary variables, a plus/minus pair per
axis, so that (plus - minus) recovers the signed step. The consolidated
objective combines five ingredients:

* a weighted sum of squared H-H separations to minimize (the objective),
* a continuity penalty that fires on zero turns and body-diagonal turns,
* a reward for non-zero per-axis separation of every non-adjacent bead pair
  (the overlap constraint, one randomly drawn axis per pair),
* a reward for non-zero per-axis midpoint separation of every non-adjacent
  bond pair (the crossing constraint, same axis-drawing scheme),
* a penalty on setting both halves of any plus/minus pair, which is what
  keeps the continuity penalty quadratic.

The result is a degree-2 polynomial ready for annealing, exhaustive search,
or conversion to a diagonal spin operator.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .model import AXES, HpSequence, hydrophobic_pairs
from .polynomial import BinaryPolynomial

HALVES = ("plus", "minus")

_AXIS_OFFSET = {"x": 0, "y": 1, "z": 2}
_HALF_OFFSET = {"plus": 0, "minus": 1}


@dataclass(frozen=True)
class VariableLayout:
    """Bijection between (turn, axis, half) and contiguous bit positions.

    With ``first_turn_fixed`` the first turn is not encoded at all; its fixed
    triple is substituted as constants wherever it appears, which removes six
    variables per problem and one rotational degeneracy.
    """

    n_beads: int
    first_turn_fixed: bool = True
    fixed_turn: tuple[int, int, int] = (1, 0, 0)

    def __post_init__(self):
        if self.n_beads < 2:
            raise ValueError("need at least 2 beads")
        if any(c not in (-1, 0, 1) for c in self.fixed_turn):
            raise ValueError(f"fixed turn out of range: {self.fixed_turn}")
        object.__setattr__(self, "fixed_turn", tuple(self.fixed_turn))

    @property
    def n_turns(self) -> int:
        return self.n_beads - 1

    @property
    def first_encoded_turn(self) -> int:
        return 2 if self.first_turn_fixed else 1

    @property
    def encoded_turns(self) -> range:
        return range(self.first_encoded_turn, self.n_beads)

    @property
    def n_vars(self) -> int:
        return 6 * len(self.encoded_turns)

    def is_fixed(self, turn: int) -> bool:
        return self.first_turn_fixed and turn == 1

    def index(self, turn: int, axis: str, half: str) -> int:
        if not 1 <= turn <= self.n_turns:
            raise ValueError(f"turn {turn} out of range 1..{self.n_turns}")
        if self.is_fixed(turn):
            raise ValueError("turn 1 is fixed and carries no variables")
        return (
            (turn - self.first_encoded_turn) * 6
            + _AXIS_OFFSET[axis] * 2
            + _HALF_OFFSET[half]
        )

    def describe(self, index: int) -> tuple[int, str, str]:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.n_vars:
            raise ValueError(f"variable index {index} out of range")
        turn = index // 6 + self.first_encoded_turn
        axis = AXES[(index % 6) // 2]
        half = HALVES[index % 2]
        return turn, axis, half

    def variable_names(self) -> list[str]:
        return [
            "t{}_{}{}".format(t, ax, "p" if h == "plus" else "m")
            for (t, ax, h) in map(self.describe, range(self.n_vars))
        ]


def overlap_pairs(n_beads: int) -> list[tuple[int, int]]:
    """Non-adjacent bead pairs (i, j), i+2 <= j, covered by the overlap term."""
    return [
        (i, j) for i in range(1, n_beads - 1) for j in range(i + 2, n_beads + 1)
    ]


def crossing_pairs(n_beads: int) -> list[tuple[int, int]]:
    """Non-adjacent bond pairs (r, k), r+2 <= k <= N-1, covered by the crossing term."""
    return [
        (r, k) for r in range(1, n_beads - 2) for k in range(r + 2, n_beads)
    ]


@dataclass(frozen=True)
class AxisDraw:
    """Per-constraint choice of the single axis that earns the separation reward."""

    overlap: Mapping[tuple[int, int], str]
    crossing: Mapping[tuple[int, int], str]

    def __post_init__(self):
        for name, table in (("overlap", self.overlap), ("crossing", self.crossing)):
            for pair, axis in table.items():
                if axis not in AXES:
                    raise ValueError(f"{name} draw for {pair} has bad axis {axis!r}")

    def to_dict(self) -> dict:
        return {
            "overlap": [[i, j, ax] for (i, j), ax in sorted(self.overlap.items())],
            "crossing": [[r, k, ax] for (r, k), ax in sorted(self.crossing.items())],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AxisDraw":
        return cls(
            overlap={(i, j): ax for i, j, ax in doc["overlap"]},
            crossing={(r, k): ax for r, k, ax in doc["crossing"]},
        )


def draw_axes(rng: np.random.Generator, layout: VariableLayout) -> AxisDraw:
    """Draw one reward axis per constrained pair.

    For each pair three standard normals are drawn and the axis of the
    largest wins; exact ties (vanishing probability, but possible in finite
    precision) resolve in x, y, z order.
    """
    def pick() -> str:
        draws = rng.standard_normal(3)
        return AXES[int(np.argmax(draws))]

    ov = {pair: pick() for pair in overlap_pairs(layout.n_beads)}
    cr = {pair: pick() for pair in crossing_pairs(layout.n_beads)}
    return AxisDraw(overlap=ov, crossing=cr)


@dataclass(frozen=True)
class PenaltyConfig:
    """Non-negative weights for the five parts of the consolidated objective."""

    lambda0: float  # H-H separation objective
    lambda1: float  # continuity penalty
    lambda2: float  # overlap separation reward (subtracted)
    lambda3: float  # crossing separation reward (subtracted)
    lambda4: float  # plus/minus pair-exclusion penalty

    def __post_init__(self):
        for name in ("lambda0", "lambda1", "lambda2", "lambda3", "lambda4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def to_dict(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "lambda3": self.lambda3,
            "lambda4": self.lambda4,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PenaltyConfig":
        return cls(**{k: float(v) for k, v in doc.items()})


def calibrate_penalties(
    seq: HpSequence,
    lambda3_hint: float = 0.5,
    overrides: Optional[Mapping[str, float]] = None,
) -> PenaltyConfig:
    """Balance the objective weight against the two separation rewards.

    With n0 objective terms, n2 overlap terms and n3 crossing terms, fixes
    lambda2 = 1, takes lambda3 from the hint, and solves
    lambda0 * n0 = lambda2 * n2 + lambda3 * n3 for lambda0. The two logical
    penalties default to an order of magnitude above everything else. Any
    value can be overridden explicitly.
    """
    n = len(seq)
    n0 = len(hydrophobic_pairs(seq))
    n2 = (n - 2) * (n - 1) // 2
    n3 = (n - 3) * (n - 2) // 2

    lambda2 = 1.0
    lambda3 = float(lambda3_hint)
    if n0 > 0:
        lambda0 = (lambda2 * n2 + lambda3 * n3) / n0
    else:
        warnings.warn(
            "sequence has no non-bonded H pairs; objective weight defaults to 1",
            stacklevel=2,
        )
        lambda0 = 1.0
    lambda1 = lambda4 = 10.0 * max(lambda0, lambda2, lambda3)

    values = {
        "lambda0": lambda0,
        "lambda1": lambda1,
        "lambda2": lambda2,
        "lambda3": lambda3,
        "lambda4": lambda4,
    }
    if overrides:
        for key, val in overrides.items():
            if key not in values:
                raise ValueError(f"unknown penalty override {key!r}")
            if val is not None:
                values[key] = float(val)
    return PenaltyConfig(**values)


def _axis_step(layout: VariableLayout, turn: int, axis: str) -> BinaryPolynomial:
    """The signed step of one turn along one axis, as a polynomial.

    plus - minus for an encoded turn, a constant for the fixed first turn.
    """
    if layout.is_fixed(turn):
        return BinaryPolynomial.constant(layout.fixed_turn[_AXIS_OFFSET[axis]])
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
            sq = [float(c * c) for c in layout.fixed_turn]
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


@dataclass(frozen=True)
class QuboProblem:
    """A degree-2 polynomial plus everything needed to reproduce it.

    The dense form is built once, on construction, and is read-only.
    """

    polynomial: BinaryPolynomial
    layout: VariableLayout
    penalties: PenaltyConfig
    axis_draw: AxisDraw
    rng_seed: int = 0
    _dense: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.polynomial.degree() > 2:
            raise ValueError(
                f"QUBO polynomial must have degree <= 2, got {self.polynomial.degree()}"
            )
        n = self.n_vars
        lin = np.zeros(n)
        quad = np.zeros((n, n))
        const = 0.0
        for key, coeff in self.polynomial.terms.items():
            if not key:
                const = coeff
            elif len(key) == 1:
                (i,) = key
                lin[i] = coeff
            else:
                i, j = sorted(key)
                quad[i, j] = quad[j, i] = coeff
        lin.flags.writeable = quad.flags.writeable = False
        object.__setattr__(self, "_dense", (const, lin, quad))

    def __reduce__(self):
        # Rebuild on unpickling, so the dense form stays read-only.
        return QuboProblem, (
            self.polynomial, self.layout, self.penalties, self.axis_draw, self.rng_seed
        )

    @property
    def n_vars(self) -> int:
        return self.layout.n_vars

    def energies(self, bits) -> np.ndarray:
        """Energies of the rows of a (k, n) 0/1 matrix.

        The sum runs term by term over whole columns, so a row's energy never
        depends on the rest of the batch, as it could under a matrix product.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n_vars:
            raise ValueError(f"expected a (k, {self.n_vars}) bit matrix, got {bits.shape}")
        const, lin, quad = self._dense
        cols = np.ascontiguousarray(bits.T, dtype=np.uint8)  # one row per variable
        total = np.full(bits.shape[0], const)
        for i in np.flatnonzero(lin):
            total += lin[i] * cols[i]
        for i, j in zip(*np.nonzero(np.triu(quad))):
            total += quad[i, j] * (cols[i] & cols[j])
        return total

    def evaluate(self, bits) -> float:
        return float(self.energies([bits])[0])

    def to_dense(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(constant, linear vector, symmetric quadratic matrix with zero diagonal)."""
        return self._dense


def assemble(
    seq: HpSequence,
    layout: VariableLayout,
    penalties: PenaltyConfig,
    draw: AxisDraw,
    rng_seed: int = 0,
) -> QuboProblem:
    """Combine all five parts with their weights into one quadratic problem."""
    poly = (
        penalties.lambda0 * build_objective(seq, layout)
        + penalties.lambda1 * build_continuity(layout, form="quadratic")
        - penalties.lambda2 * build_overlap(layout, draw)
        - penalties.lambda3 * build_crossing(layout, draw)
        + penalties.lambda4 * build_pair_exclusion(layout)
    )
    return QuboProblem(
        polynomial=poly,
        layout=layout,
        penalties=penalties,
        axis_draw=draw,
        rng_seed=rng_seed,
    )


def qubo_to_json(q: QuboProblem, sequence: str | None = None) -> str:
    """Serialize a problem with enough metadata to reload or feed other tools."""
    const, lin, quad = q.to_dense()
    doc = {
        "variables": q.n_vars,
        "constant": const,
        "linear": [[int(i), float(lin[i])] for i in np.flatnonzero(lin)],
        "quadratic": [
            [int(i), int(j), float(quad[i, j])] for i, j in zip(*np.nonzero(np.triu(quad)))
        ],
        "metadata": {
            "sequence": sequence,
            "n_beads": q.layout.n_beads,
            "first_turn_fixed": q.layout.first_turn_fixed,
            "fixed_turn": list(q.layout.fixed_turn),
            "variable_names": q.layout.variable_names(),
            "penalties": q.penalties.to_dict(),
            "axis_draw": q.axis_draw.to_dict(),
            "seed": q.rng_seed,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def qubo_from_json(text: str) -> QuboProblem:
    doc = json.loads(text)
    meta = doc["metadata"]
    layout = VariableLayout(
        n_beads=meta["n_beads"],
        first_turn_fixed=meta["first_turn_fixed"],
        fixed_turn=tuple(meta["fixed_turn"]),
    )
    terms: dict[frozenset[int], float] = {frozenset(): doc["constant"]}
    for i, coeff in doc["linear"]:
        terms[frozenset((i,))] = coeff
    for i, j, coeff in doc["quadratic"]:
        terms[frozenset((i, j))] = coeff
    return QuboProblem(
        polynomial=BinaryPolynomial(terms),
        layout=layout,
        penalties=PenaltyConfig.from_dict(meta["penalties"]),
        axis_draw=AxisDraw.from_dict(meta["axis_draw"]),
        rng_seed=meta["seed"],
    )
