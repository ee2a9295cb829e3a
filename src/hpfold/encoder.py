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

Each part is a weighted square of a linear form in the signed steps, which
``assemble`` turns into dense arrays with a few matrix products. The
term-by-term ``build_*`` polynomials in ``tests/oracles.py`` specify each
part, the continuity penalty also in the paper's exact degree-4/6 form, and
``assemble`` is property-tested against their weighted sum.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Mapping, Optional

import numpy as np

from .model import AXES, FIXED_TURN, HpSequence, hydrophobic_pairs
from .polynomial import PRUNE_THRESHOLD, BinaryPolynomial

_AXIS_OFFSET = {"x": 0, "y": 1, "z": 2}
# Default crossing reward weight that calibration starts from.
LAMBDA3_HINT = 0.5
_HALF_OFFSET = {"plus": 0, "minus": 1}


@dataclass(frozen=True)
class VariableLayout:
    """Bijection between (turn, axis, half) and contiguous bit positions.

    With ``first_turn_fixed`` the first turn is not encoded at all;
    ``model.FIXED_TURN`` is substituted as constants wherever it appears,
    which removes six variables per problem and one rotational degeneracy.
    """

    n_beads: int
    first_turn_fixed: bool = True

    def __post_init__(self):
        if self.n_beads < 2:
            raise ValueError("need at least 2 beads")

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

    def variable_names(self) -> list[str]:
        """``t<turn>_<axis><p|m>`` for every variable, in index order."""
        return [f"t{t}_{ax}{h}" for t in self.encoded_turns for ax in AXES for h in "pm"]


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
    def from_dict(cls, doc: dict, n_beads: int) -> "AxisDraw":
        """Load ``to_dict`` output that lists every pair of an ``n_beads`` chain once."""
        for name, layout_pairs in (("overlap", overlap_pairs), ("crossing", crossing_pairs)):
            pairs = layout_pairs(n_beads)
            if sorted((i, j) for i, j, _ in doc[name] if type(i) is type(j) is int) != pairs:
                raise ValueError(f"axis_draw must list each {name} pair once, in integers")
        return cls(
            overlap={(i, j): ax for i, j, ax in doc["overlap"]},
            crossing={(r, k): ax for r, k, ax in doc["crossing"]},
        )


def draw_axes(rng: np.random.Generator, layout: VariableLayout) -> AxisDraw:
    """Draw one reward axis per constrained pair.

    For each pair, overlap pairs first, three standard normals are drawn and
    the axis of the largest wins; exact ties (vanishing probability, but
    possible in finite precision) resolve in x, y, z order.
    """
    ov = overlap_pairs(layout.n_beads)
    cr = crossing_pairs(layout.n_beads)
    axes = [AXES[k] for k in np.argmax(rng.standard_normal((len(ov) + len(cr), 3)), axis=1)]
    return AxisDraw(overlap=dict(zip(ov, axes)), crossing=dict(zip(cr, axes[len(ov):])))


@dataclass(frozen=True)
class PenaltyConfig:
    """Finite, non-negative weights for the five parts of the consolidated objective."""

    lambda0: float  # H-H separation objective
    lambda1: float  # continuity penalty
    lambda2: float  # overlap separation reward (subtracted)
    lambda3: float  # crossing separation reward (subtracted)
    lambda4: float  # plus/minus pair-exclusion penalty

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)


def calibrate_penalties(
    seq: HpSequence,
    lambda3_hint: float = LAMBDA3_HINT,
    overrides: Optional[Mapping[str, float]] = None,
) -> PenaltyConfig:
    """Balance the objective weight against the two separation rewards.

    With n0 objective terms, n2 overlap terms and n3 crossing terms, fixes
    lambda2 = 1, takes lambda3 from the hint, and solves
    lambda0 * n0 = lambda2 * n2 + lambda3 * n3 for lambda0. The two logical
    penalties default to an order of magnitude above everything else. Any
    value can be overridden explicitly.
    """
    n0 = len(hydrophobic_pairs(seq))
    n2, n3 = len(overlap_pairs(len(seq))), len(crossing_pairs(len(seq)))

    lambda2 = 1.0
    lambda3 = float(lambda3_hint)
    if not (math.isfinite(lambda3) and lambda3 >= 0):
        raise ValueError(f"lambda3_hint must be finite and non-negative, got {lambda3_hint}")
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


@dataclass(frozen=True, eq=False)
class QuboProblem:
    """The problem ``const + lin·x + Σ_{i<j} quad[i, j]·x_i·x_j`` and how it was built.

    ``quad`` is symmetric with a zero diagonal; the problem keeps read-only copies.
    """

    const: float
    lin: np.ndarray
    quad: np.ndarray
    layout: VariableLayout
    penalties: PenaltyConfig
    axis_draw: AxisDraw
    rng_seed: int = 0

    def __post_init__(self):
        n = self.n_vars
        lin, quad = np.array(self.lin, dtype=float), np.array(self.quad, dtype=float)
        if lin.shape != (n,) or quad.shape != (n, n):
            raise ValueError(f"shapes {lin.shape} and {quad.shape} for {n} variables")
        if quad.diagonal().any() or not np.array_equal(quad, quad.T):
            raise ValueError("the quadratic matrix must be symmetric with a zero diagonal")
        lin.flags.writeable = quad.flags.writeable = False
        const = float(self.const) + 0.0  # never -0.0, so adding a zero x·c is a no-op
        for name, value in (("const", const), ("lin", lin), ("quad", quad)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Rebuild on unpickling, so the arrays stay read-only.
        return QuboProblem, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n_vars(self) -> int:
        return self.layout.n_vars

    @property
    def polynomial(self) -> BinaryPolynomial:
        """The same terms as a polynomial, for the term-by-term test oracles."""
        lin = {frozenset((int(i),)): self.lin[i] for i in np.flatnonzero(self.lin)}
        pairs = zip(*np.nonzero(np.triu(self.quad)))
        quad = {frozenset((int(i), int(j))): self.quad[i, j] for i, j in pairs}
        return BinaryPolynomial({frozenset(): self.const, **lin, **quad})

    def energies(self, bits) -> np.ndarray:
        """Energies of the rows of a (k, n) 0/1 matrix.

        Each is ``const + Σ_k x_k·f_k``, ``f_k = lin_k + Σ_{j<k} quad[j, k]·x_j``, every
        sum left to right over whole columns (so a row's energy never depends on
        the batch), the order that ``ising.energy_chunks`` follows too.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n_vars:
            raise ValueError(f"expected a (k, {self.n_vars}) bit matrix, got {bits.shape}")
        cols = np.ascontiguousarray(bits.T, dtype=np.uint8)  # one row per variable
        total = np.full(bits.shape[0], self.const)
        field, term = np.empty(bits.shape[0]), np.empty(bits.shape[0])
        for k, col in enumerate(cols):
            field.fill(self.lin[k])
            for j in np.flatnonzero(self.quad[:k, k]):
                field += np.multiply(cols[j], self.quad[j, k], out=term)
            total += np.multiply(field, col, out=term)
        return total

    def evaluate(self, bits) -> float:
        return float(self.energies([bits])[0])

    def to_dense(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(constant, linear vector, symmetric quadratic matrix with zero diagonal)."""
        return self.const, self.lin, self.quad


def assemble(
    seq: HpSequence,
    layout: VariableLayout,
    penalties: PenaltyConfig,
    draw: AxisDraw,
    rng_seed: int = 0,
) -> QuboProblem:
    """Combine all five parts with their weights into one quadratic problem.

    Equals the weighted sum of the ``build_*`` oracle polynomials up to rounding. The
    squared step sums add up to a Gram matrix over ``[x, 1]``; a turn with U
    set halves adds continuity ``1 - 3U/2 + U²/2`` plus its plus·minus products.
    """
    if len(seq) != layout.n_beads:
        raise ValueError("sequence/layout bead count mismatch")
    n, n_turns = layout.n_vars, layout.n_turns
    # steps[a] maps [x, 1] to every turn's signed step along axis a
    steps = np.zeros((3, n_turns, n + 1))
    axis = np.arange(3)[:, None]
    turn_rows = np.arange(layout.first_encoded_turn - 1, n_turns)
    plus = 6 * np.arange(turn_rows.size) + 2 * axis
    steps[axis, turn_rows, plus] = 1.0
    steps[axis, turn_rows, plus + 1] = -1.0
    if layout.first_turn_fixed:
        steps[:, 0, n] = FIXED_TURN

    # one row of turn multiples per squared sum: H pairs, overlap pairs, crossing pairs
    h_pairs = hydrophobic_pairs(seq)
    ov, cr = overlap_pairs(layout.n_beads), crossing_pairs(layout.n_beads)
    rows = np.zeros((len(h_pairs) + len(ov) + len(cr), n_turns))
    for row, (i, j) in zip(rows, h_pairs + ov):
        row[i - 1 : j - 1] = 1.0
    for row, (r, k) in zip(rows[len(h_pairs) + len(ov) :], cr):
        row[r : k - 1] = 2.0
        row[[r - 1, k - 1]] = 1.0
    weights = np.r_[
        penalties.lambda0 * np.array([seq.weight(j, k) for j, k in h_pairs]),
        [-penalties.lambda2] * len(ov), [-penalties.lambda3] * len(cr),
    ]
    drawn = np.array([draw.overlap[p] for p in ov] + [draw.crossing[p] for p in cr], "U1")

    gram = np.zeros((n + 1, n + 1))
    for a, name in enumerate(AXES):
        used = np.r_[np.ones(len(h_pairs), bool), drawn == name]
        forms, w = rows[used] @ steps[a], weights[used]
        # Small integers: each weight's Gram matrix is exact in any summation
        # order, so the result does not depend on how BLAS splits the product.
        for weight in np.unique(w):
            group = forms[w == weight]
            gram += weight * (group.T @ group)
    halves = np.abs(steps).sum(axis=0)
    gram += 0.5 * penalties.lambda1 * (halves.T @ halves)
    gram[np.diag_indices(n + 1)] -= 1.5 * penalties.lambda1 * halves.sum(axis=0)
    gram[n, n] += penalties.lambda1 * n_turns
    gram[np.arange(0, n, 2), np.arange(1, n, 2)] += penalties.lambda1 + penalties.lambda4

    quad = gram[:n, :n] + gram[:n, :n].T
    np.fill_diagonal(quad, 0.0)
    lin = gram.diagonal()[:n] + gram[:n, n] + gram[n, :n]
    const, lin, quad = (
        np.where(np.abs(v) > PRUNE_THRESHOLD, v, 0.0) for v in (gram[n, n], lin, quad)
    )
    return QuboProblem(const, lin, quad, layout, penalties, draw, rng_seed)


def qubo_to_json(q: QuboProblem, sequence: str) -> str:
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
            "fixed_turn": list(FIXED_TURN),
            "variable_names": q.layout.variable_names(),
            "penalties": q.penalties.to_dict(),
            "axis_draw": q.axis_draw.to_dict(),
            "seed": q.rng_seed,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def json_value(value, kind: type, what: str):
    """``value`` as ``kind`` (bool, int, float or str) if JSON loaded it as that kind, a
    float also from a JSON integer; else ValueError. So a boolean is never a number."""
    if type(value) is not kind and (kind, type(value)) != (float, int):
        name = {bool: "boolean", int: "integer", float: "number", str: "string"}[kind]
        raise ValueError(f"{what} must be a JSON {name}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


class _Strict(dict):
    def __missing__(self, key):
        raise ValueError(f"missing key {key!r}")


def strict_json(text: str):
    """Parse JSON with no NaN or Infinity, whose objects raise ValueError for a missing key."""
    def reject(constant: str):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject, object_hook=_Strict)


def qubo_from_json(text: str) -> QuboProblem:
    """Reload a problem written by ``qubo_to_json``; malformed entries raise ValueError.

    The constant, every coefficient and every penalty weight must be JSON
    numbers (not strings or booleans) that fit a float; ``variables``, the
    seed, ``n_beads`` and the ``fixed_turn`` entries must be JSON integers,
    ``first_turn_fixed`` a JSON boolean and ``sequence`` a JSON string.
    ``fixed_turn`` must be ``model.FIXED_TURN``, the only first turn the
    package fixes. Every key must be present, and the penalties and the axis
    draw must name each weight and each pair once.
    """
    doc = strict_json(text)
    meta = doc["metadata"]
    fixed_turn = meta["fixed_turn"]
    if type(fixed_turn) is list:
        fixed_turn = [json_value(c, int, "fixed_turn entry") for c in fixed_turn]
    if fixed_turn != list(FIXED_TURN):
        raise ValueError(f"fixed_turn must be {list(FIXED_TURN)}, got {fixed_turn!r}")
    json_value(meta["sequence"], str, "sequence")
    layout = VariableLayout(
        n_beads=json_value(meta["n_beads"], int, "n_beads"),
        first_turn_fixed=json_value(meta["first_turn_fixed"], bool, "first_turn_fixed"),
    )
    n = layout.n_vars
    if json_value(doc["variables"], int, "variables") != n:
        raise ValueError(f"{doc['variables']} variables declared, the layout has {n}")
    dense = np.zeros((n, n))  # linear coefficients on the diagonal
    seen: set[frozenset] = set()
    for name, arity in (("linear", 1), ("quadratic", 2)):
        for entry in doc[name]:
            *idx, coeff = entry
            key = frozenset(idx)
            if len(idx) != arity or len(key) != arity or key in seen or not all(
                type(i) is int and 0 <= i < n for i in idx
            ):
                raise ValueError(f"malformed or repeated {name} entry {entry}")
            seen.add(key)
            coeff = json_value(coeff, float, f"{name} coefficient")
            dense[idx[0], idx[-1]] = dense[idx[-1], idx[0]] = coeff
    lin = np.diag(dense)
    weights = [f.name for f in fields(PenaltyConfig)]
    for key in sorted(set(meta["penalties"]) - set(weights)):
        raise ValueError(f"unknown penalty key {key!r}")
    penalties = PenaltyConfig(**{k: json_value(meta["penalties"][k], float, k) for k in weights})
    return QuboProblem(
        json_value(doc["constant"], float, "constant"), lin, dense - np.diag(lin), layout,
        penalties, AxisDraw.from_dict(meta["axis_draw"], layout.n_beads),
        json_value(meta["seed"], int, "seed"),
    )
