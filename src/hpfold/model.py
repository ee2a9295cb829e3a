"""Sequences, turn decoding, lattice geometry, and conformation scoring.

Conventions used throughout the package:

* Beads are numbered 1..N and turns 1..N-1 (turn i moves bead i to bead i+1),
  matching the 1-based indexing used in all reports and exports.
* A turn is an integer triple with components in {-1, 0, +1}; the chain may
  step along an axis, along an in-plane diagonal, or along a body ("steric")
  diagonal, for 26 distinct moves.
* A conformation is the tuple of bead coordinates obtained by prefix-summing
  the turns from the origin.
* Bit-level encodings split every turn component into a plus/minus variable
  pair (component = plus - minus); see :mod:`hpfold.encoder` for the layout.

All types are immutable after construction and every function here is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

Turn = tuple[int, int, int]
TurnVector = tuple[Turn, ...]
Coord = tuple[int, int, int]
Conformation = tuple[Coord, ...]

AXES = ("x", "y", "z")


def lattice_moves(allow_steric: bool = True) -> tuple[Turn, ...]:
    """All single-step moves on the lattice, in a fixed deterministic order.

    26 moves with body diagonals allowed (6 axis + 12 planar diagonal + 8
    steric diagonal), 18 without.
    """
    moves = []
    for triple in itertools.product((-1, 0, 1), repeat=3):
        if triple == (0, 0, 0):
            continue
        if not allow_steric and all(c != 0 for c in triple):
            continue
        moves.append(triple)
    return tuple(moves)


@dataclass(frozen=True)
class HpSequence:
    """An ordered chain of H (hydrophobic) and P (polar) beads.

    ``weights`` optionally overrides the interaction strength of individual
    H-H pairs, keyed by 1-based bead index pairs (j, k) with j < k. Pairs
    without an entry default to weight 1.
    """

    beads: tuple[str, ...]
    weights: Optional[Mapping[tuple[int, int], float]] = None

    def __post_init__(self):
        if len(self.beads) < 2:
            raise ValueError("a sequence needs at least 2 beads")
        bad = sorted(set(self.beads) - {"H", "P"})
        if bad:
            raise ValueError(f"beads must be 'H' or 'P', got {bad}")
        if self.weights is not None:
            h_at = {i for i, b in enumerate(self.beads, start=1) if b == "H"}
            normalized = {}
            for (j, k), w in self.weights.items():
                if j == k or j not in h_at or k not in h_at:
                    raise ValueError(
                        f"weight key ({j},{k}) is not a pair of distinct H beads"
                    )
                lo, hi = min(j, k), max(j, k)
                key = (lo, hi)
                if key in normalized and normalized[key] != float(w):
                    raise ValueError(f"conflicting weights for pair {key}")
                normalized[key] = float(w)
            object.__setattr__(self, "weights", normalized)

    def __len__(self) -> int:
        return len(self.beads)

    def __str__(self) -> str:
        return "".join(self.beads)

    @property
    def h_indices(self) -> tuple[int, ...]:
        """1-based positions of the hydrophobic beads."""
        return tuple(i for i, b in enumerate(self.beads, start=1) if b == "H")

    def weight(self, j: int, k: int) -> float:
        if self.weights is None:
            return 1.0
        return self.weights.get((min(j, k), max(j, k)), 1.0)


def parse_sequence(text: str, weights=None) -> HpSequence:
    """Parse an H/P string (case-insensitive) into a sequence."""
    cleaned = text.strip().upper()
    if not cleaned:
        raise ValueError("empty sequence")
    return HpSequence(beads=tuple(cleaned), weights=weights)


def hydrophobic_pairs(seq: HpSequence) -> list[tuple[int, int]]:
    """All unordered H-H pairs (j, k) with k > j + 1 (bonded pairs excluded)."""
    hs = seq.h_indices
    return [(j, k) for a, j in enumerate(hs) for k in hs[a + 1:] if k > j + 1]


def max_contacts(seq: HpSequence) -> int:
    """Upper bound on non-bonded H-H contacts: M(M-1)/2 - c.

    M is the hydrophobic bead count and c the number of H-H pairs that are
    chain neighbours.
    """
    hs = seq.h_indices
    m = len(hs)
    bonded = sum(1 for a, b in zip(hs, hs[1:]) if b == a + 1)
    return m * (m - 1) // 2 - bonded


def turns_to_coordinates(turns: Sequence[Turn]) -> Conformation:
    """Prefix-sum the turns from the origin; bead 1 sits at (0, 0, 0)."""
    coords = [(0, 0, 0)]
    x = y = z = 0
    for tx, ty, tz in turns:
        x, y, z = x + tx, y + ty, z + tz
        coords.append((x, y, z))
    return tuple(coords)


def count_contacts(conf: Conformation, seq: HpSequence) -> int:
    """Count non-bonded H-H pairs within Chebyshev distance 1.

    Two beads are in contact when their coordinates differ by at most one
    lattice unit on every axis and are not identical, i.e. anywhere inside
    the surrounding unit cube (Euclidean 1, sqrt(2), or sqrt(3)).
    """
    if len(conf) != len(seq):
        raise ValueError(
            f"conformation has {len(conf)} beads but sequence has {len(seq)}"
        )
    total = 0
    for j, k in hydrophobic_pairs(seq):
        a, b = conf[j - 1], conf[k - 1]
        dx = abs(a[0] - b[0])
        dy = abs(a[1] - b[1])
        dz = abs(a[2] - b[2])
        if max(dx, dy, dz) == 1:
            total += 1
    return total


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-constraint violation lists for one decoded conformation.

    ``continuity`` holds 1-based turn numbers, ``overlap`` bead index pairs,
    ``crossing`` bond index pairs (r, k), and ``pair_exclusion`` (turn, axis)
    entries where both encoding halves of an axis were set.
    """

    continuity: tuple[int, ...] = ()
    overlap: tuple[tuple[int, int], ...] = ()
    crossing: tuple[tuple[int, int], ...] = ()
    pair_exclusion: tuple[tuple[int, str], ...] = ()

    @property
    def feasible(self) -> bool:
        return not (
            self.continuity or self.overlap or self.crossing or self.pair_exclusion
        )

    def violation_count(self) -> int:
        return (
            len(self.continuity)
            + len(self.overlap)
            + len(self.crossing)
            + len(self.pair_exclusion)
        )

    def to_dict(self) -> dict:
        return {
            "continuity": [t for t in self.continuity],
            "overlap": [list(p) for p in self.overlap],
            "crossing": [list(p) for p in self.crossing],
            "pair_exclusion": [[t, ax] for t, ax in self.pair_exclusion],
        }


def validate(
    turns: Sequence[Turn],
    seq: HpSequence,
    allow_steric: bool = True,
    pair_exclusion: Sequence[tuple[int, str]] = (),
) -> FeasibilityReport:
    """Geometric feasibility check of a turn sequence.

    Flags zero turns (and, with ``allow_steric=False``, body-diagonal turns)
    as continuity violations, coordinate collisions between non-adjacent
    beads as overlaps, and midpoint coincidences between non-adjacent bonds
    as crossings. ``pair_exclusion`` entries from a bit-level decode can be
    merged into the report by the caller.
    """
    n = len(seq)
    if len(turns) != n - 1:
        raise ValueError(f"expected {n - 1} turns for {n} beads, got {len(turns)}")

    continuity = []
    for i, t in enumerate(turns, start=1):
        if t == (0, 0, 0):
            continuity.append(i)
        elif not allow_steric and all(c != 0 for c in t):
            continuity.append(i)

    coords = turns_to_coordinates(turns)

    overlap = []
    seen: dict[Coord, list[int]] = {}
    for idx, pos in enumerate(coords, start=1):
        seen.setdefault(pos, []).append(idx)
    for positions in seen.values():
        for a, b in itertools.combinations(positions, 2):
            if b - a >= 2:
                overlap.append((a, b))
    overlap.sort()

    # Bond r spans beads (r, r+1); two bonds cross when their midpoints
    # coincide, i.e. the coordinate sums of their endpoints are equal.
    bond_sums = [
        tuple(coords[r - 1][c] + coords[r][c] for c in range(3))
        for r in range(1, n)
    ]
    crossing = []
    for r in range(1, n - 2):
        for k in range(r + 2, n):
            if bond_sums[r - 1] == bond_sums[k - 1]:
                crossing.append((r, k))

    return FeasibilityReport(
        continuity=tuple(continuity),
        overlap=tuple(overlap),
        crossing=tuple(crossing),
        pair_exclusion=tuple(pair_exclusion),
    )


def decode_bitstring(bits: Sequence[int], layout) -> TurnVector:
    """Turn a flat bit assignment back into the full turn sequence.

    ``layout`` is a :class:`hpfold.encoder.VariableLayout`; when it fixes the
    first turn, the fixed triple is prepended so the result always has N-1
    turns. Each component is plus-bit minus minus-bit, so a (1, 1) pair
    decodes to 0 just like (0, 0).
    """
    if len(bits) != layout.n_vars:
        raise ValueError(f"expected {layout.n_vars} bits, got {len(bits)}")
    turns = []
    if layout.first_turn_fixed:
        turns.append(layout.fixed_turn)
    for t in layout.encoded_turns:
        triple = tuple(
            bits[layout.index(t, axis, "plus")] - bits[layout.index(t, axis, "minus")]
            for axis in AXES
        )
        turns.append(triple)
    return tuple(turns)


def encode_turns(turns: Sequence[Turn], layout) -> tuple[int, ...]:
    """Canonical bit encoding of a turn sequence (never uses the (1,1) pair).

    Inverse of :func:`decode_bitstring` on its canonical range. Raises if the
    first turn disagrees with a layout-fixed first turn.
    """
    if len(turns) != layout.n_beads - 1:
        raise ValueError(
            f"expected {layout.n_beads - 1} turns, got {len(turns)}"
        )
    if layout.first_turn_fixed and tuple(turns[0]) != layout.fixed_turn:
        raise ValueError(
            f"layout fixes the first turn to {layout.fixed_turn}, got {tuple(turns[0])}"
        )
    bits = [0] * layout.n_vars
    for t in layout.encoded_turns:
        for axis_idx, axis in enumerate(AXES):
            comp = turns[t - 1][axis_idx]
            if comp not in (-1, 0, 1):
                raise ValueError(f"turn component out of range: {comp}")
            if comp == 1:
                bits[layout.index(t, axis, "plus")] = 1
            elif comp == -1:
                bits[layout.index(t, axis, "minus")] = 1
    return tuple(bits)


def pair_exclusions(bits: Sequence[int], layout) -> list[tuple[int, str]]:
    """(turn, axis) entries where both halves of the encoding pair are set."""
    if len(bits) != layout.n_vars:
        raise ValueError(f"expected {layout.n_vars} bits, got {len(bits)}")
    out = []
    for t in layout.encoded_turns:
        for axis in AXES:
            if bits[layout.index(t, axis, "plus")] and bits[layout.index(t, axis, "minus")]:
                out.append((t, axis))
    return out


def enumerate_optimal(
    seq: HpSequence,
    allow_steric: bool = True,
    first_turn: Turn = (1, 0, 0),
    max_beads: int = 7,
) -> tuple[int, Conformation]:
    """Brute-force maximum contact count over all feasible conformations.

    Fixes the first turn (removing rotational degeneracy, and matching the
    default encoder layout) and searches the remaining turns depth-first over
    the move alphabet, pruning overlaps and bond crossings as they appear.
    Returns the best contact count and one witness conformation.
    """
    n = len(seq)
    if n > max_beads:
        raise ValueError(
            f"enumeration over {n} beads exceeds the budget of {max_beads}"
        )
    moves = lattice_moves(allow_steric)
    if not allow_steric and all(c != 0 for c in first_turn):
        raise ValueError("fixed first turn is a steric move but steric is disallowed")

    start = first_turn
    coords = [(0, 0, 0), start]
    bond_sums = [start]  # sum of bond endpoints, always 2*midpoint
    occupied = {(0, 0, 0): 1, start: 1}

    best_count = -1
    best_conf: Conformation = ()

    def recurse(depth: int):
        nonlocal best_count, best_conf
        if depth == n - 1:
            conf = tuple(coords)
            c = count_contacts(conf, seq)
            if c > best_count:
                best_count = c
                best_conf = conf
            return
        last = coords[-1]
        for mv in moves:
            pos = (last[0] + mv[0], last[1] + mv[1], last[2] + mv[2])
            if pos in occupied:
                continue
            bsum = (last[0] + pos[0], last[1] + pos[1], last[2] + pos[2])
            # new bond index is depth+1; it may not cross bonds 1..depth-1
            if any(bsum == bond_sums[r] for r in range(depth - 1)):
                continue
            coords.append(pos)
            bond_sums.append(bsum)
            occupied[pos] = 1
            recurse(depth + 1)
            del occupied[pos]
            bond_sums.pop()
            coords.pop()

    recurse(1)
    if best_count < 0:
        raise RuntimeError("no feasible conformation found")  # unreachable for n >= 2
    return best_count, best_conf


def conformation_to_xyz(conf: Conformation, seq: HpSequence) -> str:
    """One line per bead: kind and integer lattice coordinates."""
    if len(conf) != len(seq):
        raise ValueError("conformation/sequence length mismatch")
    lines = [
        f"{kind} {x} {y} {z}" for kind, (x, y, z) in zip(seq.beads, conf)
    ]
    return "\n".join(lines) + "\n"

