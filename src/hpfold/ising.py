"""Basis-state energies of a quadratic binary problem, its spin form, samples and CVaR.

``energy_chunks`` enumerates all 2^n energies, equal to ``QuboProblem.energies``
bit for bit, for ``basis_energies`` and ``solvers.exhaustive``; both call
``check_enumerable``, the one limit of such a scan.
``qubo_to_ising`` gives the Pauli-Z coefficients of the same problem under
x = (1 - z) / 2, so bit 0 maps to z = +1 and bit 1 to z = -1. Every
computational basis state is an eigenstate, so a bitstring's energy is a
plain parity sum over the coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .encoder import QuboProblem


def qubo_to_ising(q: QuboProblem) -> tuple[float, np.ndarray, np.ndarray]:
    """The spin form ``(constant, h, J)`` of ``q``: a state's energy is
    ``constant + z·h + zᵀJz`` with z = 1 - 2x and J strictly upper triangular.
    ``quad`` holds each pair twice, hence the 8 in the constant."""
    lin, quad = q.lin, q.quad
    constant = q.const + float(lin.sum()) / 2.0 + float(quad.sum()) / 8.0
    return constant, -lin / 2.0 - quad.sum(axis=1) / 4.0, np.triu(quad) / 4.0


# States per enumeration chunk; bounds the working memory of a 2^n scan.
CHUNK = 1 << 16
# Most variables a 2^n scan takes: 6 beads with the first turn fixed.
ENUMERATION_LIMIT = 24


def check_enumerable(n_vars: int) -> None:
    """Refuse a 2^n scan over more than ``ENUMERATION_LIMIT`` variables."""
    if n_vars > ENUMERATION_LIMIT:
        raise ValueError(f"{n_vars} variables exceed the 2^n limit of {ENUMERATION_LIMIT}")


def _subset_sums(start, terms: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` (2^len(terms) entries) with start + the terms at the set bits of
    each index, by ascending bit: each prefix's upper half is its lower half + the next term."""
    out[0] = start
    for j, term in enumerate(terms):
        np.add(out[: 1 << j], term, out=out[1 << j : 2 << j])


def _scan(start, fields, quad: np.ndarray, out: np.ndarray, field: np.ndarray) -> None:
    """Fill ``out`` with ``start + Σ_k x_k·f_k``, ``f_k = fields[k] + Σ_{j<k}
    quad[j, k]·x_j``, over all settings x, by doubling; ``field`` is scratch."""
    out[0] = start
    for k, f in enumerate(fields):
        _subset_sums(f, quad[:k, k], field[: 1 << k])
        np.add(out[: 1 << k], field[: 1 << k], out=out[1 << k : 2 << k])


def energy_chunks(q: QuboProblem) -> Iterator[np.ndarray]:
    """Yield the energies of all 2^n states, ``CHUNK`` (rounded down to a power of
    two) at a time, each equal to ``q.energies`` of its state bit for bit. Chunk c
    fixes the m lowest variables to the bits of c and holds states c, c + 2^m,
    c + 2·2^m, ... Their terms come first in every sum, so one doubling over their
    settings gives each chunk's prefix energy and field starts; a doubling over
    the other variables adds the rest."""
    n, quad = q.n_vars, q.quad
    low = max(0, n - (CHUNK.bit_length() - 1))
    field, prefix = np.empty(1 << max(low, n - low)), np.empty(1 << low)
    _scan(q.const, q.lin[:low], quad, prefix, field)
    starts = np.empty((1 << low, n - low))  # per chunk, the fields of the other variables
    _subset_sums(q.lin[low:], quad[:low, low:], starts)
    for c in range(1 << low):
        energy = np.empty(1 << (n - low))
        _scan(prefix[c], starts[c], quad[low:, low:], energy, field)
        yield energy


def basis_energies(q: QuboProblem) -> np.ndarray:
    """Energies of all 2^n basis states from ``energy_chunks``, indexed by state s
    (bit i of s is (s >> i) & 1)."""
    n = q.n_vars
    check_enumerable(n)
    out = np.empty(1 << n)
    for c, energy in enumerate(energy_chunks(q)):
        out[c :: out.size // energy.size] = energy
    return out


def index_bits(states: np.ndarray, n: int) -> np.ndarray:
    """The (k, n) uint8 bits of k state indices, bit i of state s being (s >> i) & 1."""
    index_bytes = np.asarray(states).astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(index_bytes, axis=1, count=n, bitorder="little")


def unique_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a (k, n) 0/1 matrix, as ``(first, inverse)``.

    ``bits[first]`` are the distinct rows in ``np.unique(bits, axis=0)`` order,
    each taken at its first occurrence; ``inverse`` maps every row to its
    distinct row. Rows are packed into bits padded to whole 64-bit words,
    read as big-endian integers, which sort like the bit rows they pack; one
    stable ``lexsort`` over the words then keeps equal rows in row order.
    Zero-width rows are all one row.
    """
    k, n = bits.shape
    if n == 0:
        return np.zeros(min(k, 1), dtype=np.intp), np.zeros(k, dtype=np.intp)
    packed = np.zeros((k, -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(bits, axis=1)
    words = packed.view(">u8")
    order = np.lexsort(words.T[::-1])  # the last key sorts first
    words = words[order]
    new = np.empty(k, dtype=bool)
    new[:1] = True
    np.any(words[1:] != words[:-1], axis=1, out=new[1:])
    inverse = np.empty(k, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Distinct bitstrings, the rows of a (k, n) 0/1 matrix, with counts >= 1 and
    energies; the set keeps read-only uint8, int64 and float64 copies, best first:
    by energy, ties by bitstring. So any order of the same rows gives equal arrays."""

    bits: np.ndarray
    counts: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        counts = np.asarray(self.counts, dtype=np.int64)
        energies = np.asarray(self.energies, dtype=float)
        if bits.ndim != 2 or np.any(bits > 1):
            raise ValueError(f"expected a (k, n) 0/1 bit matrix, got shape {bits.shape}")
        if counts.shape != (len(bits),) or energies.shape != counts.shape:
            raise ValueError(f"{len(bits)} rows, {counts.size} counts, {energies.size} energies")
        if np.any(counts < 1):
            raise ValueError("multiplicities must be >= 1")
        first, rank = unique_rows(bits)  # rank: each row's place in bitstring order
        if len(first) != len(bits):
            raise ValueError("bitstrings must be distinct")
        order = np.lexsort((rank, energies))  # indexing copies: the caller's arrays stay writable
        bits, counts, energies = bits[order], counts[order], energies[order]
        bits.flags.writeable = counts.flags.writeable = energies.flags.writeable = False
        for name, value in (("bits", bits), ("counts", counts), ("energies", energies)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Rebuild on unpickling, so the arrays stay read-only.
        return SampleSet, (self.bits, self.counts, self.energies)

    @property
    def shots(self) -> int:
        return int(self.counts.sum())

    @property
    def entries(self) -> tuple[tuple[tuple[int, ...], int, float], ...]:
        """(bitstring, count, energy) per row, for reading and serializing."""
        rows = map(tuple, self.bits.tolist())
        return tuple(zip(rows, self.counts.tolist(), self.energies.tolist()))

    def to_json(self) -> str:
        return json.dumps(
            [
                {"bitstring": "".join(map(str, bits)), "count": count, "energy": energy}
                for bits, count, energy in self.entries
            ],
            indent=2,
            sort_keys=True,
            allow_nan=False,
        )


def check_count(value, what: str, least: int = 1) -> None:
    """Refuse a count that is not an integer >= ``least``; a boolean is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def check_cvar(alpha: float, shots: int = 0) -> None:
    """Refuse a CVaR tail fraction outside (0, 1] or shots (0 = exact) not an integer >= 0."""
    if isinstance(alpha, bool) or not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    check_count(shots, "shots", 0)


def cvar(energies, alpha: float, weights=None) -> float:
    """Mean of the lowest alpha-tail of an energy distribution.

    ``energies`` is an array of energies and ``weights``, if given, an array
    of the same shape of counts or probabilities. The tail mass is alpha times
    the total weight and the boundary item enters with fractional weight, so
    the estimate is continuous in alpha and alpha = 1 recovers the plain mean.
    """
    check_cvar(alpha)
    energies = np.asarray(energies, dtype=float)
    w = np.ones(energies.shape) if weights is None else np.asarray(weights, dtype=float)
    if energies.size == 0:
        raise ValueError("empty sample set")
    if w.shape != energies.shape or np.any(w <= 0):
        raise ValueError("weights must be positive and match the energies")

    order = np.argsort(energies, kind="stable")
    return sorted_cvar(energies[order], w[order], alpha)


def sorted_cvar(energies: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """``cvar`` of ascending float ``energies`` with positive weights ``w`` of the
    same shape, unchecked: what ``cvar`` passes on after checking and sorting."""
    mass = alpha * float(w.sum())
    take = np.minimum(w, np.maximum(mass - np.concatenate(([0.0], np.cumsum(w)[:-1])), 0.0))
    return float(np.dot(energies, take) / mass)

