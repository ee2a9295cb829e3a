"""Basis-state energies of a quadratic binary problem, samples and CVaR.

``energy_chunks`` enumerates all 2^n energies, equal to ``QuboProblem.energies``
bit for bit, for ``basis_energies`` and ``solvers.exhaustive``. The
diagonal spin-operator form is kept for export and as a test
oracle. Spin convention: bit 0 maps to z = +1 and bit 1 to z = -1, i.e.
x = (1 - z) / 2. Every computational basis state is an eigenstate, so a
bitstring's energy is a plain parity sum over the stored coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .encoder import QuboProblem
from .polynomial import BinaryPolynomial

SPIN_CONVENTION = "bit 0 -> z=+1, bit 1 -> z=-1"


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


def qubo_to_ising(q: Union[QuboProblem, BinaryPolynomial], n_vars: int | None = None) -> IsingOperator:
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
    """Energy of one bitstring under the spin convention above."""
    if len(bits) != op.n:
        raise ValueError(f"expected {op.n} bits, got {len(bits)}")
    total = op.constant
    z = [1 - 2 * b for b in bits]
    for i, coeff in op.h.items():
        total += coeff * z[i]
    for (a, b), coeff in op.j.items():
        total += coeff * z[a] * z[b]
    return total


# States per enumeration chunk; bounds the working memory of a 2^n scan.
CHUNK = 1 << 16


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
    if n > 26:
        raise ValueError(f"2^{n} basis states exceed the enumeration budget")
    out = np.empty(1 << n)
    for c, energy in enumerate(energy_chunks(q)):
        out[c :: out.size // energy.size] = energy
    return out


def unique_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a (k, n) 0/1 matrix, as ``(first, inverse)``.

    ``bits[first]`` are the distinct rows in ``np.unique(bits, axis=0)`` order,
    each taken at its first occurrence; ``inverse`` maps every row to its
    distinct row. Rows are compared as packed big-endian bytes, which sort
    like the bit rows they pack. Zero-width rows are all one row.
    """
    packed = np.packbits(bits, axis=1)
    if packed.shape[1] == 0:
        return np.zeros(min(len(bits), 1), dtype=np.intp), np.zeros(len(bits), dtype=np.intp)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


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


def cvar(energies, alpha: float, weights=None) -> float:
    """Mean of the lowest alpha-tail of an energy distribution.

    ``energies`` is an array of energies and ``weights``, if given, an array
    of the same shape of counts or probabilities. The tail mass is alpha times
    the total weight and the boundary item enters with fractional weight, so
    the estimate is continuous in alpha and alpha = 1 recovers the plain mean.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    energies = np.asarray(energies, dtype=float)
    w = np.ones(energies.shape) if weights is None else np.asarray(weights, dtype=float)
    if energies.size == 0:
        raise ValueError("empty sample set")
    if w.shape != energies.shape or np.any(w <= 0):
        raise ValueError("weights must be positive and match the energies")

    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    w = w[order]
    mass = alpha * float(w.sum())
    take = np.minimum(w, np.maximum(mass - np.concatenate(([0.0], np.cumsum(w)[:-1])), 0.0))
    return float(np.dot(energies, take) / mass)


def ising_to_json(op: IsingOperator) -> str:
    doc = {
        "variables": op.n,
        "constant": op.constant,
        "linear_z": sorted([i, c] for i, c in op.h.items()),
        "quadratic_zz": sorted([a, b, c] for (a, b), c in op.j.items()),
        "spin_convention": SPIN_CONVENTION,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def ising_from_json(text: str) -> IsingOperator:
    doc = json.loads(text)
    return IsingOperator(
        n=doc["variables"],
        constant=doc["constant"],
        h={i: c for i, c in doc["linear_z"]},
        j={(a, b): c for a, b, c in doc["quadratic_zz"]},
    )
