"""Basis-state energies of a quadratic binary problem, samples and CVaR.

The 2^n enumerator reads every energy from ``QuboProblem.energies``. The
diagonal spin-operator form is kept for export and as a test oracle. Spin
convention: bit 0 maps to z = +1 and bit 1 to z = -1, i.e. x = (1 - z) / 2.
Every computational basis state is an eigenstate, so a bitstring's energy is
a plain parity sum over the stored coefficients.
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


def basis_energy_chunks(q: QuboProblem) -> Iterator[tuple[int, np.ndarray]]:
    """Energies of all 2^n computational basis states, as (start, energies) chunks.

    State s has bit i equal to (s >> i) & 1; a chunk holds the energies of
    states start, start + 1, ... in order, each computed by ``q.energies``.
    """
    n = q.n_vars
    if n > 26:
        raise ValueError(f"2^{n} basis states exceed the enumeration budget")
    size = 1 << n
    for start in range(0, size, CHUNK):
        idx = np.arange(start, min(start + CHUNK, size), dtype=np.int64)
        yield start, q.energies((idx[:, None] >> np.arange(n)) & 1)


def basis_energies(q: QuboProblem) -> np.ndarray:
    """Energies of all 2^n computational basis states, indexed by state."""
    return np.concatenate([part for _, part in basis_energy_chunks(q)])


@dataclass(frozen=True)
class SampleSet:
    """Distinct bitstrings with multiplicities and their energies."""

    entries: tuple[tuple[tuple[int, ...], int, float], ...]
    shots: int

    def __post_init__(self):
        total = 0
        for bits, count, _energy in self.entries:
            if count < 1:
                raise ValueError("multiplicities must be >= 1")
            total += count
        if total != self.shots:
            raise ValueError(f"multiplicities sum to {total}, not shots={self.shots}")

    def energies(self) -> np.ndarray:
        return np.array([e for _, _, e in self.entries])

    def min_energy(self) -> float:
        return float(min(e for _, _, e in self.entries))

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


def cvar(samples, alpha: float, weights=None) -> float:
    """Mean of the lowest alpha-tail of an energy distribution.

    ``samples`` is a :class:`SampleSet` or a sequence of energies; unweighted
    sequences can carry explicit ``weights`` (counts or probabilities). The
    tail mass is alpha times the total weight and the boundary item enters
    with fractional weight, so the estimate is continuous in alpha and
    alpha = 1 recovers the plain mean.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if isinstance(samples, SampleSet):
        energies = samples.energies()
        w = np.array([c for _, c, _ in samples.entries], dtype=float)
    else:
        energies = np.asarray(list(samples), dtype=float)
        w = (
            np.ones(energies.shape[0])
            if weights is None
            else np.asarray(list(weights), dtype=float)
        )
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
