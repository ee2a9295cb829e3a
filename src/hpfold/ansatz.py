"""Exact statevector simulation of a hardware-efficient ansatz.

The circuit alternates single-qubit rotation layers (RY then RZ on every
qubit) with a chain of CNOT entanglers, ending on a final rotation layer:
``reps`` entangling blocks give ``reps + 1`` rotation layers and therefore
2 * n * (reps + 1) parameters.

Qubit i is bit i of the basis-state index (little-endian), matching the
bitstring order used everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest qubit count the statevector simulation accepts.
QUBIT_BUDGET = 22


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the variational circuit."""

    n_qubits: int
    reps: int = 1
    entangler: str = "linear"

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValueError("qubit count must be non-negative")
        if self.n_qubits > QUBIT_BUDGET:
            raise ValueError(
                f"{self.n_qubits} qubits exceed the statevector budget of {QUBIT_BUDGET}"
            )
        if self.reps not in (1, 2):
            raise ValueError(f"reps must be 1 or 2, got {self.reps}")
        if self.entangler not in ("linear", "circular"):
            raise ValueError(f"unknown entangler {self.entangler!r}")

    @property
    def n_params(self) -> int:
        return 2 * self.n_qubits * (self.reps + 1)

    def entangler_pairs(self) -> list[tuple[int, int]]:
        pairs = [(i, i + 1) for i in range(self.n_qubits - 1)]
        if self.entangler == "circular" and self.n_qubits > 2:
            pairs.append((self.n_qubits - 1, 0))
        return pairs


def _apply_ry(state: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    view = state.reshape(-1, 2, 1 << qubit)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = c * a0 - s * a1
    view[:, 1, :] = s * a0 + c * a1
    return state


def _apply_rz(state: np.ndarray, qubit: int, phi: float) -> np.ndarray:
    view = state.reshape(-1, 2, 1 << qubit)
    view[:, 0, :] *= np.exp(-0.5j * phi)
    view[:, 1, :] *= np.exp(0.5j * phi)
    return state


def _apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    idx = np.arange(state.shape[0])
    flipped = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return state[flipped]


def simulate(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """Amplitude vector of the ansatz state for the given parameters.

    Parameter order: for each rotation layer, all RY angles (qubit 0..n-1)
    followed by all RZ angles.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ValueError(
            f"expected {spec.n_params} parameters, got shape {params.shape}"
        )
    n = spec.n_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0

    pos = 0
    for layer in range(spec.reps + 1):
        for q in range(n):
            state = _apply_ry(state, q, params[pos + q])
        pos += n
        for q in range(n):
            state = _apply_rz(state, q, params[pos + q])
        pos += n
        if layer < spec.reps:
            for c, t in spec.entangler_pairs():
                state = _apply_cnot(state, c, t)
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def random_initial_params(spec: AnsatzSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform start in [-pi, pi], the conventional unbiased initialization."""
    return rng.uniform(-np.pi, np.pi, size=spec.n_params)
