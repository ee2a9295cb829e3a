"""Exact statevector simulation of a hardware-efficient ansatz.

The circuit alternates rotation layers (RY then RZ on every qubit) with a
chain of CNOT entanglers: ``reps`` entangling blocks between ``reps + 1``
layers. The final layer is RY only, because an RZ just before measurement
changes no probability; that leaves n * (2 * reps + 1) parameters.

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
        return self.n_qubits * (2 * self.reps + 1)

    def entangler_pairs(self) -> list[tuple[int, int]]:
        pairs = [(i, i + 1) for i in range(self.n_qubits - 1)]
        if self.entangler == "circular" and self.n_qubits > 2:
            pairs.append((self.n_qubits - 1, 0))
        return pairs


def _apply_ry(state: np.ndarray, qubit: int, theta: float) -> None:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    view = state.reshape(-1, 2, 1 << qubit)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = c * a0 - s * a1
    view[:, 1, :] = s * a0 + c * a1


def _product(amplitudes: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Kron of the 2-vectors ``amplitudes[q]`` after RZ(``phi[q]``); qubit q is bit q."""
    factors = amplitudes * np.exp(0.5j * np.outer(phi, [-1.0, 1.0]))
    state = np.ones(1, complex)
    for factor in factors:
        state = np.multiply.outer(factor, state).ravel()
    return state


def simulate(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """Amplitude vector of the ansatz state for the given parameters.

    Parameter order: for each rotation layer, all RY angles (qubit 0..n-1)
    followed by all RZ angles, n * (2 * reps + 1) in all. The final layer
    has no RZ angles: phases just before measurement change no probability.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ValueError(
            f"expected {spec.n_params} parameters, got shape {params.shape}"
        )
    n = spec.n_qubits
    angles = params.reshape(2 * spec.reps + 1, n)
    ry, rz = angles[0::2], angles[1::2]
    state = _product(np.stack([np.cos(ry[0] / 2), np.sin(ry[0] / 2)], axis=1), rz[0])

    # The CNOT chain moves amplitude source[idx] to idx. The linear chain sets
    # bit q to the XOR of bits 0..q; the circular chain's closing CNOT (n-1, 0)
    # acts last, so it is undone first.
    source = np.arange(1 << n)
    if spec.entangler == "circular" and n > 2:
        source ^= (source >> (n - 1)) & 1
    source ^= (source << 1) & ((1 << n) - 1)
    for layer in range(1, spec.reps + 1):
        state = state[source]
        for q in range(n):
            _apply_ry(state, q, ry[layer, q])
        if layer < spec.reps:
            state *= _product(np.ones((n, 2)), rz[layer])
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def random_initial_params(spec: AnsatzSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform start in [-pi, pi], the conventional unbiased initialization."""
    return rng.uniform(-np.pi, np.pi, size=spec.n_params)
