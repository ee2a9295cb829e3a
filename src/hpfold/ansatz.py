"""Exact statevector simulation of a hardware-efficient ansatz.

The circuit alternates rotation layers (RY then RZ on every qubit) with a
linear chain of CNOTs (0, 1), (1, 2), ..., (n-2, n-1): ``reps`` entangling
blocks between ``reps + 1`` layers. The final layer is RY only, because an
RZ just before measurement changes no probability; that leaves
n * (2 * reps + 1) parameters.

Qubit i is bit i of the basis-state index (little-endian), matching the
bitstring order used everywhere else in the package.

An RY layer never does strided work. While qubit q rotates it is the lowest
index bit, so its bit-0 and bit-1 amplitudes are the even and odd entries;
the pass writes c*a0 - s*a1 into the first half of the state and
s*a0 + c*a1 into the second, which moves bit q to the top. After n passes
the index bits have gone round once and are back in order. Each amplitude
goes through the same complex products and sums, in the same order, as an
update of bit q in place, so the result is the same to the last bit,
signed zeros included. Each layer takes its cosines and its sines in one
call each, and the CNOT chain's index permutation is built once per qubit
count and reused by every evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ising import check_count

# Largest qubit count the statevector simulation accepts.
QUBIT_BUDGET = 22


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the variational circuit; every entangling block is the linear CNOT chain."""

    n_qubits: int
    reps: int = 1

    def __post_init__(self):
        check_count(self.n_qubits, "n_qubits", 0)
        check_count(self.reps, "reps")
        if self.n_qubits > QUBIT_BUDGET:
            raise ValueError(
                f"{self.n_qubits} qubits exceed the statevector budget of {QUBIT_BUDGET}"
            )
        if self.reps not in (1, 2):
            raise ValueError(f"reps must be 1 or 2, got {self.reps}")

    @property
    def n_params(self) -> int:
        return self.n_qubits * (2 * self.reps + 1)


def _ry_layer(state: np.ndarray, theta: np.ndarray) -> None:
    """RY(``theta[q]``) on every qubit q in turn, in place, on contiguous halves.

    ``x`` and ``y`` hold c·state and s·state, so the layer's peak is three
    statevectors.
    """
    half = state.size // 2
    x, y = np.empty_like(state), np.empty_like(state)
    for c, s in zip(np.cos(theta / 2.0).tolist(), np.sin(theta / 2.0).tolist()):
        np.multiply(c, state, out=x)
        np.multiply(s, state, out=y)
        np.subtract(x[0::2], y[1::2], out=state[:half])
        np.add(y[0::2], x[1::2], out=state[half:])


def _product(amplitudes: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Kron of the 2-vectors ``amplitudes[q]`` after RZ(``phi[q]``); qubit q is bit q."""
    factors = amplitudes * np.exp(0.5j * np.outer(phi, [-1.0, 1.0]))
    state = np.ones(1, complex)
    for factor in factors:
        state = np.multiply.outer(factor, state).ravel()
    return state


@functools.lru_cache(maxsize=1)
def _chain_source(n: int) -> np.ndarray:
    """Read-only index of the CNOT chain on ``n`` qubits: it moves amplitude
    ``source[idx]`` to ``idx``, which sets bit q to the XOR of bits 0..q.

    Kept for the last qubit count asked for. At the 22-qubit budget it is
    32 MB, held beside the RY layer's three 64 MB statevectors.
    """
    # intp, so that a gather needs no index conversion
    source = np.arange(1 << n, dtype=np.intp)
    source ^= (source << 1) & ((1 << n) - 1)
    source.flags.writeable = False
    return source


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
    for layer in range(1, spec.reps + 1):
        state = state[_chain_source(n)]
        _ry_layer(state, ry[layer])
        if layer < spec.reps:
            state *= _product(np.ones((n, 2)), rz[layer])
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def random_initial_params(spec: AnsatzSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform start in [-pi, pi], the conventional unbiased initialization."""
    return rng.uniform(-np.pi, np.pi, size=spec.n_params)
