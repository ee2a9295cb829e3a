"""Workload definitions: which sequences are solved, with which settings.

A workload is a fixed list of pipeline runs (one ``RunConfig`` per sequence)
derived only from the workload name and the benchmark seed, plus the target
contact count, if any, that each sequence should reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import hpfold as hp

# The five 10-bead benchmark sequences of the source paper's results table and
# the contact counts its annealing runs reached, as committed in
# tests/test_acceptance.py (TABLE_SEQUENCES, ANNEALING_FLOORS).
TABLE_SEQUENCES = (
    "PPHPPHPPHP",
    "HPPHPPHPHH",
    "HHPPHPHPHP",
    "HHHHPPHPHH",
    "HHHHHPHHHH",
)
ANNEALING_FLOORS = {
    "PPHPPHPPHP": 3,
    "HPPHPPHPHH": 9,
    "HHPPHPHPHP": 8,
    "HHHHPPHPHH": 14,
    "HHHHHPHHHH": 18,
}

# Sizes per workload. On the 2-core host of the baseline a fixed pass takes
# about 35 s (anneal: 25 s of table sequences, 10 s of chains) and 10 s
# (exact-small); a run then repeats calls until --seconds have passed.
TABLE_DRAWS = 2
CHAIN_BEADS = 28
CHAIN_COUNT = 2
CHAIN_DRAWS = 2
CHAIN_SWEEPS = 200
EXACT_BEADS = 5
EXACT_COUNT = 3
EXACT_DRAWS = 4
VQE_BEADS = 4
VQE_COUNT = 2
VQE_DRAWS = 2

# anneal: the table sequences at paper settings, where the annealer dominates
# and contact floors are known, plus long chains with a short anneal, where
# QUBO assembly dominates. exact-small: the 2^n enumerators, no annealing.
WORKLOADS = ("anneal", "exact-small")


@dataclass(frozen=True)
class Unit:
    """One ``solve_sequence`` call and the contact count it should reach."""

    config: hp.RunConfig
    target: Optional[int] = None  # contacts to reach; None when unknown
    optimal: bool = False  # target is the proven optimum, so it caps contacts


def _rng(seed: int, workload: str) -> np.random.Generator:
    # One independent stream per workload, so workloads never share inputs.
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _random_chain(rng: np.random.Generator, n_beads: int, n_h: int) -> str:
    beads = np.array(["H"] * n_h + ["P"] * (n_beads - n_h))
    rng.shuffle(beads)
    return "".join(beads)


def _short_chain(rng: np.random.Generator, n_beads: int) -> str:
    """A random H/P chain with at least one possible contact.

    A chain without a non-bonded H pair has a contact bound of zero, which
    leaves the contact fraction undefined, so such draws are skipped.
    """
    while True:
        seq = "".join(rng.choice(["H", "P"], size=n_beads))
        if hp.max_contacts(hp.parse_sequence(seq)) > 0:
            return seq


def _oracle_optimum(seq: str) -> int:
    return hp.enumerate_optimal(hp.parse_sequence(seq))[0]


def build(workload: str, seed: int) -> list[Unit]:
    """The runs of ``workload`` for benchmark seed ``seed`` (workers=1)."""
    rng = _rng(seed, workload)
    if workload == "anneal":
        table = [
            Unit(hp.RunConfig(sequence=s, draws=TABLE_DRAWS, seed=seed), ANNEALING_FLOORS[s])
            for s in TABLE_SEQUENCES
        ]
        chains = [
            Unit(
                hp.RunConfig(
                    sequence=_random_chain(rng, CHAIN_BEADS, CHAIN_BEADS // 2),
                    draws=CHAIN_DRAWS,
                    sweeps=CHAIN_SWEEPS,
                    seed=seed,
                )
            )
            for _ in range(CHAIN_COUNT)
        ]
        return table + chains
    if workload == "exact-small":
        exhaustive = [_short_chain(rng, EXACT_BEADS) for _ in range(EXACT_COUNT)]
        vqe = [_short_chain(rng, VQE_BEADS) for _ in range(VQE_COUNT)]
        return [
            Unit(
                hp.RunConfig(sequence=s, solver="exhaustive", draws=EXACT_DRAWS, seed=seed),
                _oracle_optimum(s),
                optimal=True,
            )
            for s in exhaustive
        ] + [
            Unit(
                hp.RunConfig(sequence=s, solver="vqe", draws=VQE_DRAWS, seed=seed),
                _oracle_optimum(s),
                optimal=True,
            )
            for s in vqe
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
