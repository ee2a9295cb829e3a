"""Property tests: fast paths against the scalar oracles.

Coefficients are small integers unless a test asks for real ones; with
integers the QUBO, spin and brute-force energies are exact and ties between
states are real ties.
"""

import json
import math
import pickle
import warnings
from functools import reduce
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hpfold as hp
import oracles
from hpfold import ising, solvers
from hpfold.ansatz import AnsatzSpec, probabilities, simulate
from conftest import problem_from_polynomial
from hpfold import encoder, model
from hpfold.encoder import VariableLayout
from hpfold.model import hydrophobic_pairs, parse_sequence
from hpfold.polynomial import BinaryPolynomial
from hpfold.solvers import (
    CANDIDATE_COUNTS, VqeSettings, anneal, candidate_counts, default_schedule, exhaustive,
    postselect, vqe_statevector,
)

REAL = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def quadratic_problems(draw, max_used=10, coeff=st.integers(-8, 8)):
    """A QUBO over 6 or 12 layout variables whose polynomial uses up to ``max_used``."""
    used = draw(st.integers(1, max_used))
    n_vars = 6 if used <= 6 else 12
    terms = {frozenset(): draw(coeff)}
    for i in range(used):
        terms[frozenset((i,))] = draw(coeff)
        for j in range(i + 1, used):
            if draw(st.booleans()):
                terms[frozenset((i, j))] = draw(coeff)
    return problem_from_polynomial(
        BinaryPolynomial(terms), VariableLayout(n_vars // 6 + 1, first_turn_fixed=False)
    )


def bits_of(state, n):
    return tuple((state >> i) & 1 for i in range(n))


@settings(max_examples=30, deadline=None)
@given(
    q=quadratic_problems(),
    keep=st.integers(1, 5000),
    chunk=st.sampled_from([1, 7, 64, 1 << 20]),
)
def test_exhaustive_matches_brute_force(q, keep, chunk):
    n = q.n_vars
    energies = [q.polynomial.evaluate(bits_of(s, n)) for s in range(1 << n)]
    kept = sorted(range(1 << n), key=lambda s: (energies[s], s))[:keep]  # ties by index
    expected = sorted(kept, key=lambda s: (energies[s], bits_of(s, n)))  # listed best first
    with mock.patch.object(ising, "CHUNK", chunk):
        result = exhaustive(q, keep=keep)
    assert [e[0] for e in result.samples.entries] == [bits_of(s, n) for s in expected]
    assert [e[2] for e in result.samples.entries] == [energies[s] for s in expected]
    assert result.trace.dtype == np.float64 and result.trace.tolist() == [energies[expected[0]]]


# Decimal coefficients make many states tie in real arithmetic while their
# float sums differ in the last bits with the order of summation.
TIE_PRONE = st.sampled_from([0.1, 0.2, 0.3, 0.7, -0.1, -0.3, -0.7, 1 / 3])
ZERO_VARIABLE_PROBLEMS = REAL.map(
    lambda c: problem_from_polynomial(BinaryPolynomial({frozenset(): c}), VariableLayout(2))
)
# 12 variables and only a constant: every state ties, so ranks go by index alone.
CONSTANT_PROBLEMS = REAL.map(
    lambda c: problem_from_polynomial(
        BinaryPolynomial({frozenset(): c}), VariableLayout(3, first_turn_fixed=False)
    )
)


@settings(max_examples=60, deadline=None)
@given(
    q=st.one_of(
        quadratic_problems(max_used=12, coeff=REAL),
        quadratic_problems(max_used=12, coeff=TIE_PRONE),
        ZERO_VARIABLE_PROBLEMS,
        CONSTANT_PROBLEMS,
    ),
    chunk=st.sampled_from([1, 2, 7, 64, 1 << 16]),
    data=st.data(),
)
def test_exhaustive_keeps_the_exact_ranking(q, chunk, data):
    # The scan's energies are q.energies' own sums; what it keeps, ties cut
    # by index, must equal a full ranking of q.energies, bit for bit, listed
    # by (energy, bits).
    n = q.n_vars
    keep = data.draw(st.integers(1, (1 << n) + 3))
    states = np.arange(1 << n)
    energies = q.energies((states[:, None] >> np.arange(n)) & 1)
    kept = np.lexsort((states, energies))[:keep]
    expected = np.array(sorted(kept, key=lambda s: (energies[s], bits_of(s, n))), dtype=int)
    with mock.patch.object(ising, "CHUNK", chunk):
        result = exhaustive(q, keep=keep)
    want_bits = ((expected[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    assert result.samples.bits.shape == want_bits.shape
    assert result.samples.bits.tobytes() == want_bits.tobytes()
    assert result.samples.energies.tobytes() == energies[expected].tobytes()
    assert result.trace.dtype == np.float64 and result.trace.tolist() == [energies[expected[0]]]
    assert result.provenance == {"solver": "exhaustive", "states_scanned": 1 << n, "kept": expected.size}


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 63), data=st.data())
def test_index_bits_reads_bit_i_of_each_state(n, data):
    states = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    bits = ising.index_bits(np.array(states, dtype=np.int64), n)
    assert bits.dtype == np.uint8 and bits.shape == (len(states), n)
    assert bits.tolist() == [list(bits_of(s, n)) for s in states]


@pytest.mark.parametrize(
    "keep_of",
    [lambda m: 1, lambda m: 7, lambda m: m - 1, lambda m: m, lambda m: m + 5],
    ids=["1", "7", "all-but-one", "all", "more-than-all"],
)
@settings(max_examples=25, deadline=None)
@given(
    q=quadratic_problems(max_used=12, coeff=st.integers(-2, 2)),
    chunk=st.sampled_from([1, 2, 8, 64]),
)
def test_exhaustive_pool_cuts_keep_the_full_ranking(keep_of, q, chunk):
    # The pool is cut at 2 * keep rows and after the last chunk; with small
    # chunks the cuts fall at many places, and with small integers many
    # states tie at the keep-th energy, where the lowest indices must win.
    n = q.n_vars
    keep = keep_of(1 << n)
    states = np.arange(1 << n)
    energies = q.energies((states[:, None] >> np.arange(n)) & 1)
    kept = np.lexsort((states, energies))[:keep]
    with mock.patch.object(ising, "CHUNK", chunk):
        result = exhaustive(q, keep=keep)
    got = result.samples.bits.astype(np.int64) @ (1 << np.arange(n))
    assert sorted(got.tolist()) == sorted(kept.tolist())
    assert result.samples.energies.tobytes() == np.sort(energies[kept]).tobytes()
    assert result.provenance["kept"] == kept.size


def qubo_of(const, lin, upper):
    """A ``QuboProblem`` of the given terms over ``len(lin)`` variables with no
    layout; ``upper`` holds the pair coefficients above the diagonal."""
    upper = np.triu(upper, 1)
    return encoder.QuboProblem(
        float(const), lin, upper + upper.T,
        SimpleNamespace(n_vars=len(lin)),  # solvers read only the variable count
        encoder.PenaltyConfig(1.0, 1.0, 1.0, 1.0, 1.0),
        encoder.AxisDraw(overlap={}, crossing={}),
    )


@st.composite
def summed_problems(draw, coeff):
    """A problem of 0-18, 48 or 156 variables whose coefficients come from a
    small pool drawn from ``coeff``, and some rows, all-ones among them."""
    n = draw(st.one_of(st.integers(0, 18), st.sampled_from([48, 156])))
    pool = draw(st.lists(coeff, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    used = rng.random((n, n)) < density
    q = qubo_of(
        draw(coeff), rng.choice(pool, n), np.where(used, rng.choice(pool, (n, n)), 0.0)
    )
    rows = rng.integers(0, 2, (draw(st.integers(0, 6)), n))
    return q, np.vstack([np.ones(n, dtype=int), rows])


def left_to_right_energy(q, row):
    """``const + Σ_k x_k·f_k`` with ``f_k = lin_k + Σ_{j<k} quad[j, k]·x_j``,
    every sum taken left to right in Python floats."""
    total = float(q.const)
    for k in range(q.n_vars):
        field = float(q.lin[k])
        for j in range(k):
            field += row[j] * float(q.quad[j, k])
        total += field * row[k]
    return total


@settings(max_examples=80, deadline=None)
@given(case=st.one_of(summed_problems(REAL), summed_problems(TIE_PRONE)))
def test_energies_sum_in_one_order(case):
    q, bits = case
    want = np.array([left_to_right_energy(q, row) for row in bits.tolist()], dtype=float)
    assert q.energies(bits).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 5, 12])
@pytest.mark.parametrize("chunk", [1, 2, 7, 64, 1 << 16])
def test_energy_chunks_hold_the_energies_of_every_state_once(n, chunk):
    q = qubo_of(0.0, 2.0 ** np.arange(n), np.zeros((n, n)))  # energy = state index
    with mock.patch.object(ising, "CHUNK", chunk):
        chunks = list(ising.energy_chunks(q))
    size = min(1 << (chunk.bit_length() - 1), 1 << n)
    assert len(chunks) * size == 1 << n
    for c, energy in enumerate(chunks):
        assert energy.tolist() == list(range(c, 1 << n, len(chunks)))


@settings(max_examples=40, deadline=None)
@given(
    q=st.one_of(
        quadratic_problems(max_used=12, coeff=REAL),
        quadratic_problems(max_used=12, coeff=TIE_PRONE),
        ZERO_VARIABLE_PROBLEMS,
    ),
    chunk=st.sampled_from([1, 2, 7, 64, 1 << 16]),
)
# a constant of -0.0: the scan leaves state 0 at the constant, a row sum adds zeros to it
@example(q=qubo_of(-0.0, np.array([0.0, -0.0, 1.0]), np.zeros((3, 3))), chunk=2)
def test_basis_energies_are_row_energies(q, chunk):
    n = q.n_vars
    states = np.arange(1 << n)
    with mock.patch.object(ising, "CHUNK", chunk):
        energies = ising.basis_energies(q)
    assert energies.tobytes() == q.energies((states[:, None] >> np.arange(n)) & 1).tobytes()


def bit_rows(n, max_rows=12):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=max_rows
    ).map(lambda rows: np.array(rows, dtype=np.uint8))


@settings(max_examples=40, deadline=None)
@given(q=quadratic_problems(coeff=REAL), data=st.data())
def test_energies_match_polynomial(q, data):
    bits = data.draw(bit_rows(q.n_vars))
    scale = sum(abs(c) for c in q.polynomial.terms.values())
    for row, energy in zip(bits, q.energies(bits)):
        expected = q.polynomial.evaluate(tuple(int(b) for b in row))
        assert math.isclose(energy, expected, rel_tol=1e-9, abs_tol=1e-9 * scale)


@settings(max_examples=40, deadline=None)
@given(q=quadratic_problems(coeff=REAL), data=st.data())
def test_row_energy_does_not_depend_on_the_batch(q, data):
    bits = data.draw(bit_rows(q.n_vars))
    perm = np.array(data.draw(st.permutations(range(len(bits)))))
    copies = data.draw(st.integers(1, 300))
    batch = q.energies(bits)
    permuted = q.energies(bits[perm])
    tiled = q.energies(np.tile(bits, (copies, 1)))
    for r, row in enumerate(bits):
        alone = q.energies(row[None, :])[0]
        assert alone == batch[r] == permuted[np.flatnonzero(perm == r)[0]]
        assert np.all(tiled[r :: len(bits)] == alone)
        assert q.evaluate(tuple(int(b) for b in row)) == alone


@settings(max_examples=30, deadline=None)
@given(
    q=quadratic_problems(max_used=6, coeff=REAL),
    chunk=st.sampled_from([1, 7, 64, 1 << 16]),
)
def test_basis_energies_match_spin_form(q, chunk):
    n = q.n_vars
    op = oracles.spin_operator(q)
    with mock.patch.object(ising, "CHUNK", chunk):
        energies = ising.basis_energies(q)
    assert energies.shape == (1 << n,)
    for s in range(1 << n):
        assert abs(energies[s] - oracles.ising_energy(op, bits_of(s, n))) <= 1e-9


def _two_bead_problem():
    """The problem a ``--seq HP`` run assembles: the first turn is fixed, so no variables."""
    seq, layout = parse_sequence("HP"), VariableLayout(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # HP has no H pairs
        penalties = encoder.calibrate_penalties(seq)
    draw = encoder.draw_axes(np.random.default_rng(0), layout)
    return encoder.assemble(seq, layout, penalties, draw)


@settings(max_examples=60, deadline=None)
@given(q=st.one_of(quadratic_problems(max_used=12, coeff=REAL), ZERO_VARIABLE_PROBLEMS))
@example(q=_two_bead_problem())
def test_spin_form_matches_basis_energies_and_the_dict_oracle(q):
    n = q.n_vars
    constant, h, J = ising.qubo_to_ising(q)
    assert h.shape == (n,) and J.shape == (n, n)  # (0,) and (0, 0) for HP
    scale = abs(q.const) + np.abs(q.lin).sum() + np.abs(np.triu(q.quad)).sum()
    z = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    spin = constant + z @ h + ((z @ J) * z).sum(axis=1)
    assert np.all(np.abs(spin - ising.basis_energies(q)) <= 1e-9 * scale)
    op = oracles.spin_operator(q)
    dict_h, dict_J = np.zeros(n), np.zeros((n, n))
    for i, coeff in op.h.items():
        dict_h[i] = coeff
    for pair, coeff in op.j.items():
        dict_J[pair] = coeff
    assert abs(constant - op.constant) <= 1e-12 * scale
    assert np.all(np.abs(h - dict_h) <= 1e-12 * scale)
    assert np.all(np.abs(J - dict_J) <= 1e-12 * scale)


@settings(max_examples=20, deadline=None)
@given(
    q=quadratic_problems(coeff=REAL),
    seed=st.integers(0, 2**32 - 1),
    shots=st.sampled_from([0, 64]),
)
def test_sample_energies_are_state_energies(q, seed, shots):
    spec = AnsatzSpec(n_qubits=q.n_vars, reps=1)
    results = [
        anneal(q, default_schedule(q, sweeps=30, restarts=3, seed=seed)),
        exhaustive(q, keep=50),
        vqe_statevector(
            ising.basis_energies(q),
            spec,
            VqeSettings(max_evals=spec.n_params + 2, seed=seed),
            shots=shots,
        ),
    ]
    for result in results:
        for bits, _count, energy in result.samples.entries:
            assert energy == q.evaluate(bits)


def tuple_entries(samples):
    """(bits, count, energy) tuples built element by element from the arrays."""
    return [
        (tuple(int(b) for b in row), int(c), float(e))
        for row, c, e in zip(samples.bits, samples.counts, samples.energies)
    ]


def tuple_json(entries):
    """The samples.json serializer over (bits, count, energy) tuples."""
    return json.dumps(
        [
            {"bitstring": "".join(map(str, bits)), "count": count, "energy": energy}
            for bits, count, energy in entries
        ],
        indent=2,
        sort_keys=True,
        allow_nan=False,
    )


@settings(max_examples=20, deadline=None)
@given(
    q=quadratic_problems(coeff=REAL),
    seed=st.integers(0, 2**32 - 1),
    shots=st.sampled_from([0, 64]),
)
def test_samples_json_matches_the_tuple_serializer(q, seed, shots):
    spec = AnsatzSpec(n_qubits=q.n_vars, reps=1)
    vqe = vqe_statevector(
        ising.basis_energies(q), spec, VqeSettings(max_evals=spec.n_params + 2, seed=seed),
        shots=shots,
    )
    results = [
        anneal(q, default_schedule(q, sweeps=30, restarts=3, seed=seed)),
        exhaustive(q, keep=50),
        vqe,
    ]
    for result in results:
        samples = result.samples
        entries = tuple_entries(samples)
        assert samples.to_json() == tuple_json(entries)
        assert list(samples.entries) == entries
        assert samples.shots == sum(c for _, c, _ in entries)
        # a pickled copy, as worker processes return it, is the same and read-only
        back = pickle.loads(pickle.dumps(samples))
        assert back.to_json() == samples.to_json()
        with pytest.raises(ValueError):
            back.counts[0] = 1


@settings(max_examples=100, deadline=None)
@given(
    # word edges of the packed 64-bit keys, and the widths of 4-, 10- and 28-bead layouts
    width=st.sampled_from([0, 1, 7, 8, 9, 12, 48, 63, 64, 65, 128, 156]),
    pool=st.sampled_from([1, 2, 8, 100, 5000]),
    rows=st.one_of(st.sampled_from([0, 1]), st.integers(2, 40), st.just(4000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_unique_rows_matches_numpy_row_unique(width, pool, rows, seed):
    rng = np.random.default_rng(seed)
    distinct = rng.integers(0, 2, size=(pool, width), dtype=np.uint8)
    if width:  # pairs of rows that differ in one bit only
        odd = np.arange(1, pool, 2)
        distinct[odd] = distinct[odd - 1]
        distinct[odd, rng.integers(0, width, size=odd.size)] ^= 1
    bits = distinct[rng.integers(0, pool, size=rows)]  # many duplicates
    want_rows, want_first, want_inverse = np.unique(
        bits, axis=0, return_index=True, return_inverse=True
    )
    first, inverse = ising.unique_rows(bits)
    assert np.array_equal(first, want_first)
    assert np.array_equal(inverse, want_inverse)
    assert np.array_equal(bits[first], want_rows)


def by_energy_then_bits(entries):
    """(bits, count, energy) tuples, best first: by energy, ties by bits."""
    return sorted(entries, key=lambda e: (e[2], e[0]))


@settings(max_examples=100, deadline=None)
@given(
    width=st.sampled_from([0, 1, 7, 8, 9, 20]),
    rows=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_sets_are_best_first_in_any_row_order(width, rows, seed):
    rng = np.random.default_rng(seed)
    bits = np.unique(rng.integers(0, 2, size=(rows, width), dtype=np.uint8), axis=0)
    k = len(bits)
    # few distinct energies, signed zeros among them, so that many rows tie
    energies = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5], size=k)
    counts = rng.integers(1, 5, size=k)
    perm = rng.permutation(k)
    given_order = ising.SampleSet(bits, counts, energies)
    permuted = ising.SampleSet(bits[perm], counts[perm], energies[perm])
    for name in ("bits", "counts", "energies"):
        a, b = getattr(given_order, name), getattr(permuted, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    want = by_energy_then_bits(zip(map(tuple, bits.tolist()), counts.tolist(), energies.tolist()))
    assert tuple_entries(permuted) == want
    # -0.0 == 0.0, so compare signs too: every row keeps its own energy
    assert [math.copysign(1, e) for *_, e in permuted.entries] == [
        math.copysign(1, e) for *_, e in want
    ]


@settings(max_examples=30, deadline=None)
@given(
    q=quadratic_problems(coeff=st.integers(-2, 2)),
    keep=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_population_is_best_first(q, keep, seed):
    spec = AnsatzSpec(n_qubits=q.n_vars, reps=1)
    energies = ising.basis_energies(q)
    settings_ = VqeSettings(max_evals=spec.n_params + 2, seed=seed)
    # 256 shots over up to 4096 states: a sample usually holds more than keep states
    sampled = vqe_statevector(energies, spec, settings_, shots=256, keep=keep)
    results = [
        anneal(q, default_schedule(q, sweeps=30, restarts=3, seed=seed), keep=keep),
        exhaustive(q, keep=keep),
        vqe_statevector(energies, spec, settings_, keep=keep),
        sampled,
    ]
    for result in results:
        entries = tuple_entries(result.samples)
        assert 1 <= len(entries) <= keep
        assert entries == by_energy_then_bits(entries)
    for result in results[:2]:  # row 0 holds the lowest energy the run recorded
        assert result.trace.min() == tuple_entries(result.samples)[0][2]
    # a sampled population keeps the keep best states of the whole sample
    whole = vqe_statevector(energies, spec, settings_, shots=256, keep=256)
    assert tuple_entries(sampled.samples) == tuple_entries(whole.samples)[:keep]


def field_anneal(q, sched):
    """The annealer as a plain loop over every (sweep, class) step, with
    row-wise ``np.unique`` dedup and a scan for the first sweep at the lowest
    energy: the oracle for ``solvers.anneal``."""
    n = q.n_vars
    const, lin, quad = q.to_dense()
    perm, starts = solvers.coupling_classes(quad)
    lin, quad = lin[perm, None], quad[np.ix_(perm, perm)]
    rng = np.random.default_rng(sched.seed)
    r = sched.restarts

    x = rng.integers(0, 2, size=(r, n)).T[perm].astype(float)
    g = lin + quad @ x  # g[j, s] = flip cost of x_j from 0 to 1 in state s

    sweeps = sched.sweeps
    snap_states = np.empty((sweeps, n, r), dtype=np.uint8)
    for sweep, t in enumerate(sched.temperatures()):
        order = rng.permutation(len(starts) - 1)
        thresholds = -t * np.log(1.0 - rng.random((n, r)))
        for c in order:
            cls = slice(starts[c], starts[c + 1])
            sign = 1.0 - 2.0 * x[cls]
            accept = g[cls] * sign < thresholds[cls]
            delta = sign * accept
            x[cls] += delta
            g += quad[cls].T @ delta
        snap_states[sweep] = x

    states = snap_states[:, np.argsort(perm)].transpose(0, 2, 1).reshape(sweeps * r, n)
    uniq, first, inverse = np.unique(states, axis=0, return_index=True, return_inverse=True)
    uniq_energy = q.energies(uniq)
    energy = uniq_energy[inverse].reshape(sweeps, r)
    trace, best, best_sweep = [], math.inf, None
    for sweep in range(sweeps):
        for s in range(r):
            if energy[sweep, s] < best:
                best, best_sweep = energy[sweep, s], sweep
        trace.append((sweep, float(energy[sweep].min()), float(best)))
    uniq_first = np.full(uniq.shape[0], sweeps)
    np.minimum.at(uniq_first, inverse, np.repeat(np.arange(sweeps), r))
    uniq_counts = np.bincount(inverse, minlength=uniq.shape[0])
    order = np.argsort(uniq_energy, kind="stable")[: solvers.TOP_K]
    samples = ising.SampleSet(uniq[order], uniq_counts[order], uniq_energy[order])

    return solvers.Population(
        samples=samples,
        trace=tuple(trace),
        provenance={
            "solver": "anneal",
            "seed": sched.seed,
            "t_initial": sched.t_initial,
            "t_final": sched.t_final,
            "sweeps": sched.sweeps,
            "restarts": sched.restarts,
            "sweeps_to_best": best_sweep,
        },
        first_seen=uniq_first[order],
    )


# Temperature ladders relative to the coefficient scale: every step accepts,
# almost none does, or acceptance falls off during the run.
LADDERS = {"hot": (1e4, 1e3), "cold": (1e-2, 1e-4), "cross": (10.0, 1e-3)}


@st.composite
def anneal_cases(draw, exact=False, sweeps=st.integers(1, 60), restarts=st.integers(1, 4)):
    """A dense QUBO and a schedule; with ``exact``, small integers times a
    power of two, on which every sum of coefficients is exact."""
    n = draw(st.integers(0, 12))
    if exact:
        scale = 2.0 ** draw(st.integers(-10, 6))
    else:
        scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 7.0, 50.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if exact or draw(st.booleans()):  # small integers, so that energies tie
        lin = rng.integers(-2, 3, size=n) * scale
        upper = rng.integers(-2, 3, size=(n, n)) * scale
    else:
        lin = rng.uniform(-scale, scale, size=n)
        upper = rng.uniform(-scale, scale, size=(n, n))
    upper = np.triu(upper * (rng.random((n, n)) < draw(st.sampled_from([0.2, 1.0]))), 1)
    const = rng.integers(-2, 3) * scale if exact else rng.uniform(-scale, scale)
    q = qubo_of(const, lin, upper)
    hot, cold = LADDERS[draw(st.sampled_from(sorted(LADDERS)))]
    sched = solvers.AnnealSchedule(
        t_initial=hot * scale,
        t_final=cold * scale,
        sweeps=draw(sweeps),
        restarts=draw(restarts),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return q, sched


def assert_trace_is(got, rows):
    """A solver's trace array against an oracle's (iteration, objective, best so
    far) rows: the objective column bit for bit, and the best column as its running
    minimum."""
    _, objective, best = zip(*rows)
    assert got.dtype == np.float64 and got.shape == (len(rows),)
    assert got.tobytes() == np.array(objective).tobytes()
    assert np.minimum.accumulate(got).tobytes() == np.array(best).tobytes()


def assert_same_run(got, want):
    assert_trace_is(got.trace, want.trace)
    for name in ("bits", "counts", "energies"):
        a, b = getattr(got.samples, name), getattr(want.samples, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array_equal(got.first_seen, want.first_seen)
    assert got.provenance == want.provenance


@settings(max_examples=200, deadline=None)
@given(case=anneal_cases())
def test_anneal_matches_the_plain_loop(case):
    q, sched = case
    assert_same_run(anneal(q, sched), field_anneal(q, sched))


@pytest.mark.parametrize(
    "beads, sweeps",
    [
        # paper settings: 48 variables, lambda0 = 50/9, 811 of 2000 sweeps quiet
        ("HPPHPPHPHH", 2000),
        # 156 variables, 104 of 200 sweeps quiet
        ("HPHHPPHPHHPPPHHPHPPHHHPPHPHP", 200),
    ],
)
def test_anneal_matches_the_plain_loop_at_paper_scale(beads, sweeps):
    seq = parse_sequence(beads)
    layout = VariableLayout(len(seq))
    draw = encoder.draw_axes(np.random.default_rng(2024), layout)
    q = encoder.assemble(seq, layout, encoder.calibrate_penalties(seq), draw, rng_seed=2024)
    sched = default_schedule(q, sweeps=sweeps, seed=7)
    assert_same_run(anneal(q, sched), field_anneal(q, sched))


SWEEPS, RESTARTS = st.sampled_from([1, 2, 50, 300]), st.sampled_from([1, 3, 20])
TWENTY_EIGHT_BEADS = "HPHHPPHPHHPPPHHPHPPHHHPPHPHP"


def hp_anneal_case(beads, seed, fixed, sweeps, restarts):
    """A seeded axis draw of ``beads`` under its default schedule."""
    seq = parse_sequence(beads)
    layout = VariableLayout(len(seq), first_turn_fixed=fixed)
    axes = encoder.draw_axes(np.random.default_rng(seed), layout)
    q = encoder.assemble(seq, layout, encoder.calibrate_penalties(seq), axes, rng_seed=seed)
    return q, default_schedule(q, sweeps=sweeps, restarts=restarts, seed=seed)


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(
    anneal_cases(sweeps=SWEEPS, restarts=RESTARTS),
    st.builds(
        hp_anneal_case,
        st.sampled_from(["HPPH", "HPPHP", "HPPHPPHPHH", "HHHHHPHHHH", TWENTY_EIGHT_BEADS]),
        st.integers(0, 2**32 - 1), st.booleans(), SWEEPS, RESTARTS,
    ),
))
# paper-size draws at 300 sweeps: the last 130-150 sweeps look ahead
@example(case=hp_anneal_case("HPPHPPHPHH", 2024, True, 300, 20))
@example(case=hp_anneal_case(TWENTY_EIGHT_BEADS, 7, True, 300, 20))
def test_anneal_matches_the_reference_annealer(case):
    # the four-call step, the one-way switch to look-ahead sweeps and the
    # packed-word dedup change no byte of any output
    q, sched = case
    got, want = anneal(q, sched), oracles.reference_anneal(q, sched)
    pairs = [(getattr(got.samples, name), getattr(want.samples, name))
             for name in ("bits", "counts", "energies")]
    for a, b in pairs + [(got.trace, want.trace), (got.first_seen, want.first_seen)]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.provenance == want.provenance


def scalar_anneal(q, sched):
    """One variable flips at a time, in Python scalars: classes in the
    sweep's order, members by index, restarts in turn, with an incremental
    energy. It shares no code with ``solvers.anneal`` and equals it only
    where every sum is exact, as on small integers times a power of two."""
    n, r = q.n_vars, sched.restarts
    const, lin, quad = q.to_dense()
    colour = []
    for i in range(n):  # greedy, in index order
        taken = {colour[j] for j in range(i) if quad[i, j] != 0}
        colour.append(min(set(range(i + 1)) - taken))
    classes = [[v for v in range(n) if colour[v] == c] for c in range(len(set(colour)))]
    row = {v: k for k, v in enumerate(v for cls in classes for v in cls)}  # threshold row

    rng = np.random.default_rng(sched.seed)
    x = rng.integers(0, 2, size=(r, n)).tolist()
    g = [[lin[k] + sum(quad[k, j] * x[s][j] for j in range(n)) for k in range(n)] for s in range(r)]
    energy = [
        const + sum(lin[i] * x[s][i] + sum(quad[i, j] * x[s][i] * x[s][j] for j in range(i))
                    for i in range(n))
        for s in range(r)
    ]
    seen = {}  # state -> [count, first sweep, energy]
    trace, best, best_sweep = [], math.inf, None
    for sweep, t in enumerate(sched.temperatures()):
        order = rng.permutation(len(classes))
        thresholds = -t * np.log(1.0 - rng.random((n, r)))
        for c in order:
            for v in classes[c]:
                for s in range(r):
                    sign = 1 - 2 * x[s][v]
                    if g[s][v] * sign < thresholds[row[v], s]:
                        x[s][v] += sign
                        energy[s] += g[s][v] * sign
                        for k in range(n):
                            g[s][k] += sign * quad[v, k]
        for s in range(r):
            state = tuple(x[s])
            seen.setdefault(state, [0, sweep, energy[s]])[0] += 1
            if energy[s] < best:
                best, best_sweep = energy[s], sweep
        trace.append((sweep, float(min(energy)), float(best)))

    kept = sorted(seen, key=lambda b: (seen[b][2], b))[: solvers.TOP_K]
    return solvers.Population(
        samples=ising.SampleSet(
            np.array(kept, dtype=np.uint8).reshape(len(kept), n),
            np.array([seen[b][0] for b in kept]),
            np.array([seen[b][2] for b in kept], dtype=float),
        ),
        trace=tuple(trace),
        provenance={
            "solver": "anneal",
            "seed": sched.seed,
            "t_initial": sched.t_initial,
            "t_final": sched.t_final,
            "sweeps": sched.sweeps,
            "restarts": sched.restarts,
            "sweeps_to_best": best_sweep,
        },
        first_seen=np.array([seen[b][1] for b in kept]),
    )


@settings(max_examples=100, deadline=None)
@given(case=anneal_cases(exact=True))
def test_anneal_matches_one_flip_at_a_time(case):
    # Class steps flip uncoupled variables together and update the fields
    # with one product; in exact arithmetic that is the single-flip chain.
    q, sched = case
    assert_same_run(anneal(q, sched), scalar_anneal(q, sched))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 24),
    density=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupling_classes_are_independent_sets(n, density, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(-2, 3, size=(n, n)) * (rng.random((n, n)) < density), 1)
    quad = (upper + upper.T).astype(float)
    perm, starts = solvers.coupling_classes(quad)
    assert sorted(perm.tolist()) == list(range(n))  # a partition of the variables
    assert starts[0] == 0 and starts[-1] == n and np.all(np.diff(starts) > 0)
    for a, b in zip(starts, starts[1:]):
        cls = perm[a:b]
        assert np.all(np.diff(cls) > 0)  # members in index order
        assert not np.any(quad[np.ix_(cls, cls)])
    again = solvers.coupling_classes(quad.copy())
    assert np.array_equal(again[0], perm) and np.array_equal(again[1], starts)


def merged_ranking(entries, top_k):
    """Rank (bits, count, energy) tuples by merging them per bitstring and
    sorting by (energy, bits); the ``top_k`` first are the candidates."""
    merged = {}
    for bits, count, energy in entries:
        merged[bits] = (merged[bits][0] + count, energy) if bits in merged else (count, energy)
    return sorted(merged.items(), key=lambda kv: (kv[1][1], kv[0]))[:top_k]


def reference_choice(ranked, q, seq, allow_steric=True):
    """The most-contact feasible candidate, ties by (energy, bits); if none is
    feasible, the least-violating one, ties by (energy, bits)."""
    feasible, fallback = [], []
    for bits, (_count, energy) in ranked:
        turns = model.decode_bitstring(bits, q.layout)
        report = model.validate(
            turns, seq, allow_steric=allow_steric,
            pair_exclusion=model.pair_exclusions(bits, q.layout),
        )
        contacts = model.count_contacts(model.turns_to_coordinates(turns), seq)
        if report.feasible:
            feasible.append((-contacts, energy, bits))
        else:
            fallback.append((report.violation_count(), energy, bits))
    _, energy, bits = min(feasible) if feasible else min(fallback)
    return bits, energy, bool(feasible)


@pytest.fixture(scope="module")
def folds():
    """Per sequence: a folding QUBO and the bits of its 64 lowest-energy
    states, many of them feasible."""
    out = {}
    for beads in ("HPH", "HPPH", "HHPH"):
        seq = parse_sequence(beads)
        layout = VariableLayout(len(seq))
        q = encoder.assemble(
            seq, layout, encoder.calibrate_penalties(seq),
            encoder.draw_axes(np.random.default_rng(len(beads)), layout),
        )
        out[beads] = seq, q, np.array(exhaustive(q, keep=64).samples.bits)
    return out


@settings(max_examples=60, deadline=None)
@given(beads=st.sampled_from(["HPH", "HPPH", "HHPH"]), data=st.data())
def test_postselect_matches_the_merged_ranking(folds, beads, data):
    seq, q, low = folds[beads]
    n = q.n_vars
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = np.concatenate([
        low[rng.random(len(low)) < data.draw(st.floats(0.0, 1.0))],
        rng.integers(0, 2, size=(data.draw(st.integers(0, 40)), n)),
    ])
    bits = np.unique(rows, axis=0)
    if len(bits) == 0:
        bits = low[:1]
    k = len(bits)
    perm = rng.permutation(k)
    # few distinct energies, so many rows tie
    samples = ising.SampleSet(
        bits[perm], rng.integers(1, 5, size=k), rng.integers(-2, 3, size=k) / 2.0
    )
    ranked = merged_ranking(tuple_entries(samples), k)
    sel = postselect(samples, q, seq)
    bits, energy, feasible = reference_choice(ranked, q, seq)
    assert sel.provenance["candidates"] == len(ranked) == k
    assert (sel.best_bits, sel.best_value, sel.feasible) == (bits, energy, feasible)


def oracle_counts(bits, layout, seq, allow_steric):
    """The scalar oracle's list lengths and contacts, in ``CANDIDATE_COUNTS`` order."""
    turns = model.decode_bitstring(bits, layout)
    report = model.validate(
        turns, seq, allow_steric=allow_steric,
        pair_exclusion=model.pair_exclusions(bits, layout),
    )
    contacts = model.count_contacts(model.turns_to_coordinates(turns), seq)
    return [len(report.continuity), len(report.overlap), len(report.crossing),
            len(report.pair_exclusion), contacts]


@st.composite
def candidate_sets(draw):
    """Distinct bit rows for a 2-9 bead layout: lattice walks, some with (1,1)
    pairs set, some with random bits; optionally every row spoiled by a zero turn."""
    seq = parse_sequence(draw(st.text("HP", min_size=2, max_size=9)))
    layout = VariableLayout(len(seq), first_turn_fixed=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    moves = np.array(model.lattice_moves(allow_steric=draw(st.booleans())))
    walks = moves[rng.integers(0, len(moves), size=(draw(st.integers(1, 30)), len(seq) - 1))]
    if layout.first_turn_fixed:
        walks[:, 0] = model.FIXED_TURN
    rows = np.array([model.encode_turns(w.tolist(), layout) for w in walks], dtype=np.uint8)
    rows = rows.reshape(len(walks), layout.n_vars)
    rows[:, 1::2] |= rows[:, ::2] & (rng.random(rows[:, ::2].shape) < draw(st.floats(0, 0.2)))
    noise = rng.integers(0, 2, size=(draw(st.integers(0, 10)), layout.n_vars), dtype=np.uint8)
    rows = np.concatenate([rows, noise])
    if layout.n_vars and draw(st.booleans()):
        rows[:, -6:] = 0  # the last turn is zero: nothing is feasible
    return seq, layout, np.unique(rows, axis=0), rng


@settings(max_examples=150, deadline=None)
@given(
    cands=candidate_sets(),
    allow_steric=st.booleans(),
    block=st.sampled_from([1, 7, 512]),
)
def test_batched_checks_match_the_scalar_oracle(cands, allow_steric, block):
    seq, layout, bits, rng = cands
    k = len(bits)
    with mock.patch.object(solvers, "COUNT_BLOCK", block):
        counts = candidate_counts(bits, layout, seq, allow_steric)
    expected = [oracle_counts(tuple(row), layout, seq, allow_steric) for row in bits.tolist()]
    assert counts.tolist() == expected

    q = SimpleNamespace(layout=layout)  # postselect reads only the layout
    samples = ising.SampleSet(bits, np.ones(k, dtype=np.int64), rng.integers(-2, 3, size=k) / 2.0)
    ranked = merged_ranking(tuple_entries(samples), k)
    sel = postselect(samples, q, seq, allow_steric=allow_steric)
    assert (sel.best_bits, sel.best_value, sel.feasible) == reference_choice(
        ranked, q, seq, allow_steric
    )
    kept = [oracle_counts(row, layout, seq, allow_steric) for row, _ in ranked]
    assert sel.census == {
        "feasible_candidates": sum(not any(c[:-1]) for c in kept),
        "rejected": {
            kind: sum(c[i] > 0 for c in kept) for i, kind in enumerate(CANDIDATE_COUNTS[:-1])
        },
    }


@settings(max_examples=40, deadline=None)
@given(q=quadratic_problems())
def test_dense_form_matches_terms_and_is_read_only(q):
    n = q.n_vars
    lin = np.zeros(n)
    quad = np.zeros((n, n))
    const = 0.0
    for key, coeff in q.polynomial.as_dict().items():
        if len(key) == 0:
            const = coeff
        elif len(key) == 1:
            lin[key[0]] += coeff
        else:
            quad[key] += coeff
            quad[key[::-1]] += coeff
    # a pickled copy, as worker processes return it, stays read-only too
    for problem in (q, pickle.loads(pickle.dumps(q))):
        got_const, got_lin, got_quad = problem.to_dense()
        assert got_const == const
        assert np.array_equal(got_lin, lin) and np.array_equal(got_quad, quad)
        with pytest.raises(ValueError):
            got_lin[0] = 1.0
        with pytest.raises(ValueError):
            got_quad[0, 1] = 1.0


@settings(max_examples=40, deadline=None)
@given(q=quadratic_problems(), seq=st.text("HP", min_size=1, max_size=8))
def test_qubo_json_round_trip(q, seq):
    text = hp.qubo_to_json(q, sequence=seq)
    back = hp.qubo_from_json(text)
    assert back.const == q.const
    assert np.array_equal(back.lin, q.lin) and np.array_equal(back.quad, q.quad)
    assert back.layout == q.layout
    assert back.penalties == q.penalties
    assert back.axis_draw == q.axis_draw
    assert back.rng_seed == q.rng_seed
    assert back.polynomial == q.polynomial
    assert hp.qubo_to_json(back, sequence=seq) == text


# Penalty weights. The builders prune coefficients at or below
# PRUNE_THRESHOLD in every intermediate sum and assemble prunes once, so a
# weight near 1e-12 can leave a coefficient within rounding of the threshold,
# kept by one and pruned by the other.
LAMBDAS = st.one_of(st.just(0.0), st.floats(1e-3, 50.0))


@st.composite
def encodings(draw):
    """A sequence, layout, penalties and axis draw as the pipeline could build them."""
    beads = draw(st.text("HP", min_size=2, max_size=9))
    h_pairs = hydrophobic_pairs(parse_sequence(beads))
    weights = {p: draw(st.floats(0.1, 5.0)) for p in h_pairs if draw(st.booleans())}
    seq = parse_sequence(beads, weights=weights or None)
    layout = VariableLayout(len(seq), first_turn_fixed=draw(st.booleans()))
    overrides = draw(st.dictionaries(
        st.sampled_from(["lambda0", "lambda1", "lambda2", "lambda3", "lambda4"]),
        LAMBDAS,
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sequences without H pairs warn
        penalties = encoder.calibrate_penalties(seq, overrides=overrides)
    axis_draw = encoder.draw_axes(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), layout)
    return seq, layout, penalties, axis_draw


@settings(max_examples=60, deadline=None)
@given(case=encodings())
def test_assemble_matches_the_builders(case):
    seq, layout, pen, draw = case
    spec = (
        pen.lambda0 * oracles.build_objective(seq, layout)
        + pen.lambda1 * oracles.build_continuity(layout, form="quadratic")
        - pen.lambda2 * oracles.build_overlap(layout, draw)
        - pen.lambda3 * oracles.build_crossing(layout, draw)
        + pen.lambda4 * oracles.build_pair_exclusion(layout)
    ).as_dict()
    got = encoder.assemble(seq, layout, pen, draw).polynomial.as_dict()
    assert got.keys() == spec.keys()
    scale = max(map(abs, spec.values()), default=0.0)
    for key, coeff in spec.items():
        assert abs(got[key] - coeff) <= 1e-12 * scale


PENALTY_NAMES = ("lambda0", "lambda1", "lambda2", "lambda3", "lambda4")


@settings(max_examples=200, deadline=None)
@given(
    beads=st.text("HP", min_size=2, max_size=12),
    given_weights=st.dictionaries(
        st.sampled_from(PENALTY_NAMES),
        st.one_of(st.none(), st.integers(0, 10**6), st.floats(0.0, 1e300),
                  st.sampled_from([0.0, 5e-324, 1e307, 1.7e308])),
    ),
)
@example(beads="HPPHPPHPHH", given_weights={"lambda0": 100.0})
@example(beads="HPPHPPHPHH", given_weights={"lambda3": 5.0})
@example(beads="PPPP", given_weights={"lambda2": 2.0})
@example(beads="HPPHPPHPHH", given_weights={"lambda2": 1e308, "lambda4": 1.0})  # λ0 overflows
def test_set_weights_are_kept_and_the_rest_calibrated_from_them(beads, given_weights):
    seq = parse_sequence(beads)
    n0 = len(hydrophobic_pairs(seq))
    n2, n3 = len(encoder.overlap_pairs(len(seq))), len(encoder.crossing_pairs(len(seq)))
    set_weights = {k: float(v) for k, v in given_weights.items() if v is not None}
    w = {"lambda2": 1.0, "lambda3": 0.5, **set_weights}
    if "lambda0" not in w:
        w["lambda0"] = (w["lambda2"] * n2 + w["lambda3"] * n3) / n0 if n0 else 1.0
    logical = 10.0 * max(w["lambda0"], w["lambda2"], w["lambda3"])
    w = {"lambda1": logical, "lambda4": logical, **w}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if not all(map(math.isfinite, w.values())):
            # the set weights are named, never the derived one that overflowed
            with pytest.raises(ValueError) as raised:
                encoder.calibrate_penalties(seq, overrides=given_weights)
            named = ", ".join(set_weights)
            assert str(raised.value) == f"the weights calibrated from {named} overflow a float"
            return
        pen = encoder.calibrate_penalties(seq, overrides=given_weights)
    assert pen.to_dict() == {k: w[k] for k in PENALTY_NAMES}  # the set weights kept exactly
    # sequences without H pairs warn, and only when lambda0 is calibrated
    assert len(caught) == (n0 == 0 and "lambda0" not in set_weights)


def reference_simulate(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """Gate-by-gate ansatz state: from |0...0>, each of the reps + 1 layers applies
    RY then RZ on every qubit, with the CNOTs of ``oracles.entangler_pairs(spec)``
    between layers. Takes 2n(reps + 1) angles, the final RZ layer included."""
    n = spec.n_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    idx = np.arange(1 << n)
    angles = np.asarray(params, dtype=float).reshape(spec.reps + 1, 2, n)
    for layer, (ry, rz) in enumerate(angles):
        for q in range(n):
            view = state.reshape(-1, 2, 1 << q)
            a0, a1 = view[:, 0, :].copy(), view[:, 1, :].copy()
            c, s = np.cos(ry[q] / 2), np.sin(ry[q] / 2)
            view[:, 0, :], view[:, 1, :] = c * a0 - s * a1, s * a0 + c * a1
        for q in range(n):
            view = state.reshape(-1, 2, 1 << q)
            view[:, 0, :] *= np.exp(-0.5j * rz[q])
            view[:, 1, :] *= np.exp(0.5j * rz[q])
        if layer < spec.reps:
            for control, target in oracles.entangler_pairs(spec):
                state = state[np.where((idx >> control) & 1, idx ^ (1 << target), idx)]
    return state


ansatz_specs = st.builds(
    AnsatzSpec,
    n_qubits=st.integers(0, 10),
    reps=st.sampled_from([1, 2]),
)


@settings(max_examples=80, deadline=None)
@given(spec=ansatz_specs, seed=st.integers(0, 2**32 - 1))
def test_simulate_matches_the_gate_by_gate_circuit(spec, seed):
    params = np.random.default_rng(seed).uniform(-np.pi, np.pi, spec.n_params)
    expected = reference_simulate(spec, np.concatenate([params, np.zeros(spec.n_qubits)]))
    assert np.abs(simulate(spec, params) - expected).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(spec=ansatz_specs, seed=st.integers(0, 2**32 - 1))
def test_final_rz_layer_changes_no_probability(spec, seed):
    # why the ansatz has no final RZ angles
    rng = np.random.default_rng(seed)
    params = rng.uniform(-np.pi, np.pi, spec.n_params)

    def probs(final_rz):
        return probabilities(reference_simulate(spec, np.concatenate([params, final_rz])))

    random_rz = rng.uniform(-np.pi, np.pi, spec.n_qubits)
    assert np.abs(probs(random_rz) - probs(np.zeros(spec.n_qubits))).max() <= 1e-12


def kron_apply_ry(state: np.ndarray, qubit: int, theta: float) -> None:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    view = state.reshape(-1, 2, 1 << qubit)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = c * a0 - s * a1
    view[:, 1, :] = s * a0 + c * a1


def kron_product(amplitudes: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Kron of the 2-vectors ``amplitudes[q]`` after RZ(``phi[q]``); qubit q is bit q."""
    factors = amplitudes * np.exp(0.5j * np.outer(phi, [-1.0, 1.0]))
    return reduce(lambda state, factor: np.kron(factor, state), factors, np.ones(1, complex))


def kron_simulate(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """The earlier ``simulate``: ``np.kron`` product states and a strided per-qubit RY."""
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ValueError(
            f"expected {spec.n_params} parameters, got shape {params.shape}"
        )
    n = spec.n_qubits
    angles = params.reshape(2 * spec.reps + 1, n)
    ry, rz = angles[0::2], angles[1::2]
    state = kron_product(np.stack([np.cos(ry[0] / 2), np.sin(ry[0] / 2)], axis=1), rz[0])

    # The CNOT chain moves amplitude source[idx] to idx; it sets bit q to the
    # XOR of bits 0..q.
    source = np.arange(1 << n)
    source ^= (source << 1) & ((1 << n) - 1)
    for layer in range(1, spec.reps + 1):
        state = state[source]
        for q in range(n):
            kron_apply_ry(state, q, ry[layer, q])
        if layer < spec.reps:
            state *= kron_product(np.ones((n, 2)), rz[layer])
    return state


# Angles at which a rotation leaves exact (signed) zeros in the state.
SPECIAL_ANGLES = st.sampled_from([0.0, -0.0, np.pi, -np.pi, np.pi / 2, 2 * np.pi])


@settings(max_examples=80, deadline=None)
@given(spec=ansatz_specs, data=st.data())
def test_simulate_matches_the_kron_product_state(spec, data):
    angle = st.one_of(st.floats(-np.pi, np.pi), SPECIAL_ANGLES)
    params = np.array(data.draw(st.lists(angle, min_size=spec.n_params, max_size=spec.n_params)))
    got, want = simulate(spec, params), kron_simulate(spec, params)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    spec=st.builds(
        AnsatzSpec,
        n_qubits=st.integers(1, 8),
        reps=st.sampled_from([1, 2]),
    ),
    shots=st.sampled_from([0, 64]),
    extra_evals=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
# the size and shot count of the exact-small benchmark's VQE solves
@example(spec=AnsatzSpec(n_qubits=12, reps=1), shots=4000, extra_evals=10, seed=501)
def test_vqe_is_unchanged_by_the_rotation_layer(spec, shots, extra_evals, seed):
    # small-integer energies, so that the CVaR and the best sample meet ties
    energies = np.random.default_rng(seed).integers(-4, 5, 1 << spec.n_qubits).astype(float)
    settings_ = VqeSettings(max_evals=spec.n_params + 2 + extra_evals, seed=seed)
    got = vqe_statevector(energies, spec, settings_, shots=shots)
    with mock.patch.object(solvers, "simulate", kron_simulate):
        want = vqe_statevector(energies, spec, settings_, shots=shots)
    for name in ("bits", "counts", "energies"):
        a, b = getattr(got.samples, name), getattr(want.samples, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.trace.tobytes() == want.trace.tobytes()
    assert got.provenance == want.provenance


def scipy_nelder_mead(f, x0, maxfev, xatol, fatol):
    """The oracle of ``solvers._nelder_mead``: scipy's Nelder-Mead with the same options."""
    minimize = pytest.importorskip("scipy.optimize").minimize  # a test dependency only

    minimize(f, x0, method="Nelder-Mead", options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})


def evaluated_points(search, f, x0, maxfev, xatol, fatol):
    """The bytes of every point ``search`` passes to ``f``, in call order."""
    points = []

    def recorded(x):
        points.append(x.tobytes())
        return f(x)

    search(recorded, x0, maxfev, xatol, fatol)
    return points


# 0.00025 is the initial step from a zero entry, so the x test meets an exact equality.
TOLERANCES = st.sampled_from([0.0, 1e-6, 1e-4, 0.00025, 1e-2, 1.0, np.inf])


@st.composite
def simplex_searches(draw):
    """A start point, an objective, a budget and tolerances for a Nelder-Mead search.

    Dimensions are 1-14 or 36 (12 qubits at reps 1). Objectives are a weighted
    quadratic, the same rounded to quarters (ties), floored at 3 (a plateau
    around the minimum) or constant (every value tied)."""
    n = draw(st.one_of(st.integers(1, 14), st.just(36)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.uniform(-3.0, 3.0, n)
    x0[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    center, weight = rng.uniform(-2.0, 2.0, n), rng.uniform(0.1, 2.0, n)
    shape = draw(st.sampled_from(["smooth", "quarters", "floor", "flat"]))

    def f(x):
        value = float(np.dot(weight, (x - center) ** 2))
        return {"smooth": value, "quarters": round(4 * value) / 4,
                "floor": max(value, 3.0), "flat": 1.0}[shape]

    return f, x0, draw(st.integers(n + 2, 400)), draw(TOLERANCES), draw(TOLERANCES)


@settings(max_examples=300, deadline=None)
@given(case=simplex_searches())
def test_nelder_mead_evaluates_scipys_points(case):
    assert evaluated_points(solvers._nelder_mead, *case) == evaluated_points(scipy_nelder_mead, *case)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("shape", ["flat", "slope", "bowl"])
def test_nelder_mead_stops_where_scipy_does_at_every_budget(n, shape):
    # Each budget cuts the search at a different call. flat makes every step a
    # reflection, an inside contraction that is not kept and an n-point shrink; slope
    # makes every step a reflection and an expansion; bowl keeps some reflections and
    # takes both kinds of contraction.
    x0 = np.array([1.0, 0.0, -2.0, 0.5, 3.0][:n])
    f = {"flat": lambda x: 1.0, "slope": lambda x: -float(x.sum()),
         "bowl": lambda x: float(np.dot(x - 0.3, x - 0.3)) + abs(float(x[0]))}[shape]
    full = evaluated_points(scipy_nelder_mead, f, x0, 200, 1e-3, 1e-3)
    for budget in range(n + 2, len(full) + 1):
        want = evaluated_points(scipy_nelder_mead, f, x0, budget, 1e-3, 1e-3)
        assert want == full[:budget]
        assert evaluated_points(solvers._nelder_mead, f, x0, budget, 1e-3, 1e-3) == want


@settings(max_examples=40, deadline=None)
@given(
    spec=st.builds(
        AnsatzSpec,
        n_qubits=st.integers(0, 6),
        reps=st.sampled_from([1, 2]),
    ),
    shots=st.sampled_from([0, 64]),
    extra_evals=st.integers(0, 300),
    resume=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(spec=AnsatzSpec(0), shots=0, extra_evals=0, resume=False, seed=0)  # no parameters
def test_vqe_is_unchanged_by_the_in_package_simplex(spec, shots, extra_evals, resume, seed):
    # small-integer energies, so that the CVaR and the best sample meet ties
    rng = np.random.default_rng(seed)
    energies = rng.integers(-4, 5, 1 << spec.n_qubits).astype(float)
    initial = rng.uniform(-np.pi, np.pi, spec.n_params) * (rng.random(spec.n_params) < 0.7)
    settings_ = VqeSettings(
        max_evals=spec.n_params + 2 + extra_evals, seed=seed,
        initial_params=tuple(initial.tolist()) if resume else None,
    )
    got = vqe_statevector(energies, spec, settings_, shots=shots)
    with mock.patch.object(solvers, "_nelder_mead", scipy_nelder_mead):
        want = vqe_statevector(energies, spec, settings_, shots=shots)
    for name in ("bits", "counts", "energies"):
        a, b = getattr(got.samples, name), getattr(want.samples, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.trace.tobytes() == want.trace.tobytes()
    assert got.provenance == want.provenance


# ---- the CVaR tail sampler of sampled VQE ----


def two_state_tail_law(shots, alpha, p0):
    """The exact law of ``_sampled_cvar`` on energies (0, 1) with probabilities (p0, 1 - p0).

    The tail holds j = min(K, m) zeros and m - j ones, K ~ Binomial(shots, p0) and
    m = ceil(alpha * shots); returns {CVaR value: probability} over j = 0..m.
    """
    m = math.ceil(alpha * shots)
    pmf = [math.comb(shots, k) * p0**k * (1 - p0) ** (shots - k) for k in range(shots + 1)]
    law = {}
    for j in range(m + 1):
        value = ising.cvar(np.r_[np.zeros(j), np.ones(m - j)], alpha * shots / m)
        law[value] = law.get(value, 0.0) + (sum(pmf[m:]) if j == m else pmf[j])
    assert len(law) == m + 1  # every j has its own value
    return law


def chi_square_bound(dof, z=3.09):
    """The Wilson-Hilferty approximation of the chi-square quantile at normal score z (0.999)."""
    return dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


@pytest.mark.parametrize(
    "shots, alpha, p0",
    [
        (40, 0.25, 0.2),  # alpha * shots = 10, integral
        (30, 0.13, 0.1),  # alpha * shots = 3.9, fractional
        (5, 0.1, 0.3),  # alpha * shots = 0.5 < 1: only the lowest shot counts
        (7, 1.0, 0.4),  # alpha = 1: the mean of all shots
    ],
)
@pytest.mark.parametrize("scale", [1.0, 0.5, 3.0])  # probabilities need not sum to 1
def test_tail_cvar_has_the_two_state_law(shots, alpha, p0, scale):
    law = two_state_tail_law(shots, alpha, p0)
    rng = np.random.default_rng([19, shots, int(10 * scale)])
    probs = scale * np.array([p0, 1 - p0])
    draws = 4000
    values = [solvers._sampled_cvar(rng, np.array([0.0, 1.0]), probs, alpha, shots)
              for _ in range(draws)]
    seen, observed = np.unique(values, return_counts=True)
    assert set(seen.tolist()) <= set(law)
    observed = dict(zip(seen.tolist(), observed.tolist()))
    # adjacent values are pooled until each cell expects at least 5 draws
    cells, pooled = [], [0.0, 0]
    for value in sorted(law):
        pooled[0] += draws * law[value]
        pooled[1] += observed.get(value, 0)
        if pooled[0] >= 5:
            cells.append(pooled)
            pooled = [0.0, 0]
    cells[-1][0] += pooled[0]
    cells[-1][1] += pooled[1]
    assert len(cells) >= 2
    stat = sum((o - e) ** 2 / e for e, o in cells)
    assert stat < chi_square_bound(len(cells) - 1), (stat, cells)


def test_tail_cvar_edge_cases():
    energies = np.array([-2.0, -1.0, 0.5, 3.0])
    for seed in range(50):
        rng = np.random.default_rng(seed)
        # alpha = 1 averages all shots: on energies (0, 1) it is a count over the shots
        value = solvers._sampled_cvar(rng, np.array([0.0, 1.0]), np.array([0.3, 0.7]), 1.0, 9)
        assert abs(9 * value - round(9 * value)) < 1e-12
        # one shot is one state with positive probability
        value = solvers._sampled_cvar(rng, energies, np.array([0.1, 0.0, 0.6, 0.3]), 0.05, 1)
        assert min(abs(value - e) for e in (-2.0, 0.5, 3.0)) < 1e-12
        # a point mass returns its state's energy
        for alpha, shots in ((0.05, 4000), (0.37, 11), (1.0, 3)):
            point = np.array([0.0, 0.0, 1.0, 0.0])
            assert solvers._sampled_cvar(rng, energies, point, alpha, shots) == pytest.approx(0.5)
        # a state without probability is never drawn, even when it has the lowest energy
        value = solvers._sampled_cvar(rng, energies, np.array([0.0, 0.2, 0.0, 0.8]), 0.2, 50)
        assert value >= -1.0


def test_tail_cvar_at_the_cdf_steps():
    # The inverse CDF takes the first state whose cumulative probability exceeds u:
    # u = 0 (every exponential 0) must not reach a lowest state without probability,
    # and u = 1/2 (one exponential of 1 over a gamma of 1) a state above the step at
    # 1/2. A u that rounds to 1 (a gamma below the exponentials' last bit) takes the
    # last state.
    def stub(exponential, gamma=1.0):
        return SimpleNamespace(
            standard_exponential=lambda m: np.full(m, exponential), standard_gamma=lambda k: gamma
        )

    energies = np.array([-5.0, 1.0, 2.0, 4.0])
    low_gap, mid_gap = np.array([0.0, 0.5, 0.0, 0.5]), np.array([0.5, 0.0, 0.0, 0.5])
    assert solvers._sampled_cvar(stub(0.0), energies, low_gap, 0.5, 2) == 1.0
    assert solvers._sampled_cvar(stub(1.0), energies, mid_gap, 0.5, 2) == 4.0
    assert solvers._sampled_cvar(stub(1.0, gamma=1e-300), energies, low_gap, 0.5, 2) == 4.0


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(REAL | st.sampled_from([-0.0, 0.0, 1.0]), min_size=1, max_size=60),
    alpha=st.floats(1e-6, 1.0),
    weights=st.none() | st.lists(st.floats(1e-6, 10.0), min_size=60, max_size=60),
)
def test_tail_cvar_sorted_path_equals_cvar(values, alpha, weights):
    # The objectives hand sorted_cvar ascending energies: unit weights for a
    # sampled tail, positive probabilities for the exact distribution.
    energies = np.array(sorted(values))
    w = np.ones(energies.size) if weights is None else np.array(weights[: energies.size])
    want = ising.cvar(energies, alpha, None if weights is None else w)
    got = ising.sorted_cvar(energies, w, alpha)
    assert repr(got) == repr(want)


def multinomial_cvar(rng, sorted_energies, probs, by_energy, alpha, shots):
    """The sampled objective before the tail sampler: CVaR over a full multinomial sample."""
    weights = rng.multinomial(shots, probs / probs.sum())[by_energy]
    nz = weights.nonzero()[0]
    return ising.cvar(sorted_energies[nz], alpha, weights[nz])


def reference_vqe(energies, spec, settings_, alpha=0.05, shots=0, keep=solvers.TOP_K):
    """``vqe_statevector`` as it was before the tail sampler, its objective drawing
    every shot through ``multinomial_cvar``."""
    n = spec.n_qubits
    rng = np.random.default_rng(settings_.seed)
    if settings_.initial_params is not None:
        x0 = np.asarray(settings_.initial_params, dtype=float)
    else:
        x0 = solvers.random_initial_params(spec, rng)
    trace = []
    state = {"evals": 0, "best_value": np.inf, "best_params": x0.copy()}
    by_energy = np.argsort(energies, kind="stable")
    sorted_energies = energies[by_energy]

    def objective(params):
        probs = probabilities(simulate(spec, params))
        if shots > 0:
            value = multinomial_cvar(rng, sorted_energies, probs, by_energy, alpha, shots)
        else:
            weights = probs[by_energy]
            nz = weights.nonzero()[0]
            value = ising.cvar(sorted_energies[nz], alpha, weights[nz])
        state["evals"] += 1
        if value < state["best_value"]:
            state["best_value"] = value
            state["best_params"] = np.array(params)
        trace.append((state["evals"], float(value), float(state["best_value"])))
        return value

    if spec.n_params == 0:
        objective(x0)
    start = x0
    while spec.n_params and (budget := settings_.max_evals - state["evals"]) >= spec.n_params + 2:
        solvers._nelder_mead(objective, start, budget, xatol=1e-4, fatol=1e-6)
        start = state["best_params"] + solvers.RESTART_SCALE * solvers.random_initial_params(
            spec, rng
        )

    final_probs = probabilities(simulate(spec, state["best_params"]))
    if shots > 0:
        counts = rng.multinomial(shots, final_probs / final_probs.sum())
        kept = counts.nonzero()[0]
        counts = counts[kept]
    else:
        kept = np.argsort(-final_probs, kind="stable")[:keep]
        kept = kept[final_probs[kept] > 1e-12]
        counts = np.ones(kept.size, dtype=int)
    rows = (kept[:, None] >> np.arange(n)) & 1
    first = ising.unique_rows(rows)[0]
    return ising.SampleSet(rows[first], counts[first], energies[kept[first]]), trace, state


@settings(max_examples=40, deadline=None)
@given(
    spec=st.builds(
        AnsatzSpec,
        n_qubits=st.integers(0, 6),
        reps=st.sampled_from([1, 2]),
    ),
    alpha=st.sampled_from([0.05, 0.3, 1.0]),
    extra_evals=st.integers(0, 200),
    keep=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_vqe_is_unchanged_by_the_tail_sampler(spec, alpha, extra_evals, keep, seed):
    energies = np.random.default_rng(seed).integers(-4, 5, 1 << spec.n_qubits).astype(float)
    settings_ = VqeSettings(max_evals=spec.n_params + 2 + extra_evals, seed=seed)
    got = vqe_statevector(energies, spec, settings_, alpha=alpha, shots=0, keep=keep)
    samples, trace, state = reference_vqe(energies, spec, settings_, alpha=alpha, keep=keep)
    for name in ("bits", "counts", "energies"):
        a, b = getattr(got.samples, name), getattr(samples, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert_trace_is(got.trace, trace)
    assert got.provenance["evaluations"] == state["evals"]
    assert repr(got.provenance["objective_value"]) == repr(float(state["best_value"]))
    assert got.provenance["final_params"] == [float(v) for v in state["best_params"]]


@pytest.mark.parametrize("alpha, shots", [(0.05, 4000), (0.3, 256), (0.01, 1024)])
def test_sampled_cvar_has_the_multinomial_law_at_12_qubits(alpha, shots):
    ks_2samp = pytest.importorskip("scipy.stats").ks_2samp  # a test dependency only

    spec = AnsatzSpec(12)
    rng = np.random.default_rng([19, shots])
    energies = rng.normal(size=1 << 12).round(1)  # rounded, so that states tie in energy
    by_energy = np.argsort(energies, kind="stable")
    sorted_energies = energies[by_energy]
    probs = probabilities(simulate(spec, rng.uniform(-np.pi, np.pi, spec.n_params)))
    tail = [solvers._sampled_cvar(rng, sorted_energies, probs[by_energy], alpha, shots)
            for _ in range(600)]
    full = [multinomial_cvar(rng, sorted_energies, probs, by_energy, alpha, shots)
            for _ in range(600)]
    assert ks_2samp(tail, full).pvalue > 1e-3


@pytest.fixture(scope="module")
def stored_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("stored")
    cfg = hp.RunConfig(
        sequence="HPPHP", solver="exhaustive", draws=1, seed=4, out_dir=str(out),
        formats=("json",),
    )
    _, written = hp.run_pipeline(cfg)
    return json.loads(open(written["result.json"]).read()), out


@settings(max_examples=30, deadline=None)
@given(
    bead=st.integers(0, 4),
    shift=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(any),
)
def test_load_result_rejects_tampered_coords(stored_result, bead, shift):
    doc, out = stored_result
    tampered = json.loads(json.dumps(doc))
    tampered["coords"][bead] = [c + d for c, d in zip(tampered["coords"][bead], shift)]
    path = out / "tampered.json"
    path.write_text(json.dumps(tampered))
    with pytest.raises(ValueError, match="coordinates"):
        hp.load_result(str(path))
