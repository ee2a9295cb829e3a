"""Property tests: fast paths against the scalar oracles.

Coefficients are small integers unless a test asks for real ones; with
integers the QUBO, spin and brute-force energies are exact and ties between
states are real ties.
"""

import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpfold as hp
from hpfold import ising
from hpfold.ansatz import AnsatzSpec
from hpfold.encoder import AxisDraw, PenaltyConfig, QuboProblem, VariableLayout
from hpfold.polynomial import BinaryPolynomial
from hpfold.solvers import VqeSettings, anneal, default_schedule, exhaustive, vqe_statevector

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
    return QuboProblem(
        polynomial=BinaryPolynomial(terms),
        layout=VariableLayout(n_vars // 6 + 1, first_turn_fixed=False),
        penalties=PenaltyConfig(1.0, 1.0, 1.0, 1.0, 1.0),
        axis_draw=AxisDraw(overlap={}, crossing={}),
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
    expected = sorted(range(1 << n), key=lambda s: (energies[s], s))[:keep]
    with mock.patch.object(ising, "CHUNK", chunk):
        result = exhaustive(q, keep=keep)
    assert [e[0] for e in result.samples.entries] == [bits_of(s, n) for s in expected]
    assert [e[2] for e in result.samples.entries] == [energies[s] for s in expected]
    assert result.best_value == energies[expected[0]]


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
    op = ising.qubo_to_ising(q)
    with mock.patch.object(ising, "CHUNK", chunk):
        energies = ising.basis_energies(q)
    assert energies.shape == (1 << n,)
    for s in range(1 << n):
        assert abs(energies[s] - ising.ising_energy(op, bits_of(s, n))) <= 1e-9


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
        assert result.best_value == q.evaluate(result.best_bits)


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
    assert back == q
    assert back.polynomial == q.polynomial
    assert hp.qubo_to_json(back, sequence=seq) == text
    for got, want in zip(back.to_dense()[1:], q.to_dense()[1:]):
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def stored_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("stored")
    cfg = hp.RunConfig(
        sequence="HPPHP", solver="exhaustive", draws=1, seed=4, out_dir=str(out),
        formats=("json",),
    )
    _, _, written = hp.run_pipeline(cfg)
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
