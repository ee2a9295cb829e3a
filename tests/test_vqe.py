import numpy as np
import pytest

import hpfold as hp
from hpfold import ansatz
from hpfold.ansatz import AnsatzSpec, probabilities, random_initial_params, simulate
from hpfold.ising import basis_energies
from hpfold.polynomial import BinaryPolynomial
from hpfold.solvers import VqeSettings, postselect, vqe_statevector
from oracles import entangler_pairs


def x(i):
    return BinaryPolynomial.variable(i)


def energies_of(poly, n):
    """Energies of all 2^n basis states, indexed by state, by the scalar oracle."""
    return np.array(
        [poly.evaluate(tuple((s >> i) & 1 for i in range(n))) for s in range(1 << n)]
    )


class TestAnsatz:
    def test_parameter_count(self):
        assert AnsatzSpec(n_qubits=4, reps=1).n_params == 12
        assert AnsatzSpec(n_qubits=6, reps=2).n_params == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            AnsatzSpec(n_qubits=23)  # over the statevector budget
        with pytest.raises(ValueError):
            AnsatzSpec(n_qubits=2, reps=3)

    def test_norm_preserved(self):
        rng = np.random.default_rng(30)
        spec = AnsatzSpec(n_qubits=5, reps=2)
        for _ in range(20):
            state = simulate(spec, rng.uniform(-np.pi, np.pi, spec.n_params))
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_zero_parameters_give_basis_state(self):
        spec = AnsatzSpec(n_qubits=4, reps=1)
        probs = probabilities(simulate(spec, np.zeros(spec.n_params)))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(probs) == 1

    def test_single_qubit_ry_rotation(self):
        # one RY(pi) on the lone qubit flips |0> to |1>
        spec = AnsatzSpec(n_qubits=1, reps=1)
        params = np.zeros(spec.n_params)
        params[0] = np.pi
        probs = probabilities(simulate(spec, params))
        assert probs[1] == pytest.approx(1.0, abs=1e-12)

    def test_entangler_pairs(self):
        assert entangler_pairs(AnsatzSpec(n_qubits=4, reps=1)) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("n", range(15))
    def test_chain_permutation_is_cached_read_only(self, n):
        i = np.arange(1 << n)
        want = i ^ ((i << 1) & ((1 << n) - 1))
        source = ansatz._chain_source(n)
        assert source.dtype == np.intp and np.array_equal(source, want)
        assert not source.flags.writeable
        spec = AnsatzSpec(n_qubits=n, reps=2)
        simulate(spec, np.random.default_rng(n).uniform(-np.pi, np.pi, spec.n_params))
        assert ansatz._chain_source(n) is source and np.array_equal(source, want)

    def test_param_shape_checked(self):
        spec = AnsatzSpec(n_qubits=2, reps=1)
        with pytest.raises(ValueError):
            simulate(spec, np.zeros(3))


class TestVqeObjective:
    def test_zero_params_objective_equals_state_energy(self):
        rng = np.random.default_rng(31)
        poly = sum(
            (float(rng.normal()) * x(i) for i in range(4)), BinaryPolynomial()
        ) + 0.7 * x(0) * x(3)
        spec = AnsatzSpec(n_qubits=4, reps=1)
        settings = VqeSettings(
            max_evals=spec.n_params + 2,
            seed=0,
            initial_params=tuple([0.0] * spec.n_params),
        )
        res = vqe_statevector(energies_of(poly, 4), spec, settings, alpha=0.05, shots=0)
        first_objective = res.trace[0]
        assert first_objective == pytest.approx(poly.evaluate((0, 0, 0, 0)), abs=1e-12)

    def test_alpha_one_exact_is_expectation(self):
        rng = np.random.default_rng(32)
        poly = x(0) + 2.0 * x(1) - 3.0 * x(0) * x(1)
        energies = energies_of(poly, 2)
        spec = AnsatzSpec(n_qubits=2, reps=1)
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        settings = VqeSettings(
            max_evals=spec.n_params + 2, seed=1, initial_params=tuple(params)
        )
        res = vqe_statevector(energies, spec, settings, alpha=1.0, shots=0)
        probs = probabilities(simulate(spec, params))
        expected = float(np.dot(probs, energies))
        assert res.trace[0] == pytest.approx(expected, abs=1e-10)

    def test_constant_operator_flat_trace(self):
        res = vqe_statevector(
            np.full(4, 4.2),
            AnsatzSpec(n_qubits=2, reps=1),
            VqeSettings(max_evals=60, seed=2),
            alpha=0.1,
            shots=0,
        )
        assert all(v == pytest.approx(4.2) for v in res.trace)
        assert res.samples.energies[0] == pytest.approx(4.2)

    def test_single_qubit_convergence(self):
        res = vqe_statevector(
            energies_of(x(0), 1),
            AnsatzSpec(n_qubits=1, reps=1),
            VqeSettings(max_evals=200, seed=3),
            alpha=1.0,
            shots=0,
        )
        assert res.provenance["objective_value"] <= 0.01
        assert res.provenance["evaluations"] <= 205

    def test_determinism(self):
        poly = x(0) * x(1) - x(2)
        energies = energies_of(poly, 3)
        spec = AnsatzSpec(n_qubits=3, reps=1)
        settings = VqeSettings(max_evals=80, seed=9)
        r1 = vqe_statevector(energies, spec, settings, alpha=0.2, shots=64)
        r2 = vqe_statevector(energies, spec, settings, alpha=0.2, shots=64)
        assert r1.trace.tobytes() == r2.trace.tobytes()
        assert r1.samples.entries == r2.samples.entries

    def test_operator_ansatz_size_mismatch(self):
        spec = AnsatzSpec(n_qubits=3, reps=1)
        with pytest.raises(ValueError):
            vqe_statevector(energies_of(x(0), 2), spec, VqeSettings())

    def test_budget_below_one_simplex_rejected(self):
        spec = AnsatzSpec(n_qubits=2, reps=1)
        with pytest.raises(ValueError, match="simplex"):
            vqe_statevector(energies_of(x(0), 2), spec, VqeSettings(max_evals=spec.n_params + 1))

    @pytest.mark.parametrize(
        "alpha, shots",
        [(2.0, 0), (0.0, 0), (2.0, 100), (0.0, 100), (0.05, -5), (0.05, 1.5), (True, 0),
         (0.05, True)],
        ids=["alpha-2-exact", "alpha-0-exact", "alpha-2-shots", "alpha-0-shots",
             "negative-shots", "fractional-shots", "boolean-alpha", "boolean-shots"],
    )
    def test_bad_alpha_or_shots_refused_before_any_evaluation(self, alpha, shots, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("an evaluation started")

        monkeypatch.setattr(hp.solvers, "simulate", no_evaluation)
        energies = np.random.default_rng(3).normal(size=8)
        with pytest.raises(ValueError, match="alpha must be in|shots must be an integer >= 0"):
            vqe_statevector(energies, AnsatzSpec(3), VqeSettings(max_evals=60), alpha, shots)

    def test_zero_parameters_evaluate_once(self):
        res = vqe_statevector(
            np.array([-1.5]), AnsatzSpec(n_qubits=0, reps=1), VqeSettings(max_evals=1)
        )
        assert res.provenance["evaluations"] == 1
        assert res.provenance["objective_value"] == pytest.approx(-1.5)
        assert res.samples.entries == (((), 1, -1.5),)

    def test_resume_param_shape_checked(self):
        with pytest.raises(ValueError):
            vqe_statevector(
                energies_of(x(0), 1),
                AnsatzSpec(n_qubits=1, reps=1),
                VqeSettings(initial_params=(0.0, 0.0)),
            )

    def test_shot_sampleset_shape(self):
        res = vqe_statevector(
            energies_of(x(0) + x(1), 2),
            AnsatzSpec(n_qubits=2, reps=1),
            VqeSettings(max_evals=40, seed=4),
            alpha=0.5,
            shots=128,
        )
        assert res.samples.shots == 128
        assert res.samples.energies[0] == pytest.approx(
            min(e for _, _, e in res.samples.entries)
        )


class TestVqeFolding:
    def test_hph_postselect_matches_oracle(self):
        seq = hp.parse_sequence("HPH")
        layout = hp.VariableLayout(3, first_turn_fixed=True)
        pen = hp.calibrate_penalties(seq)
        draw = hp.draw_axes(np.random.default_rng(40), layout)
        q = hp.assemble(seq, layout, pen, draw, rng_seed=40)
        res = vqe_statevector(
            basis_energies(q),
            AnsatzSpec(n_qubits=6, reps=1),
            VqeSettings(max_evals=300, seed=41),
            alpha=0.05,
            shots=1024,
        )
        sel = postselect(res.samples, q, seq)
        oracle, _ = hp.enumerate_optimal(seq)
        assert sel.feasible and sel.contacts == oracle
