import itertools
import json

import numpy as np
import pytest

from hpfold.ising import SampleSet, basis_energies, cvar, qubo_to_ising
from conftest import problem_from_polynomial
from hpfold.encoder import VariableLayout
from hpfold.polynomial import BinaryPolynomial
from oracles import IsingOperator, ising_energy, spin_operator

SIX = VariableLayout(2, first_turn_fixed=False)  # six variables


def x(i):
    return BinaryPolynomial.variable(i)


def random_quadratic(rng, n):
    terms = {frozenset(): float(rng.normal())}
    for i in range(n):
        if rng.random() < 0.8:
            terms[frozenset((i,))] = float(rng.normal())
    for i in range(n):
        for jj in range(i + 1, n):
            if rng.random() < 0.5:
                terms[frozenset((i, jj))] = float(rng.normal())
    return BinaryPolynomial(terms)


def spin_form(poly):
    return qubo_to_ising(problem_from_polynomial(poly, SIX))


def spin_energy(form, bits):
    """``constant + z·h + zᵀJz`` with z = 1 - 2x."""
    constant, h, J = form
    z = 1.0 - 2.0 * np.asarray(bits, dtype=float)
    return constant + z @ h + z @ J @ z


class TestQuboToIsing:
    def test_single_variable(self):
        constant, h, J = spin_form(x(0))
        assert constant == 0.5
        assert h.tolist() == [-0.5, 0, 0, 0, 0, 0]
        assert not J.any()

    def test_product(self):
        constant, h, J = spin_form(x(0) * x(1))
        assert constant == 0.25
        assert h.tolist() == [-0.25, -0.25, 0, 0, 0, 0]
        assert J[0, 1] == 0.25 and np.count_nonzero(J) == 1

    def test_random_three_variable_equivalence(self):
        rng = np.random.default_rng(21)
        poly = random_quadratic(rng, 3)
        form = spin_form(poly)
        for bits in itertools.product((0, 1), repeat=6):
            assert spin_energy(form, bits) == pytest.approx(poly.evaluate(bits), abs=1e-12)

    def test_constant_term_is_uniform_average(self):
        rng = np.random.default_rng(22)
        for n in (2, 3, 4):
            poly = random_quadratic(rng, n)
            constant, _, _ = spin_form(poly)
            mean = np.mean(
                [poly.evaluate(b) for b in itertools.product((0, 1), repeat=n)]
            )
            assert constant == pytest.approx(mean, abs=1e-12)


class TestIsingEnergy:
    def test_all_zero_closed_form(self):
        op = IsingOperator(
            n=3, constant=1.5, h={0: 0.5, 2: -1.0}, j={(0, 1): 2.0, (1, 2): -0.5}
        )
        assert ising_energy(op, (0, 0, 0)) == 1.5 + 0.5 - 1.0 + 2.0 - 0.5

    def test_single_flip_local_field_identity(self):
        rng = np.random.default_rng(23)
        form = spin_form(random_quadratic(rng, 5))
        _, h, J = form
        bits = [int(b) for b in rng.integers(0, 2, size=6)]
        z = 1 - 2 * np.array(bits)
        for i in range(6):
            coupling = (J + J.T)[i] @ z
            expected_delta = -2 * z[i] * (h[i] + coupling)
            flipped = list(bits)
            flipped[i] ^= 1
            assert spin_energy(form, flipped) - spin_energy(form, bits) == pytest.approx(
                expected_delta, abs=1e-12
            )

    def test_length_mismatch(self):
        op = spin_operator(x(0), n_vars=1)
        with pytest.raises(ValueError):
            ising_energy(op, (0, 1))

    def test_basis_energies_order(self):
        rng = np.random.default_rng(25)
        q = problem_from_polynomial(random_quadratic(rng, 6), SIX)
        form = qubo_to_ising(q)
        energies = basis_energies(q)
        for s in range(64):
            bits = tuple((s >> i) & 1 for i in range(6))
            assert energies[s] == q.evaluate(bits)
            assert energies[s] == pytest.approx(spin_energy(form, bits), abs=1e-12)


class TestSampleSet:
    def test_invariants(self):
        ss = SampleSet([[0, 1], [1, 1]], [3, 1], [-1.0, 2.0])
        assert ss.shots == 4
        with pytest.raises(ValueError, match="multiplicities"):
            SampleSet([[0]], [0], [1.0])
        with pytest.raises(ValueError, match="distinct"):
            SampleSet([[0, 1], [0, 1]], [1, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match="2 rows, 1 counts"):
            SampleSet([[0], [1]], [1], [1.0, 2.0])
        with pytest.raises(ValueError, match="1 counts, 2 energies"):
            SampleSet([[0]], [1], [1.0, 2.0])

    def test_read_only(self):
        ss = SampleSet([[0, 1]], [2], [-1.0])
        assert ss.bits.dtype == np.uint8 and ss.counts.dtype == np.int64
        for arr in (ss.bits, ss.counts, ss.energies):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert ss.entries == (((0, 1), 2, -1.0),)

    def test_json(self):
        ss = SampleSet([[0, 1, 1]], [2], [-3.5])
        doc = json.loads(ss.to_json())
        assert doc == [{"bitstring": "011", "count": 2, "energy": -3.5}]


class TestCvar:
    def test_lowest_half(self):
        assert cvar([1, 2, 3, 4], 0.5) == 1.5

    def test_alpha_one_is_mean(self):
        assert cvar([1, 2, 3, 4], 1.0) == 2.5

    def test_single_item_tail(self):
        assert cvar([0] + [10] * 19, 0.05) == 0.0

    def test_fractional_tail(self):
        # mass 1.5: full first item plus half the second
        assert cvar([0.0, 1.0, 2.0], 0.5) == pytest.approx((0.0 + 0.5) / 1.5)

    def test_sampleset_multiplicity(self):
        energies, counts = np.array([0.0, 4.0]), np.array([3, 1])
        assert cvar(energies, 1.0, counts) == 1.0
        assert cvar(energies, 0.75, counts) == 0.0

    def test_weighted_probabilities(self):
        assert cvar([0.0, 2.0], 1.0, weights=[0.25, 0.75]) == 1.5

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            vals = rng.normal(size=rng.integers(1, 30))
            alphas = np.sort(rng.uniform(0.01, 1.0, size=5))
            cv = [cvar(vals, a) for a in alphas]
            assert all(a <= b + 1e-12 for a, b in zip(cv, cv[1:]))

    def test_bounded_below_by_min(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            vals = rng.normal(size=10)
            a = float(rng.uniform(0.01, 1.0))
            assert cvar(vals, a) >= vals.min() - 1e-12
        assert cvar([5.0, 7.0, 9.0], 0.1) == 5.0  # tail within the lowest item

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cvar([], 0.5)
        with pytest.raises(ValueError):
            cvar([1.0], 0.0)
        with pytest.raises(ValueError):
            cvar([1.0], 1.5)
        with pytest.raises(ValueError):
            cvar([1.0, 2.0], 0.5, weights=[1.0])

