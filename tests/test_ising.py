import itertools
import json

import numpy as np
import pytest

from hpfold.ising import (
    IsingOperator,
    SampleSet,
    basis_energies,
    cvar,
    ising_energy,
    ising_from_json,
    ising_to_json,
    qubo_to_ising,
)
from hpfold.encoder import AxisDraw, PenaltyConfig, QuboProblem, VariableLayout
from hpfold.polynomial import BinaryPolynomial


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


class TestQuboToIsing:
    def test_single_variable(self):
        op = qubo_to_ising(x(0), n_vars=1)
        assert op.constant == 0.5
        assert op.h == {0: -0.5}
        assert op.j == {}

    def test_product(self):
        op = qubo_to_ising(x(0) * x(1), n_vars=2)
        assert op.constant == 0.25
        assert op.h == {0: -0.25, 1: -0.25}
        assert op.j == {(0, 1): 0.25}

    def test_random_three_variable_equivalence(self):
        rng = np.random.default_rng(21)
        poly = random_quadratic(rng, 3)
        op = qubo_to_ising(poly, n_vars=3)
        for bits in itertools.product((0, 1), repeat=3):
            assert ising_energy(op, bits) == pytest.approx(
                poly.evaluate(bits), abs=1e-12
            )

    def test_degree_guard(self):
        cubic = BinaryPolynomial({frozenset((0, 1, 2)): 1.0})
        with pytest.raises(ValueError):
            qubo_to_ising(cubic, n_vars=3)

    def test_constant_term_is_uniform_average(self):
        rng = np.random.default_rng(22)
        for n in (2, 3, 4):
            poly = random_quadratic(rng, n)
            op = qubo_to_ising(poly, n_vars=n)
            mean = np.mean(
                [poly.evaluate(b) for b in itertools.product((0, 1), repeat=n)]
            )
            assert op.constant == pytest.approx(mean, abs=1e-12)


class TestIsingEnergy:
    def test_all_zero_closed_form(self):
        op = IsingOperator(
            n=3, constant=1.5, h={0: 0.5, 2: -1.0}, j={(0, 1): 2.0, (1, 2): -0.5}
        )
        assert ising_energy(op, (0, 0, 0)) == 1.5 + 0.5 - 1.0 + 2.0 - 0.5

    def test_single_flip_local_field_identity(self):
        rng = np.random.default_rng(23)
        poly = random_quadratic(rng, 5)
        op = qubo_to_ising(poly, n_vars=5)
        bits = [int(b) for b in rng.integers(0, 2, size=5)]
        z = [1 - 2 * b for b in bits]
        for i in range(5):
            coupling = sum(
                coeff * z[a if a != i else b]
                for (a, b), coeff in op.j.items()
                if i in (a, b)
            )
            expected_delta = -2 * z[i] * (op.h.get(i, 0.0) + coupling)
            flipped = list(bits)
            flipped[i] ^= 1
            assert ising_energy(op, flipped) - ising_energy(op, bits) == pytest.approx(
                expected_delta, abs=1e-12
            )

    def test_length_mismatch(self):
        op = qubo_to_ising(x(0), n_vars=1)
        with pytest.raises(ValueError):
            ising_energy(op, (0, 1))

    def test_basis_energies_order(self):
        rng = np.random.default_rng(25)
        q = QuboProblem(
            polynomial=random_quadratic(rng, 6),
            layout=VariableLayout(2, first_turn_fixed=False),
            penalties=PenaltyConfig(1, 1, 1, 1, 1),
            axis_draw=AxisDraw(overlap={}, crossing={}),
        )
        op = qubo_to_ising(q)
        energies = basis_energies(q)
        for s in range(64):
            bits = tuple((s >> i) & 1 for i in range(6))
            assert energies[s] == q.evaluate(bits)
            assert energies[s] == pytest.approx(ising_energy(op, bits), abs=1e-12)


class TestSampleSet:
    def test_invariants(self):
        ss = SampleSet(entries=(((0, 1), 3, -1.0), ((1, 1), 1, 2.0)), shots=4)
        assert ss.min_energy() == -1.0
        with pytest.raises(ValueError):
            SampleSet(entries=(((0,), 0, 1.0),), shots=0)
        with pytest.raises(ValueError):
            SampleSet(entries=(((0,), 2, 1.0),), shots=3)

    def test_json(self):
        ss = SampleSet(entries=(((0, 1, 1), 2, -3.5),), shots=2)
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
        ss = SampleSet(entries=(((0,), 3, 0.0), ((1,), 1, 4.0)), shots=4)
        assert cvar(ss, 1.0) == 1.0
        assert cvar(ss, 0.75) == 0.0

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


class TestIsingJson:
    def test_round_trip(self):
        rng = np.random.default_rng(28)
        poly = random_quadratic(rng, 5)
        op = qubo_to_ising(poly, n_vars=5)
        op2 = ising_from_json(ising_to_json(op))
        assert op2.n == op.n
        assert op2.constant == op.constant
        assert dict(op2.h) == dict(op.h)
        assert dict(op2.j) == dict(op.j)

    def test_spin_convention_recorded(self):
        op = qubo_to_ising(x(0), n_vars=1)
        assert "z=+1" in json.loads(ising_to_json(op))["spin_convention"]
