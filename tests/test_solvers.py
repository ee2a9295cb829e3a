import numpy as np
import pytest

import hpfold as hp
from hpfold.encoder import AxisDraw, PenaltyConfig, QuboProblem, VariableLayout
from hpfold.ising import SampleSet
from hpfold.model import encode_turns, parse_sequence
from hpfold.polynomial import BinaryPolynomial
from hpfold.solvers import (
    AnnealSchedule,
    anneal,
    default_schedule,
    exhaustive,
    postselect,
)


def toy_problem(poly, n_vars):
    """Wrap a hand-built polynomial so the solvers accept it."""
    beads = n_vars // 6 + 1
    if 6 * (beads - 1) != n_vars:
        raise ValueError("toy problems need a multiple of 6 variables")
    return QuboProblem(
        polynomial=poly,
        layout=VariableLayout(beads, first_turn_fixed=False),
        penalties=PenaltyConfig(1, 1, 1, 1, 1),
        axis_draw=AxisDraw(overlap={}, crossing={}),
    )


def sample_set(q, counts):
    """Samples with the given multiplicities, each at its problem energy."""
    entries = tuple((bits, c, q.evaluate(bits)) for bits, c in sorted(counts.items()))
    return SampleSet(entries=entries, shots=sum(counts.values()))


def folding_problem(beads, seed=0, fixed=True):
    seq = parse_sequence(beads)
    layout = VariableLayout(len(seq), first_turn_fixed=fixed)
    pen = hp.calibrate_penalties(seq)
    draw = hp.draw_axes(np.random.default_rng(seed), layout)
    return seq, hp.assemble(seq, layout, pen, draw, rng_seed=seed)


class TestAnneal:
    def test_single_variable_minimum(self):
        poly = BinaryPolynomial.variable(0) + BinaryPolynomial()
        q = toy_problem(poly, 6)
        res = anneal(q, AnnealSchedule(t_initial=1.0, sweeps=50, restarts=2, seed=0))
        assert res.best_bits[0] == 0
        assert res.best_value == 0.0

    def test_ferromagnetic_pair(self):
        poly = -1.0 * BinaryPolynomial.variable(0) * BinaryPolynomial.variable(1)
        q = toy_problem(poly, 6)
        res = anneal(q, AnnealSchedule(t_initial=1.0, sweeps=100, restarts=4, seed=1))
        assert res.best_bits[0] == res.best_bits[1] == 1
        assert res.best_value == -1.0

    def test_zero_temperature_strict_descent(self):
        _, q = folding_problem("HPPH", seed=2)
        res = anneal(
            q,
            AnnealSchedule(t_initial=2e-6, t_final=1e-6, sweeps=200, restarts=3, seed=3),
        )
        best_so_far = [b for _, _, b in res.trace]
        assert all(a >= b - 1e-9 for a, b in zip(best_so_far, best_so_far[1:]))

    def test_determinism(self):
        _, q = folding_problem("HPHH", seed=4)
        sched = AnnealSchedule(t_initial=10.0, sweeps=100, restarts=4, seed=5)
        r1 = anneal(q, sched)
        r2 = anneal(q, sched)
        assert r1.best_bits == r2.best_bits
        assert r1.best_value == r2.best_value
        assert r1.trace == r2.trace
        assert r1.samples.entries == r2.samples.entries

    def test_samples_energies_consistent(self):
        _, q = folding_problem("HPH", seed=6)
        res = anneal(q, AnnealSchedule(t_initial=10.0, sweeps=50, restarts=4, seed=7))
        for bits, _count, energy in res.samples.entries[:50]:
            assert energy == q.evaluate(bits)
        assert res.sample_first_seen is not None
        assert len(res.sample_first_seen) == len(res.samples.entries)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(t_initial=0.01, t_final=0.01)
        with pytest.raises(ValueError):
            AnnealSchedule(t_initial=1.0, sweeps=0)


class TestExhaustive:
    def test_single_variable_closed_form(self):
        poly = 2.0 * BinaryPolynomial.variable(0) - 0.5
        q = toy_problem(poly, 6)
        res = exhaustive(q)
        assert res.best_value == -0.5
        assert res.best_bits[0] == 0

    def test_budget_guard(self):
        _, q_big = folding_problem("HPPHPP", fixed=False)  # 30 vars, over the cap
        with pytest.raises(ValueError):
            exhaustive(q_big)

    def test_bounds_anneal_and_samples(self):
        _, q = folding_problem("HPHH", seed=8)
        ex = exhaustive(q)
        an = anneal(q, AnnealSchedule(t_initial=10.0, sweeps=200, restarts=4, seed=9))
        assert ex.best_value <= an.best_value + 1e-9
        assert all(an.best_value <= e + 1e-6 for _, _, e in an.samples.entries)

    def test_anneal_matches_exhaustive_usually(self):
        # paired-run experiment on an 18-variable instance
        _, q = folding_problem("HPHH", seed=10, fixed=False)
        assert q.n_vars == 18
        exact = exhaustive(q, keep=1).best_value
        hits = 0
        runs = 20
        for k in range(runs):
            res = anneal(q, default_schedule(q, sweeps=300, restarts=5, seed=100 + k))
            if res.best_value <= exact + 1e-6:
                hits += 1
        assert hits >= int(0.95 * runs)

    def test_keep_truncates_population(self):
        _, q = folding_problem("HPH", seed=11)
        res = exhaustive(q, keep=10)
        assert len(res.samples.entries) == 10
        energies = [e for _, _, e in res.samples.entries]
        assert energies == sorted(energies)


class TestPostselect:
    def test_feasibility_dominates(self):
        seq, q = folding_problem("HPH", seed=12)
        layout = q.layout
        feasible_bits = encode_turns(((1, 0, 0), (-1, 1, 0)), layout)
        overlap_bits = encode_turns(((1, 0, 0), (-1, 0, 0)), layout)
        samples = sample_set(q, {feasible_bits: 1, overlap_bits: 5})
        sel = postselect(samples, q, seq)
        assert sel.feasible
        assert sel.best_bits == feasible_bits
        assert sel.contacts == 1

    def test_no_feasible_flagged(self):
        seq, q = folding_problem("HPH", seed=13)
        overlap_bits = encode_turns(((1, 0, 0), (-1, 0, 0)), q.layout)
        samples = sample_set(q, {overlap_bits: 2})
        sel = postselect(samples, q, seq)
        assert sel.feasible is False
        assert sel.report is not None and sel.report.overlap

    def test_order_invariance(self):
        seq, q = folding_problem("HPHH", seed=14)
        res = exhaustive(q, keep=200)
        entries = res.samples.entries
        forward = SampleSet(entries=entries, shots=res.samples.shots)
        backward = SampleSet(entries=tuple(reversed(entries)), shots=res.samples.shots)
        s1 = postselect(forward, q, seq)
        s2 = postselect(backward, q, seq)
        assert s1.best_bits == s2.best_bits
        assert s1.contacts == s2.contacts

    def test_top_k_cut(self):
        seq, q = folding_problem("HPH", seed=15)
        res = exhaustive(q, keep=64)
        sel = postselect(res.samples, q, seq, top_k=1)
        # only the single lowest-energy state considered
        lowest = min(res.samples.entries, key=lambda e: (e[2], e[0]))
        assert sel.best_bits == lowest[0]

    def test_pair_exclusion_states_rejected(self):
        seq, q = folding_problem("HPH", seed=16)
        bits = list(encode_turns(((1, 0, 0), (0, 1, 0)), q.layout))
        # set both halves of the z pair on the encoded turn
        zp = q.layout.index(2, "z", "plus")
        zm = q.layout.index(2, "z", "minus")
        bits[zp] = bits[zm] = 1
        samples = sample_set(q, {tuple(bits): 1})
        sel = postselect(samples, q, seq)
        assert sel.feasible is False
        assert sel.report.pair_exclusion

    def test_hph_exhaustive_reaches_oracle(self):
        seq, q = folding_problem("HPH", seed=17)
        sel = postselect(exhaustive(q).samples, q, seq)
        oracle, _ = hp.enumerate_optimal(seq)
        assert sel.feasible and sel.contacts == oracle == 1
