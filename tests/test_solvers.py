import pickle
import tracemalloc

import numpy as np
import pytest

import hpfold as hp
from conftest import problem_from_polynomial
from hpfold.ansatz import AnsatzSpec
from hpfold.encoder import VariableLayout
from hpfold.ising import SampleSet, basis_energies
from hpfold.model import encode_turns, parse_sequence
from hpfold.polynomial import BinaryPolynomial
from hpfold.solvers import (
    AnnealSchedule,
    VqeSettings,
    anneal,
    coupling_classes,
    default_schedule,
    exhaustive,
    postselect,
    vqe_statevector,
)


def toy_problem(poly, n_vars):
    """Wrap a hand-built polynomial so the solvers accept it."""
    beads = n_vars // 6 + 1
    if 6 * (beads - 1) != n_vars:
        raise ValueError("toy problems need a multiple of 6 variables")
    return problem_from_polynomial(poly, VariableLayout(beads, first_turn_fixed=False))


def sample_set(q, counts):
    """Samples with the given multiplicities, each at its problem energy."""
    bits = np.array(list(counts), dtype=np.uint8)
    return SampleSet(bits, list(counts.values()), q.energies(bits))


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
        best_bits, _, best_value = res.samples.entries[0]  # a population is best first
        assert best_bits[0] == 0
        assert best_value == 0.0

    def test_ferromagnetic_pair(self):
        poly = -1.0 * BinaryPolynomial.variable(0) * BinaryPolynomial.variable(1)
        q = toy_problem(poly, 6)
        res = anneal(q, AnnealSchedule(t_initial=1.0, sweeps=100, restarts=4, seed=1))
        best_bits, _, best_value = res.samples.entries[0]
        assert best_bits[0] == best_bits[1] == 1
        assert best_value == -1.0

    def test_zero_temperature_strict_descent(self):
        _, q = folding_problem("HPPH", seed=2)
        res = anneal(
            q,
            AnnealSchedule(t_initial=2e-6, t_final=1e-6, sweeps=200, restarts=3, seed=3),
        )
        # no restart climbs, so neither does the lowest energy of a sweep
        assert np.all(np.diff(res.trace) <= 1e-9)

    def test_determinism(self):
        _, q = folding_problem("HPHH", seed=4)
        sched = AnnealSchedule(t_initial=10.0, sweeps=100, restarts=4, seed=5)
        r1 = anneal(q, sched)
        r2 = anneal(q, sched)
        assert r1.trace.tobytes() == r2.trace.tobytes()
        assert r1.samples.entries == r2.samples.entries
        assert np.array_equal(r1.first_seen, r2.first_seen)
        assert r1.provenance == r2.provenance

    def test_samples_energies_consistent(self):
        _, q = folding_problem("HPH", seed=6)
        res = anneal(q, AnnealSchedule(t_initial=10.0, sweeps=50, restarts=4, seed=7))
        for bits, _count, energy in res.samples.entries[:50]:
            assert energy == q.evaluate(bits)
        assert res.first_seen is not None
        assert len(res.first_seen) == len(res.samples.entries)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(t_initial=0.01, t_final=0.01)
        with pytest.raises(ValueError):
            AnnealSchedule(t_initial=1.0, sweeps=0)

    @pytest.mark.parametrize(
        "coeff, t_initial, t_final",
        [(0.0, 1.0, 0.01), (5e-324, 1.0, 0.01), (6e-8, 6e-7, 6e-9), (1.0, 10.0, 0.01)],
    )
    def test_default_schedule_for_any_scale(self, coeff, t_initial, t_final):
        # built from arrays: the polynomial prunes coefficients below 1e-12
        lin = np.zeros(6)
        lin[0] = coeff
        q = hp.QuboProblem(
            0.0, lin, np.zeros((6, 6)), VariableLayout(2, first_turn_fixed=False),
            hp.PenaltyConfig(1.0, 1.0, 1.0, 1.0, 1.0), hp.AxisDraw(overlap={}, crossing={}),
        )
        sched = default_schedule(q, sweeps=20, restarts=2)
        assert sched.t_initial == pytest.approx(t_initial)
        assert sched.t_final == pytest.approx(t_final)
        best_bits, _, best_value = anneal(q, sched).samples.entries[0]
        assert best_value == q.evaluate(best_bits)


class TestCouplingClasses:
    def test_no_variables(self):
        perm, starts = coupling_classes(np.zeros((0, 0)))
        assert perm.shape == (0,) and starts.tolist() == [0]

    def test_one_variable(self):
        perm, starts = coupling_classes(np.zeros((1, 1)))
        assert perm.tolist() == [0] and starts.tolist() == [0, 1]

    def test_uncoupled_variables_form_one_class(self):
        perm, starts = coupling_classes(np.zeros((5, 5)))
        assert perm.tolist() == [0, 1, 2, 3, 4] and starts.tolist() == [0, 5]

    def test_greedy_in_index_order(self):
        # the path 0-1-2-3 colours as 0, 1, 0, 1
        quad = np.zeros((4, 4))
        for i, j in ((0, 1), (1, 2), (2, 3)):
            quad[i, j] = quad[j, i] = -1.0
        perm, starts = coupling_classes(quad)
        assert perm.tolist() == [0, 2, 1, 3] and starts.tolist() == [0, 2, 4]
        quad[0, 2] = quad[2, 0] = 0.5  # 2 now meets colours 0 and 1, so 3 takes 0
        perm, starts = coupling_classes(quad)
        assert perm.tolist() == [0, 3, 1, 2] and starts.tolist() == [0, 2, 3, 4]


class TestExhaustive:
    def test_single_variable_closed_form(self):
        poly = 2.0 * BinaryPolynomial.variable(0) - 0.5
        q = toy_problem(poly, 6)
        best_bits, _, best_value = exhaustive(q).samples.entries[0]
        assert best_value == -0.5
        assert best_bits[0] == 0

    def test_budget_guard(self):
        _, q_big = folding_problem("HPPHPP", fixed=False)  # 30 vars, over the cap
        with pytest.raises(ValueError):
            exhaustive(q_big)

    @pytest.mark.parametrize("scan", [exhaustive, basis_energies])
    def test_2n_scans_share_one_limit_checked_before_allocating(self, scan, monkeypatch):
        # 24 variables is 6 beads with the first turn fixed; the next size is 30
        _, q_big = folding_problem("HPPHPP", fixed=False)

        def no_scan(q):
            raise AssertionError("the scan started")

        monkeypatch.setattr(hp.ising, "energy_chunks", no_scan)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"30 variables exceed the 2\^n limit of 24"):
                scan(q_big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # 2^30 energies would take 8 GiB
        assert hp.ising.ENUMERATION_LIMIT == 24

    def test_bounds_anneal_and_samples(self):
        _, q = folding_problem("HPHH", seed=8)
        ex = exhaustive(q)
        an = anneal(q, AnnealSchedule(t_initial=10.0, sweeps=200, restarts=4, seed=9))
        assert ex.samples.energies[0] <= an.samples.energies[0] + 1e-9
        assert all(an.samples.energies[0] <= e + 1e-6 for _, _, e in an.samples.entries)

    def test_anneal_matches_exhaustive_usually(self):
        # paired-run experiment on an 18-variable instance
        _, q = folding_problem("HPHH", seed=10, fixed=False)
        assert q.n_vars == 18
        exact = exhaustive(q, keep=1).samples.energies[0]
        hits = 0
        runs = 20
        for k in range(runs):
            res = anneal(q, default_schedule(q, sweeps=300, restarts=5, seed=100 + k))
            if res.samples.energies[0] <= exact + 1e-6:
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
        ss = res.samples
        forward = SampleSet(ss.bits, ss.counts, ss.energies)
        backward = SampleSet(ss.bits[::-1], ss.counts[::-1], ss.energies[::-1])
        s1 = postselect(forward, q, seq)
        s2 = postselect(backward, q, seq)
        assert s1.best_bits == s2.best_bits
        assert s1.contacts == s2.contacts
        assert s1.best_value == s2.best_value == q.evaluate(s1.best_bits)

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


@pytest.mark.parametrize("keep", [0, -1])
@pytest.mark.parametrize("solver", ["exhaustive", "anneal", "vqe"])
def test_population_size_below_one_is_refused(solver, keep):
    _, q = folding_problem("HPPH", seed=3)
    sched = AnnealSchedule(t_initial=10.0, sweeps=5, restarts=2)
    calls = {
        "exhaustive": lambda: exhaustive(q, keep=keep),
        "anneal": lambda: anneal(q, sched, keep=keep),
        "vqe": lambda: vqe_statevector(
            basis_energies(q), AnsatzSpec(q.n_vars), VqeSettings(max_evals=60), keep=keep
        ),
    }
    with pytest.raises(ValueError, match=f"keep must be >= 1, got {keep}"):
        calls[solver]()


@pytest.mark.parametrize("solver", ["exhaustive", "anneal", "vqe"])
def test_population_arrays_are_read_only(solver):
    _, q = folding_problem("HPPH", seed=3)
    populations = {
        "exhaustive": lambda: exhaustive(q),
        "anneal": lambda: anneal(q, AnnealSchedule(t_initial=10.0, sweeps=5, restarts=2)),
        "vqe": lambda: vqe_statevector(
            basis_energies(q), AnsatzSpec(q.n_vars), VqeSettings(max_evals=60)
        ),
    }
    pop = populations[solver]()
    # a pickled copy, as worker processes return it, is the same and read-only too
    for copy in (pop, pickle.loads(pickle.dumps(pop))):
        assert copy.trace.tobytes() == pop.trace.tobytes()
        arrays = [copy.trace, copy.samples.energies]
        if solver == "anneal":
            assert np.array_equal(copy.first_seen, pop.first_seen)
            arrays.append(copy.first_seen)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
