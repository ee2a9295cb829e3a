"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v`` to see
them). The slow full-pipeline checks sit at the end of the module.
"""

import itertools
import time

import numpy as np
import pytest

import hpfold as hp
from hpfold import model
from hpfold.encoder import VariableLayout
from hpfold.ising import basis_energies, cvar, qubo_to_ising
from hpfold.polynomial import BinaryPolynomial
from conftest import problem_from_polynomial
from oracles import (
    build_continuity,
    build_objective,
    build_pair_exclusion,
    ising_energy,
    spin_operator,
)
from hpfold.solvers import (
    AnsatzSpec,
    VqeSettings,
    anneal,
    candidate_counts,
    default_schedule,
    exhaustive,
    postselect,
    vqe_statevector,
)

TABLE_SEQUENCES = [
    "PPHPPHPPHP",
    "HPPHPPHPHH",
    "HHPPHPHPHP",
    "HHHHPPHPHH",
    "HHHHHPHHHH",
]
ANNEALING_FLOORS = {
    "PPHPPHPPHP": 3,
    "HPPHPPHPHH": 9,
    "HHPPHPHPHP": 8,
    "HHHHPPHPHH": 14,
    "HHHHHPHHHH": 18,
}


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def batch_evaluate(poly, bits_matrix):
    """Term-by-term multilinear evaluation over rows of a 0/1 matrix."""
    out = np.zeros(bits_matrix.shape[0])
    for key, coeff in poly.terms.items():
        col = np.full(bits_matrix.shape[0], coeff)
        for idx in key:
            col = col * bits_matrix[:, idx]
        out += col
    return out


def spin_evaluate(form, bits_matrix):
    """Spin-form energies ``constant + z·h + zᵀJz`` over rows of a 0/1 matrix."""
    constant, h, J = form
    z = 1.0 - 2.0 * bits_matrix
    return constant + z @ h + np.einsum("ri,ij,rj->r", z, J, z)


def all_bitstrings(n):
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)[None, :]) & 1).astype(float)


def test_criterion_2_max_contact_formula():
    expected = {"PPHPPHPPHP": 3, "HPPHPPHPHH": 9, "HHPPHPHPHP": 9, "HHHHPPHPHH": 17}
    for beads, value in expected.items():
        assert hp.max_contacts(hp.parse_sequence(beads)) == value
    # HHHHHPHHHH: 9 H beads (36 pairs) minus 7 bonded pairs = 29. External
    # benchmark listings quote 28 for this sequence, which undercounts the
    # non-bonded pair total by one; the formula value is the asserted one.
    assert hp.max_contacts(hp.parse_sequence("HHHHHPHHHH")) == 29
    report(2, True, "max-contact formula matches {3, 9, 9, 17}; HHHHHPHHHH = 29 (annotated)")


def test_criterion_3_qubo_ising_equivalence():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 17))
        terms = {frozenset(): float(rng.normal())}
        for i in range(n):
            if rng.random() < 0.7:
                terms[frozenset((i,))] = float(rng.normal())
        for i, jj in itertools.combinations(range(n), 2):
            if rng.random() < 0.4:
                terms[frozenset((i, jj))] = float(rng.normal())
        poly = BinaryPolynomial(terms)
        # the smallest layout with at least n variables; the rest stay unused
        layout = VariableLayout(-(-n // 6) + 1, first_turn_fixed=False)
        form = qubo_to_ising(problem_from_polynomial(poly, layout))
        op = spin_operator(poly, n_vars=n)

        bits = all_bitstrings(n)
        padded = np.pad(bits, ((0, 0), (0, layout.n_vars - n)))
        qubo_vals = batch_evaluate(poly, bits)
        ising_vals = spin_evaluate(form, padded)
        worst = max(worst, float(np.max(np.abs(qubo_vals - ising_vals))))
        # anchor both batched evaluations to the scalar evaluate() and ising_energy()
        for r in rng.integers(0, len(bits), size=5):
            row = bits[r]
            b = tuple(int(v) for v in row)
            assert poly.evaluate(b) == pytest.approx(
                float(batch_evaluate(poly, np.array([row]))[0]), abs=1e-12
            )
            assert ising_energy(op, b) == pytest.approx(
                float(spin_evaluate(form, padded[r : r + 1])[0]), abs=1e-12
            )
    assert worst < 1e-9
    report(3, True, f"100 random problems, max |QUBO - spin| deviation {worst:.2e}")


def test_criterion_4_constraint_truth_tables():
    layout = VariableLayout(2, first_turn_fixed=False)
    allow_steric_form = build_continuity(layout, steric_allowed=True, form="exact")
    penalize_steric_form = build_continuity(layout, steric_allowed=False, form="exact")
    quadratic_form = build_continuity(layout, steric_allowed=False, form="quadratic")
    pair_penalty = build_pair_exclusion(layout)

    for bits in itertools.product((0, 1), repeat=6):
        (turn,) = model.decode_bitstring(bits, layout)
        expect_zero_turn = 1.0 if turn == (0, 0, 0) else 0.0
        assert allow_steric_form.evaluate(bits) == expect_zero_turn

        is_steric = all(c != 0 for c in turn)
        expect_penalized = 1.0 if (turn == (0, 0, 0) or is_steric) else 0.0
        assert penalize_steric_form.evaluate(bits) == expect_penalized

        if pair_penalty.evaluate(bits) == 0.0:
            assert quadratic_form.evaluate(bits) == penalize_steric_form.evaluate(bits)
    report(4, True, "all 64 per-turn assignments match the three truth tables")


def test_criterion_5_objective_equivalence():
    rng = np.random.default_rng(5005)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        beads = "".join(rng.choice(("H", "P")) for _ in range(n))
        seq = hp.parse_sequence(beads)
        layout = VariableLayout(n, first_turn_fixed=bool(rng.integers(2)))
        poly = build_objective(seq, layout)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=layout.n_vars))
        turns = model.decode_bitstring(bits, layout)
        direct = 0.0
        for j, k in hp.hydrophobic_pairs(seq):
            for axis in range(3):
                span = sum(turns[l - 1][axis] for l in range(j, k))
                direct += seq.weight(j, k) * span * span
        assert poly.evaluate(bits) == direct
        checked += 1
    report(5, True, f"{checked} random turn vectors, exact separation-objective match")


def test_criterion_6_crossing_detector():
    # constructed crossing: bonds 1 and 3 share their midpoint
    turns = ((1, 1, 0), (0, -1, 0), (-1, 1, 0))
    seq4 = hp.parse_sequence("PPPP")
    rep = model.validate(turns, seq4)
    assert rep.crossing == ((1, 3),)

    rng = np.random.default_rng(6006)
    moves = model.lattice_moves(True)
    confirmed = 0
    while confirmed < 1000:
        n = int(rng.integers(4, 11))
        cand = tuple(moves[rng.integers(len(moves))] for _ in range(n - 1))
        coords = model.turns_to_coordinates(cand)
        if len(set(coords)) != len(coords):
            continue  # only overlap-free walks qualify
        mids = [
            ((coords[r][0] + coords[r + 1][0]) / 2.0,
             (coords[r][1] + coords[r + 1][1]) / 2.0,
             (coords[r][2] + coords[r + 1][2]) / 2.0)
            for r in range(n - 1)
        ]
        oracle = tuple(
            (r + 1, k + 1)
            for r in range(n - 1)
            for k in range(r + 2, n - 1)
            if mids[r] == mids[k]
        )
        seq = hp.parse_sequence("P" * n)
        found = model.validate(cand, seq).crossing
        assert found == oracle
        if not oracle:
            assert model.validate(cand, seq).feasible
            confirmed += 1
    report(6, True, "constructed crossing flagged; 1000 clean walks match the midpoint oracle")


def test_criterion_9_cvar_properties():
    rng = np.random.default_rng(9009)
    for _ in range(1000):
        k = int(rng.integers(1, 40))
        energies = rng.normal(scale=5.0, size=k)
        counts = rng.integers(1, 6, size=k)
        a1, a2 = np.sort(rng.uniform(0.01, 1.0, size=2))
        assert cvar(energies, float(a1), counts) <= cvar(energies, float(a2), counts) + 1e-12
        mean = float(np.dot(energies, counts) / counts.sum())
        assert cvar(energies, 1.0, counts) == pytest.approx(mean, abs=1e-12)
    report(9, True, "1000 sample sets: monotone in the tail fraction, tail=1 is the mean")


def test_criterion_7_small_instance_optimality():
    t0 = time.time()
    failures = []
    for n in (4, 5):
        for beads in itertools.product("HP", repeat=n):
            seq = hp.parse_sequence("".join(beads))
            layout = VariableLayout(n, first_turn_fixed=True)
            pen = hp.calibrate_penalties(seq) if hp.hydrophobic_pairs(seq) else None
            if pen is None:
                with pytest.warns(UserWarning):
                    pen = hp.calibrate_penalties(seq)
            oracle, _ = hp.enumerate_optimal(seq)
            achieved = None
            for attempt in range(10):
                draw = hp.draw_axes(np.random.default_rng([7007, n, attempt]), layout)
                q = hp.assemble(seq, layout, pen, draw, rng_seed=attempt)
                sel = postselect(exhaustive(q, keep=4000).samples, q, seq)
                if sel.feasible:
                    assert sel.contacts <= oracle
                    if sel.contacts == oracle:
                        achieved = attempt
                        break
            if achieved is None:
                failures.append((str(seq), oracle))
    ok = not failures
    report(
        7,
        ok,
        f"48 sequences of length 4-5 reach the enumeration optimum "
        f"within 10 draws ({time.time() - t0:.0f}s)"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert ok, f"sequences missing their enumeration optimum: {failures}"


def test_criterion_8_vqe_desk_scale():
    seq = hp.parse_sequence("HPH")
    layout = VariableLayout(3, first_turn_fixed=True)
    pen = hp.calibrate_penalties(seq)
    oracle, _ = hp.enumerate_optimal(seq)
    successes = 0
    durations = []
    for seed in range(10):
        start = time.time()
        draw = hp.draw_axes(np.random.default_rng([8008, seed]), layout)
        q = hp.assemble(seq, layout, pen, draw, rng_seed=seed)
        res = vqe_statevector(
            basis_energies(q),
            AnsatzSpec(n_qubits=6, reps=1),
            VqeSettings(max_evals=500, seed=seed),
            alpha=0.05,
            shots=1024,
        )
        sel = postselect(res.samples, q, seq)
        durations.append(time.time() - start)
        assert durations[-1] < 60.0
        if sel.feasible and sel.contacts == oracle:
            successes += 1
    ok = successes >= 8
    report(
        8,
        ok,
        f"{successes}/10 seeds found the feasible 1-contact fold "
        f"(max run {max(durations):.1f}s)",
    )
    assert ok


def test_criterion_8_lift_over_uniform():
    # How much more mass VQE's exact final distribution puts on feasible optimal
    # folds and on feasible folds than the uniform distribution does: at
    # criterion 8's setting and at 12 qubits with the benchmark's 4,000 shots,
    # each beside the same runs with the exact objective (0 shots).
    ok, lines = True, []
    for beads, shots in (("HPH", 1024), ("HPPH", 4000), ("HHPH", 4000)):
        seq = hp.parse_sequence(beads)
        layout = VariableLayout(len(beads), first_turn_fixed=True)
        pen = hp.calibrate_penalties(seq)
        oracle, _ = hp.enumerate_optimal(seq)
        spec = AnsatzSpec(n_qubits=layout.n_vars, reps=1)
        counts = candidate_counts(all_bitstrings(layout.n_vars).astype(int), layout, seq)
        feasible = ~counts[:, :-1].any(axis=1)
        optimal = feasible & (counts[:, -1] == oracle)
        lifts = {}
        for objective_shots in (shots, 0):
            mass = []
            for seed in range(3):
                draw = hp.draw_axes(np.random.default_rng([8008, seed]), layout)
                q = hp.assemble(seq, layout, pen, draw, rng_seed=seed)
                res = vqe_statevector(
                    basis_energies(q), spec, VqeSettings(max_evals=500, seed=seed),
                    alpha=0.05, shots=objective_shots,
                )
                params = np.array(res.provenance["final_params"])
                probs = hp.probabilities(hp.simulate(spec, params))
                mass.append((probs[optimal].sum(), probs[feasible].sum()))
            lifts[objective_shots] = np.mean(mass, axis=0) / (optimal.mean(), feasible.mean())
        # at 4 beads a trained sampler must beat the uniform share of optimal folds
        ok = ok and (len(beads) < 4 or lifts[shots][0] > 1.0)
        lines.append(
            f"{beads} ({layout.n_vars} qubits) optimal/feasible "
            f"{lifts[shots][0]:.2f}x/{lifts[shots][1]:.2f}x at {shots} shots, "
            f"{lifts[0][0]:.2f}x/{lifts[0][1]:.2f}x exact"
        )
    report("8 lift", ok, "VQE mass over the uniform share, mean of 3 draws: " + "; ".join(lines))
    assert ok


@pytest.mark.slow
def test_criterion_1_table_floor_reproduction():
    t0 = time.time()
    outcomes = {}
    for i, beads in enumerate(TABLE_SEQUENCES):
        cfg = hp.RunConfig(
            sequence=beads,
            solver="anneal",
            draws=50,
            restarts=20,
            sweeps=2000,
            seed=7,
            formats=("json",),
        )
        result = hp.solve_sequence(cfg)
        sel = result.best.selected
        outcomes[beads] = (sel.contacts, sel.feasible, sel.report.violation_count())
    elapsed = time.time() - t0

    ok = True
    lines = []
    for beads, floor in ANNEALING_FLOORS.items():
        contacts, feasible, violations = outcomes[beads]
        passed = feasible and violations == 0 and contacts >= floor
        ok = ok and passed
        lines.append(f"{beads}: {contacts} (floor {floor})")
    report(
        1,
        ok,
        f"annealing pipeline, 50 draws x 20 restarts: {'; '.join(lines)} "
        f"in {elapsed / 60:.1f} min",
    )
    for beads, floor in ANNEALING_FLOORS.items():
        contacts, feasible, violations = outcomes[beads]
        assert feasible and violations == 0, f"{beads} best is not violation-free"
        assert contacts >= floor, f"{beads}: contacts {contacts} below floor {floor}"


def feasible_first_seen(res, q, seq):
    """Map each feasible contact count in an anneal population to the first
    sweep at which a state with that count was recorded."""
    first = {}
    for (bits, _c, _e), sweep in zip(res.samples.entries, res.first_seen):
        turns = model.decode_bitstring(bits, q.layout)
        rep = model.validate(
            turns, seq, pair_exclusion=model.pair_exclusions(bits, q.layout)
        )
        if rep.feasible:
            contacts = model.count_contacts(model.turns_to_coordinates(turns), seq)
            first[contacts] = min(sweep, first.get(contacts, sweep))
    return first


def restart_effort(first_hits, sweeps):
    """Expected sweeps to reach a target when every failed run is restarted.

    ``first_hits`` holds each run's first-hit sweep, or None for a run that
    missed. With hit share p and mean first-hit sweep m of the hitting runs,
    the expected number of failed runs before a hit is (1 - p) / p, each
    costing ``sweeps``, so the effort is m + sweeps * (1 - p) / p.
    """
    hits = [s for s in first_hits if s is not None]
    p = len(hits) / len(first_hits)
    return float(np.mean(hits)) + sweeps * (1 - p) / p


def h_fraction(beads):
    return beads.count("H") / len(beads)


def fraction_order_break(efforts):
    """First (lower, higher) pair of sequences whose effort does not rise
    strictly with hydrophobic fraction, or None. Sequences with the same
    fraction are not compared with each other."""
    for a, b in itertools.permutations(efforts, 2):
        if h_fraction(a) < h_fraction(b) and not efforts[a] < efforts[b]:
            return a, b
    return None


def test_criterion_10_order_rule():
    """The ordering rule of criterion 10 leaves equal fractions unordered and
    rejects the measured efforts when they are assigned in reversed order."""
    assert restart_effort([10, 20], 500) == 15.0
    assert restart_effort([10, None], 500) == 510.0
    efforts = [118.5, 171.2, 197.2, 458.9, 920.4]  # seed base 1010, per-variable annealer
    assert fraction_order_break(dict(zip(TABLE_SEQUENCES, efforts))) is None
    reversed_order = dict(zip(TABLE_SEQUENCES, efforts[::-1]))
    assert fraction_order_break(reversed_order) == ("PPHPPHPPHP", "HPPHPPHPHH")


@pytest.mark.slow
def test_criterion_10_hydrophobicity_scaling():
    """Annealing effort grows with hydrophobic content.

    For each sequence, 20 seeded runs (500 sweeps x 8 restarts) share one
    target: the highest feasible contact count any of them reached, which
    must meet the sequence's criterion-1 floor. Effort is the expected
    number of sweeps to reach that target when a failed run is restarted,
    m + 500 (1 - p) / p, with p the share of runs that reach it and m their
    mean first-hit sweep. Every sequence at a lower hydrophobic fraction must
    need strictly less effort than every sequence at a higher one; the two
    50% sequences are not ordered against each other. Measured at seed bases
    1010 / 2020 / 3030, with targets 3, 9, 9, 17 and 25 contacts at each:
    30% H 120 / 120 / 117, 50% H 174-189 / 167-179 / 155-177, 70% H 1119 /
    1671 / 805, 90% H 2987 / 9667 / 3015.
    """
    runs, sweeps = 20, 500
    efforts, lines = {}, []
    for beads in TABLE_SEQUENCES:
        seq = hp.parse_sequence(beads)
        layout = VariableLayout(10, first_turn_fixed=True)
        pen = hp.calibrate_penalties(seq)
        levels = []
        for seed in range(runs):
            draw = hp.draw_axes(np.random.default_rng([1010, seed]), layout)
            q = hp.assemble(seq, layout, pen, draw, rng_seed=seed)
            res = anneal(q, default_schedule(q, sweeps=sweeps, restarts=8, seed=1010 + seed))
            levels.append(feasible_first_seen(res, q, seq))
        reached = [c for run in levels for c in run]
        assert reached, f"{beads}: no feasible fold in {runs} runs"
        target = max(reached)
        floor = ANNEALING_FLOORS[beads]
        assert target >= floor, f"{beads}: target {target} is below its floor {floor}"
        first_hits = [run.get(target) for run in levels]
        hits = [s for s in first_hits if s is not None]
        efforts[beads] = restart_effort(first_hits, sweeps)
        lines.append(
            f"{beads} ({h_fraction(beads):.0%} H): target {target}, "
            f"hits {len(hits)}/{runs}, first hit {np.mean(hits):.1f}, "
            f"effort {efforts[beads]:.1f}"
        )

    broken = fraction_order_break(efforts)
    detail = "; ".join(lines)
    if broken:
        detail += f"; {broken[0]} does not need less effort than {broken[1]}"
    report(10, broken is None, f"expected sweeps to the best fold with restarts: {detail}")
    assert broken is None, (
        "annealing effort does not rise with hydrophobic fraction: " + detail
    )
