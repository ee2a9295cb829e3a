import itertools
import json
import math

import numpy as np
import pytest

from hpfold.encoder import (
    AxisDraw,
    PenaltyConfig,
    VariableLayout,
    assemble,
    calibrate_penalties,
    crossing_pairs,
    draw_axes,
    overlap_pairs,
    qubo_from_json,
    qubo_to_json,
)
from hpfold.model import (
    decode_bitstring,
    encode_turns,
    hydrophobic_pairs,
    parse_sequence,
    turns_to_coordinates,
)
from hpfold.polynomial import BinaryPolynomial
from oracles import (
    build_continuity,
    build_crossing,
    build_objective,
    build_overlap,
    build_pair_exclusion,
    turn_square,
)


def all_axis_draw(layout, axis="x"):
    return AxisDraw(
        overlap={p: axis for p in overlap_pairs(layout.n_beads)},
        crossing={p: axis for p in crossing_pairs(layout.n_beads)},
    )


def direct_objective(seq, turns):
    """Squared per-axis separation summed over H pairs, straight from turns."""
    total = 0.0
    for j, k in hydrophobic_pairs(seq):
        for axis in range(3):
            span = sum(turns[l - 1][axis] for l in range(j, k))
            total += seq.weight(j, k) * span * span
    return total


class TestVariableLayout:
    @pytest.mark.parametrize(
        "n,fixed,expected",
        [(10, True, 48), (10, False, 54), (20, False, 114), (2, False, 6), (2, True, 0)],
    )
    def test_variable_counts(self, n, fixed, expected):
        assert VariableLayout(n, first_turn_fixed=fixed).n_vars == expected

    def test_index_bijective(self):
        for fixed in (False, True):
            layout = VariableLayout(7, first_turn_fixed=fixed)
            seen = set()
            for t in layout.encoded_turns:
                for axis in "xyz":
                    for half in ("plus", "minus"):
                        idx = layout.index(t, axis, half)
                        seen.add(idx)
            assert seen == set(range(layout.n_vars))

    def test_fixed_turn_has_no_variables(self):
        layout = VariableLayout(4, first_turn_fixed=True)
        with pytest.raises(ValueError):
            layout.index(1, "x", "plus")

    def test_turn_range_checked(self):
        layout = VariableLayout(4, first_turn_fixed=False)
        with pytest.raises(ValueError):
            layout.index(4, "x", "plus")


class TestTurnSquare:
    def test_truth_table(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        sq = turn_square(layout, 1, "x")
        # bits ordered (x+, x-, y+, y-, z+, z-)
        assert sq.evaluate((0, 0, 0, 0, 0, 0)) == 0.0
        assert sq.evaluate((1, 1, 0, 0, 0, 0)) == 0.0
        assert sq.evaluate((0, 1, 0, 0, 0, 0)) == 1.0
        assert sq.evaluate((1, 0, 0, 0, 0, 0)) == 1.0

    def test_symmetric_in_halves(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        sq = turn_square(layout, 1, "y")
        d = sq.as_dict()
        yp, ym = layout.index(1, "y", "plus"), layout.index(1, "y", "minus")
        assert d[(yp,)] == d[(ym,)]

    def test_fixed_turn_constant(self):
        layout = VariableLayout(3, first_turn_fixed=True)
        sq = turn_square(layout, 1, "x")
        assert sq == BinaryPolynomial.constant(1.0)
        assert turn_square(layout, 1, "y").is_zero()


class TestBuildObjective:
    def test_no_h_pairs_zero(self):
        seq = parse_sequence("PPP")
        layout = VariableLayout(3, first_turn_fixed=False)
        assert build_objective(seq, layout).is_zero()

    def test_hph_values(self):
        seq = parse_sequence("HPH")
        layout = VariableLayout(3, first_turn_fixed=False)
        obj = build_objective(seq, layout)
        assert obj.evaluate(encode_turns(((1, 0, 0), (1, 0, 0)), layout)) == 4.0
        assert obj.evaluate(encode_turns(((1, 0, 0), (-1, 1, 0)), layout)) == 1.0

    def test_weight_override_scales(self):
        layout = VariableLayout(3, first_turn_fixed=False)
        base = build_objective(parse_sequence("HPH"), layout)
        doubled = build_objective(parse_sequence("HPH", weights={(1, 3): 2.0}), layout)
        bits = encode_turns(((1, 0, 0), (0, 1, 0)), layout)
        assert doubled.evaluate(bits) == 2.0 * base.evaluate(bits)

    def test_matches_direct_computation_all_assignments(self):
        seq = parse_sequence("HPHH")
        layout = VariableLayout(4, first_turn_fixed=False)
        obj = build_objective(seq, layout)
        rng = np.random.default_rng(8)
        for _ in range(300):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=layout.n_vars))
            turns = decode_bitstring(bits, layout)
            assert obj.evaluate(bits) == direct_objective(seq, turns)

    def test_matches_direct_with_fixed_first_turn(self):
        seq = parse_sequence("HHPH")
        layout = VariableLayout(4, first_turn_fixed=True)
        obj = build_objective(seq, layout)
        rng = np.random.default_rng(9)
        for _ in range(200):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=layout.n_vars))
            turns = decode_bitstring(bits, layout)
            assert obj.evaluate(bits) == direct_objective(seq, turns)


class TestBuildContinuity:
    def test_zero_turn_fires(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        for form, steric in (("quadratic", False), ("exact", False), ("exact", True)):
            poly = build_continuity(layout, steric_allowed=steric, form=form)
            assert poly.evaluate((0,) * 6) == 1.0

    def test_axis_turn_passes(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        bits = encode_turns(((1, 0, 0),), layout)
        for form, steric in (("quadratic", False), ("exact", False), ("exact", True)):
            assert build_continuity(layout, steric, form).evaluate(bits) == 0.0

    def test_steric_turn_split(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        bits = encode_turns(((1, 1, 1),), layout)
        assert build_continuity(layout, False, "exact").evaluate(bits) == 1.0
        assert build_continuity(layout, True, "exact").evaluate(bits) == 0.0

    def test_degrees(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        assert build_continuity(layout, False, "quadratic").degree() <= 2
        assert build_continuity(layout, False, "exact").degree() == 4
        assert build_continuity(layout, True, "exact").degree() == 6

    def test_quadratic_requires_steric_penalized(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        with pytest.raises(ValueError):
            build_continuity(layout, steric_allowed=True, form="quadratic")

    def test_quadratic_equals_exact_off_excluded_states(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        quad = build_continuity(layout, False, "quadratic")
        exact = build_continuity(layout, False, "exact")
        pair_pen = build_pair_exclusion(layout)
        for bits in itertools.product((0, 1), repeat=6):
            if pair_pen.evaluate(bits) == 0:
                assert quad.evaluate(bits) == exact.evaluate(bits)

    def test_fixed_first_turn_contributes_zero(self):
        layout = VariableLayout(2, first_turn_fixed=True)
        poly = build_continuity(layout, False, "quadratic")
        assert poly.is_zero()


class TestBuildOverlap:
    def test_pair_counts(self):
        for n in (3, 4, 6, 10):
            assert len(overlap_pairs(n)) == (n - 2) * (n - 1) // 2
            assert len(crossing_pairs(n)) == (n - 3) * (n - 2) // 2

    def test_zero_sum_unrewarded(self):
        layout = VariableLayout(3, first_turn_fixed=False)
        poly = build_overlap(layout, all_axis_draw(layout, "x"))
        bits = encode_turns(((1, 0, 0), (-1, 0, 0)), layout)
        assert poly.evaluate(bits) == 0.0

    def test_straight_pair_rewarded(self):
        layout = VariableLayout(3, first_turn_fixed=False)
        poly = build_overlap(layout, all_axis_draw(layout, "x"))
        bits = encode_turns(((1, 0, 0), (1, 0, 0)), layout)
        assert poly.evaluate(bits) == 4.0

    def test_missing_draw_entry(self):
        layout = VariableLayout(4, first_turn_fixed=False)
        draw = AxisDraw(overlap={(1, 3): "x"}, crossing={})
        with pytest.raises(ValueError):
            build_overlap(layout, draw)


class TestBuildCrossing:
    def test_crossing_conformation_all_axes_zero(self):
        layout = VariableLayout(4, first_turn_fixed=False)
        turns = ((1, 1, 0), (0, -1, 0), (-1, 1, 0))
        bits = encode_turns(turns, layout)
        for axis in "xyz":
            poly = build_crossing(layout, all_axis_draw(layout, axis))
            assert poly.evaluate(bits) == 0.0

    def test_straight_chain_value(self):
        layout = VariableLayout(4, first_turn_fixed=False)
        poly = build_crossing(layout, all_axis_draw(layout, "x"))
        bits = encode_turns(((1, 0, 0),) * 3, layout)
        assert poly.evaluate(bits) == 16.0  # midpoint separation 4, squared

    def test_turn_form_equals_coordinate_form(self):
        rng = np.random.default_rng(10)
        layout = VariableLayout(6, first_turn_fixed=False)
        for axis_idx, axis in enumerate("xyz"):
            poly = build_crossing(layout, all_axis_draw(layout, axis))
            for _ in range(100):
                bits = tuple(int(b) for b in rng.integers(0, 2, size=layout.n_vars))
                turns = decode_bitstring(bits, layout)
                coords = turns_to_coordinates(turns)
                expected = 0.0
                for r, k in crossing_pairs(6):
                    sep = (coords[k - 1][axis_idx] + coords[k][axis_idx]) - (
                        coords[r - 1][axis_idx] + coords[r][axis_idx]
                    )
                    expected += sep * sep
                assert poly.evaluate(bits) == expected

    def test_missing_draw_entry(self):
        layout = VariableLayout(4, first_turn_fixed=False)
        draw = AxisDraw(overlap={p: "x" for p in overlap_pairs(4)}, crossing={})
        with pytest.raises(ValueError):
            build_crossing(layout, draw)


class TestPairExclusion:
    def test_examples(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        poly = build_pair_exclusion(layout)
        assert poly.evaluate((1, 1, 0, 0, 0, 0)) == 1.0
        assert poly.evaluate((0,) * 6) == 0.0
        assert poly.evaluate((1, 0, 1, 0, 1, 0)) == 0.0
        assert poly.degree() == 2


class TestDrawAxes:
    def test_deterministic(self):
        layout = VariableLayout(8, first_turn_fixed=True)
        d1 = draw_axes(np.random.default_rng(42), layout)
        d2 = draw_axes(np.random.default_rng(42), layout)
        assert d1 == d2

    def test_covers_all_pairs(self):
        layout = VariableLayout(8, first_turn_fixed=True)
        d = draw_axes(np.random.default_rng(0), layout)
        assert set(d.overlap) == set(overlap_pairs(8))
        assert set(d.crossing) == set(crossing_pairs(8))

    def test_axis_frequencies_near_uniform(self):
        # (n-1)(n-2)/2 >= 10000 overlap pairs at n = 143
        layout = VariableLayout(143, first_turn_fixed=True)
        d = draw_axes(np.random.default_rng(7), layout)
        axes = list(d.overlap.values())
        n = len(axes)
        assert n >= 10000
        sigma = (1 / 3 * 2 / 3 / n) ** 0.5
        for axis in "xyz":
            freq = axes.count(axis) / n
            assert abs(freq - 1 / 3) < 5 * sigma

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            AxisDraw(overlap={(1, 3): "w"}, crossing={})

    @pytest.mark.parametrize("beads", [2, 3, 4, 10, 28])
    def test_same_draws_as_one_draw_per_pair(self, beads):
        layout = VariableLayout(beads)
        rng = np.random.default_rng(beads)
        pairs = overlap_pairs(beads) + crossing_pairs(beads)
        expected = ["xyz"[int(np.argmax(rng.standard_normal(3)))] for _ in pairs]
        d = draw_axes(np.random.default_rng(beads), layout)
        assert [*d.overlap.values(), *d.crossing.values()] == expected


class TestCalibrate:
    def test_table_row_counts(self):
        seq = parse_sequence("HPPHPPHPHH")
        pen = calibrate_penalties(seq, lambda3_hint=0.5)
        assert pen.lambda2 == 1.0
        assert pen.lambda3 == 0.5
        assert pen.lambda0 == pytest.approx((36 + 14) / 9)
        assert pen.lambda1 == pen.lambda4 == pytest.approx(10 * pen.lambda0)

    def test_no_h_pairs_warns(self):
        with pytest.warns(UserWarning):
            pen = calibrate_penalties(parse_sequence("PPPP"))
        assert pen.lambda0 == 1.0

    def test_overrides(self):
        pen = calibrate_penalties(
            parse_sequence("HPPH"), overrides={"lambda0": 2.0, "lambda4": 99.0}
        )
        assert pen.lambda0 == 2.0
        assert pen.lambda4 == 99.0
        with pytest.raises(ValueError):
            calibrate_penalties(parse_sequence("HPPH"), overrides={"lambda9": 1.0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PenaltyConfig(-1, 0, 0, 0, 0)

    @pytest.mark.parametrize("hint", [math.inf, -math.inf, math.nan, -0.5])
    def test_bad_lambda3_hint_named(self, hint):
        # the hint is rejected by its own name, not by the weights derived from it
        for beads in ("HPPH", "PPPP"):
            with pytest.raises(ValueError, match="lambda3_hint must be finite and non-negative"):
                calibrate_penalties(parse_sequence(beads), lambda3_hint=hint)


class TestAssemble:
    def _problem(self, beads="HPPH", fixed=True, seed=0):
        seq = parse_sequence(beads)
        layout = VariableLayout(len(seq), first_turn_fixed=fixed)
        pen = calibrate_penalties(seq)
        draw = draw_axes(np.random.default_rng(seed), layout)
        return seq, layout, pen, draw, assemble(seq, layout, pen, draw, rng_seed=seed)

    def test_degree_at_most_two(self):
        for beads in ("HPH", "HPPH", "HHHHPP"):
            _, _, _, _, q = self._problem(beads)
            assert q.polynomial.degree() <= 2

    def test_variable_counts(self):
        _, _, _, _, q = self._problem("HPPHPPHPHH", fixed=True)
        assert q.n_vars == 48
        _, _, _, _, q = self._problem("HPPHPPHPHH", fixed=False)
        assert q.n_vars == 54

    def test_penalty_linearity(self):
        seq, layout, pen, draw, q = self._problem("HPHH", fixed=False, seed=3)
        parts = {
            "obj": build_objective(seq, layout),
            "cont": build_continuity(layout, form="quadratic"),
            "over": build_overlap(layout, draw),
            "cross": build_crossing(layout, draw),
            "pair": build_pair_exclusion(layout),
        }
        rng = np.random.default_rng(11)
        for _ in range(100):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=q.n_vars))
            expected = (
                pen.lambda0 * parts["obj"].evaluate(bits)
                + pen.lambda1 * parts["cont"].evaluate(bits)
                - pen.lambda2 * parts["over"].evaluate(bits)
                - pen.lambda3 * parts["cross"].evaluate(bits)
                + pen.lambda4 * parts["pair"].evaluate(bits)
            )
            assert q.evaluate(bits) == pytest.approx(expected, abs=1e-9)

    def test_hand_value_hph(self):
        # lambda0 = 1, lambda3 hint irrelevant (no crossing pairs at N=3)
        seq = parse_sequence("HPH")
        layout = VariableLayout(3, first_turn_fixed=True)
        pen = calibrate_penalties(seq)
        draw = AxisDraw(overlap={(1, 3): "y"}, crossing={})
        q = assemble(seq, layout, pen, draw)
        bits = encode_turns(((1, 0, 0), (-1, 1, 0)), layout)
        # objective: spans x=0,y=1,z=0 -> 1; overlap reward along y: 1
        assert q.evaluate(bits) == pytest.approx(pen.lambda0 * 1.0 - 1.0)

    def test_evaluate_bit_count(self):
        _, _, _, _, q = self._problem("HPH")
        with pytest.raises(ValueError):
            q.evaluate((0, 1))


class TestQuboJson:
    def test_round_trip(self):
        seq = parse_sequence("HPHH")
        layout = VariableLayout(4, first_turn_fixed=True)
        pen = calibrate_penalties(seq)
        draw = draw_axes(np.random.default_rng(13), layout)
        q = assemble(seq, layout, pen, draw, rng_seed=13)
        q2 = qubo_from_json(qubo_to_json(q, sequence="HPHH"))
        assert q2.polynomial == q.polynomial
        assert q2.layout == q.layout
        assert q2.axis_draw == q.axis_draw
        assert q2.penalties == q.penalties
        assert q2.rng_seed == 13

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["quadratic"].append([3, 3, 100.0]), "quadratic entry"),
            (lambda doc: doc["linear"].append([-1, 5.0]), "linear entry"),
            (lambda doc: doc["linear"].append([doc["linear"][0][0], 1.0]), "repeated linear"),
            (lambda doc: doc.update(variables=99), "99 variables declared"),
            (lambda doc: doc["quadratic"].append([0, doc["variables"], 1.0]), "quadratic entry"),
            (lambda doc: doc.update(constant=float("nan")), "non-finite JSON constant NaN"),
            (lambda doc: doc["linear"][0].__setitem__(-1, float("nan")), "constant NaN"),
            (lambda doc: doc["quadratic"][0].__setitem__(-1, float("inf")), "constant Infinity"),
            (lambda doc: doc.update(constant="73.5"), "constant must be a JSON number"),
            (lambda doc: doc["linear"][0].__setitem__(-1, "1.5"),
             "linear coefficient must be a JSON number"),
            (lambda doc: doc["quadratic"][0].__setitem__(-1, True),
             "quadratic coefficient must be a JSON number"),
            (lambda doc: doc["metadata"].update(seed="7"), "seed must be a JSON integer"),
            (lambda doc: doc["metadata"]["penalties"].update(lambda0="1.5"),
             "lambda0 must be a JSON number"),
            (lambda doc: doc["metadata"]["penalties"].update(lambda2=True),
             "lambda2 must be a JSON number"),
            (lambda doc: doc["metadata"].update(fixed_turn=[True, 0, 0]),
             "fixed_turn entry must be a JSON integer"),
            (lambda doc: doc["metadata"].update(fixed_turn=[0, 0, 0]),
             r"fixed_turn must be \[1, 0, 0\], got \[0, 0, 0\]"),
            (lambda doc: doc["metadata"].update(fixed_turn=[0, 1, 0]), "fixed_turn must be"),
            (lambda doc: doc["metadata"].update(fixed_turn=[1, 0]), "fixed_turn must be"),
            (lambda doc: doc["metadata"].update(fixed_turn=1), "fixed_turn must be"),
            (lambda doc: doc.update(variables=12.0), "variables must be a JSON integer"),
            (lambda doc: doc["metadata"].update(sequence=5), "sequence must be a JSON string"),
            (lambda doc: doc["metadata"].update(sequence=None), "sequence must be a JSON string"),
            (lambda doc: doc["metadata"].update(first_turn_fixed=1),
             "first_turn_fixed must be a JSON boolean"),
            (lambda doc: doc["metadata"].update(n_beads=4.0), "n_beads must be a JSON integer"),
            (lambda doc: doc["linear"][0].__setitem__(-1, 10**400),
             "linear coefficient is too large for a float"),
            (lambda doc: doc.update(constant=-(10**400)), "constant is too large for a float"),
            (lambda doc: doc["metadata"]["penalties"].update(lambda1=10**400),
             "lambda1 is too large for a float"),
            (lambda doc: doc["metadata"]["penalties"].update(lambda9=1.0),
             "unknown penalty key 'lambda9'"),
            (lambda doc: doc["metadata"]["penalties"].pop("lambda0"), "missing key 'lambda0'"),
            (lambda doc: doc["metadata"].pop("seed"), "missing key 'seed'"),
            (lambda doc: doc["metadata"].pop("axis_draw"), "missing key 'axis_draw'"),
            (lambda doc: doc.pop("constant"), "missing key 'constant'"),
            (lambda doc: doc.pop("metadata"), "missing key 'metadata'"),
        ],
        ids=["diagonal-quadratic", "negative-index", "duplicate", "variable-count", "out-of-range",
             "nan-constant", "nan-linear", "infinity-quadratic", "string-constant",
             "string-linear", "boolean-quadratic", "string-seed", "string-lambda0",
             "boolean-lambda2", "boolean-fixed-turn", "zero-fixed-turn", "other-fixed-turn",
             "short-fixed-turn", "scalar-fixed-turn", "float-variables", "integer-sequence", "null-sequence",
             "integer-first-turn-fixed", "float-n-beads",
             "huge-linear", "huge-constant", "huge-lambda1", "unknown-lambda9",
             "missing-lambda0", "missing-seed", "missing-axis-draw", "missing-constant",
             "missing-metadata"],
    )
    def test_malformed_entries_rejected(self, edit, message):
        seq = parse_sequence("HPPH")
        layout = VariableLayout(4)
        draw = draw_axes(np.random.default_rng(3), layout)
        q = assemble(seq, layout, calibrate_penalties(seq), draw)
        doc = json.loads(qubo_to_json(q, sequence="HPPH"))
        qubo_from_json(json.dumps(doc))
        edit(doc)
        with pytest.raises(ValueError, match=message):
            qubo_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda draw: draw["overlap"].pop(), "each overlap pair once"),
            (lambda draw: draw["overlap"].__setitem__(-1, draw["overlap"][0]),
             "each overlap pair once"),
            (lambda draw: draw["overlap"].append([1, 2, "x"]), "each overlap pair once"),
            (lambda draw: draw["overlap"][0].__setitem__(0, 1.0),
             "each overlap pair once, in integers"),
            (lambda draw: draw["crossing"].clear(), "each crossing pair once"),
            (lambda draw: draw["crossing"].append(draw["crossing"][0]),
             "each crossing pair once"),
        ],
        ids=["missing-overlap", "repeated-overlap", "adjacent-overlap", "float-overlap-index",
             "no-crossing", "repeated-crossing"],
    )
    def test_axis_draw_must_list_every_pair_once(self, edit, message):
        seq = parse_sequence("HPPH")
        layout = VariableLayout(4)
        draw = draw_axes(np.random.default_rng(3), layout)
        q = assemble(seq, layout, calibrate_penalties(seq), draw)
        doc = json.loads(qubo_to_json(q, sequence="HPPH"))
        assert qubo_from_json(json.dumps(doc)).axis_draw == q.axis_draw
        edit(doc["metadata"]["axis_draw"])
        with pytest.raises(ValueError, match=message):
            qubo_from_json(json.dumps(doc))

    def test_dense_matches_polynomial(self):
        seq = parse_sequence("HPH")
        layout = VariableLayout(3, first_turn_fixed=False)
        pen = calibrate_penalties(seq)
        draw = draw_axes(np.random.default_rng(14), layout)
        q = assemble(seq, layout, pen, draw)
        const, lin, quad = q.to_dense()
        rng = np.random.default_rng(15)
        for _ in range(50):
            bits = rng.integers(0, 2, size=q.n_vars).astype(float)
            dense_val = const + bits @ lin + 0.5 * bits @ quad @ bits
            assert q.evaluate(tuple(int(b) for b in bits)) == pytest.approx(dense_val)
