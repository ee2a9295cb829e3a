import itertools

import numpy as np
import pytest

from hpfold import model
from hpfold.encoder import VariableLayout
from hpfold.model import (
    FeasibilityReport,
    HpSequence,
    conformation_to_xyz,
    count_contacts,
    decode_bitstring,
    encode_turns,
    enumerate_optimal,
    hydrophobic_pairs,
    lattice_moves,
    max_contacts,
    pair_exclusions,
    parse_sequence,
    turns_to_coordinates,
    validate,
)


def random_turns(rng, n_turns, first=None):
    opts = [-1, 0, 1]
    turns = [tuple(rng.choice(opts) for _ in range(3)) for _ in range(n_turns)]
    if first is not None:
        turns[0] = first
    return tuple(turns)


def random_feasible_turns(rng, seq, allow_steric=True):
    moves = lattice_moves(allow_steric)
    while True:
        turns = tuple(moves[rng.integers(len(moves))] for _ in range(len(seq) - 1))
        if validate(turns, seq, allow_steric).feasible:
            return turns


class TestParseSequence:
    def test_table_row(self):
        seq = parse_sequence("HPPHPPHPHH")
        assert len(seq) == 10
        assert seq.h_indices == (1, 4, 7, 9, 10)

    def test_minimal(self):
        assert len(parse_sequence("HP")) == 2

    def test_case_and_whitespace(self):
        assert str(parse_sequence(" hpPh\n")) == "HPPH"

    def test_bad_alphabet(self):
        with pytest.raises(ValueError):
            parse_sequence("HXP")

    def test_too_short(self):
        with pytest.raises(ValueError):
            parse_sequence("H")
        with pytest.raises(ValueError):
            parse_sequence("")

    def test_weights_validation(self):
        seq = parse_sequence("HPH", weights={(1, 3): 2.0})
        assert seq.weight(1, 3) == 2.0
        assert seq.weight(3, 1) == 2.0
        with pytest.raises(ValueError):
            parse_sequence("HPH", weights={(1, 2): 1.0})  # bead 2 is P


class TestHydrophobicPairs:
    def test_table_row(self):
        assert len(hydrophobic_pairs(parse_sequence("HPPHPPHPHH"))) == 9

    def test_bonded_excluded(self):
        assert hydrophobic_pairs(parse_sequence("HH")) == []

    def test_single_pair(self):
        assert hydrophobic_pairs(parse_sequence("HPH")) == [(1, 3)]


class TestMaxContacts:
    @pytest.mark.parametrize(
        "seq,expected",
        [
            ("PPHPPHPPHP", 3),
            ("HPPHPPHPHH", 9),
            ("HHPPHPHPHP", 9),
            ("HHHHPPHPHH", 17),
            ("HHHH", 3),
        ],
    )
    def test_values(self, seq, expected):
        assert max_contacts(parse_sequence(seq)) == expected

    def test_equals_pair_count(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            beads = "".join(rng.choice(["H", "P"]) for _ in range(n))
            seq = parse_sequence(beads)
            assert max_contacts(seq) == len(hydrophobic_pairs(seq))


class TestDecodeEncode:
    def test_decode_example(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        assert decode_bitstring((0, 1, 0, 0, 1, 0), layout) == ((-1, 0, 1),)

    def test_all_zero(self):
        layout = VariableLayout(3, first_turn_fixed=False)
        assert decode_bitstring((0,) * 12, layout) == ((0, 0, 0), (0, 0, 0))

    def test_both_halves_set_gives_zero(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        assert decode_bitstring((1, 1, 1, 1, 1, 1), layout) == ((0, 0, 0),)

    def test_fixed_first_turn_prepended(self):
        layout = VariableLayout(3, first_turn_fixed=True)
        turns = decode_bitstring((1, 0, 0, 0, 0, 0), layout)
        assert turns == ((1, 0, 0), (1, 0, 0))

    def test_bit_count_mismatch(self):
        layout = VariableLayout(3, first_turn_fixed=False)
        with pytest.raises(ValueError):
            decode_bitstring((0, 1), layout)

    def test_round_trip_canonical(self):
        rng = np.random.default_rng(1)
        for fixed in (False, True):
            layout = VariableLayout(6, first_turn_fixed=fixed)
            for _ in range(200):
                turns = random_turns(rng, 5, first=(1, 0, 0) if fixed else None)
                bits = encode_turns(turns, layout)
                assert decode_bitstring(bits, layout) == turns

    def test_decode_total(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        for bits in itertools.product((0, 1), repeat=6):
            (turn,) = decode_bitstring(bits, layout)
            assert all(c in (-1, 0, 1) for c in turn)

    def test_encode_rejects_wrong_fixed_turn(self):
        layout = VariableLayout(3, first_turn_fixed=True)
        with pytest.raises(ValueError):
            encode_turns(((0, 1, 0), (1, 0, 0)), layout)

    def test_pair_exclusions(self):
        layout = VariableLayout(2, first_turn_fixed=False)
        assert pair_exclusions((1, 1, 0, 0, 0, 0), layout) == [(1, "x")]
        assert pair_exclusions((1, 0, 1, 0, 1, 0), layout) == []


class TestCoordinates:
    def test_empty(self):
        assert turns_to_coordinates(()) == ((0, 0, 0),)

    def test_prefix_sum(self):
        assert turns_to_coordinates(((1, 0, 0), (0, 1, 0))) == (
            (0, 0, 0),
            (1, 0, 0),
            (1, 1, 0),
        )

    def test_decode_example(self):
        assert turns_to_coordinates(((-1, 0, 1),)) == ((0, 0, 0), (-1, 0, 1))

    def test_step_difference_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            turns = random_turns(rng, int(rng.integers(1, 10)))
            coords = turns_to_coordinates(turns)
            for i, t in enumerate(turns):
                assert tuple(
                    coords[i + 1][c] - coords[i][c] for c in range(3)
                ) == t


class TestCountContacts:
    def test_body_diagonal(self):
        seq = parse_sequence("HPH")
        conf = ((0, 0, 0), (1, 0, 0), (1, 1, 1))
        assert count_contacts(conf, seq) == 1

    def test_outside_unit_cube(self):
        seq = parse_sequence("HPH")
        conf = ((0, 0, 0), (1, 1, 0), (2, 0, 0))
        assert count_contacts(conf, seq) == 0

    def test_in_plane_diagonal(self):
        seq = parse_sequence("HPH")
        conf = ((0, 0, 0), (1, 0, 0), (1, 1, 0))
        assert count_contacts(conf, seq) == 1

    def test_overlapping_beads_not_contact(self):
        seq = parse_sequence("HPH")
        conf = ((0, 0, 0), (1, 0, 0), (0, 0, 0))
        assert count_contacts(conf, seq) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            count_contacts(((0, 0, 0),), parse_sequence("HP"))

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        seq = parse_sequence("HHPHPHH")
        for _ in range(50):
            turns = random_feasible_turns(rng, seq)
            conf = turns_to_coordinates(turns)
            shift = tuple(int(v) for v in rng.integers(-5, 6, size=3))
            moved = tuple(
                (x + shift[0], y + shift[1], z + shift[2]) for x, y, z in conf
            )
            assert count_contacts(moved, seq) == count_contacts(conf, seq)

    def test_octahedral_invariance(self):
        rng = np.random.default_rng(4)
        seq = parse_sequence("HHPHPHH")
        perms = list(itertools.permutations(range(3)))
        signs = list(itertools.product((-1, 1), repeat=3))
        turns = random_feasible_turns(rng, seq)
        conf = turns_to_coordinates(turns)
        base = count_contacts(conf, seq)
        for perm in perms:
            for sign in signs:
                image = tuple(
                    tuple(sign[a] * pos[perm[a]] for a in range(3)) for pos in conf
                )
                assert count_contacts(image, seq) == base

    def test_bounded_by_max_contacts(self):
        rng = np.random.default_rng(5)
        for beads in ("HHHH", "HPHPH", "HHPHH"):
            seq = parse_sequence(beads)
            for _ in range(50):
                turns = random_feasible_turns(rng, seq)
                conf = turns_to_coordinates(turns)
                assert count_contacts(conf, seq) <= max_contacts(seq)


class TestValidate:
    def test_crossing_example(self):
        # coords (0,0,0),(1,1,0),(1,0,0),(0,1,0): bonds 1 and 3 share a midpoint
        turns = ((1, 1, 0), (0, -1, 0), (-1, 1, 0))
        report = validate(turns, parse_sequence("PPPP"))
        assert report.crossing == ((1, 3),)
        assert not report.feasible

    def test_zero_turn(self):
        report = validate(((1, 0, 0), (0, 0, 0)), parse_sequence("PPP"))
        assert report.continuity == (2,)

    def test_return_to_origin_overlap(self):
        report = validate(((1, 0, 0), (-1, 0, 0)), parse_sequence("PPP"))
        assert report.overlap == ((1, 3),)

    def test_steric_flag(self):
        turns = ((1, 0, 0), (1, 1, 1))
        seq = parse_sequence("PPP")
        assert validate(turns, seq, allow_steric=True).feasible
        report = validate(turns, seq, allow_steric=False)
        assert report.continuity == (2,)

    def test_turn_count_checked(self):
        with pytest.raises(ValueError):
            validate(((1, 0, 0),), parse_sequence("PPP"))

    def test_overlap_matches_pairwise_oracle(self):
        rng = np.random.default_rng(6)
        seq = parse_sequence("PPPPPPPP")
        for _ in range(200):
            turns = random_turns(rng, 7)
            coords = turns_to_coordinates(turns)
            expected = tuple(
                (i + 1, j + 1)
                for i in range(len(coords))
                for j in range(i + 2, len(coords))
                if coords[i] == coords[j]
            )
            assert validate(turns, seq).overlap == expected

    def test_crossing_matches_midpoint_oracle(self):
        rng = np.random.default_rng(7)
        seq = parse_sequence("PPPPPPP")
        for _ in range(300):
            turns = random_turns(rng, 6)
            coords = turns_to_coordinates(turns)
            mids = [
                tuple((coords[r][c] + coords[r + 1][c]) / 2.0 for c in range(3))
                for r in range(len(coords) - 1)
            ]
            expected = tuple(
                (r + 1, k + 1)
                for r in range(len(mids))
                for k in range(r + 2, len(mids))
                if mids[r] == mids[k]
            )
            assert validate(turns, seq).crossing == expected

    def test_pair_exclusion_passthrough(self):
        report = validate(
            ((1, 0, 0), (0, 1, 0)),
            parse_sequence("PPP"),
            pair_exclusion=[(2, "x")],
        )
        assert not report.feasible
        assert report.pair_exclusion == ((2, "x"),)

    def test_feasible_iff_all_lists_empty(self):
        empty = FeasibilityReport()
        assert empty.feasible and empty.violation_count() == 0
        assert not FeasibilityReport(continuity=(1,)).feasible


class TestEnumerateOptimal:
    def test_hpph(self):
        best, conf = enumerate_optimal(parse_sequence("HPPH"))
        assert best == 1
        assert count_contacts(conf, parse_sequence("HPPH")) == 1

    def test_hph(self):
        best, _ = enumerate_optimal(parse_sequence("HPH"))
        assert best == 1

    def test_ppp(self):
        best, conf = enumerate_optimal(parse_sequence("PPP"))
        assert best == 0
        assert validate(
            tuple(
                tuple(conf[i + 1][c] - conf[i][c] for c in range(3))
                for i in range(len(conf) - 1)
            ),
            parse_sequence("PPP"),
        ).feasible

    def test_witness_is_feasible(self):
        seq = parse_sequence("HHHHH")
        best, conf = enumerate_optimal(seq)
        turns = tuple(
            tuple(conf[i + 1][c] - conf[i][c] for c in range(3))
            for i in range(len(conf) - 1)
        )
        assert validate(turns, seq).feasible
        assert count_contacts(conf, seq) == best

    def test_budget(self):
        with pytest.raises(ValueError):
            enumerate_optimal(parse_sequence("HPHPHPHP"))

    def test_steric_restriction_never_better(self):
        for beads in ("HHHH", "HHPH", "HPHH"):
            seq = parse_sequence(beads)
            with_steric, _ = enumerate_optimal(seq, allow_steric=True)
            without, _ = enumerate_optimal(seq, allow_steric=False)
            assert without <= with_steric


class TestLatticeMoves:
    def test_move_counts(self):
        assert len(lattice_moves(True)) == 26
        assert len(lattice_moves(False)) == 18
        assert (0, 0, 0) not in lattice_moves(True)

    def test_steric_excluded(self):
        assert all(
            any(c == 0 for c in mv) for mv in lattice_moves(False)
        )


class TestExports:
    def test_xyz_line_count_and_content(self):
        seq = parse_sequence("HPH")
        conf = ((0, 0, 0), (1, 0, 0), (1, 1, 0))
        text = conformation_to_xyz(conf, seq)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[0] == "H 0 0 0"
        assert lines[2] == "H 1 1 0"

