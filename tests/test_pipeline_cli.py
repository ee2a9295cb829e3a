import dataclasses
import hashlib
import json
import os
import re
from pathlib import Path

import pytest

import hpfold as hp
from hpfold import cli
from hpfold.cli import main
from hpfold.pipeline import RunConfig, load_result, result_document, solve_sequence


def strict_json(path):
    """Parse a JSON file, rejecting NaN and the infinities."""

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def file_hashes(paths):
    return {
        name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for name, p in paths.items()
    }


class TestRunConfig:
    def test_solver_validated(self):
        with pytest.raises(ValueError):
            RunConfig(sequence="HPH", solver="quantum")

    def test_formats_validated(self):
        with pytest.raises(ValueError):
            RunConfig(sequence="HPH", formats=("yaml",))

    def test_resume_only_for_vqe(self):
        with pytest.raises(ValueError):
            RunConfig(sequence="HPH", solver="anneal", resume_params=(0.0,))


class TestPipeline:
    def test_exhaustive_hph(self, tmp_path):
        cfg = RunConfig(
            sequence="HPH",
            solver="exhaustive",
            draws=3,
            seed=5,
            out_dir=str(tmp_path / "run"),
            export_qubo=True,
        )
        status, result, written = hp.run_pipeline(cfg)
        assert status == 0
        sel = result.best.selected
        assert sel.feasible and sel.contacts == 1
        assert result.max_contacts == 1
        assert set(written) == {
            "result.json",
            "samples.json",
            "conformation.xyz",
            "trace.csv",
            "qubo.json",
        }

    def test_xyz_has_one_line_per_bead(self, tmp_path):
        cfg = RunConfig(
            sequence="HPPH", solver="exhaustive", draws=1, seed=1, out_dir=str(tmp_path)
        )
        _, result, written = hp.run_pipeline(cfg)
        lines = Path(written["conformation.xyz"]).read_text().strip().split("\n")
        assert len(lines) == 4

    def test_result_json_revalidates(self, tmp_path):
        cfg = RunConfig(
            sequence="HPPH", solver="exhaustive", draws=2, seed=9, out_dir=str(tmp_path)
        )
        _, result, written = hp.run_pipeline(cfg)
        doc = load_result(written["result.json"])
        assert doc["contacts"] <= doc["max_contacts"]
        assert doc["feasible"] is True

    def test_revalidation_rejects_tampering(self, tmp_path):
        cfg = RunConfig(
            sequence="HPPH", solver="exhaustive", draws=1, seed=2, out_dir=str(tmp_path)
        )
        _, _, written = hp.run_pipeline(cfg)
        doc = json.loads(Path(written["result.json"]).read_text())
        doc["contacts"] = 99
        Path(written["result.json"]).write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_result(written["result.json"])

    def test_revalidation_rejects_coordinate_tampering(self, tmp_path):
        cfg = RunConfig(
            sequence="HPH", solver="exhaustive", draws=1, seed=2, out_dir=str(tmp_path)
        )
        _, _, written = hp.run_pipeline(cfg)
        doc = json.loads(Path(written["result.json"]).read_text())
        doc["coords"][2] = [9, 9, 9]
        Path(written["result.json"]).write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="coordinates"):
            load_result(written["result.json"])

    def test_revalidation_uses_the_run_steric_setting(self, tmp_path):
        cfg = RunConfig(
            sequence="HPPH", solver="exhaustive", draws=1, seed=3,
            allow_steric=False, out_dir=str(tmp_path),
        )
        _, result, written = hp.run_pipeline(cfg)
        doc = json.loads(Path(written["result.json"]).read_text())
        assert doc["provenance"]["allow_steric"] is False
        turns = ((1, 0, 0), (0, 1, 0), (-1, -1, 1))  # the last turn is body-diagonal
        coords = hp.turns_to_coordinates(turns)
        assert hp.validate(turns, result.sequence).feasible
        assert not hp.validate(turns, result.sequence, allow_steric=False).feasible
        doc.update(
            turns=[list(t) for t in turns],
            coords=[list(c) for c in coords],
            contacts=hp.count_contacts(coords, result.sequence),
            feasible=True,
        )
        Path(written["result.json"]).write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="feasible"):
            load_result(written["result.json"])
        # where steric turns are allowed, the same fold passes
        doc["provenance"]["allow_steric"] = True
        Path(written["result.json"]).write_text(json.dumps(doc))
        assert load_result(written["result.json"])["turns"] == [list(t) for t in turns]

    def test_byte_identical_rerun(self, tmp_path):
        def run(where):
            cfg = RunConfig(
                sequence="HPH",
                solver="exhaustive",
                draws=2,
                seed=7,
                out_dir=str(where),
                export_qubo=True,
            )
            return hp.run_pipeline(cfg)[2]

        h1 = file_hashes(run(tmp_path / "a"))
        h2 = file_hashes(run(tmp_path / "b"))
        assert h1 == h2

    def test_anneal_pipeline_smoke(self, tmp_path):
        cfg = RunConfig(
            sequence="HPPH",
            solver="anneal",
            draws=2,
            restarts=4,
            sweeps=150,
            seed=3,
            out_dir=str(tmp_path),
        )
        status, result, _ = hp.run_pipeline(cfg)
        assert status == 0
        sel = result.best.selected
        assert sel.feasible and sel.contacts == 1

    def test_vqe_pipeline_smoke(self, tmp_path):
        cfg = RunConfig(
            sequence="HPH",
            solver="vqe",
            draws=1,
            shots=256,
            max_evals=120,
            seed=4,
            out_dir=str(tmp_path),
        )
        status, result, written = hp.run_pipeline(cfg)
        assert status == 0
        assert result.best.selected.feasible
        assert "params.json" in written
        params = json.loads(Path(written["params.json"]).read_text())
        assert len(params) == 2 * 6 * 2  # qubits=6, reps=1

    def test_contacts_never_exceed_bound(self, tmp_path):
        for seed in range(3):
            cfg = RunConfig(
                sequence="HHPH",
                solver="exhaustive",
                draws=2,
                seed=seed,
                out_dir=str(tmp_path / str(seed)),
                formats=("json",),
            )
            _, result, _ = hp.run_pipeline(cfg)
            doc = result_document(result)
            assert doc["contacts"] <= doc["max_contacts"]

    def test_weight_overrides_flow_through(self, tmp_path):
        cfg = RunConfig(
            sequence="HPH",
            solver="exhaustive",
            draws=1,
            seed=0,
            weights={(1, 3): 2.5},
            out_dir=str(tmp_path),
            formats=("json",),
        )
        _, result, _ = hp.run_pipeline(cfg)
        assert result.sequence.weight(1, 3) == 2.5

    def test_worker_pool_matches_serial(self, tmp_path):
        base = dict(
            sequence="HPH", solver="exhaustive", draws=3, seed=11, formats=("json",)
        )
        _, serial, _ = hp.run_pipeline(
            RunConfig(out_dir=str(tmp_path / "s"), workers=1, **base)
        )
        _, parallel, _ = hp.run_pipeline(
            RunConfig(out_dir=str(tmp_path / "p"), workers=2, **base)
        )
        assert result_document(serial) == result_document(parallel)


class TestCli:
    def test_happy_path(self, tmp_path, capsys):
        code = main(
            [
                "--seq",
                "HPH",
                "--solver",
                "exhaustive",
                "--draws",
                "2",
                "--seed",
                "3",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "contacts 1 of max 1" in out
        assert (tmp_path / "result.json").exists()

    def test_seq_file(self, tmp_path):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("hpph\n")
        code = main(
            [
                "--seq-file",
                str(seq_file),
                "--solver",
                "exhaustive",
                "--draws",
                "1",
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0

    def test_missing_sequence_is_config_error(self, capsys):
        assert main(["--solver", "anneal"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_alphabet_is_config_error(self, tmp_path, capsys):
        code = main(["--seq", "HXZ", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_missing_seq_file_is_io_error(self, tmp_path, capsys):
        code = main(["--seq-file", str(tmp_path / "nope.txt")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_config_file_merged_under_flags(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(
            json.dumps({"seq": "HPH", "solver": "exhaustive", "draws": 1, "seed": 12})
        )
        out1 = tmp_path / "o1"
        assert main(["--config", str(conf), "--out-dir", str(out1)]) == 0
        doc = json.loads((out1 / "result.json").read_text())
        assert doc["seed"] == 12 and doc["solver"] == "exhaustive"
        # explicit flag wins over the config value
        out2 = tmp_path / "o2"
        assert main(["--config", str(conf), "--seed", "99", "--out-dir", str(out2)]) == 0
        doc2 = json.loads((out2 / "result.json").read_text())
        assert doc2["seed"] == 99

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seq": "HPH", "bogus": 1}))
        assert main(["--config", str(conf)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json")]) == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"seq": "HPH",', '["--seq", "HPH"]'])
    def test_malformed_config_file_is_config_error(self, text, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(text)
        assert main(["--config", str(conf)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_mistyped_config_value_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seq": "HPH", "alpha": "small"}))
        assert main(["--config", str(conf)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_weights_file(self, tmp_path):
        wfile = tmp_path / "w.csv"
        wfile.write_text("# j,k,weight\n1,3,2.0\n")
        code = main(
            [
                "--seq",
                "HPH",
                "--solver",
                "exhaustive",
                "--draws",
                "1",
                "--weights-file",
                str(wfile),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0

    def test_resume_params_round_trip(self, tmp_path):
        out1 = tmp_path / "first"
        assert (
            main(
                [
                    "--seq",
                    "HPH",
                    "--solver",
                    "vqe",
                    "--draws",
                    "1",
                    "--shots",
                    "128",
                    "--max-evals",
                    "60",
                    "--seed",
                    "6",
                    "--out-dir",
                    str(out1),
                ]
            )
            == 0
        )
        out2 = tmp_path / "second"
        assert (
            main(
                [
                    "--seq",
                    "HPH",
                    "--solver",
                    "vqe",
                    "--draws",
                    "1",
                    "--shots",
                    "128",
                    "--max-evals",
                    "60",
                    "--seed",
                    "6",
                    "--resume-params",
                    str(out1 / "params.json"),
                    "--out-dir",
                    str(out2),
                ]
            )
            == 0
        )

    def test_format_selection(self, tmp_path):
        code = main(
            [
                "--seq",
                "HPH",
                "--solver",
                "exhaustive",
                "--draws",
                "1",
                "--format",
                "json",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "result.json").exists()
        assert not (tmp_path / "conformation.xyz").exists()
        assert not (tmp_path / "trace.csv").exists()

    def test_defaults_come_from_run_config(self, monkeypatch):
        seen = []

        def fake_run(cfg):
            seen.append(cfg)
            raise hp.pipeline.PipelineIOError("stop before solving")

        monkeypatch.setattr(cli, "run_pipeline", fake_run)
        assert main(["--seq", "HPH"]) == 3
        assert seen == [RunConfig(sequence="HPH")]

    def test_help_defaults_match_run_config(self):
        defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        checked = 0
        for action in cli.build_parser()._actions:
            found = re.search(r"\(default (.+)\)$", action.help or "")
            if not found:
                continue
            value = defaults["formats" if action.dest == "format" else action.dest]
            if isinstance(value, bool):
                value = "on" if value else "off"
            elif isinstance(value, tuple):
                value = ",".join(value)
            assert found.group(1) == str(value), action.dest
            checked += 1
        assert checked == 16

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--alpha", "2"],
            ["--alpha", "0"],
            ["--top-k", "0"],
            ["--shots", "-1"],
            ["--reps", "3"],
            ["--restarts", "0"],
            ["--sweeps", "0"],
            ["--max-evals", "0"],
            ["--draws", "0"],
            ["--seq", "HPHPHPH", "--solver", "exhaustive"],  # 30 variables
            ["--seq", "HPHPHP", "--solver", "vqe"],  # 24 qubits
            ["--solver", "vqe", "--max-evals", "3"],  # below one simplex of 50
        ],
    )
    def test_bad_config_exits_before_any_draw(self, flags, tmp_path, monkeypatch, capsys):
        def no_draws(*args, **kwargs):
            raise AssertionError("a draw started")

        monkeypatch.setattr(hp.pipeline, "draw_axes", no_draws)
        argv = ["--seq", "HPPH", "--out-dir", str(tmp_path / "out")] + flags
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:sequence has no non-bonded H pairs")
    @pytest.mark.parametrize("solver", ["anneal", "exhaustive", "vqe"])
    def test_two_bead_chain_has_the_trivial_fold(self, solver, tmp_path, capsys):
        argv = ["--seq", "HP", "--solver", solver, "--draws", "2", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "contacts 0 of max 0 (feasible)" in capsys.readouterr().out
        doc = load_result(str(tmp_path / "result.json"))
        assert doc["bitstring"] == ""
        assert doc["coords"] == [[0, 0, 0], [1, 0, 0]]

    @pytest.mark.filterwarnings("ignore:sequence has no non-bonded H pairs")
    def test_vqe_without_parameters_evaluates_once(self, tmp_path):
        argv = ["--seq", "HP", "--solver", "vqe", "--max-evals", "1", "--export-qubo",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == ["params.json", "qubo.json", "result.json", "samples.json"]
        docs = {name: strict_json(tmp_path / name) for name in names}
        assert docs["result.json"]["provenance"]["evaluations"] == 1
        assert docs["params.json"] == []
