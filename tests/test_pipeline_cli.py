import csv
import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hpfold as hp
from hpfold import cli, model
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

    @pytest.mark.parametrize(
        "field, value",
        [("draws", True), ("restarts", 2.0), ("sweeps", 2.5), ("reps", True), ("top_k", 2.0),
         ("max_evals", False), ("workers", 1.0), ("seed", True), ("seed", 7.0), ("seed", -1),
         ("alpha", True), ("shots", True)],
    )
    def test_counts_are_integers(self, field, value):
        # a boolean is not a count, and no setting reaches a solver as a float
        with pytest.raises(ValueError, match=f"^{field} must be"):
            RunConfig(sequence="HPH", solver="vqe", **{field: value})

    def test_library_defaults_are_run_config_defaults(self):
        run = {f.name: f.default for f in dataclasses.fields(RunConfig)}

        def library_default(owner, name):
            if dataclasses.is_dataclass(owner):
                return next(f.default for f in dataclasses.fields(owner) if f.name == name)
            return inspect.signature(owner).parameters[name].default

        for owner, name, run_name in [
            (hp.exhaustive, "keep", "top_k"),
            (hp.anneal, "keep", "top_k"),
            (hp.vqe_statevector, "keep", "top_k"),
            (hp.default_schedule, "sweeps", "sweeps"),
            (hp.default_schedule, "restarts", "restarts"),
            (hp.AnnealSchedule, "sweeps", "sweeps"),
            (hp.AnnealSchedule, "restarts", "restarts"),
            (hp.calibrate_penalties, "lambda3_hint", "lambda3_hint"),
            (hp.vqe_statevector, "alpha", "alpha"),
            (hp.VqeSettings, "max_evals", "max_evals"),
            (hp.AnsatzSpec, "reps", "reps"),
            (hp.VariableLayout, "first_turn_fixed", "fix_first_turn"),
        ]:
            assert library_default(owner, name) == run[run_name], (owner.__name__, name)
        # on purpose: the library's VQE is exact by default, a run samples
        assert library_default(hp.vqe_statevector, "shots") == 0 < run["shots"]


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
        result, written = hp.run_pipeline(cfg)
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
        result, written = hp.run_pipeline(cfg)
        lines = Path(written["conformation.xyz"]).read_text().strip().split("\n")
        assert len(lines) == 4

    def test_result_json_revalidates(self, tmp_path):
        cfg = RunConfig(
            sequence="HPPH", solver="exhaustive", draws=2, seed=9, out_dir=str(tmp_path)
        )
        result, written = hp.run_pipeline(cfg)
        doc = load_result(written["result.json"])
        assert doc["contacts"] <= doc["max_contacts"]
        assert doc["feasible"] is True

    def test_revalidation_rejects_tampering(self, tmp_path):
        cfg = RunConfig(
            sequence="HPPH", solver="exhaustive", draws=1, seed=2, out_dir=str(tmp_path)
        )
        _, written = hp.run_pipeline(cfg)
        doc = json.loads(Path(written["result.json"]).read_text())
        doc["contacts"] = 99
        Path(written["result.json"]).write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_result(written["result.json"])

    def test_revalidation_rejects_coordinate_tampering(self, tmp_path):
        cfg = RunConfig(
            sequence="HPH", solver="exhaustive", draws=1, seed=2, out_dir=str(tmp_path)
        )
        _, written = hp.run_pipeline(cfg)
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
        result, written = hp.run_pipeline(cfg)
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

    def test_revalidation_recounts_the_contacts_of_an_infeasible_result(self, tmp_path):
        cfg = RunConfig(
            sequence="HPPH", solver="exhaustive", draws=1, seed=2, out_dir=str(tmp_path)
        )
        result, written = hp.run_pipeline(cfg)
        doc = json.loads(Path(written["result.json"]).read_text())
        turns = ((1, 0, 0), (-1, 0, 0), (1, 0, 0))  # bead 3 lands on bead 1
        coords = hp.turns_to_coordinates(turns)
        assert not hp.validate(turns, result.sequence).feasible
        assert hp.count_contacts(coords, result.sequence) == 1
        doc.update(
            turns=[list(t) for t in turns], coords=[list(c) for c in coords],
            contacts=1, feasible=False,
        )
        Path(written["result.json"]).write_text(json.dumps(doc))
        assert load_result(written["result.json"])["contacts"] == 1
        doc["contacts"] = 7
        Path(written["result.json"]).write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="contact count"):
            load_result(written["result.json"])

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
            return hp.run_pipeline(cfg)[1]

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
        result, _ = hp.run_pipeline(cfg)
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
        result, written = hp.run_pipeline(cfg)
        assert result.best.selected.feasible
        assert "params.json" in written
        params = json.loads(Path(written["params.json"]).read_text())
        assert len(params) == 6 * 3  # qubits=6, reps=1

    @pytest.mark.parametrize("solver", ["anneal", "exhaustive", "vqe"])
    def test_trace_csv_rows_are_the_population_traces(self, solver, tmp_path):
        argv = ["--seq", "HPPH", "--solver", solver, "--draws", "2", "--sweeps", "30",
                "--restarts", "3", "--max-evals", "60", "--seed", "5", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        with open(tmp_path / "trace.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["draw", "iteration", "objective", "best_so_far"]
        cfg = RunConfig(sequence="HPPH", solver=solver, draws=2, sweeps=30, restarts=3,
                        max_evals=60, seed=5)
        want = []
        for out in solve_sequence(cfg).draws:
            trace, provenance = out.population.trace, out.population.provenance
            assert trace.dtype == np.float64 and trace.ndim == 1 and trace.size >= 1
            best = np.minimum.accumulate(trace)
            want += [[out.draw, i, trace[i], best[i]] for i in range(trace.size)]
            if solver == "anneal":
                assert provenance["sweeps_to_best"] == np.argmin(trace)
                assert trace.size == cfg.sweeps
            elif solver == "exhaustive":
                assert trace.tolist() == [out.population.samples.energies[0]]
            else:
                assert provenance["evaluations"] == trace.size
                assert provenance["objective_value"] == trace.min()
        # floats are written by repr, so they read back exactly
        assert [[int(d), int(i), float(v), float(b)] for d, i, v, b in rows] == want

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda doc: doc.pop("turns"), "missing key 'turns'"),
            (lambda doc: doc.pop("provenance"), "missing key 'provenance'"),
            (lambda doc: doc["provenance"].pop("allow_steric"), "missing key 'allow_steric'"),
            (lambda doc: doc.update(feasible="no"), "feasible must be a JSON boolean"),
            (lambda doc: doc.update(contacts=2.0), "contacts must be a JSON integer"),
            (lambda doc: doc.update(sequence=list("HHPH")), "sequence must be a JSON string"),
            (lambda doc: doc["provenance"].update(allow_steric=1),
             "provenance.allow_steric must be a JSON boolean"),
            (lambda doc: doc["turns"][0].insert(0, float(doc["turns"][0].pop(0))),
             "turns entry must be a JSON integer"),
            (lambda doc: doc.update(energy=float("nan")), "non-finite JSON constant NaN"),
        ],
        ids=["no-turns", "no-provenance", "no-allow-steric", "feasible-str", "contacts-float",
             "sequence-list", "allow-steric-int", "turn-float", "energy-nan"],
    )
    def test_load_result_reads_strictly(self, tamper, message, tmp_path):
        cfg = RunConfig(sequence="HHPH", solver="exhaustive", draws=1, out_dir=str(tmp_path),
                        formats=("json",))
        _, written = hp.run_pipeline(cfg)
        assert load_result(written["result.json"])["contacts"] == 2
        doc = json.loads(Path(written["result.json"]).read_text())
        tamper(doc)
        Path(written["result.json"]).write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_result(written["result.json"])

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
            result, _ = hp.run_pipeline(cfg)
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
        result, _ = hp.run_pipeline(cfg)
        assert result.sequence.weight(1, 3) == 2.5

    def test_worker_pool_matches_serial(self, tmp_path):
        # each worker runs one contiguous range of draws with the run's settings,
        # the VQE ones included; 8 workers for 5 draws leaves no range empty
        for solver, extra in [
            ("exhaustive", {}),
            ("anneal", {"sweeps": 40, "restarts": 3}),
            ("vqe", {"max_evals": 40, "shots": 64, "top_k": 20,
                     "resume_params": tuple(0.1 * i for i in range(18))}),
        ]:
            base = dict(
                sequence="HPH", solver=solver, draws=5, seed=11, formats=("json",), **extra
            )
            serial, _ = hp.run_pipeline(
                RunConfig(out_dir=str(tmp_path / solver / "1"), workers=1, **base)
            )
            for workers in (2, 3, 8):
                out_dir = str(tmp_path / solver / str(workers))
                parallel, _ = hp.run_pipeline(RunConfig(out_dir=out_dir, workers=workers, **base))
                assert [out.draw for out in parallel.draws] == list(range(5)), (solver, workers)
                assert result_document(parallel) == result_document(serial), (solver, workers)
                samples = [(tmp_path / solver / d / "samples.json").read_bytes()
                           for d in ("1", str(workers))]
                assert samples[0] == samples[1], (solver, workers)

    @pytest.mark.parametrize(
        "extra",
        [
            dict(sequence="HPPHPPHPHH", solver="anneal", seed=3),
            dict(sequence="HPPHH", solver="vqe", shots=0, max_evals=56),
        ],
        ids=["anneal", "vqe"],
    )
    def test_top_k_sizes_every_solver(self, extra):
        # anneal at paper settings and exact VQE at 18 qubits both have more
        # than 5000 distinct states to pass on
        result = solve_sequence(RunConfig(draws=1, top_k=5000, **extra))
        provenance = result.best.selected.provenance
        assert provenance["top_k"] == provenance["candidates"] == 5000
        assert len(result.best.population.samples.bits) == 5000

    @pytest.mark.parametrize(
        "solver,extra",
        [("anneal", {"sweeps": 50, "restarts": 3, "export_qubo": True}),
         ("exhaustive", {}), ("vqe", {"max_evals": 60})],
    )
    def test_no_polynomial_is_built(self, solver, extra, tmp_path, monkeypatch):
        def refuse(self, terms=None):
            raise AssertionError("a BinaryPolynomial was built on the run path")

        monkeypatch.setattr(hp.BinaryPolynomial, "__init__", refuse)
        cfg = RunConfig(
            sequence="HPPH", solver=solver, draws=2, seed=5, out_dir=str(tmp_path), **extra
        )
        written = hp.emit(solve_sequence(cfg))
        assert "result.json" in written
        assert ("qubo.json" in written) == cfg.export_qubo

    @pytest.mark.parametrize(
        "solver,extra",
        [("anneal", {"sweeps": 50, "restarts": 3}), ("exhaustive", {}),
         ("vqe", {"max_evals": 60})],
    )
    def test_no_scalar_check_per_candidate(self, solver, extra, monkeypatch):
        # post-selection checks candidates as arrays; the scalar oracle sees only winners
        calls = {"validate": 0, "decode_bitstring": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(model, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(model, name, counted)
        cfg = RunConfig(sequence="HPPH", solver=solver, draws=2, seed=5, **extra)
        result = solve_sequence(cfg)
        assert sum(out.selected.provenance["candidates"] for out in result.draws) > cfg.draws
        assert 0 < calls["validate"] <= cfg.draws
        assert 0 < calls["decode_bitstring"] <= cfg.draws

    @pytest.mark.parametrize(
        "solver,extra",
        [("anneal", {"sweeps": 50, "restarts": 3}), ("exhaustive", {}),
         ("vqe", {"max_evals": 60})],
    )
    def test_library_prints_nothing(self, solver, extra, tmp_path, capsys):
        # only cli.main writes to stdout; a benchmark reads its last line
        cfg = RunConfig(
            sequence="HPPH", solver=solver, draws=2, seed=5, out_dir=str(tmp_path), **extra
        )
        hp.emit(solve_sequence(cfg))
        assert capsys.readouterr().out == ""

    def test_anneal_run_does_not_load_scipy_optimize(self):
        # scipy.optimize costs about 0.3 s and 45 MB to import; no run needs it.
        # multiprocessing (with socket and logging) is needed only by workers > 1.
        snippet = (
            "import sys; sys.path.insert(0, sys.argv[1]); import hpfold as hp; "
            "hp.solve_sequence(hp.RunConfig(sequence='HPPH', sweeps=20, restarts=2, "
            "draws=1, seed=1)); "
            "print('scipy.optimize' in sys.modules, 'multiprocessing' in sys.modules)"
        )
        src = str(Path(hp.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-I", "-c", snippet, src],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.split() == ["False", "False"]

    def test_vqe_run_does_not_load_scipy(self):
        # vqe's Nelder-Mead is in the package; scipy is only the tests' oracle
        snippet = (
            "import sys; sys.path.insert(0, sys.argv[1]); import hpfold as hp; "
            "hp.solve_sequence(hp.RunConfig(sequence='HPPH', solver='vqe', max_evals=60, "
            "draws=1, seed=1)); print('scipy' in sys.modules)"
        )
        src = str(Path(hp.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-I", "-c", snippet, src],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.split() == ["False"]

    @pytest.mark.parametrize("solver", ["anneal", "exhaustive", "vqe"])
    def test_cli_runs_without_scipy(self, solver, tmp_path):
        # a None entry in sys.modules makes every import of scipy fail
        snippet = (
            "import sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
            "from hpfold.cli import main; sys.exit(main(['--seq', 'HPPH', '--solver', "
            "sys.argv[2], '--draws', '1', '--sweeps', '20', '--restarts', '2', "
            "'--max-evals', '60', '--out-dir', sys.argv[3]]))"
        )
        src = str(Path(hp.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-I", "-c", snippet, src, solver, str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert strict_json(tmp_path / "result.json")["solver"] == solver

    def test_blas_threads_do_not_change_an_anneal_run(self, tmp_path):
        # every class step of the annealer updates the fields with a matrix product
        snippet = (
            "import sys; sys.path.insert(0, sys.argv[1]); import hpfold as hp; "
            "hp.run_pipeline(hp.RunConfig(sequence='HHPPPPHHPPHPHPHHPPHPHPHPHHPP', "
            "sweeps=30, restarts=64, draws=2, seed=5, out_dir=sys.argv[2], formats=('json',)))"
        )
        src = str(Path(hp.__file__).resolve().parent.parent)
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-I", "-c", snippet, src, str(out)],
                env=env, capture_output=True, timeout=300, check=True,
            )
            runs.append({name: (out / name).read_bytes() for name in ("result.json", "samples.json")})
        assert runs[0] == runs[1]


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

    @pytest.mark.parametrize(
        "values",
        [
            {"alpha": "small"},
            {"sweeps": 1.5},
            {"restarts": 2.0},
            {"draws": 2.5},
            {"top_k": 2.5},
            {"seed": 1.5},
            {"format": ["json"]},
            {"draws": True},
            {"allow_steric": "no"},
            {"fix_first_turn": "no"},
            {"export_qubo": "no"},
            {"lambda0": True},
            {"shots": 1.5, "solver": "vqe"},
            {"weights_file": 3},
        ],
        ids=lambda values: "-".join(f"{k}-{type(v).__name__}" for k, v in values.items()),
    )
    def test_mistyped_config_value_rejected(self, values, tmp_path, monkeypatch, capsys):
        # each value must have its flag's kind: an int, a number, a boolean or a string
        def no_draws(*args, **kwargs):
            raise AssertionError("a draw started")

        monkeypatch.setattr(hp.pipeline, "draw_axes", no_draws)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seq": "HPPH", **values}))
        assert main(["--config", str(conf), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"config key {next(iter(values))!r} must be" in err
        assert not (tmp_path / "out").exists()

    def test_config_values_take_their_flags_kinds(self, tmp_path):
        # a JSON integer is a number, so it serves a float flag, as it does on the command line
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "seq": "HPPH", "solver": "exhaustive", "draws": 1, "lambda0": 2, "format": "json",
            "allow_steric": False, "export_qubo": True, "weights_file": None,
        }))
        out = tmp_path / "out"
        assert main(["--config", str(conf), "--out-dir", str(out)]) == 0
        doc = strict_json(out / "result.json")
        assert doc["penalties"]["lambda0"] == 2.0 and doc["provenance"]["allow_steric"] is False
        assert sorted(p.name for p in out.iterdir()) == ["qubo.json", "result.json", "samples.json"]

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

    def test_weights_file_repeats_a_pair_only_with_its_weight(self, tmp_path):
        # a pair written twice, in either order, with one weight is the pair written once
        argv = ["--seq", "HPPH", "--solver", "exhaustive", "--draws", "2", "--format", "json"]
        written = {}
        for name, rows in (("once", "1,4,2\n"), ("twice", "1,4,2\n4,1,2\n")):
            wfile = tmp_path / f"{name}.csv"
            wfile.write_text(rows)
            out = tmp_path / name
            assert main(argv + ["--weights-file", str(wfile), "--out-dir", str(out)]) == 0
            written[name] = (out / "result.json").read_bytes()
        assert written["twice"] == written["once"]

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
            ["--seed", "-1"],
            ["--seq", "HPHPHPH", "--solver", "exhaustive"],  # 30 variables
            ["--seq", "HPHPHP", "--solver", "vqe"],  # 24 qubits
            ["--solver", "vqe", "--max-evals", "3"],  # below one simplex of 38
            ["--weights-file", "1,4,nan"],  # the row, written to a weights file below
            ["--weights-file", "1,4,inf"],
            ["--lambda0", "nan"],
            ["--lambda1", "inf"],
            ["--lambda3-hint", "nan"],
            ["--lambda3-hint", "inf"],
            ["--weights-file", "1,4,2\n1,4,3"],  # one pair, two weights
            ["--weights-file", "1,4,2\n4,1,3"],  # the same pair written in both orders
            ["--weights-file", "1,2,5", "--seq", "HHPH"],  # a bonded pair
        ],
    )
    def test_bad_config_exits_before_any_draw(self, flags, tmp_path, monkeypatch, capsys):
        def no_draws(*args, **kwargs):
            raise AssertionError("a draw started")

        if flags[0] == "--weights-file":
            weights = tmp_path / "weights.csv"
            weights.write_text(flags[1] + "\n")
            flags = [flags[0], str(weights), *flags[2:]]

        monkeypatch.setattr(hp.pipeline, "draw_axes", no_draws)
        argv = ["--seq", "HPPH", "--out-dir", str(tmp_path / "out")] + flags
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("hint", ["inf", "nan", "-1"])
    def test_bad_lambda3_hint_exits_before_any_draw(self, hint, tmp_path, monkeypatch, capsys):
        def no_draws(*args, **kwargs):
            raise AssertionError("a draw started")

        monkeypatch.setattr(hp.pipeline, "draw_axes", no_draws)
        argv = ["--seq", "HPPH", f"--lambda3-hint={hint}", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "lambda3_hint must be finite and non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_old_length_resume_params_exit_before_any_draw(self, tmp_path, monkeypatch, capsys):
        # 48 = 2 * 12 * (1 + 1), the length before the final RZ layer was dropped
        params = tmp_path / "params.json"
        params.write_text(json.dumps([0.0] * 48))

        def no_draws(*args, **kwargs):
            raise AssertionError("a draw started")

        monkeypatch.setattr(hp.pipeline, "draw_axes", no_draws)
        argv = ["--seq", "HPPH", "--solver", "vqe", "--resume-params", str(params),
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "resume parameters have shape (48,), expected (36,)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_resume_params_exit_before_any_draw(
        self, value, tmp_path, monkeypatch, capsys
    ):
        params = tmp_path / "params.json"
        params.write_text("[" + ", ".join([value] + ["0.0"] * 17) + "]")  # 18 for HPH

        def no_draws(*args, **kwargs):
            raise AssertionError("a draw started")

        monkeypatch.setattr(hp.pipeline, "draw_axes", no_draws)
        argv = ["--seq", "HPH", "--solver", "vqe", "--resume-params", str(params),
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "resume parameters must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("123456789012345678", "must hold a JSON array of numbers"),  # 18 characters
            ({str(i): 0.0 for i in range(18)}, "must hold a JSON array of numbers"),  # 18 keys
            (["0.5"] * 18, "must be a JSON number, got '0.5'"),
            ([True] * 18, "must be a JSON number, got True"),
            ([10**400] + [0] * 17, "too large"),
        ],
        ids=["string", "object", "strings", "booleans", "huge-int"],
    )
    def test_resume_params_must_be_an_array_of_numbers(
        self, doc, message, tmp_path, monkeypatch, capsys
    ):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))

        def no_draws(*args, **kwargs):
            raise AssertionError("a draw started")

        monkeypatch.setattr(hp.pipeline, "draw_axes", no_draws)
        argv = ["--seq", "HPH", "--solver", "vqe", "--resume-params", str(params),
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "out").exists()

    def test_resume_params_take_ints_and_floats(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps([0, 1, -2, 0.5] + [0.25] * 14))  # 18 for HPH
        argv = ["--seq", "HPH", "--solver", "vqe", "--draws", "1", "--max-evals", "20",
                "--resume-params", str(params), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0

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
