"""Command-line front end for the folding pipeline.

Example:
    hpfold --seq PPHPPHPPHP --solver anneal --draws 50 --seed 7 --out-dir run1

Exit codes: 0 on success (including a best-effort infeasible result, which is
reported in the output), 2 on configuration errors, 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from typing import Optional

from .encoder import json_value
from .pipeline import SOLVERS, PipelineIOError, RunConfig, run_pipeline

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}


def _help(text: str, field: str) -> str:
    """Help text that names the ``RunConfig`` default of ``field``."""
    value = _DEFAULTS[field]
    if isinstance(value, bool):
        value = "on" if value else "off"
    elif isinstance(value, tuple):
        value = ",".join(value)
    return f"{text} (default {value})"


def build_parser() -> argparse.ArgumentParser:
    """Every option defaults to absent, so only explicit settings reach the config."""
    parser = argparse.ArgumentParser(
        prog="hpfold",
        description="Fold an HP bead sequence on a 26-neighbor cubic lattice "
        "by quadratic binary optimization.",
        argument_default=argparse.SUPPRESS,
    )
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--seq", help="H/P sequence text, e.g. HPPHPPHPHH")
    src.add_argument("--seq-file", help="file containing the H/P sequence")
    parser.add_argument("--solver", choices=SOLVERS,
                        help=_help("optimization backend", "solver"))
    parser.add_argument("--draws", type=int,
                        help=_help("number of independent axis-draw encodings", "draws"))
    parser.add_argument("--restarts", type=int,
                        help=_help("annealer restarts per draw", "restarts"))
    parser.add_argument("--sweeps", type=int,
                        help=_help("annealer sweeps per restart", "sweeps"))
    parser.add_argument("--alpha", type=float,
                        help=_help("CVaR tail fraction for the vqe solver", "alpha"))
    parser.add_argument("--shots", type=int,
                        help=_help("vqe measurement shots per evaluation; 0 = exact", "shots"))
    parser.add_argument("--reps", type=int,
                        help=_help("ansatz entangling repetitions, 1 or 2", "reps"))
    parser.add_argument("--top-k", type=int,
                        help=_help("distinct states each solver keeps for post-selection", "top_k"))
    parser.add_argument("--max-evals", type=int,
                        help=_help("vqe objective evaluation budget", "max_evals"))
    parser.add_argument("--fix-first-turn", action=argparse.BooleanOptionalAction,
                        help=_help("fix the first turn to (1,0,0)", "fix_first_turn"))
    parser.add_argument("--allow-steric", action=argparse.BooleanOptionalAction,
                        help=_help("treat body-diagonal turns as geometrically valid",
                                   "allow_steric"))
    for i in range(5):
        parser.add_argument(f"--lambda{i}", type=float,
                            help=f"override penalty weight {i}")
    parser.add_argument("--lambda3-hint", type=float,
                        help=_help("crossing reward weight used by calibration",
                                   "lambda3_hint"))
    parser.add_argument("--weights-file",
                        help="CSV of j,k,weight rows overriding H-pair interaction strengths")
    parser.add_argument("--seed", type=int,
                        help=_help("master seed; every random choice derives from it", "seed"))
    parser.add_argument("--out-dir", help=_help("artifact directory", "out_dir"))
    parser.add_argument("--format", help=_help("comma list from json,xyz,csv", "formats"))
    parser.add_argument("--export-qubo", action="store_true",
                        help="also write the winning encoding as qubo.json")
    parser.add_argument("--resume-params",
                        help="JSON file with a flat parameter array to warm-start vqe")
    parser.add_argument("--config",
                        help="JSON config file (keys = flag names); explicit flags win")
    parser.add_argument("--workers", type=int, help=_help("parallel draw workers", "workers"))
    return parser


def _load_weights(path: str) -> dict[tuple[int, int], float]:
    weights: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 3:
                raise ValueError(f"weights row must be j,k,weight: {row!r}")
            # keys go as written; HpSequence decides which pairs and orders are valid
            key, w = (int(row[0]), int(row[1])), float(row[2])
            if key in weights and weights[key] != w:
                raise ValueError(f"conflicting weights for pair {key}")
            weights[key] = w
    return weights


def _merge_config(args: argparse.Namespace) -> dict:
    """The explicit settings: the config file's, then the flags laid over them.

    Anything left unset takes its ``RunConfig`` default.
    """
    merged: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise ValueError("the config file must hold a JSON object")
        actions = {a.dest: a for a in build_parser()._actions if a.dest not in ("help", "config")}
        for key, value in file_conf.items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:  # a boolean for a switch, else the flag's type or a string
                kind = bool if action.nargs == 0 else action.type or str
                merged[action.dest] = json_value(value, kind, f"config key {key!r}")
    merged.update(vars(args))
    return merged


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        conf = _merge_config(args)
        if conf.get("seq") and conf.get("seq_file"):
            raise ValueError("give either a sequence or a sequence file, not both")
        if conf.get("seq"):
            sequence = conf["seq"]
        elif conf.get("seq_file"):
            with open(conf["seq_file"]) as fh:
                sequence = fh.read()
        else:
            raise ValueError("a sequence is required (--seq or --seq-file)")

        settings = {k: v for k, v in conf.items() if k in _DEFAULTS}
        if conf.get("weights_file"):
            settings["weights"] = _load_weights(conf["weights_file"])

        resume_path = settings.pop("resume_params", None)  # a file, not the values
        if resume_path:
            with open(resume_path) as fh:
                params = json.load(fh)
            if not isinstance(params, list):
                raise ValueError(f"{resume_path} must hold a JSON array of numbers")
            what = f"each entry of {resume_path}"
            settings["resume_params"] = tuple(json_value(v, float, what) for v in params)

        overrides = {
            f"lambda{i}": conf[f"lambda{i}"] for i in range(5) if f"lambda{i}" in conf
        }
        if overrides:
            settings["lambda_overrides"] = overrides
        if "format" in conf:
            settings["formats"] = tuple(
                s.strip() for s in conf["format"].split(",") if s.strip()
            )
        cfg = RunConfig(sequence=sequence, **settings)
    except OSError as exc:  # a config, sequence, weights or parameter file
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (TypeError, ValueError, OverflowError) as exc:  # also malformed JSON, bad values
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        result, written = run_pipeline(cfg)
    except PipelineIOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    sel = result.best.selected
    feasible = "feasible" if sel.feasible else "NOT feasible (best effort)"
    print(
        f"{result.sequence}: contacts {sel.contacts} of max {result.max_contacts} "
        f"({feasible}), energy {sel.best_value:.6g}, draw {result.best.draw}"
    )
    for name, path in sorted(written.items()):
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
