"""Independent re-validation of pipeline results with the scalar oracle.

Every check recomputes a reported quantity from the winning bitstring with
``hpfold.model`` (decode, coordinates, validate, contact count) and compares.
A check returns a list of problems; an empty list means the result holds.
"""

from __future__ import annotations

import hashlib
import json
import math

import hpfold as hp
from hpfold import model
from hpfold.pipeline import result_document


def _check_selected(sel, qubo, seq, allow_steric: bool, label: str) -> list[str]:
    layout = qubo.layout
    bits = sel.best_bits
    turns = model.decode_bitstring(bits, layout)
    coords = model.turns_to_coordinates(turns)
    report = model.validate(
        turns, seq, allow_steric=allow_steric,
        pair_exclusion=model.pair_exclusions(bits, layout),
    )
    contacts = model.count_contacts(coords, seq)
    problems = []
    if tuple(sel.conformation or ()) != coords:
        problems.append(f"{label}: conformation differs from the decoded bitstring")
    if sel.contacts != contacts:
        problems.append(f"{label}: reports {sel.contacts} contacts, decode gives {contacts}")
    if bool(sel.feasible) != report.feasible:
        problems.append(f"{label}: reports feasible={sel.feasible}, validate gives {report.feasible}")
    if contacts > model.max_contacts(seq):
        problems.append(f"{label}: {contacts} contacts exceed the bound {model.max_contacts(seq)}")
    energy = qubo.evaluate(bits)
    if not math.isclose(sel.best_value, energy, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"{label}: reports energy {sel.best_value}, the problem gives {energy}")
    return problems


def check_result(result, unit) -> list[str]:
    """Problems found in one ``solve_sequence`` result (empty when correct)."""
    cfg = result.config
    seq = model.parse_sequence(cfg.sequence)
    problems = []
    if result.max_contacts != model.max_contacts(seq):
        problems.append(f"max_contacts {result.max_contacts} != {model.max_contacts(seq)}")
    if len(result.draws) != cfg.draws:
        problems.append(f"{len(result.draws)} draw outcomes for {cfg.draws} draws")
    for out in result.draws:
        problems += _check_selected(
            out.selected, out.qubo, seq, cfg.allow_steric, f"{cfg.sequence} draw {out.draw}"
        )
    feasible = [out.selected.contacts for out in result.draws if out.selected.feasible]
    best = result.best.selected
    if feasible and not (best.feasible and best.contacts == max(feasible)):
        problems.append(f"{cfg.sequence}: winner is not the best feasible draw")
    if unit.optimal and best.feasible and best.contacts > unit.target:
        problems.append(f"{cfg.sequence}: {best.contacts} contacts beat the optimum {unit.target}")
    return problems


def check_emitted(result, paths: dict[str, str]) -> list[str]:
    """Round-trip the emitted result.json through ``hpfold.load_result``."""
    doc = hp.load_result(paths["result.json"])
    expected = json.loads(json.dumps(result_document(result)))
    if doc != expected:
        return [f"{result.config.sequence}: emitted result.json differs from the result"]
    return []


def digest(result) -> str:
    """Hash of the result document, which must repeat for the same seed."""
    text = json.dumps(result_document(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(digests) -> str:
    """One hash over a workload's per-call digests, in call order."""
    return hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()
