"""In-memory span tracer that wraps hpfold's public functions by name.

Only layer-boundary functions are wrapped; hot per-variable helpers such as
``VariableLayout.index`` are not, because wrapping them would distort what is
measured. A wrapped function is replaced wherever the package binds the same
object (``from .encoder import assemble`` makes a second binding in
``hpfold.pipeline``), and the originals are restored on ``uninstall``.

Ordinary targets record one span per call: name, start, end and the index of
the enclosing span. Targets marked as leaves are called once per candidate
bitstring, so their calls are aggregated per (enclosing span, name) into a
call count and a total time. A leaf must not call another traced function.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


def _count_assemble(args, kwargs, q):
    return {"polynomial.terms": len(q.polynomial.terms)}


def _count_anneal(args, kwargs, result):
    q, sched = args[0], args[1]
    return {
        "anneal.proposals": sched.sweeps * sched.restarts * q.n_vars,
        "anneal.kept": len(result.samples.entries),
        "anneal.rows": (sched.sweeps + 1) * sched.restarts,
    }


def _count_postselect(args, kwargs, result):
    return {"postselect.candidates": result.provenance["candidates"]}


def _count_validate(args, kwargs, report):
    return {
        "validate.rejected": int(not report.feasible),
        "reject.continuity": int(bool(report.continuity)),
        "reject.overlap": int(bool(report.overlap)),
        "reject.crossing": int(bool(report.crossing)),
        "reject.pair_exclusion": int(bool(report.pair_exclusion)),
    }


def _count_exhaustive(args, kwargs, result):
    return {"exhaustive.states": 2 ** args[0].n_vars}


def _count_vqe(args, kwargs, result):
    return {"vqe.evals": result.provenance["evaluations"]}


def _count_emit(args, kwargs, written):
    return {"emit.bytes": sum(os.path.getsize(p) for p in written.values())}


@dataclass(frozen=True)
class Target:
    """A traced function: ``module`` under hpfold, dotted ``attr`` inside it."""

    module: str
    attr: str
    leaf: bool = False
    counter: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr.rsplit('.', 1)[-1]}"


TARGETS = (
    Target("pipeline", "solve_sequence"),
    Target("pipeline", "emit", counter=_count_emit),
    Target("encoder", "calibrate_penalties"),
    Target("encoder", "draw_axes"),
    Target("encoder", "assemble", counter=_count_assemble),
    Target("encoder", "QuboProblem.to_dense"),
    Target("solvers", "default_schedule"),
    Target("solvers", "anneal", counter=_count_anneal),
    Target("solvers", "exhaustive", counter=_count_exhaustive),
    Target("solvers", "vqe_statevector", counter=_count_vqe),
    Target("solvers", "postselect", counter=_count_postselect),
    Target("ising", "qubo_to_ising"),
    Target("ising", "basis_energies"),
    Target("ansatz", "simulate", leaf=True),
    Target("model", "decode_bitstring", leaf=True),
    Target("model", "pair_exclusions", leaf=True),
    Target("model", "validate", leaf=True, counter=_count_validate),
    Target("model", "count_contacts", leaf=True),
)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.leaves: dict[tuple[int, str], list] = {}  # -> [calls, seconds]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []  # targets whose name no longer exists
        self.counter_errors: list[str] = []  # targets whose counters failed
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            owner, attr = self._resolve(target)
            if owner is None:
                if target.name not in self.missing:
                    self.missing.append(target.name)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "hpfold":
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @staticmethod
    def _resolve(target: Target):
        owner = sys.modules.get(f"hpfold.{target.module}")
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return None, attr
        return owner, attr

    def _wrap(self, target: Target, fn):
        name = target.name
        spans, stack, leaves = self.spans, self._stack, self.leaves
        clock = time.perf_counter

        if target.leaf:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    slot = leaves.setdefault((stack[-1] if stack else -1, name), [0, 0.0])
                    slot[0] += 1
                    slot[1] += elapsed
                self._count(target, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                record = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                self._count(target, args, kwargs, result)
                return result

        return wrapper

    def _count(self, target: Target, args, kwargs, result) -> None:
        if target.counter is None:
            return
        try:
            increments = target.counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            # The function's signature or result changed; its counters are
            # reported as missing rather than failing the run.
            if target.name not in self.counter_errors:
                self.counter_errors.append(target.name)
            return
        for key, value in increments.items():
            self.counters[key] += value

    # -- analysis ---------------------------------------------------------

    def totals(self, first: int = 0, stop: Optional[int] = None) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total seconds and self seconds.

        ``first`` and ``stop`` restrict the sum to the spans with those
        indices and the leaf calls made inside them.
        """
        stop = len(self.spans) if stop is None else stop
        whole = first == 0 and stop == len(self.spans)
        leaves = [
            (parent, name, calls, seconds)
            for (parent, name), (calls, seconds) in self.leaves.items()
            if first <= parent < stop or (whole and parent < 0)
        ]
        child_time = defaultdict(float)
        for _name, start, end, parent in self.spans[first:stop]:
            child_time[parent] += end - start
        for parent, _name, _calls, seconds in leaves:
            child_time[parent] += seconds
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _parent) in enumerate(self.spans[first:stop], start=first):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
        for _parent, name, calls, seconds in leaves:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += seconds
            row["self_s"] += seconds
        return out

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "leaves": [
                {"parent": p, "name": n, "calls": c, "seconds": t}
                for (p, n), (c, t) in sorted(self.leaves.items())
            ],
            "counters": dict(self.counters),
            "missing": self.missing,
            "counter_errors": self.counter_errors,
        }
