"""Per-layer spans for the traced benchmark run.

The wrappers sit at the use sites of each layer's public functions
(the module attribute the caller looks up at call time), so the program
itself is unchanged.  A span is ``(name, start, end, parent)`` kept in
memory; a layer's self time is its spans' durations minus the spans
nested directly inside them.  Counters are taken at the same
boundaries: plan calls and evaluation contexts are split by whether a
run-semantics span is open.

Install the wrappers only around traced operations (``with
recorder.installed():``), so untraced operations in the same process
run the unmodified program.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

_perf = time.perf_counter

#: (module, attribute, span name): functions wrapped at their use site.
SPAN_SITES = (
    ("repro.verifier.linear", "run_procedure", "engine"),
    ("repro.verifier.branching", "run_procedure", "engine"),
    ("repro.verifier.engine", "warm_service_plans", "compile.plans"),
    ("repro.analysis.dataflow", "static_facts", "compile.dataflow"),
    ("repro.verifier.linear", "ltl_to_buchi", "compile.buchi"),
    ("repro.verifier.engine", "run_units", "pool"),
    ("repro.verifier.linear", "find_accepting_lasso", "lasso"),
    ("repro.verifier.branching", "build_snapshot_kripke", "kripke.build"),
    ("repro.verifier.branching", "satisfying_states", "ctl.check"),
)

#: Run-semantics entry points: spans that also mark "inside run semantics".
RUNS_SITES = (
    ("repro.verifier.linear", "successors", "runs.successors"),
    ("repro.verifier.linear", "initial_snapshots", "runs.initial"),
    ("repro.verifier.branching", "deterministic_step", "runs.step"),
    ("repro.verifier.branching", "enumerate_choices", "runs.choices"),
)

#: Functions returning lazy iterators: each ``next()`` is one span.
ITER_SITES = (
    ("repro.verifier.engine", "candidate_databases", "enumerate.databases"),
    ("repro.verifier.engine", "enumerate_sigmas", "enumerate.sigmas"),
)

#: Compiled-plan entry points counted as plan calls.
PLAN_METHODS = (
    ("repro.fol.compile", "CompiledFormula", "check"),
    ("repro.fol.compile", "CompiledFormula", "bits"),
    ("repro.fol.compile", "CompiledQuery", "solve"),
)


def _materialized(fn: Callable) -> Callable:
    """Run a generator function to completion inside the caller's span
    (its one use site materializes the result anyway)."""

    def wrapper(*args, **kwargs):
        return list(fn(*args, **kwargs))

    return wrapper


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.current: int | None = None
        self.runs_depth = 0
        self.plan_calls_runs = 0
        self.plan_calls_other = 0
        self.ectx_runs = 0
        self.ectx_other = 0
        self.kripkes: list = []

    def reset(self) -> None:
        """Start a new operation's record."""
        self.__init__()

    # -- wrappers --------------------------------------------------------------

    def span(self, name: str, fn: Callable, runs: bool = False) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            parent = rec.current
            idx = len(rec.spans)
            rec.spans.append(None)
            rec.current = idx
            if runs:
                rec.runs_depth += 1
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                if runs:
                    rec.runs_depth -= 1
                rec.current = parent
                rec.spans[idx] = (name, start, end, parent)

        return wrapper

    def iter_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a function whose result is (or starts with) a lazy
        iterable: lists pass through, iterators get one span per item."""
        rec = self

        def timed(items) -> Iterator:
            it = iter(items)
            while True:
                parent = rec.current
                idx = len(rec.spans)
                rec.spans.append(None)
                rec.current = idx
                start = _perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.current = parent
                    rec.spans[idx] = (name, start, _perf(), parent)
                yield item

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, tuple):  # candidate_databases: (dbs, size)
                dbs, rest = out[0], out[1:]
                if not isinstance(dbs, list):
                    dbs = timed(dbs)
                return (dbs, *rest)
            return out if isinstance(out, list) else timed(out)

        return wrapper

    def plan_counter(self, fn: Callable) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            if rec.runs_depth:
                rec.plan_calls_runs += 1
            else:
                rec.plan_calls_other += 1
            return fn(*args, **kwargs)

        return wrapper

    def ectx_counter(self, fn: Callable) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            if rec.runs_depth:
                rec.ectx_runs += 1
            else:
                rec.ectx_other += 1
            return fn(*args, **kwargs)

        return wrapper

    def kripke_keeper(self, fn: Callable) -> Callable:
        """Keep each built Kripke structure to count its edges after
        the operation, outside every timed span."""
        rec = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            rec.kripkes.append(out)
            return out

        return wrapper

    # -- installation ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every site for the duration of the block."""
        saved: list[tuple[Any, str, Any]] = []

        def patch(owner, attr: str, new) -> None:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for mod, attr, name in SPAN_SITES:
                owner = importlib.import_module(mod)
                fn = getattr(owner, attr)
                if name == "kripke.build":
                    fn = self.kripke_keeper(fn)
                patch(owner, attr, self.span(name, fn))
            for mod, attr, name in RUNS_SITES:
                owner = importlib.import_module(mod)
                fn = getattr(owner, attr)
                if name == "runs.choices":
                    fn = _materialized(fn)
                patch(owner, attr, self.span(name, fn, True))
            for mod, attr, name in ITER_SITES:
                owner = importlib.import_module(mod)
                patch(owner, attr, self.iter_span(name, getattr(owner, attr)))
            for mod, cls, attr in PLAN_METHODS:
                owner = getattr(importlib.import_module(mod), cls)
                patch(owner, attr, self.plan_counter(getattr(owner, attr)))
            runs = importlib.import_module("repro.service.runs")
            patch(
                runs.RunContext, "make_eval_context",
                self.ectx_counter(runs.RunContext.make_eval_context),
            )
            linear = importlib.import_module("repro.verifier.linear")
            labeller = linear._SnapshotLabeller
            for attr in ("__call__", "label_bits"):
                patch(labeller, attr, self.span("label", getattr(labeller, attr)))
            parallel = importlib.import_module("repro.verifier.parallel")
            for proc, checker in list(parallel._CHECKERS.items()):
                saved.append((parallel._CHECKERS, proc, checker))
                parallel._CHECKERS[proc] = self.span("unit", checker)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = old
                else:
                    setattr(owner, attr, old)

    # -- analysis --------------------------------------------------------------

    def ledger(self) -> dict:
        """Per span name: calls, total and self seconds of this record."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is None:
                continue
            _name, start, end, parent = span
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _parent = span
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[idx]
        return out

    def open_spans(self) -> int:
        """Spans never closed (a bookkeeping error if non-zero)."""
        return sum(1 for s in self.spans if s is None)

    def kripke_size(self) -> tuple[int, int]:
        states = edges = 0
        for k in self.kripkes:
            states += len(k.states)
            edges += sum(len(k.successors(s)) for s in k.states)
        return states, edges

    def dump(self, path) -> None:
        """Write this record's spans, one JSON array per line."""
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent = span
                    fh.write(json.dumps([idx, name, start, end, parent]) + "\n")
