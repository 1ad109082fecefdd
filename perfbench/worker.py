"""One benchmark process: ``setup``, ``loop`` or ``trace`` for one workload.

``run.py`` starts each mode in a fresh interpreter and reads one JSON
object from the last line of its standard output.

- ``setup``: import ``repro``, build the inputs, make one cold call and
  report the monotonic time of its verdict (``setup_s`` is measured
  from just before the process was started).
- ``loop``: the closed loop.  After one untimed cold call, time one
  ``verify_*`` call after another, tracing off, until ``--seconds``
  have passed; then make the untimed known-VIOLATED companion check
  and, for the pool workload, the ``workers=1`` parity call.
- ``trace``: a traced cold call (compile-layer spans), then
  alternating untraced and traced calls for ``--seconds``; reports the
  per-layer ledger, the tracing overhead and the reconciliation of
  layer self times with wall time.  Spans are recorded in this process
  only: on the pool workload the units run in pool workers, so the
  in-unit layers come from the program's own stats and ``label.bits``
  events, and their span times read 0 (``ltl-session-sigmas`` shows
  the in-process split of the same layers).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as W
from repro.obs import CollectingTracer
from repro.verifier import Verdict

#: Largest allowed |wall - sum of layer self times| / wall, in percent.
RECONCILE_TOLERANCE_PCT = 5.0


class Checker:
    """Counts attempted and failed operations against known answers."""

    def __init__(self, wl: W.Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stats_ref: dict | None = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def timed(self, result) -> bool:
        """Check one HOLDS operation; stats must repeat exactly."""
        self.attempted += 1
        if result.verdict is not Verdict.HOLDS:
            self.fail(f"verdict {result.verdict.name}, known answer HOLDS")
            return False
        stats = W.comparable_stats(result)
        if self.stats_ref is None:
            self.stats_ref = stats
        elif stats != self.stats_ref:
            self.fail(f"stats changed between runs: {stats} != {self.stats_ref}")
            return False
        return True

    def call(self, fn, check):
        """Run an untimed check; an exception counts as a failure."""
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - every raise is a failed op
            self.attempted += 1
            self.fail(f"raised {type(exc).__name__}: {exc}")
            return None
        check(result)
        return result

    def companion(self) -> None:
        def check(result) -> None:
            self.attempted += 1
            if result.verdict.name != "VIOLATED":
                self.fail(f"companion verdict {result.verdict.name}, "
                          "known answer VIOLATED")
            elif not self.wl.witness_ok(result):
                self.fail("companion violation without a confirmed witness")

        self.call(self.wl.companion, check)

    def parity(self, counters: dict) -> None:
        """The pool workload's counters equal a ``workers=1`` call's."""
        if self.wl.reference is None:
            return

        def check(result) -> None:
            self.attempted += 1
            if result.verdict is not Verdict.HOLDS:
                self.fail(f"workers=1 reference verdict {result.verdict.name}")
            elif W.counters(result) != counters:
                self.fail(f"pool counters {counters} != workers=1 "
                          f"{W.counters(result)}")

        self.call(self.wl.reference, check)


def _op(wl: W.Workload, checker: Checker, **kw):
    """One timed operation: (seconds, result or None, ok)."""
    started = time.perf_counter()
    try:
        result = wl.op(**kw)
    except Exception as exc:  # noqa: BLE001 - every raise is a failed op
        elapsed = time.perf_counter() - started
        checker.attempted += 1
        checker.fail(f"raised {type(exc).__name__}: {exc}")
        return elapsed, None, False
    elapsed = time.perf_counter() - started
    return elapsed, result, checker.timed(result)


def mode_setup(wl: W.Workload, args) -> dict:
    checker = Checker(wl)
    _op(wl, checker)
    return {
        "t_verdict": time.monotonic(),
        "stats": checker.stats_ref,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def mode_loop(wl: W.Workload, args) -> dict:
    checker = Checker(wl)
    _op(wl, checker)  # the cold call, counted in setup_s, not timed here
    samples: list[float] = []
    correct = 0
    last = None
    loop_started = time.perf_counter()
    while time.perf_counter() - loop_started < args.seconds:
        elapsed, result, ok = _op(wl, checker)
        samples.append(elapsed)
        if ok:
            correct += 1
            last = result
    loop_s = time.perf_counter() - loop_started
    counters = W.counters(last) if last is not None else {}
    checker.companion()
    checker.parity(counters)
    return {
        "samples": samples,
        "correct_ops": correct,
        "loop_s": loop_s,
        "peak_rss_mb": _peak_rss_mb(),
        "counters": counters,
        "stats": checker.stats_ref,
        "workers": wl.workers,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
    }


def _events(tracer) -> dict:
    by_name: dict[str, list] = {}
    for ev in tracer.events:
        by_name.setdefault(ev.name, []).append(ev.fields)
    return by_name


def _op_ledger(rec, tracer, result, wall: float) -> dict:
    """Per-layer metrics of one traced operation."""
    led = rec.ledger()
    ev = _events(tracer)

    def self_s(*names: str) -> float:
        return sum(led.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name: str) -> int:
        return led.get(name, {}).get("calls", 0)

    stats = result.stats
    workers = stats.get("config", {}).get("workers", 1)
    busy = sum(f.get("dur", 0.0) for f in ev.get("unit.finish", []))
    run_units = led.get("pool", {}).get("total_s", 0.0)
    bits = ev.get("label.bits", [])
    computed = sum(f.get("computed", 0) for f in bits)
    shared = sum(f.get("shared", 0) for f in bits)
    states, edges = rec.kripke_size()
    plans = ev.get("plan.compiled", [])
    accounted = sum(row["self_s"] for row in led.values())
    return {
        "runs.successors.calls": calls("runs.successors"),
        "runs.successors.self_s": self_s("runs.successors"),
        "runs.step.calls": calls("runs.step"),
        "runs.step.self_s": self_s("runs.step"),
        "runs.choices.calls": calls("runs.choices"),
        "runs.choices.self_s": self_s("runs.choices"),
        "runs.eval_contexts": rec.ectx_runs,
        "runs.snapshots_explored": stats.get("snapshots_explored", 0),
        "label.plan_calls": rec.plan_calls_other,
        "label.self_s": self_s("label"),
        "label.bits_computed": computed,
        "label.bits_shared": shared,
        "label.share_ratio": shared / (computed + shared) if computed + shared else 0.0,
        "lasso.calls": calls("lasso"),
        "lasso.self_s": self_s("lasso"),
        "lasso.valuations": stats.get("valuations_checked", 0),
        "kripke.build.self_s": self_s("kripke.build"),
        "kripke.states": states,
        "kripke.edges": edges,
        "ctl.check_s": self_s("ctl.check"),
        "enumerate.databases": stats.get("databases_checked", 0),
        "enumerate.sigmas": stats.get("sigmas_checked", 0),
        "enumerate.s": self_s("enumerate.databases", "enumerate.sigmas"),
        "pool.units": len(ev.get("unit.finish", [])),
        "pool.run_units_s": run_units,
        "pool.unit_busy_s": busy,
        "pool.overhead_s": run_units - busy / workers,
        "pool.efficiency": busy / (workers * run_units) if run_units else 0.0,
        "pool.retries": len(ev.get("unit.retry", [])),
        "pool.rebuilds": len(ev.get("pool.rebuilt", [])),
        "compile.plans_s": self_s("compile.plans"),
        "compile.buchi_s": self_s("compile.buchi"),
        "compile.dataflow_s": self_s("compile.dataflow"),
        "compile.plans": plans[0].get("n_plans", 0) if plans else 0,
        "engine.self_s": self_s("engine"),
        "layers.unaccounted_pct": 100.0 * (wall - accounted) / wall,
        "_open_spans": rec.open_spans(),
        "_layers": {k: round(v["self_s"], 6) for k, v in sorted(led.items())},
    }


COLD_ONLY = ("compile.plans_s", "compile.buchi_s", "compile.dataflow_s",
             "compile.plans")


def mode_trace(wl: W.Workload, args) -> dict:
    from layers import Recorder

    checker = Checker(wl)
    rec = Recorder()
    out_dir = Path(args.out_dir) if args.out_dir else None

    def traced_op():
        rec.reset()
        tracer = CollectingTracer()
        with rec.installed():
            elapsed, result, ok = _op(wl, checker, tracer=tracer)
        led = _op_ledger(rec, tracer, result, elapsed) if ok else None
        return elapsed, result, led

    _wall, cold_result, cold = traced_op()
    if out_dir is not None:
        rec.dump(out_dir / f"{wl.name}-{wl.seed}-cold.spans.jsonl")
    untraced: list[float] = []
    traced: list[float] = []
    ledgers: list[dict] = []
    loop_started = time.perf_counter()
    while time.perf_counter() - loop_started < args.seconds:
        elapsed, _result, _ok = _op(wl, checker)
        untraced.append(elapsed)
        elapsed, result, led = traced_op()
        traced.append(elapsed)
        if led is not None:
            ledgers.append(led)
    if out_dir is not None:
        rec.dump(out_dir / f"{wl.name}-{wl.seed}-warm.spans.jsonl")
    counters = W.counters(cold_result) if cold_result is not None else {}
    checker.companion()
    checker.parity(counters)

    metrics: dict = {}
    if cold is not None and ledgers:
        for key in ledgers[0]:
            if key.startswith("_"):
                continue
            values = [led[key] for led in ([cold] if key in COLD_ONLY else ledgers)]
            if all(isinstance(v, int) for v in values):
                metrics[key] = statistics.median_low(values)
            else:
                metrics[key] = statistics.median(values)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
    open_spans = sum(led["_open_spans"] for led in ledgers)
    if open_spans:
        checker.fail(f"{open_spans} spans never closed")
    worst = max((abs(led["layers.unaccounted_pct"]) for led in ledgers), default=0.0)
    if worst > RECONCILE_TOLERANCE_PCT:
        checker.fail(
            f"layer self times miss wall time by {worst:.2f}% "
            f"(tolerance {RECONCILE_TOLERANCE_PCT}%)"
        )
    return {
        "metrics": metrics,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "layers_self_s": ledgers[-1]["_layers"] if ledgers else {},
        "reconcile_tolerance_pct": RECONCILE_TOLERANCE_PCT,
        "counters": counters,
        "workers": wl.workers,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
    }


MODES = {"setup": mode_setup, "loop": mode_loop, "trace": mode_trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=sorted(MODES))
    ap.add_argument("--workload", required=True, choices=W.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args(argv)
    wl = W.build(args.workload, args.seed)
    record = MODES[args.mode](wl, args)
    record["pid"] = os.getpid()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
