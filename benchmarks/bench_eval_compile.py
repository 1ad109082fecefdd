"""E13 — compiled evaluation core: interpreted vs compiled throughput.

Measures the formula→plan compiler of :mod:`repro.fol.compile` on the
E12 registration workload, in two regimes:

- **evaluation phase** — every rule formula of every page, solved or
  checked against the evaluation context of each reachable snapshot
  (the inner loop of run-semantics and snapshot labelling).  This is
  the phase the compiler targets: plans are built once and re-run, so
  per-call analysis (variable resolution, guard-atom selection, join
  order) drops out of the loop.
- **end to end** — a full :func:`verify_ltlfo` call on the production
  path vs the interpreted reference engine of :mod:`repro.reference`
  (interpreted rule and property evaluation, valuation-at-a-time
  search).  Smaller ratio, honestly recorded: BFS bookkeeping and the
  product construction are unaffected by the evaluator.

E14 and E15 compare production against the two other reference pieces
(the valuation-at-a-time search, unpruned plans) the same way.

Run as a script to emit ``BENCH_compile.json``::

    PYTHONPATH=src:benchmarks python benchmarks/bench_eval_compile.py

Parity is asserted, not assumed: both regimes compare results between
the engines, and the record keeps the verdict/stats equality flags next
to the timings.  The traced run surfaces the ``plan.compiled`` phase
timing so the cost of compilation itself stays visible.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import deque
from pathlib import Path

import pytest

from repro.fol import (
    And,
    Atom,
    Not,
    Var,
    evaluate,
    evaluate_interpreted,
    evaluate_query,
    evaluate_query_interpreted,
)
from repro.fol.compile import clear_compile_cache
from repro.ltl import B, LTLFOSentence
from repro.obs import CollectingTracer
from repro.reference import reference_engine
from repro.service import RunContext, ServiceBuilder, initial_snapshots, successors
from repro.service.compiled import pruning_stats
from repro.verifier import verify_ltlfo

from workloads import (
    registration_database,
    registration_service,
    session_registration_database,
    session_registration_service,
)

EVAL_PHASE_REPS = 3
MAX_TIMED_SNAPSHOTS = 800
E14_SIGMA_BLOCK = 64
E14_DATABASES = ((4, 3), (5, 4))  # (domain_size, n_rows) ring databases


def _workload():
    """The E12 registration service (arity 2) and its safety property."""
    service = registration_service(2)
    variables = ("x0", "x1")
    terms = tuple(Var(v) for v in variables)
    prop = LTLFOSentence(
        variables,
        B(Atom("record", terms), Not(Atom("stored", terms))),
        name="stored only after recorded",
    )
    return service, prop


def _engine(service, reference=None):
    """Production when ``reference`` is None, else the scope of that
    ``(plans, search)`` reference engine (sequential runs only)."""
    if reference is None:
        return contextlib.nullcontext()
    return reference_engine(service, *reference)


def _reachable_snapshots(service, db):
    """All reachable snapshots of the (service, db) configuration graph."""
    ctx = RunContext(service, db)
    seen = set()
    queue = deque(initial_snapshots(ctx))
    while queue:
        snap = queue.popleft()
        if snap in seen:
            continue
        seen.add(snap)
        for nxt in successors(ctx, snap):
            if nxt not in seen:
                queue.append(nxt)
    ordered = [s for s in sorted(seen, key=repr) if not s.is_error]
    return ordered[:MAX_TIMED_SNAPSHOTS]


def _eval_phase(service, db, snaps, compiled: bool, reps: int = EVAL_PHASE_REPS):
    """Time every rule formula against every snapshot context.

    Returns (seconds, checksum) — the checksum (total solve-set sizes
    plus target-rule truth count) must be identical between engines.
    ``compiled=False`` runs the reference interpreter.
    """
    check = evaluate if compiled else evaluate_interpreted
    solve = evaluate_query if compiled else evaluate_query_interpreted
    clear_compile_cache()
    ctx = RunContext(service, db)
    ectxs = []
    for snap in snaps:
        page = service.page(snap.page)
        ectxs.append((page, ctx.make_eval_context(
            snap.state, snap.inputs, snap.prev, snap.actions,
            gamma=snap.provided_before, page=snap.page,
        )))
    started = time.perf_counter()
    checksum = 0
    for _ in range(reps):
        for page, ectx in ectxs:
            for rule in page.input_rules:
                checksum += len(solve(rule.formula, rule.variables, ectx))
            for rule in page.state_rules:
                checksum += len(solve(rule.formula, rule.variables, ectx))
            for rule in page.action_rules:
                checksum += len(solve(rule.formula, rule.variables, ectx))
            for rule in page.target_rules:
                checksum += check(rule.formula, ectx)
    return time.perf_counter() - started, checksum


def _e14_workload():
    """E14 — the extended E13 workload for the set-at-a-time engine.

    The session-registration service requests the input constant
    ``who`` on a once-visited CONFIRM page, so every database yields
    one sigma per candidate value (plus a fresh one), and the whole
    FORM/REVIEW phase of the snapshot graph is shared across the
    block.  The property closes over *three* variables — the valuation
    count grows cubically with the domain, which is the axis the
    bitset engine batches.
    """
    service = session_registration_service(2)
    terms = lambda *vs: tuple(Var(v) for v in vs)  # noqa: E731
    prop = LTLFOSentence(
        ("x0", "x1", "x2"),
        B(
            Atom("record", terms("x0", "x1")),
            Not(And(
                Atom("stored", terms("x0", "x1")),
                Atom("stored", terms("x1", "x2")),
            )),
        ),
        name="no chained store before its record",
    )
    databases = [
        session_registration_database(service, d, rows)
        for d, rows in E14_DATABASES
    ]
    return service, prop, databases


def _verify_e14(setwise_on: bool, sigma_block: int):
    """One timed E14 run: compiled plans, sigma blocking as given;
    ``setwise_on=False`` runs the valuation-at-a-time reference search."""
    service, prop, databases = _e14_workload()
    clear_compile_cache()
    reference = None if setwise_on else ("pruned", "valuations")
    with _engine(service, reference):
        started = time.perf_counter()
        result = verify_ltlfo(
            service, prop, databases=databases, workers=1,
            sigma_block=sigma_block,
        )
        return time.perf_counter() - started, result


E15_DEAD_RULES = 24
E15_DEAD_PAGES = 6


def _e15_workload():
    """E15 — a registration variant drowning in statically-dead work.

    ``ghost`` has no insertion rule, so every rule guarded by it is
    refuted once emptiness is substituted — but only by the dataflow
    analysis: plain constant folding keeps all of them, so the unpruned
    engine compiles and re-evaluates every dead plan on every snapshot,
    and the unpruned page set includes ``E15_DEAD_PAGES`` pages whose
    only incoming edges are ghost-guarded.
    """
    b = ServiceBuilder("e15-pruning")
    b.database("allowed", 1)
    b.input("record", 1)
    b.input("done")
    b.state("stored", 1)
    b.state("closed")
    b.state("ghost")  # never inserted: statically false
    b.action("ack", 1)

    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", "allowed(x)", ("x",))
    form.insert("stored", "record(x) & !closed", ("x",))
    form.insert("closed", "done")
    for _ in range(E15_DEAD_RULES):
        form.insert("closed", "ghost & done & !closed")
        form.act("ack", "ghost & record(x) & stored(x)", ("x",))
    form.target("REVIEW", "done")
    for i in range(E15_DEAD_PAGES):
        form.target(f"DEAD{i}", "ghost & !done")

    review = b.page("REVIEW")
    review.act("ack", "stored(x)", ("x",))
    review.toggle("done")
    for _ in range(E15_DEAD_RULES):
        review.insert("closed", "ghost & done & !closed")
    review.target("FORM", "done")

    for i in range(E15_DEAD_PAGES):
        dead = b.page(f"DEAD{i}")
        dead.toggle("done")
        dead.options("record", "allowed(x)", ("x",))
        dead.insert("stored", "record(x) & !closed", ("x",))
        dead.act("ack", "record(x) & stored(x)", ("x",))
        dead.target("FORM", "done")

    variables = ("x0",)
    prop = LTLFOSentence(
        variables,
        B(Atom("record", (Var("x0"),)), Not(Atom("stored", (Var("x0"),)))),
        name="stored only after recorded",
    )
    return b.build(), prop


def _verify_e15(pruned: bool):
    """One timed E15 run: compiled plans; ``pruned=False`` runs the
    unpruned reference plans."""
    service, prop = _e15_workload()
    clear_compile_cache()
    reference = None if pruned else ("unpruned", "setwise")
    with _engine(service, reference):
        started = time.perf_counter()
        result = verify_ltlfo(service, prop, domain_size=2, workers=1)
        elapsed = time.perf_counter() - started
        stats = pruning_stats(service)
        return elapsed, result, stats


def _verify(compiled: bool, tracer=None):
    """One timed E13 run; ``compiled=False`` runs the interpreted
    reference engine."""
    service, prop = _workload()
    clear_compile_cache()
    reference = None if compiled else ("interpreted", "valuations")
    with _engine(service, reference):
        started = time.perf_counter()
        result = verify_ltlfo(
            service, prop, domain_size=2, workers=1, tracer=tracer
        )
        return time.perf_counter() - started, result


def _comparable_stats(result) -> dict:
    # stats["config"] is run provenance, not work done; every other key
    # must match.
    return {k: v for k, v in sorted(result.stats.items()) if k != "config"}


def collect() -> dict:
    service, _ = _workload()
    db = registration_database(service, 2)
    snaps = _reachable_snapshots(service, db)

    # warm both engines, then measure
    _eval_phase(service, db, snaps, True, reps=1)
    _eval_phase(service, db, snaps, False, reps=1)
    interp_s, interp_sum = _eval_phase(service, db, snaps, False)
    compiled_s, compiled_sum = _eval_phase(service, db, snaps, True)

    e2e_interp_s, interp_res = _verify(False)
    e2e_compiled_s, compiled_res = _verify(True)
    traced_s, traced_res = _verify(True, tracer=CollectingTracer())

    record = {
        "benchmark": (
            "compiled evaluation core (registration arity 2, domain 2)"
        ),
        "snapshots_timed": len(snaps),
        "eval_phase_reps": EVAL_PHASE_REPS,
        "eval_phase_interpreted_s": round(interp_s, 4),
        "eval_phase_compiled_s": round(compiled_s, 4),
        "speedup_eval_phase": (
            round(interp_s / compiled_s, 3) if compiled_s > 0 else None
        ),
        "eval_phase_checksums_equal": interp_sum == compiled_sum,
        "end_to_end_interpreted_s": round(e2e_interp_s, 4),
        "end_to_end_compiled_s": round(e2e_compiled_s, 4),
        "speedup_end_to_end": (
            round(e2e_interp_s / e2e_compiled_s, 3)
            if e2e_compiled_s > 0 else None
        ),
        "verdicts_equal": interp_res.verdict == compiled_res.verdict,
        "stats_equal": (
            _comparable_stats(interp_res) == _comparable_stats(compiled_res)
        ),
        "verdict": interp_res.verdict.name,
        "phase_timings": traced_res.timings,
        "traced_end_to_end_s": round(traced_s, 4),
        "traced_verdict_equal": traced_res.verdict == interp_res.verdict,
    }

    # E14 — set-at-a-time engine vs the PR 5 baseline (compiled,
    # valuation-at-a-time, no sigma blocking) on the extended workload.
    base_s, base_res = _verify_e14(False, 1)
    set_s, set_res = _verify_e14(True, E14_SIGMA_BLOCK)
    record["set_at_a_time"] = {
        "benchmark": (
            "set-at-a-time bitset engine "
            "(session registration arity 2, ring databases "
            + ", ".join(f"{d}x{r}" for d, r in E14_DATABASES) + ")"
        ),
        "sigma_block": E14_SIGMA_BLOCK,
        "end_to_end_baseline_s": round(base_s, 4),
        "end_to_end_setwise_s": round(set_s, 4),
        "speedup_end_to_end": (
            round(base_s / set_s, 3) if set_s > 0 else None
        ),
        "verdict": base_res.verdict.name,
        "verdicts_equal": base_res.verdict == set_res.verdict,
        "witnesses_equal": (
            str(base_res.counterexample) == str(set_res.counterexample)
        ),
        "stats_equal": (
            _comparable_stats(base_res) == _comparable_stats(set_res)
        ),
        "sigmas_checked": base_res.stats.get("sigmas_checked"),
        "valuations_checked": base_res.stats.get("valuations_checked"),
    }

    # E15 — dataflow pruning vs the full compiled plan set on the
    # dead-rule-heavy workload.  Parity is the headline (bit-identical
    # verdicts and stats); the timing win is recorded honestly even
    # when modest — dead plans are cheap to evaluate, they are just
    # pure waste.
    full_s, full_res, _ = _verify_e15(False)
    pruned_s, pruned_res, (pruned_rules, pruned_pages) = _verify_e15(True)
    record["pruned"] = {
        "benchmark": (
            "dataflow-pruned plans "
            f"(registration + {2 * E15_DEAD_RULES + E15_DEAD_RULES} dead "
            f"rules + {E15_DEAD_PAGES} dead pages, domain 2)"
        ),
        "pruned_rules": pruned_rules,
        "pruned_pages": pruned_pages,
        "end_to_end_unpruned_s": round(full_s, 4),
        "end_to_end_pruned_s": round(pruned_s, 4),
        "speedup_end_to_end": (
            round(full_s / pruned_s, 3) if pruned_s > 0 else None
        ),
        "verdict": full_res.verdict.name,
        "verdicts_equal": full_res.verdict == pruned_res.verdict,
        "witnesses_equal": (
            str(full_res.counterexample) == str(pruned_res.counterexample)
        ),
        "stats_equal": (
            _comparable_stats(full_res) == _comparable_stats(pruned_res)
        ),
    }
    return record


def main() -> int:
    record = collect()
    out = Path(__file__).resolve().parent.parent / "BENCH_compile.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    setwise_rec = record["set_at_a_time"]
    pruned_rec = record["pruned"]
    ok = (
        record["eval_phase_checksums_equal"]
        and record["verdicts_equal"]
        and record["stats_equal"]
        and setwise_rec["verdicts_equal"]
        and setwise_rec["witnesses_equal"]
        and setwise_rec["stats_equal"]
        and pruned_rec["verdicts_equal"]
        and pruned_rec["witnesses_equal"]
        and pruned_rec["stats_equal"]
    )
    if not ok:
        print("PARITY CHECK FAILED: engines disagree")
        return 1
    return 0


# -- pytest smoke (runs in CI with --benchmark-disable) ---------------------

@pytest.mark.benchmark(group="E13 compiled evaluation")
@pytest.mark.parametrize("compiled", [False, True])
def test_eval_phase_sweep(benchmark, compiled):
    service, _ = _workload()
    db = registration_database(service, 2)
    snaps = _reachable_snapshots(service, db)[:100]
    _, ref = _eval_phase(service, db, snaps, False, reps=1)
    _, got = benchmark(
        lambda: _eval_phase(service, db, snaps, compiled, reps=1)
    )
    assert got == ref


def test_engines_agree_end_to_end():
    _, interp = _verify(False)
    _, compiled = _verify(True)
    assert interp.verdict == compiled.verdict
    assert _comparable_stats(interp) == _comparable_stats(compiled)


def test_setwise_agrees_end_to_end():
    _, base = _verify_e14(False, 1)
    _, batched = _verify_e14(True, E14_SIGMA_BLOCK)
    assert base.verdict == batched.verdict
    assert str(base.counterexample) == str(batched.counterexample)
    assert _comparable_stats(base) == _comparable_stats(batched)


def test_pruned_agrees_end_to_end():
    _, full, _ = _verify_e15(False)
    _, pruned, (pruned_rules, pruned_pages) = _verify_e15(True)
    assert pruned_rules > 0 and pruned_pages == E15_DEAD_PAGES
    assert full.verdict == pruned.verdict
    assert str(full.counterexample) == str(pruned.counterexample)
    assert _comparable_stats(full) == _comparable_stats(pruned)


if __name__ == "__main__":
    raise SystemExit(main())
