"""Reference engines for differential tests and benchmarks.

Production evaluates compiled, dataflow-pruned plans and searches
lassos set-at-a-time.  The engines that path replaced stay here, so
tests and ``benchmarks/`` can hold production to them:

- interpreted plans: page rules and property payloads evaluated by the
  FO interpreter (``evaluate_interpreted``/``evaluate_query_interpreted``),
  through plans shaped and ordered like ``CompiledPage``'s;
- unpruned plans: ``CompiledService(service, prune=False)``;
- the valuation-at-a-time lasso search (:func:`search_valuations`).

:func:`reference_engine` installs them by patching the running process,
which pool children never see, so a reference run is sequential: asking
it for more than one worker raises :class:`SequentialOnlyError`.  No
production module imports this one.
"""

from __future__ import annotations

import contextlib
import itertools
from types import SimpleNamespace

from repro.fol.evaluation import evaluate_interpreted, evaluate_query_interpreted
from repro.ltl.buchi import find_accepting_lasso
from repro.service import compiled as _compiled
from repro.verifier import engine as _engine
from repro.verifier import linear as _linear
from repro.verifier.parallel import resolve_workers

PLANS = ("interpreted", "unpruned", "pruned")
SEARCHES = ("valuations", "setwise")


class SequentialOnlyError(RuntimeError):
    """A reference run was asked to fan out to worker processes."""


class _Interpreted:
    """An interpreter-backed plan for one rule or property payload."""

    def __init__(self, formula, variables=()) -> None:
        self.formula = formula
        self.variables = tuple(variables)

    def solve(self, ctx, env=None) -> frozenset:
        return evaluate_query_interpreted(self.formula, self.variables, ctx, env)

    def check(self, ctx, env=None) -> bool:
        return evaluate_interpreted(self.formula, ctx, env)


def _interpreted_page(page) -> SimpleNamespace:
    def plan(rule):
        return _Interpreted(rule.formula, getattr(rule, "variables", ()))

    return SimpleNamespace(
        input_rules=tuple((r.input, plan(r)) for r in page.input_rules),
        state_updates=tuple(
            (name, tuple((r.insert, plan(r)) for r in page.state_rules if r.state == name))
            for name in sorted(page.updated_states())
        ),
        action_rules=tuple((r.action, plan(r)) for r in page.action_rules),
        target_rules=tuple((r.target, plan(r)) for r in page.target_rules),
    )


class InterpretedService:
    """Every page of a service as interpreter-backed plans."""

    pruned_rules, pruned_pages, n_plans = 0, 0, 0

    def __init__(self, service) -> None:
        self.pages = {n: _interpreted_page(p) for n, p in service.pages.items()}

    def page(self, name: str) -> SimpleNamespace:
        return self.pages[name]


def search_valuations(
    ba, starts, succ, labeller, names, valuation_domain, gov, stats, shared=None
):
    """Valuation-at-a-time lasso search; ``(lasso, valuation)`` or None.

    One product search per valuation of the universal closure, labels
    memoised per valuation.  ``shared`` is ignored, so this stands in for
    ``linear._search_valuations_setwise``.
    """
    for combo in itertools.product(valuation_domain, repeat=len(names)):
        gov.charge_valuation()
        stats["valuations_checked"] += 1
        valuation = dict(zip(names, combo))
        memo: dict = {}

        def label(snap, payload, _env=valuation, _memo=memo) -> bool:
            key = (id(payload), snap)
            value = _memo.get(key)
            if value is None:
                value = _memo[key] = labeller(snap, payload, _env)
            return value

        lasso = find_accepting_lasso(ba, starts, succ, label)
        if lasso is not None:
            return lasso, valuation
    return None


def _sequential_workers(workers):
    n = resolve_workers(workers)
    if n > 1:
        raise SequentialOnlyError(f"reference runs are in-process, got workers={n}")
    return n


@contextlib.contextmanager
def reference_engine(service, plans="interpreted", search="valuations"):
    """Verifications of ``service`` in this block use the given engines.

    ``plans`` is one of :data:`PLANS`, ``search`` one of
    :data:`SEARCHES`; the last of each is production's.  The bitset
    search needs compiled plans.  Runs in the block must be sequential.
    """
    if plans not in PLANS or search not in SEARCHES or (
        plans == "interpreted" and search == "setwise"
    ):
        raise ValueError(f"no reference engine {plans!r} x {search!r}")
    patches = [(_engine, "resolve_workers", _sequential_workers)]
    if plans != "pruned":
        # A private plan cache: clear_compile_cache() clears the
        # production cache, never the reference plans.
        installed = (
            InterpretedService(service) if plans == "interpreted"
            else _compiled.CompiledService(service, prune=False)
        )
        patches.append((_compiled, "_CACHE", {service: installed}))
    if plans == "interpreted":
        patches.append((_linear, "compile_formula", lambda f, scope=(): _Interpreted(f)))
    if search == "valuations":
        patches.append((_linear, "_search_valuations_setwise", search_valuations))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def verify_reference(verify, service, *args, plans="interpreted",
                     search="valuations", **options):
    """``verify(service, *args, **options)`` on the reference engines,
    with ``workers`` defaulting to 1 whatever ``REPRO_WORKERS`` says."""
    options.setdefault("workers", 1)
    with reference_engine(service, plans, search):
        return verify(service, *args, **options)
