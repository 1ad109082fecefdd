"""Precompiled rule plans and hash-consing for one Web service.

A :class:`CompiledService` holds, for every page, the compiled
:class:`~repro.fol.compile.CompiledQuery` /
:class:`~repro.fol.compile.CompiledFormula` plans of its input-option,
state, action and target rules — compiled once per (service, process)
and shared by every :class:`~repro.service.runs.RunContext` over the
service, including one compilation per worker process in the parallel
backend (the service object is unpickled once per worker, so the
weak-keyed cache below makes "compile once per worker per TaskSpec"
automatic).

Rule order is preserved exactly (declaration order within a kind;
state rules grouped by sorted state name as in ``_updated_state``), so
evaluation order — and therefore the timing of
:class:`~repro.fol.evaluation.MissingInputConstantError`, error
condition (i) — is identical to the reference interpreter's.

**Static pruning** (always on): compilation consults the whole-service
dataflow facts of :mod:`repro.analysis.dataflow` and skips plans that
provably cannot influence any run — whole pages no executable path
enters, the state/action/target rules of pages that always fire error
condition (ii), and rules whose condition is refuted under the abstract
environment *and* reads no input constant (reading one is semantics:
error condition (i)).  Dropping a plan is observationally neutral by
construction: an absent rule's plan would have evaluated to false/empty
without raising, and a pruned page is never entered by verification
(:meth:`CompiledService.page` compiles it on demand).  The unpruned
plans (``prune=False``) are the test-only reference of
:mod:`repro.reference`.

:class:`SnapshotInterner` hash-conses the :class:`Instance`s and
:class:`Snapshot`s produced while exploring one run context: equal
configurations collapse to one object, so the BFS ``seen`` sets and
successor caches hash each distinct snapshot once (snapshots memoise
their hash) and equality checks usually short-circuit on identity.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.fol.compile import (
    CompiledFormula,
    CompiledQuery,
    compile_formula,
    compile_query,
    register_cache_clearer,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runs.py)
    from repro.service.webservice import WebService

__all__ = [
    "BlockLabelCache",
    "CompiledPage",
    "CompiledService",
    "SnapshotInterner",
    "compiled_service",
    "warm_service_plans",
    "pruning_stats",
]


class CompiledPage:
    """The compiled rule set of one page, in evaluation order.

    ``dead`` holds ``(kind, index)`` pairs of rules whose plans are
    skipped (dataflow pruning); indices refer to declaration order
    within the page's per-kind rule lists.  Skipping keeps relative
    order of surviving plans — and, for input rules, leaves the options
    key absent, which ``enumerate_choices`` reads as the empty set the
    dead plan would have produced.
    """

    __slots__ = (
        "name", "input_rules", "state_updates", "action_rules", "target_rules",
        "pruned_rules",
    )

    def __init__(
        self, page, dead: frozenset[tuple[str, int]] = frozenset()
    ) -> None:
        self.name: str = page.name
        self.pruned_rules: int = 0

        def keep(kind: str, index: int) -> bool:
            if (kind, index) in dead:
                self.pruned_rules += 1
                return False
            return True

        # Rule formulas are evaluated with an empty environment, so every
        # plan below is compiled against the empty scope.
        self.input_rules: tuple[tuple[str, CompiledQuery], ...] = tuple(
            (rule.input, compile_query(rule.formula, rule.variables))
            for i, rule in enumerate(page.input_rules)
            if keep("input", i)
        )
        # Grouped exactly as _updated_state walks them: state names in
        # sorted order, each state's rules in declaration order.  A
        # group emptied by pruning keeps its key: _updated_state then
        # computes new = (old - ∅) ∪ ∅ = old, same as not running it.
        by_state: dict[str, list] = {}
        for i, rule in enumerate(page.state_rules):
            if keep("state", i):
                by_state.setdefault(rule.state, []).append(
                    (rule.insert, compile_query(rule.formula, rule.variables))
                )
        self.state_updates: tuple = tuple(
            (state_name, tuple(by_state.get(state_name, ())))
            for state_name in sorted(page.updated_states())
        )
        self.action_rules: tuple[tuple[str, CompiledQuery], ...] = tuple(
            (rule.action, compile_query(rule.formula, rule.variables))
            for i, rule in enumerate(page.action_rules)
            if keep("action", i)
        )
        self.target_rules: tuple[tuple[str, CompiledFormula], ...] = tuple(
            (rule.target, compile_formula(rule.formula))
            for i, rule in enumerate(page.target_rules)
            if keep("target", i)
        )

    @property
    def n_plans(self) -> int:
        return (
            len(self.input_rules)
            + sum(len(plans) for _, plans in self.state_updates)
            + len(self.action_rules)
            + len(self.target_rules)
        )


class CompiledService:
    """All rule plans of a service, keyed by page name.

    With ``prune=True`` the dataflow facts of
    :mod:`repro.analysis.dataflow` drop pages no executable path
    enters and rules that provably never fire; ``pruned_rules`` /
    ``pruned_pages`` count what was skipped (0/0 without pruning or
    when the analysis found nothing to drop).
    """

    __slots__ = ("service", "pages", "n_plans", "pruned_rules", "pruned_pages")

    def __init__(self, service: "WebService", prune: bool = False) -> None:
        self.service = service
        self.pruned_rules: int = 0
        self.pruned_pages: int = 0
        dead_pages: frozenset[str] = frozenset()
        dead_by_page: dict[str, set[tuple[str, int]]] = {}
        if prune:
            # lazy import: the analysis layer must not be a hard
            # dependency of plain (unpruned) compilation
            from repro.analysis.dataflow import static_facts

            facts = static_facts(service)
            dead_pages = facts.dead_pages
            for page_name, kind, index in facts.prunable_keys():
                dead_by_page.setdefault(page_name, set()).add((kind, index))
        self.pages: dict[str, CompiledPage] = {}
        for name, page in service.pages.items():
            if name in dead_pages:
                self.pruned_pages += 1
                self.pruned_rules += (
                    len(page.input_rules) + len(page.state_rules)
                    + len(page.action_rules) + len(page.target_rules)
                )
                continue
            compiled = CompiledPage(
                page, frozenset(dead_by_page.get(name, ()))
            )
            self.pruned_rules += compiled.pruned_rules
            self.pages[name] = compiled
        self.n_plans: int = sum(p.n_plans for p in self.pages.values())

    def page(self, name: str) -> CompiledPage:
        """The plans of page ``name``; a page pruned as unreachable is
        compiled in full on first access (verification never enters
        one, an interactive session may)."""
        compiled = self.pages.get(name)
        if compiled is None:
            compiled = CompiledPage(self.service.pages[name])
            self.pages[name] = compiled
        return compiled


# One compiled form per live service object per process.  Weak keys:
# a discarded service drops its plans with it.
_CACHE: "weakref.WeakKeyDictionary[WebService, CompiledService]" = (
    weakref.WeakKeyDictionary()
)

# clear_compile_cache() must invalidate this layer too: a live service
# object otherwise keeps serving CompiledPage plans built before the
# clear, defeating the clear entirely.
register_cache_clearer(_CACHE.clear)


def compiled_service(service: "WebService") -> CompiledService:
    """The cached, dataflow-pruned compiled form of ``service``."""
    compiled = _CACHE.get(service)
    if compiled is None:
        compiled = CompiledService(service, prune=True)
        _CACHE[service] = compiled
    return compiled


def warm_service_plans(service: "WebService") -> int:
    """Ensure the service's plans exist; the number of plans.

    Called by the verification entry points (next to the Büchi/Kripke
    construction, under the ``plan.compiled`` trace event) and by the
    parallel backend's worker initialiser, so units never pay compile
    time.
    """
    return compiled_service(service).n_plans


def pruning_stats(service: "WebService") -> tuple[int, int]:
    """``(pruned_rules, pruned_pages)`` of the service's cached plans.

    (0, 0) when pruning dropped nothing; feeds the ``plan.pruned``
    trace event at the verification entry points.
    """
    compiled = compiled_service(service)
    return (compiled.pruned_rules, compiled.pruned_pages)


class BlockLabelCache:
    """Label bitsets shared across the sigmas of one work-unit block.

    Keyed by ``(payload, snapshot, gamma-scoped sigma, block layout)`` —
    everything a label bitset's value depends on.  Two sigmas of the
    same database frequently agree on the constants a payload's page
    actually reads (its gamma) and enumerate the same valuation domain,
    in which case their label bitsets are *identical* and the second
    sigma's labelling is a dictionary hit.  ``SnapshotInterner`` makes
    the snapshot component of the key cheap: interned snapshots hash
    once and usually compare by identity.
    """

    __slots__ = ("bits",)

    def __init__(self) -> None:
        self.bits: dict = {}


class SnapshotInterner:
    """Hash-consing for the instances and snapshots of one exploration.

    Besides the canonical representatives it keeps the run-semantics
    memos that are pure functions of their keys: ``choices`` maps a
    (page, provided constants, input options) key to that page's user
    choices, ``inputs`` maps a choice's picks to its interned input
    instance, ``expansions`` maps a configuration (next page, state,
    prev, actions, ``Γ_i``, scoped sigma) to its interned next
    snapshots, and ``prevs`` maps (page name, interned inputs) to the
    interned ``prev`` instance.  Everything lives and dies with one
    verification's interner, never process-wide.

    The memo keys leave out the database and the extra domain, so one
    interner serves exactly one ``(service, database, extra_domain)``:
    :meth:`bind` pins the first triple and refuses any other.
    """

    __slots__ = (
        "_snapshots", "_instances", "choices", "inputs", "expansions",
        "prevs", "_owner",
    )

    def __init__(self) -> None:
        self._snapshots: dict = {}
        self._instances: dict = {}
        self.choices: dict = {}
        self.inputs: dict = {}
        self.expansions: dict = {}
        self.prevs: dict = {}
        self._owner: tuple | None = None

    def bind(self, service, database, extra_domain: frozenset) -> None:
        """Pin this interner to one ``(service, database, extra_domain)``.

        Raises :class:`ValueError` when a different triple was bound
        first: its memoised expansions would be wrong for this one.
        """
        owner = self._owner
        if owner is None:
            self._owner = (service, database, extra_domain)
            return
        for have, want in zip(owner, (service, database, extra_domain)):
            if have is not want and have != want:
                raise ValueError(
                    "a SnapshotInterner serves one (service, database, "
                    "extra_domain); this run context differs from the "
                    "one it is bound to"
                )

    def snapshot(self, snap):
        """The canonical representative of ``snap``."""
        return self._snapshots.setdefault(snap, snap)

    def instance(self, inst):
        """The canonical representative of ``inst``."""
        return self._instances.setdefault(inst, inst)

    def __len__(self) -> int:
        return len(self._snapshots) + len(self._instances)
