"""Verification verdicts, counterexamples and refusals."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.service.runs import Run


class Verdict(enum.Enum):
    """Outcome of a verification task.

    ``INCONCLUSIVE`` is the graceful-degradation verdict: a resource
    budget (snapshots, databases, valuations, Kripke states, or the
    wall-clock deadline) ran out before the search space was exhausted.
    It is sound for violations — any counterexample found before
    exhaustion would have been reported as VIOLATED — but makes no claim
    about HOLDS over the unexplored remainder.
    """

    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"

    def __bool__(self) -> bool:
        return self is Verdict.HOLDS


class UndecidableInstanceError(Exception):
    """The (service, property) pair falls outside every decidable class.

    Carries the reasons (which syntactic restriction fails) and the
    theorem that proves undecidability for the failing extension, so the
    refusal is actionable.
    """

    def __init__(self, reasons: list[str], citation: str) -> None:
        self.reasons = reasons
        self.citation = citation
        summary = "\n  - ".join(reasons[:8])
        super().__init__(
            f"verification undecidable for this instance ({citation}):\n"
            f"  - {summary}"
        )


class VerificationBudgetExceeded(Exception):
    """The exploration exceeded a configured resource budget.

    Raised by the cooperative checks of
    :class:`~repro.verifier.budget.Budget` and by the low-level graph
    builders.  Carries the name of the exceeded ``limit``
    (``"max_snapshots"``, ``"timeout_s"``, ...), the partial ``stats``
    of the work already done, and — when a public entry point re-raises
    in strict mode — the resumable ``checkpoint``, so even strict-mode
    callers don't lose the completed prefix of the search.

    ``unit_progress`` is set when the strike hit a multi-sigma work unit
    after it finished some of its sigmas: ``(struck sigma index, stats
    of the finished sigmas, their cursors)``.  The unit runners book the
    finished sigmas as completed units, so an interrupted run reports
    the same stats and resume cursor whatever the unit size.
    """

    def __init__(
        self,
        message: str = "",
        *,
        limit: str = "",
        stats: dict[str, Any] | None = None,
        checkpoint: Any = None,
    ) -> None:
        super().__init__(message)
        self.limit = limit
        self.stats: dict[str, Any] = dict(stats or {})
        self.checkpoint = checkpoint
        self.unit_progress: tuple[int, dict, list] | None = None


@dataclass
class VerificationResult:
    """The result of one verification task.

    ``verdict`` says whether the property holds over the explored space;
    ``counterexample`` (when violated) is a concrete lasso run together
    with its database and input-constant values.  ``stats`` records the
    work done (databases tried, snapshots explored, Büchi sizes, ...)
    for the benchmark harness.  INCONCLUSIVE results additionally carry
    ``coverage`` — a one-line summary of how far the interrupted search
    got — and ``checkpoint``, a resumable
    :class:`~repro.verifier.budget.Checkpoint` cursor (None when the
    procedure has nothing to resume).

    ``procedure`` names the entry point that actually ran (e.g.
    ``"verify_ctl"``) — ``method`` is the human-readable theorem label,
    ``procedure`` the machine-checkable dispatch record, so a caller can
    tell when :func:`~repro.verifier.statics.verify` routed a fully
    propositional service through the Theorem 4.4 enumeration because
    ``databases=``/``domain_size=`` were given.  ``timings`` is the
    per-event-name phase-timing summary from :mod:`repro.obs` (empty
    with the default null tracer).  ``diagnostics`` carries the lint
    pre-flight findings (:class:`~repro.lint.diagnostics.Diagnostic`)
    when :func:`~repro.verifier.statics.verify` ran with
    ``lint="warn"``/``"strict"`` — empty with ``lint="off"`` or a clean
    spec.
    """

    verdict: Verdict
    property_name: str = ""
    method: str = ""
    counterexample: Run | None = None
    counterexample_database: Any = None
    stats: dict[str, Any] = field(default_factory=dict)
    coverage: str = ""
    checkpoint: Any = None
    procedure: str = ""
    timings: dict[str, Any] = field(default_factory=dict)
    diagnostics: list[Any] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS

    @property
    def inconclusive(self) -> bool:
        return self.verdict is Verdict.INCONCLUSIVE

    @property
    def quarantined_units(self) -> tuple[tuple[int, int], ...]:
        """Cursors of work units quarantined after exhausting retries.

        Non-empty only under the supervised engine when a unit kept
        failing (see :mod:`repro.verifier.parallel`); such units were
        never verified, so an otherwise-clean run reports INCONCLUSIVE
        with a checkpoint that retries them on resume.
        """
        return tuple(
            tuple(c) for c in self.stats.get("quarantined_units", ())
        )

    def __bool__(self) -> bool:
        return self.holds

    def describe(self, service=None) -> str:
        """Multi-line report suitable for printing."""
        lines = [
            f"property : {self.property_name or '(unnamed)'}",
            f"method   : {self.method}",
            f"verdict  : {self.verdict.value.upper()}",
        ]
        if self.procedure:
            lines.insert(2, f"procedure: {self.procedure}")
        if self.timings:
            lines.append(
                "timings  : " + ", ".join(
                    f"{name}×{agg['count']}={agg['total_s']:.3f}s"
                    for name, agg in self.timings.items()
                )
            )
        interesting = (
            "databases_checked", "sigmas_checked", "valuations_checked",
            "snapshots_explored", "buchi_states", "kripke_states",
            "interrupted_by", "interrupted_phase",
        )
        shown = {k: v for k, v in self.stats.items() if k in interesting}
        if shown:
            lines.append(
                "stats    : " + ", ".join(f"{k}={v}" for k, v in sorted(shown.items()))
            )
        if self.coverage:
            lines.append(f"coverage : {self.coverage}")
        if self.diagnostics:
            counts: dict[str, int] = {}
            for d in self.diagnostics:
                key = getattr(d.severity, "value", str(d.severity))
                counts[key] = counts.get(key, 0) + 1
            summary = ", ".join(
                f"{n} {sev}{'s' if n != 1 else ''}"
                for sev, n in counts.items()
            )
            lines.append(
                f"lint     : {summary} (see result.diagnostics, or run "
                "`repro lint`)"
            )
        if self.inconclusive:
            lines.append(
                "note     : budget exhausted before the search space — no "
                "violation found so far, no claim about the rest; resume "
                "from the checkpoint or raise the budget"
            )
        if self.counterexample is not None:
            lines.append("counterexample run:")
            lines.append(self.counterexample.describe())
            if self.counterexample_database is not None:
                lines.append(f"database: {self.counterexample_database!r}")
        return "\n".join(lines)
