"""An interactive simulator for one run of a Web service.

:class:`Session` plays the role of the user: it shows the current page
and its generated input options, accepts a choice (plus values for any
input constants the page requests), and advances the run according to
Definition 2.3.  The error conditions behave exactly as in verification —
a session that re-requests a constant or hits an ambiguous transition
lands on the error page and stays there.

>>> session = Session(service, database)
>>> session.page
'HP'
>>> session.options()["button"]
frozenset({('login',), ('register',), ('clear',)})
>>> session.submit(picks={"button": ("login",)},
...                constants={"name": "alice", "password": "pw1"})
'CP'
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.fol.evaluation import MissingInputConstantError
from repro.schema.database import Database
from repro.schema.instances import Instance
from repro.service.runs import (
    Run,
    RunContext,
    Snapshot,
    UserChoice,
    _inputs_instance,
    deterministic_step,
    error_snapshot,
    page_options,
)
from repro.service.webservice import WebService

Value = Hashable


class ChoiceError(Exception):
    """The submitted choice is not among the generated options."""


class Session:
    """Drive one run of a Web service interactively."""

    def __init__(
        self,
        service: WebService,
        database: Database,
        extra_domain: Iterable[Value] = (),
    ) -> None:
        self.service = service
        self._ctx = RunContext(service, database, sigma={}, extra_domain=extra_domain)
        home = service.page(service.home)
        self._page = home.name
        self._state = Instance.empty()
        self._prev = Instance.empty()
        self._actions = Instance.empty()
        self._provided_before: frozenset[str] = frozenset()
        self._pending_error = False
        self._at_error = False
        self._history: list[Snapshot] = []

    # -- inspection --------------------------------------------------------

    @property
    def page(self) -> str:
        """Name of the page the user currently sees."""
        return self.service.error_page if self._at_error else self._page

    @property
    def at_error_page(self) -> bool:
        """Whether the run has reached the absorbing error page."""
        return self._at_error

    @property
    def state(self) -> Instance:
        """The current state instance."""
        return self._state

    @property
    def provided_constants(self) -> dict[str, Value]:
        """Input-constant values provided so far."""
        return dict(self._ctx.sigma)

    def requested_constants(self) -> tuple[str, ...]:
        """Input constants the current page asks the user for."""
        if self._at_error:
            return ()
        return self.service.page(self._page).input_constants

    def options(self) -> dict[str, frozenset]:
        """Generated options for each arity>0 input relation of the page.

        Propositional inputs do not appear here — they are free
        true/false choices submitted via ``picks`` with the empty tuple.
        """
        if self._at_error:
            return {}
        page = self.service.page(self._page)
        gamma = self._provided_before | frozenset(page.input_constants)
        try:
            return page_options(self._ctx, page, self._state, self._prev, gamma)
        except MissingInputConstantError:
            # A constant the page does not request is read by an input
            # rule: options are undefined and the next step errors out.
            self._pending_error = True
            return {}

    # -- advancing -----------------------------------------------------------

    def submit(
        self,
        picks: Mapping[str, tuple] | None = None,
        constants: Mapping[str, Value] | None = None,
    ) -> str:
        """Submit the user's interaction and advance one step.

        ``picks`` maps input-relation names to the single chosen tuple
        (omit a relation to choose nothing; use ``()`` for a
        propositional input set to true).  ``constants`` provides values
        for the constants the page requests.  Returns the next page name.
        """
        if self._at_error:
            return self.service.error_page

        page = self.service.page(self._page)
        picks = dict(picks or {})
        constants = dict(constants or {})

        for input_name in picks:
            if input_name not in page.inputs:
                raise ChoiceError(
                    f"{input_name!r} is not an input of page {page.name}"
                )
        for const in constants:
            if const not in page.input_constants:
                raise ChoiceError(
                    f"page {page.name} does not request constant @{const}"
                )

        gamma = self._provided_before | frozenset(page.input_constants)
        if not self._pending_error:
            try:
                options = page_options(
                    self._ctx, page, self._state, self._prev, gamma
                )
            except MissingInputConstantError:
                options = {}
                self._pending_error = True
            else:
                for input_name, chosen in picks.items():
                    sym = self.service.schema.input[input_name]
                    if sym.arity > 0 and tuple(chosen) not in options.get(
                        input_name, frozenset()
                    ):
                        raise ChoiceError(
                            f"{tuple(chosen)!r} is not among the options of "
                            f"{input_name!r} on page {page.name}"
                        )

        # Provide the requested constants (the user supplies them now).
        for const in page.input_constants:
            if const in constants:
                self._ctx.sigma[const] = constants[const]

        choice = UserChoice.of(
            picks={k: tuple(v) for k, v in picks.items()},
            constants={c: self._ctx.sigma[c] for c in page.input_constants
                       if c in self._ctx.sigma},
        )
        snapshot = Snapshot(
            page=page.name,
            state=self._state,
            inputs=_inputs_instance(self.service, choice),
            prev=self._prev,
            actions=self._actions,
            provided_before=self._provided_before,
            pending_error=self._pending_error,
        )
        self._history.append(snapshot)

        if self._pending_error:
            self._enter_error()
            return self.page
        step = deterministic_step(self._ctx, snapshot)
        if step.error:
            self._enter_error()
            return self.page
        self._page = step.next_page
        self._state = step.next_state
        self._actions = step.next_actions
        self._prev = step.next_prev
        self._provided_before = step.gamma
        self._pending_error = False
        return self._page

    def _enter_error(self) -> None:
        self._at_error = True
        self._history.append(error_snapshot(self.service))

    def run(self) -> Run:
        """The run prefix played so far."""
        return Run(self._ctx.database, dict(self._ctx.sigma), list(self._history))

    def describe(self) -> str:
        """Human-readable rendering of the current page and options."""
        lines = [f"page: {self.page}"]
        if self._at_error:
            lines.append("  (error page — the run loops here forever)")
            return "\n".join(lines)
        reqs = self.requested_constants()
        if reqs:
            lines.append("  requests constants: " + ", ".join(f"@{c}" for c in reqs))
        for input_name, opts in sorted(self.options().items()):
            shown = ", ".join(str(t) for t in sorted(opts, key=repr)) or "(none)"
            lines.append(f"  {input_name}: {shown}")
        page = self.service.page(self._page)
        props = [
            name for name in page.inputs
            if self.service.schema.input[name].arity == 0
        ]
        if props:
            lines.append("  toggles: " + ", ".join(props))
        return "\n".join(lines)
