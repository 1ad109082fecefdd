"""ASM_IR transducers as simple Web services.

An ASM relational transducer (Abiteboul et al.'s relational transducers,
Spielmann's ASM variant) reacts to input relations with state updates
and output (action) relations, under control rules like a Web page's —
there are just no pages.  Definition A.8's *simple* Web services are
exactly this shape, and Lemmas A.9/A.10 move between the models:

- :func:`from_simple_service` — Lemma A.9: a simple input-bounded
  service *is* an ASM_IR transducer (constant-free, single page);
- :func:`web_service_to_transducer` — Lemma A.10 composed with A.9:
  reduce any (intended: error-free) input-bounded service to a simple
  one, then wrap it.

The transducer API exposes the ASM view: ``step(state, inputs)`` with
explicit relational inputs, plus run generation — all delegated to the
underlying run semantics so there is exactly one implementation of the
update rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.ltl.ltlfo import LTLFOSentence
from repro.schema.database import Database
from repro.schema.instances import Instance
from repro.service.classify import ServiceClass, classify
from repro.service.runs import (
    RunContext,
    Snapshot,
    UserChoice,
    _inputs_instance,
    deterministic_step,
)
from repro.service.simple import to_simple_service, transform_sentence
from repro.service.webservice import WebService

Value = Hashable


@dataclass
class TransducerState:
    """One ASM configuration: memory (state) and last inputs."""

    memory: Instance
    prev: Instance

    @staticmethod
    def initial() -> "TransducerState":
        return TransducerState(Instance.empty(), Instance.empty())


class ASMTransducer:
    """An ASM_IR transducer over a fixed database.

    Construct via :func:`from_simple_service` or
    :func:`web_service_to_transducer`.
    """

    def __init__(self, service: WebService) -> None:
        report = classify(service)
        if not report.is_in(ServiceClass.SIMPLE):
            raise ValueError(
                "an ASM transducer wraps a *simple* service; got: "
                + "; ".join(report.why_not(ServiceClass.SIMPLE))
            )
        self.service = service
        self.page = next(iter(service.pages.values()))

    # -- schema views ----------------------------------------------------

    @property
    def memory_schema(self):
        """The ASM memory relations (the service's state schema)."""
        return self.service.schema.state

    @property
    def input_schema(self):
        return self.service.schema.input

    @property
    def output_schema(self):
        """The ASM output relations (the service's action schema)."""
        return self.service.schema.action

    # -- semantics ----------------------------------------------------------

    def options(
        self, database: Database, state: TransducerState
    ) -> dict[str, frozenset]:
        """Input options in the given configuration (the ASM_IR
        restriction of arbitrary ASM inputs)."""
        from repro.service.runs import page_options

        ctx = RunContext(self.service, database)
        return page_options(
            ctx, self.page, state.memory, state.prev, frozenset()
        )

    def step(
        self,
        database: Database,
        state: TransducerState,
        inputs: Mapping[str, Iterable[tuple]] | Mapping[str, tuple],
    ) -> tuple[TransducerState, Instance]:
        """One ASM step: returns (next state, produced outputs).

        ``inputs`` maps input-relation names to the chosen tuple (at
        most one per relation, the bounded-input-flow discipline) —
        pass ``()`` for a chosen propositional input.
        """
        picks = {name: tuple(t) for name, t in inputs.items()}
        choice = UserChoice.of(picks=picks)
        snapshot = Snapshot(
            page=self.page.name,
            state=state.memory,
            inputs=_inputs_instance(self.service, choice),
            prev=state.prev,
            actions=Instance.empty(),
        )
        ctx = RunContext(self.service, database)
        step = deterministic_step(ctx, snapshot)
        if step.error:
            raise RuntimeError(
                "transducer step hit an error condition (simple services "
                "cannot err unless rules are malformed)"
            )
        return (
            TransducerState(step.next_state, step.next_prev),
            step.next_actions,
        )

    def run(
        self,
        database: Database,
        input_script: Iterable[Mapping[str, tuple]],
    ) -> list[tuple[TransducerState, Instance]]:
        """Feed a scripted input sequence; collect (state, outputs)."""
        trace: list[tuple[TransducerState, Instance]] = []
        state = TransducerState.initial()
        for inputs in input_script:
            state, outputs = self.step(database, state, inputs)
            trace.append((state, outputs))
        return trace


def from_simple_service(service: WebService) -> ASMTransducer:
    """Lemma A.9: a simple service, viewed as an ASM_IR transducer."""
    return ASMTransducer(service)


def web_service_to_transducer(
    service: WebService,
    sentence: LTLFOSentence | None = None,
) -> "tuple[ASMTransducer, LTLFOSentence | None]":
    """Lemma A.10 + A.9: reduce a (intended: error-free) input-bounded
    service to a transducer, translating the property alongside."""
    simple = to_simple_service(service)
    transducer = ASMTransducer(simple)
    translated = (
        transform_sentence(sentence, service) if sentence is not None else None
    )
    return transducer, translated
