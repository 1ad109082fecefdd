"""Seeded inputs and known answers for the benchmark workloads.

Every workload is one ``verify_*`` call on a service, a property and
(for the session workload) explicit databases.  The seed drives a
renaming of every schema symbol and page name and, for the session
workload, of the data values and the ring offset of its databases.  A
renaming is an isomorphism of the instance, so it keeps every verdict
and every work counter the same; the program only ever sees the
renamed inputs.

Known answers come from the specifications, not from the verifier:

- registration: ``stored`` is only inserted from the row being
  ``record``-ed, so "stored only after recorded" HOLDS; a user who
  records any allowed row and stays on FORM makes ``stored`` true, so
  ``G !stored(x0, x1)`` is VIOLATED;
- session registration: the same argument holds row by row, so "no
  chained store before its record" HOLDS; dropping the "before its
  record" guard (``G !(stored(x0, x1) & stored(x1, x2))``) is VIOLATED by
  recording two consecutive ring rows;
- propositional store (Example 4.3): every page has a back, clear or
  logout path home, so ``AG EF HP`` HOLDS; ``AG EF`` of a page the
  service does not have is VIOLATED at the root.
"""

from __future__ import annotations

import os
import random
import re
import string
from dataclasses import dataclass
from typing import Any, Callable

from repro.ctl import AG, EF, CAtom
from repro.demo.propositional import propositional_service
from repro.fol import And, Atom, Not, Var
from repro.io.json_format import service_from_dict, service_to_dict
from repro.ltl import B, G, LTLFOSentence
from repro.schema import Database
from repro.service import ServiceBuilder, WebService
from repro.verifier import verify_ctl, verify_ltlfo

#: Work counters that must repeat exactly (``stats["config"]`` is the
#: only stats key the repeat comparison drops).
COUNTERS = (
    "databases_checked",
    "sigmas_checked",
    "valuations_checked",
    "snapshots_explored",
    "kripke_states",
)

#: Ring databases of the session workload: (domain size, rows).
SESSION_RINGS = ((4, 3), (5, 4))

NAMES = (
    "ltl-session-sigmas",
    "ctl-propositional",
    "ltl-registration-pool",
)


@dataclass
class Workload:
    """One workload's inputs, built once per process.

    ``op`` is the timed call and must HOLD (every timed property holds).  ``companion`` is the
    untimed known-VIOLATED check; ``witness_ok`` tells whether its
    result carries a confirmed witness.
    """

    name: str
    seed: int
    workers: int
    op: Callable[..., Any]
    companion: Callable[[], Any]
    witness_ok: Callable[[Any], bool]
    reference: Callable[[], Any] | None = None


# -- seeded renaming ---------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _token(rng: random.Random, taken: set[str]) -> str:
    while True:
        tok = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        if tok not in taken:
            taken.add(tok)
            return tok


def _symbol_names(data: dict) -> list[str]:
    """Every relation, constant and page name of a service dict, except
    the error page (a reserved name)."""
    names: list[str] = []
    for part in data["schema"].values():
        names.extend(name for name, _arity in part["relations"])
        names.extend(part["constants"])
    names.extend(p["name"] for p in data["pages"])
    return [n for n in names if n != data["error_page"]]


def _substitute(value: Any, mapping: dict[str, str]) -> Any:
    if isinstance(value, str):
        return _IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)), value)
    if isinstance(value, list):
        return [_substitute(v, mapping) for v in value]
    if isinstance(value, dict):
        return {k: _substitute(v, mapping) for k, v in value.items()}
    return value


def rename_service(
    service: WebService, rng: random.Random
) -> tuple[WebService, dict[str, str]]:
    """An isomorphic copy of ``service`` with seeded symbol names.

    Each name gets a random four-letter prefix, so the sort order of
    symbols (which fixes enumeration order) changes with the seed too.
    """
    data = service_to_dict(service)
    taken: set[str] = set()
    mapping = {
        name: f"{_token(rng, taken)}_{name}" for name in _symbol_names(data)
    }
    renamed = {
        k: (v if k in ("format", "name") else _substitute(v, mapping))
        for k, v in data.items()
    }
    return service_from_dict(renamed, strict=True), mapping


# -- services ------------------------------------------------------------------

def registration_service() -> WebService:
    """The arity-2 registration service (EXPERIMENTS.md E12/E13).

    FORM offers ``record`` rows from the ``allowed`` relation and stores
    each one while the form is open; REVIEW acknowledges stored rows.
    """
    b = ServiceBuilder("registration-2")
    b.database("allowed", 2)
    b.input("record", 2)
    b.input("done")
    b.state("stored", 2)
    b.state("closed")
    b.action("ack", 2)
    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", "allowed(x0, x1)", ("x0", "x1"))
    form.insert("stored", "record(x0, x1) & !closed", ("x0", "x1"))
    form.insert("closed", "done")
    form.target("REVIEW", "done")
    review = b.page("REVIEW")
    review.act("ack", "stored(x0, x1)", ("x0", "x1"))
    review.toggle("done")
    review.target("FORM", "done")
    return b.build()


def session_registration_service() -> WebService:
    """Registration plus a once-visited CONFIRM page that requests the
    input constant ``who`` (EXPERIMENTS.md E14): one sigma per candidate
    value per database, all sharing the FORM/REVIEW snapshot graph."""
    b = ServiceBuilder("session-registration-2")
    b.database("allowed", 2)
    b.input("record", 2)
    b.input("done")
    b.state("stored", 2)
    b.state("closed")
    b.action("ack", 2)
    b.input_constant("who")
    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", "allowed(x0, x1)", ("x0", "x1"))
    form.insert("stored", "record(x0, x1) & !closed", ("x0", "x1"))
    form.insert("closed", "done")
    form.target("REVIEW", "done")
    review = b.page("REVIEW")
    review.act("ack", "stored(x0, x1)", ("x0", "x1"))
    review.toggle("done")
    review.target("CONFIRM", "done")
    confirm = b.page("CONFIRM")
    confirm.request("who")
    confirm.act("ack", "stored(x0, x1) & x0 = who", ("x0", "x1"))
    confirm.target("FINAL", "true")
    b.page("FINAL")
    return b.build()


def ring_database(
    service: WebService, relation: str, rng: random.Random,
    domain_size: int, n_rows: int,
) -> Database:
    """``n_rows`` consecutive pairs of a ``domain_size`` cycle, over
    seeded value names and starting at a seeded ring offset."""
    taken: set[str] = set()
    values = [f"{_token(rng, taken)}{i}" for i in range(domain_size)]
    offset = rng.randrange(domain_size)
    rows = [
        (values[(offset + i) % domain_size],
         values[(offset + i + 1) % domain_size])
        for i in range(n_rows)
    ]
    return Database(service.schema.database, {relation: rows})


def _terms(*names: str) -> tuple:
    return tuple(Var(n) for n in names)


def _ltl_witness_ok(result) -> bool:
    return (
        result.counterexample is not None
        and result.stats.get("counterexample_confirmed") is True
    )


def _ctl_witness_ok(result) -> bool:
    return (
        result.counterexample_database is not None
        and result.stats.get("violating_initial_states", 0) >= 1
    )


# -- workloads -----------------------------------------------------------------

def build(name: str, seed: int) -> Workload:
    """The seeded inputs of workload ``name``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "ltl-registration-pool":
        return _registration_pool(seed, rng)
    if name == "ltl-session-sigmas":
        return _session(seed, rng)
    if name == "ctl-propositional":
        return _propositional(seed, rng)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def _registration_pool(seed: int, rng: random.Random) -> Workload:
    service, m = rename_service(registration_service(), rng)
    # The program's pool: two workers, never more than the machine's cores.
    workers = min(2, os.cpu_count() or 1)
    xs = ("x0", "x1")
    prop = LTLFOSentence(
        xs,
        B(Atom(m["record"], _terms(*xs)), Not(Atom(m["stored"], _terms(*xs)))),
        name="stored only after recorded",
    )
    never = LTLFOSentence(
        xs, G(Not(Atom(m["stored"], _terms(*xs)))), name="never stored",
    )

    def run(workers=workers, **kw):
        return verify_ltlfo(service, prop, domain_size=2, workers=workers, **kw)

    return Workload(
        name="ltl-registration-pool", seed=seed, workers=workers, op=run,
        companion=lambda: verify_ltlfo(
            service, never, domain_size=2, workers=workers
        ),
        witness_ok=_ltl_witness_ok,
        reference=(lambda: run(workers=1)) if workers > 1 else None,
    )


def _session(seed: int, rng: random.Random) -> Workload:
    service, m = rename_service(session_registration_service(), rng)
    databases = [
        ring_database(service, m["allowed"], rng, d, rows)
        for d, rows in SESSION_RINGS
    ]
    chained = And(
        Atom(m["stored"], _terms("x0", "x1")),
        Atom(m["stored"], _terms("x1", "x2")),
    )
    xs = ("x0", "x1", "x2")
    prop = LTLFOSentence(
        xs, B(Atom(m["record"], _terms("x0", "x1")), Not(chained)),
        name="no chained store before its record",
    )
    mutated = LTLFOSentence(xs, G(Not(chained)), name="never a chained store")

    def run(**kw):
        return verify_ltlfo(service, prop, databases=databases, workers=1, **kw)

    return Workload(
        name="ltl-session-sigmas", seed=seed, workers=1, op=run,
        companion=lambda: verify_ltlfo(
            service, mutated, databases=databases, workers=1
        ),
        witness_ok=_ltl_witness_ok,
    )


def _propositional(seed: int, rng: random.Random) -> Workload:
    service, m = rename_service(propositional_service(), rng)
    home = CAtom(m["HP"])
    missing = f"{_token(rng, set())}_NOWHERE"
    if missing in service.pages:
        raise ValueError(f"renaming produced the reserved page {missing!r}")

    def run(**kw):
        return verify_ctl(service, AG(EF(home)), workers=1, **kw)

    return Workload(
        name="ctl-propositional", seed=seed, workers=1, op=run,
        companion=lambda: verify_ctl(
            service, AG(EF(CAtom(missing))), workers=1
        ),
        witness_ok=_ctl_witness_ok,
    )


def counters(result) -> dict:
    """The exact-repeat work counters present in ``result.stats``."""
    return {k: result.stats[k] for k in COUNTERS if k in result.stats}


def comparable_stats(result) -> dict:
    """``result.stats`` without exactly the ``config`` provenance block."""
    return {k: v for k, v in result.stats.items() if k != "config"}
