"""The run engine: one option table, one config, one driver pipeline.

Every decision procedure in the paper — Theorem 3.5 (linear), 4.4
(branching), 4.6 (fully propositional), 4.9 (input-driven search) and
the error-freeness check — is the *same* pipeline: resolve options,
compile plans, stream ``(database, sigma)`` work units under a budget
governor, run them supervised, fold the outcomes into a verdict.  This
module is that pipeline, factored once:

- :data:`OPTION_TABLE` — the single source of truth for every option
  any entry point accepts: which procedures take it, its default, its
  wire (JSON) types, its generated CLI flag, the ``REPRO_*`` variable
  that backs it, and whether the front ends fold it into a
  :class:`~repro.verifier.budget.Budget`.  ``repro.cli`` and
  ``repro.server.app`` generate their argparse flags and wire schema
  from this table, so the three front doors can never drift apart.
- :class:`RunConfig` — a frozen snapshot of one verification call's
  options.  :meth:`RunConfig.build` is where direct kwargs are
  validated (unknown or procedure-unsupported options raise the coded
  :class:`RunConfigError`, never a bare ``TypeError`` with no key
  path); :meth:`RunConfig.from_env` additionally resolves every
  ``REPRO_*``-backed option up front.
- :class:`Procedure` — the strategy protocol each entry point
  implements: what to enumerate, what to precompile, how to seed the
  stats dict, and how to fold a violation.  Everything else — worker
  and tracer resolution, budget wiring, candidate-database
  enumeration, plan warming, :class:`~repro.verifier.parallel.UnitStream`
  construction, :class:`~repro.verifier.parallel.Supervisor` setup,
  checkpointing, verdict folding — lives in :func:`run_procedure` and
  is written exactly once.

The resolution order is **kwargs > CLI/wire > env > defaults**: the
CLI and the server translate their inputs into plain kwargs (via this
module's shared table), the driver consults the ``REPRO_*`` variables
only for options still unset, and the table's defaults fill the rest.
The values that actually governed a run are recorded in
``result.stats["config"]`` for provenance.

ROADMAP item 3 (work-stealing scheduler) plugs in at exactly one seam:
the :func:`~repro.verifier.parallel.run_units` call inside
:func:`run_procedure` — swap the backend there and every entry point,
the CLI and the server inherit it.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import (
    Any, Callable, Hashable, Iterable, Iterator, Mapping, MutableMapping,
)

from repro.obs import Tracer, finalize_result, resolve_tracer
from repro.schema.database import Database
from repro.schema.enumerate import canonical_domain, enumerate_databases
from repro.service.compiled import pruning_stats, warm_service_plans
from repro.service.webservice import WebService
from repro.verifier.budget import Budget, Checkpoint, degrade
from repro.verifier.parallel import (
    Supervisor,
    TaskSpec,
    UnitStream,
    _env_number,
    apply_quarantine,
    frontier_checkpoint,
    merge_unit_stats,
    resolve_sigma_block,
    resolve_workers,
    run_units,
)
from repro.verifier.results import (
    Verdict,
    VerificationResult,
)

Value = Hashable

#: Default cap on the number of anonymous database elements.
DEFAULT_DOMAIN_CAP = 3

#: Default cap on explored snapshots per (database, sigma) pair.
DEFAULT_SNAPSHOT_BUDGET = 200_000

#: Default cap on Kripke states per structure.
DEFAULT_KRIPKE_BUDGET = 100_000


# ---------------------------------------------------------------------------
# the option table
# ---------------------------------------------------------------------------

#: entry-point names, used as the ``procedures`` members of the table
LTL = "verify_ltlfo"
CTL = "verify_ctl"
FP = "verify_fully_propositional"
IDS = "verify_input_driven_search"
EF = "verify_error_free"

ALL_PROCEDURES = frozenset({LTL, CTL, FP, IDS, EF})
_ENUMERATING = ALL_PROCEDURES - {FP}


@dataclasses.dataclass(frozen=True)
class OptionSpec:
    """One row of :data:`OPTION_TABLE`.

    ``procedures`` is the set of entry points accepting the option as a
    keyword (empty for front-end-only options like ``lint``);
    ``wire`` lists the JSON types the server accepts for it (None: not
    wire-exposed); ``cli`` holds ``argparse.add_argument`` keyword
    arguments for the generated ``repro verify`` flag (None: the CLI
    either has a hand-written flag — ``--db``, ``--resume``,
    ``--checkpoint``, ``--trace`` — or no flag at all); ``env`` names
    the ``REPRO_*`` variable consulted when the option is unset;
    ``budget`` marks options the CLI and server fold into one
    ``budget=`` governor via :func:`fold_budget`.
    """

    procedures: frozenset[str]
    default: Any = None
    wire: tuple[type, ...] | None = None
    cli: Mapping[str, Any] | None = None
    env: str | None = None
    budget: bool = False


OPTION_TABLE: dict[str, OptionSpec] = {
    "databases": OptionSpec(_ENUMERATING),
    "domain_size": OptionSpec(
        _ENUMERATING,
        wire=(int,),
        cli={"flag": "--domain-size", "type": int,
             "help": "anonymous-domain size for the enumeration"},
    ),
    "check_restrictions": OptionSpec(ALL_PROCEDURES - {EF}, default=True),
    "up_to_iso": OptionSpec(frozenset({LTL}), default=True, wire=(bool,)),
    "max_snapshots": OptionSpec(
        frozenset({LTL, EF}),
        default=DEFAULT_SNAPSHOT_BUDGET,
        wire=(int,),
        cli={"flag": "--max-snapshots", "type": int,
             "help": "cap on snapshots per (database, sigma) pair / "
                     "states per Kripke structure"},
        budget=True,
    ),
    "max_states": OptionSpec(
        frozenset({CTL, FP, IDS}), default=DEFAULT_KRIPKE_BUDGET
    ),
    "max_databases": OptionSpec(
        frozenset(),  # budget-only: folded into Budget(max_databases=)
        wire=(int,),
        cli={"flag": "--max-databases", "type": int,
             "help": "cap on candidate databases examined"},
        budget=True,
    ),
    "confirm_counterexamples": OptionSpec(
        frozenset({LTL}), default=True, wire=(bool,)
    ),
    "on_database": OptionSpec(frozenset({LTL})),
    "sigmas": OptionSpec(frozenset({LTL, EF})),
    "budget": OptionSpec(ALL_PROCEDURES),
    "timeout_s": OptionSpec(
        ALL_PROCEDURES,
        wire=(int, float),
        cli={"flag": "--timeout-s", "type": float,
             "help": "wall-clock deadline in seconds"},
        budget=True,
    ),
    "strict": OptionSpec(
        ALL_PROCEDURES,
        default=False,
        wire=(bool,),
        cli={"flag": "--strict", "action": "store_true",
             "help": "raise on a blown budget (exit 4) instead of "
                     "returning INCONCLUSIVE (exit 5)"},
        budget=True,
    ),
    "resume": OptionSpec(_ENUMERATING),
    "workers": OptionSpec(
        ALL_PROCEDURES,
        wire=(int,),
        cli={"flag": "--workers", "type": int,
             "help": "worker processes for the (database, sigma) "
                     "enumeration (default: $REPRO_WORKERS or 1); "
                     "verdicts are deterministic regardless of N"},
        env="REPRO_WORKERS",
    ),
    "sigma_block": OptionSpec(
        frozenset({LTL}), wire=(int,), env="REPRO_SIGMA_BLOCK"
    ),
    "tracer": OptionSpec(ALL_PROCEDURES, env="REPRO_TRACE"),
    "retry": OptionSpec(
        ALL_PROCEDURES,
        wire=(int,),
        cli={"flag": "--retry", "type": int, "metavar": "N",
             "help": "retry a failed work unit up to N times with "
                     "exponential backoff before quarantining it "
                     "(default: $REPRO_RETRY or 2)"},
        env="REPRO_RETRY",
    ),
    "unit_timeout_s": OptionSpec(
        ALL_PROCEDURES,
        wire=(int, float),
        cli={"flag": "--unit-timeout-s", "type": float, "metavar": "S",
             "dest": "unit_timeout_s",
             "help": "wall-clock allowance per work unit under "
                     "--workers: a hung unit is killed with its pool "
                     "and retried (default: $REPRO_UNIT_TIMEOUT_S "
                     "or off)"},
        env="REPRO_UNIT_TIMEOUT_S",
    ),
    "faults": OptionSpec(
        ALL_PROCEDURES,
        cli={"flag": "--faults", "metavar": "PLAN",
             "help": "deterministic fault-injection plan for testing "
                     "the fault-tolerance paths: inline JSON or "
                     "@path/to/plan.json (default: $REPRO_FAULTS)"},
        env="REPRO_FAULTS",
    ),
    "checkpoint_path": OptionSpec(_ENUMERATING),
    "checkpoint_every": OptionSpec(
        _ENUMERATING,
        wire=(int,),
        cli={"flag": "--checkpoint-every", "type": int, "metavar": "N",
             "dest": "checkpoint_every",
             "help": "with --checkpoint: atomically rewrite the "
                     "checkpoint every N completed work units, so a "
                     "kill at any moment loses at most N units "
                     "(default: $REPRO_CHECKPOINT_EVERY or off)"},
        env="REPRO_CHECKPOINT_EVERY",
    ),
    "buchi_cache": OptionSpec(frozenset({LTL})),
    "method": OptionSpec(frozenset({EF}), default="direct"),
    "lint": OptionSpec(
        frozenset(),  # popped by lint_preflight before any dispatch
        default="warn",
        wire=(str,),
        cli={"flag": "--lint", "choices": ("warn", "strict", "off"),
             "default": "warn",
             "help": "static pre-flight: warn attaches findings to the "
                     "result (default), strict refuses on lint errors "
                     "(exit 6) before any enumeration, off skips it"},
    ),
}

#: options every entry point takes as a keyword (⊆ RunConfig fields)
CONFIG_FIELDS = tuple(
    name for name, spec in OPTION_TABLE.items() if spec.procedures
)


def accepted_options(procedure: str) -> frozenset[str]:
    """The option names ``procedure`` accepts as keyword arguments."""
    return frozenset(
        name for name, spec in OPTION_TABLE.items()
        if procedure in spec.procedures
    )


def wire_options() -> dict[str, tuple[type, ...]]:
    """``option name -> accepted JSON types`` for the server's schema."""
    return {
        name: spec.wire
        for name, spec in OPTION_TABLE.items()
        if spec.wire is not None
    }


def budget_options() -> frozenset[str]:
    """The options the front ends fold into one ``budget=`` governor."""
    return frozenset(
        name for name, spec in OPTION_TABLE.items() if spec.budget
    )


def add_cli_option(parser, name: str) -> None:
    """Add the generated ``repro verify`` flag for one table row."""
    spec = OPTION_TABLE[name]
    if spec.cli is None:
        raise ValueError(f"option {name!r} has no generated CLI flag")
    kwargs = dict(spec.cli)
    flag = kwargs.pop("flag")
    parser.add_argument(flag, **kwargs)


def fold_budget(options: dict[str, Any], *, always: bool) -> dict[str, Any]:
    """Replace the budget-shaped options with one ``budget=`` governor.

    The CLI always builds a governor (``always=True``: its defaulted
    ``--max-*`` flags must win over the procedures' own defaults); the
    server builds one only when the payload actually named a budget
    option (``always=False``).  The remaining keys forward to the
    dispatched procedure, which raises :class:`RunConfigError` for any
    it does not accept — nothing is silently dropped.
    """
    if not always and not (budget_options() & options.keys()):
        return options
    max_snapshots = options.pop("max_snapshots", None)
    options["budget"] = Budget(
        max_snapshots=(max_snapshots if max_snapshots is not None
                       else DEFAULT_SNAPSHOT_BUDGET),
        max_states=(max_snapshots if max_snapshots is not None
                    else DEFAULT_KRIPKE_BUDGET),
        max_databases=options.pop("max_databases", None),
        timeout_s=options.pop("timeout_s", None),
        strict=options.pop("strict", False),
    )
    return options


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

class RunConfigError(TypeError):
    """A coded option-validation error with a stable key path.

    ``code`` is one of:

    - ``"unknown-option"`` — a key no entry point accepts (typo);
    - ``"unsupported-option"`` — a real option this procedure does not
      take (e.g. ``resume=`` on the fully propositional fast path).

    ``keys`` names every offending option.  The class subclasses
    ``TypeError`` so pre-engine callers (the CLI's usage-error ladder,
    the server's ``bad-option`` mapping) keep working unchanged.
    """

    def __init__(self, message: str, *, code: str, keys: Iterable[str] = ()):
        super().__init__(message)
        self.code = code
        self.keys = tuple(keys)


#: appended to RunConfigErrors raised on the Theorem 4.6 fast path,
#: which verify() selects automatically for fully propositional
#: services — the caller may have wanted the enumeration instead.
FP_HINT = (
    "Pass databases= or domain_size= to request the Theorem 4.4 "
    "enumeration instead, or drop the option(s)."
)


def _bad_options(
    procedure: str, keys: Iterable[str], hint: str | None
) -> RunConfigError:
    keys = sorted(keys)
    unknown = [k for k in keys if k not in OPTION_TABLE]
    if unknown:
        code = "unknown-option"
        message = (
            f"{procedure}() got unexpected option(s): {', '.join(keys)}."
        )
    else:
        code = "unsupported-option"
        message = (
            f"{procedure}() does not accept: {', '.join(keys)}."
        )
    if hint:
        message = f"{message}  {hint}"
    return RunConfigError(message, code=code, keys=keys)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Frozen snapshot of one verification call's resolved options.

    One field per :data:`OPTION_TABLE` row with a non-empty procedure
    set, in table order.  Instances come from :meth:`build` (direct
    kwargs — the entry-point wrappers), from plain construction, or
    from :meth:`from_env` (kwargs with the ``REPRO_*`` fallbacks
    resolved eagerly).  The driver records the values that actually
    governed the run in ``result.stats["config"]``.
    """

    databases: Iterable[Database] | None = None
    domain_size: int | None = None
    check_restrictions: bool = True
    up_to_iso: bool = True
    max_snapshots: int = DEFAULT_SNAPSHOT_BUDGET
    max_states: int = DEFAULT_KRIPKE_BUDGET
    confirm_counterexamples: bool = True
    on_database: Callable[[Database], None] | None = None
    sigmas: Iterable[Mapping[str, Value]] | None = None
    budget: Budget | None = None
    timeout_s: float | None = None
    strict: bool = False
    resume: Checkpoint | None = None
    workers: int | None = None
    sigma_block: int | None = None
    tracer: Tracer | None = None
    retry: int | None = None
    unit_timeout_s: float | None = None
    faults: Any = None
    checkpoint_path: str | None = None
    checkpoint_every: int | None = None
    buchi_cache: MutableMapping | None = None
    method: str = "direct"

    @classmethod
    def build(
        cls,
        procedure: str,
        named: Mapping[str, Any],
        extra: Mapping[str, Any] | None = None,
        hint: str | None = None,
    ) -> "RunConfig":
        """Validate and freeze one entry point's keyword arguments.

        ``named`` holds the options the procedure's signature accepts
        (by construction a subset of the config fields); ``extra`` is
        the wrapper's ``**unsupported`` catch-all — any key there is an
        error, classified against the table as unknown vs unsupported.
        """
        if extra:
            raise _bad_options(procedure, extra, hint)
        return cls(**named)

    @classmethod
    def from_env(cls, **options: Any) -> "RunConfig":
        """A config with every ``REPRO_*``-backed option resolved now.

        The driver consults the same environment variables lazily (only
        for options still unset), so a plain ``RunConfig`` behaves
        identically; this constructor exists for callers that want the
        environment snapshot to be explicit and recorded — the values
        land in the frozen config instead of being re-read at run time.
        """
        if options.get("workers") is None:
            options["workers"] = resolve_workers(None)
        if options.get("sigma_block") is None:
            options["sigma_block"] = resolve_sigma_block(None)
        if options.get("retry") is None:
            options["retry"] = _env_number("REPRO_RETRY", int, 0)
        if options.get("unit_timeout_s") is None:
            options["unit_timeout_s"] = _env_number(
                "REPRO_UNIT_TIMEOUT_S", float, 0.0
            )
        if options.get("checkpoint_every") is None:
            options["checkpoint_every"] = _env_number(
                "REPRO_CHECKPOINT_EVERY", int, 1
            )
        if options.get("faults") is None:
            options["faults"] = os.environ.get("REPRO_FAULTS") or None
        if options.get("tracer") is None:
            options["tracer"] = resolve_tracer(None)
        return cls(**options)


# ---------------------------------------------------------------------------
# small-model enumeration helpers (shared by every enumerating procedure)
# ---------------------------------------------------------------------------

def default_domain_size(
    service: WebService,
    sentence=None,
    cap: int = DEFAULT_DOMAIN_CAP,
) -> int:
    """Anonymous-domain size heuristic from the small-model argument.

    The Local Run Lemma's constant set consists of the database constants
    and one witness per existentially quantified variable of the negated
    property (= the universal-closure variables); one extra element
    separates "everything else".
    """
    n_vars = len(sentence.variables) if sentence is not None else 0
    n_consts = len(service.schema.database.constants)
    return max(1, min(cap, n_consts + n_vars + 1))


def fresh_value_pool(
    database: Database, count: int, prefix: str = "$new"
) -> tuple[list[str], str]:
    """``count`` fresh values guaranteed disjoint from the database domain.

    The fresh values stand for user-typed inputs outside the database;
    they are recognised later by string prefix, so the prefix must not
    collide with any genuine domain value (a domain value that *starts
    with* the prefix would be misclassified as fresh, collapsing
    distinct sigmas).  Underscores are appended until the prefix is
    disjoint from every string in the domain.
    """
    taken = {v for v in database.domain if isinstance(v, str)}
    while any(v.startswith(prefix) for v in taken):
        prefix += "_"
    return [f"{prefix}{i}" for i in range(count)], prefix


def enumerate_sigmas(
    service: WebService,
    database: Database,
    fresh_prefix: str = "$new",
) -> Iterator[dict[str, Value]]:
    """All interpretations of the input constants, up to genericity.

    Each constant may take any database-domain value or a fresh value;
    fresh values are shared left-to-right so that every equality type
    among fresh values is produced exactly once.
    """
    import itertools

    constants = sorted(service.schema.input_constants)
    if not constants:
        yield {}
        return
    base = sorted(database.domain, key=repr)
    fresh, _prefix = fresh_value_pool(database, len(constants), fresh_prefix)
    fresh_set = frozenset(fresh)
    candidate_lists = [base + fresh[: i + 1] for i in range(len(constants))]
    seen: set[tuple] = set()
    for combo in itertools.product(*candidate_lists):
        # Normalise fresh-value patterns: renaming fresh values yields
        # the same generic run, so skip duplicates up to that renaming.
        norm: dict[Value, str] = {}
        key = []
        for v in combo:
            if v in fresh_set:
                norm.setdefault(v, fresh[len(norm)])
                key.append(norm[v])
            else:
                key.append(v)
        key_t = tuple(key)
        if key_t in seen:
            continue
        seen.add(key_t)
        yield dict(zip(constants, key_t))


def candidate_databases(
    service: WebService,
    sentence,
    databases: Iterable[Database] | None,
    domain_size: int | None,
    up_to_iso: bool,
    on_step: Callable[[], None] | None = None,
) -> tuple[Iterable[Database], int | None]:
    """The database space of one run: explicit list, or the small-model
    enumeration over the literal constants plus ``domain_size`` anonymous
    elements (Lemma A.11 / the Local Run Lemma's constant set)."""
    if databases is not None:
        return list(databases), None
    size = domain_size
    if size is None:
        size = default_domain_size(service, sentence)
    literals = set(service.literal_constants())
    if sentence is not None:
        literals |= set(sentence.literals())
    dom = sorted(literals, key=repr) + canonical_domain(size)
    dbs = enumerate_databases(
        service.schema.database,
        len(dom),
        up_to_iso=up_to_iso,
        domain=dom,
        fixed_elements=literals,
        on_step=on_step,
    )
    return dbs, size


# ---------------------------------------------------------------------------
# the Procedure protocol
# ---------------------------------------------------------------------------

class Procedure:
    """Strategy protocol: what one decision procedure contributes to the
    shared driver.

    A subclass is instantiated per verification call with the service,
    the (already validated) :class:`RunConfig`, and whatever property
    object it checks; :func:`run_procedure` then owns the entire
    pipeline and calls back through the hooks below.  Class attributes
    describe the procedure's *shape*:

    ``enumerates``
        streams the candidate-database enumeration (with resume /
        frontier checkpoints); False runs the single empty-database
        structure (Theorem 4.6).
    ``has_sigmas``
        units are (database, sigma) pairs, not bare databases.
    ``has_sigma_block``
        supports batching consecutive sigmas into blocked units.
    ``snap_parity``
        on sequential interruption, rewrite ``snapshots_explored`` from
        the parent governor so partial exploration of the interrupted
        pair is included (the historical sequential-engine behaviour).
    ``budget_cap``
        which :class:`RunConfig` cap seeds the governor
        (``"max_snapshots"`` or ``"max_states"``).
    ``checkpoint_extra``
        extra payload recorded in frontier checkpoints (e.g. the
        error-freeness ``method``).
    """

    name: str = ""
    unit_procedure: str = ""
    enumerates = True
    has_sigmas = False
    has_sigma_block = False
    snap_parity = False
    budget_cap = "max_states"
    checkpoint_extra: Mapping[str, Any] | None = None

    def __init__(self, service: WebService, cfg: RunConfig) -> None:
        self.service = service
        self.cfg = cfg

    # -- hooks, in driver call order ---------------------------------------

    def preflight(self) -> None:
        """Refuse undecidable instances (under ``check_restrictions``)."""

    def property_name(self) -> str:
        raise NotImplementedError

    def method(self) -> str:
        raise NotImplementedError

    def enum_sentence(self):
        """The property whose literals extend the enumeration domain."""
        return None

    def compile_payload(self, tracer: Tracer) -> Mapping[str, Any]:
        """Precompile the per-call artifacts (e.g. the Büchi automaton)
        and return the picklable unit payload."""
        return {}

    def init_stats(self, used_size: int | None, n_workers: int) -> dict:
        raise NotImplementedError

    def unit_limits(self, gov: Budget) -> Mapping[str, Any]:
        return {self.budget_cap: getattr(gov, self.budget_cap)}

    def fold_violation(
        self, outcome, stats: dict, property_name: str, method: str
    ) -> VerificationResult:
        raise NotImplementedError

    def interrupt_phase(self, exc) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def run_procedure(proc: Procedure) -> VerificationResult:
    """Run one verification end to end — the pipeline, written once.

    Resolution, enumeration, compilation, streaming, supervision and
    folding happen in exactly the order the historical per-procedure
    drivers used, so verdicts, witnesses, stats and trace events are
    bit-identical with the pre-engine code (the differential suite in
    ``tests/test_engine.py`` holds this against a recorded oracle).
    """
    cfg = proc.cfg
    service = proc.service
    proc.preflight()
    n_workers = resolve_workers(cfg.workers)
    n_block = (
        resolve_sigma_block(cfg.sigma_block) if proc.has_sigma_block else 1
    )  # None: the automatic per-database policy
    tr = resolve_tracer(cfg.tracer)
    gov = Budget.ensure(
        cfg.budget, timeout_s=cfg.timeout_s, strict=cfg.strict,
        **{proc.budget_cap: getattr(cfg, proc.budget_cap)},
    )
    gov.tracer = tr

    used_size: int | None = None
    iso_used: bool | None = None
    total_dbs: int | None = None
    if proc.enumerates:
        dbs, used_size = candidate_databases(
            service, proc.enum_sentence(), cfg.databases, cfg.domain_size,
            cfg.up_to_iso, on_step=gov.check_deadline,
        )
        iso_used = cfg.up_to_iso if cfg.databases is None else None
        if cfg.resume is not None:
            cfg.resume.ensure_compatible(
                domain_size=used_size, up_to_iso=iso_used, workers=n_workers
            )
        total_dbs = len(dbs) if isinstance(dbs, list) else None
    else:
        # Theorem 4.6: the database plays no role — one empty-database
        # structure is the whole space.
        dbs = [Database(service.schema.database)]

    property_name = proc.property_name()
    method = proc.method()
    payload = proc.compile_payload(tr)
    # Rule plans, once per call in the parent (workers re-warm their own
    # copy in the pool initialiser), so traces stay worker-count
    # independent.
    plan_started = time.monotonic()
    n_plans = warm_service_plans(service)
    if tr.active:
        tr.emit(
            "plan.compiled",
            dur=time.monotonic() - plan_started, n_plans=n_plans,
        )
        pruned_rules, pruned_pages = pruning_stats(service)
        if pruned_rules or pruned_pages:
            tr.emit(
                "plan.pruned",
                pruned_rules=pruned_rules, pruned_pages=pruned_pages,
            )
    stats = proc.init_stats(used_size, n_workers)

    sigma_fn = None
    if proc.has_sigmas:
        if cfg.sigmas is not None:
            sigma_list = [dict(s) for s in cfg.sigmas]
            sigma_fn = lambda db: sigma_list  # noqa: E731
        else:
            sigma_fn = lambda db: enumerate_sigmas(service, db)  # noqa: E731

    sup = Supervisor.resolve(
        retry=cfg.retry, unit_timeout_s=cfg.unit_timeout_s, faults=cfg.faults,
        checkpoint_path=cfg.checkpoint_path,
        checkpoint_every=cfg.checkpoint_every,
    )
    if proc.enumerates:
        sup.frontier_kwargs = dict(
            procedure=proc.name,
            property_name=property_name,
            domain_size=used_size,
            up_to_iso=iso_used,
            workers=n_workers,
            resume=cfg.resume,
        )
        if proc.checkpoint_extra is not None:
            sup.frontier_kwargs["extra"] = dict(proc.checkpoint_extra)
    spec = TaskSpec(
        procedure=proc.unit_procedure,
        service=service,
        payload=payload,
        unit_limits=proc.unit_limits(gov),
        traced=tr.active,
        faults=sup.plan,
    )
    snap_base = gov.snapshots_total
    stream = UnitStream(
        dbs, gov, stats, sigma_fn=sigma_fn, resume=cfg.resume,
        on_database=cfg.on_database, block_size=n_block, workers=n_workers,
    )
    # ROADMAP item 3's work-stealing scheduler replaces this call (and
    # only this call): every entry point, the CLI and the server run
    # through it.
    outcome = run_units(spec, stream, gov, n_workers, supervisor=sup)
    merge_unit_stats(stats, outcome.unit_stats)
    apply_quarantine(outcome, stats)
    config = {
        "procedure": proc.name,
        "workers": n_workers,
        "retry": sup.policy.max_retries,
        "unit_timeout_s": sup.policy.unit_timeout_s,
        "checkpoint_every": sup.checkpoint_every,
        "faults": sup.plan is not None,
        "traced": tr.active,
        "strict": gov.strict,
    }
    if proc.has_sigma_block:
        config["sigma_block"] = stream.block_used
    stats["config"] = config

    if outcome.violation is not None:
        return finalize_result(
            tr, proc.fold_violation(outcome, stats, property_name, method)
        )
    if outcome.interrupted is not None:
        if proc.snap_parity and n_workers == 1:
            # Sequential parity: include the interrupted pair's partial
            # exploration, which the parent governor already charged.
            stats["snapshots_explored"] = gov.snapshots_total - snap_base
        checkpoint = None
        if proc.enumerates:
            ck_kwargs = dict(
                procedure=proc.name,
                property_name=property_name,
                domain_size=used_size,
                up_to_iso=iso_used,
                workers=n_workers,
                resume=cfg.resume,
            )
            if proc.checkpoint_extra is not None:
                ck_kwargs["extra"] = dict(proc.checkpoint_extra)
            checkpoint = frontier_checkpoint(outcome, **ck_kwargs)
        return finalize_result(tr, degrade(
            outcome.interrupted,
            budget=gov,
            property_name=property_name,
            method=method,
            stats=stats,
            checkpoint=checkpoint,
            phase=proc.interrupt_phase(outcome.interrupted),
            total_databases=total_dbs,
            procedure=proc.name,
        ))
    return finalize_result(tr, VerificationResult(
        verdict=Verdict.HOLDS,
        property_name=property_name,
        method=method,
        stats=stats,
        procedure=proc.name,
    ))
