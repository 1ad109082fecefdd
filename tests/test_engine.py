"""The run engine: option table, RunConfig validation, driver parity.

Four layers of guard:

- **signature drift** — every entry-point keyword corresponds to a
  shared option-table row and vice versa, in both directions, so a new
  option cannot be added to one procedure (or one front end) without
  the table knowing about it;
- **differential suite** — the recorded cases of
  ``tests/engine_cases.py`` (all five entry points plus the dispatcher
  over the full ``examples/specs`` corpus) replay through the
  refactored entry points and must fingerprint bit-identically against
  the committed pre-refactor oracle, sequential and pooled;
- **coded validation errors** — unsupported/unknown options raise
  :class:`RunConfigError` with a stable code and key path (still a
  ``TypeError``, so the CLI exits 2 and the server returns 400);
- **front-end snapshots** — the CLI help text and the server wire
  schema are generated from the table, and the historical surface is
  pinned here so a table edit that would change either is visible.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from repro.verifier import (
    RunConfig,
    RunConfigError,
    accepted_options,
    verify,
    verify_ctl,
    verify_error_free,
    verify_fully_propositional,
    verify_input_driven_search,
    verify_ltlfo,
)
from repro.verifier import engine
from tests.engine_cases import CASES, ORACLE_PATH, fingerprint, run_case

ENTRY_POINTS = {
    "verify_ltlfo": verify_ltlfo,
    "verify_ctl": verify_ctl,
    "verify_fully_propositional": verify_fully_propositional,
    "verify_input_driven_search": verify_input_driven_search,
    "verify_error_free": verify_error_free,
}

#: the positional (non-option) parameters of the entry points
_POSITIONAL = {"service", "sentence", "formula"}


def _signature_options(fn) -> frozenset[str]:
    params = inspect.signature(fn).parameters
    return frozenset(
        name for name, p in params.items()
        if name not in _POSITIONAL and p.kind is not p.VAR_KEYWORD
    )


# ---------------------------------------------------------------------------
# signature drift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("procedure", sorted(ENTRY_POINTS))
def test_signature_matches_option_table(procedure):
    """entry-point keywords == the table's accepted set, both directions."""
    assert _signature_options(ENTRY_POINTS[procedure]) == accepted_options(
        procedure
    )


@pytest.mark.parametrize("procedure", sorted(ENTRY_POINTS))
def test_every_entry_point_has_unsupported_catchall(procedure):
    params = inspect.signature(ENTRY_POINTS[procedure]).parameters
    assert any(p.kind is p.VAR_KEYWORD for p in params.values()), (
        f"{procedure} lost its **unsupported catch-all: unknown options "
        "would raise an uncoded TypeError at bind time"
    )


def test_config_fields_match_runconfig():
    """Every non-empty table row is a RunConfig field, in table order."""
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert list(engine.CONFIG_FIELDS) == fields


def test_signature_defaults_match_table():
    """An entry-point keyword's default equals its table row's default."""
    for procedure, fn in ENTRY_POINTS.items():
        params = inspect.signature(fn).parameters
        for name in accepted_options(procedure):
            assert params[name].default == engine.OPTION_TABLE[name].default, (
                f"{procedure}({name}=...) default drifted from the table"
            )


def test_accepted_options_cover_every_procedure():
    for name, spec in engine.OPTION_TABLE.items():
        for procedure in spec.procedures:
            assert procedure in ENTRY_POINTS
            assert name in accepted_options(procedure)


# ---------------------------------------------------------------------------
# the differential suite: bit-identical with the pre-refactor oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle():
    return json.loads(ORACLE_PATH.read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
@pytest.mark.parametrize("workers", [1, 2], ids=["seq", "pool"])
def test_differential_against_oracle(case, workers, oracle):
    _, result = run_case(case, workers=workers)
    got = json.loads(json.dumps(fingerprint(result)))
    assert got == oracle[case["id"]][f"workers={workers}"]


@pytest.mark.parametrize(
    "case",
    [c for c in CASES if c["entry"] != "verify"],
    ids=[c["id"] for c in CASES if c["entry"] != "verify"],
)
def test_config_provenance_recorded(case):
    service, result = run_case(case, workers=1)
    config = result.stats["config"]
    assert config["procedure"] == case["entry"]
    assert config["workers"] == 1
    for key in ("traced", "strict", "faults"):
        assert isinstance(config[key], bool)
    # provenance never leaks into the human-facing summary
    assert "config" not in result.describe(service)


# ---------------------------------------------------------------------------
# coded validation errors
# ---------------------------------------------------------------------------

def test_fp_rejects_checkpoint_options_with_coded_error(
    prop_service, ag_ef_hp
):
    with pytest.raises(RunConfigError) as err:
        verify_fully_propositional(
            prop_service, ag_ef_hp,
            checkpoint_path="ck.json", checkpoint_every=5, resume=object(),
        )
    exc = err.value
    assert isinstance(exc, TypeError)  # the CLI/server ladders still match
    assert exc.code == "unsupported-option"
    assert exc.keys == ("checkpoint_every", "checkpoint_path", "resume")
    assert "verify_fully_propositional() does not accept" in str(exc)
    assert "domain_size=" in str(exc)  # the Theorem 4.4 rerouting hint


def test_unknown_option_coded_error(core_spec):
    service, sentence = core_spec
    with pytest.raises(RunConfigError) as err:
        verify_ltlfo(service, sentence, max_snapshotz=10)
    exc = err.value
    assert exc.code == "unknown-option"
    assert exc.keys == ("max_snapshotz",)
    assert "max_snapshotz" in str(exc)


def test_dispatcher_forwards_coded_error(prop_service, ag_ef_hp):
    """verify() routes the FP fast path; its refusal carries the code."""
    with pytest.raises(RunConfigError) as err:
        verify(prop_service, ag_ef_hp, sigma_block=4)
    assert err.value.code == "unsupported-option"
    assert err.value.keys == ("sigma_block",)


def test_unsupported_option_raised_before_any_work(core_spec):
    """Validation happens before enumeration: no on_database callbacks."""
    service, sentence = core_spec
    seen = []
    with pytest.raises(RunConfigError):
        verify_ltlfo(
            service, sentence, on_database=seen.append, bogus_option=1
        )
    assert seen == []


@pytest.fixture
def core_spec():
    from repro.ltl.parser import parse_ltlfo
    from tests.engine_cases import load_spec

    service = load_spec("core.json")
    return service, parse_ltlfo("G !ERROR")


@pytest.fixture
def prop_service():
    from tests.engine_cases import load_spec

    return load_spec("propositional.json")


@pytest.fixture
def ag_ef_hp():
    from repro.ctl.parser import parse_ctl

    return parse_ctl("AG EF HP")


# ---------------------------------------------------------------------------
# environment resolution
# ---------------------------------------------------------------------------

def test_from_env_resolves_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.setenv("REPRO_SIGMA_BLOCK", "4")
    monkeypatch.setenv("REPRO_RETRY", "7")
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT_S", "2.5")
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "9")
    cfg = RunConfig.from_env()
    assert cfg.workers == 3
    assert cfg.sigma_block == 4
    assert cfg.retry == 7
    assert cfg.unit_timeout_s == 2.5
    assert cfg.checkpoint_every == 9


def test_from_env_kwargs_win(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.setenv("REPRO_RETRY", "7")
    cfg = RunConfig.from_env(workers=1, retry=0)
    assert cfg.workers == 1
    assert cfg.retry == 0


def test_env_values_recorded_in_config(monkeypatch):
    """REPRO_* resolved once by the driver and recorded in provenance."""
    monkeypatch.setenv("REPRO_RETRY", "5")
    _, result = run_case(CASES[0], workers=1)
    assert result.stats["config"]["retry"] == 5


# ---------------------------------------------------------------------------
# front-end snapshots, generated from the shared table
# ---------------------------------------------------------------------------

#: the historical /verify wire schema — a table edit that changes this
#: is an API change and must update this pin deliberately
EXPECTED_WIRE_SCHEMA = {
    "domain_size": (int,),
    "up_to_iso": (bool,),
    "max_snapshots": (int,),
    "max_databases": (int,),
    "timeout_s": (int, float),
    "strict": (bool,),
    "workers": (int,),
    "sigma_block": (int,),
    "retry": (int,),
    "unit_timeout_s": (int, float),
    "checkpoint_every": (int,),
    "confirm_counterexamples": (bool,),
    "lint": (str,),
}


def test_wire_schema_snapshot():
    assert engine.wire_options() == EXPECTED_WIRE_SCHEMA


def test_server_uses_the_shared_table():
    from repro.server.app import _BUDGET_OPTIONS, _VERIFY_OPTIONS

    assert _VERIFY_OPTIONS == engine.wire_options()
    assert _BUDGET_OPTIONS == engine.budget_options()


def test_budget_options_snapshot():
    assert engine.budget_options() == {
        "max_snapshots", "max_databases", "timeout_s", "strict",
    }


def test_cli_help_contains_generated_flags():
    from repro.cli import build_parser

    import argparse

    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    verify_parser = sub.choices["verify"]
    collapsed = " ".join(verify_parser.format_help().split())
    for name, spec in engine.OPTION_TABLE.items():
        if spec.cli is None:
            continue
        assert spec.cli["flag"] in collapsed, f"--flag for {name} missing"
        assert " ".join(spec.cli["help"].split()) in collapsed, (
            f"help text for {name} drifted from the table"
        )


def test_fold_budget_always_vs_on_demand():
    from repro.verifier import Budget

    # server mode: no budget-shaped key → untouched
    opts = {"workers": 2}
    assert engine.fold_budget(dict(opts), always=False) == opts
    # CLI mode: the governor is always built, with the table defaults
    out = engine.fold_budget({"workers": 2}, always=True)
    gov = out.pop("budget")
    assert out == {"workers": 2}
    assert isinstance(gov, Budget)
    assert gov.max_snapshots == engine.DEFAULT_SNAPSHOT_BUDGET
    assert gov.max_states == engine.DEFAULT_KRIPKE_BUDGET
    # a named cap seeds both cap fields, exactly as --max-snapshots did
    gov2 = engine.fold_budget(
        {"max_snapshots": 123, "strict": True}, always=False
    )["budget"]
    assert gov2.max_snapshots == 123
    assert gov2.max_states == 123
    assert gov2.strict is True


# ---------------------------------------------------------------------------
# automatic sigma blocking: the default is block-size-independent
# ---------------------------------------------------------------------------

#: Several sigmas of the core demo database: the violation of ``G !CP``
#: sits on the middle one, and a small snapshot cap strikes the second.
_CORE_SIGMAS = [
    {"name": "bob", "password": "x"},
    {"name": "alice", "password": "pw1"},
    {"name": "alice", "password": "pw-alice"},
]

_EXTRA_MULTI_SIGMA_CASES = [
    {"id": "ltlfo-core-sigmas-holds", "entry": "verify_ltlfo",
     "spec": "core.json", "ltl": "G !ERROR",
     "options": {"databases": "core", "sigmas": _CORE_SIGMAS}},
    {"id": "ltlfo-core-sigmas-violated", "entry": "verify_ltlfo",
     "spec": "core.json", "ltl": "G !CP",
     "options": {"databases": "core", "sigmas": _CORE_SIGMAS}},
    {"id": "ltlfo-core-sigmas-struck", "entry": "verify_ltlfo",
     "spec": "core.json", "ltl": "G !ERROR",
     "options": {"databases": "core", "sigmas": _CORE_SIGMAS,
                 "budget": {"max_snapshots": 5}}},
    {"id": "ltlfo-core-sigmas-struck-strict", "entry": "verify_ltlfo",
     "spec": "core.json", "ltl": "G !ERROR",
     "options": {"databases": "core", "sigmas": _CORE_SIGMAS,
                 "budget": {"max_snapshots": 5, "strict": True}}},
]


def _multi_sigma(case) -> bool:
    """LTL runs over more than one sigma per database (enumerated or
    listed) — the runs sigma blocking applies to."""
    if "ltl" not in case:
        return False
    return len(case["options"].get("sigmas", [{}, {}])) > 1


MULTI_SIGMA_CASES = [
    c for c in CASES if _multi_sigma(c)
] + _EXTRA_MULTI_SIGMA_CASES


def _run_outcome(case, workers, sigma_block):
    """Fingerprint of one run; a strict strike compares its exception."""
    from repro.verifier import VerificationBudgetExceeded

    options = dict(case["options"], sigma_block=sigma_block)
    try:
        _, result = run_case(dict(case, options=options), workers=workers)
    except VerificationBudgetExceeded as exc:
        stats = {k: v for k, v in exc.stats.items() if k != "config"}
        return {"raised": exc.limit, "stats": stats,
                "checkpoint": exc.checkpoint.to_dict()}
    return json.loads(json.dumps(fingerprint(result)))


def test_multi_sigma_cases_exist():
    assert {c["id"] for c in MULTI_SIGMA_CASES} >= {"ltlfo-core-inconclusive"}


@pytest.mark.parametrize(
    "case", MULTI_SIGMA_CASES, ids=[c["id"] for c in MULTI_SIGMA_CASES]
)
@pytest.mark.parametrize("workers", [1, 2], ids=["seq", "pool"])
def test_auto_sigma_block_matches_one_sigma_units(case, workers, monkeypatch):
    """The default (automatic) block size gives the verdict, witness,
    stats and checkpoint of classic one-sigma units."""
    monkeypatch.delenv("REPRO_SIGMA_BLOCK", raising=False)
    auto = _run_outcome(case, workers, None)
    classic = _run_outcome(case, workers, 1)
    assert auto == classic


def test_auto_policy_resolution(monkeypatch):
    from repro.verifier.parallel import auto_sigma_block, resolve_sigma_block

    monkeypatch.delenv("REPRO_SIGMA_BLOCK", raising=False)
    assert resolve_sigma_block(None) is None  # automatic
    assert resolve_sigma_block(3) == 3
    monkeypatch.setenv("REPRO_SIGMA_BLOCK", "1")
    assert resolve_sigma_block(None) == 1
    assert resolve_sigma_block(4) == 4  # an explicit size wins
    assert [auto_sigma_block(n, 1) for n in (0, 1, 5)] == [1, 1, 5]
    assert [auto_sigma_block(n, 2) for n in (1, 4, 5)] == [1, 2, 3]


@pytest.mark.parametrize("workers", [1, 2])
def test_auto_policy_unit_shapes(workers):
    """One unit per database sequentially; ``ceil(n / 2)`` sigmas per
    unit with two workers."""
    from repro.verifier import Budget
    from repro.verifier.parallel import UnitStream

    sigmas = {"dbA": 5, "dbB": 1, "dbC": 4}
    stats = {"databases_checked": 0, "databases_skipped": 0}
    stream = UnitStream(
        list(sigmas), Budget.ensure(None), stats,
        sigma_fn=lambda db: [{"c": i} for i in range(sigmas[db])],
        block_size=None, workers=workers,
    )
    shapes: dict[str, list[int]] = {}
    for unit in stream:
        shapes.setdefault(unit.database, []).append(len(unit.sigma_pairs()))
    if workers == 1:
        assert shapes == {"dbA": [5], "dbB": [1], "dbC": [4]}
        assert stream.block_used == 5
    else:
        assert shapes == {"dbA": [3, 2], "dbB": [1], "dbC": [2, 2]}
        assert stream.block_used == 3


def test_auto_policy_recorded_in_config(monkeypatch):
    """stats["config"]["sigma_block"] records the resolved size."""
    monkeypatch.delenv("REPRO_SIGMA_BLOCK", raising=False)
    case = next(c for c in MULTI_SIGMA_CASES
                if c["id"] == "ltlfo-core-sigmas-holds")
    for workers, size in ((1, 3), (2, 2)):
        _, result = run_case(case, workers=workers)
        assert result.stats["config"]["sigma_block"] == size
    options = dict(case["options"], sigma_block=1)
    _, result = run_case(dict(case, options=options), workers=1)
    assert result.stats["config"]["sigma_block"] == 1
