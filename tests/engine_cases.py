"""Shared case table for the run-engine differential suite.

The engine refactor promises *bit-identical* verdicts, witnesses and
stats for every public entry point.  This module is the single source
of truth for what "identical" means:

- ``CASES`` enumerates fast, deterministic verification runs over the
  full ``examples/specs`` corpus covering all five entry points
  (Theorems 3.5, 4.4, 4.6, 4.9, error-freeness direct + reduction)
  plus the ``verify()`` dispatcher routes, with HOLDS, VIOLATED and
  INCONCLUSIVE outcomes;
- ``run_case`` executes one case at a given worker count, rebuilding
  mutable options (``Budget`` objects arm deadlines on use) per call;
- ``fingerprint`` projects a ``VerificationResult`` onto a JSON-able
  dict — verdict, labels, witness text, stats *and their insertion
  order*, checkpoint — excluding only ``stats["config"]``, the
  engine-added provenance block that the pre-refactor code never
  produced;
- ``_result_fingerprint`` is the comparison key of the
  production-vs-reference suites (``tests/test_reference.py`` and the
  per-engine suites): the fingerprint without the worker count.

``python tests/engine_cases.py`` regenerates the committed oracle at
``tests/data/engine_oracle.json``.  The oracle in git was produced by
the *pre-refactor* entry points; ``tests/test_engine.py`` replays the
cases through the current code and diffs fingerprints, so any drift in
verdict/witness/stats introduced by the engine shows up as a failure
against recorded history, not just self-consistency.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
ORACLE_PATH = Path(__file__).resolve().parent / "data" / "engine_oracle.json"

# One sigma that matches demo.core's seeded user; enumerating all
# interpretations over the full example domains is too slow for a
# test-suite inner loop.
_ALICE = [{"name": "alice", "password": "pw-alice"}]

# The Figure 2 login/registration inputs for the full e-commerce demo.
_ECOM = [{"name": "alice", "password": "pw1",
          "repassword": "pw1", "ccno": "c"}]

# Each case: entry point (or "verify" for the dispatcher), spec file,
# property kind/text, and the option dict.  Options use two symbolic
# encodings resolved by ``run_case``: ``"databases"`` names a demo
# database builder, ``"budget"`` holds Budget() constructor kwargs.
CASES = [
    # -- Theorem 3.5: input-bounded LTL-FO ------------------------------
    {"id": "ltlfo-core-holds", "entry": "verify_ltlfo", "spec": "core.json",
     "ltl": "G !ERROR",
     "options": {"databases": "core", "sigmas": _ALICE}},
    {"id": "ltlfo-core-violated", "entry": "verify_ltlfo", "spec": "core.json",
     "ltl": "G !MP",
     "options": {"databases": "core", "sigmas": _ALICE}},
    {"id": "ltlfo-core-violated-noconfirm", "entry": "verify_ltlfo",
     "spec": "core.json", "ltl": "G !MP",
     "options": {"databases": "core", "sigmas": _ALICE,
                 "confirm_counterexamples": False}},
    {"id": "ltlfo-core-inconclusive", "entry": "verify_ltlfo",
     "spec": "core.json", "ltl": "G !ERROR",
     "options": {"domain_size": 1, "budget": {"max_databases": 2}}},
    # -- Theorem 4.4: propositional CTL(*) ------------------------------
    {"id": "ctl-prop-holds", "entry": "verify_ctl", "spec": "propositional.json",
     "ctl": "AG EF HP", "options": {"domain_size": 1}},
    {"id": "ctl-prop-violated", "entry": "verify_ctl",
     "spec": "propositional.json", "ctl": "AG !RP",
     "options": {"domain_size": 1}},
    # -- Theorem 4.6: fully propositional -------------------------------
    {"id": "fp-prop-holds", "entry": "verify_fully_propositional",
     "spec": "propositional.json", "ctl": "AG EF HP", "options": {}},
    {"id": "fp-prop-violated", "entry": "verify_fully_propositional",
     "spec": "propositional.json", "ctl": "AG !RP", "options": {}},
    # -- Theorem 4.9: input-driven search -------------------------------
    {"id": "ids-holds", "entry": "verify_input_driven_search",
     "spec": "search_site.json", "ctl": "AG EF SEARCH",
     "options": {"databases": "figure1"}},
    {"id": "ids-violated", "entry": "verify_input_driven_search",
     "spec": "search_site.json", "ctl": "AG EF HP",
     "options": {"databases": "figure1"}},
    {"id": "ids-violated-d1", "entry": "verify_input_driven_search",
     "spec": "search_site.json", "ctl": "AG EF HP",
     "options": {"domain_size": 1}},
    # -- error-freeness: direct + Lemma A.5 reduction -------------------
    {"id": "ef-core-direct", "entry": "verify_error_free", "spec": "core.json",
     "options": {"databases": "core", "sigmas": _ALICE, "method": "direct"}},
    {"id": "ef-core-reduction", "entry": "verify_error_free",
     "spec": "core.json",
     "options": {"databases": "core", "sigmas": _ALICE,
                 "method": "reduction"}},
    {"id": "ef-prop-direct-d1", "entry": "verify_error_free",
     "spec": "propositional.json", "options": {"domain_size": 1}},
    {"id": "ef-ecommerce-violated", "entry": "verify_error_free",
     "spec": "ecommerce.json",
     "options": {"databases": "ecommerce", "sigmas": _ECOM}},
    {"id": "ef-dataflow-violated-d1", "entry": "verify_error_free",
     "spec": "dataflow_demo.json", "options": {"domain_size": 1}},
    # -- the statics.verify() dispatcher routes -------------------------
    {"id": "dispatch-ltl", "entry": "verify", "spec": "core.json",
     "ltl": "G !MP",
     "options": {"databases": "core", "sigmas": _ALICE}},
    {"id": "dispatch-fp", "entry": "verify", "spec": "propositional.json",
     "ctl": "AG EF HP", "options": {}},
    {"id": "dispatch-fp-reroute", "entry": "verify",
     "spec": "propositional.json", "ctl": "AG EF HP",
     "options": {"domain_size": 1}},
    {"id": "dispatch-ids", "entry": "verify", "spec": "search_site.json",
     "ctl": "AG EF SEARCH", "options": {"databases": "figure1"}},
]


def load_spec(name):
    from repro.io.json_format import load_service
    return load_service(SPEC_DIR / name)


def _build_database(tag, service):
    if tag == "core":
        from repro.demo.core import core_database
        return core_database(service)
    if tag == "figure1":
        from repro.demo.search_site import figure1_database
        return figure1_database(service)
    if tag == "ecommerce":
        from repro.demo.ecommerce import ecommerce_database
        return ecommerce_database(service)
    raise ValueError(f"unknown database tag {tag!r}")


def _build_property(case):
    if "ltl" in case:
        from repro.ltl.parser import parse_ltlfo
        return parse_ltlfo(case["ltl"])
    if "ctl" in case:
        from repro.ctl.parser import parse_ctl
        return parse_ctl(case["ctl"])
    return None


def build_options(case, service, workers):
    """Materialize one case's option dict (fresh Budget etc. per run)."""
    from repro.verifier import Budget
    options = dict(case["options"])
    if "databases" in options:
        options["databases"] = [_build_database(options["databases"], service)]
    if "budget" in options:
        options["budget"] = Budget(**options["budget"])
    options["workers"] = workers
    return options


def run_case(case, workers=1, reference=None):
    """Execute one case at the given worker count; returns the result.

    ``reference`` — a ``(plans, search)`` pair of
    :func:`repro.reference.reference_engine` — runs the case on those
    reference engines instead (sequential only).
    """
    import repro.verifier as verifier
    from repro.reference import verify_reference
    service = load_spec(case["spec"])
    prop = _build_property(case)
    options = build_options(case, service, workers)
    entry = getattr(verifier, case["entry"])
    args = () if case["entry"] == "verify_error_free" else (prop,)
    if reference is not None:
        plans, search = reference
        return service, verify_reference(
            entry, service, *args, plans=plans, search=search, **options
        )
    return service, entry(service, *args, **options)


def fingerprint(result):
    """Project a VerificationResult onto a JSON-able comparison dict.

    ``stats["config"]`` — the engine's resolved-option provenance — is
    the one key excluded: the pre-refactor oracle never produced it.
    Everything else, including stats *insertion order*, must match the
    oracle bit for bit.
    """
    ce = result.counterexample
    db = result.counterexample_database
    ck = result.checkpoint
    return {
        "verdict": result.verdict.value,
        "procedure": result.procedure,
        "property": result.property_name,
        "method": result.method,
        "coverage": result.coverage,
        "stats": {k: v for k, v in result.stats.items() if k != "config"},
        "stats_order": [k for k in result.stats if k != "config"],
        "counterexample": ce.describe() if ce is not None else None,
        "counterexample_database": repr(db) if db is not None else None,
        "checkpoint": ck.to_dict() if ck is not None else None,
    }


def _result_fingerprint(result):
    """:func:`fingerprint` minus what differs between worker counts by
    design (``stats["workers"]`` and the checkpoint's ``workers``),
    plus the counterexample run itself (``describe()`` truncates).

    The one comparison key of the production-vs-reference suites: equal
    fingerprints mean the same verdict, witness and stats.
    """
    fp = fingerprint(result)
    fp["stats"].pop("workers", None)
    fp["stats_order"] = [k for k in fp["stats_order"] if k != "workers"]
    if fp["checkpoint"] is not None:
        fp["checkpoint"].pop("workers", None)
    fp["run"] = result.counterexample
    return fp


def generate(path=ORACLE_PATH):
    """Regenerate the oracle file from the *current* entry points."""
    oracle = {}
    for case in CASES:
        per_case = {}
        for workers in (1, 2):
            _, result = run_case(case, workers=workers)
            per_case[f"workers={workers}"] = fingerprint(result)
        oracle[case["id"]] = per_case
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(oracle, indent=2, sort_keys=True) + "\n")
    return oracle


if __name__ == "__main__":
    generate()
    print(f"wrote {ORACLE_PATH} ({len(CASES)} cases x workers=1,2)")
