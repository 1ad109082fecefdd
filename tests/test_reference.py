"""Production against the reference engines (repro.reference).

Production verification has one evaluation path: compiled, pruned
plans and the set-at-a-time lasso search.  The engines it replaced live
on in :mod:`repro.reference`, and this suite holds production to them
over every case of ``tests/engine_cases.py``:

- production at ``workers=1`` and ``workers=2``;
- each reference combination run sequentially — the interpreter with
  the valuation-at-a-time search (the full reference), and compiled
  plans with one of the two replaced pieces swapped back in;
- identical verdict, witness and stats (``_result_fingerprint``: all
  but ``stats["config"]`` and the worker count).

The second half checks the reference harness itself: it really runs
the engines it names, it refuses to fan out to worker processes, and
it leaves production untouched once its scope ends.
"""

from functools import lru_cache

import pytest

import repro.reference as reference
import repro.verifier.engine as engine
import repro.verifier.linear as linear
from repro.demo import dataflow_demo_service
from repro.fol import Atom, Not
from repro.ltl import G, LTLFOSentence
from repro.reference import (
    InterpretedService,
    SequentialOnlyError,
    reference_engine,
    verify_reference,
)
from repro.service.compiled import CompiledService, compiled_service
from repro.verifier import Verdict, verify_ltlfo

from tests.engine_cases import CASES, _result_fingerprint, run_case
from tests.test_bitset import _stored_prop
from tests.test_compile import _pingpong, _registration

#: (plans, search) combinations: the full reference first, then each
#: replaced piece on its own and both compiled pieces together.
REFERENCES = [
    ("interpreted", "valuations"),
    ("pruned", "valuations"),
    ("unpruned", "setwise"),
    ("unpruned", "valuations"),
]
_CASES = {case["id"]: case for case in CASES}


@lru_cache(maxsize=None)
def _production(case_id, workers):
    return _result_fingerprint(run_case(_CASES[case_id], workers=workers)[1])


@lru_cache(maxsize=None)
def _reference(case_id, ref):
    return _result_fingerprint(run_case(_CASES[case_id], reference=ref)[1])


@pytest.mark.parametrize("ref", REFERENCES, ids=["-".join(r) for r in REFERENCES])
@pytest.mark.parametrize("workers", [1, 2], ids=["seq", "pool"])
@pytest.mark.parametrize("case_id", list(_CASES))
def test_production_matches_reference(case_id, workers, ref):
    assert _production(case_id, workers) == _reference(case_id, ref)


# ---------------------------------------------------------------------------
# the harness itself
# ---------------------------------------------------------------------------

def _never_p2():
    return LTLFOSentence((), G(Not(Atom("P2", ()))), name="never P2")


def test_reference_runs_the_engines_it_names(monkeypatch):
    calls = {"query": 0, "formula": 0, "search": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reference, "evaluate_query_interpreted",
                        counting("query", reference.evaluate_query_interpreted))
    monkeypatch.setattr(reference, "evaluate_interpreted",
                        counting("formula", reference.evaluate_interpreted))
    monkeypatch.setattr(reference, "search_valuations",
                        counting("search", reference.search_valuations))
    svc = _registration()
    with reference_engine(svc):
        assert isinstance(compiled_service(svc), InterpretedService)
        result = verify_ltlfo(svc, _stored_prop(), domain_size=2, workers=1)
    assert result.verdict is Verdict.HOLDS
    assert calls["query"] and calls["formula"] and calls["search"], calls

    demo = dataflow_demo_service()
    assert compiled_service(demo).pruned_pages == 2
    with reference_engine(demo, plans="unpruned", search="setwise"):
        plans = compiled_service(demo)
        assert isinstance(plans, CompiledService)
        assert "DEEP" in plans.pages and plans.pruned_pages == 0


def test_reference_scope_restores_production():
    svc = dataflow_demo_service()
    saved = (
        engine.resolve_workers, linear.compile_formula,
        linear._search_valuations_setwise,
    )
    with pytest.raises(RuntimeError):
        with reference_engine(svc):
            raise RuntimeError("boom")
    assert (
        engine.resolve_workers, linear.compile_formula,
        linear._search_valuations_setwise,
    ) == saved
    plans = compiled_service(svc)
    assert isinstance(plans, CompiledService) and plans.pruned_pages == 2


def test_reference_refuses_workers(monkeypatch):
    svc = _pingpong()
    with pytest.raises(SequentialOnlyError):
        verify_reference(verify_ltlfo, svc, _never_p2(), domain_size=2,
                         workers=2)
    # REPRO_WORKERS cannot smuggle a pool into a reference scope either
    monkeypatch.setenv("REPRO_WORKERS", "2")
    with reference_engine(svc), pytest.raises(SequentialOnlyError):
        verify_ltlfo(svc, _never_p2(), domain_size=2)
    # verify_reference defaults to one worker whatever the environment
    result = verify_reference(verify_ltlfo, svc, _never_p2(), domain_size=2)
    assert result.stats["workers"] == 1


@pytest.mark.parametrize("plans, search", [
    ("interpreted", "setwise"), ("compiled", "valuations"),
    ("pruned", "bitset"),
])
def test_reference_rejects_unknown_combinations(plans, search):
    with pytest.raises(ValueError):
        with reference_engine(_pingpong(), plans=plans, search=search):
            pass
