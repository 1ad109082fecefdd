"""Differential tests for the compiled evaluation core (repro.fol.compile).

The compiled plans must be *observationally identical* to the reference
interpreter — same truth values, same solve sets, same exceptions — on
every formula the run machinery can produce.  Two layers of evidence:

- a seeded randomized differential suite comparing ``compile_formula``
  / ``compile_query`` against ``evaluate_interpreted`` /
  ``evaluate_query_interpreted`` over random formulas, contexts and
  environments (generation is controlled per the completeness contract:
  every mentioned relation is declared, no ``None`` domain values);
- end-to-end assertions that :func:`verify_ltlfo` and :func:`verify_ctl`
  return bit-identical verdicts, counterexamples and stats on the
  production path and on the interpreted reference engine
  (:mod:`repro.reference`).

Targeted cases pin the exception-parity contract (error condition (i)
of Definition 2.3 rides on ``MissingInputConstantError`` timing) and
the two documented deviations of the constant-folding shortcut.
"""

import random

import pytest

from repro.ctl import AG, CAtom, CNot, EF
from repro.fol import (
    And,
    Atom,
    Bottom,
    Eq,
    EvalContext,
    Exists,
    Forall,
    Iff,
    Implies,
    InputConst,
    Lit,
    MissingInputConstantError,
    Not,
    Or,
    Top,
    UnknownRelationError,
    Var,
    compile_formula,
    compile_query,
    evaluate,
    evaluate_interpreted,
    evaluate_query,
    evaluate_query_interpreted,
)
from repro.fol.compile import clear_compile_cache
from repro.fol.evaluation import UnboundVariableError
from repro.ltl import B, G, LTLFOSentence
from repro.reference import verify_reference
from repro.schema.instances import Instance
from repro.schema.symbols import RelationKind, RelationSymbol
from repro.service import ServiceBuilder
from repro.verifier import Verdict, verify_ctl, verify_ltlfo

from tests.engine_cases import _result_fingerprint

# ---------------------------------------------------------------------------
# random generation (controlled per the completeness contract)
# ---------------------------------------------------------------------------

VALUES = ("a", "b", "c", 1, 2)
RELS = {"R": 2, "S": 1, "P": 0}
VARS = ("x", "y", "z", "u")
ICONSTS = ("c0", "c1")

EVAL_ERRORS = (
    MissingInputConstantError, UnboundVariableError, UnknownRelationError,
)


def _gen_term(rng, scope):
    roll = rng.random()
    if scope and roll < 0.55:
        return Var(rng.choice(sorted(scope)))
    if roll < 0.9:
        return Lit(rng.choice(VALUES))
    return InputConst(rng.choice(ICONSTS))


def _gen_leaf(rng, scope):
    roll = rng.random()
    if roll < 0.65:
        name = rng.choice(sorted(RELS))
        return Atom(name, tuple(
            _gen_term(rng, scope) for _ in range(RELS[name])
        ))
    if roll < 0.9:
        return Eq(_gen_term(rng, scope), _gen_term(rng, scope))
    return Top() if rng.random() < 0.5 else Bottom()


def _gen_formula(rng, depth, scope):
    if depth <= 0 or rng.random() < 0.3:
        return _gen_leaf(rng, scope)
    kind = rng.randrange(7)
    if kind == 0:
        return Not(_gen_formula(rng, depth - 1, scope))
    if kind == 1:
        return And([
            _gen_formula(rng, depth - 1, scope)
            for _ in range(rng.randint(2, 3))
        ])
    if kind == 2:
        return Or([
            _gen_formula(rng, depth - 1, scope)
            for _ in range(rng.randint(2, 3))
        ])
    if kind == 3:
        return Implies(
            _gen_formula(rng, depth - 1, scope),
            _gen_formula(rng, depth - 1, scope),
        )
    if kind == 4:
        return Iff(
            _gen_formula(rng, depth - 1, scope),
            _gen_formula(rng, depth - 1, scope),
        )
    fresh = [v for v in VARS if v not in scope]
    if not fresh:
        return _gen_leaf(rng, scope)
    picked = tuple(rng.sample(fresh, k=min(len(fresh), rng.randint(1, 2))))
    body = _gen_formula(rng, depth - 1, scope | set(picked))
    return Exists(picked, body) if kind == 5 else Forall(picked, body)


def _gen_ctx(rng):
    dom = rng.sample(VALUES, k=rng.randint(1, len(VALUES)))
    contents = {}
    for name, arity in RELS.items():
        sym = RelationSymbol(name, arity, RelationKind.STATE)
        if arity == 0:
            contents[sym] = rng.random() < 0.5
        else:
            contents[sym] = {
                tuple(rng.choice(dom) for _ in range(arity))
                for _ in range(rng.randint(0, 4))
            }
    input_values = {}
    if rng.random() < 0.6:
        input_values["c0"] = rng.choice(VALUES)
    if rng.random() < 0.3:
        input_values["c1"] = rng.choice(VALUES)
    ctx = EvalContext(
        state=Instance(contents),
        extra_domain=dom,
        input_values=input_values,
    )
    ctx.declare_empty(RELS)
    return ctx


def _outcome(thunk):
    """Normal result or the (type, name) fingerprint of the exception."""
    try:
        return ("ok", thunk())
    except EVAL_ERRORS as exc:
        return ("raise", type(exc).__name__, exc.name)


# ---------------------------------------------------------------------------
# randomized differential: check
# ---------------------------------------------------------------------------

def test_check_differential_randomized():
    rng = random.Random(20260805)
    disagreements = []
    for i in range(400):
        ctx = _gen_ctx(rng)
        free = set(rng.sample(VARS, k=rng.randint(0, 2)))
        formula = _gen_formula(rng, rng.randint(1, 4), free)
        env = {v: rng.choice(VALUES) for v in free}
        ref = _outcome(lambda: evaluate_interpreted(formula, ctx, env))
        plan = compile_formula(formula, frozenset(env))
        got = _outcome(lambda: plan.check(ctx, dict(env)))
        if ref != got:
            disagreements.append((i, formula, env, ref, got))
    assert not disagreements, disagreements[:3]


def test_check_differential_unbound_variables():
    """Free variables deliberately left out of the environment."""
    rng = random.Random(97)
    for _ in range(120):
        ctx = _gen_ctx(rng)
        free = set(rng.sample(VARS, k=rng.randint(1, 2)))
        formula = _gen_formula(rng, rng.randint(1, 3), free)
        # Bind a strict subset (possibly none) of the free variables.
        bound = {v for v in free if rng.random() < 0.4}
        env = {v: rng.choice(VALUES) for v in bound}
        ref = _outcome(lambda: evaluate_interpreted(formula, ctx, env))
        plan = compile_formula(formula, frozenset(env))
        got = _outcome(lambda: plan.check(ctx, dict(env)))
        assert ref == got, (formula, env, ref, got)


# ---------------------------------------------------------------------------
# randomized differential: solve
# ---------------------------------------------------------------------------

def test_solve_differential_randomized():
    rng = random.Random(424242)
    disagreements = []
    for i in range(300):
        ctx = _gen_ctx(rng)
        targets = tuple(rng.sample(VARS, k=rng.randint(1, 2)))
        outer = set(rng.sample(
            [v for v in VARS if v not in targets], k=rng.randint(0, 1)
        ))
        formula = _gen_formula(rng, rng.randint(1, 3), set(targets) | outer)
        env = {v: rng.choice(VALUES) for v in outer}
        ref = _outcome(
            lambda: evaluate_query_interpreted(formula, targets, ctx, env)
        )
        plan = compile_query(formula, targets, frozenset(env))
        got = _outcome(lambda: plan.solve(ctx, dict(env)))
        if ref != got:
            disagreements.append((i, formula, targets, env, ref, got))
    assert not disagreements, disagreements[:3]


def test_wrappers_route_through_toggle():
    """evaluate/evaluate_query route through compiled plans and agree
    with the interpreter."""
    rng = random.Random(7)
    for _ in range(60):
        ctx = _gen_ctx(rng)
        free = set(rng.sample(VARS, k=1))
        formula = _gen_formula(rng, 3, free)
        env = {v: rng.choice(VALUES) for v in free}
        targets = tuple(sorted(free))
        plan = compile_formula(formula, frozenset(env))
        assert _outcome(lambda: evaluate(formula, ctx, env)) == _outcome(
            lambda: plan.check(ctx, env)
        ) == _outcome(lambda: evaluate_interpreted(formula, ctx, env))
        assert _outcome(lambda: evaluate_query(formula, targets, ctx)) == _outcome(
            lambda: evaluate_query_interpreted(formula, targets, ctx)
        )


# ---------------------------------------------------------------------------
# exception parity, pinned
# ---------------------------------------------------------------------------

def test_missing_input_constant_parity():
    ctx = _gen_ctx(random.Random(1))
    ctx.input_values.clear()
    body = And([
        Atom("S", (Var("x"),)),
        Eq(Var("x"), InputConst("c0")),
    ])
    formula = Exists(("x",), body)
    with pytest.raises(MissingInputConstantError):
        evaluate_interpreted(formula, ctx)
    with pytest.raises(MissingInputConstantError):
        compile_formula(formula).check(ctx)
    with pytest.raises(MissingInputConstantError):
        compile_query(body, ("x",)).solve(ctx)


def test_unknown_relation_parity():
    ctx = EvalContext(extra_domain=("a",))
    formula = Atom("NOWHERE", (Lit("a"),))
    with pytest.raises(UnknownRelationError):
        evaluate_interpreted(formula, ctx)
    with pytest.raises(UnknownRelationError):
        compile_formula(formula).check(ctx)


def test_fold_shortcut_skips_input_constants():
    """Subtrees reading input constants are never folded away: the
    MissingInputConstantError is error condition (i), not a failure."""
    ctx = EvalContext(extra_domain=("a",))
    # And-parts are checked left to right, so the missing @c0 is read
    # before the tautological second part could decide the conjunction.
    formula = And([Eq(InputConst("c0"), InputConst("c0")), Top()])
    with pytest.raises(MissingInputConstantError):
        evaluate_interpreted(formula, ctx)
    with pytest.raises(MissingInputConstantError):
        compile_formula(formula).check(ctx)


def test_empty_domain_guard_on_folded_quantifiers():
    """∀x.⊤-style folds only short-circuit over a nonempty domain."""
    formula = Forall(("x",), Or([Atom("S", (Var("x"),)), Top()]))
    nonempty = EvalContext(extra_domain=("a",))
    nonempty.declare_empty(["S"])
    empty = EvalContext()
    empty.declare_empty(["S"])
    plan = compile_formula(formula)
    assert plan.check(nonempty) is evaluate_interpreted(formula, nonempty)
    assert plan.check(empty) is evaluate_interpreted(formula, empty)


def test_page_proposition_parity():
    ctx = EvalContext(page="HOME", page_names=("HOME", "AWAY"))
    for name, expected in (("HOME", True), ("AWAY", False)):
        formula = Atom(name, ())
        assert evaluate_interpreted(formula, ctx) is expected
        assert compile_formula(formula).check(ctx) is expected


# ---------------------------------------------------------------------------
# end-to-end: production and the interpreted reference agree
# ---------------------------------------------------------------------------

def _pingpong():
    b = ServiceBuilder("pingpong")
    b.input("go")
    p1 = b.page("P1", home=True)
    p1.toggle("go")
    p1.target("P2", "go")
    p2 = b.page("P2")
    p2.toggle("go")
    p2.target("P1", "go")
    return b.build()


def _registration():
    b = ServiceBuilder("registration")
    b.database("allowed", 1)
    b.input("record", 1)
    b.input("done")
    b.state("stored", 1)
    b.state("closed")
    b.action("ack", 1)
    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", "allowed(x)", ("x",))
    form.insert("stored", "record(x) & !closed", ("x",))
    form.insert("closed", "done")
    form.target("REVIEW", "done")
    review = b.page("REVIEW")
    review.act("ack", "stored(x)", ("x",))
    review.toggle("done")
    review.target("FORM", "done")
    return b.build()


def _on_off(verify, service, *args, **options):
    """Production vs the interpreted reference engine: identical
    verdict, witness and stats."""
    clear_compile_cache()
    on = verify(service, *args, **options)
    off = verify_reference(verify, service, *args, **options)
    assert _result_fingerprint(on) == _result_fingerprint(off)
    return on


class TestVerifierOnOffIdentity:
    def test_ltlfo_holds(self):
        svc = _registration()
        prop = LTLFOSentence(
            ("x",),
            B(Atom("record", (Var("x"),)), Not(Atom("stored", (Var("x"),)))),
            name="stored only after recorded",
        )
        result = _on_off(verify_ltlfo, svc, prop, domain_size=2, workers=1)
        assert result.verdict is Verdict.HOLDS

    def test_ltlfo_violated_counterexample_identical(self):
        svc = _pingpong()
        prop = LTLFOSentence((), G(Not(Atom("P2", ()))), name="never P2")
        result = _on_off(verify_ltlfo, svc, prop, domain_size=2, workers=1)
        assert result.verdict is Verdict.VIOLATED
        assert result.counterexample is not None

    def test_ctl_holds(self):
        svc = _pingpong()
        result = _on_off(
            verify_ctl, svc, AG(EF(CAtom("P1"))), domain_size=2, workers=1
        )
        assert result.verdict is Verdict.HOLDS

    def test_ctl_violated(self):
        svc = _pingpong()
        result = _on_off(
            verify_ctl, svc, AG(CNot(CAtom("P2"))), domain_size=2, workers=1
        )
        assert result.verdict is Verdict.VIOLATED


# ---------------------------------------------------------------------------
# cache coherence: clear_compile_cache must clear *every* plan layer
# ---------------------------------------------------------------------------

def test_clear_compile_cache_invalidates_service_plans():
    """Regression: the weak-keyed CompiledService cache survived
    clear_compile_cache(), so a live service object kept serving plans
    built before the clear."""
    from repro.service.compiled import compiled_service

    svc = _registration()
    first = compiled_service(svc)
    assert compiled_service(svc) is first  # cached while untouched
    clear_compile_cache()
    second = compiled_service(svc)
    assert second is not first


# ---------------------------------------------------------------------------
# memoised structural hashes: each formula node hashes once
# ---------------------------------------------------------------------------

def test_formula_hash_memoised_per_node():
    """Regression: _cached_formula/_cached_query rehashed the full
    formula tree on every lookup.  Structural hashes are now computed
    once per node and stashed on the instance."""
    import pickle

    from repro.fol.formulas import hash_miss_count

    # 5 nodes: Exists / And / Atom / Eq+2 terms count as Eq node only.
    body = And([Atom("S", (Var("x"),)), Eq(Var("x"), Lit("a"))])
    formula = Exists(("x",), body)
    nodes = 4  # Exists, And, Atom, Eq

    before = hash_miss_count()
    hash(formula)
    first = hash_miss_count() - before
    assert first == nodes, first
    # Every node is memoised now: further hashing costs no recomputation.
    before = hash_miss_count()
    for _ in range(3):
        hash(formula)
        hash(body)
    assert hash_miss_count() == before
    assert "_hash" in formula.__dict__

    # Seeded string hashes must never be pickled: the memo is dropped on
    # serialisation and rebuilt in the receiving process.
    clone = pickle.loads(pickle.dumps(formula))
    assert "_hash" not in clone.__dict__
    assert clone == formula


def test_cached_formula_hits_do_not_rehash():
    """An lru-cached compile lookup costs zero node re-hashes."""
    from repro.fol.formulas import hash_miss_count

    formula = Forall(("y",), Or([Atom("S", (Var("y"),)), Atom("P", ())]))
    compile_formula(formula)  # prime: hashes every node once
    before = hash_miss_count()
    for _ in range(5):
        compile_formula(formula)
    assert hash_miss_count() == before
