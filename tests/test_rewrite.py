import copy
import pickle
import random

import pytest

from opalg import coeff
from opalg.coeff import Scalar
from opalg.cli import parse_polynomial as P
from opalg.gsbases import PRESETS, preset
from opalg.poly import OpPolynomial
from opalg.rewrite import (
    RuleSchema,
    RuleValidationError,
    StepLimitExceeded,
    UnverifiedTheory,
    certificate_sum,
    ideal_member,
    is_irreducible,
    match_rule,
    normal_form,
    reduce_once,
)
from opalg.sampling import random_polynomial, random_word
from opalg.terms import OP_D, OP_P, Context, Word

D_THEORY = preset("d")
RB_THEORY = preset("rb")
DRB_THEORY = preset("drb")

X = Word.letter("x")
Y = Word.letter("y")


def d(w):
    return w.apply(OP_D)


def p(w):
    return w.apply(OP_P)


def test_match_symmetric_pattern_two_bindings():
    matches = match_rule(d(X) * d(Y), D_THEORY.rule("d_leibniz"))
    assert len(matches) == 2
    bindings = {tuple(sorted((k, str(v)) for k, v in m.binding.items())) for m in matches}
    assert bindings == {(("u", "x"), ("v", "y")), (("u", "y"), ("v", "x"))}
    assert all(m.context == Context.star() for m in matches)


def test_match_equal_factors_deduplicated():
    matches = match_rule(d(X) * d(X), D_THEORY.rule("d_leibniz"))
    assert len(matches) == 1
    # repeated factors at the top level and inside an argument, against
    # every rule of every preset: no match may be reported twice
    rules = {rule for theory in PRESETS.values() for rule in theory.rules}
    rng = random.Random(41)
    words = []
    for _ in range(60):
        w = random_word(rng, 4, ("x", "y"), (OP_D, OP_P))
        words.extend((w * w, d(w * w)))
    for m in words:
        for rule in rules:
            keys = [mt.key for mt in match_rule(m, rule)]
            assert len(set(keys)) == len(keys), (str(m), rule.name)


def test_match_tower():
    matches = match_rule(d(p(X)), DRB_THEORY.rule("d_after_p"))
    assert len(matches) == 1
    assert matches[0].binding == {"u": X}
    assert matches[0].context == Context.star()


def test_match_none():
    assert match_rule(X * Y, RB_THEORY.rule("p_rota_baxter")) == []


def test_tower_pattern_requires_exact_argument():
    # the argument of the outer operator must be exactly one inner factor
    assert match_rule(d(d(X) * Y), D_THEORY.rule("d_quasi_idem")) == []
    assert len(match_rule(d(d(X)), D_THEORY.rule("d_quasi_idem"))) == 1


def test_reduce_once_tower():
    f = OpPolynomial.from_word(d(d(X)))
    out, step = reduce_once(f, D_THEORY.rules)
    assert step is not None
    assert out == OpPolynomial.from_word(d(X), -Scalar.lam(-1))


def test_reduce_once_irreducible():
    f = OpPolynomial.from_word(X * Y)
    out, step = reduce_once(f, DRB_THEORY.rules)
    assert step is None and out == f


def test_reduce_once_in_context():
    f = OpPolynomial.from_word(d(p(X)) * Y)
    out, _ = reduce_once(f, (DRB_THEORY.rule("d_after_p"),))
    assert out == OpPolynomial.from_word(X * Y)


def test_normal_form_leibniz():
    res = normal_form(P("d(x)*d(y)"), D_THEORY.rules)
    li = Scalar.lam(-1)
    expected = OpPolynomial(
        ((d(X) * Y, -li), (X * d(Y), -li), (d(X * Y), li))
    )
    assert res.poly == expected


def test_normal_form_unit_application_is_stuck():
    f = OpPolynomial.from_word(d(Word.unit()))
    assert normal_form(f, D_THEORY.rules).poly == f
    # the extended theory sends it to zero
    assert normal_form(f, preset("d+d1").rules).poly.is_zero()


def test_normal_form_idempotent():
    rng = random.Random(41)
    for theory in (D_THEORY, RB_THEORY, DRB_THEORY):
        for _ in range(60):
            f = random_polynomial(rng, 8, ("x", "y"), theory.operators)
            nf = normal_form(f, theory.rules).poly
            assert normal_form(nf, theory.rules).poly == nf


def test_certificate_soundness():
    rng = random.Random(42)
    for theory in (RB_THEORY, DRB_THEORY):
        for _ in range(40):
            f = random_polynomial(rng, 8, ("x", "y"), theory.operators)
            res = normal_form(f, theory.rules, collect_steps=True)
            assert certificate_sum(res.steps) == f - res.poly


def test_is_irreducible_examples():
    assert is_irreducible((X * p(Y)).apply(OP_P), RB_THEORY.rules)
    assert not is_irreducible(p(X) * p(Y), RB_THEORY.rules)
    assert is_irreducible(d(Word.unit()), D_THEORY.rules)


def test_ideal_member_requires_verification():
    f = OpPolynomial.from_word(X)
    with pytest.raises(UnverifiedTheory):
        ideal_member(f, DRB_THEORY)


def test_ideal_member_examples():
    rb = RB_THEORY.with_gs_verified()
    gen = rb.rule("p_rota_baxter").instantiate({"u": X, "v": Y})
    assert ideal_member(gen, rb)
    assert not ideal_member(OpPolynomial.from_word(X), rb)
    # the combined preset answers too, but only under an explicit assumption
    assert not ideal_member(OpPolynomial.from_word(X), DRB_THEORY, assume_gs=True)


def test_step_limit():
    f = P("p(x)*p(y)*p(x*y)")
    with pytest.raises(StepLimitExceeded):
        normal_form(f, RB_THEORY.rules, step_limit=1)


def test_random_strategy_terminates_and_agrees_on_rb():
    rng = random.Random(43)
    for _ in range(40):
        f = random_polynomial(rng, 8, ("x", "y"), RB_THEORY.operators)
        a = normal_form(f, RB_THEORY.rules).poly
        for seed in (0, 1):
            b = normal_form(f, RB_THEORY.rules, strategy="random", seed=seed).poly
            assert a == b


def test_rule_validation_rejects_nonmonic():
    with pytest.raises(RuleValidationError):
        RuleSchema("bad", ("u",), OpPolynomial(((d(Word.letter("u")), Scalar.lam(1)),)))


def test_rule_validation_rejects_nonlinear():
    u = Word.letter("u")
    with pytest.raises(RuleValidationError):
        RuleSchema("bad", ("u",), OpPolynomial(((d(u) * p(u), coeff.ONE),)))


def test_rule_validation_rejects_bare_toplevel_variable():
    u = Word.letter("u")
    with pytest.raises(RuleValidationError):
        RuleSchema("bad", ("u",), OpPolynomial(((u * d(X), coeff.ONE),)))


def _order_incompatible_rule():
    # p(d(v)*u) leads p(d(u)*v) as a pattern, but a large u flips the instance order
    u, v = Word.letter("u"), Word.letter("v")
    return RuleSchema(
        "bad",
        ("u", "v"),
        OpPolynomial(((p(d(v) * u), coeff.ONE), (p(d(u) * v), coeff.ONE))),
    )


def test_rule_validation_rejects_order_incompatible():
    with pytest.raises(RuleValidationError):
        _order_incompatible_rule().check_order_compatible(("x", "y"), (OP_D, OP_P))


def _reduce_once_loop(f, rules, strategy="leading", seed=0):
    """The reference reducer: reduce_once until nothing matches."""
    rng = random.Random(seed) if strategy == "random" else None
    steps = []
    while True:
        f, step = reduce_once(f, rules, strategy=strategy, rng=rng)
        if step is None:
            return f, steps
        steps.append(step)


def _step_keys(steps):
    return [
        (
            s.rule.name,
            s.context.key,
            tuple(sorted((v, w.key) for v, w in s.binding.items())),
            s.redex,
            s.coefficient,
        )
        for s in steps
    ]


def _assert_same_as_reduce_once(f, rules, strategy="leading", seed=0):
    res = normal_form(f, rules, strategy=strategy, seed=seed, collect_steps=True)
    ref, ref_steps = _reduce_once_loop(f, rules, strategy, seed)
    assert res.poly == ref
    assert _step_keys(res.steps) == _step_keys(ref_steps)
    assert certificate_sum(res.steps) == f - res.poly
    return res


def test_normal_form_takes_the_reduce_once_steps():
    for strategy, seed in [("leading", 0)] + [("random", s) for s in range(4)]:
        rng = random.Random(44)
        for name in sorted(PRESETS):
            theory = PRESETS[name]
            for _ in range(25):
                f = random_polynomial(rng, rng.randint(1, 8), ("x", "y"), theory.operators)
                _assert_same_as_reduce_once(f, theory.rules, strategy, seed)


def test_normal_form_large_product_matches_reduce_once():
    # five p(...) factors of distinct monomials: 541 terms in normal form
    f = P("p(x)*p(y*y)*p(z)*p(w*w)*p(v)")
    res = _assert_same_as_reduce_once(f, RB_THEORY.rules)
    assert len(res.poly) == 541


def test_normal_form_cancelled_word_produced_again():
    # x^3 -> y cancels the pending -y, x^2 -> y produces y again, y -> x
    z3, z2, y, x = P("x*x*x"), P("x*x"), P("y"), P("x")
    rules = (
        RuleSchema("cube", (), z3 - y),
        RuleSchema("square", (), z2 - y),
        RuleSchema("drop", (), y - x),
    )
    # random seed 2 fires the rules in the same order as leading
    for strategy, seed in (("leading", 0), ("random", 2)):
        res = _assert_same_as_reduce_once(z3 - y + z2, rules, strategy, seed)
        assert res.poly == x
        assert [s.rule.name for s in res.steps] == ["cube", "square", "drop"]
        # a word cancelled to zero and never produced again is not rewritten
        res = _assert_same_as_reduce_once(z3 - y, rules, strategy, seed)
        assert res.poly.is_zero()
        assert [s.rule.name for s in res.steps] == ["cube"]


def test_normal_form_rejects_step_above_redex():
    # at u = x*y, v = x the replacement p(d(x*y)*x) lies above p(d(x)*x*y)
    f = P("p(d(x)*x*y)")
    for strategy in ("leading", "random"):
        with pytest.raises(RuleValidationError):
            normal_form(f, (_order_incompatible_rule(),), strategy=strategy, step_limit=2_000)


def test_normal_form_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        normal_form(P("p(x)*p(y)"), RB_THEORY.rules, strategy="bogus")


def test_rule_schema_copy_and_pickle():
    rng = random.Random(31)
    inputs = [random_polynomial(rng, 6, ("x", "y"), (OP_D, OP_P)) for _ in range(10)]
    for theory in PRESETS.values():
        for rule in theory.rules:
            for c in (copy.copy(rule), copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
                assert (c.name, c.variables) == (rule.name, rule.variables)
                assert c.poly == rule.poly and c.lhs is rule.lhs and c.rhs == rule.rhs
                for f in inputs:
                    assert normal_form(f, [c]).poly == normal_form(f, [rule]).poly
