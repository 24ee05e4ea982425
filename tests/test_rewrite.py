import copy
import pickle
import random
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from opalg import coeff, rewrite, terms
from opalg.coeff import Scalar
from opalg.cli import parse_polynomial as P
from opalg.gsbases import PRESETS, VerifyConfig, _build_presets, broken_rb, preset, verify_gs
from opalg.poly import OpPolynomial
from opalg.rewrite import (
    Match,
    RuleSchema,
    RuleValidationError,
    StepLimitExceeded,
    UnverifiedTheory,
    certificate_sum,
    find_occurrences,
    ideal_member,
    is_irreducible,
    match_rule,
    normal_form,
    reduce_once,
)
from opalg.sampling import random_polynomial, random_word
from opalg.terms import OP_D, OP_P, Context, OpApp, Word, substitute_letters
from oracles import (
    match_rule_reference,
    nf_batch_texts,
    oracle_occurrences,
    reduce_once_reference,
    reduct_reference,
    substitute_reference,
)

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
    rb = replace(RB_THEORY, gs_verified=True)
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


def test_random_strategy_seeds_its_generator_on_the_first_draw(monkeypatch):
    f = P("p(x)*p(y*y)*p(z) + 2*p(p(x))")
    expected = normal_form(f, RB_THEORY.rules, strategy="random", seed=5, collect_steps=True)
    made = []

    class Counting(random.Random):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(rewrite.random, "Random", Counting)
    irreducible = P("p(x*p(y)) + x")
    assert normal_form(irreducible, RB_THEORY.rules, strategy="random", seed=5).poly == irreducible
    assert made == []
    res = normal_form(f, RB_THEORY.rules, strategy="random", seed=5, collect_steps=True)
    assert made == [5]
    assert res.poly == expected.poly and _step_keys(res.steps) == _step_keys(expected.steps)


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


def test_rule_validation_rejects_repeated_variable():
    # a name listed twice would be bound twice, and the last binding would win
    u = Word.letter("u")
    with pytest.raises(RuleValidationError, match="variable names must be distinct"):
        RuleSchema("bad", ("u", "u"), OpPolynomial(((d(p(u)), coeff.ONE), (u, -coeff.ONE))))


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
    """The reference reducer: reduce_once_reference until nothing matches,
    checking at every polynomial that the library's reduce_once, drawing
    from a copy of the same generator, takes the same step."""
    rng = random.Random(seed) if strategy == "random" else None
    steps = []
    while True:
        out, lib_step = reduce_once(f, rules, strategy=strategy, rng=copy.copy(rng))
        f, step = reduce_once_reference(f, rules, strategy=strategy, rng=rng)
        assert out == f
        if step is None:
            assert lib_step is None
            return f, steps
        assert _step_keys([lib_step]) == _step_keys([step])
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
        with pytest.raises(RuleValidationError):
            reduce_once(f, (_order_incompatible_rule(),), strategy=strategy)


def test_normal_form_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        normal_form(P("p(x)*p(y)"), RB_THEORY.rules, strategy="bogus")


def test_rule_schema_copy_and_pickle():
    rng = random.Random(31)
    inputs = [random_polynomial(rng, 6, ("x", "y"), (OP_D, OP_P)) for _ in range(10)]
    for theory in PRESETS.values():
        for preset_rule in theory.rules:
            # built here, not at import, so its words are the ones the word
            # table holds now, however often earlier tests cleared it
            rule = RuleSchema(preset_rule.name, preset_rule.variables, P(str(preset_rule.poly)))
            for c in (copy.copy(rule), copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
                assert c == rule and hash(c) == hash(rule)
                assert (c.name, c.variables) == (rule.name, rule.variables)
                assert c.poly == rule.poly and c.lhs is rule.lhs and c.rhs == rule.rhs
                assert c.varset == rule.varset == frozenset(rule.variables)
                for f in inputs:
                    assert normal_form(f, [c]).poly == normal_form(f, [rule]).poly
            assert RuleSchema(rule.name + "_renamed", rule.variables, rule.poly) != rule


def _matcher_test_words():
    """Seeded words with repeated factors, the unit word and nested arguments."""
    rng = random.Random(53)
    words = [Word.unit(), X, d(Word.unit()), p(Word.unit()) * p(Word.unit())]
    for _ in range(80):
        w = random_word(rng, 5, ("x", "y"), (OP_D, OP_P))
        v = random_word(rng, 3, ("x", "y"), (OP_D, OP_P))
        words.extend((w, w * w, d(w * w) * v, p(p(w) * v) * p(v), d(p(w) * p(w)) * p(w)))
    return words


def test_match_rule_matches_reference():
    rules = {rule for theory in PRESETS.values() for rule in theory.rules}
    rules.update(broken_rb().rules)
    words = _matcher_test_words()
    for rule in sorted(rules, key=lambda r: r.name):
        for m in words:
            assert match_rule(m, rule) == match_rule_reference(m, rule), (str(m), rule.name)


_RULES = sorted(
    {rule for theory in PRESETS.values() for rule in theory.rules} | set(broken_rb().rules),
    key=lambda r: r.name,
)
_NAMES = st.sampled_from("xy")
_OPS = st.sampled_from((OP_D, OP_P))
_WORDS = st.recursive(
    st.lists(_NAMES, max_size=2).map(Word),
    lambda inner: st.builds(
        Word, st.lists(_NAMES, max_size=2), st.lists(st.builds(OpApp, _OPS, inner), max_size=3)
    ),
    max_leaves=8,
)
# words with repeated factors at the top level and inside nested arguments
_TARGETS = st.one_of(
    _WORDS,
    st.builds(lambda w: w * w, _WORDS),
    st.builds(lambda w, v, op: (w * w).apply(op) * v, _WORDS, _WORDS, _OPS),
    st.builds(lambda w, v, op: (w.apply(op) * w.apply(op) * v).apply(op) * w, _WORDS, _WORDS, _OPS),
)


@settings(max_examples=150)
@given(_TARGETS, st.data())
def test_matcher_fuzzed_against_the_oracles(m, data):
    for rule in _RULES:
        matches = match_rule(m, rule)
        reference = match_rule_reference(m, rule)
        assert matches == reference, rule.name
        assert [mt.key for mt in matches] == [mt.key for mt in reference], rule.name
        for mt in matches:
            ctx, binding = mt.context, mt.binding
            assert ctx.substitute(rule.lhs_instance(binding)) == m
            assert mt.reduct() == tuple(
                ctx.substitute(substitute_letters(w0, binding)) for w0 in rule.rhs.monomials()
            ), rule.name
    targets = [Word((), (f,)) for f in m.ops] + [f.arg for f in m.ops] + [X]
    targets.append(data.draw(_WORDS))
    for target in targets:
        if not target.is_unit():
            assert find_occurrences(m, target) == oracle_occurrences(m, target)


def test_match_copy_and_pickle():
    checked = 0
    for rule in _RULES:
        for m in _matcher_test_words()[:60]:
            for mt in match_rule(m, rule):
                for c in (copy.copy(mt), copy.deepcopy(mt), pickle.loads(pickle.dumps(mt))):
                    assert c == mt and c.key == mt.key and c.reduct() == mt.reduct()
                    assert (c.rule, c.context, c.binding) == (mt.rule, mt.context, mt.binding)
                checked += 1
    assert checked > 100


def _random_context(rng, letters, operators):
    depth = rng.randint(0, 2)
    cofactors = [random_word(rng, 3, letters, operators) for _ in range(depth + 1)]
    return Context(cofactors, [rng.choice(operators) for _ in range(depth)])


def test_reducts_built_in_their_context_match_the_instance_path(monkeypatch):
    # a table of its own that is never cleared, so every word built below
    # stays the table's object
    monkeypatch.setattr(terms, "_TABLE", dict(terms._TABLE))
    monkeypatch.setattr(terms, "_TABLE_LIMIT", 10**9)
    rng = random.Random(58)
    letters, operators = ("x", "y"), (OP_D, OP_P)
    for rule in _RULES:
        for _ in range(20):
            binding = {
                v: random_word(rng, rng.choice((0, 1, 3)), letters, operators)
                for v in rule.variables
            }
            match = Match(rule, _random_context(rng, letters, operators), binding)
            sibling = random_word(rng, 2, letters, operators)
            wrapped = match.wrap(sibling, rng.choice(operators))
            for mt in (match, wrapped, wrapped.wrap(sibling, rng.choice(operators))):
                reduct = mt.reduct()
                assert reduct == reduct_reference(mt), rule.name
                assert all(terms._TABLE[(w.letters, w.ops)] is w for w in reduct)
                w = random_word(rng, 3, letters, operators)
                built = mt.context.substitute(w)
                assert built == substitute_reference(mt.context, w)
                assert terms._TABLE[(built.letters, built.ops)] is built


def test_rewrite_word_counts(monkeypatch):
    # built through rule-instance words and singleton words op(w), the same
    # reductions took 4,401 and 4,825 interned entries and 5,319 and 8,147
    # Word(...) calls; a table of its own, never cleared, so test order
    # cannot move the counts, and fresh letters, so every word is new and
    # holds no matches yet
    monkeypatch.setattr(terms, "_TABLE", dict(terms._TABLE))
    monkeypatch.setattr(terms, "_TABLE_LIMIT", 10**9)
    interned = []
    built = []
    intern, init = terms._intern, Word.__init__

    def counting_intern(ident, value):
        interned.append(ident)
        intern(ident, value)

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    counts = []
    for theory, text in [
        (RB_THEORY, "p(q1*q1)*p(q2)*p(q3*q3)*p(q4)*p(q5)"),
        (D_THEORY, "*".join(f"d(r{i})" for i in range(9))),
    ]:
        f = P(text)
        interned.clear()
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(terms, "_intern", counting_intern)
            m.setattr(Word, "__init__", counting_init)
            res = normal_form(f, theory.rules)
        counts.append((len(res.poly), len(interned), len(built)))
    # asking every word for all its matches, not for its least one alone,
    # took (3735, 4170) and (3577, 6644)
    assert counts == [(541, 3705, 3710), (511, 2263, 3514)]


def _fresh_table(monkeypatch, limit=10**9, table=None):
    """Give the words a table of their own, holding only the unit word with
    no matches, so every word built from now on is new and unmatched."""
    unit = Word.unit()
    object.__setattr__(unit, "_memo", None)
    table = {} if table is None else table
    table[((), ())] = unit
    monkeypatch.setattr(terms, "_TABLE", table)
    monkeypatch.setattr(terms, "_TABLE_LIMIT", limit)
    return table


def _memo_entries():
    """(memo entries, the set of their types) over the table's words."""
    entries = [
        found
        for w in terms._TABLE.values() if type(w) is Word and w._memo
        for found in w._memo.values()
    ]
    return len(entries), {type(found) for found in entries}


def _count_level_matches(monkeypatch):
    """Start a fresh word table and count _match_at_level calls from now on."""
    calls = []
    match = rewrite._match_at_level

    def counting(pattern, level):
        calls.append(level)
        return match(pattern, level)

    _fresh_table(monkeypatch)
    monkeypatch.setattr(rewrite, "_match_at_level", counting)
    return calls


def test_match_work_counts(monkeypatch):
    calls = _count_level_matches(monkeypatch)
    res = normal_form(P("p(a)*p(b*b)*p(c)"), RB_THEORY.rules)
    assert len(res.poly) == 13
    # one top-level match per distinct (rule, word), arguments included,
    # each kept in the word's memo; walking every level of every word took
    # 111.  Every entry is the word's stream of matches for the rule, built
    # as far as the leading reducer read it
    assert len(calls) == 84
    assert _memo_entries() == (84, {rewrite._Stream})
    # a word around an already-matched argument costs one top-level match
    rule = RB_THEORY.rule("p_rota_baxter")
    arg = P("p(x)*p(y*y)").leading_word()
    match_rule(arg, rule)
    calls.clear()
    matches = match_rule(p(arg) * X, rule)
    assert calls == [p(arg) * X]
    assert matches == match_rule_reference(p(arg) * X, rule) and matches


def test_every_stream_made_is_kept(monkeypatch):
    # a first read that matches nothing, at the top level or in any
    # argument, returns the shared empty stream before making one; making
    # one per miss dropped 3,244 of the 3,884 made on this input
    made = []

    class Counted(rewrite._Stream):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    _fresh_table(monkeypatch)
    monkeypatch.setattr(rewrite, "_Stream", Counted)
    res = normal_form(P("p(q1*q1)*p(q2)*p(q3*q3)*p(q4)*p(q5)"), RB_THEORY.rules)
    assert len(res.poly) == 541
    kept = {
        id(stream)
        for w in terms._TABLE.values() if type(w) is Word and w._memo
        for stream in w._memo.values()
    }
    assert made and all(id(stream) in kept for stream in made)


def test_match_work_counts_on_nf_batch_corpus(monkeypatch):
    """Matches built and top-level matches made on the benchmark's nf-batch
    corpus (seed 1), with presets built afresh: the leading reducer alone,
    then each text reduced with leading and then with random, as the
    benchmark does.  The random pass reads each stream on from where the
    leading pass left it; rebuilding every match list took 1,819 matches
    and 4,870 level matches.  A change that lowers a count should lower its
    pin with it."""
    texts = nf_batch_texts(1)
    built = []
    set_ = Match._set

    def counting(match, *args):
        built.append(match)
        set_(match, *args)

    monkeypatch.setattr(Match, "_set", counting)
    calls = _count_level_matches(monkeypatch)
    counts = []
    for strategies in (("leading",), ("leading", "random")):
        _fresh_table(monkeypatch)
        presets = _build_presets()
        theories = [presets[name] for name in ("d", "rb", "drb") for _ in range(800)]
        built.clear()
        calls.clear()
        for i, (theory, text) in enumerate(zip(theories, texts)):
            for strategy in strategies:
                normal_form(P(text), theory.rules, strategy=strategy, seed=i)
        counts.append((len(built), len(calls)))
    assert counts == [(665, 3461), (1226, 4540)]


def test_threads_reading_on_one_stream_agree():
    # reading a kept stream on grows it in place; four threads read the same
    # fresh words' streams to the end, switching as often as they can, after
    # the leading reducer's first read
    rules = RB_THEORY.rules + D_THEORY.rules
    words = [
        P("*".join(f"p(a{k}{i}*p(b{k}{i})*p(c{k}{i}))" for i in range(4))).leading_word()
        for k in range(20)
    ]
    for w in words:
        for rule in rules:
            rewrite._least_match(w, rule)
    results = []

    def read():
        results.append([[list(match_rule(w, rule)) for rule in rules] for w in words])

    threads = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    reference = [[match_rule_reference(w, rule) for rule in rules] for w in words]
    assert results == [reference] * 4


def _least_match_corpus(rng):
    """Seeded words up to size 7; rule instances put into contexts up to
    depth 2, with bindings that include the unit word; and products of two
    such instances each under an operator, so that several arguments match
    and the top level may not."""
    letters, operators = ("x", "y"), (OP_D, OP_P)
    words = [random_word(rng, rng.randint(0, 7), letters, operators) for _ in range(150)]
    instances = []
    for rule in _RULES:
        for _ in range(8):
            binding = {
                v: random_word(rng, rng.choice((0, 0, 1, 2, 3)), letters, operators)
                for v in rule.variables
            }
            ctx = _random_context(rng, letters, operators)
            instances.append(ctx.substitute(rule.lhs_instance(binding)))
    words += instances
    for _ in range(150):
        u, v = rng.sample(instances, 2)
        words.append(u.apply(rng.choice(operators)) * v.apply(rng.choice(operators)))
    return words


def _check_least_matches(words):
    for m in words:
        least = [rewrite._least_match(m, rule) for rule in _RULES]
        for rule, mt in zip(_RULES, least):
            matches = match_rule(m, rule)
            assert mt == (matches or [None])[0], (str(m), rule.name)
            assert rewrite._least_match(m, rule) == mt
            reference = match_rule_reference(m, rule)
            assert matches == reference, (str(m), rule.name)
            assert [x.key for x in matches] == [x.key for x in reference]
            if mt is not None:
                assert mt.key == matches[0].key and mt.reduct() == matches[0].reduct()


@pytest.mark.parametrize("limit", [10**9, 60])
def test_least_match_is_the_first_match(monkeypatch, limit):
    # on a fresh table every word is new, so its least match is found
    # before any caller asks for all of them; a table of 60 entries is
    # cleared inside the recursion
    clears = []

    class Table(dict):
        def clear(self):
            clears.append(len(self))
            super().clear()

    _fresh_table(monkeypatch, limit=limit, table=Table())
    _check_least_matches(_least_match_corpus(random.Random(61)))
    assert bool(clears) == (limit == 60)


def test_table_clears_mid_recursion_change_no_result(monkeypatch):
    texts = [
        (RB_THEORY, "p(x)*p(y*y)*p(z)*p(w*w)*p(v)"),
        (D_THEORY, "d(a)*d(b*b)*d(c)*d(e)*d(f*f)*d(g)*d(h*h)*d(k)*d(m)"),
    ]
    expected = [normal_form(P(text), theory.rules, collect_steps=True) for theory, text in texts]
    verdict = verify_gs(RB_THEORY, VerifyConfig(1, 1, True))
    depth = [0]
    clear_depths = []
    matched = []

    class Table(dict):
        def clear(self):
            # _intern drops the memos before it clears
            assert all(w._memo is None for w in self.values() if type(w) is Word)
            clear_depths.append(depth[0])
            super().clear()

    def tracking(match):
        def tracked(m, *args):
            matched.append(m)
            depth[0] += 1
            try:
                return match(m, *args)
            finally:
                depth[0] -= 1
        return tracked

    # a table this small, fresh so that every word misses it, is cleared
    # inside the match recursion of most words
    _fresh_table(monkeypatch, limit=100, table=Table())
    # the one walker's entry: every word whose stream some caller reads
    monkeypatch.setattr(rewrite, "_stream", tracking(rewrite._stream))
    for (theory, text), ref in zip(texts, expected):
        f = P(text)
        lead = f.leading_word()
        res = normal_form(f, theory.rules, collect_steps=True)
        assert res.poly == ref.poly
        assert _step_keys(res.steps) == _step_keys(ref.steps)
        # the first redex was matched, then dropped by a later clear
        assert any(m is lead for m in matched)
        assert terms._TABLE.get((lead.letters, lead.ops)) is not lead
        assert lead._memo is None
    assert [len(r.poly) for r in expected] == [541, 511]
    assert verify_gs(RB_THEORY, VerifyConfig(1, 1, True)) == verdict
    assert max(clear_depths) >= 2
    assert len(terms._TABLE) <= 100
