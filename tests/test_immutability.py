"""Every construction path of every value class hands out a frozen value.

A value is built in its class's draft (a subclass that still takes slot
stores) and frozen by one ``__class__`` store before anyone sees it; these
tests build values by each path and check that none escapes as a draft.
Letters prefixed ``imm`` are used nowhere else, so the words built here are
misses of the word table, not hits.
"""

import copy
import pickle

import pytest

from opalg import terms
from opalg.cli import parse_polynomial as P
from opalg.coeff import ONE, Scalar
from opalg.gsbases import preset
from opalg.poly import OpPolynomial
from opalg.rewrite import Match, RuleSchema, match_rule
from opalg.terms import OP_D, OP_P, Context, OpApp, Operator, Word, substitute_letters


def _assert_frozen(values, cls, identical=False):
    assert values
    for x in values:
        assert type(x) is cls
        for name in cls.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        for c in (copy.copy(x), pickle.loads(pickle.dumps(x))):
            assert type(c) is cls and c == x
            assert c is x or not identical


def _assert_table_frozen():
    assert all(type(v) in (Word, OpApp) for v in terms._TABLE.values())


def _letter(name):
    return Word.letter("imm" + name)


def test_words_are_frozen_on_every_path():
    a, b, c = _letter("a"), _letter("b"), _letter("c")
    words = [
        a,
        Word(("immd", "imme"), ()),
        a * b.apply(OP_P),
        b * a * c,
        terms._beside(a * b, OP_D, c),
        substitute_letters(P("p(x)*y").leading_word(), {"x": a, "y": b * c}),
        terms._substitute_beside(P("d(x)").leading_word(), {"x": c}, a),
        Word.unit(),
    ]
    _assert_frozen(words, Word, identical=True)
    _assert_table_frozen()


def test_opapps_are_frozen():
    apps = [OpApp(OP_D, _letter("f")), OpApp(OP_P, _letter("g") * _letter("h"))]
    apps += _letter("i").apply(OP_P).apply(OP_D).ops
    _assert_frozen(apps, OpApp, identical=True)
    _assert_table_frozen()


def test_operators_are_frozen():
    _assert_frozen([OP_D, OP_P, Operator("q", 3)], Operator)


def test_contexts_are_frozen_on_every_path():
    a, b = _letter("j"), _letter("k")
    top = Context.top(a)
    contexts = [
        Context((a, b), (OP_P,)),
        top,
        Context.star(),
        top.wrap(b, OP_D),
        top.compose(Context((Word.unit(), a), (OP_P,))),
    ]
    _assert_frozen(contexts, Context)


def test_matches_are_frozen_on_every_path():
    rule = preset("rb").rules[0]
    word = P("p(p(x)*p(y))*p(p(z)*p(p(x)*p(y)))").leading_word()
    found = match_rule(word, rule)
    top = [mt for mt in found if not mt.context.ops]
    wrapped = [mt for mt in found if mt.context.ops]
    assert top and wrapped
    made = Match(rule, top[0].context, top[0].binding)
    _assert_frozen(top + wrapped + [made, top[0].wrap(_letter("l"), OP_D)], Match)


def test_rule_schemas_are_frozen():
    _assert_frozen(list(preset("drb").rules), RuleSchema)
    _assert_frozen([RuleSchema("imm", ("x",), P("d(x) - x"))], RuleSchema)


def test_scalars_are_frozen_on_every_path():
    lam = Scalar.lam(1)
    dense = Scalar((1, 2), (3,))
    scalars = [
        dense,
        Scalar((0, 5)),  # built dense, with a monomial view
        dense * dense,
        dense + ONE,
        dense ** 3,
        lam,
        Scalar.from_rational(2, 3),
        lam * Scalar.from_rational(-4),
        lam.inverse(),
        -lam,
        lam ** 5,
    ]
    _assert_frozen(scalars, Scalar)


def test_polynomials_are_frozen_on_every_path():
    f, g = P("p(x)*y + 2*L*x"), P("d(x) - 3")
    polys = [
        f,
        OpPolynomial(),
        OpPolynomial.from_word(_letter("m")),
        f + g,
        f - g,
        f * g,
        f.scale(Scalar.lam(2)),
        f.apply_operator(OP_D),
        f.in_context(Context.top(_letter("n"))),
    ]
    _assert_frozen(polys, OpPolynomial)
