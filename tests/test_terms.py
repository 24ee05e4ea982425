import random

import pytest

from opalg.rewrite import find_occurrences
from opalg.terms import (
    OP_D,
    OP_P,
    Context,
    Word,
    substitute_letters,
)
from opalg.sampling import random_word

from oracles import oracle_occurrences

X = Word.letter("x")
Y = Word.letter("y")
Z = Word.letter("z")


def d(w):
    return w.apply(OP_D)


def p(w):
    return w.apply(OP_P)


def test_unit_law():
    assert X * Word.unit() == X
    assert Word.unit() * Word.unit() == Word.unit()


def test_commutativity():
    assert X * Y == Y * X
    assert d(X) * Y * p(Z) == p(Z) * (Y * d(X))


def test_square_vs_tower():
    square = d(X) * d(X)
    tower = d(d(X))
    assert square != tower
    assert square.breadth == 2
    assert tower.breadth == 1
    assert square.op_degree == tower.op_degree == 2


def test_operator_application_statistics():
    w = d(p(X))
    assert w.op_degree == 2
    assert w.depth == 2
    assert d(Word.unit()).breadth == 1
    assert not d(Word.unit()).is_unit()


def test_canonical_form_shuffle_invariance():
    rng = random.Random(3)
    factors = [d(X), p(Y), d(X * Y), Word.letter("a"), Word.letter("a"), p(Y)]
    reference = None
    for _ in range(20):
        rng.shuffle(factors)
        w = Word.unit()
        for f in factors:
            w = w * f
        if reference is None:
            reference = w
        assert w == reference
        assert w.key == reference.key


def test_statistics_additivity_random():
    rng = random.Random(4)
    for _ in range(200):
        u = random_word(rng, 6, ("x", "y"), (OP_D, OP_P))
        v = random_word(rng, 6, ("x", "y"), (OP_D, OP_P))
        uv = u * v
        assert uv.breadth == u.breadth + v.breadth
        assert uv.op_degree == u.op_degree + v.op_degree
        assert d(u).depth == u.depth + 1


def test_substitute_identity_context():
    star = Context.star()
    w = d(X) * Y
    assert star.substitute(w) == w


def test_substitute_examples():
    q = Context((Y, Word.unit()), (OP_D,))  # d(*)·y
    assert q.substitute(X) == d(X) * Y
    q2 = Context((Word.unit(), Z), (OP_P,))  # p(*·z)
    assert q2.substitute(X * Y) == p(X * Y * Z)


def test_context_composition():
    rng = random.Random(5)
    for _ in range(100):
        outer = _random_context(rng)
        inner = _random_context(rng)
        s = random_word(rng, 4, ("x", "y"), (OP_D, OP_P))
        assert outer.substitute(inner.substitute(s)) == outer.compose(inner).substitute(s)


def _random_context(rng):
    depth = rng.randint(0, 2)
    cofs = [random_word(rng, 2, ("a", "b"), (OP_D, OP_P)) for _ in range(depth + 1)]
    ops = [(OP_D, OP_P)[rng.randrange(2)] for _ in range(depth)]
    return Context(cofs, ops)


def test_context_requires_single_hole_shape():
    with pytest.raises(ValueError):
        Context((X,), (OP_D,))


def test_find_occurrences_examples():
    assert find_occurrences(X, X) == [Context.star()]
    m = d(p(X)) * Y
    occ = find_occurrences(m, p(X))
    assert occ == [Context((Y, Word.unit()), (OP_D,))]
    assert find_occurrences(X * Y, d(X)) == []


def test_find_occurrences_unit_target_rejected():
    with pytest.raises(ValueError):
        find_occurrences(X, Word.unit())


def test_find_occurrences_matches_bruteforce():
    rng = random.Random(6)
    checked = 0
    while checked < 150:
        m = random_word(rng, 6, ("x", "y"), (OP_D, OP_P))
        t = random_word(rng, 3, ("x", "y"), (OP_D, OP_P), allow_unit=False)
        if t.is_unit():
            continue
        checked += 1
        assert find_occurrences(m, t) == oracle_occurrences(m, t)


def test_substitute_letters_merges():
    w = d(X * Y) * X
    out = substitute_letters(w, {"x": p(Z) * Z})
    assert out == d(p(Z) * Z * Y) * p(Z) * Z


def test_str_round_shapes():
    assert str(Word.unit()) == "1"
    assert str(d(Word.unit())) == "d(1)"
    assert str(d(p(X)) * Y) == "d(p(x))*y"
