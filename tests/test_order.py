import random

from opalg.sampling import random_word
from opalg.terms import EQUAL, GREATER, LESS, OP_D, OP_P, Context, Word, compare, compare_explain

X = Word.letter("x")
Y = Word.letter("y")


def d(w):
    return w.apply(OP_D)


def p(w):
    return w.apply(OP_P)


def test_degree_tier():
    assert compare(X * Y, p(X)) == LESS
    assert compare_explain(X * Y, p(X))[1] == "degree"


def test_operator_tier():
    verdict, tier = compare_explain(p(X), d(X))
    assert verdict == LESS and tier == "lex(operator)"


def test_reflexive():
    w = d(p(X) * Y)
    assert compare(w, w) == EQUAL


def test_breadth_tier():
    left = p(X) * p(Y)
    right = (X * p(Y)).apply(OP_P)
    verdict, tier = compare_explain(left, right)
    assert verdict == GREATER and tier == "op-breadth"


def test_letters_tier():
    verdict, tier = compare_explain(X * X, X * Y)
    assert verdict == LESS and tier == "lex(letters)"


def _sample(rng):
    return random_word(rng, 6, ("x", "y", "z"), (OP_D, OP_P))


def test_totality_antisymmetry():
    rng = random.Random(21)
    for _ in range(2000):
        u, v = _sample(rng), _sample(rng)
        c1, c2 = compare(u, v), compare(v, u)
        assert c1 == -c2
        assert (c1 == EQUAL) == (u == v)


def test_transitivity_spot_checks():
    rng = random.Random(22)
    for _ in range(2000):
        a, b, c = sorted((_sample(rng) for _ in range(3)), key=lambda w: w.key)
        assert compare(a, b) <= 0 and compare(b, c) <= 0 and compare(a, c) <= 0


def _random_context(rng):
    depth = rng.randint(0, 2)
    cofs = [random_word(rng, 2, ("a", "b"), (OP_D, OP_P)) for _ in range(depth + 1)]
    ops = [(OP_D, OP_P)[rng.randrange(2)] for _ in range(depth)]
    return Context(cofs, ops)


def test_monomial_property():
    rng = random.Random(23)
    for _ in range(2000):
        u, v = _sample(rng), _sample(rng)
        if u == v:
            continue
        if compare(u, v) == GREATER:
            u, v = v, u
        q = _random_context(rng)
        assert compare(q.substitute(u), q.substitute(v)) == LESS


def test_product_compatibility():
    rng = random.Random(24)
    for _ in range(2000):
        u, v = _sample(rng), _sample(rng)
        if u == v:
            continue
        if compare(u, v) == GREATER:
            u, v = v, u
        w = _sample(rng)
        assert compare(u * w, v * w) == LESS
