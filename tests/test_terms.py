import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from opalg import terms
from opalg.cli import format_polynomial, parse_polynomial
from opalg.gsbases import enumerate_words, preset
from opalg.rewrite import find_occurrences, normal_form
from opalg.terms import (
    OP_D,
    OP_P,
    Context,
    OpApp,
    Operator,
    Word,
    substitute_letters,
)
from opalg.sampling import random_polynomial, random_word

from oracles import oracle_occurrences, substitute_reference, word_fields_reference

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


def test_context_wrap_is_the_context_one_level_down():
    rng = random.Random(8)
    for _ in range(50):
        ctx = _random_context(rng)
        s = random_word(rng, 3, ("a", "b"), (OP_D, OP_P))
        op = (OP_D, OP_P)[rng.randrange(2)]
        wrapped = ctx.wrap(s, op)
        built = Context((s,) + ctx.cofactors, (op,) + ctx.ops)
        assert wrapped == built and wrapped.key == built.key and hash(wrapped) == hash(built)
        assert wrapped.substitute(X) == s * ctx.substitute(X).apply(op)


def test_context_hash_is_built_on_first_use():
    rng = random.Random(9)
    for _ in range(50):
        ctx = _random_context(rng)
        for c in (ctx, ctx.wrap(random_word(rng, 3, ("a", "b"), (OP_D, OP_P)), OP_P)):
            assert c._hash is None
            h = hash(c)
            assert h == hash((c.key[0],) + tuple(w._hash for w in c.cofactors))
            assert c._hash == h == hash(c)


def test_context_substitute_builds_each_level_as_one_word():
    rng = random.Random(10)
    for _ in range(200):
        ctx = _random_context(rng)
        w = random_word(rng, 4, ("a", "b"), (OP_D, OP_P))
        built = ctx.substitute(w)
        assert terms._TABLE.get((built.letters, built.ops)) is built
        assert built == substitute_reference(ctx, w)


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


def test_substitute_letters_returns_an_unmapped_word_itself():
    rng = random.Random(9)
    for _ in range(50):
        w = random_word(rng, 6, ("x", "y"), (OP_D, OP_P))
        assert substitute_letters(w, {"z": X * Y}) is w
        assert substitute_letters(w, {}) is w
    assert substitute_letters(d(X) * Y, {"y": Word.unit()}) is d(X)


def test_str_round_shapes():
    assert str(Word.unit()) == "1"
    assert str(d(Word.unit())) == "d(1)"
    assert str(d(p(X)) * Y) == "d(p(x))*y"


# -- hash-consing --------------------------------------------------------------

@pytest.fixture(autouse=True)
def _fresh_table(monkeypatch):
    """Equal words are one object only among the words built since the
    bounded table was last cleared, and the tests run before these may have
    cleared it, so each test here starts from a table holding the unit."""
    monkeypatch.setattr(terms, "_TABLE", {((), ()): Word.unit()})


_NAMES = st.sampled_from("xyz")
_OPS = st.sampled_from((OP_D, OP_P))
_WORDS = st.recursive(
    st.lists(_NAMES, max_size=3).map(Word),
    lambda inner: st.builds(
        Word, st.lists(_NAMES, max_size=2), st.lists(st.builds(OpApp, _OPS, inner), max_size=3)
    ),
    max_leaves=10,
)


def _is_interned(w):
    """Whether w and every word and application inside it is the table's object."""
    if terms._TABLE.get((w.letters, w.ops)) is not w:
        return False
    return all(
        terms._TABLE.get((f.op.rank, f.op.name, f.arg)) is f and _is_interned(f.arg)
        for f in w.ops
    )


def _subwords(w, out):
    out.append(w)
    for f in w.ops:
        _subwords(f.arg, out)
    return out


@given(_WORDS, st.data())
def test_every_factor_order_gives_the_same_object(w, data):
    letters = data.draw(st.permutations(w.letters))
    ops = data.draw(st.permutations(w.ops))
    assert Word(letters, ops) is w
    factors = [Word.letter(name) for name in letters] + [Word((), (f,)) for f in ops]
    product = Word.unit()
    for factor in data.draw(st.permutations(factors)):
        product = product * factor
    assert product is w
    assert _is_interned(w)


@given(_WORDS, _WORDS, _OPS)
def test_word_operations_return_the_tables_objects(u, v, op):
    uv = u * v
    assert _is_interned(uv)
    assert _is_interned(u.apply(op))
    assert uv.subtract(v) is u and uv.subtract(u) is v
    assert _is_interned(substitute_letters(uv, {"x": v, "y": Word.unit()}))
    ctx = Context((u, v), (op,))
    assert _is_interned(ctx.substitute(v))
    assert ctx.substitute(Word.unit()) is u * v.apply(op)
    assert (Word.unit() * Word.unit()) is Word.unit() is Word()


def test_rebuilding_interned_words_sorts_nothing(monkeypatch):
    # the table is looked up before the factors are sorted, so a word built
    # from its canonical tuples, as products and contexts mostly are, is a
    # hit without a sort; only a miss sorts
    rng = random.Random(42)
    corpus = []
    for _ in range(100):
        _subwords(random_word(rng, 7, ("x", "y"), (OP_D, OP_P)), corpus)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return sorted(*args, **kwargs)

    monkeypatch.setattr(terms, "sorted", counting, raising=False)
    for w in corpus:
        assert Word(w.letters, w.ops) is w
        assert all(OpApp(f.op, f.arg) is f for f in w.ops)
        assert w * Word.unit() is w
    assert calls == []
    w = d(X) * p(Y) * X * Y
    calls.clear()
    assert Word(w.letters[::-1], w.ops[::-1]) is w
    assert calls == [w.letters[::-1], w.ops[::-1]]


def test_one_pass_build_matches_the_reference_formulas(monkeypatch):
    rng = random.Random(46)
    corpus = []
    for _ in range(150):
        _subwords(random_word(rng, 8, ("x", "y", "z"), (OP_D, OP_P)), corpus)
    # a fresh table, so the first rebuild of each word is a miss
    monkeypatch.setattr(terms, "_TABLE", {((), ()): Word.unit()})
    misses = 0
    for w in corpus:
        letters, ops = list(w.letters), list(w.ops)
        rng.shuffle(letters)
        rng.shuffle(ops)
        size = len(terms._TABLE)
        built = Word(letters, ops)
        misses += len(terms._TABLE) - size
        assert (built.key, built._hash, built.op_degree, built.letter_degree) == (
            word_fields_reference(letters, ops)
        )
        assert built == w and Word(w.letters, w.ops) is built
    assert misses == len(set(corpus) - {Word.unit()})
    # a one-entry factor tuple is never sorted
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return sorted(*args, **kwargs)

    monkeypatch.setattr(terms, "sorted", counting, raising=False)
    assert Word(("fresh_x",), (OpApp(OP_D, Word.letter("fresh_y")),)).breadth == 2
    assert calls == []


def test_words_built_beside_a_cofactor_are_one_lookup_on_a_hit(monkeypatch):
    # a product merges its two sorted runs, _beside puts the new factor at
    # its place and _substitute_beside sorts before its lookup, so a word
    # already in the table is found by the first lookup
    class Table(dict):
        misses = 0

        def get(self, ident, default=None):
            found = dict.get(self, ident, default)
            if found is None:
                self.misses += 1
            return found

    rng = random.Random(47)
    letters, operators = ("x", "y", "z"), (OP_D, OP_P)
    cases = []
    for _ in range(300):
        u, v, w = (random_word(rng, rng.randint(0, 5), letters, operators) for _ in range(3))
        op = rng.choice(operators)
        mapping = {"x": random_word(rng, rng.randint(0, 3), letters, operators)}
        image = substitute_letters(w, mapping)
        cases += [
            (lambda u=u, v=v: u * v, u.letters + v.letters, u.ops + v.ops),
            (lambda u=u, op=op, w=w: terms._beside(u, op, w), u.letters, u.ops + (OpApp(op, w),)),
            (
                lambda u=u, w=w, mapping=mapping: terms._substitute_beside(w, mapping, u),
                u.letters + image.letters,
                u.ops + image.ops,
            ),
        ]
    unsorted = sum(
        list(letters) != sorted(letters, reverse=True)
        or list(ops) != sorted(ops, key=lambda f: f.key, reverse=True)
        for _, letters, ops in cases
    )
    assert unsorted > 100
    table = Table({((), ()): Word.unit()})
    monkeypatch.setattr(terms, "_TABLE", table)
    for build, letters, ops in cases:
        built = build()
        assert (built.key, built._hash, built.op_degree, built.letter_degree) == (
            word_fields_reference(letters, ops)
        )
        table.misses = 0
        assert build() is built
        assert table.misses == 0


def test_parsed_and_enumerated_words_are_interned():
    f = parse_polynomial("2*d(p(x)*y)*x + L*p(d(y))*p(d(y)) - d(1) + 3")
    assert all(_is_interned(w) for w in f.monomials())
    words = enumerate_words(4, ("x", "y"), (OP_D, OP_P))
    assert all(_is_interned(w) for w in words)
    assert len({id(w) for w in words}) == len(words)


def test_equality_is_identity_on_a_seeded_corpus():
    rng = random.Random(41)
    corpus = []
    for _ in range(150):
        _subwords(random_word(rng, 7, ("x", "y"), (OP_D, OP_P)), corpus)
    apps = [f for w in corpus for f in w.ops]
    for items in (corpus, apps):
        for a in items:
            for b in items:
                assert (a == b) is (a is b)


def test_forced_table_clears_change_no_result(monkeypatch):
    rng = random.Random(43)
    theory = preset("drb")
    inputs = [
        random_polynomial(rng, 7, ("x", "y"), (OP_D, OP_P)) for _ in range(25)
    ]
    before = [normal_form(f, theory.rules).poly for f in inputs]
    words = sorted({w for g in before for w in g.monomials()}, key=lambda w: w.key)
    # clear a copy of the table, so words built by other tests stay interned
    monkeypatch.setattr(terms, "_TABLE", dict(terms._TABLE))
    monkeypatch.setattr(terms, "_TABLE_LIMIT", 8)
    for i in range(10):  # words never built before: misses that force a clear
        Word.letter(f"fresh{i}")
    assert len(terms._TABLE) <= 9 and terms._TABLE[((), ())] is Word.unit()
    after = [normal_form(f, theory.rules).poly for f in inputs]
    assert [format_polynomial(g) for g in after] == [format_polynomial(g) for g in before]
    assert after == before
    rebuilt = [parse_polynomial(str(w)).leading_word() for w in words]
    assert any(a is not b for a, b in zip(rebuilt, words)), "no clear happened"
    for a, b in zip(rebuilt, words):
        assert a == b and b == a and hash(a) == hash(b) and a.key == b.key
        assert not a < b and not b < a
    assert sorted(rebuilt, key=lambda w: w.key) == words


# -- copy and pickle -------------------------------------------------------------

def _copies(value):
    return (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))


def test_operator_copy_and_pickle():
    for op in (OP_D, OP_P, Operator("q", 3)):
        for c in _copies(op):
            assert c == op and hash(c) == hash(op) and (c.name, c.rank) == (op.name, op.rank)


def test_opapp_copy_and_pickle_return_the_interned_object():
    rng = random.Random(44)
    for _ in range(30):
        w = random_word(rng, 6, ("x", "y"), (OP_D, OP_P))
        for f in w.apply(OP_P).ops:
            assert all(c is f for c in _copies(f))


def test_word_copy_and_pickle_return_the_interned_object():
    rng = random.Random(45)
    for _ in range(30):
        w = random_word(rng, 7, ("x", "y"), (OP_D, OP_P))
        assert all(c is w for c in _copies(w))
    assert all(c is Word.unit() for c in _copies(Word.unit()))


def test_context_copy_and_pickle():
    rng = random.Random(46)
    s = random_word(rng, 4, ("x", "y"), (OP_D, OP_P))
    for _ in range(30):
        ctx = _random_context(rng)
        for c in _copies(ctx):
            assert c == ctx and hash(c) == hash(ctx) and str(c) == str(ctx)
            assert c.substitute(s) is ctx.substitute(s)
