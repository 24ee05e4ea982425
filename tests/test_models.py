import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opalg.cli import parse_polynomial as P
from opalg.gsbases import preset
from opalg.models import (
    DegenerateModel,
    HurwitzConstrainedModel,
    HurwitzSeries,
    LeftMultiplicationModel,
    MissingAssignment,
    NonunitalModel,
    OperatorModel,
    RationalRing,
    check_axioms,
    evaluate_in_model,
)
from opalg.rewrite import normal_form
from opalg.sampling import random_polynomial, random_word
from oracles import (
    hurwitz_derive_reference,
    hurwitz_integrate_reference,
    hurwitz_product_reference,
    hurwitz_scale_reference,
    hurwitz_sum_reference,
)

RING = RationalRing()
W32 = Fraction(3, 2)


def test_hurwitz_unit_and_zero():
    # the constrained algebra has no unit; its zero absorbs products
    model = HurwitzConstrainedModel(RING, W32, window=8)
    f = model.element(Fraction(5, 3))
    zero = model.zero()
    with pytest.raises(NonunitalModel):
        model.one()
    assert (f * zero).agrees(zero) and (zero * f).agrees(zero)
    assert (f + zero).agrees(f) and model.coeffs(zero) == (0,) * 8


def test_scalar_times_series_goes_through_scale(monkeypatch):
    # k * series is series.scale(k) looked up when called, so a wrapper on
    # scale, as the benchmark's tracer installs, counts it too
    a = HurwitzConstrainedModel(RING, W32, window=3).element(1)
    calls = []
    scale = HurwitzSeries.scale

    def counted(self, k):
        calls.append(k)
        return scale(self, k)

    monkeypatch.setattr(HurwitzSeries, "scale", counted)
    got = Fraction(2) * a
    assert calls == [Fraction(2)]
    assert got.agrees(a + a)
    assert (3 * a).agrees(a + a + a) and calls == [Fraction(2), 3]


def test_hurwitz_product_commutative_associative():
    rng = random.Random(61)
    model = HurwitzConstrainedModel(RING, W32, window=8)
    for _ in range(30):
        f, g, h = (model.element(RING.sample(rng)) for _ in range(3))
        assert (f * g).agrees(g * f)
        assert ((f * g) * h).agrees(f * (g * h))


def test_constrained_closed_under_product():
    rng = random.Random(62)
    for w in (Fraction(1), Fraction(-1), W32, Fraction(5, 7)):
        model = HurwitzConstrainedModel(RING, w, window=8)
        for _ in range(20):
            f, g = (model.element(RING.sample(rng)) for _ in range(2))
            c = model.coeffs(f * g)
            for n in range(1, len(c)):
                assert c[n] == (-1 / w) * c[n - 1]


_RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
_WEIGHTS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
# each base ring with a strategy for its elements
_BASES = {"rationals": (RING, _RATIONALS)}


def _draw_constrained(data, model, elements):
    """A constrained series, zero seeds included, on a window of 1 to 10, and
    its coefficients from the recurrence f(n) = -(1/w) f(n-1)."""
    ring, w = model.ring, model.weight
    coeffs = [data.draw(st.one_of(st.just(ring.zero()), elements))]
    for _ in range(data.draw(st.integers(0, 9))):
        coeffs.append((-1 / w) * coeffs[-1])
    on_window = HurwitzConstrainedModel(ring, w, window=len(coeffs))
    return on_window.element(coeffs[0]), tuple(coeffs)


def _assert_same_series(model, got, want, known):
    # want holds the coefficients from the oracle; window and agrees must
    # read as the same comparisons made on coefficients.  known holds
    # (series, coefficients) pairs to compare with.
    assert model.coeffs(got) == want
    assert got.window == len(want)
    for other, other_coeffs in ((got, want), *known):
        n = min(len(want), len(other_coeffs))
        if n < 1:
            with pytest.raises(ValueError):
                got.agrees(other)
            with pytest.raises(ValueError):
                other.agrees(got)
        else:
            same = want[:n] == other_coeffs[:n]
            assert got.agrees(other) == same and other.agrees(got) == same


@pytest.mark.parametrize("base", _BASES)
@given(data=st.data(), w=_WEIGHTS)
def test_hurwitz_product_matches_defining_formula(base, data, w):
    ring, elements = _BASES[base]
    model = HurwitzConstrainedModel(ring, w)
    (f, fc), (g, gc) = (_draw_constrained(data, model, elements) for _ in range(2))
    fg = f * g
    _assert_same_series(model, fg, hurwitz_product_reference(fc, gc, w), [(f, fc), (g, gc)])
    # the weighted Leibniz rule, which makes sigma = id + w*d multiplicative
    df, dg = model.d(f), model.d(g)
    rhs = df * g + f * dg + w * (df * dg)
    assert model.coeffs(model.d(fg)) == model.coeffs(rhs)


# the model's shifts and their compositions, innermost last, with their oracles
_SHIFTS = {
    "derive": (HurwitzConstrainedModel.d, lambda c, w: hurwitz_derive_reference(c)),
    "integrate": (HurwitzConstrainedModel.p, hurwitz_integrate_reference),
}
_CHAINS = [
    ("derive",), ("integrate",),
    ("derive", "integrate"), ("integrate", "derive"), ("integrate", "integrate"),
]


@pytest.mark.parametrize("base", _BASES)
@given(data=st.data(), w=_WEIGHTS, k=_RATIONALS)
def test_hurwitz_operations_match_coefficient_oracle(base, data, w, k):
    ring, elements = _BASES[base]
    model = HurwitzConstrainedModel(ring, w)
    (f, fc), (g, gc) = (_draw_constrained(data, model, elements) for _ in range(2))
    known = [(f, fc), (g, gc)]

    def same(got, want):
        _assert_same_series(model, got, want, known)

    same(f, fc)
    same(f + g, hurwitz_sum_reference(fc, gc))
    same(f - g, hurwitz_sum_reference(fc, hurwitz_scale_reference(gc, -1)))
    same(-f, hurwitz_scale_reference(fc, -1))
    same(k * f, hurwitz_scale_reference(fc, k))
    for chain in _CHAINS:
        got, want = f, fc
        for name in reversed(chain):
            engine, oracle = _SHIFTS[name]
            got, want = engine(model, got), oracle(want, w)
        same(got, want)
    # derive down to window 0, and once more there: d takes window n to
    # max(n - 1, 0), and P takes it to n + 1 but returns an empty window as is
    got, want = f, fc
    for _ in range(f.window + 1):
        n = got.window
        pf = model.p(got)
        assert pf is got if n == 0 else pf.window == n + 1
        got, want = model.d(got), hurwitz_derive_reference(want)
        assert got.window == max(n - 1, 0)
        same(got, want)
    assert got.window == 0


class _Counted:
    """A rational that counts the element-by-element products it takes part
    in, and every carrier operation: ``+``, ``-`` (binary and unary) and
    ``*`` (by an element or by a rational)."""

    products = 0
    ops = 0
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = Fraction(value)

    def __add__(self, other):
        _Counted.ops += 1
        return _Counted(self.value + other.value)

    def __sub__(self, other):
        _Counted.ops += 1
        return _Counted(self.value - other.value)

    def __neg__(self):
        _Counted.ops += 1
        return _Counted(-self.value)

    def __mul__(self, other):
        _Counted.ops += 1
        if isinstance(other, _Counted):
            _Counted.products += 1
            return _Counted(self.value * other.value)
        return _Counted(self.value * other)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, _Counted) and self.value == other.value


class _CountedRing:
    def zero(self):
        return _Counted(0)

    def coerce(self, x):
        return x if isinstance(x, _Counted) else _Counted(x)

    def sample(self, rng):
        return _Counted(RING.sample(rng))


def test_hurwitz_product_makes_one_carrier_product_per_entry():
    # a deterministic bound: a constrained series stores one sigma-entry, so
    # the product takes one carrier product at any window, where the
    # defining sum takes n(n+1)(n+2)/6 (120 at window 8)
    rng = random.Random(68)
    for n in range(1, 11):
        model = HurwitzConstrainedModel(_CountedRing(), W32, window=n)
        f, g = (model.element(_Counted(RING.sample(rng))) for _ in range(2))
        _Counted.products = 0
        fg = f * g
        assert _Counted.products == 1
        fc, gc = model.coeffs(f), model.coeffs(g)
        _Counted.products = 0
        assert model.coeffs(fg) == hurwitz_product_reference(fc, gc, W32)
        assert _Counted.products == n * (n + 1) * (n + 2) // 6


# carrier operations of check_axioms(..., samples=20, seed=0) on the
# constrained model; storing the whole sigma tuple of the window took
# 15,480 at window 8 and 121,880 at window 64, and its head up to the last
# entry that may be nonzero 2,340 at either
_AXIOM_CARRIER_OPS = 1_200


@pytest.mark.parametrize("window", [8, 64])
def test_constrained_axiom_suite_carrier_ops_do_not_grow_with_the_window(window):
    # a constrained series keeps its one sigma-entry, so the work is O(1)
    _Counted.ops = 0
    report = check_axioms(HurwitzConstrainedModel(_CountedRing(), W32, window=window), 20, 0)
    report.pop("notes")
    assert all(report.values()), report
    assert _Counted.ops == _AXIOM_CARRIER_OPS


def test_integrate_is_scalar_multiple():
    rng = random.Random(63)
    model = HurwitzConstrainedModel(RING, W32, window=8)
    for _ in range(20):
        f = model.element(RING.sample(rng))
        assert model.p(f).agrees(f.scale(-W32))


def test_shift_after_integrate_is_identity():
    rng = random.Random(64)
    model = HurwitzConstrainedModel(RING, W32, window=8)
    for _ in range(20):
        f = model.element(RING.sample(rng))
        assert model.d(model.p(f)).agrees(f)


def test_integrate_twice():
    model = HurwitzConstrainedModel(RING, W32, window=8)
    pf = model.p(model.element(2))
    assert model.p(pf).agrees(pf.scale(-W32))


# Each carrier as a model: its ``sample``, ``zero`` and ``equal`` (Hurwitz
# series compare on the common reliable window); the arithmetic under test is
# the elements' own operators.
CARRIERS = {
    "rationals": OperatorModel(RING, W32),
    "hurwitz": HurwitzConstrainedModel(RING, W32, window=8),
}


@pytest.mark.parametrize("name", CARRIERS)
def test_carrier_ring_laws(name):
    model = CARRIERS[name]
    eq = model.equal
    rng = random.Random(67)
    for _ in range(20):
        a, b, c = model.sample(rng), model.sample(rng), model.sample(rng)
        k, m = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3)
        assert eq(a + b, b + a) and eq(a * b, b * a)
        assert eq((a + b) + c, a + (b + c)) and eq((a * b) * c, a * (b * c))
        assert eq(a * (b + c), a * b + a * c)
        assert eq(a - b, a + (-b)) and eq(a - a, model.zero())
        assert eq(a + model.zero(), a) and eq(-(-a), a)
        assert eq(k * (a * b), (k * a) * b) and eq(k * (a + b), k * a + k * b)
        assert eq((k + m) * a, k * a + m * a) and eq(m * (k * a), (m * k) * a)
        assert eq(1 * a, a) and eq(0 * a, model.zero())
        if model.has_unit:
            assert eq(model.one() * a, a)


@pytest.mark.parametrize("weight", [Fraction(1), Fraction(-1), W32, Fraction(5, 7)])
def test_hurwitz_axiom_suite(weight):
    model = HurwitzConstrainedModel(RING, weight, window=8)
    report = check_axioms(model, samples=60, seed=9)
    report.pop("notes")
    assert all(report.values()), report


def test_xi_axiom_suite():
    model = DegenerateModel(RING, W32)
    report = check_axioms(model, samples=60, seed=11)
    notes = report.pop("notes")
    assert report.pop("d_unit_zero") is False
    assert all(report.values()), report
    assert any("d(1) != 0" in n for n in notes)


def test_left_multiplication_nijenhuis_but_not_quasi_idempotent():
    model = LeftMultiplicationModel(RING, Fraction(1), Fraction(2))
    report = check_axioms(model, samples=60, seed=12)
    assert report == {
        "rota_baxter": False,
        "p_quasi_idem": False,
        "nijenhuis": True,
        "p_tilde_quasi_idem": False,
        "notes": [],
    }


def _has_unit_argument(word):
    return any(f.arg.is_unit() or _has_unit_argument(f.arg) for f in word.ops)


def _unit_free_word(rng, size, operators):
    while True:
        w = random_word(rng, size, ("x", "y"), operators, allow_unit=False)
        if not _has_unit_argument(w):
            return w


def test_every_preset_rule_vanishes_in_models():
    rng = random.Random(65)
    drb = preset("drb")
    weights = (Fraction(1), Fraction(-1), W32, Fraction(5, 7))
    for w in weights:
        deg = DegenerateModel(RING, w)
        hur = HurwitzConstrainedModel(RING, w, window=8)
        for rule in drb.rules:
            for _ in range(50):
                binding = {
                    v: _unit_free_word(rng, 3, drb.operators)
                    for v in rule.variables
                }
                inst = rule.instantiate(binding)
                assign = {"x": deg.sample(rng), "y": deg.sample(rng)}
                assert evaluate_in_model(inst, deg, assign) == 0
                h_assign = {"x": hur.sample(rng), "y": hur.sample(rng)}
                assert hur.equal(evaluate_in_model(inst, hur, h_assign), hur.zero())


@pytest.mark.parametrize("weight", [W32, Fraction(-5, 7)])
def test_constrained_hurwitz_model_is_the_degenerate_model(weight):
    # constrained series are (f(0), 0, ..., 0) in sigma-coordinates, and
    # f -> f(0) takes d to -(1/w) id and P to -w id: the Hurwitz value is the
    # degenerate value in sigma-coordinates, so it adds no evidence of its own
    rng = random.Random(69)
    drb = preset("drb")
    deg = DegenerateModel(RING, weight)
    hur = HurwitzConstrainedModel(RING, weight, window=8)
    checked = 0
    while checked < 100:
        f = random_polynomial(rng, 6, ("x", "y"), drb.operators)
        if any(w.is_unit() or _has_unit_argument(w) for w, _ in f.terms_desc()):
            continue
        seeds = {"x": RING.sample(rng), "y": RING.sample(rng)}
        v = evaluate_in_model(f, deg, seeds)
        h = evaluate_in_model(f, hur, {name: hur.element(s) for name, s in seeds.items()})
        c = hur.coeffs(h)
        assert c and c[0] == v
        assert all(c[n] == (-1 / weight) * c[n - 1] for n in range(1, len(c)))
        checked += 1


def test_evaluate_examples():
    deg = DegenerateModel(RING, W32)
    drb = preset("drb")
    inst = drb.rule("d_after_p").instantiate({"u": P("x").leading_word()})
    assert evaluate_in_model(inst, deg, {"x": Fraction(7, 2)}) == 0
    assert evaluate_in_model(P("1"), deg, {}) == 1
    with pytest.raises(MissingAssignment):
        evaluate_in_model(P("x"), deg, {})


def test_float_weight_refused():
    with pytest.raises(TypeError):
        DegenerateModel(RING, 0.1)
    with pytest.raises(TypeError):
        HurwitzConstrainedModel(RING, 1.5, window=8)
    # the carriers and series refuse a float the same way
    with pytest.raises(TypeError):
        HurwitzConstrainedModel(RING, 0.1, window=2)
    with pytest.raises(TypeError):
        HurwitzConstrainedModel(RING, W32, window=2).element(0.5)
    with pytest.raises(TypeError):
        RING.coerce(0.1)
    # exact weights of every other kind are accepted
    hur = HurwitzConstrainedModel(RING, "0.1", window=2)
    assert hur.coeffs(hur.element(1)) == (1, -10)
    assert RING.coerce("0.1") == Fraction(1, 10)
    assert DegenerateModel(RING, "0.1").weight == Fraction(1, 10)
    assert DegenerateModel(RING, -2).weight == -2


def test_nonunital_model_rejects_unit():
    hur = HurwitzConstrainedModel(RING, W32, window=8)
    with pytest.raises(NonunitalModel):
        evaluate_in_model(P("1 + x"), hur, {"x": hur.sample(random.Random(0))})
    with pytest.raises(NonunitalModel):
        evaluate_in_model(P("d(1)"), hur, {})


def test_uninterpreted_operators_are_refused_alike():
    # an operator the model leaves as None and one it has never heard of
    # are the same refusal, not a missing unit
    from opalg.cli import ruleset_from_dict

    left = LeftMultiplicationModel(RING, 1, Fraction(2))
    with pytest.raises(KeyError) as info:
        evaluate_in_model(P("d(x)"), left, {"x": Fraction(3)})
    assert info.type is KeyError
    assert info.value.args == ("model does not interpret operator d",)
    theory = ruleset_from_dict(
        {"operators": [{"name": "q", "rank": 1}], "generators": ["x"], "rules": []}
    )
    f = P("q(x)", theory.operators)
    with pytest.raises(KeyError) as info:
        evaluate_in_model(f, DegenerateModel(RING, 2), {"x": Fraction(3)})
    assert info.type is KeyError
    assert info.value.args == ("model does not interpret operator q",)


def test_rewriting_is_sound_in_the_degenerate_model():
    rng = random.Random(66)
    drb = preset("drb")
    deg = DegenerateModel(RING, Fraction(5, 7))
    for _ in range(60):
        f = random_polynomial(rng, 8, ("x", "y"), drb.operators)
        nf = normal_form(f, drb.rules).poly
        assign = {"x": deg.sample(rng), "y": deg.sample(rng)}
        assert evaluate_in_model(f, deg, assign) == evaluate_in_model(nf, deg, assign)
