import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opalg import models
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
    TruncatedPoly,
    TruncatedPolyRing,
    WeightMismatch,
    XiModel,
    check_axioms,
    constrained_series,
    evaluate_in_model,
)
from opalg.models import unit_series
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
    f = constrained_series(RING, W32, Fraction(5, 3), 8)
    one = unit_series(RING, W32, 8)
    zero = HurwitzSeries(RING, W32, (Fraction(0),) * 8)
    assert (one * f).agrees(f)
    assert (f * one).agrees(f)
    assert (f * zero).is_zero()


def test_hurwitz_product_commutative_associative():
    rng = random.Random(61)
    for _ in range(30):
        f = constrained_series(RING, W32, RING.sample(rng), 8)
        g = constrained_series(RING, W32, RING.sample(rng), 8)
        h = constrained_series(RING, W32, RING.sample(rng), 8)
        assert (f * g).agrees(g * f)
        assert ((f * g) * h).agrees(f * (g * h))


def test_constrained_closed_under_product():
    rng = random.Random(62)
    for w in (Fraction(1), Fraction(-1), W32, Fraction(5, 7)):
        for _ in range(20):
            f = constrained_series(RING, w, RING.sample(rng), 8)
            g = constrained_series(RING, w, RING.sample(rng), 8)
            fg = f * g
            for n in range(1, fg.window):
                assert fg.coeffs[n] == (-1 / w) * fg.coeffs[n - 1]


_RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
_WEIGHTS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
# each base ring with a strategy for its elements
_BASES = {
    "rationals": (RING, _RATIONALS),
    "poly-mod-t^4": (
        TruncatedPolyRing(4),
        st.lists(_RATIONALS, min_size=4, max_size=4).map(TruncatedPoly),
    ),
}


@pytest.mark.parametrize("base", _BASES)
@given(data=st.data(), w=_WEIGHTS)
def test_hurwitz_product_matches_defining_formula(base, data, w):
    # unconstrained sequences: constrained ones are (f(0), 0, 0, ...) in
    # sigma-coordinates and would barely exercise the transform
    ring, elements = _BASES[base]
    f, g = (
        HurwitzSeries(ring, w, data.draw(st.lists(elements, max_size=10)))
        for _ in range(2)
    )
    fg = f * g
    assert fg.window == min(f.window, g.window)
    assert fg.coeffs == hurwitz_product_reference(f, g).coeffs
    # the weighted Leibniz rule, which makes sigma = id + w*d multiplicative
    df, dg = f.derive(), g.derive()
    rhs = df * g + f * dg + w * (df * dg)
    assert fg.derive().coeffs == rhs.coeffs


def _assert_same_series(got, want, known):
    # want comes from the coefficient-space oracle; window, agrees and is_zero
    # must read as the same comparisons made on coefficients.  known holds
    # (series, coefficients) pairs to compare with.
    coeffs = want.coeffs
    assert got.coeffs == coeffs
    assert got.window == len(coeffs)
    assert got.is_zero() == all(c == got.ring.zero() for c in coeffs)
    for other, other_coeffs in ((want, coeffs), *known):
        n = min(len(coeffs), len(other_coeffs))
        if n < 1:
            with pytest.raises(ValueError):
                got.agrees(other)
        else:
            assert got.agrees(other) == (coeffs[:n] == other_coeffs[:n])


# the shifts and their compositions, innermost last, with their oracles
_SHIFTS = {
    "derive": (HurwitzSeries.derive, hurwitz_derive_reference),
    "integrate": (HurwitzSeries.integrate, hurwitz_integrate_reference),
}
_CHAINS = [
    ("derive",), ("integrate",),
    ("derive", "integrate"), ("integrate", "derive"), ("integrate", "integrate"),
]


@pytest.mark.parametrize("base", _BASES)
@given(data=st.data(), w=_WEIGHTS, k=_RATIONALS)
def test_hurwitz_operations_match_coefficient_oracle(base, data, w, k):
    ring, elements = _BASES[base]
    f, g = (
        HurwitzSeries(ring, w, data.draw(st.lists(elements, max_size=10)))
        for _ in range(2)
    )
    known = [(f, f.coeffs), (g, g.coeffs)]
    _assert_same_series(f + g, hurwitz_sum_reference(f, g), known)
    _assert_same_series(f - g, hurwitz_sum_reference(f, hurwitz_scale_reference(g, -1)), known)
    _assert_same_series(-f, hurwitz_scale_reference(f, -1), known)
    _assert_same_series(k * f, hurwitz_scale_reference(f, k), known)
    _assert_same_series(f * k, hurwitz_scale_reference(f, k), known)
    for chain in _CHAINS:
        got = want = f
        for name in reversed(chain):
            engine, oracle = _SHIFTS[name]
            got, want = engine(got), oracle(want)
        _assert_same_series(got, want, known)


class _Counted:
    """A rational that counts the element-by-element products it takes part in."""

    products = 0
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = Fraction(value)

    def __add__(self, other):
        return _Counted(self.value + other.value)

    def __sub__(self, other):
        return _Counted(self.value - other.value)

    def __neg__(self):
        return _Counted(-self.value)

    def __mul__(self, other):
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


def test_hurwitz_product_makes_one_carrier_product_per_entry():
    # a deterministic bound: the defining sum takes n(n+1)(n+2)/6 products
    # (120 at window 8), the sigma-transform n
    rng = random.Random(68)
    for n in range(11):
        f, g = (
            HurwitzSeries(_CountedRing(), W32, [_Counted(RING.sample(rng)) for _ in range(n)])
            for _ in range(2)
        )
        _Counted.products = 0
        fg = f * g
        assert _Counted.products == n
        _Counted.products = 0
        assert fg.coeffs == hurwitz_product_reference(f, g).coeffs
        assert _Counted.products == n * (n + 1) * (n + 2) // 6


def test_model_arithmetic_makes_no_coordinate_conversion(monkeypatch):
    # samples are built in sigma-coordinates and every operation stays there
    def refuse(*args):
        raise AssertionError("sigma-coordinate conversion")

    monkeypatch.setattr(models, "_to_sigma", refuse)
    monkeypatch.setattr(models, "_from_sigma", refuse)
    model = HurwitzConstrainedModel(RING, W32, window=8)
    report = check_axioms(model, samples=20)
    report.pop("notes")
    assert all(report.values()), report
    rng = random.Random(70)
    f = P("(L+1)/(L^2-2)*d(x*p(y)) + p(x)*p(y) - L*x*d(d(y))")
    value = evaluate_in_model(f, model, {"x": model.sample(rng), "y": model.sample(rng)})
    assert value.window == 6


def test_weight_mismatch():
    f = constrained_series(RING, Fraction(1), Fraction(1), 4)
    g = constrained_series(RING, Fraction(2), Fraction(1), 4)
    with pytest.raises(WeightMismatch):
        f * g


def test_integrate_is_scalar_multiple():
    rng = random.Random(63)
    for _ in range(20):
        f = constrained_series(RING, W32, RING.sample(rng), 8)
        pf = f.integrate()
        assert pf.agrees(f.scale(-W32))


def test_shift_after_integrate_is_identity():
    rng = random.Random(64)
    for _ in range(20):
        f = constrained_series(RING, W32, RING.sample(rng), 8)
        assert f.integrate().derive().agrees(f)


def test_integrate_twice():
    f = constrained_series(RING, W32, Fraction(2), 8)
    assert f.integrate().integrate().agrees(f.integrate().scale(-W32))


# Each carrier as a model: its ``sample``, ``zero`` and ``equal`` (Hurwitz
# series compare on the common reliable window); the arithmetic under test is
# the elements' own operators.
CARRIERS = {
    "rationals": OperatorModel(RING, W32),
    "poly-mod-t^4": OperatorModel(TruncatedPolyRing(4), W32),
    "hurwitz": HurwitzConstrainedModel(RING, W32, window=8),
    "hurwitz-over-poly-mod-t^4": HurwitzConstrainedModel(TruncatedPolyRing(4), W32, window=8),
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
        assert eq(a * k, k * a) and eq(a * m, m * a)
        if model.has_unit:
            assert eq(model.one() * a, a)


@pytest.mark.parametrize("weight", [Fraction(1), Fraction(-1), W32, Fraction(5, 7)])
def test_hurwitz_axiom_suite(weight):
    model = HurwitzConstrainedModel(RING, weight, window=8)
    report = check_axioms(model, samples=60, seed=9)
    report.pop("notes")
    assert all(report.values()), report


def test_degenerate_axiom_suite_on_truncated_polys():
    model = DegenerateModel(TruncatedPolyRing(4), W32)
    report = check_axioms(model, samples=60, seed=10)
    notes = report.pop("notes")
    assert report.pop("d_unit_zero") is False
    assert all(report.values()), report
    assert any("d(1) != 0" in n for n in notes)


def test_xi_axiom_suite():
    model = XiModel(RING, W32)
    report = check_axioms(model, samples=60, seed=11)
    report.pop("notes")
    assert report.pop("d_unit_zero") is False
    assert all(report.values()), report


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
                assert evaluate_in_model(inst, hur, h_assign).is_zero()


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
        h = evaluate_in_model(
            f, hur, {name: constrained_series(RING, weight, s, 8) for name, s in seeds.items()}
        )
        assert h.window >= 1
        assert h.sigma == (v,) + (0,) * (h.window - 1)
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
        HurwitzSeries(RING, 0.1, (Fraction(1),))
    with pytest.raises(TypeError):
        constrained_series(RING, 0.1, 1, 2)
    with pytest.raises(TypeError):
        constrained_series(RING, W32, 0.5, 2)
    with pytest.raises(TypeError):
        RING.coerce(0.1)
    with pytest.raises(TypeError):
        TruncatedPoly((0.1,))
    with pytest.raises(TypeError):
        TruncatedPolyRing(2).coerce(0.1)
    # exact weights of every other kind are accepted
    assert HurwitzSeries(RING, "0.1", (Fraction(1),)).weight == Fraction(1, 10)
    assert constrained_series(RING, "0.1", 1, 2).coeffs == (1, -10)
    assert RING.coerce("0.1") == Fraction(1, 10)
    assert TruncatedPoly(("0.1", 2)).coeffs == (Fraction(1, 10), 2)
    assert TruncatedPolyRing(2).coerce("-2/7").coeffs == (Fraction(-2, 7), 0)
    assert DegenerateModel(RING, "0.1").weight == Fraction(1, 10)
    assert DegenerateModel(RING, -2).weight == -2


def test_nonunital_model_rejects_unit():
    hur = HurwitzConstrainedModel(RING, W32, window=8)
    with pytest.raises(NonunitalModel):
        evaluate_in_model(P("1 + x"), hur, {"x": hur.sample(random.Random(0))})
    with pytest.raises(NonunitalModel):
        evaluate_in_model(P("d(1)"), hur, {})


def test_rewriting_is_sound_in_the_degenerate_model():
    rng = random.Random(66)
    drb = preset("drb")
    deg = DegenerateModel(RING, Fraction(5, 7))
    for _ in range(60):
        f = random_polynomial(rng, 8, ("x", "y"), drb.operators)
        nf = normal_form(f, drb.rules).poly
        assign = {"x": deg.sample(rng), "y": deg.sample(rng)}
        assert evaluate_in_model(f, deg, assign) == evaluate_in_model(nf, deg, assign)
