import random
from fractions import Fraction

import pytest

from opalg.cli import parse_polynomial as P
from opalg.gsbases import preset
from opalg.models import (
    DegenerateModel,
    HurwitzConstrainedModel,
    HurwitzSeries,
    LeftMultiplicationModel,
    MissingAssignment,
    NonunitalModel,
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
        assert pf.agrees(f.scale(-W32), window=8)


def test_shift_after_integrate_is_identity():
    rng = random.Random(64)
    for _ in range(20):
        f = constrained_series(RING, W32, RING.sample(rng), 8)
        assert f.integrate().derive().agrees(f)


def test_integrate_twice():
    f = constrained_series(RING, W32, Fraction(2), 8)
    assert f.integrate().integrate().agrees(f.integrate().scale(-W32), window=8)


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
    assert report["nijenhuis"]
    assert not report["p_quasi_idem"]
    assert not report["rota_baxter"]


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
    deg = DegenerateModel(RING, W32)
    with pytest.raises(TypeError):
        evaluate_in_model(P("L*x"), deg, {"x": Fraction(1)}, weight=0.1)
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
    assert evaluate_in_model(P("L*x"), deg, {"x": Fraction(1)}, weight="0.1") == Fraction(1, 10)


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
