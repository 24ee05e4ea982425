import copy
import pickle
import random

import pytest

from opalg import coeff
from opalg.coeff import Scalar
from opalg.poly import OpPolynomial, ZeroPolynomial
from opalg.sampling import random_polynomial
from opalg.terms import OP_D, OP_P, Word

X = Word.letter("x")
Y = Word.letter("y")


def d(w):
    return w.apply(OP_D)


def p(w):
    return w.apply(OP_P)


def test_cancellation_to_zero():
    f = OpPolynomial(((d(X), coeff.ONE), (X * Y, Scalar.lam(-1))))
    assert (f + f.scale(-coeff.ONE)).is_zero()
    assert (f - f).is_zero()


def test_mul_expansion():
    f = OpPolynomial(((X, coeff.ONE), (Y, coeff.ONE)))
    g = OpPolynomial.from_word(X)
    assert f * g == OpPolynomial(((X * X, coeff.ONE), (X * Y, coeff.ONE)))


def test_operator_linearity():
    f = OpPolynomial(((X, Scalar.from_rational(2)), (Y, coeff.ONE)))
    out = f.apply_operator(OP_D)
    assert out == OpPolynomial(((d(X), Scalar.from_rational(2)), (d(Y), coeff.ONE)))


def test_leading_of_rule_shapes():
    # leibniz shape: the product of two d-factors dominates
    f = OpPolynomial(
        (
            (d(X) * d(Y), coeff.ONE),
            (d(X) * Y, Scalar.lam(-1)),
            (X * d(Y), Scalar.lam(-1)),
            (d(X * Y), -Scalar.lam(-1)),
        )
    )
    w, c = f.leading()
    assert w == d(X) * d(Y) and c.is_one()
    # towers dominate their single-application remainders
    g = OpPolynomial(((p(p(X)), coeff.ONE), (p(X), Scalar.lam(1))))
    assert g.leading_word() == p(p(X))
    h = OpPolynomial(((d(p(X)), coeff.ONE), (X, -coeff.ONE)))
    assert h.leading_word() == d(p(X))


def test_leading_of_zero_raises():
    with pytest.raises(ZeroPolynomial):
        OpPolynomial.zero().leading()


def test_make_monic():
    f = OpPolynomial(((d(X), Scalar.lam(1)), (X, coeff.ONE)))
    m = f.make_monic()
    assert m.leading()[1].is_one()
    assert m.make_monic() == m


def test_leading_multiplicativity_random():
    # coefficients live in a field, so the leading pair never cancels
    rng = random.Random(31)
    for _ in range(300):
        f = random_polynomial(rng, 5, ("x", "y"), (OP_D, OP_P))
        g = random_polynomial(rng, 5, ("x", "y"), (OP_D, OP_P))
        if f.is_zero() or g.is_zero():
            continue
        (fw, fc), (gw, gc) = f.leading(), g.leading()
        assert (f * g).leading() == (fw * gw, fc * gc)


def test_polynomial_copy_and_pickle():
    rng = random.Random(29)
    for _ in range(40):
        f = random_polynomial(rng, 6, ("x", "y"), (OP_D, OP_P))
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and hash(g) == hash(f)
            assert g.terms_desc() == f.terms_desc()
            assert all(a is b for (a, _), (b, _) in zip(g.terms_desc(), f.terms_desc()))
