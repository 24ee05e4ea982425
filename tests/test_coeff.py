import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opalg.cli import format_polynomial, parse_polynomial
from opalg.coeff import InvalidWeight, PoleAtWeight, Scalar, ONE, ZERO, _padd, _pmul, _pneg
from opalg.poly import OpPolynomial
from opalg.sampling import random_word
from opalg.terms import OP_D, OP_P


def test_additive_inverse():
    li = Scalar.lam(-1)
    assert (li + (-li)).is_zero()


def test_multiplicative_inverse():
    assert (Scalar.lam(1) * Scalar.lam(-1)).is_one()


def test_gcd_normalisation():
    # (2L)/(4L^2) reduces to 1/(2L); check by cross-multiplying
    s = Scalar((0, 2), (0, 0, 4))
    assert s == Scalar((Fraction(1, 2),), (0, 1))
    assert s * Scalar.lam(1) == Scalar.from_rational(Fraction(1, 2))


def test_zero_canonical():
    z = Scalar((0,), (0, 0, 3))
    assert z == ZERO
    assert z.den == (Fraction(1),)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_specialize_examples():
    assert Scalar.lam(-1).specialize(Fraction(3, 2)) == Fraction(2, 3)
    assert ONE.specialize(Fraction(7)) == 1
    assert (-(Scalar.lam(2))).specialize(Fraction(5, 7)) == Fraction(-25, 49)


def test_specialize_errors():
    with pytest.raises(InvalidWeight):
        ONE.specialize(0)
    pole = ONE / (Scalar.lam(1) - Scalar.from_rational(2))
    with pytest.raises(PoleAtWeight):
        pole.specialize(2)


def _random_scalar(rng):
    num = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
    den = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
    if not any(den):
        den = (Fraction(1),)
    return Scalar(num, den)


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inverse()).is_one()


def test_specialize_is_homomorphism():
    rng = random.Random(12)
    for _ in range(200):
        a, b = _random_scalar(rng), _random_scalar(rng)
        for w in (Fraction(1), Fraction(-1), Fraction(3, 2)):
            try:
                lhs = (a * b).specialize(w)
                rhs = a.specialize(w) * b.specialize(w)
            except PoleAtWeight:
                continue
            assert lhs == rhs
            assert (a + b).specialize(w) == a.specialize(w) + b.specialize(w)


def test_powers():
    lam = Scalar.lam(1)
    assert lam**3 == Scalar.lam(3)
    assert lam**-2 == Scalar.lam(-2)
    assert (lam + ONE) ** 0 == ONE


def test_float_inputs_refused():
    with pytest.raises(TypeError):
        Scalar((0.1,))
    with pytest.raises(TypeError):
        Scalar((1,), (0, 0.5))
    with pytest.raises(TypeError):
        Scalar.lam(1).specialize(0.1)
    # exact inputs of every other kind are accepted
    assert Scalar(("0.1",)) == Scalar.from_rational(1, 10)
    assert Scalar((Fraction(1, 10),), (1,)) == Scalar.from_rational(1, 10)
    assert Scalar.lam(1).specialize("0.1") == Fraction(1, 10)
    assert Scalar.lam(-1).specialize(4) == Fraction(1, 4)


# ---------------------------------------------------------------------------
# the monomial fast path against the general Q(L) path
# ---------------------------------------------------------------------------

def _ref_mul(a, b):
    return Scalar(_pmul(a.num, b.num), _pmul(a.den, b.den))


def _ref_add(a, b):
    return Scalar(_padd(_pmul(a.num, b.den), _pmul(b.num, a.den)), _pmul(a.den, b.den))


def _ref_neg(a):
    return Scalar(_pneg(a.num), a.den)


def _ref_inverse(a):
    return Scalar(a.den, a.num)


def _ref_pow(a, n):
    if n < 0:
        a, n = _ref_inverse(a), -n
    out = Scalar((1,))
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_lam(k):
    if k >= 0:
        return Scalar((0,) * k + (1,))
    return Scalar((1,), (0,) * -k + (1,))


def _view_by_scan(s):
    """(c, k) when numerator and denominator each have one nonzero term."""
    num = [(i, c) for i, c in enumerate(s.num) if c]
    den = [(j, c) for j, c in enumerate(s.den) if c]
    if len(num) == 1 and len(den) == 1:
        [(i, c)], [(j, _)] = num, den  # the denominator is monic
        return (c, i - j)
    return None


def _assert_same(got, ref):
    assert got.num == ref.num and got.den == ref.den
    assert all(type(c) is Fraction for c in got.num + got.den)
    assert hash(got) == hash(ref)
    assert got.monomial == ref.monomial == _view_by_scan(ref)
    if got.monomial is not None:
        assert type(got.monomial[0]) is Fraction


_RATIONALS = st.fractions(min_value=-12, max_value=12, max_denominator=12)
_NONZERO = _RATIONALS.filter(bool)
_POWERS = st.integers(min_value=-4, max_value=4)


@st.composite
def _monomials(draw):
    """c·L^k built by the general constructor from a non-canonical fraction
    (both sides times m·L^j), so the gcd and the monic rescale both run."""
    c, k = draw(_NONZERO), draw(_POWERS)
    m, j = draw(_NONZERO), draw(st.integers(min_value=0, max_value=2))
    lo = max(0, -k)
    return Scalar((0,) * (k + lo + j) + (c * m,), (0,) * (lo + j) + (m,))


_ZEROS = st.sampled_from((ZERO, Scalar(()), Scalar((0,), (0, 0, 3))))
_GENERAL = st.builds(
    Scalar,
    st.lists(_RATIONALS, min_size=1, max_size=3),
    st.lists(_RATIONALS, min_size=1, max_size=3).filter(any),
)
_SCALARS = st.one_of(_monomials(), _monomials(), _ZEROS, _GENERAL)


@given(_SCALARS, _SCALARS)
def test_fast_path_binary_ops_match_general_path(a, b):
    _assert_same(a * b, _ref_mul(a, b))
    _assert_same(a + b, _ref_add(a, b))
    _assert_same(a - b, _ref_add(a, _ref_neg(b)))
    if b:
        _assert_same(a / b, _ref_mul(a, _ref_inverse(b)))


@given(_SCALARS, st.integers(min_value=-5, max_value=5))
def test_fast_path_unary_ops_match_general_path(a, n):
    _assert_same(-a, _ref_neg(a))
    _assert_same(a + a, _ref_add(a, a))
    _assert_same(a - a, _ref_add(a, _ref_neg(a)))
    three = Scalar.from_rational(3)
    _assert_same(a + three * a, _ref_add(a, _ref_mul(three, a)))
    if a:
        _assert_same(a.inverse(), _ref_inverse(a))
        _assert_same(a**n, _ref_pow(a, n))
    elif n >= 0:
        _assert_same(a**n, _ref_pow(a, n))
    _assert_same(a + Scalar.lam(n), _ref_add(a, _ref_lam(n)))


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=50), _POWERS)
def test_fast_path_constructors_match_general_path(p, q, k):
    ref = Scalar((Fraction(p, q),))
    _assert_same(Scalar.from_rational(p, q), ref)
    _assert_same(Scalar.from_rational(Fraction(p, q)), ref)
    _assert_same(Scalar.lam(k), _ref_lam(k))
    _assert_same(Scalar.from_rational(p, q) * Scalar.lam(k), _ref_mul(ref, _ref_lam(k)))


@given(_SCALARS.filter(bool), st.randoms(use_true_random=False))
def test_scalar_times_word_round_trips_through_text(c, rng):
    word = random_word(rng, 5, ("x", "y"), (OP_D, OP_P))
    f = OpPolynomial.from_word(word, c)
    text = format_polynomial(f)
    assert parse_polynomial(text) == f
    assert format_polynomial(parse_polynomial(text)) == text


@given(_SCALARS)
def test_scalar_copy_and_pickle(a):
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)
        assert (b.num, b.den, b.monomial) == (a.num, a.den, a.monomial)
