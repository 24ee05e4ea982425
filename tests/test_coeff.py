import copy
import json
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opalg import coeff
from opalg.cli import format_polynomial, parse_polynomial
from opalg.coeff import (
    POWER_BITS_CAP, BoundExceeded, InvalidWeight, PoleAtWeight, Scalar, ONE, ZERO,
    _padd, _pmul, _pneg,
)
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


def test_zero_denominator_named():
    # Fraction("1/0") raises a ZeroDivisionError whose message is only
    # "Fraction(1, 0)"; the error names the value as given instead
    for text in ("1/0", "-3/00"):
        with pytest.raises(ValueError, match=f"'{text}': the denominator is zero"):
            coeff.exact_fraction(text)
    with pytest.raises(ValueError, match="denominator is zero"):
        Scalar.lam(1).specialize("2/0")


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


def _ref_lam(k, c=1):
    """c·L^k from the general constructor, never through a view."""
    if k >= 0:
        return Scalar((0,) * k + (c,))
    return Scalar((c,), (0,) * -k + (1,))


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
    # a monomial hashes its view, any other value its dense form
    view = ref.monomial
    assert hash(got) == hash(ref) == hash(view if view is not None else (ref.num, ref.den))
    assert got.monomial == ref.monomial == _view_by_scan(ref)
    _assert_canonical_view(got)


def _assert_canonical_view(s):
    """The view's coefficient is an int exactly when it is integral, and
    otherwise a Fraction with denominator > 1: never a bool or a float."""
    if s.monomial is not None:
        c = s.monomial[0]
        assert type(c) in (int, Fraction)
        assert (type(c) is int) == (c.denominator == 1)


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


def test_integral_views_hold_ints():
    for s in (
        Scalar((Fraction(6, 2),)), Scalar((6,), (2,)), Scalar.from_rational(6, 2),
        Scalar.from_rational(Fraction(6, 2)), Scalar.from_rational(True), ONE,
        Scalar.lam(-3), Scalar.from_rational(-1, 2).inverse(), Scalar.from_rational(-1) ** -3,
        Scalar.from_rational(1, 2) + Scalar.from_rational(1, 2),
    ):
        assert type(s.monomial[0]) is int, s
    assert Scalar.from_rational(True).monomial == (1, 0)
    assert Scalar.from_rational(6, 2).monomial == (3, 0)
    # a negative power or an inverse of an integral coefficient is a Fraction
    assert Scalar.from_rational(2).inverse().monomial == (Fraction(1, 2), 0)
    assert Scalar.from_rational(-2) ** -3 == Scalar.from_rational(-1, 8)
    assert type((Scalar.from_rational(2) ** -3).monomial[0]) is Fraction
    # the dense form, str and specialize are Fractions as before
    three = Scalar.from_rational(3) * Scalar.lam(2)
    assert three.num == (0, 0, Fraction(3)) and all(type(c) is Fraction for c in three.num)
    assert str(three) == "3*L^2" and type(three.specialize(2)) is Fraction


@given(
    st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=50),
    _POWERS, st.booleans(), _NONZERO, st.integers(min_value=1, max_value=4),
)
def test_views_stay_canonical(p, q, k, flag, w, n):
    built = [
        Scalar((Fraction(p, q),)), Scalar.from_rational(p, q), Scalar.from_rational(p * q, q),
        Scalar.from_rational(Fraction(p, q)), Scalar.from_rational(flag),
    ]
    built = [s * Scalar.lam(k) for s in built] + built
    for s in list(built):
        built.append(pickle.loads(pickle.dumps(s)))
        if s:
            built += [s.inverse(), s**-n, s**n]
    for s in built:
        _assert_canonical_view(s)
        assert type(s) is Scalar
        if s:
            assert type(s.specialize(w)) is Fraction
        assert all(type(c) is Fraction for c in s.num + s.den)
        _assert_same(s, Scalar(s.num, s.den))


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


# ---------------------------------------------------------------------------
# monomial scalars keep only their view until the dense form is read
# ---------------------------------------------------------------------------

def _is_lazy(s):
    return s._num is None and s._den is None


@given(_NONZERO, _POWERS, _NONZERO, _POWERS, st.integers(min_value=-3, max_value=3))
def test_lazy_monomials_match_general_path(c, k, e, j, n):
    a, b = Scalar.from_rational(c) * Scalar.lam(k), Scalar.from_rational(e) * Scalar.lam(j)
    built = {
        "a": (a, _ref_lam(k, c)),
        "a*b": (a * b, _ref_lam(k + j, c * e)),
        "-a": (-a, _ref_lam(k, -c)),
        "1/a": (a.inverse(), _ref_lam(-k, 1 / c)),
        "a^n": (a**n, _ref_lam(k * n, c**n)),
    }
    if k == j and c + e:
        built["a+b"] = (a + b, _ref_lam(k, c + e))
    for name, (lazy, ref) in built.items():
        assert _is_lazy(lazy), name
        # equality, truth and the predicates answer from the view
        assert lazy == ref and ref == lazy and not lazy != ref
        assert lazy and not lazy.is_zero() and lazy.is_one() == (ref.num == ref.den)
        assert _is_lazy(lazy), name
        restored = pickle.loads(pickle.dumps(lazy))
        assert _is_lazy(restored) and restored == ref
        assert hash(lazy) == hash(ref) == hash(restored)
        _assert_same(lazy, ref)
        _assert_same(restored, ref)
        _assert_same(copy.deepcopy(lazy), ref)


def test_huge_powers_of_the_weight_stay_views():
    big = Scalar.lam(10**6)
    half = Scalar.from_rational(1, 2)
    values = [big, big * big, half * big, big**3, big**-2, big.inverse(), -big, big + big]
    for s in values:
        assert _is_lazy(s) and s.is_zero() is False and s != ONE
        hash(s)
    assert big * big == Scalar.lam(2 * 10**6) and big**3 == Scalar.lam(3 * 10**6)
    assert hash(big * big) == hash(Scalar.lam(2 * 10**6))
    assert (big * big.inverse()).is_one()
    assert big.specialize(-1) == 1 and (half * big**-2).specialize(1) == Fraction(1, 2)
    assert all(_is_lazy(s) for s in values)


def _refuse_densify(self):
    raise AssertionError(f"dense form built for L^{self.monomial[1]}")


def test_nf_of_a_huge_power_of_the_weight_stays_a_view(monkeypatch, capsys):
    from opalg.cli import main

    monkeypatch.setattr(Scalar, "_densify", _refuse_densify)
    assert main(["nf", "--theory", "rb", "L^1000000*x"]) == 0
    assert capsys.readouterr().out == "L^1000000*x\n"


def test_compose_on_a_huge_power_of_the_weight_stays_a_view(monkeypatch, tmp_path, capsys):
    # the compositions of a rule are registered by hash, its coefficients too
    from opalg.cli import main

    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "operators": [{"name": "d", "rank": 1}, {"name": "p", "rank": 0}],
        "generators": ["x", "y"],
        "rules": [
            {"name": "collapse", "variables": ["u"], "polynomial": "d(p(u)) - L^1000000*p(u)"}
        ],
    }))
    monkeypatch.setattr(Scalar, "_densify", _refuse_densify)
    argv = ["compose", "--theory", str(path), "--left", "collapse", "--right", "collapse"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("trivial\n11 compositions\n")


def test_scalar_powers_are_bounded_before_they_are_computed():
    three, lam, dense = Scalar.from_rational(3), Scalar.lam(1), Scalar((1, 1))
    assert POWER_BITS_CAP == 8192
    # |n| bits per bit of a monomial's coefficient beyond 1; L^k is free
    assert three**8192 == Scalar.from_rational(3**8192)
    assert (lam**100000000).monomial == (1, 100000000)
    assert ZERO**100000000 == ZERO
    for n in (8193, -8193):
        with pytest.raises(BoundExceeded, match="^a scalar power of about 8193 bits, more than 8192$"):
            three**n
    # n² times the dense form's bits: 3 for 1 + L, so 52 passes and 53 does not
    assert dense**52 == _ref_pow(dense, 52)
    with pytest.raises(BoundExceeded, match="about 8427 bits"):
        dense**53


def test_specialising_is_bounded_as_the_typed_power():
    # w^k at a concrete weight is refused exactly when the power is, for the
    # largest power k of L the scalar holds, in numerator or denominator
    assert Scalar.lam(8192).specialize(3) == 3**8192
    assert Scalar.lam(10**8).specialize(-1) == 1
    for s in (Scalar.lam(8193), Scalar.lam(-8193), Scalar((1,) * 8194), Scalar((1,), (1,) * 8194)):
        with pytest.raises(BoundExceeded, match="about 8193 bits"):
            s.specialize(3)
    assert Scalar((1,) * 8193).specialize(2) == 2**8193 - 1


def test_one_limit_error():
    # the limit types named *Exceeded subclass it (tests/test_tooling.py)
    import opalg
    from opalg import gsbases, syntax

    assert opalg.BoundExceeded is syntax.BoundExceeded is gsbases.BoundExceeded is BoundExceeded
    assert syntax.POWER_BITS_CAP is POWER_BITS_CAP


def test_general_powers_square_only_as_needed(monkeypatch):
    a = Scalar((1, 1))  # 1 + L: no monomial view
    assert a**5 == a * a * a * a * a
    want = _ref_pow(a, 4)
    calls = []
    pmul = coeff._pmul

    def counted(x, y):
        calls.append((x, y))
        return pmul(x, y)

    monkeypatch.setattr(coeff, "_pmul", counted)
    monkeypatch.setattr(coeff, "_pgcd", None)
    got = a**4
    # two squarings each of the numerator and the denominator, no product
    # with 1 and no squaring after the last bit; and no gcd, since the
    # powers of a coprime pair are coprime
    assert len(calls) == 4
    assert got == want


def test_general_powers_equal_repeated_products():
    rng = random.Random(23)
    checked = 0
    for _ in range(120):
        a = _random_scalar(rng)
        if a.monomial is not None:
            continue
        for n in range(-3 if a else 0, 7):
            _assert_same(a**n, _ref_pow(a, n))
            checked += 1
    assert checked > 500


def test_general_power_costs_its_products_only():
    # through a gcd per product, this power took about 0.8 s
    a = (ONE + Scalar.lam()) / (ONE + Scalar.lam(2) + Scalar.lam(3))
    start = time.perf_counter()
    got = a**40
    assert time.perf_counter() - start < 0.2
    assert got.num == tuple(Fraction(math.comb(40, k)) for k in range(41))
    assert len(got.den) == 121 and got.den[-1] == 1
    assert got.specialize(1) == Fraction(2**40, 3**40)
