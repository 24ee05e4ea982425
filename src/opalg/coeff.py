"""Exact scalars: the field Q(L) of rational functions in the formal weight L.

Every coefficient handled by the rewriting engine lives in this field, so
weight-generic identities like ``L * L^-1 = 1`` hold exactly and reduction
never rounds.  A :class:`Scalar` is stored in canonical form: numerator and
denominator are coprime polynomials in L with rational coefficients, the
denominator is monic, and zero is ``0/1``.  Equality of canonical forms is
therefore structural equality.

Quasi-idempotent operators of weight L only ever produce coefficients c·L^k
(c rational, k an integer), so each scalar also carries its *monomial view*
``(c, k)``, or ``None`` when it is not of that form.  The view holds c as an
``int`` when c is integral, as it almost always is (±1 or another small
integer), and as a ``Fraction`` with denominator > 1 otherwise, so the fast
path is machine-integer arithmetic; the dense form is ``Fraction``s
throughout.  Products, sums of equal
powers, negation, inversion and powers of monomials are built straight from
their views, without a polynomial gcd; every other case takes the general
Q(L) path, where a power raises the coprime numerator and denominator
apart and needs no gcd either.  A monomial scalar is stored as its view
alone: its dense ``num``/``den`` are built on first read, so ``L^1000000``
costs no more than ``L``.  Equality, truth, hashing and the
``is_zero``/``is_one`` tests answer from the view.  Both paths give the same
canonical ``num``/``den``, hash and view, so no result depends on which path
built it.

Scalars are immutable and hashable; all operations return new values.
Inputs must be exact: a ``float`` is refused (see :func:`exact_fraction`).

The scalar-size bound lives here, so every caller (the parser, ``nf
--lambda``, model evaluation) gets the same one: a power and a
specialisation estimated past ``POWER_BITS_CAP`` bits raise
:class:`BoundExceeded` before anything is computed.  ``L^k`` alone is free;
``w^k`` at a concrete weight w is refused exactly when the typed power is.
"""

from __future__ import annotations

import sys
from fractions import Fraction

__all__ = [
    "Scalar", "InvalidWeight", "PoleAtWeight", "BoundExceeded", "POWER_BITS_CAP",
    "exact_fraction", "exact_weight",
]

_F0 = Fraction(0)
_F1 = Fraction(1)

#: The most bits a scalar power or specialisation may be estimated to hold;
#: 2^8192 has 2,467 digits.
POWER_BITS_CAP = 8192


class BoundExceeded(RuntimeError):
    """Valid input, too large to compute: the one limit error of opalg.

    Raised for a scalar power or specialisation past POWER_BITS_CAP bits
    (here); for the word, size and integer-digit bounds of ``opalg.syntax``
    and ``opalg.gsbases``; and, through its subclasses, for the reducer's
    step and term limits (``opalg.rewrite``)."""


def exact_fraction(x):
    """``x`` as a Fraction, refusing a ``float`` with ``TypeError``.

    A binary float such as 0.1 is not the rational it prints as, and turning
    it into one would silently make exact arithmetic inexact.  Fractions,
    ints and exact strings such as ``"0.1"`` or ``"-2/7"`` are accepted.
    A string whose numerator or denominator, as written, has more digits
    than ``sys.get_int_max_str_digits()`` raises ``BoundExceeded`` unbuilt,
    and one whose denominator is zero, such as ``"1/0"``, ``ValueError``.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(
            f"inexact float {x!r}: pass a Fraction, an int or a string such as '{x!r}'"
        )
    if isinstance(x, str):
        # a/b, or a.b times 10^k: count the digits before 10^k is built
        limit = sys.get_int_max_str_digits()
        mantissa, _, exp = x.lower().partition("e")
        num, _, den = mantissa.partition("/")
        parts = (num, den, num.partition(".")[2], exp)
        num_d, den_d, frac_d, exp_d = (sum(map(str.isdigit, p)) for p in parts)
        try:
            k = int(exp or 0) if exp_d <= limit else limit + 1
        except ValueError:
            k = 0  # not a number, as Fraction reports
        digits = max(num_d + max(k, 0), den_d, frac_d + max(-k, 0) + 1)
        if limit and digits > limit:
            raise BoundExceeded(f"a number of more than {limit} digits")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r}: the denominator is zero") from None


class InvalidWeight(ValueError):
    """The concrete weight must be a nonzero rational."""


def exact_weight(weight):
    """A concrete weight as a Fraction: exact (see :func:`exact_fraction`)
    and nonzero, else ``InvalidWeight``."""
    w = exact_fraction(weight)
    if w == 0:
        raise InvalidWeight("weight must be nonzero")
    return w


class PoleAtWeight(ArithmeticError):
    """The denominator vanishes at the requested weight."""


def _bits(q):
    """The bits of a Fraction beyond those of 1: none for ±1, one for 2."""
    return abs(q.numerator).bit_length() + q.denominator.bit_length() - 2


def _check_bits(bits):
    if bits > POWER_BITS_CAP:
        raise BoundExceeded(f"a scalar power of about {bits} bits, more than {POWER_BITS_CAP}")


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q, coefficient tuples ordered by degree
# ---------------------------------------------------------------------------

def _trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _pscale(a, k):
    return tuple(c * k for c in a)


def _pdivmod(a, b):
    # b must be nonzero
    rem = list(a)
    lb = len(b)
    lead = b[-1]
    quo = [_F0] * max(len(a) - lb + 1, 0)
    for i in range(len(a) - lb, -1, -1):
        c = rem[i + lb - 1] / lead
        if c:
            quo[i] = c
            for j, cb in enumerate(b):
                rem[i + j] -= c * cb
    return _trim(quo), _trim(rem)


def _pgcd(a, b):
    # monic gcd of two polynomials not both zero; gcd((), b) = monic b
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pscale(a, 1 / a[-1])


def _ppow(a, n):
    """a**n for n >= 1, by repeated squaring from the low bit up."""
    out = None
    while True:
        if n & 1:
            out = a if out is None else _pmul(out, a)
        n >>= 1
        if not n:
            return out
        a = _pmul(a, a)


def _peval(a, x):
    acc = _F0
    for c in reversed(a):
        acc = acc * x + c
    return acc


class Scalar:
    """An element of Q(L), canonical and immutable.

    ``monomial`` is ``(c, k)`` when the value is c·L^k with c ≠ 0, c an
    ``int`` when integral and a ``Fraction`` if not; it is ``None`` for
    every other value, zero included.
    """

    __slots__ = ("_num", "_den", "monomial", "_hash")

    def __new__(cls, num, den=(_F1,)):
        return object.__new__(_ScalarDraft)

    def __init__(self, num, den=(_F1,)):
        num = _trim(tuple(exact_fraction(c) for c in num))
        den = _trim(tuple(exact_fraction(c) for c in den))
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            den = (_F1,)
        else:
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                num = _pscale(num, 1 / lead)
                den = _pscale(den, 1 / lead)
        monomial = None
        if num and not any(num[:-1]) and not any(den[:-1]):
            c = num[-1]  # a Fraction; the view holds an int when it can
            monomial = (c.numerator if c.denominator == 1 else c, len(num) - len(den))
        _fill(self, num, den, monomial)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        if self.monomial is not None:
            return _from_monomial, self.monomial
        return Scalar, (self._num, self._den)

    # -- dense form ---------------------------------------------------------

    @property
    def num(self):
        """Numerator coefficients, by degree; built on first read for a monomial."""
        if self._num is None:
            self._densify()
        return self._num

    @property
    def den(self):
        """Monic denominator coefficients, by degree."""
        if self._den is None:
            self._densify()
        return self._den

    def _densify(self):
        c, k = self.monomial
        c = Fraction(c) if type(c) is int else c
        if k >= 0:
            _setattr(self, "_num", (_F0,) * k + (c,))
            _setattr(self, "_den", (_F1,))
        else:
            _setattr(self, "_num", (c,))
            _setattr(self, "_den", (_F0,) * -k + (_F1,))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, p, q=1):
        if type(p) is int and q == 1:
            return _from_monomial(p, 0)
        return _from_monomial(Fraction(p, q), 0)

    @classmethod
    def lam(cls, power=1):
        """The monomial L**power; negative powers give 1/L**(-power)."""
        return _from_monomial(1, power)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return self.monomial is None and not self._num

    def is_one(self):
        m = self.monomial
        return m is not None and m[1] == 0 and m[0] == 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self.monomial, other.monomial
        if a is not None and b is not None and a[1] == b[1]:
            return _from_monomial(a[0] + b[0], a[1])
        return Scalar(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        a = self.monomial
        if a is not None:
            return _from_monomial(-a[0], a[1])
        return Scalar(_pneg(self.num), self.den)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self.monomial, other.monomial
        if a is not None and b is not None:
            return _from_monomial(a[0] * b[0], a[1] + b[1])
        return Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def inverse(self):
        a = self.monomial
        if a is not None:
            c = a[0]
            return _from_monomial(c if c == 1 or c == -1 else _F1 / c, -a[1])
        if not self._num:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self._den, self._num)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        """self**n, refused before it is computed if it would hold more than
        POWER_BITS_CAP bits: |n| times its coefficient's for a monomial
        a·L^k, so L^k itself is free, and n² times its dense form's for any
        other nonzero scalar, whose degree and coefficients both grow
        n-fold.  Zero to any power is free."""
        if not isinstance(n, int):
            return NotImplemented
        a = self.monomial
        if a is not None:
            _check_bits(abs(n) * _bits(a[0]))
        elif self._num:
            _check_bits(n * n * sum(1 + _bits(q) for q in self._num + self._den))
        if n < 0:  # through the inverse: an int to a negative power is a float
            return self.inverse() ** (-n)
        if a is not None:
            return _from_monomial(a[0] ** n, a[1] * n)
        if not n:
            return ONE
        if not self._num:
            return ZERO
        # the powers of a coprime pair are coprime, and of a monic
        # polynomial monic, so the result is canonical with no gcd; and a
        # polynomial of two or more terms keeps two under a power
        s = object.__new__(_ScalarDraft)
        _fill(s, _ppow(self._num, n), _ppow(self._den, n), None)
        return s

    # -- evaluation ---------------------------------------------------------

    def specialize(self, weight):
        """Evaluate at a concrete nonzero rational weight w, exactly.

        Refused as the typed power w^k would be, where k is the largest
        power of L the scalar holds, in its numerator or denominator."""
        w = exact_weight(weight)
        a = self.monomial
        if a is not None:
            _check_bits(abs(a[1]) * _bits(w))
            return a[0] * w ** a[1]
        _check_bits((max(len(self._num), len(self._den)) - 1) * _bits(w))
        d = _peval(self.den, w)
        if d == 0:
            raise PoleAtWeight(f"denominator vanishes at weight {w}")
        return _peval(self.num, w) / d

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return False
        a = self.monomial
        if a is not None or other.monomial is not None:
            return a == other.monomial
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        h = self._hash
        if h is None:  # a monomial's view is canonical on both paths
            m = self.monomial
            h = hash(m if m is not None else (self._num, self._den))
            _setattr(self, "_hash", h)
        return h

    def __bool__(self):
        return self.monomial is not None or bool(self._num)

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        num = _poly_str(self.num)
        if self.den == (_F1,):
            return num
        return f"({num})/({_poly_str(self.den)})"


def _poly_str(cs):
    if not cs:
        return "0"
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        if k == 0:
            mono = str(c)
        else:
            var = "L" if k == 1 else f"L^{k}"
            if c == 1:
                mono = var
            elif c == -1:
                mono = f"-{var}"
            else:
                mono = f"{c}*{var}"
        parts.append(mono)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


class _ScalarDraft(Scalar):
    __slots__ = ()
    __setattr__ = object.__setattr__


_setattr = object.__setattr__


def _fill(s, num, den, monomial):
    """Fill and freeze s, a new ``_ScalarDraft``."""
    s._num = num
    s._den = den
    s.monomial = monomial
    s._hash = None
    s.__class__ = Scalar


def _from_monomial(c, k):
    """c·L^k (c an int or a Fraction) stored as its view alone, c as an
    ``int`` when integral; ``ZERO`` when c is zero.  The dense form is the
    general path's, built on first read."""
    if not c:
        return ZERO
    if type(c) is not int and c.denominator == 1:
        c = c.numerator
    s = object.__new__(_ScalarDraft)
    _fill(s, None, None, (c, k))
    return s


ZERO = Scalar(())
ONE = Scalar((_F1,))
