"""Exact scalars: the field Q(L) of rational functions in the formal weight L.

Every coefficient handled by the rewriting engine lives in this field, so
weight-generic identities like ``L * L^-1 = 1`` hold exactly and reduction
never rounds.  A :class:`Scalar` is stored in canonical form: numerator and
denominator are coprime polynomials in L with rational coefficients, the
denominator is monic, and zero is ``0/1``.  Equality of canonical forms is
therefore structural equality.

Quasi-idempotent operators of weight L only ever produce coefficients c·L^k
(c rational, k an integer), so each scalar also carries its *monomial view*
``(c, k)``, or ``None`` when it is not of that form.  Products, sums of equal
powers, negation and inversion of monomials are built straight from their
views, without a polynomial gcd; every other case takes the general Q(L)
path.  Both paths give the same canonical ``num``/``den``, hash and view, so
no result depends on which path built it.

Scalars are immutable and hashable; all operations return new values.
Inputs must be exact: a ``float`` is refused (see :func:`exact_fraction`).
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Scalar", "InvalidWeight", "PoleAtWeight", "exact_fraction"]

_F0 = Fraction(0)
_F1 = Fraction(1)


def exact_fraction(x):
    """``x`` as a Fraction, refusing a ``float`` with ``TypeError``.

    A binary float such as 0.1 is not the rational it prints as, and turning
    it into one would silently make exact arithmetic inexact.  Fractions,
    ints and exact strings such as ``"0.1"`` or ``"-2/7"`` are accepted.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(
            f"inexact float {x!r}: pass a Fraction, an int or a string such as '{x!r}'"
        )
    return Fraction(x)


class InvalidWeight(ValueError):
    """The concrete weight must be a nonzero rational."""


class PoleAtWeight(ArithmeticError):
    """The denominator vanishes at the requested weight."""


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
    if not k:
        return ()
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
    # monic gcd; gcd((), b) = monic b
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, 1 / a[-1])


def _peval(a, x):
    acc = _F0
    for c in reversed(a):
        acc = acc * x + c
    return acc


class Scalar:
    """An element of Q(L), canonical and immutable.

    ``monomial`` is ``(c, k)`` when the value is c·L^k with c ≠ 0, and
    ``None`` otherwise (zero included).
    """

    __slots__ = ("num", "den", "monomial", "_hash")

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
            monomial = (num[-1], len(num) - len(den))
        _fill(self, num, den, monomial)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return Scalar, (self.num, self.den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, p, q=1):
        return _from_monomial(Fraction(p, q), 0)

    @classmethod
    def lam(cls, power=1):
        """The monomial L**power; negative powers give 1/L**(-power)."""
        return _from_monomial(_F1, power)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == (_F1,) and self.den == (_F1,)

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
        if not self.num:
            raise ZeroDivisionError("inverse of zero scalar")
        a = self.monomial
        if a is not None:
            return _from_monomial(1 / a[0], -a[1])
        return Scalar(self.den, self.num)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation ---------------------------------------------------------

    def specialize(self, weight):
        """Evaluate at a concrete nonzero rational weight, exactly."""
        w = exact_fraction(weight)
        if w == 0:
            raise InvalidWeight("weight must be nonzero")
        d = _peval(self.den, w)
        if d == 0:
            raise PoleAtWeight(f"denominator vanishes at weight {w}")
        return _peval(self.num, w) / d

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return bool(self.num)

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


_setattr = object.__setattr__


def _fill(s, num, den, monomial):
    _setattr(s, "num", num)
    _setattr(s, "den", den)
    _setattr(s, "monomial", monomial)
    _setattr(s, "_hash", hash((num, den)))


def _from_monomial(c, k):
    """c·L^k (c a Fraction) in the canonical form of the general path;
    ``ZERO`` when c is zero."""
    if not c:
        return ZERO
    if k >= 0:
        num, den = (_F0,) * k + (c,), (_F1,)
    else:
        num, den = (c,), (_F0,) * -k + (_F1,)
    s = object.__new__(Scalar)
    _fill(s, num, den, (c, k))
    return s


ZERO = Scalar(())
ONE = Scalar((_F1,))
