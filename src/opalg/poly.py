"""Polynomials: finite linear combinations of words with scalar coefficients.

The free commutative operated algebra over the scalar field.  A polynomial
is a map word -> scalar with no zero values; the zero polynomial is the
empty map.  The leading term is the order-maximal word, cached because the
rewriting engine reads it constantly.
"""

from __future__ import annotations

from . import coeff
from .coeff import Scalar
from .terms import Word, substitute_letters

__all__ = ["OpPolynomial", "ZeroPolynomial", "add_term"]


class ZeroPolynomial(ArithmeticError):
    """The zero polynomial has no leading term."""


def add_term(terms, word, c):
    """Add c·word into a ``{Word: Scalar}`` map, dropping the word if its
    coefficient cancels; c must be nonzero."""
    prev = terms.get(word)
    if prev is None:
        terms[word] = c
    else:
        c = prev + c
        if c:
            terms[word] = c
        else:
            del terms[word]


class OpPolynomial:
    __slots__ = ("_terms", "_desc", "_hash")

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, c in items:
            if c:
                add_term(data, word, c)
        object.__setattr__(self, "_terms", data)
        object.__setattr__(self, "_desc", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("OpPolynomial is immutable")

    def __reduce__(self):
        return OpPolynomial, (self._terms,)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def from_word(cls, word, c=coeff.ONE):
        return cls(((word, c),))

    @classmethod
    def one(cls):
        return cls.from_word(Word.unit())

    # -- views ---------------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def coefficient(self, word):
        return self._terms.get(word, coeff.ZERO)

    def monomials(self):
        return self._terms.keys()

    def items(self):
        """(word, coefficient) pairs in the order the words were added."""
        return self._terms.items()

    def terms_desc(self):
        """(word, coefficient) pairs in descending order, cached."""
        cached = self._desc
        if cached is None:
            cached = sorted(self._terms.items(), key=lambda t: t[0].key, reverse=True)
            object.__setattr__(self, "_desc", cached)
        return cached

    def leading(self):
        """The order-maximal (word, coefficient) pair."""
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return self.terms_desc()[0]

    def leading_word(self):
        return self.leading()[0]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OpPolynomial):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        data = dict(self._terms)
        for word, c in other._terms.items():
            add_term(data, word, c)
        out = OpPolynomial(())
        object.__setattr__(out, "_terms", data)
        return out

    def __neg__(self):
        return self.scale(_MINUS_ONE)

    def __sub__(self, other):
        if not isinstance(other, OpPolynomial):
            return NotImplemented
        return self + other.scale(_MINUS_ONE)

    def scale(self, c):
        if not c:
            return _ZERO
        return OpPolynomial(((w, x * c) for w, x in self._terms.items()))

    def __mul__(self, other):
        if isinstance(other, Word):
            return OpPolynomial(((w * other, c) for w, c in self._terms.items()))
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, OpPolynomial):
            return NotImplemented
        acc = []
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                acc.append((w1 * w2, c1 * c2))
        return OpPolynomial(acc)

    def apply_operator(self, op):
        """Linear extension of the operator to polynomials."""
        return OpPolynomial(((w.apply(op), c) for w, c in self._terms.items()))

    def make_monic(self):
        _, c = self.leading()
        if c.is_one():
            return self
        return self.scale(c.inverse())

    def substitute_letters(self, mapping):
        return OpPolynomial(
            ((substitute_letters(w, mapping), c) for w, c in self._terms.items())
        )

    def in_context(self, q):
        """Linear extension of context substitution."""
        return OpPolynomial(((q.substitute(w), c) for w, c in self._terms.items()))

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, OpPolynomial) and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset((w, c) for w, c in self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"OpPolynomial({self})"

    def __str__(self):
        from .syntax import format_polynomial  # syntax imports this module

        return format_polynomial(self)


_ZERO = OpPolynomial(())
_MINUS_ONE = -coeff.ONE
