"""Seeded random generation of words and polynomials.

Shared by rule validation, the property-test suites, and the reproducible
randomised CLI runs.  Everything is driven by a caller-supplied
``random.Random`` so identical seeds give identical samples.
"""

from __future__ import annotations

from fractions import Fraction

from . import coeff
from .coeff import Scalar
from .poly import OpPolynomial
from .terms import Word

__all__ = ["random_word", "random_polynomial"]


def random_word(rng, max_size, letters, operators, allow_unit=True):
    """A random word of size at most max_size (letters plus operator count)."""
    if max_size <= 0:
        return Word.unit()
    low = 0 if allow_unit else 1
    budget = rng.randint(low, max_size)
    return _build(rng, budget, tuple(letters), tuple(operators))


def _build(rng, budget, letters, operators):
    word = Word.unit()
    while budget > 0:
        if operators and budget >= 2 and rng.random() < 0.45:
            op = operators[rng.randrange(len(operators))]
            inner_budget = rng.randint(0, budget - 1)
            inner = _build(rng, inner_budget, letters, operators)
            word = word * inner.apply(op)
            budget -= 1 + inner.size
        else:
            word = word * Word.letter(letters[rng.randrange(len(letters))])
            budget -= 1
        if rng.random() < 0.25:
            break
    return word


#: The coefficients a random polynomial draws from, and its most terms.
_COEFFICIENTS = (
    coeff.ONE,
    -coeff.ONE,
    Scalar.from_rational(2),
    Scalar.from_rational(-3),
    Scalar.from_rational(Fraction(1, 2)),
    Scalar.lam(1),
    Scalar.lam(-1),
    -Scalar.lam(-2),
)
_MAX_TERMS = 4


def random_polynomial(rng, max_size, letters, operators):
    """A random polynomial whose every monomial has size at most max_size."""
    n = rng.randint(1, _MAX_TERMS)
    terms = []
    for _ in range(n):
        w = random_word(rng, max_size, letters, operators)
        c = _COEFFICIENTS[rng.randrange(len(_COEFFICIENTS))]
        terms.append((w, c))
    return OpPolynomial(terms)
