"""The term grammar: parsing polynomials from text and printing them back.

Grammar (see docs/grammar.ebnf): letters are identifiers, ``*`` multiplies,
``d(...)`` and ``p(...)`` apply operators, ``1`` is the unit word, ``L`` is
the formal weight, ``p/q`` divides scalars, ``^`` raises to an integer
power.  Example: ``(L^-1)*d(x*y) - 2*p(x)*p(y)``.

The parser gathers each term's coefficient, letters and operator factors
and builds one word and one coefficient per term; parenthesised sums are
multiplied in last, and only the finished polynomial is an ``OpPolynomial``.

Input size is bounded before anything is built: a term of more than
``SIZE_CAP`` top-level factors and a product of sums of more than
``WORD_CAP`` term pairs raise ``BoundExceeded``.  A power of a sum counts
the pairs of every product of its repeated squaring beforehand.  So does an
integer, read or printed, with more digits than the interpreter converts
(``sys.get_int_max_str_digits``): the input is valid, only too large.  A
scalar power is bounded by the scalar type itself (``opalg.coeff``, whose
``BoundExceeded`` and ``POWER_BITS_CAP`` this module re-exports).
"""

from __future__ import annotations

import math
import sys

from .coeff import ONE, POWER_BITS_CAP, ZERO, BoundExceeded, Scalar
from .poly import OpPolynomial, add_term
from .terms import OP_D, OP_P, OpApp, Word

__all__ = [
    "ParseError", "parse_polynomial", "parse_word", "format_polynomial", "format_scalar",
    "is_letter_name", "BoundExceeded", "WORD_CAP", "SIZE_CAP", "POWER_BITS_CAP",
]

DEFAULT_OPERATORS = (OP_D, OP_P)

#: The most words an enumeration may hold, contexts a verification family
#: may hold, and term pairs one product of parsed sums may multiply.
WORD_CAP = 1_000_000
#: The bound on the sum of the sizes of the words an enumeration may hold,
#: on the summed depth of a context family's spines, and on the top-level
#: factors of one parsed term.
SIZE_CAP = 32 * WORD_CAP


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

# integers are ASCII digit runs; str.isdigit would also take "²" or "٣"
_DIGITS = frozenset("0123456789")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    """Values are plain ``{Word: Scalar}`` dicts with no zero coefficient.
    A factor is either one term ``(coefficient, letter names, operator
    factors)`` or a dict of two or more terms."""

    def __init__(self, text, operators):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ops = {op.name: op for op in operators}

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        terms = self.sum()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return terms

    def sum(self):
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.take()[0] == "-"
        acc = self.product()
        if negate:
            acc = {w: -c for w, c in acc.items()}
        while self.peek()[0] in ("+", "-"):
            negate = self.take()[0] == "-"
            for w, c in self.product().items():
                add_term(acc, w, -c if negate else c)
        return acc

    def product(self):
        coef, letters, ops, sums = None, [], [], []
        factor = self.power()
        while True:
            if type(factor) is dict:
                sums.append(factor)
            else:
                c, more_letters, more_ops = factor
                _check_factors(len(letters) + len(ops) + len(more_letters) + len(more_ops))
                if c is not ONE:
                    coef = c if coef is None else coef * c
                letters.extend(more_letters)
                ops.extend(more_ops)
            if self.peek()[0] not in ("*", "/"):
                break
            op = self.take()[0]
            factor = self.power()
            if op == "/":
                c = _as_scalar(factor)
                if c is None:
                    raise ParseError("division by a non-scalar", self.peek()[2])
                if c.is_zero():
                    raise ParseError("division by zero", self.peek()[2])
                factor = (c.inverse(), (), ())
        if coef is None:
            coef = ONE
        elif not coef:
            return {}
        acc = {Word(letters, ops) if letters or ops else _UNIT: coef}
        for factor in sums:
            acc = _mul(acc, factor)
        return acc

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        caret = self.take()
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        exp = sign * _int(self.take("INT"))
        c = _as_scalar(base)
        if c is not None:
            return (c**exp, (), ())
        if exp < 0:
            raise ParseError("negative power of a non-scalar", caret[2])
        if type(base) is not dict:
            c, letters, ops = base
            _check_factors((len(letters) + len(ops)) * exp)
            return (c**exp, letters * exp, ops * exp)
        _check_pairs(_squaring_pairs(len(base), exp))
        acc = {_UNIT: ONE}
        while exp:  # repeated squaring, from the low bit up
            if exp & 1:
                acc = _mul(acc, base)
            exp >>= 1
            if exp:
                base = _mul(base, base)
        return _factor(acc)

    def atom(self):
        tok = self.peek()
        kind, text, at = tok
        if kind == "INT":
            self.take()
            return (Scalar.from_rational(_int(tok)), (), ())
        if kind == "(":
            self.take()
            inner = self.sum()
            self.take(")")
            return _factor(inner)
        if kind == "IDENT":
            self.take()
            if text == "L":
                return (_L, (), ())
            if self.peek()[0] == "(":
                op = self.ops.get(text)
                if op is None:
                    raise ParseError(f"unknown operator {text!r}", at)
                self.take("(")
                inner = self.sum()
                self.take(")")
                if len(inner) == 1:
                    [(w, c)] = inner.items()
                    return (c, (), (OpApp(op, w),))
                return _factor({w.apply(op): c for w, c in inner.items()})
            if text in self.ops:
                raise ParseError(f"operator {text!r} used as a letter", at)
            return (ONE, (text,), ())
        raise ParseError(f"unexpected {text!r}", at)


_L = Scalar.lam(1)
_UNIT = Word.unit()
_ZERO_TERM = (ZERO, (), ())


def _factor(terms):
    """A dict of several terms as it is, else its one term or zero as a
    ``(coefficient, letter names, operator factors)`` triple."""
    if len(terms) == 1:
        [(w, c)] = terms.items()
        return (c, w.letters, w.ops)
    return terms if terms else _ZERO_TERM


def _as_scalar(factor):
    """The scalar value of a factor on the unit word, else None."""
    if type(factor) is dict:
        return None
    c, letters, ops = factor
    return None if letters or ops else c


def _int(tok):
    """The value of an INT token.  Its digits are valid, so a literal too
    long for ``int`` is a limit, not a syntax error."""
    try:
        return int(tok[1])
    except ValueError:
        raise BoundExceeded(
            f"an integer literal of {len(tok[1])} digits, more than "
            f"{sys.get_int_max_str_digits()} (column {tok[2] + 1})"
        ) from None


def _check_factors(n):
    if n > SIZE_CAP:
        raise BoundExceeded(f"a term of {n} top-level factors, more than {SIZE_CAP}")


def _check_pairs(n):
    if n > WORD_CAP:
        raise BoundExceeded(f"a product of {n} term pairs, more than {WORD_CAP}")


def _squaring_pairs(t, exp):
    """The most term pairs one product of ``_Parser.power``'s repeated
    squaring multiplies, for a sum of t terms to the power exp.  The k-th
    power is counted as C(k + t - 1, t - 1) terms, as if every product of
    k of the t terms were a distinct word; for two terms they are."""
    def count(k):
        return math.comb(k + t - 1, t - 1)

    most, acc, base = 0, 0, 1
    while exp:
        if exp & 1:
            most = max(most, count(acc) * count(base))
            acc += base
        exp >>= 1
        if exp:
            most = max(most, count(base) ** 2)
            base *= 2
    return most


def _mul(a, b):
    """The product of two term dicts, as a new dict."""
    _check_pairs(len(a) * len(b))
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            add_term(out, w1 * w2, c1 * c2)
    return out


def is_letter_name(name, operators=DEFAULT_OPERATORS):
    """Whether the grammar reads ``name`` back as a letter: an identifier
    other than the formal weight ``L`` and the operator names."""
    try:
        tokens = _tokenize(name)
    except ParseError:
        return False
    return (
        [t[:2] for t in tokens] == [("IDENT", name), ("END", "")]
        and name != "L"
        and name not in {op.name for op in operators}
    )


def parse_polynomial(text, operators=DEFAULT_OPERATORS):
    return OpPolynomial(_Parser(text, operators).parse())


def parse_word(text, operators=DEFAULT_OPERATORS):
    poly = parse_polynomial(text, operators)
    terms = poly.terms_desc()
    if len(terms) != 1 or not terms[0][1].is_one():
        raise ParseError("expected a single word", 0)
    return terms[0][0]


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _scalar_pieces(c):
    """(negative, magnitude text) for a nonzero scalar, parser-compatible."""
    if c.monomial is not None:
        a, k = c.monomial
        neg = a < 0
        a = abs(a)
        parts = []
        if a != 1 or k == 0:
            parts.append(format_scalar(a))
        if k == 1:
            parts.append("L")
        elif k != 0:
            parts.append(f"L^{format_scalar(k)}")
        return neg, "*".join(parts)
    neg = c.num[-1] < 0
    return neg, f"({format_scalar(-c if neg else c)})"


def format_scalar(c):
    """``str(c)`` for a scalar, a rational or an integer, refusing with
    ``BoundExceeded`` one holding an integer of more digits than the
    interpreter converts."""
    try:
        return str(c)
    except ValueError:
        raise BoundExceeded(
            f"a coefficient holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def format_polynomial(f):
    if f.is_zero():
        return "0"
    pieces = []
    for word, c in f.terms_desc():
        neg, mag = _scalar_pieces(c)
        if word.is_unit():
            body = mag
        elif mag == "1":
            body = str(word)
        else:
            body = f"{mag}*{word}"
        pieces.append((neg, body))
    neg, body = pieces[0]
    out = f"-{body}" if neg else body
    for neg, body in pieces[1:]:
        out += f" - {body}" if neg else f" + {body}"
    return out
