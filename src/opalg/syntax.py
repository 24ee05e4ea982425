"""The term grammar: parsing polynomials from text and printing them back.

Grammar (see docs/grammar.ebnf): letters are identifiers, ``*`` multiplies,
``d(...)`` and ``p(...)`` apply operators, ``1`` is the unit word, ``L`` is
the formal weight, ``p/q`` divides scalars, ``^`` raises to an integer
power.  Example: ``(L^-1)*d(x*y) - 2*p(x)*p(y)``.
"""

from __future__ import annotations

from . import coeff
from .coeff import Scalar
from .poly import OpPolynomial
from .terms import OP_D, OP_P, Word

__all__ = [
    "ParseError", "parse_polynomial", "parse_word", "format_polynomial", "is_letter_name",
]

DEFAULT_OPERATORS = (OP_D, OP_P)


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
        poly = self.sum()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return poly

    def sum(self):
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.take()[0] == "-"
        acc = self.product()
        if negate:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            term = self.product()
            acc = acc - term if op == "-" else acc + term
        return acc

    def product(self):
        acc = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.power()
            if op == "*":
                acc = acc * rhs
            else:
                c = _as_scalar(rhs)
                if c is None:
                    raise ParseError("division by a non-scalar", self.peek()[2])
                if c.is_zero():
                    raise ParseError("division by zero", self.peek()[2])
                acc = acc.scale(c.inverse())
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
        tok = self.take("INT")
        exp = sign * int(tok[1])
        c = _as_scalar(base)
        if c is not None:
            return OpPolynomial.from_word(Word.unit(), c**exp)
        if exp < 0:
            raise ParseError("negative power of a non-scalar", caret[2])
        acc = OpPolynomial.one()
        while exp:  # repeated squaring, from the low bit up
            if exp & 1:
                acc = acc * base
            exp >>= 1
            if exp:
                base = base * base
        return acc

    def atom(self):
        tok = self.peek()
        kind, text, at = tok
        if kind == "INT":
            self.take()
            return OpPolynomial.from_word(Word.unit(), Scalar.from_rational(int(text)))
        if kind == "(":
            self.take()
            inner = self.sum()
            self.take(")")
            return inner
        if kind == "IDENT":
            self.take()
            if text == "L":
                return OpPolynomial.from_word(Word.unit(), Scalar.lam(1))
            if self.peek()[0] == "(":
                op = self.ops.get(text)
                if op is None:
                    raise ParseError(f"unknown operator {text!r}", at)
                self.take("(")
                inner = self.sum()
                self.take(")")
                return inner.apply_operator(op)
            if text in self.ops:
                raise ParseError(f"operator {text!r} used as a letter", at)
            return OpPolynomial.from_word(Word.letter(text))
        raise ParseError(f"unexpected {text!r}", at)


def _as_scalar(poly):
    """The scalar value of a polynomial supported on the unit word, else None."""
    if poly.is_zero():
        return coeff.ZERO
    terms = poly.terms_desc()
    if len(terms) == 1 and terms[0][0].is_unit():
        return terms[0][1]
    return None


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
    return _Parser(text, operators).parse()


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
            parts.append(str(a))
        if k == 1:
            parts.append("L")
        elif k != 0:
            parts.append(f"L^{k}")
        return neg, "*".join(parts)
    neg = c.num[-1] < 0
    return neg, f"({-c if neg else c})"


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
