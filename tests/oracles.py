"""Independent brute-force oracles, deliberately written apart from the engine.

The word generator and the irreducibility scans here do not reuse the
engine's matcher or enumerator: irreducibility is decided by hard-coded
structural scans for each forbidden shape, and occurrence search by
exhaustively puncturing a word and substituting back.  The Hurwitz product
is computed by its defining triple sum, and the other series operations on
the coefficients themselves, rather than on the one sigma-coordinate the
engine stores.  The reference parser builds a whole polynomial for every
atom and combines them with polynomial arithmetic rather than gathering
each term's factors.  The test suite pins engine outputs against these.

There are three exceptions, slow paths the engine replaced and kept as the
references the replacements must reproduce exactly.
``enumerate_irr_reference`` is the engine's own matcher run over every
word, which the pruned enumerator replaced.  ``match_rule_reference``
walks every nesting level of a word, building each level's spine of
sibling words, and matches the uncompiled pattern word into each level
with its own level matcher, which the engine's compiled matcher replaced;
the structural, memoised ``match_rule`` replaced the walk.
``word_fields_reference`` computes a word's key, hash and degrees in one
generator pass each, and ``reduct_reference`` and ``substitute_reference``
build a rewrite's words through the rule instance and the singleton word
op(w) at every level; the engine replaced them by one loop per word and by
building each word straight into its context.

``nf_batch_texts`` is not an oracle: it rebuilds the benchmark's nf-batch
corpus, which the work-count pins of several test modules share.
"""

from __future__ import annotations

import itertools
import math
import random

from opalg import coeff
from opalg.coeff import Scalar
from opalg.gsbases import enumerate_words, preset
from opalg.poly import OpPolynomial
from opalg.rewrite import Match, is_irreducible
from opalg.sampling import random_polynomial
from opalg.syntax import DEFAULT_OPERATORS, ParseError, _tokenize, format_polynomial
from opalg.terms import OP_D, OP_P, Context, Word, _tuple_subtract, substitute_letters


# ---------------------------------------------------------------------------
# brute-force word enumeration: multisets of primes by remaining size
# ---------------------------------------------------------------------------

def all_words(size_bound, generators, operators):
    """Every word of size <= size_bound, independently of the engine's enumerator.

    A word is a multiset of primes: letters, and operators applied to smaller
    words.  The words of size n are the multisets of primes of total size n,
    chosen in a fixed prime order with the size still to fill as the budget.
    """
    words_by_size = {0: {Word.unit()}}
    primes = [(1, Word.letter(g)) for g in generators]  # ascending by size
    for n in range(1, size_bound + 1):
        primes.extend((n, w.apply(op)) for w in words_by_size[n - 1] for op in operators)
        found = set()

        def extend(start, budget, word):
            if not budget:
                found.add(word)
                return
            for i in range(start, len(primes)):
                size, prime = primes[i]
                if size > budget:
                    break
                extend(i, budget - size, word * prime)

        extend(0, n, Word.unit())
        words_by_size[n] = found
    out = set()
    for group in words_by_size.values():
        out |= group
    return out


# ---------------------------------------------------------------------------
# structural irreducibility scans, one per forbidden shape
# ---------------------------------------------------------------------------

def _levels(word):
    yield word
    for f in word.ops:
        yield from _levels(f.arg)


def _has_op_pair(word, op):
    for level in _levels(word):
        if sum(1 for f in level.ops if f.op == op) >= 2:
            return True
    return False


def _has_tower(word, outer, inner):
    """Some factor outer(w) where w is exactly one inner(...) factor."""
    for level in _levels(word):
        for f in level.ops:
            if f.op == outer:
                arg = f.arg
                if (
                    not arg.letters
                    and len(arg.ops) == 1
                    and arg.ops[0].op == inner
                ):
                    return True
    return False


def _has_unit_app(word, op):
    for level in _levels(word):
        for f in level.ops:
            if f.op == op and f.arg.is_unit():
                return True
    return False


_SCANS = {
    "d": lambda w: _has_op_pair(w, OP_D) or _has_tower(w, OP_D, OP_D),
    "rb": lambda w: _has_op_pair(w, OP_P) or _has_tower(w, OP_P, OP_P),
    "drb": lambda w: (
        _has_op_pair(w, OP_D)
        or _has_tower(w, OP_D, OP_D)
        or _has_op_pair(w, OP_P)
        or _has_tower(w, OP_P, OP_P)
        or _has_tower(w, OP_D, OP_P)
    ),
    "d+d1": lambda w: (
        _has_op_pair(w, OP_D) or _has_tower(w, OP_D, OP_D) or _has_unit_app(w, OP_D)
    ),
}


def oracle_irreducible(word, theory_name):
    return not _SCANS[theory_name](word)


def oracle_count_irr(size_bound, generators, operators, theory_name):
    return sum(
        1
        for w in all_words(size_bound, generators, operators)
        if oracle_irreducible(w, theory_name)
    )


def enumerate_irr_reference(theory, size_bound, generators):
    """Build every word, then keep those with no pattern at any level."""
    return [
        w
        for w in enumerate_words(size_bound, generators, theory.operators)
        if is_irreducible(w, theory.rules)
    ]


# cumulative irreducible-word counts up to size n, one generator
IRR_COUNT_CLOSED_FORMS = {
    "d-gs": lambda n: (n + 1) * (n + 2) // 2,
    "drb-gs": lambda n: n + 1,
    "rb": lambda n: _fibonacci(n + 4) - 2,
}


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# matching level by level
# ---------------------------------------------------------------------------

def _match_exact(pattern, target, varset, binding):
    """Bindings making pattern cover all of target, at one operator argument."""
    concrete = tuple(l for l in pattern.letters if l not in varset)
    bare_vars = [l for l in pattern.letters if l in varset]
    rest_letters = _tuple_subtract(target.letters, concrete)
    if rest_letters is None:
        return []
    out = []
    for bnd, used in _assign_ops(pattern.ops, target.ops, varset, binding):
        leftover_ops = tuple(
            f for i, f in enumerate(target.ops) if i not in used
        )
        if bare_vars:
            word = Word(rest_letters, leftover_ops)
            b2 = dict(bnd)
            b2[bare_vars[0]] = word
            out.append(b2)
        else:
            if rest_letters or leftover_ops:
                continue
            out.append(bnd)
    return out


def _assign_ops(pat_ops, target_ops, varset, binding, used=frozenset()):
    """Injective assignments of pattern operator factors to target factors,
    trying only the first free one of identical target factors."""
    if not pat_ops:
        return [(binding, used)]
    first, rest = pat_ops[0], pat_ops[1:]
    out = []
    tried = set()
    for i, tf in enumerate(target_ops):
        if i in used or tf.op != first.op or tf in tried:
            continue
        tried.add(tf)
        for b1 in _match_exact(first.arg, tf.arg, varset, binding):
            out.extend(_assign_ops(rest, target_ops, varset, b1, used | {i}))
    return out


def _match_at_level(pattern, level, varset):
    """(binding, leftover word) pairs matching the pattern into one level."""
    rest_letters = _tuple_subtract(level.letters, pattern.letters)
    if rest_letters is None or len(pattern.ops) > len(level.ops):
        return []
    out = []
    for bnd, used in _assign_ops(pattern.ops, level.ops, varset, {}):
        leftover = Word(
            rest_letters, tuple(f for i, f in enumerate(level.ops) if i not in used)
        )
        out.append((bnd, leftover))
    return out


def _positions(word):
    """Yield (spine, subword) for every level of ``word``: the spine lists
    the (sibling word, operator) pairs from the top level down to the level
    ``subword`` sits at.  Equal factors are descended only once."""
    yield [], word
    seen = None
    for f in word.ops:
        if f == seen:
            continue
        seen = f
        sibling = word.subtract(Word((), (f,)))
        for spine, sub in _positions(f.arg):
            yield [(sibling, f.op)] + spine, sub


def match_rule_reference(m, rule):
    """``rewrite.match_rule`` by walking every level of m, uncached."""
    out = []
    for spine, sub in _positions(m):
        for binding, leftover in _match_at_level(rule.lhs, sub, set(rule.variables)):
            cofactors = [s for s, _ in spine] + [leftover]
            context = Context(cofactors, tuple(op for _, op in spine))
            out.append(Match(rule, context, binding))
    out.sort(key=lambda mt: mt.key)
    return out


# ---------------------------------------------------------------------------
# exhaustive occurrence search by puncturing
# ---------------------------------------------------------------------------

def _submultisets(word):
    letter_keys = sorted(set(word.letters))
    op_keys = []
    for f in word.ops:
        if f not in op_keys:
            op_keys.append(f)
    letter_ranges = [range(word.letters.count(k) + 1) for k in letter_keys]
    op_ranges = [range(word.ops.count(k) + 1) for k in op_keys]
    for lpick in itertools.product(*letter_ranges):
        for opick in itertools.product(*op_ranges):
            letters = []
            for k, n in zip(letter_keys, lpick):
                letters.extend([k] * n)
            ops = []
            for k, n in zip(op_keys, opick):
                ops.extend([k] * n)
            yield Word(tuple(letters), tuple(ops))


def all_punctures(word):
    """Every context obtainable by cutting a sub-multiset out of some level."""
    for sub in _submultisets(word):
        rest = word.subtract(sub)
        yield Context((rest,), ())
    for f in set(word.ops):
        rest = word.subtract(Word((), (f,)))
        for inner in all_punctures(f.arg):
            yield Context((rest,) + inner.cofactors, (f.op,) + inner.ops)


def oracle_occurrences(m, target):
    found = {q for q in all_punctures(m) if q.substitute(target) == m}
    return sorted(found, key=lambda q: q.key)


# ---------------------------------------------------------------------------
# Hurwitz series operations on coefficient tuples f(0), ..., f(n-1)
# ---------------------------------------------------------------------------

def hurwitz_product_reference(fc, gc, w):
    """(fg)(n) = sum_{k<=n} sum_{j<=n-k} C(n,k) C(n-k,j) w^k f(n-j) g(k+j)
    on the common window: n(n+1)(n+2)/6 carrier products for window n."""
    out = []
    for n in range(min(len(fc), len(gc))):
        acc = None
        for k in range(n + 1):
            for j in range(n - k + 1):
                c = math.comb(n, k) * math.comb(n - k, j) * w**k
                term = c * (fc[n - j] * gc[k + j])
                acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def hurwitz_sum_reference(fc, gc):
    """f + g entry by entry on the common window."""
    return tuple(a + b for a, b in zip(fc, gc))


def hurwitz_scale_reference(fc, k):
    return tuple(k * a for a in fc)


def hurwitz_derive_reference(fc):
    """The left shift f'(n) = f(n+1); the window shrinks by one."""
    return fc[1:]


def hurwitz_integrate_reference(fc, w):
    """The right shift seeded with -w*f(0); the window grows by one, unless
    it is empty, since (Pf)(0) needs f(0)."""
    return (-w * fc[0],) + fc if fc else ()


# ---------------------------------------------------------------------------
# the term grammar with one polynomial per atom
# ---------------------------------------------------------------------------

def parse_polynomial_reference(text, operators=DEFAULT_OPERATORS):
    """``syntax.parse_polynomial`` by polynomial arithmetic on every atom,
    with the same tokens, errors and error columns."""
    return _ReferenceParser(text, operators).parse()


class _ReferenceParser:
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
                c = _poly_scalar(rhs)
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
        exp = sign * int(self.take("INT")[1])
        c = _poly_scalar(base)
        if c is not None:
            return OpPolynomial.from_word(Word.unit(), c**exp)
        if exp < 0:
            raise ParseError("negative power of a non-scalar", caret[2])
        acc = OpPolynomial.one()
        while exp:
            if exp & 1:
                acc = acc * base
            exp >>= 1
            if exp:
                base = base * base
        return acc

    def atom(self):
        kind, text, at = self.peek()
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


def _poly_scalar(poly):
    """The scalar value of a polynomial supported on the unit word, else None."""
    if poly.is_zero():
        return coeff.ZERO
    terms = poly.terms_desc()
    if len(terms) == 1 and terms[0][0].is_unit():
        return terms[0][1]
    return None


# ---------------------------------------------------------------------------
# words built pass by pass, through intermediate words
# ---------------------------------------------------------------------------

def word_fields_reference(letters, ops):
    """(key, hash, op_degree, letter_degree) of the word with these factors,
    each from its own generator pass over the sorted factors."""
    letters = tuple(sorted(letters, reverse=True))
    ops = tuple(sorted(ops, key=lambda f: f.key, reverse=True))
    op_degree = sum(1 + f.arg.op_degree for f in ops)
    letter_degree = len(letters) + sum(f.arg.letter_degree for f in ops)
    key = (
        op_degree,
        len(ops),
        tuple((f.op.rank, f.op.name) for f in ops),
        tuple(f.arg.key for f in ops),
        (len(letters), letters),
    )
    return key, hash((letters,) + tuple(f._hash for f in ops)), op_degree, letter_degree


def substitute_reference(context, word):
    """``Context.substitute`` through the word op(w) at every level."""
    w = context.cofactors[-1] * word
    for i in range(len(context.ops) - 1, -1, -1):
        w = context.cofactors[i] * w.apply(context.ops[i])
    return w


def reduct_reference(match):
    """``Match.reduct`` through the rule instance: each right-hand word
    with the binding substituted, then put in the context."""
    return tuple(
        substitute_reference(match.context, substitute_letters(w0, match.binding))
        for w0 in match.rule.rhs.monomials()
    )


def nf_batch_texts(seed):
    """The formatted inputs of the benchmark's nf-batch workload for a seed."""
    rng = random.Random(seed)
    return [
        format_polynomial(random_polynomial(rng, 6, ("x", "y"), preset(name).operators))
        for name in ("d", "rb", "drb")
        for _ in range(800)
    ]
