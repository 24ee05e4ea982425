"""Independent brute-force oracles, deliberately written apart from the engine.

The word generator and the irreducibility scans here do not reuse the
engine's matcher or enumerator: irreducibility is decided by hard-coded
structural scans for each forbidden shape, and occurrence search by
exhaustively puncturing a word and substituting back.  The Hurwitz product
is computed by its defining triple sum rather than through the
sigma-transform the engine uses.  The test suite pins engine outputs
against these.

The one exception is ``enumerate_irr_reference``, the engine's own
matcher run over every word: it is the slow path the pruned enumerator
replaced, kept as the reference the pruning must reproduce exactly.
"""

from __future__ import annotations

import itertools
import math

from opalg.gsbases import enumerate_words
from opalg.models import HurwitzSeries
from opalg.rewrite import is_irreducible
from opalg.terms import OP_D, OP_P, Context, Word


# ---------------------------------------------------------------------------
# brute-force word enumeration: multisets assembled with itertools
# ---------------------------------------------------------------------------

def all_words(size_bound, generators, operators):
    """Every word of size <= size_bound, independently of the engine's enumerator."""
    words_by_size = {0: {Word.unit()}}
    for n in range(1, size_bound + 1):
        factors = []
        for g in generators:
            factors.append((1, Word.letter(g)))
        for k in range(1, n + 1):
            for w in words_by_size.get(k - 1, ()):
                for op in operators:
                    factors.append((k, w.apply(op)))
        found = set()
        for count in range(1, n + 1):
            for combo in itertools.combinations_with_replacement(factors, count):
                if sum(sz for sz, _ in combo) != n:
                    continue
                word = Word.unit()
                for _, prime in combo:
                    word = word * prime
                found.add(word)
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
# the Hurwitz product by its defining formula
# ---------------------------------------------------------------------------

def hurwitz_product_reference(f, g):
    """(fg)(n) = sum_{k<=n} sum_{j<=n-k} C(n,k) C(n-k,j) w^k f(n-j) g(k+j)
    on the common window: n(n+1)(n+2)/6 carrier products for window n."""
    w = f.weight
    out = []
    for n in range(min(f.window, g.window)):
        acc = f.ring.zero()
        for k in range(n + 1):
            for j in range(n - k + 1):
                c = math.comb(n, k) * math.comb(n - k, j) * w**k
                acc = acc + c * (f.coeffs[n - j] * g.coeffs[k + j])
        out.append(acc)
    return HurwitzSeries(f.ring, w, out)
