"""Rule schemas, commutative pattern matching, and normal forms.

A rule schema is a monic polynomial over pattern variables; its leading word
is the pattern rewritten, and the remainder (negated) is the template it
rewrites to, so every rewrite strictly lowers the replaced word in the term
order.  Variables are letters drawn from a reserved namespace and may stand
for any word, including the unit.

Matching is multiset matching against the factors of some level of the
target word: the pattern's operator factors pair injectively with factors of
that level (arguments matched recursively and exactly), the surrounding
factors become the context, and a variable standing alone inside an operator
argument absorbs whatever of that argument is left.  Patterns are required
to be linear (each variable read exactly once), which keeps the enumeration
of matches complete and finite.

Each rule compiles its pattern once (``RuleSchema.pattern``): every level
holds its concrete letters, its bare variable if any, and its operator
factors paired with their compiled arguments.  Injective assignments of
pattern factors to target factors are bitmasks, and an argument matched by
a bare variable alone binds the argument word itself.

The levels are walked by structure: the matches in a word are those at its
top level, plus, for each distinct operator factor f, the matches in f's
argument with the context grown by one level (the operator, and the word
without f as the sibling).  Each word keeps, per rule, one sorted stream of
its matches in its memo slot (``Word._memo``), built only as far as some
caller has read it (``_Stream``): the leading reducer and
``is_irreducible`` read the first match, ``match_rule`` reads to the end,
and ``find_occurrences`` reads a stream that is not kept.  Its arguments
are words too, so a word built around already-matched arguments costs one
top-level match.  The memos live and die with the word table of
``opalg.terms``: its bound is theirs, and its clear drops them.  A match
grown by one level takes its context key and binding key from the inner
match rather than rebuilding them, and so does its reduct, the rule's
right-hand side instantiated in the context: each word of the inner reduct
is wrapped in the operator beside the sibling, built as one word.  A reduct
is built on first use and kept with the match.
"""

from __future__ import annotations

import bisect
import random
import threading
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter

from .coeff import BoundExceeded
from .poly import OpPolynomial
from .sampling import random_word
from .terms import (
    Context,
    Word,
    _beside,
    _substitute_beside,
    _tuple_subtract,
    substitute_letters,
)

__all__ = [
    "RuleSchema",
    "Match",
    "Step",
    "NFResult",
    "match_rule",
    "find_occurrences",
    "reduce_once",
    "normal_form",
    "is_irreducible",
    "ideal_member",
    "certificate_sum",
    "StepLimitExceeded",
    "TermLimitExceeded",
    "UnverifiedTheory",
    "RuleValidationError",
]

DEFAULT_STEP_LIMIT = 1_000_000
# the most terms a polynomial may hold while it is reduced
TERM_LIMIT = 50_000


class StepLimitExceeded(BoundExceeded):
    """Reduction hit the configured step cap."""


class TermLimitExceeded(BoundExceeded):
    """Reduction grew the polynomial past TERM_LIMIT terms."""


class UnverifiedTheory(RuntimeError):
    """Ideal membership was asked of a rule set not known to be complete."""


class RuleValidationError(ValueError):
    """A rule schema violates the engine's pattern requirements."""


class RuleSchema:
    """A named monic rewrite rule with linear variable pattern."""

    __slots__ = ("name", "variables", "varset", "poly", "lhs", "rhs", "pattern", "_hash")

    def __init__(self, name, variables, poly):
        variables = tuple(variables)
        if poly.is_zero():
            raise RuleValidationError(f"rule {name}: zero polynomial")
        lhs, lead_coeff = poly.leading()
        if not lead_coeff.is_one():
            raise RuleValidationError(f"rule {name}: not monic")
        if lhs.is_unit():
            raise RuleValidationError(f"rule {name}: pattern is the unit word")
        varset = frozenset(variables)
        if len(varset) != len(variables):
            raise RuleValidationError(f"rule {name}: variable names must be distinct")
        top, *args = _bare_levels(lhs, varset)
        read = [v for level in (top, *args) for v in level]
        for v in varset:
            if read.count(v) != 1:
                raise RuleValidationError(
                    f"rule {name}: variable {v} must occur exactly once in the pattern"
                )
        if top:
            raise RuleValidationError(
                f"rule {name}: variable {top[0]} stands bare at the top of the pattern"
            )
        if any(len(level) > 1 for level in args):
            raise RuleValidationError(
                f"rule {name}: more than one bare variable inside one argument"
            )
        rhs = OpPolynomial.from_word(lhs) - poly
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "varset", varset)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "pattern", _compile(lhs, varset))
        object.__setattr__(self, "_hash", hash((name, variables, poly)))

    def __setattr__(self, *_):
        raise AttributeError("RuleSchema is immutable")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RuleSchema)
            and self._hash == other._hash
            and (self.name, self.variables, self.poly)
            == (other.name, other.variables, other.poly)
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return RuleSchema, (self.name, self.variables, self.poly)

    def instantiate(self, binding):
        """The rule polynomial with variables replaced by bound words."""
        return self.poly.substitute_letters(binding)

    def lhs_instance(self, binding):
        return substitute_letters(self.lhs, binding)

    def rhs_instance(self, binding):
        return self.rhs.substitute_letters(binding)

    def check_order_compatible(self, letters, operators):
        """Sample 25 instantiations and check every right monomial sits below the pattern."""
        rng = random.Random(7)
        for _ in range(25):
            binding = {
                v: random_word(rng, rng.randint(0, 4), letters, operators)
                for v in self.variables
            }
            lhs = self.lhs_instance(binding)
            for w in self.rhs_instance(binding).monomials():
                if not w < lhs:
                    raise RuleValidationError(
                        f"rule {self.name}: instance monomial {w} not below pattern {lhs}"
                    )

    def __repr__(self):
        return f"RuleSchema({self.name})"


def _bare_levels(word, varset):
    """The variables standing bare at each level of a pattern, the top first."""
    return [tuple(v for v in word.letters if v in varset)] + [
        level for f in word.ops for level in _bare_levels(f.arg, varset)
    ]


class Match:
    """One match of a rule: the context around the pattern instance, and
    the binding of the pattern's variables.

    ``key`` orders the matches of a word and is built once.  A match found
    in an operator argument and wrapped one level up (``wrap``) builds its
    context and key from the inner match's, and its reduct from the inner
    reduct.
    """

    __slots__ = ("rule", "context", "binding", "key", "_inner", "_reduct")

    def __init__(self, rule, context, binding):
        self._set(rule, context, binding, (context.key, _binding_key(binding)), None)

    def _set(self, rule, context, binding, key, inner):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "binding", binding)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_reduct", None)

    def __setattr__(self, *_):
        raise AttributeError("Match is immutable")

    def __reduce__(self):
        return Match, (self.rule, self.context, self.binding)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Match)
            and self.rule == other.rule
            and self.context == other.context
            and self.binding == other.binding
        )

    def __repr__(self):
        return f"Match(rule={self.rule!r}, context={self.context!r}, binding={self.binding!r})"

    def wrap(self, sibling, op):
        """This match inside op(...), beside the word sibling."""
        context = self.context.wrap(sibling, op)
        match = object.__new__(Match)
        match._set(self.rule, context, self.binding, (context.key, self.key[1]), self)
        return match

    def reduct(self):
        """The words of the rule's right-hand side instantiated in the
        context, in the order of ``rule.rhs.items()``; built once."""
        reduct = self._reduct
        if reduct is None:
            inner = self._inner
            if inner is None:
                ctx, binding = self.context, self.binding
                cofactor = ctx.cofactors[-1]
                reduct = tuple(
                    ctx._fill(_substitute_beside(w0, binding, cofactor))
                    for w0 in self.rule.rhs.monomials()
                )
            else:
                sibling, op = self.context.cofactors[0], self.context.ops[0]
                reduct = tuple(_beside(sibling, op, w) for w in inner.reduct())
            object.__setattr__(self, "_reduct", reduct)
        return reduct


@dataclass(frozen=True)
class Step:
    """One rewrite: coefficient * context[pattern instance] was replaced.

    The polynomials around a step are not kept: replaying the steps from the
    input rebuilds them, as ``certificate_sum`` does for their difference.
    """

    rule: RuleSchema
    context: Context
    binding: dict
    redex: Word
    coefficient: object

    def polynomial(self):
        """What the step subtracts: coefficient * context[rule instance]."""
        inst = self.rule.instantiate(self.binding).in_context(self.context)
        return inst.scale(self.coefficient)


@dataclass(frozen=True)
class NFResult:
    poly: OpPolynomial
    steps: tuple


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def _binding_key(binding):
    """The second entry of ``Match.key``: the bound words' keys by variable."""
    return tuple(sorted(zip(binding, map(_key, binding.values()))))


def _compile(pattern, varset):
    """The pattern word as nested levels, built once per rule: each level is
    (its concrete letters, its bare variable or None, (operator, compiled
    argument) pairs for its operator factors)."""
    bare = [l for l in pattern.letters if l in varset]
    return (
        tuple(l for l in pattern.letters if l not in varset),
        bare[0] if bare else None,
        tuple((f.op, _compile(f.arg, varset)) for f in pattern.ops),
    )


def _match_exact(level, target, binding):
    """Bindings extending binding that make a compiled level cover all of
    target, at one operator argument."""
    concrete, bare, pat_ops = level
    rest = _tuple_subtract(target.letters, concrete)
    if rest is None:
        return ()
    ops = target.ops
    if bare is None:
        if rest or len(pat_ops) != len(ops):
            return ()
    elif not pat_ops:
        # a bare variable alone binds the argument itself
        return ({**binding, bare: Word(rest, ops) if concrete else target},)
    elif len(pat_ops) > len(ops):
        return ()
    found = []
    _assign_ops(pat_ops, 0, ops, binding, 0, found)
    if bare is None:
        return [bnd for bnd, _ in found]
    return [{**bnd, bare: Word(rest, _unused(ops, used))} for bnd, used in found]


def _unused(ops, used):
    """The factors of ops whose bit is not set in the mask used."""
    return tuple(f for i, f in enumerate(ops) if not used >> i & 1)


def _assign_ops(pat_ops, j, target_ops, binding, used, out):
    """Append to out each injective assignment of pat_ops[j:] to the target
    factors not in the bitmask used, as (binding, used) pairs.

    Identical target factors are interchangeable, so only the first free one
    is tried; they sit next to each other, so comparing with the last one
    tried finds them.  This is the only deduplication the matcher needs:
    patterns are linear, so a binding fixes the image of every pattern
    factor, and two assignments can give the same match only by exchanging
    identical target factors, which this rule never does.
    """
    if j == len(pat_ops):
        out.append((binding, used))
        return
    op, arg = pat_ops[j]
    last = None
    bit = 1
    for tf in target_ops:
        if not used & bit and tf.op == op and tf != last:
            last = tf
            for b1 in _match_exact(arg, tf.arg, binding):
                _assign_ops(pat_ops, j + 1, target_ops, b1, used | bit, out)
        bit <<= 1


def _match_at_level(pattern, level):
    """(binding, used) pairs matching a compiled pattern into the top level
    of a word, used being the bitmask of the level's operator factors that
    the pattern takes: the rest of the level is the match's cofactor."""
    concrete, _, pat_ops = pattern
    ops = level.ops
    if len(pat_ops) > len(ops) or _tuple_subtract(level.letters, concrete) is None:
        return []
    found = []
    _assign_ops(pat_ops, 0, ops, {}, 0, found)
    return found


_arg_degree = attrgetter("arg.op_degree")
_arg_key = attrgetter("arg.key")


def _cofactor_key(ops, used):
    """How the cofactor compares that a top-level match taking the factors
    in the bitmask used leaves at the level whose operator factors are ops,
    without building it.  The pattern's top-level matches there take the
    same letters and the same operators, so their cofactors share the
    letters, the number of operator factors and the operator tiers of their
    keys, and differ only in op degree and argument keys."""
    unused = _unused(ops, used)
    return sum(map(_arg_degree, unused)), tuple(map(_arg_key, unused))


class _Stream(list):
    """The matches of a rule in one word, sorted by ``Match.key`` and built
    as far as a caller has read (``_grow``).  A top-level match sorts before
    every wrapped one, since its context key holds no operator: the least
    comes first, built alone, then the rest of the level (``_top``), then a
    merge of the distinct arguments' streams, each wrapped in one more
    level, which keeps their order.  ``_heap`` (None until the top level is
    spent) holds one entry per argument that matches, its next match and
    the position after it; the entry taken last (``_last``) is refilled
    only when the next match is asked for.  The slots are set by the first
    read; every rule that does not match a word shares the empty ``_NONE``.
    """

    __slots__ = ("_top", "_heap", "_last")


_NONE = _Stream()
_READING = threading.Lock()


def _stream(m, rule, pattern):
    """The stream of pattern's matches in m, its least match built: kept
    in m's memo per rule, or unkept if rule is None."""
    memo = m._memo if rule is not None else {}
    if memo is None:
        memo = {}
        object.__setattr__(m, "_memo", memo)
    stream = memo.get(rule)
    if stream is None:
        stream = _Stream()
        if not _grow(stream, m, rule, pattern):
            stream = _NONE
        # a table clear inside the recursion drops memo from m, so the
        # entry is then not kept
        memo[rule] = stream
    return stream


def _grow(stream, m, rule, pattern):
    """Append the next matches to stream, the stream of pattern in m;
    False when it holds them all.  The top-level matches are ordered by
    their cofactors without building them (they share their letters), then
    by their bindings.  ``_assign_ops`` never passes over a free factor for
    a later identical one, so distinct masks leave distinct cofactors."""
    ops = m.ops
    if not stream or stream._top:
        found = _match_at_level(pattern, m)
        if stream:
            found.sort(key=lambda c: (_cofactor_key(ops, c[1]), _binding_key(c[0])))
            del found[0]
        else:
            stream._heap = stream._last = None
        stream._top = not stream and len(found) > 1
        if stream._top:
            used = min({u for _, u in found}, key=lambda u: _cofactor_key(ops, u))
            found = [(min((b for b, u in found if u == used), key=_binding_key), used)]
        if found:
            letters = _tuple_subtract(m.letters, pattern[0])
            for binding, used in found:
                stream.append(Match(rule, Context.top(Word(letters, _unused(ops, used))), binding))
            return True
    heap = stream._heap
    if heap is None:
        heap = stream._heap = []
        for i, f in enumerate(ops):
            if not i or f != ops[i - 1]:  # identical factors sit together
                inner = _stream(f.arg, rule, pattern)
                if inner:
                    sibling = Word(m.letters, ops[:i] + ops[i + 1:])
                    mt = inner[0].wrap(sibling, f.op)
                    heappush(heap, (mt.key, i, mt, inner, 1, f, sibling))
    last = stream._last
    if last is not None:
        _, i, _, inner, n, f, sibling = last
        if n < len(inner) or _grow(inner, f.arg, rule, pattern):
            mt = inner[n].wrap(sibling, f.op)
            heappush(heap, (mt.key, i, mt, inner, n + 1, f, sibling))
    last = stream._last = heappop(heap) if heap else None
    if last is not None:
        stream.append(last[2])
    return last is not None


def _read_all(m, rule, pattern):
    """The stream of pattern's matches in m, read to its end by one thread
    at a time: reading on grows kept streams in place, while a first read
    reads only the fixed first match of the streams already kept."""
    with _READING:
        stream = _stream(m, rule, pattern)
        while stream and _grow(stream, m, rule, pattern):
            pass
    return stream


def _least_match(m, rule):
    """``match_rule(m, rule)[0]``, or None when the rule does not match m."""
    stream = _stream(m, rule, rule.pattern)
    return stream[0] if stream else None


def match_rule(m, rule):
    """Every match of the rule's pattern in m, sorted by ``Match.key``:
    those at the top level of m and those in each distinct operator argument.

    Words are hash-consed and recur across reduction steps and as arguments
    of other words, so each word keeps its stream of matches per rule, at
    every level; this reads it to the end.
    """
    return _read_all(m, rule, rule.pattern)


def find_occurrences(m, target):
    """All contexts q with q|_target == m, complete and duplicate-free.

    These are the matches of the variable-free pattern ``target``, read
    from the same stream as ``match_rule``'s.  They are not memoised:
    callers ask once per throwaway word.  ``target`` must not be the unit
    word.
    """
    if target.is_unit():
        raise ValueError("occurrence target must not be the unit word")
    return [mt.context for mt in _read_all(m, None, _compile(target, ()))]


_key = attrgetter("key")


def is_irreducible(word, rules):
    return not any(_stream(word, rule, rule.pattern) for rule in rules)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def reduce_once(f, rules, strategy="leading", rng=None):
    """Apply one rewrite; returns (polynomial, step or None).  The candidates
    are every match of every rule in every word of f, words descending, then
    rules, then ``match_rule`` order: ``leading`` takes the first, and
    ``random`` draws one with rng, ``random.Random(0)`` if None."""
    if strategy not in ("leading", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    candidates = [(w, m) for w, _ in f.terms_desc() for r in rules for m in match_rule(w, r)]
    if not candidates:
        return f, None
    i = 0
    if strategy == "random":
        i = (random.Random(0) if rng is None else rng).randrange(len(candidates))
    word, match = candidates[i]
    step = Step(match.rule, match.context, match.binding, word, f.coefficient(word))
    return f - step.polynomial(), step


def normal_form(
    f,
    rules,
    strategy="leading",
    seed=0,
    step_limit=DEFAULT_STEP_LIMIT,
    collect_steps=False,
):
    """Reduce to a fixed point of reduce_once, taking the steps it takes.

    ``terms`` is the whole current polynomial and ``open_`` its words not
    yet known to be irreducible, ascending, so no step rebuilds or re-sorts
    the polynomial.  The ``leading`` strategy rewrites the greatest open word
    by the first match of the first rule that matches, dropping open words
    that no rule matches (cf. Monagan & Pearce, "Sparse polynomial division
    using a heap", JSC 2011); it reads only the first match of each word's
    stream.  The ``random`` strategy draws one match among every match of
    every open word, in ``reduce_once``'s candidate order (words descending,
    then rules, then matches), keeping each word's match list in ``found``.

    Termination is guaranteed for order-compatible rules because each step
    strictly lowers the replaced word; the step cap is a defence against
    rule sets that are not, and ``TERM_LIMIT`` against a polynomial that
    outgrows memory before the steps run out.  A step that adds a word not
    below its redex raises ``RuleValidationError``.
    """
    if strategy not in ("leading", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if step_limit < 0:
        raise ValueError("the step limit must not be negative")
    rng = None  # the random strategy's generator, seeded on its first draw
    terms = dict(f.items())
    open_ = sorted(terms, key=_key)
    found = {}
    steps = []
    count = 0
    while True:
        if strategy == "leading":
            match = None
            while open_ and match is None:
                for rule in rules:
                    match = _least_match(open_[-1], rule)
                    if match is not None:
                        break
                else:
                    open_.pop()
            if match is None:
                break
            word = open_.pop()
        else:
            reducible = []
            total = 0
            for w in open_:
                ms = found.get(w)
                if ms is None:
                    ms = found[w] = [m for rule in rules for m in match_rule(w, rule)]
                if ms:
                    reducible.append(w)
                    total += len(ms)
            open_ = reducible
            if not total:
                break
            if rng is None:
                rng = random.Random(seed)
            r = rng.randrange(total)
            i = len(open_) - 1
            while r >= len(found[open_[i]]):
                r -= len(found[open_[i]])
                i -= 1
            word = open_.pop(i)
            match = found[word][r]
        c = terms.pop(word)
        for w, (_, c0) in zip(match.reduct(), match.rule.rhs.items()):
            if not w < word:
                raise RuleValidationError(
                    f"rule {match.rule.name}: instance monomial {w} not below redex {word}"
                )
            x = c0 * c
            prev = terms.get(w)
            if prev is None:
                terms[w] = x
                if len(terms) > TERM_LIMIT:
                    raise TermLimitExceeded(f"no normal form within {TERM_LIMIT} terms")
                bisect.insort(open_, w, key=_key)
                continue
            s = prev + x
            if s:
                terms[w] = s
            else:
                del terms[w]
                i = bisect.bisect_left(open_, w.key, key=_key)
                if i < len(open_) and open_[i] == w:
                    del open_[i]
        if collect_steps:
            steps.append(Step(match.rule, match.context, match.binding, word, c))
        count += 1
        if count > step_limit:
            raise StepLimitExceeded(f"no normal form within {step_limit} steps")
    return NFResult(OpPolynomial(terms), tuple(steps))


def certificate_sum(steps):
    """Replay a trace: the sum of c_i * q_i[rule instance_i].

    Equals (input - normal form) exactly; the acceptance suite checks this.
    """
    total = OpPolynomial.zero()
    for s in steps:
        total = total + s.polynomial()
    return total


def ideal_member(f, theory, assume_gs=False):
    """Whether f lies in the operated ideal generated by the theory's rules.

    Valid in both directions only when the rule set is a complete
    (confluent) basis; the theory must carry positive verification evidence
    or the caller must explicitly assume it.
    """
    if not (assume_gs or getattr(theory, "gs_verified", False)):
        raise UnverifiedTheory(
            f"theory {getattr(theory, 'name', '?')} has not passed verification; "
            "membership would be one-sided"
        )
    return normal_form(f, theory.rules).poly.is_zero()
