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
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from operator import attrgetter

from .poly import OpPolynomial
from .terms import Context, Word, _tuple_subtract, positions, substitute_letters

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
    "UnverifiedTheory",
    "RuleValidationError",
]

DEFAULT_STEP_LIMIT = 1_000_000


class StepLimitExceeded(RuntimeError):
    """Reduction hit the configured step cap."""


class UnverifiedTheory(RuntimeError):
    """Ideal membership was asked of a rule set not known to be complete."""


class RuleValidationError(ValueError):
    """A rule schema violates the engine's pattern requirements."""


def _letter_count(word, name):
    n = word.letters.count(name)
    for f in word.ops:
        n += _letter_count(f.arg, name)
    return n


class RuleSchema:
    """A named monic rewrite rule with linear variable pattern."""

    __slots__ = ("name", "variables", "poly", "lhs", "rhs")

    def __init__(self, name, variables, poly):
        variables = tuple(variables)
        if poly.is_zero():
            raise RuleValidationError(f"rule {name}: zero polynomial")
        lhs, lead_coeff = poly.leading()
        if not lead_coeff.is_one():
            raise RuleValidationError(f"rule {name}: not monic")
        if lhs.is_unit():
            raise RuleValidationError(f"rule {name}: pattern is the unit word")
        varset = set(variables)
        for v in varset:
            if _letter_count(lhs, v) != 1:
                raise RuleValidationError(
                    f"rule {name}: variable {v} must occur exactly once in the pattern"
                )
        for v in lhs.letters:
            if v in varset:
                raise RuleValidationError(
                    f"rule {name}: variable {v} stands bare at the top of the pattern"
                )
        _check_arg_levels(name, lhs, varset)
        rhs = OpPolynomial.from_word(lhs) - poly
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *_):
        raise AttributeError("RuleSchema is immutable")

    def __reduce__(self):
        return RuleSchema, (self.name, self.variables, self.poly)

    def instantiate(self, binding):
        """The rule polynomial with variables replaced by bound words."""
        return self.poly.substitute_letters(binding)

    def lhs_instance(self, binding):
        return substitute_letters(self.lhs, binding)

    def rhs_instance(self, binding):
        return self.rhs.substitute_letters(binding)

    def check_order_compatible(self, letters, operators, samples=25, seed=7):
        """Sample instantiations and check every right monomial sits below the pattern."""
        from .sampling import random_word

        rng = random.Random(seed)
        for _ in range(samples):
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


def _check_arg_levels(name, word, varset):
    for f in word.ops:
        bare = [v for v in f.arg.letters if v in varset]
        if len(bare) > 1:
            raise RuleValidationError(
                f"rule {name}: more than one bare variable inside one argument"
            )
        _check_arg_levels(name, f.arg, varset)


@dataclass(frozen=True)
class Match:
    rule: RuleSchema
    context: Context
    binding: dict

    @property
    def key(self):
        return (
            self.context.key,
            tuple(sorted((v, w.key) for v, w in self.binding.items())),
        )


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


@dataclass(frozen=True)
class NFResult:
    poly: OpPolynomial
    steps: tuple


# ---------------------------------------------------------------------------
# matching
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
    """Injective assignments of pattern operator factors to target factors.

    Identical target factors are interchangeable, so only the first free one
    is tried.  This is the only deduplication the matcher needs: patterns are
    linear, so a binding fixes the image of every pattern factor, and two
    assignments can give the same match only by exchanging identical target
    factors, which this rule never does.
    """
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


def _occurrences(m, pattern, varset):
    """Every (context, binding) at which pattern occurs in m, unsorted."""
    out = []
    for spine, sub in positions(m):
        for binding, leftover in _match_at_level(pattern, sub, varset):
            cofactors = [s for s, _ in spine]
            cofactors.append(leftover)
            out.append((Context(cofactors, tuple(op for _, op in spine)), binding))
    return out


def match_rule(m, rule):
    """Every (context, binding) at which the rule's pattern occurs in m.

    Words are immutable and recur across reduction steps, so results are
    memoised per (rule, word); the cache is cleared when it grows large.
    """
    key = (rule, m)
    cached = _MATCH_CACHE.get(key)
    if cached is not None:
        return cached
    out = [
        Match(rule, ctx, binding)
        for ctx, binding in _occurrences(m, rule.lhs, set(rule.variables))
    ]
    out.sort(key=lambda mt: mt.key)
    if len(_MATCH_CACHE) > _MATCH_CACHE_LIMIT:
        _MATCH_CACHE.clear()
    _MATCH_CACHE[key] = out
    return out


def find_occurrences(m, target):
    """All contexts q with q|_target == m, complete and duplicate-free.

    These are the matches of the variable-free pattern ``target``.  They are
    not memoised: callers ask once per throwaway word.  ``target`` must not
    be the unit word.
    """
    if target.is_unit():
        raise ValueError("occurrence target must not be the unit word")
    out = [ctx for ctx, _ in _occurrences(m, target, frozenset())]
    out.sort(key=lambda c: c.key)
    return out


_MATCH_CACHE = {}
_MATCH_CACHE_LIMIT = 400_000


def is_irreducible(word, rules):
    return not any(match_rule(word, rule) for rule in rules)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _apply(f, word, match):
    c = f.coefficient(word)
    rhs_inst = match.rule.rhs_instance(match.binding)
    repl_poly = rhs_inst.in_context(match.context).scale(c)
    after = f - OpPolynomial.from_word(word, c) + repl_poly
    return after, Step(match.rule, match.context, match.binding, word, c)


def reduce_once(f, rules, strategy="leading", rng=None):
    """Apply one rewrite; returns (polynomial, step or None)."""
    if strategy == "leading":
        for word, _ in f.terms_desc():
            for rule in rules:
                matches = match_rule(word, rule)
                if matches:
                    return _apply(f, word, matches[0])
        return f, None
    if strategy == "random":
        if rng is None:
            rng = random.Random(0)
        candidates = []
        for word, _ in f.terms_desc():
            for rule in rules:
                for match in match_rule(word, rule):
                    candidates.append((word, match))
        if not candidates:
            return f, None
        word, match = candidates[rng.randrange(len(candidates))]
        return _apply(f, word, match)
    raise ValueError(f"unknown strategy {strategy!r}")


_word_key = attrgetter("key")


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
    using a heap", JSC 2011).  The ``random`` strategy draws one match among
    every match of every open word, in ``reduce_once``'s candidate order
    (words descending, then rules, then matches), keeping each word's match
    list in ``found``.

    Termination is guaranteed for order-compatible rules because each step
    strictly lowers the replaced word; the step cap is a defence against
    rule sets that are not.  A step that adds a word not below its redex
    raises ``RuleValidationError``.
    """
    if strategy not in ("leading", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed) if strategy == "random" else None
    terms = {w: f.coefficient(w) for w in f.monomials()}
    open_ = sorted(terms, key=_word_key)
    found = {}
    steps = []
    count = 0
    while True:
        if strategy == "leading":
            match = None
            while open_ and match is None:
                for rule in rules:
                    matches = match_rule(open_[-1], rule)
                    if matches:
                        match = matches[0]
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
            r = rng.randrange(total)
            i = len(open_) - 1
            while r >= len(found[open_[i]]):
                r -= len(found[open_[i]])
                i -= 1
            word = open_.pop(i)
            match = found[word][r]
        c = terms.pop(word)
        repl = match.rule.rhs_instance(match.binding).in_context(match.context)
        for w in repl.monomials():
            if not w < word:
                raise RuleValidationError(
                    f"rule {match.rule.name}: instance monomial {w} not below redex {word}"
                )
            x = repl.coefficient(w) * c
            prev = terms.get(w)
            if prev is None:
                terms[w] = x
                bisect.insort(open_, w, key=_word_key)
                continue
            s = prev + x
            if s:
                terms[w] = s
            else:
                del terms[w]
                i = bisect.bisect_left(open_, w.key, key=_word_key)
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
        inst = s.rule.instantiate(s.binding)
        total = total + inst.in_context(s.context).scale(s.coefficient)
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
