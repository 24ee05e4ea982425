"""Theory presets, critical-pair enumeration, and desk-scale verification.

The built-in theories axiomatise, as rewrite rules over the scalar field:

``d``      a differential operator of weight L (the product rule solved for
           d(u)*d(v)) together with quasi-idempotency d(d(u)) = -(1/L) d(u);
``rb``     a Rota-Baxter operator of weight L together with quasi-idempotency
           p(p(u)) = -L p(u);
``drb``    both, plus the section rule d(p(u)) = u;
``d+d1``   the ``d`` theory extended by d(1) = 0;
``d-gs``   the ``d`` rules plus the absorption rule d(d(u)*v) = -(1/L) d(u)*v;
``drb-gs`` the ``drb`` rules plus the collapse rules d(u) = -(1/L) u and
           p(u) = -L u.

The rules are listed as text in one table, ``_RULES``, in the term grammar
of :mod:`opalg.syntax` that rule-set files use; each rule is parsed once and
shared by every preset that holds it, and a preset lists its rules in the
order the ``leading`` strategy tries them.

``d`` and ``drb`` are the defining axioms and are not complete.  ``d-gs`` and
``drb-gs`` are their completions, the Gröbner-Shirshov bases that pass
:func:`verify_gs` (``rb`` is complete as given).  Each added rule is a
nonzero scalar multiple of the normal form of a composition of the axiom
preset's own rules, computed on placeholder letters:

- d_absorb is L^2 times the residue of d_leibniz at u = d(d(x)) against
  d_quasi_idem (hole at d(*)*d(w));
- d_collapse is the residue of d_quasi_idem at u = p(z) against d_after_p;
- p_collapse is minus the residue of d_after_p at u = p(z) against
  p_quasi_idem in the context d(*).

The residue is then lifted to a rule schema by turning the placeholder
letters into variables.  The lift is sound: substituting words for letters
is an operated-algebra homomorphism that sends rule instances to rule
instances, so it maps the ideal into itself, and every instance of the
lifted rule is the image of the residue.  The completions therefore generate
the same ideals as the axioms; tests/test_completeness_gap.py checks each
derivation with a certificate.

Whether such a rule set is complete (a Gröbner-Shirshov basis) is decided by
its compositions: wherever two rule patterns can overlap, the two ways of
rewriting the overlap must agree modulo rewrites below the overlap word.
:func:`verify_gs` enumerates overlaps at desk scale - rule pairs
instantiated on fresh generators with shared-generator identifications,
optionally on the unit, and with one instance wrapped in every context from
a bounded family - and reduces every composition to normal form.  A report
is produced per ambiguity; the run passes only if every composition reduces
to zero.  This is machine evidence over a finite family, not a proof, but a
single non-trivial composition is a definitive refutation of completeness.

The irreducible words of a rule set - the words holding no rule pattern -
span the quotient by its ideal, and form a linear basis of it when the rule
set is complete (the Composition-Diamond lemma); :func:`enumerate_irr`
lists them up to a size.  Pattern occurrence is monotone: a pattern found in an operator's
argument, or among some of a word's factors, is found in the whole word.
So the irreducible words are closed under taking arguments and
sub-products (cf. Comon et al., *Tree Automata Techniques and
Applications*, 2007), and :func:`enumerate_words` extends only irreducible
words, checking each new word at its top level alone.  Its refusal past
``WORD_CAP`` words, or past ``SIZE_CAP`` in the sum of their sizes, still
counts every word of the size, irreducible or not.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, replace

from .coeff import BoundExceeded
from .poly import OpPolynomial
from .rewrite import (
    RuleSchema,
    RuleValidationError,
    _match_at_level,
    find_occurrences,
    normal_form,
)
from .syntax import SIZE_CAP, WORD_CAP, parse_polynomial
from .terms import OP_D, OP_P, Context, Word

__all__ = [
    "TheoryPreset",
    "CompositionReport",
    "VerifyConfig",
    "VerifyReport",
    "PRESETS",
    "preset",
    "broken_rb",
    "intersection_compositions",
    "including_compositions",
    "check_triviality",
    "verify_gs",
    "pair_reports",
    "enumerate_words",
    "enumerate_irr",
    "count_irr",
    "MonomialNotBelowAmbiguity",
    "BoundExceeded",
]


class MonomialNotBelowAmbiguity(ValueError):
    """A composition contained a monomial not strictly below its ambiguity."""


@dataclass(frozen=True)
class TheoryPreset:
    name: str
    rules: tuple
    operators: tuple
    gs_verified: bool = False

    def rule(self, name):
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(f"theory {self.name} has no rule {name!r}")


# ---------------------------------------------------------------------------
# preset rule sets
# ---------------------------------------------------------------------------

# rule name -> (variables, rule polynomial in the term grammar of opalg.syntax)
_RULES = {
    "d_leibniz": ("u v", "d(u)*d(v) + L^-1*d(u)*v + L^-1*u*d(v) - L^-1*d(u*v)"),
    "d_quasi_idem": ("u", "d(d(u)) + L^-1*d(u)"),
    "p_rota_baxter": ("u v", "p(u)*p(v) - p(u*p(v)) - p(p(u)*v) - L*p(u*v)"),
    "p_quasi_idem": ("u", "p(p(u)) + L*p(u)"),
    "d_after_p": ("u", "d(p(u)) - u"),
    "d_unit": ("", "d(1)"),
    # rules derived from compositions of the axioms (see the module docstring)
    "d_absorb": ("u v", "d(d(u)*v) + L^-1*d(u)*v"),
    "d_collapse": ("u", "d(u) + L^-1*u"),
    "p_collapse": ("u", "p(u) + L*u"),
    # the negative control: the Rota-Baxter rule with its weight term dropped
    "p_rota_baxter_broken": ("u v", "p(u)*p(v) - p(u*p(v)) - p(p(u)*v)"),
}

_D_RULES = ("d_leibniz", "d_quasi_idem")
_DRB_RULES = _D_RULES + ("p_rota_baxter", "p_quasi_idem", "d_after_p")

# preset name -> (rule names in the order the leading strategy tries them,
# operators, whether verify_gs passes it at VerifyConfig(1, 1, True))
_THEORIES = {
    "d": (_D_RULES, (OP_D,), False),
    "rb": (("p_rota_baxter", "p_quasi_idem"), (OP_P,), True),
    "drb": (_DRB_RULES, (OP_D, OP_P), False),
    "d+d1": (_D_RULES + ("d_unit",), (OP_D,), False),
    "d-gs": (_D_RULES + ("d_absorb",), (OP_D,), True),
    "drb-gs": (_DRB_RULES + ("d_collapse", "p_collapse"), (OP_D, OP_P), True),
    "rb-broken": (("p_rota_baxter_broken", "p_quasi_idem"), (OP_P,), False),
}


def _build_presets():
    """Every theory, each rule built once and shared by the theories holding it."""
    rules = {
        name: RuleSchema(name, variables.split(), parse_polynomial(text))
        for name, (variables, text) in _RULES.items()
    }
    return {
        name: TheoryPreset(name, tuple(rules[r] for r in names), operators, verified)
        for name, (names, operators, verified) in _THEORIES.items()
    }


PRESETS = _build_presets()
_BROKEN_RB = PRESETS.pop("rb-broken")  # the negative control is not a preset


def preset(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown theory preset {name!r}") from None


def broken_rb():
    """The negative control: the Rota-Baxter rule with its weight term dropped."""
    return _BROKEN_RB


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositionReport:
    left: str
    right: str
    kind: str  # "intersection" | "including"
    ambiguity: Word
    f_inst: OpPolynomial
    g_inst: OpPolynomial
    composition: OpPolynomial
    context: Context = None
    mu: Word = None
    nu: Word = None
    trivial: bool = None
    normal_form: OpPolynomial = None
    steps: tuple = ()
    scenario: dict = field(default_factory=dict)

    @property
    def sort_token(self):
        extra = self.context.key if self.context is not None else (self.mu.key, self.nu.key)
        return (self.left, self.right, self.kind, self.ambiguity.key, extra)


def _common_submultisets(a, b):
    """All nonempty common factor sub-multisets of two words.  Each run of
    equal factors in a's sorted letters, then in its sorted operator
    factors, takes 0 up to its count in both words; the last run varies
    fastest."""
    runs = []
    for side, mine, theirs in ((0, a.letters, b.letters), (1, a.ops, b.ops)):
        for x, group in itertools.groupby(mine):
            n = min(len(tuple(group)), theirs.count(x))
            if n:
                runs.append((side, x, n))
    for picks in itertools.product(*(range(n + 1) for _, _, n in runs)):
        if any(picks):
            parts = ([], [])
            for (side, x, _), k in zip(runs, picks):
                parts[side].extend([x] * k)
            yield Word(*parts)


def intersection_compositions(f, g, left="f", right="g", scenario=None):
    """Overlaps of the two leading words sharing a proper factor multiset.

    The shared part o must be nonempty and smaller than either leading word,
    so the overlap word f̄·(ḡ-o) is longer than both but shorter than their
    concatenation.  One report per distinct overlap.
    """
    fbar = f.leading_word()
    gbar = g.leading_word()
    bound = min(fbar.breadth, gbar.breadth)
    out = []
    for o in _common_submultisets(fbar, gbar):
        if o.breadth >= bound:
            continue
        mu = gbar.subtract(o)
        nu = fbar.subtract(o)
        omega = fbar * mu
        comp = f * mu - g * nu
        out.append(
            CompositionReport(
                left, right, "intersection", omega, f, g, comp,
                mu=mu, nu=nu, scenario=scenario or {},
            )
        )
    return out


def including_compositions(f, g, left="f", right="g", scenario=None):
    """Occurrences of ḡ inside f̄; one report per context, ⋆ included."""
    fbar = f.leading_word()
    gbar = g.leading_word()
    out = []
    for q in find_occurrences(fbar, gbar):
        comp = f - g.in_context(q)
        out.append(
            CompositionReport(
                left, right, "including", fbar, f, g, comp,
                context=q, scenario=scenario or {},
            )
        )
    return out


def check_triviality(h, rules, omega):
    """Reduce a composition, checking it stays strictly below its ambiguity.

    Returns (trivial, steps, normal_form): trivial means the normal form is
    zero, in which case the trace is an explicit representation of h by
    rule instances all below omega.  Every redex is below omega: it is a
    monomial of h, checked here, or a word a step added below its redex,
    which ``normal_form`` checks.
    """
    for w in h.monomials():
        if not w < omega:
            raise MonomialNotBelowAmbiguity(f"monomial {w} not below ambiguity {omega}")
    res = normal_form(h, rules, collect_steps=True)
    return res.poly.is_zero(), res.steps, res.poly


# ---------------------------------------------------------------------------
# desk-scale verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyConfig:
    context_depth: int = 2
    context_cofactors: int = 2
    with_unit: bool = False

    def __post_init__(self):
        if self.context_depth < 0 or self.context_cofactors < 0:
            raise ValueError("verification bounds must be nonnegative")


@dataclass(frozen=True)
class VerifyReport:
    theory: str
    config: VerifyConfig
    reports: tuple
    passed: bool

    @property
    def nontrivial(self):
        return tuple(r for r in self.reports if not r.trivial)


_F_LETTERS = ("u", "v")
_G_LETTERS = ("z", "w")
_SPARE = ("s", "t")


def _cofactor_options(level, bound):
    letters = [f"c{level}{chr(ord('a') + i)}" for i in range(bound)]
    opts = [Word.unit()]
    acc = Word.unit()
    for name in letters:
        acc = acc * Word.letter(name)
        opts.append(acc)
    return opts


def _context_family(depth_bound, cofactor_bound, operators):
    """Hole at depth <= bound, every operator wrap, bounded fresh cofactors.

    With k operators and C cofactors there are k^d·(C+1)^(d+1) contexts of
    depth d, and none deeper than 0 without operators.  The family is
    counted before it is built, and refused past WORD_CAP contexts or past
    SIZE_CAP in the summed depth of their spines, (d+1) for each context of
    depth d.  A depth past the recursion limit is refused at once, since
    words that deep can be neither built nor printed.
    """
    if operators and depth_bound > sys.getrecursionlimit():
        raise BoundExceeded(
            f"contexts of depth {depth_bound} pass the recursion limit {sys.getrecursionlimit()}"
        )
    depths = range(depth_bound + 1 if operators else 1)
    total = spines = 0
    for depth in depths:
        count = len(operators) ** depth * (cofactor_bound + 1) ** (depth + 1)
        total += count
        spines += (depth + 1) * count
        if total > WORD_CAP:
            raise BoundExceeded(
                f"more than {WORD_CAP} contexts of depth at most {depth_bound}"
                f" and cofactor bound {cofactor_bound}"
            )
        if spines > SIZE_CAP:
            raise BoundExceeded(
                f"the contexts of depth at most {depth_bound} and cofactor bound"
                f" {cofactor_bound} have spines of total depth more than {SIZE_CAP}"
            )
    out = []
    for depth in depths:
        level_opts = [_cofactor_options(i, cofactor_bound) for i in range(depth + 1)]
        for ops_choice in itertools.product(operators, repeat=depth):
            for cofs in itertools.product(*level_opts):
                out.append(Context(cofs, ops_choice))
    return out


def _binding_menus(variables, base_letters, extra_values, with_unit):
    """Cartesian binding choices; distinct variables never share a letter."""
    menus = []
    for i, _ in enumerate(variables):
        menu = [Word.letter(base_letters[i])]
        menu.extend(extra_values)
        if with_unit:
            menu.append(Word.unit())
        menus.append(menu)
    for combo in itertools.product(*menus):
        letters_used = [w for w in combo if not w.is_unit() and w.op_breadth == 0 and w.breadth == 1]
        if len(set(letters_used)) != len(letters_used):
            continue
        yield dict(zip(variables, combo))


def _instantiate(rule, binding):
    inst = rule.instantiate(binding)
    lead, c = inst.leading()
    if lead != rule.lhs_instance(binding) or not c.is_one():
        raise RuleValidationError(
            f"rule {rule.name}: instance does not lead with its pattern instance"
        )
    return inst


def pair_reports(theory, left, right, cfg):
    """All compositions of one ordered rule pair under the scenario family.

    The set of calls asked for, each a kind of composition and a pair of
    instances, is the one registry: a call asked again is skipped, so each
    report comes with the first scenario that yields it.  No report can
    then repeat another: one intersection call yields one report per common
    sub-multiset o, each with its own mu; one including call yields one per
    occurrence context; and reports of distinct calls differ in their
    instances or in the kind that their sort token holds."""
    f_rule = theory.rule(left) if isinstance(left, str) else left
    g_rule = theory.rule(right) if isinstance(right, str) else right
    rules = theory.rules
    asked = set()
    found = []

    def record(compositions, f_inst, g_inst, scenario):
        if (compositions, f_inst, g_inst) in asked:
            return
        asked.add((compositions, f_inst, g_inst))
        for r in compositions(f_inst, g_inst, f_rule.name, g_rule.name, scenario):
            trivial, steps, nf = check_triviality(r.composition, rules, r.ambiguity)
            found.append(replace(r, trivial=trivial, normal_form=nf, steps=steps))

    # plain scenarios: f on fresh letters, g sharing f's letters or fresh
    f_base = [Word.letter(l) for l in _F_LETTERS[: len(f_rule.variables)]]
    for f_binding in _binding_menus(
        f_rule.variables, _F_LETTERS, (), cfg.with_unit
    ):
        f_inst = _instantiate(f_rule, f_binding)
        for g_binding in _binding_menus(
            g_rule.variables, _G_LETTERS, tuple(f_base), cfg.with_unit
        ):
            g_inst = _instantiate(g_rule, g_binding)
            scenario = {"f": _fmt_binding(f_binding), "g": _fmt_binding(g_binding)}
            if f_inst != g_inst:
                record(intersection_compositions, f_inst, g_inst, scenario)
            record(including_compositions, f_inst, g_inst, scenario)

    # wrapped scenarios: one f-variable receives the g-instance leading word
    # wrapped in a context from the bounded family
    if f_rule.variables:
        contexts = _context_family(
            cfg.context_depth, cfg.context_cofactors, theory.operators
        )
        for g_binding in _binding_menus(
            g_rule.variables, _F_LETTERS, (), cfg.with_unit
        ):
            g_inst = _instantiate(g_rule, g_binding)
            gbar = g_inst.leading_word()
            for carrier in range(len(f_rule.variables)):
                others = [v for k, v in enumerate(f_rule.variables) if k != carrier]
                other_menus = list(_binding_menus(others, _SPARE, (), cfg.with_unit))
                for q in contexts:
                    wrapped = q.substitute(gbar)
                    for others_binding in other_menus:
                        f_binding = dict(others_binding)
                        f_binding[f_rule.variables[carrier]] = wrapped
                        f_inst = _instantiate(f_rule, f_binding)
                        scenario = {
                            "f": _fmt_binding(f_binding),
                            "g": _fmt_binding(g_binding),
                            "wrap": str(q),
                        }
                        record(including_compositions, f_inst, g_inst, scenario)

    found.sort(key=lambda r: r.sort_token)
    return found


def _fmt_binding(binding):
    return {v: str(w) for v, w in sorted(binding.items())}


def verify_gs(theory, cfg=None):
    """Check every ordered rule pair; pass iff every composition is trivial."""
    cfg = cfg or VerifyConfig()
    reports = []
    for f_rule in theory.rules:
        for g_rule in theory.rules:
            reports.extend(pair_reports(theory, f_rule, g_rule, cfg))
    reports.sort(key=lambda r: r.sort_token)
    passed = all(r.trivial for r in reports)
    return VerifyReport(theory.name, cfg, tuple(reports), passed)


# ---------------------------------------------------------------------------
# irreducible words
# ---------------------------------------------------------------------------


def _count_words(size_bound, n_generators, n_operators):
    """The number of words of size at most the bound and the sum of their
    sizes, without building them.

    A prime (a factor that is not a product) of size n is a letter, at
    n = 1, or an operator around a word of size n - 1.  A word is a multiset
    of primes, so the counts by size are the Euler transform of the prime
    counts: n·words[n] = sum over k of c[k]·words[n - k].

    Without operators the words are the monomials in the generators: there
    are C(n + g, g) of size at most n over g generators, and their sizes
    add up to g·C(n + g, g + 1).

    The count stops once it passes WORD_CAP below the bound, and returns
    None then.  A nonempty alphabet has a word of every size, so a bound of
    WORD_CAP or more is refused before any counting.
    """
    if not (n_generators or n_operators):
        return 1, 0
    if size_bound >= WORD_CAP:
        return None
    g = n_generators
    if not n_operators:
        if math.comb(size_bound - 1 + g, g) > WORD_CAP:
            return None
        return math.comb(size_bound + g, g), g * math.comb(size_bound + g, g + 1)
    words, primes, c = [1], [0], [0]
    total = 1
    size = 0
    for n in range(1, size_bound + 1):
        primes.append(n_operators * words[n - 1] + (g if n == 1 else 0))
        c.append(sum(d * primes[d] for d in range(1, n + 1) if n % d == 0))
        words.append(sum(c[k] * words[n - k] for k in range(1, n + 1)) // n)
        total += words[n]
        size += n * words[n]
        if total > WORD_CAP and n < size_bound:
            return None
    return total, size


def enumerate_words(size_bound, generators, operators, rules=()):
    """Every word of size at most the bound over the given alphabet that
    contains no pattern of the rules, ascending; each generator counts once
    however often it is listed.

    Only irreducible words are extended.  A pattern occurring in an
    operator's argument, or in a sub-product of a word's factors, occurs in
    the whole word too, so every argument and every sub-product of an
    irreducible word is irreducible.  Primes are therefore built around
    irreducible words only, a partial product is dropped as soon as it is
    not among the irreducible words of its size, and a finished word needs
    the pattern check at its top level only.  The unit word has no pattern
    (``RuleSchema`` refuses a unit pattern) and is kept unchecked.

    The refusals past WORD_CAP words and past SIZE_CAP in their total size
    still count every word, irreducible or not.
    """
    if size_bound < 0:
        return []
    generators = sorted(set(generators))
    counted = _count_words(size_bound, len(generators), len(operators))
    if counted is None:
        raise BoundExceeded(f"more than {WORD_CAP} words of size at most {size_bound}")
    total, size = counted
    if total > WORD_CAP:
        raise BoundExceeded(f"{total} words of size at most {size_bound}, more than {WORD_CAP}")
    if size > SIZE_CAP:
        raise BoundExceeded(
            f"the words of size at most {size_bound} have total size {size}, more than {SIZE_CAP}"
        )
    patterns = [r.pattern for r in rules]
    out = [Word.unit()]
    irreducible = {Word.unit()}
    # (size, prime) by ascending size: irreducible primes below the current
    # size, then every prime of the current size
    primes = []
    last = [Word.unit()]
    for k in range(1, size_bound + 1):
        fresh = [Word.letter(g) for g in generators] if k == 1 else []
        fresh.extend(w.apply(op) for w in last for op in operators)
        primes.extend((k, p) for p in fresh)
        found = []
        _multisets(k, primes, len(primes), Word.unit(), irreducible, found)
        last = [
            w for w in found
            if not any(_match_at_level(pattern, w) for pattern in patterns)
        ]
        irreducible.update(last)
        out.extend(last)
        primes[len(primes) - len(fresh):] = [(k, p) for p in fresh if p in irreducible]
    out.sort(key=lambda w: w.key)
    return out


def _multisets(budget, primes, top, current, irreducible, acc):
    """Append to acc current times each multiset of primes[:top] of total
    size budget, dropping a partial product that is not irreducible."""
    for i in range(top):
        size, prime = primes[i]
        if size > budget:
            break
        word = current * prime
        if size == budget:
            acc.append(word)
        elif word in irreducible:
            _multisets(budget - size, primes, i + 1, word, irreducible, acc)


def enumerate_irr(theory, size_bound, generators):
    """Words of size <= bound containing no rule pattern, ascending."""
    return enumerate_words(size_bound, generators, theory.operators, theory.rules)


def count_irr(theory, size_bound, generators):
    return len(enumerate_irr(theory, size_bound, generators))
