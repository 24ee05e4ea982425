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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .coeff import Scalar
from . import coeff
from .poly import OpPolynomial
from .rewrite import RuleSchema, RuleValidationError, find_occurrences, normal_form
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


class BoundExceeded(RuntimeError):
    """Word enumeration exceeded the configured cap."""


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
        raise KeyError(name)

    def with_gs_verified(self):
        return TheoryPreset(self.name, self.rules, self.operators, True)


# ---------------------------------------------------------------------------
# preset rule sets
# ---------------------------------------------------------------------------

def _d(w):
    return w.apply(OP_D)


def _p(w):
    return w.apply(OP_P)


def _build_presets():
    u = Word.letter("u")
    v = Word.letter("v")
    one = coeff.ONE
    lam = Scalar.lam(1)
    lam_inv = Scalar.lam(-1)

    d_leibniz = RuleSchema(
        "d_leibniz",
        ("u", "v"),
        OpPolynomial(
            (
                (_d(u) * _d(v), one),
                (_d(u) * v, lam_inv),
                (u * _d(v), lam_inv),
                (_d(u * v), -lam_inv),
            )
        ),
    )
    d_quasi_idem = RuleSchema(
        "d_quasi_idem",
        ("u",),
        OpPolynomial(((_d(_d(u)), one), (_d(u), lam_inv))),
    )
    p_rota_baxter = RuleSchema(
        "p_rota_baxter",
        ("u", "v"),
        OpPolynomial(
            (
                (_p(u) * _p(v), one),
                (_p(u * _p(v)), -one),
                (_p(_p(u) * v), -one),
                (_p(u * v), -lam),
            )
        ),
    )
    p_quasi_idem = RuleSchema(
        "p_quasi_idem",
        ("u",),
        OpPolynomial(((_p(_p(u)), one), (_p(u), lam))),
    )
    d_after_p = RuleSchema(
        "d_after_p",
        ("u",),
        OpPolynomial(((_d(_p(u)), one), (u, -one))),
    )
    d_unit = RuleSchema(
        "d_unit",
        (),
        OpPolynomial(((_d(Word.unit()), one),)),
    )
    # rules derived from compositions of the axioms (see the module docstring)
    d_absorb = RuleSchema(
        "d_absorb",
        ("u", "v"),
        OpPolynomial(((_d(_d(u) * v), one), (_d(u) * v, lam_inv))),
    )
    d_collapse = RuleSchema(
        "d_collapse",
        ("u",),
        OpPolynomial(((_d(u), one), (u, lam_inv))),
    )
    p_collapse = RuleSchema(
        "p_collapse",
        ("u",),
        OpPolynomial(((_p(u), one), (u, lam))),
    )

    d_rules = (d_leibniz, d_quasi_idem)
    drb_rules = (d_leibniz, d_quasi_idem, p_rota_baxter, p_quasi_idem, d_after_p)
    return {
        "d": TheoryPreset("d", d_rules, (OP_D,)),
        "rb": TheoryPreset("rb", (p_rota_baxter, p_quasi_idem), (OP_P,)),
        "drb": TheoryPreset("drb", drb_rules, (OP_D, OP_P)),
        "d+d1": TheoryPreset("d+d1", d_rules + (d_unit,), (OP_D,)),
        "d-gs": TheoryPreset("d-gs", d_rules + (d_absorb,), (OP_D,)),
        "drb-gs": TheoryPreset(
            "drb-gs", drb_rules + (d_collapse, p_collapse), (OP_D, OP_P)
        ),
    }


PRESETS = _build_presets()


def preset(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown theory preset {name!r}") from None


def broken_rb():
    """The negative control: the Rota-Baxter rule with its weight term dropped."""
    u = Word.letter("u")
    v = Word.letter("v")
    one = coeff.ONE
    broken = RuleSchema(
        "p_rota_baxter_broken",
        ("u", "v"),
        OpPolynomial(
            (
                (_p(u) * _p(v), one),
                (_p(u * _p(v)), -one),
                (_p(_p(u) * v), -one),
            )
        ),
    )
    return TheoryPreset("rb-broken", (broken, preset("rb").rule("p_quasi_idem")), (OP_P,))


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


def _factor_counts(word):
    counts = {}
    for name in word.letters:
        key = ("L", name)
        counts[key] = counts.get(key, 0) + 1
    for f in word.ops:
        key = ("O", f)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _word_from_choice(items):
    letters = []
    ops = []
    for (tag, val), n in items:
        if tag == "L":
            letters.extend([val] * n)
        else:
            ops.extend([val] * n)
    return Word(tuple(letters), tuple(ops))


def _common_submultisets(a, b):
    """All nonempty common factor sub-multisets of two words."""
    ca, cb = _factor_counts(a), _factor_counts(b)
    shared = [(k, min(n, cb[k])) for k, n in ca.items() if k in cb]
    if not shared:
        return
    ranges = [range(n + 1) for _, n in shared]
    for picks in itertools.product(*ranges):
        if not any(picks):
            continue
        yield _word_from_choice(
            [(k, n) for (k, _), n in zip(shared, picks) if n]
        )


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


def check_triviality(h, rules, omega, step_limit=None):
    """Reduce a composition, checking it stays strictly below its ambiguity.

    Returns (trivial, steps, normal_form): trivial means the normal form is
    zero, in which case the trace is an explicit representation of h by
    rule instances all below omega.
    """
    for w in h.monomials():
        if not w < omega:
            raise MonomialNotBelowAmbiguity(f"monomial {w} not below ambiguity {omega}")
    kwargs = {"collect_steps": True}
    if step_limit is not None:
        kwargs["step_limit"] = step_limit
    res = normal_form(h, rules, **kwargs)
    for s in res.steps:
        if not s.redex < omega:
            raise MonomialNotBelowAmbiguity(f"redex {s.redex} not below ambiguity {omega}")
    return res.poly.is_zero(), res.steps, res.poly


# ---------------------------------------------------------------------------
# desk-scale verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyConfig:
    context_depth: int = 2
    context_cofactors: int = 2
    with_unit: bool = False

    def as_dict(self):
        return {
            "context_depth": self.context_depth,
            "context_cofactors": self.context_cofactors,
            "with_unit": self.with_unit,
        }


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
    """Hole at depth <= bound, every operator wrap, bounded fresh cofactors."""
    out = []
    for depth in range(depth_bound + 1):
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
    """All compositions of one ordered rule pair under the scenario family."""
    f_rule = theory.rule(left) if isinstance(left, str) else left
    g_rule = theory.rule(right) if isinstance(right, str) else right
    rules = theory.rules
    found = {}

    def record(reports):
        for r in reports:
            key = (r.sort_token, r.f_inst, r.g_inst)
            if key in found:
                continue
            trivial, steps, nf = check_triviality(r.composition, rules, r.ambiguity)
            found[key] = replace(r, trivial=trivial, normal_form=nf, steps=steps)

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
                record(
                    intersection_compositions(
                        f_inst, g_inst, f_rule.name, g_rule.name, scenario
                    )
                )
            record(
                including_compositions(
                    f_inst, g_inst, f_rule.name, g_rule.name, scenario
                )
            )

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
                other_menus = list(
                    _binding_menus(tuple(others), _SPARE, (), cfg.with_unit)
                ) or [{}]
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
                        record(
                            including_compositions(
                                f_inst, g_inst, f_rule.name, g_rule.name, scenario
                            )
                        )

    out = list(found.values())
    out.sort(key=lambda r: r.sort_token)
    return out


def _fmt_binding(binding):
    return {v: str(w) for v, w in sorted(binding.items())}


def verify_gs(theory, cfg=None):
    """Check every ordered rule pair; pass iff every composition is trivial."""
    cfg = cfg or VerifyConfig()
    if cfg.context_depth < 0 or cfg.context_cofactors < 0:
        raise ValueError("verification bounds must be nonnegative")
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

def enumerate_words(size_bound, generators, operators, cap=1_000_000):
    """Every word of size at most the bound, over the given alphabet."""
    if size_bound < 0:
        return []
    words_exact = {0: [Word.unit()]}
    primes_exact = {}
    for k in range(1, size_bound + 1):
        primes = []
        if k == 1:
            primes.extend(Word.letter(g) for g in sorted(generators))
        primes.extend(
            w.apply(op) for w in words_exact[k - 1] for op in operators
        )
        primes_exact[k] = primes
        # words of size exactly k: multisets of primes with sizes summing to k
        acc = []
        _multisets(k, primes_exact, k, None, Word.unit(), acc, cap)
        words_exact[k] = acc
        if sum(len(v) for v in words_exact.values()) > cap:
            raise BoundExceeded(f"more than {cap} words below size {size_bound}")
    out = []
    for k in range(size_bound + 1):
        out.extend(words_exact[k])
    out.sort(key=lambda w: w.key)
    return out


def _multisets(budget, primes_exact, max_size, min_key, current, acc, cap):
    if len(acc) > cap:
        raise BoundExceeded(f"word enumeration exceeded cap {cap}")
    if budget == 0:
        acc.append(current)
        return
    for size in range(1, min(budget, max_size) + 1):
        for prime in primes_exact.get(size, ()):
            pk = (size, prime.key)
            if min_key is not None and pk > min_key:
                continue
            _multisets(budget - size, primes_exact, max_size, pk, current * prime, acc, cap)


def enumerate_irr(theory, size_bound, generators, cap=1_000_000):
    """Words of size <= bound containing no rule pattern, ascending."""
    from .rewrite import is_irreducible

    return [
        w
        for w in enumerate_words(size_bound, generators, theory.operators, cap)
        if is_irreducible(w, theory.rules)
    ]


def count_irr(theory, size_bound, generators, cap=1_000_000):
    return len(enumerate_irr(theory, size_bound, generators, cap))
