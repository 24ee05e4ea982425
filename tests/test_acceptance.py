"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check here is exact (rational arithmetic; no tolerances).  Each test
prints a single PASS/FAIL line; with ``pytest -v`` the test names double as
the per-criterion report.

Criteria 1 and 3 check the Gröbner-Shirshov basis of each category, tied
to its axiom preset by ``_BASIS``.  The ``rb`` preset is its own basis.  The
``d`` and ``drb`` presets are the defining axioms and are not confluent as
given (see tests/test_completeness_gap.py for the machine-checked
witnesses); their bases are the presets ``d-gs`` and ``drb-gs``, which add
rules derived from the axioms (certified in the same module), so they
generate the same ideals.
"""

import json
import random
from fractions import Fraction

import pytest

from opalg.cli import main, parse_polynomial as P, parse_word as W
from opalg.gsbases import (
    VerifyConfig,
    broken_rb,
    count_irr,
    intersection_compositions,
    including_compositions,
    preset,
    verify_gs,
)
from opalg.models import (
    DegenerateModel,
    HurwitzConstrainedModel,
    LeftMultiplicationModel,
    RationalRing,
    check_axioms,
    evaluate_in_model,
)
from opalg.rewrite import is_irreducible, normal_form
from opalg.sampling import random_polynomial, random_word
from opalg.terms import EQUAL, GREATER, LESS, OP_D, OP_P, Context, compare

from oracles import oracle_count_irr


def _report(label, ok, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: desk-scale verification of the three categories' bases
# ---------------------------------------------------------------------------

# axiom preset -> the preset holding its Gröbner-Shirshov basis
_BASIS = {"d": "d-gs", "rb": "rb", "drb": "drb-gs"}


def _basis(name):
    """The basis of the category axiomatised by preset ``name``.

    Every axiom is a rule of the basis, so the basis generates the ideal of
    the axioms (the added rules lie in it: tests/test_completeness_gap.py).
    """
    axioms = preset(name)
    basis = preset(_BASIS[name])
    basis_rules = {r.name: r for r in basis.rules}
    for rule in axioms.rules:
        assert basis_rules.get(rule.name) is rule, f"axiom {rule.name} not in basis"
    assert basis.operators == axioms.operators
    return basis


_EXPECTED_INTERSECTION_CELLS = {
    "d": {("d_leibniz", "d_leibniz")},
    "rb": {("p_rota_baxter", "p_rota_baxter")},
    "drb": {("d_leibniz", "d_leibniz"), ("p_rota_baxter", "p_rota_baxter")},
}

# one concrete ambiguity per composition-table cell (hole-at-top instances);
# row = left rule, column = right rule
_NAMED_AMBIGUITIES = {
    "d": [
        "d(u)*d(v)*d(w)",
        "d(d(u)*d(v))*d(s)",
        "d(d(d(u)))*d(s)",
        "d(d(d(u)*d(v)))",
        "d(d(d(d(u))))",
    ],
    "rb": [
        "p(u)*p(v)*p(w)",
        "p(p(u)*p(v))*p(s)",
        "p(p(p(u)))*p(s)",
        "p(p(p(u)*p(v)))",
        "p(p(p(p(u))))",
    ],
    "drb": [
        "d(u)*d(v)*d(w)",
        "d(d(u)*d(v))*d(s)",
        "d(d(d(u)))*d(s)",
        "d(p(u)*p(v))*d(s)",
        "d(p(p(u)))*d(s)",
        "d(d(p(u)))*d(s)",
        "d(d(d(u)*d(v)))",
        "d(d(d(d(u))))",
        "d(d(p(u)*p(v)))",
        "d(d(p(p(u))))",
        "d(d(d(p(u))))",
        "p(u)*p(v)*p(w)",
        "p(d(u)*d(v))*p(s)",
        "p(d(d(u)))*p(s)",
        "p(p(u)*p(v))*p(s)",
        "p(p(p(u)))*p(s)",
        "p(d(p(u)))*p(s)",
        "p(p(d(u)*d(v)))",
        "p(p(d(d(u))))",
        "p(p(p(u)*p(v)))",
        "p(p(p(p(u))))",
        "p(p(d(p(u))))",
        "d(p(d(u)*d(v)))",
        "d(p(d(d(u))))",
        "d(p(p(u)*p(v)))",
        "d(p(p(p(u))))",
        "d(p(d(p(u))))",
    ],
}


@pytest.mark.parametrize("name", ["d", "rb", "drb"])
def test_criterion_1_verification(name):
    theory = _basis(name)
    all_pass = True
    for with_unit in (False, True):
        rep = verify_gs(theory, VerifyConfig(2, 2, with_unit))
        pairs = {(f.name, g.name) for f in theory.rules for g in theory.rules}
        including_cells = {
            (r.left, r.right) for r in rep.reports if r.kind == "including"
        }
        assert including_cells == pairs, "missing including-composition cells"
        intersection_cells = {
            (r.left, r.right) for r in rep.reports if r.kind == "intersection"
        }
        assert intersection_cells == _EXPECTED_INTERSECTION_CELLS[name]
        ambiguities = {str(r.ambiguity) for r in rep.reports}
        for want in _NAMED_AMBIGUITIES[name]:
            assert str(W(want)) in ambiguities, f"expected ambiguity {want}"
        all_pass = all_pass and rep.passed
    ok = _report(f"1 [verify {theory.name}]", all_pass,
                 "all compositions trivial" if all_pass
                 else "non-trivial compositions found (see verify report)")
    assert ok, f"verification of preset {theory.name!r} found non-trivial compositions"


# ---------------------------------------------------------------------------
# criterion 2: worked reductions reproduce the displayed chains exactly
# ---------------------------------------------------------------------------

def _contributions(steps):
    out = []
    for s in steps:
        repl = s.rule.rhs_instance(s.binding).in_context(s.context).scale(s.coefficient)
        out.extend((w, c) for w, c in repl.terms_desc())
    return sorted(out, key=lambda t: (t[0].key, str(t[1])))


def _frozen(pairs):
    out = []
    for coeff_text, word_text in pairs:
        c = P(coeff_text).leading()[1]
        out.append((W(word_text), c))
    return sorted(out, key=lambda t: (t[0].key, str(t[1])))


def test_criterion_2_worked_chains():
    d = preset("d")
    drb = preset("drb")

    # overlap of the product rule with itself on a shared middle generator
    f = d.rule("d_leibniz").instantiate({"u": W("u"), "v": W("v")})
    g = d.rule("d_leibniz").instantiate({"u": W("v"), "v": W("w")})
    reports = intersection_compositions(f, g)
    assert len(reports) == 1
    comp = reports[0].composition
    expected = P(
        "(L^-1)*d(v)*d(w)*u - (L^-1)*d(u*v)*d(w) - (L^-1)*d(u)*d(v)*w + (L^-1)*d(u)*d(v*w)"
    )
    assert comp == expected
    res = normal_form(comp, d.rules, collect_steps=True)
    assert res.poly.is_zero() and len(res.steps) == 4
    assert _contributions(res.steps) == _frozen(
        [
            ("-L^-2", "d(v)*u*w"), ("-L^-2", "d(w)*u*v"), ("L^-2", "d(v*w)*u"),
            ("L^-2", "d(u*v)*w"), ("L^-2", "d(w)*u*v"), ("-L^-2", "d(u*v*w)"),
            ("L^-2", "d(u)*v*w"), ("L^-2", "d(v)*u*w"), ("-L^-2", "d(u*v)*w"),
            ("-L^-2", "d(u)*v*w"), ("-L^-2", "d(v*w)*u"), ("L^-2", "d(u*v*w)"),
        ]
    )

    # product rule over the Rota-Baxter rule, hole at the top
    f13 = drb.rule("d_leibniz").instantiate({"u": W("p(u)*p(v)"), "v": W("w")})
    g3 = drb.rule("p_rota_baxter").instantiate({"u": W("u"), "v": W("v")})
    reports = including_compositions(f13, g3)
    assert len(reports) == 1
    comp13 = reports[0].composition
    expected13 = P(
        "(L^-1)*d(p(u)*p(v))*w + (L^-1)*p(u)*p(v)*d(w) - (L^-1)*d(p(u)*p(v)*w)"
        " + d(p(u*p(v)))*d(w) + d(p(p(u)*v))*d(w) + L*d(p(u*v))*d(w)"
    )
    assert comp13 == expected13
    res13 = normal_form(comp13, drb.rules, collect_steps=True)
    assert res13.poly.is_zero() and len(res13.steps) == 6
    li = "L^-1"
    assert _contributions(res13.steps) == _frozen(
        [
            (li, "d(p(u*p(v)))*w"), (li, "d(p(p(u)*v))*w"), ("1", "d(p(u*v))*w"),
            (li, "p(u*p(v))*d(w)"), (li, "p(p(u)*v)*d(w)"), ("1", "p(u*v)*d(w)"),
            (f"-{li}", "d(p(u*p(v))*w)"), (f"-{li}", "d(p(p(u)*v)*w)"), ("-1", "d(p(u*v)*w)"),
            (f"-{li}", "d(p(u*p(v)))*w"), (f"-{li}", "p(u*p(v))*d(w)"), (li, "d(p(u*p(v))*w)"),
            (f"-{li}", "d(p(p(u)*v))*w"), (f"-{li}", "p(p(u)*v)*d(w)"), (li, "d(p(p(u)*v)*w)"),
            ("-1", "d(p(u*v))*w"), ("-1", "p(u*v)*d(w)"), ("1", "d(p(u*v)*w)"),
        ]
    )

    # tower rule over the Rota-Baxter rule, hole at the top
    f23 = drb.rule("d_quasi_idem").instantiate({"u": W("p(u)*p(v)")})
    reports = including_compositions(f23, g3)
    assert len(reports) == 1
    comp23 = reports[0].composition
    expected23 = P(
        "(L^-1)*d(p(u)*p(v)) + d(d(p(u*p(v)))) + d(d(p(p(u)*v))) + L*d(d(p(u*v)))"
    )
    assert comp23 == expected23
    res23 = normal_form(comp23, drb.rules, collect_steps=True)
    assert res23.poly.is_zero() and len(res23.steps) == 4
    assert _contributions(res23.steps) == _frozen(
        [
            (li, "d(p(u*p(v)))"), (li, "d(p(p(u)*v))"), ("1", "d(p(u*v))"),
            (f"-{li}", "d(p(u*p(v)))"),
            (f"-{li}", "d(p(p(u)*v))"),
            ("-1", "d(p(u*v))"),
        ]
    )

    assert _report("2 [worked chains]", True, "three chains reproduced, all reduce to 0")


# ---------------------------------------------------------------------------
# criterion 3: confluence of both strategies across seeds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["d", "rb", "drb"])
def test_criterion_3_confluence(name):
    theory = _basis(name)
    rng = random.Random(1000)
    witness = None
    for i in range(1000):
        f = random_polynomial(rng, 12, ("x", "y"), theory.operators)
        reference = normal_form(f, theory.rules).poly
        for seed in range(5):
            other = normal_form(f, theory.rules, strategy="random", seed=seed).poly
            if other != reference:
                witness = (f, seed, reference, other)
                break
        if witness:
            break
    ok = _report(
        f"3 [confluence {theory.name}]",
        witness is None,
        "1000 polynomials, 5 seeds, identical normal forms"
        if witness is None
        else f"strategies diverge on {witness[0]} (seed {witness[1]})",
    )
    assert ok, (
        f"normal forms depend on the strategy for preset {theory.name!r}: "
        f"input {witness[0]}, seed {witness[1]}"
    )


# ---------------------------------------------------------------------------
# criterion 4: model soundness oracle
# ---------------------------------------------------------------------------

def test_criterion_4_model_soundness():
    drb = preset("drb")
    rng = random.Random(2000)
    checked = 0
    for weight in (Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(5, 7)):
        model = DegenerateModel(RationalRing(), weight)
        for _ in range(250):
            f = random_polynomial(rng, 12, ("x", "y"), drb.operators)
            nf = normal_form(f, drb.rules).poly
            assign = {"x": model.sample(rng), "y": model.sample(rng)}
            assert evaluate_in_model(f, model, assign) == evaluate_in_model(
                nf, model, assign
            )
            checked += 1
    assert checked >= 1000
    assert _report("4 [model soundness]", True, f"{checked} exact evaluations")


# ---------------------------------------------------------------------------
# criterion 5: operator axiom suite
# ---------------------------------------------------------------------------

def test_criterion_5_axiom_suite():
    weights = (Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(5, 7))
    core = ("leibniz", "rota_baxter", "p_quasi_idem", "d_quasi_idem", "d_after_p", "nijenhuis")
    total = 0
    for weight in weights:
        hur = HurwitzConstrainedModel(RationalRing(), weight, window=8)
        rep = check_axioms(hur, samples=250, seed=50)
        for check in core:
            assert rep[check], f"hurwitz {check} failed at weight {weight}"
        total += 250
        rep = check_axioms(DegenerateModel(RationalRing(), weight), samples=60, seed=51)
        for check in core:
            assert rep[check], f"degenerate {check} failed at weight {weight}"
    assert total >= 1000
    control = check_axioms(
        LeftMultiplicationModel(RationalRing(), Fraction(1), Fraction(2)),
        samples=60,
        seed=52,
    )
    assert control["nijenhuis"] and not control["p_quasi_idem"]
    assert _report(
        "5 [axiom suite]", True, f"{total} hurwitz samples at window 8, controls behave"
    )


# ---------------------------------------------------------------------------
# criterion 6: irreducible-word counts against the brute-force oracle
# ---------------------------------------------------------------------------

# frozen from tests/oracles.py, computed before the engine enumerator ran
_FROZEN_COUNTS = {
    "d": [1, 3, 6, 11, 19],
    "rb": [1, 3, 6, 11, 19],
    "drb": [1, 4, 11, 30, 84],
    "d+d1": [1, 2, 4, 7, 12],
}


def test_criterion_6_irreducible_counts():
    for name, expected in _FROZEN_COUNTS.items():
        theory = preset(name)
        for bound in range(5):
            got = count_irr(theory, bound, ("x",))
            oracle = oracle_count_irr(bound, ("x",), theory.operators, name)
            assert got == expected[bound] == oracle, (name, bound, got, oracle)
    rng = random.Random(3000)
    for name in ("d", "rb", "drb"):
        theory = preset(name)
        for _ in range(100):
            f = random_polynomial(rng, 10, ("x", "y"), theory.operators)
            for w in normal_form(f, theory.rules).poly.monomials():
                assert is_irreducible(w, theory.rules)
    assert _report("6 [irreducible basis]", True, "counts match oracle for n <= 4")


# ---------------------------------------------------------------------------
# criterion 7: order laws
# ---------------------------------------------------------------------------

def test_criterion_7_order_laws():
    rng = random.Random(4000)

    def sample():
        return random_word(rng, 7, ("x", "y", "z"), (OP_D, OP_P))

    for _ in range(10_000):
        u, v = sample(), sample()
        c1, c2 = compare(u, v), compare(v, u)
        assert c1 == -c2
        assert (c1 == EQUAL) == (u == v)

    def sample_context():
        depth = rng.randint(0, 2)
        cofs = [random_word(rng, 2, ("a", "b"), (OP_D, OP_P)) for _ in range(depth + 1)]
        ops = [(OP_D, OP_P)[rng.randrange(2)] for _ in range(depth)]
        return Context(cofs, ops)

    for _ in range(10_000):
        u, v = sample(), sample()
        if u == v:
            continue
        if compare(u, v) == GREATER:
            u, v = v, u
        q = sample_context()
        assert compare(q.substitute(u), q.substitute(v)) == LESS
    assert _report("7 [order laws]", True, "10^4 pairs and 10^4 context triples, zero violations")


# ---------------------------------------------------------------------------
# criterion 8: negative control
# ---------------------------------------------------------------------------

_BROKEN_RULESET = {
    "operators": [{"name": "p", "rank": 0}],
    "generators": ["x", "y"],
    "rules": [
        {
            "name": "p_rota_baxter_broken",
            "variables": ["u", "v"],
            "polynomial": "p(u)*p(v) - p(u*p(v)) - p(p(u)*v)",
        },
        {
            "name": "p_quasi_idem",
            "variables": ["u"],
            "polynomial": "p(p(u)) + L*p(u)",
        },
    ],
}


def test_criterion_8_negative_control(tmp_path, capsys):
    rep = verify_gs(broken_rb(), VerifyConfig(1, 1, False))
    assert not rep.passed and len(rep.nontrivial) >= 1
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_BROKEN_RULESET))
    code = main(["verify", "--theory", str(path), "--depth", "1", "--cofactors", "1"])
    out = capsys.readouterr().out
    assert code == 1 and "NON-TRIVIAL" in out
    assert _report("8 [negative control]", True, "broken rule set detected, exit code 1")
