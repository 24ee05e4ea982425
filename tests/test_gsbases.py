import copy
import pickle
import random

import pytest

from opalg.cli import parse_polynomial as P, parse_word as W
from opalg import coeff
from opalg.gsbases import (
    MonomialNotBelowAmbiguity,
    PRESETS,
    TheoryPreset,
    VerifyConfig,
    broken_rb,
    check_triviality,
    count_irr,
    enumerate_irr,
    enumerate_words,
    including_compositions,
    intersection_compositions,
    pair_reports,
    preset,
    verify_gs,
)
from opalg.poly import OpPolynomial
from opalg.rewrite import RuleSchema, RuleValidationError, is_irreducible, normal_form
from opalg.sampling import random_polynomial
from opalg.terms import OP_D, OP_P, Word

from oracles import all_words, oracle_count_irr, oracle_irreducible

D = preset("d")
RB = preset("rb")
DRB = preset("drb")


def _inst(theory, rule, **binding):
    return theory.rule(rule).instantiate({k: W(v) for k, v in binding.items()})


def test_presets_shape():
    assert [r.name for r in DRB.rules] == [
        "d_leibniz",
        "d_quasi_idem",
        "p_rota_baxter",
        "p_quasi_idem",
        "d_after_p",
    ]
    assert preset("d+d1").rule("d_unit").rhs.is_zero()
    with pytest.raises(KeyError):
        preset("nope")


def test_intersection_overlap_of_leibniz_with_itself():
    f = _inst(D, "d_leibniz", u="u", v="v")
    g = _inst(D, "d_leibniz", u="v", v="w")
    reports = intersection_compositions(f, g)
    assert len(reports) == 1
    r = reports[0]
    assert r.ambiguity == W("d(u)*d(v)*d(w)")
    assert r.mu == W("d(w)") and r.nu == W("d(u)")
    assert r.composition == f * W("d(w)") - g * W("d(u)")


def test_no_intersection_when_breadths_forbid():
    f = _inst(RB, "p_rota_baxter", u="u", v="v")
    g = _inst(RB, "p_quasi_idem", u="z")
    assert intersection_compositions(f, g) == []


def test_no_intersection_without_shared_factor():
    f = _inst(D, "d_leibniz", u="u", v="v")
    g = _inst(D, "d_leibniz", u="z", v="w")
    assert intersection_compositions(f, g) == []


def test_including_self_gives_zero_composition():
    f = _inst(D, "d_leibniz", u="u", v="v")
    reports = including_compositions(f, f)
    stars = [r for r in reports if r.context.is_star()]
    assert len(stars) == 1
    assert stars[0].composition.is_zero()


def test_including_wrapped():
    g = _inst(D, "d_leibniz", u="u", v="v")
    f = D.rule("d_leibniz").instantiate({"u": W("d(u)*d(v)"), "v": W("w")})
    reports = including_compositions(f, g)
    assert len(reports) == 1
    assert reports[0].ambiguity == W("d(d(u)*d(v))*d(w)")


def test_check_triviality_zero_and_nonzero():
    omega = W("d(x)")
    trivial, steps, nf = check_triviality(OpPolynomial.zero(), D.rules, omega)
    assert trivial and steps == () and nf.is_zero()
    trivial, _, nf = check_triviality(P("x"), D.rules, omega)
    assert not trivial and nf == P("x")


def test_check_triviality_rejects_large_monomials():
    with pytest.raises(MonomialNotBelowAmbiguity):
        check_triviality(P("d(d(x))"), D.rules, W("d(x)"))


def test_verify_rejects_order_incompatible_rule():
    # p(d(v)*u) leads p(d(u)*v) as a pattern, but not on the instance at
    # u = z, v = w; the check must hold under python -O as well
    u, v = Word.letter("u"), Word.letter("v")
    bad = RuleSchema(
        "bad",
        ("u", "v"),
        OpPolynomial(
            (
                ((v.apply(OP_D) * u).apply(OP_P), coeff.ONE),
                ((u.apply(OP_D) * v).apply(OP_P), coeff.ONE),
            )
        ),
    )
    with pytest.raises(RuleValidationError):
        verify_gs(TheoryPreset("bad", (bad,), (OP_D, OP_P)), VerifyConfig(1, 1, False))


def test_rb_verifies_completely():
    rep = verify_gs(RB, VerifyConfig(1, 1, True))
    assert rep.passed
    cells = {(r.left, r.right) for r in rep.reports if r.kind == "including"}
    assert cells == {
        ("p_rota_baxter", "p_rota_baxter"),
        ("p_rota_baxter", "p_quasi_idem"),
        ("p_quasi_idem", "p_rota_baxter"),
        ("p_quasi_idem", "p_quasi_idem"),
    }
    inter = {(r.left, r.right) for r in rep.reports if r.kind == "intersection"}
    assert inter == {("p_rota_baxter", "p_rota_baxter")}


def test_d_verification_finds_the_leibniz_quasi_idem_gap():
    # The d-rules are not closed under critical pairs: rewriting the overlap
    # of the product rule with the tower rule strands an irreducible
    # difference.  This is a genuine incompleteness of the rule set, machine
    # cross-checked in test_completeness_gap.py.
    rep = verify_gs(D, VerifyConfig(1, 1, False))
    assert not rep.passed
    bad_cells = {(r.left, r.right) for r in rep.nontrivial}
    assert bad_cells == {("d_leibniz", "d_quasi_idem")}


def test_negative_control_broken_rb():
    rep = verify_gs(broken_rb(), VerifyConfig(1, 1, False))
    assert not rep.passed
    assert len(rep.nontrivial) >= 1


def test_unit_rule_extension_reported_not_asserted():
    # the d(1) -> 0 extension runs like any user theory; it inherits the
    # leibniz/tower gap, and its unit-rule compositions are all joinable
    rep = verify_gs(preset("d+d1"), VerifyConfig(1, 1, True))
    assert not rep.passed
    bad_cells = {(r.left, r.right) for r in rep.nontrivial}
    assert bad_cells == {("d_leibniz", "d_quasi_idem")}
    unit_cells = [
        r for r in rep.reports if "d_unit" in (r.left, r.right)
    ]
    assert unit_cells and all(r.trivial for r in unit_cells)


def test_pair_reports_single_pair():
    reports = pair_reports(RB, "p_rota_baxter", "p_quasi_idem", VerifyConfig(1, 1, False))
    assert reports and all(r.trivial for r in reports)
    assert {r.kind for r in reports} == {"including"}


def test_enumerate_words_matches_bruteforce():
    for bound in range(5):
        engine = enumerate_words(bound, ("x",), (OP_D, OP_P))
        oracle = all_words(bound, ("x",), (OP_D, OP_P))
        assert set(engine) == oracle
        assert len(engine) == len(oracle)
        assert engine == sorted(engine, key=lambda w: w.key)


def test_enumerate_irr_smallest():
    assert enumerate_irr(DRB, 0, ("x",)) == [Word.unit()]
    words = enumerate_irr(DRB, 2, ("x",))
    assert W("d(p(x))") not in words
    assert W("p(x)") in words and W("d(1)") in words


# oracle counts computed first with tests/oracles.py, then frozen
EXPECTED_IRR_COUNTS = {
    "d": [1, 3, 6, 11, 19],
    "rb": [1, 3, 6, 11, 19],
    "drb": [1, 4, 11, 30, 84],
    "d+d1": [1, 2, 4, 7, 12],
}


@pytest.mark.parametrize("name", ["d", "rb", "drb", "d+d1"])
def test_count_irr_against_frozen_oracle(name):
    theory = preset(name)
    for bound in range(5):
        expected = EXPECTED_IRR_COUNTS[name][bound]
        assert count_irr(theory, bound, ("x",)) == expected
        assert oracle_count_irr(bound, ("x",), theory.operators, name) == expected


def test_normal_forms_live_on_irreducibles():
    rng = random.Random(51)
    for theory in (RB, DRB):
        for _ in range(40):
            f = random_polynomial(rng, 6, ("x",), theory.operators)
            nf = normal_form(f, theory.rules).poly
            for w in nf.monomials():
                assert is_irreducible(w, theory.rules)
                assert oracle_irreducible(w, theory.name) or w.size > 6


def test_normal_form_supported_on_enumerated_basis():
    rng = random.Random(52)
    basis = set(enumerate_irr(RB, 6, ("x",)))
    for _ in range(40):
        f = random_polynomial(rng, 4, ("x",), RB.operators)
        nf = normal_form(f, RB.rules).poly
        for w in nf.monomials():
            if w.size <= 6:
                assert w in basis


def test_theory_preset_copy_and_pickle():
    rng = random.Random(37)
    for theory in PRESETS.values():
        inputs = [random_polynomial(rng, 6, ("x", "y"), theory.operators) for _ in range(5)]
        for c in (copy.deepcopy(theory), pickle.loads(pickle.dumps(theory))):
            assert (c.name, c.operators, c.gs_verified) == (
                theory.name, theory.operators, theory.gs_verified
            )
            assert [r.name for r in c.rules] == [r.name for r in theory.rules]
            assert [r.poly for r in c.rules] == [r.poly for r in theory.rules]
            for f in inputs:
                assert normal_form(f, c.rules).poly == normal_form(f, theory.rules).poly
