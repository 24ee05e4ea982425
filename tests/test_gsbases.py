import copy
import pickle
import random
import time

import pytest

from opalg.cli import parse_polynomial as P, parse_word as W, ruleset_from_dict
from opalg import coeff, gsbases
from opalg.gsbases import (
    SIZE_CAP,
    WORD_CAP,
    BoundExceeded,
    MonomialNotBelowAmbiguity,
    PRESETS,
    TheoryPreset,
    VerifyConfig,
    broken_rb,
    check_triviality,
    count_irr,
    enumerate_irr,
    _count_words,
    enumerate_words,
    including_compositions,
    intersection_compositions,
    pair_reports,
    preset,
    verify_gs,
)
from opalg.poly import OpPolynomial
from opalg.rewrite import (
    RuleSchema,
    RuleValidationError,
    ideal_member,
    is_irreducible,
    normal_form,
)
from opalg.sampling import random_polynomial
from opalg.terms import OP_D, OP_P, Word

from oracles import (
    IRR_COUNT_CLOSED_FORMS,
    all_words,
    enumerate_irr_reference,
    oracle_count_irr,
    oracle_irreducible,
)

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


def test_intersection_over_shared_letters_keeps_its_order():
    # no preset pattern has a top-level letter; leading words sharing x^2, y
    # and d(x) give every proper common sub-multiset, each run of equal
    # factors counting up with the last run fastest
    f = P("x*x*y*d(x) - x*y")
    g = P("x*x*y*y*d(x) - 2*y")
    got = [
        (str(r.ambiguity), str(r.mu), str(r.nu), str(r.composition))
        for r in intersection_compositions(f, g)
    ]
    assert got == [
        ("d(x)*y*y*y*x*x*x*x", "y*y*x*x", "y*x*x", "-y*y*y*x*x*x + 2*y*y*x*x"),
        ("d(x)*d(x)*y*y*y*x*x*x", "d(x)*y*y*x", "d(x)*y*x", "-d(x)*y*y*y*x*x + 2*d(x)*y*y*x"),
        ("d(x)*y*y*y*x*x*x", "y*y*x", "y*x", "-y*y*y*x*x + 2*y*y*x"),
        ("d(x)*d(x)*y*y*y*x*x", "d(x)*y*y", "d(x)*y", "-d(x)*y*y*y*x + 2*d(x)*y*y"),
        ("d(x)*y*y*y*x*x", "y*y", "y", "-y*y*y*x + 2*y*y"),
        ("d(x)*d(x)*y*y*x*x*x*x", "d(x)*y*x*x", "d(x)*x*x", "-d(x)*y*y*x*x*x + 2*d(x)*y*x*x"),
        ("d(x)*y*y*x*x*x*x", "y*x*x", "x*x", "-y*y*x*x*x + 2*y*x*x"),
        ("d(x)*d(x)*y*y*x*x*x", "d(x)*y*x", "d(x)*x", "-d(x)*y*y*x*x + 2*d(x)*y*x"),
        ("d(x)*y*y*x*x*x", "y*x", "x", "-y*y*x*x + 2*y*x"),
        ("d(x)*d(x)*y*y*x*x", "d(x)*y", "d(x)", "-d(x)*y*y*x + 2*d(x)*y"),
    ]


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


def test_gs_verified_flags_match_verification():
    # ideal_member answers only for a preset whose flag is set; and no
    # composition is reported twice, whichever scenarios lead to it
    assert len(PRESETS) == 6
    for theory in (*PRESETS.values(), broken_rb()):
        rep = verify_gs(theory, VerifyConfig(1, 1, True))
        assert theory.gs_verified == rep.passed, theory.name
        keys = [(r.sort_token, r.f_inst, r.g_inst) for r in rep.reports]
        assert len(set(keys)) == len(keys), theory.name
    assert {name for name, t in PRESETS.items() if t.gs_verified} == {"rb", "d-gs", "drb-gs"}
    assert ideal_member(P("p(x)*p(y) - p(x*p(y)) - p(p(x)*y) - L*p(x*y)"), RB)


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


def test_each_composition_is_asked_for_once(monkeypatch):
    # on the benchmark's verify plan; a kind of composition asked again for
    # the same pair of instances yields only reports kept already, and
    # asking every time took 980 calls
    calls = []
    find = gsbases.find_occurrences

    def counted(word, target):
        calls.append((word, target))
        return find(word, target)

    monkeypatch.setattr(gsbases, "find_occurrences", counted)
    for theory, with_unit in ((RB, True), (D, True), (DRB, False)):
        verify_gs(theory, VerifyConfig(1, 1, with_unit))
    assert len(calls) == 704


def test_verify_config_refuses_negative_bounds():
    # checked where the config is made, so compose (pair_reports) is covered too
    for bounds in ((30, -2), (-1, 1), (-1, -1)):
        with pytest.raises(ValueError, match="verification bounds must be nonnegative"):
            VerifyConfig(*bounds)


def test_enumerate_words_matches_bruteforce():
    for bound in range(5):
        engine = enumerate_words(bound, ("x",), (OP_D, OP_P))
        oracle = all_words(bound, ("x",), (OP_D, OP_P))
        assert set(engine) == oracle
        assert len(engine) == len(oracle)
        assert engine == sorted(engine, key=lambda w: w.key)


def test_word_count_before_enumerating():
    for generators in (("x",), ("x", "y")):
        for operators in ((OP_D,), (OP_D, OP_P)):
            for bound in range(7):
                words = enumerate_words(bound, generators, operators)
                assert _count_words(bound, len(generators), len(operators)) == (
                    len(words), sum(w.size for w in words)
                )
    # refused before a word is built, as soon as the count passes the cap
    assert _count_words(8, 1, 2)[0] <= WORD_CAP < _count_words(9, 1, 2)[0]
    with pytest.raises(BoundExceeded):
        enumerate_words(9, ("x",), (OP_D, OP_P))
    # past the cap below the bound the count stops; a huge bound is refused at once
    assert _count_words(10, 1, 2) is None
    assert _count_words(WORD_CAP, 1, 0) is None and _count_words(WORD_CAP, 0, 1) is None
    assert _count_words(10**20, 0, 0) == (1, 0)
    with pytest.raises(BoundExceeded, match=f"^more than {WORD_CAP} words"):
        enumerate_words(10**20, ("x",), (OP_D,))


def _count_letter_words_euler(size_bound, n_generators):
    """``_count_words`` without operators, by the Euler-transform loop."""
    words, c = [1], [0]
    total = 1
    size = 0
    for n in range(1, size_bound + 1):
        c.append(n_generators)  # only the primes of size 1, the letters
        words.append(sum(c[k] * words[n - k] for k in range(1, n + 1)) // n)
        total += words[n]
        size += n * words[n]
        if total > WORD_CAP and n < size_bound:
            return None
    return total, size


def test_word_count_without_operators_is_closed_form():
    for g in (1, 2, 3):
        for bound in range(31):
            assert _count_words(bound, g, 0) == _count_letter_words_euler(bound, g)
    # three generators pass the cap between sizes 179 and 180
    for bound in range(178, 183):
        assert _count_words(bound, 3, 0) == _count_letter_words_euler(bound, 3)
    assert _count_words(180, 3, 0)[0] == 1_004_731 and _count_words(181, 3, 0) is None
    t0 = time.perf_counter()
    assert _count_words(4000, 1, 0) == (4001, 4000 * 4001 // 2)
    assert _count_words(WORD_CAP - 1, 1, 0) == (WORD_CAP, (WORD_CAP - 1) * WORD_CAP // 2)
    # the Euler-transform loop took over a second for the first of these
    assert time.perf_counter() - t0 < 0.1


def test_enumeration_refused_past_the_total_size():
    # 10^6 words of one letter pass the word count but hold about 5·10^11
    # letters; the largest enumeration within the word cap stays inside
    assert _count_words(999_999, 1, 0)[0] == WORD_CAP
    with pytest.raises(BoundExceeded, match="total size"):
        enumerate_words(999_999, ("x",), ())
    assert _count_words(8, 1, 2)[1] <= SIZE_CAP
    assert len(enumerate_words(7, ("x",), ())) == 8


def test_context_family_refused_past_the_summed_spine_depth(monkeypatch):
    # one operator and no cofactors: D + 1 contexts with (D+1)(D+2)/2 spine
    # levels, so the spine bound refuses before the context count does
    assert len(gsbases._context_family(300, 0, (OP_P,))) == 301
    with pytest.raises(BoundExceeded, match="pass the recursion limit"):
        gsbases._context_family(20_000, 0, (OP_P,))
    monkeypatch.setattr(gsbases.sys, "getrecursionlimit", lambda: 10**6)
    with pytest.raises(BoundExceeded, match=f"spines of total depth more than {SIZE_CAP}"):
        gsbases._context_family(20_000, 0, (OP_P,))
    # without operators every context has depth 0, whatever the bound
    assert len(gsbases._context_family(20_000, 1, ())) == 2


def test_duplicate_generators_count_once():
    assert count_irr(RB, 3, ["x", "x"]) == count_irr(RB, 3, ["x"])
    assert enumerate_words(2, ("y", "x", "y"), (OP_D,)) == enumerate_words(2, ("x", "y"), (OP_D,))


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


# no operators, and a rule whose pattern is letters only
LETTERS_ONLY = ruleset_from_dict({
    "operators": [],
    "generators": ["x", "y"],
    "rules": [{"name": "xx", "variables": [], "polynomial": "x*x - y"}],
}, name="letters-only")


@pytest.mark.parametrize(
    "theory", [*PRESETS.values(), broken_rb(), LETTERS_ONLY], ids=lambda t: t.name
)
def test_enumerate_irr_matches_reference(theory):
    for generators, top in ((("x",), 5), (("x", "y"), 4)):
        for bound in range(top + 1):
            assert enumerate_irr(theory, bound, generators) == enumerate_irr_reference(
                theory, bound, generators
            )


def test_enumerator_extends_only_irreducible_words(monkeypatch):
    # building every word checks all 3,236 words of size <= 5 in x, y
    checked = set()
    match = gsbases._match_at_level

    def counting(pattern, level):
        checked.add(level)
        return match(pattern, level)

    monkeypatch.setattr(gsbases, "_match_at_level", counting)
    words = enumerate_irr(DRB, 5, ("x", "y"))
    assert len(words) == 842
    assert len(checked) == 1165 < _count_words(5, 2, 2)[0] == 3236


@pytest.mark.parametrize("name", sorted(IRR_COUNT_CLOSED_FORMS))
def test_count_irr_closed_forms(name):
    for bound in range(9):
        assert count_irr(preset(name), bound, ("x",)) == IRR_COUNT_CLOSED_FORMS[name](bound)


# counts from the engine, frozen; the oracle scans confirm them up to oracle_top
@pytest.mark.parametrize(
    "name, generators, counts, oracle_top",
    [
        ("rb", ("x", "y"), [1, 4, 11, 27, 63, 144], 4),
        ("drb", ("x",), [1, 4, 11, 30, 84, 245, 742], 3),
    ],
    ids=["rb-x,y", "drb-x"],
)
def test_count_irr_frozen_beyond_the_oracle(name, generators, counts, oracle_top):
    theory = preset(name)
    for bound, expected in enumerate(counts):
        assert count_irr(theory, bound, generators) == expected
        if bound <= oracle_top:
            assert oracle_count_irr(bound, generators, theory.operators, name) == expected


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
            assert c == theory
            assert (c.name, c.operators, c.gs_verified) == (
                theory.name, theory.operators, theory.gs_verified
            )
            assert [r.name for r in c.rules] == [r.name for r in theory.rules]
            assert [r.poly for r in c.rules] == [r.poly for r in theory.rules]
            for f in inputs:
                assert normal_form(f, c.rules).poly == normal_form(f, theory.rules).poly
