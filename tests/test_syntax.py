"""The term parser against the one-polynomial-per-atom reference parser."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opalg import coeff, gsbases, poly, syntax, terms
from opalg.gsbases import VerifyConfig, preset, verify_gs
from opalg.rewrite import normal_form
from opalg.sampling import random_polynomial
from opalg.syntax import (
    WORD_CAP,
    BoundExceeded,
    ParseError,
    format_polynomial,
    parse_polynomial,
)

from oracles import nf_batch_texts, parse_polynomial_reference


def _outcome(parse, text):
    """What parsing gives: the polynomial and its text, or the error raised."""
    try:
        f = parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)
    except ArithmeticError as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", f, format_polynomial(f))


def _assert_agrees(text):
    got, ref = _outcome(parse_polynomial, text), _outcome(parse_polynomial_reference, text)
    assert got == ref, text
    return got


_CASES = (
    "(x+y)^3*d(x-y)",
    "x - x",
    "0*p(x)",
    "2/3*L^-2",
    "(L+1)/(L-2)*x",
    "-(x+y)*(x-y) + x*x - y^2",
    "d((x + L*y)^2)*p(x - x + y)",
    "(2*x)^3/(4*L)^2",
    "x*(y + 1)*(y - 1)*p(1)*d(0)",
    "(x + y)^0 + x^0 + 0^0 - (L^2 - 1)^-1",
    "p(2*x*y)*3*L - L^3*p(y*x*2)/2",
    "d(1)*d(x)*x^2*((x))",
)


@pytest.mark.parametrize("text", _CASES)
def test_parse_cases_match_reference(text):
    assert _assert_agrees(text)[0] == "ok"


@pytest.mark.parametrize(
    "text, message",
    [
        ("x/(y)", "division by a non-scalar (column 6)"),
        ("x/0", "division by zero (column 4)"),
        ("x/(y - y)", "division by zero (column 10)"),
        ("x^-1", "negative power of a non-scalar (column 2)"),
        ("(x + 1)^-2", "negative power of a non-scalar (column 8)"),
        ("q(x)", "unknown operator 'q' (column 1)"),
        ("d*x", "operator 'd' used as a letter (column 1)"),
        ("2*d(x", "expected ), found '' (column 6)"),
        ("x y", "unexpected 'y' (column 3)"),
        # integers are ASCII digits only
        ("x^²", "unexpected character '²' (column 3)"),
        ("x^٣", "unexpected character '٣' (column 3)"),
    ],
)
def test_parse_errors_match_reference(text, message):
    got = _assert_agrees(text)
    assert got[0] == "ParseError" and got[1] == message


def test_parse_zero_to_a_negative_power_matches_reference():
    assert _assert_agrees("(x - x)^-1")[0] == "ZeroDivisionError"


def test_parse_deep_nesting():
    depth = 200
    f = parse_polynomial("p(" * depth + "x" + ")" * depth)
    assert f == parse_polynomial_reference("p(" * depth + "x" + ")" * depth)
    assert f.leading_word().depth == depth


@given(st.randoms(use_true_random=False), st.sampled_from(("d", "rb", "drb")))
def test_formatted_random_polynomials_match_reference(rng, name):
    f = random_polynomial(rng, 7, ("x", "y"), preset(name).operators)
    text = format_polynomial(f)
    got = _assert_agrees(text)
    assert got[1] == f and got[2] == text


_LEAVES = st.sampled_from(("x", "y", "0", "1", "2", "3/4", "L", "L^-1", "x^2"))


def _compound(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda t: f"{t[0]}*{t[1]}"),
        pair.map(lambda t: f"({t[0]}) + ({t[1]})"),
        pair.map(lambda t: f"({t[0]}) - {t[1]}"),
        pair.map(lambda t: f"{t[0]}/({t[1]})"),
        children.map(lambda t: f"-({t})"),
        children.map(lambda t: f"d({t})"),
        children.map(lambda t: f"p({t})"),
        st.tuples(children, st.integers(min_value=-2, max_value=3)).map(
            lambda t: f"({t[0]})^{t[1]}"
        ),
    )


@given(st.recursive(_LEAVES, _compound, max_leaves=10))
def test_generated_expressions_match_reference(text):
    _assert_agrees(text)


def test_parse_counts_on_nf_batch_corpus(monkeypatch):
    """Work counters of parsing a fixed corpus, pinned as a regression bound.

    A change that lowers a count should lower its pin with it.
    """
    texts = nf_batch_texts(1)
    counts = dict.fromkeys(("polynomials", "scalar_muls", "words"), 0)

    def counting(cls, name, key):
        fn = getattr(cls, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    counting(poly.OpPolynomial, "__init__", "polynomials")
    counting(coeff.Scalar, "__mul__", "scalar_muls")
    counting(terms.Word, "__init__", "words")
    for text in texts:
        parse_polynomial(text)
    assert len(texts) == 2400
    assert counts == {"polynomials": 2400, "scalar_muls": 2144, "words": 7684}


def _count_fractions(monkeypatch, run):
    """How many Fractions ``run()`` constructs."""
    built = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", staticmethod(counted))
        run()
    return built[0]


def test_fraction_counts_on_the_verify_plan(monkeypatch):
    """Integral coefficients stay ints: 12,971 Fractions when every view held
    one.  The rules are built afresh, so no earlier test has densified their
    coefficients; the 20 dense forms once built for polynomial hashes are
    gone too, as a monomial hashes its view."""
    presets = gsbases._build_presets()
    plan = (("rb", VerifyConfig(1, 1, True)), ("d", VerifyConfig(1, 1, True)),
            ("drb", VerifyConfig(1, 1, False)))

    def run():
        for name, cfg in plan:
            verify_gs(presets[name], cfg)

    assert _count_fractions(monkeypatch, run) == 0


def test_fraction_counts_on_nf_batch_corpus(monkeypatch):
    """Parse, reduce with both strategies and print the nf-batch corpus:
    57,065 Fractions when every view held one."""
    texts = nf_batch_texts(1)
    presets = gsbases._build_presets()
    theories = [presets[name] for name in ("d", "rb", "drb") for _ in range(800)]

    def run():
        for i, (theory, text) in enumerate(zip(theories, texts)):
            for strategy in ("leading", "random"):
                f = parse_polynomial(text)
                format_polynomial(normal_form(f, theory.rules, strategy=strategy, seed=i).poly)

    # the parser's one shared L gets its dense form from the first sum that
    # reads it, in whichever test runs first: read it here, so the pin does
    # not depend on the order the tests run in
    syntax._L.num
    assert _count_fractions(monkeypatch, run) == 22379


def test_term_factors_past_the_size_cap_are_refused_before_building(monkeypatch):
    monkeypatch.setattr(syntax, "SIZE_CAP", 100)
    assert len(parse_polynomial("x^50*p(y)^50").leading_word().ops) == 50
    for text in ("x^101", "p(x)^101", "x^51*p(y)^50", "(x^2*y)^34", "2*(x^60*x^41)"):
        with pytest.raises(BoundExceeded, match="more than 100$"):
            parse_polynomial(text)


def test_squaring_pairs_are_the_largest_product_of_a_sum_power(monkeypatch):
    # exact for two terms, and at least the largest product for more
    most = []
    mul = syntax._mul

    def counting(a, b):
        most[-1] = max(most[-1], len(a) * len(b))
        return mul(a, b)

    monkeypatch.setattr(syntax, "_mul", counting)
    for base, t in (("x+y", 2), ("x*p(y) - L*y", 2), ("x+y+z", 3), ("x+x*y+x*y^2", 3)):
        for exp in range(1, 25):
            most.append(0)
            parse_polynomial(f"({base})^{exp}")
            predicted = syntax._squaring_pairs(t, exp)
            assert predicted == most[-1] if t == 2 else predicted >= most[-1], (base, exp)
    # the largest power of a binomial the cap lets through, at both ends
    assert syntax._squaring_pairs(2, 600) == 66049 <= WORD_CAP
    assert syntax._squaring_pairs(2, 100_000) > WORD_CAP


def test_products_of_sums_past_the_pair_cap_are_refused(monkeypatch):
    monkeypatch.setattr(syntax, "WORD_CAP", 12)
    assert len(parse_polynomial("(a+b+c)*(x+y+z+w)")) == 12
    for text in ("(a+b+c)*(x+y+z+w+v)", "(x+y)^7", "(a+b+c+e)*(x+y+z+w)*(u+v)"):
        with pytest.raises(BoundExceeded, match="term pairs, more than 12$"):
            parse_polynomial(text)
    assert len(parse_polynomial("(x+y)^4")) == 5
