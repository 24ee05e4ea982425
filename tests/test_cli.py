import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from opalg.cli import (
    ParseError,
    format_polynomial,
    load_ruleset,
    main,
    parse_polynomial,
    parse_word,
)
from opalg import cli, rewrite
from opalg.coeff import Scalar
from opalg.gsbases import PRESETS, broken_rb
from opalg.poly import OpPolynomial
from opalg.rewrite import RuleValidationError, find_occurrences, is_irreducible
from opalg.sampling import random_polynomial
from opalg.terms import OP_D, OP_P, Word

from schema_check import validate as validate_schema


def test_parse_examples():
    f = parse_polynomial("d(x)*d(y)")
    assert len(f) == 1
    word, c = f.leading()
    assert c.is_one()
    assert word == Word.letter("x").apply(OP_D) * Word.letter("y").apply(OP_D)

    g = parse_polynomial("(L^-1)*d(x*y)")
    word, c = g.leading()
    assert c == Scalar.lam(-1)
    assert word == (Word.letter("x") * Word.letter("y")).apply(OP_D)


def test_parse_unit_and_numbers():
    assert parse_polynomial("1").leading()[0].is_unit()
    assert parse_polynomial("3/2").leading()[1] == Scalar.from_rational(3, 2)
    assert parse_polynomial("x - x").is_zero()


def test_parse_linear_operator_argument():
    f = parse_polynomial("d(x + y)")
    assert f == parse_polynomial("d(x) + d(y)")


def test_parse_scalar_expressions():
    assert parse_polynomial("(L + 1)/(L)").leading()[1] == (
        Scalar.lam(1) + Scalar.from_rational(1)
    ) * Scalar.lam(-1)
    assert parse_polynomial("L^2*x").leading()[1] == Scalar.lam(2)


def test_parse_errors():
    for bad in ("d(x", "q(x)", "x/(y)", "2//3", "d(x))", "p(x)^-1", ""):
        with pytest.raises(ParseError):
            parse_polynomial(bad)


def test_parse_power_by_squaring():
    base = parse_polynomial("x*d(y) + L*p(x)")
    product = OpPolynomial.one()
    for k in range(10):
        assert parse_polynomial(f"(x*d(y) + L*p(x))^{k}") == product
        product = product * base
    assert len(parse_word("x^20000").letters) == 20000


def test_parse_word_rejects_sums():
    with pytest.raises(ParseError):
        parse_word("x + y")


def test_format_round_trip_random():
    rng = random.Random(71)
    for _ in range(200):
        f = random_polynomial(rng, 7, ("x", "y"), (OP_D, OP_P))
        text = format_polynomial(f)
        again = parse_polynomial(text)
        assert again == f
        assert format_polynomial(again) == text


def test_format_idempotent_on_reparse():
    for s in ("d(x)*d(y)", "(L^-1)*d(x)*y - 2*p(x*y)", "1 - x"):
        once = format_polynomial(parse_polynomial(s))
        assert format_polynomial(parse_polynomial(once)) == once


def test_format_general_scalar_round_trip():
    c = (Scalar.lam(1) + Scalar.from_rational(1)) / (
        Scalar.lam(2) - Scalar.from_rational(2)
    )
    f = OpPolynomial(((Word.letter("x"), c), (Word.unit(), -(c * c))))
    assert parse_polynomial(format_polynomial(f)) == f


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_nf(capsys):
    code, out, _ = _run(capsys, ["nf", "--theory", "drb", "d(p(x))"])
    assert code == 0 and out.strip() == "x"


def test_cli_nf_specialized(capsys):
    code, out, _ = _run(capsys, ["nf", "--theory", "d", "--lambda", "2", "d(d(x))"])
    assert code == 0 and out.strip() == "-1/2*d(x)"


def test_cli_nf_trace_json(capsys):
    code, out, _ = _run(capsys, ["nf", "--theory", "drb", "--json", "d(p(x))*y"])
    assert code == 0
    payload = json.loads(out)
    validate_schema("nf_result", payload)
    assert payload["normal_form"] == "y*x"
    assert payload["steps"][0]["rule"] == "d_after_p"
    # the replayed polynomials chain from the input to the normal form
    for text in ("d(p(x))*y*p(p(y))", "p(x)*p(y)*p(x*y)"):
        code, out, _ = _run(capsys, ["nf", "--theory", "drb", "--json", text])
        assert code == 0
        payload = json.loads(out)
        steps = payload["steps"]
        assert len(steps) > 1
        assert steps[0]["before"] == payload["input"]
        for prev, step in zip(steps, steps[1:]):
            assert prev["after"] == step["before"]
        assert steps[-1]["after"] == payload["normal_form"]


# stdout of the engine that kept the polynomial before and after every step
GOLDEN_DRB_JSON = r'''{
  "input": "d(p(x))*p(p(y))*y",
  "normal_form": "-L*p(y)*y*x",
  "steps": [
    {
      "rule": "p_quasi_idem",
      "context": "\u22c6*d(p(x))*y",
      "binding": {
        "u": "y"
      },
      "redex": "d(p(x))*p(p(y))*y",
      "coefficient": "1",
      "before": "d(p(x))*p(p(y))*y",
      "after": "-L*d(p(x))*p(y)*y"
    },
    {
      "rule": "d_after_p",
      "context": "\u22c6*p(y)*y",
      "binding": {
        "u": "x"
      },
      "redex": "d(p(x))*p(y)*y",
      "coefficient": "-L",
      "before": "-L*d(p(x))*p(y)*y",
      "after": "-L*p(y)*y*x"
    }
  ]
}
'''

GOLDEN_RB_TRACE = r'''p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(y)*x)*y*x) + p(p(p(x)*y*x)*y) + p(p(p(x)*y)*y*x) + L*p(p(y*y*x)*x) + L*p(p(y*x*x)*y) + 2*L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)
[
  {
    "rule": "p_rota_baxter",
    "context": "\u22c6*p(x)",
    "binding": {
      "u": "y",
      "v": "y*x"
    },
    "redex": "p(y*x)*p(y)*p(x)",
    "coefficient": "1",
    "before": "p(y*x)*p(y)*p(x)",
    "after": "p(p(y*x)*y)*p(x) + p(p(y)*y*x)*p(x) + L*p(y*y*x)*p(x)"
  },
  {
    "rule": "p_rota_baxter",
    "context": "\u22c6",
    "binding": {
      "u": "x",
      "v": "p(y*x)*y"
    },
    "redex": "p(p(y*x)*y)*p(x)",
    "coefficient": "1",
    "before": "p(p(y*x)*y)*p(x) + p(p(y)*y*x)*p(x) + L*p(y*y*x)*p(x)",
    "after": "p(p(y)*y*x)*p(x) + p(p(y*x)*p(x)*y) + p(p(p(y*x)*y)*x) + L*p(y*y*x)*p(x) + L*p(p(y*x)*y*x)"
  },
  {
    "rule": "p_rota_baxter",
    "context": "\u22c6",
    "binding": {
      "u": "x",
      "v": "p(y)*y*x"
    },
    "redex": "p(p(y)*y*x)*p(x)",
    "coefficient": "1",
    "before": "p(p(y)*y*x)*p(x) + p(p(y*x)*p(x)*y) + p(p(p(y*x)*y)*x) + L*p(y*y*x)*p(x) + L*p(p(y*x)*y*x)",
    "after": "p(p(y*x)*p(x)*y) + p(p(y)*p(x)*y*x) + p(p(p(y*x)*y)*x) + p(p(p(y)*y*x)*x) + L*p(y*y*x)*p(x) + L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x)"
  },
  {
    "rule": "p_rota_baxter",
    "context": "p(\u22c6*y)",
    "binding": {
      "u": "x",
      "v": "y*x"
    },
    "redex": "p(p(y*x)*p(x)*y)",
    "coefficient": "1",
    "before": "p(p(y*x)*p(x)*y) + p(p(y)*p(x)*y*x) + p(p(p(y*x)*y)*x) + p(p(p(y)*y*x)*x) + L*p(y*y*x)*p(x) + L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x)",
    "after": "p(p(y)*p(x)*y*x) + p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(x)*y*x)*y) + L*p(y*y*x)*p(x) + L*p(p(y*x*x)*y) + L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x)"
  },
  {
    "rule": "p_rota_baxter",
    "context": "p(\u22c6*y*x)",
    "binding": {
      "u": "x",
      "v": "y"
    },
    "redex": "p(p(y)*p(x)*y*x)",
    "coefficient": "1",
    "before": "p(p(y)*p(x)*y*x) + p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(x)*y*x)*y) + L*p(y*y*x)*p(x) + L*p(p(y*x*x)*y) + L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x)",
    "after": "p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(y)*x)*y*x) + p(p(p(x)*y*x)*y) + p(p(p(x)*y)*y*x) + L*p(y*y*x)*p(x) + L*p(p(y*x*x)*y) + 2*L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x)"
  },
  {
    "rule": "p_rota_baxter",
    "context": "\u22c6",
    "binding": {
      "u": "x",
      "v": "y*y*x"
    },
    "redex": "p(y*y*x)*p(x)",
    "coefficient": "L",
    "before": "p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(y)*x)*y*x) + p(p(p(x)*y*x)*y) + p(p(p(x)*y)*y*x) + L*p(y*y*x)*p(x) + L*p(p(y*x*x)*y) + 2*L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x)",
    "after": "p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(y)*x)*y*x) + p(p(p(x)*y*x)*y) + p(p(p(x)*y)*y*x) + L*p(p(y*y*x)*x) + L*p(p(y*x*x)*y) + 2*L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)"
  }
]
'''

# stdout of the engine that ran reduce_once on the whole polynomial at every random step
GOLDEN_RB_RANDOM_JSON = r'''{
  "input": "p(y*x)*p(y)*p(x)",
  "normal_form": "p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(y)*x)*y*x) + p(p(p(x)*y*x)*y) + p(p(p(x)*y)*y*x) + L*p(p(y*y*x)*x) + L*p(p(y*x*x)*y) + 2*L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)",
  "steps": [
    {
      "rule": "p_rota_baxter",
      "context": "\u22c6*p(x)",
      "binding": {
        "u": "y*x",
        "v": "y"
      },
      "redex": "p(y*x)*p(y)*p(x)",
      "coefficient": "1",
      "before": "p(y*x)*p(y)*p(x)",
      "after": "p(p(y*x)*y)*p(x) + p(p(y)*y*x)*p(x) + L*p(y*y*x)*p(x)"
    },
    {
      "rule": "p_rota_baxter",
      "context": "\u22c6",
      "binding": {
        "u": "x",
        "v": "y*y*x"
      },
      "redex": "p(y*y*x)*p(x)",
      "coefficient": "L",
      "before": "p(p(y*x)*y)*p(x) + p(p(y)*y*x)*p(x) + L*p(y*y*x)*p(x)",
      "after": "p(p(y*x)*y)*p(x) + p(p(y)*y*x)*p(x) + L*p(p(y*y*x)*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)"
    },
    {
      "rule": "p_rota_baxter",
      "context": "\u22c6",
      "binding": {
        "u": "p(y*x)*y",
        "v": "x"
      },
      "redex": "p(p(y*x)*y)*p(x)",
      "coefficient": "1",
      "before": "p(p(y*x)*y)*p(x) + p(p(y)*y*x)*p(x) + L*p(p(y*y*x)*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)",
      "after": "p(p(y)*y*x)*p(x) + p(p(y*x)*p(x)*y) + p(p(p(y*x)*y)*x) + L*p(p(y*y*x)*x) + L*p(p(y*x)*y*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)"
    },
    {
      "rule": "p_rota_baxter",
      "context": "p(\u22c6*y)",
      "binding": {
        "u": "x",
        "v": "y*x"
      },
      "redex": "p(p(y*x)*p(x)*y)",
      "coefficient": "1",
      "before": "p(p(y)*y*x)*p(x) + p(p(y*x)*p(x)*y) + p(p(p(y*x)*y)*x) + L*p(p(y*y*x)*x) + L*p(p(y*x)*y*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)",
      "after": "p(p(y)*y*x)*p(x) + p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(x)*y*x)*y) + L*p(p(y*y*x)*x) + L*p(p(y*x*x)*y) + L*p(p(y*x)*y*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)"
    },
    {
      "rule": "p_rota_baxter",
      "context": "\u22c6",
      "binding": {
        "u": "p(y)*y*x",
        "v": "x"
      },
      "redex": "p(p(y)*y*x)*p(x)",
      "coefficient": "1",
      "before": "p(p(y)*y*x)*p(x) + p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(x)*y*x)*y) + L*p(p(y*y*x)*x) + L*p(p(y*x*x)*y) + L*p(p(y*x)*y*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)",
      "after": "p(p(y)*p(x)*y*x) + p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(x)*y*x)*y) + L*p(p(y*y*x)*x) + L*p(p(y*x*x)*y) + L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)"
    },
    {
      "rule": "p_rota_baxter",
      "context": "p(\u22c6*y*x)",
      "binding": {
        "u": "x",
        "v": "y"
      },
      "redex": "p(p(y)*p(x)*y*x)",
      "coefficient": "1",
      "before": "p(p(y)*p(x)*y*x) + p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(x)*y*x)*y) + L*p(p(y*y*x)*x) + L*p(p(y*x*x)*y) + L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)",
      "after": "p(p(p(y*x)*y)*x) + p(p(p(y*x)*x)*y) + p(p(p(y)*y*x)*x) + p(p(p(y)*x)*y*x) + p(p(p(x)*y*x)*y) + p(p(p(x)*y)*y*x) + L*p(p(y*y*x)*x) + L*p(p(y*x*x)*y) + 2*L*p(p(y*x)*y*x) + L*p(p(y)*y*x*x) + L*p(p(x)*y*y*x) + L^2*p(y*y*x*x)"
    }
  ]
}
'''


# computed with every coefficient of a monomial view held as a Fraction
VERIFY_JSON_SHA256 = "fbd676dbe5786ae7a5f4aabb6b11bf16a30b2cc046365f6adf1d573544a95ebb"
NF_JSON_TRACE_SHA256 = "f424accef285e9778789cb035a4a42fb0c69df78b9635801364ed4cd1512f222"
# computed while the reports of a rule pair were also deduplicated by key
VERIFY_COMPLETIONS_JSON_SHA256 = "9348f13deb4c991f5e34c6cb160d2c6fac60417ba671fbfb59b86e1b931e7433"
COMPOSE_JSON_SHA256 = "247eb9a525245e24eb14de093820188227d4d49c9abb63e0c7f93e98df6f351e"
# computed while a Hurwitz series was stored as the head of its sigma-transform
HURWITZ_MODEL_SHA256 = "2195c92ed0ce37be0fb11eb0e229ad485746bc0e94d1d05bdcc2c557b82168b1"


def test_cli_nf_golden_json(capsys):
    code, out, _ = _run(capsys, ["nf", "--theory", "drb", "--json", "d(p(x))*y*p(p(y))"])
    assert code == 0 and out == GOLDEN_DRB_JSON


def test_cli_nf_golden_trace(capsys):
    code, out, _ = _run(capsys, ["nf", "--theory", "rb", "--trace", "p(x)*p(y)*p(x*y)"])
    assert code == 0 and out == GOLDEN_RB_TRACE


def test_cli_nf_golden_random_json(capsys):
    code, out, _ = _run(
        capsys,
        ["nf", "--theory", "rb", "--strategy", "random", "--seed", "3", "--json", "p(x)*p(y)*p(x*y)"],
    )
    assert code == 0 and out == GOLDEN_RB_RANDOM_JSON


def _cli_digest(capsys, argvs):
    """sha256 over each command's argv, exit code, stdout and stderr."""
    h = hashlib.sha256()
    for argv in argvs:
        h.update(repr((argv, *_run(capsys, argv))).encode())
    return h.hexdigest()


def test_cli_verify_json_is_byte_identical(capsys):
    # rb passes, d and drb fail: exit codes 0, 1, 1, with and without unit
    argvs = [
        ["verify", "--theory", name, "--depth", "1", "--cofactors", "1", "--json", *unit]
        for name in ("rb", "d", "drb")
        for unit in ((), ("--with-unit",))
    ]
    assert _cli_digest(capsys, argvs) == VERIFY_JSON_SHA256


def test_cli_verify_json_completions_are_byte_identical(capsys):
    # the completions pass and d+d1 fails, with and without unit
    argvs = [
        ["verify", "--theory", name, "--depth", "1", "--cofactors", "1", "--json", *unit]
        for name in ("d-gs", "drb-gs", "d+d1")
        for unit in ((), ("--with-unit",))
    ]
    assert _cli_digest(capsys, argvs) == VERIFY_COMPLETIONS_JSON_SHA256


def test_cli_compose_json_is_byte_identical(capsys):
    # a symmetric pair, whose scenarios ask for some calls again (76 reports),
    # and a cross pair
    argvs = [
        ["compose", "--theory", theory, "--left", left, "--right", right, "--json", "--with-unit"]
        for theory, left, right in (
            ("d-gs", "d_leibniz", "d_leibniz"),
            ("drb", "d_after_p", "p_quasi_idem"),
        )
    ]
    assert _cli_digest(capsys, argvs) == COMPOSE_JSON_SHA256


# general Q(L) coefficients beside the monomial ones c·L^k
_NF_COEFFICIENTS = ("1", "-1", "3", "L", "-L^-1", "1/2", "-2/3*L^2", "(L+1)/(L^2-2)", "(2*L-1)/(L+3)")


def _nf_corpus():
    rng = random.Random(24)
    texts = [
        ("drb", "(L+1)/(L^2-2)*x + 1/2*d(x)"),
        ("d", "1/2*d(x)*d(y) - (L+1)/(L^2-2)*d(d(x))"),
        ("rb", "(L+1)/(L^2-2)*p(x)*p(y) + 1/2*p(p(x))"),
    ]
    for name in ("rb", "d", "drb"):
        for _ in range(8):
            f = random_polynomial(rng, 5, ("x", "y"), PRESETS[name].operators)
            c = rng.choice(_NF_COEFFICIENTS)
            texts.append((name, f"({c})*({format_polynomial(f)})"))
    return texts


def test_cli_nf_json_trace_is_byte_identical(capsys):
    argvs = [
        ["nf", "--theory", name, "--strategy", strategy, "--seed", str(i), "--json", "--trace", text]
        for i, (name, text) in enumerate(_nf_corpus())
        for strategy in ("leading", "random")
    ]
    assert _cli_digest(capsys, argvs) == NF_JSON_TRACE_SHA256


# the Hurwitz model commands, over the window lengths where values run out
_HURWITZ_POLYNOMIALS = (
    "x", "x*y", "x - x", "p(x)", "d(x)", "p(d(x))", "d(p(x))", "d(d(d(x)))*y",
    "p(x)*p(y)", "p(p(x)) + L*p(x)", "p(x*p(y)) + p(p(x)*y) + L*p(x*y)",
    "d(x*y) - d(x)*y - x*d(y) - L*d(x)*d(y)", "(L+1)/(L^2-2)*d(x*p(y))",
    "-3/2*x*y^2 + d(y)", "p(d(y))*d(p(x))", "1 + x",
)


def test_cli_hurwitz_model_output_is_byte_identical(capsys):
    argvs = [
        ["hurwitz-check", "--lambda", weight, "--trunc", trunc, *json_flag]
        for weight in ("1", "3/2", "-2/7")
        for trunc in ("3", "4", "8")
        for json_flag in ((), ("--json",))
    ]
    argvs += [
        ["model-eval", "--model", "hurwitz", "--lambda", weight, "--trunc", trunc,
         "--assign", "x=3", "--assign", "y=-1/2", text]
        for weight in ("3/2", "-2")
        for trunc in ("1", "2", "4", "8")
        for text in _HURWITZ_POLYNOMIALS
    ]
    assert _cli_digest(capsys, argvs) == HURWITZ_MODEL_SHA256


def test_cli_cmp(capsys):
    code, out, _ = _run(capsys, ["cmp", "p(x)", "d(x)"])
    assert code == 0 and out.strip() == "< (lex(operator))"
    code, out, _ = _run(capsys, ["cmp", "x*y", "x*y"])
    assert code == 0 and out.strip() == "= (equal)"


def test_cli_verify_pass_and_json(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--theory", "rb", "--depth", "1", "--cofactors", "1", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    validate_schema("verify_report", payload)
    assert payload["pass"] is True
    assert payload["theory"] == "rb"


def test_cli_verify_failure_exit_code(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--theory", "d", "--depth", "1", "--cofactors", "1"]
    )
    assert code == 1
    assert "NON-TRIVIAL" in out and out.strip().endswith("FAIL")


def test_cli_irr(capsys):
    code, out, _ = _run(
        capsys, ["irr", "--theory", "drb", "--size", "2", "--generators", "x", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    validate_schema("irr_result", payload)
    assert payload["count"] == 11
    assert "d(p(x))" not in payload["words"]
    code, out, _ = _run(capsys, ["irr", "--theory", "rb", "--size", "-1"])
    assert (code, out) == (0, "count: 0\n")


def test_cli_irr_duplicate_generators_count_once(capsys):
    _, once, _ = _run(capsys, ["irr", "--theory", "rb", "--size", "2", "--generators", "x"])
    code, twice, _ = _run(capsys, ["irr", "--theory", "rb", "--size", "2", "--generators", "x,x"])
    assert code == 0 and twice == once
    assert twice.splitlines()[-1] == "count: 6"
    code, out, _ = _run(
        capsys, ["irr", "--theory", "rb", "--size", "1", "--generators", "y,x,y", "--json"]
    )
    payload = json.loads(out)
    validate_schema("irr_result", payload)
    assert code == 0 and payload["generators"] == ["y", "x"]


def test_cli_irr_over_the_word_cap_exit_3(capsys):
    code, out, err = _run(capsys, ["irr", "--size", "9"])
    assert code == 3 and out == ""
    assert err.startswith("limit:") and "Traceback" not in err


def test_cli_irr_huge_size_refused_at_once(capsys):
    code, out, err = _run(capsys, ["irr", "--size", "1000000000"])
    assert code == 3 and out == ""
    assert err.startswith("limit:") and "Traceback" not in err


def test_cli_irr_over_the_total_size_exit_3(tmp_path, capsys):
    # without operators 999,999 is within the word count, exactly 10^6 words,
    # but they hold about 5·10^11 letters in all
    path = tmp_path / "letters.json"
    path.write_text(json.dumps({"operators": [], "generators": ["x"], "rules": []}))
    t0 = time.perf_counter()
    code, out, err = _run(capsys, ["irr", "--theory", str(path), "--size", "999999"])
    assert code == 3 and out == ""
    assert err.startswith("limit:") and "total size" in err and "Traceback" not in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["compose", "--theory", "rb", "--left", "p_quasi_idem", "--right", "p_quasi_idem",
         "--depth", "40"],
        ["verify", "--theory", "rb", "--depth", "30", "--cofactors", "3"],
        # few contexts, but too deep to build: refused before any is built
        ["compose", "--theory", "rb", "--left", "p_quasi_idem", "--right", "p_quasi_idem",
         "--cofactors", "0", "--depth", "3000"],
        ["compose", "--theory", "rb", "--left", "p_quasi_idem", "--right", "p_quasi_idem",
         "--cofactors", "0", "--depth", "20000"],
    ],
    ids=" ".join,
)
def test_cli_context_family_over_the_word_cap_exit_3(capsys, argv):
    # sum over d <= D of k^d·(C+1)^(d+1) contexts: counted, never built
    t0 = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("limit:") and "contexts" in err and "Traceback" not in err
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize(
    "text, message",
    [
        # a word power past SIZE_CAP top-level factors, refused before the
        # letter tuple is built
        ("x^99999999999", "top-level factors"),
        # a power of a sum whose repeated squaring passes WORD_CAP term pairs
        ("(x+y)^100000", "term pairs"),
    ],
)
def test_cli_parse_over_the_caps_exit_3(capsys, text, message):
    t0 = time.perf_counter()
    code, out, err = _run(capsys, ["nf", "--theory", "rb", text])
    assert code == 3 and out == ""
    assert err.startswith("limit:") and message in err and "Traceback" not in err
    assert time.perf_counter() - t0 < 5.0


# the interpreter's limit on decimal digits in int <-> str conversions
_DIGITS = sys.get_int_max_str_digits()
# a product of powers of 2, each within POWER_BITS_CAP, printing past that limit
_LONG_PRODUCT = "*".join(["2^8000"] * (_DIGITS // 2400 + 2))


@pytest.mark.skipif(not _DIGITS, reason="int-to-string conversion is unlimited")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["nf", "--theory", "rb", "2^15000*x"], "scalar power"),
        (["nf", "--theory", "rb", "2^99999999*x"], "scalar power"),
        (["nf", "--theory", "rb", "(1+L)^2000*x"], "scalar power"),
        (["nf", "--theory", "rb", "(1+L)^3000*x"], "scalar power"),
        (["nf", "--theory", "rb", "(2*x)^99999"], "scalar power"),
        (["nf", "--theory", "rb", "1" * (_DIGITS + 1) + "*x"], "integer literal"),
        (["nf", "--theory", "rb", "x^" + "1" * (_DIGITS + 1)], "integer literal"),
        (["nf", "--theory", "rb", _LONG_PRODUCT + "*x"], "digits"),
        (["nf", "--theory", "rb", "--json", _LONG_PRODUCT + "*p(x)*p(y)"], "digits"),
        (["nf", "--theory", "rb", "--trace", _LONG_PRODUCT + "*p(x)*p(y)"], "digits"),
        (["model-eval", "--assign", "x=1", _LONG_PRODUCT + "*x"], "digits"),
        # a concrete weight is bounded as the power typed with it would be
        (["nf", "--theory", "rb", "3^8193*x"], "about 8193 bits"),
        (["nf", "--theory", "rb", "--lambda", "3", "L^8193*x"], "about 8193 bits"),
        (["nf", "--theory", "rb", "--lambda", "3", "L^100000000*x"], "scalar power"),
        (["model-eval", "--lambda", "3", "--assign", "x=1", "L^100000000*x"], "scalar power"),
        # a number typed as an option is bounded as the same literal in a polynomial
        (["hurwitz-check", "--lambda", "1e10000000", "--samples", "1"], "digits"),
        (["nf", "--theory", "rb", "--lambda", "7" * 5000, "p(x)"], "digits"),
        (["model-eval", "--assign", "x=1e1000000", "x"], "digits"),
    ],
    ids=lambda v: " ".join(v)[:60] if isinstance(v, list) else v,
)
def test_cli_scalar_size_refusals_exit_3(capsys, argv, message):
    # valid input, too large to compute or print: a limit, not a syntax error
    t0 = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("limit:") and message in err and "Traceback" not in err
    assert time.perf_counter() - t0 < 1.0


def test_cli_large_scalars_within_the_bounds_print(capsys):
    for args, printed in [
        (["L^100000000*x"], "L^100000000*x"),
        (["2^64*x"], "18446744073709551616*x"),
        (["(1+L)^3*x"], "(L^3 + 3*L^2 + 3*L + 1)*x"),
        (["0^99999999*x"], "0"),
        (["--lambda", "3", "L^100*x"], f"{3**100}*x"),
        # a weight's power passes exactly when the typed power does
        (["3^8192*x"], f"{3**8192}*x"),
        (["--lambda", "3", "L^8192*x"], f"{3**8192}*x"),
        (["--lambda", "3/2", "L*x"], "3/2*x"),
        (["--lambda", "0.5", "L*x"], "1/2*x"),
        (["--lambda", "1e3", "L*x"], "1000*x"),
    ]:
        code, out, _ = _run(capsys, ["nf", "--theory", "rb", *args])
        assert (code, out) == (0, printed + "\n")


def test_cli_compose(capsys):
    code, out, _ = _run(
        capsys,
        ["compose", "--theory", "rb", "--left", "p_rota_baxter", "--right", "p_quasi_idem"],
    )
    assert code == 0
    assert "including" in out
    code, out, _ = _run(
        capsys,
        ["compose", "--theory", "rb", "--left", "p_rota_baxter", "--right", "p_quasi_idem", "--json"],
    )
    assert code == 0
    validate_schema("compose_reports", json.loads(out))


def test_cli_hurwitz_check(capsys):
    code, out, _ = _run(
        capsys, ["hurwitz-check", "--lambda", "3/2", "--samples", "15", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    validate_schema("hurwitz_check", payload)
    assert payload["pass"] is True
    assert payload["checks"]["rota_baxter"] is True
    # the shortest window on which every check still compares an entry
    code, out, _ = _run(capsys, ["hurwitz-check", "--trunc", "3", "--samples", "5"])
    assert code == 0 and out.strip().endswith("PASS")


def test_cli_model_eval(capsys):
    code, out, _ = _run(
        capsys,
        ["model-eval", "--model", "degenerate", "--lambda", "2", "--assign", "x=3", "d(p(x)) - x"],
    )
    assert code == 0 and out.strip() == "0"
    # a polynomial that cancels to zero evaluates to the model's zero
    code, out, _ = _run(capsys, ["model-eval", "x - x", "--assign", "x=1"])
    assert (code, out) == (0, "0\n")


def test_cli_model_eval_hurwitz_prints_the_window(capsys):
    argv = ["model-eval", "--model", "hurwitz", "--lambda", "2", "--trunc", "4",
            "--assign", "x=3", "p(x)*x"]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (0, '["-18", "9", "-9/2", "9/4"]\n', "")


def test_cli_model_eval_negative_weight(capsys):
    # argparse reads -2/7 as an option unless the CLI attaches it to --lambda
    argv = ["model-eval", "p(x)", "--model", "xi", "--assign", "x=1"]
    code, out, err = _run(capsys, argv + ["--lambda", "-2/7"])
    assert code == 0 and err == ""
    assert (code, out) == _run(capsys, argv + ["--lambda=-2/7"])[:2]
    assert out.strip() == "2/7"


def test_cli_nf_reads_the_weight_before_reducing(capsys, monkeypatch):
    # a weight that cannot be read is refused before any reduction, so its
    # error wins over the step limit the reduction would hit
    argv = ["nf", "--theory", "rb", "--step-limit", "0", "p(p(x))"]
    assert _run(capsys, argv)[0] == 3
    assert _run(capsys, argv + ["--lambda", "abc"]) == (
        2, "", "error: Invalid literal for Fraction: 'abc'\n"
    )

    def refuse(*args, **kwargs):
        raise AssertionError("normal_form ran before the weight was read")

    monkeypatch.setattr(cli, "normal_form", refuse)
    for weight, code in (("abc", 2), ("0", 2), ("1/0", 2), ("1e99999", 3)):
        got, out, err = _run(capsys, ["nf", "--theory", "rb", "--lambda", weight, "p(p(x))"])
        assert (got, out) == (code, "") and err.startswith(("error:", "limit:")), weight


def test_cli_nf_negative_weight(capsys):
    argv = ["nf", "--theory", "d", "d(d(x))"]
    code, out, err = _run(capsys, argv + ["--lambda", "-2/7"])
    assert code == 0 and err == ""
    assert (code, out) == _run(capsys, argv + ["--lambda=-2/7"])[:2]
    assert out.strip() == "7/2*d(x)"


def test_cli_deep_nesting_is_a_limit(capsys):
    depth = 1000
    text = "p(" * depth + "x" + ")" * depth
    code, out, err = _run(capsys, ["nf", "--theory", "rb", text])
    assert code == 3 and out == ""
    assert err.startswith("limit:") and "Traceback" not in err


def test_cli_deep_nesting_that_no_rule_matches(capsys):
    # no rule matches at any of the 200 levels, so the matcher walks them
    # all; the parser stops near 240 levels under pytest, so a matcher that
    # took more frames per level than the parser would fail here first
    text = "p(x*" * 200 + "x" + ")" * 200
    expected = format_polynomial(parse_polynomial(text)) + "\n"
    for strategy in ("leading", "random"):
        code, out, err = _run(capsys, ["nf", "--theory", "rb", "--strategy", strategy, text])
        assert (code, out, err) == (0, expected, "")
    w = parse_polynomial(text).leading_word()
    assert is_irreducible(w, PRESETS["rb"].rules)
    assert len(find_occurrences(w, Word.letter("x"))) == 200


def test_cli_usage_error_exit_2(capsys):
    code, _, err = _run(capsys, ["nf", "--theory", "drb", "d(x"])
    assert code == 2 and "error" in err


def test_cli_step_limit_exit_3(capsys):
    code, _, err = _run(
        capsys,
        ["nf", "--theory", "rb", "--step-limit", "1", "p(x)*p(y)*p(x*y)"],
    )
    assert code == 3 and "limit" in err


def test_cli_term_limit_exit_3(capsys, monkeypatch):
    argv = ["nf", "--theory", "drb", "(x*d(y)+L*p(x))^3"]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and len(parse_polynomial(out.strip())) == 11
    monkeypatch.setattr(rewrite, "TERM_LIMIT", 10)
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert err == "limit: no normal form within 10 terms\n"


def test_cli_deterministic_output(capsys):
    argv = ["verify", "--theory", "rb", "--depth", "1", "--cofactors", "1", "--json"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


RULESET = {
    "operators": [{"name": "d", "rank": 1}, {"name": "p", "rank": 0}],
    "generators": ["x", "y"],
    "rules": [
        {
            "name": "collapse",
            "variables": ["u"],
            "polynomial": "d(p(u)) - u",
        }
    ],
}


def test_ruleset_file_round_trip(tmp_path, capsys):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(RULESET))
    theory = load_ruleset(path)
    assert [r.name for r in theory.rules] == ["collapse"]
    code, out, _ = _run(capsys, ["nf", "--theory", str(path), "d(p(x*y))"])
    assert code == 0 and out.strip() == "y*x"


@pytest.mark.parametrize("name", [*PRESETS, "rb-broken"])
def test_preset_as_ruleset_file(tmp_path, name):
    theory = broken_rb() if name == "rb-broken" else PRESETS[name]
    data = {
        "operators": [{"name": op.name, "rank": op.rank} for op in theory.operators],
        "generators": ["x", "y"],
        "rules": [
            {"name": r.name, "variables": list(r.variables), "polynomial": format_polynomial(r.poly)}
            for r in theory.rules
        ],
    }
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(data))
    loaded = load_ruleset(path)
    assert loaded.operators == theory.operators
    assert loaded.rules == theory.rules
    assert [hash(r) for r in loaded.rules] == [hash(r) for r in theory.rules]


def test_ruleset_file_validation_errors(tmp_path):
    bad = dict(RULESET)
    bad["rules"] = [
        {"name": "nonmonic", "variables": ["u"], "polynomial": "2*d(p(u)) - u"}
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(RuleValidationError):
        load_ruleset(path)


def test_ruleset_missing_key(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"rules": []}))
    code, _, err = _run(capsys, ["nf", "--theory", str(path), "x"])
    assert code == 2 and "error" in err


# the whole stderr of some refusals in test_cli_bad_input_exit_2
_BAD_INPUT_MESSAGES = {
    "compose --theory rb --left nope --right p_quasi_idem":
        "error: theory rb has no rule 'nope'\n",
    "model-eval --assign x=1 y": "error: no value assigned to the generator 'y'\n",
    "model-eval --assign x=1 --assign x=2 x":
        "error: the generator 'x' is assigned more than once\n",
    "nf --theory rb --lambda 0 x - x": "error: weight must be nonzero\n",
    "model-eval --assign x=1 --assign L=2 x": "error: only generators take values, not 'L'\n",
    "model-eval --assign x=1 --assign =3 x": "error: only generators take values, not ''\n",
    "model-eval --assign x=1 --assign d=4 x": "error: only generators take values, not 'd'\n",
    "model-eval --assign x=1 --assign x*y=4 x":
        "error: only generators take values, not 'x*y'\n",
    "verify --depth -1": "error: verification bounds must be nonnegative\n",
    "compose --left d_after_p --right p_quasi_idem --depth -1":
        "error: verification bounds must be nonnegative\n",
    "compose --left d_after_p --right p_quasi_idem --cofactors -2 --depth 3":
        "error: verification bounds must be nonnegative\n",
    "compose --theory {tmp}/rule-twice.json --left collapse --right collapse":
        "error: rule names must be distinct\n",
    "nf --theory {tmp}/variable-twice.json x":
        "error: rule collapse: variable names must be distinct\n",
    "nf --theory {tmp}/rule-zero.json x": "error: rule collapse: zero polynomial\n",
    "nf --theory {tmp}/rule-unit.json x": "error: rule collapse: pattern is the unit word\n",
    "nf --theory {tmp}/rule-two-bare.json x":
        "error: rule collapse: more than one bare variable inside one argument\n",
}

_BAD_RULESETS = {
    "array.json": [RULESET],
    "operators.json": dict(RULESET, operators=5),
    "rank.json": dict(RULESET, operators=[{"name": "d", "rank": None}]),
    "variables.json": dict(RULESET, rules=[dict(RULESET["rules"][0], variables=5)]),
    "variable.json": dict(RULESET, rules=[dict(RULESET["rules"][0], variables=[["u"]])]),
    "name.json": dict(RULESET, rules=[dict(RULESET["rules"][0], name=5)]),
    "polynomial.json": dict(RULESET, rules=[dict(RULESET["rules"][0], polynomial=5)]),
    "generators.json": dict(RULESET, generators=["x", "L"]),
    "generator.json": dict(RULESET, generators=["y*z"]),
    # operator names the grammar cannot read back, a repeated name, a bool rank
    "operator-twice.json": dict(
        RULESET, operators=[{"name": "d", "rank": 1}, {"name": "d", "rank": 0}], rules=[]
    ),
    "operator-weight.json": dict(RULESET, operators=[{"name": "L", "rank": 1}], rules=[]),
    "operator-space.json": dict(RULESET, operators=[{"name": "x y", "rank": 1}], rules=[]),
    "rank-bool.json": dict(
        RULESET, operators=[{"name": "d", "rank": 2}, {"name": "p", "rank": True}]
    ),
    "rank-twice.json": dict(
        RULESET, operators=[{"name": "d", "rank": 1}, {"name": "p", "rank": 1}]
    ),
    "variable-shadows.json": dict(
        RULESET, rules=[dict(RULESET["rules"][0], variables=["x"], polynomial="d(p(x)) - x")]
    ),
    # a repeated rule name, a repeated variable name
    "rule-twice.json": dict(RULESET, rules=RULESET["rules"] * 2),
    "variable-twice.json": dict(RULESET, rules=[dict(RULESET["rules"][0], variables=["u", "u"])]),
    # patterns the engine refuses: none at all, the unit word, two bare
    # variables in one argument
    "rule-zero.json": dict(RULESET, rules=[dict(RULESET["rules"][0], polynomial="d(u) - d(u)")]),
    "rule-unit.json": dict(
        RULESET, rules=[dict(RULESET["rules"][0], variables=[], polynomial="1")]
    ),
    "rule-two-bare.json": dict(
        RULESET, rules=[dict(RULESET["rules"][0], variables=["u", "v"], polynomial="d(u*v)")]
    ),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "--lambda", "1/0", "x"],
        # a zero weight, also where nothing is left to specialise
        ["nf", "--theory", "rb", "--lambda", "0", "x - x"],
        ["model-eval", "x", "--assign", "x=1/0"],
        ["model-eval", "x", "--lambda", "1/0", "--assign", "x=1"],
        ["nf", "--theory", "{tmp}", "x"],
        *(["nf", "--theory", "{tmp}/" + name, "x"] for name in _BAD_RULESETS),
        # windows too short for some check to compare any entry, and no samples
        ["hurwitz-check", "--trunc", "2"],
        ["hurwitz-check", "--trunc", "-1"],
        ["hurwitz-check", "--samples", "0"],
        ["hurwitz-check", "--trunc", "0"],
        ["model-eval", "x", "--model", "hurwitz", "--trunc", "0", "--assign", "x=1"],
        ["model-eval", "x", "--model", "hurwitz", "--trunc", "-2", "--assign", "x=1"],
        # every entry shifted out of the window by d
        ["model-eval", "d(x)", "--model", "hurwitz", "--trunc", "1", "--assign", "x=2"],
        # integrating such a series leaves none either, since P(f)(0) needs f(0)
        ["model-eval", "--model", "hurwitz", "--lambda", "3/2", "--trunc", "1",
         "--assign", "x=1", "p(d(x))"],
        # generators the grammar reads back as something else
        ["irr", "--size", "1", "--theory", "rb", "--generators", "L,d"],
        ["irr", "--size", "1", "--generators", "x,y*z"],
        ["irr", "--size", "1", "--generators", "x!"],
        # a negative step limit, on irreducible and on reducible input
        ["nf", "--step-limit", "-5", "x"],
        ["nf", "--step-limit", "-5", "d(p(x))"],
        # names that are not there: a rule of the theory, a generator's value
        ["compose", "--theory", "rb", "--left", "nope", "--right", "p_quasi_idem"],
        ["model-eval", "--assign", "x=1", "y"],
        # an assignment with no value, a generator assigned twice
        ["model-eval", "--assign", "x", "x"],
        ["model-eval", "--assign", "x=1", "--assign", "x=2", "x"],
        # values for names that are not generators
        *(["model-eval", "--assign", "x=1", "--assign", item, "x"]
          for item in ("L=2", "=3", "d=4", "x*y=4")),
        # negative verification bounds, for compose as for verify
        ["verify", "--depth", "-1"],
        ["compose", "--left", "d_after_p", "--right", "p_quasi_idem", "--depth", "-1"],
        ["compose", "--left", "d_after_p", "--right", "p_quasi_idem", "--cofactors", "-2",
         "--depth", "3"],
        # two rules of one name: neither may stand for the other
        ["compose", "--theory", "{tmp}/rule-twice.json", "--left", "collapse", "--right", "collapse"],
    ],
    ids=" ".join,
)
def test_cli_bad_input_exit_2(tmp_path, capsys, argv):
    for name, data in _BAD_RULESETS.items():
        (tmp_path / name).write_text(json.dumps(data))
    code, out, err = _run(capsys, [a.format(tmp=tmp_path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    # a KeyError prints its message, not the repr of its key
    expected = _BAD_INPUT_MESSAGES.get(" ".join(argv))
    if expected is not None:
        assert err == expected


def _readme_examples():
    """(argv, stated result) for each command of the README's "Command line"
    block that states one: ``# -> text`` for its stdout, ``# exits N`` for
    its exit code."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        comment = comment.strip()
        if comment.startswith("-> "):
            examples.append((shlex.split(command)[1:], comment[3:]))
        elif comment.startswith("exits "):
            examples.append((shlex.split(command)[1:], int(comment.split()[1].rstrip(","))))
    return examples


def test_readme_examples_state_their_results(capsys):
    examples = _readme_examples()
    assert len(examples) >= 4
    for argv, stated in examples:
        code, out, err = _run(capsys, argv)
        if isinstance(stated, int):
            assert code == stated, (argv, err)
        else:
            assert (code, out.strip()) == (0, stated), argv


def test_module_entry_point_without_asserts():
    # python -O strips assert statements; the step replay must not need them
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for module in ("opalg", "opalg.cli"):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", module, "nf", "--theory", "drb", "--json", "d(p(x))*y"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "", module
        payload = json.loads(proc.stdout)
        validate_schema("nf_result", payload)
        assert payload["normal_form"] == "y*x"
