import json
import os
import random
import subprocess
import sys
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
from opalg.coeff import Scalar
from opalg.gsbases import PRESETS, broken_rb
from opalg.poly import OpPolynomial
from opalg.rewrite import RuleValidationError
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


def test_cli_model_eval_negative_weight(capsys):
    # argparse reads -2/7 as an option unless the CLI attaches it to --lambda
    argv = ["model-eval", "p(x)", "--model", "xi", "--assign", "x=1"]
    code, out, err = _run(capsys, argv + ["--lambda", "-2/7"])
    assert code == 0 and err == ""
    assert (code, out) == _run(capsys, argv + ["--lambda=-2/7"])[:2]
    assert out.strip() == "2/7"


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


def test_cli_usage_error_exit_2(capsys):
    code, _, err = _run(capsys, ["nf", "--theory", "drb", "d(x"])
    assert code == 2 and "error" in err


def test_cli_step_limit_exit_3(capsys):
    code, _, err = _run(
        capsys,
        ["nf", "--theory", "rb", "--step-limit", "1", "p(x)*p(y)*p(x*y)"],
    )
    assert code == 3 and "limit" in err


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
}


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "--lambda", "1/0", "x"],
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
        # a negative step limit, on irreducible and on reducible input
        ["nf", "--step-limit", "-5", "x"],
        ["nf", "--step-limit", "-5", "d(p(x))"],
    ],
    ids=" ".join,
)
def test_cli_bad_input_exit_2(tmp_path, capsys, argv):
    for name, data in _BAD_RULESETS.items():
        (tmp_path / name).write_text(json.dumps(data))
    code, out, err = _run(capsys, [a.format(tmp=tmp_path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
