"""Command-line interface: subcommands, rule-set files and JSON reports.

The term grammar the subcommands read and print lives in ``opalg.syntax``.

Subcommands: nf, cmp, verify, irr, compose, hurwitz-check, model-eval.
Exit codes: 0 success, 1 verification failure, 2 usage or syntax error,
3 an internal limit was hit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from .coeff import BoundExceeded, Scalar, exact_fraction, exact_weight
from .gsbases import (
    PRESETS,
    TheoryPreset,
    VerifyConfig,
    enumerate_irr,
    pair_reports,
    verify_gs,
)
from .models import (
    DegenerateModel,
    HurwitzConstrainedModel,
    RationalRing,
    check_axioms,
    constrained_series,
    evaluate_in_model,
)
from .poly import OpPolynomial
from .rewrite import (
    DEFAULT_STEP_LIMIT,
    RuleSchema,
    RuleValidationError,
    normal_form,
)
from .syntax import (
    ParseError,
    format_polynomial,
    format_scalar,
    is_letter_name,
    parse_polynomial,
    parse_word,
)
from .terms import EQUAL, GREATER, LESS, Operator, compare_explain

__all__ = ["load_ruleset", "main"]


def _specialized(f, weight):
    return OpPolynomial(
        (w, Scalar.from_rational(c.specialize(weight))) for w, c in f.terms_desc()
    )


# ---------------------------------------------------------------------------
# rule-set files
# ---------------------------------------------------------------------------

def load_ruleset(path):
    """Parse and validate a JSON rule-set file into a theory."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return ruleset_from_dict(data, name=str(path))


def _field(obj, key, kind):
    """``obj[key]``, refused unless ``obj`` is a JSON object holding a ``kind`` there."""
    if not isinstance(obj, dict):
        raise RuleValidationError(f"expected a JSON object holding {key!r}")
    if key not in obj:
        raise RuleValidationError(f"rule-set file is missing {key!r}")
    # a JSON true or false is a Python bool, which is an int too
    if not isinstance(obj[key], kind) or (kind is int and isinstance(obj[key], bool)):
        raise RuleValidationError(f"{key!r} must be of type {kind.__name__}")
    return obj[key]


def ruleset_from_dict(data, name="user"):
    operators = []
    for spec in _field(data, "operators", list):
        op = Operator(_field(spec, "name", str), _field(spec, "rank", int))
        if not is_letter_name(op.name, ()):
            raise RuleValidationError(
                f"operator name {op.name!r} must be an identifier other than L"
            )
        if any(o.name == op.name for o in operators):
            raise RuleValidationError("operator names must be distinct")
        if any(o.rank == op.rank for o in operators):
            raise RuleValidationError("operator ranks must be distinct")
        operators.append(op)
    operators.sort(key=lambda o: -o.rank)
    operators = tuple(operators)
    generators = [str(g) for g in _field(data, "generators", list)]
    _check_generators(generators, operators, RuleValidationError)
    rules = []
    for spec in _field(data, "rules", list):
        variables = tuple(_field(spec, "variables", list))
        if not all(isinstance(v, str) for v in variables):
            raise RuleValidationError("rule variables must be strings")
        clash = set(variables) & (set(generators) | {op.name for op in operators} | {"L"})
        if clash:
            raise RuleValidationError(f"rule variables shadow other names: {sorted(clash)}")
        poly = parse_polynomial(_field(spec, "polynomial", str), operators)
        rule = RuleSchema(_field(spec, "name", str), variables, poly)
        if any(r.name == rule.name for r in rules):
            raise RuleValidationError("rule names must be distinct")
        rule.check_order_compatible(generators or ("x", "y"), operators)
        rules.append(rule)
    return TheoryPreset(name, tuple(rules), operators)


def _check_generators(generators, operators, error):
    bad = [g for g in generators if not is_letter_name(g, operators)]
    if bad:
        raise error(f"generators must be letters of the grammar, not {bad}")


def _resolve_theory(token):
    if token in PRESETS:
        return PRESETS[token]
    return load_ruleset(token)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _step_json(step, before, after):
    return {
        "rule": step.rule.name,
        "context": str(step.context),
        "binding": {v: str(w) for v, w in sorted(step.binding.items())},
        "redex": str(step.redex),
        "coefficient": format_scalar(step.coefficient),
        "before": format_polynomial(before),
        "after": format_polynomial(after),
    }


def _steps_json(f, steps):
    """Step records, with the polynomial before and after each step rebuilt
    by replaying the steps from the input ``f``."""
    out = []
    before = f
    for s in steps:
        after = before - s.polynomial()
        out.append(_step_json(s, before, after))
        before = after
    return out


def _report_json(r):
    out = {
        "left": r.left,
        "right": r.right,
        "kind": r.kind,
        "ambiguity": str(r.ambiguity),
        "f_inst": format_polynomial(r.f_inst),
        "g_inst": format_polynomial(r.g_inst),
        "composition": format_polynomial(r.composition),
        "trivial": r.trivial,
        "normal_form": format_polynomial(r.normal_form) if r.normal_form is not None else None,
        "scenario": r.scenario,
    }
    if r.context is not None:
        out["context"] = str(r.context)
    if r.mu is not None:
        out["mu"] = str(r.mu)
        out["nu"] = str(r.nu)
    return out


def _verify_json(rep):
    return {
        "theory": rep.theory,
        "config": dataclasses.asdict(rep.config),
        "ambiguities": [_report_json(r) for r in rep.reports],
        "pass": rep.passed,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_nf(args):
    theory = _resolve_theory(args.theory)
    f = parse_polynomial(args.polynomial, theory.operators)
    # read before reducing: a bad weight is refused without the reduction
    weight = None if args.weight is None else exact_weight(args.weight)
    res = normal_form(
        f,
        theory.rules,
        strategy=args.strategy,
        seed=args.seed,
        step_limit=args.step_limit,
        collect_steps=args.trace or args.json,
    )
    nf = res.poly
    if weight is not None:
        nf = _specialized(nf, weight)
    if args.json:
        payload = {
            "input": format_polynomial(f),
            "normal_form": format_polynomial(nf),
            "steps": _steps_json(f, res.steps),
        }
        print(json.dumps(payload, indent=2))
    else:
        # everything is formatted before anything is printed, so a refused
        # coefficient leaves no partial output
        out = [format_polynomial(nf)]
        if args.trace:
            out.append(json.dumps(_steps_json(f, res.steps), indent=2))
        print("\n".join(out))
    return 0


def _cmd_cmp(args):
    u = parse_word(args.left)
    v = parse_word(args.right)
    verdict, tier = compare_explain(u, v)
    symbol = {LESS: "<", EQUAL: "=", GREATER: ">"}[verdict]
    print(f"{symbol} ({tier})")
    return 0


def _cmd_verify(args):
    theory = _resolve_theory(args.theory)
    cfg = VerifyConfig(args.depth, args.cofactors, args.with_unit)
    rep = verify_gs(theory, cfg)
    if args.json:
        print(json.dumps(_verify_json(rep), indent=2))
    else:
        n = len(rep.reports)
        bad = rep.nontrivial
        print(f"theory {rep.theory}: {n} compositions, {n - len(bad)} trivial")
        for r in bad:
            print(f"NON-TRIVIAL {r.left} ∧ {r.right} [{r.kind}]")
            print(f"  ambiguity:   {r.ambiguity}")
            print(f"  composition: {format_polynomial(r.composition)}")
            print(f"  normal form: {format_polynomial(r.normal_form)}")
        print("PASS" if rep.passed else "FAIL")
    return 0 if rep.passed else 1


def _cmd_irr(args):
    theory = _resolve_theory(args.theory)
    # a generator listed twice is one letter, reported once in input order
    generators = list(dict.fromkeys(g for g in args.generators.split(",") if g))
    _check_generators(generators, theory.operators, ValueError)
    words = enumerate_irr(theory, args.size, generators)
    if args.json:
        print(
            json.dumps(
                {
                    "theory": theory.name,
                    "size": args.size,
                    "generators": generators,
                    "words": [str(w) for w in words],
                    "count": len(words),
                },
                indent=2,
            )
        )
    else:
        for w in words:
            print(w)
        print(f"count: {len(words)}")
    return 0


def _cmd_compose(args):
    theory = _resolve_theory(args.theory)
    cfg = VerifyConfig(args.depth, args.cofactors, args.with_unit)
    reports = pair_reports(theory, args.left, args.right, cfg)
    if args.json:
        print(json.dumps([_report_json(r) for r in reports], indent=2))
    else:
        for r in reports:
            status = "trivial" if r.trivial else "NON-TRIVIAL"
            print(f"{r.kind:12} {str(r.ambiguity):40} {status}")
        print(f"{len(reports)} compositions")
    return 0 if all(r.trivial for r in reports) else 1


def _cmd_hurwitz_check(args):
    weight = exact_weight(args.weight)
    model = HurwitzConstrainedModel(RationalRing(), weight, window=args.trunc)
    report = check_axioms(model, samples=args.samples, seed=args.seed)
    notes = report.pop("notes")
    passed = all(report.values())
    if args.json:
        print(
            json.dumps(
                {
                    "model": "hurwitz",
                    "weight": str(weight),
                    "trunc": args.trunc,
                    "samples": args.samples,
                    "checks": report,
                    "notes": notes,
                    "pass": passed,
                },
                indent=2,
            )
        )
    else:
        for name, ok in report.items():
            print(f"{name:20} {'ok' if ok else 'FAIL'}")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _make_model(name, weight, trunc):
    # xi is the degenerate model: P(x) = xi*x and d(x) = x/xi for the
    # quasi-idempotent element xi = -w
    if name in ("degenerate", "xi"):
        return DegenerateModel(RationalRing(), weight)
    return HurwitzConstrainedModel(RationalRing(), weight, window=trunc)


def _cmd_model_eval(args):
    weight = exact_weight(args.weight)
    model = _make_model(args.model, weight, args.trunc)
    f = parse_polynomial(args.polynomial)
    assignment = {}
    for item in args.assign or ():
        name, _, value = item.partition("=")
        if not value:
            raise ParseError(f"bad assignment {item!r}", 0)
        if not is_letter_name(name):
            raise ValueError(f"only generators take values, not {name!r}")
        if name in assignment:
            raise ValueError(f"the generator {name!r} is assigned more than once")
        seed = exact_fraction(value)
        if args.model == "hurwitz":
            assignment[name] = constrained_series(
                model.ring, weight, seed, args.trunc
            )
        else:
            assignment[name] = seed
    value = evaluate_in_model(f, model, assignment)
    if args.model == "hurwitz":
        if not value.window:
            raise ValueError(
                f"no reliable entry is left of the --trunc {args.trunc} window "
                "(each d shifts one out); use a larger --trunc"
            )
        print(json.dumps([format_scalar(c) for c in value.coeffs]))
    else:
        print(format_scalar(value))
    return 0


def _build_argparser():
    parser = argparse.ArgumentParser(
        prog="opalg",
        description="Exact rewriting over commutative operated algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="reduce a polynomial to normal form")
    p.add_argument("polynomial")
    p.add_argument("--theory", default="drb")
    p.add_argument("--strategy", choices=("leading", "random"), default="leading")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-limit", type=int, default=DEFAULT_STEP_LIMIT)
    p.add_argument("--lambda", dest="weight", default=None, help="specialise the weight, e.g. 3/2")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_nf)

    p = sub.add_parser("cmp", help="compare two words in the term order")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_cmp)

    p = sub.add_parser("verify", help="critical-pair verification of a theory")
    p.add_argument("--theory", default="drb")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--cofactors", type=int, default=2)
    p.add_argument("--with-unit", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("irr", help="enumerate irreducible words up to a size")
    p.add_argument("--theory", default="drb")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--generators", default="x")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_irr)

    p = sub.add_parser("compose", help="compositions of one ordered rule pair")
    p.add_argument("--theory", default="drb")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--cofactors", type=int, default=1)
    p.add_argument("--with-unit", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("hurwitz-check", help="axiom suite on the Hurwitz model")
    p.add_argument("--lambda", dest="weight", default="1")
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_hurwitz_check)

    p = sub.add_parser("model-eval", help="evaluate a polynomial in a model")
    p.add_argument("polynomial")
    p.add_argument("--model", choices=("degenerate", "hurwitz", "xi"), default="degenerate")
    p.add_argument("--lambda", dest="weight", default="1")
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--assign", action="append", metavar="NAME=VALUE")
    p.set_defaults(fn=_cmd_model_eval)

    return parser


_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_negative_weights(argv):
    """Join ``--lambda -2/7`` into ``--lambda=-2/7``.

    argparse takes only plain negative numbers such as ``-2`` for option
    values; any other token starting with ``-`` reads as an option.
    """
    out = []
    prev = None
    for tok in argv:
        if prev == "--lambda" and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"--lambda={tok}"
        else:
            out.append(tok)
        prev = tok
    return out


def main(argv=None):
    parser = _build_argparser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_negative_weights(argv))
    try:
        return args.fn(args)
    except KeyError as exc:
        # str() of a KeyError is the repr of its key, quotes and all
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("limit: nesting too deep for the recursion limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
