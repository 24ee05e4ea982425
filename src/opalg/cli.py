"""Command-line interface: term grammar, pretty-printer, and subcommands.

Grammar (see docs/grammar.ebnf): letters are identifiers, ``*`` multiplies,
``d(...)`` and ``p(...)`` apply operators, ``1`` is the unit word, ``L`` is
the formal weight, ``p/q`` divides scalars, ``^`` raises to an integer
power.  Example: ``(L^-1)*d(x*y) - 2*p(x)*p(y)``.

Subcommands: nf, cmp, verify, irr, compose, hurwitz-check, model-eval.
Exit codes: 0 success, 1 verification failure, 2 usage or syntax error,
3 an internal limit was hit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import coeff
from .coeff import InvalidWeight, PoleAtWeight, Scalar
from .gsbases import (
    BoundExceeded,
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
    MissingAssignment,
    NonunitalModel,
    RationalRing,
    XiModel,
    evaluate_in_model,
)
from .order import EQUAL, GREATER, LESS, compare_explain
from .poly import OpPolynomial
from .rewrite import (
    DEFAULT_STEP_LIMIT,
    RuleSchema,
    RuleValidationError,
    StepLimitExceeded,
    normal_form,
)
from .terms import OP_D, OP_P, Operator, Word

__all__ = ["parse_polynomial", "format_polynomial", "format_word", "load_ruleset", "main"]

DEFAULT_OPERATORS = (OP_D, OP_P)


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text, operators):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ops = {op.name: op for op in operators}

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        poly = self.sum()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return poly

    def sum(self):
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.take()[0] == "-"
        acc = self.product()
        if negate:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            term = self.product()
            acc = acc - term if op == "-" else acc + term
        return acc

    def product(self):
        acc = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.power()
            if op == "*":
                acc = acc * rhs
            else:
                c = _as_scalar(rhs)
                if c is None:
                    raise ParseError("division by a non-scalar", self.peek()[2])
                if c.is_zero():
                    raise ParseError("division by zero", self.peek()[2])
                acc = acc.scale(c.inverse())
        return acc

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        caret = self.take()
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take("INT")
        exp = sign * int(tok[1])
        c = _as_scalar(base)
        if c is not None:
            return OpPolynomial.from_word(Word.unit(), c**exp)
        if exp < 0:
            raise ParseError("negative power of a non-scalar", caret[2])
        acc = OpPolynomial.one()
        for _ in range(exp):
            acc = acc * base
        return acc

    def atom(self):
        tok = self.peek()
        kind, text, at = tok
        if kind == "INT":
            self.take()
            return OpPolynomial.from_word(Word.unit(), Scalar.from_rational(int(text)))
        if kind == "(":
            self.take()
            inner = self.sum()
            self.take(")")
            return inner
        if kind == "IDENT":
            self.take()
            if text == "L":
                return OpPolynomial.from_word(Word.unit(), Scalar.lam(1))
            if self.peek()[0] == "(":
                op = self.ops.get(text)
                if op is None:
                    raise ParseError(f"unknown operator {text!r}", at)
                self.take("(")
                inner = self.sum()
                self.take(")")
                return inner.apply_operator(op)
            if text in self.ops:
                raise ParseError(f"operator {text!r} used as a letter", at)
            return OpPolynomial.from_word(Word.letter(text))
        raise ParseError(f"unexpected {text!r}", at)


def _as_scalar(poly):
    """The scalar value of a polynomial supported on the unit word, else None."""
    if poly.is_zero():
        return coeff.ZERO
    terms = poly.terms_desc()
    if len(terms) == 1 and terms[0][0].is_unit():
        return terms[0][1]
    return None


def parse_polynomial(text, operators=DEFAULT_OPERATORS):
    return _Parser(text, operators).parse()


def parse_word(text, operators=DEFAULT_OPERATORS):
    poly = parse_polynomial(text, operators)
    terms = poly.terms_desc()
    if len(terms) != 1 or not terms[0][1].is_one():
        raise ParseError("expected a single word", 0)
    return terms[0][0]


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def format_word(word):
    return str(word)


def _single_term(p):
    nonzero = [(i, c) for i, c in enumerate(p) if c]
    if len(nonzero) == 1:
        return nonzero[0]
    return None


def _scalar_pieces(c):
    """(negative, magnitude text) for a nonzero scalar, parser-compatible."""
    num_single = _single_term(c.num)
    den_single = _single_term(c.den)
    if num_single is not None and den_single is not None:
        (i, a), (j, _) = num_single, den_single  # denominator is monic
        neg = a < 0
        a = abs(a)
        k = i - j
        parts = []
        if a != 1 or k == 0:
            parts.append(str(a))
        if k == 1:
            parts.append("L")
        elif k != 0:
            parts.append(f"L^{k}")
        return neg, "*".join(parts)
    neg = c.num[-1] < 0
    if neg:
        c = -c
    from .coeff import _poly_str

    num = _poly_str(c.num)
    if c.den == (Fraction(1),):
        return neg, f"({num})"
    return neg, f"(({num})/({_poly_str(c.den)}))"


def format_polynomial(f):
    if f.is_zero():
        return "0"
    pieces = []
    for word, c in f.terms_desc():
        neg, mag = _scalar_pieces(c)
        if word.is_unit():
            body = mag
        elif mag == "1":
            body = format_word(word)
        else:
            body = f"{mag}*{format_word(word)}"
        pieces.append((neg, body))
    neg, body = pieces[0]
    out = f"-{body}" if neg else body
    for neg, body in pieces[1:]:
        out += f" - {body}" if neg else f" + {body}"
    return out


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


def ruleset_from_dict(data, name="user"):
    for key in ("operators", "generators", "rules"):
        if key not in data:
            raise RuleValidationError(f"rule-set file is missing {key!r}")
    operators = []
    ranks = set()
    for spec in data["operators"]:
        op = Operator(spec["name"], int(spec["rank"]))
        if op.rank in ranks:
            raise RuleValidationError("operator ranks must be distinct")
        ranks.add(op.rank)
        operators.append(op)
    operators.sort(key=lambda o: -o.rank)
    operators = tuple(operators)
    generators = [str(g) for g in data["generators"]]
    rules = []
    for spec in data["rules"]:
        variables = tuple(spec["variables"])
        clash = set(variables) & (set(generators) | {op.name for op in operators} | {"L"})
        if clash:
            raise RuleValidationError(f"rule variables shadow other names: {sorted(clash)}")
        poly = parse_polynomial(spec["polynomial"], operators)
        rule = RuleSchema(spec["name"], variables, poly)
        rule.check_order_compatible(generators or ("x", "y"), operators)
        rules.append(rule)
    return TheoryPreset(name, tuple(rules), operators)


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
        "binding": {v: format_word(w) for v, w in sorted(step.binding.items())},
        "redex": format_word(step.redex),
        "coefficient": str(step.coefficient),
        "before": format_polynomial(before),
        "after": format_polynomial(after),
    }


def _steps_json(f, steps):
    """Step records, with the polynomial before and after each step rebuilt
    by replaying the steps from the input ``f``."""
    out = []
    before = f
    for s in steps:
        inst = s.rule.instantiate(s.binding).in_context(s.context)
        after = before - inst.scale(s.coefficient)
        out.append(_step_json(s, before, after))
        before = after
    return out


def _report_json(r):
    out = {
        "left": r.left,
        "right": r.right,
        "kind": r.kind,
        "ambiguity": format_word(r.ambiguity),
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
        out["mu"] = format_word(r.mu)
        out["nu"] = format_word(r.nu)
    return out


def _verify_json(rep):
    return {
        "theory": rep.theory,
        "config": rep.config.as_dict(),
        "ambiguities": [_report_json(r) for r in rep.reports],
        "pass": rep.passed,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_nf(args):
    theory = _resolve_theory(args.theory)
    f = parse_polynomial(args.polynomial, theory.operators)
    res = normal_form(
        f,
        theory.rules,
        strategy=args.strategy,
        seed=args.seed,
        step_limit=args.step_limit,
        collect_steps=args.trace or args.json,
    )
    nf = res.poly
    if args.weight is not None:
        nf = _specialized(nf, Fraction(args.weight))
    if args.json:
        payload = {
            "input": format_polynomial(f),
            "normal_form": format_polynomial(nf),
            "steps": _steps_json(f, res.steps),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(format_polynomial(nf))
        if args.trace:
            print(json.dumps(_steps_json(f, res.steps), indent=2))
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
            print(f"  ambiguity:   {format_word(r.ambiguity)}")
            print(f"  composition: {format_polynomial(r.composition)}")
            print(f"  normal form: {format_polynomial(r.normal_form)}")
        print("PASS" if rep.passed else "FAIL")
    return 0 if rep.passed else 1


def _cmd_irr(args):
    theory = _resolve_theory(args.theory)
    generators = [g for g in args.generators.split(",") if g]
    words = enumerate_irr(theory, args.size, generators)
    if args.json:
        print(
            json.dumps(
                {
                    "theory": theory.name,
                    "size": args.size,
                    "generators": generators,
                    "words": [format_word(w) for w in words],
                    "count": len(words),
                },
                indent=2,
            )
        )
    else:
        for w in words:
            print(format_word(w))
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
            print(f"{r.kind:12} {format_word(r.ambiguity):40} {status}")
        print(f"{len(reports)} compositions")
    return 0 if all(r.trivial for r in reports) else 1


def _cmd_hurwitz_check(args):
    from .models import check_axioms

    weight = Fraction(args.weight)
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
        for note in notes:
            print(f"note: {note}")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _make_model(name, weight, trunc):
    if name == "degenerate":
        return DegenerateModel(RationalRing(), weight)
    if name == "xi":
        return XiModel(RationalRing(), weight)
    if name == "hurwitz":
        return HurwitzConstrainedModel(RationalRing(), weight, window=trunc)
    raise ValueError(f"unknown model {name!r}")


def _cmd_model_eval(args):
    weight = Fraction(args.weight)
    model = _make_model(args.model, weight, args.trunc)
    f = parse_polynomial(args.polynomial)
    assignment = {}
    for item in args.assign or ():
        name, _, value = item.partition("=")
        if not value:
            raise ParseError(f"bad assignment {item!r}", 0)
        seed = Fraction(value)
        if args.model == "hurwitz":
            from .models import constrained_series

            assignment[name] = constrained_series(
                model.ring, weight, seed, args.trunc
            )
        else:
            assignment[name] = seed
    value = evaluate_in_model(f, model, assignment, weight)
    if args.model == "hurwitz":
        print(json.dumps([str(c) for c in value.coeffs]))
    else:
        print(value)
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
    except (ParseError, RuleValidationError, InvalidWeight, PoleAtWeight,
            NonunitalModel, MissingAssignment, ValueError, KeyError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StepLimitExceeded, BoundExceeded) as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("limit: nesting too deep for the recursion limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
