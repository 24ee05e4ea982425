"""Per-layer tracing of opalg, installed from outside the library.

The tracer wraps public functions and methods of the modules ``coeff``,
``terms``, ``poly``, ``rewrite``, ``gsbases``, ``models`` and ``cli``.  A
wrapped module function is replaced in every loaded ``opalg`` module that
binds it (``opalg.gsbases.normal_form`` as well as
``opalg.rewrite.normal_form``), so calls between modules are seen too.

Three kinds of wrapper:

* span: timed, and kept in memory as (id, name, start, end, parent, run);
  used for coarse calls and written out when the round ends;
* timed: timed and folded into per-name totals, not kept one by one;
* counter: counted only, for the very frequent calls (``Word.__init__``,
  ``Scalar`` arithmetic, ``terms_desc`` when its cache answers).

Span and timed wrappers share one call stack.  A name's self time is its
total time minus the time of the wrapped calls made inside it, so the work
of counter-only callees (words, scalars) stays in its caller's self time.
Tracing records only while ``Tracer.on`` is set: the reference checks that
follow the timed phase are not traced.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

from opalg import cli, coeff, gsbases, models, poly, rewrite, terms

_POLY_METHODS = (
    "__init__", "__add__", "__sub__", "__neg__", "__mul__", "scale",
    "apply_operator", "make_monic", "substitute_letters", "in_context",
)
_SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "inverse", "__truediv__")
_MODEL_OPS = ("d", "p", "mul", "add", "scale")


class Tracer:
    """Spans, timed totals and counters of one traced round."""

    def __init__(self, run_id, clock):
        self.on = False
        self.clock = clock
        self.run_id = run_id
        self.spans = []
        self.totals = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {}
        self.distinct = {}  # name -> set of distinct keys
        self.peak_terms = 0
        # one frame per open timed call: [child seconds, span id, parent id, start]
        self._stack = []
        self._last_id = 0

    # -- the shared stack --------------------------------------------------------

    def _enter(self, keep):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        span_id = parent
        if keep:
            self._last_id += 1
            span_id = self._last_id
        frame = [0.0, span_id, parent, self.clock()]
        stack.append(frame)
        return frame

    def _exit(self, name, frame, keep):
        t1 = self.clock()
        stack = self._stack
        stack.pop()
        dur = t1 - frame[3]
        stat = self.totals.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[0]
        if stack:
            stack[-1][0] += dur
        if keep:
            self.spans.append((frame[1], name, frame[3], t1, frame[2], self.run_id))

    @contextmanager
    def span(self, name):
        """A kept span around one of the benchmark's own calls into opalg."""
        if not self.on:
            yield
            return
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(name, frame, True)

    # -- wrappers ------------------------------------------------------------------

    def timed(self, name, fn, keep=False, after=None):
        """Time every call of fn under name; ``after(args, result)`` may count."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._enter(keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, keep)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn, after=None):
        """Count calls of fn without timing them."""
        tracer = self
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.on:
                counts[name] += 1
                if after is not None:
                    after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _adder(self, name, size):
        counts = self.counts
        counts[name] = 0

        def after(args, out):
            counts[name] += size(args, out)

        return after

    def _seen(self, name, key):
        seen = self.distinct.setdefault(name, set())
        return lambda args, out: seen.add(key(args))

    # -- installation -----------------------------------------------------------------

    def install(self):
        """Wrap the library in place; call once, before the timed phase."""
        for name in ("verify_gs", "pair_reports", "enumerate_words", "enumerate_irr"):
            _rebind(gsbases, name, self.timed(name, getattr(gsbases, name), keep=True))
        enumerated = self._adder("enumerated", lambda args, out: len(out))
        for name in ("intersection_compositions", "including_compositions"):
            _rebind(gsbases, name, self.timed(
                "enumerate_compositions", getattr(gsbases, name), keep=True, after=enumerated))
        nontrivial = self._adder("nontrivial", lambda args, out: not out[0])
        _rebind(gsbases, "check_triviality", self.timed(
            "check_triviality", gsbases.check_triviality, keep=True, after=nontrivial))

        _rebind(rewrite, "normal_form", self.timed("normal_form", rewrite.normal_form, keep=True))
        _rebind(rewrite, "reduce_once", self.timed("reduce_once", rewrite.reduce_once))
        returned = self._adder("matches_returned", lambda args, out: len(out))
        match_keys = self._seen("match_keys", lambda args: (args[1], args[0]))
        _rebind(rewrite, "match_rule", self.timed(
            "match_rule", rewrite.match_rule,
            after=lambda args, out: (returned(args, out), match_keys(args, out))))
        _rebind(rewrite, "is_irreducible", self.counter("irreducible_checks", rewrite.is_irreducible))

        for name in ("parse_polynomial", "format_polynomial"):
            _rebind(cli, name, self.timed(name, getattr(cli, name), keep=True))

        _rebind(models, "check_axioms", self.timed("check_axioms", models.check_axioms, keep=True))
        for cls in vars(models).values():
            if isinstance(cls, type) and cls.__module__ == models.__name__:
                for name in _MODEL_OPS:
                    fn = vars(cls).get(name)
                    if callable(fn):
                        setattr(cls, name, self.timed("model_ops", fn))
        hurwitz = models.HurwitzSeries
        hurwitz.__mul__ = self.timed("hurwitz_mul", hurwitz.__mul__)

        scalar = coeff.Scalar
        operands = self.distinct.setdefault("scalar_ops", set())
        for op in _SCALAR_OPS:
            if op in vars(scalar):
                setattr(scalar, op, self.counter(
                    "scalar_ops", vars(scalar)[op],
                    after=lambda args, out, op=op: operands.add((op,) + args)))

        word = terms.Word
        word.__init__ = self.counter(
            "words_built", word.__init__, after=self._seen("words", lambda args: args[0]))

        pol = poly.OpPolynomial
        for name in _POLY_METHODS:
            if name in vars(pol):
                setattr(pol, name, self.timed("poly", vars(pol)[name]))
        self._install_terms_desc(pol)

    def _install_terms_desc(self, pol):
        terms_desc = pol.terms_desc
        timed_sort = self.timed("poly", terms_desc)
        counts = self.counts
        counts["sorts"] = counts["terms_sorted"] = 0
        tracer = self

        def traced_terms_desc(p):
            # an empty (or absent) cache slot means this call sorts
            if tracer.on and getattr(p, "_desc", None) is None:
                n = len(p)
                counts["sorts"] += 1
                counts["terms_sorted"] += n
                tracer.peak_terms = max(tracer.peak_terms, n)
                return timed_sort(p)
            return terms_desc(p)

        pol.terms_desc = traced_terms_desc

    # -- results --------------------------------------------------------------------------

    def _stat(self, name, index):
        stat = self.totals.get(name)
        return stat[index] if stat else 0

    def layer_metrics(self):
        """This round's per-layer values, named as in BENCHMARK.json."""
        c, d, stat = self.counts, self.distinct, self._stat
        nf_calls = stat("normal_form", 0)
        steps = stat("reduce_once", 0) - nf_calls
        match_calls = stat("match_rule", 0)
        compositions = stat("check_triviality", 0)
        return {
            "coeff.scalar_ops": c["scalar_ops"],
            "coeff.distinct_operand_ratio": _ratio(len(d["scalar_ops"]), c["scalar_ops"]),
            "terms.words_built": c["words_built"],
            "terms.distinct_word_ratio": _ratio(len(d["words"]), c["words_built"]),
            "poly.sorts": c["sorts"],
            "poly.terms_sorted": c["terms_sorted"],
            "poly.peak_terms": self.peak_terms,
            "poly.self_s": stat("poly", 2),
            "rewrite.match_calls": match_calls,
            "rewrite.match_distinct_ratio": _ratio(len(d["match_keys"]), match_calls),
            "rewrite.match_s": stat("match_rule", 1),
            "rewrite.matches_returned": c["matches_returned"],
            "rewrite.match_use_ratio": _ratio(steps, c["matches_returned"]),
            "rewrite.steps": steps,
            "rewrite.reduce_once_self_s": stat("reduce_once", 2),
            "rewrite.nf_calls": nf_calls,
            "rewrite.irreducible_checks": c["irreducible_checks"],
            "gsbases.compositions": compositions,
            "gsbases.nontrivial": c["nontrivial"],
            "gsbases.enumerate_s": stat("enumerate_compositions", 1),
            "gsbases.kept_ratio": _ratio(compositions, c["enumerated"]),
            "gsbases.triviality_s": stat("check_triviality", 1),
            "gsbases.pair_reports_self_s": stat("pair_reports", 2),
            "gsbases.enumerate_words_s": stat("enumerate_words", 1),
            "models.evals": stat("model_ops", 0),
            "models.eval_s": stat("model_ops", 1),
            "models.hurwitz_muls": stat("hurwitz_mul", 0),
            "models.hurwitz_mul_s": stat("hurwitz_mul", 1),
            "models.axiom_s": stat("check_axioms", 1),
            "cli.parse_s": stat("parse_polynomial", 1),
            "cli.format_s": stat("format_polynomial", 1),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, t0, t1, parent, run in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "run": run}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _rebind(module, name, wrapper):
    """Replace ``module.name`` in every loaded opalg module that binds it."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "opalg" or mod_name.startswith("opalg.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
