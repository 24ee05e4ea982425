"""The four benchmark workloads: seeded inputs, timed calls, reference checks.

Every workload calls opalg only through its public API, by module attribute
(``opalg.normal_form``), so the tracer's rebinding sees each call.  Each has

* ``inputs(seed)``: the generated inputs; the same seed gives the same inputs;
* ``run(inputs, calls)``: the timed phase; one ``calls.call`` per request;
* ``items(inputs, outputs)``: the number of items the timed phase produced;
* ``nf_items(inputs)``: the ``normal_form`` calls the benchmark makes itself;
* ``check(inputs, outputs, seed)``: (items failed, notes), against
  references that do not share the code path under test;
* ``digest(outputs)``: a fingerprint of the outputs, equal in every round.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import opalg
from opalg.gsbases import VerifyConfig, enumerate_words
from opalg.models import DegenerateModel, HurwitzConstrainedModel, RationalRing
from opalg.sampling import random_polynomial

from oracles import oracle_irreducible

# letters for generated inputs: no operator name and not the weight L
_LETTERS = "abcefghjkmnqrstvwxyz"


class Calls:
    """Times each request of the timed phase; an exception fails that item."""

    def __init__(self, span, clock):
        self.span = span
        self.clock = clock
        self.latencies = []
        self.errors = []

    def call(self, name, fn, *args, **kwargs):
        t0 = self.clock()
        try:
            with self.span(name):
                out = fn(*args, **kwargs)
        except Exception as exc:  # an engine error fails the item; the run goes on
            self.errors.append(f"{name}: {exc!r}")
            out = None
        self.latencies.append(self.clock() - t0)
        return out


def _digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _letters_of(word, out):
    out.update(word.letters)
    for f in word.ops:
        _letters_of(f.arg, out)
    return out


def _model_agrees(lhs, rhs, rng, weights=1):
    """Whether two polynomials take equal values in the degenerate model of
    the presets, at seeded weights and seeded values of their letters."""
    letters = set()
    for f in (lhs, rhs):
        for w in f.monomials():
            _letters_of(w, letters)
    for _ in range(weights):
        weight = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 7))
        model = DegenerateModel(RationalRing(), weight)
        assign = {x: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for x in sorted(letters)}
        if opalg.evaluate_in_model(lhs, model, assign) != opalg.evaluate_in_model(rhs, model, assign):
            return False
    return True


def _nf_text(text, theory, strategy, seed):
    """One user request: parse, reduce, print."""
    f = opalg.parse_polynomial(text)
    res = opalg.normal_form(f, theory.rules, strategy=strategy, seed=seed)
    return opalg.format_polynomial(res.poly)


class Verify:
    name = "verify"
    # (preset, config, expected verdict): rb is complete, d and drb are not
    PLAN = (
        ("rb", VerifyConfig(1, 1, True), True),
        ("d", VerifyConfig(1, 1, True), False),
        ("drb", VerifyConfig(1, 1, False), False),
    )

    def inputs(self, seed):
        # the rule sets are the fixed presets; the seed drives only the checks
        return [(opalg.preset(name), cfg, verdict) for name, cfg, verdict in self.PLAN]

    def run(self, inputs, calls):
        return [calls.call("verify_gs", opalg.verify_gs, theory, cfg) for theory, cfg, _ in inputs]

    def items(self, inputs, outputs):
        return sum(len(rep.reports) if rep else 1 for rep in outputs)

    def nf_items(self, inputs):
        return 0

    def check(self, inputs, outputs, seed):
        rng = random.Random(seed)
        failed = 0
        notes = []
        for (theory, _, verdict), rep in zip(inputs, outputs):
            if rep is None:
                continue
            if rep.passed != verdict:
                notes.append(f"{theory.name}: verdict {rep.passed}, expected {verdict}")
                failed += 1
            for r in rep.reports:
                ok = opalg.certificate_sum(r.steps) == r.composition - r.normal_form
                ok = ok and r.trivial == r.normal_form.is_zero()
                if not (ok and _model_agrees(r.composition, r.normal_form, rng, weights=2)):
                    failed += 1
        return failed, notes

    def digest(self, outputs):
        texts = []
        for rep in outputs:
            texts.append(f"{rep.theory} {rep.passed}" if rep else "error")
            for r in rep.reports if rep else ():
                texts.append(f"{r.kind} {r.ambiguity} {opalg.format_polynomial(r.normal_form)}")
        return _digest(texts)


class NfBatch:
    name = "nf-batch"
    PER_THEORY = 800
    # Size 6 keeps every request short (the slowest about 20 ms).  At the
    # acceptance suite's size 10 a batch's time was set by its few largest
    # normal forms, which are nf-large's job.
    MAX_SIZE = 6
    THEORIES = ("d", "rb", "drb")
    STRATEGIES = ("leading", "random")

    def inputs(self, seed):
        rng = random.Random(seed)
        out = []
        for name in self.THEORIES:
            theory = opalg.preset(name)
            for _ in range(self.PER_THEORY):
                f = random_polynomial(rng, self.MAX_SIZE, ("x", "y"), theory.operators)
                out.append((theory, opalg.format_polynomial(f)))
        return out

    def run(self, inputs, calls):
        return [
            calls.call("nf", _nf_text, text, theory, strategy, i)
            for i, (theory, text) in enumerate(inputs)
            for strategy in self.STRATEGIES
        ]

    def items(self, inputs, outputs):
        return len(outputs)

    def nf_items(self, inputs):
        return len(inputs) * len(self.STRATEGIES)

    def check(self, inputs, outputs, seed):
        rng = random.Random(seed)
        failed = 0
        pairs = iter(outputs)
        for theory, text in inputs:
            results = [next(pairs) for _ in self.STRATEGIES]
            f = opalg.parse_polynomial(text)
            same = theory.name != "rb" or len(set(results)) == 1
            for out in results:
                if out is None:
                    continue  # already counted as an error of the timed phase
                g = opalg.parse_polynomial(out)
                ok = same and all(oracle_irreducible(w, theory.name) for w in g.monomials())
                if not (ok and _model_agrees(f, g, rng)):
                    failed += 1
        return failed, []

    def digest(self, outputs):
        return _digest(o if o is not None else "error" for o in outputs)


class NfLarge:
    name = "nf-large"
    # Fubini(5) ordered set partitions, and the 2^9 - 1 nonempty subsets
    EXPECTED_TERMS = {"rb": 541, "d": 511}
    FACTORS = {"rb": ("p", 5), "d": ("d", 9)}

    def inputs(self, seed):
        rng = random.Random(seed)
        out = []
        for name, (op, n) in self.FACTORS.items():
            # distinct letters keep every block product distinct, so no terms merge
            letters = rng.sample(_LETTERS, n)
            args = ["*".join([x] * rng.randint(1, 2)) for x in letters]
            out.append((opalg.preset(name), "*".join(f"{op}({a})" for a in args)))
        return out

    def run(self, inputs, calls):
        return [calls.call("nf", _nf_text, text, theory, "leading", 0) for theory, text in inputs]

    def items(self, inputs, outputs):
        return len(outputs)

    def nf_items(self, inputs):
        return len(inputs)

    def check(self, inputs, outputs, seed):
        rng = random.Random(seed)
        failed = 0
        notes = []
        for (theory, text), out in zip(inputs, outputs):
            if out is None:
                continue
            g = opalg.parse_polynomial(out)
            want = self.EXPECTED_TERMS[theory.name]
            if len(g) != want:
                notes.append(f"{theory.name}: {len(g)} terms, expected {want}")
                failed += 1
            elif not _model_agrees(opalg.parse_polynomial(text), g, rng, weights=2):
                notes.append(f"{theory.name}: model values differ")
                failed += 1
        return failed, notes

    def digest(self, outputs):
        return _digest(o if o is not None else "error" for o in outputs)


class IrrModels:
    name = "irr-models"
    SIZE = 5
    WINDOW = 8
    SAMPLES = 20
    CORE = ("leibniz", "rota_baxter", "p_quasi_idem", "d_quasi_idem", "d_after_p", "nijenhuis")

    def inputs(self, seed):
        rng = random.Random(seed)
        generators = tuple(rng.sample(_LETTERS, 2))
        weights = []
        while len(weights) < 4:
            w = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            if w not in weights:
                weights.append(w)
        return opalg.preset("drb"), generators, weights, rng.randrange(1 << 30)

    def run(self, inputs, calls):
        theory, generators, weights, axiom_seed = inputs
        irr = calls.call("enumerate_irr", opalg.enumerate_irr, theory, self.SIZE, generators)
        reports = [
            calls.call("check_axioms", opalg.check_axioms,
                       HurwitzConstrainedModel(RationalRing(), w, window=self.WINDOW),
                       samples=self.SAMPLES, seed=axiom_seed + i)
            for i, w in enumerate(weights)
        ]
        return irr, reports

    def items(self, inputs, outputs):
        return word_count(self.SIZE, len(inputs[1]), len(inputs[0].operators))

    def nf_items(self, inputs):
        return 0

    def check(self, inputs, outputs, seed):
        theory, generators, _, _ = inputs
        irr, reports = outputs
        notes = []
        failed = 0
        if irr is not None:
            words = enumerate_words(self.SIZE, generators, theory.operators)
            want = [w for w in words if oracle_irreducible(w, theory.name)]
            if len(words) != self.items(inputs, outputs):
                notes.append(f"{len(words)} words enumerated, counted {self.items(inputs, outputs)}")
                failed += 1
            if irr != want:
                notes.append(f"{len(irr)} irreducible words, oracle scan finds {len(want)}")
                failed += len(set(irr) ^ set(want)) or 1
        for rep in reports:
            if rep is not None and not all(rep[c] for c in self.CORE):
                notes.append(f"axiom check failed: {rep}")
                failed += 1
        return failed, notes

    def digest(self, outputs):
        irr, reports = outputs
        texts = [str(w) for w in irr] if irr is not None else ["error"]
        texts.extend(str(sorted((k, v) for k, v in r.items() if k != "notes")) if r else "error"
                     for r in reports)
        return _digest(texts)


def word_count(size, letters, operators):
    """Words of size at most ``size``: multisets of prime factors, counted by
    the Euler transform; a prime of size n is a letter (n = 1) or one
    operator around a word of size n - 1."""
    words = [1]  # words of size exactly n
    primes = [0]
    for n in range(1, size + 1):
        primes.append(operators * words[n - 1] + (letters if n == 1 else 0))
        acc = 0
        for j in range(1, n + 1):
            c = sum(d * primes[d] for d in range(1, j + 1) if j % d == 0)
            acc += c * words[n - j]
        words.append(acc // n)
    return sum(words)


WORKLOADS = {w.name: w for w in (Verify(), NfBatch(), NfLarge(), IrrModels())}
