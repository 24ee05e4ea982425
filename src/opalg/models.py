"""Exact operator models: Hurwitz series, scalar operators, axiom checks.

These models serve two purposes.  First, they machine-check the defining
identities (weighted Leibniz, Rota-Baxter, quasi-idempotency, Nijenhuis,
the section identity d∘P = id) on concrete carriers with exact arithmetic.
Second, evaluation of polynomials in a model is an independent soundness
oracle for the rewriting engine: a rewrite step never changes the value of
a polynomial in any model satisfying the rules.

A carrier is an element type with exact ``+``, ``-``, unary ``-``, ``*``
and rational ``k * a``, which models and checks use directly, plus a ring
giving ``zero``, ``one``, ``coerce`` and ``sample``.  Provided are the
rationals and constrained Hurwitz series over them.  The operators d and P
belong to the models, not to the carriers: ``DegenerateModel`` defines
d = -(1/w) id and P = -w id, and ``HurwitzConstrainedModel`` applies those
two to a series' one stored entry.

The Hurwitz model works with sequences f(0), f(1), ... over a base ring,
multiplied by the binomially weighted convolution

    (fg)(n) = sum_{k<=n} sum_{j<=n-k} C(n,k) C(n-k,j) w^k f(n-j) g(k+j)

for a fixed nonzero rational weight w.  The derivation d shifts left, which
costs one index of the reliable window; identities are only ever asserted
on indices where every intermediate is reliable.

Through sigma = id + w*d the weighted Leibniz rule d(fg) = d(f)g + f d(g) +
w d(f)d(g) says exactly that sigma is multiplicative, sigma(fg) =
sigma(f) sigma(g), and so is evaluation at 0; hence the sigma-transform

    (Tf)(m) = (sigma^m f)(0) = sum_{i<=m} C(m,i) w^i f(i)

takes the product to the entrywise product, T(fg) = Tf * Tg (Guo & Keigher,
"On differential Rota-Baxter algebras", JPAA 2008).  T is lower triangular
with diagonal w^m, so it is invertible for w != 0.

Only the constrained sequences, f(n) = -(1/w) f(n-1), form a model of the
quasi-idempotent axioms: d(d(f)) = -(1/w) d(f) says sigma(sigma(f)) =
sigma(f), which a general sequence breaks.  They are the sequences with
sigma(f) = 0, that is (f(0), 0, 0, ...) in sigma-coordinates, so they are
closed under the product, and a series holds just f(0) and its window.
Every operation is O(1) on that one entry: sums, scalings and products act
on it, on the smaller window, and from sigma = id + w*d

    (T df)(0) = (Tf(1) - Tf(0)) / w = -f(0) / w,   (T Pf)(0) = -w f(0),

on a window one shorter for d and one longer for P.  So f -> f(0) maps the
constrained algebra isomorphically onto the base ring, sending d to
-(1/w) id and P to -w id: the constrained model is the degenerate model on
f(0) plus a window, and is written as a subclass of it.  The sequence
itself, f(m) = f(0) (-1/w)^m, is computed only when read, by the model's
``coeffs``.  The constrained algebra does not contain the unit, so
evaluating polynomials that need the unit in this model is rejected.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coeff import InvalidWeight, PoleAtWeight  # re-exported for callers
from .coeff import BoundExceeded, _bits, _check_bits, exact_fraction, exact_weight
from .syntax import WORD_CAP

__all__ = [
    "RationalRing",
    "HurwitzSeries",
    "OperatorModel",
    "DegenerateModel",
    "HurwitzConstrainedModel",
    "LeftMultiplicationModel",
    "check_axioms",
    "evaluate_in_model",
    "NonunitalModel",
    "MissingAssignment",
]


class NonunitalModel(ValueError):
    """The model has no unit but the polynomial needs one."""


class MissingAssignment(KeyError):
    """A generator of the polynomial has no assigned value."""


# ---------------------------------------------------------------------------
# base rings
# ---------------------------------------------------------------------------

class RationalRing:
    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        return exact_fraction(x)

    def sample(self, rng):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


# ---------------------------------------------------------------------------
# Hurwitz series
# ---------------------------------------------------------------------------

class HurwitzSeries:
    """A constrained series on a finite reliable window: its one
    sigma-coordinate ``seed`` = f(0) (see the module docstring), past which
    every sigma-entry is zero.  The operators and the sequence itself come
    from ``HurwitzConstrainedModel``, which owns the weight."""

    __slots__ = ("seed", "window")

    def __init__(self, seed, window):
        self.seed = seed
        self.window = window

    def __add__(self, other):
        return HurwitzSeries(self.seed + other.seed, min(self.window, other.window))

    def __sub__(self, other):
        return HurwitzSeries(self.seed - other.seed, min(self.window, other.window))

    def __neg__(self):
        return HurwitzSeries(-self.seed, self.window)

    def scale(self, k):
        return HurwitzSeries(k * self.seed, self.window)

    def __rmul__(self, k):
        # through the attribute, so a wrapper on ``scale`` sees k * series too
        return self.scale(k)

    def __mul__(self, other):
        """The binomially weighted product, exact on the common window: the
        product of the sigma-coordinates."""
        return HurwitzSeries(self.seed * other.seed, min(self.window, other.window))

    def agrees(self, other):
        """Equality on the common reliable window, which must not be empty."""
        if min(self.window, other.window) < 1:
            raise ValueError("the series share no reliable entry to compare")
        return self.seed == other.seed

    def __repr__(self):
        return f"HurwitzSeries({self.seed!r}, window={self.window})"


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class OperatorModel:
    """Operators d and P on a carrier, for a nonzero weight.

    The carrier's elements bring their own exact arithmetic; the model gives
    what differs between carriers: ``element``, ``one``, ``zero``,
    ``sample``, ``equal``.  The base declares ``d`` and ``p`` as ``None``;
    subclasses give ``name`` and define the operators they have.
    """

    has_unit = True
    d = None
    p = None

    def __init__(self, ring, weight):
        self.ring = ring
        self.weight = exact_weight(weight)

    def element(self, x):
        """The carrier element of an exact rational ``x``."""
        return self.ring.coerce(x)

    def one(self):
        return self.ring.one()

    def zero(self):
        return self.ring.zero()

    def sample(self, rng):
        return self.element(self.ring.sample(rng))

    def equal(self, a, b):
        return a == b


class DegenerateModel(OperatorModel):
    """d(x) = -(1/w) x and P(x) = -w x on any commutative carrier ring."""

    name = "degenerate"

    def d(self, a):
        return (-1 / self.weight) * a

    def p(self, a):
        return -self.weight * a


class LeftMultiplicationModel(OperatorModel):
    """P(x) = a*x for a fixed element a; a Nijenhuis operator that is not
    quasi-idempotent unless a*a = -w*a.  No differential operator."""

    name = "left-multiplication"

    def __init__(self, ring, weight, a):
        super().__init__(ring, weight)
        self.a = a

    def p(self, x):
        return self.a * x


class HurwitzConstrainedModel(DegenerateModel):
    """The constrained sequences with the shift as d and the weighted
    right shift as P, under the full binomial product.  Nonunital.

    A constrained series is (f(0), 0, ..., 0) in sigma-coordinates, and
    f -> f(0) carries this model onto ``DegenerateModel`` over the base
    ring: d and P are that model's, applied to f(0), with the window one
    shorter for d and one longer for P.  So it adds no evidence beyond that
    model: independence checks (rank certificates for a linear basis) need
    other sigma-based models.
    """

    name = "hurwitz"
    has_unit = False

    def __init__(self, ring, weight, window=8):
        super().__init__(ring, weight)
        if window < 1:
            raise ValueError("the window must hold at least one entry")
        self.window = window

    def element(self, x):
        """The constrained series with f(0) = x on the model's window."""
        return HurwitzSeries(self.ring.coerce(x), self.window)

    def one(self):
        raise NonunitalModel("the constrained sequence algebra has no unit")

    def zero(self):
        return HurwitzSeries(self.ring.zero(), self.window)

    def d(self, a):
        return HurwitzSeries(super().d(a.seed), max(a.window - 1, 0))

    def p(self, a):
        if not a.window:  # Pf(0) needs f(0)
            return a
        return HurwitzSeries(super().p(a.seed), a.window + 1)

    def equal(self, a, b):
        return a.agrees(b)

    def coeffs(self, a):
        """The entries f(m) = f(0) (-1/w)^m of a's window.  Refused before
        any is computed past WORD_CAP entries, or where (-1/w)^m would be
        refused as a typed power of the weight (``Scalar.specialize``)."""
        if a.window > WORD_CAP:
            raise BoundExceeded(f"a window of {a.window} entries, more than {WORD_CAP}")
        r = -1 / self.weight
        _check_bits((a.window - 1) * _bits(r))
        return tuple(r**m * a.seed for m in range(a.window))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

def check_axioms(model, samples=50, seed=0):
    """Exactly evaluate the defining identities on random elements.

    Each identity is tried on fresh samples, drawn left to right, until
    ``samples`` trials pass or one fails.  Returns a dict check-name ->
    bool, plus a "notes" list.  Checks that need an operator the model
    lacks are skipped.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    w = model.weight
    d, p, eq = model.d, model.p, model.equal
    results = {}
    notes = []

    def run(name, arity, identity):
        results[name] = all(
            identity(*[model.sample(rng) for _ in range(arity)]) for _ in range(samples)
        )

    def p_tilde(a):
        return -w * a - p(a)

    if d is not None:
        run("leibniz", 2, lambda a, b: eq(d(a * b), d(a) * b + a * d(b) + w * (d(a) * d(b))))
        run("d_quasi_idem", 1, lambda a: eq(d(d(a)), (-1 / w) * d(a)))
    if p is not None:
        run("rota_baxter", 2,
            lambda a, b: eq(p(a) * p(b), p(a * p(b)) + p(p(a) * b) + w * p(a * b)))
        run("p_quasi_idem", 1, lambda a: eq(p(p(a)), -w * p(a)))
        run("nijenhuis", 2,
            lambda a, b: eq(p(a) * p(b), p(a * p(b)) + p(p(a) * b) - p(p(a * b))))
        run("p_tilde_quasi_idem", 1, lambda a: eq(p_tilde(p_tilde(a)), -w * p_tilde(a)))
    if d is not None and p is not None:
        run("d_after_p", 1, lambda a: eq(d(p(a)), a))
    if d is not None and model.has_unit:
        degenerate = not eq(d(model.one()), model.zero())
        results["d_unit_zero"] = not degenerate
        if degenerate:
            notes.append("d(1) != 0: degenerate differential operator")
    results["notes"] = notes
    return results


# ---------------------------------------------------------------------------
# evaluation of polynomials in a model
# ---------------------------------------------------------------------------

def _eval_word(word, model, assignment):
    if word.is_unit():
        if not model.has_unit:
            raise NonunitalModel("polynomial needs the unit, model has none")
        return model.one()
    acc = None
    for name in word.letters:
        if name not in assignment:
            raise MissingAssignment(f"no value assigned to the generator {name!r}")
        val = assignment[name]
        acc = val if acc is None else acc * val
    for f in word.ops:
        inner = _eval_word(f.arg, model, assignment)
        op = {"d": model.d, "p": model.p}.get(f.op.name)
        if op is None:
            raise KeyError(f"model does not interpret operator {f.op.name}")
        val = op(inner)
        acc = val if acc is None else acc * val
    return acc


def evaluate_in_model(f, model, assignment):
    """Structural evaluation: letters by assignment, operators by the model,
    coefficients specialised at the model's weight."""
    total = None
    for word, c in f.terms_desc():
        value = _eval_word(word, model, assignment)
        term = c.specialize(model.weight) * value
        total = term if total is None else total + term
    if total is None:
        return model.zero()
    return total
