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
rationals, truncated polynomials Q[t]/(t^K) and Hurwitz series over either.

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

on a window one shorter for d and one longer for P.  The sequence itself,
f(m) = f(0) (-1/w)^m, is computed only when read.  The constrained algebra
does not contain the unit, so evaluating polynomials that need the unit in
this model is rejected.  f -> f(0) maps it isomorphically onto the base
ring, sending d to -(1/w) id and P to -w id, so the constrained model is
the degenerate model in other coordinates.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coeff import InvalidWeight, PoleAtWeight  # re-exported for callers
from .coeff import exact_fraction, exact_weight

__all__ = [
    "RationalRing",
    "TruncatedPolyRing",
    "TruncatedPoly",
    "HurwitzSeries",
    "constrained_series",
    "OperatorModel",
    "DegenerateModel",
    "HurwitzConstrainedModel",
    "LeftMultiplicationModel",
    "check_axioms",
    "evaluate_in_model",
    "WeightMismatch",
    "NonunitalModel",
    "MissingAssignment",
]


class WeightMismatch(ValueError):
    """Operands carry different weights."""


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


class TruncatedPoly:
    """An element of Q[t]/(t^K): coefficient tuple of fixed length K."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(exact_fraction(c) for c in coeffs)

    @classmethod
    def _of(cls, coeffs):
        """A polynomial from exact coefficients, which arithmetic on exact
        coefficients keeps exact, so they are not checked again."""
        out = object.__new__(cls)
        out.coeffs = tuple(coeffs)
        return out

    def __add__(self, other):
        return self._of(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self._of(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return self._of(-a for a in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return self._of(a * other for a in self.coeffs)
        k = len(self.coeffs)
        out = [Fraction(0)] * k
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= k:
                    break
                out[i + j] += a * b
        return self._of(out)

    def __rmul__(self, other):
        if isinstance(other, (Fraction, int)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, TruncatedPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedPoly({list(self.coeffs)})"


class TruncatedPolyRing:
    def __init__(self, length=4):
        self.length = length

    def zero(self):
        return TruncatedPoly((Fraction(0),) * self.length)

    def one(self):
        return TruncatedPoly((Fraction(1),) + (Fraction(0),) * (self.length - 1))

    def coerce(self, x):
        return self.one() * exact_fraction(x)

    def sample(self, rng):
        return TruncatedPoly(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(self.length)
        )


# ---------------------------------------------------------------------------
# Hurwitz series
# ---------------------------------------------------------------------------

class HurwitzSeries:
    """A constrained series on a finite reliable window: its one
    sigma-coordinate ``seed`` = f(0) (see the module docstring), past which
    every sigma-entry is zero.  ``coeffs`` gives the sequence itself."""

    __slots__ = ("ring", "weight", "seed", "window")

    def __init__(self, ring, weight, seed, window):
        # unchecked: constrained_series and the model's zero build series
        self.ring = ring
        self.weight = weight
        self.seed = seed
        self.window = window

    @property
    def coeffs(self):
        """The entries f(m) = f(0) (-1/w)^m of the window."""
        r = -1 / self.weight
        return tuple(r**m * self.seed for m in range(self.window))

    def _check(self, other):
        if self.weight != other.weight:
            raise WeightMismatch(f"weights {self.weight} and {other.weight}")

    def _new(self, seed, window):
        return HurwitzSeries(self.ring, self.weight, seed, window)

    def __add__(self, other):
        self._check(other)
        return self._new(self.seed + other.seed, min(self.window, other.window))

    def __sub__(self, other):
        self._check(other)
        return self._new(self.seed - other.seed, min(self.window, other.window))

    def __neg__(self):
        return self._new(-self.seed, self.window)

    def scale(self, k):
        return self._new(k * self.seed, self.window)

    def __rmul__(self, k):
        # through the attribute, so a wrapper on ``scale`` sees k * series too
        return self.scale(k)

    def __mul__(self, other):
        """The binomially weighted product, exact on the common window: the
        product of the sigma-coordinates.  A rational ``k`` on the right
        scales, as ``k * a`` does."""
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        self._check(other)
        return self._new(self.seed * other.seed, min(self.window, other.window))

    def derive(self):
        """Left shift, -f(0)/w; the reliable window shrinks by one."""
        return self._new((-1 / self.weight) * self.seed, max(self.window - 1, 0))

    def integrate(self):
        """Right shift seeded with -w*f(0); the window grows by one entry,
        unless it is empty: Pf(0) needs f(0)."""
        if not self.window:
            return self
        return self._new(-self.weight * self.seed, self.window + 1)

    def agrees(self, other):
        """Equality on the common reliable window, which must not be empty."""
        self._check(other)
        if min(self.window, other.window) < 1:
            raise ValueError("the series share no reliable entry to compare")
        return self.seed == other.seed

    def is_zero(self):
        return not self.window or self.seed == self.ring.zero()

    def __repr__(self):
        return f"HurwitzSeries(w={self.weight}, {list(self.coeffs)})"


def constrained_series(ring, weight, seed, window):
    """The sequence determined by f(n) = -(1/w) f(n-1) from a seed value,
    which is (seed, 0, ..., 0) in sigma-coordinates."""
    w = exact_weight(weight)
    if window < 1:
        raise ValueError("the window must hold at least one entry")
    seed = ring.coerce(seed) if isinstance(seed, (int, float, Fraction)) else seed
    return HurwitzSeries(ring, w, seed, window)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class OperatorModel:
    """Operators d and P on a carrier, for a nonzero weight.

    The carrier's elements bring their own exact arithmetic; the model gives
    what differs between carriers: ``one``, ``zero``, ``sample``, ``equal``.
    The base declares ``d`` and ``p`` as ``None``; subclasses give ``name``
    and define the operators they have.
    """

    has_unit = True
    d = None
    p = None

    def __init__(self, ring, weight):
        self.ring = ring
        self.weight = exact_weight(weight)

    def one(self):
        return self.ring.one()

    def zero(self):
        return self.ring.zero()

    def sample(self, rng):
        return self.ring.sample(rng)

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


class HurwitzConstrainedModel(OperatorModel):
    """The constrained sequences with the shift as d and the weighted
    right shift as P, under the full binomial product.  Nonunital.

    A constrained series is (f(0), 0, ..., 0) in sigma-coordinates, and
    f -> f(0) carries this model onto ``DegenerateModel`` over the base
    ring, so it adds no evidence beyond that model: independence checks
    (rank certificates for a linear basis) need other sigma-based models.
    """

    name = "hurwitz"
    has_unit = False

    def __init__(self, ring, weight, window=8):
        super().__init__(ring, weight)
        if window < 1:
            raise ValueError("the window must hold at least one entry")
        self.window = window

    def one(self):
        raise NonunitalModel("the constrained sequence algebra has no unit")

    def zero(self):
        return HurwitzSeries(self.ring, self.weight, self.ring.zero(), self.window)

    def d(self, a):
        return a.derive()

    def p(self, a):
        return a.integrate()

    def sample(self, rng):
        return constrained_series(
            self.ring, self.weight, self.ring.sample(rng), self.window
        )

    def equal(self, a, b):
        return a.agrees(b)


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
