"""Exact operator models: Hurwitz series, scalar operators, axiom checks.

These models serve two purposes.  First, they machine-check the defining
identities (weighted Leibniz, Rota-Baxter, quasi-idempotency, Nijenhuis,
the section identity d∘P = id) on concrete carriers with exact arithmetic.
Second, evaluation of polynomials in a model is an independent soundness
oracle for the rewriting engine: a rewrite step never changes the value of
a polynomial in any model satisfying the rules.

Carriers are plugin commutative rings with exact arithmetic; provided are
the rationals and truncated univariate polynomials Q[t]/(t^K).

The Hurwitz model works with sequences f(0), f(1), ... over a base ring,
multiplied by the binomially weighted convolution

    (fg)(n) = sum_{k<=n} sum_{j<=n-k} C(n,k) C(n-k,j) w^k f(n-j) g(k+j)

for a fixed nonzero rational weight w.  The derivation shifts left, which
costs one index of the reliable window; identities are only ever asserted
on indices where every intermediate is reliable.  The constrained
subalgebra consists of the sequences with f(n) = -(1/w) f(n-1); it does not
contain the unit, so evaluating polynomials that need the unit in this
model is rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coeff import InvalidWeight, PoleAtWeight  # re-exported for callers
from .coeff import exact_fraction

__all__ = [
    "RationalRing",
    "TruncatedPolyRing",
    "TruncatedPoly",
    "HurwitzSeries",
    "constrained_series",
    "OperatorModel",
    "DegenerateModel",
    "XiModel",
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
    name = "rationals"

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

    def __add__(self, other):
        return TruncatedPoly(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return TruncatedPoly(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return TruncatedPoly(-a for a in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Fraction):
            return TruncatedPoly(a * other for a in self.coeffs)
        k = len(self.coeffs)
        out = [Fraction(0)] * k
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= k:
                    break
                out[i + j] += a * b
        return TruncatedPoly(out)

    def __rmul__(self, other):
        if isinstance(other, (Fraction, int)):
            return TruncatedPoly(a * other for a in self.coeffs)
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
        self.name = f"poly-mod-t^{length}"

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
    """A finite reliable window of a sequence over a base ring."""

    __slots__ = ("ring", "weight", "coeffs")

    def __init__(self, ring, weight, coeffs):
        self.ring = ring
        self.weight = exact_fraction(weight)
        if self.weight == 0:
            raise InvalidWeight("weight must be nonzero")
        self.coeffs = tuple(coeffs)

    @property
    def window(self):
        return len(self.coeffs)

    def _check(self, other):
        if self.weight != other.weight:
            raise WeightMismatch(f"weights {self.weight} and {other.weight}")

    def __add__(self, other):
        self._check(other)
        n = min(self.window, other.window)
        return HurwitzSeries(
            self.ring, self.weight,
            (a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])),
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HurwitzSeries(self.ring, self.weight, (-a for a in self.coeffs))

    def scale(self, k):
        return HurwitzSeries(self.ring, self.weight, (k * a for a in self.coeffs))

    def __mul__(self, other):
        """The binomially weighted product, exact on the common window."""
        self._check(other)
        n_max = min(self.window, other.window)
        w = self.weight
        out = []
        for n in range(n_max):
            acc = self.ring.zero()
            for k in range(n + 1):
                wk = w**k
                for j in range(n - k + 1):
                    c = math.comb(n, k) * math.comb(n - k, j) * wk
                    acc = acc + c * (self.coeffs[n - j] * other.coeffs[k + j])
            out.append(acc)
        return HurwitzSeries(self.ring, self.weight, out)

    def derive(self):
        """Left shift; the reliable window shrinks by one."""
        return HurwitzSeries(self.ring, self.weight, self.coeffs[1:])

    def integrate(self):
        """Right shift seeded with -w*f(0); window grows by one entry."""
        return HurwitzSeries(
            self.ring, self.weight,
            (-self.weight * self.coeffs[0],) + self.coeffs,
        )

    def agrees(self, other, window=None):
        """Equality on the common reliable window, which must not be empty."""
        self._check(other)
        n = min(self.window, other.window)
        if window is not None:
            n = min(n, window)
        if n < 1:
            raise ValueError("the series share no reliable entry to compare")
        return self.coeffs[:n] == other.coeffs[:n]

    def is_zero(self, window=None):
        n = self.window if window is None else min(window, self.window)
        z = self.ring.zero()
        return all(c == z for c in self.coeffs[:n])

    def __repr__(self):
        return f"HurwitzSeries(w={self.weight}, {list(self.coeffs)})"


def unit_series(ring, weight, window):
    return HurwitzSeries(
        ring, weight, (ring.one(),) + (ring.zero(),) * (window - 1)
    )


def constrained_series(ring, weight, seed, window):
    """The sequence determined by f(n) = -(1/w) f(n-1) from a seed value."""
    w = exact_fraction(weight)
    if w == 0:
        raise InvalidWeight("weight must be nonzero")
    seed = ring.coerce(seed) if isinstance(seed, (int, float, Fraction)) else seed
    coeffs = [seed]
    step = -1 / w
    for _ in range(window - 1):
        coeffs.append(step * coeffs[-1])
    return HurwitzSeries(ring, w, coeffs)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class OperatorModel:
    """Operators d and P on a commutative carrier ring, for a nonzero weight.

    The base owns the ring arithmetic and declares ``d`` and ``p`` as
    ``None``; subclasses give ``name`` and define the operators they have.
    """

    has_unit = True
    d = None
    p = None

    def __init__(self, ring, weight):
        self.ring = ring
        self.weight = exact_fraction(weight)
        if self.weight == 0:
            raise InvalidWeight("weight must be nonzero")

    def one(self):
        return self.ring.one()

    def mul(self, a, b):
        return a * b

    def add(self, a, b):
        return a + b

    def scale(self, k, a):
        return k * a

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


class XiModel(DegenerateModel):
    """Operators induced by the quasi-idempotent element xi = -w:
    P(x) = xi*x and d(x) = x/xi, which is the degenerate model."""

    name = "xi"


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
    right shift as P, under the full binomial product.  Nonunital."""

    name = "hurwitz"
    has_unit = False

    def __init__(self, ring, weight, window=8):
        super().__init__(ring, weight)
        self.window = window

    def one(self):
        raise NonunitalModel("the constrained sequence algebra has no unit")

    def scale(self, k, a):
        return a.scale(k)

    def zero(self):
        return HurwitzSeries(
            self.ring, self.weight, (self.ring.zero(),) * self.window
        )

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

def check_axioms(model, samples=50, seed=0, rng=None):
    """Exactly evaluate the defining identities on random elements.

    Returns a dict check-name -> bool, plus a "notes" list.  Checks that
    need an operator the model lacks are skipped.
    """
    import random as _random

    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = rng or _random.Random(seed)
    w = model.weight
    has_d = model.d is not None
    has_p = model.p is not None
    results = {}
    notes = []

    def run(name, fn):
        ok = True
        for _ in range(samples):
            if not fn():
                ok = False
                break
        results[name] = ok

    def x():
        return model.sample(rng)

    if has_d:
        run("leibniz", lambda: _leibniz_once(model, w, x(), x()))
        run("d_quasi_idem", lambda: _d_quasi_once(model, w, x()))
    if has_p:
        run("rota_baxter", lambda: _rb_once(model, w, x(), x()))
        run("p_quasi_idem", lambda: _p_quasi_once(model, w, x()))
        run("nijenhuis", lambda: _nijenhuis_once(model, x(), x()))
        run("p_tilde_quasi_idem", lambda: _p_tilde_once(model, w, x()))
    if has_d and has_p:
        run("d_after_p", lambda: model.equal(model.d(model.p(a := x())), a))
    if has_d and model.has_unit:
        d_one = model.d(model.one())
        degenerate = not model.equal(d_one, model.zero())
        results["d_unit_zero"] = not degenerate
        if degenerate:
            notes.append("d(1) != 0: degenerate differential operator")
    results["notes"] = notes
    return results


def _leibniz_once(model, w, a, b):
    lhs = model.d(model.mul(a, b))
    da, db = model.d(a), model.d(b)
    rhs = model.add(
        model.add(model.mul(da, b), model.mul(a, db)),
        model.scale(w, model.mul(da, db)),
    )
    return model.equal(lhs, rhs)


def _d_quasi_once(model, w, a):
    return model.equal(model.d(model.d(a)), model.scale(-1 / w, model.d(a)))


def _rb_once(model, w, a, b):
    pa, pb = model.p(a), model.p(b)
    lhs = model.mul(pa, pb)
    rhs = model.add(
        model.add(model.p(model.mul(a, pb)), model.p(model.mul(pa, b))),
        model.scale(w, model.p(model.mul(a, b))),
    )
    return model.equal(lhs, rhs)


def _p_quasi_once(model, w, a):
    return model.equal(model.p(model.p(a)), model.scale(-w, model.p(a)))


def _nijenhuis_once(model, a, b):
    pa, pb = model.p(a), model.p(b)
    lhs = model.mul(pa, pb)
    rhs = model.add(
        model.add(model.p(model.mul(a, pb)), model.p(model.mul(pa, b))),
        model.scale(-1, model.p(model.p(model.mul(a, b)))),
    )
    return model.equal(lhs, rhs)


def _p_tilde_once(model, w, a):
    def ptilde(x):
        return model.add(model.scale(-w, x), model.scale(-1, model.p(x)))

    return model.equal(ptilde(ptilde(a)), model.scale(-w, ptilde(a)))


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
            raise MissingAssignment(name)
        val = assignment[name]
        acc = val if acc is None else model.mul(acc, val)
    for f in word.ops:
        inner = _eval_word(f.arg, model, assignment)
        if f.op.name == "d":
            if model.d is None:
                raise NonunitalModel("model has no differential operator")
            val = model.d(inner)
        elif f.op.name == "p":
            if model.p is None:
                raise NonunitalModel("model has no Rota-Baxter operator")
            val = model.p(inner)
        else:
            raise KeyError(f"model does not interpret operator {f.op.name}")
        acc = val if acc is None else model.mul(acc, val)
    return acc


def evaluate_in_model(f, model, assignment, weight=None):
    """Structural evaluation: letters by assignment, operators by the model,
    coefficients specialised at the model's weight."""
    w = exact_fraction(weight) if weight is not None else model.weight
    if w == 0:
        raise InvalidWeight("weight must be nonzero")
    total = None
    for word, c in f.terms_desc():
        value = _eval_word(word, model, assignment)
        term = model.scale(c.specialize(w), value)
        total = term if total is None else model.add(total, term)
    if total is None:
        return model.zero()
    return total
