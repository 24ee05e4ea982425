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

A series is not stored as f but as its sigma-transform, through
sigma = id + w*d.  The weighted Leibniz rule d(fg) = d(f)g + f d(g) +
w d(f)d(g) says exactly that sigma is multiplicative, sigma(fg) =
sigma(f) sigma(g), and so is evaluation at 0; hence the sigma-transform

    (Tf)(m) = (sigma^m f)(0) = sum_{i<=m} C(m,i) w^i f(i)

takes the product to the entrywise product, T(fg) = Tf * Tg (Guo & Keigher,
"On differential Rota-Baxter algebras", JPAA 2008).  T is lower triangular
with diagonal w^m, so it is invertible for w != 0, entry m of Tf reads only
f(0), ..., f(m), so the reliable window is kept, and Tf = Tg on the first n
entries exactly when f = g there.  Sums and scalings are entrywise because
T is linear, a product is entrywise, and the shifts follow from
sigma = id + w*d:

    (T df)(m) = (Tf(m+1) - Tf(m)) / w
    (T Pf)(0) = -w Tf(0),   (T Pf)(m+1) = (T Pf)(m) + w Tf(m).

A series stores only the head of Tf, up to its last entry that may be
nonzero, next to the window length; the entries past the head are zero.
Every operation is O(stored head): zero entries stay zero under sums,
scalings and products, and d of a zero tail is zero.  P turns a zero tail
into the constant T(Pf)(len(head)), which is zero for every constrained
series; only P of a series whose constant is not zero fills out the whole
window.  The O(n^2) conversions (Pascal sums forward, Pascal differences
back) run only in the constructor, which takes f, and in ``coeffs``, which
returns it; the arithmetic is exact, so the values equal those of the
defining sum entry for entry.

The constrained subalgebra consists of the sequences with
f(n) = -(1/w) f(n-1), i.e. sigma(f) = 0: in sigma-coordinates they are
(f(0), 0, 0, ...), which is why they are closed under the product.  It does
not contain the unit, so evaluating polynomials that need the unit in this
model is rejected.  f -> f(0) maps it isomorphically onto the base ring,
sending d to -(1/w) id and P to -w id, so the constrained model is the
degenerate model in other coordinates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

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
    """A finite reliable window of a sequence over a base ring, stored as the
    ``head`` of its sigma-transform (see the module docstring): the entries
    up to the last one that may be nonzero.  Every entry from ``len(head)``
    up to ``window`` is zero.  ``sigma`` gives the whole transform and
    ``coeffs`` the sequence itself."""

    __slots__ = ("ring", "weight", "head", "window")

    def __init__(self, ring, weight, coeffs):
        self.ring = ring
        self.weight = exact_weight(weight)
        self.head = _to_sigma(coeffs, self.weight)
        self.window = len(self.head)

    @classmethod
    def _of(cls, ring, weight, head, window):
        """A series from the head of its sigma-transform, for an exact nonzero
        weight and ``len(head) <= window``."""
        out = object.__new__(cls)
        out.ring = ring
        out.weight = weight
        out.head = tuple(head)
        out.window = window
        return out

    @property
    def sigma(self):
        """The sigma-transform on the whole window, the zero tail included."""
        return self.head + (self.ring.zero(),) * (self.window - len(self.head))

    @property
    def coeffs(self):
        """The entries f(0), ..., f(n-1) of the window, converted on each read."""
        return _from_sigma(self.sigma, self.weight)

    def _check(self, other):
        if self.weight != other.weight:
            raise WeightMismatch(f"weights {self.weight} and {other.weight}")

    def __add__(self, other):
        self._check(other)
        a, b = self.head, other.head
        if len(a) < len(b):
            a, b = b, a
        n = min(self.window, other.window)
        # len(b) <= n: the shorter head lies within both windows
        head = tuple(x + y for x, y in zip(a, b)) + a[len(b):n]
        return self._of(self.ring, self.weight, head, n)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self.ring, self.weight, (-a for a in self.head), self.window)

    def scale(self, k):
        return self._of(self.ring, self.weight, (k * a for a in self.head), self.window)

    def __rmul__(self, k):
        # through the attribute, so a wrapper on ``scale`` sees k * series too
        return self.scale(k)

    def __mul__(self, other):
        """The binomially weighted product, exact on the common window: the
        entrywise product of the sigma-transforms.  A rational ``k`` on the
        right scales, as ``k * a`` does."""
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        self._check(other)
        return self._of(
            self.ring, self.weight, (a * b for a, b in zip(self.head, other.head)),
            min(self.window, other.window),
        )

    def derive(self):
        """Left shift, (T f')(m) = (Tf(m+1) - Tf(m))/w; the reliable window
        shrinks by one.  Past the head Tf is zero, so the last head entry
        gives -Tf(m)/w unless the head fills the window."""
        h, inv, n = self.head, 1 / self.weight, self.window - 1
        head = [inv * (b - a) for a, b in zip(h, h[1:])]
        if h and len(h) <= n:
            head.append(inv * -h[-1])
        return self._of(self.ring, self.weight, head, max(n, 0))

    def integrate(self):
        """Right shift seeded with -w*f(0): T(Pf)(0) = -w Tf(0) and
        T(Pf)(m+1) = T(Pf)(m) + w Tf(m).  The window grows by one entry, unless
        it is empty: Pf(0) needs f(0).  Past the head every entry is the
        constant S = T(Pf)(len(head)), which is dropped when zero (as for
        every constrained series) and otherwise fills the window."""
        w, h, n = self.weight, self.head, self.window
        if not n:
            return self
        if not h:
            return self._of(self.ring, w, (), n + 1)
        head = list(accumulate((w * a for a in h), initial=-w * h[0]))
        s = head.pop()
        if s != self.ring.zero():
            head.extend([s] * (n + 1 - len(h)))
        return self._of(self.ring, w, head, n + 1)

    def agrees(self, other):
        """Equality on the common reliable window, which must not be empty."""
        self._check(other)
        n = min(self.window, other.window)
        if n < 1:
            raise ValueError("the series share no reliable entry to compare")
        a, b = self.head[:n], other.head[:n]
        if len(a) < len(b):
            a, b = b, a
        z = self.ring.zero()
        return a[:len(b)] == b and all(c == z for c in a[len(b):])

    def is_zero(self):
        z = self.ring.zero()
        return all(c == z for c in self.head)

    def __repr__(self):
        return f"HurwitzSeries(w={self.weight}, {list(self.coeffs)})"


def _to_sigma(coeffs, w):
    """(Tf)(m) = sum_i C(m,i) w^i f(i): scale f(i) by w^i, then Pascal sums
    (row k+1 is row k plus row k shifted left; entry m is row m's head)."""
    row = [w**i * c for i, c in enumerate(coeffs)]
    out = []
    while row:
        out.append(row[0])
        row = [a + b for a, b in zip(row, row[1:])]
    return tuple(out)


def _from_sigma(values, w):
    """The inverse of ``_to_sigma``: Pascal differences, then scale entry i
    by w^-i."""
    row, out = list(values), []
    while row:
        out.append(w ** -len(out) * row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(out)


def unit_series(ring, weight, window):
    return HurwitzSeries(
        ring, weight, (ring.one(),) + (ring.zero(),) * (window - 1)
    )


def constrained_series(ring, weight, seed, window):
    """The sequence determined by f(n) = -(1/w) f(n-1) from a seed value,
    which is (seed, 0, ..., 0) in sigma-coordinates."""
    w = exact_weight(weight)
    if window < 1:
        raise ValueError("the window must hold at least one entry")
    seed = ring.coerce(seed) if isinstance(seed, (int, float, Fraction)) else seed
    return HurwitzSeries._of(ring, w, (seed,), window)


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
    (rank certificates for a linear basis) need unconstrained series or
    other sigma-based models.
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
        return HurwitzSeries._of(self.ring, self.weight, (), self.window)

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
