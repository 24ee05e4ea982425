"""Commutative words over generator letters and unary operator applications.

A :class:`Word` is a finite multiset of prime factors.  A prime factor is
either a generator letter or one operator applied to a word, so words nest:
``d(p(x)*y)*x`` has two top-level factors, one of them an application of
``d`` to the two-factor word ``p(x)*y``.

Canonical form
    The factor multiset is stored as two sorted tuples: operator factors in
    descending term order, then letters in descending name order.  Equal
    multisets therefore have identical storage, and structural equality is
    semantic equality.  The letter order is lexicographic on names, fixed.

    Words and operator applications are hash-consed: constructing one sorts
    its factors, then looks them up in a module table and returns the stored
    object if there is one, so there is one object per distinct word and
    the key, degrees and hash are built once.  Equality tests identity
    first and falls back to comparing keys.  Hashes are structural (the
    hash of the key, never a memory address), so set and dict orders do not
    depend on the table.  The table is bounded: it is cleared when it grows
    past ``_TABLE_LIMIT`` entries.  Equal words built on either side of a
    clear (or by two threads missing at once) are distinct objects that
    still compare equal, so a clear changes no result.

Every word carries a precomputed ``key`` realising the term order used by
the whole engine (see :mod:`opalg.order`): operator degree first, then the
number of top-level operator factors, then the tuple of operator ranks, the
tuple of argument keys, and finally the top-level letter block compared by
degree then descending letter sequence.  Python tuple comparison on ``key``
is exactly the order comparison.

A :class:`Context` is a word with exactly one hole; substitution replaces
the hole by a word and merges its factors into the surrounding level.  All
values here are immutable and safe to share.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = [
    "Operator",
    "OpApp",
    "Word",
    "Context",
    "OP_D",
    "OP_P",
    "substitute_letters",
]


#: The hash-consing table: (letters, ops) -> Word and (rank, name, arg) ->
#: OpApp; the two kinds of lookup key differ in length, so never collide.
#: An entry costs about 600 bytes, so the bound keeps it under about 250 MB.
_TABLE = {}
_TABLE_LIMIT = 400_000

_factor_key = attrgetter("key")


def _intern(ident, value):
    if len(_TABLE) >= _TABLE_LIMIT:
        _TABLE.clear()
        _TABLE[_UNIT_IDENT] = _UNIT
    _TABLE[ident] = value


class Operator:
    """A unary operator symbol with a rank giving its precedence in the order."""

    __slots__ = ("name", "rank")

    def __init__(self, name, rank):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *_):
        raise AttributeError("Operator is immutable")

    def __reduce__(self):
        return Operator, (self.name, self.rank)

    def __eq__(self, other):
        return (
            isinstance(other, Operator)
            and self.name == other.name
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.name, self.rank))

    def __repr__(self):
        return f"Operator({self.name!r}, {self.rank})"


#: The standard pair of operators; ``d`` ranks above ``p``.
OP_D = Operator("d", 1)
OP_P = Operator("p", 0)


class OpApp:
    """A prime factor: one operator applied to a word."""

    __slots__ = ("op", "arg", "key", "_hash")

    def __new__(cls, op, arg):
        ident = (op.rank, op.name, arg)
        app = _TABLE.get(ident)
        if app is not None:
            return app
        app = object.__new__(cls)
        key = (op.rank, op.name, arg.key)
        object.__setattr__(app, "op", op)
        object.__setattr__(app, "arg", arg)
        object.__setattr__(app, "key", key)
        object.__setattr__(app, "_hash", hash(key))
        _intern(ident, app)
        return app

    def __setattr__(self, *_):
        raise AttributeError("OpApp is immutable")

    def __reduce__(self):
        return OpApp, (self.op, self.arg)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, OpApp)
            and self._hash == other._hash
            and self.key == other.key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OpApp({self.op.name}, {self.arg!r})"


class Word:
    """A commutative word: multiset of letters and operator applications."""

    __slots__ = ("letters", "ops", "op_degree", "letter_degree", "key", "_hash")

    def __new__(cls, letters=(), ops=()):
        letters = tuple(sorted(letters, reverse=True))
        ops = tuple(sorted(ops, key=_factor_key, reverse=True))
        ident = (letters, ops)
        word = _TABLE.get(ident)
        if word is not None:
            return word
        word = object.__new__(cls)
        op_degree = sum(1 + f.arg.op_degree for f in ops)
        letter_degree = len(letters) + sum(f.arg.letter_degree for f in ops)
        key = (
            op_degree,
            len(ops),
            tuple((f.op.rank, f.op.name) for f in ops),
            tuple(f.arg.key for f in ops),
            (len(letters), letters),
        )
        object.__setattr__(word, "letters", letters)
        object.__setattr__(word, "ops", ops)
        object.__setattr__(word, "op_degree", op_degree)
        object.__setattr__(word, "letter_degree", letter_degree)
        object.__setattr__(word, "key", key)
        object.__setattr__(word, "_hash", hash(key))
        _intern(ident, word)
        return word

    def __init__(self, letters=(), ops=()):
        """A no-op, since ``__new__`` returns a complete, shared word.

        Defined so that ``Word.__init__`` can still be wrapped to count
        ``Word(...)`` calls, as the benchmark's tracer does.
        """

    def __setattr__(self, *_):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word, (self.letters, self.ops)

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls):
        return _UNIT

    @classmethod
    def letter(cls, name):
        return cls((name,), ())

    def apply(self, op):
        """The breadth-1 word with single factor op(self)."""
        return Word((), (OpApp(op, self),))

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self is _UNIT:
            return other
        if other is _UNIT:
            return self
        return Word(self.letters + other.letters, self.ops + other.ops)

    # -- statistics ----------------------------------------------------------

    @property
    def breadth(self):
        return len(self.letters) + len(self.ops)

    @property
    def op_breadth(self):
        """Number of top-level operator factors."""
        return len(self.ops)

    @property
    def depth(self):
        return max((1 + f.arg.depth for f in self.ops), default=0)

    @property
    def size(self):
        """Total letter occurrences plus total operator applications."""
        return self.letter_degree + self.op_degree

    def is_unit(self):
        return not self.letters and not self.ops

    # -- multiset operations --------------------------------------------------

    def subtract(self, other):
        """Multiset difference of factors, or None if not contained."""
        letters = _tuple_subtract(self.letters, other.letters)
        if letters is None:
            return None
        ops = _tuple_subtract(self.ops, other.ops)
        if ops is None:
            return None
        return Word(letters, ops)

    # -- comparisons / hashing -------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Word)
            and self._hash == other._hash
            and self.key == other.key
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __gt__(self, other):
        return self.key > other.key

    def __ge__(self, other):
        return self.key >= other.key

    def __repr__(self):
        return f"Word({self})"

    def __str__(self):
        if self.is_unit():
            return "1"
        parts = [f"{f.op.name}({f.arg})" for f in self.ops]
        parts.extend(self.letters)
        return "*".join(parts)


_UNIT = Word()
_UNIT_IDENT = ((), ())


def _tuple_subtract(a, b):
    """Multiset difference of two equally-sorted tuples, or None."""
    if not b:
        return a
    out = []
    ia, ib = 0, 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        if a[ia] == b[ib]:
            ia += 1
            ib += 1
        else:
            out.append(a[ia])
            ia += 1
    if ib < lb:
        return None
    out.extend(a[ia:])
    if len(out) != la - lb:
        return None
    return tuple(out)


class Context:
    """A word with exactly one hole, stored as its spine.

    ``cofactors`` holds the sibling word at each nesting level from the top
    down to the hole; ``ops`` holds the operator wrapped around each deeper
    level, so ``len(cofactors) == len(ops) + 1``.  The hole itself is the
    innermost position.
    """

    __slots__ = ("cofactors", "ops", "key", "_hash")

    def __init__(self, cofactors, ops):
        cofactors = tuple(cofactors)
        ops = tuple(ops)
        if len(cofactors) != len(ops) + 1:
            raise ValueError("a context needs one more cofactor than operators")
        key = (
            tuple((o.rank, o.name) for o in ops),
            tuple(c.key for c in cofactors),
        )
        object.__setattr__(self, "cofactors", cofactors)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, *_):
        raise AttributeError("Context is immutable")

    def __reduce__(self):
        return Context, (self.cofactors, self.ops)

    @classmethod
    def star(cls):
        return cls((_UNIT,), ())

    def is_star(self):
        return not self.ops and self.cofactors[0].is_unit()

    @property
    def depth(self):
        return len(self.ops)

    def substitute(self, word):
        """Replace the hole by ``word``, merging factors level by level."""
        w = self.cofactors[-1] * word
        for i in range(len(self.ops) - 1, -1, -1):
            w = self.cofactors[i] * w.apply(self.ops[i])
        return w

    def compose(self, inner):
        """The context whose hole is this context's hole refined by ``inner``."""
        cof = (
            self.cofactors[:-1]
            + (self.cofactors[-1] * inner.cofactors[0],)
            + inner.cofactors[1:]
        )
        return Context(cof, self.ops + inner.ops)

    def __eq__(self, other):
        return isinstance(other, Context) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Context({self})"

    def __str__(self):
        out = "⋆"  # the hole
        for i in range(len(self.ops) - 1, -1, -1):
            cof = self.cofactors[i + 1]
            inner = out if cof.is_unit() else f"{out}*{cof}"
            out = f"{self.ops[i].name}({inner})"
        top = self.cofactors[0]
        return out if top.is_unit() else f"{out}*{top}"


def positions(word):
    """Yield (spine, subword) for every level of ``word``.

    The spine is a list of (sibling word, operator) pairs leading from the
    top level to the level ``subword`` sits at.  Equal factors are descended
    only once, so the enumeration is duplicate-free.
    """
    yield [], word
    seen = None
    for f in word.ops:
        if f == seen:
            continue
        seen = f
        sibling = word.subtract(Word((), (f,)))
        for spine, sub in positions(f.arg):
            yield [(sibling, f.op)] + spine, sub


def substitute_letters(word, mapping):
    """Replace letters by words throughout, merging into each level.

    Letters absent from ``mapping`` are kept.  Used to instantiate rule
    schemas, whose variables are letters in a reserved namespace.
    """
    out = _UNIT
    untouched = []
    for name in word.letters:
        repl = mapping.get(name)
        if repl is None:
            untouched.append(name)
        else:
            out = out * repl
    new_ops = []
    for f in word.ops:
        new_ops.append(OpApp(f.op, substitute_letters(f.arg, mapping)))
    return out * Word(tuple(untouched), tuple(new_ops))
