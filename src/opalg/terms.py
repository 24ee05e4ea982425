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

    Words and operator applications are hash-consed: constructing one looks
    its factors up in a module table as given and returns the stored object
    if there is one, so there is one object per distinct word and the key,
    degrees and hash are built once.  Only on a miss is a factor tuple of
    more than one entry sorted, and the word looked up again if the sort
    moved anything; the table's keys are sorted, so an unsorted pair never
    finds a wrong entry.  The builders of products and rewrite steps pass
    sorted factors: a product merges its two sorted runs, a factor added
    beside a cofactor goes in at its place, and a rule instance built beside
    a cofactor is sorted before the lookup, so each such hit costs one
    lookup.  A miss then builds the degrees, the key and the hash in one
    pass over the operator factors.  A rewrite builds each word it needs
    straight into its context, with no intermediate word: a rule instance's
    top-level factors go in beside the hole's cofactor
    (``_substitute_beside``), and each level above is the level's cofactor
    and one new operator factor (``_beside``), never the singleton word
    op(w) times the cofactor.
    Equality tests identity first and falls back to comparing keys.  Hashes
    are structural, never a memory address, so set and dict orders do not
    depend on the table; each is built from the children's cached hashes
    (a word's from its letters and its factors' hashes, an application's
    from its operator and its argument's hash), so it costs one pass over
    the top level, not over the whole nested key.  A word also holds the
    rewriting engine's memo of its matches (``Word._memo``).  The table is
    bounded, and its bound is the memos' too: when it grows past
    ``_TABLE_LIMIT`` entries, every word it holds drops its memo and the
    table is cleared.  Equal words built on either side of a clear (or by
    two threads missing at once) are distinct objects that still compare
    equal, so a clear changes no result.

The term order used by the whole engine compares words by (1) total
operator degree, (2) number of top-level operator factors, (3) the tuple of
top-level operator ranks, (4) the tuple of operator arguments compared
recursively, (5) the top-level letter block under degree then descending
letter sequence.  The order is total, and compatible with products and with
wrapping in contexts (checked by the property suite, which the engine's
termination and critical-pair machinery rely on).  Every word carries a
precomputed ``key`` with one entry per tier, so Python tuple comparison on
``key`` is exactly the order comparison; :func:`compare` and
:func:`compare_explain` are its public surface.

A :class:`Context` is a word with exactly one hole; substitution replaces
the hole by a word and merges its factors into the surrounding level.
Matches compare contexts by key, so a context's hash is built on its first
``hash()``, not with the context.  All values here are immutable and safe
to share.
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
    "LESS",
    "EQUAL",
    "GREATER",
    "compare",
    "compare_explain",
]


#: The hash-consing table: (letters, ops) -> Word and (rank, name, arg) ->
#: OpApp; the two kinds of lookup key differ in length, so never collide.
#: An entry costs about 600 bytes.  A word's memo of matches holds at most
#: one stream per rule, about 150 bytes besides the matches in it (every
#: rule that does not match shares one empty stream), so the one bound keeps
#: the table under about 250 MB and the memos under about 60 MB per rule.
_TABLE = {}
_TABLE_LIMIT = 400_000

_factor_key = attrgetter("key")


def _intern(ident, value):
    if len(_TABLE) >= _TABLE_LIMIT:
        # drop every memo first, so nothing the table held keeps its
        # matches, or the words they hold, alive past the clear
        for held in _TABLE.values():
            if type(held) is Word:
                object.__setattr__(held, "_memo", None)
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
        object.__setattr__(app, "op", op)
        object.__setattr__(app, "arg", arg)
        object.__setattr__(app, "key", (op.rank, op.name, arg.key))
        object.__setattr__(app, "_hash", hash((op.rank, op.name, arg._hash)))
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
    """A commutative word: multiset of letters and operator applications.

    ``_memo`` is the rewriting engine's memo of this word's matches, rule ->
    sorted stream (see ``opalg.rewrite``): None until the first match, and
    dropped when the table is cleared.  It is a cache, not part of the
    value, so copies, pickles and comparisons ignore it.
    """

    __slots__ = ("letters", "ops", "op_degree", "letter_degree", "key", "_hash", "_memo")

    def __new__(cls, letters=(), ops=()):
        ident = (tuple(letters), tuple(ops))
        word = _TABLE.get(ident)
        if word is not None:
            return word
        letters, ops = ident
        if len(letters) > 1:
            letters = tuple(sorted(letters, reverse=True))
        if len(ops) > 1:
            ops = tuple(sorted(ops, key=_factor_key, reverse=True))
        if letters != ident[0] or ops != ident[1]:
            ident = (letters, ops)
            word = _TABLE.get(ident)
            if word is not None:
                return word
        op_degree = 0
        letter_degree = len(letters)
        tiers = []
        args = []
        hashes = [letters]
        for f in ops:
            op, arg = f.op, f.arg
            op_degree += 1 + arg.op_degree
            letter_degree += arg.letter_degree
            tiers.append((op.rank, op.name))
            args.append(arg.key)
            hashes.append(f._hash)
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        object.__setattr__(word, "ops", ops)
        object.__setattr__(word, "op_degree", op_degree)
        object.__setattr__(word, "letter_degree", letter_degree)
        object.__setattr__(
            word,
            "key",
            (op_degree, len(ops), tuple(tiers), tuple(args), (len(letters), letters)),
        )
        object.__setattr__(word, "_hash", hash(tuple(hashes)))
        object.__setattr__(word, "_memo", None)
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
        # two sorted runs of each kind: merged only if they overlap, so a
        # hit is one lookup
        a, b = self.letters, other.letters
        letters = sorted(a + b, reverse=True) if a and b and a[-1] < b[0] else a + b
        a, b = self.ops, other.ops
        if a and b and a[-1].key < b[0].key:
            return Word(letters, sorted(a + b, key=_factor_key, reverse=True))
        return Word(letters, a + b)

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
        self._set(
            cofactors,
            ops,
            (tuple((o.rank, o.name) for o in ops), tuple(c.key for c in cofactors)),
        )

    def _set(self, cofactors, ops, key):
        object.__setattr__(self, "cofactors", cofactors)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", None)

    def wrap(self, sibling, op):
        """This context one level down: op(self) beside the word sibling.

        The key is this context's key grown by one level, not rebuilt.
        """
        ctx = object.__new__(Context)
        ctx._set(
            (sibling,) + self.cofactors,
            (op,) + self.ops,
            (((op.rank, op.name),) + self.key[0], (sibling.key,) + self.key[1]),
        )
        return ctx

    def __setattr__(self, *_):
        raise AttributeError("Context is immutable")

    def __reduce__(self):
        return Context, (self.cofactors, self.ops)

    @classmethod
    def star(cls):
        return cls.top(_UNIT)

    @classmethod
    def top(cls, cofactor):
        """The context with its hole at the top level beside cofactor."""
        ctx = object.__new__(cls)
        ctx._set((cofactor,), (), ((), (cofactor.key,)))
        return ctx

    def is_star(self):
        return not self.ops and self.cofactors[0].is_unit()

    @property
    def depth(self):
        return len(self.ops)

    def substitute(self, word):
        """Replace the hole by ``word``, merging factors level by level."""
        return self._fill(self.cofactors[-1] * word)

    def _fill(self, w):
        """The word with w at the hole's level, w already holding the
        hole's cofactor: each level up is built as one word."""
        cofactors, ops = self.cofactors, self.ops
        for i in range(len(ops) - 1, -1, -1):
            w = _beside(cofactors[i], ops[i], w)
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
        h = self._hash
        if h is None:
            h = hash((self.key[0],) + tuple(c._hash for c in self.cofactors))
            object.__setattr__(self, "_hash", h)
        return h

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


LESS = -1
EQUAL = 0
GREATER = 1

#: The names of the entries of ``Word.key``, one per tier of the order.
_TIERS = ("degree", "op-breadth", "lex(operator)", "lex(argument)", "lex(letters)")


def compare(u, v):
    """Return -1, 0 or 1 as u is below, equal to, or above v."""
    a, b = u.key, v.key
    if a < b:
        return LESS
    if a > b:
        return GREATER
    return EQUAL


def compare_explain(u, v):
    """Compare and name the tier that decided, for diagnostics."""
    for tier, (a, b) in zip(_TIERS, zip(u.key, v.key)):
        if a < b:
            return LESS, tier
        if a > b:
            return GREATER, tier
    return EQUAL, "equal"


def substitute_letters(word, mapping):
    """Replace letters by words throughout, merging into each level.

    Letters absent from ``mapping`` are kept, and a word with no mapped
    letter under it is returned as it is.  Used to instantiate rule
    schemas, whose variables are letters in a reserved namespace.
    """
    letters = []
    ops = []
    if not _substitute_into(word, mapping, letters, ops):
        return word
    return Word(letters, ops)


def _substitute_beside(word, mapping, cofactor):
    """``cofactor * substitute_letters(word, mapping)``, built as one word:
    the substituted top-level factors go straight in beside the cofactor's,
    sorted before the lookup, so a hit is one lookup."""
    letters = list(cofactor.letters)
    ops = list(cofactor.ops)
    _substitute_into(word, mapping, letters, ops)
    letters.sort(reverse=True)
    ops.sort(key=_factor_key, reverse=True)
    return Word(letters, ops)


def _substitute_into(word, mapping, letters, ops):
    """Append the top-level factors of word, letters substituted, to the
    lists letters and ops; whether any letter under word was mapped."""
    changed = False
    for name in word.letters:
        repl = mapping.get(name)
        if repl is None:
            letters.append(name)
        else:
            changed = True
            letters.extend(repl.letters)
            ops.extend(repl.ops)
    for f in word.ops:
        arg = substitute_letters(f.arg, mapping)
        if arg is not f.arg:
            changed = True
            f = OpApp(f.op, arg)
        ops.append(f)
    return changed


def _beside(cofactor, op, word):
    """The word ``cofactor * op(word)``, built without the word op(word):
    the new factor goes in at its sorted place, so a hit is one lookup."""
    f = OpApp(op, word)
    ops = cofactor.ops
    if not ops or ops[-1].key >= f.key:
        return Word(cofactor.letters, ops + (f,))
    i = len(ops) - 1
    while i and ops[i - 1].key < f.key:
        i -= 1
    return Word(cofactor.letters, ops[:i] + (f,) + ops[i:])
