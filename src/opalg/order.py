"""The term order on words: degree, breadth, then recursive lexicographic.

Words compare by (1) total operator degree, (2) number of top-level operator
factors, (3) the tuple of top-level operator ranks, (4) the tuple of operator
arguments compared recursively, (5) the top-level letter block under degree
then descending letter sequence.  The order is total, and compatible with
products and with wrapping in contexts (checked by the property suite, which
the engine's termination and critical-pair machinery rely on).

Each :class:`~opalg.terms.Word` carries a precomputed ``key`` whose native
tuple comparison realises this order; the helpers here are the public
comparison surface.
"""

from __future__ import annotations

__all__ = ["LESS", "EQUAL", "GREATER", "compare", "compare_explain"]

LESS = -1
EQUAL = 0
GREATER = 1


def compare(u, v):
    """Return -1, 0 or 1 as u is below, equal to, or above v."""
    a, b = u.key, v.key
    if a < b:
        return LESS
    if a > b:
        return GREATER
    return EQUAL


_TIERS = ("degree", "op-breadth", "lex(operator)", "lex(argument)", "lex(letters)")


def compare_explain(u, v):
    """Compare and name the tier that decided, for diagnostics."""
    for tier, (a, b) in zip(_TIERS, zip(u.key, v.key)):
        if a < b:
            return LESS, tier
        if a > b:
            return GREATER, tier
    return EQUAL, "equal"
