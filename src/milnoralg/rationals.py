"""Exact rational scalars.

All arithmetic in this package is exact, and its one rational type is
the standard library's ``fractions.Fraction``. Elimination itself runs
on Python ints (see ``linalg``) and meets this type only where its rows
enter and leave, so rationals are a small share of any computation.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q

# An unsigned literal as ``format_rational`` writes one: digits, then
# optionally "/" and a nonzero denominator. Polynomial text takes its
# coefficients from this one pattern.
UNSIGNED = re.compile(r"[0-9]+(?:/0*[1-9][0-9]*)?")
_LITERAL = re.compile("-?" + UNSIGNED.pattern)

BACKEND = "fractions.Fraction"

ZERO = Q(0)
ONE = Q(1)


def parse_rational(text: str) -> "Q":
    """Parse ``"p"`` or ``"p/q"`` into an exact rational.

    Accepts only what ``format_rational`` writes: an optional "-", digits,
    then optionally "/" and a nonzero denominator. Raises ValueError for
    anything else, such as "1e3", "1_000", "1.5", " 1" or "+2", which
    ``fractions.Fraction`` would read.
    """
    if not isinstance(text, str) or not _LITERAL.fullmatch(text):
        raise ValueError(f"bad rational literal {text!r}")
    return Q(text)


def format_rational(value) -> str:
    """Render as ``"p"`` or ``"p/q"`` in lowest terms with positive q."""
    return str(value)
