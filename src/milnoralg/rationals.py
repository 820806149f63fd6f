"""Exact rational scalars.

All arithmetic in this package is exact, and its one rational type is
the standard library's ``fractions.Fraction``. Elimination itself runs
on Python ints (see ``linalg``) and meets this type only where its rows
enter and leave, so rationals are a small share of any computation.
"""

from __future__ import annotations

from fractions import Fraction as Q

BACKEND = "fractions.Fraction"

ZERO = Q(0)
ONE = Q(1)


def parse_rational(text: str) -> "Q":
    """Parse ``"p"`` or ``"p/q"`` into an exact rational.

    Raises ValueError for malformed input, including a zero denominator.
    """
    try:
        return Q(text.strip())
    except (ValueError, ZeroDivisionError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_rational(value) -> str:
    """Render as ``"p"`` or ``"p/q"`` in lowest terms with positive q."""
    return str(value)
