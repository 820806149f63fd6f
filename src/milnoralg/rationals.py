"""Exact rational scalars.

All arithmetic in this package is exact. gmpy2 is optional (the ``fast``
extra: ``pip install milnoralg[fast]``); when it is installed its ``mpq``
is used, and otherwise the standard library's ``fractions.Fraction``.
Elimination itself runs on Python ints (see ``linalg``) and meets this
type only where its rows enter and leave. Both types are hashable,
reduce to lowest terms, and interoperate with Python ints, and nothing
downstream depends on which one is active.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q

    BACKEND = "gmpy2.mpq"
except ImportError:  # pragma: no cover
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
