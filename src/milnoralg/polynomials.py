"""Homogeneous polynomials with exact rational coefficients.

A form is stored as a mapping from exponent tuple to nonzero rational
coefficient together with the pair (n, degree) that fixes its graded
piece; the zero form of each degree is the empty mapping. Forms used as
constant-coefficient differential operators and forms being differentiated
share this single representation, and which role a form plays is decided
by argument position (see ``polar_apply``), never by a runtime tag.

Values are immutable after construction and all operations are pure, so
polynomials are safe to share across threads and to use as cache keys.

Text grammar (used by the CLI and by test fixtures)::

    poly    := [sign] term (('+'|'-') term)*
    term    := coeff | coeff '*' factors | factors
    factors := var ('^' int)? ('*' var ('^' int)?)*
    var     := 'x' int
    coeff   := int | int '/' int

Whitespace is insignificant: ``"x0^3 + x1^3 + x2^3 - 3*x0*x1*x2"``. Each
``int`` is a run of ASCII digits, and a coefficient is the one unsigned
literal of ``rationals.UNSIGNED``, with a nonzero denominator.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping

from .monomials import dim_graded, grlex_key, mono_basis, mono_index
from .rationals import ONE, Q, UNSIGNED, ZERO, parse_rational


class HomogeneousPolynomial:
    """A degree-d form in the n+1 variables x0..xn, exact coefficients."""

    __slots__ = ("n", "degree", "terms", "_hash")

    def __init__(self, n: int, degree: int, terms: Mapping):
        if n < 0 or degree < 0:
            raise ValueError(f"need n >= 0 and degree >= 0, got n={n}, degree={degree}")
        clean = {}
        for alpha, coeff in terms.items():
            alpha = tuple(alpha)
            if len(alpha) != n + 1:
                raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {n + 1}")
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            if sum(alpha) != degree:
                raise ValueError(f"term {alpha} has degree {sum(alpha)}, polynomial has degree {degree}")
            coeff = Q(coeff)
            if coeff:
                clean[alpha] = coeff
        self.n = n
        self.degree = degree
        self.terms = clean
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, degree: int) -> "HomogeneousPolynomial":
        return cls(n, degree, {})

    @classmethod
    def monomial(cls, n: int, alpha: Iterable[int], coeff=1) -> "HomogeneousPolynomial":
        alpha = tuple(alpha)
        return cls(n, sum(alpha), {alpha: coeff})

    @classmethod
    def variable(cls, n: int, i: int) -> "HomogeneousPolynomial":
        if not 0 <= i <= n:
            raise IndexError(f"variable index {i} out of range for n={n}")
        alpha = tuple(1 if j == i else 0 for j in range(n + 1))
        return cls(n, 1, {alpha: 1})

    @classmethod
    def from_coords(cls, n: int, degree: int, coords) -> "HomogeneousPolynomial":
        basis = mono_basis(n, degree)
        if len(coords) != len(basis):
            raise ValueError(f"coordinate vector has length {len(coords)}, expected {len(basis)}")
        return cls(n, degree, {alpha: c for alpha, c in zip(basis, coords) if c})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coords(self) -> tuple:
        """Coefficient vector over mono_basis(self.n, self.degree)."""
        idx = mono_index(self.n, self.degree)
        vec = [ZERO] * dim_graded(self.n, self.degree)
        for alpha, c in self.terms.items():
            vec[idx[alpha]] = c
        return tuple(vec)

    def leading_monomial(self) -> tuple:
        """Largest exponent tuple in the global term order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def normalized(self) -> "HomogeneousPolynomial":
        """Scale so the leading coefficient is 1 (projective representative)."""
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        inv = ONE / self.leading_coefficient()
        return HomogeneousPolynomial(self.n, self.degree, {a: c * inv for a, c in self.terms.items()})

    # -- arithmetic -------------------------------------------------------

    def _check_same_piece(self, other: "HomogeneousPolynomial"):
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: n={self.n} vs n={other.n}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        self._check_same_piece(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, ZERO) + c
        return HomogeneousPolynomial(self.n, self.degree, out)

    def __sub__(self, other):
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        self._check_same_piece(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, ZERO) - c
        return HomogeneousPolynomial(self.n, self.degree, out)

    def __neg__(self):
        return HomogeneousPolynomial(self.n, self.degree, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HomogeneousPolynomial):
            return multiply(self, other)
        try:
            scalar = Q(other)
        except TypeError:
            return NotImplemented
        return HomogeneousPolynomial(self.n, self.degree, {a: c * scalar for a, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (ONE / Q(other))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are undefined for forms")
        out = HomogeneousPolynomial(self.n, 0, {(0,) * (self.n + 1): 1})
        for _ in range(e):
            out = multiply(out, self)
        return out

    # -- equality / hashing / display -------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        return (self.n, self.degree) == (other.n, other.degree) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            key = tuple(sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True))
            self._hash = hash((self.n, self.degree, key))
        return self._hash

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"HomogeneousPolynomial(n={self.n}, degree={self.degree}, {format_poly(self)!r})"


# -- ring operations -------------------------------------------------------


def multiply(f: HomogeneousPolynomial, g: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Exact product of two forms; degrees add."""
    if f.n != g.n:
        raise ValueError(f"variable count mismatch: n={f.n} vs n={g.n}")
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            key = tuple(x + y for x, y in zip(a, b))
            prev = out.get(key)
            out[key] = ca * cb if prev is None else prev + ca * cb
    return HomogeneousPolynomial(f.n, f.degree + g.degree, out)


def partial(f: HomogeneousPolynomial, i: int) -> HomogeneousPolynomial:
    """Exact partial derivative with respect to x_i; degree drops by one."""
    if not 0 <= i <= f.n:
        raise IndexError(f"variable index {i} out of range for n={f.n}")
    if f.degree < 1:
        raise ValueError("cannot differentiate a degree-0 form")
    out = {}
    for alpha, c in f.terms.items():
        e = alpha[i]
        if e:
            beta = alpha[:i] + (e - 1,) + alpha[i + 1:]
            out[beta] = c * e
    return HomogeneousPolynomial(f.n, f.degree - 1, out)


def polar_apply(f: HomogeneousPolynomial, q: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Apply f as a constant-coefficient differential operator to q.

    Each monomial x^alpha of f acts as the operator d^alpha, so the result
    has degree deg(q) - deg(f) and the action is bilinear. When the degrees
    are equal the result is the constant form whose value is the apolar
    inner product of f and q.
    """
    if f.n != q.n:
        raise ValueError(f"variable count mismatch: n={f.n} vs n={q.n}")
    if f.degree > q.degree:
        raise ValueError(f"operator degree {f.degree} exceeds operand degree {q.degree}")
    out = {}
    for alpha, ca in f.terms.items():
        for beta, cb in q.terms.items():
            if all(b >= a for a, b in zip(alpha, beta)):
                gamma = tuple(b - a for a, b in zip(alpha, beta))
                factor = math.prod(math.perm(b, a) for a, b in zip(alpha, beta))
                prev = out.get(gamma)
                contrib = ca * cb * factor
                out[gamma] = contrib if prev is None else prev + contrib
    return HomogeneousPolynomial(f.n, q.degree - f.degree, out)


def linear_change(f: HomogeneousPolynomial, matrix) -> HomogeneousPolynomial:
    """Substitute x_i -> sum_j matrix[i][j] * x_j into f.

    The matrix is (n+1) x (n+1) with rational entries; an invertible matrix
    realizes a linear change of coordinates, and degree is preserved either
    way (a degenerate substitution may return zero).
    """
    n = f.n
    if len(matrix) != n + 1 or any(len(row) != n + 1 for row in matrix):
        raise ValueError(f"substitution matrix must be {n + 1} x {n + 1}")
    images = [
        HomogeneousPolynomial(n, 1, {tuple(1 if j == jj else 0 for jj in range(n + 1)): matrix[i][j]
                                     for j in range(n + 1)})
        for i in range(n + 1)
    ]
    # cache of images[i] ** e, filled on demand
    powers: dict = {}

    def power(i, e):
        key = (i, e)
        if key not in powers:
            powers[key] = images[i] ** e
        return powers[key]

    acc = HomogeneousPolynomial.zero(n, f.degree)
    for alpha, c in f.terms.items():
        term = HomogeneousPolynomial(n, 0, {(0,) * (n + 1): c})
        for i, e in enumerate(alpha):
            if e:
                term = multiply(term, power(i, e))
        acc = acc + term
    return acc


def fermat(n: int, d: int) -> HomogeneousPolynomial:
    """The sum of d-th powers x0^d + ... + xn^d."""
    if d < 1:
        raise ValueError("need d >= 1")
    terms = {}
    for i in range(n + 1):
        alpha = tuple(d if j == i else 0 for j in range(n + 1))
        terms[alpha] = 1
    return HomogeneousPolynomial(n, d, terms)


# -- text format ------------------------------------------------------------

_FACTOR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")


def parse_poly(text: str, n: int | None = None, degree: int | None = None) -> HomogeneousPolynomial:
    """Parse the polynomial grammar into a form.

    ``n`` is inferred from the largest variable index when omitted;
    ``degree`` is only consulted for the zero polynomial, whose degree the
    text cannot determine.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected polynomial text, got {type(text).__name__}")
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty polynomial text")
    chunks = re.findall(r"([+-]?)([^+-]+)", compact)
    if "".join(s + b for s, b in chunks) != compact:
        raise ValueError(f"cannot parse polynomial {text!r}")

    parsed = []  # (sign, coeff, exponent dict, term degree)
    max_var = -1
    for sign_text, body in chunks:
        sign = -1 if sign_text == "-" else 1
        pieces = body.split("*")
        coeff = ONE
        if UNSIGNED.fullmatch(pieces[0]):
            coeff = parse_rational(pieces[0])
            pieces = pieces[1:]
        exps: dict = {}
        for piece in pieces:
            m = _FACTOR_RE.fullmatch(piece)
            if not m:
                raise ValueError(f"bad factor {piece!r} in {text!r}")
            var = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) else 1
            exps[var] = exps.get(var, 0) + exp
            max_var = max(max_var, var)
        parsed.append((sign, coeff, exps, sum(exps.values())))

    if n is None:
        n = max(max_var, 0)
    elif max_var > n:
        raise ValueError(f"variable x{max_var} exceeds n={n}")

    degrees = {deg for _, _, _, deg in parsed}
    if len(degrees) > 1:
        raise ValueError(f"polynomial is not homogeneous: term degrees {sorted(degrees)}")
    term_degree = degrees.pop()

    terms: dict = {}
    for sign, coeff, exps, _ in parsed:
        alpha = tuple(exps.get(i, 0) for i in range(n + 1))
        terms[alpha] = terms.get(alpha, ZERO) + sign * coeff
    poly = HomogeneousPolynomial(n, term_degree, terms)
    if poly.is_zero() and degree is not None:
        return HomogeneousPolynomial.zero(n, degree)
    return poly


def format_poly(f: HomogeneousPolynomial) -> str:
    """Canonical rendering: terms in descending graded-lex order."""
    if f.is_zero():
        return "0"
    parts = []
    for alpha in sorted(f.terms, key=grlex_key, reverse=True):
        c = f.terms[alpha]
        factors = []
        for i, e in enumerate(alpha):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        parts.append((c < 0, body))
    first_neg, first_body = parts[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out
