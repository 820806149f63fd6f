"""Graded pieces of ideals generated in one degree, and Jacobian ideals.

A generator tuple is a basis (g_0, ..., g_n) of an (n+1)-dimensional
subspace W of the degree d-1 forms. The ideal it generates has degree-k
piece spanned by the monomial multiples u * g_i with deg(u) = k - (d-1);
below the generator degree the piece is genuinely zero. The tuple is a
complete intersection exactly when the quotient algebra is Artinian,
which we test by the degree-(T+1) piece filling all of S_{T+1}, where
T = (n+1)(d-2) is the socle degree. This colength test replaces any
resultant computation and is exact, not a genericity sample.

For the Jacobian ideal of a smooth degree-d form, the codimension of the
degree-k piece is the complete-intersection Hilbert function value
a(k), which depends only on (n, d); see ``hilbert_profile``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import PreconditionError
from .linalg import SpanBuilder, Subspace, span_polys, zero_subspace
from .monomials import dim_graded, mono_index, product_index_table
from .polynomials import HomogeneousPolynomial, partial


def check_size(n: int, d: int) -> None:
    """Reject sizes outside the theory: n+1 >= 2 variables, degree d >= 2.

    Every entry point that builds a generator tuple or a Hilbert profile
    goes through this one check, so they all accept the same domain.
    """
    if n < 1 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got n={n}, d={d}")


def socle_degree(n: int, d: int) -> int:
    """Top nonzero degree (n+1)(d-2) of the Artinian quotient algebra."""
    return (n + 1) * (d - 2)


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert function of the Artinian complete-intersection quotient.

    ``values[k]`` is a(k) = dim of the degree-k piece of the quotient, for
    k = 0..T+1; a(0) = a(T) = 1, a(T+1) = 0, and a(k) = a(T-k).
    """

    n: int
    d: int
    socle: int
    values: tuple

    def a(self, k: int) -> int:
        if k < 0:
            raise ValueError("negative degree")
        return self.values[k] if k < len(self.values) else 0

    def b(self, k: int) -> int:
        """Dimension dim(S_k) - a(k) of the degree-k ideal piece."""
        return dim_graded(self.n, k) - self.a(k)

    @property
    def total(self) -> int:
        return sum(self.values)


@lru_cache(maxsize=None)
def hilbert_profile(n: int, d: int) -> HilbertProfile:
    """Coefficients of ((1 - t^(d-1)) / (1 - t))^(n+1).

    This is the Hilbert series of the quotient by any complete
    intersection of n+1 forms of degree d-1; its coefficient sum is
    (d-1)^(n+1). Cached per (n, d); the cache is read-safe and
    idempotent under concurrent fills.
    """
    check_size(n, d)
    block = [1] * (d - 1)
    vals = [1]
    for _ in range(n + 1):
        out = [0] * (len(vals) + len(block) - 1)
        for i, v in enumerate(vals):
            for j, w in enumerate(block):
                out[i + j] += v * w
        vals = out
    top = socle_degree(n, d)
    assert len(vals) == top + 1 and vals[0] == 1 and vals[top] == 1
    return HilbertProfile(n, d, top, tuple(vals) + (0,))


class GeneratorTuple:
    """An (n+1)-tuple of degree d-1 forms spanning an (n+1)-dim subspace.

    Construction validates the count, the common degree, and linear
    independence; dependent tuples are rejected with PreconditionError.
    """

    __slots__ = ("n", "d", "gens", "_span")

    def __init__(self, n: int, d: int, gens):
        gens = tuple(gens)
        check_size(n, d)
        if len(gens) != n + 1:
            raise ValueError(f"expected {n + 1} generators, got {len(gens)}")
        for g in gens:
            if g.n != n:
                raise ValueError(f"generator has n={g.n}, expected {n}")
            if g.degree != d - 1:
                raise ValueError(f"generator has degree {g.degree}, expected {d - 1}")
        span = span_polys(gens, n=n, k=d - 1)
        if span.dim != n + 1:
            raise PreconditionError("generators are linearly dependent")
        self.n = n
        self.d = d
        self.gens = gens
        self._span = span

    @property
    def span(self) -> Subspace:
        """The point of the Grassmannian: the span of the generators."""
        return self._span

    def __eq__(self, other):
        if not isinstance(other, GeneratorTuple):
            return NotImplemented
        return (self.n, self.d, self.gens) == (other.n, other.d, other.gens)

    def __hash__(self):
        return hash((self.n, self.d, self.gens))

    def __repr__(self):
        shown = ", ".join(str(g) for g in self.gens)
        return f"GeneratorTuple(n={self.n}, d={self.d}, [{shown}])"


def _sparse_coords(f: HomogeneousPolynomial) -> tuple:
    idx = mono_index(f.n, f.degree)
    return tuple((idx[alpha], c) for alpha, c in f.terms.items())


def multiples_span(n: int, src_deg: int, mult_deg: int, sparse_vecs) -> SpanBuilder:
    """RREF span of {u * v} over all monomials u of degree ``mult_deg``.

    ``sparse_vecs`` lists each source form as (index, coeff) pairs over
    mono_basis(n, src_deg). Stops inserting early once the span fills the
    whole target piece, which cannot change the (already canonical)
    result.
    """
    table = product_index_table(n, mult_deg, src_deg)
    target_dim = dim_graded(n, src_deg + mult_deg)
    builder = SpanBuilder(target_dim)
    for tu in table:
        for sv in sparse_vecs:
            vec = [0] * target_dim
            for j, c in sv:
                vec[tu[j]] = c
            builder.insert(vec)
            if builder.is_full():
                return builder
    return builder


def graded_multiples(polys, k: int, n: int, src_deg: int) -> Subspace:
    """Degree-k piece of the ideal generated by arbitrary degree-src_deg forms.

    No independence requirement; zero below the generator degree.
    """
    if k < src_deg:
        return zero_subspace(n, k)
    sparse = [_sparse_coords(g) for g in polys if not g.is_zero()]
    builder = multiples_span(n, src_deg, k - src_deg, sparse)
    return Subspace.from_builder(n, k, builder)


@lru_cache(maxsize=None)
def ideal_piece(w: GeneratorTuple, k: int) -> Subspace:
    """Degree-k piece of the ideal generated by the tuple, canonical form.

    Zero for k < d-1; otherwise the span of all monomial multiples of the
    generators. Cached per (tuple, degree); safe under concurrent reads.
    """
    if k < 0:
        raise ValueError("negative degree")
    return graded_multiples(w.gens, k, w.n, w.d - 1)


def jacobian_gens(f: HomogeneousPolynomial) -> GeneratorTuple:
    """The tuple of first partial derivatives of f.

    Rejects forms whose partials are linearly dependent (cones): those lie
    outside the smooth locus and none of the reconstruction theory applies.
    """
    check_size(f.n, f.degree)
    return GeneratorTuple(f.n, f.degree, [partial(f, i) for i in range(f.n + 1)])


def jacobian_piece(f: HomogeneousPolynomial, k: int) -> Subspace:
    """Degree-k piece of the Jacobian ideal of f (partials must be independent)."""
    return ideal_piece(jacobian_gens(f), k)


def partials_piece(f: HomogeneousPolynomial, k: int) -> Subspace:
    """Degree-k piece of the ideal generated by the partials of any form.

    Unlike ``jacobian_piece`` this accepts dependent (even zero) partials,
    which is needed when testing containments against arbitrary forms.
    """
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    return graded_multiples(
        [partial(f, i) for i in range(f.n + 1)], k, f.n, f.degree - 1
    )


def is_complete_intersection(w: GeneratorTuple) -> bool:
    """Artinian colength test: the degree-(T+1) piece fills S_{T+1}.

    Equivalent to the generators forming a regular sequence (nonvanishing
    resultant); once the piece is full in one degree it is full in all
    higher degrees because the ideal is generated in degree d-1.
    """
    return ideal_piece(w, socle_degree(w.n, w.d) + 1).is_full()


@lru_cache(maxsize=None)
def is_smooth(f: HomogeneousPolynomial) -> bool:
    """Whether the projective hypersurface f = 0 is smooth.

    Decided exactly: smoothness of a degree-d form is equivalent to its
    partials forming a complete intersection.
    """
    try:
        w = jacobian_gens(f)
    except PreconditionError:
        return False
    return is_complete_intersection(w)
