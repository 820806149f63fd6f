"""Graded pieces of ideals generated in one degree, and Jacobian ideals.

A generator tuple is a basis (g_0, ..., g_n) of an (n+1)-dimensional
subspace W of the degree d-1 forms. An ideal generated in one degree j is
zero below j and satisfies I_{k+1} = S_1 * I_k for k >= j, the relay of
Macaulay's resultant construction: each piece is grown from the one below
by the n+1 variables (``generated_piece``) and kept as integer RREF rows
in one cache. The products x_i * r enter by leading column, largest
first; ordering Macaulay-matrix rows by leading monomial is the idea
behind F4 (Faugere 1999). When a lead first comes up every stored row
pivots right of it, so that product becomes a new pivot at which no
stored row has an entry, and clears nothing; only products repeating a
lead can clear stored rows. The rows are sparse: an RREF row vanishes at every
other pivot, so a row of I_k has at most a(k) + 1 nonzero entries, a(k)
being the Hilbert function of the quotient. Once a degree is full, so is
every degree above it.

Each degree also stops at a bound known in advance. r <= n+1 forms of
degree j generate at most dim S_k - [t^k] (1 - t^j)^r / (1 - t)^(n+1)
dimensions in degree k, the value a regular sequence reaches (Froberg
1985; ``generic_piece_dim``). Once the stored rows plus the leads still
to come, each a certain new pivot, reach it, every product repeating a
lead is provably in the span and is skipped; where the bound is all of
S_k the degree is full and nothing more is inserted. A complete
intersection meets the bound in every degree, so its fill at T+1 takes a
few products instead of (n+1) dim I_T.

The tuple is a complete intersection exactly when the quotient is
Artinian: the degree-(T+1) piece fills S_{T+1}, T = (n+1)(d-2) being the
socle degree. This colength test is exact and needs no resultant. For the
Jacobian ideal of a smooth degree-d form the codimension of the degree-k
piece is a(k), which depends only on (n, d); see ``hilbert_profile``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import PreconditionError
from .linalg import SpanBuilder, Subspace, full_subspace, span_polys, zero_subspace
from .monomials import dim_graded, product_index_table
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


class HilbertProfile(NamedTuple):
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
    (d-1)^(n+1). Each of the n+1 factors is a sliding window sum of
    d-1 coefficients, kept running, so the cost is O(n T), T the socle
    degree, whatever d is. Cached per (n, d); the cache is read-safe and
    idempotent under concurrent fills.
    """
    check_size(n, d)
    vals = [1]
    for _ in range(n + 1):
        out, window = [], 0
        for i in range(len(vals) + d - 2):
            window += vals[i] if i < len(vals) else 0
            window -= vals[i - d + 1] if i >= d - 1 else 0
            out.append(window)
        vals = out
    top = socle_degree(n, d)
    assert len(vals) == top + 1 and vals[0] == 1 and vals[top] == 1
    return HilbertProfile(n, d, top, tuple(vals) + (0,))


def generic_piece_dim(n: int, j: int, r: int, k: int) -> int:
    """Upper bound on dim I_k for an ideal I generated by r forms of degree j.

    dim S_k - [t^k] (1 - t^j)^r / (1 - t)^(n+1) for r <= n+1, the value a
    regular sequence reaches, and dim S_k for r > n+1. The dimension is the
    rank of a matrix polynomial in the coefficients, so it is largest on a
    Zariski-open set, where r <= n+1 forms are a regular sequence (Froberg
    1985). At r = n+1, j = d-1 this is ``hilbert_profile(n, d).b(k)``.
    """
    if r > n + 1:
        return dim_graded(n, k)
    return -sum((-1) ** i * comb(r, i) * dim_graded(n, k - i * j) for i in range(1, r + 1) if i * j <= k)


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


@lru_cache(maxsize=32)
def _relay(span: Subspace, k: int) -> SpanBuilder | None:
    """Integer RREF rows of degree k of the ideal generated by span, None if full.

    Above span.k: ``relay_step`` from the rows one degree below, against
    ``generic_piece_dim``. Shared, so read only. ``generated_piece`` walks
    up to a full degree, so this recurses one level and needs only the
    degree below cached: the bound just drops old spans.
    """
    builder = SpanBuilder(dim_graded(span.n, k))
    if k == span.k:
        for row in span.int_rows.values():
            builder.insert(row)
        return None if builder.is_full() else builder
    bound = generic_piece_dim(span.n, span.k, span.dim, k)
    return relay_step(builder, _relay(span, k - 1).int_rows, span.n, k, bound)


def relay_step(builder, below: dict, n: int, k: int, bound: int):
    """Fill an empty ``builder`` of degree k with the products x_i * r, r in ``below``.

    ``below`` maps each leading column of the rows one degree below to its
    row. The products enter by leading column, largest first. Multiplying
    by x_i keeps the monomial order, so x_i * r leads at the image of r's
    lead. Each earlier product led further right, and reduction only moves
    a lead right, so when a lead first comes up every stored row leads
    right of it: that product sets a new pivot left of them all and, as
    none has an entry there, clears none of them. Only a product repeating
    a lead is reduced past it and can land on a pivot that stored rows must
    be cleared at. So the rows stored plus the leads still to come bound
    the final dimension from below, and ``bound``, an upper bound such as
    ``generic_piece_dim``, bounds it from above. Once the two meet the
    degree is exactly the bound: the products repeating a lead are skipped,
    as they add nothing, and the first-lead ones are inserted for their
    rows, or not at all when the bound is dim S_k and the degree is full. A
    span falling short of the bound, such as a tuple with a common zero at
    T+1, never meets it and inserts every product there. Inserting all
    first-lead products before any repeated one was tried: it leaves many
    late pivots to clear, and is slower.

    The builder is an exact ``SpanBuilder`` or a ``linalg.ModularEchelon``;
    both set a new pivot at a lead that no stored row has, which is all the
    argument needs. Returns the builder, or None once it is full.
    """
    table = product_index_table(n, 1, k - 1)
    leads = sorted(((tu[p], p, i) for p in below for i, tu in enumerate(table)), reverse=True)
    todo, last = len({lead for lead, _, _ in leads}), None
    for lead, p, i in leads:
        first = lead != last
        if builder.dim + todo == bound:
            if bound == builder.length:
                return None
            if not first:
                continue
        if first:
            todo, last = todo - 1, lead
        builder.insert({table[i][j]: x for j, x in below[p].items()})
    return None if builder.is_full() else builder


def generated_piece(span: Subspace, k: int) -> Subspace:
    """Degree-k piece of the ideal generated by a subspace of S_j, canonical.

    Zero below j, and the shared full subspace once a degree up to k is full.
    """
    if k < span.k or span.is_zero():
        return zero_subspace(span.n, k)
    for j in range(span.k, k + 1):
        builder = _relay(span, j)
        if builder is None:
            return full_subspace(span.n, k)
    return Subspace.from_builder(span.n, k, builder)


def ideal_piece(w: GeneratorTuple, k: int) -> Subspace:
    """Degree-k piece of the ideal generated by the tuple, canonical form.

    Zero for k < d-1; depends only on span(W), the key of the cache.
    """
    if k < 0:
        raise ValueError("negative degree")
    return generated_piece(w.span, k)


@lru_cache(maxsize=256)
def jacobian_gens(f: HomogeneousPolynomial) -> GeneratorTuple:
    """The tuple of first partial derivatives of f.

    Rejects forms whose partials are linearly dependent (cones): those lie
    outside the smooth locus and none of the reconstruction theory applies.
    Cached on f, so the checks at every k over one form share one tuple.
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
    return generated_piece(span_polys([partial(f, i) for i in range(f.n + 1)], f.n, f.degree - 1), k)


def is_complete_intersection(w: GeneratorTuple) -> bool:
    """Artinian colength test: the degree-(T+1) piece fills S_{T+1}.

    Equivalent to the generators forming a regular sequence (nonvanishing
    resultant); every higher degree is then full as well.
    """
    return ideal_piece(w, socle_degree(w.n, w.d) + 1).is_full()


@lru_cache(maxsize=256)
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
