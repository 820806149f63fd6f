"""Graded pieces of ideals generated in one degree, and Jacobian ideals.

A generator tuple is a basis (g_0, ..., g_n) of an (n+1)-dimensional
subspace W of the degree d-1 forms. An ideal generated in one degree j is
zero below j and satisfies I_{k+1} = S_1 * I_k for k >= j, the relay of
Macaulay's resultant construction: each piece is grown from the one below
by the n+1 variables (``generated_piece``). Degree j is the generating
span itself; each degree above it is kept as integer RREF rows in one
cache of relay steps. The products x_i * r enter by leading column,
largest first; ordering Macaulay-matrix rows by leading monomial is the
idea behind F4 (Faugere 1999). No product is sorted: each goes into a bucket
for its lead, and the buckets are read from the last column down. When a
lead first comes up every stored row pivots right of it, so that product
becomes a new pivot at which no stored row has an entry, and clears
nothing; only products repeating a lead can clear stored rows. The rows
are sparse: an RREF row vanishes at every other pivot, so a row of I_k
has at most a(k) + 1 nonzero entries, a(k) being the Hilbert function of
the quotient. Once a degree is full, so is every degree above it.

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
socle degree. This colength test needs no resultant. It is decided by
one walk of the relay mod ``linalg.PRIME``, cached per span
(``ci_walk_mod_p``): the bound b(k) holds in every characteristic, as a
regular sequence reaches it there too, and rank mod p is at most rank
over Q, so a walk that fills S_{T+1} mod p proves the fill over Q. The
walk stops at the first degree that falls short of b(k): the reduced
tuple is then no regular sequence over F_p, so it would not fill S_{T+1}
either. Where the walk falls short the exact relay to T+1 decides, so the
answer is always exact. ``relay_step`` hands each product to its builder
with the lead of its bucket, as a handle: the rows one degree below, the
parent's lead and the variable's column map. The walk's
``linalg.ModularEchelon`` stores a product at a new lead as that handle,
since a product of stored rows is already in stored form, forms its row
only when a reduction reads it, and reduces only the products that
repeat a lead; the exact ``SpanBuilder`` reduces every product, so it
forms each at once. The tangent kernels of ``deformation`` need
nothing more: at a complete intersection Gorenstein duality makes each
colon ((I_W)_k : S_{k-d+1})_{d-1}, d-1 <= k <= T, the span of W itself.
For the Jacobian ideal of a smooth degree-d form the codimension of the
degree-k piece is a(k), which depends only on (n, d); see
``hilbert_profile``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import PreconditionError
from .linalg import (
    ModularEchelon,
    SpanBuilder,
    Subspace,
    derivative_rows,
    full_subspace,
    poly_row,
    span_polys,
    span_vectors,
    zero_subspace,
)
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


def check_degree(n: int, d: int, k: int) -> None:
    """Reject a size outside ``check_size``, then a degree k outside d-1 <= k <= T.

    The one range check of every entry point that reads a piece of degree
    k: the tangent kernels, ``recover_generators`` and the containment test.
    """
    check_size(n, d)
    top = socle_degree(n, d)
    if not d - 1 <= k <= top:
        raise ValueError(f"need d-1 <= k <= {top}, got k={k}")


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
    """Coefficients of P(t) = ((1 - t^(d-1)) / (1 - t))^(n+1).

    This is the Hilbert series of the quotient by any complete
    intersection of n+1 forms of degree d-1; its coefficient sum is
    (d-1)^(n+1), and a(k) = dim S_k - ``generic_piece_dim(n, d-1, n+1, k)``,
    the piece a regular sequence of n+1 such forms reaches. The values
    come from a three-term recurrence, a constant number of big-integer
    operations per k rather than that sum of n+1 binomials. With m = d-1
    and N = n+1, P'/P = N (1/(1 - t) - m t^(m-1)/(1 - t^m)), so
    (1 - t)(1 - t^m) P' = N (1 - m t^(m-1) + (m-1) t^m) P, whose
    coefficient of t^k reads

        (k+1) a(k+1) = (k+N) a(k) + (k+1-m-N m) a(k+1-m) + (N(m-1)+m-k) a(k-m),

    a(j) = 0 for j < 0; the division by k+1 is exact. Only k <= T/2 is
    computed: P is a palindrome of degree T, so a(k) = a(T-k). Cached per
    (n, d); the cache is read-safe and idempotent under concurrent fills.
    """
    check_size(n, d)
    top, m, r = socle_degree(n, d), d - 1, n + 1
    vals = [1]
    for k in range(top // 2):
        step = (k + r) * vals[k]
        if k + 1 >= m:
            step += (k + 1 - m - r * m) * vals[k + 1 - m]
        if k >= m:
            step += (r * (m - 1) + m - k) * vals[k - m]
        vals.append(step // (k + 1))
    vals += reversed(vals[: top + 1 - len(vals)])
    assert vals[0] == 1 and vals[top] == 1
    return HilbertProfile(n, d, top, tuple(vals) + (0,))


def generic_piece_dim(n: int, j: int, r: int, k: int) -> int:
    """Upper bound on dim I_k for an ideal I generated by r forms of degree j.

    dim S_k - [t^k] (1 - t^j)^r / (1 - t)^(n+1) for r <= n+1, the value a
    regular sequence reaches, and dim S_k for r > n+1. The dimension is the
    rank of a matrix polynomial in the coefficients, so it is largest on a
    Zariski-open set, where r <= n+1 forms are a regular sequence (Froberg
    1985). At r = n+1, j = d-1 this is ``hilbert_profile(n, d).b(k)``,
    which ``hilbert_profile`` computes by a recurrence instead of this sum.
    """
    if r > n + 1:
        return dim_graded(n, k)
    return -sum((-1) ** i * comb(r, i) * dim_graded(n, k - i * j) for i in range(1, r + 1) if i * j <= k)


class GeneratorTuple:
    """An (n+1)-tuple of degree d-1 forms spanning an (n+1)-dim subspace.

    Construction validates the count, the common degree, and linear
    independence; dependent tuples are rejected with PreconditionError.
    """

    __slots__ = ("n", "d", "_gens", "_span", "_make_gens")

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
        self._gens = gens
        self._span = span

    @classmethod
    def _from_span(cls, span: Subspace, make_gens=None) -> "GeneratorTuple":
        """The tuple spanning an (n+1)-dimensional span of S_{d-1}, no elimination.

        The generators are ``make_gens()``, or by default the RREF basis
        rows of ``span``, which must be their span; they are formed on
        first read of ``gens``.
        """
        if span.dim != span.n + 1:
            raise ValueError(f"expected a span of dimension {span.n + 1}, got {span.dim}")
        w = cls.__new__(cls)
        w.n, w.d, w._gens, w._span = span.n, span.k + 1, None, span
        w._make_gens = make_gens or span.basis_polynomials
        return w

    @property
    def gens(self) -> tuple:
        if self._gens is None:
            self._gens = self._make_gens()
        return self._gens

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
    """Integer RREF rows of degree k > span.k of the ideal generated by span, None if full.

    One ``relay_step`` from the rows one degree below, against
    ``generic_piece_dim``: span's own rows at k = span.k + 1, which are
    already the canonical RREF of degree span.k, so the cache holds relay
    steps only and never a copy of span. Shared, so read only.
    ``generated_piece`` walks up to a full degree, so this recurses one
    level and needs only the degree below cached: the bound just drops old
    spans.
    """
    below = span.int_rows if k == span.k + 1 else _relay(span, k - 1).int_rows
    bound = generic_piece_dim(span.n, span.k, span.dim, k)
    return relay_step(SpanBuilder(dim_graded(span.n, k)), below, span.n, k, bound)


def relay_step(builder, below: dict, n: int, k: int, bound: int):
    """Fill an empty ``builder`` of degree k with the products x_i * r, r in ``below``.

    ``below`` maps each leading column of the rows one degree below to its
    row. The products enter by leading column, largest first. Multiplying
    by x_i keeps the monomial order, so x_i * r leads at the image of r's
    lead: each product goes into the bucket of that column, the rows of
    ``below`` visited by descending lead, and the buckets are read from
    the last column to the first, so a lead's products come in descending
    order of their parent's lead and no product is sorted. Each earlier
    product led further right, and reduction only moves a lead right, so
    when a lead first comes up every stored row leads right of it: that
    product sets a new pivot left of them all and, as none has an entry
    there, clears none of them. Only a product repeating a lead is reduced
    past it and can land on a pivot that stored rows must be cleared at.
    So the rows stored plus the leads still to come bound the final
    dimension from below, and ``bound``, an upper bound such as
    ``generic_piece_dim``, bounds it from above. Once the two meet the
    degree is exactly the bound: the products repeating a lead are skipped,
    as they add nothing, and the first-lead ones are inserted for their
    rows, or not at all when the bound is dim S_k and the degree is full. A
    span falling short of the bound, such as a tuple with a common zero at
    T+1, never meets it and inserts every product there. Inserting all
    first-lead products before any repeated one was tried: it leaves many
    late pivots to clear, and is slower; so is a sort of every product by
    (lead, parent), which this bucketing replaces with the same order.

    The builder is an exact ``SpanBuilder`` or a ``linalg.ModularEchelon``;
    both set a new pivot at a lead that no stored row has, which is all the
    argument needs. Each product goes to ``insert_product`` with its lead,
    as a handle (below, p, tu): x_i's column map tu from
    ``product_index_table`` applied to the row at p of ``below``. The
    exact builder forms its row at once and reduces it as any row; the
    echelon mod p stores one at a new lead as the handle itself, with no
    arithmetic, and forms its row only when a reduction reads it. Returns
    the builder, or None once it is full.
    """
    table, rows = product_index_table(n, 1, k - 1), builder.int_rows
    buckets, todo = [None] * builder.length, 0
    for p in sorted(below, reverse=True):
        for tu in table:
            if (bucket := buckets[tu[p]]) is None:
                buckets[tu[p]], todo = [(below, p, tu)], todo + 1
            else:
                bucket.append((below, p, tu))
    for lead in range(len(buckets) - 1, -1, -1):
        if (bucket := buckets[lead]) is None:
            continue
        # todo still counts this lead: its first product sets a new pivot
        if len(rows) + todo == bound and bound == builder.length:
            return None
        todo -= 1
        for handle in bucket:
            builder.insert_product(handle, lead)
            if len(rows) + todo == bound:
                break
    return None if builder.is_full() else builder


def generated_piece(span: Subspace, k: int) -> Subspace:
    """Degree-k piece of the ideal generated by a subspace of S_j, canonical.

    Zero below j, span itself at j, and the shared full subspace once a
    degree up to k is full; the degrees above j are the relay's.
    """
    if k < span.k or span.is_zero():
        return zero_subspace(span.n, k)
    if span.is_full():
        return full_subspace(span.n, k)
    if k == span.k:
        return span
    for j in range(span.k + 1, k + 1):
        if (builder := _relay(span, j)) is None:
            return full_subspace(span.n, k)
    return Subspace.from_builder(span.n, k, builder)


def ideal_piece(w: GeneratorTuple, k: int) -> Subspace:
    """Degree-k piece of the ideal generated by the tuple, canonical form.

    Zero for k < d-1; depends only on span(W), the key of the cache.
    """
    if k < 0:
        raise ValueError("negative degree")
    return generated_piece(w.span, k)


def _partials_span(f: HomogeneousPolynomial) -> Subspace:
    """The span in S_{d-1} of the partials of a form f of degree d >= 1, no partial formed.

    The integer row D f of ``poly_row`` maps straight to the rows D d f / d x_i.
    """
    row, _ = poly_row(f)
    return span_vectors(f.n, f.degree - 1, derivative_rows(row, f.n, f.degree))


@lru_cache(maxsize=256)
def jacobian_gens(f: HomogeneousPolynomial) -> GeneratorTuple:
    """The tuple of first partial derivatives of f.

    Rejects forms whose partials are linearly dependent (cones): those lie
    outside the smooth locus and none of the reconstruction theory applies.
    The span comes from f's integer row (``_partials_span``); the partials
    themselves are formed only when ``gens`` is first read. Cached on f, so
    the checks at every k over one form share one tuple.
    """
    check_size(f.n, f.degree)
    span = _partials_span(f)
    if span.dim != f.n + 1:
        raise PreconditionError("generators are linearly dependent")
    return GeneratorTuple._from_span(span, lambda: tuple(partial(f, i) for i in range(f.n + 1)))


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
    return generated_piece(_partials_span(f), k)


@lru_cache(maxsize=256)
def ci_walk_mod_p(span: Subspace) -> bool:
    """Whether a walk mod p proves span a complete intersection.

    The relay of an (n+1)-dimensional span of S_{d-1} walked mod
    ``linalg.PRIME``: ``relay_step`` into ``ModularEchelon`` builders from
    d-1 to T+1, each degree stopped at b(k). Products of reduced rows are
    reductions of integer products, so the walk's span at k lies in the
    reduction of the lattice (I_W)_k meet Z^N, of dimension at most
    dim (I_W)_k <= b(k). Where the walk reaches b(T) at T and then fills
    S_{T+1}, so does (I_W)_{T+1}, rank mod p being at most rank over Q:
    span is a complete intersection, and True says so. The walk returns
    False at the first degree k that falls short of b(k): it spans the
    degree-k piece of the ideal of the reduced tuple, which a regular
    sequence over F_p would fill to b(k), so the fill at T+1 would fall
    short too. At d = 2, T = 0 and the walk takes no step: the span itself
    must fill S_1. False proves nothing over Q. Cached per span and shared;
    the handles of each degree hold the rows below it until the walk
    returns, and no row of the walk is kept after.
    """
    n, d = span.n, span.k + 1
    top = socle_degree(n, d)
    profile = hilbert_profile(n, d)
    piece = ModularEchelon(dim_graded(n, d - 1))
    for row in span.int_rows.values():
        piece.insert(row)
    # b(k) < dim S_k up to T, and b(T+1) = dim S_{T+1}: only the fill returns None
    for k in range(d, top + 2):
        if piece.dim != profile.b(k - 1):
            return False
        piece = relay_step(ModularEchelon(dim_graded(n, k)), piece.int_rows, n, k, profile.b(k))
        if piece is None:
            return True
    return piece.is_full()


def is_complete_intersection(w: GeneratorTuple) -> bool:
    """Artinian colength test: the degree-(T+1) piece fills S_{T+1}.

    Equivalent to the generators forming a regular sequence (nonvanishing
    resultant); every higher degree is then full as well. Decided by the
    walk mod p of ``ci_walk_mod_p`` where it proves the fill, and by the
    exact relay to T+1 where it does not.
    """
    if ci_walk_mod_p(w.span):
        return True
    return ideal_piece(w, socle_degree(w.n, w.d) + 1).is_full()


def is_smooth(f: HomogeneousPolynomial) -> bool:
    """Whether the projective hypersurface f = 0 is smooth.

    Smoothness of a degree-d form is equivalent to its partials forming a
    complete intersection, which ``is_complete_intersection`` decides.
    Not cached: ``jacobian_gens`` and the walk mod p it reads are, so a
    repeated call redoes no elimination.
    """
    try:
        w = jacobian_gens(f)
    except PreconditionError:
        return False
    return is_complete_intersection(w)
