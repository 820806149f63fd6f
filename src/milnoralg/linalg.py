"""Exact rational linear algebra and canonical subspaces of graded pieces.

Matrices are plain lists of rows with exact rational entries; no rounding
happens anywhere. A linear map between graded pieces is stored in the
column convention: the matrix of phi: S_k -> S_m has dim(S_m) rows and
dim(S_k) columns, and column j is phi applied to the j-th basis monomial.

Subspaces of a graded piece S_k are always kept with a basis in reduced
row-echelon form. RREF is the unique canonical basis of a row space, so
two subspaces are equal exactly when their basis matrices are identical
entry for entry; this is what makes bit-exact equality of graded pieces,
and hence injectivity tests for the maps built on them, meaningful.

All elimination runs in ``SpanBuilder`` on Python ints, fraction-free as
in Bareiss (1968). Each basis row is kept as the one primitive integer
multiple of its RREF row with a positive pivot entry (the row times the
lcm of its denominators), so the canonical basis is unchanged while the
elimination pays one gcd per row instead of one per rational operation.
Rationals are formed only where rows leave the builder.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional

from .monomials import dim_graded, factorial_weights
from .polynomials import HomogeneousPolynomial
from .rationals import ONE, Q, ZERO


def integer_row(vec) -> dict:
    """Nonzero entries of a dense or sparse ``vec`` times the lcm of its denominators."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    v = {j: x if isinstance(x, (int, Q)) else Q(x) for j, x in items if x}
    den = lcm(*{x.denominator for x in v.values()})
    return {j: int(x.numerator) * (den // int(x.denominator)) for j, x in v.items() if x}


def _rational_row(row: dict, pivot_entry: int, length: int) -> list:
    """The dense rational row ``row / pivot_entry``, every entry of type Q."""
    out = [ZERO] * length
    for j, x in row.items():
        out[j] = Q(x, pivot_entry)
    return out


def _subtract(v: dict, m: int, row: dict) -> None:
    """v -= m * row in place, dropping entries that cancel."""
    for j, y in row.items():
        x = v.get(j, 0) - m * y
        if x:
            v[j] = x
        else:
            del v[j]


class SpanBuilder:
    """Incremental reduced row-echelon basis of a growing row space.

    The state is always a full RREF (pivot columns strictly increasing and
    cleared elsewhere, no zero rows). ``int_rows`` maps each pivot to its
    row's primitive integer multiple as a sparse {column: entry} dict; an
    RREF row is zero at every other pivot, so rows thin out as the span
    fills. The basis is the unique RREF of the row space, independent of
    insertion order, so results are deterministic and canonical.
    """

    __slots__ = ("length", "int_rows", "pivots")

    def __init__(self, length: int):
        self.length = length
        self.int_rows: dict = {}
        self.pivots: list = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_full(self) -> bool:
        return len(self.pivots) == self.length

    @property
    def rows(self) -> list:
        """The RREF basis as dense lists of rationals (pivot entries 1)."""
        rows = self.int_rows
        return [_rational_row(rows[p], rows[p][p], self.length) for p in self.pivots]

    def insert(self, vec) -> bool:
        """Add a dense vector or a sparse {column: int} dict (kept); True if it grew."""
        v = vec if isinstance(vec, dict) else integer_row(vec)
        rows = self.int_rows
        # The basis is fully reduced, so the multiplier of each pivot row is
        # the incoming entry at its pivot: v <- L v - sum (L / a_p) v[p] row_p.
        hits = [(rows[p], p, c) for p, c in v.items() if p in rows]
        if hits:
            scale = lcm(*(r[p] for r, p, _ in hits))
            if scale != 1:
                v = {j: scale * x for j, x in v.items()}
            for r, p, c in hits:
                _subtract(v, scale // r[p] * c, r)
        if not v:
            return False
        pivot = min(v)
        g = gcd(*v.values())
        if v[pivot] < 0:
            g = -g
        if g != 1:
            v = {j: x // g for j, x in v.items()}
        a = v[pivot]
        for p, r in rows.items():
            c = r.get(pivot)
            if c:
                h = gcd(a, c)
                s, t = a // h, c // h
                r = {j: s * x for j, x in r.items()}
                _subtract(r, t, v)
                h = gcd(*r.values())
                rows[p] = {j: x // h for j, x in r.items()} if h != 1 else r
        rows[pivot] = v
        insort(self.pivots, pivot)
        return True


def rref(rows: Iterable) -> tuple:
    """Reduced row-echelon form of a matrix given as a list of rows.

    Returns (reduced rows, pivot columns); zero rows are dropped. The
    result depends only on the row space, hence is deterministic.
    """
    rows = list(rows)
    if not rows:
        return [], []
    builder = SpanBuilder(len(rows[0]))
    for r in rows:
        builder.insert(r)
    return builder.rows, list(builder.pivots)


def nullspace(rows: Iterable, ncols: int, rank: Optional[int] = None) -> list:
    """Canonical basis of {x : M x = 0} for M given by ``rows``.

    Standard free-variable construction followed by a canonicalizing
    re-reduction, so the result is the RREF basis of the kernel. With
    ``rank`` given, no row is read once the rows so far reach that rank:
    the result is then the kernel of the rows read, which contains the
    kernel of M, and equals it when M has that rank.
    """
    reduced = SpanBuilder(ncols)
    for r in rows if rank != 0 else ():
        if reduced.insert(r) and reduced.dim == rank:
            break
    builder = SpanBuilder(ncols)
    for j in sorted(set(range(ncols)) - set(reduced.pivots)):
        hits = [(r[j], r[p], p) for p, r in reduced.int_rows.items() if j in r]
        scale = lcm(*(a for _, a, _ in hits))
        v = [0] * ncols
        v[j] = scale
        for c, a, p in hits:
            v[p] = -c * (scale // a)
        builder.insert(v)
    return builder.rows


class Subspace:
    """A linear subspace of the graded piece S_k, canonical RREF basis.

    ``rows`` are the basis vectors in mono_basis(n, k) coordinates. Because
    RREF is unique, equality of subspaces is entry-wise equality of their
    basis matrices, and hashing is consistent with that.
    """

    __slots__ = ("n", "k", "rows", "pivots", "_hash")

    def __init__(self, n: int, k: int, rows: tuple, pivots: tuple):
        self.n = n
        self.k = k
        self._hash = None
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        if len(self.rows) != len(self.pivots):
            raise ValueError("row/pivot count mismatch")
        if any(self.pivots[i] >= self.pivots[i + 1] for i in range(len(self.pivots) - 1)):
            raise ValueError("pivot columns must strictly increase")

    @classmethod
    def from_builder(cls, n: int, k: int, builder: SpanBuilder) -> "Subspace":
        if builder.length != dim_graded(n, k):
            raise ValueError("builder length does not match ambient dimension")
        return cls(n, k, builder.rows, tuple(builder.pivots))

    @property
    def ambient(self) -> tuple:
        return (self.n, self.k)

    @property
    def ambient_dim(self) -> int:
        return dim_graded(self.n, self.k)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def reduce(self, vec) -> list:
        """Residual of a coordinate vector modulo this subspace."""
        v = [Q(x) for x in vec]
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                for j in range(p, len(v)):
                    rj = row[j]
                    if rj:
                        v[j] -= c * rj
        return v

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains_poly(self, f: HomogeneousPolynomial) -> bool:
        if (f.n, f.degree) != self.ambient:
            raise ValueError(f"ambient mismatch: {(f.n, f.degree)} vs {self.ambient}")
        return self.contains_vector(f.coords())

    def basis_polynomials(self) -> tuple:
        return tuple(HomogeneousPolynomial.from_coords(self.n, self.k, row) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient, self.rows))
        return self._hash

    def __repr__(self):
        return f"Subspace(n={self.n}, k={self.k}, dim={self.dim})"


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: {a.ambient} vs {b.ambient}")


def zero_subspace(n: int, k: int) -> Subspace:
    return Subspace(n, k, (), ())


@lru_cache(maxsize=None)
def full_subspace(n: int, k: int) -> Subspace:
    d = dim_graded(n, k)
    rows = tuple(tuple(ONE if j == i else ZERO for j in range(d)) for i in range(d))
    return Subspace(n, k, rows, tuple(range(d)))


def span_vectors(n: int, k: int, vectors: Iterable) -> Subspace:
    """Canonical subspace spanned by coordinate vectors in S_k."""
    builder = SpanBuilder(dim_graded(n, k))
    for v in vectors:
        builder.insert(v)
    return Subspace.from_builder(n, k, builder)


def span_polys(polys, n: Optional[int] = None, k: Optional[int] = None) -> Subspace:
    """Canonical subspace spanned by forms (ambient inferred when possible)."""
    polys = list(polys)
    if polys:
        n = polys[0].n if n is None else n
        k = polys[0].degree if k is None else k
        for f in polys:
            if (f.n, f.degree) != (n, k):
                raise ValueError(f"ambient mismatch: {(f.n, f.degree)} vs {(n, k)}")
    elif n is None or k is None:
        raise ValueError("empty span needs explicit ambient (n, k)")
    return span_vectors(n, k, (f.coords() for f in polys))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    builder = SpanBuilder(a.ambient_dim)
    for row in a.rows + b.rows:
        builder.insert(row)
    return Subspace.from_builder(a.n, a.k, builder)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus double-block reduction."""
    _check_same_ambient(a, b)
    amb = a.ambient_dim
    builder = SpanBuilder(2 * amb)
    for row in a.rows:
        builder.insert(row + row)
    for row in b.rows:
        builder.insert(row + (0,) * amb)
    rows = []
    pivots = []
    for p in builder.pivots:
        if p >= amb:
            row = builder.int_rows[p]
            rows.append(_rational_row({j - amb: x for j, x in row.items()}, row[p], amb))
            pivots.append(p - amb)
    return Subspace(a.n, a.k, tuple(rows), tuple(pivots))


def contains(a: Subspace, b: Subspace) -> bool:
    """Whether a contains b (decided on canonical bases)."""
    _check_same_ambient(a, b)
    if b.dim > a.dim:
        return False
    return all(a.contains_vector(row) for row in b.rows)


def annihilator(e: Subspace) -> list:
    """Integer functionals spanning those that vanish on E, as sparse dicts.

    One per nonpivot q of the RREF basis: 1 at q and minus column q at the
    pivots. A vector lies in E exactly when every one of them vanishes on it.
    """
    pivots = set(e.pivots)
    return [
        integer_row({q: 1, **{p: -row[q] for p, row in zip(e.pivots, e.rows) if row[q]}})
        for q in range(e.ambient_dim)
        if q not in pivots
    ]


def orthogonal_complement(e: Subspace) -> Subspace:
    """Complement under the apolar inner product on S_k.

    The pairing is diagonal on monomials with weights alpha!, so the
    complement is the kernel of the weighted basis matrix. Involutive:
    the complement of the complement is the original subspace.
    """
    weights = factorial_weights(e.n, e.k)
    rows = [[x * w if x else 0 for x, w in zip(row, weights)] for row in e.rows]
    return map_kernel(rows, e.n, e.k)


def map_kernel(matrix_rows, n: int, k: int) -> Subspace:
    """Kernel in S_k of a map given by a matrix with dim(S_k) columns.

    ``nullspace`` already returns the RREF basis, so each row's pivot is
    its first nonzero entry and no re-elimination is needed.
    """
    rows = nullspace(matrix_rows, dim_graded(n, k))
    return Subspace(n, k, rows, tuple(next(j for j, x in enumerate(r) if x) for r in rows))


def map_image(matrix_rows, n: int, m: int) -> Subspace:
    """Image in S_m of a map given by a matrix with dim(S_m) rows."""
    if not matrix_rows:
        return zero_subspace(n, m)
    ncols = len(matrix_rows[0])
    cols = ([row[j] for row in matrix_rows] for j in range(ncols))
    return span_vectors(n, m, cols)


class QuotientMap:
    """Canonical coordinates on S_k / E for a subspace E in RREF.

    The coordinates of a vector are the non-pivot positions of its
    residual modulo E; they vanish exactly on E, and there are
    dim(S_k) - dim(E) of them.
    """

    __slots__ = ("subspace", "pivots", "nonpivots", "_restricted")

    def __init__(self, subspace: Subspace):
        self.subspace = subspace
        self.pivots = subspace.pivots
        pivset = set(subspace.pivots)
        self.nonpivots = tuple(j for j in range(subspace.ambient_dim) if j not in pivset)
        self._restricted = [[row[j] for j in self.nonpivots] for row in subspace.rows]

    @property
    def dim(self) -> int:
        return len(self.nonpivots)

    def coords(self, vec) -> list:
        """Quotient coordinates of an ambient coordinate vector."""
        out = [vec[j] for j in self.nonpivots]
        for r, p in enumerate(self.pivots):
            c = vec[p]
            if c:
                row = self._restricted[r]
                for q in range(len(out)):
                    rq = row[q]
                    if rq:
                        out[q] -= c * rq
        return out
