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

All elimination runs on Python ints, fraction-free as in Bareiss (1968).
Each basis row is kept as the one primitive integer multiple of its RREF
row with a positive pivot entry (the row times the lcm of its
denominators), so the canonical basis is unchanged while the elimination
pays one gcd per row instead of one per rational operation. These integer
rows are the only stored form of a subspace, in ``SpanBuilder`` and
``Subspace`` alike; rationals are formed only when ``rows`` is read. A
form enters as the row of ``poly_row``, read off its terms, and its
partials as the rows of ``derivative_rows``. One routine,
``reduce_row``, reduces a vector against them: insertion and membership
both go through it. Every kernel over Q is one elimination:
``kernel_builder`` inserts the rows with their columns reversed into one
``SpanBuilder`` and reads the kernel's canonical RREF basis straight off
its free columns, with no second elimination to canonicalize it (the
argument is written once, in ``_kernel_vectors``); ``kernel_mod_p``
reads its kernel mod p off the same reversed elimination.

Arithmetic leaves Q in one place only: ``ModularEchelon``, an echelon
basis of integer rows reduced modulo the prime ``PRIME``, the largest
prime below 2^30. CPython stores an int in 30-bit digits, so every
residue is one digit and each ``% p`` divides by a one-digit divisor,
which CPython does in one pass over the dividend instead of by long
division; a 31-bit prime would make every residue two digits. Every
minor of an integer matrix that is nonzero mod p is nonzero over Q, so
the rank mod p is at most the rank over Q. It has three users.
``certify_rank`` decides a rank claim: a caller that already knows an
exact upper bound on the rank over Q learns the rank exactly when the
rank mod p reaches that bound, and runs the exact code whenever it falls
short. ``ideals`` walks
its relay mod p through it, once per tuple, to decide that the tuple is a
complete intersection; where the walk falls short, the exact relay
decides. ``kernel_mod_p`` finds a kernel basis mod p, bounds the kernel's
dimension over Q by the rank mod p, and lifts the basis to Q by rational
reconstruction (``rational_lift``). A basis found mod p is returned to
the user only after an exact proof: its caller checks each lifted row
against the rows over Q, and runs the exact elimination where the check
fails.

The echelon's rows are kept in stored form: 1 at the lead, every entry
in [1, p). A product of a stored row by a variable keeps that form, so
the relay hands each product over with the lead it already knows
(``insert_product``), as a handle: the rows one degree below, its
parent's lead there and the variable's column map. One leading where no
stored row does is stored as that handle, with no arithmetic and no row
written. ``formed_row`` writes its row, in place and so once, the first
time a reduction reads it, forming its unformed parents first. Most
stored rows are never read: the walk of a seeded complete intersection
at (3,4) forms 93 of the 417 rows it stores. Every other row, a product
repeating a lead (read straight into the accumulator through its column
map), a row of a span, a row of ``certify_rank``, is reduced in one
dense accumulator, from its lead rightwards, reducing mod p only the
entries it reads.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Optional

from .monomials import derivative_table, dim_graded, mono_index, product_index_table
from .polynomials import HomogeneousPolynomial
from .rationals import Q, ZERO

# The modulus of ``ModularEchelon`` and of every walk, rank and kernel mod p:
# 2^30 - 35, the largest prime below 2^30, so that every residue is a
# one-digit CPython int and each reduction mod p divides by one digit. Its
# lift bound isqrt(p // 2) = 23,170 is above the canonical W entries, which
# take at most 14 bits.
PRIME = 1_073_741_789


def integer_row(vec) -> tuple:
    """(D * vec, D): dense ``vec`` times the lcm D of its denominators, as a sparse int dict."""
    v = {j: x if isinstance(x, (int, Q)) else Q(x) for j, x in enumerate(vec) if x}
    den = lcm(*{x.denominator for x in v.values()})
    return {j: int(x.numerator) * (den // int(x.denominator)) for j, x in v.items()}, den


def poly_row(f: HomogeneousPolynomial) -> tuple:
    """(D * f, D): ``integer_row(f.coords())``, read straight off the terms of f.

    The sparse {column: int} row of f in mono_basis(n, degree) coordinates,
    times the lcm D of its coefficients' denominators; no dense vector and
    no new rational is formed.
    """
    idx, terms = mono_index(f.n, f.degree), f.terms
    den = lcm(*{c.denominator for c in terms.values()})
    return {idx[a]: c.numerator * (den // c.denominator) for a, c in terms.items()}, den


def derivative_rows(row: dict, n: int, k: int) -> list:
    """The rows d v / d x_0, ..., d v / d x_n in S_{k-1} of a sparse integer row v of S_k, k >= 1."""
    return [{hit[0]: hit[1] * x for j, x in row.items() if (hit := di[j])} for di in derivative_table(n, k)]


def _rational_row(row: dict, den: int, length: int) -> list:
    """The dense rational row ``row / den``, every entry of type Q."""
    out = [ZERO] * length
    for j, x in row.items():
        out[j] = Q(x, den)
    return out


def _primitive(v: dict, pivot: int) -> dict:
    """The primitive integer multiple of a nonzero sparse row ``v``, positive at ``pivot``."""
    g = gcd(*v.values()) if v[pivot] > 0 else -gcd(*v.values())
    return {j: x // g for j, x in v.items()} if g != 1 else v


def reduce_row(rows: dict, v: dict) -> tuple:
    """(L v - sum (L / a_p) v[p] row_p, L) for integer RREF ``rows`` {p: row_p}, L > 0.

    The rows are fully reduced, so one pass over the pivots v meets leaves
    the result zero at every pivot. v is never changed, only returned.
    """
    hits = [(rows[p], p, c) for p, c in v.items() if p in rows]
    if not hits:
        return v, 1
    scale = lcm(*(r[p] for r, p, _ in hits))
    v = {j: scale * x for j, x in v.items()} if scale != 1 else dict(v)
    for r, p, c in hits:
        m = scale // r[p] * c
        for j, y in r.items():
            x = v.get(j, 0) - m * y
            if x:
                v[j] = x
            else:
                del v[j]
    return v, scale


def formed_row(rows: dict, lead: int) -> dict:
    """The row ``rows[lead]`` of a ``ModularEchelon``, formed in place first if it is a handle.

    A handle (below, parent, times) stands for x_i times the row at
    ``parent`` of ``below``, the rows of the echelon one degree below,
    ``times`` being x_i's column map from ``product_index_table``: its row
    is {times[j]: x for j, x in below[parent].items()}. That row may be a
    handle too, so the chain is followed down to a formed row, and each
    handle on it is replaced by its row on the way back up: a row is
    formed at most once. The chain is walked in a loop, as it may be one
    link per degree of the walk.
    """
    row, chain = rows[lead], []
    while type(row) is tuple:
        chain.append((rows, lead, row[2]))
        rows, lead = row[0], row[1]
        row = rows[lead]
    for rows, lead, times in reversed(chain):
        row = rows[lead] = {times[j]: x for j, x in row.items()}
    return row


class ModularEchelon:
    """Echelon basis mod PRIME of a growing row space of integer rows.

    ``int_rows`` maps each leading column to its row, a sparse {column:
    entry} dict in stored form: entries in [1, PRIME), 1 at the lead and
    every other column right of it; or, for a row stored by
    ``insert_product``, a handle standing for that dict until
    ``formed_row`` forms it in place, the first time a reduction reads it.
    The basis is in echelon form only, not reduced: its leads, and so its
    dimension, are those of the RREF of the rows mod p, which is all its
    callers read. ``length`` is the ambient dimension, needed only by
    ``is_full``. A formed row is never changed, so rows may be shared.

    A row is reduced in one dense accumulator, a list as wide as the widest
    row seen so far (at least ``length``), kept zero between inserts. The
    reduction runs from the row's lead rightwards; an entry is reduced mod
    p only when the scan reads it, and a stored row is subtracted wherever
    it leads at a nonzero entry. The first nonzero entry at a lead no row
    has becomes a new row, scaled to 1 there.
    """

    __slots__ = ("length", "int_rows", "_acc")

    def __init__(self, length: int = 0):
        self.length = length
        self.int_rows: dict = {}
        self._acc = [0] * length

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    def is_full(self) -> bool:
        return len(self.int_rows) == self.length

    def insert(self, row: dict) -> bool:
        """Add a sparse {column: int} row, reduced mod p; True if the span grew."""
        if not row:
            return False
        acc, width = self._acc, max(row) + 1
        if width > len(acc):
            acc.extend([0] * (width - len(acc)))
        for j, x in row.items():
            acc[j] = x
        return self._reduce(min(row))

    def insert_product(self, handle: tuple, lead: int) -> bool:
        """Add the product of a handle (below, parent, times) leading at ``lead``; True if it grew.

        The handle stands for x_i times the row at ``parent`` of ``below``,
        the ``int_rows`` of an echelon one degree below, through x_i's
        column map ``times``, all columns below ``length``; in stored form
        like its parent. Where no stored row leads at ``lead`` the handle
        itself is stored, with no arithmetic and no row formed; otherwise
        its row is read into the accumulator, its parent formed in place
        first, and reduced like any other row.
        """
        rows = self.int_rows
        if lead not in rows:
            rows[lead] = handle
            return True
        below, parent, times = handle
        acc = self._acc
        for j, x in formed_row(below, parent).items():
            acc[times[j]] = x
        return self._reduce(lead)

    def _reduce(self, lead: int) -> bool:
        """Reduce the row in the accumulator, leading at ``lead``; store what is left, if anything."""
        p, rows, acc = PRIME, self.int_rows, self._acc
        width = len(acc)
        for j in range(lead, width):
            c = acc[j]
            if not c:
                continue
            acc[j] = 0
            c %= p
            if not c:
                continue
            r = rows.get(j)
            if r is None:
                inv = pow(c, -1, p)
                new = {j: 1}
                for i in range(j + 1, width):
                    if y := acc[i]:
                        acc[i] = 0
                        if y := y * inv % p:
                            new[i] = y
                rows[j] = new
                return True
            if type(r) is tuple:
                r = formed_row(rows, j)
            c = p - c
            for i, y in r.items():
                acc[i] += c * y
            acc[j] = 0
        return False


def rational_lift(x: int, bound: int) -> Optional[tuple]:
    """(a, b), b > 0, with |a|, b <= ``bound`` and a = b x mod PRIME; None if there is none.

    Rational reconstruction (Wang 1981): the extended Euclidean algorithm on
    (PRIME, x) keeps every remainder r = t x mod p, and the first r <= bound
    gives the candidate r / t. With 2 bound^2 < p the fraction is unique
    when it exists. 0 lifts to 0 / 1 and 1 to 1 / 1.
    """
    r0, r1, t0, t1 = PRIME, x % PRIME, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def kernel_mod_p(rows: Iterable, n: int, k: int, rank: int) -> Optional[Subspace]:
    """A candidate for the kernel in S_k of integer rows of rank ``rank``, found mod PRIME.

    The rows, sparse {column: int} dicts, go into a ``ModularEchelon`` with
    the columns reversed until its rank reaches ``rank``: no row is read
    after that, and None is returned if the rows run out first. Rank mod p
    is at most rank over Q, so reaching it proves that the kernel over Q
    has at most dim S_k - rank dimensions. Back-substitution mod p then
    gives the kernel vector of each free column q: 1 at q, 0 at every other
    free column, and, the columns being reversed, 0 left of q. In the
    normal column order that is a row of the RREF basis of the kernel mod
    p, by the argument of ``_kernel_vectors``; over Q, ``kernel_builder``
    reads the kernel the same way. Each entry is lifted by
    ``rational_lift`` with bound floor(sqrt(p / 2)); None if one does not
    lift.

    The result is the span of the lifted rows, which are in RREF, so it is
    canonical; but nothing proves it is the kernel over Q. The caller must
    prove that each row lies in the kernel: with the rank reached here, the
    span is then the kernel exactly.
    """
    p, width = PRIME, dim_graded(n, k)
    last = width - 1
    echelon, rows = ModularEchelon(width), iter(rows)
    while echelon.dim < rank:
        if (row := next(rows, None)) is None:
            return None
        echelon.insert({last - j: x % p for j, x in row.items()})
    stored, bound = echelon.int_rows, isqrt(p // 2)
    leads = sorted(stored, reverse=True)
    int_rows = {}
    for q in range(width):
        if q in stored:
            continue
        v = {q: 1}
        for lead in leads:
            if lead < q and (c := sum(x * v.get(j, 0) for j, x in stored[lead].items()) % p):
                v[lead] = p - c
        lifted = {}
        for j, x in v.items():
            if (frac := rational_lift(x, bound)) is None:
                return None
            lifted[last - j] = frac
        den = lcm(*(b for _, b in lifted.values()))
        int_rows[last - q] = {j: a * (den // b) for j, (a, b) in lifted.items()}
    return Subspace._canonical(n, k, int_rows, sorted(int_rows))


def certify_rank(rows: Iterable, bound: int) -> bool:
    """Whether integer rows (sparse {column: int} dicts) have rank ``bound`` mod PRIME.

    The rank mod p of an integer matrix is at most its rank over Q, so when
    ``bound`` is an upper bound on the rank over Q, True proves that the
    rank over Q is ``bound``. False proves nothing: the caller decides
    exactly. The rows go into a ``ModularEchelon``, and no row is read
    once the rank reaches the bound.
    """
    if bound <= 0:
        return True
    echelon = ModularEchelon()
    return any(echelon.insert(row) and echelon.dim == bound for row in rows)


class SpanBuilder:
    """Incremental reduced row-echelon basis of a growing row space.

    The state is always a full RREF (pivot columns cleared elsewhere, no
    zero rows). ``int_rows``, the only state besides ``length``, maps each
    pivot to its row's primitive integer multiple as a sparse {column:
    entry} dict; an RREF row is zero at every other pivot, so rows thin out
    as the span fills. Its keys are the pivots, which ``pivots`` reads in
    increasing order. The basis is the unique RREF of the row space,
    independent of insertion order, so results are deterministic and
    canonical. A stored row is replaced, never changed in place, so rows
    may be shared.
    """

    __slots__ = ("length", "int_rows")

    def __init__(self, length: int):
        self.length = length
        self.int_rows: dict = {}

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    @property
    def pivots(self) -> list:
        return sorted(self.int_rows)

    def is_full(self) -> bool:
        return len(self.int_rows) == self.length

    @property
    def rows(self) -> list:
        """The RREF basis as dense lists of rationals (pivot entries 1)."""
        rows = self.int_rows
        return [_rational_row(rows[p], rows[p][p], self.length) for p in self.pivots]

    def insert(self, vec) -> bool:
        """Add a dense vector or a sparse {column: int} dict (may be stored); True if it grew."""
        rows = self.int_rows
        v, _ = reduce_row(rows, vec if isinstance(vec, dict) else integer_row(vec)[0])
        if not v:
            return False
        pivot = min(v)
        v = _primitive(v, pivot)
        new = {pivot: v}
        for p, r in rows.items():
            if pivot in r:
                rows[p] = _primitive(reduce_row(new, r)[0], p)
        rows[pivot] = v
        return True

    def insert_product(self, handle: tuple, lead: int) -> bool:
        """``insert`` the row of a product handle (below, parent, times) of the relay, formed at once.

        An exact row must be reduced whatever its lead, so nothing is gained
        by keeping the handle; the rows below are exact ones, all formed.
        """
        below, parent, times = handle
        return self.insert({times[j]: x for j, x in below[parent].items()})


def _kernel_vectors(rows: dict, length: int):
    """For integer RREF ``rows``, one primitive kernel vector per free column q.

    Positive at q and zero at every other free column: L at q and
    -(L / a_p) row_p[q] at each pivot p, L the lcm of the a_p met. An RREF
    row is zero left of its pivot, so only pivots p < q are met, and the
    vector is zero right of q. So where the RREF was taken with the columns
    reversed, the vector read in the normal order is zero left of q and at
    every other free column, and positive at q: it is the primitive row at
    q of the kernel's RREF basis, and these rows are that basis, with no
    second elimination. ``kernel_builder`` reads the exact kernel this way,
    and ``kernel_mod_p`` the kernel mod p.
    """
    for q in range(length):
        if q not in rows:
            hits = [(p, r[q], r[p]) for p, r in rows.items() if q in r]
            scale = lcm(*(a for _, _, a in hits))
            yield _primitive({q: scale, **{p: -c * (scale // a) for p, c, a in hits}}, q)


def kernel_vectors(rows: Iterable, ncols: int, rank: Optional[int] = None) -> list:
    """``_kernel_vectors`` of the RREF of ``rows``: one elimination, a kernel basis of M.

    The rows of M, dense vectors or sparse {column: int} dicts, go into one
    ``SpanBuilder``. With ``rank`` given, no row is read once the rows so
    far reach that rank: the vectors then span the kernel of the rows read,
    which contains the kernel of M, and equals it when M has that rank.
    Each vector is that of its free column, in the columns as given; they
    are the kernel's RREF rows only where the columns were reversed, as in
    ``kernel_builder``. ``forms_with_partials_in`` reads them as they are,
    in the column order ``partials_rows`` chose for its speed.
    """
    reduced = SpanBuilder(ncols)
    for r in rows if rank != 0 else ():
        if reduced.insert(r) and reduced.dim == rank:
            break
    return list(_kernel_vectors(reduced.int_rows, ncols))


def kernel_builder(rows: Iterable, ncols: int, rank: Optional[int] = None) -> SpanBuilder:
    """Canonical integer RREF basis of {x : M x = 0} for M given by ``rows``, one elimination.

    ``kernel_vectors`` of the rows with their columns reversed, mapped back
    to the normal order: by the argument of ``_kernel_vectors`` each is
    already the primitive RREF row of the kernel at its free column, so the
    returned builder holds the kernel's unique RREF basis with no
    re-reduction. ``rank`` is read as by ``kernel_vectors``.
    """
    last, kernel = ncols - 1, SpanBuilder(ncols)
    flip = ({last - j: x for j, x in r.items()} if isinstance(r, dict) else r[::-1] for r in rows)
    for v in kernel_vectors(flip, ncols, rank):
        kernel.int_rows[last - max(v)] = {last - j: x for j, x in v.items()}
    return kernel


class Subspace:
    """A linear subspace of the graded piece S_k, canonical RREF basis.

    Stored as the integer rows ``SpanBuilder`` produced: ``int_rows`` maps
    each pivot to the primitive integer multiple of its RREF basis row, with
    positive pivot entry, as a sparse {column: int} dict in mono_basis(n, k)
    coordinates. The rows are shared with builders and other subspaces, so
    nothing may change them. ``rows``, the dense rational RREF basis, is
    formed on first read. RREF and its primitive integer form are unique,
    so equal subspaces have equal integer rows, and hashing agrees.
    """

    __slots__ = ("n", "k", "int_rows", "pivots", "_rows", "_hash")

    def __init__(self, n: int, k: int, rows: tuple, pivots: tuple):
        """Subspace spanned by ``rows``; ValueError unless they are its RREF basis at ``pivots``."""
        rows, builder = [list(r) for r in rows], SpanBuilder(dim_graded(n, k))
        if any(len(r) != builder.length or not builder.insert(r) for r in rows) or (
            builder.rows != rows or builder.pivots != list(pivots)
        ):
            raise ValueError("rows are not a reduced row-echelon basis with these pivots")
        self.n, self.k, self.int_rows, self.pivots = n, k, builder.int_rows, tuple(pivots)
        self._rows = self._hash = None

    @classmethod
    def from_builder(cls, n: int, k: int, builder: SpanBuilder) -> "Subspace":
        """The subspace spanned by a builder, sharing its current rows."""
        if builder.length != dim_graded(n, k):
            raise ValueError("builder length does not match ambient dimension")
        return cls._canonical(n, k, dict(builder.int_rows), builder.pivots)

    @classmethod
    def _canonical(cls, n: int, k: int, int_rows: dict, pivots) -> "Subspace":
        """The subspace whose canonical integer rows {pivot: row} are ``int_rows``, unchecked.

        Each row must be the primitive integer multiple, positive at its
        pivot, of a row of an RREF basis, and ``pivots`` their pivots in
        increasing order; the dict is kept, not copied.
        """
        sub = cls.__new__(cls)
        sub.n, sub.k, sub.int_rows, sub.pivots = n, k, int_rows, tuple(pivots)
        sub._rows = sub._hash = None
        return sub

    @property
    def rows(self) -> tuple:
        """The RREF basis as dense tuples of rationals (pivot entries 1)."""
        if self._rows is None:
            amb, rows = self.ambient_dim, self.int_rows
            self._rows = tuple(tuple(_rational_row(rows[p], rows[p][p], amb)) for p in self.pivots)
        return self._rows

    @property
    def ambient(self) -> tuple:
        return (self.n, self.k)

    @property
    def ambient_dim(self) -> int:
        return dim_graded(self.n, self.k)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def is_full(self) -> bool:
        return len(self.pivots) == self.ambient_dim

    def reduce(self, vec) -> list:
        """Residual of a coordinate vector modulo this subspace, entries of type Q."""
        if len(vec) != self.ambient_dim:
            raise ValueError(f"vector has length {len(vec)}, expected {self.ambient_dim}")
        v, den = integer_row(vec)
        v, scale = reduce_row(self.int_rows, v)
        return _rational_row(v, den * scale, len(vec))

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains_poly(self, f: HomogeneousPolynomial) -> bool:
        if (f.n, f.degree) != self.ambient:
            raise ValueError(f"ambient mismatch: {(f.n, f.degree)} vs {self.ambient}")
        return not reduce_row(self.int_rows, poly_row(f)[0])[0]

    def basis_polynomials(self) -> tuple:
        return tuple(HomogeneousPolynomial.from_coords(self.n, self.k, row) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.int_rows == other.int_rows

    def __hash__(self):
        if self._hash is None:
            r = self.int_rows
            self._hash = hash((self.ambient, tuple(frozenset(r[p].items()) for p in self.pivots)))
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
    """All of S_k: the unit rows, each its own pivot, built without elimination."""
    size = dim_graded(n, k)
    return Subspace._canonical(n, k, {i: {i: 1} for i in range(size)}, range(size))


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
    return span_vectors(n, k, (poly_row(f)[0] for f in polys))


def contains(a: Subspace, b: Subspace) -> bool:
    """Whether a contains b (decided on canonical bases)."""
    _check_same_ambient(a, b)
    return not any(reduce_row(a.int_rows, row)[0] for row in b.int_rows.values())


def annihilator(e: Subspace) -> list:
    """Integer functionals spanning those that vanish on E, as sparse dicts.

    One per nonpivot q of the RREF basis: the kernel vectors of the basis
    matrix. A vector lies in E exactly when every one of them vanishes on it.
    """
    return list(_kernel_vectors(e.int_rows, e.ambient_dim))


def colon_rows(duals, n: int, k: int, degree: int):
    """Integer rows of c |-> (c * u mod E) over u in S_{k-degree}, E in S_k, lazily.

    ``duals`` are functionals on S_k, sparse {column: int} dicts, that cut
    out E. One row per monomial u and functional nu, with entry
    nu(u * m_j) at each column j of S_degree: the kernel is the colon
    (E : S_{k-degree}) in S_degree. Each u adds its rows only when they
    are read.

    Three users: ``recover_generators`` reads W = (E : S_{k-d+1})_{d-1}
    with E cut out by ``annihilator(E)``; ``apolar_piece`` and
    ``verify_inverse_system`` read Ann(F)_k = (F^perp : S_{T-k})_k with
    F^perp cut out by the one functional of F's weighted coefficients, and
    the rows are then F's catalecticant at k.
    """
    for tu in product_index_table(n, k - degree, degree):
        for nu in duals:
            yield {i: nu[t] for i, t in enumerate(tu) if t in nu}


def in_colon(duals, n: int, k: int, degree: int, span: Subspace) -> bool:
    """Whether span lies in the colon (E : S_{k-degree}), E in S_k cut out by ``duals``.

    The exact check that every functional nu_i of ``duals`` vanishes on
    c * u for each integer basis row c of span and each monomial u of
    S_{k-degree}. The functionals are packed into one integer per monomial
    t of S_k, P_t = sum_i nu_i[t] 2^(s i) (Kronecker substitution), so that
    sum_j c_j P_{t_j} = sum_i nu_i(c * u) 2^(s i) for the monomials t_j of
    c * u. Each |nu_i(c * u)| is below 2^(s-1), so that sum is zero exactly
    when every nu_i(c * u) is: one integer per product instead of one per
    functional. Stops at the first product outside E.

    ``recover_generators`` proves with it that a kernel found mod p is W,
    and ``verify_inverse_system`` that W annihilates its associated form.
    """
    basis = span.int_rows.values()
    top = max((abs(x) for nu in duals for x in nu.values()), default=0)
    s = (top * max(sum(map(abs, c.values())) for c in basis)).bit_length() + 1
    packed = [0] * dim_graded(n, k)
    for i, nu in enumerate(duals):
        for t, x in nu.items():
            packed[t] += x << (s * i)
    for tu in product_index_table(n, k - degree, degree):
        for c in basis:
            if sum(x * packed[tu[j]] for j, x in c.items()):
                return False
    return True


def map_kernel(matrix_rows, n: int, k: int) -> Subspace:
    """Kernel in S_k of a map given by a matrix with dim(S_k) columns."""
    return Subspace.from_builder(n, k, kernel_builder(matrix_rows, dim_graded(n, k)))
