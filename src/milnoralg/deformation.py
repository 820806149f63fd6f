"""Tangent maps of the graded piece assignments, and their kernels.

Moving a generator tuple W infinitesimally by h = (h_0, ..., h_n), taken
modulo span(W) componentwise, moves the degree-k ideal piece inside the
quotient S_k / (I_W)_k. Writing each basis vector of (I_W)_k as
b = sum_i u_i g_i, the induced map sends b to sum_i u_i h_i modulo
(I_W)_k. The choice of the u_i is immaterial: two representations differ
by a syzygy of the g_i. For a complete intersection every syzygy is a
combination of the Koszul ones g_j e_i - g_i e_j (the g_i form a regular
sequence, so their Koszul complex is exact), whose images
g_j h_i - g_i h_j already lie in I_W, so the ambiguity dies in the
quotient. ``suite`` checks this on random tuples and directions.

No matrix of that map is built: the kernels do not need one. The map is
fixed by its values on the spanning vectors u * g_i (u a monomial of
degree k-d+1), which it sends to u * h_i. So h is in the kernel exactly
when every h_i lies in the colon piece

    C_k = ((I_W)_k : S_{k-d+1})_{d-1} = {c in S_{d-1} : c * S_{k-d+1} in (I_W)_k},

and the kernel at a tuple is n+1 copies of C_k / W (``colon_piece``).
C_k always contains W, and the colons grow with k for every ideal: if
c * S_{k-d+1} lies in I_k, then c * S_{k-d+2} lies in S_1 * I_k = I_{k+1}.
So C_T = W gives W = C_k = C_T at every d-1 <= k <= T, T = (n+1)(d-2) the
socle degree. At a complete intersection C_T = W does hold, by Gorenstein
duality: the quotient algebra A pairs A_{d-1} perfectly with A_{T-d+1},
so a class killed by A_{T-d+1} is zero.

That one colon is proved mod p, once per span (``_certified``, cached).
It reads the walk of the relay mod ``linalg.PRIME`` that also decides the
complete-intersection test, ``ideals.socle_functional_mod_p``, cached per
span, so a tuple whose test has already run walks nothing again:

* Where that walk reaches b(T) at T and fills S_{T+1}, W is a complete
  intersection, and the one functional nu it leaves at T vanishes on the
  reduction of every integer vector of (I_W)_T (the docstring there says
  why).
* Every integer c in C_T has c * u in (I_W)_T meet Z^N for each monomial
  u of degree T-d+1, so its reduction lies in the colon mod p,
  {c : nu(c * u) = 0 for all u}. The lattice C_T meet Z^M is saturated, so
  its reduction has dimension dim C_T. Every pivot entry of W's integer
  rows must be nonzero mod p; then W mod p has W's pivots and lies in the
  colon mod p, and when the rows nu(u * m_j) on the nonpivot monomials m_j
  of W have full column rank mod p (``linalg.certify_rank``), the colon
  mod p is W mod p. Hence dim C_T <= n+1, and C_T = W.

When the certificate holds, the tuple kernel is empty and the form
kernel is the fiber modulo f, with no exact piece and no exact colon.
When it falls short (a pivot entry divisible by p, a walk short of
b(T) or of S_{T+1}, or colon rows short of full rank mod p), the exact
code runs: the complete-intersection or smoothness test decides the
precondition, and C_k is computed from the exact piece by the
``reconstruction.colon_rows`` that recover W from a piece, over the
nonpivot monomials of W only, stopping at full rank. No prime is
skipped, and only the booleans of the certificate are decided mod p.

Moving a polynomial f by h in S_d modulo the line through f moves its
Jacobian tuple by the partials of h, so the kernel there is
{h in S_d : every partial of h lies in C_k} modulo f. With C_k = W this
is the fiber of ``reconstruction.fiber`` modulo the line through f,
which the fiber always contains (Euler identity): the kernel vanishes at
a smooth non-direct-sum form and has dimension exactly s - 1 at a direct
sum with s summands. Whether it vanishes is decided once per span by
``reconstruction.fiber_is_line``, a rank certificate mod p with the
exact fiber as its fallback. When both certificates hold, the report is
the zero kernel at every k, and neither the fiber nor the quotient by f
is built; otherwise the kernel is read off the exact fiber, cached per
span, modulo f.
"""

from __future__ import annotations

from typing import NamedTuple

from functools import lru_cache

from . import linalg
from .errors import PreconditionError
from .ideals import (
    GeneratorTuple,
    check_size,
    ideal_piece,
    is_complete_intersection,
    is_smooth,
    jacobian_gens,
    socle_degree,
    socle_functional_mod_p,
)
from .linalg import (
    QuotientMap,
    Subspace,
    annihilator,
    certify_rank,
    nullspace,
    rref,
    span_polys,
    span_vectors,
)
from .monomials import dim_graded, mono_basis
from .polynomials import HomogeneousPolynomial
from .reconstruction import colon_rows, fiber_is_line, forms_with_partials_in


class TupleTangentVector:
    """A tangent direction at a generator tuple: n+1 forms modulo span(W).

    The stored parts are the canonical representatives, each reduced
    against the echelon basis of span(W), so a direction is zero exactly
    when every stored part is the zero form.
    """

    __slots__ = ("w", "parts")

    def __init__(self, w: GeneratorTuple, parts):
        parts = tuple(parts)
        if len(parts) != w.n + 1:
            raise ValueError(f"expected {w.n + 1} parts, got {len(parts)}")
        span = w.span
        reduced = []
        for p in parts:
            if p.n != w.n or p.degree != w.d - 1:
                raise ValueError("tangent parts must be forms of the generator degree")
            reduced.append(
                HomogeneousPolynomial.from_coords(w.n, w.d - 1, span.reduce(p.coords()))
            )
        self.w = w
        self.parts = tuple(reduced)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __repr__(self):
        return f"TupleTangentVector({', '.join(str(p) for p in self.parts)})"


class PolyTangentVector:
    """A tangent direction at a polynomial: a form in S_d modulo the line f.

    Canonical representative: the coefficient of f's leading monomial is
    zero after reduction.
    """

    __slots__ = ("f", "h")

    def __init__(self, f: HomogeneousPolynomial, h: HomogeneousPolynomial):
        if (h.n, h.degree) != (f.n, f.degree):
            raise ValueError("tangent representative must share the ambient of f")
        line = span_polys([f])
        self.f = f
        self.h = HomogeneousPolynomial.from_coords(f.n, f.degree, line.reduce(h.coords()))

    def is_zero(self) -> bool:
        return self.h.is_zero()

    def __repr__(self):
        return f"PolyTangentVector({self.h})"


class KernelReport(NamedTuple):
    """Exact kernel of a tangent map at one degree k, canonical basis."""

    k: int
    tangent_dim: int
    kernel_dim: int
    basis: tuple


def _check_degree(n: int, d: int, k: int):
    check_size(n, d)
    top = socle_degree(n, d)
    if not d - 1 <= k <= top:
        raise ValueError(f"need d-1 <= k <= {top}, got k={k}")


def _check_tuple_pre(w: GeneratorTuple, k: int):
    _check_degree(w.n, w.d, k)
    if not is_complete_intersection(w):
        raise PreconditionError("generator tuple is not a complete intersection")


@lru_cache(maxsize=256)
def _certified(span: Subspace) -> bool:
    """Whether a walk mod p proves span(W) a complete intersection with C_T = W.

    The certificate of the module docstring: True proves both claims
    exactly, so that C_k = W at every d-1 <= k <= T. False proves nothing,
    and the caller runs the exact code. Cached per span; read only.
    """
    if any(row[q] % linalg.PRIME == 0 for q, row in span.int_rows.items()):
        return False
    nu = socle_functional_mod_p(span)
    if nu is None:
        return False
    nonpivots = QuotientMap(span).nonpivots
    rows = colon_rows([nu], span.n, socle_degree(span.n, span.k + 1), span.k, nonpivots)
    return certify_rank(rows, len(nonpivots))


def _colon_mod_span(w: GeneratorTuple, k: int) -> tuple:
    """C / W for the colon piece C, in ``QuotientMap(w.span)`` coordinates.

    Returns (that quotient map, canonical basis): the kernel of
    ``colon_rows`` on the nonpivot monomials of span(W). C contains W, so
    these columns see all of C / W, and rows stop being read once they
    have full rank, which leaves no kernel to miss.
    """
    gq = QuotientMap(w.span)
    rows = colon_rows(annihilator(ideal_piece(w, k)), w.n, k, w.d - 1, gq.nonpivots)
    return gq, nullspace(rows, gq.dim, gq.dim)


def _from_quotient_coords(qm: QuotientMap, n: int, degree: int, vec) -> HomogeneousPolynomial:
    monos = mono_basis(n, degree)
    return HomogeneousPolynomial(n, degree, {monos[j]: c for j, c in zip(qm.nonpivots, vec) if c})


def colon_piece(w: GeneratorTuple, k: int) -> Subspace:
    """C = ((I_W)_k : S_{k-(d-1)})_{d-1}, canonical basis, for k >= d-1.

    The forms c of the generator degree with c * u in (I_W)_k for every
    monomial u of degree k-(d-1). Contains span(W); equal to it at a
    complete intersection for d-1 <= k <= T.
    """
    gq, extra = _colon_mod_span(w, k)
    lifted = [_from_quotient_coords(gq, w.n, w.d - 1, v).coords() for v in extra]
    return span_vectors(w.n, w.d - 1, [*w.span.int_rows.values(), *lifted])


def tangent_kernel_at_tuple(w: GeneratorTuple, k: int) -> KernelReport:
    """Kernel of the tangent map of W |-> (I_W)_k at a complete intersection.

    The tangent space has dimension (n+1) * (dim S_{d-1} - (n+1)); the
    kernel is n+1 copies of C / W for the colon piece C, so its canonical
    basis is the basis of C / W placed in each part in turn. It vanishes
    for every complete intersection and every k between d-1 and the socle
    degree. Where ``_certified`` proves that, no piece is computed exactly.
    """
    _check_degree(w.n, w.d, k)
    n = w.n
    if _certified(w.span):
        gq, block = QuotientMap(w.span), []
    else:
        _check_tuple_pre(w, k)
        gq, block = _colon_mod_span(w, k)
    zero = HomogeneousPolynomial.zero(n, w.d - 1)
    forms = [_from_quotient_coords(gq, n, w.d - 1, v) for v in block]
    basis = tuple(
        TupleTangentVector(w, [form if i == slot else zero for i in range(n + 1)])
        for slot in range(n + 1)
        for form in forms
    )
    return KernelReport(k, (n + 1) * gq.dim, len(basis), basis)


def tangent_kernel_at_poly(f: HomogeneousPolynomial, k: int) -> KernelReport:
    """Kernel of the tangent map of f |-> degree-k Jacobian piece.

    Computed in S_d modulo the line through f, so the tangent space has
    dimension dim(S_d) - 1. The kernel is {h : every partial of h lies in
    the colon piece} modulo f: zero for a smooth non-direct-sum f, and of
    dimension s - 1 for a direct sum with s summands. Where ``_certified``
    proves the Jacobian tuple a complete intersection with colon W, f is
    smooth and the kernel is the fiber modulo f: zero where
    ``fiber_is_line`` holds, and otherwise the cached exact fiber modulo f.
    """
    n, d = f.n, f.degree
    _check_degree(n, d, k)
    try:
        w = jacobian_gens(f)
    except PreconditionError:
        w = None  # a cone: dependent partials, which ``is_smooth`` refuses
    certified = w is not None and _certified(w.span)
    if not certified and not is_smooth(f):
        raise PreconditionError("polynomial is not smooth")
    if certified and fiber_is_line(w.span):
        return KernelReport(k, dim_graded(n, d) - 1, 0, ())

    fq = QuotientMap(span_polys([f]))
    preimage = forms_with_partials_in(w.span if certified else colon_piece(w, k))
    kernel_vectors, _ = rref([fq.coords(h.coords()) for h in preimage])
    basis = tuple(
        PolyTangentVector(f, _from_quotient_coords(fq, n, d, vec)) for vec in kernel_vectors
    )
    return KernelReport(k, fq.dim, len(basis), basis)
