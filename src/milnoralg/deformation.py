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
At a complete intersection C_k = W for every d-1 <= k <= T, T = (n+1)(d-2)
the socle degree, by Gorenstein duality: the quotient algebra A is
Artinian Gorenstein with socle degree T, so the pairing
A_{d-1} x A_{T-d+1} -> A_T is perfect, and A_{T-d+1} = A_{T-k} * A_{k-d+1}.
A class of A_{d-1} killed by A_{k-d+1} is therefore killed by A_{T-d+1},
so it is zero. The kernel at a tuple is empty, and the only thing to
decide is the precondition: ``is_complete_intersection``, by the cached
walk mod p of ``ideals.ci_walk_mod_p`` with the exact fill at T+1 as its
fallback. No piece and no colon is computed.

Moving a polynomial f by h in S_d modulo the line through f moves its
Jacobian tuple by the partials of h, so the kernel there is
{h in S_d : every partial of h lies in C_k} modulo f. f is smooth exactly
when its Jacobian tuple is a complete intersection, so C_k = W, and the
kernel is the fiber of ``reconstruction.fiber`` modulo the line through
f, which the fiber always contains (Euler identity): it vanishes at a
smooth non-direct-sum form and has dimension exactly s - 1 at a direct
sum with s summands. Whether it vanishes is decided once per span by
``reconstruction.fiber_is_line``, a rank certificate mod p with the
exact fiber as its fallback. When it holds, the report is the zero kernel
at every k, and neither the fiber nor the quotient by f is built;
otherwise the kernel does not depend on k either: its basis, the exact
fiber modulo f, is built once per form (``_fiber_mod_f``) and read at
every k.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import PreconditionError
from .ideals import (
    GeneratorTuple,
    check_size,
    ideal_piece,
    is_complete_intersection,
    is_smooth,
    jacobian_gens,
    socle_degree,
)
from .linalg import (
    QuotientMap,
    Subspace,
    annihilator,
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
    kernel is n+1 copies of C / W for the colon piece C, which Gorenstein
    duality makes W itself at every k between d-1 and the socle degree.
    So the kernel vanishes, and only the precondition is computed.
    """
    _check_tuple_pre(w, k)
    n = w.n
    return KernelReport(k, (n + 1) * (dim_graded(n, w.d - 1) - (n + 1)), 0, ())


@lru_cache(maxsize=256)
def _fiber_mod_f(f: HomogeneousPolynomial) -> tuple:
    """(dim S_d - 1, canonical basis of the fiber of f modulo the line through f).

    The kernel of ``tangent_kernel_at_poly`` at every k, built once per form.
    """
    fq = QuotientMap(span_polys([f]))
    fiber = forms_with_partials_in(jacobian_gens(f).span)
    kernel_vectors, _ = rref([fq.coords(h.coords()) for h in fiber])
    basis = tuple(
        PolyTangentVector(f, _from_quotient_coords(fq, f.n, f.degree, vec)) for vec in kernel_vectors
    )
    return fq.dim, basis


def tangent_kernel_at_poly(f: HomogeneousPolynomial, k: int) -> KernelReport:
    """Kernel of the tangent map of f |-> degree-k Jacobian piece.

    Computed in S_d modulo the line through f, so the tangent space has
    dimension dim(S_d) - 1. The kernel is {h : every partial of h lies in
    the colon piece} modulo f, and the colon piece of a smooth f is its
    Jacobian span W: the kernel is the fiber over W modulo f, the same at
    every k. It is zero where ``fiber_is_line`` holds, and otherwise the
    exact fiber modulo f, of dimension s - 1 for a direct sum with s
    summands, cached per form.
    """
    n, d = f.n, f.degree
    _check_degree(n, d, k)
    if not is_smooth(f):
        raise PreconditionError("polynomial is not smooth")
    if fiber_is_line(jacobian_gens(f).span):
        return KernelReport(k, dim_graded(n, d) - 1, 0, ())
    tangent_dim, basis = _fiber_mod_f(f)
    return KernelReport(k, tangent_dim, len(basis), basis)
