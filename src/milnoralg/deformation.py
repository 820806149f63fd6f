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

and the kernel at a tuple is n+1 copies of C_k / W. At a complete
intersection C_k = W for every d-1 <= k <= T, T = (n+1)(d-2)
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
otherwise the kernel does not depend on k either: its basis, the integer
rows of the exact fiber reduced against the row of f and brought to RREF,
is built once per form (``_fiber_mod_f``) and read at every k. The exact colon
piece is kept only as a reference in the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import PreconditionError
from .ideals import GeneratorTuple, check_degree, is_complete_intersection, is_smooth, jacobian_gens
from .linalg import poly_row, reduce_row, span_polys, span_vectors
from .monomials import dim_graded
from .polynomials import HomogeneousPolynomial
from .reconstruction import fiber_is_line, forms_with_partials_in


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

    @classmethod
    def _reduced(cls, f: HomogeneousPolynomial, h: HomogeneousPolynomial) -> "PolyTangentVector":
        """The vector of an h already zero at the pivot of f's line, taken as it is, unchecked."""
        vec = cls.__new__(cls)
        vec.f, vec.h = f, h
        return vec

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


def _check_tuple_pre(w: GeneratorTuple, k: int):
    check_degree(w.n, w.d, k)
    if not is_complete_intersection(w):
        raise PreconditionError("generator tuple is not a complete intersection")


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
    """Canonical basis of the fiber of f modulo the line through f.

    The kernel of ``tangent_kernel_at_poly`` at every k, built once per form,
    on integer rows: each fiber form's row (``poly_row``) reduced against
    the row of f by ``reduce_row``, then the sparse rows brought to RREF.
    Every reduced row is zero at the pivot of f's row, and so is every row
    of their RREF basis, which is the RREF of the quotient coordinates,
    lifted back: each basis form is already reduced against the line, and
    is taken as it is (``PolyTangentVector._reduced``).
    """
    row, _ = poly_row(f)
    line = {min(row): row}
    fiber = forms_with_partials_in(jacobian_gens(f).span)
    reduced = span_vectors(f.n, f.degree, (reduce_row(line, poly_row(h)[0])[0] for h in fiber))
    return tuple(PolyTangentVector._reduced(f, h) for h in reduced.basis_polynomials())


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
    check_degree(n, d, k)
    if not is_smooth(f):
        raise PreconditionError("polynomial is not smooth")
    tangent_dim = dim_graded(n, d) - 1
    if fiber_is_line(jacobian_gens(f).span):
        return KernelReport(k, tangent_dim, 0, ())
    basis = _fiber_mod_f(f)
    return KernelReport(k, tangent_dim, len(basis), basis)
