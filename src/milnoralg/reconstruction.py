"""Recovering generator tuples and polynomials from one graded piece.

A degree-k piece E = (I_W)_k of a complete-intersection ideal, with
d-1 <= k <= T, gives back W as the colon piece
(E : S_{k-d+1})_{d-1} = {c in S_{d-1} : c * S_{k-d+1} in E}. It contains
W, and by Gorenstein duality nothing more: the quotient algebra A pairs
A_{d-1} perfectly with A_{T-d+1} = A_{T-k} * A_{k-d+1}. So W comes from
one small linear system, with no lift of E to higher degrees. That system
is solved mod p and proved exactly: the rank mod p bounds the colon's
dimension by n+1, its kernel mod p is lifted to Q by rational
reconstruction, which fits because the canonical basis of W has small
entries, and one exact product check per basis row and monomial puts the
lift in the colon. Only where that falls short is the system eliminated
exactly. The fiber
step solves {g in S_d : all partials of g lie in W}: the line through f
for a smooth form that is not a direct sum, and the span of the summands,
whose dimension counts them, for a direct sum. It is solved on the
partials, not on g: the gradients are the tuples (h_i) in W^{n+1} with
d h_i / d x_l = d h_l / d x_i, and g = sum_i x_i h_i / d inverts the map
(Euler identity), so the system has (n+1) * dim W unknowns instead of
dim S_d. Where only the dimension matters, whether it is 1,
``fiber_is_line`` decides it by a rank mod p of the same rows and solves
the fiber exactly only where that rank falls short.

Input validation is mandatory: the maps inverted here are only defined
on complete-intersection input, so the dimension of E, the colon and the
complete-intersection test of the recovered tuple are all checked before
a result is returned. Together they prove (I_W)_k = E with no round trip:
the colon gives W * S_{k-d+1} in E, so (I_W)_k lies in E, and a complete
intersection has dim (I_W)_k = b(k) = dim E.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import PreconditionError
from .ideals import (
    GeneratorTuple,
    check_degree,
    hilbert_profile,
    is_complete_intersection,
    is_smooth,
    jacobian_gens,
    partials_piece,
)
from .linalg import (
    Subspace,
    annihilator,
    certify_rank,
    colon_rows,
    contains,
    derivative_rows,
    in_colon,
    kernel_builder,
    kernel_mod_p,
    kernel_vectors,
    span_polys,
    span_vectors,
)
from .monomials import dim_graded, product_index_table
from .polynomials import HomogeneousPolynomial


class FiberResult(NamedTuple):
    """Canonical basis of {g in S_d : all partials of g lie in span(W)}.

    ``s`` is the dimension; it is 1 exactly when the source polynomial is
    determined up to scalar, and otherwise counts the summands of the
    finest direct-sum decomposition. The reported space is the full linear
    span; the subset with all summand coefficients nonzero is the open
    part actually sharing the same Jacobian pieces.
    """

    d: int
    basis: tuple

    @property
    def s(self) -> int:
        return len(self.basis)

    def spanned(self) -> Subspace:
        if not self.basis:
            raise ValueError("empty fiber has no span")
        return span_polys(self.basis)


class ContainmentCheck(NamedTuple):
    """Outcome of a containment test between Jacobian pieces."""

    hypothesis_holds: bool
    conclusion_holds: Optional[bool]


def recover_generators(e: Subspace, k: int, n: int, d: int) -> GeneratorTuple:
    """Invert the piece map: from E = (I_W)_k back to the subspace W.

    W is the colon C = (E : S_{k-d+1})_{d-1}, the kernel of ``colon_rows``
    on S_{d-1}, found mod p and proved exactly. ``kernel_mod_p`` reads rows
    until their rank mod p leaves n+1 dimensions, which proves
    dim C <= n+1, and lifts the canonical basis K of the kernel mod p to
    Q. ``in_colon`` then proves K in C, so K = C, with no exact
    elimination. Where the rank mod p falls short, a lift fails or the
    check fails, the rows are eliminated exactly up to the same rank, once
    (``kernel_builder``): the kernel K of the rows read contains C, and
    ``in_colon`` proves K = C.

    Valid input E = (I_W')_k has C = W' of dimension n+1, so it is never
    rejected. A colon of any other size is refused before a piece is grown
    from it; then C must be a complete intersection
    (``is_complete_intersection``, mod p where it can be). That makes E the
    degree-k piece of C, with no piece grown: C * S_{k-d+1} lies in E, so
    (I_C)_k does, and dim (I_C)_k = b(k) = dim E, checked on entry.
    Failures raise PreconditionError.
    """
    if (e.n, e.k) != (n, k):
        raise ValueError(f"subspace lives in {(e.n, e.k)}, not {(n, k)}")
    check_degree(n, d, k)
    profile = hilbert_profile(n, d)
    if e.dim != profile.b(k):
        raise PreconditionError(
            f"dimension {e.dim} does not match the expected piece dimension {profile.b(k)}"
        )

    duals = annihilator(e)
    width = dim_graded(n, d - 1)
    rank = width - (n + 1)
    span = kernel_mod_p(colon_rows(duals, n, k, d - 1), n, d - 1, rank)
    if span is None or not in_colon(duals, n, k, d - 1, span):
        kernel = kernel_builder(colon_rows(duals, n, k, d - 1), width, rank)
        span = Subspace.from_builder(n, d - 1, kernel)
        if span.dim != n + 1 or not in_colon(duals, n, k, d - 1, span):
            raise PreconditionError(
                f"colon piece in the generator degree is not of dimension {n + 1}"
            )
    w = GeneratorTuple._from_span(span)
    if not is_complete_intersection(w):
        raise PreconditionError("recovered generators are not a complete intersection")
    return w


def partials_rows(e: Subspace):
    """Integer rows of the integrability system over E in S_k, lazily.

    The unknowns are the coefficients A_ij of n+1 forms h_i = sum_j A_ij w_j
    of E, w_j the integer basis rows of E in pivot order. One row per pair
    i < l of variables and monomial of S_{k-1}: the coefficient there of
    d h_i / d x_l - d h_l / d x_i. The kernel is the set of tuples (h_i) in
    E^{n+1} that are the partials of one form. The unknowns are numbered
    last to first, A_ij at column (n+1) * dim E - 1 - (i * dim E + j): that
    order eliminates faster than the natural one, by about a quarter at
    (3,3) and (4,4), mod p and exactly alike. The exact fiber takes the
    free-column kernel vectors of one elimination in this order
    (``linalg.kernel_vectors``), not the kernel's RREF: reversing the
    columns once more, as ``kernel_builder`` does, would eliminate in the
    slow order.
    """
    if e.k == 0:  # constant h_i have zero partials: every tuple is a gradient
        return
    n, m = e.n, e.dim
    last = (n + 1) * m - 1
    # d w_j / d x_i for each basis row and variable, as {monomial of S_{k-1}: int}
    partials = [derivative_rows(e.int_rows[p], n, e.k) for p in e.pivots]
    for i in range(n + 1):
        for l in range(i + 1, n + 1):
            rows: dict = {}
            for j, dw in enumerate(partials):
                for t, x in dw[l].items():
                    rows.setdefault(t, {})[last - i * m - j] = x
            for j, dw in enumerate(partials):
                for t, x in dw[i].items():
                    rows.setdefault(t, {})[last - l * m - j] = -x
            yield from rows.values()


@lru_cache(maxsize=256)
def forms_with_partials_in(e: Subspace) -> tuple:
    """Canonical basis of {g in S_{k+1} : all partials of g lie in E}, E in S_k.

    g |-> (d g / d x_i) is injective on S_{k+1}, and its image is the kernel
    of ``partials_rows``: a tuple (h_i) with d h_i / d x_l = d h_l / d x_i
    is the gradient of g = sum_i x_i h_i / (k+1), since (k+1) d g / d x_l =
    h_l + sum_i x_i d h_i / d x_l = h_l + sum_i x_i d h_l / d x_i, which is
    (k+1) h_l by Euler's identity on h_l. So the fiber is that exact kernel,
    one elimination of the rows and a vector per free column, mapped through
    sum_i x_i h_i and brought to its RREF basis. Cached on E, so
    the reconstructions and direct-sum tangent kernels at every k over one
    W, which all ask for the same E = span(W), solve it once.
    """
    n, m = e.n, e.dim
    last = (n + 1) * m - 1
    basis = [e.int_rows[p] for p in e.pivots]
    times = product_index_table(n, 1, e.k)
    forms = []
    for a in kernel_vectors(partials_rows(e), last + 1):
        g = {}
        for col, c in a.items():
            i, j = divmod(last - col, m)
            for s, x in basis[j].items():
                t = times[i][s]
                g[t] = g.get(t, 0) + c * x
        forms.append({t: x for t, x in g.items() if x})
    return span_vectors(n, e.k + 1, forms).basis_polynomials()


@lru_cache(maxsize=256)
def fiber_is_line(e: Subspace) -> bool:
    """Whether {g in S_{k+1} : all partials of g lie in E} has dimension at most 1.

    The fiber is the kernel of ``partials_rows``, on (n+1) * dim E
    columns. Meant for E the Jacobian span of a form f, whose fiber
    contains f: there the rows have rank at most (n+1) * dim E - 1 over Q,
    so a rank mod p that reaches it (``linalg.certify_rank``) proves the
    fiber is the line of f, with no exact elimination. Where the rank mod
    p falls short, as it must at a direct sum, the exact fiber of
    ``forms_with_partials_in`` decides. Cached on E; only the boolean is
    decided mod p.
    """
    if certify_rank(partials_rows(e), (e.n + 1) * e.dim - 1):
        return True
    return len(forms_with_partials_in(e)) <= 1


def fiber(w: GeneratorTuple, d: int) -> FiberResult:
    """All degree-d forms whose partials all lie in span(W), canonical basis.

    When W is the Jacobian tuple of some f the fiber contains f itself
    (Euler identity), so s >= 1.
    """
    if d != w.d:
        raise ValueError(f"degree {d} does not match tuple degree {w.d}")
    return FiberResult(d, forms_with_partials_in(w.span))


def reconstruct_poly(e: Subspace, k: int, n: int, d: int) -> FiberResult:
    """Reconstruct polynomial(s) from one graded piece of a Jacobian ideal.

    Returns the fiber over the recovered tuple: a single normalized
    polynomial (s = 1) unless the source was a direct sum, in which case
    the full fiber is returned.
    """
    return fiber(recover_generators(e, k, n, d), d)


def _reference_fault(f: HomogeneousPolynomial) -> Optional[str]:
    """Why f cannot be a containment reference, or None.

    Not cached: the walk and the fiber certificate it reads are, so each
    reference is decided once.
    """
    if not is_smooth(f):
        return "reference polynomial is not smooth"
    if not fiber_is_line(jacobian_gens(f).span):
        return "reference polynomial is a direct sum"
    return None


def containment_implies_equal(
    h: HomogeneousPolynomial, f: HomogeneousPolynomial, k: int
) -> ContainmentCheck:
    """Test the containment criterion at degree k against a reference f.

    Requires f smooth and not a direct sum. Reports whether the degree-k
    Jacobian piece of h is contained in that of f and, when it is, whether
    h is indeed a scalar multiple of f (the two should never disagree).

    (J_h)_k lies in (J_f)_k exactly when every partial of h lies in the
    colon ((J_f)_k : S_{k-d+1})_{d-1}, and for smooth f that colon is the
    span W_f of the partials of f at every d-1 <= k <= T, by the Gorenstein
    duality of the module docstring. So the test is whether W_f contains
    the partials of h, the same at every k, and no piece is built.
    """
    if (h.n, h.degree) != (f.n, f.degree):
        raise ValueError("h and f must live in the same graded piece")
    check_degree(f.n, f.degree, k)
    if fault := _reference_fault(f):
        raise PreconditionError(fault)

    hypothesis = contains(jacobian_gens(f).span, partials_piece(h, f.degree - 1))
    if not hypothesis:
        return ContainmentCheck(False, None)
    conclusion = (not h.is_zero()) and h.normalized() == f.normalized()
    return ContainmentCheck(True, conclusion)
