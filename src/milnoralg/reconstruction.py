"""Recovering generator tuples and polynomials from one graded piece.

The pipeline: a degree-k ideal piece E with d-1 <= k <= T determines the
whole ideal. Lifting E by monomial multiplication to the socle degree T,
taking the apolar complement there (a line, whose normalized generator is
the associated form), and cutting the apolar ideal back down in degree
d-1 recovers the generating subspace W. The fiber step then solves the
linear system {g in S_d : all partials of g lie in W}; for a smooth form
that is not a direct sum this fiber is the single line through f, and for
direct sums it is spanned by the summands, so its dimension counts them.

Input validation is mandatory, not optional: the maps inverted here are
only defined on complete-intersection input, so the expected dimension,
the Artinian fill at degree T+1, the socle line, and the final round trip
are all checked before a result is returned.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import PreconditionError
from .ideals import (
    GeneratorTuple,
    generated_piece,
    hilbert_profile,
    ideal_piece,
    is_smooth,
    jacobian_gens,
    jacobian_piece,
    partials_piece,
    socle_degree,
)
from .inverse_systems import apolar_piece
from .linalg import (
    QuotientMap,
    Subspace,
    contains,
    nullspace,
    orthogonal_complement,
    span_vectors,
)
from .monomials import derivative_table, dim_graded
from .polynomials import HomogeneousPolynomial
from .rationals import ZERO


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
        n = self.basis[0].n
        return span_vectors(n, self.d, [g.coords() for g in self.basis])


class ContainmentCheck(NamedTuple):
    """Outcome of a containment test between Jacobian pieces."""

    hypothesis_holds: bool
    conclusion_holds: Optional[bool]


def lift_piece(e: Subspace, m: int) -> Subspace:
    """Span of S_{m-k} * E inside S_m, for a subspace E of S_k.

    Idempotent under composition: lifting a lift equals lifting once.
    """
    if m < e.k:
        raise ValueError(f"cannot lift from degree {e.k} down to {m}")
    return generated_piece(e, m)


def recover_generators(e: Subspace, k: int, n: int, d: int) -> GeneratorTuple:
    """Invert the piece map: from E = (I_W)_k back to the subspace W.

    Validates that E has the dimension of a complete-intersection piece,
    that its lift fills S_{T+1} (the Artinian test), that the socle
    complement is a line, and finally that the recovered tuple reproduces
    E on the nose. Each failure raises PreconditionError.
    """
    if (e.n, e.k) != (n, k):
        raise ValueError(f"subspace lives in {(e.n, e.k)}, not {(n, k)}")
    profile = hilbert_profile(n, d)
    top = socle_degree(n, d)
    if not d - 1 <= k <= top:
        raise ValueError(f"need d-1 <= k <= {top}, got k={k}")
    if e.dim != profile.b(k):
        raise PreconditionError(
            f"dimension {e.dim} does not match the expected piece dimension {profile.b(k)}"
        )

    if not lift_piece(e, top + 1).is_full():
        raise PreconditionError("lift does not fill degree T+1: not a complete-intersection piece")

    comp = orthogonal_complement(lift_piece(e, top))
    if comp.dim != 1:
        raise PreconditionError(f"socle complement has dimension {comp.dim}, expected a line")
    inverse_form = HomogeneousPolynomial.from_coords(n, top, comp.rows[0])

    generators = apolar_piece(inverse_form, d - 1)
    if generators.dim != n + 1:
        raise PreconditionError(
            f"apolar piece in the generator degree has dimension {generators.dim}, expected {n + 1}"
        )
    w = GeneratorTuple(n, d, generators.basis_polynomials())
    if ideal_piece(w, k) != e:
        raise PreconditionError("input is not the degree-k piece of a complete-intersection ideal")
    return w


def forms_with_partials_in(e: Subspace) -> tuple:
    """Canonical basis of {g in S_{k+1} : all partials of g lie in E}, E in S_k.

    Solved as one exact linear system: every quotient coordinate of every
    partial of g modulo E must vanish.
    """
    n, d = e.n, e.k + 1
    qm = QuotientMap(e)
    src_dim = dim_graded(n, d)
    dtab = derivative_table(n, d)
    unit = qm.unit_coords

    rows = []
    for i in range(n + 1):
        di = dtab[i]
        for q in range(qm.dim):
            row = []
            for s in range(src_dim):
                hit = di[s]
                if hit is None:
                    row.append(ZERO)
                else:
                    t, factor = hit
                    row.append(factor * unit(t)[q])
            rows.append(row)

    solutions = nullspace(rows, src_dim)
    return tuple(HomogeneousPolynomial.from_coords(n, d, v) for v in solutions)


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


@lru_cache(maxsize=256)
def _reference_fault(f: HomogeneousPolynomial) -> Optional[str]:
    """Why f cannot be a containment reference, or None; checked once per f."""
    if not is_smooth(f):
        return "reference polynomial is not smooth"
    if fiber(jacobian_gens(f), f.degree).s != 1:
        return "reference polynomial is a direct sum"
    return None


def containment_implies_equal(
    h: HomogeneousPolynomial, f: HomogeneousPolynomial, k: int
) -> ContainmentCheck:
    """Test the containment criterion at degree k against a reference f.

    Requires f smooth and not a direct sum. Reports whether the degree-k
    Jacobian piece of h is contained in that of f and, when it is, whether
    h is indeed a scalar multiple of f (the two should never disagree).
    """
    if (h.n, h.degree) != (f.n, f.degree):
        raise ValueError("h and f must live in the same graded piece")
    d, n = f.degree, f.n
    top = socle_degree(n, d)
    if not d - 1 <= k <= top:
        raise ValueError(f"need d-1 <= k <= {top}, got k={k}")
    if fault := _reference_fault(f):
        raise PreconditionError(fault)

    hypothesis = contains(jacobian_piece(f, k), partials_piece(h, k))
    if not hypothesis:
        return ContainmentCheck(False, None)
    conclusion = (not h.is_zero()) and h.normalized() == f.normalized()
    return ContainmentCheck(True, conclusion)
