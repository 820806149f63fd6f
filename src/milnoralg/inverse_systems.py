"""Macaulay inverse systems of complete-intersection generator tuples.

For a complete intersection the quotient algebra is Artinian Gorenstein
with a one-dimensional socle in degree T = (n+1)(d-2), so the orthogonal
complement of the degree-T ideal piece under the apolar pairing is a
single projective point of S_T. Its normalized representative, the
associated form of the tuple, is the Macaulay inverse system of the
quotient: the ideal equals the annihilator of the associated form under
polar differentiation. The associated form is read off the one
functional nu that vanishes on the degree-T ideal piece (``annihilator``
of its RREF basis, no further elimination): the apolar pairing is
diagonal on monomials with weights alpha!, so F_alpha = nu_alpha / alpha!.
It never comes from a resultant formula.

An apolar piece is a colon piece, built by the rows that recover W in
``reconstruction``. With c the coefficients of a form b of degree m and
D the lcm of their denominators, G_gamma = D c_gamma gamma! is one
functional on S_m, and the x^beta coefficient of g applied to b is
G(g * x^beta) / (D beta!). So g in S_k annihilates b exactly when G
vanishes on g * S_{m-k}: Ann(b)_k is the colon (G^perp : S_{m-k})_k, and
the rows ``linalg.colon_rows`` builds for it are the catalecticant rows
of b at k. ``apolar_piece`` is their kernel, read off one elimination
with the columns reversed (``linalg.kernel_builder``), which gives the
canonical basis with no second elimination. ``verify_inverse_system``
checks the ideal against the annihilator by catalecticant ranks, the
Hilbert function of the annihilator (Iarrobino and Kanev 1999): an exact
check (``in_colon``) that W annihilates the form, then one rank per
degree up to T/2, certified mod p where it can be and compared piece by
piece where it cannot.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import PreconditionError
from .ideals import (
    GeneratorTuple,
    generated_piece,
    hilbert_profile,
    ideal_piece,
    socle_degree,
)
from .linalg import (
    Subspace,
    annihilator,
    certify_rank,
    colon_rows,
    full_subspace,
    in_colon,
    map_kernel,
    poly_row,
)
from .monomials import dim_graded, factorial_weights, mono_basis
from .polynomials import HomogeneousPolynomial
from .rationals import Q


class _AssociatedFormFields(NamedTuple):
    form: HomogeneousPolynomial
    d: int


class AssociatedForm(_AssociatedFormFields):
    """Normalized (leading coefficient 1) degree-T inverse-system form.

    ``d`` records the generator-degree parameter of the tuple it came
    from, so T = form.degree = (n+1)(d-2) is redundant but convenient.
    The form is validated on construction.
    """

    __slots__ = ()

    def __new__(cls, form: HomogeneousPolynomial, d: int):
        if form.is_zero():
            raise ValueError("associated form cannot be zero")
        if form.degree != socle_degree(form.n, d):
            raise ValueError("degree does not match the socle degree for (n, d)")
        if form.leading_coefficient() != 1:
            raise ValueError("associated form must be normalized")
        return super().__new__(cls, form, d)

    @property
    def n(self) -> int:
        return self.form.n

    @property
    def socle(self) -> int:
        return self.form.degree


def associated_form(w: GeneratorTuple) -> AssociatedForm:
    """The inverse-system generator of a complete-intersection tuple.

    This is the unique normalized form spanning the apolar complement of
    the degree-T ideal piece: F_alpha = nu_alpha / alpha! for the functional
    nu vanishing on the piece, divided by its leading coefficient. That nu
    is unique up to scalar is asserted, a failure meaning
    non-complete-intersection input. Computed once per span(W).
    """
    return _associated_form(w.span)


@lru_cache(maxsize=256)
def _associated_form(span: Subspace) -> AssociatedForm:
    """``associated_form`` of the tuple spanning ``span``, read off its exact relay.

    The exact relay to T is built for nu anyway, so the complete-intersection
    test is its fill at T+1, not a second walk mod p.
    """
    n, d = span.n, span.k + 1
    top = socle_degree(n, d)
    if not generated_piece(span, top + 1).is_full():
        raise PreconditionError("generator tuple is not a complete intersection")
    duals = annihilator(generated_piece(span, top))
    if len(duals) != 1:
        raise PreconditionError(
            f"socle complement has dimension {len(duals)}, expected a line"
        )
    nu = duals[0]
    monos, weights = mono_basis(n, top), factorial_weights(n, top)
    # mono_basis lists the term order descending, so the leading monomial is nu's first column
    lead = min(nu)
    terms = {monos[j]: Q(x * weights[lead], weights[j] * nu[lead]) for j, x in nu.items()}
    return AssociatedForm(HomogeneousPolynomial(n, top, terms), d)


def _weighted_coefficients(b: HomogeneousPolynomial) -> dict:
    """G_gamma = D c_gamma gamma! over mono_basis(n, m), as a sparse dict of ints.

    c are the coefficients of b, m its degree, and D the lcm of their
    denominators.
    """
    coeffs, _ = poly_row(b)
    weights = factorial_weights(b.n, b.degree)
    return {j: x * weights[j] for j, x in coeffs.items()}


def apolar_piece(b, k: int) -> Subspace:
    """Degree-k piece of the apolar ideal of b: forms annihilating b.

    The kernel of ``colon_rows([G], n, m, k, ...)``, m = deg(b) and G the
    functional of b's weighted coefficients: the colon (G^perp : S_{m-k})_k,
    whose rows are the catalecticant rows of b at k, each scaled by a
    nonzero integer. One elimination (``map_kernel``) gives its canonical
    basis. For k > deg(b) every form annihilates, so the piece
    is all of S_k.
    """
    if isinstance(b, AssociatedForm):
        b = b.form
    if k < 0:
        raise ValueError("negative degree")
    if k > b.degree:
        return full_subspace(b.n, k)
    rows = colon_rows([_weighted_coefficients(b)], b.n, b.degree, k, range(dim_graded(b.n, k)))
    return map_kernel(rows, b.n, k)


def verify_inverse_system(w: GeneratorTuple) -> bool:
    """Check (I_W)_k = Ann(F)_k for all k, F the associated form.

    First, exactly, that W annihilates F: ``in_colon`` puts W in the colon
    (G^perp : S_{T-d+1})_{d-1}, which is Ann(F)_{d-1}. Ann(F) is an ideal,
    so (I_W)_k lies in Ann(F)_k at every k. ``associated_form`` has proved
    W a complete intersection, so dim (I_W)_k = b(k), and the colon rows
    at k, whose kernel is Ann(F)_k, have rank at most a(k) over Q; rank
    a(k) makes the two pieces equal. ``certify_rank`` decides that mod p for k = 1..T/2.
    The rows at T-k are the catalecticant at T-k, the transpose of the one
    at k, and a(T-k) = a(k), so this covers T-k as well. At k = 0 and T
    the rank is 1, as F is nonzero, and at T+1 both pieces are all of
    S_{T+1}. Where the modular rank falls short of a(k), the canonical
    pieces at k and T-k are compared bit exact instead.
    """
    form = associated_form(w).form
    n, top = w.n, form.degree
    duals = [_weighted_coefficients(form)]
    if top >= w.d - 1 and not in_colon(duals, n, top, w.d - 1, w.span):
        return False
    profile = hilbert_profile(n, w.d)
    for k in range(1, top // 2 + 1):
        if not certify_rank(colon_rows(duals, n, top, k, range(dim_graded(n, k))), profile.a(k)):
            if any(apolar_piece(form, j) != ideal_piece(w, j) for j in (k, top - k)):
                return False
    return True
