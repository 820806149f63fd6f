"""Macaulay inverse systems of complete-intersection generator tuples.

For a complete intersection the quotient algebra is Artinian Gorenstein
with a one-dimensional socle in degree T = (n+1)(d-2), so the orthogonal
complement of the degree-T ideal piece under the apolar pairing is a
single projective point of S_T. Its normalized representative, the
associated form of the tuple, is the Macaulay inverse system of the
quotient: the ideal equals the annihilator of the associated form under
polar differentiation, which ``verify_inverse_system`` checks degree by
degree. The associated form is always obtained from that orthogonal
complement, one exact kernel computation, never from a resultant formula.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import PreconditionError
from .ideals import GeneratorTuple, ideal_piece, is_complete_intersection, socle_degree
from .linalg import Subspace, full_subspace, map_kernel, orthogonal_complement
from .monomials import mono_basis, mono_index, product_index_table
from .polynomials import HomogeneousPolynomial


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
    the degree-T ideal piece; that the complement is a line is asserted,
    a failure meaning non-complete-intersection input.
    """
    if not is_complete_intersection(w):
        raise PreconditionError("generator tuple is not a complete intersection")
    top = socle_degree(w.n, w.d)
    comp = orthogonal_complement(ideal_piece(w, top))
    if comp.dim != 1:
        raise PreconditionError(
            f"socle complement has dimension {comp.dim}, expected a line"
        )
    form = HomogeneousPolynomial.from_coords(w.n, top, comp.rows[0])
    return AssociatedForm(form, w.d)


def catalecticant_matrix(b: HomogeneousPolynomial, k: int) -> list:
    """Matrix of g |-> (g applied as differential operator to b), on S_k.

    Column convention: dim(S_{m-k}) rows and dim(S_k) columns for
    m = deg(b); entry (t, s) is the target-monomial-t coefficient of the
    s-th source monomial acting on b.
    """
    m, n = b.degree, b.n
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= {m}, got {k}")
    src = mono_basis(n, k)
    tgt = mono_basis(n, m - k)
    idx = mono_index(n, m)
    coeffs = {}
    for alpha, c in b.terms.items():
        coeffs[idx[alpha]] = c
    table = product_index_table(n, m - k, k)
    rows = []
    for t, beta in enumerate(tgt):
        row = []
        for s, alpha in enumerate(src):
            c = coeffs.get(table[t][s])
            if c is None:
                row.append(0)
            else:
                factor = math.prod(math.perm(bt + at, at) for bt, at in zip(beta, alpha))
                row.append(c * factor)
        rows.append(row)
    return rows


def apolar_piece(b, k: int) -> Subspace:
    """Degree-k piece of the apolar ideal of b: forms annihilating b.

    Computed as the kernel of the catalecticant map S_k -> S_{m-k}. For
    k > deg(b) every form annihilates, so the piece is all of S_k.
    """
    if isinstance(b, AssociatedForm):
        b = b.form
    if k < 0:
        raise ValueError("negative degree")
    if k > b.degree:
        return full_subspace(b.n, k)
    return map_kernel(catalecticant_matrix(b, k), b.n, k)


def verify_inverse_system(w: GeneratorTuple) -> bool:
    """Check (I_W)_k = (apolar ideal of the associated form)_k for all k.

    Runs over every degree 0..T+1; both sides are canonical subspaces so
    the comparison is bit exact.
    """
    form = associated_form(w).form
    top = socle_degree(w.n, w.d)
    return all(apolar_piece(form, k) == ideal_piece(w, k) for k in range(top + 2))
