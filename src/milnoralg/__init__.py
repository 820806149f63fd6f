"""Exact computation with graded pieces of Jacobian ideals.

A library for computational work with Milnor algebras of homogeneous
polynomials over the rationals: graded pieces of Jacobian and
complete-intersection ideals, their Hilbert profiles, Macaulay inverse
systems via apolarity, reconstruction of a form from a single graded
piece, direct-sum (Sebastiani-Thom) analysis through fiber dimensions,
and exact kernels of the associated tangent maps.

Everything is exact rational arithmetic; there is no floating-point mode.
Genericity statements over the complex numbers are exercised at rational
sample points, which is sound for every check made here because all of
them are rank or containment statements, and ranks of rational matrices
agree over the rationals and the complex numbers.
"""

from .deformation import (
    KernelReport,
    PolyTangentVector,
    TupleTangentVector,
    colon_piece,
    membership_solutions,
    multiplication_matrix,
    tangent_image,
    tangent_kernel_at_poly,
    tangent_kernel_at_tuple,
)
from .errors import PreconditionError
from .ideals import (
    GeneratorTuple,
    HilbertProfile,
    check_size,
    hilbert_profile,
    ideal_piece,
    is_complete_intersection,
    is_smooth,
    jacobian_gens,
    jacobian_piece,
    partials_piece,
    socle_degree,
)
from .inverse_systems import (
    AssociatedForm,
    apolar_piece,
    associated_form,
    catalecticant_matrix,
    verify_inverse_system,
)
from .linalg import (
    QuotientMap,
    Subspace,
    contains,
    full_subspace,
    map_image,
    map_kernel,
    nullspace,
    orthogonal_complement,
    rref,
    span_polys,
    span_vectors,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)
from .monomials import dim_graded, factorial_weights, grlex_key, mono_basis, mono_index
from .polynomials import (
    HomogeneousPolynomial,
    apolar_inner,
    euler_check,
    euler_recover,
    evaluate,
    fermat,
    format_poly,
    linear_change,
    multiply,
    parse_poly,
    partial,
    polar_apply,
)
from .rationals import Q
from .reconstruction import (
    ContainmentCheck,
    FiberResult,
    containment_implies_equal,
    fiber,
    lift_piece,
    reconstruct_poly,
    recover_generators,
)
from .st_analysis import (
    STReport,
    coordinate_split,
    random_ci_tuple,
    random_smooth,
    random_unimodular,
    st_report,
)
from .suite import SuiteCheck, run_suite

__version__ = "0.1.0"
