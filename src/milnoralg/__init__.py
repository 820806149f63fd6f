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

The public names are exported lazily. ``_EXPORTS`` lists, per submodule,
the names it defines; the module-level ``__getattr__`` (PEP 562) imports
that submodule the first time one of its names is asked for, so
``import milnoralg`` loads nothing else and a CLI command loads only the
modules it runs. The resolved object is not stored in this namespace:
every ``milnoralg.X`` and ``from milnoralg import X`` reads the defining
module's current attribute, the same object as ``milnoralg.<module>.X``.
The submodules listed in ``_EXPORTS`` resolve the same way, so
``milnoralg.ideals`` works without importing it first.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "deformation": "KernelReport PolyTangentVector tangent_kernel_at_poly tangent_kernel_at_tuple",
    "errors": "PreconditionError",
    "ideals": "GeneratorTuple HilbertProfile check_size hilbert_profile ideal_piece "
    "is_complete_intersection is_smooth jacobian_gens jacobian_piece partials_piece "
    "socle_degree",
    "inverse_systems": "AssociatedForm apolar_piece associated_form verify_inverse_system",
    "linalg": "Subspace contains full_subspace map_kernel span_polys span_vectors zero_subspace",
    "monomials": "dim_graded factorial_weights grlex_key mono_basis mono_index",
    "polynomials": "HomogeneousPolynomial fermat format_poly linear_change multiply parse_poly "
    "partial polar_apply",
    "rationals": "Q",
    "reconstruction": "ContainmentCheck FiberResult containment_implies_equal fiber "
    "reconstruct_poly recover_generators",
    "st_analysis": "STReport coordinate_split random_ci_tuple random_smooth st_report",
    "suite": "SuiteCheck run_suite",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, e.g. milnoralg.ideals
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | _EXPORTS.keys() | _HOME.keys())
