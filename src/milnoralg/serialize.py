"""JSON document schemas for the stable external interfaces.

All rationals are serialized as strings "p" or "p/q" in lowest terms,
and read back only in that form (``rationals.parse_rational``). Every
emitter builds its dict in a fixed key order, so identical inputs
produce byte-identical JSON. The documented schemas:

  subspace      {"n", "degree", "order": "grlex", "dim", "basis": [[str]]}
  generators    {"n", "d", "gens": [poly strings]}
  fiber         {"s", "basis": [poly strings]}
  form          {"n", "d", "T", "form": poly string}
  st report     {"is_st", "s", "fiber": fiber object}
  kernel report {"k", "tangent_dim", "kernel_dim", "kernel_basis": [poly strings]}
  hilbert       {"n", "d", "T", "a": [int], "b": [int]}
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .ideals import GeneratorTuple, HilbertProfile
from .linalg import Subspace, span_vectors
from .monomials import dim_graded
from .polynomials import format_poly, parse_poly
from .rationals import format_rational, parse_rational

if TYPE_CHECKING:  # the pipelines these records come from load only when used
    from .deformation import KernelReport
    from .inverse_systems import AssociatedForm
    from .reconstruction import FiberResult


def _expect(obj: dict, key: str, kind):
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    # bool is a subclass of int, but JSON true/false is not a number
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"key {key!r} has type {type(value).__name__}")
    return value


def subspace_to_dict(sub: Subspace) -> dict:
    return {
        "n": sub.n,
        "degree": sub.k,
        "order": "grlex",
        "dim": sub.dim,
        "basis": [[format_rational(x) for x in row] for row in sub.rows],
    }


def subspace_from_dict(obj: dict) -> Subspace:
    n = _expect(obj, "n", int)
    k = _expect(obj, "degree", int)
    order = _expect(obj, "order", str)
    if order != "grlex":
        raise ValueError(f"unsupported term order {order!r}")
    dim = _expect(obj, "dim", int)
    basis = _expect(obj, "basis", list)
    amb = dim_graded(n, k)
    vectors = []
    for row in basis:
        if not isinstance(row, list) or len(row) != amb:
            raise ValueError(f"basis rows must have length {amb}")
        vectors.append([parse_rational(x) for x in row])
    sub = span_vectors(n, k, vectors)
    if sub.dim != dim:
        raise ValueError(f"declared dim {dim} but basis spans dimension {sub.dim}")
    return sub


def gens_to_dict(w: GeneratorTuple) -> dict:
    return {"n": w.n, "d": w.d, "gens": [format_poly(g) for g in w.gens]}


def gens_from_dict(obj: dict) -> GeneratorTuple:
    n = _expect(obj, "n", int)
    d = _expect(obj, "d", int)
    gens_text = _expect(obj, "gens", list)
    gens = [parse_poly(text, n=n, degree=d - 1) for text in gens_text]
    return GeneratorTuple(n, d, gens)


def fiber_to_dict(result: FiberResult) -> dict:
    return {"s": result.s, "basis": [format_poly(g) for g in result.basis]}


def fiber_from_dict(obj: dict, n: int, d: int) -> FiberResult:
    s = _expect(obj, "s", int)
    basis_text = _expect(obj, "basis", list)
    basis = tuple(parse_poly(text, n=n, degree=d) for text in basis_text)
    if len(basis) != s:
        raise ValueError(f"declared s={s} but basis has {len(basis)} elements")
    from .reconstruction import FiberResult
    return FiberResult(d, basis)


def associated_form_to_dict(af: AssociatedForm) -> dict:
    return {"n": af.n, "d": af.d, "T": af.socle, "form": format_poly(af.form)}


def associated_form_from_dict(obj: dict) -> AssociatedForm:
    n = _expect(obj, "n", int)
    d = _expect(obj, "d", int)
    top = _expect(obj, "T", int)
    form = parse_poly(_expect(obj, "form", str), n=n, degree=top)
    from .inverse_systems import AssociatedForm
    return AssociatedForm(form, d)


def st_report_to_dict(report) -> dict:
    return {"is_st": report.is_st, "s": report.s, "fiber": fiber_to_dict(report.fiber)}


def kernel_report_to_dict(report: KernelReport) -> dict:
    return {
        "k": report.k,
        "tangent_dim": report.tangent_dim,
        "kernel_dim": report.kernel_dim,
        "kernel_basis": [format_poly(vec.h) for vec in report.basis],
    }


def hilbert_to_dict(profile: HilbertProfile) -> dict:
    return {
        "n": profile.n,
        "d": profile.d,
        "T": profile.socle,
        "a": list(profile.values),
        "b": [profile.b(k) for k in range(profile.socle + 2)],
    }
