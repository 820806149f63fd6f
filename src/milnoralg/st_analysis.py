"""Direct-sum (Sebastiani-Thom) detection and instance generation.

A form is of Sebastiani-Thom type when, after some invertible linear
change of coordinates, it splits as a sum of forms in disjoint groups of
variables. For a smooth form the finest such splitting is unique, and the
space {g : all partials of g lie in span of the partials of f} is spanned
by the summands, so its dimension equals the summand count s. Detection
here is exactly that fiber-dimension test; the coordinate change and the
individual summands are never computed. The fiber is solved on the
(n+1)^2 coefficients of the partials of g in the basis of W, as the
tuples (h_i) with d h_i / d x_l = d h_l / d x_i, each the gradient of
one g. ``st_report`` solves it exactly, as it reports its basis. The
sampler only asks whether s = 1, which ``reconstruction.fiber_is_line``
decides by a rank certificate mod p on the same rows, solving the fiber
exactly only where the certificate falls short; it draws the same forms
either way.

This module also generates the seeded random instances (smooth forms,
smooth non-direct-sum forms, complete-intersection tuples) used by the
verification suites. Generation is a rejection loop around a Fermat
anchor with bounded integer perturbations, deterministic in the seed;
negative seeds and coefficient bounds are rejected.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import PreconditionError
from .ideals import GeneratorTuple, check_size, is_complete_intersection, is_smooth, jacobian_gens
from .monomials import mono_basis
from .polynomials import HomogeneousPolynomial, fermat
from .reconstruction import FiberResult, fiber, fiber_is_line

# Candidates each sampler draws before it gives up.
MAX_ATTEMPTS = 200


class STReport(NamedTuple):
    """Summand count and fiber of a smooth form; is_st means s >= 2."""

    is_st: bool
    s: int
    fiber: FiberResult


def st_report(f: HomogeneousPolynomial) -> STReport:
    """Decide direct-sum type by the fiber dimension (f smooth, d >= 3).

    For d = 2 the fiber is all of S_2, whose dimension is not a summand
    count, so quadrics are rejected with ValueError.
    """
    if f.degree < 3:
        raise ValueError(f"direct-sum analysis needs d >= 3, got d={f.degree}")
    if not is_smooth(f):
        raise PreconditionError("form is not smooth")
    result = fiber(jacobian_gens(f), f.degree)
    return STReport(result.s >= 2, result.s, result)


def coordinate_split(f: HomogeneousPolynomial) -> tuple:
    """Finest partition of variable indices visible in the given coordinates.

    Parts are the connected components of the monomial co-occurrence
    graph (variables appearing in no monomial are singletons). This sees
    only splits realized by the current coordinates, so the part count is
    a lower bound for the true summand count of a smooth form.
    """
    n = f.n
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for alpha in f.terms:
        live = [i for i, e in enumerate(alpha) if e]
        for i in live[1:]:
            ra, rb = find(live[0]), find(i)
            if ra != rb:
                parent[rb] = ra
    groups: dict = {}
    for i in range(n + 1):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in sorted(groups.values()))


def check_seed(seed: int) -> None:
    """Reject a negative seed.

    ``random.Random`` seeds with the absolute value of an int, so seed -5
    would silently draw the same instances as seed 5.
    """
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")


def random_smooth(
    n: int,
    d: int,
    seed: int,
    require_non_st: bool = False,
    coeff_bound: int = 3,
) -> HomogeneousPolynomial:
    """Seeded random smooth form, optionally avoiding direct sums.

    Candidates are the Fermat form plus an integer perturbation with
    coefficients in [-coeff_bound, coeff_bound] on every degree-d
    monomial; candidates failing the smoothness (or non-direct-sum) test
    are rejected and the loop retries. Deterministic in the seed.

    Exhausting ``MAX_ATTEMPTS`` raises PreconditionError: the parameters
    admit no example under the cap (for instance coeff_bound=0 leaves only
    the Fermat form, always a direct sum; and every smooth binary cubic is
    a direct sum, so n=1, d=3 with require_non_st can never succeed).
    """
    check_size(n, d)
    check_seed(seed)
    if coeff_bound < 0:
        raise ValueError(f"need coeff_bound >= 0, got {coeff_bound}")
    if require_non_st and d < 3:
        raise ValueError("non-direct-sum sampling needs d >= 3")
    rng = random.Random(seed)
    anchor = fermat(n, d)
    monomials = mono_basis(n, d)
    for _ in range(MAX_ATTEMPTS):
        bump = {alpha: rng.randint(-coeff_bound, coeff_bound) for alpha in monomials}
        candidate = anchor + HomogeneousPolynomial(n, d, bump)
        try:
            w = jacobian_gens(candidate)
        except PreconditionError:
            continue
        if not is_complete_intersection(w):
            continue
        if require_non_st and not fiber_is_line(w.span):
            continue
        return candidate
    raise PreconditionError(
        f"no suitable form found in {MAX_ATTEMPTS} attempts (n={n}, d={d}, "
        f"coeff_bound={coeff_bound}, require_non_st={require_non_st})"
    )


def random_ci_tuple(
    n: int,
    d: int,
    seed: int,
    coeff_bound: int = 2,
) -> GeneratorTuple:
    """Seeded random complete-intersection tuple of degree d-1 forms.

    Each generator is x_i^(d-1) plus a bounded integer perturbation; the
    tuple is kept only if independent and a complete intersection.
    """
    check_size(n, d)
    check_seed(seed)
    if coeff_bound < 0:
        raise ValueError(f"need coeff_bound >= 0, got {coeff_bound}")
    rng = random.Random(seed)
    monomials = mono_basis(n, d - 1)
    for _ in range(MAX_ATTEMPTS):
        gens = []
        for i in range(n + 1):
            alpha = tuple(d - 1 if j == i else 0 for j in range(n + 1))
            terms = {beta: rng.randint(-coeff_bound, coeff_bound) for beta in monomials}
            terms[alpha] = terms.get(alpha, 0) + 1
            gens.append(HomogeneousPolynomial(n, d - 1, terms))
        try:
            w = GeneratorTuple(n, d, gens)
        except PreconditionError:
            continue
        if is_complete_intersection(w):
            return w
    raise PreconditionError(
        f"no complete intersection found in {MAX_ATTEMPTS} attempts (n={n}, d={d})"
    )

