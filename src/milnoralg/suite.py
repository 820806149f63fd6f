"""Batch verification battery at a single size (n, d).

Runs the same checks the acceptance tests make, parameterized by one
ambient size and a base seed: Hilbert profile invariants, Jacobian piece
dimensions, round trips through one graded piece, fibers and summand
counts, inverse systems, tangent kernels, containment, and the
well-definedness of tangent images, which rests on every syzygy being
Koszul and is checked through the Koszul rank identity
(``koszul_check``). Each check reports pass/fail plus
wall time; an optional wall-clock budget stops starting new phases once
exceeded (which checks run then depends on the clock, so omit the budget
when byte-identical output matters).

Each claim is proved once. The samplers accept a form or tuple only
after ``is_complete_intersection``; where the walk mod p of
``ci_walk_mod_p`` decided that, it reached b(k) at every d-1 <= k <= T
and filled S_{T+1}, and rank mod p <= dim (I_W)_k <= b(k) (Froberg), so
dim (I_W)_k = b(k) at every k is already proved. The Jacobian dimensions
are therefore rebuilt exactly only for the pool's first form, so the
exact relay still runs at every size, and for any form the walk did not
certify; ``koszul_check`` reads dim (I_W)_k off the walk in the same
way. The piece round trip compares no pieces of distinct tuples: each
piece gave back its own span there, so equal pieces would have given
back equal spans, and the spans are checked to differ.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import lcm
from typing import Callable, NamedTuple, Optional

from .deformation import tangent_kernel_at_poly, tangent_kernel_at_tuple
from .ideals import (
    GeneratorTuple,
    ci_walk_mod_p,
    hilbert_profile,
    ideal_piece,
    jacobian_gens,
    jacobian_piece,
    socle_degree,
)
from .inverse_systems import verify_inverse_system
from .linalg import SpanBuilder, certify_rank, poly_row
from .monomials import dim_graded, mono_basis, product_index_table
from .polynomials import HomogeneousPolynomial, fermat
from .rationals import Q
from .reconstruction import (
    containment_implies_equal,
    fiber,
    reconstruct_poly,
    recover_generators,
)
from .st_analysis import check_seed, random_ci_tuple, random_smooth


class SuiteCheck(NamedTuple):
    name: str
    ok: Optional[bool]  # None means skipped (budget exhausted)
    seconds: float
    detail: str = ""


def _check(condition, message: str = "") -> None:
    """Raise AssertionError(message) unless condition holds, also under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def _k_range(n: int, d: int):
    return range(d - 1, socle_degree(n, d) + 1)


def koszul_check(w: GeneratorTuple, k: int, parts) -> int:
    """Check that the degree-k Koszul syzygies of W are all of them and map h into (I_W)_k.

    A syzygy of degree k is u = (u_0, ..., u_n) in S_{k-d+1}^{n+1} with
    sum_i u_i g_i = 0. The Koszul ones are m * (g_j e_i - g_i e_j) for the
    monomials m of degree k - 2(d-1). Raises AssertionError unless (a) each
    is a syzygy, (b) their rank is (n+1) dim S_{k-d+1} - dim (I_W)_k, the
    dimension of all syzygies by rank-nullity of u |-> sum_i u_i g_i, so
    they span them, and (c) each sends the direction h = ``parts`` into
    (I_W)_k: sum_i u_i h_i lies in the piece. By (b) and (c) every
    representation of a piece vector gives the same tangent image. Returns
    the number of Koszul vectors.

    dim (I_W)_k is b(k) where ``ci_walk_mod_p`` proves W a complete
    intersection: the walk reached b(k) at every d-1 <= k <= T and filled
    S_{T+1}, and rank mod p <= dim (I_W)_k <= b(k). Otherwise it is the
    dimension of the exact ``ideal_piece``. Check (c) needs no piece: the
    image sum_s u_s h_s = m g_j h_i - m g_i h_j is the ideal element
    (m h_i) g_j - (m h_j) g_i, and the two integer rows are compared
    exactly. So a complete intersection builds no exact piece.

    Everything runs on integer rows through ``product_index_table``. Each
    g_i is scaled by the lcm L_i of its denominators. That makes each
    Koszul vector a nonzero multiple of its image under the invertible
    diagonal map scaling slot s by (L_0 ... L_n) / L_s, so the rank is
    kept. h_i is scaled by c L_i, c clearing the denominators of h, so each
    image in (c) is c L_i L_j times the true one. Checks (a) and (c) are
    exact. By (a) every vector is a syzygy, so the dimension in (b) bounds
    their rank from above, and ``certify_rank`` proves (b) mod p when the
    rank reaches it; otherwise the rank is computed exactly.
    """
    n, d = w.n, w.d
    dim = hilbert_profile(n, d).b(k) if ci_walk_mod_p(w.span) else ideal_piece(w, k).dim
    dim_u = dim_graded(n, k - (d - 1))
    degree = k - 2 * (d - 1)
    gens, scales = zip(*(poly_row(g) for g in w.gens))
    hs = [poly_row(h) for h in parts]
    c = lcm(*(den for _, den in hs))
    hs = [{j: x * (c // den) * L for j, x in h.items()} for (h, den), L in zip(hs, scales)]
    times = product_index_table(n, k - (d - 1), d - 1)

    def image(u, forms):  # sum_s u_s * forms_s as an integer row of S_k
        out: dict = {}
        for s, us in u.items():
            for a, x in us.items():
                ta = times[a]
                for b, y in forms[s].items():
                    t = ta[b]
                    out[t] = out.get(t, 0) + x * y
        return {t: x for t, x in out.items() if x}

    rows = []
    for m in product_index_table(n, degree, d - 1) if degree >= 0 else ():
        multiples = [{m[b]: y for b, y in g.items()} for g in gens]
        h_multiples = [{m[b]: y for b, y in h.items()} for h in hs]
        for i, j in combinations(range(n + 1), 2):
            u = {i: multiples[j], j: {a: -x for a, x in multiples[i].items()}}
            _check(not image(u, gens), f"not a syzygy at k={k}")
            witness = {j: h_multiples[i], i: {a: -x for a, x in h_multiples[j].items()}}
            _check(image(u, hs) == image(witness, gens), f"h not sent into the piece at k={k}")
            rows.append({s * dim_u + a: x for s, us in u.items() for a, x in us.items()})
    expect = (n + 1) * dim_u - dim
    if not certify_rank(rows, expect):
        span = SpanBuilder((n + 1) * dim_u)
        for row in rows:
            span.insert(row)
        _check(span.dim == expect, f"Koszul rank {span.dim}, expected {expect} at k={k}")
    return len(rows)


def run_suite(
    n: int,
    d: int,
    seed: int = 0,
    polys: int = 20,
    tuples: int = 10,
    budget: Optional[float] = None,
    progress: Optional[Callable[[SuiteCheck], None]] = None,
) -> list:
    """Run the verification battery at size (n, d); returns SuiteCheck list."""
    if n < 1 or d < 3:
        raise ValueError(f"suite needs n >= 1 and d >= 3, got n={n}, d={d}")
    check_seed(seed)
    if polys < 0 or tuples < 0:
        raise ValueError(f"need polys >= 0 and tuples >= 0, got polys={polys}, tuples={tuples}")
    if budget is not None and not budget >= 0:  # also refuses NaN
        raise ValueError(f"need budget >= 0, got {budget}")
    started = time.monotonic()
    results: list = []
    profile = hilbert_profile(n, d)
    top = profile.socle

    nonst_pool: list = []
    tuple_pool: list = []
    # Every smooth binary cubic is a direct sum (a sum of two cubes after a
    # linear change of coordinates), so no non-direct-sum form exists there.
    no_nonst = ""
    if (n, d) == (1, 3):
        no_nonst = "vacuous: every smooth binary cubic is a direct sum"

    def phase(name: str, body: Callable[[], str]):
        if budget is not None and time.monotonic() - started > budget:
            check = SuiteCheck(name, None, 0.0, "skipped: budget exhausted")
        else:
            t0 = time.monotonic()
            try:
                detail = body()
                check = SuiteCheck(name, True, time.monotonic() - t0, detail)
            except Exception as exc:  # report, keep running later phases
                check = SuiteCheck(name, False, time.monotonic() - t0, str(exc))
        results.append(check)
        if progress is not None:
            progress(check)

    def check_hilbert() -> str:
        _check(profile.values[0] == 1 and profile.values[top] == 1)
        _check(profile.values[top + 1] == 0)
        _check(all(profile.a(k) == profile.a(top - k) for k in range(top + 1)))
        _check(profile.total == (d - 1) ** (n + 1))
        return f"T={top}, total={(d - 1) ** (n + 1)}"

    def check_dimensions() -> str:
        for i in range(polys):
            f = random_smooth(n, d, seed * 1_000_003 + 100 + i)
            # the walk that accepted f proved dim E_k = b(k) at every k
            if i and ci_walk_mod_p(jacobian_gens(f).span):
                continue
            for k in range(top + 2):
                expect = profile.b(k)
                got = jacobian_piece(f, k).dim
                _check(got == expect, f"dim E_{k} = {got}, expected {expect}")
        return f"{polys} forms, k = 0..{top + 1}"

    def check_tuple_round_trip() -> str:
        for i in range(tuples):
            w = random_ci_tuple(n, d, seed * 1_000_003 + 300 + i)
            tuple_pool.append(w)
        for w in tuple_pool:
            for k in _k_range(n, d):
                back = recover_generators(ideal_piece(w, k), k, n, d)
                _check(back.span == w.span, "recovered span differs")
        # each piece gave back its own span, so distinct spans have distinct pieces
        for u, w in zip(tuple_pool, tuple_pool[1:]):
            _check(u.span != w.span)
        return f"{tuples} tuples, k = {d - 1}..{top}"

    def check_poly_round_trip() -> str:
        if no_nonst:
            return no_nonst
        for i in range(polys):
            f = random_smooth(n, d, seed * 1_000_003 + 500 + i, require_non_st=True)
            nonst_pool.append(f)
        for f in nonst_pool:
            target = f.normalized()
            for k in _k_range(n, d):
                result = reconstruct_poly(jacobian_piece(f, k), k, n, d)
                _check(result.s == 1, f"s = {result.s}, expected 1")
                _check(result.basis[0].normalized() == target)
        return f"{polys} forms, k = {d - 1}..{top}"

    def check_fermat_fiber() -> str:
        f = fermat(n, d)
        result = fiber(jacobian_gens(f), d)
        powers = {
            HomogeneousPolynomial.monomial(n, tuple(d if j == i else 0 for j in range(n + 1)))
            for i in range(n + 1)
        }
        _check(result.s == n + 1)
        _check(set(result.basis) == powers)
        return f"s = {n + 1}"

    def check_inverse_systems() -> str:
        pool = tuple_pool or [random_ci_tuple(n, d, seed * 1_000_003 + 300)]
        for w in pool:
            _check(verify_inverse_system(w))
        return f"{len(pool)} tuples"

    def check_tangent_tuples() -> str:
        pool = tuple_pool or [random_ci_tuple(n, d, seed * 1_000_003 + 300)]
        for w in pool:
            for k in _k_range(n, d):
                report = tangent_kernel_at_tuple(w, k)
                _check(report.kernel_dim == 0, f"kernel dim {report.kernel_dim} at k={k}")
        return f"{len(pool)} tuples, k = {d - 1}..{top}"

    def check_tangent_polys() -> str:
        if no_nonst:
            return no_nonst
        pool = nonst_pool or [random_smooth(n, d, seed * 1_000_003 + 500, require_non_st=True)]
        for f in pool:
            for k in _k_range(n, d):
                report = tangent_kernel_at_poly(f, k)
                _check(report.kernel_dim == 0, f"kernel dim {report.kernel_dim} at k={k}")
        return f"{len(pool)} forms, k = {d - 1}..{top}"

    def check_containment() -> str:
        if no_nonst:
            return no_nonst
        pool = nonst_pool or [random_smooth(n, d, seed * 1_000_003 + 500, require_non_st=True)]
        rng = random.Random(seed * 1_000_003 + 700)
        monomials = mono_basis(n, d)
        k = d - 1
        hits = tried = 0
        for f in pool:
            for _ in range(30):
                h = HomogeneousPolynomial(
                    n, d, {alpha: rng.randint(-3, 3) for alpha in monomials}
                )
                if h.is_zero():
                    continue
                tried += 1
                outcome = containment_implies_equal(h, f, k)
                if outcome.hypothesis_holds:
                    hits += 1
                    _check(outcome.conclusion_holds)
            scaled = containment_implies_equal(f * Q(5, 7), f, k)
            _check(scaled.hypothesis_holds and scaled.conclusion_holds)
        return (
            f"{hits} of {tried} random h contained, as the theorem predicts; "
            f"the contained case rests on the scaled-f check ({len(pool)} forms)"
        )

    def check_well_defined() -> str:
        pool = tuple_pool or [random_ci_tuple(n, d, seed * 1_000_003 + 300)]
        syzygy_ks = [
            k
            for k in _k_range(n, d)
            if (n + 1) * dim_graded(n, k - (d - 1)) > profile.b(k)
        ]
        if not syzygy_ks:
            return "vacuous: no syzygies in range at this size"
        rng = random.Random(seed * 1_000_003 + 900)
        monomials = mono_basis(n, d - 1)
        vectors = 0
        for trial in range(20):
            w = pool[trial % len(pool)]
            k = syzygy_ks[trial % len(syzygy_ks)]
            parts = [
                HomogeneousPolynomial(
                    n, d - 1, {alpha: rng.randint(-2, 2) for alpha in monomials}
                )
                for _ in range(n + 1)
            ]
            vectors += koszul_check(w, k, parts)
        return (
            f"20 trials, k = {', '.join(map(str, syzygy_ks))}: Koszul syzygies span "
            f"every syzygy and map h into the piece ({vectors} checked)"
        )

    phase("hilbert-profile", check_hilbert)
    phase("jacobian-dimensions", check_dimensions)
    phase("piece-round-trip", check_tuple_round_trip)
    phase("polynomial-round-trip", check_poly_round_trip)
    phase("fermat-fiber", check_fermat_fiber)
    phase("inverse-systems", check_inverse_systems)
    phase("tangent-kernel-tuples", check_tangent_tuples)
    phase("tangent-kernel-polys", check_tangent_polys)
    phase("containment", check_containment)
    phase("well-definedness", check_well_defined)
    return results
