"""Acceptance battery.

Each test prints one PASS/FAIL line with its wall time; the numbered
checks cover, in order: Hilbert profiles, Jacobian piece dimensions,
round trips through one graded piece at the tuple and polynomial level,
fibers and summand counts, inverse systems, tangent-map kernels, the
containment criterion, and well-definedness of induced tangent images.
Everything is exact; the time limits are part of the contract.
"""

import random
import time
from contextlib import contextmanager

from milnoralg import (
    GeneratorTuple,
    HomogeneousPolynomial,
    associated_form,
    containment_implies_equal,
    dim_graded,
    fermat,
    fiber,
    hilbert_profile,
    ideal_piece,
    jacobian_gens,
    jacobian_piece,
    mono_basis,
    multiply,
    parse_poly,
    random_smooth,
    recover_generators,
    reconstruct_poly,
    socle_degree,
    span_polys,
    tangent_kernel_at_poly,
    tangent_kernel_at_tuple,
    verify_inverse_system,
)
from milnoralg.linalg import kernel_builder
from milnoralg.rationals import Q

from conftest import PAIRS
from oracles import membership_solutions, multiplication_matrix


@contextmanager
def criterion(name, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} ({time.monotonic() - start:.1f}s)", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(f"PASS {name} ({elapsed:.1f}s)", flush=True)
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"


def k_range(n, d):
    return range(d - 1, socle_degree(n, d) + 1)


def test_criterion_1_hilbert_profiles():
    with criterion("criterion-1 hilbert profiles", budget=1.0):
        assert hilbert_profile(2, 3).values[:-1] == (1, 3, 3, 1)
        assert hilbert_profile(2, 4).values[:-1] == (1, 3, 6, 7, 6, 3, 1)
        assert hilbert_profile(1, 3).values[:-1] == (1, 2, 1)
        for n in range(1, 4):
            for d in range(2, 7):
                profile = hilbert_profile(n, d)
                top = profile.socle
                for k in range(top + 1):
                    assert profile.a(k) == profile.a(top - k)
                assert profile.total == (d - 1) ** (n + 1)


def test_criterion_2_jacobian_dimensions(smooth_pools):
    with criterion("criterion-2 jacobian dimensions", budget=120.0):
        for (n, d), pool in smooth_pools.items():
            profile = hilbert_profile(n, d)
            assert len(pool) == 20
            for f in pool:
                for k in range(profile.socle + 2):
                    assert jacobian_piece(f, k).dim == profile.b(k), (n, d, k)


def test_criterion_3_tuple_round_trip(ci_pools):
    with criterion("criterion-3 tuple round trip", budget=300.0):
        for (n, d), pool in ci_pools.items():
            assert len(pool) == 10
            for w in pool:
                for k in k_range(n, d):
                    back = recover_generators(ideal_piece(w, k), k, n, d)
                    assert back.span == w.span, (n, d, k)
            # 10 distinct pairs: consecutive cyclic pairs of the pool
            pairs = [(pool[i], pool[(i + 1) % len(pool)]) for i in range(len(pool))]
            assert len(pairs) == 10
            for u, w in pairs:
                assert u.span != w.span
                for k in k_range(n, d):
                    assert ideal_piece(u, k) != ideal_piece(w, k), (n, d, k)


def test_criterion_4_polynomial_round_trip(nonst_pools):
    with criterion("criterion-4 polynomial round trip", budget=300.0):
        for (n, d), pool in nonst_pools.items():
            assert len(pool) == 20
            for f in pool:
                target = f.normalized()
                for k in k_range(n, d):
                    result = reconstruct_poly(jacobian_piece(f, k), k, n, d)
                    assert result.s == 1, (n, d, k)
                    assert result.basis[0].normalized() == target, (n, d, k)


def test_criterion_5_fiber_theorem():
    with criterion("criterion-5 fiber theorem"):
        result = fiber(jacobian_gens(fermat(2, 3)), 3)
        assert result.s == 3
        assert result.spanned() == span_polys(
            [parse_poly(t, n=2) for t in ("x0^3", "x1^3", "x2^3")]
        )

        def embed(f, n_target, positions):
            terms = {}
            for alpha, c in f.terms.items():
                beta = [0] * (n_target + 1)
                for pos, e in zip(positions, alpha):
                    beta[pos] = e
                terms[tuple(beta)] = c
            return HomogeneousPolynomial(n_target, f.degree, terms)

        g = random_smooth(1, 4, seed=211, require_non_st=True)
        h = random_smooth(1, 4, seed=223, require_non_st=True)
        left = embed(g, 3, (0, 1))
        right = embed(h, 3, (2, 3))
        blocks = fiber(jacobian_gens(left + right), 4)
        assert blocks.s == 2
        assert blocks.spanned() == span_polys([left, right])


def test_criterion_6_inverse_systems(ci_pools):
    with criterion("criterion-6 inverse systems"):
        squares = GeneratorTuple(
            2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x1^2", "x2^2")]
        )
        assert associated_form(squares).form == parse_poly("x0*x1*x2")
        for pool in ci_pools.values():
            for w in pool:
                assert verify_inverse_system(w)


def test_criterion_7_immersion_differentials(ci_pools, nonst_pools):
    with criterion("criterion-7 immersion differentials", budget=600.0):
        for (n, d), pool in ci_pools.items():
            for w in pool:
                for k in k_range(n, d):
                    assert tangent_kernel_at_tuple(w, k).kernel_dim == 0, (n, d, k)
        for (n, d), pool in nonst_pools.items():
            for f in pool:
                for k in k_range(n, d):
                    assert tangent_kernel_at_poly(f, k).kernel_dim == 0, (n, d, k)
        assert tangent_kernel_at_poly(fermat(2, 3), 2).kernel_dim >= 2


def test_criterion_8_containment(nonst_pools):
    with criterion("criterion-8 containment criterion"):
        for (n, d), pool in nonst_pools.items():
            rng = random.Random(5_000 + n * 100 + d)
            monomials = mono_basis(n, d)
            randoms = []
            while len(randoms) < 30:
                h = HomogeneousPolynomial(
                    n, d, {alpha: rng.randint(-4, 4) for alpha in monomials}
                )
                if not h.is_zero():
                    randoms.append(h)
            for f in pool:
                normalized = f.normalized()
                for h in randoms:
                    outcome = containment_implies_equal(h, f, d - 1)
                    if outcome.hypothesis_holds:
                        # containment forces projective equality
                        assert outcome.conclusion_holds
                        assert h.normalized() == normalized
                # scalar multiples satisfy both sides at every degree in range
                scaled = f * Q(-3, 5)
                for k in k_range(n, d):
                    outcome = containment_implies_equal(scaled, f, k)
                    assert outcome.hypothesis_holds and outcome.conclusion_holds


def test_criterion_9_well_definedness(ci_pools):
    with criterion("criterion-9 well-definedness"):
        # sizes and degrees where the representation b = sum u_i g_i is
        # genuinely ambiguous (Koszul syzygies exist in range)
        spots = []
        for n, d in PAIRS:
            for k in k_range(n, d):
                if (n + 1) * dim_graded(n, k - (d - 1)) > hilbert_profile(n, d).b(k):
                    spots.append((n, d, k))
        assert spots
        rng = random.Random(424_242)
        checked = 0
        trial = 0
        while checked < 20:
            n, d, k = spots[trial % len(spots)]
            w = ci_pools[(n, d)][trial % 10]
            trial += 1
            piece, sols = membership_solutions(w, k)
            dim_u = dim_graded(n, k - (d - 1))
            syzygies = kernel_builder(multiplication_matrix(w, k), (n + 1) * dim_u).rows
            assert syzygies
            monos = mono_basis(n, d - 1)
            parts = [
                HomogeneousPolynomial(n, d - 1, {a: rng.randint(-2, 2) for a in monos})
                for _ in range(n + 1)
            ]
            u_basis = mono_basis(n, k - (d - 1))

            def image(dense):
                acc = HomogeneousPolynomial.zero(n, k)
                for i in range(n + 1):
                    ui = HomogeneousPolynomial(
                        n,
                        k - (d - 1),
                        {u_basis[u]: dense[i * dim_u + u] for u in range(dim_u)},
                    )
                    acc = acc + multiply(ui, parts[i])
                return acc

            bi = rng.randrange(piece.dim)
            dense1 = [Q(0)] * ((n + 1) * dim_u)
            for i in range(n + 1):
                for u, c in sols[bi][i]:
                    dense1[i * dim_u + u] = c
            offset = syzygies[rng.randrange(len(syzygies))]
            dense2 = [a + b for a, b in zip(dense1, offset)]
            difference = image(dense1) - image(dense2)
            assert piece.contains_vector(difference.coords())
            checked += 1
        assert checked == 20
