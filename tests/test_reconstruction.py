import random

import pytest

from milnoralg import (
    GeneratorTuple,
    HomogeneousPolynomial,
    PreconditionError,
    containment_implies_equal,
    dim_graded,
    fermat,
    fiber,
    format_poly,
    full_subspace,
    hilbert_profile,
    ideal_piece,
    is_smooth,
    jacobian_gens,
    jacobian_piece,
    mono_basis,
    parse_poly,
    random_ci_tuple,
    random_smooth,
    reconstruct_poly,
    recover_generators,
    socle_degree,
    span_polys,
    span_vectors,
    tangent_kernel_at_poly,
    zero_subspace,
)
import milnoralg.reconstruction as reconstruction
from milnoralg.ideals import generated_piece
from milnoralg.linalg import annihilator, colon_rows
from milnoralg.rationals import Q

from conftest import PAIRS, record_eliminations
from oracles import (
    containment_by_pieces,
    euler_recover,
    fiber_dimension_oracle,
    forms_with_partials_in_by_annihilator,
    recover_generators_by_lift,
)


FERMAT3 = fermat(2, 3)
W3 = jacobian_gens(FERMAT3)


# -- lifting -------------------------------------------------------------------


def test_lift_matches_ideal_piece():
    e2 = ideal_piece(W3, 2)
    assert generated_piece(e2, 3) == ideal_piece(W3, 3)
    assert generated_piece(e2, 3).dim == 9


def test_lift_identity_and_zero():
    e2 = ideal_piece(W3, 2)
    assert generated_piece(e2, 2) == e2
    assert generated_piece(zero_subspace(2, 2), 5) == zero_subspace(2, 5)


def test_lift_is_idempotent_under_composition():
    e2 = ideal_piece(W3, 2)
    assert generated_piece(generated_piece(e2, 3), 4) == generated_piece(e2, 4)


# -- recovering the generator tuple ----------------------------------------------


def test_recover_squares_from_degree_3():
    w = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x1^2", "x2^2")])
    e = ideal_piece(w, 3)
    back = recover_generators(e, 3, 2, 3)
    assert back.span == w.span


def test_recover_random_smooth_every_degree():
    for n, d in [(1, 4), (2, 3), (2, 4)]:
        f = random_smooth(n, d, seed=100 + n + d)
        w = jacobian_gens(f)
        for k in range(d - 1, socle_degree(n, d) + 1):
            back = recover_generators(ideal_piece(w, k), k, n, d)
            assert back.span == w.span
            # round trip at the piece level
            assert ideal_piece(back, k) == ideal_piece(w, k)


def test_recover_rejects_wrong_dimension():
    e = span_polys([parse_poly("x0^3", n=2)], n=2, k=3)
    with pytest.raises(PreconditionError):
        recover_generators(e, 3, 2, 3)


def test_recover_rejects_non_ci_piece():
    # right dimension (3 = b_{2,3}(2)) but generated by a non-regular sequence
    e = span_polys([parse_poly(t, n=2) for t in ("x0^2", "x0*x1", "x0*x2")])
    with pytest.raises(PreconditionError, match="not a complete intersection"):
        recover_generators(e, 2, 2, 3)
    with pytest.raises(PreconditionError):
        recover_generators_by_lift(e, 2, 2, 3)


def test_recover_rejects_out_of_range_degree():
    e = ideal_piece(W3, 2)
    with pytest.raises(ValueError):
        recover_generators(e, 1, 2, 3)


# -- the colon against the lift -> apolar complement -> apolar ideal oracle ------------


def assert_same_recovery(e, k, n, d):
    got = recover_generators(e, k, n, d)
    want = recover_generators_by_lift(e, k, n, d)
    assert repr(got.span.rows) == repr(want.span.rows)
    assert got.gens == want.gens
    return got


@pytest.mark.parametrize("n,d", PAIRS)
def test_recover_matches_lift_oracle_at_every_k(n, d, ci_pools, nonst_pools):
    tuples = ci_pools[(n, d)][:2] + [jacobian_gens(f) for f in nonst_pools[(n, d)][:2]]
    for w in tuples:
        for k in range(d - 1, socle_degree(n, d) + 1):
            assert assert_same_recovery(ideal_piece(w, k), k, n, d).span == w.span


def seeded_pieces(n, d, k, rng):
    """Seeded subspaces of S_k of the dimension b(k) of a piece, mostly not pieces.

    Three random subspaces, and two valid pieces with one row replaced.
    """
    b = hilbert_profile(n, d).b(k)
    amb = dim_graded(n, k)
    pieces = []
    while len(pieces) < 3:
        e = span_vectors(n, k, [[rng.randint(-3, 3) for _ in range(amb)] for _ in range(b)])
        if e.dim == b:
            pieces.append(e)
    valid = ideal_piece(random_ci_tuple(n, d, seed=rng.randrange(10**6)), k)
    for drop in rng.sample(range(b), 2):
        rows = [r for i, r in enumerate(valid.rows) if i != drop]
        e = span_vectors(n, k, rows + [[rng.randint(-3, 3) for _ in range(amb)]])
        if e.dim == b and e != valid:
            pieces.append(e)
    return pieces


def recovery_outcome(recover, e, k, n, d):
    try:
        return repr(recover(e, k, n, d).span.rows)
    except PreconditionError:
        return None


# A generic subspace of dimension b(k) is a valid piece at every k at these
# sizes: the apolar ideal of a generic binary quartic or ternary cubic is a
# complete intersection. Elsewhere it is one only at k = d-1.
EVERY_PIECE_VALID = {(1, 4), (2, 3)}


@pytest.mark.parametrize("n,d", PAIRS)
def test_recover_rejects_what_the_lift_oracle_rejects(n, d):
    rng = random.Random(1_000 * n + d)
    rejected = 0
    for k in range(d - 1, socle_degree(n, d) + 1):
        for e in seeded_pieces(n, d, k, rng):
            want = recovery_outcome(recover_generators_by_lift, e, k, n, d)
            assert recovery_outcome(recover_generators, e, k, n, d) == want
            rejected += want is None
    assert (rejected == 0) == ((n, d) in EVERY_PIECE_VALID)


def test_recovery_builds_each_relay_degree_once():
    from milnoralg.ideals import _relay

    for n, d in [(2, 4), (3, 3), (2, 5)]:
        w = random_ci_tuple(n, d, seed=7 * n + d)
        top = socle_degree(n, d)
        _relay.cache_clear()
        for k in range(d - 1, top + 1):
            assert recover_generators(ideal_piece(w, k), k, n, d).span == w.span
        # degrees d..T of W, grown by ideal_piece from W itself at d-1; recovery
        # grows none, not even T+1
        assert _relay.cache_info().misses == top - d + 1


def test_cold_smoothness_and_reconstruction_grow_no_exact_relay():
    from milnoralg.ideals import _relay, ci_walk_mod_p

    for n, d in [(2, 4), (3, 3), (2, 5)]:
        f = random_smooth(n, d, seed=31 * n + d, require_non_st=True)
        pieces = {k: jacobian_piece(f, k) for k in range(d - 1, socle_degree(n, d) + 1)}
        for cache in (_relay, ci_walk_mod_p):
            cache.cache_clear()
        assert is_smooth(f)
        for k, e in pieces.items():
            result = reconstruct_poly(e, k, n, d)
            assert result.s == 1 and result.basis[0] == f.normalized()
        # one walk mod p, shared by the smoothness test and every recovery
        assert _relay.cache_info().misses == 0
        assert ci_walk_mod_p.cache_info().misses == 1


def count_rows(monkeypatch, name: str) -> list:
    """Record every colon row that ``reconstruction.<name>`` pulls from its row iterator."""
    real, pulled = getattr(reconstruction, name), []

    def counted(rows, *args):
        def read():
            for row in rows:
                pulled.append(row)
                yield row

        return real(read(), *args)

    monkeypatch.setattr(reconstruction, name, counted)
    return pulled


def test_recovery_eliminates_colon_rows_only_up_to_the_rank(monkeypatch, patched_prime):
    n, d, k = 2, 4, 4
    w = random_ci_tuple(n, d, seed=3)
    e = ideal_piece(w, k)
    all_rows = list(colon_rows(annihilator(e), n, k, d - 1))
    modular = count_rows(monkeypatch, "kernel_mod_p")
    exact = count_rows(monkeypatch, "kernel_builder")
    # the kernel found mod p is proved exactly: no exact elimination at all
    assert recover_generators(e, k, n, d).span == w.span
    assert 0 < len(modular) < len(all_rows) and exact == []
    # mod 3 the lifted kernel fails the product check, and the exact elimination
    # stops at the same rank
    patched_prime(3)
    assert recover_generators(e, k, n, d).span == w.span
    assert 0 < len(exact) < len(all_rows)


def test_recovery_fallback_is_one_elimination(monkeypatch, patched_prime):
    n, d, k = 2, 4, 4
    w = random_ci_tuple(n, d, seed=3)
    e = ideal_piece(w, k)
    widths = record_eliminations(monkeypatch, [(reconstruction, "kernel_builder")])
    # mod 3 the lifted kernel fails the product check: the exact colon decides,
    # read off one elimination of its rows on dim S_{d-1} columns
    patched_prime(3)
    assert recover_generators(e, k, n, d).span == w.span
    assert widths == [dim_graded(n, d - 1)]


def test_recovery_needs_no_exact_elimination_on_seeded_pools(ci_pools, nonst_pools, monkeypatch):
    exact = count_rows(monkeypatch, "kernel_builder")
    recovered = 0
    for (n, d), pool in ci_pools.items():
        for w in pool[:5] + [jacobian_gens(f) for f in nonst_pools[(n, d)][:5]]:
            for k in range(d - 1, socle_degree(n, d) + 1):
                assert recover_generators(ideal_piece(w, k), k, n, d).span == w.span
                recovered += 1
    assert recovered > 0 and exact == []


def test_wrong_colon_is_refused_before_any_piece_is_grown():
    from milnoralg.ideals import _relay

    n, d, k = 2, 5, 9
    for e in seeded_pieces(n, d, k, random.Random(11)):
        _relay.cache_clear()
        with pytest.raises(PreconditionError, match="colon piece"):
            recover_generators(e, k, n, d)
        assert _relay.cache_info().misses == 0


# -- fibers -------------------------------------------------------------------------


def test_fiber_of_fermat_cubic():
    result = fiber(W3, 3)
    assert result.s == 3
    assert set(result.basis) == {
        parse_poly("x0^3", n=2),
        parse_poly("x1^3", n=2),
        parse_poly("x2^3", n=2),
    }


@pytest.mark.parametrize(
    "f",
    [random_smooth(2, 4, seed=5), random_smooth(3, 3, seed=5), fermat(2, 4), fermat(3, 3)],
    ids=["seeded(2,4)", "seeded(3,3)", "fermat(2,4)", "fermat(3,3)"],
)
def test_exact_fiber_is_one_elimination(f, monkeypatch):
    e = jacobian_gens(f).span
    want = forms_with_partials_in_by_annihilator(e)
    widths = record_eliminations(monkeypatch)
    assert reconstruction.forms_with_partials_in.__wrapped__(e) == want
    # the integrability rows are eliminated once, on (n+1) * dim E columns, and the
    # forms their kernel vectors map to are brought to RREF in S_d
    assert widths == [(e.n + 1) * e.dim, dim_graded(e.n, f.degree)]


def test_fiber_always_contains_source():
    for seed in (1, 2):
        f = random_smooth(2, 3, seed=seed)
        w = jacobian_gens(f)
        result = fiber(w, 3)
        assert result.s >= 1
        assert result.spanned().contains_vector(f.coords())
        assert euler_recover(w.gens) == f


def test_fiber_members_have_partials_in_span():
    result = fiber(W3, 3)
    from milnoralg import partial

    for g in result.basis:
        for i in range(3):
            assert W3.span.contains_poly(partial(g, i))


def test_fiber_dimension_matches_independent_oracle():
    # do not assume the answer for the perturbed Fermat cubic: solve it
    # independently, then check consistency
    mu = parse_poly("x0^3 + x1^3 + x2^3 + x0*x1*x2")
    w = jacobian_gens(mu)
    expected = fiber_dimension_oracle(w.gens, 3)
    got = fiber(w, 3)
    assert got.s == expected
    assert is_smooth(mu)
    assert (got.s == 1) == (expected == 1)

    assert fiber_dimension_oracle(W3.gens, 3) == 3


def test_fiber_of_non_st_quartic_is_line():
    f = random_smooth(2, 4, seed=23, require_non_st=True)
    result = fiber(jacobian_gens(f), 4)
    assert result.s == 1
    assert result.basis[0].normalized() == f.normalized()
    assert fiber_dimension_oracle(jacobian_gens(f).gens, 4) == 1


def test_fiber_generic_member_is_smooth_with_same_pieces():
    # sample a rational point with all coordinates nonzero
    combo = (
        parse_poly("x0^3", n=2) + 2 * parse_poly("x1^3", n=2) + 3 * parse_poly("x2^3", n=2)
    )
    assert is_smooth(combo)
    for k in range(2, 4):
        assert jacobian_piece(combo, k) == jacobian_piece(FERMAT3, k)


# -- full reconstruction -------------------------------------------------------------


def test_reconstruct_poly_non_st_quartic_all_degrees():
    f = random_smooth(2, 4, seed=31, require_non_st=True)
    target = f.normalized()
    for k in range(3, socle_degree(2, 4) + 1):
        result = reconstruct_poly(jacobian_piece(f, k), k, 2, 4)
        assert result.s == 1
        assert result.basis[0].normalized() == target


def test_reconstruct_poly_fermat_gives_fiber():
    result = reconstruct_poly(ideal_piece(W3, 3), 3, 2, 3)
    assert result.s == 3


def test_reconstruct_poly_edge_degree_matches_other_degrees():
    f = random_smooth(1, 4, seed=37, require_non_st=True)
    results = [
        reconstruct_poly(jacobian_piece(f, k), k, 1, 4)
        for k in range(3, socle_degree(1, 4) + 1)
    ]
    normalized = {r.basis[0].normalized() for r in results}
    assert len(normalized) == 1
    assert all(r.s == 1 for r in results)


# -- the fiber system is solved once per subspace ------------------------------------


@pytest.mark.parametrize(
    "f",
    [random_smooth(2, 4, seed=101, require_non_st=True), fermat(2, 4)],
    ids=["non-direct-sum", "fermat"],
)
def test_tangent_kernels_at_every_k_solve_the_fiber_system_once(f):
    from milnoralg.deformation import _fiber_mod_f
    from milnoralg.reconstruction import fiber_is_line, forms_with_partials_in

    n, d = f.n, f.degree
    degrees = range(d - 1, socle_degree(n, d) + 1)
    s = fiber(jacobian_gens(f), d).s
    forms_with_partials_in.cache_clear()
    fiber_is_line.cache_clear()
    _fiber_mod_f.cache_clear()
    kernels = {tangent_kernel_at_poly(f, k).kernel_dim for k in degrees}
    assert kernels == {s - 1}
    info = forms_with_partials_in.cache_info()
    # the certificate mod p proves the fiber of a non-direct sum is the line of
    # f with no exact solve; a direct sum solves it once (the certificate's
    # fallback) and reads it once more, for the kernel basis of every k
    assert (info.misses, info.hits) == ((0, 0) if s == 1 else (1, 1))


def test_reconstructions_at_every_k_solve_the_fiber_system_once():
    from milnoralg.reconstruction import forms_with_partials_in

    f = random_smooth(2, 4, seed=31, require_non_st=True)
    degrees = range(3, socle_degree(2, 4) + 1)
    forms_with_partials_in.cache_clear()
    for k in degrees:
        result = reconstruct_poly(jacobian_piece(f, k), k, 2, 4)
        assert result.basis[0].normalized() == f.normalized()
    info = forms_with_partials_in.cache_info()
    assert (info.misses, info.hits) == (1, len(degrees) - 1)


def test_equal_subspaces_built_apart_share_one_fiber_entry():
    from milnoralg.reconstruction import forms_with_partials_in
    from milnoralg.serialize import subspace_from_dict, subspace_to_dict

    g0, g1, g2 = jacobian_gens(random_smooth(2, 4, seed=31, require_non_st=True)).gens
    ways = [
        span_polys([g0, g1, g2]),
        span_polys([g2 * Q(-3, 7), g1 + g2, g0 + g1 * Q(1, 2)]),
        subspace_from_dict(subspace_to_dict(span_polys([g1, g0, g2]))),
    ]
    forms_with_partials_in.cache_clear()
    solved = [forms_with_partials_in(e) for e in ways]
    assert all(s is solved[0] for s in solved)
    info = forms_with_partials_in.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# -- the fiber on the coefficients of the partials, against the annihilator rows -------

# a binary quartic that is not a direct sum, plus a fourth power: s = 2
MIXED_SUM = parse_poly("-x0^4 + x0^3*x1 + x0^2*x1^2 - 2*x0*x1^3 + x2^4")


def assert_fibers_byte_equal(spans):
    from milnoralg.reconstruction import forms_with_partials_in

    for e in spans:
        solved, expected = forms_with_partials_in(e), forms_with_partials_in_by_annihilator(e)
        assert solved == expected
        assert [format_poly(g) for g in solved] == [format_poly(g) for g in expected]
        assert [list(g.coords()) for g in solved] == [list(g.coords()) for g in expected]


def test_fiber_matches_the_annihilator_fiber_on_the_pools(nonst_pools, smooth_pools):
    forms = [f for pools in (nonst_pools, smooth_pools) for pool in pools.values() for f in pool]
    forms += [fermat(n, d) for n, d in PAIRS] + [MIXED_SUM]
    assert_fibers_byte_equal(jacobian_gens(f).span for f in forms)
    assert fiber(jacobian_gens(MIXED_SUM), 4).s == 2


def test_fiber_matches_the_annihilator_fiber_off_the_jacobian_locus(ci_pools):
    # past binary forms and nets of conics, a random complete-intersection tuple
    # is no Jacobian tuple: its fiber is 0
    tuples = [w for pool in ci_pools.values() for w in pool[:4]]
    assert_fibers_byte_equal(w.span for w in tuples)
    assert [w.n for w in tuples if fiber(w, w.d).s == 0] == [2] * 8 + [3] * 4
    # E = 0 has the zero fiber, E = S_k all of S_{k+1}, k = 0 included
    edges = [zero_subspace(n, k) for n, k in ((1, 0), (2, 0), (2, 2), (3, 3))]
    edges += [full_subspace(n, k) for n, k in ((1, 0), (2, 0), (2, 2), (3, 3))]
    assert_fibers_byte_equal(edges)


# -- distinct tuples stay distinct (injectivity seen on pieces) ------------------------


def test_distinct_tuples_have_distinct_pieces_everywhere():
    a = random_ci_tuple(2, 3, seed=41)
    b = random_ci_tuple(2, 3, seed=43)
    assert a.span != b.span
    for k in range(2, socle_degree(2, 3) + 1):
        assert ideal_piece(a, k) != ideal_piece(b, k)


# -- containment criterion ---------------------------------------------------------------


def test_containment_with_itself_and_scalars():
    f = random_smooth(2, 3, seed=47, require_non_st=True)
    outcome = containment_implies_equal(f, f, 2)
    assert outcome.hypothesis_holds and outcome.conclusion_holds
    scaled = containment_implies_equal(f * Q(7, 3), f, 3)
    assert scaled.hypothesis_holds and scaled.conclusion_holds


def test_containment_fails_for_generic_other():
    f = random_smooth(2, 3, seed=53, require_non_st=True)
    h = random_smooth(2, 3, seed=59)
    if h.normalized() != f.normalized():
        outcome = containment_implies_equal(h, f, 2)
        assert not outcome.hypothesis_holds


def test_containment_fails_for_near_miss():
    f = random_smooth(2, 3, seed=61, require_non_st=True)
    h = f + parse_poly("x0^3", n=2)
    outcome = containment_implies_equal(h, f, 2)
    assert not outcome.hypothesis_holds


def test_containment_matches_the_exact_pieces_at_every_k(nonst_pools):
    # (J_h)_k lies in (J_f)_k exactly when the partials of h lie in W_f, the colon of
    # (J_f)_k at every d-1 <= k <= T: the answer read off W_f must be the pieces' answer
    rng = random.Random(37)
    cases = contained = 0
    for (n, d), pool in nonst_pools.items():
        monos = mono_basis(n, d)
        x0_d = HomogeneousPolynomial.monomial(n, (d,) + (0,) * n)
        for f in pool[:4]:
            hs = [HomogeneousPolynomial(n, d, {a: rng.randint(-3, 3) for a in monos}) for _ in range(8)]
            hs += [f * Q(-3, 5), f + x0_d, HomogeneousPolynomial.zero(n, d)]
            for h in hs:
                for k in range(d - 1, socle_degree(n, d) + 1):
                    expect = containment_by_pieces(h, f, k)
                    assert containment_implies_equal(h, f, k).hypothesis_holds == expect
                    cases, contained = cases + 1, contained + expect
    # of the 11 h per form, only the multiple of f and the zero form are contained, at
    # each of the 17 (size, k) pairs
    assert (cases, contained) == (748, 136)


def test_containment_rejects_st_reference():
    with pytest.raises(PreconditionError):
        containment_implies_equal(FERMAT3, FERMAT3, 2)


def test_containment_rejects_singular_reference():
    hesse = parse_poly("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2")
    with pytest.raises(PreconditionError):
        containment_implies_equal(hesse, hesse, 2)


def test_containment_checks_each_reference_once():
    from milnoralg.reconstruction import fiber_is_line

    refs = [random_smooth(2, 3, seed=s, require_non_st=True) for s in (71, 73)]
    others = [random_smooth(2, 3, seed=s) for s in range(80, 86)]
    fiber_is_line.cache_clear()
    for f in refs:
        for h in others + [f, f * Q(2, 5)]:
            for k in (2, 3):
                containment_implies_equal(h, f, k)
    assert fiber_is_line.cache_info().misses == len(refs)


def test_containment_grows_no_relay():
    # the partials of h are compared with W_f in S_{d-1}, where the piece of the
    # ideal they generate is their span itself: no relay step is taken or cached
    from milnoralg.ideals import _relay

    f = random_smooth(2, 4, seed=71, require_non_st=True)
    others = [random_smooth(2, 4, seed=s) for s in range(80, 90)]
    _relay.cache_clear()
    for h in others:
        for k in (3, 4, 6):
            assert containment_implies_equal(h, f, k) == (False, None)
    info = _relay.cache_info()
    assert info.misses == info.currsize == 0
    w = jacobian_gens(f)
    assert ideal_piece(w, w.d - 1) is w.span


def test_containment_reads_no_reference_verdict_found_at_another_prime(patched_prime):
    # the reference check reads verdicts the walk and the fiber certificate cache
    # mod p; at 3 both fall short for this form, so after the prime changes the
    # verdict must be found again, by the exact fallbacks
    from milnoralg.ideals import ci_walk_mod_p
    from milnoralg.reconstruction import fiber_is_line, forms_with_partials_in

    f = random_smooth(1, 4, seed=1, require_non_st=True)
    assert containment_implies_equal(f, f, 3) == (True, True)
    patched_prime(3)
    forms_with_partials_in.cache_clear()
    assert containment_implies_equal(f, f, 3) == (True, True)
    assert containment_implies_equal(f * Q(2, 5), f, 4) == (True, True)
    assert (fiber_is_line.cache_info().misses, fiber_is_line.cache_info().hits) == (1, 1)
    assert ci_walk_mod_p.cache_info().misses == 1 and forms_with_partials_in.cache_info().misses == 1
    assert not ci_walk_mod_p(jacobian_gens(f).span)


def exact_reference_fault(f):
    """The reference check decided by the exact fiber alone."""
    if not is_smooth(f):
        return "reference polynomial is not smooth"
    if fiber(jacobian_gens(f), f.degree).s != 1:
        return "reference polynomial is a direct sum"
    return None


def test_reference_fault_matches_the_exact_fiber(smooth_pools):
    import milnoralg.reconstruction as reconstruction

    forms = [f for pool in smooth_pools.values() for f in pool[:4]]
    forms += [fermat(2, 3), fermat(2, 4), fermat(3, 3), parse_poly("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2")]
    forms += [parse_poly("x0^4 + x1^4 + x2^4 + x1^2*x2^2"), parse_poly("x0^3 + x1^3", n=2)]
    verdicts = [reconstruction._reference_fault(f) for f in forms]
    assert verdicts == [exact_reference_fault(f) for f in forms]
    assert {None, "reference polynomial is a direct sum", "reference polynomial is not smooth"} == set(verdicts)


def test_non_direct_sum_sampler_draws_what_the_exact_fiber_draws(monkeypatch):
    import milnoralg.st_analysis as st_analysis
    from milnoralg.reconstruction import fiber_is_line, forms_with_partials_in

    draws = [(n, d, seed) for n, d in PAIRS for seed in range(4)]
    fiber_is_line.cache_clear()
    certified = [random_smooth(n, d, seed, require_non_st=True) for n, d, seed in draws]
    monkeypatch.setattr(st_analysis, "fiber_is_line", lambda span: len(forms_with_partials_in(span)) == 1)
    assert [random_smooth(n, d, seed, require_non_st=True) for n, d, seed in draws] == certified

