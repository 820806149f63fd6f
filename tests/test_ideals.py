import itertools
import json
from unittest import mock

import pytest

from milnoralg import (
    GeneratorTuple,
    PreconditionError,
    associated_form,
    check_size,
    containment_implies_equal,
    dim_graded,
    hilbert_profile,
    ideal_piece,
    is_complete_intersection,
    is_smooth,
    jacobian_gens,
    jacobian_piece,
    parse_poly,
    partial,
    partials_piece,
    fermat,
    format_poly,
    random_ci_tuple,
    random_smooth,
    recover_generators,
    socle_degree,
    span_polys,
    st_report,
    tangent_kernel_at_poly,
    tangent_kernel_at_tuple,
    zero_subspace,
)
import milnoralg.ideals as ideals
from milnoralg.ideals import _relay, check_degree, ci_walk_mod_p, generated_piece, generic_piece_dim
from milnoralg.linalg import ModularEchelon
from milnoralg.polynomials import HomogeneousPolynomial
from milnoralg.serialize import gens_to_dict

from conftest import recorded_walk
from oracles import ci_walk_by_scan, ci_walk_by_scan_cut, evaluate, singular_at_point
from test_cli import run


def monomial_tuple(*texts):
    polys = [parse_poly(t, n=None) for t in texts]
    n = max(p.n for p in polys)
    polys = [parse_poly(t, n=n) for t in texts]
    d = polys[0].degree + 1
    return GeneratorTuple(n, d, polys)


SQUARES = monomial_tuple("x0^2", "x1^2", "x2^2")  # n=2, d=3, T=3


def brute_monomial_multiples(gens_exponents, nvars, k):
    """All degree-k monomials divisible by some generator monomial."""
    out = set()
    for g in gens_exponents:
        rem = k - sum(g)
        if rem < 0:
            continue
        for u in itertools.product(range(rem + 1), repeat=nvars):
            if sum(u) == rem:
                out.add(tuple(a + b for a, b in zip(g, u)))
    return out


# -- Hilbert profiles ----------------------------------------------------------


def test_hilbert_examples():
    assert hilbert_profile(2, 3).values == (1, 3, 3, 1, 0)
    assert hilbert_profile(2, 4).values == (1, 3, 6, 7, 6, 3, 1, 0)
    assert hilbert_profile(1, 3).values == (1, 2, 1, 0)
    assert hilbert_profile(2, 3).socle == 3
    assert hilbert_profile(2, 4).socle == 6


def test_hilbert_symmetry_and_total():
    for n in range(1, 4):
        for d in range(2, 7):
            profile = hilbert_profile(n, d)
            top = profile.socle
            assert top == (n + 1) * (d - 2)
            assert profile.a(0) == 1 and profile.a(top) == 1 and profile.a(top + 1) == 0
            for k in range(top + 1):
                assert profile.a(k) == profile.a(top - k)
            assert profile.total == (d - 1) ** (n + 1)


def test_hilbert_low_degrees_match_ambient():
    profile = hilbert_profile(2, 4)
    for k in range(3):  # below the generator degree nothing is removed
        assert profile.a(k) == dim_graded(2, k)
        assert profile.b(k) == 0


def test_hilbert_profile_recurrence_matches_the_binomial_sums():
    # the recurrence against generic_piece_dim's alternating sum, which the relay bounds read
    for n in range(1, 7):
        for d in range(2, 8):
            profile = hilbert_profile(n, d)
            assert len(profile.values) == profile.socle + 2
            for k in range(profile.socle + 3):
                assert profile.b(k) == generic_piece_dim(n, d - 1, n + 1, k), (n, d, k)


def test_hilbert_rejects_bad_sizes():
    with pytest.raises(ValueError):
        hilbert_profile(0, 3)
    with pytest.raises(ValueError):
        hilbert_profile(2, 1)


def test_one_size_check_at_every_entry_point():
    check_size(1, 2)
    for n, d in [(0, 3), (2, 1), (-1, 3)]:
        with pytest.raises(ValueError, match="need n >= 1 and d >= 2"):
            check_size(n, d)
    one_var = parse_poly("x0^2", n=0)
    for call in (
        lambda: is_smooth(one_var),
        lambda: jacobian_gens(one_var),
        lambda: GeneratorTuple(0, 3, [parse_poly("x0^2", n=0)]),
        lambda: GeneratorTuple(2, 1, [parse_poly(t, n=2) for t in ("1", "1", "1")]),
    ):
        with pytest.raises(ValueError, match="need n >= 1 and d >= 2"):
            call()


@pytest.mark.parametrize(
    "n,d,k,message",
    [
        (0, 3, 2, "need n >= 1 and d >= 2, got n=0, d=3"),
        (2, 1, 0, "need n >= 1 and d >= 2, got n=2, d=1"),
        (2, 3, 1, "need d-1 <= k <= 3, got k=1"),
        (2, 3, 4, "need d-1 <= k <= 3, got k=4"),
    ],
)
def test_one_degree_check_at_every_entry_point(n, d, k, message):
    f = fermat(n, d)
    for call in (
        lambda: check_degree(n, d, k),
        lambda: tangent_kernel_at_poly(f, k),
        lambda: recover_generators(zero_subspace(n, k), k, n, d),
        lambda: containment_implies_equal(f, f, k),
    ):
        with pytest.raises(ValueError) as refused:
            call()
        assert refused.type is ValueError and str(refused.value) == message


def test_hilbert_agrees_with_fermat_jacobian_dimensions():
    # independent route: actual kernels/spans of the Fermat Jacobian ideal
    for n, d in [(1, 3), (2, 3), (2, 4)]:
        profile = hilbert_profile(n, d)
        w = jacobian_gens(fermat(n, d))
        for k in range(profile.socle + 2):
            assert dim_graded(n, k) - ideal_piece(w, k).dim == profile.a(k)


# -- generator tuples -----------------------------------------------------------


def test_generator_tuple_validation():
    with pytest.raises(ValueError):
        GeneratorTuple(2, 3, [parse_poly("x0^2", n=2)])  # wrong count
    with pytest.raises(ValueError):
        GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x1^2", "x2^3")])
    with pytest.raises(PreconditionError):
        GeneratorTuple(
            2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x1^2", "x0^2 + x1^2")]
        )


# -- ideal pieces ----------------------------------------------------------------


def test_ideal_piece_at_generator_degree():
    piece = ideal_piece(SQUARES, 2)
    assert piece.dim == 3
    assert piece == ideal_piece(SQUARES, 2)
    assert piece.contains_poly(parse_poly("x1^2", n=2))


def test_ideal_piece_below_generator_degree_is_zero():
    assert ideal_piece(SQUARES, 1).is_zero()
    assert ideal_piece(SQUARES, 0).is_zero()


def test_ideal_piece_squares_degree_3():
    # brute-force enumeration: monomials x_i^2 * x_j, all of S_3 except x0*x1*x2
    piece = ideal_piece(SQUARES, 3)
    expected = brute_monomial_multiples([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 3, 3)
    assert len(expected) == 9
    assert piece.dim == 9
    for alpha in expected:
        assert piece.contains_poly(HomogeneousPolynomial.monomial(2, alpha))
    assert not piece.contains_poly(parse_poly("x0*x1*x2"))


def test_ideal_piece_squares_degree_4_fills():
    # T = 3, so degree 4 fills all of S_4: 15 = dim S_4 - a(4), a(4) = 0
    piece = ideal_piece(SQUARES, 4)
    assert piece.dim == 15 == dim_graded(2, 4)
    expected = brute_monomial_multiples([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 3, 4)
    assert len(expected) == 15


def test_ideal_piece_generated_in_one_degree():
    # the degree-m piece is the lift of the degree-k piece for d-1 <= k <= m
    w = SQUARES
    for k in (2, 3):
        for m in range(k, 5):
            assert generated_piece(ideal_piece(w, k), m) == ideal_piece(w, m)


# -- Jacobian pieces ---------------------------------------------------------------


def test_jacobian_gens_fermat():
    w = jacobian_gens(fermat(2, 3))
    assert w.span == SQUARES.span
    piece = jacobian_piece(fermat(2, 3), 2)
    assert piece == ideal_piece(SQUARES, 2)


def test_jacobian_piece_dimension_quartic():
    f = fermat(2, 4)
    assert jacobian_piece(f, 6).dim == 28 - 1  # dim S_6 - a_{2,4}(6)


def test_jacobian_gens_rejects_cone():
    # with the message of the tuple of partials, which jacobian_gens no longer builds
    for text, n in [("x0^3", 2), ("x0^3 + x1^3", 2), ("x0^2*x1 + 1/3*x1^3", 2), ("0", 1)]:
        f = parse_poly(text, n=n, degree=3)
        with pytest.raises(PreconditionError) as direct:
            GeneratorTuple(n, 3, [partial(f, i) for i in range(n + 1)])
        with pytest.raises(PreconditionError, match=f"^{direct.value}$"):
            jacobian_gens(f)


def test_jacobian_gens_is_the_tuple_of_partials_formed_on_first_read():
    forms = [
        fermat(2, 3),
        random_smooth(2, 4, seed=5),
        random_smooth(3, 3, seed=2),
        parse_poly("1/2*x0^3 + 2/3*x1^3 - 3/7*x2^3 + x0*x1*x2"),
    ]
    for f in forms:
        expected = GeneratorTuple(f.n, f.degree, [partial(f, i) for i in range(f.n + 1)])
        with mock.patch.object(ideals, "partial", wraps=partial) as spy:
            w = jacobian_gens.__wrapped__(f)
            assert (w.n, w.d) == (expected.n, expected.d) and w.span == expected.span
            assert spy.call_count == 0
            assert w.gens == expected.gens and spy.call_count == f.n + 1
            assert w.gens is w.gens and spy.call_count == f.n + 1
        assert w == expected and hash(w) == hash(expected) and repr(w) == repr(expected)
        assert json.dumps(gens_to_dict(w)) == json.dumps(gens_to_dict(expected))


def test_partials_piece_is_the_piece_of_the_partials_as_forms():
    # dependent, zero and constant partials, rational coefficients
    texts = [("0", 2, 3), ("x0^3", 2, 3), ("x0^3 + x1^3", 2, 3), ("x0*x1", 2, 2), ("x0 + 2*x1", 2, 1),
             ("1/2*x0^2*x1 - 2/3*x1^3", 2, 3), ("x0^4 + 4*x0^3*x1 + 6*x0^2*x1^2 + 4*x0*x1^3 + x1^4", 1, 4)]
    for text, n, d in texts:
        f = parse_poly(text, n=n, degree=d)
        span = span_polys([partial(f, i) for i in range(n + 1)], n, d - 1)
        for k in range(d + 3):
            assert partials_piece(f, k) == generated_piece(span, k), (text, k)


def test_partials_piece_accepts_anything():
    cone = parse_poly("x0^3", n=2)
    piece = partials_piece(cone, 2)
    assert piece.dim == 1  # only multiples of x0^2
    assert partials_piece(cone, 3).dim == 3


def test_smooth_random_dimensions_match_profile():
    for n, d in [(1, 4), (2, 3)]:
        profile = hilbert_profile(n, d)
        f = random_smooth(n, d, seed=4)
        for k in range(profile.socle + 2):
            assert jacobian_piece(f, k).dim == profile.b(k)


# -- complete intersections and smoothness -------------------------------------------


def test_monomial_regular_sequence_is_ci():
    assert is_complete_intersection(SQUARES)


def test_common_zero_tuple_is_not_ci():
    w = monomial_tuple("x0^2", "x0*x1", "x0*x2")
    assert not is_complete_intersection(w)
    # every multiple is divisible by x0, so x1^(T+1) = x1^4 is missed
    piece = ideal_piece(w, socle_degree(2, 3) + 1)
    assert not piece.contains_poly(parse_poly("x1^4", n=2))
    for g in piece.basis_polynomials():
        assert all(alpha[0] > 0 for alpha in g.terms)


def test_random_smooth_quartic_partials_are_ci():
    f = random_smooth(2, 4, seed=11)
    assert is_complete_intersection(jacobian_gens(f))


def test_is_smooth_fermat():
    assert is_smooth(fermat(2, 3))


def test_is_smooth_cone_false():
    assert not is_smooth(parse_poly("x0^3", n=2))


def test_is_smooth_hesse_singular():
    hesse = parse_poly("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2")
    assert not is_smooth(hesse)
    # independent certificate: (1, 1, 1) kills every partial derivative
    for i in range(3):
        assert evaluate(partial(hesse, i), [1, 1, 1]) == 0


def test_is_smooth_rejects_low_degree():
    with pytest.raises(ValueError):
        is_smooth(parse_poly("x0", n=1))


# -- the walk mod p and its exact fallback ---------------------------------------------


def test_ci_falls_back_to_the_exact_fill_where_the_walk_mod_p_falls_short(patched_prime):
    # x0^2 + 3 x1^2, x0*x1 is a complete intersection over Q; mod 3 it is
    # x0^2, x0*x1, with the common zero x0 = 0, so the walk mod 3 never fills
    # S_3. f = x0^2 x1 + x1^3 has partials 2 x0 x1 and x0^2 + 3 x1^2.
    w = GeneratorTuple(1, 3, [parse_poly("x0^2 + 3*x1^2", n=1), parse_poly("x0*x1", n=1)])
    f = parse_poly("x0^2*x1 + x1^3", n=1)
    assert jacobian_gens(f).span == w.span
    e = ideal_piece(w, 2)
    assert ci_walk_mod_p(w.span)
    assert is_complete_intersection(w) and is_smooth(f)
    exact = recover_generators(e, 2, 1, 3)
    assert exact.span == w.span
    patched_prime(3)
    _relay.cache_clear()
    assert not ci_walk_mod_p(w.span)
    assert is_complete_intersection(w)
    assert _relay.cache_info().misses == 1  # the exact relay at T+1 = 3 decided it
    assert is_smooth(f)
    back = recover_generators(e, 2, 1, 3)
    assert back == exact and back.span == w.span


def test_ci_walk_decides_what_the_exact_fill_decides():
    w = jacobian_gens(random_smooth(2, 4, seed=11))
    bad = monomial_tuple("x0^2", "x0*x1", "x0*x2")
    top = socle_degree(2, 4)
    _relay.cache_clear()
    ci_walk_mod_p.cache_clear()
    # a bare boolean, read off the walk mod p alone: no exact relay is grown
    assert ci_walk_mod_p(w.span) is True and ci_walk_mod_p(bad.span) is False
    assert _relay.cache_info().misses == 0
    # the exact relay agrees: dim (I_W)_T = b(T), and only w fills its S_{T+1}
    assert ideal_piece(w, top).dim == hilbert_profile(2, 4).b(top)
    assert ideal_piece(w, top + 1).is_full()
    assert not ideal_piece(bad, socle_degree(2, 3) + 1).is_full()


def test_ci_walk_decides_quadrics(patched_prime):
    # at d = 2, T = 0: the walk takes no step, and the span itself must fill S_1
    f = parse_poly("x0^2 + x1^2 + x2^2")
    _relay.cache_clear()
    assert ci_walk_mod_p(jacobian_gens(f).span) and is_smooth(f)
    assert _relay.cache_info().misses == 0
    # x0 + x1, x0 - 2 x1 has determinant -3, dependent mod 3; but the walk reads the
    # RREF basis of the span, all of S_1, which stays independent at every prime
    w = GeneratorTuple(1, 2, [parse_poly("x0 + x1", n=1), parse_poly("x0 - 2*x1", n=1)])
    patched_prime(3)
    assert w.span.int_rows == {0: {0: 1}, 1: {1: 1}}
    assert ci_walk_mod_p(w.span) and is_complete_intersection(w)
    assert _relay.cache_info().misses == 0


def test_non_ci_input_keeps_its_refusals():
    bad = monomial_tuple("x0^2", "x0*x1", "x0*x2")
    assert not ci_walk_mod_p(bad.span)
    assert not is_complete_intersection(bad)
    with pytest.raises(PreconditionError, match="^generator tuple is not a complete intersection$"):
        associated_form(bad)
    with pytest.raises(PreconditionError, match="^generator tuple is not a complete intersection$"):
        tangent_kernel_at_tuple(bad, 2)
    with pytest.raises(PreconditionError, match="^recovered generators are not a complete intersection$"):
        recover_generators(ideal_piece(bad, 2), 2, 2, 3)
    hesse = parse_poly("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2")
    assert not ci_walk_mod_p(jacobian_gens(hesse).span)
    assert not is_smooth(hesse)
    with pytest.raises(PreconditionError, match="^form is not smooth$"):
        st_report(hesse)


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (2, 5)])
def test_a_form_singular_at_one_rational_point_is_not_smooth(n, d, capsys):
    for seed in (1, 2, 3):
        g, point = singular_at_point(n, d, seed=100 * n + 10 * d + seed)
        values = [evaluate(h, point) for h in (g, *(partial(g, i) for i in range(n + 1)))]
        assert values == [0] * (n + 2)
        # the walk mod p cannot reach a bound the exact ideal falls short of
        assert not ci_walk_mod_p(partials_piece(g, d - 1))
        exact_fill = partials_piece(g, socle_degree(n, d) + 1).is_full()
        assert is_smooth(g) is exact_fill is False
        code, out, err = run(capsys, "smooth", "--poly", format_poly(g))
        assert (code, out, err) == (0, "false\n", "")


# -- the walk mod p against the walk by rescanning each row --------------------------------


def walk_spans(ci_pools, nonst_pools):
    spans = [w.span for pool in ci_pools.values() for w in pool]
    return spans + [jacobian_gens(f).span for pool in nonst_pools.values() for f in pool]


def test_ci_walk_keeps_the_rows_of_the_scanning_walk(ci_pools, nonst_pools):
    spans = walk_spans(ci_pools, nonst_pools)
    assert len(spans) == 150
    for span in spans:
        verdict, kept = recorded_walk(span)
        assert verdict is True
        assert (verdict, kept) == ci_walk_by_scan_cut(span)
        assert max(kept) == socle_degree(span.n, span.k + 1) + 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ci_walk_keeps_the_rows_of_the_scanning_walk_at_a_small_prime(ci_pools, nonst_pools, patched_prime, p):
    patched_prime(p)
    short = 0
    for span in walk_spans(ci_pools, nonst_pools):
        verdict, kept = recorded_walk(span)
        assert (verdict, kept) == ci_walk_by_scan_cut(span)
        short += not verdict
    assert short > 0  # the prime forces walks that fall short, and so fallbacks


def test_ci_walk_stores_each_first_lead_product_as_it_is(monkeypatch):
    span = jacobian_gens(random_smooth(2, 5, seed=11)).span
    counts = dict.fromkeys(("first", "repeated", "reduced"), 0)
    real_product, real_reduce = ModularEchelon.insert_product, ModularEchelon._reduce

    def product(echelon, row, lead):
        first = lead not in echelon.int_rows
        counts["first" if first else "repeated"] += 1
        grew = real_product(echelon, row, lead)
        assert not first or (grew and echelon.int_rows[lead] is row)
        return grew

    def reduce(echelon, lead):
        counts["reduced"] += 1
        return real_reduce(echelon, lead)

    monkeypatch.setattr(ModularEchelon, "insert_product", product)
    monkeypatch.setattr(ModularEchelon, "_reduce", reduce)
    assert ci_walk_mod_p.__wrapped__(span)
    # only the rows of span at d-1 and the products repeating a lead are reduced
    assert counts["first"] > counts["repeated"] > 0
    assert counts["reduced"] == span.dim + counts["repeated"]


def test_ci_walk_forms_only_the_rows_its_reductions_read():
    # a product stored at a new lead stays a handle until a reduction reads its row;
    # a formed row is a dict, with its parents formed along with it
    span = random_ci_tuple(3, 4, seed=1).span
    verdict, kept = recorded_walk(span, form=False)
    assert verdict is True and max(kept) == socle_degree(3, 4) + 1
    stored = [row for rows in kept.values() for row in rows.values()]
    formed = [row for row in stored if type(row) is dict]
    assert len(stored) == 417 and 0 < 3 * len(formed) < len(stored)
    # forming the handles afterwards gives the rows of the scanning walk
    assert recorded_walk(span) == ci_walk_by_scan_cut(span)


def test_ci_walk_stops_at_the_first_degree_short_of_the_bound():
    # x0^3, x1^3, x0*x1*x2 vanish at (0, 0, 1): dim I_5 = 16 < b(5) = 18, so the
    # walk stops at 5 and grows neither T = 6 nor T+1, where the scanning walk goes on
    w = monomial_tuple("x0^3", "x1^3", "x0*x1*x2")
    assert socle_degree(2, 4) == 6
    verdict, kept = recorded_walk(w.span)
    assert verdict is False and sorted(kept) == [3, 4, 5]
    assert [len(kept[k]) for k in (3, 4, 5)] == [3, 9, 16]
    scanned, full = ci_walk_by_scan(w.span)
    assert scanned is False and sorted(full) == [3, 4, 5, 6]
    assert not is_complete_intersection(w)
