import pytest

from milnoralg import (
    HomogeneousPolynomial,
    PreconditionError,
    coordinate_split,
    fermat,
    fiber,
    format_poly,
    is_smooth,
    jacobian_gens,
    linear_change,
    parse_poly,
    random_ci_tuple,
    random_smooth,
    span_polys,
    st_report,
)

from oracles import fiber_dimension_oracle, random_unimodular


def embed(f, n_target, positions):
    """Re-index a form into a larger variable set (disjoint-block fixtures)."""
    terms = {}
    for alpha, c in f.terms.items():
        beta = [0] * (n_target + 1)
        for pos, e in zip(positions, alpha):
            beta[pos] = e
        terms[tuple(beta)] = c
    return HomogeneousPolynomial(n_target, f.degree, terms)


# -- reports --------------------------------------------------------------------


def test_st_report_fermat():
    report = st_report(fermat(2, 3))
    assert report.is_st and report.s == 3
    assert report.fiber.s == 3


def test_st_report_perturbed_fermat_consistency():
    f = parse_poly("x0^3 + x1^3 + x2^3 + x0*x1*x2")
    report = st_report(f)
    assert report.s == fiber(jacobian_gens(f), 3).s
    assert report.is_st == (report.s >= 2)
    assert report.s == fiber_dimension_oracle(jacobian_gens(f).gens, 3)


def test_st_report_rejects_singular():
    with pytest.raises(PreconditionError):
        st_report(parse_poly("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2"))


def test_st_report_rejects_quadrics():
    # the fiber of a quadric is all of S_2, not a summand count
    with pytest.raises(ValueError):
        st_report(fermat(2, 2))


def test_two_disjoint_non_st_blocks_give_s_2():
    g = random_smooth(1, 4, seed=71, require_non_st=True)
    h = random_smooth(1, 4, seed=73, require_non_st=True)
    f = embed(g, 3, (0, 1)) + embed(h, 3, (2, 3))
    result = fiber(jacobian_gens(f), 4)
    assert result.s == 2
    assert result.spanned() == span_polys([embed(g, 3, (0, 1)), embed(h, 3, (2, 3))])


def test_disjoint_st_blocks_split_further():
    # two binary cubic blocks: each is itself a sum of two cubes after a
    # coordinate change, so the count is 4, not 2
    g = random_smooth(1, 3, seed=79)
    h = random_smooth(1, 3, seed=83)
    f = embed(g, 3, (0, 1)) + embed(h, 3, (2, 3))
    assert fiber(jacobian_gens(f), 3).s == 4


def test_block_count_matches_fermat():
    # Fermat in n+1 variables is the extreme case: s = n + 1
    for n in (1, 2, 3):
        result = fiber(jacobian_gens(fermat(n, 3)), 3)
        assert result.s == n + 1


# -- coordinate splits -------------------------------------------------------------


def test_coordinate_split_examples():
    assert coordinate_split(fermat(2, 3)) == ((0,), (1,), (2,))
    assert coordinate_split(parse_poly("x0*x1*x2")) == ((0, 1, 2),)
    assert coordinate_split(parse_poly("x0^2*x1 + x2^3")) == ((0, 1), (2,))


def test_coordinate_split_unused_variables_are_singletons():
    f = parse_poly("x0^2", n=2)
    assert coordinate_split(f) == ((0,), (1,), (2,))


def test_visible_split_count_bounds_summand_count():
    for f in [fermat(2, 3), parse_poly("x0^3 + x1^3 + x2^3 + x0*x1*x2")]:
        r = len(coordinate_split(f))
        s = st_report(f).s
        assert r <= s


def test_hidden_split_found_by_fiber_not_by_split():
    # mix the Fermat coordinates: no split is visible, s is still 3
    f = linear_change(fermat(2, 3), [[1, 1, 0], [0, 1, 0], [0, 1, 1]])
    assert len(coordinate_split(f)) == 1
    assert st_report(f).s == 3


# -- random generation ---------------------------------------------------------------


def test_random_smooth_is_deterministic_and_smooth():
    a = random_smooth(2, 3, seed=1)
    b = random_smooth(2, 3, seed=1)
    assert a == b
    assert is_smooth(a)


def test_random_smooth_non_st_flag():
    f = random_smooth(2, 3, seed=1, require_non_st=True)
    assert is_smooth(f)
    assert st_report(f).s == 1


def test_random_smooth_binary_quartic():
    f = random_smooth(1, 4, seed=7)
    assert is_smooth(f) and f.degree == 4 and f.n == 1


def test_random_smooth_cap_exhaustion():
    # coeff_bound=0 leaves only the Fermat form, which is always a direct sum
    with pytest.raises(PreconditionError):
        random_smooth(2, 3, seed=5, require_non_st=True, coeff_bound=0, max_attempts=10)


def test_random_smooth_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_smooth(0, 3, seed=1)
    with pytest.raises(ValueError):
        random_smooth(2, 2, seed=1, require_non_st=True)


def test_random_ci_tuple_deterministic():
    a = random_ci_tuple(2, 3, seed=3)
    b = random_ci_tuple(2, 3, seed=3)
    assert a == b
    from milnoralg import is_complete_intersection

    assert is_complete_intersection(a)


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: random_smooth(2, 3, seed),
        lambda seed: random_ci_tuple(2, 3, seed),
        lambda seed: random_unimodular(2, seed),
    ],
    ids=["random_smooth", "random_ci_tuple", "random_unimodular"],
)
def test_generators_reject_negative_seeds(draw):
    # random.Random would seed with |seed|, repeating the draws of the positive twin
    for seed in (-1, -7):
        with pytest.raises(ValueError, match="seed >= 0"):
            draw(seed)


@pytest.mark.parametrize(
    "draw",
    [
        lambda bound: random_smooth(2, 3, 0, coeff_bound=bound),
        lambda bound: random_ci_tuple(2, 3, 0, coeff_bound=bound),
    ],
    ids=["random_smooth", "random_ci_tuple"],
)
def test_generators_reject_negative_coefficient_bounds(draw):
    # randint(-b, b) with b < 0 would raise Python's own "empty range" error
    for bound in (-1, -4):
        with pytest.raises(ValueError, match=f"^need coeff_bound >= 0, got {bound}$"):
            draw(bound)


def test_nonnegative_seeds_draw_what_they_always_drew():
    assert format_poly(random_smooth(2, 3, 0)) == (
        "4*x0^3 + 3*x0^2*x2 - 3*x0*x1*x2 - x0*x2^2 + 2*x1^3 + 4*x2^3"
    )
    assert [format_poly(g) for g in random_ci_tuple(2, 3, 7).gens] == [
        "x0^2 - x0*x1 + x0*x2 - 2*x1^2 - 2*x1*x2 + 2*x2^2",
        "-2*x0^2 + 2*x0*x2 - x1^2 + 2*x1*x2 - x2^2",
        "-2*x0^2 - 2*x0*x1 + x0*x2 + x1^2 - 2*x1*x2",
    ]
    assert random_unimodular(2, 0) == [[1, 0, 0], [-1, 1, 0], [-1, 0, 1]]


# -- invariance under coordinate changes ------------------------------------------------


def test_summand_count_invariant_under_unimodular_changes():
    f = random_smooth(2, 3, seed=89, require_non_st=True)
    for seed in range(3):
        mat = random_unimodular(2, seed=seed)
        assert st_report(linear_change(f, mat)).s == 1
    fermat_count = st_report(fermat(2, 3)).s
    for seed in range(3):
        mat = random_unimodular(2, seed=100 + seed)
        assert st_report(linear_change(fermat(2, 3), mat)).s == fermat_count
