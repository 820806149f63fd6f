import random
from fractions import Fraction

import pytest

from milnoralg import (
    HomogeneousPolynomial,
    fermat,
    format_poly,
    linear_change,
    mono_basis,
    multiply,
    parse_poly,
    partial,
    polar_apply,
)
from milnoralg.rationals import Q

from oracles import (
    apolar_inner,
    euler_check,
    euler_recover,
    evaluate,
    poly_to_sympy,
    sympy_polar_apply,
)
import sympy


def rand_poly(rng, n, d, bound=4):
    terms = {}
    for alpha in mono_basis(n, d):
        c = rng.randint(-bound, bound)
        if c:
            terms[alpha] = c
    return HomogeneousPolynomial(n, d, terms)


# -- construction and parsing -------------------------------------------


def test_constructor_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        HomogeneousPolynomial(1, 2, {(2, 0): 1, (1, 0): 1})


def test_constructor_drops_zero_coefficients():
    f = HomogeneousPolynomial(1, 2, {(2, 0): 0, (1, 1): 3})
    assert (2, 0) not in f.terms
    assert f.terms[(1, 1)] == 3


def test_parse_basic():
    f = parse_poly("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2")
    assert f.n == 2 and f.degree == 3
    assert f.terms[(1, 1, 1)] == -3
    assert f.terms[(3, 0, 0)] == 1


def test_parse_rational_coefficients_and_whitespace():
    f = parse_poly("  1/2 * x0^2+ 2*x1^2 -x0*x1 ")
    assert f.terms[(2, 0)] == Q(1, 2)
    assert f.terms[(0, 2)] == 2
    assert f.terms[(1, 1)] == -1


def test_parse_merges_repeated_monomials():
    assert parse_poly("x0 + x0", n=1).terms[(1, 0)] == 2
    assert parse_poly("x0 - x0", n=1).is_zero()


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_poly("x0 + x1^2")  # not homogeneous
    with pytest.raises(ValueError):
        parse_poly("3x0")  # grammar requires 3*x0
    with pytest.raises(ValueError):
        parse_poly("x5", n=2)
    with pytest.raises(ValueError):
        parse_poly("1/0*x0")
    for text in ("x\u0661^3", "x0^\u0663", "\u0662*x0"):  # digits outside ASCII
        with pytest.raises(ValueError):
            parse_poly(text)
    with pytest.raises(ValueError):
        parse_poly("")


def test_format_round_trip_random():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(0, 3)
        d = rng.randint(0, 4)
        f = rand_poly(rng, n, d)
        assert parse_poly(format_poly(f), n=n, degree=d) == f


def test_format_canonical_examples():
    assert format_poly(parse_poly("x1^3+x0^3", n=1)) == "x0^3 + x1^3"
    assert format_poly(parse_poly("2/4*x0", n=0)) == "1/2*x0"
    assert format_poly(HomogeneousPolynomial.zero(2, 3)) == "0"
    assert format_poly(parse_poly("-x0^2 + x1^2")) == "-x0^2 + x1^2"


# -- ring operations -----------------------------------------------------


def test_multiply_examples():
    x0 = parse_poly("x0", n=1)
    x1 = parse_poly("x1", n=1)
    assert multiply(x0, x1) == parse_poly("x0*x1", n=1)
    assert multiply(parse_poly("x0+x1", n=1), parse_poly("x0-x1", n=1)) == parse_poly(
        "x0^2 - x1^2", n=1
    )
    assert multiply(parse_poly("1/2*x0^2", n=1), parse_poly("2*x1^3", n=1)) == parse_poly(
        "x0^2*x1^3", n=1
    )


def test_multiply_variable_count_mismatch():
    with pytest.raises(ValueError):
        multiply(parse_poly("x0", n=0), parse_poly("x1", n=1))


def test_partial_examples():
    assert partial(parse_poly("x0^3", n=0), 0) == parse_poly("3*x0^2", n=0)
    assert partial(parse_poly("x0*x1*x2"), 1) == parse_poly("x0*x2", n=2)
    assert partial(parse_poly("x0^3+x1^3+x2^3"), 2) == parse_poly("3*x2^2", n=2)
    with pytest.raises(IndexError):
        partial(parse_poly("x0^2", n=0), 1)


def test_polar_apply_examples():
    # single differentiation: x0 acting on z0^2 z1
    assert polar_apply(parse_poly("x0", n=1), parse_poly("x0^2*x1", n=1)) == parse_poly(
        "2*x0*x1", n=1
    )
    # alpha! = 2
    two = polar_apply(parse_poly("x0^2", n=0), parse_poly("x0^2", n=0))
    assert two.degree == 0 and two.terms[(0,)] == 2
    # alpha = (1,1): alpha! = 1
    one = polar_apply(parse_poly("x0*x1", n=1), parse_poly("x0*x1", n=1))
    assert one.terms[(0, 0)] == 1


def test_polar_apply_degree_precondition():
    with pytest.raises(ValueError):
        polar_apply(parse_poly("x0^2", n=0), parse_poly("x0", n=0))


def test_polar_apply_matches_symbolic_differentiation():
    rng = random.Random(11)
    for _ in range(10):
        f = rand_poly(rng, 2, 2)
        q = rand_poly(rng, 2, 4)
        got = polar_apply(f, q)
        want = sympy_polar_apply(f, q)
        variables = sympy.symbols("z0:3")
        assert sympy.expand(poly_to_sympy(got, variables) - want) == 0


def test_apolar_inner_examples():
    assert apolar_inner(parse_poly("x0^2", n=0), parse_poly("x0^2", n=0)) == 2
    assert apolar_inner(parse_poly("x0^2", n=1), parse_poly("x1^2", n=1)) == 0
    # expand sum alpha! a b by hand: 1*2*3 + 2*1*(-1) = 4
    f = parse_poly("2*x0*x1 + x2^2")
    q = parse_poly("3*x0*x1 - x2^2")
    assert apolar_inner(f, q) == 4


def test_apolar_inner_is_polar_apply_in_equal_degree():
    rng = random.Random(3)
    for _ in range(20):
        f = rand_poly(rng, 2, 3)
        q = rand_poly(rng, 2, 3)
        constant = polar_apply(f, q)
        value = constant.terms.get((0, 0, 0), 0)
        assert apolar_inner(f, q) == value


def test_gram_matrix_is_diagonal_with_factorials():
    # perfect pairing: monomial Gram matrix diagonal, entries alpha! > 0
    import math

    for n, rho in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        basis = mono_basis(n, rho)
        for i, a in enumerate(basis):
            fa = HomogeneousPolynomial.monomial(n, a)
            for j, b in enumerate(basis):
                fb = HomogeneousPolynomial.monomial(n, b)
                value = apolar_inner(fa, fb)
                if i == j:
                    assert value == math.prod(math.factorial(e) for e in a) > 0
                else:
                    assert value == 0


def test_polar_composition_property():
    # (f*g) . Q == f . (g . Q)
    rng = random.Random(17)
    for _ in range(15):
        f = rand_poly(rng, 2, 1)
        g = rand_poly(rng, 2, 2)
        q = rand_poly(rng, 2, 4)
        assert polar_apply(multiply(f, g), q) == polar_apply(f, polar_apply(g, q))


# -- Euler identity --------------------------------------------------------


def test_euler_examples():
    assert euler_check(parse_poly("x0^3", n=0))
    assert euler_check(parse_poly("x0*x1*x2"))
    assert euler_check(parse_poly("x0^2*x1 + x1^2*x2"))


def test_euler_holds_for_100_random_polynomials():
    rng = random.Random(23)
    count = 0
    while count < 100:
        n = rng.randint(0, 3)
        d = rng.randint(1, 5)
        f = rand_poly(rng, n, d)
        if f.is_zero():
            continue
        assert euler_check(f)
        count += 1


def test_euler_recover_inverts_partials():
    rng = random.Random(29)
    for _ in range(10):
        f = rand_poly(rng, 2, 4)
        if f.is_zero():
            continue
        gens = [partial(f, i) for i in range(3)]
        assert euler_recover(gens) == f


# -- evaluation, scaling, coordinate changes --------------------------------


def test_evaluate():
    f = parse_poly("x0^2*x1 - 2*x2^3")
    assert evaluate(f, [1, 2, 1]) == 0
    assert evaluate(f, [Fraction(1, 2), 4, 0]) == 1


def test_scalar_arithmetic():
    f = parse_poly("x0^2 + x1^2")
    assert 2 * f == parse_poly("2*x0^2 + 2*x1^2")
    assert f - f == HomogeneousPolynomial.zero(1, 2)
    assert (f * Q(1, 2)).terms[(2, 0)] == Q(1, 2)
    assert f.normalized() == f


def test_linear_change_identity_and_swap():
    f = parse_poly("x0^2 + 3*x0*x1")
    identity = [[1, 0], [0, 1]]
    assert linear_change(f, identity) == f
    swap = [[0, 1], [1, 0]]
    assert linear_change(f, swap) == parse_poly("3*x0*x1 + x1^2")


def test_linear_change_preserves_evaluation():
    rng = random.Random(31)
    f = rand_poly(rng, 2, 3)
    mat = [[1, 2, 0], [0, 1, -1], [1, 0, 1]]
    g = linear_change(f, mat)
    point = [2, -1, 3]
    moved = [sum(mat[i][j] * point[j] for j in range(3)) for i in range(3)]
    assert evaluate(g, point) == evaluate(f, moved)


def test_fermat_form():
    f = fermat(2, 3)
    assert f == parse_poly("x0^3 + x1^3 + x2^3")
    assert euler_check(f)
