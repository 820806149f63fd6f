"""Property tests of the mod-p engine against its oracles, on generated inputs.

hypothesis draws generator tuples up to (3,3) and (2,5), some of them one
coefficient away from a tuple with a common zero, and integer matrices
with rows of any width. The walk of ``ci_walk_mod_p`` must keep the rows
of the walk by rescanning each row (``oracles.ci_walk_by_scan``) and give
its verdict, at ``linalg.PRIME`` and at small primes that make it fall
short; ``is_complete_intersection`` must give the exact fill's answer
either way; ``certify_rank`` must reach a bound exactly when sympy's rank
mod p does, and never past the rank over Q. On direct sums of two seeded
non-direct-sum blocks, some moved by a unimodular change of coordinates,
the tangent kernels at every k must be those read off the exact colon
piece (``oracles.poly_kernel_by_colon``), and ``fiber_is_line`` must
agree with the exact fiber at every prime. Runs are derandomized, with
a fixed number of examples, so every run draws the same inputs.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import Phase, assume, event, given, settings, strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

import milnoralg.ideals as ideals
import milnoralg.linalg as linalg
from milnoralg import (
    GeneratorTuple,
    HomogeneousPolynomial,
    PreconditionError,
    format_poly,
    ideal_piece,
    is_complete_intersection,
    jacobian_gens,
    linear_change,
    random_smooth,
    socle_degree,
    tangent_kernel_at_poly,
)
from milnoralg.linalg import certify_rank
from milnoralg.monomials import mono_basis
from milnoralg.reconstruction import fiber_is_line, forms_with_partials_in

from conftest import clear_prime_caches, recorded_walk
from oracles import ci_walk_by_scan_cut, poly_kernel_by_colon, random_unimodular

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)

# (n, d) up to (3,3) and (2,5)
SIZES = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 3)]
PRIMES = [linalg.PRIME, 3, 5, 7]


@st.composite
def generator_tuples(draw):
    """n+1 independent forms of degree d-1 with small coefficients.

    Half of them are one coefficient away from a common zero at (0, ..., 0, 1):
    every generator but one misses x_n^(d-1), and that one has it with a drawn
    coefficient, possibly 0.
    """
    n, d = draw(st.sampled_from(SIZES))
    monos = mono_basis(n, d - 1)
    coeffs = st.integers(-3, 3)
    gens = [{m: draw(coeffs) for m in monos} for _ in range(n + 1)]
    if draw(st.booleans()):
        corner = monos[-1]
        for g in gens:
            g[corner] = 0
        gens[draw(st.integers(0, n))][corner] = draw(coeffs)
    try:
        return GeneratorTuple(n, d, [HomogeneousPolynomial(n, d - 1, g) for g in gens])
    except PreconditionError:
        assume(False)


@contextmanager
def prime(p: int):
    """``linalg.PRIME`` set to p, with every cache of answers found mod p emptied."""
    clear_prime_caches()
    with mock.patch.object(linalg, "PRIME", p):
        yield
    clear_prime_caches()


@SETTINGS
@given(w=generator_tuples(), p=st.sampled_from(PRIMES))
def test_ci_walk_keeps_the_rows_of_the_scanning_walk(w, p):
    with prime(p):
        walk = recorded_walk(w.span)
        assert walk == ci_walk_by_scan_cut(w.span)
    event(f"(n, d) = {(w.n, w.d)}, walk {'proves the fill' if walk[0] else 'falls short'}")


@SETTINGS
@given(w=generator_tuples(), p=st.sampled_from(PRIMES))
def test_complete_intersection_is_the_exact_fill_at_every_prime(w, p):
    exact = ideal_piece(w, socle_degree(w.n, w.d) + 1).is_full()
    event(f"complete intersection: {exact}")
    with prime(p):
        assert is_complete_intersection(w) == exact
        # a walk that proves the fill is never wrong
        assert not ideals.ci_walk_mod_p.__wrapped__(w.span) or exact


def rank_mod(rows: list, width: int, p=None) -> int:
    """sympy's rank over Q, or over GF(p), of sparse integer rows."""
    dense = [[ZZ(row.get(j, 0)) for j in range(width)] for row in rows]
    matrix = DomainMatrix(dense, (len(rows), width), ZZ)
    return (matrix if p is None else matrix.convert_to(GF(p))).rank()


@st.composite
def sparse_rows(draw):
    """Up to 7 integer rows of any width up to 60, some entries past 2^31."""
    width = draw(st.integers(1, 60))
    entry = st.one_of(st.integers(-4, 4), st.sampled_from([2**31 - 1, 2**31, 3 * 2**40 + 1]))
    columns = st.lists(st.integers(0, width - 1), max_size=6, unique=True)
    rows = [{j: x for j in draw(columns) if (x := draw(entry))} for _ in range(draw(st.integers(0, 7)))]
    return [row for row in rows if row], width


@SETTINGS
@given(drawn=sparse_rows(), p=st.sampled_from(PRIMES))
def test_certify_rank_reaches_a_bound_exactly_when_the_rank_mod_p_does(drawn, p):
    rows, width = drawn
    over_q = rank_mod(rows, width)
    mod_p = rank_mod(rows, width, p)
    event(f"rank mod p {'below' if mod_p < over_q else 'equal to'} rank over Q")
    with prime(p):
        for bound in range(len(rows) + 2):
            certified = certify_rank(iter(rows), bound)
            assert certified == (mod_p >= bound)
            assert not certified or over_q >= bound


# -- direct sums: the tangent kernels and the fiber certificate ------------------------------


def in_variables(f: HomogeneousPolynomial, n: int, first: int) -> HomogeneousPolynomial:
    """f in the variables x_first, x_first+1, ... of n+1 variables."""
    pad = (0,) * (n - f.n - first)
    return HomogeneousPolynomial(n, f.degree, {(0,) * first + a + pad: c for a, c in f.terms.items()})


@st.composite
def direct_sums(draw):
    """(f, blocks): two seeded non-direct-sum blocks in disjoint variables, f their sum.

    The blocks are binary forms, or a ternary and a binary quartic; half of
    the sums are moved by a unimodular change of coordinates.
    """
    d, sizes = draw(st.sampled_from([(4, (1, 1)), (5, (1, 1)), (4, (2, 1))]))
    seeds = st.integers(0, 10**6)
    blocks = [random_smooth(m, d, draw(seeds), require_non_st=True) for m in sizes]
    n = sum(sizes) + 1
    f = in_variables(blocks[0], n, 0) + in_variables(blocks[1], n, sizes[0] + 1)
    if draw(st.booleans()):
        f = linear_change(f, random_unimodular(n, draw(seeds), steps=draw(st.integers(1, 4))))
    return f, blocks


def kernels_text(f: HomogeneousPolynomial, kernel) -> list:
    """The kernel reports of f at every k, as text."""
    return [
        (r.k, r.tangent_dim, r.kernel_dim, [format_poly(v.h) for v in r.basis])
        for r in (kernel(f, k) for k in range(f.degree - 1, socle_degree(f.n, f.degree) + 1))
    ]


# No shrinking: the draws are seeds, so a shrunk example reads no easier, and on a
# failure shrinking reran the exact colon for minutes.
@settings(
    derandomize=True,
    max_examples=12,
    deadline=None,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)
@given(drawn=direct_sums(), p=st.sampled_from([3, 5, 7]))
def test_direct_sum_kernels_and_fiber_certificate_match_the_exact_routes(drawn, p):
    f, blocks = drawn
    exact = kernels_text(f, poly_kernel_by_colon)
    assert {kernel_dim for _, _, kernel_dim, _ in exact} == {1}  # two summands
    for q in (linalg.PRIME, p):
        with prime(q):
            assert kernels_text(f, tangent_kernel_at_poly) == exact
            for g in (f, *blocks):
                span = jacobian_gens(g).span
                assert fiber_is_line(span) == (len(forms_with_partials_in(span)) <= 1)

