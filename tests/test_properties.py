"""Property tests of the mod-p engine against its oracles, on generated inputs.

hypothesis draws generator tuples up to (3,3) and (2,5), some of them one
coefficient away from a tuple with a common zero, and integer matrices
with rows of any width. The walk of ``ci_walk_mod_p`` must keep the rows
of the walk by rescanning each row (``oracles.ci_walk_by_scan``) and give
its verdict, at ``linalg.PRIME`` and at small primes that make it fall
short; ``relay_step``, which buckets the products by lead, must keep
the rows of the step that sorts them (``oracles.relay_step_by_sort``),
exactly and in the walk, at every prime; ``is_complete_intersection``
must give the exact fill's answer either way; ``poly_row`` must be
``integer_row`` of a rational form's coordinates; ``certify_rank`` must
reach a bound exactly when sympy's rank mod p does, and never past the
rank over Q. On direct sums of two seeded
non-direct-sum blocks, some moved by a unimodular change of coordinates,
the tangent kernels at every k must be those read off the exact colon
piece (``oracles.poly_kernel_by_colon``), and ``fiber_is_line`` must
agree with the exact fiber at every prime. ``recover_generators``, which
finds the colon kernel mod p and proves it exactly, must give the outcome
of the lift oracle (``oracles.recover_generators_by_lift``) on valid
pieces of seeded tuples and Jacobian spans, on those pieces with one row
replaced, and on pieces holding x_0 S_{k-1}, whose colon is too large.
On generated complete intersections, ``verify_inverse_system`` must agree
with the piece-by-piece oracle and ``koszul_check`` with sympy's exact
Koszul rank. Each is run at ``linalg.PRIME`` and at a small prime. On
generated integer forms, powers of linear forms and monomials,
``apolar_piece`` at every k must be sympy's kernel of the dense
catalecticant (``oracles.catalecticant_matrix``). Runs
are derandomized, with a fixed number of examples, so every run draws the
same inputs.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial, prod
from unittest import mock

from hypothesis import Phase, assume, event, given, settings, strategies as st
from sympy import GF, QQ, ZZ
from sympy.polys.matrices import DomainMatrix

import milnoralg.ideals as ideals
import milnoralg.linalg as linalg
from milnoralg import (
    GeneratorTuple,
    HomogeneousPolynomial,
    PreconditionError,
    apolar_piece,
    dim_graded,
    format_poly,
    hilbert_profile,
    ideal_piece,
    is_complete_intersection,
    jacobian_gens,
    linear_change,
    random_ci_tuple,
    random_smooth,
    recover_generators,
    socle_degree,
    span_vectors,
    tangent_kernel_at_poly,
    verify_inverse_system,
)
from milnoralg.ideals import generic_piece_dim
from milnoralg.linalg import SpanBuilder, certify_rank
from milnoralg.monomials import mono_basis
from milnoralg.reconstruction import fiber_is_line, forms_with_partials_in
from milnoralg.suite import koszul_check

from conftest import clear_prime_caches, recorded_walk
from oracles import (
    catalecticant_matrix,
    ci_walk_by_scan_cut,
    koszul_rank_by_sympy,
    poly_kernel_by_colon,
    random_unimodular,
    recover_generators_by_lift,
    relay_step_by_sort,
    verify_inverse_system_by_pieces,
)

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
def test_relay_step_keeps_the_order_of_the_sorted_relay(w, p):
    # the exact relay: the same rows at every degree, whether the step stops or not
    n, span = w.n, w.span
    below = span.int_rows
    for k in range(span.k + 1, socle_degree(n, w.d) + 2):
        bound = generic_piece_dim(n, span.k, span.dim, k)
        builders = [SpanBuilder(dim_graded(n, k)) for _ in range(2)]
        steps = (ideals.relay_step, relay_step_by_sort)
        ends = [step(b, below, n, k, bound) for step, b in zip(steps, builders)]
        assert [end is None for end in ends] == [end is not b for end, b in zip(ends, builders)]
        assert (ends[0] is None) == (ends[1] is None)
        assert builders[0].int_rows == builders[1].int_rows and builders[0].pivots == builders[1].pivots
        if ends[0] is None:
            break
        below = builders[0].int_rows
    # the walk mod p: the same verdict and the same rows, so the same dimension, per degree
    with prime(p):
        walk = recorded_walk(span)
        assert walk == recorded_walk(span, relay_step_by_sort)
    event(f"walk at {'PRIME' if p == linalg.PRIME else p} {'proves the fill' if walk[0] else 'falls short'}")


@st.composite
def rational_forms(draw):
    """A form of degree 0..4 in up to 4 variables, rational coefficients, some of them 0."""
    n, degree = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    coeff = st.one_of(st.just(0), st.fractions(min_value=-50, max_value=50, max_denominator=40))
    return HomogeneousPolynomial(n, degree, {alpha: draw(coeff) for alpha in mono_basis(n, degree)})


@SETTINGS
@given(f=rational_forms())
def test_poly_row_is_the_integer_row_of_the_coordinates(f):
    row, den = linalg.poly_row(f)
    assert (row, den) == linalg.integer_row(f.coords())
    assert all(type(x) is int for x in row.values()) and type(den) is int
    event(f"denominator lcm {'1' if den == 1 else 'above 1'}")


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
    """Up to 7 integer rows of any width up to 60, some entries p, 2p or past 2^30, p = PRIME."""
    width = draw(st.integers(1, 60))
    big = [linalg.PRIME, 2 * linalg.PRIME, 2**31, 3 * 2**40 + 1]
    entry = st.one_of(st.integers(-4, 4), st.sampled_from(big))
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


# -- recovery from one piece: the colon kernel found mod p and proved -------------------------

RECOVERY_SIZES = [(2, 4), (3, 3), (2, 5)]
# (n, d, k) with dim S_{k-1} <= b(k): a piece may hold x_0 S_{k-1}, and then its
# colon holds x_0 S_{d-2}, of dimension above n+1 at d >= 4
WIDE_COLONS = [(2, 4, 5), (2, 4, 6), (2, 5, 7), (2, 5, 8), (2, 5, 9)]


@st.composite
def recovery_inputs(draw):
    """(E, k, n, d, kind): a subspace of S_k of the dimension b(k) of a piece.

    ``valid`` is the piece (I_W)_k of a seeded tuple or Jacobian span,
    ``perturbed`` that piece with one basis row replaced by a drawn vector,
    and ``wide colon`` x_0 S_{k-1} filled up with drawn vectors.
    """
    kind = draw(st.sampled_from(["valid", "perturbed", "wide colon"]))
    coeffs = st.integers(-3, 3)
    if kind == "wide colon":
        n, d, k = draw(st.sampled_from(WIDE_COLONS))
        rows = [
            HomogeneousPolynomial.monomial(n, (a[0] + 1, *a[1:])).coords()
            for a in mono_basis(n, k - 1)
        ]
        fill = hilbert_profile(n, d).b(k) - len(rows)
        rows += [[draw(coeffs) for _ in range(dim_graded(n, k))] for _ in range(fill)]
        e = span_vectors(n, k, rows)
    else:
        n, d = draw(st.sampled_from(RECOVERY_SIZES))
        k = draw(st.integers(d - 1, socle_degree(n, d)))
        seed = draw(st.integers(0, 10**6))
        source = draw(st.sampled_from(["tuple", "Jacobian span"]))
        if source == "tuple":
            w = random_ci_tuple(n, d, seed)
        else:
            w = jacobian_gens(random_smooth(n, d, seed))
        e = ideal_piece(w, k)
        kind = f"{kind} {source}"
        if kind.startswith("perturbed"):
            drop = draw(st.integers(0, e.dim - 1))
            rows = [row for i, row in enumerate(e.rows) if i != drop]
            e = span_vectors(n, k, rows + [[draw(coeffs) for _ in range(e.ambient_dim)]])
    assume(e.dim == hilbert_profile(n, d).b(k))
    return e, k, n, d, kind


def recovery_outcome(recover, e, k, n, d):
    """The recovered span's RREF rows as text, or None where the piece is refused."""
    try:
        return repr(recover(e, k, n, d).span.rows)
    except PreconditionError:
        return None


@SETTINGS
@given(drawn=recovery_inputs(), p=st.sampled_from([3, 5, 7]))
def test_recovery_gives_the_outcome_of_the_lift_oracle_at_every_prime(drawn, p):
    e, k, n, d, kind = drawn
    want = recovery_outcome(recover_generators_by_lift, e, k, n, d)
    event(f"{kind}: {'refused' if want is None else 'recovered'}")
    for q in (linalg.PRIME, p):
        with prime(q):
            assert recovery_outcome(recover_generators, e, k, n, d) == want


# -- inverse systems and Koszul ranks: the rank certificates against exact ranks --------------


@st.composite
def ci_tuples(draw):
    """A drawn generator tuple that the exact fill at T+1 proves a complete intersection."""
    w = draw(generator_tuples())
    assume(ideal_piece(w, socle_degree(w.n, w.d) + 1).is_full())
    return w


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(w=ci_tuples(), data=st.data(), p=st.sampled_from([3, 5, 7]))
def test_inverse_system_and_koszul_certificates_match_exact_ranks(w, data, p):
    n, d = w.n, w.d
    # the degrees with Koszul syzygies, 2(d-1)..T+1, where there are any
    ks = range(2 * (d - 1), socle_degree(n, d) + 2) or range(d - 1, socle_degree(n, d) + 2)
    k = data.draw(st.sampled_from(ks), label="k")
    monos = mono_basis(n, d - 1)
    parts = [
        HomogeneousPolynomial(n, d - 1, {m: data.draw(st.integers(-2, 2)) for m in monos})
        for _ in range(n + 1)
    ]
    # generators scaled by p have Koszul vectors vanishing mod p, so the exact rank decides
    w = GeneratorTuple(n, d, [g * data.draw(st.sampled_from([1, p])) for g in w.gens])
    # a complete intersection has only Koszul syzygies, each sending h into the piece
    assert koszul_rank_by_sympy(w, k) == (n + 1) * dim_graded(n, k - d + 1) - ideal_piece(w, k).dim
    vectors = comb(n + 1, 2) * dim_graded(n, k - 2 * (d - 1)) if k >= 2 * (d - 1) else 0
    inverse = verify_inverse_system_by_pieces(w)
    assert inverse
    event(f"(n, d) = {(n, d)}, {vectors} Koszul vectors")
    for q in (linalg.PRIME, p):
        with prime(q):
            assert verify_inverse_system(w) == inverse
            assert koszul_check(w, k, parts) == vectors


# -- apolar pieces: the colon rows of one functional against the dense catalecticant ---------


@st.composite
def apolar_forms(draw):
    """(kind, b): a form with integer coefficients, a power of a linear form, or a monomial."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5 if n < 3 else 4))
    kind = draw(st.sampled_from(["integer", "power", "monomial"]))
    monos = mono_basis(n, m)
    if kind == "integer":
        terms = {alpha: draw(st.integers(-3, 3)) for alpha in monos}
    elif kind == "power":
        # (c . x)^m = sum over alpha of m! / alpha! c^alpha x^alpha
        c = [draw(st.integers(-2, 2)) for _ in range(n + 1)]
        terms = {
            alpha: factorial(m) // prod(map(factorial, alpha)) * prod(x**a for x, a in zip(c, alpha))
            for alpha in monos
        }
    else:
        terms = {draw(st.sampled_from(monos)): draw(st.sampled_from([-2, -1, 1, 3]))}
    assume(any(terms.values()))
    return kind, HomogeneousPolynomial(n, m, terms)


def kernel_rref_by_sympy(matrix, width: int) -> tuple:
    """The RREF basis of sympy's kernel of a dense rational matrix, as tuples of Fractions."""
    entries = [[QQ(int(x.numerator), int(x.denominator)) for x in row] for row in matrix]
    kernel = DomainMatrix(entries, (len(matrix), width), QQ).nullspace().rref()[0]
    rows = tuple(
        tuple(Fraction(int(x.numerator), int(x.denominator)) for x in row) for row in kernel.to_list()
    )
    return tuple(row for row in rows if any(row))


@SETTINGS
@given(drawn=apolar_forms())
def test_apolar_pieces_are_the_kernels_of_the_dense_catalecticant(drawn):
    kind, b = drawn
    n, m = b.n, b.degree
    event(kind)
    for k in range(m + 1):
        piece = apolar_piece(b, k)
        assert piece.rows == kernel_rref_by_sympy(catalecticant_matrix(b, k), dim_graded(n, k)), k
        if kind == "power":  # every catalecticant of L^m has rank 1
            assert piece.dim == dim_graded(n, k) - 1
        elif kind == "monomial":  # x^beta annihilates x^alpha unless beta divides alpha
            (alpha,) = b.terms
            outside = [
                [int(i == j) for j in range(dim_graded(n, k))]
                for i, beta in enumerate(mono_basis(n, k))
                if any(x > y for x, y in zip(beta, alpha))
            ]
            assert piece == span_vectors(n, k, outside)
    assert apolar_piece(b, m + 1).is_full()
