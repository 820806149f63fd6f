import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from milnoralg import (
    GeneratorTuple,
    HomogeneousPolynomial,
    PolyTangentVector,
    PreconditionError,
    contains,
    dim_graded,
    fermat,
    fiber,
    format_poly,
    full_subspace,
    hilbert_profile,
    ideal_piece,
    jacobian_gens,
    linear_change,
    mono_basis,
    multiply,
    parse_poly,
    partial,
    random_ci_tuple,
    random_smooth,
    run_suite,
    socle_degree,
    span_polys,
    tangent_kernel_at_poly,
    tangent_kernel_at_tuple,
)
import milnoralg.deformation as deformation
import milnoralg.ideals as ideals
import milnoralg.linalg as linalg
import milnoralg.reconstruction as reconstruction
import milnoralg.suite as suite
from milnoralg.ideals import _relay, ci_walk_mod_p
from milnoralg.linalg import kernel_builder
from milnoralg.rationals import Q
from milnoralg.suite import koszul_check

from conftest import clear_prime_caches, record_eliminations
from oracles import (
    QuotientMap,
    TupleTangentVector,
    colon_piece,
    membership_solutions,
    multiplication_matrix,
    poly_kernel_by_colon,
    random_unimodular,
    tangent_image,
    tuple_kernel_by_colon,
)

SQUARES = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x1^2", "x2^2")])


def zero_parts(w):
    return [HomogeneousPolynomial.zero(w.n, w.d - 1)] * (w.n + 1)


# -- tangent vectors -----------------------------------------------------------


def test_tuple_tangent_canonical_representative():
    # parts inside span(W) reduce to zero
    h = TupleTangentVector(SQUARES, [parse_poly("x0^2 + 2*x1^2", n=2), *zero_parts(SQUARES)[1:]])
    assert h.is_zero()
    g = TupleTangentVector(SQUARES, [parse_poly("x0*x1 + x1^2", n=2), *zero_parts(SQUARES)[1:]])
    assert not g.is_zero()
    assert g.parts[0] == parse_poly("x0*x1", n=2)  # the x1^2 component is removed


def test_poly_tangent_canonical_representative():
    f = fermat(2, 3)
    assert PolyTangentVector(f, f).is_zero()
    assert PolyTangentVector(f, 5 * f).is_zero()
    h = PolyTangentVector(f, parse_poly("x0^3 + x0*x1*x2"))
    # the leading-monomial component of f is cleared
    assert h.h.terms.get((3, 0, 0)) is None
    assert not h.is_zero()


# -- tangent images -------------------------------------------------------------


def test_tangent_image_of_zero_is_zero_map():
    mat = tangent_image(SQUARES, zero_parts(SQUARES), 3)
    assert all(not any(row) for row in mat)


def test_tangent_image_of_span_parts_is_zero_map():
    parts = [parse_poly("x1^2 - x2^2"), parse_poly("3*x0^2", n=2), parse_poly("x1^2", n=2)]
    mat = tangent_image(SQUARES, parts, 3)
    assert all(not any(row) for row in mat)


def test_tangent_image_nonzero_direction():
    parts = [parse_poly("x1*x2"), HomogeneousPolynomial.zero(2, 2), HomogeneousPolynomial.zero(2, 2)]
    mat = tangent_image(SQUARES, parts, 3)
    assert any(any(row) for row in mat)


def test_tangent_image_shape():
    piece = ideal_piece(SQUARES, 3)
    mat = tangent_image(SQUARES, zero_parts(SQUARES), 3)
    assert len(mat) == piece.dim
    quotient_dim = dim_graded(2, 3) - piece.dim
    assert all(len(row) == quotient_dim for row in mat)


def test_tangent_image_requires_ci():
    bad = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x0*x1", "x0*x2")])
    with pytest.raises(PreconditionError):
        tangent_image(bad, zero_parts(bad), 2)


# -- kernels at tuples ------------------------------------------------------------


def test_tuple_kernel_squares():
    for k in (2, 3):
        report = tangent_kernel_at_tuple(SQUARES, k)
        assert report.kernel_dim == 0
        assert report.tangent_dim == 3 * (dim_graded(2, 2) - 3)


def test_tuple_kernel_random_ci_quartic_all_degrees():
    w = random_ci_tuple(2, 4, seed=97)
    for k in range(3, socle_degree(2, 4) + 1):
        assert tangent_kernel_at_tuple(w, k).kernel_dim == 0


def test_tuple_kernel_out_of_range():
    with pytest.raises(ValueError):
        tangent_kernel_at_tuple(SQUARES, 4)


# -- kernels at polynomials ---------------------------------------------------------


def test_poly_kernel_fermat_cubic_contains_fiber_directions():
    f = fermat(2, 3)
    report = tangent_kernel_at_poly(f, 2)
    assert report.tangent_dim == dim_graded(2, 3) - 1
    assert report.kernel_dim >= 2  # = s - 1 with s = 3
    # the kernel contains the cube directions modulo f
    line = span_polys([f])
    kernel_span = span_polys([v.h for v in report.basis], n=2, k=3)
    for cube in ("x0^3", "x1^3"):
        reduced = line.reduce(parse_poly(cube, n=2).coords())
        assert kernel_span.contains_vector(reduced)


def test_poly_kernel_zero_for_non_st():
    f = random_smooth(2, 4, seed=101, require_non_st=True)
    for k in range(3, socle_degree(2, 4) + 1):
        assert tangent_kernel_at_poly(f, k).kernel_dim == 0


def test_poly_kernel_at_least_fiber_dim_minus_one():
    for f in (fermat(2, 3), fermat(3, 3)):
        s = fiber(jacobian_gens(f), 3).s
        report = tangent_kernel_at_poly(f, 2)
        assert report.kernel_dim >= s - 1


def test_poly_kernel_rejects_singular():
    hesse = parse_poly("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2")
    with pytest.raises(PreconditionError):
        tangent_kernel_at_poly(hesse, 2)


# -- well-definedness of the induced map ----------------------------------------------


def image_of(dense, parts, w, k):
    """sum_i u_i * h_i for a dense membership solution vector."""
    n, d = w.n, w.d
    dim_u = dim_graded(n, k - (d - 1))
    u_basis = mono_basis(n, k - (d - 1))
    acc = HomogeneousPolynomial.zero(n, k)
    for i in range(n + 1):
        ui = HomogeneousPolynomial(
            n, k - (d - 1), {u_basis[u]: dense[i * dim_u + u] for u in range(dim_u)}
        )
        acc = acc + multiply(ui, parts[i])
    return acc


def test_representation_ambiguity_lands_in_the_piece():
    # two solutions of b = sum u_i g_i differ by a syzygy; the image
    # difference must lie inside (I_W)_k
    rng = random.Random(103)
    w = random_ci_tuple(2, 4, seed=107)
    k = 6  # Koszul syzygies exist here: 3 * dim S_3 > dim (I_W)_6
    piece, sols = membership_solutions(w, k)
    mat = multiplication_matrix(w, k)
    dim_u = dim_graded(2, k - 3)
    syzygies = kernel_builder(mat, 3 * dim_u).rows
    assert len(syzygies) == 3  # the three Koszul relations g_i g_j - g_j g_i
    monos = mono_basis(2, 3)
    for trial in range(6):
        parts = [
            HomogeneousPolynomial(2, 3, {a: rng.randint(-2, 2) for a in monos})
            for _ in range(3)
        ]
        bi = rng.randrange(piece.dim)
        dense1 = [Q(0)] * (3 * dim_u)
        for i in range(3):
            for u, c in sols[bi][i]:
                dense1[i * dim_u + u] = c
        offset = syzygies[trial % len(syzygies)]
        dense2 = [a + b for a, b in zip(dense1, offset)]
        # both really are representations of the same basis vector
        img1 = image_of(dense1, w.gens, w, k)
        img2 = image_of(dense2, w.gens, w, k)
        assert img1 == img2
        assert list(img1.coords()) == list(piece.rows[bi])
        # the h-images differ by an element of the piece
        h1 = image_of(dense1, parts, w, k)
        h2 = image_of(dense2, parts, w, k)
        assert piece.contains_vector((h1 - h2).coords())


def test_suite_checks_well_definedness_by_koszul_rank():
    # (2, 4) has syzygies at k = 6, unlike the sizes the CLI suite tests run
    checks = run_suite(2, 4, polys=2, tuples=2)
    (check,) = [c for c in checks if c.name == "well-definedness"]
    assert check.ok is True
    assert check.detail == (
        "20 trials, k = 6: Koszul syzygies span every syzygy and map h into the piece "
        "(60 checked)"
    )


class PhaseDone(Exception):
    pass


def dimension_phase_forms(monkeypatch) -> list:
    """The forms whose Jacobian pieces the jacobian-dimensions phase builds, in order."""
    forms, real = [], suite.jacobian_piece
    monkeypatch.setattr(suite, "jacobian_piece", lambda f, k: forms.append(f) or real(f, k))

    def stop(check):
        assert check.ok is True, check
        if check.name == "jacobian-dimensions":
            raise PhaseDone

    with pytest.raises(PhaseDone):
        run_suite(2, 4, polys=4, tuples=0, progress=stop)
    monkeypatch.setattr(suite, "jacobian_piece", real)
    return list(dict.fromkeys(forms))


def test_jacobian_dimensions_are_built_exactly_where_no_walk_proved_them(monkeypatch):
    pool = [random_smooth(2, 4, seed=100 + i) for i in range(4)]  # the pool at seed 0
    assert all(ci_walk_mod_p(jacobian_gens(f).span) for f in pool)
    # the walk proved dim E_k = b(k); the first form keeps the exact relay at every size
    assert dimension_phase_forms(monkeypatch) == pool[:1]
    monkeypatch.setattr(suite, "ci_walk_mod_p", lambda span: False)
    assert dimension_phase_forms(monkeypatch) == pool


def test_koszul_check_builds_no_piece_of_a_complete_intersection(monkeypatch):
    pieces, real = [], suite.ideal_piece
    monkeypatch.setattr(suite, "ideal_piece", lambda w, k: pieces.append(k) or real(w, k))
    w = random_ci_tuple(2, 4, seed=5)
    assert ci_walk_mod_p(w.span)
    _relay.cache_clear()
    assert koszul_check(w, 6, random_parts(random.Random(31), w)) == 3
    assert pieces == [] and _relay.cache_info().currsize == 0
    # no walk proves (x0^2, x0*x1, x0*x2) a complete intersection: its piece is read
    u = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x0*x1", "x0*x2")])
    with pytest.raises(AssertionError, match="Koszul rank 0, expected 3 at k=3"):
        koszul_check(u, 3, zero_parts(u))
    assert pieces == [3] and _relay.cache_info().currsize > 0


def test_koszul_check_fails_on_a_non_koszul_syzygy():
    # x1 e_0 - x0 e_1 is a syzygy of x0^2, x0*x1, x0*x2 in degree 3 and no
    # Koszul vector exists there: rank 0 against 3 * dim S_1 - dim (I_W)_3 = 3
    w = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x0*x1", "x0*x2")])
    with pytest.raises(AssertionError, match="Koszul rank 0, expected 3 at k=3"):
        koszul_check(w, 3, zero_parts(w))


def test_koszul_check_fails_one_short_of_the_syzygy_rank():
    # x1 e_0 - x0 e_1 is a syzygy of x0^2, x0*x1 in degree 3; in degree 4 its
    # two multiples span the syzygies, and the one Koszul vector is one of them
    w = GeneratorTuple(1, 3, [parse_poly(t, n=1) for t in ("x0^2", "x0*x1")])
    with pytest.raises(AssertionError, match="Koszul rank 1, expected 2 at k=4"):
        koszul_check(w, 4, zero_parts(w))


def random_parts(rng, w):
    monos = mono_basis(w.n, w.d - 1)
    coeff = lambda: Q(rng.randint(-2, 2), rng.randint(1, 3))  # noqa: E731
    return [
        HomogeneousPolynomial(w.n, w.d - 1, {a: coeff() for a in monos}) for _ in range(w.n + 1)
    ]


def count_exact_ranks(monkeypatch) -> list:
    """Record the length of every SpanBuilder koszul_check makes: its exact rank fallback."""
    built = []

    class Counting(linalg.SpanBuilder):
        def __init__(self, length):
            built.append(length)
            super().__init__(length)

    monkeypatch.setattr(suite, "SpanBuilder", Counting)
    return built


def test_koszul_check_falls_back_to_the_exact_rank(monkeypatch, patched_prime):
    # every entry of the Koszul vectors of (2 x0^2, 2 x1^2, 2 x2^2) is even,
    # so their rank mod 2 is 0 against 3 * dim S_2 - dim (I_W)_4 = 3
    w = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("2*x0^2", "2*x1^2", "2*x2^2")])
    parts = random_parts(random.Random(17), w)
    built = count_exact_ranks(monkeypatch)
    assert koszul_check(w, 4, parts) == 3
    assert built == []
    patched_prime(2)
    assert koszul_check(w, 4, parts) == 3
    assert built == [3 * 6]


def test_koszul_check_needs_no_fallback_on_seeded_pools(ci_pools, monkeypatch):
    built = count_exact_ranks(monkeypatch)
    rng = random.Random(23)
    checked = 0
    for (n, d), pool in ci_pools.items():
        profile = hilbert_profile(n, d)
        for k in range(2 * (d - 1), socle_degree(n, d) + 2):
            if (n + 1) * dim_graded(n, k - (d - 1)) > profile.b(k):
                for w in pool[:3]:
                    checked += koszul_check(w, k, random_parts(rng, w))
    assert checked > 0
    assert built == []


def test_koszul_check_fails_under_python_O():
    # python -O strips assert statements; the suite must still check
    script = (
        "from milnoralg import GeneratorTuple, HomogeneousPolynomial, parse_poly\n"
        "from milnoralg.suite import koszul_check\n"
        "w = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ('x0^2', 'x0*x1', 'x0*x2')])\n"
        "print(koszul_check(w, 3, [HomogeneousPolynomial.zero(2, 2)] * 3))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.rstrip().endswith("AssertionError: Koszul rank 0, expected 3 at k=3")


def test_perturbed_family_moves_the_piece():
    # for a direction outside the kernel, the perturbed tuple
    # (g_i + t * h_i) has a different degree-k piece for small t != 0
    w = SQUARES
    t = Q(1, 7)
    parts = [parse_poly("x1*x2"), HomogeneousPolynomial.zero(2, 2), HomogeneousPolynomial.zero(2, 2)]
    moved = GeneratorTuple(
        2, 3, [g + t * p for g, p in zip(w.gens, parts)]
    )
    for k in (2, 3):
        assert ideal_piece(moved, k) != ideal_piece(w, k)


def test_tangent_dim_bookkeeping():
    f = random_smooth(2, 3, seed=109, require_non_st=True)
    report = tangent_kernel_at_poly(f, 2)
    assert report.k == 2
    assert report.tangent_dim == dim_graded(2, 3) - 1
    assert report.kernel_dim == len(report.basis) == 0


def test_poly_kernel_members_verified_by_direct_arithmetic():
    # recompute the defining condition of the kernel with nothing but
    # polynomial arithmetic: for every membership representation
    # b = sum u_i d_i(f), the element sum u_i d_i(h) must fall back
    # inside the piece when h is reported in the kernel
    from milnoralg import partial

    f = fermat(2, 3)
    k = 2
    w = jacobian_gens(f)
    piece, sols = membership_solutions(w, k)
    report = tangent_kernel_at_poly(f, k)
    assert report.kernel_dim >= 2
    dim_u = dim_graded(2, k - 2)
    u_basis = mono_basis(2, k - 2)

    def induced_images(h):
        out = []
        for sol in sols:
            acc = HomogeneousPolynomial.zero(2, k)
            for i in range(3):
                ui = HomogeneousPolynomial(
                    2, k - 2, {u_basis[u]: c for u, c in sol[i]}
                )
                acc = acc + multiply(ui, partial(h, i))
            out.append(acc)
        return out

    for vec in report.basis:
        for image in induced_images(vec.h):
            assert piece.contains_vector(image.coords())

    # a direction outside the kernel produces some image outside the piece
    outside = HomogeneousPolynomial(2, 3, {(2, 1, 0): 1})
    assert any(
        not piece.contains_vector(image.coords())
        for image in induced_images(outside)
    )
    assert dim_u == len(u_basis)


# -- the colon characterization against independent oracles -------------------------

# a binary quartic that is not a direct sum, plus a fourth power: s = 2
MIXED_SUM = parse_poly("-x0^4 + x0^3*x1 + x0^2*x1^2 - 2*x0*x1^3 + x2^4")

DIRECT_SUMS = [
    fermat(2, 3),
    fermat(2, 4),
    fermat(3, 3),
    MIXED_SUM,
    linear_change(fermat(2, 3), random_unimodular(2, seed=11, steps=4)),
]


def k_range(n, d):
    return range(d - 1, socle_degree(n, d) + 1)


def assembled_kernel(w, k, directions):
    """Nullspace of the matrix whose columns are the flattened tangent images."""
    columns = [
        [x for row in tangent_image(w, parts, k) for x in row] for parts in directions
    ]
    rows = [list(r) for r in zip(*columns)]
    return kernel_builder(rows, len(columns)).rows


def oracle_tuple_kernel(w, k):
    """Tuple kernel rebuilt from tangent_image, as formatted parts."""
    n, d = w.n, w.d
    gq = QuotientMap(w.span)
    monos = mono_basis(n, d - 1)
    zero = HomogeneousPolynomial.zero(n, d - 1)
    directions = []
    for i in range(n + 1):
        for j in gq.nonpivots:
            parts = [zero] * (n + 1)
            parts[i] = HomogeneousPolynomial.monomial(n, monos[j])
            directions.append(parts)
    per_part = gq.dim
    basis = []
    for vec in assembled_kernel(w, k, directions):
        parts = [
            HomogeneousPolynomial(
                n,
                d - 1,
                {monos[j]: vec[i * per_part + c] for c, j in enumerate(gq.nonpivots)},
            )
            for i in range(n + 1)
        ]
        basis.append([format_poly(p) for p in TupleTangentVector(w, parts).parts])
    return len(directions), basis


def oracle_poly_kernel(f, k):
    """Poly kernel rebuilt from tangent_image, as formatted representatives."""
    n, d = f.n, f.degree
    w = jacobian_gens(f)
    fq = QuotientMap(span_polys([f]))
    monos = mono_basis(n, d)
    directions = []
    for j in fq.nonpivots:
        mono = HomogeneousPolynomial.monomial(n, monos[j])
        directions.append([partial(mono, i) for i in range(n + 1)])
    basis = []
    for vec in assembled_kernel(w, k, directions):
        h = HomogeneousPolynomial(n, d, {monos[j]: vec[c] for c, j in enumerate(fq.nonpivots)})
        basis.append(format_poly(PolyTangentVector(f, h).h))
    return len(directions), basis


def test_tuple_kernel_matches_assembled_oracle():
    w = random_ci_tuple(2, 4, seed=211)
    for k in k_range(2, 4):
        report = tangent_kernel_at_tuple(w, k)
        tangent_dim, basis = oracle_tuple_kernel(w, k)
        assert report.tangent_dim == tangent_dim
        assert [[format_poly(p) for p in v.parts] for v in report.basis] == basis


@pytest.mark.parametrize("f", [fermat(2, 3), fermat(2, 4), MIXED_SUM], ids=str)
def test_poly_kernel_matches_assembled_oracle(f):
    for k in k_range(f.n, f.degree):
        report = tangent_kernel_at_poly(f, k)
        tangent_dim, basis = oracle_poly_kernel(f, k)
        assert report.tangent_dim == tangent_dim
        assert [format_poly(v.h) for v in report.basis] == basis
        assert basis  # a direct sum has a nonzero kernel at every k


@pytest.mark.parametrize("f", DIRECT_SUMS, ids=str)
def test_poly_kernel_vectors_have_zero_tangent_image(f):
    w = jacobian_gens(f)
    for k in k_range(f.n, f.degree):
        for vec in tangent_kernel_at_poly(f, k).basis:
            parts = [partial(vec.h, i) for i in range(f.n + 1)]
            assert all(not any(row) for row in tangent_image(w, parts, k))


@pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_colon_piece_is_the_span_at_ci(n, d, ci_pools):
    # Gorenstein duality: nothing outside W is killed by S_{k-d+1} for k <= T,
    # the theorem the tangent kernels are read off; checked exactly
    tuples = [random_ci_tuple(n, d, seed=223 + 10 * n + d), *ci_pools[(n, d)]]
    for w in tuples:
        for k in k_range(n, d):
            assert colon_piece(w, k) == w.span


def test_colon_piece_past_the_socle_is_everything():
    # (I_W)_4 = S_4 for the squares, so every quadric is in the colon
    assert colon_piece(SQUARES, 4) == full_subspace(2, 2)


@pytest.mark.parametrize("f", DIRECT_SUMS, ids=str)
def test_poly_kernel_dim_is_fiber_dim_minus_one(f):
    s = fiber(jacobian_gens(f), f.degree).s
    assert s >= 2
    for k in k_range(f.n, f.degree):
        assert tangent_kernel_at_poly(f, k).kernel_dim == s - 1


# -- kernels by Gorenstein duality, against the exact colon --------------------------------


def report_text(report):
    """A kernel report as text: k, dimensions and the canonical basis."""
    basis = [
        [format_poly(p) for p in v.parts] if isinstance(v, TupleTangentVector) else format_poly(v.h)
        for v in report.basis
    ]
    return report.k, report.tangent_dim, report.kernel_dim, basis


def count_exact_kernels(monkeypatch) -> list:
    """Record the width of every exact kernel elimination ``reconstruction`` runs.

    These are the exact fiber of ``forms_with_partials_in``, on (n+1)^2
    columns at a Jacobian span, and the exact colon that
    ``recover_generators`` falls back to, on dim S_{d-1} columns: every
    builder filled inside ``kernel_vectors`` or ``kernel_builder``, so an
    exact kernel solved by two eliminations would count twice.
    """
    scope = [(reconstruction, "kernel_vectors"), (reconstruction, "kernel_builder")]
    return record_eliminations(monkeypatch, scope)


def all_reports(w, f, tuple_kernel=tangent_kernel_at_tuple, poly_kernel=tangent_kernel_at_poly):
    """The tuple kernels of w and the form kernels of f at every k, as text."""
    reports = []
    if w is not None:
        reports += [tuple_kernel(w, k) for k in k_range(w.n, w.d)]
    if f is not None:
        reports += [poly_kernel(f, k) for k in k_range(f.n, f.degree)]
    return [report_text(r) for r in reports]


def colon_reports(w, f):
    """The same reports read off the exact colon piece at every k."""
    return all_reports(w, f, tuple_kernel_by_colon, poly_kernel_by_colon)


def kernel_path_work(monkeypatch):
    """Empty the walk, fiber and relay caches; return a probe of (exact kernels, relay grown)."""
    clear_prime_caches()
    reconstruction.forms_with_partials_in.cache_clear()
    _relay.cache_clear()
    kernels = count_exact_kernels(monkeypatch)
    return lambda: (list(kernels), _relay.cache_info().misses)


@pytest.fixture
def walk_fails(monkeypatch):
    """``walk_fails()`` makes every walk mod p fall short, so the exact fill at T+1 decides.

    The caches of ``PRIME_CACHES`` are emptied then and when the test ends,
    so no answer found with the walk failing is read by another test.
    """

    def fail():
        clear_prime_caches()
        monkeypatch.setattr(ideals, "ci_walk_mod_p", lambda span: False)

    yield fail
    clear_prime_caches()


PARITY_SIZES = [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4)]
PARITY_INPUTS = [
    *(
        (random_ci_tuple(n, d, seed=401 + n + d), random_smooth(n, d, seed=409 + n + d))
        for n, d in PARITY_SIZES
    ),
    (None, fermat(2, 4)),
    (SQUARES, None),
]
PARITY_IDS = [*(f"seeded{size}" for size in PARITY_SIZES), "fermat(2,4)", "squares"]


@pytest.mark.parametrize("w,f", PARITY_INPUTS, ids=PARITY_IDS)
def test_certified_kernels_match_the_exact_path_at_every_k(w, f, monkeypatch, walk_fails):
    n, d = (w.n, w.d) if w is not None else (f.n, f.degree)
    # only a direct sum, fermat(2, 4), needs its fiber solved exactly, once for every k
    fibers = [(n + 1) ** 2] if f is not None and fiber(jacobian_gens(f), d).s > 1 else []
    work = kernel_path_work(monkeypatch)
    certified = all_reports(w, f)
    assert work() == (fibers, 0)  # no colon, no exact piece: the walk and the fiber decide
    walk_fails()
    assert all_reports(w, f) == certified
    # each complete-intersection test fell back to the exact relay d..T+1, once per span
    assert work() == (fibers, (socle_degree(n, d) - d + 2) * ((w is not None) + (f is not None)))
    assert certified == colon_reports(w, f)
    if f is not None and w is None:  # fermat(2, 4): s = 3 summands, kernel dimension n
        assert {kernel_dim for _, _, kernel_dim, _ in certified} == {2}


def test_certified_kernels_grow_no_exact_piece():
    clear_prime_caches()
    w, f = random_ci_tuple(2, 5, seed=5), random_smooth(2, 5, seed=6, require_non_st=True)
    jacobian_gens(f)
    _relay.cache_clear()
    for k in k_range(2, 5):
        assert tangent_kernel_at_tuple(w, k).kernel_dim == 0
        assert tangent_kernel_at_poly(f, k).kernel_dim == 0
    assert _relay.cache_info().misses == 0


def test_fallback_when_the_tuple_is_no_complete_intersection_mod_p(monkeypatch, patched_prime):
    # x0^2 + 3 x1^2, x0*x1 is a complete intersection over Q; mod 3 it is
    # x0^2, x0*x1, with the common zero x0 = 0, so the walk mod 3 never fills
    # S_3. f = x0^2 x1 + x1^3 has partials 2 x0 x1 and x0^2 + 3 x1^2.
    w = GeneratorTuple(1, 3, [parse_poly("x0^2 + 3*x1^2", n=1), parse_poly("x0*x1", n=1)])
    f = parse_poly("x0^2*x1 + x1^3", n=1)
    assert jacobian_gens(f).span == w.span
    exact = [report_text(tangent_kernel_at_tuple(w, 2)), report_text(tangent_kernel_at_poly(f, 2))]
    # f is a binary cubic with distinct roots, a direct sum of two cubes: s = 2
    assert exact == [(2, 2, 0, []), (2, 3, 1, ["x0^3 + 9*x0*x1^2"])]
    assert exact == colon_reports(w, f)
    patched_prime(3)
    assert not ci_walk_mod_p(w.span)
    work = kernel_path_work(monkeypatch)
    assert [report_text(tangent_kernel_at_tuple(w, 2)), report_text(tangent_kernel_at_poly(f, 2))] == exact
    # the exact fill decided both preconditions: the relay at T+1 = 3, once;
    # f is a direct sum, so its fiber was solved exactly, on (n+1)^2 = 4 columns
    assert work() == ([4], 1)


def test_fallback_when_a_pivot_entry_of_w_is_divisible_by_p(monkeypatch, patched_prime):
    # the integer row of 5 x0^2 + x1*x2 has pivot entry 5: mod 5 the tuple is
    # x1*x2, x1^2, x2^2, with the common zero x1 = x2 = 0, so the walk mod 5 falls short
    w = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("5*x0^2 + x1*x2", "x1^2", "x2^2")])
    exact = [report_text(tangent_kernel_at_tuple(w, k)) for k in k_range(2, 3)]
    assert [kernel_dim for _, _, kernel_dim, _ in exact] == [0, 0]
    assert exact == colon_reports(w, None)
    patched_prime(5)
    work = kernel_path_work(monkeypatch)
    assert [report_text(tangent_kernel_at_tuple(w, k)) for k in k_range(2, 3)] == exact
    assert not ci_walk_mod_p(w.span)
    assert work() == ([], 2)  # the exact relay at 3 and T+1 = 4


def test_tuple_kernel_asks_no_rank_past_the_ci_test(monkeypatch, walk_fails):
    real, asked = reconstruction.certify_rank, []

    def recording(rows, bound):
        asked.append(bound)
        return real(rows, bound)

    monkeypatch.setattr(reconstruction, "certify_rank", recording)
    w = random_ci_tuple(2, 4, seed=7)
    exact = report_text(tuple_kernel_by_colon(w, 4))
    assert exact == (4, 3 * (dim_graded(2, 3) - 3), 0, [])
    work = kernel_path_work(monkeypatch)
    assert report_text(tangent_kernel_at_tuple(w, 4)) == exact
    assert asked == [] and work() == ([], 0)
    walk_fails()
    assert report_text(tangent_kernel_at_tuple(w, 4)) == exact
    assert asked == [] and work() == ([], socle_degree(2, 4) + 1 - 3)  # the exact relay 4..T+1


def test_certificate_keeps_the_refusals():
    bad = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x0*x1", "x0*x2")])
    cone = parse_poly("x0^3 + x1^3", n=2)  # no x2: the partials are dependent
    assert not ci_walk_mod_p(bad.span)
    for tuple_kernel, poly_kernel in (
        (tangent_kernel_at_tuple, tangent_kernel_at_poly),
        (tuple_kernel_by_colon, poly_kernel_by_colon),
    ):
        with pytest.raises(ValueError, match="need d-1 <= k <= 3"):
            tuple_kernel(SQUARES, 1)
        with pytest.raises(PreconditionError, match="generator tuple is not a complete intersection"):
            tuple_kernel(bad, 2)
        with pytest.raises(PreconditionError, match="polynomial is not smooth"):
            poly_kernel(cone, 2)


def test_colon_pieces_grow_with_k_on_a_non_ci_tuple():
    # x0*x1 joins the colon at k = 3: x0*x1 * x_i lies in (x0^2, x1^2, x0*x2) for every i
    w = GeneratorTuple(2, 3, [parse_poly(t, n=2) for t in ("x0^2", "x1^2", "x0*x2")])
    colons = [colon_piece(w, k) for k in range(2, 8)]
    assert [c.dim for c in colons] == [3, 4, 4, 4, 4, 4]
    assert all(contains(big, small) for small, big in zip(colons, colons[1:]))


def test_no_fallback_on_seeded_pools(ci_pools, nonst_pools, smooth_pools, monkeypatch):
    tuples = [w for pool in ci_pools.values() for w in pool]
    forms = [f for pools in (nonst_pools, smooth_pools) for pool in pools.values() for f in pool]
    assert len(tuples) + len(forms) == 250
    work = kernel_path_work(monkeypatch)
    assert all(ci_walk_mod_p(w.span) for w in tuples)
    assert all(ci_walk_mod_p(jacobian_gens(f).span) for f in forms)
    for w in tuples:
        assert tangent_kernel_at_tuple(w, w.d - 1).kernel_dim == 0
    for f in forms:
        tangent_kernel_at_poly(f, f.degree - 1)
    assert work() == ([], 0)


# -- the fiber certificate mod p and its exact fallback --------------------------------


def fresh_fibers():
    """Empty the fiber caches, so that exact fiber solves are counted from zero."""
    clear_prime_caches()
    reconstruction.forms_with_partials_in.cache_clear()


def exact_fiber_solves() -> int:
    return reconstruction.forms_with_partials_in.cache_info().misses


FIBER_PARITY_INPUTS = [
    *(random_smooth(n, d, seed=421 + n + d, require_non_st=True) for n, d in PARITY_SIZES),
    fermat(2, 4),
]
FIBER_PARITY_IDS = [*(f"non-direct-sum{size}" for size in PARITY_SIZES), "fermat(2,4)"]


@pytest.mark.parametrize("f", FIBER_PARITY_INPUTS, ids=FIBER_PARITY_IDS)
def test_fiber_certificate_matches_the_exact_fiber_at_every_k(f, monkeypatch):
    s = fiber(jacobian_gens(f), f.degree).s
    fresh_fibers()
    certified = [report_text(tangent_kernel_at_poly(f, k)) for k in k_range(f.n, f.degree)]
    # a non-direct sum needs no exact fiber; at a direct sum the certificate
    # falls short and the exact fiber runs, once for every k
    assert exact_fiber_solves() == (0 if s == 1 else 1)
    monkeypatch.setattr(deformation, "fiber_is_line", lambda span: False)
    assert [report_text(tangent_kernel_at_poly(f, k)) for k in k_range(f.n, f.degree)] == certified
    assert exact_fiber_solves() == 1
    assert {kernel_dim for _, _, kernel_dim, _ in certified} == {s - 1}


def test_fiber_certificate_falls_back_to_the_exact_fiber_mod_2(patched_prime):
    f = random_smooth(2, 4, seed=1, require_non_st=True)
    span = jacobian_gens(f).span
    certified = [report_text(tangent_kernel_at_poly(f, k)) for k in k_range(2, 4)]
    fresh_fibers()
    assert reconstruction.fiber_is_line(span) and exact_fiber_solves() == 0
    # mod 2 the rows of this fiber system fall short of rank dim S_4 - 1
    patched_prime(2)
    fresh_fibers()
    assert reconstruction.fiber_is_line(span) and exact_fiber_solves() == 1
    assert [report_text(tangent_kernel_at_poly(f, k)) for k in k_range(2, 4)] == certified
    assert exact_fiber_solves() == 1


def test_fiber_fallback_where_only_the_tuple_certificate_holds(monkeypatch):
    f = random_smooth(2, 4, seed=1, require_non_st=True)
    certified = [report_text(tangent_kernel_at_poly(f, k)) for k in k_range(2, 4)]
    monkeypatch.setattr(reconstruction, "certify_rank", lambda rows, bound: False)
    fresh_fibers()
    assert [report_text(tangent_kernel_at_poly(f, k)) for k in k_range(2, 4)] == certified
    assert ci_walk_mod_p(jacobian_gens(f).span) and exact_fiber_solves() == 1
    assert certified == colon_reports(None, f)


def test_fiber_certificate_needs_no_fallback_on_seeded_pools(nonst_pools):
    spans = [jacobian_gens(f).span for pool in nonst_pools.values() for f in pool]
    assert len(spans) == 100
    fresh_fibers()
    assert all(reconstruction.fiber_is_line(span) for span in spans)
    assert exact_fiber_solves() == 0
