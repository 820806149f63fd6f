import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from milnoralg import (
    Subspace,
    contains,
    dim_graded,
    full_subspace,
    ideal_piece,
    jacobian_gens,
    map_kernel,
    multiply,
    parse_poly,
    random_ci_tuple,
    socle_degree,
    span_polys,
    span_vectors,
    zero_subspace,
)
import milnoralg.linalg as linalg
from milnoralg.linalg import (
    ModularEchelon,
    SpanBuilder,
    certify_rank,
    kernel_builder,
    kernel_mod_p,
    kernel_vectors,
    rational_lift,
)
from milnoralg.rationals import Q
from milnoralg.serialize import subspace_from_dict, subspace_to_dict

from conftest import PAIRS, record_eliminations
from oracles import (
    QuotientMap,
    ScanningEchelon,
    map_image,
    modular_annihilator,
    orthogonal_complement,
    perm_determinant,
    quotient_coords_by_rational_rows,
    reduce_by_rational_rows,
    rref,
    solve_columns,
    spans_equal,
    subspace_intersect,
    subspace_sum,
    sympy_matrix,
    sympy_nullspace_dim,
    sympy_rank,
)


def rand_matrix(rng, rows, cols, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def rand_subspace(rng, n, k, dim_target):
    amb = dim_graded(n, k)
    vectors = [[rng.randint(-3, 3) for _ in range(amb)] for _ in range(dim_target)]
    return span_vectors(n, k, vectors)


# -- rref -------------------------------------------------------------------


def test_rref_identity():
    rows, pivots = rref([[1, 0], [0, 1]])
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_rank_one():
    rows, pivots = rref([[2, 4], [1, 2]])
    assert rows == [[1, 2]]
    assert pivots == [0]


def test_rref_random_invertible_gives_identity():
    # invertibility certified independently by permutation-expansion determinant
    rng = random.Random(5)
    mat = rand_matrix(rng, 5, 5)
    while perm_determinant(mat) == 0:
        mat = rand_matrix(rng, 5, 5)
    rows, pivots = rref(mat)
    assert pivots == [0, 1, 2, 3, 4]
    assert rows == [[1 if i == j else 0 for j in range(5)] for i in range(5)]


def test_rref_matches_sympy_rank():
    rng = random.Random(7)
    for _ in range(15):
        mat = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rows, _ = rref(mat)
        assert len(rows) == sympy_rank(mat)
        assert spans_equal(mat, rows, len(mat[0]))


# -- span / kernel / image ----------------------------------------------------


def test_span_basic():
    sub = span_vectors(1, 1, [[1, 0], [0, 1]])
    assert sub.dim == 2 and sub.is_full()


def test_kernel_of_zero_map():
    # zero map on S_1 with n=1: everything is in the kernel
    sub = map_kernel([[0, 0]], 1, 1)
    assert sub.dim == 2


def test_image_of_multiplication_by_x0():
    # S_1 -> S_2 for n=1; columns are x0*x0 and x0*x1
    x0 = parse_poly("x0", n=1)
    cols = [multiply(x0, parse_poly(v, n=1)).coords() for v in ("x0", "x1")]
    mat = [[cols[j][t] for j in range(2)] for t in range(3)]
    image = map_image(mat, 1, 2)
    assert image == span_polys([parse_poly("x0^2", n=1), parse_poly("x0*x1", n=1)])
    assert image.dim == 2


def test_rank_nullity_exact():
    rng = random.Random(9)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        mat = rand_matrix(rng, nrows, ncols)
        rows, _ = rref(mat)
        null = kernel_builder(mat, ncols).rows
        assert len(rows) + len(null) == ncols
        assert len(null) == sympy_nullspace_dim(mat, ncols)
        for vec in null:
            for row in mat:
                assert sum(a * b for a, b in zip(row, vec)) == 0


# -- canonical representation --------------------------------------------------


def test_canonicality_under_permutation_and_scaling():
    rng = random.Random(13)
    for _ in range(10):
        sub = rand_subspace(rng, 2, 2, 3)
        vectors = [list(row) for row in sub.rows]
        rng.shuffle(vectors)
        scaled = []
        for v in vectors:
            c = Q(rng.choice([1, 2, -3, 5]))
            scaled.append([c * x for x in v])
        again = span_vectors(2, 2, scaled)
        assert again == sub
        assert again.rows == sub.rows


def test_rref_invariants_of_basis():
    rng = random.Random(15)
    sub = rand_subspace(rng, 2, 3, 4)
    pivots = sub.pivots
    assert list(pivots) == sorted(pivots)
    for r, p in enumerate(pivots):
        assert sub.rows[r][p] == 1
        for other in range(sub.dim):
            if other != r:
                assert sub.rows[other][p] == 0


# -- subspace calculus ----------------------------------------------------------


def test_sum_and_intersection_with_self():
    rng = random.Random(17)
    sub = rand_subspace(rng, 1, 3, 2)
    assert subspace_sum(sub, sub) == sub
    assert subspace_intersect(sub, sub) == sub


def test_complementary_lines():
    a = span_vectors(0, 1, [[1]])  # ambient is 1-dim here; use S_1 with n=1 instead
    a = span_vectors(1, 1, [[1, 0]])
    b = span_vectors(1, 1, [[0, 1]])
    assert subspace_sum(a, b).dim == 2
    assert subspace_intersect(a, b).dim == 0


def test_dimension_formula():
    rng = random.Random(19)
    for _ in range(15):
        a = rand_subspace(rng, 2, 2, rng.randint(0, 4))
        b = rand_subspace(rng, 2, 2, rng.randint(0, 4))
        total = subspace_sum(a, b)
        meet = subspace_intersect(a, b)
        assert total.dim + meet.dim == a.dim + b.dim
        assert contains(total, a) and contains(total, b)
        assert contains(a, meet) and contains(b, meet)


def test_contains_constructed_extension():
    rng = random.Random(21)
    for _ in range(10):
        small = rand_subspace(rng, 2, 2, 2)
        extra = [rng.randint(-3, 3) for _ in range(dim_graded(2, 2))]
        big = span_vectors(2, 2, list(small.rows) + [extra])
        assert contains(big, small)
        if big.dim > small.dim:
            assert not contains(small, big)


def test_ambient_mismatch_errors():
    a = span_vectors(1, 1, [[1, 0]])
    b = span_vectors(1, 2, [[1, 0, 0]])
    with pytest.raises(ValueError):
        subspace_sum(a, b)
    with pytest.raises(ValueError):
        contains(a, b)


# -- weighted orthogonal complement ---------------------------------------------


def test_complement_of_full_space_is_zero():
    assert orthogonal_complement(full_subspace(1, 2)) == zero_subspace(1, 2)


def test_complement_monomial_line():
    # E = span{x0^2} in S_2, n=1: weights are (2, 1, 2), complement misses x0^2
    e = span_polys([parse_poly("x0^2", n=1)])
    comp = orthogonal_complement(e)
    assert comp == span_polys([parse_poly("x0*x1", n=1), parse_poly("x1^2", n=1)])


def test_complement_mixed_line():
    # E = span{x0^2 + x1^2}: solve 2a + 2c = 0 with weights (2, 1, 2)
    e = span_polys([parse_poly("x0^2 + x1^2")], n=1, k=2)
    comp = orthogonal_complement(e)
    want = span_polys([parse_poly("x0*x1", n=1), parse_poly("x0^2 - x1^2")], n=1, k=2)
    assert comp == want


def test_complement_involution_50_random():
    rng = random.Random(23)
    for trial in range(50):
        n = rng.choice([1, 2])
        k = rng.choice([1, 2, 3])
        sub = rand_subspace(rng, n, k, rng.randint(0, dim_graded(n, k)))
        comp = orthogonal_complement(sub)
        assert sub.dim + comp.dim == dim_graded(n, k)
        assert orthogonal_complement(comp) == sub


# -- solving ---------------------------------------------------------------------


def test_solve_columns_consistent_and_inconsistent():
    mat = [[1, 2], [2, 4]]  # rank 1
    rhs_good = [1, 2]
    rhs_bad = [1, 3]
    good, bad = solve_columns(mat, 2, [rhs_good, rhs_bad])
    assert bad is None
    assert [sum(m * x for m, x in zip(row, good)) for row in mat] == rhs_good


def test_solve_columns_random_consistency():
    rng = random.Random(27)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
        mat = rand_matrix(rng, nrows, ncols)
        x = [rng.randint(-3, 3) for _ in range(ncols)]
        rhs = [sum(m * xi for m, xi in zip(row, x)) for row in mat]
        (sol,) = solve_columns(mat, ncols, [rhs])
        assert sol is not None
        assert [sum(m * s for m, s in zip(row, sol)) for row in mat] == rhs


# -- quotient coordinates ----------------------------------------------------------


def test_quotient_map_vanishes_exactly_on_subspace():
    rng = random.Random(29)
    sub = rand_subspace(rng, 2, 2, 3)
    qm = QuotientMap(sub)
    assert qm.dim == sub.ambient_dim - sub.dim
    for row in sub.rows:
        assert not any(qm.coords(list(row)))
    # a vector outside the subspace has nonzero quotient coordinates
    outside = None
    for j in range(sub.ambient_dim):
        unit = [Q(0)] * sub.ambient_dim
        unit[j] = Q(1)
        if not sub.contains_vector(unit):
            outside = unit
            break
    assert outside is not None
    assert any(qm.coords(outside))


def test_wrong_length_vectors_are_rejected():
    line = span_polys([parse_poly("x0", n=1)])  # inside the 2-dimensional S_1
    qm = QuotientMap(line)
    for vec in ([1], [1, 0, 9]):
        with pytest.raises(ValueError, match="length"):
            line.contains_vector(vec)
        with pytest.raises(ValueError, match="length"):
            line.reduce(vec)
        with pytest.raises(ValueError, match="length"):
            qm.coords(vec)
    assert line.contains_vector([3, 0]) and qm.coords([3, 1]) == [1]


def rand_big_den_vector(rng, length):
    """Q entries with denominators near 10^12, a third of them zero."""
    return [
        Q(rng.randint(-10**12, 10**12), 10**12 - rng.randint(0, 999)) if rng.random() < 0.67 else Q(0)
        for _ in range(length)
    ]


def seeded_pieces(n, d, rng):
    """Ideal pieces of a CI tuple at every degree to T+1, and big-denominator spans."""
    w = random_ci_tuple(n, d, seed=rng.randint(0, 10**6))
    amb = dim_graded(n, d)
    yield from (ideal_piece(w, k) for k in range(socle_degree(n, d) + 2))
    for size in (0, 1, amb // 2, amb):
        yield span_vectors(n, d, [rand_big_den_vector(rng, amb) for _ in range(size)])


@pytest.mark.parametrize("n,d", PAIRS)
def test_reduce_and_quotient_coords_match_the_rational_loops(n, d):
    rng = random.Random(1000 * n + d)
    for sub in seeded_pieces(n, d, rng):
        qm = QuotientMap(sub)
        amb = sub.ambient_dim
        vectors = [rand_big_den_vector(rng, amb) for _ in range(3)] + [[Q(0)] * amb]
        vectors += [list(row) for row in sub.rows[:2]]
        if sub.rows:  # a member with big denominators
            vectors.append([a + Q(7, 10**12 - 11) * b for a, b in zip(sub.rows[0], sub.rows[-1])])
        for vec in vectors:
            for got, want in (
                (sub.reduce(vec), reduce_by_rational_rows(sub, vec)),
                (qm.coords(vec), quotient_coords_by_rational_rows(sub, vec)),
            ):
                assert got == want
                assert_all_q([got, want])
            assert sub.contains_vector(vec) == (not any(want))


def test_equality_and_hash_agree_across_constructions():
    rng = random.Random(31)
    amb = dim_graded(2, 3)
    starts = rng.sample(range(amb - 1), 5)  # leading columns out of order
    vectors = [[Q(0)] * s + [Q(1, 10**12 - s)] + rand_big_den_vector(rng, amb - s - 1) for s in starts]
    built = span_vectors(2, 3, vectors)
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    ways = [
        built,
        Subspace(2, 3, built.rows, built.pivots),
        span_vectors(2, 3, shuffled),
        subspace_from_dict(json.loads(json.dumps(subspace_to_dict(built)))),
    ]
    # the stored rows come in different orders, which neither == nor hash may see
    assert len({tuple(w.int_rows) for w in ways}) > 1
    for w in ways:
        assert w == built and hash(w) == hash(built)
        assert w.rows == built.rows and w.rows is w.rows
    assert len(set(ways)) == 1


def test_subspace_constructor_rejects_rows_not_in_rref():
    x0 = span_polys([parse_poly("x0", n=1)])
    assert Subspace(1, 1, [[1, 0]], [0]) == x0
    assert Subspace(1, 1, [[Fraction(1), 0]], (0,)).contains_poly(parse_poly("x0", n=1))
    bad = [
        ([[2, 0]], [0]),  # pivot entry not 1
        ([[1, 1]], [1]),  # nonzero left of the pivot
        ([[1, 1], [0, 1]], [0, 1]),  # nonzero at the other pivot
        ([[0, 1], [1, 0]], [1, 0]),  # pivots out of order
        ([[1, 0], [1, 0]], [0, 0]),  # repeated pivot
        ([[0, 0]], [0]),  # zero row
        ([[1, 0, 0]], [0]),  # wrong length
        ([[1]], [0]),
        ([[1, 0]], [1]),  # pivot at the wrong column
        ([[1, 0]], []),  # row/pivot count mismatch
    ]
    for rows, pivots in bad:
        with pytest.raises(ValueError):
            Subspace(1, 1, rows, pivots)


# -- builder edge cases --------------------------------------------------------------


def test_span_builder_early_full():
    builder = SpanBuilder(2)
    assert builder.insert([Q(1), Q(1)])
    assert builder.insert([Q(1), Q(-1)])
    assert builder.is_full()
    assert not builder.insert([Q(3), Q(7)])


def test_empty_span():
    sub = span_polys([], n=2, k=2)
    assert sub.is_zero()
    assert sub == zero_subspace(2, 2)


# -- fraction-free core against the sympy oracle ---------------------------------------


def rand_rational_matrix(rng, nrows, ncols, den_bound):
    """Rationals with zero, duplicate and negated rows mixed in."""

    def entry():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-den_bound, den_bound), rng.randint(1, den_bound))

    mat = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if mat and rng.random() < 0.5:
        mat.append([-x for x in rng.choice(mat)])  # negative leading entry
    if mat and rng.random() < 0.5:
        mat.append(list(rng.choice(mat)))
    if rng.random() < 0.3:
        mat.append([0] * ncols)
    rng.shuffle(mat)
    return mat


def oracle_rref(mat, ncols):
    """Nonzero rows and pivots of sympy's RREF, as Fractions."""
    if not mat:
        return [], []
    reduced, pivots = sympy_matrix(mat).rref()
    rows = [[Fraction(str(x)) for x in reduced.row(i)] for i in range(len(pivots))]
    return rows, list(pivots)


def matrix_cases(seed, count=40):
    rng = random.Random(seed)
    for trial in range(count):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        den_bound = 10**15 if trial % 4 == 0 else 9
        yield rng, rand_rational_matrix(rng, nrows, ncols, den_bound), ncols


def assert_all_q(rows):
    for row in rows:
        for x in row:
            assert type(x) is Q, f"{x!r} has type {type(x).__name__}"


def test_rref_matches_sympy_entry_for_entry():
    for _, mat, ncols in matrix_cases(101):
        want_rows, want_pivots = oracle_rref(mat, ncols)
        rows, pivots = rref(mat)
        assert pivots == want_pivots
        assert rows == want_rows
        assert_all_q(rows)


def test_span_builder_any_insertion_order_matches_sympy():
    for rng, mat, ncols in matrix_cases(103):
        want_rows, want_pivots = oracle_rref(mat, ncols)
        for _ in range(3):
            order = list(mat)
            rng.shuffle(order)
            builder = SpanBuilder(ncols)
            for i, row in enumerate(order):
                grew = builder.insert(row)
                assert grew == (sympy_rank(order[: i + 1]) > sympy_rank(order[:i]))
            assert builder.dim == len(want_rows)
            assert builder.pivots == want_pivots
            assert builder.rows == want_rows
            assert_all_q(builder.rows)


def test_nullspace_matches_sympy_rref_of_kernel():
    for _, mat, ncols in matrix_cases(107):
        null = kernel_builder(mat, ncols).rows
        if mat:
            kernel = sympy_matrix(mat).nullspace()
        else:
            kernel = [sympy.eye(ncols).col(j) for j in range(ncols)]
        want, _ = oracle_rref([list(v) for v in kernel], ncols)
        assert null == want
        assert_all_q(null)


def guarded_rows(mat, limit):
    """Yield the rows of mat, raising if asked for more than ``limit`` of them."""
    for i, row in enumerate(mat):
        if i == limit:
            raise AssertionError(f"row {i} read past the rank stop")
        yield row


def test_nullspace_rank_stop_reads_no_row_past_the_rank():
    for _, mat, ncols in matrix_cases(109):
        rank = sympy_rank(mat)
        # the number of rows it takes to reach the rank, in order
        needed = next((i for i in range(len(mat) + 1) if sympy_rank(mat[:i]) == rank), 0)
        null = kernel_builder(guarded_rows(mat, needed), ncols, rank).rows
        assert null == kernel_builder(mat, ncols).rows
        if mat:
            kernel = sympy_matrix(mat).nullspace()
        else:
            kernel = [sympy.eye(ncols).col(j) for j in range(ncols)]
        assert null == oracle_rref([list(v) for v in kernel], ncols)[0]
        assert_all_q(null)


def test_nullspace_rank_stop_below_the_rank_gives_a_larger_kernel():
    for _, mat, ncols in matrix_cases(113):
        rank = sympy_rank(mat)
        if rank < 2:
            continue
        needed = next(i for i in range(len(mat) + 1) if sympy_rank(mat[:i]) == rank - 1)
        partial = kernel_builder(guarded_rows(mat, needed), ncols, rank - 1).rows
        assert partial == kernel_builder(mat[:needed], ncols).rows
        assert len(partial) == ncols - rank + 1
        # it contains the kernel
        assert sympy_rank(partial + kernel_builder(mat, ncols).rows) == len(partial)


def test_nullspace_rank_zero_reads_nothing():
    assert kernel_builder(guarded_rows([[1, 2]], 0), 2, 0).rows == [[1, 0], [0, 1]]


def test_nullspace_is_one_elimination_of_dense_or_sparse_rows(monkeypatch):
    widths = record_eliminations(monkeypatch)
    for _, mat, ncols in matrix_cases(127):
        want = kernel_builder(mat, ncols).rows
        sparse = [linalg.integer_row(row)[0] for row in mat]
        widths.clear()
        assert kernel_builder(sparse, ncols).rows == want
        assert map_kernel(sparse, 1, ncols - 1).rows == tuple(map(tuple, want))
        # one elimination each, and no second one to bring the kernel to RREF
        assert widths == ([ncols, ncols] if mat else [])
        widths.clear()
        vectors = kernel_vectors(sparse, ncols)
        assert widths == ([ncols] if mat else [])
        # in the columns as given, one vector per free column q of the RREF of the
        # rows, positive there and zero at every other free column
        free = [j for j in range(ncols) if j not in rref(mat)[1]]
        assert len(vectors) == len(free)
        for q, v in zip(free, vectors):
            assert v[q] > 0 and not any(j in free for j in v if j != q)
        assert spans_equal([[v.get(j, 0) for j in range(ncols)] for v in vectors], want, ncols)


def test_builder_accepts_what_q_accepts():
    mixed = [[1, Fraction(-1, 2), 0, 3], [Q(2), 0, Q(5, 3), -1], ["1/4", 0.5, "-2", Fraction(0)]]
    as_q = [[Q(x) for x in row] for row in mixed]
    assert rref(mixed) == rref(as_q)
    rows, pivots = rref([[0, 0, 2, 4], [0, 0, 3, 6]])  # int input, no denominators
    assert rows == [[0, 0, 1, 2]] and pivots == [2]
    assert_all_q(rows)
    assert [str(x) for x in rows[0]] == ["0", "0", "1", "2"]


def test_subspace_outputs_are_q_typed():
    rng = random.Random(109)
    for _ in range(10):
        a = rand_subspace(rng, 2, 2, rng.randint(0, 4))
        b = rand_subspace(rng, 2, 2, rng.randint(0, 4))
        for sub in (a, subspace_sum(a, b), subspace_intersect(a, b), orthogonal_complement(a)):
            assert_all_q(sub.rows)
        kernel = map_kernel([list(r) for r in a.rows] or [[0] * a.ambient_dim], 2, 2)
        assert_all_q(kernel.rows)
        # map_kernel builds its Subspace without re-elimination; it must agree
        assert kernel == span_vectors(2, 2, kernel.rows)


def oracle_solve(mat, ncols, rhs):
    """Free variables 0, or None when inconsistent, via gauss_jordan_solve."""
    m = sympy.Matrix(len(mat), ncols, [sympy.Rational(str(x)) for row in mat for x in row])
    try:
        b = sympy.Matrix(len(rhs), 1, [sympy.Rational(str(x)) for x in rhs])
        sol, params = m.gauss_jordan_solve(b)
    except ValueError:
        return None
    sol = sol.subs({t: 0 for t in params})
    return [Fraction(str(x)) for x in sol]


def test_solve_columns_matches_sympy():
    for rng, mat, ncols in matrix_cases(113, count=60):
        rhs = [[0] * len(mat)]  # zero right-hand side: always consistent, x = 0
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:  # consistent by construction
                x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
                rhs.append([sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in mat])
            else:  # usually inconsistent when the matrix is not of full row rank
                rhs.append([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in mat])
        sols = solve_columns(mat, ncols, rhs)
        assert len(sols) == len(rhs)
        assert sols[0] == [0] * ncols
        for b, sol in zip(rhs, sols):
            assert sol == oracle_solve(mat, ncols, b)
            if sol is not None:
                assert_all_q([sol])
                assert [sum(a * s for a, s in zip(row, sol)) for row in mat] == b


def test_solve_columns_zero_rows_and_no_rhs():
    assert solve_columns([], 3, [[], []]) == [[0, 0, 0], [0, 0, 0]]
    assert_all_q(solve_columns([], 3, [[]]))
    assert solve_columns([[1, 2]], 2, []) == []
    with pytest.raises(ValueError):
        solve_columns([[1, 2], [3, 4]], 2, [[1]])


def sparse_rows(mat) -> list:
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def test_certify_rank_matches_sympy():
    rng = random.Random(41)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        inner = rng.randint(1, min(rows, cols))
        a, b = rand_matrix(rng, rows, inner), rand_matrix(rng, inner, cols)
        mat = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        rank = sympy_rank(mat)
        assert certify_rank(sparse_rows(mat), rank)
        assert not certify_rank(sparse_rows(mat), rank + 1)


def test_certify_rank_reduces_large_entries():
    p = linalg.PRIME
    assert not certify_rank([{0: p, 1: 5 * p}], 1)
    assert certify_rank([{0: 2**200 + 1, 1: 3}, {0: 2**200, 1: 3}], 2)


def test_certify_rank_falls_short_where_the_prime_divides_a_minor(patched_prime):
    patched_prime(3)
    rows = sparse_rows([[1, 2], [2, 1]])  # determinant -3
    assert certify_rank(rows, 1)
    assert not certify_rank(rows, 2)
    assert not certify_rank(sparse_rows([[3, 6], [0, 3]]), 1)


def test_certify_rank_reads_no_row_past_the_bound():
    def rows():
        yield {0: 1}
        yield {0: 1, 1: 1}
        raise AssertionError("a row past the bound was read")

    assert certify_rank(rows(), 2)
    assert certify_rank([], 0)
    assert not certify_rank([], 1)


def test_rational_lift_finds_the_one_small_fraction_mod_101(patched_prime):
    # every residue mod 101 against a search of all a / b with |a|, b <= 7:
    # 2 * 7^2 < 101, so there is at most one, and the lift finds it
    patched_prime(101)
    for x in range(101):
        small = [(a, b) for b in range(1, 8) for a in range(-7, 8) if (a - b * x) % 101 == 0]
        small = [(a, b) for a, b in small if math.gcd(a, b) == 1]
        assert len(small) <= 1
        assert rational_lift(x, 7) == (small[0] if small else None)


def test_rational_lift_inverts_fractions_up_to_the_bound():
    # each pair in lowest terms whatever the bound: consecutive integers are coprime
    p, bound = linalg.PRIME, math.isqrt(linalg.PRIME // 2)
    pairs = [(0, 1), (1, 1), (-1, 1), (3, 7), (-bound, bound - 1), (bound, 1), (1 - bound, bound), (-12, 35)]
    for a, b in pairs:
        assert rational_lift(a * pow(b, -1, p) % p, bound) == (a, b)


def test_prime_is_one_digit_and_its_lift_bound_covers_the_seeded_spans(ci_pools, smooth_pools, nonst_pools):
    # a residue below 2^30 is one CPython digit; kernel_mod_p lifts the canonical W of a
    # valid piece only when its numerators and denominators are within isqrt(p // 2)
    p = linalg.PRIME
    assert sympy.isprime(p) and p < 2**30 and sympy.nextprime(p) > 2**30
    bound = math.isqrt(p // 2)
    spans = [w.span for pool in ci_pools.values() for w in pool]
    forms = [f for pools in (smooth_pools, nonst_pools) for pool in pools.values() for f in pool]
    spans += [jacobian_gens(f).span for f in forms]
    top = max(max(abs(x.numerator), x.denominator) for span in spans for row in span.rows for x in row)
    assert top < bound


def test_kernel_mod_p_is_the_canonical_kernel_when_its_entries_lift():
    # products of small integer matrices; where the RREF of the kernel has
    # numerators and denominators within the bound, the lift at PRIME is it
    rng, bound, lifted = random.Random(47), math.isqrt(linalg.PRIME // 2), 0
    for n, k in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        width = dim_graded(n, k)
        for _ in range(10):
            inner = rng.randint(1, width)
            a, b = rand_matrix(rng, rng.randint(1, width), inner), rand_matrix(rng, inner, width)
            mat = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
            exact = map_kernel(mat, n, k)
            rank = width - exact.dim
            # too few rows for a rank: no candidate
            assert kernel_mod_p(sparse_rows(mat), n, k, rank + 1) is None
            entries = [x for row in exact.rows for x in row]
            if all(abs(x.numerator) <= bound and x.denominator <= bound for x in entries):
                assert kernel_mod_p(sparse_rows(mat), n, k, rank) == exact
                lifted += 1
    assert lifted >= 25


def test_modular_echelon_leads_match_the_exact_pivots():
    # integer matrices whose minors are small: rank and RREF pivots agree mod p
    rng = random.Random(43)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        mat = rand_matrix(rng, rows, cols)
        echelon = ModularEchelon(cols)
        grew = [echelon.insert(row) for row in sparse_rows(mat)]
        _, pivots = rref(mat)
        assert sorted(echelon.int_rows) == pivots and sum(grew) == len(pivots)
        assert echelon.is_full() == (len(pivots) == cols)
        for lead, row in echelon.int_rows.items():
            assert row[lead] == 1 and min(row) == lead
            assert all(0 < x < linalg.PRIME for x in row.values())


def test_modular_echelon_stores_a_row_in_stored_form_as_it_is():
    # a product handed over as a handle with a lead no stored row has is stored as it
    # is, the handle itself; a handle (below, parent, column map) here maps columns
    # identically, so its row is its parent's
    p = linalg.PRIME
    product, times = {1: 1, 2: p - 1}, (0, 1, 2, 3)

    def handle(row, lead):
        return {lead: row}, lead, times

    echelon, stored = ModularEchelon(4), handle(product, 1)
    assert echelon.insert({2: 3, 3: 5}) and echelon.insert_product(stored, 1)
    assert echelon.int_rows[1] is stored
    # a reduction that reads it forms it in place, once, into a new dict
    assert not echelon.insert({1: 2, 2: -2})
    formed = echelon.int_rows[1]
    assert formed == product and formed is not product and type(formed) is dict
    assert linalg.formed_row(echelon.int_rows, 1) is formed
    # a handle whose parent is a handle: the parent is formed in place too
    inner = {1: handle(product, 1)}
    outer = ModularEchelon(4)
    assert outer.insert_product((inner, 1, times), 1)
    assert linalg.formed_row(outer.int_rows, 1) == product == inner[1] == outer.int_rows[1]
    # a product at a lead already taken is reduced, and so is every row given to
    # insert, even one in stored form: each becomes a fresh row in stored form,
    # the same rows the former insert kept
    for lead, row in ((1, {1: 1, 3: 1}), (2, {2: 1, 3: p - 1}), (0, {0: 1, 3: 2}), (0, {0: 1, 1: 1})):
        for as_product in (True, False):
            other, oracle = ModularEchelon(4), ScanningEchelon(4)
            for echelon_ in (other, oracle):
                assert echelon_.insert({2: 3, 3: 5}) and echelon_.insert(dict(product))
            taken, given = lead in other.int_rows, handle(row, lead)
            grew = other.insert_product(given, lead) if as_product else other.insert(row)
            shared = any(kept is given for kept in other.int_rows.values())
            assert shared == (as_product and not taken)
            for lead_ in other.int_rows:
                linalg.formed_row(other.int_rows, lead_)
            assert grew == oracle.insert(dict(row)) and other.int_rows == oracle.int_rows
            for lead_, kept in other.int_rows.items():
                assert kept[lead_] == 1 and min(kept) == lead_ and all(0 < x < p for x in kept.values())
    # entries outside [1, p) or a lead entry other than 1: reduced into stored form
    for row in ({0: 1, 3: p + 2}, {0: 3, 2: 1}, {0: 1, 1: -1}, {1: 1, 3: 1}, {2: p, 3: 1}):
        other, oracle = ModularEchelon(4), ScanningEchelon(4)
        for echelon_ in (other, oracle):
            echelon_.insert({2: 3, 3: 5})
            echelon_.insert(dict(product))
        assert other.insert(row) == oracle.insert(row) and other.int_rows == oracle.int_rows


def test_modular_echelon_matches_the_scanning_insert_on_random_rows():
    # the dense accumulator keeps the rows the former dict reduction kept
    rng = random.Random(53)
    for _ in range(60):
        cols = rng.randint(1, 9)
        echelon, oracle = ModularEchelon(rng.choice((0, cols))), ScanningEchelon()
        for _ in range(rng.randint(1, 8)):
            row = {j: x for j in range(cols) if (x := rng.choice((0, 0, 1, -2, 7, 2**40 + 3)))}
            if row:
                assert echelon.insert(row) == oracle.insert(row)
        assert echelon.int_rows == oracle.int_rows


def test_certify_rank_takes_rows_wider_than_any_stored_row():
    # certify_rank's echelon has no length: its accumulator widens with each row,
    # so a row reaching past every stored row reduces against them all
    p = linalg.PRIME
    rows = [{0: 1, 2: 1}, {0: 1, 40: 3}, {2: 5, 100: 1}, {0: 2, 2: 6, 40: 3, 100: 1}, {3: p, 150: 2}]
    dense = [[row.get(j, 0) for j in range(151)] for row in rows]
    rank = sympy_rank(dense)
    assert rank == 4
    assert certify_rank(rows, rank) and not certify_rank(rows, rank + 1)
    # a narrow row after wide ones, and a wide row after narrow ones
    assert certify_rank([{0: 1, 90: 1}, {0: 1}], 2)
    assert not certify_rank([{0: 1}, {1: 1}, {0: 3, 1: 3}], 3)
    assert certify_rank([{0: 1}, {1: 1}, {0: 3, 1: 3, 60: 1}], 3)
    echelon, oracle = ModularEchelon(), ScanningEchelon()
    for row in rows:
        assert echelon.insert(row) == oracle.insert(row)
    assert echelon.int_rows == oracle.int_rows


def test_modular_annihilator_vanishes_on_the_rows_mod_p():
    rng = random.Random(47)
    p = linalg.PRIME
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(2, 7)
        mat = sparse_rows(rand_matrix(rng, rows, cols))
        echelon = ModularEchelon(cols)
        for row in mat:
            echelon.insert(row)
        duals = modular_annihilator(echelon)
        assert len(duals) == cols - echelon.dim
        for nu in duals:
            (free,) = [q for q in nu if q not in echelon.int_rows]
            assert nu[free] == 1
            assert all(sum(x * nu.get(j, 0) for j, x in row.items()) % p == 0 for row in mat)


def test_full_subspace_is_the_span_of_the_unit_vectors():
    for n, k in ((1, 3), (2, 4), (3, 2)):
        size = dim_graded(n, k)
        full = full_subspace(n, k)
        units = span_vectors(n, k, ({i: 1} for i in range(size)))
        assert full == units and hash(full) == hash(units)
        assert full.pivots == units.pivots == tuple(range(size))
        assert full.rows == units.rows and full.is_full()
