"""Independent oracle implementations used to cross-check the library.

Everything here except ``direct_product_piece`` and
``recover_generators_by_lift`` deliberately avoids the package's own
linear algebra and polynomial machinery: enumeration by
itertools, determinants by permutation expansion, symbolic
differentiation and matrix work by sympy. Expected values frozen into
tests were computed by these routes.
"""

from fractions import Fraction
import itertools

import sympy

from milnoralg import (
    GeneratorTuple,
    HomogeneousPolynomial,
    PreconditionError,
    Subspace,
    apolar_piece,
    dim_graded,
    hilbert_profile,
    ideal_piece,
    lift_piece,
    orthogonal_complement,
    socle_degree,
    zero_subspace,
)
from milnoralg.linalg import SpanBuilder
from milnoralg.monomials import product_index_table


def enum_monomials(nvars: int, k: int):
    """All degree-k exponent tuples by brute-force enumeration."""
    return [t for t in itertools.product(range(k + 1), repeat=nvars) if sum(t) == k]


def perm_determinant(matrix):
    """Determinant by full permutation expansion (small matrices only)."""
    size = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(size):
            prod *= Fraction(matrix[i][perm[i]])
        total += sign * prod
    return total


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in rows])


def sympy_rank(rows) -> int:
    if not rows:
        return 0
    return sympy_matrix(rows).rank()


def sympy_nullspace_dim(rows, ncols: int) -> int:
    if not rows:
        return ncols
    return ncols - sympy_matrix(rows).rank()


def sympy_rowspace(rows):
    """Row space as a sympy-reduced matrix, for span comparisons."""
    reduced, _ = sympy_matrix(rows).rref()
    out = [list(reduced.row(i)) for i in range(reduced.rows) if any(reduced.row(i))]
    return out


def spans_equal(rows_a, rows_b, ncols: int) -> bool:
    """Whether two row sets span the same space (sympy route)."""
    if not rows_a and not rows_b:
        return True
    if not rows_a or not rows_b:
        return False
    ra = sympy_rank(rows_a)
    rb = sympy_rank(rows_b)
    return ra == rb == sympy_rank(list(rows_a) + list(rows_b))


def poly_to_sympy(f, variables):
    """Package polynomial -> sympy expression in the given symbols."""
    expr = sympy.Integer(0)
    for alpha, c in f.terms.items():
        term = sympy.Rational(str(c))
        for var, e in zip(variables, alpha):
            if e:
                term *= var**e
        expr += term
    return sympy.expand(expr)


def sympy_polar_apply(f, q):
    """Polar action by literal symbolic differentiation."""
    variables = sympy.symbols(f"z0:{f.n + 1}")
    target = poly_to_sympy(q, variables)
    result = sympy.Integer(0)
    for alpha, c in f.terms.items():
        work = target
        for var, e in zip(variables, alpha):
            for _ in range(e):
                work = sympy.diff(work, var)
        result += sympy.Rational(str(c)) * work
    return sympy.expand(result)


def fiber_dimension_oracle(gens, d: int) -> int:
    """Dimension of {g in S_d : every partial of g lies in span(gens)}.

    Implemented from scratch: the span membership is encoded as vanishing
    of dot products against a sympy nullspace basis of the generator
    matrix, and the resulting linear system on the coefficients of g is
    solved by sympy. Shares no code with the package solver.
    """
    n = gens[0].n
    e = gens[0].degree  # = d - 1
    basis_e = enum_monomials(n + 1, e)
    pos_e = {m: i for i, m in enumerate(basis_e)}
    gen_rows = []
    for g in gens:
        row = [sympy.Integer(0)] * len(basis_e)
        for alpha, c in g.terms.items():
            row[pos_e[alpha]] = sympy.Rational(str(c))
        gen_rows.append(row)
    complement = sympy.Matrix(gen_rows).nullspace()  # dot-orthogonal functionals

    basis_d = enum_monomials(n + 1, d)
    constraints = []
    for i in range(n + 1):
        for w in complement:
            row = []
            for alpha in basis_d:
                if alpha[i] == 0:
                    row.append(sympy.Integer(0))
                else:
                    beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                    row.append(alpha[i] * w[pos_e[beta]])
            constraints.append(row)
    if not constraints:
        return len(basis_d)
    mat = sympy.Matrix(constraints)
    return len(basis_d) - mat.rank()


def direct_product_piece(n: int, src_deg: int, k: int, vectors):
    """Degree-k piece of the ideal generated by ``vectors``, built directly.

    ``vectors`` are coordinate rows over S_src_deg. The piece is the RREF
    span of u * v over every monomial u of degree k - src_deg and every
    source row v, all products at once: the construction the library used
    before it grew pieces one degree at a time. It shares only the
    elimination with the library, and ``SpanBuilder`` is itself checked
    against sympy in test_linalg.
    """
    if k < src_deg:
        return zero_subspace(n, k)
    sparse = [[(j, c) for j, c in enumerate(v) if c] for v in vectors]
    target_dim = dim_graded(n, k)
    builder = SpanBuilder(target_dim)
    for tu in product_index_table(n, k - src_deg, src_deg):
        for sv in sparse:
            vec = [0] * target_dim
            for j, c in sv:
                vec[tu[j]] = c
            builder.insert(vec)
    return Subspace.from_builder(n, k, builder)


def recover_generators_by_lift(e, k: int, n: int, d: int):
    """Recover W from E = (I_W)_k through the socle degree, checking as it goes.

    Lifts E to T+1 (the Artinian fill) and to T, takes the apolar
    complement at T (the associated form, a line) and cuts its apolar
    ideal down to degree d-1: the route the library took before it read
    W off the colon (E : S_{k-d+1})_{d-1}. It shares the pieces with the
    library but none of the colon, and raises PreconditionError wherever
    the library must.
    """
    if e.dim != hilbert_profile(n, d).b(k):
        raise PreconditionError("dimension does not match the expected piece dimension")
    top = socle_degree(n, d)
    if not lift_piece(e, top + 1).is_full():
        raise PreconditionError("lift does not fill degree T+1")
    comp = orthogonal_complement(lift_piece(e, top))
    if comp.dim != 1:
        raise PreconditionError("socle complement is not a line")
    generators = apolar_piece(HomogeneousPolynomial.from_coords(n, top, comp.rows[0]), d - 1)
    if generators.dim != n + 1:
        raise PreconditionError("apolar piece in the generator degree has the wrong dimension")
    w = GeneratorTuple(n, d, generators.basis_polynomials())
    if ideal_piece(w, k) != e:
        raise PreconditionError("input is not a complete-intersection piece")
    return w
