"""Independent oracle implementations used to cross-check the library.

Everything here except ``product_index_table_by_lookup``,
``direct_product_piece``,
``recover_generators_by_lift``, ``verify_inverse_system_by_pieces``,
the Koszul rank by sympy on the package's products (``koszul_rank_by_sympy``),
the assembled tangent map
(``solve_columns``, ``multiplication_matrix``, ``membership_solutions``,
``tangent_image``), the rational reduction loops
(``reduce_by_rational_rows``, ``quotient_coords_by_rational_rows``) and
the pivot-major relay (``relay_rows``), the tangent kernels read off the
exact colon piece (``tuple_kernel_by_colon``, ``poly_kernel_by_colon``),
the fiber by annihilator rows (``forms_with_partials_in_by_annihilator``),
``modular_annihilator``, the walk mod p by rescanning each row
(``ScanningEchelon``, ``relay_step_by_scan``, ``ci_walk_by_scan``,
``ci_walk_by_scan_cut``), the sorted relay step (``relay_step_by_sort``)
and the former library helpers moved here when
no library path ran them any more (``QuotientMap``, ``rref``,
``orthogonal_complement``, ``subspace_sum``, ``subspace_intersect``,
``map_image``, ``catalecticant_matrix``, ``apolar_inner``,
``euler_check``, ``euler_recover``, ``evaluate``, ``random_unimodular``,
``TupleTangentVector`` and ``colon_piece``), the containment test on
the degree-k pieces themselves (``containment_by_pieces``), and the generator of forms
singular at one rational point (``singular_at_point``), which moves a
seeded form with ``linear_change``,
deliberately avoids the package's
own linear algebra and polynomial machinery: enumeration by itertools,
determinants by permutation expansion, symbolic differentiation and
matrix work by sympy. Expected values frozen into tests were computed by
these routes. Those exceptions are routes the library took before it
found a cheaper one, helpers it no longer needs, or an input generator;
they share its elimination, which is itself checked against sympy in test_linalg.
"""

from fractions import Fraction
from functools import lru_cache
import itertools
import math
import random
from typing import Iterable

import sympy

from milnoralg import (
    GeneratorTuple,
    HomogeneousPolynomial,
    PreconditionError,
    Subspace,
    apolar_piece,
    associated_form,
    contains,
    dim_graded,
    full_subspace,
    hilbert_profile,
    ideal_piece,
    jacobian_gens,
    jacobian_piece,
    linear_change,
    map_kernel,
    multiply,
    partial,
    partials_piece,
    random_smooth,
    socle_degree,
    span_polys,
    span_vectors,
    zero_subspace,
)
import milnoralg.linalg as linalg
from milnoralg.deformation import KernelReport, PolyTangentVector, _check_tuple_pre
from milnoralg.ideals import check_degree, generated_piece
from milnoralg.linalg import (
    SpanBuilder,
    _check_same_ambient,
    annihilator,
    colon_rows,
    kernel_builder,
)
from milnoralg.monomials import (
    derivative_table,
    factorial_weights,
    mono_basis,
    mono_index,
    product_index_table,
)
from milnoralg.rationals import Q, ZERO
from milnoralg.st_analysis import check_seed


def product_index_table_by_lookup(n: int, ka: int, kb: int) -> tuple:
    """table[i][j] = basis position in S_{ka+kb} of basis_ka[i] * basis_kb[j].

    The library's former route: every product formed as an exponent tuple
    and looked up in ``mono_index``.
    """
    target = mono_index(n, ka + kb)
    basis_b = mono_basis(n, kb)
    return tuple(
        tuple(target[tuple(x + y for x, y in zip(a, b))] for b in basis_b)
        for a in mono_basis(n, ka)
    )


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
    if not generated_piece(e, top + 1).is_full():
        raise PreconditionError("lift does not fill degree T+1")
    comp = orthogonal_complement(generated_piece(e, top))
    if comp.dim != 1:
        raise PreconditionError("socle complement is not a line")
    generators = apolar_piece(HomogeneousPolynomial.from_coords(n, top, comp.rows[0]), d - 1)
    if generators.dim != n + 1:
        raise PreconditionError("apolar piece in the generator degree has the wrong dimension")
    w = GeneratorTuple(n, d, generators.basis_polynomials())
    if ideal_piece(w, k) != e:
        raise PreconditionError("input is not a complete-intersection piece")
    return w


def verify_inverse_system_by_pieces(w: GeneratorTuple) -> bool:
    """(I_W)_k = Ann(F)_k for every k = 0..T+1, compared as canonical pieces.

    The route ``verify_inverse_system`` took before it decided by
    catalecticant ranks: Ann(F)_k is the kernel of the dense rational
    ``catalecticant_matrix`` at every k up to T, and all of S_{T+1} above.
    """
    form = associated_form(w).form
    top = socle_degree(w.n, w.d)
    for k in range(top + 2):
        if k > top:
            ann = full_subspace(w.n, k)
        else:
            ann = map_kernel(catalecticant_matrix(form, k), w.n, k)
        if ann != ideal_piece(w, k):
            return False
    return True


def koszul_rank_by_sympy(w: GeneratorTuple, k: int) -> int:
    """Rank over Q of the degree-k Koszul syzygies m (g_j e_i - g_i e_j) of W.

    One vector per monomial m of degree k - 2(d-1) and pair i < j: n+1
    slots of forms of degree k-d+1, m g_j in slot i and -m g_i in slot j,
    read slot after slot in mono_basis coordinates. The rank is sympy's.
    """
    n, d = w.n, w.d
    degree, slot = k - 2 * (d - 1), k - d + 1
    rows = []
    for alpha in enum_monomials(n + 1, degree) if degree >= 0 else ():
        m = HomogeneousPolynomial.monomial(n, alpha)
        for i, j in itertools.combinations(range(n + 1), 2):
            slots = [HomogeneousPolynomial.zero(n, slot)] * (n + 1)
            slots[i], slots[j] = multiply(m, w.gens[j]), -multiply(m, w.gens[i])
            rows.append([c for f in slots for c in f.coords()])
    return sympy_rank(rows)


# -- the assembled tangent map --------------------------------------------------------
# The library's route to tangent kernels before they came from the colon piece:
# one representation b = sum_i u_i g_i per basis vector of (I_W)_k, solved from
# the multiplication matrix, and the induced map b |-> sum_i u_i h_i built on it.


def solve_columns(rows: Iterable, ncols: int, rhs_columns: Iterable) -> list:
    """Solve M x = b for each right-hand side b in ``rhs_columns``.

    ``rows`` is the matrix M (each row of length ``ncols``); each b has one
    entry per row. Returns one solution per b with free variables set to
    zero, or None where the system is inconsistent. One RREF of the rows
    [M | b_0 ... b_r] serves all: its rows pivoting right of M span the
    y[M | B] with yM = 0, so b_j is consistent iff they all vanish in its
    column, and then x[p] is that column's entry in the row pivoting at p.
    """
    rows = [list(r) for r in rows]
    rhs = [list(b) for b in rhs_columns]
    if any(len(b) != len(rows) for b in rhs):
        raise ValueError("right-hand side length does not match row count")
    builder = SpanBuilder(ncols + len(rhs))
    for i, row in enumerate(rows):
        builder.insert(row + [b[i] for b in rhs])
    basis = builder.int_rows.items()
    solutions = []
    for col in range(ncols, ncols + len(rhs)):
        if any(col in r for p, r in basis if p >= ncols):
            solutions.append(None)
            continue
        x = [ZERO] * ncols
        for p, r in basis:
            if p < ncols and col in r:
                x[p] = Q(r[col], r[p])
        solutions.append(x)
    return solutions


def multiplication_matrix(w: GeneratorTuple, k: int) -> list:
    """Matrix of (u_0, ..., u_n) |-> sum_i u_i g_i into S_k.

    dim(S_k) rows; columns indexed by (i, u) as i * dim_u + u over the
    monomials u of degree k - (d-1).
    """
    n, d = w.n, w.d
    if k < d - 1:
        raise ValueError(f"need k >= {d - 1}, got {k}")
    dim_u = dim_graded(n, k - (d - 1))
    dim_t = dim_graded(n, k)
    table = product_index_table(n, k - (d - 1), d - 1)
    idx = mono_index(n, d - 1)
    mat = [[ZERO] * ((n + 1) * dim_u) for _ in range(dim_t)]
    for i, g in enumerate(w.gens):
        sparse = [(idx[alpha], c) for alpha, c in g.terms.items()]
        base = i * dim_u
        for u in range(dim_u):
            tu = table[u]
            col = base + u
            for j, c in sparse:
                mat[tu[j]][col] = c
    return mat


@lru_cache(maxsize=256)
def membership_solutions(w: GeneratorTuple, k: int):
    """One representation b = sum_i u_i g_i per basis vector of (I_W)_k.

    Returns (piece, solutions) where solutions[j][i] is the sparse
    coordinate list [(u_index, coeff), ...] of u_i over the degree
    k-(d-1) monomials. Any solution of the linear system is accepted;
    well-definedness of everything built on top makes the choice
    immaterial.
    """
    piece = ideal_piece(w, k)
    mat = multiplication_matrix(w, k)
    ncols = (w.n + 1) * dim_graded(w.n, k - (w.d - 1))
    sols = solve_columns(mat, ncols, [list(row) for row in piece.rows])
    dim_u = dim_graded(w.n, k - (w.d - 1))
    packed = []
    for sol in sols:
        assert sol is not None  # basis rows lie in the image by construction
        packed.append(
            tuple(
                tuple((u, sol[i * dim_u + u]) for u in range(dim_u) if sol[i * dim_u + u])
                for i in range(w.n + 1)
            )
        )
    return piece, tuple(packed)


def tangent_image(w: GeneratorTuple, h, k: int) -> tuple:
    """Matrix of the induced map (I_W)_k -> S_k / (I_W)_k for direction h.

    One row per canonical basis vector of (I_W)_k, in the quotient
    coordinates of S_k / (I_W)_k; the zero matrix means h is killed at
    degree k.
    """
    _check_tuple_pre(w, k)
    if not isinstance(h, TupleTangentVector):
        h = TupleTangentVector(w, h)
    piece, sols = membership_solutions(w, k)
    qm = QuotientMap(piece)
    table = product_index_table(w.n, k - (w.d - 1), w.d - 1)
    idx = mono_index(w.n, w.d - 1)
    sparse_parts = [[(idx[alpha], c) for alpha, c in p.terms.items()] for p in h.parts]
    rows = []
    for sol in sols:
        image = [ZERO] * piece.ambient_dim  # sum_i u_i * h_i in S_k
        for i, hp in enumerate(sparse_parts):
            for u_idx, uc in sol[i]:
                tu = table[u_idx]
                for j, hc in hp:
                    image[tu[j]] += uc * hc
        rows.append(tuple(qm.coords(image)))
    return tuple(rows)


# -- the rational reduction loops -------------------------------------------------------
# The library's reductions before they went through the integer rows: each walks the
# dense rational RREF rows of the subspace.


def reduce_by_rational_rows(sub, vec) -> list:
    """Residual of ``vec`` modulo ``sub``, pivot by pivot on ``sub.rows``."""
    v = [Q(x) for x in vec]
    for p, row in zip(sub.pivots, sub.rows):
        c = v[p]
        if c:
            for j in range(p, len(v)):
                if row[j]:
                    v[j] -= c * row[j]
    return v


def quotient_coords_by_rational_rows(sub, vec) -> list:
    """Quotient coordinates of ``vec``: its nonpivot entries minus the pivot rows restricted there."""
    pivots = set(sub.pivots)
    nonpivots = [j for j in range(sub.ambient_dim) if j not in pivots]
    out = [vec[j] for j in nonpivots]
    for p, row in zip(sub.pivots, sub.rows):
        c = vec[p]
        if c:
            for q, j in enumerate(nonpivots):
                if row[j]:
                    out[q] -= c * row[j]
    return out


# -- the pivot-major relay ----------------------------------------------------------------
# The order ``ideals._relay`` inserted the products x_i * r in before it sorted them
# by leading column: by decreasing pivot of r, with the variables inner.


def relay_products(below: dict, n: int, k: int) -> list:
    """x_i * r over the integer rows r = ``below`` of degree k-1, in pivot-major order."""
    table = product_index_table(n, 1, k - 1)
    return [
        {tu[j]: x for j, x in below[p].items()} for p in sorted(below, reverse=True) for tu in table
    ]


def relay_rows(span, top: int, rng=None):
    """Yield (k, integer RREF rows of degree k) of the ideal generated by ``span``, k <= top.

    Each degree is a fresh ``SpanBuilder`` fed every product of the rows one
    degree below, in pivot-major order, or shuffled by ``rng`` when given.
    """
    rows = span.int_rows
    yield span.k, rows
    for k in range(span.k + 1, top + 1):
        products = relay_products(rows, span.n, k)
        if rng is not None:
            rng.shuffle(products)
        builder = SpanBuilder(dim_graded(span.n, k))
        for v in products:
            builder.insert(v)
        rows = builder.int_rows
        yield k, rows


# -- the fiber by annihilator rows ----------------------------------------------------------
# The library's route to the fiber {g : all partials of g lie in E} before it solved the
# integrability system on the coefficients of the partials: one row per variable and
# functional vanishing on E, on the dim S_{k+1} coefficients of g.


def partials_rows_by_annihilator(e: Subspace):
    """Integer rows of the fiber system over E in S_k, on S_{k+1}, lazily.

    One row per variable x_i and functional nu of ``annihilator(E)``, with
    entry nu(d g / d x_i) at each monomial g of S_{k+1}: the kernel is
    {g in S_{k+1} : all partials of g lie in E}.
    """
    duals = annihilator(e)
    for di in derivative_table(e.n, e.k + 1):
        hits = [(s, *hit) for s, hit in enumerate(di) if hit]
        for nu in duals:
            yield {s: f * nu[t] for s, t, f in hits if t in nu}


def forms_with_partials_in_by_annihilator(e: Subspace) -> tuple:
    """Canonical basis of {g in S_{k+1} : all partials of g lie in E}, E in S_k.

    Solved as one exact linear system, the kernel of
    ``partials_rows_by_annihilator``.
    """
    n, d = e.n, e.k + 1
    solutions = kernel_builder(partials_rows_by_annihilator(e), dim_graded(n, d)).rows
    return tuple(HomogeneousPolynomial.from_coords(n, d, v) for v in solutions)


# -- the functionals of an echelon basis mod p ----------------------------------------------


def modular_annihilator(echelon) -> list:
    """Functionals mod p that vanish on the rows of a ``ModularEchelon``, one per free column q.

    Each is 1 at q and 0 at the other free columns; its values at the
    leads follow by back-substitution, rightmost lead first, as each
    row is 1 at its lead and has its other entries right of it.
    """
    p, rows = linalg.PRIME, echelon.int_rows
    out = []
    for q in range(echelon.length):
        if q not in rows:
            nu = {q: 1}
            for lead in sorted(rows, reverse=True):
                if c := -sum(x * nu.get(j, 0) for j, x in rows[lead].items()) % p:
                    nu[lead] = c
            out.append(nu)
    return out


# -- tangent kernels off the exact colon piece --------------------------------------------
# The library's exact route to tangent kernels before it read them off Gorenstein duality:
# the colon piece C = ((I_W)_k : S_{k-d+1})_{d-1} computed at each k, the kernel at a tuple
# n+1 copies of C / W, and at a form the fiber over C modulo f. The preconditions are decided
# by the exact fill at T+1, with the library's refusals.


def _exact_ci(w: GeneratorTuple) -> bool:
    return ideal_piece(w, socle_degree(w.n, w.d) + 1).is_full()


def tuple_kernel_by_colon(w: GeneratorTuple, k: int) -> KernelReport:
    """Kernel of the tangent map of W |-> (I_W)_k: n+1 copies of C / W, C = ``colon_piece(w, k)``."""
    check_degree(w.n, w.d, k)
    if not _exact_ci(w):
        raise PreconditionError("generator tuple is not a complete intersection")
    n = w.n
    gq = QuotientMap(w.span)
    block, _ = rref([gq.coords(row) for row in colon_piece(w, k).rows])
    zero = HomogeneousPolynomial.zero(n, w.d - 1)
    forms = [_from_quotient_coords(gq, n, w.d - 1, v) for v in block]
    basis = tuple(
        TupleTangentVector(w, [form if i == slot else zero for i in range(n + 1)])
        for slot in range(n + 1)
        for form in forms
    )
    return KernelReport(k, (n + 1) * gq.dim, len(basis), basis)


def poly_kernel_by_colon(f: HomogeneousPolynomial, k: int) -> KernelReport:
    """Kernel of the tangent map of f |-> (J(f))_k: the fiber over ``colon_piece`` modulo f."""
    n, d = f.n, f.degree
    check_degree(n, d, k)
    try:
        w = jacobian_gens(f)
    except PreconditionError:
        w = None
    if w is None or not _exact_ci(w):
        raise PreconditionError("polynomial is not smooth")
    fq = QuotientMap(span_polys([f]))
    preimage = forms_with_partials_in_by_annihilator(colon_piece(w, k))
    kernel_vectors, _ = rref([fq.coords(h.coords()) for h in preimage])
    basis = tuple(
        PolyTangentVector(f, _from_quotient_coords(fq, n, d, vec)) for vec in kernel_vectors
    )
    return KernelReport(k, fq.dim, len(basis), basis)


# -- the walk mod p by rescanning each row ---------------------------------------------------
# The library's insert mod p and relay walk before each product was handed over with its
# lead: every row, products included, is scanned for stored form, and a row that is not
# is reduced in a dict, its lead found by ``min`` at every step. The walk runs every degree
# up to T and the fill at T+1, wherever it falls short.


class ScanningEchelon:
    """Echelon basis mod ``linalg.PRIME``, the former ``ModularEchelon``."""

    __slots__ = ("length", "int_rows")

    def __init__(self, length: int = 0):
        self.length = length
        self.int_rows: dict = {}

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    def is_full(self) -> bool:
        return len(self.int_rows) == self.length

    def insert(self, row: dict) -> bool:
        """Add a sparse {column: int} row, reduced mod p first; True if the span grew.

        A row already in stored form (1 at a lead no stored row has, every
        entry in [1, p)) is stored as it is, and may be shared: the relay
        mod p multiplies stored rows by variables, which keeps that form.
        """
        p, rows = linalg.PRIME, self.int_rows
        lead = min(row, default=None)
        if row.get(lead) == 1 and lead not in rows and 0 < min(row.values()) and max(row.values()) < p:
            rows[lead] = row
            return True
        v = {j: y for j, x in row.items() if (y := x % p)}
        while v:
            # entries are reduced mod p only at the lead, where it matters
            lead = min(v)
            c = v.pop(lead) % p
            if not c:
                continue
            r = rows.get(lead)
            if r is None:
                inv = pow(c, -1, p)
                rows[lead] = {lead: 1, **{j: y for j, x in v.items() if (y := x * inv % p)}}
                return True
            c = p - c
            for j, y in r.items():
                v[j] = v.get(j, 0) + c * y
            del v[lead]
        return False


def relay_step_by_scan(builder, below: dict, n: int, k: int, bound: int):
    """The former ``ideals.relay_step``: each product inserted without its lead."""
    table = product_index_table(n, 1, k - 1)
    leads = sorted(((tu[p], p, tu) for p in below for tu in table), reverse=True)
    todo, last = len({lead for lead, _, _ in leads}), None
    for lead, p, tu in leads:
        first = lead != last
        if builder.dim + todo == bound:
            if bound == builder.length:
                return None
            if not first:
                continue
        if first:
            todo, last = todo - 1, lead
        builder.insert({tu[j]: x for j, x in below[p].items()})
    return None if builder.is_full() else builder


# -- the sorted relay step --------------------------------------------------------------------
# The library's relay step before it bucketed the products by leading column: the
# (lead, parent, table row) tuple of every product, sorted in descending order, ties in
# the lead broken by the parent's lead, largest first. Each product is handed over as a
# handle (below, parent, column map), as ``ideals.relay_step`` hands it.


def relay_step_by_sort(builder, below: dict, n: int, k: int, bound: int):
    """The former ``ideals.relay_step``: every product sorted by (lead, parent) before any is inserted."""
    table = product_index_table(n, 1, k - 1)
    leads = sorted(((tu[p], p, tu) for p in below for tu in table), reverse=True)
    todo, last = len({lead for lead, _, _ in leads}), None
    for lead, p, tu in leads:
        first = lead != last
        if len(builder.int_rows) + todo == bound:
            if bound == builder.length:
                return None
            if not first:
                continue
        if first:
            todo, last = todo - 1, lead
        builder.insert_product((below, p, tu), lead)
    return None if builder.is_full() else builder


def ci_walk_by_scan(span: Subspace) -> tuple:
    """(verdict, {k: stored rows}): the former ``ideals.ci_walk_mod_p`` with every degree kept.

    The rows at T+1 are those stored when the fill stopped.
    """
    n, d = span.n, span.k + 1
    top = socle_degree(n, d)
    profile = hilbert_profile(n, d)
    piece = ScanningEchelon(dim_graded(n, d - 1))
    for row in span.int_rows.values():
        piece.insert(row)
    kept = {d - 1: piece.int_rows}
    for k in range(d, top + 1):
        piece = relay_step_by_scan(ScanningEchelon(dim_graded(n, k)), piece.int_rows, n, k, profile.b(k))
        kept[k] = piece.int_rows
    if piece.dim != profile.b(top):
        return False, kept
    fill = ScanningEchelon(dim_graded(n, top + 1))
    full = relay_step_by_scan(fill, piece.int_rows, n, top + 1, fill.length) is None
    kept[top + 1] = fill.int_rows
    return full, kept


def ci_walk_by_scan_cut(span: Subspace) -> tuple:
    """``ci_walk_by_scan`` cut at the first degree short of b(k), where the library's walk stops.

    A walk short at d-1 hands nothing to ``relay_step``, so no degree is kept.
    """
    verdict, kept = ci_walk_by_scan(span)
    n, d = span.n, span.k + 1
    profile = hilbert_profile(n, d)
    short = [k for k in kept if k <= socle_degree(n, d) and len(kept[k]) != profile.b(k)]
    if short:
        kept = {k: rows for k, rows in kept.items() if k <= min(short)} if min(short) >= d else {}
    return verdict, kept


# -- former library helpers ------------------------------------------------------------------
# Public helpers that no library path ran any more, moved here as they were, as references
# and tools for the tests. ``nullspace`` and ``lift_piece`` did not move: read
# ``kernel_builder(rows, ncols).rows`` and ``generated_piece(e, m)`` instead.


def rref(rows: Iterable) -> tuple:
    """Reduced row-echelon form of a matrix given as a list of rows.

    Returns (reduced rows, pivot columns); zero rows are dropped. The
    result depends only on the row space, hence is deterministic.
    """
    rows = list(rows)
    if not rows:
        return [], []
    builder = SpanBuilder(len(rows[0]))
    for r in rows:
        builder.insert(r)
    return builder.rows, list(builder.pivots)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    return span_vectors(a.n, a.k, [*a.int_rows.values(), *b.int_rows.values()])


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus double-block reduction."""
    _check_same_ambient(a, b)
    amb = a.ambient_dim
    builder = SpanBuilder(2 * amb)
    for row in a.int_rows.values():
        builder.insert({**row, **{j + amb: x for j, x in row.items()}})
    for row in b.int_rows.values():
        builder.insert(row)
    rows = builder.int_rows
    shifted = ({j - amb: x for j, x in rows[p].items()} for p in builder.pivots if p >= amb)
    return span_vectors(a.n, a.k, shifted)


def orthogonal_complement(e: Subspace) -> Subspace:
    """Complement under the apolar inner product on S_k.

    The pairing is diagonal on monomials with weights alpha!, so the
    complement is the kernel of the weighted basis matrix. Involutive:
    the complement of the complement is the original subspace.
    """
    weights = factorial_weights(e.n, e.k)
    rows = [{j: x * weights[j] for j, x in row.items()} for row in e.int_rows.values()]
    return map_kernel(rows, e.n, e.k)


def map_image(matrix_rows, n: int, m: int) -> Subspace:
    """Image in S_m of a map given by a matrix with dim(S_m) rows."""
    if not matrix_rows:
        return zero_subspace(n, m)
    ncols = len(matrix_rows[0])
    cols = ([row[j] for row in matrix_rows] for j in range(ncols))
    return span_vectors(n, m, cols)


class QuotientMap:
    """Canonical coordinates on S_k / E for a subspace E in RREF.

    The coordinates of a vector are the non-pivot positions of its
    residual modulo E; they vanish exactly on E, and there are
    dim(S_k) - dim(E) of them.
    """

    __slots__ = ("subspace", "pivots", "nonpivots")

    def __init__(self, subspace: Subspace):
        self.subspace = subspace
        self.pivots = subspace.pivots
        self.nonpivots = tuple(sorted(set(range(subspace.ambient_dim)) - set(subspace.pivots)))

    @property
    def dim(self) -> int:
        return len(self.nonpivots)

    def coords(self, vec) -> list:
        """Quotient coordinates of an ambient coordinate vector, entries of type Q."""
        residual = self.subspace.reduce(vec)
        return [residual[j] for j in self.nonpivots]


def catalecticant_matrix(b: HomogeneousPolynomial, k: int) -> list:
    """Matrix of g |-> (g applied as differential operator to b), on S_k.

    Column convention: dim(S_{m-k}) rows and dim(S_k) columns for
    m = deg(b); entry (t, s) is the target-monomial-t coefficient of the
    s-th source monomial acting on b.
    """
    m, n = b.degree, b.n
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= {m}, got {k}")
    src = mono_basis(n, k)
    tgt = mono_basis(n, m - k)
    idx = mono_index(n, m)
    coeffs = {}
    for alpha, c in b.terms.items():
        coeffs[idx[alpha]] = c
    table = product_index_table(n, m - k, k)
    rows = []
    for t, beta in enumerate(tgt):
        row = []
        for s, alpha in enumerate(src):
            c = coeffs.get(table[t][s])
            if c is None:
                row.append(0)
            else:
                factor = math.prod(math.perm(bt + at, at) for bt, at in zip(beta, alpha))
                row.append(c * factor)
        rows.append(row)
    return rows


def apolar_inner(f: HomogeneousPolynomial, q: HomogeneousPolynomial):
    """The inner product sum(alpha! * a_alpha * b_alpha) over shared monomials.

    Symmetric, bilinear, and positive definite on rational coefficients;
    agrees with ``polar_apply`` in equal degrees.
    """
    if f.n != q.n:
        raise ValueError(f"variable count mismatch: n={f.n} vs n={q.n}")
    if f.degree != q.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {q.degree}")
    small, large = (f.terms, q.terms) if len(f.terms) <= len(q.terms) else (q.terms, f.terms)
    total = ZERO
    for alpha, c in small.items():
        other = large.get(alpha)
        if other is not None:
            total += c * other * math.prod(math.factorial(e) for e in alpha)
    return total


def euler_check(f: HomogeneousPolynomial) -> bool:
    """Verify the Euler identity sum_i x_i * df/dx_i = deg(f) * f exactly."""
    if f.degree < 1:
        raise ValueError("Euler identity needs degree >= 1")
    acc = HomogeneousPolynomial.zero(f.n, f.degree)
    for i in range(f.n + 1):
        acc = acc + multiply(HomogeneousPolynomial.variable(f.n, i), partial(f, i))
    return acc == f * f.degree


def euler_recover(gens) -> HomogeneousPolynomial:
    """Rebuild (1/d) * sum_i x_i * g_i from an (n+1)-tuple of degree d-1 forms.

    When the g_i are the partial derivatives of a form f this returns f
    exactly, by the Euler identity.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator sequence")
    n = gens[0].n
    e = gens[0].degree
    if len(gens) != n + 1:
        raise ValueError(f"expected {n + 1} forms, got {len(gens)}")
    acc = HomogeneousPolynomial.zero(n, e + 1)
    for i, g in enumerate(gens):
        if g.n != n or g.degree != e:
            raise ValueError("generator sequence is not homogeneous of one degree")
        acc = acc + multiply(HomogeneousPolynomial.variable(n, i), g)
    return acc / (e + 1)


def evaluate(f: HomogeneousPolynomial, point):
    """Evaluate f at a rational point given as a sequence of n+1 scalars."""
    point = [Q(p) for p in point]
    if len(point) != f.n + 1:
        raise ValueError(f"point has length {len(point)}, expected {f.n + 1}")
    total = ZERO
    for alpha, c in f.terms.items():
        val = c
        for p, e in zip(point, alpha):
            if e:
                val *= p ** e
        total += val
    return total


def singular_at_point(n: int, d: int, seed: int) -> tuple:
    """(g, P): a seeded integer form of degree d singular at a rational point P.

    The seeded smooth form ``random_smooth(n, d, seed)`` with its x0^d and
    x0^(d-1) x_i terms dropped is singular at e_0, as f(e_0) and each
    partial there is a multiple of one of those coefficients. P has
    coordinates in [-3, 3], P_0 != 0, and ``linear_change`` substitutes
    x -> A x with A P = e_0: A is the inverse of the identity with its
    first column replaced by P. The result is scaled to integer
    coefficients; the gradient of g at P is A^T times that of f at e_0, zero.
    """
    rng = random.Random(seed)
    f = random_smooth(n, d, seed=seed)
    dropped = HomogeneousPolynomial(n, d, {a: c for a, c in f.terms.items() if a[0] < d - 1})
    point = [rng.choice([-3, -2, -1, 1, 2, 3])] + [rng.randint(-3, 3) for _ in range(n)]
    inverse = [[Q(1, point[0])] + [0] * n]
    for i in range(1, n + 1):
        inverse.append([Q(-point[i], point[0])] + [int(i == j) for j in range(1, n + 1)])
    g = linear_change(dropped, inverse)
    return g * math.lcm(*(c.denominator for c in g.terms.values())), point


def random_unimodular(n: int, seed: int, steps: int = 12) -> list:
    """Random integer matrix of determinant +-1 on the n+1 variables.

    Built from elementary row operations, so it is always invertible;
    used to exercise invariance of the summand count under coordinate
    changes.
    """
    check_seed(seed)
    rng = random.Random(seed)
    size = n + 1
    mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-1, 1])
        for col in range(size):
            mat[i][col] += c * mat[j][col]
    return mat


class TupleTangentVector:
    """A tangent direction at a generator tuple: n+1 forms modulo span(W).

    The stored parts are the canonical representatives, each reduced
    against the echelon basis of span(W), so a direction is zero exactly
    when every stored part is the zero form.
    """

    __slots__ = ("w", "parts")

    def __init__(self, w: GeneratorTuple, parts):
        parts = tuple(parts)
        if len(parts) != w.n + 1:
            raise ValueError(f"expected {w.n + 1} parts, got {len(parts)}")
        span = w.span
        reduced = []
        for p in parts:
            if p.n != w.n or p.degree != w.d - 1:
                raise ValueError("tangent parts must be forms of the generator degree")
            reduced.append(
                HomogeneousPolynomial.from_coords(w.n, w.d - 1, span.reduce(p.coords()))
            )
        self.w = w
        self.parts = tuple(reduced)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __repr__(self):
        return f"TupleTangentVector({', '.join(str(p) for p in self.parts)})"


def _colon_mod_span(w: GeneratorTuple, k: int) -> tuple:
    """C / W for the colon piece C, in ``QuotientMap(w.span)`` coordinates.

    Returns (that quotient map, canonical basis): the kernel of the rows
    of ``colon_rows`` restricted to the nonpivot monomials of span(W). C
    contains W, so these columns see all of C / W, and rows stop being
    read once they have full rank, which leaves no kernel to miss.
    """
    gq = QuotientMap(w.span)
    place = {j: i for i, j in enumerate(gq.nonpivots)}
    full = colon_rows(annihilator(ideal_piece(w, k)), w.n, k, w.d - 1)
    rows = ({place[j]: x for j, x in r.items() if j in place} for r in full)
    return gq, kernel_builder(rows, gq.dim, gq.dim).rows


def _from_quotient_coords(qm: QuotientMap, n: int, degree: int, vec) -> HomogeneousPolynomial:
    monos = mono_basis(n, degree)
    return HomogeneousPolynomial(n, degree, {monos[j]: c for j, c in zip(qm.nonpivots, vec) if c})


def colon_piece(w: GeneratorTuple, k: int) -> Subspace:
    """C = ((I_W)_k : S_{k-(d-1)})_{d-1}, canonical basis, for k >= d-1.

    The forms c of the generator degree with c * u in (I_W)_k for every
    monomial u of degree k-(d-1). Contains span(W); equal to it at a
    complete intersection for d-1 <= k <= T.
    """
    gq, extra = _colon_mod_span(w, k)
    lifted = [_from_quotient_coords(gq, w.n, w.d - 1, v).coords() for v in extra]
    return span_vectors(w.n, w.d - 1, [*w.span.int_rows.values(), *lifted])


def containment_by_pieces(h: HomogeneousPolynomial, f: HomogeneousPolynomial, k: int) -> bool:
    """Whether (J_h)_k lies in (J_f)_k, decided on the two exact degree-k pieces.

    The route ``containment_implies_equal`` took before it read the
    answer off the span of the partials of f.
    """
    return contains(jacobian_piece(f, k), partials_piece(h, k))
