"""Pieces grown one degree at a time, against the direct product construction.

Every comparison is byte for byte: the same pivots and the same rows,
entry types included, as the RREF span of all monomial multiples at once.
"""

import inspect
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
import sympy

from milnoralg import (
    GeneratorTuple,
    dim_graded,
    full_subspace,
    hilbert_profile,
    ideal_piece,
    is_complete_intersection,
    mono_basis,
    parse_poly,
    partial,
    partials_piece,
    random_ci_tuple,
    socle_degree,
    span_vectors,
    zero_subspace,
)
from milnoralg import ideals
from milnoralg.ideals import _relay, generated_piece, generic_piece_dim
from milnoralg.monomials import product_index_table
from milnoralg.polynomials import HomogeneousPolynomial

from conftest import PAIRS
from oracles import direct_product_piece, relay_rows

t = sympy.Symbol("t")


def assert_same_bytes(got, want):
    assert got.ambient == want.ambient
    assert got.pivots == want.pivots
    assert repr(got.rows) == repr(want.rows)


def common_zero_tuple(n: int, d: int, seed: int) -> GeneratorTuple:
    """Random degree d-1 forms with no x_n^(d-1) term: all vanish at (0,..,0,1)."""
    rng = random.Random(seed)
    monos = mono_basis(n, d - 1)[:-1]
    gens = [
        HomogeneousPolynomial(n, d - 1, {m: rng.randint(-3, 3) for m in monos})
        for _ in range(n + 1)
    ]
    return GeneratorTuple(n, d, gens)


@pytest.mark.parametrize("n,d", PAIRS)
def test_ideal_pieces_match_direct_products(n, d):
    top = socle_degree(n, d)
    ci = random_ci_tuple(n, d, seed=500 + 10 * n + d)
    other = common_zero_tuple(n, d, seed=600 + 10 * n + d)
    assert is_complete_intersection(ci)
    assert not is_complete_intersection(other)
    for w in (ci, other):
        for k in range(top + 4):
            want = direct_product_piece(n, d - 1, k, w.span.rows)
            assert_same_bytes(ideal_piece(w, k), want)
    assert ideal_piece(ci, top + 2) is full_subspace(n, top + 2)  # shared, no elimination
    assert not ideal_piece(other, top + 3).is_full()


def random_subspace(n: int, k: int, count: int, seed: int):
    """Rows with about half their entries zero and denominators up to 10^12."""
    rng = random.Random(seed)
    size = dim_graded(n, k)
    rows = [
        [
            Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
            if rng.random() < 0.5 else 0
            for _ in range(size)
        ]
        for _ in range(count)
    ]
    return span_vectors(n, k, rows)


@pytest.mark.parametrize("n,d", PAIRS)
def test_relay_order_does_not_change_the_rows(n, d):
    """Leading-column order gives the rows of pivot-major and of shuffled insertion.

    From d-1 to T+1, for a complete intersection (full at T+1) and a tuple
    with a common zero (never full).
    """
    top = socle_degree(n, d) + 1
    ci = random_ci_tuple(n, d, seed=700 + 10 * n + d)
    other = common_zero_tuple(n, d, seed=800 + 10 * n + d)
    full = {i: {i: 1} for i in range(dim_graded(n, top))}
    for w in (ci, other):
        _relay.cache_clear()
        orders = [relay_rows(w.span, top)]
        orders += [relay_rows(w.span, top, random.Random(f"relay:{n}:{d}:{s}")) for s in range(3)]
        for degrees in zip(*orders):
            k = degrees[0][0]
            builder = _relay(w.span, k)
            got = full if builder is None else builder.int_rows
            for _, rows in degrees:
                assert rows == got, (k, w)
            assert (builder is None) == (w is ci and k == top)


@pytest.mark.parametrize(
    "e",
    [
        zero_subspace(2, 2),
        full_subspace(2, 2),
        random_subspace(1, 3, 1, seed=1),
        random_subspace(2, 2, 2, seed=2),
        random_subspace(2, 3, 4, seed=3),
        random_subspace(3, 1, 2, seed=4),
    ],
    ids=["zero", "full", "n1-line", "n2-plane", "n2-k3", "n3-lines"],
)
def test_lift_of_any_subspace_matches_direct_products(e):
    for m in range(e.k, e.k + 5):
        assert_same_bytes(generated_piece(e, m), direct_product_piece(e.n, e.k, m, e.rows))


@pytest.mark.parametrize(
    "text,n",
    [
        ("x0^3", 2),  # one nonzero partial
        ("x0^3 + 3*x0^2*x1 + 3*x0*x1^2 + x1^3", 2),  # (x0+x1)^3: two equal partials
        ("x0^4 - 2*x0^2*x1^2 + x1^4", 2),  # cone in x2: a zero partial
        ("x0 + 2*x1", 1),  # constant partials
    ],
)
def test_partials_piece_of_degenerate_forms(text, n):
    f = parse_poly(text, n=n)
    vectors = [partial(f, i).coords() for i in range(n + 1)]
    for k in range(f.degree + 4):
        assert_same_bytes(partials_piece(f, k), direct_product_piece(n, f.degree - 1, k, vectors))


def test_partials_piece_of_zero_form():
    zero = HomogeneousPolynomial(2, 3, {})
    for k in range(6):
        assert partials_piece(zero, k) == zero_subspace(2, k)


def test_far_degrees_need_no_deep_recursion():
    w = random_ci_tuple(1, 3, seed=7)
    e = ideal_piece(w, 2)
    far = socle_degree(1, 3) + 500
    limit = sys.getrecursionlimit()
    # 100 frames of headroom: far fewer than the 500 degrees a recursion would nest
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        piece, lifted = ideal_piece(w, far), generated_piece(e, e.k + 500)
    finally:
        sys.setrecursionlimit(limit)
    assert piece == full_subspace(1, far)
    assert lifted == full_subspace(1, e.k + 500)


def test_walk_longer_than_the_cache_holds():
    e = span_vectors(1, 2, [[1, 0, 0]])  # x0^2: its ideal never fills a degree
    for _ in range(2):  # the second walk finds its low degrees evicted
        assert_same_bytes(generated_piece(e, 42), direct_product_piece(1, 2, 42, e.rows))


@lru_cache(maxsize=None)
def inverse_power_series(n: int, order: int) -> sympy.Poly:
    """sympy's series of 1 / (1 - t)^(n+1) below t^order, as a polynomial in t."""
    return sympy.Poly(sympy.series((1 - t) ** -(n + 1), t, 0, order).removeO(), t)


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 5) for d in range(2, 8)])
def test_generic_bound_is_the_complete_intersection_profile(n, d):
    """Both formulas against sympy's coefficients of (1 - t^j)^r / (1 - t)^(n+1), j = d-1."""
    order = socle_degree(n, d) + 4
    profile = hilbert_profile(n, d)
    for r in range(1, n + 2):
        series = sympy.Poly((1 - t ** (d - 1)) ** r, t) * inverse_power_series(n, order)
        for k in range(order):
            coefficient = int(series.coeff_monomial(t**k))
            assert generic_piece_dim(n, d - 1, r, k) == comb(n + k, n) - coefficient, (r, k)
            if r == n + 1:
                assert profile.a(k) == coefficient, k


@pytest.mark.parametrize("n,d", PAIRS)
def test_relay_never_exceeds_the_generic_bound(n, d):
    """Random spans of every r <= n+1 reach the bound; a common zero stays below it at T+1."""
    fill = socle_degree(n, d) + 1
    rng = random.Random(f"bound:{n}:{d}")
    size = dim_graded(n, d - 1)
    for r in range(1, n + 2):
        span = span_vectors(n, d - 1, [[rng.randint(-3, 3) for _ in range(size)] for _ in range(r)])
        assert span.dim == r
        for k in range(d - 1, fill + 2):
            piece = generated_piece(span, k)
            assert_same_bytes(piece, direct_product_piece(n, d - 1, k, span.rows))
            assert piece.dim == generic_piece_dim(n, d - 1, r, k), (r, k)
    other = common_zero_tuple(n, d, seed=900 + 10 * n + d)
    for k in range(d - 1, fill + 2):
        assert ideal_piece(other, k).dim <= generic_piece_dim(n, d - 1, n + 1, k)
    assert ideal_piece(other, fill).dim < generic_piece_dim(n, d - 1, n + 1, fill)


@pytest.mark.parametrize(
    "text,n",
    [("x0^3", 2), ("x0^3 + 3*x0^2*x1 + 3*x0*x1^2 + x1^3", 2), ("x0^4 - 2*x0^2*x1^2 + x1^4", 2)],
)
def test_degenerate_partials_stay_within_the_bound(text, n):
    f = parse_poly(text, n=n)
    r = span_vectors(n, f.degree - 1, [partial(f, i).coords() for i in range(n + 1)]).dim
    for k in range(f.degree + 4):
        assert partials_piece(f, k).dim <= generic_piece_dim(n, f.degree - 1, r, k)


def recorded_walk(monkeypatch, w, top):
    """Walk ideal_piece(w, k) up to ``top`` from a cold cache.

    Returns, per ambient dimension (so per degree), the (dim before,
    leading column) of every insert the relay made.
    """
    events = {}

    class RecordingBuilder(ideals.SpanBuilder):
        def insert(self, vec):
            events.setdefault(self.length, []).append((self.dim, min(vec)))
            return super().insert(vec)

    _relay.cache_clear()
    monkeypatch.setattr(ideals, "SpanBuilder", RecordingBuilder)
    ideal_piece(w, top)
    monkeypatch.undo()
    _relay.cache_clear()
    return events


def product_leads(rows: dict, n: int, k: int) -> list:
    """Leading column of every product x_i * r over the rows of degree k-1."""
    return [tu[p] for p in rows for tu in product_index_table(n, 1, k - 1)]


@pytest.mark.parametrize("n,d", [(3, 4), (2, 5)])
def test_complete_intersection_skips_what_the_bound_makes_redundant(monkeypatch, n, d):
    """No product repeating a lead is inserted once dim + pending leads reaches the bound."""
    top = socle_degree(n, d) + 1
    w = random_ci_tuple(n, d, seed=1)
    events = recorded_walk(monkeypatch, w, top)
    for below, rows in relay_rows(w.span, top - 1):
        k = below + 1
        leads = product_leads(rows, n, k)
        todo, seen, bound = len(set(leads)), set(), generic_piece_dim(n, d - 1, n + 1, k)
        got = events[dim_graded(n, k)]
        assert [lead for _, lead in got] == sorted((lead for _, lead in got), reverse=True)
        for dim, lead in got:
            if lead in seen:
                assert dim + todo < bound, (k, dim, lead)
            else:
                seen.add(lead)
                todo -= 1
    assert len(events[dim_graded(n, top)]) < dim_graded(n, top)


@pytest.mark.parametrize("n,d", [(3, 4), (2, 5)])
def test_common_zero_inserts_every_product_at_the_fill_degree(monkeypatch, n, d):
    top = socle_degree(n, d) + 1
    w = common_zero_tuple(n, d, seed=600 + 10 * n + d)
    events = recorded_walk(monkeypatch, w, top)
    below = ideal_piece(w, top - 1)
    assert len(events[dim_graded(n, top)]) == (n + 1) * below.dim
