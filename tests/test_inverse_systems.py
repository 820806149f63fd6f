import random

import pytest

import milnoralg.inverse_systems as inverse_systems
from milnoralg import (
    GeneratorTuple,
    PreconditionError,
    apolar_piece,
    associated_form,
    dim_graded,
    fermat,
    full_subspace,
    hilbert_profile,
    ideal_piece,
    jacobian_gens,
    map_kernel,
    mono_basis,
    parse_poly,
    polar_apply,
    random_ci_tuple,
    random_smooth,
    socle_degree,
    span_polys,
    verify_inverse_system,
)
from milnoralg.ideals import generated_piece
from milnoralg.polynomials import HomogeneousPolynomial
from milnoralg.rationals import Q

from conftest import record_eliminations
from oracles import (
    catalecticant_matrix,
    orthogonal_complement,
    sympy_rank,
    verify_inverse_system_by_pieces,
)


def tuple_of(*texts, n=None):
    polys = [parse_poly(t, n=n) for t in texts]
    n = max(p.n for p in polys) if n is None else n
    polys = [parse_poly(t, n=n) for t in texts]
    return GeneratorTuple(n, polys[0].degree + 1, polys)


def test_associated_form_of_squares():
    # (I_W)_3 spans everything except x0*x1*x2; the diagonal pairing makes
    # the complement exactly that missing monomial
    w = tuple_of("x0^2", "x1^2", "x2^2")
    af = associated_form(w)
    assert af.form == parse_poly("x0*x1*x2")
    assert af.socle == 3 and af.d == 3 and af.n == 2


def test_associated_form_binary():
    w = tuple_of("x0^2", "x1^2")
    af = associated_form(w)
    assert af.form == parse_poly("x0*x1", n=1)
    assert af.socle == socle_degree(1, 3) == 2


def test_associated_form_rejects_non_ci():
    w = tuple_of("x0^2", "x0*x1", "x0*x2")
    with pytest.raises(PreconditionError):
        associated_form(w)


def test_associated_form_is_computed_once_per_span_from_the_exact_relay():
    from milnoralg.ideals import ci_walk_mod_p

    w = random_ci_tuple(2, 4, seed=12)
    same = GeneratorTuple(2, 4, w.span.basis_polynomials())
    cache = inverse_systems._associated_form
    cache.cache_clear()
    ci_walk_mod_p.cache_clear()
    form = associated_form(w)
    assert verify_inverse_system(w) and associated_form(same) is form
    assert (cache.cache_info().hits, cache.cache_info().misses) == (2, 1)
    # its complete-intersection test is the exact fill at T+1, not a walk mod p
    assert ci_walk_mod_p.cache_info().misses == 0


def test_associated_form_is_normalized():
    w = random_ci_tuple(2, 3, seed=5)
    af = associated_form(w)
    assert af.form.leading_coefficient() == 1


def test_apolar_piece_of_triple_product():
    b = parse_poly("x0*x1*x2")
    piece = apolar_piece(b, 2)
    # second-order operators killing x0*x1*x2 are exactly the squares
    assert piece == span_polys([parse_poly(t, n=2) for t in ("x0^2", "x1^2", "x2^2")])
    for g in piece.basis_polynomials():
        assert polar_apply(g, b).is_zero()


def test_apolar_piece_above_degree_is_everything():
    b = parse_poly("x0*x1*x2")
    assert apolar_piece(b, 4) == full_subspace(2, 4)


def test_apolar_piece_binary_square():
    b = parse_poly("x0^2", n=1)
    piece = apolar_piece(b, 1)
    assert piece == span_polys([parse_poly("x1", n=1)])


def test_catalecticant_matrix_against_polar_action():
    rng = random.Random(7)
    terms = {alpha: rng.randint(-3, 3) for alpha in mono_basis(2, 4)}
    b = HomogeneousPolynomial(2, 4, terms)
    mat = catalecticant_matrix(b, 2)
    src = mono_basis(2, 2)
    tgt = mono_basis(2, 2)
    for s, alpha in enumerate(src):
        image = polar_apply(HomogeneousPolynomial.monomial(2, alpha), b)
        coords = image.coords()
        for t in range(len(tgt)):
            assert mat[t][s] == coords[t]


def test_verify_inverse_system_squares():
    assert verify_inverse_system(tuple_of("x0^2", "x1^2", "x2^2"))


def test_verify_inverse_system_random_smooth_quartic():
    f = random_smooth(2, 4, seed=19)
    assert verify_inverse_system(jacobian_gens(f))


def test_inverse_system_equality_above_socle():
    # at degree T+1 both sides are all of S_{T+1}
    w = random_ci_tuple(2, 3, seed=2)
    top = socle_degree(2, 3)
    b = associated_form(w)
    assert apolar_piece(b, top + 1) == ideal_piece(w, top + 1) == full_subspace(2, top + 1)


def test_socle_is_one_dimensional_for_ci():
    for seed in range(4):
        w = random_ci_tuple(2, 3, seed=seed)
        top = socle_degree(2, 3)
        comp = orthogonal_complement(ideal_piece(w, top))
        assert comp.dim == 1


def test_associated_form_matches_the_apolar_complement(ci_pools):
    # F read off the one functional nu of the piece at T equals the RREF
    # line of its apolar complement, coefficient for coefficient
    tuples = [pool[i] for pool in ci_pools.values() for i in range(3)]
    tuples += [tuple_of("x0^2", "x1^2", "x2^2"), jacobian_gens(fermat(2, 4))]
    for w in tuples:
        top = socle_degree(w.n, w.d)
        comp = orthogonal_complement(ideal_piece(w, top))
        expected = HomogeneousPolynomial.from_coords(w.n, top, comp.rows[0])
        form = associated_form(w).form
        assert form == expected and form.terms == expected.terms
        assert all(type(c) is Q for c in form.terms.values())


def test_apolar_dimensions_match_profile():
    w = random_ci_tuple(2, 4, seed=3)
    b = associated_form(w)
    profile = hilbert_profile(2, 4)
    for k in range(3, profile.socle + 1):
        assert apolar_piece(b, k).dim == profile.b(k)


def test_apolar_pieces_form_an_ideal():
    # S_1 * (apolar piece at k) stays inside the apolar piece at k+1
    w = random_ci_tuple(2, 3, seed=9)
    b = associated_form(w)
    for k in range(0, socle_degree(2, 3) + 1):
        piece = apolar_piece(b, k)
        lifted = generated_piece(piece, k + 1)
        bigger = apolar_piece(b, k + 1)
        for row in lifted.rows:
            assert bigger.contains_vector(row)


def test_catalecticant_rank_matches_sympy():
    rng = random.Random(13)
    terms = {alpha: rng.randint(-2, 2) for alpha in mono_basis(2, 4)}
    b = HomogeneousPolynomial(2, 4, terms)
    for k in range(5):
        mat = catalecticant_matrix(b, k)
        rank = sympy_rank([[str(x) for x in row] for row in mat])
        assert apolar_piece(b, k).dim == dim_graded(2, k) - rank


def test_apolar_piece_matches_the_dense_catalecticant_kernel():
    # the integer rows are the catalecticant rows times D beta!, so the
    # canonical kernel is the same, for rational forms and associated forms
    rng = random.Random(29)
    forms = [
        HomogeneousPolynomial(
            n, m, {alpha: Q(rng.randint(-3, 3), rng.randint(1, 4)) for alpha in mono_basis(n, m)}
        )
        for n, m in ((1, 5), (2, 4), (3, 3))
    ]
    forms += [associated_form(random_ci_tuple(n, d, seed=4)).form for n, d in ((2, 4), (3, 3))]
    for b in forms:
        for k in range(b.degree + 1):
            assert apolar_piece(b, k) == map_kernel(catalecticant_matrix(b, k), b.n, k)


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (2, 5)])
def test_apolar_piece_is_one_elimination(n, d, monkeypatch):
    w = random_ci_tuple(n, d, seed=17 + n + d)
    form = associated_form(w).form
    top = form.degree
    pieces = {k: ideal_piece(w, k) for k in range(1, top)}
    widths = record_eliminations(monkeypatch)
    for k in range(1, top):
        widths.clear()
        assert apolar_piece(form, k) == pieces[k]
        # the catalecticant rows are eliminated once, on dim S_k columns, and the
        # kernel is read off that elimination with no second one
        assert widths == [dim_graded(n, k)], k


@pytest.mark.parametrize("n,d", [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4)])
def test_verify_inverse_system_matches_the_piece_by_piece_oracle(n, d):
    # T = 3 and 9 are odd, T = 4, 6 and 8 even, so both kinds of middle degree occur
    for seed in (1, 2):
        w = random_ci_tuple(n, d, seed=seed)
        assert verify_inverse_system(w) is verify_inverse_system_by_pieces(w) is True


@pytest.mark.parametrize(
    "w",
    [tuple_of("x0^2", "x1^2", "x2^2"), jacobian_gens(fermat(2, 4))],
    ids=["squares", "fermat-jacobian"],
)
def test_verify_inverse_system_matches_the_oracle_on_monomial_tuples(w):
    assert verify_inverse_system(w) is verify_inverse_system_by_pieces(w) is True


def test_verify_inverse_system_rejects_a_form_the_tuple_does_not_annihilate(monkeypatch):
    w = tuple_of("x0^2", "x1^2", "x2^2")
    other = associated_form(random_ci_tuple(2, 3, seed=5))
    assert other.form != parse_poly("x0*x1*x2")
    monkeypatch.setattr(inverse_systems, "associated_form", lambda _: other)
    assert not verify_inverse_system(w)


@pytest.mark.parametrize("n,d", [(2, 3), (2, 4)])  # T = 3 and T = 6
def test_verify_inverse_system_certifies_a_of_k_up_to_the_middle_degree(n, d, monkeypatch):
    asked, real = [], inverse_systems.certify_rank
    monkeypatch.setattr(
        inverse_systems, "certify_rank", lambda rows, bound: asked.append(bound) or real(rows, bound)
    )
    assert verify_inverse_system(random_ci_tuple(n, d, seed=3))
    profile = hilbert_profile(n, d)
    assert asked == [profile.a(k) for k in range(1, profile.socle // 2 + 1)]


def count_apolar_pieces(monkeypatch) -> list:
    """Record the degree of every apolar piece verify_inverse_system builds: its exact fallback."""
    calls, real = [], inverse_systems.apolar_piece
    monkeypatch.setattr(inverse_systems, "apolar_piece", lambda b, k: calls.append(k) or real(b, k))
    return calls


def test_verify_inverse_system_falls_back_to_exact_pieces(monkeypatch, patched_prime):
    # F = x0^2 x1^2 has the one weighted coefficient 2! 2! = 4, which vanishes
    # mod 2, so every catalecticant rank drops to 0 there
    w = tuple_of("x0^3", "x1^3")
    assert associated_form(w).form == parse_poly("x0^2*x1^2")
    calls = count_apolar_pieces(monkeypatch)
    assert verify_inverse_system(w)
    assert calls == []
    patched_prime(2)
    assert verify_inverse_system(w)
    assert sorted(calls) == [1, 2, 2, 3]  # k and T - k for k = 1, 2, T = 4


def test_verify_inverse_system_needs_no_fallback_on_seeded_pools(ci_pools, monkeypatch):
    calls = count_apolar_pieces(monkeypatch)
    for pool in ci_pools.values():
        for w in pool:
            assert verify_inverse_system(w)
    assert calls == []
