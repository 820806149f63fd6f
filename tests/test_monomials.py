import math

import milnoralg.monomials as monomials
from milnoralg import dim_graded, factorial_weights, grlex_key, mono_basis, mono_index
from milnoralg.monomials import derivative_table, product_index_table

from oracles import enum_monomials, product_index_table_by_lookup


def test_basis_examples():
    assert mono_basis(1, 2) == ((2, 0), (1, 1), (0, 2))
    assert mono_basis(2, 0) == ((0, 0, 0),)
    assert len(mono_basis(2, 3)) == 10  # C(5, 2)


def test_basis_matches_brute_force_enumeration():
    for n in range(4):
        for k in range(6):
            basis = mono_basis(n, k)
            assert set(basis) == set(enum_monomials(n + 1, k))
            assert len(basis) == math.comb(n + k, n) == dim_graded(n, k)
            # strictly descending in the global order
            keys = [grlex_key(a) for a in basis]
            assert keys == sorted(keys, reverse=True)


def test_mono_index_inverts_basis():
    idx = mono_index(2, 4)
    for i, alpha in enumerate(mono_basis(2, 4)):
        assert idx[alpha] == i


def test_factorial_weights():
    weights = factorial_weights(1, 2)
    assert weights == (2, 1, 2)  # x0^2, x0*x1, x1^2
    for alpha, w in zip(mono_basis(2, 3), factorial_weights(2, 3)):
        assert w == math.prod(math.factorial(e) for e in alpha)


def test_product_table_is_exponent_addition():
    table = product_index_table(2, 1, 2)
    a_basis = mono_basis(2, 1)
    b_basis = mono_basis(2, 2)
    target = mono_index(2, 3)
    for i, a in enumerate(a_basis):
        for j, b in enumerate(b_basis):
            summed = tuple(x + y for x, y in zip(a, b))
            assert table[i][j] == target[summed]


def test_product_table_by_blocks_equals_the_lookup_table():
    for n in range(5):
        for ka in range(7):
            for kb in range(7):
                table = product_index_table(n, ka, kb)
                assert repr(table) == repr(product_index_table_by_lookup(n, ka, kb))


def test_product_table_recursion_is_n_plus_one_calls_deep(monkeypatch):
    # mono_basis nests one generator per variable, n+1 in all; the block
    # recursion must go no deeper
    real, depth, deepest = monomials.product_index_table, [0], [0]

    def counted(n, ka, kb):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return real(n, ka, kb)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(monomials, "product_index_table", counted)
    for n in range(6):
        real.cache_clear()
        deepest[0] = 0
        counted(n, 3, 2)
        assert deepest[0] == n + 1


def test_derivative_table_matches_calculus():
    table = derivative_table(2, 3)
    target = mono_index(2, 2)
    for i in range(3):
        for j, alpha in enumerate(mono_basis(2, 3)):
            entry = table[i][j]
            if alpha[i] == 0:
                assert entry is None
            else:
                beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                assert entry == (target[beta], alpha[i])
