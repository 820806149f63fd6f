"""Monomial combinatorics for the graded pieces of a polynomial ring.

A monomial in the n+1 variables x0..xn is an exponent tuple of length
n+1. The degree-k piece S_k has the finite basis ``mono_basis(n, k)``,
listed in graded-lexicographic order with x0 largest, i.e. exponent
tuples in decreasing lexicographic order within the fixed degree. Every
coordinate vector in this package refers to that ordering, so the tables
built here (products, derivatives, factorial weights) are the shared
index arithmetic for all linear-algebra layers.
"""

from __future__ import annotations

import math
from functools import lru_cache

Exponent = tuple  # tuple[int, ...], one entry per variable


def grlex_key(alpha: Exponent):
    """Sort key for the global term order: degree first, then lexicographic.

    Larger keys are earlier terms; ``mono_basis`` lists keys descending.
    """
    return (sum(alpha), alpha)


def dim_graded(n: int, k: int) -> int:
    """Dimension of the space of degree-k forms in n+1 variables."""
    if n < 0 or k < 0:
        raise ValueError(f"need n >= 0 and k >= 0, got n={n}, k={k}")
    return math.comb(n + k, n)


@lru_cache(maxsize=None)
def mono_basis(n: int, k: int) -> tuple:
    """All degree-k exponent tuples over x0..xn in graded-lex order.

    Returns C(n+k, n) tuples, lexicographically decreasing, e.g.
    mono_basis(1, 2) = ((2,0), (1,1), (0,2)).
    """
    if n < 0 or k < 0:
        raise ValueError(f"need n >= 0 and k >= 0, got n={n}, k={k}")

    def descend(nvars: int, deg: int):
        if nvars == 1:
            yield (deg,)
            return
        for e in range(deg, -1, -1):
            for rest in descend(nvars - 1, deg - e):
                yield (e,) + rest

    basis = tuple(descend(n + 1, k))
    assert len(basis) == dim_graded(n, k)
    return basis


@lru_cache(maxsize=None)
def mono_index(n: int, k: int) -> dict:
    """Inverse of ``mono_basis``: exponent tuple -> basis position."""
    return {alpha: i for i, alpha in enumerate(mono_basis(n, k))}


@lru_cache(maxsize=None)
def factorial_weights(n: int, k: int) -> tuple:
    """alpha! = prod_i alpha_i! for each basis monomial of S_k.

    These are the diagonal Gram entries of the apolar inner product on
    S_k, all positive, so the pairing is nondegenerate in every degree.
    """
    return tuple(
        math.prod(math.factorial(e) for e in alpha) for alpha in mono_basis(n, k)
    )


@lru_cache(maxsize=None)
def product_index_table(n: int, ka: int, kb: int) -> tuple:
    """table[i][j] = basis position in S_{ka+kb} of basis_ka[i] * basis_kb[j].

    Built block by block, with no monomial formed: grlex lists S_k by the
    exponent e0 of x0, largest first, and within each e0 by the order of
    the remaining n variables in degree k - e0. So the product of a block
    a0 of S_ka and a block b0 of S_kb lands in the block e0 = a0 + b0 of
    S_{ka+kb}, which starts after the C(n + ka + kb - e0 - 1, n) monomials
    of larger e0, at the place the table of n-1 variables at
    (ka - a0, kb - b0) gives. Those tables are cached and shared, and the
    recursion is n+1 calls deep, as in ``mono_basis``.
    """
    if n == 0:
        return ((0,),)
    rows = []
    for a0 in range(ka, -1, -1):
        blocks = [
            (math.comb(n + ka + kb - a0 - b0 - 1, n), product_index_table(n - 1, ka - a0, kb - b0))
            for b0 in range(kb, -1, -1)
        ]
        for i in range(dim_graded(n - 1, ka - a0)):
            rows.append(tuple(start + t for start, sub in blocks for t in sub[i]))
    return tuple(rows)


@lru_cache(maxsize=None)
def derivative_table(n: int, k: int) -> tuple:
    """Derivative index arithmetic on the monomials of S_k, k >= 1.

    Entry [i][j] describes d/dx_i applied to mono_basis(n, k)[j]: either
    None (the derivative vanishes) or a pair (index in mono_basis(n, k-1),
    integer factor alpha_i).
    """
    if k < 1:
        raise ValueError("derivatives need degree >= 1")
    target = mono_index(n, k - 1)
    table = []
    for i in range(n + 1):
        row = []
        for alpha in mono_basis(n, k):
            e = alpha[i]
            if e == 0:
                row.append(None)
            else:
                beta = alpha[:i] + (e - 1,) + alpha[i + 1:]
                row.append((target[beta], e))
        table.append(tuple(row))
    return tuple(table)
