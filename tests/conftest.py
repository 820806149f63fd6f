from unittest import mock

import pytest

import milnoralg.ideals as ideals
import milnoralg.linalg as linalg
import milnoralg.reconstruction as reconstruction
from milnoralg import random_ci_tuple, random_smooth

# The sizes every pool-based check runs over.
PAIRS = [(1, 4), (2, 3), (2, 4), (2, 5), (3, 3)]

# Every cache whose value is read off arithmetic mod linalg.PRIME. Each is
# keyed on its input alone, so a test that patches the prime must empty them,
# or it reads an answer found at the old prime, and no fallback runs.
PRIME_CACHES = (
    ideals.ci_walk_mod_p,
    ideals.is_smooth,
    reconstruction.fiber_is_line,
    reconstruction._reference_fault,
)


def clear_prime_caches():
    for cache in PRIME_CACHES:
        cache.cache_clear()


def recorded_walk(span, relay=None) -> tuple:
    """(verdict, {k: stored rows}) of an uncached ``ideals.ci_walk_mod_p``.

    Each degree is read off ``relay_step``, or off ``relay`` standing in for
    it: the rows it was handed, one degree below, and the rows its builder
    holds when it returns.
    """
    kept, real = {}, relay or ideals.relay_step

    def step(builder, below, n, k, bound):
        kept[k - 1] = below
        out = real(builder, below, n, k, bound)
        kept[k] = builder.int_rows
        return out

    with mock.patch.object(ideals, "relay_step", step):
        return ideals.ci_walk_mod_p.__wrapped__(span), kept


def record_eliminations(monkeypatch, scope=()) -> list:
    """Record the width of every exact elimination: each ``SpanBuilder`` that rows go into.

    A builder counts once, at its first ``insert``, by its ``length``; a
    builder filled without ``insert``, as ``kernel_builder`` fills its
    result, is no elimination. With ``scope`` a sequence of (module, name)
    pairs, each function there is wrapped, and only builders first filled
    while one of them runs are recorded; with none, every builder is.
    """
    widths, seen, active = [], {}, [not scope]
    real = linalg.SpanBuilder.insert

    def insert(self, vec):
        if active[-1] and id(self) not in seen:
            seen[id(self)] = self  # held, so no later builder reuses the id
            widths.append(self.length)
        return real(self, vec)

    def scoped(function):
        def run(*args, **kwargs):
            active.append(True)
            try:
                return function(*args, **kwargs)
            finally:
                active.pop()

        return run

    monkeypatch.setattr(linalg.SpanBuilder, "insert", insert)
    for module, name in scope:
        monkeypatch.setattr(module, name, scoped(getattr(module, name)))
    return widths


@pytest.fixture
def patched_prime(monkeypatch):
    """``patched_prime(p)`` sets ``linalg.PRIME`` to p for this test, with fresh caches.

    The caches of ``PRIME_CACHES`` are emptied at each call and when the
    test ends, so no answer found at one prime is read at another.
    """

    def patch(p: int):
        monkeypatch.setattr(linalg, "PRIME", p)
        clear_prime_caches()

    clear_prime_caches()
    yield patch
    clear_prime_caches()


@pytest.fixture(scope="session")
def smooth_pools():
    """20 seeded random smooth forms per (n, d)."""
    return {
        (n, d): [random_smooth(n, d, seed=9_000 + 37 * i + 1_000 * n + 10 * d) for i in range(20)]
        for n, d in PAIRS
    }


@pytest.fixture(scope="session")
def nonst_pools():
    """20 seeded random smooth non-direct-sum forms per (n, d)."""
    return {
        (n, d): [
            random_smooth(n, d, seed=70_000 + 13 * i + 1_000 * n + 10 * d, require_non_st=True)
            for i in range(20)
        ]
        for n, d in PAIRS
    }


@pytest.fixture(scope="session")
def ci_pools():
    """10 seeded random complete-intersection tuples per (n, d)."""
    return {
        (n, d): [random_ci_tuple(n, d, seed=30_000 + 11 * i + 1_000 * n + 10 * d) for i in range(10)]
        for n, d in PAIRS
    }
