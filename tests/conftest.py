import pytest

from meadows import factor, normalform, poly


@pytest.fixture
def cold_caches():
    """Empty the factor cache, the quotient-ring inverse cache and the
    cache of squarefree parts, so a test that counts cache misses or
    kernel calls sees the same counts whatever ran before it."""
    caches = (factor._squarefree_factors_cached, normalform._bezout_inverse,
              poly.squarefree_part)
    for cache in caches:
        cache.cache_clear()
    return caches
