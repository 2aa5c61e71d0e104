import pytest

from meadows import factor, normalform


@pytest.fixture
def cold_caches():
    """Empty the factor caches and the quotient-ring inverse cache, so a
    test that counts cache misses or kernel calls sees the same counts
    whatever ran before it."""
    caches = (factor._distinct_factors_of_primitive, factor._squarefree_factors_cached,
              factor._zassenhaus_monic, normalform._bezout_inverse)
    for cache in caches:
        cache.cache_clear()
    return caches
