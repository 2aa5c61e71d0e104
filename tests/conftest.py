import pytest

from meadows import factor, normalform, poly


@pytest.fixture
def cold_caches():
    """Empty the factor cache, the quotient-ring inverse cache, the
    cache of squarefree parts and that of rational roots, so a test that
    counts cache misses or kernel calls sees the same counts whatever ran
    before it."""
    caches = (factor._squarefree_factors_cached, normalform._bezout_inverse,
              poly.squarefree_part, poly.rational_roots)
    for cache in caches:
        cache.cache_clear()
    return caches
