import itertools
import math
import random
from fractions import Fraction

import pytest

from meadows import factor
from meadows.checks import check_factor_reconstruction
from meadows.factor import (
    Factorization,
    FactorizationError,
    _monic_divmod,
    distinct_irreducible_factors,
    factor_rationals,
)
from meadows.generate import random_int_poly
from meadows.normalform import NF, Model, root
from meadows.poly import P_ONE, Poly, lagrange_interpolate

X = Poly((0, 1))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, by trial division."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def kronecker_factor(p: Poly) -> Poly | None:
    """Independent oracle: search for a nontrivial divisor by Kronecker's
    method (interpolate candidate factors through divisor tuples of the
    values at small integers)."""
    n = int(p.degree)
    if n <= 1:
        return None
    half = n // 2
    pts = [Fraction(k) for k in (0, 1, -1, 2, -2, 3, -3)][: half + 1]
    values = [p(a) for a in pts]
    for a, v in zip(pts, values):
        if v == 0:
            return Poly((-a, 1))
    signed = []
    for v in values:
        ds = divisors(abs(int(v)))
        signed.append([s * d for d in ds for s in (1, -1)])
    for combo in itertools.product(*signed):
        cand = lagrange_interpolate(list(zip(pts, map(Fraction, combo))))
        if cand.degree < 1 or any(c.denominator != 1 for c in cand.coeffs):
            continue
        q, r = divmod(p, cand)
        if r.is_zero() and not q.is_constant():
            return cand
    return None


def brute_force_irreducible(p: Poly) -> bool:
    return kronecker_factor(p) is None


def test_factor_example3_denominators():
    p = Poly((1, 0, 1)) * Poly((2, 0, 1))
    fact = factor_rationals(p)
    assert fact.unit == 1
    assert fact.factors == ((Poly((1, 0, 1)), 1), (Poly((2, 0, 1)), 1))


def test_factor_fifth_cyclotomic_like():
    p = Poly((1, 0, 0, 0, 0, 1))  # x^5 + 1
    fact = factor_rationals(p)
    quartic = Poly((1, -1, 1, -1, 1))
    assert fact.unit == 1
    assert fact.factors == ((Poly((1, 1)), 1), (quartic, 1))
    assert Poly((1, 1)) * quartic == p
    assert brute_force_irreducible(quartic)


def test_factor_with_rational_roots():
    fact = factor_rationals(Poly((0, 3, 1)))  # x^2 + 3x = x (x + 3)
    assert fact.unit == 1
    assert fact.factors == ((X, 1), (Poly((3, 1)), 1))


def test_factor_pulls_out_content_and_sign():
    fact = factor_rationals(Poly((Fraction(-3, 2), Fraction(-3, 2))))
    assert fact.unit == Fraction(-3, 2)
    assert fact.factors == ((Poly((1, 1)), 1),)
    assert fact.product() == Poly((Fraction(-3, 2), Fraction(-3, 2)))


def test_factor_multiplicities():
    p = Poly((1, 1)) ** 3 * Poly((-2, 1)) ** 2 * Poly((1, 0, 1))
    fact = factor_rationals(p)
    assert fact.factors == (
        (Poly((-2, 1)), 2),
        (Poly((1, 1)), 3),
        (Poly((1, 0, 1)), 1),
    )
    assert fact.product() == p


def test_factor_multiset_recovery_of_known_irreducibles():
    # products of verified irreducibles come back exactly
    rng = random.Random(20)
    pool = [
        Poly((1, 1)),
        Poly((-2, 1)),
        Poly((0, 1)),
        Poly((1, 0, 1)),
        Poly((2, 0, 1)),
        Poly((-2, 0, 1)),
        Poly((-7, 0, 3)),
        Poly((1, 1, 1)),
        Poly((-1, 3)),
        Poly((1, -1, 0, 1)),  # no rational root, cubic -> irreducible
    ]
    for p in pool:
        if p.degree <= 2:
            assert brute_force_irreducible(p)
    for _ in range(40):
        chosen = {}
        for _ in range(rng.randint(1, 4)):
            f = rng.choice(pool)
            chosen[f] = chosen.get(f, 0) + rng.randint(1, 2)
        unit = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        p = Poly.constant(unit)
        for f, m in chosen.items():
            p = p * f ** m
        fact = factor_rationals(p)
        assert fact.unit == unit
        assert dict(fact.factors) == chosen


def test_factor_is_deterministically_ordered():
    p = Poly((1, 0, 1)) * Poly((2, 0, 1)) * X * Poly((3, 1))
    first = factor_rationals(p)
    second = factor_rationals(p)
    assert first == second
    degrees = [int(f.degree) for f, _ in first.factors]
    assert degrees == sorted(degrees)


def test_factor_higher_degree_irreducible():
    # x^4 + 1 is irreducible over Q though reducible mod every prime
    fact = factor_rationals(Poly((1, 0, 0, 0, 1)))
    assert fact.factors == ((Poly((1, 0, 0, 0, 1)), 1),)


def test_factor_non_monic_irreducible_quadratics():
    p = Poly((-7, 0, 3)) * Poly((5, 3, 2))
    fact = factor_rationals(p)
    assert fact.factors == ((Poly((-7, 0, 3)), 1), (Poly((5, 3, 2)), 1))


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor_rationals(Poly())


def test_factorization_reconstruction_property():
    assert check_factor_reconstruction(seed=21, rounds=200).ok


def test_random_factors_are_irreducible_by_brute_force():
    rng = random.Random(22)
    checked = 0
    while checked < 30:
        p = random_int_poly(rng, 4)
        if p.is_constant():
            continue
        for f, _ in factor_rationals(p).factors:
            if f.degree <= 4:
                assert brute_force_irreducible(f), f
        checked += 1


def test_roots_from_factors_matches_linear_factors():
    p = Poly((-5, 7, 6)) * Poly((1, 0, 1))
    linear = tuple(r for r in distinct_irreducible_factors(p) if r.degree == 1)
    assert linear == (Poly((-1, 2)), Poly((5, 3)))
    assert {root(r) for r in linear} == {Fraction(1, 2), Fraction(-5, 3)}
    assert NF(Model.RAT, P_ONE, p).support == Poly((-1, 2)) * Poly((5, 3))


def test_distinct_factors_ignore_multiplicity():
    p = Poly((1, 1)) ** 4
    assert distinct_irreducible_factors(p) == (Poly((1, 1)),)


def test_factorization_dataclass_product_of_unit():
    fact = Factorization(Fraction(7), ())
    assert fact.product() == Poly.constant(7)


def test_monic_division_rejects_non_monic_divisor():
    assert _monic_divmod([2, 3, 1], [1, 1]) == ([2, 1], [])
    with pytest.raises(FactorizationError, match="not monic"):
        _monic_divmod([2, 3, 1], [1, 2])
    with pytest.raises(FactorizationError):
        _monic_divmod([2, 3, 1], [])


def _swinnerton_dyer(primes):
    """Minimal polynomial of sum(+-sqrt(p)): f(x+t)*f(x-t) = A^2 - p*B^2
    where f(x+t) = A + t*B and t^2 = p."""
    f = X
    for p in primes:
        a = b = Poly()
        for c in reversed(f.coeffs):
            a, b = a * X + b.scale(p) + Poly.constant(c), a + b * X
        f = a * a - (b * b).scale(p)
    return f


def test_recombination_tests_prune_the_subset_search(monkeypatch, cold_caches):
    # Degree-32 Swinnerton-Dyer: irreducible, with 16 modular factors, so
    # 39202 subsets; the constant-term and trace tests leave few to divide.
    # Only recombination divides over Z (m is None) in the factor module.
    divisions = []
    zx_divmod = factor.zx_divmod

    def counted(a, b, m=None):
        if m is None:
            divisions.append(None)
        return zx_divmod(a, b, m)

    monkeypatch.setattr(factor, "zx_divmod", counted)
    sd32 = _swinnerton_dyer((2, 3, 5, 7, 11))
    assert factor_rationals(sd32).factors == ((sd32, 1),)
    assert 0 < len(divisions) <= 200


def _pfsum_locus(rng):
    """Product of 22 primitive linear factors b*x - a, one per distinct
    pole a/b with |a| <= 40 and 1 <= b <= 6: a partial-fraction sum's
    denominator, primitive by Gauss's lemma and far from monic."""
    poles = set()
    while len(poles) < 22:
        poles.add(Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
    p = P_ONE
    for a in poles:
        p = p * Poly((-a.numerator, a.denominator))
    return p


def test_lift_modulus_grows_with_the_lead_not_its_powers(monkeypatch, cold_caches):
    # The lift stops past the Landau-Mignotte bound times the lead; a lift
    # of the monic lead^(n-1)*f(x/lead) would need a modulus of about
    # n*log2(lead) bits more.
    moduli = []
    lift = factor._hensel_lift_tree

    def spied(f, mods, p, modulus):
        moduli.append(modulus)
        return lift(f, mods, p, modulus)

    monkeypatch.setattr(factor, "_hensel_lift_tree", spied)
    p = _pfsum_locus(random.Random(24))
    assert p.primitive() == p and p.lead > 10**6
    assert len(distinct_irreducible_factors(p)) == 22
    assert moduli and max(moduli).bit_length() <= 256


def _eisenstein(rng, degree, lead):
    """Dense integer polynomial with a lead prime to 3, Eisenstein at 3 and
    so irreducible."""
    coeffs = [3 * rng.choice((-2, -1, 1, 2))]
    coeffs += [3 * rng.randint(-3, 3) for _ in range(degree - 1)]
    return Poly(coeffs + [lead])


def _large_lead(rng, degree):
    """Random integer polynomial with small coefficients under a lead of up
    to 2^30."""
    return Poly([rng.randint(-99, 99) for _ in range(degree)] + [rng.randint(2, 2**30)])


def _factor_corpus():
    rng = random.Random(23)
    sd16 = _swinnerton_dyer((2, 3, 5, 7))
    corpus = [sd16, sd16 * Poly((1, 0, 1))]
    for _ in range(40):
        p = Poly.constant(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(1, 4)):
            p = p * random_int_poly(rng, 5) ** rng.randint(1, 2)
        if not p.is_constant():
            corpus.append(p)
    # Non-monic input: leads up to 2^30, partial-fraction denominators,
    # degree-24 loci with lead 8 and products of two non-monic irreducibles.
    for _ in range(4):
        corpus.append(_large_lead(rng, rng.randint(1, 6)) * _large_lead(rng, rng.randint(1, 6)))
        corpus.append(_pfsum_locus(rng))
        corpus.append(_eisenstein(rng, 24, 8))
        corpus.append(_eisenstein(rng, rng.randint(2, 8), rng.choice((2, 4, 5, 7, 8)))
                      * _eisenstein(rng, rng.randint(2, 8), rng.choice((2, 4, 5, 7, 8))))
    return corpus


def test_factorizations_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p in _factor_corpus():
        unit, factors = sympy.factor_list(
            sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs)),
            x)
        expected = {}
        for f, mult in factors:
            cs = [int(c) for c in reversed(sympy.Poly(f, x).all_coeffs())]
            q = Poly(cs)
            unit *= sympy.sign(q.lead) ** mult
            expected[q.primitive()] = mult
        fact = factor_rationals(p)
        assert dict(fact.factors) == expected
        assert fact.unit == Fraction(str(unit))
