import itertools
import math
import random
import sys
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
from meadows.poly import (P_ONE, Poly, lagrange_interpolate, zx_divmod, zx_gcd, zx_mul,
                          zx_primitive, zx_sub, zx_trim)

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


def _shifted(p: Poly, c: int) -> Poly:
    """p(x + c), by Horner's rule."""
    out = Poly()
    for a in reversed(p.coeffs):
        out = out * Poly((c, 1)) + Poly.constant(a)
    return out


def test_factorizations_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(29)
    loci = [_eisenstein(rng, 24, lead) for lead in (1, 5, 8)]
    loci.append(_shifted(_swinnerton_dyer((2, 3, 5, 7)), 3))
    for p in _factor_corpus() + loci:
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


# ---------------------------------------------------------------------------
# Distinct-degree factoring by the Frobenius matrix


def _modp_factor_powering(f: list[int], p: int) -> list[list[int]]:
    """Oracle for ``factor._modp_factor``: distinct-degree factoring that
    raises h to the p-th power modulo v by square and multiply at every
    step, with the same equal-degree splitting."""
    x = [0, 1]
    factors: list[list[int]] = []
    v = list(f)
    h = x
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = factor._pz_powmod(h, p, v, p)
        g = zx_gcd(zx_sub(h, x, p), v, p)
        if len(g) - 1 > 0:
            factors.extend(factor._equal_degree_split(g, d, p))
            v = zx_divmod(v, g, p)[0]
            h = zx_divmod(h, v, p)[1]
    if len(v) - 1 > 0:
        factors.append(v)
    return factors


ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def _squarefree_reduction(f: list[int], p: int) -> list[int] | None:
    """f modulo p made monic, or None where p divides the lead or the
    reduction is not squarefree."""
    if f[-1] % p == 0:
        return None
    fp = zx_primitive([c % p for c in f], p)
    deriv = zx_trim([i * c % p for i, c in enumerate(fp) if i])
    return fp if len(zx_gcd(fp, deriv, p)) == 1 else None


def test_frobenius_ddf_matches_the_powering_oracle():
    # Random inputs of every degree 1-40, each at three of the odd primes
    # to 61 in turn, cover p < n and p > n; Eisenstein and Swinnerton-Dyer
    # reductions, at every prime, split into many factors of equal degree.
    rng = random.Random(71)
    cases = [([rng.randint(-99, 99) for _ in range(n)] + [1], ODD_PRIMES[(3 * n + k) % 17])
             for n in range(1, 41) for k in range(3)]
    inputs = [_eisenstein(rng, rng.randint(4, 24), rng.choice((1, 2, 4, 5, 7, 8))).ints
              for _ in range(6)]
    inputs += [_swinnerton_dyer((2, 3, 5, 7)).ints, _swinnerton_dyer((2, 3, 5, 7, 11)).ints]
    cases += [(list(f), p) for f in inputs for p in ODD_PRIMES]
    checked = 0
    for f, p in cases:
        fp = _squarefree_reduction(f, p)
        if fp is not None:
            assert factor._modp_factor(fp, p) == _modp_factor_powering(fp, p)
            checked += 1
    assert checked >= 200


def test_frobenius_slots_widen_with_degree_and_prime():
    # n*(p-1)^2 fits in 1, 2, 4 and 8 bytes in turn; the map equals
    # powering on random residues in each.
    rng = random.Random(75)
    for n, p in ((8, 3), (8, 5), (40, 61), (3, 40009)):
        v = [rng.randrange(p) for _ in range(n)] + [1]
        frobenius = factor._frobenius(v, p)
        for _ in range(5):
            h = zx_trim([rng.randrange(p) for _ in range(n)])
            assert frobenius(h) == factor._pz_powmod(h, p, v, p)
    with pytest.raises(FactorizationError, match="wider than 64 bits"):
        factor._frobenius([1, 0, 0, 1], 2**61 - 1)


def test_pz_powmod_matches_repeated_multiplication():
    rng = random.Random(72)
    for p in (3, 5, 13, 61):
        for degree in (1, 4, 9):
            mod = [rng.randrange(p) for _ in range(degree)] + [1]
            base = zx_trim([rng.randrange(p) for _ in range(12)])
            expected = [1]
            for e in range(301):
                assert factor._pz_powmod(base, e, mod, p) == expected
                expected = zx_divmod(zx_mul(expected, base, p), mod, p)[1]


def test_pz_powmod_squares_once_per_bit_below_the_top(monkeypatch):
    squarings = []
    zx_mul_ = factor.zx_mul

    def counted(a, b, m=None):
        if a is b:
            squarings.append(m)
        return zx_mul_(a, b, m)

    monkeypatch.setattr(factor, "zx_mul", counted)
    for e in range(301):
        squarings.clear()
        factor._pz_powmod([1, 1], e, [2, 0, 0, 1], 7)
        assert len(squarings) == max(e.bit_length() - 1, 0)


def test_distinct_degree_steps_never_power(monkeypatch, cold_caches):
    # Square and multiply is left to equal-degree splitting.
    callers = []
    powmod = factor._pz_powmod

    def spied(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return powmod(*args)

    monkeypatch.setattr(factor, "_pz_powmod", spied)
    rng = random.Random(73)
    for _ in range(3):
        distinct_irreducible_factors(_eisenstein(rng, 24, 8))
        distinct_irreducible_factors(_eisenstein(rng, 12, 1) * _eisenstein(rng, 12, 5))
    assert set(callers) == {"_equal_degree_split"}


def test_degrees_two_and_three_build_no_frobenius_matrix(monkeypatch, cold_caches):
    built = []
    frobenius = factor._frobenius

    def spied(v, p):
        built.append(len(v) - 1)
        return frobenius(v, p)

    monkeypatch.setattr(factor, "_frobenius", spied)
    rng = random.Random(74)
    for degree in (2, 3) * 20:
        p = Poly([rng.choice((-1, 1)) * rng.randint(1, 9)]
                 + [rng.randint(-9, 9) for _ in range(degree - 1)] + [rng.randint(1, 9)])
        distinct_irreducible_factors(p)
    assert built == []
    distinct_irreducible_factors(_eisenstein(rng, 24, 8))
    assert built and min(built) >= 4


def test_frobenius_matrix_is_built_once_per_prime(monkeypatch, cold_caches):
    # h^p mod v' = (h^p mod v) mod v' for a factor v' of v, so the matrix
    # of the first v that needs one serves every later step at that prime.
    built = []
    frobenius = factor._frobenius

    def spied(v, p):
        built.append(p)
        return frobenius(v, p)

    monkeypatch.setattr(factor, "_frobenius", spied)
    rng = random.Random(76)
    inputs = [_eisenstein(rng, 24, 8) for _ in range(10)]
    inputs += [_swinnerton_dyer((2, 3, 5, 7)), _swinnerton_dyer((2, 3, 5, 7, 11))]
    for f in inputs:
        built.clear()
        distinct_irreducible_factors(f)
        assert built and len(built) == len(set(built))
