import math
import random
from fractions import Fraction

import pytest

from meadows.checks import (
    check_appendix_oracle,
    check_bezout,
    check_lagrange,
    check_rational_roots_oracle,
)
from meadows.factor import distinct_irreducible_factors
from meadows.generate import random_int_poly
from meadows.normalform import root
from meadows.poly import (
    NEG_INFINITY,
    P_ONE,
    P_ZERO,
    Poly,
    StdPoly,
    appendix_oracle,
    lagrange_interpolate,
    lagrange_weights,
    poly_bezout,
    poly_gcd,
    rational_roots,
    squarefree_part,
    standardize,
    trace_sum,
)

X = Poly((0, 1))


def test_zero_polynomial_degree_marker():
    assert P_ZERO.degree == NEG_INFINITY
    assert Poly((0, 0)).is_zero()


def test_trailing_zeros_stripped():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))


def test_eval_at_paper_roots():
    p = Poly((0, 3, 1))  # x^2 + 3x
    assert p(Fraction(-3)) == 0
    assert p(0) == 0


def test_eval_example_polynomial_constant_term():
    g = Poly((Fraction(15972, 3388), Fraction(24404, 3388), Fraction(5891, 3388)))
    assert g(0) == Fraction(15972, 3388) == Fraction(33, 7)


def test_mul_by_zero():
    p = random_int_poly(random.Random(1), 5)
    assert (p * P_ZERO).is_zero()


def test_divmod_reconstruction():
    rng = random.Random(2)
    for _ in range(50):
        a = random_int_poly(rng, 7)
        b = random_int_poly(rng, 4)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_gcd_of_coprime_quadratics():
    assert poly_gcd(Poly((1, 0, 1)), Poly((2, 0, 1))) == P_ONE


def test_gcd_with_zero_gives_monic():
    p = Poly((2, 4))
    assert poly_gcd(p, P_ZERO) == Poly((Fraction(1, 2), 1))
    assert poly_gcd(P_ZERO, P_ZERO) == P_ZERO


def test_gcd_shared_linear_factor():
    assert poly_gcd(Poly((0, 3, 1)), X) == X


def test_bezout_of_coprime_quadratics():
    g, rp, vp = poly_bezout(Poly((1, 0, 1)), Poly((2, 0, 1)))
    assert g == P_ONE
    assert rp == P_ONE
    assert vp == Poly((-1,))
    assert Poly((1, 0, 1)) * vp + Poly((2, 0, 1)) * rp == P_ONE


def test_bezout_against_one():
    p = Poly((3, 1, 2))
    g, rp, vp = poly_bezout(p, P_ONE)
    assert (g, rp, vp) == (P_ONE, P_ONE, P_ZERO)


def test_bezout_linear_vs_quadratic():
    g, rp, vp = poly_bezout(X, Poly((1, 0, 1)))
    assert g == P_ONE
    assert X * vp + Poly((1, 0, 1)) * rp == P_ONE
    assert rp == P_ONE
    assert vp == Poly((0, -1))


def test_bezout_rejects_two_zeros():
    with pytest.raises(ValueError):
        poly_bezout(P_ZERO, P_ZERO)


def test_bezout_identity_property():
    assert check_bezout(seed=4, rounds=200).ok


def test_rational_roots_examples():
    assert rational_roots(Poly((0, 3, 1))) == {Fraction(-3), Fraction(0)}
    assert rational_roots(Poly((1, 0, 0, 0, 0, 1))) == {Fraction(-1)}
    assert rational_roots(Poly((-7, 0, 3))) == set()


def test_rational_roots_with_fractional_root():
    # (2x - 1)(3x + 5) = 6x^2 + 7x - 5
    assert rational_roots(Poly((-5, 7, 6))) == {Fraction(1, 2), Fraction(-5, 3)}


def test_rational_roots_rejects_zero():
    with pytest.raises(ValueError):
        rational_roots(P_ZERO)


def test_rational_roots_oracle_property():
    assert check_rational_roots_oracle(seed=6, rounds=100).ok


def _root_shape(rng: random.Random, bits: int) -> tuple[Poly, set]:
    """A polynomial built with up to 6 rational roots, each of
    multiplicity up to 3, sometimes a power of x and a further integer
    factor, rational content of either sign, numerators up to 2^bits; and
    the roots it was built with."""
    p = Poly.constant(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
    roots = set()
    for _ in range(rng.randint(0, 6)):
        a = Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**(bits // 2 + 1)))
        roots.add(a)
        p = p * Poly((-a, 1)) ** rng.randint(1, 3)
    if rng.random() < 0.3:
        roots.add(Fraction(0))
        p = p * Poly.x(rng.randint(1, 3))
    if rng.random() < 0.5:
        p = p * random_int_poly(rng, 4, 2**bits)
    return p, roots


def _divisor_search(p: Poly) -> set:
    """Rational roots by the rational-root theorem: every candidate n/m
    with n dividing the constant term and m the lead of the squarefree
    part without its factor x."""
    def divisors(n):
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return {*small, *(n // d for d in small)}

    f = squarefree_part(p).ints
    found = {Fraction(0)} if f[0] == 0 else set()
    f = f[1:] if f[0] == 0 else f
    if len(f) > 1:
        found |= {a for n in divisors(abs(f[0])) for m in divisors(f[-1])
                  for a in (Fraction(n, m), Fraction(-n, m)) if not p(a)}
    return found


def _factored_roots(p: Poly) -> set:
    return {root(r) for r in distinct_irreducible_factors(p) if r.degree == 1}


@pytest.mark.parametrize("seed", range(3))
def test_rational_roots_match_divisor_search_and_factoring(seed):
    rng = random.Random(700 + seed)
    for _ in range(80):
        p, roots = _root_shape(rng, 3)
        got = rational_roots(p)
        assert roots <= got == _divisor_search(p) == _factored_roots(p), p


@pytest.mark.parametrize("seed", range(3))
def test_rational_roots_match_factoring_on_40_bit_coefficients(seed):
    rng = random.Random(710 + seed)
    for _ in range(80):
        p, roots = _root_shape(rng, 40)
        assert roots <= rational_roots(p) == _factored_roots(p), p


def test_rational_roots_stay_distinct_past_the_small_primes():
    # Every odd prime up to 41 sends two of the 41 roots to one residue.
    p = P_ONE
    for k in range(-20, 21):
        p = p * Poly((-k, 1))
    assert rational_roots(p) == {Fraction(k) for k in range(-20, 21)}
    assert rational_roots(p * Poly((-1, 3)) ** 2 * Poly((2, 0, 1))) == (
        {Fraction(k) for k in range(-20, 21)} | {Fraction(1, 3)})


def test_rational_roots_of_constants_and_memo():
    assert rational_roots(Poly.constant(Fraction(-3, 2))) == frozenset()
    assert rational_roots(Poly.x(5)) == {Fraction(0)}
    p = Poly((-5, 7, 6)) ** 2
    assert rational_roots(p) is rational_roots(p)


def test_squarefree_part_of_square():
    assert squarefree_part(Poly((0, 0, 1))) == X


def test_squarefree_part_of_repeated_factor():
    p = Poly((1, 1)) ** 2 * Poly((-2, 1))  # (x+1)^2 (x-2)
    assert squarefree_part(p) == Poly((1, 1)) * Poly((-2, 1))


def test_squarefree_part_keeps_primitive_integer_form():
    p = Poly((-7, 0, 3))
    assert squarefree_part(p) == p


def test_lagrange_example2_polynomial():
    points = [
        (Fraction(-3), Fraction(-603, 484)),
        (Fraction(0), Fraction(33, 7)),
        (Fraction(-1), Fraction(-3, 4)),
    ]
    g = lagrange_interpolate(points)
    assert g == Poly(
        (Fraction(15972, 3388), Fraction(24404, 3388), Fraction(5891, 3388))
    )
    assert lagrange_weights(points) == [
        Fraction(-201, 968),
        Fraction(11, 7),
        Fraction(3, 8),
    ]


def test_lagrange_single_point():
    assert lagrange_interpolate([(Fraction(0), Fraction(1))]) == P_ONE


def test_lagrange_two_points():
    pts = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(3))]
    assert lagrange_interpolate(pts) == Poly((1, 1))


def test_lagrange_rejects_duplicate_abscissa():
    with pytest.raises(ValueError):
        lagrange_interpolate([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))])


def test_lagrange_property():
    assert check_lagrange(seed=8, rounds=100).ok


def test_standardize_example2():
    g = Poly((Fraction(15972, 3388), Fraction(24404, 3388), Fraction(5891, 3388)))
    std = standardize(g)
    assert std.numerators == (15972, 24404, 5891)
    assert std.denominator == 3388


def test_standardize_zero():
    std = standardize(P_ZERO)
    assert std.numerators == ()
    assert std.denominator == 1


def test_standardize_common_denominator():
    std = standardize(Poly((Fraction(1, 3), Fraction(1, 2))))
    assert std.numerators == (2, 3)
    assert std.denominator == 6


def test_stdpoly_equality_is_semantic():
    assert StdPoly((2, 3), 6) == StdPoly((4, 6), 12)
    assert StdPoly((2, 3), 6) != StdPoly((3, 2), 6)


def test_stdpoly_prints_papers_shape():
    assert str(StdPoly((15972, 24404, 5891), 3388)) == (
        "(5891*x^2 + 24404*x + 15972)/3388"
    )


def test_appendix_oracle_example2():
    b = [Fraction(-201, 968), Fraction(11, 7), Fraction(3, 8)]
    a = [Fraction(-3), Fraction(0), Fraction(-1)]
    got = appendix_oracle(b, a)
    assert got.denominator == 968 * 7 * 8  # the s*m common denominator
    assert got == StdPoly((15972, 24404, 5891), 3388)


def test_appendix_oracle_single_point():
    c = Fraction(5, 7)
    assert appendix_oracle([c], [Fraction(0)]) == standardize(Poly.constant(c))


def test_appendix_oracle_matches_expansion():
    assert check_appendix_oracle(seed=9, rounds=100).ok


def power_sums(r: Poly, count: int) -> list[Fraction]:
    """Oracle: power sums p_0..p_count of the complex roots of r, from its
    coefficients via Newton's identities (no root extraction)."""
    if r.is_constant():
        raise ValueError("power sums need a nonconstant polynomial")
    c = r.monic().coeffs
    d = len(c) - 1
    e = [Fraction(0)] * (d + 1)
    for i in range(1, d + 1):
        e[i] = (-1) ** i * c[d - i]
    ps = [Fraction(d)]
    for k in range(1, count + 1):
        acc = Fraction(0)
        for i in range(1, min(k - 1, d) + 1):
            acc += (-1) ** (i - 1) * e[i] * ps[k - i]
        if k <= d:
            acc += (-1) ** (k - 1) * k * e[k]
        ps.append(acc)
    return ps


def test_power_sums_basics():
    # roots of x^2 + 3x are 0 and -3
    assert power_sums(Poly((0, 3, 1)), 3) == [2, -3, 9, -27]
    # roots of x^2 + 1 are i and -i
    assert power_sums(Poly((1, 0, 1)), 2) == [2, 0, -2]


def test_trace_sum_examples():
    assert trace_sum(X, Poly((0, 3, 1))) == -3
    assert trace_sum(P_ONE, Poly((5, 1, 7, 1, 3)).primitive()) == 4
    assert trace_sum(Poly((0, 0, 1)), Poly((1, 0, 1))) == -2


def test_trace_sum_reduces_first():
    # x^3 over roots of x^2 + 2: x^3 = -2x there, and the root sum of x is 0
    assert trace_sum(Poly((0, 0, 0, 1)), Poly((2, 0, 1))) == 0


def test_trace_sum_rejects_constant_and_nonsquarefree():
    with pytest.raises(ValueError):
        trace_sum(X, P_ONE)
    with pytest.raises(ValueError):
        trace_sum(X, Poly((0, 0, 1)))


def test_trace_sum_matches_newton_identities():
    # s contracted against the power sums of r's roots, on random squarefree
    # r (monic or not, up to degree 24) and s of degree up to twice r's
    rng = random.Random(11)
    done = 0
    while done < 300:
        r = random_int_poly(rng, rng.randint(1, 24)).scale(Fraction(rng.randint(1, 9), 7))
        if r.degree < 1 or poly_gcd(r, r.derivative()) != P_ONE:
            continue
        s = random_int_poly(rng, rng.randint(0, 2 * int(r.degree))).scale(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        ps = power_sums(r, max(0, len(s.coeffs) - 1))
        assert trace_sum(s, r) == sum((c * ps[i] for i, c in enumerate(s.coeffs)), Fraction(0))
        done += 1


def test_trace_sum_against_floating_roots():
    # diagnostic cross-check only; the exact path is authoritative
    numpy = pytest.importorskip("numpy")
    rng = random.Random(10)
    done = 0
    while done < 50:
        r = random_int_poly(rng, 5)
        if r.degree < 1 or poly_gcd(r, r.derivative()) != P_ONE:
            continue
        s = random_int_poly(rng, max(0, len(r.coeffs) - 2))
        exact = trace_sum(s, r)
        roots = numpy.roots([float(c) for c in reversed(r.coeffs)])
        approx = sum(
            sum(float(c) * root**i for i, c in enumerate((s % r).coeffs))
            for root in roots
        )
        assert abs(float(exact) - approx.real) < 1e-9
        assert abs(approx.imag) < 1e-9
        done += 1


def naive_product(a: Poly, b: Poly) -> list[Fraction]:
    """Schoolbook Fraction convolution, independent of Poly.__mul__."""
    if not a.coeffs or not b.coeffs:
        return []
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] += ai * bj
    while out and out[-1] == 0:
        out.pop()
    return out


def _mixed_denominator_poly(rng: random.Random) -> Poly:
    kind = rng.randrange(5)
    if kind == 0:
        return P_ZERO
    if kind == 1:
        return Poly.constant(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    if kind == 2:
        return Poly.x(rng.randint(0, 12)).scale(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
    return Poly(tuple(
        Fraction(rng.randint(-50, 50), rng.randint(1, 40)) if rng.random() < 0.7
        else Fraction(0)
        for _ in range(rng.randint(1, 14))
    ))


def test_mul_matches_naive_fraction_convolution():
    rng = random.Random(41)
    for _ in range(400):
        a, b = _mixed_denominator_poly(rng), _mixed_denominator_poly(rng)
        product = a * b
        assert list(product.coeffs) == naive_product(a, b)
        assert all(type(c) is Fraction for c in product.coeffs)
        assert product == b * a


def test_mul_keeps_reduced_fractions_and_scale_by_one():
    p = Poly((Fraction(1, 2), Fraction(1, 3)))
    q = Poly((Fraction(2, 3), Fraction(-3, 4)))
    assert (p * q).coeffs == (Fraction(1, 3), Fraction(-11, 72), Fraction(-1, 4))
    assert p.scale(1) is p
    assert Poly(p.coeffs).coeffs == p.coeffs
