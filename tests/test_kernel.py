"""The polynomial kernel against a naive reference on Fraction lists.

``Poly`` stores a rational content times a primitive integer tuple and
computes on the integer kernel (``zx_*``).  The reference below works on
plain lists of Fraction coefficients (index i = coefficient of x^i), with
schoolbook formulas that share no code with the kernel.  The same seeded
cases also run against sympy when it is installed.  The gcd over Z, whose
shortcuts run before Euclid, is tested against the Euclid fallback
``zx_euclid`` and against sympy.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from meadows import poly as kernel
from meadows.normalform import Model, normalize
from meadows.poly import (
    P_ONE,
    P_ZERO,
    Poly,
    lagrange_interpolate,
    poly_bezout,
    poly_gcd,
    poly_sum,
    standardize,
    zx_add,
    zx_divmod,
    zx_euclid,
    zx_gcd,
    zx_mul,
    zx_primitive,
    zx_sub,
    zx_trim,
)
from meadows.terms import parse

# ---------------------------------------------------------------------------
# The reference: Fraction lists


def ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])


def ref_neg(a):
    return [-c for c in a]


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    """Long division over Q by the inverse of the divisor's lead."""
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return ref_trim(quo), ref_trim(rem)


def ref_monic(a):
    return [c / a[-1] for c in a] if a else []


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_eval(a, x):
    return sum((c * x**i for i, c in enumerate(a)), Fraction(0))


def ref_derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def ref_content(a):
    """gcd of the numerators over the lcm of the denominators, with the
    sign of the lead."""
    if not a:
        return Fraction(0)
    g = math.gcd(*(c.numerator for c in a))
    c = Fraction(g, math.lcm(*(c.denominator for c in a)))
    return c if a[-1] > 0 else -c


# ---------------------------------------------------------------------------
# Seeded inputs


def random_fractions(rng: random.Random) -> list[Fraction]:
    """Zero, constants, monomials, mixed denominators, negative leads and
    large leads, as Fraction lists."""
    kind = rng.randrange(7)
    nonzero = rng.choice((-1, 1)) * rng.randint(1, 30)
    if kind == 0:
        return []
    if kind == 1:
        return [Fraction(nonzero, rng.randint(1, 12))]
    if kind == 2:
        return [Fraction(0)] * rng.randint(1, 8) + [Fraction(nonzero, rng.randint(1, 9))]
    cs = [Fraction(rng.randint(-40, 40), rng.randint(1, 30)) if rng.random() < 0.8
          else Fraction(0) for _ in range(rng.randint(1, 9))]
    if kind == 3:  # negative integer lead
        cs.append(Fraction(-rng.randint(1, 9)))
    elif kind == 4:  # large lead, not monic
        cs.append(Fraction(rng.choice((-1, 1)) * rng.randint(10**6, 10**12)))
    elif kind == 5:  # integer coefficients with a common factor
        f = rng.randint(2, 12)
        cs = [Fraction(f * rng.randint(-20, 20)) for _ in cs] + [Fraction(f * nonzero)]
    else:
        cs.append(Fraction(nonzero, rng.randint(1, 30)))
    return cs


def cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_fractions(rng), random_fractions(rng)


def assert_invariants(p: Poly) -> None:
    if p.is_zero():
        assert (p.content, p.ints) == (0, ())
        return
    assert type(p.content) is Fraction and p.content != 0
    assert all(type(c) is int for c in p.ints)
    assert math.gcd(*p.ints) == 1
    assert p.ints[-1] > 0
    assert p.coeffs == tuple(p.content * c for c in p.ints)


def poly(cs) -> Poly:
    p = Poly(cs)
    assert_invariants(p)
    assert list(p.coeffs) == ref_trim(cs)
    return p


# ---------------------------------------------------------------------------
# Poly against the reference


def test_ring_operations_match_reference():
    for a, b in cases(1, 400):
        pa, pb = poly(a), poly(b)
        for got, want in ((pa + pb, ref_add(a, b)),
                          (pa - pb, ref_add(a, ref_neg(b))),
                          (pa * pb, ref_mul(a, b)),
                          (-pa, ref_neg(ref_trim(a)))):
            assert_invariants(got)
            assert list(got.coeffs) == want


def test_powers_and_n_ary_sums_match_reference():
    for a, b in cases(6, 300):
        pa, pb = poly(a), poly(b)
        want = [Fraction(1)]
        for n in range(4):
            got = pa ** n
            assert_invariants(got)
            assert list(got.coeffs) == want
            want = ref_mul(want, ref_trim(a))
        for terms in ((), (pa,), (pa, pb), (pa, pb, -pa, pb, pa)):
            got = poly_sum(*terms)
            assert_invariants(got)
            want = []
            for t in terms:
                want = ref_add(want, list(t.coeffs))
            assert list(got.coeffs) == want


def test_divmod_matches_reference():
    for a, b in cases(2, 400):
        pa, pb = poly(a), poly(b)
        if pb.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(pa, pb)
            continue
        q, r = divmod(pa, pb)
        assert_invariants(q)
        assert_invariants(r)
        want_q, want_r = ref_divmod(ref_trim(a), ref_trim(b))
        assert (list(q.coeffs), list(r.coeffs)) == (want_q, want_r)
        assert q * pb + r == pa


def test_gcd_and_bezout_match_reference():
    rng = random.Random(3)
    for a, b in cases(3, 300):
        common = random_fractions(rng)  # a shared factor makes gcds nontrivial
        if common:
            a, b = ref_mul(a, common), ref_mul(b, common)
        pa, pb = poly(a), poly(b)
        want = ref_gcd(ref_trim(a), ref_trim(b))
        g = poly_gcd(pa, pb)
        assert_invariants(g)
        assert list(g.coeffs) == want
        if pa.is_zero() and pb.is_zero():
            continue
        g, rp, vp = poly_bezout(pa, pb)
        assert list(g.coeffs) == want
        assert pa * vp + pb * rp == g


def test_read_outs_match_reference():
    rng = random.Random(4)
    for a, _ in cases(4, 400):
        p, a = poly(a), ref_trim(a)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        assert p(x) == ref_eval(a, x)
        assert list(p.derivative().coeffs) == ref_trim(ref_derivative(a))
        assert_invariants(p.derivative())
        assert p.content == ref_content(a)
        assert list(p.monic().coeffs) == ref_monic(a)
        if a:
            c = ref_content(a)
            assert p.primitive().ints == tuple(int(x / c) for x in a)
            assert p.primitive().content == 1
            assert p.lead == a[-1]
        l = math.lcm(*(c.denominator for c in a))
        std = standardize(p)
        assert std.denominator == l
        assert std.numerators == tuple(int(c * l) for c in a)


def test_scale_by_one_is_identity_and_constructors_agree():
    p = Poly((Fraction(1, 2), Fraction(-3, 4), 5))
    assert p.scale(1) is p
    assert Poly.from_ints((2, -3, 20), 4) == p
    assert Poly(p.coeffs) == p
    assert Poly((0, 0)) == P_ZERO
    assert Poly.constant(0) == P_ZERO


# ---------------------------------------------------------------------------
# The integer kernel


def random_ints(rng: random.Random, monic: bool = False) -> list[int]:
    cs = [rng.randint(-10**4, 10**4) for _ in range(rng.randint(0, 8))]
    lead = 1 if monic else rng.choice((-1, 1)) * rng.choice(
        (1, rng.randint(2, 50), rng.randint(10**8, 10**15)))
    return cs + [lead]


def as_fractions(a):
    return [Fraction(c) for c in a]


def test_divmod_over_z_is_pseudo_division():
    rng = random.Random(5)
    for _ in range(400):
        a = rng.choice(([], random_ints(rng)))
        b = random_ints(rng, monic=rng.random() < 0.3)
        q, r, s = zx_divmod(a, b)
        assert s >= 1 and len(r) < len(b)
        assert as_fractions(zx_mul([s], a)) == ref_add(
            ref_mul(as_fractions(q), as_fractions(b)), as_fractions(r))
        if b[-1] == 1:
            assert s == 1
        else:
            assert (b[-1] ** max(len(a) - len(b) + 1, 0)) % s == 0


@pytest.mark.parametrize("m", [3, 101, 2**61 - 1, 3**8])
def test_divmod_mod_m(m):
    rng = random.Random(m)
    for _ in range(150):
        a = zx_trim([c % m for c in random_ints(rng)])
        b = [c % m for c in random_ints(rng, monic=m == 3**8)]
        if not zx_trim(b):
            continue
        q, r, s = zx_divmod(a, b, m)
        assert s == 1 and len(r) < len(b)
        assert all(0 <= c < m for c in q + r)
        assert zx_sub(a, zx_add(zx_mul(q, b, m), r, m), m) == []


def test_primitive_over_z_and_mod_p():
    rng = random.Random(7)
    p = 101
    for _ in range(300):
        f = rng.choice((-1, 1)) * rng.randint(1, 40)
        a = [f * c for c in random_ints(rng)]
        prim = zx_primitive(list(a))
        assert math.gcd(*prim) == 1 and prim[-1] > 0
        assert all(x * a[-1] == y * prim[-1] for x, y in zip(prim, a))
        red = zx_trim([c % p for c in a])
        if red:
            monic = zx_primitive(red, p)
            assert monic[-1] == 1 and len(monic) == len(red)
            assert all((x * red[-1] - y) % p == 0 for x, y in zip(monic, red))


# ---------------------------------------------------------------------------
# The same cases against sympy


def test_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def sp(cs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(cs)] or [0], x, domain="QQ")

    def coeffs(p):
        if p.is_zero:
            return []
        return [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]

    for a, b in cases(8, 150):
        pa, pb, sa, sb = poly(a), poly(b), sp(a), sp(b)
        assert list((pa * pb).coeffs) == coeffs(sa * sb)
        assert list((pa + pb).coeffs) == coeffs(sa + sb)
        assert list((pa - pb).coeffs) == coeffs(sa - sb)
        assert list(pa.derivative().coeffs) == coeffs(sa.diff(x))
        assert list(pa.monic().coeffs) == (coeffs(sa.monic()) if a else [])
        if not pb.is_zero():
            q, r = divmod(pa, pb)
            sq, sr = sympy.div(sa, sb)
            assert (list(q.coeffs), list(r.coeffs)) == (coeffs(sq), coeffs(sr))
        sg = sympy.gcd(sa, sb)
        assert list(poly_gcd(pa, pb).coeffs) == coeffs(sg if sg.is_zero else sg.monic())


# ---------------------------------------------------------------------------
# The gcd over Z: three exact shortcuts before Euclid, against Euclid itself


def _random_zx(rng: random.Random, degree: int, bits: int) -> list[int]:
    cs = [rng.randint(-2**bits, 2**bits) for _ in range(degree)]
    return cs + [rng.choice((-1, 1)) * rng.randint(1, 2**bits)]


def _gcd_pairs(seed: int, count: int):
    """Pairs with a shared factor, degrees 0 to 24, coefficients of 1 to 120
    bits, leads of either sign and contents up to 2^20.  In pairs 1, 5, 9,
    ... the second is a multiple of the first, of degree up to 27; in pairs
    3, 7, 11, ... the two are equal up to their contents."""
    rng = random.Random(seed)
    for i in range(count):
        d = rng.randint(0, 8)
        common = _random_zx(rng, d, rng.randint(1, 120))
        a = zx_mul(common, _random_zx(rng, rng.randint(0, 24 - d), rng.randint(1, 120)))
        b = zx_mul(common, _random_zx(rng, rng.randint(0, 24 - d), rng.randint(1, 120)))
        if i % 4 == 1:
            b = zx_mul(a, _random_zx(rng, rng.randint(0, 3), rng.randint(1, 8)))
        elif i % 4 == 3:
            b = list(a)
        yield (zx_mul(a, [rng.randint(1, 2**20)]), zx_mul(b, [rng.randint(-2**20, -1)]))


def test_gcd_over_z_matches_euclid():
    for a, b in _gcd_pairs(41, 600):
        assert zx_gcd(a, b) == zx_gcd(b, a) == zx_euclid(a, b)


def test_gcd_over_z_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for a, b in _gcd_pairs(42, 150):
        g = sympy.Poly(list(reversed(a)), x, domain="ZZ").gcd(
            sympy.Poly(list(reversed(b)), x, domain="ZZ"))
        g = g.primitive()[1]
        expected = [int(c) for c in reversed(g.all_coeffs())]
        assert zx_gcd(a, b) == zx_primitive(expected)


def _poles(rng: random.Random) -> set[Fraction]:
    """22 distinct poles a/b with |a| <= 40 and 1 <= b <= 6, as in the
    partial-fraction sums of the benchmark."""
    poles = set()
    while len(poles) < 22:
        poles.add(Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
    return poles


def _pfsum_residue(rng: random.Random) -> tuple[Poly, Poly]:
    """The locus and residue of the sum of b/(b*x - a) = 1/(x - q) over 22
    poles q = a/b: the product of the b*x - a and the polynomial of degree
    21 through the values sum_{q' != q} 1/(q - q') of the sum at its
    poles."""
    poles = _poles(rng)
    locus = P_ONE
    for q in poles:
        locus = locus * Poly((-q.numerator, q.denominator))
    values = lagrange_interpolate(
        [(q, sum(1 / (q - r) for r in poles if r != q)) for q in poles])
    return locus, values


def _spy_euclid(monkeypatch) -> list:
    """Record the Euclid runs over Z (modulus None) of ``zx_gcd``."""
    runs = []
    euclid = kernel.zx_euclid

    def spied(a, b, m=None):
        if m is None:
            runs.append((a, b))
        return euclid(a, b, m)

    monkeypatch.setattr(kernel, "zx_euclid", spied)
    return runs


def test_coprimality_image_proves_what_the_heuristic_gives_up_on(monkeypatch):
    # All six xi fail on these coprime pairs: each value of the residue
    # shares a large smooth factor with the locus' value.
    locus, values = _pfsum_residue(random.Random(1))
    a, b = list(locus.ints), list(values.ints)
    assert (len(a), len(b), max(map(abs, b)).bit_length()) == (23, 22, 551)
    assert kernel._heuristic_gcd(a, b) is None
    runs = _spy_euclid(monkeypatch)
    assert zx_gcd(a, b) == zx_gcd(b, a) == [1]
    assert runs == []
    assert kernel.zx_euclid(a, b) == [1]


def test_heuristic_give_up_reaches_euclid(monkeypatch):
    monkeypatch.setattr(kernel, "_heuristic_gcd", lambda a, b: None)
    runs = _spy_euclid(monkeypatch)
    common = [5, -3, 7]
    a, b = zx_mul(common, [1, 2, 9]), zx_mul(common, [4, -1, 1, 2])
    assert zx_gcd(a, b) == common and len(runs) == 1


def test_image_step_is_skipped_when_the_prime_divides_a_lead(monkeypatch):
    # Modulo p the common factor p*x + 1 becomes the constant 1, so the
    # images (x + 1, x + 2) are coprime although a and b are not.
    p = kernel._IMAGE_PRIME
    a, b = zx_mul([1, p], [1, 1]), zx_mul([1, p], [2, 1])
    assert kernel.zx_euclid(a, b, p) == [1]
    monkeypatch.setattr(kernel, "_heuristic_gcd", lambda a, b: None)
    runs = _spy_euclid(monkeypatch)
    assert zx_gcd(a, b) == [1, p] and len(runs) == 1


@pytest.mark.parametrize("model", list(Model))
def test_partial_fraction_sums_never_run_euclid_over_z(monkeypatch, cold_caches, model):
    text = " + ".join(f"{q.denominator}/({q.denominator}*x - ({q.numerator}))"
                      for q in sorted(_poles(random.Random(1))))
    runs = _spy_euclid(monkeypatch)
    nf = normalize(parse(text), model)
    assert nf.den.degree == 22 and runs == []


def _timed_gcd(a, b) -> tuple[list[int], float]:
    start = time.perf_counter()
    g = zx_gcd(a, b)
    return g, time.perf_counter() - start


def test_dense_degree_200_coprime_pair_is_fast():
    # The primitive-remainder Euclid took about 30 s on this pair.
    rng = random.Random(43)
    g, seconds = _timed_gcd(_random_zx(rng, 200, 64), _random_zx(rng, 200, 64))
    assert g == [1] and seconds < 2


def test_degree_200_pair_with_a_degree_100_common_factor_is_fast():
    # The primitive-remainder Euclid took about 10 s on this pair.
    rng = random.Random(44)
    common = _random_zx(rng, 100, 64)
    a = zx_mul(common, _random_zx(rng, 100, 64))
    b = zx_mul(common, _random_zx(rng, 100, 64))
    g, seconds = _timed_gcd(a, b)
    assert g == zx_primitive(common) and seconds < 2
