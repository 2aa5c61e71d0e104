"""Factorization of univariate polynomials into irreducibles over Q.

The pipeline is classical: pull out the rational content, split off the
squarefree part, transform to a monic integer polynomial, factor that
modulo a small prime (distinct-degree plus equal-degree splitting), Hensel
lift to a modulus beyond the Landau-Mignotte coefficient bound, and
recombine modular factors by trial division.  Every returned factor is
irreducible over Q, primitive with integer coefficients and positive
leading coefficient.  Results are cached on the coefficient tuple since the
normal-form layer factors the same denominators repeatedly.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ints import odd_primes_from
from .poly import P_ONE, Poly, squarefree_part
from .rationals import Rat


class FactorizationError(RuntimeError):
    """An internal invariant of the factorization pipeline failed.  This
    signals a defect in the algorithm, never malformed input."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise FactorizationError(message)


@dataclass(frozen=True)
class Factorization:
    """unit * product(factor^multiplicity) = the factored polynomial.

    Factors are pairwise distinct, irreducible over Q, primitive with
    integer coefficients and positive leading coefficient, ordered by
    degree and then coefficient tuple.
    """

    unit: Rat
    factors: tuple[tuple[Poly, int], ...]

    def product(self) -> Poly:
        result = Poly.constant(self.unit)
        for f, mult in self.factors:
            result = result * f**mult
        return result


def _order_key(p: Poly):
    return (len(p.coeffs), p.coeffs)


def factor_rationals(p: Poly) -> Factorization:
    """Factor a nonzero polynomial into irreducibles over Q."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = p.content()
    prim = p.scale(1 / unit)
    if prim.is_constant():
        return Factorization(unit, ())
    irreducibles = distinct_irreducible_factors(prim)
    factors = []
    rest = prim
    for q in sorted(irreducibles, key=_order_key):
        mult = 0
        while True:
            quo, rem = divmod(rest, q)
            if rem.is_zero():
                rest = quo
                mult += 1
            else:
                break
        factors.append((q, mult))
    _require(rest == P_ONE, "factor reconstruction left a non-unit remainder")
    return Factorization(unit, tuple(factors))


def distinct_irreducible_factors(p: Poly) -> tuple[Poly, ...]:
    """Irreducible factors of p without multiplicity, canonically ordered."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    prim = p.primitive()
    if prim.is_constant():
        return ()
    return _distinct_factors_of_primitive(prim.int_coeffs())


@lru_cache(maxsize=None)
def _distinct_factors_of_primitive(coeffs: tuple[int, ...]) -> tuple[Poly, ...]:
    sf = squarefree_part(Poly(coeffs))
    if sf.is_constant():
        return ()
    return _squarefree_factors_cached(sf.int_coeffs())


@lru_cache(maxsize=None)
def _squarefree_factors_cached(coeffs: tuple[int, ...]) -> tuple[Poly, ...]:
    f = Poly(coeffs)
    factors: list[Poly] = []
    if f.coeffs[0] == 0:
        factors.append(Poly((0, 1)))
        low = 0
        while f.coeffs[low] == 0:
            low += 1
        f = Poly(f.coeffs[low:])
    if f.degree >= 1:
        factors.extend(_factor_squarefree_primitive(f))
    return tuple(sorted(factors, key=_order_key))


def _factor_squarefree_primitive(f: Poly) -> list[Poly]:
    """Factor a squarefree primitive integer polynomial with nonzero
    constant term; returns primitive positive-leading irreducibles."""
    n = len(f.coeffs) - 1
    if n == 1:
        return [f]
    a = f.lead.numerator
    # Monic transform: a^(n-1) * f(x/a) is monic with integer coefficients
    # and the same factor structure up to the substitution x -> a*x.
    monic = tuple(
        f.coeffs[i].numerator * a ** (n - 1 - i) for i in range(n)
    ) + (1,)
    parts = _zassenhaus_monic(monic)
    result = []
    for g in parts:
        back = Poly(tuple(Fraction(c) * a**i for i, c in enumerate(g)))
        result.append(back.primitive())
    check = Poly.constant(1)
    for g in result:
        check = check * g
    _require(check == f,
             "monic back-substitution failed to reproduce the input")
    return result


# ---------------------------------------------------------------------------
# Arithmetic on integer coefficient lists (index i = coefficient of x^i)


def _zz_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zz_mul(a: list[int], b: list[int], m: int | None = None) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    if m is not None:
        out = [c % m for c in out]
    return _zz_trim(out)


def _zz_add(a: list[int], b: list[int], m: int | None = None) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    if m is not None:
        out = [c % m for c in out]
    return _zz_trim(out)


def _zz_sub(a: list[int], b: list[int], m: int | None = None) -> list[int]:
    return _zz_add(a, [-c for c in b], m)


def _zz_divmod_monic(a: list[int], b: list[int], m: int | None = None):
    """Quotient and remainder by a monic divisor (valid over Z and Z/m)."""
    _require(b and b[-1] == 1, "divisor is not monic")
    rem = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _zz_trim(rem)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[i + db]
        if m is not None:
            c %= m
        if c:
            quo[i] = c
            for j, bc in enumerate(b):
                rem[i + j] -= c * bc
            if m is not None:
                for j in range(len(b)):
                    rem[i + j] %= m
    if m is not None:
        rem = [c % m for c in rem]
    return _zz_trim(quo), _zz_trim(rem[:db])


# ---------------------------------------------------------------------------
# Arithmetic modulo a prime p


def _pz_monic(a: list[int], p: int) -> list[int]:
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return _zz_trim([c * inv % p for c in a])


def _pz_divmod(a: list[int], b: list[int], p: int):
    inv = pow(b[-1], -1, p)
    rem = [c % p for c in a]
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _zz_trim(rem)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[i + db] * inv % p
        if c:
            quo[i] = c
            for j, bc in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bc) % p
    return _zz_trim(quo), _zz_trim(rem[:db])


def _pz_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    b = [c % p for c in b]
    _zz_trim(a)
    _zz_trim(b)
    while b:
        _, r = _pz_divmod(a, b, p)
        a, b = b, r
    return _pz_monic(a, p)


def _pz_xgcd(a: list[int], b: list[int], p: int):
    """(g, s, t) with s*a + t*b = g (monic) over GF(p)."""
    r0, r1 = [c % p for c in a], [c % p for c in b]
    _zz_trim(r0)
    _zz_trim(r1)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pz_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zz_sub(s0, _zz_mul(q, s1, p), p)
        t0, t1 = t1, _zz_sub(t0, _zz_mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)

    def norm(c):
        return _zz_trim([x * inv % p for x in c])

    return norm(r0), norm(s0), norm(t0)


def _pz_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pz_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pz_divmod(_zz_mul(result, base, p), mod, p)[1]
        base = _pz_divmod(_zz_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Factorization over GF(p) for squarefree monic input


def _modp_factor(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a squarefree monic f over GF(p)."""
    x = [0, 1]
    factors: list[list[int]] = []
    v = list(f)
    h = x
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _pz_powmod(h, p, v, p)
        g = _pz_gcd(_zz_sub(h, x, p), v, p)
        if len(g) - 1 > 0:
            factors.extend(_equal_degree_split(g, d, p))
            v = _pz_divmod(v, g, p)[0]
            h = _pz_divmod(h, v, p)[1]
    if len(v) - 1 > 0:
        factors.append(v)
    return factors


def _equal_degree_split(g: list[int], d: int, p: int) -> list[list[int]]:
    """Cantor-Zassenhaus split of a product of degree-d irreducibles
    (p odd).  Randomness is seeded from the operands for reproducibility."""
    rng = random.Random(hash((p, tuple(g), d)))
    out = []
    stack = [g]
    e = (p**d - 1) // 2
    while stack:
        cur = stack.pop()
        deg = len(cur) - 1
        if deg == d:
            out.append(_pz_monic(cur, p))
            continue
        while True:
            w = _zz_trim([rng.randrange(p) for _ in range(deg)])
            if len(w) < 2:
                continue
            u = _pz_powmod(w, e, cur, p)
            u = _zz_sub(u, [1], p)
            split = _pz_gcd(u, cur, p)
            if 0 < len(split) - 1 < deg:
                stack.append(split)
                stack.append(_pz_divmod(cur, split, p)[0])
                break
    return out


# ---------------------------------------------------------------------------
# Hensel lifting


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to the same
    congruences mod m*m, with h (and here also g) monic."""
    m2 = m * m
    e = _zz_sub(f, _zz_mul(g, h), m2)
    q, r = _zz_divmod_monic(_zz_mul(s, e, m2), h, m2)
    g1 = _zz_add(g, _zz_add(_zz_mul(t, e, m2), _zz_mul(q, g, m2), m2), m2)
    h1 = _zz_add(h, r, m2)
    b = _zz_sub(_zz_add(_zz_mul(s, g1, m2), _zz_mul(t, h1, m2), m2), [1], m2)
    c, d = _zz_divmod_monic(_zz_mul(s, b, m2), h1, m2)
    s1 = _zz_sub(s, d, m2)
    t1 = _zz_sub(t, _zz_add(_zz_mul(t, b, m2), _zz_mul(c, g1, m2), m2), m2)
    return g1, h1, s1, t1, m2


def _hensel_lift_tree(f: list[int], mods: list[list[int]], p: int, modulus: int):
    """Lift the pairwise-coprime monic mod-p factors of monic f up to the
    target modulus (a squared-power of p).  Returns the lifted factors."""
    if len(mods) == 1:
        return [[c % modulus for c in f]]
    mid = len(mods) // 2
    g = [1]
    for part in mods[:mid]:
        g = _zz_mul(g, part, p)
    h = [1]
    for part in mods[mid:]:
        h = _zz_mul(h, part, p)
    one, s, t = _pz_xgcd(g, h, p)
    _require(one == [1], "modular factors are not coprime")
    m = p
    fm = [c % modulus for c in f]
    while m < modulus:
        g, h, s, t, m = _hensel_step(fm, g, h, s, t, m)
    _require(g and g[-1] == 1 and h and h[-1] == 1,
             "Hensel lifting lost monic factors")
    return _hensel_lift_tree(g, mods[:mid], p, modulus) + _hensel_lift_tree(
        h, mods[mid:], p, modulus
    )


# ---------------------------------------------------------------------------
# Zassenhaus: lift and recombine


def _symmetric(a: list[int], m: int) -> list[int]:
    return _zz_trim([c - m if c > m // 2 else c for c in (x % m for x in a)])


@lru_cache(maxsize=None)
def _zassenhaus_monic(coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Irreducible monic integer factors of a squarefree monic polynomial."""
    f = list(coeffs)
    n = len(f) - 1
    if n <= 1:
        return (coeffs,)

    # Prime selection: the reduction must stay squarefree; prefer the prime
    # giving the fewest modular factors.
    best: tuple[int, list[list[int]]] | None = None
    seen = 0
    for p in odd_primes_from(3):
        fp = [c % p for c in f]
        deriv = _zz_trim([i * c % p for i, c in enumerate(fp) if i])
        if not deriv or len(_pz_gcd(fp, deriv, p)) - 1 != 0:
            continue
        mods = _modp_factor(fp, p)
        seen += 1
        if len(mods) == 1:
            return (coeffs,)
        if best is None or len(mods) < len(best[1]):
            best = (p, mods)
        if seen >= 3 or len(best[1]) <= 2:
            break
    _require(best is not None, "no prime keeps the reduction squarefree")
    p, mods = best

    # Landau-Mignotte: coefficients of any monic factor are bounded by
    # 2^n * ||f||_2, so lift until the modulus exceeds twice that.
    norm = math.isqrt(sum(c * c for c in f)) + 1
    target = 2 * (2**n) * norm + 1
    modulus = p
    while modulus < target:
        modulus *= modulus
    lifted = _hensel_lift_tree(f, mods, p, modulus)

    result: list[tuple[int, ...]] = []
    remaining = f
    idxs = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(idxs):
        found = True
        while found:
            found = False
            for combo in itertools.combinations(idxs, size):
                prod = [1]
                for i in combo:
                    prod = _zz_mul(prod, lifted[i], modulus)
                cand = _symmetric(prod, modulus)
                quo, rem = _zz_divmod_monic(remaining, cand)
                if not rem:
                    result.append(tuple(cand))
                    remaining = quo
                    idxs = [i for i in idxs if i not in combo]
                    found = True
                    break
        size += 1
    if len(remaining) - 1 >= 1:
        result.append(tuple(remaining))
    _require(sum(len(r) - 1 for r in result) == n,
             "recombined factor degrees do not sum to the input degree")
    return tuple(result)
