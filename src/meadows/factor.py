"""Factorization of univariate polynomials into irreducibles over Q.

The pipeline is classical: pull out the rational content, split off the
squarefree part, factor the primitive integer polynomial modulo a small
prime not dividing its lead (distinct-degree plus equal-degree splitting),
Hensel lift to a modulus beyond the Landau-Mignotte coefficient bound
times the lead, and recombine modular factors, scaled by the lead, by
trial division.  Distinct-degree factoring maps h to h^p mod v, linearly
over GF(p): one product with a Frobenius matrix, rows packed in slots of
n*(p-1)^2 (n = deg v), the most a product adds to one.  Every returned
factor is irreducible over Q, primitive with integer coefficients and
positive leading coefficient.  The modular and integer steps run on the
integer kernel of ``meadows.poly`` (coefficient lists over Z or Z/m), the
same one the polynomial arithmetic uses.  Results are cached on the
squarefree part (itself memoized in ``meadows.poly``), in one cache of
CACHE_SIZE entries, since the same polynomials are factored repeatedly.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce

from .poly import (CACHE_SIZE, P_ONE, P_X, Poly, odd_primes_from, squarefree_part,
                   zx_add, zx_divmod, zx_gcd, zx_mul, zx_primitive, zx_sub, zx_trim)
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
    """Degree, then integer coefficients: on primitive polynomials (all
    factors and loci) the order of the coefficient tuples."""
    return (len(p.ints), p.ints)


def factor_rationals(p: Poly) -> Factorization:
    """Factor a nonzero polynomial into irreducibles over Q."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    prim = p.primitive()
    if prim.is_constant():
        return Factorization(p.content, ())
    factors = []
    rest = prim
    for q in distinct_irreducible_factors(prim):
        mult = 0
        quo, rem = divmod(rest, q)
        while rem.is_zero():
            rest, mult = quo, mult + 1
            quo, rem = divmod(rest, q)
        factors.append((q, mult))
    _require(rest == P_ONE, "factor reconstruction left a non-unit remainder")
    return Factorization(p.content, tuple(factors))


def distinct_irreducible_factors(p: Poly) -> tuple[Poly, ...]:
    """Irreducible factors of p without multiplicity, canonically ordered."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_constant():
        return ()
    return _squarefree_factors_cached(squarefree_part(p))


@lru_cache(maxsize=CACHE_SIZE)
def _squarefree_factors_cached(f: Poly) -> tuple[Poly, ...]:
    low = 1 if f.ints[0] == 0 else 0  # f is squarefree: x divides it at most once
    factors = [P_X] if low else []
    if len(f.ints) - low >= 2:
        factors.extend(Poly.from_ints(g) for g in _zassenhaus(list(f.ints[low:])))
    return tuple(sorted(factors, key=_order_key))


def _monic_divmod(a: list[int], b: list[int], m: int | None = None):
    """Quotient and remainder by a monic divisor (over Z and Z/m)."""
    _require(b and b[-1] == 1, "divisor is not monic")
    return zx_divmod(a, b, m)[:2]


# ---------------------------------------------------------------------------
# Arithmetic modulo a prime p


def _pz_xgcd(a: list[int], b: list[int], p: int):
    """(g, s, t) with s*a + t*b = g (monic) over GF(p)."""
    r0, r1 = zx_trim([c % p for c in a]), zx_trim([c % p for c in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r, _ = zx_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, zx_sub(s0, zx_mul(q, s1, p), p)
        t0, t1 = t1, zx_sub(t0, zx_mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return tuple(zx_trim([x * inv % p for x in c]) for c in (r0, s0, t0))


def _pz_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod (mod, p), left to right: e.bit_length() - 1 squarings."""
    base = zx_divmod(base, mod, p)[1]
    result = base if e else [1]
    for bit in bin(e)[3:]:
        result = zx_divmod(zx_mul(result, result, p), mod, p)[1]
        if bit == "1":
            result = zx_divmod(zx_mul(result, base, p), mod, p)[1]
    return result


# ---------------------------------------------------------------------------
# Factorization over GF(p) for squarefree monic input


def _modp_factor(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a squarefree monic f over GF(p): step
    d takes gcd(x^(p^d) - x, v), v free of factors of degree below d.  As
    (a + b)^p = a^p + b^p and c^p = c on GF(p), h -> h^p is linear, and
    after step 1 it is one product with a Frobenius matrix, in slots of
    n*(p-1)^2, built once: h^p mod v' = (h^p mod v) mod v' for v' | v."""
    factors: list[list[int]] = []
    v = list(f)
    h = zx_divmod([0] * p + [1], v, p)[1]
    d = 0
    frobenius = None
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        if d > 1:
            frobenius = frobenius or _frobenius(v, p)
            h = zx_divmod(frobenius(h), v, p)[1]
        g = zx_gcd(zx_sub(h, [0, 1], p), v, p)
        if len(g) - 1 > 0:
            factors.extend(_equal_degree_split(g, d, p))
            v = zx_divmod(v, g, p)[0]
            h = zx_divmod(h, v, p)[1]
    if len(v) - 1 > 0:
        factors.append(v)
    return factors


def _frobenius(v: list[int], p: int):
    """h -> h^p mod v (deg v = n) as the sum of h_i * x^(i*p) mod v, row i
    one integer of n native-order slots, slot i coefficient i.  Row i+1,
    x^p * row i, is the same product with the rows x^(p+k) mod v: x^(p+k)
    below x^n, beyond it each the one before shifted up and folded by v."""
    n, order = len(v) - 1, sys.byteorder
    width = 1 << (((n * (p - 1) ** 2).bit_length() + 7) // 8 - 1).bit_length()
    _require(width <= 8, "Frobenius slots wider than 64 bits")
    fmt = "BHIQ"[width.bit_length() - 1]

    def pack(c: list[int]) -> int:
        return int.from_bytes(b"".join(a.to_bytes(width, order)
                                       for a in c + [0] * (n - len(c))), order)

    def product(rows: list[int], h: list[int]) -> list[int]:
        acc = sum(c * row for c, row in zip(h, rows)).to_bytes(n * width, order)
        return zx_trim([c % p for c in memoryview(acc).cast(fmt)])

    folded = [[-c % p for c in v[:-1]]]  # x^n mod v
    while len(folded) < p:
        folded.append([(a - folded[-1][-1] * b) % p for a, b in zip([0] + folded[-1][:-1], v)])
    times_xp = [pack(c) for c in [[0] * m + [1] for m in range(p, n)] + folded[-n:]]
    row, rows = [1], [pack([1])]
    for _ in range(n - 1):
        row = product(times_xp, row)
        rows.append(pack(row))
    return lambda h: product(rows, h)


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
            out.append(zx_primitive(cur, p))
            continue
        while True:
            w = zx_trim([rng.randrange(p) for _ in range(deg)])
            if len(w) < 2:
                continue
            u = _pz_powmod(w, e, cur, p)
            u = zx_sub(u, [1], p)
            split = zx_gcd(u, cur, p)
            if 0 < len(split) - 1 < deg:
                stack.append(split)
                stack.append(zx_divmod(cur, split, p)[0])
                break
    return out


# ---------------------------------------------------------------------------
# Hensel lifting


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to the same
    congruences mod m*m, with h (and here also g) monic."""
    m2 = m * m
    e = zx_sub(f, zx_mul(g, h), m2)
    q, r = _monic_divmod(zx_mul(s, e, m2), h, m2)
    g1 = zx_add(g, zx_add(zx_mul(t, e, m2), zx_mul(q, g, m2), m2), m2)
    h1 = zx_add(h, r, m2)
    b = zx_sub(zx_add(zx_mul(s, g1, m2), zx_mul(t, h1, m2), m2), [1], m2)
    c, d = _monic_divmod(zx_mul(s, b, m2), h1, m2)
    s1 = zx_sub(s, d, m2)
    t1 = zx_sub(t, zx_add(zx_mul(t, b, m2), zx_mul(c, g1, m2), m2), m2)
    return g1, h1, s1, t1, m2


def _hensel_lift_tree(f: list[int], mods: list[list[int]], p: int, modulus: int):
    """Lift the pairwise-coprime monic mod-p factors of monic f up to the
    target modulus (a squared-power of p).  Returns the lifted factors."""
    if len(mods) == 1:
        return [[c % modulus for c in f]]
    mid = len(mods) // 2
    g, h = (reduce(lambda u, v: zx_mul(u, v, p), part)
            for part in (mods[:mid], mods[mid:]))
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
    return zx_trim([c - m if c > m // 2 else c for c in (x % m for x in a)])


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a squarefree primitive integer polynomial
    with positive lead and nonzero constant term, primitive with positive
    leads.  The lead is carried through the lift and the recombination
    (von zur Gathen & Gerhard, Modern Computer Algebra, Alg. 15.19)."""
    n, lead = len(f) - 1, f[-1]
    if n <= 1:
        return [f]

    # Prime selection: p must not divide the lead and the reduction must
    # stay squarefree; prefer the prime giving the fewest modular factors.
    best: tuple[int, list[list[int]]] | None = None
    seen = 0
    for p in odd_primes_from(3):
        if lead % p == 0:
            continue
        fp = zx_primitive([c % p for c in f], p)
        deriv = zx_trim([i * c % p for i, c in enumerate(fp) if i])
        if len(zx_gcd(fp, deriv, p)) != 1:
            continue
        mods = _modp_factor(fp, p)
        seen += 1
        if len(mods) == 1:
            return [f]
        if best is None or len(mods) < len(best[1]):
            best = (p, mods)
        if seen >= 3 or len(best[1]) <= 2:
            break
    _require(best is not None, "no prime keeps the reduction squarefree")
    p, mods = best

    # Landau-Mignotte: a factor g of f has coefficients of size at most
    # 2^n * ||f||_2, so b*g/lc(g) for a divisor b of the lead at most lead
    # times that; lift f/lead until the modulus exceeds twice the bound.
    norm = math.isqrt(sum(c * c for c in f)) + 1
    target = 2 * lead * 2**n * norm + 1
    modulus = p
    while modulus < target:
        modulus *= modulus
    inv = pow(lead, -1, modulus)
    lifted = _hensel_lift_tree([c * inv % modulus for c in f], mods, p, modulus)

    # Recombination.  A subset of the lifted factors is a candidate b times
    # their product, b the lead of what remains, and it is multiplied out
    # only when two tests pass (Abbott, Shoup & Zimmermann, ISSAC 2000):
    # b times the product of their constant terms divides b times that of
    # what remains, and b times the sum of their x^(d-1) coefficients,
    # b times a sum of d <= n roots, is at most b*n times the Cauchy bound
    # 1 + max |f_i| on a root.
    trace_bound = n * (1 + max(abs(c) for c in f[:-1]))
    result: list[list[int]] = []
    remaining = f
    idxs = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(idxs):
        found = True
        while found:
            found = False
            b = remaining[-1]
            for combo in itertools.combinations(idxs, size):
                tc = _symmetric([b * math.prod(lifted[i][0] for i in combo)], modulus)
                if not tc or b * remaining[0] % tc[0]:
                    continue
                trace = _symmetric([b * sum(lifted[i][-2] for i in combo)], modulus)
                if trace and abs(trace[0]) > b * trace_bound:
                    continue
                cand = zx_primitive(_symmetric(
                    reduce(lambda u, v: zx_mul(u, v, modulus),
                           (lifted[i] for i in combo), [b]), modulus))
                quo, rem, _ = zx_divmod(remaining, cand)
                if not rem:
                    result.append(cand)
                    remaining = quo
                    idxs = [i for i in idxs if i not in combo]
                    found = True
                    break
        size += 1
    if len(remaining) - 1 >= 1:
        result.append(remaining)
    _require(reduce(zx_mul, result) == f,
             "recombined factors do not multiply back to the input")
    return result
