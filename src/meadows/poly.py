"""Univariate polynomial algebra over exact rationals.

A polynomial is a dense tuple of Fraction coefficients, index i holding the
coefficient of x^i, with a nonzero last entry; the empty tuple is the zero
polynomial, whose degree is reported as minus infinity.  Values are
immutable and hashable.

Besides ring arithmetic this module provides the pieces the normal-form and
emission layers are built on: monic gcd and the extended Euclidean identity,
rational roots by the rational-root theorem, squarefree parts, exact
Lagrange interpolation in weighted-product form, standardized
integer-over-common-denominator coefficients, a combinatorial oracle for
that standard form, and exact sums of a polynomial over all complex roots of
another via Newton's identities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ints import divisors
from .rationals import Rat

NEG_INFINITY = float("-inf")


class Poly:
    """Dense univariate polynomial over Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- construction helpers

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((Fraction(c),))

    @staticmethod
    def x(power: int = 1) -> "Poly":
        return Poly((0,) * power + (1,))

    # -- basic queries

    @property
    def degree(self):
        """Degree, or minus infinity for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    # -- arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return Poly(cs)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        if not self.coeffs or not other.coeffs:
            return Poly()
        if not any(other.coeffs[:-1]):  # a monomial c*x^k: scale and shift
            return Poly(other.coeffs[:-1] + self.scale(other.lead).coeffs)
        if not any(self.coeffs[:-1]):
            return Poly(self.coeffs[:-1] + other.scale(self.lead).coeffs)
        # Convolve integer numerators over the two common denominators.
        a, da = _integer_form(self.coeffs)
        b, db = _integer_form(other.coeffs)
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    cs[i + j] += ai * bj
        d = da * db
        return Poly([Fraction(c, d) for c in cs])

    __rmul__ = __mul__

    def scale(self, c: Fraction) -> "Poly":
        if c == 1:
            return self
        if c == 0:
            return Poly()
        return Poly(tuple(x * c for x in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [Fraction(0)] * (dq + 1)
        dcs = other.coeffs
        inv_lead = 1 / dcs[-1]
        for i in range(dq, -1, -1):
            c = rem[i + len(dcs) - 1] * inv_lead
            if c:
                quo[i] = c
                for j, d in enumerate(dcs):
                    rem[i + j] -= c * d
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def __call__(self, a) -> Fraction:
        """Evaluate by Horner's rule."""
        a = Fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    # -- normalization

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.lead)

    def content(self) -> Fraction:
        """Positive rational c with self = c * primitive integer polynomial
        (sign carried so the primitive part has positive leading
        coefficient); 0 for the zero polynomial."""
        if self.is_zero():
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        c = Fraction(num_gcd, den_lcm)
        return c if self.lead > 0 else -c

    def primitive(self) -> "Poly":
        """Integer-coefficient part with content 1 and positive leading
        coefficient (zero stays zero)."""
        if self.is_zero():
            return self
        return self.scale(1 / self.content())

    def int_coeffs(self) -> tuple[int, ...]:
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("polynomial has non-integer coefficients")
        return tuple(c.numerator for c in self.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def _integer_form(coeffs) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator l of the given
    Fraction coefficients: coeffs[i] = nums[i] / l."""
    l = 1
    for c in coeffs:
        l = l * c.denominator // math.gcd(l, c.denominator)
    return [c.numerator * (l // c.denominator) for c in coeffs], l


P_ZERO = Poly()
P_ONE = Poly.constant(1)
P_X = Poly.x()


# ---------------------------------------------------------------------------
# GCD and the extended Euclidean identity


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer coefficient lists (lc(b)^k * a mod b)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for j, bc in enumerate(b):
            a[shift + j] -= la * bc
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _int_primitive(a: list[int]) -> list[int]:
    g = 0
    for c in a:
        g = math.gcd(g, c)
    if g == 0:
        return []
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0.

    Runs the primitive-remainder Euclidean algorithm on integer
    coefficients to keep intermediate growth in check.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return P_ONE
    u = list(a.primitive().int_coeffs())
    v = list(b.primitive().int_coeffs())
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _int_primitive(_int_prem(u, v))
    return Poly(u).monic()


def poly_bezout(r: Poly, v: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: monic g = gcd(r, v) plus cofactors (g, rp, vp)
    satisfying r*vp + v*rp = g exactly.

    For coprime inputs this is the identity r*vp + v*rp = 1 that inverts
    residues in quotient rings.  Raises ValueError when both inputs are
    zero.
    """
    if r.is_zero() and v.is_zero():
        raise ValueError("gcd of two zero polynomials has no cofactors")
    r0, r1 = r, v
    s0, s1 = P_ONE, P_ZERO  # coefficients of r
    t0, t1 = P_ZERO, P_ONE  # coefficients of v
    while not r1.is_zero():
        q, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.lead
    g = r0.scale(1 / lead)
    return g, t0.scale(1 / lead), s0.scale(1 / lead)


# ---------------------------------------------------------------------------
# Rational roots


def rational_roots(p: Poly) -> set[Rat]:
    """All rational zeros of p, by the rational-root theorem.

    Works on the primitive integer form: every root n/m (in lowest terms)
    has n dividing the constant term and m dividing the leading
    coefficient.  Each candidate is verified exactly.  Raises ValueError on
    the zero polynomial.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    if p.is_constant():
        return set()
    cs = list(p.primitive().int_coeffs())
    roots: set[Rat] = set()
    low = 0
    while cs[low] == 0:
        low += 1
    if low:
        roots.add(Fraction(0))
        cs = cs[low:]
    if len(cs) <= 1:
        return roots
    const, lead = abs(cs[0]), abs(cs[-1])
    d = len(cs) - 1
    for n in divisors(const):
        for m in divisors(lead):
            if math.gcd(n, m) != 1:
                continue
            for cand_n in (n, -n):
                mpows = [m**k for k in range(d + 1)]
                acc = 0
                for i in range(d, -1, -1):
                    acc = acc * cand_n + cs[i] * mpows[d - i]
                if acc == 0:
                    roots.add(Fraction(cand_n, m))
    return roots


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), made primitive with positive leading
    coefficient: same roots as p, all with multiplicity one."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    g = poly_gcd(p, p.derivative())
    return p.exact_div(g).primitive()


# ---------------------------------------------------------------------------
# Lagrange interpolation in weighted-product form


def lagrange_weights(points: list[tuple[Rat, Rat]]) -> list[Rat]:
    """Per-point weights b_i = v_i / prod_{j != i} (a_i - a_j).

    These are the coefficients of the node products in the interpolating
    polynomial sum.  Raises ValueError on duplicate abscissae.
    """
    abscissae = [a for a, _ in points]
    if len(set(abscissae)) != len(abscissae):
        raise ValueError("duplicate abscissa")
    weights = []
    for i, (ai, vi) in enumerate(points):
        denom = Fraction(1)
        for j, (aj, _) in enumerate(points):
            if j != i:
                denom *= ai - aj
        weights.append(vi / denom)
    return weights


def lagrange_interpolate(points: list[tuple[Rat, Rat]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points,
    assembled as sum_i b_i * prod_{j != i} (x - a_j)."""
    weights = lagrange_weights(points)
    result = P_ZERO
    for i, b in enumerate(weights):
        node = Poly.constant(b)
        for j, (aj, _) in enumerate(points):
            if j != i:
                node = node * Poly((-aj, 1))
        result = result + node
    return result


# ---------------------------------------------------------------------------
# Standardized coefficients: integers over one common denominator


@dataclass(frozen=True, eq=False)
class StdPoly:
    """Polynomial written as (r_{k-1}*x^{k-1} + ... + r_0)/l: integer
    coefficient numerators over one positive common denominator.

    The pair is not forcibly reduced, so the same polynomial admits many
    representations; equality compares the denoted polynomials.
    """

    numerators: tuple[int, ...]  # index i = numerator of the x^i coefficient
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("common denominator must be positive")

    def to_poly(self) -> Poly:
        return Poly(tuple(Fraction(r, self.denominator) for r in self.numerators))

    def __eq__(self, other) -> bool:
        if isinstance(other, StdPoly):
            return self.to_poly() == other.to_poly()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.to_poly())

    def __str__(self) -> str:
        if not self.numerators:
            return f"(0)/{self.denominator}"
        body = str(Poly(self.numerators))
        return f"({body})/{self.denominator}"


def standardize(p: Poly) -> StdPoly:
    """Minimal common-denominator form of p: l is the lcm of the reduced
    coefficient denominators and the numerators are the scaled
    coefficients."""
    nums, l = _integer_form(p.coeffs)
    return StdPoly(tuple(nums), l)


def appendix_oracle(b: list[Rat], a: list[Rat]) -> StdPoly:
    """Standardized coefficients of sum_i b_i * prod_{j != i} (x - a_j),
    computed combinatorially instead of by polynomial expansion.

    With b_i = r_i/s_i and a_i = n_i/m_i, the coefficient of x^{k-1-j} is
    (-1)^j * sum_i [ r_i * m_i * prod_{l != i} s_l
                     * sum_{I in C(H_i, j)} prod_{h in I} n_h
                                           * prod_{h in H_i \\ I} m_h ]
    over the common denominator (prod_i s_i) * (prod_i m_i), where H_i is
    the index set without i and C(H_i, j) its size-j subsets.  Serves as an
    independent cross-check for standardize applied to the expanded sum.
    """
    k = len(a)
    if len(b) != k:
        raise ValueError("weight and abscissa sequences must have equal length")
    if len(set(a)) != k:
        raise ValueError("duplicate abscissa")
    r = [Fraction(x).numerator for x in b]
    s = [Fraction(x).denominator for x in b]
    n = [Fraction(x).numerator for x in a]
    m = [Fraction(x).denominator for x in a]
    s_all = math.prod(s)
    m_all = math.prod(m)
    nums_desc = []
    for j in range(k):
        total = 0
        for i in range(k):
            others = [h for h in range(k) if h != i]
            subset_sum = 0
            for chosen in itertools.combinations(others, j):
                chosen_set = set(chosen)
                prod = 1
                for h in others:
                    prod *= n[h] if h in chosen_set else m[h]
                subset_sum += prod
            total += r[i] * m[i] * (s_all // s[i]) * subset_sum
        nums_desc.append((-1) ** j * total)
    return StdPoly(tuple(reversed(nums_desc)), s_all * m_all)


# ---------------------------------------------------------------------------
# Exact sums over all complex roots (Newton's identities)


def power_sums(r: Poly, count: int) -> list[Rat]:
    """Power sums p_0..p_count of the complex roots of r, from its
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


def trace_sum(s: Poly, r: Poly) -> Rat:
    """Exact value of sum s(alpha) over all complex roots alpha of the
    squarefree polynomial r, as a rational number.

    Reduces s modulo r first, then contracts the residue against the power
    sums of r's roots.  Raises ValueError when r is constant, zero, or not
    squarefree.
    """
    if r.is_zero() or r.is_constant():
        raise ValueError("root sum needs a nonconstant polynomial")
    if poly_gcd(r, r.derivative()) != P_ONE:
        raise ValueError("polynomial must be squarefree")
    s = s % r
    if s.is_zero():
        return Fraction(0)
    ps = power_sums(r, len(s.coeffs) - 1)
    return sum((c * ps[i] for i, c in enumerate(s.coeffs)), Fraction(0))
