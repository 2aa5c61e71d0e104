"""Univariate polynomial algebra over exact rationals.

A polynomial is a rational content times a primitive integer polynomial:
``ints`` holds integers with gcd 1 and a positive last entry, index i the
coefficient of x^i, and the Fraction ``content`` carries the sign.  Zero
is content 0 with no coefficients; its degree is minus infinity.  Values
are immutable and hashable; the Fraction coefficients ``coeffs`` are
derived on first read.

All arithmetic runs on one integer kernel on coefficient lists, over Z or
modulo m (``zx_*``), shared with factorization: by Gauss's lemma a product
is one integer convolution times one rational product, a sum one
rescaling to a common denominator and one gcd, a division one
pseudo-division over Z, and an exact division one early-exit division
over Z.

The gcd (``zx_gcd``) runs the primitive-remainder Euclid (``zx_euclid``)
modulo a prime, as factorization needs it; over Z it first tries three
shortcuts, each accepted only on a proof: the lower-degree input dividing
the other (checked by exact division; a linear one that does not divide
is coprime to it); the heuristic gcd of Char, Geddes & Gonnet, one
integer gcd of two values read back as digits (checked by exact division,
which for the chosen evaluation point proves the candidate is the gcd);
and a constant gcd of the images modulo one prime dividing neither lead
(the image of the gcd over Z divides it and keeps its degree, so the
inputs are coprime).  Euclid over Z runs only when all three give up.

The one extended Euclid (``zx_xgcd``) serves the Hensel lift modulo a
prime and Bezout over Q, whose identity is the integer one rescaled by
the contents.  On top of the kernel: the monic gcd over Q, rational
roots, squarefree parts, Lagrange interpolation in weighted-product form,
standardized integer-over-common-denominator coefficients with a
combinatorial oracle for them, and exact sums of a polynomial over all
complex roots of another by one remainder.

Rational roots are read p-adically, without factoring: a root n/m of the
squarefree part f has m | lead and n | const, so lead*n/m is an integer
of size at most |lead*const|, equal to the symmetric residue of lead
times the root lifted modulo a prime power past twice that bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rationals import Rat

NEG_INFINITY = float("-inf")

CACHE_SIZE = 512  # entries kept by each memo of the package


# ---------------------------------------------------------------------------
# The integer kernel: coefficient lists (index i = coefficient of x^i) over
# Z, or over Z/m when a modulus m is given.  Inputs are trimmed (no zero
# last entry), and reduced mod m where m is given.


def zx_trim(a: list[int]) -> list[int]:
    """Drop zero leading coefficients in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def zx_add(a, b, m: int | None = None) -> list[int]:
    out = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    return zx_trim(out if m is None else [c % m for c in out])


def zx_sub(a, b, m: int | None = None) -> list[int]:
    return zx_add(a, [-c for c in b], m)


def zx_mul(a, b, m: int | None = None) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return zx_trim(out if m is None else [c % m for c in out])


def zx_divmod(a, b, m: int | None = None) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s*a = q*b + r and deg r < deg b.

    Modulo m the lead of b must be invertible and s = 1.  Over Z this is
    pseudo-division: whenever the lead of b does not divide the current
    leading coefficient, the remainder and the quotient so far are scaled
    by the smallest integer that makes it divide, so s = 1 for a divisor
    with lead 1 and s divides lead(b)^(deg a - deg b + 1) otherwise.
    Raises ZeroDivisionError on the zero divisor.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = len(b) - 1, b[-1]
    rem = list(a) if m is None else [c % m for c in a]
    if len(a) - 1 < db:
        return [], zx_trim(rem), 1
    inv = None if m is None else pow(lb, -1, m)
    quo = [0] * (len(a) - db)
    s = 1
    # Modulo m the remainder is reduced once at the end; only each leading
    # coefficient is reduced as it is used.
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[i + db]
        if m is not None:
            c = c * inv % m
        elif c % lb:
            g = math.gcd(c, lb)
            f = abs(lb) // g
            rem = [x * f for x in rem]
            quo = [x * f for x in quo]
            s *= f
            c = c * f // lb
        else:
            c //= lb
        if not c:
            continue
        quo[i] = c
        for j, bj in enumerate(b):
            rem[i + j] -= c * bj
    rem = rem[:db] if m is None else [c % m for c in rem[:db]]
    return zx_trim(quo), zx_trim(rem), s


def zx_primitive(a: list[int], m: int | None = None) -> list[int]:
    """a divided by its content: over Z by the gcd of its entries, signed
    so the lead is positive; modulo m by its lead, so it is monic."""
    if not a:
        return a
    if m is not None:
        inv = pow(a[-1], -1, m)
        return zx_trim([c * inv % m for c in a])
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def zx_exact_quo(a, b) -> list[int] | None:
    """The quotient a / b over Z when b divides a in Z[x], else None.

    Long division that gives up at the first leading coefficient the lead
    of b does not divide, so a failed test mostly costs one step.  Raises
    ZeroDivisionError on the zero divisor."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = len(b) - 1, b[-1]
    if len(a) - 1 < db:
        return None if a else []
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c, r = divmod(rem[i + db], lb)
        if r:
            return None
        if c:
            quo[i] = c
            for j in range(db):
                rem[i + j] -= c * b[j]
    return None if any(rem[:db]) else quo


def zx_euclid(a, b, m: int | None = None) -> list[int]:
    """Greatest common divisor, primitive over Z and monic modulo m; the
    gcd of two zeros is zero.  Over Z each remainder is made primitive
    (the primitive-remainder Euclidean algorithm) to keep growth in check."""
    if m is not None:
        a, b = zx_trim([c % m for c in a]), zx_trim([c % m for c in b])
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, zx_primitive(zx_divmod(a, b, m)[1], m)
    return zx_primitive(a, m)


def zx_xgcd(a, b, m: int | None = None) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g, a gcd: monic modulo m, over Z a
    multiple of the primitive gcd; ([], [1], []) for two zeros.  Rows
    (r, s, t) keep s*a + t*b = r; a step k*r0 = q*r1 + r (``zx_divmod``)
    makes k*row0 - q*row1 the next, over Z divided by the gcd of all its
    entries, so each row is a multiple of the Euclid row over Q."""
    (r0, s0, t0), (r1, s1, t1) = (list(a), [1], []), (list(b), [], [1])
    while r1:
        q, r, k = zx_divmod(r0, r1, m)
        if not r:  # the cofactors of the zero row are never read
            r0, s0, t0 = r1, s1, t1
            break
        s = zx_sub([k * c for c in s0], zx_mul(q, s1, m), m)
        t = zx_sub([k * c for c in t0], zx_mul(q, t1, m), m)
        if m is None:
            g = math.gcd(*r, *s, *t)
            if g > 1:
                r, s, t = ([c // g for c in row] for row in (r, s, t))
        (r0, s0, t0), (r1, s1, t1) = (r1, s1, t1), (r, s, t)
    if m is not None and r0:
        inv = pow(r0[-1], -1, m)
        r0, s0, t0 = ([c * inv % m for c in row] for row in (r0, s0, t0))
    return r0, s0, t0


# The prime of the coprimality image: the largest prime below 2^30, so
# every residue is one CPython digit and a product of two fits a machine
# word.  Any prime is correct; a larger one is less often unlucky.
_IMAGE_PRIME = 1073741789


def zx_gcd(a, b, m: int | None = None) -> list[int]:
    """Greatest common divisor, primitive over Z and monic modulo m; the
    gcd of two zeros is zero.

    Modulo m, and over Z when an input is constant or zero, this is
    ``zx_euclid``.  Over Z three exact shortcuts run first, on the
    primitive parts A, B with deg A >= deg B, and Euclid runs only when
    all three give up:

    1. If B divides A, B is the gcd: every common divisor divides B, and B
       is primitive with a positive lead.  One early-exit exact division.
       Otherwise a linear B, being primitive and so irreducible, is
       coprime to A.
    2. The heuristic gcd (``_heuristic_gcd``), whose candidate is accepted
       only when it divides A and B exactly, which for its evaluation
       points proves it is the gcd.
    3. For a prime p dividing neither lead, the gcd of the images modulo p
       has degree at least that of the gcd over Z, whose image it divides
       and whose lead p does not divide: a constant image proves A and B
       coprime.
    """
    if m is not None or len(a) < 2 or len(b) < 2:
        return zx_euclid(a, b, m)
    a, b = zx_primitive(a), zx_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    if zx_exact_quo(a, b) is not None:
        return list(b)
    if len(b) == 2:  # a primitive linear B is irreducible
        return [1]
    g = _heuristic_gcd(a, b)
    if g is not None:
        return g
    p = _IMAGE_PRIME
    if a[-1] % p and b[-1] % p and len(zx_euclid(a, b, p)) == 1:
        return [1]
    return zx_euclid(a, b)


def _heuristic_gcd(a, b) -> list[int] | None:
    """The gcd of the primitive a and b by GCDHEU (Char, Geddes & Gonnet,
    J. Symbolic Computation 7, 1989), or None when it gives up.

    At an integer xi, gamma = gcd(a(xi), b(xi)) is one integer gcd, and
    its symmetric xi-adic digits form G with G(xi) = gamma.  If pp(G)
    divides a and b it divides their gcd g, say g = pp(G)*h; g(xi) divides
    gamma = c*pp(G)(xi) with c the content of G, so h(xi) divides c, and
    |c| <= |lead G| <= xi/2.  With xi >= 2*min(|a|, |b|) + 2 (max norms),
    every root of a nonconstant h has absolute value below 1 + |a| and
    1 + |b| (Cauchy), so |h(xi)| > xi/2: h is constant and pp(G) = g.
    """
    # The proof needs only +2; the +29 keeps xi above 30 on inputs with
    # tiny coefficients, whose values at a small xi share spurious factors.
    # The growth 73794/27011, about 1 + sqrt 3, is that of the published
    # algorithm (Geddes, Czapor & Labahn, Algorithms for Computer Algebra,
    # section 7.7): successive xi are not powers of a common base.  Six
    # tries, as in SymPy's heuristic gcd (HEU_GCD_MAX).
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        gamma = math.gcd(_zx_eval(a, xi), _zx_eval(b, xi))
        digits, half = [], xi // 2
        while gamma:
            gamma, d = divmod(gamma, xi)
            if d > half:
                d -= xi
                gamma += 1
            digits.append(d)
        g = zx_primitive(digits)
        if zx_exact_quo(b, g) is not None and zx_exact_quo(a, g) is not None:
            return g
        xi = xi * 73794 // 27011
    return None


def _zx_eval(a, n: int) -> int:
    """a(n) by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * n + c
    return v


# ---------------------------------------------------------------------------
# Polynomials over Q: rational content times a primitive integer tuple


class Poly:
    """Univariate polynomial over Q: ``content * ints``."""

    __slots__ = ("content", "ints", "_coeffs")

    def __new__(cls, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        return _scaled([c.numerator * (den // c.denominator) for c in cs], 1, den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- construction helpers

    @staticmethod
    def constant(c) -> "Poly":
        if type(c) is int:
            return _int_constant(c)
        c = Fraction(c)
        return _poly(c, (1,)) if c else P_ZERO

    @staticmethod
    def x(power: int = 1) -> "Poly":
        return _poly(Fraction(1), (0,) * power + (1,))

    @staticmethod
    def from_ints(nums, den: int = 1) -> "Poly":
        """The polynomial sum_i nums[i]/den * x^i from integers."""
        return _scaled(list(nums), 1, den)

    # -- basic queries

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Fraction coefficients, index i holding that of x^i, with a
        nonzero last entry; built on first read."""
        try:
            return self._coeffs
        except AttributeError:
            n, d = self.content.numerator, self.content.denominator
            cs = tuple(Fraction(n * c, d) for c in self.ints)
            _set_coeffs(self, cs)
            return cs

    @property
    def degree(self):
        """Degree, or minus infinity for the zero polynomial."""
        return len(self.ints) - 1 if self.ints else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return len(self.ints) <= 1

    @property
    def lead(self) -> Fraction:
        return self.content * self.ints[-1] if self.ints else self.content

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.ints):
            return self.content * self.ints[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.ints)

    # Contents compare and hash by numerator and denominator: Fraction's own
    # equality and hash are several times slower on these hot paths.
    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            c, d = self.content, other.content
            return (self.ints == other.ints and c.numerator == d.numerator
                    and c.denominator == d.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ints, self.content.numerator, self.content.denominator))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    # -- arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        if not other.ints:
            return self
        if not self.ints:
            return other
        ca, cb = self.content, other.content
        da, db = ca.denominator, cb.denominator
        den = da * db // math.gcd(da, db)
        fa, fb = ca.numerator * (den // da), cb.numerator * (den // db)
        g = math.gcd(fa, fb)
        fa, fb = fa // g, fb // g
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [fa * c for c in a]
        for i, c in enumerate(b):
            out[i] += fb * c
        return _scaled(out, g, den)

    def __neg__(self) -> "Poly":
        return _poly(-self.content, self.ints) if self.ints else self

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.ints, other.ints
        if not a or not b:
            return P_ZERO
        # Primitive factors (every normal-form denominator and locus) have
        # content 1: no Fraction product then.
        ca, cb = self.content, other.content
        content = cb if ca == 1 else ca if cb == 1 else ca * cb
        # A monomial c*x^k (constants included) is a scale and a shift.
        if not any(b[:-1]):
            return _poly(content, b[:-1] + a)
        if not any(a[:-1]):
            return _poly(content, a[:-1] + b)
        # Gauss's lemma: the product of primitive polynomials is primitive.
        return _poly(content, tuple(zx_mul(a, b)))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if c == 1:
            return self
        if c == 0 or not self.ints:
            return P_ZERO
        return _poly(self.content * c, self.ints)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = P_ONE
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
        if len(self.ints) < len(other.ints):
            return P_ZERO, self
        # s*A = Q*B + R for the integer parts, so with self = ca*A and
        # other = cb*B: self = (ca/(s*cb))*Q * other + (ca/s)*R.
        q, r, s = zx_divmod(self.ints, other.ints)
        ca, cb = self.content, other.content
        return (_scaled(q, ca.numerator * cb.denominator,
                        ca.denominator * cb.numerator * s),
                _scaled(r, ca.numerator, ca.denominator * s))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        """self / other when other divides self, else ValueError.  By
        Gauss's lemma a primitive divisor of a primitive polynomial over Q
        divides it over Z, with a primitive, positive-leading quotient."""
        q = zx_exact_quo(self.ints, other.ints)
        if q is None:
            raise ValueError("division is not exact")
        return _poly(self.content / other.content, tuple(q)) if q else P_ZERO

    def __call__(self, a) -> Fraction:
        """Evaluate by Horner's rule on the integer part: with a = n/d,
        d^deg * A(a) is an integer."""
        a = Fraction(a)
        n, d = a.numerator, a.denominator
        acc, dpow = 0, 1
        for c in reversed(self.ints):
            acc = acc * n + c * dpow
            dpow *= d
        return self.content * Fraction(acc, dpow // d) if self.ints else self.content

    def derivative(self) -> "Poly":
        c = self.content
        return _scaled([i * x for i, x in enumerate(self.ints) if i],
                       c.numerator, c.denominator)

    # -- normalization

    def monic(self) -> "Poly":
        if not self.ints:
            return self
        return _poly(Fraction(1, self.ints[-1]), self.ints)

    def primitive(self) -> "Poly":
        """Integer-coefficient part with content 1 and positive leading
        coefficient (zero stays zero)."""
        if not self.ints or self.content == 1:
            return self
        return _poly(Fraction(1), self.ints)

    def int_coeffs(self) -> tuple[int, ...]:
        c = self.content
        if c.denominator != 1:
            raise ValueError("polynomial has non-integer coefficients")
        return self.ints if c == 1 else tuple(c.numerator * x for x in self.ints)

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


_set_content = Poly.content.__set__
_set_ints = Poly.ints.__set__
_set_coeffs = Poly._coeffs.__set__


def _poly(content: Fraction, ints: tuple[int, ...]) -> Poly:
    """The polynomial content * ints, for primitive ints with positive lead."""
    p = object.__new__(Poly)
    _set_content(p, content)
    _set_ints(p, ints)
    return p


def _scaled(nums: list[int], num: int, den: int) -> Poly:
    """The polynomial (num/den) * nums: one gcd pass over the integer list,
    one Fraction for the content."""
    zx_trim(nums)
    if not nums or not num:
        return P_ZERO
    prim = zx_primitive(nums)
    return _poly(Fraction(num * (nums[-1] // prim[-1]), den), tuple(prim))


@lru_cache(maxsize=CACHE_SIZE)
def _int_constant(n: int) -> Poly:
    """One shared Poly per integer, such as each integer leaf of a term."""
    return _poly(Fraction(n), (1,)) if n else P_ZERO


P_ZERO = _poly(Fraction(0), ())
P_ONE = Poly.constant(1)
P_X = Poly.x()


def poly_sum(*ps: Poly) -> Poly:
    """Sum of any number of polynomials: each integer part rescaled once to
    the lcm of the content denominators, then one gcd."""
    ps = [p for p in ps if p.ints]
    if len(ps) < 2:
        return ps[0] if ps else P_ZERO
    den = math.lcm(*[p.content.denominator for p in ps])
    out = [0] * max(len(p.ints) for p in ps)
    for p in ps:
        c = p.content
        f = c.numerator * (den // c.denominator)
        for i, a in enumerate(p.ints):
            if a:
                out[i] += f * a
    return _scaled(out, 1, den)


# ---------------------------------------------------------------------------
# GCD and the extended Euclidean identity


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, of the integer parts by ``zx_gcd``;
    gcd(0, 0) = 0."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return P_ONE
    g = zx_gcd(a.ints, b.ints)
    return _poly(Fraction(1, g[-1]), tuple(g))


def poly_bezout(r: Poly, v: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: monic g = gcd(r, v) plus cofactors (g, rp, vp)
    satisfying r*vp + v*rp = g exactly, the cofactors of Euclid over Q.

    For coprime inputs this is the identity r*vp + v*rp = 1 that inverts
    residues in quotient rings.  Raises ValueError when both inputs are
    zero.
    """
    if r.is_zero() and v.is_zero():
        raise ValueError("gcd of two zero polynomials has no cofactors")
    # s*A + t*B = G for the integer parts, so with r = cr*A and v = cv*B:
    # r*(s/(cr*lead G)) + v*(t/(cv*lead G)) = G/lead G.
    g, s, t = zx_xgcd(r.ints, v.ints)
    lead, cr, cv = g[-1], r.content, v.content
    return (_scaled(g, 1, lead), _scaled(t, cv.denominator, cv.numerator * lead),
            _scaled(s, cr.denominator, cr.numerator * lead))


# ---------------------------------------------------------------------------
# Rational roots


def odd_primes_from(start: int):
    """Yield the odd primes >= start, ascending, by trial division: every
    prime asked for is small."""
    n = max(3, start | 1)
    while True:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


@lru_cache(maxsize=CACHE_SIZE)
def rational_roots(p: Poly) -> frozenset[Rat]:
    """All rational zeros of p, read p-adically, without factoring.
    Raises ValueError on the zero polynomial.  Memoized: the rational
    model asks for the roots of the same supports and loci again and
    again.

    Let f be the squarefree part of p without its factor x: primitive,
    with lead l and constant term c != 0.  A root n/m of f in lowest terms
    has m | l and n | c (the rational-root theorem), so l*n/m is an
    integer of absolute value at most |l*c|.  Let q be the first odd prime
    that does not divide l and keeps f squarefree modulo q.  Then n/m is a
    simple root of f modulo q, and distinct rational roots stay distinct
    modulo q.  Newton's iteration lifts a simple root modulo q to the
    unique root r of f modulo M = q^(2^k) above it, so r = n/m modulo M.
    Once M > 2*|l*c|, the symmetric residue of l*r modulo M is l*n/m
    itself.  Lifting every root of f modulo q and reading it back this
    way yields every rational root among the candidates, and each
    candidate is kept only if p vanishes there exactly.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    roots = {Fraction(0)} if p.ints[0] == 0 else set()
    f = squarefree_part(p).ints
    f = f[1:] if f[0] == 0 else f  # f is squarefree: x divides it at most once
    if len(f) < 2:
        return frozenset(roots)
    df = [i * c for i, c in enumerate(f) if i]
    lead = f[-1]
    q = next(q for q in odd_primes_from(3)
             if lead % q and len(zx_euclid(f, df, q)) == 1)
    bound = 2 * abs(lead * f[0])
    fq = [c % q for c in f]
    for r in range(q):
        if _zx_eval(fq, r) % q:
            continue
        m = q
        while m <= bound:
            m *= m
            r = (r - _zx_eval(f, r) * pow(_zx_eval(df, r), -1, m)) % m
        a = lead * r % m
        a = Fraction(a - m if a > m // 2 else a, lead)
        if not p(a):
            roots.add(a)
    return frozenset(roots)


@lru_cache(maxsize=CACHE_SIZE)
def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), made primitive with positive leading
    coefficient: same roots as p, all with multiplicity one.  Memoized:
    normal forms, trace sums and factoring ask for the same ones."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    g = poly_gcd(p, p.derivative())
    return p.primitive() if g == P_ONE else p.exact_div(g).primitive()


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
        return Poly.from_ints(self.numerators, self.denominator)

    def __eq__(self, other) -> bool:
        if isinstance(other, StdPoly):
            return self.to_poly() == other.to_poly()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.to_poly())

    def __str__(self) -> str:
        if not self.numerators:
            return f"(0)/{self.denominator}"
        body = str(Poly.from_ints(self.numerators))
        return f"({body})/{self.denominator}"


def standardize(p: Poly) -> StdPoly:
    """Minimal common-denominator form of p: l is the lcm of the reduced
    coefficient denominators and the numerators are the scaled
    coefficients.  With p = (n/l) * ints and ints primitive, that lcm is
    the content's denominator l itself."""
    n = p.content.numerator
    return StdPoly(tuple(n * c for c in p.ints), p.content.denominator)


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
# Exact sums over all complex roots


def trace_sum(s: Poly, r: Poly) -> Rat:
    """Exact value of sum s(alpha) over all complex roots alpha of the
    squarefree polynomial r, as a rational number.

    s*r'/r is a polynomial plus the sum of s(alpha)/(x - alpha), so the
    x^(d-1) coefficient of s*r' mod r is lc(r) times the sum: one
    remainder, no root extraction.  Raises ValueError when r is constant,
    zero, or not squarefree.
    """
    if r.is_zero() or r.is_constant():
        raise ValueError("root sum needs a nonconstant polynomial")
    if squarefree_part(r).degree != r.degree:
        raise ValueError("polynomial must be squarefree")
    return (s * r.derivative() % r).coeff(r.degree - 1) / r.lead
