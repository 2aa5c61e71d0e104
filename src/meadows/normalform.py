"""Canonical semantic normal forms for univariate meadow terms.

A term denotes a function on the rational or complex meadow (division is
total with x/0 = 0).  Its normal form ``NF`` is a reduced rational function
num/den plus one correction: a primitive squarefree locus R in Z[x] and a
residue S in Q[x]/(R).  On every root of R the term takes the value of S
there; elsewhere it takes num/den, which is 0 where den vanishes.

For squarefree R the ring Q[x]/(R) is a product of fields, hence von
Neumann regular and itself a meadow: the inverse of a residue a is 0 on the
roots of gcd(a, R) and a^{-1} on the others (``quotient_inv``).  So one
residue modulo one R carries every correction, and normalization never
splits R into irreducibles (D5 dynamic evaluation, Della Dora, Dicrescenzo
& Duval, EUROCAL 1985).  The models differ only in ``loci``: over C all
irreducible factors, by factoring, over Q the linear factors of the
rational roots, found p-adically (``poly.rational_roots``).  So over Q
nothing is factored, and over C ``NF.support`` needs no loci.

The form is canonical: the base is reduced with a primitive, positive-
leading denominator, R holds exactly the points where the value differs
from the base's (``_make``) and deg S < deg R, so structural equality
coincides with semantic equality.  The per-locus views ``corrections`` and
``exceptions`` split R into its ``loci`` on first read; only output and
the checks use them.

Normalization interprets the term (``terms.interpret``) over polynomials
and normal forms: division-free subterms stay ``Poly`` values, a value
becomes an ``NF`` only when a division reaches it, a whole sum or product
chain is one operation, and no step recurses, so terms of any depth
normalize.  A sum of monomials c*x^k with literal coefficients, as input
polynomials are written, is read at once into one ``Poly``
(``terms.monomial_sum``); any other x^k is a chain of monomial shifts.
A linear residue, the only kind on partial-fraction sums, is inverted in
closed form; any other once per process, in a bounded cache.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .factor import CACHE_SIZE, _order_key, distinct_irreducible_factors
from .poly import (P_ONE, P_X, P_ZERO, Poly, poly_bezout, poly_sum, rational_roots,
                   squarefree_part, zx_gcd)
from .rationals import Rat, eval_closed, eval_term, meadow_div
from .terms import Term, interpret


class Model(enum.Enum):
    """Carrier meadow: rational numbers or complex numbers."""

    RAT = "q"
    COMPLEX = "c"


def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Cancel the gcd and normalize den to primitive, positive leading.
    A polynomial (den = 1) is already in that form."""
    if den == P_ONE:
        return num, den
    if num.is_zero():
        return P_ZERO, P_ONE
    g = _gcd(num, den)
    if g != P_ONE:
        num = num.exact_div(g)
        den = den.exact_div(g)
    return num.scale(1 / den.content), den.primitive()


def _gcd(a: Poly, b: Poly) -> Poly:
    """The gcd in primitive form, the form of every locus and modulus;
    gcd(0, 0) = 0."""
    if a.is_zero() or b.is_zero():
        return (a or b).primitive()
    if a.is_constant() or b.is_constant():
        return P_ONE
    return Poly.from_ints(zx_gcd(a.ints, b.ints))


def _quo(a: Poly, b: Poly) -> Poly:
    """Primitive part of the exact quotient a / b, for primitive a."""
    if b.is_constant():
        return a
    return P_ONE if a == b else a.exact_div(b).primitive()


def root(locus: Poly) -> Rat:
    """The rational point at which a linear locus vanishes."""
    return Fraction(-locus.ints[0], locus.ints[1])


def loci(p: Poly, model: Model) -> tuple[Poly, ...]:
    """The distinct irreducible factors of p whose roots are points of the
    model's carrier, canonically ordered: over C all of them, by
    factoring; over Q the linear factor m*x - n of each rational root n/m,
    without factoring.  The one place the model is consulted.  A linear p
    is its own locus in both models."""
    if p.degree == 1:
        return (p.primitive(),)
    if model is Model.COMPLEX:
        return distinct_irreducible_factors(p)
    return tuple(sorted((Poly.from_ints((-a.numerator, a.denominator))
                         for a in rational_roots(p)), key=_order_key))


def crt(a: Poly, m: Poly, b: Poly, n: Poly) -> Poly:
    """The residue modulo m*n that is a mod m and b mod n, for coprime m, n:
    the lower-degree modulus is inverted modulo the other, never mod m*n."""
    if n.is_constant():
        return a
    if m.is_constant():
        return b
    if m.degree < n.degree:
        a, m, b, n = b, n, a, m
    d = (a - b) % m
    return b if d.is_zero() else b + n * ((d * quotient_inv(n % m, m)) % m)


@dataclass(frozen=True)
class NF:
    """Reduced rational function plus one correction on a squarefree locus.

    On every root of ``locus`` the term takes the value of ``residue``
    there, deg residue < deg locus.  The locus is primitive with positive
    lead, squarefree and minimal: at none of its roots is the residue the
    base's value.  Off the locus the value is num/den, with zero
    denominators mapping to 0.  Without corrections the locus is 1 and the
    residue 0.
    """

    model: Model
    num: Poly
    den: Poly
    locus: Poly = P_ONE
    residue: Poly = P_ZERO

    def generic_mod(self, m: Poly) -> Poly:
        """Residue of the base alone modulo the squarefree m (0 at den's roots)."""
        if m.is_constant():
            return P_ZERO
        if self.den.is_constant():
            return self.num % m
        return (self.num % m * quotient_inv(self.den % m, m)) % m

    def value_mod(self, m: Poly) -> Poly:
        """Residue of the function modulo m, a squarefree multiple of the
        locus: the residue on the locus, the base on the rest."""
        rest = _quo(m, self.locus)
        return crt(self.residue, self.locus, self.generic_mod(rest), rest)

    def value_at(self, a: Rat) -> Rat:
        a = Fraction(a)
        if not self.locus(a):
            return self.residue(a)
        return meadow_div(self.num(a), self.den(a))

    @property
    def support(self) -> Poly:
        """lcm of the locus and the candidate part of den: every point
        where the value may differ from num/den.  The candidate part is the
        squarefree part of den off the locus, over Q only the product of
        its ``loci``; neither model factors."""
        if self.den.is_constant():
            return self.locus
        rest = self.den if self.den.degree == 1 else squarefree_part(self.den)
        rest = _quo(rest, _gcd(rest, self.locus))
        if self.model is Model.RAT and rest.degree > 1:
            rest = reduce(operator.mul, loci(rest, self.model), P_ONE)
        return self.locus * rest

    @cached_property
    def corrections(self) -> tuple[tuple[Poly, Poly], ...]:
        """Per-locus view: (r, residue mod r) for each of the ``loci`` r of
        the locus, ordered by degree then coefficients."""
        return tuple((r, self.residue % r) for r in loci(self.locus, self.model))

    @property
    def exceptions(self) -> tuple[tuple[Rat, Rat], ...]:
        """Point view of the corrections on linear loci: (point, value)
        pairs sorted by point.  Over Q these are all the corrections."""
        return tuple(sorted(
            (root(r), s.coeff(0)) for r, s in self.corrections if r.degree == 1
        ))

    def to_json_dict(self) -> dict:
        out = {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
        }
        if self.model is Model.RAT:
            out["exceptions"] = [
                {"point": str(pt), "value": str(v)} for pt, v in self.exceptions
            ]
        else:
            out["corrections"] = [
                {
                    "locus": [str(c) for c in locus.coeffs],
                    "value": [str(c) for c in s.coeffs],
                }
                for locus, s in self.corrections
            ]
        return out


def _make(model: Model, num: Poly, den: Poly, modulus: Poly, values: Poly) -> NF:
    """Normal form of the function that is num/den off the squarefree
    modulus and the residue ``values`` on it.  The reduced base is 0 on
    r0 = gcd(modulus, den) and num/den on r1 = modulus/r0; the locus keeps
    the roots of each where values differs from that."""
    base = NF(model, *_reduce(num, den))
    r0 = _gcd(modulus, base.den)
    r1 = _quo(modulus, r0)
    locus = P_ONE
    if not r0.is_constant():
        locus = _quo(r0, _gcd(r0, values))
    if not r1.is_constant():
        locus = locus * _quo(r1, _gcd(r1, values - base.generic_mod(r1)))
    if locus.is_constant():
        return base
    return NF(model, base.num, base.den, locus, values % locus)


def quotient_inv(a: Poly, modulus: Poly) -> Poly:
    """Meadow inverse of the residue a in Q[x]/(modulus), modulus
    squarefree: 0 on the roots of g = gcd(a, modulus) and a^{-1}, taken
    modulo modulus/g, on the others.  A constant inverts as a rational, a
    linear residue in closed form, any other by ``_bezout_inverse``."""
    if a.is_zero():
        return P_ZERO
    if a.is_constant():
        return Poly.constant(1 / a.content)
    if a.degree == 1:
        return _linear_inverse(a, modulus)
    return _bezout_inverse(a, modulus)


def _synthetic_division(p, e: int, b: int) -> tuple[list[int], int]:
    """(w, r) with b^n * p = (b*x - e) * w + r for the integer polynomial p
    of degree n: Horner's rule at e/b, homogenized, so r = b^n * p(e/b)."""
    acc, power, ts = 0, 1, []
    for c in reversed(p):
        acc = acc * e + c * power
        power *= b
        ts.append(acc)
    r, w, power = ts.pop(), [], 1
    for t in reversed(ts):
        w.append(t * power)
        power *= b
    return w, r


def _linear_inverse(a: Poly, modulus: Poly) -> Poly:
    """``quotient_inv`` of a = c*L, L = b*x - e primitive with root t = e/b,
    modulo M.  Synthetic division gives L*W = M - M(t).  If M(t) != 0,
    a^{-1} = -W/(c*M(t)).  Otherwise U = M/L, up to a constant, has
    U(t) != 0 as M is squarefree, V = -((U - U(t))/L)/(c*U(t)) inverts a
    modulo U, and V - (V(t)/U(t))*U is also 0 at t."""
    c, e, b = a.content, -a.ints[0], a.ints[1]
    w, r = _synthetic_division(modulus.ints, e, b)
    if r:
        return Poly.from_ints(w).scale(Fraction(-c.denominator, c.numerator * r))
    if len(w) == 1:
        return P_ZERO  # M is L up to a constant
    # U = w, of degree n - 1 = deg M - 1, and b^(n-1)*U = L*v + r_u, so
    # V = -v/(c*r_u) and V(t)/U(t) = -r_v/(c*r_u^2), r_v = b^(n-1)*v(t).
    v, r_u = _synthetic_division(w, e, b)
    r_v = b * _synthetic_division(v, e, b)[1]
    s = [r_v * w_k - r_u * v_k for w_k, v_k in zip(w, v + [0])]
    return Poly.from_ints(s).scale(Fraction(c.denominator, c.numerator * r_u * r_u))


# Only residues of degree 2 and more are memoized: constant and linear ones
# are inverted in closed form, need no Bezout and would only crowd the
# cache.  One extended Euclid per pair gives the gcd and the cofactor: the
# cofactor is the inverse when the gcd is 1, and a residue that shares a
# factor with the modulus is cached with its split inverse.
@lru_cache(maxsize=CACHE_SIZE)
def _bezout_inverse(a: Poly, modulus: Poly) -> Poly:
    g, _, inverse = poly_bezout(a, modulus)
    if g == P_ONE:
        return inverse % modulus
    g = g.primitive()
    unit = _quo(modulus, g)
    return crt(quotient_inv(a % unit, unit), unit, P_ZERO, g)


# ---------------------------------------------------------------------------
# Closure operations


def nf_neg(a: NF) -> NF:
    return NF(a.model, -a.num, a.den, a.locus, -a.residue)


def _combine(values: tuple[NF | Poly, ...], merge, op, base) -> NF:
    """Sum or product of normal forms and polynomials, at least one a normal
    form: ``merge`` on any number of polynomials, merge() the unit, ``op``
    on two.  Polynomials merge into one first; ``base`` gives the unreduced
    num/den of all operands.  Every point that may need a correction is a
    root of the lcm of the operands' supports, where op combines residues."""
    rest = [v for v in values if type(v) is NF]
    model = rest[0].model
    if any(nf.model is not model for nf in rest):
        raise TypeError("cannot combine normal forms of different models")
    p = merge(*(v for v in values if type(v) is Poly))
    if len(rest) == 1 and op is operator.mul and p.is_constant() and p:
        nf, k = rest[0], p.content  # a scale keeps the base reduced, the locus minimal
        return NF(model, nf.num.scale(k), nf.den, nf.locus, nf.residue.scale(k))
    if p != merge():
        rest.append(NF(model, p, P_ONE))
    if len(rest) == 1:
        return rest[0]
    modulus = P_ONE
    for m in {nf.support for nf in rest}:
        modulus = m if modulus.is_constant() else modulus * _quo(m, _gcd(modulus, m))
    residue = reduce(lambda s, nf: op(s, nf.value_mod(modulus)) % modulus,
                     rest, merge())
    return _make(model, *base(rest), modulus, residue)


def _sum_base(nfs: list[NF]) -> tuple[Poly, Poly]:
    num, den = nfs[0].num, nfs[0].den
    for nf in nfs[1:]:
        g = _gcd(den, nf.den)
        a, b = nf.den.exact_div(g), den.exact_div(g)
        num, den = num * a + nf.num * b, den * a
    return num, den


def _product_base(nfs: list[NF]) -> tuple[Poly, Poly]:
    return (reduce(operator.mul, (nf.num for nf in nfs)),
            reduce(operator.mul, (nf.den for nf in nfs)))


def nf_add(*values: NF | Poly) -> NF:
    """Sum of normal forms and polynomials (at least one normal form),
    over the lcm of their denominators."""
    return _combine(values, poly_sum, operator.add, _sum_base)


def nf_mul(*values: NF | Poly) -> NF:
    """Product of normal forms and polynomials (at least one normal
    form)."""
    return _combine(values, lambda *ps: reduce(operator.mul, ps, P_ONE), operator.mul,
                    _product_base)


def nf_inv(a: NF) -> NF:
    """Meadow inverse of a normal form: the base swaps to den/num (0/1 when
    num is zero) and the residue is inverted in Q[x]/(locus).  No new
    exceptional point appears: at an uncorrected root of den both the old
    value and the new generic value are 0, and symmetrically at roots of
    num."""
    inverse = quotient_inv(a.residue, a.locus)
    if a.num.is_zero():
        return _make(a.model, P_ZERO, P_ONE, a.locus, inverse)
    return _make(a.model, a.den, a.num, a.locus, inverse)


# ---------------------------------------------------------------------------
# Term evaluation in quotient rings and normalization


def eval_term_mod(t: Term, r: Poly) -> Poly:
    """Residue of a term in Q[x]/(r) for squarefree r: the s with deg s <
    deg r that takes the term's value at every root of r.  Division takes
    the meadow inverse of the quotient ring (``quotient_inv``)."""
    if r.is_constant() or squarefree_part(r).degree != r.degree:
        raise ValueError("modulus must be nonconstant and squarefree")
    return interpret(t, lambda n: Poly.constant(n) % r, lambda: P_X % r,
                     operator.neg, lambda *v: poly_sum(*v) % r,
                     lambda *v: reduce(lambda a, b: (a * b) % r, v),
                     lambda a: quotient_inv(a, r),
                     lambda nums, den: Poly.from_ints(nums, den) % r)


def normalize(t: Term, model: Model) -> NF:
    """Normal form of a term in the given model.

    The term is interpreted in an algebra whose values are polynomials or
    normal forms.  Constants and the variable are polynomials, and so are
    negations, sums and products of polynomials and inverses of constants
    (0 inverting to 0).  The inverse of a nonconstant polynomial is the
    first normal form (nf_inv of the polynomial over 1); a sum or product
    chain with a normal form in it maps to one nf_add or nf_mul.  The
    value at the root is lifted to a normal form, which evaluates exactly
    like the term everywhere on the model's carrier.
    """

    def neg(v):
        return nf_neg(v) if type(v) is NF else -v

    def add(*vs):
        return nf_add(*vs) if any(type(v) is NF for v in vs) else poly_sum(*vs)

    def mul(*vs):
        if any(type(v) is NF for v in vs):
            return nf_mul(*vs)
        return reduce(operator.mul, vs)

    def inv(v):
        if type(v) is NF:
            return nf_inv(v)
        if v.is_constant():
            return Poly.constant(1 / v.content) if v else P_ZERO
        return nf_inv(NF(model, v, P_ONE))

    out = interpret(t, Poly.constant, lambda: P_X, neg, add, mul, inv, Poly.from_ints)
    return out if type(out) is NF else NF(model, out, P_ONE)


__all__ = [
    "Model",
    "NF",
    "eval_closed",
    "eval_term",
    "eval_term_mod",
    "nf_add",
    "nf_inv",
    "nf_mul",
    "nf_neg",
    "normalize",
]
