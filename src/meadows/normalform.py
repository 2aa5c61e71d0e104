"""Canonical semantic normal forms for univariate meadow terms.

A term denotes a function on the rational or complex meadow (division is
total with x/0 = 0).  Its normal form ``NF`` is a reduced rational function
num/den together with finitely many corrections recording where the term's
value departs from the reduced fraction.  A correction (r, s) pairs an
irreducible locus r with a residue s in Q[x]/(r): on every root of r the
term takes the value of s there.

The two models differ only in which irreducible factors of a denominator
become candidate loci: all of them over C, the linear ones over Q.  A
rational point a is the root of a linear locus, and a residue modulo a
linear locus is the constant value at that root, so the rational model's
exceptional points are its linear corrections (the ``exceptions`` view).

The form is canonical: the base is reduced with a primitive, positive-
leading denominator, corrections are minimal (never equal to the value the
base already gives) and ordered by locus degree then coefficients, so
structural equality coincides with semantic equality.  Normalization
interprets the term (``terms.interpret``) over polynomials and normal
forms: division-free subterms stay ``Poly`` values (x^k is a chain of
monomial shifts), a value becomes an ``NF`` only when a division reaches
it, a whole sum or product chain is one operation, and no step recurses,
so terms of any depth normalize.  Each Bezout inverse in Q[x]/(r) is
computed once per process, in a bounded cache like the factor caches.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .factor import CACHE_SIZE, _order_key, distinct_irreducible_factors
from .poly import P_ONE, P_X, P_ZERO, Poly, poly_bezout, poly_gcd, poly_sum
from .rationals import Rat, eval_closed, eval_term, meadow_div
from .terms import Term, interpret


class Model(enum.Enum):
    """Carrier meadow: rational numbers or complex numbers."""

    RAT = "q"
    COMPLEX = "c"


class LocusMustSplitError(ValueError):
    """Quotient-ring evaluation met a zero divisor: the modulus is not
    irreducible and must be split into its factors."""

    def __init__(self, locus: Poly, divisor: Poly):
        super().__init__(
            f"locus must be split: {locus} shares factor {divisor} with a residue"
        )
        self.locus = locus
        self.divisor = divisor


def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Cancel the gcd and normalize den to primitive, positive leading.
    A polynomial (den = 1) is already in that form."""
    if den == P_ONE:
        return num, den
    if num.is_zero():
        return P_ZERO, P_ONE
    g = poly_gcd(num, den)
    if g != P_ONE:
        num = num.exact_div(g)
        den = den.exact_div(g)
    return num.scale(1 / den.content), den.primitive()


def root(locus: Poly) -> Rat:
    """The rational point at which a linear locus vanishes."""
    return Fraction(-locus.ints[0], locus.ints[1])


def candidate_loci(model: Model, den: Poly) -> tuple[Poly, ...]:
    """Irreducible factors of den that the model tracks as loci, in
    canonical order: all of them over C, the linear ones over Q."""
    if den == P_ONE:
        return ()
    loci = distinct_irreducible_factors(den)
    if model is Model.RAT:
        return tuple(r for r in loci if r.degree == 1)
    return loci


@dataclass(frozen=True)
class NF:
    """Reduced rational function plus corrections on irreducible loci.

    Each correction (r, s) states that on every root of r the term takes
    the value of s there, with deg s < deg r; the loci are irreducible over
    Q, primitive with positive leading coefficient, pairwise distinct,
    minimal against the base and ordered by degree then coefficients.  Over
    Q every locus is linear.  Off all loci the value is num/den with zero
    denominators mapping to 0.
    """

    model: Model
    num: Poly
    den: Poly
    corrections: tuple[tuple[Poly, Poly], ...]

    def generic_mod(self, r: Poly) -> Poly:
        """Residue modulo r of the base alone (0 where r divides den)."""
        d = self.den % r
        if d.is_zero():
            return P_ZERO
        return (self.num % r * quotient_inv(d, r)) % r

    def value_mod(self, r: Poly) -> Poly:
        for locus, s in self.corrections:
            if locus == r:
                return s
        return self.generic_mod(r)

    def value_at(self, a: Rat) -> Rat:
        a = Fraction(a)
        for locus, s in self.corrections:
            if locus(a) == 0:
                return s(a)
        return meadow_div(self.num(a), self.den(a))

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


def _make(model: Model, num: Poly, den: Poly, candidates: dict[Poly, Poly]) -> NF:
    base = NF(model, *_reduce(num, den), ())
    kept = tuple(
        (r, candidates[r])
        for r in sorted(candidates, key=_order_key)
        if candidates[r] != base.generic_mod(r)
    )
    return NF(model, base.num, base.den, kept)


def quotient_inv(a: Poly, modulus: Poly) -> Poly:
    """Meadow inverse in Q[x]/(modulus): 0 maps to 0, a nonzero constant
    to its rational inverse, anything else to its Bezout inverse.  Detects
    reducible moduli via a nonunit gcd."""
    if a.is_zero():
        return P_ZERO
    if a.is_constant():
        return Poly.constant(1 / a.content)
    return _bezout_inverse(a, modulus)


# Only nonconstant residues are memoized: the constant ones (every residue
# modulo a linear locus) need no Bezout and would only crowd the cache.
# A reducible modulus raises on every call, as exceptions are not cached.
@lru_cache(maxsize=CACHE_SIZE)
def _bezout_inverse(a: Poly, modulus: Poly) -> Poly:
    g, _, vp = poly_bezout(a, modulus)
    if g != P_ONE:
        raise LocusMustSplitError(modulus, g)
    return vp % modulus


# ---------------------------------------------------------------------------
# Closure operations


def nf_neg(a: NF) -> NF:
    return NF(a.model, -a.num, a.den, tuple((r, -s) for r, s in a.corrections))


def _combine(values: tuple[NF | Poly, ...], op, unit: Poly, base) -> NF:
    """Sum or product (op, with neutral element unit) of normal forms and
    polynomials, at least one of them a normal form.  The polynomials
    merge into one first; ``base`` gives the unreduced num/den of all
    operands, reduced once.  Every root of the reduced denominator is a
    root of some operand denominator, so the operands' loci are the only
    candidates."""
    rest = [v for v in values if type(v) is NF]
    model = rest[0].model
    if any(nf.model is not model for nf in rest):
        raise TypeError("cannot combine normal forms of different models")
    p = reduce(op, (v for v in values if type(v) is Poly), unit)
    if p != unit:
        rest.append(NF(model, p, P_ONE, ()))
    if len(rest) == 1:
        return rest[0]
    loci: set[Poly] = set()
    for nf in rest:
        loci.update(r for r, _ in nf.corrections)
        loci.update(candidate_loci(model, nf.den))
    cands = {r: reduce(lambda s, nf: op(s, nf.value_mod(r)) % r, rest, unit)
             for r in loci}
    return _make(model, *base(rest), cands)


def _sum_base(nfs: list[NF]) -> tuple[Poly, Poly]:
    num, den = nfs[0].num, nfs[0].den
    for nf in nfs[1:]:
        g = poly_gcd(den, nf.den)
        a, b = nf.den.exact_div(g), den.exact_div(g)
        num, den = num * a + nf.num * b, den * a
    return num, den


def _product_base(nfs: list[NF]) -> tuple[Poly, Poly]:
    return (reduce(operator.mul, (nf.num for nf in nfs)),
            reduce(operator.mul, (nf.den for nf in nfs)))


def nf_add(*values: NF | Poly) -> NF:
    """Sum of normal forms and polynomials (at least one normal form),
    over the lcm of their denominators."""
    return _combine(values, operator.add, P_ZERO, _sum_base)


def nf_mul(*values: NF | Poly) -> NF:
    """Product of normal forms and polynomials (at least one normal
    form)."""
    return _combine(values, operator.mul, P_ONE, _product_base)


def nf_inv(a: NF) -> NF:
    """Meadow inverse of a normal form.

    The base swaps to den/num (0/1 when num is zero) and every stored
    correction value is inverted in place.  No new exceptional loci can
    appear: at an uncorrected root of den both the old value and the new
    generic value are 0, and symmetrically at roots of num.
    """
    cands = {r: quotient_inv(s, r) for r, s in a.corrections}
    if a.num.is_zero():
        return _make(a.model, P_ZERO, P_ONE, cands)
    return _make(a.model, a.den, a.num, cands)


# ---------------------------------------------------------------------------
# Term evaluation in quotient rings and normalization


def eval_term_mod(t: Term, r: Poly) -> Poly:
    """Residue of a term in Q[x]/(r) for irreducible r: the polynomial s
    with deg s < deg r whose value at every root of r equals the term's
    value there.  Division inside the term inverts through the Bezout
    identity, with the zero residue inverting to zero.  Raises
    LocusMustSplitError when a zero divisor reveals r to be reducible."""
    if r.is_constant():
        raise ValueError("modulus must be nonconstant")
    return interpret(t, lambda n: Poly.constant(n) % r, lambda: P_X % r,
                     operator.neg, lambda *v: poly_sum(*v) % r,
                     lambda *v: reduce(lambda a, b: (a * b) % r, v),
                     lambda a: quotient_inv(a, r))


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
        return nf_inv(NF(model, v, P_ONE, ()))

    out = interpret(t, Poly.constant, lambda: P_X, neg, add, mul, inv)
    return out if type(out) is NF else NF(model, out, P_ONE, ())


__all__ = [
    "LocusMustSplitError",
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
