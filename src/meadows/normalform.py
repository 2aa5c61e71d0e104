"""Canonical semantic normal forms for univariate meadow terms.

A term denotes a function on the rational or complex meadow (division is
total with x/0 = 0).  Its normal form is a reduced rational function
num/den together with finitely many exceptional corrections recording where
the term's value departs from the reduced fraction:

* ``PointwiseNF`` (rational model) corrects at rational points;
* ``AlgebraicNF`` (complex model) corrects along irreducible polynomial
  loci, storing the term's value on all roots of the locus as a residue in
  the quotient ring.

Both forms are canonical: the base is reduced with a primitive, positive-
leading denominator, corrections are minimal (never equal to the value the
base already gives) and canonically ordered, so structural equality
coincides with semantic equality.  Normalization is a structural recursion
through the term's operators using the closure operations nf_add, nf_mul,
nf_neg and nf_inv.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .factor import distinct_irreducible_factors, rational_roots_from_factors
from .poly import P_ONE, P_X, P_ZERO, Poly, poly_bezout, poly_gcd
from .rationals import Rat, eval_closed, meadow_div, meadow_inv
from .terms import Add, Div, IntLit, Mul, Neg, One, Pow, Term, Var, Zero


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
    c = den.content()
    return num.scale(1 / c), den.scale(1 / c)


@dataclass(frozen=True)
class PointwiseNF:
    """Reduced rational function plus exceptional point values (Q model).

    The value at a rational point a is the stored exception value when a is
    an exception point, otherwise num(a)/den(a) with the meadow convention
    that a zero denominator yields 0.  Exceptions are minimal and sorted by
    point.
    """

    num: Poly
    den: Poly
    exceptions: tuple[tuple[Rat, Rat], ...]

    def generic_at(self, a: Rat) -> Rat:
        return meadow_div(self.num(a), self.den(a))

    def value_at(self, a: Rat) -> Rat:
        for pt, v in self.exceptions:
            if pt == a:
                return v
        return self.generic_at(a)

    def to_json_dict(self) -> dict:
        return {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
            "exceptions": [
                {"point": str(pt), "value": str(v)} for pt, v in self.exceptions
            ],
        }


@dataclass(frozen=True)
class AlgebraicNF:
    """Reduced rational function plus corrections on irreducible loci
    (complex model).

    Each correction (r, s) states that on every complex root of r the term
    takes the value s evaluated there, with deg s < deg r; the loci are
    irreducible over Q, primitive with positive leading coefficient,
    pairwise distinct, minimal against the base and ordered by degree then
    coefficients.  Off all loci the value is num/den with zero denominators
    mapping to 0.
    """

    num: Poly
    den: Poly
    corrections: tuple[tuple[Poly, Poly], ...]

    def generic_mod(self, r: Poly) -> Poly:
        if (self.den % r).is_zero():
            return P_ZERO
        return _quotient_div(self.num % r, self.den % r, r)

    def value_mod(self, r: Poly) -> Poly:
        for locus, s in self.corrections:
            if locus == r:
                return s
        return self.generic_mod(r)

    def value_at(self, a: Rat) -> Rat:
        for locus, s in self.corrections:
            if locus(a) == 0:
                return s(a)
        return meadow_div(self.num(a), self.den(a))

    def to_json_dict(self) -> dict:
        return {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
            "corrections": [
                {
                    "locus": [str(c) for c in locus.coeffs],
                    "value": [str(c) for c in s.coeffs],
                }
                for locus, s in self.corrections
            ],
        }


NF = PointwiseNF | AlgebraicNF


def _locus_key(locus: Poly):
    return (len(locus.coeffs), locus.coeffs)


def _make_pointwise(num: Poly, den: Poly, candidates: dict[Rat, Rat]) -> PointwiseNF:
    num, den = _reduce(num, den)
    kept = []
    for pt in sorted(candidates):
        v = candidates[pt]
        if v != meadow_div(num(pt), den(pt)):
            kept.append((pt, v))
    return PointwiseNF(num, den, tuple(kept))


def _make_algebraic(num: Poly, den: Poly, candidates: dict[Poly, Poly]) -> AlgebraicNF:
    num, den = _reduce(num, den)
    kept = []
    for locus in sorted(candidates, key=_locus_key):
        s = candidates[locus]
        if (den % locus).is_zero():
            generic = P_ZERO
        else:
            generic = _quotient_div(num % locus, den % locus, locus)
        if s != generic:
            kept.append((locus, s))
    return AlgebraicNF(num, den, tuple(kept))


def quotient_inv(a: Poly, modulus: Poly) -> Poly:
    """Meadow inverse in Q[x]/(modulus): 0 maps to 0, anything else to its
    Bezout inverse.  Detects reducible moduli via a nonunit gcd."""
    if a.is_zero():
        return P_ZERO
    g, _, vp = poly_bezout(a, modulus)
    if g != P_ONE:
        raise LocusMustSplitError(modulus, g)
    return vp % modulus


def _quotient_div(a: Poly, b: Poly, modulus: Poly) -> Poly:
    return (a * quotient_inv(b, modulus)) % modulus


# ---------------------------------------------------------------------------
# Closure operations


def nf_neg(a: NF) -> NF:
    if isinstance(a, PointwiseNF):
        return PointwiseNF(
            -a.num, a.den, tuple((pt, -v) for pt, v in a.exceptions)
        )
    return AlgebraicNF(
        -a.num, a.den, tuple((locus, -s) for locus, s in a.corrections)
    )


def _pointwise_candidates(a: PointwiseNF, b: PointwiseNF) -> set[Rat]:
    pts = {pt for pt, _ in a.exceptions} | {pt for pt, _ in b.exceptions}
    if a.den != P_ONE:
        pts |= rational_roots_from_factors(a.den)
    if b.den != P_ONE:
        pts |= rational_roots_from_factors(b.den)
    return pts


def _algebraic_candidates(a: AlgebraicNF, b: AlgebraicNF) -> set[Poly]:
    loci = {locus for locus, _ in a.corrections} | {locus for locus, _ in b.corrections}
    if a.den != P_ONE:
        loci |= set(distinct_irreducible_factors(a.den))
    if b.den != P_ONE:
        loci |= set(distinct_irreducible_factors(b.den))
    return loci


def nf_add(a: NF, b: NF) -> NF:
    if type(a) is not type(b):
        raise TypeError("cannot combine normal forms of different models")
    if isinstance(a, PointwiseNF):
        cands = {
            pt: a.value_at(pt) + b.value_at(pt) for pt in _pointwise_candidates(a, b)
        }
        return _make_pointwise(a.num * b.den + b.num * a.den, a.den * b.den, cands)
    cands = {
        r: (a.value_mod(r) + b.value_mod(r)) % r for r in _algebraic_candidates(a, b)
    }
    return _make_algebraic(a.num * b.den + b.num * a.den, a.den * b.den, cands)


def nf_mul(a: NF, b: NF) -> NF:
    if type(a) is not type(b):
        raise TypeError("cannot combine normal forms of different models")
    if isinstance(a, PointwiseNF):
        cands = {
            pt: a.value_at(pt) * b.value_at(pt) for pt in _pointwise_candidates(a, b)
        }
        return _make_pointwise(a.num * b.num, a.den * b.den, cands)
    cands = {
        r: (a.value_mod(r) * b.value_mod(r)) % r for r in _algebraic_candidates(a, b)
    }
    return _make_algebraic(a.num * b.num, a.den * b.den, cands)


def nf_inv(a: NF) -> NF:
    """Meadow inverse of a normal form.

    The base swaps to den/num (0/1 when num is zero) and every stored
    correction value is inverted in place.  No new exceptional loci can
    appear: at an uncorrected root of den both the old value and the new
    generic value are 0, and symmetrically at roots of num.
    """
    if isinstance(a, PointwiseNF):
        cands = {pt: meadow_inv(v) for pt, v in a.exceptions}
        if a.num.is_zero():
            return _make_pointwise(P_ZERO, P_ONE, cands)
        return _make_pointwise(a.den, a.num, cands)
    cands = {locus: quotient_inv(s, locus) for locus, s in a.corrections}
    if a.num.is_zero():
        return _make_algebraic(P_ZERO, P_ONE, cands)
    return _make_algebraic(a.den, a.num, cands)


def nf_div(a: NF, b: NF) -> NF:
    return nf_mul(a, nf_inv(b))


def nf_eval(a: NF, pt: Rat) -> Rat:
    """Value of a normal form at a rational point (both models)."""
    return a.value_at(Fraction(pt))


# ---------------------------------------------------------------------------
# Term evaluation and normalization


def eval_term(t: Term, a: Rat) -> Rat:
    """Structural meadow evaluation of a term at a rational point."""
    a = Fraction(a)

    def go(t: Term) -> Rat:
        match t:
            case Zero():
                return Fraction(0)
            case One():
                return Fraction(1)
            case IntLit(n):
                return Fraction(n)
            case Var():
                return a
            case Neg(u):
                return -go(u)
            case Add(u, v):
                return go(u) + go(v)
            case Mul(u, v):
                return go(u) * go(v)
            case Div(u, v):
                return meadow_div(go(u), go(v))
            case Pow(u, n):
                return go(u) ** n
            case _:
                raise TypeError(f"not a term: {t!r}")

    return go(t)


def eval_term_mod(t: Term, r: Poly) -> Poly:
    """Residue of a term in Q[x]/(r) for irreducible r: the polynomial s
    with deg s < deg r whose value at every root of r equals the term's
    value there.  Division inside the term inverts through the Bezout
    identity, with the zero residue inverting to zero.  Raises
    LocusMustSplitError when a zero divisor reveals r to be reducible."""

    def go(t: Term) -> Poly:
        match t:
            case Zero():
                return P_ZERO
            case One():
                return P_ONE % r
            case IntLit(n):
                return Poly.constant(n) % r
            case Var():
                return P_X % r
            case Neg(u):
                return -go(u)
            case Add(u, v):
                return (go(u) + go(v)) % r
            case Mul(u, v):
                return (go(u) * go(v)) % r
            case Div(u, v):
                return (go(u) * quotient_inv(go(v), r)) % r
            case Pow(u, n):
                base = go(u)
                out = P_ONE % r
                while n:
                    if n & 1:
                        out = (out * base) % r
                    base = (base * base) % r
                    n >>= 1
                return out
            case _:
                raise TypeError(f"not a term: {t!r}")

    if r.is_constant():
        raise ValueError("modulus must be nonconstant")
    return go(t)


def _poly_nf(p: Poly, model: Model) -> NF:
    if model is Model.RAT:
        return PointwiseNF(p, P_ONE, ())
    return AlgebraicNF(p, P_ONE, ())


def normalize(t: Term, model: Model) -> NF:
    """Normal form of a term in the given model.

    Structural recursion over the term: constants embed with denominator 1
    and no corrections, the variable and its powers embed as x^n/1, and
    each operator maps to the corresponding closure operation (division via
    inverse).  The result evaluates exactly like the term everywhere on the
    model's carrier.
    """
    match t:
        case Zero():
            return _poly_nf(P_ZERO, model)
        case One():
            return _poly_nf(P_ONE, model)
        case IntLit(n):
            return _poly_nf(Poly.constant(n), model)
        case Var():
            return _poly_nf(P_X, model)
        case Neg(u):
            return nf_neg(normalize(u, model))
        case Add(u, v):
            return nf_add(normalize(u, model), normalize(v, model))
        case Mul(u, v):
            return nf_mul(normalize(u, model), normalize(v, model))
        case Div(u, v):
            return nf_div(normalize(u, model), normalize(v, model))
        case Pow(Var(), n):
            return _poly_nf(Poly.x(n), model)
        case Pow(u, n):
            base = normalize(u, model)
            out = _poly_nf(P_ONE, model)
            while n:
                if n & 1:
                    out = nf_mul(out, base)
                base = nf_mul(base, base)
                n >>= 1
            return out
        case _:
            raise TypeError(f"not a term: {t!r}")


def is_polynomial_nf(nf: NF) -> bool:
    """True for normal forms that are plain polynomials (no corrections,
    denominator 1)."""
    if isinstance(nf, PointwiseNF):
        return not nf.exceptions and nf.den == P_ONE
    return not nf.corrections and nf.den == P_ONE


__all__ = [
    "AlgebraicNF",
    "LocusMustSplitError",
    "Model",
    "NF",
    "PointwiseNF",
    "eval_closed",
    "eval_term",
    "eval_term_mod",
    "nf_add",
    "nf_div",
    "nf_eval",
    "nf_inv",
    "nf_mul",
    "nf_neg",
    "normalize",
]
