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
structural equality coincides with semantic equality.  Normalization is a
structural recursion through the term's operators using the closure
operations nf_add, nf_mul, nf_neg and nf_inv.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .factor import _order_key, distinct_irreducible_factors
from .poly import P_ONE, P_X, P_ZERO, Poly, poly_bezout, poly_gcd
from .rationals import Rat, eval_closed, meadow_div
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


def root(locus: Poly) -> Rat:
    """The rational point at which a linear locus vanishes."""
    return -locus.coeffs[0] / locus.coeffs[1]


def candidate_loci(model: Model, den: Poly) -> tuple[Poly, ...]:
    """Irreducible factors of den that the model tracks as loci, in
    canonical order: all of them over C, the linear ones over Q."""
    if den == P_ONE:
        return ()
    loci = distinct_irreducible_factors(den)
    if model is Model.RAT:
        return tuple(r for r in loci if len(r.coeffs) == 2)
    return loci


def _generic_mod(num: Poly, den: Poly, r: Poly) -> Poly:
    d = den % r
    if d.is_zero():
        return P_ZERO
    return _quotient_div(num % r, d, r)


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
        return _generic_mod(self.num, self.den, r)

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
            (root(r), s.coeff(0)) for r, s in self.corrections if len(r.coeffs) == 2
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
    num, den = _reduce(num, den)
    kept = tuple(
        (r, candidates[r])
        for r in sorted(candidates, key=_order_key)
        if candidates[r] != _generic_mod(num, den, r)
    )
    return NF(model, num, den, kept)


def quotient_inv(a: Poly, modulus: Poly) -> Poly:
    """Meadow inverse in Q[x]/(modulus): 0 maps to 0, a nonzero constant
    to its rational inverse, anything else to its Bezout inverse.  Detects
    reducible moduli via a nonunit gcd."""
    if a.is_zero():
        return P_ZERO
    if a.is_constant():
        return Poly.constant(1 / a.coeffs[0])
    g, _, vp = poly_bezout(a, modulus)
    if g != P_ONE:
        raise LocusMustSplitError(modulus, g)
    return vp % modulus


def _quotient_div(a: Poly, b: Poly, modulus: Poly) -> Poly:
    return (a * quotient_inv(b, modulus)) % modulus


# ---------------------------------------------------------------------------
# Closure operations


def nf_neg(a: NF) -> NF:
    return NF(a.model, -a.num, a.den, tuple((r, -s) for r, s in a.corrections))


def _candidates(a: NF, b: NF) -> set[Poly]:
    if a.model is not b.model:
        raise TypeError("cannot combine normal forms of different models")
    loci = {r for r, _ in a.corrections} | {r for r, _ in b.corrections}
    loci.update(candidate_loci(a.model, a.den))
    loci.update(candidate_loci(b.model, b.den))
    return loci


def nf_add(a: NF, b: NF) -> NF:
    cands = {r: (a.value_mod(r) + b.value_mod(r)) % r for r in _candidates(a, b)}
    return _make(a.model, a.num * b.den + b.num * a.den, a.den * b.den, cands)


def nf_mul(a: NF, b: NF) -> NF:
    cands = {r: (a.value_mod(r) * b.value_mod(r)) % r for r in _candidates(a, b)}
    return _make(a.model, a.num * b.num, a.den * b.den, cands)


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


def nf_div(a: NF, b: NF) -> NF:
    return nf_mul(a, nf_inv(b))


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
    return NF(model, p, P_ONE, ())


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


__all__ = [
    "LocusMustSplitError",
    "Model",
    "NF",
    "eval_closed",
    "eval_term",
    "eval_term_mod",
    "nf_add",
    "nf_div",
    "nf_inv",
    "nf_mul",
    "nf_neg",
    "normalize",
]
