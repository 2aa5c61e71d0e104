"""Decision procedures over canonical normal forms.

Because normal forms are canonical (structural equality coincides with
semantic equality on the model), equality of two terms is decided by
normalizing both sides.  Simple-fraction expressibility over the rationals
holds exactly when every exceptional value is 0, in which case multiplying
the reduced base through by the correction locus exhibits the fraction.
Finite-support summation reduces to the normal form as well: a nonzero
reduced base is nonzero at all but finitely many arguments, so the support
is infinite and the sum is 0 by convention; otherwise the support lies on
the correction locus and the sum is the trace sum of the residue over the
roots of the squarefree locus, read off one polynomial remainder.  Both models share one
procedure; a rational-model witness is reported at a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mixed import _coeff_poly_term
from .factor import _order_key
from .normalform import Model, NF, _gcd, _quo, eval_closed, loci, normalize, root
from .poly import P_ONE, Poly, trace_sum
from .rationals import Rat
from .terms import Div, Term


def decide_eq(s: Term, t: Term, model: Model) -> bool:
    """True iff s and t denote the same function on the model's carrier."""
    return normalize(s, model) == normalize(t, model)


@dataclass(frozen=True)
class PointWitness:
    """Rational point where the two sides take different values."""

    point: Rat
    left: Rat
    right: Rat

    def to_json_dict(self) -> dict:
        return {
            "kind": "point",
            "point": str(self.point),
            "left": str(self.left),
            "right": str(self.right),
        }


@dataclass(frozen=True)
class LocusWitness:
    """Irreducible locus on whose roots the two sides take different
    values (residues differ in the quotient ring)."""

    locus: Poly
    left: Poly
    right: Poly

    def to_json_dict(self) -> dict:
        return {
            "kind": "locus",
            "locus": [str(c) for c in self.locus.coeffs],
            "left": [str(c) for c in self.left.coeffs],
            "right": [str(c) for c in self.right.coeffs],
        }


def distinguishing_witness(s: Term, t: Term, model: Model):
    """Evidence for inequality: None when equal, else a point or locus
    witness with the two differing values.  Between equal bases the
    witness is the first point where the residues differ: over Q the least
    point, over C the first irreducible locus in canonical order."""
    nf1, nf2 = normalize(s, model), normalize(t, model)
    if nf1 == nf2:
        return None
    if (nf1.num, nf1.den) != (nf2.num, nf2.den):
        return _base_witness(nf1, nf2)
    # Residues are compared on the coprime parts g = gcd(R1, R2), R1/g and
    # R2/g of the lcm, not modulo all of it; the differing part is split
    # into its loci.
    g = _gcd(nf1.locus, nf2.locus)
    parts = (g, _quo(nf1.locus, g), _quo(nf2.locus, g))
    left, right = (nf.value_mod(parts[0] * parts[1] * parts[2]) for nf in (nf1, nf2))
    keep = [_quo(m, _gcd(m, left - right)) for m in parts]
    differing = [(r, left % r, right % r)
                 for r in loci(keep[0] * keep[1] * keep[2], model)]
    if not differing:
        raise AssertionError("unequal normal forms must differ somewhere")
    if model is Model.RAT:
        a = min(root(r) for r, _, _ in differing)
        return PointWitness(a, nf1.value_at(a), nf2.value_at(a))
    return LocusWitness(*min(differing, key=lambda d: _order_key(d[0])))


def _base_witness(nf1: NF, nf2: NF) -> PointWitness:
    # The reduced bases differ as rational functions, so they differ at
    # every rational point outside a finite bad set: roots of the cross
    # difference, of either denominator, and the correction loci.
    diff = nf1.num * nf2.den - nf2.num * nf1.den
    k = 0
    while True:
        for a in (Fraction(k), Fraction(-k)):
            if diff(a) == 0 or nf1.den(a) == 0 or nf2.den(a) == 0:
                continue
            if not nf1.locus(a) or not nf2.locus(a):
                continue
            return PointWitness(a, nf1.value_at(a), nf2.value_at(a))
        k += 1


def simple_expressible(t: Term) -> Term | None:
    """A simple fraction equal to t on the rational meadow, or None."""
    return simple_fraction(normalize(t, Model.RAT))


def simple_fraction(nf: NF) -> Term | None:
    """A simple fraction equal to the rational-model normal form nf, or
    None.  It exists iff every exceptional value of nf is 0, since a simple
    fraction is discontinuous only at zeros of its denominator, where it is
    0; then the base times the locus (the product of the exception points'
    linear factors) realizes it."""
    if not nf.residue.is_zero():
        return None
    num = nf.num * nf.locus
    den = nf.den * nf.locus
    scale = num.content.denominator  # the lcm of num's coefficient denominators
    return Div(_coeff_poly_term(num.scale(scale).int_coeffs(), 1),
               _coeff_poly_term(den.scale(scale).int_coeffs(), 1))


@dataclass(frozen=True)
class SupportSum:
    """Result of finite-support summation: the exact sum when only
    finitely many arguments give a nonzero value, else 0 with the flag
    cleared."""

    value: Rat
    support_finite: bool

    def __post_init__(self):
        if not self.support_finite and self.value != 0:
            raise ValueError("infinite support forces the value 0")

    def to_json_dict(self) -> dict:
        return {"value": str(self.value), "support_finite": self.support_finite}


def finite_support_sum(t: Term, model: Model) -> SupportSum:
    """Sum of t(a) over all carrier points a when only finitely many are
    nonzero, and 0 otherwise.

    With a nonzero reduced base the function is nonzero outside a finite
    set, so the support is infinite.  With a zero base the support lies on
    the correction locus: the sum is the trace sum of the residue over the
    locus's roots.
    """
    nf = normalize(t, model)
    if not nf.num.is_zero():
        return SupportSum(Fraction(0), False)
    return SupportSum(trace_sum(nf.residue, nf.locus) if nf.locus != P_ONE
                      else Fraction(0), True)


def sum_star_equals(t: Term, c: Term, model: Model) -> bool:
    """Whether the finite-support sum of t equals the closed term c."""
    return finite_support_sum(t, model).value == eval_closed(c)
