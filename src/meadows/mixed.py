"""Emission of mixed fractions from normal forms.

A mixed fraction is a standardized polynomial (integer numerators over one
common denominator) plus a simple fraction whose numerator and denominator
are integer-coefficient polynomials.  Emission rebuilds a term of exactly
that shape from a normal form, the same way in both models:

* collect the support: the correction loci together with the loci of the
  reduced denominator (its linear factors over Q, all irreducible factors
  over C);
* build the patch polynomial g with the term's residue on every support
  locus from one master product E of the support: each locus r with target
  v contributes h_r * (v * h_r^{-1} mod r) with h_r = E / r.  Over linear
  loci this is Lagrange interpolation in barycentric form;
* attach E so the fraction part vanishes exactly on the support, and scale
  by the polynomial's common denominator l (and a further integer L when
  rational coefficients remain) to reach integer coefficients.

The integer scalings performed are recorded multiplicatively in
``witness_n = l * L``: multiplying numerator and denominator of a fraction
by a positive integer n is justified by the single cancellation n/n = 1, so
the emitted equality holds in every meadow of characteristic zero in which
n is cancellable.

``emit(nf, check=True)`` certifies its output instead of normalizing it
again: the rendered term reads back as polynomials P + N/D, and three
exact polynomial identities against num/den and the support prove that it
takes the normal form's value everywhere on the model's carrier (see
``certify``).  Nothing is factored or normalized anew.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce

from .factor import _order_key
from .normalform import (
    Model,
    NF,
    candidate_loci,
    normalize,
    quotient_inv,
    root,
)
from .poly import P_ONE, P_X, P_ZERO, Poly, StdPoly, poly_sum, standardize
from .rationals import Rat
from .terms import (
    Add,
    Div,
    IntLit,
    Mul,
    Neg,
    ONE,
    Pow,
    Term,
    X,
    ZERO,
    format_term,
    interpret,
)


@dataclass(frozen=True)
class IndicatorFraction:
    """Product of the support polynomials; stands for the term
    1 - locus/locus, which is 1 exactly on the roots of locus and 0
    elsewhere (for the empty support the locus is 1 and the term is 0)."""

    locus: Poly

    def to_term(self) -> Term:
        locus_term = _coeff_poly_term(self.locus.int_coeffs(), 1)
        return Add(ONE, Neg(Div(locus_term, locus_term)))

    def value_at(self, a: Rat) -> Fraction:
        return Fraction(1) if self.locus(a) == 0 else Fraction(0)


def build_indicator(items) -> IndicatorFraction:
    """Indicator for a set of rational points (each contributing x - a) or
    a collection of locus polynomials, normalized to integer coefficients."""
    locus = P_ONE
    for item in items:
        if isinstance(item, Poly):
            if item.is_zero():
                raise ValueError("indicator loci must be nonzero")
            locus = locus * item
        else:
            locus = locus * Poly((-Fraction(item), 1))
    if locus != P_ONE:
        locus = locus.primitive()
    return IndicatorFraction(locus)


@dataclass(frozen=True)
class PointTarget:
    """Support point of a rational-model emission: the input's value there
    and the weight of its node product in the patch polynomial."""

    point: Rat
    value: Rat
    weight: Rat


@dataclass(frozen=True)
class LocusTarget:
    """Support locus of a complex-model emission: the input's residue on
    the locus and the residue multiplying the complement product in the
    patch polynomial."""

    locus: Poly
    value: Poly
    coefficient: Poly


@dataclass(frozen=True)
class MixedFraction:
    """Standardized polynomial part plus integer simple fraction part.

    ``witness_n`` is positive and divisible by the polynomial part's common
    denominator; it records every integer scaling used, so n/n = 1 suffices
    to justify the transformation equationally.  ``targets`` carries the
    emission diagnostics and does not take part in equality.  ``term`` is
    the rendering (``to_term``), built once on first read.
    """

    poly: StdPoly
    frac_num: Poly
    frac_den: Poly
    witness_n: int
    targets: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.frac_den.is_zero():
            raise ValueError("fraction denominator must be nonzero")
        if self.witness_n <= 0 or self.witness_n % self.poly.denominator:
            raise ValueError("witness must be a positive multiple of the "
                             "common denominator")

    @cached_property
    def term(self) -> Term:
        return to_term(self)


class EmissionError(AssertionError):
    """The emitted mixed fraction failed its certificate: its rendering
    does not read back as a polynomial plus a simple fraction, or one of
    the identities that prove it equal to the normal form fails."""


def _emit_from_parts(
    nf: NF, g: Poly, support_locus: Poly, targets: tuple
) -> MixedFraction:
    std = standardize(g)
    l = std.denominator
    g_int = g.scale(l)  # integer coefficients
    fn = nf.num * support_locus.scale(l) - nf.den * (support_locus * g_int)
    fd = (nf.den * support_locus).scale(l)
    scale = fn.content.denominator  # the lcm of fn's coefficient denominators
    return MixedFraction(std, fn.scale(scale), fd.scale(scale), l * scale, targets)


def _targets(model: Model, loci, values, coefficients) -> tuple:
    """Emission diagnostics: one LocusTarget per support locus over C;
    over Q one PointTarget per point, sorted by point, whose weight is the
    coefficient of the monic node product prod_{j != i} (x - a_j)."""
    if model is Model.COMPLEX:
        return tuple(
            LocusTarget(r, values.get(r, P_ZERO), c) for r, c in zip(loci, coefficients)
        )
    leads = Fraction(1)
    for r in loci:
        leads *= r.lead
    return tuple(sorted(
        (PointTarget(root(r), values.get(r, P_ZERO).coeff(0),
                     c.coeff(0) * leads / r.lead)
         for r, c in zip(loci, coefficients)),
        key=lambda t: t.point,
    ))


def emit(nf: NF, check: bool = False) -> MixedFraction:
    """Mixed fraction semantically equal to nf on its model's meadow.

    The support is the correction loci together with the candidate loci of
    the denominator; targets are the stored residues and 0 on uncorrected
    loci.  With E the product of the support, the patch polynomial receives
    h_r * (v * h_r^{-1} mod r) for each locus r with target v, where
    h_r = E / r is invertible modulo r since distinct irreducibles share
    no roots; the sum then has residue v on every locus.  The fraction part
    (num*E*l - den*E*(l*g)) / (den*E*l) restores the reduced base off the
    support while vanishing on it.  With ``check`` the rendered output is
    certified (``certify``) and EmissionError raised if it fails.
    """
    if nf.den == P_ONE and not nf.corrections:  # a polynomial
        std = standardize(nf.num)
        mf = MixedFraction(std, P_ZERO, P_ONE, std.denominator, ())
    else:
        values = dict(nf.corrections)
        loci = sorted(values.keys() | set(candidate_loci(nf.model, nf.den)),
                      key=_order_key)
        e = reduce(operator.mul, loci, P_ONE)
        g = P_ZERO
        coefficients = []
        for r in loci:
            v = values.get(r, P_ZERO)
            coeff = P_ZERO
            if not v.is_zero():
                h = e.exact_div(r)
                coeff = (v * quotient_inv(h % r, r)) % r
                g = g + h * coeff
            coefficients.append(coeff)
        targets = _targets(nf.model, loci, values, coefficients)
        mf = _emit_from_parts(nf, g, e, targets)
    if check:
        certify(nf, mf)
    return mf


def _read_back(t: Term) -> Poly:
    """The polynomial a rendered part denotes.  A constant divisor inverts
    as a rational (0 to 0, as in a meadow); a nonconstant one has no place
    in a rendered part."""

    def inv(p: Poly) -> Poly:
        if not p.is_constant():
            raise EmissionError(f"rendered part divides by {p}")
        return Poly.constant(1 / p.content) if p else P_ZERO

    return interpret(t, Poly.constant, lambda: P_X, operator.neg, poly_sum,
                     lambda *v: reduce(operator.mul, v), inv)


def certify(nf: NF, mf: MixedFraction) -> None:
    """Raise EmissionError unless the rendering of mf provably takes the
    value of nf everywhere on the model's carrier.

    The rendering ``mf.term`` must read back as P + N/D with polynomials
    P, N and D (divisions inside a part by constants only), so rendering
    is covered.
    Let E be the product of the support: the correction loci and the
    candidate loci of den, distinct irreducibles, so no two share a root.
    The certificate is three exact identities:

      (a) (P*D + N) * den = num * D;
      (b) D = c * den * E for a nonzero rational c;
      (c) P mod r is the target on every support locus r: the correction
          residue, or 0 on an uncorrected locus (which divides den).

    Soundness at a point a of the carrier.  If D(a) != 0, then by (b)
    den(a) != 0 and a is on no support locus, so nf takes num(a)/den(a)
    there, and by (a) so does P(a) + N(a)/D(a).  If D(a) = 0, the term
    takes P(a), as N/D is 0 there in a meadow, and by (b) a is a root of
    den or of E.  A root of den lies on an irreducible factor of den.
    Over C every such factor is a candidate locus; over Q only rational
    roots matter, and the factor of a rational root is linear, so again a
    candidate locus.  So a lies on exactly one support locus r, and by (c)
    P(a) is the target there: the correction value, or 0 on an
    uncorrected locus, where nf takes num(a)/den(a) with den(a) = 0,
    which is 0.

    Nothing is normalized, and nothing is factored anew: candidate_loci
    repeats the call emit made on the same den and hits the factor cache.
    """
    match mf.term:
        case Add(left=poly_part, right=Div(num=num_part, den=den_part)):
            p, n, d = (_read_back(u) for u in (poly_part, num_part, den_part))
        case _:
            raise EmissionError("rendering is not a polynomial plus a fraction")
    targets = dict(nf.corrections)
    support = targets.keys() | set(candidate_loci(nf.model, nf.den))
    # (b): D and den*E are constant multiples exactly when their primitive
    # integer parts agree.
    if d.ints != (nf.den * reduce(operator.mul, support, P_ONE)).ints:
        raise EmissionError("fraction denominator is not den times the support")
    if (p * d + n) * nf.den != nf.num * d:
        raise EmissionError("emitted fraction differs from num/den off the support")
    for r in support:
        if p % r != targets.get(r, P_ZERO):
            raise EmissionError(f"polynomial part misses its target on {r}")


def emit_with_witness(t: Term) -> tuple[MixedFraction, int]:
    """Normalize over the complex model, emit, and return the witness n.

    The semantic equality t = g + f holds in the complex meadow (and hence
    in every meadow of characteristic zero satisfying n/n = 1); n collects
    the common denominator l and every additional integer scaling used
    while clearing coefficients.  Formal derivability is not re-proved
    here, only the semantic content is produced and checkable.
    """
    mf = emit(normalize(t, Model.COMPLEX))
    return mf, mf.witness_n


# ---------------------------------------------------------------------------
# Term rendering


def _literal(n: int) -> Term:
    if n == 0:
        return ZERO
    if n == 1:
        return ONE
    return IntLit(n)


def _coeff_poly_term(numerators, denominator: int) -> Term:
    """Term displaying sum(numerators[i]/denominator * x^i), highest power
    first, coefficients as integer literals or closed simple fractions."""
    parts = []
    for i in range(len(numerators) - 1, -1, -1):
        r = numerators[i]
        if r == 0:
            continue
        negative = r < 0
        mag = abs(r)
        if denominator == 1:
            coeff: Term | None = None if mag == 1 and i > 0 else _literal(mag)
        else:
            coeff = Div(_literal(mag), _literal(denominator))
        if i == 0:
            body = coeff if coeff is not None else ONE
        else:
            xpow: Term = X if i == 1 else Pow(X, i)
            body = xpow if coeff is None else Mul(coeff, xpow)
        parts.append((negative, body))
    if not parts:
        return ZERO
    negative, body = parts[0]
    acc: Term = Neg(body) if negative else body
    for negative, body in parts[1:]:
        acc = Add(acc, Neg(body) if negative else body)
    return acc


def to_term(mf: MixedFraction) -> Term:
    """Term of the emitted mixed fraction: polynomial part plus the simple
    fraction, classifying as a mixed fraction."""
    poly_part = _coeff_poly_term(mf.poly.numerators, mf.poly.denominator)
    num_part = _coeff_poly_term(mf.frac_num.int_coeffs(), 1)
    den_part = _coeff_poly_term(mf.frac_den.int_coeffs(), 1)
    return Add(poly_part, Div(num_part, den_part))


def mixed_to_json_dict(mf: MixedFraction, model: Model) -> dict:
    """Wire format for a mixed fraction (all numbers as decimal strings)."""
    return {
        "model": "Q" if model is Model.RAT else "C",
        "g": {
            "numerators": [str(r) for r in mf.poly.numerators],
            "denominator": str(mf.poly.denominator),
        },
        "f": {
            "num": [str(c) for c in mf.frac_num.int_coeffs()],
            "den": [str(c) for c in mf.frac_den.int_coeffs()],
        },
        "witness_n": str(mf.witness_n),
        "term": format_term(mf.term),
    }
