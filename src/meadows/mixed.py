"""Emission of mixed fractions from normal forms.

A mixed fraction is a standardized polynomial (integer numerators over one
common denominator) plus a simple fraction whose numerator and denominator
are integer-coefficient polynomials.  Emission builds a term of exactly
that shape from a normal form, the same way in both models: with E the
support (``NF.support``) and R the locus, the patch polynomial g is the CRT
of the residue S modulo R and 0 modulo E/R; the fraction part carries E so
that it vanishes exactly on the support; and the polynomial's common
denominator l (times a further integer L when rational coefficients
remain) clears the fraction to integer coefficients.  Over linear loci g
is Lagrange interpolation.

The integer scalings are recorded in ``witness_n = l * L``: multiplying
numerator and denominator of a fraction by a positive integer n is
justified by the single cancellation n/n = 1, so the emitted equality holds
in every meadow of characteristic zero in which n is cancellable.

``emit(nf, check=True)`` certifies its output instead of normalizing it
again: each rendered part is read back in the renderer's own grammar, a
sum of monomials with literal coefficients (``terms.monomial_sum``), and
exact polynomial identities prove that the rendered term takes the
normal form's value everywhere on the model's carrier (``certify``).
Nothing is factored, except for the per-locus diagnostics
``MixedFraction.targets`` over C.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce

from .normalform import NF, Model, crt, loci, normalize, quotient_inv, root
from .poly import P_ONE, P_ZERO, Poly, StdPoly, standardize
from .rationals import Rat
from .terms import (
    Add,
    Div,
    Mul,
    Neg,
    ONE,
    Pow,
    Term,
    X,
    ZERO,
    format_term,
    int_literal,
    monomial_sum,
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
    to justify the transformation equationally.  ``source`` (the normal
    form and support emitted from) takes no part in equality.  ``term``
    (``to_term``) and ``targets`` are built on first read.
    """

    poly: StdPoly
    frac_num: Poly
    frac_den: Poly
    witness_n: int
    source: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.frac_den.is_zero():
            raise ValueError("fraction denominator must be nonzero")
        if self.witness_n <= 0 or self.witness_n % self.poly.denominator:
            raise ValueError("witness must be a positive multiple of the "
                             "common denominator")

    @cached_property
    def term(self) -> Term:
        return to_term(self)

    @cached_property
    def targets(self) -> tuple:
        """Emission diagnostics; splits the support into its loci."""
        return _targets(*self.source) if self.source else ()


class EmissionError(AssertionError):
    """The emitted mixed fraction failed its certificate: its rendering
    does not read back as a polynomial plus a simple fraction, or one of
    the identities that prove it equal to the normal form fails."""


def _emit_from_parts(nf: NF, g: Poly, support: Poly) -> MixedFraction:
    std = standardize(g)
    l = std.denominator
    g_int = g.scale(l)  # integer coefficients
    fn = nf.num * support.scale(l) - nf.den * (support * g_int)
    fd = (nf.den * support).scale(l)
    scale = fn.content.denominator  # the lcm of fn's coefficient denominators
    return MixedFraction(std, fn.scale(scale), fd.scale(scale), l * scale,
                         (nf, support))


def _targets(nf: NF, support: Poly) -> tuple:
    """Per-locus view of an emission: each of the ``loci`` r of the
    support E, its target v (the residue on the locus, else 0) and the
    coefficient v * (E/r)^{-1} mod r of E/r in the patch polynomial.  Over
    C one LocusTarget per locus; over Q one PointTarget per point, sorted,
    weighted for the monic node product prod_{j != i} (x - a_j)."""
    rs = loci(support, nf.model)
    values = [nf.residue % r if (nf.locus % r).is_zero() else P_ZERO for r in rs]
    coefficients = [(v * quotient_inv(support.exact_div(r) % r, r)) % r
                    if v else P_ZERO for r, v in zip(rs, values)]
    if nf.model is Model.COMPLEX:
        return tuple(LocusTarget(*t) for t in zip(rs, values, coefficients))
    leads = reduce(operator.mul, (r.lead for r in rs), Fraction(1))
    return tuple(sorted((PointTarget(root(r), v.coeff(0), c.coeff(0) * leads / r.lead)
                         for r, v, c in zip(rs, values, coefficients)),
                        key=lambda t: t.point))


def emit(nf: NF, check: bool = False) -> MixedFraction:
    """Mixed fraction semantically equal to nf on its model's meadow.

    The patch polynomial g is S modulo R and 0 modulo E/R, which divides
    den, where the base is 0 too.  The fraction part
    (num*E*l - den*E*(l*g)) / (den*E*l) restores the reduced base off the
    support while vanishing on it.  With ``check`` the rendered output is
    certified (``certify``) and EmissionError raised if it fails.
    """
    support = nf.support
    if nf.den == P_ONE and support == P_ONE:  # a polynomial
        std = standardize(nf.num)
        mf = MixedFraction(std, P_ZERO, P_ONE, std.denominator)
    else:
        g = crt(nf.residue, nf.locus, P_ZERO, support.exact_div(nf.locus))
        mf = _emit_from_parts(nf, g, support)
    if check:
        certify(nf, mf)
    return mf


def _read_back(t: Term) -> Poly:
    """The polynomial a rendered part denotes, read by ``monomial_sum`` in
    the one shape the renderer writes; anything else, a division by a
    polynomial included, raises EmissionError."""
    read = monomial_sum(t)
    if read is None:
        if type(t) is Div:
            raise EmissionError(f"rendered part divides by {format_term(t.den)}")
        raise EmissionError("rendered part is not a sum of monomials")
    return Poly.from_ints(*read)


def certify(nf: NF, mf: MixedFraction) -> None:
    """Raise EmissionError unless the rendering of mf provably takes the
    value of nf everywhere on the model's carrier.

    The rendering ``mf.term`` must read back as P + N/D with polynomials
    P, N and D, each part a sum of monomials as the renderer writes them
    (``_read_back``), so rendering is covered.  Let S be the residue of nf
    on its locus R, E the support and A = E/R, which divides the candidate
    part of den and is coprime to R.  The certificate is three exact
    identities:

      (a) (P*D + N) * den = num * D;
      (b) D = c * den * E for a nonzero rational c;
      (c) (P - S)*A + P*R = 0 modulo E, that is P = S modulo R and P = 0
          modulo A (modulo either factor one term vanishes and the other
          factor is a unit).

    Soundness at a point a of the carrier.  If D(a) != 0, then by (b)
    den(a) != 0 and E(a) != 0, so nf takes num(a)/den(a), and by (a) so
    does P(a) + N(a)/D(a).  If D(a) = 0, the term takes P(a), as N/D is 0
    there in a meadow, and by (b) a is a root of den, which lies on the
    candidate part (over Q a rational root is on a linear factor), or of
    E: either way of exactly one of R and A.  On R, P(a) = S(a) by (c),
    the value of nf; on A, P(a) = 0 by (c), and nf takes num(a)/den(a)
    with den(a) = 0, which is 0.  Nothing is normalized or factored.
    """
    match mf.term:
        case Add(left=poly_part, right=Div(num=num_part, den=den_part)):
            p, n, d = (_read_back(u) for u in (poly_part, num_part, den_part))
        case _:
            raise EmissionError("rendering is not a polynomial plus a fraction")
    support = nf.support
    # (b): D and den*E are constant multiples exactly when their primitive
    # integer parts agree.
    if d.ints != (nf.den * support).ints:
        raise EmissionError("fraction denominator is not den times the support")
    if (p * d + n) * nf.den != nf.num * d:
        raise EmissionError("emitted fraction differs from num/den off the support")
    if support != P_ONE:
        rest = support.exact_div(nf.locus)
        if not (((p - nf.residue) * rest + p * nf.locus) % support).is_zero():
            raise EmissionError("polynomial part misses its target on the support")


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


def _coeff_poly_term(numerators, denominator: int) -> Term:
    """Term displaying sum(numerators[i]/denominator * x^i), highest power
    first, coefficients as integer literals or closed simple fractions."""
    parts = []
    for i in range(len(numerators) - 1, -1, -1):
        r = numerators[i]
        if r == 0:
            continue
        mag = abs(r)
        if denominator == 1:
            coeff: Term | None = None if mag == 1 and i > 0 else int_literal(mag)
        else:
            coeff = Div(int_literal(mag), int_literal(denominator))
        if i == 0:
            body = coeff if coeff is not None else ONE
        else:
            xpow: Term = X if i == 1 else Pow(X, i)
            body = xpow if coeff is None else Mul(coeff, xpow)
        parts.append(Neg(body) if r < 0 else body)
    return reduce(Add, parts) if parts else ZERO


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
