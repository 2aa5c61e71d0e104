import operator
import random
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import pytest

from meadows import decide, factor, mixed, normalform, terms
from meadows.cli import main
from meadows.checks import (
    check_emission,
    check_emission_idempotence,
    check_indicator,
    check_witness,
)
from meadows.generate import random_int_poly, random_rat, random_term
from meadows.mixed import (
    EmissionError,
    MixedFraction,
    build_indicator,
    certify,
    emit,
    emit_with_witness,
    mixed_to_json_dict,
    to_term,
)
from meadows.normalform import (
    NF,
    Model,
    eval_term,
    eval_term_mod,
    normalize,
)
from meadows.poly import P_ONE, P_ZERO, Poly, StdPoly, poly_bezout, poly_sum, standardize
from meadows.terms import (
    Add,
    Div,
    IntLit,
    Mul,
    Neg,
    ONE,
    Pow,
    TermClass,
    X as VAR,
    ZERO,
    classify,
    format_term,
    interpret,
    monomial_sum,
    parse,
)

X = Poly((0, 1))

EXAMPLE2 = "1/(x^2+3*x) + (2*x+5)/(x^5+1) + (x^3+2)/(3*x^2-7)"
EXAMPLE3 = "1/(x^2+1) + 1/(x^2+2)"


def test_indicator_for_example2_points():
    ind = build_indicator({Fraction(-3), Fraction(0), Fraction(-1)})
    assert ind.locus == Poly((0, 3, 4, 1))  # x^3 + 4x^2 + 3x


def test_indicator_empty_support():
    ind = build_indicator(())
    assert ind.locus == P_ONE
    term = ind.to_term()
    for a in (Fraction(0), Fraction(3), Fraction(-1, 2)):
        assert eval_term(term, a) == 0


def test_indicator_for_loci():
    ind = build_indicator([Poly((1, 0, 1)), Poly((2, 0, 1))])
    assert ind.locus == Poly((1, 0, 1)) * Poly((2, 0, 1))


def test_indicator_fractional_point_normalizes_to_integers():
    ind = build_indicator({Fraction(1, 2)})
    assert ind.locus == Poly((-1, 2))


def test_indicator_characteristic_property():
    assert check_indicator(seed=40, rounds=50).ok


def test_emit_example2_standard_form():
    mf = emit(normalize(parse(EXAMPLE2), Model.RAT), check=True)
    assert mf.poly.numerators == (15972, 24404, 5891)
    assert mf.poly.denominator == 3388
    assert mf.witness_n % 3388 == 0
    weights = {t.point: t.weight for t in mf.targets}
    assert weights == {
        Fraction(-3): Fraction(-201, 968),
        Fraction(0): Fraction(11, 7),
        Fraction(-1): Fraction(3, 8),
    }
    values = {t.point: t.value for t in mf.targets}
    assert values[Fraction(0)] == Fraction(33, 7)


def test_emit_pole_with_nonzero_value():
    mf = emit(normalize(parse("1/x + 1/1"), Model.RAT), check=True)
    assert mf.poly == StdPoly((1,), 1)
    assert mf.frac_num == X
    assert mf.frac_den == X * X
    t = to_term(mf)
    assert eval_term(t, Fraction(0)) == 1
    for a in (Fraction(2), Fraction(-1, 3)):
        assert eval_term(t, a) == 1 + 1 / a


def test_emit_closed_term():
    mf = emit(normalize(parse("5 - 2/7"), Model.RAT), check=True)
    assert mf.poly == StdPoly((33,), 7)
    assert mf.frac_num == P_ZERO
    assert mf.frac_den == P_ONE
    assert mf.witness_n == 7


def test_emit_x_over_x():
    mf = emit(normalize(parse("x/x"), Model.RAT), check=True)
    assert mf.poly == StdPoly((), 1)
    # the fraction keeps the support factor: x/x is 0 at 0 and 1 elsewhere
    assert mf.frac_num == X
    assert mf.frac_den == X
    assert mf.witness_n == 1
    t = to_term(mf)
    assert eval_term(t, Fraction(0)) == 0
    assert eval_term(t, Fraction(4)) == 1


def test_emit_example3_complex():
    nf = normalize(parse(EXAMPLE3), Model.COMPLEX)
    mf = emit(nf, check=True)
    assert mf.poly == StdPoly((3, 0, 2), 1)  # 2x^2 + 3
    coeffs = {t.locus: t.coefficient for t in mf.targets}
    assert coeffs == {Poly((1, 0, 1)): P_ONE, Poly((2, 0, 1)): P_ONE}
    values = {t.locus: t.value for t in mf.targets}
    assert values == {Poly((1, 0, 1)): P_ONE, Poly((2, 0, 1)): Poly((-1,))}
    term = to_term(mf)
    for r, s in nf.corrections:
        assert eval_term_mod(term, r) == s


def test_emit_complex_separation_term():
    nf = normalize(parse("1/(x^2-2) + 1/1"), Model.COMPLEX)
    mf = emit(nf, check=True)
    assert mf.poly == StdPoly((1,), 1)  # g = 1
    assert eval_term_mod(to_term(mf), Poly((-2, 0, 1))) == P_ONE


def test_emit_zero():
    mf = emit(normalize(parse("0"), Model.COMPLEX))
    assert mf.poly == StdPoly((), 1)
    assert mf.frac_num == P_ZERO
    assert mf.frac_den == P_ONE
    assert format_term(to_term(mf)) == "0 + 0/1"


def test_emitted_shape_classifies_as_mixed():
    rng = random.Random(41)
    for _ in range(50):
        t = random_term(rng, depth=5)
        for model in Model:
            term = to_term(emit(normalize(t, model)))
            assert classify(term) is TermClass.MIXED_FRACTION


def test_fraction_parts_have_integer_coefficients():
    rng = random.Random(42)
    for _ in range(50):
        t = random_term(rng, depth=5)
        for model in Model:
            mf = emit(normalize(t, model))
            mf.frac_num.int_coeffs()
            mf.frac_den.int_coeffs()
            assert not mf.frac_den.is_zero()
            assert mf.witness_n > 0
            assert mf.witness_n % mf.poly.denominator == 0


def test_emission_fidelity_property():
    assert check_emission(seed=43, rounds=150, points=25).ok


def test_emission_idempotence_property():
    assert check_emission_idempotence(seed=44, rounds=100).ok


def test_witness_property():
    assert check_witness(seed=45, rounds=100).ok


def test_emit_with_witness_example2():
    t = parse(EXAMPLE2)
    mf, n = emit_with_witness(t)
    assert n == mf.witness_n
    assert n % mf.poly.denominator == 0
    assert n % 3388 == 0
    emitted = to_term(mf)
    rng = random.Random(46)
    for _ in range(100):
        a = random_rat(rng)
        assert n * (eval_term(t, a) - eval_term(emitted, a)) == 0


def test_emit_with_witness_closed_integer():
    mf, n = emit_with_witness(parse("3 + 4"))
    assert n == 1
    assert mf.poly == StdPoly((7,), 1)


def test_witness_counts_coefficient_clearing():
    # an exception at 1/2 puts 2x - 1 into the support, and the base
    # carries denominator 2; the witness collects the integer scalings
    t = parse("(2*x - 1)/(2*x - 1)")
    mf, n = emit_with_witness(t)
    assert n >= 1
    emitted = to_term(mf)
    assert eval_term(t, Fraction(1, 2)) == eval_term(emitted, Fraction(1, 2)) == 0
    assert eval_term(t, Fraction(3)) == eval_term(emitted, Fraction(3)) == 1


def test_mixed_fraction_validation():
    with pytest.raises(ValueError):
        MixedFraction(StdPoly((1,), 2), P_ZERO, P_ONE, 1)  # witness not multiple
    with pytest.raises(ValueError):
        MixedFraction(StdPoly((1,), 1), P_ONE, P_ZERO, 1)  # zero denominator


def test_json_schema():
    mf = emit(normalize(parse("1/x + 1/1"), Model.RAT))
    payload = mixed_to_json_dict(mf, Model.RAT)
    assert payload == {
        "model": "Q",
        "g": {"numerators": ["1"], "denominator": "1"},
        "f": {"num": ["0", "1"], "den": ["0", "0", "1"]},
        "witness_n": "1",
        "term": "1 + x/x^2",
    }



# ---------------------------------------------------------------------------
# The emission certificate


def _eisenstein(rng, degree):
    """Dense integer polynomial, Eisenstein at 3 and so irreducible."""
    coeffs = [3 * rng.choice((-2, -1, 1, 2))]
    coeffs += [3 * rng.randint(-3, 3) for _ in range(degree - 1)]
    coeffs.append(rng.choice((1, 2, 4, 5, 7, 8)))
    return Poly(coeffs).primitive()


def _swinnerton_dyer(primes, shift):
    """Minimal polynomial of shift + sum(+-sqrt(p)): starting from
    x - shift, f(x+t)*f(x-t) = A^2 - p*B^2 where f(x+t) = A + t*B and
    t^2 = p."""
    f = Poly((-shift, 1))
    for p in primes:
        a = b = P_ZERO
        for c in reversed(f.coeffs):
            a, b = a * X + b.scale(p) + Poly.constant(c), a + b * X
        f = a * a - (b * b).scale(p)
    return f


def _loci_shapes(seed):
    """Inputs shaped like the loci workload over C: dense loci r1, r2 of
    degree 24 and 16, and a shifted Swinnerton-Dyer locus of degree 16."""
    rng = random.Random(seed)
    r1, r2 = _eisenstein(rng, 24), _eisenstein(rng, 16)
    sd = _swinnerton_dyer((2, 3, 5, 7), rng.randint(1, 9))
    return [f"({r1})/({r1}) + 1/({r2})", f"1 - ({r1})/({r1})", f"1 - ({sd})/({sd})"]


def _pfsum_shape(seed):
    """A sum of 22 fractions b/(b*x - a) with distinct rational poles."""
    rng = random.Random(seed)
    poles = set()
    while len(poles) < 22:
        a, b = rng.randint(-40, 40), rng.randint(1, 9)
        poles.add(Fraction(a, b))
    return " + ".join(f"{p.denominator}/({p.denominator}*x - {p.numerator})"
                      for p in sorted(poles))


def _candidate_loci(model, den):
    """Irreducible factors of den with roots in the model's carrier."""
    return tuple(r for r in factor.distinct_irreducible_factors(den)
                 if model is Model.COMPLEX or r.degree == 1)


def _support(nf):
    return sorted({r for r, _ in nf.corrections} | set(_candidate_loci(nf.model, nf.den)),
                  key=str)


def _patch_parts(monkeypatch, change):
    """Make emit pass its parts (nf, g, support product) through
    ``change`` before building the mixed fraction."""
    build = mixed._emit_from_parts
    monkeypatch.setattr(mixed, "_emit_from_parts",
                        lambda *parts: build(*change(*parts)))


def _patch_fraction(monkeypatch, change):
    """Make emit replace the fraction part (fn, fd) by change(fn, fd)."""
    build = mixed._emit_from_parts

    def patched(*parts):
        mf = build(*parts)
        fn, fd = change(mf.frac_num, mf.frac_den)
        return MixedFraction(mf.poly, fn, fd, mf.witness_n, mf.source)

    monkeypatch.setattr(mixed, "_emit_from_parts", patched)


MUTATION_CASES = [(EXAMPLE2, Model.RAT), (EXAMPLE2, Model.COMPLEX),
                  (EXAMPLE3, Model.COMPLEX), ("x/x + 1/(x^2-2)", Model.COMPLEX)]


@pytest.fixture(params=MUTATION_CASES, ids=lambda c: f"{c[1].value}:{c[0]}")
def case_nf(request):
    text, model = request.param
    nf = normalize(parse(text), model)
    emit(nf, check=True)  # the unmutated emission is certified
    return nf


@pytest.mark.parametrize("which", [0, -1])
def test_certificate_rejects_g_altered_on_one_locus(monkeypatch, case_nf, which):
    r = _support(case_nf)[which]
    _patch_parts(monkeypatch, lambda nf, g, e: (nf, g + e.exact_div(r), e))
    with pytest.raises(EmissionError):
        emit(case_nf, check=True)


def test_certificate_rejects_altered_fraction_numerator(monkeypatch, case_nf):
    _patch_fraction(monkeypatch, lambda fn, fd: (fn + P_ONE, fd))
    with pytest.raises(EmissionError):
        emit(case_nf, check=True)


@pytest.mark.parametrize("which", [0, -1])
def test_certificate_rejects_dropped_support_locus(monkeypatch, case_nf, which):
    r = _support(case_nf)[which]
    _patch_parts(monkeypatch, lambda nf, g, e: (nf, g, e.exact_div(r)))
    with pytest.raises(EmissionError):
        emit(case_nf, check=True)


def test_certificate_rejects_extra_denominator_factor(monkeypatch, case_nf):
    _patch_fraction(monkeypatch, lambda fn, fd: (fn, fd * Poly((1, 0, 1))))
    with pytest.raises(EmissionError):
        emit(case_nf, check=True)


def _alter_rendered_part(monkeypatch, part):
    """Render part 0, 1 or 2 of to_term (polynomial part, fraction
    numerator, fraction denominator) with its lead numerator raised by 1."""
    render = mixed._coeff_poly_term
    calls = []

    def patched(numerators, denominator):
        calls.append(None)
        if (len(calls) - 1) % 3 == part:
            numerators = list(numerators) or [0]
            numerators[-1] += 1
        return render(numerators, denominator)

    monkeypatch.setattr(mixed, "_coeff_poly_term", patched)


@pytest.mark.parametrize("part", [0, 1, 2])
def test_certificate_rejects_altered_rendered_coefficient(monkeypatch, case_nf, part):
    _alter_rendered_part(monkeypatch, part)
    with pytest.raises(EmissionError):
        emit(case_nf, check=True)


def test_certificate_rejects_nonconstant_divisor_in_a_part(monkeypatch):
    render = mixed._coeff_poly_term
    monkeypatch.setattr(mixed, "_coeff_poly_term",
                        lambda *a: Div(render(*a), parse("x + 1")))
    nf = normalize(parse(EXAMPLE3), Model.COMPLEX)
    with pytest.raises(EmissionError, match="divides by"):
        emit(nf, check=True)


def _verdicts(nf, mf):
    """(certificate accepts, round trip reproduces nf) for one emission."""
    try:
        certify(nf, mf)
        accepted = True
    except EmissionError:
        accepted = False
    return accepted, normalize(to_term(mf), nf.model) == nf


def _mutants(nf, mf):
    """Emissions that differ from nf in value somewhere on the carrier:
    fn raised by 1, and when fn is nonzero, fd times x^2 + 1 (over Q) or
    x^2 + x + 1 (over C, where x^2 + 1 may be a support locus)."""
    out = [MixedFraction(mf.poly, mf.frac_num + P_ONE, mf.frac_den, mf.witness_n)]
    if not mf.frac_num.is_zero():
        q = Poly((1, 0, 1)) if nf.model is Model.RAT else Poly((1, 1, 1))
        out.append(MixedFraction(mf.poly, mf.frac_num, mf.frac_den * q, mf.witness_n))
    return out


def _assert_certificate_matches_round_trip(nf):
    mf = emit(nf)
    assert _verdicts(nf, mf) == (True, True)
    for bad in _mutants(nf, mf):
        assert _verdicts(nf, bad) == (False, False)


@pytest.mark.parametrize("model", list(Model))
def test_certificate_agrees_with_round_trip_on_random_terms(model):
    rng = random.Random(48)
    for _ in range(120):
        _assert_certificate_matches_round_trip(normalize(random_term(rng, depth=5), model))


@pytest.mark.parametrize("text, model", [
    *[(_pfsum_shape(49), m) for m in Model],
    *[(t, Model.COMPLEX) for t in _loci_shapes(50)],
], ids=["pfsum-q", "pfsum-c", "loci-sum", "loci-indicator", "loci-sd"])
def test_certificate_agrees_with_round_trip_on_workload_shapes(text, model):
    _assert_certificate_matches_round_trip(normalize(parse(text), model))


def test_certified_emission_neither_normalizes_nor_factors(monkeypatch, cold_caches):
    caches = cold_caches[:1]  # the factor cache
    nfs = [normalize(parse(t), Model.COMPLEX) for t in _loci_shapes(51)]

    def fail(*args):
        raise AssertionError("emit normalized its output again")

    monkeypatch.setattr(mixed, "normalize", fail)
    misses = [c.cache_info().misses for c in caches]
    for nf in nfs:
        emit(nf, check=True)
    assert [c.cache_info().misses for c in caches] == misses


def test_loci_sum_inverts_its_shared_residue_once(monkeypatch, cold_caches):
    # In r1/r1 + 1/r2 the sum, and then the reduced base, need the inverse
    # of r2 modulo r1: the second is a cache hit.  The one other Euclid is
    # that of r2 modulo r1*r2, whose gcd r2 sends it to the split branch.
    calls = []
    bezout = normalform.poly_bezout
    monkeypatch.setattr(normalform, "poly_bezout",
                        lambda *args: calls.append(args) or bezout(*args))
    normalize(parse(_loci_shapes(52)[0]), Model.COMPLEX)
    assert [(a.degree, m.degree) for a, m in calls] == [(16, 24), (16, 40)]


def test_each_emission_is_rendered_once(monkeypatch, capsys):
    calls = []
    render = mixed.to_term
    monkeypatch.setattr(mixed, "to_term", lambda mf: calls.append(mf) or render(mf))
    for text, model in MUTATION_CASES:
        calls.clear()
        mf = emit(normalize(parse(text), model), check=True)
        assert mixed_to_json_dict(mf, model)["term"] == format_term(render(mf))
        mixed_to_json_dict(mf, model)
        assert calls == [mf]
        for output in ("text", "json"):
            calls.clear()
            assert main(["normalize", "--model", model.value, "--output", output,
                         "--dump-nf", text]) == 0
            assert len(calls) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# The read-back.  The certificate reads each rendered part with
# ``monomial_sum``, in the one shape the renderer writes.  The oracle reads
# any term through the term fold, one Poly per node, as the certificate
# did before.


def _fold_read_back(t):
    """The polynomial a part denotes, through the fold: a constant divisor
    inverts as a rational (0 to 0), a nonconstant one raises."""

    def inv(p):
        if not p.is_constant():
            raise EmissionError(f"rendered part divides by {p}")
        return Poly.constant(1 / p.content) if p else P_ZERO

    return interpret(t, Poly.constant, lambda: X, operator.neg, poly_sum,
                     lambda *v: reduce(operator.mul, v), inv)


def _random_literal(rng):
    n = rng.randint(-30, 30)
    return rng.choice((ZERO, ONE, Neg(ONE), IntLit(n), Neg(IntLit(abs(n) or 1))))


def _random_monomial(rng):
    """A summand c*x^k in a form the reader takes: negated or not, a
    literal or a quotient of literals (zero divisors included) as the
    coefficient, exponents 0 to 6 so that sums repeat them."""
    coeff = _random_literal(rng)
    if rng.random() < 0.5:
        coeff = Div(coeff, _random_literal(rng))
    k = rng.randint(0, 6)
    power = VAR if k == 1 and rng.random() < 0.5 else Pow(VAR, k)
    body = rng.choice((coeff, power, Mul(coeff, power)))
    return Neg(body) if rng.random() < 0.3 else body


def _random_monomial_sum(rng, most):
    summands = [_random_monomial(rng) for _ in range(rng.randint(1, most))]
    if rng.random() < 0.3:  # cancel one summand
        m = rng.choice(summands)
        summands.append(m.arg if type(m) is Neg else Neg(m))
    return reduce(Add, summands)


def test_monomial_sum_agrees_with_the_fold():
    rng = random.Random(64)
    for _ in range(600):
        t = _random_monomial_sum(rng, 8)
        nums, den = monomial_sum(t)
        assert den > 0
        assert Poly.from_ints(nums, den) == _fold_read_back(t)


@pytest.mark.parametrize("text, expected", [
    ("5/0*x^3 + 2", Poly((2,))),
    ("0/5*x + 1/1", P_ONE),
    ("x^0 + x^0 - 0", Poly((2,))),
    ("3*x^2 - 3*x^2", P_ZERO),
    ("-1/2*x + 1/3*x", Poly((0, Fraction(-1, 6)))),
    ("2/-4*x^2 - -1", Poly((1, 0, Fraction(-1, 2)))),
    ("-x", Poly((0, -1))),
])
def test_monomial_sum_reads_meadow_coefficients(text, expected):
    t = parse(text)
    assert Poly.from_ints(*monomial_sum(t)) == _fold_read_back(t) == expected


def _plain_normalize(monkeypatch, t, model):
    """The normal form through the fold alone, without the reader."""
    with monkeypatch.context() as m:
        m.setattr(terms, "monomial_sum", lambda t: None)
        return normalize(t, model)


def test_monomial_sum_declines_a_parenthesized_right_summand(monkeypatch):
    rng = random.Random(65)
    for _ in range(100):
        right = Add(_random_monomial_sum(rng, 3), _random_monomial(rng))
        t = Add(_random_monomial_sum(rng, 4), right)
        assert monomial_sum(t) is None
        assert monomial_sum(right) is not None
        for model in Model:
            nf = normalize(t, model)
            assert nf == NF(model, _fold_read_back(t), P_ONE)
            assert nf == _plain_normalize(monkeypatch, t, model)


@pytest.mark.parametrize("text", [
    "x*x", "2*3*x", "(x+1)^2", "x/2", "x^2*3", "-(-x)", "x + 1/x", "(3)/(x)",
])
def test_monomial_sum_declines_terms_outside_its_grammar(monkeypatch, text):
    t = parse(text)
    assert monomial_sum(t) is None
    with pytest.raises(EmissionError):
        mixed._read_back(t)
    for model in Model:
        assert normalize(t, model) == _plain_normalize(monkeypatch, t, model)


# ---------------------------------------------------------------------------
# Differential test against the per-locus normal form.  The oracle is the
# earlier design: one correction (r, s) per irreducible locus r, candidate
# loci from factoring every denominator, n^2 residues per sum or product and
# a per-locus CRT at emission.


def _locus_inv(a, r):
    """Inverse of a residue modulo an irreducible r (0 to 0)."""
    return P_ZERO if a.is_zero() else poly_bezout(a, r)[2] % r


class _LociNF(NamedTuple):
    model: Model
    num: Poly
    den: Poly
    corrections: tuple

    def generic_mod(self, r):
        d = self.den % r
        return P_ZERO if d.is_zero() else (self.num % r * _locus_inv(d, r)) % r

    def value_mod(self, r):
        for locus, s in self.corrections:
            if locus == r:
                return s
        return self.generic_mod(r)


def _loci_make(model, num, den, candidates):
    base = _LociNF(model, *normalform._reduce(num, den), ())
    return base._replace(corrections=tuple(
        (r, candidates[r]) for r in sorted(candidates, key=factor._order_key)
        if candidates[r] != base.generic_mod(r)))


def _loci_combine(nfs, op, unit, base):
    loci = set()
    for nf in nfs:
        loci.update(r for r, _ in nf.corrections)
        loci.update(_candidate_loci(nf.model, nf.den))
    candidates = {r: reduce(lambda s, nf: op(s, nf.value_mod(r)) % r, nfs, unit)
                  for r in loci}
    return _loci_make(nfs[0].model, *base(list(nfs)), candidates)


def _loci_nf_inv(a):
    candidates = {r: _locus_inv(s, r) for r, s in a.corrections}
    if a.num.is_zero():
        return _loci_make(a.model, P_ZERO, P_ONE, candidates)
    return _loci_make(a.model, a.den, a.num, candidates)


def _loci_normalize(t, model):
    def lift(p):
        return _LociNF(model, p, P_ONE, ())

    return interpret(
        t, lambda n: lift(Poly.constant(n)), lambda: lift(X),
        lambda a: a._replace(num=-a.num,
                             corrections=tuple((r, -s) for r, s in a.corrections)),
        lambda *v: _loci_combine(v, operator.add, P_ZERO, normalform._sum_base),
        lambda *v: _loci_combine(v, operator.mul, P_ONE, normalform._product_base),
        _loci_nf_inv)


def _loci_emission(nf):
    """Support product, patch polynomial and per-locus (locus, value,
    coefficient) of the per-locus emission."""
    values = dict(nf.corrections)
    loci = sorted(values.keys() | set(_candidate_loci(nf.model, nf.den)),
                  key=factor._order_key)
    e = reduce(operator.mul, loci, P_ONE)
    g, targets = P_ZERO, []
    for r in loci:
        v = values.get(r, P_ZERO)
        h = e.exact_div(r)
        coeff = (v * _locus_inv(h % r, r)) % r
        g = g + h * coeff
        targets.append((r, v, coeff))
    return e, g, targets


def _assert_matches_per_locus(t, model):
    nf = normalize(t, model)
    old = _loci_normalize(t, model)
    assert (nf.num, nf.den, nf.corrections) == (old.num, old.den, old.corrections)
    e, g, targets = _loci_emission(old)
    mf = emit(nf, check=True)
    if nf.den == P_ONE and not old.corrections:
        assert mf.poly == standardize(nf.num) and mf.frac_num == P_ZERO
        return
    assert nf.support == e
    assert mf == mixed._emit_from_parts(nf, g, e)
    if model is Model.COMPLEX:
        assert [(t.locus, t.value, t.coefficient) for t in mf.targets] == targets
    else:
        leads = reduce(operator.mul, (r.lead for r, _, _ in targets), Fraction(1))
        assert [(t.point, t.value, t.weight) for t in mf.targets] == sorted(
            (normalform.root(r), v.coeff(0), c.coeff(0) * leads / r.lead)
            for r, v, c in targets)


def _shared_loci_term(rng):
    """Loci and poles that share factors: corrections on a*b where b is
    also a pole, then the inverse of the whole, which inverts a residue
    modulo a reducible locus."""
    a, b = (random_int_poly(rng, 3) ** rng.randint(1, 2) for _ in range(2))
    u, v, w = (random_int_poly(rng, 2) for _ in range(3))
    text = (f"({a})/({a}) * ({u}) + ({v})/(({a})*({b})) + 1/({b}) "
            f"- ({w})*(({b})/({b}))")
    return parse(f"1/({text})" if rng.random() < 0.5 else text)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("make", [lambda rng: random_term(rng, depth=7),
                                  _shared_loci_term], ids=["random", "shared"])
def test_normal_form_matches_the_per_locus_design(model, make):
    rng = random.Random(53)
    for _ in range(150):
        _assert_matches_per_locus(make(rng), model)


@pytest.mark.parametrize("text, model", [
    *[(_pfsum_shape(54), m) for m in Model],
    *[(t, Model.COMPLEX) for t in _loci_shapes(55)],
], ids=["pfsum-q", "pfsum-c", "loci-sum", "loci-indicator", "loci-sd"])
def test_normal_form_matches_the_per_locus_design_on_workload_shapes(text, model):
    _assert_matches_per_locus(parse(text), model)


# ---------------------------------------------------------------------------
# Factoring happens only at the output boundary


def _factor_misses(caches):
    return caches[0].cache_info().misses


def test_a_loci_session_factors_only_the_witness_locus(cold_caches):
    rng = random.Random(56)
    r1, r2 = _eisenstein(rng, 24), _eisenstein(rng, 16)
    sd = _swinnerton_dyer((2, 3, 5, 7), 11)
    a, b, s = (parse(t) for t in (f"({r1})/({r1}) + 1/({r2})", f"1 - ({r1})/({r1})",
                                  f"1 - ({sd})/({sd})"))
    c = Model.COMPLEX
    for t in (a, b, s):
        emit(normalize(t, c), check=True)
    assert decide.decide_eq(a, parse(f"1/({r2}) + ({r1})*(1/({r1}))"), c)
    other = parse(f"1/({r2}) + 1")
    assert not decide.decide_eq(a, other, c)
    assert decide.distinguishing_witness(a, other, c).locus == r1
    assert decide.finite_support_sum(b, c).value == 24
    assert decide.finite_support_sum(s, c).value == 16
    assert _factor_misses(cold_caches) == 1
    factor.distinct_irreducible_factors(r1)
    assert _factor_misses(cold_caches) == 1


@pytest.mark.parametrize("text", ["1 - ({0})/({0})", "1/({0}) + 1"])
def test_complex_operations_on_a_degree_32_locus_never_factor(cold_caches, text):
    sd32 = _swinnerton_dyer((2, 3, 5, 7, 11), 0)
    t = parse(text.format(sd32))
    c = Model.COMPLEX
    emit(normalize(t, c), check=True)
    assert decide.decide_eq(t, parse(text.format(sd32).replace("/", "*1/")), c)
    result = decide.finite_support_sum(t, c)
    expected = (32, True) if text.startswith("1 -") else (0, False)
    assert (result.value, result.support_finite) == expected
    assert _factor_misses(cold_caches) == 0
