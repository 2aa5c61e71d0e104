import random
from fractions import Fraction

import pytest

from meadows.checks import (
    check_emission,
    check_emission_idempotence,
    check_indicator,
    check_witness,
)
from meadows.generate import random_rat, random_term
from meadows.mixed import (
    MixedFraction,
    build_indicator,
    emit,
    emit_with_witness,
    mixed_to_json_dict,
    to_term,
)
from meadows.normalform import Model, eval_term, eval_term_mod, normalize
from meadows.poly import P_ONE, P_ZERO, Poly, StdPoly
from meadows.terms import TermClass, classify, format_term, parse

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
