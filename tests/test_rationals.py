import random
from fractions import Fraction

import pytest

from meadows.checks import AXIOMS, check_axioms, check_meadow_inv_involution
from meadows.generate import random_closed_fraction_term
from meadows.rationals import eval_closed, meadow_div, meadow_inv
from meadows.terms import parse


def test_addition_matches_paper_values():
    assert Fraction(1, 242) + Fraction(-5, 4) == Fraction(-603, 484)
    # cross-check against the interpolation weight: -603/484 = 6 * (-201/968)
    assert Fraction(-603, 484) == 6 * Fraction(-201, 968)
    assert Fraction(5) + Fraction(-2, 7) == Fraction(33, 7)


def test_multiplication_by_zero():
    assert Fraction(7, 3) * 0 == 0


def test_results_are_lowest_terms_with_positive_denominator():
    a = Fraction(2, -4)
    assert (a.numerator, a.denominator) == (-1, 2)


def test_meadow_inv_of_zero():
    assert meadow_inv(Fraction(0)) == 0


def test_meadow_inv_of_fraction():
    assert meadow_inv(Fraction(3, 8)) == Fraction(8, 3)


def test_meadow_inv_involution_example():
    assert meadow_inv(meadow_inv(Fraction(-5, 4))) == Fraction(-5, 4)


def test_meadow_inv_involution_property():
    assert check_meadow_inv_involution(seed=5, rounds=500).ok


def test_meadow_div_total():
    assert meadow_div(Fraction(1), Fraction(0)) == 0


def test_eval_closed_division_by_zero():
    assert eval_closed(parse("1/0")) == 0


def test_eval_closed_plain_fraction():
    assert eval_closed(parse("(1+1)/(1+1+1)")) == Fraction(2, 3)


def test_eval_closed_nested_inverse():
    assert eval_closed(parse("1/(1/0)")) == 0


def test_eval_closed_rejects_variable():
    with pytest.raises(ValueError):
        eval_closed(parse("x + 1"))


@pytest.mark.parametrize("text", ["x - x", "x^0 + 1", "0*x + 1"])
def test_eval_closed_rejects_a_variable_that_cancels(text):
    # Each is a sum of monomials with a constant value; reading it as one
    # polynomial would hide the variable, so closed evaluation folds it.
    with pytest.raises(ValueError, match="not closed"):
        eval_closed(parse(text))


def test_axioms_hold_under_closed_evaluation():
    # all metavariables instantiated with closed terms
    rng = random.Random(11)
    for name, arity, make in AXIOMS:
        for _ in range(500):
            args = [random_closed_fraction_term(rng) for _ in range(arity)]
            lhs, rhs = make(*args)
            assert eval_closed(lhs) == eval_closed(rhs), name


def test_axioms_hold_under_open_evaluation():
    assert check_axioms(seed=3, rounds=100).ok


def test_conditional_cancellation():
    rng = random.Random(13)
    for _ in range(100):
        value = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        assert value * meadow_inv(value) == 1
