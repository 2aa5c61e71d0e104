"""Exact rational arithmetic with the meadow-total inverse.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always in
lowest terms with positive denominator, so structural equality is value
equality.  The one operation the stdlib does not provide is the total
inverse of meadows, ``meadow_inv``, which maps 0 to 0; division built on it
(``meadow_div``) therefore satisfies x/0 = 0.  No floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .terms import Add, Div, IntLit, Mul, Neg, One, Pow, Term, Var, Zero

Rat = Fraction

RAT_ZERO = Fraction(0)
RAT_ONE = Fraction(1)


def meadow_inv(a: Rat) -> Rat:
    """Total multiplicative inverse: 1/a for a != 0, and 0 for a = 0."""
    if a == 0:
        return RAT_ZERO
    return 1 / a


def meadow_div(a: Rat, b: Rat) -> Rat:
    """Total division a/b with a/0 = 0."""
    return a * meadow_inv(b)


def eval_closed(t: Term) -> Rat:
    """Value of a variable-free term under total-division semantics.

    Raises ValueError if the term contains the variable.
    """
    match t:
        case Zero():
            return RAT_ZERO
        case One():
            return RAT_ONE
        case IntLit(n):
            return Fraction(n)
        case Var():
            raise ValueError("term is not closed: variable occurs")
        case Neg(a):
            return -eval_closed(a)
        case Add(a, b):
            return eval_closed(a) + eval_closed(b)
        case Mul(a, b):
            return eval_closed(a) * eval_closed(b)
        case Div(a, b):
            return meadow_div(eval_closed(a), eval_closed(b))
        case Pow(a, n):
            return eval_closed(a) ** n
        case _:
            raise TypeError(f"not a term: {t!r}")
