"""Exact rational arithmetic with the meadow-total inverse.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always in
lowest terms with positive denominator, so structural equality is value
equality.  The one operation the stdlib does not provide is the total
inverse of meadows, ``meadow_inv``, which maps 0 to 0; division built on it
(``meadow_div``) therefore satisfies x/0 = 0.  No floating point is used
anywhere.

Terms evaluate at a rational point through one algebra over the term fold
(``terms.interpret``): the variable takes the point, or raises for a term
that must be closed, and each operator maps to its meadow operation.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce

from .terms import Term, interpret

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


def eval_term(t: Term, a: Rat) -> Rat:
    """Meadow value of a term at a rational point."""
    a = Fraction(a)
    return _eval(t, lambda: a)


def eval_closed(t: Term) -> Rat:
    """Value of a variable-free term under total-division semantics.

    Raises ValueError if the term contains the variable.
    """
    return _eval(t, _not_closed)


def _not_closed() -> Rat:
    raise ValueError("term is not closed: variable occurs")


def _eval(t: Term, var) -> Rat:
    # Node by node, without interpret's reader of monomial sums: a closed
    # term must reach var() even where the variable cancels, as in x - x.
    return interpret(t, Fraction, var, operator.neg, lambda *v: sum(v, RAT_ZERO),
                     lambda *v: reduce(operator.mul, v), meadow_inv)
