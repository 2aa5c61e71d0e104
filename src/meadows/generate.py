"""Seeded random generators for property checks.

Generated terms keep integer literals at most 9 and exponents at most 3 so
that denominators stay at desk scale; negative literals are produced as
negations of positive ones, which keeps the parse/print round trip exact.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .poly import Poly
from .rationals import Rat
from .terms import Add, Div, IntLit, Mul, Neg, ONE, Pow, Term, X, ZERO, int_literal

_LEAVES = ("var", "lit", "zero", "one")
_LEAF_WEIGHTS = (40, 45, 8, 7)
_NODES = ("add", "mul", "div", "neg", "pow")
_NODE_WEIGHTS = (26, 24, 22, 16, 12)


def random_rat(rng: random.Random, num_bound: int = 20, den_bound: int = 10) -> Rat:
    den = rng.randint(1, den_bound)
    return Fraction(rng.randint(-num_bound, num_bound), den)


def random_nonzero_rat(rng: random.Random, num_bound: int = 20,
                       den_bound: int = 10) -> Rat:
    while True:
        r = random_rat(rng, num_bound, den_bound)
        if r != 0:
            return r


def random_term(rng: random.Random, depth: int = 6, max_literal: int = 9) -> Term:
    if depth <= 0 or rng.random() < 0.32:
        kind = rng.choices(_LEAVES, _LEAF_WEIGHTS)[0]
        if kind == "var":
            return X
        if kind == "lit":
            return IntLit(rng.randint(2, max_literal))
        if kind == "zero":
            return ZERO
        return ONE
    kind = rng.choices(_NODES, _NODE_WEIGHTS)[0]
    if kind == "add":
        return Add(random_term(rng, depth - 1, max_literal),
                   random_term(rng, depth - 1, max_literal))
    if kind == "mul":
        return Mul(random_term(rng, depth - 1, max_literal),
                   random_term(rng, depth - 1, max_literal))
    if kind == "div":
        return Div(random_term(rng, depth - 1, max_literal),
                   random_term(rng, depth - 1, max_literal))
    if kind == "neg":
        return Neg(random_term(rng, depth - 1, max_literal))
    exponent = rng.choices((0, 2, 3), (1, 5, 4))[0]
    return Pow(random_term(rng, depth - 1, max_literal), exponent)


def random_closed_fraction_term(rng: random.Random, bound: int = 9) -> Term:
    """A closed simple fraction p/q with small integer literals."""
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    num_term: Term = Neg(int_literal(-num)) if num < 0 else int_literal(num)
    return Div(num_term, int_literal(den))


def random_int_poly(rng: random.Random, max_degree: int,
                    coeff_bound: int = 9, nonzero: bool = True) -> Poly:
    degree = rng.randint(0, max_degree)
    coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree)]
    lead = rng.randint(1, coeff_bound)
    if rng.random() < 0.5:
        lead = -lead
    coeffs.append(lead)
    p = Poly(coeffs)
    if nonzero and p.is_zero():
        return Poly((Fraction(1),))
    return p
