"""Exact arithmetic for univariate terms over meadows.

Meadows make division total by setting x/0 = 0.  This package parses
univariate terms over {0, 1, -, +, *, /}, computes canonical semantic
normal forms over the rational and complex meadows, emits mixed fractions
(a standardized polynomial plus a simple fraction with integer
coefficients, with the integer scaling witness), and decides semantic
equality, simple-fraction expressibility, and finite-support summation.
All arithmetic is exact.
"""

from .decide import (
    LocusWitness,
    PointWitness,
    SupportSum,
    decide_eq,
    distinguishing_witness,
    finite_support_sum,
    simple_expressible,
    simple_fraction,
    sum_star_equals,
)
from .factor import Factorization, distinct_irreducible_factors, factor_rationals
from .mixed import (
    IndicatorFraction,
    LocusTarget,
    MixedFraction,
    PointTarget,
    build_indicator,
    emit,
    emit_with_witness,
    mixed_to_json_dict,
    to_term,
)
from .normalform import (
    NF,
    Model,
    eval_term,
    eval_term_mod,
    nf_add,
    nf_inv,
    nf_mul,
    nf_neg,
    normalize,
)
from .poly import (
    Poly,
    StdPoly,
    appendix_oracle,
    lagrange_interpolate,
    lagrange_weights,
    poly_bezout,
    poly_gcd,
    rational_roots,
    squarefree_part,
    standardize,
    trace_sum,
)
from .rationals import Rat, eval_closed, meadow_div, meadow_inv
from .terms import (
    Add,
    Div,
    IntLit,
    Mul,
    Neg,
    ONE,
    One,
    Pow,
    Term,
    TermClass,
    TermSyntaxError,
    Var,
    X,
    ZERO,
    Zero,
    classify,
    desugar,
    format_term,
    parse,
)

__all__ = [name for name in dir() if not name.startswith("_")]
