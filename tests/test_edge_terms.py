"""End-to-end pipeline checks on hand-picked corner cases the random
generator rarely hits: nested inverses, vanishing denominators, repeated
factors, fractional coefficients and support points."""

import random
from fractions import Fraction

import pytest

from meadows.mixed import emit, to_term
from meadows.normalform import Model, eval_term, eval_term_mod, normalize
from meadows.terms import TermClass, classify, parse

CASES = [
    "1/(1/(1/(1/x)))",
    "1/(x*x - x*x)",
    "(x^2+1)^3/(x^2+1)^2",
    "x^9/(x^9 + 0)",
    "((x+1)/(x-1))/((x-1)/(x+1))",
    "1/2/(x^2+1) + 1",
    "(1 - x/x) * (1 - (x-1)/(x-1))",
    "(1 - x/x) + (1 - (x-1)/(x-1))",
    "1/(x^4+1) + 1/(x^4-2)",
    "(x/3 + 1/2)/(x/5 - 1/7)",
    "-(x/x)/(x/x)",
    "((2*x-1)^2/(2*x-1))/(2*x-1)",
    "1/(x^2+2*x+1)",
    "(x^2+2*x+1)/(x+1)",
    "0/0 + x/0 + 0/x",
    "x^0 + (x/x)^0",
]


@pytest.mark.parametrize("text", CASES)
@pytest.mark.parametrize("model", list(Model))
def test_pipeline_on_corner_case(text, model):
    rng = random.Random(hash((text, model.value)) & 0xFFFF)
    t = parse(text)
    nf = normalize(t, model)
    mf = emit(nf, check=True)
    emitted = to_term(mf)
    assert classify(emitted) is TermClass.MIXED_FRACTION
    for _ in range(40):
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        expected = eval_term(t, a)
        assert nf.value_at(a) == expected
        assert eval_term(emitted, a) == expected
    if model is Model.COMPLEX:
        for r, s in nf.corrections:
            assert eval_term_mod(t, r) == s
            assert eval_term_mod(emitted, r) == s
