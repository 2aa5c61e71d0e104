"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance zero unless a runtime bound is stated).  Each test prints a
pass/fail line; run with -s to see them."""

import random
import time
from fractions import Fraction

from meadows.checks import (
    check_appendix_oracle,
    check_axioms,
    check_cancellation,
    check_emission,
    check_sum_star,
)
from meadows.decide import decide_eq, finite_support_sum
from meadows.generate import random_rat, random_term
from meadows.mixed import emit, emit_with_witness, to_term
from meadows.normalform import Model, eval_term, normalize
from meadows.poly import P_ONE, StdPoly
from meadows.terms import parse

EXAMPLE2 = "1/(x^2+3*x) + (2*x+5)/(x^5+1) + (x^3+2)/(3*x^2-7)"
EXAMPLE3 = "1/(x^2+1) + 1/(x^2+2)"


def _report(number: int, description: str, body) -> None:
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_example2_golden_q():
    def body():
        start = time.monotonic()
        nf = normalize(parse(EXAMPLE2), Model.RAT)
        mf = emit(nf)
        elapsed = time.monotonic() - start
        weights = {t.point: t.weight for t in mf.targets}
        assert weights == {
            Fraction(-3): Fraction(-201, 968),
            Fraction(0): Fraction(11, 7),
            Fraction(-1): Fraction(3, 8),
        }
        assert mf.poly.numerators == (15972, 24404, 5891)
        assert mf.poly.denominator == 3388
        assert elapsed < 1.0

    _report(1, "example 2 golden values over Q", body)


def test_criterion_2_example3_golden_c():
    def body():
        start = time.monotonic()
        nf = normalize(parse(EXAMPLE3), Model.COMPLEX)
        mf = emit(nf)
        elapsed = time.monotonic() - start
        coefficients = [t.coefficient for t in mf.targets]
        assert coefficients == [P_ONE, P_ONE]
        assert mf.poly == StdPoly((3, 0, 2), 1)  # g = 2x^2 + 3
        assert elapsed < 1.0

    _report(2, "example 3 golden values over C", body)


def test_criterion_3_model_separation():
    def body():
        s = parse("1/(x^2-2)+1/1")
        u = parse("(x^2-1)/(x^2-2)")
        assert decide_eq(s, u, Model.RAT) is True
        assert decide_eq(s, u, Model.COMPLEX) is False

    _report(3, "equality holds over Q and fails over C", body)


def test_criterion_4_total_division():
    def body():
        assert eval_term(parse("1/0"), Fraction(0)) == 0
        assert eval_term(parse(EXAMPLE2), Fraction(0)) == Fraction(33, 7)

    _report(4, "total-division semantics", body)


def test_criterion_5_shape_and_fidelity():
    def body():
        start = time.monotonic()
        result = check_emission(seed=100, rounds=500, points=25)
        elapsed = time.monotonic() - start
        assert result.ok, result.detail
        assert elapsed < 60.0

    _report(5, "500 emitted terms: mixed shape, exact agreement, both models",
            body)


def test_criterion_6_appendix_oracle():
    def body():
        result = check_appendix_oracle(seed=101, rounds=100)
        assert result.ok, result.detail

    _report(6, "combinatorial standard form equals expansion on 100 instances",
            body)


def test_criterion_7_sum_star():
    def body():
        result = check_sum_star(seed=102, rounds=100)
        assert result.ok, result.detail
        one = finite_support_sum(parse("1 - x/x"), Model.COMPLEX)
        assert (one.value, one.support_finite) == (Fraction(1), True)
        poly_case = finite_support_sum(parse("x^3 + 2"), Model.COMPLEX)
        assert (poly_case.value, poly_case.support_finite) == (Fraction(0), False)

    _report(7, "finite-support sums match the root-sum oracle", body)


def test_criterion_8_axiom_suite():
    def body():
        axioms = check_axioms(seed=103, rounds=500)
        assert axioms.ok, axioms.detail
        cancel = check_cancellation(seed=104, rounds=100)
        assert cancel.ok, cancel.detail

    _report(8, "all eleven axioms x 500 plus conditional cancellation x 100",
            body)


def test_criterion_9_witness():
    def body():
        rng = random.Random(105)
        t = parse(EXAMPLE2)
        mf, n = emit_with_witness(t)
        assert n > 0 and n % mf.poly.denominator == 0
        emitted = to_term(mf)
        for _ in range(100):
            a = random_rat(rng)
            assert n * (eval_term(t, a) - eval_term(emitted, a)) == 0
        for _ in range(50):
            u = random_term(rng, depth=4)
            mf_u, n_u = emit_with_witness(u)
            assert n_u > 0 and n_u % mf_u.poly.denominator == 0
            emitted_u = to_term(mf_u)
            for _ in range(10):
                a = random_rat(rng)
                assert n_u * (eval_term(u, a) - eval_term(emitted_u, a)) == 0

    _report(9, "witness n scales the emitted equality to zero difference",
            body)
