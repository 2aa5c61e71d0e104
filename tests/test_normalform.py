import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from meadows.checks import (
    check_desugar,
    check_model_refinement,
    check_nf_canonicity,
    check_nf_homomorphism,
    check_nf_minimality,
    check_nf_soundness,
)
from meadows import normalform, poly
from meadows.generate import random_term
from meadows.normalform import (
    NF,
    Model,
    eval_term,
    eval_term_mod,
    loci,
    nf_add,
    nf_inv,
    nf_mul,
    nf_neg,
    normalize,
    quotient_inv,
)
from meadows.poly import P_ONE, P_ZERO, Poly, poly_bezout, poly_gcd
from meadows.terms import (
    Add,
    Div,
    IntLit,
    Mul,
    Neg,
    ONE,
    Pow,
    X as VAR,
    ZERO,
    format_term,
    interpret,
    parse,
)

X = Poly((0, 1))

EXAMPLE2 = "1/(x^2+3*x) + (2*x+5)/(x^5+1) + (x^3+2)/(3*x^2-7)"


def test_eval_term_example2_values():
    t = parse(EXAMPLE2)
    assert eval_term(t, Fraction(0)) == Fraction(33, 7)
    assert eval_term(t, Fraction(-3)) == Fraction(1, 242) - Fraction(5, 4)
    assert eval_term(t, Fraction(-3)) == Fraction(-603, 484)


def test_eval_term_x_over_x_at_zero():
    assert eval_term(parse("x/x"), Fraction(0)) == 0
    assert eval_term(parse("x/x"), Fraction(5)) == 1


def test_eval_term_mod_constant_shift():
    # x^2 + 2 is congruent to 1 modulo x^2 + 1
    s = eval_term_mod(parse("1/(x^2+2)"), Poly((1, 0, 1)))
    assert s == P_ONE


def test_eval_term_mod_zero_inverse():
    assert eval_term_mod(parse("1/x"), X) == P_ZERO


def test_eval_term_mod_cube():
    assert eval_term_mod(parse("x^3"), Poly((2, 0, 1))) == Poly((0, -2))


def test_eval_term_mod_inverts_modulo_a_reducible_locus():
    # 1/(x-1) is 0 at 1 and -1/2 at -1: the residue (x-1)/4 modulo x^2 - 1
    s = eval_term_mod(parse("1/(x-1)"), Poly((-1, 0, 1)))
    assert s == Poly((Fraction(-1, 4), Fraction(1, 4)))


def test_eval_term_mod_rejects_constant_modulus():
    with pytest.raises(ValueError):
        eval_term_mod(parse("x"), P_ONE)


def test_normalize_x_over_x():
    nf = normalize(parse("x/x"), Model.RAT)
    assert nf == NF(Model.RAT, P_ONE, P_ONE, X, P_ZERO)


def test_normalize_sum_with_pole():
    nf = normalize(parse("1/x + 1/1"), Model.RAT)
    assert nf.num == Poly((1, 1))
    assert nf.den == X
    assert nf.exceptions == ((Fraction(0), Fraction(1)),)


def test_normalize_model_separation_pair():
    t = parse("1/(x^2-2) + 1/1")
    nf_q = normalize(t, Model.RAT)
    assert nf_q.num == Poly((-1, 0, 1))
    assert nf_q.den == Poly((-2, 0, 1))
    assert nf_q.exceptions == ()
    nf_c = normalize(t, Model.COMPLEX)
    assert nf_c.num == Poly((-1, 0, 1))
    assert nf_c.den == Poly((-2, 0, 1))
    assert nf_c.corrections == ((Poly((-2, 0, 1)), P_ONE),)


def test_normalize_example2_exceptions():
    nf = normalize(parse(EXAMPLE2), Model.RAT)
    assert dict(nf.exceptions) == {
        Fraction(-3): Fraction(-603, 484),
        Fraction(0): Fraction(33, 7),
        Fraction(-1): Fraction(-3, 4),
    }


def test_normalize_closed_term_is_constant():
    nf = normalize(parse("5 - 2/7"), Model.RAT)
    assert nf == NF(Model.RAT, Poly.constant(Fraction(33, 7)), P_ONE)


def test_nf_add_example():
    one_over_x = normalize(parse("1/x"), Model.RAT)
    one = normalize(parse("1/1"), Model.RAT)
    combined = nf_add(one_over_x, one)
    assert combined == normalize(parse("1/x + 1/1"), Model.RAT)


def test_nf_add_zero_identity():
    rng = random.Random(30)
    zero_q = normalize(parse("0"), Model.RAT)
    zero_c = normalize(parse("0"), Model.COMPLEX)
    for _ in range(25):
        t = random_term(rng, depth=4)
        assert nf_add(normalize(t, Model.RAT), zero_q) == normalize(t, Model.RAT)
        assert nf_add(normalize(t, Model.COMPLEX), zero_c) == normalize(
            t, Model.COMPLEX
        )


def test_nf_mul_x_with_inverse():
    product = nf_mul(normalize(parse("x"), Model.RAT),
                     normalize(parse("1/x"), Model.RAT))
    assert product == NF(Model.RAT, P_ONE, P_ONE, X, P_ZERO)


def test_nf_mul_rejects_model_mismatch():
    with pytest.raises(TypeError):
        nf_mul(normalize(parse("x"), Model.RAT),
               normalize(parse("x"), Model.COMPLEX))


def test_nf_neg_involution_and_example():
    nf = normalize(parse("x/x"), Model.RAT)
    assert nf_neg(nf_neg(nf)) == nf
    negated = nf_neg(nf)
    assert negated.num == Poly((-1,))
    assert negated.exceptions == ((Fraction(0), Fraction(0)),)
    zero = normalize(parse("0"), Model.RAT)
    assert nf_neg(zero) == zero


def test_nf_inv_of_x():
    inv = nf_inv(normalize(parse("x"), Model.RAT))
    assert inv == NF(Model.RAT, P_ONE, X)


def test_nf_inv_involution_property():
    rng = random.Random(31)
    for _ in range(200):
        t = random_term(rng, depth=4)
        for model in Model:
            nf = normalize(t, model)
            assert nf_inv(nf_inv(nf)) == nf


def test_nf_inv_fixes_x_over_x():
    nf = normalize(parse("x/x"), Model.RAT)
    assert nf_inv(nf) == nf


def test_nf_eval_example2():
    nf = normalize(parse(EXAMPLE2), Model.RAT)
    assert nf.value_at(Fraction(0)) == Fraction(33, 7)
    # generic point
    assert nf.value_at(Fraction(1)) == eval_term(parse(EXAMPLE2), Fraction(1))


def test_nf_eval_complex_at_rational_points():
    nf = normalize(parse("x/x"), Model.COMPLEX)
    assert nf.value_at(Fraction(0)) == 0
    assert nf.value_at(Fraction(5)) == 1


def test_den_normalization_invariants():
    rng = random.Random(32)
    for _ in range(100):
        t = random_term(rng, depth=5)
        for model in Model:
            nf = normalize(t, model)
            assert not nf.den.is_zero()
            assert nf.den.lead > 0
            assert nf.den == nf.den.primitive()
            if nf.num.is_zero():
                assert nf.den == P_ONE
            from meadows.poly import poly_gcd

            assert poly_gcd(nf.num, nf.den) == P_ONE or nf.num.is_zero()


def test_correction_invariants():
    rng = random.Random(33)
    for _ in range(60):
        t = random_term(rng, depth=5)
        nf = normalize(t, Model.COMPLEX)
        loci = [r for r, _ in nf.corrections]
        assert len(set(loci)) == len(loci)
        for r, s in nf.corrections:
            assert r == r.primitive() and r.lead > 0
            assert s.is_zero() or s.degree < r.degree
            # locus irreducibility: evaluating the term modulo r succeeds
            assert eval_term_mod(t, r) == s


def test_rational_loci_multiply_back_to_locus_and_support():
    # Over Q every locus and every support is a product of distinct linear
    # factors, so the loci read p-adically rebuild it, in factor order.
    rng = random.Random(35)
    for _ in range(300):
        t = Add(random_term(rng, depth=6),
                Div(random_term(rng, depth=3), random_term(rng, depth=3)))
        nf = normalize(t, Model.RAT)
        for p in (nf.locus, nf.support):
            rs = loci(p, Model.RAT)
            assert all(r.degree == 1 for r in rs)
            assert reduce(operator.mul, rs, P_ONE) == p
            assert rs == normalform.distinct_irreducible_factors(p)


def test_linear_loci_are_read_without_the_root_finder(monkeypatch, cold_caches):
    rng = random.Random(36)
    ps = [Poly([rng.randint(-30, 30), rng.choice((-1, 1)) * rng.randint(1, 12)])
          .scale(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)))
          for _ in range(200)]
    general = {Model.RAT: [tuple(Poly((-a.numerator, a.denominator))
                                 for a in normalform.rational_roots(p)) for p in ps],
               Model.COMPLEX: [normalform.distinct_irreducible_factors(p) for p in ps]}

    def fail(*args):
        raise AssertionError("a linear locus went through the general path")

    monkeypatch.setattr(normalform, "rational_roots", fail)
    monkeypatch.setattr(normalform, "distinct_irreducible_factors", fail)
    for model in Model:
        assert [loci(p, model) for p in ps] == general[model]


def test_dense_polynomial_text_normalizes_without_a_product(monkeypatch):
    # A polynomial written out term by term is read as one sum of
    # monomials: no x^k by repeated squaring, no coefficient times a power.
    rng = random.Random(37)
    p = Poly([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(24)]
             + [rng.randint(1, 99)])
    t = parse(str(p))
    calls = []
    product = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda *a: calls.append(a) or product(*a))
    for model in Model:
        assert normalize(t, model) == NF(model, p, P_ONE)
    assert calls == []


def test_soundness_spec_scale():
    assert check_nf_soundness(seed=34, rounds=1000, points=25).ok


def test_homomorphism_property():
    assert check_nf_homomorphism(seed=35, rounds=200).ok


def test_canonicity_property():
    assert check_nf_canonicity(seed=36, rounds=100).ok


def test_minimality_property():
    assert check_nf_minimality(seed=37, rounds=300).ok


def test_model_refinement_property():
    assert check_model_refinement(seed=38, rounds=200).ok


def test_desugaring_soundness_property():
    assert check_desugar(seed=39, rounds=100).ok


def test_json_serialization_shapes():
    nf_q = normalize(parse("1/x + 1/1"), Model.RAT)
    d = nf_q.to_json_dict()
    assert d == {
        "num": ["1", "1"],
        "den": ["0", "1"],
        "exceptions": [{"point": "0", "value": "1"}],
    }
    nf_c = normalize(parse("1/(x^2-2) + 1/1"), Model.COMPLEX)
    d = nf_c.to_json_dict()
    assert d["corrections"] == [{"locus": ["-2", "0", "1"], "value": ["1"]}]


def test_normalize_power_of_x_matches_repeated_mul():
    for model in Model:
        x_nf = normalize(VAR, model)
        expected = normalize(ONE, model)
        for n in range(71):
            assert normalize(Pow(VAR, n), model) == expected
            expected = nf_mul(expected, x_nf)


def _division_free_term(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice((VAR, VAR, ZERO, ONE, IntLit(rng.randint(2, 9))))
    kind = rng.choice(("add", "mul", "neg", "pow"))
    if kind == "neg":
        return Neg(_division_free_term(rng, depth - 1))
    if kind == "pow":
        return Pow(_division_free_term(rng, depth - 1), rng.randint(0, 4))
    node = Add if kind == "add" else Mul
    return node(_division_free_term(rng, depth - 1),
                _division_free_term(rng, depth - 1))


def test_division_free_terms_normalize_to_polynomials():
    rng = random.Random(42)
    points = [Fraction(k, 3) for k in range(-6, 7)]
    for _ in range(150):
        t = _division_free_term(rng, 5)
        for model in Model:
            nf = normalize(t, model)
            assert nf.den == P_ONE
            assert nf.corrections == ()
            for a in points:
                assert nf.num(a) == eval_term(t, a)


def test_rational_nf_is_complex_nf_on_linear_loci():
    # A rational point is a linear locus: the Q normal form is the C normal
    # form with the corrections on higher-degree loci dropped.
    rng = random.Random(7)
    for _ in range(600):
        t = random_term(rng, depth=5)
        nf_c = normalize(t, Model.COMPLEX)
        linear = tuple((r, s) for r, s in nf_c.corrections if r.degree == 1)
        nf_q = normalize(t, Model.RAT)
        assert (nf_q.num, nf_q.den, nf_q.corrections) == (nf_c.num, nf_c.den, linear)


# ---------------------------------------------------------------------------
# Division-free subterms stay polynomials; each inverse is computed once


def _reference_normalize(t, model):
    """Normalization in the algebra of normal forms alone: every leaf is
    lifted into NF, so every sum, product and power is an NF operation."""
    x = NF(model, X, P_ONE)
    return interpret(t, lambda n: NF(model, Poly.constant(n), P_ONE),
                     lambda: x, nf_neg, nf_add, nf_mul, nf_inv)


def _power_term(rng):
    """A division-free term with powers of x up to x^60."""
    parts = [f"{rng.randint(-9, 9)}*x^{rng.randint(0, 60)}"
             for _ in range(rng.randint(1, 6))]
    return parse(" + ".join(parts) + f" - (x + {rng.randint(0, 3)})^{rng.randint(0, 4)}"
                 f" * x^{rng.randint(0, 60)}")


def _chain_term(rng):
    """A depth-4 term behind a chain of up to 600 summands x - x + ..."""
    n = rng.choice((50, 300))
    return parse("x - x + " * n + f"({format_term(random_term(rng, depth=4))})")


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("make", [
    lambda rng: random_term(rng, depth=5), _power_term, _chain_term,
], ids=["random", "powers", "chains"])
def test_normalize_matches_the_nf_only_algebra(model, make):
    rng = random.Random(62)
    for _ in range(60):
        t = make(rng)
        assert normalize(t, model) == _reference_normalize(t, model)


def _pairwise_sum(values):
    """A sum of polynomials and normal forms folded two at a time, each
    pair of polynomials by ``Poly.__add__``."""
    acc = values[0]
    for v in values[1:]:
        acc = acc + v if type(acc) is Poly and type(v) is Poly else nf_add(acc, v)
    return acc


@pytest.mark.parametrize("model", list(Model))
def test_sum_chains_merge_their_polynomials_like_the_pairwise_fold(model):
    # A chain that ends in a parenthesized summand is not a monomial sum,
    # so all its summands reach one nf_add; its polynomials, with rational
    # contents, are merged by one poly_sum.
    rng = random.Random(64)
    for n in (1, 2, 7, 60, 300):
        texts = [rng.choice(("x", "x^2 - x", f"({rng.randint(-9, 9)}*x^{rng.randint(0, 5)}"
                                             f" - {rng.randint(0, 9)})/{rng.randint(1, 6)}"))
                 for _ in range(n)]
        tails = [f"({format_term(random_term(rng, depth=4))})", "(1/(x + 1) + x)"]
        values = [normalize(parse(t), model).num for t in texts]
        values += [normalize(parse(t), model) for t in tails]
        text = " + ".join(f"({t})" for t in texts) + " + " + " + ".join(tails)
        expected = _pairwise_sum(values)
        assert normalize(parse(text), model) == nf_add(*values) == expected
        rng.shuffle(values)
        assert nf_add(*values) == _pairwise_sum(values) == expected


def test_division_free_terms_never_enter_the_nf_algebra(monkeypatch):
    def fail(*args):
        raise AssertionError("a division-free subterm became a normal form")

    for name in ("nf_add", "nf_mul", "nf_inv", "nf_neg"):
        monkeypatch.setattr(normalform, name, fail)
    t = parse("(x + 1)^60 - x*x^59 + 3/2 - 1/0 + (x^2 - 2)/(0 - 7)")
    expected = (Poly((1, 1)) ** 60 - X ** 60 + Poly.constant(Fraction(3, 2))
                - Poly((-2, 0, 1)).scale(Fraction(1, 7)))
    for model in Model:
        assert normalize(t, model) == NF(model, expected, P_ONE)


def _eisenstein_locus(rng, degree):
    """Monic, Eisenstein at 3 and so irreducible."""
    return Poly([3 * rng.choice((-2, -1, 1, 2))]
                + [3 * rng.randint(-3, 3) for _ in range(degree - 1)] + [1])


def test_quotient_inv_agrees_with_bezout_on_miss_and_hit(cold_caches):
    cache = normalform._bezout_inverse
    rng = random.Random(63)
    for _ in range(30):
        r = _eisenstein_locus(rng, rng.randint(2, 12))
        a = Poly([rng.randint(-9, 9) for _ in range(r.degree - 1)] + [rng.randint(1, 9)])
        assert a.degree >= 2  # constant and linear residues bypass the cache
        expected = poly_bezout(a, r)[2] % r
        for outcome in ("misses", "hits"):
            before = cache.cache_info()
            s = quotient_inv(a, r)
            assert getattr(cache.cache_info(), outcome) == getattr(before, outcome) + 1
            assert s == expected
            assert (a * s) % r == P_ONE


def test_a_nonlinear_miss_runs_one_euclid_and_no_gcd(monkeypatch, cold_caches):
    # The gcd comes from the same extended Euclid as the inverse.
    calls = {"zx_gcd": 0, "poly_bezout": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    spy(normalform, "poly_bezout")
    spy(normalform, "zx_gcd")
    spy(poly, "zx_gcd")
    r = _eisenstein_locus(random.Random(64), 9)
    a = Poly((Fraction(2, 3), -4, 0, 5, 1))
    s = quotient_inv(a, r)
    assert (a * s) % r == P_ONE
    assert calls == {"zx_gcd": 0, "poly_bezout": 1}


def test_constant_residues_bypass_the_inverse_cache(cold_caches):
    r = Poly((-2, 0, 1))
    assert quotient_inv(Poly.constant(Fraction(-3, 4)), r) == Poly.constant(Fraction(-4, 3))
    assert quotient_inv(P_ZERO, r) == P_ZERO
    assert quotient_inv(Poly((3, -2)), r) == Poly((3, 2))
    assert normalform._bezout_inverse.cache_info().currsize == 0


def test_quotient_inv_is_the_meadow_inverse_modulo_a_reducible_modulus(cold_caches):
    # (x^2 + 1)(x - 1)(x + 2): a residue sharing x - 1 or x^2 + 1 with it
    # inverts to 0 on the shared roots and to its inverse on the others.
    modulus = Poly((1, 0, 1)) * Poly((-1, 1)) * Poly((2, 1))
    for a in (Poly((-1, 1)), Poly((1, 0, 1)), Poly((-1, 1)) * Poly((3, 1)),
              Poly((1, 0, 1)) * Poly((2, 1))):
        s = quotient_inv(a, modulus)
        assert s.degree < modulus.degree
        assert (a * s * a) % modulus == a
        assert (s * a * s) % modulus == s
        g = poly_gcd(a, modulus)
        assert s % g == P_ZERO
        unit = modulus.exact_div(g)
        assert (a * s) % unit == P_ONE
        assert quotient_inv(a, modulus) == s


# ---------------------------------------------------------------------------
# Linear residues invert in closed form


def _bezout_oracle(a: Poly, m: Poly) -> Poly:
    """Meadow inverse of a modulo the squarefree m by the extended Euclid:
    g = gcd(a, m), the inverse t modulo u = m/g by ``poly_bezout``, and the
    CRT s = g*((t * g^{-1}) mod u), which is t modulo u and 0 modulo g."""
    g = poly_gcd(a, m)
    u = m // g
    if u.is_constant():
        return P_ZERO
    t = poly_bezout(a % u, u)[2] % u
    if g.is_constant():
        return t
    return g * ((t * poly_bezout(g % u, u)[2]) % u) % m


def _linear_case(rng, degree):
    """(residue, modulus): a squarefree modulus of the given degree with
    distinct rational roots, sometimes a factor x^2 + k, and a rational
    content of either sign; a linear residue with a rational content, half
    the time vanishing at a root of the modulus."""
    def content():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 7))

    quadratic = degree >= 2 and rng.random() < 0.3
    roots = set()
    while len(roots) < degree - 2 * quadratic:
        roots.add(Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
    m = Poly.constant(content())
    for r in roots:
        m = m * Poly((-r.numerator, r.denominator))
    if quadratic:
        m = m * Poly((rng.randint(1, 9), 0, 1))
    if roots and rng.random() < 0.5:
        root = rng.choice(sorted(roots))
    else:
        root = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
    return Poly((-root.numerator, root.denominator)).scale(content()), m


def test_linear_residues_invert_like_bezout(cold_caches):
    rng = random.Random(81)
    shared = coprime = 0
    for degree in list(range(1, 31)) * 12:
        a, m = _linear_case(rng, degree)
        s = quotient_inv(a, m)
        assert s == _bezout_oracle(a, m)
        assert s.degree < m.degree
        if m(normalform.root(a)):
            coprime += 1
            assert (a * s) % m == P_ONE
        else:
            shared += 1
            assert s(normalform.root(a)) == 0
    assert shared > 100 and coprime > 100
    assert normalform._bezout_inverse.cache_info().currsize == 0


def _pfsum_text(rng):
    """A sum of 22 fractions b/(b*x - a) with distinct poles a/b."""
    poles = set()
    while len(poles) < 22:
        poles.add(Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
    return " + ".join(f"{a.denominator}/({a.denominator}*x - ({a.numerator}))"
                      for a in poles)


def test_partial_fraction_sums_run_no_bezout(monkeypatch, cold_caches):
    calls = []
    bezout = normalform.poly_bezout
    monkeypatch.setattr(normalform, "poly_bezout",
                        lambda *args: calls.append(args) or bezout(*args))
    t = parse(_pfsum_text(random.Random(82)))
    for model in Model:
        assert normalize(t, model).den.degree == 22
    assert calls == []
    assert normalform._bezout_inverse.cache_info().currsize == 0


@pytest.mark.parametrize("model", list(Model))
def test_scaling_by_a_constant_matches_the_general_product(model):
    # One normal form times polynomials whose product is a constant k is a
    # scale; as the product of two normal forms it takes the general path.
    rng = random.Random(83)
    nfs = [normalize(parse(text), model) for text in
           ("1/(x - 1)", "(x^2 - 2)/(x^2 - 2)", "x/x + 1/(2*x + 3)", "1/(x^2 + 1) - 1/x")]
    nfs += [normalize(random_term(rng, depth=5), model) for _ in range(40)]
    assert any(nf.locus != P_ONE for nf in nfs) and any(nf.locus == P_ONE for nf in nfs)
    for nf in nfs:
        for k in (0, 1, -1, Fraction(3, 7)):
            c = Poly.constant(k)
            expected = nf_mul(nf, NF(model, c, P_ONE))
            assert nf_mul(nf, c) == nf_mul(c, nf) == expected
            assert nf_mul(Poly.constant(2), nf, Poly.constant(Fraction(k, 2))) == expected
