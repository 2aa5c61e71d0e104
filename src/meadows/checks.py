"""Randomized invariant suites shared by the test suite and the CLI.

Each check runs a seeded property at a configurable scale and returns a
CheckResult; the CLI ``check`` subcommand runs them all and reports one
line per suite, while the tests call them at the scales the acceptance
criteria fix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import decide, mixed
from .factor import distinct_irreducible_factors
from .generate import (
    random_closed_fraction_term,
    random_int_poly,
    random_nonzero_rat,
    random_rat,
    random_term,
)
from .normalform import (Model, eval_term, eval_term_mod, nf_add, nf_inv, nf_mul,
                         nf_neg, normalize, quotient_inv, root)
from .poly import (P_ONE, Poly, appendix_oracle, lagrange_interpolate, poly_bezout,
                   poly_gcd, rational_roots, squarefree_part, standardize)
from .rationals import meadow_inv
from .terms import (
    Add,
    Div,
    Mul,
    Neg,
    ONE,
    Term,
    TermClass,
    X,
    ZERO,
    classify,
    desugar,
    format_term,
    parse,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


AXIOMS: list[tuple[str, int, "callable"]] = [
    ("add_assoc", 3, lambda x, y, z: (Add(Add(x, y), z), Add(x, Add(y, z)))),
    ("add_comm", 2, lambda x, y: (Add(x, y), Add(y, x))),
    ("add_zero", 1, lambda x: (Add(x, ZERO), x)),
    ("add_neg", 1, lambda x: (Add(x, Neg(x)), ZERO)),
    ("mul_assoc", 3, lambda x, y, z: (Mul(Mul(x, y), z), Mul(x, Mul(y, z)))),
    ("mul_comm", 2, lambda x, y: (Mul(x, y), Mul(y, x))),
    ("one_mul", 1, lambda x: (Mul(ONE, x), x)),
    ("distrib", 3, lambda x, y, z: (Mul(x, Add(y, z)), Add(Mul(x, y), Mul(x, z)))),
    ("inv_inv", 1, lambda x: (Div(ONE, Div(ONE, x)), x)),
    ("sq_div", 1, lambda x: (Div(Mul(x, x), x), x)),
    ("div_as_mul_inv", 2, lambda x, y: (Div(x, y), Mul(x, Div(ONE, y)))),
]


def check_axioms(seed: int = 0, rounds: int = 500) -> CheckResult:
    """Every defining axiom of the algebra holds under term evaluation for
    random instantiations (one argument kept symbolic, the rest closed)."""
    rng = random.Random(seed)
    tried = 0
    for name, arity, make in AXIOMS:
        for _ in range(rounds):
            var_slot = rng.randrange(arity)
            args: list[Term] = []
            for i in range(arity):
                if i == var_slot:
                    args.append(X)
                else:
                    args.append(random_closed_fraction_term(rng))
            lhs, rhs = make(*args)
            pt = random_rat(rng)
            if eval_term(lhs, pt) != eval_term(rhs, pt):
                return CheckResult(
                    "axioms", False,
                    f"{name} fails for {format_term(lhs)} at {pt}")
            tried += 1
    return CheckResult("axioms", True, f"{tried} instantiations across "
                                       f"{len(AXIOMS)} axioms")


def check_cancellation(seed: int = 0, rounds: int = 100) -> CheckResult:
    """l != 0 implies l/l = 1 under evaluation."""
    rng = random.Random(seed)
    for _ in range(rounds):
        value = random_nonzero_rat(rng)
        num = parse(str(value.numerator)) if value > 0 else Neg(
            parse(str(-value.numerator)))
        lit = Div(num, parse(str(value.denominator)))
        if eval_term(Div(lit, lit), Fraction(0)) != 1:
            return CheckResult("cancellation", False, f"fails for {value}")
    return CheckResult("cancellation", True, f"{rounds} nonzero values")


def check_meadow_inv_involution(seed: int = 0, rounds: int = 500) -> CheckResult:
    rng = random.Random(seed)
    for _ in range(rounds):
        a = random_rat(rng)
        if meadow_inv(meadow_inv(a)) != a:
            return CheckResult("inverse-involution", False, f"fails for {a}")
    return CheckResult("inverse-involution", True, f"{rounds} values")


def check_roundtrip(seed: int = 0, rounds: int = 300) -> CheckResult:
    """parse(print(t)) reproduces t structurally on generated terms."""
    rng = random.Random(seed)
    for _ in range(rounds):
        t = random_term(rng, depth=6)
        if parse(format_term(t)) != t:
            return CheckResult("parse-roundtrip", False, format_term(t))
    return CheckResult("parse-roundtrip", True, f"{rounds} terms")


def check_desugar(seed: int = 0, rounds: int = 100) -> CheckResult:
    """Literal and power sugar evaluates like its expansion."""
    rng = random.Random(seed)
    for _ in range(rounds):
        t = random_term(rng, depth=4)
        expanded = desugar(t)
        for _ in range(25):
            pt = random_rat(rng)
            if eval_term(t, pt) != eval_term(expanded, pt):
                return CheckResult("desugar", False,
                                   f"{format_term(t)} at {pt}")
    return CheckResult("desugar", True, f"{rounds} terms x 25 points")


def check_bezout(seed: int = 0, rounds: int = 200) -> CheckResult:
    """r*vp + v*rp = gcd holds exactly, also for the pairs (every other
    one) given a planted common factor.  For coprime inputs quotient_inv
    is the inverse modulo b twice, for nonlinear a from the inverse cache
    the second time; when a shares a factor with b it is the meadow inverse
    modulo the squarefree part m of b: s*a*s = s and a*s*a = a modulo m."""
    rng = random.Random(seed)
    coprime_seen = shared_seen = 0
    for i in range(rounds):
        a, b = random_int_poly(rng, 6), random_int_poly(rng, 6)
        if i % 2:
            common = Poly((rng.randint(-9, 9), 1)) * random_int_poly(rng, 2)
            a, b = a * common, b * common
        g, rp, vp = poly_bezout(a, b)
        if a * vp + b * rp != g or g != poly_gcd(a, b):
            return CheckResult("bezout", False, f"identity fails for {a}, {b}")
        if g.is_constant():
            coprime_seen += 1
            if b.is_constant():
                continue
            for _ in range(2):
                s = quotient_inv(a, b)
                if s.degree >= b.degree or (a * s) % b != P_ONE:
                    return CheckResult("bezout", False, f"quotient_inv({a}, {b}) = {s}")
        else:
            shared_seen += 1
            m = squarefree_part(b)
            r = a % m
            s = quotient_inv(r, m)
            if s.degree >= m.degree or (r * s * r) % m != r or (s * r * s) % m != s:
                return CheckResult("bezout", False, f"quotient_inv({r}, {m}) = {s}")
    return CheckResult("bezout", True, f"{rounds} pairs, {coprime_seen} coprime, "
                                       f"{shared_seen} with a common factor")


def check_factor_reconstruction(seed: int = 0, rounds: int = 200) -> CheckResult:
    """unit * product(factor^mult) reproduces random irreducible products."""
    from .factor import factor_rationals

    rng = random.Random(seed)
    for _ in range(rounds):
        p = Poly.constant(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(1, 3)):
            p = p * random_int_poly(rng, 3) ** rng.randint(1, 2)
        fact = factor_rationals(p)
        if fact.product() != p:
            return CheckResult("factor-reconstruction", False, str(p))
        for f, _ in fact.factors:
            if f != f.primitive() or f.lead <= 0:
                return CheckResult("factor-reconstruction", False,
                                   f"non-normalized factor {f} of {p}")
    return CheckResult("factor-reconstruction", True, f"{rounds} products")


def check_rational_roots_oracle(seed: int = 0, rounds: int = 100) -> CheckResult:
    """rational_roots agrees with brute force over all theorem candidates
    and with the linear factors from factoring."""

    def divisors(n: int) -> list[int]:  # n is a coefficient, small
        return [d for d in range(1, n + 1) if n % d == 0]

    rng = random.Random(seed)
    for _ in range(rounds):
        p = random_int_poly(rng, 5)
        if p.is_constant():
            continue
        got = rational_roots(p)
        cs = p.primitive().int_coeffs()
        low = 0
        while cs[low] == 0:
            low += 1
        expected = {Fraction(0)} if low else set()
        body = cs[low:]
        if len(body) > 1:
            for n in divisors(abs(body[0])):
                for m in divisors(abs(body[-1])):
                    for cand in (Fraction(n, m), Fraction(-n, m)):
                        if p(cand) == 0:
                            expected.add(cand)
        if got != expected:
            return CheckResult("rational-roots", False,
                               f"{p}: {got} != {expected}")
        linear = [r for r in distinct_irreducible_factors(p) if r.degree == 1]
        if {root(r) for r in linear} != expected:
            return CheckResult("rational-roots", False,
                               f"factor-based roots disagree on {p}")
    return CheckResult("rational-roots", True, f"{rounds} polynomials")


def check_lagrange(seed: int = 0, rounds: int = 100) -> CheckResult:
    """Interpolation returns each ordinate and stays below the node count."""
    rng = random.Random(seed)
    for _ in range(rounds):
        k = rng.randint(1, 6)
        pts: dict = {}
        while len(pts) < k:
            pts[random_rat(rng)] = random_rat(rng)
        points = sorted(pts.items())
        g = lagrange_interpolate(points)
        if g.degree != float("-inf") and g.degree >= k:
            return CheckResult("lagrange", False, f"degree {g.degree} >= {k}")
        for a, v in points:
            if g(a) != v:
                return CheckResult("lagrange", False, f"g({a}) != {v}")
    return CheckResult("lagrange", True, f"{rounds} point sets")


def check_appendix_oracle(seed: int = 0, rounds: int = 100) -> CheckResult:
    """Combinatorial standard form equals standardize of the expansion."""
    rng = random.Random(seed)
    for _ in range(rounds):
        k = rng.randint(1, 5)
        abscissae: set = set()
        while len(abscissae) < k:
            abscissae.add(random_rat(rng, num_bound=9, den_bound=4))
        a = sorted(abscissae)
        b = [random_rat(rng, num_bound=9, den_bound=6) for _ in range(k)]
        expansion = Poly()
        for i in range(k):
            node = Poly.constant(b[i])
            for j in range(k):
                if j != i:
                    node = node * Poly((-a[j], 1))
            expansion = expansion + node
        if appendix_oracle(b, a) != standardize(expansion):
            return CheckResult("appendix-oracle", False, f"b={b} a={a}")
    return CheckResult("appendix-oracle", True, f"{rounds} instances, k <= 5")


def check_nf_soundness(seed: int = 0, rounds: int = 1000,
                       points: int = 25) -> CheckResult:
    """Normal forms evaluate exactly like the terms they normalize, in
    both models."""
    rng = random.Random(seed)
    for i in range(rounds):
        t = random_term(rng, depth=6)
        nf_q = normalize(t, Model.RAT)
        nf_c = normalize(t, Model.COMPLEX)
        for _ in range(points):
            pt = random_rat(rng)
            expected = eval_term(t, pt)
            if nf_q.value_at(pt) != expected:
                return CheckResult("nf-soundness", False,
                                   f"Q model: {format_term(t)} at {pt}")
            if nf_c.value_at(pt) != expected:
                return CheckResult("nf-soundness", False,
                                   f"C model: {format_term(t)} at {pt}")
    return CheckResult("nf-soundness", True,
                       f"{rounds} terms x {points} points x 2 models")


def check_nf_homomorphism(seed: int = 0, rounds: int = 200) -> CheckResult:
    """normalize distributes over the term constructors."""
    rng = random.Random(seed)
    for _ in range(rounds):
        s = random_term(rng, depth=4)
        t = random_term(rng, depth=4)
        for model in Model:
            ns, nt = normalize(s, model), normalize(t, model)
            if normalize(Add(s, t), model) != nf_add(ns, nt):
                return CheckResult("nf-homomorphism", False,
                                   f"add {format_term(s)} | {format_term(t)}")
            if normalize(Mul(s, t), model) != nf_mul(ns, nt):
                return CheckResult("nf-homomorphism", False,
                                   f"mul {format_term(s)} | {format_term(t)}")
            if normalize(Neg(s), model) != nf_neg(ns):
                return CheckResult("nf-homomorphism", False,
                                   f"neg {format_term(s)}")
            if normalize(Div(s, t), model) != nf_mul(ns, nf_inv(nt)):
                return CheckResult("nf-homomorphism", False,
                                   f"div {format_term(s)} | {format_term(t)}")
    return CheckResult("nf-homomorphism", True, f"{rounds} pairs x 2 models")


def check_nf_canonicity(seed: int = 0, rounds: int = 100) -> CheckResult:
    """Structurally equal normal forms agree everywhere sampled, and
    structurally different ones disagree at some point or locus."""
    rng = random.Random(seed)
    for _ in range(rounds):
        s = random_term(rng, depth=4)
        t = random_term(rng, depth=4)
        for model in Model:
            ns, nt = normalize(s, model), normalize(t, model)
            agree_samples = all(
                ns.value_at(pt) == nt.value_at(pt)
                for pt in (random_rat(rng) for _ in range(100))
            )
            if ns == nt and not agree_samples:
                return CheckResult("nf-canonicity", False,
                                   "equal forms disagreeing at a point")
            if ns == nt and model is Model.COMPLEX and ns.locus != P_ONE:
                if eval_term_mod(s, ns.locus) != eval_term_mod(t, ns.locus):
                    return CheckResult("nf-canonicity", False,
                                       "equal forms disagreeing on the locus")
            if ns != nt:
                witness = decide.distinguishing_witness(s, t, model)
                if witness is None:
                    return CheckResult("nf-canonicity", False,
                                       "no witness for unequal forms")
                if isinstance(witness, decide.PointWitness):
                    if eval_term(s, witness.point) == eval_term(t, witness.point):
                        return CheckResult("nf-canonicity", False,
                                           "witness point does not separate")
                elif (eval_term_mod(s, witness.locus)
                      == eval_term_mod(t, witness.locus)):
                    return CheckResult("nf-canonicity", False,
                                       "witness locus does not separate")
    return CheckResult("nf-canonicity", True, f"{rounds} pairs x 2 models")


def check_nf_minimality(seed: int = 0, rounds: int = 300) -> CheckResult:
    """No stored exception or correction equals its generic value."""
    rng = random.Random(seed)
    for _ in range(rounds):
        t = random_term(rng, depth=5)
        for model in Model:
            nf = normalize(t, model)
            for r, s_val in nf.corrections:
                if s_val == nf.generic_mod(r):
                    return CheckResult("nf-minimality", False,
                                       f"redundant correction on {r}")
    return CheckResult("nf-minimality", True, f"{rounds} terms")


def check_model_refinement(seed: int = 0, rounds: int = 200) -> CheckResult:
    """The complex normal form restricted to rational points agrees with
    the rational one; every rational exception point is a root of the
    complex locus, with matching value."""
    rng = random.Random(seed)
    for _ in range(rounds):
        t = random_term(rng, depth=5)
        nf_q = normalize(t, Model.RAT)
        nf_c = normalize(t, Model.COMPLEX)
        for pt, v in nf_q.exceptions:
            if nf_c.locus(pt) or nf_c.residue(pt) != v:
                return CheckResult("model-refinement", False,
                                   f"no complex correction {v} at {pt}")
        for _ in range(10):
            pt = random_rat(rng)
            if nf_c.value_at(pt) != nf_q.value_at(pt):
                return CheckResult("model-refinement", False,
                                   f"{format_term(t)} at {pt}")
    return CheckResult("model-refinement", True, f"{rounds} terms")


def check_emission(seed: int = 0, rounds: int = 500,
                   points: int = 25) -> CheckResult:
    """Emitted output classifies as a mixed fraction and matches the input
    exactly at sampled rational points in both models; in the complex model
    it also matches as a residue on every correction locus."""
    rng = random.Random(seed)
    for _ in range(rounds):
        t = random_term(rng, depth=6)
        nf_q = normalize(t, Model.RAT)
        mf_q = mixed.emit(nf_q)
        term_q = mixed.to_term(mf_q)
        if classify(term_q) is not TermClass.MIXED_FRACTION:
            return CheckResult("emission", False,
                               f"Q output not mixed: {format_term(term_q)}")
        nf_c = normalize(t, Model.COMPLEX)
        mf_c = mixed.emit(nf_c)
        term_c = mixed.to_term(mf_c)
        if classify(term_c) is not TermClass.MIXED_FRACTION:
            return CheckResult("emission", False,
                               f"C output not mixed: {format_term(term_c)}")
        for _ in range(points):
            pt = random_rat(rng)
            expected = eval_term(t, pt)
            if eval_term(term_q, pt) != expected:
                return CheckResult("emission", False,
                                   f"Q fidelity: {format_term(t)} at {pt}")
            if eval_term(term_c, pt) != expected:
                return CheckResult("emission", False,
                                   f"C fidelity: {format_term(t)} at {pt}")
        if nf_c.locus != P_ONE and eval_term_mod(term_c, nf_c.locus) != nf_c.residue:
            return CheckResult("emission", False,
                               f"C residue mismatch on {nf_c.locus}")
    return CheckResult("emission", True,
                       f"{rounds} terms x {points} points x 2 models")


def check_emission_idempotence(seed: int = 0, rounds: int = 100) -> CheckResult:
    """Emitting from the normal form of an emitted term reproduces it."""
    rng = random.Random(seed)
    for _ in range(rounds):
        t = random_term(rng, depth=4)
        for model in Model:
            nf = normalize(t, model)
            back = normalize(mixed.to_term(mixed.emit(nf)), model)
            if back != nf:
                return CheckResult("emission-idempotence", False,
                                   format_term(t))
            if mixed.emit(back) != mixed.emit(nf):
                return CheckResult("emission-idempotence", False,
                                   f"re-emission differs: {format_term(t)}")
    return CheckResult("emission-idempotence", True,
                       f"{rounds} terms x 2 models")


def check_indicator(seed: int = 0, rounds: int = 50) -> CheckResult:
    """1 - e/e evaluates to 1 on the support points and 0 elsewhere."""
    rng = random.Random(seed)
    for _ in range(rounds):
        pts = {random_rat(rng, num_bound=9, den_bound=3)
               for _ in range(rng.randint(0, 4))}
        ind = mixed.build_indicator(pts)
        term = ind.to_term()
        for a in pts:
            if eval_term(term, a) != 1:
                return CheckResult("indicator", False, f"not 1 at {a}")
        for _ in range(25):
            a = random_rat(rng)
            if a in pts:
                continue
            if eval_term(term, a) != 0:
                return CheckResult("indicator", False, f"not 0 at {a}")
    return CheckResult("indicator", True, f"{rounds} supports")


def check_witness(seed: int = 0, rounds: int = 100) -> CheckResult:
    """emit_with_witness: n positive, divisible by the common denominator,
    and n*(t - (g+f)) evaluates to 0 at random rational points."""
    rng = random.Random(seed)
    for _ in range(rounds):
        t = random_term(rng, depth=4)
        mf, n = mixed.emit_with_witness(t)
        if n <= 0 or n % mf.poly.denominator:
            return CheckResult("witness", False,
                               f"bad witness {n} for {format_term(t)}")
        emitted = mixed.to_term(mf)
        for _ in range(3):
            pt = random_rat(rng)
            delta = eval_term(t, pt) - eval_term(emitted, pt)
            if n * delta != 0:
                return CheckResult("witness", False,
                                   f"{format_term(t)} differs at {pt}")
    return CheckResult("witness", True, f"{rounds} terms x 3 points")


def check_decide_eq(seed: int = 0, rounds: int = 100) -> CheckResult:
    """decide_eq is reflexive, symmetric, transitive on constructed
    equalities, refines from complex to rational, and implies pointwise
    agreement."""
    rng = random.Random(seed)
    for _ in range(rounds):
        t = random_term(rng, depth=4)
        s = random_term(rng, depth=4)
        for model in Model:
            if not decide.decide_eq(t, t, model):
                return CheckResult("decide-eq", False,
                                   f"not reflexive on {format_term(t)}")
            if decide.decide_eq(s, t, model) != decide.decide_eq(t, s, model):
                return CheckResult("decide-eq", False, "not symmetric")
        # semantically equal variants: commuted sum and double negation
        variant = Add(t, s)
        variant2 = Add(s, t)
        variant3 = Neg(Neg(variant))
        for model in Model:
            if not (decide.decide_eq(variant, variant2, model)
                    and decide.decide_eq(variant2, variant3, model)
                    and decide.decide_eq(variant, variant3, model)):
                return CheckResult("decide-eq", False, "transitivity chain")
        if decide.decide_eq(s, t, Model.COMPLEX):
            if not decide.decide_eq(s, t, Model.RAT):
                return CheckResult("decide-eq", False,
                                   "complex equality must imply rational")
        if decide.decide_eq(variant, variant3, Model.RAT):
            for _ in range(100):
                pt = random_rat(rng)
                if eval_term(variant, pt) != eval_term(variant3, pt):
                    return CheckResult("decide-eq", False,
                                       "equal terms disagree at a point")
    return CheckResult("decide-eq", True, f"{rounds} pairs")


def check_simple_expressible(seed: int = 0, rounds: int = 150) -> CheckResult:
    """Constructed fractions classify as simple and equal the input."""
    rng = random.Random(seed)
    produced = 0
    for _ in range(rounds):
        t = random_term(rng, depth=4)
        result = decide.simple_expressible(t)
        nf = normalize(t, Model.RAT)
        if result is None:
            if all(v == 0 for _, v in nf.exceptions):
                return CheckResult("simple-expressible", False,
                                   f"refused expressible {format_term(t)}")
            continue
        produced += 1
        if classify(result) not in (TermClass.SIMPLE_FRACTION,
                                    TermClass.CLOSED_SIMPLE_FRACTION):
            return CheckResult("simple-expressible", False,
                               f"non-simple output {format_term(result)}")
        if not decide.decide_eq(t, result, Model.RAT):
            return CheckResult("simple-expressible", False,
                               f"output differs from {format_term(t)}")
    return CheckResult("simple-expressible", True,
                       f"{rounds} terms, {produced} expressible")


def check_sum_star(seed: int = 0, rounds: int = 100) -> CheckResult:
    """Finite-support sums match the brute-force root sum on indicator
    products (1 - q/q) * g with rational-rooted q."""
    rng = random.Random(seed)
    for _ in range(rounds):
        roots = {Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))}
        q = Poly.constant(rng.randint(1, 5))
        for a in roots:
            q = q * Poly((-a, 1)) ** rng.randint(1, 2)
        g = random_int_poly(rng, 3)
        q_term = _poly_term(q)
        t = Mul(Add(ONE, Neg(Div(q_term, q_term))), _poly_term(g))
        expected = sum((g(a) for a in roots), Fraction(0))
        for model in Model:
            got = decide.finite_support_sum(t, model)
            if not got.support_finite or got.value != expected:
                return CheckResult("sum-star", False,
                                   f"{format_term(t)}: {got} != {expected}")
    return CheckResult("sum-star", True, f"{rounds} instances x 2 models")


def _poly_term(p: Poly) -> Term:
    std = standardize(p)
    return mixed._coeff_poly_term(std.numerators, std.denominator)


ALL_CHECKS = [
    check_axioms,
    check_cancellation,
    check_meadow_inv_involution,
    check_roundtrip,
    check_desugar,
    check_bezout,
    check_factor_reconstruction,
    check_rational_roots_oracle,
    check_lagrange,
    check_appendix_oracle,
    check_nf_soundness,
    check_nf_homomorphism,
    check_nf_canonicity,
    check_nf_minimality,
    check_model_refinement,
    check_emission,
    check_emission_idempotence,
    check_indicator,
    check_witness,
    check_decide_eq,
    check_simple_expressible,
    check_sum_star,
]


def run_all(seed: int = 0, quick: bool = False) -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        if quick:
            results.append(fn(seed=seed, rounds=25))
        else:
            results.append(fn(seed=seed))
    return results
