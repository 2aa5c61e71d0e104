"""The benchmark's workloads: seeded inputs, timed calls and their checks.

Every operation is an ``Op``.  ``run(m)`` makes the timed calls into
meadows the way the CLI commands do; ``m`` is the ``meadows`` package,
looked up at call time so that the tracer's rebinding takes effect.
``check(result)`` runs outside the timed region and compares the result
with an answer known by construction (``expect``), using the oracle in
``oracle.py`` rather than anything from meadows.

Inputs come only from the benchmark's own seeded generators.  No text is
handed to meadows twice in one process, so the factor caches see the hit
rates of fresh inputs rather than 100%.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle as O
import terms as T

Q, C = "q", "c"


def _model(m, tag: str):
    return m.Model.RAT if tag == Q else m.Model.COMPLEX


class Op:
    """One timed operation: ``run(m)`` returns a result that
    ``judge(result, expect)`` accepts or rejects; ``expect`` is kept apart
    so that the self-test can corrupt it."""

    __slots__ = ("kind", "run", "judge", "expect")

    def __init__(self, kind, run, judge, expect):
        self.kind, self.run, self.judge, self.expect = kind, run, judge, expect

    def check(self, result) -> bool:
        return self.judge(result, self.expect)


# ---------------------------------------------------------------------------
# Calls, mirroring the CLI commands


def normalize_json(m, text: str, tag: str) -> dict:
    """``meadows normalize --output json``."""
    model = _model(m, tag)
    nf = m.normalize(m.parse(text), model)
    return m.mixed_to_json_dict(m.emit(nf, check=True), model)


def eq_json(m, left: str, right: str, tag: str):
    """``meadows eq``: the verdict, and the witness when different."""
    model = _model(m, tag)
    s, t = m.parse(left), m.parse(right)
    if m.decide_eq(s, t, model):
        return True, None
    return False, m.distinguishing_witness(s, t, model).to_json_dict()


def simple_json(m, text: str):
    """``meadows simple``: the fraction, or the first nonzero exception."""
    term = m.parse(text)
    fraction = m.simple_expressible(term)
    if fraction is not None:
        return m.format_term(fraction), None
    nf = m.normalize(term, m.Model.RAT)
    point, value = next((pt, v) for pt, v in nf.exceptions if v != 0)
    return None, (str(point), str(value))


def sumstar_json(m, text: str, closed: str, tag: str):
    """``meadows sumstar``: target, finite-support sum and verdict."""
    model = _model(m, tag)
    term, target = m.parse(text), m.parse(closed)
    expected = m.eval_closed(target)
    result = m.finite_support_sum(term, model)
    holds = m.sum_star_equals(term, target, model)
    return str(expected), result.to_json_dict(), holds


# ---------------------------------------------------------------------------
# Judging results


def mixed_value(payload: dict, a: Fraction) -> Fraction:
    """Value at a of an emitted mixed fraction g + num/den (x/0 = 0)."""
    g = payload["g"]
    gv = O.peval([int(c) for c in g["numerators"]], a) / int(g["denominator"])
    f = payload["f"]
    num = O.peval([int(c) for c in f["num"]], a)
    return gv + O.meadow_div(num, O.peval([int(c) for c in f["den"]], a))


def mixed_matches(payload: dict, post: list, points) -> bool:
    """The emitted coefficients and the emitted term text both agree with
    the input term at every given rational point."""
    rendered = O.to_postfix(payload["term"])
    for a in points:
        want = O.evaluate(post, a)
        if mixed_value(payload, a) != want or O.evaluate(rendered, a) != want:
            return False
    return True


def mixed_on_locus(payload: dict, r: list, num: list, den: list) -> bool:
    """On every complex root of the irreducible r, the emitted mixed
    fraction takes the value num/den (den invertible modulo r)."""
    g = payload["g"]
    gq = [Fraction(int(c), int(g["denominator"])) for c in g["numerators"]]
    fn = [int(c) for c in payload["f"]["num"]]
    fd = [int(c) for c in payload["f"]["den"]]
    if not O.pmod(fd, r):  # the fraction part is 0 on the locus
        lhs = O.pmul(gq, den)
        return not O.pmod(O.psub(lhs, num), r)
    lhs = O.pmul(O.padd(O.pmul(gq, fd), fn), den)
    return not O.pmod(O.psub(lhs, O.pmul(num, fd)), r)


def random_points(rng: random.Random, k: int) -> list:
    return [Fraction(rng.randint(-50, 50), rng.randint(1, 7)) for _ in range(k)]


def _judge_normalize(result, expect) -> bool:
    post, points = expect
    return mixed_matches(result, post, points)


def _judge_eq(result, expect) -> bool:
    equal, witness = result
    want_equal, point, left, right = expect
    if equal != want_equal:
        return False
    if want_equal:
        return witness is None
    if witness["kind"] == "point":
        got = (Fraction(witness["point"]), Fraction(witness["left"]),
               Fraction(witness["right"]))
        return got == (point, left, right)
    locus = [Fraction(c) for c in witness["locus"]]
    if locus != [-point.numerator, point.denominator]:
        return False
    residues = [[Fraction(c) for c in witness[k]] for k in ("left", "right")]
    return residues == [[left] if left else [], [right] if right else []]


def _judge_simple(result, expect) -> bool:
    fraction, reason = result
    post, points, bad = expect
    if bad is not None:
        return fraction is None and tuple(map(Fraction, reason)) == bad
    if fraction is None:
        return False
    got = O.to_postfix(fraction)
    if [op for op, _ in got].count("/") != 1 or got[-1][0] != "/":
        return False
    return all(O.evaluate(got, a) == O.evaluate(post, a) for a in points)


def _judge_sumstar(result, expect) -> bool:
    target, total, holds = result
    value, finite = expect
    return (Fraction(target) == value and holds is True
            and Fraction(total["value"]) == value
            and total["support_finite"] is finite)


# ---------------------------------------------------------------------------
# queries: small random terms, cycling through the four CLI commands

QUERY_DEPTH = 7
MIN_NODES = 4
# One operation in DEEP_EVERY belongs to the deep stratum: a smaller term
# (depth DEEP_BASE_DEPTH) nested to a depth from the ladders below.  Its
# deepest, costliest class recurs often enough in a run that the latency
# tail rests on many like operations rather than on a few random terms.
DEEP_EVERY = 11
DEEP_BASE_DEPTH = 4
# Parentheses deepen only the parser.  A leading "x - x + ..." chain deepens
# every recursion over the term while adding only cheap polynomial steps,
# so the cost of a deep operation follows its depth, not the term inside.
DEEP_PARENS = (25, 50, 100, 200)
DEEP_SUMS = (50, 200, 600)
# Depths at which the default recursion limit is exceeded today.
OVER_LIMIT_PARENS = (300, 600, 1200, 3000)
OVER_LIMIT_SUMS = (1000, 1500, 2000, 3000)


def _pad(text: str, style: int, depth: int) -> str:
    """text nested depth levels deep: in parentheses (style 0) or behind a
    sum chain (style 1)."""
    if style == 0:
        return "(" * depth + text + ")" * depth
    return "x - x + " * (depth // 2) + f"({text})"


def _small_point(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _query_tree(rng, depth) -> tuple:
    """A random term of the given depth with at least MIN_NODES nodes."""
    while True:
        tree = T.random_tree(rng, depth)
        if T.size(tree) >= MIN_NODES:
            return tree


def _query_normalize(rng, tag, depth):
    tree = _query_tree(rng, depth)
    text = T.text(tree)
    post = O.to_postfix(text)
    points = sorted(O.rational_poles(post)) + random_points(rng, 3)
    run = lambda m, s: normalize_json(m, s[0], tag)  # noqa: E731
    return [text], run, _judge_normalize, (post, points)


def _query_eq(rng, tag, different, depth):
    tree = _query_tree(rng, depth)
    other = T.rewrite(rng, tree)
    expect = (True, None, None, None)
    if different:
        a = _small_point(rng)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        other = ("add", other, ("mul", T.lit(c), T.indicator(a)))
        left = O.evaluate(O.to_postfix(T.text(tree)), a)
        right = O.evaluate(O.to_postfix(T.text(other)), a)
        expect = (False, a, left, right)
    texts = [T.text(tree), T.text(T.rewrite(rng, other))]
    run = lambda m, s: eq_json(m, s[0], s[1], tag)  # noqa: E731
    return texts, run, _judge_eq, expect


def _denominator(rng):
    """Product of one or two factors k*x - j or x^2 + k."""
    tree = None
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.7:
            k, j = rng.randint(1, 3), rng.randint(-5, 5)
            f = ("add", ("mul", ("lit", k), T.X), T.lit(-j))
        else:
            f = ("add", ("pow", T.X, 2), ("lit", rng.randint(1, 5)))
        tree = f if tree is None else ("mul", tree, f)
    return tree


def _query_simple(rng, bad):
    """A simple fraction in disguise, or (bad) one plus a nonzero bump at a
    point where the fraction is continuous."""
    den = _denominator(rng)
    tree = ("div", T.random_tree(rng, 4, divisions=False), den)
    shape = rng.randrange(3)
    if shape == 1:
        tree = ("add", tree, ("div", T.random_tree(rng, 3, divisions=False), den))
    elif shape == 2:
        b = T.linear(_small_point(rng))
        tree = ("mul", tree, ("div", b, b))
    wrong = None
    if bad:
        base = O.to_postfix(T.text(tree))
        poles = O.rational_poles(base)
        while True:
            a = _small_point(rng)
            c = rng.choice((-2, -1, 1, 2))
            v = O.evaluate(base, a) + c
            if a not in poles and v != 0:
                break
        tree = ("add", tree, ("mul", T.lit(c), T.indicator(a)))
        wrong = (a, v)
    text = T.text(T.rewrite(rng, tree))
    post = O.to_postfix(text)
    points = sorted(O.rational_poles(post)) + random_points(rng, 3)
    run = lambda m, s: simple_json(m, s[0])  # noqa: E731
    return [text], run, _judge_simple, (post, points, wrong)


def _query_sumstar(rng, tag, infinite):
    points = set()
    count = rng.randint(1, 3)
    while len(points) < count:
        points.add(_small_point(rng))
    tree = None
    value = Fraction(0)
    for a in sorted(points):
        u = T.random_tree(rng, 3, divisions=False)
        value += O.evaluate(O.to_postfix(T.text(u)), a)
        part = ("mul", u, T.indicator(a))
        tree = part if tree is None else ("add", tree, part)
    if rng.random() < 0.5:
        # 1 on the two irrational roots of x^2 - n: counted over C only.
        n, c = rng.choice((2, 3, 5, 6, 7)), rng.randint(1, 4)
        quad = ("add", ("pow", T.X, 2), T.lit(-n))
        tree = ("add", tree, ("mul", ("lit", c),
                              ("add", ("lit", 1), ("neg", ("div", quad, quad)))))
        if tag == C:
            value += 2 * c
    if infinite:
        tree = ("add", ("lit", rng.randint(1, 9)), tree)
        value = Fraction(0)
    closed = str(value)
    text = T.text(T.rewrite(rng, tree))
    run = lambda m, s: sumstar_json(m, s[0], closed, tag)  # noqa: E731
    return [text], run, _judge_sumstar, (value, not infinite)


def query_ops(rng: random.Random, seen: set, over_limit: bool = False):
    """Endless stream of queries.  Kinds cycle normalize, eq, simple,
    sumstar; each kind alternates between the two models (simple is a
    rational-model command).  In one operation in DEEP_EVERY, or in every
    one when over_limit is set, the first input is nested deep."""
    kinds = ("normalize", "eq", "simple", "sumstar")
    i = 0
    while True:
        kind = kinds[i % 4]
        tag = Q if (i // 4) % 2 == 0 else C
        variant = (i // 8) % 2 == 1
        deep = over_limit or i % DEEP_EVERY == DEEP_EVERY - 1
        j = i if over_limit else i // DEEP_EVERY
        depth = DEEP_BASE_DEPTH if deep else QUERY_DEPTH
        i += 1
        while True:
            if kind == "normalize":
                texts, run, judge, expect = _query_normalize(rng, tag, depth)
            elif kind == "eq":
                texts, run, judge, expect = _query_eq(rng, tag, variant, depth)
            elif kind == "simple":
                texts, run, judge, expect = _query_simple(rng, variant)
            else:
                texts, run, judge, expect = _query_sumstar(rng, tag, variant)
            if deep:
                style = (j // 4) % 2
                ladder = ((OVER_LIMIT_PARENS, OVER_LIMIT_SUMS) if over_limit
                          else (DEEP_PARENS, DEEP_SUMS))[style]
                nesting = ladder[(j // 8) % len(ladder)]
                texts = [_pad(texts[0], style, nesting)] + texts[1:]
            key = (kind, tag, *texts)
            if key not in seen:
                break
        seen.add(key)
        yield Op(kind, lambda m, run=run, texts=texts: run(m, texts), judge, expect)


# ---------------------------------------------------------------------------
# pfsum: sums of simple fractions with distinct rational poles

PFSUM_TERMS = 22


def _fraction_text(a: Fraction) -> str:
    b = a.denominator
    lin = "x" if b == 1 else f"{b}*x"
    if a.numerator:
        lin += f" - {a.numerator}" if a > 0 else f" + {-a.numerator}"
    return f"{b}/({lin})"


def _judge_pfsum(result, expect) -> bool:
    post, points = expect
    return all(mixed_matches(payload, post, points) for payload in result)


def pfsum_ops(rng: random.Random, seen: set):
    """Endless stream of sums b/(b*x - a) over PFSUM_TERMS distinct poles
    a/b, each normalized and emitted in both models."""
    while True:
        poles = set()
        while len(poles) < PFSUM_TERMS:
            poles.add(Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
        order = sorted(poles)
        rng.shuffle(order)
        text = " + ".join(_fraction_text(a) for a in order)
        if text in seen:
            continue
        seen.add(text)
        post = O.to_postfix(text)
        points = sorted(poles) + random_points(rng, 4)

        def run(m, text=text):
            return normalize_json(m, text, Q), normalize_json(m, text, C)

        yield Op("pfsum", run, _judge_pfsum, (post, points))


# ---------------------------------------------------------------------------
# loci: dense irreducible loci and Swinnerton-Dyer denominators over C

LOCUS_DEGREES = (24, 16)
SD_PRIMES = (2, 3, 5, 7)
SD_SHIFT_BLOCK = 60


def _shifts(rng: random.Random):
    """Distinct nonzero integers, smallest magnitudes first, each block of
    SD_SHIFT_BLOCK magnitudes in seeded order."""
    low = 1
    while True:
        block = [s * c for c in range(low, low + SD_SHIFT_BLOCK) for s in (1, -1)]
        rng.shuffle(block)
        yield from block
        low += SD_SHIFT_BLOCK


def eisenstein(rng: random.Random, degree: int) -> list:
    """Dense primitive integer polynomial, Eisenstein at 3 and so
    irreducible over Q: no rational roots, one locus of full degree."""
    coeffs = [3 * rng.choice((-2, -1, 1, 2))]
    coeffs += [3 * rng.randint(-3, 3) for _ in range(degree - 1)]
    coeffs.append(rng.choice((1, 2, 4, 5, 7, 8)))
    return O.primitive(coeffs)


def _judge_loci(result, expect) -> bool:
    a_json, b_json, eq_same, eq_diff, b_sum, s_json, s_sum = result
    r1, r2, sd, a_post, points = expect
    one = [1]
    zero_post = [("c", Fraction(0))]
    witness = eq_diff[1] or {}
    left = [Fraction(c) for c in witness.get("left", ())]
    right = [Fraction(c) for c in witness.get("right", ())]
    return (
        mixed_matches(a_json, a_post, points)
        and mixed_on_locus(a_json, r1, one, r2)
        and mixed_on_locus(a_json, r2, one, one)
        and mixed_matches(b_json, zero_post, points)
        and mixed_on_locus(b_json, r1, one, one)
        and eq_same == (True, None)
        and eq_diff[0] is False and witness.get("kind") == "locus"
        and [int(c) for c in witness["locus"]] == r1
        and not O.pmod(O.psub(O.pmul(left, r2), one), r1)
        and not O.pmod(O.psub(O.pmul(right, r2), O.padd(r2, one)), r1)
        and _judge_sumstar(b_sum, (Fraction(len(r1) - 1), True))
        and mixed_matches(s_json, zero_post, points)
        and mixed_on_locus(s_json, sd, one, one)
        and _judge_sumstar(s_sum, (Fraction(len(sd) - 1), True))
    )


def loci_ops(rng: random.Random, seen: set):
    """Endless stream of sessions over fresh loci r1 and r2 (dense,
    irreducible, degrees LOCUS_DEGREES) and a Swinnerton-Dyer polynomial
    shifted by a fresh integer.  One session is one operation: the
    normalize, eq and sumstar commands on r1/r1 + 1/r2 and 1 - r1/r1,
    then normalize and sumstar on 1 - sd/sd."""
    sd = O.swinnerton_dyer(SD_PRIMES)
    for shift in _shifts(rng):
        r1, r2 = (eisenstein(rng, d) for d in LOCUS_DEGREES)
        sd_c = O.primitive(O.shift(sd, shift))
        t1, t2, ts = (O.poly_text(p) for p in (r1, r2, sd_c))
        key = (t1, t2, ts)
        if key in seen:
            continue
        seen.add(key)
        a = f"({t1})/({t1}) + 1/({t2})"
        a_same = f"1/({t2}) + ({t1})*(1/({t1}))"
        a_diff = f"1/({t2}) + 1"
        b = f"1 - ({t1})/({t1})"
        s = f"1 - ({ts})/({ts})"
        deg1, deg_sd = str(len(r1) - 1), str(len(sd_c) - 1)

        def run(m, a=a, a_same=a_same, a_diff=a_diff, b=b, s=s,
                deg1=deg1, deg_sd=deg_sd):
            return (
                normalize_json(m, a, C),
                normalize_json(m, b, C),
                eq_json(m, a, a_same, C),
                eq_json(m, a, a_diff, C),
                sumstar_json(m, b, deg1, C),
                normalize_json(m, s, C),
                sumstar_json(m, s, deg_sd, C),
            )

        expect = (r1, r2, sd_c, O.to_postfix(a), random_points(rng, 4))
        yield Op("loci", run, _judge_loci, expect)


WORKLOADS = {
    "queries": query_ops,
    "pfsum": pfsum_ops,
    "loci": loci_ops,
    "deep": lambda rng, seen: query_ops(rng, seen, over_limit=True),
}
