"""The term fold and the algebras built on it.

Deep inputs: every traversal of a term runs on an explicit stack, so terms
far deeper than the interpreter's recursion limit evaluate, normalize and
print, and compare and hash as values.

Independent oracles: evaluation and normalization share the fold, so a
flattening defect there would hide from checks that compare one with the
other.  A recursive reference evaluator written from the definitions, and
the pairwise use of the binary closure operations, are checked against the
fold's results instead.
"""

import random
import sys
from fractions import Fraction
from functools import reduce

import pytest

from meadows.cli import main
from meadows.generate import random_term
from meadows.normalform import (
    NF,
    Model,
    eval_closed,
    eval_term,
    eval_term_mod,
    nf_add,
    nf_mul,
    normalize,
)
from meadows.poly import P_ONE, Poly
from meadows.terms import (
    Add,
    Div,
    IntLit,
    Mul,
    Neg,
    One,
    Pow,
    Var,
    X,
    Zero,
    contains_var,
    desugar,
    fold,
    format_term,
    parse,
)

# ---------------------------------------------------------------------------
# The fold's operands


def _operand_texts(text):
    """For each node of the parsed term, its class and its operands' texts."""
    seen = []

    def node(u, values):
        seen.append((type(u).__name__, values))
        return format_term(u)

    fold(parse(text), format_term, node)
    return seen


def test_fold_flattens_left_spine_of_a_chain():
    assert _operand_texts("x + x*x*x + 1 - x") == [
        ("Mul", ["x", "x", "x"]),
        ("Neg", ["x"]),
        ("Add", ["x", "x*x*x", "1", "-x"]),
    ]


def test_fold_keeps_a_right_nested_chain_as_one_operand():
    assert _operand_texts("x + (x + 1)") == [
        ("Add", ["x", "1"]),
        ("Add", ["x", "x + 1"]),
    ]


def _rebuild(u, values):
    if isinstance(u, (Add, Mul)):
        return reduce(type(u), values)
    if isinstance(u, Pow):
        return Pow(values[0], u.exponent)
    return type(u)(*values)


def test_fold_rebuilds_terms_left_associatively():
    rng = random.Random(71)
    for _ in range(200):
        t = random_term(rng, depth=6)
        assert fold(t, lambda u: u, _rebuild) == t


def test_fold_rejects_a_non_term():
    with pytest.raises(TypeError, match="not a term"):
        fold(Add(X, 3), lambda u: u, lambda u, values: u)


# ---------------------------------------------------------------------------
# Deep inputs (about 10^5 nodes each)

N = 50_000
DEEP = {
    "sum": ("x" + " + x" * (N - 1), Poly((0, N))),
    "alternating": ("x" + " - x + x" * (N // 2), Poly((0, 1))),
    "quotient": ("x" + "/1" * N, Poly((0, 1))),
    "closed quotient": ("1" + "/1" * N, P_ONE),
}


@pytest.fixture(scope="module")
def deep_terms():
    return {name: parse(text) for name, (text, _) in DEEP.items()}


@pytest.mark.parametrize("name", DEEP)
def test_deep_term_normalizes_in_both_models(deep_terms, name):
    poly = DEEP[name][1]
    for model in Model:
        assert normalize(deep_terms[name], model) == NF(model, poly, P_ONE)


@pytest.mark.parametrize("name", DEEP)
def test_deep_term_evaluates(deep_terms, name):
    t, poly = deep_terms[name], DEEP[name][1]
    assert eval_term(t, Fraction(3, 2)) == poly(Fraction(3, 2))
    assert eval_term_mod(t, Poly((1, 0, 1))) == poly
    if name == "closed quotient":
        assert eval_closed(t) == 1
    else:
        with pytest.raises(ValueError, match="not closed"):
            eval_closed(t)


@pytest.mark.parametrize("name", DEEP)
def test_deep_term_prints_and_desugars(deep_terms, name):
    text, t = DEEP[name][0], deep_terms[name]
    assert format_term(t) == text
    assert format_term(desugar(t)) == text
    assert contains_var(t) is (name != "closed quotient")


@pytest.mark.parametrize("name", DEEP)
def test_deep_terms_compare_and_hash(deep_terms, name):
    text, t = DEEP[name][0], deep_terms[name]
    again = parse(text)
    assert t is not again and t == again and hash(t) == hash(again)
    assert len({t, again}) == 1
    # the deepest leaf differs
    other = parse(("1" if text[0] == "x" else "x") + text[1:])
    assert t != other and not t == other
    assert other not in {t}


@pytest.mark.parametrize("name", ["sum", "quotient"])
def test_cli_answers_deep_input_from_file(tmp_path, capsys, name):
    path = tmp_path / "term.txt"
    path.write_text(DEEP[name][0], encoding="utf-8")
    assert main(["parse", f"@{path}"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == DEEP[name][0]
    assert main(["normalize", f"@{path}"]) == 0
    want = "50000*x" if name == "sum" else "x"
    assert capsys.readouterr().out.splitlines()[0] == want + " + 0/1"


# ---------------------------------------------------------------------------
# No pass recurses on its input: with the recursion limit a few dozen frames
# above the caller, every command still answers 10^5-deep nesting, so any
# recursion that grows with depth (parser, fold, printer, term equality,
# JSON, emission) fails here.

D = 10**5
NESTED = {
    "parentheses": "(" * D + "x" + ")" * D,
    "minuses": "-" * D + "x",
    "alternating": "(-(" * D + "x" + "))" * D,
}


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.mark.parametrize("name", NESTED)
def test_no_command_recurses_on_nested_input(tmp_path, capsys, name):
    path = tmp_path / "term.txt"
    path.write_text(NESTED[name], encoding="utf-8")
    term = f"@{path}"
    commands = (
        ["parse", term],
        ["eval", term, "1/2"],
        ["normalize", term],
        ["normalize", term, "--model", "c", "--output", "json", "--dump-nf"],
        ["eq", term, "x"],
        ["simple", term],
        ["sumstar", term, "0"],
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setrecursionlimit(limit)
    assert set(codes) <= {0, 1}, capsys.readouterr().err


# ---------------------------------------------------------------------------
# A recursive reference evaluator


def reference_value(t, a):
    """Meadow value of t at a, by recursion from the definitions (x/0 = 0);
    a is None for a term that must be closed."""
    match t:
        case Zero():
            return Fraction(0)
        case One():
            return Fraction(1)
        case IntLit(n):
            return Fraction(n)
        case Var():
            if a is None:
                raise ValueError("variable in a closed term")
            return a
        case Neg(u):
            return -reference_value(u, a)
        case Add(u, v):
            return reference_value(u, a) + reference_value(v, a)
        case Mul(u, v):
            return reference_value(u, a) * reference_value(v, a)
        case Div(u, v):
            n, d = reference_value(u, a), reference_value(v, a)
            return n / d if d else Fraction(0)
        case Pow(u, n):
            return reference_value(u, a) ** n


def test_fold_evaluation_matches_reference_evaluator():
    rng = random.Random(2024)
    for _ in range(300):
        t = random_term(rng, depth=6)
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        want = reference_value(t, a)
        assert eval_term(t, a) == want
        # modulo the linear locus x - a the residue is the value at a
        assert eval_term_mod(t, Poly((-a, 1))) == Poly((want,))


def test_closed_evaluation_matches_reference_evaluator():
    rng = random.Random(2025)
    closed = 0
    while closed < 300:
        t = random_term(rng, depth=4)
        try:
            want = reference_value(t, None)
        except ValueError:
            with pytest.raises(ValueError, match="not closed"):
                eval_closed(t)
            continue
        assert eval_closed(t) == want
        closed += 1


# ---------------------------------------------------------------------------
# Variadic closure operations against their pairwise use


def _operand(rng, model, kind):
    if kind == "pole":  # the pfsum shape b/(b*x - a), from a small pool of loci
        b, a = rng.randint(1, 2), rng.randint(-2, 2)
        return normalize(parse(f"{b}/({b}*x - {a})"), model)
    if kind == "poly":
        return normalize(parse(f"{rng.randint(-3, 3)}*x^{rng.randint(0, 2)} + "
                               f"{rng.randint(0, 4)}"), model)
    return normalize(random_term(rng, depth=2), model)


def test_variadic_closure_matches_pairwise_fold():
    """300 operand lists of length 3-25, alternating between the models;
    every third list holds only poles, the others mix poles, polynomials
    and small random terms."""
    rng = random.Random(23)
    for case in range(300):
        model = (Model.RAT, Model.COMPLEX)[case % 2]
        kinds = ("pole", "poly", "term") if case % 3 else ("pole",)
        ops = [_operand(rng, model, rng.choice(kinds))
               for _ in range(rng.randint(3, 25))]
        assert nf_add(*ops) == reduce(nf_add, ops)
        assert nf_mul(*ops) == reduce(nf_mul, ops)
