"""The operator-precedence parser against a recursive-descent oracle.

``_Oracle`` is the recursive-descent parser that the explicit-stack loop
in ``meadows.terms`` replaced, one method per rule of the grammar.  On
every input the two must agree: on the tree, or on the message and the
position of the TermSyntaxError.  Inputs are seeded random terms printed
with and without spaces, their one-character insertions and deletions and
their truncations, and hand cases at the precedence boundaries.
"""

import random

import pytest

from meadows.generate import random_term
from meadows.terms import (
    ONE,
    X,
    ZERO,
    Add,
    Div,
    IntLit,
    Mul,
    Neg,
    Pow,
    TermSyntaxError,
    format_term,
    parse,
)


class _Oracle:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.var_name = None

    def error(self, message):
        return TermSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        t = self.sum()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return t

    def sum(self):
        t = self.prod()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                t = Add(t, self.prod())
            elif c == "-":
                self.pos += 1
                t = Add(t, Neg(self.prod()))
            else:
                return t

    def prod(self):
        t = self.unary()
        while True:
            c = self.peek()
            if c in {"*", "·"}:
                self.pos += 1
                t = Mul(t, self.unary())
            elif c == "/":
                self.pos += 1
                t = Div(t, self.unary())
            else:
                return t

    def unary(self):
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.unary())
        t = self.atom()
        if self.peek() == "^":
            self.pos += 1
            t = Pow(t, self.natural())
        return t

    def natural(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a natural number")
        return int(self.text[start : self.pos])

    def atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            t = self.sum()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return t
        if c.isdigit():
            n = self.natural()
            if n == 0:
                return ZERO
            if n == 1:
                return ONE
            return IntLit(n)
        if c.isalpha() or c == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if self.var_name is None:
                self.var_name = name
            elif name != self.var_name:
                self.pos = start
                raise self.error(f"multiple variables: {self.var_name!r} and {name!r}")
            return X
        if c == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected {c!r}")


def _outcome(parser, text):
    """The tree, or the type, message and position of the error: terms
    compare as values, so equal trees give equal outcomes."""
    try:
        return ("term", parser(text))
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "position", None))


def _assert_agree(text):
    assert _outcome(parse, text) == _outcome(lambda s: _Oracle(s).parse(), text), text


HAND_CASES = [
    "x^2^3", "(x^2^3)", "-(x)^2", "2*-x*y", "x - -y", "-x*y", "(x y", "x)",
    "()", "1 + ", "x^-1", "x + y", "", " ", "-", "(", ")", "x^", "x^ 2",
    "(x)^2^3", "((x)^2)^3", "--x^2", "-x^2*y/z", "1/2/3", "1-2-3", "1-2*3+4",
    "x·2", "x * 2 · 3 / 4", "2x", "x 2", "0 + 1 + 02 + 007", "y_1 + y_1",
    "_ * _", "x + X", "abc^3 - (abc)", "(((x)))", "((x)", "(x))", "x^(2)",
    "x^2 3", "\tx\n+\r1 ", "٣ + x", "x ** 2", "x // 2",
    "- - - x", "-(-(-x))", "(-(x))", "x - (y)", "+x", "x +", "x*", "x/",
    "x*-", "(-)", "(x-)", "x - - - 1", "1 / - x ^ 3 * 2",
]


@pytest.mark.parametrize("text", HAND_CASES)
def test_hand_cases_agree_with_the_oracle(text):
    _assert_agree(text)


# Digits that str.isdigit accepts but int() cannot read, and naturals over
# the interpreter's limit on digits, on which the oracle raises a plain
# ValueError with no position.
@pytest.mark.parametrize("text, message, position", [
    ("x + ²", "unexpected '²'", 4),
    ("x^²", "expected a natural number", 2),
    ("x^ " + "9" * 5000, "natural number of 5000 digits is too long", 3),
    ("1" * 4400 + " + x", "natural number of 4400 digits is too long", 0),
], ids=["x + ²", "x^²", "long exponent", "long literal"])
def test_unreadable_naturals_are_positioned_syntax_errors(text, message, position):
    with pytest.raises(TermSyntaxError) as info:
        parse(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def _seeded_texts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        text = format_term(random_term(rng, rng.randint(0, 7)))
        yield rng, text
        yield rng, text.replace(" ", "")


def test_random_terms_agree_with_the_oracle():
    for _, text in _seeded_texts(131, 1500):
        _assert_agree(text)


_ALPHABET = "x()+-*/^·0123456789 y"


def test_edited_random_terms_agree_with_the_oracle():
    for rng, text in _seeded_texts(132, 600):
        i = rng.randint(0, len(text))
        _assert_agree(text[:i] + rng.choice(_ALPHABET) + text[i:])
        if text:
            j = rng.randrange(len(text))
            _assert_agree(text[:j] + text[j + 1 :])
        _assert_agree(text[: rng.randint(0, len(text))])
