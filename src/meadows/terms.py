"""Term language of divisive meadows: signature {0, 1, -, +, *, /}.

Terms are immutable ASTs over a single variable.  There is exactly one
variable node (``Var``), so every term is univariate by construction; the
parser accepts any identifier but canonicalizes it to that node.  Integer
literals and natural-number powers are definable sugar: ``IntLit(n)`` stands
for the n-fold sum of 1 (negated for n < 0), ``Pow(t, n)`` for the n-fold
product.  ``desugar`` removes both without changing the denoted function.

Every traversal but printing, equality and hashing is one post-order
``fold`` over an explicit stack; ``interpret`` specializes it to a term's
value in a meadow.  Those three keep their own stacks, and the parser is
one operator-precedence loop over a stack of pending operators, so nothing
recurses on a term's depth.

Polynomials are read in one pass where they are written as sums of
monomials: ``monomial_sum`` reads a chain ``c*x^k + ...`` with literal or
literal-quotient coefficients into integer numerators over one common
denominator, and ``interpret`` hands such a chain over as one value
instead of folding it node by node.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce


class Term:
    """Base class for term nodes.  Instances are immutable and hashable;
    equality and hashing do not recurse, so terms of any depth compare."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)

    def _tokens(self) -> tuple:
        """Pre-order listing of node types and integer fields, from an
        explicit stack; node arities are fixed, so it determines the term."""
        out, todo = [], [self]
        while todo:
            u = todo.pop()
            out.append(type(u))
            for name in reversed(u.__slots__):
                v = getattr(u, name)
                (todo if isinstance(v, Term) else out).append(v)
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self is other or self._tokens() == other._tokens()

    def __hash__(self) -> int:
        return hash(self._tokens())


@dataclass(frozen=True, slots=True, eq=False)
class Zero(Term):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class One(Term):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class IntLit(Term):
    value: int


@dataclass(frozen=True, slots=True, eq=False)
class Var(Term):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Neg(Term):
    arg: Term


@dataclass(frozen=True, slots=True, eq=False)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False)
class Div(Term):
    num: Term
    den: Term


@dataclass(frozen=True, slots=True, eq=False)
class Pow(Term):
    base: Term
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("power sugar requires a nonnegative exponent")


ZERO = Zero()
ONE = One()
X = Var()


def int_literal(n: int) -> Term:
    """The literal of a natural number: ``ZERO``, ``ONE`` or an ``IntLit``."""
    return ZERO if n == 0 else ONE if n == 1 else IntLit(n)


class TermClass(enum.Enum):
    """Syntactic shape of a term.

    A fraction is a term whose head symbol is division.  A simple fraction
    has no further division in either argument; it is closed when no
    variable occurs.  A polynomial contains division only inside closed
    simple fractions.  A mixed fraction is a sum of a polynomial and a
    simple fraction.
    """

    SIMPLE_FRACTION = "simple-fraction"
    CLOSED_SIMPLE_FRACTION = "closed-simple-fraction"
    POLYNOMIAL = "polynomial"
    MIXED_FRACTION = "mixed-fraction"
    FRACTION = "fraction"
    OTHER = "other"


class TermSyntaxError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# The term fold


_LEAVES = frozenset((Zero, One, IntLit, Var))


def fold(t: Term, leaf, node, chain=None):
    """Post-order fold of t over an explicit stack, so term depth is bounded
    by memory, not by the recursion limit.

    ``leaf(u)`` gives the value of a Zero, One, IntLit or Var node and
    ``node(u, values)`` that of any other node u from its operands' values:
    one for Neg and Pow, two for Div, and for an Add (or Mul) every term of
    the chain along its left spine, so Add(Add(a, b), c) hands over three
    values and a Neg summand is one operand.  Rebuilding the values
    left-associatively gives back u.

    ``chain(u)``, when given, is tried first on the top Add node of each
    sum chain; a value other than None is the value of the whole chain,
    and None folds the chain as above.  Every Add node lies on exactly one
    chain, so a ``chain`` that stops at the first summand it cannot take
    keeps the fold linear.
    """
    values: list = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        kind = type(u)
        if kind is tuple:
            u, n = u
            values[-n:] = [node(u, values[-n:])]
        elif kind in _LEAVES:
            values.append(leaf(u))
        elif kind is Add and chain and (value := chain(u)) is not None:
            values.append(value)
        elif kind is Add or kind is Mul:
            rights, v = [], u
            while type(v) is kind:
                rights.append(v.right)
                v = v.left
            todo += [(u, len(rights) + 1), *rights, v]
        elif kind is Div:
            todo += [(u, 2), u.den, u.num]
        elif kind is Neg:
            todo += [(u, 1), u.arg]
        elif kind is Pow:
            todo += [(u, 1), u.base]
        else:
            raise TypeError(f"not a term: {u!r}")
    return values[0]


def interpret(t: Term, const, var, neg, add, mul, inv, poly=None):
    """Value of t in a meadow given by its operations, through ``fold``:
    ``const(n)`` embeds the integer n, ``var()`` gives the variable's value,
    ``add`` and ``mul`` take the values of a whole chain as arguments, a/b
    is mul(a, inv(b)) and a^n is repeated squaring.  With ``poly``, a sum
    chain that ``monomial_sum`` reads as sum(nums[i]/den * x^i) takes the
    value poly(nums, den) in one step; an algebra in which the variable
    has no value of its own, as for closed terms, must not pass it."""

    def leaf(u: Term):
        match u:
            case Zero():
                return const(0)
            case One():
                return const(1)
            case IntLit(n):
                return const(n)
        return var()

    def node(u: Term, values: list):
        kind = type(u)
        if kind is Add:
            return add(*values)
        if kind is Mul:
            return mul(*values)
        if kind is Div:
            return mul(values[0], inv(values[1]))
        if kind is Neg:
            return neg(values[0])
        if u.exponent == 0:
            return const(1)
        out = base = values[0]
        for bit in bin(u.exponent)[3:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, base)
        return out

    def chain(u: Term):
        read = monomial_sum(u)
        return None if read is None else poly(*read)

    return fold(t, leaf, node, None if poly is None else chain)


# ---------------------------------------------------------------------------
# Sums of monomials
#
# monomial := ["-"] (coeff | xpow | coeff "*" xpow)
# xpow     := x | x "^" natural
# coeff    := lit | lit "/" lit
# lit      := ["-"] (IntLit | One | Zero)
#
# Every rendered polynomial part has this shape, and so has an input
# polynomial written out term by term.


def _literal(u: Term) -> int | None:
    """The integer a possibly negated literal stands for, else None."""
    sign = 1
    if type(u) is Neg:
        sign, u = -1, u.arg
    kind = type(u)
    if kind is IntLit:
        return sign * u.value
    if kind is One:
        return sign
    if kind is Zero:
        return 0
    return None


def _coefficient(u: Term) -> tuple[int, int] | None:
    """(n, d) with d > 0 for a literal or a quotient of two literals, the
    quotient n/0 being 0 as in a meadow; else None."""
    if type(u) is not Div:
        n = _literal(u)
        return None if n is None else (n, 1)
    n, d = _literal(u.num), _literal(u.den)
    if n is None or d is None:
        return None
    if n == 0 or d == 0:
        return 0, 1
    return (n, d) if d > 0 else (-n, -d)


def _exponent(u: Term) -> int | None:
    """k for x or x^k, else None."""
    if type(u) is Var:
        return 1
    if type(u) is Pow and type(u.base) is Var:
        return u.exponent
    return None


def _monomial(u: Term) -> tuple[int, int, int] | None:
    """(n, d, k) for a summand that denotes n/d * x^k, else None."""
    sign = 1
    if type(u) is Neg:
        sign, u = -1, u.arg
    if type(u) is Mul:
        coeff, k = _coefficient(u.left), _exponent(u.right)
    elif (k := _exponent(u)) is not None:
        coeff = (1, 1)
    else:
        coeff, k = _coefficient(u), 0
    if coeff is None or k is None:
        return None
    return sign * coeff[0], coeff[1], k


def monomial_sum(t: Term) -> tuple[list[int], int] | None:
    """Integer numerators nums and a positive denominator den with t =
    sum(nums[i]/den * x^i), when t is one monomial or a left-nested sum of
    monomials (grammar above), else None.  den is the lcm of the
    coefficients' denominators, and the reading stops at the first summand,
    from the right, that is not a monomial."""
    read = []
    while type(t) is Add:
        m = _monomial(t.right)
        if m is None:
            return None
        read.append(m)
        t = t.left
    m = _monomial(t)
    if m is None:
        return None
    read.append(m)
    den = math.lcm(*[d for _, d, _ in read])
    nums = [0] * (max(k for _, _, k in read) + 1)
    for n, d, k in read:
        nums[k] += n * (den // d)
    return nums, den


# ---------------------------------------------------------------------------
# Structural utilities


def _shape(t: Term) -> tuple[bool, bool, bool]:
    """(contains_var, contains_div, is_polynomial) of t in one fold."""

    def node(u: Term, values: list) -> tuple[bool, bool, bool]:
        var = any(v[0] for v in values)
        div = any(v[1] for v in values)
        if isinstance(u, Div):
            return var, True, not (var or div)
        return var, div, all(v[2] for v in values)

    return fold(t, lambda u: (isinstance(u, Var), False, True), node)


def contains_var(t: Term) -> bool:
    return _shape(t)[0]


def contains_div(t: Term) -> bool:
    return _shape(t)[1]


def is_simple_fraction(t: Term) -> bool:
    return isinstance(t, Div) and not contains_div(t.num) and not contains_div(t.den)


def is_polynomial(t: Term) -> bool:
    """True when every division in t is a closed simple fraction."""
    return _shape(t)[2]


def classify(t: Term) -> TermClass:
    """Most specific TermClass of t.

    Division-headed terms are fractions (simple/closed-simple when the
    arguments are division-free).  Among sums, the mixed-fraction shape
    takes precedence over the polynomial shape so that emitted output
    always reports as a mixed fraction.
    """
    if isinstance(t, Div):
        if is_simple_fraction(t):
            if not contains_var(t):
                return TermClass.CLOSED_SIMPLE_FRACTION
            return TermClass.SIMPLE_FRACTION
        return TermClass.FRACTION
    if isinstance(t, Add) and is_polynomial(t.left) and is_simple_fraction(t.right):
        return TermClass.MIXED_FRACTION
    if is_polynomial(t):
        return TermClass.POLYNOMIAL
    return TermClass.OTHER


def _desugar_leaf(t: Term) -> Term:
    if isinstance(t, IntLit):
        if t.value == 0:
            return ZERO
        ones = reduce(Add, [ONE] * abs(t.value))
        return Neg(ones) if t.value < 0 else ones
    return t


def _desugar_node(t: Term, values: list) -> Term:
    match t:
        case Add() | Mul():
            return reduce(type(t), values)
        case Pow(_, n):
            return reduce(Mul, values * n) if n else ONE
        case _:
            return type(t)(*values)


def desugar(t: Term) -> Term:
    """Expand IntLit into repeated sums of 1 and Pow into repeated products."""
    return fold(t, _desugar_leaf, _desugar_node)


# ---------------------------------------------------------------------------
# Parsing
#
# expr  := sum
# sum   := prod (("+"|"-") prod)*
# prod  := unary (("*"|"·") unary | "/" unary)*
# unary := "-" unary | atom ("^" natural)?
# atom  := natural | identifier | "(" expr ")"
#
# One operator-precedence loop reads the grammar (Dijkstra's shunting yard):
# pending operators wait on an explicit stack, so input of any depth parses.
# An infix operator first applies every pending one that binds at least as
# tightly; prefix minus binds tighter than all of them, and "^" applies at
# once to the atom or parenthesized group just read.


def _sub(a: Term, b: Term) -> Term:
    return Add(a, Neg(b))


_BINARY = {"+": (1, Add), "-": (1, _sub), "*": (2, Mul), "·": (2, Mul), "/": (2, Div)}
_PREFIX_MINUS = (3, Neg)
_OPEN = (0, None)  # an open parenthesis: no infix operator applies past it


def _skip(text: str, i: int) -> int:
    """First position at or after i that is not whitespace."""
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _natural(text: str, i: int) -> tuple[int, int]:
    """The decimal natural after whitespace at i, and the position after it."""
    start = i = _skip(text, i)
    while i < len(text) and text[i].isdecimal():  # exactly the digits int() reads
        i += 1
    if i == start:
        raise TermSyntaxError("expected a natural number", i)
    try:
        return int(text[start:i]), i
    except ValueError:  # over the interpreter's limit on digits
        raise TermSyntaxError(f"natural number of {i - start} digits is too long", start) from None


def _apply(ops: list, values: list, precedence: int) -> None:
    """Apply the pending operators that bind at least as tightly as
    precedence, innermost first."""
    while ops and ops[-1][0] >= precedence:
        build = ops.pop()[1]
        if build is Neg:
            values[-1] = Neg(values[-1])
        else:
            right = values.pop()
            values[-1] = build(values[-1], right)


def parse(text: str) -> Term:
    """Parse a univariate meadow term.

    Whitespace-insensitive; both ``*`` and the middle dot are accepted for
    multiplication; ``^`` takes a nonnegative decimal exponent; any single
    identifier may serve as the variable.  Raises TermSyntaxError on
    malformed input or when two distinct identifiers occur.
    """
    end = len(text)
    values: list[Term] = []
    ops: list = []  # (precedence, constructor) of each pending operator
    pos = depth = 0
    name = None
    while True:
        # An operand: prefix minuses and open parentheses, then an atom.
        pos = _skip(text, pos)
        c = text[pos : pos + 1]
        if c == "-" or c == "(":
            ops.append(_PREFIX_MINUS if c == "-" else _OPEN)
            depth += c == "("
            pos += 1
            continue
        if c.isdecimal():
            n, pos = _natural(text, pos)
            values.append(int_literal(n))
        elif c.isalpha() or c == "_":
            start = pos
            while pos < end and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            if name is None:
                name = text[start:pos]
            elif text[start:pos] != name:
                raise TermSyntaxError(
                    f"multiple variables: {name!r} and {text[start:pos]!r}", start
                )
            values.append(X)
        else:
            message = f"unexpected {c!r}" if c else "unexpected end of input"
            raise TermSyntaxError(message, pos)
        # After it: a power, then closing parentheses, each again with a power.
        pos = _skip(text, pos)
        while True:
            if text.startswith("^", pos):
                n, pos = _natural(text, pos + 1)
                values[-1] = Pow(values[-1], n)
                pos = _skip(text, pos)
            c = text[pos : pos + 1]
            if c != ")" or not depth:
                break
            _apply(ops, values, 1)
            ops.pop()
            depth -= 1
            pos = _skip(text, pos + 1)
        op = _BINARY.get(c)
        if op:
            _apply(ops, values, op[0])
            ops.append(op)
            pos += 1
        elif depth:
            raise TermSyntaxError("expected ')'", pos)
        elif c:
            raise TermSyntaxError(f"unexpected {c!r}", pos)
        else:
            _apply(ops, values, 1)
            return values[0]


# ---------------------------------------------------------------------------
# Printing.  Precedence mirrors the grammar so parse(format_term(t))
# reconstructs t; parentheses are inserted only where re-parsing would
# otherwise change the tree.  Pending pieces wait on an explicit stack, so
# printing takes time linear in the output at any depth.

_PREC_SUM = 1
_PREC_PROD = 2
_PREC_UNARY = 3
_PREC_ATOM = 4


_LEAF_TEXT = {Zero: "0", One: "1", Var: "x"}
_INFIX = {Add: (" + ", _PREC_SUM), Mul: ("*", _PREC_PROD), Div: ("/", _PREC_PROD)}


def _pieces(t: Term) -> tuple[list, int]:
    """Text pieces of t, with each operand as an (operand, precedence)
    pair, and the precedence of t itself."""
    match t:
        case Zero() | One() | Var():
            return [_LEAF_TEXT[type(t)]], _PREC_ATOM
        case IntLit(n):
            return ([str(n)], _PREC_ATOM) if n >= 0 else ([f"-{-n}"], _PREC_UNARY)
        case Neg(a):
            return ["-", (a, _PREC_UNARY)], _PREC_UNARY
        case Pow(a, n):
            return [(a, _PREC_ATOM), f"^{n}"], _PREC_UNARY
        case Add(a, Neg(b)):
            return [(a, _PREC_SUM), " - ", (b, _PREC_SUM + 1)], _PREC_SUM
        case Add(a, b) | Mul(a, b) | Div(a, b):
            op, prec = _INFIX[type(t)]
            return [(a, prec), op, (b, prec + 1)], prec
        case _:
            raise TypeError(f"not a term: {t!r}")


def format_term(t: Term) -> str:
    """Canonical text for a term; inverse of parse up to sugar for 0/1
    naturals and negative literals (which re-parse as Neg of a positive)."""
    out: list[str] = []
    todo: list = [(t, _PREC_SUM)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        pieces, inner = _pieces(item[0])
        if inner < item[1]:
            pieces = ["(", *pieces, ")"]
        todo.extend(reversed(pieces))
    return "".join(out)
