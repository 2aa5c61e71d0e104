"""Independent exact oracle for judging meadows' answers.

Stdlib only, and nothing here imports meadows, so a change to the program
cannot change how its answers are judged.  Terms are read by an iterative
parser into postfix form and evaluated on a stack with Fraction arithmetic
and total division (x/0 = 0), so any nesting depth is fine.  Polynomials
are coefficient lists, lowest degree first.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)

_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG_PREC = 3


class OracleSyntaxError(ValueError):
    """The text is outside the term grammar the oracle reads."""


def _tokens(text: str):
    i, n = 0, len(text)
    var = None
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("num", int(text[i:j]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if var is None:
                var = name
            elif name != var:
                raise OracleSyntaxError(f"second variable {name!r}")
            yield ("var", None)
            i = j
        elif c in "+-*/^()·":
            yield ("op", "*" if c == "·" else c)
            i += 1
        else:
            raise OracleSyntaxError(f"unexpected {c!r}")


def to_postfix(text: str) -> list:
    """Postfix program for a term in meadows' grammar: ``^`` binds tighter
    than unary minus, which binds tighter than ``*`` and ``/``."""
    out: list = []
    ops: list[str] = []
    expect_operand = True
    toks = list(_tokens(text))
    k = 0
    while k < len(toks):
        kind, val = toks[k]
        k += 1
        if kind == "num":
            out.append(("c", Fraction(val)))
            expect_operand = False
        elif kind == "var":
            out.append(("x", None))
            expect_operand = False
        elif val == "(":
            ops.append("(")
            expect_operand = True
        elif val == ")":
            while ops and ops[-1] != "(":
                out.append((ops.pop(), None))
            if not ops:
                raise OracleSyntaxError("unbalanced ')'")
            ops.pop()
            expect_operand = False
        elif val == "^":
            if expect_operand or k >= len(toks) or toks[k][0] != "num":
                raise OracleSyntaxError("'^' needs an operand and a natural")
            out.append(("^", toks[k][1]))
            k += 1
        elif val == "-" and expect_operand:
            ops.append("neg")
        else:
            if expect_operand:
                raise OracleSyntaxError(f"missing operand before {val!r}")
            prec = _BINARY_PREC[val]
            while ops and ops[-1] != "(" and (
                _NEG_PREC if ops[-1] == "neg" else _BINARY_PREC[ops[-1]]
            ) >= prec:
                out.append((ops.pop(), None))
            ops.append(val)
            expect_operand = True
    if expect_operand:
        raise OracleSyntaxError("unexpected end of input")
    while ops:
        op = ops.pop()
        if op == "(":
            raise OracleSyntaxError("unbalanced '('")
        out.append((op, None))
    return out


def meadow_div(a: Fraction, b: Fraction) -> Fraction:
    return a / b if b else ZERO


def evaluate(post: list, a: Fraction) -> Fraction:
    """Value of a postfix term at the rational point a (x/0 = 0)."""
    st: list[Fraction] = []
    push, pop = st.append, st.pop
    for op, arg in post:
        if op == "c":
            push(arg)
        elif op == "x":
            push(a)
        elif op == "+":
            b = pop()
            st[-1] += b
        elif op == "-":
            b = pop()
            st[-1] -= b
        elif op == "*":
            b = pop()
            st[-1] *= b
        elif op == "/":
            b = pop()
            st[-1] = meadow_div(st[-1], b)
        elif op == "neg":
            st[-1] = -st[-1]
        else:  # "^"
            st[-1] = st[-1] ** arg
    (value,) = st
    return value


# ---------------------------------------------------------------------------
# Polynomials as coefficient lists, lowest degree first


def trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def psub(a: list, b: list) -> list:
    return padd(a, [-c for c in b])


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pprod(factors: list) -> list:
    out = [1]
    for f in factors:
        out = pmul(out, f)
    return out


def pmod(a: list, m: list) -> list:
    """Remainder of a modulo the nonzero polynomial m, over Q."""
    rem = [Fraction(c) for c in a]
    lead = Fraction(m[-1])
    dm = len(m) - 1
    for i in range(len(rem) - 1, dm - 1, -1):
        c = rem[i] / lead
        if c:
            for j, d in enumerate(m):
                rem[i - dm + j] -= c * d
    return trim(rem[:dm])


def peval(p: list, a: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(p):
        acc = acc * a + c
    return acc


def primitive(p: list) -> list:
    """Integer polynomial with content 1 and positive leading coefficient."""
    g = 0
    for c in p:
        g = math.gcd(g, c)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def shift(p: list, c: int) -> list:
    """p(x + c), by Horner's rule on integer coefficients."""
    out: list = []
    for coeff in reversed(p):
        out = padd(pmul(out, [c, 1]), [coeff])
    return out


def swinnerton_dyer(primes) -> list:
    """Integer minimal polynomial of sum(+-sqrt(p)) over the given primes,
    of degree 2^len(primes), built by f(x+sqrt p)*f(x-sqrt p) = A^2 - p*B^2
    where f(x + sqrt p) = A(x) + sqrt(p)*B(x)."""
    f = [0, 1]
    for p in primes:
        a = [0] * len(f)
        b = [0] * len(f)
        for k, ck in enumerate(f):
            for j in range(k + 1):
                term = ck * math.comb(k, j)
                if (k - j) % 2 == 0:
                    a[j] += term * p ** ((k - j) // 2)
                else:
                    b[j] += term * p ** ((k - j) // 2)
        f = psub(pmul(a, a), [p * c for c in pmul(b, b)])
    return f


def poly_text(p: list) -> str:
    """Term text for an integer polynomial, highest power first."""
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# Rational poles of a term


def _deriv(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder of integer polynomials."""
    a = trim(a)
    lead, db = b[-1], len(b) - 1
    while len(a) - 1 >= db:
        k, off = a[-1], len(a) - 1 - db
        a = [c * lead for c in a]
        for j, c in enumerate(b):
            a[off + j] -= k * c
        a = trim(a)
    return a


def _gcd(a: list, b: list) -> list:
    """Primitive gcd of integer polynomials (primitive remainder sequence)."""
    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, (primitive(r) if r else [])
    return a


def _gcd_mod(a: list, b: list, p: int) -> list:
    a = trim([c % p for c in a])
    b = trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            k = a[-1] * inv % p
            off = len(a) - len(b)
            for j, c in enumerate(b):
                a[off + j] = (a[off + j] - k * c) % p
            a = trim(a)
        a, b = b, a
    return a


def _eval_mod(p: list, r: int, m: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * r + c) % m
    return acc


def _reconstruct(r: int, m: int):
    """n/d with n = d*r (mod m), |n| and d below sqrt(m/2), or None."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, r % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return Fraction(r1, t1)


_PRIMES = [p for p in range(101, 2000) if all(p % d for d in range(2, 45))]


def rational_roots(p: list) -> set:
    """Rational zeros of an integer polynomial.

    The squarefree part is reduced modulo a small prime that keeps it
    squarefree and of full degree; every rational zero n/d has d prime to
    it, so it shows up among the zeros modulo the prime, which are lifted
    p-adically (Newton) past the reconstruction bound and tested exactly.
    """
    p = trim(p)
    roots = set()
    if not p:
        return roots
    low = 0
    while p[low] == 0:
        low += 1
    if low:
        roots.add(ZERO)
        p = p[low:]
    if len(p) < 2:
        return roots
    f = primitive(p)
    g = _gcd(f, _deriv(f))
    if len(g) > 1:
        f = primitive(_exact_div(f, g))
    if len(f) == 2:
        roots.add(Fraction(-f[0], f[1]))
        return roots
    df = _deriv(f)
    for prime in _PRIMES:
        if f[-1] % prime and len(_gcd_mod(f, df, prime)) == 1:
            break
    else:
        raise ArithmeticError("no suitable prime for root finding")
    bound = 2 * max(abs(f[0]), f[-1]) ** 2
    for r in range(prime):
        if _eval_mod(f, r, prime):
            continue
        m = prime
        while m // 2 <= bound:
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        cand = _reconstruct(r, m)
        if cand is not None and peval(f, cand) == 0:
            roots.add(cand)
    return roots


def _exact_div(a: list, b: list) -> list:
    """Quotient of integer polynomials known to divide exactly."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(a[i + len(b) - 1], b[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c
        for j, bc in enumerate(b):
            a[i + j] -= c * bc
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def rational_poles(post: list) -> set:
    """Every rational point at which some divisor of the term is 0.

    Each subterm's generic value is kept unreduced as lists of integer
    polynomial factors (numerator, denominator).  Off the rational roots
    of the numerator factors of every divisor, all denominators stay
    nonzero and the term equals its generic value, so those roots are a
    superset of the poles.
    """
    st: list = []
    cache: dict = {}
    poles: set = set()
    for op, arg in post:
        if op == "c":
            st.append(([[int(arg)]], []))
        elif op == "x":
            st.append(([[0, 1]], []))
        elif op == "neg":
            pass
        elif op == "^":
            n, d = st.pop()
            st.append((n * arg, d * arg) if arg else ([[1]], []))
        else:
            n2, d2 = st.pop()
            n1, d1 = st.pop()
            if op == "*":
                st.append((n1 + n2, d1 + d2))
            elif op == "/":
                for f in n2:
                    key = tuple(f)
                    if key not in cache:
                        cache[key] = rational_roots(f)
                    poles |= cache[key]
                st.append((n1 + d2, d1 + n2))
            else:
                a = pmul(pprod(n1), pprod(d2))
                b = pmul(pprod(n2), pprod(d1))
                st.append(([padd(a, b) if op == "+" else psub(a, b)], d1 + d2))
    return poles
