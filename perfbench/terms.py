"""Seeded term trees for the benchmark's inputs.

Trees are tuples: ("x",), ("lit", n), ("neg", a), ("add", a, b),
("mul", a, b), ("div", a, b), ("pow", a, n).  Stdlib only; meadows' own
generator is deliberately not used, so a change to the program cannot
change the workload.
"""

from __future__ import annotations

import random

X = ("x",)
_LEAVES = ("x", "lit", "zero", "one")
_LEAF_WEIGHTS = (40, 45, 8, 7)
_NODES = ("add", "mul", "div", "neg", "pow")
_NODE_WEIGHTS = (26, 24, 22, 16, 12)


def lit(n: int) -> tuple:
    return ("lit", n) if n >= 0 else ("neg", ("lit", -n))


def random_tree(rng: random.Random, depth: int, divisions: bool = True) -> tuple:
    """Random term of at most the given depth, literals at most 9."""
    if depth <= 0 or rng.random() < 0.32:
        kind = rng.choices(_LEAVES, _LEAF_WEIGHTS)[0]
        if kind == "x":
            return X
        return ("lit", {"lit": rng.randint(2, 9), "zero": 0, "one": 1}[kind])
    kind = rng.choices(_NODES, _NODE_WEIGHTS)[0]
    while kind == "div" and not divisions:
        kind = rng.choices(_NODES, _NODE_WEIGHTS)[0]
    if kind == "neg":
        return ("neg", random_tree(rng, depth - 1, divisions))
    if kind == "pow":
        n = rng.choices((0, 2, 3), (1, 5, 4))[0]
        return ("pow", random_tree(rng, depth - 1, divisions), n)
    return (kind, random_tree(rng, depth - 1, divisions),
            random_tree(rng, depth - 1, divisions))


def size(t: tuple) -> int:
    return 1 + sum(size(c) for c in t[1:] if isinstance(c, tuple))


# Precedences mirror the grammar: sum 1, product 2, unary minus 3, atom 4.
def text(t: tuple, outer: int = 1) -> str:
    kind = t[0]
    if kind == "x":
        return "x"
    if kind == "lit":
        return str(t[1])
    if kind == "neg":
        s, prec = "-" + text(t[1], 3), 3
    elif kind == "pow":
        s, prec = f"{text(t[1], 4)}^{t[2]}", 3
    elif kind == "add" and t[2][0] == "neg":
        s, prec = f"{text(t[1], 1)} - {text(t[2][1], 2)}", 1
    elif kind == "add":
        s, prec = f"{text(t[1], 1)} + {text(t[2], 2)}", 1
    else:
        op = "*" if kind == "mul" else "/"
        s, prec = f"{text(t[1], 2)}{op}{text(t[2], 3)}", 2
    return f"({s})" if prec < outer else s


def linear(a) -> tuple:
    """q*x - p for a = p/q."""
    if a.denominator == 1:
        return ("add", X, lit(-a.numerator))
    return ("add", ("mul", ("lit", a.denominator), X), lit(-a.numerator))


def indicator(a) -> tuple:
    """1 - (q*x - p)/(q*x - p): 1 at a = p/q, 0 elsewhere."""
    locus = linear(a)
    return ("add", ("lit", 1), ("neg", ("div", locus, locus)))


_ONE = ("lit", 1)
_ZERO = ("lit", 0)


def _rewrite_node(rng: random.Random, t: tuple) -> tuple:
    """One identity valid in every meadow, applied at the root of t."""
    kind = t[0]
    choices = ["plus0", "times1", "negneg", "invinv", "sqdiv"]
    if kind in ("add", "mul"):
        choices.append("swap")
    if kind == "div":
        choices.append("mulinv")
    if kind == "pow" and t[2] == 2:
        choices.append("unpow")
    rule = rng.choice(choices)
    if rule == "swap":
        return (kind, t[2], t[1])
    if rule == "mulinv":  # a/b = a*(1/b)
        return ("mul", t[1], ("div", _ONE, t[2]))
    if rule == "unpow":
        return ("mul", t[1], t[1])
    if rule == "plus0":
        return ("add", t, _ZERO)
    if rule == "times1":
        return ("mul", _ONE, t)
    if rule == "negneg":
        return ("neg", ("neg", t))
    if rule == "invinv":  # 1/(1/a) = a
        return ("div", _ONE, ("div", _ONE, t))
    return ("div", ("mul", t, t), t)  # a*a/a = a


def rewrite(rng: random.Random, t: tuple) -> tuple:
    """t with one meadow identity applied at a random node."""
    if t[0] in ("x", "lit") or rng.random() < 0.3:
        return _rewrite_node(rng, t)
    kind = t[0]
    if kind in ("neg", "pow"):
        return (kind, rewrite(rng, t[1])) + t[2:]
    if rng.random() < 0.5:
        return (kind, rewrite(rng, t[1]), t[2])
    return (kind, t[1], rewrite(rng, t[2]))
