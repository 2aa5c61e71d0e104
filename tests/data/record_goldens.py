"""Record the CLI runs that ``tests/test_golden.py`` replays.

    PYTHONPATH=src python tests/data/record_goldens.py

writes ``cli_goldens.json`` beside this file: argv, exit code and standard
output of each run, from the meadows sources on ``PYTHONPATH``.
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

from meadows.cli import main
from meadows.generate import random_int_poly, random_term
from meadows.normalform import Model, normalize
from meadows.terms import format_term, parse

EXAMPLE2 = "1/(x^2+3*x) + (2*x+5)/(x^5+1) + (x^3+2)/(3*x^2-7)"
EXAMPLE3 = "1/(x^2+1) + 1/(x^2+2)"
README_RUNS = [
    ["eval", EXAMPLE2, "0"],
    ["normalize", "1/x + 1/1"],
    ["normalize", "--model", "c", EXAMPLE3, "--output", "json"],
    ["eq", "--model", "q", "1/(x^2-2)+1/1", "(x^2-1)/(x^2-2)"],
    ["eq", "--model", "c", "1/(x^2-2)+1/1", "(x^2-1)/(x^2-2)"],
    ["simple", "1/x + 1/1"],
    ["sumstar", "--model", "c", "1 - x/x", "1"],
    ["check", "--quick", "--seed", "1"],
]
README_TERMS = [
    "1/x + 1/1", EXAMPLE2, EXAMPLE3, "1/(x^2-2)+1/1", "(x^2-1)/(x^2-2)",
    "x/x", "1 - x/x", "(x/3+1/2)/(2*x+1) + 1/(x^2+1)",
]


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _dump_nf_runs(text: str) -> list[list[str]]:
    return [["normalize", "--model", model, "--dump-nf", "--output", output,
             "--", text]
            for model in ("q", "c") for output in ("text", "json")]


def _record() -> list[dict]:
    """Runs to record: fixed inputs plus seeded ones, drawn with the
    library's own generator and kept only when they exercise division."""
    runs = list(README_RUNS)
    for text in README_TERMS:
        runs += _dump_nf_runs(text)

    rng = random.Random(6)
    seeded = []
    while len(seeded) < 40:
        text = format_term(random_term(rng, depth=5))
        if normalize(parse(text), Model.COMPLEX).den.degree >= 1:
            seeded.append(text)
    for text in seeded:
        runs += _dump_nf_runs(text)

    for tag, model in (("q", Model.RAT), ("c", Model.COMPLEX)):
        pairs = []
        while len(pairs) < 10:  # unequal bases
            s = format_term(random_term(rng, depth=4))
            t = format_term(random_term(rng, depth=4))
            if normalize(parse(s), model) != normalize(parse(t), model):
                pairs.append((s, t))
        for text in seeded:  # equal bases, different corrections
            nf = normalize(parse(text), model)
            base = f"({nf.num})/({nf.den})"
            if len(pairs) < 20 and normalize(parse(base), model) != nf:
                pairs.append((text, base))
        runs += [["eq", "--model", tag, "--output", "json", "--", s, t]
                 for s, t in pairs]

    for text in seeded[:20]:
        runs.append(["simple", "--", text])
    for _ in range(10):
        q = random_int_poly(rng, 2)
        while q.degree < 1:
            q = random_int_poly(rng, 2)
        g = random_int_poly(rng, 3)
        text = f"(1 - ({q})/({q})) * ({g})"
        for tag in ("q", "c"):
            runs.append(["sumstar", "--model", tag, text, "0"])
    return [{"argv": argv, "code": code, "stdout": out}
            for argv, (code, out) in ((a, run(a)) for a in runs)]


if __name__ == "__main__":
    path = Path(__file__).resolve().parent / "cli_goldens.json"
    path.write_text(json.dumps(_record(), indent=1) + "\n", encoding="utf-8")
