import json
import random
import time

import pytest

from meadows import cli, factor
from meadows.cli import main
from meadows.factor import FactorizationError
from meadows.generate import random_term
from meadows.mixed import EmissionError
from meadows.terms import format_term
from test_factor import _swinnerton_dyer

EXAMPLE2 = "1/(x^2+3*x) + (2*x+5)/(x^5+1) + (x^3+2)/(3*x^2-7)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "1/x + 1/1")
    assert code == 0
    assert "1/x + 1/1" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "x + ")
    assert code == 2
    assert "error" in err


def test_parse_rejects_multiple_variables(capsys):
    code, _, err = run(capsys, "parse", "x + y")
    assert code == 2
    assert "multiple variables" in err


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", EXAMPLE2, "0")
    assert code == 0
    assert out.strip() == "33/7"


def test_eval_division_by_zero(capsys):
    code, out, _ = run(capsys, "eval", "1/0", "0")
    assert code == 0
    assert out.strip() == "0"


def test_eval_x_over_x_at_zero(capsys):
    code, out, _ = run(capsys, "eval", "x/x", "0")
    assert code == 0
    assert out.strip() == "0"


def test_eval_bad_point(capsys):
    code, _, err = run(capsys, "eval", "x", "one")
    assert code == 2


@pytest.mark.parametrize("point", ["1/0", "-3/00"])
def test_eval_point_with_a_zero_denominator_is_malformed_input(capsys, point):
    code, out, err = run(capsys, "eval", "x", point)
    assert (code, out) == (2, "")
    assert err == f"error: point {point} has a zero denominator\n"


@pytest.mark.parametrize("point", ["9" * 5000, "1/" + "9" * 5000, "-0." + "9" * 5000])
def test_eval_point_over_the_digit_limit_is_malformed_input(capsys, point):
    code, out, err = run(capsys, "eval", "x", point)
    assert (code, out) == (2, "")
    assert err == "error: point has a number of 5000 digits, over the limit of 4300\n"


def test_normalize_example2_text_report(capsys):
    code, out, _ = run(capsys, "normalize", "--model", "q", EXAMPLE2)
    assert code == 0
    assert "5891" in out and "24404" in out and "15972" in out
    assert "3388" in out


def test_normalize_example2_json_with_nf(capsys):
    code, out, _ = run(capsys, "normalize", "--model", "q", "--output", "json",
                       "--dump-nf", EXAMPLE2)
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "Q"
    assert payload["g"] == {
        "numerators": ["15972", "24404", "5891"],
        "denominator": "3388",
    }
    assert payload["witness_n"] == "3388"
    targets = {t["point"]: t for t in payload["targets"]}
    assert targets["-3"]["weight"] == "-201/968"
    assert targets["0"]["weight"] == "11/7"
    assert targets["-1"]["weight"] == "3/8"
    assert targets["-3"]["value"] == "-603/484"
    assert set(payload["nf"]) == {"num", "den", "exceptions"}


def test_normalize_example3_complex(capsys):
    code, out, _ = run(capsys, "normalize", "--model", "c", "--output", "json",
                       "1/(x^2+1) + 1/(x^2+2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "C"
    assert payload["g"] == {"numerators": ["3", "0", "2"], "denominator": "1"}


def test_normalize_constant(capsys):
    code, out, _ = run(capsys, "normalize", "7")
    assert code == 0
    assert out.splitlines()[0] == "7 + 0/1"


def test_eq_model_separation_exit_codes(capsys):
    code, out, _ = run(capsys, "eq", "--model", "q",
                       "1/(x^2-2)+1/1", "(x^2-1)/(x^2-2)")
    assert code == 0
    code, out, _ = run(capsys, "eq", "--model", "c",
                       "1/(x^2-2)+1/1", "(x^2-1)/(x^2-2)")
    assert code == 1


def test_eq_json_witness(capsys):
    code, out, _ = run(capsys, "eq", "--output", "json",
                       "1/x + 1/1", "(1+x)/x")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] is False
    assert payload["witness"]["kind"] == "point"
    assert payload["witness"]["point"] == "0"


def test_simple_negative_with_reason(capsys):
    code, out, _ = run(capsys, "simple", "1/x + 1/1")
    assert code == 1
    assert "nonzero value 1 at discontinuity 0" in out


def test_simple_positive(capsys):
    code, out, _ = run(capsys, "simple", "x/x")
    assert code == 0
    assert out.strip() == "x/x"


def test_sumstar_paper_case(capsys):
    code, out, _ = run(capsys, "sumstar", "--model", "c", "1 - x/x", "1")
    assert code == 0
    code, out, _ = run(capsys, "sumstar", "--model", "c", "1 - x/x", "2")
    assert code == 1


def test_sumstar_json(capsys):
    code, out, _ = run(capsys, "sumstar", "--model", "c", "--output", "json",
                       "(1 - (x^2+3*x)/(x^2+3*x)) * x", "0 - 3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "result": True,
        "expected": "-3",
        "sum": {"value": "-3", "support_finite": True},
    }


def test_sumstar_rejects_open_comparand(capsys):
    code, _, err = run(capsys, "sumstar", "x", "x")
    assert code == 2


def test_expression_from_file(tmp_path, capsys):
    path = tmp_path / "term.txt"
    path.write_text(EXAMPLE2)
    code, out, _ = run(capsys, "eval", f"@{path}", "0")
    assert code == 0
    assert out.strip() == "33/7"


def test_check_quick(capsys):
    code, out, _ = run(capsys, "check", "--quick", "--seed", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) == 22


def test_check_deterministic_for_seed(capsys):
    _, out1, _ = run(capsys, "check", "--quick", "--seed", "3")
    _, out2, _ = run(capsys, "check", "--quick", "--seed", "3")
    assert out1 == out2


def test_normalize_output_deterministic(capsys):
    _, out1, _ = run(capsys, "normalize", "--output", "json", EXAMPLE2)
    _, out2, _ = run(capsys, "normalize", "--output", "json", EXAMPLE2)
    assert out1 == out2


def test_eval_negative_point(capsys):
    code, out, _ = run(capsys, "eval", "x+1", "-1/2")
    assert code == 0
    assert out.strip() == "1/2"


def test_normalize_expression_starting_with_minus(capsys):
    code, out, _ = run(capsys, "normalize", "-x")
    assert code == 0
    assert (code, out) == run(capsys, "normalize", "--", "-x")[:2]


def test_options_around_expression_starting_with_minus(capsys):
    expected = run(capsys, "normalize", "--model", "c", "--output", "json",
                   "--", "-x/x")
    assert expected[0] == 0
    assert json.loads(expected[1])["model"] == "C"
    for argv in (
        ("--model", "c", "--output", "json", "-x/x"),
        ("-x/x", "--model", "c", "--output", "json"),
        ("--model", "c", "-x/x", "--output", "json"),
    ):
        assert run(capsys, "normalize", *argv) == expected
    code, out, _ = run(capsys, "eval", "-x^2", "-3", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"value": "-9"}


@pytest.mark.parametrize("expr", ["--6", "--(x + 1)", "--x/x"])
def test_expression_starting_with_double_minus(capsys, expr):
    expected = run(capsys, "normalize", "--", expr)
    assert expected[0] == 0
    assert run(capsys, "normalize", expr) == expected
    assert (run(capsys, "normalize", expr, "--model", "c", "--output", "json")
            == run(capsys, "normalize", "--model", "c", "--output", "json", "--", expr))


def test_printed_double_negation_reads_back(capsys):
    code, out, _ = run(capsys, "parse", "-(-6)")
    assert code == 0
    printed = out.splitlines()[0]
    assert printed == "--6"
    code, out, _ = run(capsys, "normalize", printed)
    assert code == 0
    assert out.splitlines()[0] == "6 + 0/1"


def test_option_abbreviations_still_name_options(capsys):
    expected = run(capsys, "normalize", "--model", "c", "--output", "json", "x")
    assert expected[0] == 0
    assert run(capsys, "normalize", "--mod", "c", "--out=json", "x") == expected
    assert run(capsys, "normalize", "x", "--model=c", "--o", "json") == expected


def test_deep_nesting_answers(capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    assert run(capsys, "eq", deep, "x") == (0, "equal\n", "")
    code, out, err = run(capsys, "normalize", "-" * 3000 + "x")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "x + 0/1"


@pytest.mark.parametrize("command, error", [
    ("normalize", FactorizationError("invariant failed")),
    ("emit", EmissionError("round trip failed")),
])
def test_internal_error_exits_4(capsys, monkeypatch, command, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, command, broken)
    code, out, err = run(capsys, "normalize", "1/x")
    assert code == 4
    assert out == ""
    assert err == f"error: internal error: {type(error).__name__}: {error}\n"


def _decimal(n: int) -> str:
    """Decimal digits of the natural n, 1000 at a time, past the
    interpreter's limit on converting integers to strings."""
    chunks = []
    while n:
        n, r = divmod(n, 10**1000)
        chunks.append(f"{r:01000d}")
    return "".join(reversed(chunks)).lstrip("0") or "0"


def test_answers_print_integers_of_any_length(capsys):
    big = _decimal(2**20000)  # 6021 digits, over the interpreter's default limit
    assert len(big) == 6021 and big.startswith("398027684")
    code, out, err = run(capsys, "normalize", "2^20000")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [f"{big} + 0/1", f"g = ({big})/1"]
    code, out, err = run(capsys, "normalize", "2^20000", "--output", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["g"] == {"numerators": [big], "denominator": "1"}
    code, out, err = run(capsys, "eval", "(1 + x)^20000", "1")
    assert (code, out, err) == (0, f"{big}\n", "")
    # Input keeps the limit: a natural of 5000 digits is still refused.
    code, out, err = run(capsys, "normalize", "9" * 5000)
    assert (code, out) == (2, "")
    assert err == "error: natural number of 5000 digits is too long (at position 0)\n"


# ---------------------------------------------------------------------------
# The rational model never factors: it reads rational roots p-adically


def _q_runs(text: str, other: str) -> list[list[str]]:
    return [["normalize", text], ["normalize", "--dump-nf", text],
            ["normalize", "--dump-nf", "--output", "json", text],
            ["eq", text, other], ["simple", text], ["sumstar", text, "0"]]


def _sd_texts(primes) -> list[tuple[str, str]]:
    """1/SD + 1 and 1 - SD/SD, each with a term of equal base that differs
    from it at x = 2 only, so that ``eq`` reports a point witness found on
    the loci."""
    sd = _swinnerton_dyer(primes)
    blip = " + 1 - (x-2)/(x-2)"
    return [(f"1/({sd}) + 1", f"1/({sd}) + 1{blip}"),
            (f"1 - ({sd})/({sd})", f"1 - ({sd})/({sd}){blip}")]


@pytest.fixture
def no_factoring(monkeypatch, cold_caches):
    def fail(f):
        raise AssertionError(f"the rational model factored {f}")

    monkeypatch.setattr(factor, "_zassenhaus", fail)


def test_rational_model_commands_never_factor(capsys, no_factoring):
    rng = random.Random(181)
    pairs = _sd_texts((2, 3, 5, 7, 11))
    while len(pairs) < 32:
        pairs.append((format_term(random_term(rng, depth=5)),
                      format_term(random_term(rng, depth=5))))
    witnesses = 0
    for text, other in pairs:
        for argv in _q_runs(text, other):
            code, out, err = run(capsys, *argv)
            assert code in (0, 1) and out and not err, (argv, err)
            witnesses += argv[0] == "eq" and code == 1
    assert witnesses >= 2


@pytest.mark.parametrize("index", [0, 1], ids=["1/SD64+1", "1-SD64/SD64"])
def test_rational_model_answers_on_sd64_in_under_a_second(capsys, cold_caches, index):
    text, other = _sd_texts((2, 3, 5, 7, 11, 13))[index]
    for argv in _q_runs(text, other):
        for cache in cold_caches:
            cache.cache_clear()
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv[:2]
        assert code in (0, 1) and out and not err
