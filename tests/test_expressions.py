"""Expression language: evaluation, errors, golden-file agreement."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from weingarten.errors import EvaluationError, ParseError
from weingarten.expressions import parse_expression


def ev(src, **env):
    return parse_expression(src).evaluate(env)


def test_basic_arithmetic():
    assert ev("2*u + 1", u=3.0) == 7.0
    assert ev("2 + 3*4") == 14.0
    assert ev("(2 + 3)*4") == 20.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("-u^2", u=3.0) == -9.0
    assert ev("10/4") == 2.5


def test_functions():
    assert ev("exp(-gradnorm)", gradnorm=0.0) == 1.0
    assert ev("min(2, 3)") == 2.0
    assert ev("max(2, 3)") == 3.0
    assert ev("pow(2, 10)") == 1024.0
    assert ev("sqrt(u)", u=4.0) == 2.0
    assert np.isclose(ev("sin(y1)^2 + cos(y1)^2", y1=0.7), 1.0)
    assert np.isclose(ev("4*atan(1)"), np.pi)
    assert ev("atan(-u)", u=0.3) == -np.arctan(0.3)


def test_vectorized_evaluation():
    out = ev("u*u + y1", u=np.array([1.0, 2.0]), y1=np.array([0.5, -0.5]))
    assert np.allclose(out, [1.5, 3.5])


def test_missing_variable():
    with pytest.raises(EvaluationError, match="missing variable 'v'"):
        ev("2*v")


def test_division_by_zero():
    with pytest.raises(EvaluationError):
        ev("1/(u-u)", u=3.0)


def test_log_of_negative():
    with pytest.raises(EvaluationError):
        ev("log(u - 2)", u=1.0)


def test_parse_errors_located():
    with pytest.raises(ParseError, match="col 5"):
        parse_expression("2 + * 3")
    with pytest.raises(ParseError, match="unknown function"):
        parse_expression("tan(1)")
    with pytest.raises(ParseError, match=r"unmatched '\)' \(col 7\)"):
        parse_expression("1 + 2 )")
    with pytest.raises(ParseError):
        parse_expression("min(1)")
    with pytest.raises(ParseError):
        parse_expression("1 + @")


@pytest.mark.parametrize("source", [
    "2**3", "0x1f", "1_0", "1j", "+x", "x % 2", "a < b", "x.y", "x[0]", "min(a, b=1)",
    "exp(x)(1)", "exp(x,)", "(exp)(1)", "1 # note", "min(*a, b)",
])
def test_python_syntax_outside_the_language_is_refused(source):
    # Python parses each of these; the language does not
    with pytest.raises(ParseError):
        parse_expression(source)


@pytest.mark.parametrize("source, column", [
    ("2**3", 3), ("x % 2", 3), ("1 + 2 )", 7), ("(y1 - 1)^2 / )", 14), ("  2 + * 3", 7),
    ("exp(x) + min(1)", 10),
])
def test_error_columns_count_source_characters(source, column):
    # ^ is parsed as **, and leading whitespace is dropped: columns still
    # count characters of the source as written
    with pytest.raises(ParseError, match=rf"\(col {column}\)"):
        parse_expression(source)


@pytest.mark.parametrize("source, column", [
    ("1if 2", 1), ("  1if 2", 3), ("y1^2if 1", 4), ("0x1for", 4),
])
def test_literal_run_into_a_name_is_refused_without_a_warning(source, column):
    # Python warns of such a literal before it fails to parse the text: the
    # warning is the error, located in the source, and nothing reaches stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match=rf"invalid \w+ literal \(col {column}\)"):
            parse_expression(source)
    assert not caught


def test_python_text_is_read_as_the_language():
    # leading whitespace, newlines and integers with leading zeros are
    # Python syntax errors, not errors of the language
    assert ev("  007 + 1e-01 +\n 00") == 7.1
    assert ev("e-01", e=1.0) == 0.0


def test_evaluation_error_names_the_operator_column():
    with pytest.raises(EvaluationError, match="'/' at position 4 of"):
        ev("u^2/(u-u)", u=3.0)


def test_variables_recorded():
    e = parse_expression("u + exp(v) * y1")
    assert e.variables == {"u", "v", "y1"}


def test_deterministic():
    e = parse_expression("sin(u) + y1/(u + 2)")
    env = {"u": np.linspace(0.1, 2, 7), "y1": np.linspace(-1, 1, 7)}
    a = e.evaluate(env)
    b = e.evaluate(env)
    assert np.array_equal(a, b)


def test_golden_file_against_reference_interpreter():
    path = Path(__file__).parent / "data" / "expression_golden.txt"
    lines = [
        ln for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")
    ]
    assert len(lines) == 200
    for ln in lines:
        src, env_str, expected = (part.strip() for part in ln.split("||"))
        env = {}
        for item in env_str.split(","):
            k, v = item.split("=")
            env[k] = float(v)
        got = float(parse_expression(src).evaluate(env))
        want = float(expected)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13), src
