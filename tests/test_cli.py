import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from catsl2 import cli
from catsl2.cli import MAX_ALPHA, MAX_RANK_TERMS, main
from catsl2.qlaurent import Laurent
from catsl2.relationsuite import DEFAULT_MAX_RANK

DOCS = Path(__file__).resolve().parent.parent / "docs"
SRC = DOCS.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_rank_one_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "1")
    assert code == 0
    assert "0 fail" in out


def test_verify_rejects_bad_rank(capsys):
    code, _, err = run_cli(capsys, "verify", "--N", "0")
    assert code == 2
    assert "positive integer" in err
    code, _, err = run_cli(capsys, "verify", "--N", "9")
    assert code == 2


def test_verify_default_rank_cap_is_seven(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "7", "--suites", "k0_shadow")
    assert code == 0
    assert "0 fail" in out
    code, out, err = run_cli(capsys, "verify", "--N", "8", "--suites", "k0_shadow")
    assert code == 2 and out == ""
    assert "N=8 exceeds the configured maximum 7" in err


def test_verify_past_the_exponent_limit_exits_2_at_once(capsys):
    # basis exponents reach N - 1, so no --max-N admits a rank past the
    # exponent limit: refused before any k is visited
    huge = "99999999999999999999"
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--N", huge, "--max-N", huge,
                             "--suites", "k0_shadow")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert "N=%s cannot be verified" % huge in err and "past the limit 32767" in err


def test_verify_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--N", "2", "--suites", "bubbles",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    schema = json.loads((DOCS / "report-schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["suites"] == ["bubbles"]


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--N", "1", "--suites", "nope")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("value", ["", ","])
def test_verify_refuses_an_empty_suite_name(capsys, value):
    # an empty value names no suite: it is refused, not read as "every suite"
    code, out, err = run_cli(capsys, "verify", "--N", "2", "--suites", value)
    assert code == 2 and out == ""
    assert "unknown suite ''" in err


def test_eval_dot(capsys, tmp_path):
    diagram = tmp_path / "dot.cat"
    diagram.write_text("N = 2\nweight = 0\ndomain = E\nlayer: dot_e\n")
    code, out, _ = run_cli(capsys, "eval", "--diagram", str(diagram),
                           "--element", "1")
    assert code == 0
    assert "image:    xi" in out


def test_eval_leading_sign_element_is_written_with_equals(capsys):
    # argparse reads a bare "-xi" after --element as an option
    code, out, _ = run_cli(capsys, "eval", "--diagram",
                           str(DOCS / "diagrams" / "dot.cat"), "--element=-xi")
    assert code == 0
    assert "element:  (-1) * (xi)" in out


def test_eval_crossing_moves_dot(capsys, tmp_path):
    diagram = tmp_path / "cross.cat"
    diagram.write_text("N = 2\nweight = -2\ndomain = E E\nlayer: cross_ee\n")
    # a single dot on the later tensor factor crosses to the unit
    code, out, _ = run_cli(capsys, "eval", "--diagram", str(diagram),
                           "--element", "1 | xi")
    assert code == 0
    assert "image:    1 | 1" in out


def test_eval_malformed_element(capsys, tmp_path):
    diagram = tmp_path / "dot.cat"
    diagram.write_text("N = 2\nweight = 0\ndomain = E\nlayer: dot_e\n")
    code, _, err = run_cli(capsys, "eval", "--diagram", str(diagram),
                           "--element", "x[")
    assert code == 2
    assert "cols" in err


def test_eval_zero_domain_warns(capsys, tmp_path):
    diagram = tmp_path / "zero.cat"
    diagram.write_text("N = 1\nweight = -1\ndomain = F\nlayer: id_f\n")
    code, out, err = run_cli(capsys, "eval", "--diagram", str(diagram),
                             "--element", "1")
    assert code == 0
    assert "zero bimodule" in err
    assert "image:    0" in out


def test_eval_missing_file(capsys):
    code, _, err = run_cli(capsys, "eval", "--diagram", "/nonexistent.cat",
                           "--element", "1")
    assert code == 2


def test_eval_file_not_utf8_exits_2(capsys, tmp_path):
    diagram = tmp_path / "latin1.cat"
    diagram.write_bytes(b"N = 2\nweight = 0\ndomain = E\nlayer: dot_\xe9\n")
    code, out, err = run_cli(capsys, "eval", "--diagram", str(diagram),
                             "--element", "1")
    assert code == 2 and out == ""
    assert err.startswith("catsl2: error: cannot read diagram: 'utf-8' codec")


def test_special_query(capsys):
    code, out, _ = run_cli(capsys, "special", "--N", "4", "--k", "2",
                           "--family", "Y", "--alpha", "2")
    assert code == 0
    assert out.strip() == "x[1]@0^2 - x[2]@0"


def test_bubble_query(capsys):
    code, out, _ = run_cli(capsys, "bubble", "--N", "3", "--k", "1",
                           "--orient", "cw", "--alpha", "0")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "bubble", "--N", "3", "--k", "1",
                           "--orient", "ccw", "--alpha", "-2")
    assert code == 0
    assert out.strip() == "0"


def test_bubble_bad_context(capsys):
    code, _, err = run_cli(capsys, "bubble", "--N", "2", "--k", "5",
                           "--orient", "cw", "--alpha", "0")
    assert code == 2


def test_rank_query(capsys):
    code, out, _ = run_cli(capsys, "rank", "--N", "1", "--word", "E",
                           "--weight", "-1")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "rank", "--N", "2", "--word", "E F",
                           "--weight", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["rank"] == "q + q^-1"
    assert payload["path"] == "(2,1,2){-1}"


def test_rank_above_term_cap_exits_2(capsys):
    # one up-step factor with about N/2 basis vectors
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "rank", "--N", "99999999999999999999",
                             "--word", "E", "--weight", "1")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert "50000000000000000001 terms, above the limit 10000" in err


def test_rank_of_long_word_is_exact(capsys):
    # E^20 from ring 0 at N = 30: up-steps with lower rings 0..19 bound
    # their xi exponents by 0..19, so the rank is q^shift times the product
    # of the blocks 1 + q^2 + ... + q^(2j); its coefficients sum to 20!
    counts = [1]
    for j in range(20):
        counts = [sum(counts[d - e] for e in range(j + 1)
                      if 0 <= d - e < len(counts))
                  for d in range(len(counts) + j)]
    assert sum(counts) == math.factorial(20)
    shift = sum(1 - 30 + k for k in range(20))
    want = Laurent({2 * d + shift: c for d, c in enumerate(counts)})
    code, out, _ = run_cli(capsys, "rank", "--N", "30", "--word", " ".join("E" * 20),
                           "--weight", "-30", "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == want.render()
    assert len(counts) == 191


def test_rank_names_a_token_that_is_not_one_letter(capsys):
    # letters are separated by blanks, so "EF" is one token, not two letters
    code, out, err = run_cli(capsys, "rank", "--N", "3", "--word", "EF",
                             "--weight", "1")
    assert code == 2 and out == ""
    assert "separated by blanks" in err and "'EF'" in err
    code, _, err = run_cli(capsys, "rank", "--N", "3", "--word", "E " + "F" * 60,
                           "--weight", "1")
    assert code == 2
    assert "'%s...'" % ("F" * 40) in err and "F" * 41 not in err


def test_a_word_is_read_by_one_rule_with_one_message(capsys, tmp_path):
    # the domain header and rank --word read a word by the one grammar
    # rule, so they reject "EF" with the same text (the diagram adds its
    # line); the grammar has no empty word (the identity word is 1)
    code, _, rank_err = run_cli(capsys, "rank", "--N", "3", "--word", "EF",
                                "--weight", "1")
    diagram = tmp_path / "ef.cat"
    diagram.write_text("N = 3\nweight = 1\ndomain = EF\n")
    eval_code, _, eval_err = run_cli(capsys, "eval", "--diagram", str(diagram),
                                     "--element", "1")
    assert code == eval_code == 2
    assert eval_err == rank_err.replace("error: ", "error: line 3: ")
    for word in ("", " ", "\t", " E", "E "):
        code, out, err = run_cli(capsys, "rank", "--N", "3", "--word", word,
                                 "--weight", "1")
        assert code == 2 and out == "" and "separated by blanks" in err, repr(word)
    code, out, _ = run_cli(capsys, "rank", "--N", "3", "--word", "1", "--weight", "1")
    assert code == 0 and out == "1\n"


def test_rank_parity_error(capsys):
    code, _, err = run_cli(capsys, "rank", "--N", "2", "--word", "E",
                           "--weight", "1")
    assert code == 2
    assert "parity" in err


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2
    assert main(["verify"]) == 2      # missing --N without CATSL2_N


def test_env_default_rank(capsys, monkeypatch):
    monkeypatch.setenv("CATSL2_N", "1")
    code, out, _ = run_cli(capsys, "rank", "--word", "E", "--weight", "-1")
    assert code == 0 and out.strip() == "1"
    # explicit flag overrides the environment
    code, out, _ = run_cli(capsys, "rank", "--N", "3", "--word", "E",
                           "--weight", "-1")
    assert code == 0 and out.strip() == "q + q^-1"


@pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5", ""])
def test_env_rank_rejected(capsys, monkeypatch, value):
    monkeypatch.setenv("CATSL2_N", value)
    code, out, err = run_cli(capsys, "rank", "--word", "E", "--weight", "-1")
    assert code == 2 and out == ""
    assert "CATSL2_N" in err and "positive integer" in err
    # explicit flag overrides the environment
    code, out, _ = run_cli(capsys, "rank", "--N", "3", "--word", "E",
                           "--weight", "-1")
    assert code == 0 and out.strip() == "q + q^-1"


def test_parser_is_built_once(capsys, monkeypatch):
    monkeypatch.delenv("CATSL2_N", raising=False)
    cli._build_parser.cache_clear()
    for _ in range(20):
        code, out, _ = run_cli(capsys, "rank", "--N", "1", "--word", "E",
                               "--weight", "-1")
        assert code == 0 and out.strip() == "1"
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 19)


def test_env_rank_applies_on_every_call(capsys, monkeypatch):
    argv = ("rank", "--word", "E", "--weight", "-1")
    for value, want in (("1", "1"), ("3", "q + q^-1"), ("1", "1"),
                        ("5", "q^2 + 1 + q^-2")):
        monkeypatch.setenv("CATSL2_N", value)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.strip() == want
    monkeypatch.setenv("CATSL2_N", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "CATSL2_N" in err
    monkeypatch.delenv("CATSL2_N")
    assert run_cli(capsys, *argv)[0] == 2          # --N required again
    monkeypatch.setenv("CATSL2_N", "3")
    assert run_cli(capsys, *argv)[1].strip() == "q + q^-1"


def test_no_state_leaks_between_parses(capsys):
    argv = ("rank", "--N", "2", "--word", "E F", "--weight", "2")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["rank"] == "q + q^-1"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == "q + q^-1\n"
    code, out, _ = run_cli(capsys, "special", "--N", "2", "--k", "1",
                           "--family", "X", "--alpha", "1")
    assert code == 0 and out == "-y[1]@0\n"


# -- large exponents: exact answers below the caps, exit 2 above them ------

def test_special_large_alpha_is_exact(capsys):
    # X_a = -y[1] * X_(a-1) at N = 2, k = 1: far past the recursion limit
    code, out, _ = run_cli(capsys, "special", "--N", "2", "--k", "1",
                           "--family", "X", "--alpha", "3000")
    assert code == 0
    assert out.strip() == "y[1]@0^3000"
    code, out, _ = run_cli(capsys, "special", "--N", "2", "--k", "1",
                           "--family", "Y", "--alpha", "3001", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"special": "-x[1]@0^3001"}


def test_bubble_large_alpha_is_exact(capsys):
    code, out, _ = run_cli(capsys, "bubble", "--N", "2", "--k", "1",
                           "--orient", "cw", "--alpha", "3000")
    assert code == 0
    assert out.strip() == "-x[1]@0^2999*y[1]@0 + x[1]@0^3000"


@pytest.mark.parametrize("argv, want", [
    (("special", "--k", "1", "--family", "X"), "y[1]@-99997^2 - y[2]@-99997"),
    (("special", "--k", "99998", "--family", "Y"), "x[1]@99997^2 - x[2]@99997"),
    (("bubble", "--k", "1", "--orient", "cw"),
     "-x[1]@-99997*y[1]@-99997 + x[1]@-99997^2 + y[2]@-99997")])
def test_class_queries_at_a_huge_rank_build_only_the_needed_generators(capsys, argv, want):
    # a class or bubble of degree index 2 needs the generators of index
    # at most 2, not all N of one letter (each a packed-monomial slot)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, argv[0], "--N", "99999", *argv[1:], "--alpha", "2")
    assert time.perf_counter() - start < 1
    assert code == 0 and out.strip() == want


@pytest.mark.parametrize("argv", [
    ("special", "--family", "X"), ("special", "--family", "Y"),
    ("bubble", "--orient", "cw"), ("bubble", "--orient", "ccw")])
@pytest.mark.parametrize("alpha", ["4001", "5000"])
def test_alpha_above_cap_exits_2(capsys, argv, alpha):
    code, out, err = run_cli(capsys, argv[0], "--N", "2", "--k", "1",
                             *argv[1:], "--alpha", alpha)
    assert code == 2 and out == ""
    assert "alpha must be at most 4000" in err


@pytest.mark.parametrize("argv, label", [
    (("special", "--k", "4", "--family", "X", "--alpha", "120"), "X_120"),
    (("special", "--k", "4", "--family", "Y", "--alpha", "4000"), "Y_4000"),
    (("bubble", "--k", "4", "--orient", "cw", "--alpha", "108"), "Y_108"),
    (("bubble", "--k", "2", "--orient", "ccw", "--alpha", "200"), "X_200")])
def test_class_above_term_cap_exits_2(capsys, argv, label):
    code, out, err = run_cli(capsys, argv[0], "--N", "8", *argv[1:])
    assert code == 2 and out == ""
    assert "%s at N=8" % label in err and "more than 10000 terms" in err


def test_term_cap_admits_the_served_range():
    # every class a special or bubble query with N <= 8, alpha <= 4N expands
    from catsl2.cli import MAX_CLASS_TERMS
    from catsl2.grassrings import GrassContext, special_class_terms
    worst = max(special_class_terms(GrassContext(N, k), family, alpha,
                                    MAX_CLASS_TERMS)
                for N in range(1, 9) for k in range(N + 1)
                for family in ("X", "Y") for alpha in range(4 * N + 1))
    assert worst == 3319 <= MAX_CLASS_TERMS


def test_eval_large_xi_power_is_exact(capsys):
    from catsl2.bimodules import BimElement
    from catsl2.diagramlang import compile_diagram, parse_diagram

    dot_file = DOCS / "diagrams" / "dot.cat"
    code, out, _ = run_cli(capsys, "eval", "--diagram", str(dot_file),
                           "--element", "xi^600", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # independent route: 601 single dots applied to the unit, so no xi
    # power above the factor bound + 1 is ever reduced
    dot = compile_diagram(parse_diagram(dot_file.read_text()))
    element = BimElement.basis_vector(dot.domain, (0,))
    for _ in range(601):
        element = dot(element)
    assert payload["image"] == element.render()
    assert payload["measured_degree"] == 2


@pytest.mark.parametrize("element, message, cols", [
    ("xi^1001", "exponent 1001 exceeds the limit 1000", "cols 1-7"),
    ("2^1001*xi", "exponent 1001 exceeds the limit 1000", "cols 1-6"),
    ("x[1]^600 * x[1]^600", "tensor term degree 1200 exceeds", "cols 12-19"),
    ("1/0", "zero denominator", "cols 1-3"),
])
def test_eval_element_limits_exit_2(capsys, element, message, cols):
    code, out, err = run_cli(capsys, "eval", "--diagram",
                             str(DOCS / "diagrams" / "dot.cat"), "--element", element)
    assert code == 2 and out == ""
    assert message in err and cols in err


@pytest.mark.parametrize("element", [
    "xi^" + "9" * 5000, "x[" + "9" * 5000 + "]", "9" * 5000 + " * xi"],
    ids=["exponent", "index", "rational"])
def test_eval_over_long_digit_run_exits_2(capsys, element):
    code, out, err = run_cli(capsys, "eval", "--diagram",
                             str(DOCS / "diagrams" / "dot.cat"), "--element", element)
    assert code == 2 and out == ""
    assert "line 1, cols 1-" in err and "Traceback" not in err
    assert "integer literal of 5000 digits exceeds the limit 1000" in err


def test_eval_rational_digits_limit_exits_2(capsys):
    # 99999^1000 has 5000 digits: too long to render, so rejected up front
    code, out, err = run_cli(capsys, "eval", "--diagram",
                             str(DOCS / "diagrams" / "dot.cat"),
                             "--element", "99999^1000")
    assert code == 2 and out == ""
    assert "have 5000 digits, above the limit 1000" in err and "cols 1-10" in err


def test_eval_degree_limit_spans_factors(capsys, tmp_path):
    diagram = tmp_path / "two.cat"
    diagram.write_text("N = 2\nweight = -2\ndomain = E E\nlayer: id_e id_e\n")
    code, _, _ = run_cli(capsys, "eval", "--diagram", str(diagram),
                         "--element", "xi^500 | xi^500")
    assert code == 0
    code, _, err = run_cli(capsys, "eval", "--diagram", str(diagram),
                           "--element", "xi^500 | xi^501")
    assert code == 2 and "tensor term degree 1001" in err


def test_overflow_is_an_exit_2_message(capsys, monkeypatch):
    from catsl2 import cli

    def too_big(*args):
        raise OverflowError("monomial exponent exceeds 32767")

    monkeypatch.setattr(cli, "special_class", too_big)
    code, out, err = run_cli(capsys, "special", "--N", "2", "--k", "1",
                             "--family", "X", "--alpha", "3")
    assert code == 2 and out == ""
    assert "too large" in err and "Traceback" not in err


@pytest.mark.parametrize("header", ["N", "weight"])
def test_eval_header_digit_limit_exits_2(capsys, tmp_path, header):
    values = {"N": "2", "weight": "0", header: "9" * 5000}
    diagram = tmp_path / "long.cat"
    diagram.write_text("N = %(N)s\nweight = %(weight)s\ndomain = E\n"
                       "layer: dot_e\n" % values)
    code, out, err = run_cli(capsys, "eval", "--diagram", str(diagram),
                             "--element", "1")
    assert code == 2 and out == ""
    line = 1 if header == "N" else 2
    assert err == ("catsl2: error: line %d: %s has 5000 digits, above the "
                   "limit 1000\n" % (line, header))


def test_eval_empty_element_exits_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--diagram",
                             str(DOCS / "diagrams" / "dot.cat"), "--element", "")
    assert code == 2 and out == ""
    assert "line 1, cols 1-1: empty element expression" in err
    assert "dangling sign" not in err and "Traceback" not in err


def _run_module(*argv, **options):
    """``python -m catsl2 <argv>`` with this checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    options.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "catsl2", *argv],
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120,
                          **options)


def test_python_dash_m_runs_the_command_line():
    # ``python -m catsl2`` exits with the code of ``cli.main``
    done = _run_module("rank", "--N", "2", "--word", "E F", "--weight", "2")
    assert (done.returncode, done.stdout.strip()) == (0, "q + q^-1"), done.stderr
    done = _run_module("rank", "--N", "2", "--no-such-option")
    assert done.returncode == 2 and "usage: catsl2" in done.stderr


@pytest.mark.parametrize("argv", [
    ("verify", "--N", "3"),
    ("special", "--N", "3", "--k", "1", "--family", "X", "--alpha", "2"),
])
def test_a_closed_output_pipe_exits_quietly(argv):
    # the reader has closed the pipe before the first write: no traceback,
    # and an exit code that says neither success nor a failed check
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_module(*argv, stdout=write)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (cli.PIPE_CLOSED, "")
    assert cli.PIPE_CLOSED not in (0, 1, cli.USAGE_ERROR)


def test_bad_input_from_any_layer_exits_2_in_main(capsys, monkeypatch):
    # a ValueError from below a command handler becomes the exit-2
    # message in main, with nothing on stdout
    def boom(path):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "graded_rank", boom)
    code, out, err = run_cli(capsys, "rank", "--N", "2", "--word", "E F",
                             "--weight", "2")
    assert (code, out, err) == (2, "", "catsl2: error: boom\n")


# -- argv fuzz: every drawn command line exits 0 or 2 (1 only from verify),
# -- with no traceback.  Numbers sit at and just past each cap.

HUGE = "99999999999999999999"
_RANKS = ["-1", "0", "1", "2", "3", str(DEFAULT_MAX_RANK), str(DEFAULT_MAX_RANK + 1), HUGE]
_FORMATS = st.sampled_from(["text", "json"])


def _options(command, *pairs):
    """argv of ``command`` from ``(flag, strategy)`` pairs; about one draw in
    four leaves one flag out."""
    flags = [flag for flag, _ in pairs]
    return st.tuples(st.tuples(*(values for _, values in pairs)),
                     st.integers(0, 4 * len(pairs) - 1)).map(
        lambda drawn: [command] + [item for i, pair in enumerate(zip(flags, drawn[0]))
                                   if i != drawn[1] for item in pair])


def _class_query(command, flag, values):
    # 108 is past MAX_CLASS_TERMS for both families at N = 8, k = 4
    alphas = ["-1", "0", "2", "108", str(MAX_ALPHA), str(MAX_ALPHA + 1), HUGE]
    return _options(command, ("--N", st.sampled_from(_RANKS)),
                    ("--k", st.sampled_from(["-1", "0", "1", "4", "8", HUGE])),
                    (flag, st.sampled_from(values)),
                    ("--alpha", st.sampled_from(alphas)),
                    ("--format", _FORMATS))


_ARGV = st.sampled_from([
    # --max-N is at most DEFAULT_MAX_RANK + 1 or huge; the ranks between
    # DEFAULT_MAX_RANK + 2 and the exponent limit are real, long runs
    _options("verify", ("--N", st.sampled_from(_RANKS)),
             ("--max-N", st.one_of(st.integers(-1, DEFAULT_MAX_RANK + 1).map(str),
                                   st.just(HUGE))),
             ("--suites", st.sampled_from(["k0_shadow", "l", "l,k0_shadow", "",
                                           ",", "frobenius", "m"])),
             ("--format", _FORMATS)),
    _options("eval", ("--diagram", st.sampled_from(
                 [str(DOCS / "diagrams" / name) for name in ("dot.cat", "zigzag.cat")]
                 + [str(DOCS / "diagrams"), str(DOCS / "report-schema.json"),
                    "/nonexistent.cat"])),
             ("--element", st.sampled_from(["1", "xi", "-xi", "xi^1000", "xi^1001",
                                            "", "x[", "1/0", "xi | xi"])),
             ("--format", _FORMATS)),
    _class_query("bubble", "--orient", ["cw", "ccw", "up"]),
    _class_query("special", "--family", ["X", "Y", "Z"]),
    # a one-letter word at N = 2 * MAX_RANK_TERMS has one term past the cap
    _options("rank", ("--N", st.sampled_from(
                 _RANKS + [str(2 * MAX_RANK_TERMS - 2), str(2 * MAX_RANK_TERMS)])),
             ("--word", st.sampled_from(["E", "F", "1", "E F", "F E E", "EF", "E X", ""])),
             ("--weight", st.sampled_from(["-2", "-1", "0", "1", "2", HUGE, "-" + HUGE])),
             ("--format", _FORMATS)),
]).flatmap(lambda command: command)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_ARGV)
def test_argv_fuzz_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("CATSL2_N", None)
        code = main(argv)
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
