import json
from pathlib import Path

import jsonschema
import pytest

from catsl2.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs"


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


def test_eval_dot(capsys, tmp_path):
    diagram = tmp_path / "dot.cat"
    diagram.write_text("N = 2\nweight = 0\ndomain = E\nlayer: dot_e\n")
    code, out, _ = run_cli(capsys, "eval", "--diagram", str(diagram),
                           "--element", "1")
    assert code == 0
    assert "image:    xi" in out


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
