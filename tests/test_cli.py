"""Tests for the command-line driver (repro.cli)."""

import io
from fractions import Fraction

import pytest

from repro.cli import CliError, main, parse_initial_state
from repro.cli.commands import _parse_value


@pytest.fixture()
def programs_dir(tmp_path):
    """A temp directory with small cpGCL sources."""
    (tmp_path / "die.gcl").write_text("m <~ uniform(6);\nx := m + 1;\n")
    (tmp_path / "walk.gcl").write_text(
        "pos := 0;\n"
        "steps := 0;\n"
        "while steps < 2 {\n"
        "    { pos := pos + 1; } [1/2] { pos := pos - 1; };\n"
        "    steps := steps + 1;\n"
        "}\n"
        "observe even(pos);\n"
    )
    (tmp_path / "broken.gcl").write_text("x := ;\n")
    (tmp_path / "badprob.gcl").write_text(
        "{ x := 1; } [3/2] { x := 2; };\n"
    )
    return tmp_path


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCheck:
    def test_ok_program(self, programs_dir):
        code, text = run_cli("check", str(programs_dir / "die.gcl"))
        assert code == 0
        assert "OK" in text

    def test_parse_error_reported(self, programs_dir):
        code, text = run_cli("check", str(programs_dir / "broken.gcl"))
        assert code == 1
        assert "error" in text.lower()

    def test_static_probability_error(self, programs_dir):
        code, text = run_cli("check", str(programs_dir / "badprob.gcl"))
        assert code == 1
        assert "error" in text.lower()

    def test_missing_file(self):
        code, text = run_cli("check", "/nonexistent/prog.gcl")
        assert code == 1
        assert "cannot read" in text


class TestPretty:
    def test_roundtrip_output(self, programs_dir):
        code, text = run_cli("pretty", str(programs_dir / "walk.gcl"))
        assert code == 0
        assert "while steps < 2" in text
        assert "observe even(pos);" in text


class TestCompile:
    def test_reports_statistics(self, programs_dir):
        code, text = run_cli("compile", str(programs_dir / "die.gcl"))
        assert code == 0
        assert "size:" in text
        assert "unbiased:  True" in text
        assert "E[bits]:   11/3" in text
        features = next(
            line for line in text.splitlines() if "features:" in line
        )
        assert features.split()[-1] == "closed"
        assert "-- static rule" in text

    def test_debias_stage_label(self, programs_dir):
        code, text = run_cli(
            "compile", str(programs_dir / "die.gcl"), "--debias"
        )
        assert code == 0
        assert "debias" in text

    def test_tree_rendering(self, programs_dir):
        code, text = run_cli(
            "compile", str(programs_dir / "walk.gcl"), "--tree"
        )
        assert code == 0
        assert "Fix" in text
        assert "Choice" in text  # the unfolded loop body's biased flip


class TestSample:
    def test_sample_summary(self, programs_dir):
        code, text = run_cli(
            "sample", str(programs_dir / "die.gcl"),
            "-n", "200", "--seed", "0", "--var", "x",
        )
        assert code == 0
        assert "samples:   200" in text
        assert "mean bits:" in text
        assert "top outcomes:" in text

    def test_initial_state_binding(self, tmp_path):
        source = tmp_path / "add.gcl"
        source.write_text("y := x + 1;\n")
        code, text = run_cli(
            "sample", str(source), "-n", "5", "--seed", "0",
            "--var", "y", "--init", "x=41",
        )
        assert code == 0
        assert "42" in text


class TestInfer:
    def test_exact_on_finite_program(self, programs_dir):
        code, text = run_cli(
            "infer", str(programs_dir / "walk.gcl"), "--var", "pos"
        )
        assert code == 0
        assert "slack: 0 (exact)" in text
        assert "P(pos=0)" in text

    def test_full_state_listing(self, programs_dir):
        code, text = run_cli("infer", str(programs_dir / "walk.gcl"))
        assert code == 0
        assert "P(" in text

    def test_tolerance_flag(self, programs_dir):
        code, text = run_cli(
            "infer", str(programs_dir / "die.gcl"),
            "--var", "x", "--tol", "1/1048576",
        )
        assert code == 0
        assert "P(x=1)" in text

    @pytest.mark.parametrize(
        "flag,value",
        [("--tol", "junk"), ("--tol", "1/0"), ("--tol", "-1/2"),
         ("--budget", "-1")],
        ids=["tol=junk", "tol=1/0", "tol=-1/2", "budget=-1"],
    )
    def test_rejects_bad_budget_or_tol(self, programs_dir, flag, value):
        code, text = run_cli(
            "infer", str(programs_dir / "die.gcl"), "%s=%s" % (flag, value)
        )
        assert code == 1
        assert text.startswith("error: %s" % flag)


class TestBounds:
    def test_certified_marginal(self, programs_dir):
        code, text = run_cli(
            "bounds", str(programs_dir / "die.gcl"), "--var", "x"
        )
        assert code == 0
        assert "sweeps:" in text
        assert "P(x=3) in [" in text
        assert "PARTIAL" not in text

    def test_json_payload(self, programs_dir):
        import json

        code, text = run_cli(
            "bounds", str(programs_dir / "walk.gcl"),
            "--var", "pos", "--format", "json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["partial"] is False
        assert payload["stats"]["converged"] is True
        values = {row["value"] for row in payload["marginal"]["pmf"]}
        assert values == {"0", "2", "-2"}
        for row in payload["marginal"]["pmf"]:
            assert Fraction(row["lo"]) <= Fraction(row["hi"])

    def test_divergent_loop_reports_partial(self, tmp_path):
        path = tmp_path / "spin.gcl"
        path.write_text("x := 0;\nwhile x < 1 {\n    x := x;\n}\n")
        code, text = run_cli("bounds", str(path))
        assert code == 0
        assert "PARTIAL" in text

    @pytest.mark.parametrize(
        "flag,value",
        [("--width-bits", "0"), ("--max-sweeps", "0"),
         ("--max-sweeps", "-3")],
        ids=["width-bits=0", "max-sweeps=0", "max-sweeps=-3"],
    )
    def test_rejects_bad_width(self, programs_dir, flag, value):
        code, text = run_cli(
            "bounds", str(programs_dir / "die.gcl"), "%s=%s" % (flag, value)
        )
        assert code == 1
        assert text.startswith("error: %s" % flag)


class TestMcmc:
    def test_chain_summary(self, programs_dir):
        code, text = run_cli(
            "mcmc", str(programs_dir / "walk.gcl"),
            "-n", "200", "--burn-in", "20", "--seed", "1", "--var", "pos",
        )
        assert code == 0
        assert "acceptance:" in text
        assert "bits/sample:" in text
        assert "ESS(pos):" in text


class TestInitialStateParsing:
    def test_parse_values(self):
        assert _parse_value("7") == 7
        assert _parse_value("true") is True
        assert _parse_value("False") is False
        assert _parse_value("2/3") == Fraction(2, 3)

    def test_parse_value_rejects_garbage(self):
        with pytest.raises(CliError):
            _parse_value("fish")

    def test_parse_initial_state(self):
        sigma = parse_initial_state(["x=1", "b=true"])
        assert sigma["x"] == 1
        assert sigma["b"] is True

    def test_parse_initial_state_rejects_missing_equals(self):
        with pytest.raises(CliError):
            parse_initial_state(["x"])

    def test_none_means_empty(self):
        sigma = parse_initial_state(None)
        assert sigma == parse_initial_state([])
