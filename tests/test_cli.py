"""Tests for the command-line driver (repro.cli)."""

import io
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.cli import CliError, main, parse_initial_state
from repro.cli.commands import _parse_value

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"

#: The subcommands that report outcomes, with flags that keep them quick.
REPORTERS = {
    "sample": ["-n", "50", "--seed", "1"],
    "infer": ["--budget", "200"],
    "bounds": ["--width-bits", "8"],
    "mcmc": ["-n", "50", "--burn-in", "5", "--seed", "1"],
}


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

    def test_native_line_names_the_step_width(self, programs_dir):
        from repro.engine.native import native_available

        code, text = run_cli("compile", str(programs_dir / "die.gcl"))
        assert code == 0
        native = next(line for line in text.splitlines()
                      if "native:" in line)
        if native_available():
            # die.gcl's six bit rows walk in 8-bit windows.
            assert native.endswith(", 8-bit steps)")
        else:
            assert "unavailable (" in native

    def test_debias_stage_label(self, programs_dir):
        code, text = run_cli(
            "compile", str(programs_dir / "die.gcl"), "--debias"
        )
        assert code == 0
        assert "debias" in text

    def test_raw_row_baseline_of_a_pruned_program(self):
        # The "raw N, -P%" baseline is the table's own optimized tree
        # lowered without dedup/compaction, so P is a share in [0, 100].
        code, text = run_cli(
            "compile", str(EXAMPLES / "broken" / "dead_loop.gcl")
        )
        assert code == 0
        match = re.search(r"(\d+) table rows  \(raw (\d+), -(-?[0-9.]+)% "
                          r"via dedup", text)
        assert match, text
        rows, raw, pct = match.groups()
        assert int(raw) >= int(rows)
        assert 0.0 <= float(pct) <= 100.0

    def test_unknown_pass_fails_before_any_report(self, programs_dir):
        code, text = run_cli(
            "compile", str(programs_dir / "die.gcl"), "--passes", "bogus"
        )
        assert code == 1
        assert text.strip() == (
            "error: pipeline: unknown pass 'bogus' "
            "(known: debias, elim_choices)"
        )

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

    def test_backend_reports_its_registered_profile(self, programs_dir):
        code, text = run_cli(
            "sample", str(programs_dir / "die.gcl"),
            "--backend", "python", "--seed", "1",
        )
        assert code == 0
        assert "profile:   batch-python (batch/python)\n" in text

    def test_profile_flag_is_gone(self, programs_dir, capsys):
        # Each former --profile value is --engine trampoline or
        # --backend X.
        with pytest.raises(SystemExit) as exited:
            run_cli("sample", str(programs_dir / "die.gcl"),
                    "--profile", "native")
        assert exited.value.code == 2
        assert "--profile" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "flag,value",
        [("-n", "0"), ("-n", "-3"), ("--thin", "0"), ("--thin", "-1"),
         ("--burn-in", "-1")],
        ids=["n=0", "n=-3", "thin=0", "thin=-1", "burn-in=-1"],
    )
    def test_rejects_bad_counts(self, programs_dir, flag, value):
        code, text = run_cli(
            "mcmc", str(programs_dir / "walk.gcl"), "%s=%s" % (flag, value)
        )
        assert code == 1
        assert text.startswith("error: %s " % flag)


class TestReportFlags:
    @pytest.mark.parametrize("command", sorted(REPORTERS))
    def test_rejects_negative_top(self, programs_dir, command):
        code, text = run_cli(command, str(programs_dir / "die.gcl"),
                             "--top", "-1", *REPORTERS[command])
        assert code == 1
        assert text == "error: --top must be nonnegative\n"

    @pytest.mark.parametrize("command", sorted(REPORTERS))
    def test_rejects_unknown_var(self, programs_dir, command):
        # An unbound variable reads as 0: reporting it would show a
        # point mass at 0.
        code, text = run_cli(command, str(programs_dir / "die.gcl"),
                             "--var", "nosuch", *REPORTERS[command])
        assert code == 1
        assert text.startswith("error: --var 'nosuch' ")

    def test_rejects_unknown_observed(self, programs_dir):
        code, text = run_cli("bounds", str(programs_dir / "die.gcl"),
                             "--observed", "x,nosuch")
        assert code == 1
        assert text.startswith("error: --observed 'nosuch' ")

    @pytest.mark.parametrize("command", sorted(REPORTERS))
    def test_init_binding_is_a_known_name(self, programs_dir, command):
        code, text = run_cli(command, str(programs_dir / "die.gcl"),
                             "--var", "q", "--init", "q=3",
                             *REPORTERS[command])
        assert code == 0, text
        assert "error" not in text

    @pytest.mark.parametrize("command", ["infer", "bounds"])
    def test_top_keeps_the_likeliest_marginal_values(self, tmp_path,
                                                     command):
        # x is -1 with probability 1/3 and 0 with 2/3: --top 1 keeps 0,
        # --top 2 lists both in value order.
        source = tmp_path / "square.gcl"
        source.write_text("m <~ uniform(3);\nx := m * m - 2 * m;\n")

        def listed(*top):
            code, text = run_cli(command, str(source), "--var", "x", *top,
                                 *REPORTERS[command])
            assert code == 0, text
            return [line.split(")")[0] for line in text.splitlines()
                    if line.startswith("P(")]

        assert listed("--top", "1") == ["P(x=0"]
        assert listed("--top", "2") == ["P(x=-1", "P(x=0"]
        assert listed("--top", "0") == []

    def test_marginal_stops_at_the_default_top(self):
        # geometric.gcl's h ranges over every prime; the listing stops
        # at --top's default of 10, the likeliest first primes.
        code, text = run_cli("infer", str(EXAMPLES / "geometric.gcl"),
                             "--var", "h", *REPORTERS["infer"])
        assert code == 0, text
        rows = [line for line in text.splitlines() if line.startswith("P(")]
        assert len(rows) == 10
        assert rows[0].startswith("P(h=2) in [")
        assert rows[-1].startswith("P(h=29) in [")

    def test_bounds_json_marginal_honours_top(self, tmp_path):
        import json

        source = tmp_path / "square.gcl"
        source.write_text("m <~ uniform(3);\nx := m * m - 2 * m;\n")
        code, text = run_cli("bounds", str(source), "--var", "x",
                             "--top", "1", "--format", "json")
        assert code == 0, text
        pmf = json.loads(text)["marginal"]["pmf"]
        assert [row["value"] for row in pmf] == ["0"]

    @pytest.mark.parametrize("command,marker", [
        ("sample", "mean h:"),
        ("infer", "P(h=2) in ["),
        ("bounds", "P(h=2) in ["),
        ("mcmc", "ESS(h):"),
    ])
    def test_variable_read_before_assignment_is_known(self, command,
                                                      marker):
        # geometric.gcl only ever reads h in ``h := h + 1``.
        code, text = run_cli(command, str(EXAMPLES / "geometric.gcl"),
                             "--var", "h", *REPORTERS[command])
        assert code == 0, text
        assert marker in text


class TestEntryPoint:
    @pytest.mark.parametrize("entry", [
        ["-m", "repro"],
        ["-c", "from repro.cli.main import console_main; console_main()"],
    ], ids=["python -m repro", "console_main"])
    def test_closed_stdout_exits_without_traceback(self, programs_dir,
                                                   entry):
        # The reader is gone before the first write, as in
        # ``zar pretty ... | head -0``.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                                / "src")
        proc = subprocess.Popen(
            [sys.executable] + entry
            + ["pretty", str(programs_dir / "die.gcl")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        try:
            stderr = proc.stderr.read().decode()
        finally:
            proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in stderr


class TestInitialStateParsing:
    def test_parse_values(self):
        assert _parse_value("7") == 7
        assert _parse_value("true") is True
        assert _parse_value("False") is False
        assert _parse_value("2/3") == Fraction(2, 3)

    def test_parse_value_rejects_garbage(self):
        with pytest.raises(CliError):
            _parse_value("fish")

    def test_parse_value_rejects_zero_denominator(self):
        with pytest.raises(CliError, match="cannot parse value '1/0'"):
            _parse_value("1/0")

    @pytest.mark.parametrize(
        "subcommand", ["check", "lint", "compile", "sample", "infer",
                       "bounds", "mcmc"],
    )
    def test_zero_denominator_init_is_an_error_line(self, programs_dir,
                                                    subcommand):
        code, text = run_cli(subcommand, str(programs_dir / "die.gcl"),
                             "--init", "x=1/0")
        assert code == 1
        assert text.strip() == (
            "error: cannot parse value '1/0' (int, bool, or p/q)"
        )

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
