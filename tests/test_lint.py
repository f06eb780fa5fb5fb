"""Tests for the abstract-interpretation lint engine (repro.analysis).

Covers: golden diagnostics over examples/programs (including the broken
set, whose ``# expect: ZAR0xx`` headers pin their rule codes), the
schema-stable JSON form, exit-code conventions, custom analyzer
registration, bounded-analysis incompleteness, and the "lint never
crashes" Hypothesis property.
"""

import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import (
    AbstractInterpreter,
    AnalysisBudget,
    Diagnostic,
    LintReport,
    RULES,
    Severity,
    lint_program,
    lint_source,
    register_analyzer,
)
from repro.lang.parser import parse_program
from repro.lang.state import State

from tests.strategies import (
    commands_with_loops,
    loop_free_command,
    mixed_states,
)

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "programs",
)


def lint_file(name):
    path = os.path.join(EXAMPLES, name)
    with open(path) as handle:
        source = handle.read()
    return lint_source(source), source


def codes(report):
    return {d.code for d in report.diagnostics}


class TestGoldenExamples:
    """The acceptance bar: each broken program is flagged with its
    stable rule code and a non-zero exit code."""

    def test_divergent_loop(self):
        report, _ = lint_file(os.path.join("broken", "divergent_loop.gcl"))
        assert "ZAR001" in codes(report)
        assert report.exit_code == 2
        diag = next(d for d in report.diagnostics if d.code == "ZAR001")
        assert diag.severity == Severity.ERROR
        assert diag.line == 5  # the while, after the comment header

    def test_infeasible_observe(self):
        report, _ = lint_file(os.path.join("broken", "infeasible_observe.gcl"))
        assert "ZAR002" in codes(report)
        assert report.exit_code == 2

    def test_dead_branch(self):
        report, _ = lint_file(os.path.join("broken", "dead_branch.gcl"))
        assert "ZAR003" in codes(report)
        assert report.exit_code == 1
        diag = next(d for d in report.diagnostics if d.code == "ZAR003")
        assert "else-branch" in diag.message

    def test_dead_loop(self):
        report, _ = lint_file(os.path.join("broken", "dead_loop.gcl"))
        assert "ZAR003" in codes(report)
        assert report.exit_code == 1
        diag = next(d for d in report.diagnostics if d.code == "ZAR003")
        assert "loop body is dead" in diag.message

    def test_expect_headers_match(self):
        """Every broken example's ``# expect:`` header names a code the
        linter actually reports."""
        broken = os.path.join(EXAMPLES, "broken")
        assert os.path.isdir(broken)
        seen = 0
        for name in sorted(os.listdir(broken)):
            if not name.endswith(".gcl"):
                continue
            report, source = lint_file(os.path.join("broken", name))
            expected = set()
            for line in source.splitlines():
                if line.startswith("# expect:"):
                    expected.update(line.split(":", 1)[1].split())
            assert expected, "broken example %s has no expect header" % name
            assert expected <= codes(report), name
            assert report.exit_code != 0, name
            seen += 1
        assert seen >= 3

    def test_die_is_clean(self):
        report, _ = lint_file("die.gcl")
        assert report.exit_code == 0
        assert "ZAR009" in codes(report)  # the bit-cost info

    def test_clean_examples_have_no_errors(self):
        for name in sorted(os.listdir(EXAMPLES)):
            if not name.endswith(".gcl"):
                continue
            report, _ = lint_file(name)
            assert report.count(Severity.ERROR) == 0, name


class TestBitCost:
    """ZAR009/ZAR008 numbers read off the fixpoint engine's masses."""

    def test_die_entropy_and_expected_bits(self):
        report, _ = lint_file("die.gcl")
        [diag] = [d for d in report.diagnostics if d.code == "ZAR009"]
        assert "entropy lower bound 2.585 bits/sample" in diag.message
        assert "expects 3.667 bits/attempt" in diag.message
        assert "unexplored" not in diag.message

    def test_race_still_reports_incomplete(self):
        report, _ = lint_file("hare_tortoise.gcl")
        assert any(
            d.code == "ZAR008" and "bit-cost analysis incomplete" in d.message
            for d in report.diagnostics
        )
        assert "ZAR009" not in codes(report)
        assert report.exit_code == 1


class TestDiagnostics:
    def test_severity_labels(self):
        assert Severity.INFO.label == "info"
        assert Severity.WARNING.label == "warning"
        assert Severity.ERROR.label == "error"
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_rule_table_is_complete(self):
        for code, rule in RULES.items():
            assert code.startswith("ZAR")
            assert rule.code == code
            assert rule.name
            assert rule.summary

    def test_default_severity_comes_from_rule(self):
        diag = Diagnostic("ZAR001", "boom")
        assert diag.severity == RULES["ZAR001"].default_severity

    def test_render_includes_location_and_code(self):
        diag = Diagnostic("ZAR003", "dead").located(4, 7)
        assert diag.render() == "4:7: warning[ZAR003]: dead"

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("ZAR999", "nope")


class TestJsonSchema:
    def test_schema_stable_fields(self):
        report, _ = lint_file(os.path.join("broken", "dead_branch.gcl"))
        payload = report.to_json()
        assert payload["version"] == 1
        assert set(payload) >= {
            "version", "diagnostics", "summary", "incomplete", "exit_code",
        }
        assert payload["exit_code"] == report.exit_code
        for entry in payload["diagnostics"]:
            assert set(entry) >= {
                "code", "rule", "severity", "message", "path", "line",
                "column",
            }
            assert entry["severity"] in ("info", "warning", "error")
        summary = payload["summary"]
        assert summary["warnings"] >= 1
        assert len(payload["diagnostics"]) == (
            summary["errors"] + summary["warnings"] + summary["infos"]
        )

    def test_render_json_round_trips(self):
        report, _ = lint_file("die.gcl")
        out = io.StringIO()
        report.render_json(out)
        parsed = json.loads(out.getvalue())
        assert parsed == json.loads(json.dumps(report.to_json()))

    def test_render_text_has_summary_line(self):
        report, _ = lint_file("die.gcl")
        out = io.StringIO()
        report.render_text(out, name="die.gcl")
        text = out.getvalue()
        assert "die.gcl:" in text
        assert "error(s)" in text and "info(s)" in text


class TestExitCodes:
    def test_empty_report_is_clean(self):
        report = LintReport([], incomplete=False)
        assert report.exit_code == 0
        assert report.max_severity is None

    def test_info_only_is_clean(self):
        report = LintReport([Diagnostic("ZAR009", "fyi")], incomplete=False)
        assert report.exit_code == 0

    def test_warning_is_one(self):
        report = LintReport([Diagnostic("ZAR003", "dead")], incomplete=False)
        assert report.exit_code == 1

    def test_error_dominates(self):
        report = LintReport(
            [Diagnostic("ZAR003", "dead"), Diagnostic("ZAR001", "diverges")],
            incomplete=False,
        )
        assert report.exit_code == 2


class TestCustomAnalyzers:
    def test_register_and_run(self):
        name = "test-custom-analyzer"

        def custom(ctx):
            ctx.emit(Diagnostic("ZAR009", "custom says hi"))

        register_analyzer(name, custom, replace=True)
        program = parse_program("x := 1;\n")
        report = lint_program(program, analyzers=[name])
        assert [d.message for d in report.diagnostics] == ["custom says hi"]

    def test_unknown_analyzer_raises(self):
        program = parse_program("x := 1;\n")
        with pytest.raises(KeyError):
            lint_program(program, analyzers=["no-such-analyzer"])


class TestBoundedAnalysis:
    def test_budget_exhaustion_reports_incomplete(self):
        source = (
            "x := 0;\n"
            "while x < 3 { x := x + 1; }\n"
        )
        program = parse_program(source)
        interp = AbstractInterpreter(budget=AnalysisBudget(limit=2))
        report = lint_program(program, interpreter=interp)
        assert report.incomplete
        assert "ZAR008" in codes(report)
        # Incompleteness is informational, never a failure by itself.
        incomplete = [d for d in report.diagnostics if d.code == "ZAR008"]
        assert all(d.severity == Severity.INFO for d in incomplete)

    def test_counted_loop_converges_exactly(self):
        """The widening threshold lets short counted loops converge
        without widening; bounded unrolling then proves termination, so
        no ZAR001 is emitted."""
        source = (
            "steps := 0;\n"
            "while steps < 2 {\n"
            "    { pos := pos + 1; } [1/2] { pos := pos - 1; };\n"
            "    steps := steps + 1;\n"
            "}\n"
        )
        report = lint_source(source)
        assert "ZAR001" not in codes(report)
        assert report.exit_code == 0

    def test_widened_loop_does_not_hang(self):
        """A loop whose interval never stabilizes exactly must still
        terminate (widening jumps to +inf) rather than iterate forever."""
        source = "x := 0;\nwhile x != -1 { x := x + 2; }\n"
        report = lint_source(source)
        assert report.exit_code in (0, 1, 2)  # terminated is the point


class TestLintNeverCrashes:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(command=loop_free_command(2), sigma=mixed_states)
    def test_loop_free(self, command, sigma):
        report = lint_program(command, sigma)
        assert isinstance(report, LintReport)
        assert report.exit_code in (0, 1, 2)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(command=commands_with_loops(2), sigma=mixed_states)
    def test_with_loops(self, command, sigma):
        report = lint_program(command, sigma)
        assert isinstance(report, LintReport)
        assert report.exit_code in (0, 1, 2)


class TestCliLint:
    def run(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_text_output(self):
        path = os.path.join(EXAMPLES, "broken", "dead_branch.gcl")
        code, text = self.run("lint", path)
        assert code == 1
        assert "ZAR003" in text
        assert "warning" in text

    def test_json_output(self):
        path = os.path.join(EXAMPLES, "broken", "divergent_loop.gcl")
        code, text = self.run("lint", path, "--format", "json")
        assert code == 2
        payload = json.loads(text)
        assert payload["version"] == 1
        assert any(
            d["code"] == "ZAR001" for d in payload["diagnostics"]
        )

    def test_analyzer_selection(self):
        path = os.path.join(EXAMPLES, "broken", "dead_branch.gcl")
        code, text = self.run("lint", path, "--analyzers", "deadcode")
        assert code == 1
        assert "ZAR009" not in text

    def test_unknown_analyzer_is_cli_error(self):
        path = os.path.join(EXAMPLES, "die.gcl")
        code, text = self.run("lint", path, "--analyzers", "bogus")
        assert code == 1
        assert "error" in text.lower()

    def test_parse_failure_exits_one(self, tmp_path):
        bad = tmp_path / "bad.gcl"
        bad.write_text("x := ;\n")
        code, text = self.run("lint", str(bad))
        assert code == 1
        assert "error" in text.lower()

    def test_check_routes_through_lint(self):
        # A typecheck-clean program with a lint warning: check exits 1.
        path = os.path.join(EXAMPLES, "broken", "dead_branch.gcl")
        code, text = self.run("check", path)
        assert code == 1
        assert "ZAR003" in text

    def test_check_ok_still_says_ok(self):
        path = os.path.join(EXAMPLES, "die.gcl")
        code, text = self.run("check", path)
        assert code == 0
        assert "OK" in text
