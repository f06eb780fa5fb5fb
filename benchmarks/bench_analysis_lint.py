"""Analysis benchmark: ``zar lint`` latency on the paper's programs.

The whole analyzer stack (abstract interpretation + hygiene/observe/
deadcode/termination/bitcost) must stay interactive -- well under a
second per program.  Each program is linted once, the way a ``zar
lint`` process does; a warm-up lint of a one-line program pays the
lazy imports first, so the first program is not charged for them.

Writes ``benchmarks/results/BENCH_analysis.json`` (uploaded by CI next
to ``BENCH_compiler.json``).  Run from the repository root as ``python
-m benchmarks.bench_analysis_lint``.
"""

import os
import time

from repro.analysis import lint_source

from benchmarks._common import write_bench_json

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "programs",
)

LINT_TARGETS = (
    "die.gcl",
    "geometric.gcl",
    "dueling_coins.gcl",
    "hare_tortoise.gcl",
    os.path.join("broken", "divergent_loop.gcl"),
    os.path.join("broken", "infeasible_observe.gcl"),
    os.path.join("broken", "dead_branch.gcl"),
    os.path.join("broken", "dead_loop.gcl"),
)


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _lint_record(name: str) -> dict:
    with open(os.path.join(EXAMPLES, name)) as handle:
        source = handle.read()
    t0 = time.perf_counter()
    report = lint_source(source)
    elapsed = time.perf_counter() - t0
    return {
        "codes": sorted({d.code for d in report.diagnostics}),
        "exit_code": report.exit_code,
        "lint_ms": _ms(elapsed),
    }


def main() -> None:
    lint_source("x := 1;\n")
    lint = {name: _lint_record(name) for name in LINT_TARGETS}
    slowest = max(entry["lint_ms"] for entry in lint.values())
    assert slowest < 30_000, "lint must stay interactive, got %sms" % slowest
    write_bench_json(
        "BENCH_analysis", {"lint": lint, "lint_slowest_ms": slowest}
    )


if __name__ == "__main__":
    main()
