"""Table 3: n-sided die -- accuracy and entropy for n = 6, 200, 10000.

Paper values (100k samples):

    n      mu_x     sigma_x  TV        KL        SMAPE     mu_bit  sigma_bit
    6      3.49     1.71     3.86e-3   5.80e-5   3.87e-3    3.66   1.33
    200    100.42   57.65    1.77e-2   1.36e-3   1.77e-2    9.01   2.18
    10k    5011.87  2892.0   1.24e-1   7.33e-2   1.28e-1   15.62   2.74

Near entropy-optimality: H = 2.59, 7.64, 13.29 and the samplers stay
within the Knuth-Yao H+2 band.  The exact expected flips are 11/3, 9,
and 15.619; sampled means must agree.
"""

import pytest

from repro.cftree.analysis import expected_bits
from repro.cftree.uniform import uniform_tree
from repro.engine import PROFILES, collect_auto, static_profile
from repro.lang.sugar import n_sided_die
from repro.sampler.harness import format_table, run_row
from repro.stats.distributions import uniform_pmf
from repro.stats.entropy import knuth_yao_bounds

from benchmarks._common import (
    bench_samples,
    merge_bench_json,
    row_timing,
    timed_run,
    write_bench_json,
    write_result,
)
from benchmarks._native import measure_native_rows

CASES = [
    (6, 1, 3.66),
    (200, 1, 9.01),
    (10000, 2, 15.62),
]


@pytest.mark.parametrize("n,weight,paper_bits", CASES,
                         ids=["n=6", "n=200", "n=10000"])
def test_table3_row(benchmark, n, weight, paper_bits):
    program = n_sided_die(n)
    count = bench_samples(weight)
    row, seconds = benchmark.pedantic(
        lambda: timed_run(
            run_row,
            program, "x", "n=%d" % n,
            true_pmf=uniform_pmf(n, start=1), n=count, seed=31,
        ),
        rounds=1, iterations=1,
    )
    test_table3_row.timings = getattr(test_table3_row, "timings", []) + [
        row_timing("n=%d" % n, count, seconds)
    ]
    expected_mean = (n + 1) / 2
    assert abs(row.mean - expected_mean) / expected_mean < 0.05
    exact_bits = float(expected_bits(uniform_tree(n)))
    assert abs(row.mean_bits - exact_bits) < 0.15
    assert abs(exact_bits - paper_bits) < 0.02
    # "Near entropy-optimality" (Section 5.3): the entropy lower bound
    # is universal, but the strict Knuth-Yao H+2 ceiling applies only to
    # optimal DDG samplers -- the paper's own n=10000 row (15.62 bits,
    # which we match exactly) sits 0.33 above H+2 = 15.29.
    low, high = knuth_yao_bounds(uniform_pmf(n))
    assert low <= exact_bits < high + 0.5
    test_table3_row.rows = getattr(test_table3_row, "rows", []) + [row]


def test_table3_engine_speedup(benchmark):
    """The acceptance bar for the batch engine: >= 10x samples/sec over
    the per-sample trampoline on the 6-sided die, measured side by side.

    Both sides now run through ``collect_auto`` with pinned
    :class:`~repro.engine.profile.EngineProfile`\\ s (the trampoline
    registry profile vs the static batch profile), so the comparison
    exercises the same selection seam the harness and CLI use -- and
    emits telemetry records when ``ZAR_TELEMETRY_DIR`` is set.  The
    trampoline is timed on a reduced count (it is the slow side);
    throughputs are samples/sec, so the counts need not match.
    """
    program = n_sided_die(6)
    engine_count = bench_samples()
    trampoline_count = max(300, engine_count // 10)

    tramp_profile = PROFILES["trampoline"]
    extract = lambda s: s["x"]  # noqa: E731
    collect_auto(program, 50, seed=0, extract=extract,
                 profile=tramp_profile)  # warm caches
    tramp = collect_auto(program, trampoline_count, seed=17,
                         extract=extract, profile=tramp_profile)
    trampoline_sps = trampoline_count / max(tramp.seconds, 1e-9)

    engine_profile = static_profile()

    def run_engine():
        return collect_auto(program, engine_count, seed=17,
                            extract=extract, profile=engine_profile)

    first = benchmark.pedantic(run_engine, rounds=1, iterations=1)
    second = collect_auto(program, engine_count, seed=18, extract=extract,
                          profile=engine_profile)
    engine_sps = engine_count / max(second.seconds, 1e-9)

    speedup = engine_sps / trampoline_sps
    record = {
        "benchmark": "table3_die_n6",
        "profile": engine_profile.name,
        "backend": engine_profile.backend,
        "fallback_reason": second.fallback_reason,
        "engine_samples": engine_count,
        "trampoline_samples": trampoline_count,
        "engine_samples_per_sec": round(engine_sps, 1),
        "trampoline_samples_per_sec": round(trampoline_sps, 1),
        "speedup": round(speedup, 2),
        "table_nodes": second.table_nodes,
    }
    write_bench_json("BENCH_engine", record)
    assert second.engine == "batch" and second.fallback_reason is None
    # Sanity: the engine sampled the same distribution (3.66 bits/sample).
    assert abs(first.samples.mean_bits() - 11 / 3) < 0.2
    assert speedup >= 10.0, "engine speedup %.1fx below the 10x bar" % speedup


def test_table3_native_speedup(benchmark):
    """The native-backend acceptance bar on Table 3's programs: the
    generated C kernel must clear a >= 10x geometric-mean speedup over
    the numpy driver across the die rows, measured at the driver level
    (see :mod:`benchmarks._native` for why driver level and why the
    geometric mean).  Per-row numbers and the gmean merge into
    ``BENCH_engine.json`` (``tools/check_native_speedup.py`` gates on
    it) and the native rows join ``BENCH_table3.json``.
    """
    from repro.engine.native import native_available
    from repro.engine.pool import HAVE_NUMPY

    if not native_available():
        pytest.skip("native backend unavailable (no C compiler/disabled)")
    if not HAVE_NUMPY:
        pytest.skip("numpy driver absent: no baseline to measure against")

    cases = [("n=%d" % n, n_sided_die(n), weight, "x")
             for n, weight, _ in CASES]
    rows, geomean = benchmark.pedantic(
        lambda: measure_native_rows(cases), rounds=1, iterations=1
    )
    merge_bench_json(
        "BENCH_engine",
        {
            "native_table3": {
                "rows": rows,
                "geomean_speedup": round(geomean, 2),
            }
        },
    )
    test_table3_row.timings = getattr(test_table3_row, "timings", []) + [
        row_timing("%s native" % row["param"], row["samples"],
                   row["native_seconds"])
        for row in rows
    ]
    assert geomean >= 10.0, (
        "native geomean speedup %.1fx below the 10x bar (rows: %s)"
        % (geomean, [(r["param"], r["speedup"]) for r in rows])
    )


def test_table3_render(benchmark):
    # Trivial benchmark call so --benchmark-only still runs the
    # rendering (it would otherwise be skipped and the results/
    # table not regenerated).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = getattr(test_table3_row, "rows", [])
    if rows:
        text = format_table("Table 3: n-sided die", rows, var_name="x")
        text += "\npaper: n=6 bits 3.66 | n=200 bits 9.01 | n=10k bits 15.62"
        write_result("table3_die", text)
    timings = getattr(test_table3_row, "timings", [])
    if timings:
        write_bench_json(
            "BENCH_table3", {"benchmark": "table3_die", "rows": timings}
        )
