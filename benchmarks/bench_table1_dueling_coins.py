"""Table 1: dueling coins -- accuracy and entropy for p = 2/3, 4/5, 1/20.

Paper values (100k samples):

    p     mu_a  sigma_a  TV        KL        SMAPE     mu_bit  sigma_bit
    2/3   0.50  0.50     2.02e-3   1.20e-5   2.02e-3    12.00   9.39
    4/5   0.50  0.50     2.16e-3   1.30e-5   2.16e-3    27.59  23.49
    1/20  0.50  0.50     2.83e-3   2.30e-5   2.83e-3   134.97 129.07

The posterior is Bernoulli(1/2) regardless of p; mu_bit grows as p moves
away from 1/2.  The *exact* expected bits of the compiled samplers are
12, 27.5 and 2560/19 ~ 134.74, which we assert the sampled means match.
"""

from fractions import Fraction

import pytest

from repro.cftree.analysis import expected_bits
from repro.cftree.compile import compile_cpgcl
from repro.cftree.debias import debias
from repro.cftree.elim import elim_choices
from repro.lang.state import State
from repro.lang.sugar import dueling_coins
from repro.sampler.harness import format_table, run_row
from repro.stats.distributions import bernoulli_pmf

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
    # (p, weight, paper mu_bit)
    (Fraction(2, 3), 1, 12.0),
    (Fraction(4, 5), 2, 27.59),
    (Fraction(1, 20), 8, 134.97),
]


@pytest.mark.parametrize("p,weight,paper_bits", CASES,
                         ids=["p=2/3", "p=4/5", "p=1/20"])
def test_table1_row(benchmark, p, weight, paper_bits):
    program = dueling_coins(p)
    n = bench_samples(weight)
    row, seconds = benchmark.pedantic(
        lambda: timed_run(
            run_row,
            program, "a", "p=%s" % p,
            true_pmf=bernoulli_pmf(Fraction(1, 2)), n=n, seed=17,
        ),
        rounds=1, iterations=1,
    )
    test_table1_row.timings = getattr(test_table1_row, "timings", []) + [
        row_timing("p=%s" % p, n, seconds)
    ]
    # Posterior over a is Bernoulli(1/2) for every bias.
    assert abs(row.mean - 0.5) < 5.0 / (n ** 0.5)
    # Entropy shape: sampled bits near the exact pipeline expectation,
    # which in turn matches the paper's measured value.
    exact = float(expected_bits(debias(elim_choices(compile_cpgcl(program, State())))))
    assert abs(row.mean_bits - exact) / exact < 0.1
    assert abs(exact - paper_bits) / paper_bits < 0.01
    test_table1_row.rows = getattr(test_table1_row, "rows", []) + [row]


def test_table1_native_speedup(benchmark):
    """Native-backend bar on Table 1's rejection-heavy programs: >= 10x
    geometric mean over the numpy driver at the driver level.  The
    dueling-coins rows are where the kernel shines brightest -- deep
    tied-restart loops spend everything in the walk itself -- so this
    bench complements Table 3's fixed-cost-bound small die.  Results
    merge into ``BENCH_engine.json`` (gated by
    ``tools/check_native_speedup.py``) and ``BENCH_table1.json``.
    """
    from repro.engine.native import native_available
    from repro.engine.pool import HAVE_NUMPY

    if not native_available():
        pytest.skip("native backend unavailable (no C compiler/disabled)")
    if not HAVE_NUMPY:
        pytest.skip("numpy driver absent: no baseline to measure against")

    cases = [("p=%s" % p, dueling_coins(p), weight, "a")
             for p, weight, _ in CASES]
    rows, geomean = benchmark.pedantic(
        lambda: measure_native_rows(cases), rounds=1, iterations=1
    )
    merge_bench_json(
        "BENCH_engine",
        {
            "native_table1": {
                "rows": rows,
                "geomean_speedup": round(geomean, 2),
            }
        },
    )
    test_table1_row.timings = getattr(test_table1_row, "timings", []) + [
        row_timing("%s native" % row["param"], row["samples"],
                   row["native_seconds"])
        for row in rows
    ]
    assert geomean >= 10.0, (
        "native geomean speedup %.1fx below the 10x bar (rows: %s)"
        % (geomean, [(r["param"], r["speedup"]) for r in rows])
    )


def test_table1_render(benchmark):
    # Trivial benchmark call so --benchmark-only still runs the
    # rendering (it would otherwise be skipped and the results/
    # table not regenerated).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = getattr(test_table1_row, "rows", [])
    if rows:
        text = format_table("Table 1: dueling coins", rows, var_name="a")
        text += (
            "\npaper: p=2/3 bits 12.00 | p=4/5 bits 27.59 | p=1/20 bits 134.97"
        )
        write_result("table1_dueling_coins", text)
    timings = getattr(test_table1_row, "timings", [])
    if timings:
        write_bench_json(
            "BENCH_table1",
            {"benchmark": "table1_dueling_coins", "rows": timings},
        )
