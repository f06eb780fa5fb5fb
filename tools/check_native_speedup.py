"""CI gate: the native backend's >= 10x driver-level speedup bar, and
its L2 glue bar.

``benchmarks/bench_table3_die.py`` and
``benchmarks/bench_table1_dueling_coins.py`` merge per-row native-vs-
numpy driver timings and a per-bench geometric-mean speedup into
``benchmarks/results/BENCH_engine.json`` (keys ``native_table3`` /
``native_table1``; see ``benchmarks/_native.py`` for the measurement
protocol and why the gate is a geometric mean rather than a per-row
floor).  This checker re-derives the geometric mean from the recorded
rows -- the gate never trusts a pre-aggregated number -- and requires
every expected bench section to be present, so a silently-skipped bench
(no compiler on the runner) fails the job instead of passing vacuously.

Each row's ``glue_ratio`` (warm ``collect_auto`` time over the kernel
walk's, see ``benchmarks/_native.py``) is printed, and Table 3's
n=10000 row must keep it at or below ``MAX_GLUE_RATIO``: a regression
in the layers above the kernel fails the build as a slower kernel does.
A row without the field fails too.

Exit status: 0 when every bench clears ``--min`` and the glue row its
bar, 1 otherwise.
"""

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_RESULT = os.path.join(
    _ROOT, "benchmarks", "results", "BENCH_engine.json"
)

EXPECTED_SECTIONS = ("native_table3", "native_table1")

#: The gated glue row and its bar (the ROADMAP's L2-within-3x-of-L0).
GLUE_ROW = ("native_table3", "n=10000")
MAX_GLUE_RATIO = 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("result", nargs="?", default=DEFAULT_RESULT,
                        help="BENCH_engine.json path")
    parser.add_argument("--min", type=float, default=10.0, dest="minimum",
                        help="required geometric-mean speedup (default 10)")
    parser.add_argument("--sections", nargs="*", default=EXPECTED_SECTIONS,
                        help="record keys that must be present and pass")
    args = parser.parse_args(argv)

    try:
        with open(args.result) as handle:
            record = json.load(handle)
    except (OSError, ValueError) as err:
        print("check_native_speedup: cannot read %s: %s"
              % (args.result, err))
        return 1

    failed = False
    for section in args.sections:
        entry = record.get(section)
        rows = entry.get("rows") if isinstance(entry, dict) else None
        if not rows:
            print("check_native_speedup: %s: missing or empty (bench "
                  "skipped?)" % section)
            failed = True
            continue
        product = 1.0
        for row in rows:
            speedup = row.get("speedup")
            if not isinstance(speedup, (int, float)) or speedup <= 0:
                print("check_native_speedup: %s: malformed row %r"
                      % (section, row))
                failed = True
                break
            print("  %-14s %-12s native %10.1f/s  numpy %10.1f/s  %6.1fx"
                  "  glue %s"
                  % (section, row.get("param"),
                     row.get("native_samples_per_sec", 0.0),
                     row.get("numpy_samples_per_sec", 0.0), speedup,
                     row.get("glue_ratio")))
            product *= speedup
        else:
            geomean = product ** (1.0 / len(rows))
            verdict = geomean >= args.minimum
            print("%s: geometric mean %.2fx (bar %.1fx): %s"
                  % (section, geomean, args.minimum,
                     "PASS" if verdict else "FAIL"))
            failed = failed or not verdict
    if GLUE_ROW[0] in args.sections:
        section, param = GLUE_ROW
        entry = record.get(section)
        rows = (entry.get("rows") if isinstance(entry, dict) else None) or []
        glue = next((row.get("glue_ratio") for row in rows
                     if row.get("param") == param), None)
        glue_ok = isinstance(glue, (int, float)) \
            and 0 < glue <= MAX_GLUE_RATIO
        print("%s %s: glue ratio %s (bar %.1fx): %s"
              % (section, param, glue, MAX_GLUE_RATIO,
                 "PASS" if glue_ok else "FAIL"))
        failed = failed or not glue_ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
