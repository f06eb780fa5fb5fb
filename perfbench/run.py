"""The benchmark: four workloads from the kernel to the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  ``NAME`` is a workload of
``workloads.py``, or ``all`` for those listed in ``BENCHMARK.json``
(``closed-calls``, ``closed-bulk``, ``cli``; ``open-fresh`` is left
out of the list, see ``README.md``).  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``.  The lines above it print every metric with
its unit, and every run writes its full record under
``.bench_build/perfbench/results/``.

This process only orchestrates.  It starts one child at a time, waits
for each, and starts no threads.  Every child gets fresh kernel-store,
artifact-store and temporary directories under ``.bench_build``, and
none of the caller's ``ZAR_*`` variables (so no tuner state and no
telemetry).  Only ``cli`` sets ``ZAR_COMPILE_CACHE_DIR``: the store
serves across processes, and setting it would make ``engine="auto"``
consult the tuner, which ``open-fresh`` measures without.

``--trace 1`` runs the workload twice, untraced and then traced with
the wrappers of ``tracing.py``, reports the per-layer metrics of the
traced run and the overhead between the two.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads
from checks import pooled_check
from tracing import layer_metrics, program_row

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-ups per run; ``setup_s`` is their median.  A ``cli`` set-up is a
#: cold pass of 11 CLI processes (~10 s), so ``cli`` makes two.
SETUP_RUNS = 3
CLI_PASSES = 2

#: Trace guard: entry points each workload must reach.
MUST_REACH = {
    "closed-calls": ("collect_auto", "collect", "compile_program",
                     "kernel_for", "collect_kernel", "map_payloads",
                     "next_chunk"),
    "open-fresh": ("collect_auto", "collect", "compile_program",
                   "features_of", "static_profile", "collect_numpy",
                   "map_payloads", "expand"),
    "cli": ("collect_auto", "collect", "compile_program", "features_of",
            "static_profile", "kernel_for", "collect_kernel",
            "map_payloads", "expand", "next_chunk", "lint_program",
            "fixpoint_posterior", "infer_posterior"),
}
MUST_REACH["closed-bulk"] = MUST_REACH["closed-calls"]


class Child:
    """One finished child process: exit code, output, wall, peak RSS."""

    def __init__(self, cmd, root, env, on_line=None):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        try:
            lines = []
            for line in proc.stdout:
                lines.append(line)
                if on_line is not None:
                    on_line(line, time.perf_counter() - start)
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.seconds = time.perf_counter() - start
        self.code = proc.returncode
        self.output = "".join(lines)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def child_env(root, state, store=False):
    """The environment of a child: fresh state dirs, no ``ZAR_*``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("ZAR_")}
    path = os.path.join(root, "src")
    if env.get("PYTHONPATH"):
        path += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = path
    env["ZAR_NATIVE_CACHE_DIR"] = os.path.join(state, "kernels")
    env["TMPDIR"] = os.path.join(state, "tmp")
    if store:
        env["ZAR_COMPILE_CACHE_DIR"] = os.path.join(state, "store")
    for name in ("kernels", "tmp"):
        os.makedirs(os.path.join(state, name), exist_ok=True)
    return env


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- latency statistics -------------------------------------------------------

def p50(values):
    """Upper median: with an even count of calls from a round-robin mix
    it lands inside a cluster of one program's calls, not between two."""
    return statistics.median_high(values)


#: Calls per window of the tail estimate (see :func:`tail`).
TAIL_WINDOW = 220


def tail(values):
    """``(value, percentile, windows)``: the highest percentile with at
    least 10 calls beyond it (the maximum when there are 10 calls or
    fewer).

    With ``2 * TAIL_WINDOW`` calls or more, ``values`` (in call order)
    is cut into windows of ``TAIL_WINDOW`` consecutive calls and the
    lowest window tail is returned, as timing tools keep the best of
    several repeats: over thousands of calls the 11th slowest is
    whichever call a stall of the shared host hit."""
    size = len(values) if len(values) < 2 * TAIL_WINDOW else TAIL_WINDOW
    tails = []
    for start in range(0, len(values) - size + 1, size):
        ordered = sorted(values[start:start + size])
        tails.append(ordered[-1] if size <= 10 else ordered[size - 11])
    percentile = 100.0 if size <= 10 else 100.0 * (size - 10) / size
    return min(tails), percentile, len(tails)


def typical_rate(calls):
    """Samples per second with each call at its program's 10th-percentile
    call time.

    ``calls`` holds ``(round, program, samples, seconds)``; each program
    contributes its call count times its median samples and its low call
    time.  The shared host slows whole stretches of a run by up to ~1.5x;
    a low percentile reads the code's own speed through that, and a
    program's median sample count is its per-call size."""
    by_program = {}
    for _round, program, samples, seconds in calls:
        by_program.setdefault(program, []).append((samples, seconds))
    samples = seconds = 0.0
    for entries in by_program.values():
        times = sorted(s for _, s in entries)
        samples += len(entries) * statistics.median(n for n, _ in entries)
        seconds += len(entries) * times[(len(times) - 1) // 10]
    return samples / seconds if seconds > 0 else 0.0


# -- in-process workloads -----------------------------------------------------

def inproc_child(root, workload, seed, seconds, state, traced=False,
                 setup_only=False):
    """One ``inproc.py`` child: its result record plus ``setup_s``
    (process start to its ``ready`` line) and its peak RSS."""
    out = os.path.join(state, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "inproc.py"), workload,
           str(seed), str(seconds), "1" if traced else "0", out]
    if setup_only:
        cmd.append("--setup-only")
    ready = []

    def on_line(line, elapsed):
        if line.strip() == "ready" and not ready:
            ready.append(elapsed)

    child = Child(cmd, root, child_env(root, state), on_line)
    try:
        with open(out) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = {"attempted": 1, "failures": [
            "child exited %d without a result:\n%s"
            % (child.code, child.output[-2000:])]}
    if child.code != 0 and not record["failures"]:
        record["failures"].append("child exited %d" % child.code)
    record["setup_s"] = ready[0] if ready else None
    record["peak_rss_mb"] = child.peak_rss_mb
    return record


def measure_inproc(root, workload, seed, seconds, state_root, setups,
                   traced):
    """The measuring child, then ``setups - 1`` set-up-only children."""
    runs = [inproc_child(root, workload, seed, seconds,
                         fresh_dir(os.path.join(state_root, "measure")),
                         traced=traced)]
    for index in range(1, setups):
        runs.append(inproc_child(
            root, workload, seed, seconds,
            fresh_dir(os.path.join(state_root, "setup%d" % index)),
            setup_only=True))
    main = runs[0]
    failures = [failure for run in runs for failure in run["failures"]]
    return {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": len(failures),
        "failures": failures,
        "checks": main.get("checks", []),
        "setups": [run["setup_s"] for run in runs
                   if run["setup_s"] is not None],
        "latencies": [call[3] for call in main.get("timed", [])],
        "calls": main.get("timed", []),
        "samples": main.get("samples", 0),
        "bits": main.get("bits", 0),
        "peak_rss_mb": main["peak_rss_mb"],
        "profiles": main.get("profiles", {}),
        "environment": main.get("environment", {}),
        "trace": main.get("trace"),
    }


# -- cli ----------------------------------------------------------------------

_OUTCOME = re.compile(r"^  (\S.*?)\s+(\d+)  \(")
_BOUND = re.compile(r"^P\((.*)\) in \[([^,]+), ([^\]]+)\]")
_FIELD = re.compile(r"(\w+)=([^,)]+)")

#: The variable each ``cli`` program's reference is over.
CLI_VAR = {"die6": "x", "dueling": "a", "geometric": "h",
           "hare_tortoise": "time"}


def project(program, state_text):
    """The reference variable of a printed ``State(...)`` (absent = 0)."""
    raw = dict(_FIELD.findall(state_text)).get(CLI_VAR[program], "0")
    if raw in ("True", "False"):
        return raw == "True"
    return int(raw)


def check_cli_call(program, argv, code, output, references, counts):
    """``None`` when the call's output is right, else the reason."""
    command, path = argv[0], os.path.basename(argv[1])
    expected = workloads.CLI_EXIT.get((command, path), 0)
    if code != expected:
        return "exit %d, expected %d: %s" % (code, expected, output[-500:])
    pmf, _other, in_support = references[program]
    if command == "sample":
        n = int(argv[argv.index("-n") + 1])
        match = re.search(r"^samples:\s+(\d+)", output, re.M)
        if match is None or int(match.group(1)) != n:
            return "did not report %d samples" % n
        body = output.split("top outcomes:", 1)[-1].splitlines()
        observed = Counter()
        for line in body:
            outcome = _OUTCOME.match(line)
            if outcome:
                observed[project(program, outcome.group(1))] += int(
                    outcome.group(2))
        if sum(observed.values()) != n:
            return "outcome counts add up to %d, not %d" % (
                sum(observed.values()), n)
        bad = [value for value in observed if not in_support(value)]
        if bad:
            return "value outside the support: %r" % bad[:3]
        counts[program].update(observed)
    elif command in ("bounds", "infer"):
        for line in output.splitlines():
            bound = _BOUND.match(line)
            if not bound:
                continue
            value = project(program, bound.group(1))
            lo, hi = float(bound.group(2)), float(bound.group(3))
            truth = pmf.get(value, (0.0, 0.0))[0]
            slack = 1e-5 * truth + 1e-9  # six printed digits
            if not lo - slack <= truth <= hi + slack:
                return "P(%s=%r) = %.6g outside [%g, %g]" % (
                    CLI_VAR[program], value, truth, lo, hi)
    elif command == "lint" and expected == 1 and "ZAR001" not in output:
        return "expected a ZAR001 diagnostic"
    return None


def cli_calls(root, seed, seconds, passes, state_root, traced=False):
    """Run the ``cli`` call lists; returns ``(records, pass seconds)``.

    Each pass runs the mix against its own empty store; the warm
    ``sample`` rounds follow the first pass, against its store.
    """
    cold, warm = workloads.cli_call_list(seed, seconds, passes)
    records, pass_seconds = [], []
    for number, mix in enumerate(cold):
        state = fresh_dir(os.path.join(state_root, "pass%d" % number))
        env = child_env(root, state, store=True)
        start = time.perf_counter()
        for program, argv in mix:
            records.append(_cli_call(root, env, state, program, argv, "cold",
                                     traced, len(records)))
        pass_seconds.append(time.perf_counter() - start)
        if number == 0:
            for warm_round, mix in enumerate(warm, 1):
                for program, argv in mix:
                    records.append(_cli_call(root, env, state, program, argv,
                                             "warm", traced, len(records)))
                    records[-1]["round"] = warm_round
    return records, pass_seconds


def _cli_call(root, env, state, program, argv, phase, traced, call_id):
    if traced:
        trace_out = os.path.join(state, "trace%d.json" % call_id)
        cmd = [sys.executable, os.path.join(HERE, "cli_entry.py"), trace_out,
               str(call_id), program, phase] + argv
    else:
        trace_out = None
        cmd = [sys.executable, "-m", "repro"] + argv
    child = Child(cmd, root, env)
    record = {"program": program, "argv": argv, "phase": phase,
              "code": child.code, "output": child.output,
              "seconds": child.seconds, "peak_rss_mb": child.peak_rss_mb}
    if trace_out is not None:
        try:
            with open(trace_out) as handle:
                record["trace"] = json.load(handle)
        except (OSError, ValueError):
            record["trace"] = None
    return record


def measure_cli(root, seed, seconds, state_root, passes, traced):
    references = {name: workloads.reference(name) for name in CLI_VAR}
    counts = {name: Counter() for name in CLI_VAR}
    records, pass_seconds = cli_calls(root, seed, seconds, passes,
                                      state_root, traced)
    failures, samples, bits, warm = [], 0, 0.0, []
    for record in records:
        argv = record["argv"]
        problem = check_cli_call(record["program"], argv, record["code"],
                                 record["output"], references, counts)
        record["ok"] = problem is None
        if problem is not None:
            failures.append("%s: %s" % (" ".join(argv[:2]), problem))
            continue
        if argv[0] != "sample":
            continue
        n = int(argv[argv.index("-n") + 1])
        mean_bits = re.search(r"^mean bits: ([\d.]+)", record["output"], re.M)
        samples += n
        bits += n * float(mean_bits.group(1))
        if record["phase"] == "warm" and n >= workloads.CLI_BULK:
            warm.append((record["round"], record["program"], n,
                         record["seconds"]))
    checks = []
    for name, observed in sorted(counts.items()):
        pmf, other_hi, _in_support = references[name]
        checks += pooled_check(name, observed, pmf, other_hi)
    profiles = Counter()
    for record in records:
        match = re.search(r"^profile:\s+(\S+)", record["output"], re.M)
        if match:
            profiles[match.group(1)] += 1
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "checks": checks,
        "setups": pass_seconds,
        "latencies": [record["seconds"] for record in records],
        "calls": warm,
        "samples": samples,
        "bits": bits,
        "peak_rss_mb": max(record["peak_rss_mb"] for record in records),
        "profiles": dict(profiles),
        "records": records,
    }


# -- metrics ------------------------------------------------------------------

def end_to_end(summary):
    latency_ms = [1e3 * value for value in summary["latencies"]]
    tail_ms, tail_pct, windows = tail(latency_ms) if latency_ms \
        else (0.0, 0.0, 0)
    values = {
        "setup_s": statistics.median(summary["setups"])
        if summary["setups"] else 0.0,
        "samples_per_s": typical_rate(summary["calls"]),
        "latency_p50_ms": p50(latency_ms) if latency_ms else 0.0,
        "latency_tail_ms": tail_ms,
        "bits_per_sample": summary["bits"] / summary["samples"]
        if summary["samples"] else 0.0,
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    notes = {
        "setup_s": "median of %d set-ups: %s" % (
            len(summary["setups"]),
            ", ".join("%.3f" % value for value in summary["setups"])),
        "latency_p50_ms": "%d calls" % len(latency_ms),
        "latency_tail_ms": "p%.1f of %d calls%s" % (
            tail_pct, len(latency_ms),
            ", lowest of %d windows" % windows if windows > 1 else ""),
    }
    return values, notes


def measure(root, workload, seed, seconds, state_root, setups=SETUP_RUNS,
            traced=False):
    if workloads.WORKLOADS[workload][0] == "cli":
        return measure_cli(root, seed, seconds, state_root,
                           min(setups, CLI_PASSES), traced)
    return measure_inproc(root, workload, seed, seconds, state_root, setups,
                          traced)


def per_layer(root, workload, seed, seconds, state_root):
    """Untraced then traced run; per-layer metrics and their record."""
    plain = measure(root, workload, seed, seconds,
                    fresh_dir(os.path.join(state_root, "plain")), setups=1)
    traced = measure(root, workload, seed, seconds,
                     fresh_dir(os.path.join(state_root, "traced")), setups=1,
                     traced=True)
    if workload == "cli":
        traces = [record.get("trace") for record in traced["records"]]
    else:
        traces = [traced.get("trace")]
    problems = []
    if any(trace is None for trace in traces):
        problems.append("a traced child wrote no trace")
    traces = [trace for trace in traces if trace is not None]
    metrics, rows, reached = layer_metrics(traces)
    for name in MUST_REACH[workload]:
        if not reached.get(name):
            problems.append("trace guard: %s recorded no calls" % name)
    plain_values, _ = end_to_end(plain)
    traced_values, _ = end_to_end(traced)
    metrics["trace.overhead_pct"] = 100.0 * (
        traced_values["latency_p50_ms"] / plain_values["latency_p50_ms"] - 1
    ) if plain_values["latency_p50_ms"] else 0.0
    metrics["trace.overhead_pct.samples_per_s"] = 100.0 * (
        plain_values["samples_per_s"] / traced_values["samples_per_s"] - 1
    ) if traced_values["samples_per_s"] else 0.0
    if workload == "cli":
        metrics.update(cli_layer(root, plain, state_root))
        rows += cli_rows(plain["records"])
    for row in rows:
        row["workload"] = workload
    summary = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
        "checks": plain["checks"] + traced["checks"] + problems,
        "rows": rows,
        "reached": reached,
    }
    return metrics, summary


def cli_layer(root, plain, state_root):
    """The ``cli.*`` metrics: the interpreter floor, ``import repro``
    above it, and the median wall time per subcommand (untraced)."""
    env = child_env(root, fresh_dir(os.path.join(state_root, "floor")))
    floor = statistics.median(
        Child([sys.executable, "-c", "pass"], root, env).seconds
        for _ in range(SETUP_RUNS))
    imports = statistics.median(
        Child([sys.executable, "-c", "import repro"], root, env).seconds
        for _ in range(SETUP_RUNS))
    metrics = {"cli.interpreter_s": floor, "cli.import_s": imports - floor}
    for command in ("sample", "lint", "bounds", "infer", "compile"):
        walls = [1e3 * record["seconds"] for record in plain["records"]
                 if record["argv"][0] == command]
        metrics["cli.%s_ms" % command] = statistics.median(walls) \
            if walls else 0.0
    return metrics


def cli_rows(records):
    """L3 rows: ``sample`` child processes per program and store state."""
    totals = {}
    for record in records:
        if record["argv"][0] != "sample" or not record["ok"]:
            continue
        profile = re.search(r"^profile:\s+(\S+)", record["output"], re.M)
        entry = totals.setdefault((record["program"], record["phase"]),
                                  [0, 0.0, set()])
        entry[0] += int(record["argv"][record["argv"].index("-n") + 1])
        entry[1] += record["seconds"]
        entry[2].add(profile.group(1) if profile else "?")
    return [program_row(program, "L3", "+".join(sorted(backends)), state,
                        samples, seconds)
            for (program, state), (samples, seconds, backends)
            in sorted(totals.items())]


# -- driver -------------------------------------------------------------------

def check_checkout(root):
    """Refuse to run outside a full checkout (exit 2, no result line)."""
    missing = [path for path in (
        os.path.join("src", "repro", "__init__.py"),
        workloads.PROGRAMS_DIR,
        workloads.ORACLE,
        "BENCHMARK.json",
    ) if not os.path.exists(os.path.join(root, path))]
    if missing:
        sys.stderr.write("perfbench: not a checkout of the repository "
                         "(missing %s)\n" % ", ".join(missing))
        sys.exit(2)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_one(root, spec, workload, seed, seconds, trace):
    state_root = fresh_dir(os.path.join(
        root, ".bench_build", "perfbench", "state", workload))
    try:
        if trace:
            values, summary = per_layer(root, workload, seed, seconds,
                                        state_root)
            notes = {}
            declared = spec["per_layer"]
        else:
            summary = measure(root, workload, seed, seconds, state_root)
            values, notes = end_to_end(summary)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    failed = summary["failed"]
    attempted = summary["attempted"]
    correct = failed == 0 and not summary["checks"]
    metrics = {entry["name"]: {"value": float(values.get(entry["name"], 0.0)),
                               "unit": entry["unit"]}
               for entry in declared}

    print("workload %s  seed %d  seconds %g  trace %d"
          % (workload, seed, seconds, trace))
    for name, metric in metrics.items():
        print("  %-40s %14.6g %-6s %s" % (name, metric["value"],
                                         metric["unit"], notes.get(name, "")))
    print("  %-40s %14.6g %-6s %d of %d calls failed"
          % ("error_rate", failed / attempted if attempted else 0.0,
             "ratio", failed, attempted))
    if summary.get("profiles"):
        print("  profiles ran: %s" % ", ".join(
            "%s x%d" % item for item in sorted(summary["profiles"].items())))
    if summary.get("environment"):
        print("  environment: %s" % ", ".join(
            "%s=%s" % item for item in sorted(
                summary["environment"].items())))
    for problem in summary["failures"] + summary["checks"]:
        print("  FAILED: %s" % problem.splitlines()[0])

    results = os.path.join(root, ".bench_build", "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    summary = dict(summary, workload=workload, seed=seed, seconds=seconds,
                   trace=trace, metrics=metrics)
    summary.pop("records", None)
    summary.pop("trace", None)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as handle:
        json.dump(summary, handle, indent=1, default=str)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    spec = check_checkout(root)
    # The cli checks read references from the library (never sampling).
    sys.path.insert(0, os.path.join(root, "src"))
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (valid: all, %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    selected = names if args.workload == "all" else [args.workload]
    results = [run_one(root, spec, name, args.seed, args.seconds, args.trace)
               for name in selected]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": {"%s.%s" % (name, metric): value
                        for name, result in zip(selected, results)
                        for metric, value in result["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
