"""One in-process workload run, in a fresh process (run by ``run.py``).

    python3 perfbench/inproc.py WORKLOAD SEED SECONDS TRACE OUT [--setup-only]

Set-up is round 0 of the call list: importing ``repro`` and the first
call of every program.  When it is done the process prints ``ready``
on stdout; the parent times process start to that line.  A
``--setup-only`` process exits there.  Otherwise the timed rounds run,
each call checked outside its timing, and the result goes to ``OUT``
as JSON.
"""

import json
import os
import sys
import time
from collections import Counter

import workloads
from checks import pooled_check


def main(argv):
    workload, seed, seconds, trace, out = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    _kind, _mix, profile_name, _cost = workloads.WORKLOADS[workload]
    calls = workloads.call_list(workload, int(seed), float(seconds))

    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.engine import api
    from repro.engine.profile import PROFILES

    profile = PROFILES[profile_name] if profile_name else None
    programs = {name: workloads.build(name) for _r, name, _n, _s in calls}
    references = {name: workloads.reference(name) for name in programs}

    counts = {name: Counter() for name in programs}
    timed, failures, ran = [], [], Counter()
    samples = bits = 0
    last_setup = max(i for i, call in enumerate(calls) if call[0] == 0)
    for index, (number, name, n, call_seed) in enumerate(calls):
        if setup_only and number > 0:
            break
        command, extract = programs[name]
        if tracer is not None:
            tracer.begin_call(index, name, "setup" if number == 0 else "timed")
        start = time.perf_counter()
        try:
            result = api.collect_auto(command, n, seed=call_seed,
                                      extract=extract, profile=profile)
        except Exception as err:  # a failed call is counted, not fatal
            result = err
        elapsed = time.perf_counter() - start
        if index == last_setup:
            print("ready", flush=True)
        if isinstance(result, Exception):
            failures.append("%s call %d: %s: %s"
                            % (name, index, type(result).__name__, result))
            continue
        values = result.samples.values
        pooled = counts[name]
        known = len(pooled)
        # One long-lived Counter per program: a per-call Counter would
        # allocate inside the run and shift the library's GC pauses.
        pooled.update(values)
        _pmf, _other, in_support = references[name]
        problem = None
        if len(values) != n:
            problem = "returned %d of %d samples" % (len(values), n)
        elif len(pooled) != known and not all(map(in_support, pooled)):
            problem = "value outside the support: %r" % (
                [value for value in pooled if not in_support(value)][:3],)
        elif profile is not None and result.fallback_reason:
            problem = "fell back: %s" % result.fallback_reason
        ran[result.profile.name if result.profile else result.engine] += 1
        if problem is not None:
            failures.append("%s call %d: %s" % (name, index, problem))
            continue
        samples += n
        bits += sum(result.samples.bits)
        if number > 0:
            timed.append((number, name, n, elapsed))

    result = {"attempted": last_setup + 1 if setup_only else len(calls),
              "failures": failures}
    if not setup_only:
        checks = []
        for name, observed in sorted(counts.items()):
            pmf, other_hi, _in_support = references[name]
            checks += pooled_check(name, observed, pmf, other_hi)
        result.update(checks=checks, timed=timed, samples=samples, bits=bits,
                      profiles=dict(ran), environment=environment())
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
    with open(out, "w") as handle:
        json.dump(result, handle)
    return 0


def environment():
    """What the numbers depend on besides the code."""
    import importlib
    import platform

    from repro.engine.native import compiler_fingerprint, native_available

    versions = {}
    for name in ("numpy", "cffi"):  # both optional to the library
        try:
            versions[name] = importlib.import_module(name).__version__
        except ImportError:
            versions[name] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "cffi": versions["cffi"],
        "compiler_fingerprint": compiler_fingerprint(),
        "native_available": native_available(),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
