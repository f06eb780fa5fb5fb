"""Spans around the library's public entry points, recorded from outside.

The traced run rebinds each entry point in :data:`ENTRY_POINTS` with a
wrapper that appends one span ``[name, start, end, parent, call, info]``
to an in-memory list.  ``parent`` is the index of the enclosing span
(-1 at top level) and ``call`` the benchmark's call id, so a layer's
self time is its span minus the spans nested directly in it.  Spans are
written out once, when the run ends; nothing inside ``src/`` changes.

Names a module imported with ``from x import name`` are bound in the
importing module too, so :meth:`Tracer.install` rebinds every loaded
``repro`` module attribute that is the original object, not only the
defining one (``repro.cli.commands.fixpoint_posterior``,
``repro.engine.tuner.static_profile``, ``repro.engine.native.kernel_for``).
"""

import importlib
import statistics
import sys
import time

#: Modules whose names the wrappers must reach, imported before install.
PRELOAD = (
    "repro.engine.api",
    "repro.engine.profile",
    "repro.engine.tuner",
    "repro.engine.driver",
    "repro.engine.native",
    "repro.engine.table",
    "repro.engine.pool",
    "repro.compiler.pipeline",
    "repro.compiler.cache",
    "repro.analysis.lint",
    "repro.inference",
    "repro.cli.commands",
)

#: (span name, module, owner attribute or None, function attribute).
ENTRY_POINTS = (
    ("collect_auto", "repro.engine.api", None, "collect_auto"),
    ("collect", "repro.engine.api", "BatchSampler", "collect"),
    ("compile_program", "repro.compiler.pipeline", None, "compile_program"),
    ("features_of", "repro.engine.profile", None, "features_of"),
    ("static_profile", "repro.engine.profile", None, "static_profile"),
    ("kernel_for", "repro.engine.native.driver", None, "kernel_for"),
    ("collect_kernel", "repro.engine.native.driver", None, "collect_kernel"),
    ("collect_numpy", "repro.engine.driver", None, "collect_numpy"),
    ("collect_python", "repro.engine.driver", None, "collect_python"),
    ("map_payloads", "repro.engine.table", "NodeTable", "map_payloads"),
    ("expand", "repro.engine.table", "NodeTable", "expand"),
    ("next_chunk", "repro.engine.pool", "BitPool", "next_chunk"),
    ("lint_program", "repro.analysis.lint", None, "lint_program"),
    ("fixpoint_posterior", "repro.inference.posterior", None,
     "fixpoint_posterior"),
    ("infer_posterior", "repro.inference.posterior", None, "infer_posterior"),
)

#: Entry points that only count (``BitPool.next_chunk`` runs per 4096
#: bits; a span each would cost more than the work it measures).
COUNTED = {"next_chunk"}

DRIVERS = ("collect_kernel", "collect_numpy", "collect_python")

#: Backends whose drivers consume the ``BitPool`` stream.
POOLED = {"native", "python", "sequential"}

_CACHE_COUNTERS = ("memory_hits", "disk_hits", "misses")


def _info_collect_auto(args, kwargs, result, _token):
    profile = result.profile
    if result.engine == "trampoline":
        ran = "trampoline"
    else:
        ran = profile.backend if profile is not None else "auto"
    return {"n": len(result.samples), "ran": ran,
            "fallback": bool(result.fallback_reason)}


def _info_collect(args, kwargs, result, _token, tracer=None):
    backend = kwargs.get("backend", "auto")
    info = {"n": len(result.values), "backend": backend}
    if backend in POOLED or kwargs.get("source") is not None:
        info["bits"] = sum(result.bits)
    tracer.tables[id(args[0].table)] = args[0].table
    return info


def _pre_compile(args, kwargs):
    from repro.compiler.cache import get_cache

    stats = get_cache().stats()
    return tuple(stats[key] for key in _CACHE_COUNTERS)


def _info_compile(args, kwargs, result, before):
    from repro.compiler.cache import get_cache

    stats = get_cache().stats()
    after = tuple(stats[key] for key in _CACHE_COUNTERS)
    outcome = "built"
    for key, old, new in zip(_CACHE_COUNTERS, before, after):
        if new > old:
            outcome = {"memory_hits": "memory", "disk_hits": "disk",
                       "misses": "built"}[key]
            break
    info = {"outcome": outcome, "rows": len(result.table)}
    if outcome == "built":
        stats = result.stats or {}
        info["stages"] = {
            "normalize": (stats.get("normalize") or {}).get("seconds", 0.0),
            "analysis": (stats.get("analysis") or {}).get("seconds", 0.0),
            "build": (stats.get("build") or {}).get("seconds", 0.0),
            "optimize": sum(record.get("seconds", 0.0)
                            for record in stats.get("optimize") or ()),
            "lower": (stats.get("lower") or {}).get("seconds", 0.0),
        }
    return info


def _info_kernel_for(args, kwargs, result, _token):
    kernel, _reason, info = result
    return {"refused": kernel is None, "tier": info.get("tier"),
            "compile_ms": info.get("compile_ms")}


def _info_driver(args, kwargs, result, _token):
    return {"n": kwargs["n"] if "n" in kwargs else args[1]}


def _info_fixpoint(args, kwargs, result, _token):
    return {"stations": result.stats.stations}


INFO = {
    "collect_auto": (None, _info_collect_auto),
    "compile_program": (_pre_compile, _info_compile),
    "kernel_for": (None, _info_kernel_for),
    "collect_kernel": (None, _info_driver),
    "collect_numpy": (None, _info_driver),
    "collect_python": (None, _info_driver),
    "fixpoint_posterior": (None, _info_fixpoint),
}


class Tracer:
    """In-memory span recorder plus the rebinding of entry points."""

    def __init__(self):
        # One list per span field, not one list per span: a traced run
        # can hold 10^5 spans, and per-span containers would slow every
        # garbage collection the measured code triggers.
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.call_ids, self.infos = [], [], []
        self.counts = {"pool_bits": 0, "pool_chunks": 0}
        self.calls = {}  # call id -> {"program", "phase"}
        self.call_id = -1
        self.tables = {}  # id -> NodeTable seen by BatchSampler.collect
        self._stack = []
        self._patched = []

    def begin_call(self, call_id, program, phase):
        """Attribute the spans that follow to one benchmark call."""
        self.call_id = call_id
        self.calls[call_id] = {"program": program, "phase": phase}

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, pre, info):
        names, starts, ends = self.names, self.starts, self.ends
        parents, call_ids, infos = self.parents, self.call_ids, self.infos
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            call_ids.append(self.call_id)
            infos.append(None)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if info is not None:
                infos[index] = info(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            value, width = fn(*args, **kwargs)
            counts["pool_chunks"] += 1
            counts["pool_bits"] += width
            return value, width

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrapper(self, name, fn):
        if name in COUNTED:
            return self._counter(fn)
        if name == "collect":
            return self._span(name, fn, None, lambda *a: _info_collect(
                *a, tracer=self))
        pre, info = INFO.get(name, (None, None))
        return self._span(name, fn, pre, info)

    def install(self):
        """Rebind every entry point (and every alias of it) to a wrapper."""
        for module in PRELOAD:
            importlib.import_module(module)
        for name, module_name, owner_name, attr in ENTRY_POINTS:
            module = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original,
                             self._wrapper(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebind(loaded, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self):
        """The JSON-ready trace: spans, counters, calls and final rows."""
        return {
            "spans": list(zip(self.names, self.starts, self.ends,
                              self.parents, self.call_ids, self.infos)),
            "counts": self.counts,
            "calls": {str(key): value for key, value in self.calls.items()},
            "rows_end": sum(len(table) for table in self.tables.values()),
        }


# -- per-layer metrics ------------------------------------------------------

def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(traces):
    """Per-layer metrics from one or more :meth:`Tracer.dump` records.

    Several records arise on ``cli``, one per traced child process; call
    ids are unique across them.  Per-call times are means, so the self
    times of the layers under one call add up to that call's time.
    """
    spans, calls = [], {}
    counts = {"pool_bits": 0, "pool_chunks": 0}
    rows_end = 0
    for trace in traces:
        offset = len(spans)
        for name, start, end, parent, call, info in trace["spans"]:
            spans.append((name, start, end,
                          parent + offset if parent >= 0 else -1,
                          call, info or {}))
        for key in counts:
            counts[key] += trace["counts"].get(key, 0)
        calls.update({int(key): value
                      for key, value in trace["calls"].items()})
        rows_end += trace["rows_end"]

    child_time = [0.0] * len(spans)
    for name, start, end, parent, _call, _info in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_ms(name):
        return 1e3 * _mean([dur(i) - child_time[i]
                            for i in by_name.get(name, ())])

    def mean_ms(name):
        return 1e3 * _mean([dur(i) for i in by_name.get(name, ())])

    def info(i):
        return spans[i][5]

    autos = by_name.get("collect_auto", [])
    m = {
        "engine.api.collect_auto.self_ms": self_ms("collect_auto"),
        "engine.api.collect.self_ms": self_ms("collect"),
        "engine.api.glue_ratio": _glue_ratio(spans, calls),
        "engine.api.fallback_rate": _mean(
            [1.0 if info(i).get("fallback") else 0.0 for i in autos]),
    }

    resolving = {spans[i][4] for i in by_name.get("features_of", ())}
    resolve_s = sum(dur(i) for name in ("features_of", "static_profile")
                    for i in by_name.get(name, ()))
    m["engine.profile.resolve_ms"] = (
        1e3 * resolve_s / len(resolving) if resolving else 0.0)
    ran = [info(i).get("ran") for i in autos]
    for backend, profile in (("native", "native"), ("numpy", "batch-numpy"),
                             ("python", "batch-python"),
                             ("trampoline", "trampoline")):
        m["engine.profile.calls." + profile] = ran.count(backend)

    compiles = [info(i) for i in by_name.get("compile_program", ())]
    built = [i for i in by_name.get("compile_program", ())
             if info(i).get("outcome") == "built"]
    hits = [dur(i) for i in by_name.get("compile_program", ())
            if info(i).get("outcome") == "memory"]
    outcomes = [entry.get("outcome") for entry in compiles]
    m["compiler.pipeline.cold_s"] = sum(dur(i) for i in built)
    for stage in ("normalize", "analysis", "build", "optimize", "lower"):
        m["compiler.pipeline.stage_s." + stage] = sum(
            info(i)["stages"][stage] for i in built)
    m["compiler.pipeline.hit_ms"] = (
        1e3 * statistics.median(hits) if hits else 0.0)
    m["compiler.cache.hit_ratio"] = (
        (len(outcomes) - outcomes.count("built")) / len(outcomes)
        if outcomes else 0.0)
    m["compiler.cache.disk_hits"] = outcomes.count("disk")
    m["compiler.cache.misses"] = outcomes.count("built")
    m["compiler.table.rows"] = sum(entry.get("rows", 0) for entry in compiles
                                   if entry.get("outcome") != "memory")

    kernels = [info(i) for i in by_name.get("kernel_for", ())]
    walks = by_name.get("collect_kernel", [])
    walk_s = sum(dur(i) - child_time[i] for i in walks)
    m["engine.native.resolve_ms"] = mean_ms("kernel_for")
    m["engine.native.cc_s"] = sum(
        (entry.get("compile_ms") or 0.0) for entry in kernels
        if entry.get("tier") == "compiled") / 1e3
    for tier in ("compiled", "memory", "disk"):
        m["engine.native.tier." + tier] = sum(
            1 for entry in kernels if entry.get("tier") == tier)
    walked = sum(info(i).get("n", 0) for i in walks)
    m["engine.native.walk_samples_per_s"] = (
        walked / walk_s if walk_s > 0 else 0.0)
    m["engine.native.refusals"] = sum(1 for entry in kernels
                                      if entry.get("refused"))

    m["engine.driver.numpy_ms"] = self_ms("collect_numpy")
    m["engine.driver.python_ms"] = self_ms("collect_python")

    m["engine.table.map_payloads_ms"] = mean_ms("map_payloads")
    m["engine.table.expand_ms"] = 1e3 * sum(
        dur(i) for i in by_name.get("expand", ()))
    m["engine.table.expansions"] = len(by_name.get("expand", ()))
    m["engine.table.rows_end"] = rows_end

    consumed = sum(info(i).get("bits", 0) for i in by_name.get("collect", ()))
    m["engine.pool.bit_yield"] = (
        consumed / counts["pool_bits"] if counts["pool_bits"] else 0.0)

    m["analysis.lint_ms"] = mean_ms("lint_program")
    m["inference.fixpoint_ms"] = mean_ms("fixpoint_posterior")
    m["inference.fixpoint_stations"] = _mean(
        [info(i).get("stations", 0)
         for i in by_name.get("fixpoint_posterior", ())])
    m["inference.paths_ms"] = mean_ms("infer_posterior")
    return m, _program_rows(spans, calls), {
        name: len(indices) for name, indices in by_name.items()
    } | {"next_chunk": counts["pool_chunks"]}


def _per_program(spans, calls):
    """(program, cache state) -> layer -> [samples, seconds, backends],
    over the calls after set-up."""
    ran = {call: info.get("ran") for name, _s, _e, parent, call, info
           in spans if name == "collect_auto" and parent < 0}
    table = {}
    for name, start, end, parent, call, info in spans:
        meta = calls.get(call)
        if meta is None or meta["phase"] == "setup":
            continue
        layer = {"collect_auto": "L2", "collect": "L1"}.get(
            name, "L0" if name in DRIVERS else None)
        if layer is None:
            continue
        state = "warm" if meta["phase"] == "timed" else meta["phase"]
        row = table.setdefault((meta["program"], state), {}).setdefault(
            layer, [0, 0.0, set()])
        row[0] += info.get("n", 0)
        row[1] += end - start
        row[2].add(ran.get(call) or "?")
    return table


def _glue_ratio(spans, calls):
    """The largest L2 / L0 seconds ratio over the programs of the mix."""
    ratios = [layers["L2"][1] / layers["L0"][1]
              for layers in _per_program(spans, calls).values()
              if "L2" in layers and layers.get("L0", [0, 0.0])[1] > 0]
    return max(ratios) if ratios else 0.0


def _program_rows(spans, calls):
    rows = []
    for (program, state), layers in sorted(_per_program(spans, calls).items()):
        for layer, (samples, seconds, backends) in sorted(layers.items()):
            rows.append(program_row(program, layer, "+".join(sorted(backends)),
                                    state, samples, seconds))
    return rows


def program_row(program, layer, backend, cache_state, samples, seconds):
    """One program's numbers at one layer (the workload is added later)."""
    return {"program": program, "layer": layer, "backend": backend,
            "cache_state": cache_state, "samples": samples,
            "seconds": seconds,
            "samples_per_sec": samples / seconds if seconds > 0 else 0.0}
