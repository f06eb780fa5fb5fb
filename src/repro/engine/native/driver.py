"""Drive a compiled native kernel off the pooled bit stream.

Bit-stream preservation is the whole contract: :func:`collect_kernel`
feeds the kernel the *exact* stream a ``BitPool(seed)`` produces --
whole 4096-bit ``getrandbits`` chunks, serialized little-endian so bit
``j`` of a chunk is bit ``j & 7`` of byte ``j >> 3``, chunks
concatenated in draw order.  The kernel consumes that buffer strictly
in order and parks mid-sample state across refills, so the sequence of
(payload index, bits used) pairs is identical to ``collect_python`` and
to the one-sample walker (``run_table`` over ``BitPool(seed)``) on the
same seed.  Leftover bits at the end of the last buffer are discarded, as
every pooled backend discards its pool.

:func:`kernel_for` is the table-to-kernel resolver the engine seams
call: it gates on availability, attempts a *bounded* closure of open
tables (expansion slices stop as soon as the pending-stub count fails
to shrink -- a geometric loop's frontier never shrinks, a shrinking
range die's always does), encodes, and resolves through the kernel
cache, once per table version.  Every refusal returns a
human-readable reason; the caller prefixes it with
``native-unavailable`` in ``CollectResult.fallback_reason``.
"""

from array import array
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.engine.native import kernel as _kernel
from repro.engine.native.codegen import (
    FRESH_STATE,
    KernelUnsupported,
    encode_table,
)
from repro.engine.pool import BitPool

__all__ = [
    "BoundKernel",
    "collect_kernel",
    "kernel_for",
    "kernel_status",
]


class BoundKernel(NamedTuple):
    """A cached kernel bound to one table's payload numbering.

    The ``.so`` is digest-keyed over the *canonical* encoding, so one
    compiled kernel serves every physical layout of the same reachable
    DAG; what differs per table is only ``payload_map`` (canonical leaf
    code -> this table's payload index), which the kernel reads at call
    time.
    """

    kernel: object  # NativeKernel
    payload_map: object  # array("i"): canonical code -> payload index

#: Expansion slice for the bounded closure attempt; bail as soon as one
#: slice fails to shrink the pending-stub count.
_EXPAND_SLICE = 2048

#: Total stub expansions one closure attempt may spend.
_EXPAND_BUDGET = 65536

#: Hard ceiling on encoded bit rows: beyond this the generated TU gets
#: slow to compile and the cache entry large; the python/numpy backends
#: handle it fine.
_MAX_ROWS = 200_000

#: Chunks per kernel call: the first buffer is small (tiny collects
#: stay cheap), later buffers are sized from the observed bits-per-
#: sample rate so the pool never generates far more bits than the run
#: consumes (generation is the main Python-side cost).
_CHUNKS_MIN = 8
_CHUNKS_MAX = 4096


def _try_close(table) -> Optional[str]:
    """Try to close ``table``; return the refusal reason or ``None``.

    The attempt is sticky per (table, pending count): once a closure
    attempt bails, it is not repeated until the pending count has
    changed (e.g. other drivers expanded further) -- repeated native
    requests against a diverging loop must not expand it forever.
    """
    if not table.pending_stubs:
        return None
    refused = getattr(table, "_zar_native_refused", None)
    if refused is not None and refused == table.pending_stubs:
        return (
            "open table (%d loop-state stubs pending; closure attempt "
            "already bailed)" % table.pending_stubs
        )
    spent = 0
    while table.pending_stubs:
        if spent >= _EXPAND_BUDGET:
            break
        before = table.pending_stubs
        if table.expand_all(limit=min(_EXPAND_SLICE, _EXPAND_BUDGET - spent)):
            return None
        spent += _EXPAND_SLICE
        if table.pending_stubs >= before:
            break  # frontier not shrinking: a diverging loop-state space
    table._zar_native_refused = table.pending_stubs
    return (
        "open table (%d loop-state stubs pending after bounded "
        "expansion)" % table.pending_stubs
    )


def kernel_for(table) -> Tuple[Optional[object], Optional[str],
                               Dict[str, object]]:
    """Resolve ``table`` to ``(kernel, reason, info)``.

    ``kernel`` is ``None`` iff the table cannot run natively, with the
    reason in ``reason``.  ``info`` always carries whatever is known
    (digest/tier/compile_ms when a kernel was resolved).

    The outcome -- bound kernel or refusal -- is remembered on the table
    per ``(table.version, kernel runtime generation)``, so a repeat call
    on an unchanged table skips the encoding, its digest and the payload
    map, and reports tier ``memory`` as a memory-cache hit does.  The
    environment gates run before that lookup, on every call: disabling
    the backend or losing the compiler refuses a table already bound.
    """
    info: Dict[str, object] = {"tier": None, "compile_ms": None}
    if _kernel.native_disabled():
        return None, "disabled via ZAR_NATIVE_DISABLE", info
    if _kernel.find_compiler() is None:
        return None, "no C compiler on PATH (set ZAR_NATIVE_CC)", info
    memo = getattr(table, "_zar_native_bound", None)
    if memo is not None and memo[0] == (table.version, _kernel._GENERATION):
        return memo[1], memo[2], dict(memo[3])
    kernel, reason, info = _resolve(table, info)
    # Keyed after resolving: the closure attempt may have expanded it.
    table._zar_native_bound = (
        (table.version, _kernel._GENERATION), kernel, reason,
        info if kernel is None else dict(info, tier="memory",
                                         compile_ms=None),
    )
    return kernel, reason, info


def _resolve(table, info):
    """Close, encode, size-check and build: ``kernel_for`` uncached."""
    reason = _try_close(table)
    if reason is not None:
        return None, reason, info
    try:
        encoded = encode_table(table)
    except KernelUnsupported as err:
        return None, str(err), info
    if len(encoded.a) > _MAX_ROWS:
        return None, (
            "table too large (%d bit rows > cap %d)"
            % (len(encoded.a), _MAX_ROWS)
        ), info
    try:
        kernel, info = _kernel.build_kernel(encoded)
    except _kernel.KernelCompileError as err:
        return None, "kernel compile failed: %s" % err, info
    except (_kernel.KernelCacheError, OSError) as err:
        # An unloadable fresh object (e.g. a noexec temp dir) or an
        # unwritable/full kernel store.
        return None, "kernel load failed: %s" % err, info
    return BoundKernel(kernel, array("i", encoded.payload_map)), None, info


def kernel_status(table) -> str:
    """One-line kernel-cache state for the ``zar compile`` stage report."""
    kernel, reason, info = kernel_for(table)
    if kernel is None:
        return "unavailable (%s)" % reason
    digest = str(info.get("digest", ""))[:12]
    steps = "%d-bit steps" % kernel.kernel.step_bits
    if info.get("tier") == "compiled":
        return "compiled (%.1f ms, key %s, %s)" % (
            info.get("compile_ms") or 0.0, digest, steps,
        )
    return "cached (%s, key %s, %s)" % (info.get("tier"), digest, steps)


def collect_kernel(
    bound: BoundKernel,
    n: int,
    seed: Optional[int] = None,
    tied: bool = True,
) -> Tuple[List[int], List[int]]:
    """Draw ``n`` samples; returns ``(payload indices, bits per sample)``.

    The pooled-backend contract of :func:`repro.engine.driver.
    collect_python`, bit-for-bit: same pool, same chunk order, same
    restart semantics.
    """
    kernel, payload_map = bound.kernel, bound.payload_map
    pool = BitPool(seed)
    out_idx = array("q", (0,)) * n
    out_bits = array("q", (0,)) * n
    state = array("q", [FRESH_STATE, 0])
    done = 0
    fed = 0  # bits handed to the kernel so far (tail slack included)
    while done < n:
        if done:
            # Size the next buffer from the observed consumption rate,
            # with 25% headroom plus one chunk of slack.
            needed = (fed * (n - done)) // done + (fed * (n - done)) // (
                4 * done) + 4096
            chunks = max(1, min(_CHUNKS_MAX, needed // 4096 + 1))
        else:
            chunks = _CHUNKS_MIN
        parts = []
        for _ in range(chunks):
            value, width = pool.next_chunk()
            parts.append(value.to_bytes(width // 8, "little"))
        buffer = b"".join(parts)
        fed += len(buffer) * 8
        done = kernel.collect_call(
            buffer, len(buffer) * 8, done, n, out_idx, out_bits, state,
            payload_map, tied
        )
    return out_idx.tolist(), out_bits.tolist()
