"""Drivers walking a :class:`~repro.engine.table.NodeTable`.

Three tiers, fastest first:

- :func:`collect_numpy` -- vectorized batch: all in-flight samples (the
  "lanes") advance in lock-step over numpy views of the table, one fair
  bit per lane per ``OP_BIT`` step.  Lanes draw independent bit streams,
  so the *sequence* differs from the sequential drivers, but each lane
  sees i.i.d. fair bits and the per-sample bit accounting is exact.
- :func:`collect_python` -- pure-Python batch over a pooled bit buffer:
  the ``"python"`` backend, the native backend's fallback, and the only
  backend an explicit ``BitSource`` runs on (through a one-bit
  :class:`~repro.engine.pool.SourcePool`).  Bit-for-bit identical to
  :func:`run_table` on the same stream.
- :func:`run_table` -- one sample against an arbitrary ``BitSource``.
  Consumes exactly the bits the reference trampoline
  (:func:`repro.sampler.run.run_itree`) would consume on the tied ITree
  of the same tree -- including raising ``BitsExhausted`` at the same
  prefix position -- which is what the differential tests check.

``max_steps`` bounds node visits per sample (the engine's analogue of
the trampoline's fuel; the exact step counts differ because the table
has no ``Tau`` nodes).  Metered :func:`collect_python` runs step
:func:`run_table`'s walker once per sample.
"""

from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.bits.source import BitSource
from repro.engine import pool as _pool
from repro.engine.table import (
    ENGINE_FAIL,
    NodeTable,
    OP_BIT,
    OP_CALL,
    OP_FAIL,
    OP_JMP,
    OP_LEAF,
    OP_STUB,
)
from repro.sampler.run import FuelExhausted


@contextmanager
def _gc_guard():
    """Shield batch sampling from generational GC rescans.

    A warm open table pins hundreds of thousands of rows, states, and
    memo entries; every gen-2 collection walks all of them, which can
    triple batch latency.  ``gc.freeze`` parks the current heap in the
    permanent generation for the duration of the batch -- cycles among
    *new* objects are still collected -- and ``gc.unfreeze`` restores
    normal behavior afterwards.
    """
    import gc

    if not gc.isenabled():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_table(
    table: NodeTable,
    source: BitSource,
    max_steps: Optional[int] = None,
    tied: bool = True,
) -> object:
    """Draw one sample from ``table`` against ``source``."""
    index = _step_indices(table, source, max_steps, tied)
    if index < 0:
        return ENGINE_FAIL
    return table.payloads[index]


def _step_indices(
    table: NodeTable,
    source: BitSource,
    max_steps: Optional[int],
    tied: bool,
) -> int:
    """Walk to a leaf; return its payload index (or -1 for open failure)."""
    op, a, b, payload = table.op, table.a, table.b, table.payload
    root = table.root
    i = root
    steps = 0
    # Frame-separated loop calls: OP_CALL pushes its record id, a leaf
    # with a non-empty stack is a subroutine exit, and a tied failure
    # restarts the *whole* sample, unwinding every frame.  Calls and
    # returns consume no bits.
    stack: List[int] = []
    while True:
        if max_steps is not None:
            steps += 1
            if steps > max_steps:
                raise FuelExhausted("no sample within %d steps" % max_steps)
        o = op[i]
        if o == OP_BIT:
            i = a[i] if source.next_bit() else b[i]
        elif o == OP_LEAF:
            if stack:
                i = table.call_return(stack.pop(), payload[i])
            else:
                return payload[i]
        elif o == OP_JMP:
            i = a[i]
        elif o == OP_STUB:
            table.expand(i)
        elif o == OP_CALL:
            stack.append(payload[i])
            i = a[i]
        else:  # OP_FAIL
            if not tied:
                return -1
            i = root
            del stack[:]


def collect_python(
    table: NodeTable,
    n: int,
    bits,
    max_steps: Optional[int] = None,
    tied: bool = True,
) -> Tuple[List[int], List[int]]:
    """Draw ``n`` samples off a pooled bit buffer.

    Returns ``(payload indices, bits consumed per sample)``.  ``bits``
    is anything :func:`repro.engine.pool.as_pool` accepts.
    """
    supply = _pool.as_pool(bits)
    if max_steps is not None:
        # Metered fallback: per-sample stepping with the pool's
        # BitSource face; correctness over raw speed.
        from repro.bits.source import CountingBits

        counting = CountingBits(supply)
        indices, counts = [], []
        for _ in range(n):
            indices.append(_step_indices(table, counting, max_steps, tied))
            counts.append(counting.take_count())
        return indices, counts

    op, a, b, payload = table.op, table.a, table.b, table.payload
    root = table.root
    expand = table.expand
    call_return = table.call_return
    next_chunk = supply.next_chunk
    buf = 0
    left = 0
    indices: List[int] = []
    counts: List[int] = []
    add_index = indices.append
    add_count = counts.append
    stack: List[int] = []
    with _gc_guard():
        for _ in range(n):
            i = root
            used = 0
            del stack[:]
            while True:
                o = op[i]
                if o == OP_BIT:
                    if left == 0:
                        buf, left = next_chunk()
                    i = (a[i] if buf & 1 else b[i])
                    buf >>= 1
                    left -= 1
                    used += 1
                elif o == OP_LEAF:
                    if stack:
                        i = call_return(stack.pop(), payload[i])
                        continue
                    add_index(payload[i])
                    add_count(used)
                    break
                elif o == OP_JMP:
                    i = a[i]
                elif o == OP_STUB:
                    expand(i)
                elif o == OP_CALL:
                    stack.append(payload[i])
                    i = a[i]
                else:  # OP_FAIL
                    if not tied:
                        add_index(-1)
                        add_count(used)
                        break
                    i = root
                    del stack[:]
    return indices, counts


class _TableView:
    """Numpy mirrors of the table arrays, refreshed on table growth.

    Mirrors are capacity-doubling and refreshed *incrementally*: loop
    state spaces like the hare-tortoise race expand the table tens of
    thousands of times, so a full ``np.asarray`` rebuild per expansion
    would be quadratic.  Only the tail beyond ``_synced`` is copied,
    plus nodes explicitly invalidated by stub expansion (which rewrites
    an existing node into a jump in place).
    """

    def __init__(self, table: NodeTable):
        import numpy as np

        self._np = np
        self.table = table
        capacity = max(1024, len(table))
        self.op = np.empty(capacity, dtype=np.int32)
        self.a = np.empty(capacity, dtype=np.int32)
        self.b = np.empty(capacity, dtype=np.int32)
        self.payload = np.empty(capacity, dtype=np.int64)
        self._synced = 0
        self.version = -1
        self.refresh()

    def _grow(self, needed: int) -> None:
        np = self._np
        capacity = len(self.op)
        while capacity < needed:
            capacity *= 2
        for name in ("op", "a", "b", "payload"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._synced] = old[: self._synced]
            setattr(self, name, fresh)

    def refresh(self, dirty=()) -> None:
        table = self.table
        if self.version == table.version:
            return
        size = len(table)
        if size > len(self.op):
            self._grow(size)
        if size > self._synced:
            lo, hi = self._synced, size
            self.op[lo:hi] = table.op[lo:hi]
            self.a[lo:hi] = table.a[lo:hi]
            self.b[lo:hi] = table.b[lo:hi]
            self.payload[lo:hi] = table.payload[lo:hi]
            self._synced = size
        for index in dirty:
            self.op[index] = table.op[index]
            self.a[index] = table.a[index]
            self.b[index] = table.b[index]
            self.payload[index] = table.payload[index]
        self.version = table.version


def collect_numpy(
    table: NodeTable,
    n: int,
    rng=None,
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
    tied: bool = True,
    lanes: int = 16384,
):
    """Vectorized batch sampling; returns numpy ``(indices, bit counts)``.

    ``rng`` is a numpy Generator (or ``seed`` builds one).  Requires
    numpy; callers should fall back to :func:`collect_python` otherwise.
    """
    import numpy as np

    if rng is None:
        rng = _pool.numpy_rng(seed)
    # Stubs expand lazily as lanes reach them: eager expansion would
    # unroll loop-state chains (e.g. unbounded counters) far beyond
    # what sampling ever visits.
    view = _TableView(table)
    out_index = np.empty(n, dtype=np.int64)
    out_bits = np.empty(n, dtype=np.int64)
    start = 0
    with _gc_guard():
        while start < n:
            width = min(lanes, n - start)
            _run_lanes(
                table,
                view,
                rng,
                width,
                out_index[start : start + width],
                out_bits[start : start + width],
                max_steps,
                tied,
            )
            start += width
    return out_index, out_bits


def _run_lanes(table, view, rng, width, out_index, out_bits, max_steps, tied):
    import numpy as np

    root = table.root
    cur = np.full(width, root, dtype=np.int32)
    used = np.zeros(width, dtype=np.int64)
    active = np.arange(width, dtype=np.int64)
    # Per-lane call stacks for frame-separated loop calls (OP_CALL):
    # ``stack[lane, :depth[lane]]`` holds the record ids of the calls in
    # flight.  Returns resolve through ``table.call_return`` once per
    # *distinct* (record, exit payload) pair per step; steady state is
    # pure array gathers.
    depth = np.zeros(width, dtype=np.int64)
    stack = np.zeros((width, 4), dtype=np.int64)
    steps = 0
    while active.size:
        if max_steps is not None:
            steps += 1
            if steps > max_steps:
                raise FuelExhausted(
                    "%d lanes unfinished after %d steps"
                    % (active.size, max_steps)
                )
        ops = view.op[cur[active]]

        stub = ops == OP_STUB
        if stub.any():
            dirty = [int(i) for i in np.unique(cur[active[stub]])]
            for index in dirty:
                table.expand(index)
            view.refresh(dirty=dirty)
            continue

        jump = ops == OP_JMP
        if jump.any():
            lanes_ = active[jump]
            cur[lanes_] = view.a[cur[lanes_]]
            if jump.all():
                continue

        call = ops == OP_CALL
        if call.any():
            lanes_ = active[call]
            depths = depth[lanes_]
            need = int(depths.max()) + 1
            if need > stack.shape[1]:
                grown = np.zeros(
                    (width, max(need, 2 * stack.shape[1])), dtype=np.int64
                )
                grown[:, : stack.shape[1]] = stack
                stack = grown
            nodes = cur[lanes_]
            stack[lanes_, depths] = view.payload[nodes]
            depth[lanes_] = depths + 1
            cur[lanes_] = view.a[nodes]

        leaf = ops == OP_LEAF
        if leaf.any():
            lanes_ = active[leaf]
            returning = depth[lanes_] > 0
            if returning.any():
                ret = lanes_[returning]
                depth[ret] -= 1
                records = stack[ret, depth[ret]]
                exits = view.payload[cur[ret]]
                pair = (records << 32) | exits
                uniq, inverse = np.unique(pair, return_inverse=True)
                targets = np.empty(uniq.size, dtype=np.int64)
                resolve = table.call_return
                for j in range(uniq.size):
                    packed = int(uniq[j])
                    targets[j] = resolve(packed >> 32, packed & 0xFFFFFFFF)
                cur[ret] = targets[inverse]
                view.refresh()  # resolution may have lowered new rows
                leaf = leaf.copy()
                leaf[np.where(leaf)[0][returning]] = False
        if leaf.any():
            lanes_ = active[leaf]
            out_index[lanes_] = view.payload[cur[lanes_]]
            out_bits[lanes_] = used[lanes_]
            keep = ~leaf
            active = active[keep]
            ops = ops[keep]
            if not active.size:
                break

        fail = ops == OP_FAIL
        if fail.any():
            lanes_ = active[fail]
            if tied:
                cur[lanes_] = root
                depth[lanes_] = 0
            else:
                out_index[lanes_] = -1
                out_bits[lanes_] = used[lanes_]
                keep = ~fail
                active = active[keep]
                ops = ops[keep]
                if not active.size:
                    break

        bit = ops == OP_BIT
        if bit.any():
            lanes_ = active[bit]
            nodes = cur[lanes_]
            col = _pool.matrix_bits(rng, lanes_.size)
            cur[lanes_] = np.where(col, view.a[nodes], view.b[nodes])
            used[lanes_] += 1
