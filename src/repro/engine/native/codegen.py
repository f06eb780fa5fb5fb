"""Lower a closed :class:`~repro.engine.table.NodeTable` to C source.

The generated kernel is a *switch-free* table walk: after jump
threading, every interior node of a closed table is an ``OP_BIT`` row,
so one step of the walk is one line of C --

    i = bit ? ZA[i] : ZB[i];

-- over two flat ``int32`` arrays.  Terminals are folded into the edge
codes instead of occupying rows: ``-1`` is observation failure
(``OP_FAIL``) and ``-(p + 2)`` is the leaf with payload index ``p``, so
the inner loop needs no opcode dispatch at all.  A tied failure resets
``i`` to the root *without* resetting the per-sample bit counter --
exactly the sequential driver's restart semantics.

The kernel takes up to ``K`` such steps per table load
(:func:`step_bits`): ``zar_init`` composes the one-bit steps into a
window table ``W[(i << K) | w]`` holding ``code * 16 + c``, the code
reached from row ``i`` on the next ``K`` bits ``w`` (LSB first) and the
``c`` bits that took.  A window stops at the first leaf or failure, so
it never reads into the next sample (or the next tied attempt), and
every sample, bit count and stream position stays exactly the one-bit
walk's.  The one-bit step survives as the tail path for the last bits
of a buffer.

The encoding is **canonical**: bit rows *and* leaf codes are renumbered
in discovery order from the (threaded) root, so two tables with the
same reachable DAG but different physical layouts -- e.g. one built
fresh and one rehydrated from the artifact store after a different JIT
expansion history -- produce byte-identical C and hence the same kernel
digest.  The table's own payload indices (which *are* history-
dependent) stay out of the digest: the kernel emits them through a
per-table ``payload_map`` array passed at call time.  That is what lets
a warm artifact store skip the C compiler entirely.

What cannot be compiled raises :class:`KernelUnsupported` with the
reason the caller surfaces through ``CollectResult.fallback_reason``:
pending stubs (the table is open; expansion needs live Python
closures), ``OP_CALL`` rows (frame-separated loop returns resolve
lazily through :meth:`NodeTable.call_return`), bit-free jump cycles
(the walk would diverge without consuming bits), and a root that
resolves straight to ``OP_FAIL`` under tied semantics (ditto).
"""

import hashlib
from typing import List, NamedTuple

from repro.engine.table import (
    NodeTable,
    OP_BIT,
    OP_CALL,
    OP_FAIL,
    OP_JMP,
    OP_LEAF,
    OP_STUB,
)

__all__ = [
    "CODEGEN_VERSION",
    "EncodedTable",
    "KernelUnsupported",
    "encode_table",
    "encoded_digest",
    "render_c",
    "step_bits",
]

#: Bump whenever the encoding or the C template changes: the version is
#: part of the kernel digest, so stale cached kernels miss cleanly.
#: v2: payload codes are canonical (discovery-ordered) and the kernel
#: takes a per-table payload remap array, making the digest fully
#: layout-insensitive.
#: v3: the walk steps through the K-bit window table ``W`` (see
#: :func:`step_bits`); ``zar_init`` fills it and ``zar_step_bits``
#: reports ``K``.
CODEGEN_VERSION = 3

#: Size cap, in bytes, of one kernel's ``int32`` window table ``W``.
W_BUDGET = 1 << 20

#: Sentinel for "no sample in flight" in the resumable kernel state.
FRESH_STATE = -(2 ** 63)


class KernelUnsupported(ValueError):
    """The table cannot be lowered to a native kernel (reason in args)."""


class EncodedTable(NamedTuple):
    """The canonical switch-free encoding of a closed table.

    ``a``/``b`` are per-bit-row successor codes (row index when >= 0,
    ``-1`` for FAIL, ``-(p + 2)`` for the *canonical* leaf code ``p``).
    Leaf codes are numbered in discovery order too -- the table's own
    payload indices depend on expansion history, so baking them into
    the encoding would fork the digest across histories.
    ``payload_map`` translates canonical code -> this table's payload
    index; it rides *outside* the digest and is handed to the kernel at
    call time, so one cached ``.so`` serves every layout of the same
    reachable DAG.
    """

    a: List[int]
    b: List[int]
    root: int
    payload_map: List[int]


def _thread(table: NodeTable, index: int) -> int:
    """Follow JMP chains without expanding; raise on bit-free cycles."""
    seen = None
    while table.op[index] == OP_JMP:
        if seen is None:
            seen = {index}
        index = table.a[index]
        if index in seen:
            raise KernelUnsupported(
                "bit-free jump cycle (the walk would diverge without "
                "consuming bits)"
            )
        seen.add(index)
    return index


def encode_table(table: NodeTable) -> EncodedTable:
    """Canonically renumber ``table`` into an :class:`EncodedTable`.

    Only rows reachable from the root are encoded, in discovery order
    (root first, then each bit row's threaded ``a`` / ``b`` successors
    breadth-first) -- a layout-insensitive numbering.
    """
    op, a, b, payload = table.op, table.a, table.b, table.payload
    if table.pending_stubs:
        raise KernelUnsupported(
            "open table (%d loop-state stubs pending; expansion needs "
            "live Python closures)" % table.pending_stubs
        )

    number = {}
    order: List[int] = []
    leaf_number = {}
    leaf_order: List[int] = []

    def code_of(index: int) -> int:
        index = _thread(table, index)
        o = op[index]
        if o == OP_LEAF:
            p = payload[index]
            canonical = leaf_number.get(p)
            if canonical is None:
                canonical = leaf_number[p] = len(leaf_order)
                leaf_order.append(p)
            return -(canonical + 2)
        if o == OP_FAIL:
            return -1
        if o == OP_STUB:
            raise KernelUnsupported(
                "open table (reached an unexpanded stub row)"
            )
        if o == OP_CALL:
            raise KernelUnsupported(
                "call rows (frame-separated loop returns resolve lazily "
                "in Python)"
            )
        hit = number.get(index)
        if hit is None:
            hit = number[index] = len(order)
            order.append(index)
        return hit

    root = code_of(table.root)
    if root == -1:
        raise KernelUnsupported(
            "root resolves to FAIL (a tied restart would diverge without "
            "consuming bits)"
        )
    enc_a: List[int] = []
    enc_b: List[int] = []
    cursor = 0
    while cursor < len(order):
        index = order[cursor]
        cursor += 1
        enc_a.append(code_of(a[index]))
        enc_b.append(code_of(b[index]))
    return EncodedTable(enc_a, enc_b, root, leaf_order)


def step_bits(rows: int) -> int:
    """``K``, the bits one window lookup may consume, for ``rows`` bit rows.

    The largest ``K`` in 8..2 whose ``rows << K`` ``int32`` entries fit
    in :data:`W_BUDGET`, and 2 when none does: at ``K = 1`` the window
    loop does the one-bit walk's work plus its own bookkeeping.
    """
    for k in range(8, 2, -1):
        if (rows << k) * 4 <= W_BUDGET:
            return k
    return 2


def encoded_digest(encoded: EncodedTable) -> str:
    """SHA-256 over the canonical encoding, codegen version and ``K``."""
    hasher = hashlib.sha256()
    hasher.update(b"zar-native-kernel:%d\n" % CODEGEN_VERSION)
    hasher.update(b"k:%d\n" % step_bits(len(encoded.a)))
    hasher.update(b"root:%d\n" % encoded.root)
    hasher.update(("a:" + ",".join(map(str, encoded.a)) + "\n").encode())
    hasher.update(("b:" + ",".join(map(str, encoded.b)) + "\n").encode())
    return hasher.hexdigest()


def _c_array(name: str, values: List[int]) -> str:
    lines = ["static const int32_t %s[%d] = {" % (name, max(len(values), 1))]
    row: List[str] = []
    for value in values:
        row.append(str(value))
        if len(row) == 12:
            lines.append("    " + ", ".join(row) + ",")
            row = []
    if row:
        lines.append("    " + ", ".join(row) + ",")
    if not values:
        lines.append("    0,")
    lines.append("};")
    return "\n".join(lines)


def render_c(encoded: EncodedTable, digest: str) -> str:
    """The complete C translation unit for one encoded table.

    The two successor arrays are interleaved as ``ZT[2*i + bit]``
    (``bit = 0`` is the ``b`` edge) so a step is pure address
    arithmetic -- no data-dependent branch on a fair bit, which would
    mispredict half the time by construction.  ``zar_init`` composes
    ``ZT`` into the window table ``W``.
    """
    interleaved: List[int] = []
    for a_code, b_code in zip(encoded.a, encoded.b):
        interleaved.append(b_code)
        interleaved.append(a_code)
    rows = len(encoded.a)
    k = step_bits(rows)
    return _TEMPLATE % {
        "version": CODEGEN_VERSION,
        "digest": digest,
        "rows": rows,
        "root": encoded.root,
        "k": k,
        "w_size": max(rows, 1) << k,
        "zt": _c_array("ZT", interleaved),
    }


_TEMPLATE = """\
/* Generated by zar native codegen v%(version)d -- do not edit.
 *
 * Kernel digest: %(digest)s
 * %(rows)d bit rows; successor codes >= 0 are row indices, -1 is
 * observation failure, -(p + 2) is the canonical leaf code p (the
 * caller's payload_map translates codes to its payload indices).
 * ZT interleaves the b/a successor arrays as ZT[2*i + bit], keeping
 * a step branch-free (a fair bit mispredicts by definition).
 * The walk consumes the caller's packed fair-bit buffer LSB-first per
 * byte, little-endian across bytes -- BitPool's exact chunk order.
 */
#include <stdint.h>

#define ZAR_ROOT %(root)d
#define ZAR_ROWS %(rows)d
#define ZAR_K %(k)d
#define ZAR_MASK ((1 << ZAR_K) - 1)
#define ZAR_FRESH (-9223372036854775807LL - 1)

%(zt)s

/* W[(i << ZAR_K) | w] = code * 16 + c: from row i, the bits w (LSB
 * first) lead to code after c bits, 1 <= c <= ZAR_K.  A window stops
 * at the first leaf or failure, so it never crosses into the next
 * sample or tied attempt.  zar_init fills it; until then zar_collect
 * refuses to run (an all-zero W would consume no bits and never end).
 */
static int32_t W[%(w_size)d];
static int32_t zar_ready;

static const char ZAR_DIGEST[] = "%(digest)s";

const char *zar_digest(void) { return ZAR_DIGEST; }
int32_t zar_codegen_version(void) { return %(version)d; }
int64_t zar_rows(void) { return ZAR_ROWS; }
int32_t zar_step_bits(void) { return ZAR_K; }

/* Runs once per load, off the sampling path: -O1 compiles it about
 * 5 ms faster than -O2 and it still runs in ~1 ms at the largest W. */
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("O1")))
#endif
void zar_init(void)
{
    int64_t row, w, i;
    int32_t c;
    for (row = 0; row < ZAR_ROWS; row++) {
        for (w = 0; w <= ZAR_MASK; w++) {
            i = row;
            c = 0;
            do {
                i = ZT[(i << 1) | ((w >> c) & 1)];
                c++;
            } while (i >= 0 && c < ZAR_K);
            W[(row << ZAR_K) | w] = (int32_t)(i * 16 + c);
        }
    }
    zar_ready = 1;
}

/* Draw samples done..n-1 from the table over one packed bit buffer.
 *
 * Returns the new number of finished samples, or -1 when zar_init has
 * not run.  While 64 bits of the buffer remain, each lookup consumes
 * up to ZAR_K of them from a little-endian 64-bit read; the last bits
 * go one ZT step at a time.  When the buffer drains mid-sample the
 * in-flight (node, bits-used) pair parks in state[0..1]
 * (state[0] == ZAR_FRESH means no sample in flight) and the caller
 * refills and re-invokes; the parked walk resumes on the next buffer's
 * first bit, so refill boundaries are invisible to the bit stream.
 * A tied failure restarts at the root without resetting the bit
 * counter -- the sequential driver's exact restart semantics.
 */
int64_t zar_collect(const unsigned char *bits, int64_t total_bits,
                    int64_t done, int64_t n,
                    int64_t *out_idx, int64_t *out_bits,
                    int64_t *state, const int32_t *payload_map,
                    int32_t tied)
{
    const int64_t fast_end = total_bits - 64;
    int64_t pos = 0;
    int64_t i, used;
    if (!zar_ready)
        return -1;
    i = (state[0] == ZAR_FRESH) ? ZAR_ROOT : state[0];
    used = (state[0] == ZAR_FRESH) ? 0 : state[1];
    while (done < n) {
        while (i >= 0) {
            if (pos <= fast_end) {
                /* Byte-wise little-endian read; compilers fold it into
                 * one unaligned load. */
                const unsigned char *p = bits + (pos >> 3);
                uint64_t word = (uint64_t)p[0] | ((uint64_t)p[1] << 8)
                    | ((uint64_t)p[2] << 16) | ((uint64_t)p[3] << 24)
                    | ((uint64_t)p[4] << 32) | ((uint64_t)p[5] << 40)
                    | ((uint64_t)p[6] << 48) | ((uint64_t)p[7] << 56);
                int64_t avail = 64 - (pos & 7);
                word >>= pos & 7;
                do {
                    int32_t entry = W[(i << ZAR_K)
                                      | (int64_t)(word & ZAR_MASK)];
                    int32_t c = entry & 15;
                    i = entry >> 4;
                    word >>= c;
                    avail -= c;
                    pos += c;
                    used += c;
                } while (i >= 0 && avail >= ZAR_K);
                continue;
            }
            if (pos >= total_bits) {
                state[0] = i;
                state[1] = used;
                return done;
            }
            i = (int64_t)ZT[(i << 1)
                            | ((bits[pos >> 3] >> (pos & 7)) & 1)];
            pos++;
            used++;
        }
        if (i == -1 && tied) {
            i = ZAR_ROOT;
            continue;
        }
        out_idx[done] = (i == -1) ? -1 : (int64_t)payload_map[-i - 2];
        out_bits[done] = used;
        done++;
        i = ZAR_ROOT;
        used = 0;
    }
    state[0] = ZAR_FRESH;
    state[1] = 0;
    return done;
}
"""
