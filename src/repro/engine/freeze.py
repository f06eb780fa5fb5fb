"""Content-addressed serialization of node tables: the disk tier's format.

A warm open table is the expensive artifact of this engine: tens of
seconds of JIT loop expansion distilled into rows plus the memo that
keeps back-edges closed.  Its pending stubs and call records hold
``Fix`` closures, which have no meaningful pickle.  A closed table is
just rows and payloads; it goes through the same codec, so the
compilation cache's disk tier has one table format.

The content-key discipline (:mod:`repro.cftree.keys`) removes the
closure obstruction.  Every loop entry is memoized under a
``(fix_token, k_token, state)`` triple whose tokens are SHA-256 content
digests whenever the loop carries a key; two ``Fix`` objects with equal
tokens are extensionally interchangeable.  So a table freezes as:

- the row arrays and payload values (tagged encoding below);
- every *keyed* memo entry as its digest triple plus row index;
- every pending stub as its digest triple (identity-keyed pendings --
  the untagged rejection/bind wrappers -- are expanded out first; their
  state spaces are tiny, so this terminates quickly);
- every call record as ``(fix_token, k_token, frame, returns)``.

Thawing restores the arrays and memos.  When any of the last three
lists (or the orphan states) is non-empty it marks the table
``needs_rebind``: the pipeline then recompiles the (cheap) tree and
calls :meth:`~repro.engine.table.NodeTable.thaw_bind`, which lowers it
against the restored memos -- loop entries hit the frozen rows and
re-register live ``Fix`` objects by token.  Pendings and call returns
rebind lazily on first use; nested loops whose objects never
re-materialized are recovered by scanning parent body trees
(``_rebind_scan``), which is sound precisely because equal tokens
promise bit-for-bit equal behavior.

Identity-keyed *memo entries* (as opposed to pendings) are simply
dropped: they only deduplicate future work, so losing them costs rows,
never correctness.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.cftree.tree import LOOPBACK
from repro.engine.table import (
    NodeTable,
    OP_STUB,
    _CallRecord,
    _FrozenPending,
    _fix_token,
    _k_token,
)
from repro.lang.state import State

#: Bump when the frozen encoding changes shape.
FREEZE_VERSION = 1

#: Default bound on the pre-freeze expansions that close out
#: identity-keyed pendings.  Untagged wrappers have sentinel-sized state
#: spaces, so real tables need a handful; the bound is a backstop
#: against pathological programs, not a tuning knob.
EXPAND_BUDGET_DEFAULT = 100_000


def token_serializable(token) -> bool:
    """True when a memo token survives a process round-trip.

    Content tokens are digest strings (or ``"H"``, or ``("K", ...)``
    chains of them); identity fallbacks embed ``("@", id)`` / ``("#",
    id)`` pairs whose addresses mean nothing in another process.
    """
    if isinstance(token, str):
        return True
    if isinstance(token, tuple):
        if token and token[0] in ("@", "#"):
            return False
        return all(token_serializable(part) for part in token)
    return isinstance(token, (int, bool, Fraction))


# -- value encoding -------------------------------------------------------
#
# Payloads, memo states, and call frames hold States, sentinel values,
# and plain scalars.  The LOOPBACK sentinel is an ``is``-compared
# singleton, so it cannot go through pickle structurally; everything is
# wrapped in a small tagged encoding instead.


class FreezeUnsupported(ValueError):
    """A value (or token) in the table has no frozen representation."""


def encode_value(value):
    if value is LOOPBACK:
        return ("L",)
    if value is None:
        return ("n",)
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, int):
        return ("i", value)
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, Fraction):
        return ("F", value.numerator, value.denominator)
    if isinstance(value, State):
        return (
            "S",
            tuple((name, encode_value(v)) for name, v in value.items()),
        )
    if isinstance(value, tuple):
        return ("t", tuple(encode_value(v) for v in value))
    raise FreezeUnsupported("cannot freeze value %r" % (value,))


def decode_value(blob):
    tag = blob[0]
    if tag == "L":
        return LOOPBACK
    if tag == "n":
        return None
    if tag in ("b", "i", "s"):
        return blob[1]
    if tag == "F":
        return Fraction(blob[1], blob[2])
    if tag == "S":
        return State._from_sorted(
            tuple((name, decode_value(v)) for name, v in blob[1])
        )
    if tag == "t":
        return tuple(decode_value(v) for v in blob[1])
    raise FreezeUnsupported("unknown frozen value tag %r" % (tag,))


# -- freeze ---------------------------------------------------------------


def _pending_serializable(table: NodeTable, entry) -> bool:
    if type(entry) is _FrozenPending:
        return True
    fix, k, state = entry
    return token_serializable(_fix_token(fix)) and token_serializable(
        _k_token(k)
    )


def freeze_report(table: NodeTable) -> Dict[str, object]:
    """Cacheability of an open table, for stage reports and the CLI."""
    keyed = unkeyed = 0
    for entry in table._pending.values():
        if _pending_serializable(table, entry):
            keyed += 1
        else:
            unkeyed += 1
    unkeyed_calls = sum(
        1
        for record in table.calls
        if not (
            token_serializable(record.fix_token)
            and token_serializable(record.k_token)
        )
    )
    memo_keyed = sum(
        1
        for key in table._enter_memo
        if token_serializable(key[0]) and token_serializable(key[1])
    )
    return {
        "pending_keyed": keyed,
        "pending_unkeyed": unkeyed,
        "calls": len(table.calls),
        "calls_unkeyed": unkeyed_calls,
        "memo_entries": len(table._enter_memo),
        "memo_keyed": memo_keyed,
        "spillable": unkeyed_calls == 0,
    }


def freeze_table(
    table: NodeTable, expand_budget: int = EXPAND_BUDGET_DEFAULT
) -> Optional[dict]:
    """A table as a picklable record, or ``None`` if unspillable.

    Mutates the table only by *expanding* identity-keyed pendings (extra
    rows, never changed semantics).  Refuses -- returning ``None`` --
    when an unkeyed call record exists or the expansion budget runs out.
    """
    spent = 0
    while True:
        bad = [
            index
            for index, entry in table._pending.items()
            if not _pending_serializable(table, entry)
        ]
        if not bad:
            break
        if spent + len(bad) > expand_budget:
            return None
        for index in bad:
            table.expand(index)
        spent += len(bad)

    try:
        calls = []
        for record in table.calls:
            if not (
                token_serializable(record.fix_token)
                and token_serializable(record.k_token)
            ):
                return None
            calls.append(
                (
                    record.fix_token,
                    record.k_token,
                    tuple(
                        (name, encode_value(v))
                        for name, v in sorted(record.frame.items())
                    ),
                    tuple(record.returns.items()),
                )
            )

        pending = []
        for index, entry in table._pending.items():
            if type(entry) is _FrozenPending:
                fix_token, k_token, state = (
                    entry.fix_token,
                    entry.k_token,
                    entry.state,
                )
            else:
                fix, k, state = entry
                fix_token, k_token = _fix_token(fix), _k_token(k)
            pending.append(
                (index, fix_token, k_token, encode_value(state))
            )

        memo = []
        orphans = []
        orphan_seen = set()
        for key, value in table._enter_memo.items():
            fix_token, k_token, state = key
            if not (
                token_serializable(fix_token)
                and token_serializable(k_token)
            ):
                # Identity-keyed: the entry itself is a pure optimization
                # (droppable), but its *state* is still a valid entry
                # state of some unkeyed wrapper loop -- the rebind scan
                # needs those to unfold wrappers whose children are
                # keyed (see NodeTable._rebind_scan).  Wrapper state
                # spaces are sentinel-sized, so the dedup keeps this
                # list tiny.
                try:
                    state_blob = encode_value(state)
                except FreezeUnsupported:
                    continue
                if state_blob not in orphan_seen and len(orphans) < 4096:
                    orphan_seen.add(state_blob)
                    orphans.append(state_blob)
                continue
            try:
                state_blob = encode_value(state)
            except FreezeUnsupported:
                continue
            memo.append((fix_token, k_token, state_blob, value[3]))

        payloads = [encode_value(value) for value in table.payloads]
    except FreezeUnsupported:
        return None

    return {
        "freeze_version": FREEZE_VERSION,
        "max_nodes": table.max_nodes,
        "dedupe": table.dedupe,
        "op": list(table.op),
        "a": list(table.a),
        "b": list(table.b),
        "payload": list(table.payload),
        "payloads": payloads,
        "root": table.root,
        "fail_node": table._fail_node,
        "pending": pending,
        "memo": memo,
        "orphans": orphans,
        "calls": calls,
        "expansions": table.expansions,
        "freeze_expansions": spent,
    }


# -- thaw -----------------------------------------------------------------


def thaw_table(blob: dict) -> NodeTable:
    """Rebuild a :class:`NodeTable` from :func:`freeze_table` output.

    When the record holds anything closure-bearing -- pending stubs,
    memo entries, orphan states or call records -- the result carries
    ``needs_rebind=True``: callers must recompile the program tree and
    run :meth:`NodeTable.thaw_bind` before sampling, or the first frozen
    stub hit raises.  A closed table has nothing to rebind and samples
    as loaded.
    """
    if blob.get("freeze_version") != FREEZE_VERSION:
        raise ValueError(
            "frozen table version %r != %d"
            % (blob.get("freeze_version"), FREEZE_VERSION)
        )
    table = NodeTable(blob["max_nodes"], dedupe=blob.get("dedupe", True))
    table.op = list(blob["op"])
    table.a = list(blob["a"])
    table.b = list(blob["b"])
    table.payload = list(blob["payload"])
    table.payloads = [decode_value(v) for v in blob["payloads"]]
    table.root = blob["root"]
    table._fail_node = blob.get("fail_node", -1)
    table.expansions = blob.get("expansions", 0)
    table.version = 1
    table.needs_rebind = bool(
        blob["pending"] or blob["memo"] or blob.get("orphans")
        or blob["calls"]
    )

    for value, index in zip(table.payloads, range(len(table.payloads))):
        try:
            table._payload_index.setdefault(value, index)
        except TypeError:
            pass

    if table.dedupe:
        for i in range(len(table.op)):
            if table.op[i] != OP_STUB:
                table._row_intern.setdefault(
                    (table.op[i], table.a[i], table.b[i], table.payload[i]),
                    i,
                )

    for index, fix_token, k_token, state_blob in blob["pending"]:
        state = decode_value(state_blob)
        table._pending[index] = _FrozenPending(fix_token, k_token, state)
        table._frozen_enters.append((fix_token, state))

    for fix_token, k_token, state_blob, index in blob["memo"]:
        state = decode_value(state_blob)
        table._enter_memo[(fix_token, k_token, state)] = (
            None,
            None,
            state,
            index,
        )
        table._frozen_enters.append((fix_token, state))

    table._orphan_states = [
        decode_value(blob_) for blob_ in blob.get("orphans", ())
    ]

    for fix_token, k_token, frame_blob, returns in blob["calls"]:
        frame = {name: decode_value(v) for name, v in frame_blob}
        record = _CallRecord(
            None, None, frame, fix_token=fix_token, k_token=k_token
        )
        record.returns = dict(returns)
        table.calls.append(record)
        # The loop's exit continuation was lowered at *merged* states
        # (sub-exit foot + frame) that never pass through _enter, so
        # they exist nowhere in the memo; without them the rebind scan
        # cannot rediscover loops living only in cont trees.
        for payload_index in record.returns:
            value = table.payloads[payload_index]
            if isinstance(value, State):
                try:
                    merged = value.update(frame) if frame else value
                except (TypeError, ValueError):
                    continue
                table._frozen_enters.append((fix_token, merged))

    return table
