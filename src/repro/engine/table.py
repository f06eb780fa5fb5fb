"""Flat array encoding of debiased CF trees (the batch engine's IR).

The per-sample trampoline (:func:`repro.sampler.run.run_itree`) pays a
Python closure call per ``Tau``/``Vis`` step.  The engine instead lowers
a debiased CF tree into a *node table*: four parallel arrays

- ``op[i]``      -- the node kind (``OP_BIT``/``OP_LEAF``/...);
- ``a[i]``       -- the bit-``True`` branch target (or the jump target);
- ``b[i]``       -- the bit-``False`` branch target;
- ``payload[i]`` -- index into ``payloads`` for leaves, ``-1`` otherwise;

so a sample is drawn by pure index arithmetic: ``i = a[i] if bit else
b[i]``.  Drivers (see :mod:`repro.engine.driver`) walk the table either
one sample at a time (bit-for-bit equivalent to the trampoline) or as a
vectorized batch over numpy arrays.

``Fix`` nodes cannot be lowered eagerly: their loop-state space may be
unbounded (e.g. the geometric counter), so a loop entry at state ``s``
is first emitted as an ``OP_STUB`` and expanded on first visit
(:meth:`NodeTable.expand`).  Expansions are memoized per
``(fix token, continuation token, state)``, where tokens are *content
keys* when the loop carries one (:mod:`repro.cftree.keys`) and pinned
identities otherwise: finite loop-state spaces close up into back-edges
(the rejection loops of ``uniform_tree`` become a single back jump) and
unbounded ones grow the table once per *distinct* state -- across all
samples *and* across the distinct closure objects produced by
re-compiling the same loop body.  ``Fail`` leaves compile to a single
``OP_FAIL`` node; the tied driver treats it as "restart at the root",
which is exactly ``tie_itree``'s rejection semantics.

The traversal order of ``Choice`` nodes -- and hence the consumed bit
sequence -- is identical to ``to_itree_open``'s: a ``True`` bit selects
the left subtree (the paper's "heads").
"""

from typing import Callable, Dict, List, Optional, Tuple

from repro.cftree.tree import CFTree, Choice, Fail, Fix, Leaf
from repro.lang.state import State

# Node opcodes.  OP_BIT consumes one fair bit and branches; OP_LEAF
# produces payload ``payload[i]`` (or, when the driver's call stack is
# non-empty, returns from the innermost OP_CALL); OP_FAIL is
# observation failure; OP_JMP is an unconditional hop (left behind by
# stub expansion); OP_STUB is an unexpanded loop entry; OP_CALL pushes
# call record ``payload[i]`` and enters the loop subroutine at ``a[i]``.
OP_BIT = 0
OP_LEAF = 1
OP_FAIL = 2
OP_JMP = 3
OP_STUB = 4
OP_CALL = 5

OP_NAMES = ("BIT", "LEAF", "FAIL", "JMP", "STUB", "CALL")


class LoweringError(ValueError):
    """The tree cannot be lowered (e.g. a biased choice survived)."""


class TableOverflow(LoweringError):
    """Lowering exceeded the node budget (state space too large)."""


class _Halt:
    """The terminal continuation: a leaf value is a finished sample."""

    __slots__ = ()

    def __repr__(self):
        return "HALT"


_HALT = _Halt()

#: Content token of the terminal continuation.
_HALT_TOKEN = "H"


def _fix_token(fix: Fix):
    """The interning token of a loop: its content key when it has one
    (identical loops share rows across closure objects), else an
    identity fallback.

    Identity tokens are only safe because every memo *value* that embeds
    one keeps the ``fix`` object itself alive (the PR 4 keepalive trick):
    a pinned object's id cannot be recycled.
    """
    key = fix.key
    return key if key is not None else ("@", id(fix))


def _k_token(k):
    """The content token of a continuation (``_HALT`` or a ``_LoopK``)."""
    return _HALT_TOKEN if k is _HALT else k.token


class _LoopK:
    """The in-loop continuation: a leaf value is the next loop state.

    ``token`` is the continuation's content token, derived structurally
    from the loop's token and the outer continuation's token -- two
    ``_LoopK`` chains with equal tokens behave identically, so memo keys
    built from tokens share rows across distinct closure objects.
    Interned per token in ``NodeTable._loopk_intern``.
    """

    __slots__ = ("fix", "outer", "token")

    def __init__(self, fix: Fix, outer):
        self.fix = fix
        self.outer = outer
        self.token = ("K", _fix_token(fix), _k_token(outer))

    def __repr__(self):
        return "LoopK(%r)" % (self.fix,)


class _CallRecord:
    """The dynamic side of an ``OP_CALL`` row.

    ``fix``/``k`` are the loop and outer continuation at the original
    entry; ``frame`` holds the state bindings *outside* the loop's
    footprint (untouched by the subroutine); ``returns`` maps a sub-exit
    payload index to the row continuing ``fix.cont(frame ∪ exit)`` under
    ``k``, resolved lazily on first return and memoized.

    A record thawed from disk starts with ``fix``/``k`` as ``None`` and
    carries their content tokens instead; the objects are rebound on the
    first return that misses ``returns`` (see ``NodeTable._resolve_fix``).
    """

    __slots__ = ("fix", "k", "frame", "returns", "fix_token", "k_token")

    def __init__(self, fix: Optional[Fix], k, frame: Dict[str, object],
                 fix_token=None, k_token=None):
        self.fix = fix
        self.k = k
        self.frame = frame
        self.returns: Dict[int, int] = {}
        self.fix_token = fix_token if fix_token is not None else (
            _fix_token(fix) if fix is not None else None
        )
        self.k_token = k_token if k_token is not None else (
            _k_token(k) if k is not None else None
        )


class _FrozenPending:
    """A pending stub restored from disk: content tokens instead of the
    live ``(fix, k, state)`` objects, rebound on first expansion."""

    __slots__ = ("fix_token", "k_token", "state")

    def __init__(self, fix_token, k_token, state):
        self.fix_token = fix_token
        self.k_token = k_token
        self.state = state


def _iter_fixes(tree: CFTree):
    """The ``Fix`` nodes of a tree's finite spine (no closure forcing)."""
    stack = [tree]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Fix):
            yield node
        elif isinstance(node, Choice):
            stack.append(node.left)
            stack.append(node.right)


class NodeTable:
    """An array-encoded sampler with JIT-expanded loop entries.

    With ``dedupe`` (the default), allocation hash-conses immutable rows:
    children are emitted before parents, so requesting a ``BIT``/``LEAF``
    row identical to an existing one returns the existing index -- this
    is bottom-up common-subexpression elimination at the row level, so
    structurally equal subtrees lower to one set of rows even when they
    are distinct tree objects, and :meth:`compact` later merges
    congruent rows.  ``STUB`` rows are mutable (they become jumps) and
    are never deduplicated.
    """

    def __init__(self, max_nodes: int = 2_000_000, dedupe: bool = True):
        self.op: List[int] = []
        self.a: List[int] = []  # True-branch / jump target
        self.b: List[int] = []  # False-branch target
        self.payload: List[int] = []
        self.payloads: List[object] = []
        self.max_nodes = max_nodes
        self.dedupe = dedupe
        self.root = -1
        # Monotone counter bumped on every structural change; drivers
        # use it to refresh derived (numpy) views incrementally.
        self.version = 0
        self._fail_node = -1
        self._payload_index: Dict[Tuple[type, object], int] = {}
        # Memo keys are *content tokens* wherever content keys exist
        # (see repro.cftree.keys); identity fallbacks are pinned by the
        # memo values, which hold the tree/fix/continuation objects --
        # an id in a key always has its object kept alive in the value,
        # so a recycled address can never alias a live entry.
        self._lower_memo: Dict[tuple, Tuple[CFTree, object, int]] = {}
        self._enter_memo: Dict[tuple, Tuple[Fix, object, object, int]] = {}
        self._loopk_intern: Dict[tuple, _LoopK] = {}
        self._pending: Dict[int, Tuple[Fix, object, object]] = {}
        # Frame-separated loop calls: the subroutine Fix per machinery
        # token (value keeps the source fix alive for id tokens), and
        # one _CallRecord per OP_CALL row (indexed by its payload).
        self._subfix_intern: Dict[object, Tuple[Fix, Fix]] = {}
        self.calls: List[_CallRecord] = []
        self._row_intern: Dict[Tuple[int, int, int, int], int] = {}
        # Content-token -> live Fix object, populated as loops are
        # entered.  Normally redundant (the memos hold the objects); for
        # a table thawed from disk it is how frozen pendings and call
        # records get their closures back (see repro.engine.freeze).
        self._fix_registry: Dict[object, Fix] = {}
        # Thawed-table rebind state: (fix_token, state) pairs harvested
        # from the frozen memo, pendings, and call returns, used to
        # rematerialize nested loops by scanning parent body/cont trees.
        # _rebind_scan lazily buckets them per token; consumed states
        # are popped so no pair is compiled twice.
        self._frozen_enters: List[Tuple[object, object]] = []
        self._rebind_queue: Optional[Dict[object, List[object]]] = None
        # Unkeyed wrappers cannot be addressed by token, so their frozen
        # entry states arrive anonymously (_orphan_states) and are tried
        # against every live unkeyed Fix the scan has seen (_scan_unkeyed,
        # seeded from the root tree's spine by thaw_bind).
        self._orphan_states: List[object] = []
        self._scan_unkeyed: List[Fix] = []
        self._orphan_scanned: set = set()
        self.needs_rebind = False
        # (version, extract, mapped payloads) of the last map_payloads.
        self._mapped: Optional[Tuple[int, object, List[object]]] = None
        self.expansions = 0
        self.dedup_hits = 0
        self.compacted_rows = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def from_cftree(
        cls,
        tree: CFTree,
        max_nodes: int = 2_000_000,
        dedupe: bool = True,
    ) -> "NodeTable":
        """Lower a *debiased* CF tree; the root is set to its entry node."""
        table = cls(max_nodes, dedupe)
        table.root = table._lower(tree, _HALT)
        return table

    def _alloc(self, op: int, a: int = -1, b: int = -1, payload: int = -1) -> int:
        if self.dedupe and op != OP_STUB:
            # Immutable rows only: a STUB mutates into a JMP later, so
            # its row can never be shared.  BIT child indices are stable
            # (rows are append-only apart from in-place stub expansion,
            # which keeps its index), so the key cannot go stale.
            key = (op, a, b, payload)
            hit = self._row_intern.get(key)
            if hit is not None:
                self.dedup_hits += 1
                return hit
        if len(self.op) >= self.max_nodes:
            raise TableOverflow(
                "node table exceeded %d nodes (loop state space too "
                "large for the batch engine)" % self.max_nodes
            )
        index = len(self.op)
        self.op.append(op)
        self.a.append(a)
        self.b.append(b)
        self.payload.append(payload)
        if self.dedupe and op != OP_STUB:
            self._row_intern[(op, a, b, payload)] = index
        self.version += 1
        return index

    def _leaf(self, value: object) -> int:
        # Keyed by type as well as value: ``True == 1 == Fraction(1)``
        # hash alike, but a leaf must return the value it was built with.
        key = (type(value), value)
        try:
            pidx = self._payload_index.get(key)
            hashable = True
        except TypeError:
            pidx, hashable = None, False
        if pidx is None:
            pidx = len(self.payloads)
            self.payloads.append(value)
            if hashable:
                self._payload_index[key] = pidx
        return self._alloc(OP_LEAF, payload=pidx)

    def _fail(self) -> int:
        if self._fail_node < 0:
            self._fail_node = self._alloc(OP_FAIL)
        return self._fail_node

    def _loopk(self, fix: Fix, outer) -> _LoopK:
        k = _LoopK(fix, outer)
        hit = self._loopk_intern.get(k.token)
        if hit is not None:
            return hit
        self._loopk_intern[k.token] = k
        return k

    def _apply_k(self, k, value) -> int:
        if k is _HALT:
            return self._leaf(value)
        return self._enter(k.fix, k.outer, value)

    def _lower(self, tree: CFTree, k) -> int:
        # Keyed on identity: an equal but distinct subtree is lowered
        # again, and row hash-consing in _alloc maps it to the same rows.
        # The continuation side uses content tokens so equal _LoopK
        # chains share lowerings.
        memo_key = (id(tree), _k_token(k))
        hit = self._lower_memo.get(memo_key)
        if hit is not None:
            return hit[2]
        if isinstance(tree, Leaf):
            index = self._apply_k(k, tree.value)
        elif isinstance(tree, Fail):
            index = self._fail()
        elif isinstance(tree, Choice):
            if tree.prob * 2 != 1:
                raise LoweringError(
                    "biased choice (p=%s) in engine lowering; debias the "
                    "tree first" % (tree.prob,)
                )
            # Allocate the branch node after both subtrees: subtree
            # lowering never revisits this (id(tree), k) pair, since
            # cycles only arise through Fix stubs.
            left = self._lower(tree.left, k)
            right = self._lower(tree.right, k)
            index = self._alloc(OP_BIT, a=left, b=right)
        elif isinstance(tree, Fix):
            index = self._enter(tree, k, tree.init)
        else:
            raise LoweringError("not a CF tree: %r" % (tree,))
        # Keep the tree AND the continuation alive alongside the key so
        # neither id can be recycled by the allocator (same trick as
        # cftree.cache; the seed kept only the tree, which left id(k)
        # recyclable -- the engine-side id-reuse hazard of PR 4).
        self._lower_memo[memo_key] = (tree, k, index)
        return index

    def _enter(self, fix: Fix, k, state) -> int:
        fkey = fix.key
        if fkey is not None and fkey not in self._fix_registry:
            self._fix_registry[fkey] = fix
        try:
            key = (_fix_token(fix), _k_token(k), state)
            hit = self._enter_memo.get(key)
        except TypeError:
            # Unhashable loop state: no memoization, so loops over such
            # states never close; the node budget is the backstop.
            key = None
            hit = None
        if hit is not None:
            return hit[3]
        footprint = fix.footprint
        if footprint is not None and isinstance(state, State):
            frame = {
                name: value
                for name, value in state.items()
                if name not in footprint
            }
            if frame:
                index = self._call(fix, k, state, frame, footprint)
                if key is not None:
                    self._enter_memo[key] = (fix, k, state, index)
                return index
        index = self._alloc(OP_STUB)
        self._pending[index] = (fix, k, state)
        if key is not None:
            self._enter_memo[key] = (fix, k, state, index)
        return index

    def _call(self, fix: Fix, k, state, frame, footprint) -> int:
        """Allocate a frame-separated loop call.

        The loop's guard and body only touch ``footprint`` variables, so
        the loop from ``state`` equals the loop run on the footprint
        projection with the untouched ``frame`` spliced back in at exit.
        The projection entry is shared across *every* frame (keyed by
        machinery subkey + foot state), which is the main state-space
        win: without it, each frame multiplies the loop's whole internal
        state churn into fresh rows.  Calls and returns consume no bits,
        so samples stay bit-for-bit identical to the inline expansion.
        """
        sub = self._subfix(fix)
        # state.items() is already sorted/normalized, so the projection
        # can take the trusted-constructor fast path.
        foot = State._from_sorted(
            tuple(
                (name, value)
                for name, value in state.items()
                if name in footprint
            )
        )
        sub_entry = self._enter(sub, _HALT, foot)
        record = _CallRecord(fix, k, frame)
        self.calls.append(record)
        return self._alloc(OP_CALL, a=sub_entry, payload=len(self.calls) - 1)

    def _subfix(self, fix: Fix) -> Fix:
        """The loop's machinery as a standalone subroutine: same guard
        and body, ``Leaf`` continuation (exit states become sub leaves).
        Interned per subkey so distinct wrappers of one loop -- and
        distinct compiles of one program -- share a single subroutine.
        """
        token = fix.subkey if fix.subkey is not None else ("@", id(fix))
        hit = self._subfix_intern.get(token)
        if hit is not None:
            return hit[1]
        sub = Fix(
            None,
            fix.guard,
            fix.body,
            Leaf,
            key=fix.subkey,
            subkey=fix.subkey,
            footprint=fix.footprint,
        )
        self._subfix_intern[token] = (fix, sub)
        return sub

    def call_return(self, call_id: int, payload_index: int) -> int:
        """The row continuing call ``call_id`` after its subroutine
        exited with payload ``payload_index``; lowered on first use."""
        record = self.calls[call_id]
        hit = record.returns.get(payload_index)
        if hit is not None:
            return hit
        if record.fix is None:  # thawed from disk: rebind lazily
            record.fix = self._resolve_fix(record.fix_token)
            record.k = self._resolve_k(record.k_token)
        merged = self.payloads[payload_index].update(record.frame)
        index = self._thread(self._lower(record.fix.cont(merged), record.k))
        record.returns[payload_index] = index
        return index

    # -- thawed-table rebinding ------------------------------------------

    def _register_fix(self, fix: Fix) -> None:
        if fix.key is not None and fix.key not in self._fix_registry:
            self._fix_registry[fix.key] = fix

    def _harvest_fix(self, fix: Fix) -> None:
        """Register a fix found during rebinding; unkeyed ones are kept
        as scan roots for the orphan-state sweep."""
        if fix.key is not None:
            self._register_fix(fix)
        elif not any(f is fix for f in self._scan_unkeyed):
            self._scan_unkeyed.append(fix)

    def _resolve_fix(self, token) -> Fix:
        """The live ``Fix`` for a content token, rematerializing nested
        loops from parent body trees when necessary (thawed tables)."""
        hit = self._fix_registry.get(token)
        if hit is not None:
            return hit
        hit = self._subfix_intern.get(token)
        if hit is not None:
            return hit[1]
        # A machinery subkey of an already-registered loop: build the
        # subroutine fix the same way _call would.
        for fix in list(self._fix_registry.values()):
            if fix.subkey == token:
                return self._subfix(fix)
        self._rebind_scan(token)
        hit = self._fix_registry.get(token)
        if hit is not None:
            return hit
        hit = self._subfix_intern.get(token)
        if hit is not None:
            return hit[1]
        raise LoweringError(
            "thawed table could not rebind loop token %r; recompile "
            "without the disk cache" % (token,)
        )

    def _resolve_k(self, token):
        """Rebuild a continuation object from its content token."""
        if token == _HALT_TOKEN:
            return _HALT
        if isinstance(token, tuple) and len(token) == 3 and token[0] == "K":
            return self._loopk(
                self._resolve_fix(token[1]), self._resolve_k(token[2])
            )
        raise LoweringError(
            "thawed table could not rebind continuation token %r" % (token,)
        )

    def _rebind_scan(self, wanted) -> None:
        """Recover nested loop objects by scanning body/cont trees.

        Content keys make any rematerialization with the same token
        behaviorally interchangeable, so a nested loop lost in the
        freeze/thaw round-trip can be rebuilt by compiling the body (or
        exit continuation) of any *registered* loop at any frozen entry
        state and harvesting the ``Fix`` nodes of the resulting (finite)
        tree.  States are consumed round-robin across tokens -- one per
        token per sweep -- because distinct states take distinct ``Ite``
        branches: diverse coverage finds ``wanted`` long before an
        exhaustive walk of any one loop's state list would.  Iterates to
        a fixed point or until ``wanted`` shows up.
        """
        if self._rebind_queue is None:
            queue: Dict[object, List[object]] = {}
            for token, state in self._frozen_enters:
                queue.setdefault(token, []).append(state)
            self._rebind_queue = queue
        queue = self._rebind_queue
        progress = True
        while progress and wanted not in self._fix_registry:
            progress = False
            for token, states in queue.items():
                if not states:
                    continue
                fix = self._fix_registry.get(token)
                if fix is None:
                    entry = self._subfix_intern.get(token)
                    fix = entry[1] if entry is not None else None
                if fix is None:
                    for owner in list(self._fix_registry.values()):
                        if owner.subkey == token:
                            fix = self._subfix(owner)
                            break
                if fix is None:
                    continue
                state = states.pop()
                progress = True
                if self._scan_tree(fix, state, wanted):
                    return
            # Unkeyed wrappers (key None) have no queue bucket: try every
            # orphan state against every live unkeyed fix.  Wrapper state
            # spaces are sentinel-sized and wrong pairings fail fast in
            # guard evaluation, so this cross product stays cheap.
            for fix in list(self._scan_unkeyed):
                for state in self._orphan_states:
                    try:
                        pair = (id(fix), state)
                        if pair in self._orphan_scanned:
                            continue
                        self._orphan_scanned.add(pair)
                    except TypeError:
                        continue
                    progress = True
                    if self._scan_tree(fix, state, wanted):
                        return

    def _scan_tree(self, fix: Fix, state, wanted) -> bool:
        """Compile one body/cont tree and harvest its spine fixes;
        True when ``wanted`` became registered."""
        try:
            tree = fix.body(state) if fix.guard(state) else fix.cont(state)
        except Exception:
            return False  # state outside this body's domain: skip
        for found in _iter_fixes(tree):
            self._harvest_fix(found)
        return wanted in self._fix_registry

    def _thread(self, target: int) -> int:
        """Follow JMP chains without expanding stubs; cycle-safe."""
        seen = None
        while self.op[target] == OP_JMP:
            if seen is None:
                seen = {target}
            nxt = self.a[target]
            if nxt in seen:
                break
            seen.add(nxt)
            target = nxt
        return target

    # -- JIT expansion ---------------------------------------------------

    def expand(self, index: int) -> None:
        """Expand the stub at ``index`` in place (it becomes a jump).

        One expansion performs a bounded amount of lowering: the loop
        body (or exit continuation) at one concrete state, with any
        nested loop entries left as fresh stubs.
        """
        if self.op[index] != OP_STUB:
            return
        entry = self._pending.pop(index)
        if type(entry) is _FrozenPending:
            fix = self._resolve_fix(entry.fix_token)
            k = self._resolve_k(entry.k_token)
            state = entry.state
        else:
            fix, k, state = entry
        if fix.guard(state):
            target = self._lower(fix.body(state), self._loopk(fix, k))
        else:
            target = self._lower(fix.cont(state), k)
        # Thread through jump chains so drivers pay at most one hop per
        # loop entry (cycle-safe: a divergent loop can jump to itself).
        seen = None
        while self.op[target] == OP_JMP:
            if seen is None:
                seen = {index, target}
            nxt = self.a[target]
            if nxt in seen:
                break
            seen.add(nxt)
            target = nxt
        self.op[index] = OP_JMP
        self.a[index] = target
        self.version += 1
        self.expansions += 1

    def expand_all(self, limit: Optional[int] = None) -> bool:
        """Expand stubs breadth-first until none remain or ``limit`` more
        expansions were done.  Returns True when the table is closed
        (fully expanded -- no stub left)."""
        done = 0
        while self._pending:
            if limit is not None and done >= limit:
                return False
            self.expand(next(iter(self._pending)))
            done += 1
        return True

    def thaw_bind(self, tree: CFTree) -> None:
        """Re-attach live closures to a table thawed from disk.

        Lowers the freshly compiled ``tree`` against the restored
        content-keyed memos: loop entries hit the frozen memo rows
        (registering their ``Fix`` objects on the way), and deduplicated
        allocation folds the spine onto the existing rows, so the pass
        costs one tree walk, not a re-expansion.  The root is re-pointed
        at the result, which makes the call safe even if the fresh
        compile differs from the frozen one (the stale rows just become
        garbage for the next compaction).
        """
        for fix in _iter_fixes(tree):
            self._harvest_fix(fix)
        self.root = self._lower(tree, _HALT)
        self.needs_rebind = False
        self.version += 1

    def resolve(self, index: int) -> int:
        """Follow jumps (expanding stubs on the way) to a concrete node."""
        while True:
            op = self.op[index]
            if op == OP_JMP:
                index = self.a[index]
            elif op == OP_STUB:
                self.expand(index)
            else:
                return index

    # -- compaction ------------------------------------------------------

    def _final_target(self, index: int, memo: Dict[int, int]) -> int:
        """Follow JMP chains without expanding; cycle-safe.

        A pure-jump cycle (a loop that diverges without consuming bits)
        resolves to a member of the cycle, which stays a live JMP row.
        """
        path = []
        on_path = set()
        while True:
            hit = memo.get(index)
            if hit is not None:
                index = hit
                break
            if self.op[index] != OP_JMP or index in on_path:
                break
            path.append(index)
            on_path.add(index)
            index = self.a[index]
        for j in path:
            memo[j] = index
        return index

    def compact(self) -> int:
        """Deduplicate the table in place; returns rows removed.

        Three DAG-aware rewrites, iterated to a fixed point:

        1. *jump threading* -- every reference through a ``JMP`` chain is
           rewritten to the chain's final row, making the jumps garbage;
        2. *congruence merging* -- rows with identical
           ``(op, a, b, payload)`` after threading are merged bottom-up
           (value numbering over the row graph), which catches duplicate
           subgraphs produced by separate stub expansions that the
           allocation-time interning could not see (their rows were
           emitted as mutable stubs);
        3. *reachability* -- rows no longer referenced from the root, a
           pending stub, or a lowering-memo entry are dropped and the
           table renumbered.

        None of this changes any root-to-leaf bit sequence: jumps
        consume no bits and merged rows are behaviorally identical, so
        samples remain bit-for-bit what the trampoline produces.  Call
        between sampling runs only (drivers snapshot row arrays); the
        pipeline compacts once at build time.
        """
        before = len(self.op)
        op, a, b, payload = self.op, self.a, self.b, self.payload
        final: Dict[int, int] = {}

        # Stubs (mutable) and jump-cycle members must never merge; give
        # them unique congruence keys.
        def row_key(i: int, canon) -> tuple:
            o = op[i]
            if o == OP_BIT:
                return (o, canon(a[i]), canon(b[i]), -1)
            if o == OP_LEAF:
                return (o, -1, -1, payload[i])
            if o == OP_FAIL:
                return (o, -1, -1, -1)
            return (o, "unique", i, -1)

        # Union-find over rows, seeded by jump threading.
        parent = list(range(before))

        def find(i: int) -> int:
            root = i
            while parent[root] != root:
                root = parent[root]
            while parent[i] != root:
                parent[i], i = root, parent[i]
            return root

        def canon(i: int) -> int:
            return find(self._final_target(i, final))

        changed = True
        while changed:
            changed = False
            seen: Dict[tuple, int] = {}
            for i in range(before):
                if find(i) != i or op[i] == OP_JMP:
                    continue
                key = row_key(i, canon)
                rep = seen.get(key)
                if rep is None:
                    seen[key] = i
                elif find(rep) != find(i):
                    parent[find(i)] = find(rep)
                    changed = True

        # Closed tables never expand again: the memos are dead weight
        # and must not pin garbage rows.  A table with call rows is
        # never closed in this sense -- fresh sub-exit states lower new
        # return continuations lazily, and those lowerings must keep
        # hitting the memos or back-edges would reopen.
        if not self._pending and not self.calls:
            self._lower_memo.clear()
            self._enter_memo.clear()
            self._loopk_intern.clear()

        roots = [canon(self.root)]
        roots.extend(canon(i) for i in self._pending)
        roots.extend(canon(entry[2]) for entry in self._lower_memo.values())
        roots.extend(canon(entry[3]) for entry in self._enter_memo.values())

        live: List[int] = []
        marked = set()
        stack = list(roots)
        while stack:
            i = stack.pop()
            if i in marked:
                continue
            marked.add(i)
            live.append(i)
            o = op[i]
            if o == OP_BIT:
                stack.append(canon(a[i]))
                stack.append(canon(b[i]))
            elif o == OP_JMP:  # surviving jump-cycle member
                stack.append(canon(a[i]))
            elif o == OP_CALL:
                stack.append(canon(a[i]))  # the subroutine entry
                for target in self.calls[payload[i]].returns.values():
                    stack.append(canon(target))
        live.sort()
        remap = {old: new for new, old in enumerate(live)}

        def renumber(i: int) -> int:
            return remap[canon(i)]

        new_op = [op[i] for i in live]
        new_a = [
            renumber(a[i]) if op[i] in (OP_BIT, OP_JMP, OP_CALL) else -1
            for i in live
        ]
        new_b = [renumber(b[i]) if op[i] == OP_BIT else -1 for i in live]
        new_payload = [
            payload[i] if op[i] in (OP_LEAF, OP_CALL) else -1 for i in live
        ]
        # Call records of live rows carry row numbers too; records of
        # dropped rows are never consulted again and stay stale.
        for i in live:
            if op[i] == OP_CALL:
                record = self.calls[payload[i]]
                record.returns = {
                    p: renumber(t) for p, t in record.returns.items()
                }

        new_root = renumber(self.root)
        new_fail = -1
        if self._fail_node >= 0:
            target = canon(self._fail_node)
            new_fail = remap.get(target, -1)
        new_pending = {
            renumber(i): entry for i, entry in self._pending.items()
        }
        new_lower_memo = {
            key: (entry[0], entry[1], renumber(entry[2]))
            for key, entry in self._lower_memo.items()
        }
        new_enter_memo = {
            key: (entry[0], entry[1], entry[2], renumber(entry[3]))
            for key, entry in self._enter_memo.items()
        }
        self.op, self.a, self.b, self.payload = new_op, new_a, new_b, new_payload
        self.root = new_root
        self._fail_node = new_fail
        self._pending = new_pending
        self._lower_memo = new_lower_memo
        self._enter_memo = new_enter_memo
        self._row_intern = {}
        if self.dedupe:
            for i in range(len(self.op)):
                if self.op[i] != OP_STUB:
                    self._row_intern.setdefault(
                        (self.op[i], self.a[i], self.b[i], self.payload[i]), i
                    )
        removed = before - len(self.op)
        self.compacted_rows += removed
        self.version += 1
        return removed

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.op)

    @property
    def pending_stubs(self) -> int:
        return len(self._pending)

    def stats(self) -> Dict[str, int]:
        counts = [0] * len(OP_NAMES)
        for op in self.op:
            counts[op] += 1
        return {
            "nodes": len(self.op),
            "payloads": len(self.payloads),
            "expansions": self.expansions,
            "bit": counts[OP_BIT],
            "leaf": counts[OP_LEAF],
            "fail": counts[OP_FAIL],
            "jmp": counts[OP_JMP],
            "stub": counts[OP_STUB],
            "call": counts[OP_CALL],
            "dedup_hits": self.dedup_hits,
            "compacted_rows": self.compacted_rows,
        }

    def map_payloads(self, extract: Optional[Callable[[object], object]]):
        """Apply ``extract`` once per distinct payload (not per sample).

        The mapped list is remembered per ``(version, extract)``, with
        ``extract`` compared by identity: a repeat call with the same
        ``extract`` object on an unchanged table returns the same list
        (callers must not mutate it).  So ``extract`` runs once per
        payload per table version and ``extract`` object, and must be a
        pure function of the payload.
        """
        memo = self._mapped
        if memo is not None and memo[0] == self.version \
                and memo[1] is extract:
            return memo[2]
        if extract is None:
            mapped = list(self.payloads)
        else:
            mapped = [extract(value) for value in self.payloads]
        # The memo holds ``extract`` itself, so its identity is stable.
        self._mapped = (self.version, extract, mapped)
        return mapped


def lower_cftree(
    tree: CFTree, max_nodes: int = 2_000_000, dedupe: bool = True
) -> NodeTable:
    """Lower a debiased CF tree to a :class:`NodeTable`."""
    return NodeTable.from_cftree(tree, max_nodes, dedupe)
