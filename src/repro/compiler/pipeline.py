"""``Pipeline``: the staged compiler (normalize -> build -> optimize -> lower).

The seed ran Definition 3.13 as ad-hoc function calls
(``compile_cpgcl`` -> ``elim_choices`` -> ``debias`` -> ``lower_cftree``)
scattered across every entry point.  The pipeline makes the stages
explicit, named, and inspectable:

- **normalize** -- intern the command and initial state to canonical
  representatives (structural hashing, :mod:`repro.compiler.normalize`)
  and derive the content digest that keys the compilation cache;
- **build** -- CF-tree construction (Definition 3.5);
- **optimize** -- run the named tree passes
  (:mod:`repro.compiler.passes`), recording DAG node counts before and
  after each pass;
- **lower** -- DAG-aware :class:`~repro.engine.table.NodeTable`
  emission: hash-consed row allocation, a bounded eager expansion of
  loop entries, and a compaction that threads jumps and merges
  congruent rows.

``compile`` returns a :class:`CompiledProgram`: the final tree, the
node table, and a ``stats`` dict with per-stage metrics (the CLI's
``compile`` subcommand renders it).  Results are cached by content
digest -- in memory and, when configured, on disk -- so repeated
``BatchSampler.from_command`` calls, CLI invocations, harness rows, and
MCMC replays across processes reuse compiled artifacts.
"""

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.cftree.compile import compile_cache_stats, compile_cpgcl
from repro.cftree.tree import CFTree, Choice, Fix
from repro.compiler.cache import CompilationCache, get_cache
from repro.compiler.digest import Undigestable, fingerprint, program_digest
from repro.compiler.normalize import (
    normalize_command,
    normalize_state,
    normalize_stats,
)
from repro.compiler.passes import DEFAULT_PASSES, TREE_PASSES, lookup
from repro.engine.table import NodeTable
from repro.lang.state import State
from repro.lang.syntax import Command

#: Default bound on build-time loop-entry expansions.  Expansions beyond
#: the bound happen lazily during sampling exactly as before; the eager
#: budget just gives compaction a representative table to shrink.
EAGER_EXPAND_DEFAULT = 1024

#: Entries the per-pipeline digest memo holds before it starts over.
_DIGEST_MEMO_CAPACITY = 4096


def dag_size(tree: CFTree, unfold_fix: bool = True) -> int:
    """Distinct nodes reachable from ``tree``, shared subtrees counted once.

    The metric the per-pass stats report: ``tree_size`` counts tree
    paths, which double-counts shared subtrees.  Equal but distinct
    subtrees still count once each here; the lowering's row
    hash-consing merges those.  With ``unfold_fix`` each ``Fix`` is
    unfolded one step at its entry state (the same evaluation eager
    lowering performs), so loop bodies contribute; the unfolding
    terminates because a loop's body tree never contains the loop's own
    ``Fix`` node again (leaves re-enter it through the lowering memo
    instead).
    """
    seen = set()
    stack = [tree]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += 1
        if isinstance(node, Choice):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Fix) and unfold_fix:
            if node.guard(node.init):
                stack.append(node.body(node.init))
            else:
                stack.append(node.cont(node.init))
    return count


class CompiledProgram:
    """The pipeline's artifact: final tree, node table, per-stage stats."""

    __slots__ = (
        "command",
        "sigma",
        "passes",
        "tree",
        "table",
        "digest",
        "stats",
        "source",
    )

    def __init__(self, command, sigma, passes, tree, table, digest, stats,
                 source="built"):
        self.command = command
        self.sigma = sigma
        self.passes = tuple(passes)
        self.tree = tree  # None when rehydrated from the disk cache
        self.table = table
        self.digest = digest
        self.stats = stats
        # "built" = constructed in this process, "disk" = rehydrated
        # from the on-disk tier.  In-memory cache hits return the
        # original object (source unchanged); observe hit counts through
        # CompilationCache.stats() instead.
        self.source = source

    # -- sampling --------------------------------------------------------

    def sampler(self, tied: bool = True):
        """A :class:`~repro.engine.api.BatchSampler` over the table."""
        from repro.engine.api import BatchSampler

        return BatchSampler(self.table, tied=tied)

    def collect(self, n, **kwargs):
        return self.sampler().collect(n, **kwargs)

    def sample(self, source, max_steps=None):
        return self.sampler().sample(source, max_steps)

    # -- disk round-trip -------------------------------------------------

    def disk_payload(self) -> Optional[dict]:
        """A picklable record, or None when the table is unspillable.

        Every table freezes through :mod:`repro.engine.freeze`: rows,
        tagged payload values, and -- for open tables, warm loop-state
        spaces mid-expansion -- every keyed memo entry, pending stub,
        and call record as content-digest triples.
        """
        from repro.engine.freeze import freeze_table

        frozen = freeze_table(self.table)
        if frozen is None:
            return None
        return {
            "digest": self.digest,
            "passes": self.passes,
            "stats": self.stats,
            "table": frozen,
        }

    @classmethod
    def from_disk_payload(cls, payload: dict) -> "CompiledProgram":
        from repro.engine.freeze import thaw_table

        return cls(
            command=None,
            sigma=None,
            passes=payload["passes"],
            tree=None,
            table=thaw_table(payload["table"]),
            digest=payload["digest"],
            stats=dict(payload.get("stats") or {}),
            source="disk",
        )

    def __repr__(self):
        return "CompiledProgram(%s, %d rows, passes=%s, source=%s)" % (
            (self.digest or "<undigestable>")[:12],
            len(self.table),
            "+".join(self.passes),
            self.source,
        )


class Pipeline:
    """A configured staged compiler; cheap to construct, safe to share."""

    def __init__(
        self,
        passes: Tuple[str, ...] = DEFAULT_PASSES,
        max_nodes: int = 2_000_000,
        eager_expand: int = EAGER_EXPAND_DEFAULT,
        cache: Optional[CompilationCache] = None,
        use_cache: bool = True,
    ):
        self.pass_names = tuple(passes)
        self.passes = lookup(TREE_PASSES, passes)
        self.max_nodes = max_nodes
        self.eager_expand = eager_expand
        self.use_cache = use_cache
        self._cache = cache
        # The table-shaping knob beyond the core (program, passes,
        # max_nodes) key -- part of every cache digest so
        # differently-configured pipelines never collide on one entry.
        self._digest_options = ("eager_expand", eager_expand)
        #: (id(command), id(sigma)) -> (command, sigma, digest,
        #: undigestable reason); see :meth:`_digest`.
        self._digests: Dict[Tuple[int, int], tuple] = {}

    @property
    def cache(self) -> CompilationCache:
        return self._cache if self._cache is not None else get_cache()

    # -- the stages ------------------------------------------------------

    def compile(
        self,
        command: Command,
        sigma: Optional[State] = None,
        measure_raw: bool = False,
    ) -> CompiledProgram:
        """Run all stages on ``(command, sigma)``.

        ``measure_raw=True`` additionally lowers the optimized tree
        *without* row dedupe and compaction and records the row-count
        delta under ``stats["lower"]["rows_raw"]`` (used by ``zar
        compile`` and the compiler benchmark; costs a second lowering).
        """
        # One shared empty state: a fresh State() per call would pin a
        # new entry in the state interner's id table every time.
        sigma = sigma if sigma is not None else State.empty()

        # normalize ------------------------------------------------------
        t0 = time.perf_counter()
        command = normalize_command(command)
        sigma = normalize_state(sigma)
        digest, undigestable = self._digest(command, sigma)
        normalize_seconds = time.perf_counter() - t0

        hit = self._hit(
            digest, measure_raw,
            lambda: self._optimize(compile_cpgcl(command, sigma))[0],
        )
        if hit is not None:
            return hit

        stats: Dict[str, object] = {
            "digest": digest,
            "undigestable": undigestable,
            "passes": list(self.pass_names),
            "normalize": dict(normalize_stats(), seconds=normalize_seconds),
        }

        # build ----------------------------------------------------------
        t0 = time.perf_counter()
        tree = compile_cpgcl(command, sigma)
        stats["build"] = {
            "seconds": time.perf_counter() - t0,
            "dag_nodes": dag_size(tree),
        }

        # optimize -------------------------------------------------------
        tree, stats["optimize"] = self._optimize(tree)

        # lower ----------------------------------------------------------
        return self._lower_and_store(
            command, sigma, tree, digest, stats, measure_raw
        )

    def compile_tree(
        self,
        tree: CFTree,
        key_parts: Optional[tuple] = None,
        measure_raw: bool = False,
    ) -> CompiledProgram:
        """Pipeline a pre-built CF tree (``uniform_tree``, categorical
        stick-breaking, ...) through optimize + lower.

        ``key_parts`` names the construction for content addressing when
        the tree itself is undigestable (rejection wrappers contain
        ``Fix`` closures): e.g. ``("uniform_tree", 6)``.
        """
        digest = None
        undigestable = None
        try:
            if key_parts is not None:
                digest = fingerprint(
                    "tree-key", tuple(key_parts), self.pass_names,
                    self.max_nodes, self._digest_options,
                )
            else:
                digest = fingerprint(
                    "tree", tree, self.pass_names, self.max_nodes,
                    self._digest_options,
                )
        except Undigestable as err:
            undigestable = str(err)

        hit = self._hit(digest, measure_raw, lambda: self._optimize(tree)[0])
        if hit is not None:
            return hit

        stats: Dict[str, object] = {
            "digest": digest,
            "undigestable": undigestable,
            "passes": list(self.pass_names),
        }
        tree, stats["optimize"] = self._optimize(tree)
        return self._lower_and_store(
            None, None, tree, digest, stats, measure_raw
        )

    # -- helpers ---------------------------------------------------------

    def _digest(self, command: Command,
                sigma: State) -> Tuple[Optional[str], Optional[str]]:
        """``(digest, undigestable reason)`` of canonical ``(command,
        sigma)``, hashed once per pair.

        The memo is keyed on the ids and each entry holds both objects,
        so an id cannot be recycled while its entry lives (the
        interner's ``_by_id`` idiom).
        """
        key = (id(command), id(sigma))
        entry = self._digests.get(key)
        if entry is None:
            digest = undigestable = None
            try:
                digest = program_digest(
                    command, sigma, self.pass_names, self.max_nodes,
                    self._digest_options,
                )
            except Undigestable as err:
                undigestable = str(err)
            if len(self._digests) >= _DIGEST_MEMO_CAPACITY:
                self._digests.clear()
            entry = (command, sigma, digest, undigestable)
            self._digests[key] = entry
        return entry[2], entry[3]

    def _hit(
        self,
        digest: Optional[str],
        measure_raw: bool,
        optimized_tree: Callable[[], CFTree],
    ) -> Optional[CompiledProgram]:
        """The cached artifact for ``digest``, or None on a miss.

        ``measure_raw`` always misses: the raw baseline lowers the
        optimized tree again.  A table thawed from disk is rebound to
        ``optimized_tree()`` -- a cheap rebuild that re-attaches live
        closures; expansions are *not* redone, which is the whole point
        of the spill.
        """
        if digest is None or not self.use_cache or measure_raw:
            return None
        hit = self.cache.get(digest)
        if hit is not None and hit.table.needs_rebind:
            t0 = time.perf_counter()
            tree = optimized_tree()
            hit.table.thaw_bind(tree)
            hit.tree = tree
            hit.stats["thaw"] = {
                "seconds": time.perf_counter() - t0,
                "rows": len(hit.table),
                "pending": hit.table.pending_stubs,
            }
        return hit

    def _optimize(self, tree):
        records: List[dict] = []
        before = dag_size(tree)
        for name, run in zip(self.pass_names, self.passes):
            t0 = time.perf_counter()
            tree = run(tree)
            seconds = time.perf_counter() - t0
            after = dag_size(tree)
            records.append(
                {
                    "name": name,
                    "dag_nodes_before": before,
                    "dag_nodes_after": after,
                    "seconds": seconds,
                }
            )
            before = after
        return tree, records

    def _lower_and_store(self, command, sigma, tree, digest, stats,
                         measure_raw) -> CompiledProgram:
        """Lower ``tree`` (hash-consed rows, bounded eager expansion,
        compaction), finish ``stats`` and cache the artifact."""
        t0 = time.perf_counter()
        table = NodeTable.from_cftree(tree, self.max_nodes)
        closed = table.expand_all(limit=self.eager_expand)
        removed = table.compact()
        lower: Dict[str, object] = {
            "rows": len(table),
            "closed": closed,
            "expansions": table.expansions,
            "dedup_hits": table.dedup_hits,
            "compacted_rows": removed,
            "seconds": time.perf_counter() - t0,
        }
        if measure_raw:
            lower.update(self._measure_raw(tree, len(table)))
        stats["lower"] = lower
        stats["cftree_cache"] = compile_cache_stats()
        program = CompiledProgram(
            command, sigma, self.pass_names, tree, table, digest, stats,
        )
        if digest is not None and self.use_cache:
            self.cache.put(digest, program)
        return program

    def _measure_raw(self, tree, rows: int) -> Dict[str, object]:
        """``rows_raw``/``reduction_pct``: ``rows`` against the baseline
        lowering of the same optimized ``tree`` -- no row dedupe, no
        compaction, same expansion budget."""
        table = NodeTable.from_cftree(tree, self.max_nodes, dedupe=False)
        table.expand_all(limit=self.eager_expand)
        raw = len(table)
        return {
            "rows_raw": raw,
            "reduction_pct": round(100.0 * (raw - rows) / raw, 2),
        }


#: The shared default pipeline behind ``BatchSampler.from_command`` etc.
_DEFAULT: Optional[Pipeline] = None


def default_pipeline() -> Pipeline:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Pipeline()
    return _DEFAULT


def compile_program(
    command: Command,
    sigma: Optional[State] = None,
    passes: Tuple[str, ...] = DEFAULT_PASSES,
    use_cache: bool = True,
    measure_raw: bool = False,
) -> CompiledProgram:
    """Compile through a (possibly shared) pipeline.

    The default-configuration fast path reuses one ``Pipeline`` instance
    so every entry point shares the same compilation cache.
    """
    if passes == DEFAULT_PASSES and use_cache:
        pipeline = default_pipeline()
    else:
        pipeline = Pipeline(passes=passes, use_cache=use_cache)
    return pipeline.compile(command, sigma, measure_raw=measure_raw)


def compile_tree(
    tree: CFTree,
    key_parts: Optional[tuple] = None,
    passes: Tuple[str, ...] = ("debias",),
    use_cache: bool = True,
) -> CompiledProgram:
    """Pipeline a pre-built CF tree (see :meth:`Pipeline.compile_tree`)."""
    pipeline = Pipeline(passes=passes, use_cache=use_cache)
    return pipeline.compile_tree(tree, key_parts=key_parts)
