"""Tests for the staged compiler pipeline (repro.compiler, ISSUE 5).

Covers the pass manager (semantics preservation by differential
sampling), the DAG-aware lowering (row deduplication, jump threading,
compaction, and their bit-invisibility), and the structural-key
regression for the old ``(id(command), sigma)`` compile-cache scheme.
"""

import gc
import os
from fractions import Fraction

import pytest

from repro.bits.source import CountingBits
from repro.cftree.compile import compile_cpgcl
from repro.cftree.elim import elim_choices
from repro.cftree.tree import Choice as TChoice, Leaf
from repro.compiler.passes import DEFAULT_PASSES, TREE_PASSES
from repro.compiler.pipeline import (
    CompiledProgram,
    Pipeline,
    compile_program,
    dag_size,
)
from repro.engine.pool import BitPool
from repro.engine.table import OP_JMP, NodeTable
from repro.itree.unfold import cpgcl_to_itree
from repro.lang.expr import Var
from repro.lang.parser import parse_program
from repro.lang.state import State
from repro.lang.sugar import (
    dueling_coins,
    geometric_primes,
    hare_tortoise,
    n_sided_die,
)
from repro.lang.syntax import Assign, Seq, Skip, While
from repro.sampler.run import run_itree

S0 = State()

PROGRAMS = [
    ("die6", n_sided_die(6), 300),
    ("dueling", dueling_coins(Fraction(2, 3)), 200),
    ("geometric", geometric_primes(Fraction(1, 2)), 150),
]

HEAVY_PROGRAMS = [
    ("hare_tortoise", hare_tortoise(Var("time") <= 10), 10),
]

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "programs",
)


def _example(name):
    with open(os.path.join(EXAMPLES, name)) as handle:
        return parse_program(handle.read())


#: (id, program, rows, pending stubs) of the benchmark programs' default
#: tables: lost row sharing shows up here as extra rows.
TABLE_SHAPES = [
    ("die6", lambda: n_sided_die(6), 12, 0),
    ("die200", lambda: n_sided_die(200), 402, 0),
    ("dueling_1_20", lambda: dueling_coins(Fraction(1, 20)), 48, 0),
    ("geometric.gcl", lambda: _example("geometric.gcl"), 613, 2),
    ("hare_tortoise.gcl", lambda: _example("hare_tortoise.gcl"), 3179, 569),
]


def _stream(table, samples, seed, fuel=2_000_000):
    """Sequential (value, bits) pairs off a pooled source."""
    from repro.engine.api import BatchSampler

    sampler = BatchSampler(table)
    source = CountingBits(BitPool(seed))
    out = []
    for _ in range(samples):
        value = sampler.sample(source, fuel)
        out.append((value, source.take_count()))
    return out


def _reference_stream(command, samples, seed, fuel=2_000_000):
    tree = cpgcl_to_itree(command, S0)
    source = CountingBits(BitPool(seed))
    out = []
    for _ in range(samples):
        value = run_itree(tree, source, fuel)
        out.append((value, source.take_count()))
    return out


class TestPassManager:
    def test_registry_has_builtins(self):
        for name in ("elim_choices", "debias"):
            assert name in TREE_PASSES

    def test_unknown_pass_rejected(self):
        with pytest.raises(KeyError, match="no_such_pass.*debias"):
            Pipeline(passes=("no_such_pass",))

    def test_unknown_command_pass_rejected(self):
        with pytest.raises(KeyError, match="no_such_pass.*prune_dead"):
            Pipeline(command_passes=("no_such_pass",))

    def test_custom_pass_registers_and_runs(self, monkeypatch):
        calls = []

        def probe(tree):
            calls.append(tree)
            return tree

        monkeypatch.setitem(TREE_PASSES, "probe_pass", probe)
        pipeline = Pipeline(
            passes=("elim_choices", "probe_pass", "debias"),
            use_cache=False,
        )
        program = pipeline.compile(n_sided_die(4))
        assert len(calls) == 1
        names = [r["name"] for r in program.stats["optimize"]]
        assert names == ["elim_choices", "probe_pass", "debias"]

    @pytest.mark.parametrize(
        "name,command,samples", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    def test_pipeline_bit_exact_vs_trampoline(self, name, command, samples):
        """Acceptance: samples through the full pipeline (all passes,
        dedupe, compaction) are bit-for-bit the trampoline's."""
        program = compile_program(command, use_cache=False)
        assert _stream(program.table, samples, seed=23) == _reference_stream(
            command, samples, seed=23
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name,command,samples", HEAVY_PROGRAMS,
        ids=[p[0] for p in HEAVY_PROGRAMS],
    )
    def test_pipeline_bit_exact_heavy(self, name, command, samples):
        program = compile_program(command, use_cache=False)
        assert _stream(program.table, samples, seed=5) == _reference_stream(
            command, samples, seed=5
        )

    @pytest.mark.parametrize(
        "name,command,samples", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    def test_dedupe_and_compaction_are_bit_invisible(
        self, name, command, samples
    ):
        """Differential sampling with and without row hash-consing and
        compaction: both only merge rows that sample alike, so the
        stream is unchanged bit for bit."""
        default = Pipeline(use_cache=False).compile(command)
        plain = Pipeline(dedupe=False, compact=False, use_cache=False).compile(
            command
        )
        assert len(default.table) < len(plain.table)
        assert _stream(default.table, samples, seed=91) == _stream(
            plain.table, samples, seed=91
        )

    def test_elim_choices_preserves_distribution(self):
        """elim_choices changes the bit stream (it deletes flips) but
        not the outcome distribution; exact check on a loop-free tree
        with duplicated branches."""
        from repro.cftree.semantics import twp

        tree = TChoice(
            Fraction(1, 3),
            TChoice(Fraction(1, 2), Leaf(1), Leaf(1)),
            TChoice(Fraction(1, 4), Leaf(2), Leaf(3)),
        )
        eliminated = elim_choices(tree)
        for outcome in (1, 2, 3):
            f = lambda v, o=outcome: 1 if v == o else 0
            assert twp(tree, f) == twp(eliminated, f)


class TestLowering:
    def test_die_row_reduction_meets_bar(self):
        """Acceptance: >= 20% node-table row reduction on the Table 3
        die from row hash-consing and jump-threading compaction."""
        program = Pipeline(use_cache=False).compile(
            n_sided_die(6), measure_raw=True
        )
        lower = program.stats["lower"]
        assert lower["rows_raw"] > lower["rows"]
        assert lower["reduction_pct"] >= 20.0

    @pytest.mark.parametrize(
        "name,make,rows,pending", TABLE_SHAPES,
        ids=[shape[0] for shape in TABLE_SHAPES],
    )
    def test_default_table_shape(self, name, make, rows, pending):
        table = compile_program(make(), use_cache=False).table
        assert (len(table), table.pending_stubs) == (rows, pending)

    def test_raw_baseline_lowers_the_pruned_program(self):
        # prune_dead drops dead_loop.gcl's inner loop; the raw baseline
        # lowers the same pruned command, so it differs from the table
        # only by row dedup and compaction.
        program = Pipeline(use_cache=False).compile(
            _example("broken/dead_loop.gcl"), measure_raw=True
        )
        assert program.stats["analysis"]["pruned_sites"] > 0
        lower = program.stats["lower"]
        assert lower["rows_raw"] >= lower["rows"]
        assert 0.0 <= lower["reduction_pct"] <= 100.0

    def test_dueling_row_reduction(self):
        program = Pipeline(use_cache=False).compile(
            dueling_coins(Fraction(2, 3)), measure_raw=True
        )
        assert program.stats["lower"]["reduction_pct"] >= 20.0

    def test_compaction_threads_all_jumps_when_closed(self):
        program = Pipeline(use_cache=False).compile(n_sided_die(6))
        stats = program.table.stats()
        assert stats["stub"] == 0
        assert stats["jmp"] == 0  # every jump threaded away

    def test_open_table_keeps_expanding_after_compact(self):
        # geometric_primes has an unbounded loop-state space: the build
        # expands a bounded prefix, compacts, and later samples must
        # still be able to grow the table through pending stubs.
        command = geometric_primes(Fraction(1, 2))
        program = Pipeline(
            eager_expand=32, use_cache=False
        ).compile(command)
        assert program.table.pending_stubs > 0
        assert _stream(program.table, 100, seed=3) == _reference_stream(
            command, 100, seed=3
        )

    def test_compact_is_idempotent(self):
        program = Pipeline(use_cache=False).compile(n_sided_die(6))
        assert program.table.compact() == 0

    def test_row_dedupe_at_allocation(self):
        # Two structurally equal leaves lower to one row when dedupe is
        # on, two rows otherwise.
        tree = TChoice(Fraction(1, 2), Leaf(5), Leaf(5))
        deduped = NodeTable.from_cftree(tree, dedupe=True)
        plain = NodeTable.from_cftree(tree, dedupe=False)
        assert len(deduped) < len(plain)
        assert deduped.dedup_hits >= 1

    def test_divergent_self_jump_survives_compaction(self):
        # while true { skip } lowers to a pure jump cycle; compaction
        # must keep it (and not hang or corrupt the table).
        from repro.lang.expr import TRUE
        from repro.sampler.run import FuelExhausted

        program = Pipeline(use_cache=False).compile(While(TRUE, Skip()))
        table = program.table
        assert any(op == OP_JMP for op in table.op)
        with pytest.raises(FuelExhausted):
            _stream(table, 1, seed=0, fuel=50)

    def test_dag_size_counts_shared_once(self):
        leaf = Leaf(1)
        shared = TChoice(Fraction(1, 2), leaf, leaf)
        duplicated = TChoice(Fraction(1, 2), Leaf(1), Leaf(1))
        assert dag_size(shared) == 2
        assert dag_size(duplicated) == 3


class TestStructuralCompileCache:
    """Regression for the seed's ``(id(command), sigma)`` memo keys."""

    def test_equal_commands_share_compiled_tree(self):
        # Two structurally equal but distinct command objects must hit
        # the same cache entry -- impossible under id-keying.
        a = Seq(Assign("x", 3), Assign("y", Var("x")))
        b = Seq(Assign("x", 3), Assign("y", Var("x")))
        assert a is not b
        assert compile_cpgcl(a, S0) is compile_cpgcl(b, S0)

    def test_id_reuse_cannot_cross_contaminate(self):
        # Churn through many short-lived distinct programs so the
        # allocator aggressively reuses addresses; every compile must
        # reflect its own program, never a stale entry whose keyed
        # address was recycled.
        for i in range(200):
            command = Seq(Assign("x", i), Assign("y", i + 1))
            tree = compile_cpgcl(command, S0)
            assert isinstance(tree, Leaf)
            assert tree.value["x"] == i
            assert tree.value["y"] == i + 1
            del command, tree
            if i % 50 == 0:
                gc.collect()

    def test_distinct_states_distinct_entries(self):
        command = Assign("y", Var("x"))
        t1 = compile_cpgcl(command, State(x=1))
        t2 = compile_cpgcl(command, State(x=2))
        assert t1.value["y"] == 1
        assert t2.value["y"] == 2

    def test_interner_fast_path_is_bounded(self):
        # Loop-heavy sampling interns a fresh (structurally recurring)
        # object per iteration: the id-keyed fast path pins its keys, so
        # it must be bounded independently of the structural table.
        from repro.compiler.normalize import Interner

        interner = Interner(capacity=64)
        for i in range(1000):
            interner.intern(State(x=1))
        assert len(interner._by_id) <= 64

    def test_interner_overflow_keeps_recent_canonicals(self):
        # Overflow drops the *oldest half* instead of clearing: a full
        # clear would change the identity of every canonical object at
        # once and cold-start each downstream id-keyed memo.
        from repro.compiler.normalize import Interner

        interner = Interner(capacity=8)
        recent = [State(x=i) for i in range(4, 8)]
        for i in range(8):
            interner.intern(State(x=i))
        interner.intern(State(x=99))  # triggers the half-drop
        for state in recent:
            canonical = interner.intern(State(x=state["x"]))
            # Recent canonicals kept their identity across the drop.
            assert canonical is interner.intern(State(x=state["x"]))
        assert len(interner._canon) <= 8

    def test_interner_identity_stable_for_live_canonicals(self):
        # The id-recycling regression: after heavy churn, an object the
        # caller still holds must keep interning to ITSELF -- if the
        # table dropped it while a dead object's id got recycled into
        # the fast path, a live key could alias a stale canonical.
        from repro.compiler.normalize import Interner

        interner = Interner(capacity=32)
        keeper = interner.intern(State(x=-1))
        for i in range(200):
            interner.intern(State(x=i))  # churn through several drops
        again = interner.intern(State(x=-1))
        assert again == keeper
        assert interner.intern(keeper) is interner.intern(keeper)


class TestCompiledProgram:
    def test_stats_shape(self):
        program = compile_program(n_sided_die(6))
        assert isinstance(program, CompiledProgram)
        assert program.digest
        assert [r["name"] for r in program.stats["optimize"]] == list(
            DEFAULT_PASSES
        )
        lower = program.stats["lower"]
        assert lower["rows"] == len(program.table)
        memo = program.stats["cftree_cache"]
        assert memo["hits"] >= 0 and memo["capacity"] > 0

    def test_collect_roundtrip(self):
        program = compile_program(n_sided_die(6))
        samples = program.collect(500, seed=11, extract=lambda s: s["x"])
        assert len(samples) == 500
        assert set(samples.values) <= set(range(1, 7))

    def test_sampler_entry_points_share_cached_table(self):
        from repro.engine.api import BatchSampler

        first = BatchSampler.from_command(n_sided_die(6))
        second = BatchSampler.from_command(n_sided_die(6))
        assert first.table is second.table
