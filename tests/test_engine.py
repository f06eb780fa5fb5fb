"""Unit tests for the batch engine (table lowering, pools, drivers)."""

import random
from fractions import Fraction

import pytest

from repro.bits.source import BitsExhausted, ReplayBits
from repro.cftree.tree import Choice, Fail, Leaf
from repro.cftree.uniform import bernoulli_tree, uniform_tree
from repro.engine import (
    ENGINE_FAIL,
    BatchSampler,
    BitPool,
    HAVE_NUMPY,
    LoweringError,
    NodeTable,
    TableOverflow,
    lower_cftree,
)
from repro.compiler.pipeline import Pipeline, compile_program
from repro.engine.freeze import freeze_table, thaw_table
from repro.engine.table import OP_BIT, OP_JMP, OP_LEAF
from repro.lang.expr import Var
from repro.lang.state import State
from repro.lang.sugar import flip, geometric_primes, n_sided_die
from repro.lang.syntax import Observe, Seq
from repro.sampler.record import SampleSet, collect
from repro.stats.distributions import uniform_pmf

from statistical import assert_event_frequency, assert_pmf

S0 = State()


class TestLowering:
    def test_perfect_tree_layout(self):
        # uniform_tree(4) is two fair bits: 3 BIT nodes over 4 leaves.
        table = lower_cftree(uniform_tree(4))
        stats = table.stats()
        assert stats["bit"] == 3
        assert stats["leaf"] == 4
        assert stats["stub"] == 0

    def test_rejection_loop_closes(self):
        # uniform_tree(6) wraps a rejection loop; after full expansion
        # the loopback must be a back-edge (a jump), not fresh copies.
        table = lower_cftree(uniform_tree(6))
        assert table.expand_all()
        stats = table.stats()
        assert stats["stub"] == 0
        assert stats["jmp"] >= 1
        assert stats["leaf"] == 6
        # Fixed point: expanding again changes nothing.
        size = len(table)
        assert table.expand_all()
        assert len(table) == size

    def test_payloads_deduplicated(self):
        # bernoulli_tree(1/3) has many True/False leaves but only two
        # distinct payloads.
        table = lower_cftree(bernoulli_tree(Fraction(1, 3)))
        table.expand_all()
        assert len(table.payloads) == 2

    def test_biased_choice_rejected(self):
        biased = Choice(Fraction(1, 3), Leaf(0), Leaf(1))
        with pytest.raises(LoweringError):
            lower_cftree(biased)

    def test_overflow_guard(self):
        with pytest.raises(TableOverflow):
            table = NodeTable.from_cftree(
                uniform_tree(64), max_nodes=16
            )
            table.expand_all()

    def test_fail_node_shared(self):
        tree = Choice(Fraction(1, 2), Fail(), Fail())
        table = lower_cftree(tree)
        assert table.stats()["fail"] == 1


class TestSequentialDriver:
    def test_explicit_bits_select_outcome(self):
        sampler = BatchSampler.from_cftree(uniform_tree(4))
        # True selects the left branch (the paper's "heads").
        assert sampler.sample(ReplayBits([True, True])) == 0
        assert sampler.sample(ReplayBits([True, False])) == 1
        assert sampler.sample(ReplayBits([False, True])) == 2
        assert sampler.sample(ReplayBits([False, False])) == 3

    def test_exhaustion_propagates(self):
        sampler = BatchSampler.from_cftree(uniform_tree(4))
        with pytest.raises(BitsExhausted):
            sampler.sample(ReplayBits([True]))

    def test_untied_failure_sentinel(self):
        command = Seq(flip("b", Fraction(1, 2)), Observe(Var("b")))
        tied = BatchSampler.from_command(command)
        open_sampler = BatchSampler(tied.table, tied=False)
        values = open_sampler.collect(
            200, seed=3, backend="python"
        ).values
        assert ENGINE_FAIL in values
        assert any(value is not ENGINE_FAIL for value in values)


class TestExplicitSource:
    """``collect(source=...)`` runs the pooled Python driver over the
    source one bit at a time: chunking never changes the stream, and a
    finite source runs out exactly where the one-sample walker's does."""

    PREFIX = [bool(bit) for bit in random.Random(5).choices((0, 1), k=600)]

    def _stepped(self, sampler, n, fuel):
        source = ReplayBits(self.PREFIX)
        values, bits = [], []
        for _ in range(n):
            before = source.consumed
            values.append(sampler.sample(source, fuel))
            bits.append(source.consumed - before)
        return values, bits

    @pytest.mark.parametrize("fuel", [None, 500])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_chunking_keeps_the_stream(self, batch_size, fuel):
        sampler = BatchSampler.from_command(n_sided_die(6))
        n = 60
        whole = sampler.collect(n, source=ReplayBits(self.PREFIX), fuel=fuel)
        chunked = sampler.collect(
            n, source=ReplayBits(self.PREFIX), fuel=fuel,
            batch_size=batch_size,
        )
        values, bits = self._stepped(sampler, n, fuel)
        assert chunked.values == whole.values == values
        assert chunked.bits == whole.bits == bits

    @pytest.mark.parametrize("batch_size", [None, 7])
    def test_exhaustion_at_the_walker_position(self, batch_size):
        sampler = BatchSampler.from_command(n_sided_die(6))
        prefix = self.PREFIX[:100]
        walker = ReplayBits(prefix)
        with pytest.raises(BitsExhausted):
            while True:
                sampler.sample(walker)
        collected = ReplayBits(prefix)
        with pytest.raises(BitsExhausted):
            sampler.collect(1000, source=collected, batch_size=batch_size)
        assert collected.consumed == walker.consumed

    def test_source_wins_over_the_requested_backend(self):
        sampler = BatchSampler.from_command(n_sided_die(6))
        python = sampler.collect(40, source=ReplayBits(self.PREFIX))
        for backend in ("native", "numpy", "auto"):
            other = sampler.collect(
                40, source=ReplayBits(self.PREFIX), backend=backend
            )
            assert (other.values, other.bits) == (python.values, python.bits)


class TestBatchDrivers:
    BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_die_distribution(self, backend):
        sampler = BatchSampler.from_command(n_sided_die(6))
        samples = sampler.collect(
            6000, seed=5, extract=lambda s: s["x"], backend=backend
        )
        assert isinstance(samples, SampleSet)
        assert len(samples) == 6000
        assert_pmf(samples.values, uniform_pmf(6, start=1))
        # Exact expected bit cost is 11/3; six sigma of the mean.
        assert abs(samples.mean_bits() - 11 / 3) < 0.2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seed_determinism(self, backend):
        sampler = BatchSampler.from_command(n_sided_die(6))
        first = sampler.collect(500, seed=9, backend=backend)
        second = sampler.collect(500, seed=9, backend=backend)
        assert first.values == second.values
        assert first.bits == second.bits

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_conditioning_restarts_counted(self, backend):
        # observe(b) rejects half the runs; burned bits must show up in
        # the per-sample accounting (mean well above 1 bit).
        command = Seq(flip("b", Fraction(1, 2)), Observe(Var("b")))
        sampler = BatchSampler.from_command(command)
        samples = sampler.collect(2000, seed=6, backend=backend)
        assert all(value["b"] is True for value in samples.values)
        # E[bits] = sum over restarts: 1 * sum_k k (1/2)^k = 2.
        assert abs(samples.mean_bits() - 2.0) < 0.35

    def test_collect_dispatches_tables(self):
        # repro.sampler.record.collect accepts tables and batch samplers.
        sampler = BatchSampler.from_command(n_sided_die(6))
        through_sampler = collect(sampler, 300, seed=1)
        through_table = collect(sampler.table, 300, seed=1)
        assert through_sampler.values == through_table.values

    def test_geometric_unbounded_state_space(self):
        # The geometric loop's counter is unbounded: lowering must stay
        # lazy and only materialize states actually reached.
        sampler = BatchSampler.from_command(geometric_primes(Fraction(1, 2)))
        samples = sampler.collect(
            2000, seed=8, extract=lambda s: s["h"], backend="python"
        )
        # Posterior over primes: every value is prime.
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        assert set(samples.values) <= primes
        # P(h=2 | prime) = (1/8) / (1/8 + 1/16 + 1/64 + ...) -- check
        # the dominant outcome with a CP bound vs the exact posterior.
        from repro.stats.distributions import geometric_primes_pmf

        pmf = geometric_primes_pmf(Fraction(1, 2))
        assert_event_frequency(
            samples.values, lambda h: h == 2, pmf[2]
        )


class TestPayloadMapping:
    """``extract`` runs once per payload per table version and
    ``extract`` object (``NodeTable.map_payloads`` remembers the list)."""

    def test_repeat_collects_reuse_the_mapping(self):
        sampler = BatchSampler(
            compile_program(n_sided_die(6), use_cache=False).table
        )
        calls = []

        def extract(state):
            calls.append(state)
            return state["x"]

        sampler.collect(300, seed=1, extract=extract, backend="python")
        second = sampler.collect(300, seed=2, extract=extract,
                                 backend="python")
        payloads = len(sampler.table.payloads)
        assert len(calls) == payloads

        def other(state):
            calls.append(state)
            return state["x"]

        again = sampler.collect(300, seed=2, extract=other, backend="python")
        assert len(calls) == 2 * payloads
        assert again.values == second.values

    def test_open_table_maps_payloads_added_by_expansion(self):
        # No eager expansion, so sampling is what adds loop states (and
        # their terminal payloads) to the table.
        pipeline = Pipeline(use_cache=False, eager_expand=0)
        command = geometric_primes(Fraction(1, 2))
        extract = lambda s: s["h"]  # noqa: E731
        warm = BatchSampler(pipeline.compile(command).table)
        warm.collect(3, seed=4, extract=extract, backend="python")
        mapped = len(warm.table.payloads)
        result = warm.collect(2000, seed=5, extract=extract,
                              backend="python")
        assert len(warm.table.payloads) > mapped
        fresh = BatchSampler(pipeline.compile(command).table)
        assert result.values == fresh.collect(
            2000, seed=5, extract=extract, backend="python"
        ).values

    @pytest.mark.parametrize("left, right", [(True, 1), (Fraction(1), 1)])
    def test_equal_payloads_of_different_types_stay_distinct(
        self, left, right
    ):
        # ``True == 1 == Fraction(1)`` and they hash alike, but each leaf
        # must return the value it was built with.
        def typed(values):
            return {(type(value), value) for value in values}

        sampler = BatchSampler.from_cftree(
            Choice(Fraction(1, 2), Leaf(left), Leaf(right))
        )
        expected = {(type(left), left), (type(right), right)}
        assert typed(sampler.table.payloads) == expected
        result = sampler.collect(200, seed=3, backend="python")
        assert typed(result.values) == expected

        thawed = thaw_table(freeze_table(sampler.table))
        assert typed(thawed.payloads) == expected
        assert typed(
            BatchSampler(thawed).collect(200, seed=3, backend="python").values
        ) == expected
        for value in (left, right):
            row = thawed._leaf(value)
            assert type(thawed.payloads[thawed.payload[row]]) is type(value)


class TestBitPool:
    def test_seeded_reproducibility(self):
        a = BitPool(42)
        b = BitPool(42)
        assert [a.next_bit() for _ in range(256)] == [
            b.next_bit() for _ in range(256)
        ]

    def test_chunk_and_bit_faces_agree(self):
        bitwise = BitPool(7)
        chunked = BitPool(7)
        value, width = chunked.next_chunk()
        expected = [bool((value >> i) & 1) for i in range(width)]
        assert [bitwise.next_bit() for _ in range(width)] == expected


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
class TestNumpyParity:
    def test_backends_agree_distributionally(self):
        sampler = BatchSampler.from_command(n_sided_die(8))
        fast = sampler.collect(4000, seed=2, extract=lambda s: s["x"],
                               backend="numpy")
        slow = sampler.collect(4000, seed=2, extract=lambda s: s["x"],
                               backend="python")
        # Different bit-assignment orders, same distribution: compare
        # both against the exact pmf, and exact bit costs (3 bits).
        assert_pmf(fast.values, uniform_pmf(8, start=1))
        assert_pmf(slow.values, uniform_pmf(8, start=1))
        assert fast.bits == [3] * 4000
        assert slow.bits == [3] * 4000
