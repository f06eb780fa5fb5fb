"""Differential tests: the batch engine vs. the reference trampoline.

The engine's contract (ISSUE 3) is *bit-for-bit* equivalence with
``run_itree`` on the tied pipeline: feeding both the same bit prefix
must yield identical sample sequences, identical per-sample bit
consumption, and ``BitsExhausted`` at the same stream position.  These
tests pin that contract on the paper's programs -- the die, the
dueling-coins loop, the geometric/primes program, a dead nested loop
(``broken/dead_loop.gcl``), and the hare-tortoise race -- plus
Hypothesis-generated programs in the slow tier.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.bits.source import BitsExhausted, CountingBits, ReplayBits
from repro.engine import BatchSampler, BitPool
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
from repro.sampler.run import run_itree

from strategies import commands_with_loops

S0 = State()

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "programs",
)


def _example(name):
    with open(os.path.join(EXAMPLES, name)) as handle:
        return parse_program(handle.read())


PROGRAMS = [
    ("die6", n_sided_die(6), 400),
    ("die200", n_sided_die(200), 200),
    ("dueling", dueling_coins(Fraction(1, 3)), 200),
    ("geometric", geometric_primes(Fraction(1, 2)), 200),
    # An inner loop whose guard is false on every entry.
    ("dead_loop.gcl", _example("broken/dead_loop.gcl"), 200),
]

HEAVY_PROGRAMS = [
    ("hare_tortoise", hare_tortoise(Var("time") <= 10), 10),
]


def _pump(command, samples, seed, fuel=None):
    """Run trampoline and engine on identical pooled streams."""
    tree = cpgcl_to_itree(command, S0)
    sampler = BatchSampler.from_command(command)
    reference = CountingBits(BitPool(seed))
    engine = CountingBits(BitPool(seed))
    for index in range(samples):
        expected = run_itree(tree, reference, fuel)
        actual = sampler.sample(engine)
        assert actual == expected, "sample %d diverged" % index
        expected_bits = reference.take_count()
        actual_bits = engine.take_count()
        assert actual_bits == expected_bits, (
            "sample %d consumed %d bits on the engine, %d on the "
            "trampoline" % (index, actual_bits, expected_bits)
        )


@pytest.mark.parametrize(
    "command,samples", [(c, n) for _, c, n in PROGRAMS],
    ids=[name for name, _, _ in PROGRAMS],
)
def test_identical_samples_and_bits(command, samples):
    _pump(command, samples, seed=101)


@pytest.mark.slow
@pytest.mark.parametrize(
    "command,samples", [(c, n) for _, c, n in HEAVY_PROGRAMS],
    ids=[name for name, _, _ in HEAVY_PROGRAMS],
)
def test_identical_samples_and_bits_heavy(command, samples):
    _pump(command, samples, seed=101)


def _drain(step, bits):
    """Draw samples off a fixed prefix until it runs dry.

    Returns (values, per-sample bit counts, consumed-at-exhaustion).
    """
    source = ReplayBits(bits)
    counting = CountingBits(source)
    values, counts = [], []
    while True:
        try:
            values.append(step(counting))
        except BitsExhausted:
            return values, counts, source.consumed
        counts.append(counting.take_count())


@pytest.mark.parametrize(
    "command", [c for _, c, _ in PROGRAMS],
    ids=[name for name, _, _ in PROGRAMS],
)
@pytest.mark.parametrize("prefix_bits", [0, 1, 37, 512])
def test_exhaustion_at_same_point(command, prefix_bits):
    # Both drivers read the same finite prefix; they must produce the
    # same sample sequence and hit BitsExhausted at the same position.
    pool = BitPool(7)
    bits = [pool.next_bit() for _ in range(prefix_bits)]
    tree = cpgcl_to_itree(command, S0)
    sampler = BatchSampler.from_command(command)
    ref_values, ref_counts, ref_consumed = _drain(
        lambda source: run_itree(tree, source), bits
    )
    eng_values, eng_counts, eng_consumed = _drain(sampler.sample, bits)
    assert eng_values == ref_values
    assert eng_counts == ref_counts
    assert eng_consumed == ref_consumed


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(command=commands_with_loops())
def test_generated_programs_differential(command):
    # Hypothesis sweep: every generated (almost-surely terminating)
    # program must agree sample-for-sample and bit-for-bit.  Programs
    # whose observations are contradictory spin forever under the tied
    # rejection semantics -- on both drivers -- so the reference runs
    # fueled and such programs are passed over.
    from repro.sampler.run import FuelExhausted

    try:
        _pump(command, samples=25, seed=13, fuel=200_000)
    except FuelExhausted:
        pass
