"""The certified-oracle tier (ISSUE 8).

Every sampling path the repo ships -- the trampoline reference
interpreter, the one-sample table walker, the pure-Python, numpy and
native batch backends, and the compilation-cache paths (cold compile,
warm table, freeze/thaw-resumed open table) -- must produce seeded
samples whose Clopper-Pearson intervals intersect machine-checked
posterior bounds computed by CF-DAG fixpoint iteration
(``tests/oracle.py``).

This replaces hand-derived constants with *certificates*: the bounds
cannot be wrong, only loose, so an engine whose posterior drifts by
more than certified-width + CP noise fails deterministically.
"""

from fractions import Fraction

import pytest

import oracle
from statistical import frequency_interval

from repro.baselines.han_hoshi import HanHoshiSampler
from repro.bits.source import CountingBits, SystemBits
from repro.compiler.cache import CompilationCache
from repro.compiler.pipeline import Pipeline
from repro.inference import Interval

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

SEED = 20230808
N = 2000

#: Entries cheap enough for the tier-1 engine matrix.  The raw-race
#: entry (ex_hare_tortoise) takes ~20s per sequential run and moves to
#: the slow tier; han_hoshi is a tree entry exercised separately.
FAST_COMMANDS = (
    "die",
    "dueling_coins",
    "geometric",
    "fig1b",
    "hare_tortoise",
    "ex_die",
    "ex_dueling_coins",
    "ex_geometric",
)


def _require(sampler: str) -> None:
    if sampler == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy not installed")


class TestCertifiedWidths:
    """Acceptance gates: the bounds themselves are tight and sane."""

    @pytest.mark.parametrize("name", ["hare_tortoise", "fig1b"])
    def test_converges_below_2_pow_20(self, name):
        bounds = oracle.certified(name)
        assert bounds.max_width() <= Fraction(1, 2**20)

    @pytest.mark.parametrize("name", sorted(oracle.REGISTRY))
    def test_certifies_to_requested_width(self, name):
        entry = oracle.REGISTRY[name]
        bounds = oracle.certified(name)
        assert bounds.slack <= Fraction(1, 2**entry.width_bits)
        assert bounds.digest == entry.digest()

    @pytest.mark.parametrize("name", sorted(oracle.REGISTRY))
    def test_bounds_are_well_formed(self, name):
        bounds = oracle.certified(name)
        for pmf in bounds.pmfs.values():
            total_lo = Fraction(0)
            for interval in pmf.values():
                assert 0 <= interval.lo <= interval.hi <= 1
                total_lo += interval.lo
            # Lower bounds are masses of disjoint events.
            assert total_lo <= 1
        assert 0 <= bounds.unseen_hi <= 1


class TestEngineMatrix:
    """Every engine/backend intersects the certified bounds."""

    @pytest.mark.parametrize("sampler", oracle.SAMPLERS)
    @pytest.mark.parametrize("name", FAST_COMMANDS)
    def test_cp_interval_intersects_bounds(self, name, sampler):
        _require(sampler)
        oracle.assert_sampler_matches(name, N, SEED, sampler)

    @pytest.mark.parametrize("sampler", oracle.SAMPLERS)
    def test_seed_variation(self, sampler):
        # A second seed on the acceptance-gated entries: catches
        # accidentally seed-dependent correctness.
        _require(sampler)
        oracle.assert_sampler_matches("fig1b", N, SEED + 1, sampler)
        oracle.assert_sampler_matches("hare_tortoise", N, SEED + 1, sampler)


@pytest.mark.slow
class TestEngineMatrixSlow:
    @pytest.mark.parametrize("sampler", oracle.SAMPLERS)
    def test_raw_race(self, sampler):
        _require(sampler)
        oracle.assert_sampler_matches("ex_hare_tortoise", N, SEED, sampler)


class TestHanHoshiOracle:
    """The baseline interval sampler against its certified CF tree:
    both the outcome pmf and the per-sample bit cost."""

    def _draw(self, n):
        entry = oracle.REGISTRY["han_hoshi"]
        weights = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        sampler = HanHoshiSampler(weights)
        source = CountingBits(SystemBits(SEED))
        outcomes, bits = [], []
        for _ in range(n):
            before = source.count
            outcomes.append(sampler.sample(source))
            bits.append(source.count - before)
        assert entry.kind == "tree"
        return outcomes, bits

    def test_outcomes_match_bounds(self):
        outcomes, _bits = self._draw(6000)
        oracle.assert_matches_bounds("han_hoshi", outcomes, projection="outcome")

    def test_bit_costs_match_bounds(self):
        _outcomes, bits = self._draw(6000)
        oracle.assert_matches_bounds("han_hoshi", bits, projection="bits")


class TestCachePaths:
    """Cold compile, warm table, and freeze/thaw-resumed table must all
    pass the same oracle check (regression guard on
    ``repro.engine.freeze`` rebinding)."""

    def _pipeline(self, tmp_path):
        return Pipeline(
            cache=CompilationCache(capacity=8, disk_dir=str(tmp_path))
        )

    def _values(self, program, seed):
        entry = oracle.REGISTRY["geometric"]
        return program.collect(
            N, seed=seed, extract=entry.projections["value"], backend="python"
        ).values

    def test_cold_and_warm_paths(self, tmp_path):
        program = self._pipeline(tmp_path).compile(
            oracle.REGISTRY["geometric"].build()
        )
        cold = self._values(program, SEED)
        warm = self._values(program, SEED + 7)
        oracle.assert_matches_bounds("geometric", cold, label="cold")
        oracle.assert_matches_bounds("geometric", warm, label="warm")

    def test_thawed_table_passes_oracle(self, tmp_path):
        entry = oracle.REGISTRY["geometric"]
        cache = CompilationCache(capacity=8, disk_dir=str(tmp_path))
        program = Pipeline(cache=cache).compile(entry.build())
        self._values(program, SEED)  # warm the open table
        cache.put(program.digest, program)  # spill the warm table

        fresh = Pipeline(
            cache=CompilationCache(capacity=8, disk_dir=str(tmp_path))
        )
        thawed = fresh.compile(entry.build())
        assert thawed.source == "disk"
        oracle.assert_matches_bounds(
            "geometric", self._values(thawed, SEED + 13), label="thawed"
        )
        # And bit-for-bit: thawed sequential sampling replays the warm
        # trajectories, so a shared seed must give identical samples.
        assert self._values(thawed, SEED) == self._values(program, SEED)


class TestOracleHarness:
    """The oracle's own plumbing: cache trust and assertion teeth."""

    def test_stale_cache_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(oracle, "_MEMO", {})
        bounds = oracle.certified("die")
        path = tmp_path / "die.json"
        assert path.exists()
        path.write_text(path.read_text().replace(bounds.digest, "f" * 64))
        monkeypatch.setattr(oracle, "_MEMO", {})
        again = oracle.certified("die")
        assert again.digest == bounds.digest  # recomputed, not believed

    def test_detects_wrong_distribution(self):
        # A die that always rolls 1 must fail the oracle check.
        with pytest.raises(AssertionError, match="does not intersect"):
            oracle.assert_matches_bounds("die", [1] * N)

    def test_detects_unsupported_values(self):
        # Mass on a value outside the certified support must fail.
        with pytest.raises(AssertionError, match="outside the certified"):
            oracle.assert_matches_bounds("die", [1, 2, 3, 4, 5, 6, 99] * 300)

    def test_cp_actually_intersects_definition(self):
        # Sanity on the helper's intersection logic.
        lo, hi = frequency_interval(500, 1000)
        assert Interval(Fraction(lo).limit_denominator(10**6),
                        Fraction(hi).limit_denominator(10**6)).contains(
            Fraction(1, 2)
        )
