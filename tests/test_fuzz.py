"""Tests for the differential fuzzing harness (repro.verify.fuzz)."""

import random

import pytest

from repro.lang.syntax import Command
from repro.verify.fuzz import (
    Discrepancy,
    ProgramGenerator,
    fuzz,
    fuzz_one,
)


class TestGenerator:
    def test_deterministic_by_seed(self):
        a = ProgramGenerator(random.Random(5)).command(3)
        b = ProgramGenerator(random.Random(5)).command(3)
        assert a == b

    def test_generates_commands(self):
        for seed in range(20):
            program = ProgramGenerator(random.Random(seed)).command(3)
            assert isinstance(program, Command)

    def test_programs_statistically_diverse(self):
        kinds = set()
        for seed in range(40):
            program = ProgramGenerator(random.Random(seed)).command(3)
            kinds.add(type(program).__name__)
        assert len(kinds) >= 3


class TestFuzzOne:
    @pytest.mark.parametrize("seed", range(8))
    def test_rounds_pass(self, seed):
        result = fuzz_one(seed, depth=3, samples=600)
        assert result is None, result

    def test_detects_planted_bug(self, monkeypatch):
        # Sabotage debias to swap branches of biased choices: the
        # differential harness must catch the distribution change on
        # some seed within a small budget.
        #
        # NB: `repro.verify.__init__` re-exports the `fuzz` *function*
        # under the package attribute `fuzz`, shadowing the submodule --
        # `import repro.verify.fuzz as m` would bind the function, so
        # the module is taken from sys.modules instead.
        import sys

        fuzz_module = sys.modules["repro.verify.fuzz"]
        from repro.cftree.tree import Choice, Fail, Fix, Leaf

        def broken_debias(tree):
            from repro.cftree.debias import debias as real

            fixed = real(tree)
            # swap children of the root choice if biased at source level
            if isinstance(tree, Choice) and tree.prob not in (0, 1):
                from fractions import Fraction

                if tree.prob != Fraction(1, 2):
                    return real(Choice(tree.prob, tree.right, tree.left))
            return fixed

        monkeypatch.setattr(fuzz_module, "debias", broken_debias)
        caught = None
        for seed in range(60):
            caught = fuzz_one(seed, depth=2, samples=400)
            if caught is not None:
                break
        assert caught is not None
        assert caught.stage == "debias"


class TestCampaign:
    def test_small_campaign_clean(self):
        report = fuzz(rounds=6, base_seed=100, depth=3, samples=500)
        assert report.ok, report.discrepancies
        assert report.programs == 6

    def test_report_counts_skipped(self):
        # Over many seeds some programs condition on false: counted.
        report = fuzz(rounds=12, base_seed=300, depth=2, samples=300)
        assert report.programs == 12
        assert 0 <= report.skipped <= 12
