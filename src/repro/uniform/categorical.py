"""Verified categorical sampling: the natural extension of Section 5.3.

``ZarCategorical(weights)`` samples outcome ``i`` with probability
``w_i / sum(w)`` exactly, in the random bit model, through the same
verified machinery as the rest of the pipeline: the distribution is
expressed as a chain of conditional Bernoulli choices (stick breaking),
compiled to a CF tree, debiased, and tied -- and, like ``ZarUniform``,
validated at construction by checking every outcome's ``twp`` mass
exactly against the target.

This covers FLDR's use case (integer-weighted dice) with the pipeline's
correctness story; the Table 4 benchmark compares their entropy costs.
"""

from fractions import Fraction
from typing import List, Optional, Sequence

from repro.bits.source import BitSource, CountingBits, SystemBits
from repro.cftree.debias import debias
from repro.cftree.semantics import twp
from repro.cftree.tree import CFTree, Choice, Leaf
from repro.engine.api import BatchSampler
from repro.semantics.extreal import ExtReal


def categorical_tree(weights: Sequence[int]) -> CFTree:
    """A CF tree over outcome indices with exact probabilities
    ``w_i / total``, built by stick breaking:

    ``Choice(w_0/total, Leaf 0, Choice(w_1/rest, Leaf 1, ...))``

    Zero-weight outcomes are skipped entirely (they receive no tree
    mass, matching their probability).
    """
    if not weights:
        raise ValueError("need at least one outcome")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    total = sum(weights)
    if total == 0:
        raise ValueError("weights must not all be zero")
    positive: List[int] = [
        index for index, weight in enumerate(weights) if weight > 0
    ]
    return _stick(positive, list(weights), total)


def _stick(indices: List[int], weights: List[int], remaining: int) -> CFTree:
    index = indices[0]
    if len(indices) == 1:
        return Leaf(index)
    head = Fraction(weights[index], remaining)
    return Choice(
        head,
        Leaf(index),
        _stick(indices[1:], weights, remaining - weights[index]),
    )


class ZarCategorical:
    """A verified sampler for integer-weighted categorical distributions."""

    def __init__(
        self,
        weights: Sequence[int],
        seed: Optional[int] = None,
        validate: Optional[bool] = None,
    ):
        self.weights = list(weights)
        self.total = sum(self.weights)
        self._tree = debias(categorical_tree(self.weights))
        if validate is None:
            validate = len(self.weights) <= 256
        if validate:
            self._validate()
        # Already debiased above; pipeline the tree straight to an
        # engine table (no passes, deduplicated lowering),
        # content-addressed by the weight vector so equal distributions
        # share artifacts.
        from repro.compiler.pipeline import compile_tree

        self._compiled = compile_tree(
            self._tree,
            key_parts=("categorical", tuple(self.weights)),
            passes=(),
        )
        self._sampler = BatchSampler(self._compiled.table)
        self._source = CountingBits(SystemBits(seed))

    def _validate(self) -> None:
        """Exact correctness check: twp mass of each outcome equals
        ``w_i / total`` on the *debiased* tree (so the check covers the
        bias-elimination step too, not just stick breaking)."""
        for index, weight in enumerate(self.weights):
            expected = ExtReal(Fraction(weight, self.total))
            mass = twp(self._tree, lambda v, i=index: 1 if v == i else 0)
            if mass != expected:
                raise AssertionError(
                    "categorical outcome %d has probability %s, expected %s"
                    % (index, mass, expected)
                )

    def pmf(self):
        return {
            index: Fraction(weight, self.total)
            for index, weight in enumerate(self.weights)
            if weight
        }

    def sample(self, source: Optional[BitSource] = None) -> int:
        return self._sampler.sample(source or self._source)

    def samples(self, count: int, source: Optional[BitSource] = None):
        draw = self._sampler.sample
        chosen = source or self._source
        return [draw(chosen) for _ in range(count)]

    def batch(self, count: int, seed: Optional[int] = None):
        """Vectorized draws off a pooled buffer (source not metered)."""
        return self._sampler.samples(count, seed=seed)

    @property
    def bits_consumed(self) -> int:
        return self._source.count

    @property
    def pipeline_stats(self):
        """Per-stage statistics of the compilation (see repro.compiler)."""
        return self._compiled.stats
