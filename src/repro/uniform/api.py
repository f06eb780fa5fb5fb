"""``ZarUniform``: the paper's verified uniform-sampler interface.

The paper's Python package wraps samplers extracted from the verified
Coq pipeline behind a minimal API (build once for a range ``n``, then
draw samples).  Here the sampler is the same pipeline applied to the
``uniform_tree`` construction, with the correctness argument replaced by
the executable checks of :mod:`repro.verify` (Lemma 3.6 is verified
exactly at construction time for small ranges).

Sampling runs on the batch engine (:mod:`repro.engine`): the tree is
lowered once into a flat node table at construction; ``sample``/
``samples`` step it against the instance's metered bit source (bit-for-
bit what the reference trampoline would consume), and ``batch`` draws
large sample counts through the vectorized driver.

Example::

    die = ZarUniform(6)
    rolls = die.samples(10, seed=1)
"""

from typing import Iterator, List, Optional

from repro.bits.source import BitSource, CountingBits, SystemBits
from repro.cftree.semantics import twp
from repro.cftree.uniform import uniform_tree
from repro.engine.api import BatchSampler
from repro.semantics.extreal import ExtReal
from fractions import Fraction


class ZarUniform:
    """A sampler drawing uniformly from ``{0, .., n-1}``.

    ``validate=True`` (default for ``n <= 512``) checks Lemma 3.6
    exactly on the constructed tree before any sampling: every outcome
    has ``twp`` probability exactly ``1/n``.
    """

    def __init__(
        self,
        n: int,
        seed: Optional[int] = None,
        validate: Optional[bool] = None,
    ):
        if n <= 0:
            raise ValueError("range must be positive")
        self.n = n
        self._tree = uniform_tree(n)
        if validate is None:
            validate = n <= 512
        if validate:
            self._validate()
        # Route through the staged pipeline with a synthetic content key
        # (the rejection wrapper contains a Fix closure, so the tree
        # itself is undigestable): every ZarUniform(n) in this process --
        # and, with a disk cache configured, across processes -- shares
        # one compiled node table.
        from repro.compiler.pipeline import compile_tree

        self._compiled = compile_tree(
            self._tree, key_parts=("uniform_tree", n)
        )
        self._sampler = BatchSampler(self._compiled.table)
        self._source = CountingBits(SystemBits(seed))

    def _validate(self) -> None:
        share = ExtReal(Fraction(1, self.n))
        for outcome in range(self.n):
            mass = twp(self._tree, lambda v, o=outcome: 1 if v == o else 0)
            if mass != share:
                raise AssertionError(
                    "uniform_tree(%d) gives outcome %d probability %s != 1/%d"
                    % (self.n, outcome, mass, self.n)
                )

    def sample(self, source: Optional[BitSource] = None) -> int:
        """Draw one value in ``{0, .., n-1}``."""
        return self._sampler.sample(source or self._source)

    def samples(self, count: int, source: Optional[BitSource] = None) -> List[int]:
        """Draw ``count`` values (sequentially, metering the source)."""
        draw = self._sampler.sample
        chosen = source or self._source
        return [draw(chosen) for _ in range(count)]

    def batch(self, count: int, seed: Optional[int] = None) -> List[int]:
        """Draw ``count`` values through the vectorized batch driver.

        Unlike :meth:`samples` this bypasses (and does not meter) the
        instance's bit source: bits come from a pooled buffer seeded
        with ``seed``.
        """
        return self._sampler.samples(count, seed=seed)

    def stream(self, source: Optional[BitSource] = None) -> Iterator[int]:
        """An endless iterator of samples."""
        while True:
            yield self.sample(source)

    @property
    def bits_consumed(self) -> int:
        """Total fair bits drawn from the built-in source so far."""
        return self._source.count

    @property
    def pipeline_stats(self):
        """Per-stage statistics of the compilation (see repro.compiler)."""
        return self._compiled.stats


def uniform_int(n: int, seed: Optional[int] = None) -> int:
    """One-shot verified uniform draw from ``{0, .., n-1}``."""
    return ZarUniform(n, seed=seed).sample()


def uniform_ints(n: int, count: int, seed: Optional[int] = None) -> List[int]:
    """``count`` verified uniform draws from ``{0, .., n-1}``."""
    return ZarUniform(n, seed=seed).samples(count)
