"""Pooled, seedable bit buffers for the batch engine.

``SystemBits`` pays a method call and a ``getrandbits(1)`` per bit; at
millions of samples that dominates the sampling time.  ``BitPool``
amortizes generation by drawing bits in chunks:

- :class:`BitPool` -- pure-Python, chunked ``getrandbits``; it is also a
  :class:`~repro.bits.source.BitSource`, so the *same* pooled stream can
  feed the reference trampoline (used by the differential tests);
- :class:`SourcePool` -- adapts an arbitrary ``BitSource`` (e.g.
  ``ReplayBits``) to the pool interface, bit-for-bit;
- :func:`matrix_bits` -- a numpy ``(lanes, width)`` bit matrix for the
  vectorized driver.

Bits within a chunk are emitted least-significant-bit first; given the
same seed a ``BitPool`` always reproduces the same stream (but *not* the
stream of ``SystemBits(seed)``, which draws one bit per PRNG call).
"""

import importlib.util
import random
from typing import Optional

from repro.bits.source import BitSource

# numpy is optional everywhere outside repro.ml, and only the vectorized
# driver uses it: look it up without importing it, so a run that never
# builds an array (a native ``auto`` run, say) never loads numpy.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

_CHUNK_BITS = 4096


class BitPool(BitSource):
    """A seedable fair-bit stream generated in bulk chunks.

    ``next_bit`` keeps :class:`BitSource` compatibility (one Python call
    per bit); the batch driver instead grabs whole chunks via
    :meth:`next_chunk` and unpacks them inline.
    """

    def __init__(self, seed: Optional[int] = None, chunk_bits: int = _CHUNK_BITS):
        if chunk_bits <= 0:
            raise ValueError("chunk size must be positive")
        self._rng = random.Random(seed)
        self._chunk_bits = chunk_bits
        self._buffer = 0
        self._remaining = 0
        self.generated = 0  # bits handed out so far

    def next_chunk(self):
        """Return ``(value, width)``: ``width`` fresh bits, LSB first."""
        width = self._chunk_bits
        self.generated += width
        return self._rng.getrandbits(width), width

    def next_bit(self) -> bool:
        if self._remaining == 0:
            self._buffer, self._remaining = self.next_chunk()
            self.generated -= self._remaining  # next_chunk already counted
        bit = self._buffer & 1
        self._buffer >>= 1
        self._remaining -= 1
        self.generated += 1
        return bool(bit)


class SourcePool:
    """Present any ``BitSource`` through the pool chunk interface.

    Chunks of width 1 preserve the source's exact bit order (and its
    exhaustion point), which is what the bit-for-bit differential tests
    rely on.
    """

    def __init__(self, source: BitSource):
        self.source = source

    def next_chunk(self):
        return (1 if self.source.next_bit() else 0), 1

    def next_bit(self) -> bool:
        return self.source.next_bit()


def as_pool(source_or_seed):
    """Coerce ``None``/int seed/``BitSource`` to a pool-like object."""
    if source_or_seed is None or isinstance(source_or_seed, int):
        return BitPool(source_or_seed)
    if isinstance(source_or_seed, (BitPool, SourcePool)):
        return source_or_seed
    if isinstance(source_or_seed, BitSource):
        return SourcePool(source_or_seed)
    raise TypeError("expected a seed or BitSource, got %r" % (source_or_seed,))


def matrix_bits(rng, lanes: int):
    """One fair bit per lane as a numpy boolean vector."""
    import numpy as np

    return rng.integers(0, 2, size=lanes, dtype=np.uint8).view(np.bool_)


def numpy_rng(seed: Optional[int] = None):
    """A numpy Generator for the vectorized driver (requires numpy)."""
    if not HAVE_NUMPY:
        raise RuntimeError("numpy is not available in this environment")
    import numpy as np

    return np.random.default_rng(seed)
