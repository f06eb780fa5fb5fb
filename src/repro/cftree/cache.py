"""Bounded memoization for the sampler hot path.

During sampling, a loop's body is recompiled and re-debiased once per
iteration per sample (the ``Fix`` representation is lazy in the loop
state).  States recur heavily across samples, so memoizing turns
per-iteration tree construction into a dictionary lookup.

Keys are either fully structural (the compiler's normalize stage interns
commands, see :mod:`repro.compiler.normalize`) or use object identity
for unhashable-or-expensive-to-hash components (trees); in the latter
case the cache keeps a reference to those objects, so a live entry's id
can never be recycled by the allocator.  Eviction is FIFO with a
generous bound.

Caches count hits and misses so the pipeline's ``CompiledProgram.stats``
and the CLI can report memoization effectiveness.
"""

from collections import OrderedDict
from typing import Dict, Hashable, Tuple

#: Capacity when the caller gives none.  Sized so that open-table
#: workloads with a few hundred thousand reachable loop states (e.g. the
#: fig. 9b race) keep their whole working set resident; the entries
#: mostly alias objects the node table already pins, so the marginal
#: footprint is dict overhead.
_DEFAULT_CAPACITY = 1_000_000


class BoundedCache:
    """A FIFO-bounded mapping with hit/miss accounting.

    ``get``/``put`` take a key tuple plus (for identity-based keys) the
    objects whose identities appear in the key, kept alive alongside the
    value so their ids cannot be recycled while the entry is live.
    Eviction is least-recently-*used*: hits refresh an entry's position,
    so a recurring working set survives capacity pressure.
    """

    def __init__(self, capacity: int = _DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, Tuple[tuple, object]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, key: Hashable):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        # LRU refresh: under capacity pressure the loop-state working
        # set recurs every sample, so evicting by insertion age (FIFO)
        # would throw away exactly the hot entries.
        self._entries.move_to_end(key)
        return entry[1]

    def put(self, key: Hashable, keepalive: tuple, value) -> None:
        if key in self._entries:
            return
        if len(self._entries) >= self._capacity:
            self._entries.popitem(last=False)
        self._entries[key] = (keepalive, value)

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus occupancy, for pipeline reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "capacity": self._capacity,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
