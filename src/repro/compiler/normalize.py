"""The normalize stage: structural hash-consing of commands and states.

``compile_cpgcl`` memoizes per ``(command, state)``.  The seed
keyed that memo on ``id(command)``, which is fragile: an id is only
unique among *live* objects, so the cache had to pin every keyed command
alive forever to stay sound, and two structurally equal programs could
never share work.  The normalize stage replaces address identity with
*structural* identity: an interner maps every command (and state) to a
canonical representative, so equality-by-content becomes equality-by-
``is`` and downstream memo tables can key on the canonical object
directly.

The interner pays one deep structural hash the first time it sees an
object, then answers by address (an id-keyed side table that holds a
strong reference to the keyed object, so the id cannot be recycled while
the entry lives).  The table is bounded; overflowing drops the oldest
half, which costs re-interning but never correctness (a stale canonical
object is still structurally equal to its replacements).
"""

from typing import Dict, Tuple

from repro.lang.state import State
from repro.lang.syntax import Command


class Interner:
    """Structural hash-consing with an id-keyed fast path."""

    def __init__(self, capacity: int = 1_048_576):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        # Structural table: object -> canonical representative.  Keyed
        # by the object itself (structural __hash__/__eq__).
        self._canon: Dict[object, object] = {}
        # Fast path: id -> (keyed object, canonical).  The stored
        # reference keeps the keyed object alive, so the id is stable.
        self._by_id: Dict[int, Tuple[object, object]] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, obj):
        """The canonical representative structurally equal to ``obj``."""
        entry = self._by_id.get(id(obj))
        if entry is not None and entry[0] is obj:
            self.hits += 1
            return entry[1]
        canonical = self._canon.get(obj)
        if canonical is None:
            self.misses += 1
            if len(self._canon) >= self._capacity:
                # Drop the oldest half rather than clearing: a full
                # clear would change the identity of *every* canonical
                # object at once and cold-start each downstream memo
                # keyed on those ids (the compile cache foremost).
                canon = self._canon
                for key in list(canon)[: len(canon) // 2]:
                    del canon[key]
                self._by_id.clear()
            self._canon[obj] = obj
            canonical = obj
        else:
            self.hits += 1
        # The fast path must be bounded independently: loop-heavy
        # sampling interns a fresh (structurally recurring) state per
        # iteration, so _canon stays tiny while _by_id -- which pins its
        # keys alive -- would otherwise grow with every sample drawn.
        if len(self._by_id) >= self._capacity:
            self._by_id.clear()
        self._by_id[id(obj)] = (obj, canonical)
        return canonical

    def __len__(self) -> int:
        return len(self._canon)

    def clear(self) -> None:
        self._canon.clear()
        self._by_id.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._canon),
        }


#: Process-wide interners backing the default pipeline and the
#: ``compile_cpgcl`` memo keys.
_COMMANDS = Interner()
_STATES = Interner()


def normalize_command(command: Command) -> Command:
    """Canonical representative of ``command`` (structural identity)."""
    if not isinstance(command, Command):
        raise TypeError("expected a cpGCL command, got %r" % (command,))
    return _COMMANDS.intern(command)


def normalize_state(sigma: State) -> State:
    """Canonical representative of ``sigma``."""
    if not isinstance(sigma, State):
        raise TypeError("expected a State, got %r" % (sigma,))
    return _STATES.intern(sigma)


def normalize_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss counters of the process-wide interners."""
    return {"commands": _COMMANDS.stats(), "states": _STATES.stats()}
