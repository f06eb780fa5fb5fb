"""The content-addressed compilation cache (in-memory LRU + disk).

Compiled artifacts are keyed by the SHA-256 digest of the program, the
initial state, and every compilation option that affects the output
(:func:`repro.compiler.digest.program_digest`).  Two layers:

- an **in-memory LRU** holding :class:`~repro.compiler.pipeline.
  CompiledProgram` objects -- repeated ``BatchSampler.from_command``
  calls, harness rows, and MCMC replays in one process reuse the same
  node table (which also means JIT loop expansions accumulate instead of
  being redone);
- an optional **on-disk store** (one pickle per digest) so separate
  processes -- CLI invocations, CI runs, benchmark sweeps -- skip
  compilation entirely.  Every table spills through
  :mod:`repro.engine.freeze`: a closed table as rows plus tagged
  payloads, an *open* one (a warm loop-state space mid-expansion) with
  every ``Fix`` closure replaced by its content-digest triple and
  rebound on load, so even JIT expansion work survives across
  processes.

Configuration: ``configure_cache(capacity=..., disk_dir=...)`` (entry
bound, default 128) or the environment variable
``ZAR_COMPILE_CACHE_DIR`` (enables the disk layer).  Programs
containing :class:`~repro.lang.expr.Opaque` expressions are
:class:`~repro.compiler.digest.Undigestable` and bypass both layers.
"""

import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Dict, Optional

from repro.compiler.digest import DIGEST_VERSION

#: Bump to invalidate on-disk artifacts when the table encoding changes.
#: 2: open tables spill as content-digest triples (repro.engine.freeze).
#: 3: closed tables spill through the same freeze codec.
_DISK_FORMAT = 3


class CompilationCache:
    """Digest-keyed LRU of compiled programs with an optional disk tier."""

    def __init__(self, capacity: int = 128,
                 disk_dir: Optional[str] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if disk_dir is None:
            disk_dir = os.environ.get("ZAR_COMPILE_CACHE_DIR") or None
        self.capacity = capacity
        self.disk_dir = disk_dir
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_stores = 0

    # -- in-memory tier --------------------------------------------------

    def get(self, digest: str):
        """The cached :class:`CompiledProgram` for ``digest``, or None."""
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            self.memory_hits += 1
            return entry
        entry = self._disk_load(digest)
        if entry is not None:
            self.disk_hits += 1
            self._remember(digest, entry)
            return entry
        self.misses += 1
        return None

    def put(self, digest: str, program) -> None:
        self.stores += 1
        self._remember(digest, program)
        self._disk_store(digest, program)

    def _remember(self, digest: str, program) -> None:
        self._entries[digest] = program
        self._entries.move_to_end(digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- disk tier -------------------------------------------------------

    def _disk_path(self, digest: str) -> str:
        return os.path.join(self.disk_dir, digest + ".zarc")

    def _disk_store(self, digest: str, program) -> None:
        if not self.disk_dir:
            return
        payload = program.disk_payload()
        if payload is None:  # the table has no frozen form
            return
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            record = {
                "format": _DISK_FORMAT,
                "digest_version": DIGEST_VERSION,
                "payload": payload,
            }
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(record, handle, protocol=4)
                os.replace(tmp, self._disk_path(digest))
            except BaseException:
                os.unlink(tmp)
                raise
            self.disk_stores += 1
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            pass  # a cold disk cache is always acceptable

    def _disk_load(self, digest: str):
        if not self.disk_dir:
            return None
        path = self._disk_path(digest)
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if (
            not isinstance(record, dict)
            or record.get("format") != _DISK_FORMAT
            or record.get("digest_version") != DIGEST_VERSION
        ):
            return None
        from repro.compiler.pipeline import CompiledProgram

        try:
            return CompiledProgram.from_disk_payload(record["payload"])
        except (KeyError, TypeError, ValueError):
            return None

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_stores": self.disk_stores,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "disk_dir": self.disk_dir,
        }

    def clear(self, disk: bool = False) -> None:
        self._entries.clear()
        if disk and self.disk_dir and os.path.isdir(self.disk_dir):
            for name in os.listdir(self.disk_dir):
                if name.endswith(".zarc"):
                    try:
                        os.unlink(os.path.join(self.disk_dir, name))
                    except OSError:
                        pass

    def __len__(self) -> int:
        return len(self._entries)


_GLOBAL: Optional[CompilationCache] = None


def get_cache() -> CompilationCache:
    """The process-wide cache backing the default pipeline."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = CompilationCache()
    return _GLOBAL


def configure_cache(capacity: int = 128,
                    disk_dir: Optional[str] = None) -> CompilationCache:
    """Replace the process-wide cache (returns the new instance)."""
    global _GLOBAL
    _GLOBAL = CompilationCache(capacity=capacity, disk_dir=disk_dir)
    return _GLOBAL
