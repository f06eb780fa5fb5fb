"""Per-run JSONL telemetry for the sampling engine.

Every routed sampling run (``collect_auto``, the CLI ``sample``
command, the benchmark harness) can append one JSON record to a
telemetry log: program digest, the name of the registered
:class:`~repro.engine.profile.EngineProfile` that ran, wall-clock
seconds, samples per second, bits consumed, which cache tier served the
artifact, and -- when a batch lowering failed -- the stringified
``LoweringError`` that forced the trampoline fallback.

Telemetry is **off by default** and costs one dict check per run when
off.  Enable it with the ``ZAR_TELEMETRY_DIR`` environment variable or
:func:`configure_telemetry`; records append to
``<dir>/telemetry.jsonl``.  Appends are best-effort: an unwritable
directory never fails a sampling run.
"""

import json
import os
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "TELEMETRY_ENV",
    "TELEMETRY_FILENAME",
    "configure_telemetry",
    "emit",
    "make_run_record",
    "read_records",
    "telemetry_dir",
    "telemetry_enabled",
    "telemetry_path",
]

TELEMETRY_ENV = "ZAR_TELEMETRY_DIR"
TELEMETRY_FILENAME = "telemetry.jsonl"

#: Bump when the record schema changes incompatibly.
SCHEMA_VERSION = 3

_configured: Optional[str] = None
_explicitly_disabled = False
_lock = threading.Lock()


def configure_telemetry(directory: Optional[str]) -> None:
    """Set (or, with ``None``, clear) the telemetry directory in-process.

    An explicit ``configure_telemetry(None)`` disables telemetry even
    when ``ZAR_TELEMETRY_DIR`` is set -- tests use this to isolate
    themselves from the environment.
    """
    global _configured, _explicitly_disabled
    with _lock:
        _configured = directory
        _explicitly_disabled = directory is None


def telemetry_dir() -> Optional[str]:
    """The active telemetry directory, or ``None`` when disabled."""
    if _configured is not None:
        return _configured
    if _explicitly_disabled:
        return None
    return os.environ.get(TELEMETRY_ENV) or None


def telemetry_enabled() -> bool:
    return telemetry_dir() is not None


def telemetry_path() -> Optional[str]:
    directory = telemetry_dir()
    if directory is None:
        return None
    return os.path.join(directory, TELEMETRY_FILENAME)


def make_run_record(
    digest: Optional[str],
    profile: str,
    n: int,
    seconds: float,
    engine: str,
    backend: Optional[str] = None,
    bits_total: Optional[int] = None,
    cache_source: Optional[str] = None,
    fallback_reason: Optional[str] = None,
    table_rows: int = 0,
    kernel_cache: Optional[str] = None,
    kernel_compile_ms: Optional[float] = None,
) -> Dict[str, object]:
    """Assemble one schema-stable run record (not yet written).

    ``profile`` is the name of the registered profile that ran.
    ``kernel_cache``/``kernel_compile_ms`` describe the native
    backend's kernel resolution (cache tier served, and compile time
    when the C compiler actually ran); both stay ``None`` on every
    other backend.
    """
    samples_per_sec = (n / seconds) if seconds > 0 else None
    return {
        "schema": SCHEMA_VERSION,
        "timestamp": time.time(),
        "digest": digest,
        "profile": profile,
        "engine": engine,
        "backend": backend,
        "n": n,
        "seconds": seconds,
        "samples_per_sec": samples_per_sec,
        "bits_total": bits_total,
        "cache_source": cache_source,
        "fallback_reason": fallback_reason,
        "table_rows": table_rows,
        "kernel_cache": kernel_cache,
        "kernel_compile_ms": kernel_compile_ms,
    }


def emit(record: Dict[str, object]) -> Optional[str]:
    """Append ``record`` as one JSONL line; returns the path written.

    No-op (returning ``None``) when telemetry is disabled or the
    directory is unwritable -- sampling never fails on telemetry.
    """
    path = telemetry_path()
    if path is None:
        return None
    try:
        line = json.dumps(record, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        return None
    try:
        with _lock:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "a") as handle:
                handle.write(line + "\n")
    except OSError:
        return None
    return path


def read_records(path: Optional[str] = None) -> List[Dict[str, object]]:
    """Parse a telemetry JSONL file (default: the active log).

    Skips malformed lines (a crashed writer may leave a torn tail) so
    analysis over a long-lived log never dies on one bad record.
    """
    target = path if path is not None else telemetry_path()
    if target is None or not os.path.exists(target):
        return []
    records: List[Dict[str, object]] = []
    with open(target) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records
