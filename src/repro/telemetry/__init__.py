"""Run telemetry: JSONL records of what sampled, how, and how fast.

See :mod:`repro.telemetry.record` for the schema and the
``ZAR_TELEMETRY_DIR`` knob.
"""

from repro.telemetry.record import (
    TELEMETRY_ENV,
    TELEMETRY_FILENAME,
    configure_telemetry,
    emit,
    make_run_record,
    read_records,
    telemetry_dir,
    telemetry_enabled,
    telemetry_path,
)

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
