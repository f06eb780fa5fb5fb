"""The vectorized batch sampling engine.

Lowers debiased CF trees into flat array-encoded node tables
(:mod:`repro.engine.table`) and drives them in batches
(:mod:`repro.engine.driver`) off pooled, seedable bit buffers
(:mod:`repro.engine.pool`).  The per-sample trampoline
(:func:`repro.sampler.run.run_itree`) remains the reference
implementation; the differential test suite pins the engine to it
bit for bit.
"""

from repro._lazy import lazy_exports

# Resolved on first access, so a process that only needs the engine's
# registries (``zar lint``'s argument parser) never loads the native
# backend.
_EXPORTS = {
    "BatchSampler": "repro.engine.api",
    "CollectResult": "repro.engine.api",
    "collect_auto": "repro.engine.api",
    "ENGINE_FAIL": "repro.engine.driver",
    "collect_numpy": "repro.engine.driver",
    "collect_python": "repro.engine.driver",
    "run_table": "repro.engine.driver",
    "collect_kernel": "repro.engine.native.driver",
    "kernel_for": "repro.engine.native.driver",
    "native_available": "repro.engine.native.kernel",
    "BitPool": "repro.engine.pool",
    "HAVE_NUMPY": "repro.engine.pool",
    "SourcePool": "repro.engine.pool",
    "BACKENDS": "repro.engine.profile",
    "ENGINES": "repro.engine.profile",
    "PROFILES": "repro.engine.profile",
    "EngineProfile": "repro.engine.profile",
    "ProgramFeatures": "repro.engine.profile",
    "features_of": "repro.engine.profile",
    "static_profile": "repro.engine.profile",
    "LoweringError": "repro.engine.table",
    "NodeTable": "repro.engine.table",
    "TableOverflow": "repro.engine.table",
    "lower_cftree": "repro.engine.table",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
