"""The vectorized batch sampling engine.

Lowers debiased CF trees into flat array-encoded node tables
(:mod:`repro.engine.table`) and drives them in batches
(:mod:`repro.engine.driver`) off pooled, seedable bit buffers
(:mod:`repro.engine.pool`).  The per-sample trampoline
(:func:`repro.sampler.run.run_itree`) remains the reference
implementation; the differential test suite pins the engine to it
bit for bit.
"""

from repro.engine.api import (
    BACKENDS,
    ENGINES,
    BatchSampler,
    CollectResult,
    collect_auto,
)
from repro.engine.driver import (
    ENGINE_FAIL,
    collect_numpy,
    collect_python,
    run_table,
)
from repro.engine.native import (
    collect_kernel,
    kernel_for,
    native_available,
)
from repro.engine.pool import BitPool, HAVE_NUMPY, SourcePool
from repro.engine.profile import (
    PROFILES,
    EngineProfile,
    ProgramFeatures,
    features_of,
    profile_from_dict,
    profile_named,
    register_profile,
    static_profile,
)
from repro.engine.table import (
    LoweringError,
    NodeTable,
    TableOverflow,
    lower_cftree,
)

__all__ = [
    "BACKENDS",
    "BatchSampler",
    "BitPool",
    "CollectResult",
    "ENGINES",
    "ENGINE_FAIL",
    "EngineProfile",
    "PROFILES",
    "ProgramFeatures",
    "collect_auto",
    "collect_kernel",
    "features_of",
    "HAVE_NUMPY",
    "kernel_for",
    "LoweringError",
    "native_available",
    "NodeTable",
    "profile_from_dict",
    "profile_named",
    "register_profile",
    "SourcePool",
    "static_profile",
    "TableOverflow",
    "collect_numpy",
    "collect_python",
    "lower_cftree",
    "run_table",
]
