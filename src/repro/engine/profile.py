"""``EngineProfile``: the engine-selection seam as a first-class value.

A profile names one ``(engine, backend)`` pair -- the driver family and
the batch driver tier -- and :data:`PROFILES` holds the five the system
runs.  ``collect_auto``, the CLI ``profile:`` line, the benchmarks and
telemetry all report a run by one of these names.

Selection is purely a performance decision: every backend preserves the
same per-sample i.i.d. bit-stream semantics, and the pooled backends
(``python``, ``native``) are bit-for-bit identical to the reference
trampoline on the same stream (the differential suite pins this), so
swapping profiles can never change *what* is sampled -- only how fast.

``engine="auto"`` is one static rule, :func:`static_profile`, over the
program features :func:`features_of` reads from a ``CompiledProgram``
(table rows and the open/closed lowering verdict): ``native`` for a
closed table when a C compiler is available, else ``batch-numpy``, else
``batch-python``.
"""

from typing import Dict, NamedTuple, Optional

__all__ = [
    "BACKENDS",
    "ENGINES",
    "EngineProfile",
    "PROFILES",
    "ProgramFeatures",
    "features_of",
    "static_profile",
    "validate_profile",
]

#: Batch driver tiers (``"auto"`` takes the numpy/python default).
BACKENDS = ("auto", "native", "numpy", "python")

#: Engines a caller may request; ``"auto"`` is the policy that picks one.
ENGINES = ("auto", "batch", "trampoline")


class EngineProfile(NamedTuple):
    """A named ``(engine, backend)`` pair.

    ``engine`` picks the driver family (``"batch"`` or ``"trampoline"``;
    ``"auto"`` never appears *inside* a profile -- it is the policy that
    chooses one).  ``backend`` picks the batch driver tier.
    """

    name: str = "custom"
    engine: str = "batch"
    backend: str = "auto"

    def describe(self) -> str:
        """A one-line rendering for CLI reports and bench logs."""
        if self.engine == "trampoline":
            return "%s (trampoline)" % self.name
        return "%s (batch/%s)" % (self.name, self.backend)


def validate_profile(profile: EngineProfile) -> EngineProfile:
    """Raise ``ValueError`` (listing the valid set) on a bad profile."""
    engines = ("batch", "trampoline")  # "auto" is resolved, never named
    if profile.engine not in engines:
        raise ValueError(
            "unknown engine %r (valid: %s)"
            % (profile.engine, ", ".join(engines))
        )
    if profile.backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (valid: %s)"
            % (profile.backend, ", ".join(BACKENDS))
        )
    return profile


#: The registered profiles.  ``native`` (the generated-C-kernel backend)
#: is what ``engine="auto"`` runs on closed tables (see static_profile);
#: a table the kernel refuses anyway -- too large, compile failure --
#: downgrades observably and bit-identically to the pooled Python
#: backend.
PROFILES: Dict[str, EngineProfile] = {
    "trampoline": EngineProfile("trampoline", "trampoline"),
    "batch-auto": EngineProfile("batch-auto", "batch", "auto"),
    "batch-numpy": EngineProfile("batch-numpy", "batch", "numpy"),
    "batch-python": EngineProfile("batch-python", "batch", "python"),
    "native": EngineProfile("native", "batch", "native"),
}


# -- program features ----------------------------------------------------

class ProgramFeatures(NamedTuple):
    """The compiler-exposed features the selection rule keys on."""

    rows: int
    closed: bool


def features_of(program) -> ProgramFeatures:
    """Extract :class:`ProgramFeatures` from a ``CompiledProgram``.

    ``closed`` is the lowering verdict recorded in ``program.stats``
    (every loop state expanded at compile time; disk-rehydrated
    artifacts carry the *building* process's verdict) and falls back to
    the table's pending stubs when no stats exist.  A table with
    ``OP_CALL`` rows is never closed: its return continuations lower
    lazily during sampling.  Later JIT expansion does not change a
    recorded verdict, so ``engine="auto"`` picks the same profile for a
    program whatever ran on its table before.
    """
    table = program.table
    stats = getattr(program, "stats", None) or {}
    closed = (stats.get("lower") or {}).get("closed")
    if closed is None:
        closed = not table.pending_stubs
    return ProgramFeatures(
        rows=len(table), closed=bool(closed) and not table.calls
    )


def static_profile(features: Optional[ProgramFeatures] = None) -> EngineProfile:
    """The ``engine="auto"`` rule: ``native`` for a closed table when a
    kernel can be built here, else ``batch-numpy`` when numpy is
    installed, else ``batch-python``.

    The rule keys on ``closed`` rather than on "a kernel resolves"
    because resolving is what costs: on an open table the kernel
    resolver first spends a bounded closure attempt (tens of thousands
    of stub expansions on Table 8's Gaussian) and then refuses.
    Without ``features`` nothing is known about the table, so the rule
    takes the numpy/python default.
    """
    from repro.engine.pool import HAVE_NUMPY

    if features is not None and features.closed:
        from repro.engine.native import native_available

        if native_available():
            return PROFILES["native"]
    return PROFILES["batch-numpy" if HAVE_NUMPY else "batch-python"]
