"""``EngineProfile``: the engine-selection seam as a first-class value.

The engine/backend/batch-size decisions used to be scattered across
``collect_auto`` kwargs, ``BatchSampler.from_command`` defaults, the
driver dispatch, and the CLI ``--engine`` plumbing.  A profile bundles
every knob that selects *how* a program is sampled -- engine, backend,
batch size, compiler pass list, coalesce strategy, liveness narrowing,
fuel, and the table node budget -- into one serializable object that
the pipeline, CLI, benchmarks and telemetry all consume.

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

from typing import Dict, NamedTuple, Optional, Tuple

from repro.compiler.passes import DEFAULT_PASSES

__all__ = [
    "DEFAULT_PASSES",
    "EngineProfile",
    "PROFILES",
    "ProgramFeatures",
    "features_of",
    "profile_from_dict",
    "profile_named",
    "register_profile",
    "static_profile",
    "validate_profile",
]

class EngineProfile(NamedTuple):
    """Everything that selects a sampling strategy, in one value.

    ``engine`` picks the driver family (``"batch"`` or ``"trampoline"``;
    ``"auto"`` never appears *inside* a profile -- it is the policy that
    chooses one).  ``backend`` picks the batch driver tier; ``batch_size``
    optionally chunks large collects (``None`` = one driver call, the
    bit-exact default).  The compiler knobs (``passes``, ``coalesce``,
    ``max_nodes``) are part of the profile because they shape the table
    the drivers run -- they are folded into the artifact digest, so
    differently-profiled compilations never collide in the cache.
    """

    name: str = "custom"
    engine: str = "batch"
    backend: str = "auto"
    batch_size: Optional[int] = None
    passes: Tuple[str, ...] = DEFAULT_PASSES
    coalesce: str = "loopback"
    narrow: bool = False
    fuel: Optional[int] = None
    max_nodes: int = 2_000_000

    # -- serialization ---------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (telemetry records embed this)."""
        return {
            "name": self.name,
            "engine": self.engine,
            "backend": self.backend,
            "batch_size": self.batch_size,
            "passes": list(self.passes),
            "coalesce": self.coalesce,
            "narrow": self.narrow,
            "fuel": self.fuel,
            "max_nodes": self.max_nodes,
        }

    def describe(self) -> str:
        """A one-line rendering for CLI reports and bench logs."""
        if self.engine == "trampoline":
            core = "trampoline"
        else:
            core = "batch/%s" % self.backend
        extras = []
        if self.batch_size is not None:
            extras.append("chunk=%d" % self.batch_size)
        if self.narrow:
            extras.append("narrow")
        if self.fuel is not None:
            extras.append("fuel=%d" % self.fuel)
        if self.passes != DEFAULT_PASSES:
            extras.append("passes=%s" % "+".join(self.passes))
        suffix = (" [%s]" % ", ".join(extras)) if extras else ""
        return "%s (%s)%s" % (self.name, core, suffix)


def profile_from_dict(record: Dict[str, object]) -> EngineProfile:
    """Rebuild a profile from :meth:`EngineProfile.as_dict` output."""
    known = {field: record[field] for field in EngineProfile._fields
             if field in record}
    if "passes" in known:
        known["passes"] = tuple(known["passes"])
    profile = EngineProfile(**known)
    validate_profile(profile)
    return profile


# -- validation ----------------------------------------------------------

#: Engines a *profile* may name (the policy-level "auto" is excluded:
#: resolving it is what produces a profile).
PROFILE_ENGINES = ("batch", "trampoline")


def validate_profile(profile: EngineProfile) -> EngineProfile:
    """Raise ``ValueError`` (listing the valid set) on a bad profile."""
    from repro.engine.api import BACKENDS

    if profile.engine not in PROFILE_ENGINES:
        raise ValueError(
            "unknown engine %r (valid: %s)"
            % (profile.engine, ", ".join(PROFILE_ENGINES))
        )
    if profile.backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (valid: %s)"
            % (profile.backend, ", ".join(BACKENDS))
        )
    if profile.batch_size is not None and profile.batch_size <= 0:
        raise ValueError("batch_size must be positive or None")
    if profile.max_nodes <= 0:
        raise ValueError("max_nodes must be positive")
    return profile


# -- the registry --------------------------------------------------------

PROFILES: Dict[str, EngineProfile] = {}


def register_profile(profile: EngineProfile) -> EngineProfile:
    """Add a named profile (future backends register here once)."""
    validate_profile(profile)
    PROFILES[profile.name] = profile
    return profile


register_profile(EngineProfile(name="trampoline", engine="trampoline"))
register_profile(EngineProfile(name="batch-auto", engine="batch",
                               backend="auto"))
register_profile(EngineProfile(name="batch-numpy", engine="batch",
                               backend="numpy"))
register_profile(EngineProfile(name="batch-python", engine="batch",
                               backend="python"))
# The generated-C-kernel backend: what ``engine="auto"`` runs on closed
# tables (see static_profile).  A table the kernel refuses anyway -- too
# large, compile failure -- downgrades observably and bit-identically
# to the pooled Python backend.
register_profile(EngineProfile(name="native", engine="batch",
                               backend="native"))


def profile_named(name: str) -> EngineProfile:
    """Look up a registered profile; ``ValueError`` lists the registry."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            "unknown profile %r (valid: %s)"
            % (name, ", ".join(sorted(PROFILES)))
        )


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
