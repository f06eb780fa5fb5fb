"""``BatchSampler``: the batch engine's user-facing facade.

Build once from a cpGCL command (or a CF tree), then draw samples in
batches::

    sampler = BatchSampler.from_command(n_sided_die(6))
    samples = sampler.collect(100_000, seed=7, extract=lambda s: s["x"])

``collect`` returns the same :class:`~repro.sampler.record.SampleSet`
the trampoline-based ``repro.sampler.record.collect`` produces, so the
harness and benchmarks consume either interchangeably.  Backends:

- ``"native"`` -- a generated C kernel over the pooled bit stream
  (closed tables only; see :mod:`repro.engine.native`), bit-for-bit
  identical to ``"python"`` on the same seed, with an observable
  downgrade to ``"python"`` when no kernel can run;
- ``"numpy"``  -- vectorized lanes (default when numpy is installed);
- ``"python"`` -- pooled pure-Python batch loop, bit-for-bit equivalent
  to the trampoline on the same stream.  It is forced whenever an
  explicit ``source`` is given: the source is read one bit at a time
  through :class:`~repro.engine.pool.SourcePool`, so a finite source
  runs out at the same position it would under the trampoline.

Engine selection lives in :mod:`repro.engine.profile`: an
:class:`~repro.engine.profile.EngineProfile` names an ``(engine,
backend)`` pair, and :func:`collect_auto` resolves every run to one of
the registered :data:`~repro.engine.profile.PROFILES` --
``engine="auto"`` with one static rule,
:func:`~repro.engine.profile.static_profile`: ``native`` for closed
tables, else ``numpy``, else ``python``.
"""

import time
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.bits.source import BitSource
from repro.cftree.tree import CFTree
from repro.engine import driver as _driver
from repro.engine.pool import BitPool, SourcePool
from repro.engine.profile import (
    BACKENDS,
    ENGINES,
    PROFILES,
    features_of,
    static_profile,
    validate_profile,
)
from repro.engine.table import LoweringError, NodeTable
from repro.lang.state import State
from repro.lang.syntax import Command
from repro.sampler.record import SampleSet

#: The registered batch profile of each backend.
_BACKEND_PROFILES = {profile.backend: profile
                     for profile in PROFILES.values()
                     if profile.engine == "batch"}


class CollectResult(NamedTuple):
    """``collect_auto``'s result: the samples plus which path ran.

    ``profile`` is the registered :class:`~repro.engine.profile.
    EngineProfile` that ran; ``fallback_reason`` carries the stringified
    ``LoweringError`` when the batch path downgraded to the
    trampoline, or a ``"native-unavailable: ..."`` note when the
    native backend downgraded to the bit-identical pooled Python
    backend (``None`` otherwise) -- telemetry records and test
    assertions key on it.  ``seconds`` is sampling wall-clock
    (compilation excluded).
    """

    samples: SampleSet
    engine: str  # "batch" or "trampoline"
    table_nodes: int  # 0 on the trampoline path
    profile: Optional[object] = None
    fallback_reason: Optional[str] = None
    seconds: float = 0.0


def _narrowed(command: Command, observed) -> Command:
    from repro.compiler.liveness import narrow_command

    return narrow_command(
        command, observed=tuple(observed) if observed else ()
    )


def _run_trampoline(command, n, sigma, seed, extract, fuel):
    from repro.itree.unfold import cpgcl_to_itree
    from repro.sampler.record import collect

    tree = cpgcl_to_itree(command, sigma if sigma is not None else State())
    return collect(tree, n, seed=seed, extract=extract, fuel=fuel)


def collect_auto(
    command: Command,
    n: int,
    sigma: Optional[State] = None,
    seed: Optional[int] = None,
    extract: Optional[Callable[[object], object]] = None,
    engine: str = "auto",
    fuel: Optional[int] = None,
    narrow: bool = False,
    observed: Optional[Tuple[str, ...]] = None,
    profile: Optional[object] = None,
    backend: Optional[str] = None,
) -> CollectResult:
    """Engine-selection policy shared by the harness, CLI, and checkers.

    Every run resolves to one registered
    :data:`~repro.engine.profile.PROFILES` entry, reported as
    ``CollectResult.profile``:

    - ``profile`` is read as its ``(engine, backend)`` pair; a
      ``backend`` kwarg still overrides its backend.
    - ``engine="trampoline"`` (or the ``trampoline`` profile) resolves
      to ``trampoline``; a ``backend`` kwarg with it raises
      ``ValueError``, since the trampoline runs no batch backend.
    - A pinned backend resolves to its profile: ``native``,
      ``batch-numpy``, ``batch-python`` or ``batch-auto``;
      ``engine="batch"`` with no backend resolves to ``batch-auto``.
    - ``engine="auto"`` with nothing pinned resolves to
      :func:`~repro.engine.profile.static_profile` of the compiled
      program's features: ``native`` for a closed table, else numpy,
      else pure Python.  Under ``fuel`` (only the Python drivers meter
      it) the rule takes the pooled default without looking.

    ``engine="batch"`` and a pinned ``profile`` propagate a
    :class:`LoweringError`; otherwise the run falls back to the
    trampoline, and the fallback is *observable*: the result reports
    the ``trampoline`` profile and the error as ``fallback_reason``.  A
    closed table the kernel still refuses downgrades to ``python``
    bit-identically, with the refusal in ``fallback_reason``.

    ``narrow=True`` applies liveness-driven loop-state narrowing
    (:func:`repro.compiler.liveness.narrow_command`) before sampling;
    ``observed`` names the variables whose final values the caller will
    read.  The narrowing happens at the command level, so the batch
    engine and the trampoline fallback sample the same narrowed
    program.

    When telemetry is enabled (``ZAR_TELEMETRY_DIR``), every call
    appends one JSONL run record: digest, profile, wall-clock,
    samples/s, bits, cache tier, and any fallback reason.
    """
    from repro.compiler.pipeline import compile_program

    if engine not in ENGINES:
        raise ValueError(
            "unknown engine %r (valid: %s)" % (engine, ", ".join(ENGINES))
        )
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (valid: %s)" % (backend, ", ".join(BACKENDS))
        )
    strict = engine == "batch" or profile is not None
    if profile is not None:
        validate_profile(profile)
        engine = profile.engine
    if engine == "trampoline" and backend is not None:
        raise ValueError(
            "backend %r needs the batch engine; the trampoline runs none"
            % backend
        )
    if profile is not None and backend is None:
        backend = profile.backend
    if narrow:
        command = _narrowed(command, observed)

    fallback_reason = None
    program = None
    if engine != "trampoline":
        try:
            program = compile_program(command, sigma)
            if backend is not None:
                resolved = _BACKEND_PROFILES[backend]
            elif engine == "batch":
                resolved = PROFILES["batch-auto"]
            else:
                resolved = static_profile(
                    features_of(program) if fuel is None else None
                )
            sampler = BatchSampler(program.table)
            start = time.perf_counter()
            samples = sampler.collect(
                n, seed=seed, extract=extract, fuel=fuel,
                backend=resolved.backend,
            )
        except LoweringError as err:
            # Open tables can also overflow their node budget
            # mid-sampling.
            if strict:
                raise
            fallback_reason = str(err)
        else:
            seconds = time.perf_counter() - start
            result = CollectResult(
                samples, "batch", len(sampler.table), resolved,
                sampler.native_fallback, seconds
            )
            _emit_run(
                program, result, n,
                cache_source=getattr(program, "source", None),
                kernel=sampler.native_info,
            )
            return result

    start = time.perf_counter()
    samples = _run_trampoline(command, n, sigma, seed, extract, fuel)
    seconds = time.perf_counter() - start
    result = CollectResult(
        samples, "trampoline", 0, PROFILES["trampoline"], fallback_reason,
        seconds
    )
    _emit_run(program, result, n)
    return result


def _emit_run(program, result: CollectResult, n: int,
              cache_source=None, kernel=None) -> None:
    """Append a telemetry record for one run (no-op when disabled).

    Only a batch run has a backend: a trampoline run -- pinned, or a
    ``LoweringError`` fallback -- records ``backend: None``."""
    from repro.telemetry import make_run_record, emit, telemetry_enabled

    if not telemetry_enabled():
        return
    emit(
        make_run_record(
            digest=getattr(program, "digest", None),
            profile=result.profile.name,
            n=n,
            seconds=result.seconds,
            engine=result.engine,
            backend=(result.profile.backend if result.engine == "batch"
                     else None),
            bits_total=sum(result.samples.bits),
            cache_source=cache_source,
            fallback_reason=result.fallback_reason,
            table_rows=result.table_nodes,
            kernel_cache=(kernel or {}).get("tier"),
            kernel_compile_ms=(kernel or {}).get("compile_ms"),
        )
    )


class BatchSampler:
    """A compiled sampler drawing N samples per call off a node table."""

    def __init__(self, table: NodeTable, tied: bool = True):
        self.table = table
        self.tied = tied
        #: After a ``backend="native"`` collect: the downgrade note
        #: (``"native-unavailable: ..."``) when the kernel path could
        #: not run and the pooled Python backend served the request
        #: bit-identically, else ``None``.
        self.native_fallback: Optional[str] = None
        #: Kernel-cache telemetry from the last native resolution
        #: (``tier``/``compile_ms``/``digest``), else ``None``.
        self.native_info = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_command(
        cls, command: Command, sigma: Optional[State] = None
    ) -> "BatchSampler":
        """Lower ``command`` through the staged compiler pipeline
        (normalize, compile, ``elim_choices``, ``debias``) into a
        deduplicated node table; artifacts are shared through the
        content-addressed compilation cache (:mod:`repro.compiler`)."""
        from repro.compiler.pipeline import compile_program

        return cls(compile_program(command, sigma).table)

    @classmethod
    def from_cftree(cls, tree: CFTree) -> "BatchSampler":
        """Debias and lower a pre-built CF tree (``uniform_tree``, ...)."""
        from repro.compiler.pipeline import compile_tree

        return cls(compile_tree(tree).table)

    # -- sampling --------------------------------------------------------

    def sample(self, source: BitSource, max_steps: Optional[int] = None):
        """One sample against an explicit source (trampoline-exact)."""
        return _driver.run_table(self.table, source, max_steps, self.tied)

    def _collect_indices(
        self,
        n: int,
        seed: Optional[int],
        pool: Optional[SourcePool],
        fuel: Optional[int],
        backend: str,
    ) -> Tuple[List[int], List[int]]:
        """One driver call: payload indices + per-sample bit counts.

        ``pool`` (an explicit source) takes precedence over ``seed``;
        only the ``"python"`` backend ever receives one.
        """
        if backend == "native":
            indices_bits = self._collect_native(n, seed, fuel)
            if indices_bits is not None:
                return indices_bits
            # Downgrade (reason recorded in ``native_fallback``) to the
            # pooled Python backend, which consumes the identical
            # ``BitPool(seed)`` stream -- the fallback is bit-for-bit.
            backend = "python"
        if backend == "python":
            return _driver.collect_python(
                self.table, n, pool if pool is not None else BitPool(seed),
                fuel, self.tied,
            )
        raw_indices, raw_bits = _driver.collect_numpy(
            self.table, n, seed=seed, max_steps=fuel, tied=self.tied
        )
        return raw_indices.tolist(), raw_bits.tolist()

    def _collect_native(
        self, n: int, seed: Optional[int], fuel: Optional[int]
    ) -> Optional[Tuple[List[int], List[int]]]:
        """Try the generated-kernel path; ``None`` means "downgrade".

        Every refusal is observable: ``native_fallback`` carries a
        ``"native-unavailable: <reason>"`` note and ``native_info`` the
        kernel-cache telemetry (when a kernel was resolved).
        """
        from repro.engine import native as _native

        if fuel is not None:
            # Fuel counts *node visits*, a quantity only the Python
            # drivers define (the kernel sees no JMP/LEAF rows); refuse
            # rather than approximate so metered runs stay exact.
            self.native_fallback = (
                "native-unavailable: fuel metering needs the Python "
                "drivers' step accounting"
            )
            return None
        kernel, reason, info = _native.kernel_for(self.table)
        self.native_info = info
        if kernel is None:
            self.native_fallback = "native-unavailable: %s" % reason
            return None
        return _native.collect_kernel(kernel, n, seed=seed, tied=self.tied)

    def collect(
        self,
        n: int,
        seed: Optional[int] = None,
        source: Optional[BitSource] = None,
        extract: Optional[Callable[[object], object]] = None,
        fuel: Optional[int] = None,
        backend: str = "auto",
    ) -> SampleSet:
        """Draw ``n`` samples and return a :class:`SampleSet`.

        ``extract`` is applied once per *distinct* terminal payload, not
        once per sample -- a large win when payloads are program states.
        The mapped payloads are reused while the table is unchanged and
        the same ``extract`` object is passed again
        (:meth:`NodeTable.map_payloads`), so ``extract`` must be a pure
        function of the payload.
        """
        if n <= 0:
            raise ValueError("need a positive sample count")
        self.native_fallback = None
        if backend not in BACKENDS:
            raise ValueError(
                "unknown backend %r (valid: %s)"
                % (backend, ", ".join(BACKENDS))
            )
        pool = None
        if source is not None:
            backend = "python"
            pool = SourcePool(source)
        elif backend == "auto":
            backend = static_profile().backend

        indices, bits = self._collect_indices(n, seed, pool, fuel, backend)
        # The mapped list ends with ENGINE_FAIL, so index -1 reads it and
        # the comprehension needs no branch.  On CPython 3.11 it builds
        # 1M values 15-35% faster than list(map(mapped.__getitem__, ...)).
        mapped = self.table.map_payloads(extract)
        return SampleSet([mapped[i] for i in indices], bits)

    def samples(
        self,
        n: int,
        seed: Optional[int] = None,
        source: Optional[BitSource] = None,
        backend: str = "auto",
    ) -> List[object]:
        return self.collect(n, seed=seed, source=source, backend=backend).values

    # -- introspection ---------------------------------------------------

    def stats(self):
        return self.table.stats()

    def __repr__(self):
        return "BatchSampler(%d nodes, %d payloads)" % (
            len(self.table),
            len(self.table.payloads),
        )
