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
:class:`~repro.engine.profile.EngineProfile` bundles every knob
(engine, backend, batch size, pass list, coalesce, narrowing, fuel,
node budget), and :func:`collect_auto` resolves ``engine="auto"`` with
one static rule, :func:`~repro.engine.profile.static_profile`:
``native`` for closed tables, else ``numpy``, else ``python``.
"""

import time
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.bits.source import BitSource
from repro.cftree.tree import CFTree
from repro.engine import driver as _driver
from repro.engine.pool import BitPool, SourcePool
from repro.engine.table import LoweringError, NodeTable
from repro.lang.state import State
from repro.lang.syntax import Command
from repro.sampler.record import SampleSet

BACKENDS = ("auto", "native", "numpy", "python")

ENGINES = ("auto", "batch", "trampoline")


class CollectResult(NamedTuple):
    """``collect_auto``'s result: the samples plus which path ran.

    ``profile`` is the resolved :class:`~repro.engine.profile.
    EngineProfile`; ``fallback_reason`` carries the stringified
    ``LoweringError`` when a requested batch path silently downgraded
    to the trampoline, or a ``"native-unavailable: ..."`` note when the
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


def _compile_with(command: Command, sigma, profile) -> "object":
    """Compile ``command`` with the profile's compiler-shaping knobs."""
    from repro.compiler.pipeline import compile_program

    return compile_program(
        command,
        sigma,
        passes=profile.passes,
        coalesce=profile.coalesce,
        max_nodes=profile.max_nodes,
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

    The selection seam: every caller funnels through one resolved
    :class:`~repro.engine.profile.EngineProfile`.

    - ``profile`` pins the full strategy explicitly (CLI ``--profile``,
      benchmarks); ``engine``/``backend`` are then only used as
      overrides when passed.
    - ``engine="auto"`` (no profile) tries the batch engine and falls
      back to the trampoline when lowering fails -- the fallback is
      *observable* via ``CollectResult.fallback_reason``.  The profile
      is :func:`~repro.engine.profile.static_profile` of the compiled
      program's features: ``native`` for a closed table, else numpy,
      else pure Python.  Under ``fuel`` (only the Python drivers meter
      it) or a pinned ``backend`` the rule skips ``native``; a pinned
      backend the rule did not pick reads ``<profile>+<backend>``.  A
      closed table the kernel still refuses downgrades to ``python``
      bit-identically, with the refusal in ``fallback_reason``.
    - ``engine="batch"`` propagates the :class:`LoweringError` instead
      of falling back; ``engine="trampoline"`` forces the per-sample
      reference driver.

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
    from repro.engine.profile import (
        PROFILES,
        features_of,
        static_profile,
        validate_profile,
    )

    if engine not in ENGINES:
        raise ValueError(
            "unknown engine %r (valid: %s)" % (engine, ", ".join(ENGINES))
        )
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (valid: %s)" % (backend, ", ".join(BACKENDS))
        )

    explicit = profile is not None
    if explicit:
        validate_profile(profile)
        resolved = profile
    elif engine == "trampoline":
        resolved = PROFILES["trampoline"]
    elif engine == "batch":
        resolved = PROFILES["batch-auto"]
    else:  # "auto": batch attempt first; backend policy resolved below.
        resolved = None

    # Per-call overrides win over the profile's stored knobs.
    run_narrow = narrow or bool(resolved is not None and resolved.narrow)
    run_fuel = fuel if fuel is not None else (
        resolved.fuel if resolved is not None else None
    )
    if run_narrow:
        command = _narrowed(command, observed)

    # -- trampoline-only paths ------------------------------------------
    if resolved is not None and resolved.engine == "trampoline":
        start = time.perf_counter()
        samples = _run_trampoline(command, n, sigma, seed, extract, run_fuel)
        seconds = time.perf_counter() - start
        result = CollectResult(samples, "trampoline", 0, resolved, None,
                               seconds)
        _emit_run(None, resolved, result, n, cache_source=None)
        return result

    # -- batch attempt ---------------------------------------------------
    # Every profile static_profile returns compiles with batch-auto's
    # knobs, so "auto" compiles once, before the rule picks a backend.
    compile_profile = resolved if resolved is not None \
        else PROFILES["batch-auto"]
    fallback_reason = None
    program = None
    try:
        program = _compile_with(command, sigma, compile_profile)
    except LoweringError as err:
        if engine == "batch" or explicit:
            raise
        fallback_reason = str(err)

    if program is not None:
        if resolved is None:
            # The kernel cannot meter fuel, and a pinned backend is a
            # manual choice: both take the rule's pooled default.
            features = features_of(program)
            resolved = static_profile(
                features if run_fuel is None and backend is None else None
            )
        run_backend = backend if backend is not None else resolved.backend
        if run_backend != resolved.backend:
            # A kwarg-level backend override is a manual pin, not a
            # policy decision: fold it into the reported profile so the
            # CLI/telemetry say what actually ran.
            resolved = resolved._replace(
                name="%s+%s" % (resolved.name, run_backend),
                backend=run_backend,
            )
        sampler = BatchSampler(program.table)
        start = time.perf_counter()
        try:
            samples = sampler.collect(
                n,
                seed=seed,
                extract=extract,
                fuel=run_fuel,
                backend=run_backend,
                batch_size=resolved.batch_size,
            )
        except LoweringError as err:
            # Open tables can overflow their node budget mid-sampling.
            if engine == "batch" or explicit:
                raise
            fallback_reason = str(err)
        else:
            seconds = time.perf_counter() - start
            result = CollectResult(
                samples, "batch", len(sampler.table), resolved,
                sampler.native_fallback, seconds
            )
            _emit_run(
                program, resolved, result, n,
                cache_source=getattr(program, "source", None),
                kernel=sampler.native_info,
            )
            return result

    # -- trampoline fallback --------------------------------------------
    start = time.perf_counter()
    samples = _run_trampoline(command, n, sigma, seed, extract, run_fuel)
    seconds = time.perf_counter() - start
    result = CollectResult(
        samples, "trampoline", 0, resolved, fallback_reason, seconds
    )
    _emit_run(program, resolved, result, n, cache_source=None)
    return result


def _emit_run(program, profile, result: CollectResult, n: int,
              cache_source=None, kernel=None) -> None:
    """Append a telemetry record for one run (no-op when disabled)."""
    from repro.telemetry import make_run_record, emit, telemetry_enabled

    if not telemetry_enabled():
        return
    emit(
        make_run_record(
            digest=getattr(program, "digest", None),
            profile=profile.as_dict() if profile is not None else None,
            n=n,
            seconds=result.seconds,
            engine=result.engine,
            backend=profile.backend if profile is not None else None,
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
        cls,
        command: Command,
        sigma: Optional[State] = None,
        coalesce: str = "loopback",
        eliminate: bool = True,
        max_nodes: int = 2_000_000,
    ) -> "BatchSampler":
        """Lower ``command`` through the staged compiler pipeline
        (normalize, compile, ``elim_choices``, ``debias``) into a
        deduplicated node table; artifacts are shared through the
        content-addressed compilation cache (:mod:`repro.compiler`)."""
        from repro.compiler.passes import DEFAULT_PASSES
        from repro.compiler.pipeline import compile_program

        passes = DEFAULT_PASSES if eliminate else ("debias",)
        program = compile_program(
            command,
            sigma,
            passes=passes,
            coalesce=coalesce,
            max_nodes=max_nodes,
        )
        return cls(program.table)

    @classmethod
    def from_profile(
        cls,
        command: Command,
        sigma: Optional[State] = None,
        profile: Optional[object] = None,
    ) -> "BatchSampler":
        """Lower ``command`` with an :class:`~repro.engine.profile.
        EngineProfile`'s compiler-shaping knobs."""
        from repro.engine.profile import PROFILES, validate_profile

        if profile is None:
            profile = PROFILES["batch-auto"]
        else:
            validate_profile(profile)
        program = _compile_with(command, sigma, profile)
        return cls(program.table)

    @classmethod
    def from_cftree(
        cls,
        tree: CFTree,
        coalesce: str = "loopback",
        apply_debias: bool = True,
        max_nodes: int = 2_000_000,
    ) -> "BatchSampler":
        from repro.compiler.pipeline import compile_tree

        passes = ("debias",) if apply_debias else ()
        program = compile_tree(
            tree, passes=passes, coalesce=coalesce, max_nodes=max_nodes
        )
        return cls(program.table)

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
        batch_size: Optional[int] = None,
    ) -> SampleSet:
        """Draw ``n`` samples and return a :class:`SampleSet`.

        ``extract`` is applied once per *distinct* terminal payload, not
        once per sample -- a large win when payloads are program states.
        The mapped payloads are reused while the table is unchanged and
        the same ``extract`` object is passed again
        (:meth:`NodeTable.map_payloads`), so ``extract`` must be a pure
        function of the payload.

        ``batch_size`` splits the collection into chunks of at most that
        many samples per driver call (bounding peak lane memory on the
        numpy backend).  Chunked seeded runs derive one seed per chunk,
        so the draw remains seeded-deterministic and i.i.d. but the
        concatenated stream differs from an unchunked run;
        ``batch_size=None`` (the default, and the registry profiles')
        is the bit-stable single-call path.  An explicit ``source`` is
        shared by every chunk, so chunking never changes its bit stream.
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
            from repro.engine.profile import static_profile

            backend = static_profile().backend

        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive or None")
        if batch_size is None or batch_size >= n:
            indices, bits = self._collect_indices(n, seed, pool, fuel,
                                                  backend)
        else:
            indices, bits = [], []
            drawn = 0
            chunk_index = 0
            while drawn < n:
                chunk = min(batch_size, n - drawn)
                chunk_seed = (
                    None if seed is None
                    else (seed + 0x9E3779B1 * (chunk_index + 1)) % (2 ** 63)
                )
                chunk_indices, chunk_bits = self._collect_indices(
                    chunk, chunk_seed, pool, fuel, backend
                )
                indices.extend(chunk_indices)
                bits.extend(chunk_bits)
                drawn += chunk
                chunk_index += 1

        mapped = self.table.map_payloads(extract)
        values = [
            mapped[i] if i >= 0 else _driver.ENGINE_FAIL for i in indices
        ]
        return SampleSet(values, bits)

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
