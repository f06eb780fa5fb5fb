"""The native backend: generated C kernels for closed tables (ISSUE 10).

The contract under test, in order of importance:

1. **Bit-stream preservation.**  ``backend="native"`` is bit-for-bit
   identical to the pooled Python backend (and to the one-sample
   walker, ``BatchSampler.sample``, stepped over the same pool) at
   every seed: same payload stream, same per-sample bit counts.  This
   holds on closed tables (the kernel runs) *and* on refusals (open
   tables, fuel, disabled env), where the observable downgrade re-runs
   the pooled Python driver on the same pool.

2. **Digest-keyed kernel cache.**  The kernel digest is computed over a
   canonical discovery-order renumbering, so the same program reaches
   the same ``.so`` regardless of expansion history or process; a warm
   disk store means a fresh process never invokes the C compiler, and a
   corrupted entry is recompiled -- never executed.

3. **Observability.**  Every refusal surfaces as a
   ``"native-unavailable: ..."`` fallback note; kernel cache tier and
   compile time land in telemetry records; ``engine="auto"`` only picks
   ``native`` where a kernel can be built.

4. **The numpy contrast.**  The numpy backend's lane scheduling makes
   its stream depend on table *layout* (expansion history), so no
   identical-stream assertion can pin it across histories -- the gap
   documented in ``docs/architecture.md``.  Here we pin what *is*
   invariant: the python/native tiers are layout-insensitive
   bit-for-bit, and the numpy stream stays distributionally exact
   (Clopper-Pearson at alpha=1e-9) under every expansion history.
"""

import os
import random
import subprocess
import sys
import textwrap
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from repro.bits.source import CountingBits, ReplayBits
from repro.compiler.cache import CompilationCache
from repro.compiler.liveness import narrow_command
from repro.compiler.pipeline import Pipeline
from repro.engine import ENGINE_FAIL, BatchSampler, BitPool, collect_auto
from repro.engine.driver import collect_python
from repro.engine.native import codegen as _codegen
from repro.engine.native import (
    KernelCacheError,
    KernelUnsupported,
    build_kernel,
    collect_kernel,
    compiler_fingerprint,
    compiler_invocations,
    encode_table,
    encoded_digest,
    find_compiler,
    kernel_for,
    kernel_status,
    native_available,
    reset_kernel_runtime,
)
from repro.engine.pool import HAVE_NUMPY
from repro.engine.profile import PROFILES
from repro.lang.expr import Var
from repro.lang.parser import parse_program
from repro.lang.sugar import (
    dueling_coins,
    geometric_primes,
    hare_tortoise,
    n_sided_die,
)
from repro.telemetry import configure_telemetry, read_records

from tests.statistical import assert_pmf

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="no C compiler available (or ZAR_NATIVE_DISABLE set)",
)

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy absent")


@pytest.fixture(autouse=True)
def _isolate_runtime():
    """Tests mutate the kernel runtime (cache dirs, compiler env);
    reset it afterwards so no test sees another's memory tier."""
    yield
    reset_kernel_runtime()
    configure_telemetry(None)


def _compile(command):
    return Pipeline(use_cache=False).compile(command)


def _stream(command, n, seed, backend, extract=None, fuel=None):
    """(values, bits) via ``collect_auto`` at a pinned backend."""
    result = collect_auto(
        command, n, seed=seed, extract=extract, backend=backend, fuel=fuel
    )
    return result.samples.values, result.samples.bits


def _walked(sampler, n, seed, extract=None):
    """(values, bits) from the one-sample walker over ``BitPool(seed)``:
    the sequential reference every pooled backend must reproduce."""
    source = CountingBits(BitPool(seed))
    values, bits = [], []
    for _ in range(n):
        value = sampler.sample(source)
        values.append(extract(value) if extract is not None else value)
        bits.append(source.take_count())
    return values, bits


# -- 1. bit-stream preservation ------------------------------------------

DIFFERENTIAL = [
    ("die6", n_sided_die(6), lambda s: s["x"], 400),
    ("die200", n_sided_die(200), lambda s: s["x"], 250),
    ("dueling_2_3", dueling_coins(Fraction(2, 3)), lambda s: s["a"], 250),
    ("dueling_1_20", dueling_coins(Fraction(1, 20)), lambda s: s["a"], 120),
    # Open table: native refuses, downgrade must stay bit-identical.
    ("geometric", geometric_primes(Fraction(1, 2)), lambda s: s["h"], 150),
]


@requires_native
class TestDifferential:
    @pytest.mark.parametrize(
        "name,command,extract,n",
        DIFFERENTIAL,
        ids=[case[0] for case in DIFFERENTIAL],
    )
    @pytest.mark.parametrize("seed", [0, 11, 20260808])
    def test_native_matches_sequential_and_python(
        self, name, command, extract, n, seed
    ):
        native = _stream(command, n, seed, "native", extract)
        assert native == _stream(command, n, seed, "python", extract)
        sampler = BatchSampler.from_command(command)
        assert native == _walked(sampler, n, seed, extract)

    def test_open_table_downgrade_is_observable(self):
        result = collect_auto(
            geometric_primes(Fraction(1, 2)), 50, seed=3, backend="native"
        )
        assert result.engine == "batch"
        assert result.fallback_reason is not None
        assert result.fallback_reason.startswith("native-unavailable:")
        assert "open table" in result.fallback_reason

    def test_fuel_metering_refuses_native(self):
        # Fuel counts Python-driver node visits; the kernel has no such
        # notion, so metered runs must stay on the exact Python path.
        command = n_sided_die(6)
        result = collect_auto(command, 60, seed=5, backend="native", fuel=500)
        assert result.fallback_reason is not None
        assert "fuel" in result.fallback_reason
        assert (result.samples.values, result.samples.bits) == _stream(
            command, 60, 5, "python", None, fuel=500
        )

    def test_thawed_fig9b_matches_sequential(self, tmp_path):
        # The fig9b resume path (narrowed hare/tortoise): OP_CALL rows
        # make the table natively unsupported, so ``backend="native"``
        # on the thawed program must downgrade and still be bit-for-bit
        # the python stream and the one-sample walker's.
        command = narrow_command(
            hare_tortoise(Var("time") <= 10), observed=("t0", "time")
        )
        disk = str(tmp_path / "store")
        cache = CompilationCache(capacity=8, disk_dir=disk)
        program = Pipeline(cache=cache).compile(command)
        program.collect(120, seed=23, backend="python")  # warm trajectories
        cache.put(program.digest, program)

        fresh = Pipeline(cache=CompilationCache(capacity=8, disk_dir=disk))
        thawed = fresh.compile(command)
        assert thawed.source == "disk"

        def run(backend):
            result = thawed.collect(
                80, seed=91, extract=lambda s: s["t0"], backend=backend
            )
            return result.values, result.bits

        native = run("native")
        assert native == run("python")
        assert native == _walked(
            thawed.sampler(), 80, 91, extract=lambda s: s["t0"]
        )


# -- 1b. the K-bit window walk -------------------------------------------

def _at_step(monkeypatch, tmp_path, k):
    """Build every kernel from here on with ``k``-bit windows (8 under
    the default 1 MiB budget, 2 at the floor) in a fresh store."""
    monkeypatch.setattr(_codegen, "W_BUDGET", (1 << 20) if k == 8 else 1)
    monkeypatch.setenv("ZAR_NATIVE_CACHE_DIR", str(tmp_path))
    reset_kernel_runtime()


def _bound(table, k):
    bound, reason, _info = kernel_for(table)
    assert bound is not None, reason
    assert bound.kernel.step_bits == k
    return bound


def _lsb_bits(data):
    """``data`` as the kernel reads it: LSB first within each byte."""
    return [(byte >> j) & 1 for byte in data for j in range(8)]


@requires_native
class TestWindowWalk:
    """The kernel reads up to K bits per table lookup; every sample,
    bit count and stream position must stay the one-bit walk's."""

    def test_step_width_follows_the_table_size(self):
        # The widest window whose int32 table fits in 1 MiB, never
        # below 2: die6, die200, die10000 and a 70,000-row table.
        widths = [_codegen.step_bits(rows)
                  for rows in (6, 202, 10_005, 70_000)]
        assert widths == [8, 8, 4, 2]

    def test_step_width_is_part_of_the_digest(self, monkeypatch):
        table = _compile(n_sided_die(200)).table
        table.expand_all()
        encoded = encode_table(table)
        wide = encoded_digest(encoded)
        assert "#define ZAR_K 8\n" in _codegen.render_c(encoded, wide)
        monkeypatch.setattr(_codegen, "W_BUDGET", 1)
        narrow = encoded_digest(encoded)
        assert narrow != wide
        assert "#define ZAR_K 2\n" in _codegen.render_c(encoded, narrow)

    @pytest.mark.parametrize("k", [8, 2])
    def test_die200_matches_python_and_walker(self, k, tmp_path,
                                              monkeypatch):
        _at_step(monkeypatch, tmp_path, k)
        command = n_sided_die(200)
        _bound(_compile(command).table, k)
        extract = lambda s: s["x"]
        native = _stream(command, 300, 7, "native", extract)
        assert native == _stream(command, 300, 7, "python", extract)
        assert native == _walked(
            BatchSampler.from_command(command), 300, 7, extract
        )

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
    @pytest.mark.parametrize("k", [8, 2])
    def test_failure_inside_a_window(self, k, tied, tmp_path, monkeypatch):
        # The observation fails a few bits into an attempt, well inside
        # an 8-bit window: tied, the next attempt starts on the bit
        # after the failure; untied, the sample ends there.
        _at_step(monkeypatch, tmp_path, k)
        table = _compile(parse_program(
            "a <~ flip(2/3);\nb <~ flip(2/3);\nobserve a != b;\n"
        )).table
        _bound(table, k)
        sampler = BatchSampler(table, tied=tied)
        native = sampler.collect(400, seed=5, backend="native")
        assert sampler.native_fallback is None
        python = sampler.collect(400, seed=5, backend="python")
        assert (native.values, native.bits) == (python.values, python.bits)
        assert (native.values, native.bits) == _walked(sampler, 400, 5)
        failed = [bits for value, bits in zip(native.values, native.bits)
                  if value is ENGINE_FAIL]
        if tied:
            assert not failed
        else:
            assert failed and min(failed) < 8

    @pytest.mark.parametrize("k", [8, 2])
    def test_tail_path_and_parking_across_tiny_buffers(self, k, tmp_path,
                                                       monkeypatch):
        # Buffers of 1..16 bytes: below 8 bytes only the one-bit tail
        # path runs, above it the window path hands over to the tail
        # mid-buffer, and samples park and resume across nearly every
        # call.  The reference is the one-sample walker on the same bits.
        _at_step(monkeypatch, tmp_path, k)
        table = _compile(dueling_coins(Fraction(2, 3))).table
        bound = _bound(table, k)
        data = random.Random(k).randbytes(4000)
        n = 300
        out_idx = array("q", [0]) * n
        out_bits = array("q", [0]) * n
        state = array("q", [_codegen.FRESH_STATE, 0])
        done = offset = 0
        size = 1
        while done < n:
            buffer = data[offset:offset + size]
            assert len(buffer) == size, "reference bits ran out"
            offset += size
            size = size % 16 + 1
            done = bound.kernel.collect_call(
                buffer, len(buffer) * 8, done, n, out_idx, out_bits, state,
                bound.payload_map, True,
            )
        source = CountingBits(ReplayBits(_lsb_bits(data)))
        sampler = BatchSampler(table)
        walked = [(sampler.sample(source), source.take_count())
                  for _ in range(n)]
        assert [(table.payloads[i], bits)
                for i, bits in zip(out_idx, out_bits)] == walked

    @pytest.mark.parametrize("k", [8, 2])
    def test_one_chunk_refills(self, k, tmp_path, monkeypatch):
        # One 4096-bit chunk per kernel call: at ~135 bits a sample the
        # dueling-coins walk parks at every refill.
        _at_step(monkeypatch, tmp_path, k)
        monkeypatch.setattr("repro.engine.native.driver._CHUNKS_MIN", 1)
        monkeypatch.setattr("repro.engine.native.driver._CHUNKS_MAX", 1)
        table = _compile(dueling_coins(Fraction(1, 20))).table
        bound = _bound(table, k)
        assert collect_kernel(bound, 600, seed=3) == collect_python(
            table, 600, BitPool(3)
        )

    def test_step_width_mismatch_fails_validation(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(
            "repro.engine.native.kernel.step_bits", lambda rows: 3
        )
        table = _compile(n_sided_die(6)).table
        with pytest.raises(KernelCacheError, match="step width 8"):
            build_kernel(encode_table(table), cache_dir=str(tmp_path))

    def test_uninitialised_kernel_refuses_instead_of_spinning(
        self, tmp_path
    ):
        # Before zar_init an all-zero window table consumes no bits per
        # lookup, so an unguarded walk would never end.  The child loads
        # the object without zar_init; a hang times out instead of
        # taking the suite down.
        encoded = encode_table(_compile(n_sided_die(6)).table)
        _kernel, info = build_kernel(encoded, cache_dir=str(tmp_path))
        so_path = tmp_path / ("zk-%s-%s.so"
                              % (info["digest"], compiler_fingerprint()))
        script = textwrap.dedent("""
            import sys
            from array import array
            from repro.engine.native import kernel
            from repro.engine.native.codegen import FRESH_STATE

            lib = kernel._open_library(sys.argv[1])
            loaded = kernel.NativeKernel(lib, sys.argv[2], 6)
            n = 10
            try:
                loaded.collect_call(
                    bytes(64), 512, 0, n, array("q", [0]) * n,
                    array("q", [0]) * n, array("q", [FRESH_STATE, 0]),
                    array("i", range(6)), True,
                )
            except kernel.KernelCacheError as err:
                print("refused:", err)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                                / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(so_path), info["digest"]],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "refused:" in proc.stdout
        assert "zar_init" in proc.stdout


# -- 2. canonical encoding and the digest --------------------------------

@requires_native
class TestEncoding:
    def test_digest_stable_across_fresh_compiles(self):
        first = encoded_digest(encode_table(_compile(n_sided_die(6)).table))
        second = encoded_digest(encode_table(_compile(n_sided_die(6)).table))
        assert first == second

    def test_digest_stable_across_expansion_histories(self):
        # die2000 compiles with ~1000 pending stubs.  History A: closed
        # by the native resolver's bounded expansion.  History B: warmed
        # along sampled trajectories first (rows -- and payload indices
        # -- land in a different physical order), then closed.  The
        # discovery-order renumbering of rows *and* leaf codes must
        # erase the layout difference: same digest, so history B rides
        # the kernel history A compiled (memory tier, no compiler
        # work), with its own payload map making the mapped streams
        # bit-for-bit equal.
        reset_kernel_runtime()
        a = _compile(n_sided_die(2000))
        assert a.table.pending_stubs > 0
        kernel_a, reason_a, info_a = kernel_for(a.table)
        assert kernel_a is not None, reason_a

        before = compiler_invocations()
        b = _compile(n_sided_die(2000))
        b.collect(64, seed=99, backend="python")  # trajectory-order rows
        kernel_b, reason_b, info_b = kernel_for(b.table)
        assert kernel_b is not None, reason_b
        assert info_a["digest"] == info_b["digest"]
        assert info_b["tier"] == "memory"
        assert compiler_invocations() == before

        def run(program):
            result = program.collect(
                400, seed=5, extract=lambda s: s["x"], backend="native"
            )
            return result.values, result.bits

        assert run(a) == run(b)

    def test_open_table_refused_by_encoder(self):
        table = _compile(geometric_primes(Fraction(1, 2))).table
        with pytest.raises(KernelUnsupported):
            encode_table(table)

    def test_call_rows_refused_by_encoder(self):
        command = narrow_command(
            hare_tortoise(Var("time") <= 10), observed=("t0", "time")
        )
        program = _compile(command)
        program.collect(60, seed=7, backend="python")
        with pytest.raises(KernelUnsupported):
            encode_table(program.table)


# -- 3. cache tiers: cold / warm / fresh-process / corrupted -------------

def _must_not_run(*args, **kwargs):
    raise AssertionError("a memoized kernel was resolved again")


@requires_native
class TestKernelCache:
    def test_cold_warm_disk_streams_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZAR_NATIVE_CACHE_DIR", str(tmp_path))
        reset_kernel_runtime()
        table = _compile(n_sided_die(6)).table
        before = compiler_invocations()

        kernel, reason, info = kernel_for(table)
        assert kernel is not None, reason
        assert info["tier"] == "compiled"
        assert info["compile_ms"] > 0
        assert compiler_invocations() == before + 1
        assert os.path.exists(info["c_path"])  # kept for the CI artifact
        cold = collect_kernel(kernel, 500, seed=9)

        # Same process: memory tier, no compiler work, and no encoding
        # or hashing either -- the table remembers its bound kernel.
        with monkeypatch.context() as patch:
            for name in ("repro.engine.native.driver.encode_table",
                         "repro.engine.native.kernel.encoded_digest"):
                patch.setattr(name, _must_not_run)
            kernel2, _, info2 = kernel_for(table)
        assert kernel2 is kernel
        assert info2["tier"] == "memory"
        assert info2["compile_ms"] is None
        assert compiler_invocations() == before + 1
        assert collect_kernel(kernel2, 500, seed=9) == cold

        # A runtime reset retires that memo: the same table object
        # resolves again, from the warm store, with no compiler work.
        reset_kernel_runtime()
        kernel_again, _, info_again = kernel_for(table)
        assert kernel_again is not kernel
        assert info_again["tier"] == "disk"
        assert compiler_invocations() == before + 1
        assert collect_kernel(kernel_again, 500, seed=9) == cold

        # "Fresh process" (runtime reset) against the warm store: disk
        # tier, still no compiler work, identical stream.
        reset_kernel_runtime()
        fresh_table = _compile(n_sided_die(6)).table
        kernel3, _, info3 = kernel_for(fresh_table)
        assert info3["tier"] == "disk"
        assert info3["digest"] == info["digest"]
        assert compiler_invocations() == before + 1
        assert collect_kernel(kernel3, 500, seed=9) == cold

    def test_corrupted_cache_entry_recompiles(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZAR_NATIVE_CACHE_DIR", str(tmp_path))
        reset_kernel_runtime()
        table = _compile(n_sided_die(6)).table
        kernel, _, info = kernel_for(table)
        want = collect_kernel(kernel, 300, seed=4)

        # Truncate/garble every cached object, then simulate a fresh
        # process.  A garbled entry must fail validation and be rebuilt
        # from source -- never executed.
        so_paths = [
            os.path.join(str(tmp_path), name)
            for name in os.listdir(str(tmp_path))
            if name.endswith(".so")
        ]
        assert so_paths
        for path in so_paths:
            with open(path, "wb") as handle:
                handle.write(b"\x7fELF not really a shared object")
        reset_kernel_runtime()
        before = compiler_invocations()
        fresh_table = _compile(n_sided_die(6)).table
        kernel2, reason, info2 = kernel_for(fresh_table)
        assert kernel2 is not None, reason
        assert info2["tier"] == "compiled"
        assert compiler_invocations() == before + 1
        assert collect_kernel(kernel2, 300, seed=4) == want

    def test_stale_digest_entry_recompiles(self, tmp_path):
        # A cached object whose embedded digest disagrees with its file
        # name (e.g. a hand-edited store) must also be dropped.
        table6 = _compile(n_sided_die(6)).table
        table8 = _compile(n_sided_die(8)).table
        enc6, enc8 = encode_table(table6), encode_table(table8)
        d6, d8 = encoded_digest(enc6), encoded_digest(enc8)
        assert d6 != d8
        cache = str(tmp_path)
        kernel6, info6 = build_kernel(enc6, cache_dir=cache)
        # Masquerade die6's object under die8's key.
        so6 = [p for p in os.listdir(cache) if p.endswith(".so")][0]
        bogus = os.path.join(cache, so6.replace(d6, d8))
        with open(os.path.join(cache, so6), "rb") as src:
            payload = src.read()
        with open(bogus, "wb") as dst:
            dst.write(payload)
        reset_kernel_runtime()
        before = compiler_invocations()
        kernel8, info8 = build_kernel(enc8, cache_dir=cache)
        assert info8["tier"] == "compiled"
        assert compiler_invocations() == before + 1
        assert kernel8.digest == d8


# -- 4. degraded environments --------------------------------------------

class TestDegraded:
    """These run (and matter most) on the CI legs where the C toolchain
    is absent or disabled: the downgrade must be observable and
    bit-identical, never an error."""

    def test_disabled_env_downgrades_bit_identically(self, monkeypatch):
        monkeypatch.setenv("ZAR_NATIVE_DISABLE", "1")
        command = n_sided_die(6)
        result = collect_auto(command, 200, seed=13, backend="native")
        assert result.fallback_reason == (
            "native-unavailable: disabled via ZAR_NATIVE_DISABLE"
        )
        assert (result.samples.values, result.samples.bits) == _stream(
            command, 200, 13, "python"
        )
        assert (result.samples.values, result.samples.bits) == _walked(
            BatchSampler.from_command(command), 200, 13
        )

    def test_disabled_env_keeps_auto_off_native(self, monkeypatch):
        # The auto rule asks native_available() first, so a disabled
        # backend is no downgrade: auto takes the pooled default.
        monkeypatch.setenv("ZAR_NATIVE_DISABLE", "1")
        result = collect_auto(n_sided_die(6), 200, seed=13)
        assert result.profile.name == (
            "batch-numpy" if HAVE_NUMPY else "batch-python"
        )
        assert result.fallback_reason is None

    @pytest.mark.parametrize("gate", ["disabled", "no-compiler"])
    def test_gates_refuse_an_already_bound_table(self, gate, monkeypatch):
        # kernel_for checks its table memo only after the environment
        # gates, so turning the backend off refuses a bound table too.
        monkeypatch.delenv("ZAR_NATIVE_DISABLE", raising=False)
        command = n_sided_die(6)
        expected = _stream(command, 120, 17, "python")
        bound = collect_auto(command, 120, seed=17, backend="native")
        if bound.fallback_reason is not None:
            pytest.skip("cannot bind a kernel here: %s"
                        % bound.fallback_reason)
        assert (bound.samples.values, bound.samples.bits) == expected
        if gate == "disabled":
            monkeypatch.setenv("ZAR_NATIVE_DISABLE", "1")
            reason = "native-unavailable: disabled via ZAR_NATIVE_DISABLE"
        else:
            monkeypatch.setattr(
                "repro.engine.native.kernel.find_compiler", lambda: None
            )
            reason = "native-unavailable: no C compiler on PATH"
        result = collect_auto(command, 120, seed=17, backend="native")
        assert result.fallback_reason.startswith(reason)
        assert (result.samples.values, result.samples.bits) == expected

    def test_compiler_probe_follows_the_environment(
        self, tmp_path, monkeypatch
    ):
        # The PATH search is memoized on (ZAR_NATIVE_CC, PATH); a reset
        # of the kernel runtime drops it.
        for name in ("one", "two"):
            monkeypatch.setenv("ZAR_NATIVE_CC", str(tmp_path / name / "cc"))
            assert find_compiler() == str(tmp_path / name / "cc")
        monkeypatch.delenv("ZAR_NATIVE_CC")
        monkeypatch.setenv("PATH", str(tmp_path))
        assert find_compiler() is None
        compiler = tmp_path / "cc"
        compiler.write_text("#!/bin/sh\n")
        compiler.chmod(0o755)
        assert find_compiler() is None
        reset_kernel_runtime()
        assert find_compiler() == str(compiler)

    def test_missing_compiler_downgrades_bit_identically(self, monkeypatch):
        # Clear the disable knob so this exercises the *compiler* path
        # even on the CI leg that exports ZAR_NATIVE_DISABLE=1.
        monkeypatch.delenv("ZAR_NATIVE_DISABLE", raising=False)
        monkeypatch.setattr(
            "repro.engine.native.kernel.find_compiler", lambda: None
        )
        command = dueling_coins(Fraction(2, 3))
        result = collect_auto(command, 150, seed=7, backend="native")
        assert result.fallback_reason is not None
        assert result.fallback_reason.startswith("native-unavailable:")
        assert "compiler" in result.fallback_reason
        assert (result.samples.values, result.samples.bits) == _stream(
            command, 150, 7, "python"
        )

    def test_broken_compiler_downgrades_bit_identically(
        self, tmp_path, monkeypatch
    ):
        # An explicit ZAR_NATIVE_CC that cannot run: the compile attempt
        # fails, the reason says so, and the samples still come back.
        monkeypatch.delenv("ZAR_NATIVE_DISABLE", raising=False)
        monkeypatch.setenv("ZAR_NATIVE_CC", str(tmp_path / "missing-cc"))
        monkeypatch.setenv("ZAR_NATIVE_CACHE_DIR", str(tmp_path / "cache"))
        reset_kernel_runtime()
        command = n_sided_die(6)
        result = collect_auto(command, 100, seed=21, backend="native")
        assert result.fallback_reason is not None
        assert result.fallback_reason.startswith(
            "native-unavailable: kernel compile failed"
        )
        assert (result.samples.values, result.samples.bits) == _stream(
            command, 100, 21, "python"
        )
        # The auto rule picks native for the closed die; the refusal
        # downgrades it the same way.
        auto = collect_auto(command, 100, seed=21)
        assert auto.profile.name == "native"
        assert auto.fallback_reason.startswith(
            "native-unavailable: kernel compile failed"
        )
        assert (auto.samples.values, auto.samples.bits) == (
            result.samples.values, result.samples.bits
        )

    def test_unloadable_kernel_downgrades_bit_identically(
        self, tmp_path, monkeypatch
    ):
        # A kernel that builds but will not dlopen (a noexec temp dir,
        # say) is a refusal like any other, and the failed build is not
        # retried on the next call.
        monkeypatch.delenv("ZAR_NATIVE_DISABLE", raising=False)
        monkeypatch.setenv("ZAR_NATIVE_CC", str(tmp_path / "cc"))
        monkeypatch.setenv("ZAR_NATIVE_CACHE_DIR", str(tmp_path / "cache"))
        reset_kernel_runtime()
        builds = []

        def build_unloadable(c_path, so_path):
            builds.append(so_path)
            Path(so_path).write_bytes(b"")

        monkeypatch.setattr(
            "repro.engine.native.kernel._compile", build_unloadable
        )
        command = n_sided_die(6)
        expected = _stream(command, 100, 21, "python")
        for _ in range(2):
            result = collect_auto(command, 100, seed=21)
            assert result.profile.name == "native"
            assert result.fallback_reason.startswith(
                "native-unavailable: kernel load failed"
            )
            assert (result.samples.values, result.samples.bits) == expected
        assert len(builds) == 1

    def test_unwritable_kernel_store_downgrades_bit_identically(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("ZAR_NATIVE_DISABLE", raising=False)
        monkeypatch.setenv("ZAR_NATIVE_CC", str(tmp_path / "cc"))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("ZAR_NATIVE_CACHE_DIR", str(blocker / "kernels"))
        reset_kernel_runtime()
        command = dueling_coins(Fraction(2, 3))
        result = collect_auto(command, 150, seed=7)
        assert result.profile.name == "native"
        assert result.fallback_reason.startswith(
            "native-unavailable: kernel load failed"
        )
        assert (result.samples.values, result.samples.bits) == _stream(
            command, 150, 7, "python"
        )


# -- 5. seams: profile, telemetry, status line ---------------------------

@requires_native
class TestSeams:
    def test_native_profile_runs_the_kernel(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZAR_NATIVE_CACHE_DIR", str(tmp_path))
        reset_kernel_runtime()
        profile = PROFILES["native"]
        result = collect_auto(
            n_sided_die(6), 200, seed=3, profile=profile,
            extract=lambda s: s["x"],
        )
        assert result.engine == "batch"
        assert result.fallback_reason is None
        assert result.profile is profile

    def test_telemetry_records_kernel_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZAR_NATIVE_CACHE_DIR", str(tmp_path / "kernels"))
        reset_kernel_runtime()
        configure_telemetry(str(tmp_path / "tel"))
        collect_auto(n_sided_die(6), 50, seed=3,
                     profile=PROFILES["native"])
        collect_auto(n_sided_die(6), 50, seed=3,
                     profile=PROFILES["native"])
        first, second = read_records()
        assert first["backend"] == "native"
        assert first["kernel_cache"] == "compiled"
        assert first["kernel_compile_ms"] > 0
        assert second["kernel_cache"] == "memory"
        assert second["kernel_compile_ms"] is None

    def test_telemetry_records_fallback(self, tmp_path):
        configure_telemetry(str(tmp_path))
        collect_auto(geometric_primes(Fraction(1, 2)), 40, seed=3,
                     profile=PROFILES["native"])
        [record] = read_records()
        assert record["fallback_reason"].startswith("native-unavailable:")
        assert record["kernel_cache"] is None

    def test_cli_sample_leaves_no_kernel_dirs(self, tmp_path):
        # Without a store, kernels live in per-process temp dirs that
        # the process removes at exit.
        env = {key: value for key, value in os.environ.items()
               if key not in ("ZAR_COMPILE_CACHE_DIR", "ZAR_NATIVE_CACHE_DIR")}
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sample",
             str(root / "examples" / "programs" / "die.gcl"),
             "-n", "100", "--seed", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "profile:   native" in proc.stdout
        assert not [name for name in os.listdir(tmp_path)
                    if name.startswith("zar-kernel")]

    def test_status_line_shapes(self):
        closed = _compile(n_sided_die(6)).table
        first = kernel_status(closed)
        assert first.startswith(("compiled (", "cached ("))
        assert "key " in first
        assert first.endswith(", 8-bit steps)")
        second = kernel_status(closed)
        assert second.startswith("cached (memory")
        assert second.endswith(", 8-bit steps)")
        open_table = _compile(geometric_primes(Fraction(1, 2))).table
        assert kernel_status(open_table).startswith("unavailable (open table")


# -- 6. the numpy lane-scheduling gap, pinned ----------------------------

def _prime_pmf(p=0.5, upto=31):
    """Exact posterior of geometric_primes: P(h) ~ p^h (1-p) on primes.

    Truncated at ``upto``; the tail mass (< 2^-32 at p=1/2) is orders
    of magnitude below the Clopper-Pearson resolution.
    """
    primes = [k for k in range(2, upto + 1)
              if all(k % d for d in range(2, k))]
    weights = {k: (p ** k) * (1 - p) for k in primes}
    total = sum(weights.values())
    return {k: w / total for k, w in weights.items()}


@requires_numpy
class TestNumpyLayoutGap:
    """Why the native differential above compares against *python* and
    the one-sample walker but never numpy: the numpy driver schedules
    lanes over the physical table layout, so its bit stream is a
    function of expansion history.  These tests pin the exact shape of
    that gap -- the python tier is layout-insensitive bit-for-bit, numpy is
    pinned distributionally (order statistics against the exact pmf)
    under every history."""

    N = 4000
    SEED = 123

    def _histories(self):
        """The same open program under two expansion histories."""
        command = geometric_primes(Fraction(1, 2))
        cold = _compile(command)
        warmed = _compile(command)
        warmed.collect(200, seed=7, backend="python")  # different layout
        return cold, warmed

    def test_sequential_is_layout_insensitive(self):
        cold, warmed = self._histories()
        run = lambda p: p.collect(
            300, seed=self.SEED, extract=lambda s: s["h"], backend="python"
        )
        a, b = run(cold), run(warmed)
        assert (a.values, a.bits) == (b.values, b.bits)

    def test_numpy_stream_is_distributionally_exact_per_history(self):
        pmf = _prime_pmf()
        for program in self._histories():
            result = program.collect(
                self.N, seed=self.SEED, extract=lambda s: s["h"],
                backend="numpy",
            )
            assert_pmf(result.values, pmf, label="numpy/geometric")

    def test_numpy_histories_agree_on_order_statistics(self):
        # The streams themselves may (and do) diverge across layouts;
        # their order statistics must not drift.  At quantiles sitting
        # >= 0.1 away from every CDF jump (the CP band at n=4000 is
        # ~0.03 wide at alpha=1e-9), the empirical quantile of *every*
        # correct run equals the theoretical one, so the two histories
        # must agree exactly.
        pmf = _prime_pmf()
        support = sorted(pmf)

        def theoretical_quantile(q):
            running = 0.0
            for outcome in support:
                running += pmf[outcome]
                if running >= q:
                    return outcome
            return support[-1]

        cold, warmed = self._histories()
        run = lambda p: sorted(
            p.collect(self.N, seed=self.SEED, extract=lambda s: s["h"],
                      backend="numpy").values
        )
        a, b = run(cold), run(warmed)
        for quantile in (0.25, 0.5, 0.8):
            index = int(self.N * quantile)
            want = theoretical_quantile(quantile)
            assert a[index] == want
            assert b[index] == want
