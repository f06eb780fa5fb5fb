"""Compile, cache, and load generated native kernels.

The kernel store is content-addressed and lives **next to the artifact
store**: ``ZAR_NATIVE_CACHE_DIR`` names it explicitly, else it is the
``kernels/`` subdirectory of the compilation cache's disk tier
(``configure_cache(disk_dir=...)`` / ``ZAR_COMPILE_CACHE_DIR``), else a
per-process temporary directory, removed at exit (kernels still
dedupe within the process, just not across processes).

Cache key anatomy -- three independent invalidation axes:

- the **kernel digest** (:func:`~repro.engine.native.codegen.
  encoded_digest`): SHA-256 of the canonical table encoding, which
  already folds in ``CODEGEN_VERSION``.  The ``.c`` source is stored as
  ``zk-<digest>.c`` (kept for inspection; CI uploads it);
- the **compiler fingerprint** (hash of the resolved compiler path and
  its ``--version`` banner), appended to the shared-object name
  ``zk-<digest>-<fingerprint>.so`` so a toolchain upgrade recompiles
  instead of loading ABI-stale objects;
- a **load-time self-check**: every object exports ``zar_digest()`` /
  ``zar_codegen_version()`` / ``zar_step_bits()``, verified after
  ``dlopen`` (the step width against :func:`~repro.engine.native.
  codegen.step_bits` of the table's rows).  A corrupted or truncated
  cache entry fails the check (or the ``dlopen`` itself), is unlinked,
  and is recompiled from source -- never executed.

Loading binds the object's six exported symbols with :mod:`ctypes`
(no third-party FFI), passing the ``array`` buffers by address, and
runs ``zar_init()`` (which fills the kernel's window table) after the
checks and before the kernel is returned or memory-cached.
``native_available()`` is the cheap gate the engine seams consult: it
requires a C compiler on ``PATH`` (or ``ZAR_NATIVE_CC``) and
``ZAR_NATIVE_DISABLE`` unset.
"""

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from typing import Dict, Optional, Tuple

from repro.engine.native.codegen import (
    CODEGEN_VERSION,
    EncodedTable,
    encoded_digest,
    render_c,
    step_bits,
)

__all__ = [
    "COMPILE_TIMEOUT",
    "KernelCacheError",
    "KernelCompileError",
    "NativeKernel",
    "build_kernel",
    "compiler_fingerprint",
    "compiler_invocations",
    "find_compiler",
    "kernel_cache_dir",
    "native_available",
    "reset_kernel_runtime",
]

COMPILE_TIMEOUT = 120  # seconds; a table-walk TU compiles in well under


class KernelCompileError(RuntimeError):
    """The C compiler failed (or is missing) for a generated kernel."""


class KernelCacheError(RuntimeError):
    """A cached kernel object failed validation (corrupt/stale entry)."""


# -- process-wide runtime state (reset_kernel_runtime clears it all) -----

#: digest -> loaded NativeKernel: the in-process (memory) cache tier.
_MEMORY: Dict[str, "NativeKernel"] = {}
_FINGERPRINT: Optional[str] = None
_TMP_DIR: Optional[str] = None
#: Private snapshot dir for dlopen (see :func:`_load_validated`).
_LOAD_DIR: Optional[str] = None
#: ``.so`` path -> (error class, message) of a fresh build or load that
#: failed in this process: a broken toolchain or a noexec temp dir is
#: not retried on every collect.
_FAILED: Dict[str, Tuple[type, str]] = {}
#: How many times this process ran the C compiler (tests assert on it).
_INVOCATIONS = 0
#: ``((ZAR_NATIVE_CC, PATH), compiler path or None)`` of the last probe.
_COMPILER: Optional[Tuple[tuple, Optional[str]]] = None
#: Bumped by every reset: a kernel a table memoized under an older
#: generation is not served (see ``driver.kernel_for``).
_GENERATION = 0


def compiler_invocations() -> int:
    return _INVOCATIONS


def reset_kernel_runtime() -> None:
    """Drop memory-cached kernels and memoized probes.

    Tests call this to simulate a fresh process against a warm disk
    store.  The invocation counter survives (it counts per-process
    compiler work, which is exactly what the warm-store tests measure).
    """
    global _FINGERPRINT, _TMP_DIR, _LOAD_DIR, _COMPILER, _GENERATION
    _MEMORY.clear()
    _FAILED.clear()
    _FINGERPRINT = None
    _TMP_DIR = None
    _LOAD_DIR = None
    _COMPILER = None
    _GENERATION += 1


def _private_dir(prefix: str) -> str:
    """A fresh temp dir, removed when this process exits (unlinking a
    mapped ``.so`` is safe on POSIX)."""
    path = tempfile.mkdtemp(prefix=prefix)
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


# -- environment probes --------------------------------------------------

def native_disabled() -> bool:
    return bool(os.environ.get("ZAR_NATIVE_DISABLE"))


def find_compiler() -> Optional[str]:
    """The C compiler to invoke (``ZAR_NATIVE_CC`` wins), or ``None``.

    The ``PATH`` search runs once per ``(ZAR_NATIVE_CC, PATH)`` pair,
    not on every call.
    """
    global _COMPILER
    explicit = os.environ.get("ZAR_NATIVE_CC")
    key = (explicit, os.environ.get("PATH"))
    if _COMPILER is None or _COMPILER[0] != key:
        _COMPILER = (key, _probe_compiler(explicit))
    return _COMPILER[1]


def _probe_compiler(explicit: Optional[str]) -> Optional[str]:
    if explicit:
        return explicit if os.path.sep in explicit \
            else shutil.which(explicit)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def native_available() -> bool:
    """Can this process build and run native kernels at all?"""
    return not native_disabled() and find_compiler() is not None


def compiler_fingerprint() -> str:
    """A short hash of the compiler identity (part of the ``.so`` name)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        cc = find_compiler()
        banner = ""
        if cc:
            try:
                probe = subprocess.run(
                    [cc, "--version"], capture_output=True, timeout=30
                )
                banner = probe.stdout.decode("utf-8", "replace")
                banner = banner.splitlines()[0] if banner else ""
            except (OSError, subprocess.SubprocessError):
                banner = ""
        raw = "%s|%s" % (cc or "", banner)
        _FINGERPRINT = hashlib.sha256(raw.encode()).hexdigest()[:12]
    return _FINGERPRINT


def kernel_cache_dir() -> str:
    """Resolve the kernel store directory (created on demand)."""
    global _TMP_DIR
    explicit = os.environ.get("ZAR_NATIVE_CACHE_DIR")
    if explicit:
        return explicit
    from repro.compiler.cache import get_cache

    disk_dir = get_cache().disk_dir
    if disk_dir:
        return os.path.join(disk_dir, "kernels")
    if _TMP_DIR is None:
        _TMP_DIR = _private_dir("zar-kernels-")
    return _TMP_DIR


# -- loading -------------------------------------------------------------

class NativeKernel:
    """A validated, loaded kernel for one table digest (bound via ctypes)."""

    def __init__(self, lib: ctypes.CDLL, digest: str, payloads: int):
        self._lib = lib
        self.digest = digest
        self.payloads = payloads
        self.rows = int(lib.zar_rows())
        self.step_bits = int(lib.zar_step_bits())

    def collect_call(self, bits: bytes, total_bits: int, done: int, n: int,
                     out_idx, out_bits, state, payload_map,
                     tied: bool) -> int:
        """One ``zar_collect`` call; the ``array`` buffers pass by address.

        Raises :class:`KernelCacheError` when the kernel refuses to run
        because its window table was never filled (``zar_init``).
        """
        done = self._lib.zar_collect(
            bits, total_bits, done, n,
            out_idx.buffer_info()[0],
            out_bits.buffer_info()[0],
            state.buffer_info()[0],
            payload_map.buffer_info()[0],
            1 if tied else 0,
        )
        if done < 0:
            raise KernelCacheError(
                "kernel %s refused to run: zar_init never filled its "
                "window table" % self.digest[:12]
            )
        return done


def _open_library(path: str) -> ctypes.CDLL:
    """dlopen ``path`` and declare the kernel ABI's six symbols."""
    lib = ctypes.CDLL(path)
    lib.zar_digest.restype = ctypes.c_char_p
    lib.zar_digest.argtypes = []
    lib.zar_codegen_version.restype = ctypes.c_int32
    lib.zar_codegen_version.argtypes = []
    lib.zar_rows.restype = ctypes.c_int64
    lib.zar_rows.argtypes = []
    lib.zar_step_bits.restype = ctypes.c_int32
    lib.zar_step_bits.argtypes = []
    lib.zar_init.restype = None
    lib.zar_init.argtypes = []
    lib.zar_collect.restype = ctypes.c_int64
    lib.zar_collect.argtypes = [
        ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_int32,
    ]
    return lib


def _snapshot_for_load(path: str) -> str:
    """Copy a store ``.so`` to a private per-load file before dlopen.

    dlopen dedupes by (device, inode): loading the shared store path
    directly would return a *stale* handle if the entry was overwritten
    in place while mapped -- validation would then inspect the old
    object, and a truncating writer would leave running kernels one
    page access away from SIGBUS.  A snapshot gives every load a fresh
    inode and insulates loaded code from later store corruption.
    """
    global _LOAD_DIR
    if _LOAD_DIR is None:
        _LOAD_DIR = _private_dir("zar-kernel-load-")
    fd, snapshot = tempfile.mkstemp(dir=_LOAD_DIR, suffix=".so")
    os.close(fd)
    shutil.copyfile(path, snapshot)
    return snapshot


def _load_validated(path: str, digest: str, payloads: int,
                    step: int) -> NativeKernel:
    """dlopen + self-check + ``zar_init``; any failure is a
    :class:`KernelCacheError`."""
    try:
        lib = _open_library(_snapshot_for_load(path))
        found_version = int(lib.zar_codegen_version())
        found_digest = lib.zar_digest().decode()
        found_step = int(lib.zar_step_bits())
    except Exception as err:  # dlopen/symbol errors vary wildly by libc
        raise KernelCacheError("kernel object unloadable: %s" % err)
    if found_version != CODEGEN_VERSION:
        raise KernelCacheError(
            "kernel codegen version %d != expected %d"
            % (found_version, CODEGEN_VERSION)
        )
    if found_digest != digest:
        raise KernelCacheError(
            "kernel digest mismatch (%s != %s)" % (found_digest, digest)
        )
    if found_step != step:
        raise KernelCacheError(
            "kernel step width %d != expected %d" % (found_step, step)
        )
    lib.zar_init()
    return NativeKernel(lib, digest, payloads)


# -- compilation ---------------------------------------------------------

def _write_source(c_path: str, source: str) -> None:
    directory = os.path.dirname(c_path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".c.tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        os.replace(tmp, c_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _compile(c_path: str, so_path: str) -> None:
    """Run the C compiler; atomic rename so readers never see a torn .so."""
    global _INVOCATIONS
    cc = find_compiler()
    if cc is None:
        raise KernelCompileError("no C compiler on PATH (set ZAR_NATIVE_CC)")
    directory = os.path.dirname(so_path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    _INVOCATIONS += 1
    try:
        # Plain -O2: GCC 12 emits the same window loop with or without
        # -funroll-loops (the one-bit walk's loop was the one it
        # unrolled), so the flag would only lengthen the compile.
        proc = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-o", tmp, c_path],
            capture_output=True,
            timeout=COMPILE_TIMEOUT,
        )
    except (OSError, subprocess.SubprocessError) as err:
        os.unlink(tmp)
        raise KernelCompileError("compiler failed to run: %s" % err)
    if proc.returncode != 0:
        os.unlink(tmp)
        tail = proc.stderr.decode("utf-8", "replace").strip()[-400:]
        raise KernelCompileError(
            "%s exited %d: %s" % (cc, proc.returncode, tail)
        )
    os.replace(tmp, so_path)


def build_kernel(
    encoded: EncodedTable, cache_dir: Optional[str] = None
) -> Tuple[NativeKernel, Dict[str, object]]:
    """Resolve ``encoded`` to a loaded kernel through the cache tiers.

    Returns ``(kernel, info)`` where ``info`` carries the telemetry
    surface: ``tier`` (``"memory"`` / ``"disk"`` / ``"compiled"``),
    ``compile_ms`` (``None`` unless freshly compiled), ``digest``, and
    ``c_path`` (the kept source, for the CI artifact).  Raises
    :class:`KernelCompileError` when the toolchain is unusable,
    :class:`KernelCacheError` when a fresh object will not load, and
    ``OSError`` when the store is unwritable; a fresh build that failed
    raises the same error again for the rest of the process.
    """
    digest = encoded_digest(encoded)
    directory = cache_dir if cache_dir is not None else kernel_cache_dir()
    c_path = os.path.join(directory, "zk-%s.c" % digest)
    so_path = os.path.join(
        directory, "zk-%s-%s.so" % (digest, compiler_fingerprint())
    )
    info: Dict[str, object] = {
        "digest": digest,
        "rows": len(encoded.a),
        "c_path": c_path,
        "tier": None,
        "compile_ms": None,
    }

    cached = _MEMORY.get(digest)
    if cached is not None:
        info["tier"] = "memory"
        return cached, info

    # Static range check, once per kernel load rather than per collect:
    # every successor code must be a row index or a terminal whose
    # canonical leaf code exists in the payload map, so a validated
    # kernel can never index past the map the driver passes it.
    low = -(len(encoded.payload_map) + 1)
    rows = len(encoded.a)
    step = step_bits(rows)
    for values in (encoded.a, encoded.b, (encoded.root,)):
        for code in values:
            if not low <= code < rows:
                raise KernelCompileError(
                    "encoded successor %d outside [%d, %d)"
                    % (code, low, rows)
                )

    failed = _FAILED.get(so_path)
    if failed is not None:
        raise failed[0](failed[1])

    if os.path.exists(so_path):
        try:
            kernel = _load_validated(
                so_path, digest, len(encoded.payload_map), step
            )
        except KernelCacheError:
            # Corrupt/stale entry: drop it and fall through to a fresh
            # compile -- never execute a kernel that failed validation.
            try:
                os.unlink(so_path)
            except OSError:
                pass
        else:
            info["tier"] = "disk"
            _MEMORY[digest] = kernel
            return kernel, info

    source = render_c(encoded, digest)
    start = time.perf_counter()
    try:
        _write_source(c_path, source)
        _compile(c_path, so_path)
        kernel = _load_validated(
            so_path, digest, len(encoded.payload_map), step
        )
    except (KernelCompileError, KernelCacheError, OSError) as err:
        _FAILED[so_path] = (type(err), str(err))
        raise
    info["tier"] = "compiled"
    info["compile_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    _MEMORY[digest] = kernel
    return kernel, info
