"""The native backend: digest-cached generated C kernels.

Closed node tables -- every row expanded, no ``OP_CALL`` frames -- are
lowered to a switch-free C table walk (:mod:`~repro.engine.native.
codegen`), compiled once per content digest, cached next to the
artifact store (:mod:`~repro.engine.native.kernel`), and driven off the
exact ``BitPool`` chunk stream (:mod:`~repro.engine.native.driver`), so
the sample stream is bit-for-bit the pooled Python backend's.  Open
tables and degraded environments (no C compiler, ``ZAR_NATIVE_DISABLE``)
fall back to that backend -- which shares the exact bit stream -- with
an observable ``native-unavailable`` reason.

See the "Native backend" section of ``docs/architecture.md``.
"""

from repro.engine.native.codegen import (
    CODEGEN_VERSION,
    EncodedTable,
    KernelUnsupported,
    encode_table,
    encoded_digest,
    render_c,
)
from repro.engine.native.driver import (
    BoundKernel,
    collect_kernel,
    kernel_for,
    kernel_status,
)
from repro.engine.native.kernel import (
    KernelCacheError,
    KernelCompileError,
    NativeKernel,
    build_kernel,
    compiler_fingerprint,
    compiler_invocations,
    find_compiler,
    kernel_cache_dir,
    native_available,
    reset_kernel_runtime,
)

__all__ = [
    "BoundKernel",
    "CODEGEN_VERSION",
    "EncodedTable",
    "KernelCacheError",
    "KernelCompileError",
    "KernelUnsupported",
    "NativeKernel",
    "build_kernel",
    "collect_kernel",
    "compiler_fingerprint",
    "compiler_invocations",
    "encode_table",
    "encoded_digest",
    "find_compiler",
    "kernel_cache_dir",
    "kernel_for",
    "kernel_status",
    "native_available",
    "render_c",
    "reset_kernel_runtime",
]
