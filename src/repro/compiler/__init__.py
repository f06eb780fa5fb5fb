"""The staged compiler pipeline (normalize -> build -> optimize -> lower).

Public surface::

    from repro.compiler import Pipeline, compile_program

    prog = compile_program(n_sided_die(6))
    prog.stats["lower"]["rows"]      # node-table rows after dedup/compaction
    samples = prog.sampler().collect(100_000, seed=7)

Submodules:

- :mod:`repro.compiler.digest`    -- content-addressed fingerprints;
- :mod:`repro.compiler.normalize` -- structural hash-consing of commands
  and states (replaces the seed's ``id(...)``-keyed memo keys);
- :mod:`repro.compiler.passes`    -- the name -> function table of the
  tree passes (``elim_choices``, ``debias``); equal subtrees are shared
  by the lowering's row hash-consing, not by a pass;
- :mod:`repro.compiler.cache`     -- in-memory LRU + on-disk artifact
  cache keyed by program/state/pass-list digest;
- :mod:`repro.compiler.pipeline`  -- ``Pipeline``/``CompiledProgram``.

Attribute access is lazy: ``repro.cftree.compile`` imports the normalize
stage from here, so the package must not eagerly import the pipeline
(which imports ``repro.cftree`` back).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Pipeline": "repro.compiler.pipeline",
    "CompiledProgram": "repro.compiler.pipeline",
    "compile_program": "repro.compiler.pipeline",
    "compile_tree": "repro.compiler.pipeline",
    "default_pipeline": "repro.compiler.pipeline",
    "DEFAULT_PASSES": "repro.compiler.passes",
    "TREE_PASSES": "repro.compiler.passes",
    "CompilationCache": "repro.compiler.cache",
    "get_cache": "repro.compiler.cache",
    "configure_cache": "repro.compiler.cache",
    "fingerprint": "repro.compiler.digest",
    "program_digest": "repro.compiler.digest",
    "Undigestable": "repro.compiler.digest",
    "normalize_command": "repro.compiler.normalize",
    "normalize_state": "repro.compiler.normalize",
    "Interner": "repro.compiler.normalize",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
