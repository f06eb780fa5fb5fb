"""Sampler execution and measurement (Figure 7, Section 5).

- :mod:`repro.sampler.run` -- the trampolined driver loop that feeds
  random bits to an ITree sampler (the OCaml shim of Figure 7);
- :mod:`repro.sampler.record` -- sample collection with per-sample bit
  accounting (the mu_bit/sigma_bit columns);
- :mod:`repro.sampler.preimage` -- preimage Sigma^0_1 sets of events
  under a sampler (Section 4.2, Figure 6c);
- :mod:`repro.sampler.harness` -- the table-row runner used by the
  benchmark suite to regenerate the paper's tables.
"""

# ``preimage`` is imported eagerly because it is also the name of a
# submodule (see :mod:`repro._lazy`); the rest resolves on first access,
# so the batch engine's ``SampleSet`` import does not pull in the
# harness (``repro.itree.unfold``, ``repro.stats``).
from repro.sampler.preimage import PreimageResult, preimage
from repro._lazy import lazy_exports

_EXPORTS = {
    "FuelExhausted": "repro.sampler.run",
    "run_itree": "repro.sampler.run",
    "run_with_bits": "repro.sampler.run",
    "SampleSet": "repro.sampler.record",
    "collect": "repro.sampler.record",
    "Row": "repro.sampler.harness",
    "format_table": "repro.sampler.harness",
    "program_sampler": "repro.sampler.harness",
    "run_row": "repro.sampler.harness",
}

__all__ = sorted(set(_EXPORTS) | {"PreimageResult", "preimage"})

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
