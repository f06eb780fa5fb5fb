"""Static analysis of cpGCL programs and CF trees.

Layers (each usable on its own):

- :mod:`repro.analysis.domains` -- interval/boolean abstract values and
  states (the lattices);
- :mod:`repro.analysis.framework` -- the domain protocol, the bounded
  widening fixpoint solver, and the analyzer registry;
- :mod:`repro.analysis.interp` -- the abstract interpreter over
  commands, producing per-site facts;
- :mod:`repro.analysis.lint` -- the diagnostics engine (``zar lint``);
- :mod:`repro.analysis.prune` -- analysis-driven dead-branch pruning,
  wired into the compiler pipeline as the ``prune_dead`` command pass;
- :mod:`repro.analysis.bitcost` -- Knuth--Yao entropy vs expected bits.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the compiler's ``prune_dead`` pass needs only
# ``interp`` and ``prune``, and must not pull in the linter's bit-cost
# analyzer (and with it ``repro.inference`` and ``repro.semantics``).
_EXPORTS = {
    "RULES": "repro.analysis.diagnostics",
    "Diagnostic": "repro.analysis.diagnostics",
    "Rule": "repro.analysis.diagnostics",
    "Severity": "repro.analysis.diagnostics",
    "AbsState": "repro.analysis.domains",
    "AbsVal": "repro.analysis.domains",
    "Interval": "repro.analysis.domains",
    "AnalysisBudget": "repro.analysis.framework",
    "AnalysisContext": "repro.analysis.framework",
    "register_analyzer": "repro.analysis.framework",
    "solve_fixpoint": "repro.analysis.framework",
    "AbstractInterpreter": "repro.analysis.interp",
    "ProgramAnalysis": "repro.analysis.interp",
    "aeval": "repro.analysis.interp",
    "analyze": "repro.analysis.interp",
    "assume": "repro.analysis.interp",
    "DEFAULT_ANALYZERS": "repro.analysis.lint",
    "LintReport": "repro.analysis.lint",
    "lint_program": "repro.analysis.lint",
    "lint_source": "repro.analysis.lint",
    "prune_command": "repro.analysis.prune",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
