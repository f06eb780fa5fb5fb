"""Choice-fix trees: the compiler's intermediate representation (Section 3).

CF trees have four constructors (Definition 3.1): ``Leaf`` (terminal
state), ``Fail`` (observation failure), ``Choice`` (probabilistic binary
choice with rational bias), and ``Fix`` (loops, as a guarded generator).
This subpackage provides the tree type and its monad, the twp/twlp/tcwp
inference semantics (Definitions 3.2-3.4), the compiler from cpGCL
(Definition 3.5), the ``uniform_tree``/``bernoulli_tree`` constructions
(Lemma 3.6, Appendix A), the ``debias`` transformation to the random bit
model, and the ``elim_choices`` optimization.
"""

# ``debias`` is imported eagerly: it is also the name of a submodule,
# and once ``repro.cftree.debias`` is imported the package attribute
# would be the module.  Everything else resolves on first access, so
# ``python -m repro sample`` never imports the tree semantics (and with
# them all of ``repro.semantics``) or the tree analyses.
from repro.cftree.debias import debias
from repro._lazy import lazy_exports

_EXPORTS = {
    "CFTree": "repro.cftree.tree",
    "Choice": "repro.cftree.tree",
    "Fail": "repro.cftree.tree",
    "Fix": "repro.cftree.tree",
    "LOOPBACK": "repro.cftree.tree",
    "Leaf": "repro.cftree.tree",
    "bind": "repro.cftree.monad",
    "fmap": "repro.cftree.monad",
    "tcwp": "repro.cftree.semantics",
    "twlp": "repro.cftree.semantics",
    "twp": "repro.cftree.semantics",
    "bernoulli_tree": "repro.cftree.uniform",
    "uniform_tree": "repro.cftree.uniform",
    "compile_cpgcl": "repro.cftree.compile",
    "elim_choices": "repro.cftree.elim",
    "expected_bits": "repro.cftree.analysis",
    "is_unbiased": "repro.cftree.analysis",
    "tree_depth": "repro.cftree.analysis",
    "tree_size": "repro.cftree.analysis",
}

__all__ = sorted(set(_EXPORTS) | {"debias"})

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
