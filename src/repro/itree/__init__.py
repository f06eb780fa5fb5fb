"""Interaction trees (Section 3.4).

A Python emulation of the coinductive ITrees of Xia et al. (2020),
specialized to the ``boolE`` event functor of Definition 3.10: the only
event is ``GetBool``, a request for one fair random bit.  Coinduction is
emulated with thunks -- ``Tau`` nodes carry a zero-argument closure and
``Vis`` nodes carry the continuation, so trees are only ever forced
finitely far, mirroring lazy corecursive unfolding.

The pipeline entry point :func:`cpgcl_to_itree` (Definition 3.13) composes
compile -> elim_choices -> debias -> to_itree_open -> tie_itree.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the trampoline's ``repro.itree.itree`` import
# must not pull in the unfolding (the whole CF-tree compiler) or the
# ITree semantics (all of ``repro.semantics``).
_EXPORTS = {
    "ITree": "repro.itree.itree",
    "Left": "repro.itree.itree",
    "Ret": "repro.itree.itree",
    "Right": "repro.itree.itree",
    "Tau": "repro.itree.itree",
    "Vis": "repro.itree.itree",
    "bind": "repro.itree.combinators",
    "fmap": "repro.itree.combinators",
    "iter_itree": "repro.itree.combinators",
    "cpgcl_to_itree": "repro.itree.unfold",
    "tie_itree": "repro.itree.unfold",
    "to_itree_open": "repro.itree.unfold",
    "ItwpResult": "repro.itree.semantics",
    "itwp": "repro.itree.semantics",
    "itwp_tied": "repro.itree.semantics",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
