"""The optimize stage's passes, looked up by name.

A tree pass is a function ``tree -> tree`` that rewrites a CF tree
(possibly lazily through ``Fix`` generators) without changing its
``tcwp`` semantics: the two passes of Definition 3.13, ``elim_choices``
and ``debias``.  Sharing equal subtrees needs no pass of its own,
because the lowering hash-conses every node-table row
(:class:`~repro.engine.table.NodeTable`).

Pass order: ``elim_choices`` runs before ``debias`` (it deletes trivial
choices the debiaser would otherwise expand into coin-flip schemes),
and ``debias`` must precede lowering (the engine rejects biased
choices).
"""

from typing import Callable, Dict, Mapping, Tuple, TypeVar

from repro.cftree.debias import debias
from repro.cftree.elim import elim_choices
from repro.cftree.tree import CFTree


#: The optimize stage's tree passes, by name.
TREE_PASSES: Dict[str, Callable[[CFTree], CFTree]] = {
    "elim_choices": elim_choices,
    "debias": debias,
}

#: The Definition 3.13 pipeline: the pass list every default compile runs.
DEFAULT_PASSES: Tuple[str, ...] = ("elim_choices", "debias")

F = TypeVar("F")


def lookup(table: Mapping[str, F], names) -> Tuple[F, ...]:
    """``table[name]`` for each of ``names``, in order.

    An unknown name raises ``KeyError`` listing the known ones."""
    try:
        return tuple(table[name] for name in names)
    except KeyError as err:
        raise KeyError(
            "unknown pass %r (known: %s)"
            % (err.args[0], ", ".join(sorted(table)))
        ) from None
