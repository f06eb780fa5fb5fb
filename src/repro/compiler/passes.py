"""The passes of the analyze and optimize stages, looked up by name.

A tree pass is a function ``tree -> tree`` that rewrites a CF tree
(possibly lazily through ``Fix`` generators) without changing its
``tcwp`` semantics: the two passes of Definition 3.13, ``elim_choices``
and ``debias``.  Sharing equal subtrees needs no pass of its own,
because the lowering hash-conses every node-table row
(:class:`~repro.engine.table.NodeTable`).

A command pass is a function ``(command, sigma) -> (command, info)``
that rewrites the *cpGCL command* before CF-tree construction, driven
by the abstract-interpretation layer (``repro.analysis``); ``info`` is
a JSON-able stats dict merged into ``CompiledProgram.stats["analysis"]``.

Pass order: ``elim_choices`` runs before ``debias`` (it deletes trivial
choices the debiaser would otherwise expand into coin-flip schemes),
and ``debias`` must precede lowering (the engine rejects biased
choices).
"""

from typing import Callable, Dict, Mapping, Tuple, TypeVar

from repro.cftree.debias import debias
from repro.cftree.elim import elim_choices
from repro.cftree.tree import CFTree


def prune_dead(command, sigma):
    """Remove branches/loops the abstract interpreter proves dead.

    Every rewrite is bit-stream preserving (the pruned construct would
    never have consumed randomness; see ``repro.analysis.prune``), so
    the pass is safe for the default pipeline: samples are bit-for-bit
    identical with the pass on or off, while dead nested loops stop
    allocating node-table rows."""
    from repro.analysis.interp import analyze
    from repro.analysis.prune import prune_command

    analysis = analyze(command, sigma)
    pruned, count = prune_command(command, analysis)
    info = {
        "pruned_sites": count,
        "incomplete": analysis.incomplete,
        "loops": len(analysis.loops()),
        "certainly_diverges": analysis.certainly_diverges(),
        "budget_spent": analysis.budget_spent,
    }
    return pruned, info


#: The optimize stage's tree passes, by name.
TREE_PASSES: Dict[str, Callable[[CFTree], CFTree]] = {
    "elim_choices": elim_choices,
    "debias": debias,
}

#: The analyze stage's command passes, by name.
COMMAND_PASSES: Dict[str, Callable] = {"prune_dead": prune_dead}

#: The Definition 3.13 pipeline: the pass list every default compile runs.
DEFAULT_PASSES: Tuple[str, ...] = ("elim_choices", "debias")

#: Analysis-driven command passes run by the default pipeline's analyze
#: stage, before CF-tree construction.
DEFAULT_COMMAND_PASSES: Tuple[str, ...] = ("prune_dead",)

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
