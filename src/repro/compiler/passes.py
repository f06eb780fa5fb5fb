"""The optimize stage: a registry of semantics-preserving tree passes.

A :class:`Pass` rewrites a CF tree (possibly lazily through ``Fix``
generators) without changing its ``tcwp`` semantics.  The builtins are
the two passes of Definition 3.13, ``elim_choices`` and ``debias``;
sharing equal subtrees needs no pass of its own, because the lowering
hash-conses every node-table row (:class:`~repro.engine.table.NodeTable`).

Registering a custom pass::

    from repro.compiler.passes import register_pass

    @register_pass("strip_skips")
    def strip_skips(tree, ctx):
        ...  # return a rewritten CFTree

    Pipeline(passes=("elim_choices", "strip_skips", "debias"))

Pass order: ``elim_choices`` runs before ``debias`` (it deletes trivial
choices the debiaser would otherwise expand into coin-flip schemes),
and ``debias`` must precede lowering (the engine rejects biased
choices).
"""

from typing import Callable, Dict, Tuple

from repro.cftree.debias import debias
from repro.cftree.elim import elim_choices
from repro.cftree.tree import CFTree


class PassContext:
    """Per-compilation state threaded through passes."""

    __slots__ = ("coalesce",)

    def __init__(self, coalesce: str = "loopback"):
        self.coalesce = coalesce


class Pass:
    """A named, registered tree-to-tree rewrite."""

    __slots__ = ("name", "fn", "doc")

    def __init__(self, name: str, fn: Callable[[CFTree, PassContext], CFTree],
                 doc: str = ""):
        self.name = name
        self.fn = fn
        self.doc = doc or (fn.__doc__ or "")

    def run(self, tree: CFTree, ctx: PassContext) -> CFTree:
        return self.fn(tree, ctx)

    def __repr__(self):
        return "Pass(%r)" % (self.name,)


PASS_REGISTRY: Dict[str, Pass] = {}


def register_pass(name: str, fn=None, *, replace: bool = False):
    """Register a pass (usable as a decorator).

    ``replace=True`` permits overriding an existing name (e.g. swapping
    a builtin for an instrumented variant in tests).
    """

    def install(func):
        if name in PASS_REGISTRY and not replace:
            raise ValueError("pass %r is already registered" % (name,))
        PASS_REGISTRY[name] = Pass(name, func)
        return func

    if fn is not None:
        return install(fn)
    return install


def resolve_passes(names) -> Tuple[Pass, ...]:
    """Look up a pass list by name, preserving order."""
    out = []
    for name in names:
        entry = PASS_REGISTRY.get(name)
        if entry is None:
            raise KeyError(
                "unknown pass %r (registered: %s)"
                % (name, ", ".join(sorted(PASS_REGISTRY)))
            )
        out.append(entry)
    return tuple(out)


# -- builtin passes -------------------------------------------------------


@register_pass("elim_choices")
def _pass_elim(tree: CFTree, ctx: PassContext) -> CFTree:
    """Definition 3.13: drop bias-0/1 choices and coalesce equal branches."""
    return elim_choices(tree)


@register_pass("debias")
def _pass_debias(tree: CFTree, ctx: PassContext) -> CFTree:
    """Appendix A: replace biased choices by fair coin-flipping schemes."""
    return debias(tree, ctx.coalesce)


#: The Definition 3.13 pipeline: the pass list every default compile runs.
DEFAULT_PASSES: Tuple[str, ...] = ("elim_choices", "debias")


# -- command passes (the analyze stage) -----------------------------------
#
# Command passes rewrite the *cpGCL command* before CF-tree construction,
# driven by the abstract-interpretation layer (``repro.analysis``).  They
# mirror the tree-pass registry: a command pass is a callable
# ``fn(command, sigma) -> (command, info)`` where ``info`` is a JSON-able
# stats dict merged into ``CompiledProgram.stats["analysis"]``.


class CommandPass:
    """A named, registered command-to-command rewrite."""

    __slots__ = ("name", "fn", "doc")

    def __init__(self, name: str, fn, doc: str = ""):
        self.name = name
        self.fn = fn
        self.doc = doc or (fn.__doc__ or "")

    def run(self, command, sigma):
        return self.fn(command, sigma)

    def __repr__(self):
        return "CommandPass(%r)" % (self.name,)


COMMAND_PASS_REGISTRY: Dict[str, CommandPass] = {}


def register_command_pass(name: str, fn=None, *, replace: bool = False):
    """Register a command pass (usable as a decorator), mirroring
    :func:`register_pass`."""

    def install(func):
        if name in COMMAND_PASS_REGISTRY and not replace:
            raise ValueError(
                "command pass %r is already registered" % (name,)
            )
        COMMAND_PASS_REGISTRY[name] = CommandPass(name, func)
        return func

    if fn is not None:
        return install(fn)
    return install


def resolve_command_passes(names) -> Tuple[CommandPass, ...]:
    """Look up a command-pass list by name, preserving order."""
    out = []
    for name in names:
        entry = COMMAND_PASS_REGISTRY.get(name)
        if entry is None:
            raise KeyError(
                "unknown command pass %r (registered: %s)"
                % (name, ", ".join(sorted(COMMAND_PASS_REGISTRY)))
            )
        out.append(entry)
    return tuple(out)


@register_command_pass("prune_dead")
def _pass_prune_dead(command, sigma):
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


#: Analysis-driven command passes run by the default pipeline's analyze
#: stage, before CF-tree construction.
DEFAULT_COMMAND_PASSES: Tuple[str, ...] = ("prune_dead",)
