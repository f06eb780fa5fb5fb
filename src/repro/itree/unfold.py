"""Generating ITree samplers from CF trees (Definitions 3.11-3.13).

``to_itree_open`` translates an *unbiased* CF tree into an ITree over
``1 + Sigma``: ``Fail`` becomes ``Ret (inl ())`` and ``Leaf x`` becomes
``Ret (inr x)``; ``Fix`` nodes unfold through ``ITree.iter``.
``tie_itree`` then "ties the knot": it restarts the whole sampler upon
observation failure, yielding the rejection-sampling semantics of
conditioning.  ``cpgcl_to_itree`` is the composed pipeline.
"""

from fractions import Fraction

from repro.cftree.compile import compile_cpgcl
from repro.cftree.debias import debias
from repro.cftree.elim import elim_choices
from repro.cftree.tree import CFTree, Choice, Fail, Fix, Leaf
from repro.itree.combinators import bind, fmap, iter_itree
from repro.itree.itree import ITree, Left, Ret, Right, Tau, Vis
from repro.lang.state import State
from repro.lang.syntax import Command

_HALF = Fraction(1, 2)


class BiasedChoiceError(ValueError):
    """``to_itree_open`` was given a tree with a non-fair choice.

    Definition 3.11 is only stated for unbiased CF trees; run ``debias``
    first (Theorem 3.9 guarantees its output qualifies).
    """


def to_itree_open(tree: CFTree) -> ITree:
    """Definition 3.11: unbiased CF tree -> ITree over ``1 + Sigma``."""
    if isinstance(tree, Leaf):
        return Ret(Right(tree.value))
    if isinstance(tree, Fail):
        return Ret(Left(()))
    if isinstance(tree, Choice):
        if tree.prob != _HALF:
            raise BiasedChoiceError(
                "choice with bias %s; debias the tree first" % (tree.prob,)
            )
        left, right = tree.left, tree.right
        return Vis(
            lambda bit: to_itree_open(left) if bit else to_itree_open(right)
        )
    if isinstance(tree, Fix):
        guard, body, cont = tree.guard, tree.body, tree.cont

        def turn(s):
            # One loop turn from state s, in the iter protocol:
            #   Left s'       -> continue looping from s'
            #   Right (inl()) -> exit with observation failure
            #   Right (inr x) -> exit with final value x
            if guard(s):
                return bind(to_itree_open(body(s)), _relabel)
            return fmap(to_itree_open(cont(s)), Right)

        return iter_itree(turn, tree.init)
    raise TypeError("not a CF tree: %r" % (tree,))


def _relabel(y):
    """Body outcomes: failure exits the iteration, success re-enters."""
    if isinstance(y, Left):
        return Ret(Right(Left(())))
    if isinstance(y, Right):
        return Ret(Left(y.value))
    raise TypeError("expected Left/Right, got %r" % (y,))


def tie_itree(tree: ITree) -> ITree:
    """Definition 3.12: restart the sampler upon observation failure.

    ``tree`` returns ``Left ()`` on failure and ``Right x`` on success --
    which is exactly the ``iter`` protocol with index type ``1`` and
    result type ``Sigma``, so tying the knot is ``ITree.iter (\\_. tree) ()``.
    """
    return iter_itree(lambda _unit: tree, ())


def cpgcl_to_itree(
    command: Command, sigma: State, eliminate: bool = True
) -> ITree:
    """Definition 3.13: the composed compiler pipeline.

    ``tie_itree (to_itree_open (debias (elim_choices (compile c sigma))))``.
    ``eliminate=False`` skips ``elim_choices`` (for the ablation bench).
    """
    return tie_itree(open_pipeline(command, sigma, eliminate))


def open_pipeline(
    command: Command, sigma: State, eliminate: bool = True
) -> ITree:
    """The pipeline *without* the final knot: failure is observable.

    Useful for inspecting observation-failure mass and for the
    preimage-interval computations of Section 4.2.
    """
    tree = compile_cpgcl(command, sigma)
    if eliminate:
        tree = elim_choices(tree)
    return to_itree_open(debias(tree))
