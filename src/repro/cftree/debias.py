"""Bias elimination: reduction to the random bit model (Appendix A).

``debias`` replaces every ``Choice p k`` whose bias is not 1/2 by the
semantically equivalent fair-coin-flipping scheme ``bernoulli_tree p``
bound into the (recursively debiased) subtrees (Definition A.1):

    debias (Choice p k) =
        bernoulli_tree p >>= \\b. if b then debias (k true)
                                       else debias (k false)

``Fix`` nodes debias lazily through their generators, so unbounded loops
never force infinite work.  The essential properties -- semantics
preservation (Theorem 3.8 / A.2) and unbiasedness of the result
(Theorem 3.9 / A.3) -- are checked exactly by the verification suite.
"""

from fractions import Fraction

from repro.cftree.cache import BoundedCache
from repro.cftree.keys import derive
from repro.cftree.monad import bind
from repro.cftree.tree import CFTree, Choice, Fail, Fix, Leaf
from repro.cftree.uniform import bernoulli_tree

_HALF = Fraction(1, 2)

_DEBIAS_CACHE = BoundedCache(200_000)


def debias(tree: CFTree) -> CFTree:
    """Replace all biased choices by fair coin-flipping schemes.

    The ``bernoulli_tree`` schemes use the paper's loopback coalescing
    (see :mod:`repro.cftree.uniform`), which reproduces its measured
    entropy usage.
    """
    key = id(tree)
    cached = _DEBIAS_CACHE.get(key)
    if cached is None:
        cached = _debias(tree)
        _DEBIAS_CACHE.put(key, (tree,), cached)
    return cached


def _debias(tree: CFTree) -> CFTree:
    if isinstance(tree, (Leaf, Fail)):
        return tree
    if isinstance(tree, Choice):
        left = debias(tree.left)
        right = debias(tree.right)
        if tree.prob == _HALF:
            return Choice(_HALF, left, right)
        # The selector stays untagged on purpose: its key would embed
        # the (state-carrying) branch trees and be unique per state --
        # fingerprinting them per compile is all cost, no sharing.  The
        # rejection wrapper ``bind`` builds here is closed out by
        # expansion before any disk spill.
        return bind(
            bernoulli_tree(tree.prob),
            lambda heads: left if heads else right,
        )
    if isinstance(tree, Fix):
        body, cont = tree.body, tree.cont
        # Debiasing rewrites the body's choice structure, so the
        # machinery subkey is re-derived; the variable footprint is a
        # property of the source command and survives unchanged.
        return Fix(
            tree.init,
            tree.guard,
            lambda s: debias(body(s)),
            lambda s: debias(cont(s)),
            key=derive("fix.debias", tree.key),
            subkey=derive("sub.debias", tree.subkey),
            footprint=tree.footprint,
        )
    raise TypeError("not a CF tree: %r" % (tree,))
