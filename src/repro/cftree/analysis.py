"""Static analyses of CF trees.

- :func:`is_unbiased` -- the Theorem 3.9 property: every reachable
  ``Choice`` has bias 1/2.  Loops are explored through their reachable
  loop states up to a budget (the lazy ``Fix`` representation makes the
  full property semi-decidable, exactly as coinductive statements are).
- :func:`expected_bits` -- expected number of fair-coin flips consumed by
  one attempt of an unbiased tree (Fail terminates the attempt); loop
  expectations are computed with the same exact/iterative fixpoint engine
  as the semantics.  Rejection restarts are accounted for separately by
  the sampler layer (the restart process is memoryless, so total expected
  bits = attempt bits / success probability).
- :func:`tree_size` / :func:`tree_depth` -- structural statistics of the
  eager part of a tree (``Fix`` nodes count as single opaque nodes).
- :func:`escape_lower_bound` -- the CF-DAG side of the loop-escape
  analysis (``repro.analysis``): an exact per-state lower bound on the
  probability that one unfolding of a ``Fix`` body leaves the loop.  It
  is budgeted (the lazy ``Fix`` representation makes exhaustive
  exploration undecidable) and reports completeness.
"""

from fractions import Fraction
from typing import Callable, Optional, Tuple

from repro.cftree.tree import CFTree, Choice, Fail, Fix, Leaf
from repro.semantics.algebra import EXT_REAL
from repro.semantics.extreal import ExtReal
from repro.semantics.fixpoint import DEFAULT_OPTIONS, LoopOptions, solve_loop

_HALF = Fraction(1, 2)


def is_unbiased(tree: CFTree, max_states: int = 10000) -> bool:
    """Every ``Choice`` reachable within ``max_states`` loop states has
    bias 1/2 (the conclusion of Theorem 3.9)."""
    return _unbiased(tree, max_states, set())


def _unbiased(tree, budget, seen) -> bool:
    if isinstance(tree, (Leaf, Fail)):
        return True
    if isinstance(tree, Choice):
        return (
            tree.prob == _HALF
            and _unbiased(tree.left, budget, seen)
            and _unbiased(tree.right, budget, seen)
        )
    if isinstance(tree, Fix):
        frontier = [tree.init]
        visited = set()
        while frontier:
            state = frontier.pop()
            key = (id(tree), state)
            if key in visited or key in seen:
                continue
            visited.add(key)
            if len(visited) > budget:
                break  # budget exhausted: report on what was explored
            if tree.guard(state):
                sub = tree.body(state)
                if not _unbiased(sub, budget, seen | visited):
                    return False
                frontier.extend(_leaf_states(sub))
            else:
                if not _unbiased(tree.cont(state), budget, seen | visited):
                    return False
        return True
    raise TypeError("not a CF tree: %r" % (tree,))


def _leaf_states(tree):
    if isinstance(tree, Leaf):
        yield tree.value
    elif isinstance(tree, Choice):
        yield from _leaf_states(tree.left)
        yield from _leaf_states(tree.right)
    # Fail has no continuation; nested Fix loop states stay internal.


def expected_bits(
    tree: CFTree,
    continuation: Optional[Callable[[object], ExtReal]] = None,
    options: LoopOptions = DEFAULT_OPTIONS,
) -> ExtReal:
    """Expected fair-coin flips consumed by one attempt of ``tree``.

    Each ``Choice`` costs one flip (the tree should be unbiased for the
    count to correspond to random bits); ``Leaf``/``Fail`` cost nothing
    further.  ``continuation`` optionally gives the expected *future*
    cost after reaching a leaf (used for sequenced pipelines).
    """
    kont = continuation or (lambda _value: ExtReal(0))
    return _cost(tree, lambda value: ExtReal.of(kont(value)), EXT_REAL, options)


def _cost(tree, kont, alg, options):
    if isinstance(tree, Leaf):
        return kont(tree.value)
    if isinstance(tree, Fail):
        return alg.zero()
    if isinstance(tree, Choice):
        left = _cost(tree.left, kont, alg, options)
        right = _cost(tree.right, kont, alg, options)
        step = alg.add(
            alg.scale(tree.prob, left),
            alg.scale(1 - tree.prob, right),
        )
        return alg.add(alg.from_scalar(1), step)
    if isinstance(tree, Fix):
        from repro.cftree.semantics import twp_value

        body, cont = tree.body, tree.cont

        def step(s, h, step_alg):
            return _cost(body(s), h, step_alg, options)

        def mass_step(s, h, step_alg):
            # Convergence mass uses the plain (cost-free) transition map.
            return twp_value(body(s), h, step_alg, False, False, options)

        def exit_value(s):
            return _cost(cont(s), kont, alg, options)

        return solve_loop(
            init_state=tree.init,
            guard=tree.guard,
            step=step,
            exit_value=exit_value,
            algebra=alg,
            greatest=False,
            options=options,
            mass_step=mass_step,
        )
    raise TypeError("not a CF tree: %r" % (tree,))


def escape_lower_bound(
    fix: Fix, max_states: int = 256, max_expansions: int = 4096
) -> Tuple[Fraction, bool]:
    """The minimum, over explored loop states of ``fix``, of the exact
    probability that one unfolding of the body leaves the loop (reaches
    a leaf with a false guard, or fails an observation -- both end the
    attempt).

    This is the CF-DAG counterpart of the command-level escape analysis
    in ``repro.analysis.interp``: probabilities here are concrete, so
    each per-state bound is *exact*; only the sweep over loop states is
    budgeted.  Returns ``(bound, complete)``; when ``complete`` is False
    unexplored loop states may have smaller escape probability, so the
    bound is only valid for the explored region (callers should treat it
    as 0 for soundness).
    """
    bound: Optional[Fraction] = None
    complete = True
    visited = set()
    frontier = [fix.init]
    while frontier:
        state = frontier.pop()
        if state in visited:
            continue
        if len(visited) >= max_states:
            complete = False
            break
        visited.add(state)
        if not fix.guard(state):
            continue  # already outside the loop
        escape = Fraction(0)
        expansions = max_expansions
        work = [(fix.body(state), Fraction(1))]
        while work:
            node, mass = work.pop()
            if mass == 0:
                continue
            if isinstance(node, Choice):
                work.append((node.left, mass * node.prob))
                work.append((node.right, mass * (1 - node.prob)))
            elif isinstance(node, Fail):
                escape += mass  # the attempt aborts: leaves the loop
            elif isinstance(node, Leaf):
                if fix.guard(node.value):
                    frontier.append(node.value)
                else:
                    escape += mass
            elif isinstance(node, Fix):
                # A nested loop inside the body: unfold it with the same
                # budget; its own non-termination contributes no escape.
                inner_work = [(Leaf(node.init), (node, None))]
                konted = _unfold(inner_work, expansions)
                expansions = konted[1]
                if not konted[2]:
                    complete = False
                for leaf_node, leaf_mass in konted[0]:
                    work.append((leaf_node, mass * leaf_mass))
            else:
                raise TypeError("not a CF tree: %r" % (node,))
        bound = escape if bound is None else min(bound, escape)
    if bound is None:
        bound = Fraction(1)  # the loop is never entered
    return bound, complete


def _unfold(work, expansions):
    """Flatten nested ``Fix`` nodes into their (mass-weighted) exit
    trees, up to ``expansions`` body unfoldings.  Returns
    ``(exits, remaining_expansions, complete)``."""
    exits = []
    complete = True
    items = [(node, Fraction(1), kont) for node, kont in work]
    while items:
        node, mass, kont = items.pop()
        if isinstance(node, Choice):
            items.append((node.left, mass * node.prob, kont))
            items.append((node.right, mass * (1 - node.prob), kont))
        elif isinstance(node, Fail):
            exits.append((node, mass))
        elif isinstance(node, Fix):
            items.append((Leaf(node.init), mass, (node, kont)))
        elif isinstance(node, Leaf):
            if kont is None:
                exits.append((node, mass))
            else:
                fix, outer = kont
                if fix.guard(node.value):
                    if expansions <= 0:
                        complete = False
                    else:
                        expansions -= 1
                        items.append((fix.body(node.value), mass, kont))
                else:
                    items.append((fix.cont(node.value), mass, outer))
        else:
            raise TypeError("not a CF tree: %r" % (node,))
    return exits, expansions, complete


def tree_size(tree: CFTree) -> int:
    """Number of eager nodes (``Fix`` counts as one opaque node)."""
    if isinstance(tree, (Leaf, Fail, Fix)):
        return 1
    if isinstance(tree, Choice):
        return 1 + tree_size(tree.left) + tree_size(tree.right)
    raise TypeError("not a CF tree: %r" % (tree,))


def tree_depth(tree: CFTree) -> int:
    """Depth of the eager part (``Fix`` nodes have depth 1)."""
    if isinstance(tree, (Leaf, Fail, Fix)):
        return 1
    if isinstance(tree, Choice):
        return 1 + max(tree_depth(tree.left), tree_depth(tree.right))
    raise TypeError("not a CF tree: %r" % (tree,))
