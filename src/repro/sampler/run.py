"""The sampler driver: Figure 7 transcribed.

The OCaml shim unfolds the ITree node by node: ``RetF x`` produces the
sample, ``TauF`` is skipped, ``VisF`` consumes one random bit.  The
Python driver is a trampoline (no recursion), with an optional fuel bound
guarding against divergent samplers (which cpGCL programs can express,
albeit only with probability-0 or conditioning-starved executions).
"""

from typing import Optional, Tuple

from repro.bits.source import BitSource, ReplayBits
from repro.itree.itree import ITree, Ret, Tau, Vis


class FuelExhausted(Exception):
    """The driver exceeded its step budget without producing a sample."""


def run_itree(
    tree: ITree,
    source: BitSource,
    fuel: Optional[int] = None,
) -> object:
    """Run ``tree`` against ``source`` until it returns a sample.

    ``fuel`` bounds the total number of unfolding steps (Tau and Vis
    combined); ``None`` runs unboundedly, faithful to Figure 7.
    """
    steps = 0
    node = tree
    while True:
        if fuel is not None:
            steps += 1
            if steps > fuel:
                raise FuelExhausted("no sample within %d steps" % fuel)
        if isinstance(node, Ret):
            return node.value
        if isinstance(node, Tau):
            node = node.step()
            continue
        if isinstance(node, Vis):
            node = node.kont(source.next_bit())
            continue
        raise TypeError("not an interaction tree: %r" % (node,))


def run_with_bits(
    tree: ITree, bits, fuel: Optional[int] = None
) -> Tuple[object, int]:
    """Run against a fixed finite bit string; return (sample, bits used).

    This is the sampler viewed as a partial map on Cantor space
    (Section 4.2): the result only depends on the consumed prefix.
    """
    source = ReplayBits(bits)
    value = run_itree(tree, source, fuel)
    return value, source.consumed
