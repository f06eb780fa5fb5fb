"""Conditional weakest pre-expectations (Definition 2.4).

``cwp c f = (wp_false c f) / (wlp_false c 1)``: the expected value of ``f``
over terminal states of ``c``, conditioned on all observations succeeding.
The denominator ``wlp_false c 1`` is the probability that the program does
*not* fail an observation (divergence counts as success, per the liberal
reading); programs that condition on contradictory observations have
denominator 0 and no posterior -- :class:`ConditioningError`.

Also provides the invariant-sum property checker of Section 2.2:
``wp_b c f + wlp_{not b} c (1 - f) = 1`` for bounded ``f``.
"""

from typing import Callable

from repro.lang.state import State
from repro.lang.syntax import Command
from repro.semantics.expectation import (
    const_expectation,
    lift_expectation,
)
from repro.semantics.extreal import ExtReal
from repro.semantics.fixpoint import DEFAULT_OPTIONS, LoopOptions
from repro.semantics.wp import wlp, wp


class ConditioningError(ZeroDivisionError):
    """The program conditions on a probability-zero event.

    Mirrors the side condition ``0 < wlp_false c 1 sigma`` of the
    end-to-end correctness theorem (Theorem 3.14): the compiled rejection
    sampler would restart forever.
    """


def cwp(
    command: Command,
    f: Callable[[State], object],
    sigma: State,
    options: LoopOptions = DEFAULT_OPTIONS,
) -> ExtReal:
    """``cwp command f`` at initial state ``sigma`` (Definition 2.4)."""
    numerator = wp(command, f, sigma, flag=False, options=options)
    denominator = wlp(command, const_expectation(1), sigma, flag=False,
                      options=options)
    if denominator == ExtReal(0):
        raise ConditioningError(
            "program conditions on a probability-zero event (wlp = 0)"
        )
    return numerator / denominator


def invariant_sum_check(
    command: Command,
    f: Callable[[State], object],
    sigma: State,
    flag: bool = False,
    options: LoopOptions = DEFAULT_OPTIONS,
) -> ExtReal:
    """Value of ``wp_b c f + wlp_{not b} c (1 - f)`` at ``sigma``.

    Section 2.2 states this equals 1 for every bounded ``f <= 1``; the
    verification suite checks it exactly on finite-state programs.
    """
    f = lift_expectation(f)

    def complement(s: State) -> ExtReal:
        return ExtReal(1) - f(s)

    total = wp(command, f, sigma, flag=flag, options=options)
    liberal = wlp(command, complement, sigma, flag=not flag, options=options)
    return total + liberal
