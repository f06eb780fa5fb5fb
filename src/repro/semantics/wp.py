"""The weakest (liberal) pre-expectation transformers (Definitions 2.2/2.3).

``wp_b c f sigma`` is defined by structural recursion on ``c``:

====================  ==================================================
``skip``              ``f``
``x <- e``            ``f[x/e]``
``observe e``         ``[e] * f + [not e and b]``
``c1; c2``            ``wp_b c1 (wp_b c2 f)``
``if e ...``          ``[e] * wp_b c1 f + [not e] * wp_b c2 f``
``{c1} [p] {c2}``     ``p * wp_b c1 f + (1-p) * wp_b c2 f``
``uniform e x``       ``1/e(sigma) * sum_i f(sigma[x -> i])`` (binding form)
``while e do c``      ``sup_n F^n 0``, ``F g = [e] * wp_b c g + [not e] * f``
====================  ==================================================

``wlp_b`` replaces the ``while`` supremum by the infimum of ``F^n 1`` and
restricts ``f`` to bounded expectations.  The Boolean parameter ``b``
(``flag`` below) controls whether observation-failure mass is counted,
exactly as in the paper's generalized transformers; the classic wp/wlp are
``b = false``.

The evaluator is generic over a value algebra so the exact loop solver can
run it with symbolic post-expectation values (see :mod:`fixpoint`).
"""

from fractions import Fraction
from typing import Callable

from repro.lang.errors import ProbabilityRangeError, UniformRangeError
from repro.lang.state import State
from repro.lang.syntax import (
    Assign,
    Choice,
    Command,
    Ite,
    Observe,
    Seq,
    Skip,
    Uniform,
    While,
)
from repro.lang.values import as_bool, as_fraction, as_int
from repro.semantics.algebra import EXT_REAL
from repro.semantics.expectation import bounded_expectation, lift_expectation
from repro.semantics.fixpoint import DEFAULT_OPTIONS, LoopOptions, solve_loop


def wp(
    command: Command,
    f: Callable[[State], object],
    sigma: State = None,
    flag: bool = False,
    options: LoopOptions = DEFAULT_OPTIONS,
):
    """``wp_b command f`` -- total-correctness pre-expectation.

    With ``sigma`` given, returns the :class:`ExtReal` value at that state;
    otherwise returns the pre-expectation as a function of the state.
    """
    f = lift_expectation(f)
    if sigma is None:
        return lambda s: _eval(command, f, s, EXT_REAL, flag, False, options)
    return _eval(command, f, sigma, EXT_REAL, flag, False, options)


def wlp(
    command: Command,
    f: Callable[[State], object],
    sigma: State = None,
    flag: bool = False,
    options: LoopOptions = DEFAULT_OPTIONS,
):
    """``wlp_b command f`` -- partial-correctness (liberal) variant.

    Requires ``f <= 1`` pointwise; divergence contributes its full mass.
    """
    f = bounded_expectation(lift_expectation(f))
    if sigma is None:
        return lambda s: _eval(command, f, s, EXT_REAL, flag, True, options)
    return _eval(command, f, sigma, EXT_REAL, flag, True, options)


def _eval(command, f, sigma, alg, flag, liberal, options):
    """Structural evaluation of wp_b/wlp_b over algebra ``alg``.

    ``f`` maps states into ``alg``'s value type (callers at the top level
    always pass extended-real expectations; the loop solver passes
    symbolic continuations).
    """
    if isinstance(command, Skip):
        return f(sigma)
    if isinstance(command, Assign):
        return f(sigma.set(command.name, command.expr.eval(sigma)))
    if isinstance(command, Seq):
        first, second = command.first, command.second

        def rest(s):
            return _eval(second, f, s, alg, flag, liberal, options)

        return _eval(first, rest, sigma, alg, flag, liberal, options)
    if isinstance(command, Observe):
        if as_bool(command.pred.eval(sigma)):
            return f(sigma)
        return alg.one() if flag else alg.zero()
    if isinstance(command, Ite):
        branch = command.then if as_bool(command.cond.eval(sigma)) else command.orelse
        return _eval(branch, f, sigma, alg, flag, liberal, options)
    if isinstance(command, Choice):
        p = as_fraction(command.prob.eval(sigma))
        if not 0 <= p <= 1:
            raise ProbabilityRangeError(p, sigma)
        # Skipping a zero-probability branch avoids useless work (and is
        # semantically forced: its weight annihilates any value).
        if p == 1:
            return _eval(command.left, f, sigma, alg, flag, liberal, options)
        if p == 0:
            return _eval(command.right, f, sigma, alg, flag, liberal, options)
        left = _eval(command.left, f, sigma, alg, flag, liberal, options)
        right = _eval(command.right, f, sigma, alg, flag, liberal, options)
        return alg.add(alg.scale(p, left), alg.scale(1 - p, right))
    if isinstance(command, Uniform):
        n = as_int(command.range_expr.eval(sigma))
        if n <= 0:
            raise UniformRangeError(n, sigma)
        share = Fraction(1, n)
        total = alg.zero()
        for i in range(n):
            total = alg.add(total, alg.scale(share, f(sigma.set(command.name, i))))
        return total
    if isinstance(command, While):
        guard_expr, body = command.cond, command.body

        def guard(s):
            return as_bool(guard_expr.eval(s))

        def step(s, h, step_alg):
            return _eval(body, h, s, step_alg, flag, liberal, options)

        def mass_step(s, h, step_alg):
            # Pure transition mass: no failure constants (flag=False),
            # least-fixpoint inner loops.
            return _eval(body, h, s, step_alg, False, False, options)

        return solve_loop(
            init_state=sigma,
            guard=guard,
            step=step,
            exit_value=f,
            algebra=alg,
            greatest=liberal,
            options=options,
            mass_step=mass_step,
        )
    raise TypeError("not a command: %r" % (command,))


def wp_value(command, f, sigma, alg, flag, liberal, options) -> object:
    """Low-level entry point used by the verification harness and tests."""
    return _eval(command, f, sigma, alg, flag, liberal, options)
