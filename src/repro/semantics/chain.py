"""Finite-state Markov-chain extraction from cpGCL loops.

The exact loop solver works by implicitly constructing the Markov chain
of a loop over its reachable state space; this module makes that chain
a first-class, inspectable object:

- :func:`extract_chain` -- reachable loop-head states, one-step
  transition probabilities between them, and per-state exit
  distributions (all exact rationals);
- :class:`LoopChain` -- queries on top: exit distribution from the
  initial state, expected iterations, termination probability, and the
  transient/recurrent structure via strongly connected components
  (networkx, imported by the two methods that use it: it is an optional
  dependency, the ``graph`` extra).

Useful both as a debugging aid for the inference engine and as an
analysis in its own right (e.g. the dueling-coins chain has 4 states
with uniform-ish structure; the bernoulli-tree rejection loops are
two-state chains).
"""

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Tuple

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
from repro.semantics.fixpoint import StateSpaceExceeded

if TYPE_CHECKING:
    import networkx as nx


class LoopChain(NamedTuple):
    """The Markov chain induced by one ``while`` loop.

    ``transitions[s][s']`` is the probability of one body execution
    from loop state ``s`` ending at loop state ``s'``;
    ``exits[s][t]`` the probability of ending at guard-false state
    ``t``; ``fail[s]`` the observation-failure mass.  Rows satisfy
    ``sum(transitions[s]) + sum(exits[s]) + fail[s] = 1`` exactly.
    """

    init: State
    states: Tuple[State, ...]
    transitions: Dict[State, Dict[State, Fraction]]
    exits: Dict[State, Dict[State, Fraction]]
    fail: Dict[State, Fraction]

    def graph(self) -> "nx.DiGraph":
        """The loop-state transition graph (probabilities as weights)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.states)
        for source, targets in self.transitions.items():
            for target, probability in targets.items():
                g.add_edge(source, target, weight=float(probability))
        return g

    def recurrent_classes(self) -> List[frozenset]:
        """SCCs with no internal leak: states the loop can never leave
        (probability-1 internal mass).  Nonempty iff the loop diverges
        with positive probability from some reachable state."""
        import networkx as nx

        g = self.graph()
        closed = []
        for component in nx.strongly_connected_components(g):
            internal = all(
                sum(
                    self.transitions[s].get(t, Fraction(0))
                    for t in component
                ) == 1
                for s in component
            )
            if internal:
                closed.append(frozenset(component))
        return closed

    def termination_probability(self) -> Fraction:
        """Probability of leaving the loop (exit or observe-fail) from
        ``init``, by exact absorption solving."""
        index = {s: i for i, s in enumerate(self.states)}
        from repro.semantics.linsolve import solve_monotone

        n = len(self.states)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        consts = []
        for s in self.states:
            for target, probability in self.transitions[s].items():
                matrix[index[s]][index[target]] = probability
            leak = sum(self.exits[s].values(), Fraction(0)) + self.fail[s]
            consts.append(leak)
        solution = solve_monotone(matrix, default_one=False)
        row = solution.coeffs[index[self.init]]
        total = solution.ones[index[self.init]]
        for j, q in enumerate(row):
            total += q * consts[j]
        return total

    def expected_iterations(self):
        """Expected body executions from ``init`` (Fraction, or None if
        the loop diverges with positive probability)."""
        if self.termination_probability() != 1:
            return None
        index = {s: i for i, s in enumerate(self.states)}
        from repro.semantics.linsolve import solve_monotone

        n = len(self.states)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for s in self.states:
            for target, probability in self.transitions[s].items():
                matrix[index[s]][index[target]] = probability
        solution = solve_monotone(matrix, default_one=False)
        row = solution.coeffs[index[self.init]]
        total = solution.ones[index[self.init]]
        for j, _ in enumerate(row):
            total += row[j] * Fraction(1)  # each state contributes 1 visit
        return total

    def exit_distribution(self) -> Dict[State, Fraction]:
        """Distribution over guard-false exit states from ``init``."""
        index = {s: i for i, s in enumerate(self.states)}
        from repro.semantics.linsolve import solve_monotone

        n = len(self.states)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for s in self.states:
            for target, probability in self.transitions[s].items():
                matrix[index[s]][index[target]] = probability
        solution = solve_monotone(matrix, default_one=False)
        weights = solution.coeffs[index[self.init]]
        result: Dict[State, Fraction] = {}
        for s in self.states:
            share = weights[index[s]]
            if share == 0:
                continue
            for target, probability in self.exits[s].items():
                result[target] = result.get(target, Fraction(0)) + share * probability
        return result


def extract_chain(
    loop: While, sigma: State, max_states: int = 10000
) -> LoopChain:
    """Explore the loop's reachable state space and build its chain."""
    if not isinstance(loop, While):
        raise TypeError("expected a While command")

    def guard(s: State) -> bool:
        return as_bool(loop.cond.eval(s))

    if not guard(sigma):
        return LoopChain(sigma, (sigma,), {sigma: {}}, {sigma: {}},
                         {sigma: Fraction(0)})

    states: List[State] = [sigma]
    seen = {sigma}
    transitions: Dict[State, Dict[State, Fraction]] = {}
    exits: Dict[State, Dict[State, Fraction]] = {}
    fail: Dict[State, Fraction] = {}
    frontier = 0
    while frontier < len(states):
        current = states[frontier]
        frontier += 1
        outcome = _distribute(loop.body, current)
        transitions[current] = {}
        exits[current] = {}
        fail[current] = outcome.fail
        for target, probability in outcome.mass.items():
            if guard(target):
                transitions[current][target] = probability
                if target not in seen:
                    if len(states) >= max_states:
                        raise StateSpaceExceeded(
                            "loop has more than %d reachable states"
                            % max_states
                        )
                    seen.add(target)
                    states.append(target)
            else:
                exits[current][target] = probability
    return LoopChain(sigma, tuple(states), transitions, exits, fail)


class _Outcome(NamedTuple):
    mass: Dict[State, Fraction]
    fail: Fraction


def _distribute(command: Command, sigma: State) -> _Outcome:
    """Exact terminal-state distribution of a *loop-free* body execution.

    Nested loops are not supported here (the chain abstraction flattens
    one loop level at a time); they raise :class:`StateSpaceExceeded` to
    signal that the caller should fall back to the generic solver.
    """
    if isinstance(command, Skip):
        return _Outcome({sigma: Fraction(1)}, Fraction(0))
    if isinstance(command, Assign):
        target = sigma.set(command.name, command.expr.eval(sigma))
        return _Outcome({target: Fraction(1)}, Fraction(0))
    if isinstance(command, Observe):
        if as_bool(command.pred.eval(sigma)):
            return _Outcome({sigma: Fraction(1)}, Fraction(0))
        return _Outcome({}, Fraction(1))
    if isinstance(command, Seq):
        first = _distribute(command.first, sigma)
        mass: Dict[State, Fraction] = {}
        fail = first.fail
        for middle, probability in first.mass.items():
            rest = _distribute(command.second, middle)
            fail += probability * rest.fail
            for target, share in rest.mass.items():
                mass[target] = mass.get(target, Fraction(0)) + probability * share
        return _Outcome(mass, fail)
    if isinstance(command, Ite):
        taken = command.then if as_bool(command.cond.eval(sigma)) else command.orelse
        return _distribute(taken, sigma)
    if isinstance(command, Choice):
        p = as_fraction(command.prob.eval(sigma))
        if p == 1:
            return _distribute(command.left, sigma)
        if p == 0:
            return _distribute(command.right, sigma)
        left = _distribute(command.left, sigma)
        right = _distribute(command.right, sigma)
        mass = {s: p * q for s, q in left.mass.items()}
        for s, q in right.mass.items():
            mass[s] = mass.get(s, Fraction(0)) + (1 - p) * q
        return _Outcome(mass, p * left.fail + (1 - p) * right.fail)
    if isinstance(command, Uniform):
        n = as_int(command.range_expr.eval(sigma))
        share = Fraction(1, n)
        mass = {}
        fail = Fraction(0)
        for i in range(n):
            branch = _distribute(Skip(), sigma.set(command.name, i))
            for s, q in branch.mass.items():
                mass[s] = mass.get(s, Fraction(0)) + share * q
            fail += share * branch.fail
        return _Outcome(mass, fail)
    if isinstance(command, While):
        raise StateSpaceExceeded(
            "nested loops are not supported by chain extraction"
        )
    raise TypeError("not a command: %r" % (command,))
