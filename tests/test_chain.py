"""Tests for Markov-chain extraction from loops (repro.semantics.chain)."""

from fractions import Fraction

import pytest

from repro.lang.expr import Lit, Var
from repro.lang.state import State
from repro.lang.sugar import flip
from repro.lang.syntax import Assign, Choice, Observe, Seq, Skip, While
from repro.semantics.chain import extract_chain
from repro.semantics.fixpoint import StateSpaceExceeded

S0 = State()


def geometric_loop(p):
    """while b { flip b p } started from b = true."""
    return While(Var("b"), flip("b", p)), State(b=True)


class TestExtraction:
    def test_geometric_chain_shape(self):
        loop, start = geometric_loop(Fraction(1, 3))
        chain = extract_chain(loop, start)
        assert chain.states == (State(b=True),)
        assert chain.transitions[start][State(b=True)] == Fraction(1, 3)
        assert chain.exits[start][State(b=False)] == Fraction(2, 3)
        assert chain.fail[start] == 0

    def test_row_stochastic(self):
        loop, start = geometric_loop(Fraction(2, 3))
        chain = extract_chain(loop, start)
        for s in chain.states:
            total = (
                sum(chain.transitions[s].values(), Fraction(0))
                + sum(chain.exits[s].values(), Fraction(0))
                + chain.fail[s]
            )
            assert total == 1

    def test_counter_chain(self):
        loop = While(Var("i") < 3, Assign("i", Var("i") + 1))
        chain = extract_chain(loop, S0)
        assert len(chain.states) == 3  # i = 0, 1, 2
        assert chain.exits[State(i=2)][State(i=3)] == 1

    def test_observe_failure_mass(self):
        loop = While(
            Var("b"),
            Seq(flip("b", Fraction(1, 2)), Observe(~Var("b") | Var("b"))),
        )
        chain = extract_chain(loop, State(b=True))
        assert chain.fail[State(b=True)] == 0  # tautological observe

    def test_guard_false_immediately(self):
        loop, _ = geometric_loop(Fraction(1, 2))
        chain = extract_chain(loop, State(b=False))
        assert chain.states == (State(b=False),)
        assert chain.transitions[State(b=False)] == {}

    def test_state_cap(self):
        loop = While(Lit(True), Assign("i", Var("i") + 1))
        with pytest.raises(StateSpaceExceeded):
            extract_chain(loop, S0, max_states=50)

    def test_nested_loop_rejected(self):
        loop = While(Var("b"), While(Var("c"), Skip()))
        with pytest.raises(StateSpaceExceeded):
            extract_chain(loop, State(b=True))


class TestChainAnalyses:
    def test_termination_probability_one(self):
        loop, start = geometric_loop(Fraction(2, 3))
        chain = extract_chain(loop, start)
        assert chain.termination_probability() == 1

    def test_divergent_loop_detected(self):
        loop = While(Lit(True), Skip())
        chain = extract_chain(loop, S0)
        assert chain.termination_probability() == 0
        assert chain.expected_iterations() is None
        pytest.importorskip("networkx")  # the optional ``graph`` extra
        assert chain.recurrent_classes() == [frozenset({S0})]

    def test_expected_iterations_geometric(self):
        # P(continue) = 1/3 each round: E[body runs] = 1/(1 - 1/3) = 3/2.
        loop, start = geometric_loop(Fraction(1, 3))
        chain = extract_chain(loop, start)
        assert chain.expected_iterations() == Fraction(3, 2)

    def test_exit_distribution(self):
        # Leave with b=false always; distribution concentrates there.
        loop, start = geometric_loop(Fraction(1, 4))
        chain = extract_chain(loop, start)
        exit_dist = chain.exit_distribution()
        assert exit_dist == {State(b=False): Fraction(1)}

    def test_dueling_coins_chain(self):
        from repro.lang.sugar import dueling_coins
        from repro.lang.syntax import Seq as SeqCmd

        program = dueling_coins(Fraction(2, 3))
        # Extract the loop from a := false; b := false; while ...
        loop = program.second.second
        chain = extract_chain(loop, State(a=False, b=False))
        assert chain.termination_probability() == 1
        # P(exit per iteration) = 2 p (1-p) = 4/9: E[iterations] = 9/4.
        assert chain.expected_iterations() == Fraction(9, 4)
        exit_dist = chain.exit_distribution()
        heads = sum(
            probability
            for state, probability in exit_dist.items()
            if state["a"] is True
        )
        assert heads == Fraction(1, 2)

    def test_graph_structure(self):
        pytest.importorskip("networkx")
        loop, start = geometric_loop(Fraction(1, 2))
        chain = extract_chain(loop, start)
        graph = chain.graph()
        assert graph.number_of_nodes() == 1
        assert graph.has_edge(start, start)
