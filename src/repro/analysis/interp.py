"""Abstract interpretation of cpGCL commands.

:class:`AbstractInterpreter` runs a command over :class:`AbsState`
(intervals + boolean sets, see ``domains``) and produces a
:class:`ProgramAnalysis`: per-site facts -- loop invariants and escape
bounds, branch feasibilities, observation satisfiability, sampling-range
validity, unassigned reads -- that the registered analyzers in
``repro.analysis.lint`` turn into diagnostics.

Loops are solved with the framework's widening fixpoint
(:func:`repro.analysis.framework.solve_fixpoint`).  Two refinements keep
the reports useful on real programs:

- **escape lower bound**: a bounded enumeration of the paths through a
  loop body lower-bounds the per-iteration probability of leaving the
  loop (a failed ``observe`` aborts the attempt and therefore also
  "escapes").  A positive bound witnesses almost-sure termination.
- **bounded unrolling**: when the escape bound is 0, the interpreter
  tries to show the loop exits within ``max_unroll`` iterations by
  iterating the abstract transfer *without* joining -- if some iterate's
  guard refinement is bottom, no concrete execution survives that many
  iterations.  This proves termination of counted loops that the
  invariant alone cannot (the join loses the iteration count).

Everything is metered by a shared :class:`AnalysisBudget`; exhaustion
degrades results soundly (states havoc to top, escape bounds drop to
"unknown") and is surfaced as a single ZAR008 diagnostic.
"""

from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.domains import (
    BOTTOM_STATE,
    NO_BOOLS,
    ONLY_FALSE,
    ONLY_TRUE,
    TOP_INT_INTERVAL,
    TOP_INTERVAL,
    TOP_VAL,
    AbsState,
    AbsVal,
    Interval,
)
from repro.analysis.framework import AnalysisBudget, solve_fixpoint
from repro.lang.expr import BinOp, Call, Expr, Lit, Opaque, UnOp, Var
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

Path = Tuple[str, ...]
Loc = Optional[Tuple[int, int]]

_ZERO_ONE = Interval(Fraction(0), Fraction(1))

_FLIPPED = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

_MIRRORED = {
    "==": "==",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


# -- abstract expression evaluation -------------------------------------


def aeval(expr: Expr, state: AbsState) -> AbsVal:
    """Evaluate ``expr`` over an abstract state.  Total: unknown
    constructs (builtin calls, opaque closures) evaluate to top, and
    operations that could fail at runtime over-approximate rather than
    raise."""
    if state.is_bottom:
        return AbsVal.bottom()
    if isinstance(expr, Lit):
        return AbsVal.of(expr.value)
    if isinstance(expr, Var):
        return state.get(expr.name)
    if isinstance(expr, UnOp):
        arg = aeval(expr.arg, state)
        if expr.op == "not":
            return AbsVal(None, frozenset(not b for b in arg.truthiness()))
        # numeric negation
        if arg.num is None:
            return AbsVal(TOP_INTERVAL)
        return AbsVal(arg.num.neg())
    if isinstance(expr, BinOp):
        return _aeval_binop(expr, state)
    if isinstance(expr, (Call, Opaque)):
        return TOP_VAL
    return TOP_VAL


def _aeval_binop(expr: BinOp, state: AbsState) -> AbsVal:
    op = expr.op
    lhs = aeval(expr.lhs, state)
    rhs = aeval(expr.rhs, state)
    if lhs.is_bottom or rhs.is_bottom:
        return AbsVal.bottom()
    if op in ("and", "or"):
        lt, rt = lhs.truthiness(), rhs.truthiness()
        out = frozenset(
            (a and b) if op == "and" else (a or b) for a in lt for b in rt
        )
        return AbsVal(None, out)
    if op in _FLIPPED:  # a comparison
        return AbsVal(None, _compare(op, lhs, rhs))
    # arithmetic
    a = lhs.num if lhs.num is not None else TOP_INTERVAL
    b = rhs.num if rhs.num is not None else TOP_INTERVAL
    if op == "+":
        return AbsVal(a.add(b))
    if op == "-":
        return AbsVal(a.sub(b))
    if op == "*":
        return AbsVal(a.mul(b))
    if op == "/":
        out = a.truediv(b)
        return AbsVal(out if out is not None else TOP_INTERVAL)
    if op == "//":
        out = a.floordiv(b)
        return AbsVal(out if out is not None else TOP_INT_INTERVAL)
    if op == "%":
        out = a.mod(b)
        return AbsVal(out if out is not None else TOP_INT_INTERVAL)
    return TOP_VAL


def _compare(op: str, lhs: AbsVal, rhs: AbsVal) -> FrozenSet[bool]:
    possible = set()
    if lhs.num is not None and rhs.num is not None:
        if op == "<":
            possible |= lhs.num.cmp_lt(rhs.num)
        elif op == "<=":
            possible |= lhs.num.cmp_le(rhs.num)
        elif op == ">":
            possible |= rhs.num.cmp_lt(lhs.num)
        elif op == ">=":
            possible |= rhs.num.cmp_le(lhs.num)
        elif op == "==":
            possible |= lhs.num.cmp_eq(rhs.num)
        elif op == "!=":
            possible |= frozenset(not b for b in lhs.num.cmp_eq(rhs.num))
    if lhs.bools and rhs.bools:
        for a in lhs.bools:
            for b in rhs.bools:
                if op == "==":
                    possible.add(a == b)
                elif op == "!=":
                    possible.add(a != b)
                else:  # Python compares bools as ints
                    possible.add(
                        {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
                    )
    # Mixed numeric/boolean comparisons follow Python's bool-as-int rules;
    # give up rather than model them.
    if (lhs.bools and rhs.num is not None) or (rhs.bools and lhs.num is not None):
        possible |= {True, False}
    return frozenset(possible)


# -- guard refinement ---------------------------------------------------


def assume(expr: Expr, want: bool, state: AbsState) -> AbsState:
    """Refine ``state`` with the knowledge that ``expr`` evaluated to
    ``want``; bottom when that is contradictory."""
    if state.is_bottom:
        return state
    if isinstance(expr, Lit):
        if isinstance(expr.value, bool):
            return state if expr.value == want else BOTTOM_STATE
        return BOTTOM_STATE  # numeric guard: as_bool would fail
    if isinstance(expr, Var):
        val = state.get(expr.name)
        if want not in val.truthiness():
            return BOTTOM_STATE
        return state.set(expr.name, AbsVal(None, frozenset((want,))))
    if isinstance(expr, UnOp) and expr.op == "not":
        return assume(expr.arg, not want, state)
    if isinstance(expr, BinOp):
        op = expr.op
        if (op == "and" and want) or (op == "or" and not want):
            return assume(expr.rhs, want, assume(expr.lhs, want, state))
        if op in ("and", "or"):
            # disjunctive case: join the two refinements
            return assume(expr.lhs, want, state).join(
                assume(expr.rhs, want, state)
            )
        if op in _FLIPPED:
            cmp_op = op if want else _FLIPPED[op]
            refined = state
            if isinstance(expr.lhs, Var):
                refined = _refine_cmp(
                    refined, expr.lhs.name, cmp_op, aeval(expr.rhs, refined)
                )
            if isinstance(expr.rhs, Var) and not refined.is_bottom:
                refined = _refine_cmp(
                    refined,
                    expr.rhs.name,
                    _MIRRORED[cmp_op],
                    aeval(expr.lhs, refined),
                )
            if refined is state:
                return _assume_fallback(expr, want, state)
            return refined
    return _assume_fallback(expr, want, state)


def _assume_fallback(expr: Expr, want: bool, state: AbsState) -> AbsState:
    outcomes = aeval(expr, state).truthiness()
    return state if want in outcomes else BOTTOM_STATE


def _refine_cmp(
    state: AbsState, name: str, op: str, bound: AbsVal
) -> AbsState:
    """Refine variable ``name`` under ``name <op> bound``."""
    val = state.get(name)
    if op in ("==", "!="):
        refined_val = _refine_eq(val, bound, op == "==")
        if refined_val is None:
            return BOTTOM_STATE
        return state.set(name, refined_val)
    if val.num is None or bound.num is None or bound.bools:
        return state  # not a purely numeric comparison; no refinement
    if op in ("<", "<="):
        constraint = Interval(None, bound.num.hi)
    else:  # ">", ">="
        constraint = Interval(bound.num.lo, None)
    strict = op in ("<", ">")
    if strict and val.num.integral:
        b = bound.num.hi if op == "<" else bound.num.lo
        if b is not None and b.denominator == 1:
            if op == "<":
                constraint = Interval(None, b - 1)
            else:
                constraint = Interval(b + 1, None)
    met = val.num.meet(constraint)
    if met is None and not val.bools:
        return BOTTOM_STATE
    return state.set(name, AbsVal(met, val.bools))


def _refine_eq(val: AbsVal, bound: AbsVal, equal: bool) -> Optional[AbsVal]:
    """Refine ``val`` by (in)equality with ``bound``; None means bottom."""
    if equal:
        if val.num is not None and bound.num is not None:
            num = val.num.meet(bound.num)
        else:
            num = None
        bools = val.bools & bound.bools
        if num is None and not bools:
            return None
        return AbsVal(num, bools)
    # disequality: only trims definite constants
    num = val.num
    c = bound.definite()
    if (
        num is not None
        and c is not None
        and not isinstance(c, bool)
        and num.integral
    ):
        q = Fraction(c)
        if num.lo is not None and num.lo == q:
            if num.hi is not None and num.hi == q:
                num = None  # point interval excluded entirely
            else:
                num = Interval(q + 1, num.hi, integral=True)
        elif num.hi is not None and num.hi == q:
            num = Interval(num.lo, q - 1, integral=True)
    bools = val.bools
    if isinstance(c, bool):
        bools = val.bools - frozenset((c,))
    if num is None and not bools:
        return None
    return AbsVal(num, bools)


# -- analysis results ---------------------------------------------------


class Site(object):
    """Base class of recorded program-point facts."""

    __slots__ = ("path", "loc")

    def __init__(self, path: Path, loc: Loc) -> None:
        self.path = path
        self.loc = loc


class LoopSite(Site):
    __slots__ = (
        "entry_tv",
        "invariant",
        "never_exits",
        "escape_bound",
        "bounded_iterations",
        "converged",
    )

    def __init__(
        self,
        path: Path,
        loc: Loc,
        entry_tv: FrozenSet[bool],
        invariant: AbsState,
        never_exits: bool,
        escape_bound: Optional[Fraction],
        bounded_iterations: Optional[int],
        converged: bool,
    ) -> None:
        Site.__init__(self, path, loc)
        self.entry_tv = entry_tv
        self.invariant = invariant
        self.never_exits = never_exits
        self.escape_bound = escape_bound
        self.bounded_iterations = bounded_iterations
        self.converged = converged


class BranchSite(Site):
    """An ``Ite`` or ``Choice`` with feasibility facts.

    ``dead`` names the unreachable child (``then``/``orelse``/``left``/
    ``right``) when exactly one side is provably never taken."""

    __slots__ = ("kind", "tv", "prob", "prob_validity", "dead")

    def __init__(
        self,
        path: Path,
        loc: Loc,
        kind: str,
        tv: FrozenSet[bool] = NO_BOOLS,
        prob: Optional[AbsVal] = None,
        prob_validity: str = "valid",
        dead: Optional[str] = None,
    ) -> None:
        Site.__init__(self, path, loc)
        self.kind = kind
        self.tv = tv
        self.prob = prob
        self.prob_validity = prob_validity
        self.dead = dead


class ObserveSite(Site):
    __slots__ = ("tv",)

    def __init__(self, path: Path, loc: Loc, tv: FrozenSet[bool]) -> None:
        Site.__init__(self, path, loc)
        self.tv = tv


class SampleSite(Site):
    """A ``Uniform`` with its abstract range and validity verdict
    (``valid`` / ``maybe-invalid`` / ``invalid``)."""

    __slots__ = ("range_val", "validity")

    def __init__(
        self, path: Path, loc: Loc, range_val: AbsVal, validity: str
    ) -> None:
        Site.__init__(self, path, loc)
        self.range_val = range_val
        self.validity = validity


class ReadSite(Site):
    __slots__ = ("names",)

    def __init__(self, path: Path, loc: Loc, names: Tuple[str, ...]) -> None:
        Site.__init__(self, path, loc)
        self.names = names


class ProgramAnalysis(object):
    """Everything the abstract interpreter learned about a program."""

    __slots__ = (
        "sites",
        "dead",
        "final",
        "incomplete",
        "incomplete_reasons",
    )

    def __init__(self) -> None:
        self.sites: List[Site] = []
        # loop path -> "drop-loop": the guard is false in every
        # reachable entry state
        self.dead: Dict[Path, str] = {}
        self.final: AbsState = BOTTOM_STATE
        self.incomplete = False
        self.incomplete_reasons: List[str] = []

    def mark_incomplete(self, reason: str) -> None:
        self.incomplete = True
        if reason not in self.incomplete_reasons:
            self.incomplete_reasons.append(reason)

    def loops(self) -> List[LoopSite]:
        return [s for s in self.sites if isinstance(s, LoopSite)]

    def certainly_diverges(self) -> bool:
        return any(site.never_exits for site in self.loops())


# -- the interpreter ----------------------------------------------------


class AbstractInterpreter(object):
    """Bounded abstract interpreter over cpGCL commands.

    ``locations`` optionally maps ``id(command-node)`` to a 1-based
    ``(line, column)`` (see ``lang.parser.parse_program_located``); when
    present, recorded sites carry source positions."""

    def __init__(
        self,
        widen_after: int = 4,
        max_iterations: int = 40,
        max_unroll: int = 40,
        max_escape_paths: int = 512,
        max_uniform_split: int = 8,
        budget: Optional[AnalysisBudget] = None,
        locations: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> None:
        self.widen_after = widen_after
        self.max_iterations = max_iterations
        self.max_unroll = max_unroll
        self.max_escape_paths = max_escape_paths
        self.max_uniform_split = max_uniform_split
        self.budget = budget if budget is not None else AnalysisBudget()
        self.locations = locations or {}
        self.analysis = ProgramAnalysis()

    def run(
        self, command: Command, sigma: Optional[State] = None
    ) -> ProgramAnalysis:
        self.analysis = ProgramAnalysis()
        bindings = dict((sigma or State.empty()).items())
        initial = AbsState.initial(bindings)
        self.analysis.final = self._exec(command, initial, (), True)
        if self.budget.exhausted:
            self.analysis.mark_incomplete("work budget exhausted")
        return self.analysis

    # -- helpers ---------------------------------------------------------

    def _loc(self, command: Command) -> Loc:
        return self.locations.get(id(command))

    def _record(self, site: Site) -> None:
        self.analysis.sites.append(site)

    def _check_reads(
        self, command: Command, expr: Expr, state: AbsState, path: Path
    ) -> None:
        unread = tuple(sorted(expr.free_vars() - state.assigned - {"*"}))
        if unread:
            self._record(ReadSite(path, self._loc(command), unread))

    # -- the transfer function ------------------------------------------

    def _exec(
        self, command: Command, state: AbsState, path: Path, report: bool
    ) -> AbsState:
        if state.is_bottom:
            return state
        if not self.budget.charge():
            # Sound bail-out: forget everything the command may write.
            return state.havoc(command.assigned_vars())
        if isinstance(command, Skip):
            return state
        if isinstance(command, Seq):
            mid = self._exec(command.first, state, path + ("first",), report)
            return self._exec(command.second, mid, path + ("second",), report)
        if isinstance(command, Assign):
            if report:
                self._check_reads(command, command.expr, state, path)
            return state.set(command.name, aeval(command.expr, state))
        if isinstance(command, Observe):
            return self._exec_observe(command, state, path, report)
        if isinstance(command, Ite):
            return self._exec_ite(command, state, path, report)
        if isinstance(command, Choice):
            return self._exec_choice(command, state, path, report)
        if isinstance(command, Uniform):
            return self._exec_uniform(command, state, path, report)
        if isinstance(command, While):
            return self._exec_while(command, state, path, report)
        # Unknown command extension: havoc its footprint.
        return state.havoc(command.assigned_vars())

    def _exec_observe(
        self, command: Observe, state: AbsState, path: Path, report: bool
    ) -> AbsState:
        tv = aeval(command.pred, state).truthiness()
        if report:
            self._check_reads(command, command.pred, state, path)
            self._record(ObserveSite(path, self._loc(command), tv))
        return assume(command.pred, True, state)

    def _exec_ite(
        self, command: Ite, state: AbsState, path: Path, report: bool
    ) -> AbsState:
        tv = aeval(command.cond, state).truthiness()
        dead: Optional[str] = None
        if tv == ONLY_TRUE:
            dead = "orelse"
        elif tv == ONLY_FALSE:
            dead = "then"
        if report:
            self._check_reads(command, command.cond, state, path)
            self._record(
                BranchSite(path, self._loc(command), "ite", tv=tv, dead=dead)
            )
        then_in = (
            assume(command.cond, True, state)
            if True in tv
            else BOTTOM_STATE
        )
        else_in = (
            assume(command.cond, False, state)
            if False in tv
            else BOTTOM_STATE
        )
        out_then = self._exec(command.then, then_in, path + ("then",), report)
        out_else = self._exec(
            command.orelse, else_in, path + ("orelse",), report
        )
        return out_then.join(out_else)

    def _exec_choice(
        self, command: Choice, state: AbsState, path: Path, report: bool
    ) -> AbsState:
        pv = aeval(command.prob, state)
        validity = "valid"
        dead: Optional[str] = None
        if pv.num is None:
            validity = "invalid"  # a boolean/non-numeric probability
        else:
            if pv.num.meet(_ZERO_ONE) is None:
                validity = "invalid"
            elif not pv.num.leq(_ZERO_ONE) or pv.bools:
                validity = "maybe-invalid"
            c = pv.num.constant()
            if c == 0:
                dead = "left"
            elif c == 1:
                dead = "right"
        if report:
            self._check_reads(command, command.prob, state, path)
            self._record(
                BranchSite(
                    path,
                    self._loc(command),
                    "choice",
                    prob=pv,
                    prob_validity=validity,
                    dead=dead,
                )
            )
        if validity == "invalid":
            return BOTTOM_STATE  # evaluation aborts at this site
        left_in = BOTTOM_STATE if dead == "left" else state
        right_in = BOTTOM_STATE if dead == "right" else state
        out_left = self._exec(command.left, left_in, path + ("left",), report)
        out_right = self._exec(
            command.right, right_in, path + ("right",), report
        )
        return out_left.join(out_right)

    def _exec_uniform(
        self, command: Uniform, state: AbsState, path: Path, report: bool
    ) -> AbsState:
        rv = aeval(command.range_expr, state)
        if rv.num is None:
            validity = "invalid"
        elif rv.num.hi is not None and rv.num.hi <= 0:
            validity = "invalid"
        elif rv.num.lo is None or rv.num.lo <= 0:
            validity = "maybe-invalid"
        else:
            validity = "valid"
        if report:
            self._check_reads(command, command.range_expr, state, path)
            self._record(
                SampleSite(path, self._loc(command), rv, validity)
            )
        if validity == "invalid":
            return BOTTOM_STATE
        hi = None if rv.num is None or rv.num.hi is None else rv.num.hi - 1
        drawn = AbsVal(Interval(Fraction(0), hi, integral=True))
        return state.set(command.name, drawn)

    def _exec_while(
        self, command: While, state: AbsState, path: Path, report: bool
    ) -> AbsState:
        entry_tv = aeval(command.cond, state).truthiness()
        if report:
            self._check_reads(command, command.cond, state, path)
        if entry_tv == ONLY_FALSE:
            # The loop is never entered at all: a dead body.
            if report:
                self._record(
                    LoopSite(
                        path,
                        self._loc(command),
                        entry_tv,
                        state,
                        never_exits=False,
                        escape_bound=None,
                        bounded_iterations=0,
                        converged=True,
                    )
                )
                self.analysis.dead[path] = "drop-loop"
            return state

        def transfer(head: AbsState) -> AbsState:
            body_in = assume(command.cond, True, head)
            if body_in.is_bottom:
                return head
            return self._exec(command.body, body_in, path + ("body",), False)

        result = solve_fixpoint(
            state,
            transfer,
            widen_after=self.widen_after,
            max_iterations=self.max_iterations,
        )
        invariant = result.value
        assert isinstance(invariant, AbsState)
        if not result.converged:
            self.analysis.mark_incomplete(
                "loop fixpoint hit the iteration cap"
            )
            invariant = state.havoc(command.assigned_vars())
        body_in = assume(command.cond, True, invariant)
        if report and not body_in.is_bottom:
            self._exec(command.body, body_in, path + ("body",), True)
        exit_state = assume(command.cond, False, invariant)
        if report:
            never_exits = exit_state.is_bottom and (True in entry_tv)
            escape: Optional[Fraction] = None
            bounded: Optional[int] = None
            if not never_exits:
                if body_in.is_bottom:
                    escape = Fraction(1)  # no full iteration ever survives
                else:
                    escape = self._escape_lower_bound(command, body_in)
                    if escape is not None and escape == 0:
                        bounded = self._bounded_termination(
                            command, state, path
                        )
            self._record(
                LoopSite(
                    path,
                    self._loc(command),
                    entry_tv,
                    invariant,
                    never_exits,
                    escape,
                    bounded,
                    result.converged,
                )
            )
        return exit_state

    # -- termination refinements ----------------------------------------

    def _bounded_termination(
        self, command: While, entry: AbsState, path: Path
    ) -> Optional[int]:
        """Iterations after which the guard is provably false on *every*
        surviving execution, or None if no such bound is found within
        ``max_unroll``."""
        current = entry
        for i in range(self.max_unroll):
            body_in = assume(command.cond, True, current)
            if body_in.is_bottom:
                return i
            if self.budget.exhausted:
                return None
            current = self._exec(
                command.body, body_in, path + ("body",), False
            )
            if current.is_bottom:
                return i + 1
        return None

    def _escape_lower_bound(
        self, command: While, body_in: AbsState
    ) -> Optional[Fraction]:
        """A lower bound on the probability that a single iteration of
        the loop leaves it (guard becomes false, or the attempt aborts on
        a failed observation).  None when the path budget ran out."""
        remaining = [self.max_escape_paths]
        exhausted = [False]

        def at_end(s: AbsState) -> Fraction:
            tv = aeval(command.cond, s).truthiness()
            return Fraction(1) if tv == ONLY_FALSE else Fraction(0)

        def go(
            cmd: Command,
            st: AbsState,
            k: Callable[[AbsState], Fraction],
        ) -> Fraction:
            if remaining[0] <= 0:
                exhausted[0] = True
                return Fraction(0)
            remaining[0] -= 1
            if st.is_bottom:
                return Fraction(1)  # no execution continues: vacuous escape
            if isinstance(cmd, Skip):
                return k(st)
            if isinstance(cmd, Assign):
                return k(st.set(cmd.name, aeval(cmd.expr, st)))
            if isinstance(cmd, Seq):
                first, second = cmd.first, cmd.second
                return go(first, st, lambda s: go(second, s, k))
            if isinstance(cmd, Observe):
                tv = aeval(cmd.pred, st).truthiness()
                if True not in tv:
                    return Fraction(1)  # the attempt aborts: escapes
                return k(assume(cmd.pred, True, st))
            if isinstance(cmd, Ite):
                tv = aeval(cmd.cond, st).truthiness()
                outcomes = []
                if True in tv:
                    outcomes.append(
                        go(cmd.then, assume(cmd.cond, True, st), k)
                    )
                if False in tv:
                    outcomes.append(
                        go(cmd.orelse, assume(cmd.cond, False, st), k)
                    )
                return min(outcomes) if outcomes else Fraction(1)
            if isinstance(cmd, Choice):
                pv = aeval(cmd.prob, st)
                left = go(cmd.left, st, k)
                right = go(cmd.right, st, k)
                lo, hi = Fraction(0), Fraction(1)
                if pv.num is not None:
                    if pv.num.lo is not None:
                        lo = max(lo, min(pv.num.lo, Fraction(1)))
                    if pv.num.hi is not None:
                        hi = min(hi, max(pv.num.hi, Fraction(0)))
                    hi = max(hi, lo)
                return min(
                    lo * left + (1 - lo) * right,
                    hi * left + (1 - hi) * right,
                )
            if isinstance(cmd, Uniform):
                rv = aeval(cmd.range_expr, st)
                n = rv.num.constant() if rv.num is not None else None
                if (
                    n is not None
                    and n.denominator == 1
                    and 1 <= n <= self.max_uniform_split
                ):
                    total = Fraction(0)
                    for i in range(int(n)):
                        total += Fraction(1, int(n)) * k(
                            st.set(cmd.name, AbsVal.of(i))
                        )
                    return total
                hi = None
                if rv.num is not None and rv.num.hi is not None:
                    hi = rv.num.hi - 1
                drawn = AbsVal(Interval(Fraction(0), hi, integral=True))
                return k(st.set(cmd.name, drawn))
            if isinstance(cmd, While):
                tv = aeval(cmd.cond, st).truthiness()
                if tv == ONLY_FALSE:
                    return k(st)
                return Fraction(0)  # unknown cost through a nested loop
            return Fraction(0)

        bound = go(command.body, body_in, at_end)
        if exhausted[0]:
            self.analysis.mark_incomplete(
                "escape-probability path budget exhausted"
            )
            return None
        return bound


def analyze(
    command: Command,
    sigma: Optional[State] = None,
    locations: Optional[Dict[int, Tuple[int, int]]] = None,
    budget: Optional[AnalysisBudget] = None,
) -> ProgramAnalysis:
    """One-call entry point: run the abstract interpreter with defaults."""
    interp = AbstractInterpreter(budget=budget, locations=locations)
    return interp.run(command, sigma)
