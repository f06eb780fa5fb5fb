"""Fixpoint iteration over the hash-consed CF-DAG.

Best-first path enumeration (:mod:`repro.inference.paths`) treats a
``Fix`` node as something to *unfold*: every loop iteration allocates
fresh tree structure, so an open loop whose state space recurs (the
hare-tortoise walk, rejection loops) pays the full expansion cost at
every iteration and its slack decays only as fast as paths can be
popped one at a time.  This module instead treats the compiled CF-DAG
as a **mass-transfer system** and iterates it to a fixpoint:

- A **station** is a triple ``(token, kont, state)``: a loop head
  (identified by its content token -- the PR 6 digest key when present,
  pointer identity otherwise), the continuation context its exits
  deliver to (``None`` for halt, or a ``("K", outer_token, outer_kont)``
  chain naming the enclosing loop -- the exact analogue of the node
  table's ``_LoopK`` tokens), and a concrete loop state.
- The **transition** out of a station expands one operational step --
  ``body(state)`` when the guard holds (leaves re-enter the same loop),
  ``cont(state)`` otherwise (leaves deliver to ``kont``: terminal when
  halting, re-entry of the enclosing loop otherwise; nested loops
  become new stations) -- through all ``Choice`` nodes eagerly.  The
  eager part is
  finite because loops are the only source of unboundedness in a CF
  tree.  Transitions are **memoized per station**, so the thousandth
  loop iteration re-uses the first iteration's expansion for free.
- A **sweep** (synchronous Gauss-Jacobi step) pushes all frontier mass
  through the memoized transitions at once.  For loops whose one-step
  escape probability is bounded below by ``eps`` (see
  :func:`repro.cftree.analysis.escape_lower_bound`) the unresolved mass
  contracts by at least ``1 - eps`` per sweep -- geometric convergence
  with per-sweep cost ``O(live stations)`` instead of per-path cost.

**Outward rounding.**  Exact ``Fraction`` masses through hundreds of
sweeps grow unboundedly long denominators.  The engine therefore keeps
all mass as *integer numerators on a fixed dyadic grid* ``2**-grid_bits``
and rounds every transfer **down** (floor division).  Rounding down is
the outward direction for lower bounds: settled terminal/fail mass is
understated, never overstated, and the lost dust stays in ``unresolved``
forever -- so every reported interval remains sound, merely up to
``transfers * 2**-grid_bits`` wider than the exact iterate (about
``2**-72`` for the heaviest benchmark, far below any requested width).

**Mass-floor pruning.**  Frontier entries whose mass falls below
``2**-floor_bits`` are dropped and their mass is **parked**: moved to a
ledger of permanently unresolved mass (again sound -- parked mass only
widens bounds).  This caps the live station count on walks with long
soft tails.  The parked total is the floor below which the slack can
never contract, and is reported so callers can distinguish "converged
as far as the floor allows" from genuine divergence mass.

The account produced by :meth:`FixpointEngine.account` satisfies the
same conservation invariant as enumeration -- ``sum(terminal) + fail +
unresolved == 1`` exactly -- so all of :class:`repro.inference.Posterior`
works unchanged on top of it.
"""

import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.cftree.analysis import escape_lower_bound
from repro.cftree.tree import CFTree, Choice, Fail, Fix, Leaf
from repro.inference.account import MassAccount

#: Default dyadic grid: masses are integer multiples of ``2**-GRID_BITS``.
GRID_BITS = 96

#: Default pruning floor: frontier entries below ``2**-FLOOR_BITS`` park.
FLOOR_BITS = 50

#: Consecutive sweeps with *exactly* unchanged slack before declaring a
#: stall (a diverging loop recycles its frontier mass bit-for-bit).
STALL_WINDOW = 8


def station_token(fix: Fix) -> object:
    """Content identity of a loop head, ignoring its current state.

    Keyed ``Fix`` nodes (PR 6) promise extensionally equal
    ``(guard, body, cont)`` whenever keys are equal, so the digest key
    alone names the loop.  Unkeyed loops fall back to pointer identity
    of the three closures -- sound (identical functions are trivially
    extensionally equal) but blind to structurally equal copies.
    """
    if fix.key is not None:
        return fix.key
    return ("@", id(fix.guard), id(fix.body), id(fix.cont))


class FixpointStats:
    """Convergence report for one :meth:`FixpointEngine.run`."""

    __slots__ = (
        "sweeps",
        "stations",
        "frontier_size",
        "slack",
        "parked",
        "converged",
        "stalled",
        "escape_bound",
        "escape_complete",
        "wall_seconds",
        "residual_trace",
    )

    def __init__(self):
        self.sweeps = 0
        self.stations = 0
        self.frontier_size = 0
        self.slack = Fraction(1)
        self.parked = Fraction(0)
        self.converged = False
        self.stalled = False
        self.escape_bound: Optional[Fraction] = None
        self.escape_complete = False
        self.wall_seconds = 0.0
        self.residual_trace: List[float] = []

    def predicted_sweeps(self, width: Fraction) -> Optional[int]:
        """Iterations-to-width estimate from the contraction rate.

        With per-sweep escape probability at least ``eps`` the slack
        after ``n`` sweeps is at most ``(1 - eps)**n``, so reaching
        ``width`` needs at most ``log(width) / log(1 - eps)`` sweeps.
        ``None`` when no (positive) escape bound is available.
        """
        eps = self.escape_bound
        if not eps or eps <= 0:
            return None
        if eps >= 1:
            return 1
        import math

        return int(math.ceil(math.log(float(width)) / math.log(1.0 - float(eps))))

    def as_dict(self) -> Dict[str, object]:
        return {
            "sweeps": self.sweeps,
            "stations": self.stations,
            "frontier_size": self.frontier_size,
            "slack": float(self.slack),
            "parked": float(self.parked),
            "converged": self.converged,
            "stalled": self.stalled,
            "escape_bound": (
                None if self.escape_bound is None else float(self.escape_bound)
            ),
            "escape_complete": self.escape_complete,
            "wall_seconds": self.wall_seconds,
        }

    def __repr__(self):
        return (
            "FixpointStats(sweeps=%d, stations=%d, slack=%.3g, "
            "converged=%s, stalled=%s)"
            % (
                self.sweeps,
                self.stations,
                float(self.slack),
                self.converged,
                self.stalled,
            )
        )


class FixpointEngine:
    """Iterative mass-transfer over the stations of a CF-DAG.

    All mass is held as integer numerators on the dyadic grid
    ``2**-grid_bits`` (see module docstring for the soundness argument).
    The engine is resumable: :meth:`run` may be called repeatedly with
    tighter widths and continues from the current frontier.
    """

    def __init__(self, grid_bits: int = GRID_BITS, floor_bits: int = FLOOR_BITS):
        if floor_bits >= grid_bits:
            raise ValueError("floor_bits must be below grid_bits")
        self.grid_bits = grid_bits
        self.grid = 1 << grid_bits
        self.floor = 1 << (grid_bits - floor_bits)
        #: token -> representative Fix node (keeps closures alive so
        #: identity-based tokens stay unambiguous).
        self.reps: Dict[object, Fix] = {}
        #: (token, kont, state) -> (terminals, fail, next) with exact
        #: Fraction masses stored as (numerator, denominator) pairs.
        self.transitions: Dict[Tuple[object, object, object], tuple] = {}
        self.terminal: Dict[object, int] = {}
        self.fail = 0
        self.parked = 0
        self.frontier: Dict[Tuple[object, object, object], int] = {}
        self.sweeps = 0

    # -- exact one-step expansion (memoized) -----------------------------

    def _expand(self, tree: CFTree, kont) -> tuple:
        """Expand ``tree`` through Choices with exact Fractions.

        ``kont`` is the continuation context of this expansion: ``None``
        for halt, or ``("K", token, outer_kont)`` naming the loop that
        leaves re-enter.  Leaves deliver their value to ``kont`` --
        terminal when halting, a re-entry station of the named loop
        otherwise (body expansion: Definition 3.1's loop-again reading).
        Nested ``Fix`` nodes become stations of their own token *under
        the current* ``kont``, so when they eventually exit their leaves
        continue in the enclosing context rather than terminating.
        Returns ``(terminals, fail, next)`` where terminals and next
        carry ``(key, numerator, denominator)`` triples.
        """
        terms: Dict[object, Fraction] = {}
        nxt: Dict[Tuple[object, object, object], Fraction] = {}
        fail = Fraction(0)
        work = [(tree, Fraction(1))]
        while work:
            node, mass = work.pop()
            if mass == 0:
                continue
            if isinstance(node, Choice):
                left = mass * node.prob
                work.append((node.left, left))
                work.append((node.right, mass - left))
            elif isinstance(node, Fail):
                fail += mass
            elif isinstance(node, Leaf):
                if kont is not None:
                    _, token, outer = kont
                    key = (token, outer, node.value)
                    nxt[key] = nxt.get(key, Fraction(0)) + mass
                else:
                    terms[node.value] = terms.get(node.value, Fraction(0)) + mass
            elif isinstance(node, Fix):
                token = station_token(node)
                self.reps.setdefault(token, node)
                key = (token, kont, node.init)
                nxt[key] = nxt.get(key, Fraction(0)) + mass
            else:
                raise TypeError("not a CF tree: %r" % (node,))
        return (
            tuple((v, m.numerator, m.denominator) for v, m in terms.items()),
            (fail.numerator, fail.denominator),
            tuple((k, m.numerator, m.denominator) for k, m in nxt.items()),
        )

    def _transition(self, token: object, kont, state: object) -> tuple:
        memo = self.transitions.get((token, kont, state))
        if memo is not None:
            return memo
        fix = self.reps[token]
        if fix.guard(state):
            result = self._expand(fix.body(state), ("K", token, kont))
        else:
            result = self._expand(fix.cont(state), kont)
        self.transitions[(token, kont, state)] = result
        return result

    # -- mass transfer ---------------------------------------------------

    def push(self, tree: CFTree) -> None:
        """Seed the engine with the unit mass of ``tree``."""
        terms, (fn, fd), nxt = self._expand(tree, None)
        grid = self.grid
        for value, n, d in terms:
            self.terminal[value] = self.terminal.get(value, 0) + (n * grid) // d
        self.fail += (fn * grid) // fd
        for key, n, d in nxt:
            self.frontier[key] = self.frontier.get(key, 0) + (n * grid) // d

    def sweep(self) -> None:
        """One synchronous mass-transfer step over the whole frontier.

        Every floor division rounds a transfer down: the dust (at most
        one grid unit per transfer) permanently joins the unresolved
        mass, which is the sound direction for every bound we report.
        """
        new: Dict[Tuple[object, object], int] = {}
        terminal = self.terminal
        fail = self.fail
        for key, mass in self.frontier.items():
            terms, (fn, fd), nxt = self._transition(*key)
            for value, n, d in terms:
                terminal[value] = terminal.get(value, 0) + (mass * n) // d
            if fn:
                fail += (mass * fn) // fd
            for nkey, n, d in nxt:
                q = (mass * n) // d
                if q:
                    new[nkey] = new.get(nkey, 0) + q
        self.fail = fail
        floor = self.floor
        pruned = 0
        frontier = {}
        for key, mass in new.items():
            if mass >= floor:
                frontier[key] = mass
            else:
                pruned += mass
        self.parked += pruned
        self.frontier = frontier
        self.sweeps += 1

    # -- queries ---------------------------------------------------------

    def settled(self) -> int:
        return sum(self.terminal.values()) + self.fail

    def slack(self) -> Fraction:
        """Exact unresolved mass: ``1 - settled`` (includes frontier
        mass, parked mass, and accumulated rounding dust)."""
        return 1 - Fraction(self.settled(), self.grid)

    def parked_mass(self) -> Fraction:
        return Fraction(self.parked, self.grid)

    def account(self) -> MassAccount:
        """Snapshot the ledger as a conservation-checked account."""
        account = MassAccount()
        for value, mass in self.terminal.items():
            if mass:
                account.settle_leaf(value, Fraction(mass, self.grid))
        if self.fail:
            account.settle_fail(Fraction(self.fail, self.grid))
        if self.parked:
            account.park(Fraction(self.parked, self.grid))
        account.expansions = len(self.transitions)
        return account

    def run(
        self,
        tree: Optional[CFTree] = None,
        width: Fraction = Fraction(1, 1 << 20),
        max_sweeps: int = 100_000,
        stall_window: int = STALL_WINDOW,
        max_stations: Optional[int] = None,
    ) -> FixpointStats:
        """Iterate sweeps until ``slack <= width`` or progress stops.

        Stops early (with ``converged=False``) when the frontier drains
        completely, when ``max_sweeps`` is exhausted, when a sweep has
        left at least ``max_stations`` memoized stations, or when the
        slack is bit-for-bit unchanged for ``stall_window`` consecutive
        sweeps -- the signature of a loop with escape probability 0,
        whose frontier recycles the same integer masses forever (the
        ZAR001 divergence case; see :func:`repro.inference.refine_until`
        for the analyzer-backed version of this cap).
        """
        t0 = time.perf_counter()
        if tree is not None:
            self.push(tree)
        width = Fraction(width)
        stats = FixpointStats()
        slack = self.slack()
        unchanged = 0
        start = self.sweeps
        while (
            slack > width
            and self.frontier
            and self.sweeps - start < max_sweeps
            and unchanged < stall_window
            and (max_stations is None
                 or len(self.transitions) < max_stations)
        ):
            self.sweep()
            new_slack = self.slack()
            unchanged = unchanged + 1 if new_slack == slack else 0
            slack = new_slack
            if len(stats.residual_trace) < 4096:
                stats.residual_trace.append(float(slack))
        stats.sweeps = self.sweeps
        stats.stations = len(self.transitions)
        stats.frontier_size = len(self.frontier)
        stats.slack = slack
        stats.parked = self.parked_mass()
        stats.converged = slack <= width
        stats.stalled = unchanged >= stall_window
        if self.reps:
            bound: Optional[Fraction] = None
            complete = True
            for fix in self.reps.values():
                eps, comp = escape_lower_bound(fix)
                complete = complete and comp
                bound = eps if bound is None else min(bound, eps)
            stats.escape_bound = bound
            stats.escape_complete = complete
        stats.wall_seconds = time.perf_counter() - t0
        return stats
