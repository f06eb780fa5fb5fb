"""The reusable abstract-interpretation framework.

Two pieces, both deliberately independent of any particular domain:

- :class:`Lattice` -- the domain protocol.  Anything with ``join``,
  ``widen``, and ``leq`` (e.g. :class:`repro.analysis.domains.AbsState`,
  or a custom product domain) can be run through the solver.
- :func:`solve_fixpoint` -- a bounded Kleene iteration with widening.
  After ``widen_after`` plain join iterations, every further iterate is
  widened, which forces convergence for domains (like intervals) with
  infinite ascending chains.  A hard ``max_iterations`` cap backstops
  ill-behaved custom domains: instead of looping, the solver returns
  ``converged=False`` and the caller reports a ZAR008
  ``analysis-incomplete`` diagnostic -- mirroring the unmetered-loop
  class of bug fixed in ``repro.lang.interp`` by PR 1.

An analyzer is a callable taking an :class:`AnalysisContext`,
registered by name with :func:`register_analyzer`; registered names are
picked up by ``repro.analysis.lint.lint_program``.
"""

from typing import Callable, Dict, List, Optional, Tuple, TypeVar

try:  # Protocol is 3.8+; keep a graceful path for 3.7 interpreters.
    from typing import Protocol

    class Lattice(Protocol):
        """The domain protocol required by :func:`solve_fixpoint`."""

        def join(self, other: "Lattice") -> "Lattice":
            ...

        def widen(self, newer: "Lattice") -> "Lattice":
            ...

        def leq(self, other: "Lattice") -> bool:
            ...

except ImportError:  # pragma: no cover
    Lattice = object  # type: ignore[assignment, misc]

L = TypeVar("L")


class FixpointResult(object):
    """Outcome of a bounded fixpoint iteration."""

    __slots__ = ("value", "converged", "iterations")

    def __init__(self, value: object, converged: bool, iterations: int) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "converged", converged)
        object.__setattr__(self, "iterations", iterations)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("FixpointResult is immutable")

    def __repr__(self) -> str:
        return "FixpointResult(converged=%r, iterations=%d)" % (
            self.converged,
            self.iterations,
        )


def solve_fixpoint(
    init: L,
    transfer: Callable[[L], L],
    widen_after: int = 4,
    max_iterations: int = 48,
) -> FixpointResult:
    """Iterate ``x <- x JOIN transfer(x)`` to a post-fixpoint.

    ``widen_after`` is the widening threshold: the first few iterates use
    the plain join (preserving precision for short chains, e.g. counted
    loops whose guard refines the body input), after which widening is
    applied so infinite-height domains still terminate.  If
    ``max_iterations`` is hit first, iteration stops and the last iterate
    is returned with ``converged=False`` -- it is then *not* a sound
    invariant, and callers must either discard it or havoc it to top.
    """
    current = init
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        stepped = transfer(current)
        joined = current.join(stepped)  # type: ignore[attr-defined]
        if joined.leq(current):  # type: ignore[attr-defined]
            return FixpointResult(current, True, iterations)
        if iterations >= widen_after:
            current = current.widen(joined)  # type: ignore[attr-defined]
        else:
            current = joined
    return FixpointResult(current, False, iterations)


class AnalysisBudget(object):
    """A shared work meter.  Every node visit / enumerated path charges a
    unit; once exhausted, analyses degrade to their sound-but-imprecise
    fallbacks and the program gets one ZAR008 diagnostic."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int = 50000) -> None:
        self.limit = limit
        self.spent = 0

    def charge(self, units: int = 1) -> bool:
        """Consume ``units``; ``False`` once the budget is exhausted."""
        self.spent += units
        return self.spent <= self.limit

    @property
    def exhausted(self) -> bool:
        return self.spent > self.limit


class AnalysisContext(object):
    """Everything an analyzer gets to see.

    ``command``/``sigma`` are the program under analysis; ``program`` is
    the :class:`repro.analysis.interp.ProgramAnalysis` produced by the
    abstract interpreter (per-site invariants, branch feasibilities,
    observation refinements); ``emit`` appends a diagnostic to the report
    being assembled; ``locate`` maps a term path to a source line/column
    when the program was parsed with location tracking."""

    __slots__ = ("command", "sigma", "program", "emit", "locate")

    def __init__(
        self,
        command: object,
        sigma: object,
        program: object,
        emit: Callable[..., None],
        locate: Callable[[Tuple[str, ...]], Optional[Tuple[int, int]]],
    ) -> None:
        self.command = command
        self.sigma = sigma
        self.program = program
        self.emit = emit
        self.locate = locate


Analyzer = Callable[[AnalysisContext], None]

ANALYZER_REGISTRY: Dict[str, Analyzer] = {}


def register_analyzer(
    name: str,
    fn: Optional[Analyzer] = None,
    replace: bool = False,
) -> Callable[[Analyzer], Analyzer]:
    """Register an analyzer under ``name`` (usable as a decorator).

    Registered analyzers run, in registration order, after the core
    abstract interpretation; see ``docs/architecture.md`` for a worked
    custom-analyzer example."""

    def installer(func: Analyzer) -> Analyzer:
        if name in ANALYZER_REGISTRY and not replace:
            raise ValueError("analyzer %r already registered" % (name,))
        ANALYZER_REGISTRY[name] = func
        return func

    if fn is not None:
        return installer(fn)  # type: ignore[func-returns-value]
    return installer


def resolve_analyzers(names: Optional[List[str]] = None) -> List[Analyzer]:
    if names is None:
        return list(ANALYZER_REGISTRY.values())
    missing = [n for n in names if n not in ANALYZER_REGISTRY]
    if missing:
        raise KeyError("unknown analyzers: %s" % ", ".join(missing))
    return [ANALYZER_REGISTRY[n] for n in names]
