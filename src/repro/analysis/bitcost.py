"""Bit-cost analysis: Knuth--Yao entropy bound vs expected bits.

The Knuth--Yao theorem lower-bounds the expected number of fair coin
flips any exact sampler needs by the Shannon entropy of the target
distribution (and upper-bounds the optimal DDG tree by entropy + 2).
This analyzer:

1. reads the outcome distribution of the raw CF tree off a budgeted
   fixpoint run (:class:`repro.inference.fixpoint.FixpointEngine` --
   terminal, fail and unresolved mass, the unresolved part being the
   loop mass the station budget left unexplored);
2. computes the expected fair-coin flips per attempt of the debiased
   tree with the exact/iterative fixpoint engine
   (:func:`repro.cftree.analysis.expected_bits`);
3. reports entropy vs expectation as a ZAR009 info diagnostic, ZAR004
   when the expectation is unbounded (e.g. a certainly-divergent loop),
   and ZAR002 when *all* probability mass is rejected.

Registered as the ``bitcost`` analyzer; runs after the core abstract
interpretation so it can skip the (non-terminating) expectation solve
whenever the interpreter already proved certain divergence.
"""

from fractions import Fraction

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.domains import ONLY_FALSE
from repro.analysis.framework import AnalysisContext, register_analyzer
from repro.analysis.interp import ObserveSite, ProgramAnalysis
from repro.cftree.analysis import expected_bits
from repro.cftree.compile import compile_cpgcl
from repro.cftree.tree import CFTree
from repro.compiler.passes import DEFAULT_PASSES, TREE_PASSES, lookup
from repro.inference.fixpoint import FixpointEngine
from repro.lang.state import State
from repro.lang.syntax import Command
from repro.semantics.fixpoint import LoopOptions
from repro.stats.entropy import shannon_entropy

BITCOST_OPTIONS = LoopOptions(
    strategy="auto", max_states=2000, max_rounds=4000
)

#: Station budget of the outcome-mass run: sweeps stop once this many
#: distinct (loop, continuation, state) stations have been expanded.
MASS_STATIONS = 2048

#: The outcome-mass run stops once less mass than this is unresolved,
#: which keeps it below the 1e-9 that ZAR009 reports as unexplored.
MASS_WIDTH = Fraction(1, 2**30)


def _debiased(command: Command, sigma: State) -> CFTree:
    tree = compile_cpgcl(command, sigma)
    for run in lookup(TREE_PASSES, DEFAULT_PASSES):
        tree = run(tree)
    return tree


@register_analyzer("bitcost")
def analyze_bitcost(ctx: AnalysisContext) -> None:
    program = ctx.program
    assert isinstance(program, ProgramAnalysis)

    # A loop the interpreter proved can never exit makes the expectation
    # infinite; do not hand the (divergent) fixpoint solve to the engine.
    for site in program.loops():
        if site.never_exits:
            diag = Diagnostic(
                "ZAR004",
                "expected bits per sample is infinite: the loop at %s "
                "can never exit" % (".".join(site.path) or "<program>",),
                path=site.path,
            )
            if site.loc is not None:
                diag = diag.located(site.loc[0], site.loc[1])
            ctx.emit(diag)
            return

    if not isinstance(ctx.sigma, State) or not isinstance(
        ctx.command, Command
    ):
        return
    try:
        engine = FixpointEngine()
        engine.run(
            compile_cpgcl(ctx.command, ctx.sigma),
            width=MASS_WIDTH,
            max_stations=MASS_STATIONS,
        )
        masses = engine.account()
    except Exception as exc:  # analysis must never crash the lint run
        ctx.emit(
            Diagnostic(
                "ZAR008",
                "bit-cost analysis skipped: %s" % (exc,),
            )
        )
        return

    pmf = masses.terminal
    fail_mass = masses.fail
    # ``unresolved`` also holds the engine's sub-2^-96 rounding dust.
    residual = masses.unresolved
    success = sum(pmf.values(), Fraction(0))
    if success == 0:
        if not engine.frontier and not masses.parked:
            # Distribution-level infeasibility: every execution fails an
            # observation.  (Syntactically certain `observe false` is
            # already reported by the observe analyzer; no duplicate.)
            already = any(
                isinstance(s, ObserveSite) and s.tv == ONLY_FALSE
                for s in program.sites
            )
            if not already and fail_mass > 0:
                ctx.emit(
                    Diagnostic(
                        "ZAR002",
                        "all probability mass is rejected: the "
                        "observations can never all be satisfied",
                    )
                )
        return

    normalized = {key: float(mass / success) for key, mass in pmf.items()}
    entropy = shannon_entropy(normalized)

    # The expectation solve walks the debiased tree's loop state space
    # (nested rejection loops multiply the work); when the station
    # budget already left most of the distribution unexplored the state
    # space is too deep to solve within budget -- report incompleteness
    # instead of stalling the lint run.
    if residual > Fraction(1, 2):
        ctx.emit(
            Diagnostic(
                "ZAR008",
                "bit-cost analysis incomplete: %.0f%% of the probability "
                "mass lies in unexplored loop iterations (entropy lower "
                "bound %.3f bits/sample on the explored region)"
                % (100 * float(residual), entropy),
            )
        )
        return

    try:
        expected = expected_bits(
            _debiased(ctx.command, ctx.sigma), options=BITCOST_OPTIONS
        )
    except Exception as exc:  # analysis must never crash the lint run
        ctx.emit(
            Diagnostic(
                "ZAR008",
                "bit-cost analysis skipped: %s" % (exc,),
            )
        )
        return

    if expected.is_infinite:
        ctx.emit(
            Diagnostic(
                "ZAR004",
                "expected bits per attempt is unbounded "
                "(entropy lower bound %.3f bits)" % (entropy,),
            )
        )
        return

    per_attempt = float(expected.as_fraction())
    message = (
        "bit cost: entropy lower bound %.3f bits/sample, compiled tree "
        "expects %.3f bits/attempt" % (entropy, per_attempt)
    )
    if fail_mass > 0 and success > 0:
        per_accepted = per_attempt / float(success)
        message += " (~%.3f bits/accepted sample at acceptance %.3f)" % (
            per_accepted,
            float(success),
        )
    if float(residual) >= 1e-9:
        message += "; %.2e loop mass unexplored" % (float(residual),)
    ctx.emit(Diagnostic("ZAR009", message))
