"""Argument parsing and dispatch for ``python -m repro``.

The driver exposes the full pipeline on cpGCL source files::

    python -m repro check   examples/programs/primes.gcl
    python -m repro pretty  examples/programs/primes.gcl
    python -m repro compile examples/programs/primes.gcl --debias --tree
    python -m repro sample  examples/programs/primes.gcl -n 10000 --var h
    python -m repro infer   examples/programs/primes.gcl --var h
    python -m repro bounds  examples/programs/primes.gcl --var h
    python -m repro mcmc    examples/programs/primes.gcl -n 5000 --var h

``sample`` runs the verified pipeline (compile, debias, interaction
tree, random bit model); ``infer`` computes certified posterior bounds
by enumeration; ``bounds`` computes them by CF-DAG fixpoint iteration
(converges on open loops where enumeration truncates); ``mcmc`` runs
the trace-MH extension.
"""

import argparse
import os
import sys
from typing import List, Optional, TextIO

from repro.compiler.passes import DEFAULT_PASSES
from repro.engine.api import BACKENDS, ENGINES
from repro.engine.profile import PROFILES

from repro.cli.commands import (
    CliError,
    cmd_bounds,
    cmd_check,
    cmd_compile,
    cmd_infer,
    cmd_lint,
    cmd_mcmc,
    cmd_pretty,
    cmd_sample,
)

_EXIT_CODES = (
    "Exit codes for check/lint: 0 clean (info diagnostics allowed), "
    "1 parse/type errors or worst lint severity warning, 2 worst lint "
    "severity error."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Zar-reproduction driver: compile, sample, and infer "
        "cpGCL probabilistic programs.",
        epilog=_EXIT_CODES,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="cpGCL source file")
        p.add_argument(
            "--init",
            action="append",
            metavar="NAME=VALUE",
            help="initial-state binding (repeatable); value is an int, "
            "true/false, or a rational p/q",
        )

    p_check = sub.add_parser(
        "check",
        help="parse, typecheck, and lint",
        description="Parse, typecheck, then lint the program. " + _EXIT_CODES,
    )
    add_common(p_check)
    p_check.set_defaults(run=cmd_check)

    p_lint = sub.add_parser(
        "lint",
        help="abstract-interpretation diagnostics (ZAR0xx rule codes)",
        description="Run the analysis-driven diagnostics engine: "
        "divergence (ZAR001), infeasible observations (ZAR002), dead "
        "branches (ZAR003), bit-cost (ZAR004/ZAR009), value hygiene "
        "(ZAR005-ZAR007), incompleteness (ZAR008).  " + _EXIT_CODES,
    )
    add_common(p_lint)
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text; json is schema-stable)",
    )
    p_lint.add_argument(
        "--analyzers", default=None, metavar="A1,A2,...",
        help="comma-separated analyzer list (default "
        "hygiene,observe,deadcode,termination,bitcost; see "
        "repro.analysis.framework.register_analyzer)",
    )
    p_lint.set_defaults(run=cmd_lint)

    p_pretty = sub.add_parser("pretty", help="parse and pretty-print")
    p_pretty.add_argument("file", help="cpGCL source file")
    p_pretty.set_defaults(run=cmd_pretty)

    p_compile = sub.add_parser(
        "compile", help="compile to a choice-fix tree and report statistics"
    )
    add_common(p_compile)
    p_compile.add_argument(
        "--debias", action="store_true",
        help="also run elim_choices + debias (random bit model)",
    )
    p_compile.add_argument(
        "--tree", action="store_true", help="print the tree rendering"
    )
    p_compile.add_argument(
        "--max-depth", type=int, default=8,
        help="depth cutoff for --tree (default 8)",
    )
    p_compile.add_argument(
        "--passes", default=None, metavar="P1,P2,...",
        help="pipeline pass list for the stage report (default %s; see "
        "repro.compiler.passes)" % ",".join(DEFAULT_PASSES),
    )
    p_compile.add_argument(
        "--no-pipeline", action="store_true",
        help="skip the staged-pipeline report (tree statistics only)",
    )
    p_compile.set_defaults(run=cmd_compile)

    p_sample = sub.add_parser(
        "sample", help="draw samples via the verified pipeline"
    )
    add_common(p_sample)
    p_sample.add_argument("-n", type=int, default=1000,
                          help="number of samples (default 1000)")
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--var", default=None,
                          help="report this variable instead of full states")
    p_sample.add_argument("--top", type=int, default=10,
                          help="outcomes to list (default 10)")
    # Engine/backend/profile choices come from the engine registry --
    # adding a backend (e.g. "native") is a one-site change there.
    p_sample.add_argument(
        "--engine", choices=ENGINES, default="auto",
        help="sampling path (%s): the vectorized batch engine; auto "
        "runs the native kernel on closed tables, else numpy, else pure "
        "Python, and falls back to the per-sample trampoline when "
        "lowering fails" % "|".join(ENGINES),
    )
    p_sample.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="batch driver tier (%s); default picks the best available"
        % "|".join(BACKENDS),
    )
    p_sample.add_argument(
        "--profile", choices=tuple(sorted(PROFILES)), default=None,
        help="named engine profile (%s); pins engine, backend, pass "
        "list, and node budget in one flag" % ", ".join(sorted(PROFILES)),
    )
    p_sample.set_defaults(run=cmd_sample)

    p_infer = sub.add_parser(
        "infer", help="certified posterior bounds by exact enumeration"
    )
    add_common(p_infer)
    p_infer.add_argument("--budget", type=int, default=10_000,
                         help="max tree expansions (default 10000)")
    p_infer.add_argument("--tol", default=None,
                         help="stop when unresolved mass <= TOL (rational)")
    p_infer.add_argument("--var", default=None,
                         help="marginalize onto this variable")
    p_infer.add_argument("--top", type=int, default=10)
    p_infer.set_defaults(run=cmd_infer)

    p_bounds = sub.add_parser(
        "bounds",
        help="certified posterior bounds by CF-DAG fixpoint iteration",
    )
    add_common(p_bounds)
    p_bounds.add_argument(
        "--width-bits", type=int, default=20,
        help="target slack 2^-BITS (default 20)")
    p_bounds.add_argument(
        "--max-sweeps", type=int, default=100_000,
        help="iteration cap (default 100000)")
    p_bounds.add_argument(
        "--observed", default=None,
        help="comma-separated variables to narrow onto (liveness "
        "narrowing; posterior is exact over these variables only)")
    p_bounds.add_argument("--var", default=None,
                          help="marginalize onto this variable")
    p_bounds.add_argument("--top", type=int, default=10)
    p_bounds.add_argument("--format", choices=("text", "json"),
                          default="text")
    p_bounds.set_defaults(run=cmd_bounds)

    p_mcmc = sub.add_parser(
        "mcmc", help="sample via single-site trace Metropolis-Hastings"
    )
    add_common(p_mcmc)
    p_mcmc.add_argument("-n", type=int, default=1000)
    p_mcmc.add_argument("--burn-in", type=int, default=200)
    p_mcmc.add_argument("--thin", type=int, default=1)
    p_mcmc.add_argument("--seed", type=int, default=None)
    p_mcmc.add_argument("--var", default=None)
    p_mcmc.add_argument("--top", type=int, default=10)
    p_mcmc.set_defaults(run=cmd_mcmc)

    return parser


def main(argv: Optional[List[str]] = None, out: Optional[TextIO] = None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, out)
    except CliError as err:
        print("error: %s" % err, file=out)
        return 1


def console_main() -> None:
    """Process entry point of ``python -m repro`` and the ``zar-repro``
    console script: runs :func:`main` and exits with its code."""
    try:
        code = main()
        # Flush inside the handler: a reader that closed the pipe
        # (``zar compile ... | head -1``) surfaces here, not at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # As the ``signal`` module docs advise for SIGPIPE: point stdout
        # at devnull so the interpreter's final flush cannot fail again,
        # and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
