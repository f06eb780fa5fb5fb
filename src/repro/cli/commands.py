"""Implementations of the ``python -m repro`` subcommands.

Each command takes parsed arguments plus an output stream, returns a
process exit code, and raises nothing user-triggerable: parse/check
failures are rendered as diagnostics and a nonzero exit code, matching
what a downstream user expects from a compiler driver.

Each command imports the subsystems it runs (inference, MCMC, the tree
analyses, the linter) inside its own body, so a ``python -m repro``
process loads only what its subcommand executes.
"""

from collections import Counter
from fractions import Fraction
from typing import Optional, TextIO

from repro.lang.errors import CpGCLError
from repro.lang.parser import parse_program
from repro.lang.state import State
from repro.lang.syntax import Command
from repro.lang.values import normalize


class CliError(Exception):
    """A user-facing failure: message printed, exit code 1."""


def load_source(path: str) -> str:
    """Read a cpGCL source file."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as err:
        raise CliError("cannot read %s: %s" % (path, err))


def load_program(path: str) -> Command:
    """Parse a cpGCL source file into a command AST."""
    source = load_source(path)
    try:
        return parse_program(source)
    except CpGCLError as err:
        raise CliError("%s: %s" % (path, err))


def parse_initial_state(pairs) -> State:
    """Build the initial state from repeated ``--init name=value``."""
    sigma = State()
    for pair in pairs or ():
        name, _sep, raw = pair.partition("=")
        if not _sep or not name:
            raise CliError("--init expects name=value, got %r" % (pair,))
        sigma = sigma.set(name.strip(), _parse_value(raw.strip()))
    return sigma


def _parse_value(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        if "/" in raw:
            return normalize(Fraction(raw))
        return int(raw)
    except ValueError:
        raise CliError("cannot parse value %r (int, bool, or p/q)" % (raw,))


def cmd_check(args, out: TextIO) -> int:
    """``zar check``: parse -> typecheck -> lint.

    Exit codes: 0 clean (infos allowed), 1 parse/type errors or lint
    warnings, 2 lint errors.
    """
    from repro.analysis.lint import lint_program
    from repro.lang.parser import parse_program_located
    from repro.lang.typecheck import check_program

    source = load_source(args.file)
    try:
        program, locations = parse_program_located(source)
    except CpGCLError as err:
        raise CliError("%s: %s" % (args.file, err))
    report = check_program(program, strict=False)
    for message in report.errors:
        print("error: %s" % message, file=out)
    for message in report.warnings:
        print("warning: %s" % message, file=out)
    if not report.ok:
        return 1
    sigma = parse_initial_state(getattr(args, "init", None))
    lint = lint_program(program, sigma, locations=locations)
    if lint.diagnostics:
        lint.render_text(out, name=args.file)
    if lint.exit_code == 0:
        print("%s: OK (%d warning%s)" % (
            args.file, len(report.warnings),
            "" if len(report.warnings) == 1 else "s",
        ), file=out)
    return lint.exit_code


def cmd_lint(args, out: TextIO) -> int:
    """``zar lint``: abstract-interpretation diagnostics.

    Exit codes: 0 clean or info-only, 1 worst severity warning, 2 worst
    severity error (parse failures and unreadable files exit 1).
    """
    from repro.analysis.lint import lint_source

    source = load_source(args.file)
    sigma = parse_initial_state(getattr(args, "init", None))
    analyzers = None
    raw = getattr(args, "analyzers", None)
    if raw:
        analyzers = [name.strip() for name in raw.split(",") if name.strip()]
    try:
        report = lint_source(source, sigma, analyzers=analyzers)
    except CpGCLError as err:
        raise CliError("%s: %s" % (args.file, err))
    except KeyError as err:
        raise CliError(err.args[0])
    if getattr(args, "format", "text") == "json":
        report.render_json(out)
    else:
        report.render_text(out, name=args.file)
    return report.exit_code


def cmd_pretty(args, out: TextIO) -> int:
    from repro.lang.pretty import pretty

    program = load_program(args.file)
    print(pretty(program), file=out)
    return 0


def cmd_compile(args, out: TextIO) -> int:
    from repro.cftree.analysis import (
        expected_bits,
        is_unbiased,
        tree_depth,
        tree_size,
    )
    from repro.cftree.compile import compile_cpgcl
    from repro.cftree.debias import debias
    from repro.cftree.elim import elim_choices
    from repro.cftree.viz import render_cftree

    program = load_program(args.file)
    sigma = parse_initial_state(args.init)
    tree = compile_cpgcl(program, sigma)
    stage = "compiled"
    if args.debias:
        tree = debias(elim_choices(tree))
        stage = "compiled + elim_choices + debias"
    unbiased = is_unbiased(tree)
    print("stage:     %s" % stage, file=out)
    print("size:      %d nodes (Fix bodies not unfolded)" % tree_size(tree),
          file=out)
    print("depth:     %d" % tree_depth(tree), file=out)
    print("unbiased:  %s" % unbiased, file=out)
    try:
        cost = expected_bits(tree)
        # Each Choice costs one flip; only for unbiased trees do flips
        # coincide with fair random bits.
        label = "E[bits]" if unbiased else "E[flips]"
        print("%s:   %s (= %.4f)" % (label, cost, float(cost)), file=out)
    except (CpGCLError, ValueError, ZeroDivisionError):
        pass  # expected cost undefined (e.g. nonterminating loop)
    if not getattr(args, "no_pipeline", False):
        _print_pipeline_stats(program, sigma, args, out)
    if args.tree:
        print(file=out)
        # Unfold Fix bodies one step at their entry states, as Figure 3
        # displays the primes loop.
        print(
            render_cftree(tree, max_depth=args.max_depth, unfold_fix=True),
            file=out,
        )
    return 0


def _print_pipeline_stats(program, sigma, args, out: TextIO) -> None:
    """Render the staged pipeline's per-stage metrics (ISSUE 5)."""
    from repro.compiler.cache import get_cache
    from repro.compiler.passes import DEFAULT_PASSES
    from repro.compiler.pipeline import compile_program
    from repro.engine.table import LoweringError

    raw = getattr(args, "passes", None) or ",".join(DEFAULT_PASSES)
    passes = tuple(name.strip() for name in raw.split(",") if name.strip())
    try:
        prog = compile_program(
            program, sigma, passes=passes, measure_raw=True
        )
    except LoweringError as err:
        print("pipeline:  not lowerable (%s)" % err, file=out)
        return
    except KeyError as err:
        raise CliError("pipeline: %s" % (err.args[0],))
    stats = prog.stats
    print(file=out)
    print("pipeline (normalize -> analyze -> build -> optimize -> lower):",
          file=out)
    digest = stats.get("digest")
    print("  digest:        %s" % (digest or "<undigestable: %s>"
                                   % stats.get("undigestable")), file=out)
    analysis = stats.get("analysis") or {}
    if analysis.get("passes"):
        notes = ""
        if analysis.get("incomplete"):
            notes = ", analysis incomplete"
        print("  analyze:       %d dead site(s) pruned (%s%s)" % (
            analysis.get("pruned_sites", 0),
            ", ".join(analysis["passes"]),
            notes,
        ), file=out)
    build = stats.get("build") or {}
    print("  build:         %d DAG nodes" % build.get("dag_nodes", 0),
          file=out)
    for record in stats.get("optimize", ()):
        print("  pass %-13s %d -> %d nodes" % (
            record["name"] + ":",
            record["dag_nodes_before"],
            record["dag_nodes_after"],
        ), file=out)
    lower = stats.get("lower") or {}
    reduction = ""
    if "rows_raw" in lower:
        reduction = "  (raw %d, -%.1f%% via dedup/compaction)" % (
            lower["rows_raw"], lower.get("reduction_pct", 0.0),
        )
    print("  lower:         %d table rows%s" % (lower.get("rows", 0),
                                                reduction), file=out)
    print("  expansions:    %d eager (%s)" % (
        lower.get("expansions", 0),
        "closed" if lower.get("closed") else "open: loop states expand "
        "lazily during sampling",
    ), file=out)
    if not lower.get("closed"):
        from repro.engine.freeze import freeze_report

        frz = freeze_report(prog.table)
        print("  cacheable:     %s (%d/%d pendings keyed, %d/%d calls, "
              "%d/%d memo entries)" % (
                  "yes" if frz["spillable"] else
                  "no (unkeyed call records)",
                  frz["pending_keyed"],
                  frz["pending_keyed"] + frz["pending_unkeyed"],
                  frz["calls"] - frz["calls_unkeyed"], frz["calls"],
                  frz["memo_keyed"], frz["memo_entries"],
              ), file=out)
    from repro.engine.native import kernel_status

    # Kernel-cache state for the generated-C backend, mirroring the
    # ``cacheable:`` line: resolving it here actually builds (or hits)
    # the kernel, so the reported compile ms / cache tier is measured,
    # not guessed.
    print("  native:        %s" % kernel_status(prog.table), file=out)
    memo = stats.get("cftree_cache") or {}
    artifacts = get_cache().stats()
    print("  compile memo:  %d hits / %d misses (capacity %d)" % (
        memo.get("hits", 0), memo.get("misses", 0),
        memo.get("capacity", 0),
    ), file=out)
    print("  artifacts:     %d memory + %d disk hits, %d stored%s" % (
        artifacts["memory_hits"], artifacts["disk_hits"],
        artifacts["stores"],
        ", disk %s" % artifacts["disk_dir"] if artifacts["disk_dir"] else "",
    ), file=out)
    _print_engine_selection(prog, out)


def _print_engine_selection(prog, out: TextIO) -> None:
    """Render the engine-selection block of the stage report.

    Engines, backends, and profiles are enumerated from the engine
    registry (never by hand), so registering a new backend shows up
    here -- and in ``--engine``/``--profile`` help -- with no CLI edit.
    """
    from repro.engine.api import BACKENDS, ENGINES
    from repro.engine.profile import PROFILES, features_of, static_profile

    features = features_of(prog)
    print("  engines:       %s (backends: %s)" % (
        ", ".join(ENGINES), ", ".join(BACKENDS)), file=out)
    print("  profiles:      %s" % ", ".join(sorted(PROFILES)), file=out)
    print("  features:      rows=%d %s" % (
        features.rows, "closed" if features.closed else "open"), file=out)
    print("  auto profile:  %s -- static rule"
          % static_profile(features).describe(), file=out)


def cmd_sample(args, out: TextIO) -> int:
    program = load_program(args.file)
    sigma = parse_initial_state(args.init)
    extract = _extractor(args.var)
    from repro.engine import LoweringError
    from repro.engine.api import collect_auto
    from repro.engine.profile import profile_named

    profile = None
    if getattr(args, "profile", None):
        try:
            profile = profile_named(args.profile)
        except ValueError as err:
            raise CliError(str(err))
    try:
        result = collect_auto(
            program,
            args.n,
            sigma=sigma,
            seed=args.seed,
            extract=extract,
            engine=getattr(args, "engine", "auto"),
            backend=getattr(args, "backend", None),
            profile=profile,
        )
    except LoweringError as err:
        raise CliError("batch engine: %s" % err)
    except ValueError as err:
        raise CliError(str(err))
    samples = result.samples
    if result.engine == "batch":
        print("engine:    batch (%d table nodes)" % result.table_nodes,
              file=out)
    else:
        print("engine:    trampoline", file=out)
    if result.profile is not None:
        print("profile:   %s" % result.profile.describe(), file=out)
    if result.fallback_reason:
        print("fallback:  %s" % result.fallback_reason, file=out)
    print("samples:   %d (seed %s)" % (len(samples), args.seed), file=out)
    print("mean bits: %.2f (std %.2f)"
          % (samples.mean_bits(), samples.std_bits()), file=out)
    if args.var is not None:
        print("mean %s:   %.4f (std %.4f)"
              % (args.var, samples.mean(), samples.std()), file=out)
    _print_counts(samples.values, args.top, out)
    return 0


def cmd_infer(args, out: TextIO) -> int:
    from repro.inference import infer_posterior

    program = load_program(args.file)
    sigma = parse_initial_state(args.init)
    if args.budget < 0:
        raise CliError("--budget must be nonnegative")
    tol = None
    if args.tol:
        try:
            tol = Fraction(args.tol)
        except (ValueError, ZeroDivisionError):
            raise CliError("--tol expects a rational, got %r" % (args.tol,))
        if tol < 0:
            raise CliError("--tol must be nonnegative")
    posterior = infer_posterior(
        program, sigma, max_expansions=args.budget, mass_tol=tol
    )
    print("expansions: %d   slack: %s"
          % (posterior.account.expansions, _fmt_frac(posterior.slack)),
          file=out)
    if args.var is not None:
        marginal = posterior.marginal(args.var)
        try:
            ordered = sorted(marginal)
        except TypeError:  # mixed-type support: fall back to repr order
            ordered = sorted(marginal, key=repr)
        for value in ordered:
            bounds = marginal[value]
            print("P(%s=%s) in [%.6g, %.6g]"
                  % (args.var, value, bounds.lo, bounds.hi), file=out)
    else:
        for state in posterior.states()[: args.top]:
            bounds = posterior.probability(state)
            print("P(%s) in [%.6g, %.6g]" % (state, bounds.lo, bounds.hi),
                  file=out)
    return 0


def cmd_bounds(args, out: TextIO) -> int:
    import json

    from repro.inference import fixpoint_posterior

    program = load_program(args.file)
    sigma = parse_initial_state(args.init)
    if args.width_bits <= 0:
        raise CliError("--width-bits must be positive")
    if args.max_sweeps <= 0:
        raise CliError("--max-sweeps must be positive")
    observed = None
    if args.observed:
        observed = tuple(
            name.strip() for name in args.observed.split(",") if name.strip()
        )
    posterior = fixpoint_posterior(
        program,
        sigma,
        width=Fraction(1, 2 ** args.width_bits),
        max_sweeps=args.max_sweeps,
        observed=observed,
    )
    stats = posterior.stats

    def marginal_rows():
        if args.var is None:
            return None
        marginal = posterior.marginal(args.var)
        try:
            ordered = sorted(marginal)
        except TypeError:  # mixed-type support: fall back to repr order
            ordered = sorted(marginal, key=repr)
        return [(value, marginal[value]) for value in ordered]

    if args.format == "json":
        payload = {
            "file": args.file,
            "width_bits": args.width_bits,
            "partial": posterior.partial,
            "partial_reason": posterior.partial_reason,
            "stats": stats.as_dict(),
            "predicted_sweeps": stats.predicted_sweeps(
                Fraction(1, 2 ** args.width_bits)
            ),
        }
        rows = marginal_rows()
        if rows is not None:
            payload["marginal"] = {
                "var": args.var,
                "pmf": [
                    {
                        "value": repr(value),
                        "lo": str(bounds.lo),
                        "hi": str(bounds.hi),
                    }
                    for value, bounds in rows
                ],
            }
        else:
            payload["states"] = [
                {
                    "state": repr(state),
                    "lo": str(posterior.probability(state).lo),
                    "hi": str(posterior.probability(state).hi),
                }
                for state in posterior.states()[: args.top]
            ]
        json.dump(payload, out, indent=2)
        print(file=out)
        return 0

    print(
        "sweeps: %d   stations: %d   slack: %.3g   parked: %.3g"
        % (
            stats.sweeps,
            stats.stations,
            float(stats.slack),
            float(stats.parked),
        ),
        file=out,
    )
    if stats.escape_bound is not None:
        predicted = stats.predicted_sweeps(Fraction(1, 2 ** args.width_bits))
        print(
            "escape bound: %.3g%s   predicted sweeps to width: %s"
            % (
                float(stats.escape_bound),
                "" if stats.escape_complete else " (incomplete sweep)",
                "n/a" if predicted is None else predicted,
            ),
            file=out,
        )
    if posterior.partial:
        print("PARTIAL: %s" % posterior.partial_reason, file=out)
    rows = marginal_rows()
    if rows is not None:
        for value, bounds in rows:
            print(
                "P(%s=%s) in [%.6g, %.6g]  width %.3g"
                % (args.var, value, bounds.lo, bounds.hi, bounds.width),
                file=out,
            )
    else:
        for state in posterior.states()[: args.top]:
            bounds = posterior.probability(state)
            print(
                "P(%s) in [%.6g, %.6g]" % (state, bounds.lo, bounds.hi),
                file=out,
            )
    return 0


def cmd_mcmc(args, out: TextIO) -> int:
    from repro.mcmc import MHSampler, effective_sample_size

    program = load_program(args.file)
    sigma = parse_initial_state(args.init)
    if args.n < 1:
        raise CliError("-n must be positive")
    if args.thin < 1:
        raise CliError("--thin must be positive")
    if args.burn_in < 0:
        raise CliError("--burn-in must be nonnegative")
    chain = MHSampler(program, sigma, seed=args.seed).run(
        args.n, burn_in=args.burn_in, thin=args.thin
    )
    print("samples:     %d (burn-in %d, thin %d, seed %s)"
          % (len(chain), args.burn_in, args.thin, args.seed), file=out)
    print("acceptance:  %.3f" % chain.acceptance_rate(), file=out)
    print("bits/sample: %.2f" % chain.bits_per_sample(), file=out)
    if args.var is not None:
        values = chain.extract(args.var)
        numeric = [float(v) for v in values]
        print("ESS(%s):     %.0f of %d"
              % (args.var, effective_sample_size(numeric), len(values)),
              file=out)
        _print_counts(values, args.top, out)
    else:
        _print_counts(chain.states, args.top, out)
    return 0


def _extractor(var: Optional[str]):
    if var is None:
        return lambda state: state
    return lambda state: state[var]


def _print_counts(values, top: int, out: TextIO) -> None:
    counts = Counter(values)
    total = sum(counts.values())
    print("top outcomes:", file=out)
    for value, count in counts.most_common(top):
        print("  %-24s %6d  (%.4f)" % (value, count, count / total),
              file=out)


def _fmt_frac(value: Fraction) -> str:
    if value == 0:
        return "0 (exact)"
    approx = float(value)
    if approx == 0.0:
        return "<1e-300"
    return "%.3e" % approx
