"""Zar reproduction: formally specified samplers from probabilistic programs.

A from-scratch Python reproduction of *Formally Verified Samplers from
Probabilistic Programs with Loops and Conditioning* (PLDI 2023): the cpGCL
language and its conditional weakest pre-expectation semantics, the
choice-fix tree intermediate representation, debiasing to the random bit
model, interaction-tree samplers, and the empirical-validation harness.

Quickstart::

    from fractions import Fraction
    from repro import (
        State, cpgcl_to_itree, collect, cwp, geometric_primes, parse_program,
    )

    prog = geometric_primes(Fraction(2, 3))       # Figure 1a
    sampler = cpgcl_to_itree(prog, State())        # Definition 3.13
    samples = collect(sampler, 10000, seed=0, extract=lambda s: s["h"])
    exact = cwp(prog, lambda s: 1 if s["h"] == 2 else 0, State())

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

# Each public name -> the module that defines it.  Nothing is imported
# until a name is read, so ``python -m repro`` loads only what its
# subcommand runs (see "Start-up" in docs/architecture.md).
_EXPORTS = {
    "Assign": "repro.lang.syntax",
    "Choice": "repro.lang.syntax",
    "Command": "repro.lang.syntax",
    "Ite": "repro.lang.syntax",
    "Observe": "repro.lang.syntax",
    "Seq": "repro.lang.syntax",
    "Skip": "repro.lang.syntax",
    "Uniform": "repro.lang.syntax",
    "While": "repro.lang.syntax",
    "seq": "repro.lang.syntax",
    "Expr": "repro.lang.expr",
    "Lit": "repro.lang.expr",
    "Var": "repro.lang.expr",
    "State": "repro.lang.state",
    "bernoulli_exponential": "repro.lang.sugar",
    "bernoulli_exponential_0_1": "repro.lang.sugar",
    "dueling_coins": "repro.lang.sugar",
    "flip": "repro.lang.sugar",
    "gaussian": "repro.lang.sugar",
    "geometric_primes": "repro.lang.sugar",
    "hare_tortoise": "repro.lang.sugar",
    "laplace": "repro.lang.sugar",
    "n_sided_die": "repro.lang.sugar",
    "parse_expr": "repro.lang.parser",
    "parse_program": "repro.lang.parser",
    "pretty": "repro.lang.pretty",
    "check_program": "repro.lang.typecheck",
    "ExtReal": "repro.semantics.extreal",
    "LoopOptions": "repro.semantics.fixpoint",
    "wlp": "repro.semantics.wp",
    "wp": "repro.semantics.wp",
    "cwp": "repro.semantics.cwp",
    "bernoulli_tree": "repro.cftree.uniform",
    "uniform_tree": "repro.cftree.uniform",
    "compile_cpgcl": "repro.cftree.compile",
    "debias": "repro.cftree.debias",
    "elim_choices": "repro.cftree.elim",
    "expected_bits": "repro.cftree.analysis",
    "tcwp": "repro.cftree.semantics",
    "twlp": "repro.cftree.semantics",
    "twp": "repro.cftree.semantics",
    "BatchSampler": "repro.engine.api",
    "cpgcl_to_itree": "repro.itree.unfold",
    "tie_itree": "repro.itree.unfold",
    "to_itree_open": "repro.itree.unfold",
    "itwp": "repro.itree.semantics",
    "itwp_tied": "repro.itree.semantics",
    "collect": "repro.sampler.record",
    "run_itree": "repro.sampler.run",
    "preimage": "repro.sampler.preimage",
    "run_row": "repro.sampler.harness",
    "ZarUniform": "repro.uniform.api",
    "CountingBits": "repro.bits.source",
    "ReplayBits": "repro.bits.source",
    "SystemBits": "repro.bits.source",
    "Interval": "repro.inference.interval",
    "Posterior": "repro.inference.posterior",
    "infer_posterior": "repro.inference.posterior",
    "infer_query": "repro.inference.posterior",
    "refine_until": "repro.inference.posterior",
    "MHSampler": "repro.mcmc.sampler",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
