"""The trace-MCMC posterior sampler and the multi-chain runner.

:class:`MHSampler` wraps initialization + the single-site kernel into
the same "draw samples, meter entropy" shape as the verified pipeline's
:func:`repro.sampler.record.collect`, so the two can be compared
directly on accuracy and bits-per-sample (the paper's Table 2 motivates
this: rejection sampling spends ~142 bits/sample on ``primes(1/5)``
because most attempts fail the primality observation; MCMC reuses the
accepted trace and only pays for single-site refreshes).

The trade, faithfully exposed: MH samples are *correlated* (see
:mod:`repro.mcmc.diagnostics` for effective-sample-size estimation) and
carry no equidistribution certificate -- exactly why the paper treats
MCMC compilation as future work rather than a drop-in replacement.
"""

from typing import List, Optional

from repro.bits.source import BitSource, CountingBits, SystemBits
from repro.lang.state import State
from repro.lang.syntax import Command
from repro.mcmc.kernel import ACCEPTED, initialize, mh_step
from repro.mcmc.trace import Trace


class ChainRecord:
    """Samples plus bookkeeping from one MH run.

    ``program_digest`` is the content digest of the (program, initial
    state) pair the chain targets (None when the program contains
    opaque expressions): runs from different processes can be associated
    with each other -- and with pipeline-compiled artifacts in the
    compilation cache -- by key rather than by provenance.
    """

    __slots__ = (
        "states", "outcomes", "bits_init", "bits_steps", "program_digest",
    )

    def __init__(
        self,
        states: List[State],
        outcomes: List[str],
        bits_init: int,
        bits_steps: int,
        program_digest: Optional[str] = None,
    ):
        self.states = states
        self.outcomes = outcomes
        self.bits_init = bits_init
        self.bits_steps = bits_steps
        self.program_digest = program_digest

    def __len__(self) -> int:
        return len(self.states)

    def acceptance_rate(self) -> float:
        """Fraction of kernel steps that accepted their proposal."""
        if not self.outcomes:
            return 0.0
        accepted = sum(1 for o in self.outcomes if o == ACCEPTED)
        return accepted / len(self.outcomes)

    def bits_per_sample(self) -> float:
        """Total fair bits consumed (init + all steps) per kept sample."""
        if not self.states:
            return 0.0
        return (self.bits_init + self.bits_steps) / len(self.states)

    def extract(self, var: str) -> List[object]:
        """Values of one program variable along the chain."""
        return [state[var] for state in self.states]

    def __repr__(self):
        return "ChainRecord(%d samples, acceptance=%.3f, bits/sample=%.1f)" % (
            len(self.states),
            self.acceptance_rate(),
            self.bits_per_sample(),
        )


class MHSampler:
    """Single-site Metropolis-Hastings sampler for a cpGCL posterior.

    Typical use::

        sampler = MHSampler(geometric_primes(Fraction(1, 5)), seed=0)
        chain = sampler.run(10_000, burn_in=500, thin=2)
        values = chain.extract("h")
    """

    def __init__(
        self,
        program: Command,
        sigma: Optional[State] = None,
        seed: Optional[int] = None,
        source: Optional[BitSource] = None,
        max_steps: int = 1_000_000,
        max_init_restarts: int = 100_000,
    ):
        self.program = program
        self.sigma = sigma if sigma is not None else State()
        if source is None:
            source = SystemBits(seed)
        self.source = CountingBits(source)
        self.max_steps = max_steps
        self.max_init_restarts = max_init_restarts
        self._trace: Optional[Trace] = None
        self._state: Optional[State] = None
        # Content digest identifying the posterior this chain targets
        # (None when the program contains opaque expressions).
        from repro.compiler.digest import Undigestable, fingerprint

        try:
            self.program_digest: Optional[str] = fingerprint(
                "mcmc", self.program, self.sigma
            )
        except Undigestable:
            self.program_digest = None

    def _ensure_initialized(self) -> int:
        """Forward-sample an observation-satisfying start; returns the
        number of bits the initialization consumed."""
        if self._trace is not None:
            return 0
        self.source.take_count()  # drain any stale count
        self._trace, self._state = initialize(
            self.program,
            self.sigma,
            self.source,
            max_steps=self.max_steps,
            max_restarts=self.max_init_restarts,
        )
        return self.source.take_count()

    def run(
        self,
        n: int,
        burn_in: int = 0,
        thin: int = 1,
    ) -> ChainRecord:
        """Draw ``n`` (post-burn-in, thinned) samples.

        ``burn_in`` kernel steps are discarded first; afterwards every
        ``thin``-th visited state is kept.  The returned record meters
        initialization and stepping entropy separately.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        if thin < 1:
            raise ValueError("thin must be >= 1")
        bits_init = self._ensure_initialized()
        states: List[State] = []
        outcomes: List[str] = []

        for _ in range(burn_in):
            step = mh_step(
                self.program,
                self.sigma,
                self._trace,
                self._state,
                self.source,
                self.max_steps,
            )
            self._trace, self._state = step.trace, step.state
            outcomes.append(step.outcome)

        while len(states) < n:
            for _ in range(thin):
                step = mh_step(
                    self.program,
                    self.sigma,
                    self._trace,
                    self._state,
                    self.source,
                    self.max_steps,
                )
                self._trace, self._state = step.trace, step.state
                outcomes.append(step.outcome)
            states.append(self._state)

        return ChainRecord(
            states,
            outcomes,
            bits_init,
            self.source.take_count(),
            program_digest=self.program_digest,
        )


def run_chains(
    program: Command,
    n: int,
    chains: int = 4,
    sigma: Optional[State] = None,
    seed: int = 0,
    burn_in: int = 0,
    thin: int = 1,
    **sampler_options,
) -> List[ChainRecord]:
    """Run ``chains`` independent MH chains with derived seeds.

    Independent chains are the input to the Gelman-Rubin diagnostic
    (:func:`repro.mcmc.diagnostics.gelman_rubin`); seeds are
    ``seed, seed+1, ...`` so a run is reproducible as a whole.
    """
    if chains < 1:
        raise ValueError("need at least one chain")
    return [
        MHSampler(
            program, sigma, seed=seed + index, **sampler_options
        ).run(n, burn_in=burn_in, thin=thin)
        for index in range(chains)
    ]


def rhat(records: List[ChainRecord], var: str) -> float:
    """Gelman-Rubin R-hat of one variable across chain records."""
    from repro.mcmc.diagnostics import gelman_rubin

    return gelman_rubin(
        [[float(v) for v in record.extract(var)] for record in records]
    )
