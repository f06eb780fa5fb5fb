"""Convergence diagnostics for MCMC chains.

Rejection samplers need none of this -- every sample is independent and
Theorem 4.2 certifies the limit.  MCMC output is autocorrelated and can
pseudo-converge (the failure mode the paper's introduction cites from
Geyer 2011), so the standard diagnostics are part of an honest
comparison:

- :func:`effective_sample_size` -- Geyer's initial-positive-sequence
  estimator: ``n`` correlated draws carry the information of ``ESS <= n``
  independent ones;
- :func:`gelman_rubin` -- the potential-scale-reduction statistic
  ``R-hat`` across independent chains (values near 1 indicate mixing);
- :func:`autocorrelation` -- the raw ACF these are computed from.

numpy accelerates the ACF dot products when present but is optional
(like everywhere else in the engine): the pure-Python path computes the
same sums, so the mcmc entry points work on the numpy-free CI matrix
row.  It is imported by :func:`autocorrelation`, the one function that
uses it, so importing this module never loads it.
"""

import math
from typing import List, Sequence


def _dot(xs, ys) -> float:
    return sum(x * y for x, y in zip(xs, ys))


def autocorrelation(values: Sequence[float], max_lag: int) -> List[float]:
    """Sample autocorrelation function up to ``max_lag`` (lag 0 = 1)."""
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values")
    if max_lag >= n:
        raise ValueError("max_lag must be below the series length")
    try:
        import numpy as np
    except ImportError:  # pure-Python fallback below
        np = None
    if np is not None:
        data = np.asarray(values, dtype=float)
        centered = data - data.mean()
        variance = float(np.dot(centered, centered)) / n
        if variance == 0:
            # Constant chain: perfectly correlated at every lag.
            return [1.0] * (max_lag + 1)
        return [
            float(np.dot(centered[: n - lag], centered[lag:])) / n / variance
            for lag in range(max_lag + 1)
        ]
    data = [float(v) for v in values]
    mean = sum(data) / n
    centered = [v - mean for v in data]
    variance = _dot(centered, centered) / n
    if variance == 0:
        return [1.0] * (max_lag + 1)
    return [
        _dot(centered[: n - lag], centered[lag:]) / n / variance
        for lag in range(max_lag + 1)
    ]


def effective_sample_size(values: Sequence[float]) -> float:
    """Geyer (1992) initial-positive-sequence ESS estimate.

    Sums autocorrelations over pairs ``rho(2k) + rho(2k+1)`` while the
    pair sums stay positive (guaranteed nonnegative for reversible
    chains), then ``ESS = n / (1 + 2 * sum)``.  Clamped to ``[1, n]``.
    """
    n = len(values)
    if n < 4:
        return float(n)
    max_lag = min(n - 2, 1000)
    acf = autocorrelation(values, max_lag)
    rho_sum = 0.0
    lag = 1
    while lag + 1 <= max_lag:
        pair = acf[lag] + acf[lag + 1]
        if pair <= 0:
            break
        rho_sum += pair
        lag += 2
    ess = n / (1.0 + 2.0 * rho_sum)
    return max(1.0, min(float(n), ess))


def gelman_rubin(chains: Sequence[Sequence[float]]) -> float:
    """Potential scale reduction factor ``R-hat`` across chains.

    Requires at least two chains of equal length >= 2.  Values close to
    1.0 indicate the chains have mixed into the same distribution.
    """
    if len(chains) < 2:
        raise ValueError("need at least two chains")
    series = [[float(v) for v in chain] for chain in chains]
    length = len(series[0])
    if length < 2:
        raise ValueError("chains must have length >= 2")
    if any(len(chain) != length for chain in series):
        raise ValueError("chains must have equal length")
    m = len(series)
    means = [sum(chain) / length for chain in series]
    variances = [
        sum((v - mean) ** 2 for v in chain) / (length - 1)
        for chain, mean in zip(series, means)
    ]
    w = sum(variances) / m  # within-chain variance
    grand = sum(means) / m
    b = length * sum((mu - grand) ** 2 for mu in means) / (m - 1)
    if w == 0:
        return 1.0 if b == 0 else math.inf
    var_plus = (length - 1) / length * w + b / length
    return math.sqrt(var_plus / w)
