"""Recorded-throughput engine tuning: ``engine="auto"`` as a policy.

The static heuristic ("numpy if installed, else pure Python") is right
most of the time, but "most of the time" is exactly what a measured
policy can beat: small closed tables amortize no vectorization setup,
huge open frontiers favor the frontier driver, and future ``native``/
``serve`` backends will shift the trade-offs again.  ``EngineTuner`` is
a lightweight epsilon-greedy bandit over candidate
:class:`~repro.engine.profile.EngineProfile` arms, keyed by the coarse
feature buckets of :func:`~repro.engine.profile.feature_bucket`, with
recorded samples-per-second as the reward.

Because every candidate backend draws the same i.i.d. fair-bit samples
(selection is semantics-free; see ``docs/architecture.md``), exploring
a slow arm can only cost wall-clock time, never correctness.  The
cold-start prior is :func:`~repro.engine.profile.static_profile` -- the
old heuristic verbatim -- so a tuner with no data behaves exactly like
the pre-tuner code.

State persists as JSON next to the content-addressed artifact store:
``ZAR_TUNER_STATE`` names the file explicitly, else
``<ZAR_COMPILE_CACHE_DIR>/tuner.json`` when a disk cache is configured,
else state is in-memory only.  The tuner only engages on
``collect_auto(engine="auto")`` when a state path is configured (or a
tuner instance is passed explicitly): the default path stays
deterministic and bit-for-bit stable for the differential tests.
"""

import json
import os
import random
import tempfile
from typing import Dict, List, Optional

from repro.engine.profile import (
    EngineProfile,
    PROFILES,
    ProgramFeatures,
    feature_bucket,
    static_profile,
)

__all__ = [
    "EngineTuner",
    "TUNER_ENV",
    "default_state_path",
    "get_tuner",
    "reset_tuner",
    "tuning_enabled",
]

TUNER_ENV = "ZAR_TUNER_STATE"

#: Bump when the persisted state layout changes incompatibly.
STATE_VERSION = 1


def default_state_path() -> Optional[str]:
    """Resolve the persistence path from the environment.

    Priority: ``ZAR_TUNER_STATE``, then ``tuner.json`` beside the
    content-addressed artifact store (``ZAR_COMPILE_CACHE_DIR``), else
    ``None`` (in-memory only).
    """
    explicit = os.environ.get(TUNER_ENV)
    if explicit:
        return explicit
    cache_dir = os.environ.get("ZAR_COMPILE_CACHE_DIR")
    if cache_dir:
        return os.path.join(cache_dir, "tuner.json")
    return None


class EngineTuner:
    """Epsilon-greedy over candidate profiles, bucketed by features.

    Arm statistics are (run count, total samples/s) per profile name per
    feature bucket; the exploit choice maximizes mean samples/s.  The
    RNG is seeded, so a tuner's exploration schedule is reproducible.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        epsilon: float = 0.1,
        seed: int = 0,
        candidates: Optional[List[str]] = None,
    ):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1], got %r" % (epsilon,))
        self.path = path
        self.epsilon = epsilon
        self._rng = random.Random(seed)
        self._candidates = list(candidates) if candidates is not None else None
        # bucket -> profile name -> [count, total_samples_per_sec]
        self.state: Dict[str, Dict[str, List[float]]] = {}
        self.loads = 0
        self.saves = 0
        if self.path:
            self.load()

    # -- candidate arms --------------------------------------------------

    def candidates(self) -> List[str]:
        """Arm names: the batch profiles runnable in this process.

        The trampoline is deliberately not an arm -- it exists for
        semantics (reference driver, lowering fallback), and measuring
        it against the batch engine would waste exploration budget on a
        known-slow path.  Registered profiles named ``native-*`` or
        ``batch-*`` join automatically (minus ``numpy`` when absent).
        """
        if self._candidates is not None:
            return list(self._candidates)
        from repro.engine.pool import HAVE_NUMPY

        names = []
        for name, profile in sorted(PROFILES.items()):
            if profile.engine == "trampoline":
                continue
            if profile.backend == "numpy" and not HAVE_NUMPY:
                continue
            if profile.backend == "native":
                from repro.engine.native import native_available

                # No compiler (or disabled): the arm would silently
                # measure the Python fallback -- skip it instead.
                if not native_available():
                    continue
            if profile.backend == "auto":
                continue  # resolves to one of the concrete arms anyway
            names.append(name)
        return names

    # -- the policy ------------------------------------------------------

    def choose(self, features: ProgramFeatures,
               explore: bool = True) -> EngineProfile:
        """The profile to run for ``features``.

        Cold start (no recorded runs for the bucket) returns the static
        heuristic -- the tuner never degrades an unmeasured workload.
        With data: epsilon-greedy (``explore=False`` forces pure
        exploitation; the CI gate evaluates that mode).
        """
        bucket = feature_bucket(features)
        arms = self.state.get(bucket)
        if not arms:
            return static_profile(features)
        candidates = self.candidates()
        if not candidates:
            return static_profile(features)
        if explore and self._rng.random() < self.epsilon:
            return PROFILES[self._rng.choice(candidates)]
        best_name = None
        best_mean = -1.0
        for name in candidates:
            stats = arms.get(name)
            if not stats or stats[0] <= 0:
                # Untried arm: optimistic initialization -- try it once
                # before settling, so a better backend is never starved.
                return PROFILES[name]
            mean = stats[1] / stats[0]
            if mean > best_mean:
                best_mean = mean
                best_name = name
        if best_name is None:
            return static_profile(features)
        return PROFILES[best_name]

    def record(self, features: ProgramFeatures, profile: EngineProfile,
               samples_per_sec: float) -> None:
        """Fold one observed throughput into the arm statistics."""
        if samples_per_sec <= 0:
            return
        bucket = feature_bucket(features)
        arms = self.state.setdefault(bucket, {})
        stats = arms.setdefault(profile.name, [0, 0.0])
        stats[0] += 1
        stats[1] += samples_per_sec
        if self.path:
            self.save()

    def mean_throughput(self, features: ProgramFeatures,
                        name: str) -> Optional[float]:
        stats = self.state.get(feature_bucket(features), {}).get(name)
        if not stats or stats[0] <= 0:
            return None
        return stats[1] / stats[0]

    # -- persistence -----------------------------------------------------

    def load(self) -> bool:
        """Read persisted state; a missing/corrupt file is a cold start."""
        if not self.path or not os.path.exists(self.path):
            return False
        try:
            with open(self.path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return False
        if (
            not isinstance(payload, dict)
            or payload.get("version") != STATE_VERSION
            or not isinstance(payload.get("buckets"), dict)
        ):
            return False
        state: Dict[str, Dict[str, List[float]]] = {}
        for bucket, arms in payload["buckets"].items():
            if not isinstance(arms, dict):
                continue
            clean = {}
            for name, stats in arms.items():
                if (
                    isinstance(stats, list)
                    and len(stats) == 2
                    and isinstance(stats[0], int)
                    and stats[0] >= 0
                ):
                    clean[name] = [stats[0], float(stats[1])]
            state[bucket] = clean
        self.state = state
        self.loads += 1
        return True

    def save(self) -> bool:
        """Atomically persist state (write-to-temp + rename)."""
        if not self.path:
            return False
        payload = {"version": STATE_VERSION, "buckets": self.state}
        try:
            directory = os.path.dirname(self.path) or "."
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return False
        self.saves += 1
        return True


_GLOBAL: Optional[EngineTuner] = None


def tuning_enabled() -> bool:
    """True when ``engine="auto"`` should consult the tuner."""
    return default_state_path() is not None


def get_tuner() -> EngineTuner:
    """The process-wide tuner (state path resolved from the env)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = EngineTuner(path=default_state_path())
    return _GLOBAL


def reset_tuner() -> None:
    """Drop the process-wide tuner (tests re-resolve the env)."""
    global _GLOBAL
    _GLOBAL = None
