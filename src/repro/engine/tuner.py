"""Retired: ``engine="auto"`` is one static rule, not a tuned policy.

The epsilon-greedy engine tuner that lived here is gone; the whole
``auto`` policy is :func:`repro.engine.profile.static_profile` over
:func:`repro.engine.profile.features_of` (``native`` for closed tables,
else ``batch-numpy``, else ``batch-python``).

This module stays, empty, only because the benchmark harness lists
``repro.engine.tuner`` in ``perfbench/tracing.py``'s ``PRELOAD``.  The
next change to the benchmark should drop it from ``PRELOAD`` and
delete this file.
"""
