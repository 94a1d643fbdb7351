"""Shared utilities: clock abstraction, seeded RNG streams, time series.

These are deliberately tiny, dependency-free building blocks used across
the real threaded server, the discrete-event simulator, and the
experiment harness.
"""

from repro.util.clock import Clock, ManualClock, MonotonicClock
from repro.util.rng import RandomStream, spawn_streams
from repro.util.timeseries import TimeSeries, WelfordAccumulator

__all__ = [
    "Clock",
    "ManualClock",
    "MonotonicClock",
    "RandomStream",
    "spawn_streams",
    "TimeSeries",
    "WelfordAccumulator",
]
