"""Metric containers: time series and running statistics.

Used by the server-side stats collector, the simulator's result
recorder, and the experiment harness to regenerate the paper's tables
and figures.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Tuple


class TimeSeries:
    """An append-only sequence of (time, value) samples.

    Appends must be in non-decreasing time order, matching how both the
    real server (sampled once per second) and the simulator (event
    times) produce them.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._times)

    def append(self, t: float, value: float) -> None:
        with self._lock:
            if self._times and t < self._times[-1]:
                raise ValueError(
                    f"time series {self.name!r}: sample at t={t} is earlier "
                    f"than last sample at t={self._times[-1]}"
                )
            self._times.append(float(t))
            self._values.append(float(value))

    @property
    def times(self) -> List[float]:
        with self._lock:
            return list(self._times)

    @property
    def values(self) -> List[float]:
        with self._lock:
            return list(self._values)

    def samples(self) -> List[Tuple[float, float]]:
        with self._lock:
            return list(zip(self._times, self._values))

    def max(self) -> float:
        with self._lock:
            if not self._values:
                raise ValueError(f"time series {self.name!r} is empty")
            return max(self._values)

    def mean(self) -> float:
        with self._lock:
            if not self._values:
                raise ValueError(f"time series {self.name!r} is empty")
            return sum(self._values) / len(self._values)

    def bucketize(self, bucket_width: float, start: float = 0.0,
                  end: Optional[float] = None) -> "TimeSeries":
        """Sum event values into fixed-width buckets.

        Suitable for turning per-completion events (value 1 per sample)
        into an interactions-per-bucket throughput curve, as in the
        paper's Figures 9 and 10.
        """
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        samples = self.samples()
        if end is None:
            # Default end includes the final sample (a half-open window
            # ending exactly at the last event would silently drop it).
            end = samples[-1][0] + 1e-9 if samples else start
        n_buckets = max(1, int(math.ceil((end - start) / bucket_width)))
        sums = [0.0] * n_buckets
        for t, v in samples:
            if t < start or t >= end:
                continue
            idx = int((t - start) / bucket_width)
            if idx >= n_buckets:
                idx = n_buckets - 1
            sums[idx] += v
        out = TimeSeries(name=f"{self.name}/bucketized")
        for i, total in enumerate(sums):
            out.append(start + i * bucket_width, total)
        return out


class WelfordAccumulator:
    """Numerically stable running mean (Welford's update) and maximum."""

    def __init__(self, name: str = ""):
        self.name = name
        self._n = 0
        self._mean = 0.0
        self._max = -math.inf
        self._lock = threading.Lock()

    def add(self, x: float) -> None:
        with self._lock:
            self._n += 1
            self._mean += (x - self._mean) / self._n
            if x > self._max:
                self._max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def count(self) -> int:
        with self._lock:
            return self._n

    @property
    def mean(self) -> float:
        with self._lock:
            if self._n == 0:
                raise ValueError(f"accumulator {self.name!r} is empty")
            return self._mean


class SummaryAccumulator(WelfordAccumulator):
    """Welford statistics plus exact-ish percentiles.

    Retains raw samples for nearest-rank percentiles.  Memory stays
    bounded: past ``max_samples`` the retained set is decimated (every
    other sample dropped) and the retention stride doubles, so a
    long-running server keeps an evenly spaced subsample while
    ``count``/``mean``/``max`` remain exact.  Decimation is
    deterministic — no RNG — so runs stay bit-reproducible.
    """

    def __init__(self, name: str = "", max_samples: int = 65536):
        super().__init__(name)
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self._max_samples = max_samples
        self._samples: List[float] = []
        self._stride = 1
        self._since_kept = 0

    def add(self, x: float) -> None:
        super().add(x)
        # A second lock round-trip: WelfordAccumulator.add releases the
        # lock before we retain the sample.  A reader between the two
        # sees a count one ahead of the sample list — harmless.
        with self._lock:
            self._since_kept += 1
            if self._since_kept >= self._stride:
                self._since_kept = 0
                self._samples.append(float(x))
                if len(self._samples) > self._max_samples:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    def summary(self) -> Dict[str, float]:
        """count/mean/p50/p95/p99/max as one JSON-friendly dict."""
        with self._lock:
            if not self._samples:
                return {"count": 0}
            ordered = sorted(self._samples)
            count = self._n
            mean = self._mean
            maximum = self._max

        def rank(p: float) -> float:
            return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]

        return {
            "count": count,
            "mean": mean,
            "p50": rank(50),
            "p95": rank(95),
            "p99": rank(99),
            "max": maximum,
        }
