"""Statistics collectors for discrete-event simulations.

Two families of estimators are provided:

* :class:`TallyStat` — observation-weighted (e.g. per-task queueing delay);
* :class:`TimeWeightedStat` — time-weighted (e.g. queue length, utilization).

Both support a warm-up reset so transient start-up bias can be discarded, and
:class:`BatchMeans` computes confidence intervals from a single long run by
the method of non-overlapping batch means.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple


def _t_quantile(probability: float, df: int) -> float:
    """Student-t quantile, equal to ``scipy.stats.t.ppf(probability, df)``
    bit for bit without the cost of importing ``scipy.stats``."""
    from scipy.special import stdtrit

    quantile: float = stdtrit(df, probability)
    return quantile


class TallyStat:
    """Running mean/variance of discrete observations (Welford's method)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        """Add one observation."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN for fewer than two observations)."""
        return self._m2 / (self.count - 1) if self.count > 1 else math.nan

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        variance = self.variance
        return math.sqrt(variance) if variance == variance else math.nan

    def reset(self) -> None:
        """Discard everything recorded so far (warm-up truncation)."""
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf


class TimeWeightedStat:
    """Time-average of a piecewise-constant signal (queue length etc.).

    Call :meth:`update` with the *new* value whenever the signal changes;
    the previous value is weighted by the time elapsed since the last change.
    """

    def __init__(self, initial_value: float = 0.0, initial_time: float = 0.0,
                 name: str = ""):
        self.name = name
        self._value = initial_value
        self._last_time = initial_time
        self._area = 0.0
        self._start_time = initial_time
        self.maximum = initial_value

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    def update(self, new_value: float, now: float) -> None:
        """Record that the signal becomes ``new_value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time} in {self.name!r}"
            )
        self._area += self._value * (now - self._last_time)
        self._value = new_value
        self._last_time = now
        self.maximum = max(self.maximum, new_value)

    def add(self, delta: float, now: float) -> None:
        """Increment the signal by ``delta`` at time ``now``."""
        self.update(self._value + delta, now)

    def time_average(self, now: float) -> float:
        """Time-average over [start, now] (NaN for a zero-length window)."""
        elapsed = now - self._start_time
        if elapsed <= 0:
            return math.nan
        area = self._area + self._value * (now - self._last_time)
        return area / elapsed

    def reset(self, now: float) -> None:
        """Restart accumulation at ``now`` keeping the current value."""
        self._area = 0.0
        self._last_time = now
        self._start_time = now
        self.maximum = self._value


class BatchMeans:
    """Confidence intervals from one long run via non-overlapping batches.

    Observations are appended one at a time; :meth:`interval` splits them
    into ``num_batches`` equal batches (dropping a remainder at the front)
    and applies the Student-t interval to the batch means.
    """

    def __init__(self, num_batches: int = 20):
        if num_batches < 2:
            raise ValueError("need at least 2 batches")
        self.num_batches = num_batches
        self._values: List[float] = []

    def record(self, value: float) -> None:
        """Append one observation."""
        self._values.append(value)

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return len(self._values)

    @property
    def mean(self) -> float:
        """Grand sample mean."""
        return sum(self._values) / len(self._values) if self._values else math.nan

    def batch_means(self) -> List[float]:
        """The means of the non-overlapping batches (front remainder dropped)."""
        n = len(self._values)
        size = n // self.num_batches
        if size == 0:
            return []
        start = n - size * self.num_batches
        return [
            sum(self._values[start + i * size: start + (i + 1) * size]) / size
            for i in range(self.num_batches)
        ]

    def interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """(half-width, mean) Student-t confidence interval on the mean."""
        means = self.batch_means()
        if len(means) < 2:
            return math.nan, self.mean
        k = len(means)
        grand = sum(means) / k
        variance = sum((m - grand) ** 2 for m in means) / (k - 1)
        t_value = _t_quantile(0.5 + confidence / 2.0, k - 1)
        half_width = t_value * math.sqrt(variance / k)
        return half_width, grand


def confidence_interval(values, confidence: float = 0.95) -> Tuple[float, float]:
    """(mean, half-width) Student-t interval for independent replications."""
    values = list(values)
    n = len(values)
    if n == 0:
        return math.nan, math.nan
    mean = sum(values) / n
    if n == 1:
        return mean, math.inf
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    t_value = _t_quantile(0.5 + confidence / 2.0, n - 1)
    return mean, t_value * math.sqrt(variance / n)
