"""Retry policy for blocked and severed requests.

When a fault severs an in-flight transmission (bus or switch failure) the
task returns to its processor, which retries after an exponentially growing
backoff with multiplicative jitter — the classical storm-avoidance shape.
The budget is bounded: once ``max_retries`` re-attempts have failed the
policy raises :class:`~repro.errors.RetryExhaustedError` and the system
records the task as abandoned.  A finite ``task_timeout`` additionally
abandons tasks that have aged past the bound while still queued (the
per-processor timeout), so queues cannot grow without limit through a long
outage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    The delay before re-attempt ``n`` (1-based) is::

        backoff_base * backoff_factor ** (n - 1) * (1 + U)

    with ``U`` uniform on ``[-jitter, +jitter]`` drawn from the caller's
    random stream (deterministic under :class:`repro.sim.rng.RandomStreams`).
    """

    max_retries: int = 5
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    jitter: float = 0.5
    task_timeout: float = math.inf

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}")
        if self.backoff_base <= 0:
            raise ConfigurationError(
                f"backoff_base must be positive, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}")
        if not self.task_timeout > 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {self.task_timeout}")

    def next_delay(self, attempt: int, rng: RngStream) -> float:
        """Backoff before re-attempt ``attempt`` (1-based).

        Raises :class:`RetryExhaustedError` once the budget is spent.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        if attempt > self.max_retries:
            raise RetryExhaustedError(attempts=attempt,
                                      max_retries=self.max_retries)
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter > 0:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return delay

    def expired(self, age: float) -> bool:
        """Whether a task of queueing ``age`` has passed the timeout."""
        return age > self.task_timeout

