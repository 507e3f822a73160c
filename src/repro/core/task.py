"""Task life-cycle records for the RSIN system simulator.

A task is generated at a processor, waits in the processor's FIFO queue
until a network connection to a port with a free resource is established,
occupies the bus while it is transmitted, then is served by the resource
(the connection having been dropped at end of transmission).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Task:
    """One unit of work flowing through the system."""

    task_id: int
    processor: int
    created: float
    transmission_started: Optional[float] = None
    transmission_finished: Optional[float] = None
    service_finished: Optional[float] = None
    port: Optional[int] = None          # global output-port index served on
    network_hops: int = 0               # switching elements traversed
    attempts: int = 0                   # transmissions severed by faults so far
    abandoned: bool = False             # dropped by the retry/timeout policy

    @property
    def queueing_delay(self) -> Optional[float]:
        """Time between arrival and the start of transmission (the paper's d)."""
        if self.transmission_started is None:
            return None
        return self.transmission_started - self.created

    @property
    def response_time(self) -> Optional[float]:
        """Arrival to end of service."""
        if self.service_finished is None:
            return None
        return self.service_finished - self.created

    @property
    def transmission_time(self) -> Optional[float]:
        """Time spent holding the bus."""
        if self.transmission_finished is None or self.transmission_started is None:
            return None
        return self.transmission_finished - self.transmission_started
