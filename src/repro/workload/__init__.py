"""Workload models: arrival and demand statistics."""

from repro.workload.arrivals import DISTRIBUTIONS, Workload, sample_time

__all__ = [
    "Workload",
    "sample_time",
    "DISTRIBUTIONS",
]
