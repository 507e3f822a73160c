"""Configuration grammar for RSIN systems.

The paper denotes a system by the triplet ``p / i x j x k NET / r``:

* ``p``   — number of processors,
* ``i``   — number of independent RSINs (partitions),
* ``j``   — input ports per RSIN,
* ``k``   — output ports per RSIN,
* ``NET`` — network type (``SBUS``, ``XBAR``, ``OMEGA``, ``CUBE``,
  ``BASELINE``),
* ``r``   — resources attached to each output port (``inf`` allowed for the
  infinitely-many-private-resources limit of Fig. 4).

Examples from the paper::

    16/16x1x1 SBUS/2      # 16 private buses, 2 resources each
    16/1x16x32 XBAR/1     # one 16-by-32 crossbar, private output ports
    16/1x16x16 CUBE/2     # one 16-by-16 indirect binary n-cube
    16/8x2x2 OMEGA/2      # eight 2-by-2 Omega networks

For bus networks the paper writes ``j = k = 1`` even when several processors
share the bus (a bus has a single logical input port); the number of
processors per bus is ``p / i``.  For port-per-processor networks
(crossbar, Omega, cube) we require ``j == p / i``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.models import FaultConfig

#: Network type tokens accepted by the grammar.
NETWORK_TYPES = ("SBUS", "XBAR", "OMEGA", "CUBE", "BASELINE")

_TRIPLET_RE = re.compile(
    r"""^\s*
        (?P<p>\d+)\s*/\s*
        (?P<i>\d+)\s*[x×]\s*
        (?P<j>\d+)\s*[x×]\s*
        (?P<k>\d+)\s*
        (?P<net>[A-Za-z]+)\s*/\s*
        (?P<r>\d+|inf|oo|∞)
        \s*$""",
    re.VERBOSE,
)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SystemConfig:
    """A validated RSIN system configuration.

    Attributes mirror the paper's triplet; ``resources_per_port`` may be
    ``math.inf`` to model the private-bus limit with unbounded resources.

    ``faults`` optionally attaches a :class:`repro.faults.FaultConfig`
    (fault models, retry policy, explicit schedule); the triplet grammar
    never sets it — use :meth:`with_faults`.  It is excluded from the
    triplet rendering of :meth:`__str__`.
    """

    processors: int
    num_networks: int
    inputs_per_network: int
    outputs_per_network: int
    network_type: str
    resources_per_port: Union[int, float]
    faults: Optional["FaultConfig"] = field(default=None)

    def __post_init__(self) -> None:
        p, i, j, k = (self.processors, self.num_networks,
                      self.inputs_per_network, self.outputs_per_network)
        r = self.resources_per_port
        if self.network_type not in NETWORK_TYPES:
            raise ConfigurationError(
                f"unknown network type {self.network_type!r}; "
                f"expected one of {NETWORK_TYPES}"
            )
        for name, value in (("processors", p), ("num_networks", i),
                            ("inputs_per_network", j), ("outputs_per_network", k)):
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
        if r != math.inf and (not isinstance(r, int) or r < 1):
            raise ConfigurationError(
                f"resources_per_port must be a positive integer or inf, got {r!r}"
            )
        if p % i != 0:
            raise ConfigurationError(
                f"processors ({p}) must divide evenly among {i} networks"
            )
        if self.network_type == "SBUS":
            if j != 1 or k != 1:
                raise ConfigurationError(
                    "a shared bus has a single input and output port; "
                    f"got {j}x{k} (the paper writes buses as i x 1 x 1)"
                )
        else:
            if j != p // i:
                raise ConfigurationError(
                    f"{self.network_type} networks need one input port per "
                    f"processor: expected j = {p // i}, got {j}"
                )
        if self.network_type in ("OMEGA", "CUBE", "BASELINE"):
            if j != k:
                raise ConfigurationError(
                    f"{self.network_type} networks are square (j == k); got {j}x{k}"
                )
            if not _is_power_of_two(j):
                raise ConfigurationError(
                    f"{self.network_type} size must be a power of two, got {j}"
                )
        if r == math.inf and self.network_type != "SBUS":
            raise ConfigurationError(
                "infinite resources per port are only modelled for SBUS systems"
            )
        if self.faults is not None:
            from repro.faults.models import FaultConfig
            if not isinstance(self.faults, FaultConfig):
                raise ConfigurationError(
                    f"faults must be a FaultConfig, got {self.faults!r}")
            if (r == math.inf
                    and self.faults.model_for("resource") is not None):
                raise ConfigurationError(
                    "resource faults need a finite resource count per port")

    # -- derived quantities ------------------------------------------------
    @property
    def processors_per_network(self) -> int:
        """Processors connected to each independent RSIN."""
        return self.processors // self.num_networks

    @property
    def total_ports(self) -> int:
        """Output ports summed over all networks."""
        return self.num_networks * self.outputs_per_network

    @property
    def total_resources(self) -> Union[int, float]:
        """Resources summed over all output ports (may be inf)."""
        return self.total_ports * self.resources_per_port

    @property
    def is_private_bus(self) -> bool:
        """True when every processor owns its bus (the i == p SBUS case)."""
        return self.network_type == "SBUS" and self.num_networks == self.processors

    # -- fault configuration ------------------------------------------------
    def with_faults(self, faults: Optional["FaultConfig"]) -> "SystemConfig":
        """A copy of this configuration with ``faults`` attached (or cleared)."""
        return replace(self, faults=faults)

    # -- formatting ----------------------------------------------------------
    def __str__(self) -> str:
        r = "inf" if self.resources_per_port == math.inf else str(self.resources_per_port)
        return (f"{self.processors}/{self.num_networks}x{self.inputs_per_network}"
                f"x{self.outputs_per_network} {self.network_type}/{r}")

    @classmethod
    def parse(cls, text: str) -> "SystemConfig":
        """Parse a configuration triplet like ``'16/8x2x2 OMEGA/2'``."""
        match = _TRIPLET_RE.match(text)
        if match is None:
            raise ConfigurationError(
                f"cannot parse configuration {text!r}; expected "
                "'p/ixjxk NET/r' such as '16/1x16x32 XBAR/1'"
            )
        r_text = match.group("r")
        resources: Union[int, float]
        if r_text in ("inf", "oo", "∞"):
            resources = math.inf
        else:
            resources = int(r_text)
        return cls(
            processors=int(match.group("p")),
            num_networks=int(match.group("i")),
            inputs_per_network=int(match.group("j")),
            outputs_per_network=int(match.group("k")),
            network_type=match.group("net").upper(),
            resources_per_port=resources,
        )


def parse_config(text: str) -> SystemConfig:
    """Module-level alias for :meth:`SystemConfig.parse`."""
    return SystemConfig.parse(text)


def check_window(horizon: float, warmup: float) -> None:
    """Reject a run window unless ``0 <= warmup < horizon < inf``.

    The one check every simulation engine applies before it runs; NaN and
    infinite bounds fail it too.
    """
    if not 0 <= warmup < horizon < math.inf:
        raise ConfigurationError(
            f"need 0 <= warmup < horizon < inf, got warmup={warmup} "
            f"horizon={horizon}")
