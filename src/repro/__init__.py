"""repro — resource-sharing interconnection networks (RSIN).

A faithful, from-scratch reproduction of Benjamin W. Wah, *A Comparative
Study of Distributed Resource Sharing on Multiprocessors* (1983): the
distributed scheduling of a pool of identical resources by the
interconnection network itself, across three network classes — single
shared buses, crossbars with scheduling cells, and multistage (Omega /
indirect binary n-cube) networks.

Quick start::

    from repro import SystemConfig, Workload, simulate, solve_sbus

    # Exact Markov-chain delay of a shared bus (Section III).
    solution = solve_sbus(arrival_rate=0.5, transmission_rate=1.0,
                          service_rate=0.2, resources=4)
    print(solution.mean_delay, solution.normalized_delay)

    # Event simulation of a 16-by-32 crossbar RSIN (Section IV).
    result = simulate(SystemConfig.parse("16/1x16x32 XBAR/1"),
                      Workload(arrival_rate=0.05, transmission_rate=1.0,
                               service_rate=0.1),
                      horizon=50_000.0, warmup=5_000.0)
    print(result.normalized_delay)

Sub-packages: :mod:`repro.sim` (event kernel), :mod:`repro.queueing`,
:mod:`repro.markov`, :mod:`repro.networks`, :mod:`repro.core`,
:mod:`repro.analysis`, :mod:`repro.workload`, :mod:`repro.experiments`.
"""

from repro.analysis import (
    CostModel,
    CostRegime,
    DegradedMetrics,
    NetworkClass,
    blocking_comparison,
    crossover_intensity,
    degraded_metrics,
    degraded_system_metrics,
    qualitative_recommendation,
    recommend,
    saturation_intensity,
    sbus_delay,
    workload_at,
)
from repro.config import SystemConfig, parse_config
from repro.core import (
    PacketSwitchedSystem,
    RsinSystem,
    SimulationResult,
    simulate,
    simulate_packet_switched,
)
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    FaultInjectionError,
    ReproError,
    RetryExhaustedError,
    SchedulingError,
    SimulationError,
    UnstableSystemError,
)
from repro.faults import (
    BusFault,
    CellFault,
    FaultConfig,
    FaultInjector,
    FaultSchedule,
    InterchangeFault,
    ResourceFault,
    RetryPolicy,
)
from repro.experiments import figure_series, run_experiment
from repro.markov import SbusChain, SbusSolution, solve_sbus
from repro.networks import (
    BaselineTopology,
    ClockedMultistageScheduler,
    CrossbarFabric,
    CubeTopology,
    DistributedCrossbar,
    MultistageFabric,
    OmegaTopology,
    SingleBusFabric,
)
from repro.workload import Workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SystemConfig",
    "parse_config",
    # errors
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "SchedulingError",
    "AnalysisError",
    "UnstableSystemError",
    "FaultInjectionError",
    "RetryExhaustedError",
    # analysis
    "solve_sbus",
    "SbusChain",
    "SbusSolution",
    "sbus_delay",
    "saturation_intensity",
    "workload_at",
    "crossover_intensity",
    "blocking_comparison",
    "CostModel",
    "CostRegime",
    "NetworkClass",
    "recommend",
    "qualitative_recommendation",
    "DegradedMetrics",
    "degraded_metrics",
    "degraded_system_metrics",
    # faults
    "FaultConfig",
    "FaultSchedule",
    "ResourceFault",
    "BusFault",
    "CellFault",
    "InterchangeFault",
    "RetryPolicy",
    "FaultInjector",
    # system simulation
    "RsinSystem",
    "simulate",
    "PacketSwitchedSystem",
    "simulate_packet_switched",
    "SimulationResult",
    "Workload",
    # networks
    "SingleBusFabric",
    "CrossbarFabric",
    "DistributedCrossbar",
    "MultistageFabric",
    "ClockedMultistageScheduler",
    "OmegaTopology",
    "CubeTopology",
    "BaselineTopology",
    # experiments
    "figure_series",
    "run_experiment",
]
