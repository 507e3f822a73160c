"""Network substrates: buses, crossbars, and multistage dynamic networks."""

from repro.networks.address_mapping import (
    RoutingOutcome,
    max_conflict_free,
    permutation_passable,
    random_mapping_outcome,
    sequential_tag_routing,
)
from repro.networks.base import Connection, NetworkFabric, SingleBusFabric
from repro.networks.batched_crossbar import match_pairs_batch
from repro.networks.cells import (
    MODE_REQUEST,
    MODE_RESET,
    REQUEST_GATE_DELAY,
    RESET_GATE_DELAY,
    CycleResult,
    DistributedCrossbar,
    cell_logic,
    priority_match,
)
from repro.networks.crossbar import ARBITRATION_POLICIES, CrossbarFabric
from repro.networks.interchange import (
    LOWER,
    UPPER,
    BoxMessage,
    InterchangeBox,
    QueryToken,
)
from repro.networks.omega import (
    ClockedMultistageScheduler,
    MultistageFabric,
    RequestOutcome,
    ScheduleResult,
)
from repro.networks.shuffle import (
    bit_of,
    inverse_shuffle,
    log2_exact,
    perfect_shuffle,
    with_bit,
)
from repro.networks.topology import (
    BaselineTopology,
    CubeTopology,
    MultistageTopology,
    OmegaTopology,
    make_topology,
)

__all__ = [
    "NetworkFabric",
    "Connection",
    "SingleBusFabric",
    "CrossbarFabric",
    "ARBITRATION_POLICIES",
    "DistributedCrossbar",
    "CycleResult",
    "cell_logic",
    "match_pairs_batch",
    "priority_match",
    "MODE_REQUEST",
    "MODE_RESET",
    "REQUEST_GATE_DELAY",
    "RESET_GATE_DELAY",
    "MultistageTopology",
    "OmegaTopology",
    "CubeTopology",
    "BaselineTopology",
    "make_topology",
    "MultistageFabric",
    "ClockedMultistageScheduler",
    "RequestOutcome",
    "ScheduleResult",
    "InterchangeBox",
    "QueryToken",
    "BoxMessage",
    "UPPER",
    "LOWER",
    "RoutingOutcome",
    "sequential_tag_routing",
    "max_conflict_free",
    "random_mapping_outcome",
    "permutation_passable",
    "perfect_shuffle",
    "inverse_shuffle",
    "log2_exact",
    "bit_of",
    "with_bit",
]
