"""E10 — Section II: the Omega mapping example.

Processors 0, 1, 2 request; resources at ports 0, 1, 2 are free; the
8x8 Omega network is idle.  The paper lists four processor-resource
mappings that allocate all three resources and two that block after two —
which is why the scheduler (centralized or distributed) must be designed
to find a *good* mapping, not just any mapping.
"""

from repro.experiments import sec2_mapping_example
from repro.networks import OmegaTopology, max_conflict_free


def test_sec2_mapping_example(once):
    data = once(sec2_mapping_example)
    print()
    print(f"  good mappings conflict-free: {data['good_mappings_conflict_free']}")
    print(f"  bad mappings allocate:       {data['bad_mappings_allocated']} of 3")
    print(f"  optimal scheduler allocates: {data['optimal_allocatable']} of 3")
    assert data["good_mappings_conflict_free"] == [True, True, True, True]
    assert data["bad_mappings_allocated"] == [2, 2]
    assert data["optimal_allocatable"] == 3


def test_sec2_exhaustive_search_cost(once):
    """The centralized optimal search is factorial: C(x, y) y! mappings.

    Timing the exhaustive scheduler on 5 requests/resources demonstrates
    the cost the distributed algorithm avoids."""
    topology = OmegaTopology(8)
    best, _mapping = once(max_conflict_free, topology,
                          [0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
    assert best >= 4  # an idle 8x8 Omega nearly always fits 4-5 circuits
