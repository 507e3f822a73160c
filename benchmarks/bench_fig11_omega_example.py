"""E5 — Fig. 11: the worked 8x8 Omega scheduling example.

P0, P3, P4 and P5 request one resource each; single resources are free on
output ports 0, 1, 4, 5; the network is otherwise idle.  The paper traces
the distributed algorithm: three requests route directly, one is rejected
at a stage-1 box, unwinds, re-routes through the alternative subtree, and
lands on R5 — 14 interchange-box traversals in total, an average of 3.5
per request.  The clocked scheduler reproduces every one of those numbers.
"""

from repro.experiments import fig11_example
from repro.networks import ClockedMultistageScheduler, OmegaTopology


def test_fig11_full_trace(once):
    result = once(fig11_example)
    print()
    for outcome in sorted(result.outcomes.values(), key=lambda o: o.source):
        print(f"  P{outcome.source} -> port {outcome.port} "
              f"in {outcome.hops} boxes")
    print(f"  average: {result.average_hops} boxes (paper: 3.5)")
    assert len(result.allocated) == 4
    assert result.total_hops == 14
    assert result.average_hops == 3.5
    assert sorted(o.port for o in result.allocated) == [0, 1, 4, 5]
    assert sorted(o.hops for o in result.outcomes.values()) == [3, 3, 3, 5]


def test_fig11_rerouted_request_lands_on_r5(once):
    """The rejected request 'finds another route ... to R5' (paper text)."""
    result = once(fig11_example)
    rerouted = [o for o in result.allocated if o.hops == 5]
    assert len(rerouted) == 1
    assert rerouted[0].port == 5


def test_fig11_status_settles_within_network_depth(once):
    """Status and requests cross the three stages in a handful of ticks."""
    scheduler = ClockedMultistageScheduler(
        OmegaTopology(8), {0: 1, 1: 1, 4: 1, 5: 1})
    result = once(scheduler.run, [0, 3, 4, 5])
    assert result.ticks <= 12
