"""Extension of Section II: circuit versus packet switching, measured.

The paper argues for circuit switching in RSINs on two grounds and then
moves on; this benchmark turns the argument into numbers by running the
same workload through the circuit-switched RSIN and through a buffered
packet-switched (address-mapped) version of the same Omega network:

1. *no pipelining benefit*: a resource cannot start until the whole task
   has arrived, so splitting into packets only adds store-and-forward
   latency — packet response time never beats circuit response time;
2. *early binding*: a packet needs a destination, so the resource must be
   reserved when the task leaves the processor and is held through the
   entire transit; under load this eats resource capacity and the packet
   system saturates while the circuit system still has headroom.
"""

from repro.analysis import workload_at
from repro.core import simulate, simulate_packet_switched

CONFIG = "16/1x16x16 OMEGA/2"
HORIZON = 12_000.0


def compare(rho, ratio, packets=4, seed=3):
    workload = workload_at(rho, ratio)
    circuit = simulate(CONFIG, workload, horizon=HORIZON,
                       warmup=HORIZON * 0.1, seed=seed)
    packet = simulate_packet_switched(CONFIG, workload, horizon=HORIZON,
                                      warmup=HORIZON * 0.1,
                                      packets_per_task=packets, seed=seed)
    return circuit, packet


def test_switching_comparison_table(once):
    def build():
        rows = []
        for rho, ratio in ((0.3, 0.1), (0.5, 0.1), (0.3, 1.0), (0.5, 1.0)):
            circuit, packet = compare(rho, ratio)
            rows.append((rho, ratio, circuit.mean_response_time,
                         packet.mean_response_time))
        return rows

    rows = once(build)
    print()
    print("  rho  ratio | circuit resp | packet resp")
    for rho, ratio, circuit_resp, packet_resp in rows:
        print(f"  {rho:3.1f}  {ratio:5.1f} | {circuit_resp:12.3f} | "
              f"{packet_resp:11.3f}")
    for _rho, _ratio, circuit_resp, packet_resp in rows:
        assert packet_resp >= 0.95 * circuit_resp


def test_finer_packets_approach_but_never_beat_circuit(once):
    """Store-and-forward transit is ((k + stages) / k) transmission times,
    so finer packets pipeline the transfer toward the cut-through limit —
    which is exactly what the circuit already achieves (one end-to-end
    stream).  Packetization can only approach the circuit from above."""
    def build():
        results = {}
        circuit = None
        for packets in (1, 4, 16):
            circuit, packet = compare(0.3, 1.0, packets=packets)
            results[packets] = packet.mean_response_time
        return circuit.mean_response_time, results

    circuit_response, responses = once(build)
    print(f"\n  circuit: {circuit_response:.3f}  "
          f"packet-count responses: { {k: round(v, 3) for k, v in responses.items()} }")
    assert responses[1] > responses[4] > responses[16]
    assert responses[16] >= 0.95 * circuit_response


def test_early_binding_saturates_packet_mode(once):
    circuit, packet = once(compare, 0.9, 1.0)
    print(f"\n  rho=0.9: circuit d = {circuit.mean_queueing_delay:.2f}, "
          f"packet d = {packet.mean_queueing_delay:.2f}")
    assert circuit.mean_queueing_delay < 5.0
    assert packet.mean_queueing_delay > 10 * circuit.mean_queueing_delay
