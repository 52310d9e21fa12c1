"""Golden per-mode datapath digests, for both cycle kernels.

``test_kernel_equivalence.py`` and the golden traces run every router in
mode 0, where ECC is off, so the protected paths of the router and the
channel (ARQ windows, ACK/NACK sideband, go-back-N rewinds, mode-2
duplicates, mode-3 relaxed transfers, the deferred ECC-off switch) are
only compared fast against naive — and both kernels share that code.
These tests pin the outcome itself: a 4x4 network forced into each mode,
plus a run that rotates modes under traffic, is reduced to a fingerprint
of its statistics, per-router epoch counters, ARQ ledgers and final RNG
state, and the fingerprint's digest must equal the recorded constant.

The error rate is high enough that every protected path fires; the
``_exercised`` checks make sure a future tweak cannot quietly turn one
of them off.  If a change moves a digest on purpose, update the constant
in the same commit and say why.

Run this file as a script to print the current digests.
"""

import hashlib
import json
import random

import pytest

from repro.core.modes import OperationMode
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology

#: scenario -> sha256 prefix of the canonical fingerprint
GOLDEN_MODES = {
    "mode0": "e248fb02220be453",
    "mode1": "6281ad297d7da9f0",
    "mode2": "22706e53d99ceb08",
    "mode3": "6c8827a0129c0fac",
    "rotating": "d43222a8da89a826",
}

SCENARIOS = tuple(GOLDEN_MODES)

_ROTATE_EVERY = 97
_EPOCH_FIELDS = (
    "flits_in",
    "flits_out",
    "nacks_in",
    "nacks_out",
    "acks_in",
    "acks_out",
    "flit_retransmissions",
    "corrected_errors",
    "escaped_errors",
    "buffer_writes",
    "buffer_reads",
    "crossbar_traversals",
    "arbitration_ops",
    "ecc_encodes",
    "ecc_decodes",
    "arq_buffer_ops",
    "duplicate_flits",
    "dropped_flits",
)


def _build(kernel, scenario):
    net = Network(
        MeshTopology(4, 4),
        rng=random.Random(101),
        routing_seed=5,
        arq_capacity=3,
        channel_latency=2,
        kernel=kernel,
    )
    for _, model in net.channel_models():
        model.event_probability = 0.04
        model.relax_factor = 0.5
    if scenario != "rotating":
        net.set_all_modes(OperationMode(int(scenario[-1])))
    return net


def _rotate(net, step):
    """Give router ``r`` mode ``(r + step) % 4``; returns deferred switches."""
    deferred = 0
    for router in net.routers:
        mode = OperationMode((router.id + step) % 4)
        router.request_mode(mode)
        if router.mode != mode:
            deferred += 1
    return deferred


def _run(kernel, scenario, cycles=1_500, rate=0.3):
    """Uniform random traffic, mixing single cycles with run() spans."""
    net = _build(kernel, scenario)
    rng = random.Random(17)
    nodes = net.topology.num_nodes
    message_id = 0
    deferred = 0
    end = net.now + cycles
    while net.now < end:
        if scenario == "rotating" and net.now % _ROTATE_EVERY == 0:
            deferred += _rotate(net, net.now // _ROTATE_EVERY)
        if rng.random() < rate:
            src, dst = rng.randrange(nodes), rng.randrange(nodes)
            if src != dst:
                net.inject(Packet(src, dst, 4, 128, net.now, message_id=message_id))
                message_id += 1
        if net.now % 7 == 0:
            net.run(3)
        else:
            net.cycle()
    deadline = net.now + 50_000
    while not net.quiescent and net.now < deadline:
        net.cycle()
    assert net.quiescent
    return net, deferred


def _fingerprint(net, deferred):
    stats = net.stats
    return {
        "now": net.now,
        "stats": stats.as_dict(),
        "latency_histogram": stats.latency.histogram,
        "routers": [
            {
                "mode": int(router.mode),
                "mode_switches": router.mode_switches,
                "expected_seq": list(router.expected_seq),
                "epoch": {name: getattr(router.epoch, name) for name in _EPOCH_FIELDS},
                "arq": [
                    [port, link.arq.total_pushed, link.arq.total_acked, link.arq.total_nacked]
                    for port, link in sorted(router.outputs.items())
                ],
            }
            for router in net.routers
        ],
        "deferred_switches": deferred,
        "rng_state": list(net.rng.getstate()[1]),
    }


def _digest(fingerprint):
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _exercised(scenario, net, deferred):
    """The protected paths this scenario exists to cover all fired."""
    total = {}
    for name in _EPOCH_FIELDS:
        values = [getattr(router.epoch, name) for router in net.routers]
        total[name] = sum(sum(v) if isinstance(v, list) else v for v in values)
    if scenario == "mode0":
        assert total["ecc_decodes"] == 0
        assert net.stats.crc_failures > 0
        return
    assert total["ecc_decodes"] > 0
    assert total["nacks_out"] > 0
    assert total["flit_retransmissions"] > 0
    assert total["corrected_errors"] > 0
    if scenario in ("mode2", "rotating"):
        assert total["duplicate_flits"] > 0
    if scenario == "rotating":
        assert deferred > 0


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kernel", ["fast", "naive"])
def test_mode_datapath_digest(kernel, scenario):
    net, deferred = _run(kernel, scenario)
    _exercised(scenario, net, deferred)
    assert _digest(_fingerprint(net, deferred)) == GOLDEN_MODES[scenario]


if __name__ == "__main__":  # pragma: no cover - records the constants
    for name in SCENARIOS:
        print(name, _digest(_fingerprint(*_run("fast", name))))
