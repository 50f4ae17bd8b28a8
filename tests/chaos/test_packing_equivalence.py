"""Chaos-fingerprint equivalence: packing must not change delivery order.

The acceptance property for sender-side coalescing: on a deterministic
link, a chaos-crucible run (partition, stall, crash/recover) with
packing on produces byte-identical per-daemon delivery-order
fingerprints to the same run with packing off — for every key-agreement
module.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import pytest

from repro.chaos.harness import GROUP, ChaosHarness
from repro.chaos.invariants import delivery_fingerprint
from repro.errors import ReproError
from repro.net.fault import FaultSchedule
from repro.net.link import LinkModel
from repro.sim.trace import TraceEvent

#: The jitter-free substrate: fixed latency, infinite bandwidth, zero
#: adversarial rates.  Virtual timing is then identical whether N
#: messages travel as N datagrams or one envelope, which is what makes
#: the packing A/B exact.
DETERMINISTIC_LINK = LinkModel(base_latency=0.0002)


def _fixed_schedule(start: float, spare: str = "d3") -> FaultSchedule:
    """A fixed, fully structural fault schedule: no adversarial link, no
    randomness — identical in the packed and unpacked runs by
    construction.  Partition, stall and spare-daemon crash, each healed
    inside the window."""
    schedule = FaultSchedule()
    schedule.partition(start + 0.2, [["d0"], ["d1", "d2", spare]])
    schedule.heal(start + 0.7)
    schedule.stall(start + 1.0, "d1")
    schedule.resume(start + 1.3, "d1")
    schedule.crash(start + 1.5, spare)
    schedule.recover(start + 1.9, spare)
    return schedule


def _run_ab_side(
    seed: int, module: str, packing: bool, span: float
) -> Tuple[str, Optional[str], Dict[str, int]]:
    """One crucible run on the deterministic link; returns the
    delivery-order fingerprint, a failure description (None if the run
    converged) and the packing attribution."""
    harness = ChaosHarness(
        seed,
        module,
        link=DETERMINISTIC_LINK,
        config_overrides={"packing": packing},
    )
    harness.establish_group()
    start = harness.kernel.now + 0.2
    end = start + span
    harness.injector.arm(_fixed_schedule(start))

    counter = {"n": 0, "on": True}

    def tick() -> None:
        if not counter["on"] or harness.kernel.now > end:
            return
        members = sorted(harness.members)
        sender = members[counter["n"] % len(members)]
        counter["n"] += 1
        burst = [
            f"app:{sender}:{counter['n']}:{i}".encode() for i in range(4)
        ]
        try:
            harness.members[sender].send_many(GROUP, burst)
        except ReproError:
            pass  # no key mid-rekey: the burst is simply skipped
        harness.kernel.call_later(0.05, tick, label="dataplane.traffic")

    harness.kernel.call_later(0.05, tick, label="dataplane.traffic")
    harness.run(end - harness.kernel.now + 0.05)
    counter["on"] = False
    failure = harness.wait_quiescence(timeout=60.0)
    # Let every straggler delivery (retransmits, trailing flushes) land:
    # the fingerprint must cover each run's complete delivery record.
    harness.run(1.0)
    daemons = harness.daemons.values()
    attribution = {
        "packed_datagrams": sum(d.packed_datagrams for d in daemons),
        "packed_messages": sum(d.packed_messages for d in daemons),
    }
    return delivery_fingerprint(harness.tracer.events), failure, attribution


@pytest.mark.parametrize("module", ["cliques", "ckd", "tgdh"])
def test_packed_crucible_fingerprint_matches_unpacked(module):
    off_fp, off_fail, _ = _run_ab_side(
        seed=0, module=module, packing=False, span=1.2
    )
    on_fp, on_fail, attribution = _run_ab_side(
        seed=0, module=module, packing=True, span=1.2
    )
    assert off_fail is None, off_fail
    assert on_fail is None, on_fail
    assert on_fp == off_fp
    # The equal fingerprints came from a run that actually packed.
    assert attribution["packed_datagrams"] > 0
    assert attribution["packed_messages"] > attribution["packed_datagrams"]


def test_deterministic_link_draws_no_randomness():
    """The A/B comparison is only sound if the link model consumes no
    RNG per datagram (loss/jitter/duplication draws would desynchronise
    the two runs the moment datagram counts differ)."""
    link = DETERMINISTIC_LINK
    assert link.jitter == 0.0
    assert link.bandwidth is None
    for rate in (link.loss_rate, link.duplicate_rate, link.corrupt_rate,
                 link.reorder_rate, link.spike_rate):
        assert rate == 0.0


def test_delivery_fingerprint_ignores_cross_daemon_interleaving():
    """The fingerprint hashes each daemon's deliver stream separately,
    so a global-trace shuffle that keeps per-daemon order is invisible —
    exactly the insensitivity the packed pipeline needs."""

    def event(me, seq):
        return TraceEvent(
            kind="daemon.deliver",
            fields={"me": me, "view": "v", "sender": "d0",
                    "seq": seq, "msg_kind": "app"},
        )

    interleaved = [event("d0", 1), event("d1", 1), event("d0", 2),
                   event("d1", 2)]
    grouped = [event("d0", 1), event("d0", 2), event("d1", 1),
               event("d1", 2)]
    reordered = [event("d0", 2), event("d0", 1), event("d1", 1),
                 event("d1", 2)]
    assert delivery_fingerprint(interleaved) == delivery_fingerprint(grouped)
    assert delivery_fingerprint(interleaved) != delivery_fingerprint(reordered)
