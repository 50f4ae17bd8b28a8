"""Cross-layer conservation: the metrics collected from each layer obey
the inequalities the wire model implies.

Byte conservation down the stack (strict, not heuristic):

* ``net.bytes_sent >= net.bytes_delivered`` — drops only remove bytes.
* ``net.bytes_delivered >= sum(spread.bytes_delivered_remote)`` — every
  remote reliable message a daemon delivers arrived in some datagram
  whose wire size includes it (Install/SyncInfo wire sizes embed their
  complement messages), and retransmissions only widen the gap.
* ``sum(spread.client_bytes_delivered) >= sum(secure.unsealed_bytes)``
  — every successful unseal consumed exactly one client push whose
  DataMessage wire size (96 + payload) exceeds the sealed payload.

And the control plane: the registry's per-op exponentiation counts must
byte-match each member's :class:`~repro.crypto.counters.ExpCounter` for
join/leave scenarios under all three key-agreement modules (the paper's
Tables 2-4 axes).
"""

from __future__ import annotations

import pytest

from repro.testbed import SecureTestbed
from repro.obs.metrics import MetricsRegistry, collect_testbed, exp_counts_match

MODULES = ("cliques", "ckd", "tgdh")


@pytest.fixture(scope="module", params=MODULES)
def exercised(request):
    """A testbed that did real work under ``module``: grow to three
    members (two joins re-key), multicast from everyone, then a leave."""
    module = request.param
    bed = SecureTestbed()
    names = bed.grow_group(3, module=module)
    for name in names:
        bed.members[name].send("g", f"payload from {name}".encode())
    bed.run(2.0)
    bed.timed_leave(names)  # removes m2, re-keys m0/m1
    bed.run(1.0)
    registry = collect_testbed(MetricsRegistry(), bed)
    return module, bed, registry


def test_bytes_conserved_down_the_stack(exercised):
    module, __, registry = exercised
    sent = registry.value("net.bytes_sent")
    delivered = registry.value("net.bytes_delivered")
    remote = registry.total("spread.bytes_delivered_remote")
    assert sent >= delivered >= remote > 0, module


def test_client_bytes_cover_unsealed_bytes(exercised):
    module, __, registry = exercised
    client = registry.total("spread.client_bytes_delivered")
    unsealed = registry.total("secure.unsealed_bytes")
    assert client >= unsealed > 0, module


def test_message_counts_are_sane(exercised):
    module, bed, registry = exercised
    sealed = registry.total("secure.sealed_messages")
    unsealed = registry.total("secure.unsealed_messages")
    assert sealed >= len(bed.members) > 0, module
    # Each multicast comes back to every member (sender included), so
    # the group-wide unseal count is at least the seal count.
    assert unsealed >= sealed, module
    assert registry.total("secure.rekeys_completed") > 0
    assert registry.total("spread.views_installed") > 0
    # No corruption on a clean network: nothing rejected.
    assert registry.total("secure.rejected_messages") == 0


def test_datagram_counts_consistent(exercised):
    __, bed, registry = exercised
    sent = registry.value("net.datagrams_sent")
    delivered = registry.value("net.datagrams_delivered")
    dropped = registry.value("net.datagrams_dropped")
    duplicated = registry.value("net.datagrams_duplicated")
    assert sent > 0
    # Deliveries can exceed sends only through duplication.
    assert delivered + dropped <= sent + duplicated


def test_exp_counts_byte_match_the_crypto_counters(exercised):
    module, bed, registry = exercised
    assert bed.members, module
    for name, client in bed.members.items():
        assert client.counter.total > 0, (module, name)
        assert exp_counts_match(registry, client.counter, member=name), (
            module,
            name,
        )
