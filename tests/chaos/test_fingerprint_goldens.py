"""Sim chaos fingerprints are byte-identical across refactors.

ROADMAP gates several open items (steady-state GC, ``hashlib`` HMAC, the
one-crucible merge, daemon observability) on "sim chaos fingerprints
byte-identical before/after".  These are the before: quick-mode
``run_chaos`` trace fingerprints captured at commit ``c709d56``, the
same under ``PYTHONHASHSEED`` 0, 7 and random.  A change that moves one
changed what the simulated stack does — an ordering, a timer, a wire
field, a trace event — and must say so and re-capture them on purpose.

Re-pinned once, on purpose, by PR 24 (steady-state garbage collection of
stable messages, the commit after ``c433515``): ``cliques`` 0, 1, 4 and
``ckd`` 0, 1 moved, the other ten did not.  The reason is the same in
all five: a *stale* NACK — sent before, but arriving after, its
requester ingested the message; every sequence so named was already
under the requester's ``contiguous`` — used to be answered with a
redundant retransmission from the untrimmed ``sent_buffer`` and is now
counted in ``stale_nacks`` instead (2, 1, 1, 1 and 1 sequences in the
five runs, 0 in the ten that stayed).  One datagram fewer shifts the
seeded network's later draws; no delivery is withheld and every run
stays ``result.ok``.

Re-pinned once more, on purpose, when packing became the only daemon
path (the commit after ``b0e59dc``): all fifteen moved.  Packing is now
the wire — reliable data messages bound for one peer in one instant
travel as one ``Packed`` datagram, so the seeded network draws once per
envelope instead of once per message — and the periodic hello now sends
the pack buffers before itself, so no hello advertises a sequence that
is still buffered.  Every sim trace changes; every run stays
``result.ok``.
"""

import pytest

from repro.chaos.harness import run_chaos

GOLDEN = {
    "cliques": (
        "7e6ee290dc75cf747fd0ac5548e85b1a688350d0dfff5a8d0fd4e8a67247c639",
        "a29ba0a5edac9845d7ef15818bb663111a7537ce328611a68887f4a083219726",
        "c63f68fc58354ceaa911e33fe5da9768a745c5181b11a229c894ee1d55cd9be2",
        "2359ec446546bb59ac4554f964912f3f7f122ab20bbef38473ca79cf88a297f8",
        "dc9870ce02782b78a9d531c12733171093092730d8b65f06e6987781e5dad18b",
    ),
    "ckd": (
        "28c6d4f4ceb52a1ee4916dcbe39d96e273d871938c300baedb4c9a5794dea423",
        "57e61fa1631c79dd8ea75983e17531bb9c96d7a2fbe186ee7a7e3085d65e84f2",
        "323e17cea8c6eeca1b45d0bf39043c13ba5e4fd24c63140317e3c138fba53892",
        "076755d83cafbd7754a30b5e8452ab9e89a7189f883165d971013e2fabf82e83",
        "5ee76f9a0bacac77c8300aff05a654cfd6f79f257f3a5310b2770ca1eb435e5a",
    ),
    "tgdh": (
        "7e9ca5621e09f772cbb3d935aacb3cdb3b201440028bc54e14875e236834ee41",
        "7362da122d6d1fa1809836b972f9ab2df8edceb2f4fe7e825d016e9f8efd5559",
        "8901a9a74a4124f6f570ce4197e7bde91a7951a4e06a237017c30ae3844b9ca0",
        "3a58324332733ce0efdf93d108f2071c1184be1c4c0f3a4f2acc20addfe51bc8",
        "5c0a3d5f57261dce3d68ecd97b529cc7e7d754635cbc03e2f1f17d52c861a1ae",
    ),
}


@pytest.mark.parametrize(
    "module,seed", [(m, s) for m in GOLDEN for s in range(len(GOLDEN[m]))]
)
def test_quick_chaos_fingerprint_is_pinned(module, seed):
    result = run_chaos(seed, module, quick=True)
    assert result.ok, result.violations
    assert result.fingerprint == GOLDEN[module][seed]
