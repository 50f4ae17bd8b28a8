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

Re-pinned once more, on purpose, when the secure session began to
unseal in runs (the commit after ``4f487c1``): ``cliques`` 2, 3, ``ckd``
1, 4 and ``tgdh`` 0 moved, the other ten did not.  Sealed messages that
reach a member in one instant are now delivered by one drain event at
the end of that instant (``kernel.call_later(0.0, ...)``), so their
``secure.data`` / ``secure.reject`` records can follow other records of
the same instant that they used to precede.  Only the order moves: every
run's stats — ``secure.data``, ``secure.reject`` by reason, every
``net.*`` and ``daemon.*`` count — equal the parent's, and every run
stays ``result.ok``.

Re-pinned once more, on purpose, when a daemon membership round began to
propose one ``gather_timeout`` after its participant set last changed
instead of two (the commit after ``b279ea3``): all fifteen moved.  The
gather deadline used to compare the participants against a snapshot
that every gather round started empty, so the first deadline only took
the snapshot and the second proposed.  Every quick run's first view now
installs 40 virtual ms sooner (``elapsed`` 4.4397 → 4.3997 s on
``cliques`` 0), so the seeded fault schedule and traffic meet the stack
at different points and every later trace record moves; every run stays
``result.ok``.
"""

import pytest

from repro.chaos.harness import run_chaos

GOLDEN = {
    "cliques": (
        "70f69d313c5bb801455745b09d1d8182f48d69e4700cf9acbfeca5aaf0d6c5f7",
        "67bcb307e843f6568ab9025ce0c035ac36f28b549bd2c5f6e8dcc1ba1b94ace5",
        "e97d38ed182d8e8e53c7a5b1b26ba95c95c712ed16a86d9d018002d71eab07ee",
        "1409eb7c976581bedeef5d38043538c815d05279819ad1deb0c98b6bccdfbefd",
        "66d248f7e1d5dc76e5a19cd39ccfff4ebd66ee202add6adc2dbf242dd0a397b9",
    ),
    "ckd": (
        "d61de8c4a7d34f416ed3ed42fee83bddf254dcabae899108ab4351145dd001c3",
        "f574cb43d4ade7212cbf61fb9cc53772bd71d7365858e5c6e573e38187759086",
        "ba4d2c011ef35f8109d547027f6ec7868dd1a68f52c655b022ccd82b88005dd4",
        "544ded2f4f3825778a94ee16cc14d2c98d9773e578b8a266141c9b1a7d3bc689",
        "803c12ce58844a091e23c4e3d175c194fff9bc46503d2159fb8aebb8fc1c4642",
    ),
    "tgdh": (
        "bd8b6186d0fdc36637a34154a53c4efe634daf4776db1e06ab4b5dc794c8ef08",
        "419f8ce80da2c00c9d6f3a30d4d7f5ec94fe72177722e81fdda04a397544c04d",
        "af9d2a472c220f03058963ba24c442175352ac49edfbce6a8b3c58a4229f230b",
        "42f13725db832bfb1a3a38ac767d225863b9d0f75dc49e62387262f3c53bf31b",
        "47c65e82b41b14932571e86c5dd6c923f36c9d8889c5fbec172d41b3659587a3",
    ),
}


@pytest.mark.parametrize(
    "module,seed", [(m, s) for m in GOLDEN for s in range(len(GOLDEN[m]))]
)
def test_quick_chaos_fingerprint_is_pinned(module, seed):
    result = run_chaos(seed, module, quick=True)
    assert result.ok, result.violations
    assert result.fingerprint == GOLDEN[module][seed]
