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

Re-pinned once more, on purpose, when a round that has heard every
configured daemon began to propose at once (the commit after
``7815fc2``): all fifteen moved.  The quick runs boot all their daemons
together, so the first round is complete and installs one more
``gather_timeout`` (40 virtual ms) sooner (``elapsed`` 4.3997 → 4.3596 s
on ``cliques`` 0), and every later trace record moves with it.  A
regather after a crash or a partition still waits out the deadline while
a configured daemon is missing, but the one after a heal or a recovery
that brings every daemon back is complete too: fewer sends meet a
rekey (``traffic_blocked`` falls in seven runs, ``ckd`` 2 from 15 to 3)
and ``ckd`` 2 ends at 4.36 s instead of 7.39 s.  Every run stays
``result.ok``.
"""

import pytest

from repro.chaos.harness import run_chaos

GOLDEN = {
    "cliques": (
        "f6b536461cf622c0874478d518071f0aa8ee11352f568133b214092d992fcc98",
        "0a39669d301551fde8569f9d60ae17ec1cb604e49e1a8794e6bfe84988882907",
        "4d433b8debfc546b58e6f09882d5679bc875e6aa7ba7e42660ef0a34fc7294d0",
        "285ed3cc8635c751e3c9f8490f0d322df7dd702f343249208f1272cacbb2b8f0",
        "651b019657f5f12015476235c9f41807f0b7aa8148fd8ebacee7ddb5207b7d22",
    ),
    "ckd": (
        "470d6407333c2eb885605cb2a2ca5d60378bee7db8cbe4f7e670043d68e4463e",
        "8b2cc705001917664aa4209cc66e333cd0775ae790140b7c77a5175c4a525018",
        "1c757f8d9f976e54128d9190af91e794c1283e66e1bcedb70da3b88a137ba1ba",
        "1386d80b87fa0a9a1598cc320d8903dd961d570ca00218c3c7aca71d5b20998c",
        "b27e64d04415016bed42279df7c45ac388abc2a4ec7bb8247bb5ed332689d398",
    ),
    "tgdh": (
        "96084c107628b3129252ddff03ab434306c0207197f0e17f9a6f241997f75493",
        "2a0cccd76704692444dbc1a52c04821719c9483e6da728f4cfe147a96c322969",
        "99c5910719e2f93b9436581a295c5ae1d27dfa223e9c4b5ada8d198e960ae3d8",
        "dea84eacba3c8deff3ba8a793b2d3b8e41ce7721e22b93d61d29ec5567371aa6",
        "6ee8733170c0786ab2a1025d08ee9882426314356ef6b81793c699f1ecfb38b8",
    ),
}


@pytest.mark.parametrize(
    "module,seed", [(m, s) for m in GOLDEN for s in range(len(GOLDEN[m]))]
)
def test_quick_chaos_fingerprint_is_pinned(module, seed):
    result = run_chaos(seed, module, quick=True)
    assert result.ok, result.violations
    assert result.fingerprint == GOLDEN[module][seed]
