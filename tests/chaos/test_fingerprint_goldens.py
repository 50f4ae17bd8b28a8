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

Re-pinned once more, on purpose, for three causes at once (the commit
after ``27cf1fa``): all fifteen moved.
- A daemon sends its prompt hello from the end-of-instant pack flush,
  once per instant, instead of after every ingest that moved a peer's
  frontier.  Alone, this moved ``cliques`` 2, 4, ``ckd`` 0 and ``tgdh``
  3.  A quick run's links jitter every datagram's delay, so two data
  datagrams rarely reach one daemon in one virtual instant; in the other
  eleven runs every daemon sent the same datagrams in the same order.
- A gap that only a hello revealed ages from the hello's arrival, not
  from time 0, so a hello that overtakes its ``Packed`` datagram no
  longer draws a NACK and a redundant retransmission at the next gap
  check.  This moved all fifteen.  Over the fifteen runs the daemons
  retransmit 158 times at ``27cf1fa``, 177 with the first cause alone,
  113 with the first two and 140 with all three.
- A daemon that stalled through a view in which its peers dropped it
  still lists their group members when all merge again.  It now reports
  such a member as having left and joined (a member of the merge, as the
  peers report ours), and a secure member that sees one restart the
  agreement.  Before, that member took the merge for a refresh, its
  peers took it for a merge, and both waited out the 5 s agreement
  watchdog.  At ``27cf1fa`` that stall hit ``tgdh`` 3 (the run ended at
  6.91 s); with the first two causes alone it hit ``ckd`` 2 (7.78 s).
  Now no quick run waits for the watchdog.
  Over the first two causes, this one moved the eleven runs that hold
  such a merge; ``cliques`` 1, 3, ``ckd`` 3, 4 and ``tgdh`` 4 hold none.
Every run stays ``result.ok`` and ends between 4.3596 and 4.3610 s.
"""

import pytest

from repro.chaos.harness import run_chaos

GOLDEN = {
    "cliques": (
        "d863a7747b77a5c60552c4dda1c151ffce1ed1dc5dec6b278c28be48cd073524",
        "d7b4096e1b55dae9dccb10592e60f3deb04b2ff847547ef054074354483eca38",
        "332cb958ee7a288b4a63745a5085ae916ddf962d0e035b119075c6b7dfa1965a",
        "1bc5a63607ce6150eab8c4ac9cf2da2228369945da9e8889eebfbeb3210d5dbb",
        "ecacfb38789cf6e2deb4cb3fdb9c8691871d4929f1cd9303a1a198ceac64310b",
    ),
    "ckd": (
        "d2356107c7c5f7c9a06fcb9b6b4cc577b4e7ca172e0a7587630e1111c73e50b1",
        "42fa777bc37476c9b052b41bc4fbd14bf9228482208143151d5b359cf0fdd123",
        "177570c8dd21a9abc3e0680387530b0b1b96cdde6c4f710154189ff0322ae90b",
        "5566fbf14e50c72d2ec8349e7a9b067b1e2bdf5891e33bc5c861584618e7e5c9",
        "6a464ac32812a28764f8dde9a2eb99c4960e45fc83bcfb272426353e8c24d3fe",
    ),
    "tgdh": (
        "c7fcce999a6d3c7e248268f547b732e1a79961d8af60693214b06ee63dab8179",
        "c1cbfff0ef36f8f97b2e77e7f49def00f6339d477712572cd12fffc19d977fc8",
        "e08caf385617255541342edf94f64927461f6c96365d4e25b20f4db003f4c46c",
        "ff03ec8a270c53f55d6cdbced51a1e173019d0a9633f4dec16cc728a5e21bce4",
        "361b08df363f8e9d587988aad4fed1a7b3f3b27bd5a3fb9575d518d7dff1eae9",
    ),
}


@pytest.mark.parametrize(
    "module,seed", [(m, s) for m in GOLDEN for s in range(len(GOLDEN[m]))]
)
def test_quick_chaos_fingerprint_is_pinned(module, seed):
    result = run_chaos(seed, module, quick=True)
    assert result.ok, result.violations
    assert result.fingerprint == GOLDEN[module][seed]
