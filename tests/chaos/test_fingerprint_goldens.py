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
"""

import pytest

from repro.chaos.harness import run_chaos
from repro.spread.config import PACKING_ENV

GOLDEN = {
    "cliques": (
        "3786cf5eb8df277ce803ab6fe6be3755531450689414e3fafa4ee1bd7e763d4c",
        "8daaa85fe31c786a8b8b6479cde3186d202a01579aa253bc78a02817ce1ddb12",
        "453cf9732a0eb6adfc2b04d7e431eb26a96d1e95156895dde5d3e56d9f1937a9",
        "83da269a6c0906112b72251fed42988238fb257c8467c30003dba0902f1f74a0",
        "661f129751abe69ffbfa626554d7ea4a789d4126c28df39b86a470bde51260b8",
    ),
    "ckd": (
        "bbbb4ed5b632e2befc3999379315905c8bf6f7b5259f44a75e1c7db8f972caba",
        "f4feed140fa616d44147a3feb87b2992da590185bdb85b34285af66ab9656fae",
        "41f614c170ee602745ef97790be675e14981a116b97ee588f26b0087e933efb6",
        "60c0c92bad4861138f8c54c575ee29cb61aa8e60e46eaa31be2bc469f0ffa842",
        "6d061323ab42153728a42c9844cd67d16711ec7995c569bb411bb8bf6725c299",
    ),
    "tgdh": (
        "240a374c203cc993360dd3a566730c4bd0332b937db49b7463d5d1c09c5f6567",
        "7a5151b582075e266aaf8807a4aab8bad259d5cfb807b1b6a1936de13901dc35",
        "85d3966e3b569326e3a33ecc17c73ff0605c3cd0cc772d18d22724b092009259",
        "cfae0c85f7e41ea99295fbbd505e418cde5ddb64670b00d1872bc2403e77f40e",
        "eda60f710d69c81da041ea29cec10c0c60d1c0d150eda29d68a9d298a35e2bcf",
    ),
}


@pytest.mark.parametrize(
    "module,seed", [(m, s) for m in GOLDEN for s in range(len(GOLDEN[m]))]
)
def test_quick_chaos_fingerprint_is_pinned(module, seed, monkeypatch):
    # As shipped: the packing spot suite sets REPRO_PACKING=1, which
    # legitimately changes the wire and therefore the trace.
    monkeypatch.delenv(PACKING_ENV, raising=False)
    result = run_chaos(seed, module, quick=True)
    assert result.ok, result.violations
    assert result.fingerprint == GOLDEN[module][seed]
