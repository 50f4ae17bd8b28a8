"""Sim chaos fingerprints are byte-identical across refactors.

ROADMAP gates several open items (steady-state GC, ``hashlib`` HMAC, the
one-crucible merge, daemon observability) on "sim chaos fingerprints
byte-identical before/after".  These are the before: quick-mode
``run_chaos`` trace fingerprints captured at commit ``c709d56``, the
same under ``PYTHONHASHSEED`` 0, 7 and random.  A change that moves one
changed what the simulated stack does — an ordering, a timer, a wire
field, a trace event — and must say so and re-capture them on purpose.
"""

import pytest

from repro.chaos.harness import run_chaos
from repro.spread.config import PACKING_ENV

GOLDEN = {
    "cliques": (
        "23879ecd5fc844f2292fc95ff8e51f0d8445dace3e3c2947e02881d76fd8637e",
        "9346b4ee6a6157e8cd4656e81bae6e3ff6827da6df33b16dfcdac7805113ba1a",
        "453cf9732a0eb6adfc2b04d7e431eb26a96d1e95156895dde5d3e56d9f1937a9",
        "83da269a6c0906112b72251fed42988238fb257c8467c30003dba0902f1f74a0",
        "dcbbd9d1a6e1098ad4ac87d5fa646e20a57275012305aceef2f8fec91ece977f",
    ),
    "ckd": (
        "539c827f49f0cbd9ef6cb41d8f8a511875607c7d127f8fbd36c160ffc470d994",
        "cb5377f182d5d3bc197073f468f4877e807da9c4f3343f83b19061b784b129d5",
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
