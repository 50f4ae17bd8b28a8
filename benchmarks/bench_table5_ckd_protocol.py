"""Table 5 — the CKD protocol: round structure and per-round timing.

Table 5 specifies CKD's three rounds; this bench runs each round with
the paper's 512-bit parameters and reports real per-round timing on the
build host, verifying the round structure along the way.
"""

import time

import pytest

from repro.bench.reporting import Table
from repro.testbed import ProtocolGroup
from repro.crypto.dh import DHParams


def timed_rounds(n: int):
    """Per-round wall time of a CKD join at pre-join size n-1."""
    group = ProtocolGroup("ckd", params=DHParams.paper_512())
    group.grow_to(n - 1)
    controller = group.modules[group.key_controller].ctx
    joiner = group.modules[group._add_member()].ctx

    start = time.perf_counter()
    hello = controller.start_join(joiner.name)
    round1 = time.perf_counter() - start
    assert hello.public_r > 1  # Round 1: alpha^r1 (selected once)

    start = time.perf_counter()
    response = joiner.process_hello(hello)
    round2 = time.perf_counter() - start
    assert response.blinded_public > 1  # Round 2: alpha^(r*K)

    start = time.perf_counter()
    keydist = controller.process_response(response)
    round3 = time.perf_counter() - start
    assert keydist is not None
    assert len(keydist.entries) == n - 1  # Ks^(R_i) for every member

    start = time.perf_counter()
    joiner.process_keydist(keydist)
    decrypt = time.perf_counter() - start
    assert joiner.secret() == controller.secret()
    return round1, round2, round3, decrypt


def test_table5_round_structure_and_timing(benchmark):
    table = Table(
        "Table 5 — CKD rounds, 512-bit, real time on this machine (ms)",
        ["n", "round 1 (hello)", "round 2 (blind)", "round 3 (distribute)",
         "member decrypt"],
    )
    for n in (3, 5, 10, 15):
        r1, r2, r3, dec = timed_rounds(n)
        table.add(n, r1 * 1000, r2 * 1000, r3 * 1000, dec * 1000)
    table.show()

    # Structure assertions: round 1 performs no exponentiation (r1 is a
    # tenure constant), round 3 dominates and grows with n.
    r1_small, __, r3_small, __ = timed_rounds(3)
    __, __, r3_large, __ = timed_rounds(15)
    assert r3_large > r3_small
    assert r1_small < r3_small

    benchmark.pedantic(lambda: timed_rounds(10), rounds=3, iterations=1)
