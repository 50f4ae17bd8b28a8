"""Table 2 — Detailed number of exponentiations for Join.

Reproduces all four roles (Cliques/CKD x controller/new member) by
measuring the implementation's instrumented counters and comparing them
with the paper's formulas, then benchmarks a real 512-bit join.
"""

import pytest

from repro.bench.expcount import (
    table2_ckd_controller,
    table2_ckd_new_member,
    table2_cliques_controller,
    table2_cliques_new_member,
)
from repro.bench.reporting import Table
from repro.testbed import ProtocolGroup
from repro.crypto.dh import DHParams

from benchmarks.conftest import join_counts

SIZES = [3, 5, 10, 15, 30]

# Our counter labels -> the paper's row names, per role.
CLIQUES_CONTROLLER_ROWS = [
    ("update_share", "Update key share with every member"),
    ("long_term_key", "Long term key computation with new member"),
    ("session_key", "New session key computation"),
]
CLIQUES_JOINER_ROWS = [
    ("long_term_key", "Long term key computations"),
    ("encrypt_session_key", "Encryption of session key"),
    ("session_key", "New session key computation"),
]
CKD_CONTROLLER_ROWS = [
    ("long_term_key", "Long term key computation with new member"),
    ("pairwise_key", "Pairwise key computation with new member"),
    ("session_key", "New session key computation"),
    ("encrypt_session_key", "Encryption of session key"),
]
CKD_JOINER_ROWS = [
    ("long_term_key", "Long term key computation with controller"),
    ("pairwise_key", "Pairwise key computation with controller"),
    ("encrypt_pairwise", "Encryption of pairwise secret for controller"),
    ("decrypt_session_key", "Decryption of session key"),
]


def _report_role(title, rows, expected_fn, measured_counter, n):
    expected = dict(expected_fn(n))
    table = Table(
        f"Table 2 ({title}, n={n})", ["row", "paper", "measured", "match"]
    )
    total = 0
    for label, row_name in rows:
        measured = measured_counter.get(label)
        total += measured
        table.add(row_name, expected[row_name], measured,
                  "OK" if measured == expected[row_name] else "MISMATCH")
        assert measured == expected[row_name], (title, row_name, n)
    table.add("Total", expected["Total"], total,
              "OK" if total == expected["Total"] else "MISMATCH")
    assert total == expected["Total"]
    return table


def test_table2_cliques(benchmark):
    tables = []
    for n in SIZES:
        controller, joiner = join_counts("cliques", n)
        tables.append(
            _report_role("Cliques / controller", CLIQUES_CONTROLLER_ROWS,
                         table2_cliques_controller, controller, n)
        )
        tables.append(
            _report_role("Cliques / new member", CLIQUES_JOINER_ROWS,
                         table2_cliques_new_member, joiner, n)
        )
    for table in tables:
        table.show()

    def join_512():
        group = ProtocolGroup("cliques", params=DHParams.paper_512())
        group.grow_to(9)
        group.join()

    benchmark.pedantic(join_512, rounds=3, iterations=1)


def test_table2_ckd(benchmark):
    tables = []
    for n in SIZES:
        controller, joiner = join_counts("ckd", n)
        tables.append(
            _report_role("CKD / controller", CKD_CONTROLLER_ROWS,
                         table2_ckd_controller, controller, n)
        )
        tables.append(
            _report_role("CKD / new member", CKD_JOINER_ROWS,
                         table2_ckd_new_member, joiner, n)
        )
    for table in tables:
        table.show()

    def join_512():
        group = ProtocolGroup("ckd", params=DHParams.paper_512())
        group.grow_to(9)
        group.join()

    benchmark.pedantic(join_512, rounds=3, iterations=1)
