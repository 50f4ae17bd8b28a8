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
from repro.bench.report import join_roles
from repro.testbed import measure
from repro.crypto.dh import DHParams

from benchmarks.conftest import row_table

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


def test_table2_cliques(benchmark):
    tables = []
    for n in SIZES:
        controller, joiner = join_roles("cliques", n)
        tables.append(
            row_table(2, "Cliques / controller", CLIQUES_CONTROLLER_ROWS,
                      table2_cliques_controller, controller, n)
        )
        tables.append(
            row_table(2, "Cliques / new member", CLIQUES_JOINER_ROWS,
                      table2_cliques_new_member, joiner, n)
        )
    for table in tables:
        table.show()

    benchmark.pedantic(
        lambda: measure("cliques", "join", 10, params=DHParams.paper_512()),
        rounds=3, iterations=1,
    )


def test_table2_ckd(benchmark):
    tables = []
    for n in SIZES:
        controller, joiner = join_roles("ckd", n)
        tables.append(
            row_table(2, "CKD / controller", CKD_CONTROLLER_ROWS,
                      table2_ckd_controller, controller, n)
        )
        tables.append(
            row_table(2, "CKD / new member", CKD_JOINER_ROWS,
                      table2_ckd_new_member, joiner, n)
        )
    for table in tables:
        table.show()

    benchmark.pedantic(
        lambda: measure("ckd", "join", 10, params=DHParams.paper_512()),
        rounds=3, iterations=1,
    )
