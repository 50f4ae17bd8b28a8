"""The paper-regeneration library itself: platform models, count
formulas, reporting, the protocol driver, the report tool."""

import re
from pathlib import Path

import pytest

from repro.bench.expcount import (
    table2,
    table2_cliques_controller,
    table2_cliques_new_member,
    table3,
    table3_cliques,
    table4,
)
from repro.bench.platform_model import (
    PENTIUM_II_450,
    SUN_ULTRA2,
    PlatformModel,
    calibrate_local_machine,
)
from repro.bench.reporting import Table
from repro.errors import ModuleNotFoundError_
from repro.testbed import ProtocolGroup


# -- platform models -----------------------------------------------------------------


def test_paper_platform_costs():
    assert SUN_ULTRA2.exp_cost == 0.012
    assert PENTIUM_II_450.exp_cost == 0.0025


def test_time_for_is_linear():
    assert PENTIUM_II_450.time_for(45) == pytest.approx(0.1125)
    assert SUN_ULTRA2.time_for(0) == 0.0


def test_calibration_measures_something_sane():
    local = calibrate_local_machine(samples=5)
    # A 512-bit modexp takes between 1 microsecond and 1 second anywhere.
    assert 1e-6 < local.exp_cost < 1.0
    assert "pow" in local.name


# -- count formulas ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 5, 10, 30])
def test_table2_totals_are_row_sums(n):
    for rows in table2(n).values():
        body = [count for name, count in rows if name != "Total"]
        total = dict(rows)["Total"]
        assert sum(body) == total


@pytest.mark.parametrize("n", [3, 5, 10, 30])
def test_table3_totals_are_row_sums(n):
    for rows in table3(n).values():
        body = [count for name, count in rows if name != "Total"]
        assert sum(body) == dict(rows)["Total"]


@pytest.mark.parametrize("n", [3, 5, 10, 30])
def test_table4_consistent_with_tables_2_and_3(n):
    t4 = table4(n)
    join_controller = dict(table2_cliques_controller(n))["Total"]
    join_member = dict(table2_cliques_new_member(n))["Total"]
    assert t4["Cliques"]["Join"] == join_controller + join_member
    assert t4["Cliques"]["Leave"] == dict(table3_cliques(n))["Total"]


# -- reporting --------------------------------------------------------------------------------


def test_table_renders_aligned():
    table = Table("T", ["col-a", "b"])
    table.add(1, "xx")
    table.add(22, 0.5)
    text = table.render()
    assert "T" in text and "col-a" in text
    assert "0.5000" in text  # float formatting


def test_table_rejects_wrong_arity():
    table = Table("T", ["a", "b"])
    with pytest.raises(ValueError):
        table.add(1)


# -- testbed drivers -----------------------------------------------------------------------------


def test_protocol_group_rejects_unknown_protocol():
    # The registry's own message, listing what is registered.
    with pytest.raises(ModuleNotFoundError_, match=r"'quantum'.*'tgdh'"):
        ProtocolGroup("quantum")


def test_protocol_group_grow_and_agree():
    group = ProtocolGroup("cliques")
    group.grow_to(4)
    assert len(group.members) == 4
    assert group.secret() > 1  # every member ready, one secret


def test_protocol_group_key_controller_roles():
    cliques = ProtocolGroup("cliques")
    cliques.grow_to(3)
    assert cliques.key_controller == cliques.members[-1]  # newest
    ckd = ProtocolGroup("ckd")
    ckd.grow_to(3)
    assert ckd.key_controller == ckd.members[0]  # oldest


# -- report tool ------------------------------------------------------------------------------------


def test_report_tool_runs(capsys):
    from repro.bench.report import main

    assert main(["--skip-figure3"]) == 0
    out = capsys.readouterr().out
    assert "Tables 2-4" in out
    assert "Figure 4" in out


def test_experiments_md_generated_blocks_are_current(capsys):
    """What CI's ``paper`` job diffs: the marked blocks of EXPERIMENTS.md
    are exactly ``report --markdown``'s output."""
    from repro.bench.report import main

    assert main(["--markdown"]) == 0
    generated = capsys.readouterr().out
    document = (Path(__file__).parents[2] / "EXPERIMENTS.md").read_text("utf-8")
    blocks = list(re.finditer(
        r"^<!-- report:(\w+) -->\n.*?^<!-- /report:\1 -->\n", document, re.M | re.S
    ))
    assert [block.group(1) for block in blocks] == ["table2", "table4", "figure4"]
    assert "".join(block.group(0) for block in blocks) == generated
