"""Outputs that no benchmark workload covers, pinned byte for byte.

The files under ``golden/`` were captured from the CLI before the builtin
names, the subcommand table and the catalog-order guard each moved to one
place; regenerate them only for an intended change of output.
"""
from pathlib import Path

import pytest

from swcalc.cli import run_command
from swcalc.equivariant import bfg_connected_sum, gmonopole_polynomial, hat_s1_l
from swcalc.errors import GuardViolation
from swcalc.manifold import builtin

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_catalog_output(capsys):
    assert run_command(["catalog"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "catalog.json").read_text()


@pytest.mark.parametrize("command", ["", "eval", "family", "fixedpoints", "lattice",
                                     "bf", "catalog"])
def test_help_output(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_command(([command] if command else []) + ["--help"]) == 0
    expected = (GOLDEN / f"help_{command or 'swcalc'}.txt").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("call", [
    lambda m, entry: bfg_connected_sum(m, 3, entry, 3),
    lambda m, entry: gmonopole_polynomial(m, entry, 3),
], ids=["bf", "gmonopole_polynomial"])
def test_mismatched_order_refused(call):
    with pytest.raises(GuardViolation) as err:
        call(builtin("E", 2), hat_s1_l([2], 2, k=2))
    assert str(err.value) == "catalog entry was instantiated for k = 2, not 3"
    assert err.value.requirement == "matching cyclic order"
