"""CLI outputs pinned byte for byte.

The files under ``golden/`` were captured from the CLI before the builtin
names, the subcommand table and the catalog-order guard each moved to one
place, and (the reports of each subcommand, errors and ``--format text``)
while reports were still printed by ``json.dumps(payload, indent=2)``, and
(the absorption rules of a sum, the keyword forms and their syntax errors)
while the sum fold and the keyword parsing each had a second copy; the
help of ``family``, ``fixedpoints`` and ``lattice`` was re-captured when
their unread ``--catalog`` option was removed, and ``catalog.json`` when
the ``S1xLensSum`` and ``Extended`` kinds, which no command built, left
``catalog_kinds``; ``eval_knot_E2_family21.json`` was captured while the
knot-family members still built their Alexander polynomials, and the two
``bf`` reports over hat(2) and hat(8) while ``bf_simplify`` still checked the
copy count itself.  Regenerate them only for an intended change of output.
"""
from pathlib import Path

import pytest

from swcalc.cli import run_command

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_catalog_output(capsys):
    assert run_command(["catalog"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "catalog.json").read_text()


# (golden file, argv, exit code) of every pinned report
REPORTS = [
    ("eval_3E2_S2xS2.json", ["eval", "3*E(2) # S2xS2"], 0),
    ("lattice_e8_bound1.json", ["lattice", "--fixture", "e8", "--bound", "1"], 0),
    ("fixedpoints_k5.json", ["fixedpoints", "--k", "5"], 0),
    ("bf_2E2_hat3_k2.json", ["bf", "2*E(2) # hat(3)", "--k", "2"], 0),
    ("family_cp2_k2_l3_size2.json",
     ["family", "--construction", "cp2", "--k", "2", "--l", "3", "--size", "2"], 0),
    ("eval_syntax_error.json", ["eval", "E(2) #"], 2),
    ("eval_guard_error.json", ["eval", "E(0)"], 1),
    ("eval_S2xS2_text.txt", ["eval", "S2xS2", "--format", "text"], 0),
    ("bf_2E2_S4_k2.json", ["bf", "2*E(2) # S4", "--k", "2"], 0),
    ("bf_2E2_CP2bar_k2.json", ["bf", "2*E(2) # CP2bar", "--k", "2"], 0),
    ("eval_logtx43_CP2.json", ["eval", "logtx(4,3) # ~CP2"], 0),
    ("eval_blowup_knot_E3_CP2bar.json",
     ["eval", "blowup(knot_surgery(E(3), torus(2,5)), 2) # CP2bar"], 0),
    ("eval_CP2bar_E2.json", ["eval", "CP2bar # E(2)"], 0),
    ("eval_S4_K3.json", ["eval", "S4 # K3"], 0),
    ("eval_logtx_syntax_error.json", ["eval", "logtx(4,)"], 2),
    ("eval_blowup_syntax_error.json", ["eval", "blowup(E(2) 3)"], 2),
    ("eval_knot_surgery_syntax_error.json", ["eval", "knot_surgery(E(2), )"], 2),
    ("eval_knot_E2_family21.json", ["eval", "knot_surgery(E(2), family(2,1))"], 0),
    ("bf_3E2_hat2_k2.json", ["bf", "3*E(2) # hat(2)", "--k", "2"], 1),
    ("bf_2E2_hat8_k2.json", ["bf", "2*E(2) # hat(8)", "--k", "2"], 0),
]


@pytest.mark.parametrize("name, argv, exit_code", REPORTS)
def test_report_output(capsys, name, argv, exit_code):
    assert run_command(argv) == exit_code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def _help_parts(text: str) -> tuple[list[str], str]:
    """The usage block's words, and the bytes after it: argparse wraps the usage
    line at different places from one Python version to the next (3.13 moves
    ``--size SIZE`` of ``family`` to the second line at 80 columns)."""
    usage, blank, rest = text.partition("\n\n")
    return usage.split(), blank + rest


@pytest.mark.parametrize("command", ["", "eval", "family", "fixedpoints", "lattice",
                                     "bf", "catalog"])
def test_help_output(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_command(([command] if command else []) + ["--help"]) == 0
    expected = (GOLDEN / f"help_{command or 'swcalc'}.txt").read_text()
    assert _help_parts(capsys.readouterr().out) == _help_parts(expected)
