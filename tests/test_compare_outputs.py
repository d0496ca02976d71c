"""Verdicts of the output gate ``tools/compare_outputs.py`` on synthetic value pairs.

The tool is loaded by path; no tree or subprocess is run.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _broken(tool, tolerance, row, mine, theirs, scale=None):
    """How many rows a tally with one value pair of ``row`` breaks."""
    tally = tool.Tally(tolerance)
    tally.add(row, "the item", mine, theirs, scale)
    return tally.report()


def test_equal_values_break_no_row_in_either_mode(tool, capsys):
    for tolerance in (False, True):
        tally = tool.Tally(tolerance)
        for row in tool.ROWS:
            tally.add(row, "the item", 0.5, 0.5)
        assert tally.report() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(tool.ROWS)
    assert all("1 of 1 bit-equal" in line for line in lines)


def test_a_one_ulp_gain_breaks_the_default_mode_alone(tool, capsys):
    row = "library gains (relative to sigma_1)"
    gain = 3.25
    moved = math.nextafter(gain, math.inf)
    assert _broken(tool, False, row, moved, gain, 92.0) == 1
    out = capsys.readouterr().out
    assert f"{row}: 0 of 1 bit-equal" in out and "BROKEN, first at the item" in out
    assert _broken(tool, True, row, moved, gain, 92.0) == 0


@pytest.mark.parametrize("row,mine,theirs", [
    ("library NMSE", math.nextafter(0.0123, 1.0), 0.0123),
    ("CLI NMSE cells", math.nextafter(0.0123, 0.0), 0.0123),
    ("library p_used at threshold(1e-6)", 7, 6),
    ("library p_used at the 120 thresholds", 7, 6),
    ("patterns p_used", 5, 6),
])
def test_a_one_ulp_nmse_or_p_used_breaks_both_modes(tool, row, mine, theirs):
    for tolerance in (False, True):
        assert _broken(tool, tolerance, row, mine, theirs) == 1


@pytest.mark.parametrize("row,mine,theirs", [
    ("CLI output bytes", b"x_value\n0.25\n", b"x_value\n0.250\n"),
    ("patterns digests (gains, TX and RX patterns)", "0123456789abcdef", "fedcba9876543210"),
])
def test_a_report_only_row_never_breaks(tool, row, mine, theirs):
    assert tool.ROWS[row][1] == tool.REPORT
    assert _broken(tool, True, row, mine, theirs) == 0
    assert _broken(tool, False, row, mine, theirs) == 1


def test_a_bound_held_within_a_tree_is_the_same_in_both_modes(tool):
    for tolerance in (False, True):
        for row, value, bound in (("patterns residual in both trees", 0.0, 1e-13),
                                  ("patterns orthonormality error in both trees", 0.0, 1e-13),
                                  ("dense gains (relative to sigma_1)", 2.0, 1e-12)):
            assert _broken(tool, tolerance, row, value + bound / 2, value, 1.0) == 0
            assert _broken(tool, tolerance, row, value + 2 * bound, value, 1.0) == 1


def test_csv_and_json_cells_parse_to_the_same_columns(tool):
    points = [
        {"capacity": {"FSCM": 12.2, "OCM": 3.76}, "d0_lambda": 0.25, "d_R_lambda": 1.25,
         "nmse": {"FSCM": 1.06}, "x_value": 0.25},
        {"capacity": {"FSCM": 8.34, "OCM": 1.96}, "d0_lambda": 0.5, "d_R_lambda": 1.25,
         "nmse": {"FSCM": 0.473}, "x_value": 0.5},
    ]
    text = ("x_value,d_R_lambda,d0_lambda,capacity_FSCM,nmse_FSCM,capacity_OCM\n"
            "0.25,1.25,0.25,12.2,1.06,3.76\n0.5,1.25,0.5,8.34,0.473,1.96\n")
    from_json, _ = tool._cells(["sweep-distance", "--format", "json"], json.dumps(points).encode())
    from_csv, shape = tool._cells(["sweep-distance"], text.encode())
    assert sorted(from_json) == sorted(from_csv)
    assert shape == [text.splitlines()[0].split(","), 2]
    quantities = {column: tool._cell_quantity(column) for column, _ in from_csv}
    assert quantities == {"x_value": "CLI x, d0 and d_R cells",
                          "d_R_lambda": "CLI x, d0 and d_R cells",
                          "d0_lambda": "CLI x, d0 and d_R cells",
                          "capacity_FSCM": "CLI capacity cells",
                          "capacity_OCM": "CLI capacity cells",
                          "nmse_FSCM": "CLI NMSE cells"}
    # singular values: sv<k>_<variant> columns in CSV, one list per variant in JSON
    dump, _ = tool._cells(["point", "--format", "json"],
                          json.dumps([{"singular_values": {"OCM": [9.2, 0.7]}}]).encode())
    assert {tool._cell_quantity(column) for column, _ in dump} == {"CLI singular-value cells"}
    assert tool._cell_quantity("sv1_OCM") == "CLI singular-value cells"
