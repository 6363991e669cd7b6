"""Excel sink gateway: sanitizer enforcement + sheet-name validation +
single-gateway rule, patterned on the reference's
scripts/tests/test_export_sink_guard.py (openpyxl-free: validation and
sanitization run before the engine import, and the happy path is driven
through a stub module)."""

import re
import sys
import types
from pathlib import Path

import pandas as pd
import pytest

from series_correction_project_updated_ray.pipelines.reports import (
    write_excel_safely)

PKG_ROOT = Path(__file__).resolve().parents[1] / "series_correction_project_updated_ray"


@pytest.mark.parametrize("bad,msg", [
    (None, "must be a string"),
    (123, "must be a string"),
    ("", "cannot be empty"),
    ("x" * 32, "exceeds 31"),
    ("bad[name]", "invalid characters"),
    ("a/b", "invalid characters"),
])
def test_sheet_name_validation(tmp_path, bad, msg):
    df = pd.DataFrame({"a": [1]})
    with pytest.raises(ValueError, match=re.escape(msg)):
        write_excel_safely(df, str(tmp_path / "o.xlsx"), sheet_name=bad)


def test_excel_gateway_sanitizes(tmp_path, monkeypatch):
    """The frame handed to the engine has formula initiators escaped and
    the validated sheet name forwarded — proven with a stub openpyxl so
    the test runs in this container."""
    monkeypatch.setitem(sys.modules, "openpyxl", types.ModuleType("openpyxl"))
    captured = {}

    def fake_to_excel(self, path, **kwargs):
        captured["df"] = self
        captured["kwargs"] = kwargs

    monkeypatch.setattr(pd.DataFrame, "to_excel", fake_to_excel)
    df = pd.DataFrame({"name": ["=cmd()", "+SUM(A1)", "safe"],
                       "=inj": [1, 2, 3]})
    write_excel_safely(df, str(tmp_path / "o.xlsx"), sheet_name="Report")
    out = captured["df"]
    assert out["name"].tolist() == ["'=cmd()", "'+SUM(A1)", "safe"]
    assert "'=inj" in out.columns  # labels escaped too
    assert captured["kwargs"]["sheet_name"] == "Report"
    assert captured["kwargs"]["index"] is False
    # original frame untouched
    assert df["name"].iloc[0] == "=cmd()"


def test_excel_import_guard_without_openpyxl(tmp_path):
    try:
        import openpyxl  # noqa: F401
        pytest.skip("openpyxl present in this environment")
    except ImportError:
        pass
    with pytest.raises(ImportError, match="write_csv_safely"):
        write_excel_safely(pd.DataFrame({"a": [1]}),
                           str(tmp_path / "o.xlsx"))


def test_single_gateway_rule():
    """No production module outside the gateway touches to_excel /
    openpyxl / ExcelWriter (the reference's sink-guard CI rule)."""
    sinks = re.compile(r"\.\s*to_excel\s*\(|\bopenpyxl\b|ExcelWriter")
    offenders = []
    for p in PKG_ROOT.rglob("*.py"):
        rel = p.relative_to(PKG_ROOT).as_posix()
        if rel == "pipelines/reports.py":
            continue
        if sinks.search(p.read_text()):
            offenders.append(rel)
    assert offenders == []
