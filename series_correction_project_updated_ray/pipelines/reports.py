"""Report generators + sanitized sinks (reference operators K1/K2, K7, K8,
J4, A7, P7).

* :func:`write_csv_safely` / :func:`write_parquet_output` — every text
  export passes through the formula-injection sanitizer stage (the rebuild
  equivalent of the reference's single-gateway rule enforced by
  test_export_sink_guard.py).
* :func:`per_file_summary` — per-(series,year) mean/median/outlier-count
  (generate_summary.py:25-46).
* :func:`overview_table` — correction log ⟗ begin/end averages broadcast
  lookup (generate_overview_table.py:40-76; J4 + P7 rounding).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .. import kernels as K
from ..functions.parsing import safe_round
from ..functions.sanitize import sanitize_dataframe, validate_sheet_name
from ..stages.joins import each_key


def write_csv_safely(ds_or_df, path: str, **kwargs):
    """Sanitize then write CSV.  Datasets write a directory of part files
    through the sanitizer stage; DataFrames write one file."""
    if isinstance(ds_or_df, pd.DataFrame):
        sanitize_dataframe(ds_or_df).to_csv(path, **kwargs)
        return
    from ..stages.relational import sanitize_dataset
    sanitize_dataset(ds_or_df).write_csv(path)


def write_parquet_output(ds, path: str, **kwargs):
    """Canonical binary sink (no injection surface — no sanitizer)."""
    ds.write_parquet(path, **kwargs)


def write_excel_safely(df: pd.DataFrame, path: str, *,
                       sheet_name: str = "Sheet1", index: bool = False,
                       **kwargs):
    """Excel sink through the same single sanitizer gateway as CSV
    (reference ``write_excel_safely``, spreadsheet_safety.py:335-338,
    consumed at batch_correction.py:614-618).

    Validation and formula-injection sanitization run FIRST, so the
    security contract is enforced (and testable) even where openpyxl is
    not installed; only the final engine call needs the library."""
    if not isinstance(df, pd.DataFrame):
        raise TypeError("Expected a pandas DataFrame")
    validate_sheet_name(sheet_name)
    sanitized = sanitize_dataframe(df)
    try:
        import openpyxl  # noqa: F401  (pandas' xlsx engine)
    except ImportError as e:
        raise ImportError(
            "openpyxl is required for Excel export; use write_csv_safely "
            "or write_parquet_output where it is unavailable") from e
    sanitized.to_excel(path, sheet_name=sheet_name, index=index, **kwargs)


class _FileStats:
    """Per-key kernel (``each_key``): per (series, year_idx)
    mean/median/outlier stats over the compat value column (A7)."""

    def __init__(self, value_col="Value2", threshold=3.0):
        self.value_col, self.threshold = value_col, threshold

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        v = g[self.value_col].to_numpy(float)
        _, mask = K.global_mad_outliers(v, self.threshold)
        return pd.DataFrame({
            "Series": [g["series"].iloc[0]],
            "Y_Index": [int(g["year_idx"].iloc[0])],
            "Mean": [safe_round(float(np.nanmean(v)))],
            "Median": [safe_round(float(np.nanmedian(v)))],
            "Outlier_Count": [int(mask.sum())],
            "Records": [len(g)],
        })


def per_file_summary(compat_ds, value_col="Value2", threshold=3.0):
    """Dataset[series, year_idx, Value2, …] → per-file stats Dataset."""
    return each_key(compat_ds, ["series", "year_idx"],
                    _FileStats(value_col, threshold))


def overview_table(correction_log: pd.DataFrame,
                   averages: pd.DataFrame) -> pd.DataFrame:
    """Correction log + updated averages → overview rows.

    ``averages``: [Series, Year_Num_YY, Begin_Avg, End_Avg] — probed via an
    in-memory composite-key lookup per log row (the J4 broadcast-dict
    pattern; both tables are tiny).  Values rounded to 3 via safe_round.
    """
    lookup = {(r["Series"], int(r["Year_Num_YY"])):
              (r["Begin_Avg"], r["End_Avg"])
              for _, r in averages.iterrows()}
    rows = []
    for _, r in correction_log.iterrows():
        parsed = _parse_pair(r["Year_Pair_Outlier"])
        if parsed is None:
            continue
        prev_yy, next_yy = parsed
        prev = lookup.get((r["Series"], prev_yy), (np.nan, np.nan))
        nxt = lookup.get((r["Series"], next_yy), (np.nan, np.nan))
        rows.append({
            "Series": r["Series"],
            "Sensor": r["Sensor"],
            "Year_Pair": r["Year_Pair_Outlier"],
            "Prev_End_Avg": safe_round(prev[1]),
            "Next_Begin_Avg": safe_round(nxt[0]),
            "Level_Shift": safe_round(r["Calculated_Level_Shift"]),
            "File_Corrected": r["File_Corrected"],
        })
    return pd.DataFrame(rows).sort_values(
        ["Series", "Sensor", "Year_Pair"]).reset_index(drop=True) \
        if rows else pd.DataFrame(
            columns=["Series", "Sensor", "Year_Pair", "Prev_End_Avg",
                     "Next_Begin_Avg", "Level_Shift", "File_Corrected"])


def _parse_pair(s):
    from ..functions.parsing import parse_year_pair
    return parse_year_pair(s)
