"""QA comparison export (reference entry point 3.3,
export_comparison_sheets.py).

Per (series, year): outer-join raw and corrected frames on the time column
(suffixes _raw/_processed, J1) and add ``Outlier_Flag`` from the
comparison-variant Hampel detector (D4 — the zero-MAD rule WITHOUT the
threshold·1e-6 tier) on the raw value column.

Both sides go through one keyed exchange on (series, year_idx), each
tagged with its side before the union, so the join is a co-grouped merge
per (series, year_idx) — no second shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import kernels as K
from ..stages.joins import _with_hash, keyed_exchange, per_key


class ComparisonKernel:
    """cogroup kernel over side-tagged rows of one (series, year_idx)."""

    def __init__(self, time_col="Time (Seconds)", value_col="Value2",
                 window_size=5, threshold=3.0):
        self.time_col, self.value_col = time_col, value_col
        self.window_size, self.threshold = window_size, threshold

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        raw = g[g["__side"] == "raw"].drop(columns="__side")
        proc = g[g["__side"] == "processed"].drop(columns="__side")
        merged = raw.merge(proc, on=["series", "year_idx", self.time_col],
                           how="outer", suffixes=("_raw", "_processed"))
        merged = merged.sort_values(self.time_col, kind="stable") \
                       .reset_index(drop=True)
        vals = merged[f"{self.value_col}_raw"].astype(float)
        flags = np.zeros(len(merged), dtype=bool)
        idx = K.hampel_outliers(vals.to_numpy(), self.window_size,
                                self.threshold, variant="comparison")
        flags[idx] = True
        merged["Outlier_Flag"] = flags
        return merged


def export_comparisons(raw_ds, corrected_ds, time_col="Time (Seconds)",
                       value_col="Value2", window_size=5, threshold=3.0):
    """raw + corrected compat Datasets → comparison Dataset."""
    keys = ["series", "year_idx"]
    cols = [*keys, time_col, value_col]

    def tag(side: str):
        def _tag(t: pa.Table) -> pa.Table:
            t = t.select([c for c in cols if c in t.column_names])
            t = t.append_column("__side", pa.array([side] * len(t)))
            return _with_hash(t, keys)
        return _tag

    kernel = ComparisonKernel(time_col, value_col, window_size, threshold)
    return keyed_exchange([(raw_ds, tag("raw")),
                           (corrected_ds, tag("processed"))],
                          per_key(keys, kernel), "pyarrow")
