"""Spreadsheet-injection sanitizer (reference operator family K3/P6).

Replicates the semantics of /root/reference/scripts/spreadsheet_safety.py:
* formula initiators ``= + - @`` and their full-width forms ``＝＋－＠``,
  possibly hidden behind leading whitespace, are neutralized with a single
  leading apostrophe (idempotent — already-prefixed values pass through)
  [spreadsheet_safety.py:8-17,33-46];
* any null byte in a cell or label raises ValueError
  [spreadsheet_safety.py:20-21,244-247];
* sheet names: non-empty, ≤31 chars, no ``\\ * ? : / [ ]``
  [spreadsheet_safety.py:278-305].

The batch form is vectorized with pandas string kernels so it can run as a
``map_batches`` stage in front of every CSV export sink.
"""

from __future__ import annotations

import re
from typing import Any

import pandas as pd
import pyarrow as pa

FORMULA_PREFIX_RE = re.compile(r"^[\s]*[=\+\-@＝＋－＠]")
NEUTRALIZE_PREFIX = "'"
INVALID_SHEET_NAME_RE = re.compile(r"[\\*?:/\[\]]")


def escape_spreadsheet_formula(value: Any) -> Any:
    """Idempotent scalar cell encoder."""
    if not isinstance(value, str):
        return value
    if value.startswith(NEUTRALIZE_PREFIX):
        return value
    if FORMULA_PREFIX_RE.match(value):
        return NEUTRALIZE_PREFIX + value
    return value


def escape_series(s: pd.Series) -> pd.Series:
    """Vectorized formula escaping for a string Series; raises on null bytes."""
    str_mask = s.map(lambda v: isinstance(v, str))
    if not str_mask.any():
        return s
    strs = s[str_mask]
    if strs.str.contains("\x00", regex=False).any():
        bad = strs[strs.str.contains("\x00", regex=False)].iloc[0]
        raise ValueError(f"Null byte found in spreadsheet export: {bad!r}")
    needs = strs.str.match(FORMULA_PREFIX_RE) & ~strs.str.startswith(
        NEUTRALIZE_PREFIX)
    out = s.copy()
    out[strs.index[needs]] = NEUTRALIZE_PREFIX + strs[needs]
    return out


def validate_sheet_name(sheet_name: Any) -> None:
    if sheet_name is None:
        return
    if not isinstance(sheet_name, str):
        raise ValueError(
            f"sheet_name must be a string, got {type(sheet_name).__name__}")
    if sheet_name == "":
        raise ValueError("sheet_name cannot be empty")
    if len(sheet_name) > 31:
        raise ValueError(f"sheet_name exceeds 31 characters: {sheet_name!r}")
    if INVALID_SHEET_NAME_RE.search(sheet_name):
        raise ValueError(
            f"sheet_name contains invalid characters: {sheet_name!r}")


def sanitize_dataframe(df: pd.DataFrame) -> pd.DataFrame:
    """Copy of ``df`` with labels and object/string/categorical cells escaped;
    ValueError on any null byte."""
    out = df.copy()
    new_cols = []
    for c in out.columns:
        if isinstance(c, str) and "\x00" in c:
            raise ValueError(f"Null byte found in column label: {c!r}")
        new_cols.append(escape_spreadsheet_formula(c))
    out.columns = new_cols
    for c in out.select_dtypes(include=["object", "string", "category"]).columns:
        col = out[c]
        if isinstance(col.dtype, pd.CategoricalDtype):
            col = col.astype(object)
        out[c] = escape_series(col)
    return out


def sanitize_batch(batch: pa.Table) -> pa.Table:
    """Arrow-batch sanitizer stage: escapes every string column in place."""
    cols = {}
    for name in batch.column_names:
        col = batch[name]
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            s = col.to_pandas()
            cols[name] = pa.array(escape_series(s), type=col.type)
        else:
            cols[name] = col
    return pa.table(cols)
