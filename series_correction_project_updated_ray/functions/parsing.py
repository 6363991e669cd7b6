"""Filename / string parsers and scalar casts (reference operators P1–P9).

Citations refer to the reference repo at /root/reference:
* P1 filename regex — scripts/batch_correction.py:26
* P2 processed-name regexes — scripts/export_comparison_sheets.py:19-51
* P3 parse_year_pair — scripts/apply_refined_corrections.py:112-126
* P4 parse_sensor_index — scripts/apply_refined_corrections.py:129-138
* P5 find_sensor_columns — scripts/apply_refined_corrections.py:31-36
* P7 _safe_round — scripts/generate_overview_table.py:9-14
"""

from __future__ import annotations

import re

RAW_FILE_RE = re.compile(r"S(.+?)_Y(\d+)\.txt$")
PROCESSED_SERIES_RE = re.compile(r"Series(\d+)_File(\d+)_Processed")
PROCESSED_YEAR_RE = re.compile(r"Year_(\d+) \(Y(\d+)\)_Data")
YEAR_PAIR_RE = re.compile(r"(\d+) \(Y(\d+)\) to (\d+) \(Y(\d+)\)")


def parse_raw_filename(name: str) -> tuple[str, int] | None:
    """'S26_Y03.txt' → ('26', 3); None when the pattern doesn't match."""
    m = RAW_FILE_RE.search(name)
    if not m:
        return None
    return m.group(1), int(m.group(2))


def parse_year_pair(year_pair: str) -> tuple[int, int] | None:
    """'1995 (Y01) to 1996 (Y02)' → (1, 2), ordered by the full year."""
    m = YEAR_PAIR_RE.match(year_pair)
    if not m:
        return None
    y1_full, y1_yy, y2_full, y2_yy = map(int, m.groups())
    return (y1_yy, y2_yy) if y1_full < y2_full else (y2_yy, y1_yy)


def parse_sensor_index(sensor_name: str, n_sensors: int = 32) -> int | None:
    """'Sensor 7' → 6; None outside [0, n_sensors)."""
    try:
        idx = int(sensor_name.replace("Sensor ", "")) - 1
    except ValueError:
        return None
    if not 0 <= idx < n_sensors:
        return None
    return idx


def find_sensor_columns(columns) -> list[str]:
    """Columns named 'Sensor <digits>'."""
    return [c for c in columns
            if isinstance(c, str) and c.startswith("Sensor ")
            and c[len("Sensor "):].isdigit()]


_PROCESSED_MATCH_CACHE: dict[str, tuple[str, int] | None] = {}


def match_processed_filename(name: str) -> tuple[str, int] | None:
    """Processed-output name → join key (P2 with the reference's memo
    cache, export_comparison_sheets.py:19-51):
    'Series26_File03_Processed…' → ('series', 3);
    'Year_1997 (Y03)_Data…' → ('year', 3)."""
    if name in _PROCESSED_MATCH_CACHE:
        return _PROCESSED_MATCH_CACHE[name]
    m = PROCESSED_SERIES_RE.search(name)
    if m:
        out = ("series", int(m.group(2)))
    else:
        m = PROCESSED_YEAR_RE.search(name)
        out = ("year", int(m.group(2))) if m else None
    _PROCESSED_MATCH_CACHE[name] = out
    return out


def safe_round(value, ndigits: int = 3):
    """round with passthrough on non-numeric input."""
    try:
        return round(value, ndigits)
    except TypeError:
        return value
