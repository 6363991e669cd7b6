"""Exact-compat Seatek batch correction (reference entry point 3.1).

Replicates ``scripts/processor.py:process_data`` frame semantics on the
reference loader's column naming — including the documented quirks
(SURVEY.md §1.2): column 0 is *named* "Time (Seconds)" but holds sensor 1;
the auto-detected value column is Value2; gap-inserted rows carry NaN in
every non-interpolated column; each step re-sorts by the time column when
configured.

The Ray plan: parse files → ``each_key`` on (series, year_idx) → per-file
frame kernel (pandas, one call per file; per-file frames are tiny) →
corrected Dataset + per-file summary rows [Series, Year, Y-Index, Filename,
Status, Records] (batch_correction.py:629-663).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .. import kernels as K
from ..stages.joins import each_key


def process_frame(df: pd.DataFrame, config: dict | None = None,
                  time_col: str = "Time (Seconds)",
                  value_col: str | None = None) -> pd.DataFrame:
    """process_data-equivalent on a wide frame (numpy kernels inside).

    Column contract: ``time_col`` must be numeric (caller converts);
    ``value_col`` defaults to the first numeric non-time column
    (discontinuity_utils.py:294-304).  Only value_col is corrected; other
    columns ride along through sorts and gap-row insertion (NaN-filled,
    NOT interpolated — matching correct_gaps' value_cols=[value_col]).
    """
    cfg = K.merge_config(config)
    out = df.copy()
    if not pd.api.types.is_numeric_dtype(out[time_col]):
        raise ValueError("Time column is not numeric and could not be converted")
    if value_col is None:
        numeric = [c for c in out.columns
                   if pd.api.types.is_numeric_dtype(out[c]) and c != time_col]
        if not numeric:
            raise ValueError("No numeric value columns found in the data")
        value_col = numeric[0]

    # every sort uses the pandas DEFAULT kind (quicksort), NOT a stable
    # sort: the reference never passes `kind`, and the real corpus ties
    # thousands of rows at 0.00 in the sensor-1-as-time column — parity
    # on tied rows requires numpy quicksort's exact tie permutation
    # (processor.py:565; SURVEY §1.2 tied-zeros quirk)
    out = out.sort_values(by=time_col).reset_index(drop=True)

    # Step 1: gaps
    t = out[time_col].to_numpy()
    gaps = K.detect_gaps(t, cfg["gap_threshold_factor"])
    if len(gaps):
        # the reference re-sorts INSIDE correct_gaps before building gap
        # rows (processor.py:322) — on tied data quicksort is not
        # idempotent, so this extra sort is load-bearing for parity
        out = out.sort_values(by=time_col).reset_index(drop=True)
        new_times = K.gap_fill_times(out[time_col].to_numpy(), gaps)
        if len(new_times):
            gap_rows = pd.DataFrame(np.nan, index=range(len(new_times)),
                                    columns=out.columns)
            gap_rows[time_col] = new_times
            out = pd.concat([out, gap_rows], ignore_index=True)
            out = out.sort_values(by=time_col).reset_index(drop=True)
        out[value_col] = K.interp_positional(out[value_col].to_numpy(float),
                                             cfg["gap_method"])
        out = out.sort_values(by=time_col).reset_index(drop=True)

    # Step 2: outliers
    v = out[value_col].to_numpy(float)
    outliers = K.hampel_outliers(v, cfg["window_size"], cfg["threshold"])
    if len(outliers):
        out[value_col] = K.correct_outliers(v, outliers, cfg["window_size"],
                                            cfg["outlier_method"])

    # Step 3: jumps
    v = out[value_col].to_numpy(float)
    jumps = K.cusum_jumps(v, cfg["window_size"], cfg["threshold"])
    if len(jumps):
        out[value_col] = K.correct_jumps(v, jumps, cfg["window_size"])
    return out


class CompatFileKernel:
    """Per-key kernel (``each_key``): one (series, year_idx) compat frame →
    corrected."""

    def __init__(self, config: dict | None = None):
        self.config = config

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        meta = g[["series", "year_idx"]].iloc[0]
        body = g.drop(columns=["series", "year_idx"])
        try:
            corrected = process_frame(body, self.config)
            corrected.insert(0, "series", meta["series"])
            corrected.insert(1, "year_idx", np.int32(meta["year_idx"]))
            corrected["status"] = "Processed"
            return corrected
        except ValueError:
            # per-file failures downgrade to a status row, run continues
            # (batch_correction.py:622-627)
            return pd.DataFrame({"series": [meta["series"]],
                                 "year_idx": [np.int32(meta["year_idx"])],
                                 "status": ["Failed (Processing Error)"]})


def batch_correct(data_dir: str, config: dict | None = None,
                  series: list[str] | None = None,
                  year_range: tuple[int, int] | None = None):
    """Corrected Dataset over a Seatek dir (compat semantics)."""
    from ..sources.seatek import read_seatek
    ds = read_seatek(data_dir, mode="compat", series=series,
                     year_range=year_range)
    return each_key(ds, ["series", "year_idx"], CompatFileKernel(config))


_FALLBACK_COLUMNS = ["Series", "Year", "Y-Index", "Filename", "Status",
                     "Records"]


class _FallbackFileKernel:
    """map_batches kernel over fallback work items ``(series_id, file_idx,
    path)``: load → process_frame → optional K5-named output → one summary
    row (reference ``_process_fallback_mode``,
    batch_correction.py:519-581).  Empty inputs yield NO row (the
    reference's ``if not df.empty`` guard); per-file errors downgrade to a
    ``Failed (Processing Error)`` row."""

    def __init__(self, config: dict | None, output_dir: str | None,
                 dry_run: bool):
        self.config, self.output_dir, self.dry_run = config, output_dir, dry_run

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import os
        from ..sources.seatek import load_raw_frame
        rows = []
        for sid, fidx, path in zip(batch["series_id"], batch["file_idx"],
                                   batch["path"]):
            fname = os.path.basename(path)
            try:
                df = load_raw_frame(path)
                if df.empty:
                    continue
                processed = process_frame(df, self.config)
                if not self.dry_run and self.output_dir:
                    from ..pipelines.reports import (write_csv_safely,
                                                     write_excel_safely)
                    out_name = f"Series{sid}_File{int(fidx):02d}_Processed"
                    try:
                        write_excel_safely(
                            processed,
                            os.path.join(self.output_dir, out_name + ".xlsx"))
                    except ImportError:
                        # no xlsx engine in this environment: same
                        # sanitizer gateway, CSV container
                        write_csv_safely(
                            processed,
                            os.path.join(self.output_dir, out_name + ".csv"),
                            index=False)
                rows.append({"Series": int(sid), "Y-Index": int(fidx),
                             "Filename": fname,
                             "Status": "Fallback Processed",
                             "Records": len(processed)})
            except Exception:
                rows.append({"Series": int(sid), "Y-Index": int(fidx),
                             "Filename": fname,
                             "Status": "Failed (Processing Error)",
                             "Records": 0})
        return pd.DataFrame(
            rows, columns=["Series", "Y-Index", "Filename", "Status",
                           "Records"])


def process_fallback(config_data: dict, output_dir: str | None = None,
                     series: list[int] | None = None,
                     dry_run: bool = True) -> pd.DataFrame:
    """Fallback processing mode (batch_correction.py:519-581): when
    discovery finds no files, process each configured
    ``config["series"][id]["raw_data"]`` list instead.  Returns the
    summary frame ``[Series, Year(None), Y-Index, Filename, Status,
    Records]``; files fan out over Ray (one tiny frame per task)."""
    import ray.data as rd

    series_cfg = config_data.get("series", {})
    wanted = ([int(s) for s in series] if series is not None
              else sorted(int(s) for s in series_cfg))
    items = []
    for sid in wanted:
        cfg = series_cfg.get(str(sid))
        if cfg is None:
            continue
        for i, path in enumerate(cfg.get("raw_data", []), start=1):
            items.append({"series_id": sid, "file_idx": i, "path": path})
    if not items:
        return pd.DataFrame()

    processor_config = {**config_data.get("defaults", {}),
                        **config_data.get("processor_config", {})}
    out = rd.from_items(items).map_batches(
        _FallbackFileKernel(processor_config, output_dir, dry_run),
        batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame()
    # Year is always unknown in fallback mode (reference emits None)
    out.insert(1, "Year", None)
    return out[_FALLBACK_COLUMNS].sort_values(["Series", "Y-Index"]) \
        .reset_index(drop=True)


def batch_process(data_dir: str, config_data: dict | None = None,
                  series: list[str] | None = None,
                  year_range: tuple[int, int] | None = None,
                  output_dir: str | None = None, dry_run: bool = True):
    """Reference ``batch_process`` decision (batch_correction.py:485-516):
    discovery-driven main mode when files exist, else fallback mode over
    the configured raw_data lists.  Main mode returns the per-file
    summary frame (via :func:`batch_correct` + :func:`summarize`);
    fallback returns its own summary frame."""
    from ..sources.seatek import discover_files
    files = discover_files(data_dir, series, year_range)
    if files:
        cfg = None
        if config_data:
            cfg = {**config_data.get("defaults", {}),
                   **config_data.get("processor_config", {})}
        corrected = batch_correct(data_dir, cfg, series, year_range)
        return summarize(corrected)
    sel = ([int(s) for s in series if str(s).isdigit()]
           if series is not None else None)
    return process_fallback(config_data or {}, output_dir, sel, dry_run)


class LongSeriesKernel:
    """Per-key kernel (``each_key``) for the INTENDED semantics (SURVEY.md
    §1.2): every (series, year, sensor) is an independent series over the
    real last-column timestamps — the knowingly-fixed version of the
    reference's only-Value2 quirk.  Emits the corrected long rows
    (gap-inserted rows appear with inserted=True)."""

    def __init__(self, config: dict | None = None):
        self.config = config

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("t", kind="stable")
        t = g["t"].to_numpy(np.float64)
        v = g["value"].to_numpy(np.float64)
        t2, v2 = K.process_series(t, v, self.config)
        orig = set(t.tolist())
        return pd.DataFrame({
            "series": np.full(len(t2), g["series"].iloc[0], dtype=object),
            "year_idx": np.full(len(t2), g["year_idx"].iloc[0], np.int32),
            "sensor_id": np.full(len(t2), g["sensor_id"].iloc[0], np.int32),
            "t": t2,
            "value_corrected": v2,
            "inserted": np.fromiter((x not in orig for x in t2.tolist()),
                                    dtype=bool, count=len(t2)),
        })


def correct_all_sensors(data_dir: str, config: dict | None = None):
    """Long-form correction of every sensor column independently — one
    keyed exchange on (series, year_idx, sensor_id)."""
    from ..sources.seatek import read_seatek
    long_ds = read_seatek(data_dir, mode="long")
    return each_key(long_ds, ["series", "year_idx", "sensor_id"],
                    LongSeriesKernel(config))


def summarize(corrected, first_year: int = 1995,
              year_index_map: dict[int, int] | None = None) -> pd.DataFrame:
    """[Series, Year, Y-Index, Filename, Status, Records] summary
    (batch_correction.py:629-640).  Year = ``year_index_map[yidx]`` when a
    map is configured (the reference's optional config key), else
    positional ``first_year + yidx - 1``; filename template K4
    'Year_{year} (Y{yi:02d})_Data'."""
    from ..stages.rollup import combine
    df = combine(corrected, ["series", "year_idx"],
                 [([], "count_all", "Records")]).to_pandas()
    if year_index_map:
        df["Year"] = df["year_idx"].map(
            lambda i: year_index_map.get(int(i), first_year + int(i) - 1))
    else:
        df["Year"] = first_year + df["year_idx"] - 1
    df["Filename"] = [f"Year_{y} (Y{int(i):02d})_Data.xlsx"
                      for y, i in zip(df["Year"], df["year_idx"])]
    df["Status"] = "Processed"
    out = df.rename(columns={"series": "Series", "year_idx": "Y-Index"})
    return out[["Series", "Year", "Y-Index", "Filename", "Status",
                "Records"]].sort_values(["Series", "Y-Index"]) \
        .reset_index(drop=True)
