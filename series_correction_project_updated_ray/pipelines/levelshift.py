"""Year-boundary level-shift workflow (reference entry point 3.2).

Semantics (apply_refined_corrections.py):
* instructions = melted Year-to-Year-Differences table filtered to
  |Difference| >= 0.1 (:54-63; threshold from docs/Guide…md:65);
* each instruction (Year_Pair, Sensor) resolves to the FIRST series (sorted
  ids) having both year files (:141-151 — the deterministic S26-before-S27
  preference) and shifts that sensor's next-year column by
  nonzero_mean(tail5(prev)) - nonzero_mean(head5(next)), where prev may
  already carry earlier shifts — corrections to one file ACCUMULATE
  (:101-109, proven by test_apply_refined_corrections.py:79-127);
* output: corrected files (only those actually touched) + a correction log
  [Series, Year_Pair_Outlier, Sensor, Original_Difference_Summary,
  Calculated_Level_Shift, Correction_Type, File_Corrected, Rationale].

Ray plan: the instruction table is tiny (≤ 32 sensors × years) → broadcast;
the fold is per (series, sensor) sequential over year-ordered groups —
exactly one keyed exchange of the long-form data (``each_key``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .. import kernels as K
from ..functions.parsing import parse_sensor_index, parse_year_pair


def melt_instructions(yty_df: pd.DataFrame, threshold: float = 0.1
                      ) -> pd.DataFrame:
    """Wide Year-to-Year-Differences → ordered instruction rows
    (load_identified_outliers semantics; melt is sensor-major, preserving
    the reference's application order)."""
    from ..functions.parsing import find_sensor_columns
    sensor_cols = find_sensor_columns(yty_df.columns)
    melted = yty_df.melt(id_vars=["Year_Pair"], value_vars=sensor_cols,
                         var_name="Sensor", value_name="Difference")
    return melted[melted["Difference"].abs() >= threshold].copy()


def plan_corrections(instructions: pd.DataFrame,
                     years_by_series: dict[str, set[int]]) -> pd.DataFrame:
    """Resolve each instruction to (series, sensor_idx, prev_yy, next_yy);
    unresolvable rows dropped (parse failures, no series with both years)."""
    rows = []
    sorted_series = sorted(years_by_series)
    for _, r in instructions.iterrows():
        parsed = parse_year_pair(r["Year_Pair"])
        if parsed is None:
            continue
        sensor_idx = parse_sensor_index(r["Sensor"])
        if sensor_idx is None:
            continue
        prev_yy, next_yy = parsed
        target = next((s for s in sorted_series
                       if prev_yy in years_by_series[s]
                       and next_yy in years_by_series[s]), None)
        if target is None:
            continue
        rows.append({"series": target, "sensor_idx": sensor_idx,
                     "prev_yy": prev_yy, "next_yy": next_yy,
                     "Year_Pair": r["Year_Pair"], "Sensor": r["Sensor"],
                     "Difference": r["Difference"]})
    return pd.DataFrame(rows)


class LevelShiftFold:
    """Per-key kernel (``each_key``) over one (series, sensor_id)
    long-form group: apply the planned boundary shifts in year order,
    cumulatively."""

    def __init__(self, plan_ref, min_rows: int = 5):
        import ray
        plan = ray.get(plan_ref)
        self.by_key: dict = {}
        for _, r in plan.iterrows():
            self.by_key.setdefault(
                (r["series"], int(r["sensor_idx"]) + 1), []).append(r)
        self.min_rows = min_rows

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        series = g["series"].iloc[0]
        sensor = int(g["sensor_id"].iloc[0])
        g = g.sort_values(["year_idx", "t"], kind="stable").reset_index(drop=True)
        plans = self.by_key.get((series, sensor), [])
        if not plans:
            g["value_shifted"] = g["value"]
            g["shift_log"] = np.nan
            return g
        v = g["value"].to_numpy(float).copy()
        years = g["year_idx"].to_numpy()
        shifts = np.full(len(g), np.nan)
        for p in sorted(plans, key=lambda r: (r["next_yy"])):
            prev_m = years == p["prev_yy"]
            next_m = years == p["next_yy"]
            if prev_m.sum() < self.min_rows or next_m.sum() < self.min_rows:
                continue
            prev_tail = v[prev_m][-self.min_rows:]
            next_head = v[next_m][:self.min_rows]
            s = K.level_shift(prev_tail, next_head)
            v[next_m] = v[next_m] + s
            shifts[np.flatnonzero(next_m)[0]] = s
        g["value_shifted"] = v
        g["shift_log"] = shifts
        return g


def apply_level_shifts(long_ds, yty_df: pd.DataFrame,
                       threshold: float = 0.1, min_rows: int = 5):
    """long-form Seatek Dataset + wide differences table →
    (shifted Dataset, correction log DataFrame)."""
    import ray
    from ..stages.joins import distributed_distinct, each_key
    instructions = melt_instructions(yty_df, threshold)

    # distinct (series, year_idx) distributed — only the tiny
    # (|series| × |years|) result ever reaches the driver
    meta = distributed_distinct(long_ds, ["series", "year_idx"]).to_pandas()
    years_by_series = {s: set(g["year_idx"].tolist())
                       for s, g in meta.groupby("series")}
    plan = plan_corrections(instructions, years_by_series)
    plan_ref = ray.put(plan)
    shifted = each_key(long_ds, ["series", "sensor_id"],
                       LevelShiftFold(plan_ref, min_rows))
    return shifted, plan


def correction_log(shifted, plan: pd.DataFrame) -> pd.DataFrame:
    """Reference-shaped correction log from applied shifts.

    The applied-shift rows are filtered and column-pruned INSIDE the
    Dataset (one marker row per applied boundary shift), so only that
    tiny set — never the full shifted output — reaches the driver."""
    applied = shifted.map_batches(
        lambda df: df.loc[~df["shift_log"].isna(),
                          ["series", "sensor_id", "year_idx", "shift_log"]],
        batch_format="pandas").to_pandas()
    if plan.empty or applied.empty:
        return pd.DataFrame()
    # one marker row per applied shift: an inner merge in plan order
    keys = ["series", "sensor_id", "year_idx"]
    m = plan.assign(sensor_id=plan["sensor_idx"] + 1,
                    year_idx=plan["next_yy"]) \
        .merge(applied.drop_duplicates(keys), on=keys)
    if m.empty:
        return pd.DataFrame()
    series = "S" + m["series"].astype(str)
    next_yy = m["next_yy"].map("{:02d}".format)
    prev_yy = m["prev_yy"].map("{:02d}".format)
    return pd.DataFrame({
        "Series": series,
        "Year_Pair_Outlier": m["Year_Pair"],
        "Sensor": m["Sensor"],
        "Original_Difference_Summary": m["Difference"],
        "Calculated_Level_Shift": m["shift_log"].astype(float),
        "Correction_Type": "Level Shift",
        "File_Corrected": series + "_Y" + next_yy + "_refined_corrected.csv",
        "Rationale": "Aligned Y" + next_yy + " head with Y" + prev_yy
                     + " tail.",
    })
