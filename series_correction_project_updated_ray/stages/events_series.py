"""Per-series detection/correction stages over the events stream table.

Each user_id is an independent series (the reference's file ≡ partition,
sensor ≡ series mapping — SURVEY.md §1.2).  One keyed exchange co-locates
a whole series; the numpy kernels then run order-dependent detection
exactly as the reference does per file.

Layout: the partition-group kernel is arrow-in/arrow-out.  Each partition
is lexsorted ONCE ((key, ts, event_id) via numpy), series become
contiguous slices of shared numpy arrays, each array kernel returns plain
output arrays, and the partition emits ONE concatenated Arrow table (the
key column is a single ``pc.take`` of the original Arrow column — no
per-series DataFrame construction, no pandas-backed blocks downstream).

Where an operator is SQL-expressible its output shape is designed to match
a DuckDB oracle (rounding documented per function).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .joins import _segment_starts, partition_groups
from .. import kernels as K
from ..functions.rounding import round_half_away


# --- array kernels (one series: sorted t ascending, tie-broken by id) -------

def gap_counts_arrays(ids, t, v, threshold_factor=3.0):
    """n_gaps: diffs > factor * median(diff) — reference detect_gaps
    semantics on epoch-second times."""
    gaps = K.detect_gaps(t, threshold_factor)
    return {"n_gaps": np.array([len(gaps)], np.int64)}


def global_mad_arrays(ids, t, v, threshold=3.0):
    """(n_outliers, global_median): updated_processor rule (0.6745 scale,
    MAD floor 1e-4)."""
    _, mask = K.global_mad_outliers(v, threshold)
    return {
        "n_outliers": np.array([int(mask.sum())], np.int64),
        "global_median": np.array(
            [round_half_away(float(np.nanmedian(v)), 6)]),
    }


def hampel_flags_arrays(ids, t, v, window_size=5, threshold=3.0):
    """Flagged event_id rows under the full Hampel rule (processor
    variant epsilon tiers)."""
    idx = K.hampel_outliers(v, window_size, threshold, variant="processor")
    return {"event_id": ids[idx]}


def cusum_flags_arrays(ids, t, v, window_size=5, threshold=3.0):
    """Flagged jump rows (sequential CUSUM reset cascade)."""
    idx = K.cusum_jumps(v, window_size, threshold)
    return {"event_id": ids[idx]}


def cusum_flags_q_arrays(ids, t, v, window_size=5, threshold=3.0):
    """Flagged jump rows under the micro-quantized CUSUM — unlike the raw
    float fold this IS SQL-expressible (integer prefix sums + a recursive
    CTE), certifying the D2 reset-scan semantics value-exactly."""
    idx = K.cusum_jumps_quantized(v, window_size, threshold)
    return {"event_id": ids[idx]}


def jump_corrected_arrays(ids, t, v, window_size=5, threshold=3.0):
    """Composed D2→C2 on the quantized jump set: detect (quantized CUSUM)
    then offset-correct (median-of-w before/after from ORIGINAL values,
    cumulative, processor.py:376-401).  Emits every row so the oracle
    certifies the full corrected series, not just the jump rows."""
    idx = K.cusum_jumps_quantized(v, window_size, threshold)
    v2 = K.correct_jumps(v, idx, window_size)
    return {"event_id": ids, "value_jumpcorr": round_half_away(v2, 6)}


def corrected_series_arrays(ids, t, v, config=None):
    """Full 3-step corrected series; gap-inserted rows get event_id = -1
    → (t, value_corrected, inserted)."""
    t2, v2 = K.process_series(t, v, config)
    # map original ids onto surviving timestamps (inserted rows: id -1),
    # vectorized: t is sorted, so searchsorted(side="right")-1 finds the
    # LAST original row at each (int-truncated) timestamp — the same
    # last-wins tie rule the previous dict-based mapping had
    t2i = t2.astype(np.int64)
    pos = np.searchsorted(t, t2i, side="right") - 1
    safe = np.maximum(pos, 0)
    hit = (pos >= 0) & (t[safe] == t2i)
    out_ids = np.where(hit, ids[safe], np.int64(-1))
    return {
        "t": t2i,
        "value_corrected": round_half_away(v2, 6),
        "inserted": out_ids == -1,
    }


def tail_nonzero_avg_arrays(ids, t, v, n=5):
    """(tail_avg, head_avg): non-zero mean of the last/first n values by
    (ts, event_id) — the level-shift building block (A6)."""
    return {
        "tail_avg": np.array([round_half_away(K.nonzero_mean(v[-n:]), 6)]),
        "head_avg": np.array([round_half_away(K.nonzero_mean(v[:n]), 6)]),
    }


def level_shift_arrays(ids, t, v, n=5):
    """Year-boundary level-shift fold mapped to (user, day) segments:
    each day's values aligned to the corrected previous day's tail
    (cumulative, apply_refined_corrections semantics).  Emits the per-
    boundary shift log: (segment, shift)."""
    days = (t // 86400).astype(np.int64)
    uniq = np.unique(days)
    segments = [v[days == d] for d in uniq]
    _, shifts = K.level_shift_fold(segments, min_rows=n)
    return {
        "segment": uniq,
        "shift": round_half_away(np.asarray(shifts, np.float64), 6),
    }


def _gap_fill_base(t, v):
    """Shared C1 front half: detect gaps, synthesize timestamps, align."""
    gaps = K.detect_gaps(t)
    new_times = K.gap_fill_times(t, gaps)
    t_all = np.concatenate([t, new_times])
    flag = np.concatenate([np.zeros(len(t), dtype=bool),
                           np.ones(len(new_times), dtype=bool)])
    v_all = np.concatenate([v, np.full(len(new_times), np.nan)])
    order = np.argsort(t_all, kind="stable")
    return t_all[order], v_all[order], flag[order]


def gap_fill_arrays(ids, t, v):
    """Gap step in ISOLATION (detect_gaps → insert → positional linear
    interpolation, reference C1 without the jump/outlier passes) so the
    insertion arithmetic — banker's-rounded missing count, linspace
    truncation, exact endpoint, positional interp — is SQL-checkable.
    Returns (t, value_filled, inserted)."""
    t_all, v_all, flag = _gap_fill_base(t, v)
    v_out = K.interp_positional(v_all, "linear")
    return {
        "t": t_all.astype(np.int64),
        "value_filled": round_half_away(v_out, 6),
        "inserted": flag,
    }


def corrected_nojump_arrays(ids, t, v):
    """Two-step composed correction, fully SQL-checkable: gap insertion +
    positional interpolation (C1), then Hampel detection with masked
    rolling-median replacement (D3+C3) on the QUANTIZED filled series —
    the 6dp rounding between steps makes both engines see identical
    doubles at the Hampel input, so the composition (not just each step
    in isolation) is oracle-exact.  The CUSUM jump step is excluded: its
    sequential reset cascade is the one reference kernel that is not
    SQL-expressible.  Returns (t, value_corrected, inserted)."""
    t_all, v_all, flag = _gap_fill_base(t, v)
    v_filled = round_half_away(K.interp_positional(v_all, "linear"), 6)
    idx = K.hampel_outliers(v_filled, 5, 3.0, variant="processor")
    v_out = K.correct_outliers(v_filled, idx, 5, "median") \
        if len(idx) else v_filled
    return {
        "t": t_all.astype(np.int64),
        "value_corrected": round_half_away(v_out, 6),
        "inserted": flag,
    }


def corrected_full_arrays(ids, t, v):
    """The COMPLETE 3-step composed correction, fully SQL-checkable:
    gap insertion + positional interpolation (C1), Hampel with masked
    rolling-median replacement (D3+C3), then the QUANTIZED CUSUM jump
    cascade + cumulative median-offset correction (D2+C2).  6dp rounding
    between steps and int64-micro deviations make every stage's input
    identical on both engines, so the full composition — all five
    reference correction operators chained — is oracle-exact.
    Returns (t, value_corrected, inserted)."""
    out = corrected_nojump_arrays(ids, t, v)
    v2 = out["value_corrected"]
    jumps = K.cusum_jumps_quantized(v2, 5, 3.0)
    v3 = K.correct_jumps(v2, jumps, 5) if len(jumps) else v2
    return {**out, "value_corrected": round_half_away(v3, 6)}


# --- the partition-group driver ---------------------------------------------

def _epoch_seconds_array(col: pa.ChunkedArray) -> np.ndarray:
    """Epoch seconds int64 from an int64 or timestamp arrow column."""
    if pa.types.is_timestamp(col.type):
        us = col.cast(pa.timestamp("us")).cast(pa.int64())
        return us.to_numpy(zero_copy_only=False) // 1_000_000
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


class _PerSeriesPartition:
    """Arrow-in/arrow-out partition-group kernel: lexsort once, slice
    per-series numpy views, run the array kernel per series, emit one
    concatenated Arrow table; the key column is gathered from the
    ORIGINAL arrow column with a single ``pc.take`` (dtype preserved for
    int and string keys alike)."""

    def __init__(self, afn, key_col="user_id", id_col="event_id",
                 ts_col="ts", value_col="value", **kwargs):
        self.afn = afn
        self.key_col, self.id_col = key_col, id_col
        self.ts_col, self.value_col = ts_col, value_col
        self.kwargs = kwargs
        self.__name__ = getattr(afn, "__name__", "per_series_kernel")

    def __call__(self, tbl: pa.Table) -> pa.Table:
        key_arr = tbl[self.key_col].combine_chunks()
        t = _epoch_seconds_array(tbl[self.ts_col])
        ids = tbl[self.id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = tbl[self.value_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        codes, _ = pd.factorize(key_arr.to_pandas(), sort=False)
        order = np.lexsort((ids, t, codes))
        t_s, v_s, ids_s = t[order], v[order], ids[order]
        outs, key_rows, out_lens = [], [], []
        for s, e in zip(*_segment_starts(codes[order])):
            out = self.afn(ids_s[s:e], t_s[s:e], v_s[s:e], **self.kwargs)
            outs.append(out)
            key_rows.append(order[s])
            out_lens.append(len(next(iter(out.values()))))
        names = list(outs[0].keys())
        data = {c: np.concatenate([o[c] for o in outs]) for c in names}
        key_idx = np.repeat(np.asarray(key_rows, np.int64),
                            np.asarray(out_lens, np.int64))
        key_out = pc.take(key_arr, pa.array(key_idx))
        return pa.table({self.key_col: key_out,
                         **{c: pa.array(a) for c, a in data.items()}})


def _grouped(events, afn, **kwargs):
    """Run a per-series array kernel over every series of a partition group.

    The shuffle co-locates users by a sort on their hash (one call per
    block, see :func:`stages.joins.partition_groups`) instead of grouping
    by user: the kernels stay sequential per series
    (order-dependent folds — that's their semantics), but Ray's per-group
    machinery (a block slice, conversion and task result PER KEY —
    billions of keys at scale) collapses to one call per partition with
    cheap in-process slicing.  Blocks stay Arrow end to end."""
    return partition_groups(events, "user_id",
                            _PerSeriesPartition(afn, **kwargs),
                            batch_format="pyarrow")


def gap_counts(events, threshold_factor=3.0):
    return _grouped(events, gap_counts_arrays,
                    threshold_factor=threshold_factor)


def global_mad_outlier_counts(events, threshold=3.0):
    return _grouped(events, global_mad_arrays, threshold=threshold)


def hampel_flags(events, window_size=5, threshold=3.0):
    return _grouped(events, hampel_flags_arrays, window_size=window_size,
                    threshold=threshold)


def cusum_flags(events, window_size=5, threshold=3.0):
    return _grouped(events, cusum_flags_arrays, window_size=window_size,
                    threshold=threshold)


def cusum_flags_quantized(events, window_size=5, threshold=3.0):
    return _grouped(events, cusum_flags_q_arrays, window_size=window_size,
                    threshold=threshold)


def jump_corrected_series(events, window_size=5, threshold=3.0):
    return _grouped(events, jump_corrected_arrays, window_size=window_size,
                    threshold=threshold)


def gap_filled_series(events):
    return _grouped(events, gap_fill_arrays)


def corrected_series(events, config=None):
    return _grouped(events, corrected_series_arrays, config=config)


def tail_nonzero_avgs(events, n=5):
    return _grouped(events, tail_nonzero_avg_arrays, n=n)


def level_shifts(events, n=5):
    return _grouped(events, level_shift_arrays, n=n)


def corrected_series_nojump(events):
    return _grouped(events, corrected_nojump_arrays)


def corrected_series_full(events):
    return _grouped(events, corrected_full_arrays)
