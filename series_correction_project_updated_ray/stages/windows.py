"""Streaming-window operators beyond tumbling rollups.

The reference is pure batch (SURVEY.md §2.11); these are the rebuild's
stream-shaped operators, implemented as per-key kernels over event-time-
sorted groups (the Ray Data streaming pattern: partition by key, sort
within group, window with numpy — no watermark machinery needed on batch
data).  All three are exactly SQL-expressible, so they are oracle-checked:

* session windows (gap timeout) → per-session aggregates;
* sliding event-time window (RANGE frame) → per-point trailing mean;
* as-of join (latest prior right-side row per left row).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .joins import (_segment_starts, _with_hash, key_runs, keyed_exchange,
                    partition_groups)
from .rollup import _epoch_seconds, combine, sums_of
from ..functions.frames import arrow_table
from ..functions.rounding import round_half_away, scaled_int


def _epoch_micros(ts_col) -> "np.ndarray":
    """Arrow or pandas column → int64 epoch MICROseconds (the engine-wide
    tie convention): datetime columns via ns normalization, numeric
    columns are epoch seconds."""
    ts = ts_col if isinstance(ts_col, pd.Series) else ts_col.to_pandas()
    if pd.api.types.is_datetime64_any_dtype(ts):
        return ts.astype("datetime64[ns]").astype("int64").to_numpy() // 1000
    return ts.to_numpy(np.int64) * 1_000_000


def _prep_events(events, cols=("user_id", "event_id", "value")):
    """Project to (key cols..., t=epoch micros) — the shared prep map."""
    def _prep(batch: pa.Table) -> pa.Table:
        out = {c: batch[c] for c in cols}
        out["t"] = pa.array(_epoch_micros(batch["ts"]))
        return pa.table(out)
    return events.map_batches(_prep, batch_format="pyarrow")


def run_per_key(events, kernel):
    """The one driver of the per-key event kernels: project ``events`` to
    the kernel class's ``COLS`` (default user_id, event_id, value) plus
    ``t``, co-locate whole keys of its ``KEY`` (default user_id) in one
    keyed exchange, and run ``kernel`` once per block.  A registry row
    that names a kernel class runs through here."""
    cols = getattr(kernel, "COLS", ("user_id", "event_id", "value"))
    return partition_groups(_prep_events(events, cols),
                            getattr(kernel, "KEY", "user_id"), kernel)


def _epoch_seconds(ts: pd.Series) -> np.ndarray:
    """Seconds-resolution epoch ints — the session-gap time base."""
    if pd.api.types.is_datetime64_any_dtype(ts):
        return (ts.astype("datetime64[ns]").astype("int64").to_numpy()
                // 1_000_000_000)
    return ts.to_numpy(np.int64)


def _session_boundaries(codes: np.ndarray, t: np.ndarray,
                        timeout_s: int) -> np.ndarray:
    """Boundary mask of the (codes, t)-sorted stream: True where a new
    key starts or the inter-event gap exceeds ``timeout_s`` — THE
    session rule, shared by every sessionizing kernel so the semantics
    can never drift apart."""
    n = len(t)
    boundary = np.ones(n, dtype=bool)
    if n > 1:
        boundary[1:] = (codes[1:] != codes[:-1]) \
            | (np.diff(t) > timeout_s)
    return boundary


class SessionWindows:
    """Per-PARTITION kernel: sessions split where the inter-event gap
    exceeds ``timeout_s``; emits (key, session_id [1-based per key],
    n_events, t_start, t_end).  All keys co-located in one partition
    group are sessionized by one lexsort + boundary scan — no per-key
    Python calls (a key per call is billions of calls at web scale)."""

    def __init__(self, timeout_s: int = 1800):
        self.timeout_s = timeout_s

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, kstarts, _ = key_runs(
            g, by=(_epoch_seconds(g["ts"]), "event_id"))
        t = _epoch_seconds(rows["ts"])
        boundary = _session_boundaries(codes, t, self.timeout_s)
        starts, ends = _segment_starts(np.cumsum(boundary))
        # 1-based session index WITHIN each key: session ordinal minus the
        # ordinal of the key's first session (a key start is a boundary)
        first_of_key = np.searchsorted(starts, kstarts)
        runs = np.diff(np.r_[first_of_key, len(starts)])
        sid = (np.arange(len(starts), dtype=np.int64)
               - np.repeat(first_of_key, runs) + 1)
        return pd.DataFrame({
            "user_id": keys[starts],
            "session_id": sid,
            "n_events": (ends - starts).astype(np.int64),
            "t_start": t[starts],
            "t_end": t[ends - 1],
        })


class SlidingMean:
    """Per-PARTITION kernel: trailing event-time window mean — for each
    point, the mean of same-key values with t in [t_i - width, t_i]
    (inclusive RANGE frame).  One lexsort per partition; window bounds
    via two searchsorted calls per co-located key (tiny slices — the
    per-key Ray group overhead this replaces is orders of magnitude
    bigger), prefix-sum mean evaluated vectorized over the whole
    partition."""

    def __init__(self, width_s: int = 300):
        self.width_s = width_s

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # microsecond resolution so RANGE-frame tie semantics can't differ
        # from the SQL oracle (second-floored times could alias two events)
        rows, keys, _, starts, ends = key_runs(
            g, by=(_epoch_micros(g["ts"]), "event_id"))
        t = _epoch_micros(rows["ts"])
        v = rows["value"].to_numpy(np.float64)
        means = np.empty(len(t), dtype=np.float64)
        w = self.width_s * 1_000_000
        for s, e in zip(starts, ends):
            seg = t[s:e]
            # SEGMENT-local prefix sums: bit-identical float arithmetic
            # to the per-group kernel this replaces (a partition-global
            # cumsum would drift by accumulated ulps near round
            # boundaries)
            csum = np.r_[0.0, np.cumsum(v[s:e])]
            lo = np.searchsorted(seg, seg - w, side="left")
            # RANGE frames include ALL peer rows with the same ordering
            # value: the upper bound is the last tie, not the current row
            hi = np.searchsorted(seg, seg, side="right")
            means[s:e] = (csum[hi] - csum[lo]) / (hi - lo)
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "sliding_mean": round_half_away(means, 6),
        })


class AsofJoinGroup:
    """Per-PARTITION cogroup kernel: each left row matched to the LATEST
    right row with right.t <= left.t of the same key; unmatched left rows
    keep nulls — pandas.merge_asof semantics ≡ SQL ASOF LEFT JOIN.  One
    lexsort per partition; one searchsorted per co-located key."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(g)
        t = rows["t"].to_numpy(np.int64)
        ids = rows["event_id"].to_numpy()
        is_l = rows["__side"].to_numpy() == "l"
        rv_all = rows["value"].to_numpy(np.float64)
        matched = np.full(len(t), np.nan)
        for s, e in zip(starts, ends):
            m = is_l[s:e]
            rt = t[s:e][~m]
            if len(rt):
                rv = rv_all[s:e][~m]
                pos = np.searchsorted(rt, t[s:e][m], side="right") - 1
                matched[s:e][m] = np.where(
                    pos >= 0, rv[np.clip(pos, 0, None)], np.nan)
        return pd.DataFrame({
            "user_id": keys[is_l],
            "event_id": ids[is_l],
            "last_purchase_value": round_half_away(matched[is_l], 6),
        })


def session_windows(events, timeout_s=1800):
    return partition_groups(events, "user_id", SessionWindows(timeout_s))


def sliding_mean(events, width_s=300):
    return partition_groups(events, "user_id", SlidingMean(width_s))


def asof_join_events(events, right_type="purchase"):
    """Each event matched to the user's latest prior-or-equal event of
    ``right_type`` — one co-grouped shuffle (union + groupby)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def _prep(batch: pa.Table, side: str) -> pa.Table:
        # microseconds — exact tie semantics vs the epoch_us SQL oracle;
        # numeric ts columns are epoch SECONDS (same dtype branch as every
        # sibling operator), not nanoseconds
        t = _epoch_micros(batch["ts"])
        out = pa.table({
            "user_id": batch["user_id"],
            "event_id": batch["event_id"],
            "t": pa.array(t),
            "value": batch["value"],
            "__side": pa.array([side] * len(batch), pa.string()),
        })
        if side == "r":
            out = out.filter(pc.equal(batch["event_type"], right_type))
        return out

    return keyed_exchange(
        [(events, lambda b, side=side: _with_hash(_prep(b, side),
                                                  ["user_id"]))
         for side in ("l", "r")], AsofJoinGroup(), batch_format="pandas")


class _TopNPerGroup:
    """Per-PARTITION kernel: ROW_NUMBER() OVER (PARTITION BY …) <= n for
    every group co-located in the partition — one pandas stable sort +
    cython cumcount, no per-group Python calls."""

    def __init__(self, group_col, sort_cols, descending, n):
        self.group_col, self.sort_cols = group_col, sort_cols
        self.descending, self.n = descending, n

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        out = g.sort_values(
            [self.group_col] + list(self.sort_cols),
            ascending=[True] + [not d for d in self.descending],
            kind="stable")
        # dropna=False: null group keys rank as their own group instead
        # of producing NaN ranks that astype(int64) would throw on
        rn = out.groupby(self.group_col, sort=False,
                         dropna=False).cumcount() + 1
        out = out.assign(rn=rn.astype(np.int64))
        return out[out["rn"] <= self.n]


def topn_per_group(ds, group_col: str, sort_cols: list[str],
                   descending: list[bool], n: int):
    """Top-n rows per group with a rank column (deterministic only if
    ``sort_cols`` is a total order within a group — pass a unique
    tiebreak column).  One shuffle (the partition groupby); ranking is
    one vectorized sort + cumcount per partition."""
    return partition_groups(
        ds, group_col, _TopNPerGroup(group_col, sort_cols, descending, n))


class RangeJoinAggGroup:
    """Per-block kernel (every user of the block whole): each left row
    aggregated over the same user's right rows whose timestamp falls in
    [t_left - window, t_left] (inclusive — microsecond semantics,
    matching the SQL BETWEEN oracle).

    Vectorized: rights sorted once, two searchsorted calls give each left
    row's window bounds, a cents-scaled prefix sum makes the per-window
    value sums exact integer arithmetic (no float accumulation drift, so
    the LEFT JOIN oracle matches at atol=0).
    """

    def __init__(self, window_us: int):
        self.window_us = window_us

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(g, by=("t",))
        t = rows["t"].to_numpy(np.int64)
        is_l = rows["__side"].to_numpy() == "l"
        # a NULL right value counts in n_in_range and adds 0 to vsum (the
        # oracle's COALESCE(SUM(cents), 0))
        v = rows["value"].to_numpy(np.float64)
        v100_all = scaled_int(np.where(np.isnan(v), 0.0, v))
        n_in = np.zeros(len(t), dtype=np.int64)
        vsum = np.zeros(len(t))
        for s, e in zip(starts, ends):
            m = is_l[s:e]
            tl = t[s:e][m]
            tr = t[s:e][~m]
            csum = np.concatenate([[0], np.cumsum(v100_all[s:e][~m])])
            lo = np.searchsorted(tr, tl - self.window_us, side="left")
            hi = np.searchsorted(tr, tl, side="right")
            n_in[s:e][m] = hi - lo
            vsum[s:e][m] = (csum[hi] - csum[lo]) / 100.0
        return pd.DataFrame({
            "user_id": keys[is_l],
            "event_id": rows["event_id"].to_numpy()[is_l],
            "t": t[is_l],
            "n_in_range": n_in[is_l],
            "vsum": vsum[is_l],
        })


def range_join_agg(events, *, left_type="purchase", right_type="click",
                   window_s: int = 3600):
    """Interval/range join as aggregation: for every ``left_type`` event,
    count + exact value-sum of the same user's ``right_type`` events in the
    trailing ``window_s`` window.  One co-grouped shuffle (tagged union +
    groupby on the user key) — the same partitioning-key-reuse pattern as
    the as-of join; no all-pairs blowup because the join collapses to a
    per-left aggregate inside the group kernel."""
    import pyarrow.compute as pc

    def _prep(batch: pa.Table, side: str, typ: str) -> pa.Table:
        t = _epoch_micros(batch["ts"])
        out = pa.table({
            "user_id": batch["user_id"],
            "event_id": batch["event_id"],
            "t": pa.array(t),
            "value": batch["value"],
            "__side": pa.array([side] * len(batch), pa.string()),
        })
        return out.filter(pc.equal(batch["event_type"], typ))

    return keyed_exchange(
        [(events, lambda b, side=side, typ=typ:
          _with_hash(_prep(b, side, typ), ["user_id"]))
         for side, typ in (("l", left_type), ("r", right_type))],
        RangeJoinAggGroup(window_s * 1_000_000), batch_format="pandas")


class FunnelGroup:
    """Per-block kernel (every user of the block whole): per user, the
    first ``first_type`` event, then the first ``then_type`` event
    at-or-after it — the 2-step funnel / sequence-match shape
    (MATCH_RECOGNIZE's simplest pattern).  Emits one row per converting
    user with the conversion latency."""

    def __init__(self, first_type: str, then_type: str):
        self.first_type, self.then_type = first_type, then_type

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(g, by=())
        ts = rows["t"].to_numpy(np.int64)
        typ = rows["event_type"].to_numpy()
        lens = ends - starts
        BIG = np.iinfo(np.int64).max
        # per-key min A timestamp, then min B timestamp at-or-after it —
        # two masked reduceat min-scans, no per-key Python
        t0 = np.minimum.reduceat(
            np.where(typ == self.first_type, ts, BIG), starts)
        t1 = np.minimum.reduceat(
            np.where((typ == self.then_type)
                     & (ts >= np.repeat(t0, lens)), ts, BIG), starts)
        conv = (t0 < BIG) & (t1 < BIG)
        return pd.DataFrame({
            "user_id": keys[starts][conv],
            "t_first": t0[conv],
            "t_then": t1[conv],
            "latency_s": (t1[conv] - t0[conv]) // 1_000_000,
        })


def funnel(events, *, first_type="click", then_type="purchase"):
    """Per-user 2-step funnel conversion (first→then) — one
    partition-group shuffle; the kernel funnels every co-located user in
    two masked reduceat min-scans.  Timestamps compare in microseconds
    (the engine-wide tie convention)."""

    def _prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = _epoch_micros(batch["ts"])
        out = pa.table({"user_id": batch["user_id"],
                        "event_type": batch["event_type"],
                        "t": pa.array(t)})
        keep = pc.is_in(out["event_type"],
                        value_set=pa.array([first_type, then_type]))
        return out.filter(keep)

    return partition_groups(
        events.map_batches(_prep, batch_format="pyarrow"), "user_id",
        FunnelGroup(first_type, then_type))


class RunningSumGroup:
    """Per-PARTITION kernel: cumulative sum/count over each key's
    event-time order — the SUM(...) OVER (PARTITION BY key ORDER BY ts,
    id ROWS UNBOUNDED PRECEDING) window shape, segmented-vectorized for
    every key in the partition group (global int64 cents cumsum minus
    per-segment base; exact, so the oracle matches at atol=0)."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(g)
        # a NULL value adds nothing to SQL's SUM OVER, and the sum stays
        # NULL until the key's first non-NULL value
        v = rows["value"].to_numpy(np.float64)
        has = ~np.isnan(v)
        v100 = scaled_int(np.where(has, v, 0.0))
        # segmented prefix sums via one global cumsum; the guard keeps the
        # GLOBAL magnitude inside int64 (per-key prefixes alone don't
        # bound it once many keys share a partition)
        if float(np.abs(v100).sum(dtype=np.float64)) > 2**62:
            raise OverflowError(
                "running_sum: partition cents magnitude exceeds int64 — "
                "one block of the keyed exchange holds more cents than "
                "int64 can sum")
        lens = ends - starts
        cs = np.cumsum(v100)
        base = cs[starts] - v100[starts]
        running = cs - np.repeat(base, lens)
        n_has = np.cumsum(has)
        n_has -= np.repeat(n_has[starts] - has[starts], lens)
        counts = (np.arange(len(rows), dtype=np.int64)
                  - np.repeat(starts, lens) + 1)
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": rows["t"].to_numpy(np.int64),
            "running_sum": np.where(n_has > 0, running / 100.0, np.nan),
            "running_count": counts,
        })


class LagDeltaGroup:
    """Per-partition kernel: SQL LAG diffs over each key's event-time
    order — ``dv`` = value - lag(value) (cents-exact arithmetic, one
    float division on output) and ``dt_us`` = t - lag(t); the first row
    of every key emits NULL for both, matching LAG's default."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, _ = key_runs(g)
        t = rows["t"].to_numpy(np.int64)
        v = rows["value"].to_numpy(np.float64)
        null = np.isnan(v)
        v100 = scaled_int(np.where(null, 0.0, v))
        dv = np.full(len(t), np.nan)
        dt = np.full(len(t), np.nan)
        dv[1:] = (v100[1:] - v100[:-1]) / 100.0
        dv[1:][null[1:] | null[:-1]] = np.nan   # a NULL operand → NULL
        dt[1:] = (t[1:] - t[:-1]).astype(np.float64)
        dv[starts] = np.nan
        dt[starts] = np.nan
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": t,
            "dv": dv,
            "dt_us": dt,
        })


class EventSequenceGroup:
    """Per-partition kernel: each user's event-type sequence joined in
    (ts, event_id) order — the string_agg / collect_list shape that
    builds behavioral sequences for sequence-model training."""

    COLS = ("user_id", "event_id", "event_type")

    def __init__(self, sep: str = "->"):
        self.sep = sep

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(g)
        types = rows["event_type"].to_numpy()
        # string_agg semantics: NULL event_types are skipped inside the
        # join (an all-NULL group emits NULL seq) while COUNT(*) keeps
        # every row; a NULL user_id is its own group
        seqs = []
        for s, e in zip(starts, ends):
            ts_ = [x for x in types[s:e] if x is not None
                   and not (isinstance(x, float) and np.isnan(x))]
            seqs.append(self.sep.join(ts_) if ts_ else None)
        return pd.DataFrame({
            "user_id": keys[starts],
            "seq": pd.Series(seqs, dtype=object),
            "n_events": (ends - starts).astype(np.int64),
        })


class TimeWeightedAvgGroup:
    """Per-partition kernel: trapezoidal time-weighted average of every
    (key, window) cell — Σ dt·(c_i + c_{i+1}) over consecutive points in
    (t, id) order, divided by 2·span.  Integer-exact numerator (cents ×
    micros in int64, overflow-guarded), one float division sequence on
    output identical to the oracle.  Cells with <2 points or zero span
    emit NULL (undefined integral)."""

    def __init__(self, width_s: int):
        self.width_us = width_s * 1_000_000

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        t = g["t"].to_numpy(np.int64)
        rows, keys, codes, _, _ = key_runs(
            g, by=(t // self.width_us, "t", "event_id"))
        t = rows["t"].to_numpy(np.int64)
        w = t // self.width_us * self.width_us
        v = rows["value"].to_numpy(np.float64)
        c = scaled_int(np.where(np.isnan(v), 0.0, v))  # bridged below
        n = len(t)
        starts, ends = _segment_starts(codes, w)
        has_term = np.zeros(len(starts), dtype=bool)
        if n > 1:
            dt = t[1:] - t[:-1]
            cs = c[1:] + c[:-1]
            # the pair that BRIDGES two cells never contributes (and its
            # epoch-scale dt would both wrap the int64 product and trip
            # the guard) — mask it BEFORE guarding and multiplying; a
            # pair with a NULL (NaN) value drops out of the SQL SUM too
            bridge = np.isnan(v[1:]) | np.isnan(v[:-1])
            bridge[starts[1:] - 1] = True
            n_term = np.r_[0, np.cumsum(~bridge)]
            has_term = n_term[ends - 1] > n_term[starts]
            fdt = np.where(bridge, 0.0, dt.astype(np.float64))
            fcs = np.abs(cs).astype(np.float64)
            if float((fdt * fcs).sum()) > 2**62:
                raise OverflowError(
                    "time_weighted_avg: trapezoid numerator approaching "
                    "int64 — use narrower windows or limb accumulation")
            term = np.where(bridge, np.int64(0), dt) * cs
            tsum = np.concatenate([[0], np.cumsum(term)])
            segsum = tsum[ends - 1] - tsum[starts]
        else:
            segsum = np.zeros(len(starts), dtype=np.int64)
        span = t[ends - 1] - t[starts]
        cnt = (ends - starts).astype(np.int64)
        ok = (cnt >= 2) & (span > 0) & has_term
        twa = np.full(len(starts), np.nan)
        with np.errstate(invalid="ignore"):
            twa[ok] = segsum[ok].astype(np.float64) \
                / span[ok].astype(np.float64) / 200.0
        from ..functions.rounding import round_half_away
        twr = round_half_away(twa, 6)
        return pd.DataFrame({
            "user_id": keys[starts],
            "window_start": (w[starts] // 1_000_000),
            "twa": np.where(ok, twr, np.nan),
            "n": cnt,
        })


class TrendGroup:
    """Per-partition kernel: least-squares trend of every (key, window)
    cell — slope in value/second, intercept at the window start — the
    drift detector and regression analogue of the window mean.  All
    five sums (n, Σt, Σv, Σtv, Σt²) are exact int64 — t is SECONDS
    relative to the window start (≤ width, so t² stays tiny) and v is
    cents — and the closed-form division runs the identical float op
    order as the oracle.  Cells with <2 points, zero time variance or
    no non-NULL value emit NULL."""

    COLS = ("user_id", "value")

    def __init__(self, width_s: int):
        self.width_s = width_s

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        ts = g["t"].to_numpy(np.int64) // 1_000_000  # epoch seconds
        rows, keys, codes, _, _ = key_runs(
            g, by=(ts - ts % self.width_s, ts))
        ts = rows["t"].to_numpy(np.int64) // 1_000_000
        w = ts - ts % self.width_s
        val = rows["value"].to_numpy(np.float64)
        # SQL's SUM(cents) skips a NULL value; COUNT(*) keeps its row
        has = ~np.isnan(val)
        v = scaled_int(np.where(has, val, 0.0))
        t = ts - w  # 0 ≤ t < width
        starts, ends = _segment_starts(codes, w)
        cnt = (ends - starts).astype(np.int64)
        st = np.add.reduceat(t, starts)
        sv = np.add.reduceat(v, starts)
        stv = np.add.reduceat(t * v, starts)
        stt = np.add.reduceat(t * t, starts)
        # numerator/denominator in EXACT integer arithmetic (object
        # arrays = arbitrary-precision Python ints): n·Σtv can exceed
        # 2^53, and the oracle computes the HUGEINT product exactly
        # before its single CAST to double
        num_i = (cnt.astype(object) * stv.astype(object)
                 - st.astype(object) * sv.astype(object))
        den_i = (cnt.astype(object) * stt.astype(object)
                 - st.astype(object) * st.astype(object))
        denom = np.array([float(x) for x in den_i], dtype=np.float64)
        numf = np.array([float(x) for x in num_i], dtype=np.float64)
        nf = cnt.astype(np.float64)
        stf, svf = st.astype(np.float64), sv.astype(np.float64)
        ok = (cnt >= 2) & (denom > 0.0) \
            & np.logical_or.reduceat(has, starts)
        slope = np.full(len(starts), np.nan)
        intercept = np.full(len(starts), np.nan)
        with np.errstate(invalid="ignore"):
            slope[ok] = numf[ok] / denom[ok] / 100.0
            intercept[ok] = (svf[ok] / nf[ok] / 100.0
                             - slope[ok] * (stf[ok] / nf[ok]))
        from ..functions.rounding import round_half_away
        return pd.DataFrame({
            "user_id": keys[starts],
            "window_start": w[starts],
            "slope": np.where(ok, round_half_away(slope, 6), np.nan),
            "intercept": np.where(ok, round_half_away(intercept, 6),
                                  np.nan),
            "n": cnt,
        })


class InterarrivalGroup:
    """Per-partition kernel: inter-event-time statistics per key — count,
    mean gap, and coefficient of variation (the burstiness signal: CV≈1
    Poisson, >1 bursty, <1 regular).  Gaps are EPOCH-SECOND diffs in the
    (ts, event_id) order, so Σdt telescopes to an exact span and Σdt² is
    an exact (guarded) int64 sum; the float formula runs in oracle op
    order.  Keys with <2 gaps or zero mean emit NULL stats."""

    COLS = ("user_id", "event_id")

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(g)
        # epoch seconds (flooring preserves order)
        ts = rows["t"].to_numpy(np.int64) // 1_000_000
        cnt = (ends - starts).astype(np.int64)
        n = len(ts)
        if n > 1:
            dt = ts[1:] - ts[:-1]
            bridge = np.zeros(n - 1, dtype=bool)
            bridge[starts[1:] - 1] = True
            dt = np.where(bridge, np.int64(0), dt)
            fdt = dt.astype(np.float64)
            if float((fdt * fdt).sum()) > 2**62:
                raise OverflowError(
                    "interarrival_stats: Σdt² approaching int64 — "
                    "accumulate in (hi, lo) limbs")
            c2 = np.concatenate([[0], np.cumsum(dt * dt)])
            sq = (c2[ends - 1] - c2[starts]).astype(np.float64)
        else:
            sq = np.zeros(len(starts))
        span = (ts[ends - 1] - ts[starts]).astype(np.float64)  # Σdt exact
        m = cnt - 1  # gap count per key
        ok = m >= 2
        mean_dt = np.full(len(starts), np.nan)
        cv = np.full(len(starts), np.nan)
        with np.errstate(invalid="ignore", divide="ignore"):
            mf = m.astype(np.float64)
            mean_dt[ok] = span[ok] / mf[ok]
            var = sq[ok] / mf[ok] - mean_dt[ok] * mean_dt[ok]
            cv[ok] = np.sqrt(np.maximum(var, 0.0)) / mean_dt[ok]
        good = ok & (mean_dt > 0)
        from ..functions.rounding import round_half_away
        return pd.DataFrame({
            "user_id": keys[starts],
            "n_events": cnt,
            "mean_dt_s": np.where(good, round_half_away(mean_dt, 6),
                                  np.nan),
            "cv_dt": np.where(good, round_half_away(cv, 6), np.nan),
        })


class SessionCooccurrence:
    """Per-PARTITION combiner for session-level event-type
    co-occurrence (market-basket over session windows): sessionize
    every co-located key with the :class:`SessionWindows` boundary
    scan, reduce each session to its DISTINCT event types, emit every
    unordered type pair (a < b, binary/lexicographic — type codes come
    from the SORTED unique array so the pair order matches SQL string
    comparison) once per session, and return PARTIAL pair counts —
    ≤ |types|² rows leave each partition, so the final groupby moves a
    few hundred bytes per block regardless of corpus size.  Null keys
    drop (the oracle's equi-self-join semantics)."""

    def __init__(self, timeout_s: int = 1800):
        self.timeout_s = timeout_s

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, _, codes, _, _ = key_runs(
            g, by=(_epoch_seconds(g["ts"]), "event_id"),
            keep=g["user_id"].notna())
        t = _epoch_seconds(rows["ts"])
        types = rows["event_type"].to_numpy()
        boundary = _session_boundaries(codes, t, self.timeout_s)
        gsid = np.cumsum(boundary) - 1          # global session ordinal
        # NULL types shape session boundaries (they are events) but pair
        # with nothing — the oracle's a < b comparison is never true for
        # NULL — so drop them AFTER sessionizing
        nn = ~pd.isnull(types)
        gsid, types = gsid[nn], types[nn]
        uniq_types = np.unique(types)           # SORTED: code order ==
        ntypes = len(uniq_types)                # lexicographic order
        tcode = np.searchsorted(uniq_types, types)
        # distinct (session, type) cells, session-major then type-asc
        cells = np.unique(gsid * np.int64(ntypes) + tcode)
        sess_of = cells // ntypes
        tc = cells % ntypes
        starts, ends = _segment_starts(sess_of)
        m = len(cells)
        counts = np.repeat(ends, ends - starts) - np.arange(m) - 1
        P = int(counts.sum())
        a = np.repeat(np.arange(m), counts)
        cum0 = np.r_[0, np.cumsum(counts)][:-1]
        b = a + 1 + (np.arange(P) - np.repeat(cum0, counts))
        pairkey = tc[a].astype(np.int64) * ntypes + tc[b]
        u, cnt = np.unique(pairkey, return_counts=True)
        return pd.DataFrame({
            "type_a": uniq_types[u // ntypes],
            "type_b": uniq_types[u % ntypes],
            "cnt": cnt.astype(np.int64),
        })


def session_cooccurrence(events, timeout_s: int = 1800):
    """Event-type co-occurrence within session windows (the
    market-basket / association screen): for every unordered pair of
    event types, the number of sessions containing BOTH.  One
    partition-group shuffle + a tiny ≤|types|²-row final groupby of
    per-partition partial counts."""
    partials = partition_groups(
        events, "user_id", SessionCooccurrence(timeout_s))
    return combine(partials, ["type_a", "type_b"],
                   [("cnt", "sum", "n_sessions")])


# --- event-path mining ----------------------------------------------------------

class _PathTrigramPartial:
    """Per-partition kernel for :func:`top_event_paths`: each key's
    event-type stream in (t, event_id) order emits its length-3
    transition paths ``a>b>c``; the partition-local (path, cnt)
    Counter partial keeps the shuffle at |path-vocab| rows."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter
        rows, _, codes, _, _ = key_runs(g, keep=g["user_id"].notna())
        et = rows["event_type"].to_numpy()
        c: "Counter[str]" = Counter()
        idx = np.flatnonzero(codes[2:] == codes[:-2])
        a, b, d = et[idx], et[idx + 1], et[idx + 2]
        for x, y, z in zip(a, b, d):
            c[f"{x}>{y}>{z}"] += 1
        return pd.DataFrame({
            "path": pd.Series(list(c.keys()), dtype=object),
            "cnt": np.fromiter(c.values(), dtype=np.int64,
                               count=len(c))})


def top_event_paths(events, *, k: int = 10):
    """Corpus top-k event-type trigram paths (``a>b>c`` within a
    user's time-ordered stream) — the clickstream path-mining staple.
    One user-keyed partition-group shuffle emits |path-vocab| partials,
    a tiny Sum groupby merges them, and top-k is the partial top-k (no
    global sort).  Ties break lexicographically on the path."""
    from .relational import topk_by

    prepped = _prep_events(events, cols=("user_id", "event_id",
                                         "event_type"))
    partials = partition_groups(prepped, "user_id", _PathTrigramPartial())
    merged = combine(partials, ["path"], sums_of("cnt"))
    return topk_by(merged, ["cnt", "path"], [True, False], k)


def bounce_rate(events, *, timeout_s: int = 1800):
    """Per-user session bounce rate: the share of sessions holding a
    single event — the engagement-quality staple, composed on the
    certified sessionization kernel.  Session rows reduce to per-user
    integer counts (one |users|-row groupby); the close is one rounded
    division."""
    sessions = session_windows(events, timeout_s=timeout_s)

    def _flags(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": g["user_id"],
            "one": np.ones(len(g), dtype=np.int64),
            "bounce": (g["n_events"].to_numpy(np.int64) == 1)
            .astype(np.int64)})

    flagged = sessions.map_batches(_flags, batch_format="pandas")
    summed = combine(flagged, ["user_id"],
                     [("one", "sum", "n_sessions"),
                      ("bounce", "sum", "n_bounce")])

    def _close(t: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        ns = t["n_sessions"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nb = t["n_bounce"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "user_id": t["user_id"],
            "n_sessions": pa.array(ns),
            "n_bounce": pa.array(nb),
            "bounce_rate": pa.array(round_half_away(
                nb.astype(np.float64) / ns.astype(np.float64), 6))})

    return summed.map_batches(_close, batch_format="pyarrow")


# --- trailing-window distinct actives ---------------------------------------

_DAY_US = 86_400_000_000


def rolling_active_users(events, *, window_days: int = 7):
    """Trailing-``window_days`` distinct active users per day (the DAU/
    WAU rolling-retention shape): for every day with data, how many
    distinct users appeared in the ``window_days``-day window ending
    that day.

    A windowed COUNT(DISTINCT) can't pre-aggregate — counts of
    overlapping windows don't merge — so the plan works in distinct
    CELLS, which do: (1) per-batch local dedup shrinks events to
    (day, user) cells before the first shuffle; (2) each cell fans out
    to the ≤``window_days`` window-end days it can serve, filtered to
    days that exist (the observed-day set is bounded by the calendar,
    not the data, so it broadcasts as a closure constant); (3) one
    distinct shuffle collapses (window_day, user) duplicates a user
    active on several days of one window would create; (4) integer
    count partials close per day.  Shuffle volume is O(cells ×
    window_days), never O(events)."""
    import pyarrow.compute as pc

    from .joins import distributed_distinct

    def _cells(t: pa.Table) -> pa.Table:
        day = np.asarray(_epoch_micros(t["ts"])) // _DAY_US
        out = pa.table({"day": pa.array(day),
                        "user_id": t["user_id"]})
        out = out.filter(pc.is_valid(out["user_id"]))
        return out.group_by(["day", "user_id"]).aggregate([])

    cells = distributed_distinct(
        events.map_batches(_cells, batch_format="pyarrow"),
        ["day", "user_id"]).materialize()
    day_rows = distributed_distinct(cells, ["day"]).take_all()
    days_arr = np.sort(np.array([int(r["day"]) for r in day_rows],
                                dtype=np.int64))
    offsets = np.arange(window_days, dtype=np.int64)

    def _fan_out(t: pa.Table) -> pa.Table:
        day = t["day"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        win = (day[:, None] + offsets[None, :]).ravel()
        u = np.repeat(uid, window_days)
        keep = np.isin(win, days_arr, assume_unique=False)
        return pa.table({"day": pa.array(win[keep]),
                         "user_id": pa.array(u[keep])})

    expanded = distributed_distinct(
        cells.map_batches(_fan_out, batch_format="pyarrow"),
        ["day", "user_id"])

    def _count_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"day": t["day"].to_numpy(zero_copy_only=False),
                           "active": np.ones(len(t), dtype=np.int64)})
        part = df.groupby("day", as_index=False, sort=False).sum()
        return arrow_table(
            part, schema=pa.schema([("day", pa.int64()),
                                    ("active", pa.int64())]))

    return combine(
        expanded.map_batches(_count_partial, batch_format="pyarrow"),
        ["day"], sums_of("active"))
