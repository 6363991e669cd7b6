"""Tumbling-window continuous aggregates over the events stream table.

Scale-correct two-phase aggregation (SURVEY.md §2.7): a ``map_batches``
pre-aggregation folds each block to at most one row per (key, window) —
so the ONLY shuffle moves partials, not raw events — followed by
``merge_partials``, one ``combine`` over the mergeable tuple (min, max,
sum, count) per (key, window) cell.  Mean is derived after the merge.

``combine`` is the engine's one keyed aggregate: every stage that folds
rows per key (sums, counts, min/max, mean, distinct) calls it.  It is
one ``keyed_exchange`` (``stages/joins.py``, shared with
``partition_groups``, ``grouped_median`` and the joins): rows are sorted
on a hash of the keys, so each group lands in one block, and each block
is folded with one vectorized Arrow ``group_by``.

Windows are event-time buckets ``window_start = ts - ts % width`` on Unix
seconds; tiers nest (60 | 3600 | 86400), so ``rollup_tiers`` emits every
tier's partials from one pass and merges them in one shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .joins import (_segment_starts, _with_hash, each_key, key_runs,
                    keyed_exchange, partition_groups)
from ..functions.rounding import round_half_away

TIER_WIDTHS = {"1m": 60, "1h": 3600, "1d": 86400}


def _epoch_seconds(ts_col) -> np.ndarray:
    """Arrow timestamp / numeric column → int64 Unix seconds (UTC-naive,
    floor division — matches DuckDB ``epoch_us(ts) // 1000000``).

    pandas preserves the storage resolution (us/ns/…), so normalize to
    nanoseconds explicitly before flooring."""
    arr = ts_col.to_pandas()
    if pd.api.types.is_datetime64_any_dtype(arr):
        ns = arr.astype("datetime64[ns]").astype("int64").to_numpy()
        return ns // 1_000_000_000
    return arr.to_numpy(np.int64)


class PartialRollup:
    """Per-batch combiner: emits one partial row per (key, window)."""

    def __init__(self, key_col: str, ts_col: str, value_col: str, width: int):
        self.key_col, self.ts_col, self.value_col = key_col, ts_col, value_col
        self.width = width

    def __call__(self, batch: pa.Table) -> pa.Table:
        key_type = batch[self.key_col].type
        keys = batch[self.key_col].to_pandas()
        secs = _epoch_seconds(batch[self.ts_col])
        vals = batch[self.value_col].to_pandas().to_numpy(np.float64)
        win = secs - secs % self.width
        df = pd.DataFrame({"k": keys.to_numpy(), "w": win, "v": vals})
        # dropna=False: SQL GROUP BY emits a NULL-keyed group; silently
        # discarding null keys would diverge from the oracle
        g = df.groupby(["k", "w"], sort=False, dropna=False)["v"]
        agg = g.agg(["min", "max", "sum", "count"]).reset_index()
        return pa.table({
            self.key_col: pa.array(agg["k"]).cast(key_type),
            "window_start": pa.array(agg["w"].to_numpy(np.int64)),
            "vmin": pa.array(agg["min"].to_numpy(np.float64)),
            "vmax": pa.array(agg["max"].to_numpy(np.float64)),
            "vsum": pa.array(agg["sum"].to_numpy(np.float64)),
            "vcount": pa.array(agg["count"].to_numpy(np.int64)),
        })


def _finalize(batch: pa.Table, round_to: int | None) -> pa.Table:
    vsum = batch["vsum"].to_numpy(zero_copy_only=False)
    vcount = batch["vcount"].to_numpy(zero_copy_only=False)
    if round_to is not None:
        # Round the sum FIRST, then derive the mean from the rounded sum
        # (oracle mirrors this as round(round(sum,6)/count,6)).  Summation
        # order puts ray/duckdb sums within ~1e-10 of each other; rounding
        # collapses both to the identical double, so the division and the
        # second rounding are bit-identical — no boundary-straddle flips.
        vsum = round_half_away(vsum, round_to)
        vmean = round_half_away(vsum / np.maximum(vcount, 1), round_to)
        batch = batch.set_column(
            batch.schema.get_field_index("vsum"), "vsum", pa.array(vsum))
    else:
        vmean = vsum / np.maximum(vcount, 1)
    return batch.append_column("vmean", pa.array(vmean))


def _is_var_width(t: pa.DataType) -> bool:
    try:
        t.bit_width
    except ValueError:
        return True
    return False


def combine(ds, keys: list[str], aggs: list[tuple]):
    """The one keyed aggregate: one row per distinct ``keys`` tuple, with
    ``aggs`` — pyarrow ``(column, function, alias)`` entries such as
    ``("c", "sum", "c")``, ``("v", "min", "lo")`` or ``([], "count_all",
    "n")`` (a row count, nulls included; ``"count"`` skips nulls) — as the
    columns after the keys.  ``aggs=[]`` is a distinct over ``keys``.
    Only the key and aggregated columns are shuffled.

    It is one ``keyed_exchange`` (``stages/joins.py``): rows are sorted
    on a never-null hash of the keys, so one group never spans two
    blocks, and each block is folded by one ``pa.Table.group_by(keys)``,
    with the variable-width keys (strings, binary) after the fixed-width
    ones: pyarrow 16 splits the null group of a nullable string key that
    a fixed-width key follows.  Sorting on the hash keeps null keys out
    of the sort's sampling and balances the partitions.

    Semantics (pyarrow's hash aggregates):
    - null keys form one group, as SQL's GROUP BY;
    - a sum over a NaN (or over +inf and -inf) is NaN, where Ray's
      ``Sum`` treated NaN as null;
    - min and max skip NaN (an all-NaN group gets min +inf, max -inf, as
      Ray's ``Min``/``Max`` did);
    - keys keep their input type (Ray's aggregate widened int32 keys to
      int64 and cut timestamp[us] keys to timestamp[s]);
    - ``sum``, ``count`` and ``count_all`` are int64 over integer input
      (int32 included) and float64 over float input; ``min``/``max`` keep
      the input type; ``mean`` is float64 and skips nulls, as Ray's
      ``Mean``;
    - a float ``sum`` or ``mean`` adds each group's rows in one pass over
      its block, where Ray added per-block partial sums, so the last bit
      can differ from Ray's.
    Output is grouped by hash, not sorted by key: a caller that needs key
    order sorts."""
    keys = list(keys)
    cols = list(dict.fromkeys([*keys, *(c for c, _, _ in aggs if c)]))

    def _fold(t: pa.Table) -> pa.Table:
        return group_fold(t, keys, aggs)

    return keyed_exchange(
        [(ds, lambda t: _with_hash(t.select(cols), keys))], _fold)


def group_fold(t: pa.Table, keys: list[str], aggs: list[tuple]) -> pa.Table:
    """``combine``'s fold of one table that holds its groups whole: one
    ``group_by(keys)`` with the variable-width keys last (see
    ``combine``), the aggregates named by their aliases after the keys."""
    order = sorted(keys, key=lambda k: _is_var_width(t[k].type))
    aliases = [alias for _, _, alias in aggs]
    out = t.group_by(order, use_threads=False) \
        .aggregate([(c, f) for c, f, _ in aggs])
    # pyarrow puts the group keys first, then the aggregates in order
    return out.rename_columns([*order, *aliases]).select([*keys, *aliases])


def combine_all(ds, aggs: list[tuple]) -> dict:
    """``combine`` without keys: the one row of ``aggs`` over all of
    ``ds`` as a dict, empty when ``ds`` has no rows."""
    return next(iter(combine(ds, [], aggs).take_all()), {})


def sums_of(*cols: str) -> list[tuple]:
    """``combine`` entries summing each of ``cols`` under its own name."""
    return [(c, "sum", c) for c in cols]


_MERGE_AGGS = [("vmin", "min", "vmin"), ("vmax", "max", "vmax"),
               ("vsum", "sum", "vsum"), ("vcount", "sum", "vcount")]


def merge_partials(partials, key_cols: list[str]):
    """Merge (key_cols…, window_start, vmin, vmax, vsum, vcount) partial
    rows into one row per cell — the mergeable-tuple fold of every rollup
    and of the incremental store."""
    return combine(partials, [*key_cols, "window_start"], _MERGE_AGGS)


def cells_schema(key_col: str, key_type: pa.DataType) -> pa.Schema:
    """The partial row of ``PartialRollup`` and ``merge_partials``."""
    return pa.schema([(key_col, key_type), ("window_start", pa.int64()),
                      ("vmin", pa.float64()), ("vmax", pa.float64()),
                      ("vsum", pa.float64()), ("vcount", pa.int64())])


class FilePartials:
    """Per-file partial rollup for a task that reads its own file: each
    record batch's ``PartialRollup`` is folded into the file's cells with
    ``merge_partials``'s aggregates, so the task holds one batch plus one
    row per (key, window) cell of its file, and emits one row per cell."""

    def __init__(self, key_col: str, ts_col: str, value_col: str,
                 width: int):
        self.partial = PartialRollup(key_col, ts_col, value_col, width)
        self.key_col, self.cols = key_col, [key_col, ts_col, value_col]

    def __call__(self, path: str) -> pa.Table:
        import pyarrow.parquet as pq
        f = pq.ParquetFile(path)
        key = self.key_col
        cells = cells_schema(key, f.schema_arrow.field(key).type).empty_table()
        for batch in f.iter_batches(columns=self.cols):
            part = self.partial(pa.Table.from_batches([batch]))
            cells = group_fold(pa.concat_tables([cells, part]),
                               [key, "window_start"], _MERGE_AGGS)
        return cells


def rollup_events(events, key_col: str = "event_type", ts_col: str = "ts",
                  value_col: str = "value", width: int = 60,
                  round_to: int | None = 6):
    """events Dataset → (key, window_start, vmin, vmax, vsum, vcount, vmean).

    ``round_to`` rounds the float aggregates so results hash-match a SQL
    oracle despite summation-order differences (documented tolerance).
    """
    partials = events.map_batches(
        PartialRollup(key_col, ts_col, value_col, width),
        batch_format="pyarrow")
    return merge_partials(partials, [key_col]).map_batches(
        _finalize, batch_format="pyarrow", fn_kwargs={"round_to": round_to})


class GroupedMedian:
    """Per-block kernel: exact median for every (key, window) cell
    co-located in one block of the keyed exchange — the exact-quantile
    grain the reference's per-series medians establish (A1/A5), lifted to
    windows.

    One call per sorted block instead of one per cell replaces
    |key×window| Python group calls (billions at scale) with a count set
    by the input size; medians are computed
    vectorized over sorted runs (two middle picks per run — identical to
    np.median, including NaN propagation).  Exact medians need each
    bucket co-located; for percentile sets over buckets too big to
    co-locate, use a mergeable histogram sketch instead."""

    def __init__(self, key_col="event_type"):
        self.key_col = key_col

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, _, _ = key_runs(g, self.key_col,
                                           ("window_start", "value"))
        win = rows["window_start"].to_numpy(np.int64)
        val = rows["value"].to_numpy(np.float64)
        starts, ends = _segment_starts(codes, win)
        length = ends - starts
        med = (val[starts + (length - 1) // 2]
               + val[starts + length // 2]) / 2.0
        # np.median propagates NaN; NaNs sort to the run's end, so a
        # middle pick would silently return a real value
        has_nan = np.add.reduceat(np.isnan(val), starts) > 0
        med[has_nan] = np.nan
        return pd.DataFrame({
            self.key_col: keys[starts],
            "window_start": win[starts],
            "vmedian": round_half_away(med, 6),
        })


def grouped_median(events, key_col="event_type", ts_col="ts",
                   value_col="value", width: int = 3600):
    """Exact median per (key, tumbling window)."""
    def _cells(batch: pa.Table) -> pa.Table:
        secs = _epoch_seconds(batch[ts_col])
        return _with_hash(pa.table({
            key_col: batch[key_col],
            "window_start": pa.array(secs - secs % width),
            "value": batch[value_col]}), [key_col, "window_start"])
    return keyed_exchange([(events, _cells)], GroupedMedian(key_col),
                          batch_format="pandas")


def apply_retention(tier_ds, cutoff_epoch_s: int):
    """Retention filter for one tier: drop windows older than the cutoff.

    At scale this is a partition-pruning DELETE: with the engine's
    ``tier=/part=`` layout plus per-file window ranges, expired partitions
    are dropped file-by-file without reading them; this stage is the
    in-pipeline form (vectorized predicate, streaming)."""
    return tier_ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["window_start"],
                                            cutoff_epoch_s)),
        batch_format="pyarrow")


class StrideDownsample:
    """Per-series stride downsampling: keep every Nth point in (ts, id)
    order — the simplest decimation tier.  Per-PARTITION kernel: all
    series of one partition group are decimated in one lexsort +
    segment-relative modulo mask (no per-series Python)."""

    def __init__(self, n: int, key_col="user_id"):
        self.n, self.key_col = n, key_col

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, _, _, starts, ends = key_runs(g, self.key_col,
                                            ("ts", "event_id"))
        # index within each series run, then every-Nth mask
        rel = np.arange(len(rows)) - np.repeat(starts, ends - starts)
        return rows.iloc[rel % self.n == 0]


def downsample_stride(events, n: int = 10, key_col="user_id"):
    return partition_groups(events, key_col, StrideDownsample(n, key_col))


class PartialRollupTiers:
    """Per-batch combiner emitting partials for EVERY tier at once (tier
    column added); because the 1m partials already collapse each batch,
    the extra 1h/1d partial rows cost ~2% more rows than 1m alone."""

    def __init__(self, key_col: str, ts_col: str, value_col: str,
                 tiers: dict[str, int] = TIER_WIDTHS):
        self.inner = {t: PartialRollup(key_col, ts_col, value_col, w)
                      for t, w in tiers.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        for tier, p in self.inner.items():
            t = p(batch)
            outs.append(t.append_column(
                "tier", pa.array([tier] * len(t), pa.string())))
        return pa.concat_tables(outs)


def rollup_tiers(events, key_col: str = "event_type", ts_col: str = "ts",
                 value_col: str = "value", round_to: int | None = 6):
    """All three retention tiers with ONE shuffle: every batch emits
    per-tier partials (windows nest, so the per-tier partial sets are
    nearly free given the 1m fold), then a single merge over
    (key, tier, window).  Returns {tier: Dataset}."""
    partials = events.map_batches(
        PartialRollupTiers(key_col, ts_col, value_col),
        batch_format="pyarrow")
    merged = merge_partials(partials, [key_col, "tier"]).map_batches(
        _finalize, batch_format="pyarrow",
        fn_kwargs={"round_to": round_to}).materialize()
    out = {}
    for tier in TIER_WIDTHS:
        out[tier] = merged.map_batches(
            lambda t, _tier=tier: t.filter(pc.equal(t["tier"], _tier))
            .drop_columns(["tier"]),
            batch_format="pyarrow")
    return out


def _quantile_lerp(val: np.ndarray, starts: np.ndarray,
                   length: np.ndarray, p: float) -> np.ndarray:
    """One exact linear-interpolated quantile per sorted segment —
    numpy's _lerp exactly (a + diff*t, switching to the b-anchored
    form for t >= 0.5): bit-identical to np.quantile(method='linear')
    AND to DuckDB quantile_cont (the oracle guarantee was calibrated
    against this form).  THE one copy — every quantile-bearing kernel
    must route through it or the calibration can silently fork."""
    pos = (length - 1) * p
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    hi = np.minimum(lo + 1, length - 1)
    a, b = val[starts + lo], val[starts + hi]
    diff = b - a
    q = a + diff * frac
    np.subtract(b, diff * (1 - frac), out=q, where=frac >= 0.5)
    return q


def _quantile_groups(events, key_col: str, value_col: str, kernel):
    """The shared plan of the quantile kernels: project to (key, value)
    and run ``kernel`` once per partition group of the key."""
    def _proj(t: pa.Table) -> pa.Table:
        return pa.table({key_col: t[key_col], "value": t[value_col]})
    return partition_groups(
        events.map_batches(_proj, batch_format="pyarrow"), key_col, kernel)


class GroupedQuantiles:
    """Per-PARTITION kernel: exact multi-quantile for every key in one
    partition group, vectorized over sorted runs (position + linear
    interpolation — identical to np.quantile(method='linear') and SQL
    quantile_cont, NaN-propagating).  Exact quantiles need each key
    co-located; for percentile sets over groups too big to co-locate,
    use a mergeable histogram/t-digest sketch instead."""

    def __init__(self, key_col="event_type", probs=(0.5, 0.9, 0.95, 0.99)):
        self.key_col, self.probs = key_col, probs

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(g, self.key_col, ("value",))
        val = rows["value"].to_numpy(np.float64)
        length = ends - starts
        has_nan = np.add.reduceat(np.isnan(val), starts) > 0
        row = {self.key_col: keys[starts]}
        for p in self.probs:
            q = _quantile_lerp(val, starts, length, p)
            q[has_nan] = np.nan
            row[f"p{int(p * 100)}"] = round_half_away(q, 6)
        return pd.DataFrame(row)


def grouped_quantiles(events, key_col="event_type", value_col="value",
                      probs=(0.5, 0.9, 0.95, 0.99)):
    """Exact p50/p90/p95/p99 per key."""
    return _quantile_groups(events, key_col, value_col,
                            GroupedQuantiles(key_col, probs))


class PartialOHLC:
    """Per-batch combiner for OHLC bars: one partial row per (key,
    window) carrying the batch-local open/close anchors ((t, id, cents)
    of the first and last point) plus min/max cents and count — a
    mergeable summary, so the only shuffle moves ≤ |keys×windows| rows
    per block."""

    def __init__(self, key_col: str, ts_col: str, value_col: str,
                 id_col: str, width: int):
        self.key_col, self.ts_col = key_col, ts_col
        self.value_col, self.id_col = value_col, id_col
        self.width = width

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.rounding import scaled_int
        from .windows import _epoch_micros
        key_type = batch[self.key_col].type
        keys = batch[self.key_col].to_pandas().to_numpy()
        t_us = _epoch_micros(batch[self.ts_col])
        secs = t_us // 1_000_000  # == the oracle's epoch_us // 1000000
        ids = batch[self.id_col].to_pandas().to_numpy()
        cents = scaled_int(batch[self.value_col].to_numpy(
            zero_copy_only=False))
        win = secs - secs % self.width
        codes, _ = pd.factorize(keys)
        order = np.lexsort((ids, t_us, win, codes))
        codes, win, keys = codes[order], win[order], keys[order]
        t_us, ids, cents = t_us[order], ids[order], cents[order]
        starts, ends = _segment_starts(codes, win)
        lasts = ends - 1
        lens = ends - starts
        lo = np.minimum.reduceat(cents, starts)
        hi = np.maximum.reduceat(cents, starts)
        return pa.table({
            # keys from the SORTED ORIGINAL column, never uniques.take:
            # factorize codes null keys as -1, which would wrap to the
            # LAST unique and attribute null-key rows to a real key
            self.key_col: pa.array(keys[starts]).cast(key_type),
            "window_start": pa.array(win[starts]),
            "o_t": pa.array(t_us[starts]),
            "o_id": pa.array(ids[starts]),
            "o_c": pa.array(cents[starts]),
            "c_t": pa.array(t_us[lasts]),
            "c_id": pa.array(ids[lasts]),
            "c_c": pa.array(cents[lasts]),
            "lo": pa.array(lo),
            "hi": pa.array(hi),
            "n": pa.array(lens.astype(np.int64)),
        })


def ohlc_bars(events, *, key_col: str = "user_id", ts_col: str = "ts",
              value_col: str = "value", id_col: str = "event_id",
              width: int = 3600):
    """OHLC bars per (key, window): open/close anchored at the (ts, id)
    order extremes, high/low/count — the canonical financial-timeseries
    downsample, exact in integer cents.

    Partial-first: batch partials carry the (t, id, cents) anchors, so
    merging picks the global first/last without ever co-locating raw
    points; the finalize group sees one row per BLOCK per cell."""

    partials = events.map_batches(
        PartialOHLC(key_col, ts_col, value_col, id_col, width),
        batch_format="pyarrow")

    def _finalize_cells(g: pd.DataFrame) -> pd.DataFrame:
        # all partials of MANY (key, window) cells arrive in one group
        # (partition-grouped, not one call per cell); segment and
        # reduce vectorized
        g, keys, codes, _, _ = key_runs(g, key_col, ("window_start",))
        w = g["window_start"].to_numpy(np.int64)
        starts, ends = _segment_starts(codes, w)
        o_t = g["o_t"].to_numpy(np.int64)
        o_id = g["o_id"].to_numpy()
        o_c = g["o_c"].to_numpy(np.int64)
        c_t = g["c_t"].to_numpy(np.int64)
        c_id = g["c_id"].to_numpy()
        c_c = g["c_c"].to_numpy(np.int64)
        lo = g["lo"].to_numpy(np.int64)
        hi = g["hi"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        opens = np.empty(len(starts), dtype=np.int64)
        closes = np.empty(len(starts), dtype=np.int64)
        for i, (s, e) in enumerate(zip(starts, ends)):
            seg = slice(s, e)
            oj = np.lexsort((o_id[seg], o_t[seg]))[0]
            cj = np.lexsort((c_id[seg], c_t[seg]))[-1]
            opens[i] = o_c[s + oj]
            closes[i] = c_c[s + cj]
        lo_m = np.minimum.reduceat(lo, starts)
        hi_m = np.maximum.reduceat(hi, starts)
        n_m = np.add.reduceat(n, starts)
        return pd.DataFrame({
            key_col: keys[starts],
            "window_start": w[starts],
            "open": opens.astype(np.float64) / 100.0,
            "high": hi_m.astype(np.float64) / 100.0,
            "low": lo_m.astype(np.float64) / 100.0,
            "close": closes.astype(np.float64) / 100.0,
            "n": n_m,
        })
    _finalize_cells.__name__ = "_ohlc_finalize"

    return partition_groups(partials, key_col, _finalize_cells)


# --- percentile continuous aggregates (mergeable KLL per window) -----------

class QuantileRollupPartial:
    """map_batches combiner: one serialized KLL sketch per
    (key, tumbling-window) cell present in the batch — the percentile
    counterpart of the min/max/sum/count partials.  Mergeable by
    construction, so the shuffle ships one fixed-size summary per cell
    per block regardless of row count."""

    def __init__(self, key_col: str, ts_col: str, value_col: str,
                 width_s: int, k: int = 200):
        self.key_col, self.ts_col = key_col, ts_col
        self.value_col, self.width_s, self.k = value_col, width_s, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        from .sketches import KLLSketch
        key_type = batch.schema.field(self.key_col).type
        t = _epoch_seconds(batch[self.ts_col])
        w = t // self.width_s * self.width_s
        keys = batch[self.key_col].to_pandas()
        vals = batch[self.value_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        codes, uniq = pd.factorize(keys, sort=False)
        cell = codes.astype(np.int64) * (np.int64(1) << 40) + w
        order = np.argsort(cell, kind="stable")
        cs, vs = cell[order], vals[order]
        starts, ends = _segment_starts(cs)
        out_k, out_w, out_b = [], [], []
        key_vals = np.append(np.asarray(uniq, object), None)
        for s, e in zip(starts, ends):
            sk = KLLSketch(self.k)
            sk.update_many(vs[s:e])
            out_k.append(key_vals[cs[s] >> 40])
            out_w.append(cs[s] & ((np.int64(1) << 40) - 1))
            out_b.append(sk.to_bytes())
        return pa.table({
            self.key_col: pa.array(out_k, key_type),
            "window_start": pa.array(np.asarray(out_w, np.int64)),
            "__sk": pa.array(out_b, pa.binary()),
        })


def rollup_quantiles(events, *, key_col: str = "event_type",
                     ts_col: str = "ts", value_col: str = "value",
                     width_s: int = 86400, probs=(0.5, 0.95, 0.99),
                     k: int = 200):
    """Approximate percentile continuous aggregate: per (key, window),
    KLL-sketched quantiles at ``probs`` — the percentile tier a
    monitoring rollup engine serves next to min/max/mean.  Per-block
    partial sketches → ONE per-cell merge; a cell whose total row count
    fits the sketch capacity is EXACT (the sketch never compacts).

    Rows-only by design (sketch answers are approximate); accuracy is
    pytest-bounded against exact per-cell quantiles."""
    import pandas as pd

    from .sketches import KLLSketch

    partial = events.map_batches(
        QuantileRollupPartial(key_col, ts_col, value_col, width_s, k),
        batch_format="pyarrow")

    probs = tuple(probs)

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        sk = KLLSketch(k)
        for b in g["__sk"]:
            sk.merge(KLLSketch.from_bytes(b))
        q = sk.quantiles(probs)
        return pd.DataFrame({
            key_col: [g[key_col].iloc[0]],
            "window_start": np.array([g["window_start"].iloc[0]],
                                     np.int64),
            "n": np.array([sk.n], np.int64),
            **{f"p{int(p * 100):02d}": [q[i]]
               for i, p in enumerate(probs)},
        })
    _merge.__name__ = "QuantileRollupMerge"

    return each_key(partial, [key_col, "window_start"], _merge)


class TukeyFencesGroup:
    """Per-PARTITION kernel: exact per-key quartiles (the calibrated
    ``GroupedQuantiles`` lerp — bit-identical to SQL quantile_cont)
    plus the Tukey 1.5·IQR fence outlier count.  The fences compare
    RAW doubles (``q1 − 1.5·(q3−q1)`` in the oracle's exact operand
    order) so the count needs no tolerance; NULL keys and NULL/NaN
    values drop (oracle WHERE)."""

    def __init__(self, key_col: str = "user_id", k: float = 1.5):
        self.key_col, self.k = key_col, k

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        val = g["value"].to_numpy(np.float64)
        rows, keys, _, starts, ends = key_runs(
            g, self.key_col, (val,),
            keep=g[self.key_col].notna() & np.isfinite(val))
        val = rows["value"].to_numpy(np.float64)
        length = ends - starts
        q1 = _quantile_lerp(val, starts, length, 0.25)
        q3 = _quantile_lerp(val, starts, length, 0.75)
        iqr = q3 - q1
        lo_f = q1 - self.k * iqr
        hi_f = q3 + self.k * iqr
        seg = np.repeat(np.arange(len(starts)), length)
        out_mask = (val < lo_f[seg]) | (val > hi_f[seg])
        n_out = np.add.reduceat(out_mask, starts)
        return pd.DataFrame({
            self.key_col: keys[starts],
            "n": length.astype(np.int64),
            "q1": round_half_away(q1, 6),
            "q3": round_half_away(q3, 6),
            "n_outliers": n_out.astype(np.int64),
        })


def tukey_fences(events, *, key_col: str = "user_id", k: float = 1.5,
                 value_col: str = "value"):
    """Per-key Tukey box-plot screen: exact quartiles + the count of
    values outside the 1.5·IQR fences — the distribution-free outlier
    budget per series.  One partition-group shuffle."""
    return _quantile_groups(events, key_col, value_col,
                            TukeyFencesGroup(key_col, k))


def seasonal_quantiles(events, *, key_col: str = "event_type",
                       probs=(0.1, 0.5, 0.9)):
    """Seasonal quantile bands: exact p10/p50/p90 of value per
    (key, hour-of-day) cell — the capacity-planning seasonality
    envelope.  Derives the composite ``key#hod`` cell id in the
    projection map (hour-of-day from epoch micros, UTC) and reuses the
    calibrated :class:`GroupedQuantiles` lerp kernel verbatim; one
    partition-group shuffle over the bounded |keys|·24 cell domain."""
    from .windows import _epoch_micros

    def _proj(t: pa.Table) -> pa.Table:
        hod = (np.asarray(_epoch_micros(t["ts"]))
               // 3_600_000_000) % 24
        keys = t[key_col].to_pandas().astype(str)
        cell = keys.str.cat(
            pd.Series(hod).astype(str).str.zfill(2), sep="#")
        return pa.table({"__cell": pa.array(cell, pa.string()),
                         "value": t["value"]})

    cells = partition_groups(events.map_batches(_proj, batch_format="pyarrow"),
                             "__cell", GroupedQuantiles("__cell", probs))

    def _split(t: pa.Table) -> pa.Table:
        cell = t["__cell"].to_pandas()
        key = cell.str.rsplit("#", n=1).str[0]
        hod = cell.str.rsplit("#", n=1).str[1].astype(np.int64)
        cols = {key_col: pa.array(key, pa.string()),
                "hod": pa.array(hod.to_numpy())}
        for p in probs:
            cols[f"p{int(p * 100)}"] = t[f"p{int(p * 100)}"]
        return pa.table(cols)

    return cells.map_batches(_split, batch_format="pyarrow")
