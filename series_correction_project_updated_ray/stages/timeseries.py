"""Time-series primitives beyond the tumbling rollups and windows.

Rebuild-only components (the reference is pure batch — SURVEY.md §2.11)
rounding out the north rule's "rollup + downsample + retention engine":

* counter rate (PromQL ``increase``/``rate`` shape): reset-aware
  per-key per-window sum of non-negative deltas;
* grid resampling with forward fill (the UPSAMPLE/regularize dual of
  the rollup downsample): per-key hourly grid joined to the latest
  prior-or-equal observation;
* interval coverage (gaps-and-islands): per-key union of fixed-width
  event intervals → merged-interval count + covered span;
* EWMA: the classic exponential smoothing recursion, run bit-exactly
  in event order (certifiable against a recursive-CTE SQL oracle);
* LTTB (largest-triangle-three-buckets, Steinarsson 2013): the
  shape-preserving visual downsample; sequential by nature (each
  bucket's pick feeds the next triangle), so per-key inside
  partition groups.

All use the one-shuffle partition-group primitive
:func:`stages.joins.partition_groups`: a sort on the key hash co-locates
whole keys in blocks sized by the input, each kernel handles
every co-located key vectorized (boundary scans / reduceat), never one
Python call per key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .joins import _segment_starts, key_runs, partition_groups
from .rollup import combine, sums_of
from .windows import _epoch_micros
from ..functions.rounding import round_half_away, scaled_int


def _prep_events(events, cols=("user_id", "event_id", "value")):
    """Project to (key cols..., t=epoch micros) — the shared prep map."""
    def _prep(batch: pa.Table) -> pa.Table:
        if "ts" not in batch.column_names:
            # Ray occasionally emits 0-row blocks that lose their
            # columns; emit a typed empty projection
            out = {c: pa.array([], pa.string()
                               if c in ("event_type", "source")
                               else pa.int64()) for c in cols}
            if "value" in cols:
                out["value"] = pa.array([], pa.float64())
            out["t"] = pa.array([], pa.int64())
            return pa.table(out)
        out = {c: batch[c] for c in cols if c in batch.column_names}
        out["t"] = pa.array(_epoch_micros(batch["ts"]))
        return pa.table(out)
    return events.map_batches(_prep, batch_format="pyarrow")


# --- counter rate (PromQL increase / rate) ---------------------------------

class RateCounterGroup:
    """Per-partition kernel: reset-aware counter increase per
    (key, tumbling window).  In each key's (t, event_id) order,
    ``dc = cents - lag(cents)``; a negative delta is a counter RESET and
    contributes the post-reset level itself (the PromQL convention); the
    key's first event has no lag and contributes nothing.  Window cells
    whose every event is lag-less emit NULL increase/rate (SQL SUM over
    all-NULL), all in integer cents with one float division sequence on
    output."""

    def __init__(self, width_s: int = 3600):
        self.width_s = width_s

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, kstarts, _ = key_runs(g)
        t = rows["t"].to_numpy(np.int64)
        cents = scaled_int(rows["value"].to_numpy(np.float64))
        dc = np.zeros(len(t), dtype=np.int64)
        dc[1:] = cents[1:] - cents[:-1]
        inc = np.where(dc >= 0, dc, cents)     # reset → post-reset level
        valid = np.ones(len(t), dtype=bool)
        valid[kstarts] = False
        w = t // 1_000_000 // self.width_s * self.width_s
        starts, ends = _segment_starts(codes, w)
        inc_sum = np.add.reduceat(np.where(valid, inc, 0), starts)
        n_valid = np.add.reduceat(valid.astype(np.int64), starts)
        increase = np.where(n_valid > 0, inc_sum / 100.0, np.nan)
        rate = np.where(
            n_valid > 0,
            round_half_away(increase / float(self.width_s), 6), np.nan)
        return pd.DataFrame({
            "user_id": keys[starts],
            "window_start": w[starts],
            "n_events": (ends - starts).astype(np.int64),
            "increase": increase,
            "rate_per_s": rate,
        })


def rate_counter(events, *, width_s: int = 3600):
    """Reset-aware counter rate per (user, tumbling window) — one
    partition-group shuffle of (key, id, t, cents)-width rows."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", RateCounterGroup(width_s))


# --- max drawdown (running-peak regression) ---------------------------------

class DrawdownGroup:
    """Per-partition kernel: per key in (t, event_id) order, the MAX
    DRAWDOWN — the largest drop from the running peak, max(runmax − v)
    — with the trough anchored at the EARLIEST t attaining it.  Exact
    in integer cents; the segmented running max is one vectorized
    cummax over key-offset-shifted values (keys are sorted, so adding
    code·K with K > the global cents range makes every new key's
    values exceed all previous — the cummax resets at each boundary),
    with an exact python-int fallback when the shift could overflow."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # oracle's equi-join drops null keys
        rows, keys, codes, starts, ends = key_runs(
            g, keep=g["user_id"].notna())
        if len(rows) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"],
                "n_events": pd.Series([], dtype=np.int64),
                "max_drawdown": pd.Series([], dtype=np.float64),
                "t_trough": pd.Series([], dtype=np.int64)})
        t = rows["t"].to_numpy(np.int64)
        cents = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(t)
        lo = int(cents.min())
        span = int(cents.max()) - lo + 1
        ncodes = int(codes.max()) + 1
        if ncodes * span < (1 << 62):
            shifted = (cents - lo) + codes.astype(np.int64) * span
            runmax = np.maximum.accumulate(shifted) - codes * span + lo
        else:                                   # exact fallback
            obj = cents.astype(object)
            runmax = np.empty(n, dtype=object)
            cur, ck = None, -1
            for i in range(n):
                if codes[i] != ck:
                    cur, ck = obj[i], codes[i]
                elif obj[i] > cur:
                    cur = obj[i]
                runmax[i] = cur
        dd = runmax - cents
        mdd = np.maximum.reduceat(dd, starts)
        # earliest t attaining the key's max drawdown: lexsort pick on
        # (-dd, t) within key — dd may be object dtype, so order by a
        # rank-equivalent int64 view when safe, else argsort object
        if dd.dtype == object:
            neg = np.array([-int(x) for x in dd], dtype=object)
        else:
            neg = -dd
        order2 = np.lexsort((t, neg, codes))
        pick = order2[_segment_starts(codes[order2])[0]]
        return pd.DataFrame({
            "user_id": keys[starts],
            "n_events": (ends - starts).astype(np.int64),
            "max_drawdown": np.asarray(mdd, dtype=np.float64) / 100.0,
            "t_trough": t[pick],
        })


def max_drawdown(events):
    """Per-user max drawdown (largest drop from the running peak) with
    the earliest trough timestamp — one partition-group shuffle, exact
    integer cents."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", DrawdownGroup())


# --- interval coverage (gaps and islands) ----------------------------------

class IntervalCoverageGroup:
    """Per-partition kernel: merge each key's overlapping-or-touching
    ``[t, t + width]`` intervals (sorted by start; an interval starting
    at or before the running max end extends the current island) and
    emit per key the merged-interval count and the union's total length
    in integer microseconds."""

    def __init__(self, width_s: int = 300):
        self.width_us = width_s * 1_000_000

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, starts, _ = key_runs(g, by=("t",))
        s = rows["t"].to_numpy(np.int64)
        e = s + self.width_us
        # FIXED-width intervals sorted by start have sorted ends, so the
        # running max end within a key is simply the previous row's end
        # (general widths would need a segmented cummax); a key's first
        # interval always opens an island
        prev_e = np.empty_like(e)
        prev_e[1:] = e[:-1]
        prev_e[starts] = np.iinfo(np.int64).min
        istarts = np.flatnonzero(s > prev_e)
        island_max_e = np.maximum.reduceat(e, istarts)
        island_len = island_max_e - s[istarts]
        kstarts, kends = _segment_starts(codes[istarts])
        return pd.DataFrame({
            "user_id": keys[istarts][kstarts],
            "n_intervals": (kends - kstarts).astype(np.int64),
            "covered_us": np.add.reduceat(island_len, kstarts),
        })


def interval_coverage(events, *, width_s: int = 300):
    """Per-user union of fixed-width event intervals: merged count +
    covered span (integer µs) — one partition-group shuffle."""
    prepped = _prep_events(events, cols=("user_id",))
    return partition_groups(prepped, "user_id", IntervalCoverageGroup(width_s))


# --- grid resample with forward fill ---------------------------------------

def _segmented_last(codes: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each row of a (codes-ascending) sorted sequence, the index of
    the latest PRIOR-OR-SELF row with ``mask`` set within the same code
    segment, or -1.  One running max over ``code*(n+1) + pos`` — a new
    code's rows always win on the code term, so the scan resets per key
    without a Python loop; ``code*(n+1) ≤ n(n+1) « 2^63``.  ``codes``
    only needs to be monotonic (negate a descending sequence to reuse
    this for backward scans on reversed arrays)."""
    n = len(codes)
    enc = codes.astype(np.int64) * np.int64(n + 1) \
        + np.where(mask, np.arange(n) + 1, 0)
    return np.maximum.accumulate(enc) % np.int64(n + 1) - 1


class ResampleFfillGroup:
    """Per-partition kernel: union of grid rows (side 1) and event rows
    (side 0) in (key, t, side, event_id) order; each grid row takes the
    value of the latest event at or before it (ties at the same
    microsecond resolve to the highest event_id — the engine-wide
    convention)."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, _, _ = key_runs(g, by=("t", "__side", "event_id"))
        t = rows["t"].to_numpy(np.int64)
        vals = rows["value"].to_numpy(np.float64)
        is_event = rows["__side"].to_numpy(np.int64) == 0
        last_evt = _segmented_last(codes, is_event)
        grid = ~is_event
        gsel = np.flatnonzero(grid & (last_evt >= 0))
        return pd.DataFrame({
            "user_id": keys[gsel],
            "window_start": t[gsel] // 1_000_000,
            "value": vals[last_evt[gsel]],
        })


def _append_local_grid(g: pd.DataFrame, width_s: int) -> pd.DataFrame:
    """Events-only partition group → the union-shaped frame the
    resample kernels consume: event rows tagged ``__side`` 0 plus each
    key's grid boundary rows (``__side`` 1, value NaN) inside its
    observed span.  Generated INSIDE the partition group — the keys are
    already co-located here, so the grid needs no separate span
    aggregate, second corpus read, or Dataset.union (one shuffle total
    for the whole resample instead of two)."""
    width_us = width_s * 1_000_000
    ev = g.assign(__side=np.int64(0))
    if len(g) == 0:
        return ev
    # NULL keys get no grid: the oracle's ASOF equi-join drops them
    # (pandas groupby drops NaN/NA keys by default, matching)
    span = g.groupby("user_id")["t"].agg(["min", "max"])
    lo = span["min"].to_numpy(np.int64)
    hi = span["max"].to_numpy(np.int64)
    h0 = -(-lo // width_us)              # ceil to boundary ≥ first obs
    h1 = hi // width_us                  # floor to boundary ≤ last obs
    counts = np.maximum(h1 - h0 + 1, 0)
    total = int(counts.sum())
    csum = np.concatenate([[0], np.cumsum(counts)])[:-1]
    offs = np.arange(total) - np.repeat(csum, counts)
    grid = pd.DataFrame({
        "user_id": np.repeat(span.index.to_numpy(), counts),
        "event_id": np.zeros(total, dtype=np.int64),
        "value": np.full(total, np.nan),
        "t": (np.repeat(h0, counts) + offs) * width_us,
        "__side": np.ones(total, dtype=np.int64),
    })
    return pd.concat([ev, grid], ignore_index=True)


class LocalGridResample:
    """Partition-group wrapper: build the key-local grid, then run the
    union-shaped resample kernel on it."""

    def __init__(self, inner, width_s: int):
        self.inner, self.width_s = inner, width_s
        self.__name__ = type(inner).__name__ + "LocalGrid"

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        return self.inner(_append_local_grid(g, self.width_s))


def resample_ffill(events, *, width_s: int = 3600):
    """Regular-grid forward-fill resample: per user, one row per
    ``width_s`` boundary inside the user's observed span, carrying the
    latest prior-or-equal observation.  ONE partition-group shuffle;
    the grid is generated inside each group (keys are co-located) —
    the UPSAMPLE dual of the rollup downsample."""
    prepped = _prep_events(events)
    return partition_groups(
        prepped, "user_id", LocalGridResample(ResampleFfillGroup(), width_s))


# --- EWMA ------------------------------------------------------------------

def _pos_major_layout(codes: np.ndarray, n: int):
    """(pm_order, seg_offsets) re-sorting lexsorted rows by
    (position-within-key, key-rank) with keys ranked LONGEST FIRST: at
    position k the active keys are exactly ranks 0..m_k-1 in rank
    order, so a recursion can step down positions carrying state
    vectors indexed by rank — O(rows) memory/compute regardless of key
    skew (a dense keys × max_len matrix is O(keys·max_len), which one
    hot key turns into an OOM)."""
    starts, ends = _segment_starts(codes)
    lens = ends - starts
    K = len(starts)
    rank_order = np.lexsort((np.arange(K), -lens))
    rank_of = np.empty(K, dtype=np.int64)
    rank_of[rank_order] = np.arange(K)
    row = np.repeat(np.arange(K), lens)
    pos = np.arange(n) - np.repeat(starts, lens)
    pm = np.lexsort((rank_of[row], pos))
    counts = np.bincount(pos)
    offs = np.concatenate([[0], np.cumsum(counts)])
    return pm, offs

class EwmaGroup:
    """Per-partition kernel: the exponential-smoothing recursion
    ``y_i = α·x_i + (1-α)·y_{i-1}`` (y_0 = x_0) per key in (t, event_id)
    order — run with exactly that operand order so the doubles are
    bit-identical to a recursive-CTE oracle, then rounded to 6dp.
    Vectorized ACROSS keys via the position-major layout
    (:func:`_pos_major_layout`): the Python loop is O(longest series)
    iterations over O(rows) total work, state is one vector per key."""

    def __init__(self, alpha: float = 0.5):
        self.alpha = alpha

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # NULL keys cannot chain through the oracle's recursive equality
        # join (only the anchor row would survive) — define the op over
        # non-null keys, like SQL's inner joins everywhere else
        rows, keys, codes, _, _ = key_runs(g, keep=g["user_id"].notna())
        if len(rows) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"],
                "event_id": pd.Series([], dtype=np.int64),
                "t": pd.Series([], dtype=np.int64),
                "ewma": pd.Series([], dtype=np.float64)})
        t = rows["t"].to_numpy(np.int64)
        x = rows["value"].to_numpy(np.float64)
        n = len(t)
        pm, offs = _pos_major_layout(codes, n)
        x_pm = x[pm]
        y_pm = np.empty(n)
        a, b = self.alpha, 1.0 - self.alpha
        max_len = len(offs) - 1
        cur = x_pm[offs[0]:offs[1]].copy()
        y_pm[offs[0]:offs[1]] = cur
        for k in range(1, max_len):
            m = offs[k + 1] - offs[k]
            # same operand order as the SQL `a*x + b*y`: mult, mult, add
            cur = a * x_pm[offs[k]:offs[k + 1]] + b * cur[:m]
            y_pm[offs[k]:offs[k + 1]] = cur
        y = np.empty(n)
        y[pm] = y_pm
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": t,
            "ewma": round_half_away(y, 6),
        })


def ewma_per_user(events, *, alpha: float = 0.5):
    """Per-user EWMA of value in event-time order — one partition-group
    shuffle; the recursion is bit-exact against a recursive CTE."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", EwmaGroup(alpha))


# --- LTTB downsample -------------------------------------------------------

def lttb_select(t: np.ndarray, v: np.ndarray, n_out: int) -> np.ndarray:
    """Indices of the LTTB-selected points of ONE series already sorted
    by t.  First and last points always kept; each interior bucket keeps
    the point maximizing the triangle area with the previous SELECTED
    point and the next bucket's centroid (Steinarsson 2013, §4.2).

    Deviation from the paper: bucket edges are INTEGER floor splits
    (``1 + i*(n-2)//(n_out-2)``) rather than the canonical float
    bucketing (``floor(i*every)+1``), so individual picks can differ
    slightly from reference LTTB implementations when ``(n-2)`` is not
    a multiple of ``(n_out-2)``.  The LTTB invariants (endpoints kept,
    exactly one pick per bucket, buckets partition the interior,
    max-area selection) hold either way.

    Areas are compared as EXACT INTEGERS: with x = t − t[0] (areas are
    translation-invariant) and y = cents, the per-candidate score is
    2·area·nn = |(x_p·nn − Σx_next)(y_b − y_p) + (x_b − x_p)(Σy_next −
    y_p·nn)| — the centroid division by the next-bucket size ``nn``
    multiplied through, a constant positive factor inside one bucket's
    argmax.  Same argmax as the float form, but deterministic across
    platforms (no FMA/rounding ambiguity), tie → lowest index, and
    replayable bit-exactly by the SQL oracle (HUGEINT); values are 2dp
    so cents are exact."""
    n = len(t)
    if n_out >= n or n_out < 3:
        return np.arange(n)
    # n_out-2 interior buckets over points 1..n-2, equal float split
    edges = 1 + (np.arange(n_out - 1) * (n - 2)) // (n_out - 2)
    edges = np.r_[edges, n - 1]
    out = np.empty(n_out, dtype=np.int64)
    out[0] = 0
    prev = 0
    x = t - t[0]
    y = scaled_int(v)
    # int64 overflow guard: |score| ≤ span·nn_max·2·ymax (each product
    # term) — route through exact Python ints when it could exceed 2^62
    nn_max = int(np.max(np.diff(edges))) if n_out > 3 else int(n)
    bound = int(x[-1]) * max(nn_max, 1) * \
        (2 * int(np.abs(y).max()) + 1) if n else 0
    if 4 * bound >= (1 << 62):
        x, y = x.astype(object), y.astype(object)
    for i in range(n_out - 2):
        s, e = edges[i], edges[i + 1]          # this bucket [s, e)
        ns, ne = edges[i + 1], min(edges[i + 2] if i + 2 < len(edges)
                                   else n, n)  # next bucket (or last pt)
        if ne > ns:
            nn, sx, sy = ne - ns, x[ns:ne].sum(), y[ns:ne].sum()
        else:
            nn, sx, sy = 1, x[n - 1], y[n - 1]
        a1 = x[prev] * nn - sx
        a2 = sy - y[prev] * nn
        area = np.abs(a1 * (y[s:e] - y[prev]) + (x[s:e] - x[prev]) * a2)
        prev = s + int(np.argmax(area))
        out[i + 1] = prev
    out[n_out - 1] = n - 1
    return out


class LttbGroup:
    """Per-partition kernel: LTTB-downsample every co-located key's
    series to ``n_out`` points.  Sequential per key by nature (each
    pick feeds the next triangle); the per-bucket argmax is numpy."""

    def __init__(self, n_out: int = 100):
        self.n_out = n_out

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(g)
        t = rows["t"].to_numpy(np.int64)
        ids = rows["event_id"].to_numpy()
        vals = rows["value"].to_numpy(np.float64)
        sel = [s + lttb_select(t[s:e], vals[s:e], self.n_out)
               for s, e in zip(starts, ends)]
        sel = np.concatenate(sel) if sel else np.empty(0, np.int64)
        return pd.DataFrame({
            "user_id": keys[sel],
            "event_id": ids[sel],
            "t": t[sel],
            "value": vals[sel],
        })


def lttb_downsample(events, *, n_out: int = 100):
    """Shape-preserving per-user downsample to ``n_out`` points
    (largest-triangle-three-buckets) — one partition-group shuffle."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", LttbGroup(n_out))


# --- lag-1 autocorrelation -------------------------------------------------

class AutocorrGroup:
    """Per-partition kernel: Pearson correlation of consecutive values
    (lag-1 autocorrelation) per key in (t, event_id) order.  Sufficient
    statistics (n, Σa, Σb, Σab, Σa², Σb² over the key's consecutive
    pairs) accumulate exactly in integer cents; the closing formula
    casts each statistic to double FIRST and runs entirely in doubles —
    the oracle's exact operand order — so r is bit-identical at 6dp.
    Keys with < 2 pairs or a zero-variance side emit NULL r."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(g)
        c = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(c)
        # pair arrays aligned to positions 1..n-1, zeroed at key firsts
        # so per-key reduceat sums stay exact without masking
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        a[1:], b[1:] = c[:-1], c[1:]
        a[starts], b[starts] = 0, 0
        # Σc² per key must not wrap int64 (the oracle's SUM(BIGINT) is
        # 128-bit): past the safe bound, accumulate exact Python ints
        # via object arrays — same values, rare path
        amax = int(np.abs(c).max()) if n else 0
        if amax and amax * amax * n >= (1 << 62):
            a = a.astype(object)
            b = b.astype(object)
        sa = np.add.reduceat(a, starts)
        sb = np.add.reduceat(b, starts)
        sab = np.add.reduceat(a * b, starts)
        saa = np.add.reduceat(a * a, starts)
        sbb = np.add.reduceat(b * b, starts)
        np_pairs = ends - starts - 1
        keep = np_pairs >= 1
        nd = np_pairs[keep].astype(np.float64)
        sad, sbd = sa[keep].astype(np.float64), sb[keep].astype(np.float64)
        sabd = sab[keep].astype(np.float64)
        saad, sbbd = saa[keep].astype(np.float64), sbb[keep].astype(np.float64)
        va = nd * saad - sad * sad
        vb = nd * sbbd - sbd * sbd
        ok = (np_pairs[keep] >= 2) & (va > 0) & (vb > 0)
        r = np.full(len(nd), np.nan)
        with np.errstate(invalid="ignore"):
            r[ok] = round_half_away(
                (nd[ok] * sabd[ok] - sad[ok] * sbd[ok])
                / (np.sqrt(va[ok]) * np.sqrt(vb[ok])), 6)
        return pd.DataFrame({
            "user_id": keys[starts][keep],
            "n_pairs": np_pairs[keep].astype(np.int64),
            "r1": r,
        })


def autocorr_lag1(events):
    """Per-user lag-1 autocorrelation of value — one partition-group
    shuffle; integer-exact moments, double-identical closing formula."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", AutocorrGroup())


# --- seasonal profile ------------------------------------------------------

def seasonal_profile(events, *, by: str = "event_type",
                     key_type: "pa.DataType | None" = None):
    """Hour-of-day seasonal profile per key: (key, hod, n, mean_value) —
    the diurnal-pattern summary behind seasonality checks.

    Pure partial-first aggregation: per-block integer (cents, count)
    partials per (key, hod) cell, ONE groupby-sum over at most
    24·|keys| rows, exact mean = double(Σcents)/n/100 rounded 6dp on
    both sides.  The key column keeps its INPUT type (string, int64,
    ...); ``key_type`` only sets the type emitted for column-less
    empty blocks (default string, matching the ``event_type``
    default key)."""
    empty_key_type = key_type if key_type is not None else pa.string()

    def _partial(t: pa.Table) -> pa.Table:
        if by not in t.column_names:  # column-less empty block
            return pa.table({by: pa.array([], empty_key_type),
                             "hod": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        key_type = t.schema.field(by).type  # keep the input key type
        keys = t[by].to_pandas()
        tsec = _epoch_micros(t["ts"]) // 1_000_000
        hod = (tsec // 3600) % 24
        cents = scaled_int(t["value"].to_pandas().to_numpy(np.float64))
        codes, uniq = pd.factorize(keys, sort=False)
        # null keys form their own group (SQL GROUP BY keeps them)
        cell = codes.astype(np.int64) * 24 + hod
        u, inv = np.unique(cell, return_inverse=True)
        sc = np.zeros(len(u), dtype=np.int64)
        nc = np.zeros(len(u), dtype=np.int64)
        np.add.at(sc, inv, cents)
        np.add.at(nc, inv, 1)
        key_of = u // 24
        key_vals = np.append(uniq.to_numpy(object)
                             if hasattr(uniq, "to_numpy")
                             else np.asarray(uniq, object), None)
        return pa.table({
            by: pa.array(key_vals[key_of], type=key_type),
            "hod": pa.array(u % 24),
            "c": pa.array(sc),
            "n": pa.array(nc),
        })

    tot = combine(events.map_batches(_partial, batch_format="pyarrow"),
                  [by, "hod"], sums_of("c", "n"))

    def _final(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            by: t[by], "hod": t["hod"],
            "n": pa.array(n),
            "mean_value": pa.array(
                round_half_away(c / n / 100.0, 6)),
        })

    return tot.map_batches(_final, batch_format="pyarrow")


# --- Holt linear (double exponential) smoothing ----------------------------

class HoltGroup:
    """Per-partition kernel: Holt's linear-trend smoothing per key in
    (t, event_id) order —

        l_t = α·x_t + (1-α)·(l_{t-1} + b_{t-1})
        b_t = β·(l_t - l_{t-1}) + (1-β)·b_{t-1}

    seeded l_1 = x_1, b_1 = x_2 - x_1 (keys with < 2 points emit their
    single row with level = x and NULL trend).  Both recursions run in
    exactly the oracle CTE's operand order, vectorized ACROSS keys (the
    EWMA position-major pattern, two state vectors), so level and trend
    are bit-identical doubles before the shared 6dp round."""

    def __init__(self, alpha: float = 0.5, beta: float = 0.5):
        self.alpha, self.beta = alpha, beta

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # recursive-CTE equality join drops nulls
        rows, keys, codes, _, _ = key_runs(g, keep=g["user_id"].notna())
        if len(rows) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"],
                "event_id": pd.Series([], dtype=np.int64),
                "t": pd.Series([], dtype=np.int64),
                "level": pd.Series([], dtype=np.float64),
                "trend": pd.Series([], dtype=np.float64)})
        t = rows["t"].to_numpy(np.int64)
        x = rows["value"].to_numpy(np.float64)
        n = len(t)
        pm, offs = _pos_major_layout(codes, n)
        x_pm = x[pm]
        l_pm = np.empty(n)
        b_pm = np.empty(n)
        a, am = self.alpha, 1.0 - self.alpha
        b, bm = self.beta, 1.0 - self.beta
        max_len = len(offs) - 1
        x0 = x_pm[offs[0]:offs[1]]
        L = x0.copy()
        B = np.full(len(x0), np.nan)
        l_pm[offs[0]:offs[1]] = L
        b_pm[offs[0]:offs[1]] = B
        for k in range(1, max_len):
            m = offs[k + 1] - offs[k]
            xk = x_pm[offs[k]:offs[k + 1]]
            if k == 1:
                # seed row 2 exactly like the CTE anchor:
                # l_2 = α·x_2 + (1-α)·(x_1 + (x_2 - x_1)), b_2 via l_1=x_1
                b1 = xk - x0[:m]
                Lk = a * xk + am * (x0[:m] + b1)
                Bk = b * (Lk - x0[:m]) + bm * b1
            else:
                prev_l, prev_b = L[:m], B[:m]
                Lk = a * xk + am * (prev_l + prev_b)
                Bk = b * (Lk - prev_l) + bm * prev_b
            L, B = Lk, Bk
            l_pm[offs[k]:offs[k + 1]] = Lk
            b_pm[offs[k]:offs[k + 1]] = Bk
        lv = np.empty(n)
        tv = np.empty(n)
        lv[pm] = l_pm
        tv[pm] = b_pm
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": t,
            "level": round_half_away(lv, 6),
            "trend": round_half_away(tv, 6),
        })


def holt_per_user(events, *, alpha: float = 0.5, beta: float = 0.5):
    """Per-user Holt linear-trend smoothing — one partition-group
    shuffle; the two-state float recursion is recursive-CTE-certified
    bit-exactly."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", HoltGroup(alpha, beta))


# --- grid resample with linear interpolation -------------------------------

class ResampleInterpGroup:
    """Per-partition kernel: union of grid and event rows; each grid
    row linearly interpolates between the latest observation at or
    before it and the next strictly-after one —

        v = v_prev + (v_next - v_prev) · ((h - t_prev) / (t_next - t_prev))

    Duplicate-microsecond events first dedup to the highest event_id
    (the engine-wide tie rule, = the oracle's rn=1), so both neighbors
    are unambiguous.  A grid point landing exactly on an observation
    gets a zero factor → exactly v_prev (the oracle's t_next = t_prev
    CASE arm); the grid never extends past the span, so a missing next
    neighbor implies t_prev = h."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, _, _ = key_runs(g, by=("t", "__side", "event_id"))
        t = rows["t"].to_numpy(np.int64)
        vals = rows["value"].to_numpy(np.float64)
        n = len(t)
        is_event = rows["__side"].to_numpy(np.int64) == 0
        # dedup duplicate-t events to the LAST (highest event_id): an
        # event followed by another event of the same key and t is shadowed
        shadowed = np.zeros(n, dtype=bool)
        if n > 1:
            shadowed[:-1] = (is_event[:-1] & is_event[1:]
                             & (codes[1:] == codes[:-1])
                             & (t[1:] == t[:-1]))
        live = is_event & ~shadowed
        prev_evt = _segmented_last(codes, live)
        # next: the same scan over the reversed arrays (codes reversed
        # are DESCENDING, so flip their sign to keep the running max
        # keyed correctly); positions come back as reversed indices
        nxt_r = _segmented_last(-codes[::-1], live[::-1])
        next_evt = np.where(nxt_r[::-1] >= 0,
                            n - 1 - nxt_r[::-1], -1)
        grid = ~is_event
        gsel = np.flatnonzero(grid & (prev_evt >= 0))
        p, q = prev_evt[gsel], next_evt[gsel]
        vp = vals[p]
        h = t[gsel]
        out = vp.copy()
        has_next = (q >= 0) & (t[np.maximum(q, 0)] > t[p])
        hv = np.flatnonzero(has_next)
        if hv.size:
            pp, qq = p[hv], q[hv]
            out[hv] = vp[hv] + (vals[qq] - vp[hv]) * (
                (h[hv] - t[pp]).astype(np.float64)
                / (t[qq] - t[pp]).astype(np.float64))
        return pd.DataFrame({
            "user_id": keys[gsel],
            "window_start": h // 1_000_000,
            "value": round_half_away(out, 6),
        })


def resample_interp(events, *, width_s: int = 3600):
    """Regular-grid linear-interpolation resample — the smooth variant
    of :func:`resample_ffill`, same key-local grid and single-shuffle
    shape."""
    prepped = _prep_events(events)
    return partition_groups(
        prepped, "user_id", LocalGridResample(ResampleInterpGroup(), width_s))


# --- hysteresis alerting ---------------------------------------------------

class HysteresisGroup:
    """Per-partition kernel: the two-threshold alert state machine per
    key in (t, event_id) order —

        s_t = 1           if v_t > hi
              0           if v_t < lo
              s_{t-1}     otherwise        (s_1 = 1 iff v_1 > hi)

    the standard alerting debounce (no flapping between lo and hi).
    Pure integer recursion on the position-major layout — exact by
    construction; a recursive CTE certifies the fold.

    NULL values: ``to_numpy(np.float64)`` maps an Arrow NULL value to
    NaN, which this kernel then treats like DuckDB treats NaN (ordered
    above every value, so ``NaN > hi`` holds → alert=1).  That is an
    intentional NULL→NaN coercion: SQL itself would evaluate
    ``NULL > hi`` as not-true (carry the previous state).  The corpus
    has no NULL values; feed pre-cleaned data (or drop null-valued
    rows upstream) if SQL NULL carry semantics are required."""

    def __init__(self, hi: float, lo: float):
        self.hi, self.lo = hi, lo

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # recursive-CTE equality join drops nulls
        rows, keys, codes, _, _ = key_runs(g, keep=g["user_id"].notna())
        if len(rows) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"],
                "event_id": pd.Series([], dtype=np.int64),
                "t": pd.Series([], dtype=np.int64),
                "alert": pd.Series([], dtype=np.int64)})
        t = rows["t"].to_numpy(np.int64)
        x = rows["value"].to_numpy(np.float64)
        n = len(t)
        pm, offs = _pos_major_layout(codes, n)
        x_pm = x[pm]
        s_pm = np.empty(n, dtype=np.int64)
        # DuckDB orders NaN above every value, so `value > hi` is TRUE
        # for NaN; numpy comparisons with NaN are False — spell the
        # DuckDB semantics out to keep the oracle parity exact
        x0 = x_pm[offs[0]:offs[1]]
        cur = ((x0 > self.hi) | np.isnan(x0)).astype(np.int64)
        s_pm[offs[0]:offs[1]] = cur
        for k in range(1, len(offs) - 1):
            m = offs[k + 1] - offs[k]
            xk = x_pm[offs[k]:offs[k + 1]]
            cur = np.where((xk > self.hi) | np.isnan(xk), 1,
                           np.where(xk < self.lo, 0, cur[:m]))
            s_pm[offs[k]:offs[k + 1]] = cur
        s = np.empty(n, dtype=np.int64)
        s[pm] = s_pm
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": t,
            "alert": s,
        })


def alert_hysteresis(events, *, hi: float = 150.0, lo: float = 50.0):
    """Per-user two-threshold alert state (1 above ``hi`` until dropping
    below ``lo``) — one partition-group shuffle, exact integer fold."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", HysteresisGroup(hi, lo))


# --- changepoint (binary segmentation, depth 1) -----------------------------

class ChangepointGroup:
    """Per-partition kernel: single best mean-shift split per key —
    binary segmentation at depth 1, the screening step of BinSeg/PELT
    changepoint detection (Scott & Knott 1974; Killick 2012).  In each
    key's (t, event_id) order with integer-cents prefix sums ``S_s``,
    the split score is the between-segment explained sum of squares

        score(s) = S_s²/s + (S_n − S_s)²/(n − s)

    computed in doubles with the cast-each-stat-first operand order of
    the SQL oracle, maximized over s ∈ [1, n−1] with the EARLIEST s on
    double ties (the oracle's ``row_number() OVER (ORDER BY score DESC,
    s)``).  The reported gain is the explained-variance increase
    ``(score_best − S_n²/n)/10⁴`` in value² units, rounded 6dp.  Keys
    with n < 2 have no admissible split and emit nothing.  Prefix sums
    are exact int64 with the same object-int escape hatch as
    :class:`AutocorrGroup` past the wrap bound."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, starts, ends = key_runs(g)
        c = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(c)
        lens = ends - starts
        # per-key running sums stay exact: past the int64 cumsum bound
        # fall back to object Python ints (rare; same values)
        if np.abs(c, dtype=np.float64).sum() >= float(1 << 62):
            c = c.astype(object)
        cs = np.cumsum(c)
        off = cs[starts] - c[starts]
        S = cs - np.repeat(off, lens)
        stot = np.repeat(S[ends - 1], lens)
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, lens) + 1
        nk = np.repeat(lens, lens)
        valid = (pos < nk) & (nk >= 2)
        if not valid.any():
            return pd.DataFrame({
                "user_id": rows["user_id"].iloc[:0],
                "n": pd.Series([], dtype=np.int64),
                "split_pos": pd.Series([], dtype=np.int64),
                "gain": pd.Series([], dtype=np.float64)})
        sl = S[valid].astype(np.float64)
        rl = (stot - S)[valid].astype(np.float64)
        sp = pos[valid].astype(np.float64)
        rp = (nk - pos)[valid].astype(np.float64)
        score = sl * sl / sp + rl * rl / rp
        vstarts, vends = _segment_starts(codes[valid])
        maxv = np.maximum.reduceat(score, vstarts)
        # earliest split attaining the per-key max (exact double compare)
        attain = score == np.repeat(maxv, vends - vstarts)
        cand = np.where(attain, np.arange(len(score)), len(score))
        pick = np.minimum.reduceat(cand, vstarts)
        nkv = nk[valid][pick].astype(np.float64)
        sb = stot[valid][pick].astype(np.float64)
        base = sb * sb / nkv
        return pd.DataFrame({
            "user_id": keys[valid][pick],
            "n": nk[valid][pick].astype(np.int64),
            "split_pos": pos[valid][pick].astype(np.int64),
            "gain": round_half_away((maxv - base) / 10000.0, 6),
        })


def changepoint_user(events):
    """Per-user best mean-shift split (depth-1 binary segmentation) —
    one partition-group shuffle of (key, id, t, cents)-width rows."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", ChangepointGroup())


# --- cross-series correlation (top-k users, hourly grid) --------------------

class _CorrPairsClose:
    """Closing kernel for :func:`corr_pairs_hourly`: the ≤ k·H
    (user, hour, Σcents) cells arrive as ONE block (bounded by the user
    cap × the corpus hour span, never by corpus size); a dense
    users×hours int64 matrix (absent hours are true zeros — the dense
    hourly-total semantics) yields every pairwise moment in one integer
    matmul, and Pearson closes in doubles with the cast-each-stat-first
    operand order of :class:`AutocorrGroup`.  Zero-variance sides emit
    NULL r."""

    def __init__(self, users: np.ndarray, hmin: int, hmax: int):
        self.users = np.sort(np.asarray(users, dtype=np.int64))
        self.hmin, self.hmax = int(hmin), int(hmax)

    def __call__(self, t: pa.Table) -> pa.Table:
        users = self.users
        ku = len(users)
        H = self.hmax - self.hmin + 1
        if len(t) == 0 or "user_id" not in t.column_names:
            # a stray empty block must NOT fabricate all-zero pairs —
            # the single real batch (repartition(1), batch_size=None)
            # carries every cell
            return pa.table({"user_a": pa.array([], pa.int64()),
                             "user_b": pa.array([], pa.int64()),
                             "n_hours": pa.array([], pa.int64()),
                             "r": pa.array([], pa.float64())})
        M = np.zeros((ku, H), dtype=np.int64)
        ui = np.searchsorted(users, t["user_id"].to_numpy())
        hi = t["h"].to_numpy() - self.hmin
        M[ui, hi] = t["v"].to_numpy()
        # Σ_h a_h·b_h must not wrap int64 (the oracle sums HUGEINT):
        # past the bound, exact object-int matmul (rare path)
        amax = float(np.abs(M).max()) if M.size else 0.0
        if amax and amax * amax * H >= float(1 << 62):
            M = M.astype(object)
        G = M @ M.T
        sa = M.sum(axis=1)
        ia, ib = np.triu_indices(ku, k=1)
        nh = float(H)
        sad = sa[ia].astype(np.float64)
        sbd = sa[ib].astype(np.float64)
        sabd = G[ia, ib].astype(np.float64)
        vaa = nh * np.diag(G)[ia].astype(np.float64) - sad * sad
        vbb = nh * np.diag(G)[ib].astype(np.float64) - sbd * sbd
        ok = (H >= 2) & (vaa > 0.0) & (vbb > 0.0)
        r = np.full(len(ia), np.nan)
        with np.errstate(invalid="ignore"):
            r[ok] = round_half_away(
                (nh * sabd[ok] - sad[ok] * sbd[ok])
                / (np.sqrt(vaa[ok]) * np.sqrt(vbb[ok])), 6)
        return pa.table({
            "user_a": pa.array(users[ia]),
            "user_b": pa.array(users[ib]),
            "n_hours": pa.array(np.full(len(ia), H, dtype=np.int64)),
            "r": pa.array(r),
        })


def _topk_hourly_cells(events, k: int):
    """Shared scaffolding for the top-k cross-series screens
    (:func:`corr_pairs_hourly`, :func:`xcorr_best_lag`): returns
    ``(users, hmin, hmax, cells)`` where ``users`` are the ``k`` most
    active user ids (ties at rank k break by ascending user_id — the
    oracle's ``ORDER BY cnt DESC, user_id LIMIT k``), ``[hmin, hmax]``
    the global epoch-hour span over ALL events, and ``cells`` a Dataset
    of ≤ k·H (user_id, h, v=Σcents) rows — bounded by the user cap ×
    the corpus hour span, never by corpus size.  ``users`` is empty on
    an empty corpus (callers emit their typed empty result).

    Scale plan (no all-to-all on the big table): per-block user-count
    partials → one small groupby → distributed top-k (``topk_by``,
    never a global sort); the k winners broadcast into a scan-side
    filter; per-block (user, hour) cents partials → one bounded
    groupby.  The three consumers (counts, span, cells) share ONE
    materialized 24-byte/row projection instead of re-running the
    source scan three times — the kmeans/tfidf multi-pass convention;
    Ray spills it past memory, and at a scale where spilling three
    passes' worth is worse than re-scanning, drop the ``materialize()``
    and let each consumer re-read the pruned columns."""
    from ray.data.aggregate import Max, Min

    from .relational import topk_by

    prepped = _prep_events(events, cols=("user_id", "value"))

    def _hour(b: pa.Table) -> pa.Table:
        if "t" not in b.column_names:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "value": pa.array([], pa.float64()),
                             "h": pa.array([], pa.int64())})
        h = b["t"].to_numpy() // 1_000_000 // 3600
        return pa.table({"user_id": b["user_id"], "value": b["value"],
                         "h": pa.array(h)})

    hourly = prepped.map_batches(_hour, batch_format="pyarrow") \
        .materialize()

    def _cnt_partial(b: pa.Table) -> pa.Table:
        if "user_id" not in b.column_names:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        u, cnts = np.unique(b["user_id"].to_numpy(), return_counts=True)
        return pa.table({"user_id": pa.array(u),
                         "cnt": pa.array(cnts.astype(np.int64))})

    counts = combine(hourly.map_batches(_cnt_partial, batch_format="pyarrow"),
                     ["user_id"], sums_of("cnt"))
    top = topk_by(counts, ["cnt", "user_id"], [True, False], k) \
        .select_columns(["user_id"]).take_all()
    users = np.array([r["user_id"] for r in top], dtype=np.int64)
    if len(users) == 0:                    # empty corpus
        return users, 0, -1, None
    span = hourly.aggregate(Min("h"), Max("h"))
    hmin, hmax = int(span["min(h)"]), int(span["max(h)"])

    def _cell_partial(b: pa.Table) -> pa.Table:
        if "user_id" not in b.column_names or len(b) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "h": pa.array([], pa.int64()),
                             "v": pa.array([], pa.int64())})
        u = b["user_id"].to_numpy()
        v = b["value"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        # NULL/NaN values drop — scaled_int(NaN) is INT64_MIN and
        # would poison the cents sums
        keep = np.isin(u, users) & np.isfinite(v)
        u = u[keep]
        h = b["h"].to_numpy()[keep]
        c = scaled_int(v[keep])
        # composite (user, hour) cell id: hours are non-negative epoch
        # hours, users a dense ≤ k index
        ui = np.searchsorted(np.sort(users), u)
        cell = ui.astype(np.int64) * (1 << 40) + h
        uq, inv = np.unique(cell, return_inverse=True)
        sums = np.zeros(len(uq), dtype=np.int64)
        np.add.at(sums, inv, c)
        su = np.sort(users)[(uq >> 40).astype(np.int64)]
        return pa.table({"user_id": pa.array(su),
                         "h": pa.array(uq & ((1 << 40) - 1)),
                         "v": pa.array(sums)})

    cells = combine(hourly.map_batches(_cell_partial, batch_format="pyarrow"),
                    ["user_id", "h"], sums_of("v"))
    return users, hmin, hmax, cells


def corr_pairs_hourly(events, *, k: int = 20):
    """All-pairs Pearson correlation of hourly value totals between the
    ``k`` most active users — the cross-series co-movement screen behind
    correlated-sensor / correlated-metric detection.  The bounded
    :func:`_topk_hourly_cells` table collapses to one block where a
    single integer matmul yields every pairwise moment."""
    users, hmin, hmax, cells = _topk_hourly_cells(events, k)
    if len(users) == 0:                    # empty corpus → typed empty
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "user_a": pa.array([], pa.int64()),
            "user_b": pa.array([], pa.int64()),
            "n_hours": pa.array([], pa.int64()),
            "r": pa.array([], pa.float64())}))
    return cells.repartition(1).map_batches(
        _CorrPairsClose(users, hmin, hmax),
        batch_format="pyarrow", batch_size=None)


class _XcorrClose:
    """Closing kernel for :func:`xcorr_best_lag`: the bounded
    (user, hour, Σcents) cells arrive as ONE block; a dense users×hours
    int64 matrix (absent hours are true zeros) yields the zero-padded
    cross-correlation Σₕ aₕ·b₍ₕ₊ₗ₎ for every ordered pair a<b and every
    lag in [−L, L] as (2L+1) integer matmuls of grid slices, then the
    per-pair argmax picks the best lag (highest score, SMALLEST lag on
    ties — exact integer compare, so no float tie hazards).  Doubles
    appear only in the normalized r = s / (√Σa²·√Σb²), cast-first;
    a zero-energy side emits NULL r.  Products past the int64 bound
    fall back to exact object-int matmuls (the oracle sums HUGEINT)."""

    def __init__(self, users: np.ndarray, hmin: int, hmax: int,
                 max_lag: int):
        self.users = np.sort(np.asarray(users, dtype=np.int64))
        self.hmin, self.hmax = int(hmin), int(hmax)
        self.max_lag = int(max_lag)

    def __call__(self, t: pa.Table) -> pa.Table:
        users = self.users
        ku = len(users)
        H = self.hmax - self.hmin + 1
        L = self.max_lag
        empty = pa.table({"user_a": pa.array([], pa.int64()),
                          "user_b": pa.array([], pa.int64()),
                          "best_lag": pa.array([], pa.int64()),
                          "xc_num": pa.array([], pa.int64()),
                          "r_best": pa.array([], pa.float64())})
        if len(t) == 0 or "user_id" not in t.column_names:
            # a stray empty block must NOT fabricate all-zero pairs —
            # the single real batch (repartition(1), batch_size=None)
            # carries every cell
            return empty
        M = np.zeros((ku, H), dtype=np.int64)
        ui = np.searchsorted(users, t["user_id"].to_numpy())
        hi = t["h"].to_numpy() - self.hmin
        M[ui, hi] = t["v"].to_numpy()
        amax = float(np.abs(M).max()) if M.size else 0.0
        if amax and amax * amax * H >= float(1 << 62):
            M = M.astype(object)
        ia, ib = np.triu_indices(ku, k=1)
        npair = len(ia)
        if npair == 0:
            return empty
        best_s = None
        best_l = None
        for lag in range(-L, L + 1):
            if lag >= 0:
                G = M[:, :H - lag] @ M[:, lag:].T if lag < H else \
                    np.zeros((ku, ku), dtype=M.dtype)
            else:
                G = M[:, -lag:] @ M[:, :H + lag].T if -lag < H else \
                    np.zeros((ku, ku), dtype=M.dtype)
            s = G[ia, ib]
            if best_s is None:
                best_s, best_l = s.copy(), np.full(npair, lag,
                                                   dtype=np.int64)
            else:
                win = s > best_s        # strict: ties keep smaller lag
                best_s[win] = s[win]
                best_l[win] = lag
        en = (M * M).sum(axis=1)
        ea = en[ia].astype(np.float64)
        eb = en[ib].astype(np.float64)
        sd = best_s.astype(np.float64)
        ok = (ea > 0.0) & (eb > 0.0)
        r = np.full(npair, np.nan)
        with np.errstate(invalid="ignore"):
            from ..functions.rounding import round_half_away
            r[ok] = round_half_away(
                sd[ok] / (np.sqrt(ea[ok]) * np.sqrt(eb[ok])), 6)
        return pa.table({
            "user_a": pa.array(users[ia]),
            "user_b": pa.array(users[ib]),
            "best_lag": pa.array(best_l),
            "xc_num": pa.array(np.array([int(x) for x in best_s],
                                        dtype=np.int64)),
            "r_best": pa.array(r)})


def xcorr_best_lag(events, *, k: int = 20, max_lag: int = 24):
    """Best-lag zero-padded cross-correlation between the ``k`` most
    active users' dense hourly totals — the lead/lag co-movement screen
    ("does metric A lead metric B by N hours").  Shares
    :func:`_topk_hourly_cells`' bounded cell plan with
    :func:`corr_pairs_hourly`; the close is (2·max_lag+1) integer
    matmuls over the ≤ k·H dense grid, argmax per pair with the
    smallest lag on exact-integer ties."""
    users, hmin, hmax, cells = _topk_hourly_cells(events, k)
    if len(users) == 0:                    # empty corpus → typed empty
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "user_a": pa.array([], pa.int64()),
            "user_b": pa.array([], pa.int64()),
            "best_lag": pa.array([], pa.int64()),
            "xc_num": pa.array([], pa.int64()),
            "r_best": pa.array([], pa.float64())}))
    return cells.repartition(1).map_batches(
        _XcorrClose(users, hmin, hmax, max_lag),
        batch_format="pyarrow", batch_size=None)


# --- Theil-Sen robust slope -------------------------------------------------

class TheilSenGroup:
    """Per-partition kernel: Theil-Sen robust trend per key — the median
    of all pairwise slopes (Theil 1950; Sen 1968) over pairs with
    STRICTLY increasing timestamps.  Slopes are the double division of
    exact integers (cents Δ / µs Δ, both IEEE-exact operands), the
    median matches DuckDB ``quantile_cont(0.5)`` bit-for-bit (measured:
    DuckDB interpolates even counts as (a+b)/2 — np.median's formula,
    NOT the lerp ``a+(b−a)·0.5``), and the per-hour scaling multiplies
    once at the close.  O(n_k²) pairs per key by construction — the
    estimator's definition — so keys are assumed boundedly long (series
    per device/user); pair construction is fully vectorized across every
    co-located key (ramp indexing, no per-key Python loop).  Keys with
    no strict-t pair (singletons, all-tied timestamps) emit nothing."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # oracle's equi-self-join drops null keys
        rows, keys, codes, starts, ends = key_runs(
            g, keep=g["user_id"].notna())
        t = rows["t"].to_numpy(np.int64)
        c = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(c)
        lens = ends - starts
        # all intra-key (i, j>i) pairs, vectorized ramp construction
        counts = np.repeat(ends, lens) - np.arange(n) - 1
        P = int(counts.sum())
        a_idx = np.repeat(np.arange(n), counts)
        cum0 = np.r_[0, np.cumsum(counts)][:-1]
        ramp = np.arange(P) - np.repeat(cum0, counts)
        b_idx = a_idx + 1 + ramp
        dt = t[b_idx] - t[a_idx]
        keep = dt > 0                      # strict time order only
        a_idx, b_idx, dt = a_idx[keep], b_idx[keep], dt[keep]
        if len(dt) == 0:          # no pairs, or every pair tied in t
            return pd.DataFrame({
                "user_id": rows["user_id"].iloc[:0],
                "n_pairs": pd.Series([], dtype=np.int64),
                "slope_per_hour": pd.Series([], dtype=np.float64)})
        sl = (c[b_idx] - c[a_idx]).astype(np.float64) \
            / dt.astype(np.float64)
        pc = codes[a_idx]
        # per-key median via one sort + middle picks ((a+b)/2 for even
        # counts — DuckDB quantile_cont's exact arithmetic)
        so = np.lexsort((sl, pc))
        pc, sl = pc[so], sl[so]
        pfirst = np.r_[True, pc[1:] != pc[:-1]]
        pstarts = np.flatnonzero(pfirst)
        plens = np.r_[pstarts[1:], len(pc)] - pstarts
        lo = pstarts + (plens - 1) // 2
        hi = pstarts + plens // 2
        med = (sl[lo] + sl[hi]) / 2.0
        key_of = keys[a_idx][pstarts]
        return pd.DataFrame({
            "user_id": key_of,
            "n_pairs": plens.astype(np.int64),
            "slope_per_hour": round_half_away(med * 36000000.0, 6),
        })


def theil_sen(events):
    """Per-user Theil-Sen robust slope (median pairwise slope, per
    hour) — one partition-group shuffle; quadratic per key by the
    estimator's definition (document/window long series upstream)."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", TheilSenGroup())


# --- 1-D Kalman filter (local-level model) ---------------------------------

class KalmanGroup:
    """Per-partition kernel: scalar Kalman filter (local-level /
    random-walk-plus-noise model, Kalman 1960) per key in (t, event_id)
    order —

        p₁ = p + q;  k = p₁/(p₁ + r);  x ← x + k·(z − x);  p ← (1−k)·p₁

    seeded x₁ = z₁, p₁ = p0 (the first row's gain is NULL).  Unlike
    EWMA/Holt the gain is DATA-INDEPENDENT only in the limit — here it
    evolves through a division each step, and every step's add/mul/div
    runs in exactly the oracle CTE's operand order, vectorized ACROSS
    keys (the position-major pattern, two state vectors), so level and
    gain are bit-identical doubles before the shared 6dp round."""

    def __init__(self, q: float = 1.0, r: float = 4.0, p0: float = 1.0):
        self.q, self.r, self.p0 = q, r, p0

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # recursive-CTE equality join drops nulls
        rows, keys, codes, _, _ = key_runs(g, keep=g["user_id"].notna())
        if len(rows) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"],
                "event_id": pd.Series([], dtype=np.int64),
                "t": pd.Series([], dtype=np.int64),
                "level": pd.Series([], dtype=np.float64),
                "gain": pd.Series([], dtype=np.float64)})
        t = rows["t"].to_numpy(np.int64)
        z = rows["value"].to_numpy(np.float64)
        n = len(t)
        pm, offs = _pos_major_layout(codes, n)
        z_pm = z[pm]
        lv_pm = np.empty(n)
        kg_pm = np.empty(n)
        max_len = len(offs) - 1
        z0 = z_pm[offs[0]:offs[1]]
        X = z0.copy()
        P = np.full(len(z0), self.p0)
        lv_pm[offs[0]:offs[1]] = X
        kg_pm[offs[0]:offs[1]] = np.nan
        for j in range(1, max_len):
            m = offs[j + 1] - offs[j]
            zk = z_pm[offs[j]:offs[j + 1]]
            p1 = P[:m] + self.q
            kk = p1 / (p1 + self.r)
            Xk = X[:m] + kk * (zk - X[:m])
            Pk = (1.0 - kk) * p1
            X, P = Xk, Pk
            lv_pm[offs[j]:offs[j + 1]] = Xk
            kg_pm[offs[j]:offs[j + 1]] = kk
        lv = np.empty(n)
        kg = np.empty(n)
        lv[pm] = lv_pm
        kg[pm] = kg_pm
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": t,
            "level": round_half_away(lv, 6),
            "gain": round_half_away(kg, 6),
        })


def kalman_per_user(events, *, q: float = 1.0, r: float = 4.0,
                    p0: float = 1.0):
    """Per-user scalar Kalman filtering (local-level model) — one
    partition-group shuffle; the two-state recursion with its per-step
    division gain is recursive-CTE-certified bit-exactly."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", KalmanGroup(q, r, p0))


# --- Holt-Winters additive (triple exponential smoothing) -------------------

class HoltWintersGroup:
    """Per-partition kernel: Holt-Winters ADDITIVE seasonal smoothing
    (Winters 1960) per key in (t, event_id) order, period ``m`` —

        l_t = α·(z_t − s_{t−m}) + (1−α)·(l_{t−1} + b_{t−1})
        b_t = β·(l_t − l_{t−1}) + (1−β)·b_{t−1}
        s_t = γ·(z_t − l_t) + (1−γ)·s_{t−m}

    seeded l₁ = z₁, b₁ = 0, all seasonals 0 (the anchor row emits NULL
    seasonal and does not update a phase) — a deterministic convention
    both sides share; the phase of row rn is (rn−1) mod m.  The oracle
    CTE carries the m seasonal states as m SCALAR columns (phase
    selected by CASE) — no list carry, so the recursion stays inside
    DuckDB's reliable scalar path — and every step's operand order is
    replayed exactly, vectorized ACROSS keys position-major (position j
    updates the SAME phase j mod m for every alive key, so the phase
    slot is one in-place row write)."""

    def __init__(self, alpha: float = 0.5, beta: float = 0.5,
                 gamma: float = 0.25, m: int = 4):
        self.alpha, self.beta, self.gamma, self.m = alpha, beta, gamma, m

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # recursive-CTE equality join drops nulls
        rows, keys, codes, _, _ = key_runs(g, keep=g["user_id"].notna())
        if len(rows) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"],
                "event_id": pd.Series([], dtype=np.int64),
                "t": pd.Series([], dtype=np.int64),
                "level": pd.Series([], dtype=np.float64),
                "trend": pd.Series([], dtype=np.float64),
                "seasonal": pd.Series([], dtype=np.float64)})
        t = rows["t"].to_numpy(np.int64)
        z = rows["value"].to_numpy(np.float64)
        n = len(t)
        pm, offs = _pos_major_layout(codes, n)
        z_pm = z[pm]
        lv_pm = np.empty(n)
        tr_pm = np.empty(n)
        se_pm = np.empty(n)
        a, am = self.alpha, 1.0 - self.alpha
        b, bm = self.beta, 1.0 - self.beta
        gg, gm = self.gamma, 1.0 - self.gamma
        max_len = len(offs) - 1
        z0 = z_pm[offs[0]:offs[1]]
        L = z0.copy()
        B = np.zeros(len(z0))
        S = np.zeros((self.m, len(z0)))    # longest-first layout: alive
        lv_pm[offs[0]:offs[1]] = L         # keys are always a prefix
        tr_pm[offs[0]:offs[1]] = B
        se_pm[offs[0]:offs[1]] = np.nan
        for j in range(1, max_len):
            w = offs[j + 1] - offs[j]
            zk = z_pm[offs[j]:offs[j + 1]]
            p = j % self.m
            sp = S[p][:w].copy()
            lprev, bprev = L[:w], B[:w]
            Lk = a * (zk - sp) + am * (lprev + bprev)
            Bk = b * (Lk - lprev) + bm * bprev
            Sk = gg * (zk - Lk) + gm * sp
            S[p][:w] = Sk
            L, B = Lk, Bk
            lv_pm[offs[j]:offs[j + 1]] = Lk
            tr_pm[offs[j]:offs[j + 1]] = Bk
            se_pm[offs[j]:offs[j + 1]] = Sk
        lv = np.empty(n)
        tr = np.empty(n)
        se = np.empty(n)
        lv[pm] = lv_pm
        tr[pm] = tr_pm
        se[pm] = se_pm
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": t,
            "level": round_half_away(lv, 6),
            "trend": round_half_away(tr, 6),
            "seasonal": round_half_away(se, 6),
        })


def holt_winters_per_user(events, *, alpha: float = 0.5,
                          beta: float = 0.5, gamma: float = 0.25,
                          m: int = 4):
    """Per-user Holt-Winters additive seasonal smoothing — one
    partition-group shuffle; the (level, trend, m seasonals) float
    recursion is recursive-CTE-certified bit-exactly (scalar phase
    columns, no list carry)."""
    prepped = _prep_events(events)
    return partition_groups(
        prepped, "user_id", HoltWintersGroup(alpha, beta, gamma, m))


# --- spectral power (DFT at fixed calendar periods) --------------------------

class SpectralGroup:
    """Per-partition kernel: single-frequency DFT power per key at fixed
    calendar periods (daily = 24 h, weekly = 168 h) — the seasonality-
    strength screen behind "does this series have a daily cycle".

    For each key in (t, event_id) order, with h = epoch hours and
    θ_P = ((2π)·(h mod P))/P, folds cs = Σ cents·cos θ and
    ss = Σ cents·sin θ as ORDERED left folds (bit-identical to SQL
    ``list_reduce(list(term ORDER BY t, event_id), (a,b) -> a+b)``),
    then closes power = ((cs² + ss²)/n²)/10⁴ (value-units², n-normalized)
    rounded 6dp.  The per-row cos/sin is a gather from a ≤P-entry table
    computed with ``math.cos``/``math.sin`` — glibc libm, which DuckDB's
    ``cos``/``sin`` match BIT-FOR-BIT (0/200k mismatches measured; same
    verification family as the libm-ln oracles).  Vectorized across keys
    via the position-major layout; null keys drop (oracle inner scan)."""

    PERIODS = (24, 168)

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import math
        empty = pd.DataFrame({
            "user_id": pd.Series([], dtype=np.int64),
            "n_events": pd.Series([], dtype=np.int64),
            "power_daily": pd.Series([], dtype=np.float64),
            "power_weekly": pd.Series([], dtype=np.float64)})
        # NULL keys and NULL/NaN values drop (oracle WHERE; a NaN's
        # scaled_int sentinel would poison the folded sums)
        rows, keys, codes, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & np.isfinite(g["value"].to_numpy(np.float64)))
        if len(rows) == 0:
            return empty
        t = rows["t"].to_numpy(np.int64)
        cf = scaled_int(rows["value"].to_numpy(np.float64)) \
            .astype(np.float64)
        h = t // 1_000_000 // 3600
        n = len(t)
        # per-row cos/sin terms via a libm lookup over the ≤P phases
        terms = np.empty((n, 2 * len(self.PERIODS)))
        for pi, P in enumerate(self.PERIODS):
            m = (h % P).astype(np.int64)
            um = np.unique(m)
            # EXACT SQL arg order: ((2*pi())*CAST(m AS DOUBLE))/P
            cos_t = np.array([math.cos((2.0 * math.pi * float(v)) / P)
                              for v in um])
            sin_t = np.array([math.sin((2.0 * math.pi * float(v)) / P)
                              for v in um])
            idx = np.searchsorted(um, m)
            terms[:, 2 * pi] = cf * cos_t[idx]
            terms[:, 2 * pi + 1] = cf * sin_t[idx]
        # ordered left fold per key, vectorized across keys
        pm, offs = _pos_major_layout(codes, n)
        terms_pm = terms[pm]
        acc_pm = np.empty_like(terms_pm)
        max_len = len(offs) - 1
        cur = terms_pm[offs[0]:offs[1]].copy()
        acc_pm[offs[0]:offs[1]] = cur
        for k in range(1, max_len):
            mrows = offs[k + 1] - offs[k]
            cur = cur[:mrows] + terms_pm[offs[k]:offs[k + 1]]
            acc_pm[offs[k]:offs[k + 1]] = cur
        acc = np.empty_like(terms)
        acc[pm] = acc_pm
        fin = acc[ends - 1]                    # per-key final fold values
        nk = (ends - starts).astype(np.int64)
        nf = nk.astype(np.float64)
        out = {"user_id": keys[starts], "n_events": nk}
        for pi, name in enumerate(("power_daily", "power_weekly")):
            cs, ss = fin[:, 2 * pi], fin[:, 2 * pi + 1]
            out[name] = round_half_away(
                ((cs * cs + ss * ss) / (nf * nf)) / 10000.0, 6)
        return pd.DataFrame(out)


def spectral_power(events):
    """Per-user DFT power at the daily and weekly calendar periods —
    one partition-group shuffle; trig terms + ordered float folds are
    bit-exact vs the libm-trig ``list_reduce`` oracle."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", SpectralGroup())


# --- fixed-width piecewise-linear approximation (PLA) -----------------------

class PlaSegmentsGroup:
    """Per-partition kernel: fixed-width piecewise-linear approximation
    of every co-located key's series.  Positions rn (0-based, per-key
    (t, event_id) order) split into width-``w`` segments; each segment
    gets the least-squares line of value vs LOCAL position j = rn % w
    (all five sufficient statistics exact int64 over cents × tiny j)
    plus the max absolute residual — the PLA reconstruction-error bound
    a downsampling storage tier keeps alongside the coefficients.
    Slope/intercept/residual run the oracle's exact double op order;
    1-point segments emit NULL fit columns."""

    def __init__(self, width: int = 16):
        self.width = width

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # NULL keys and NULL/NaN values drop, like the SQL side's
        # WHERE before row_number (scaled_int(NaN) is INT64_MIN and
        # would poison the integer sufficient statistics)
        rows, keys, codes, key_starts, key_ends = key_runs(
            g, keep=g["user_id"].notna()
            & np.isfinite(g["value"].to_numpy(np.float64)))
        t = rows["t"].to_numpy(np.int64)
        cents = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(t)
        w = self.width
        rn = np.arange(n, dtype=np.int64) \
            - np.repeat(key_starts, key_ends - key_starts)
        seg = rn // w
        j = rn - seg * w
        starts, ends = _segment_starts(codes, seg)
        cnt = (ends - starts).astype(np.int64)
        maxc = int(np.abs(cents).max()) if n else 0
        # n·Σjv ≤ w²·(w-1)·max|cents| must stay clear of int64
        if w * w * max(w - 1, 1) * maxc >= (1 << 62):
            raise OverflowError(
                "pla_segments: cents magnitude × width³ approaching "
                "int64 — reduce width or accumulate in (hi, lo) limbs")
        sj = np.add.reduceat(j, starts)
        sv = np.add.reduceat(cents, starts)
        sjv = np.add.reduceat(j * cents, starts)
        sjj = np.add.reduceat(j * j, starts)
        nf = cnt.astype(np.float64)
        ok = cnt >= 2
        slope = np.full(len(starts), np.nan)
        intercept = np.full(len(starts), np.nan)
        with np.errstate(invalid="ignore"):
            num = (cnt * sjv - sj * sv).astype(np.float64)
            den = (cnt * sjj - sj * sj).astype(np.float64)
            slope[ok] = num[ok] / den[ok] / 100.0
            intercept[ok] = (sv.astype(np.float64)[ok] / nf[ok] / 100.0
                             - slope[ok]
                             * (sj.astype(np.float64)[ok] / nf[ok]))
        # residual bound: |cents/100 − (intercept + slope·j)| per row,
        # max per segment (NaN coefficients propagate, masked by ok)
        seg_ids = np.repeat(np.arange(len(starts)), cnt)
        fitted = intercept[seg_ids] + slope[seg_ids] * j.astype(np.float64)
        err = np.abs(cents.astype(np.float64) / 100.0 - fitted)
        me = np.maximum.reduceat(err, starts)
        return pd.DataFrame({
            "user_id": keys[starts],
            "seg": seg[starts],
            "t_start": t[starts],
            "n": cnt,
            "slope": np.where(ok, round_half_away(slope, 6), np.nan),
            "intercept": np.where(ok, round_half_away(intercept, 6),
                                  np.nan),
            "max_abs_err": np.where(ok, round_half_away(me, 6), np.nan),
        })


def pla_segments(events, *, width: int = 16):
    """Fixed-width piecewise-linear approximation per series — the
    linear-coefficient downsample tier (slope, intercept, max abs
    residual per width-point segment).  One partition-group shuffle;
    integer-exact sufficient statistics, oracle-exact closes."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", PlaSegmentsGroup(width))


# --- Page-Hinkley drift test -------------------------------------------------

class PageHinkleyGroup:
    """Per-partition kernel: two-sided Page-Hinkley mean-drift test
    (Page 1954; Hinkley 1971) per key in (t, event_id) order over
    CENTS —

        d_t  = cents_t − S_t/t                (running-mean deviation)
        m⁺_t = m⁺_{t−1} + (d_t − δ);  PH⁺_t = m⁺_t − min_{i≤t} m⁺_i
        m⁻_t = m⁻_{t−1} + (d_t + δ);  PH⁻_t = max_{i≤t} m⁻_i − m⁻_t

    with an alarm when either PH statistic exceeds λ (δ, λ in cents).
    The running mean is EXACT — an int64 cents cumsum with ONE double
    division S/t, replayed by the oracle as
    ``CAST(sum OVER rows AS DOUBLE) / rn`` — so unlike a float cumsum
    it is safe under ANY aggregation order; the two (m, extremum)
    folds then run in the oracle CTE's exact operand order, vectorized
    ACROSS keys position-major (four state vectors).  The alarm
    compares the RAW cents statistic (bit-identical doubles on both
    sides), so the flag needs no tolerance; PH outputs are /100 back
    to value units and 6dp-rounded."""

    def __init__(self, delta: float = 100.0, lam: float = 50000.0):
        self.delta, self.lam = delta, lam

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # NULL keys and NULL/NaN values drop (oracle WHERE; a NaN's
        # scaled_int sentinel would poison the exact cents cumsum)
        rows, keys, codes, _, _ = key_runs(
            g, keep=g["user_id"].notna()
            & np.isfinite(g["value"].to_numpy(np.float64)))
        if len(rows) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"],
                "event_id": pd.Series([], dtype=np.int64),
                "t": pd.Series([], dtype=np.int64),
                "ph_inc": pd.Series([], dtype=np.float64),
                "ph_dec": pd.Series([], dtype=np.float64),
                "alarm": pd.Series([], dtype=np.int64)})
        t = rows["t"].to_numpy(np.int64)
        c = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(t)
        pm, offs = _pos_major_layout(codes, n)
        c_pm = c[pm]
        phi_pm = np.empty(n)
        phd_pm = np.empty(n)
        al_pm = np.empty(n, dtype=np.int64)
        max_len = len(offs) - 1
        c0 = c_pm[offs[0]:offs[1]]
        S = c0.copy()                       # exact int64 running sum
        d = c0.astype(np.float64) - S.astype(np.float64) / 1.0
        M = d - self.delta                  # anchor: direct expressions
        MN = M.copy()
        M2 = d + self.delta
        MX = M2.copy()
        phi_pm[offs[0]:offs[1]] = M - MN
        phd_pm[offs[0]:offs[1]] = MX - M2
        al_pm[offs[0]:offs[1]] = (((M - MN) > self.lam)
                                  | ((MX - M2) > self.lam))
        for j in range(1, max_len):
            w = offs[j + 1] - offs[j]
            ck = c_pm[offs[j]:offs[j + 1]]
            S = S[:w] + ck
            d = ck.astype(np.float64) \
                - S.astype(np.float64) / np.float64(j + 1)
            Mk = M[:w] + (d - self.delta)
            MNk = np.minimum(MN[:w], Mk)
            M2k = M2[:w] + (d + self.delta)
            MXk = np.maximum(MX[:w], M2k)
            M, MN, M2, MX = Mk, MNk, M2k, MXk
            phi = Mk - MNk
            phd = MXk - M2k
            phi_pm[offs[j]:offs[j + 1]] = phi
            phd_pm[offs[j]:offs[j + 1]] = phd
            al_pm[offs[j]:offs[j + 1]] = ((phi > self.lam)
                                          | (phd > self.lam))
        phi = np.empty(n)
        phd = np.empty(n)
        al = np.empty(n, dtype=np.int64)
        phi[pm] = phi_pm
        phd[pm] = phd_pm
        al[pm] = al_pm
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": t,
            "ph_inc": round_half_away(phi / 100.0, 6),
            "ph_dec": round_half_away(phd / 100.0, 6),
            "alarm": al,
        })


def page_hinkley(events, *, delta: float = 100.0, lam: float = 50000.0):
    """Per-user two-sided Page-Hinkley drift detection — the streaming
    mean-shift monitor of a training-data ingest pipeline (has this
    source's value distribution drifted since the cohort started?).
    One partition-group shuffle; the running-mean deviation folds are
    recursive-CTE-certified bit-exactly."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", PageHinkleyGroup(delta, lam))


# --- variance-ratio random-walk test ----------------------------------------

class VarianceRatioGroup:
    """Per-partition kernel: Lo–MacKinlay variance-ratio test (Lo &
    MacKinlay 1988) per key over the (t, event_id)-ordered cents
    sequence —

        VR(q) = (Var[x_{i+q} − x_i] / q) / Var[x_{i+1} − x_i]

    with OVERLAPPING q-step differences and population variances.
    Every moment is an exact integer: per-key Σd and Σd² of int64
    cent diffs, so the variance numerators N = n·Σd² − (Σd)² are
    computed in Python ints (the oracle uses HUGEINT) and only the
    final ratio close is double — each stat CAST FIRST, one fixed
    operand order both sides.  Keys with n ≤ q rows or a zero 1-step
    variance emit nothing (the oracle filters the same integer
    predicate N1 > 0 — exact, no tolerance)."""

    def __init__(self, q: int = 4):
        self.q = q

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "n": pd.Series([], dtype=np.int64),
            "vr": pd.Series([], dtype=np.float64)})
        # NULL keys and NULL/NaN values drop (oracle WHERE; a NaN's
        # scaled_int sentinel would silently wrap the diff moments)
        rows, keys, codes, _, _ = key_runs(
            g, keep=g["user_id"].notna()
            & np.isfinite(g["value"].to_numpy(np.float64)))
        if len(rows) == 0:
            return empty
        c = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(c)
        q = self.q
        K = int(codes.max()) + 1
        out_rows = []
        for lag in (1, q):
            ok = np.zeros(n, dtype=bool)
            ok[:n - lag] = codes[lag:] == codes[:-lag] if lag < n \
                else False
            a = np.flatnonzero(ok)
            d = c[a + lag] - c[a]
            kd = codes[a]
            cnt = np.bincount(kd, minlength=K)
            # Σd² per key must not wrap int64 (the oracle's HUGEINT
            # can't): the bound uses the ACTUAL diffs — a high LEVEL
            # with small steps stays on the fast path; past the bound
            # accumulate exact Python ints via object arrays (same
            # values, rare path)
            dmax = int(np.abs(d).max()) if len(d) else 0
            if dmax and dmax * dmax * len(d) >= (1 << 62):
                d = d.astype(object)
                sd = np.zeros(K, dtype=object)
                sdd = np.zeros(K, dtype=object)
            else:
                sd = np.zeros(K, dtype=np.int64)
                sdd = np.zeros(K, dtype=np.int64)
            np.add.at(sd, kd, d)
            np.add.at(sdd, kd, d * d)
            out_rows.append((cnt, sd, sdd))
        (n1, s1, ss1), (nq, sq_, ssq) = out_rows
        first = np.r_[True, codes[1:] != codes[:-1]]
        kidx = codes[first]
        key_of = keys[first]
        res_u, res_n, res_vr = [], [], []
        for i, k in enumerate(kidx):
            if nq[k] < 1:
                continue
            # exact integer variance numerators (HUGEINT in the oracle)
            n1k, nqk = int(n1[k]), int(nq[k])
            num1 = n1k * int(ss1[k]) - int(s1[k]) * int(s1[k])
            numq = nqk * int(ssq[k]) - int(sq_[k]) * int(sq_[k])
            if num1 <= 0:
                continue
            vr = (float(numq) / ((float(nqk) * nqk) * float(q))) \
                / (float(num1) / (float(n1k) * n1k))
            res_u.append(key_of[i])
            res_n.append(n1k + 1)
            res_vr.append(vr)
        return pd.DataFrame({
            "user_id": np.asarray(res_u, dtype=key_of.dtype)
            if res_u else key_of[:0],
            "n": np.asarray(res_n, dtype=np.int64),
            "vr": round_half_away(np.asarray(res_vr, dtype=np.float64),
                                  6) if res_vr
            else np.array([], dtype=np.float64),
        })


def variance_ratio(events, *, q: int = 4):
    """Per-user Lo–MacKinlay variance-ratio test: is the series a
    random walk (VR≈1), mean-reverting (VR<1) or trending (VR>1)?
    One partition-group shuffle; integer-exact moments, one double
    ratio close."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", VarianceRatioGroup(q))


# --- EWM control bands (EWMA level + EW variance) ---------------------------

class EwmBandsGroup:
    """Per-partition kernel: exponentially-weighted control bands
    (the EWMA control chart of Roberts 1959 with an EW variance
    estimate) per key in (t, event_id) order —

        pe_t   = x_t − l_{t−1}                    (prediction error)
        flag_t = v_{t−1} > 0  AND  |pe_t| > k·sqrt(v_{t−1})
        l_t    = l_{t−1} + α·pe_t
        v_t    = (1−α)·(v_{t−1} + α·(pe_t·pe_t))

    seeded l₁ = x₁, v₁ = 0 (the anchor never flags).  The recursion is
    pure double arithmetic in a FIXED operand order and ``sqrt`` is
    IEEE-754 correctly rounded — DuckDB ``sqrt`` == ``np.sqrt`` bit for
    bit — so the whole fold, including the per-row square root in the
    band test, is recursive-CTE-certified exactly; the flag compares
    raw doubles and needs no tolerance.  Vectorized ACROSS keys via the
    position-major layout (two state vectors)."""

    def __init__(self, alpha: float = 0.25, k: float = 3.0):
        self.alpha, self.k = alpha, k

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "event_id": pd.Series([], dtype=np.int64),
            "t": pd.Series([], dtype=np.int64),
            "level": pd.Series([], dtype=np.float64),
            "ewm_std": pd.Series([], dtype=np.float64),
            "flag": pd.Series([], dtype=np.int64)})
        # NULL keys and NULL/NaN values drop (oracle WHERE; a NaN
        # would poison the recursion with NaN≠NULL semantics)
        rows, keys, codes, _, _ = key_runs(
            g, keep=g["user_id"].notna()
            & np.isfinite(g["value"].to_numpy(np.float64)))
        if len(rows) == 0:
            return empty
        t = rows["t"].to_numpy(np.int64)
        x = rows["value"].to_numpy(np.float64)
        n = len(t)
        pm, offs = _pos_major_layout(codes, n)
        x_pm = x[pm]
        lv_pm = np.empty(n)
        sd_pm = np.empty(n)
        fl_pm = np.empty(n, dtype=np.int64)
        a, am, kk = self.alpha, 1.0 - self.alpha, self.k
        max_len = len(offs) - 1
        L = x_pm[offs[0]:offs[1]].copy()
        V = np.zeros(len(L))
        lv_pm[offs[0]:offs[1]] = L
        sd_pm[offs[0]:offs[1]] = 0.0
        fl_pm[offs[0]:offs[1]] = 0
        for j in range(1, max_len):
            w = offs[j + 1] - offs[j]
            xj = x_pm[offs[j]:offs[j + 1]]
            pe = xj - L[:w]
            # flag from the PRE-update state: |pe| > k·sqrt(v_prev)
            fl = (V[:w] > 0.0) & (np.abs(pe) > kk * np.sqrt(V[:w]))
            Lk = L[:w] + a * pe
            Vk = am * (V[:w] + a * (pe * pe))
            L, V = Lk, Vk
            lv_pm[offs[j]:offs[j + 1]] = Lk
            sd_pm[offs[j]:offs[j + 1]] = np.sqrt(Vk)
            fl_pm[offs[j]:offs[j + 1]] = fl
        lv = np.empty(n)
        sd = np.empty(n)
        fl = np.empty(n, dtype=np.int64)
        lv[pm] = lv_pm
        sd[pm] = sd_pm
        fl[pm] = fl_pm
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": t,
            "level": round_half_away(lv, 6),
            "ewm_std": round_half_away(sd, 6),
            "flag": fl,
        })


def ewm_bands(events, *, alpha: float = 0.25, k: float = 3.0):
    """Per-user EWMA control chart with exponentially-weighted
    variance bands — the streaming per-point anomaly monitor (is THIS
    observation surprising given the series so far?), complementing
    page_hinkley's cumulative mean-drift view.  One partition-group
    shuffle; the (l, v) recursion INCLUDING the per-row sqrt band test
    is recursive-CTE-certified bit-exactly."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", EwmBandsGroup(alpha, k))


# --- classic additive seasonal decomposition --------------------------------

class SeasonalDecomposeGroup:
    """Per-partition kernel: the classic additive decomposition's
    seasonal extraction (the 2×m centered moving average of Macaulay
    1931 / the 'classical decomposition') per key over the
    (t, event_id)-ordered cents sequence, period ``m`` observations —

        T'_i = c_{i−h} + 2·Σ_{|j|<h} c_{i+j} + c_{i+h}   (h = m/2;
               the 2×m MA numerator, total weight 2m)
        d'_i = 2m·c_i − T'_i                (detrended, SCALED by 2m)
        seasonal(key, p) = mean of d' over phase p = (i mod m),
               full-window rows only

    Everything up to the close is INTEGER-EXACT — the 2m-scaling
    clears the half-weights and the trend division, so no float enters
    until one (Σd'/n)/2m/100 close per (key, phase) cell (HUGEINT sums
    in the oracle).  Emits the trend-adjusted seasonal profile — the
    dual of ``seasonal_profile``'s raw phase means, immune to trends
    that alias into fake seasonality there."""

    def __init__(self, m: int = 24):
        assert m % 2 == 0, "classic decomposition needs an even period"
        self.m = m

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "phase": pd.Series([], dtype=np.int64),
            "n": pd.Series([], dtype=np.int64),
            "seasonal": pd.Series([], dtype=np.float64)})
        rows, keys, _, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & np.isfinite(g["value"].to_numpy(np.float64)))
        c = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(c)
        m, h = self.m, self.m // 2
        lens = ends - starts
        # full-window rows: local position in [h, len-1-h]
        local = np.arange(n) - np.repeat(starts, lens)
        valid = (local >= h) & (local <= np.repeat(lens, lens) - 1 - h)
        i = np.flatnonzero(valid)
        if len(i) == 0:
            return empty
        cs0 = np.concatenate([[0], np.cumsum(c)])
        wsum = cs0[i + h + 1] - cs0[i - h]   # windows never cross keys
        tnum = 2 * wsum - c[i - h] - c[i + h]
        d = 2 * m * c[i] - tnum              # exact scaled detrend
        phase = local[i] % m
        # slot by SEGMENT index, not factorize code — the NaN-value
        # filter can vanish a code entirely, leaving codes[] values
        # that no longer align with the surviving segments
        seg_of = np.repeat(np.arange(len(starts)), lens)
        nseg = len(starts)
        slot = seg_of[i] * m + phase
        cnt = np.bincount(slot, minlength=nseg * m)
        # Σd per cell must not wrap int64 (the oracle sums HUGEINT):
        # past the |d|-bounded fast path accumulate exact Python ints
        dmax = int(np.abs(d).max()) if len(d) else 0
        if dmax and dmax * len(d) >= (1 << 62):
            d = d.astype(object)
            sd = np.zeros(nseg * m, dtype=object)
        else:
            sd = np.zeros(nseg * m, dtype=np.int64)
        np.add.at(sd, slot, d)
        hit = np.flatnonzero(cnt)
        first_of_key = keys[starts]
        return pd.DataFrame({
            "user_id": first_of_key[hit // m],
            "phase": (hit % m).astype(np.int64),
            "n": cnt[hit].astype(np.int64),
            "seasonal": round_half_away(
                ((sd[hit].astype(np.float64) / cnt[hit]) / float(2 * m))
                / 100.0, 6),
        })


def seasonal_decompose(events, *, m: int = 24):
    """Per-user classic additive seasonal decomposition (period ``m``
    observations): 2×m centered-MA detrend — integer-exact via the
    2m-scaling — then per-phase seasonal means.  One partition-group
    shuffle; the close is one double chain per (user, phase) cell."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", SeasonalDecomposeGroup(m))


# --- peak detection ----------------------------------------------------------

class PeakDetectGroup:
    """Per-partition kernel: strict local maxima per key in
    (t, event_id) order with a prominence floor — row i is a peak when
    ``v_i > v_{i-1}``, ``v_i > v_{i+1}`` and
    ``v_i - max(v_{i-1}, v_{i+1}) >= min_prom``, all on RAW doubles
    (lag/lead compares and one subtraction — no float fold, so the SQL
    window twin is bit-identical).  Key endpoints never qualify (SQL
    lag/lead NULLs).  Vectorized: one lexsort, shifted views with
    key-boundary invalidation."""

    def __init__(self, min_prom: float = 0.5):
        self.min_prom = min_prom

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "event_id": pd.Series([], dtype=np.int64),
            "t": pd.Series([], dtype=np.int64),
            "value": pd.Series([], dtype=np.float64),
            "prom": pd.Series([], dtype=np.float64)})
        rows, keys, codes, _, _ = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        t = rows["t"].to_numpy(np.int64)
        ids = rows["event_id"].to_numpy()
        v = rows["value"].to_numpy(np.float64)
        n = len(v)
        interior = np.zeros(n, dtype=bool)
        if n >= 3:
            same_prev = np.r_[False, codes[1:] == codes[:-1]]
            same_next = np.r_[codes[:-1] == codes[1:], False]
            interior = same_prev & same_next
        i = np.flatnonzero(interior)
        if len(i) == 0:
            return empty
        pv, nv = v[i - 1], v[i + 1]
        hi = np.maximum(pv, nv)
        is_peak = (v[i] > pv) & (v[i] > nv) & (v[i] - hi >= self.min_prom)
        i = i[is_peak]
        return pd.DataFrame({
            "user_id": keys[i],
            "event_id": ids[i].astype(np.int64),
            "t": t[i],
            "value": v[i],
            "prom": round_half_away(v[i] - np.maximum(v[i - 1], v[i + 1]), 6),
        })


def peak_detection(events, *, min_prom: float = 0.5):
    """Per-user strict local maxima with a prominence floor — the
    event-stream spike inventory (alerting / motif seeding).  One
    partition-group shuffle; raw-double compares only."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", PeakDetectGroup(min_prom))


# --- Haar wavelet energies ---------------------------------------------------

class HaarEnergyGroup:
    """Per-partition kernel: unnormalized Haar lifting over each key's
    cents series in (t, event_id) order, truncated to a multiple of 8
    so three detail levels exist; pair sums/differences stay exact
    int64 (``s = a+b``, ``d = a-b``), the orthonormal energy per level
    is ``Σ d² / 2^level`` closed with ONE double divide per cell
    (÷ 2^level·10⁴ back to value units).  Keys shorter than 8 rows
    emit nothing (no level-3 coefficient).  Σd² guards int64 overflow
    with an exact Python-int fallback, mirroring the HUGEINT oracle."""

    LEVELS = 3

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "level": pd.Series([], dtype=np.int64),
            "n_coef": pd.Series([], dtype=np.int64),
            "energy": pd.Series([], dtype=np.float64)})
        rows, keys, _, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        x = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(x)
        lens = ends - starts
        trunc = lens - lens % (1 << self.LEVELS)
        local = np.arange(n) - np.repeat(starts, lens)
        kept = local < np.repeat(trunc, lens)
        x = x[kept]
        seg_keys = keys[starts][trunc > 0]
        lens = trunc[trunc > 0]
        if len(lens) == 0:
            return empty
        out_user, out_level, out_ncoef, out_energy = [], [], [], []
        for level in range(1, self.LEVELS + 1):
            starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
            local = np.arange(len(x)) - np.repeat(starts, lens)
            first = np.flatnonzero(local % 2 == 0)
            d = x[first] - x[first + 1]
            x = x[first] + x[first + 1]          # next level's input
            lens = lens // 2
            dstarts = np.concatenate([[0], np.cumsum(lens)[:-1]])
            dmax = int(np.abs(d).max()) if len(d) else 0
            if dmax and dmax * dmax * len(d) >= (1 << 62):
                e2 = np.array([sum(int(v) * int(v) for v in seg)
                               for seg in np.split(d, dstarts[1:])],
                              dtype=np.float64)
            else:
                e2 = np.add.reduceat(d * d, dstarts).astype(np.float64)
            out_user.append(seg_keys)
            out_level.append(np.full(len(lens), level, dtype=np.int64))
            out_ncoef.append(lens.astype(np.int64))
            out_energy.append(round_half_away(
                e2 / (float(1 << level) * 10000.0), 6))
        return pd.DataFrame({
            "user_id": np.concatenate(out_user),
            "level": np.concatenate(out_level),
            "n_coef": np.concatenate(out_ncoef),
            "energy": np.concatenate(out_energy)})


def haar_energy(events):
    """Per-user Haar wavelet detail energy at levels 1–3 — the classic
    multi-resolution variance split (which timescale carries the
    signal's power).  One partition-group shuffle, integer-exact
    lifting, one double divide per output cell."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", HaarEnergyGroup())


# --- Ljung-Box portmanteau test ---------------------------------------------

class LjungBoxGroup:
    """Per-partition kernel: the Ljung-Box white-noise portmanteau
    statistic ``Q = n(n+2)·Σ_{k=1..K} ρ_k²/(n-k)`` per key over lags
    1..K.  Mean-centering is n-scaled into exact integers
    (``y_t = n·c_t − Σc`` — the n² cancels inside ρ), lag products and
    Σy² reduce exactly (Python-int fallback past the int64 bound, the
    oracle's HUGEINT), and the close casts each statistic to double
    FIRST then folds the K terms in ascending-lag order — the SQL
    twin's exact operand order.  Keys with n < 10 or zero variance
    emit nothing."""

    def __init__(self, lags: int = 5):
        self.lags = lags

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "n": pd.Series([], dtype=np.int64),
            "q_stat": pd.Series([], dtype=np.float64)})
        rows, keys, codes, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        c = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(c)
        lens = ends - starts
        nk_row = np.repeat(lens, lens)
        s_row = np.repeat(np.add.reduceat(c, starts), lens)
        y = nk_row * c - s_row
        ymax = int(np.abs(y).max()) if n else 0
        if ymax and ymax * ymax * n >= (1 << 62):
            y = y.astype(object)
        d = np.add.reduceat(y * y, starts)
        nums = []
        for k in range(1, self.lags + 1):
            a = np.zeros(n, dtype=y.dtype)
            if n > k:
                a[k:] = y[:-k]
                a[k:][codes[k:] != codes[:-k]] = 0
            nums.append(np.add.reduceat(a * y, starts))
        sel = (lens >= 10) & (d.astype(np.float64) > 0)
        if not sel.any():
            return empty
        nd = lens[sel]
        dd = d[sel].astype(np.float64)
        acc = np.zeros(len(nd))
        for k in range(1, self.lags + 1):
            rk = nums[k - 1][sel].astype(np.float64) / dd
            acc = acc + (rk * rk) / (nd - k).astype(np.float64)
        q = (nd * (nd + 2)).astype(np.float64) * acc
        return pd.DataFrame({
            "user_id": keys[starts][sel],
            "n": nd.astype(np.int64),
            "q_stat": round_half_away(q, 6)})


def ljung_box(events, *, lags: int = 5):
    """Per-user Ljung-Box portmanteau white-noise test over lags
    1..``lags`` — the classic residual-autocorrelation screen.  One
    partition-group shuffle, integer-exact moments, double-identical
    ascending-lag closing fold."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", LjungBoxGroup(lags))


# --- sample entropy ----------------------------------------------------------

class SampleEntropyGroup:
    """Per-partition kernel: Richman-Moorman sample entropy per key,
    template length m=2, Chebyshev radius ``r`` in exact integer cents.
    A and B count template-match pairs ``i < j <= n-2`` (length-2 and
    length-3 matches respectively) — pure integer compares, so the SQL
    self-join twin is exact; the close is one ``-ln(A/B)`` via
    ``math.log`` (glibc libm == DuckDB ``ln`` bit-for-bit), NULL when
    either count is zero.  Quadratic in each key's length BY DEFINITION
    — vectorized row-chunked broadcasting bounds the working set, and
    the partitioning assumption (bounded per-key series, the package's
    per-series contract) is documented in :func:`sample_entropy`."""

    CHUNK = 1024

    def __init__(self, r_cents: int = 200):
        self.r = int(r_cents)

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import math
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "n": pd.Series([], dtype=np.int64),
            "b_cnt": pd.Series([], dtype=np.int64),
            "a_cnt": pd.Series([], dtype=np.int64),
            "sampen": pd.Series([], dtype=np.float64)})
        rows, keys, _, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        x = scaled_int(rows["value"].to_numpy(np.float64))
        out_key, out_n, out_b, out_a, out_s = [], [], [], [], []
        for s, e in zip(starts, ends):
            L = (e - s) - 2
            if L < 2:
                continue
            xs = x[s:e]
            a0, a1, a2 = xs[:L], xs[1:L + 1], xs[2:L + 2]
            b_cnt = a_cnt = 0
            for lo in range(0, L, self.CHUNK):
                hi = min(lo + self.CHUNK, L)
                m01 = ((np.abs(a0[lo:hi, None] - a0[None, :]) <= self.r)
                       & (np.abs(a1[lo:hi, None] - a1[None, :]) <= self.r))
                # keep only j > i (strict upper triangle of the full mat)
                m01 &= np.arange(L)[None, :] > np.arange(lo, hi)[:, None]
                b_cnt += int(m01.sum())
                m01 &= np.abs(a2[lo:hi, None] - a2[None, :]) <= self.r
                a_cnt += int(m01.sum())
            out_key.append(keys[s])
            out_n.append(e - s)
            out_b.append(b_cnt)
            out_a.append(a_cnt)
            out_s.append(round_half_away(-math.log(a_cnt / b_cnt), 6)
                         if a_cnt > 0 and b_cnt > 0 else np.nan)
        if not out_key:
            return empty
        return pd.DataFrame({
            "user_id": np.array(out_key),
            "n": np.array(out_n, dtype=np.int64),
            "b_cnt": np.array(out_b, dtype=np.int64),
            "a_cnt": np.array(out_a, dtype=np.int64),
            "sampen": np.array(out_s, dtype=np.float64)})


def sample_entropy(events, *, r_cents: int = 200):
    """Per-user sample entropy SampEn(m=2, r) — the regularity /
    predictability score of each series.  One partition-group shuffle;
    integer-exact match counts, one libm ln per key.  PARTITIONING
    ASSUMPTION: per-key series are bounded (the package-wide per-series
    contract) — the match count is quadratic in series length by
    definition, computed in CHUNK-row vectorized slabs."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", SampleEntropyGroup(r_cents))


# --- Croston intermittent-demand forecast ------------------------------------

class CrostonGroup:
    """Per-partition kernel: Croston's method per key over the key's
    demand hours (hour cells with ≥ 1 event; the demand grid is sparse
    BY CONSTRUCTION, intermittence lives in the hour gaps).  With the
    demand sizes ``d_i`` and inter-demand intervals ``q_i = hr_i −
    hr_{i−1}`` in hour order, the two exponential recursions anchor at
    the SECOND demand hour (``z = d₁ + α(d₂ − d₁)``, ``p = q₂``) and
    fold ``z += α(d−z)``, ``p += α(q−p)`` — exactly that operand
    order, so the doubles are bit-identical to a recursive-CTE oracle.
    Forecast per key = ``z/p`` demand per hour.  Keys with < 2 demand
    hours emit nothing.  Vectorized across keys via the position-major
    layout (state is one vector per key rank)."""

    def __init__(self, alpha: float = 0.2):
        self.alpha = alpha

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, _, _ = key_runs(
            g, by=(g["t"].to_numpy(np.int64) // 3_600_000_000,),
            keep=g["user_id"].notna())
        hour = rows["t"].to_numpy(np.int64) // 3_600_000_000
        # collapse to (key, hour) demand cells with counts
        cs, ce = _segment_starts(codes, hour)
        d = (ce - cs).astype(np.float64)
        ccodes, chour, ckeys = codes[cs], hour[cs], keys[cs]
        pm, offs = _pos_major_layout(ccodes, len(cs))
        d_pm, h_pm = d[pm], chour[pm]
        max_len = len(offs) - 1
        if max_len < 2:       # no key with two demand hours (or no rows)
            return pd.DataFrame({
                "user_id": rows["user_id"].iloc[:0],
                "n_hours": pd.Series([], dtype=np.int64),
                "level": pd.Series([], dtype=np.float64),
                "smooth_interval": pd.Series([], dtype=np.float64),
                "forecast": pd.Series([], dtype=np.float64)})
        m0 = offs[1] - offs[0]
        rank_keys = ckeys[pm[offs[0]:offs[1]]]
        lens = np.zeros(m0, dtype=np.int64)
        z = np.full(m0, np.nan)
        p = np.full(m0, np.nan)
        last_h = h_pm[offs[0]:offs[1]].astype(np.float64)
        prev_d = d_pm[offs[0]:offs[1]].copy()
        lens[:m0] = 1
        a = self.alpha
        for k in range(1, max_len):
            m = offs[k + 1] - offs[k]
            dk = d_pm[offs[k]:offs[k + 1]]
            hk = h_pm[offs[k]:offs[k + 1]].astype(np.float64)
            q = hk - last_h[:m]
            if k == 1:
                z[:m] = prev_d[:m] + a * (dk - prev_d[:m])
                p[:m] = q
            else:
                z[:m] = z[:m] + a * (dk - z[:m])
                p[:m] = p[:m] + a * (q - p[:m])
            last_h[:m] = hk
            lens[:m] += 1
        sel = lens >= 2
        return pd.DataFrame({
            "user_id": rank_keys[sel],
            "n_hours": lens[sel],
            "level": round_half_away(z[sel], 6),
            "smooth_interval": round_half_away(p[sel], 6),
            "forecast": round_half_away(z[sel] / p[sel], 6)})


def croston_demand(events, *, alpha: float = 0.2):
    """Per-user Croston intermittent-demand forecast over the hourly
    demand grid — the standard sparse-demand smoother (demand size and
    inter-demand interval smoothed separately).  One partition-group
    shuffle; bit-exact vs a recursive-CTE oracle."""

    def _prep(batch: pa.Table) -> pa.Table:
        if "ts" not in batch.column_names:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "t": pa.array([], pa.int64())})
        return pa.table({"user_id": batch["user_id"],
                         "t": pa.array(_epoch_micros(batch["ts"]))})

    prepped = events.map_batches(_prep, batch_format="pyarrow")
    return partition_groups(prepped, "user_id", CrostonGroup(alpha))


# --- Hurst exponent (rescaled range) -----------------------------------------

class HurstRSGroup:
    """Per-partition kernel: rescaled-range Hurst exponent per key.
    For window sizes w ∈ {8, 16, 32}, the key's series (t, event_id
    order, cents) splits into ⌊n/w⌋ consecutive blocks; per block the
    mean-centering is w-scaled into exact integers (``y = w·c − Σc``,
    which sums to ZERO per block so the segmented cumsum stays small),
    R = (max−min of the cumulative y) / w and S = √(Σy²/w³) close as
    fixed double chains, and the per-(key, w) mean of R/S folds LEFT
    IN BLOCK ORDER (the oracle's ``list_reduce`` operand order).
    Hurst = the 3-point least-squares slope of ln(mean R/S) on ln(w),
    closed in the zipf_fit expression order with libm logs.  Blocks
    with zero variance drop; keys missing any of the three sizes (or
    with every block degenerate) emit nothing."""

    SIZES = (8, 16, 32)

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import math
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "n": pd.Series([], dtype=np.int64),
            "hurst": pd.Series([], dtype=np.float64)})
        rows, keys, _, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        x = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(x)
        lens = ends - starts
        K = len(starts)
        # per-key (w -> (mean_rs or None))
        means: list[dict] = [dict() for _ in range(K)]
        for w in self.SIZES:
            nblk = lens // w
            kept = np.flatnonzero(nblk > 0)
            if len(kept) == 0:
                continue
            local = np.arange(n) - np.repeat(starts, lens)
            valid = local < np.repeat(nblk * w, lens)
            xv = x[valid]
            bstarts = np.arange(0, len(xv), w)
            s_blk = np.add.reduceat(xv, bstarts)
            y = w * xv - np.repeat(s_blk, w)
            ymax = int(np.abs(y).max()) if len(y) else 0
            if ymax and ymax * ymax * w >= (1 << 62):
                y = y.astype(object)
            cs = np.cumsum(y)
            base = cs[bstarts] - y[bstarts]
            c_dev = cs - np.repeat(base, w)
            rng = (np.maximum.reduceat(c_dev, bstarts)
                   - np.minimum.reduceat(c_dev, bstarts))
            ss = np.add.reduceat(y * y, bstarts)
            ok = ss.astype(np.float64) > 0
            r_part = rng.astype(np.float64) / float(w)
            with np.errstate(invalid="ignore", divide="ignore"):
                rs = r_part / np.sqrt(ss.astype(np.float64)
                                      / float(w ** 3))
            bounds = np.r_[0, np.cumsum(nblk[kept])]
            for i, ki in enumerate(kept):
                vals_k = rs[bounds[i]:bounds[i + 1]]
                ok_k = ok[bounds[i]:bounds[i + 1]]
                sel = vals_k[ok_k]
                if len(sel) == 0:
                    continue
                acc = 0.0
                for v in sel:               # left fold in block order
                    acc += float(v)
                means[ki][w] = acc / len(sel)
        out_key, out_n, out_h = [], [], []
        x1, x2, x3 = (math.log(float(w)) for w in self.SIZES)
        sx = (x1 + x2) + x3
        sxx = ((x1 * x1 + x2 * x2) + x3 * x3)
        for ki in range(K):
            m = means[ki]
            if len(m) != len(self.SIZES):
                continue
            y1, y2, y3 = (math.log(m[w]) for w in self.SIZES)
            sy = (y1 + y2) + y3
            sxy = ((x1 * y1 + x2 * y2) + x3 * y3)
            slope = (3.0 * sxy - sx * sy) / (3.0 * sxx - sx * sx)
            out_key.append(keys[starts[ki]])
            out_n.append(lens[ki])
            out_h.append(round_half_away(slope, 6))
        if not out_key:
            return empty
        return pd.DataFrame({
            "user_id": np.array(out_key),
            "n": np.array(out_n, dtype=np.int64),
            "hurst": np.array(out_h, dtype=np.float64)})


def hurst_rs(events):
    """Per-user rescaled-range Hurst exponent over window sizes
    8/16/32 — the long-memory / trend-persistence score.  One
    partition-group shuffle; integer-exact block statistics, ordered
    double folds, 3-point log-log least squares."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", HurstRSGroup())


# --- Mann-Kendall trend test --------------------------------------------------

class MannKendallGroup:
    """Per-partition kernel: the Mann-Kendall trend statistic per key —
    ``S = Σ_{i<j} sign(c_j − c_i)`` over cents in (t, event_id) order
    (pure integer pair compares, chunk-vectorized like SampEn), with
    Kendall's tau-a ``2S/(n(n−1))`` as the one double close.  Quadratic
    in series length BY DEFINITION (the package's bounded per-series
    contract); keys with < 2 rows emit nothing."""

    CHUNK = 1024

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "n": pd.Series([], dtype=np.int64),
            "s_stat": pd.Series([], dtype=np.int64),
            "tau": pd.Series([], dtype=np.float64)})
        rows, keys, _, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        x = scaled_int(rows["value"].to_numpy(np.float64))
        out_key, out_n, out_s, out_tau = [], [], [], []
        for s, e in zip(starts, ends):
            nk = e - s
            if nk < 2:
                continue
            xs = x[s:e]
            s_stat = 0
            for lo in range(0, nk, self.CHUNK):
                hi = min(lo + self.CHUNK, nk)
                diff = xs[None, :] - xs[lo:hi, None]
                later = np.arange(nk)[None, :] > np.arange(lo, hi)[:, None]
                s_stat += int(np.sign(diff[later]).sum())
            denom = nk * (nk - 1)
            out_key.append(keys[s])
            out_n.append(nk)
            out_s.append(s_stat)
            out_tau.append(round_half_away(
                float(2 * s_stat) / float(denom), 6))
        if not out_key:
            return empty
        return pd.DataFrame({
            "user_id": np.array(out_key),
            "n": np.array(out_n, dtype=np.int64),
            "s_stat": np.array(out_s, dtype=np.int64),
            "tau": np.array(out_tau, dtype=np.float64)})


def mann_kendall(events):
    """Per-user Mann-Kendall monotone-trend test (S statistic +
    Kendall tau-a) — the distribution-free trend screen.  One
    partition-group shuffle; exact integer pair signs."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", MannKendallGroup())


# --- Spearman rank trend ------------------------------------------------------

class SpearmanTrendGroup:
    """Per-partition kernel: Spearman rank correlation between time
    order and value per key — the rank-based trend strength.  Time
    ranks are unique (2·rn); value ranks average ties, kept EXACT by
    2-scaling (``r2y = 2·min_rank + run_len − 1``, an integer).
    Pearson moments over (r2x, r2y) accumulate exactly (Python-int
    fallback past the int64 bound) and the close is autocorr_lag1's
    cast-first double formula — bit-identical to the SQL twin.  Keys
    with < 2 rows emit nothing; zero-variance value ranks emit NULL
    rho."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "n": pd.Series([], dtype=np.int64),
            "rho": pd.Series([], dtype=np.float64)})
        rows, keys, codes, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        cents = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(cents)
        lens = ends - starts
        local = np.arange(n) - np.repeat(starts, lens)
        r2x = 2 * (local + 1)
        # tie-averaged value ranks, 2-scaled: sort by (codes, cents)
        # (the key runs keep their bounds: codes stay the major key)
        ord2 = np.lexsort((cents, codes))
        run_starts, run_ends = _segment_starts(codes[ord2], cents[ord2])
        run_lens = run_ends - run_starts
        r2y_run = 2 * (local[run_starts] + 1) + run_lens - 1
        r2y = np.empty(n, dtype=np.int64)
        r2y[ord2] = np.repeat(r2y_run, run_lens)
        rmax = int(2 * lens.max()) if n else 0
        if rmax and rmax * rmax * n >= (1 << 62):
            r2x = r2x.astype(object)
            r2y = r2y.astype(object)
        sx = np.add.reduceat(r2x, starts)
        sy = np.add.reduceat(r2y, starts)
        sxy = np.add.reduceat(r2x * r2y, starts)
        sxx = np.add.reduceat(r2x * r2x, starts)
        syy = np.add.reduceat(r2y * r2y, starts)
        sel = lens >= 2
        if not sel.any():
            return empty
        nd = lens[sel].astype(np.float64)
        sxd, syd = sx[sel].astype(np.float64), sy[sel].astype(np.float64)
        sxyd = sxy[sel].astype(np.float64)
        sxxd, syyd = sxx[sel].astype(np.float64), syy[sel].astype(np.float64)
        va = nd * sxxd - sxd * sxd
        vb = nd * syyd - syd * syd
        ok = (va > 0) & (vb > 0)
        rho = np.full(len(nd), np.nan)
        with np.errstate(invalid="ignore"):
            rho[ok] = round_half_away(
                (nd[ok] * sxyd[ok] - sxd[ok] * syd[ok])
                / (np.sqrt(va[ok]) * np.sqrt(vb[ok])), 6)
        return pd.DataFrame({
            "user_id": keys[starts][sel],
            "n": lens[sel].astype(np.int64),
            "rho": rho})


def spearman_trend(events):
    """Per-user Spearman rank correlation of value against time order
    — the tie-robust monotone-trend strength.  One partition-group
    shuffle; 2-scaled integer ranks, exact moments, autocorr-style
    double close."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", SpearmanTrendGroup())


# --- partial autocorrelation (Durbin-Levinson, lags 1-3) ----------------------

class PacfGroup:
    """Per-partition kernel: partial autocorrelations at lags 1-3 per
    key via the Durbin-Levinson closed forms — ``φ11 = ρ1``,
    ``φ22 = (ρ2 − ρ1²)/(1 − ρ1²)``, ``φ33 = (ρ3 − φ21·ρ2 − φ22·ρ1) /
    (1 − φ21·ρ1 − φ22·ρ2)`` with ``φ21 = ρ1 − φ22·ρ1``.  The ρ_k come
    from the same n-scaled exact integer ACF moments as
    :class:`LjungBoxGroup`; every subsequent step is a fixed double
    expression replayed verbatim by the SQL twin.  Keys with n < 10 or
    zero variance emit nothing."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": g["user_id"].iloc[:0],
            "n": pd.Series([], dtype=np.int64),
            "pacf1": pd.Series([], dtype=np.float64),
            "pacf2": pd.Series([], dtype=np.float64),
            "pacf3": pd.Series([], dtype=np.float64)})
        rows, keys, codes, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        c = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(c)
        lens = ends - starts
        nk_row = np.repeat(lens, lens)
        s_row = np.repeat(np.add.reduceat(c, starts), lens)
        y = nk_row * c - s_row
        ymax = int(np.abs(y).max()) if n else 0
        if ymax and ymax * ymax * n >= (1 << 62):
            y = y.astype(object)
        d = np.add.reduceat(y * y, starts)
        nums = []
        for k in (1, 2, 3):
            a = np.zeros(n, dtype=y.dtype)
            if n > k:
                a[k:] = y[:-k]
                a[k:][codes[k:] != codes[:-k]] = 0
            nums.append(np.add.reduceat(a * y, starts))
        sel = (lens >= 10) & (d.astype(np.float64) > 0)
        if not sel.any():
            return empty
        dd = d[sel].astype(np.float64)
        r1 = nums[0][sel].astype(np.float64) / dd
        r2 = nums[1][sel].astype(np.float64) / dd
        r3 = nums[2][sel].astype(np.float64) / dd
        p22 = (r2 - r1 * r1) / (1.0 - r1 * r1)
        p21 = r1 - p22 * r1
        p33 = ((r3 - p21 * r2 - p22 * r1)
               / (1.0 - p21 * r1 - p22 * r2))
        return pd.DataFrame({
            "user_id": keys[starts][sel],
            "n": lens[sel].astype(np.int64),
            "pacf1": round_half_away(r1, 6),
            "pacf2": round_half_away(p22, 6),
            "pacf3": round_half_away(p33, 6)})


def pacf_lags(events):
    """Per-user partial autocorrelations at lags 1-3 (Durbin-Levinson
    closed forms) — the AR-order identification screen.  One
    partition-group shuffle; integer ACF moments, fixed double chains."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", PacfGroup())


# --- isotonic regression (minimax PAVA) ---------------------------------------

class IsotonicGroup:
    """Per-partition kernel: isotonic (monotone non-decreasing)
    regression of value on time order per key, via the EXACT minimax
    characterization of the PAVA solution —
    ``ŷ_i = max_{j≤i} min_{k≥i} mean(x[j..k])`` — which needs no
    data-dependent pooling loop: interval means come from exact integer
    prefix sums (one double division each, identical on both sides),
    the inner min is a reverse cumulative minimum along k and the
    outer max a cumulative maximum along j — O(n²) per key BY THE
    FORMULA (bounded per-series contract), fully vectorized.  The SQL
    twin replays the same two window extrema over the same doubles."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        c = scaled_int(rows["value"].to_numpy(np.float64))
        fitted = np.empty(len(c))
        for s, e in zip(starts, ends):
            m = e - s
            cs = np.concatenate([[0], np.cumsum(c[s:e])])
            j = np.arange(m)[:, None]
            k = np.arange(m)[None, :]
            with np.errstate(invalid="ignore"):
                mean = (cs[k + 1] - cs[j]).astype(np.float64) \
                    / (k - j + 1).astype(np.float64)
            mean[k < j] = np.inf
            mn = np.minimum.accumulate(mean[:, ::-1], axis=1)[:, ::-1]
            fit = np.diag(np.maximum.accumulate(mn, axis=0))
            fitted[s:e] = round_half_away(fit / 100.0, 6)
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(np.int64),
            "fitted": fitted})


def isotonic_fit(events):
    """Per-user isotonic regression of value on time order — the
    monotone calibration fit (PAVA solution via the exact minimax
    formula).  One partition-group shuffle; exact integer interval
    sums, two window extrema."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", IsotonicGroup())


# --- next higher value (monotonic stack) ---------------------------------------

class NextHigherGroup:
    """Per-partition kernel: for every event, the wait (µs) until the
    key's NEXT strictly greater value — the 'days till higher high'
    screen.  O(n) per key via a monotonic stack over exact cents (the
    SQL twin states the same semantics as a quadratic first-match
    self-join; the engine never pays it).  Events with no later higher
    value emit NULL wait.  Cents compares are exact; the wait is an
    integer microsecond difference."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, _, starts, ends = key_runs(
            g, keep=g["user_id"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        t = rows["t"].to_numpy(np.int64)
        ids = rows["event_id"].to_numpy()
        c = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(c)
        wait = np.full(n, -1, dtype=np.int64)
        for s, e in zip(starts, ends):
            stack: list[int] = []           # indices with unmet higher
            for i in range(s, e):
                while stack and c[stack[-1]] < c[i]:
                    j = stack.pop()
                    wait[j] = t[i] - t[j]
                stack.append(i)
        out = pd.DataFrame({
            "user_id": keys,
            "event_id": ids.astype(np.int64),
            "wait_us": pd.array(wait, dtype="Int64")})
        out.loc[out["wait_us"] < 0, "wait_us"] = pd.NA
        return out


def next_higher_event(events):
    """Per-event wait until the user's next strictly higher value —
    O(rows) monotonic-stack scan per key (the oracle's first-match
    self-join is quadratic; the engine never pays it).  One
    partition-group shuffle."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", NextHigherGroup())


# --- Wilder RSI -------------------------------------------------------------

class RsiGroup:
    """Per-partition kernel: Wilder's relative-strength index per key
    in (t, event_id) order, zero-seeded.

    ``d_i = x_i − x_{i−1}``; gains/losses clamp through the SQL CASE
    (a NULL/NaN delta contributes 0 to both, matching ``d > 0`` /
    ``d < 0`` three-valued logic); the smoothed averages recurse as
    ``(prev·(p−1) + g)/p`` with EXACTLY that operand order so the
    doubles replay bit-identically in a recursive CTE; the close is
    ``100 − 100/(1 + ag/al)`` with the ``al = 0 → 100`` convention.
    Vectorized across keys via the position-major layout — O(longest
    series) Python iterations over O(rows) work."""

    def __init__(self, period: int = 14):
        self.period = period

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, _, _ = key_runs(g, keep=g["user_id"].notna())
        if len(rows) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"],
                "event_id": pd.Series([], dtype=np.int64),
                "t": pd.Series([], dtype=np.int64),
                "rsi": pd.Series([], dtype=np.float64)})
        t = rows["t"].to_numpy(np.int64)
        x = rows["value"].to_numpy(np.float64)
        n = len(t)
        pm, offs = _pos_major_layout(codes, n)
        x_pm = x[pm]
        ag_pm = np.zeros(n)
        al_pm = np.zeros(n)
        pm1, p = float(self.period - 1), float(self.period)
        max_len = len(offs) - 1
        seg0 = offs[1] - offs[0]
        ag = np.zeros(seg0)
        al = np.zeros(seg0)
        prev_x = x_pm[offs[0]:offs[1]].copy()
        for k in range(1, max_len):
            m = offs[k + 1] - offs[k]
            xk = x_pm[offs[k]:offs[k + 1]]
            d = xk - prev_x[:m]
            with np.errstate(invalid="ignore"):
                gain = np.where(d > 0, d, 0.0)
                loss = np.where(d < 0, -d, 0.0)
            # same operand order as the SQL `(r.ag * 13.0 + g.gain) / 14.0`
            ag = (ag[:m] * pm1 + gain) / p
            al = (al[:m] * pm1 + loss) / p
            ag_pm[offs[k]:offs[k + 1]] = ag
            al_pm[offs[k]:offs[k + 1]] = al
            prev_x = xk
        ag_o = np.empty(n)
        al_o = np.empty(n)
        ag_o[pm] = ag_pm
        al_o[pm] = al_pm
        with np.errstate(divide="ignore", invalid="ignore"):
            rsi = round_half_away(100.0 - 100.0 / (1.0 + ag_o / al_o), 6)
        rsi = np.where(al_o == 0, 100.0, rsi)
        return pd.DataFrame({
            "user_id": keys,
            "event_id": rows["event_id"].to_numpy(),
            "t": t,
            "rsi": rsi})


def rsi_per_user(events, *, period: int = 14):
    """Per-user Wilder RSI in event-time order — one partition-group
    shuffle; the double recursion is bit-exact against a recursive
    CTE replaying the identical operand order."""
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", RsiGroup(period))
