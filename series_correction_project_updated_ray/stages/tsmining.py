"""Time-series mining primitives: SAX symbolization, DTW profile
distances, threshold-excursion analysis.

Rebuild-only components (SURVEY.md §2.11 — the reference is pure batch);
they round out the timeseries tier with three classic mining shapes,
each published method re-expressed in the repo's one-shuffle
partition-group / mergeable-partial idioms:

* **SAX** (Lin, Keogh, Wei, Lonardi 2007, "Experiencing SAX"): per-key
  z-normalization → Piecewise Aggregate Approximation (PAA) into ``w``
  equal integer-edge segments → Gaussian-breakpoint alphabet mapping.
  All moments accumulate in exact integer cents; the closing z-scores
  run in doubles with the oracle's exact operand order, so the symbol
  string is value-exact against SQL.
* **DTW** (Sakoe & Chiba 1978 dynamic time warping): pairwise alignment
  distance between per-key hour-of-day profiles.  Profiles are exact
  integer-cents sums (mergeable partials, one small groupby); the DP
  runs entirely in int64 (|Δcents| costs), so the distance is exact and
  certifiable against a recursive-CTE oracle that replays the DP along
  anti-diagonals.
* **Threshold excursions** (gaps-and-islands over a value predicate):
  per key, maximal runs of consecutive over-threshold events — count,
  longest run, total over-threshold events, longest duration.

Scale shape: SAX and excursions are one partition-group shuffle
(the keyed exchange's hash sort co-locates whole keys; kernels are
vectorized across keys); DTW's
profile build is a partial-first aggregation shipping
≤ 24·|keys-per-block| rows per block, and the DP
itself runs over a FIXED, bounded key set (``k_users``) in one small
task — never corpus-proportional driver state.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .joins import _segment_starts, key_runs, partition_groups
from .rollup import combine, sums_of
from .windows import _epoch_micros
from ..functions.rounding import round_half_away, scaled_int

# N(0,1) quantiles at 1/4, 2/4, 3/4 — the SAX alphabet-4 breakpoints
# (Lin et al. 2007, Table 3).  Hardcoded doubles: the SQL literal parses
# to the identical IEEE double, so `<` comparisons agree bit-for-bit.
SAX_BREAKPOINTS_4 = np.array(
    [-0.6744897501960817, 0.0, 0.6744897501960817])
SAX_ALPHABET = np.array(list("abcd"))


class SaxGroup:
    """Per-partition kernel: SAX symbol string per key.

    In each key's (t, event_id) order: exact integer moments
    (Σcents, Σcents²) give mean = double(Σc)/n and
    std = sqrt(double(n·Σc² − Σc²))/n in the oracle's operand order;
    PAA assigns position p to segment p·w//n (so segment j covers
    [ceil(j·n/w), ceil((j+1)·n/w)) — n ≥ w guarantees every segment
    is non-empty); segment
    z-scores map through the Gaussian breakpoints
    (symbol index = #breakpoints ≤ z).  Keys with n < w are skipped
    (no PAA defined); zero-variance keys emit NULL sax.
    """

    def __init__(self, w: int = 8):
        self.w = w

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        w = self.w
        rows, keys, _, starts, ends = key_runs(g)
        c = scaled_int(rows["value"].to_numpy(np.float64))
        lens = ends - starts
        keep = lens >= w
        if not keep.any():
            return pd.DataFrame({
                "user_id": rows["user_id"].iloc[:0],
                "n_events": pd.Series([], dtype=np.int64),
                "sax": pd.Series([], dtype=object)})
        klens = lens[keep]
        K = len(klens)
        # compact to kept keys so reduceat segments never bleed into a
        # skipped (n < w) key's rows
        sel = np.repeat(keep, lens)
        cc, keys_kept = c[sel], keys[sel]
        nk = len(cc)
        # exact integer moments; the guard must bound the LARGEST
        # product formed — every one is per-key (reduceat partials and
        # Σc² ≤ len·amax², var_num's n·Σc² and (Σc)² ≤ len²·amax²), so
        # max_len²·amax² is sufficient AND tight (an nk-wide term would
        # over-trigger the ~10-50× slower exact-Python-int fallback on
        # blocks of many short keys) — AutocorrGroup's fallback pattern
        amax = int(np.abs(cc).max()) if nk else 0
        max_len = int(klens.max()) if K else 0
        cs = cc.astype(object) if amax and \
            (max_len * amax) ** 2 >= (1 << 62) else cc
        new_starts = np.r_[np.int64(0), np.cumsum(klens)[:-1]]
        sc = np.add.reduceat(cs, new_starts)
        ss = np.add.reduceat(cs * cs, new_starts)
        var_num = klens.astype(object) * ss - sc * sc \
            if cs.dtype == object else klens * ss - sc * sc
        # PAA integer segment edges: position p belongs to segment
        # p*w//n (the SQL convention), so key k's segment j starts at
        # start_k + ceil(j*len_k/w)  (n ≥ w ⇒ strictly increasing)
        j = np.arange(w)
        edges = (new_starts[:, None]
                 + (j[None, :] * klens[:, None] + w - 1) // w).ravel()
        segsum = np.add.reduceat(cs, edges).astype(np.float64)
        seg_ends = np.r_[edges[1:], np.int64(nk)]
        segn = (seg_ends - edges).astype(np.float64)
        # closing formula in doubles, the oracle's exact operand order
        nd = klens.astype(np.float64)
        mean = sc.astype(np.float64) / nd
        with np.errstate(divide="ignore", invalid="ignore"):
            std = np.sqrt(var_num.astype(np.float64)) / nd
            z = (segsum / segn - np.repeat(mean, w)) / np.repeat(std, w)
        sym = SAX_ALPHABET[
            np.searchsorted(SAX_BREAKPOINTS_4,
                            np.nan_to_num(z, nan=0.0), side="right")]
        sym = sym.reshape(K, w)
        zero_var = np.asarray(var_num == 0, dtype=bool)
        sax = ["".join(row) for row in sym]
        return pd.DataFrame({
            "user_id": keys_kept[new_starts],
            "n_events": klens.astype(np.int64),
            "sax": pd.Series(
                [None if zv else s for s, zv in zip(sax, zero_var)],
                dtype=object),
        })


def sax_symbols(events, *, w: int = 8):
    """SAX symbolization (w segments, alphabet abcd) of each user's
    value series — one partition-group shuffle; integer-exact moments
    make the symbols value-exact against the SQL oracle."""
    from .timeseries import _prep_events
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", SaxGroup(w))


# --- threshold excursions (value-conditioned gaps-and-islands) --------------

class ExcursionGroup:
    """Per-partition kernel: maximal runs of consecutive over-threshold
    events per key in (t, event_id) order.  A run breaks on a key
    boundary or an under-threshold event; per key emit the run count,
    the longest run (events), the total over-threshold events, and the
    longest run duration (last t − first t, integer µs).  Keys with no
    over-threshold event emit nothing (SQL inner shape)."""

    def __init__(self, thresh: float = 150.0):
        self.thresh = thresh

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, starts, _ = key_runs(g)
        t = rows["t"].to_numpy(np.int64)
        over = rows["value"].to_numpy(np.float64) > self.thresh
        # island starts: over-threshold row whose predecessor (same key)
        # is under threshold or absent
        first = np.zeros(len(t), dtype=bool)
        first[starts] = True
        prev_over = np.r_[False, over[:-1]]
        istart = over & (first | ~prev_over)
        # compress to the over-threshold subsequence: runs are
        # contiguous there, so reduceat over its island starts works
        oidx = np.flatnonzero(over)
        if len(oidx) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"].iloc[:0],
                "n_excursions": pd.Series([], dtype=np.int64),
                "max_run": pd.Series([], dtype=np.int64),
                "n_over": pd.Series([], dtype=np.int64),
                "max_dur_us": pd.Series([], dtype=np.int64)})
        si = np.flatnonzero(istart[oidx])        # island starts in oidx
        se = np.r_[si[1:], len(oidx)]
        run_len = se - si
        dur = t[oidx[se - 1]] - t[oidx[si]]
        ks, ke = _segment_starts(codes[oidx[si]])
        return pd.DataFrame({
            "user_id": keys[oidx[si]][ks],
            "n_excursions": (ke - ks).astype(np.int64),
            "max_run": np.maximum.reduceat(run_len, ks).astype(np.int64),
            "n_over": np.add.reduceat(run_len, ks).astype(np.int64),
            "max_dur_us": np.maximum.reduceat(dur, ks).astype(np.int64),
        })


def threshold_excursions(events, *, thresh: float = 150.0):
    """Per-user maximal over-threshold runs (count / longest / total /
    longest duration) — one partition-group shuffle."""
    from .timeseries import _prep_events
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", ExcursionGroup(thresh))


# --- M4 visual downsample (Jugel et al., VLDB 2014) --------------------------

def _m4_pick(uid, bucket, tie_a, tie_b):
    """Per-(uid, bucket) index of the row minimizing (tie_b, tie_a)
    lexicographically — one lexsort + first-of-segment, no cell loop."""
    order = np.lexsort((tie_a, tie_b, bucket, uid))
    starts, _ = _segment_starts(uid[order], bucket[order])
    return order[starts]


class PartialM4:
    """map_batches combiner: per (key, bucket) cell present in the
    batch, the four M4 anchors (first/last by (t, id); min/max by
    (cents, tie earliest t)) plus the count.  Fixed-size per cell per
    block, so the shuffle never ships raw points."""

    def __init__(self, key_col: str, ts_col: str, value_col: str,
                 id_col: str, width_s: int):
        self.key_col, self.ts_col = key_col, ts_col
        self.value_col, self.id_col = value_col, id_col
        self.width_s = width_s

    EMPTY = {"f_t": np.int64, "f_id": np.int64, "f_c": np.int64,
             "l_t": np.int64, "l_id": np.int64, "l_c": np.int64,
             "min_c": np.int64, "min_t": np.int64,
             "max_c": np.int64, "max_t": np.int64, "n": np.int64}

    def __call__(self, t: pa.Table) -> pa.Table:
        k = self.key_col
        if k not in t.column_names or len(t) == 0:
            e = np.empty(0, np.int64)
            cols = {k: pa.array(e), "bucket_start": pa.array(e)}
            cols.update({c: pa.array(e) for c in self.EMPTY})
            return pa.table(cols)
        uid = t[k].to_numpy(zero_copy_only=False)
        t_us = _epoch_micros(t[self.ts_col])
        ids = t[self.id_col].to_numpy(zero_copy_only=False)
        cents = scaled_int(t[self.value_col].to_numpy(zero_copy_only=False))
        w = self.width_s
        bucket = (t_us // 1_000_000) // w * w
        i_f = _m4_pick(uid, bucket, ids, t_us)           # min (t, id)
        i_l = _m4_pick(uid, bucket, -ids, -t_us)         # max (t, id)
        i_min = _m4_pick(uid, bucket, t_us, cents)       # min (c, t)
        i_max = _m4_pick(uid, bucket, t_us, -cents)      # max (c), min t
        order = np.lexsort((bucket, uid))
        starts, ends = _segment_starts(uid[order], bucket[order])
        return pa.table({
            k: pa.array(uid[i_f]).cast(t.schema.field(k).type),
            "bucket_start": pa.array(bucket[i_f]),
            "f_t": pa.array(t_us[i_f]), "f_id": pa.array(ids[i_f]),
            "f_c": pa.array(cents[i_f]),
            "l_t": pa.array(t_us[i_l]), "l_id": pa.array(ids[i_l]),
            "l_c": pa.array(cents[i_l]),
            "min_c": pa.array(cents[i_min]), "min_t": pa.array(t_us[i_min]),
            "max_c": pa.array(cents[i_max]), "max_t": pa.array(t_us[i_max]),
            "n": pa.array((ends - starts).astype(np.int64)),
        })


class M4Finalize:
    """Partition-group merge of M4 partials: the same four lexsort
    picks run over one-row-per-block-per-cell partials, then counts
    sum.  Output in value units (cents / 100)."""

    def __init__(self, key_col: str):
        self.key_col = key_col

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        k = self.key_col
        if len(g) == 0:
            return pd.DataFrame({
                k: g[k] if k in g else pd.Series([], dtype=np.int64),
                "bucket_start": pd.Series([], dtype=np.int64),
                "n": pd.Series([], dtype=np.int64),
                **{c: pd.Series([], dtype=np.int64)
                   for c in ("t_first", "t_last", "t_min", "t_max")},
                **{c: pd.Series([], dtype=np.float64)
                   for c in ("v_first", "v_last", "v_min", "v_max")}})
        uid = g[k].to_numpy()
        bucket = g["bucket_start"].to_numpy(np.int64)
        cols = {c: g[c].to_numpy(np.int64)
                for c in PartialM4.EMPTY}
        i_f = _m4_pick(uid, bucket, cols["f_id"], cols["f_t"])
        i_l = _m4_pick(uid, bucket, -cols["l_id"], -cols["l_t"])
        i_min = _m4_pick(uid, bucket, cols["min_t"], cols["min_c"])
        i_max = _m4_pick(uid, bucket, cols["max_t"], -cols["max_c"])
        order = np.lexsort((bucket, uid))
        starts, _ = _segment_starts(uid[order], bucket[order])
        n = np.add.reduceat(cols["n"][order], starts)
        return pd.DataFrame({
            k: uid[i_f], "bucket_start": bucket[i_f],
            "n": n.astype(np.int64),
            "t_first": cols["f_t"][i_f],
            "v_first": cols["f_c"][i_f].astype(np.float64) / 100.0,
            "t_last": cols["l_t"][i_l],
            "v_last": cols["l_c"][i_l].astype(np.float64) / 100.0,
            "t_min": cols["min_t"][i_min],
            "v_min": cols["min_c"][i_min].astype(np.float64) / 100.0,
            "t_max": cols["max_t"][i_max],
            "v_max": cols["max_c"][i_max].astype(np.float64) / 100.0,
        })


def m4_downsample(events, *, key_col: str = "user_id", ts_col: str = "ts",
                  value_col: str = "value", id_col: str = "event_id",
                  width_s: int = 86400):
    """M4 visual downsample (Jugel, Markl et al. 2014): per (key,
    bucket) the first/last/min/max anchor points — the error-free
    line-chart reduction.  First/last anchor on (t, event_id); min/max
    anchor on value with the EARLIEST-t tie rule, so every output is
    deterministic and value-exact against SQL.  Partial-first: blocks
    ship one fixed-size row per cell, the merge is one partition-group
    shuffle."""
    partials = events.map_batches(
        PartialM4(key_col, ts_col, value_col, id_col, width_s),
        batch_format="pyarrow")
    return partition_groups(partials, key_col, M4Finalize(key_col))


# --- DTW over hour-of-day profiles ------------------------------------------

def dtw_pairwise_int(profiles: np.ndarray) -> np.ndarray:
    """All-pairs DTW distance over int64 profile rows (K × L).

    Classic unconstrained DP, cost |a_i − b_j|, run entirely in int64 so
    the result is exact.  Vectorized ACROSS the K·(K−1)/2 pairs: the two
    nested position loops are L² = O(576) iterations over pair-length
    vectors, never a Python loop over pairs.  Returns the condensed
    (i < j, row-major) distance vector."""
    K, L = profiles.shape
    ia, ja = np.triu_indices(K, k=1)
    P = len(ia)
    if P == 0:
        return np.empty(0, dtype=np.int64)
    a = profiles[ia]                     # (P, L)
    b = profiles[ja]
    BIG = np.int64(1) << 62
    acc = np.full((P, L + 1, L + 1), BIG, dtype=np.int64)
    acc[:, 0, 0] = 0
    for i in range(1, L + 1):
        ai = a[:, i - 1]
        for j in range(1, L + 1):
            cost = np.abs(ai - b[:, j - 1])
            acc[:, i, j] = cost + np.minimum(
                acc[:, i - 1, j],
                np.minimum(acc[:, i, j - 1], acc[:, i - 1, j - 1]))
    return acc[:, L, L]


def dtw_profile_pairs(events, *, k_users: int = 12):
    """Pairwise DTW distances between per-user hour-of-day profiles.

    Profiles: exact per-(user, hod) integer-cents sums via mergeable
    per-block partials + ONE small groupby (≤ 24·|users| rows ever
    shuffled); missing hours are 0.  The pair DP runs over the
    ``k_users`` smallest user_ids only (deterministic, bounded), inside
    one task on a single ≤ k_users·24-int block — the all-pairs step
    never sees corpus-proportional data.  Output (user_a, user_b, dtw)
    with dtw in value units (exact cents DP / 100, rounded 6dp)."""
    def _partial(t: pa.Table) -> pa.Table:
        if "ts" not in t.column_names:   # column-less empty block
            e = np.empty(0, np.int64)
            return pa.table({"user_id": pa.array(e), "hod": pa.array(e),
                             "c": pa.array(e)})
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tsec = _epoch_micros(t["ts"]) // 1_000_000
        hod = (tsec // 3600) % 24
        cents = scaled_int(t["value"].to_numpy(zero_copy_only=False))
        cell, inv = np.unique(uid * 24 + hod, return_inverse=True)
        sc = np.zeros(len(cell), dtype=np.int64)
        np.add.at(sc, inv, cents)
        return pa.table({"user_id": pa.array(cell // 24),
                         "hod": pa.array(cell % 24),
                         "c": pa.array(sc)})

    prof = combine(events.map_batches(_partial, batch_format="pyarrow"),
                   ["user_id", "hod"], sums_of("c"))

    # keep the k smallest user_ids: tiny sort over the ≤24·|users|
    # profile rows, then ONE block through the pair DP
    def _pairs(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        hod = t["hod"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        users = np.unique(uid)[:k_users]
        sel = np.isin(uid, users)
        uid, hod, c = uid[sel], hod[sel], c[sel]
        pos = np.searchsorted(users, uid)
        mat = np.zeros((len(users), 24), dtype=np.int64)
        mat[pos, hod] = c
        ia, ja = np.triu_indices(len(users), k=1)
        d = dtw_pairwise_int(mat)
        return pa.table({
            "user_a": pa.array(users[ia]),
            "user_b": pa.array(users[ja]),
            "dtw": pa.array(round_half_away(d.astype(np.float64) / 100.0,
                                            6)),
        })

    return prof.repartition(1).map_batches(_pairs, batch_format="pyarrow",
                                           batch_size=None)


# --- matrix profile (exact, unnormalized) -----------------------------------

class MatrixProfileGroup:
    """Per-partition kernel: the EXACT unnormalized matrix profile per
    key (Yeh et al. 2016, ICDM — here the squared-Euclidean variant on
    integer cents, so every distance is an exact int64 and the oracle
    is a pure-integer SQL self-join): for each length-``w`` window at
    position i, the minimum Σ(aₖ−bₖ)² to any OTHER window j ≠ i of the
    same key, with the smallest j on ties.

    Per key the work is one int64 Gram matmul (dist² = |a|²+|b|²−2a·b)
    over the (m, w) sliding-window view — the per-key Python loop is
    justified here because each iteration is an O(m²·w) BLAS-shaped
    numpy call that dwarfs the loop overhead (unlike per-row kernels,
    which this module never loops).  Keys with fewer than 2 windows
    (n < w+1) emit nothing.  Σ window² must not wrap int64; past the
    bound the Gram falls back to exact object ints (rare)."""

    def __init__(self, w: int = 8):
        self.w = w

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # oracle equi-joins drop null keys
        rows, keys, _, starts, ends = key_runs(g, keep=g["user_id"].notna())
        c = scaled_int(rows["value"].to_numpy(np.float64))
        w = self.w
        out_k, out_p, out_d, out_j = [], [], [], []
        for s, e in zip(starts, ends):
            m = (e - s) - w + 1
            if m < 2:
                continue
            W = np.lib.stride_tricks.sliding_window_view(c[s:e], w)
            amax = float(np.abs(W).max())
            # dist² = Σ(a−b)² reaches 4·amax²·w (opposite signs), and
            # the close adds two such magnitudes — fall back to exact
            # object ints well before THAT wraps, not just the Gram
            if amax and 4.0 * amax * amax * w >= float(1 << 62):
                W = W.astype(object)        # exact escape hatch
            G = W @ W.T
            sq = np.diagonal(G).copy()
            D = sq[:, None] + sq[None, :] - 2 * G
            big = (np.iinfo(np.int64).max if D.dtype == np.int64
                   else float("inf"))
            np.fill_diagonal(D, big)
            j = np.argmin(D, axis=1)        # first min == smallest j
            mins = D[np.arange(m), j]
            if D.dtype == object and int(max(mins)) >= (1 << 63):
                # the ORACLE's CAST(dist2 AS BIGINT) errors here too —
                # fail loudly rather than silently wrap the emit
                raise OverflowError(
                    "matrix_profile: a nearest-neighbor distance "
                    "exceeds int64 — rescale the value column")
            out_k.append(keys[s:s + m])
            out_p.append(np.arange(1, m + 1, dtype=np.int64))
            out_d.append(mins.astype(np.int64))
            out_j.append((j + 1).astype(np.int64))
        if not out_k:
            return pd.DataFrame({
                "user_id": rows["user_id"].iloc[:0],
                "pos": pd.Series([], dtype=np.int64),
                "mp_dist2": pd.Series([], dtype=np.int64),
                "mp_idx": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({
            "user_id": np.concatenate(out_k),
            "pos": np.concatenate(out_p),
            "mp_dist2": np.concatenate(out_d),
            "mp_idx": np.concatenate(out_j),
        })


def matrix_profile(events, *, w: int = 8):
    """Exact unnormalized matrix profile per user (window ``w``) — one
    partition-group shuffle; quadratic in windows per key by the
    primitive's definition (bound series length upstream for long
    keys, or use an anchored subset)."""
    from .timeseries import _prep_events
    prepped = _prep_events(events)
    return partition_groups(prepped, "user_id", MatrixProfileGroup(w))


def mp_discords(events, *, w: int = 8):
    """Top discord per user — the position whose nearest-neighbor
    window distance is LARGEST (the classic matrix-profile anomaly
    read, Yeh et al. 2016 §IV): max mp_dist2, earliest position on
    ties.  Pure composition: :func:`matrix_profile` → the distributed
    per-group top-1 (no global sort)."""
    from .windows import topn_per_group
    prof = matrix_profile(events, w=w)
    out = topn_per_group(prof, "user_id", ["mp_dist2", "pos"],
                         [True, False], 1)
    return out.drop_columns(["rn"])
