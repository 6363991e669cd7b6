"""Tests for stages/timeseries.py: counter rate, interval coverage,
grid resample, EWMA, LTTB — kernel edge semantics plus Ray end-to-end."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from series_correction_project_updated_ray.stages.timeseries import (
    EwmaGroup, IntervalCoverageGroup, LttbGroup, RateCounterGroup,
    ResampleFfillGroup, lttb_select)
from series_correction_project_updated_ray.stages.windows import run_per_key


def _mk(n=200, seed=0, users=5, with_null=False):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "user_id": rng.integers(0, users, n).astype(np.float64),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.sort(rng.integers(0, 50_000, n)).astype(np.int64)
        * 1_000_000,
        "value": np.round(rng.normal(50, 30, n), 2),
    })
    if with_null:
        df.loc[df.index[:3], "user_id"] = np.nan
    df["user_id"] = df["user_id"].astype("Int64")
    return df


def _duck(df, sql):
    import duckdb
    con = duckdb.connect()
    con.register("ev", df)
    return con.execute(sql).df()


def _cmp(got: pd.DataFrame, want: pd.DataFrame):
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_rate_counter_kernel_matches_sql():
    """Resets (negative deltas) contribute the post-reset level;
    lag-less-only windows emit NULL; null keys are their own group —
    all per DuckDB on the same frame."""
    df = _mk(with_null=True)
    got = RateCounterGroup(3600)(df)
    want = _duck(df, """
WITH d AS (
  SELECT user_id, t, CAST(round(value*100) AS BIGINT) AS cents,
         CAST(round(value*100) AS BIGINT)
           - lag(CAST(round(value*100) AS BIGINT))
             OVER (PARTITION BY user_id ORDER BY t, event_id) AS dc
  FROM ev)
SELECT user_id, (t // 1000000) // 3600 * 3600 AS window_start,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN dc IS NULL THEN NULL
                     WHEN dc >= 0 THEN dc ELSE cents END) AS DOUBLE)
         / 100.0 AS increase,
       round((CAST(SUM(CASE WHEN dc IS NULL THEN NULL
                            WHEN dc >= 0 THEN dc ELSE cents END)
              AS DOUBLE) / 100.0) / 3600.0, 6) AS rate_per_s
FROM d GROUP BY 1, 2""")
    _cmp(got, want)
    # a window holding only a user's first event must be NULL, not 0
    one = pd.DataFrame({"user_id": pd.array([1, 1], dtype="Int64"),
                        "event_id": np.array([0, 1], dtype=np.int64),
                        "t": np.array([0, 7200 * 1_000_000], np.int64),
                        "value": [5.0, 3.0]})
    r = RateCounterGroup(3600)(one).sort_values("window_start")
    assert np.isnan(r["increase"].iloc[0])
    assert r["increase"].iloc[1] == 3.0  # reset: contributes the level


def test_interval_coverage_kernel_matches_sql():
    df = _mk(with_null=True)[["user_id", "t"]]
    got = IntervalCoverageGroup(300)(df)
    want = _duck(df, """
WITH c AS (SELECT user_id, t AS s, t + 300000000 AS e FROM ev),
m AS (SELECT user_id, s, e,
        CASE WHEN s > max(e) OVER (PARTITION BY user_id ORDER BY s, e
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             THEN 1 ELSE 0 END AS ni FROM c),
i AS (SELECT user_id, s, e,
        SUM(ni) OVER (PARTITION BY user_id ORDER BY s, e) AS island
      FROM m),
x AS (SELECT user_id, island, max(e) - min(s) AS len
      FROM i GROUP BY 1, 2)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_intervals,
       CAST(SUM(len) AS BIGINT) AS covered_us
FROM x GROUP BY 1""")
    _cmp(got, want)
    # touching intervals merge (s == prev end): one island, exact span
    touch = pd.DataFrame({
        "user_id": pd.array([1, 1, 1], dtype="Int64"),
        "t": np.array([0, 300_000_000, 800_000_000], np.int64)})
    r = IntervalCoverageGroup(300)(touch)
    assert r["n_intervals"].iloc[0] == 2
    assert r["covered_us"].iloc[0] == 600_000_000 + 300_000_000


def test_ewma_kernel_matches_recursive_sql():
    df = _mk(with_null=True)
    got = EwmaGroup(0.5)(df)
    want = _duck(df, """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, t, value,
         row_number() OVER (PARTITION BY user_id ORDER BY t, event_id)
           AS rn
  FROM ev WHERE user_id IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn, value AS y FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn, 0.5 * c.value + 0.5 * r.y
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, round(y, 6) AS ewma FROM r""")
    _cmp(got, want)


def test_lttb_select_known_triangle():
    """4 points → 3 buckets: the interior pick maximizes the triangle
    with the first point and the last bucket's centroid — the spike
    survives, the flat point doesn't."""
    t = np.array([0, 1, 2, 3], dtype=np.int64)
    v = np.array([0.0, 0.1, 5.0, 0.2])
    sel = lttb_select(t, v, 3)
    assert list(sel) == [0, 2, 3]
    # short series pass through untouched
    assert list(lttb_select(t, v, 10)) == [0, 1, 2, 3]


def test_lttb_integer_area_determinism():
    """Constant values → every candidate area is exactly 0 → each
    bucket picks its FIRST index (np.argmax tie rule), and the
    object-dtype overflow fallback produces identical picks."""
    n = 57
    t = np.arange(n, dtype=np.int64) * 1_000_000
    v = np.full(n, 3.25)
    sel = lttb_select(t, v, 8)
    edges = 1 + (np.arange(7) * (n - 2)) // 6
    assert list(sel) == [0] + list(edges[:6]) + [n - 1]
    # huge timestamps/values route through exact python ints — same
    # picks as the rebased-int64 path on the equivalent small series
    rng = np.random.default_rng(3)
    v2 = np.round(rng.normal(0, 50, n), 2)
    base = lttb_select(t, v2, 8)
    big = lttb_select(t + np.int64(1_700_000_000_000_000),
                      v2 + 0.0, 8)              # rebase-invariant
    assert list(base) == list(big)
    huge = lttb_select(t * np.int64(10**7), v2 * 1e9, 8)
    assert len(set(huge)) == 8                  # fallback path runs


def test_lttb_group_parity_with_direct():
    """The distributed kernel must equal running lttb_select per user
    directly on the sorted series."""
    df = _mk(n=500, users=4)
    got = LttbGroup(20)(df).sort_values(["user_id", "t", "event_id"]) \
        .reset_index(drop=True)
    outs = []
    for uid, sub in df.groupby("user_id"):
        sub = sub.sort_values(["t", "event_id"]).reset_index(drop=True)
        sel = lttb_select(sub["t"].to_numpy(), sub["value"].to_numpy(), 20)
        outs.append(sub.iloc[sel][["user_id", "event_id", "t", "value"]])
    want = pd.concat(outs).sort_values(["user_id", "t", "event_id"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_timeseries_ray_end_to_end(ray_session):
    """Each Dataset-level op over sf0.001 events equals its kernel run
    directly on the whole frame (partitioning must not change results);
    resample additionally checks grid bounds + ffill vs DuckDB ASOF."""
    import ray.data as rd
    sf = "/root/testdata/sf0.001/events.parquet"
    ev = pd.read_parquet(sf, columns=["user_id", "event_id", "ts", "value"])
    frame = ev.copy()
    frame["t"] = frame.pop("ts").astype("datetime64[ns]") \
        .astype(np.int64) // 1000

    ds = rd.read_parquet(sf, columns=["user_id", "event_id", "ts", "value"])

    got = run_per_key(ds, RateCounterGroup(3600)).to_pandas()
    _cmp(got, RateCounterGroup(3600)(frame))

    got = run_per_key(rd.read_parquet(sf, columns=["user_id", "ts"]),
                      IntervalCoverageGroup(300)).to_pandas()
    _cmp(got, IntervalCoverageGroup(300)(frame[["user_id", "t"]]))

    got = run_per_key(ds, EwmaGroup(0.5)).to_pandas()
    _cmp(got, EwmaGroup(0.5)(frame))

    got = run_per_key(ds, LttbGroup(50)).to_pandas()
    _cmp(got, LttbGroup(50)(frame))

    got = run_per_key(ds, ResampleFfillGroup(3600)).to_pandas()
    want = _duck(frame, """
WITH c0 AS (
  SELECT user_id, t, value,
         row_number() OVER (PARTITION BY user_id, t
                            ORDER BY event_id DESC) AS rn
  FROM ev),
cd AS (SELECT user_id, t, value FROM c0 WHERE rn = 1),
b AS (SELECT user_id, min(t) AS lo, max(t) AS hi FROM ev GROUP BY 1),
g AS (SELECT user_id,
        unnest(generate_series(
          CAST(((lo + 3599999999) // 3600000000) * 3600 AS BIGINT),
          CAST((hi // 3600000000) * 3600 AS BIGINT), 3600))
          AS window_start
      FROM b)
SELECT g.user_id, g.window_start, cd.value
FROM g ASOF JOIN cd
  ON g.user_id = cd.user_id AND g.window_start * 1000000 >= cd.t""")
    _cmp(got, want)


def test_autocorr_kernel_matches_sql():
    """Exact Pearson lag-1 r via integer moments; constant series and
    single-pair users emit NULL; single-event users emit no row."""
    from series_correction_project_updated_ray.stages.timeseries import (
        AutocorrGroup)
    df = _mk(with_null=True)
    # a constant-value user and a single-event user
    extra = pd.DataFrame({
        "user_id": pd.array([90, 90, 90, 91], dtype="Int64"),
        "event_id": np.array([900, 901, 902, 903], dtype=np.int64),
        "t": np.array([1, 2, 3, 4], np.int64) * 1_000_000,
        "value": [7.0, 7.0, 7.0, 1.0]})
    df = pd.concat([df, extra], ignore_index=True)
    got = AutocorrGroup()(df)
    want = _duck(df, """
WITH p AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS b,
         lag(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY t, event_id) AS a
  FROM ev),
s AS (
  SELECT user_id, COUNT(*) AS n, SUM(a) AS sa, SUM(b) AS sb,
         SUM(CAST(a AS HUGEINT)*b) AS sab,
         SUM(CAST(a AS HUGEINT)*a) AS saa,
         SUM(CAST(b AS HUGEINT)*b) AS sbb
  FROM p WHERE a IS NOT NULL GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n_pairs,
       CASE WHEN n >= 2
             AND CAST(n AS DOUBLE)*CAST(saa AS DOUBLE)
                 - CAST(sa AS DOUBLE)*CAST(sa AS DOUBLE) > 0.0
             AND CAST(n AS DOUBLE)*CAST(sbb AS DOUBLE)
                 - CAST(sb AS DOUBLE)*CAST(sb AS DOUBLE) > 0.0
            THEN round((CAST(n AS DOUBLE)*CAST(sab AS DOUBLE)
                        - CAST(sa AS DOUBLE)*CAST(sb AS DOUBLE))
                       / (sqrt(CAST(n AS DOUBLE)*CAST(saa AS DOUBLE)
                               - CAST(sa AS DOUBLE)*CAST(sa AS DOUBLE))
                          * sqrt(CAST(n AS DOUBLE)*CAST(sbb AS DOUBLE)
                                 - CAST(sb AS DOUBLE)*CAST(sb AS DOUBLE))),
                       6)
            END AS r1
FROM s""")
    _cmp(got, want)
    g90 = got[got["user_id"] == 90]
    assert len(g90) == 1 and np.isnan(g90["r1"].iloc[0])  # zero variance
    assert (got["user_id"] != 91).all()                   # no pair, no row


def test_holt_kernel_matches_recursive_sql():
    """Two-state Holt recursion bit-identical to the recursive CTE at
    6dp; single-event keys emit level=x with NULL trend; null keys
    drop (CTE equality join)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        HoltGroup)
    df = _mk(with_null=True)
    one = pd.DataFrame({"user_id": pd.array([99], dtype="Int64"),
                        "event_id": np.array([9999], dtype=np.int64),
                        "t": np.array([5], np.int64), "value": [3.25]})
    df = pd.concat([df, one], ignore_index=True)
    got = HoltGroup(0.5, 0.5)(df)
    want = _duck(df, """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, t, value,
         row_number() OVER (PARTITION BY user_id ORDER BY t, event_id)
           AS rn
  FROM ev WHERE user_id IS NOT NULL),
r AS (
  SELECT c2.user_id, c2.event_id, c2.t, c2.rn,
         0.5 * c2.value + 0.5 * (c1.value + (c2.value - c1.value)) AS l,
         0.5 * ((0.5 * c2.value
                 + 0.5 * (c1.value + (c2.value - c1.value))) - c1.value)
           + 0.5 * (c2.value - c1.value) AS b
  FROM c c2 JOIN c c1
    ON c1.user_id = c2.user_id AND c2.rn = 2 AND c1.rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         0.5 * c.value + 0.5 * (r.l + r.b) AS l,
         0.5 * ((0.5 * c.value + 0.5 * (r.l + r.b)) - r.l) + 0.5 * r.b
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, round(l, 6) AS level, round(b, 6) AS trend
FROM r
UNION ALL
SELECT user_id, event_id, t, round(value, 6) AS level, NULL AS trend
FROM c WHERE rn = 1""")
    _cmp(got, want)
    g99 = got[got["user_id"] == 99]
    assert len(g99) == 1 and g99["level"].iloc[0] == 3.25 \
        and np.isnan(g99["trend"].iloc[0])


def test_autocorr_big_cents_exact():
    """Values with cents ~3e9 push per-pair products past int64: the
    kernel's object-int fallback must match the oracle's HUGEINT sums
    exactly (the int64 fast path would silently wrap here)."""
    rng = np.random.default_rng(0)
    n = 3000
    df = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 3, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.sort(rng.integers(0, 50_000, n)).astype(np.int64)
        * 1_000_000,
        "value": np.round(rng.uniform(1e7, 3.1e7, n), 2),
    })
    from series_correction_project_updated_ray.stages.timeseries import (
        AutocorrGroup)
    got = AutocorrGroup()(df)
    want = _duck(df, """
WITH p AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS b,
         lag(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY t, event_id) AS a
  FROM ev),
s AS (
  SELECT user_id, COUNT(*) AS n, SUM(a) AS sa, SUM(b) AS sb,
         SUM(CAST(a AS HUGEINT)*b) AS sab,
         SUM(CAST(a AS HUGEINT)*a) AS saa,
         SUM(CAST(b AS HUGEINT)*b) AS sbb
  FROM p WHERE a IS NOT NULL GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n_pairs,
       round((CAST(n AS DOUBLE)*CAST(sab AS DOUBLE)
              - CAST(sa AS DOUBLE)*CAST(sb AS DOUBLE))
             / (sqrt(CAST(n AS DOUBLE)*CAST(saa AS DOUBLE)
                     - CAST(sa AS DOUBLE)*CAST(sa AS DOUBLE))
                * sqrt(CAST(n AS DOUBLE)*CAST(sbb AS DOUBLE)
                       - CAST(sb AS DOUBLE)*CAST(sb AS DOUBLE))), 6)
         AS r1
FROM s""")
    _cmp(got, want)


def test_ewma_holt_skewed_keys_pos_major():
    """One hot key with a long series co-located with many tiny keys:
    the position-major scan must stay O(rows) and exact (a dense
    keys x max_len matrix would be keys-fold larger than the data)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        EwmaGroup, HoltGroup)
    rng = np.random.default_rng(5)
    hot = 20_000
    small = 500
    df = pd.DataFrame({
        "user_id": pd.array(
            np.r_[np.zeros(hot, np.int64),
                  1 + np.arange(small) % 250], dtype="Int64"),
        "event_id": np.arange(hot + small, dtype=np.int64),
        "t": np.arange(hot + small, dtype=np.int64) * 1_000_000,
        "value": np.round(rng.normal(50, 30, hot + small), 2),
    })
    got = EwmaGroup(0.5)(df)
    # direct scalar recursion on the hot key
    sub = df[df["user_id"] == 0].sort_values(["t", "event_id"])
    y = None
    want = []
    for v in sub["value"]:
        y = v if y is None else 0.5 * v + 0.5 * y
        want.append(y)
    from series_correction_project_updated_ray.functions.rounding import (
        round_half_away)
    hot_got = got[got["user_id"] == 0].sort_values("t")["ewma"].to_numpy()
    np.testing.assert_array_equal(
        hot_got, round_half_away(np.array(want), 6))

    res = HoltGroup(0.5, 0.5)(df)
    assert len(res) == hot + small
    # scalar Holt on the hot key's first 100 points
    xs = sub["value"].to_numpy()[:100]
    l, b = xs[0], None
    lv = [l]
    for i in range(1, len(xs)):
        if b is None:
            b1 = xs[i] - l
            l_new = 0.5 * xs[i] + 0.5 * (l + b1)
            b = 0.5 * (l_new - l) + 0.5 * b1
        else:
            l_new = 0.5 * xs[i] + 0.5 * (l + b)
            b = 0.5 * (l_new - l) + 0.5 * b
        l = l_new
        lv.append(l)
    hot_l = res[res["user_id"] == 0].sort_values("t")["level"] \
        .to_numpy()[:100]
    np.testing.assert_array_equal(hot_l,
                                  round_half_away(np.array(lv), 6))


def test_resample_interp_kernel_edges():
    """Grid-on-observation → exactly that value; duplicate-microsecond
    events dedup to the highest event_id for BOTH neighbors; values
    match the two-ASOF DuckDB reference on a messy frame."""
    from series_correction_project_updated_ray.stages.timeseries import (
        ResampleInterpGroup)
    rng = np.random.default_rng(1)
    n = 200
    df = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 4, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.sort(rng.integers(0, 40_000, n)).astype(np.int64)
        * 1_000_000,
        "value": np.round(rng.normal(50, 30, n), 2),
    })
    extra = pd.DataFrame({
        "user_id": pd.array([1, 1, 2], dtype="Int64"),
        "event_id": np.array([900, 901, 902], dtype=np.int64),
        "t": np.array([7_200_000_000, 7_200_000_000,
                       3 * 3600 * 1_000_000], np.int64),
        "value": [11.0, 22.0, 33.0]})
    df = pd.concat([df, extra], ignore_index=True)
    got = ResampleInterpGroup(3600)(df)
    want = _duck(df, """
WITH c0 AS (
  SELECT user_id, t, value,
         row_number() OVER (PARTITION BY user_id, t
                            ORDER BY event_id DESC) AS rn
  FROM ev),
cd AS (SELECT user_id, t, value FROM c0 WHERE rn = 1),
b AS (SELECT user_id, min(t) AS lo, max(t) AS hi FROM ev GROUP BY 1),
g AS (SELECT user_id,
        unnest(generate_series(
          CAST(((lo + 3599999999) // 3600000000) * 3600 AS BIGINT),
          CAST((hi // 3600000000) * 3600 AS BIGINT), 3600))
          AS window_start
      FROM b),
pv AS (SELECT g.user_id, g.window_start, cd.t AS tp, cd.value AS vp
       FROM g ASOF JOIN cd
         ON g.user_id = cd.user_id AND g.window_start * 1000000 >= cd.t),
nx AS (SELECT g.user_id, g.window_start, cd.t AS tn, cd.value AS vn
       FROM g ASOF LEFT JOIN cd
         ON g.user_id = cd.user_id AND g.window_start * 1000000 < cd.t)
SELECT pv.user_id, pv.window_start,
       round(CASE WHEN nx.tn IS NULL THEN pv.vp
             ELSE pv.vp + (nx.vn - pv.vp)
                  * (CAST(pv.window_start * 1000000 - pv.tp AS DOUBLE)
                     / CAST(nx.tn - pv.tp AS DOUBLE)) END, 6) AS value
FROM pv JOIN nx USING (user_id, window_start)""")
    _cmp(got, want)
    # the 2h boundary sits ON the duplicated observation: highest
    # event_id (value 22.0) must win exactly
    hit = got[(got["user_id"] == 1) & (got["window_start"] == 7200)]
    assert len(hit) == 1 and hit["value"].iloc[0] == 22.0


def test_hysteresis_kernel_semantics():
    """Debounce: alert latches above hi, clears only below lo; the
    between band holds the previous state; first event latches iff
    above hi; null keys drop."""
    from series_correction_project_updated_ray.stages.timeseries import (
        HysteresisGroup)
    df = pd.DataFrame({
        "user_id": pd.array([1] * 7 + [2, None], dtype="Int64"),
        "event_id": np.arange(9, dtype=np.int64),
        "t": np.arange(9, dtype=np.int64) * 1_000_000,
        "value": [100.0, 160.0, 100.0, 40.0, 120.0, 151.0, 49.0,
                  200.0, 300.0],
    })
    got = HysteresisGroup(150.0, 50.0)(df)
    g1 = got[got["user_id"] == 1].sort_values("t")["alert"].tolist()
    assert g1 == [0, 1, 1, 0, 0, 1, 0]
    assert got[got["user_id"] == 2]["alert"].tolist() == [1]
    assert (got["user_id"].notna()).all()
    # matches the recursive CTE on a random frame
    rnd = _mk(with_null=True)
    got2 = HysteresisGroup(80.0, 30.0)(rnd)
    want = _duck(rnd, """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, t, value,
         row_number() OVER (PARTITION BY user_id ORDER BY t, event_id)
           AS rn
  FROM ev WHERE user_id IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn,
         CASE WHEN value > 80.0 THEN 1 ELSE 0 END AS alert
  FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         CASE WHEN c.value > 80.0 THEN 1
              WHEN c.value < 30.0 THEN 0
              ELSE r.alert END
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, CAST(alert AS BIGINT) AS alert FROM r""")
    _cmp(got2, want)


def test_changepoint_kernel_matches_sql():
    """Depth-1 binary segmentation: best split by the between-segment
    score with earliest-s double ties; null keys are their own group;
    n < 2 keys emit nothing — all per DuckDB on the same frame."""
    from series_correction_project_updated_ray.stages.timeseries import (
        ChangepointGroup)
    df = _mk(with_null=True)
    # a singleton key must vanish from the output
    df = pd.concat([df, pd.DataFrame({
        "user_id": pd.array([99], dtype="Int64"),
        "event_id": [10_000], "t": [1], "value": [5.0]})],
        ignore_index=True)
    got = ChangepointGroup()(df)
    want = _duck(df, """
WITH c AS (
  SELECT user_id, t, event_id,
         CAST(round(value*100) AS BIGINT) AS cents FROM ev),
o AS (
  SELECT user_id,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS n,
         SUM(cents) OVER (PARTITION BY user_id ORDER BY t, event_id
                          ROWS UNBOUNDED PRECEDING) AS cum,
         SUM(cents) OVER (PARTITION BY user_id) AS stot
  FROM c),
sc AS (
  SELECT user_id, rn, n, stot,
         CAST(cum AS DOUBLE)*CAST(cum AS DOUBLE)/CAST(rn AS DOUBLE)
         + CAST(stot-cum AS DOUBLE)*CAST(stot-cum AS DOUBLE)
           /CAST(n-rn AS DOUBLE) AS score
  FROM o WHERE rn < n)
SELECT user_id, CAST(n AS BIGINT) AS n, CAST(rn AS BIGINT) AS split_pos,
       round((score - CAST(stot AS DOUBLE)*CAST(stot AS DOUBLE)
                      /CAST(n AS DOUBLE))/10000.0, 6) AS gain
FROM sc
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY score DESC, rn) = 1""")
    _cmp(got, want)
    assert 99 not in set(got["user_id"].dropna())


def test_changepoint_finds_known_shift():
    """A clean level shift is found at the exact boundary with a
    positive gain; a constant series reports gain 0."""
    from series_correction_project_updated_ray.stages.timeseries import (
        ChangepointGroup)
    n = 40
    df = pd.DataFrame({
        "user_id": np.r_[np.zeros(n, np.int64), np.ones(n, np.int64)],
        "event_id": np.arange(2 * n, dtype=np.int64),
        "t": np.tile(np.arange(n, dtype=np.int64) * 1_000_000, 2),
        "value": np.r_[np.where(np.arange(n) < 25, 10.0, 90.0),
                       np.full(n, 7.0)],
    })
    got = ChangepointGroup()(df).set_index("user_id")
    assert int(got.loc[0, "split_pos"]) == 25
    assert got.loc[0, "gain"] > 0
    assert got.loc[1, "gain"] == 0.0


def test_corr_pairs_close_kernel_exact():
    """The matmul close equals a per-pair Python-int Pearson on the
    dense grid — including the object-int escape hatch past the int64
    matmul bound and the all-zero (NULL r) side."""
    from series_correction_project_updated_ray.stages.timeseries import (
        _CorrPairsClose)
    rng = np.random.default_rng(7)
    users = np.array([3, 1, 8], dtype=np.int64)
    hmin, hmax = 100, 119
    H = hmax - hmin + 1
    rows = []
    for u in users[:2]:              # user 8 stays all-zero → NULL r
        for h in range(hmin, hmax + 1):
            if rng.random() < 0.7:
                rows.append((u, h, int(rng.integers(-5, 6)) * 10**9))
    t = pa.table({"user_id": pa.array([r[0] for r in rows]),
                  "h": pa.array([r[1] for r in rows]),
                  "v": pa.array([r[2] for r in rows])})
    out = _CorrPairsClose(users, hmin, hmax)(t).to_pandas()
    assert len(out) == 3
    dense = {int(u): np.zeros(H, dtype=object) for u in users}
    for u, h, v in rows:
        dense[int(u)][h - hmin] = v
    for _, row in out.iterrows():
        a, b = dense[int(row["user_a"])], dense[int(row["user_b"])]
        sa, sb = sum(a), sum(b)
        saa, sbb = sum(x * x for x in a), sum(x * x for x in b)
        sab = sum(x * y for x, y in zip(a, b))
        va = float(H) * float(saa) - float(sa) * float(sa)
        vb = float(H) * float(sbb) - float(sb) * float(sb)
        if va > 0 and vb > 0:
            want = round(
                (float(H) * float(sab) - float(sa) * float(sb))
                / (np.sqrt(va) * np.sqrt(vb)), 6)
            assert row["r"] == pytest.approx(want, abs=1e-12)
        else:
            assert np.isnan(row["r"])
        assert row["user_a"] < row["user_b"]
        assert row["n_hours"] == H


def test_corr_pairs_ray_end_to_end(ray_session):
    """corr_pairs_hourly over sf0.001 equals the full SQL oracle."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.timeseries import (
        corr_pairs_hourly)
    sf = "/root/testdata/sf0.001/events.parquet"
    got = corr_pairs_hourly(
        rd.read_parquet(sf, columns=["user_id", "ts", "value"]),
        k=5).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM '{sf}'")
    import sys
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as E
    sql = E.oracle_sql()["corr_pairs_hourly"].replace("LIMIT 20", "LIMIT 5")
    _cmp(got, con.execute(sql).df())


def test_theil_sen_kernel_matches_sql():
    """Median of strict-t pairwise slopes per key == DuckDB
    quantile_cont(0.5) bitwise; tied-timestamp pairs are excluded; null
    keys and pairless keys emit nothing."""
    from series_correction_project_updated_ray.stages.timeseries import (
        TheilSenGroup)
    df = _mk(with_null=True)
    # duplicate timestamps (tied pairs must be excluded, not divide by 0)
    df.loc[df.index[5], "t"] = df.loc[df.index[6], "t"]
    got = TheilSenGroup()(df)
    want = _duck(df, """
WITH c AS (
  SELECT user_id, t, CAST(round(value*100) AS BIGINT) AS cents
  FROM ev WHERE user_id IS NOT NULL),
p AS (
  SELECT a.user_id,
         CAST(b.cents - a.cents AS DOUBLE)
           / CAST(b.t - a.t AS DOUBLE) AS sl
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.t > a.t)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_pairs,
       round(quantile_cont(sl, 0.5) * 36000000.0, 6) AS slope_per_hour
FROM p GROUP BY 1""")
    _cmp(got, want)


def test_theil_sen_known_slope():
    """A perfectly linear series recovers its slope exactly."""
    from series_correction_project_updated_ray.stages.timeseries import (
        TheilSenGroup)
    n = 20
    df = pd.DataFrame({
        "user_id": np.zeros(n, np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.arange(n, dtype=np.int64) * 3_600_000_000,
        "value": 2.5 * np.arange(n),     # +2.5 per hour
    })
    out = TheilSenGroup()(df)
    assert out["slope_per_hour"].iloc[0] == 2.5
    assert out["n_pairs"].iloc[0] == n * (n - 1) // 2


def test_kalman_kernel_matches_recursive_sql():
    """The Kalman (x, p) recursion with its per-step division gain is
    bit-identical to the recursive CTE replaying the same operand
    order; null keys drop; the first row's gain is NULL."""
    from series_correction_project_updated_ray.stages.timeseries import (
        KalmanGroup)
    df = _mk(with_null=True)
    got = KalmanGroup()(df)
    want = _duck(df, """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, t, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn
  FROM ev WHERE user_id IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn, value AS x,
         CAST(1.0 AS DOUBLE) AS p, CAST(NULL AS DOUBLE) AS k
  FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         r.x + ((r.p + 1.0) / ((r.p + 1.0) + 4.0)) * (c.value - r.x),
         (1.0 - ((r.p + 1.0) / ((r.p + 1.0) + 4.0))) * (r.p + 1.0),
         ((r.p + 1.0) / ((r.p + 1.0) + 4.0))
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, round(x, 6) AS level, round(k, 6) AS gain
FROM r""")
    _cmp(got, want)


def test_kalman_converges_to_steady_gain():
    """On a long constant series the gain converges to the local-level
    steady state k* = (sqrt(q²+4qr)-q)/(2r) ... for q=1, r=4: ~0.39;
    the level tracks the constant exactly."""
    from series_correction_project_updated_ray.stages.timeseries import (
        KalmanGroup)
    n = 200
    df = pd.DataFrame({
        "user_id": np.zeros(n, np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.arange(n, dtype=np.int64) * 1_000_000,
        "value": np.full(n, 42.0),
    })
    out = KalmanGroup()(df).sort_values("t")
    assert (out["level"] == 42.0).all()
    kstar = (np.sqrt(1.0 + 16.0) - 1.0) / 8.0
    assert abs(out["gain"].iloc[-1] - round(kstar, 6)) < 1e-6


def test_holt_winters_kernel_matches_recursive_sql():
    """The 6-state (l, b, s0..s3) recursion is bit-identical to the
    scalar-phase-column recursive CTE; null keys drop; the anchor row
    emits trend 0 and NULL seasonal."""
    from series_correction_project_updated_ray.stages.timeseries import (
        HoltWintersGroup)
    df = _mk(n=300, with_null=True)
    got = HoltWintersGroup()(df)
    import sys
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as E
    sql = E._HW_SQL.replace("epoch_us(ts)", "t") \
        .replace("FROM events", "FROM ev")
    want = _duck(df, sql)
    _cmp(got, want)


def test_holt_winters_gamma_zero_is_holt_recursion():
    """With γ=0 the seasonals stay 0 and the (l, b) recursion equals a
    literal Holt loop with the HW seed (b₁ = 0) — the same two-state
    operand order Holt certifies, under HW's seeding convention."""
    from series_correction_project_updated_ray.functions.rounding import (
        round_half_away)
    from series_correction_project_updated_ray.stages.timeseries import (
        HoltWintersGroup)
    df = _mk(n=200)
    hw = HoltWintersGroup(alpha=0.5, beta=0.5, gamma=0.0)(df)
    assert (hw["seasonal"].fillna(0.0) == 0.0).all()
    for k in df["user_id"].dropna().unique():
        sub = df[df["user_id"] == k].sort_values(["t", "event_id"])
        z = sub["value"].to_numpy(np.float64)
        g = hw[hw["user_id"] == k].set_index("event_id") \
            .loc[sub["event_id"].to_numpy()]
        L, B = z[0], 0.0
        want = [L]
        for x in z[1:]:
            Lk = 0.5 * (x - 0.0) + 0.5 * (L + B)
            B = 0.5 * (Lk - L) + 0.5 * B
            L = Lk
            want.append(L)
        assert (g["level"].to_numpy()
                == round_half_away(np.asarray(want), 6)).all()


def test_spectral_power_kernel_matches_sql():
    """The per-row libm cos/sin terms and the ordered (t, event_id)
    left folds are bit-identical to the list_reduce SQL; null keys
    drop; the close is the identical double expression rounded 6dp."""
    from series_correction_project_updated_ray.stages.timeseries import (
        SpectralGroup)
    df = _mk(n=400, with_null=True)
    got = SpectralGroup()(df)
    import sys
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as E
    sql = E._SPECTRAL_SQL.replace("epoch_us(ts)", "t") \
        .replace("FROM events", "FROM ev")
    want = _duck(df, sql)
    _cmp(got, want)


def test_spectral_power_pure_daily_cycle():
    """A series that is exactly cos(2πh/24) concentrates its power at
    the daily period: power_daily ≈ amp²/4 and power_weekly ≈ 0 over
    whole cycles (the weekly bin sees a non-harmonic frequency)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        SpectralGroup)
    h = np.arange(24 * 7 * 4, dtype=np.int64)        # 4 weeks hourly
    val = np.round(10.0 * np.cos(2 * np.pi * (h % 24) / 24.0), 2)
    df = pd.DataFrame({
        "user_id": pd.Series(np.zeros(len(h), np.int64), dtype="Int64"),
        "event_id": np.arange(len(h), dtype=np.int64),
        "t": h * 3600 * 1_000_000,
        "value": val,
    })
    out = SpectralGroup()(df)
    assert len(out) == 1
    assert out["power_daily"].iloc[0] > 20.0         # ~amp²/4 = 25
    assert out["power_weekly"].iloc[0] < 1.0


def test_xcorr_close_matches_literal():
    """The sliced-matmul lag scores equal a literal per-lag dot scan,
    ties pick the smallest lag, and zero-energy sides emit NULL r."""
    from series_correction_project_updated_ray.stages.timeseries import (
        _XcorrClose)
    rng = np.random.default_rng(11)
    users = np.array([3, 7, 9], dtype=np.int64)
    H, L = 40, 5
    M = rng.integers(-50, 50, (3, H)).astype(np.int64)
    M[2] = 0                                  # zero-energy user
    rows = [(int(users[i]), int(h), int(M[i, h]))
            for i in range(3) for h in range(H) if M[i, h] != 0]
    t = pa.table({"user_id": pa.array([r[0] for r in rows]),
                  "h": pa.array([r[1] for r in rows]),
                  "v": pa.array([r[2] for r in rows])})
    out = _XcorrClose(users, 0, H - 1, L)(t).to_pandas() \
        .set_index(["user_a", "user_b"])
    for i in range(3):
        for j in range(i + 1, 3):
            best = None
            for lag in range(-L, L + 1):
                s = sum(int(M[i, h]) * int(M[j, h + lag])
                        for h in range(H) if 0 <= h + lag < H)
                if best is None or s > best[0]:
                    best = (s, lag)
            row = out.loc[(users[i], users[j])]
            assert row["xc_num"] == best[0]
            assert row["best_lag"] == best[1]
            ga = float((M[i].astype(object) ** 2).sum())
            gb = float((M[j].astype(object) ** 2).sum())
            if ga > 0 and gb > 0:
                assert row["r_best"] == round(
                    best[0] / (np.sqrt(ga) * np.sqrt(gb)), 6)
            else:
                assert np.isnan(row["r_best"])


def test_xcorr_recovers_known_shift():
    """b = a delayed by +3 hours ⇒ best_lag(a→b) = 3 with r ≈ 1."""
    from series_correction_project_updated_ray.stages.timeseries import (
        _XcorrClose)
    rng = np.random.default_rng(5)
    H = 200
    a = rng.integers(1, 100, H).astype(np.int64)
    b = np.zeros(H, dtype=np.int64)
    b[3:] = a[:-3]
    users = np.array([1, 2], dtype=np.int64)
    rows_u = np.r_[np.full(H, 1), np.full(H, 2)]
    rows_h = np.r_[np.arange(H), np.arange(H)]
    rows_v = np.r_[a, b]
    keep = rows_v != 0
    t = pa.table({"user_id": pa.array(rows_u[keep]),
                  "h": pa.array(rows_h[keep]),
                  "v": pa.array(rows_v[keep])})
    out = _XcorrClose(users, 0, H - 1, 24)(t).to_pandas()
    assert out["best_lag"].iloc[0] == 3
    assert out["r_best"].iloc[0] > 0.97


def test_pla_kernel_segments_and_residuals():
    """PlaSegmentsGroup: positions assign per key in (t, event_id)
    order, segments split at width, the fit matches the closed-form
    least squares, and the residual bound is the max |v − fitted|;
    1-point tail segments emit NULL fit; null keys drop."""
    from series_correction_project_updated_ray.stages.timeseries import (
        PlaSegmentsGroup)
    # one user, 5 points, width 4 → seg 0 has 4 pts, seg 1 has 1
    g = pd.DataFrame({
        "user_id": pd.array([1, 1, 1, 1, 1, None], dtype="Int64"),
        "event_id": np.array([0, 1, 2, 3, 4, 5], dtype=np.int64),
        "t": np.array([10, 20, 30, 40, 50, 60], dtype=np.int64),
        "value": np.array([1.0, 3.0, 5.0, 7.25, 9.0, 99.0]),
    })
    out = PlaSegmentsGroup(4)(g).sort_values("seg").reset_index(drop=True)
    assert len(out) == 2                       # null-key row dropped
    assert out.loc[0, "n"] == 4 and out.loc[1, "n"] == 1
    assert out.loc[0, "t_start"] == 10 and out.loc[1, "t_start"] == 50
    # closed-form LS over j=0..3, v=[1,3,5,7.25]
    jj = np.arange(4.0)
    vv = np.array([1.0, 3.0, 5.0, 7.25])
    slope = np.polyfit(jj, vv, 1)[0]
    assert abs(out.loc[0, "slope"] - slope) < 1e-9
    fitted = out.loc[0, "intercept"] + out.loc[0, "slope"] * jj
    assert abs(out.loc[0, "max_abs_err"]
               - np.abs(vv - fitted).max()) < 1e-5
    assert pd.isna(out.loc[1, "slope"])
    assert pd.isna(out.loc[1, "max_abs_err"])


def test_pla_order_ties_break_by_event_id():
    """Equal timestamps order by event_id (the oracle's row_number
    ORDER BY epoch_us(ts), event_id)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        PlaSegmentsGroup)
    g = pd.DataFrame({
        "user_id": pd.array([7, 7, 7, 7], dtype="Int64"),
        "event_id": np.array([3, 1, 2, 0], dtype=np.int64),
        "t": np.array([100, 100, 100, 100], dtype=np.int64),
        "value": np.array([4.0, 2.0, 3.0, 1.0]),
    })
    out = PlaSegmentsGroup(4)(g)
    # event_id order → values 1,2,3,4 → perfect slope 1, zero residual
    assert out.loc[0, "slope"] == 1.0
    assert out.loc[0, "max_abs_err"] == 0.0


def test_page_hinkley_kernel_matches_recursive_sql():
    """The two-sided PH folds (running-mean deviation, running
    extrema) are bit-identical to the recursive CTE replaying the
    same operand order over the EXACT windowed-cumsum mean; null keys
    drop; the raw-cents alarm threshold needs no tolerance."""
    from series_correction_project_updated_ray.stages.timeseries import (
        PageHinkleyGroup)
    df = _mk(with_null=True)
    df.loc[df.index[10:12], "value"] = np.nan   # NULL values drop too
    got = PageHinkleyGroup()(df)
    want = _duck(df, """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, t,
         CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn,
         CAST(SUM(CAST(round(value*100) AS BIGINT)) OVER
                (PARTITION BY user_id ORDER BY t, event_id
                 ROWS UNBOUNDED PRECEDING) AS DOUBLE)
           / row_number() OVER (PARTITION BY user_id
                                ORDER BY t, event_id) AS xbar
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn,
         (CAST(cents AS DOUBLE) - xbar) - 100.0 AS m,
         (CAST(cents AS DOUBLE) - xbar) - 100.0 AS mn,
         (CAST(cents AS DOUBLE) - xbar) + 100.0 AS m2,
         (CAST(cents AS DOUBLE) - xbar) + 100.0 AS mx
  FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         r.m + ((CAST(c.cents AS DOUBLE) - c.xbar) - 100.0),
         LEAST(r.mn,
               r.m + ((CAST(c.cents AS DOUBLE) - c.xbar) - 100.0)),
         r.m2 + ((CAST(c.cents AS DOUBLE) - c.xbar) + 100.0),
         GREATEST(r.mx,
                  r.m2 + ((CAST(c.cents AS DOUBLE) - c.xbar) + 100.0))
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t,
       round((m - mn) / 100.0, 6) AS ph_inc,
       round((mx - m2) / 100.0, 6) AS ph_dec,
       CAST(CASE WHEN (m - mn) > 50000.0 OR (mx - m2) > 50000.0
                 THEN 1 ELSE 0 END AS BIGINT) AS alarm
FROM r""")
    _cmp(got, want)


def test_page_hinkley_detects_step_shift():
    """A clean upward level shift fires the increase alarm after the
    shift (and only after); a stationary prefix stays silent."""
    from series_correction_project_updated_ray.stages.timeseries import (
        PageHinkleyGroup)
    n = 100
    df = pd.DataFrame({
        "user_id": np.zeros(n, np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.arange(n, dtype=np.int64) * 1_000_000,
        "value": np.r_[np.full(50, 10.0), np.full(50, 100.0)],
    })
    out = PageHinkleyGroup(delta=100.0, lam=1000.0)(df) \
        .sort_values("t").reset_index(drop=True)
    assert out["alarm"].iloc[:50].sum() == 0
    assert out["alarm"].iloc[-1] == 1
    assert out["ph_inc"].iloc[-1] > out["ph_inc"].iloc[49]


def test_variance_ratio_kernel_matches_sql():
    """Integer moments of overlapping 1- and 4-step diffs and the
    cast-first double ratio match the HUGEINT oracle; short keys
    (n<=q) and zero-variance keys emit nothing; null keys drop."""
    from series_correction_project_updated_ray.stages.timeseries import (
        VarianceRatioGroup)
    df = _mk(with_null=True)
    df.loc[df.index[10:12], "value"] = np.nan   # NULL values drop too
    # a constant-value user: zero 1-step variance must filter, not 1/0
    extra = pd.DataFrame({
        "user_id": pd.array([77] * 8, dtype="Int64"),
        "event_id": np.arange(1000, 1008, dtype=np.int64),
        "t": np.arange(8, dtype=np.int64) * 1_000_000,
        "value": np.full(8, 5.0),
    })
    # a too-short user (n == 4 <= q) must emit nothing
    short = pd.DataFrame({
        "user_id": pd.array([88] * 4, dtype="Int64"),
        "event_id": np.arange(2000, 2004, dtype=np.int64),
        "t": np.arange(4, dtype=np.int64) * 1_000_000,
        "value": [1.0, 7.0, 2.0, 9.0],
    })
    df = pd.concat([df, extra, short], ignore_index=True)
    got = VarianceRatioGroup(4)(df)
    assert 77 not in set(got["user_id"])
    assert 88 not in set(got["user_id"])
    want = _duck(df, """
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL),
d1 AS (
  SELECT a.user_id, b.cents - a.cents AS d
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.rn = a.rn + 1),
dq AS (
  SELECT a.user_id, b.cents - a.cents AS d
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.rn = a.rn + 4),
s1 AS (
  SELECT user_id, COUNT(*) AS n1, SUM(CAST(d AS HUGEINT)) AS sd,
         SUM(CAST(d AS HUGEINT)*d) AS sdd FROM d1 GROUP BY 1),
sq AS (
  SELECT user_id, COUNT(*) AS nq, SUM(CAST(d AS HUGEINT)) AS sd,
         SUM(CAST(d AS HUGEINT)*d) AS sdd FROM dq GROUP BY 1)
SELECT s1.user_id, CAST(s1.n1 + 1 AS BIGINT) AS n,
       round((CAST(sq.nq*sq.sdd - sq.sd*sq.sd AS DOUBLE)
                / ((CAST(sq.nq AS DOUBLE) * sq.nq) * 4.0))
             / (CAST(s1.n1*s1.sdd - s1.sd*s1.sd AS DOUBLE)
                / (CAST(s1.n1 AS DOUBLE) * s1.n1)), 6) AS vr
FROM s1 JOIN sq USING (user_id)
WHERE s1.n1*s1.sdd - s1.sd*s1.sd > 0""")
    _cmp(got, want)


def test_variance_ratio_mean_reverting_is_zero():
    """A period-2 oscillation has all-zero 4-step diffs: VR == 0.0
    exactly (the mean-reversion extreme)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        VarianceRatioGroup)
    n = 9
    df = pd.DataFrame({
        "user_id": np.zeros(n, np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.arange(n, dtype=np.int64) * 1_000_000,
        "value": (np.arange(n) % 2).astype(np.float64),
    })
    out = VarianceRatioGroup(4)(df)
    assert len(out) == 1
    assert out["vr"].iloc[0] == 0.0
    assert out["n"].iloc[0] == n


def test_variance_ratio_high_level_small_steps():
    """A large absolute LEVEL with small steps must stay on the exact
    fast path (the overflow bound uses actual diffs, not values) and
    match the HUGEINT oracle."""
    from series_correction_project_updated_ray.stages.timeseries import (
        VarianceRatioGroup)
    n = 12
    df = pd.DataFrame({
        "user_id": np.zeros(n, np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.arange(n, dtype=np.int64) * 1_000_000,
        "value": 2.0e7 + 0.01 * np.array(
            [0, 1, 3, 2, 5, 4, 8, 6, 9, 7, 11, 10], dtype=np.float64),
    })
    got = VarianceRatioGroup(4)(df)
    want = _duck(df, """
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL),
d1 AS (
  SELECT a.user_id, b.cents - a.cents AS d
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.rn = a.rn + 1),
dq AS (
  SELECT a.user_id, b.cents - a.cents AS d
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.rn = a.rn + 4),
s1 AS (
  SELECT user_id, COUNT(*) AS n1, SUM(CAST(d AS HUGEINT)) AS sd,
         SUM(CAST(d AS HUGEINT)*d) AS sdd FROM d1 GROUP BY 1),
sq AS (
  SELECT user_id, COUNT(*) AS nq, SUM(CAST(d AS HUGEINT)) AS sd,
         SUM(CAST(d AS HUGEINT)*d) AS sdd FROM dq GROUP BY 1)
SELECT s1.user_id, CAST(s1.n1 + 1 AS BIGINT) AS n,
       round((CAST(sq.nq*sq.sdd - sq.sd*sq.sd AS DOUBLE)
                / ((CAST(sq.nq AS DOUBLE) * sq.nq) * 4.0))
             / (CAST(s1.n1*s1.sdd - s1.sd*s1.sd AS DOUBLE)
                / (CAST(s1.n1 AS DOUBLE) * s1.n1)), 6) AS vr
FROM s1 JOIN sq USING (user_id)
WHERE s1.n1*s1.sdd - s1.sd*s1.sd > 0""")
    _cmp(got, want)


def test_ewm_bands_kernel_matches_recursive_sql():
    """The (l, v) EWM recursion including the per-row sqrt band test
    is bit-identical to the recursive CTE (IEEE sqrt is correctly
    rounded on both sides); null keys and NULL values drop; the
    anchor never flags."""
    from series_correction_project_updated_ray.stages.timeseries import (
        EwmBandsGroup)
    df = _mk(with_null=True)
    df.loc[df.index[10:12], "value"] = np.nan   # NULL values drop too
    got = EwmBandsGroup()(df)
    want = _duck(df, """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, t, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn, value AS l,
         CAST(0.0 AS DOUBLE) AS v, CAST(0 AS BIGINT) AS flag
  FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         r.l + 0.25 * (c.value - r.l),
         0.75 * (r.v + 0.25 * ((c.value - r.l) * (c.value - r.l))),
         CAST(CASE WHEN r.v > 0.0
                    AND abs(c.value - r.l) > 3.0 * sqrt(r.v)
              THEN 1 ELSE 0 END AS BIGINT)
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, round(l, 6) AS level,
       round(sqrt(v), 6) AS ewm_std, flag
FROM r""")
    _cmp(got, want)


def test_ewm_bands_flags_spike_only():
    """A lone spike in an otherwise noisy-stationary series flags at
    the spike (and the steady prefix does not)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        EwmBandsGroup)
    rng = np.random.default_rng(7)
    n = 80
    vals = np.round(rng.normal(50, 1.0, n), 2)
    vals[60] = 200.0                            # 150σ spike
    df = pd.DataFrame({
        "user_id": np.zeros(n, np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.arange(n, dtype=np.int64) * 1_000_000,
        "value": vals,
    })
    out = EwmBandsGroup()(df).sort_values("t").reset_index(drop=True)
    assert out["flag"].iloc[60] == 1
    # an α=0.25 chart (≈7-point effective variance window) has a
    # nonzero background rate on pure noise — the spike must still
    # stand far out of it
    assert out["flag"].sum() <= 8


def test_seasonal_decompose_kernel_matches_sql():
    """The integer 2×m-scaled detrend and per-phase close match the
    HUGEINT oracle exactly; short keys (n < m+1) emit nothing; null
    keys and NULL values drop."""
    from series_correction_project_updated_ray.stages.timeseries import (
        SeasonalDecomposeGroup)
    df = _mk(n=400, users=4, with_null=True)
    df.loc[df.index[10:12], "value"] = np.nan   # NULL values drop too
    short = pd.DataFrame({
        "user_id": pd.array([88] * 24, dtype="Int64"),
        "event_id": np.arange(2000, 2024, dtype=np.int64),
        "t": np.arange(24, dtype=np.int64) * 1_000_000,
        "value": np.arange(24, dtype=np.float64),
    })
    df = pd.concat([df, short], ignore_index=True)
    got = SeasonalDecomposeGroup(24)(df)
    assert 88 not in set(got["user_id"])   # no full window at n == m
    want = _duck(df, """
WITH c AS (
  SELECT user_id, event_id,
         CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk,
         SUM(CAST(round(value*100) AS BIGINT)) OVER
           (PARTITION BY user_id ORDER BY t, event_id
            ROWS BETWEEN 12 PRECEDING AND 12 FOLLOWING) AS wsum,
         lag(CAST(round(value*100) AS BIGINT), 12) OVER w AS cl,
         lead(CAST(round(value*100) AS BIGINT), 12) OVER w AS cr
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
d AS (
  SELECT user_id, (rn - 1) % 24 AS phase,
         48*cents - (2*wsum - cl - cr) AS dd
  FROM c WHERE rn > 12 AND rn <= nk - 12)
SELECT user_id, CAST(phase AS BIGINT) AS phase,
       CAST(COUNT(*) AS BIGINT) AS n,
       round(((CAST(SUM(CAST(dd AS HUGEINT)) AS DOUBLE) / COUNT(*))
                / 48.0) / 100.0, 6) AS seasonal
FROM d GROUP BY 1, 2""")
    _cmp(got, want)


def test_seasonal_decompose_recovers_planted_cycle():
    """A pure period-24 sawtooth on a steep linear trend: the
    trend-adjusted seasonal must track the sawtooth's shape (top
    phase > bottom phase), which raw phase means on the TREND alone
    would not produce."""
    from series_correction_project_updated_ray.stages.timeseries import (
        SeasonalDecomposeGroup)
    n = 240
    pos = np.arange(n)
    season = (pos % 24).astype(np.float64) - 11.5   # mean-zero sawtooth
    df = pd.DataFrame({
        "user_id": np.zeros(n, np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "t": pos.astype(np.int64) * 1_000_000,
        "value": 1000.0 + 5.0 * pos + season,
    })
    out = SeasonalDecomposeGroup(24)(df).set_index("phase")
    assert out.loc[23, "seasonal"] > out.loc[0, "seasonal"]
    assert abs(out.loc[23, "seasonal"] - out.loc[0, "seasonal"]
               - 23.0) < 0.5                        # sawtooth amplitude


def test_seasonal_decompose_all_nan_user_does_not_shift_segments():
    """A user whose values are ALL NaN vanishes entirely after the
    value filter; the surviving users' cells must keep their own ids
    (segment-indexed, not factorize-code-indexed)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        SeasonalDecomposeGroup)
    n = 60
    mk = lambda uid, vals: pd.DataFrame({
        "user_id": pd.array([uid] * n, dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.arange(n, dtype=np.int64) * 1_000_000,
        "value": vals})
    rng = np.random.default_rng(5)
    df = pd.concat([
        mk(1, np.full(n, np.nan)),                   # vanishes
        mk(2, np.round(rng.normal(50, 10, n), 2)),
        mk(3, np.round(rng.normal(50, 10, n), 2)),
    ], ignore_index=True)
    out = SeasonalDecomposeGroup(24)(df)
    assert set(out["user_id"]) == {2, 3}
    # each survivor's cells match running it alone
    for uid in (2, 3):
        alone = SeasonalDecomposeGroup(24)(
            df[df["user_id"] == uid].reset_index(drop=True))
        sub = out[out["user_id"] == uid].reset_index(drop=True)
        pd.testing.assert_frame_equal(
            sub.sort_values("phase").reset_index(drop=True),
            alone.sort_values("phase").reset_index(drop=True),
            check_dtype=False)


def test_peak_detection_kernel_matches_sql():
    """Strict local maxima with prominence floor match the DuckDB
    lag/lead window twin; NULL keys / NaN values drop; key endpoints
    never qualify."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        PeakDetectGroup)
    rng = np.random.default_rng(23)
    n = 400
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 5, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    got = PeakDetectGroup()(g)
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, event_id, t, value,
         lag(value) OVER w AS pv, lead(value) OVER w AS nv
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id))
SELECT user_id, event_id, t, value,
       round(value - GREATEST(pv, nv), 6) AS prom
FROM c
WHERE pv IS NOT NULL AND nv IS NOT NULL
  AND value > pv AND value > nv
  AND value - GREATEST(pv, nv) >= 0.5""").df()
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) > 10


def test_peak_detection_prominence_floor():
    """A bump below the prominence floor is not a peak; a bump at or
    above it is; plateaus (equal neighbor) never qualify."""
    from series_correction_project_updated_ray.stages.timeseries import (
        PeakDetectGroup)
    g = pd.DataFrame({
        "user_id": pd.array([1] * 9, dtype="Int64"),
        "event_id": np.arange(9, dtype=np.int64),
        "t": np.arange(9, dtype=np.int64) * 1000,
        "value": [1.0, 1.3, 1.0,     # prom 0.3 < 0.5 → no
                  1.0, 2.0, 1.0,     # prom 1.0 → yes
                  1.0, 2.0, 2.0],    # trailing plateau → no
    })
    got = PeakDetectGroup()(g)
    assert list(got["event_id"]) == [4]
    assert got["prom"].iloc[0] == 1.0


def test_haar_energy_kernel_matches_sql():
    """Integer Haar lifting + HUGEINT Σd² match the chained-CTE DuckDB
    twin; series truncate to a multiple of 8; short keys emit nothing."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        HaarEnergyGroup)
    rng = np.random.default_rng(31)
    n = 500
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 6, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    # a short key (< 8 rows) that must emit nothing
    short = pd.DataFrame({
        "user_id": pd.array([99] * 5, dtype="Int64"),
        "event_id": np.arange(1000, 1005, dtype=np.int64),
        "t": np.arange(5, dtype=np.int64),
        "value": [1.0, 2.0, 3.0, 4.0, 5.0]})
    g = pd.concat([g, short], ignore_index=True)
    got = HaarEnergyGroup()(g)
    assert 99 not in set(got["user_id"])
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
base AS (SELECT user_id, cents, rn FROM c WHERE rn <= nk - nk % 8),
l1 AS (
  SELECT user_id, (rn + 1) // 2 AS rn, SUM(cents) AS s,
         SUM(CASE WHEN rn % 2 = 1 THEN cents ELSE -cents END) AS d
  FROM base GROUP BY 1, 2),
l2 AS (
  SELECT user_id, (rn + 1) // 2 AS rn, SUM(s) AS s,
         SUM(CASE WHEN rn % 2 = 1 THEN s ELSE -s END) AS d
  FROM l1 GROUP BY 1, 2),
l3 AS (
  SELECT user_id, (rn + 1) // 2 AS rn, SUM(s) AS s,
         SUM(CASE WHEN rn % 2 = 1 THEN s ELSE -s END) AS d
  FROM l2 GROUP BY 1, 2),
e AS (
  SELECT user_id, 1 AS level, COUNT(*) AS n_coef,
         SUM(CAST(d AS HUGEINT) * d) AS e2 FROM l1 GROUP BY 1
  UNION ALL
  SELECT user_id, 2, COUNT(*), SUM(CAST(d AS HUGEINT) * d)
  FROM l2 GROUP BY 1
  UNION ALL
  SELECT user_id, 3, COUNT(*), SUM(CAST(d AS HUGEINT) * d)
  FROM l3 GROUP BY 1)
SELECT user_id, CAST(level AS BIGINT) AS level,
       CAST(n_coef AS BIGINT) AS n_coef,
       round(CAST(e2 AS DOUBLE)
               / (CAST(1 << level AS DOUBLE) * 10000.0), 6) AS energy
FROM e""").df()
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) > 0


def test_haar_energy_hand_vector():
    """Parseval sanity on a hand vector: 8 samples, known detail
    energies at each level (values in cents to stay exact)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        HaarEnergyGroup)
    x = [4.0, 2.0, 5.0, 1.0, 0.0, 6.0, 3.0, 3.0]
    g = pd.DataFrame({
        "user_id": pd.array([7] * 8, dtype="Int64"),
        "event_id": np.arange(8, dtype=np.int64),
        "t": np.arange(8, dtype=np.int64),
        "value": x})
    got = HaarEnergyGroup()(g).set_index("level")
    # level 1 raw d (cents): 200, 400, -600, 0 -> Σd²=5.6e5 /2/1e4=28.0
    assert got.loc[1, "energy"] == 28.0
    assert got.loc[1, "n_coef"] == 4
    # level 1 s: 600,600,600,600 -> level 2 d: 0,0 -> 0
    assert got.loc[2, "energy"] == 0.0
    # level 3 d: 1200-1200=0
    assert got.loc[3, "energy"] == 0.0


def test_ljung_box_kernel_matches_sql():
    """Integer n-scaled ACF moments + ordered 5-term fold match the
    DuckDB twin bit-for-bit at 6dp; short / constant keys drop."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        LjungBoxGroup)
    rng = np.random.default_rng(37)
    n = 600
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 6, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    # constant series (zero variance) must drop; 5-row series too short
    extra = pd.DataFrame({
        "user_id": pd.array([77] * 12 + [88] * 5, dtype="Int64"),
        "event_id": np.arange(2000, 2017, dtype=np.int64),
        "t": np.arange(17, dtype=np.int64),
        "value": [3.0] * 12 + [1.0, 2.0, 1.0, 2.0, 1.0]})
    g = pd.concat([g, extra], ignore_index=True)
    got = LjungBoxGroup()(g)
    assert 77 not in set(got["user_id"]) and 88 not in set(got["user_id"])
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, event_id, t,
         CAST(round(value*100) AS BIGINT) AS cents,
         COUNT(*) OVER (PARTITION BY user_id) AS nk,
         SUM(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY user_id) AS s
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL),
y AS (
  SELECT user_id, nk, event_id, t,
         CAST(nk AS HUGEINT) * cents - s AS y
  FROM c),
p AS (
  SELECT user_id, nk, y,
         lead(y, 1) OVER w AS y1, lead(y, 2) OVER w AS y2,
         lead(y, 3) OVER w AS y3, lead(y, 4) OVER w AS y4,
         lead(y, 5) OVER w AS y5
  FROM y WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
s AS (
  SELECT user_id, MAX(nk) AS n, SUM(y*y) AS d,
         SUM(y*y1) AS m1, SUM(y*y2) AS m2, SUM(y*y3) AS m3,
         SUM(y*y4) AS m4, SUM(y*y5) AS m5
  FROM p GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n,
       round(CAST(n*(n+2) AS DOUBLE) *
             (((((CAST(m1 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m1 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-1 AS DOUBLE)
               + (CAST(m2 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m2 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-2 AS DOUBLE))
               + (CAST(m3 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m3 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-3 AS DOUBLE))
               + (CAST(m4 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m4 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-4 AS DOUBLE))
               + (CAST(m5 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m5 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-5 AS DOUBLE)), 6) AS q_stat
FROM s WHERE n >= 10 AND d > 0""").df()
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) >= 4


def test_ljung_box_white_noise_small():
    """IID noise keeps Q small relative to a strongly autocorrelated
    ramp (sanity on the statistic's direction)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        LjungBoxGroup)
    rng = np.random.default_rng(5)
    n = 200
    g = pd.DataFrame({
        "user_id": pd.array([1] * n + [2] * n, dtype="Int64"),
        "event_id": np.arange(2 * n, dtype=np.int64),
        "t": np.concatenate([np.arange(n), np.arange(n)]).astype(np.int64),
        "value": np.concatenate([
            np.round(rng.normal(0, 1, n), 2),          # white noise
            np.round(np.sin(np.arange(n) / 6.0) * 10, 2)])})  # smooth
    got = LjungBoxGroup()(g).set_index("user_id")
    assert got.loc[2, "q_stat"] > 10 * got.loc[1, "q_stat"]


def test_sample_entropy_kernel_matches_sql():
    """Integer Chebyshev template-match counts + libm ln close match
    the DuckDB self-join twin; chunked slabs agree with one-shot."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        SampleEntropyGroup)
    rng = np.random.default_rng(41)
    n = 500
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 5, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "value": np.round(rng.normal(50, 3, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    got = SampleEntropyGroup()(g)
    # tiny chunk must give identical counts (slab boundary correctness)
    small = SampleEntropyGroup()
    small.CHUNK = 7
    got_small = small(g)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), got_small.reset_index(drop=True))
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
v AS (
  SELECT user_id, rn, nk, cents,
         lead(cents, 1) OVER w2 AS c1, lead(cents, 2) OVER w2 AS c2
  FROM c WINDOW w2 AS (PARTITION BY user_id ORDER BY rn)),
p AS (
  SELECT a.user_id, MAX(a.nk) AS n,
         CAST(COUNT(*) FILTER (abs(a.cents - b.cents) <= 200
                AND abs(a.c1 - b.c1) <= 200) AS BIGINT) AS b_cnt,
         CAST(COUNT(*) FILTER (abs(a.cents - b.cents) <= 200
                AND abs(a.c1 - b.c1) <= 200
                AND abs(a.c2 - b.c2) <= 200) AS BIGINT) AS a_cnt
  FROM v a JOIN v b ON a.user_id = b.user_id AND a.rn < b.rn
  WHERE a.rn <= a.nk - 2 AND b.rn <= b.nk - 2
  GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n, b_cnt, a_cnt,
       CASE WHEN a_cnt > 0 AND b_cnt > 0
            THEN round(-ln(CAST(a_cnt AS DOUBLE)
                           / CAST(b_cnt AS DOUBLE)), 6)
       END AS sampen
FROM p""").df()
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["b_cnt"].sum() > 0


def test_sample_entropy_regular_vs_noise():
    """A perfectly periodic series is maximally regular (A == B →
    sampen == 0); matched-radius noise scores higher."""
    from series_correction_project_updated_ray.stages.timeseries import (
        SampleEntropyGroup)
    rng = np.random.default_rng(9)
    n = 120
    g = pd.DataFrame({
        "user_id": pd.array([1] * n + [2] * n, dtype="Int64"),
        "event_id": np.arange(2 * n, dtype=np.int64),
        "t": np.concatenate([np.arange(n), np.arange(n)]).astype(np.int64),
        "value": np.concatenate([
            np.tile([10.0, 20.0, 30.0], n // 3),
            np.round(rng.uniform(0, 60, n), 2)])})
    got = SampleEntropyGroup()(g).set_index("user_id")
    assert got.loc[1, "sampen"] == 0.0
    assert got.loc[2, "sampen"] > 0.1


def test_croston_kernel_matches_sql():
    """The two-state (z, p) Croston recursion is bit-identical to the
    recursive-CTE twin over hourly demand cells; keys with < 2 demand
    hours drop; NULL keys drop."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        CrostonGroup)
    rng = np.random.default_rng(47)
    n = 800
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 6, n), dtype="Int64"),
        "t": (rng.integers(0, 400, n) * 3_600_000_000
              + rng.integers(0, 3_600_000_000, n)).astype(np.int64),
    })
    g.loc[g.index[:3], "user_id"] = pd.NA
    single = pd.DataFrame({
        "user_id": pd.array([55], dtype="Int64"),
        "t": np.array([7_200_000_000], dtype=np.int64)})
    g = pd.concat([g, single], ignore_index=True)
    got = CrostonGroup()(g)
    assert 55 not in set(got["user_id"])
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH RECURSIVE h AS (
  SELECT user_id, t // 3600000000 AS hr,
         CAST(COUNT(*) AS BIGINT) AS d
  FROM ev WHERE user_id IS NOT NULL
  GROUP BY 1, 2),
o AS (
  SELECT user_id, hr, d,
         row_number() OVER w AS rn,
         lag(d) OVER w AS pd,
         hr - lag(hr) OVER w AS q,
         COUNT(*) OVER (PARTITION BY user_id) AS nh
  FROM h WINDOW w AS (PARTITION BY user_id ORDER BY hr)),
r AS (
  SELECT user_id, rn, nh,
         CAST(pd AS DOUBLE)
           + 0.2 * (CAST(d AS DOUBLE) - CAST(pd AS DOUBLE)) AS z,
         CAST(q AS DOUBLE) AS p
  FROM o WHERE rn = 2
  UNION ALL
  SELECT o.user_id, o.rn, o.nh,
         r.z + 0.2 * (CAST(o.d AS DOUBLE) - r.z),
         r.p + 0.2 * (CAST(o.q AS DOUBLE) - r.p)
  FROM o JOIN r ON o.user_id = r.user_id AND o.rn = r.rn + 1)
SELECT user_id, CAST(nh AS BIGINT) AS n_hours,
       round(z, 6) AS level, round(p, 6) AS smooth_interval,
       round(z / p, 6) AS forecast
FROM r WHERE rn = nh""").df()
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) >= 5


def test_croston_hand_vector():
    """Hand-checked Croston on a tiny sparse series: demands 2@h0,
    1@h5, 3@h7 with alpha 0.2."""
    from series_correction_project_updated_ray.stages.timeseries import (
        CrostonGroup)
    H = 3_600_000_000
    ts = [0, 1, 5 * H, 7 * H, 7 * H + 1, 7 * H + 2]
    g = pd.DataFrame({
        "user_id": pd.array([1] * 6, dtype="Int64"),
        "t": np.array(ts, dtype=np.int64)})
    got = CrostonGroup()(g)
    # anchor at 2nd demand hour: z = 2 + .2*(1-2) = 1.8, p = 5
    # step 3: z = 1.8 + .2*(3-1.8) = 2.04, p = 5 + .2*(2-5) = 4.4
    assert got["n_hours"].iloc[0] == 3
    assert got["level"].iloc[0] == 2.04
    assert got["smooth_interval"].iloc[0] == 4.4
    assert got["forecast"].iloc[0] == round(2.04 / 4.4, 6)


def test_hurst_rs_kernel_matches_sql():
    """Integer block R/S stats + ordered folds + 3-point LS slope
    match the DuckDB twin; keys shorter than the largest window drop."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        HurstRSGroup)
    rng = np.random.default_rng(53)
    n = 700
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 5, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    short = pd.DataFrame({
        "user_id": pd.array([66] * 20, dtype="Int64"),
        "event_id": np.arange(9000, 9020, dtype=np.int64),
        "t": np.arange(20, dtype=np.int64),
        "value": np.round(rng.normal(10, 2, 20), 2)})
    g = pd.concat([g, short], ignore_index=True)
    got = HurstRSGroup()(g)
    assert 66 not in set(got["user_id"])   # < 32 rows: no w=32 block
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
ws AS (SELECT unnest([8, 16, 32]) AS w),
b AS (
  SELECT c.user_id, ws.w, c.cents, c.rn, c.nk,
         (c.rn - 1) // ws.w AS blk
  FROM c, ws WHERE c.rn <= (c.nk // ws.w) * ws.w),
yb AS (
  SELECT user_id, w, blk, rn, nk,
         CAST(w AS BIGINT) * cents
           - SUM(cents) OVER (PARTITION BY user_id, w, blk) AS y
  FROM b),
cd AS (
  SELECT user_id, w, blk, nk, y,
         SUM(y) OVER (PARTITION BY user_id, w, blk ORDER BY rn
                      ROWS UNBOUNDED PRECEDING) AS cdev
  FROM yb),
blkstat AS (
  SELECT user_id, w, blk, MAX(nk) AS nk,
         MAX(cdev) - MIN(cdev) AS rng,
         SUM(CAST(y AS HUGEINT) * y) AS ss
  FROM cd GROUP BY 1, 2, 3),
rs AS (
  SELECT user_id, w, blk, nk,
         (CAST(rng AS DOUBLE) / CAST(w AS DOUBLE))
           / sqrt(CAST(ss AS DOUBLE) / CAST(w*w*w AS DOUBLE)) AS rs
  FROM blkstat WHERE ss > 0),
mw AS (
  SELECT user_id, w, MAX(nk) AS nk,
         list_reduce(list(rs ORDER BY blk), (a, b) -> a + b)
           / COUNT(*) AS mean_rs
  FROM rs GROUP BY 1, 2),
piv AS (
  SELECT user_id, MAX(nk) AS n,
         MAX(CASE WHEN w = 8 THEN ln(mean_rs) END) AS y1,
         MAX(CASE WHEN w = 16 THEN ln(mean_rs) END) AS y2,
         MAX(CASE WHEN w = 32 THEN ln(mean_rs) END) AS y3
  FROM mw GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n,
       round((3.0 * ((ln(8.0)*y1 + ln(16.0)*y2) + ln(32.0)*y3)
              - ((ln(8.0)+ln(16.0))+ln(32.0)) * ((y1+y2)+y3))
             / (3.0 * ((ln(8.0)*ln(8.0) + ln(16.0)*ln(16.0))
                       + ln(32.0)*ln(32.0))
                - ((ln(8.0)+ln(16.0))+ln(32.0))
                  * ((ln(8.0)+ln(16.0))+ln(32.0))), 6) AS hurst
FROM piv
WHERE y1 IS NOT NULL AND y2 IS NOT NULL AND y3 IS NOT NULL""").df()
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) >= 4


def test_hurst_rs_direction():
    """A strongly trending (persistent) series scores a higher Hurst
    exponent than an alternating (anti-persistent) one."""
    from series_correction_project_updated_ray.stages.timeseries import (
        HurstRSGroup)
    n = 128
    rng = np.random.default_rng(3)
    g = pd.DataFrame({
        "user_id": pd.array([1] * n + [2] * n, dtype="Int64"),
        "event_id": np.arange(2 * n, dtype=np.int64),
        "t": np.concatenate([np.arange(n), np.arange(n)]).astype(np.int64),
        "value": np.concatenate([
            np.round(np.arange(n) * 0.5 + rng.normal(0, 0.1, n), 2),
            np.round(np.where(np.arange(n) % 2 == 0, 1.0, -1.0), 2)])})
    got = HurstRSGroup()(g).set_index("user_id")
    assert got.loc[1, "hurst"] > 0.8
    assert got.loc[2, "hurst"] < 0.3


def test_mann_kendall_kernel_matches_sql():
    """Chunk-vectorized pair signs match the DuckDB self-join twin;
    chunked and one-shot counts agree; singleton keys drop."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        MannKendallGroup)
    rng = np.random.default_rng(59)
    n = 400
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 5, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    got = MannKendallGroup()(g)
    small = MannKendallGroup()
    small.CHUNK = 13
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), small(g).reset_index(drop=True))
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
p AS (
  SELECT a.user_id, MAX(a.nk) AS n,
         CAST(SUM(CASE WHEN b.cents > a.cents THEN 1
                       WHEN b.cents < a.cents THEN -1 ELSE 0 END)
              AS BIGINT) AS s_stat
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.rn > a.rn
  GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n, s_stat,
       round(CAST(2 * s_stat AS DOUBLE)
             / CAST(n * (n - 1) AS DOUBLE), 6) AS tau
FROM p""").df()
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_mann_kendall_direction():
    """Monotone-increasing series → tau == 1; decreasing → −1; a
    constant series → 0."""
    from series_correction_project_updated_ray.stages.timeseries import (
        MannKendallGroup)
    n = 30
    g = pd.DataFrame({
        "user_id": pd.array([1] * n + [2] * n + [3] * n, dtype="Int64"),
        "event_id": np.arange(3 * n, dtype=np.int64),
        "t": np.tile(np.arange(n), 3).astype(np.int64),
        "value": np.concatenate([np.arange(n, dtype=float),
                                 np.arange(n, 0, -1, dtype=float),
                                 np.full(n, 7.0)])})
    got = MannKendallGroup()(g).set_index("user_id")
    assert got.loc[1, "tau"] == 1.0
    assert got.loc[2, "tau"] == -1.0
    assert got.loc[3, "tau"] == 0.0


def test_spearman_trend_kernel_matches_sql():
    """2-scaled tie-averaged ranks + exact moments match the DuckDB
    window-rank twin; heavy ties exercised via coarse rounding."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        SpearmanTrendGroup)
    rng = np.random.default_rng(61)
    n = 400
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 5, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        # integers 0..9 -> massive rank ties
        "value": rng.integers(0, 10, n).astype(np.float64),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    # constant-value key: zero rank variance -> NULL rho, row kept
    const = pd.DataFrame({
        "user_id": pd.array([42] * 6, dtype="Int64"),
        "event_id": np.arange(5000, 5006, dtype=np.int64),
        "t": np.arange(6, dtype=np.int64),
        "value": [3.0] * 6})
    g = pd.concat([g, const], ignore_index=True)
    got = SpearmanTrendGroup()(g)
    assert np.isnan(got.set_index("user_id").loc[42, "rho"])
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL),
r AS (
  SELECT user_id, 2 * rn AS r2x,
         2 * RANK() OVER (PARTITION BY user_id ORDER BY cents)
           + COUNT(*) OVER (PARTITION BY user_id, cents) - 1 AS r2y
  FROM c),
s AS (
  SELECT user_id, COUNT(*) AS n, SUM(r2x) AS sx, SUM(r2y) AS sy,
         SUM(CAST(r2x AS HUGEINT) * r2y) AS sxy,
         SUM(CAST(r2x AS HUGEINT) * r2x) AS sxx,
         SUM(CAST(r2y AS HUGEINT) * r2y) AS syy
  FROM r GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n,
       CASE WHEN CAST(n AS DOUBLE)*CAST(sxx AS DOUBLE)
                 - CAST(sx AS DOUBLE)*CAST(sx AS DOUBLE) > 0.0
             AND CAST(n AS DOUBLE)*CAST(syy AS DOUBLE)
                 - CAST(sy AS DOUBLE)*CAST(sy AS DOUBLE) > 0.0
            THEN round((CAST(n AS DOUBLE)*CAST(sxy AS DOUBLE)
                        - CAST(sx AS DOUBLE)*CAST(sy AS DOUBLE))
                       / (sqrt(CAST(n AS DOUBLE)*CAST(sxx AS DOUBLE)
                               - CAST(sx AS DOUBLE)*CAST(sx AS DOUBLE))
                          * sqrt(CAST(n AS DOUBLE)*CAST(syy AS DOUBLE)
                                 - CAST(sy AS DOUBLE)*CAST(sy AS DOUBLE))),
                       6)
       END AS rho
FROM s WHERE n >= 2""").df()
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_spearman_trend_monotone():
    """A strictly increasing series has rho == 1 even when increments
    vary; strictly decreasing -> -1."""
    from series_correction_project_updated_ray.stages.timeseries import (
        SpearmanTrendGroup)
    v = np.cumsum(np.abs(np.random.default_rng(7).normal(1, 0.5, 40)))
    g = pd.DataFrame({
        "user_id": pd.array([1] * 40 + [2] * 40, dtype="Int64"),
        "event_id": np.arange(80, dtype=np.int64),
        "t": np.tile(np.arange(40), 2).astype(np.int64),
        "value": np.concatenate([np.round(v, 2), np.round(v[::-1], 2)])})
    got = SpearmanTrendGroup()(g).set_index("user_id")
    assert got.loc[1, "rho"] == 1.0
    assert got.loc[2, "rho"] == -1.0


def test_pacf_kernel_matches_sql():
    """Durbin-Levinson PACF chains over integer ACF moments match the
    DuckDB twin at 6dp."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        PacfGroup)
    rng = np.random.default_rng(73)
    n = 500
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 5, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    got = PacfGroup()(g)
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, event_id, t,
         CAST(round(value*100) AS BIGINT) AS cents,
         COUNT(*) OVER (PARTITION BY user_id) AS nk,
         SUM(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY user_id) AS s
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL),
y AS (
  SELECT user_id, nk, event_id, t,
         CAST(nk AS HUGEINT) * cents - s AS y
  FROM c),
p AS (
  SELECT user_id, nk, y,
         lead(y, 1) OVER w AS y1, lead(y, 2) OVER w AS y2,
         lead(y, 3) OVER w AS y3
  FROM y WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
s AS (
  SELECT user_id, MAX(nk) AS n, SUM(y*y) AS d,
         SUM(y*y1) AS m1, SUM(y*y2) AS m2, SUM(y*y3) AS m3
  FROM p GROUP BY 1),
r AS (
  SELECT user_id, n,
         CAST(m1 AS DOUBLE)/CAST(d AS DOUBLE) AS r1,
         CAST(m2 AS DOUBLE)/CAST(d AS DOUBLE) AS r2,
         CAST(m3 AS DOUBLE)/CAST(d AS DOUBLE) AS r3
  FROM s WHERE n >= 10 AND d > 0),
dl AS (
  SELECT user_id, n, r1, r2, r3,
         (r2 - r1*r1) / (1.0 - r1*r1) AS p22
  FROM r),
dl2 AS (SELECT user_id, n, r1, r2, r3, p22, r1 - p22*r1 AS p21 FROM dl)
SELECT user_id, CAST(n AS BIGINT) AS n,
       round(r1, 6) AS pacf1, round(p22, 6) AS pacf2,
       round((r3 - p21*r2 - p22*r1)
             / (1.0 - p21*r1 - p22*r2), 6) AS pacf3
FROM dl2""").df()
    cols = sorted(got.columns)
    g2 = got[cols].sort_values(cols).reset_index(drop=True)
    w2 = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(g2, w2, check_dtype=False)
    assert len(g2) == 5


def test_pacf_ar1_signature():
    """For an AR(1)-like series, pacf1 is large while pacf2/pacf3 are
    near zero — the AR-order identification property."""
    from series_correction_project_updated_ray.stages.timeseries import (
        PacfGroup)
    rng = np.random.default_rng(19)
    n = 2000
    x = np.zeros(n)
    for i in range(1, n):
        x[i] = 0.8 * x[i - 1] + rng.normal(0, 1)
    g = pd.DataFrame({
        "user_id": pd.array([1] * n, dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.arange(n, dtype=np.int64),
        "value": np.round(x * 10 + 100, 2)})
    got = PacfGroup()(g).iloc[0]
    assert got["pacf1"] > 0.7
    assert abs(got["pacf2"]) < 0.15 and abs(got["pacf3"]) < 0.15


def test_isotonic_matches_classic_pava():
    """The minimax form equals the classic pool-adjacent-violators
    loop on random series (cents-exact pools), and the fit is
    non-decreasing."""
    from series_correction_project_updated_ray.stages.timeseries import (
        IsotonicGroup)
    rng = np.random.default_rng(79)
    for trial in range(5):
        n = int(rng.integers(3, 60))
        vals = np.round(rng.normal(50, 10, n), 2)
        g = pd.DataFrame({
            "user_id": pd.array([1] * n, dtype="Int64"),
            "event_id": np.arange(n, dtype=np.int64),
            "t": np.arange(n, dtype=np.int64),
            "value": vals})
        got = IsotonicGroup()(g)["fitted"].to_numpy()
        # classic PAVA on cents
        c = np.round(vals * 100).astype(np.int64)
        pools = [[int(x), 1] for x in c]      # [sum, count]
        i = 0
        merged = True
        while merged:
            merged = False
            j = 0
            while j + 1 < len(pools):
                if pools[j][0] * pools[j+1][1] \
                        > pools[j+1][0] * pools[j][1]:
                    pools[j][0] += pools[j+1][0]
                    pools[j][1] += pools[j+1][1]
                    del pools[j+1]
                    merged = True
                else:
                    j += 1
        want = np.concatenate([
            np.full(cnt, s / cnt / 100.0) for s, cnt in pools])
        assert np.all(np.diff(got) >= -1e-9)
        assert np.allclose(got, np.round(want, 6), atol=2e-6)


def test_isotonic_kernel_matches_sql():
    """Window-extrema SQL twin matches the vectorized minimax kernel
    bit-for-bit at 6dp across multiple keys."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        IsotonicGroup)
    rng = np.random.default_rng(83)
    n = 300
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 5, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    got = IsotonicGroup()(g)
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, event_id,
         CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
ps AS (
  SELECT user_id, event_id, rn, cents,
         SUM(cents) OVER (PARTITION BY user_id ORDER BY rn) AS s
  FROM c),
pairs AS (
  SELECT a.user_id, a.rn AS j, b.rn AS k,
         CAST(b.s - (a.s - a.cents) AS DOUBLE)
           / CAST(b.rn - a.rn + 1 AS DOUBLE) AS mean_jk
  FROM ps a JOIN ps b ON a.user_id = b.user_id AND b.rn >= a.rn),
mn AS (
  SELECT user_id, j, k,
         MIN(mean_jk) OVER (PARTITION BY user_id, j ORDER BY k DESC
                            ROWS UNBOUNDED PRECEDING) AS m
  FROM pairs),
mx AS (
  SELECT user_id, j, k,
         MAX(m) OVER (PARTITION BY user_id, k ORDER BY j
                      ROWS UNBOUNDED PRECEDING) AS f
  FROM mn)
SELECT c.user_id, c.event_id, round(mx.f / 100.0, 6) AS fitted
FROM mx JOIN c ON c.user_id = mx.user_id AND c.rn = mx.k
WHERE mx.j = mx.k""").df()
    cols = sorted(got.columns)
    g2 = got[cols].sort_values(["user_id", "event_id"]) \
        .reset_index(drop=True)
    w2 = want[cols].sort_values(["user_id", "event_id"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(g2, w2, check_dtype=False)


def test_next_higher_kernel_matches_sql():
    """Monotonic-stack waits equal the quadratic first-match join."""
    import duckdb

    from series_correction_project_updated_ray.stages.timeseries import (
        NextHigherGroup)
    rng = np.random.default_rng(89)
    n = 400
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 5, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.sort(rng.integers(0, 10**9, n)).astype(np.int64),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    got = NextHigherGroup()(g)
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, event_id, t,
         CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn
  FROM ev WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id))
SELECT a.user_id, a.event_id, MIN(b.t) - a.t AS wait_us
FROM c a LEFT JOIN c b
  ON a.user_id = b.user_id AND b.rn > a.rn AND b.cents > a.cents
GROUP BY a.user_id, a.event_id, a.t""").df()
    cols = sorted(got.columns)
    g2 = got[cols].sort_values(["user_id", "event_id"]) \
        .reset_index(drop=True)
    w2 = want[cols].sort_values(["user_id", "event_id"]) \
        .reset_index(drop=True)
    g2["wait_us"] = g2["wait_us"].astype("float64")
    w2["wait_us"] = w2["wait_us"].astype("float64")
    pd.testing.assert_frame_equal(g2, w2, check_dtype=False)


def test_next_higher_hand_vector():
    """Hand-checked waits on [3,1,2,5,4]: the running-max tail has
    NULL waits."""
    from series_correction_project_updated_ray.stages.timeseries import (
        NextHigherGroup)
    g = pd.DataFrame({
        "user_id": pd.array([1] * 5, dtype="Int64"),
        "event_id": np.arange(5, dtype=np.int64),
        "t": np.array([0, 10, 20, 30, 40], dtype=np.int64),
        "value": [3.0, 1.0, 2.0, 5.0, 4.0]})
    got = NextHigherGroup()(g).set_index("event_id")["wait_us"]
    assert got[0] == 30       # 3 -> 5 at t=30
    assert got[1] == 10       # 1 -> 2 at t=20
    assert got[2] == 10       # 2 -> 5
    assert pd.isna(got[3]) and pd.isna(got[4])


def test_rsi_per_user_oracle(ray_session):
    """Wilder RSI over sf0.001 is bit-exact vs the recursive CTE; all
    values live in [0, 100] and a monotone-gain user pins at 100."""
    import duckdb

    import __ray_entry__ as E
    sf = "/root/testdata/sf0.001/events.parquet"
    got = E.queries()["rsi_per_user"]("/root/testdata/sf0.001").to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}'")
    want = con.execute(E.oracle_sql()["rsi_per_user"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values(["user_id", "event_id"]) \
        .reset_index(drop=True)
    w = want[cols].sort_values(["user_id", "event_id"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert got["rsi"].between(0.0, 100.0).all()


def test_rsi_kernel_monotone_and_flat():
    """Kernel semantics on crafted series: pure gains pin RSI at 100,
    pure losses drive it to 0 asymptotically, a flat series stays 100
    (zero losses) — the al=0 convention."""
    from series_correction_project_updated_ray.stages.timeseries import (
        RsiGroup)
    n = 10
    up = pd.DataFrame({"user_id": np.int64(1), "event_id": np.arange(n),
                       "t": np.arange(n, dtype=np.int64) * 1_000_000,
                       "value": np.linspace(1.0, 10.0, n)})
    out = RsiGroup()(up)
    assert (out["rsi"] == 100.0).all()
    down = up.assign(value=np.linspace(10.0, 1.0, n), user_id=np.int64(2))
    out_d = RsiGroup()(down).sort_values("event_id")
    assert out_d["rsi"].iloc[0] == 100.0          # zero-seed anchor
    assert (out_d["rsi"].iloc[1:] == 0.0).all()   # ag stays exactly 0
    flat = up.assign(value=5.0, user_id=np.int64(3))
    assert (RsiGroup()(flat)["rsi"] == 100.0).all()


def test_rolling_active_users_oracle(ray_session):
    """Trailing-7-day distinct actives over sf0.001 equal the SQL
    oracle; each day's 7-day count is >= that day's 1-day count."""
    import duckdb

    import ray.data as rd
    import __ray_entry__ as E
    from series_correction_project_updated_ray.stages.windows import (
        rolling_active_users)
    sf = "/root/testdata/sf0.001/events.parquet"
    ev = rd.read_parquet(sf, columns=["user_id", "ts"])
    got = rolling_active_users(ev).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}'")
    want = con.execute(E.oracle_sql()["rolling_active_users"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("day").reset_index(drop=True)
    w = want[cols].sort_values("day").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    one_day = rolling_active_users(ev, window_days=1).to_pandas() \
        .set_index("day")["active"]
    merged = got.set_index("day")["active"]
    assert (merged >= one_day.reindex(merged.index)).all()
