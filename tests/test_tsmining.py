"""Tests for stages/tsmining.py: SAX symbolization, threshold
excursions, DTW profile distances — kernel edge semantics vs DuckDB on
adversarial frames, the DP kernel vs a literal single-pair fold, and
Ray end-to-end."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from series_correction_project_updated_ray.stages.tsmining import (
    ExcursionGroup, M4Finalize, PartialM4, SaxGroup, dtw_pairwise_int,
    dtw_profile_pairs, m4_downsample)
from series_correction_project_updated_ray.stages.windows import run_per_key


def _mk(n=300, seed=3, users=8):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "user_id": rng.integers(0, users, n).astype(np.float64),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.sort(rng.integers(0, 500_000, n)).astype(np.int64)
        * 1_000_000,
        "value": np.round(rng.normal(120, 60, n), 2),
    })
    # a null-key group, a too-short (n < w) key, a zero-variance key
    df.loc[df.index[:4], "user_id"] = np.nan
    df.loc[df["user_id"] == 6, "value"] = 42.0
    short = df["user_id"] == 7
    df.loc[df.index[short][3:], "user_id"] = 0.0
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


SAX_SQL = """
WITH c AS (
  SELECT user_id,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) - 1 AS pos,
         count(*) OVER (PARTITION BY user_id) AS n,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM ev),
m AS (
  SELECT user_id, any_value(n) AS n, SUM(cents) AS sc,
         SUM(CAST(cents AS HUGEINT)*cents) AS ss
  FROM c GROUP BY 1 HAVING any_value(n) >= {w}),
seg AS (
  SELECT c.user_id, (c.pos * {w}) // c.n AS seg,
         SUM(c.cents) AS segsum, COUNT(*) AS segn
  FROM c JOIN m ON m.user_id IS NOT DISTINCT FROM c.user_id
  GROUP BY 1, 2),
z AS (
  SELECT s.user_id, s.seg,
         (CAST(s.segsum AS DOUBLE)/s.segn - CAST(m.sc AS DOUBLE)/m.n)
           / (sqrt(CAST(m.n*m.ss - CAST(m.sc AS HUGEINT)*m.sc AS DOUBLE))
              / m.n) AS z,
         (m.n*m.ss - CAST(m.sc AS HUGEINT)*m.sc) AS varnum
  FROM seg s JOIN m ON m.user_id IS NOT DISTINCT FROM s.user_id)
SELECT z.user_id, CAST(any_value(m.n) AS BIGINT) AS n_events,
       CASE WHEN any_value(z.varnum) = 0 THEN NULL
            ELSE string_agg(CASE WHEN z < -0.6744897501960817 THEN 'a'
                                 WHEN z < 0.0 THEN 'b'
                                 WHEN z < 0.6744897501960817 THEN 'c'
                                 ELSE 'd' END, '' ORDER BY z.seg)
            END AS sax
FROM z JOIN m ON m.user_id IS NOT DISTINCT FROM z.user_id GROUP BY 1
"""


def test_sax_kernel_matches_sql():
    """PAA segment convention pos*w//n, n < w keys dropped,
    zero-variance keys emit NULL sax, null keys are their own group."""
    df = _mk()
    got = SaxGroup(8)(df)
    assert (df["user_id"] == 6).sum() >= 8          # constant key kept
    assert got.loc[got["user_id"] == 6, "sax"].isna().all()
    want = _duck(df, SAX_SQL.format(w=8))
    _cmp(got, want)


def test_sax_kernel_matches_sql_w5_and_exact_w():
    """Non-divisor segment count and a key with exactly n == w."""
    df = _mk(n=123, seed=9, users=4)
    _cmp(SaxGroup(5)(df), _duck(df, SAX_SQL.format(w=5)))
    one = df[df["user_id"] == 1].head(5).copy()
    _cmp(SaxGroup(5)(one), _duck(one, SAX_SQL.format(w=5)))


def test_sax_varnum_overflow_exact():
    """Large count × moderate cents: Σc² fits int64 but var_num's
    n·Σc² and (Σc)² would wrap — must route through exact python ints
    and still match the HUGEINT SQL (review regression)."""
    rng = np.random.default_rng(6)
    n = 60_000
    df = pd.DataFrame({
        "user_id": pd.Series([1] * n, dtype="Int64"),
        "event_id": np.arange(n, dtype=np.int64),
        "t": np.arange(n, dtype=np.int64) * 1_000_000,
        "value": np.round(rng.uniform(500, 4000, n), 2),
    })
    cents = np.round(df["value"].to_numpy() * 100).astype(np.int64)
    true_var = n * int((cents.astype(object) ** 2).sum()) \
        - int(cents.sum()) ** 2
    assert true_var > np.iinfo(np.int64).max      # int64 WOULD wrap
    _cmp(SaxGroup(8)(df), _duck(df, SAX_SQL.format(w=8)))


def test_sax_big_cents_exact():
    """|cents| large enough that n·Σc² overflows int64 routes through
    the exact python-int fallback and still matches HUGEINT SQL."""
    rng = np.random.default_rng(1)
    df = pd.DataFrame({
        "user_id": pd.Series([1] * 40, dtype="Int64"),
        "event_id": np.arange(40, dtype=np.int64),
        "t": np.arange(40, dtype=np.int64) * 1_000_000,
        "value": np.round(rng.uniform(2e13, 9e13, 40), 2),
    })
    _cmp(SaxGroup(8)(df), _duck(df, SAX_SQL.format(w=8)))


EXC_SQL = """
WITH c AS (
  SELECT user_id, value, t,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn
  FROM ev),
o AS (
  SELECT user_id, t, rn,
         rn - row_number() OVER (PARTITION BY user_id ORDER BY rn) AS grp
  FROM c WHERE value > {th}),
isl AS (
  SELECT user_id, grp, COUNT(*) AS run_len, MAX(t) - MIN(t) AS dur_us
  FROM o GROUP BY 1, 2)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_excursions,
       CAST(MAX(run_len) AS BIGINT) AS max_run,
       CAST(SUM(run_len) AS BIGINT) AS n_over,
       CAST(MAX(dur_us) AS BIGINT) AS max_dur_us
FROM isl GROUP BY 1
"""


def test_excursion_kernel_matches_sql():
    """Runs break on key boundaries and under-threshold rows; keys with
    no over-threshold event emit nothing (inner shape); null keys are
    their own group."""
    df = _mk()
    got = ExcursionGroup(150.0)(df)
    assert not (got["user_id"] == 6).any()   # constant-42 key: no rows
    _cmp(got, _duck(df, EXC_SQL.format(th=150.0)))


def test_excursion_all_over_single_run():
    df = _mk(n=50, seed=5, users=2)
    got = ExcursionGroup(-1e9)(df)           # everything qualifies
    assert (got["n_excursions"] == 1).all()
    assert int(got["n_over"].sum()) == len(df)
    _cmp(got, _duck(df, EXC_SQL.format(th=-1e9)))


M4_SQL = """
WITH c AS (
  SELECT user_id, t, event_id AS id,
         CAST(round(value*100) AS BIGINT) AS cents,
         (t // 1000000) // {w} * {w} AS bucket_start
  FROM ev),
s AS (
  SELECT user_id, bucket_start, COUNT(*) AS n,
         MIN(cents) AS minc, MAX(cents) AS maxc
  FROM c GROUP BY 1, 2),
fl AS (
  SELECT user_id, bucket_start, t, cents,
         row_number() OVER (PARTITION BY user_id, bucket_start
                            ORDER BY t, id) AS rf,
         row_number() OVER (PARTITION BY user_id, bucket_start
                            ORDER BY t DESC, id DESC) AS rl
  FROM c),
mm AS (
  SELECT c.user_id, c.bucket_start,
         MIN(CASE WHEN c.cents = s.minc THEN c.t END) AS t_min,
         MIN(CASE WHEN c.cents = s.maxc THEN c.t END) AS t_max
  FROM c JOIN s USING (user_id, bucket_start) GROUP BY 1, 2)
SELECT s.user_id, s.bucket_start, CAST(s.n AS BIGINT) AS n,
       f.t AS t_first, CAST(f.cents AS DOUBLE)/100.0 AS v_first,
       l.t AS t_last,  CAST(l.cents AS DOUBLE)/100.0 AS v_last,
       mm.t_min, CAST(s.minc AS DOUBLE)/100.0 AS v_min,
       mm.t_max, CAST(s.maxc AS DOUBLE)/100.0 AS v_max
FROM s
JOIN fl f ON f.user_id = s.user_id
         AND f.bucket_start = s.bucket_start AND f.rf = 1
JOIN fl l ON l.user_id = s.user_id
         AND l.bucket_start = s.bucket_start AND l.rl = 1
JOIN mm ON mm.user_id = s.user_id AND mm.bucket_start = s.bucket_start
"""


def _mk_m4(n=400, seed=2, users=6):
    """Adversarial frame: duplicated values (extremum ties), duplicated
    timestamps (id tiebreaks on first/last)."""
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "user_id": rng.integers(0, users, n).astype(np.int64),
        "event_id": rng.permutation(n).astype(np.int64),
        "t": (np.sort(rng.integers(0, 5 * 86400, n)) // 7 * 7)
        .astype(np.int64) * 1_000_000,
        "value": np.round(rng.integers(0, 25, n) * 0.25, 2),
    })
    return df


def _m4_direct(df, width_s):
    """Single-process M4 via the partial+finalize kernels on one batch."""
    tbl = pa.table({
        "user_id": df["user_id"], "event_id": df["event_id"],
        "ts": pa.array(df["t"].to_numpy(), type=pa.timestamp("us")),
        "value": df["value"]})
    part = PartialM4("user_id", "ts", "value", "event_id", width_s)(tbl)
    return M4Finalize("user_id")(part.to_pandas())


def test_m4_kernel_matches_sql():
    df = _mk_m4()
    got = _m4_direct(df, 86400)
    _cmp(got, _duck(df, M4_SQL.format(w=86400)))


def test_m4_merge_identity():
    """Finalize over split-block partials equals the single-block
    result — the mergeability contract the shuffle relies on."""
    df = _mk_m4(n=500, seed=8)
    whole = _m4_direct(df, 3600)
    parts = []
    for lo in range(0, 500, 83):        # uneven, cell-straddling splits
        d = df.iloc[lo:lo + 83]
        tbl = pa.table({
            "user_id": d["user_id"], "event_id": d["event_id"],
            "ts": pa.array(d["t"].to_numpy(), type=pa.timestamp("us")),
            "value": d["value"]})
        parts.append(
            PartialM4("user_id", "ts", "value", "event_id", 3600)(tbl))
    merged = M4Finalize("user_id")(pa.concat_tables(parts).to_pandas())
    _cmp(merged, whole)


def test_m4_ray_end_to_end(ray_session):
    import ray.data
    df = _mk_m4(n=2000, seed=5, users=20)
    rdf = df.assign(ts=pd.to_datetime(df["t"] * 1000)).drop(columns=["t"])
    ds = ray.data.from_pandas(rdf).repartition(7)
    got = m4_downsample(ds, width_s=3600).to_pandas()
    _cmp(got, _duck(df, M4_SQL.format(w=3600)))


def _dtw_single(a, b):
    L = len(a)
    INF = 1 << 62
    acc = [[INF] * (L + 1) for _ in range(L + 1)]
    acc[0][0] = 0
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            cost = abs(int(a[i - 1]) - int(b[j - 1]))
            acc[i][j] = cost + min(acc[i - 1][j], acc[i][j - 1],
                                   acc[i - 1][j - 1])
    return acc[L][L]


def test_dtw_pairwise_matches_literal_dp():
    rng = np.random.default_rng(7)
    prof = rng.integers(-100_000, 100_000, size=(7, 24)).astype(np.int64)
    ia, ja = np.triu_indices(7, k=1)
    ref = np.array([_dtw_single(prof[i], prof[j])
                    for i, j in zip(ia, ja)], dtype=np.int64)
    assert np.array_equal(dtw_pairwise_int(prof), ref)
    # identical series -> 0; single pair; empty
    same = np.tile(prof[0], (2, 1))
    assert dtw_pairwise_int(same).tolist() == [0]
    assert dtw_pairwise_int(prof[:1]).size == 0


def test_tsmining_ray_end_to_end(ray_session):
    import ray.data

    rng = np.random.default_rng(11)
    n = 4000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 40, n),
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime(
            np.sort(rng.integers(0, 30 * 86400, n)) * 1_000_000_000),
        "value": np.round(rng.normal(120, 60, n), 2),
    })
    ds = ray.data.from_pandas(df).repartition(8)

    sax = run_per_key(ds, SaxGroup(8)).to_pandas()
    want_sax = _duck(
        df.assign(t=df["ts"].astype("datetime64[ns]").astype(np.int64)
                  // 1000)[["user_id", "event_id", "t", "value"]],
        SAX_SQL.format(w=8))
    _cmp(sax, want_sax)

    exc = run_per_key(ds, ExcursionGroup(150.0)).to_pandas()
    want_exc = _duck(
        df.assign(t=df["ts"].astype("datetime64[ns]").astype(np.int64)
                  // 1000)[["user_id", "event_id", "t", "value"]],
        EXC_SQL.format(th=150.0))
    _cmp(exc, want_exc)

    dtw = dtw_profile_pairs(ds, k_users=6).to_pandas()
    assert len(dtw) == 15                     # C(6,2)
    assert (dtw["user_a"] < dtw["user_b"]).all()
    # exactness vs a direct single-process build of the same profiles
    cents = np.round(df["value"].to_numpy() * 100).astype(np.int64)
    hod = ((df["ts"].astype("datetime64[ns]").astype(np.int64)
            // 1_000_000_000) // 3600) % 24
    prof = pd.DataFrame({"u": df["user_id"], "h": hod, "c": cents}) \
        .groupby(["u", "h"])["c"].sum()
    users = np.sort(df["user_id"].unique())[:6]
    mat = np.zeros((6, 24), dtype=np.int64)
    for (u, h), c in prof.items():
        if u in users:
            mat[np.searchsorted(users, u), int(h)] = c
    ia, ja = np.triu_indices(6, k=1)
    ref = pd.DataFrame({
        "user_a": users[ia], "user_b": users[ja],
        "dtw": np.round(dtw_pairwise_int(mat) / 100.0, 6)})
    _cmp(dtw, ref)


def test_matrix_profile_matches_literal():
    """The Gram-matmul profile equals a literal O(m²w) loop; a planted
    repeated motif gives distance 0 at both its positions; n < w+1
    keys emit nothing."""
    import numpy as np
    import pandas as pd

    from series_correction_project_updated_ray.stages.tsmining import (
        MatrixProfileGroup)
    rng = np.random.default_rng(11)
    vals = np.round(rng.normal(50, 20, 40), 2)
    vals[20:28] = vals[4:12]            # planted motif (w=8)
    df = pd.DataFrame({
        "user_id": np.r_[np.zeros(40, np.int64), np.full(5, 7, np.int64)],
        "event_id": np.arange(45, dtype=np.int64),
        "t": np.r_[np.arange(40), np.arange(5)].astype(np.int64)
        * 1_000_000,
        "value": np.r_[vals, np.full(5, 1.0)],
    })
    out = MatrixProfileGroup(8)(df)
    assert set(out["user_id"]) == {0}   # the 5-event key has 0 pairs
    got = out.set_index("pos")
    c = np.round(vals * 100).astype(np.int64)
    m = 40 - 8 + 1
    W = np.lib.stride_tricks.sliding_window_view(c, 8).astype(np.int64)
    for i in range(m):
        d = [(np.sum((W[i] - W[j]) ** 2), j + 1)
             for j in range(m) if j != i]
        want_d, want_j = min(d)
        assert got.loc[i + 1, "mp_dist2"] == want_d
        assert got.loc[i + 1, "mp_idx"] == want_j
    assert got.loc[5, "mp_dist2"] == 0 and got.loc[5, "mp_idx"] == 21
    assert got.loc[21, "mp_dist2"] == 0 and got.loc[21, "mp_idx"] == 5


def test_matrix_profile_overflow_fallback_exact():
    """Opposite-sign cents near the int64 bound (dist² ≈ 4·amax²·w >
    int64) route through the exact object-int fallback — the review
    repro that produced a wrapped negative mp_dist2 under the old
    amax²·w guard."""
    import numpy as np
    import pandas as pd

    from series_correction_project_updated_ray.stages.tsmining import (
        MatrixProfileGroup)
    amax = 750_000_000                  # amax²·8 < 2^62, 4·amax²·8 > 2^63
    vals = np.r_[np.full(8, amax), np.full(8, -amax)] / 100.0
    df = pd.DataFrame({
        "user_id": np.zeros(16, np.int64),
        "event_id": np.arange(16, dtype=np.int64),
        "t": np.arange(16, dtype=np.int64) * 1_000_000,
        "value": vals,
    })
    out = MatrixProfileGroup(8)(df).set_index("pos")
    assert (out["mp_dist2"] >= 0).all()
    c = np.round(vals * 100).astype(object)
    W = [c[i:i + 8] for i in range(9)]
    for i in range(9):
        d = [(int(sum((W[i] - W[j]) ** 2)), j + 1)
             for j in range(9) if j != i]
        want_d, want_j = min(d)
        assert int(out.loc[i + 1, "mp_dist2"]) == want_d
        assert int(out.loc[i + 1, "mp_idx"]) == want_j
