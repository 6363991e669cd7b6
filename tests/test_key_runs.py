"""``key_runs`` — the shared sort prologue of the per-key pandas kernels —
and a degenerate-input battery over every kernel built on it.

The battery calls each kernel class directly on pandas frames (no Ray)
converted from Arrow the way a pandas batch reaches a kernel, on four
inputs: empty, one row, all-null keys, and mixed null keys with NaN
values.  Each must not raise and must keep the kernel's output schema:
the same column names as its output on a normal frame and the same
dtypes for every column but the key (a null-bearing int key arrives as
float64)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from series_correction_project_updated_ray.stages import (
    relational as R, rollup as RU, timeseries as T, tsmining as M,
    windows as W)
from series_correction_project_updated_ray.stages.joins import (
    _segment_starts, key_runs)


# --- key_runs ---------------------------------------------------------------

def _frame(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "user_id": rng.integers(0, 7, n).astype(np.int64),
        "t": rng.integers(0, 20, n).astype(np.int64),   # many ties
        "event_id": rng.integers(0, 5, n).astype(np.int64),
        "value": rng.normal(size=n)})


def test_key_runs_order_matches_lexsort_with_ties():
    g = _frame()
    codes, _ = pd.factorize(g["user_id"], sort=False)
    order = np.lexsort((g["event_id"].to_numpy(), g["t"].to_numpy(), codes))
    rows, keys, rcodes, starts, ends = key_runs(g)
    np.testing.assert_array_equal(rows.index.to_numpy(), order)
    np.testing.assert_array_equal(rcodes, codes[order])
    np.testing.assert_array_equal(keys, g["user_id"].to_numpy()[order])
    want_s, want_e = _segment_starts(codes[order])
    np.testing.assert_array_equal(starts, want_s)
    np.testing.assert_array_equal(ends, want_e)
    assert len(starts) == g["user_id"].nunique()


def test_key_runs_null_keys_one_run_sorted_first():
    g = _frame(60)
    g["user_id"] = g["user_id"].astype(np.float64)
    g.loc[g.index % 4 == 1, "user_id"] = np.nan
    rows, keys, codes, starts, ends = key_runs(g)
    n_null = int(g["user_id"].isna().sum())
    assert np.isnan(keys[:n_null]).all() and (codes[:n_null] == -1).all()
    assert not np.isnan(keys[n_null:]).any()
    assert starts[0] == 0 and ends[0] == n_null
    assert len(starts) == g["user_id"].nunique() + 1
    # the null run is in (t, event_id) order too
    t = rows["t"].to_numpy()[:n_null]
    assert (np.diff(t) >= 0).all()


def test_key_runs_keep_drops_rows():
    g = _frame(80)
    keep = g["value"].to_numpy() > 0
    rows, keys, codes, starts, ends = key_runs(g, keep=keep)
    assert len(rows) == int(keep.sum())
    assert (rows["value"].to_numpy() > 0).all()
    # codes still number the keys by first appearance in the WHOLE frame
    full, _ = pd.factorize(g["user_id"], sort=False)
    np.testing.assert_array_equal(codes, full[rows.index.to_numpy()])
    assert (np.diff(codes) >= 0).all()


def test_key_runs_empty_gives_empty_bounds():
    rows, keys, codes, starts, ends = key_runs(_frame().iloc[:0])
    assert len(rows) == len(keys) == len(codes) == 0
    assert starts.shape == ends.shape == (0,)
    rows, _, _, starts, ends = key_runs(_frame(10), keep=np.zeros(10, bool))
    assert len(rows) == 0 and starts.shape == ends.shape == (0,)


def test_key_runs_by_arrays_and_key_column():
    g = _frame(50)
    g["event_type"] = np.where(g["user_id"] % 2 == 0, "a", "b")
    neg = -g["t"].to_numpy()
    rows, keys, codes, starts, ends = key_runs(g, "event_type", (neg,))
    codes0, _ = pd.factorize(g["event_type"], sort=False)
    order = np.lexsort((neg, codes0))
    np.testing.assert_array_equal(rows.index.to_numpy(), order)
    assert set(keys[starts]) == {"a", "b"}


# --- degenerate-input battery -----------------------------------------------

_N_USERS, _PER_USER = 3, 60


def _base_table() -> pa.Table:
    """Every column any battery kernel reads: 3 users x 60 events with
    clustered hours (sessions, demand cells), repeated values (ties,
    medians), three event types and the per-block partial columns."""
    rng = np.random.default_rng(7)
    n = _N_USERS * _PER_USER
    uid = np.repeat(np.arange(1, _N_USERS + 1), _PER_USER)
    step = rng.choice([60, 600, 3600, 7200], size=n)
    t_s = 1_700_000_000 + np.cumsum(step)
    value = np.round(rng.normal(100, 60, n), 2)
    value[::7] = 250.0                      # above the hysteresis hi
    types = np.array(["click", "view", "purchase"])[rng.integers(0, 3, n)]
    return pa.table({
        "user_id": pa.array(uid, pa.int64()),
        "event_id": pa.array(np.arange(n), pa.int64()),
        "value": pa.array(value),
        "t": pa.array(t_s * 1_000_000),
        "ts": pa.array(t_s * 1_000_000, pa.timestamp("us")),
        "event_type": pa.array(types),
        "window_start": pa.array(t_s - t_s % 3600),
        "cents": pa.array((value * 100).astype(np.int64) // 500 * 500),
        "c": pa.array(rng.integers(1, 4, n)),
        "c1": pa.array(rng.integers(0, 3, n)),
        "c2": pa.array(rng.integers(0, 3, n)),
        "day": pa.array(t_s // 86400 + rng.integers(0, 2, n)),
        "h": pa.array(t_s // 3600),
        "__lr": pa.array(np.where(types == "purchase", "r", "l")),
    })


def _with_grid(g: pd.DataFrame) -> pd.DataFrame:
    return T._append_local_grid(g, 3600)


def _sided(g: pd.DataFrame) -> pd.DataFrame:
    return g.rename(columns={"__lr": "__side"})


# (id, kernel, key column, input transform)
_KERNELS = [
    ("rate_counter", T.RateCounterGroup(3600), "user_id", None),
    ("drawdown", T.DrawdownGroup(), "user_id", None),
    ("interval_coverage", T.IntervalCoverageGroup(300), "user_id", None),
    ("resample_ffill", T.ResampleFfillGroup(), "user_id", _with_grid),
    ("ewma", T.EwmaGroup(0.5), "user_id", None),
    ("lttb", T.LttbGroup(10), "user_id", None),
    ("autocorr", T.AutocorrGroup(), "user_id", None),
    ("holt", T.HoltGroup(), "user_id", None),
    ("resample_interp", T.ResampleInterpGroup(), "user_id", _with_grid),
    ("hysteresis", T.HysteresisGroup(150.0, 50.0), "user_id", None),
    ("changepoint", T.ChangepointGroup(), "user_id", None),
    ("theil_sen", T.TheilSenGroup(), "user_id", None),
    ("kalman", T.KalmanGroup(), "user_id", None),
    ("holt_winters", T.HoltWintersGroup(), "user_id", None),
    ("spectral", T.SpectralGroup(), "user_id", None),
    ("pla", T.PlaSegmentsGroup(4), "user_id", None),
    ("page_hinkley", T.PageHinkleyGroup(), "user_id", None),
    ("variance_ratio", T.VarianceRatioGroup(4), "user_id", None),
    ("ewm_bands", T.EwmBandsGroup(), "user_id", None),
    ("seasonal_decompose", T.SeasonalDecomposeGroup(4), "user_id", None),
    ("peaks", T.PeakDetectGroup(), "user_id", None),
    ("haar", T.HaarEnergyGroup(), "user_id", None),
    ("ljung_box", T.LjungBoxGroup(5), "user_id", None),
    ("sample_entropy", T.SampleEntropyGroup(2000), "user_id", None),
    ("croston", T.CrostonGroup(), "user_id", None),
    ("hurst", T.HurstRSGroup(), "user_id", None),
    ("mann_kendall", T.MannKendallGroup(), "user_id", None),
    ("spearman", T.SpearmanTrendGroup(), "user_id", None),
    ("pacf", T.PacfGroup(), "user_id", None),
    ("isotonic", T.IsotonicGroup(), "user_id", None),
    ("next_higher", T.NextHigherGroup(), "user_id", None),
    ("rsi", T.RsiGroup(), "user_id", None),
    ("sax", M.SaxGroup(4), "user_id", None),
    ("excursions", M.ExcursionGroup(150.0), "user_id", None),
    ("matrix_profile", M.MatrixProfileGroup(4), "user_id", None),
    ("sessions", W.SessionWindows(1800), "user_id", None),
    ("sliding_mean", W.SlidingMean(300), "user_id", None),
    ("asof_join", W.AsofJoinGroup(), "user_id", _sided),
    ("range_join", W.RangeJoinAggGroup(3_600_000_000), "user_id", _sided),
    ("funnel", W.FunnelGroup("click", "purchase"), "user_id", None),
    ("running_sum", W.RunningSumGroup(), "user_id", None),
    ("lag_deltas", W.LagDeltaGroup(), "user_id", None),
    ("event_sequence", W.EventSequenceGroup(), "user_id", None),
    ("time_weighted_avg", W.TimeWeightedAvgGroup(3600), "user_id", None),
    ("trend", W.TrendGroup(3600), "user_id", None),
    ("interarrival", W.InterarrivalGroup(), "user_id", None),
    ("session_cooccurrence", W.SessionCooccurrence(1800), "user_id", None),
    ("path_trigrams", W._PathTrigramPartial(), "user_id", None),
    ("grouped_median", RU.GroupedMedian(), "event_type", None),
    ("stride_downsample", RU.StrideDownsample(3), "user_id", None),
    ("grouped_quantiles", RU.GroupedQuantiles(), "event_type", None),
    ("tukey_fences", RU.TukeyFencesGroup(), "user_id", None),
    ("type_entropy", R._EntropyGroup(), "user_id", None),
    ("ks_test", R._KsGroup(), "event_type", None),
    ("mann_whitney", R._MannWhitneyGroup(), "event_type", None),
    ("streaks", R._StreakGroup(), "user_id", None),
    ("gini", R._GiniGroup(), "event_type", None),
    ("transition_entropy", R._TransitionEntropyGroup(), "user_id", None),
    ("runs_test", R._RunsTestGroup(), "user_id", None),
    ("fano", R._FanoGroup(), "user_id", None),
    ("cohort_cells", R._CohortCellsGroup(), "user_id", None),
    ("grubbs", R._GrubbsGroup(), "event_type", None),
    ("drift_chi2", R._DriftChi2Group(), "event_type", None),
    ("bigram_cells", R._BigramCellsGroup(), "user_id", None),
]


def _degenerate(t: pa.Table, key: str, case: str) -> pa.Table:
    if case == "empty":
        return t.slice(0, 0)
    if case == "one_row":
        return t.slice(0, 1)
    n = t.num_rows
    kt = t.schema.field(key).type
    if case == "all_null_keys":
        keys = pa.nulls(n, kt)
    else:                                   # mixed null keys + NaN values
        mask = np.arange(n) % 3 == 1
        keys = pa.array(np.where(mask, None, t[key].to_numpy(
            zero_copy_only=False)).tolist(), kt)
        val = t["value"].to_numpy().copy()
        val[np.arange(n) % 4 == 2] = np.nan
        t = t.set_column(t.schema.get_field_index("value"), "value",
                         pa.array(val))
    return t.set_column(t.schema.get_field_index(key), key, keys)


@pytest.mark.parametrize("case", ["empty", "one_row", "all_null_keys",
                                  "mixed_null_keys_nan_values"])
@pytest.mark.parametrize("name,kernel,key,prep", _KERNELS,
                         ids=[k[0] for k in _KERNELS])
def test_kernel_degenerate_inputs_keep_schema(name, kernel, key, prep, case):
    prep = prep or (lambda g: g)
    base = _base_table()
    want = kernel(prep(base.to_pandas()))
    assert len(want), f"{name}: the reference frame must give output rows"
    got = kernel(prep(_degenerate(base, key, case).to_pandas()))
    assert list(got.columns) == list(want.columns)
    for col in want.columns:
        if col != key:
            assert got[col].dtype == want[col].dtype, (col, got[col].dtype,
                                                       want[col].dtype)
