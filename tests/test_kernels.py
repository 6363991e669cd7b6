"""Kernel parity tests.

Vectors ported from the reference suite
(/root/reference/scripts/tests/test_processor.py,
test_processor_jumps.py, test_discontinuity_utils.py,
test_updated_processor.py, test_apply_refined_corrections.py) — expected
values are the reference tests' own assertions.
"""

import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from series_correction_project_updated_ray import kernels as K


# --- Hampel outliers -------------------------------------------------------

def test_outlier_basic():
    v = [1.0, 1.1, 0.9, 1.0, 100.0, 1.2, 0.8, 1.0, 1.1, 0.9]
    assert K.hampel_outliers(np.array(v), 5, 3.0).tolist() == [4]


def test_outlier_none():
    v = [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.1, 0.9]
    assert K.hampel_outliers(np.array(v), 5, 3.0).tolist() == []


def test_outlier_short():
    assert K.hampel_outliers(np.array([1.0, 1.1, 100.0]), 5, 3.0).tolist() == []


def test_outlier_nan():
    v = [1.0, 1.1, np.nan, 1.0, 100.0, 1.2, np.nan, 1.0, 1.1, 0.9]
    assert K.hampel_outliers(np.array(v), 3, 3.0).tolist() == [4]


def test_outlier_zero_mad():
    v = [1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0]
    assert K.hampel_outliers(np.array(v), 5, 3.0).tolist() == [3]


def test_outlier_comparison_variant_matches_on_vectors():
    # Same results on the reference vectors; the variants differ only in the
    # zero-MAD epsilon tier (threshold*1e-6 vs 1e-6).
    v = np.array([1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0])
    assert K.hampel_outliers(v, 5, 3.0, variant="comparison").tolist() == [3]
    # Divergence case: abs_diff between 1e-6 and threshold*1e-6
    v2 = np.array([1.0, 1.0, 1.0, 1.0 + 2e-6, 1.0, 1.0, 1.0])
    assert K.hampel_outliers(v2, 5, 3.0, variant="processor").tolist() == []
    assert K.hampel_outliers(v2, 5, 3.0, variant="comparison").tolist() == [3]


# --- CUSUM jumps -----------------------------------------------------------

def test_jump_small():
    assert K.cusum_jumps(np.array([1.0, 2.0]), 3, 2.0).tolist() == []


def test_jump_basic():
    v = [1.0, 1.0, 1.1, 0.9, 1.0, 10.0, 10.1, 9.9, 10.0, 10.0]
    assert K.cusum_jumps(np.array(v), 3, 3.0).tolist() == [5]


def test_jump_matches_python_loop_reference():
    """Cross-check the CUSUM reset fold against a literal port of the
    reference Python loop on a random series."""
    rng = np.random.default_rng(7)
    v = rng.normal(0, 1, 500)
    v[200:] += 6.0
    v[400:] -= 4.0
    w, thr = 5, 3.0
    dev = K.cusum_deviations(v, w)
    jumps, c = [], 0.0
    for i in range(w, len(v)):
        c += dev[i]
        if abs(c) > thr:
            jumps.append(i)
            c = 0.0
    assert K.cusum_jumps(v, w, thr).tolist() == jumps


def test_jump_quantized_matches_literal_int_fold():
    """Quantized CUSUM vs a literal integer-fold port (the exact contract
    the DuckDB recursive-CTE oracle replicates)."""
    rng = np.random.default_rng(11)
    v = rng.normal(0, 1, 400)
    v[150:] += 5.0
    w, thr = 5, 3.0
    dev = K.cusum_deviations(v, w)
    q = np.round(dev[w:] * 1_000_000).astype(np.int64)
    jumps, c = [], 0
    for i, d in enumerate(q.tolist()):
        c += d
        if abs(c) > 3_000_000:
            jumps.append(i + w)
            c = 0
    assert K.cusum_jumps_quantized(v, w, thr).tolist() == jumps
    # micro-quantization does not move crossings on generic data
    assert K.cusum_jumps_quantized(v, w, thr).tolist() == \
        K.cusum_jumps(v, w, thr).tolist()


def test_jump_quantized_small_and_compose():
    assert K.cusum_jumps_quantized(np.array([1.0, 2.0]), 3, 2.0).tolist() == []
    rng = np.random.default_rng(3)
    v = rng.normal(0, 1, 120)
    v[60:] += 30.0
    jq = K.cusum_jumps_quantized(v, 5, 3.0)
    assert 60 in jq.tolist()
    out = K.correct_jumps(v, jq, 5)
    assert len(out) == len(v)
    # the +30 shelf is pulled back toward the base level
    assert abs(np.median(out[70:]) - np.median(v[:50])) < \
        abs(np.median(v[70:]) - np.median(v[:50]))


# --- gap detection ---------------------------------------------------------

def test_gap_basic():
    t = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    assert K.detect_gaps(t, 3.0).tolist() == [3]


def test_gap_none():
    assert K.detect_gaps(np.arange(1.0, 7.0), 3.0).tolist() == []


def test_gap_small():
    assert K.detect_gaps(np.array([1.0]), 3.0).tolist() == []


def test_gap_zero_median():
    assert K.detect_gaps(np.array([1.0, 1.0, 1.0, 1.0, 2.0])).tolist() == []


def test_gap_ties():
    assert K.detect_gaps(np.array([1.0, 1.0, 1.0])).tolist() == []


# --- gap fill --------------------------------------------------------------

def test_gap_fill_times_params():
    # step=10, t_before=10, t_after=40 → 2 missing at [20, 30]
    t = np.array([0, 10, 40, 50], dtype=np.int64)
    new = K.gap_fill_times(t, np.array([2]))
    assert new.tolist() == [20, 30]
    assert new.dtype == np.int64


def test_gap_fill_no_prior_uses_following_step():
    t = np.array([0, 50, 60, 70], dtype=np.int64)
    new = K.gap_fill_times(t, np.array([1]))
    # step from following = 10 → round(50/10)-1 = 4 missing at 10,20,30,40
    assert new.tolist() == [10, 20, 30, 40]


def test_gap_fill_zero_missing():
    t = np.array([0, 10, 20], dtype=np.int64)
    assert len(K.gap_fill_times(t, np.array([1]))) == 0


def test_correct_gaps_interpolates():
    t = np.array([1, 2, 3, 10, 11, 12], dtype=np.int64)
    v = np.array([1.0, 1.0, 3.0, 10.0, 10.0, 10.0])
    t2, v2 = K.correct_gaps(t, v, K.detect_gaps(t, 3.0))
    assert t2.tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    # positional-linear between v=3.0 (pos 2) and v=10.0 (pos 9)
    expected = np.interp(np.arange(12), [0, 1, 2, 9, 10, 11],
                         [1.0, 1.0, 3.0, 10.0, 10.0, 10.0])
    np.testing.assert_allclose(v2, expected)


# --- jump correction -------------------------------------------------------

def test_correct_jumps_empty():
    v = np.array([1.0, 1.1, 1.2, 1.0, 1.1])
    np.testing.assert_array_equal(K.correct_jumps(v, np.array([])), v)


def test_correct_jumps_basic():
    v = np.array([1.0] * 5 + [10.0] * 5)
    np.testing.assert_allclose(K.correct_jumps(v, [5], 2), np.ones(10))


def test_correct_jumps_multiple_offsets_from_original():
    v = np.array([1.0] * 5 + [10.0] * 5 + [5.0] * 5)
    np.testing.assert_allclose(K.correct_jumps(v, [5, 10], 2), np.ones(15))


def test_correct_jumps_boundary_ignored():
    v = np.ones(10)
    np.testing.assert_array_equal(
        K.correct_jumps(v, [0, 1, 2, 7, 8, 9], 3), v)


def test_correct_jumps_nan_windows():
    v = np.array([1.0, np.nan, 1.0, 10.0, np.nan, 10.0, 10.0, 10.0])
    out = K.correct_jumps(v, [3], 3)
    expected = np.array([1.0, np.nan, 1.0, 1.0, np.nan, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(out, expected)


# --- outlier correction ----------------------------------------------------

def test_correct_outliers_median():
    v = np.array([1.0, 1.1, 0.9, 1.0, 100.0, 1.2, 0.8, 1.0, 1.1, 0.9])
    out = K.correct_outliers(v, [4], 5, "median")
    # centered window 5 at idx 4 with outlier masked: [0.9,1.0,nan,1.2,0.8]
    assert out[4] == pytest.approx(np.nanmedian([0.9, 1.0, np.nan, 1.2, 0.8]))
    np.testing.assert_array_equal(out[:4], v[:4])


def test_correct_outliers_interpolate():
    v = np.array([1.0, 2.0, 100.0, 4.0, 5.0])
    out = K.correct_outliers(v, [2], 5, "interpolate")
    assert out[2] == pytest.approx(3.0)


def test_correct_outliers_remove():
    v = np.array([1.0, 2.0, 100.0, 4.0])
    out = K.correct_outliers(v, [2], 5, "remove")
    assert np.isnan(out[2])


def test_correct_outliers_unknown_method_noop():
    v = np.array([1.0, 2.0, 100.0, 4.0])
    np.testing.assert_array_equal(K.correct_outliers(v, [2], 5, "bogus"), v)


# --- global MAD variant ----------------------------------------------------

def test_global_mad():
    v = np.array([1.0, 1.1, 0.9, 1.0, 1.2, 100.0, 0.8, 1.0, 1.1, 0.9])
    corrected, mask = K.global_mad_outliers(v, 3.0)
    assert mask.tolist() == [False] * 5 + [True] + [False] * 4
    assert corrected[5] == pytest.approx(np.nanmedian(v))


# --- level shift -----------------------------------------------------------

def test_nonzero_mean():
    assert K.nonzero_mean(np.array([0.0, 2.0, 4.0, np.nan])) == 3.0
    assert K.nonzero_mean(np.array([0.0, 0.0])) == 0.0
    assert K.nonzero_mean(np.array([])) == 0.0


def test_level_shift_fold_aligns_constant_segments():
    # reference: prev year constant 10, next year constant 1 → next becomes 10
    segs = [np.full(5, 10.0), np.full(5, 1.0)]
    out, shifts = K.level_shift_fold(segs)
    np.testing.assert_allclose(out[1], np.full(5, 10.0))
    assert shifts == [0.0, 9.0]


def test_level_shift_fold_accumulates():
    # three segments 10 → 1 → 5: seg2 aligns to corrected seg1 (=10)
    segs = [np.full(5, 10.0), np.full(5, 1.0), np.full(5, 5.0)]
    out, _ = K.level_shift_fold(segs)
    for o in out:
        np.testing.assert_allclose(o, np.full(5, 10.0))


def test_level_shift_short_segment_skipped():
    segs = [np.full(5, 10.0), np.full(3, 1.0)]
    out, shifts = K.level_shift_fold(segs)
    np.testing.assert_allclose(out[1], np.full(3, 1.0))
    assert np.isnan(shifts[1])


# --- fused pipeline --------------------------------------------------------

def test_process_series_end_to_end():
    t = np.arange(20, dtype=np.int64)
    v = np.ones(20)
    v[7] = 100.0  # outlier
    t2, v2 = K.process_series(t, v)
    assert len(t2) == 20
    np.testing.assert_allclose(v2, np.ones(20))


def test_process_series_gap_expansion():
    t = np.array([0, 1, 2, 3, 10, 11, 12, 13], dtype=np.int64)
    v = np.ones(8)
    t2, v2 = K.process_series(t, v)
    assert t2.tolist() == list(range(14))
    np.testing.assert_allclose(v2, np.ones(14))


# --- rollup ----------------------------------------------------------------

def test_rollup_series_basic():
    t = np.array([0, 30, 60, 90, 3600], dtype=np.int64)
    v = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    r = K.rollup_series(t, v, 60)
    assert r["window_start"].tolist() == [0, 60, 3600]
    assert r["min"].tolist() == [1.0, 5.0, 9.0]
    assert r["max"].tolist() == [3.0, 7.0, 9.0]
    assert r["sum"].tolist() == [4.0, 12.0, 9.0]
    assert r["count"].tolist() == [2, 2, 1]


def test_rollup_skips_nan():
    t = np.array([0, 30], dtype=np.int64)
    v = np.array([np.nan, 2.0])
    r = K.rollup_series(t, v, 60)
    assert r["count"].tolist() == [1]
    assert r["sum"].tolist() == [2.0]


def test_rollup_cascade_matches_direct():
    rng = np.random.default_rng(3)
    t = np.sort(rng.integers(0, 200_000, 5000)).astype(np.int64)
    v = rng.normal(10, 2, 5000)
    m1 = K.rollup_series(t, v, 60)
    h_direct = K.rollup_series(t, v, 3600)
    h_cascade = K.rollup_cascade(m1, 3600)
    for k in ("window_start", "min", "max", "count"):
        np.testing.assert_array_equal(h_cascade[k], h_direct[k])
    np.testing.assert_allclose(h_cascade["sum"], h_direct["sum"], rtol=1e-12)


def test_rollup_cascade_1d():
    rng = np.random.default_rng(4)
    t = np.sort(rng.integers(0, 5_000_000, 20000)).astype(np.int64)
    v = rng.normal(0, 1, 20000)
    m1 = K.rollup_series(t, v, 60)
    h1 = K.rollup_cascade(m1, 3600)
    d1 = K.rollup_cascade(h1, 86400)
    d_direct = K.rollup_series(t, v, 86400)
    np.testing.assert_array_equal(d1["window_start"], d_direct["window_start"])
    np.testing.assert_array_equal(d1["count"], d_direct["count"])
    np.testing.assert_allclose(d1["min"], d_direct["min"])


# --- vectorized hot path: bit-exact parity with the numpy forms ------------
#
# Results are compared as raw bytes (``.view(np.uint64)``), so a -0.0 for a
# +0.0 or a different NaN fails.  Each primitive's fixture is also checked
# to catch a deliberately naive variant, so the cases stay discriminating.

def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _assert_bits_equal(got, want):
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _numpy_nanmedian_rows(rows):
    with np.errstate(invalid="ignore", over="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        return np.nanmedian(rows, axis=1)


_MEDIAN_POOL = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5,
                         1e308, -1e308, 5e-324])


def _median_rows_fixture(width):
    rng = np.random.default_rng(100 + width)
    rows = rng.choice(_MEDIAN_POOL, size=(400, width))
    special = np.array([[np.nan] * width, [-0.0] * width, [0.0] * width,
                        [1e308] * width, [np.inf] + [np.nan] * (width - 1),
                        [-0.0] + [np.nan] * (width - 1)])
    clean = np.round(rng.normal(0, 0.6, (200, width)), 0)   # ±0.0 ties
    return np.concatenate([rows, special, clean])


@pytest.mark.parametrize("width", range(1, 8))
def test_nanmedian_rows_matches_numpy_bytes(width):
    rows = _median_rows_fixture(width)
    _assert_bits_equal(K._nanmedian_rows(rows), _numpy_nanmedian_rows(rows))


def _sorted_picks(rows, fill):
    nan = np.isnan(rows)
    cnt = rows.shape[1] - nan.sum(axis=1)
    srt = np.sort(np.where(nan, fill, rows), axis=1)
    r = np.arange(len(rows))
    return srt[r, (cnt - 1) // 2], srt[r, cnt // 2], cnt


def _naive_no_zero_fix(rows):          # keeps -0.0
    lo, hi, cnt = _sorted_picks(rows, np.inf)
    return np.where(cnt == 0, np.nan, (lo + hi) / 2)


def _naive_finite_fill(rows):          # NaN sorts below a real +inf
    lo, hi, cnt = _sorted_picks(rows, np.finfo(np.float64).max)
    return np.where(cnt == 0, np.nan, (lo + hi + 0.0) / 2)


def _naive_middle_pick(rows):          # odd rows skip the (x + x) / 2 sum
    lo, hi, cnt = _sorted_picks(rows, np.inf)
    return np.where(cnt == 0, np.nan,
                    np.where(cnt % 2 == 1, lo + 0.0, (lo + hi + 0.0) / 2))


def _naive_all_nan(rows):              # an all-NaN row reads as +inf
    lo, hi, _ = _sorted_picks(rows, np.inf)
    return (lo + hi + 0.0) / 2


@pytest.mark.parametrize("naive", [_naive_no_zero_fix, _naive_finite_fill,
                                   _naive_middle_pick, _naive_all_nan])
def test_nanmedian_rows_fixture_catches_naive_variant(naive):
    with np.errstate(invalid="ignore", over="ignore"):
        caught = [not np.array_equal(
            _bits(naive(rows)), _bits(_numpy_nanmedian_rows(rows)))
            for rows in map(_median_rows_fixture, range(1, 8))]
    assert any(caught)


def _numpy_trailing_mean_std(values, window_size):
    """The sliding-window reduce form of ``K._trailing_mean_std``."""
    n = len(values)
    mean, std = np.full(n, np.nan), np.full(n, np.nan)
    if n >= window_size:
        w = sliding_window_view(values, window_shape=window_size)
        mean[window_size - 1:] = w.mean(axis=1)
        std[window_size - 1:] = w.std(axis=1, ddof=1)
    return mean, std


def _trailing_fixture(seed):
    rng = np.random.default_rng(seed)
    v = np.round(rng.normal(0, 1.5, 600), seed % 3)
    v[40:70] = -0.0                         # windows of all -0.0
    v[100:112] = 0.0
    v[150:160] = np.nan
    v[rng.random(600) < 0.02] = np.nan
    v[300:330] = 7.25                        # constant stretch, std 0
    return v


@pytest.mark.parametrize("window_size", range(2, 10))
def test_trailing_mean_std_matches_numpy_bytes(window_size):
    for seed in range(6):
        v = _trailing_fixture(seed)
        got = K._trailing_mean_std(v, window_size)
        want = _numpy_trailing_mean_std(v, window_size)
        _assert_bits_equal(got[0], want[0])
        _assert_bits_equal(got[1], want[1])


def _naive_slice_sums(values, window_size, first=lambda c: c + 0.0,
                      order=lambda cols: cols):
    m = len(values) - window_size + 1
    cols = order([values[k:k + m] for k in range(window_size)])
    s = first(cols[0])
    for c in cols[1:]:
        s = s + c
    mean = np.full(len(values), np.nan)
    mean[window_size - 1:] = s / window_size
    return mean


@pytest.mark.parametrize("window_size,naive", [
    (5, lambda v, w: _naive_slice_sums(v, w, first=np.copy)),       # -0.0
    (5, lambda v, w: _naive_slice_sums(v, w, order=lambda c: c[::-1])),
    (8, _naive_slice_sums),        # numpy switches to pairwise blocks at 8
    (9, _naive_slice_sums),
])
def test_trailing_fixture_catches_naive_variant(window_size, naive):
    caught = [not np.array_equal(
        _bits(naive(v, window_size)),
        _bits(_numpy_trailing_mean_std(v, window_size)[0]))
        for v in map(_trailing_fixture, range(6))]
    assert any(caught)


# Literal copies of the np.nanmedian-based corrections the row-median
# kernel replaced: the differential reference below.

def _reference_correct_jumps(values, jump_indices, window_size=5):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    valid_jumps = np.asarray(
        sorted(int(j) for j in jump_indices
               if window_size <= j < n - window_size), dtype=np.int64)
    if len(valid_jumps) == 0:
        return values.copy()
    out = values.copy()
    all_windows = sliding_window_view(out, window_shape=window_size)
    before = all_windows[valid_jumps - window_size]
    after = all_windows[valid_jumps]
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        mb = np.nanmedian(before, axis=1)
        ma = np.nanmedian(after, axis=1)
    ok = ~(np.isnan(mb) | np.isnan(ma))
    offsets = np.zeros(n)
    np.add.at(offsets, valid_jumps[ok], mb[ok] - ma[ok])
    return out + np.cumsum(offsets)


def _reference_correct_outliers(values, outlier_indices, window_size=5,
                                method="median"):
    values = np.asarray(values, dtype=np.float64)
    idx = np.asarray(list(outlier_indices), dtype=np.int64)
    if len(idx) == 0:
        return values.copy()
    out = values.copy()
    if method == "interpolate":
        out[idx] = np.nan
        return K.interp_positional(out)
    if method == "remove":
        out[idx] = np.nan
        return out
    if method not in ("median", "mean"):
        return out
    n = len(out)
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    calc = out.copy()
    calc[mask] = np.nan
    pad = window_size // 2
    padded = np.pad(calc, (pad, pad), mode="constant", constant_values=np.nan)
    windows = sliding_window_view(padded, window_shape=2 * pad + 1)
    ow = windows[idx]
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        repl = (np.nanmedian(ow, axis=1) if method == "median"
                else np.nanmean(ow, axis=1))
    ok = ~np.isnan(repl)
    out[idx[ok]] = repl[ok]
    return out


def _differential_series(rng, kind, n):
    """Sensor-like series: ``dense`` noise (the CUSUM fires every few
    points), ``sparse`` steps on flat stretches (a handful of resets),
    ``mixed`` with NaN runs, rounded ±0.0 values and constant stretches."""
    if kind == "sparse":
        v = np.repeat(rng.uniform(-5, 5, 6), n // 6 + 1)[:n]
        v[rng.integers(0, n, 3)] += 40.0
        return v
    v = np.round(rng.normal(0, 1, n) + np.repeat(
        rng.uniform(-3, 3, 8), n // 8 + 1)[:n], 1 if kind == "dense" else 0)
    if kind == "mixed":
        for s in rng.integers(0, n - 20, 6):
            v[s:s + rng.integers(1, 12)] = np.nan
        c = rng.integers(0, n - 60)
        v[c:c + 50] = v[c]
        v[rng.random(n) < 0.01] *= -25.0
    return v


_DIFF_CASES = [(kind, w, thr) for kind in ("dense", "sparse", "mixed")
               for w in (3, 5, 7, 9) for thr in (0.5, 3.0, 40.0)]


@pytest.mark.parametrize("kind,window_size,threshold", _DIFF_CASES)
def test_process_series_matches_nanmedian_reference(monkeypatch, kind,
                                                    window_size, threshold):
    rng = np.random.default_rng(_DIFF_CASES.index((kind, window_size, threshold)))
    cfg = {"window_size": window_size, "threshold": threshold}
    for n in (200, 1500, 5000):
        v = _differential_series(rng, kind, n)
        t = np.arange(n, dtype=np.int64) * 60
        if kind == "mixed":
            t[n // 2:] += 600          # one gap → gap fill + interpolation
        got_t, got_v = K.process_series(t, v, cfg)
        with monkeypatch.context() as m:
            m.setattr(K, "correct_jumps", _reference_correct_jumps)
            m.setattr(K, "correct_outliers", _reference_correct_outliers)
            m.setattr(K, "_trailing_mean_std", _numpy_trailing_mean_std)
            want_t, want_v = K.process_series(t, v, cfg)
        np.testing.assert_array_equal(got_t, want_t)
        _assert_bits_equal(got_v, want_v)


def _literal_fold(prefix, thr, offset):
    """The reset fold as the reference writes it, on Python numbers."""
    jumps, c = [], 0
    for i, p in enumerate(prefix.tolist()):
        if abs(p - c) > thr:
            jumps.append(i + offset)
            c = p
    return jumps


def _assert_fold(prefix, thr, offset=0):
    got = K._reset_fold(prefix, thr, offset)
    assert got.dtype == np.int64
    assert got.tolist() == _literal_fold(prefix, thr, offset)


@pytest.mark.parametrize("kind", ["dense", "sparse", "mixed"])
def test_compiled_fold_matches_python_loop(kind):
    """The compiled fold over the float and the quantized int64 prefix of
    the differential series: dense noise fires every few points, sparse
    steps a handful of times, and in ``mixed`` a NaN deviation stops
    every later crossing."""
    assert K._fold_lib(), "the compiled fold did not build"
    rng = np.random.default_rng(5)
    for n in (0, 7, 200, 5000):
        v = _differential_series(rng, kind, max(n, 61))[:n]
        for w in (3, 5, 8):
            dev = K.cusum_deviations(v, w)[w:]
            with np.errstate(invalid="ignore"):   # NaN → INT64_MIN
                q = np.cumsum(np.round(dev * 1_000_000).astype(np.int64))
            for thr in (0.5, 3.0, 50.0):
                _assert_fold(np.cumsum(dev), thr, w)
                _assert_fold(q, int(thr * 1_000_000), w)


def test_compiled_fold_special_values():
    """NaN never fires and inf - inf is NaN; an int64 difference that
    overflows is an exceedance (C would wrap it to a small one); a
    scaled threshold past int64 runs the Python loop (ctypes would
    truncate it to INT64_MIN, so every point would fire)."""
    assert K._fold_lib(), "the compiled fold did not build"
    f = np.array([0.5, np.nan, 4.0, np.inf, np.inf, -np.inf, 1e300,
                  -1e300, 1e300, 1e-9, np.nan, -4.0, -0.0, 0.0])
    for thr in (0.0, 3.0, 1e300, np.inf, np.nan):
        _assert_fold(f, thr)
    top, bot = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    q = np.array([top, bot, bot + 1, 0, top, -1, bot, top], dtype=np.int64)
    for thr in (0, 3, top, -5, 2**63, 2**64, -2**63, -2**70):
        _assert_fold(q, thr, 5)
    assert K._reset_fold(q, 3, 0).tolist() == [0, 1, 3, 4, 5, 6, 7]
    assert K._reset_fold(q, 2**63, 0).tolist() == []


@pytest.fixture
def fresh_fold_cache(tmp_path, monkeypatch):
    """An empty fold cache and no loaded fold in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(K, "_fold", None)
    return tmp_path / K.__package__


def test_fold_cold_cache_built_once_by_concurrent_processes(fresh_fold_cache):
    """Four processes start on an empty cache at once: each builds into
    its own temp file and renames it into place, so one ``.so`` is left,
    no temp file, and every process folds the same jumps."""
    code = ("import numpy as np\n"
            "from series_correction_project_updated_ray import kernels as K\n"
            "v = np.random.default_rng(3).normal(0, 1, 5000)\n"
            "assert K._fold_lib()\n"
            "print(K.cusum_jumps(v).tolist(), "
            "K.cusum_jumps_quantized(v).tolist())\n")
    root = str(Path(K.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": root}
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(4)]
    outs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0] * 4
    v = np.random.default_rng(3).normal(0, 1, 5000)
    want = f"{K.cusum_jumps(v).tolist()} {K.cusum_jumps_quantized(v).tolist()}\n"
    assert outs == [want] * 4
    files = sorted(f.name for f in fresh_fold_cache.iterdir())
    assert len(files) == 1 and files[0].endswith(".so"), files
    assert fresh_fold_cache.stat().st_mode & 0o777 == 0o700


def test_fold_warm_cache_starts_no_process(fresh_fold_cache, monkeypatch):
    v = np.random.default_rng(4).normal(0, 1, 3000)
    want = K.cusum_jumps(v)
    assert K._fold
    monkeypatch.setattr(K, "_fold", None)

    def no_process(*a, **k):
        raise AssertionError("a warm fold cache started a process")
    monkeypatch.setattr(subprocess, "Popen", no_process)
    np.testing.assert_array_equal(K.cusum_jumps(v), want)
    assert K._fold


@pytest.mark.parametrize("cause", ["no_compiler", "shared_cache_dir"])
def test_fold_fallback_is_exact_and_logged_once(fresh_fold_cache, monkeypatch,
                                                caplog, cause):
    """Without a compiler, or with a cache directory others can write, the
    Python loop folds the same jumps; one log record says so, nothing
    raises, and nothing is loaded from the shared directory."""
    rng = np.random.default_rng(6)
    series = [_differential_series(rng, kind, 3000)
              for kind in ("dense", "sparse")]
    want = [(K.cusum_jumps(v), K.cusum_jumps_quantized(v)) for v in series]
    monkeypatch.setattr(K, "_fold", None)
    if cause == "no_compiler":
        monkeypatch.setattr(K, "_FOLD_CC", ("no-such-cc",) + K._FOLD_CC[1:])
    else:
        fresh_fold_cache.chmod(0o777)
    caplog.set_level(logging.INFO, logger=K._log.name)
    for v, (j, jq) in zip(series, want):
        np.testing.assert_array_equal(K.cusum_jumps(v), j)
        np.testing.assert_array_equal(K.cusum_jumps_quantized(v), jq)
    assert K._fold is False
    assert [r.name for r in caplog.records] == [K._log.name]


@pytest.mark.parametrize("window_size", [3, 5, 7, 9])
def test_correct_jumps_matches_nanmedian_reference(window_size):
    rng = np.random.default_rng(window_size)
    for kind in ("dense", "mixed"):
        v = _differential_series(rng, kind, 3000)
        for n_jumps in (1, 40, 900):
            j = rng.integers(-5, 3005, n_jumps)
            j = np.concatenate([j, j[: n_jumps // 3]])   # duplicates
            rng.shuffle(j)
            _assert_bits_equal(K.correct_jumps(v, j, window_size),
                               _reference_correct_jumps(v, j, window_size))


@pytest.mark.parametrize("method", ["median", "mean"])
@pytest.mark.parametrize("window_size", [3, 5, 7, 9])
def test_correct_outliers_matches_nanmedian_reference(method, window_size):
    rng = np.random.default_rng(10 + window_size)
    for kind in ("dense", "mixed"):
        v = _differential_series(rng, kind, 3000)
        for n_out in (1, 60, 1200):
            idx = np.unique(rng.integers(0, 3000, n_out))
            _assert_bits_equal(
                K.correct_outliers(v, idx, window_size, method),
                _reference_correct_outliers(v, idx, window_size, method))


def test_correct_jumps_duplicate_index_applies_offset_twice():
    v = np.array([1.0] * 6 + [4.0] * 6)
    out = K.correct_jumps(v, [6, 6], 3)
    np.testing.assert_array_equal(out, np.r_[[1.0] * 6, [-2.0] * 6])
    _assert_bits_equal(out, _reference_correct_jumps(v, [6, 6], 3))


@pytest.mark.parametrize("indices", [[6], (6,), np.array([6]),
                                     np.array([6], dtype=np.int32),
                                     np.array([])])
def test_corrections_accept_index_containers(indices):
    v = np.array([1.0] * 6 + [4.0] * 6)
    v[5] = 50.0
    _assert_bits_equal(K.correct_jumps(v, indices, 3),
                       _reference_correct_jumps(v, indices, 3))
    for method in ("median", "mean"):
        _assert_bits_equal(K.correct_outliers(v, indices, 5, method),
                           _reference_correct_outliers(v, indices, 5, method))
