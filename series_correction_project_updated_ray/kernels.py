"""Pure-numpy per-series kernels.

These replicate — bit-for-bit where detectable — the detection/correction
semantics of the reference engine (``/root/reference/scripts/processor.py``,
``/root/reference/scripts/discontinuity_utils.py``,
``/root/reference/scripts/export_comparison_sheets.py``,
``/root/reference/updated_processor.py``) but are expressed as stateless
numpy functions over ``(t, values)`` arrays so they can run inside Ray Data
``map_batches`` / ``map_groups`` stages with zero pandas overhead.

Every function operates on ONE series (one group). State (CUSUM accumulator,
cumulative jump offsets) never crosses a series boundary, so a series must be
whole within a group — that partitioning invariant is enforced upstream by
the groupby shuffle key (see ``stages/correction.py``).

Numerical parity notes (checked by tests ported from the reference suite):

* Hampel rolling median is NaN-propagating ``np.median`` over centered
  windows padded with NaN (pad_left = w//2, pad_right = w-1-w//2)
  [processor.py:216-227].
* Rolling MAD reuses the rolling median and is computed in 50k-window chunks
  [discontinuity_utils.py:170-186]; MAD scale 1.4826; zero-MAD tier rule:
  scaled_mad < 1e-6 → z = inf iff abs_diff > threshold*1e-6 else 0
  [discontinuity_utils.py:192-200].  The comparison-sheet variant uses the
  simpler rule abs_diff > 1e-6 [export_comparison_sheets.py:140-145].
* Jump CUSUM: trailing rolling mean/std (sample std, ddof=1, full windows
  only), normalized deviation vs the *previous* window, accumulate and reset
  on |cusum| > threshold [processor.py:118-199].
* Jump offsets are computed from the ORIGINAL values for all jumps at once,
  then applied as a prefix-sum so later segments inherit earlier offsets
  [processor.py:376-401].
* Gap fill: num_missing = round((t_after-t_before)/step) - 1 with Python
  banker's rounding; inserted times via np.linspace with the time dtype
  (int64 truncates) [discontinuity_utils.py:49-91]; value interpolation is
  positional-linear with constant extrapolation at the edges — pandas
  ``interpolate(method="linear", limit_direction="both")`` ≡ ``np.interp``
  (verified empirically) [discontinuity_utils.py:151-163].
* Window medians for jump offsets and outlier replacement equal numpy
  1.26's ``np.nanmedian(rows, axis=1)`` bit for bit (``_nanmedian_rows``)
  for rows narrower than 600, the widths numpy routes through
  ``np.ma.median``; wider rows are outside the contract (the stages use
  ``window_size`` 5).  There NaN is masked and sorts last, filled as +inf
  (so a true +inf sorts among the valid values); with c non-NaN values
  the picks are the sorted ``(c-1)//2``-th and ``c//2``-th; the two picks
  are summed from +0.0 and halved, so the result is
  ``(lo + hi + 0.0) / 2`` — never -0.0, and an odd row still overflows to
  inf above half the float maximum; an all-NaN row gives NaN.
* Trailing mean/std for windows narrower than 8 are summed as shifted
  slices, ``cols[0] + 0.0`` then ``+= cols[k]`` in order: numpy's axis-1
  add reduce is a sequential sum from +0.0 below 8 elements and pairwise
  blocks from 8 on, so wider windows keep the ``sliding_window_view``
  reduce.  NaN positions match; the sign bit of a NaN made by inf - inf
  inside a window that also holds NaN is not defined by IEEE 754 (numpy's
  own add changes it with array length) and is not part of the contract.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAD_SCALE = 1.4826
GLOBAL_MAD_SCALE = 0.6745
GLOBAL_MAD_FLOOR = 1e-4
EPS = 1e-6

DEFAULT_CONFIG = {
    "window_size": 5,
    "threshold": 3.0,
    "gap_threshold_factor": 3.0,
    "gap_method": "time",
    "outlier_method": "median",
    "jump_method": "offset",
}


def merge_config(config: dict | None) -> dict:
    """Reference default merge [processor.py:468-481], minus column naming."""
    out = dict(DEFAULT_CONFIG)
    if config:
        out.update(config)
    return out


# ---------------------------------------------------------------------------
# Gap detection [processor.py:31-115]
# ---------------------------------------------------------------------------

def detect_gaps(t: np.ndarray, threshold_factor: float = 3.0) -> np.ndarray:
    """Indices of the first point *after* each gap (int64 array).

    A gap is a consecutive time diff > threshold_factor * median(diff).
    Empty result when <2 points or the median diff is non-positive.
    """
    if len(t) < 2:
        return np.empty(0, dtype=np.int64)
    diffs = np.diff(t)
    med = np.median(diffs)
    if med <= 0:
        return np.empty(0, dtype=np.int64)
    return np.where(diffs > threshold_factor * med)[0] + 1


# ---------------------------------------------------------------------------
# Hampel outlier detection [processor.py:202-276, discontinuity_utils.py:166-203]
# ---------------------------------------------------------------------------

def _median3(x, y, z):
    """Elementwise median of three arrays (min/max network, NaN-propagating
    like np.median: any NaN input → NaN output)."""
    return np.maximum(np.minimum(x, y), np.minimum(np.maximum(x, y), z))


def _median5(a, b, c, d, e):
    """Elementwise median of five arrays via the classic 6-comparison
    min/max network — no per-window materialization, ~10× less memory
    traffic than np.median over a windows matrix, NaN-propagating."""
    f = np.maximum(np.minimum(a, b), np.minimum(c, d))
    g = np.minimum(np.maximum(a, b), np.maximum(c, d))
    return _median3(e, f, g)


def _rolling_median_network(padded: np.ndarray, window_size: int,
                            n: int) -> np.ndarray:
    cols = [padded[i:i + n] for i in range(window_size)]
    if window_size == 3:
        return _median3(*cols)
    return _median5(*cols)


def rolling_median_centered(values: np.ndarray, window_size: int) -> np.ndarray:
    """NaN-propagating centered rolling median with asymmetric NaN padding.

    window_size 3/5 (the defaults everywhere) use a branch-free min/max
    median network over shifted views — zero window materialization; other
    sizes fall back to np.median over a sliding-window view."""
    pad_left = window_size // 2
    pad_right = window_size - 1 - pad_left
    padded = np.pad(values, (pad_left, pad_right), mode="constant",
                    constant_values=np.nan)
    if window_size in (3, 5):
        with np.errstate(invalid="ignore"):
            return _rolling_median_network(padded, window_size, len(values))
    windows = sliding_window_view(padded, window_shape=window_size)
    with np.errstate(invalid="ignore"):
        return np.median(windows, axis=1)


def rolling_mad_centered(values: np.ndarray, rolling_median: np.ndarray,
                         window_size: int, chunk_size: int = 50000) -> np.ndarray:
    """Chunked centered rolling MAD reusing the rolling median.

    Mirrors the 50k-window chunking of the reference (bounded peak memory:
    chunk × window floats regardless of series length).
    """
    n = len(values)
    if n < window_size:
        return np.full(n, np.nan)
    num_windows = n - window_size + 1
    pad = window_size // 2
    if window_size in (3, 5):
        # network fast path: |shifted slice − center median| per tap, then
        # the same min/max median network — no window matrix, O(w) slices
        center = rolling_median[pad:pad + num_windows]
        with np.errstate(invalid="ignore"):
            taps = [np.abs(values[i:i + num_windows] - center)
                    for i in range(window_size)]
            m = (_median3(*taps) if window_size == 3 else _median5(*taps))
        return np.pad(m, (pad, n - num_windows - pad),
                      constant_values=np.nan)
    mads = []
    for s in range(0, num_windows, chunk_size):
        e = min(s + chunk_size, num_windows)
        cw = sliding_window_view(values[s:e + window_size - 1],
                                 window_shape=window_size)
        cm = rolling_median[s + pad:e + pad, np.newaxis]
        with np.errstate(invalid="ignore"):
            mads.append(np.median(np.abs(cw - cm), axis=1))
    m = np.concatenate(mads) if mads else np.empty(0)
    return np.pad(m, (pad, n - len(m) - pad), constant_values=np.nan)


def hampel_outliers(values: np.ndarray, window_size: int = 5,
                    threshold: float = 3.0,
                    variant: str = "processor") -> np.ndarray:
    """Hampel (rolling median + MAD) outlier indices.

    variant="processor": zero-MAD tier rule z=inf iff abs_diff > threshold*1e-6
    [discontinuity_utils.py:192-200].
    variant="comparison": z=inf iff abs_diff > 1e-6
    [export_comparison_sheets.py:140-145].
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < window_size:
        return np.empty(0, dtype=np.int64)
    med = rolling_median_centered(values, window_size)
    mad = rolling_mad_centered(values, med, window_size)
    scaled = mad * MAD_SCALE
    with np.errstate(invalid="ignore", divide="ignore"):
        abs_diff = np.abs(values - med)
        if variant == "processor":
            zero_branch = np.where(
                abs_diff > EPS,
                np.where(abs_diff > threshold * EPS, np.inf, 0.0),
                0.0,
            )
        else:
            zero_branch = np.where(abs_diff > EPS, np.inf, 0.0)
        z = np.where(scaled < EPS, zero_branch, abs_diff / scaled)
        valid = ~np.isnan(med) & ~np.isnan(scaled)
    return np.where(valid & (z > threshold))[0].astype(np.int64)


# ---------------------------------------------------------------------------
# CUSUM jump detection [processor.py:118-199]
# ---------------------------------------------------------------------------

def _trailing_mean_std(values: np.ndarray, window_size: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Trailing rolling mean/std matching pandas ``rolling(w).mean()/.std()``:
    NaN for the first w-1 positions, sample std (ddof=1), NaN-in-window → NaN.

    Below 8 taps the sums run over shifted slices in numpy's own reduce
    order (see the module parity notes), with no window matrix.
    """
    n = len(values)
    mean = np.full(n, np.nan)
    std = np.full(n, np.nan)
    if n < window_size:
        return mean, std
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if window_size >= 8:
            w = sliding_window_view(values, window_shape=window_size)
            mean[window_size - 1:] = w.mean(axis=1)
            std[window_size - 1:] = w.std(axis=1, ddof=1)
            return mean, std
        m = n - window_size + 1
        cols = [values[k:k + m] for k in range(window_size)]
        s = cols[0] + 0.0
        for c in cols[1:]:
            s += c
        mu = s / window_size
        ss = np.zeros(m)
        for c in cols:
            d = c - mu
            ss += d * d
        mean[window_size - 1:] = mu
        std[window_size - 1:] = np.sqrt(ss / (window_size - 1))
    return mean, std


def cusum_deviations(values: np.ndarray, window_size: int) -> np.ndarray:
    """Normalized deviation of each point from the previous trailing window."""
    n = len(values)
    rolling_mean, rolling_std = _trailing_mean_std(values, window_size)
    mean_prev = np.roll(rolling_mean, 1)
    std_prev = np.roll(rolling_std, 1)
    valid = np.arange(n) >= window_size
    dev = np.zeros(n)
    np.subtract(values, mean_prev, out=dev, where=valid)
    out = np.zeros(n)
    with np.errstate(invalid="ignore"):
        std_mask = (std_prev > EPS) & valid & ~np.isnan(std_prev)
    np.divide(dev, std_prev, out=out, where=std_mask)
    return out  # positions failing std_mask keep normalized dev = 0


def cusum_jumps(values: np.ndarray, window_size: int = 5,
                threshold: float = 3.0) -> np.ndarray:
    """Sequential CUSUM with reset-on-detection.

    Implemented as a block-chunked vectorized scan over the prefix-sum: the
    CUSUM value after the last reset at prefix index r is
    ``prefix[i] - prefix[r]``, so the next jump is the first index where
    ``|prefix - base|`` exceeds the threshold.  Scanning fixed-size blocks
    keeps the cost at O(n + n_jumps·B) — immune to the quadratic blowup a
    full-tail rescan suffers when jumps fire densely.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < window_size * 2:
        return np.empty(0, dtype=np.int64)
    dev = cusum_deviations(values, window_size)
    start = window_size
    prefix = np.cumsum(dev[start:])
    m = len(prefix)
    # Regime probe: run the reset fold over at most the first 4096 prefix
    # values and stop at its 9th reset.  Dense regime (the CUSUM fires every
    # few points on any stationary noise, since the normalized deviations
    # form a unit random walk) → a pure-Python tight loop that touches each
    # element exactly once beats per-jump numpy slicing by ~10×; the early
    # exit keeps the probe from walking those points twice.  Sparse regime
    # (≤ 8 resets in the sample) → galloping numpy block scans skip long
    # quiet stretches at memory speed.  Both paths are exact, so the probe
    # only picks a speed.
    _b = 0.0
    _resets = 0
    for _p in prefix[:4096].tolist():
        _d = _p - _b
        if _d > threshold or _d < -threshold:
            _resets += 1
            if _resets > 8:
                break
            _b = _p
    dense = _resets > 8

    jumps = []
    base = 0.0
    if dense:
        thr = float(threshold)
        plist = prefix.tolist()
        append = jumps.append
        for i, p in enumerate(plist):
            d = p - base
            if d > thr or d < -thr:
                append(i + start)
                base = p
        return np.asarray(jumps, dtype=np.int64)

    pos = 0  # index into prefix
    while pos < m:
        B = 32
        found = False
        while pos < m:
            end = min(pos + B, m)
            exceed = np.abs(prefix[pos:end] - base) > threshold
            hit = int(np.argmax(exceed))
            if exceed[hit]:
                pos += hit
                found = True
                break
            pos = end
            B *= 8
        if not found:
            break
        jumps.append(pos + start)
        base = prefix[pos]
        pos += 1
    return np.asarray(jumps, dtype=np.int64)


def cusum_jumps_quantized(values: np.ndarray, window_size: int = 5,
                          threshold: float = 3.0,
                          scale: int = 1_000_000) -> np.ndarray:
    """CUSUM reset scan over MICRO-QUANTIZED deviations.

    Same sequential reset-on-detection fold as :func:`cusum_jumps`
    [processor.py:248-276], but each normalized deviation is rounded
    half-even to ``1/scale`` and accumulated in int64, so every
    threshold comparison is integer-exact — which makes the
    order-dependent fold replicable bit-for-bit by a SQL recursive CTE
    (the DuckDB oracle uses ``round_even(dev * scale)`` + an integer
    prefix sum; ``round_even`` == numpy's banker's rounding).
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < window_size * 2:
        return np.empty(0, dtype=np.int64)
    dev = cusum_deviations(values, window_size)
    q = np.round(dev[window_size:] * scale).astype(np.int64)
    prefix = np.cumsum(q)
    thr = int(round(threshold * scale))
    jumps = []
    base = 0
    append = jumps.append
    for i, p in enumerate(prefix.tolist()):
        d = p - base
        if d > thr or d < -thr:
            append(i + window_size)
            base = p
    return np.asarray(jumps, dtype=np.int64)


# ---------------------------------------------------------------------------
# Corrections [processor.py:279-465, discontinuity_utils.py:28-163,206-258]
# ---------------------------------------------------------------------------

def interp_positional(values: np.ndarray, method: str = "linear"
                      ) -> np.ndarray:
    """NaN fill matching pandas ``interpolate(method=…,
    limit_direction='both')`` on a positional index.

    Supported methods (the reference exposes the full pandas surface via
    its ``gap_method`` config; these cover every method meaningful on the
    numeric positional index the engine uses):
    * 'linear' / 'time' / 'index' — positional linear, constant edge
      extrapolation (≡ np.interp; 'time' falls back to linear on numeric
      data exactly like the reference, discontinuity_utils.py:151-158);
    * 'nearest' — nearest valid neighbor (tie → left, scipy convention;
      pandas itself needs scipy for this method);
    * anything else → ValueError naming the method (the reference would
      raise inside pandas for the same inputs: e.g. 'pad' is incompatible
      with limit_direction='both', spline/polynomial need scipy).
    """
    values = np.asarray(values, dtype=np.float64)
    nan_mask = np.isnan(values)
    if not nan_mask.any():
        return values
    valid = np.where(~nan_mask)[0]
    if len(valid) == 0:
        return values
    out = values.copy()
    targets = np.where(nan_mask)[0]
    if method in ("linear", "time", "index"):
        out[targets] = np.interp(targets, valid, values[valid])
    elif method == "nearest":
        pos = np.searchsorted(valid, targets)
        pos = np.clip(pos, 1, len(valid) - 1) if len(valid) > 1 else \
            np.zeros(len(targets), dtype=int)
        if len(valid) > 1:
            left, right = valid[pos - 1], valid[pos]
            nearest = np.where(targets - left <= right - targets, left, right)
        else:
            nearest = np.full(len(targets), valid[0])
        out[targets] = values[nearest]
    else:
        raise ValueError(f"unsupported gap interpolation method: {method!r}")
    return out


def gap_fill_times(t: np.ndarray, gap_indices: np.ndarray) -> np.ndarray:
    """Synthesized timestamps for every fillable gap (concatenated).

    Per gap: normal step = previous step (else following step); skip
    non-positive steps; num_missing = round(span/step)-1 (banker's); times via
    np.linspace in the time dtype.  Gaps processed descending, deduped, index
    0 skipped — ordering only affects log output in the reference; the
    returned set of times is order-independent.
    """
    n = len(t)
    new_times = []
    seen = set()
    for gap_idx in sorted(set(int(g) for g in gap_indices), reverse=True):
        if gap_idx in seen or gap_idx == 0 or gap_idx >= n:
            continue
        seen.add(gap_idx)
        i_before, i_after = gap_idx - 1, gap_idx
        t_before, t_after = t[i_before], t[i_after]
        if i_before > 0:
            step = t[i_before] - t[i_before - 1]
        elif n > i_after + 1:
            step = t[i_after + 1] - t[i_after]
        else:
            continue
        if not step > 0:
            continue
        num_missing = round(float((t_after - t_before) / step)) - 1
        if num_missing <= 0:
            continue
        start, end = t_before + step, t_after - step
        new_times.append(
            np.linspace(start, end, num=num_missing, dtype=type(t_before)))
    if not new_times:
        return np.empty(0, dtype=t.dtype)
    return np.concatenate(new_times)


def correct_gaps(t: np.ndarray, values: np.ndarray,
                 gap_indices: np.ndarray, method: str = "linear"
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Insert synthesized timestamps with NaN values, re-sort by time, and
    interpolate by ``method``.  Returns (t_out, values_out); row count
    grows by the number of inserted points."""
    values = np.asarray(values, dtype=np.float64)
    if len(gap_indices) == 0:
        return t, values
    new_times = gap_fill_times(t, gap_indices)
    if len(new_times) == 0:
        # reference still interpolates existing NaNs even when no rows insert
        return t, interp_positional(values, method)
    t_all = np.concatenate([t, new_times])
    v_all = np.concatenate([values, np.full(len(new_times), np.nan)])
    order = np.argsort(t_all, kind="stable")
    t_all, v_all = t_all[order], v_all[order]
    return t_all, interp_positional(v_all, method)


def _nanmedian_rows(rows: np.ndarray) -> np.ndarray:
    """``np.nanmedian(rows, axis=1)`` bit for bit for rows narrower than
    600, without numpy's masked-array path (rules in the module parity
    notes).

    Sorting the rows with NaN filled as +inf yields every pick numpy makes:
    the picks index the non-NaN values, and the only equal keys with
    different bytes are ±0.0 (whose sign the ``+ 0.0`` erases) and a true
    +inf tied with a fill (both read +inf).
    """
    nan = np.isnan(rows)
    cnt = rows.shape[1] - nan.sum(axis=1)
    srt = np.sort(np.where(nan, np.inf, rows), axis=1)
    r = np.arange(len(srt))
    lo, hi = srt[r, (cnt - 1) // 2], srt[r, cnt // 2]
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(cnt == 0, np.nan, (lo + hi + 0.0) / 2)


def correct_jumps(values: np.ndarray, jump_indices: np.ndarray,
                  window_size: int = 5) -> np.ndarray:
    """Offset correction: per jump, offset = nanmedian(before) - nanmedian
    (after) from ORIGINAL values; applied via cumsum so segments after later
    jumps inherit earlier offsets [processor.py:376-401].  A repeated index
    adds its offset once per occurrence."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    jumps = np.sort(np.asarray(jump_indices).astype(np.int64, copy=False))
    jumps = jumps[(jumps >= window_size) & (jumps < n - window_size)]
    if len(jumps) == 0:
        return values.copy()
    all_windows = sliding_window_view(values, window_shape=window_size)
    mb = _nanmedian_rows(all_windows[jumps - window_size])
    ma = _nanmedian_rows(all_windows[jumps])
    ok = ~(np.isnan(mb) | np.isnan(ma))
    offsets = np.zeros(n)
    np.add.at(offsets, jumps[ok], mb[ok] - ma[ok])
    return values + np.cumsum(offsets)


def correct_outliers(values: np.ndarray, outlier_indices: np.ndarray,
                     window_size: int = 5, method: str = "median") -> np.ndarray:
    """Replace outliers: median/mean of the centered 2*(w//2)+1 window with
    ALL outliers masked out first; 'interpolate' = positional linear;
    'remove' = NaN; unknown method = no-op [processor.py:407-465,
    discontinuity_utils.py:206-258]."""
    values = np.asarray(values, dtype=np.float64)
    idx = np.asarray(outlier_indices, dtype=np.int64)
    if len(idx) == 0:
        return values.copy()
    out = values.copy()
    if method == "interpolate":
        out[idx] = np.nan
        return interp_positional(out)
    if method == "remove":
        out[idx] = np.nan
        return out
    if method not in ("median", "mean"):
        return out
    calc = out.copy()
    calc[idx] = np.nan
    pad = window_size // 2
    padded = np.pad(calc, (pad, pad), mode="constant", constant_values=np.nan)
    ow = sliding_window_view(padded, window_shape=2 * pad + 1)[idx]
    if method == "median":
        repl = _nanmedian_rows(ow)
    else:
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            repl = np.nanmean(ow, axis=1)
    ok = ~np.isnan(repl)
    out[idx[ok]] = repl[ok]
    return out


# ---------------------------------------------------------------------------
# Global-MAD variant [updated_processor.py:27-54]
# ---------------------------------------------------------------------------

def global_mad_outliers(values: np.ndarray, threshold: float = 3.0
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(corrected, outlier_mask): z = 0.6745*|v-med|/max(MAD,1e-4) > thr;
    outliers replaced by the global nanmedian."""
    values = np.asarray(values, dtype=np.float64)
    med = np.nanmedian(values)
    abs_dev = np.abs(values - med)
    mad = np.nanmedian(abs_dev)
    mad = max(float(mad), GLOBAL_MAD_FLOOR)
    with np.errstate(invalid="ignore"):
        z = GLOBAL_MAD_SCALE * abs_dev / mad
        mask = z > threshold
    mask = np.where(np.isnan(z), False, mask)
    corrected = values.copy()
    corrected[mask] = med
    return corrected, mask


# ---------------------------------------------------------------------------
# Level-shift fold [apply_refined_corrections.py:21-28,167-194]
# ---------------------------------------------------------------------------

def nonzero_mean(values: np.ndarray) -> float:
    """Mean excluding NaN and exact zeros; 0.0 when nothing remains."""
    v = np.asarray(values, dtype=np.float64)
    v = v[~np.isnan(v)]
    v = v[v != 0]
    if len(v) == 0:
        return 0.0
    return float(v.mean())


def level_shift(prev_tail: np.ndarray, next_head: np.ndarray) -> float:
    """shift = nonzero_mean(last-5-of-prev) - nonzero_mean(first-5-of-next)."""
    return nonzero_mean(prev_tail) - nonzero_mean(next_head)


def level_shift_fold(segments: list[np.ndarray], min_rows: int = 5
                     ) -> tuple[list[np.ndarray], list[float]]:
    """Sequential year-boundary alignment over ordered segments of ONE
    (series, sensor).  Each segment k>0 is shifted by
    nonzero_mean(tail5 of *already-corrected* segment k-1) -
    nonzero_mean(head5 of original segment k); shifts accumulate because each
    corrected segment feeds the next boundary.  Segments shorter than
    ``min_rows`` skip their boundary (shift recorded as NaN, values
    unchanged), matching ``has_sensor_window``."""
    out: list[np.ndarray] = []
    shifts: list[float] = []
    prev: np.ndarray | None = None
    for seg in segments:
        seg = np.asarray(seg, dtype=np.float64)
        if prev is None:
            cur = seg.copy()
            shifts.append(0.0)
        elif len(prev) >= min_rows and len(seg) >= min_rows:
            s = level_shift(prev[-min_rows:], seg[:min_rows])
            cur = seg + s
            shifts.append(s)
        else:
            cur = seg.copy()
            shifts.append(float("nan"))
        out.append(cur)
        prev = cur
    return out, shifts


# ---------------------------------------------------------------------------
# Fused 3-step pipeline [processor.py:540-572]
# ---------------------------------------------------------------------------

def process_series(t: np.ndarray, values: np.ndarray,
                   config: dict | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Gaps → outliers → jumps on one sorted-or-unsorted series.

    Equivalent to reference ``process_data`` on a two-column frame with an
    explicit value column: stable-sort by t (reference uses non-stable
    quicksort; fixtures use tie-free times so order matches), then each step
    runs detect → (if any hits) correct.
    """
    cfg = merge_config(config)
    t = np.asarray(t)
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(t, kind="stable")
    t, values = t[order], values[order]

    gaps = detect_gaps(t, cfg["gap_threshold_factor"])
    if len(gaps):
        t, values = correct_gaps(t, values, gaps, cfg["gap_method"])
        order = np.argsort(t, kind="stable")
        t, values = t[order], values[order]

    outliers = hampel_outliers(values, cfg["window_size"], cfg["threshold"])
    if len(outliers):
        values = correct_outliers(values, outliers, cfg["window_size"],
                                  cfg["outlier_method"])

    jumps = cusum_jumps(values, cfg["window_size"], cfg["threshold"])
    if len(jumps):
        values = correct_jumps(values, jumps, cfg["window_size"])

    return t, values


# ---------------------------------------------------------------------------
# Tumbling-window rollup (rebuild-only; north-rule continuous aggregates)
# ---------------------------------------------------------------------------

def rollup_series(t: np.ndarray, values: np.ndarray, width: int
                  ) -> dict[str, np.ndarray]:
    """Partial aggregates per tumbling window of ``width`` over one sorted
    series: (window_start, min, max, sum, count).  NaN values are excluded
    (count counts non-NaN points; empty windows never emitted)."""
    t = np.asarray(t, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    ok = ~np.isnan(values)
    t, values = t[ok], values[ok]
    if len(t) == 0:
        z = np.empty(0)
        return {"window_start": np.empty(0, dtype=np.int64), "min": z,
                "max": z, "sum": z, "count": np.empty(0, dtype=np.int64)}
    win = t - (t % width)
    # t sorted → win sorted
    starts = np.flatnonzero(np.r_[True, win[1:] != win[:-1]])
    return {
        "window_start": win[starts],
        "min": np.minimum.reduceat(values, starts),
        "max": np.maximum.reduceat(values, starts),
        "sum": np.add.reduceat(values, starts),
        "count": np.diff(np.r_[starts, len(values)]).astype(np.int64),
    }


def rollup_cascade(partial: dict[str, np.ndarray], width: int
                   ) -> dict[str, np.ndarray]:
    """Fold finer-tier partials into a coarser tier (windows nest, so no
    re-shuffle is ever needed: 1m partials of one series fold to 1h to 1d
    locally)."""
    w = partial["window_start"]
    if len(w) == 0:
        return {k: v.copy() for k, v in partial.items()}
    coarse = w - (w % width)
    order = np.argsort(coarse, kind="stable")
    coarse = coarse[order]
    starts = np.flatnonzero(np.r_[True, coarse[1:] != coarse[:-1]])
    return {
        "window_start": coarse[starts],
        "min": np.minimum.reduceat(partial["min"][order], starts),
        "max": np.maximum.reduceat(partial["max"][order], starts),
        "sum": np.add.reduceat(partial["sum"][order], starts),
        "count": np.add.reduceat(partial["count"][order], starts),
    }
