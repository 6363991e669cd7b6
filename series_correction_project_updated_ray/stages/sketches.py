"""Mergeable sketches for approximate aggregates at 100 TB scale.

Exact COUNT(DISTINCT) shuffles every distinct pair (see
``distinct_users``); at web scale the standard answer is a mergeable
sketch: each batch emits ONE fixed-size summary, one per-key merge folds
them, and the error is a known function of the sketch size.

Implemented from the published HyperLogLog construction (Flajolet et al.
2007, public knowledge): 2^p registers, register = max leading-zero rank
of the hashed suffix; merge = elementwise max; estimate = bias-corrected
harmonic mean with the standard small-range (linear counting) correction.
Relative error ≈ 1.04/sqrt(2^p) (~1.6% at p=12).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import stable_hash_array
from .joins import each_key


def hll_from_hashes(h: np.ndarray, p: int = 12) -> np.ndarray:
    """uint8[2^p] register array from uint64 hashes (vectorized)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(h) == 0:
        return regs
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    suffix = h << np.uint64(p)  # remaining 64-p bits at the top
    # rank = leading zeros of suffix within (64-p) bits, +1; all-zero suffix
    # → max rank (64-p+1)
    bits = np.zeros(len(h), dtype=np.int64)
    nonzero = suffix != 0
    # bit_length via log2 on floats is unsafe at 64 bits; use a loop over
    # byte nibbles — vectorized leading-zero count
    x = suffix[nonzero]
    lz = np.full(len(x), 0, dtype=np.int64)
    shift = np.uint64(32)
    cur = x.copy()
    step = 32
    while step >= 1:
        high = cur >> np.uint64(64 - step)
        zero_high = high == 0
        lz = np.where(zero_high, lz + step, lz)
        cur = np.where(zero_high, cur << np.uint64(step), cur)
        step //= 2
    rank = np.zeros(len(h), dtype=np.int64)
    rank[nonzero] = lz + 1
    rank[~nonzero] = 64 - p + 1
    rank = np.minimum(rank, 64 - p + 1)
    np.maximum.at(regs, idx, rank.astype(np.uint8))
    return regs


def hll_merge(sketches: list[np.ndarray]) -> np.ndarray:
    out = sketches[0].copy()
    for s in sketches[1:]:
        np.maximum(out, s, out=out)
    return out


def hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int((regs == 0).sum())
        if zeros:
            est = m * np.log(m / zeros)  # linear counting
    return float(est)


class HLLPartial:
    """map_batches combiner: one serialized sketch row per (key, batch)."""

    def __init__(self, key_col: str, value_col: str, p: int = 12):
        self.key_col, self.value_col, self.p = key_col, value_col, p

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_pandas().to_numpy()
        h = stable_hash_array(batch[self.value_col].to_pandas())
        rows_k, rows_s = [], []
        for k in pd.unique(keys):
            mask = keys == k
            rows_k.append(k)
            rows_s.append(hll_from_hashes(h[mask], self.p).tobytes())
        return pa.table({self.key_col: pa.array(rows_k),
                         "sketch": pa.array(rows_s, pa.binary())})


class HLLMergeGroup:
    """Per-key kernel (``each_key``): merge a key's sketches and estimate."""

    def __init__(self, key_col: str):
        self.key_col = key_col

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        regs = hll_merge([np.frombuffer(b, dtype=np.uint8)
                          for b in g["sketch"]])
        return pd.DataFrame({self.key_col: [g[self.key_col].iloc[0]],
                             "approx_distinct": [int(round(
                                 hll_estimate(regs)))]})


def approx_distinct(ds, key_col: str, value_col: str, p: int = 12):
    """Approximate per-key distinct count; shuffle moves only 4 KiB
    sketches per (key, batch)."""
    partials = ds.map_batches(HLLPartial(key_col, value_col, p),
                              batch_format="pyarrow")
    return each_key(partials, key_col, HLLMergeGroup(key_col))


# --- KLL quantile sketch ---------------------------------------------------
#
# Mergeable approximate quantiles (Karnin, Lang, Liberty 2016 — the
# construction behind Apache DataSketches' quantile sketch).  A sketch is
# a hierarchy of levels; level i holds a sorted buffer whose items each
# represent 2^i input values.  A full level compacts: keep every other
# element (alternating offset) and promote the survivors one level up.
# Merging concatenates level-wise and re-compacts.  Rank error is
# O(1/k) with k controlling total size (k=200 → ~1% of n).

KLL_K = 200
_KLL_MIN_CAP = 8


def _kll_capacity(k: int, depth_from_top: int) -> int:
    return max(_KLL_MIN_CAP, int(np.ceil(k * (2.0 / 3.0) ** depth_from_top)))


class KLLSketch:
    """Levels of float64 arrays; ``levels[i]`` has per-item weight 2^i."""

    def __init__(self, k: int = KLL_K):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]
        self.n = 0
        self._flip = 0  # deterministic alternating compaction offset

    def update_many(self, values: np.ndarray):
        v = np.asarray(values, np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return
        self.n += len(v)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()

    def merge(self, other: "KLLSketch"):
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, np.float64))
        for i, arr in enumerate(other.levels):
            if len(arr):
                self.levels[i] = np.concatenate([self.levels[i], arr])
        self.n += other.n
        self._compress()

    def _compress(self):
        while True:
            depth = len(self.levels)
            for i in range(depth):
                cap = _kll_capacity(self.k, depth - 1 - i)
                if len(self.levels[i]) > cap:
                    buf = np.sort(self.levels[i], kind="stable")
                    off = self._flip & 1
                    self._flip += 1
                    promoted = buf[off::2]
                    self.levels[i] = np.empty(0, np.float64)
                    if i + 1 == len(self.levels):
                        self.levels.append(np.empty(0, np.float64))
                    self.levels[i + 1] = np.concatenate(
                        [self.levels[i + 1], promoted])
                    break
            else:
                return

    def quantiles(self, probs) -> np.ndarray:
        items, weights = [], []
        for i, arr in enumerate(self.levels):
            if len(arr):
                items.append(arr)
                weights.append(np.full(len(arr), 1 << i, np.int64))
        if not items:
            return np.full(len(probs), np.nan)
        v = np.concatenate(items)
        w = np.concatenate(weights)
        order = np.argsort(v, kind="stable")
        v, w = v[order], w[order]
        cum = np.cumsum(w)
        total = cum[-1]
        out = np.empty(len(probs))
        for j, p in enumerate(probs):
            target = p * total
            out[j] = v[min(np.searchsorted(cum, target, side="left"),
                           len(v) - 1)]
        return out

    # fixed-layout serialization: [k, n, n_levels, len_0..len_L, data...]
    def to_bytes(self) -> bytes:
        header = np.array([self.k, self.n, len(self.levels)]
                          + [len(a) for a in self.levels], np.int64)
        return header.tobytes() + np.concatenate(
            self.levels or [np.empty(0)]).tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "KLLSketch":
        head = np.frombuffer(b, np.int64, 3)
        k, n, n_levels = int(head[0]), int(head[1]), int(head[2])
        lens = np.frombuffer(b, np.int64, n_levels, offset=24)
        data = np.frombuffer(b, np.float64, offset=24 + 8 * n_levels)
        sk = cls(k)
        sk.n = n
        sk.levels, pos = [], 0
        for ln in lens:
            sk.levels.append(data[pos:pos + ln].copy())
            pos += ln
        return sk


class KLLPartial:
    """map_batches combiner: one serialized KLL sketch per (key, batch)."""

    def __init__(self, key_col: str, value_col: str, k: int = KLL_K):
        self.key_col, self.value_col, self.k = key_col, value_col, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_pandas().to_numpy()
        vals = batch[self.value_col].to_numpy(zero_copy_only=False)
        rows_k, rows_s = [], []
        for key in pd.unique(keys):
            sk = KLLSketch(self.k)
            sk.update_many(vals[keys == key])
            rows_k.append(key)
            rows_s.append(sk.to_bytes())
        # explicit key type: an untyped pa.array([]) on an empty batch
        # would emit a null-typed column whose schema mismatches the
        # non-empty blocks'
        return pa.table({self.key_col: pa.array(rows_k,
                                                batch[self.key_col].type),
                         "sketch": pa.array(rows_s, pa.binary())})


class KLLMergeGroup:
    """Per-key kernel (``each_key``): merge one key's sketches, emit
    quantile estimates."""

    def __init__(self, key_col: str, probs):
        self.key_col, self.probs = key_col, probs

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        sk = KLLSketch.from_bytes(g["sketch"].iloc[0])
        for b in g["sketch"].iloc[1:]:
            sk.merge(KLLSketch.from_bytes(b))
        qs = sk.quantiles(self.probs)
        row = {self.key_col: [g[self.key_col].iloc[0]],
               "n": [np.int64(sk.n)]}
        for p, q in zip(self.probs, qs):
            row[f"p{int(p * 100)}"] = [q]
        return pd.DataFrame(row)


def approx_quantiles(ds, key_col: str, value_col: str,
                     probs=(0.5, 0.9, 0.99), k: int = KLL_K):
    """Approximate per-key quantiles; the shuffle moves only ~k-item
    sketches per (key, batch) instead of every value — the scale answer
    when groups are too large to co-locate for ``grouped_quantiles``."""
    partials = ds.map_batches(KLLPartial(key_col, value_col, k),
                              batch_format="pyarrow")
    return each_key(partials, key_col, KLLMergeGroup(key_col, probs))


# --- Misra-Gries heavy hitters ---------------------------------------------
#
# Mergeable frequent-items summary (Misra & Gries 1982; merge rule from
# Agarwal et al. 2012, "Mergeable Summaries"): keep ≤ k counters; an
# overflowing insert decrements all counters (conceptually), so any true
# count is underestimated by at most n/(k+1).  Merging sums counter maps
# and, if over k entries, subtracts the (k+1)-largest count from all and
# drops non-positive — the bound survives merging, making this the
# shuffle-cheap answer to "top terms over 100 TB" (exact counts for the
# survivors can be re-derived with one targeted second pass).

def mg_build(items: np.ndarray, k: int) -> dict:
    """Misra-Gries counter map (≤ k entries) of one batch — vectorized:
    exact value_counts of the batch, then the same k-largest truncation
    the merge rule applies (equivalent to streaming MG over the batch)."""
    if len(items) == 0:
        return {}
    vals, counts = np.unique(items, return_counts=True)
    if len(vals) <= k:
        return dict(zip(vals.tolist(), counts.tolist()))
    order = np.argsort(counts, kind="stable")[::-1]
    thresh = counts[order[k]]  # (k+1)-largest
    keep = order[:k]
    kept = counts[keep] - thresh
    pos = kept > 0
    return dict(zip(vals[keep][pos].tolist(), kept[pos].tolist()))


def mg_merge(a: dict, b: dict, k: int) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    if len(out) <= k:
        return out
    counts = np.sort(np.fromiter(out.values(), dtype=np.int64))[::-1]
    thresh = counts[k]
    return {key: c - thresh for key, c in out.items() if c - thresh > 0}


class MGPartial:
    """map_batches combiner: one (key, item, est) row per surviving
    counter per batch — ≤ k rows leave each batch per group key."""

    def __init__(self, key_col: str, item_col: str, k: int = 64):
        self.key_col, self.item_col, self.k = key_col, item_col, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_pandas().to_numpy()
        items = batch[self.item_col].to_pandas().to_numpy()
        rows_k, rows_i, rows_c = [], [], []
        for key in pd.unique(keys):
            for item, c in mg_build(items[keys == key], self.k).items():
                rows_k.append(key)
                rows_i.append(item)
                rows_c.append(c)
        # explicit types: empty batches must not emit null-typed columns
        return pa.table({self.key_col: pa.array(rows_k,
                                                batch[self.key_col].type),
                         self.item_col: pa.array(rows_i,
                                                 batch[self.item_col].type),
                         "est": pa.array(np.asarray(rows_c, np.int64))})


class MGMergeGroup:
    """Per-key kernel (``each_key``): fold one key's partial counter rows
    with the mergeable truncation, emit the top-n surviving (item, est)
    pairs."""

    def __init__(self, key_col: str, item_col: str, k: int, top_n: int):
        self.key_col, self.item_col = key_col, item_col
        self.k, self.top_n = k, top_n

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        acc: dict = {}
        for item, c in zip(g[self.item_col], g["est"]):
            acc = mg_merge(acc, {item: int(c)}, self.k)
        top = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:self.top_n]
        return pd.DataFrame({
            self.key_col: [g[self.key_col].iloc[0]] * len(top),
            self.item_col: [t[0] for t in top],
            "est": np.asarray([t[1] for t in top], np.int64),
        })


def heavy_hitters(ds, key_col: str, item_col: str, *, k: int = 64,
                  top_n: int = 10):
    """Approximate per-key frequent items: ≤ k counter rows per (key,
    batch) shuffle instead of the full item stream; estimates
    underestimate true counts by at most n_key/(k+1)."""
    partials = ds.map_batches(MGPartial(key_col, item_col, k),
                              batch_format="pyarrow")
    return each_key(partials, key_col, MGMergeGroup(key_col, item_col, k,
                                                    top_n))
