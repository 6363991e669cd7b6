"""Per-series correction + continuous-aggregate stages.

The engine's ONE required shuffle: sequences are hash-partitioned by
``series_key = source + '#' + (stable_hash(doc_id) % buckets)`` so a whole
series is co-located in one group (the reference kernels — CUSUM, cumulative
jump offsets — are order-dependent folds that cannot split across blocks;
SURVEY.md §7.4).  The bucket count bounds max series length, and because the
key embeds a uniform hash, hot sources spread across buckets — this is the
explicit salting story for skewed sources demanded by the north rule.

Rollup tiers (1m/1h/1d) are computed INSIDE the same group kernel by folding
1m partials upward (windows nest), so the cascade costs zero extra shuffles.

Reference parity: the value series derived from a group's token stream runs
through the exact 3-step pipeline of /root/reference/scripts/processor.py
(:540-572) via the numpy kernels in ``kernels.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import kernels as K
from ..functions.hashing import series_bucket, stable_hash_array
from .joins import each_key, partition_groups
from .taskcache import map_files

SERIES_STEP_SECONDS = 13090  # Seatek cadence (/root/reference/data/S26_Y01.txt)
TIERS = (("1m", 60), ("1h", 3600), ("1d", 86400))

ROLLUP_SCHEMA = pa.schema([
    ("series_key", pa.int64()),
    ("source", pa.string()),
    ("tier", pa.string()),
    ("window_start", pa.int64()),
    ("vmin", pa.float64()),
    ("vmax", pa.float64()),
    ("vsum", pa.float64()),
    ("vcount", pa.int64()),
    ("vmean", pa.float64()),
])


def add_series_key(batch: pa.Table, buckets_per_source: int = 64) -> pa.Table:
    """Append the int64 partitioning key: stable_hash(source) folded with the
    doc bucket.  An integer key sorts/shuffles several times faster than the
    equivalent string key at 10^12-row scale; deterministic across
    processes/nodes."""
    bucket = series_bucket(batch["doc_id"], buckets_per_source)
    src_hash = (stable_hash_array(batch["source"])
                % np.uint64(1 << 32)).astype(np.int64)
    key = src_hash * np.int64(buckets_per_source) + bucket
    return batch.append_column("series_key", pa.array(key, pa.int64()))


def tokens_to_values(flat_tokens: np.ndarray) -> np.ndarray:
    """FIXTURES.md §F1 value derivation: v = (token % 1000) / 100."""
    return (flat_tokens.astype(np.int64) % 1000).astype(np.float64) / 100.0


def _flatten_group(group: pa.Table) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """Sort the group by doc_id and return (sorted_table, flat_tokens,
    doc_offsets).  Flattening is zero-copy from Arrow list storage."""
    order = pc.sort_indices(group["doc_id"])
    group = group.take(order)
    tokens = group["tokens"].combine_chunks()
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    flat = np.asarray(tokens.values)
    offsets = np.asarray(tokens.offsets)
    return group, flat, offsets


class CorrectAndRollupGroup:
    """Fused kernel: token stream → corrected series → 3 rollup tiers.

    Accepts a batch holding ONE OR MORE whole series (it partitions by
    series_key internally), so the same class serves both execution plans:

    * general input → ``partition_groups`` on series_key (one keyed
      exchange; a block holds many whole series);
    * bucket-partitioned input (ingest layout already co-locates whole
      series per file) → plain ``map_batches(batch_size=None)`` — the
      zero-shuffle scale path.

    Emits one row per (series, tier, window); the full 3-step correction
    (gaps → outliers → jumps) runs first, so rolled-up points aggregate the
    *corrected* series — the north-star contract.
    """

    def __init__(self, config: dict | None = None,
                 step_seconds: int = SERIES_STEP_SECONDS,
                 tiers=TIERS):
        self.config = K.merge_config(config)
        self.step = step_seconds
        self.tiers = tiers

    def _one_series(self, flat: np.ndarray, out: dict, series_key: int,
                    source: str):
        v = tokens_to_values(flat)
        t = np.arange(len(v), dtype=np.int64) * self.step
        t, v = K.process_series(t, v, self.config)
        partial = None
        for name, width in self.tiers:
            partial = (K.rollup_series(t, v, width) if partial is None
                       else K.rollup_cascade(partial, width))
            n = len(partial["window_start"])
            out["series_key"].append(np.full(n, series_key, dtype=np.int64))
            out["source"].append(np.full(n, source, dtype=object))
            out["tier"].append(np.full(n, name, dtype=object))
            out["window_start"].append(partial["window_start"])
            out["vmin"].append(partial["min"])
            out["vmax"].append(partial["max"])
            out["vsum"].append(partial["sum"])
            out["vcount"].append(partial["count"].astype(np.int64))

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the map path never calls with 0 rows; the direct callers
        # (BucketFileKernel, resumable's PartitionWriter) may
        if len(batch) == 0:
            return ROLLUP_SCHEMA.empty_table()
        batch, flat, offsets = _flatten_group(batch)
        keys = batch["series_key"].to_numpy(zero_copy_only=False)
        sources = batch["source"].to_pandas().to_numpy(object)
        out = {k: [] for k in ("series_key", "source", "tier", "window_start",
                               "vmin", "vmax", "vsum", "vcount")}
        # rows are sorted by doc_id; series membership is by key — process
        # each key's docs in doc_id order (order within key preserved by
        # the stable doc sort)
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        bounds = np.flatnonzero(np.r_[True, keys_s[1:] != keys_s[:-1]])
        row_ends = np.r_[bounds[1:], len(keys_s)]
        for b, e in zip(bounds, row_ends):
            rows = order[b:e]
            flat_k = np.concatenate([flat[offsets[r]:offsets[r + 1]]
                                     for r in rows]) \
                if len(rows) else np.empty(0, np.int32)
            self._one_series(flat_k, out, int(keys_s[b]), sources[rows[0]])
        n_rows = sum(len(a) for a in out["tier"])

        def cat(name, dtype=None):
            if not n_rows:
                return np.empty(0, dtype=dtype or np.float64)
            return np.concatenate(out[name])

        vsum = cat("vsum")
        vcount = cat("vcount", np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            vmean = np.where(vcount > 0, vsum / np.maximum(vcount, 1), np.nan)
        return pa.Table.from_arrays([
            pa.array(cat("series_key", np.int64), pa.int64()),
            pa.array(cat("source", object), pa.string()),
            pa.array(cat("tier", object), pa.string()),
            pa.array(cat("window_start", np.int64), pa.int64()),
            pa.array(cat("vmin")), pa.array(cat("vmax")),
            pa.array(vsum), pa.array(vcount, pa.int64()), pa.array(vmean),
        ], schema=ROLLUP_SCHEMA)


class CorrectSequencesGroup:
    """Per-series kernel (``each_key``): outlier+jump correction mapped
    back per document.

    Runs the value-count-preserving steps (outliers, jumps — gap fill would
    insert rows that belong to no document) and returns each doc's corrected
    value array NEXT TO its untouched token array, so the per-row
    token-equality invariant is directly checkable on the output.
    """

    def __init__(self, config: dict | None = None):
        self.config = K.merge_config(config)

    def __call__(self, group: pa.Table) -> pa.Table:
        group, flat, offsets = _flatten_group(group)
        v = tokens_to_values(flat)
        cfg = self.config
        outliers = K.hampel_outliers(v, cfg["window_size"], cfg["threshold"])
        if len(outliers):
            v = K.correct_outliers(v, outliers, cfg["window_size"],
                                   cfg["outlier_method"])
        jumps = K.cusum_jumps(v, cfg["window_size"], cfg["threshold"])
        if len(jumps):
            v = K.correct_jumps(v, jumps, cfg["window_size"])
        corrected = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), pa.array(v, type=pa.float64()))
        return pa.Table.from_arrays(
            [group["doc_id"], group["tokens"], group["n_tok"], group["source"],
             group["series_key"], corrected],
            names=["doc_id", "tokens", "n_tok", "source", "series_key",
                   "corrected"])


def correct_and_rollup(sequences, *, buckets_per_source: int = 64,
                       config: dict | None = None,
                       step_seconds: int = SERIES_STEP_SECONDS):
    """sequences Dataset → rolled-up points Dataset (the flagship pipeline).

    One keyed exchange on series_key; everything else is map-side.
    """
    keyed = sequences.map_batches(
        add_series_key, batch_format="pyarrow",
        fn_kwargs={"buckets_per_source": buckets_per_source})
    return partition_groups(
        keyed, "series_key",
        CorrectAndRollupGroup(config, step_seconds=step_seconds), "pyarrow")


class BucketFileKernel:
    """Per-file fused stage for the zero-shuffle plan: the task READS its
    bucket file itself (pruned to the needed columns), derives keys, and
    runs the correct+rollup kernel — so whole-series co-location is
    guaranteed by the file boundary, not by block boundaries (Ray may
    re-slice blocks arbitrarily under ``override_num_blocks``, which would
    silently split a series), and the token payload never transits the
    object store between stages."""

    def __init__(self, buckets_per_source: int, config: dict | None,
                 step_seconds: int):
        self.buckets = buckets_per_source
        self.kernel = CorrectAndRollupGroup(config, step_seconds=step_seconds)

    def __call__(self, path: str) -> pa.Table:
        import pyarrow.parquet as pq
        tbl = pq.read_table(path, columns=["doc_id", "tokens", "source"])
        return self.kernel(add_series_key(tbl, self.buckets))


def correct_and_rollup_local(bucketed_dir_or_files, *,
                             buckets_per_source: int = 64,
                             config: dict | None = None,
                             step_seconds: int = SERIES_STEP_SECONDS):
    """Zero-shuffle plan for bucket-partitioned input (the 100 TB path).

    When the ingest layout already co-locates every series inside one file
    (one file = one series-bucket range, as the retention engine's own
    partitioned output guarantees), correction+rollup is a pure map over
    FILES: no sort, no all-to-all — the only cluster-wide movement is the
    small rollup rows.  The work unit is the file path; each task reads
    and processes whole files (series can never split)."""
    import glob as _glob
    import os as _os
    if isinstance(bucketed_dir_or_files, (list, tuple)):
        files = sorted(bucketed_dir_or_files)
    else:
        files = sorted(_glob.glob(
            _os.path.join(bucketed_dir_or_files, "*.parquet")))
    return map_files(
        files, BucketFileKernel(buckets_per_source, config, step_seconds))


def correct_sequences(sequences, *, buckets_per_source: int = 64,
                      config: dict | None = None):
    """sequences Dataset → per-doc corrected values (tokens preserved)."""
    keyed = sequences.map_batches(
        add_series_key, batch_format="pyarrow",
        fn_kwargs={"buckets_per_source": buckets_per_source})
    return each_key(keyed, "series_key", CorrectSequencesGroup(config),
                    "pyarrow")
