"""The canonical engine input: a Parquet table of pre-tokenized sequences
``(doc_id:string, tokens:list<int32>, n_tok:int32, source:string)``
(BASELINE.json input_hint).

Two ways to obtain one:

* :func:`sequences_from_documents` — derive it from the test corpus's
  ``documents`` table with the deterministic pseudo-BPE tokenizer (a
  ``map_batches`` stage; the documents table is the only sanctioned input
  data in this sandbox).
* :func:`write_synthetic_sequences` — a seeded generator producing the
  FIXTURES.md §F1 shape (log-normal-ish lengths, skewed source mix) for
  scale/bench experiments, written as partitioned Parquet under /tmp.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..functions.frames import read_parquet
from ..functions.text import tokenize_to_ids

SEQUENCES_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
])


def _tokenize_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id,text,source,…) → sequences(doc_id,tokens,n_tok,source)."""
    texts = batch["text"].to_pandas()
    sources = batch["source"].to_pandas()
    ids = batch["doc_id"].to_pandas()
    token_arrays = tokenize_to_ids(texts)
    doc_ids = (sources.astype(str) + "/" + ids.astype(str).str.zfill(8)).to_numpy(object)
    n_tok = np.fromiter((len(a) for a in token_arrays), dtype=np.int32,
                        count=len(token_arrays))
    tokens = pa.array(
        [a for a in token_arrays],
        type=pa.list_(pa.int32()))
    return pa.Table.from_arrays(
        [pa.array(doc_ids, type=pa.string()), tokens,
         pa.array(n_tok, type=pa.int32()),
         pa.array(sources.to_numpy(object), type=pa.string())],
        schema=SEQUENCES_SCHEMA)


def sequences_from_documents(sf_dir: str, *, columns=("doc_id", "text", "source")
                             ) -> "ray.data.Dataset":
    """Read documents.parquet (pruned to the needed columns) and tokenize it
    into the canonical sequences shape as a streaming map_batches stage."""
    ds = read_parquet(os.path.join(sf_dir, "documents.parquet"),
                      columns=list(columns))
    return ds.map_batches(_tokenize_batch, batch_format="pyarrow")


def _sensor_like_tokens(rng, total: int) -> np.ndarray:
    """Sensor-shaped token stream: piecewise-constant levels + noise +
    sparse outliers, quantized to token ids so the FIXTURES.md §F1 value
    derivation v = (token % 1000)/100 reconstructs a Seatek-like series
    (levels in [2,8), σ≈0.2, level shift every ~5k points, 0.1% spikes)."""
    n_segs = max(1, total // 5000)
    seg_lens = rng.multinomial(total, np.ones(n_segs) / n_segs)
    levels = rng.uniform(2.0, 8.0, n_segs)
    v = np.repeat(levels, seg_lens) + rng.normal(0, 0.2, total)
    spikes = rng.random(total) < 0.001
    v[spikes] += rng.choice([-3.0, 3.0], int(spikes.sum()))
    v = np.clip(v, 0.0, 9.99)
    return np.round(v * 100).astype(np.int32) % 1000


def write_synthetic_sequences(out_dir: str, num_docs: int, seed: int = 42,
                              rows_per_file: int = 100_000) -> str:
    """Seeded FIXTURES.md §F1 generator (for /tmp scale experiments only).

    source mix deliberately skewed (80% web / 15% books / 5% code) to
    exercise the salting path; n_tok log-normal-ish clipped to [16, 4096];
    token payload is sensor-shaped (see _sensor_like_tokens).
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    written = 0
    part = 0
    while written < num_docs:
        n = min(rows_per_file, num_docs - written)
        src = rng.choice(["web", "books", "code"], size=n, p=[0.8, 0.15, 0.05])
        n_tok = np.clip(np.exp(rng.normal(5.5, 1.0, n)), 16, 4096).astype(np.int32)
        flat = _sensor_like_tokens(rng, int(n_tok.sum()))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_tok, out=offsets[1:])
        if offsets[-1] >= 2**31:
            raise ValueError(
                "chunk token total exceeds int32 list offsets; lower "
                "rows_per_file (schema uses list<int32> per input_hint)")
        tokens = pa.ListArray.from_arrays(
            pa.array(offsets).cast(pa.int32()),
            pa.array(flat, type=pa.int32()))
        idx = np.arange(written, written + n)
        doc_id = pa.array([f"{s}/{i:08d}" for s, i in zip(src, idx)],
                          type=pa.string())
        tbl = pa.Table.from_arrays(
            [doc_id, tokens, pa.array(n_tok, type=pa.int32()),
             pa.array(src, type=pa.string())], schema=SEQUENCES_SCHEMA)
        pq.write_table(tbl, os.path.join(out_dir, f"part-{part:05d}.parquet"))
        written += n
        part += 1
    return out_dir


def write_synthetic_sequences_bucketed(out_dir: str, num_docs: int,
                                       seed: int = 42, n_files: int = 64,
                                       buckets_per_source: int = 64,
                                       chunk: int = 100_000) -> str:
    """Bucket-partitioned layout: every (source, doc-bucket) series lives
    wholly inside ONE file — the layout the retention engine itself writes,
    which lets correction+rollup run shuffle-free (see
    ``correct_and_rollup_local``).  File assignment is the same
    deterministic key the engine computes at read time."""
    from ..stages.correction import add_series_key

    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    writers: dict[int, pq.ParquetWriter] = {}
    written = 0
    try:
        while written < num_docs:
            n = min(chunk, num_docs - written)
            src = rng.choice(["web", "books", "code"], size=n,
                             p=[0.8, 0.15, 0.05])
            n_tok = np.clip(np.exp(rng.normal(5.5, 1.0, n)), 16,
                            4096).astype(np.int32)
            flat = _sensor_like_tokens(rng, int(n_tok.sum()))
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(n_tok, out=offsets[1:])
            if offsets[-1] >= 2**31:
                raise ValueError(
                    "chunk token total exceeds int32 list offsets; lower "
                    "chunk (schema uses list<int32> per input_hint)")
            tokens = pa.ListArray.from_arrays(
                pa.array(offsets).cast(pa.int32()),
                pa.array(flat, type=pa.int32()))
            idx = np.arange(written, written + n)
            doc_id = pa.array([f"{s}/{i:08d}" for s, i in zip(src, idx)],
                              type=pa.string())
            tbl = pa.Table.from_arrays(
                [doc_id, tokens, pa.array(n_tok, type=pa.int32()),
                 pa.array(src, type=pa.string())], schema=SEQUENCES_SCHEMA)
            keyed = add_series_key(tbl, buckets_per_source)
            key = keyed["series_key"].to_numpy()
            # multiplicative spread before the modulus: the raw key embeds
            # source-hash*buckets structure, so key % n_files would collapse
            # onto a fraction of the files (observed: 128 of 256)
            with np.errstate(over="ignore"):
                spread = key.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            fidx = (spread % np.uint64(n_files)).astype(np.int64)
            order = np.argsort(fidx, kind="stable")
            fidx_s = fidx[order]
            starts = np.flatnonzero(np.r_[True, fidx_s[1:] != fidx_s[:-1]])
            ends = np.r_[starts[1:], len(fidx_s)]
            for s, e in zip(starts, ends):
                fi = int(fidx_s[s])
                part_tbl = tbl.take(pa.array(order[s:e]))
                if fi not in writers:
                    writers[fi] = pq.ParquetWriter(
                        os.path.join(out_dir, f"bucket-{fi:05d}.parquet"),
                        SEQUENCES_SCHEMA)
                writers[fi].write_table(part_tbl)
            written += n
    finally:
        for w in writers.values():
            w.close()
    return out_dir


def read_sequences(path: str, num_blocks: int | None = None
                   ) -> "ray.data.Dataset":
    """num_blocks sizes the read for the downstream keyed exchange —
    ~2 blocks per CPU keeps the sort map/reduce fan balanced (measured:
    64 blocks beats both 32 and 256 at 100k docs / 32 CPUs)."""
    if num_blocks is None:
        return ray.data.read_parquet(path)
    return ray.data.read_parquet(path, override_num_blocks=num_blocks)
