"""Seeded benchmark inputs.

The generators live here, not in the engine's ``sources`` package, so an
edit there cannot change what two commits measure; every generated input
is digested and the digest is checked against the pinned table.

* Sequence corpora reproduce the FIXTURES.md §F1 shape: an 80/15/5 %
  web/books/code source mix, log-normal document lengths clipped to
  [16, 4096] tokens and scaled to a fixed total, and a sensor-shaped token
  payload (piecewise-constant levels, σ≈0.2 noise, a level shift every
  ~5 k points, 0.1 % spikes) whose value derivation ``(token % 1000) / 100``
  gives a Seatek-like series.
* Event waves are append-only batches of ``(event_type, ts, value)``:
  one sensor per event type (a level, an hourly cycle and noise), unique
  second timestamps per series, values at 0.01 resolution.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# about the mean of the clipped log-normal document length
TOKENS_PER_DOC = 390

SEQUENCES_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
])


def _sensor_tokens(rng: np.random.Generator, total: int) -> np.ndarray:
    n_segs = max(1, total // 5000)
    seg_lens = rng.multinomial(total, np.ones(n_segs) / n_segs)
    v = np.repeat(rng.uniform(2.0, 8.0, n_segs), seg_lens) \
        + rng.normal(0, 0.2, total)
    spikes = rng.random(total) < 0.001
    v[spikes] += rng.choice([-3.0, 3.0], int(spikes.sum()))
    return np.round(np.clip(v, 0.0, 9.99) * 100).astype(np.int32) % 1000


def sequence_table(seed: int, n_docs: int) -> pa.Table:
    """``n_docs`` documents holding ``n_docs * TOKENS_PER_DOC`` tokens in
    all: the lengths are drawn, then scaled to that total, so every seed
    gives the same amount of work."""
    rng = np.random.default_rng(seed)
    src = rng.choice(["web", "books", "code"], size=n_docs, p=[0.8, 0.15, 0.05])
    drawn = np.clip(np.exp(rng.normal(5.5, 1.0, n_docs)), 16, 4096)
    total = n_docs * TOKENS_PER_DOC
    n_tok = np.floor(drawn * (total / drawn.sum())).astype(np.int32)
    n_tok[rng.choice(n_docs, total - int(n_tok.sum()), replace=False)] += 1
    offsets = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(n_tok, out=offsets[1:])
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets), pa.array(_sensor_tokens(rng, int(offsets[-1]))))
    doc_id = pa.array([f"{s}/{i:08d}" for i, s in enumerate(src)])
    return pa.Table.from_arrays(
        [doc_id, tokens, pa.array(n_tok), pa.array(src)],
        schema=SEQUENCES_SCHEMA)


def table_digest(tbl: pa.Table, h=None) -> str:
    """sha256 over a table's column values (independent of file encoding)."""
    h = h or hashlib.sha256()
    for name in tbl.column_names:
        col = tbl[name].combine_chunks()
        h.update(name.encode())
        if pa.types.is_string(col.type):
            h.update("\0".join(col.to_pylist()).encode())
        elif pa.types.is_list(col.type):
            off = np.asarray(col.offsets)
            h.update((off - off[0]).tobytes())
            h.update(np.asarray(col.flatten()).tobytes())
        else:
            h.update(np.asarray(col).tobytes())
    return h.hexdigest()


def write_bucketed(out_dir: str, seed: int, n_docs: int, n_files: int,
                   buckets: int) -> dict:
    """Bucket-partitioned corpus: every series lives wholly inside one file,
    assigned by the engine's own series key (the zero-shuffle plan relies
    on that co-location)."""
    from series_correction_project_updated_ray.stages.correction import (
        add_series_key)

    tbl = sequence_table(seed, n_docs)
    key = add_series_key(tbl, buckets)["series_key"].to_numpy()
    with np.errstate(over="ignore"):
        fidx = ((key.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                % np.uint64(n_files)).astype(np.int64)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for fi in np.unique(fidx):
        path = os.path.join(out_dir, f"bucket-{fi:05d}.parquet")
        pq.write_table(tbl.filter(pa.array(fidx == fi)), path)
        files.append(path)
    h = hashlib.sha256(fidx.tobytes())
    return {"files": files, "digest": table_digest(tbl, h),
            "points": int(pc.sum(tbl["n_tok"]).as_py()),
            "series": int(len(np.unique(key))), "docs": n_docs}


def write_plain(out_dir: str, seed: int, n_docs: int, n_files: int) -> dict:
    """Unbucketed corpus split into contiguous row ranges (the general
    input that needs the groupby shuffle)."""
    tbl = sequence_table(seed, n_docs)
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, n_docs, n_files + 1).astype(int)
    files = []
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        path = os.path.join(out_dir, f"part-{i:05d}.parquet")
        pq.write_table(tbl.slice(lo, hi - lo), path)
        files.append(path)
    return {"files": files, "digest": table_digest(tbl),
            "points": int(pc.sum(tbl["n_tok"]).as_py()), "docs": n_docs}


def write_waves(out_dir: str, seed: int, n_waves: int, rows_per_wave: int,
                n_series: int, wave_seconds: int) -> dict:
    """Event waves ``wave-<i>.parquet``; wave i covers
    [i*wave_seconds, (i+1)*wave_seconds)."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    per = rows_per_wave // n_series
    files, tables = [], []
    h = hashlib.sha256()
    for w in range(n_waves):
        keys, ts, vals = [], [], []
        for s in range(n_series):
            t = np.sort(rng.choice(wave_seconds, per, replace=False)) \
                + w * wave_seconds
            # fixed level and hourly cycle per series, seeded noise: the
            # stored bytes per point barely depend on the seed
            v = 3.0 + 0.5 * s + 0.5 * np.sin(2 * np.pi * t / 3600) \
                + rng.normal(0, 0.05, per)
            keys.append(np.full(per, f"sensor-{s:02d}"))
            ts.append(t)
            vals.append(np.round(v, 2))
        ts_all = np.concatenate(ts).astype(np.int64)
        order = np.argsort(ts_all, kind="stable")
        tbl = pa.table({"event_type": np.concatenate(keys)[order],
                        "ts": ts_all[order],
                        "value": np.concatenate(vals)[order]})
        path = os.path.join(out_dir, f"wave-{w:03d}.parquet")
        pq.write_table(tbl, path)
        files.append(path)
        tables.append(tbl)
        table_digest(tbl, h)
    return {"files": files, "tables": tables, "digest": h.hexdigest(),
            "points": per * n_series * n_waves, "series": n_series}
