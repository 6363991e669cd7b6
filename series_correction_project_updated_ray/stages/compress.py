"""Segment compression stage.

``compact_segments`` is a plain per-batch function for ``map_batches``: it
turns corrected series rows ``(series_key, t, value)`` into Gorilla/
delta-of-delta compressed segments of at most ``max_points`` points, cut
on day boundaries (the retention-tier flush rule).  Segments are
self-contained, so a series whose rows land in two batches simply yields
two segments — decode-concat is lossless; only the compression ratio
varies with routing.

Output schema: one row per segment with the binary payloads and lineage
fields (n_points, t range, raw/compressed bytes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.gorilla import decode_segment, encode_segment

SEGMENT_SCHEMA = pa.schema([
    ("series_key", pa.int64()),
    ("seg_day", pa.int64()),
    ("n_points", pa.int64()),
    ("t_min", pa.int64()),
    ("t_max", pa.int64()),
    ("ts_bytes", pa.binary()),
    ("val_bytes", pa.binary()),
    ("raw_bytes", pa.int64()),
    ("compressed_bytes", pa.int64()),
])


def compact_segments(batch: pa.Table, max_points: int = 65536,
                     key_col: str = "series_key", t_col: str = "t",
                     value_col: str = "value") -> pa.Table:
    """Encode (series_key, t, value) rows into compressed segments: the
    batch is numpy-grouped, then each (series, day) run is bit-packed."""
    keys = batch[key_col].to_numpy(zero_copy_only=False)
    t = batch[t_col].to_numpy(zero_copy_only=False).astype(np.int64)
    v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    day = t // 86400
    order = np.lexsort((t, day, keys))
    keys, t, v, day = keys[order], t[order], v[order], day[order]
    boundary = np.r_[True, (keys[1:] != keys[:-1]) | (day[1:] != day[:-1])]
    starts = np.flatnonzero(boundary)
    ends = np.r_[starts[1:], len(keys)]
    rows = {name: [] for name in SEGMENT_SCHEMA.names}
    for s, e in zip(starts, ends):
        for cs in range(s, e, max_points):
            ce = min(cs + max_points, e)
            seg = encode_segment(t[cs:ce], v[cs:ce])
            rows["series_key"].append(int(keys[cs]))
            rows["seg_day"].append(int(day[cs]))
            for name in SEGMENT_SCHEMA.names[2:]:
                rows[name].append(seg[name])
    return pa.Table.from_pydict(rows, schema=SEGMENT_SCHEMA)


def decompress_segments(batch: pa.Table) -> pa.Table:
    """Inverse stage: segments → (series_key, t, value) rows."""
    out_k, out_t, out_v = [], [], []
    for i in range(len(batch)):
        seg = {"ts_bytes": batch["ts_bytes"][i].as_py(),
               "val_bytes": batch["val_bytes"][i].as_py()}
        t, v = decode_segment(seg)
        out_k.append(np.full(len(t), batch["series_key"][i].as_py(),
                             dtype=np.int64))
        out_t.append(t)
        out_v.append(v)
    if not out_k:
        return pa.table({"series_key": pa.array([], pa.int64()),
                         "t": pa.array([], pa.int64()),
                         "value": pa.array([], pa.float64())})
    return pa.table({"series_key": pa.array(np.concatenate(out_k)),
                     "t": pa.array(np.concatenate(out_t)),
                     "value": pa.array(np.concatenate(out_v))})


def compress_series(ds, *, max_points: int = 65536, concurrency=None,
                    **ray_remote_args):
    """(series_key, t, value) Dataset → compressed-segment Dataset, one
    :func:`compact_segments` task per block.

    The stage is a pure function of the batch rows, so a task whose
    worker dies is retried by Ray and replays only its own batch — a
    batch's segments materialize only on task success, so a retry can
    never double-emit (drilled in
    ``tests/test_state.py::test_compactor_actor_death_no_duplicates``)."""
    return ds.map_batches(compact_segments, batch_format="pyarrow",
                          # whole blocks as batches: the 1024-row default
                          # would fragment every (series, day) run into
                          # micro-segments — worse ratio AND ~5× slower
                          # (per-segment fixed cost dominates); block size
                          # is the segment-granularity knob
                          batch_size=None,
                          concurrency=concurrency,
                          fn_kwargs={"max_points": max_points},
                          **ray_remote_args)


def decompress_series(segments):
    return segments.map_batches(decompress_segments, batch_format="pyarrow")
