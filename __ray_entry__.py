"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in the library) calls ``ray.init``/``ray.shutdown``.

Every pipeline is declared once, as one row of ``REGISTRY``: its name,
the library entry point it runs (``"module:function"``, resolved at call
time so importing this module never imports Ray), the table reads it
takes and its constant arguments.  ``queries()`` is a view over the
registry whose first ``DRIVER_WINDOW`` entries are ``driver_window()``'s
pick; every SQL-expressible pipeline has a matching ``oracle_sql()``
entry whose column names and rounding exactly mirror the Ray
implementation.
"""

from __future__ import annotations

import glob
import importlib
import os
from collections.abc import Callable, Container, Iterable
from typing import Any, NamedTuple

import numpy as np
import pandas as pd

_PKG = "series_correction_project_updated_ray"


def _read(sf_dir: str, table: str, columns=None):
    from series_correction_project_updated_ray.functions.frames import (
        read_parquet)
    return read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                        columns=columns)


def entry() -> Any:
    """Flagship pipeline on sf0.001: documents → tokenized sequences →
    per-series 3-step correction → 1m/1h/1d continuous aggregates."""
    from series_correction_project_updated_ray.pipelines.flagship import flagship_rollup
    return flagship_rollup("/root/testdata/sf0.001", buckets_per_source=16)


# ---------------------------------------------------------------------------
# the registry row and its runner
# ---------------------------------------------------------------------------

class Query(NamedTuple):
    """One pipeline.  ``spec`` is ``"module:function"`` or, for a per-key
    event kernel, ``"module:KernelClass"``; a leading-dot module is
    relative to the package, and the module path is the query's family.
    Without a ``body`` the row calls the function on its ``reads`` (each
    a ``(table, columns)`` pair or an ``sf_dir -> input`` callable), then
    ``args`` and ``kwargs``; a class is built from ``args`` and
    ``kwargs`` and runs on the one read through
    ``stages.windows.run_per_key``.  With a ``body`` the row calls
    ``body(function, sf_dir, *args, **kwargs)``."""
    name: str
    spec: str
    reads: tuple = ()
    args: tuple = ()
    kwargs: dict = {}
    body: Callable | None = None

    @property
    def family(self) -> str:
        return self.spec.partition(":")[0]

    def __call__(self, sf_dir: str):
        module, _, attr = self.spec.partition(":")
        fn = getattr(importlib.import_module(module, _PKG), attr)
        if self.body is not None:
            return self.body(fn, sf_dir, *self.args, **self.kwargs)
        inputs = [r(sf_dir) if callable(r) else _read(sf_dir, *r)
                  for r in self.reads]
        if isinstance(fn, type):
            from series_correction_project_updated_ray.stages.windows import (
                run_per_key)
            return run_per_key(*inputs, fn(*self.args, **self.kwargs))
        return fn(*inputs, *self.args, **self.kwargs)


def _q(name, spec, /, *reads, args=(), body=None, **kwargs) -> Query:
    return Query(name, spec, reads, args, kwargs, body)


# ---------------------------------------------------------------------------
# shared reads and constants
# ---------------------------------------------------------------------------

EV_SERIES = ("events", ["user_id", "event_id", "ts", "value"])
EV_SESSION = ("events", ["user_id", "event_id", "ts"])
EV_PATH = ("events", ["user_id", "event_id", "ts", "event_type"])
EV_TRANSITIONS = ("events", ["user_id", "event_id", "event_type", "ts"])
EV_USER_TS = ("events", ["user_id", "ts"])
EV_USER_TS_VALUE = ("events", ["user_id", "ts", "value"])
EV_USER_VALUE = ("events", ["user_id", "value"])
EV_TYPE_TS_VALUE = ("events", ["event_type", "ts", "value"])
EV_TYPE_VALUE = ("events", ["event_type", "value"])
EV_TYPE_USER = ("events", ["event_type", "user_id"])
EV_ID_TYPE_VALUE = ("events", ["event_id", "event_type", "value"])
DOCS = ("documents", ["doc_id", "text"])
DOCS_SRC = ("documents", ["doc_id", "source", "text"])
DOCS_SRC_TEXT = ("documents", ["source", "text"])
DOCS_TEXT = ("documents", ["text"])
EMB = ("embeddings", ["vec_id", "embedding"])
LI_JOIN = ("lineitem",
           ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"])
LI_OP = ("lineitem", ["l_orderkey", "l_partkey"])
LI_QTY = ("lineitem", ["l_orderkey", "l_quantity"])
LI_SHIP = ("lineitem", ["l_orderkey", "l_shipdate"])
ORDERS_JOIN = ("orders", ["o_orderkey", "o_custkey", "o_totalprice"])
ORDERS_CUST = ("orders", ["o_orderkey", "o_custkey"])
ORDERS_PRIO = ("orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
ORDERS_CUST_PRIO = ("orders", ["o_custkey", "o_orderpriority"])
CUST_NAME = ("customer", ["c_custkey", "c_name"])
CUST_NATION = ("customer", ["c_custkey", "c_nationkey"])
NATION = ("nation", ["n_nationkey", "n_name"])

RETENTION_CUTOFF = 1705276800  # 2024-01-15T00:00:00Z — fixed, deterministic
PRICING_CUTOFF = "1998-09-02"
Q3_CUTOFF = "1998-06-01"
EVENT_TYPES = ["click", "view", "signup", "purchase", "error"]
PACK_SEQ_LEN = 512
PACK_BUCKETS = 16


# ---------------------------------------------------------------------------
# inputs that are not plain table reads
# ---------------------------------------------------------------------------

def _query_vector(sf_dir: str):
    """Deterministic query vector: embedding of vec_id == 0 (one-row
    predicate-pushdown read, driver-side)."""
    import pyarrow.dataset as pads
    tbl = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id") == 0)
    if tbl.num_rows == 0:
        raise ValueError(f"no embedding with vec_id 0 in {sf_dir} to query")
    return np.asarray(tbl["embedding"][0].as_py(), dtype=np.float64)


def _seatek_fixture_dir() -> str:
    """Deterministic Seatek wide-file corpus under /tmp (FIXTURES.md §F2) —
    the sf tables carry no Seatek files, so the compat pipelines generate
    their fixture input once and reuse it."""
    from series_correction_project_updated_ray.sources.seatek import (
        write_seatek_fixture)
    d = "/tmp/graft_seatek_fixture"
    marker = os.path.join(d, "_DONE")
    if not os.path.exists(marker):
        import shutil
        shutil.rmtree(d, ignore_errors=True)  # partial fixture from a crash
        write_seatek_fixture(d, series_ids=("26", "27"), n_years=3, rows=120)
        with open(marker, "w") as f:
            f.write("ok")
    return d


def _tokenized_docs(sf_dir: str):
    """documents → (doc_id, tokens:list<int32>) via the deterministic
    pseudo-BPE tokenizer (the flagship's sequences payload)."""
    import pyarrow as pa
    from series_correction_project_updated_ray.functions.text import (
        tokenize_to_ids)

    def _tok(batch: pa.Table) -> pa.Table:
        toks = tokenize_to_ids(batch["text"].to_pandas())
        flat = (np.concatenate(toks) if toks else
                np.empty(0, np.int32)).astype(np.int32)
        offsets = np.zeros(len(toks) + 1, dtype=np.int32)
        np.cumsum([len(t) for t in toks], out=offsets[1:])
        return pa.table({
            "doc_id": batch["doc_id"],
            "tokens": pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                               pa.array(flat, pa.int32())),
        })

    return _read(sf_dir, *DOCS).map_batches(_tok, batch_format="pyarrow")


def _poly_tokenized(sf_dir: str):
    """documents → (doc_id, tokens:list<int32>) with POLYNOMIAL token
    ids (the SimHash / text-fingerprint rolling hash % TOKEN_VOCAB) —
    the SQL-replicable tokenizer shared by the packing, vocab-stats and
    bigram oracles.  The flagship sequences pipelines keep the pd-hash
    tokenizer (same downstream operators either way)."""
    import pyarrow as pa
    from series_correction_project_updated_ray.functions.hashing import (
        TOKEN_VOCAB)
    from series_correction_project_updated_ray.functions.text import (
        BPE_RE, rolling_fingerprint)

    def _tok(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas()
        tok_lists = [BPE_RE.findall(t or "") for t in texts]
        flat = pd.Series([tok for ts in tok_lists for tok in ts],
                         dtype=object)
        hashes = rolling_fingerprint(flat) if len(flat) else \
            np.empty(0, np.uint64)
        ids = (hashes % np.uint64(TOKEN_VOCAB)).astype(np.int32)
        bounds = np.cumsum([0] + [len(ts) for ts in tok_lists])
        toks = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()), pa.array(ids, pa.int32()))
        return pa.table({"doc_id": batch["doc_id"], "tokens": toks})

    return _read(sf_dir, *DOCS).map_batches(_tok, batch_format="pyarrow")


def _distinct_users_of_type(ev, typ, min_value=None):
    """Distinct user_ids having an event of ``typ`` (optionally value >
    min_value): batch-local unique → global distinct ``combine``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from series_correction_project_updated_ray.stages.rollup import combine

    def _local(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], typ)
        if min_value is not None:
            keep = pc.and_(keep, pc.greater(t["value"], min_value))
        return pa.table({"user_id": pc.unique(t.filter(keep)["user_id"])})

    return combine(ev.map_batches(_local, batch_format="pyarrow"),
                   ["user_id"], [])


# ---------------------------------------------------------------------------
# query bodies: pipelines that are more than one library call.  Each takes
# the function its registry row names, then sf_dir and the row's arguments.
# ---------------------------------------------------------------------------

def _on_sf_dir(fn, sf_dir: str, **kw):
    return fn(sf_dir, **kw)


def _broadcast_enrich(broadcast_enrich, sf_dir: str):
    orders = _read(sf_dir, *ORDERS_JOIN)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    out = broadcast_enrich(orders, cust, "o_custkey", "c_custkey",
                           {"c_mktsegment": "c_mktsegment"})
    return out.select_columns(["o_orderkey", "o_totalprice", "c_mktsegment"])


def _summary_by_source(read_parquet, sf_dir: str):
    from series_correction_project_updated_ray.stages.rollup import combine
    docs = read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["source", "n_chars"])
    return combine(docs, ["source"], [
        ([], "count_all", "n_docs"), ("n_chars", "sum", "total_chars"),
        ("n_chars", "min", "min_chars"), ("n_chars", "max", "max_chars")])


def _corrected_sequences(flagship_corrected, sf_dir: str):
    """Scalar projection of the corrected-sequences output (list columns
    summarized so the result hashes cleanly): per-doc corrected-value sum
    plus a token checksum proving the token-equality invariant."""
    import pyarrow as pa
    ds = flagship_corrected(sf_dir, buckets_per_source=16)

    def _project(batch: pa.Table) -> pa.Table:
        from series_correction_project_updated_ray.functions.rounding import (
            round_half_away)
        corr = batch["corrected"].combine_chunks()
        tok = batch["tokens"].combine_chunks()
        co, cv = np.asarray(corr.offsets), np.asarray(corr.values)
        to, tv = np.asarray(tok.offsets), np.asarray(tok.values, dtype=np.int64)

        def seg_sums(offsets, values, dtype):
            starts = offsets[:-1].astype(np.int64)
            out = np.zeros(len(starts), dtype=dtype)
            nonempty = offsets[1:] > offsets[:-1]
            if nonempty.any():
                out[nonempty] = np.add.reduceat(values, starts[nonempty])
            return out

        sums = round_half_away(seg_sums(co, cv, np.float64), 6)
        tsums = seg_sums(to, tv, np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tok": batch["n_tok"],
            "token_sum": pa.array(tsums),
            "corrected_sum": pa.array(sums),
        })

    return ds.map_batches(_project, batch_format="pyarrow")


def _compressed_segments(compress_series, sf_dir: str):
    """Corrected per-user event series → Gorilla/delta-of-delta segments
    (actor-pool stage); returns segment lineage metadata (binary payloads
    dropped for hashing)."""
    from series_correction_project_updated_ray.stages.events_series import (
        corrected_series)
    corr = corrected_series(_read(sf_dir, *EV_SERIES))
    renamed = corr.map_batches(
        lambda df: df.rename(columns={"user_id": "series_key",
                                      "value_corrected": "value"})[
            ["series_key", "t", "value"]],
        batch_format="pandas")
    segs = compress_series(renamed, max_points=8192)
    return segs.select_columns(["series_key", "seg_day", "n_points",
                                "raw_bytes", "compressed_bytes"])


def _simhash(stage, sf_dir: str):
    from series_correction_project_updated_ray.stages.taskcache import (
        class_task)
    return _read(sf_dir, *DOCS).map_batches(
        class_task(stage), batch_format="pyarrow"
    ).select_columns(["doc_id", "simhash"])


def _seatek_correct(batch_correct, sf_dir: str):
    return batch_correct(_seatek_fixture_dir()).select_columns(
        ["series", "year_idx", "Time (Seconds)", "Value2", "status"])


def _seatek_summary(summarize, sf_dir: str):
    from series_correction_project_updated_ray.pipelines.seatek_compat import (
        batch_correct)
    return summarize(batch_correct(_seatek_fixture_dir()))


def _seatek_all_sensors(correct_all_sensors, sf_dir: str):
    """Intended-semantics correction: every (series, year, sensor) series
    corrected independently over the real timestamps."""
    ds = correct_all_sensors(_seatek_fixture_dir())
    return ds.map_batches(lambda df: df.round({"value_corrected": 6}),
                          batch_format="pandas")


def _seatek_level_shifts(apply_level_shifts, sf_dir: str):
    from series_correction_project_updated_ray.sources.seatek import read_seatek
    long_ds = read_seatek(_seatek_fixture_dir(), mode="long")
    yty = pd.DataFrame({
        "Year_Pair": ["1995 (Y01) to 1996 (Y02)", "1996 (Y02) to 1997 (Y03)"],
        **{f"Sensor {i}": [0.0, 0.0] for i in range(1, 33)}})
    yty["Sensor 3"] = [2.5, -1.4]
    shifted, _ = apply_level_shifts(long_ds, yty)
    return shifted.map_batches(
        lambda df: df.round({"value_shifted": 6, "shift_log": 6}),
        batch_format="pandas")


def _seatek_comparison(export_comparisons, sf_dir: str):
    from series_correction_project_updated_ray.pipelines.seatek_compat import (
        batch_correct)
    from series_correction_project_updated_ray.sources.seatek import read_seatek
    d = _seatek_fixture_dir()
    raw = read_seatek(d, mode="compat")
    corrected = batch_correct(d).drop_columns(["status"])
    return export_comparisons(raw, corrected).select_columns(
        ["series", "year_idx", "Time (Seconds)", "Value2_raw",
         "Value2_processed", "Outlier_Flag"])


def _seatek_file_stats(per_file_summary, sf_dir: str):
    from series_correction_project_updated_ray.sources.seatek import read_seatek
    return per_file_summary(read_seatek(_seatek_fixture_dir(), mode="compat"))


def _join_li_orders(join, sf_dir: str, **kw):
    """lineitem ⋈ orders on the order key through one physical join plan;
    every plan returns the same rows, so one oracle certifies them all."""
    j = join(_read(sf_dir, *LI_JOIN), _read(sf_dir, *ORDERS_JOIN),
             "l_orderkey", "o_orderkey", **kw)
    return j.select_columns(["l_orderkey", "l_linenumber", "l_quantity",
                             "l_extendedprice", "o_custkey", "o_totalprice"])


def _user_type_totals_join(hash_join, sf_dir: str):
    """Composite-key hash join: every event row enriched with its
    (user_id, event_type) group totals.  The grouped side is built with
    a partial-first aggregate (one keyed shuffle of group partials) and
    joins back to the fact table on BOTH key columns through the
    multi-column bucket hash — the equi-join shape reference J1 uses on
    (series, year) pairs (/root/reference/scripts/comparison.py)."""
    from series_correction_project_updated_ray.functions.rounding import (
        round_half_away)
    from series_correction_project_updated_ray.stages.rollup import combine
    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "value"])
    grouped = combine(ev, ["user_id", "event_type"], [
        ("value", "sum", "type_total"), ([], "count_all", "type_count")])

    def _round_total(batch):
        batch["type_total"] = round_half_away(
            batch["type_total"].to_numpy(np.float64), 6)
        return batch

    grouped = grouped.map_batches(_round_total, batch_format="pandas")
    j = hash_join(ev, grouped, ["user_id", "event_type"],
                  ["user_id", "event_type"], how="inner")
    return j.select_columns(["event_id", "user_id", "event_type", "value",
                             "type_total", "type_count"])


def _distinct_users(read_parquet, sf_dir: str):
    """COUNT(DISTINCT) via partial distinct: batch-local dedup →
    distinct pairs → per-type count — only distinct pairs shuffle."""
    import pyarrow as pa
    from series_correction_project_updated_ray.functions.frames import (
        arrow_table)
    from series_correction_project_updated_ray.stages.rollup import combine
    ev = read_parquet(os.path.join(sf_dir, "events.parquet"),
                      columns=["event_type", "user_id"])

    def _local_distinct(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        return arrow_table(df)

    pairs = combine(ev.map_batches(_local_distinct, batch_format="pyarrow"),
                    ["event_type", "user_id"], [])
    return combine(pairs, ["event_type"], [([], "count_all", "n_users")])


def _top_users(topk_by, sf_dir: str):
    """Global top-10 users by total value: grouped sum → distributed
    ``topk_by`` (per-block partial top-k, ≤ k×blocks survivor rows, one
    tiny final block) — never a driver-side sort of all |users| sums."""
    from series_correction_project_updated_ray.functions.rounding import (
        round_half_away)
    from series_correction_project_updated_ray.stages.rollup import combine
    sums = combine(_read(sf_dir, *EV_USER_VALUE), ["user_id"],
                   [("value", "sum", "total_value")])
    # reindex: 0 events give a column-less frame
    top = topk_by(sums, ["total_value", "user_id"], [True, False], 10) \
        .to_pandas().reindex(columns=["user_id", "total_value"])
    top["total_value"] = round_half_away(top["total_value"].to_numpy(), 6)
    return top.reset_index(drop=True)


def _filter_pushdown(read_parquet, sf_dir: str):
    """Predicate+projection pushdown read: only matching row groups and the
    three needed columns leave storage."""
    import pyarrow.compute as pc
    # the pyarrow filter expression is applied exactly per row during the
    # scan in this Ray version — no residual predicate stage needed
    return read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "value"],
        filter=(pc.field("value") > 50.0))


def _rollup_retention(rollup_events, sf_dir: str):
    """1m rollup with the retention filter applied (windows >= cutoff)."""
    from series_correction_project_updated_ray.stages.rollup import (
        apply_retention)
    ev = _read(sf_dir, *EV_TYPE_TS_VALUE)
    return apply_retention(rollup_events(ev, key_col="event_type", width=60),
                           RETENTION_CUTOFF)


def _downsample_stride(downsample_stride, sf_dir: str):
    """Every-10th-point decimation per user (ts, event_id order)."""
    return downsample_stride(_read(sf_dir, *EV_SERIES), n=10).select_columns(
        ["user_id", "event_id", "value"])


def _building_orders(semi_join, sf_dir: str, **kw):
    """Broadcast semi-join (anti=True: anti-join) of orders against the
    BUILDING-segment customers."""
    import pyarrow.compute as pc
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    building = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow")
    return semi_join(_read(sf_dir, *ORDERS_JOIN), building, "o_custkey",
                     right_key="c_custkey", **kw
                     ).select_columns(["o_orderkey", "o_custkey",
                                       "o_totalprice"])


def _resumable_rollup(run_resumable, sf_dir: str):
    """Checkpointed flagship over a deterministic synthetic sequences dir;
    returns the per-partition lineage manifest (wall-clock fields dropped
    so the result is value-stable)."""
    import shutil
    from series_correction_project_updated_ray.sources.sequences import (
        write_synthetic_sequences)
    src = "/tmp/graft_resumable_src"
    marker = os.path.join(src, "_DONE")
    if not os.path.exists(marker):
        shutil.rmtree(src, ignore_errors=True)  # partial corpus from a crash
        write_synthetic_sequences(src, 2000, seed=17, rows_per_file=500)
        with open(marker, "w") as f:
            f.write("ok")
    out = "/tmp/graft_resumable_out"
    shutil.rmtree(out, ignore_errors=True)  # idempotent per invocation
    m = run_resumable(src, out, n_partitions=8, buckets_per_source=8,
                      step_seconds=1)
    return m[["part_id", "rows_in", "rows_out", "status"]] \
        .sort_values("part_id").reset_index(drop=True)


def _media_frames(sample_frames, sf_dir: str):
    """Frame-sampling fan-out stage over the fake media corpus (frame
    payloads summarized to lengths so the result hashes cleanly)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from series_correction_project_updated_ray.stages.multimodal import (
        synth_media_table)
    frames = sample_frames(ray.data.from_arrow(synth_media_table(256)),
                           stride=4)
    # binary_length reads the arrow offsets zero-copy — materializing
    # every payload as Python bytes just to measure it would dominate
    # this fan-out stage
    return frames.map_batches(
        lambda t: pa.table({
            "media_id": t["media_id"],
            "frame_idx": t["frame_idx"],
            "frame_bytes": pc.cast(pc.binary_length(t["frame"]),
                                   pa.int64()),
        }), batch_format="pyarrow")


def _media_features(media_features, sf_dir: str):
    """Multimodal actor-pool stage over the deterministic fake media corpus
    (decode stubbed — libraries absent; plumbing real).  Returns scalar
    projections of the embeddings so the result hashes cleanly."""
    import pyarrow as pa
    import ray.data
    from series_correction_project_updated_ray.stages.multimodal import (
        synth_media_table)
    ds = ray.data.from_arrow(synth_media_table(256))
    feats = media_features(ds)

    def _proj(batch: pa.Table) -> pa.Table:
        from series_correction_project_updated_ray.stages.multimodal import (
            MediaFeatureExtractor)
        # explicit feature dim: reshape(0, -1) on an empty block raises
        emb = np.asarray(batch["embedding"].combine_chunks().flatten(),
                         dtype=np.float64) \
            .reshape(-1, MediaFeatureExtractor.FEATURE_DIM)
        return pa.table({
            "media_id": batch["media_id"],
            "media_type": batch["media_type"],
            "emb_norm": pa.array(np.round(np.linalg.norm(emb, axis=1), 4)),
        })

    return feats.map_batches(_proj, batch_format="pyarrow")


def _pricing_summary(pricing_summary, sf_dir: str):
    """TPC-H-Q1-style exact-arithmetic pricing summary (scaled-int sums;
    shipdate predicate pushed into the parquet scan)."""
    import pyarrow.compute as pc
    from series_correction_project_updated_ray.functions.frames import (
        read_parquet)
    li = read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
        filter=(pc.field("l_shipdate") <=
                pc.scalar(np.datetime64(PRICING_CUTOFF, "us"))))
    return pricing_summary(li)


def _vector_stats(round_half_away, sf_dir: str):
    """List-column (vector) scalar functions: per-row dim / L2 norm /
    mean over the embedding array, fully vectorized (one matrix op per
    batch — no per-row Python)."""
    import pyarrow as pa

    def _stats(t: pa.Table) -> pa.Table:
        emb = t["embedding"].combine_chunks()
        vals = np.asarray(emb.values, dtype=np.float64)
        offs = np.asarray(emb.offsets)
        dims = (offs[1:] - offs[:-1]).astype(np.int64)
        M = vals.reshape(len(dims), dims[0]) if len(dims) and \
            (dims == dims[0]).all() else None
        if M is not None:
            l2 = np.sqrt((M * M).sum(axis=1))
            mean = M.sum(axis=1) / dims
        else:
            # ragged fallback: reduceat mis-handles empty segments (it
            # returns the NEXT segment's head, and errors on a trailing
            # empty) — mask them, same pattern as seg_sums above
            starts = offs[:-1].astype(np.int64)
            nonempty = dims > 0
            sq = np.zeros(len(dims))
            sm = np.zeros(len(dims))
            if nonempty.any():
                sq[nonempty] = np.add.reduceat(vals * vals,
                                               starts[nonempty])
                sm[nonempty] = np.add.reduceat(vals, starts[nonempty])
            l2 = np.sqrt(sq)
            mean = sm / np.maximum(dims, 1)
        return pa.table({
            "vec_id": t["vec_id"],
            "dim": pa.array(dims),
            "l2_norm": pa.array(round_half_away(l2, 6)),
            "vmean": pa.array(round_half_away(mean, 6)),
        })

    return _read(sf_dir, *EMB).map_batches(_stats, batch_format="pyarrow")


def _top_windows(topk_by, sf_dir: str):
    """Continuous-top-k shape (SAP ICDE'18 problem): the k busiest
    (key, window) cells by rolled-up volume — windowed aggregate feeding
    the distributed top-k, no global sort."""
    from series_correction_project_updated_ray.stages.rollup import (
        rollup_events)
    roll = rollup_events(_read(sf_dir, *EV_TYPE_TS_VALUE),
                         key_col="event_type", width=3600)
    return topk_by(roll, ["vsum", "event_type", "window_start"],
                   [True, False, False], 20)


def _clickers_vs_buyers(semi_join, sf_dir: str, min_value=None, **kw):
    """Set ops over distinct users: clickers ∩ purchasers (INTERSECT), or
    with anti=True clickers with no purchase above ``min_value`` (EXCEPT)
    — partial distinct per batch, then a broadcast semi-join (no second
    shuffle)."""
    cols = ["user_id", "event_type"] + ([] if min_value is None else
                                        ["value"])
    ev = _read(sf_dir, "events", cols)
    return semi_join(_distinct_users_of_type(ev, "click"),
                     _distinct_users_of_type(ev, "purchase", min_value),
                     "user_id", **kw)


def _grouping_sets(scaled_cents, sf_dir: str):
    """GROUP BY ROLLUP(event_type) shape: per-type totals plus the grand
    total in one result (NULL key = the total row), cents-exact sums —
    multi-level aggregates as a union of grouped and global partials."""
    import pyarrow as pa
    from series_correction_project_updated_ray.functions.frames import (
        arrow_table)
    from series_correction_project_updated_ray.stages.rollup import (
        combine, sums_of)
    ev = _read(sf_dir, *EV_TYPE_VALUE)

    # the grand-total level carries a SENTINEL key through the merge (a
    # NULL key would fold into the NULL event_type group) and becomes
    # SQL's NULL total row on output
    sentinel = "\x00__TOTAL__"

    def _partial(t: pa.Table) -> pa.Table:
        v100 = scaled_cents(t["value"])
        df = pd.DataFrame({"event_type": t["event_type"].to_pandas(),
                           "v100": v100,
                           "n": np.ones(len(v100), dtype=np.int64)})
        per_key = df.groupby("event_type", as_index=False, sort=False).sum()
        total = pd.DataFrame({"event_type": [sentinel],
                              "v100": [df["v100"].sum()],
                              "n": [np.int64(len(df))]})
        return arrow_table(pd.concat([per_key, total]))

    agg = combine(ev.map_batches(_partial, batch_format="pyarrow"),
                  ["event_type"], sums_of("v100", "n"))

    def _final(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        key = t["event_type"]
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        key = pc.if_else(pc.equal(key, sentinel),
                         pa.nulls(len(key), pa.string()), key)
        return pa.table({
            "event_type": key,
            "total_value": pa.array(
                t["v100"].to_numpy(zero_copy_only=False).astype(np.int64)
                / 100.0),
            "n_events": pa.array(
                t["n"].to_numpy(zero_copy_only=False).astype(np.int64)),
        })

    return agg.map_batches(_final, batch_format="pyarrow")


def _kmeans_clusters(kmeans_distributed, sf_dir: str):
    """Distributed Lloyd k-means over the embeddings table (iterative
    algorithm: centroids broadcast per round, blocks reduce to ≤k partial
    rows).  Returns per-cluster size + mean cosine (rows-only:
    iterative/approximate by nature)."""
    from series_correction_project_updated_ray.stages.rollup import combine
    _, assigns = kmeans_distributed(_read(sf_dir, *EMB), n_clusters=8,
                                    iters=8)
    return combine(assigns, ["cluster"], [
        ([], "count_all", "n_vecs"), ("cos_sim", "mean", "mean_cos")])


def _incremental_rollup(ingest, sf_dir: str):
    """Incremental continuous-aggregate ingest: the events table arrives
    as 3 waves into a delta store; reading the store must equal the batch
    1h rollup SQL — its oracle is the 1h rollup's."""
    import hashlib
    import shutil

    import pyarrow.parquet as pq
    from series_correction_project_updated_ray.state.ingest import (
        read_rollup)
    # stable digest of path AND content identity (size+mtime): builtin
    # hash() is per-process randomized, and a path-only key would serve
    # stale waves if the testdata were regenerated in place
    ev_path = os.path.join(sf_dir, "events.parquet")
    st = os.stat(ev_path)
    digest = hashlib.sha1(
        f"{os.path.abspath(ev_path)}:{st.st_size}:{int(st.st_mtime)}"
        .encode()).hexdigest()[:12]
    base = os.path.join("/tmp", f"graft_incr_{digest}")
    waves_dir = os.path.join(base, "waves")
    marker = os.path.join(waves_dir, "_DONE")
    if not os.path.exists(marker):
        os.makedirs(waves_dir, exist_ok=True)
        src = pq.read_table(ev_path, columns=["event_type", "ts", "value"])
        n = len(src)
        for i, (lo, hi) in enumerate(((0, n // 3), (n // 3, 2 * n // 3),
                                      (2 * n // 3, n))):
            pq.write_table(src.slice(lo, hi - lo),
                           os.path.join(waves_dir, f"wave{i}.parquet"))
        with open(marker, "w") as f:
            f.write("ok")
    # a fresh store per process: an older store holds deltas that older
    # code wrote, and re-ingesting into it would read them unchanged
    store = os.path.join(base, f"store-{os.getpid()}")
    shutil.rmtree(store, ignore_errors=True)
    for w in sorted(glob.glob(os.path.join(waves_dir, "*.parquet"))):
        ingest(store, [w], width=3600)  # one ingest call per arriving wave
    return read_rollup(store)


def _split_documents(hash_split, sf_dir: str):
    """Deterministic train/val/test split of documents (per-split counts;
    no-leakage property is asserted in tests/test_stages.py)."""
    from series_correction_project_updated_ray.stages.rollup import combine
    tagged = hash_split(_read(sf_dir, "documents", ["doc_id"]), "doc_id",
                        {"train": 0.8, "val": 0.1, "test": 0.1})
    return combine(tagged, ["split"], [([], "count_all", "n_docs")])


def _packed_sequences(pack_token_sequences, sf_dir: str):
    """Fixed-length training-sequence packing, FULLY oracle-checked:
    token ids here derive from the repo's polynomial rolling hash
    (SQL-replicable, like SimHash and the text fingerprints) so every packed
    row's (bucket, seq_idx, n_tok, is_full, token checksum) is verified
    value-exact — bucketing, doc_id ordering, cutting and conservation
    all certified.  The flagship sequences pipelines keep the pd-hash
    tokenizer (same packing operator either way)."""
    import pyarrow as pa
    packed = pack_token_sequences(_poly_tokenized(sf_dir), PACK_SEQ_LEN,
                                  n_buckets=PACK_BUCKETS)

    def _project(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"].combine_chunks()
        off = np.asarray(toks.offsets)
        # trim to off[-1]: a sliced ListArray's values buffer can extend
        # past the last list's end, and reduceat's final segment would
        # otherwise sweep those stray values in
        val = np.asarray(toks.values, dtype=np.int64)[:off[-1]] \
            if len(off) else np.empty(0, np.int64)
        # reduceat only over NON-EMPTY segments: a trailing empty row's
        # start offset equals len(val), which reduceat rejects as out of
        # bounds (the interior-empty fixup alone can't reach it)
        nonempty = off[:-1] < off[1:]
        sums = np.zeros(len(batch), np.int64)
        if nonempty.any():
            sums[nonempty] = np.add.reduceat(
                val, np.asarray(off[:-1])[nonempty])
        return pa.table({
            "bucket": batch["bucket"], "seq_idx": batch["seq_idx"],
            "n_tok": batch["n_tok"], "is_full": batch["is_full"],
            "tok_checksum": pa.array(sums),
        })

    return packed.map_batches(_project, batch_format="pyarrow")


def _packing_summary(packing_summary, sf_dir: str):
    """Per-bucket packing accounting — oracle-checked: the bucket hash
    (splitmix64) and per-doc token counts (BPE regex) are both
    replicated exactly in the DuckDB oracle."""
    from series_correction_project_updated_ray.stages.packing import (
        pack_token_sequences)
    return packing_summary(pack_token_sequences(
        _tokenized_docs(sf_dir), PACK_SEQ_LEN, n_buckets=PACK_BUCKETS))


def _left_join_customer_orders(hash_join, sf_dir: str):
    """LEFT outer hash join with real unmatched lefts: customers joined to
    only their high-value orders (filter pushed into the orders scan) —
    customers with none survive with typed-null order columns."""
    import pyarrow.compute as pc
    from series_correction_project_updated_ray.functions.frames import (
        read_parquet)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    orders = read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
        filter=(pc.field("o_totalprice") > 400000.0))
    return hash_join(cust, orders, "c_custkey", "o_custkey", how="left")


def _shipping_priority(shipping_priority, sf_dir: str):
    """TPC-H-Q3-shaped segment revenue top-10 (broadcast semi + one hash
    join + partial agg + distributed top-k); date predicates pushed into
    both parquet scans."""
    import pyarrow.compute as pc
    from series_correction_project_updated_ray.functions.frames import (
        read_parquet)
    cutoff = pc.scalar(np.datetime64(Q3_CUTOFF, "us"))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=(pc.field("o_orderdate") < cutoff))
    li = read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pc.field("l_shipdate") > cutoff))
    return shipping_priority(cust, orders, li, segment="BUILDING", k=10)


# ---------------------------------------------------------------------------
# the registry, in declaration order (newest last)
# ---------------------------------------------------------------------------

REGISTRY: tuple[Query, ...] = (
    # continuous aggregates (north rule)
    _q("rollup_1m", ".stages.rollup:rollup_events", EV_TYPE_TS_VALUE,
       key_col="event_type", width=60),
    _q("rollup_1h", ".stages.rollup:rollup_events", EV_TYPE_TS_VALUE,
       key_col="event_type", width=3600),
    _q("rollup_1d", ".stages.rollup:rollup_events", EV_TYPE_TS_VALUE,
       key_col="event_type", width=86400),
    # the paper's correction operators (reference §2.3): gap detection
    # (D1), gap insertion + positional interpolation (C1), the composed
    # 2-step (C1 → D3/C3) and full (C1 → D3/C3 → D2/C2) corrections,
    # Hampel (D3), the quantized CUSUM (integer micros, recursive-CTE
    # reset scan) and its composed jump correction (D2 → C2), the raw
    # float CUSUM fold (bit-exact recursive-CTE replay of the kernel's
    # IEEE operand order), and the level-shift building block (A6)
    _q("gap_counts", ".stages.events_series:gap_counts", EV_SERIES),
    _q("gap_filled_events", ".stages.events_series:gap_filled_series",
       EV_SERIES),
    _q("corrected_events_nojump",
       ".stages.events_series:corrected_series_nojump", EV_SERIES),
    _q("corrected_events_full", ".stages.events_series:corrected_series_full",
       EV_SERIES),
    _q("global_mad_outliers",
       ".stages.events_series:global_mad_outlier_counts", EV_SERIES),
    _q("hampel_flags", ".stages.events_series:hampel_flags", EV_SERIES),
    _q("cusum_flags_q", ".stages.events_series:cusum_flags_quantized",
       EV_SERIES),
    _q("jump_corrected_events", ".stages.events_series:jump_corrected_series",
       EV_SERIES),
    _q("cusum_flags", ".stages.events_series:cusum_flags", EV_SERIES),
    _q("corrected_events", ".stages.events_series:corrected_series",
       EV_SERIES),
    _q("level_shifts_events", ".stages.events_series:level_shifts", EV_SERIES),
    _q("tail_nonzero_avg", ".stages.events_series:tail_nonzero_avgs",
       EV_SERIES),
    # relational operators (S6/A9, J2/J4, A7/A8, K3)
    _q("unpivot_lineitem", ".stages.relational:unpivot_threshold",
       ("lineitem", ["l_orderkey", "l_linenumber", "l_quantity",
                     "l_extendedprice", "l_discount", "l_tax"]),
       args=(["l_orderkey", "l_linenumber"],
             ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]),
       threshold=0.1),
    _q("broadcast_enrich_orders", ".stages.relational:broadcast_enrich",
       body=_broadcast_enrich),
    _q("sanitize_docs", ".stages.relational:sanitize_dataset", DOCS),
    _q("summary_by_source", ".functions.frames:read_parquet",
       body=_summary_by_source),
    # large-×-large partitioned hash join (one bucket shuffle)
    _q("join_lineitem_orders", ".stages.joins:hash_join", body=_join_li_orders,
       how="inner"),
    _q("user_type_totals_join", ".stages.joins:hash_join",
       body=_user_type_totals_join),
    _q("rollup_user_1h", ".stages.rollup:rollup_events", EV_USER_TS_VALUE,
       key_col="user_id", width=3600),
    _q("distinct_users", ".functions.frames:read_parquet",
       body=_distinct_users),
    _q("top_users_by_value", ".stages.relational:topk_by", body=_top_users),
    _q("filter_pushdown_events", ".functions.frames:read_parquet",
       body=_filter_pushdown),
    _q("rollup_1m_retention", ".stages.rollup:rollup_events",
       body=_rollup_retention),
    _q("downsample_stride", ".stages.rollup:downsample_stride",
       body=_downsample_stride),
    # streaming-window operators
    _q("session_windows", ".stages.windows:session_windows", EV_SESSION,
       timeout_s=1800),
    _q("sliding_mean", ".stages.windows:sliding_mean", EV_SERIES, width_s=300),
    _q("asof_join_purchases", ".stages.windows:asof_join_events",
       ("events", ["user_id", "event_id", "ts", "value", "event_type"]),
       right_type="purchase"),
    _q("semi_join_orders", ".stages.joins:semi_join", body=_building_orders),
    _q("anti_join_orders", ".stages.joins:semi_join", body=_building_orders,
       anti=True),
    _q("grouped_median_1h", ".stages.rollup:grouped_median", EV_TYPE_TS_VALUE,
       width=3600),
    # checkpoint/resume lineage manifests — rows-only
    _q("resumable_rollup", ".pipelines.resumable:run_resumable",
       body=_resumable_rollup),
    # training-data operators; the quality ratios divide identical
    # integers and round half-away on both sides, so they are exact
    _q("dedup_exact", ".stages.dedup:exact_dedup_survivors", DOCS),
    _q("token_counts", ".stages.textstage:token_counts", DOCS),
    _q("quality_features", ".stages.textstage:quality_scores", DOCS),
    # URL/email/IPv4 scrub — patterns with bit-identical Python-re/RE2
    # semantics (see RedactPII)
    _q("redact_pii", ".stages.textstage:redact_pii", DOCS),
    # Gopher-style repetition signals (top-word / top-bigram share,
    # duplicate-trigram fraction)
    _q("repetition_features", ".stages.textstage:repetition_features", DOCS),
    _q("knn_topk", ".stages.similarity:knn_brute_force",
       EMB, _query_vector, k=10),
    # approximate / signature operators — rows-only
    _q("lang_id", ".stages.textstage:language_id", DOCS),
    _q("doc_fingerprints", ".stages.textstage:fingerprints", DOCS),
    _q("minhash_dedup", ".stages.dedup:minhash_lsh_dedup", DOCS),
    # exact n-gram Jaccard pairs (shingle inverted index → bucketed
    # candidates → exact verify); oracle = DuckDB all-pairs Jaccard
    _q("ngram_jaccard_pairs", ".stages.dedup:ngram_jaccard_pairs", DOCS,
       threshold=0.8),
    # 64-bit SimHash — bit-exact via the polynomial token hash
    _q("simhash_signatures", ".stages.dedup:SimHashStage", body=_simhash),
    # the synthetic embeddings carry no true near-dups (max pair cosine
    # ≈0.51 at sf0.01); 0.4 exercises the bucket-verify path with output
    _q("embedding_near_dup", ".stages.dedup:embedding_near_dup", EMB,
       threshold=0.4, planes=6),
    _q("knn_ivf", ".stages.similarity:knn_ivf", EMB, _query_vector, k=10),
    # flagship sequences pipelines — rows-only (token-derived series)
    _q("rollup_sequences", ".pipelines.flagship:flagship_rollup",
       body=_on_sf_dir, buckets_per_source=16),
    _q("corrected_sequences", ".pipelines.flagship:flagship_corrected",
       body=_corrected_sequences),
    # Gorilla/delta-of-delta segment compression — rows-only
    _q("compressed_segments", ".stages.compress:compress_series",
       body=_compressed_segments),
    # Seatek exact-compat workflows (reference entry points 3.1-3.3) over
    # the deterministic /tmp fixture corpus — rows-only
    _q("seatek_batch_correct", ".pipelines.seatek_compat:batch_correct",
       body=_seatek_correct),
    _q("seatek_summary", ".pipelines.seatek_compat:summarize",
       body=_seatek_summary),
    _q("seatek_level_shifts", ".pipelines.levelshift:apply_level_shifts",
       body=_seatek_level_shifts),
    _q("seatek_comparison", ".pipelines.comparison:export_comparisons",
       body=_seatek_comparison),
    _q("seatek_all_sensors", ".pipelines.seatek_compat:correct_all_sensors",
       body=_seatek_all_sensors),
    # multimodal actor-pool stages (stubbed decode) — rows-only
    _q("media_features", ".stages.multimodal:media_features",
       body=_media_features),
    _q("media_frame_sample", ".stages.multimodal:sample_frames",
       body=_media_frames),
    # per-file mean/median/outlier-count summary (A7) — rows-only
    _q("seatek_file_stats", ".pipelines.reports:per_file_summary",
       body=_seatek_file_stats),
    # mergeable HLL sketch — rows-only (approximate by design, accuracy
    # asserted in tests)
    _q("approx_distinct_users", ".stages.sketches:approx_distinct",
       EV_TYPE_USER, args=("event_type", "user_id")),
    # exact-arithmetic pricing aggregates (TPC-H Q1/Q6/Q3 style) —
    # bit-exact via scaled-int sums
    _q("pricing_summary", ".stages.relational:pricing_summary",
       body=_pricing_summary),
    _q("revenue_summary", ".stages.relational:revenue_summary",
       ("lineitem", ["l_quantity", "l_extendedprice", "l_discount"])),
    _q("shipping_priority", ".stages.relational:shipping_priority",
       body=_shipping_priority),
    # window-function / quantile / pivot shapes; the top-3 ranking per
    # user is a total order through the event_id tiebreak
    _q("grouped_quantiles", ".stages.rollup:grouped_quantiles", EV_TYPE_VALUE),
    _q("topn_per_user", ".stages.windows:topn_per_group",
       ("events", ["user_id", "event_id", "value"]),
       args=("user_id", ["value", "event_id"], [True, False], 3)),
    _q("pivot_user_event_type", ".stages.relational:pivot_sum_exact",
       ("events", ["user_id", "event_type", "value"]),
       args=("user_id", "event_type", "value", EVENT_TYPES)),
    _q("range_join_purchases", ".stages.windows:range_join_agg",
       ("events", ["user_id", "event_id", "event_type", "ts", "value"]),
       left_type="purchase", right_type="click", window_s=3600),
    _q("left_join_customer_orders", ".stages.joins:hash_join",
       body=_left_join_customer_orders),
    # mergeable KLL quantile sketch — rows-only (approximate; rank-error
    # tests in tests/test_sketches.py)
    _q("approx_quantiles_value", ".stages.sketches:approx_quantiles",
       EV_TYPE_VALUE, args=("event_type", "value"), probs=(0.5, 0.9, 0.99)),
    # sequence-match funnel, distributed word count + per-source top-k,
    # benchmark decontamination (probes = substring [10:34] of every
    # doc_id ≡ 0 mod 97, so the oracle derives the identical set)
    _q("funnel_click_purchase", ".stages.windows:funnel",
       ("events", ["user_id", "event_type", "ts"]),
       first_type="click", then_type="purchase"),
    _q("term_frequencies", ".stages.textstage:term_frequencies", DOCS_SRC_TEXT,
       top_k=20),
    _q("contamination_scan", ".stages.textstage:contamination_scan", DOCS),
    # training-sequence packing: the accounting summary and every packed
    # row (bucket hash, token counts, polynomial token ids in SQL)
    _q("packing_summary", ".stages.packing:packing_summary",
       body=_packing_summary),
    _q("packed_sequences", ".stages.packing:pack_token_sequences",
       body=_packed_sequences),
    # deterministic hash sampling (all rows of a sampled user survive
    # together), per-source keep rates over one stable doc_id hash, and
    # the train/val/test split
    _q("sample_users_10pct", ".stages.relational:hash_sample",
       ("events", ["event_id", "user_id", "value"]), args=("user_id", 0.10)),
    _q("stratified_sample_docs", ".stages.relational:stratified_hash_sample",
       ("documents", ["doc_id", "source", "n_chars"]),
       args=("doc_id", "source", {"src0": 1.0, "src1": 0.5, "src2": 0.25}),
       default_rate=0.1),
    _q("split_documents", ".stages.relational:hash_split",
       body=_split_documents),
    # multi-hop join aggregate (Q5-lite)
    _q("revenue_by_nation", ".stages.relational:revenue_by_nation",
       ("lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]),
       ORDERS_CUST, CUST_NATION, NATION),
    # Misra-Gries heavy hitters — rows-only (estimates ≤ true counts;
    # bounds tested in tests/test_sketches.py)
    _q("heavy_hitter_users", ".stages.sketches:heavy_hitters", EV_TYPE_USER,
       args=("event_type", "user_id"), k=64, top_n=10),
    # incremental ingest: 3 waves must merge to the batch 1h rollup
    _q("incremental_rollup_1h", ".state.ingest:ingest",
       body=_incremental_rollup),
    # cumulative frame, LAG deltas, reset-aware counter rate (PromQL
    # increase/rate), gaps-and-islands interval union, regular-grid
    # forward-fill and linear-interp resamples (ASOF-join semantics)
    _q("running_sum_per_user", ".stages.windows:RunningSumGroup", EV_SERIES),
    _q("lag_deltas_per_user", ".stages.windows:LagDeltaGroup", EV_SERIES),
    _q("rate_counter_1h", ".stages.timeseries:RateCounterGroup",
       EV_SERIES, width_s=3600),
    _q("interval_coverage", ".stages.timeseries:IntervalCoverageGroup",
       EV_USER_TS, width_s=300),
    _q("resample_ffill_1h", ".stages.timeseries:ResampleFfillGroup",
       EV_SERIES, width_s=3600),
    _q("resample_interp_1h", ".stages.timeseries:ResampleInterpGroup",
       EV_SERIES, width_s=3600),
    # EWMA / Holt / hysteresis recursions, bit-exact via recursive CTEs
    # running the identical operand order; lag-1 autocorrelation and the
    # hour-of-day profile from exact integer moments
    _q("ewma_per_user", ".stages.timeseries:EwmaGroup",
       EV_SERIES, alpha=0.5),
    _q("autocorr_lag1", ".stages.timeseries:AutocorrGroup", EV_SERIES),
    _q("seasonal_profile", ".stages.timeseries:seasonal_profile",
       EV_TYPE_TS_VALUE),
    _q("holt_per_user", ".stages.timeseries:HoltGroup", EV_SERIES,
       alpha=0.5, beta=0.5),
    _q("alert_hysteresis", ".stages.timeseries:HysteresisGroup", EV_SERIES,
       hi=150.0, lo=50.0),
    # LTTB: exact integer-area argmax replayed by chained SQL argmax
    # steps; n_out=4 (not the bench's 100) so the ~7-events/user corpora
    # exercise the pick chain rather than the n ≤ n_out pass-through
    _q("lttb_downsample", ".stages.timeseries:LttbGroup",
       EV_SERIES, n_out=4),
    # percentile continuous aggregate — rows-only (KLL sketch)
    _q("rollup_quantiles_1d", ".stages.rollup:rollup_quantiles",
       EV_TYPE_TS_VALUE, width_s=86400),
    # SAX, over-threshold runs, pairwise DTW over hour-of-day profiles
    # (exact int64 DP), M4 first/last/min/max anchors
    _q("sax_symbols", ".stages.tsmining:SaxGroup", EV_SERIES, w=8),
    _q("threshold_excursions", ".stages.tsmining:ExcursionGroup",
       EV_SERIES, thresh=150.0),
    _q("dtw_profile_pairs", ".stages.tsmining:dtw_profile_pairs",
       EV_USER_TS_VALUE, k_users=12),
    _q("m4_downsample", ".stages.tsmining:m4_downsample",
       EV_SERIES, width_s=86400),
    # winnowing span-dedup fingerprints (MOSS) + the cross-doc
    # duplicate-span aggregate
    _q("winnow_fingerprints", ".stages.textstage:winnow_fingerprints",
       _poly_tokenized, k=5, w=4),
    _q("winnow_matches", ".stages.textstage:winnow_matches", _poly_tokenized,
       k=5, w=4, min_docs=2),
    _q("max_drawdown", ".stages.timeseries:DrawdownGroup", EV_SERIES),
    _q("changepoint_user", ".stages.timeseries:ChangepointGroup", EV_SERIES),
    _q("theil_sen_slope", ".stages.timeseries:TheilSenGroup", EV_SERIES),
    _q("kalman_per_user", ".stages.timeseries:KalmanGroup", EV_SERIES),
    _q("session_cooccurrence", ".stages.windows:session_cooccurrence", EV_PATH,
       timeout_s=1800),
    _q("holt_winters_per_user", ".stages.timeseries:HoltWintersGroup",
       EV_SERIES),
    _q("type_entropy", ".stages.relational:type_entropy",
       ("events", ["user_id", "event_type"])),
    _q("matrix_profile", ".stages.tsmining:MatrixProfileGroup", EV_SERIES,
       w=8),
    _q("mp_discords", ".stages.tsmining:mp_discords", EV_SERIES, w=8),
    _q("welch_ttest_weekend", ".stages.relational:welch_ttest_weekend",
       EV_TYPE_TS_VALUE),
    _q("ks_test_weekend", ".stages.relational:ks_test_weekend",
       EV_TYPE_TS_VALUE),
    _q("mannwhitney_weekend", ".stages.relational:mannwhitney_weekend",
       EV_TYPE_TS_VALUE),
    _q("active_day_streaks", ".stages.relational:active_day_streaks",
       EV_USER_TS),
    _q("zipf_fit", ".stages.textstage:zipf_fit", DOCS_TEXT, top_k=1000),
    _q("pla_segments", ".stages.timeseries:PlaSegmentsGroup", EV_SERIES,
       width=16),
    _q("gini_activity", ".stages.relational:gini_activity", EV_TYPE_USER),
    _q("transition_entropy", ".stages.relational:_TransitionEntropyGroup",
       EV_TRANSITIONS),
    _q("benford_digits", ".stages.relational:benford_digits", EV_TYPE_VALUE),
    _q("pmi_pairs", ".stages.textstage:pmi_pairs",
       DOCS_TEXT, top_k=50, min_cooc=5),
    _q("runs_test", ".stages.relational:_RunsTestGroup", EV_SERIES),
    _q("fano_factor", ".stages.relational:fano_factor", EV_USER_TS),
    _q("source_kl", ".stages.textstage:source_kl", DOCS_SRC_TEXT),
    _q("cohort_retention", ".stages.relational:cohort_retention", EV_USER_TS),
    _q("page_hinkley", ".stages.timeseries:PageHinkleyGroup", EV_SERIES),
    _q("variance_ratio", ".stages.timeseries:VarianceRatioGroup", EV_SERIES),
    _q("lexical_richness", ".stages.textstage:lexical_richness",
       DOCS_SRC_TEXT),
    _q("ewm_bands", ".stages.timeseries:EwmBandsGroup", EV_SERIES),
    _q("seasonal_decompose", ".stages.timeseries:SeasonalDecomposeGroup",
       EV_SERIES),
    _q("tukey_fences", ".stages.rollup:tukey_fences", EV_USER_VALUE),
    _q("peak_detection", ".stages.timeseries:PeakDetectGroup", EV_SERIES),
    _q("haar_energy", ".stages.timeseries:HaarEnergyGroup", EV_SERIES),
    _q("ljung_box", ".stages.timeseries:LjungBoxGroup", EV_SERIES),
    _q("sample_entropy", ".stages.timeseries:SampleEntropyGroup", EV_SERIES),
    _q("bigram_logprob", ".stages.textstage:bigram_logprob", DOCS),
    _q("dup_span_stats", ".stages.dedup:dup_span_stats", DOCS),
    _q("bm25_topk", ".stages.textstage:bm25_topk", DOCS),
    _q("croston_demand", ".stages.timeseries:CrostonGroup", EV_USER_TS),
    # DSIR importance weights vs the lang='en' target slice
    _q("dsir_weights", ".stages.textstage:dsir_weights",
       ("documents", ["doc_id", "lang", "text"])),
    _q("hurst_rs", ".stages.timeseries:HurstRSGroup", EV_SERIES),
    _q("mann_kendall", ".stages.timeseries:MannKendallGroup", EV_SERIES),
    _q("spearman_trend", ".stages.timeseries:SpearmanTrendGroup", EV_SERIES),
    # TPC-H Q14 / Q12 shapes
    _q("promo_revenue_share", ".stages.relational:promo_revenue_share",
       ("lineitem", ["l_partkey", "l_extendedprice", "l_discount"]),
       ("part", ["p_partkey", "p_type"])),
    _q("late_shipment_priority", ".stages.relational:late_shipment_priority",
       LI_SHIP, ORDERS_PRIO),
    _q("grubbs_test", ".stages.relational:grubbs_test",
       ("events", ["event_type", "event_id", "value"])),
    _q("char_entropy", ".stages.textstage:char_entropy", DOCS),
    _q("drift_chi2", ".stages.relational:_DriftChi2Group",
       ("events", ["event_type", "event_id", "ts", "value"])),
    _q("embedding_dim_stats", ".stages.similarity:embedding_dim_stats",
       ("embeddings", ["embedding"])),
    _q("embedding_quantize", ".stages.similarity:embedding_quantize", EMB),
    _q("heaps_law", ".stages.textstage:heaps_law", DOCS),
    # SemDeDup-shaped keep/drop labeling — rows-only (LSH bucket recall
    # is not SQL-expressible); 0.4 as for the embedding near-dups
    _q("semantic_dedup", ".stages.dedup:semantic_dedup", EMB,
       threshold=0.4, planes=6),
    _q("distinct_ngrams", ".stages.textstage:distinct_ngrams", DOCS_TEXT),
    _q("oov_rate", ".stages.textstage:oov_rate", DOCS),
    _q("source_mix_weights", ".stages.textstage:source_mix_weights",
       ("documents", ["source"])),
    _q("seasonal_quantiles", ".stages.rollup:seasonal_quantiles",
       EV_TYPE_TS_VALUE),
    _q("user_value_ranks", ".stages.relational:user_value_ranks",
       EV_USER_VALUE),
    _q("pacf_lags", ".stages.timeseries:PacfGroup", EV_SERIES),
    # TPC-H Q4 shape
    _q("order_priority_check", ".stages.relational:order_priority_check",
       LI_SHIP, ORDERS_PRIO),
    _q("isotonic_fit", ".stages.timeseries:IsotonicGroup", EV_SERIES),
    _q("next_higher_event", ".stages.timeseries:NextHigherGroup", EV_SERIES),
    _q("top_event_paths", ".stages.windows:top_event_paths", EV_PATH),
    _q("bounce_rate", ".stages.windows:bounce_rate", EV_SESSION),
    _q("rfm_scores", ".stages.relational:rfm_scores", EV_USER_TS_VALUE),
    _q("vocab_overlap_sources", ".stages.textstage:vocab_overlap_sources",
       DOCS_SRC_TEXT),
    # TPC-H Q7 / Q10 / Q13 / Q15 / Q17 / Q18 / Q19 / Q22 shapes
    _q("volume_shipping", ".stages.relational:volume_shipping",
       ("lineitem", ["l_orderkey", "l_suppkey", "l_shipdate",
                     "l_extendedprice", "l_discount"]),
       ORDERS_CUST, CUST_NATION, ("supplier", ["s_suppkey", "s_nationkey"]),
       NATION),
    _q("returned_item_revenue", ".stages.relational:returned_item_revenue",
       ("lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice",
                     "l_discount"]),
       ORDERS_CUST, ("customer", ["c_custkey", "c_name", "c_nationkey"]),
       NATION),
    _q("order_count_dist", ".stages.relational:order_count_distribution",
       ("customer", ["c_custkey"]), ORDERS_CUST_PRIO),
    _q("top_supplier_revenue", ".stages.relational:top_supplier_revenue",
       ("lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]),
       ("supplier", ["s_suppkey", "s_name"])),
    _q("small_qty_revenue", ".stages.relational:small_quantity_revenue",
       ("lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])),
    _q("large_volume_customers", ".stages.relational:large_volume_customers",
       LI_QTY, ("orders", ["o_orderkey", "o_custkey", "o_orderdate",
                   "o_totalprice"]), CUST_NAME),
    _q("disjunctive_revenue", ".stages.relational:disjunctive_revenue",
       ("lineitem", ["l_partkey", "l_quantity", "l_extendedprice",
                     "l_discount"]),
       ("part", ["p_partkey", "p_brand", "p_size"])),
    _q("inactive_high_balance", ".stages.relational:inactive_high_balance",
       ("customer", ["c_custkey", "c_nationkey", "c_acctbal"]),
       ORDERS_CUST_PRIO),
    _q("rsi_per_user", ".stages.timeseries:RsiGroup", EV_SERIES),
    _q("rolling_active_users", ".stages.windows:rolling_active_users",
       EV_USER_TS),
    # Efraimidis–Spirakis over the stable hash, weight = n_chars
    _q("weighted_sample_docs", ".stages.relational:weighted_sample",
       ("documents", ["doc_id", "n_chars"]), args=("doc_id", "n_chars"), k=50),
    _q("mode_per_type", ".stages.relational:mode_per_type", EV_TYPE_VALUE),
    _q("pagerank_event_types", ".stages.relational:pagerank_event_types",
       EV_PATH),
    _q("latest_event_per_user", ".stages.relational:latest_event_per_user",
       ("events", ["user_id", "event_id", "ts", "event_type", "value"])),
    # the within-order co-purchase graph
    _q("copurchase_triangles", ".stages.graph:copurchase_triangles", LI_OP),
    _q("copurchase_components", ".stages.graph:copurchase_components", LI_OP),
    _q("link_prediction_jaccard", ".stages.graph:link_prediction_jaccard",
       LI_OP),
    _q("clustering_coefficient", ".stages.graph:clustering_coefficient",
       LI_OP),
    _q("spectral_power", ".stages.timeseries:SpectralGroup", EV_SERIES),
    # the 20 most active users' hourly totals: all-pairs Pearson and the
    # best ±24 h lag of the zero-padded cross-correlation
    _q("corr_pairs_hourly", ".stages.timeseries:corr_pairs_hourly",
       EV_USER_TS_VALUE, k=20),
    _q("xcorr_best_lag", ".stages.timeseries:xcorr_best_lag", EV_USER_TS_VALUE,
       k=20, max_lag=24),
    _q("unigram_logprob", ".stages.textstage:unigram_logprob", DOCS),
    # TPC-H Q18 shape
    _q("big_orders", ".stages.relational:big_orders", LI_QTY,
       ("orders", ["o_orderkey", "o_custkey", "o_totalprice",
                   "o_orderdate"]), CUST_NAME, min_qty=300.0),
    _q("props_field_stats", ".stages.relational:props_field_stats",
       ("events", ["event_type", "props"]), field="k", by="event_type"),
    _q("token_vocab_stats", ".stages.packing:token_vocab_stats",
       _poly_tokenized),
    _q("token_bigrams", ".stages.packing:token_bigrams",
       _poly_tokenized, min_n=2),
    _q("tfidf_top_term", ".stages.textstage:tfidf_top_term", DOCS),
    # C4-style boilerplate removal (common word-3-grams dropped)
    _q("remove_common_ngrams", ".stages.textstage:remove_common_ngrams", DOCS,
       n=3, min_df=5),
    _q("user_event_sequences", ".stages.windows:EventSequenceGroup",
       EV_TRANSITIONS),
    _q("value_quartiles", ".stages.relational:value_quartiles",
       ("events", ["event_id", "value"]), k=4),
    _q("embedding_centroid_dist", ".stages.similarity:embedding_centroid_dist",
       ("embeddings", ["vec_id", "embedding", "label"])),
    _q("chunk_documents", ".stages.textstage:chunk_documents", DOCS,
       chunk_tokens=64, stride=48),
    _q("ohlc_user_1h", ".stages.rollup:ohlc_bars", EV_SERIES, width=3600),
    _q("twa_user_1h", ".stages.windows:TimeWeightedAvgGroup",
       EV_SERIES, width_s=3600),
    _q("trend_user_1h", ".stages.windows:TrendGroup", EV_USER_TS_VALUE,
       width_s=3600),
    _q("winsorize_events", ".stages.relational:winsorize_events",
       EV_ID_TYPE_VALUE),
    _q("quality_gate_summary", ".stages.textstage:quality_gate_summary",
       DOCS_SRC),
    _q("token_budget_sample", ".stages.textstage:token_budget_sample",
       DOCS_SRC, budget_tokens=1000),
    _q("interarrival_stats", ".stages.windows:InterarrivalGroup", EV_SESSION),
    _q("value_histogram", ".stages.relational:value_histogram", EV_TYPE_VALUE,
       width_cents=5000),
    _q("zscore_events", ".stages.relational:zscore_events", EV_ID_TYPE_VALUE),
    _q("users_click_and_purchase", ".stages.joins:semi_join",
       body=_clickers_vs_buyers),
    _q("kmeans_clusters", ".stages.similarity:kmeans_distributed",
       body=_kmeans_clusters),
    _q("users_click_no_purchase", ".stages.joins:semi_join",
       body=_clickers_vs_buyers, min_value=95.0, anti=True),
    _q("rollup_grouping_sets", ".stages.relational:_scaled_cents",
       body=_grouping_sets),
    _q("top_windows_by_volume", ".stages.relational:topk_by",
       body=_top_windows),
    _q("vector_stats", ".functions.rounding:round_half_away",
       body=_vector_stats),
    # the bloom-prefiltered and skew-aware (hot keys broadcast around the
    # shuffle) plans of the lineitem ⋈ orders join
    _q("join_lineitem_orders_bloom", ".stages.joins:hash_join_bloom",
       body=_join_li_orders),
    _q("join_lineitem_orders_skew", ".stages.joins:skew_join",
       body=_join_li_orders, hot_share=0.001),
)


# ---------------------------------------------------------------------------
# the driver window
# ---------------------------------------------------------------------------

DRIVER_WINDOW = 50
CORRECTION_FAMILY = ".stages.events_series"


class DriverWindowError(ValueError):
    """The registry has fewer oracle-backed queries than the window."""


def driver_window(registry: Iterable[Query],
                  backed: Container[str]) -> list[str]:
    """The ``DRIVER_WINDOW`` names the driver evaluates, all oracle-backed:
    every backed correction operator (``CORRECTION_FAMILY``) first, then
    the newest-declared backed entry of every other family, then the
    remaining backed entries in registry order."""
    rows = [r for r in registry if r.name in backed]
    if len(rows) < DRIVER_WINDOW:
        raise DriverWindowError(
            f"{len(rows)} oracle-backed queries for a driver window of "
            f"{DRIVER_WINDOW}")
    newest = {r.family: r.name for r in rows}
    first = [r.name for r in rows if r.family == CORRECTION_FAMILY] + \
        [r.name for r in rows
         if r.family != CORRECTION_FAMILY and newest[r.family] == r.name]
    return list(dict.fromkeys(first + [r.name for r in rows]))[:DRIVER_WINDOW]


def queries() -> dict[str, Callable[[str], Any]]:
    """Every pipeline by name: ``driver_window()``'s pick first, then the
    rest of the registry in declaration order."""
    rows = {r.name: r for r in REGISTRY}
    window = driver_window(REGISTRY, set(oracle_sql()))
    return {n: rows[n] for n in window} | rows


EPOCH_S = "(epoch_us(ts) // 1000000)"


def _splitmix_sql(col: str) -> str:
    """DuckDB expression computing pandas' int64 stable hash (the splitmix64
    finalizer pandas.util.hash_array applies to integer columns) — verified
    bit-exact against the engine's stable_hash_array on random int64 keys.
    128-bit-safe: each mod-2^64 multiply splits the multiplicand into
    32-bit halves so intermediate products stay under HUGEINT range."""
    M = 18446744073709551616
    K1, K2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def mulmod(a: str, k: int) -> str:
        klo = k % 4294967296
        return (f"((({a}) % 4294967296) * {k} + (({a}) // 4294967296)"
                f" * {klo} * 4294967296) % {M}")

    u = f"(CAST({col} AS HUGEINT) & 18446744073709551615)"
    s1 = f"xor({u}, {u} // 1073741824)"           # ^= >> 30
    s2 = mulmod(s1, K1)
    s3 = f"xor(({s2}), ({s2}) // 134217728)"      # ^= >> 27
    s4 = mulmod(f"({s3})", K2)
    return f"CAST(xor(({s4}), ({s4}) // 2147483648) AS UBIGINT)"  # ^= >> 31


def _rollup_sql(width: int) -> str:
    return f"""
SELECT event_type,
       {EPOCH_S} - ({EPOCH_S} % {width}) AS window_start,
       min(value) AS vmin,
       max(value) AS vmax,
       round(sum(value), 6) AS vsum,
       count(*) AS vcount,
       round(round(sum(value), 6) / count(*), 6) AS vmean
FROM events
GROUP BY 1, 2
"""


_POLY_SQL = """list_reduce(
           list_reverse(list_transform(string_split(tok, ''),
                                       c -> CAST(unicode(c) AS HUGEINT))),
           (acc, c) ->
             (((acc % 4294967296) * 1099511628211
               + (acc // 4294967296) * 435 * 4294967296)
              % 18446744073709551616 + c) % 18446744073709551616)"""


def _token_vocab_sql() -> str:
    """tf/df per polynomial token id — the packing oracle's ids CTE with
    a plain GROUP BY."""
    from series_correction_project_updated_ray.functions.hashing import (
        TOKEN_VOCAB)
    return rf"""
WITH base AS (
  SELECT doc_id,
         regexp_extract_all(coalesce(text, ''),
                            '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]') AS arr
  FROM documents),
pos AS (
  SELECT doc_id, unnest(arr) AS tok FROM base),
ids AS (
  SELECT doc_id, CAST({_POLY_SQL} % {TOKEN_VOCAB} AS BIGINT) AS tid
  FROM pos)
SELECT tid, CAST(COUNT(*) AS BIGINT) AS tf,
       CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
FROM ids GROUP BY 1
"""


def _token_bigrams_sql() -> str:
    """Consecutive in-document token-id pairs with count ≥ 2."""
    from series_correction_project_updated_ray.functions.hashing import (
        TOKEN_VOCAB)
    return rf"""
WITH base AS (
  SELECT doc_id,
         regexp_extract_all(coalesce(text, ''),
                            '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]') AS arr
  FROM documents),
pos AS (
  SELECT doc_id, unnest(arr) AS tok,
         unnest(generate_series(1, len(arr))) AS i
  FROM base),
ids AS (
  SELECT doc_id, i, CAST({_POLY_SQL} % {TOKEN_VOCAB} AS BIGINT) AS tid
  FROM pos)
SELECT a.tid AS tid_a, b.tid AS tid_b, CAST(COUNT(*) AS BIGINT) AS n
FROM ids a JOIN ids b ON a.doc_id = b.doc_id AND b.i = a.i + 1
GROUP BY 1, 2 HAVING COUNT(*) >= 2
"""


def _packed_sequences_sql() -> str:
    """Packed-sequence oracle: polynomial token ids (the SimHash /
    doc_fingerprints construction), per-bucket doc_id-ordered global
    token positions, cut every PACK_SEQ_LEN — replicates bucketing,
    ordering, cutting and the per-chunk checksum exactly.  All-empty
    buckets emit the engine's explicit zero remainder row."""
    from series_correction_project_updated_ray.functions.hashing import (
        TOKEN_VOCAB)
    poly = """list_reduce(
           list_reverse(list_transform(string_split(tok, ''),
                                       c -> CAST(unicode(c) AS HUGEINT))),
           (acc, c) ->
             (((acc % 4294967296) * 1099511628211
               + (acc // 4294967296) * 435 * 4294967296)
              % 18446744073709551616 + c) % 18446744073709551616)"""
    return rf"""
WITH base AS (
  SELECT doc_id,
         CAST({_splitmix_sql("doc_id")} % {PACK_BUCKETS} AS BIGINT)
           AS bucket,
         regexp_extract_all(coalesce(text, ''),
                            '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]') AS arr
  FROM documents),
doc_off AS (
  SELECT doc_id, bucket, len(arr) AS n,
         SUM(len(arr)) OVER (PARTITION BY bucket ORDER BY doc_id
                             ROWS UNBOUNDED PRECEDING) - len(arr)
           AS start
  FROM base),
pos AS (
  SELECT doc_id, unnest(arr) AS tok,
         unnest(generate_series(1, len(arr))) AS i
  FROM base),
ids AS (
  SELECT doc_id, i, CAST({poly} % {TOKEN_VOCAB} AS BIGINT) AS tid
  FROM pos),
g AS (
  SELECT o.bucket,
         CAST((o.start + ids.i - 1) // {PACK_SEQ_LEN} AS BIGINT)
           AS seq_idx,
         ids.tid
  FROM ids JOIN doc_off o USING (doc_id)),
packed AS (
  SELECT bucket, seq_idx, CAST(COUNT(*) AS INTEGER) AS n_tok,
         COUNT(*) = {PACK_SEQ_LEN} AS is_full,
         CAST(SUM(tid) AS BIGINT) AS tok_checksum
  FROM g GROUP BY 1, 2),
empty_b AS (
  SELECT bucket FROM doc_off GROUP BY bucket HAVING SUM(n) = 0)
SELECT * FROM packed
UNION ALL
SELECT bucket, CAST(0 AS BIGINT), CAST(0 AS INTEGER), FALSE,
       CAST(0 AS BIGINT) FROM empty_b
"""


def _simhash_sql() -> str:
    """64-bit SimHash in SQL: per-token polynomial hash (HUGEINT
    list_reduce, the doc_fingerprints construction), then one ±1 vote sum
    per bit position and a sign-threshold recombination — bit-exact vs
    the engine's SimHashStage on ASCII text."""
    bit_sums = ",\n         ".join(
        f"sum(CASE WHEN (v // {1 << b}) % 2 = 1 THEN 1 ELSE -1 END) AS s{b}"
        for b in range(64))
    recomb = "\n           + ".join(
        f"CASE WHEN s{b} > 0 THEN CAST({1 << b} AS HUGEINT) "
        f"ELSE CAST(0 AS HUGEINT) END" for b in range(64))
    return rf"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_extract_all(coalesce(text, ''),
                                   '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')) AS tok
  FROM documents
), th AS (
  SELECT doc_id,
         list_reduce(
           list_reverse(list_transform(string_split(tok, ''),
                                       c -> CAST(unicode(c) AS HUGEINT))),
           (acc, c) ->
             (((acc % 4294967296) * 1099511628211
               + (acc // 4294967296) * 435 * 4294967296)
              % 18446744073709551616 + c) % 18446744073709551616) AS v
  FROM toks
), bits AS (
  SELECT doc_id,
         {bit_sums}
  FROM th GROUP BY doc_id
), hug AS (
  SELECT doc_id,
         ({recomb}) AS v
  FROM bits
)
SELECT d.doc_id,
       CAST(CASE WHEN h.v IS NULL THEN 0
                 WHEN h.v >= 9223372036854775808
                 THEN h.v - 18446744073709551616
                 ELSE h.v END AS BIGINT) AS simhash
FROM documents d LEFT JOIN hug h ON h.doc_id = d.doc_id
"""


_JOIN_LI_ORDERS_SQL = """
SELECT l.l_orderkey, l.l_linenumber, l.l_quantity, l.l_extendedprice,
       o.o_custkey, o.o_totalprice
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
"""


# Winnowing selections (k=5, w=4) over polynomial-tokenized documents —
# shared by the winnow_fingerprints oracle and the winnow_matches
# aggregate built on top of it.  The k-gram fold reuses the
# doc_fingerprints HUGEINT-decomposed uint64 Horner convention.
# exact matrix profile SQL (shared by matrix_profile and the
# mp_discords argmax wrapper)
_MP_SQL = """
WITH c AS (
  SELECT user_id, epoch_us(ts) AS t, event_id,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
o AS (
  SELECT user_id, cents,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS n
  FROM c),
w AS (SELECT user_id, rn, cents, n FROM o WHERE rn + 7 <= n),
p AS (
  SELECT x.user_id, x.rn AS i, y.rn AS j
  FROM (SELECT user_id, rn FROM w) x
  JOIN (SELECT user_id, rn FROM w) y
    ON x.user_id = y.user_id AND x.rn <> y.rn),
k AS (SELECT unnest(generate_series(0, 7)) AS k),
d AS (
  SELECT p.user_id, p.i, p.j,
         SUM(CAST(a.cents - b.cents AS HUGEINT)
             * (a.cents - b.cents)) AS dist2
  FROM p CROSS JOIN k
  JOIN o a ON a.user_id = p.user_id AND a.rn = p.i + k.k
  JOIN o b ON b.user_id = p.user_id AND b.rn = p.j + k.k
  GROUP BY 1, 2, 3)
SELECT user_id, CAST(i AS BIGINT) AS pos,
       CAST(dist2 AS BIGINT) AS mp_dist2, CAST(j AS BIGINT) AS mp_idx
FROM d
QUALIFY row_number() OVER (PARTITION BY user_id, i
                           ORDER BY dist2, j) = 1
"""


# Holt-Winters additive oracle: the recursive CTE carries the m=4
# seasonal states as SCALAR columns (phase via CASE — no list carry, so
# the recursion stays on DuckDB's reliable scalar path); the repeated
# level/seasonal subexpressions are macro-expanded so every operand
# order matches the kernel exactly.  CAST anchors to DOUBLE (a bare 0.0
# literal types DECIMAL and rounds the whole recursion).
_HW_SP = ("CASE (c.rn - 1) % 4 WHEN 0 THEN r.s0 WHEN 1 THEN r.s1 "
          "WHEN 2 THEN r.s2 ELSE r.s3 END")
_HW_L = f"0.5 * (c.value - ({_HW_SP})) + 0.5 * (r.l + r.b)"
_HW_B = f"0.5 * (({_HW_L}) - r.l) + 0.5 * r.b"
_HW_S = f"0.25 * (c.value - ({_HW_L})) + 0.75 * ({_HW_SP})"
_HW_SQL = f"""
WITH RECURSIVE c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events WHERE user_id IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn, value AS l,
         CAST(0.0 AS DOUBLE) AS b,
         CAST(0.0 AS DOUBLE) AS s0, CAST(0.0 AS DOUBLE) AS s1,
         CAST(0.0 AS DOUBLE) AS s2, CAST(0.0 AS DOUBLE) AS s3,
         CAST(NULL AS DOUBLE) AS s_out
  FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         {_HW_L},
         {_HW_B},
         CASE WHEN (c.rn - 1) % 4 = 0 THEN ({_HW_S}) ELSE r.s0 END,
         CASE WHEN (c.rn - 1) % 4 = 1 THEN ({_HW_S}) ELSE r.s1 END,
         CASE WHEN (c.rn - 1) % 4 = 2 THEN ({_HW_S}) ELSE r.s2 END,
         CASE WHEN (c.rn - 1) % 4 = 3 THEN ({_HW_S}) ELSE r.s3 END,
         {_HW_S}
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, round(l, 6) AS level,
       round(b, 6) AS trend, round(s_out, 6) AS seasonal
FROM r
"""

# Single-frequency DFT power per key at the daily/weekly calendar
# periods.  Per-row trig terms use DuckDB cos/sin == glibc libm ==
# math.cos/sin bit-for-bit (0/200k mismatches measured — the libm-ln
# verification family); the float sums are ORDERED left folds via
# list_reduce so the kernel can replay the identical operand order.
_SPECTRAL_SQL = """
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         epoch_us(ts)//1000000//3600 AS h,
         CAST(round(value*100) AS BIGINT) AS c
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL),
t2 AS (
  SELECT user_id, event_id, t,
    CAST(c AS DOUBLE) * cos(((2*pi())*CAST(h%24 AS DOUBLE))/24.0) AS c24,
    CAST(c AS DOUBLE) * sin(((2*pi())*CAST(h%24 AS DOUBLE))/24.0) AS s24,
    CAST(c AS DOUBLE) * cos(((2*pi())*CAST(h%168 AS DOUBLE))/168.0)
      AS c168,
    CAST(c AS DOUBLE) * sin(((2*pi())*CAST(h%168 AS DOUBLE))/168.0)
      AS s168
  FROM e),
f AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
         list_reduce(list(c24 ORDER BY t, event_id), (a,b)->a+b) AS cs24,
         list_reduce(list(s24 ORDER BY t, event_id), (a,b)->a+b) AS ss24,
         list_reduce(list(c168 ORDER BY t, event_id), (a,b)->a+b)
           AS cs168,
         list_reduce(list(s168 ORDER BY t, event_id), (a,b)->a+b)
           AS ss168
  FROM t2 GROUP BY 1)
SELECT user_id, n_events,
  round(((cs24*cs24 + ss24*ss24)
         / (CAST(n_events AS DOUBLE)*CAST(n_events AS DOUBLE)))
        / 10000.0, 6) AS power_daily,
  round(((cs168*cs168 + ss168*ss168)
         / (CAST(n_events AS DOUBLE)*CAST(n_events AS DOUBLE)))
        / 10000.0, 6) AS power_weekly
FROM f
"""

_WINNOW_FP_SQL = """
WITH base AS (
  SELECT doc_id,
         regexp_extract_all(coalesce(text, ''),
                            '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]') AS arr
  FROM documents),
tids AS (
  SELECT doc_id,
         list_transform(arr, tok ->
           list_reduce(
             list_prepend(CAST(0 AS HUGEINT),
               list_reverse(list_transform(string_split(tok, ''),
                                           ch -> CAST(unicode(ch) AS HUGEINT)))),
             (acc, c) ->
               (((acc % 4294967296) * 1099511628211
                 + (acc // 4294967296) * 435 * 4294967296)
                % 18446744073709551616 + c) % 18446744073709551616)
           % 50257) AS tl
  FROM base),
grams AS (
  SELECT doc_id, unnest(range(len(tl) - 5 + 1)) AS pos, tl
  FROM tids WHERE len(tl) >= 5),
g AS (
  SELECT doc_id, pos,
         list_reduce(tl[pos + 1 : pos + 5], (acc, c) ->
           (((acc % 4294967296) * 1099511628211
             + (acc // 4294967296) * 435 * 4294967296)
            % 18446744073709551616 + c) % 18446744073709551616) AS h
  FROM grams),
j AS (
  SELECT a.doc_id, a.pos AS e, b.pos AS p, b.h
  FROM g a JOIN g b ON b.doc_id = a.doc_id
                   AND b.pos BETWEEN a.pos - 3 AND a.pos
  WHERE a.pos >= 3),
mins AS (
  SELECT doc_id, e, MIN(h) AS mh FROM j GROUP BY 1, 2),
sel AS (
  SELECT j.doc_id, MAX(j.p) AS pos, any_value(m.mh) AS h
  FROM j JOIN mins m ON m.doc_id = j.doc_id AND m.e = j.e AND j.h = m.mh
  GROUP BY j.doc_id, j.e)
SELECT DISTINCT doc_id, pos,
       CAST(CASE WHEN h >= 9223372036854775808
                 THEN h - 18446744073709551616 ELSE h END AS BIGINT) AS fp
FROM sel
"""


def oracle_sql() -> dict[str, str]:
    return {
        "rollup_1m": _rollup_sql(60),
        "rollup_1h": _rollup_sql(3600),
        "rollup_1d": _rollup_sql(86400),
        # incremental ingest must merge to the identical batch rollup
        "incremental_rollup_1h": _rollup_sql(3600),
        "running_sum_per_user": """
SELECT user_id, event_id, epoch_us(ts) AS t,
       CAST(SUM(CAST(round(value*100) AS BIGINT))
            OVER (PARTITION BY user_id ORDER BY ts, event_id
                  ROWS UNBOUNDED PRECEDING) AS DOUBLE) / 100.0
         AS running_sum,
       COUNT(*) OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS UNBOUNDED PRECEDING) AS running_count
FROM events
""",
        # top TF-IDF term per doc: raw-count tf, ln(N/df) idf, top-1 by
        # (unrounded score DESC, term ASC) — identical op order both sides
        "tfidf_top_term": r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
       FROM toks GROUP BY 1, 2),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
       FROM toks GROUP BY 1),
scored AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         tf.tf * ln((SELECT COUNT(*) FROM documents) / df.df) AS s
  FROM tf JOIN df USING (term))
SELECT doc_id, term, tf, df, round(s, 6) AS score
FROM scored
QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, term) = 1
""",
        # boilerplate removal: word 3-grams (RE2 \s+ tokens, empties
        # kept) in >= 5 distinct docs are common; a token is dropped iff
        # a common 3-gram STARTS within 2 positions before it
        "remove_common_ngrams": r"""
WITH toks AS (
  SELECT doc_id, generate_subscripts(l, 1) AS pos, unnest(l) AS tok
  FROM (SELECT doc_id, regexp_split_to_array(text, '\s+') AS l
        FROM documents)),
g AS (
  SELECT doc_id, pos, tok,
         CASE WHEN lead(tok, 2) OVER w IS NOT NULL
              THEN tok || ' ' || lead(tok, 1) OVER w
                       || ' ' || lead(tok, 2) OVER w END AS g3
  FROM toks WINDOW w AS (PARTITION BY doc_id ORDER BY pos)),
common AS (
  SELECT g3 FROM g WHERE g3 IS NOT NULL
  GROUP BY 1 HAVING COUNT(DISTINCT doc_id) >= 5),
marked AS (
  SELECT doc_id, pos, tok,
         max(CASE WHEN g3 IN (SELECT g3 FROM common) THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY pos
                 ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS covered
  FROM g)
SELECT doc_id,
       coalesce(string_agg(tok, ' ' ORDER BY pos)
                  FILTER (covered = 0), '') AS clean_text,
       CAST(coalesce(SUM(covered), 0) AS BIGINT) AS n_removed
FROM marked GROUP BY 1
""",
        # per-label centroid distance: centroids from EXACT 2^20-scaled
        # integer per-dim sums (power-of-two scale — float32 elements
        # scale exactly); per-row distance via list_distance, whose
        # sequential reduction the engine replays with np.cumsum
        "embedding_centroid_dist": """
WITH ex AS (
  SELECT vec_id, label, generate_subscripts(embedding, 1) AS dim,
         CAST(unnest(embedding) AS DOUBLE) AS x
  FROM embeddings),
s AS (
  SELECT label, dim,
         SUM(CAST(round(x * 1048576.0) AS BIGINT)) AS ssum,
         COUNT(*) AS n
  FROM ex GROUP BY 1, 2),
c AS (
  SELECT label,
         list((CAST(ssum AS DOUBLE) / 1048576.0) / n ORDER BY dim)
           AS cvec
  FROM s GROUP BY 1)
SELECT e.vec_id, e.label,
       round(list_distance(CAST(e.embedding AS DOUBLE[]), c.cvec), 6)
         AS dist
FROM embeddings e JOIN c USING (label)
""",
        # burstiness: epoch-second gap moments per user — Σdt telescopes
        # (max-min), Σdt² exact integer; identical float formula
        "interarrival_stats": f"""
WITH c AS (
  SELECT user_id, {EPOCH_S} AS ts_s,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS rn
  FROM events),
d AS (
  SELECT user_id,
         ts_s - lag(ts_s) OVER (PARTITION BY user_id ORDER BY rn) AS dt
  FROM c),
s AS (
  SELECT user_id,
         CAST(COUNT(*) AS BIGINT) AS n_events,
         CAST(SUM(dt) AS DOUBLE) AS span,
         CAST(SUM(dt*dt) AS DOUBLE) AS sq,
         CAST(COUNT(dt) AS BIGINT) AS m
  FROM d GROUP BY 1)
SELECT user_id, n_events,
       CASE WHEN m >= 2 AND span / m > 0
            THEN round(span / m, 6) END AS mean_dt_s,
       CASE WHEN m >= 2 AND span / m > 0
            THEN round(sqrt(greatest(sq / m - (span/m)*(span/m), 0.0))
                       / (span / m), 6) END AS cv_dt
FROM s
""",
        # cleaning funnel: first-failing verdict per doc, counted per
        # source — raw integer-ratio thresholds, identical comparisons
        "quality_gate_summary": r"""
WITH f AS (
  SELECT doc_id, source,
         regexp_split_to_array(coalesce(text, ''), '\s+') AS toks,
         regexp_extract_all(lower(text), '[a-z]+') AS words
  FROM documents),
tw AS (
  SELECT doc_id, max(c) AS top_c
  FROM (SELECT doc_id, tok, count(*) AS c
        FROM (SELECT doc_id, unnest(toks) AS tok FROM f) GROUP BY 1, 2)
  GROUP BY 1),
v AS (
  SELECT f.source,
         CASE WHEN len(f.toks) < 20 THEN 'too_short'
              WHEN CAST(tw.top_c AS DOUBLE) / len(f.toks) > 0.15
                THEN 'repetitive'
              WHEN len(f.words) = 0 OR
                   CAST(len(list_filter(f.words, w -> w IN ('a', 'all', 'an', 'and', 'are', 'as', 'at', 'be', 'but', 'by', 'can', 'for', 'from', 'had', 'in', 'is', 'it', 'not', 'of', 'on', 'or', 'that', 'the', 'there', 'this', 'to', 'was', 'we', 'were', 'what', 'when', 'with')))
                        AS DOUBLE) / len(f.words) < 0.03
                THEN 'low_stopwords'
              ELSE 'pass' END AS verdict
  FROM f JOIN tw USING (doc_id))
SELECT source, verdict, CAST(COUNT(*) AS BIGINT) AS n
FROM v GROUP BY 1, 2
""",
        # token-budget mixing: cumulative BPE token counts in stable-
        # hash order per source, kept while <= budget
        "token_budget_sample": f"""
WITH h AS (
  SELECT doc_id, source,
         CAST(len(regexp_extract_all(text,
              '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]')) AS BIGINT) AS n_tok,
         {_splitmix_sql("doc_id")} AS hh
  FROM documents),
c AS (
  SELECT doc_id, source, n_tok,
         SUM(n_tok) OVER (PARTITION BY source ORDER BY hh, doc_id
                          ROWS UNBOUNDED PRECEDING) AS cum
  FROM h)
SELECT doc_id, source, n_tok, CAST(cum AS BIGINT) AS cum_tok
FROM c WHERE cum <= 1000
""",
        # winsorization: clip into the 6dp-rounded exact [p1, p99] band
        # (quantile_cont == the engine's calibrated np-lerp quantiles)
        "winsorize_events": """
WITH thr AS (
  SELECT event_type,
         round(quantile_cont(value, 0.01), 6) AS lo,
         round(quantile_cont(value, 0.99), 6) AS hi
  FROM events GROUP BY 1)
SELECT e.event_id, e.event_type,
       round(least(greatest(e.value, thr.lo), thr.hi), 6) AS v_wins,
       least(greatest(e.value, thr.lo), thr.hi) != e.value
         AS was_clipped
FROM events e JOIN thr USING (event_type)
""",
        # least-squares trend: all sufficient statistics exact integers
        # (t = seconds relative to the window start, v = cents); the
        # HUGEINT numerator/denominator get ONE cast to double each,
        # mirrored by exact Python-int arithmetic in the engine
        "trend_user_1h": """
WITH c AS (
  SELECT user_id,
         (epoch_us(ts) // 1000000) AS ts_s,
         (epoch_us(ts) // 1000000)
           - (epoch_us(ts) // 1000000) % 3600 AS window_start,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
s AS (
  SELECT user_id, window_start,
         CAST(COUNT(*) AS BIGINT) AS n,
         SUM(ts_s - window_start) AS st,
         SUM(cents) AS sv,
         SUM((ts_s - window_start) * cents) AS stv,
         SUM((ts_s - window_start) * (ts_s - window_start)) AS stt
  FROM c GROUP BY 1, 2)
SELECT user_id, window_start,
       CASE WHEN n >= 2 AND n*stt - st*st > 0
            THEN round(CAST(n*stv - st*sv AS DOUBLE)
                       / CAST(n*stt - st*st AS DOUBLE) / 100.0, 6)
            END AS slope,
       CASE WHEN n >= 2 AND n*stt - st*st > 0
            THEN round(CAST(sv AS DOUBLE) / n / 100.0
                       - (CAST(n*stv - st*sv AS DOUBLE)
                          / CAST(n*stt - st*st AS DOUBLE) / 100.0)
                         * (CAST(st AS DOUBLE) / n), 6)
            END AS intercept,
       n
FROM s
""",
        # trapezoidal TWA: integer numerator Σ dt_us·(c_i + c_{i+1})
        # over (t, event_id)-ordered consecutive pairs inside the cell,
        # one identical float division sequence on both sides; <2-point
        # or zero-span cells are NULL
        "twa_user_1h": """
WITH c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         (epoch_us(ts) // 1000000) - (epoch_us(ts) // 1000000) % 3600
           AS w,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
p AS (
  SELECT user_id, w, t, cents,
         lead(t) OVER win AS t2, lead(cents) OVER win AS c2
  FROM c WINDOW win AS (PARTITION BY user_id, w ORDER BY t, event_id)),
s AS (
  SELECT user_id, w AS window_start,
         SUM(CASE WHEN t2 IS NOT NULL
                  THEN (t2 - t) * (cents + c2) END) AS num,
         MAX(t) - MIN(t) AS span,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM p GROUP BY 1, 2)
SELECT user_id, window_start,
       CASE WHEN n >= 2 AND span > 0
            THEN round(CAST(num AS DOUBLE) / CAST(span AS DOUBLE)
                       / 200.0, 6) END AS twa,
       n
FROM s
""",
        # OHLC: open/close anchored at the (ts, event_id) order extremes
        # inside each (user, hour) cell; exact integer cents throughout
        "ohlc_user_1h": """
WITH c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         (epoch_us(ts) // 1000000) - (epoch_us(ts) // 1000000) % 3600
           AS window_start,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
r AS (
  SELECT *,
         row_number() OVER (PARTITION BY user_id, window_start
                            ORDER BY t, event_id) AS rn_a,
         row_number() OVER (PARTITION BY user_id, window_start
                            ORDER BY t DESC, event_id DESC) AS rn_d
  FROM c)
SELECT user_id, window_start,
       CAST(MAX(CASE WHEN rn_a = 1 THEN cents END) AS DOUBLE) / 100.0
         AS open,
       CAST(MAX(cents) AS DOUBLE) / 100.0 AS high,
       CAST(MIN(cents) AS DOUBLE) / 100.0 AS low,
       CAST(MAX(CASE WHEN rn_d = 1 THEN cents END) AS DOUBLE) / 100.0
         AS close,
       CAST(COUNT(*) AS BIGINT) AS n
FROM r GROUP BY 1, 2
""",
        # overlapping 64-token windows every 48 tokens; final window is
        # the first to reach the end; 1-based inclusive list slices
        "chunk_documents": r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(text, '\s+') AS l,
         len(regexp_split_to_array(text, '\s+')) AS n
  FROM documents),
k AS (
  SELECT doc_id, l, n,
         unnest(generate_series(0,
           CAST(greatest(ceil((n - 64) / 48.0), 0) AS BIGINT))) AS ci
  FROM t)
SELECT doc_id, ci AS chunk_idx,
       CAST(len(l[ci*48 + 1 : least(ci*48 + 64, n)]) AS BIGINT) AS n_tok,
       array_to_string(l[ci*48 + 1 : least(ci*48 + 64, n)], ' ')
         AS chunk_text
FROM k
""",
        # per-user ordered event-type sequences (string_agg ORDER BY)
        "user_event_sequences": """
SELECT user_id,
       string_agg(event_type, '->' ORDER BY ts, event_id) AS seq,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events GROUP BY 1
""",
        # exact NTILE(4) + 0-based global rank over (value, event_id);
        # the engine computes the identical rank from bounded-domain
        # cents counts instead of a global sort
        "value_quartiles": """
SELECT event_id,
       CAST(CAST(round(value*100) AS BIGINT) AS DOUBLE) / 100.0 AS value,
       row_number() OVER (ORDER BY round(value*100), event_id) - 1
         AS rnk,
       CAST(ntile(4) OVER (ORDER BY round(value*100), event_id)
            AS BIGINT) AS quartile
FROM events
""",
        # LAG deltas: cents-exact value diff, micros time diff; first row
        # of each user NULL (LAG default) on both sides
        "lag_deltas_per_user": """
WITH c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events)
SELECT user_id, event_id, t,
       CAST(cents - lag(cents) OVER w AS DOUBLE) / 100.0 AS dv,
       CAST(t - lag(t) OVER w AS DOUBLE) AS dt_us
FROM c WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)
""",
        # PromQL-style reset-aware counter rate: lag deltas in integer
        # cents; a negative delta (reset) contributes the post-reset
        # level; a window whose every event is lag-less sums to NULL.
        # The engine runs the identical /100.0 then /3600.0 divisions.
        "rate_counter_1h": """
WITH c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
d AS (
  SELECT user_id, t, cents,
         cents - lag(cents) OVER (PARTITION BY user_id
                                  ORDER BY t, event_id) AS dc
  FROM c)
SELECT user_id, (t // 1000000) // 3600 * 3600 AS window_start,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN dc IS NULL THEN NULL
                     WHEN dc >= 0 THEN dc ELSE cents END) AS DOUBLE)
         / 100.0 AS increase,
       round((CAST(SUM(CASE WHEN dc IS NULL THEN NULL
                            WHEN dc >= 0 THEN dc ELSE cents END)
              AS DOUBLE) / 100.0) / 3600.0, 6) AS rate_per_s
FROM d GROUP BY 1, 2
""",
        # gaps-and-islands: fixed 300s intervals merge where the start
        # is at or before the running max end; integer-µs coverage
        "interval_coverage": """
WITH c AS (SELECT user_id, epoch_us(ts) AS s,
                  epoch_us(ts) + 300000000 AS e
           FROM events),
m AS (SELECT user_id, s, e,
        CASE WHEN s > max(e) OVER (PARTITION BY user_id ORDER BY s, e
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             THEN 1 ELSE 0 END AS ni
      FROM c),
i AS (SELECT user_id, s, e,
        SUM(ni) OVER (PARTITION BY user_id ORDER BY s, e) AS island
      FROM m),
x AS (SELECT user_id, island, max(e) - min(s) AS len
      FROM i GROUP BY 1, 2)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_intervals,
       CAST(SUM(len) AS BIGINT) AS covered_us
FROM x GROUP BY 1
""",
        # hourly forward-fill grid: one row per boundary inside each
        # user's observed span; ASOF join = latest prior-or-equal
        # observation, microsecond ties to the highest event_id (the
        # rn=1 dedup) — the engine's union-ffill kernel convention
        "resample_ffill_1h": """
WITH c0 AS (
  SELECT user_id, epoch_us(ts) AS t, value,
         row_number() OVER (PARTITION BY user_id, epoch_us(ts)
                            ORDER BY event_id DESC) AS rn
  FROM events),
cd AS (SELECT user_id, t, value FROM c0 WHERE rn = 1),
b AS (SELECT user_id, min(epoch_us(ts)) AS lo, max(epoch_us(ts)) AS hi
      FROM events GROUP BY 1),
g AS (SELECT user_id,
        unnest(generate_series(
          CAST(((lo + 3599999999) // 3600000000) * 3600 AS BIGINT),
          CAST((hi // 3600000000) * 3600 AS BIGINT),
          3600)) AS window_start
      FROM b)
SELECT g.user_id, g.window_start, cd.value
FROM g ASOF JOIN cd
  ON g.user_id = cd.user_id AND g.window_start * 1000000 >= cd.t
""",
        # linear-interp resample: prev neighbor by >= ASOF, next by
        # strict < ASOF (a grid point on an observation gets factor 0 →
        # exactly v_prev on both sides); missing next ⇒ h = t_prev
        "resample_interp_1h": """
WITH c0 AS (
  SELECT user_id, epoch_us(ts) AS t, value,
         row_number() OVER (PARTITION BY user_id, epoch_us(ts)
                            ORDER BY event_id DESC) AS rn
  FROM events),
cd AS (SELECT user_id, t, value FROM c0 WHERE rn = 1),
b AS (SELECT user_id, min(epoch_us(ts)) AS lo, max(epoch_us(ts)) AS hi
      FROM events GROUP BY 1),
g AS (SELECT user_id,
        unnest(generate_series(
          CAST(((lo + 3599999999) // 3600000000) * 3600 AS BIGINT),
          CAST((hi // 3600000000) * 3600 AS BIGINT),
          3600)) AS window_start
      FROM b),
pv AS (
  SELECT g.user_id, g.window_start, cd.t AS tp, cd.value AS vp
  FROM g ASOF JOIN cd
    ON g.user_id = cd.user_id AND g.window_start * 1000000 >= cd.t),
nx AS (
  SELECT g.user_id, g.window_start, cd.t AS tn, cd.value AS vn
  FROM g ASOF LEFT JOIN cd
    ON g.user_id = cd.user_id AND g.window_start * 1000000 < cd.t)
SELECT pv.user_id, pv.window_start,
       round(CASE WHEN nx.tn IS NULL THEN pv.vp
             ELSE pv.vp + (nx.vn - pv.vp)
                  * (CAST(pv.window_start * 1000000 - pv.tp AS DOUBLE)
                     / CAST(nx.tn - pv.tp AS DOUBLE)) END, 6) AS value
FROM pv JOIN nx USING (user_id, window_start)
""",
        # EWMA recursion — the CTE folds 0.5*x + 0.5*y in the engine
        # kernel's exact operand order, so the doubles are bit-identical
        # before the shared 6dp round
        "ewma_per_user": """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events WHERE user_id IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn, value AS y FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn, 0.5 * c.value + 0.5 * r.y
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, round(y, 6) AS ewma FROM r
""",
        # hysteresis alert debounce: conditional integer recursion
        # (1 above hi until dropping below lo), exact by construction
        "alert_hysteresis": """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events WHERE user_id IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn,
         CASE WHEN value > 150.0 THEN 1 ELSE 0 END AS alert
  FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         CASE WHEN c.value > 150.0 THEN 1
              WHEN c.value < 50.0 THEN 0
              ELSE r.alert END
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, CAST(alert AS BIGINT) AS alert FROM r
""",
        # Holt linear smoothing: the two-state recursion seeded
        # l_1 = x_1, b_1 = x_2 - x_1; the CTE's anchor is the rn=2 row
        # (rn=1 emitted separately with NULL trend) and every float op
        # runs in the kernel's exact operand order
        "holt_per_user": """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events WHERE user_id IS NOT NULL),
r AS (
  SELECT c2.user_id, c2.event_id, c2.t, c2.rn,
         0.5 * c2.value + 0.5 * (c1.value + (c2.value - c1.value)) AS l,
         0.5 * ((0.5 * c2.value
                 + 0.5 * (c1.value + (c2.value - c1.value))) - c1.value)
           + 0.5 * (c2.value - c1.value) AS b
  FROM c c2 JOIN c c1
    ON c1.user_id = c2.user_id AND c2.rn = 2 AND c1.rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         0.5 * c.value + 0.5 * (r.l + r.b) AS l,
         0.5 * ((0.5 * c.value + 0.5 * (r.l + r.b)) - r.l) + 0.5 * r.b
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, round(l, 6) AS level, round(b, 6) AS trend
FROM r
UNION ALL
SELECT user_id, event_id, t, round(value, 6) AS level, NULL AS trend
FROM c WHERE rn = 1
""",
        # hour-of-day profile: exact integer cents sums, identical
        # double division sequence (sum/n/100) on both sides
        "seasonal_profile": """
WITH c AS (
  SELECT event_type,
         ((epoch_us(ts) // 1000000) // 3600) % 24 AS hod,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events)
SELECT event_type, hod, CAST(COUNT(*) AS BIGINT) AS n,
       round(CAST(SUM(cents) AS DOUBLE) / COUNT(*) / 100.0, 6)
         AS mean_value
FROM c GROUP BY 1, 2
""",
        # lag-1 autocorrelation: integer-cents sufficient statistics,
        # Pearson formula computed entirely in doubles after a
        # cast-each-stat-first convention mirrored by the kernel;
        # < 2 pairs or zero variance → NULL
        "autocorr_lag1": """
WITH c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
p AS (
  SELECT user_id, cents AS b,
         lag(cents) OVER (PARTITION BY user_id
                          ORDER BY t, event_id) AS a
  FROM c),
s AS (
  SELECT user_id, COUNT(*) AS n, SUM(a) AS sa, SUM(b) AS sb,
         SUM(CAST(a AS HUGEINT)*b) AS sab,
         SUM(CAST(a AS HUGEINT)*a) AS saa,
         SUM(CAST(b AS HUGEINT)*b) AS sbb
  FROM p WHERE a IS NOT NULL GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n_pairs,
       CASE WHEN n >= 2
             AND CAST(n AS DOUBLE)*CAST(saa AS DOUBLE)
                 - CAST(sa AS DOUBLE)*CAST(sa AS DOUBLE) > 0.0
             AND CAST(n AS DOUBLE)*CAST(sbb AS DOUBLE)
                 - CAST(sb AS DOUBLE)*CAST(sb AS DOUBLE) > 0.0
            THEN round((CAST(n AS DOUBLE)*CAST(sab AS DOUBLE)
                        - CAST(sa AS DOUBLE)*CAST(sb AS DOUBLE))
                       / (sqrt(CAST(n AS DOUBLE)*CAST(saa AS DOUBLE)
                               - CAST(sa AS DOUBLE)*CAST(sa AS DOUBLE))
                          * sqrt(CAST(n AS DOUBLE)*CAST(sbb AS DOUBLE)
                                 - CAST(sb AS DOUBLE)*CAST(sb AS DOUBLE))),
                       6)
            END AS r1
FROM s
""",
        # depth-1 binary segmentation: integer-cents prefix sums, the
        # between-segment score (S_s²/s + (S_n−S_s)²/(n−s)) closed in
        # doubles cast-each-stat-first, argmax with the EARLIEST split
        # on double ties
        "changepoint_user": """
WITH c AS (
  SELECT user_id, epoch_us(ts) AS t, event_id,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
o AS (
  SELECT user_id,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY t, event_id) AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS n,
         SUM(cents) OVER (PARTITION BY user_id ORDER BY t, event_id
                          ROWS UNBOUNDED PRECEDING) AS cum,
         SUM(cents) OVER (PARTITION BY user_id) AS stot
  FROM c),
sc AS (
  SELECT user_id, rn, n, stot,
         CAST(cum AS DOUBLE)*CAST(cum AS DOUBLE)/CAST(rn AS DOUBLE)
         + CAST(stot-cum AS DOUBLE)*CAST(stot-cum AS DOUBLE)
           /CAST(n-rn AS DOUBLE) AS score
  FROM o WHERE rn < n)
SELECT user_id, CAST(n AS BIGINT) AS n, CAST(rn AS BIGINT) AS split_pos,
       round((score - CAST(stot AS DOUBLE)*CAST(stot AS DOUBLE)
                      /CAST(n AS DOUBLE))/10000.0, 6) AS gain
FROM sc
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY score DESC, rn) = 1
""",
        # exact matrix profile: every distance is an integer (HUGEINT
        # products), min + smallest-j tie via QUALIFY row_number; only
        # windows fully inside the series pair up, self excluded
        "matrix_profile": _MP_SQL,
        "mp_discords": ("WITH mp AS (" + _MP_SQL + ") "
                        "SELECT user_id, pos, mp_dist2, mp_idx FROM mp "
                        "QUALIFY row_number() OVER (PARTITION BY user_id "
                        "ORDER BY mp_dist2 DESC, pos) = 1"),
        # two-sample KS: integer cohort ECDFs on the shared cents grid,
        # D's numerator |n2*C1 - n1*C2| exact in HUGEINT, argmax with
        # the earliest value on ties, ratio closed in doubles
        "ks_test_weekend": """
WITH c AS (
  SELECT event_type,
         CASE WHEN dayofweek(ts) IN (0, 6) THEN 1 ELSE 0 END AS we,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL),
g AS (
  SELECT event_type, cents,
         SUM(CASE WHEN we = 0 THEN 1 ELSE 0 END) AS c1,
         SUM(CASE WHEN we = 1 THEN 1 ELSE 0 END) AS c2
  FROM c GROUP BY 1, 2),
cum AS (
  SELECT event_type, cents,
         SUM(c1) OVER (PARTITION BY event_type ORDER BY cents
                       ROWS UNBOUNDED PRECEDING) AS C1,
         SUM(c2) OVER (PARTITION BY event_type ORDER BY cents
                       ROWS UNBOUNDED PRECEDING) AS C2
  FROM g),
n AS (SELECT event_type, MAX(C1) AS n1, MAX(C2) AS n2
      FROM cum GROUP BY 1),
d AS (
  SELECT cum.event_type, cum.cents, n.n1, n.n2,
         abs(CAST(n.n2 AS HUGEINT) * cum.C1
             - CAST(n.n1 AS HUGEINT) * cum.C2) AS num
  FROM cum JOIN n USING (event_type)
  WHERE n.n1 > 0 AND n.n2 > 0)
SELECT event_type,
       CAST(n1 AS BIGINT) AS n_weekday, CAST(n2 AS BIGINT) AS n_weekend,
       CAST(num AS BIGINT) AS d_num,
       round(CAST(num AS DOUBLE)
             / (CAST(n1 AS DOUBLE) * CAST(n2 AS DOUBLE)), 6) AS d_stat,
       round(CAST(cents AS DOUBLE) / 100.0, 6) AS at_value
FROM d
QUALIFY row_number() OVER (PARTITION BY event_type
                           ORDER BY num DESC, cents) = 1
""",
        # gaps-and-islands: the kernel's day-delta island boundaries
        # replicate the SQL day − row_number() island id exactly;
        # DISTINCT (user, day) both sides, earliest start on tied
        # lengths, everything integer
        "active_day_streaks": """
WITH d AS (
  SELECT DISTINCT user_id, epoch_us(ts)//1000000//86400 AS day
  FROM events WHERE user_id IS NOT NULL),
g AS (
  SELECT user_id, day,
         day - row_number() OVER (PARTITION BY user_id ORDER BY day)
           AS grp
  FROM d),
s AS (
  SELECT user_id, grp, CAST(COUNT(*) AS BIGINT) AS len,
         CAST(MIN(day) AS BIGINT) AS start_day
  FROM g GROUP BY 1, 2),
n AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_days
  FROM d GROUP BY 1),
b AS (
  SELECT user_id, len AS max_streak, start_day AS streak_start
  FROM s
  QUALIFY row_number() OVER (PARTITION BY user_id
                             ORDER BY len DESC, start_day) = 1)
SELECT n.user_id, n.n_days, b.max_streak, b.streak_start
FROM n JOIN b USING (user_id)
""",
        # Mann-Whitney U: 2·U₁ = Σ(2·c1·C2⁻ + c1·c2) over the shared
        # (type, cents) cohort cells — exact HUGEINT pair counting with
        # ties — plus the tie term T = Σ(t³−t); doubles only in the
        # effect-size ratio and the tie-corrected z, every operand
        # cast-first in the kernel's exact expression order
        "mannwhitney_weekend": """
WITH c AS (
  SELECT event_type,
         CASE WHEN dayofweek(ts) IN (0, 6) THEN 1 ELSE 0 END AS we,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL),
g AS (
  SELECT event_type, cents,
         SUM(CASE WHEN we = 0 THEN 1 ELSE 0 END) AS c1,
         SUM(CASE WHEN we = 1 THEN 1 ELSE 0 END) AS c2
  FROM c GROUP BY 1, 2),
cum AS (
  SELECT event_type, c1, c2,
         COALESCE(SUM(c2) OVER (PARTITION BY event_type ORDER BY cents
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0) AS c2b
  FROM g),
a AS (
  SELECT event_type,
         CAST(SUM(c1) AS BIGINT) AS n1, CAST(SUM(c2) AS BIGINT) AS n2,
         SUM(2 * CAST(c1 AS HUGEINT) * c2b + CAST(c1 AS HUGEINT) * c2)
           AS u2x,
         SUM(CAST(c1 + c2 AS HUGEINT) * (c1 + c2) * (c1 + c2)
             - (c1 + c2)) AS tt
  FROM cum GROUP BY 1),
v AS (
  SELECT event_type, n1, n2, u2x,
         CAST(n1 AS DOUBLE) AS n1d, CAST(n2 AS DOUBLE) AS n2d,
         CAST(n1 + n2 AS DOUBLE) AS nd, CAST(tt AS DOUBLE) AS td
  FROM a WHERE n1 > 0 AND n2 > 0),
w AS (
  SELECT *, CASE WHEN nd >= 2.0 THEN
           ((n1d*n2d)/12.0) * (((nd*nd*nd - nd) - td) / (nd*(nd-1.0)))
         END AS var
  FROM v)
SELECT event_type, n1 AS n_weekday, n2 AS n_weekend,
       CAST(u2x AS BIGINT) AS u_num,
       round((CAST(u2x AS DOUBLE) / 2.0) / (n1d * n2d), 6) AS u_stat,
       CASE WHEN var > 0.0 THEN
         round(((CAST(u2x AS DOUBLE) - n1d*n2d) / 2.0) / sqrt(var), 6)
       END AS z_stat
FROM w
""",
        # Welch's t: HUGEINT moments per (type, weekend), the close in
        # doubles cast-each-stat-first; var/n = ((SS − S·S/n)/(n−1))/n;
        # types missing a cohort drop via the self-join
        "welch_ttest_weekend": """
WITH c AS (
  SELECT event_type,
         CASE WHEN dayofweek(ts) IN (0, 6) THEN 1 ELSE 0 END AS we,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
s AS (
  SELECT event_type, we, COUNT(*) AS n, SUM(cents) AS s,
         SUM(CAST(cents AS HUGEINT)*cents) AS ss
  FROM c GROUP BY 1, 2),
p AS (
  SELECT a.event_type,
         a.n AS n1, a.s AS s1, a.ss AS ss1,
         b.n AS n2, b.s AS s2, b.ss AS ss2
  FROM s a JOIN s b ON a.event_type = b.event_type
  WHERE a.we = 0 AND b.we = 1)
SELECT event_type,
       CAST(n1 AS BIGINT) AS n_weekday,
       CAST(n2 AS BIGINT) AS n_weekend,
       round(CAST(s1 AS DOUBLE)/CAST(n1 AS DOUBLE)/100.0, 6)
         AS mean_weekday,
       round(CAST(s2 AS DOUBLE)/CAST(n2 AS DOUBLE)/100.0, 6)
         AS mean_weekend,
       CASE WHEN n1 >= 2 AND n2 >= 2 AND
                 (CAST(ss1 AS DOUBLE)
                  - CAST(s1 AS DOUBLE)*CAST(s1 AS DOUBLE)
                    /CAST(n1 AS DOUBLE))
                 /CAST(n1 - 1 AS DOUBLE)/CAST(n1 AS DOUBLE)
               + (CAST(ss2 AS DOUBLE)
                  - CAST(s2 AS DOUBLE)*CAST(s2 AS DOUBLE)
                    /CAST(n2 AS DOUBLE))
                 /CAST(n2 - 1 AS DOUBLE)/CAST(n2 AS DOUBLE) > 0.0
            THEN round((CAST(s1 AS DOUBLE)/CAST(n1 AS DOUBLE)
                        - CAST(s2 AS DOUBLE)/CAST(n2 AS DOUBLE))
                       / sqrt((CAST(ss1 AS DOUBLE)
                               - CAST(s1 AS DOUBLE)*CAST(s1 AS DOUBLE)
                                 /CAST(n1 AS DOUBLE))
                              /CAST(n1 - 1 AS DOUBLE)
                              /CAST(n1 AS DOUBLE)
                              + (CAST(ss2 AS DOUBLE)
                                 - CAST(s2 AS DOUBLE)*CAST(s2 AS DOUBLE)
                                   /CAST(n2 AS DOUBLE))
                                /CAST(n2 - 1 AS DOUBLE)
                                /CAST(n2 AS DOUBLE)), 6)
            END AS t_stat
FROM p
""",
        # single-frequency DFT power per user at the daily/weekly
        # calendar periods: per-row cents·cos/sin terms (DuckDB
        # cos/sin == glibc libm == math.cos/sin bit-for-bit, measured
        # 0/200k), ordered left folds via list_reduce, then the
        # identical double close ((cs²+ss²)/n²)/10⁴ rounded 6dp
        "spectral_power": _SPECTRAL_SQL,
        # Shannon entropy per user: p = c/n doubles, x = p·ln p per row
        # (libm == DuckDB ln), −Σ folded in binary type order via
        # list_reduce; null types are excluded on BOTH sides (the
        # kernel's count partial drops them)
        "type_entropy": r"""
WITH c AS (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS c
  FROM events WHERE event_type IS NOT NULL GROUP BY 1, 2),
n AS (SELECT user_id, SUM(c) AS n FROM c GROUP BY 1),
p AS (
  SELECT c.user_id, c.event_type,
         (CAST(c.c AS DOUBLE) / CAST(n.n AS DOUBLE))
           * ln(CAST(c.c AS DOUBLE) / CAST(n.n AS DOUBLE)) AS x
  FROM c JOIN n USING (user_id)),
f AS (SELECT user_id, list(x ORDER BY event_type) AS l,
             CAST(SUM(1) AS BIGINT) AS n_types
      FROM p GROUP BY 1)
SELECT f.user_id, f.n_types, CAST(n.n AS BIGINT) AS n_events,
       round(-list_reduce(f.l, (a, b) -> a + b), 6) AS entropy
FROM f JOIN n ON f.user_id = n.user_id
""",
        # Holt-Winters additive (α=β=0.5, γ=0.25, m=4): see _HW_SQL —
        # scalar phase columns, macro-expanded subexpressions, CAST
        # DOUBLE anchors
        "holt_winters_per_user": _HW_SQL,
        # session-window co-occurrence: the session_windows boundary
        # CTE, sessions reduced to DISTINCT types, unordered pairs via
        # a < b string self-join (binary order == the kernel's sorted
        # type-code order), exact integer counts
        "session_cooccurrence": """
WITH ordered AS (
  SELECT user_id, event_type, epoch_us(ts)//1000000 AS t,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) IS NULL
                   OR epoch_us(ts)//1000000
                      - lag(epoch_us(ts)//1000000) OVER (
                          PARTITION BY user_id
                          ORDER BY ts, event_id) > 1800
              THEN 1 ELSE 0 END AS boundary
  FROM events WHERE user_id IS NOT NULL),
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
FROM pairs GROUP BY 1, 2
""",
        # 1-D Kalman (local-level model, q=1, r=4, p0=1): the CTE
        # carries (x, p) and replays the kernel's exact operand order —
        # p1 = p+1; k = p1/(p1+4); x += k·(z−x); p = (1−k)·p1 — so
        # level and the per-step division gain are bit-identical
        # doubles at 6dp; the first row's gain is NULL
        "kalman_per_user": """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events WHERE user_id IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn, value AS x,
         CAST(1.0 AS DOUBLE) AS p, CAST(NULL AS DOUBLE) AS k
  FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         r.x + ((r.p + 1.0) / ((r.p + 1.0) + 4.0)) * (c.value - r.x),
         (1.0 - ((r.p + 1.0) / ((r.p + 1.0) + 4.0))) * (r.p + 1.0),
         ((r.p + 1.0) / ((r.p + 1.0) + 4.0))
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, round(x, 6) AS level, round(k, 6) AS gain
FROM r
""",
        # Theil-Sen: median of all strict-t pairwise slopes; the slope
        # is a double division of exact integers, and DuckDB
        # quantile_cont(0.5) == np.median bit-for-bit ((a+b)/2 on even
        # counts — NOT the lerp form; measured over 400 trials)
        "theil_sen_slope": """
WITH c AS (
  SELECT user_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
p AS (
  SELECT a.user_id,
         CAST(b.cents - a.cents AS DOUBLE)
           / CAST(b.t - a.t AS DOUBLE) AS sl
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.t > a.t)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_pairs,
       round(quantile_cont(sl, 0.5) * 36000000.0, 6) AS slope_per_hour
FROM p GROUP BY 1
""",
        # all-pairs hourly-total Pearson between the top-20 users:
        # HUGEINT cell moments on the global hour grid (absent hours
        # are true zeros, so Σ/Σ²/Σab come from present cells only),
        # the same cast-each-stat-first close as autocorr_lag1
        # best-lag zero-padded cross-correlation: the same topk/cell
        # CTEs as corr_pairs_hourly, scores Σₕ aₕ·b₍ₕ₊ₗ₎ as HUGEINT
        # sums over the present-cell join (absent grid cells are true
        # zeros so they contribute nothing), the (pair, lag) domain
        # completed with COALESCE 0, argmax via QUALIFY with the
        # smallest lag on integer ties; doubles only in r_best
        "xcorr_best_lag": """
WITH c AS (
  SELECT user_id, (epoch_us(ts)//1000000)//3600 AS h,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
topk AS (
  SELECT user_id FROM (
    SELECT user_id, COUNT(*) AS cnt FROM c GROUP BY 1
    ORDER BY cnt DESC, user_id LIMIT 20)),
cell AS (
  SELECT user_id, h, SUM(cents) AS v FROM c
  WHERE user_id IN (SELECT user_id FROM topk) GROUP BY 1, 2),
en AS (
  SELECT user_id, SUM(CAST(v AS HUGEINT)*v) AS g FROM cell GROUP BY 1),
pairs AS (
  SELECT a.user_id AS ua, b.user_id AS ub
  FROM topk a JOIN topk b ON a.user_id < b.user_id),
lags AS (SELECT unnest(generate_series(-24, 24)) AS lag),
sc AS (
  SELECT x.user_id AS ua, y.user_id AS ub, l.lag,
         SUM(CAST(x.v AS HUGEINT)*y.v) AS s
  FROM cell x
  CROSS JOIN lags l
  JOIN cell y ON y.user_id > x.user_id AND y.h = x.h + l.lag
  GROUP BY 1, 2, 3),
dom AS (
  SELECT p.ua, p.ub, l.lag, COALESCE(sc.s, 0) AS s
  FROM pairs p CROSS JOIN lags l
  LEFT JOIN sc ON sc.ua = p.ua AND sc.ub = p.ub AND sc.lag = l.lag),
best AS (
  SELECT ua, ub, lag, s
  FROM dom
  QUALIFY row_number() OVER (PARTITION BY ua, ub
                             ORDER BY s DESC, lag) = 1)
SELECT b.ua AS user_a, b.ub AS user_b,
       CAST(b.lag AS BIGINT) AS best_lag,
       CAST(b.s AS BIGINT) AS xc_num,
       CASE WHEN ea.g > 0 AND eb.g > 0 THEN
         round(CAST(b.s AS DOUBLE)
               / (sqrt(CAST(ea.g AS DOUBLE))
                  * sqrt(CAST(eb.g AS DOUBLE))), 6)
       END AS r_best
FROM best b JOIN en ea ON ea.user_id = b.ua
            JOIN en eb ON eb.user_id = b.ub
""",
        "corr_pairs_hourly": """
WITH c AS (
  SELECT user_id, (epoch_us(ts)//1000000)//3600 AS h,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
topk AS (
  SELECT user_id FROM (
    SELECT user_id, COUNT(*) AS cnt FROM c GROUP BY 1
    ORDER BY cnt DESC, user_id LIMIT 20)),
span AS (SELECT MIN(h) AS hmin, MAX(h) AS hmax FROM c),
cell AS (
  SELECT user_id, h, SUM(cents) AS v FROM c
  WHERE user_id IN (SELECT user_id FROM topk) GROUP BY 1, 2),
s AS (
  SELECT user_id, SUM(v) AS sa,
         SUM(CAST(v AS HUGEINT)*v) AS saa
  FROM cell GROUP BY 1),
pairs AS (
  SELECT a.user_id AS ua, b.user_id AS ub
  FROM topk a JOIN topk b ON a.user_id < b.user_id),
ab AS (
  SELECT x.user_id AS ua, y.user_id AS ub,
         SUM(CAST(x.v AS HUGEINT)*y.v) AS sab
  FROM cell x JOIN cell y ON x.h = y.h AND x.user_id < y.user_id
  GROUP BY 1, 2),
m AS (
  SELECT p.ua, p.ub, COALESCE(ab.sab, 0) AS sab,
         s1.sa AS sa, s1.saa AS saa, s2.sa AS sb, s2.saa AS sbb,
         (SELECT hmax - hmin + 1 FROM span) AS nh
  FROM pairs p
  LEFT JOIN ab ON ab.ua = p.ua AND ab.ub = p.ub
  JOIN s s1 ON s1.user_id = p.ua
  JOIN s s2 ON s2.user_id = p.ub)
SELECT ua AS user_a, ub AS user_b, CAST(nh AS BIGINT) AS n_hours,
       CASE WHEN nh >= 2
             AND CAST(nh AS DOUBLE)*CAST(saa AS DOUBLE)
                 - CAST(sa AS DOUBLE)*CAST(sa AS DOUBLE) > 0.0
             AND CAST(nh AS DOUBLE)*CAST(sbb AS DOUBLE)
                 - CAST(sb AS DOUBLE)*CAST(sb AS DOUBLE) > 0.0
            THEN round((CAST(nh AS DOUBLE)*CAST(sab AS DOUBLE)
                        - CAST(sa AS DOUBLE)*CAST(sb AS DOUBLE))
                       / (sqrt(CAST(nh AS DOUBLE)*CAST(saa AS DOUBLE)
                               - CAST(sa AS DOUBLE)*CAST(sa AS DOUBLE))
                          * sqrt(CAST(nh AS DOUBLE)*CAST(sbb AS DOUBLE)
                                 - CAST(sb AS DOUBLE)*CAST(sb AS DOUBLE))),
                       6)
            END AS r
FROM m
""",
        # unigram LM log-likelihood: p(term) = count/N over the whole
        # corpus, per-doc Σ ln p folded LEFT TO RIGHT in position order
        # (list_reduce == the engine's position-major fold; ln(x) in
        # DuckDB == libm log(x) bit-for-bit, which the engine calls
        # per VOCAB entry via math.log)
        "unigram_logprob": r"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS l
  FROM documents),
toks AS (
  SELECT doc_id, unnest(l) AS term,
         unnest(generate_series(1, len(l))) AS pos
  FROM d WHERE len(l) > 0),
cnt AS (SELECT term, COUNT(*) AS c FROM toks GROUP BY 1),
tot AS (SELECT CAST(SUM(c) AS DOUBLE) AS n FROM cnt),
lp AS (
  SELECT t.doc_id, t.pos,
         ln(CAST(c.c AS DOUBLE) / (SELECT n FROM tot)) AS lp
  FROM toks t JOIN cnt c USING (term)),
folded AS (
  SELECT doc_id, list(lp ORDER BY pos) AS ll FROM lp GROUP BY 1)
SELECT doc_id, CAST(len(ll) AS BIGINT) AS n_tok,
       round(list_reduce(ll, (a, b) -> a + b), 6) AS logprob,
       round(list_reduce(ll, (a, b) -> a + b) / len(ll), 6)
         AS avg_logprob
FROM folded
""",
        # bigram LM: add-one conditional probs from exact corpus
        # counts; the per-pair ln and the position-ordered left fold
        # replay the kernel's operand order exactly
        "bigram_logprob": r"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS l
  FROM documents),
toks AS (
  SELECT doc_id, unnest(l) AS term,
         unnest(generate_series(1, len(l))) AS pos
  FROM d WHERE len(l) > 0),
bg AS (
  SELECT doc_id, pos, term AS w2,
         lag(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w1
  FROM toks),
bgc AS (
  SELECT w1, w2, COUNT(*) AS cb FROM bg
  WHERE w1 IS NOT NULL GROUP BY 1, 2),
uc AS (SELECT term, COUNT(*) AS cu FROM toks GROUP BY 1),
v AS (SELECT COUNT(*) AS v FROM uc),
lp AS (
  SELECT b.doc_id, b.pos,
         ln(CAST(c.cb + 1 AS DOUBLE)
            / CAST(u.cu + (SELECT v FROM v) AS DOUBLE)) AS lp
  FROM bg b
  JOIN bgc c ON b.w1 = c.w1 AND b.w2 = c.w2
  JOIN uc u ON u.term = b.w1),
folded AS (
  SELECT doc_id, list(lp ORDER BY pos) AS ll FROM lp GROUP BY 1)
SELECT doc_id, CAST(len(ll) AS BIGINT) AS n_pairs,
       round(list_reduce(ll, (a, b) -> a + b), 6) AS logprob,
       round(list_reduce(ll, (a, b) -> a + b) / len(ll), 6)
         AS avg_logprob
FROM folded
""",
        # duplicated spans: a k-token window is DUP when it occurs in
        # >= 2 distinct docs; per-doc counts are exact integers, the
        # close is one rounded double division
        "dup_span_stats": r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(text, '\s+') AS l,
         len(regexp_split_to_array(text, '\s+')) AS n
  FROM documents),
s AS (
  SELECT doc_id, l,
         unnest(generate_series(1, n - 7)) AS i
  FROM t WHERE n >= 8),
sp AS (
  SELECT doc_id, array_to_string(l[i : i + 7], ' ') AS span FROM s),
d AS (
  SELECT span FROM sp GROUP BY span HAVING COUNT(DISTINCT doc_id) >= 2),
per AS (
  SELECT sp.doc_id, CAST(COUNT(*) AS BIGINT) AS n_spans,
         CAST(COUNT(*) FILTER (d.span IS NOT NULL) AS BIGINT) AS n_dup
  FROM sp LEFT JOIN d ON sp.span = d.span
  GROUP BY 1)
SELECT doc_id, n_spans, n_dup,
       round(CAST(n_dup AS DOUBLE) / CAST(n_spans AS DOUBLE), 6)
         AS dup_frac
FROM per
""",
        # BM25: idf = ln(1 + (N-df+0.5)/(df+0.5)) per term (libm), the
        # per-doc score folds the four terms in fixed order; ordering
        # uses the RAW double (ties → doc_id) exactly like the kernel
        "bm25_topk": r"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS l
  FROM documents),
st AS (
  SELECT doc_id, len(l) AS dl,
         len(list_filter(l, x -> x = 'hash'))   AS tf0,
         len(list_filter(l, x -> x = 'join'))   AS tf1,
         len(list_filter(l, x -> x = 'sort'))   AS tf2,
         len(list_filter(l, x -> x = 'window')) AS tf3
  FROM d),
g AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, SUM(dl) AS tot,
         COUNT(*) FILTER (tf0 > 0) AS df0,
         COUNT(*) FILTER (tf1 > 0) AS df1,
         COUNT(*) FILTER (tf2 > 0) AS df2,
         COUNT(*) FILTER (tf3 > 0) AS df3
  FROM st),
terms AS (
  SELECT doc_id,
         ln(1.0 + (CAST(g.n - g.df0 AS DOUBLE) + 0.5)
                  / (CAST(g.df0 AS DOUBLE) + 0.5))
         * (CAST(tf0 AS DOUBLE) * (1.2 + 1.0)
            / (CAST(tf0 AS DOUBLE) + 1.2 * ((1.0 - 0.75)
               + 0.75 * (CAST(dl AS DOUBLE)
                 / (CAST(g.tot AS DOUBLE) / CAST(g.n AS DOUBLE)))))) AS s0,
         ln(1.0 + (CAST(g.n - g.df1 AS DOUBLE) + 0.5)
                  / (CAST(g.df1 AS DOUBLE) + 0.5))
         * (CAST(tf1 AS DOUBLE) * (1.2 + 1.0)
            / (CAST(tf1 AS DOUBLE) + 1.2 * ((1.0 - 0.75)
               + 0.75 * (CAST(dl AS DOUBLE)
                 / (CAST(g.tot AS DOUBLE) / CAST(g.n AS DOUBLE)))))) AS s1,
         ln(1.0 + (CAST(g.n - g.df2 AS DOUBLE) + 0.5)
                  / (CAST(g.df2 AS DOUBLE) + 0.5))
         * (CAST(tf2 AS DOUBLE) * (1.2 + 1.0)
            / (CAST(tf2 AS DOUBLE) + 1.2 * ((1.0 - 0.75)
               + 0.75 * (CAST(dl AS DOUBLE)
                 / (CAST(g.tot AS DOUBLE) / CAST(g.n AS DOUBLE)))))) AS s2,
         ln(1.0 + (CAST(g.n - g.df3 AS DOUBLE) + 0.5)
                  / (CAST(g.df3 AS DOUBLE) + 0.5))
         * (CAST(tf3 AS DOUBLE) * (1.2 + 1.0)
            / (CAST(tf3 AS DOUBLE) + 1.2 * ((1.0 - 0.75)
               + 0.75 * (CAST(dl AS DOUBLE)
                 / (CAST(g.tot AS DOUBLE) / CAST(g.n AS DOUBLE)))))) AS s3
  FROM st, g),
sc AS (SELECT doc_id, (((s0 + s1) + s2) + s3) AS raw FROM terms)
SELECT doc_id, round(raw, 6) AS score
FROM sc ORDER BY raw DESC, doc_id LIMIT 10
""",
        # Croston: the two-state (z, p) recursion anchors at the
        # SECOND demand hour and replays the kernel's operand order;
        # demand sizes and hour gaps are exact integers cast once
        "croston_demand": """
WITH RECURSIVE h AS (
  SELECT user_id, epoch_us(ts) // 3600000000 AS hr,
         CAST(COUNT(*) AS BIGINT) AS d
  FROM events WHERE user_id IS NOT NULL
  GROUP BY 1, 2),
o AS (
  SELECT user_id, hr, d,
         row_number() OVER w AS rn,
         lag(d) OVER w AS pd,
         hr - lag(hr) OVER w AS q,
         COUNT(*) OVER (PARTITION BY user_id) AS nh
  FROM h WINDOW w AS (PARTITION BY user_id ORDER BY hr)),
r AS (
  SELECT user_id, rn, nh,
         CAST(pd AS DOUBLE)
           + 0.2 * (CAST(d AS DOUBLE) - CAST(pd AS DOUBLE)) AS z,
         CAST(q AS DOUBLE) AS p
  FROM o WHERE rn = 2
  UNION ALL
  SELECT o.user_id, o.rn, o.nh,
         r.z + 0.2 * (CAST(o.d AS DOUBLE) - r.z),
         r.p + 0.2 * (CAST(o.q AS DOUBLE) - r.p)
  FROM o JOIN r ON o.user_id = r.user_id AND o.rn = r.rn + 1)
SELECT user_id, CAST(nh AS BIGINT) AS n_hours,
       round(z, 6) AS level, round(p, 6) AS smooth_interval,
       round(z / p, 6) AS forecast
FROM r WHERE rn = nh
""",
        # DSIR: per-term λ = ln(p_target) − ln(p_raw) (two libm lns,
        # add-one smoothing over the shared vocab), folded per doc in
        # position order — the kernel's exact operand order
        "dsir_weights": r"""
WITH d AS (
  SELECT doc_id, lang, regexp_extract_all(lower(text), '[a-z]+') AS l
  FROM documents),
toks AS (
  SELECT doc_id, lang, unnest(l) AS term,
         unnest(generate_series(1, len(l))) AS pos
  FROM d WHERE len(l) > 0),
rc AS (SELECT term, COUNT(*) AS cr FROM toks GROUP BY 1),
tc AS (SELECT term, COUNT(*) AS ct FROM toks
       WHERE lang = 'en' GROUP BY 1),
consts AS (
  SELECT (SELECT COUNT(*) FROM rc) AS v,
         (SELECT SUM(cr) FROM rc) AS nr,
         (SELECT COALESCE(SUM(ct), 0) FROM tc) AS nt),
lam AS (
  SELECT rc.term,
         ln(CAST(COALESCE(tc.ct, 0) + 1 AS DOUBLE)
            / CAST(c.nt + c.v AS DOUBLE))
         - ln(CAST(rc.cr + 1 AS DOUBLE)
              / CAST(c.nr + c.v AS DOUBLE)) AS lam
  FROM rc LEFT JOIN tc USING (term), consts c),
lp AS (SELECT t.doc_id, t.pos, l.lam FROM toks t JOIN lam l USING (term)),
folded AS (
  SELECT doc_id, list(lam ORDER BY pos) AS ll FROM lp GROUP BY 1)
SELECT doc_id, CAST(len(ll) AS BIGINT) AS n_tok,
       round(list_reduce(ll, (a, b) -> a + b), 6) AS log_weight,
       round(list_reduce(ll, (a, b) -> a + b) / len(ll), 6)
         AS avg_log_weight
FROM folded
""",
        # Hurst R/S: w-scaled centering keeps every block statistic in
        # exact integers (y sums to zero per block), R/S closes as a
        # fixed double chain, block means fold in blk order, and the
        # 3-point slope replays the kernel's exact expression
        "hurst_rs": """
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
ws AS (SELECT unnest([8, 16, 32]) AS w),
b AS (
  SELECT c.user_id, ws.w, c.cents, c.rn, c.nk,
         (c.rn - 1) // ws.w AS blk
  FROM c, ws WHERE c.rn <= (c.nk // ws.w) * ws.w),
yb AS (
  SELECT user_id, w, blk, rn, nk,
         CAST(w AS BIGINT) * cents
           - SUM(cents) OVER (PARTITION BY user_id, w, blk) AS y
  FROM b),
cd AS (
  SELECT user_id, w, blk, nk, y,
         SUM(y) OVER (PARTITION BY user_id, w, blk ORDER BY rn
                      ROWS UNBOUNDED PRECEDING) AS cdev
  FROM yb),
blkstat AS (
  SELECT user_id, w, blk, MAX(nk) AS nk,
         MAX(cdev) - MIN(cdev) AS rng,
         SUM(CAST(y AS HUGEINT) * y) AS ss
  FROM cd GROUP BY 1, 2, 3),
rs AS (
  SELECT user_id, w, blk, nk,
         (CAST(rng AS DOUBLE) / CAST(w AS DOUBLE))
           / sqrt(CAST(ss AS DOUBLE) / CAST(w*w*w AS DOUBLE)) AS rs
  FROM blkstat WHERE ss > 0),
mw AS (
  SELECT user_id, w, MAX(nk) AS nk,
         list_reduce(list(rs ORDER BY blk), (a, b) -> a + b)
           / COUNT(*) AS mean_rs
  FROM rs GROUP BY 1, 2),
piv AS (
  SELECT user_id, MAX(nk) AS n,
         MAX(CASE WHEN w = 8 THEN ln(mean_rs) END) AS y1,
         MAX(CASE WHEN w = 16 THEN ln(mean_rs) END) AS y2,
         MAX(CASE WHEN w = 32 THEN ln(mean_rs) END) AS y3
  FROM mw GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n,
       round((3.0 * ((ln(8.0)*y1 + ln(16.0)*y2) + ln(32.0)*y3)
              - ((ln(8.0)+ln(16.0))+ln(32.0)) * ((y1+y2)+y3))
             / (3.0 * ((ln(8.0)*ln(8.0) + ln(16.0)*ln(16.0))
                       + ln(32.0)*ln(32.0))
                - ((ln(8.0)+ln(16.0))+ln(32.0))
                  * ((ln(8.0)+ln(16.0))+ln(32.0))), 6) AS hurst
FROM piv
WHERE y1 IS NOT NULL AND y2 IS NOT NULL AND y3 IS NOT NULL
""",
        # Mann-Kendall: S is a pure integer pair-sign sum over the
        # i<j self-join; tau-a closes as one exact-int double division
        "mann_kendall": """
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
p AS (
  SELECT a.user_id, MAX(a.nk) AS n,
         CAST(SUM(CASE WHEN b.cents > a.cents THEN 1
                       WHEN b.cents < a.cents THEN -1 ELSE 0 END)
              AS BIGINT) AS s_stat
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.rn > a.rn
  GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n, s_stat,
       round(CAST(2 * s_stat AS DOUBLE)
             / CAST(n * (n - 1) AS DOUBLE), 6) AS tau
FROM p
""",
        # Spearman trend: r2x = 2·rn (unique time ranks), r2y =
        # 2·min_rank + tie_count − 1 (2-scaled average rank, exact
        # integer); moments are HUGEINT, the close is the autocorr
        # cast-first chain
        "spearman_trend": """
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL),
r AS (
  SELECT user_id, 2 * rn AS r2x,
         2 * RANK() OVER (PARTITION BY user_id ORDER BY cents)
           + COUNT(*) OVER (PARTITION BY user_id, cents) - 1 AS r2y
  FROM c),
s AS (
  SELECT user_id, COUNT(*) AS n, SUM(r2x) AS sx, SUM(r2y) AS sy,
         SUM(CAST(r2x AS HUGEINT) * r2y) AS sxy,
         SUM(CAST(r2x AS HUGEINT) * r2x) AS sxx,
         SUM(CAST(r2y AS HUGEINT) * r2y) AS syy
  FROM r GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n,
       CASE WHEN CAST(n AS DOUBLE)*CAST(sxx AS DOUBLE)
                 - CAST(sx AS DOUBLE)*CAST(sx AS DOUBLE) > 0.0
             AND CAST(n AS DOUBLE)*CAST(syy AS DOUBLE)
                 - CAST(sy AS DOUBLE)*CAST(sy AS DOUBLE) > 0.0
            THEN round((CAST(n AS DOUBLE)*CAST(sxy AS DOUBLE)
                        - CAST(sx AS DOUBLE)*CAST(sy AS DOUBLE))
                       / (sqrt(CAST(n AS DOUBLE)*CAST(sxx AS DOUBLE)
                               - CAST(sx AS DOUBLE)*CAST(sx AS DOUBLE))
                          * sqrt(CAST(n AS DOUBLE)*CAST(syy AS DOUBLE)
                                 - CAST(sy AS DOUBLE)*CAST(sy AS DOUBLE))),
                       6)
       END AS rho
FROM s WHERE n >= 2
""",
        # Q14 shape: revenue stays in exact 1e-4-dollar integers
        # through the join; three double closes
        "promo_revenue_share": """
WITH li AS (
  SELECT l_partkey,
         CAST(round(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l_discount*100) AS BIGINT)) AS rev4
  FROM lineitem),
j AS (SELECT rev4, p_type FROM li JOIN part ON l_partkey = p_partkey),
s AS (
  SELECT SUM(CAST(CASE WHEN p_type = 'PROMO' THEN rev4 ELSE 0 END
             AS HUGEINT)) AS prom,
         SUM(CAST(rev4 AS HUGEINT)) AS tot
  FROM j)
SELECT round(CAST(prom AS DOUBLE) / 10000.0, 6) AS promo_rev,
       round(CAST(tot AS DOUBLE) / 10000.0, 6) AS total_rev,
       round(100.0 * CAST(prom AS DOUBLE) / CAST(tot AS DOUBLE), 6)
         AS promo_share
FROM s
""",
        # Q12 shape: pure integer indicator counts after the equi-join
        "late_shipment_priority": """
SELECT o_orderpriority,
       CAST(COUNT(*) FILTER (epoch_us(l_shipdate)
              > epoch_us(o_orderdate) + 7776000000000) AS BIGINT)
         AS late_count,
       CAST(COUNT(*) FILTER (epoch_us(l_shipdate)
              <= epoch_us(o_orderdate) + 7776000000000) AS BIGINT)
         AS ontime_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1
""",
        # Grubbs: |y| = |n·c − Σc| ranks the extreme row exactly (tie
        # → smallest event_id); Σy² = n²Σc² − nS² stays integral; the
        # close is (M/n)/√(D/(n²(n−1)))
        "grubbs_test": """
WITH c AS (
  SELECT event_type, event_id, value,
         CAST(round(value*100) AS BIGINT) AS cents,
         COUNT(*) OVER (PARTITION BY event_type) AS nk,
         SUM(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY event_type) AS s,
         SUM(CAST(round(value*100) AS HUGEINT)
             * CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY event_type) AS sc2
  FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL),
y AS (
  SELECT event_type, event_id, value, nk, s, sc2,
         abs(CAST(nk AS BIGINT) * cents - s) AS ay,
         row_number() OVER (PARTITION BY event_type
             ORDER BY abs(CAST(nk AS BIGINT) * cents - s) DESC,
                      event_id) AS rk
  FROM c),
top AS (SELECT * FROM y WHERE rk = 1 AND nk >= 3)
SELECT event_type, CAST(nk AS BIGINT) AS n,
       event_id AS outlier_event_id, value AS outlier_value,
       round((CAST(ay AS DOUBLE) / CAST(nk AS DOUBLE))
             / sqrt(CAST(CAST(nk AS HUGEINT)*nk*sc2
                         - CAST(nk AS HUGEINT)*s*s AS DOUBLE)
                    / CAST(CAST(nk AS HUGEINT)*nk*(nk-1) AS DOUBLE)),
             6) AS g_stat
FROM top
WHERE CAST(nk AS HUGEINT)*nk*sc2 - CAST(nk AS HUGEINT)*s*s > 0
""",
        # char entropy: H = ln n − (Σ c·ln c)/n with the Σ folded in
        # codepoint order (UTF-8 byte order == codepoint order)
        "char_entropy": """
WITH d AS (
  SELECT doc_id, string_split(text, '') AS l
  FROM documents WHERE length(text) > 0),
ch AS (SELECT doc_id, unnest(l) AS ch FROM d),
cc AS (
  SELECT doc_id, ch, CAST(COUNT(*) AS BIGINT) AS c
  FROM ch GROUP BY 1, 2),
f AS (
  SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n,
         CAST(COUNT(*) AS BIGINT) AS nd,
         list_reduce(list(CAST(c AS DOUBLE) * ln(CAST(c AS DOUBLE))
                          ORDER BY ch), (a, b) -> a + b) AS s
  FROM cc GROUP BY 1)
SELECT doc_id, n AS n_cp, nd AS n_distinct,
       round(ln(CAST(n AS DOUBLE)) - s / CAST(n AS DOUBLE), 6)
         AS entropy
FROM f
""",
        # drift chi-square: expected counts are exact-integer ratios
        # cast once; the per-bin terms fold in ascending bin order
        "drift_chi2": """
WITH c AS (
  SELECT event_type, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS nk
  FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY event_type
               ORDER BY epoch_us(ts), event_id)),
b AS (
  SELECT event_type, nk,
         CASE WHEN rn <= nk // 2 THEN 0 ELSE 1 END AS half,
         LEAST(GREATEST(cents // 1000, 0), 19) AS bin
  FROM c WHERE nk >= 2),
cells AS (
  SELECT event_type, bin, MAX(nk) AS nk,
         MAX(nk) // 2 AS n1, MAX(nk) - MAX(nk) // 2 AS n2,
         CAST(COUNT(*) FILTER (half = 0) AS BIGINT) AS o1,
         CAST(COUNT(*) FILTER (half = 1) AS BIGINT) AS o2
  FROM b GROUP BY 1, 2),
terms AS (
  SELECT event_type, bin, nk,
         (CAST(o1 AS DOUBLE)
            - CAST(n1 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         * (CAST(o1 AS DOUBLE)
            - CAST(n1 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         / (CAST(n1 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         + (CAST(o2 AS DOUBLE)
            - CAST(n2 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         * (CAST(o2 AS DOUBLE)
            - CAST(n2 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         / (CAST(n2 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE)) AS t
  FROM cells),
f AS (
  SELECT event_type, MAX(nk) AS n,
         CAST(COUNT(*) AS BIGINT) AS nbins,
         list_reduce(list(t ORDER BY bin), (a, b) -> a + b) AS chi2
  FROM terms GROUP BY 1)
SELECT event_type, CAST(n AS BIGINT) AS n, nbins - 1 AS dof,
       round(chi2, 6) AS chi2
FROM f
""",
        # embedding dim stats: q = round(x·10⁶) makes the float32
        # column's moments exact integers; D = nΣq² − S² closes with
        # one sqrt chain per dim
        "embedding_dim_stats": """
WITH e AS (
  SELECT unnest(embedding) AS x,
         unnest(generate_series(1, len(embedding))) AS pos
  FROM embeddings),
q AS (
  SELECT pos,
         CAST(round(CAST(x AS DOUBLE) * 1000000) AS BIGINT) AS q
  FROM e),
s AS (
  SELECT pos, COUNT(*) AS n, SUM(q) AS s,
         SUM(CAST(q AS HUGEINT) * q) AS s2,
         MIN(q) AS mn, MAX(q) AS mx
  FROM q GROUP BY 1)
SELECT CAST(pos AS BIGINT) AS pos, CAST(n AS BIGINT) AS n,
       round((CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / 1000000.0, 6)
         AS mean,
       CASE WHEN n >= 2
             AND CAST(n AS HUGEINT)*s2 - CAST(s AS HUGEINT)*s > 0
            THEN round(sqrt(CAST(CAST(n AS HUGEINT)*s2
                                 - CAST(s AS HUGEINT)*s AS DOUBLE)
                            / CAST(n*(n-1) AS DOUBLE))
                       / 1000000.0, 6)
       END AS std,
       round(CAST(mn AS DOUBLE) / 1000000.0, 6) AS vmin,
       round(CAST(mx AS DOUBLE) / 1000000.0, 6) AS vmax
FROM s
""",
        # int8 quantization: scale/max are order-free double ops, the
        # MSE numerator folds in position order via list_reduce
        "embedding_quantize": """
WITH b AS (
  SELECT vec_id, embedding, len(embedding) AS dim,
         list_max(list_transform(embedding,
                                 x -> abs(CAST(x AS DOUBLE)))) / 127.0
           AS scale
  FROM embeddings WHERE len(embedding) > 0),
e AS (
  SELECT vec_id, dim, scale,
         CASE WHEN scale > 0 THEN
           list_transform(embedding, x -> CAST(x AS DOUBLE)
             - round(CAST(x AS DOUBLE) / scale) * scale)
         ELSE list_transform(embedding, x -> 0.0) END AS err
  FROM b)
SELECT vec_id, CAST(dim AS BIGINT) AS dim, round(scale, 6) AS scale,
       round(list_max(list_transform(err, v -> abs(v))), 6)
         AS max_abs_err,
       round(list_reduce(list_transform(err, v -> v * v),
                         (a, b) -> a + b) / CAST(dim AS BIGINT), 6)
         AS mse
FROM e
""",
        # Heaps: cumulative token/vocab counts are exact integers in
        # doc order; the four LS sums fold in the same order with libm
        # lns and close in the zipf expression
        "heaps_law": r"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS l
  FROM documents),
toks AS (SELECT doc_id, unnest(l) AS term FROM d WHERE len(l) > 0),
nt AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tok
       FROM toks GROUP BY 1),
fo AS (SELECT term, MIN(doc_id) AS fdoc FROM toks GROUP BY 1),
nv AS (SELECT fdoc AS doc_id, CAST(COUNT(*) AS BIGINT) AS new_terms
       FROM fo GROUP BY 1),
pts AS (
  SELECT nt.doc_id,
         SUM(nt.n_tok) OVER (ORDER BY nt.doc_id) AS cn,
         SUM(COALESCE(nv.new_terms, 0)) OVER (ORDER BY nt.doc_id) AS cv
  FROM nt LEFT JOIN nv USING (doc_id)),
xy AS (
  SELECT doc_id, ln(CAST(cn AS DOUBLE)) AS x,
         ln(CAST(cv AS DOUBLE)) AS y
  FROM pts),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         list_reduce(list(x ORDER BY doc_id), (a, b) -> a + b) AS sx,
         list_reduce(list(y ORDER BY doc_id), (a, b) -> a + b) AS sy,
         list_reduce(list(x*x ORDER BY doc_id), (a, b) -> a + b) AS sxx,
         list_reduce(list(x*y ORDER BY doc_id), (a, b) -> a + b) AS sxy
  FROM xy)
SELECT n AS n_points,
       round((CAST(n AS DOUBLE)*sxy - sx*sy)
             / (CAST(n AS DOUBLE)*sxx - sx*sx), 6) AS beta,
       round((sy - ((CAST(n AS DOUBLE)*sxy - sx*sy)
                    / (CAST(n AS DOUBLE)*sxx - sx*sx)) * sx)
             / CAST(n AS DOUBLE), 6) AS ln_k
FROM m
""",
        # distinct-n: exact gram occurrence/distinct counts, one
        # rounded division per n
        "distinct_ngrams": r"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS l
  FROM documents),
toks AS (
  SELECT doc_id, unnest(l) AS term,
         unnest(generate_series(1, len(l))) AS pos
  FROM d WHERE len(l) > 0),
w AS (
  SELECT doc_id, term AS t1,
         lead(term, 1) OVER win AS t2,
         lead(term, 2) OVER win AS t3
  FROM toks WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
g AS (
  SELECT 1 AS n, t1 AS gram FROM w
  UNION ALL
  SELECT 2, t1 || ' ' || t2 FROM w WHERE t2 IS NOT NULL
  UNION ALL
  SELECT 3, t1 || ' ' || t2 || ' ' || t3 FROM w WHERE t3 IS NOT NULL)
SELECT CAST(n AS BIGINT) AS n, CAST(COUNT(*) AS BIGINT) AS total,
       CAST(COUNT(DISTINCT gram) AS BIGINT) AS n_distinct,
       round(CAST(COUNT(DISTINCT gram) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS distinct_ratio
FROM g GROUP BY 1
""",
        # OOV: top-K vocab by (count DESC, term ASC); per-doc integer
        # counts, one rounded division
        "oov_rate": r"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS l
  FROM documents),
toks AS (SELECT doc_id, unnest(l) AS term FROM d WHERE len(l) > 0),
cnt AS (SELECT term, COUNT(*) AS c FROM toks GROUP BY 1),
topk AS (SELECT term FROM cnt ORDER BY c DESC, term LIMIT 1000),
per AS (
  SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tok,
         CAST(COUNT(*) FILTER (k.term IS NULL) AS BIGINT) AS n_oov
  FROM toks t LEFT JOIN topk k ON t.term = k.term
  GROUP BY 1)
SELECT doc_id, n_tok, n_oov,
       round(CAST(n_oov AS DOUBLE) / CAST(n_tok AS DOUBLE), 6)
         AS oov_rate
FROM per
""",
        # α-mixing: pow is libm on both sides; the normalizing mass
        # folds in source order; doc totals stay exact integers
        "source_mix_weights": """
WITH c AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs
  FROM documents WHERE source IS NOT NULL GROUP BY 1),
m AS (
  SELECT source, n_docs,
         pow(CAST(n_docs AS DOUBLE), 0.7) AS mass
  FROM c),
t AS (
  SELECT list_reduce(list(mass ORDER BY source), (a, b) -> a + b)
           AS tm,
         SUM(n_docs) AS td
  FROM m)
SELECT m.source, m.n_docs,
       round(m.mass / t.tm, 6) AS weight,
       round((m.mass / t.tm)
             / (CAST(m.n_docs AS DOUBLE) / CAST(t.td AS DOUBLE)), 6)
         AS boost
FROM m, t
""",
        # seasonal bands: quantile_cont == the calibrated lerp bitwise
        "seasonal_quantiles": """
SELECT event_type,
       (epoch_us(ts) // 3600000000) % 24 AS hod,
       round(quantile_cont(value, 0.1), 6) AS p10,
       round(quantile_cont(value, 0.5), 6) AS p50,
       round(quantile_cont(value, 0.9), 6) AS p90
FROM events
GROUP BY 1, 2
""",
        # rank family: ascending exact-cents totals; RANK min-ties,
        # PERCENT_RANK (r−1)/(n−1), CUME_DIST run-end/n
        "user_value_ranks": """
WITH s AS (
  SELECT user_id, SUM(CAST(round(value*100) AS BIGINT)) AS cents
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  GROUP BY 1)
SELECT user_id,
       round(CAST(cents AS DOUBLE) / 100.0, 6) AS total_value,
       CAST(rank() OVER w AS BIGINT) AS rnk,
       round(percent_rank() OVER w, 6) AS pct_rank,
       round(cume_dist() OVER w, 6) AS cume
FROM s WINDOW w AS (ORDER BY cents)
""",
        # PACF: the same n-scaled HUGEINT ACF moments as ljung_box;
        # Durbin-Levinson closes as fixed double chains per user
        "pacf_lags": """
WITH c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents,
         COUNT(*) OVER (PARTITION BY user_id) AS nk,
         SUM(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY user_id) AS s
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL),
y AS (
  SELECT user_id, nk, event_id, t,
         CAST(nk AS HUGEINT) * cents - s AS y
  FROM c),
p AS (
  SELECT user_id, nk, y,
         lead(y, 1) OVER w AS y1, lead(y, 2) OVER w AS y2,
         lead(y, 3) OVER w AS y3
  FROM y WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
s AS (
  SELECT user_id, MAX(nk) AS n, SUM(y*y) AS d,
         SUM(y*y1) AS m1, SUM(y*y2) AS m2, SUM(y*y3) AS m3
  FROM p GROUP BY 1),
r AS (
  SELECT user_id, n,
         CAST(m1 AS DOUBLE)/CAST(d AS DOUBLE) AS r1,
         CAST(m2 AS DOUBLE)/CAST(d AS DOUBLE) AS r2,
         CAST(m3 AS DOUBLE)/CAST(d AS DOUBLE) AS r3
  FROM s WHERE n >= 10 AND d > 0),
dl AS (
  SELECT user_id, n, r1, r2, r3,
         (r2 - r1*r1) / (1.0 - r1*r1) AS p22
  FROM r),
dl2 AS (
  SELECT user_id, n, r1, r2, r3, p22,
         r1 - p22*r1 AS p21
  FROM dl)
SELECT user_id, CAST(n AS BIGINT) AS n,
       round(r1, 6) AS pacf1,
       round(p22, 6) AS pacf2,
       round((r3 - p21*r2 - p22*r1)
             / (1.0 - p21*r1 - p22*r2), 6) AS pacf3
FROM dl2
""",
        # Q4 shape: EXISTS via the distinct late-orderkey set
        "order_priority_check": """
SELECT o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS late_orders
FROM orders o
WHERE EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey
    AND epoch_us(l.l_shipdate)
        > epoch_us(o.o_orderdate) + 7776000000000)
GROUP BY 1
""",
        # isotonic: ŷ_i = max_{j≤i} min_{k≥i} mean(x[j..k]) — the
        # exact minimax form of the PAVA solution; interval means are
        # integer prefix-sum ratios, the extrema are window functions
        "isotonic_fit": """
WITH c AS (
  SELECT user_id, event_id,
         CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
ps AS (
  SELECT user_id, event_id, rn, cents,
         SUM(cents) OVER (PARTITION BY user_id ORDER BY rn) AS s
  FROM c),
pairs AS (
  SELECT a.user_id, a.rn AS j, b.rn AS k,
         CAST(b.s - (a.s - a.cents) AS DOUBLE)
           / CAST(b.rn - a.rn + 1 AS DOUBLE) AS mean_jk
  FROM ps a JOIN ps b ON a.user_id = b.user_id AND b.rn >= a.rn),
mn AS (
  SELECT user_id, j, k,
         MIN(mean_jk) OVER (PARTITION BY user_id, j ORDER BY k DESC
                            ROWS UNBOUNDED PRECEDING) AS m
  FROM pairs),
mx AS (
  SELECT user_id, j, k,
         MAX(m) OVER (PARTITION BY user_id, k ORDER BY j
                      ROWS UNBOUNDED PRECEDING) AS f
  FROM mn)
SELECT c.user_id, c.event_id, round(mx.f / 100.0, 6) AS fitted
FROM mx JOIN c ON c.user_id = mx.user_id AND c.rn = mx.k
WHERE mx.j = mx.k
""",
        # next higher: t is non-decreasing in rn, so the first higher
        # row is also the min-t higher row — MIN(b.t) − a.t
        "next_higher_event": """
WITH c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id))
SELECT a.user_id, a.event_id,
       MIN(b.t) - a.t AS wait_us
FROM c a LEFT JOIN c b
  ON a.user_id = b.user_id AND b.rn > a.rn AND b.cents > a.cents
GROUP BY a.user_id, a.event_id, a.t
""",
        # path mining: pure integer trigram counts, deterministic ties
        "top_event_paths": """
WITH c AS (
  SELECT user_id, event_type,
         lead(event_type, 1) OVER w AS e2,
         lead(event_type, 2) OVER w AS e3
  FROM events WHERE user_id IS NOT NULL
  WINDOW w AS (PARTITION BY user_id
               ORDER BY epoch_us(ts), event_id)),
p AS (
  SELECT event_type || '>' || e2 || '>' || e3 AS path
  FROM c WHERE e2 IS NOT NULL AND e3 IS NOT NULL),
g AS (SELECT path, CAST(COUNT(*) AS BIGINT) AS cnt FROM p GROUP BY 1)
SELECT path, cnt FROM g ORDER BY cnt DESC, path LIMIT 10
""",
        # lexical richness: the same (source, term) count cells as
        # source_kl; types/tokens/hapax are integer reductions, the
        # two ratios close as single cast-first double divisions
        "lexical_richness": r"""
WITH toks AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '[a-z]+'))
           AS term
  FROM documents WHERE source IS NOT NULL),
cst AS (
  SELECT source, term, CAST(COUNT(*) AS BIGINT) AS c
  FROM toks GROUP BY 1, 2)
SELECT source,
       CAST(SUM(c) AS BIGINT) AS n_tokens,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_hapax,
       round(CAST(COUNT(*) AS DOUBLE) / CAST(SUM(c) AS DOUBLE), 6)
         AS ttr,
       round(CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS DOUBLE)
               / CAST(COUNT(*) AS DOUBLE), 6) AS hapax_ratio
FROM cst GROUP BY 1
""",
        # Tukey fences: quantile_cont == the kernel's calibrated lerp
        # bitwise, so the fence expressions (q1 − 1.5·(q3−q1), q3 +
        # 1.5·(q3−q1)) compare raw doubles identically on both sides
        "tukey_fences": """
WITH c AS (
  SELECT user_id, value FROM events
  WHERE user_id IS NOT NULL AND value IS NOT NULL),
q AS (
  SELECT user_id, quantile_cont(value, 0.25) AS q1,
         quantile_cont(value, 0.75) AS q3,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM c GROUP BY 1)
SELECT q.user_id, q.n, round(q.q1, 6) AS q1, round(q.q3, 6) AS q3,
       CAST(COUNT(*) FILTER (c.value < q.q1 - 1.5*(q.q3 - q.q1)
              OR c.value > q.q3 + 1.5*(q.q3 - q.q1)) AS BIGINT)
         AS n_outliers
FROM q JOIN c USING (user_id)
GROUP BY 1, 2, 3, 4
""",
        # peaks: lag/lead window compares + one double subtraction per
        # row, all on raw doubles — no float fold to certify
        "peak_detection": """
WITH c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t, value,
         lag(value) OVER w AS pv, lead(value) OVER w AS nv
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id))
SELECT user_id, event_id, t, value,
       round(value - GREATEST(pv, nv), 6) AS prom
FROM c
WHERE pv IS NOT NULL AND nv IS NOT NULL
  AND value > pv AND value > nv
  AND value - GREATEST(pv, nv) >= 0.5
""",
        # Haar lifting: pair sums/differences are exact BIGINT cents,
        # Σd² is HUGEINT, the close is one double divide per cell
        "haar_energy": """
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
base AS (SELECT user_id, cents, rn FROM c WHERE rn <= nk - nk % 8),
l1 AS (
  SELECT user_id, (rn + 1) // 2 AS rn, SUM(cents) AS s,
         SUM(CASE WHEN rn % 2 = 1 THEN cents ELSE -cents END) AS d
  FROM base GROUP BY 1, 2),
l2 AS (
  SELECT user_id, (rn + 1) // 2 AS rn, SUM(s) AS s,
         SUM(CASE WHEN rn % 2 = 1 THEN s ELSE -s END) AS d
  FROM l1 GROUP BY 1, 2),
l3 AS (
  SELECT user_id, (rn + 1) // 2 AS rn, SUM(s) AS s,
         SUM(CASE WHEN rn % 2 = 1 THEN s ELSE -s END) AS d
  FROM l2 GROUP BY 1, 2),
e AS (
  SELECT user_id, 1 AS level, COUNT(*) AS n_coef,
         SUM(CAST(d AS HUGEINT) * d) AS e2 FROM l1 GROUP BY 1
  UNION ALL
  SELECT user_id, 2, COUNT(*), SUM(CAST(d AS HUGEINT) * d)
  FROM l2 GROUP BY 1
  UNION ALL
  SELECT user_id, 3, COUNT(*), SUM(CAST(d AS HUGEINT) * d)
  FROM l3 GROUP BY 1)
SELECT user_id, CAST(level AS BIGINT) AS level,
       CAST(n_coef AS BIGINT) AS n_coef,
       round(CAST(e2 AS DOUBLE)
               / (CAST(1 << level AS DOUBLE) * 10000.0), 6) AS energy
FROM e
""",
        # Ljung-Box: y = n·c − Σc keeps mean-centering in exact
        # integers (n² cancels in ρ); lag moments are HUGEINT; the
        # close casts each moment to double first and folds the five
        # terms ascending — the kernel's exact operand order
        "ljung_box": """
WITH c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents,
         COUNT(*) OVER (PARTITION BY user_id) AS nk,
         SUM(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY user_id) AS s
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL),
y AS (
  SELECT user_id, nk, event_id, t,
         CAST(nk AS HUGEINT) * cents - s AS y
  FROM c),
p AS (
  SELECT user_id, nk, y,
         lead(y, 1) OVER w AS y1, lead(y, 2) OVER w AS y2,
         lead(y, 3) OVER w AS y3, lead(y, 4) OVER w AS y4,
         lead(y, 5) OVER w AS y5
  FROM y WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
s AS (
  SELECT user_id, MAX(nk) AS n, SUM(y*y) AS d,
         SUM(y*y1) AS m1, SUM(y*y2) AS m2, SUM(y*y3) AS m3,
         SUM(y*y4) AS m4, SUM(y*y5) AS m5
  FROM p GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n,
       round(CAST(n*(n+2) AS DOUBLE) *
             (((((CAST(m1 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m1 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-1 AS DOUBLE)
               + (CAST(m2 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m2 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-2 AS DOUBLE))
               + (CAST(m3 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m3 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-3 AS DOUBLE))
               + (CAST(m4 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m4 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-4 AS DOUBLE))
               + (CAST(m5 AS DOUBLE)/CAST(d AS DOUBLE))
                 *(CAST(m5 AS DOUBLE)/CAST(d AS DOUBLE))
                 /CAST(n-5 AS DOUBLE)), 6) AS q_stat
FROM s WHERE n >= 10 AND d > 0
""",
        # SampEn: A/B template-match pair counts are pure integer
        # Chebyshev compares over the self-join i<j<=n-2; the close is
        # one libm ln (glibc == DuckDB bit-for-bit), NULL on zero
        "sample_entropy": """
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
v AS (
  SELECT user_id, rn, nk, cents,
         lead(cents, 1) OVER w2 AS c1, lead(cents, 2) OVER w2 AS c2
  FROM c WINDOW w2 AS (PARTITION BY user_id ORDER BY rn)),
p AS (
  SELECT a.user_id, MAX(a.nk) AS n,
         CAST(COUNT(*) FILTER (abs(a.cents - b.cents) <= 200
                AND abs(a.c1 - b.c1) <= 200) AS BIGINT) AS b_cnt,
         CAST(COUNT(*) FILTER (abs(a.cents - b.cents) <= 200
                AND abs(a.c1 - b.c1) <= 200
                AND abs(a.c2 - b.c2) <= 200) AS BIGINT) AS a_cnt
  FROM v a JOIN v b ON a.user_id = b.user_id AND a.rn < b.rn
  WHERE a.rn <= a.nk - 2 AND b.rn <= b.nk - 2
  GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n, b_cnt, a_cnt,
       CASE WHEN a_cnt > 0 AND b_cnt > 0
            THEN round(-ln(CAST(a_cnt AS DOUBLE)
                           / CAST(b_cnt AS DOUBLE)), 6)
       END AS sampen
FROM p
""",
        # classic decomposition: the 2×m centered-MA numerator is a
        # windowed BIGINT sum + lag/lead endpoint corrections (exact
        # in any order), the detrend is 2m-scaled into pure integers,
        # and the per-(user, phase) close is one double chain over a
        # HUGEINT sum — full-window rows only (rn in [h+1, n−h])
        "seasonal_decompose": """
WITH c AS (
  SELECT user_id, event_id,
         CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS nk,
         SUM(CAST(round(value*100) AS BIGINT)) OVER
           (PARTITION BY user_id ORDER BY epoch_us(ts), event_id
            ROWS BETWEEN 12 PRECEDING AND 12 FOLLOWING) AS wsum,
         lag(CAST(round(value*100) AS BIGINT), 12) OVER w AS cl,
         lead(CAST(round(value*100) AS BIGINT), 12) OVER w AS cr
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY user_id
               ORDER BY epoch_us(ts), event_id)),
d AS (
  SELECT user_id, (rn - 1) % 24 AS phase,
         48*cents - (2*wsum - cl - cr) AS dd
  FROM c WHERE rn > 12 AND rn <= nk - 12)
SELECT user_id, CAST(phase AS BIGINT) AS phase,
       CAST(COUNT(*) AS BIGINT) AS n,
       round(((CAST(SUM(CAST(dd AS HUGEINT)) AS DOUBLE) / COUNT(*))
                / 48.0) / 100.0, 6) AS seasonal
FROM d GROUP BY 1, 2
""",
        # EWM control bands: the (l, v) double recursion in the
        # kernel's exact operand order; sqrt is IEEE correctly rounded
        # (DuckDB sqrt == np.sqrt bitwise) so the per-row band test
        # and the emitted ewm_std certify exactly; anchor v is
        # CAST(0.0 AS DOUBLE) (the DECIMAL-anchor trap)
        "ewm_bands": """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn, value AS l,
         CAST(0.0 AS DOUBLE) AS v, CAST(0 AS BIGINT) AS flag
  FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         r.l + 0.25 * (c.value - r.l),
         0.75 * (r.v + 0.25 * ((c.value - r.l) * (c.value - r.l))),
         CAST(CASE WHEN r.v > 0.0
                    AND abs(c.value - r.l) > 3.0 * sqrt(r.v)
              THEN 1 ELSE 0 END AS BIGINT)
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t, round(l, 6) AS level,
       round(sqrt(v), 6) AS ewm_std, flag
FROM r
""",
        # Page-Hinkley: running mean from an EXACT windowed BIGINT
        # cents cumsum (safe under any aggregation order) divided once
        # per row; the two drift folds and their running extrema
        # replay the kernel's operand order in a recursive CTE; the
        # alarm compares the RAW cents statistic (bit-identical)
        "page_hinkley": """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn,
         CAST(SUM(CAST(round(value*100) AS BIGINT)) OVER
                (PARTITION BY user_id
                 ORDER BY epoch_us(ts), event_id
                 ROWS UNBOUNDED PRECEDING) AS DOUBLE)
           / row_number() OVER (PARTITION BY user_id
                                ORDER BY epoch_us(ts), event_id)
           AS xbar
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL),
r AS (
  SELECT user_id, event_id, t, rn,
         (CAST(cents AS DOUBLE) - xbar) - 100.0 AS m,
         (CAST(cents AS DOUBLE) - xbar) - 100.0 AS mn,
         (CAST(cents AS DOUBLE) - xbar) + 100.0 AS m2,
         (CAST(cents AS DOUBLE) - xbar) + 100.0 AS mx
  FROM c WHERE rn = 1
  UNION ALL
  SELECT c.user_id, c.event_id, c.t, c.rn,
         r.m + ((CAST(c.cents AS DOUBLE) - c.xbar) - 100.0),
         LEAST(r.mn,
               r.m + ((CAST(c.cents AS DOUBLE) - c.xbar) - 100.0)),
         r.m2 + ((CAST(c.cents AS DOUBLE) - c.xbar) + 100.0),
         GREATEST(r.mx,
                  r.m2 + ((CAST(c.cents AS DOUBLE) - c.xbar) + 100.0))
  FROM c JOIN r ON c.user_id = r.user_id AND c.rn = r.rn + 1)
SELECT user_id, event_id, t,
       round((m - mn) / 100.0, 6) AS ph_inc,
       round((mx - m2) / 100.0, 6) AS ph_dec,
       CAST(CASE WHEN (m - mn) > 50000.0 OR (mx - m2) > 50000.0
                 THEN 1 ELSE 0 END AS BIGINT) AS alarm
FROM r
""",
        # variance ratio: overlapping 1-step and q-step cent diffs via
        # rn self-joins, HUGEINT moments, population-variance integer
        # numerators N = n·Σd² − (Σd)², one cast-first double ratio;
        # zero-variance keys filtered by the exact integer predicate
        "variance_ratio": """
WITH c AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL),
d1 AS (
  SELECT a.user_id, b.cents - a.cents AS d
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.rn = a.rn + 1),
dq AS (
  SELECT a.user_id, b.cents - a.cents AS d
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.rn = a.rn + 4),
s1 AS (
  SELECT user_id, COUNT(*) AS n1, SUM(CAST(d AS HUGEINT)) AS sd,
         SUM(CAST(d AS HUGEINT)*d) AS sdd
  FROM d1 GROUP BY 1),
sq AS (
  SELECT user_id, COUNT(*) AS nq, SUM(CAST(d AS HUGEINT)) AS sd,
         SUM(CAST(d AS HUGEINT)*d) AS sdd
  FROM dq GROUP BY 1)
SELECT s1.user_id, CAST(s1.n1 + 1 AS BIGINT) AS n,
       round((CAST(sq.nq*sq.sdd - sq.sd*sq.sd AS DOUBLE)
                / ((CAST(sq.nq AS DOUBLE) * sq.nq) * 4.0))
             / (CAST(s1.n1*s1.sdd - s1.sd*s1.sd AS DOUBLE)
                / (CAST(s1.n1 AS DOUBLE) * s1.n1)), 6) AS vr
FROM s1 JOIN sq USING (user_id)
WHERE s1.n1*s1.sdd - s1.sd*s1.sd > 0
""",
        # cohort retention: distinct (user, day), min-day cohort,
        # (cohort, age) distinct-user counts, retention = n/size with
        # size = the age-0 count
        "cohort_retention": """
WITH d AS (
  SELECT DISTINCT user_id, epoch_us(ts)//1000000//86400 AS day
  FROM events WHERE user_id IS NOT NULL),
c AS (SELECT user_id, MIN(day) AS cd FROM d GROUP BY 1),
cells AS (
  SELECT c.cd AS cohort_day, d.day - c.cd AS age_days,
         CAST(COUNT(*) AS BIGINT) AS n_active
  FROM d JOIN c USING (user_id) GROUP BY 1, 2),
sz AS (
  SELECT cohort_day, n_active AS cohort_size
  FROM cells WHERE age_days = 0)
SELECT l.cohort_day, l.age_days, l.n_active, s.cohort_size,
       round(CAST(l.n_active AS DOUBLE)/CAST(s.cohort_size AS DOUBLE),
             6) AS retention
FROM cells l JOIN sz s USING (cohort_day)
""",
        # per-source KL from the corpus distribution: (source, term)
        # counts, per-cell double term (c_st/N_s)·ln((c_st/N_s)/(c_t/N))
        # with DuckDB ln == libm, folded left in term order per source
        "source_kl": r"""
WITH toks AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '[a-z]+'))
           AS term
  FROM documents WHERE source IS NOT NULL),
cst AS (
  SELECT source, term, CAST(COUNT(*) AS BIGINT) AS c
  FROM toks GROUP BY 1, 2),
ct AS (SELECT term, SUM(c) AS ct FROM cst GROUP BY 1),
ns AS (SELECT source, SUM(c) AS ns FROM cst GROUP BY 1),
n AS (SELECT SUM(c) AS n FROM cst),
terms AS (
  SELECT cst.source, cst.term,
         (CAST(cst.c AS DOUBLE)/CAST(ns.ns AS DOUBLE))
           * ln((CAST(cst.c AS DOUBLE)/CAST(ns.ns AS DOUBLE))
                / (CAST(ct.ct AS DOUBLE)/CAST(n.n AS DOUBLE)))
           AS term_v
  FROM cst JOIN ct USING (term) JOIN ns USING (source) CROSS JOIN n)
SELECT t.source, CAST(ns.ns AS BIGINT) AS n_tokens,
       round(list_reduce(list(t.term_v ORDER BY t.term),
                         (a, b) -> a + b), 6) AS kl
FROM terms t JOIN ns ON ns.source = t.source
GROUP BY 1, 2
""",
        # Fano factor: (user, hour) cells, population variance/mean
        # over the FULL [min_hour, max_hour] span (absent cells are
        # exact zeros — moments need present cells only), closed in
        # the kernel's double op order
        "fano_factor": """
WITH c AS (
  SELECT user_id, epoch_us(ts)//1000000//3600 AS h
  FROM events WHERE user_id IS NOT NULL),
cell AS (
  SELECT user_id, h, CAST(COUNT(*) AS BIGINT) AS c
  FROM c GROUP BY 1, 2),
s AS (
  SELECT user_id, SUM(c) AS n, SUM(c*c) AS sq,
         MAX(h) - MIN(h) + 1 AS span
  FROM cell GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n_events,
       CAST(span AS BIGINT) AS span_hours,
       round((CAST(sq AS DOUBLE)/CAST(span AS DOUBLE)
              - (CAST(n AS DOUBLE)/CAST(span AS DOUBLE))
                * (CAST(n AS DOUBLE)/CAST(span AS DOUBLE)))
             / (CAST(n AS DOUBLE)/CAST(span AS DOUBLE)), 6) AS fano
FROM s
""",
        # Wald–Wolfowitz runs test: per-user median split
        # (quantile_cont(0.5) == np.median bitwise), exact-median rows
        # dropped, runs counted by lag inequality in (ts, event_id)
        # order, z closed in the kernel's exact double op order;
        # one-sided or zero-variance users emit NULL z
        "runs_test": """
WITH c AS (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL),
med AS (
  SELECT user_id, quantile_cont(value, 0.5) AS m FROM c GROUP BY 1),
s AS (
  SELECT c.user_id, c.rn,
         CASE WHEN c.value > med.m THEN 1 ELSE 0 END AS sgn
  FROM c JOIN med USING (user_id) WHERE c.value <> med.m),
o AS (
  SELECT user_id, sgn,
         lag(sgn) OVER (PARTITION BY user_id ORDER BY rn) AS prev
  FROM s),
agg AS (
  SELECT user_id,
         CAST(SUM(sgn) AS BIGINT) AS n1,
         CAST(SUM(1 - sgn) AS BIGINT) AS n2,
         CAST(1 + SUM(CASE WHEN prev IS NOT NULL AND sgn <> prev
                           THEN 1 ELSE 0 END) AS BIGINT) AS runs
  FROM o GROUP BY 1)
SELECT user_id, n1 AS n_above, n2 AS n_below, runs,
       CASE WHEN n1 > 0 AND n2 > 0
                 AND 2.0*CAST(n1 AS DOUBLE)*CAST(n2 AS DOUBLE)
                     > CAST(n1 + n2 AS DOUBLE)
            THEN round(
              (CAST(runs AS DOUBLE)
               - (2.0*CAST(n1 AS DOUBLE)*CAST(n2 AS DOUBLE)
                    / CAST(n1 + n2 AS DOUBLE) + 1.0))
              / sqrt(((2.0*CAST(n1 AS DOUBLE)*CAST(n2 AS DOUBLE))
                      * ((2.0*CAST(n1 AS DOUBLE)*CAST(n2 AS DOUBLE))
                         - CAST(n1 + n2 AS DOUBLE)))
                     / (CAST(n1 + n2 AS DOUBLE)
                        * CAST(n1 + n2 AS DOUBLE)
                        * (CAST(n1 + n2 AS DOUBLE) - 1.0))), 6)
            END AS z
FROM agg
""",
        # PMI of top-50-DF term pairs: distinct-per-doc presence, df
        # top-k by (df DESC, term), pair counts from the presence
        # self-join, pmi = ln(c_ab·N/(c_a·c_b)) in the kernel's double
        # op order; pairs ordered term_a < term_b, support ≥ 5
        "pmi_pairs": r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+'))
           AS term
  FROM documents),
pres0 AS (SELECT DISTINCT doc_id, term FROM toks),
df AS (
  SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM pres0 GROUP BY 1),
top AS (
  SELECT term FROM (
    SELECT term, row_number() OVER (ORDER BY df DESC, term) AS r
    FROM df) WHERE r <= 50),
pres AS (SELECT p.doc_id, p.term FROM pres0 p JOIN top USING (term)),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
ca AS (
  SELECT term, CAST(COUNT(*) AS BIGINT) AS c FROM pres GROUP BY 1),
pairs AS (
  SELECT a.term AS term_a, b.term AS term_b,
         CAST(COUNT(*) AS BIGINT) AS c_ab
  FROM pres a JOIN pres b
    ON a.doc_id = b.doc_id AND a.term < b.term
  GROUP BY 1, 2)
SELECT p.term_a, p.term_b, p.c_ab, ca.c AS c_a, cb.c AS c_b,
       round(ln(CAST(p.c_ab AS DOUBLE) * CAST(n.n AS DOUBLE)
                / (CAST(ca.c AS DOUBLE) * CAST(cb.c AS DOUBLE))), 6)
         AS pmi
FROM pairs p
JOIN ca ON ca.term = p.term_a
JOIN ca cb ON cb.term = p.term_b
CROSS JOIN n
WHERE p.c_ab >= 5
""",
        # Benford first-digit χ²: first digit of the cents integer by
        # repeated div-10 (== substr of its decimal string), dense
        # 9-digit grid per type, per-digit double term
        # (o − n·(ln(1+1/d)/ln(10)))²/(n·…) folded left in digit order
        "benford_digits": """
WITH c AS (
  SELECT event_type, CAST(round(abs(value)*100) AS BIGINT) AS cents
  FROM events
  WHERE event_type IS NOT NULL AND value IS NOT NULL
    AND CAST(round(abs(value)*100) AS BIGINT) > 0),
obs AS (
  SELECT event_type,
         CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS d,
         CAST(COUNT(*) AS BIGINT) AS o
  FROM c GROUP BY 1, 2),
n AS (SELECT event_type, SUM(o) AS n FROM obs GROUP BY 1),
grid AS (
  SELECT n.event_type, gs.d, n.n, COALESCE(obs.o, 0) AS o
  FROM n
  CROSS JOIN (SELECT unnest(generate_series(1, 9)) AS d) gs
  LEFT JOIN obs ON obs.event_type = n.event_type AND obs.d = gs.d),
terms AS (
  SELECT event_type, d, n,
         (CAST(o AS DOUBLE)
            - CAST(n AS DOUBLE) * (ln(1.0 + 1.0/d) / ln(10.0)))
         * (CAST(o AS DOUBLE)
            - CAST(n AS DOUBLE) * (ln(1.0 + 1.0/d) / ln(10.0)))
         / (CAST(n AS DOUBLE) * (ln(1.0 + 1.0/d) / ln(10.0))) AS term
  FROM grid)
SELECT event_type, CAST(MAX(n) AS BIGINT) AS n,
       round(list_reduce(list(term ORDER BY d), (a, b) -> a + b), 6)
         AS chi2
FROM terms GROUP BY 1
""",
        # per-user transition entropy: bigram cells over consecutive
        # typed events in (ts, event_id) order, per-cell double term
        # (c_ab/N)·ln(c_ab/c_a·) with DuckDB ln == libm, folded left
        # in (ta, tb) order; <2-typed-event users drop via inner joins
        "transition_entropy": """
WITH c AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events
  WHERE user_id IS NOT NULL AND event_type IS NOT NULL),
pairs AS (
  SELECT a.user_id, a.event_type AS ta, b.event_type AS tb
  FROM c a JOIN c b ON a.user_id = b.user_id AND b.rn = a.rn + 1),
cab AS (
  SELECT user_id, ta, tb, CAST(COUNT(*) AS BIGINT) AS cab
  FROM pairs GROUP BY 1, 2, 3),
ca AS (
  SELECT user_id, ta, SUM(cab) AS ca FROM cab GROUP BY 1, 2),
nf AS (
  SELECT user_id, SUM(cab) AS nf FROM cab GROUP BY 1),
terms AS (
  SELECT cab.user_id, cab.ta, cab.tb,
         (CAST(cab.cab AS DOUBLE) / CAST(nf.nf AS DOUBLE))
           * ln(CAST(cab.cab AS DOUBLE) / CAST(ca.ca AS DOUBLE))
           AS term
  FROM cab
  JOIN ca ON ca.user_id = cab.user_id AND ca.ta = cab.ta
  JOIN nf ON nf.user_id = cab.user_id),
folded AS (
  SELECT user_id,
         list_reduce(list(term ORDER BY ta, tb), (a, b) -> a + b)
           AS acc
  FROM terms GROUP BY 1)
SELECT f.user_id, CAST(n.nf AS BIGINT) AS n_bigrams,
       round(-f.acc, 6) AS trans_entropy
FROM folded f JOIN nf n ON n.user_id = f.user_id
""",
        # per-type Gini of user activity: exact integer Σi·x_i over
        # the ascending per-user counts (rank-tie permutations cancel),
        # one double close in the kernel's op order
        "gini_activity": """
WITH c AS (
  SELECT event_type, user_id, CAST(COUNT(*) AS BIGINT) AS x
  FROM events
  WHERE user_id IS NOT NULL AND event_type IS NOT NULL
  GROUP BY 1, 2),
r AS (
  SELECT event_type, x,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY x, user_id) AS i
  FROM c),
s AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
         SUM(x) AS sx, SUM(i*x) AS sixi
  FROM r GROUP BY 1)
SELECT event_type, n AS n_users, sx AS total_events,
       round(2.0*CAST(sixi AS DOUBLE)
               / (CAST(n AS DOUBLE)*CAST(sx AS DOUBLE))
             - (CAST(n AS DOUBLE) + 1.0)/CAST(n AS DOUBLE), 6) AS gini
FROM s
""",
        # fixed-width PLA: positions rn per key in (ts, event_id)
        # order split into width-16 segments; five exact int64
        # sufficient statistics per segment (j = local position,
        # v = cents), slope/intercept closed in the kernel's double op
        # order, then the residual bound joins the UNROUNDED
        # coefficients back to the rows (max |cents/100 − (b + a·j)|);
        # 1-point segments emit NULL fit columns
        "pla_segments": """
WITH c AS (
  SELECT user_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) - 1 AS rn
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL),
sg AS (
  SELECT user_id, rn // 16 AS seg, rn % 16 AS j, t, cents FROM c),
s AS (
  SELECT user_id, seg, CAST(COUNT(*) AS BIGINT) AS n,
         MIN(t) AS t_start, SUM(j) AS sj, SUM(cents) AS sv,
         SUM(j*cents) AS sjv, SUM(j*j) AS sjj
  FROM sg GROUP BY 1, 2),
f AS (
  SELECT user_id, seg, n, t_start,
         CAST(n*sjv - sj*sv AS DOUBLE)
           / CAST(n*sjj - sj*sj AS DOUBLE) / 100.0 AS slope_raw,
         CAST(sv AS DOUBLE) / n / 100.0
           - (CAST(n*sjv - sj*sv AS DOUBLE)
              / CAST(n*sjj - sj*sj AS DOUBLE) / 100.0)
             * (CAST(sj AS DOUBLE) / n) AS intercept_raw
  FROM s WHERE n >= 2),
e AS (
  SELECT f.user_id, f.seg, f.t_start, f.n, f.slope_raw,
         f.intercept_raw,
         MAX(abs(CAST(g.cents AS DOUBLE)/100.0
                 - (f.intercept_raw + f.slope_raw * g.j))) AS me
  FROM sg g JOIN f ON g.user_id = f.user_id AND g.seg = f.seg
  GROUP BY 1, 2, 3, 4, 5, 6)
SELECT user_id, seg, t_start, n, round(slope_raw, 6) AS slope,
       round(intercept_raw, 6) AS intercept,
       round(me, 6) AS max_abs_err
FROM e
UNION ALL
SELECT user_id, seg, t_start, n, CAST(NULL AS DOUBLE) AS slope,
       CAST(NULL AS DOUBLE) AS intercept,
       CAST(NULL AS DOUBLE) AS max_abs_err
FROM s WHERE n < 2
""",
        # Zipf law fit: top-1000 vocabulary by (cnt DESC, term), per
        # rank x=ln(rank) y=ln(cnt) (libm ln == DuckDB ln bitwise),
        # least-squares sums folded LEFT IN RANK ORDER (list_reduce ==
        # the kernel's 0.0-seeded += fold), slope/intercept closed in
        # the kernel's exact double expression order, 6dp both sides
        "zipf_fit": r"""
WITH terms AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents),
totals AS (SELECT term, COUNT(*) AS cnt FROM terms GROUP BY 1),
top AS (
  SELECT term, cnt,
         row_number() OVER (ORDER BY cnt DESC, term) AS rank
  FROM totals QUALIFY rank <= 1000),
xy AS (
  SELECT rank, ln(CAST(rank AS DOUBLE)) AS x,
         ln(CAST(cnt AS DOUBLE)) AS y
  FROM top),
folds AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS nd,
         list_reduce(list(x ORDER BY rank), (a, b) -> a + b) AS sx,
         list_reduce(list(y ORDER BY rank), (a, b) -> a + b) AS sy,
         list_reduce(list(x*x ORDER BY rank), (a, b) -> a + b) AS sxx,
         list_reduce(list(x*y ORDER BY rank), (a, b) -> a + b) AS sxy
  FROM xy)
SELECT CAST(nd AS BIGINT) AS n_terms,
       round((nd*sxy - sx*sy) / (nd*sxx - sx*sx), 6) AS slope,
       round((sy - ((nd*sxy - sx*sy) / (nd*sxx - sx*sx))*sx) / nd, 6)
         AS intercept
FROM folds
WHERE nd >= 2
""",
        # TPC-H-Q18 shape: exact integer-cents quantity rollup with
        # HAVING, then order/customer attributes; sum_qty closes
        # double(cents)/100 on both sides
        "big_orders": """
WITH big AS (
  SELECT l_orderkey,
         SUM(CAST(round(l_quantity*100) AS BIGINT)) AS qc
  FROM lineitem GROUP BY 1
  HAVING SUM(CAST(round(l_quantity*100) AS BIGINT)) > 30000)
SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate,
       o.o_totalprice, CAST(b.qc AS DOUBLE)/100.0 AS sum_qty
FROM big b
JOIN orders o ON o.o_orderkey = b.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
""",
        # winnowing: k-gram Horner hashes over the polynomial token ids
        # (the doc_fingerprints fold, HUGEINT-decomposed uint64
        # wraparound), then per window-end the min hash with the
        # rightmost tie (MAX(p) over the rows attaining the window min)
        "winnow_fingerprints": _WINNOW_FP_SQL,
        # the cross-doc duplicate-span aggregate over the same
        # selections: fingerprints seen in ≥ 2 distinct documents
        "winnow_matches": f"""
SELECT fp, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs,
       CAST(COUNT(*) AS BIGINT) AS n_occ
FROM ({_WINNOW_FP_SQL}) GROUP BY 1
HAVING COUNT(DISTINCT doc_id) >= 2
""",
        # JSON field stats: json_extract_string -> BIGINT, identical to
        # the engine's regex extraction on the corpus's flat int shape;
        # mean closes CAST(sum AS DOUBLE)/nv on both sides
        "props_field_stats": """
WITH c AS (
  SELECT event_type,
         CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
  FROM events WHERE event_type IS NOT NULL),
s AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(COUNT(*) - COUNT(k) AS BIGINT) AS n_null,
         SUM(k) AS sum_k, MIN(k) AS min_k, MAX(k) AS max_k
  FROM c GROUP BY 1)
SELECT event_type, n, n_null,
       CAST(sum_k AS BIGINT) AS sum_k,
       CAST(min_k AS BIGINT) AS min_k,
       CAST(max_k AS BIGINT) AS max_k,
       round(CAST(sum_k AS DOUBLE) / (n - n_null), 6) AS mean_k
FROM s
""",
        # max drawdown: running peak = window MAX over the (t, id)
        # frame; trough tie = MIN(t) over rows attaining the key max
        "max_drawdown": """
WITH c AS (
  SELECT user_id, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS cents,
         MAX(CAST(round(value*100) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY epoch_us(ts), event_id
           ROWS UNBOUNDED PRECEDING) AS runmax
  FROM events),
d AS (SELECT user_id, t, runmax - cents AS dd FROM c),
s AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
         MAX(dd) AS mdd
  FROM d GROUP BY 1)
SELECT s.user_id, s.n_events,
       CAST(s.mdd AS DOUBLE) / 100.0 AS max_drawdown,
       MIN(d.t) AS t_trough
FROM s JOIN d ON d.user_id = s.user_id AND d.dd = s.mdd
GROUP BY 1, 2, 3
""",
        # M4 downsample: first/last anchored on (t, id); min/max on
        # value with the earliest-t tie rule (MIN(t) over the rows
        # attaining the cell extremum)
        "m4_downsample": """
WITH c AS (
  SELECT user_id, epoch_us(ts) AS t, event_id AS id,
         CAST(round(value*100) AS BIGINT) AS cents,
         (epoch_us(ts) // 1000000) // 86400 * 86400 AS bucket_start
  FROM events),
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
""",
        # LTTB (n_out=4 ⇒ two interior buckets, chosen so the gate
        # corpora — ~7 events/user — actually EXERCISE the pick chain):
        # each step is a window argmax over one bucket (exact integer
        # area 2·area·nn DESC, pos ASC = np.argmax's first-max tie),
        # the previous step's pick joined in as the anchor.  Chained
        # plain CTEs, not recursion: DuckDB misevaluates correlated
        # list lambdas across a recursive working table with >1 key
        "lttb_downsample": """
WITH pts AS (
  SELECT user_id, event_id, value, epoch_us(ts) AS t,
         CAST(round(value*100) AS BIGINT) AS y,
         row_number() OVER w - 1 AS pos,
         count(*) OVER (PARTITION BY user_id) AS n,
         epoch_us(ts) - first_value(epoch_us(ts)) OVER w AS x
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
long AS (SELECT DISTINCT user_id, n FROM pts WHERE n > 4),
nx0 AS (
  SELECT l.user_id,
         CAST(COUNT(p.pos) AS HUGEINT) AS nn,
         CAST(COALESCE(SUM(p.x), 0) AS HUGEINT) AS sx,
         CAST(COALESCE(SUM(p.y), 0) AS HUGEINT) AS sy
  FROM long l JOIN pts p ON p.user_id = l.user_id
    AND p.pos >= 1 + (l.n - 2) // 2 AND p.pos < l.n - 1
  GROUP BY 1),
st0 AS (
  SELECT user_id, xp, yp, pick FROM (
    SELECT p.user_id, p.x AS xp, p.y AS yp, p.pos AS pick,
           row_number() OVER (PARTITION BY p.user_id ORDER BY
             abs((CAST(p0.x AS HUGEINT) * nx0.nn - nx0.sx)
                 * (CAST(p.y AS HUGEINT) - p0.y)
                 + (CAST(p.x AS HUGEINT) - p0.x)
                 * (nx0.sy - CAST(p0.y AS HUGEINT) * nx0.nn)) DESC,
             p.pos ASC) AS rn
    FROM long l
    JOIN pts p0 ON p0.user_id = l.user_id AND p0.pos = 0
    JOIN nx0 ON nx0.user_id = l.user_id
    JOIN pts p ON p.user_id = l.user_id
              AND p.pos >= 1 AND p.pos < 1 + (l.n - 2) // 2) q
  WHERE rn = 1),
lastpt AS (SELECT user_id, x AS xl, y AS yl FROM pts WHERE pos = n - 1),
st1 AS (
  SELECT user_id, pick FROM (
    SELECT p.user_id, p.pos AS pick,
           row_number() OVER (PARTITION BY p.user_id ORDER BY
             abs((CAST(s.xp AS HUGEINT) - lp.xl)
                 * (CAST(p.y AS HUGEINT) - s.yp)
                 + (CAST(p.x AS HUGEINT) - s.xp)
                 * (CAST(lp.yl AS HUGEINT) - s.yp)) DESC,
             p.pos ASC) AS rn
    FROM long l
    JOIN st0 s ON s.user_id = l.user_id
    JOIN lastpt lp ON lp.user_id = l.user_id
    JOIN pts p ON p.user_id = l.user_id
              AND p.pos >= 1 + (l.n - 2) // 2 AND p.pos < l.n - 1) q
  WHERE rn = 1),
picks AS (
  SELECT user_id, 0 AS pos FROM long
  UNION ALL SELECT user_id, pick FROM st0
  UNION ALL SELECT user_id, pick FROM st1
  UNION ALL SELECT user_id, n - 1 FROM long
  UNION ALL SELECT user_id, pos FROM pts WHERE n <= 4)
SELECT p.user_id, p.event_id, p.t, p.value
FROM picks k JOIN pts p ON p.user_id = k.user_id AND p.pos = k.pos
""",
        # SAX symbolization: integer-cents moments, PAA segment = the
        # position convention pos*w//n, z-scores in doubles with the
        # kernel's exact operand order, Gaussian breakpoints as IEEE
        # double literals; n < w keys dropped, zero-variance → NULL sax
        "sax_symbols": """
WITH c AS (
  SELECT user_id,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) - 1 AS pos,
         count(*) OVER (PARTITION BY user_id) AS n,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
m AS (
  SELECT user_id, any_value(n) AS n, SUM(cents) AS sc,
         SUM(CAST(cents AS HUGEINT)*cents) AS ss
  FROM c GROUP BY 1 HAVING any_value(n) >= 8),
seg AS (
  SELECT c.user_id, (c.pos * 8) // c.n AS seg,
         SUM(c.cents) AS segsum, COUNT(*) AS segn
  FROM c JOIN m ON m.user_id = c.user_id
  GROUP BY 1, 2),
z AS (
  SELECT s.user_id, s.seg,
         (CAST(s.segsum AS DOUBLE)/s.segn - CAST(m.sc AS DOUBLE)/m.n)
           / (sqrt(CAST(m.n*m.ss - CAST(m.sc AS HUGEINT)*m.sc AS DOUBLE))
              / m.n) AS z,
         (m.n*m.ss - CAST(m.sc AS HUGEINT)*m.sc) AS varnum
  FROM seg s JOIN m ON m.user_id = s.user_id)
SELECT z.user_id, CAST(any_value(m.n) AS BIGINT) AS n_events,
       CASE WHEN any_value(z.varnum) = 0 THEN NULL
            ELSE string_agg(CASE WHEN z < -0.6744897501960817 THEN 'a'
                                 WHEN z < 0.0 THEN 'b'
                                 WHEN z < 0.6744897501960817 THEN 'c'
                                 ELSE 'd' END, '' ORDER BY z.seg)
            END AS sax
FROM z JOIN m ON m.user_id = z.user_id GROUP BY 1
""",
        # over-threshold maximal runs: gaps-and-islands via the
        # rn - row_number-over-qualifying-rows group key
        "threshold_excursions": """
WITH c AS (
  SELECT user_id, value, epoch_us(ts) AS t,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events),
o AS (
  SELECT user_id, t, rn,
         rn - row_number() OVER (PARTITION BY user_id ORDER BY rn) AS grp
  FROM c WHERE value > 150.0),
isl AS (
  SELECT user_id, grp, COUNT(*) AS run_len, MAX(t) - MIN(t) AS dur_us
  FROM o GROUP BY 1, 2)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_excursions,
       CAST(MAX(run_len) AS BIGINT) AS max_run,
       CAST(SUM(run_len) AS BIGINT) AS n_over,
       CAST(MAX(dur_us) AS BIGINT) AS max_dur_us
FROM isl GROUP BY 1
""",
        # pairwise DTW: exact int64 DP replayed as an anti-diagonal
        # recursive-CTE wavefront — diagonal D holds cells (i,j) with
        # i+j = D-1 (i ascending) so every cell depends only on the two
        # carried prior diagonals (cur/prev), never on its own diagonal;
        # borders store the kernel's BIG = 1<<62 sentinel
        "dtw_profile_pairs": """
WITH RECURSIVE prof_raw AS (
  SELECT user_id,
         ((epoch_us(ts) // 1000000) // 3600) % 24 AS hod,
         SUM(CAST(round(value*100) AS BIGINT)) AS c
  FROM events GROUP BY 1, 2),
users AS (
  SELECT DISTINCT user_id FROM events ORDER BY user_id LIMIT 12),
grid AS (
  SELECT u.user_id, h.hod
  FROM users u CROSS JOIN (SELECT unnest(range(24)) AS hod) h),
prof AS (
  SELECT g.user_id, list(coalesce(p.c, 0) ORDER BY g.hod) AS v
  FROM grid g LEFT JOIN prof_raw p
    ON p.user_id = g.user_id AND p.hod = g.hod
  GROUP BY 1),
pairs AS (
  SELECT a.user_id AS user_a, b.user_id AS user_b, a.v AS va, b.v AS vb
  FROM prof a JOIN prof b ON a.user_id < b.user_id),
rec AS (
  SELECT user_a, user_b, va, vb, 1 AS d,
         [CAST(0 AS BIGINT)] AS cur, CAST(NULL AS BIGINT[]) AS prev
  FROM pairs
  UNION ALL
  SELECT user_a, user_b, va, vb, d + 1,
         list_transform(
           range(greatest(0, d - 24), least(24, d) + 1),
           i -> CASE
             WHEN i = 0 OR d - i = 0 THEN CAST(4611686018427387904 AS BIGINT)
             ELSE abs(va[i] - vb[d - i])
                  + least(
                      coalesce(cur[i - greatest(0, d - 1 - 24)],
                               4611686018427387904),
                      coalesce(cur[i + 1 - greatest(0, d - 1 - 24)],
                               4611686018427387904),
                      coalesce(prev[i - greatest(0, d - 2 - 24)],
                               4611686018427387904))
           END) AS cur,
         cur AS prev
  FROM rec WHERE d < 49)
SELECT user_a, user_b,
       round(CAST(cur[1] AS DOUBLE) / 100.0, 6) AS dtw
FROM rec WHERE d = 49
""",
        # integer-exact fixed-width histogram: bin = floor(cents/width)
        # through the identical double division on both sides
        "value_histogram": """
WITH b AS (
  SELECT event_type,
         CAST(floor(CAST(round(value*100) AS BIGINT) / 5000.0) AS BIGINT)
           AS bin
  FROM events)
SELECT event_type, bin, CAST(COUNT(*) AS BIGINT) AS n,
       bin * 50.0 AS bin_lo
FROM b GROUP BY 1, 2
""",
        # z-score from integer moments; the engine replays the identical
        # double arithmetic (sc/n, sq/n - mean², sqrt, divide, round)
        "zscore_events": """
WITH c AS (
  SELECT event_id, event_type, CAST(round(value*100) AS BIGINT) AS cents
  FROM events),
s AS (
  SELECT event_type, COUNT(*) AS n,
         CAST(SUM(cents) AS DOUBLE) AS sc,
         CAST(SUM(cents*cents) AS DOUBLE) AS sq
  FROM c GROUP BY 1)
SELECT c.event_id, c.event_type,
       CASE WHEN sq/n - (sc/n)*(sc/n) > 0.0
            THEN round((CAST(c.cents AS DOUBLE) - sc/n)
                       / sqrt(sq/n - (sc/n)*(sc/n)), 6)
            END AS z
FROM c JOIN s USING (event_type)
""",
        # the 2-step composition: the gap CTE chain (identical to
        # gap_filled_events) feeds Hampel flags + masked rolling-median
        # replacement computed on the 6dp-QUANTIZED filled series — the
        # engine rounds between steps too, so both sides run the Hampel
        # arithmetic on identical doubles
        "corrected_events_nojump": f"""
WITH ordered AS (
  SELECT user_id, (epoch_us(ts) // 1000000) AS t, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS rn
  FROM events
), d AS (
  SELECT user_id, rn, t,
         t - lag(t) OVER w AS dt,
         lag(t) OVER w AS t_m1,
         lag(t, 2) OVER w AS t_m2,
         lead(t) OVER w - t AS dt_next
  FROM ordered WINDOW w AS (PARTITION BY user_id ORDER BY rn)
), med AS (
  SELECT user_id, median(dt) AS m FROM d WHERE dt IS NOT NULL GROUP BY 1
), gaps AS (
  SELECT d.user_id, d.t AS t_after, d.t_m1 AS t_before,
         CASE WHEN d.rn > 2 THEN d.t_m1 - d.t_m2 ELSE d.dt_next END AS step
  FROM d JOIN med USING (user_id)
  WHERE d.dt IS NOT NULL AND med.m > 0 AND d.dt > 3.0 * med.m
), fill AS (
  SELECT user_id, t_before, t_after, step,
         CAST(round_even(CAST(t_after - t_before AS DOUBLE) / step, 0)
              AS BIGINT) - 1 AS k
  FROM gaps WHERE step IS NOT NULL AND step > 0
), ins AS (
  SELECT user_id, t_before, t_after, step, k,
         unnest(generate_series(1, k)) AS j
  FROM fill WHERE k >= 1
), ins_t AS (
  SELECT user_id,
         CASE WHEN k = 1 THEN t_before + step
              WHEN j = k THEN t_after - step
              ELSE CAST(trunc(
                     (j - 1) * ((CAST(t_after - step AS DOUBLE)
                                 - (t_before + step)) / (k - 1))
                     + (t_before + step)) AS BIGINT)
         END AS t, j
  FROM ins
), allr AS (
  SELECT user_id, t, value AS v, FALSE AS inserted,
         CAST(0 AS BIGINT) AS j, rn
  FROM ordered
  UNION ALL
  SELECT user_id, t, NULL, TRUE, j, NULL FROM ins_t
), pos AS (
  -- rn as the final key: duplicate-timestamp ORIGINALS must keep the
  -- kernel's (ts, event_id) order or the interp anchors are arbitrary
  SELECT *, row_number() OVER
        (PARTITION BY user_id ORDER BY t, inserted, j, rn) AS p
  FROM allr
), nb AS (
  SELECT user_id, t, v, inserted, p,
         max(CASE WHEN v IS NOT NULL THEN p END) OVER
           (PARTITION BY user_id ORDER BY p
            ROWS UNBOUNDED PRECEDING) AS p0,
         min(CASE WHEN v IS NOT NULL THEN p END) OVER
           (PARTITION BY user_id ORDER BY p
            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS p1
  FROM pos
), filled AS (
SELECT nb.user_id, nb.t, nb.p AS rn,
       round(CASE WHEN nb.v IS NOT NULL THEN nb.v
                  WHEN nb.p0 IS NULL THEN v1.v
                  WHEN nb.p1 IS NULL THEN v0.v
                  ELSE ((v1.v - v0.v) / (nb.p1 - nb.p0))
                       * (nb.p - nb.p0) + v0.v
             END, 6) AS v,
       nb.inserted
FROM nb
LEFT JOIN pos v0 ON v0.user_id = nb.user_id AND v0.p = nb.p0
LEFT JOIN pos v1 ON v1.user_id = nb.user_id AND v1.p = nb.p1
), hmed AS (
  SELECT a.user_id, a.rn, a.v, median(b.v) AS rmed, count(*) AS wcount
  FROM filled a JOIN filled b
    ON a.user_id = b.user_id AND b.rn BETWEEN a.rn - 2 AND a.rn + 2
  GROUP BY a.user_id, a.rn, a.v
), hmad AS (
  SELECT m.user_id, m.rn, m.v, m.rmed, m.wcount,
         median(abs(b.v - m.rmed)) AS rmad
  FROM hmed m JOIN filled b
    ON m.user_id = b.user_id AND b.rn BETWEEN m.rn - 2 AND m.rn + 2
  GROUP BY m.user_id, m.rn, m.v, m.rmed, m.wcount
), flags AS (
  SELECT user_id, rn FROM hmad
  WHERE wcount = 5
    AND (CASE WHEN rmad * 1.4826 < 1e-6
              THEN (CASE WHEN abs(v - rmed) > 1e-6
                         THEN (CASE WHEN abs(v - rmed) > 3.0 * 1e-6
                                    THEN CAST('inf' AS DOUBLE)
                                    ELSE 0.0 END)
                         ELSE 0.0 END)
              ELSE abs(v - rmed) / (rmad * 1.4826) END) > 3.0
), repl AS (
  SELECT fl.user_id, fl.rn, median(b.v) AS rv
  FROM flags fl JOIN filled b
    ON b.user_id = fl.user_id AND b.rn BETWEEN fl.rn - 2 AND fl.rn + 2
  LEFT JOIN flags fb ON fb.user_id = b.user_id AND fb.rn = b.rn
  WHERE fb.rn IS NULL
  GROUP BY fl.user_id, fl.rn
)
SELECT f.user_id, f.t,
       round(CASE WHEN fl.rn IS NOT NULL THEN r.rv ELSE f.v END, 6)
         AS value_corrected,
       f.inserted
FROM filled f
LEFT JOIN flags fl ON fl.user_id = f.user_id AND fl.rn = f.rn
LEFT JOIN repl r ON r.user_id = f.user_id AND r.rn = f.rn
""",
        # the COMPLETE 3-step composition: the nojump pipeline above as
        # corr2 (6dp-quantized at each step boundary), then the quantized
        # CUSUM recursive-CTE reset scan and the cumulative median-offset
        # jump correction on corr2's values
        "corrected_events_full": f"""
WITH RECURSIVE ordered AS (
  SELECT user_id, (epoch_us(ts) // 1000000) AS t, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS rn
  FROM events
), d AS (
  SELECT user_id, rn, t,
         t - lag(t) OVER w AS dt,
         lag(t) OVER w AS t_m1,
         lag(t, 2) OVER w AS t_m2,
         lead(t) OVER w - t AS dt_next
  FROM ordered WINDOW w AS (PARTITION BY user_id ORDER BY rn)
), med AS (
  SELECT user_id, median(dt) AS m FROM d WHERE dt IS NOT NULL GROUP BY 1
), gaps AS (
  SELECT d.user_id, d.t AS t_after, d.t_m1 AS t_before,
         CASE WHEN d.rn > 2 THEN d.t_m1 - d.t_m2 ELSE d.dt_next END AS step
  FROM d JOIN med USING (user_id)
  WHERE d.dt IS NOT NULL AND med.m > 0 AND d.dt > 3.0 * med.m
), fill AS (
  SELECT user_id, t_before, t_after, step,
         CAST(round_even(CAST(t_after - t_before AS DOUBLE) / step, 0)
              AS BIGINT) - 1 AS k
  FROM gaps WHERE step IS NOT NULL AND step > 0
), ins AS (
  SELECT user_id, t_before, t_after, step, k,
         unnest(generate_series(1, k)) AS j
  FROM fill WHERE k >= 1
), ins_t AS (
  SELECT user_id,
         CASE WHEN k = 1 THEN t_before + step
              WHEN j = k THEN t_after - step
              ELSE CAST(trunc(
                     (j - 1) * ((CAST(t_after - step AS DOUBLE)
                                 - (t_before + step)) / (k - 1))
                     + (t_before + step)) AS BIGINT)
         END AS t, j
  FROM ins
), allr AS (
  SELECT user_id, t, value AS v, FALSE AS inserted,
         CAST(0 AS BIGINT) AS j, rn
  FROM ordered
  UNION ALL
  SELECT user_id, t, NULL, TRUE, j, NULL FROM ins_t
), pos AS (
  SELECT *, row_number() OVER
        (PARTITION BY user_id ORDER BY t, inserted, j, rn) AS p
  FROM allr
), nb AS (
  SELECT user_id, t, v, inserted, p,
         max(CASE WHEN v IS NOT NULL THEN p END) OVER
           (PARTITION BY user_id ORDER BY p
            ROWS UNBOUNDED PRECEDING) AS p0,
         min(CASE WHEN v IS NOT NULL THEN p END) OVER
           (PARTITION BY user_id ORDER BY p
            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS p1
  FROM pos
), filled AS (
SELECT nb.user_id, nb.t, nb.p AS rn,
       round(CASE WHEN nb.v IS NOT NULL THEN nb.v
                  WHEN nb.p0 IS NULL THEN v1.v
                  WHEN nb.p1 IS NULL THEN v0.v
                  ELSE ((v1.v - v0.v) / (nb.p1 - nb.p0))
                       * (nb.p - nb.p0) + v0.v
             END, 6) AS v,
       nb.inserted
FROM nb
LEFT JOIN pos v0 ON v0.user_id = nb.user_id AND v0.p = nb.p0
LEFT JOIN pos v1 ON v1.user_id = nb.user_id AND v1.p = nb.p1
), hmed AS (
  SELECT a.user_id, a.rn, a.v, median(b.v) AS rmed, count(*) AS wcount
  FROM filled a JOIN filled b
    ON a.user_id = b.user_id AND b.rn BETWEEN a.rn - 2 AND a.rn + 2
  GROUP BY a.user_id, a.rn, a.v
), hmad AS (
  SELECT m.user_id, m.rn, m.v, m.rmed, m.wcount,
         median(abs(b.v - m.rmed)) AS rmad
  FROM hmed m JOIN filled b
    ON m.user_id = b.user_id AND b.rn BETWEEN m.rn - 2 AND m.rn + 2
  GROUP BY m.user_id, m.rn, m.v, m.rmed, m.wcount
), flags AS (
  SELECT user_id, rn FROM hmad
  WHERE wcount = 5
    AND (CASE WHEN rmad * 1.4826 < 1e-6
              THEN (CASE WHEN abs(v - rmed) > 1e-6
                         THEN (CASE WHEN abs(v - rmed) > 3.0 * 1e-6
                                    THEN CAST('inf' AS DOUBLE)
                                    ELSE 0.0 END)
                         ELSE 0.0 END)
              ELSE abs(v - rmed) / (rmad * 1.4826) END) > 3.0
), repl AS (
  SELECT fl.user_id, fl.rn, median(b.v) AS rv
  FROM flags fl JOIN filled b
    ON b.user_id = fl.user_id AND b.rn BETWEEN fl.rn - 2 AND fl.rn + 2
  LEFT JOIN flags fb ON fb.user_id = b.user_id AND fb.rn = b.rn
  WHERE fb.rn IS NULL
  GROUP BY fl.user_id, fl.rn
), corr2 AS MATERIALIZED (
  SELECT f.user_id, f.t, f.rn,
         round(CASE WHEN fl.rn IS NOT NULL THEN r.rv ELSE f.v END, 6)
           AS v2,
         f.inserted
  FROM filled f
  LEFT JOIN flags fl ON fl.user_id = f.user_id AND fl.rn = f.rn
  LEFT JOIN repl r ON r.user_id = f.user_id AND r.rn = f.rn
), dv AS MATERIALIZED (
  SELECT c.user_id, c.rn, c.v2,
         count(*) OVER (PARTITION BY c.user_id) AS n,
         avg(v2) OVER wd AS mprev,
         stddev_samp(v2) OVER wd AS sprev
  FROM corr2 c
  WINDOW wd AS (PARTITION BY c.user_id ORDER BY c.rn
               ROWS BETWEEN 5 PRECEDING AND 1 PRECEDING)
), pf AS MATERIALIZED (
  SELECT user_id, rn, n,
         sum(CAST(round_even(
               (CASE WHEN sprev > 1e-6 THEN (v2 - mprev) / sprev
                     ELSE 0.0 END) * 1000000, 0) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY rn) AS pfx
  FROM dv WHERE n >= 10 AND rn > 5
), jmp AS (
  SELECT user_id, min(rn) AS rn, arg_min(pfx, rn) AS base
  FROM pf WHERE abs(pfx) > 3000000 GROUP BY user_id
  UNION ALL
  SELECT jmp.user_id, min(pf.rn), arg_min(pf.pfx, pf.rn)
  FROM jmp JOIN pf ON pf.user_id = jmp.user_id AND pf.rn > jmp.rn
                  AND abs(pf.pfx - jmp.base) > 3000000
  GROUP BY jmp.user_id
), offs AS (
  SELECT jmp.user_id, jmp.rn,
    (SELECT median(b.v2) FROM corr2 b
     WHERE b.user_id = jmp.user_id
       AND b.rn BETWEEN jmp.rn - 5 AND jmp.rn - 1)
  - (SELECT median(a.v2) FROM corr2 a
     WHERE a.user_id = jmp.user_id
       AND a.rn BETWEEN jmp.rn AND jmp.rn + 4) AS off
  FROM jmp JOIN pf USING (user_id, rn)
  WHERE jmp.rn BETWEEN 6 AND pf.n - 5
), cum AS (
  SELECT user_id, rn,
         sum(off) OVER (PARTITION BY user_id ORDER BY rn) AS cumoff
  FROM offs
)
SELECT c.user_id, c.t,
       round(c.v2 + coalesce(cm.cumoff, 0), 6) AS value_corrected,
       c.inserted
FROM corr2 c ASOF LEFT JOIN cum cm
  ON c.user_id = cm.user_id AND c.rn >= cm.rn
""",
        # C1 in isolation.  Mirrors the kernel exactly: step = previous
        # diff (or next, for a gap at the second row); missing count =
        # round_even(span/step)-1 (Python round is banker's); inserted
        # times = linspace with trunc-toward-zero int cast and an EXACT
        # endpoint for the last point; then POSITIONAL linear interp
        # (np.interp over row indices) with edge clamping.
        "gap_filled_events": f"""
WITH ordered AS (
  SELECT user_id, {EPOCH_S} AS t, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS rn
  FROM events
), d AS (
  SELECT user_id, rn, t,
         t - lag(t) OVER w AS dt,
         lag(t) OVER w AS t_m1,
         lag(t, 2) OVER w AS t_m2,
         lead(t) OVER w - t AS dt_next
  FROM ordered WINDOW w AS (PARTITION BY user_id ORDER BY rn)
), med AS (
  SELECT user_id, median(dt) AS m FROM d WHERE dt IS NOT NULL GROUP BY 1
), gaps AS (
  SELECT d.user_id, d.t AS t_after, d.t_m1 AS t_before,
         CASE WHEN d.rn > 2 THEN d.t_m1 - d.t_m2 ELSE d.dt_next END AS step
  FROM d JOIN med USING (user_id)
  WHERE d.dt IS NOT NULL AND med.m > 0 AND d.dt > 3.0 * med.m
), fill AS (
  SELECT user_id, t_before, t_after, step,
         CAST(round_even(CAST(t_after - t_before AS DOUBLE) / step, 0)
              AS BIGINT) - 1 AS k
  FROM gaps WHERE step IS NOT NULL AND step > 0
), ins AS (
  SELECT user_id, t_before, t_after, step, k,
         unnest(generate_series(1, k)) AS j
  FROM fill WHERE k >= 1
), ins_t AS (
  SELECT user_id,
         CASE WHEN k = 1 THEN t_before + step
              WHEN j = k THEN t_after - step
              ELSE CAST(trunc(
                     (j - 1) * ((CAST(t_after - step AS DOUBLE)
                                 - (t_before + step)) / (k - 1))
                     + (t_before + step)) AS BIGINT)
         END AS t, j
  FROM ins
), allr AS (
  SELECT user_id, t, value AS v, FALSE AS inserted,
         CAST(0 AS BIGINT) AS j, rn
  FROM ordered
  UNION ALL
  SELECT user_id, t, NULL, TRUE, j, NULL FROM ins_t
), pos AS (
  -- rn as the final key: duplicate-timestamp ORIGINALS must keep the
  -- kernel's (ts, event_id) order or the interp anchors are arbitrary
  SELECT *, row_number() OVER
        (PARTITION BY user_id ORDER BY t, inserted, j, rn) AS p
  FROM allr
), nb AS (
  SELECT user_id, t, v, inserted, p,
         max(CASE WHEN v IS NOT NULL THEN p END) OVER
           (PARTITION BY user_id ORDER BY p
            ROWS UNBOUNDED PRECEDING) AS p0,
         min(CASE WHEN v IS NOT NULL THEN p END) OVER
           (PARTITION BY user_id ORDER BY p
            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS p1
  FROM pos
)
SELECT nb.user_id, nb.t,
       round(CASE WHEN nb.v IS NOT NULL THEN nb.v
                  WHEN nb.p0 IS NULL THEN v1.v
                  WHEN nb.p1 IS NULL THEN v0.v
                  ELSE ((v1.v - v0.v) / (nb.p1 - nb.p0))
                       * (nb.p - nb.p0) + v0.v
             END, 6) AS value_filled,
       nb.inserted
FROM nb
LEFT JOIN pos v0 ON v0.user_id = nb.user_id AND v0.p = nb.p0
LEFT JOIN pos v1 ON v1.user_id = nb.user_id AND v1.p = nb.p1
""",
        "gap_counts": f"""
WITH ordered AS (
  SELECT user_id, {EPOCH_S} AS t,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events),
diffs AS (
  SELECT user_id, t - lag(t) OVER (PARTITION BY user_id ORDER BY rn) AS d
  FROM ordered),
med AS (SELECT user_id, median(d) AS m FROM diffs GROUP BY user_id)
SELECT m.user_id,
       CASE WHEN m.m IS NULL OR m.m <= 0 THEN 0
            ELSE (SELECT count(*) FROM diffs d
                  WHERE d.user_id = m.user_id AND d.d > 3.0 * m.m)
       END AS n_gaps
FROM med m
""",
        "global_mad_outliers": """
WITH med AS (SELECT user_id, median(value) AS med FROM events GROUP BY user_id),
dev AS (SELECT e.user_id, abs(e.value - m.med) AS ad, m.med AS med
        FROM events e JOIN med m USING (user_id)),
mad AS (SELECT user_id, greatest(median(ad), 0.0001) AS mad
        FROM dev GROUP BY user_id)
SELECT d.user_id,
       count(*) FILTER (WHERE 0.6745 * d.ad / m.mad > 3.0) AS n_outliers,
       round(any_value(d.med), 6) AS global_median
FROM dev d JOIN mad m USING (user_id)
GROUP BY d.user_id
""",
        # D2 raw float fold, BIT-EXACT [processor.py:118-199]: the
        # recursive CTE replays the kernel's doubles in identical IEEE
        # operand order — window-5 mean = the sequential numpy fold
        # ((((v5+v4)+v3)+v2)+v1)/5 (n<8 → left-to-right, verified),
        # std(ddof=1) = sqrt of the same left fold over squared
        # deviations /4, cumsum = the recursion's cum+dev left fold,
        # and the reset scan carries (cum, base) per user so every
        # |prefix-base|>3.0 comparison happens on bit-identical
        # doubles.  No quantization, no rounding — exact by operand
        # order, like ewma_per_user / holt_per_user.
        "cusum_flags": """
WITH RECURSIVE ordered AS (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events),
lagd AS (
  SELECT user_id, event_id, rn, n, value,
         lag(value, 5) OVER w AS v5, lag(value, 4) OVER w AS v4,
         lag(value, 3) OVER w AS v3, lag(value, 2) OVER w AS v2,
         lag(value, 1) OVER w AS v1
  FROM ordered
  WINDOW w AS (PARTITION BY user_id ORDER BY rn)),
m1 AS (
  SELECT user_id, event_id, rn, value, v5, v4, v3, v2, v1,
         ((((v5 + v4) + v3) + v2) + v1) / 5.0 AS mprev
  FROM lagd WHERE n >= 10 AND rn > 5),
dvp AS MATERIALIZED (
  SELECT user_id, event_id, rn - 5 AS pos,
         CASE WHEN sprev > 1e-6 THEN (value - mprev) / sprev
              ELSE 0.0 END AS dev
  FROM (
    SELECT *,
           sqrt((((((v5 - mprev) * (v5 - mprev)
                 + (v4 - mprev) * (v4 - mprev))
                 + (v3 - mprev) * (v3 - mprev))
                 + (v2 - mprev) * (v2 - mprev))
                 + (v1 - mprev) * (v1 - mprev)) / 4.0) AS sprev
    FROM m1)),
rec AS (
  SELECT user_id, event_id, pos, dev AS cum,
         CASE WHEN dev > 3.0 OR dev < -3.0 THEN dev ELSE 0.0 END AS base,
         (dev > 3.0 OR dev < -3.0) AS flag
  FROM dvp WHERE pos = 1
  UNION ALL
  SELECT d.user_id, d.event_id, d.pos, r.cum + d.dev,
         CASE WHEN (r.cum + d.dev) - r.base > 3.0
                OR (r.cum + d.dev) - r.base < -3.0
              THEN r.cum + d.dev ELSE r.base END,
         ((r.cum + d.dev) - r.base > 3.0
          OR (r.cum + d.dev) - r.base < -3.0)
  FROM rec r JOIN dvp d ON d.user_id = r.user_id AND d.pos = r.pos + 1)
SELECT user_id, event_id FROM rec WHERE flag
""",
        # D2 quantized: trailing mean/std(ddof=1) deviations rounded
        # half-even to micros (round_even == numpy banker's), integer
        # prefix sum, then the sequential reset-on-detection fold as a
        # recursive CTE (each iteration = next crossing per user via
        # min/arg_min over the integer prefix — comparisons are exact)
        "cusum_flags_q": """
WITH RECURSIVE ordered AS (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events),
dv AS (
  SELECT user_id, event_id, rn, n,
         avg(value) OVER w AS mprev,
         stddev_samp(value) OVER w AS sprev,
         value
  FROM ordered
  WINDOW w AS (PARTITION BY user_id ORDER BY rn
               ROWS BETWEEN 5 PRECEDING AND 1 PRECEDING)),
p AS MATERIALIZED (
  SELECT user_id, event_id, rn,
         sum(CAST(round_even(
               (CASE WHEN sprev > 1e-6 THEN (value - mprev) / sprev
                     ELSE 0.0 END) * 1000000, 0) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY rn) AS pfx
  FROM dv WHERE n >= 10 AND rn > 5),
j AS (
  SELECT user_id, min(rn) AS rn, arg_min(pfx, rn) AS base
  FROM p WHERE abs(pfx) > 3000000 GROUP BY user_id
  UNION ALL
  SELECT j.user_id, min(p.rn), arg_min(p.pfx, p.rn)
  FROM j JOIN p ON p.user_id = j.user_id AND p.rn > j.rn
               AND abs(p.pfx - j.base) > 3000000
  GROUP BY j.user_id)
SELECT p.user_id, p.event_id FROM j JOIN p USING (user_id, rn)
""",
        # composed D2 -> C2: same jump set, then offset = median(5 before)
        # - median(5 after) from ORIGINAL values (odd-count median ==
        # exact element selection), applied cumulatively in rn order
        "jump_corrected_events": """
WITH RECURSIVE ordered AS (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events),
dv AS (
  SELECT user_id, event_id, rn, n,
         avg(value) OVER w AS mprev,
         stddev_samp(value) OVER w AS sprev,
         value
  FROM ordered
  WINDOW w AS (PARTITION BY user_id ORDER BY rn
               ROWS BETWEEN 5 PRECEDING AND 1 PRECEDING)),
p AS MATERIALIZED (
  SELECT user_id, event_id, rn, n,
         sum(CAST(round_even(
               (CASE WHEN sprev > 1e-6 THEN (value - mprev) / sprev
                     ELSE 0.0 END) * 1000000, 0) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY rn) AS pfx
  FROM dv WHERE n >= 10 AND rn > 5),
j AS (
  SELECT user_id, min(rn) AS rn, arg_min(pfx, rn) AS base
  FROM p WHERE abs(pfx) > 3000000 GROUP BY user_id
  UNION ALL
  SELECT j.user_id, min(p.rn), arg_min(p.pfx, p.rn)
  FROM j JOIN p ON p.user_id = j.user_id AND p.rn > j.rn
               AND abs(p.pfx - j.base) > 3000000
  GROUP BY j.user_id),
offs AS (
  SELECT j.user_id, j.rn,
    (SELECT median(b.value) FROM ordered b
     WHERE b.user_id = j.user_id AND b.rn BETWEEN j.rn - 5 AND j.rn - 1)
  - (SELECT median(a.value) FROM ordered a
     WHERE a.user_id = j.user_id AND a.rn BETWEEN j.rn AND j.rn + 4) AS off
  FROM j JOIN p USING (user_id, rn)
  WHERE j.rn BETWEEN 6 AND p.n - 5),
cum AS (
  SELECT user_id, rn,
         sum(off) OVER (PARTITION BY user_id ORDER BY rn) AS cumoff
  FROM offs)
SELECT o.user_id, o.event_id,
       round(o.value + coalesce(c.cumoff, 0), 6) AS value_jumpcorr
FROM ordered o ASOF LEFT JOIN cum c
  ON o.user_id = c.user_id AND o.rn >= c.rn
""",
        "hampel_flags": """
WITH ordered AS (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events),
med AS (
  SELECT a.user_id, a.rn, a.event_id, a.value,
         median(b.value) AS rmed, count(*) AS wcount
  FROM ordered a JOIN ordered b
    ON a.user_id = b.user_id AND b.rn BETWEEN a.rn - 2 AND a.rn + 2
  GROUP BY a.user_id, a.rn, a.event_id, a.value),
madt AS (
  SELECT m.user_id, m.rn, m.event_id, m.value, m.rmed, m.wcount,
         median(abs(b.value - m.rmed)) AS rmad
  FROM med m JOIN ordered b
    ON m.user_id = b.user_id AND b.rn BETWEEN m.rn - 2 AND m.rn + 2
  GROUP BY m.user_id, m.rn, m.event_id, m.value, m.rmed, m.wcount)
SELECT user_id, event_id FROM madt
WHERE wcount = 5
  AND (CASE WHEN rmad * 1.4826 < 1e-6
            THEN (CASE WHEN abs(value - rmed) > 1e-6
                       THEN (CASE WHEN abs(value - rmed) > 3.0 * 1e-6
                                  THEN CAST('inf' AS DOUBLE) ELSE 0.0 END)
                       ELSE 0.0 END)
            ELSE abs(value - rmed) / (rmad * 1.4826) END) > 3.0
""",
        "tail_nonzero_avg": """
WITH ordered AS (
  SELECT user_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rd,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts ASC, event_id ASC) AS ra
  FROM events)
SELECT user_id,
  round(coalesce(avg(value) FILTER (WHERE rd <= 5 AND value <> 0), 0), 6)
    AS tail_avg,
  round(coalesce(avg(value) FILTER (WHERE ra <= 5 AND value <> 0), 0), 6)
    AS head_avg
FROM ordered GROUP BY user_id
""",
        "unpivot_lineitem": """
SELECT l_orderkey, l_linenumber, 'l_quantity' AS measure, l_quantity AS value
  FROM lineitem WHERE abs(l_quantity) >= 0.1
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_extendedprice', l_extendedprice
  FROM lineitem WHERE abs(l_extendedprice) >= 0.1
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_discount', l_discount
  FROM lineitem WHERE abs(l_discount) >= 0.1
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_tax', l_tax
  FROM lineitem WHERE abs(l_tax) >= 0.1
""",
        "broadcast_enrich_orders": """
SELECT o.o_orderkey, o.o_totalprice, c.c_mktsegment
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
""",
        "sanitize_docs": """
SELECT doc_id,
       CASE WHEN text LIKE '''%' THEN text
            WHEN regexp_matches(text, '^[\\s]*[=+\\-@＝＋－＠]')
              THEN '''' || text
            ELSE text END AS text
FROM documents
""",
        "summary_by_source": """
SELECT source, count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars,
       min(n_chars) AS min_chars, max(n_chars) AS max_chars
FROM documents GROUP BY source
""",
        "dedup_exact": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "token_counts": r"""
SELECT doc_id,
       len(regexp_split_to_array(text, '\s+')) AS n_ws_tokens,
       len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]'))
         AS n_bpe_tokens
FROM documents
""",
        "quality_features": r"""
WITH f AS (
  SELECT doc_id,
         length(text) AS n_chars,
         regexp_extract_all(lower(text), '[a-z]+') AS words,
         len(regexp_extract_all(text, '[!-/:-@\[-`{-~]')) AS n_punct
  FROM documents)
SELECT doc_id, n_chars, len(words) AS n_words, n_punct,
       CASE WHEN n_chars > 0
            THEN round(CAST(n_punct AS DOUBLE) / greatest(n_chars, 1), 6)
            ELSE 0.0 END AS punct_ratio,
       CASE WHEN len(words) > 0
            THEN round(CAST(len(list_filter(words, w -> w IN ('a', 'all', 'an', 'and', 'are', 'as', 'at', 'be', 'but', 'by', 'can', 'for', 'from', 'had', 'in', 'is', 'it', 'not', 'of', 'on', 'or', 'that', 'the', 'there', 'this', 'to', 'was', 'we', 'were', 'what', 'when', 'with')))
                            AS DOUBLE) / greatest(len(words), 1), 6)
            ELSE 0.0 END AS stop_ratio
FROM f
""",
        "join_lineitem_orders": _JOIN_LI_ORDERS_SQL,
        "repetition_features": r"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(coalesce(text, ''), '\s+') AS arr
  FROM documents
), pos AS (
  SELECT doc_id, unnest(arr) AS w,
         unnest(generate_series(1, len(arr))) AS i, len(arr) AS n
  FROM toks
), grams AS (
  SELECT doc_id, n, w,
         w || ' ' || lead(w, 1) OVER win AS bg,
         w || ' ' || lead(w, 1) OVER win || ' ' || lead(w, 2) OVER win AS tg
  FROM pos WINDOW win AS (PARTITION BY doc_id ORDER BY i)
), wstat AS (
  SELECT doc_id, max(c) AS top_w, sum(c) AS n_w
  FROM (SELECT doc_id, w, count(*) AS c FROM grams GROUP BY 1, 2)
  GROUP BY 1
), bstat AS (
  SELECT doc_id, max(c) AS top_b, sum(c) AS n_b
  FROM (SELECT doc_id, bg, count(*) AS c FROM grams
        WHERE bg IS NOT NULL GROUP BY 1, 2)
  GROUP BY 1
), tstat AS (
  SELECT doc_id, count(DISTINCT tg) AS d_t, count(*) AS n_t
  FROM grams WHERE tg IS NOT NULL GROUP BY 1
)
SELECT w.doc_id, CAST(w.n_w AS BIGINT) AS n_words,
       round(CAST(w.top_w AS DOUBLE) / w.n_w, 6) AS top_word_frac,
       coalesce(round(CAST(b.top_b AS DOUBLE) / b.n_b, 6), 0.0)
         AS top_bigram_frac,
       coalesce(round(1.0 - CAST(t.d_t AS DOUBLE) / t.n_t, 6), 0.0)
         AS dup_trigram_frac
FROM wstat w
LEFT JOIN bstat b ON b.doc_id = w.doc_id
LEFT JOIN tstat t ON t.doc_id = w.doc_id
""",
        "redact_pii": r"""
WITH r1 AS (
  SELECT doc_id,
         regexp_replace(coalesce(text, ''),
                        'https?://[^\t\n\f\r ]+', '<URL>', 'g') AS t1,
         len(regexp_extract_all(coalesce(text, ''),
                                'https?://[^\t\n\f\r ]+')) AS n_url
  FROM documents
), r2 AS (
  SELECT doc_id, n_url,
         regexp_replace(t1, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                        '<EMAIL>', 'g') AS t2,
         len(regexp_extract_all(
             t1, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
           AS n_email
  FROM r1
)
SELECT doc_id,
       regexp_replace(t2, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                      '<IP>', 'g') AS text_redacted,
       n_url, n_email,
       len(regexp_extract_all(
           t2, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS n_ip
FROM r2
""",
        "simhash_signatures": _simhash_sql(),
        # packed sequences: every row (bucket, seq_idx, n_tok, is_full,
        # checksum) value-checked — polynomial ids make it replicable
        "packed_sequences": _packed_sequences_sql(),
        # vocabulary tf/df + bigram transitions over the same
        # SQL-replicable polynomial token ids
        "token_vocab_stats": _token_vocab_sql(),
        "token_bigrams": _token_bigrams_sql(),
        "ngram_jaccard_pairs": """
WITH pos AS (
  SELECT doc_id, text, unnest(generate_series(1, length(text) - 4)) AS i
  FROM documents WHERE length(text) >= 5
), sh AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INTEGER), 5) AS s FROM pos
  UNION
  SELECT doc_id, text AS s FROM documents
  WHERE length(text) BETWEEN 1 AND 4
), sizes AS (
  SELECT doc_id, count(*) AS n FROM sh GROUP BY 1
), pair AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS inter
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT p.id_a, p.id_b,
       round(CAST(p.inter AS DOUBLE) / (sa.n + sb.n - p.inter), 6)
         AS jaccard
FROM pair p
JOIN sizes sa ON sa.doc_id = p.id_a
JOIN sizes sb ON sb.doc_id = p.id_b
WHERE CAST(p.inter AS DOUBLE) / (sa.n + sb.n - p.inter) >= 0.8
""",
        "user_type_totals_join": """
SELECT e.event_id, e.user_id, e.event_type, e.value,
       g.type_total, g.type_count
FROM events e
JOIN (SELECT user_id, event_type, round(sum(value), 6) AS type_total,
             count(*) AS type_count
      FROM events GROUP BY 1, 2) g
  ON e.user_id = g.user_id AND e.event_type = g.event_type
""",
        # bloom / skew variants compute the identical inner join through
        # different physical plans — same oracle certifies each plan
        "join_lineitem_orders_bloom": _JOIN_LI_ORDERS_SQL,
        "join_lineitem_orders_skew": _JOIN_LI_ORDERS_SQL,
        "rollup_user_1h": f"""
SELECT user_id,
       {EPOCH_S} - ({EPOCH_S} % 3600) AS window_start,
       min(value) AS vmin, max(value) AS vmax,
       round(sum(value), 6) AS vsum, count(*) AS vcount,
       round(round(sum(value), 6) / count(*), 6) AS vmean
FROM events GROUP BY 1, 2
""",
        "distinct_users": """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
""",
        "top_users_by_value": """
SELECT user_id, round(sum(value), 6) AS total_value
FROM events GROUP BY user_id
ORDER BY sum(value) DESC, user_id ASC LIMIT 10
""",
        "filter_pushdown_events": """
SELECT event_id, user_id, value FROM events WHERE value > 50.0
""",
        "rollup_1m_retention": f"""
SELECT * FROM (
  SELECT event_type,
         {EPOCH_S} - ({EPOCH_S} % 60) AS window_start,
         min(value) AS vmin, max(value) AS vmax,
         round(sum(value), 6) AS vsum, count(*) AS vcount,
         round(round(sum(value), 6) / count(*), 6) AS vmean
  FROM events GROUP BY 1, 2)
WHERE window_start >= {RETENTION_CUTOFF}
""",
        "downsample_stride": """
WITH ordered AS (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events)
SELECT user_id, event_id, value FROM ordered WHERE (rn - 1) % 10 = 0
""",
        "session_windows": f"""
WITH ordered AS (
  SELECT user_id, {EPOCH_S} AS t,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) IS NULL
                   OR {EPOCH_S} - lag({EPOCH_S}) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id) > 1800
              THEN 1 ELSE 0 END AS boundary
  FROM events),
sess AS (
  SELECT user_id, t,
         CAST(sum(boundary) OVER (PARTITION BY user_id ORDER BY rn)
              AS BIGINT) AS session_id
  FROM ordered)
SELECT user_id, session_id, count(*) AS n_events,
       min(t) AS t_start, max(t) AS t_end
FROM sess GROUP BY user_id, session_id
""",
        # bounce rate: the same sessionization, reduced to per-user
        # integer counts and one rounded division
        "bounce_rate": f"""
WITH ordered AS (
  SELECT user_id, {EPOCH_S} AS t,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) IS NULL
                   OR {EPOCH_S} - lag({EPOCH_S}) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id) > 1800
              THEN 1 ELSE 0 END AS boundary
  FROM events),
sess AS (
  SELECT user_id,
         CAST(sum(boundary) OVER (PARTITION BY user_id ORDER BY rn)
              AS BIGINT) AS session_id
  FROM ordered),
s AS (
  SELECT user_id, session_id, COUNT(*) AS ne
  FROM sess GROUP BY 1, 2)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(COUNT(*) FILTER (ne = 1) AS BIGINT) AS n_bounce,
       round(CAST(COUNT(*) FILTER (ne = 1) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS bounce_rate
FROM s GROUP BY 1
""",
        # RFM: NTILE(5) over (metric, user_id) total orders — the
        # equal-fill rule is pure integer arithmetic on both sides
        "rfm_scores": """
WITH s AS (
  SELECT user_id, MAX(epoch_us(ts)) AS last_t,
         CAST(COUNT(*) AS BIGINT) AS freq,
         SUM(CAST(round(value*100) AS BIGINT)) AS cents
  FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL
  GROUP BY 1)
SELECT user_id,
       CAST(ntile(5) OVER (ORDER BY last_t, user_id) AS BIGINT)
         AS r_score,
       CAST(ntile(5) OVER (ORDER BY freq, user_id) AS BIGINT)
         AS f_score,
       CAST(ntile(5) OVER (ORDER BY cents, user_id) AS BIGINT)
         AS m_score,
       CAST(ntile(5) OVER (ORDER BY last_t, user_id) AS VARCHAR)
         || CAST(ntile(5) OVER (ORDER BY freq, user_id) AS VARCHAR)
         || CAST(ntile(5) OVER (ORDER BY cents, user_id) AS VARCHAR)
         AS rfm,
       round(CAST(cents AS DOUBLE) / 100.0, 6) AS monetary
FROM s
""",
        # vocab overlap: exact distinct-cell intersections, one
        # division per source pair
        "vocab_overlap_sources": r"""
WITH raw AS (
  SELECT source,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents WHERE source IS NOT NULL),
cells AS (SELECT DISTINCT source, term FROM raw),
sz AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n
       FROM cells GROUP BY 1),
inter AS (
  SELECT a.source AS src_a, b.source AS src_b,
         CAST(COUNT(*) AS BIGINT) AS inter
  FROM cells a JOIN cells b
    ON a.term = b.term AND a.source < b.source
  GROUP BY 1, 2)
SELECT i.src_a, i.src_b, i.inter,
       sa.n + sb.n - i.inter AS union_sz,
       round(CAST(i.inter AS DOUBLE)
             / CAST(sa.n + sb.n - i.inter AS DOUBLE), 6) AS jaccard
FROM inter i
JOIN sz sa ON sa.source = i.src_a
JOIN sz sb ON sb.source = i.src_b
""",
        "volume_shipping": """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year,
       CAST(SUM(CAST(round(l.l_extendedprice*100) AS BIGINT)
                * (100 - CAST(round(l.l_discount*100) AS BIGINT)))
            AS DOUBLE) / 10000.0 AS revenue
FROM lineitem l
JOIN supplier s ON l.l_suppkey  = s.s_suppkey
JOIN orders o   ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey  = c.c_custkey
JOIN nation n1  ON s.s_nationkey = n1.n_nationkey
JOIN nation n2  ON c.c_nationkey = n2.n_nationkey
GROUP BY 1, 2, 3
""",
        "returned_item_revenue": """
WITH per_cust AS (
  SELECT o.o_custkey,
         SUM(CAST(round(l.l_extendedprice*100) AS BIGINT)
             * (100 - CAST(round(l.l_discount*100) AS BIGINT))) AS rev1e4
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE l.l_returnflag = 'R'
  GROUP BY 1)
SELECT c.c_custkey, c.c_name, n.n_name,
       CAST(p.rev1e4 AS DOUBLE) / 10000.0 AS revenue
FROM per_cust p
JOIN customer c ON p.o_custkey   = c.c_custkey
JOIN nation n   ON c.c_nationkey = n.n_nationkey
ORDER BY p.rev1e4 DESC, c.c_custkey
LIMIT 20
""",
        "order_count_dist": """
WITH per_cust AS (
  SELECT c.c_custkey, COUNT(o.o_custkey) AS c_count
  FROM customer c LEFT JOIN orders o
    ON c.c_custkey = o.o_custkey AND o.o_orderpriority <> '1-URGENT'
  GROUP BY 1)
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
FROM per_cust GROUP BY 1
""",
        "top_supplier_revenue": """
WITH per_supp AS (
  SELECT l_suppkey,
         SUM(CAST(round(l_extendedprice*100) AS BIGINT)
             * (100 - CAST(round(l_discount*100) AS BIGINT))) AS rev1e4
  FROM lineitem GROUP BY 1)
SELECT s.s_suppkey, s.s_name,
       CAST(p.rev1e4 AS DOUBLE) / 10000.0 AS total_revenue
FROM per_supp p JOIN supplier s ON p.l_suppkey = s.s_suppkey
WHERE p.rev1e4 = (SELECT MAX(rev1e4) FROM per_supp)
""",
        "small_qty_revenue": """
WITH q AS (
  SELECT l_partkey, CAST(round(l_quantity*100) AS BIGINT) AS q100,
         CAST(round(l_extendedprice*100) AS BIGINT) AS p100
  FROM lineitem),
stats AS (SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS n,
                 SUM(q100) AS sumq100
          FROM q GROUP BY 1)
SELECT round(CAST(COALESCE(SUM(q.p100), 0) AS DOUBLE) / 700.0, 6)
         AS avg_yearly
FROM q JOIN stats s ON q.l_partkey = s.l_partkey
WHERE 5 * q.q100 * s.n < s.sumq100
""",
        "large_volume_customers": """
WITH qty AS (
  SELECT l_orderkey,
         SUM(CAST(round(l_quantity*100) AS BIGINT)) AS q100
  FROM lineitem GROUP BY 1
  HAVING SUM(CAST(round(l_quantity*100) AS BIGINT)) > 25000)
SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate,
       o.o_totalprice, CAST(q.q100 AS DOUBLE) / 100.0 AS total_qty
FROM qty q
JOIN orders o   ON q.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey  = c.c_custkey
ORDER BY CAST(round(o.o_totalprice*100) AS BIGINT) DESC, o.o_orderkey
LIMIT 100
""",
        "disjunctive_revenue": """
SELECT CAST(SUM(CASE WHEN
  (p.p_brand = 'Brand#4'  AND p.p_size BETWEEN 1  AND 15
   AND CAST(round(l.l_quantity*100) AS BIGINT) BETWEEN 100  AND 2000) OR
  (p.p_brand = 'Brand#2'  AND p.p_size BETWEEN 10 AND 30
   AND CAST(round(l.l_quantity*100) AS BIGINT) BETWEEN 1000 AND 3500) OR
  (p.p_brand = 'Brand#19' AND p.p_size BETWEEN 20 AND 50
   AND CAST(round(l.l_quantity*100) AS BIGINT) BETWEEN 2000 AND 5000)
  THEN CAST(round(l.l_extendedprice*100) AS BIGINT)
       * (100 - CAST(round(l.l_discount*100) AS BIGINT))
  ELSE 0 END) AS DOUBLE) / 10000.0 AS revenue
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
""",
        "weighted_sample_docs": f"""
WITH s AS (
  SELECT doc_id, n_chars,
         ln((CAST({_splitmix_sql("doc_id")} AS DOUBLE) + 1.0)
            / 18446744073709551616.0) / CAST(n_chars AS DOUBLE) AS sc
  FROM documents WHERE n_chars > 0)
SELECT doc_id, n_chars, round(sc, 6) AS wkey
FROM s ORDER BY sc DESC, doc_id LIMIT 50
""",
        "latest_event_per_user": """
SELECT user_id, event_id, epoch_us(ts) AS t, event_type, value
FROM (SELECT *, row_number() OVER (PARTITION BY user_id
        ORDER BY epoch_us(ts) DESC, event_id DESC) AS rk
      FROM events WHERE user_id IS NOT NULL)
WHERE rk = 1
""",
        "pagerank_event_types": """
WITH RECURSIVE
pairs AS (
  SELECT prev AS u, event_type AS v, CAST(COUNT(*) AS BIGINT) AS w
  FROM (SELECT user_id, event_type,
               lag(event_type) OVER (PARTITION BY user_id
                                     ORDER BY epoch_us(ts), event_id)
                 AS prev
        FROM events
        WHERE user_id IS NOT NULL AND event_type IS NOT NULL)
  WHERE prev IS NOT NULL GROUP BY 1, 2),
nodes AS (SELECT DISTINCT x AS node
          FROM (SELECT u AS x FROM pairs UNION SELECT v FROM pairs)),
nl AS (SELECT list(node ORDER BY node) AS ns FROM nodes),
pos AS (SELECT node,
               CAST(row_number() OVER (ORDER BY node) AS BIGINT) AS idx
        FROM nodes),
outw AS (SELECT u, SUM(w) AS wsum FROM pairs GROUP BY 1),
en AS (SELECT p.v, p.u, pu.idx AS uidx,
              CAST(p.w AS DOUBLE) / CAST(o.wsum AS DOUBLE) AS wn
       FROM pairs p JOIN outw o ON p.u = o.u
       JOIN pos pu ON p.u = pu.node),
inl AS (SELECT v, list(uidx ORDER BY u) AS uidxs,
               list(wn ORDER BY u) AS wns
        FROM en GROUP BY v),
padded AS (SELECT p.idx, COALESCE(i.uidxs, []) AS uidxs,
                  COALESCE(i.wns, []) AS wns
           FROM pos p LEFT JOIN inl i ON i.v = p.node),
alists AS (SELECT list(uidxs ORDER BY idx) AS alluidx,
                  list(wns ORDER BY idx) AS allwns FROM padded),
r AS (
  SELECT 0 AS it,
         list_transform(ns, x -> 1.0 / CAST(len(ns) AS DOUBLE)) AS ranks
  FROM nl
  UNION ALL
  SELECT it + 1,
         list_transform(range(1, len(ns) + 1), i ->
           0.15 / CAST(len(ns) AS DOUBLE)
           + 0.85 * COALESCE(list_reduce(
               list_transform(range(1, len(alluidx[i]) + 1), j ->
                 r.ranks[alluidx[i][j]] * allwns[i][j]),
               (a, b) -> a + b), 0.0))
  FROM r, alists, nl WHERE it < 4)
SELECT p.node AS event_type, round(r.ranks[p.idx], 6) AS pagerank
FROM r, pos p WHERE r.it = 4
""",
        "mode_per_type": """
WITH c AS (
  SELECT event_type, CAST(round(value*100) AS BIGINT) AS cents,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events WHERE value IS NOT NULL AND event_type IS NOT NULL
  GROUP BY 1, 2),
rk AS (SELECT *, row_number() OVER (PARTITION BY event_type
                                    ORDER BY n DESC, cents) AS r
       FROM c)
SELECT event_type, CAST(cents AS DOUBLE) / 100.0 AS mode_value,
       n AS n_mode
FROM rk WHERE r = 1
""",
        "rsi_per_user": """
WITH RECURSIVE c AS (
  SELECT user_id, event_id, epoch_us(ts) AS t, value,
         row_number() OVER w AS rn,
         value - lag(value) OVER w AS d
  FROM events WHERE user_id IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
g AS (SELECT user_id, event_id, t, rn,
             CASE WHEN d > 0 THEN d ELSE 0.0 END AS gain,
             CASE WHEN d < 0 THEN -d ELSE 0.0 END AS loss
      FROM c),
r AS (
  SELECT user_id, event_id, t, rn,
         CAST(0.0 AS DOUBLE) AS ag, CAST(0.0 AS DOUBLE) AS al
  FROM g WHERE rn = 1
  UNION ALL
  SELECT g.user_id, g.event_id, g.t, g.rn,
         (r.ag * 13.0 + g.gain) / 14.0,
         (r.al * 13.0 + g.loss) / 14.0
  FROM g JOIN r ON g.user_id = r.user_id AND g.rn = r.rn + 1)
SELECT user_id, event_id, t,
       CASE WHEN al = 0 THEN 100.0
            ELSE round(100.0 - 100.0 / (1.0 + ag / al), 6) END AS rsi
FROM r
""",
        "rolling_active_users": """
WITH du AS (
  SELECT DISTINCT epoch_us(ts) // 86400000000 AS day, user_id
  FROM events WHERE user_id IS NOT NULL),
days AS (SELECT DISTINCT day FROM du)
SELECT d.day, CAST(COUNT(DISTINCT u.user_id) AS BIGINT) AS active
FROM days d JOIN du u ON u.day BETWEEN d.day - 6 AND d.day
GROUP BY 1
""",
        "inactive_high_balance": """
WITH bal AS (
  SELECT c_custkey, c_nationkey,
         CAST(round(c_acctbal*100) AS BIGINT) AS bal100
  FROM customer),
g AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, SUM(bal100) AS s100
      FROM bal WHERE bal100 > 0),
quiet AS (
  SELECT b.* FROM bal b, g
  WHERE b.bal100 * g.n > g.s100
    AND NOT EXISTS (SELECT 1 FROM orders o
                    WHERE o.o_custkey = b.c_custkey
                      AND o.o_orderpriority = '1-URGENT'))
SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS numcust,
       CAST(SUM(bal100) AS DOUBLE) / 100.0 AS totacctbal
FROM quiet GROUP BY 1
""",
        "sliding_mean": """
SELECT user_id, event_id,
       round(avg(value) OVER (PARTITION BY user_id ORDER BY epoch_us(ts)
             RANGE BETWEEN 300000000 PRECEDING AND CURRENT ROW), 6)
         AS sliding_mean
FROM events
""",
        "users_click_and_purchase": """
SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
INTERSECT
SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'
""",
        "users_click_no_purchase": """
SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
EXCEPT
SELECT DISTINCT user_id FROM events
WHERE event_type = 'purchase' AND value > 95.0
""",
        "rollup_grouping_sets": """
SELECT event_type,
       CAST(SUM(CAST(round(value*100) AS BIGINT)) AS DOUBLE) / 100.0
         AS total_value,
       COUNT(*) AS n_events
FROM events GROUP BY ROLLUP(event_type)
""",
        "top_windows_by_volume": f"""
SELECT * FROM (
  SELECT event_type,
         {EPOCH_S} - ({EPOCH_S} % 3600) AS window_start,
         min(value) AS vmin, max(value) AS vmax,
         round(sum(value), 6) AS vsum, count(*) AS vcount,
         round(round(sum(value), 6) / count(*), 6) AS vmean
  FROM events GROUP BY 1, 2)
ORDER BY vsum DESC, event_type, window_start
LIMIT 20
""",
        # the cumulative (user, day) level-shift fold as a recursive CTE:
        # state carried across segments is the previous segment's applied
        # offset; list slices give the raw head/tail windows and the
        # nonzero means run over the SHIFTED previous tail, exactly like
        # kernels.level_shift_fold (skipped boundaries emit NaN like the
        # engine)
        "level_shifts_events": """
WITH RECURSIVE seg AS (
  SELECT user_id,
         (epoch_us(ts)//1000000)//86400 AS day,
         count(*) AS n,
         list(value ORDER BY ts, event_id) AS vals
  FROM events GROUP BY 1, 2),
ord AS (
  SELECT *, row_number() OVER (PARTITION BY user_id ORDER BY day) - 1 AS k
  FROM seg),
rec AS (
  SELECT user_id, k, day, CAST(0.0 AS DOUBLE) AS shift,
         CAST(0.0 AS DOUBLE) AS offs, n, vals
  FROM ord WHERE k = 0
  UNION ALL
  SELECT user_id, k, day,
         CASE WHEN ok THEN s ELSE 'NaN'::DOUBLE END AS shift,
         CASE WHEN ok THEN s ELSE 0.0 END AS offs,
         n, vals
  FROM (
    SELECT o.user_id, o.k, o.day, o.n, o.vals,
           (r.n >= 5 AND o.n >= 5) AS ok,
           COALESCE(list_aggregate(list_filter(
               list_transform(list_slice(r.vals, greatest(r.n - 4, 1), r.n),
                              x -> x + r.offs),
               y -> y != 0), 'avg'), 0.0)
           - COALESCE(list_aggregate(list_filter(
               list_slice(o.vals, 1, 5), y -> y != 0), 'avg'), 0.0) AS s
    FROM rec r JOIN ord o ON o.user_id = r.user_id AND o.k = r.k + 1))
SELECT user_id, day AS segment, round(shift, 6) AS shift FROM rec
""",
        # deterministic text operators replicated bit-exact in SQL:
        # the rolling fingerprint is a Horner fold of the polynomial hash
        # (codepoint == utf-8 byte over this ASCII corpus); lang-id is the
        # marker-set argmax with the engine's fixed en>de>fr>es tie order
        "doc_fingerprints": f"""
WITH cps AS (
  SELECT doc_id,
         list_reverse(list_transform(string_split(text, ''),
                                     c -> CAST(unicode(c) AS HUGEINT))) AS cs
  FROM documents),
fp AS (
  SELECT doc_id,
         CASE WHEN len(cs) = 0 THEN 0
              ELSE list_reduce(cs, (acc, c) ->
                   (((acc % 4294967296) * 1099511628211
                     + (acc // 4294967296) * 435 * 4294967296)
                    % 18446744073709551616 + c) % 18446744073709551616)
         END AS v
  FROM cps)
SELECT doc_id,
       CAST(CASE WHEN v >= 9223372036854775808
                 THEN v - 18446744073709551616 ELSE v END AS BIGINT)
         AS fingerprint
FROM fp
""",
        "lang_id": """
WITH w AS (
  SELECT doc_id,
         list_distinct(regexp_extract_all(lower(text), '[a-zà-ÿ]+')) AS ws
  FROM documents),
s AS (
  SELECT doc_id,
         len(list_intersect(ws, ['and','for','in','is','it','of','that','the','to','was'])) AS en,
         len(list_intersect(ws, ['das','der','die','ein','ist','mit','nicht','und','von','zu'])) AS de,
         len(list_intersect(ws, ['dans','des','est','et','la','le','les','pour','que','une'])) AS fr,
         len(list_intersect(ws, ['con','de','el','en','la','las','los','por','que','una'])) AS es
  FROM w)
SELECT doc_id,
       CASE WHEN en = 0 AND de = 0 AND fr = 0 AND es = 0 THEN 'unknown'
            WHEN en >= de AND en >= fr AND en >= es THEN 'en'
            WHEN de >= fr AND de >= es THEN 'de'
            WHEN fr >= es THEN 'fr'
            ELSE 'es' END AS lang_pred
FROM s
""",
        "contamination_scan": """
WITH probes AS (
  -- ((x % m) + m) % m = numpy's sign-independent modulo; DuckDB's bare
  -- % is sign-following and would diverge from the engine on negative ids
  SELECT substr(text, 11, 24) AS p FROM documents
  WHERE ((doc_id % 97) + 97) % 97 = 0
  ORDER BY doc_id LIMIT 4096),
v AS (SELECT p FROM probes WHERE length(p) = 24)
SELECT d.doc_id, CAST(count(*) AS BIGINT) AS n_hits
FROM documents d JOIN v ON position(v.p IN d.text) > 0
GROUP BY d.doc_id
""",
        "packing_summary": f"""
WITH tok AS (
  SELECT CAST({_splitmix_sql("doc_id")} % {{nb}} AS BIGINT) AS bucket,
         len(regexp_extract_all(text,
             '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]')) AS n_tok
  FROM documents)
SELECT bucket,
       CAST(sum(n_tok) // {{sl}} AS BIGINT) AS n_full_seqs,
       CAST(sum(n_tok) % {{sl}} AS BIGINT) AS rem_tokens,
       CAST(sum(n_tok) AS BIGINT) AS total_tokens
FROM tok GROUP BY bucket
""".replace("{nb}", str(PACK_BUCKETS)).replace("{sl}", str(PACK_SEQ_LEN)),
        # engine-hash queries: the stable key hash is replicated bit-exact
        # in SQL (_splitmix_sql), so the deterministic sample/split are
        # fully oracle-checkable rather than rows-only
        "sample_users_10pct": f"""
SELECT event_id, user_id, value FROM events
WHERE {_splitmix_sql("user_id")} <= 1844674407370955264
""",
        "stratified_sample_docs": f"""
SELECT doc_id, source, n_chars FROM documents
WHERE {_splitmix_sql("doc_id")} <= CASE source
  WHEN 'src0' THEN 18446744073709551615
  WHEN 'src1' THEN 9223372036854775808
  WHEN 'src2' THEN 4611686018427387904
  ELSE 1844674407370955264 END
""",
        "split_documents": f"""
WITH h AS (SELECT {_splitmix_sql("doc_id")} AS hv FROM documents)
SELECT CASE WHEN hv <= 14757395258967642112 THEN 'train'
            WHEN hv <= 16602069666338596864 THEN 'val'
            ELSE 'test' END AS split,
       count(*) AS n_docs
FROM h GROUP BY 1
""",
        "vector_stats": """
SELECT vec_id, len(embedding) AS dim,
       round(sqrt(list_sum(list_transform(CAST(embedding AS DOUBLE[]),
                                          x -> x*x))), 6) AS l2_norm,
       round(list_avg(CAST(embedding AS DOUBLE[])), 6) AS vmean
FROM embeddings
""",
        "asof_join_purchases": """
WITH p AS (SELECT user_id, epoch_us(ts) AS tu, value FROM events
           WHERE event_type = 'purchase')
SELECT e.user_id, e.event_id, round(p.value, 6) AS last_purchase_value
FROM events e ASOF LEFT JOIN p
  ON e.user_id = p.user_id AND epoch_us(e.ts) >= p.tu
""",
        "semi_join_orders": """
SELECT o_orderkey, o_custkey, o_totalprice FROM orders o
WHERE EXISTS (SELECT 1 FROM customer c
              WHERE c.c_custkey = o.o_custkey
                AND c.c_mktsegment = 'BUILDING')
""",
        "anti_join_orders": """
SELECT o_orderkey, o_custkey, o_totalprice FROM orders o
WHERE NOT EXISTS (SELECT 1 FROM customer c
                  WHERE c.c_custkey = o.o_custkey
                    AND c.c_mktsegment = 'BUILDING')
""",
        "grouped_median_1h": f"""
SELECT event_type,
       {EPOCH_S} - ({EPOCH_S} % 3600) AS window_start,
       round(median(value), 6) AS vmedian
FROM events GROUP BY 1, 2
""",
        "knn_topk": """
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe FROM embeddings
           WHERE vec_id = 0)
SELECT e.vec_id,
       round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe), 6)
         AS cosine_sim
FROM embeddings e, q
ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) DESC,
         e.vec_id ASC
LIMIT 10
""",
        # bit-exact via identical scaled-int sums and identical final
        # divisions on both engines (see stages/relational.pricing_summary)
        "pricing_summary": f"""
WITH s AS (
  SELECT l_returnflag, l_linestatus,
         CAST(round(l_quantity*100) AS BIGINT)       AS q100,
         CAST(round(l_extendedprice*100) AS BIGINT)  AS p100,
         CAST(round(l_discount*100) AS BIGINT)       AS d100,
         CAST(round(l_tax*100) AS BIGINT)            AS t100
  FROM lineitem
  WHERE l_shipdate <= TIMESTAMP '{PRICING_CUTOFF} 00:00:00')
SELECT l_returnflag, l_linestatus,
       CAST(SUM(q100) AS DOUBLE) / 100.0                    AS sum_qty,
       CAST(SUM(p100) AS DOUBLE) / 100.0                    AS sum_base_price,
       CAST(SUM(p100*(100-d100)) AS DOUBLE) / 10000.0       AS sum_disc_price,
       CAST(SUM(p100*(100-d100)*(100+t100)) AS DOUBLE) / 1000000.0
                                                            AS sum_charge,
       CAST(SUM(q100) AS DOUBLE) / (100.0*COUNT(*))         AS avg_qty,
       CAST(SUM(p100) AS DOUBLE) / (100.0*COUNT(*))         AS avg_price,
       CAST(SUM(d100) AS DOUBLE) / (100.0*COUNT(*))         AS avg_disc,
       COUNT(*)                                             AS count_order
FROM s GROUP BY 1, 2
""",
        "revenue_summary": """
WITH s AS (
  SELECT CAST(round(l_extendedprice*100) AS BIGINT) AS p100,
         CAST(round(l_discount*100) AS BIGINT)      AS d100,
         CAST(round(l_quantity*100) AS BIGINT)      AS q100
  FROM lineitem)
SELECT CAST(SUM(p100*d100) AS DOUBLE) / 10000.0 AS revenue
FROM s WHERE d100 BETWEEN 5 AND 7 AND q100 < 2400
""",
        "shipping_priority": f"""
WITH s AS (
  SELECT l.l_orderkey,
         CAST(round(l.l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l.l_discount*100) AS BIGINT)) AS rev,
         o.o_orderdate, o.o_orderpriority
  FROM customer c
  JOIN orders o   ON c.c_custkey = o.o_custkey
  JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  WHERE c.c_mktsegment = 'BUILDING'
    AND o.o_orderdate < TIMESTAMP '{Q3_CUTOFF} 00:00:00'
    AND l.l_shipdate  > TIMESTAMP '{Q3_CUTOFF} 00:00:00')
SELECT l_orderkey, CAST(SUM(rev) AS DOUBLE) / 10000.0 AS revenue,
       o_orderdate, o_orderpriority
FROM s GROUP BY 1, 3, 4
ORDER BY SUM(rev) DESC, o_orderdate, l_orderkey
LIMIT 10
""",
        "grouped_quantiles": """
SELECT event_type,
       round(quantile_cont(value, 0.5), 6)  AS p50,
       round(quantile_cont(value, 0.9), 6)  AS p90,
       round(quantile_cont(value, 0.95), 6) AS p95,
       round(quantile_cont(value, 0.99), 6) AS p99
FROM events GROUP BY 1
""",
        "topn_per_user": """
SELECT user_id, event_id, value,
       row_number() OVER (PARTITION BY user_id
                          ORDER BY value DESC, event_id) AS rn
FROM events
QUALIFY rn <= 3
""",
        "pivot_user_event_type": """
SELECT user_id,
       CAST(SUM(CASE WHEN event_type='click'
                THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS DOUBLE)
         / 100.0 AS click,
       CAST(SUM(CASE WHEN event_type='view'
                THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS DOUBLE)
         / 100.0 AS view,
       CAST(SUM(CASE WHEN event_type='signup'
                THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS DOUBLE)
         / 100.0 AS signup,
       CAST(SUM(CASE WHEN event_type='purchase'
                THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS DOUBLE)
         / 100.0 AS purchase,
       CAST(SUM(CASE WHEN event_type='error'
                THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS DOUBLE)
         / 100.0 AS error,
       COUNT(*) AS n_events
FROM events GROUP BY 1
""",
        "range_join_purchases": """
SELECT p.user_id, p.event_id, epoch_us(p.ts) AS t,
       COUNT(c.event_id) AS n_in_range,
       CAST(COALESCE(SUM(CAST(round(c.value*100) AS BIGINT)), 0) AS DOUBLE)
         / 100.0 AS vsum
FROM events p
LEFT JOIN events c
  ON c.user_id = p.user_id AND c.event_type = 'click'
 AND epoch_us(c.ts) BETWEEN epoch_us(p.ts) - 3600000000 AND epoch_us(p.ts)
WHERE p.event_type = 'purchase'
GROUP BY 1, 2, 3
""",
        "left_join_customer_orders": """
SELECT c.c_custkey, c.c_acctbal, o.o_orderkey, o.o_custkey, o.o_totalprice
FROM customer c
LEFT JOIN (SELECT * FROM orders WHERE o_totalprice > 400000.0) o
  ON c.c_custkey = o.o_custkey
""",
        "funnel_click_purchase": """
WITH fc AS (
  SELECT user_id, min(epoch_us(ts)) AS t_first
  FROM events WHERE event_type = 'click' GROUP BY 1),
fp AS (
  SELECT f.user_id, f.t_first, min(epoch_us(e.ts)) AS t_then
  FROM fc f JOIN events e
    ON e.user_id = f.user_id AND e.event_type = 'purchase'
   AND epoch_us(e.ts) >= f.t_first
  GROUP BY 1, 2)
SELECT user_id, t_first, t_then,
       (t_then - t_first) // 1000000 AS latency_s
FROM fp
""",
        "term_frequencies": r"""
WITH terms AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents),
totals AS (
  SELECT source, term, COUNT(*) AS cnt FROM terms GROUP BY 1, 2)
SELECT source, term, cnt,
       row_number() OVER (PARTITION BY source
                          ORDER BY cnt DESC, term) AS rn
FROM totals
QUALIFY rn <= 20
""",
        "copurchase_triangles": """
WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL),
edges AS (SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
          FROM op a JOIN op b
            ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
        FROM edges e1
        JOIN edges e2 ON e2.u = e1.v
        JOIN edges e3 ON e3.u = e1.u AND e3.v = e2.v)
SELECT node AS part_key, CAST(COUNT(*) AS BIGINT) AS triangles
FROM (SELECT a AS node FROM tri
      UNION ALL SELECT b FROM tri
      UNION ALL SELECT c FROM tri)
GROUP BY node
""",
        "copurchase_components": """
WITH RECURSIVE op AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL),
e AS (SELECT a.l_partkey AS u, b.l_partkey AS v
      FROM op a JOIN op b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
      GROUP BY 1, 2 HAVING COUNT(*) >= 2),
ed AS (SELECT u, v FROM e UNION ALL SELECT v, u FROM e),
reach(node, r) AS (
  SELECT u, u FROM ed
  UNION
  SELECT ed.v, reach.r FROM reach JOIN ed ON ed.u = reach.node)
SELECT node AS part_key, CAST(MIN(r) AS BIGINT) AS component_id
FROM reach GROUP BY node
""",
        "clustering_coefficient": """
WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL),
edges AS (SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
          FROM op a JOIN op b
            ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS d FROM
        (SELECT u AS node FROM edges UNION ALL SELECT v FROM edges)
        GROUP BY node),
tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
        FROM edges e1
        JOIN edges e2 ON e2.u = e1.v
        JOIN edges e3 ON e3.u = e1.u AND e3.v = e2.v),
tn AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS t FROM
       (SELECT a AS node FROM tri
        UNION ALL SELECT b FROM tri
        UNION ALL SELECT c FROM tri)
       GROUP BY node)
SELECT deg.node AS part_key, deg.d AS degree,
       COALESCE(tn.t, 0) AS triangles,
       round(2.0 * COALESCE(tn.t, 0) / (deg.d * (deg.d - 1)), 6)
         AS coeff
FROM deg LEFT JOIN tn ON tn.node = deg.node
WHERE deg.d >= 2
""",
        "link_prediction_jaccard": """
WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL),
e AS (SELECT a.l_partkey AS u, b.l_partkey AS v
      FROM op a JOIN op b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
      GROUP BY 1, 2 HAVING COUNT(*) >= 2),
und AS (SELECT u AS x, v AS n FROM e UNION ALL SELECT v, u FROM e),
deg AS (SELECT x, COUNT(*) AS d FROM und GROUP BY x),
cn AS (SELECT e1.n AS a, e2.n AS b, CAST(COUNT(*) AS BIGINT) AS c
       FROM und e1 JOIN und e2 ON e1.x = e2.x AND e1.n < e2.n
       GROUP BY 1, 2),
nonadj AS (SELECT cn.* FROM cn
           LEFT JOIN e ON e.u = cn.a AND e.v = cn.b
           WHERE e.u IS NULL)
SELECT a AS part_a, b AS part_b, c AS common_n,
       round(c * 1.0 / (da.d + db.d - c), 6) AS jaccard
FROM nonadj
JOIN deg da ON da.x = nonadj.a
JOIN deg db ON db.x = nonadj.b
ORDER BY c * 1.0 / (da.d + db.d - c) DESC, a, b
LIMIT 50
""",
        "revenue_by_nation": """
SELECT n.n_name,
       CAST(SUM(CAST(round(l.l_extendedprice*100) AS BIGINT)
                * (100 - CAST(round(l.l_discount*100) AS BIGINT)))
            AS DOUBLE) / 10000.0 AS revenue
FROM lineitem l
JOIN orders o   ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n   ON c.c_nationkey = n.n_nationkey
GROUP BY 1
""",
    }
