"""The benchmark's three workloads and their traced layer replays.

Each workload runs a cycle of ops as one closed-loop client (the next op
starts only when the previous one returned), checks every output, and in a
traced run replays the layers in process with a span around each call into
a layer's public functions.

* ``seq_local``  — zero-shuffle plan over a bucket-partitioned corpus:
  kernels plus Ray per-task overhead, no shuffle, no write.
* ``seq_shuffle`` — general-input plan: the groupby shuffle, the
  checkpointed run with tier Parquet + manifests, and a resume after a
  simulated crash that deleted half the manifests.
* ``retention``  — append-only store: ingest waves, compact, expire and
  query in each cycle, then one Gorilla compress + decompress per run.  No
  correction kernel runs, so a kernel change must predict no change here.
"""

from __future__ import annotations

import gc
import glob
import os
import shutil
import statistics

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import gen

STEP_SECONDS = 1  # 60 points per 1m window, the bench.py headline setting
TIERS = ("1m", "1h", "1d")
ROLLUP_KEY = [("tier", "ascending"), ("series_key", "ascending"),
              ("window_start", "ascending")]
ROLLUP_COLS = ["tier", "series_key", "window_start", "vmin", "vmax", "vsum",
               "vcount"]


def to_table(ds) -> pa.Table:
    import ray
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def rollup_digest(tbl: pa.Table) -> str:
    """Digest of the rollup rows (bit-exact values, order-independent)."""
    return gen.table_digest(tbl.select(ROLLUP_COLS).sort_by(ROLLUP_KEY))


def read_tiers(out_root: str) -> pa.Table:
    """The checkpointed tier outputs as one table in the rollup layout."""
    parts = []
    for tier in TIERS:
        for path in sorted(glob.glob(os.path.join(
                out_root, f"tier={tier}", "part=*", "data.parquet"))):
            t = pq.ParquetFile(path).read()
            parts.append(t.append_column("tier", pa.array([tier] * len(t))))
    return pa.concat_tables(parts).select(ROLLUP_COLS)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def vcount_check(out: pa.Table, points: int) -> str | None:
    got = pc.sum(out.filter(pc.equal(out["tier"], "1m"))["vcount"]).as_py()
    if got != points:
        return f"tier-1m vcount sums to {got}, input has {points} points"
    return None


def replay_kernels(keyed: pa.Table, tracer) -> pa.Table:
    """CorrectAndRollupGroup's work, one public kernel call at a time, with
    a span around each layer.  Must reproduce the fused output exactly."""
    from series_correction_project_updated_ray import kernels as K
    from series_correction_project_updated_ray.stages.correction import (
        ROLLUP_SCHEMA, TIERS as WIDTHS, tokens_to_values)

    cfg = K.merge_config(None)
    w, thr = cfg["window_size"], cfg["threshold"]
    cols = {k: [] for k in ROLLUP_SCHEMA.names}
    with tracer.span("correction.flatten"):
        keyed = keyed.take(pc.sort_indices(keyed["doc_id"]))
        tokens = keyed["tokens"].combine_chunks()
        flat, offsets = np.asarray(tokens.values), np.asarray(tokens.offsets)
        keys = keyed["series_key"].to_numpy()
        sources = keyed["source"].to_pylist()
        order = np.argsort(keys, kind="stable")
        bounds = np.flatnonzero(np.r_[True, keys[order][1:] != keys[order][:-1]])
        groups = np.split(order, bounds[1:])
    for rows in groups:
        with tracer.span("correction.flatten"):
            v = tokens_to_values(np.concatenate(
                [flat[offsets[r]:offsets[r + 1]] for r in rows]))
            t = np.arange(len(v), dtype=np.int64) * STEP_SECONDS
        tracer.count("kernels.points", len(v))
        with tracer.span("kernels.gap_detect"):
            gaps = K.detect_gaps(t, cfg["gap_threshold_factor"])
        tracer.count("kernels.gaps", len(gaps))
        if len(gaps):
            with tracer.span("kernels.gap_fill"):
                t, v = K.correct_gaps(t, v, gaps, cfg["gap_method"])
        with tracer.span("kernels.hampel_detect"):
            outliers = K.hampel_outliers(v, w, thr)
        tracer.count("kernels.outliers", len(outliers))
        if len(outliers):
            with tracer.span("kernels.outlier_correct"):
                v = K.correct_outliers(v, outliers, w, cfg["outlier_method"])
        with tracer.span("kernels.cusum_detect"):
            jumps = K.cusum_jumps(v, w, thr)
        tracer.count("kernels.jumps", len(jumps))
        if len(jumps):
            with tracer.span("kernels.jump_correct"):
                v = K.correct_jumps(v, jumps, w)
        partial = None
        for name, width in WIDTHS:
            with tracer.span("kernels.rollup"):
                partial = (K.rollup_series(t, v, width) if partial is None
                           else K.rollup_cascade(partial, width))
            n = len(partial["window_start"])
            cols["series_key"].append(np.full(n, keys[rows[0]]))
            cols["source"].append([sources[rows[0]]] * n)
            cols["tier"].append([name] * n)
            cols["window_start"].append(partial["window_start"])
            cols["vmin"].append(partial["min"])
            cols["vmax"].append(partial["max"])
            cols["vsum"].append(partial["sum"])
            cols["vcount"].append(partial["count"])
    with tracer.span("correction.assemble"):
        data = {k: np.concatenate(cols[k]) for k in cols if k != "vmean"}
        data["vmean"] = data["vsum"] / np.maximum(data["vcount"], 1)
        return pa.table(data)


def replay_fused(units: list[list[str]], buckets: int, tracer, run) -> dict:
    """For each unit of input files (what one task or group sees): read →
    key → the fused kernel in process, then the kernel replay untraced and
    traced.  They run back to back on each unit, so drift in machine speed
    hits all of them alike."""
    from series_correction_project_updated_ray.stages.correction import (
        CorrectAndRollupGroup, add_series_key)
    from .trace import Tracer

    kernel = CorrectAndRollupGroup(None, step_seconds=STEP_SECONDS)
    untraced = Tracer(tracer.run_id, enabled=False)
    clock = tracer.clock
    fused, replayed = [], []
    untraced_s = traced_s = 0.0
    for paths in units:
        with tracer.span("sources.read"):
            tbl = pa.concat_tables([pq.read_table(
                p, columns=["doc_id", "tokens", "source"]) for p in paths])
        tracer.count("sources.bytes_read", sum(map(os.path.getsize, paths)))
        with tracer.span("correction.key"):
            keyed = add_series_key(tbl, buckets)
        with tracer.span("correction.fused"):
            fused.append(kernel(keyed))
        t0 = clock()
        replay_kernels(keyed, untraced)
        untraced_s += clock() - t0
        t0 = clock()
        with tracer.span("kernels.replay"):
            replayed.append(replay_kernels(keyed, tracer))
        traced_s += clock() - t0
    fused = pa.concat_tables(fused)
    tracer.count("correction.rows_out", len(fused))
    run.check("kernel replay", rollup_digest(pa.concat_tables(replayed))
              == rollup_digest(fused),
              "kernel replay does not reproduce CorrectAndRollupGroup")
    fused_s = sum(tracer.durations("correction.fused"))
    return {"trace.overhead_ratio": traced_s / untraced_s - 1,
            "trace.replay_gap_ratio": traced_s / fused_s - 1,
            "fused_s": fused_s, "read_s": sum(tracer.durations("sources.read")),
            "key_s": sum(tracer.durations("correction.key"))}


class _Sequences:
    """A sequence corpus whose rollup is checked against a digest; ``units``
    are the file sets one task (local plan) or the whole shuffle sees."""

    def finish(self, run) -> None:
        pass

    def reference(self) -> str:
        """The rollup digest computed in process, without Ray."""
        from series_correction_project_updated_ray.stages.correction import (
            CorrectAndRollupGroup, add_series_key)
        kernel = CorrectAndRollupGroup(None, step_seconds=STEP_SECONDS)
        return rollup_digest(pa.concat_tables([kernel(add_series_key(
            pa.concat_tables([pq.read_table(p) for p in paths]), self.BUCKETS))
            for paths in self.units]))


class SeqLocal(_Sequences):
    """Zero-shuffle headline: ``correct_and_rollup_local`` over a
    bucket-partitioned sensor-shaped corpus."""

    name = "seq_local"
    DOCS, FILES, BUCKETS = 4000, 8, 128
    OPS = {"rollup": 1}
    ROLLUP_OP = "rollup"

    def prepare(self, work: str, seed: int) -> dict:
        self.inp = gen.write_bucketed(os.path.join(work, "in"), seed,
                                      self.DOCS, self.FILES, self.BUCKETS)
        self.units = [[p] for p in self.inp["files"]]
        self.points = self.inp["points"]
        return self.inp

    def cycle(self, run) -> None:
        from series_correction_project_updated_ray.stages.correction import (
            correct_and_rollup_local)
        run.op("rollup", lambda: to_table(correct_and_rollup_local(
            self.inp["files"], buckets_per_source=self.BUCKETS,
            step_seconds=STEP_SECONDS)), self.check)

    def check(self, out: pa.Table) -> str | None:
        self.out_bytes = out.nbytes
        if rollup_digest(out) != self.expected:
            return "rollup rows differ from the expected digest"
        return vcount_check(out, self.points)

    def end_to_end(self, run) -> dict:
        return {"bytes_per_point": self.out_bytes / self.points}

    def layers(self, run) -> dict:
        r = replay_fused(self.units, self.BUCKETS, run.tracer, run)
        files_ms = [d * 1e3 for d in run.tracer.durations("correction.fused")]
        return {"trace.overhead_ratio": r["trace.overhead_ratio"],
                "trace.replay_gap_ratio": r["trace.replay_gap_ratio"],
                "correction.file_p50_ms": median(files_ms),
                "correction.file_max_ms": max(files_ms),
                "ray.task_overhead_s": run.op_median("rollup")
                - r["read_s"] - r["key_s"] - r["fused_s"]}


class SeqShuffle(_Sequences):
    """General input: the groupby-shuffle plan, the checkpointed run, and a
    resume after a simulated crash."""

    name = "seq_shuffle"
    DOCS, FILES, BUCKETS, PARTS = 1000, 8, 64, 16
    OPS = {"rollup": 1, "checkpoint": 1, "resume": 1}
    ROLLUP_OP = "rollup"

    def prepare(self, work: str, seed: int) -> dict:
        self.work = work
        self.dir = os.path.join(work, "in")
        self.inp = gen.write_plain(self.dir, seed, self.DOCS, self.FILES)
        self.units = [self.inp["files"]]
        self.points = self.inp["points"]
        self.n_cycle = 0
        return self.inp

    def _resumable(self, out_root):
        from series_correction_project_updated_ray.pipelines.resumable import (
            run_resumable)
        return run_resumable(self.dir, out_root, n_partitions=self.PARTS,
                             buckets_per_source=self.BUCKETS,
                             step_seconds=STEP_SECONDS)

    def cycle(self, run) -> None:
        from series_correction_project_updated_ray.sources.sequences import (
            read_sequences)
        from series_correction_project_updated_ray.stages.correction import (
            correct_and_rollup)
        from series_correction_project_updated_ray.state import checkpoint as CP

        def check_rollup(out):
            if rollup_digest(out) != self.expected:
                return "shuffle-plan rollup rows differ from the expected digest"
            return vcount_check(out, self.points)

        def check_tiers(_):
            if rollup_digest(read_tiers(root)) != self.expected:
                return "run_resumable tier rows differ from the shuffle plan"
            return None

        run.op("rollup", lambda: to_table(correct_and_rollup(
            read_sequences(self.dir), buckets_per_source=self.BUCKETS,
            step_seconds=STEP_SECONDS)), check_rollup)
        self.n_cycle += 1
        root = os.path.join(self.work, f"ckpt-{self.n_cycle}")
        run.op("checkpoint", lambda: self._resumable(root), check_tiers)
        self.skew = CP.skew_report(root)
        # crash: half the manifests and the commit marker are lost
        deleted = sorted(CP.load_manifests(root))[::2]
        for pid in deleted:
            os.remove(CP.manifest_path(root, pid))
        os.remove(os.path.join(root, "_COMMIT"))

        def check_resume(manifests):
            if sorted(manifests["part_id"]) != deleted:
                return (f"resume recomputed {sorted(manifests['part_id'])}, "
                        f"expected {deleted}")
            return check_tiers(manifests)

        resumed = run.op("resume", lambda: self._resumable(root), check_resume)
        self.parts_recomputed = len(resumed)
        self.rows_reprocessed = int(resumed["rows_in"].sum())
        self.store_bytes = dir_bytes(root)
        shutil.rmtree(root)

    def end_to_end(self, run) -> dict:
        return {"bytes_per_point": self.store_bytes / self.points}

    def layers(self, run) -> dict:
        from series_correction_project_updated_ray.pipelines import resumable as R
        from series_correction_project_updated_ray.stages.correction import (
            add_series_key)
        tracer = run.tracer
        r = replay_fused(self.units, self.BUCKETS, tracer, run)
        # the partition writer in process, with a span around each
        # checkpoint write it makes
        keyed = add_series_key(pa.concat_tables(
            [pq.read_table(p) for p in self.inp["files"]]), self.BUCKETS)
        part = keyed["series_key"].to_numpy().astype(np.uint64) \
            % np.uint64(self.PARTS)
        keyed = keyed.append_column("part_id", pa.array(part.astype(np.int64)))
        root = os.path.join(self.work, "replay")
        writer = R.PartitionWriter(root, "replay", None, STEP_SECONDS)
        write = R.CP.write_partition

        def traced_write(*a, **kw):
            with tracer.span("checkpoint.write"):
                return write(*a, **kw)
        R.CP.write_partition = traced_write
        try:
            for pid in np.unique(part):
                group = keyed.filter(pa.array(part == pid))
                with tracer.span("resumable.partition"):
                    writer(group)
        finally:
            R.CP.write_partition = write
        tracer.count("checkpoint.bytes_written", dir_bytes(root))
        shutil.rmtree(root)
        wall = self.skew["wall_s"].to_numpy()
        return {"trace.overhead_ratio": r["trace.overhead_ratio"],
                "trace.replay_gap_ratio": r["trace.replay_gap_ratio"],
                "ray.shuffle_s": run.op_median("rollup")
                - r["read_s"] - r["key_s"] - r["fused_s"],
                "resumable.parts_recomputed": self.parts_recomputed,
                "resumable.read_amplification":
                    self.DOCS / self.rows_reprocessed,
                "resumable.part_skew": wall.max() / np.median(wall)}


EVENT_KEY = [("event_type", "ascending"), ("window_start", "ascending")]


def _group_by(events: pa.Table) -> pa.Table:
    """The 1m rollup of raw events, computed by pyarrow alone."""
    ts = events["ts"].to_numpy()
    return events.append_column("window_start", pa.array(ts - ts % 60)) \
        .group_by(["event_type", "window_start"]).aggregate(
            [("value", "min"), ("value", "max"), ("value", "sum"),
             ("value", "count")]).sort_by(EVENT_KEY)


class Retention:
    """Append-only store: a cycle ingests waves (a wave can be read once
    its ingest returns), compacts, expires and queries twice; the run ends
    with a compress and decompress of the same points."""

    name = "retention"
    WAVES, ROWS, SERIES, WAVE_SECONDS, EXPIRED = 4, 24000, 8, 3600, 1
    OPS = {"ingest_wave": WAVES, "compact": 1, "expire": 1, "query": 2}
    ROLLUP_OP = "query"

    def prepare(self, work: str, seed: int) -> dict:
        self.work = work
        self.inp = gen.write_waves(os.path.join(work, "in"), seed, self.WAVES,
                                   self.ROWS, self.SERIES, self.WAVE_SECONDS)
        self.points = self.inp["points"]
        self.cutoff = self.EXPIRED * self.WAVE_SECONDS
        self.input_bytes = sum(os.path.getsize(f) for f in self.inp["files"])
        events = pa.concat_tables(self.inp["tables"])
        codes = pc.dictionary_encode(events["event_type"]).combine_chunks()
        self.series = pa.table({
            "series_key": codes.indices.cast(pa.int64()),
            "t": events["ts"], "value": events["value"]})
        # what read_rollup must return after expiry
        self.expected = _group_by(
            events.filter(pc.greater_equal(events["ts"], self.cutoff)))
        self.n_cycle = self.query_rows = 0
        return self.inp

    def _compress_roundtrip(self):
        import ray.data as rd

        from series_correction_project_updated_ray.stages.compress import (
            compress_series, decompress_series)
        # input materialized in the object store: compress_series over a
        # read_parquet source stalls at num_cpus=1
        segs = to_table(compress_series(
            rd.from_arrow(self.series),
            concurrency=1))
        # the finished actor pool keeps its CPU until its executor is
        # collected; without this the decompress task waits for it
        gc.collect()
        return segs, to_table(decompress_series(rd.from_arrow(segs)))

    @staticmethod
    def check_query(q: pa.Table, e: pa.Table) -> str | None:
        q = q.sort_by(EVENT_KEY)
        if q.num_rows != e.num_rows \
                or q["event_type"].to_pylist() != e["event_type"].to_pylist() \
                or not q["window_start"].equals(e["window_start"]):
            return "read_rollup groups differ from a pyarrow group_by"
        exact = (q["vmin"].equals(e["value_min"])
                 and q["vmax"].equals(e["value_max"])
                 and q["vcount"].equals(e["value_count"]))
        vsum = e["value_sum"].to_numpy()
        close = (np.allclose(q["vsum"].to_numpy(), vsum, rtol=0, atol=1e-6)
                 and np.allclose(q["vmean"].to_numpy(),
                                 vsum / e["value_count"].to_numpy(),
                                 rtol=0, atol=1e-6))
        return None if exact and close else \
            "read_rollup values differ from a pyarrow group_by"

    def check_roundtrip(self, res) -> str | None:
        segs, back = res
        self.segs = segs
        key = [("series_key", "ascending"), ("t", "ascending")]
        a, b = self.series.sort_by(key), back.select(
            ["series_key", "t", "value"]).sort_by(key)
        same = (a["series_key"].equals(b["series_key"]) and a["t"].equals(b["t"])
                and np.array_equal(a["value"].to_numpy().view(np.uint64),
                                   b["value"].to_numpy().view(np.uint64)))
        return None if same else "decompressed points differ from the input"

    def cycle(self, run) -> None:
        from series_correction_project_updated_ray.state import ingest as ING
        self.n_cycle += 1
        store = os.path.join(self.work, f"store-{self.n_cycle}")
        seen: set[str] = set()
        written = 0

        def new_delta_bytes():
            nonlocal written
            for name in ING._load_ledger(store)["deltas"]:
                if name not in seen:
                    seen.add(name)
                    written += dir_bytes(os.path.join(store, "deltas", name))

        def live_rows():
            return sum(pq.ParquetFile(f).metadata.num_rows for f in
                       ING._delta_files(store, ING._load_ledger(store)["deltas"]))

        def expect(n):
            return lambda got: None if got == n else f"returned {got}, expected {n}"

        for path in self.inp["files"]:
            run.op("ingest_wave", lambda: ING.ingest(store, [path], width=60),
                   expect(1))
            new_delta_bytes()
        run.op("compact", lambda: ING.compact(store), expect(self.WAVES))
        new_delta_bytes()
        groups = {"compact": live_rows()}
        run.op("expire", lambda: ING.expire(store, self.cutoff), expect(1))
        new_delta_bytes()
        groups["expire"] = live_rows()
        store_bytes = dir_bytes(os.path.join(store, "deltas"))
        for _ in range(self.OPS["query"]):
            q = run.op("query", lambda: to_table(ING.read_rollup(store)),
                       lambda q: self.check_query(q, self.expected))
            self.query_rows += q.num_rows
        groups["query"] = q.num_rows
        # set together once the cycle's last query returned, so they always
        # describe one whole cycle
        self.groups, self.store_bytes = groups, store_bytes
        self.write_amp = written / self.input_bytes
        shutil.rmtree(store)

    def finish(self, run) -> None:
        """Compress and decompress once per run, after the cycles: the
        actor pool's start makes the op last 3 to 14 s for a few hundred
        ms of codec work, so it stays out of the cycle time."""
        run.op("compress", self._compress_roundtrip, self.check_roundtrip)

    def payload_bytes(self) -> int:
        return sum(len(b) for c in ("ts_bytes", "val_bytes")
                   for b in self.segs[c].to_pylist())

    def end_to_end(self, run) -> dict:
        return {"bytes_per_point":
                    (self.store_bytes + self.payload_bytes()) / self.points}

    def layers(self, run) -> dict:
        from series_correction_project_updated_ray.stages.rollup import (
            PartialRollup)
        from series_correction_project_updated_ray.state.gorilla import (
            decode_segment, encode_segment)
        tracer = run.tracer
        partial = PartialRollup("event_type", "ts", "value", 60)
        for tbl in self.inp["tables"]:
            with tracer.span("rollup.partial"):
                partial(tbl)
        segs = self.segs.to_pylist()
        decoded = []
        for seg in segs:
            with tracer.span("gorilla.decode"):
                decoded.append(decode_segment(seg))
        for t, v in decoded:
            with tracer.span("gorilla.encode"):
                encode_segment(t, v)
        n = sum(s["n_points"] for s in segs)
        enc = sum(tracer.durations("gorilla.encode"))
        dec = sum(tracer.durations("gorilla.decode"))
        return {"ingest.groups": self.groups["query"],
                "ingest.compact_groups_per_s":
                    self.groups["compact"] / run.op_median("compact"),
                "ingest.expire_groups_per_s":
                    self.groups["expire"] / run.op_median("expire"),
                "ingest.query_groups_per_s":
                    self.query_rows / sum(run.op_times("query")),
                "ingest.write_amp": self.write_amp,
                "gorilla.encode_pts_per_s": n / enc,
                "gorilla.decode_pts_per_s": n / dec,
                "gorilla.ts_bits_per_point":
                    8 * sum(len(s["ts_bytes"]) for s in segs) / n,
                "gorilla.val_bits_per_point":
                    8 * sum(len(s["val_bytes"]) for s in segs) / n,
                "compress.segments": len(segs),
                "compress.pool_overhead_s":
                    run.op_median("compress") - enc - dec}


WORKLOADS = {w.name: w for w in (SeqLocal, SeqShuffle, Retention)}
