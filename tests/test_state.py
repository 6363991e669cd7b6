"""Gorilla codec, segment compactor, checkpoint/resume tests."""

import json
import os
import shutil

import numpy as np
import pandas as pd
import pytest

from series_correction_project_updated_ray.state import checkpoint as CP
from series_correction_project_updated_ray.state.gorilla import (
    decode_segment, decode_timestamps, decode_values, encode_segment,
    encode_timestamps, encode_values)


# --- codecs ----------------------------------------------------------------

def test_timestamps_roundtrip_uniform():
    t = np.arange(0, 100000, 13090, dtype=np.int64)
    assert np.array_equal(decode_timestamps(encode_timestamps(t)), t)


def test_timestamps_roundtrip_irregular():
    rng = np.random.default_rng(1)
    t = np.cumsum(rng.integers(1, 100000, 5000)).astype(np.int64)
    assert np.array_equal(decode_timestamps(encode_timestamps(t)), t)


def test_timestamps_roundtrip_edges():
    for t in ([], [7], [7, 7], [0, 1, 2, 1000000000000]):
        arr = np.asarray(t, dtype=np.int64)
        assert np.array_equal(decode_timestamps(encode_timestamps(arr)), arr)


def test_fast_decoders_match_loop_spec():
    """The vectorized decoders must reproduce the bit-at-a-time readers
    exactly on every stream shape: regular, irregular (all dod classes),
    repeated values, window reuse runs, and the degenerate edges."""
    from series_correction_project_updated_ray.state.gorilla import (
        _decode_timestamps_loop, _decode_values_loop)
    rng = np.random.default_rng(9)
    t_cases = [
        np.arange(0, 500000, 60, dtype=np.int64),
        np.cumsum(rng.integers(1, 100000, 3000)).astype(np.int64),
        np.cumsum(rng.integers(1, 1 << 40, 500)).astype(np.int64),
        np.asarray([], np.int64), np.asarray([7], np.int64),
        np.asarray([7, 7], np.int64),
        np.asarray([0, 1, 2, 1000000000000], np.int64),
        np.asarray([-50, -49, 10, 2**62], np.int64),
    ]
    for t in t_cases:
        enc = encode_timestamps(t)
        np.testing.assert_array_equal(decode_timestamps(enc),
                                      _decode_timestamps_loop(enc))
    v_cases = [
        rng.normal(5, 1, 3000),
        np.repeat(rng.normal(0, 1, 50), 60),  # long zero-XOR runs
        np.round(np.cumsum(rng.normal(0, 0.05, 3000)) + 20, 3),
        np.asarray([], np.float64), np.asarray([1.5], np.float64),
        np.asarray([1.5, 1.5, -0.0, 0.0, np.inf, -np.inf], np.float64),
    ]
    for v in v_cases:
        enc = encode_values(v)
        a = decode_values(enc)
        b = _decode_values_loop(enc)
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_values_roundtrip():
    rng = np.random.default_rng(2)
    v = rng.normal(5, 1, 5000)
    out = decode_values(encode_values(v))
    assert np.array_equal(out.view(np.uint64), v.view(np.uint64))


def test_values_roundtrip_special():
    v = np.array([0.0, -0.0, 1.5, 1.5, np.nan, np.inf, -np.inf, 3.14])
    out = decode_values(encode_values(v))
    assert np.array_equal(out.view(np.uint64), v.view(np.uint64))


def test_values_compress_constant_series():
    v = np.full(10000, 4.25)
    enc = encode_values(v)
    # constant series: ~1 bit/point after the first value
    assert len(enc) < 10000 / 4
    assert np.array_equal(decode_values(enc), v)


def test_uniform_cadence_compresses_well():
    t = np.arange(0, 13090 * 10000, 13090, dtype=np.int64)
    enc = encode_timestamps(t)
    assert len(enc) < 10000 / 4  # delta-of-delta = 0 → 1 bit/point


def test_vectorized_encoders_match_loop_spec():
    """The batch-vectorized encoders must be BYTE-identical to the
    bit-at-a-time reference writers (the stream spec) on every dod/XOR
    class: zero, each range bucket, out-of-range 64-bit payloads,
    window reuse runs and window resets."""
    from series_correction_project_updated_ray.state.gorilla import (
        _encode_timestamps_loop, _encode_values_loop)
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 3, 5, 257, 4096):
        steps = rng.choice(
            [0, 1, 2, 60, 61, 64, 65, 255, 257, 2048, 2049, 10**7, 2**35],
            size=max(n - 1, 0))
        ts = np.concatenate(
            [[-(2**40)], -(2**40) + np.cumsum(steps)])[:n].astype(np.int64) \
            if n else np.empty(0, np.int64)
        assert encode_timestamps(ts) == _encode_timestamps_loop(ts)
        v = rng.choice([1.0, 1.0000001, -3.5, 0.0, -0.0, np.nan, np.inf,
                        1e300, 123.456], size=n)
        if n > 10:
            v[5:10] = rng.normal(size=5)
        assert encode_values(v) == _encode_values_loop(v)


def test_segment_roundtrip():
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.integers(1, 100, 1000)).astype(np.int64)
    v = np.round(rng.normal(10, 2, 1000), 2)
    seg = encode_segment(t, v)
    t2, v2 = decode_segment(seg)
    assert np.array_equal(t, t2)
    assert np.array_equal(v.view(np.uint64), v2.view(np.uint64))
    assert seg["compressed_bytes"] < seg["raw_bytes"]


# --- compactor stage -------------------------------------------------------

def test_segment_compactor_stage(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.compress import (
        compress_series, decompress_series)
    rng = np.random.default_rng(4)
    n = 20000
    df = pd.DataFrame({
        "series_key": rng.integers(0, 8, n).astype(np.int64),
        "t": rng.integers(0, 1_000_000, n).astype(np.int64),
        "value": np.round(rng.normal(0, 1, n), 3),
    }).drop_duplicates(["series_key", "t"])
    segs = compress_series(rd.from_pandas(df), max_points=4096,
                           concurrency=2).materialize()
    sdf = segs.to_pandas()
    assert (sdf["compressed_bytes"] < sdf["raw_bytes"]).all()
    back = decompress_series(segs).to_pandas()
    a = df.sort_values(["series_key", "t"]).reset_index(drop=True)
    b = back.sort_values(["series_key", "t"]).reset_index(drop=True)
    assert len(a) == len(b)
    np.testing.assert_array_equal(a["series_key"], b["series_key"])
    np.testing.assert_array_equal(a["t"], b["t"])
    np.testing.assert_array_equal(a["value"].to_numpy().view(np.uint64),
                                  b["value"].to_numpy().view(np.uint64))


# --- checkpoint / resume ---------------------------------------------------

@pytest.fixture()
def synth_input(tmp_path):
    from series_correction_project_updated_ray.sources.sequences import (
        write_synthetic_sequences)
    p = str(tmp_path / "seqs")
    write_synthetic_sequences(p, 2000, seed=11, rows_per_file=500)
    return p


def test_resumable_run_and_skip(ray_session, synth_input, tmp_path):
    from series_correction_project_updated_ray.pipelines.resumable import (
        run_resumable)
    out = str(tmp_path / "out")
    m1 = run_resumable(synth_input, out, n_partitions=8,
                       buckets_per_source=8, step_seconds=1)
    assert len(m1) == 8
    assert (m1["status"] == "complete").all()
    assert os.path.exists(os.path.join(out, "_COMMIT"))
    # tier dirs exist
    for tier in ("1m", "1h", "1d"):
        assert os.path.isdir(os.path.join(out, f"tier={tier}"))
    # committed → second run is a no-op
    m2 = run_resumable(synth_input, out, n_partitions=8,
                       buckets_per_source=8, step_seconds=1)
    assert len(m2) == 0
    # killed after the last manifest, before the commit: nothing reruns,
    # the (empty) manifest table keeps its columns, and the run commits
    os.remove(os.path.join(out, "_COMMIT"))
    m3 = run_resumable(synth_input, out, n_partitions=8,
                       buckets_per_source=8, step_seconds=1)
    assert list(m3["part_id"]) == []
    assert os.path.exists(os.path.join(out, "_COMMIT"))


def test_resume_after_partial_failure(ray_session, synth_input, tmp_path):
    """Kill-simulation: delete _COMMIT and 3 manifests → resume reprocesses
    exactly those 3 partitions and converges to identical output."""
    import pyarrow.parquet as pq
    from series_correction_project_updated_ray.pipelines.resumable import (
        run_resumable)
    out = str(tmp_path / "out")
    run_resumable(synth_input, out, n_partitions=8, buckets_per_source=8,
                  step_seconds=1)
    full = {
        tier: pq.read_table(os.path.join(out, f"tier={tier}")).to_pandas()
        .sort_values(["series_key", "window_start"]).reset_index(drop=True)
        for tier in ("1m", "1h", "1d")}

    os.remove(os.path.join(out, "_COMMIT"))
    for pid in (1, 3, 5):
        os.remove(CP.manifest_path(out, pid))
        shutil.rmtree(os.path.join(out, "tier=1d", f"part={pid:05d}"))
    m = run_resumable(synth_input, out, n_partitions=8, buckets_per_source=8,
                      step_seconds=1)
    assert sorted(m["part_id"]) == [1, 3, 5]  # only incomplete partitions ran
    assert os.path.exists(os.path.join(out, "_COMMIT"))
    for tier in ("1m", "1h", "1d"):
        redo = pq.read_table(os.path.join(out, f"tier={tier}")).to_pandas() \
            .sort_values(["series_key", "window_start"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(redo, full[tier])


def test_fingerprint_invalidation(ray_session, synth_input, tmp_path):
    from series_correction_project_updated_ray.pipelines.resumable import (
        run_resumable)
    out = str(tmp_path / "out")
    run_resumable(synth_input, out, n_partitions=4, buckets_per_source=8,
                  step_seconds=1)
    # mutate the input (rewrite one file minus a row — still valid parquet,
    # different size) → fingerprint changes → everything recomputes
    import pyarrow.parquet as pq
    files = sorted(f for f in os.listdir(synth_input) if f.endswith(".parquet"))
    p0 = os.path.join(synth_input, files[0])
    pq.write_table(pq.read_table(p0).slice(1), p0)
    m = run_resumable(synth_input, out, n_partitions=4, buckets_per_source=8,
                      step_seconds=1)
    assert len(m) == 4


def test_skew_report(ray_session, synth_input, tmp_path):
    from series_correction_project_updated_ray.pipelines.resumable import (
        run_resumable)
    out = str(tmp_path / "out")
    run_resumable(synth_input, out, n_partitions=4, buckets_per_source=8,
                  step_seconds=1)
    rep = CP.skew_report(out)
    assert len(rep) == 4
    assert rep["rows_in"].sum() == 2000
    assert (rep["rows_per_s"] > 0).all()


def test_sigkill_resume_converges(ray_session, tmp_path):
    """TRUE kill test: SIGKILL a subprocess driver mid-run, resume, and the
    final output must equal a clean never-killed run bit for bit.  Robust
    to timing: if the kill lands after commit the resume is a no-op and the
    comparison still gates correctness."""
    import glob as _glob
    import signal
    import subprocess
    import sys
    import time

    import pyarrow.parquet as pq

    from series_correction_project_updated_ray.pipelines.resumable import (
        run_resumable)
    from series_correction_project_updated_ray.sources.sequences import (
        write_synthetic_sequences)

    inp = str(tmp_path / "seqs")
    write_synthetic_sequences(inp, 12000, seed=13, rows_per_file=750)
    out_clean, out_kill = str(tmp_path / "clean"), str(tmp_path / "kill")

    run_resumable(inp, out_clean, n_partitions=16, buckets_per_source=16,
                  step_seconds=1)

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    proc = subprocess.Popen(
        [sys.executable, "-m", "series_correction_project_updated_ray", "rollup",
         "--input", inp, "--output", out_kill, "--n-partitions", "16",
         "--buckets-per-source", "16", "--step-seconds", "1",
         "--num-cpus", "4"],
        env=env, cwd="/tmp", stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    deadline = time.time() + 180
    while time.time() < deadline and proc.poll() is None:
        if len(_glob.glob(os.path.join(out_kill, "_manifest", "*.json"))) >= 3:
            break
        time.sleep(0.05)
    killed_midway = proc.poll() is None
    if killed_midway:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait()

    # the killed driver's WORKERS survive it briefly and may still finish
    # (and manifest) their in-flight partitions — wait until the manifest
    # count has been stable for 3 s before counting what the resume sees
    stable_since, last = time.time(), -1
    while time.time() - stable_since < 3.0:
        cur = len(CP.load_manifests(out_kill))
        if cur != last:
            last, stable_since = cur, time.time()
        time.sleep(0.2)
    done_before = len(CP.load_manifests(out_kill))
    m = run_resumable(inp, out_kill, n_partitions=16, buckets_per_source=16,
                      step_seconds=1)
    if killed_midway and done_before < 16:
        assert len(m) == 16 - done_before  # only the unfinished partitions ran
    assert os.path.exists(os.path.join(out_kill, "_COMMIT"))
    for tier in ("1m", "1h", "1d"):
        a = pq.read_table(os.path.join(out_clean, f"tier={tier}")).to_pandas() \
            .sort_values(["series_key", "window_start"]).reset_index(drop=True)
        b = pq.read_table(os.path.join(out_kill, f"tier={tier}")).to_pandas() \
            .sort_values(["series_key", "window_start"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


# Child driver for the kill drill.  ``DyingWriter`` is defined in
# ``__main__``, so Ray ships the class by value to its workers.  Every
# partition call claims the next call number cluster-wide with an O_EXCL
# flag-file election; calls below ``KILL_AT`` write normally, call
# ``KILL_AT`` waits for those writes, SIGKILLs the driver and exits its
# worker, and later calls exit without writing.  So exactly ``KILL_AT``
# manifests land whatever the task layout.
_KILL_DRIVER = """
import os, signal, sys, time
import ray
from series_correction_project_updated_ray.pipelines import resumable

INP, OUT, FLAGS, KILL_AT = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
DRIVER = os.getpid()


class DyingWriter(resumable.PartitionWriter):
    def __call__(self, group):
        i = 0
        while True:
            try:
                os.close(os.open(os.path.join(FLAGS, f"call{i}"),
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                break
            except FileExistsError:
                i += 1
        if i < KILL_AT:
            out = super().__call__(group)
            open(os.path.join(FLAGS, f"done{i}"), "w").close()
            return out
        if i == KILL_AT:
            while not all(os.path.exists(os.path.join(FLAGS, f"done{j}"))
                          for j in range(KILL_AT)):
                time.sleep(0.01)
            os.kill(DRIVER, signal.SIGKILL)
        os._exit(1)


ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
resumable.PartitionWriter = DyingWriter
resumable.run_resumable(INP, OUT, n_partitions=16, buckets_per_source=16,
                        step_seconds=1)
"""


@pytest.mark.parametrize("kill_at", [0, 5])
def test_kill_during_shuffle_resume(ray_session, tmp_path, kill_at):
    """Multi-node-shaped drill #1: SIGKILL the driver inside the keyed
    exchange at the ``kill_at``-th partition call (0: before any
    partition is written), then resume.

    Asserts (a) exactly ``kill_at`` partitions committed before the kill
    and the resume re-runs exactly the 16 − ``kill_at`` missing ones
    (the exchange holds no durable state — only manifests do); (b) the
    manifests that landed before the kill are skipped by the resume
    without being rewritten (mtime_ns unchanged — the manifest-driven
    prune, not a lucky no-op); (c) the resumed output equals a clean
    never-killed run bit for bit."""
    import signal
    import subprocess
    import sys

    import pyarrow.parquet as pq

    from series_correction_project_updated_ray.pipelines.resumable import (
        run_resumable)
    from series_correction_project_updated_ray.sources.sequences import (
        write_synthetic_sequences)

    inp = str(tmp_path / "seqs")
    write_synthetic_sequences(inp, 12000, seed=17, rows_per_file=750)
    out_clean, out_kill = str(tmp_path / "clean"), str(tmp_path / "kill")
    flags = tmp_path / "flags"
    flags.mkdir()
    run_resumable(inp, out_clean, n_partitions=16, buckets_per_source=16,
                  step_seconds=1)

    script = tmp_path / "kill_driver.py"
    script.write_text(_KILL_DRIVER)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, str(script), inp, out_kill, str(flags),
         str(kill_at)], env=dict(os.environ, PYTHONPATH=repo), cwd="/tmp",
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        assert proc.wait(timeout=600) == -signal.SIGKILL
    finally:
        # the killed driver's Ray processes (its dashboard agent survives
        # the raylet) stay in its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert (flags / f"call{kill_at}").exists()

    pre = CP.load_manifests(out_kill)
    assert len(pre) == kill_at
    pre_mtimes = {pid: os.stat(CP.manifest_path(out_kill, pid)).st_mtime_ns
                  for pid in pre}
    assert not os.path.exists(os.path.join(out_kill, "_COMMIT"))

    m = run_resumable(inp, out_kill, n_partitions=16, buckets_per_source=16,
                      step_seconds=1)
    # manifest-driven prune: exactly the missing partitions re-ran ...
    assert sorted(m["part_id"]) == sorted(set(range(16)) - set(pre))
    assert len(m) == 16 - kill_at
    # ... while completed partitions were skipped, not rewritten
    for pid, mt in pre_mtimes.items():
        assert os.stat(CP.manifest_path(out_kill, pid)).st_mtime_ns == mt
    assert os.path.exists(os.path.join(out_kill, "_COMMIT"))
    for tier in ("1m", "1h", "1d"):
        a = pq.read_table(os.path.join(out_clean, f"tier={tier}")).to_pandas() \
            .sort_values(["series_key", "window_start"]).reset_index(drop=True)
        b = pq.read_table(os.path.join(out_kill, f"tier={tier}")).to_pandas() \
            .sort_values(["series_key", "window_start"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def _compact_dying_once(batch, flag_path: str, max_points: int):
    """compact_segments whose worker process crashes exactly once
    cluster-wide (atomic flag-file election), then behaves normally —
    the task-death drill for the compression stage."""
    from series_correction_project_updated_ray.stages.compress import (
        compact_segments)
    try:
        fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pass
    else:
        os.close(fd)
        os._exit(1)  # hard worker death mid-task, exactly once
    return compact_segments(batch, max_points=max_points)


def test_compactor_actor_death_no_duplicates(ray_session, tmp_path):
    """Multi-node-shaped drill #2: a compaction task's worker dies
    mid-task; Ray retries the task (``max_retries``), which replays only
    its own batch.  Asserts the job completes, the decoded output equals
    the input exactly (no lost rows), and no duplicate segments exist —
    the (series_key, seg_day, t_min) lineage ids stay unique."""
    import ray.data as rd

    from series_correction_project_updated_ray.stages.compress import (
        decompress_series)

    rng = np.random.default_rng(23)
    n = 30000
    df = pd.DataFrame({
        "series_key": rng.integers(0, 12, n).astype(np.int64),
        "t": rng.integers(0, 2_000_000, n).astype(np.int64),
        "value": np.round(rng.normal(0, 1, n), 3),
    }).drop_duplicates(["series_key", "t"])
    flag = str(tmp_path / "died.flag")

    segs = rd.from_pandas(df).repartition(8).map_batches(
        _compact_dying_once, batch_format="pyarrow", batch_size=None,
        concurrency=2, fn_kwargs={"flag_path": flag, "max_points": 4096},
        max_retries=3).materialize()

    assert os.path.exists(flag)  # the death actually happened
    sdf = segs.to_pandas()
    # lineage ids unique → the retried task did not double-emit
    lineage = sdf[["series_key", "seg_day", "t_min"]]
    assert not lineage.duplicated().any()
    assert sdf["n_points"].sum() == len(df)
    back = decompress_series(segs).to_pandas()
    a = df.sort_values(["series_key", "t"]).reset_index(drop=True)
    b = back.sort_values(["series_key", "t"]).reset_index(drop=True)
    assert len(a) == len(b)
    np.testing.assert_array_equal(a["series_key"], b["series_key"])
    np.testing.assert_array_equal(a["t"], b["t"])
    np.testing.assert_array_equal(a["value"].to_numpy().view(np.uint64),
                                  b["value"].to_numpy().view(np.uint64))


def test_incremental_ingest_matches_batch_rollup(ray_session, tmp_path):
    """3 ingest waves over a split events table == the batch rollup over
    the whole table; re-ingest is a no-op; compaction preserves results."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from series_correction_project_updated_ray.state import ingest as ING
    from series_correction_project_updated_ray.stages.rollup import (
        rollup_events)

    src = pq.read_table("/root/testdata/sf0.001/events.parquet",
                        columns=["event_type", "ts", "value"])
    waves = []
    n = len(src)
    for i, (lo, hi) in enumerate(((0, n // 3), (n // 3, 2 * n // 3),
                                  (2 * n // 3, n))):
        p = str(tmp_path / f"wave{i}.parquet")
        pq.write_table(src.slice(lo, hi - lo), p)
        waves.append(p)

    store = str(tmp_path / "store")
    assert ING.ingest(store, waves[:1], width=3600) == 1
    assert ING.ingest(store, waves[:2], width=3600) == 1  # only wave1 is new
    assert ING.ingest(store, waves, width=3600) == 1
    assert ING.ingest(store, waves, width=3600) == 0      # idempotent

    def canon(df):
        return df[sorted(df.columns)] \
            .sort_values(["event_type", "window_start"]) \
            .reset_index(drop=True)

    got = canon(ING.read_rollup(store).to_pandas())
    want = canon(rollup_events(
        rd.read_parquet("/root/testdata/sf0.001/events.parquet",
                        columns=["event_type", "ts", "value"]),
        width=3600).to_pandas())
    pd.testing.assert_frame_equal(got, want)

    assert ING.compact(store) == 3
    assert len(ING._load_ledger(store)["deltas"]) == 1
    got2 = canon(ING.read_rollup(store).to_pandas())
    pd.testing.assert_frame_equal(got2, want)
    # post-compaction ingest of a brand-new wave still merges correctly
    extra = str(tmp_path / "wave3.parquet")
    pq.write_table(src.slice(0, 500), extra)  # duplicate rows, new file
    assert ING.ingest(store, [extra], width=3600) == 1
    got3 = ING.read_rollup(store).to_pandas()
    assert got3["vcount"].sum() == want["vcount"].sum() + 500


def test_ingest_compaction_crash_recovery(ray_session, tmp_path):
    """A crash can leave an unreferenced delta dir; reads must ignore it
    (ledger is the source of truth) and the next compaction sweeps it."""
    import pyarrow.parquet as pq

    from series_correction_project_updated_ray.state import ingest as ING

    src = pq.read_table("/root/testdata/sf0.001/events.parquet",
                        columns=["event_type", "ts", "value"])
    w0, w1 = str(tmp_path / "w0.parquet"), str(tmp_path / "w1.parquet")
    pq.write_table(src.slice(0, 500), w0)
    pq.write_table(src.slice(500, 500), w1)
    store = str(tmp_path / "store")
    ING.ingest(store, [w0], width=3600)
    ING.ingest(store, [w1], width=3600)
    want = ING.read_rollup(store).to_pandas() \
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)
    # simulate a crashed compaction: half-built base dir, ledger untouched
    stray = os.path.join(store, "deltas", "delta-base-deadbeef")
    os.makedirs(stray)
    d0 = ING._load_ledger(store)["deltas"][0]
    src_file = ING._delta_files(store, [d0])[0]
    shutil.copy(src_file, os.path.join(stray, "garbage.parquet"))
    got = ING.read_rollup(store).to_pandas() \
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)  # stray dir not double-counted
    ING.compact(store)
    assert not os.path.isdir(stray)  # swept
    got2 = ING.read_rollup(store).to_pandas() \
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got2, want)


def test_ingest_retention_expiry(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from series_correction_project_updated_ray.state import ingest as ING

    src = pq.read_table("/root/testdata/sf0.001/events.parquet",
                        columns=["event_type", "ts", "value"])
    w = str(tmp_path / "w.parquet")
    pq.write_table(src, w)
    store = str(tmp_path / "store")
    ING.ingest(store, [w], width=3600)
    full = ING.read_rollup(store).to_pandas()
    cutoff = int(full["window_start"].median())
    ING.expire(store, cutoff)
    kept = ING.read_rollup(store).to_pandas()
    want = full[full["window_start"] >= cutoff]
    assert len(kept) == len(want)
    assert kept["window_start"].min() >= cutoff
    assert kept["vcount"].sum() == want["vcount"].sum()


def test_ingest_same_basename_different_dirs(ray_session, tmp_path):
    """Regression: ledger keys are absolute paths — day2/events.parquet
    must ingest even though day1/events.parquet shares its basename."""
    import pyarrow.parquet as pq

    from series_correction_project_updated_ray.state import ingest as ING

    src = pq.read_table("/root/testdata/sf0.001/events.parquet",
                        columns=["event_type", "ts", "value"])
    d1, d2 = tmp_path / "day1", tmp_path / "day2"
    d1.mkdir(); d2.mkdir()
    pq.write_table(src.slice(0, 500), str(d1 / "events.parquet"))
    pq.write_table(src.slice(500, 500), str(d2 / "events.parquet"))
    store = str(tmp_path / "store")
    assert ING.ingest(store, [str(d1 / "events.parquet")], width=3600) == 1
    assert ING.ingest(store, [str(d2 / "events.parquet")], width=3600) == 1
    out = ING.read_rollup(store).to_pandas()
    assert out["vcount"].sum() == 1000


def test_ingest_crash_retry_no_double_count(ray_session, tmp_path):
    """Regression: a crashed ingest attempt leaves uuid-named parquet in
    the delta dir; the retry must clear it, not append beside it."""
    import pyarrow.parquet as pq

    from series_correction_project_updated_ray.state import ingest as ING

    src = pq.read_table("/root/testdata/sf0.001/events.parquet",
                        columns=["event_type", "ts", "value"])
    w = str(tmp_path / "w.parquet")
    pq.write_table(src, w)
    store = str(tmp_path / "store")
    # simulate the crashed attempt: delta dir pre-populated with a stale
    # file under the SAME deterministic name, ledger never updated
    name = f"delta-{ING._wave_fingerprint([w])}"
    crash_dir = os.path.join(store, "deltas", name)
    os.makedirs(crash_dir)
    pq.write_table(src.slice(0, 500), os.path.join(crash_dir,
                                                   "deadbeef_0_0.parquet"))
    assert ING.ingest(store, [w], width=3600) == 1
    out = ING.read_rollup(store).to_pandas()
    assert out["vcount"].sum() == 1000  # stale file cleared, not added


def test_expire_everything_leaves_readable_store(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from series_correction_project_updated_ray.state import ingest as ING

    src = pq.read_table("/root/testdata/sf0.001/events.parquet",
                        columns=["event_type", "ts", "value"])
    w = str(tmp_path / "w.parquet")
    pq.write_table(src.slice(0, 1000), w)
    store = str(tmp_path / "store")
    ING.ingest(store, [w], width=3600)
    ING.expire(store, 2**62)  # cutoff beyond every window
    out = ING.read_rollup(store).to_pandas()
    assert len(out) == 0


def test_compact_all_empty_deltas_keeps_store_readable(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from series_correction_project_updated_ray.state import ingest as ING

    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "ts": pa.array([], pa.int64()),
                      "value": pa.array([], pa.float64())})
    w0, w1 = str(tmp_path / "e0.parquet"), str(tmp_path / "e1.parquet")
    pq.write_table(empty, w0)
    pq.write_table(empty, w1)
    store = str(tmp_path / "store")
    assert ING.ingest(store, [w0], width=3600) == 1
    assert ING.ingest(store, [w1], width=3600) == 1
    assert ING.compact(store) == 2
    out = ING.read_rollup(store).to_pandas()
    assert len(out) == 0
    assert ING.expire(store, 0) == 1  # still operable after compaction
