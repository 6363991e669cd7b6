"""Checkpoint / resume with per-partition lineage manifests.

Deterministic output layout (north rule):

    <out_root>/tier=<1m|1h|1d>/part=<partition_id>/data.parquet
    <out_root>/_manifest/part-<partition_id>.json
    <out_root>/_COMMIT                      (final marker)

A partition is a deterministic hash-range of series keys.  Each manifest
records the input fingerprint, row counts, wall time and throughput, so a
restarted run (a) skips partitions whose manifest matches the current
input fingerprint and (b) emits per-partition skew metrics for free.

No wall-clock values participate in naming or fingerprints — manifests
are keyed purely by content, so resume decisions are reproducible.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def input_fingerprint(paths: list[str]) -> str:
    """Content fingerprint of an input file set: names + sizes + mtimes
    (cheap, deterministic; an in-place rewrite that happens to preserve
    the byte count still bumps mtime, so stale partitions re-run)."""
    def _stat(p):
        st = os.stat(p)
        return os.path.basename(p), st.st_size, st.st_mtime_ns
    items = sorted(_stat(p) for p in paths)
    h = pd.util.hash_pandas_object(
        pd.Series([f"{n}:{s}:{m}" for n, s, m in items]), index=False).sum()
    return f"{int(h) & 0xFFFFFFFFFFFFFFFF:016x}"


def plan_fingerprint(paths: list[str], plan: str) -> str:
    """Fingerprint of (input file set, execution plan parameters).

    Resume validity requires BOTH to match: a manifest written under a
    different partition count / key derivation / kernel config describes a
    different output layout, so it must not satisfy the new run."""
    h = pd.util.hash_array(
        pd.Series([input_fingerprint(paths), plan], dtype=object)
        .to_numpy()).sum()
    return f"{int(h) & 0xFFFFFFFFFFFFFFFF:016x}"


def manifest_path(out_root: str, part_id: int) -> str:
    return os.path.join(out_root, "_manifest", f"part-{part_id:05d}.json")


def load_manifests(out_root: str) -> dict[int, dict]:
    mdir = os.path.join(out_root, "_manifest")
    out = {}
    if not os.path.isdir(mdir):
        return out
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                m = json.load(f)
            out[m["part_id"]] = m
    return out


def completed_partitions(out_root: str, fingerprint: str) -> set[int]:
    """Partitions whose manifest exists AND matches the current input."""
    return {pid for pid, m in load_manifests(out_root).items()
            if m.get("input_fingerprint") == fingerprint
            and m.get("status") == "complete"}


def write_partition(out_root: str, tier_tables: dict[str, pa.Table],
                    part_id: int, fingerprint: str,
                    rows_in: int, wall_s: float) -> dict:
    """Atomically write one partition's tier outputs + manifest.

    Data lands under tier=<t>/part=<id>/ via a temp-dir rename so a crash
    mid-write never yields a manifest without data (manifest is written
    LAST)."""
    rows_out = 0
    for tier, tbl in tier_tables.items():
        final_dir = os.path.join(out_root, f"tier={tier}", f"part={part_id:05d}")
        tmp_dir = final_dir + ".tmp"
        os.makedirs(tmp_dir, exist_ok=True)
        pq.write_table(tbl, os.path.join(tmp_dir, "data.parquet"))
        if os.path.isdir(final_dir):
            import shutil
            shutil.rmtree(final_dir)
        os.rename(tmp_dir, final_dir)
        rows_out += len(tbl)
    manifest = {
        "part_id": part_id,
        "input_fingerprint": fingerprint,
        "rows_in": rows_in,
        "rows_out": rows_out,
        "wall_s": round(wall_s, 4),
        "rows_per_s": round(rows_in / wall_s, 1) if wall_s > 0 else None,
        "status": "complete",
    }
    os.makedirs(os.path.join(out_root, "_manifest"), exist_ok=True)
    tmp = manifest_path(out_root, part_id) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, manifest_path(out_root, part_id))
    return manifest


def commit(out_root: str, fingerprint: str, n_partitions: int):
    # same tmp + os.replace discipline as the manifests: a crash mid-write
    # must never leave a truncated _COMMIT that poisons every later resume
    p = os.path.join(out_root, "_COMMIT")
    with open(p + ".tmp", "w") as f:
        json.dump({"input_fingerprint": fingerprint,
                   "n_partitions": n_partitions}, f)
    os.replace(p + ".tmp", p)


def is_committed(out_root: str, fingerprint: str) -> bool:
    p = os.path.join(out_root, "_COMMIT")
    if not os.path.exists(p):
        return False
    try:
        with open(p) as f:
            return json.load(f).get("input_fingerprint") == fingerprint
    except (json.JSONDecodeError, OSError):
        # a torn marker (pre-replace crash on old outputs) means
        # not-committed, never a hard failure
        return False


def skew_report(out_root: str) -> pd.DataFrame:
    """Per-partition throughput/row-count table from the manifests (the
    north-rule skew metric surface)."""
    ms = load_manifests(out_root)
    if not ms:
        return pd.DataFrame(
            columns=["part_id", "rows_in", "rows_out", "wall_s", "rows_per_s"])
    df = pd.DataFrame(sorted(ms.values(), key=lambda m: m["part_id"]))
    return df[["part_id", "rows_in", "rows_out", "wall_s", "rows_per_s"]]
