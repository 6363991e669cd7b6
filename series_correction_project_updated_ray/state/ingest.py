"""Incremental continuous-aggregate ingest for append-only event streams.

The batch rollup (stages/rollup.py) recomputes windows from all input;
a streaming table instead receives FILES over time.  Because the rollup
tuple (min, max, sum, count) is mergeable, each ingest wave only has to
aggregate its OWN new files into partial rows and append them as a
delta; reads merge deltas, and compaction folds them down — the
continuous-aggregate maintenance loop of a timeseries store:

    <store>/deltas/delta-<fingerprint>/   one per ingest wave
    <store>/_ingested.json                ledger: files seen + LIVE deltas

Crash-safety invariant: the ledger is the single source of truth and is
replaced atomically LAST in every operation.  An ingest crash before the
ledger update re-ingests into an identically-named delta (same wave
fingerprint → clean overwrite).  A compaction crash before the ledger
update leaves the old delta list live (the half-built base is
unreferenced); after it, the old dirs are unreferenced garbage that the
next compaction sweeps.  Reads never consult the filesystem listing,
only the ledger, so they can't double-count.  Equality with the batch
rollup over the union of all waves is asserted in tests/test_state.py.
"""

from __future__ import annotations

import glob
import json
import os

import pandas as pd

from ..stages.rollup import PartialRollup, _finalize, merge_partials

_LEDGER = "_ingested.json"


class _store_lock:
    """Advisory cross-process exclusive lock on the store — two drivers
    ingesting concurrently would race the ledger read-modify-write and
    interleave writes into the same deterministic delta dir (double
    count).  flock is held for the duration of each mutating op."""

    def __init__(self, store: str):
        os.makedirs(store, exist_ok=True)
        self.path = os.path.join(store, ".lock")

    def __enter__(self):
        import fcntl
        self.f = open(self.path, "w")
        fcntl.flock(self.f, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        import fcntl
        fcntl.flock(self.f, fcntl.LOCK_UN)
        self.f.close()
        return False


def _ledger_path(store: str) -> str:
    return os.path.join(store, _LEDGER)


def _load_ledger(store: str) -> dict:
    p = _ledger_path(store)
    if not os.path.exists(p):
        return {"files": [], "deltas": [], "sigs": {}}
    with open(p) as f:
        led = json.load(f)
    led.setdefault("sigs", {})  # ledgers written before content signing
    return led


def _file_sig(path: str) -> str:
    st = os.stat(path)
    return f"{st.st_size}:{st.st_mtime_ns}"


def _write_ledger(store: str, ledger: dict):
    tmp = _ledger_path(store) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ledger, f)
    os.replace(tmp, _ledger_path(store))


def _wave_fingerprint(new_files: list[str]) -> str:
    items = sorted((os.path.abspath(f), os.path.getsize(f))
                   for f in new_files)
    h = pd.util.hash_pandas_object(
        pd.Series([f"{n}:{s}" for n, s in items]), index=False).sum()
    return f"{int(h) & 0xFFFFFFFFFFFFFFFF:016x}"


def _delta_files(store: str, delta_names: list[str]) -> list[str]:
    """The parquet files inside the named delta dirs (read_parquet does
    not expand a LIST of directories)."""
    return sorted(
        f for name in delta_names
        for f in glob.glob(os.path.join(store, "deltas", name, "*.parquet")))


def _merge_deltas(store: str, delta_names: list[str], key_col: str):
    import ray.data as rd
    paths = _delta_files(store, delta_names)
    if not paths:
        raise FileNotFoundError(f"no deltas ingested under {store}")
    return merge_partials(rd.read_parquet(paths), [key_col])


def ingest(store: str, files: list[str], *, key_col: str = "event_type",
           ts_col: str = "ts", value_col: str = "value",
           width: int = 60) -> int:
    """Ingest any not-yet-seen files as one delta; returns the number of
    NEW files processed (0 = everything already ingested)."""
    with _store_lock(store):
        return _ingest_locked(store, files, key_col=key_col, ts_col=ts_col,
                              value_col=value_col, width=width)


def _ingest_locked(store, files, *, key_col, ts_col, value_col, width):
    import shutil

    import ray.data as rd

    ledger = _load_ledger(store)
    done = set(ledger["files"])
    # ledger keys are ABSOLUTE paths: basename-only keying would silently
    # skip day2/events.parquet after day1/events.parquet was ingested.
    # A seen path whose (size, mtime) signature changed means the file was
    # rewritten AFTER its delta was folded in — re-ingesting would double
    # count and skipping would serve stale data, so fail loudly: the
    # store is append-only by contract.
    changed = [f for f in files
               if (a := os.path.abspath(f)) in done
               and ledger["sigs"].get(a) not in (None, _file_sig(f))]
    if changed:
        raise ValueError(
            f"already-ingested input files changed on disk: {changed}; "
            "the incremental store is append-only — rebuild the store or "
            "ingest changed data under new paths")
    new = [f for f in sorted(files) if os.path.abspath(f) not in done]
    if not new:
        return 0
    os.makedirs(os.path.join(store, "deltas"), exist_ok=True)
    name = f"delta-{_wave_fingerprint(new)}"
    delta_dir = os.path.join(store, "deltas", name)
    # clear any crashed prior attempt: Ray's parquet filenames embed a
    # per-execution uuid, so a retry into a non-empty dir would ADD files
    # next to the stale ones and double-count once the ledger references
    # the delta
    shutil.rmtree(delta_dir, ignore_errors=True)
    partials = rd.read_parquet(new, columns=[key_col, ts_col, value_col]) \
        .map_batches(PartialRollup(key_col, ts_col, value_col, width),
                     batch_format="pyarrow")
    # merge within the wave (unrounded — rounding happens once, at read)
    merge_partials(partials, [key_col]).write_parquet(delta_dir)
    if not glob.glob(os.path.join(delta_dir, "*.parquet")):
        # empty wave (all-empty input files): Ray skips empty blocks, but
        # a ledger entry must never reference a fileless dir
        import pyarrow as pa
        import pyarrow.parquet as pq
        key_type = pq.read_schema(new[0]).field(key_col).type
        schema = pa.schema([(key_col, key_type),
                            ("window_start", pa.int64()),
                            ("vmin", pa.float64()), ("vmax", pa.float64()),
                            ("vsum", pa.float64()),
                            ("vcount", pa.int64())])
        os.makedirs(delta_dir, exist_ok=True)
        pq.write_table(schema.empty_table(),
                       os.path.join(delta_dir, "empty.parquet"))
    ledger["files"] = sorted(done | {os.path.abspath(f) for f in new})
    ledger["sigs"].update({os.path.abspath(f): _file_sig(f) for f in new})
    ledger["deltas"] = sorted(set(ledger["deltas"]) | {name})
    _write_ledger(store, ledger)  # atomic, LAST
    return len(new)


def read_rollup(store: str, *, key_col: str = "event_type",
                round_to: int | None = 6):
    """Merge the LIVE deltas → the same (key, window, vmin, vmax, vsum,
    vcount, vmean) table the batch rollup produces over all waves."""
    merged = _merge_deltas(store, _load_ledger(store)["deltas"], key_col)
    return merged.map_batches(_finalize, batch_format="pyarrow",
                              fn_kwargs={"round_to": round_to})


def compact(store: str, *, key_col: str = "event_type") -> int:
    """Fold all live deltas into one (returns the number folded) and sweep
    unreferenced garbage from prior crashes.  Reads stay correct at every
    point: the ledger swaps from the old delta list to the new base in
    one atomic replace."""
    with _store_lock(store):
        return _compact_locked(store, key_col)


def _compact_locked(store: str, key_col: str) -> int:
    import shutil

    ledger = _load_ledger(store)
    live = list(ledger["deltas"])
    # sweep dirs no ledger references (left by a crash after a previous
    # ledger swap, or a half-built base)
    ddir = os.path.join(store, "deltas")
    if os.path.isdir(ddir):
        for name in os.listdir(ddir):
            if name not in live:
                shutil.rmtree(os.path.join(ddir, name), ignore_errors=True)
    if len(live) <= 1:
        return 0
    import pyarrow.parquet as pq
    live_files = _delta_files(store, live)
    schema = pq.read_schema(live_files[0])
    merged = _merge_deltas(store, live, key_col)
    base = f"delta-base-{_wave_fingerprint(live_files)}"
    base_dir = os.path.join(ddir, base)
    # the sweep above already removed any crashed prior attempt at this
    # deterministic name (it was unreferenced), so the write starts clean
    merged.write_parquet(base_dir)
    if not glob.glob(os.path.join(base_dir, "*.parquet")):
        # all-empty deltas: Ray writes nothing for empty blocks, but the
        # ledger must never reference a fileless dir
        os.makedirs(base_dir, exist_ok=True)
        pq.write_table(schema.empty_table(),
                       os.path.join(base_dir, "empty.parquet"))
    ledger["deltas"] = [base]
    _write_ledger(store, ledger)  # atomic swap: old list → base
    for name in live:
        if name != base:
            shutil.rmtree(os.path.join(ddir, name), ignore_errors=True)
    return len(live)


def expire(store: str, cutoff_window_start: int, *,
           key_col: str = "event_type") -> int:
    """Retention: drop windows older than the cutoff from the store via a
    filtered compaction (the delete never touches raw inputs — at real
    scale this is the tier's retention policy running on a schedule).
    Returns the number of deltas folded."""
    with _store_lock(store):
        return _expire_locked(store, cutoff_window_start, key_col)


def _expire_locked(store: str, cutoff_window_start: int,
                   key_col: str) -> int:
    import shutil

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    ledger = _load_ledger(store)
    live = list(ledger["deltas"])
    ddir = os.path.join(store, "deltas")
    # sweep unreferenced dirs (crashed prior expire/compact attempts) so
    # the deterministic-named write below starts clean
    if os.path.isdir(ddir):
        for name in os.listdir(ddir):
            if name not in live:
                shutil.rmtree(os.path.join(ddir, name), ignore_errors=True)
    if not live:
        return 0
    live_files = _delta_files(store, live)
    schema = pq.read_schema(live_files[0])
    merged = _merge_deltas(store, live, key_col).map_batches(
        lambda t: t.filter(
            pc.greater_equal(t["window_start"], cutoff_window_start)),
        batch_format="pyarrow")
    base = f"delta-base-{_wave_fingerprint(live_files)}x"
    base_dir = os.path.join(ddir, base)
    merged.write_parquet(base_dir)
    if not glob.glob(os.path.join(base_dir, "*.parquet")):
        # everything expired: Ray skips empty blocks, so write an explicit
        # empty file — a ledger entry must never point at a fileless dir
        os.makedirs(base_dir, exist_ok=True)
        pq.write_table(schema.empty_table(),
                       os.path.join(base_dir, "empty.parquet"))
    ledger["deltas"] = [base]
    _write_ledger(store, ledger)  # atomic swap
    for name in live:
        if name != base:
            shutil.rmtree(os.path.join(ddir, name), ignore_errors=True)
    return len(live)
