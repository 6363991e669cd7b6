"""Resumable flagship run: checkpointed, partition-pruned, lineage-tracked.

The flagship correct+rollup pipeline wrapped in the checkpoint layer:

1. fingerprint the input file set;
2. if ``_COMMIT`` matches → nothing to do;
3. read manifests → completed partition set → a vectorized filter drops
   those partitions' rows BEFORE the shuffle (a killed run re-reads the
   input but re-processes only incomplete partitions);
4. one keyed exchange on ``part_id``; the partition writer runs every
   series of the partition through the fused correct+rollup kernel and
   writes ``tier=<t>/part=<id>/data.parquet`` atomically + its manifest;
5. commit marker.

Partition id = series bucket folded to ``n_partitions`` — deterministic,
so a resume sees identical partition membership.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.sequences import read_sequences
from ..stages.correction import (SERIES_STEP_SECONDS, TIERS,
                                 CorrectAndRollupGroup, add_series_key)
from ..stages.joins import each_key
from ..state import checkpoint as CP

TIER_COLUMNS = ["series_key", "window_start", "vmin", "vmax", "vsum",
                "vcount"]
MANIFEST_COLUMNS = ["part_id", "status"]


def _add_part_id(batch: pa.Table, n_partitions: int) -> pa.Table:
    key = batch["series_key"].to_numpy(zero_copy_only=False)
    part = (key.astype(np.uint64) % np.uint64(n_partitions)).astype(np.int64)
    return batch.append_column("part_id", pa.array(part))


def _drop_completed(batch: pa.Table, done: frozenset) -> pa.Table:
    if not done:
        return batch
    part = batch["part_id"].to_numpy(zero_copy_only=False)
    mask = ~np.isin(part, np.fromiter(done, dtype=np.int64))
    return batch.filter(pa.array(mask))


class PartitionWriter:
    """Per-partition kernel (``each_key`` on part_id): run the fused
    correct+rollup kernel over the partition's series, write one tier
    parquet per tier + the manifest, emit the manifest row."""

    def __init__(self, out_root: str, fingerprint: str,
                 config: dict | None = None,
                 step_seconds: int = SERIES_STEP_SECONDS,
                 tiers=TIERS):
        self.out_root = out_root
        self.fingerprint = fingerprint
        self.kernel = CorrectAndRollupGroup(config, step_seconds, tiers)

    def __call__(self, group: pa.Table) -> pd.DataFrame:
        t0 = time.time()
        part_id = int(group["part_id"][0].as_py())
        rolled = self.kernel(group)
        tier_tables = {
            name: rolled.filter(pc.equal(rolled["tier"], name))
            .select(TIER_COLUMNS)
            for name, _ in self.kernel.tiers}
        manifest = CP.write_partition(self.out_root, tier_tables, part_id,
                                      self.fingerprint, len(group),
                                      time.time() - t0)
        return pd.DataFrame([manifest])


def run_resumable(input_path: str, out_root: str, *,
                  n_partitions: int = 32, buckets_per_source: int = 64,
                  config: dict | None = None,
                  step_seconds: int = SERIES_STEP_SECONDS,
                  num_blocks: int | None = None) -> pd.DataFrame:
    """Run (or resume) the checkpointed flagship; returns the manifest
    table of THIS run (empty when everything was already complete)."""
    files = sorted(glob.glob(os.path.join(input_path, "*.parquet"))) \
        if os.path.isdir(input_path) else [input_path]
    # the fingerprint covers the PLAN, not just the input: a manifest from a
    # different partition layout / key derivation / kernel config must not
    # satisfy a resume (it would silently skip rows of the new layout)
    plan = (f"n_partitions={n_partitions};buckets={buckets_per_source};"
            f"step={step_seconds};config={sorted((config or {}).items())}")
    fp = CP.plan_fingerprint(files, plan)
    if CP.is_committed(out_root, fp):
        return pd.DataFrame(columns=MANIFEST_COLUMNS)
    done = frozenset(CP.completed_partitions(out_root, fp))
    ds = read_sequences(input_path, num_blocks=num_blocks)
    keyed = ds.map_batches(add_series_key, batch_format="pyarrow",
                           fn_kwargs={"buckets_per_source": buckets_per_source})
    parts = keyed.map_batches(_add_part_id, batch_format="pyarrow",
                              fn_kwargs={"n_partitions": n_partitions})
    pruned = parts.map_batches(_drop_completed, batch_format="pyarrow",
                               fn_kwargs={"done": done})
    writer = PartitionWriter(out_root, fp, config, step_seconds)
    manifests = each_key(pruned, "part_id", writer, "pyarrow").to_pandas()
    if manifests.empty:
        # every partition already had a manifest (a run killed after its
        # last write, before the commit): nothing ran, same columns
        manifests = pd.DataFrame(columns=MANIFEST_COLUMNS)
    if len(CP.completed_partitions(out_root, fp)) >= 1:
        CP.commit(out_root, fp,
                  len(CP.completed_partitions(out_root, fp)))
    return manifests
