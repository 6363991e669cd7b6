"""merge_partials: the vectorized (min, max, sum, count) merge behind the
batch rollups and the incremental store.

Null keys are checked against a pyarrow group_by of the raw events; the
merge itself is checked differentially against Ray's per-group
``groupby().aggregate(Min, Max, Sum, Sum)``, the plan it replaced."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _table(ds) -> pa.Table:
    import ray
    blocks = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(blocks)


def _sorted(t: pa.Table, cells) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in cells],
                     null_placement="at_end")


def _reference_rollup(events: pa.Table, key: str, width: int) -> pa.Table:
    ts = events["ts"].to_numpy()
    # window_start first: pyarrow 16 splits the null group of a nullable
    # string key that leads a multi-key group_by
    return events.append_column("window_start", pa.array(ts - ts % width)) \
        .group_by(["window_start", key], use_threads=False).aggregate(
            [("value", "min"), ("value", "max"), ("value", "sum"),
             ("value", "count")])


def _assert_matches_reference(got: pa.Table, events: pa.Table, key: str,
                              width: int):
    cells = [key, "window_start"]
    got = _sorted(got, cells)
    want = _sorted(_reference_rollup(events, key, width), cells)
    assert got.num_rows == want.num_rows
    assert got[key].equals(want[key])
    assert got["window_start"].equals(want["window_start"])
    assert got["vmin"].equals(want["value_min"])
    assert got["vmax"].equals(want["value_max"])
    assert got["vcount"].equals(want["value_count"])
    np.testing.assert_allclose(got["vsum"].to_numpy(),
                               want["value_sum"].to_numpy(), rtol=0, atol=1e-6)


def _null_key_blocks(key_values, seed: int, n_blocks=4, rows=400):
    """Seeded event blocks whose keys include nulls; the first block holds
    no null, so a key's blocks differ in whether the column has nulls.
    The 200 one-minute windows make each merge block hold hundreds of
    cells (pyarrow's null-group split shows from about 100 rows)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for b in range(n_blocks):
        pool = [k for k in key_values if k is not None] if b == 0 \
            else key_values
        keys = [pool[i] for i in rng.integers(0, len(pool), rows)]
        blocks.append(pa.table({
            "key": keys,
            "ts": pa.array(rng.integers(0, 12000, rows), pa.int64()),
            "value": rng.normal(size=rows)}))
    return blocks


def test_rollup_events_null_string_key_two_blocks():
    import ray.data as rd
    from series_correction_project_updated_ray.stages.rollup import (
        rollup_events)
    blocks = [pa.table({"event_type": [None, "a"], "ts": [0, 1],
                        "value": [1.0, 2.0]}),
              pa.table({"event_type": ["a", "b"], "ts": [2, 3],
                        "value": [3.0, 4.0]})]
    got = _sorted(_table(rollup_events(rd.from_arrow(blocks))),
                  ["event_type", "window_start"])
    assert got.select(["event_type", "window_start", "vmin", "vmax",
                       "vsum", "vcount"]).to_pylist() == [
        {"event_type": "a", "window_start": 0, "vmin": 2.0, "vmax": 3.0,
         "vsum": 5.0, "vcount": 2},
        {"event_type": "b", "window_start": 0, "vmin": 4.0, "vmax": 4.0,
         "vsum": 4.0, "vcount": 1},
        {"event_type": None, "window_start": 0, "vmin": 1.0, "vmax": 1.0,
         "vsum": 1.0, "vcount": 1}]


@pytest.mark.parametrize("key_values,key_type", [
    (["a", "b", "c", None], pa.string()),
    # mostly null: some merge partition holds null keys only, where the
    # per-group aggregate typed the key column as pa.null()
    ([1, 2, None, None, None, None], pa.int64()),
], ids=["string", "int"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rollup_events_null_keys_match_group_by(key_values, key_type, seed):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.rollup import (
        rollup_events)
    blocks = [t.cast(pa.schema([("key", key_type), ("ts", pa.int64()),
                                ("value", pa.float64())]))
              for t in _null_key_blocks(key_values, seed)]
    got = _table(rollup_events(rd.from_arrow(blocks), key_col="key",
                               width=60))
    assert got.schema.field("key").type == key_type
    _assert_matches_reference(got, pa.concat_tables(blocks), "key", 60)


def test_ingest_read_rollup_null_keys(tmp_path):
    from series_correction_project_updated_ray.state import ingest as ING
    blocks = _null_key_blocks(["a", "b", None], seed=3, n_blocks=3)
    waves = []
    for i, t in enumerate(blocks):
        p = str(tmp_path / f"wave{i}.parquet")
        pq.write_table(t.rename_columns(["event_type", "ts", "value"]), p)
        waves.append(p)
    events = pa.concat_tables(pq.read_table(p) for p in waves)
    store = str(tmp_path / "store")
    for p in waves:
        assert ING.ingest(store, [p], width=60) == 1
    _assert_matches_reference(_table(ING.read_rollup(store)), events,
                              "event_type", 60)
    assert ING.compact(store) == 3
    _assert_matches_reference(_table(ING.read_rollup(store)), events,
                              "event_type", 60)


def test_rollup_events_nan_partial_sum_propagates():
    """+inf and -inf in one batch make that partial's sum NaN; the merged
    sum stays NaN, as SQL's sum over the cell's values (Ray's Sum skipped
    the NaN partial and returned the other partials' sum)."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.rollup import (
        rollup_events)
    blocks = [pa.table({"event_type": ["a", "a"], "ts": [0, 1],
                        "value": [np.inf, -np.inf]}),
              pa.table({"event_type": ["a"], "ts": [2], "value": [1.0]})]
    got = _table(rollup_events(rd.from_arrow(blocks))).to_pylist()
    assert len(got) == 1
    assert (got[0]["vmin"], got[0]["vmax"], got[0]["vcount"]) == (
        -np.inf, np.inf, 3)
    assert np.isnan(got[0]["vsum"]) and np.isnan(got[0]["vmean"])


# --- differential: merge_partials vs Ray's per-group aggregate ------------

def _ray_aggregate_merge(partials, key_cols):
    """The merge the rollups and the store ran before merge_partials,
    kept verbatim as the reference."""
    from ray.data.aggregate import Max, Min, Sum
    return partials.groupby([*key_cols, "window_start"]).aggregate(
        Min("vmin", alias_name="vmin"),
        Max("vmax", alias_name="vmax"),
        Sum("vsum", alias_name="vsum"),
        Sum("vcount", alias_name="vcount"),
    )


def _seeded_partials(seed: int, keys, tiers=None, n_blocks=6):
    """Partial rows whose every cell is split over 3 to n_blocks blocks.
    About 1 minimum or maximum in 8 is NaN, and some cells hold only
    all-NaN partials (NaN min and max, sum 0, count 0: what PartialRollup
    emits for a batch whose values in the cell are all NaN)."""
    rng = np.random.default_rng(seed)
    cells = [(k, t, w) for k in keys for t in (tiers or [None])
             for w in range(0, 3600 * 4, 3600) if rng.random() < 0.8]
    rows = [[] for _ in range(n_blocks)]
    for cell in cells:
        nan_cell = rng.random() < 0.1
        for b in rng.choice(n_blocks, rng.integers(3, n_blocks + 1),
                            replace=False):
            lo, hi = np.sort(rng.normal(size=2) * 100)
            vsum, vcount = rng.normal() * 1e3, int(rng.integers(1, 60))
            if nan_cell:
                lo, hi, vsum, vcount = np.nan, np.nan, 0.0, 0
            if rng.random() < 0.125:
                lo = np.nan
            if rng.random() < 0.125:
                hi = np.nan
            rows[b].append((*cell, lo, hi, vsum, vcount))
    key_type = pa.string() if isinstance(keys[0], str) else pa.int64()
    blocks = []
    for block in rows:
        k, t, w, lo, hi, s, c = (list(x) for x in zip(*block))
        cols = {"key": pa.array(k, key_type)}
        if tiers:
            cols["tier"] = pa.array(t, pa.string())
        cols.update({"window_start": pa.array(w, pa.int64()),
                     "vmin": pa.array(lo, pa.float64()),
                     "vmax": pa.array(hi, pa.float64()),
                     "vsum": pa.array(s, pa.float64()),
                     "vcount": pa.array(c, pa.int64())})
        blocks.append(pa.table(cols))
    return blocks


@pytest.mark.parametrize("keys,tiers", [
    (["open", "close", "buy", "view", "cart"], None),
    ([7, -3, 0, 12, 2**40], None),
    (["open", "close", "buy", "view"], ["1m", "1h", "1d"]),
], ids=["string", "int", "key_tier"])
@pytest.mark.parametrize("seed", [0, 1])
def test_merge_partials_matches_ray_aggregate(keys, tiers, seed):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.rollup import (
        _finalize, merge_partials)
    key_cols = ["key", "tier"] if tiers else ["key"]
    cells = [*key_cols, "window_start"]
    blocks = _seeded_partials(seed, keys, tiers)
    got = _sorted(_table(merge_partials(rd.from_arrow(blocks), key_cols)),
                  cells)
    want = _sorted(_table(_ray_aggregate_merge(rd.from_arrow(blocks),
                                               key_cols)), cells)
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows > 0
    for c in [*cells, "vmin", "vmax", "vcount"]:
        assert got[c].equals(want[c]), c
    # the sums differ only in summation order; rounding collapses them
    pd.testing.assert_frame_equal(
        _finalize(got, round_to=6).to_pandas(),
        _finalize(want, round_to=6).to_pandas(), check_exact=True)
    # every cell is one row, and the partials' counts are all accounted for
    assert got.group_by(cells).aggregate([]).num_rows == got.num_rows
    assert pc.sum(got["vcount"]).as_py() == sum(
        pc.sum(b["vcount"]).as_py() for b in blocks)
