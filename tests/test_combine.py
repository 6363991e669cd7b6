"""combine: the one keyed aggregate of the engine.

Every case feeds at least two input blocks, so groups straddle blocks
and the sort does the co-location.  The guard test at the end keeps
Ray's per-group ``groupby().aggregate()`` and ``map_groups`` out of the
package."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

PKG = pathlib.Path(__file__).resolve().parents[1] \
    / "series_correction_project_updated_ray"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


@pytest.fixture(autouse=True)
def _block_per_bundle(monkeypatch):
    """Hash each input block on its own, so these small inputs reach the
    sort as several blocks instead of one coalesced bundle."""
    from series_correction_project_updated_ray.stages import joins
    monkeypatch.setattr(joins, "_SORT_BLOCK_ROWS", 1)


def _combine(blocks, keys, aggs) -> pa.Table:
    import ray
    import ray.data as rd
    from series_correction_project_updated_ray.stages.rollup import combine
    out = combine(rd.from_arrow(blocks), keys, aggs)
    tables = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
    got = pa.concat_tables(tables)
    return got.sort_by([(k, "ascending") for k in keys])


def test_null_string_key_beside_real_keys():
    # Ray's sort sampling compares None with str and raises TypeError
    blocks = [pa.table({"k": ["a", None, "b"], "v": [1, 2, 3]}),
              pa.table({"k": [None, "a", "c"], "v": [4, 5, 6]}),
              pa.table({"k": ["b", None], "v": [7, 8]})]
    got = _combine(blocks, ["k"], [("v", "sum", "s")])
    assert got.to_pylist() == [{"k": "a", "s": 6}, {"k": "b", "s": 10},
                               {"k": "c", "s": 6}, {"k": None, "s": 14}]


def test_null_string_key_with_fixed_width_key():
    """pyarrow 16 splits the null group of a nullable string key that a
    fixed-width key follows; combine must still emit one row per cell."""
    rng = np.random.default_rng(0)
    blocks = []
    for _ in range(3):
        keys = [["a", "b", None][i] for i in rng.integers(0, 3, 400)]
        blocks.append(pa.table({"k": pa.array(keys, pa.string()),
                                "w": rng.integers(0, 100, 400),
                                "v": np.ones(400, dtype=np.int64)}))
    got = _combine(blocks, ["k", "w"], [("v", "sum", "n")])
    want = pd.concat(b.to_pandas() for b in blocks) \
        .groupby(["k", "w"], dropna=False).size()
    assert got.num_rows == len(want)
    assert got.group_by(["w", "k"]).aggregate([]).num_rows == got.num_rows
    assert sum(got["n"].to_pylist()) == 1200


def test_all_null_int_keys_form_one_group():
    blocks = [pa.table({"k": pa.array([None, None], pa.int64()),
                        "v": [1, 2]}),
              pa.table({"k": pa.array([None], pa.int64()), "v": [3]}),
              pa.table({"k": pa.array([0, None], pa.int64()),
                        "v": [10, 4]})]
    got = _combine(blocks, ["k"], [("v", "sum", "v")])
    assert got.schema.field("k").type == pa.int64()
    # a null key hashes like 0: the block's group_by still parts them
    assert got.to_pylist() == [{"k": 0, "v": 10}, {"k": None, "v": 10}]


def test_sum_keeps_nan_and_opposite_infinities():
    blocks = [pa.table({"k": ["a", "b", "c"], "v": [np.nan, np.inf, 1.0]}),
              pa.table({"k": ["a", "b", "c"], "v": [1.0, -np.inf, 2.0]})]
    got = _combine(blocks, ["k"], [("v", "sum", "s")]).to_pydict()
    assert np.isnan(got["s"][0]) and np.isnan(got["s"][1])
    assert got["s"][2] == 3.0


def test_min_max_skip_nan():
    blocks = [pa.table({"k": ["a", "b"], "v": [np.nan, np.nan]}),
              pa.table({"k": ["a", "b"], "v": [2.0, np.nan]}),
              pa.table({"k": ["a"], "v": [-1.0]})]
    got = _combine(blocks, ["k"], [("v", "min", "lo"), ("v", "max", "hi")])
    a, b = got.to_pylist()
    assert (a["lo"], a["hi"]) == (-1.0, 2.0)
    # an all-NaN group: pyarrow's hash_min/hash_max initial values
    assert (b["lo"], b["hi"]) == (np.inf, -np.inf)


def test_count_all_counts_nulls_count_does_not():
    blocks = [pa.table({"k": [1, 1], "v": pa.array([None, 1.0])}),
              pa.table({"k": [1, 2], "v": pa.array([np.nan, None])})]
    got = _combine(blocks, ["k"], [([], "count_all", "rows"),
                                   ("v", "count", "valid")])
    assert got.to_pylist() == [{"k": 1, "rows": 3, "valid": 2},
                               {"k": 2, "rows": 1, "valid": 0}]


def test_int32_input_dtypes():
    """Keys keep their input type (Ray's aggregate widened int32 keys to
    int64 and cut timestamp[us] keys to timestamp[s]); sums widen."""
    i32, us = pa.int32(), pa.timestamp("us")
    ts = [1_000_001, 2_000_002]
    blocks = [pa.table({"k": pa.array([1, 2], i32), "ts": pa.array(ts, us),
                        "v": pa.array([2**31 - 1, 5], i32)}),
              pa.table({"k": pa.array([1, 2], i32), "ts": pa.array(ts, us),
                        "v": pa.array([2**31 - 1, -7], i32)})]
    got = _combine(blocks, ["k", "ts"], [("v", "sum", "s"),
                                         ("v", "min", "lo"),
                                         ("v", "max", "hi"),
                                         ([], "count_all", "n")])
    assert got.schema == pa.schema([("k", i32), ("ts", us),
                                    ("s", pa.int64()), ("lo", i32),
                                    ("hi", i32), ("n", pa.int64())])
    assert got.drop_columns(["ts"]).to_pylist() == [
        {"k": 1, "s": 2 * (2**31 - 1), "lo": 2**31 - 1, "hi": 2**31 - 1,
         "n": 2},
        {"k": 2, "s": -2, "lo": -7, "hi": 5, "n": 2}]
    assert got["ts"].cast(pa.int64()).to_pylist() == ts


def test_empty_aggs_is_a_distinct():
    blocks = [pa.table({"u": [1, 1, 2], "v": ["x", "x", None],
                        "extra": [0.5, 0.5, 0.5]}),
              pa.table({"u": [2, 1, 3], "v": [None, "x", "y"],
                        "extra": [0.5, 0.5, 0.5]})]
    got = _combine(blocks, ["u", "v"], [])
    assert got.column_names == ["u", "v"]
    assert got.to_pylist() == [{"u": 1, "v": "x"}, {"u": 2, "v": None},
                               {"u": 3, "v": "y"}]


def test_value_histogram_null_event_type():
    """End to end through a migrated relational operator: a null
    event_type beside real ones over two blocks is one NULL group, as
    SQL's GROUP BY (Ray's groupby sort raised TypeError here)."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        value_histogram)
    blocks = [pa.table({"event_type": ["open", None, "buy", None],
                        "value": [10.0, 20.0, 30.0, 75.0]}),
              pa.table({"event_type": [None, "open", "buy"],
                        "value": [21.0, 11.0, 99.0]})]
    got = value_histogram(rd.from_arrow(blocks)).to_pandas()
    got = got.sort_values(["event_type", "bin"], na_position="last") \
        .reset_index(drop=True)
    assert got["event_type"].tolist()[:2] == ["buy", "buy"]
    assert got["event_type"].tolist()[2] == "open"
    assert got["event_type"].isna().tolist() == [False] * 3 + [True] * 2
    assert got["bin"].tolist() == [0, 1, 0, 0, 1]
    assert got["n"].tolist() == [1, 1, 2, 2, 1]


# --- guard: one keyed exchange --------------------------------------------

def _second_path_calls(path: pathlib.Path) -> list[str]:
    """Ray's own keyed paths: a `.groupby(...).aggregate(` chain or any
    `.map_groups(` call, as `"<call>:<line>"`."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "map_groups":
            hits.append(f"map_groups:{node.lineno}")
        elif (node.func.attr == "aggregate"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Attribute)
                and node.func.value.func.attr == "groupby"):
            hits.append(f"groupby.aggregate:{node.lineno}")
    return hits


def test_no_ray_groupby_aggregate_in_package():
    """Every keyed aggregate under stages/ and pipelines/, and in the
    query bodies of __ray_entry__.py, goes through rollup.combine, and
    every per-group kernel through joins.keyed_exchange
    (partition_groups / each_key); a `.groupby(...).aggregate(` chain or
    a `.map_groups(` call is the second path this keeps out."""
    files = sorted([*(PKG / "stages").glob("*.py"),
                    *(PKG / "pipelines").glob("*.py")])
    files.append(PKG.parent / "__ray_entry__.py")
    assert len(files) > 20
    hits = {f"{p.parent.name}/{p.name}": lines for p in files
            if (lines := _second_path_calls(p))}
    assert hits == {}
