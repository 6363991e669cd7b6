"""keyed_exchange: the one hash → sort → per-block step under combine,
partition_groups (and its per-key form each_key), grouped_median,
candidate_pairs and the joins.

Every case runs with each input block hashed on its own
(``_SORT_BLOCK_ROWS = 1``) and at the default, where small blocks
coalesce before the sort: the output must not depend on the layout."""

import importlib
import inspect
import pkgutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


@pytest.fixture(params=["block_per_bundle", "default"])
def layout(request, monkeypatch):
    from series_correction_project_updated_ray.stages import joins
    if request.param == "block_per_bundle":
        monkeypatch.setattr(joins, "_SORT_BLOCK_ROWS", 1)
    return request.param


def _null_int_key_blocks() -> list[pa.Table]:
    """Key 5 in a null-free block and in a block that also holds a null
    key: a pandas view of the second block turns its keys into float64."""
    def block(keys, first_id):
        n = len(keys)
        ids = np.arange(first_id, first_id + n)
        return pa.table({
            "user_id": pa.array(keys, pa.int64()),
            "event_id": pa.array(ids, pa.int64()),
            "ts": pa.array((1_700_000_000 + ids * 60) * 1_000_000,
                           pa.timestamp("us")),
            "value": pa.array(ids * 1.5 + 1.0, pa.float64())})
    return [block([5, 5, 5, 6], 0), block([5, 5, None, 6], 4)]


def _null_int_key_frame() -> pd.DataFrame:
    return pa.concat_tables(_null_int_key_blocks()).to_pandas()


def _run(fn, **kw) -> pd.DataFrame:
    import ray.data as rd
    return fn(rd.from_arrow(_null_int_key_blocks()), **kw).to_pandas()


def _by_key(df: pd.DataFrame, cols) -> pd.DataFrame:
    return df[cols].sort_values(cols[0], na_position="last") \
        .reset_index(drop=True)


def test_tukey_fences_null_int_key_one_row_per_key(layout):
    from series_correction_project_updated_ray.stages.rollup import (
        tukey_fences)
    got = _run(tukey_fences, key_col="user_id")
    df = _null_int_key_frame().dropna(subset=["user_id"])
    g = df.groupby("user_id")["value"]
    want = pd.DataFrame({"n": g.size(), "q1": g.quantile(0.25),
                         "q3": g.quantile(0.75)}).reset_index()
    cols = ["user_id", "n", "q1", "q3"]
    pd.testing.assert_frame_equal(_by_key(got, cols), _by_key(want, cols),
                                  check_dtype=False)


def test_grouped_quantiles_null_int_key_one_row_per_key(layout):
    from series_correction_project_updated_ray.stages.rollup import (
        grouped_quantiles)
    got = _run(grouped_quantiles, key_col="user_id", probs=(0.5, 0.9))
    g = _null_int_key_frame().groupby("user_id", dropna=False)["value"]
    want = pd.DataFrame({"p50": g.quantile(0.5),
                         "p90": g.quantile(0.9)}).reset_index()
    cols = ["user_id", "p50", "p90"]
    pd.testing.assert_frame_equal(_by_key(got, cols), _by_key(want, cols),
                                  check_dtype=False)


def test_grouped_median_null_int_key_one_row_per_key(layout):
    from series_correction_project_updated_ray.stages.rollup import (
        grouped_median)
    got = _run(grouped_median, key_col="user_id", width=86_400)
    g = _null_int_key_frame().groupby("user_id", dropna=False)["value"]
    want = g.median().rename("vmedian").reset_index()
    cols = ["user_id", "vmedian"]
    assert got["window_start"].nunique() == 1
    pd.testing.assert_frame_equal(_by_key(got, cols), _by_key(want, cols),
                                  check_dtype=False)


def test_downsample_stride_null_int_key_one_series_per_key(layout):
    from series_correction_project_updated_ray.stages.rollup import (
        downsample_stride)
    got = _run(downsample_stride, n=2, key_col="user_id")
    df = _null_int_key_frame().sort_values(["ts", "event_id"])
    rank = df.groupby("user_id", dropna=False).cumcount()
    want = sorted(df.loc[rank % 2 == 0, "event_id"])
    assert sorted(got["event_id"]) == want


# --- per-key merges: a null string key is one NULL group -------------------

def _null_str_key_blocks() -> list[pa.Table]:
    """Nulls beside real string keys in both blocks: Ray's groupby sort
    sampling compared None with str here and raised TypeError."""
    return [pa.table({"event_type": ["a", "a", None, "b", None],
                      "user_id": pa.array([1, 2, 3, 1, 3], pa.int64()),
                      "value": [1.0, 2.0, 3.0, 4.0, 5.0]}),
            pa.table({"event_type": [None, "b", "a", None],
                      "user_id": pa.array([4, 1, 1, 3], pa.int64()),
                      "value": [6.0, 7.0, 8.0, 9.0]})]


def _quantile_p50(v):
    # the KLL rank rule on a sketch that never compacted
    return np.quantile(v, 0.5, method="inverted_cdf")


# operator → (kwargs, exact pandas answer per event_type group, key cols)
_SKETCH_CASES = {
    "approx_distinct": (
        {"value_col": "user_id"},
        lambda g: g["user_id"].nunique().rename("approx_distinct"),
        ["event_type"]),
    "heavy_hitters": (
        {"item_col": "user_id"},
        lambda g: g["user_id"].value_counts().rename("est"),
        ["event_type", "user_id"]),
    "approx_quantiles": (
        {"value_col": "value", "probs": (0.5,)},
        lambda g: g["value"].agg(n="size", p50=_quantile_p50),
        ["event_type"]),
}


@pytest.mark.parametrize("op", sorted(_SKETCH_CASES))
def test_sketch_merge_null_str_key_one_group(layout, op):
    import ray.data as rd
    from series_correction_project_updated_ray.stages import sketches
    kw, exact, key = _SKETCH_CASES[op]
    blocks = _null_str_key_blocks()
    got = getattr(sketches, op)(rd.from_arrow(blocks), "event_type",
                                **kw).to_pandas()
    df = pa.concat_tables(blocks).to_pandas()
    want = exact(df.groupby("event_type", dropna=False)).reset_index()
    assert got["event_type"].isna().sum() \
        == want["event_type"].isna().sum() > 0

    def canon(d):
        d = d[list(want.columns)].fillna({"event_type": "<null>"})
        return d.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(canon(got), canon(want),
                                  check_dtype=False)


# --- joins: same rows as a pandas merge whatever the block layout ----------

def _sql_merge(left: pd.DataFrame, right: pd.DataFrame, l_on, r_on,
               how: str) -> pd.DataFrame:
    """pandas merge with SQL null semantics: a null key never matches
    (pandas would match NaN to NaN), so each null is replaced by a
    sentinel no other key carries, then restored."""
    left, right = left.copy(), right.copy()
    for df, on, base in ((left, l_on, -1_000), (right, r_on, -2_000)):
        for c in on:
            null = df[c].isna().to_numpy()
            df[c] = df[c].astype("float64")
            df.loc[null, c] = base - np.flatnonzero(null)
    out = left.merge(right, left_on=l_on, right_on=r_on, how=how)
    for c in [*l_on, *r_on]:
        out.loc[out[c] < 0, c] = np.nan
    return out


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].astype("float64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _join_sides():
    rng = np.random.default_rng(11)

    def keys(lo, hi, n, typ):
        k = rng.integers(lo, hi, n)
        return pa.array(k, typ, mask=rng.random(n) < 0.15)

    left = [pa.table({"a": keys(0, 8, 30, pa.int32()),
                      "b": keys(0, 3, 30, pa.int64()),
                      "x": pa.array(rng.random(30))}) for _ in range(3)]
    right = [pa.table({"c": keys(4, 12, 25, pa.int64()),
                       "d": keys(0, 3, 25, pa.int32()),
                       "y": pa.array(rng.random(25))}) for _ in range(2)]
    return left, right


@pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
@pytest.mark.parametrize("composite", [False, True])
def test_hash_join_matches_pandas_merge(layout, how, composite):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import hash_join
    left, right = _join_sides()
    l_on, r_on = (["a", "b"], ["c", "d"]) if composite else (["a"], ["c"])
    if not composite:
        left = [t.drop_columns(["b"]) for t in left]
        right = [t.drop_columns(["d"]) for t in right]
    got = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                    l_on if composite else "a", r_on if composite else "c",
                    how=how).to_pandas()
    want = _sql_merge(pa.concat_tables(left).to_pandas(),
                      pa.concat_tables(right).to_pandas(), l_on, r_on, how)
    assert len(want) > 0
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


def test_gather_join_matches_pandas_merge(layout):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import (
        gather_join)
    rng = np.random.default_rng(3)
    tgt = [pa.table({"k": pa.array(rng.integers(0, 40, 50), pa.int64(),
                                   mask=rng.random(50) < 0.1),
                     "v": pa.array(rng.random(50))}) for _ in range(3)]
    ids = rng.permutation(30)
    src = [pa.table({"id": pa.array(ids[:15], pa.int32()),
                     "payload": pa.array(ids[:15] * 2.0)}),
           pa.table({"id": pa.array(ids[15:], pa.int32()),
                     "payload": pa.array(ids[15:] * 2.0)})]
    got = gather_join(rd.from_arrow(tgt), rd.from_arrow(src), "k", "id",
                      ["payload"]).to_pandas()
    want = _sql_merge(pa.concat_tables(tgt).to_pandas(),
                      pa.concat_tables(src).to_pandas(), ["k"], ["id"],
                      "inner").drop(columns=["id"])
    assert 0 < len(want) < 150
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


def test_gather_join_raises_on_duplicate_source_key(layout):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import (
        gather_join)
    tgt = [pa.table({"k": pa.array([1, 2], pa.int64())}),
           pa.table({"k": pa.array([1, 3], pa.int64())})]
    src = [pa.table({"id": pa.array([1, 2], pa.int64()),
                     "p": pa.array([1.0, 2.0])}),
           pa.table({"id": pa.array([1], pa.int64()),
                     "p": pa.array([3.0])})]
    with pytest.raises(Exception, match="uniquely valued"):
        gather_join(rd.from_arrow(tgt), rd.from_arrow(src),
                    "k", "id").materialize()


# --- no hand-set bucket count -----------------------------------------------

def test_only_pack_token_sequences_takes_n_buckets():
    """The keyed exchange sets its own block count: no function under
    stages/ or pipelines/ accepts ``n_buckets`` except packing, where the
    bucket decides which documents pack together."""
    import series_correction_project_updated_ray.pipelines as pipelines
    import series_correction_project_updated_ray.stages as stages
    takers = []
    for pkg in (stages, pipelines):
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{pkg.__name__}.{info.name}")
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ \
                        and "n_buckets" in inspect.signature(fn).parameters:
                    takers.append(f"{info.name}.{name}")
    assert takers == ["packing.pack_token_sequences"]


# --- map functions never see an empty batch ---------------------------------

def _no_empty_batch(batch):
    """Identity map that raises on a 0-row batch, in any batch format."""
    if isinstance(batch, dict):
        n = len(next(iter(batch.values()))) if batch else 0
    else:
        n = len(batch)
    if n == 0:
        raise AssertionError(f"a map function saw a 0-row {type(batch)}")
    return batch


def _one_key_over_two_blocks():
    """A keyed exchange whose sort emits one full and one empty partition:
    one key spread over 2 input blocks, each hashed on its own."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages import joins
    blocks = [pa.table({"user_id": pa.array([7, 7], pa.int64()),
                        "value": pa.array([1.0 + i, 2.0 + i])})
              for i in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(joins, "_SORT_BLOCK_ROWS", 1)
        return joins.partition_groups(rd.from_arrow(blocks), "user_id",
                                      _no_empty_batch, "pyarrow") \
            .materialize()


def _filter_keeping_nothing():
    import ray.data as rd
    return rd.from_arrow(pa.table({"v": pa.array([1, 2, 3], pa.int64())})) \
        .filter(lambda row: row["v"] > 10)


def _empty_pandas_frame():
    import ray.data as rd
    return rd.from_pandas(pd.DataFrame({"v": pd.Series([], dtype=np.int64)}))


@pytest.mark.parametrize("batch_size", [None, 1])
@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas", "numpy"])
@pytest.mark.parametrize("source", [_one_key_over_two_blocks,
                                    _filter_keeping_nothing,
                                    _empty_pandas_frame])
def test_map_functions_never_see_an_empty_batch(source, batch_format,
                                                batch_size):
    """The contract every map kernel relies on instead of an empty-input
    guard: Ray skips the map call for a 0-row block, whether it comes from
    an empty sort partition, a filter that keeps nothing or an empty
    source.  Blocks read directly are another matter: the exchange's
    empty partition is a column-less 0-row block, which
    ``nonempty_blocks`` skips."""
    import ray
    from series_correction_project_updated_ray.stages.taskcache import (
        nonempty_blocks)
    ds = source()
    n = ds.count()
    out = ds.map_batches(_no_empty_batch, batch_format=batch_format,
                         batch_size=batch_size)
    assert out.count() == n
    if source is _one_key_over_two_blocks:
        refs = ds.to_arrow_refs()
        blocks = ray.get(list(refs))
        assert any(b.num_rows == 0 and b.num_columns == 0 for b in blocks)
        assert [b.num_rows for b in nonempty_blocks(refs)] == [4]


def test_typed_empty_dataset_has_a_schema_but_no_pandas_columns(
        ray_session, tmp_path):
    """The Ray 2.49 facts that rule out a per-kernel output schema as the
    cure for column-less empty results: a typed 0-row Dataset reports its
    schema, but ``to_pandas()`` builds its frame from ``iter_batches``,
    which yields nothing for 0 rows, so the frame has no columns — from
    ``from_arrow`` and from a 0-row Parquet file alike.  Code that needs
    the columns of a possibly empty Dataset (``broadcast_enrich``) builds
    them from ``schema()``."""
    import pyarrow.parquet as pq
    import ray.data as rd
    empty = pa.schema([("k", pa.int64()), ("name", pa.string())]) \
        .empty_table()
    pq.write_table(empty, tmp_path / "empty.parquet")
    for ds in (rd.from_arrow(empty),
               rd.read_parquet(str(tmp_path / "empty.parquet"))):
        assert ds.schema().base_schema == empty.schema
        df = ds.to_pandas()
        assert len(df) == 0 and list(df.columns) == []
