"""Arrow blocks built from pandas, and tables read from files written by
pandas, carry no schema metadata: a schema with pandas' metadata dict is
unhashable, and Ray then logs "Failed to hash the schemas" and unifies
the schemas the slow way.  The guard keeps a bare
``pa.Table.from_pandas(`` out of the package."""

import ast
import pathlib

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = pathlib.Path(__file__).resolve().parents[1]
PKG = ROOT / "series_correction_project_updated_ray"


def test_arrow_table_schema_is_hashable():
    from series_correction_project_updated_ray.functions.frames import (
        arrow_table)
    df = pd.DataFrame({"k": ["a", None], "v": [1, 2]}, index=[5, 7])
    assert pa.Table.from_pandas(df).schema.metadata  # what it drops
    t = arrow_table(df, pa.schema([("k", pa.string()), ("v", pa.int32())]))
    assert t.schema.metadata is None and t.column_names == ["k", "v"]
    assert t["v"].type == pa.int32()
    hash(t.schema)


def test_read_parquet_drops_file_metadata(ray_session, tmp_path):
    import ray

    from series_correction_project_updated_ray.functions.frames import (
        read_parquet)
    p = str(tmp_path / "t.parquet")
    pd.DataFrame({"k": ["a", "b", "c"], "v": [1.0, 2.0, 3.0]}).to_parquet(p)
    assert pq.read_schema(p).metadata
    ds = read_parquet(p, columns=["v"])
    blocks = ray.get(list(ds.to_arrow_refs()))
    assert [b.schema.metadata for b in blocks] == [None] * len(blocks)
    assert [v for b in blocks for v in b["v"].to_pylist()] == [1.0, 2.0, 3.0]
    assert read_parquet(p, columns=["v", "k"]).take_all() == [
        {"v": 1.0, "k": "a"}, {"v": 2.0, "k": "b"}, {"v": 3.0, "k": "c"}]


def _bare_from_pandas(path: pathlib.Path) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "from_pandas"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "Table"]


def test_no_bare_table_from_pandas():
    """Every Arrow table built from pandas goes through
    ``functions.frames.arrow_table``."""
    files = [*PKG.rglob("*.py"), ROOT / "__ray_entry__.py"]
    hits = {str(f.relative_to(ROOT)): lines for f in files
            if f.name != "frames.py" and (lines := _bare_from_pandas(f))}
    assert not hits, hits
