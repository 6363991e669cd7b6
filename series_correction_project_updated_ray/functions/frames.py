"""Arrow blocks from pandas frames and parquet files, without schema
metadata.

``pa.Table.from_pandas`` attaches a ``pandas`` metadata dict to the
schema, and files written from pandas carry the same dict.  A schema
with metadata is unhashable (pyarrow 16), so Ray's block concatenation
logs "Failed to hash the schemas" and takes its full ``unify_schemas``
path for every batch of such blocks.  Every Arrow block the package
builds from pandas, and every table it reads, goes through here.
"""

from __future__ import annotations

import pyarrow as pa


def arrow_table(df, schema: pa.Schema | None = None) -> pa.Table:
    """``df`` as an Arrow table (index dropped, ``schema`` applied when
    given) with no schema metadata."""
    return pa.Table.from_pandas(df, schema=schema, preserve_index=False) \
        .replace_schema_metadata()


def read_parquet(path: str, columns: list[str] | None = None, **kwargs):
    """``ray.data.read_parquet(path, columns=columns, **kwargs)`` of one
    file, read with the file's schema of ``columns`` less its metadata."""
    import pyarrow.parquet as pq
    import ray.data
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema,
                                 **kwargs)
