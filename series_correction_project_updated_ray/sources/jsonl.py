"""JSONL document corpus source/sink.

JSON-Lines is the interchange format most LLM training corpora arrive
in (one document object per line).  These wrappers put a STABLE schema
contract on top of Ray Data's native reader so every downstream
operator (dedup, text analysis, tokenization, packing) sees the same
``documents`` shape regardless of which corpus produced the file:

* required: ``doc_id`` (string — coerced), ``text`` (string)
* optional passthrough: ``source`` (string, default ``"jsonl"``)
* everything else is dropped unless listed in ``keep``

Reading stays streaming (Ray's JSON datasource reads file-parallel);
the normalization is one zero-copy-in map_batches.
"""

from __future__ import annotations

import pyarrow as pa


def read_documents_jsonl(paths, *, id_col: str = "doc_id",
                         text_col: str = "text",
                         source_col: str = "source",
                         default_source: str = "jsonl",
                         keep: tuple = ()):
    """JSONL file(s)/dir → Dataset with the canonical documents schema
    (doc_id:string, text:string, source:string, *keep)."""
    import ray.data as rd

    ds = rd.read_json(paths)

    def _norm(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        names = set(t.column_names)
        if id_col not in names:  # column-less empty block or bad corpus
            return pa.table({
                "doc_id": pa.array([], pa.string()),
                "text": pa.array([], pa.string()),
                "source": pa.array([], pa.string()),
                **{k: pa.array([], pa.string()) for k in keep}})
        ids = t[id_col]
        if not pa.types.is_string(ids.type):
            ids = pc.cast(ids, pa.string())
        text = t[text_col] if text_col in names \
            else pa.nulls(len(t), pa.string())
        if not pa.types.is_string(text.type):
            text = pc.cast(text, pa.string())
        if source_col in names:
            src = pc.fill_null(pc.cast(t[source_col], pa.string()),
                               default_source)
        else:
            src = pa.array([default_source] * len(t), pa.string())
        cols = {"doc_id": ids, "text": text, "source": src}
        for k in keep:
            cols[k] = t[k] if k in names else pa.nulls(len(t))
        return pa.table(cols)

    return ds.map_batches(_norm, batch_format="pyarrow")


def write_documents_jsonl(docs, out_dir: str):
    """Dataset → JSONL directory (one file per block — the resumable
    partitioned layout, like every other sink here)."""
    docs.write_json(out_dir)
    return out_dir
