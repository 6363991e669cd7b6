"""Token-sequence packing for LLM training-data preparation.

Packs variable-length tokenized documents into fixed-length training
sequences (the standard "sequence packing" step before pre-training):
documents are hash-bucketed by ``doc_id`` (deterministic, balanced,
independent of block boundaries), each bucket's token streams are
concatenated in doc_id order and cut every ``seq_len`` tokens, and the
bucket tail is emitted as an explicit remainder row so token
conservation is exact: concat(packed tokens in seq order) ==
concat(sorted input docs' tokens) per bucket — the north rule's
per-row token-array invariant carried through the transform.

Scale shape: ONE keyed shuffle (the bucket groupby); a bucket's group is
|total tokens| / n_buckets, so ``n_buckets`` bounds per-task memory the
same way the flagship's bucketed plan does.  Packing across bucket
boundaries would need sequential state for ~seq_len tokens of benefit
per bucket — the per-bucket remainder is the standard trade.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .rollup import combine, sums_of
from ..functions.hashing import stable_hash_array


class PackGroup:
    """map_groups kernel over one bucket: doc_id-ordered concat → cut."""

    def __init__(self, seq_len: int, tok_col: str = "tokens"):
        self.seq_len, self.tok_col = seq_len, tok_col
        self.__name__ = type(self).__name__

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))
        toks = t[self.tok_col]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = np.asarray(toks.flatten(), dtype=np.int32)
        if len(flat) >= np.iinfo(np.int32).max:
            raise ValueError(
                f"bucket holds {len(flat)} tokens, past the int32 list-"
                "offset limit; raise n_buckets (pack_token_sequences "
                "derives a safe count when n_buckets=None)")
        L = self.seq_len
        n_full = len(flat) // L
        rem = len(flat) - n_full * L
        # a bucket whose docs are all zero-token still gets one (empty)
        # remainder row so it stays visible to packing_summary — the SQL
        # oracle emits every bucket present in the input
        n_rows = max(n_full + (1 if rem else 0), 1 if len(t) else 0)
        offsets = np.minimum(np.arange(n_rows + 1, dtype=np.int64) * L,
                             len(flat))
        seqs = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                        pa.array(flat, pa.int32()))
        n_tok = np.full(n_rows, L, dtype=np.int32)
        if rem or not n_full:
            n_tok[-1] = rem
        bucket = t["bucket"][0].as_py() if len(t) else 0
        return pa.table({
            "bucket": pa.array(np.full(n_rows, bucket, np.int64)),
            "seq_idx": pa.array(np.arange(n_rows, dtype=np.int64)),
            "tokens": seqs,
            "n_tok": pa.array(n_tok),
            "is_full": pa.array(n_tok == L),
        })


def pack_token_sequences(docs, seq_len: int, *, n_buckets: int | None = 64,
                         id_col: str = "doc_id", tok_col: str = "tokens"):
    """Dataset[(doc_id, tokens)] → Dataset[(bucket, seq_idx, tokens,
    n_tok, is_full)] of fixed-length packed sequences + per-bucket
    remainder rows.

    ``n_buckets=None`` derives a count from the input's estimated size so
    each bucket stays well under the int32 list-offset limit (~2^31
    tokens) that caps a single PackGroup task."""
    if n_buckets is None:
        from .joins import _estimate_size_bytes
        est = _estimate_size_bytes(docs) or 0
        # tokens are int32: bound each bucket near 2^28 tokens (~1 GiB)
        n_buckets = max(64, -(-est // (4 * (1 << 28))))
    def _bucketize(t: pa.Table) -> pa.Table:
        h = stable_hash_array(t[id_col].to_pandas())
        b = (h % np.uint64(n_buckets)).astype(np.int64)
        return pa.table({
            "bucket": pa.array(b),
            "doc_id": t[id_col],
            tok_col: t[tok_col],
        })

    return docs.map_batches(_bucketize, batch_format="pyarrow") \
        .groupby("bucket").map_groups(PackGroup(seq_len, tok_col),
                                      batch_format="pyarrow")


def packing_summary(packed):
    """Per-bucket packing accounting: (bucket, n_full_seqs, rem_tokens,
    total_tokens) — SQL-oracle-checkable because the bucket hash and the
    per-doc token counts are both replicable in DuckDB."""
    def _partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        full = pc.cast(t["is_full"], pa.int64())
        n_tok64 = pc.cast(t["n_tok"], pa.int64())
        rem = pc.multiply(pc.subtract(pa.scalar(1, pa.int64()), full),
                          n_tok64)
        return pa.table({"bucket": t["bucket"], "full": full,
                         "rem": rem, "n_tok": n_tok64})

    return combine(packed.map_batches(_partial, batch_format="pyarrow"),
                   ["bucket"], [("full", "sum", "n_full_seqs"),
                                ("rem", "max", "rem_tokens"),
                                ("n_tok", "sum", "total_tokens")])


def token_vocab_stats(seqs, *, tok_col: str = "tokens"):
    """Vocabulary statistics over a sequences table: per token id, the
    corpus term frequency (``tf``) and document frequency (``df``) — the
    vocab-coverage report every tokenizer/pre-training run needs.

    Scale shape: per-BLOCK partial counts read zero-copy from the Arrow
    list buffers (one np.unique over the block's flat values for tf, one
    over per-row uniques for df), then ONE groupby-sum over partials —
    the shuffle ships at most |block vocab| rows per block, never a row
    per token."""

    def _partial(t: pa.Table) -> pa.Table:
        if tok_col not in t.column_names:  # column-less empty block
            e = np.empty(0, np.int64)
            return pa.table({"tid": pa.array(e), "tf": pa.array(e),
                             "df": pa.array(e)})
        col = t[tok_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = col.values.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy().astype(np.int64)
        # a SLICED ListArray's values buffer extends beyond [first, last)
        # offset — trim and rebase before any whole-buffer scan
        vals = vals[offs[0]:offs[-1]]
        offs = offs - offs[0]
        u_tf, c_tf = np.unique(vals, return_counts=True)
        # df: count each (row, tid) once — sort values within rows and
        # drop within-row repeats via the (row boundary | value change)
        # scan instead of per-row np.unique calls
        row = np.repeat(np.arange(len(offs) - 1),
                        np.diff(offs).astype(np.int64))
        order = np.lexsort((vals, row))
        rv, vv = row[order], vals[order]
        keep = np.r_[True, (rv[1:] != rv[:-1]) | (vv[1:] != vv[:-1])] \
            if len(vv) else np.array([], dtype=bool)
        u_df, c_df = np.unique(vv[keep], return_counts=True)
        tf_map = pd.Series(c_tf, index=u_tf)
        df_map = pd.Series(c_df, index=u_df).reindex(u_tf, fill_value=0)
        return pa.table({"tid": pa.array(u_tf),
                         "tf": pa.array(tf_map.to_numpy(np.int64)),
                         "df": pa.array(df_map.to_numpy(np.int64))})

    return combine(seqs.map_batches(_partial, batch_format="pyarrow"),
                   ["tid"], sums_of("tf", "df"))


def token_bigrams(seqs, *, tok_col: str = "tokens", min_n: int = 2,
                  vocab: int | None = None):
    """Token-transition counts over a sequences table: (tid_a, tid_b, n)
    for consecutive in-document token pairs with n ≥ ``min_n`` — the
    bigram statistics behind repetition analysis and simple LM scoring.

    Per-block partials encode each pair as one int64
    (``a * vocab + b``), count with np.unique, and ship (pair, n) rows
    into ONE groupby-sum; ``min_n`` bounds the output (singleton pairs
    dominate any natural corpus)."""
    from ..functions.hashing import TOKEN_VOCAB
    vocab = int(vocab or TOKEN_VOCAB)

    def _partial(t: pa.Table) -> pa.Table:
        if tok_col not in t.column_names:  # column-less empty block
            e = np.empty(0, np.int64)
            return pa.table({"pair": pa.array(e), "n": pa.array(e)})
        col = t[tok_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = col.values.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy().astype(np.int64)
        vals = vals[offs[0]:offs[-1]]  # sliced-ListArray trim + rebase
        offs = offs - offs[0]
        n = len(vals)
        if n < 2:
            e = np.empty(0, np.int64)
            return pa.table({"pair": pa.array(e), "n": pa.array(e)})
        a, b = vals[:-1], vals[1:]
        # mask pairs that straddle a document boundary
        cross = np.zeros(n - 1, dtype=bool)
        inner = offs[1:-1]
        cross[inner[(inner > 0) & (inner < n)] - 1] = True
        enc = a[~cross] * np.int64(vocab) + b[~cross]
        u, c = np.unique(enc, return_counts=True)
        return pa.table({"pair": pa.array(u),
                         "n": pa.array(c.astype(np.int64))})

    tot = combine(seqs.map_batches(_partial, batch_format="pyarrow"),
                  ["pair"], sums_of("n"))

    def _decode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.filter(pc.greater_equal(t["n"], pa.scalar(min_n)))
        pair = t["pair"].to_numpy(zero_copy_only=False)
        return pa.table({"tid_a": pa.array(pair // vocab),
                         "tid_b": pa.array(pair % vocab),
                         "n": t["n"]})

    return tot.map_batches(_decode, batch_format="pyarrow")
