"""Sequence packing + contamination scan."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from series_correction_project_updated_ray.functions.hashing import (
    stable_hash_array)
from series_correction_project_updated_ray.stages.packing import (
    pack_token_sequences, packing_summary)


def _toy_docs(n_docs=60, seed=3):
    rng = np.random.default_rng(seed)
    ids = np.arange(n_docs, dtype=np.int64)
    lengths = rng.integers(0, 40, n_docs)
    toks = [rng.integers(0, 50257, L).astype(np.int32) for L in lengths]
    offsets = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    flat = (np.concatenate(toks) if n_docs else np.empty(0, np.int32))
    tbl = pa.table({
        "doc_id": pa.array(ids),
        "tokens": pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                           pa.array(flat, pa.int32())),
    })
    return tbl, {int(i): t for i, t in zip(ids, toks)}


def test_pack_token_conservation(ray_session):
    """Per bucket: concat(packed rows in seq order) == concat(doc_id-sorted
    input docs' tokens) — the north-rule token-array invariant."""
    tbl, by_id = _toy_docs()
    seq_len = 16
    n_buckets = 4
    packed = pack_token_sequences(rd.from_arrow(tbl), seq_len,
                                  n_buckets=n_buckets).to_pandas()
    ids = sorted(by_id)
    bucket_of = dict(zip(ids, (stable_hash_array(pd.Series(ids))
                               % np.uint64(n_buckets)).astype(np.int64)))
    for b in range(n_buckets):
        want = np.concatenate(
            [by_id[i] for i in ids if bucket_of[i] == b]
            or [np.empty(0, np.int32)])
        got_rows = packed[packed["bucket"] == b].sort_values("seq_idx")
        got = (np.concatenate([np.asarray(t, np.int32)
                               for t in got_rows["tokens"]])
               if len(got_rows) else np.empty(0, np.int32))
        assert np.array_equal(got, want), f"bucket {b} token stream differs"
        # every row but the last is exactly seq_len and flagged full
        if len(got_rows):
            n_tok = got_rows["n_tok"].to_numpy()
            assert (n_tok[:-1] == seq_len).all()
            assert (got_rows["is_full"].to_numpy()
                    == (n_tok == seq_len)).all()
            assert (got_rows["seq_idx"].to_numpy()
                    == np.arange(len(got_rows))).all()


def test_pack_deterministic_across_block_splits(ray_session):
    """Identical output regardless of how the input is sliced into blocks
    (the bucket groupby, not block boundaries, defines packing units)."""
    tbl, _ = _toy_docs(n_docs=50, seed=11)
    a = pack_token_sequences(rd.from_arrow(tbl), 8, n_buckets=3).to_pandas()
    many = rd.from_arrow(tbl).repartition(7)
    b = pack_token_sequences(many, 8, n_buckets=3).to_pandas()

    def canon(df):
        df = df.sort_values(["bucket", "seq_idx"]).reset_index(drop=True)
        df["tokens"] = df["tokens"].map(lambda t: tuple(np.asarray(t)))
        return df
    pd.testing.assert_frame_equal(canon(a), canon(b))


def test_packing_summary_matches_rows(ray_session):
    tbl, by_id = _toy_docs(n_docs=80, seed=5)
    packed = pack_token_sequences(rd.from_arrow(tbl), 32, n_buckets=4)
    summ = packing_summary(packed).to_pandas().set_index("bucket")
    total_in = sum(len(t) for t in by_id.values())
    assert int(summ["total_tokens"].sum()) == total_in
    assert ((summ["n_full_seqs"] * 32 + summ["rem_tokens"])
            == summ["total_tokens"]).all()


def test_contamination_scan_matches_pandas(ray_session):
    from series_correction_project_updated_ray.stages.textstage import (
        contamination_scan)
    rng = np.random.default_rng(7)
    base = ["the quick brown fox jumps over the lazy dog " * 3,
            "pack my box with five dozen liquor jugs now then " * 3,
            "sphinx of black quartz judge my vow swiftly here " * 3]
    texts = [base[i % 3] + str(rng.integers(1000)) for i in range(40)]
    df = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64),
                       "text": texts})
    probes = [texts[0][10:34], texts[1][10:34], "zzz-not-present"]
    out = contamination_scan(rd.from_pandas(df), probes=probes) \
        .to_pandas().set_index("doc_id")["n_hits"]
    for i, t in enumerate(texts):
        want = sum(p in t for p in probes)
        assert out.get(i, 0) == want


def test_pack_zero_token_bucket_stays_visible(ray_session):
    """A bucket whose docs are ALL zero-token must still surface in the
    packed output (one empty remainder row) and in packing_summary with
    (0, 0, 0) — the SQL oracle emits every bucket present in the input."""
    n_buckets = 4
    ids = np.arange(200, dtype=np.int64)
    buckets = (stable_hash_array(pd.Series(ids))
               % np.uint64(n_buckets)).astype(np.int64)
    # give tokens only to docs OUTSIDE the emptied bucket
    empty_b = int(buckets[0])
    lengths = np.where(buckets == empty_b, 0, 7)
    offsets = np.zeros(len(ids) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    flat = np.arange(offsets[-1], dtype=np.int32)
    tbl = pa.table({
        "doc_id": pa.array(ids),
        "tokens": pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                           pa.array(flat, pa.int32())),
    })
    packed = pack_token_sequences(rd.from_arrow(tbl), 16,
                                  n_buckets=n_buckets)
    summ = packing_summary(packed).to_pandas().set_index("bucket")
    assert set(summ.index) == set(np.unique(buckets))
    row = summ.loc[empty_b]
    assert (int(row["n_full_seqs"]), int(row["rem_tokens"]),
            int(row["total_tokens"])) == (0, 0, 0)
    # token conservation still exact for the non-empty buckets
    assert int(summ["total_tokens"].sum()) == int(offsets[-1])


def test_distributed_distinct_matches_pandas(ray_session):
    from series_correction_project_updated_ray.stages.joins import (
        distributed_distinct)
    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "a": rng.integers(0, 5, 300),
        "b": rng.choice(["x", "y", "z"], 300),
    })
    got = distributed_distinct(rd.from_pandas(df), ["a", "b"]) \
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    want = df.drop_duplicates().sort_values(["a", "b"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_token_vocab_stats_and_bigrams(ray_session):
    """tf/df and bigram counts equal a brute-force pass over the same
    token lists; sliced ListArray blocks (values buffer wider than the
    slice) must not leak foreign tokens into the counts."""
    from collections import Counter

    import pyarrow as pa
    import ray.data as rd

    from series_correction_project_updated_ray.stages.packing import (
        token_bigrams, token_vocab_stats)

    rng = np.random.default_rng(11)
    lists = [rng.integers(0, 9, rng.integers(0, 12)).tolist()
             for _ in range(60)]
    tf = Counter(t for l in lists for t in l)
    df = Counter(t for l in lists for t in set(l))
    bg = Counter((a, b) for l in lists for a, b in zip(l, l[1:]))

    # build a SLICED list array block: the full array then .slice(10, 40)
    full = pa.array(lists, type=pa.list_(pa.int32()))
    sliced = full.slice(10, 40)
    part = sliced.values.to_numpy(zero_copy_only=False)
    assert len(part) != sum(len(l) for l in lists[10:50])  # really sliced

    ds = rd.from_arrow(pa.table({"tokens": full}))
    got = token_vocab_stats(ds).to_pandas().set_index("tid")
    assert {int(k): int(v) for k, v in got["tf"].items()} == dict(tf)
    assert {int(k): int(v) for k, v in got["df"].items()} == dict(df)

    got_b = token_bigrams(ds, min_n=1, vocab=9).to_pandas()
    got_map = {(int(r.tid_a), int(r.tid_b)): int(r.n)
               for r in got_b.itertuples()}
    assert got_map == dict(bg)

    # sliced block path: counts must cover EXACTLY lists[10:50]
    ds2 = rd.from_arrow(pa.table({"tokens": sliced}))
    tf2 = Counter(t for l in lists[10:50] for t in l)
    got2 = token_vocab_stats(ds2).to_pandas().set_index("tid")
    assert {int(k): int(v) for k, v in got2["tf"].items()} == dict(tf2)
    bg2 = Counter((a, b) for l in lists[10:50] for a, b in zip(l, l[1:]))
    got2_b = token_bigrams(ds2, min_n=1, vocab=9).to_pandas()
    got2_map = {(int(r.tid_a), int(r.tid_b)): int(r.n)
                for r in got2_b.itertuples()}
    assert got2_map == dict(bg2)


def test_estimate_size_bytes_reads_plan_metadata(ray_session):
    """A small in-memory dataset has a known size without executing its
    plan — what ``pack_token_sequences(n_buckets=None)`` sizes from."""
    from series_correction_project_updated_ray.stages.packing import (
        _estimate_size_bytes)
    ds = rd.from_pandas(pd.DataFrame({"user_id": range(100)}))
    assert _estimate_size_bytes(ds) > 0
