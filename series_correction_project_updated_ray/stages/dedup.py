"""Deduplication operators over the documents table.

Rebuild-only components (the reference has no record-level dedup —
SURVEY.md §2.8) required by the 100 TB training-data mandate:

* exact: content hash → hash-partitioned groupby → keep min doc_id.
  The only shuffle moves (hash, doc_id) pairs, never document text.
* MinHash + LSH: shingle → 128-perm minhash → banded buckets →
  per-bucket candidate pairs → exact-Jaccard verify → min-label
  connected components.
* SimHash: 64-bit signatures, banded hamming buckets, verified pairs.
* n-gram Jaccard: exact verification kernel shared by both.
* embedding cosine near-dup: random-hyperplane LSH buckets → in-bucket
  exact cosine verify.

All candidate generation is bucket-local (no all-pairs); only candidate
PAIRS (tiny) ever reach the driver for the final connected-components
label pass, which is logarithmic-round min-label propagation when run
distributed (kept driver-side here because verified-pair sets are
orders of magnitude smaller than the corpus).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .joins import partition_groups
from .rollup import combine, sums_of
from ..functions.hashing import (minhash_signatures, simhash64,
                                 stable_hash_array)
from ..functions.text import char_ngram_shingles


# --- exact dedup -----------------------------------------------------------

def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    h = stable_hash_array(batch[text_col]).astype(np.int64)
    return batch.append_column("content_hash", pa.array(h))


def exact_dedup_survivors(docs, text_col: str = "text",
                          id_col: str = "doc_id"):
    """Dataset of surviving ids: min(id) per distinct content.

    Identical result to grouping by the full text (modulo 64-bit hash
    collisions, ~1e-11 at 1e4 docs), but the shuffle ships 16 bytes/row.
    """
    hashed = docs.map_batches(add_content_hash, batch_format="pyarrow",
                              fn_kwargs={"text_col": text_col}) \
                 .select_columns(["content_hash", id_col])
    return combine(hashed, ["content_hash"], [(id_col, "min", id_col)]) \
        .select_columns([id_col])


# --- candidate-pair machinery ---------------------------------------------

class MinHashBands:
    """map_batches: doc → (band_id, band_hash, doc_id) rows (flat_map-like).

    Stateful actor stage: the permutation constants live in __init__,
    generated from a fixed seed (identical in every actor).
    """

    def __init__(self, text_col="text", id_col="doc_id", num_perm=128,
                 bands=16, ngram=5, seed=1234):
        assert num_perm % bands == 0
        self.text_col, self.id_col = text_col, id_col
        self.num_perm, self.bands, self.ngram, self.seed = num_perm, bands, ngram, seed
        self.rows_per_band = num_perm // bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas()
        ids = batch[self.id_col].to_pandas().to_numpy()
        shingles = [char_ngram_shingles(t or "", self.ngram) for t in texts]
        sigs = minhash_signatures(shingles, self.num_perm, self.seed)
        r = self.rows_per_band
        band_ids, band_hashes, doc_ids = [], [], []
        with np.errstate(over="ignore"):  # uint64 wraparound digest
            for b in range(self.bands):
                seg = sigs[:, b * r:(b + 1) * r]
                # stable 64-bit digest of each band segment
                bh = seg[:, 0].copy()
                for j in range(1, r):
                    bh = bh * np.uint64(1099511628211) + seg[:, j]
                band_ids.append(np.full(len(ids), b, dtype=np.int32))
                band_hashes.append(bh.astype(np.int64))
                doc_ids.append(ids)
        return pa.table({
            "band_id": pa.array(np.concatenate(band_ids)),
            "band_hash": pa.array(np.concatenate(band_hashes)),
            self.id_col: pa.array(np.concatenate(doc_ids)),
        })


def _partition_pairs(g: pd.DataFrame, id_col: str,
                     max_run: int | None = None,
                     threshold: float | None = None) -> pd.DataFrame:
    """Pairs for EVERY bucket co-located in one partition group: lexsort
    by (band_id, band_hash), run-length scan, emit triu pairs only for
    multi-member runs (vectorized per run; runs are overwhelmingly
    singletons at scale).  ``max_run`` skips buckets with more members —
    a hot-bucket bound: an m-member bucket emits m²/2 pairs, so one
    ubiquitous key would otherwise dominate the pair set.

    When ``threshold`` is given AND the rows carry set-size / prefix-
    position metadata (``__n`` / ``__pos`` from :class:`ShingleRows`),
    two recall-EXACT PPJoin filters (Xiao et al. 2008) prune pairs that
    provably cannot reach Jaccard ``t`` — essential on low-entropy
    corpora where every document shares some prefix shingle and the
    bucket pair count would otherwise approach all-pairs:

    * length filter: J(x,y) ≤ min(n_x,n_y)/max(n_x,n_y), so prune when
      min < t·max.
    * positional filter: a shared shingle at full-sorted-order positions
      (p_x, p_y) bounds the overlap by
      ``1 + min(p_x,p_y) + min(n_x-p_x-1, n_y-p_y-1)``; J ≥ t needs
      overlap ≥ t·(n_x+n_y)/(1+t).  A qualifying pair is re-emitted by
      EVERY shared prefix shingle, so pruning one occurrence never loses
      the pair (some occurrence passes).
    """
    ids = g[id_col].to_numpy()
    bi = g["band_id"].to_numpy()
    bh = g["band_hash"].to_numpy()
    order = np.lexsort((ids, bh, bi))
    bi, bh, ids = bi[order], bh[order], ids[order]
    filt = threshold is not None and "__n" in g and "__pos" in g
    if filt:
        nn = g["__n"].to_numpy()[order].astype(np.int64)
        pp = g["__pos"].to_numpy()[order].astype(np.int64)
    change = np.ones(len(ids), dtype=bool)
    if len(ids) > 1:
        change[1:] = (bi[1:] != bi[:-1]) | (bh[1:] != bh[:-1])
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], len(ids))
    keep = ends - starts >= 2
    if max_run is not None:
        keep &= ends - starts <= max_run
    a_out, b_out = [], []
    for s, e in zip(starts[keep], ends[keep]):
        if filt:
            # size-ordered window emission: with run members ascending in
            # set size, the length filter's survivors of member i are a
            # CONTIGUOUS range (i, hi_i) — build exactly those pairs
            # instead of materializing the full m²/2 triu and filtering
            # (a 5000-member hot run would otherwise allocate 12.5M-pair
            # index arrays to keep a fraction)
            m = e - s
            sub = np.argsort(nn[s:e], kind="stable")
            ns = nn[s:e][sub]
            ps = pp[s:e][sub]
            rids = ids[s:e][sub]
            iidx = np.arange(m)
            hi = np.searchsorted(ns, ns / threshold + 1e-9, side="right")
            counts = hi - iidx - 1
            counts[counts < 0] = 0
            total = int(counts.sum())
            if total == 0:
                continue
            a = np.repeat(iidx, counts)
            csum = np.concatenate([[0], np.cumsum(counts)])
            b = np.arange(total) - csum[a] + a + 1
            na, nb = ns[a], ns[b]
            pa_, pb_ = ps[a], ps[b]
            ub = 1 + np.minimum(pa_, pb_) \
                + np.minimum(na - pa_ - 1, nb - pb_ - 1)
            need = threshold / (1.0 + threshold) * (na + nb)
            ok = ub >= need - 1e-9  # positional filter
            if not ok.all():
                a, b = a[ok], b[ok]
            # canonical unordered-pair form (id_a < id_b): the size sort
            # broke the id order the triu path emits naturally
            ia, ib = rids[a], rids[b]
            flip = ia > ib
            if flip.any():
                ia, ib = np.where(flip, ib, ia), np.where(flip, ia, ib)
            a_out.append(ia)
            b_out.append(ib)
        else:
            a, b = np.triu_indices(e - s, k=1)
            a_out.append(ids[s + a])
            b_out.append(ids[s + b])
    if not a_out:
        empty = ids[:0]
        return pd.DataFrame({"id_a": empty, "id_b": empty})
    return pd.DataFrame({"id_a": np.concatenate(a_out),
                         "id_b": np.concatenate(b_out)}).drop_duplicates()


def candidate_pairs(band_rows, id_col: str = "doc_id", *,
                    max_run: int | None = None,
                    threshold: float | None = None):
    """groupby LSH bucket → unordered candidate pairs (deduplicated).

    One ``partition_groups`` on (band_id, band_hash) co-locates each bucket
    and runs the pair kernel once per sorted block, not per bucket: at
    web scale nearly every bucket is a singleton, and per-bucket
    kernel calls pay |buckets| Python calls on top of the sort
    (measured 9.2 s → 1.5 s at 80 k band rows).  The same pair can arise
    from different bands in different blocks, so one ``combine`` distinct
    over (id_a, id_b) dedups across blocks."""
    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        return _partition_pairs(g, id_col, max_run, threshold)
    _pairs.__name__ = "_partition_pairs"

    pairs = partition_groups(band_rows, ["band_id", "band_hash"], _pairs)
    return combine(pairs, ["id_a", "id_b"], [])


_MIN_LABEL = [("label", "min", "label")]


def connected_components_distributed(pairs, *, max_rounds: int = 16,
                                     n_blocks: int = 8):
    """Min-label propagation over a verified-pair Dataset — the scale path
    when the candidate-pair set itself exceeds driver memory.

    Each round: propagate the current min-label across edges plus one
    pointer-jumping step, stop when no label changes.  Rounds needed =
    O(log(diameter)); every round is a bounded number of groupby shuffles
    of (node, label) pairs.  ``n_blocks`` pins the label dataset's block
    count between rounds — without it every union+aggregate accumulates
    blocks and round latency grows without bound (size n_blocks so one
    block of (int64, int64) pairs is ~100 MB at real scale).  Returns
    pandas (doc_id, cluster_id) like the driver version.
    """
    import ray.data as rd

    edges = pairs.map_batches(
        lambda t: pa.table({
            "src": pa.concat_arrays([t["id_a"].combine_chunks(),
                                     t["id_b"].combine_chunks()]),
            "dst": pa.concat_arrays([t["id_b"].combine_chunks(),
                                     t["id_a"].combine_chunks()]),
        }), batch_format="pyarrow").repartition(n_blocks).materialize()
    if edges.count() == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "cluster_id": pd.Series([], dtype=np.int64)})
    # labels: node -> current min label (init: own id)
    labels = combine(edges.map_batches(
        lambda t: pa.table({"node": t["src"], "label": t["src"]}),
        batch_format="pyarrow"), ["node"], _MIN_LABEL) \
        .repartition(n_blocks).materialize()

    from .joins import hash_join

    def _pairs(name_a, name_b):
        # cast back to int64 every round: the join's null padding round-trips
        # through pandas, which would otherwise float-ify the key column and
        # break hash matching against the int64 edge endpoints
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": t[name_a].combine_chunks().cast(pa.int64()),
                "label": t[name_b].combine_chunks().cast(pa.int64())})
        return fn

    prev_sum = int(labels.sum("label"))
    converged = False
    for _ in range(max_rounds):
        # (1) edge propagation: edge (src,dst) carries src's label to dst
        carried = hash_join(edges, labels, "src", "node",
                            how="inner").map_batches(
            _pairs("dst", "label"), batch_format="pyarrow")
        new_labels = combine(carried.union(labels), ["node"], _MIN_LABEL) \
            .repartition(n_blocks).materialize()
        # (2) pointer jumping: label[x] <- label[label[x]] — halves the
        # effective path length each round, so convergence is O(log D)
        # instead of O(D) hops for chain-shaped components
        jumped = hash_join(
            new_labels.map_batches(_pairs("node", "label"),
                                   batch_format="pyarrow"),
            new_labels, "label", "node", how="inner",
            suffixes=("_x", "_y")).map_batches(
            lambda t: pa.table({
                "node": t["node_x"].combine_chunks().cast(pa.int64()),
                "label": t["label_y"].combine_chunks().cast(pa.int64())}),
            batch_format="pyarrow")
        new_labels = combine(jumped.union(new_labels), ["node"],
                             _MIN_LABEL).repartition(n_blocks).materialize()
        # labels are monotonically nonincreasing: an unchanged total sum
        # means a fixed point
        new_sum = int(new_labels.sum("label"))
        labels = new_labels
        if new_sum == prev_sum:
            converged = True
            break
        prev_sum = new_sum
    if not converged:
        # silently-wrong labels would break the advertised equivalence
        # with the driver union-find — fail loudly instead (with pointer
        # jumping, max_rounds=16 covers component diameters up to ~2^16)
        raise RuntimeError(
            f"connected_components_distributed did not converge in "
            f"{max_rounds} rounds — raise max_rounds (component diameter "
            f"exceeds 2^{max_rounds})")
    out = labels.to_pandas().rename(columns={"node": "doc_id",
                                             "label": "cluster_id"})
    out = out.astype({"doc_id": np.int64, "cluster_id": np.int64})
    return out.sort_values("doc_id").reset_index(drop=True)


def connected_components(pairs_df: pd.DataFrame) -> pd.DataFrame:
    """Union-find over verified pairs → (doc_id, cluster_id=min member)."""
    if len(pairs_df) == 0:
        # a no-duplicates corpus yields ZERO pair rows, and Ray drops
        # all-empty blocks — the frame may arrive without columns at all
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "cluster_id": pd.Series([], dtype=np.int64)})
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs_df["id_a"], pairs_df["id_b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo
    rows = sorted((x, find(x)) for x in parent)
    return pd.DataFrame(rows, columns=["doc_id", "cluster_id"])


def doc_shingle_arrays(docs, *, text_col="text", id_col="doc_id", ngram=5):
    """Dataset of (id, ``__sh`` list<int64>): each document's full sorted
    unique shingle-hash set, computed ONCE — pair verification then ships
    these arrays (≈ the text's own size) instead of re-shingling text per
    pair in Python."""
    def _arrays(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        shs = [char_ngram_shingles(t or "", ngram).astype(np.int64)
               for t in texts]
        return pa.table({
            id_col: batch[id_col],
            "__sh": pa.array(shs, pa.list_(pa.int64())),
        })
    return docs.map_batches(_arrays, batch_format="pyarrow")


def join_pair_shingles(cands, docs, *, text_col="text", id_col="doc_id",
                       ngram=5, arrays=None):
    """Co-locate each candidate pair with its two pre-computed shingle
    arrays (``__sh_a`` / ``__sh_b``) via two Arrow-native gather joins
    (:func:`~.joins.gather_join` — the list payloads never round-trip
    through pandas) — the verify downstream is a pure sorted-array
    intersection, no re-shingling.  Pass ``arrays`` (a materialized (id, __sh) dataset,
    e.g. the pair-involved subset) to reuse already-computed shingles
    instead of re-shingling the corpus."""
    from .joins import gather_join

    if arrays is None:
        arrays = doc_shingle_arrays(docs, text_col=text_col,
                                    id_col=id_col, ngram=ngram) \
            .materialize()
    with_a = gather_join(cands, arrays, "id_a", id_col, ["__sh"],
                         attach_as={"__sh": "__sh_a"})
    return gather_join(with_a, arrays, "id_b", id_col, ["__sh"],
                       attach_as={"__sh": "__sh_b"})


def _popcount_rows(v: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D uint64 array (SWAR bit-twiddle — ~2.4×
    faster than a 256-entry byte-LUT gather at millions of rows)."""
    v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
    v = (v & np.uint64(0x3333333333333333)) \
        + ((v >> np.uint64(2)) & np.uint64(0x3333333333333333))
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        v = (v * np.uint64(0x0101010101010101)) >> np.uint64(56)
    return v.sum(axis=1, dtype=np.int64)


class VerifyJaccardBroadcast:
    """Actor-pool verifier over BROADCAST shingle arrays: each actor
    ``ray.get``s the shared array blocks once in ``__init__`` (object
    refs travel in the constructor args — the map never touches the
    driver) and verifies candidate pairs with C-speed sorted-set
    intersections.  Used when the candidate-involved documents' arrays
    fit the broadcast cap; past it, :func:`ngram_jaccard_pairs` falls
    back to the gather-join plan.

    When the involved documents' COMBINED vocabulary is small (low-
    entropy / templated corpora — exactly the ones whose candidate sets
    explode), ``__init__`` additionally packs each doc's set into a
    bitmap over the sorted vocabulary and ``__call__`` verifies whole
    pair batches vectorized: ``popcount(bm[a] & bm[b])`` via SWAR
    uint64 ops, identical integers to the per-pair ``intersect1d`` loop.
    Caps (``vocab ≤ 2^17`` bits = 16 KiB/doc, matrix ≤ 256 MiB) keep the
    fast path memory-bounded; past them the loop path runs unchanged."""

    def __init__(self, refs, id_col="doc_id", threshold=0.8,
                 bitmap_vocab_cap: int = 1 << 17,
                 bitmap_mem_cap: int = 256 << 20):
        import ray

        from ..functions.rounding import round_half_away
        self.threshold = threshold
        self._round = round_half_away
        self._sh: dict = {}
        for tbl in ray.get(list(refs)):
            if id_col not in getattr(tbl, "column_names", ()):
                continue  # Ray's empty blocks lose their columns
            ids = tbl[id_col].to_pandas().to_numpy()
            col = tbl["__sh"]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            vals = col.values.to_numpy(zero_copy_only=False)
            offs = col.offsets.to_numpy()
            for i, d in enumerate(ids):
                self._sh[d] = vals[offs[i]:offs[i + 1]]
        self._bm = None
        if self._sh:
            vocab = np.unique(np.concatenate(list(self._sh.values()))) \
                if any(a.size for a in self._sh.values()) \
                else np.empty(0, np.int64)
            row_bytes = (vocab.size + 7) // 8
            row_words = (row_bytes + 7) // 8
            if vocab.size and vocab.size <= bitmap_vocab_cap \
                    and len(self._sh) * row_words * 8 <= bitmap_mem_cap:
                bm = np.zeros((len(self._sh), row_words * 8),
                              dtype=np.uint8)
                doc_ids, ns = [], []
                bits = np.zeros(vocab.size, dtype=np.uint8)
                for r, (d, a) in enumerate(self._sh.items()):
                    bits[:] = 0
                    bits[np.searchsorted(vocab, a)] = 1
                    bm[r, :row_bytes] = np.packbits(bits)
                    doc_ids.append(d)
                    ns.append(a.size)
                self._bm = bm.view(np.uint64)  # (docs, row_words)
                self._bm_index = pd.Index(np.array(doc_ids))
                self._bm_n = np.array(ns, dtype=np.int64)

    def _sims_loop(self, ia, ib, sims, rows):
        sh = self._sh
        for i in rows:
            a, b = sh[ia[i]], sh[ib[i]]
            inter = np.intersect1d(a, b, assume_unique=True).size
            union = a.size + b.size - inter
            sims[i] = (inter / union) if union else 1.0

    def __call__(self, t: pa.Table) -> pa.Table:
        ia = t["id_a"].to_pandas().to_numpy()
        ib = t["id_b"].to_pandas().to_numpy()
        sims = np.empty(len(t), dtype=np.float64)
        if self._bm is not None:
            ra = self._bm_index.get_indexer(ia)
            rb = self._bm_index.get_indexer(ib)
            ok = (ra >= 0) & (rb >= 0)
            row_bytes = self._bm.shape[1] * 8
            # chunk the pair batch so the two gathered operand matrices
            # stay under ~256 MiB each
            chunk = max(1, (128 << 20) // max(1, row_bytes))
            idx = np.flatnonzero(ok)
            for s in range(0, idx.size, chunk):
                sel = idx[s:s + chunk]
                a, b = ra[sel], rb[sel]
                inter = _popcount_rows(self._bm[a] & self._bm[b])
                union = self._bm_n[a] + self._bm_n[b] - inter
                sims[sel] = np.where(union > 0,
                                     inter / np.maximum(union, 1), 1.0)
            if not ok.all():
                self._sims_loop(ia, ib, sims, np.flatnonzero(~ok))
        else:
            self._sims_loop(ia, ib, sims, range(len(t)))
        keep = sims >= self.threshold
        out = t.select(["id_a", "id_b"]).filter(pa.array(keep))
        return out.append_column(
            "jaccard", pa.array(self._round(sims[keep], 6)))


_VERIFY_CACHE: dict = {}
# broadcast arrays + bitmap can be hundreds of MB per entry, so keep the
# bound tight — but >1 so two verify stages interleaving on one worker
# (e.g. minhash + ngram pipelines in the same bench run) don't rebuild
# the broadcast state on every alternating batch
_VERIFY_CACHE_MAX = 2


def _verify_broadcast_task(t: pa.Table, *, _refs, _id_col, _threshold
                           ) -> pa.Table:
    """Task-mode wrapper around :class:`VerifyJaccardBroadcast`: one
    verifier instance per (refs, threshold) PER WORKER PROCESS — the
    first task on a worker pays the broadcast ``ray.get`` (zero-copy
    from the local object store) and the bitmap build; later tasks on
    that worker reuse it, so the stage gets actor-style state on warm
    task workers.  The cache is LRU-bounded by entry count (not
    cleared wholesale on a key miss) so interleaved verify stages
    keep their state."""
    key = (tuple(r.hex() for r in _refs), _id_col, _threshold)
    v = _VERIFY_CACHE.get(key)
    if v is None:
        while len(_VERIFY_CACHE) >= _VERIFY_CACHE_MAX:
            _VERIFY_CACHE.pop(next(iter(_VERIFY_CACHE)))
        v = VerifyJaccardBroadcast(list(_refs), _id_col, _threshold)
        _VERIFY_CACHE[key] = v
    else:
        _VERIFY_CACHE[key] = _VERIFY_CACHE.pop(key)  # LRU: move to back
    return v(t)


def verify_jaccard_arrays(with_sh, *, threshold=0.8):
    """Task-parallel exact-Jaccard verify over co-located shingle arrays:
    per pair, one C-speed ``np.intersect1d`` over the two sorted unique
    int64 sets read zero-copy from the Arrow list buffers.  Same output
    contract as :class:`VerifyJaccardBroadcast` (threshold the raw similarity,
    emit half-away-rounded values)."""
    from ..functions.rounding import round_half_away

    def _verify(t: pa.Table) -> pa.Table:
        sims = np.empty(len(t), dtype=np.float64)
        la = t["__sh_a"].combine_chunks() if isinstance(
            t["__sh_a"], pa.ChunkedArray) else t["__sh_a"]
        lb = t["__sh_b"].combine_chunks() if isinstance(
            t["__sh_b"], pa.ChunkedArray) else t["__sh_b"]
        va = la.values.to_numpy(zero_copy_only=False)
        vb = lb.values.to_numpy(zero_copy_only=False)
        oa = la.offsets.to_numpy()
        ob = lb.offsets.to_numpy()
        for i in range(len(t)):
            a = va[oa[i]:oa[i + 1]]
            b = vb[ob[i]:ob[i + 1]]
            inter = np.intersect1d(a, b, assume_unique=True).size
            union = a.size + b.size - inter
            sims[i] = (inter / union) if union else 1.0
        keep = sims >= threshold
        out = t.select(["id_a", "id_b"]).filter(pa.array(keep))
        return out.append_column(
            "jaccard", pa.array(round_half_away(sims[keep], 6)))
    _verify.__name__ = "verify_jaccard_arrays"

    return with_sh.map_batches(_verify, batch_format="pyarrow")


# verified-pair count past which the final labeling auto-routes to the
# distributed log-round propagation instead of driver-side union-find:
# 20M pairs ≈ 320 MB of id pairs on the driver — comfortable; past that
# the driver copy becomes the scale hazard the distributed path exists for
_CC_DRIVER_PAIR_BUDGET = 20_000_000


def _cluster_pairs(verified, distributed_cc: bool | None) -> pd.DataFrame:
    """Label verified pair Dataset → (doc_id, cluster_id) pandas frame,
    auto-routing on pair count: ``distributed_cc=None`` (default) picks
    the distributed log-round propagation when the verified-pair count
    exceeds ``_CC_DRIVER_PAIR_BUDGET``, else the faster driver-side
    union-find; True/False force a path.  Both paths are
    equivalence-tested."""
    verified = verified.materialize()
    if distributed_cc is None:
        distributed_cc = verified.count() > _CC_DRIVER_PAIR_BUDGET
    if distributed_cc:
        return connected_components_distributed(
            verified.map_batches(
                lambda t: t.select(["id_a", "id_b"]),
                batch_format="pyarrow"))
    return connected_components(verified.to_pandas())


def minhash_lsh_dedup(docs, *, text_col="text", id_col="doc_id",
                      num_perm=128, bands=16, ngram=5, threshold=0.8,
                      distributed_cc: bool | None = None):
    """Full near-dup pipeline → pandas (doc_id, cluster_id) for docs that
    belong to a near-duplicate cluster (singletons omitted).

    The final labeling auto-routes (see :func:`_cluster_pairs`):
    driver-side union-find while the verified pairs fit a driver budget,
    log-round min-label propagation over the pair Dataset past it (the
    100 TB path); ``distributed_cc`` forces a path.

    The verify stage never materializes anything on the driver: the
    pair-involved documents' shingle arrays either broadcast through the
    object store under a byte cap or co-locate onto the pairs with two
    gather joins (see :func:`exact_jaccard_verify`), so the pipeline
    streams at any corpus size."""
    bands_ds = docs.map_batches(
        MinHashBands(text_col, id_col, num_perm, bands, ngram),
        batch_format="pyarrow")
    cands = candidate_pairs(bands_ds, id_col).materialize()
    if cands.count() == 0:
        # zero candidates: Ray drops all-empty blocks and the text join
        # would see a schema-less input — the cluster frame is empty
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "cluster_id": pd.Series([], dtype=np.int64)})
    verified = exact_jaccard_verify(cands, docs, ngram=ngram,
                                    threshold=threshold, text_col=text_col,
                                    id_col=id_col)
    return _cluster_pairs(verified, distributed_cc)


# --- exact n-gram Jaccard --------------------------------------------------

def shingle_df_map(docs, *, text_col="text", id_col="doc_id", ngram=5,
                   sample_mod=1, doc_sample_mod: int = 1,
                   cap: int = 1 << 20):
    """Global document frequency of every shingle that appears in ≥ 2
    documents, as two aligned arrays ``(hashes_sorted_asc, df)`` bounded
    by the ``cap`` hottest (ties broken by hash — deterministic).

    Feeds the df-ascending prefix order in :class:`ShingleRows`: any
    FIXED global total order preserves AllPairs' exact recall, and
    ordering rarest-first pushes the corpus-hot shingles out of every
    indexed prefix (measured 5× fewer post-PPJoin pair emissions on the
    low-entropy synthetic corpus).  Shingles outside the map order as
    df = 1 (hash tie-break), so capping the map keeps the broadcast
    bounded at web scale without breaking order consistency: membership
    (top-``cap`` by (df, hash)) is itself deterministic.

    Plan: per-batch partial counts (np.unique over the batch's
    per-doc-unique shingles — the shuffle ships one row per distinct
    shingle per block, not per occurrence) → one groupby-sum over the
    vocabulary → df ≥ 2 filter → distributed top-``cap``.

    ``doc_sample_mod = m`` estimates df on a deterministic 1/m
    doc-id-hash sample — the prefix ORDER only needs to be a fixed
    function of the corpus, not the true frequencies, so recall stays
    exact while the counting pass costs 1/m as much; hot shingles (the
    ones whose prefix eviction matters) are exactly the ones a sample
    still sees.
    """
    from .relational import topk_by

    def _partial(t: pa.Table) -> pa.Table:
        if doc_sample_mod > 1:
            keep = stable_hash_array(t[id_col]) \
                % np.uint64(doc_sample_mod) == 0
            t = t.filter(pa.array(keep))
        texts = t[text_col].to_pandas()
        per_doc = []
        for x in texts:
            sh = char_ngram_shingles(x or "", ngram)
            if sample_mod > 1:
                sh = sh[sh % np.uint64(sample_mod) == 0]
            per_doc.append(sh)
        allsh = (np.concatenate(per_doc) if per_doc
                 else np.empty(0, np.uint64))
        u, c = np.unique(allsh.view(np.int64), return_counts=True)
        return pa.table({"h": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    tot = combine(docs.map_batches(_partial, batch_format="pyarrow"),
                  ["h"], sums_of("c"))

    def _hot(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.greater_equal(t["c"], pa.scalar(2)))

    hot = topk_by(tot.map_batches(_hot, batch_format="pyarrow"),
                  ["c", "h"], [True, False], cap)
    arr = hot.to_pandas()
    if "h" not in arr.columns:  # all-empty datasets lose their columns
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    h = arr["h"].to_numpy(np.int64).view(np.uint64)
    df = arr["c"].to_numpy(np.int64)
    order = np.argsort(h)
    return h[order], df[order]


class ShingleRows:
    """map_batches: doc → one (band_id=0, band_hash=shingle_hash, doc_id)
    row per distinct character n-gram — the inverted-index emit of exact
    n-gram-Jaccard dedup.

    ``prefix_t`` enables PREFIX FILTERING (AllPairs / PPJoin, Bayardo et
    al. 2007): under a fixed global total order of shingles, indexing
    only the first ``n - ceil(t*n) + 1`` shingles of each n-shingle set
    still catches every pair with Jaccard ≥ t (their prefixes provably
    intersect), while hot common shingles mostly fall OUT of the indexed
    prefix — without it, natural-text shingles shared by every document
    emit |docs|²/2 candidate pairs per bucket.  The order is hash
    ascending by default (``char_ngram_shingles`` returns sorted
    hashes); passing ``df_map`` (from :func:`shingle_df_map`, usually
    as a ``ray.put`` ref) switches to ASCENDING GLOBAL DOCUMENT
    FREQUENCY with hash tie-break — rarest first, so the hot shingles
    leave every prefix; same exact-recall guarantee (any fixed total
    order works) at the price of one counting pre-pass.

    ``sample_mod = m`` additionally keeps only shingles with
    ``hash % m == 0`` (a deterministic 1/m sketch — both docs of a pair
    keep or drop each shared shingle together, so a qualifying pair is
    missed only with probability (1-1/m)^shared; NOT exact, unlike the
    prefix filter)."""

    def __init__(self, text_col="text", id_col="doc_id", ngram=5,
                 sample_mod=1, prefix_t: float | None = None,
                 df_map=None):
        self.text_col, self.id_col = text_col, id_col
        self.ngram, self.sample_mod = ngram, sample_mod
        self.prefix_t = prefix_t
        self._df_map = df_map  # (hashes, df) tuple or ObjectRef thereof
        self._df = None

    def _df_arrays(self):
        if self._df is None and self._df_map is not None:
            m = self._df_map
            if not isinstance(m, tuple):
                import ray
                m = ray.get(m)  # local after first task on the node
            self._df = m
        return self._df

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas()
        ids = batch[self.id_col].to_pandas().to_numpy()
        dfm = self._df_arrays()
        sh_out, id_out, n_out, pos_out = [], [], [], []
        for i, t in enumerate(texts):
            sh = char_ngram_shingles(t or "", self.ngram)
            if self.sample_mod > 1:
                sh = sh[sh % np.uint64(self.sample_mod) == 0]
            n = len(sh)
            if self.prefix_t is not None and n:
                if dfm is not None and dfm[0].size:
                    # re-sort into the global (df asc, hash asc) order;
                    # shingles outside the capped map count as df = 1
                    dh, dc = dfm
                    pos = np.searchsorted(dh, sh)
                    posc = np.minimum(pos, dh.size - 1)
                    d = np.where(dh[posc] == sh, dc[posc], 1)
                    sh = sh[np.lexsort((sh, d))]
                # sh is now in the global total order (hash ascending
                # from np.unique, or (df, hash) above) — the prefix is
                # its head.  ceil over a FLOAT product over-ceils when
                # t·n is a real integer (0.56*25 → 14.000000000000002
                # → 15), silently shortening the prefix below the
                # recall-exact length; nudge down by an epsilon — an
                # occasional one-longer prefix only costs a few extra
                # candidates.
                keep = n - int(np.ceil(self.prefix_t * n - 1e-9)) + 1
                sh = sh[:max(keep, 1)]
            sh_out.append(sh.astype(np.int64))
            id_out.append(np.full(len(sh), ids[i],
                                  dtype=None if ids.dtype == object
                                  else ids.dtype))
            if self.prefix_t is not None:
                # PPJoin metadata: full set size + position of each
                # prefix shingle in the full sorted order (= its index,
                # since the prefix is the head of that order)
                n_out.append(np.full(len(sh), n, dtype=np.int32))
                pos_out.append(np.arange(len(sh), dtype=np.int32))
        total = sum(len(s) for s in sh_out)
        cols = {
            "band_id": pa.array(np.zeros(total, dtype=np.int32)),
            "band_hash": pa.array(np.concatenate(sh_out)
                                  if sh_out else np.empty(0, np.int64)),
            self.id_col: pa.array(np.concatenate(id_out)
                                  if id_out else ids[:0]),
        }
        if self.prefix_t is not None:
            cols["__n"] = pa.array(np.concatenate(n_out)
                                   if n_out else np.empty(0, np.int32))
            cols["__pos"] = pa.array(np.concatenate(pos_out)
                                     if pos_out else np.empty(0, np.int32))
        return pa.table(cols)


def exact_jaccard_verify(cands, docs, *, ngram=5, threshold=0.8,
                         text_col="text", id_col="doc_id",
                         broadcast_limit_bytes: int = 512 << 20):
    """Exact-Jaccard verification of a candidate-pair Dataset, shared by
    the prefix-filtered exact pipeline and MinHash-LSH.

    Verify plan choice: the shingle arrays of the candidate-INVOLVED
    documents (not the corpus — a semi-join prunes the rest) are usually
    tiny relative to |pairs| × array payload, so broadcast them through
    the object store (block refs into each verify actor — the driver
    never materializes a row) and keep the pair stream array-free.  Past
    the cap, fall back to co-locating arrays onto pairs with two gather
    joins — fully streaming, but each pair then carries ~2 array
    payloads through a shuffle.  Both plans are equality-tested."""
    from .joins import semi_join

    def _pair_ids(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
             for c in (t["id_a"], t["id_b"])])
        # per-block distinct: the semi-join's shuffle then ships at most
        # |involved docs| ids per block instead of 2 rows per pair
        return pa.table({id_col: both.unique()})

    involved = cands.map_batches(_pair_ids, batch_format="pyarrow")
    # prune the DOCUMENTS first, then shingle: shingling is the
    # expensive step, and candidates may involve a tiny fraction of the
    # corpus (O(involved) shingling, not O(corpus))
    docs_involved = semi_join(docs, involved, id_col)
    arrays = doc_shingle_arrays(docs_involved, text_col=text_col,
                                id_col=id_col, ngram=ngram).materialize()
    if arrays.size_bytes() <= broadcast_limit_bytes:
        import functools

        refs = arrays.to_arrow_refs()
        # TASK pool over whole-block batches (per-batch slice/emit
        # overhead dominates 1024-row batches; measured 20 s → 12 s):
        # tasks run on the session's already-warm workers, where an
        # actor pool spawns FRESH processes that each pay the package
        # import (~2 s of stage wall).  The verifier state (broadcast
        # arrays + bitmap) is rebuilt at most once per worker process
        # via the keyed cache in _verify_broadcast_task.
        out = cands.map_batches(
            functools.partial(_verify_broadcast_task, _refs=tuple(refs),
                              _id_col=id_col, _threshold=threshold),
            batch_format="pyarrow", batch_size=None)
        # pin the broadcast blocks to the lazy pipeline (ray#53727: a
        # retried task must still find the refs alive)
        out._graft_pin = arrays
        return out
    # past the cap: co-locate the ALREADY-COMPUTED pair-involved arrays
    # onto the pairs (never re-shingle the corpus for the fallback)
    with_sh = join_pair_shingles(cands, docs, text_col=text_col,
                                 id_col=id_col, ngram=ngram,
                                 arrays=arrays)
    return verify_jaccard_arrays(with_sh, threshold=threshold)


def ngram_jaccard_pairs(docs, *, text_col="text", id_col="doc_id", ngram=5,
                        threshold=0.8, sample_mod=1, max_df=None,
                        prefix_filter=True, df_order=True,
                        broadcast_limit_bytes: int = 512 << 20):
    """Exact character-n-gram Jaccard near-dup pairs — Dataset of
    (id_a, id_b, jaccard) with id_a < id_b and jaccard ≥ threshold.

    Pipeline: prefix-filtered shingle inverted index (one row per
    indexed n-gram; the prefix filter preserves EXACT recall at
    ``threshold`` — see :class:`ShingleRows`; ``df_order`` adds the
    rarest-first counting pre-pass of :func:`shingle_df_map`, recall
    still exact) → partition-grouped candidate pairs with recall-exact
    PPJoin length + positional pruning (one keyed shuffle; ``max_df``
    bounds hot-shingle buckets, ``sample_mod`` sketches the index, both
    lossy) → full shingle arrays co-located onto pairs by two hash
    joins → exact re-verification by sorted-set intersection.  With the
    defaults the result is exactly the brute-force all-pairs answer."""
    df_ref = None
    if prefix_filter and df_order:
        import ray
        df_ref = ray.put(shingle_df_map(
            docs, text_col=text_col, id_col=id_col, ngram=ngram,
            sample_mod=sample_mod, doc_sample_mod=4))
    rows = docs.map_batches(
        ShingleRows(text_col, id_col, ngram, sample_mod,
                    threshold if prefix_filter else None, df_map=df_ref),
        batch_format="pyarrow")
    cands = candidate_pairs(rows, id_col, max_run=max_df,
                            threshold=threshold if prefix_filter else None) \
        .materialize()
    if cands.count() == 0:
        # no candidates at all: Ray drops all-empty blocks, so the
        # downstream joins would see a SCHEMA-LESS input — emit a typed
        # empty result instead
        import ray.data as rd
        sch = docs.schema()
        id_t = dict(zip(sch.names, sch.types))[id_col]
        if not isinstance(id_t, pa.DataType):
            # pandas-backed inputs report numpy dtypes / Python classes
            try:
                id_t = pa.from_numpy_dtype(np.dtype(id_t))
            except Exception:
                id_t = pa.string()
        return rd.from_arrow(pa.table({
            "id_a": pa.nulls(0, id_t), "id_b": pa.nulls(0, id_t),
            "jaccard": pa.nulls(0, pa.float64())}))

    return exact_jaccard_verify(
        cands, docs, ngram=ngram, threshold=threshold, text_col=text_col,
        id_col=id_col, broadcast_limit_bytes=broadcast_limit_bytes)


def ngram_jaccard_dedup(docs, *, text_col="text", id_col="doc_id", ngram=5,
                        threshold=0.8, sample_mod=1, max_df=None,
                        prefix_filter=True,
                        distributed_cc: bool | None = None):
    """n-gram-Jaccard near-dup clusters → pandas (doc_id, cluster_id),
    singletons omitted — same labeling contract (and the same auto-routed
    connected-components, :func:`_cluster_pairs`) as minhash_lsh_dedup."""
    verified = ngram_jaccard_pairs(
        docs, text_col=text_col, id_col=id_col, ngram=ngram,
        threshold=threshold, sample_mod=sample_mod, max_df=max_df,
        prefix_filter=prefix_filter)
    return _cluster_pairs(verified, distributed_cc)


# --- SimHash ---------------------------------------------------------------

class SimHashStage:
    """map_batches: append a 64-bit SimHash of the BPE-ish token multiset.

    Token hash = the repo's polynomial rolling hash (sum byte_i·base^i
    mod 2^64, functions/text.rolling_fingerprint) rather than an opaque
    process hash, so the signature is bit-replicable in the DuckDB
    oracle (HUGEINT list_reduce — same construction as the
    doc_fingerprints oracle; parity assumes ASCII text, where UTF-8
    bytes == codepoints)."""

    def __init__(self, text_col="text"):
        from ..functions.text import BPE_RE
        self.text_col = text_col
        self.re = BPE_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.text import rolling_fingerprint
        texts = batch[self.text_col].to_pandas()
        tok_lists = [self.re.findall(t or "") for t in texts]
        flat = pd.Series([tok for ts in tok_lists for tok in ts],
                         dtype=object)
        hashes = rolling_fingerprint(flat) if len(flat) else \
            np.empty(0, np.uint64)
        bounds = np.cumsum([0] + [len(ts) for ts in tok_lists])
        tok_hashes = [hashes[s:e] for s, e in zip(bounds, bounds[1:])]
        sh = simhash64(tok_hashes)
        return batch.append_column("simhash", pa.array(sh.astype(np.int64)))


# --- embedding cosine near-dup --------------------------------------------

class HyperplaneLSH:
    """map_batches: random-hyperplane sign bucket for embedding vectors."""

    def __init__(self, dim=64, planes=12, seed=99, vec_col="embedding",
                 id_col="vec_id"):
        rng = np.random.default_rng(seed)
        self.planes = rng.normal(size=(dim, planes))
        self.vec_col, self.id_col = vec_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vecs = np.asarray(col.flatten(), dtype=np.float64)
        n = len(batch)
        vecs = vecs.reshape(n, -1)
        signs = (vecs @ self.planes) > 0
        bucket = np.zeros(n, dtype=np.int64)
        for j in range(signs.shape[1]):
            bucket = bucket * 2 + signs[:, j]
        return pa.table({
            "bucket": pa.array(bucket),
            self.id_col: batch[self.id_col],
            self.vec_col: batch[self.vec_col],
        })


def _cosine_pairs_in_partition(g: pa.Table, id_col, vec_col, threshold
                               ) -> pa.Table:
    """Cosine pairs for every bucket co-located in one partition group:
    sort by bucket, run-length scan, score only multi-member runs (the
    same per-partition-not-per-bucket shape as ``candidate_pairs``).
    The vector matrix reads straight from the Arrow list buffers
    (similarity._vec_matrix) — the rows never round-trip through pandas
    object cells."""
    from .similarity import _vec_matrix
    id_type = g[id_col].type
    if len(g) < 2:
        return pa.table({"id_a": pa.nulls(0, id_type),
                         "id_b": pa.nulls(0, id_type),
                         "cosine": pa.nulls(0, pa.float64())})
    buckets = g["bucket"].to_numpy(zero_copy_only=False)
    ids = g[id_col].to_numpy(zero_copy_only=False)
    order = np.argsort(buckets, kind="stable")
    buckets = buckets[order]
    ids = ids[order]
    M_all = _vec_matrix(g[vec_col])
    change = np.ones(len(ids), dtype=bool)
    if len(ids) > 1:
        change[1:] = buckets[1:] != buckets[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], len(ids))
    out_a, out_b, out_c = [], [], []
    for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
        sids = ids[s:e]
        M = M_all[order[s:e]]
        M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        S = M @ M.T
        a, b = np.triu_indices(len(sids), k=1)
        keep = S[a, b] >= threshold
        if not keep.any():
            continue
        ia, ib = sids[a[keep]], sids[b[keep]]
        out_a.append(np.minimum(ia, ib))
        out_b.append(np.maximum(ia, ib))
        out_c.append(np.round(S[a, b][keep], 6))
    if not out_a:
        return pa.table({"id_a": pa.nulls(0, id_type),
                         "id_b": pa.nulls(0, id_type),
                         "cosine": pa.nulls(0, pa.float64())})
    return pa.table({
        "id_a": pa.array(np.concatenate(out_a)).cast(id_type),
        "id_b": pa.array(np.concatenate(out_b)).cast(id_type),
        "cosine": pa.array(np.concatenate(out_c), pa.float64()),
    })


def embedding_near_dup(embeddings, *, vec_col="embedding", id_col="vec_id",
                       threshold=0.95, planes=12, dim=64):
    """Bucketed cosine near-dup pairs (scale path: only in-bucket pairs are
    scored; recall is tunable via the plane count).  The kernel runs
    once per block of the keyed exchange on the bucket id, not once per
    bucket (2^planes mostly-singleton groups)."""
    bucketed = embeddings.map_batches(
        HyperplaneLSH(dim, planes, 99, vec_col, id_col),
        batch_format="pyarrow")

    def _pairs(g: pa.Table) -> pa.Table:
        return _cosine_pairs_in_partition(g, id_col, vec_col, threshold)
    _pairs.__name__ = "_cosine_pairs_in_partition"

    # no cross-partition dedup needed, unlike the multi-band MinHash
    # path: every vector has exactly ONE hyperplane bucket, so a pair can
    # only arise in the single partition owning that bucket — the pair
    # set is unique by construction
    return partition_groups(bucketed, "bucket", _pairs,
                            batch_format="pyarrow")


# --- exact duplicated-span statistics (Lee et al. 2022 shape) ----------------

def _span_pairs_partial(batch: pa.Table, k: int, text_col: str,
                        id_col: str) -> pa.Table:
    """Batch-local distinct ``(span, doc_id, pos_cnt)`` triples: every
    k-token window of every document (whitespace tokens, RE2
    ``regexp_split_to_array(text, '\\s+')`` semantics — the package's
    chunking convention), joined with single spaces.  A document's rows
    live in exactly ONE input block, so the triples are unique
    corpus-wide by construction — the span groupby sees each (span,
    doc) once and its row count IS the distinct-doc count."""
    from collections import Counter

    from ..functions.text import RE2_WS_RE
    spans: "Counter[tuple]" = Counter()
    if text_col in batch.column_names:
        ids = batch[id_col].to_pandas().to_numpy()
        for d, txt in zip(ids, batch[text_col].to_pandas()):
            toks = RE2_WS_RE.split(txt or "")
            for i in range(len(toks) - k + 1):
                spans[(" ".join(toks[i:i + k]), d)] += 1
    sp, ids_out = ([], []) if not spans else map(list, zip(*spans.keys()))
    return pa.table({
        "span": pa.array(sp, pa.string()),
        id_col: pa.array(ids_out, pa.int64()),
        "pos_cnt": pa.array(np.fromiter(spans.values(), dtype=np.int64,
                                        count=len(spans)))})


def _span_totals_partial(batch: pa.Table, k: int, text_col: str,
                         id_col: str) -> pa.Table:
    """Per-document span-position totals ``n_spans = max(n_tok-k+1, 0)``
    — same tokenizer as :func:`_span_pairs_partial`, map-only."""
    from ..functions.text import RE2_WS_RE
    if text_col not in batch.column_names or len(batch) == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "n_spans": pa.array([], pa.int64()),
                         "n_dup": pa.array([], pa.int64())})
    texts = batch[text_col].to_pandas()
    n = np.fromiter((len(RE2_WS_RE.split(t or "")) for t in texts),
                    dtype=np.int64, count=len(texts))
    n_spans = np.maximum(n - k + 1, 0)
    keep = n_spans > 0
    return pa.table({
        id_col: batch[id_col].filter(pa.array(keep)),
        "n_spans": pa.array(n_spans[keep]),
        "n_dup": pa.array(np.zeros(int(keep.sum()), dtype=np.int64))})


class _DupSpanEmit:
    """Per-partition kernel over span-keyed groups: dictionary-encode
    spans, count rows per span (== distinct docs, see the partial's
    uniqueness invariant), and emit each doc's position count for every
    span held by ≥ 2 documents — the duplicated-span contributions.
    Arrow in/out so the result unions with the Arrow totals table."""

    def __init__(self, id_col: str):
        self.id_col = id_col

    def __call__(self, g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if len(g) == 0:
            return pa.table({
                self.id_col: pa.array([], pa.int64()),
                "n_spans": pa.array([], pa.int64()),
                "n_dup": pa.array([], pa.int64())})
        codes = pc.dictionary_encode(g["span"].combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        docs_per_span = np.bincount(codes)
        dup = pa.array(docs_per_span[codes] >= 2)
        out_ids = g[self.id_col].filter(dup)
        out_cnt = g["pos_cnt"].filter(dup)
        return pa.table({
            self.id_col: out_ids,
            "n_spans": pa.array(np.zeros(len(out_ids), dtype=np.int64)),
            "n_dup": out_cnt})


def dup_span_stats(docs, *, k: int = 8, text_col: str = "text",
                   id_col: str = "doc_id"):
    """Exact duplicated-substring statistics per document — the
    grouped-span form of Lee et al. 2022's exact-substring dedup signal
    (arXiv:2107.06499): a span is DUPLICATED when the identical k-token
    window occurs in ≥ 2 distinct documents; each document reports its
    span-position total, duplicated-position count and duplicated
    fraction (the retrain-or-drop screen).

    Scale shape: batch-local distinct (span, doc) triples → ONE
    span-keyed partition-group shuffle (the canonical grouped-spans
    alternative to a distributed suffix array; the span stream is the
    shuffle — k·tokens bytes worst case) → doc-keyed Sum groupby over
    zero-padded partials (|docs| rows).  No driver-side materialization
    at any point."""
    import functools

    docs = docs.materialize()
    pairs = docs.map_batches(
        functools.partial(_span_pairs_partial, k=k, text_col=text_col,
                          id_col=id_col),
        batch_format="pyarrow")
    dup_rows = partition_groups(
        pairs, "span", _DupSpanEmit(id_col), batch_format="pyarrow")
    totals = docs.map_batches(
        functools.partial(_span_totals_partial, k=k, text_col=text_col,
                          id_col=id_col),
        batch_format="pyarrow")
    combined = combine(totals.union(dup_rows), [id_col],
                       sums_of("n_spans", "n_dup"))

    def _close(t: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        ns = t["n_spans"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = t["n_dup"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ns > 0                      # short docs have no spans
        return pa.table({
            id_col: t[id_col].filter(pa.array(keep)),
            "n_spans": pa.array(ns[keep]),
            "n_dup": pa.array(nd[keep]),
            "dup_frac": pa.array(round_half_away(
                nd[keep].astype(np.float64) / ns[keep].astype(np.float64),
                6))})

    return combined.map_batches(_close, batch_format="pyarrow")


def semantic_dedup(embeddings, *, vec_col="embedding", id_col="vec_id",
                   threshold: float = 0.95, planes: int = 12,
                   dim: int = 64, distributed_cc: bool | None = None
                   ) -> pd.DataFrame:
    """SemDeDup-shaped semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540 shape): vectors whose cosine similarity exceeds
    ``threshold`` inside hyperplane-LSH buckets form clusters; each
    cluster KEEPS its smallest ``vec_id`` and marks the rest as
    semantic duplicates to drop.

    Composition of certified machinery: :func:`embedding_near_dup`
    pair emission (bucketed, zero-copy Arrow matrices) →
    :func:`_cluster_pairs` labeling (driver union-find under the pair
    budget, log-round distributed propagation past it).  Returns
    pandas (vec_id, cluster_id, keep) for vectors in ≥ 2-member
    clusters — singletons are implicitly kept."""
    pairs = embedding_near_dup(embeddings, vec_col=vec_col,
                               id_col=id_col, threshold=threshold,
                               planes=planes, dim=dim)
    pairs = pairs.map_batches(
        lambda t: pa.table({"id_a": t[id_col + "_a"],
                            "id_b": t[id_col + "_b"]})
        if (id_col + "_a") in t.column_names else
        t.select(["id_a", "id_b"]) if "id_a" in t.column_names else
        pa.table({"id_a": pa.array([], pa.int64()),
                  "id_b": pa.array([], pa.int64())}),
        batch_format="pyarrow")
    labeled = _cluster_pairs(pairs, distributed_cc)
    labeled = labeled.rename(columns={"doc_id": id_col})
    labeled["keep"] = labeled[id_col] == labeled["cluster_id"]
    return labeled
