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

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .joins import (_segment_starts, gather_join, hash_join,
                    partition_groups, semi_join)
from .relational import topk_by
from .rollup import combine, sums_of
from .similarity import _vec_matrix
from .taskcache import class_task, nonempty_blocks
from ..functions.hashing import (minhash_signatures, simhash64,
                                 stable_hash_array)
from ..functions.rounding import round_half_away
from ..functions.text import (BPE_RE, RE2_WS_RE, char_ngram_shingles,
                              rolling_fingerprint)


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
        if num_perm % bands:
            raise ValueError(f"MinHashBands: num_perm={num_perm} is not a "
                             f"multiple of bands={bands}")
        self.text_col, self.id_col = text_col, id_col
        self.num_perm, self.bands, self.ngram, self.seed = num_perm, bands, ngram, seed
        self.rows_per_band = num_perm // bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas()
        shingles = [char_ngram_shingles(t or "", self.ngram) for t in texts]
        # an empty shingle set (a NULL or "" text) gets no band bucket,
        # as ShingleRows emits no row for it: two empty texts are not
        # near-duplicates
        has = np.array([len(sh) > 0 for sh in shingles], dtype=bool)
        ids = batch[self.id_col].to_pandas().to_numpy()[has]
        sigs = minhash_signatures([sh for sh in shingles if len(sh)],
                                  self.num_perm, self.seed)
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

    When ``threshold`` is given (the rows then carry the set-size /
    prefix-position metadata ``__n`` / ``__pos`` of :class:`ShingleRows`),
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
    if threshold is not None:
        nn = g["__n"].to_numpy()[order].astype(np.int64)
        pp = g["__pos"].to_numpy()[order].astype(np.int64)
    starts, ends = _segment_starts(bi, bh)
    keep = ends - starts >= 2
    if max_run is not None:
        keep &= ends - starts <= max_run
    a_out, b_out = [], []
    for s, e in zip(starts[keep], ends[keep]):
        if threshold is not None:
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


def join_pair_shingles(cands, arrays, *, id_col="doc_id"):
    """Co-locate each candidate pair with its two pre-computed shingle
    arrays (``__sh_a`` / ``__sh_b``, from the (id, ``__sh``) dataset
    ``arrays``) via two Arrow-native gather joins
    (:func:`~.joins.gather_join` — the list payloads never round-trip
    through pandas) — the verify downstream is a pure sorted-array
    intersection, no re-shingling."""
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


# the bitmap fast path of VerifyJaccardBroadcast: at most 2^17 vocabulary
# bits (16 KiB) per document and 256 MiB for the whole matrix
_BITMAP_VOCAB_CAP = 1 << 17
_BITMAP_MEM_CAP = 256 << 20


def _set_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard similarity of two sorted unique int64 shingle sets (two
    empty sets are identical: 1.0)."""
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return (inter / union) if union else 1.0


def _similar_pairs(t: pa.Table, sims: np.ndarray, threshold) -> pa.Table:
    """``(id_a, id_b, jaccard)`` of the pairs in ``t`` whose raw
    similarity reaches ``threshold``, emitted half-away-rounded to 6
    places — the one output contract of both verify plans."""
    keep = sims >= threshold
    out = t.select(["id_a", "id_b"]).filter(pa.array(keep))
    return out.append_column(
        "jaccard", pa.array(round_half_away(sims[keep], 6)))


class VerifyJaccardBroadcast:
    """Verifier over BROADCAST shingle arrays, mapped through
    :func:`~.taskcache.class_task` (one instance per worker): the
    instance ``ray.get``s the shared array blocks once in ``__init__``
    (object refs travel in the constructor args — the map never touches
    the driver) and verifies candidate pairs with C-speed sorted-set
    intersections.  Used when the candidate-involved documents' arrays
    fit the broadcast cap; past it, :func:`exact_jaccard_verify` falls
    back to the gather-join plan.

    When the involved documents' COMBINED vocabulary is small (low-
    entropy / templated corpora — exactly the ones whose candidate sets
    explode), ``__init__`` additionally packs each doc's set into a
    bitmap over the sorted vocabulary and ``__call__`` verifies whole
    pair batches vectorized: ``popcount(bm[a] & bm[b])`` via SWAR
    uint64 ops, identical integers to the per-pair ``intersect1d`` loop.
    ``_BITMAP_VOCAB_CAP`` and ``_BITMAP_MEM_CAP`` keep the fast path
    memory-bounded; past them the loop path runs unchanged."""

    def __init__(self, refs, id_col="doc_id", threshold=0.8):
        self.threshold = threshold
        self._sh: dict = {}
        for tbl in nonempty_blocks(refs):
            ids = tbl[id_col].to_pandas().to_numpy()
            col = tbl["__sh"].combine_chunks()
            vals = col.values.to_numpy(zero_copy_only=False)
            offs = col.offsets.to_numpy()
            for i, d in enumerate(ids):
                self._sh[d] = vals[offs[i]:offs[i + 1]]
        self._bm = None
        if self._sh:
            vocab = np.unique(np.concatenate(list(self._sh.values())))
            row_bytes = (vocab.size + 7) // 8
            row_words = (row_bytes + 7) // 8
            if vocab.size and vocab.size <= _BITMAP_VOCAB_CAP \
                    and len(self._sh) * row_words * 8 <= _BITMAP_MEM_CAP:
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

    def __call__(self, t: pa.Table) -> pa.Table:
        ia = t["id_a"].to_pandas().to_numpy()
        ib = t["id_b"].to_pandas().to_numpy()
        sims = np.empty(len(t), dtype=np.float64)
        loop = range(len(t))
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
            loop = np.flatnonzero(~ok)
        for i in loop:
            sims[i] = _set_jaccard(self._sh[ia[i]], self._sh[ib[i]])
        return _similar_pairs(t, sims, self.threshold)


def verify_jaccard_arrays(with_sh, *, threshold=0.8):
    """Task-parallel exact-Jaccard verify over co-located shingle arrays:
    per pair, one :func:`_set_jaccard` over the two sorted unique int64
    sets read zero-copy from the Arrow list buffers; the same output
    contract as :class:`VerifyJaccardBroadcast` (:func:`_similar_pairs`)."""
    def _verify(t: pa.Table) -> pa.Table:
        la = t["__sh_a"].combine_chunks()
        lb = t["__sh_b"].combine_chunks()
        va = la.values.to_numpy(zero_copy_only=False)
        vb = lb.values.to_numpy(zero_copy_only=False)
        oa = la.offsets.to_numpy()
        ob = lb.offsets.to_numpy()
        sims = np.fromiter(
            (_set_jaccard(va[oa[i]:oa[i + 1]], vb[ob[i]:ob[i + 1]])
             for i in range(len(t))), dtype=np.float64, count=len(t))
        return _similar_pairs(t, sims, threshold)
    _verify.__name__ = "verify_jaccard_arrays"

    return with_sh.map_batches(_verify, batch_format="pyarrow")


# verified-pair count past which the final labeling auto-routes to the
# distributed log-round propagation instead of driver-side union-find:
# 20M pairs ≈ 320 MB of id pairs on the driver — comfortable; past that
# the driver copy becomes the scale hazard the distributed path exists for
_CC_DRIVER_PAIR_BUDGET = 20_000_000


def _cluster_pairs(verified) -> pd.DataFrame:
    """Label verified pair Dataset → (doc_id, cluster_id) pandas frame,
    routed on pair count: the distributed log-round propagation when the
    verified-pair count exceeds ``_CC_DRIVER_PAIR_BUDGET``, else the
    faster driver-side union-find.  Both paths are equivalence-tested."""
    verified = verified.materialize()
    if verified.count() > _CC_DRIVER_PAIR_BUDGET:
        return connected_components_distributed(
            verified.map_batches(
                lambda t: t.select(["id_a", "id_b"]),
                batch_format="pyarrow"))
    return connected_components(verified.to_pandas())


def minhash_lsh_dedup(docs, *, text_col="text", id_col="doc_id",
                      num_perm=128, bands=16, ngram=5, threshold=0.8):
    """Full near-dup pipeline → pandas (doc_id, cluster_id) for docs that
    belong to a near-duplicate cluster (singletons omitted).

    The final labeling routes on pair count (see :func:`_cluster_pairs`):
    driver-side union-find while the verified pairs fit a driver budget,
    log-round min-label propagation over the pair Dataset past it (the
    100 TB path).

    The verify stage never materializes anything on the driver: the
    pair-involved documents' shingle arrays either broadcast through the
    object store under a byte cap or co-locate onto the pairs with two
    gather joins (see :func:`exact_jaccard_verify`), so the pipeline
    streams at any corpus size."""
    bands_ds = docs.map_batches(
        MinHashBands(text_col, id_col, num_perm, bands, ngram),
        batch_format="pyarrow")
    verified = exact_jaccard_verify(candidate_pairs(bands_ds, id_col), docs,
                                    ngram=ngram, threshold=threshold,
                                    text_col=text_col, id_col=id_col)
    return _cluster_pairs(verified)


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
    row per indexed character n-gram — the inverted-index emit of exact
    n-gram-Jaccard dedup.

    PREFIX FILTERING at Jaccard ``threshold`` t (AllPairs / PPJoin,
    Bayardo et al. 2007): under a fixed global total order of shingles,
    indexing only the first ``n - ceil(t*n) + 1`` shingles of each
    n-shingle set still catches every pair with Jaccard ≥ t (their
    prefixes provably intersect), while hot common shingles mostly fall
    OUT of the indexed prefix — without it, natural-text shingles shared
    by every document emit |docs|²/2 candidate pairs per bucket.  The
    order is hash ascending by default (``char_ngram_shingles`` returns
    sorted hashes); passing ``df_map`` (a ``ray.put`` ref of
    :func:`shingle_df_map`'s arrays) switches to ASCENDING GLOBAL DOCUMENT
    FREQUENCY with hash tie-break — rarest first, so the hot shingles
    leave every prefix; same exact-recall guarantee (any fixed total
    order works) at the price of one counting pre-pass.  Each row also
    carries the PPJoin metadata ``__n`` (full set size) and ``__pos``
    (the shingle's position in the full sorted order).

    ``sample_mod = m`` additionally keeps only shingles with
    ``hash % m == 0`` (a deterministic 1/m sketch — both docs of a pair
    keep or drop each shared shingle together, so a qualifying pair is
    missed only with probability (1-1/m)^shared; NOT exact, unlike the
    prefix filter)."""

    def __init__(self, threshold, text_col="text", id_col="doc_id",
                 ngram=5, sample_mod=1, df_map=None):
        self.threshold = threshold
        self.text_col, self.id_col = text_col, id_col
        self.ngram, self.sample_mod = ngram, sample_mod
        self._df_map = df_map  # ObjectRef of the (hashes, df) arrays
        self._df = None

    def _df_arrays(self):
        if self._df is None and self._df_map is not None:
            import ray
            self._df = ray.get(self._df_map)  # local after the first task
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
            if dfm is not None and dfm[0].size:
                # re-sort into the global (df asc, hash asc) order;
                # shingles outside the capped map count as df = 1
                dh, dc = dfm
                pos = np.searchsorted(dh, sh)
                posc = np.minimum(pos, dh.size - 1)
                d = np.where(dh[posc] == sh, dc[posc], 1)
                sh = sh[np.lexsort((sh, d))]
            # sh is now in the global total order (hash ascending from
            # np.unique, or (df, hash) above) — the prefix is its head.
            # ceil over a FLOAT product over-ceils when t·n is a real
            # integer (0.56*25 → 14.000000000000002 → 15), silently
            # shortening the prefix below the recall-exact length; nudge
            # down by an epsilon — an occasional one-longer prefix only
            # costs a few extra candidates.
            keep = n - int(np.ceil(self.threshold * n - 1e-9)) + 1
            sh = sh[:max(keep, 1)]
            sh_out.append(sh.astype(np.int64))
            id_out.append(np.full(len(sh), ids[i],
                                  dtype=None if ids.dtype == object
                                  else ids.dtype))
            # the position of a prefix shingle in the full sorted order
            # is its index: the prefix is the head of that order
            n_out.append(np.full(len(sh), n, dtype=np.int32))
            pos_out.append(np.arange(len(sh), dtype=np.int32))
        band_hash = np.concatenate(sh_out)
        return pa.table({
            "band_id": pa.array(np.zeros(len(band_hash), dtype=np.int32)),
            "band_hash": pa.array(band_hash),
            self.id_col: pa.array(np.concatenate(id_out)),
            "__n": pa.array(np.concatenate(n_out)),
            "__pos": pa.array(np.concatenate(pos_out)),
        })


# the candidate-involved documents' shingle arrays broadcast to the
# verify tasks up to this size; past it each pair carries its two arrays
# through gather joins
_BROADCAST_LIMIT_BYTES = 512 << 20


def exact_jaccard_verify(cands, docs, *, ngram=5, threshold=0.8,
                         text_col="text", id_col="doc_id"):
    """Exact-Jaccard verification of a candidate-pair Dataset, shared by
    the prefix-filtered exact pipeline and MinHash-LSH → Dataset of
    ``(id_a, id_b, jaccard)``.

    Verify plan choice: the shingle arrays of the candidate-INVOLVED
    documents (not the corpus — a semi-join prunes the rest) are usually
    tiny relative to |pairs| × array payload, so broadcast them through
    the object store (block refs into each verify task — the driver
    never materializes a row) and keep the pair stream array-free.  Past
    ``_BROADCAST_LIMIT_BYTES``, fall back to co-locating arrays onto
    pairs with two gather joins — fully streaming, but each pair then
    carries ~2 array payloads through a shuffle.  Both plans are
    equality-tested.

    Zero candidates give a typed empty result: Ray drops all-empty
    blocks, so the joins downstream would see a SCHEMA-LESS input."""
    cands = cands.materialize()
    if cands.count() == 0:
        import ray.data as rd
        sch = docs.schema()
        id_t = dict(zip(sch.names, sch.types))[id_col] if sch else None
        if not isinstance(id_t, pa.DataType):
            # a pandas-backed object column reports `object`, and an
            # empty corpus may have no schema at all
            id_t = pa.string()
        return rd.from_arrow(pa.table({
            "id_a": pa.nulls(0, id_t), "id_b": pa.nulls(0, id_t),
            "jaccard": pa.nulls(0, pa.float64())}))

    def _pair_ids(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays([t["id_a"].combine_chunks(),
                                 t["id_b"].combine_chunks()])
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
    if arrays.size_bytes() <= _BROADCAST_LIMIT_BYTES:
        # TASK pool over whole-block batches (per-batch slice/emit
        # overhead dominates 1024-row batches; measured 20 s → 12 s):
        # class_task builds the verifier state (broadcast arrays +
        # bitmap) at most once per warm worker process
        out = cands.map_batches(
            class_task(VerifyJaccardBroadcast, arrays.to_arrow_refs(),
                       id_col, threshold),
            batch_format="pyarrow", batch_size=None)
        # pin the broadcast blocks to the lazy pipeline (ray#53727: a
        # retried task must still find the refs alive)
        out._graft_pin = arrays
        return out
    # past the cap: co-locate the ALREADY-COMPUTED pair-involved arrays
    # onto the pairs (never re-shingle the corpus for the fallback)
    return verify_jaccard_arrays(
        join_pair_shingles(cands, arrays, id_col=id_col),
        threshold=threshold)


def ngram_jaccard_pairs(docs, *, text_col="text", id_col="doc_id", ngram=5,
                        threshold=0.8, sample_mod=1, max_df=None,
                        df_order=True):
    """Exact character-n-gram Jaccard near-dup pairs — Dataset of
    (id_a, id_b, jaccard) with id_a < id_b and jaccard ≥ threshold.

    Pipeline: prefix-filtered shingle inverted index (one row per
    indexed n-gram; the prefix filter preserves EXACT recall at
    ``threshold`` — see :class:`ShingleRows`; ``df_order`` adds the
    rarest-first counting pre-pass of :func:`shingle_df_map`, recall
    still exact) → partition-grouped candidate pairs with recall-exact
    PPJoin length + positional pruning (one keyed shuffle; ``max_df``
    bounds hot-shingle buckets, ``sample_mod`` sketches the index, both
    lossy) → :func:`exact_jaccard_verify`.  With the defaults the result
    is exactly the brute-force all-pairs answer."""
    df_ref = None
    if df_order:
        import ray
        df_ref = ray.put(shingle_df_map(
            docs, text_col=text_col, id_col=id_col, ngram=ngram,
            sample_mod=sample_mod, doc_sample_mod=4))
    rows = docs.map_batches(
        ShingleRows(threshold, text_col, id_col, ngram, sample_mod,
                    df_map=df_ref),
        batch_format="pyarrow")
    cands = candidate_pairs(rows, id_col, max_run=max_df,
                            threshold=threshold)
    return exact_jaccard_verify(
        cands, docs, ngram=ngram, threshold=threshold, text_col=text_col,
        id_col=id_col)


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
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas()
        tok_lists = [BPE_RE.findall(t or "") for t in texts]
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
        col = batch[self.vec_col].combine_chunks()
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
    id_type = g[id_col].type
    buckets = g["bucket"].to_numpy(zero_copy_only=False)
    order = np.argsort(buckets, kind="stable")
    ids = g[id_col].to_numpy(zero_copy_only=False)[order]
    M_all = _vec_matrix(g[vec_col])
    starts, ends = _segment_starts(buckets[order])
    multi = ends - starts >= 2
    out_a, out_b, out_c = [], [], []
    for s, e in zip(starts[multi], ends[multi]):
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
    spans: "Counter[tuple]" = Counter()
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
    docs = docs.materialize()
    kw = {"k": k, "text_col": text_col, "id_col": id_col}
    pairs = docs.map_batches(_span_pairs_partial, batch_format="pyarrow",
                             fn_kwargs=kw)
    dup_rows = partition_groups(
        pairs, "span", _DupSpanEmit(id_col), batch_format="pyarrow")
    totals = docs.map_batches(_span_totals_partial, batch_format="pyarrow",
                              fn_kwargs=kw)
    combined = combine(totals.union(dup_rows), [id_col],
                       sums_of("n_spans", "n_dup"))

    def _close(t: pa.Table) -> pa.Table:
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
                   dim: int = 64) -> pd.DataFrame:
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
    labeled = _cluster_pairs(pairs).rename(columns={"doc_id": id_col})
    labeled["keep"] = labeled[id_col] == labeled["cluster_id"]
    return labeled
