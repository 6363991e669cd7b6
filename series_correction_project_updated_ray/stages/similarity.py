"""Approximate/exact nearest-neighbor search over an embedding column.

* :func:`knn_brute_force` — the correctness baseline: every batch computes
  cosine against a BROADCAST query matrix (``ray.put`` once, read per actor),
  emits only its local top-k, and a final tiny sort picks the global top-k.
  The full corpus is never materialized; shipped data ≈ batches × k rows.
* :func:`knn_ivf` — the scale path: k-means-ish coarse quantizer (trained on
  a sample), vectors bucketed by nearest centroid; queries probe the
  ``nprobe`` nearest buckets only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .rollup import combine, sums_of
from ..functions.rounding import round_half_away


def _vec_matrix(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = np.asarray(col.flatten(), dtype=np.float64)
    return flat.reshape(len(col), -1)


class BatchTopK:
    """Per-batch cosine top-k against a broadcast query vector."""

    def __init__(self, query_ref, k: int, vec_col="embedding", id_col="vec_id"):
        import ray
        q = np.asarray(ray.get(query_ref), dtype=np.float64)
        self.q = q / max(np.linalg.norm(q), 1e-12)
        self.k, self.vec_col, self.id_col = k, vec_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        M = _vec_matrix(batch[self.vec_col])
        norms = np.maximum(np.linalg.norm(M, axis=1), 1e-12)
        sims = (M @ self.q) / norms
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        if len(sims) > self.k:
            # prune with the FULL ordering (sim desc, id asc) so block-level
            # cuts never violate the documented deterministic tie-break
            order = np.lexsort((ids, -sims))[:self.k]
            sims, ids = sims[order], ids[order]
        return pa.table({self.id_col: pa.array(ids),
                         "cosine_sim": pa.array(sims)})


def knn_brute_force(embeddings, query_vec, k: int = 10,
                    vec_col="embedding", id_col="vec_id", round_to=6):
    """Global cosine top-k; deterministic tie-break by ascending id."""
    import ray
    qref = ray.put(np.asarray(query_vec, dtype=np.float64))
    from .taskcache import class_task
    partial = embeddings.map_batches(
        class_task(BatchTopK, qref, k, vec_col, id_col),
        batch_format="pyarrow")
    df = partial.to_pandas()  # ≤ k rows per block — tiny
    df = df.sort_values(["cosine_sim", id_col],
                        ascending=[False, True]).head(k)
    if round_to is not None:
        df["cosine_sim"] = round_half_away(df["cosine_sim"].to_numpy(), round_to)
    return df.reset_index(drop=True)


class IVFAssign:
    """map_batches: assign each vector to its nearest coarse centroid."""

    def __init__(self, centroids_ref, vec_col="embedding", id_col="vec_id"):
        import ray
        C = np.asarray(ray.get(centroids_ref), dtype=np.float64)
        self.C = C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)
        self.vec_col, self.id_col = vec_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        M = _vec_matrix(batch[self.vec_col])
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        cell = np.argmax(Mn @ self.C.T, axis=1).astype(np.int32)
        return batch.append_column("ivf_cell", pa.array(cell))


def train_centroids(embeddings, n_centroids=16, sample_frac=0.25, seed=7,
                    iters=10, vec_col="embedding", max_train_rows=100_000):
    """Lloyd iterations on a driver-side SAMPLE (the classic IVF recipe:
    train small, assign big).

    The training set is capped at ``max_train_rows`` REGARDLESS of the
    corpus size: ``random_sample`` streams, and ``limit`` truncates
    execution, so the driver never holds more than the cap — a fixed row
    budget, not a corpus-proportional fraction.  (At test scale the
    sample is under the cap, so results are unchanged; for truly huge
    corpora prefer ``kmeans_distributed``, which keeps vectors off the
    driver entirely.)"""
    sample = (embeddings.random_sample(sample_frac, seed=seed)
              .limit(max_train_rows).take_all())
    X = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in sample])
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(n_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for j in range(len(C)):
            members = X[assign == j]
            if len(members):
                c = members.mean(axis=0)
                C[j] = c / max(np.linalg.norm(c), 1e-12)
    return C


def knn_ivf(embeddings, query_vec, k=10, n_centroids=16, nprobe=4,
            vec_col="embedding", id_col="vec_id", seed=7):
    """IVF-bucketed ANN: probe only the nprobe nearest cells."""
    import ray
    C = train_centroids(embeddings, n_centroids, seed=seed, vec_col=vec_col)
    cref = ray.put(C)
    from .taskcache import class_task
    assigned = embeddings.map_batches(
        class_task(IVFAssign, cref, vec_col, id_col),
        batch_format="pyarrow")
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / max(np.linalg.norm(q), 1e-12)
    probe = set(np.argsort(-(C @ qn))[:nprobe].tolist())
    probed = assigned.map_batches(
        lambda t: t.filter(
            pa.compute.is_in(t["ivf_cell"],
                             value_set=pa.array(sorted(probe), pa.int32()))),
        batch_format="pyarrow")
    return knn_brute_force(probed, query_vec, k, vec_col, id_col)


class _KMeansPartial:
    """map_batches: assign each vector to its nearest centroid and emit
    per-cluster PARTIAL sums — ≤ n_clusters rows per batch (a flattened
    sum vector + count), so each Lloyd iteration moves kilobytes per
    block regardless of block size."""

    def __init__(self, centroids_ref, vec_col="embedding"):
        import ray
        self.C = np.asarray(ray.get(centroids_ref), dtype=np.float64)
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        X = _vec_matrix(batch[self.vec_col])
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        assign = np.argmax(Xn @ self.C.T, axis=1)
        clusters, sums, counts = [], [], []
        for j in np.unique(assign):
            m = assign == j
            clusters.append(int(j))
            sums.append(Xn[m].sum(axis=0))
            counts.append(int(m.sum()))
        return pa.table({
            "cluster": pa.array(np.asarray(clusters, np.int64)),
            "vsum": pa.array([s.tolist() for s in sums],
                             pa.list_(pa.float64())),
            "count": pa.array(np.asarray(counts, np.int64)),
        })


def kmeans_distributed(embeddings, n_clusters=8, iters=10, seed=7,
                       vec_col="embedding", id_col="vec_id"):
    """Distributed Lloyd k-means on the spherical (cosine) metric.

    The ITERATIVE-algorithm pattern on Ray Data: the driver holds only the
    k×d centroid matrix; each iteration broadcasts it (``ray.put`` once,
    read per actor), a map_batches pass reduces every block to ≤k partial
    rows, and the driver folds those partials (k×blocks rows — tiny) into
    the next centroids.  The vectors themselves never leave the cluster
    and are re-streamed from the object store each round.

    Returns ``(centroids, assignments_dataset)`` where assignments has
    (id_col, cluster, cos_sim)."""
    import ray

    # pin the working set in the object store ONCE — a lazy dataset would
    # re-execute the parquet read on every iteration; materialized blocks
    # are shared zero-copy across rounds and spill under pressure
    embeddings = embeddings.select_columns([id_col, vec_col]).materialize()

    # deterministic farthest-point init over a small id-prefix sample:
    # greedy max-min-distance seeding avoids the merged-cluster failure a
    # naive first-k init hits when the first k rows share a cluster.  The
    # prefix comes from the distributed top-k (per-block partial → one
    # final block) — a .sort(id).limit(...) here would be a whole-dataset
    # all-to-all shuffle just to fetch ~50 rows
    from .relational import topk_by
    pool_size = max(50, 8 * n_clusters)
    pool = topk_by(embeddings, [id_col], [False], pool_size).take_all()
    P = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in pool])
    P /= np.maximum(np.linalg.norm(P, axis=1, keepdims=True), 1e-12)
    chosen = [0]
    max_sim = P @ P[0]
    for _ in range(1, min(n_clusters, len(P))):
        nxt = int(np.argmin(max_sim))
        chosen.append(nxt)
        max_sim = np.maximum(max_sim, P @ P[nxt])
    C = P[chosen].copy()

    def _partial_pass(batch: pa.Table, *, ref) -> pa.Table:
        # task-based (no actor pool): a fresh pool per iteration would pay
        # actor startup every round; the broadcast centroids are a
        # zero-copy shared-memory ray.get per task
        return _KMeansPartial(ref, vec_col=vec_col)(batch)

    for _ in range(iters):
        ref = ray.put(C)
        partials = embeddings.map_batches(
            _partial_pass, batch_format="pyarrow",
            fn_kwargs={"ref": ref}).to_pandas()
        # deterministic driver-side fold of the tiny partial table
        partials = partials.sort_values(["cluster"], kind="stable")
        newC = C.copy()
        for j, g in partials.groupby("cluster"):
            s = np.sum(np.stack([np.asarray(v) for v in g["vsum"]]), axis=0)
            n = g["count"].sum()
            if n > 0:
                c = s / n
                newC[int(j)] = c / max(np.linalg.norm(c), 1e-12)
        if np.allclose(newC, C, atol=1e-12):
            C = newC
            break
        C = newC

    ref = ray.put(C)

    class _Assign:
        def __init__(self):
            self.C = np.asarray(ray.get(ref), dtype=np.float64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            X = _vec_matrix(batch[vec_col])
            Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True),
                                1e-12)
            sims = Xn @ self.C.T
            assign = np.argmax(sims, axis=1)
            return pa.table({
                id_col: batch[id_col],
                "cluster": pa.array(assign.astype(np.int64)),
                "cos_sim": pa.array(np.round(sims[np.arange(len(assign)),
                                                  assign], 6)),
            })

    assignments = embeddings.map_batches(_Assign, batch_format="pyarrow",
                                         concurrency=2)
    return C, assignments


def embedding_centroid_dist(embeddings, *, label_col: str = "label",
                            vec_col: str = "embedding",
                            id_col: str = "vec_id"):
    """Per-vector L2 distance to its own label's centroid — the
    "embedding outlier" signal (vectors far from their cluster center).

    Centroids are EXACT: per-dim sums run on 2^20-scaled int64 (a
    power-of-two scale, so the float32→double element values scale
    exactly), one (label, dim) groupby of ≤ |labels|·dims partial rows
    per block, and the tiny centroid table broadcasts into the distance
    pass.  Per-row reductions replay DuckDB's sequential element order
    (np.cumsum, verified bit-identical to ``list_distance``)."""
    SCALE = float(1 << 20)

    def _partial(batch: pa.Table) -> pa.Table:
        m = _vec_matrix(batch[vec_col])
        labels = batch[label_col].to_numpy(zero_copy_only=False)
        scaled = np.copysign(np.floor(np.abs(m) * SCALE + 0.5), m) \
            .astype(np.int64)
        codes, uniq = pd.factorize(labels)
        # NULL labels never match the oracle's JOIN USING (label) — drop
        # them (factorize codes them -1, which would otherwise add their
        # vectors into the LAST label's centroid sums, and bincount
        # raises on negative codes)
        valid = codes >= 0
        if not valid.all():
            scaled, codes = scaled[valid], codes[valid]
        dims = m.shape[1]
        sums = np.zeros((len(uniq), dims), dtype=np.int64)
        np.add.at(sums, codes, scaled)
        counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        lab = np.repeat(uniq, dims)
        dim = np.tile(np.arange(dims, dtype=np.int64), len(uniq))
        return pa.table({
            label_col: pa.array(lab),
            "dim": pa.array(dim),
            "ssum": pa.array(sums.ravel()),
            "n": pa.array(np.repeat(counts, dims)),
        })

    stats = combine(embeddings.map_batches(_partial, batch_format="pyarrow"),
                    [label_col, "dim"],
                    sums_of("ssum", "n")).to_pandas()
    # |labels| × dims rows — driver-sized by construction
    cents: dict = {}
    for lab, grp in stats.groupby(label_col):
        grp = grp.sort_values("dim")
        # identical op order as the oracle: (double(ssum)/SCALE)/n —
        # each (label, dim) row's n is that label's vector count
        cents[lab] = (grp["ssum"].to_numpy(np.int64).astype(np.float64)
                      / SCALE) / grp["n"].to_numpy(np.int64) \
            .astype(np.float64)

    def _dist(batch: pa.Table) -> pa.Table:
        m = _vec_matrix(batch[vec_col])
        labels = batch[label_col].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(labels)
        # NULL-label rows are dropped (inner-join oracle semantics; see
        # the matching guard in _partial)
        valid = codes >= 0
        if not valid.all():
            batch = batch.filter(pa.array(valid))
            m, codes = m[valid], codes[valid]
        cmat = np.stack([cents[u] for u in uniq]) if len(uniq) \
            else np.zeros((0, m.shape[1] if m.ndim == 2 else 0))
        diff = m - cmat[codes]
        # sequential per-row reduction == DuckDB list_distance
        d = np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1]) if m.size \
            else np.empty(0)
        return pa.table({
            id_col: batch[id_col],
            label_col: batch[label_col],
            "dist": pa.array(round_half_away(d, 6)),
        })

    return embeddings.map_batches(_dist, batch_format="pyarrow")


# --- per-dimension corpus statistics -----------------------------------------

def _dim_stats_partial(batch: pa.Table, vec_col: str) -> pa.Table:
    """Batch-local per-dimension partials over 1e-6-quantized embedding
    values (``q = round(x·10⁶)`` — exact int64, the quantization that
    makes the float32 column's corpus moments order-free): per pos
    (1-based) n / Σq / Σq² / min / max.  Handles ragged lists."""
    from ..functions.rounding import scaled_int
    if vec_col not in batch.column_names or len(batch) == 0:
        return pa.table({
            "pos": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "s": pa.array([], pa.int64()),
            "s2": pa.array([], pa.int64()),
            "mn": pa.array([], pa.int64()),
            "mx": pa.array([], pa.int64())})
    col = batch[vec_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = np.asarray(col.flatten(), dtype=np.float64)
    offs = col.offsets.to_numpy().astype(np.int64)
    flat = flat[..., :]                      # values already trimmed by flatten()
    lens = np.diff(offs)
    pos = (np.arange(len(flat))
           - np.repeat(offs[:-1] - offs[0], lens)) + 1
    q = scaled_int(flat, 1_000_000)
    d = int(lens.max()) if len(lens) else 0
    n = np.bincount(pos - 1, minlength=d)
    s = np.zeros(d, dtype=np.int64)
    s2 = np.zeros(d, dtype=np.int64)
    np.add.at(s, pos - 1, q)
    np.add.at(s2, pos - 1, q * q)
    mn = np.full(d, np.iinfo(np.int64).max)
    mx = np.full(d, np.iinfo(np.int64).min)
    np.minimum.at(mn, pos - 1, q)
    np.maximum.at(mx, pos - 1, q)
    return pa.table({
        "pos": pa.array(np.arange(1, d + 1)),
        "n": pa.array(n.astype(np.int64)),
        "s": pa.array(s),
        "s2": pa.array(s2),
        "mn": pa.array(mn),
        "mx": pa.array(mx)})


def _dim_stats_close(t: pa.Table) -> pa.Table:
    """Close per-dimension moments: exact Python-int D = nΣq² − S²
    (the per-row 128-bit work never exists), one double chain per dim."""
    import math

    from ..functions.rounding import round_half_away
    pos = t["pos"].to_numpy(zero_copy_only=False)
    n = t["n"].to_numpy(zero_copy_only=False)
    s = t["s"].to_numpy(zero_copy_only=False)
    s2 = t["s2"].to_numpy(zero_copy_only=False)
    mn = t["mn"].to_numpy(zero_copy_only=False)
    mx = t["mx"].to_numpy(zero_copy_only=False)
    mean = np.empty(len(pos))
    std = np.full(len(pos), np.nan)
    for i in range(len(pos)):
        ni, si = int(n[i]), int(s[i])
        mean[i] = (float(si) / float(ni)) / 1_000_000.0
        d_exact = ni * int(s2[i]) - si * si
        if ni >= 2 and d_exact > 0:
            std[i] = math.sqrt(float(d_exact)
                               / float(ni * (ni - 1))) / 1_000_000.0
    return pa.table({
        "pos": pa.array(pos.astype(np.int64)),
        "n": pa.array(n.astype(np.int64)),
        "mean": pa.array(round_half_away(mean, 6)),
        "std": pa.array(round_half_away(std, 6)),
        "vmin": pa.array(round_half_away(
            mn.astype(np.float64) / 1_000_000.0, 6)),
        "vmax": pa.array(round_half_away(
            mx.astype(np.float64) / 1_000_000.0, 6))})


def embedding_dim_stats(embeddings, *, vec_col: str = "embedding"):
    """Per-dimension corpus statistics of the embedding column (mean /
    std / min / max per position) — the whitening / normalization prep
    pass.  Batch-local integer partials over 1e-6-quantized values →
    ONE |dim|-row Sum/Min/Max groupby → a single-block close; the
    vector stream never shuffles."""
    import functools

    partials = embeddings.map_batches(
        functools.partial(_dim_stats_partial, vec_col=vec_col),
        batch_format="pyarrow")
    agg = combine(partials, ["pos"], [*sums_of("n", "s", "s2"),
                                       ("mn", "min", "mn"),
                                       ("mx", "max", "mx")])
    return agg.map_batches(_dim_stats_close, batch_format="pyarrow")


# --- int8 quantization error report ------------------------------------------

def _quantize_batch(batch: pa.Table, vec_col: str,
                    id_col: str) -> pa.Table:
    """Symmetric int8 quantization error per vector: ``scale =
    max|x|/127`` (order-free double max), ``q = round(x/scale)`` (half
    away from zero, DuckDB ``round``), error = ``x − q·scale``.  The
    max-abs error is order-free; the MSE numerator folds LEFT IN
    POSITION ORDER (one vector add per position across the batch) —
    the oracle's ``list_reduce`` operand order.  All-zero vectors emit
    scale 0 with zero error."""
    from ..functions.rounding import round_half_away
    if vec_col not in batch.column_names or len(batch) == 0:
        return pa.table({
            id_col: pa.array([], pa.int64()),
            "dim": pa.array([], pa.int64()),
            "scale": pa.array([], pa.float64()),
            "max_abs_err": pa.array([], pa.float64()),
            "mse": pa.array([], pa.float64())})
    M = _vec_matrix(batch[vec_col])
    n, dim = M.shape
    amax = np.max(np.abs(M), axis=1)
    scale = amax / 127.0
    err = np.zeros_like(M)
    nz = scale > 0
    if nz.any():
        q = round_half_away(M[nz] / scale[nz, None], 0)
        err[nz] = M[nz] - q * scale[nz, None]
    acc = np.zeros(n)
    for j in range(dim):                    # position-order fold
        acc = acc + err[:, j] * err[:, j]
    return pa.table({
        id_col: batch[id_col],
        "dim": pa.array(np.full(n, dim, dtype=np.int64)),
        "scale": pa.array(round_half_away(scale, 6)),
        "max_abs_err": pa.array(round_half_away(
            np.max(np.abs(err), axis=1), 6)),
        "mse": pa.array(round_half_away(acc / float(dim), 6))})


def embedding_quantize(embeddings, *, vec_col: str = "embedding",
                       id_col: str = "vec_id"):
    """Per-vector symmetric int8 quantization error report (scale,
    max abs error, MSE) — the compression-accuracy screen before
    shipping embeddings to an int8 ANN index.  Map-only, fully
    vectorized, no shuffle."""
    import functools
    return embeddings.map_batches(
        functools.partial(_quantize_batch, vec_col=vec_col,
                          id_col=id_col),
        batch_format="pyarrow")
