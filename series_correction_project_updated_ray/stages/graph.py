"""Co-occurrence graph analytics on Ray Data.

The reference engine has no graph module; these operators cover the
graph-shaped jobs a large-scale data platform runs over relational
logs — co-purchase / co-occurrence graphs and their triangle (cluster)
structure, the standard building block for community detection and
recommendation candidate generation.

Scale design (the whole point at 100 TB):

* The co-purchase graph's EDGES come from within-order part pairs.
  Orders are bounded (≤ 7 lineitems in TPC-H-shaped data), so pair
  emission is a constant-factor blow-up of the lineitem scan — one
  partition-group shuffle on ``l_orderkey``, vectorized self-merge per
  partition, never a driver collect.
* Triangle counting uses the degree-oriented wedge plan (the
  "compact-forward" / MapReduce node-iterator algorithm): every edge is
  directed from its (degree, id)-smaller endpoint, wedges are emitted
  per source from ONE partition-group shuffle, and a wedge closes iff
  the oriented edge (v, w) exists — checked by a tagged-union
  co-partition on the wedge's first closing endpoint.  Degree
  orientation bounds per-source fan-out at O(sqrt(m)) amortized, so a
  hot part (present in a constant fraction of orders) cannot make the
  wedge set quadratic the way id-orientation would.
* Degrees attach to edge endpoints via :func:`gather_join` (unique-key
  distributed lookup), NOT a driver-side dict — the node domain is
  |part|, which is data-proportional.
* Every stage's intermediate (edges, oriented edges) is materialized
  ONCE when reused by two consumers, per the house rule that a lazy
  Dataset consumed twice re-executes its whole plan.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .rollup import combine, sums_of


_EMPTY_PAIRS = pd.DataFrame({"u": pd.Series([], dtype=np.int64),
                             "v": pd.Series([], dtype=np.int64)})


class _OrderPairsGroup:
    """Per-partition kernel: distinct within-order part pairs (u < v).

    Orders are whole within a partition (partition key = l_orderkey),
    so the self-merge sees every line of each order.  Group sizes are
    bounded by the order's lineitem count, so the merge blow-up is a
    small constant."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return _EMPTY_PAIRS
        g = g[g["l_orderkey"].notna() & g["l_partkey"].notna()]
        if len(g) == 0:
            return _EMPTY_PAIRS
        op = pd.DataFrame({
            "o": g["l_orderkey"].to_numpy(np.int64),
            "p": g["l_partkey"].to_numpy(np.int64)}).drop_duplicates()
        m = op.merge(op, on="o", suffixes=("_a", "_b"))
        m = m[m["p_a"] < m["p_b"]]
        if len(m) == 0:
            return _EMPTY_PAIRS
        out = pd.DataFrame({"u": m["p_a"].to_numpy(np.int64),
                            "v": m["p_b"].to_numpy(np.int64)})
        return out.drop_duplicates()


def copurchase_edges(lineitem):
    """Distinct co-purchase edges (u < v): parts appearing in the same
    order.  One partition-group shuffle emits per-order pairs with a
    partition-local distinct; :func:`distributed_distinct` closes the
    global dedup (an edge can arise in many orders, hence many
    partitions)."""
    from .joins import distributed_distinct, partition_groups

    def _prep(t: pa.Table) -> pa.Table:
        return t.select(["l_orderkey", "l_partkey"])

    pairs = partition_groups(
        lineitem.map_batches(_prep, batch_format="pyarrow"), "l_orderkey",
        _OrderPairsGroup())
    return distributed_distinct(pairs, ["u", "v"])


class _OrderPairCellsGroup:
    """Per-partition kernel: within-order distinct part pairs with a
    partition-local ORDER count per pair — the mergeable partial for
    support counting (how many orders co-contain the pair)."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"u": pd.Series([], dtype=np.int64),
                              "v": pd.Series([], dtype=np.int64),
                              "c": pd.Series([], dtype=np.int64)})
        if len(g) == 0:
            return empty
        g = g[g["l_orderkey"].notna() & g["l_partkey"].notna()]
        if len(g) == 0:
            return empty
        op = pd.DataFrame({
            "o": g["l_orderkey"].to_numpy(np.int64),
            "p": g["l_partkey"].to_numpy(np.int64)}).drop_duplicates()
        m = op.merge(op, on="o", suffixes=("_a", "_b"))
        m = m[m["p_a"] < m["p_b"]]
        if len(m) == 0:
            return empty
        out = pd.DataFrame({"u": m["p_a"].to_numpy(np.int64),
                            "v": m["p_b"].to_numpy(np.int64),
                            "c": np.int64(1)})
        return out.groupby(["u", "v"], as_index=False, sort=False).sum()


def copurchase_support_edges(lineitem, *, min_support: int = 2):
    """Co-purchase edges with ORDER support ≥ ``min_support`` —
    ``(u, v, support)``.  Same partition-group pair emission as
    :func:`copurchase_edges`, but the partition kernel emits mergeable
    count cells and one keyed Sum closes the global order count before
    the support filter (the classic frequent-itemset pair screen that
    strips coincidence edges from the graph)."""
    import pyarrow.compute as pc

    from .joins import partition_groups

    def _prep(t: pa.Table) -> pa.Table:
        return t.select(["l_orderkey", "l_partkey"])

    cells = combine(partition_groups(
        lineitem.map_batches(_prep, batch_format="pyarrow"), "l_orderkey",
        _OrderPairCellsGroup()), ["u", "v"], [("c", "sum", "support")])

    def _keep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["support"], min_support))
        return pa.table({"u": t["u"].cast(pa.int64()),
                         "v": t["v"].cast(pa.int64()),
                         "support": t["support"].cast(pa.int64())})

    return cells.map_batches(_keep, batch_format="pyarrow")


def copurchase_components(lineitem, *, min_support: int = 2,
                          distributed_cc: bool | None = None):
    """Connected components of the support-filtered co-purchase graph —
    ``(part_key, component_id)`` with ``component_id`` = the component's
    minimum part key (only parts with ≥ 1 surviving edge are labeled).

    The labeling reuses the dedup module's equivalence-tested machinery
    (:func:`..dedup.connected_components_distributed` — min-label
    propagation + pointer jumping, O(log diameter) rounds of bounded
    keyed shuffles), auto-routed against the driver union-find by the
    same pair budget the near-dup pipelines use."""
    import ray.data as rd

    from .dedup import _cluster_pairs

    edges = copurchase_support_edges(
        lineitem, min_support=min_support)
    pairs = edges.map_batches(
        lambda t: pa.table({"id_a": t["u"], "id_b": t["v"]}),
        batch_format="pyarrow")
    labeled = _cluster_pairs(pairs, distributed_cc)
    return rd.from_pandas(pd.DataFrame({
        "part_key": labeled["doc_id"].to_numpy(np.int64),
        "component_id": labeled["cluster_id"].to_numpy(np.int64)}))


class _NeighborPairCellsGroup:
    """Per-partition kernel over undirected adjacency rows (x, n):
    for each center x, every neighbor pair (a < b) — the
    common-neighbor partial for link prediction.  Fan-out is
    degree(x)², so the caller must feed a SUPPORT-FILTERED (sparse)
    graph; the support screen is what bounds hub degrees here."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                              "b": pd.Series([], dtype=np.int64),
                              "c": pd.Series([], dtype=np.int64)})
        if len(g) == 0:
            return empty
        e = pd.DataFrame({"x": g["x"].to_numpy(np.int64),
                          "n": g["n"].to_numpy(np.int64)})
        m = e.merge(e, on="x", suffixes=("_a", "_b"))
        m = m[m["n_a"] < m["n_b"]]
        if len(m) == 0:
            return empty
        out = pd.DataFrame({"a": m["n_a"].to_numpy(np.int64),
                            "b": m["n_b"].to_numpy(np.int64),
                            "c": np.int64(1)})
        return out.groupby(["a", "b"], as_index=False, sort=False).sum()


class _NonAdjacentGroup:
    """Per-partition kernel: common-neighbor pairs (side 0) minus
    existing edges (side 1), co-partitioned on the pair's first node —
    a shuffle anti-join on the composite (a, b) key without packing
    part keys into one integer (which would cap the key domain)."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                              "b": pd.Series([], dtype=np.int64),
                              "c": pd.Series([], dtype=np.int64)})
        if len(g) == 0:
            return empty
        side = g["__side"].to_numpy()
        cand = g[side == 0]
        edge = g[side == 1]
        if len(cand) == 0:
            return empty
        out = pd.DataFrame({"a": cand["a"].to_numpy(np.int64),
                            "b": cand["b"].to_numpy(np.int64),
                            "c": cand["c"].to_numpy(np.int64)})
        if len(edge) == 0:
            return out
        m = out.merge(
            pd.DataFrame({"a": edge["a"].to_numpy(np.int64),
                          "b": edge["b"].to_numpy(np.int64)}),
            on=["a", "b"], how="left", indicator=True)
        keep = m["_merge"].to_numpy() == "left_only"
        return out[keep]


def link_prediction_jaccard(lineitem, *, min_support: int = 2,
                            k: int = 50):
    """Top-``k`` link predictions over the support-filtered co-purchase
    graph: non-adjacent part pairs ranked by neighborhood Jaccard
    ``|N(a)∩N(b)| / |N(a)∪N(b)|`` — the classic common-neighbors
    recommender baseline, with ``(jaccard DESC, a, b)`` deterministic
    order.

    One partition-group shuffle emits per-center neighbor-pair cells
    (fan-out degree², bounded by the support screen); a keyed Sum
    closes common-neighbor counts; existing edges are removed by a
    tagged-union co-partition anti-join on the composite pair key;
    degrees attach via two :func:`gather_join` lookups; every block
    prunes to its local top-k before the final global sort-limit, so
    the sort sees ≤ k·|blocks| rows."""
    import ray.data as rd

    from .joins import gather_join, partition_groups
    from ..functions.rounding import round_half_away

    edges = copurchase_support_edges(
        lineitem, min_support=min_support) \
        .map_batches(lambda t: t.select(["u", "v"]),
                     batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return rd.from_arrow(pa.table({
            "part_a": pa.array([], pa.int64()),
            "part_b": pa.array([], pa.int64()),
            "common_n": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())}))

    def _und(t: pa.Table) -> pa.Table:
        return pa.table({
            "x": pa.concat_arrays([t["u"].combine_chunks(),
                                   t["v"].combine_chunks()]),
            "n": pa.concat_arrays([t["v"].combine_chunks(),
                                   t["u"].combine_chunks()])})

    und = edges.map_batches(_und, batch_format="pyarrow")
    cn = combine(partition_groups(und, "x", _NeighborPairCellsGroup()),
                 ["a", "b"], sums_of("c"))

    def _tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            c = t["c"].cast(pa.int64()) if side == 0 \
                else pa.array(np.zeros(len(t), dtype=np.int64))
            names = ("a", "b") if side == 0 else ("u", "v")
            return pa.table({
                "a": t[names[0]].cast(pa.int64()),
                "b": t[names[1]].cast(pa.int64()), "c": c,
                "__side": pa.array(np.full(len(t), side, dtype=np.int8))})
        fn.__name__ = f"tag_side{side}"
        return fn

    nonadj = partition_groups(
        cn.map_batches(_tag(0), batch_format="pyarrow")
        .union(edges.map_batches(_tag(1), batch_format="pyarrow")),
        "a", _NonAdjacentGroup())

    def _deg_cells(t: pa.Table) -> pa.Table:
        nodes = np.concatenate([t["u"].to_numpy(zero_copy_only=False),
                                t["v"].to_numpy(zero_copy_only=False)])
        uniq, cnt = np.unique(nodes.astype(np.int64), return_counts=True)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "d": pa.array(cnt.astype(np.int64))})

    deg = combine(edges.map_batches(_deg_cells, batch_format="pyarrow"),
                  ["node"], sums_of("d")).materialize()

    scored = gather_join(
        gather_join(nonadj, deg, "a", "node",
                    attach_cols=["d"], attach_as={"d": "da"}),
        deg, "b", "node", attach_cols=["d"], attach_as={"d": "db"})

    def _score(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        da = t["da"].to_numpy(zero_copy_only=False).astype(np.int64)
        db = t["db"].to_numpy(zero_copy_only=False).astype(np.int64)
        j = c.astype(np.float64) / (da + db - c).astype(np.float64)
        out = pa.table({"part_a": t["a"].cast(pa.int64()),
                        "part_b": t["b"].cast(pa.int64()),
                        "common_n": pa.array(c), "jaccard": pa.array(j)})
        # per-block prune: only a block's own top-k can survive the
        # global (jaccard DESC, a, b) limit
        if len(out) > k:
            df = out.to_pandas().sort_values(
                ["jaccard", "part_a", "part_b"],
                ascending=[False, True, True]).head(k)
            out = pa.Table.from_pandas(df, preserve_index=False)
        return out
    _score.__name__ = "score_prune_topk"

    top = scored.map_batches(_score, batch_format="pyarrow") \
        .sort(["jaccard", "part_a", "part_b"],
              descending=[True, False, False]).limit(k)

    def _round(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("jaccard"), "jaccard",
            pa.array(round_half_away(
                t["jaccard"].to_numpy(zero_copy_only=False), 6)))

    return top.map_batches(_round, batch_format="pyarrow")


class _WedgesGroup:
    """Per-partition kernel over oriented edges (s, t, dt): emit every
    wedge (apex a=s; closing pair v→w in the SAME (degree, id)
    orientation order edges use, so the closing probe matches the
    stored direction) via a self-merge on the source.  Degree
    orientation bounds per-source out-degree, so the merge output is
    the O(m^1.5) wedge set."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                              "v": pd.Series([], dtype=np.int64),
                              "w": pd.Series([], dtype=np.int64)})
        if len(g) == 0:
            return empty
        e = pd.DataFrame({"s": g["s"].to_numpy(np.int64),
                          "t": g["t"].to_numpy(np.int64),
                          "dt": g["dt"].to_numpy(np.int64)})
        m = e.merge(e, on="s", suffixes=("_a", "_b"))
        da, db = m["dt_a"].to_numpy(), m["dt_b"].to_numpy()
        ta, tb = m["t_a"].to_numpy(), m["t_b"].to_numpy()
        # keep one of each unordered pair, (deg, id)-ascending — the
        # orientation the closing edge (v, w) is stored under
        m = m[(da < db) | ((da == db) & (ta < tb))]
        if len(m) == 0:
            return empty
        return pd.DataFrame({"a": m["s"].to_numpy(np.int64),
                             "v": m["t_a"].to_numpy(np.int64),
                             "w": m["t_b"].to_numpy(np.int64)})


class _CloseCountGroup:
    """Per-partition kernel: wedges and oriented edges co-partitioned
    on the closing pair's first endpoint; a wedge (a; v, w) is a
    triangle iff oriented edge (v, w) exists.  Emits per-node triangle
    COUNT CELLS (each triangle credits its three vertices), so the
    final exchange carries ≤ 3·|nodes-in-partition| rows, not
    per-triangle rows."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                              "c": pd.Series([], dtype=np.int64)})
        if len(g) == 0:
            return empty
        side = g["__side"].to_numpy()
        wed = g[side == 0]
        edg = g[side == 1]
        if len(wed) == 0 or len(edg) == 0:
            return empty
        tri = pd.DataFrame({
            "a": wed["a"].to_numpy(np.int64),
            "v": wed["v"].to_numpy(np.int64),
            "w": wed["w"].to_numpy(np.int64)}).merge(
            pd.DataFrame({"v": edg["v"].to_numpy(np.int64),
                          "w": edg["w"].to_numpy(np.int64)}),
            on=["v", "w"])
        if len(tri) == 0:
            return empty
        nodes = np.concatenate([tri["a"].to_numpy(np.int64),
                                tri["v"].to_numpy(np.int64),
                                tri["w"].to_numpy(np.int64)])
        uniq, cnt = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": uniq, "c": cnt.astype(np.int64)})


def _triangle_plan(lineitem):
    """Shared plan: (deg, counted) Datasets over the co-purchase graph
    — ``deg`` = (node, d) endpoint degrees, ``counted`` = (node,
    triangles) per-node triangle participation (zero-triangle nodes
    absent).  Returns (None, None) on an edgeless input."""
    from .joins import gather_join, partition_groups

    edges = copurchase_edges(lineitem).materialize()
    if edges.count() == 0:
        return None, None

    def _deg_cells(t: pa.Table) -> pa.Table:
        nodes = np.concatenate([t["u"].to_numpy(zero_copy_only=False),
                                t["v"].to_numpy(zero_copy_only=False)])
        uniq, cnt = np.unique(nodes.astype(np.int64), return_counts=True)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "d": pa.array(cnt.astype(np.int64))})

    deg = combine(edges.map_batches(_deg_cells, batch_format="pyarrow"),
                  ["node"], sums_of("d")).materialize()

    def _orient(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        du = t["du"].to_numpy(zero_copy_only=False).astype(np.int64)
        dv = t["dv"].to_numpy(zero_copy_only=False).astype(np.int64)
        # direct u→v when (du, u) < (dv, v); u != v so ties resolve on
        # id; dt (target degree) rides along so the wedge kernel can
        # order closing pairs by the same criterion
        swap = (dv < du) | ((dv == du) & (v < u))
        return pa.table({"s": pa.array(np.where(swap, v, u)),
                         "t": pa.array(np.where(swap, u, v)),
                         "dt": pa.array(np.where(swap, du, dv))})

    oe = gather_join(
        gather_join(edges, deg, "u", "node",
                    attach_cols=["d"], attach_as={"d": "du"}),
        deg, "v", "node", attach_cols=["d"], attach_as={"d": "dv"}) \
        .map_batches(_orient, batch_format="pyarrow").materialize()

    wedges = partition_groups(oe, "s", _WedgesGroup())

    def _tag_wedge(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": t["a"], "v": t["v"], "w": t["w"],
            "__side": pa.array(np.zeros(len(t), dtype=np.int8))})

    def _tag_edge(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": pa.array(np.full(len(t), -1, dtype=np.int64)),
            "v": t["s"], "w": t["t"],
            "__side": pa.array(np.ones(len(t), dtype=np.int8))})

    tagged = wedges.map_batches(_tag_wedge, batch_format="pyarrow") \
        .union(oe.map_batches(_tag_edge, batch_format="pyarrow"))
    cells = partition_groups(tagged, "v", _CloseCountGroup())
    counted = combine(cells, ["node"], [("c", "sum", "triangles")])
    return deg, counted


def copurchase_triangles(lineitem):
    """Per-part triangle participation counts over the co-purchase
    graph — ``(part_key, triangles)`` where ``triangles`` is the number
    of co-purchase triangles the part belongs to.

    Plan: edges (one partition shuffle + global distinct) → endpoint
    degrees (count cells + keyed Sum) → degrees gathered onto both
    endpoints (two :func:`gather_join` lookups — the node domain is
    data-proportional, never a driver dict) → degree-(then id-)
    orientation → wedge emission (one partition shuffle on the source)
    → tagged-union co-partition of wedges and oriented edges on the
    closing pair's first endpoint → per-node count cells → keyed Sum.
    Output is bounded by |part|, orientation-invariant, and exactly the
    textbook triangle count (each triangle credited once per vertex)."""
    import ray.data as rd

    _, counted = _triangle_plan(lineitem)
    if counted is None:
        return rd.from_arrow(pa.table({
            "part_key": pa.array([], pa.int64()),
            "triangles": pa.array([], pa.int64())}))

    def _close(t: pa.Table) -> pa.Table:
        return pa.table({
            "part_key": t["node"].cast(pa.int64()),
            "triangles": t["triangles"].cast(pa.int64())})

    return counted.map_batches(_close, batch_format="pyarrow")


def clustering_coefficient(lineitem):
    """Local clustering coefficient per part over the co-purchase
    graph — ``(part_key, degree, triangles, coeff)`` for every node
    with degree ≥ 2, ``coeff = 2·T / (d·(d−1))`` rounded half-away to
    6dp (zero-triangle nodes INCLUDED with coeff 0).

    Composes the shared triangle plan with the degree table by a
    tagged-cell union + ONE keyed Sum — (node, d, 0) cells from the
    degree side, (node, 0, T) cells from the triangle side — so the
    zero-fill outer join costs no join at all; the close is a
    vectorized integer-ratio map."""
    import ray.data as rd
    import pyarrow.compute as pc

    from ..functions.rounding import round_half_away

    deg, counted = _triangle_plan(lineitem)
    if deg is None:
        return rd.from_arrow(pa.table({
            "part_key": pa.array([], pa.int64()),
            "degree": pa.array([], pa.int64()),
            "triangles": pa.array([], pa.int64()),
            "coeff": pa.array([], pa.float64())}))

    def _deg_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"].cast(pa.int64()),
            "d": t["d"].cast(pa.int64()),
            "t": pa.array(np.zeros(len(t), dtype=np.int64))})

    def _tri_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"].cast(pa.int64()),
            "d": pa.array(np.zeros(len(t), dtype=np.int64)),
            "t": t["triangles"].cast(pa.int64())})

    merged = combine(
        deg.map_batches(_deg_side, batch_format="pyarrow")
        .union(counted.map_batches(_tri_side, batch_format="pyarrow")),
        ["node"], sums_of("d", "t"))

    def _close(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["d"], 2))
        d = t["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        tri = t["t"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = 2.0 * tri / (d * (d - 1)).astype(np.float64)
        return pa.table({
            "part_key": t["node"].cast(pa.int64()),
            "degree": pa.array(d), "triangles": pa.array(tri),
            "coeff": pa.array(round_half_away(c, 6))})

    return merged.map_batches(_close, batch_format="pyarrow")
