"""Relational building blocks: unpivot/melt, broadcast lookup join,
filters, small summary aggregates (reference operators S6/A9, J2/J4,
A7/A8, K3 as query-able stages).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .joins import _segment_starts, key_runs, partition_groups
from .rollup import combine, sums_of
from ..functions.sanitize import sanitize_batch


def unpivot(batch: pa.Table, id_cols: list[str], value_cols: list[str],
            var_name="measure", value_name="value") -> pa.Table:
    """Arrow melt: wide value columns → (id_cols…, measure, value) rows.

    The reference's load_identified_outliers melt
    (/root/reference/scripts/apply_refined_corrections.py:54-59) as a
    streaming batch transform — builds output columns with numpy tiling,
    no per-row Python.
    """
    n = len(batch)
    k = len(value_cols)
    out: dict[str, pa.Array] = {}
    for c in id_cols:
        col = batch[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # repeat the id column k times (one copy per measure)
        out[c] = pa.concat_arrays([col] * k)
    measure = np.concatenate([np.full(n, c, dtype=object)
                              for c in value_cols])
    values = np.concatenate(
        [batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
         for c in value_cols])
    out[var_name] = pa.array(measure, pa.string())
    out[value_name] = pa.array(values)
    return pa.table(out)


def unpivot_threshold(ds, id_cols, value_cols, threshold=0.1,
                      var_name="measure", value_name="value"):
    """melt + |value| >= threshold filter (NaN excluded, as in the
    reference: NaN >= t is False)."""
    import pyarrow.compute as pc

    def _stage(batch: pa.Table) -> pa.Table:
        t = unpivot(batch, id_cols, value_cols, var_name, value_name)
        keep = pc.greater_equal(pc.abs(t[value_name]), threshold)
        keep = pc.fill_null(keep, False)
        return t.filter(keep)

    return ds.map_batches(_stage, batch_format="pyarrow")


class BroadcastLookup:
    """Broadcast hash-join stage: small side shipped once via ray.put,
    probed per batch with a vectorized pandas map (J2/J4 pattern —
    never a shuffle)."""

    def __init__(self, lookup_ref, key_col: str, out_cols: dict[str, str]):
        import ray
        self.lookup: pd.DataFrame = ray.get(lookup_ref)
        self.key_col = key_col
        self.out_cols = out_cols  # {lookup_col: output_name}

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_pandas()
        for src, dst in self.out_cols.items():
            mapped = keys.map(self.lookup[src])
            batch = batch.append_column(
                dst, pa.Array.from_pandas(mapped))
        return batch


def broadcast_enrich(ds, small_df: pd.DataFrame, key_col: str,
                     index_col: str, out_cols: dict[str, str],
                     concurrency: int | None = None):
    """Enrich ``ds`` with columns from ``small_df`` (indexed by
    ``index_col``) matched on ``ds[key_col]``.

    Default runs as a task-cached stage (``class_task``): the lookup
    builds once per warm worker and the stage reserves NO fixed actor
    slots — a pipeline composing several enrich stages therefore can't
    starve its own shuffle of CPUs on a small cluster (two fixed
    ``concurrency=2`` pools deadlocked a 3-join chain at 4 CPUs).
    Pass an int to pin a dedicated actor pool instead (only worth it
    when the lookup is expensive enough to amortize a process)."""
    import ray

    from .taskcache import class_task
    ref = ray.put(small_df.set_index(index_col))
    if concurrency is None:
        return ds.map_batches(class_task(BroadcastLookup, ref, key_col,
                                         out_cols),
                              batch_format="pyarrow")
    return ds.map_batches(BroadcastLookup, batch_format="pyarrow",
                          concurrency=concurrency,
                          fn_constructor_args=(ref, key_col, out_cols))


def sanitize_dataset(ds):
    """Formula-injection sanitizer stage in front of any text export sink."""
    return ds.map_batches(sanitize_batch, batch_format="pyarrow")


# --- exact-arithmetic pricing aggregates (TPC-H Q1/Q6 style) ---------------

def _scaled_cents(col, factor: int = 100) -> np.ndarray:
    """Exact int64 of a 2dp-decimal-valued float column (price → cents).

    Delegates to the shared half-away ``scaled_int`` so the tie-break
    convention matches DuckDB round() even for inputs wider than 2
    decimals (2dp inputs are unchanged: x*100 never lands exactly on .5).
    """
    from ..functions.rounding import scaled_int
    return scaled_int(col.to_numpy(zero_copy_only=False), factor)


_HI_LO = 10**9


def _split_hi_lo(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Widen an int64 partial-sum column to (hi, lo) base-1e9 limbs so the
    GLOBAL Sum of each limb stays far inside int64 at any row count (a
    single-limb global charge sum wraps around ~2.4e8 TPC-H rows)."""
    return v // _HI_LO, v % _HI_LO


def _pricing_partial(batch: pa.Table) -> pa.Table:
    """Per-batch combiner for pricing_summary: ≤ |flag×status| (~6) rows of
    exact integer partial sums leave each block, so the one global shuffle
    moves a few hundred bytes per block regardless of block size.
    dropna=False: a null group key must surface (and fail the shuffle
    loudly), never silently drop its rows — the engine-wide invariant."""
    q100 = _scaled_cents(batch["l_quantity"])
    p100 = _scaled_cents(batch["l_extendedprice"])
    d100 = _scaled_cents(batch["l_discount"])
    t100 = _scaled_cents(batch["l_tax"])
    disc1e4 = p100 * (100 - d100)
    charge1e6 = disc1e4 * (100 + t100)
    df = pd.DataFrame({
        "l_returnflag": batch["l_returnflag"].to_pandas(),
        "l_linestatus": batch["l_linestatus"].to_pandas(),
        "q100": q100, "p100": p100, "d100": d100,
        "disc1e4": disc1e4, "charge1e6": charge1e6,
        "n": np.ones(len(q100), dtype=np.int64),
    })
    part = df.groupby(["l_returnflag", "l_linestatus"], as_index=False,
                      sort=False, dropna=False).sum()
    for col in ("disc1e4", "charge1e6"):
        hi, lo = _split_hi_lo(part[col].to_numpy())
        part[f"{col}_hi"], part[f"{col}_lo"] = hi, lo
    part = part.drop(columns=["disc1e4", "charge1e6"])
    schema = pa.schema([
        ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
        ("q100", pa.int64()), ("p100", pa.int64()), ("d100", pa.int64()),
        ("n", pa.int64()),
        ("disc1e4_hi", pa.int64()), ("disc1e4_lo", pa.int64()),
        ("charge1e6_hi", pa.int64()), ("charge1e6_lo", pa.int64()),
    ])
    return pa.Table.from_pandas(part, schema=schema, preserve_index=False)


def pricing_summary(lineitem):
    """TPC-H-Q1-style pricing summary, exact to the bit against SQL.

    All money/quantity/rate columns are 2dp decimals; scaling to int64
    (cents, basis points) makes every sum exact integer arithmetic — the
    float division back to decimal happens once per GROUP on identical
    integers on both engines, so even the avg_* columns compare with
    atol=0.  Partial aggregation inside map_batches keeps the global
    groupby tiny (≤6 rows per block)."""
    partials = lineitem.map_batches(_pricing_partial, batch_format="pyarrow")
    agg = combine(partials, ["l_returnflag", "l_linestatus"], sums_of(
        "q100", "p100", "d100", "n", "disc1e4_hi", "disc1e4_lo",
        "charge1e6_hi", "charge1e6_lo"))

    def _finalize(t: pa.Table) -> pa.Table:
        q100 = t["q100"].to_numpy(zero_copy_only=False).astype(np.int64)
        p100 = t["p100"].to_numpy(zero_copy_only=False).astype(np.int64)
        d100 = t["d100"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)

        def _widened(col: str) -> list[int]:
            # exact arbitrary-precision recombination in Python ints; the
            # final int→float conversion is the same round-nearest DuckDB's
            # CAST(hugeint AS DOUBLE) performs
            hi = t[f"{col}_hi"].to_numpy(zero_copy_only=False)
            lo = t[f"{col}_lo"].to_numpy(zero_copy_only=False)
            return [int(h) * _HI_LO + int(l) for h, l in zip(hi, lo)]

        disc = _widened("disc1e4")
        chg = _widened("charge1e6")
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": pa.array(q100 / 100.0),
            "sum_base_price": pa.array(p100 / 100.0),
            "sum_disc_price": pa.array([v / 10000.0 for v in disc]),
            "sum_charge": pa.array([v / 1000000.0 for v in chg]),
            "avg_qty": pa.array(q100 / (100.0 * n)),
            "avg_price": pa.array(p100 / (100.0 * n)),
            "avg_disc": pa.array(d100 / (100.0 * n)),
            "count_order": pa.array(n),
        })

    return agg.map_batches(_finalize, batch_format="pyarrow")


def revenue_summary(lineitem, disc_lo: int = 5, disc_hi: int = 7,
                    qty_below: int = 24):
    """TPC-H-Q6-style revenue: sum(extendedprice*discount) over a
    discount-band/quantity filter — one row out, zero shuffles (per-batch
    partial sums → a single global Sum).  Predicates evaluate on the
    scaled-int representation so the oracle can mirror them exactly."""
    def _partial(batch: pa.Table) -> pa.Table:
        q100 = _scaled_cents(batch["l_quantity"])
        p100 = _scaled_cents(batch["l_extendedprice"])
        d100 = _scaled_cents(batch["l_discount"])
        keep = (d100 >= disc_lo) & (d100 <= disc_hi) & (q100 < qty_below * 100)
        return pa.table({"rev1e4": pa.array([int((p100[keep] *
                                                  d100[keep]).sum())])})

    total = lineitem.map_batches(_partial, batch_format="pyarrow") \
        .sum("rev1e4")
    return pd.DataFrame({"revenue": [total / 10000.0]})


def topk_by(ds, sort_cols: list[str], descending: list[bool], k: int):
    """Distributed top-k without a global sort: each block reduces to its
    own top-k (vectorized lexsort), survivors (≤ k×blocks rows) collapse
    into one block for the final exact top-k.  The all-to-all a global
    sort would need never happens."""

    def _local(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keys = [(c, "descending" if d else "ascending")
                for c, d in zip(sort_cols, descending)]
        idx = pc.sort_indices(t, sort_keys=keys)[:k]
        return t.take(idx)

    # batch_size=None pins whole-block batches: the final pass is exact
    # ONLY if the single repartitioned block arrives as one batch
    return ds.map_batches(_local, batch_format="pyarrow",
                          batch_size=None) \
        .repartition(1).map_batches(_local, batch_format="pyarrow",
                                    batch_size=None)


def shipping_priority(customer, orders, lineitem, *, segment: str = "BUILDING",
                      k: int = 10):
    """TPC-H-Q3-shaped: revenue per unshipped order for one market segment,
    top-k by revenue.

    Plan (scale-idiomatic): the segment's customer keys broadcast-semi-filter
    orders (no shuffle; a Bloom filter of the key set at real scale), the
    filtered orders hash-join lineitem on orderkey (the ONE shuffle),
    revenue partials combine per batch on the already-co-located orderkey,
    and top-k is per-block partial → single-block final (no global sort).
    Revenue is exact scaled-int arithmetic (see pricing_summary).
    Date predicates are expected to be pushed into the scans by the caller.
    """
    from .joins import hash_join, semi_join

    seg_keys = customer.map_batches(
        lambda t: t.filter(pa.compute.equal(t["c_mktsegment"], segment)),
        batch_format="pyarrow")
    orders_f = semi_join(orders, seg_keys, "o_custkey", right_key="c_custkey")
    j = hash_join(lineitem, orders_f, "l_orderkey", "o_orderkey",
                  how="inner")

    def _partial(t: pa.Table) -> pa.Table:
        p100 = _scaled_cents(t["l_extendedprice"])
        d100 = _scaled_cents(t["l_discount"])
        df = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
            "o_orderdate": t["o_orderdate"].to_pandas(),
            "o_orderpriority": t["o_orderpriority"].to_pandas(),
            "rev1e4": p100 * (100 - d100),
        })
        part = df.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"],
                          as_index=False, sort=False,
                          dropna=False)["rev1e4"].sum()
        schema = pa.schema([
            ("l_orderkey", t["l_orderkey"].type),
            ("o_orderdate", t["o_orderdate"].type),
            ("o_orderpriority", pa.string()),
            ("rev1e4", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    agg = combine(j.map_batches(_partial, batch_format="pyarrow"),
                  ["l_orderkey", "o_orderdate", "o_orderpriority"],
                  sums_of("rev1e4"))
    top = topk_by(agg, ["rev1e4", "o_orderdate", "l_orderkey"],
                  [True, False, False], k)
    return top.map_batches(
        lambda t: pa.table({
            "l_orderkey": t["l_orderkey"],
            "revenue": pa.array(
                t["rev1e4"].to_numpy(zero_copy_only=False).astype(np.int64)
                / 10000.0),
            "o_orderdate": t["o_orderdate"],
            "o_orderpriority": t["o_orderpriority"],
        }), batch_format="pyarrow")


def pivot_sum_exact(ds, index_col: str, pivot_col: str, value_col: str,
                    categories: list[str]):
    """Pivot (inverse of unpivot): one output column per category, cell =
    sum of ``value_col`` where ``pivot_col`` == category.

    ``categories`` is explicit — discovering it would need a pass over the
    data; at scale the category set is schema knowledge.  Values are 2dp
    decimals, so cells sum as exact scaled int64 inside each batch (wide
    partial rows, one row per index key per batch) and the single shuffle
    carries only those partials; the final division back to decimal is
    identical on both engines → bit-exact vs conditional-aggregation SQL.
    """
    def _partial(t: pa.Table) -> pa.Table:
        idx = t[index_col].to_numpy(zero_copy_only=False)
        cat = t[pivot_col].to_pandas().to_numpy()
        v100 = _scaled_cents(t[value_col])
        df = pd.DataFrame({index_col: idx})
        for c in categories:
            df[c] = np.where(cat == c, v100, 0)
        df["n_events"] = np.ones(len(df), dtype=np.int64)
        part = df.groupby(index_col, as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([(index_col, t[index_col].type)]
                           + [(c, pa.int64()) for c in categories]
                           + [("n_events", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    agg = combine(ds.map_batches(_partial, batch_format="pyarrow"),
                  [index_col], sums_of(*categories, "n_events"))

    def _finalize(t: pa.Table) -> pa.Table:
        cols = {index_col: t[index_col]}
        for c in categories:
            cols[c] = pa.array(
                t[c].to_numpy(zero_copy_only=False).astype(np.int64) / 100.0)
        cols["n_events"] = pa.array(
            t["n_events"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table(cols)

    return agg.map_batches(_finalize, batch_format="pyarrow")


def _hash_threshold(frac: float) -> np.uint64:
    """Fraction → uint64 threshold, clamped: float(2**64-1) rounds UP to
    2**64, so the naive int(frac * float(2**64-1)) overflows uint64 at
    frac=1.0 (and wraps the top split bound to 0 in hash_split)."""
    return np.uint64(min(max(int(frac * (2**64 - 1)), 0), 2**64 - 1))


def hash_sample(ds, key_col: str, rate: float, *, salt: int = 0):
    """Deterministic distributed sample: keep rows whose stable 64-bit
    key hash falls under ``rate`` — no shuffle, no RNG state, identical
    row set on every run/cluster size, and consistent across tables
    sharing the key (sampling users samples all their events).  ``salt``
    decorrelates repeated samples over the same key."""
    from ..functions.hashing import stable_hash_array
    threshold = _hash_threshold(rate)

    def _keep(batch: pa.Table) -> pa.Table:
        h = stable_hash_array(batch[key_col].to_pandas())
        if salt:
            with np.errstate(over="ignore"):
                h = (h + np.uint64(salt)) * np.uint64(0x9E3779B97F4A7C15)
        return batch.filter(pa.array(h <= threshold))

    return ds.map_batches(_keep, batch_format="pyarrow")


def stratified_hash_sample(ds, key_col: str, group_col: str,
                           rates: dict[str, float], *,
                           default_rate: float = 0.0, salt: int = 0):
    """Per-group deterministic sample: like :func:`hash_sample` but the
    keep-threshold varies by ``group_col`` (the standard source-mix
    rebalancing pass of a training-data pipeline — e.g. keep all of a
    scarce source, 5% of crawl).  Same stable-hash properties: no
    shuffle, no RNG state, reproducible at any cluster size, and a row
    kept at rate r stays kept at any rate ≥ r (nested samples)."""
    import pandas as pd

    from ..functions.hashing import stable_hash_array
    thresholds = {g: _hash_threshold(r) for g, r in rates.items()}
    default_thr = _hash_threshold(default_rate)

    def _keep(batch: pa.Table) -> pa.Table:
        h = stable_hash_array(batch[key_col].to_pandas())
        if salt:
            with np.errstate(over="ignore"):
                h = (h + np.uint64(salt)) * np.uint64(0x9E3779B97F4A7C15)
        # uint64 lookup table via factorize — NEVER pandas .map, which
        # floatifies uint64 (2^64-1 → 2^64 → wraps to 0 on the cast back).
        # factorize codes NULL groups as -1, which would index the LAST
        # lut entry (or crash on an all-null batch) — route them to the
        # default rate explicitly, matching the oracle's CASE ELSE.
        codes, uniq = pd.factorize(batch[group_col].to_pandas())
        lut = np.array([thresholds.get(g, default_thr) for g in uniq]
                       + [default_thr], dtype=np.uint64)
        thr = lut[codes]  # code -1 → the appended default slot
        return batch.filter(pa.array(h <= thr))

    return ds.map_batches(_keep, batch_format="pyarrow")


def hash_split(ds, key_col: str, fractions: dict[str, float], *,
               salt: int = 0):
    """Deterministic train/val/test split: appends a ``split`` column by
    bucketing the stable key hash into cumulative fraction ranges.
    Disjoint and exhaustive by construction; all rows of one key land in
    the same split (no leakage across splits for grouped data)."""
    from ..functions.hashing import stable_hash_array
    names = list(fractions)
    cum = np.cumsum([fractions[n] for n in names])
    assert abs(cum[-1] - 1.0) < 1e-9, "fractions must sum to 1"
    bounds = np.array([_hash_threshold(c) for c in cum], dtype=np.uint64)

    def _tag(batch: pa.Table) -> pa.Table:
        h = stable_hash_array(batch[key_col].to_pandas())
        if salt:
            with np.errstate(over="ignore"):
                h = (h + np.uint64(salt)) * np.uint64(0x9E3779B97F4A7C15)
        idx = np.searchsorted(bounds, h, side="left")
        idx = np.minimum(idx, len(names) - 1)
        tags = np.asarray(names, dtype=object)[idx]
        return batch.append_column("split", pa.array(tags, pa.string()))

    return ds.map_batches(_tag, batch_format="pyarrow")


def revenue_by_nation(lineitem, orders, customer, nation):
    """TPC-H-Q5-lite: revenue per customer nation.

    Scale-honest plan: the two BIG tables hash-join on orderkey (shuffle
    1), the result hash-joins customer on custkey (shuffle 2 — customer is
    NOT broadcastable at real TPC-H scale), and only the 25-row nation dim
    broadcasts.  Revenue partials combine per batch before the final tiny
    groupby, cents-scaled for bit-exactness."""
    from .joins import hash_join

    def _li_partial(t: pa.Table) -> pa.Table:
        p100 = _scaled_cents(t["l_extendedprice"])
        d100 = _scaled_cents(t["l_discount"])
        df = pd.DataFrame({"l_orderkey": t["l_orderkey"]
                           .to_numpy(zero_copy_only=False),
                           "rev1e4": p100 * (100 - d100)})
        part = df.groupby("l_orderkey", as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([("l_orderkey", t["l_orderkey"].type),
                            ("rev1e4", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    # pre-combine lineitem to one row per order BEFORE the join: the
    # shuffle then moves |orders| rows instead of |lineitems|
    li_per_order = lineitem.map_batches(_li_partial, batch_format="pyarrow")
    j1 = hash_join(li_per_order, orders, "l_orderkey", "o_orderkey",
                   how="inner")
    j2 = hash_join(j1, customer, "o_custkey", "c_custkey",
                   how="inner")
    nat = nation.to_pandas()
    enriched = broadcast_enrich(j2, nat, "c_nationkey", "n_nationkey",
                                {"n_name": "n_name"})

    # a missed nationkey leaves n_name NULL; the null group must SURVIVE
    # (LEFT-JOIN-style SQL emits it)
    def _nat_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "n_name": t["n_name"].to_pandas(),
            "rev1e4": t["rev1e4"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})
        part = df.groupby("n_name", as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([("n_name", pa.string()),
                            ("rev1e4", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    agg = combine(enriched.map_batches(_nat_partial, batch_format="pyarrow"),
                  ["n_name"], sums_of("rev1e4"))

    def _final(t: pa.Table) -> pa.Table:
        return pa.table({
            "n_name": t["n_name"],
            "revenue": pa.array(
                t["rev1e4"].to_numpy(zero_copy_only=False).astype(np.int64)
                / 10000.0)})

    return agg.map_batches(_final, batch_format="pyarrow")


def value_histogram(events, *, width_cents: int = 5000):
    """Fixed-width value histogram per event type — exact bin counts.

    Partial-first: every batch collapses to its distinct (event_type,
    bin) cells before the only shuffle (tiny: |types| × |bins| rows per
    block).  Binning is integer-exact: cents = round(value·100) as
    int64, bin = floor(cents / width) via the identical double division
    the SQL oracle runs."""
    def _partial(batch: pa.Table) -> pa.Table:
        from ..functions.rounding import scaled_int
        cents = scaled_int(batch["value"].to_numpy(zero_copy_only=False))
        bins = np.floor(cents / float(width_cents)).astype(np.int64)
        df = pd.DataFrame({
            "event_type": batch["event_type"].to_pandas().to_numpy(),
            "bin": bins})
        cnt = df.groupby(["event_type", "bin"], sort=False, dropna=False) \
            .size().reset_index(name="n")
        return pa.table({
            "event_type": pa.array(cnt["event_type"], pa.string()),
            "bin": pa.array(cnt["bin"].to_numpy(np.int64)),
            "n": pa.array(cnt["n"].to_numpy(np.int64)),
        })

    totals = combine(events.map_batches(_partial, batch_format="pyarrow"),
                     ["event_type", "bin"], sums_of("n"))

    def _lo(t: pa.Table) -> pa.Table:
        lo = t["bin"].to_numpy(zero_copy_only=False) * (width_cents / 100.0)
        return t.append_column("bin_lo", pa.array(lo))
    return totals.map_batches(_lo, batch_format="pyarrow")


_MOMENT_SUMS = sums_of("n", "sc_hi", "sc_lo", "sq_hi", "sq_lo")


def zscore_events(events):
    """Per-event z-score against its event type's population mean/std —
    the group-wise feature-normalization shape.

    Two passes: (1) mergeable integer moments per batch → one tiny
    groupby (n, Σcents, Σcents² per type, each square-sum carried as
    (hi, lo) base-1e9 limbs so the CROSS-BATCH global Sum stays far
    inside int64 at any row count — a single-limb Σcents² wraps around
    ~9·10⁴ rows of $100k values); (2) the stats broadcast into a
    vectorized scoring pass.  All float arithmetic (mean, variance, z)
    runs the IDENTICAL operation sequence as the SQL oracle, so the
    comparison is exact at atol=0.  Zero-variance groups (constant or
    singleton types) emit NULL on both sides — DuckDB would otherwise
    error on sqrt of a float-rounding-negative variance."""
    def _moments(batch: pa.Table) -> pa.Table:
        from ..functions.rounding import scaled_int
        cents = scaled_int(batch["value"].to_numpy(zero_copy_only=False))
        # per-BATCH overflow guard (the cross-batch hole is closed by the
        # limb split below): raise loudly before an int64 sum can wrap
        cf = cents.astype(np.float64)
        if len(cents) and (np.abs(cents).max() > 3_000_000_000
                           or float((cf * cf).sum()) > 2**62
                           or float(np.abs(cf).sum()) > 2**62):
            raise OverflowError(
                "zscore_events: a single batch's cents moments approach "
                "int64 — shrink the block size for this value range")
        df = pd.DataFrame({
            "event_type": batch["event_type"].to_pandas().to_numpy(),
            "c": cents, "c2": cents * cents})
        agg = df.groupby("event_type", sort=False).agg(
            n=("c", "size"), sc=("c", "sum"), sq=("c2", "sum")) \
            .reset_index()
        sc = agg["sc"].to_numpy(np.int64)
        sq = agg["sq"].to_numpy(np.int64)
        sc_hi, sc_lo = _split_hi_lo(sc)
        sq_hi, sq_lo = _split_hi_lo(sq)
        return pa.table({
            "event_type": pa.array(agg["event_type"], pa.string()),
            "n": pa.array(agg["n"].to_numpy(np.int64)),
            "sc_hi": pa.array(sc_hi), "sc_lo": pa.array(sc_lo),
            "sq_hi": pa.array(sq_hi), "sq_lo": pa.array(sq_lo),
        })

    stats = combine(events.map_batches(_moments, batch_format="pyarrow"),
                    ["event_type"], _MOMENT_SUMS).to_pandas()
    # |event types| rows — driver-sized by construction; limb
    # recombination in exact Python ints, ONE float conversion each
    # (identical to the oracle's CAST(HUGEINT SUM AS DOUBLE))
    lut = {}
    for _, r in stats.iterrows():
        sc = int(r["sc_hi"]) * _HI_LO + int(r["sc_lo"])
        sq = int(r["sq_hi"]) * _HI_LO + int(r["sq_lo"])
        lut[r["event_type"]] = (float(r["n"]), float(sc), float(sq))

    def _score(batch: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away, scaled_int
        cents = scaled_int(batch["value"].to_numpy(zero_copy_only=False))
        types = batch["event_type"].to_pandas()
        codes, uniq = pd.factorize(types)
        # NULL event_type rows never match the oracle's JOIN — drop them
        # (factorize codes them -1, which would otherwise wrap to the
        # LAST unique's moments; an all-null batch has an empty uniq)
        valid = codes >= 0
        if not valid.all():
            batch = batch.filter(pa.array(valid))
            cents, codes = cents[valid], codes[valid]
        if len(uniq) == 0:
            return pa.table({
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "z": pa.nulls(0, pa.float64()),
            })
        n_ = np.array([lut[u][0] for u in uniq])[codes]
        sc = np.array([lut[u][1] for u in uniq])[codes]
        sq = np.array([lut[u][2] for u in uniq])[codes]
        mean = sc / n_
        var = sq / n_ - mean * mean
        ok = var > 0.0
        z = np.full(len(cents), np.nan)
        with np.errstate(invalid="ignore"):
            z[ok] = (cents.astype(np.float64)[ok] - mean[ok]) \
                / np.sqrt(var[ok])
        zr = round_half_away(z, 6)
        return pa.table({
            "event_id": batch["event_id"],
            "event_type": batch["event_type"],
            # NaN → NULL (zero-variance groups), matching the oracle
            "z": pa.array(np.where(ok, zr, np.nan), pa.float64(),
                          mask=~ok),
        })

    return events.map_batches(_score, batch_format="pyarrow")


def value_quartiles(events, *, k: int = 4):
    """Exact NTILE(k) OVER (ORDER BY value, event_id) — WITHOUT a global
    sort.

    The global rank decomposes over the bounded value domain (2-decimal
    values → integer cents): rank(row) = (# rows with smaller cents) +
    (# same-cents rows with smaller id).  Pass 1 aggregates per-cents
    counts (|distinct cents| rows — bounded by the value domain, NOT the
    data size) and broadcasts the exclusive cumulative counts; pass 2
    ranks same-cents rows locally inside one partition-group shuffle.
    Bucket sizes replicate SQL NTILE exactly: the first n % k buckets
    get ⌈n/k⌉ rows."""
    def _cents(batch: pa.Table) -> pa.Table:
        from ..functions.rounding import scaled_int
        c = scaled_int(batch["value"].to_numpy(zero_copy_only=False))
        return pa.table({"event_id": batch["event_id"],
                         "cents": pa.array(c)})

    with_c = events.map_batches(_cents, batch_format="pyarrow") \
        .materialize()
    counts = combine(with_c, ["cents"], [([], "count_all", "cnt")]) \
        .to_pandas().sort_values("cents")
    # |distinct cents| ≤ value-domain width — driver-sized by construction
    cents_sorted = counts["cents"].to_numpy(np.int64)
    below = np.concatenate([[0], np.cumsum(
        counts["cnt"].to_numpy(np.int64))])[:-1]
    n_total = int(counts["cnt"].sum())
    base, extra = divmod(n_total, k)

    def _rank(g: pd.DataFrame) -> pd.DataFrame:
        c = g["cents"].to_numpy(np.int64)
        ids = g["event_id"].to_numpy()
        order = np.lexsort((ids, c))
        c, ids = c[order], ids[order]
        starts, ends = _segment_starts(c)
        lens = ends - starts
        local = np.arange(len(c), dtype=np.int64) \
            - np.repeat(starts, lens)
        rnk = below[np.searchsorted(cents_sorted, c)] + local
        # NTILE: first `extra` buckets hold base+1 rows
        cut = extra * (base + 1)
        q = np.where(rnk < cut,
                     rnk // max(base + 1, 1),
                     extra + (rnk - cut) // max(base, 1)) + 1
        return pd.DataFrame({
            "event_id": ids,
            "value": c / 100.0,
            "rnk": rnk,
            "quartile": q.astype(np.int64),
        })
    _rank.__name__ = "_ntile_rank"

    return partition_groups(with_c, "cents", _rank)


def winsorize_events(events, *, lo_p: float = 0.01, hi_p: float = 0.99):
    """Per-type winsorization: clip every value into its event type's
    exact [p_lo, p_hi] percentile band — the standard outlier-robust
    normalization pass before model features.

    Pass 1 computes the exact per-type quantiles (the calibrated
    ``grouped_quantiles`` kernel — bit-identical to SQL quantile_cont,
    thresholds rounded to 6dp on BOTH sides); the tiny threshold table
    broadcasts into a vectorized clip pass.  Emits the clipped value and
    whether the row was clipped."""
    from .rollup import grouped_quantiles

    thr = grouped_quantiles(events, key_col="event_type",
                            value_col="value",
                            probs=(lo_p, hi_p)).to_pandas()
    lo_name = f"p{int(lo_p * 100)}"
    hi_name = f"p{int(hi_p * 100)}"
    # |event types| rows — driver-sized by construction
    lut = {r["event_type"]: (float(r[lo_name]), float(r[hi_name]))
           for _, r in thr.iterrows()}

    def _clip(batch: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        v = batch["value"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        types = batch["event_type"].to_pandas()
        codes, uniq = pd.factorize(types)
        # NULL event_type rows never match the oracle's JOIN — drop them
        # (factorize codes them -1, which would otherwise wrap to the
        # LAST unique's band; an all-null batch has an empty uniq)
        valid = codes >= 0
        if not valid.all():
            batch = batch.filter(pa.array(valid))
            v, codes = v[valid], codes[valid]
        if len(uniq) == 0:
            return pa.table({
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "v_wins": pa.nulls(0, pa.float64()),
                "was_clipped": pa.nulls(0, pa.bool_()),
            })
        lo = np.array([lut[u][0] for u in uniq])[codes]
        hi = np.array([lut[u][1] for u in uniq])[codes]
        clipped = np.minimum(np.maximum(v, lo), hi)
        return pa.table({
            "event_id": batch["event_id"],
            "event_type": batch["event_type"],
            "v_wins": pa.array(round_half_away(clipped, 6)),
            "was_clipped": pa.array(clipped != v),
        })

    return events.map_batches(_clip, batch_format="pyarrow")


# --- JSON props field extraction (vectorized ETL) ----------------------------

def props_field_stats(events, *, field: str = "k", by: str = "event_type",
                      props_col: str = "props"):
    """Per-``by`` statistics of an integer field extracted from a JSON
    string column: (n, n_null, sum/min/max/mean of the field).

    The extraction is Arrow-C++-vectorized (``pc.extract_regex`` on the
    pattern ``"<field>"\\s*:\\s*(-?\\d+)``) — never a Python
    json.loads per row.  Scope: FLAT integer fields (the shape of the
    events.props column); the regex semantics equal
    ``json_extract(props, '$.field')`` for that shape, which is the
    SQL oracle.  Partial-first: per-block cells ship fixed-size rows
    into one small groupby."""
    import pyarrow.compute as pc

    pat = '"' + field + '"\\s*:\\s*(?P<v>-?\\d+)'
    try:                       # empty/column-less blocks need the real
        by_type = events.schema().field(by).type     # key dtype
    except Exception:
        by_type = pa.string()

    def _partial(t: pa.Table) -> pa.Table:
        if props_col not in t.column_names or len(t) == 0:
            e = np.empty(0, np.int64)
            return pa.table({by: pa.array([], by_type),
                             "n": pa.array(e), "n_null": pa.array(e),
                             "sum_k": pa.array(e), "min_k": pa.array(e),
                             "max_k": pa.array(e)})
        # null-key rows dropped (the oracle filters them identically)
        t = t.filter(pc.is_valid(t[by]))
        m = pc.extract_regex(pc.cast(t[props_col], pa.string()), pat)
        v = pc.cast(pc.struct_field(m, "v"), pa.int64())
        # exact int64 path: fill_null(0) keeps values out of float64
        # (to_numpy on a null-bearing int column round-trips via float,
        # losing exactness past 2^53)
        null = pc.is_null(v).to_numpy(zero_copy_only=False)
        vi = pc.fill_null(v, 0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keys = t[by].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(keys, sort=False)
        K = len(uniq)
        n = np.bincount(codes, minlength=K)
        n_null = np.bincount(codes[null], minlength=K)
        sums = np.zeros(K, dtype=np.int64)
        np.add.at(sums, codes, vi)          # int64-exact, unlike
        mn = np.full(K, np.iinfo(np.int64).max)  # bincount(weights=...)
        mx = np.full(K, np.iinfo(np.int64).min)
        ok = ~null
        np.minimum.at(mn, codes[ok], vi[ok])
        np.maximum.at(mx, codes[ok], vi[ok])
        return pa.table({
            by: pa.array(uniq).cast(by_type),
            "n": pa.array(n.astype(np.int64)),
            "n_null": pa.array(n_null.astype(np.int64)),
            "sum_k": pa.array(sums),
            "min_k": pa.array(mn), "max_k": pa.array(mx),
        })

    tot = combine(events.map_batches(_partial, batch_format="pyarrow"),
                  [by], [*sums_of("n", "n_null", "sum_k"),
                         ("min_k", "min", "min_k"),
                         ("max_k", "max", "max_k")])

    def _final(t: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        nn = t["n_null"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["sum_k"].to_numpy(zero_copy_only=False).astype(np.int64)
        nv = n - nn
        allnull = nv == 0                  # sentinel extrema → SQL NULL
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = round_half_away(s / np.maximum(nv, 1), 6)
        mn = t["min_k"].to_numpy(zero_copy_only=False).astype(np.int64)
        mx = t["max_k"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            by: t[by],
            "n": pa.array(n), "n_null": pa.array(nn),
            "sum_k": pa.array(s, mask=allnull),   # SUM over all-NULL
            "min_k": pa.array(mn, mask=allnull),
            "max_k": pa.array(mx, mask=allnull),
            "mean_k": pa.array(mean, mask=allnull),
        })

    return tot.map_batches(_final, batch_format="pyarrow")


# --- large-volume orders (TPC-H Q18 shape) ---------------------------------

class _BroadcastInnerJoin:
    """Task-cached broadcast INNER join: the SMALL side (a pandas frame
    behind an object ref) merges against every streamed batch — multi-
    match rows fan out like SQL, unlike :class:`BroadcastLookup`'s
    single-valued map.  Output dtypes are pinned from the declared
    arrow schema (the arrow→pandas→arrow round trip must not floatify
    int keys — the chained-join lesson)."""

    def __init__(self, small_ref, batch_key: str, small_key: str,
                 out_schema: "pa.Schema"):
        import ray
        self.small: pd.DataFrame = ray.get(small_ref)
        self.batch_key, self.small_key = batch_key, small_key
        self.out_schema = out_schema

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.batch_key not in batch.column_names:
            # Ray's occasional 0-row column-less blocks
            return self.out_schema.empty_table()
        cols = [f.name for f in self.out_schema]
        bcols = [c for c in batch.column_names
                 if c in cols or c == self.batch_key]
        df = batch.select(bcols).to_pandas()
        merged = df.merge(self.small, left_on=self.batch_key,
                          right_on=self.small_key, how="inner")
        arrs = [pa.Array.from_pandas(merged[f.name], type=f.type)
                for f in self.out_schema]
        return pa.Table.from_arrays(arrs, schema=self.out_schema)


def big_orders(lineitem, orders, customer, *, min_qty: float = 300.0):
    """TPC-H-Q18-shaped: customers whose orders total more than
    ``min_qty`` units — per-order quantity rollup with HAVING, then the
    order and customer attributes.

    Scale plan: the per-order rollup runs as ONE partition-group
    shuffle — ``stable_hash(orderkey) % n`` (``n`` derived from the
    input size) co-locates whole orders, the per-group kernel sums +
    applies HAVING vectorized (3× faster than a keyed Ray groupby here:
    with ~4 lines per order spread across blocks a per-block partial
    barely reduces, and sorting by a few partition ids beats sorting by
    150k distinct orderkeys) → the
    HAVING filter leaves a TINY key set that broadcasts through the
    two big probe tables (orders, then customer) — neither base table
    ever shuffles.  The intermediate matched-orders table is bounded
    by the HAVING selectivity (Q18 picks a handful of orders per
    million), so the second broadcast is small by construction.
    Quantities are exact integer cents; ``sum_qty`` closes as
    double(cents)/100."""
    from .taskcache import class_task

    thresh = int(round(min_qty * 100))

    def _qty_prep(t: pa.Table) -> pa.Table:
        if "l_orderkey" not in t.column_names:
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "q": pa.array([], pa.int64())})
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "q": pa.array(_scaled_cents(t["l_quantity"]))})

    def _qty_rollup(g: pd.DataFrame) -> pd.DataFrame:
        keys = g["l_orderkey"].to_numpy()
        q = g["q"].to_numpy(np.int64)
        u, inv = np.unique(keys, return_inverse=True)
        s = np.zeros(len(u), dtype=np.int64)
        np.add.at(s, inv, q)
        keep = s > thresh
        return pd.DataFrame({"l_orderkey": u[keep], "qc": s[keep]})

    big = partition_groups(
        lineitem.map_batches(_qty_prep, batch_format="pyarrow"),
        "l_orderkey", _qty_rollup).materialize()
    import ray
    big_df = big.to_pandas()
    if "qc" not in big_df.columns:
        # zero HAVING survivors: Ray drops all-empty blocks, so the
        # frame loses its columns — rebuild the typed empty shape
        big_df = pd.DataFrame({
            "l_orderkey": pd.Series([], dtype=np.int64),
            "qc": pd.Series([], dtype=np.int64)})
    big_df["sum_qty"] = big_df["qc"].to_numpy(np.int64) \
        .astype(np.float64) / 100.0
    big_ref = ray.put(big_df[["l_orderkey", "sum_qty"]])

    ord_schema = pa.schema([
        ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
        ("o_totalprice", pa.float64()),
        ("o_orderdate", pa.timestamp("us")), ("sum_qty", pa.float64())])
    matched = orders.map_batches(
        class_task(_BroadcastInnerJoin, big_ref, "o_orderkey",
                   "l_orderkey", ord_schema),
        batch_format="pyarrow").materialize()
    m_df = matched.to_pandas()
    if "o_custkey" not in m_df.columns:
        # no qualifying orders matched: the all-empty dataset lost its
        # columns — rebuild the typed empty frame
        m_df = ord_schema.empty_table().to_pandas()
    m_ref = ray.put(m_df)

    out_schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us")),
        ("o_totalprice", pa.float64()), ("sum_qty", pa.float64())])
    return customer.map_batches(
        class_task(_BroadcastInnerJoin, m_ref, "c_custkey", "o_custkey",
                   out_schema),
        batch_format="pyarrow")


# --- distributional entropy -------------------------------------------------

class _EntropyGroup:
    """Per-partition closer for :func:`type_entropy`: each co-located
    key's (type → count) rows become Shannon entropy
    ``H = −Σ p·ln p`` with p = count/total.  ``ln`` is ``math.log``
    per row (libm — bit-identical to DuckDB ``ln``; the row count here
    is |keys|·|types| per partition, already aggregate-sized), and the
    Σ folds LEFT TO RIGHT in binary type order — the oracle's
    ``list_reduce(list(x ORDER BY event_type))``.  Null keys drop (the
    oracle's USING join); null TYPES are excluded on both sides (the
    oracle filters ``event_type IS NOT NULL`` — entropy is over the
    observed label distribution)."""

    def __init__(self, key_col="user_id", type_col="event_type"):
        self.key_col, self.type_col = key_col, type_col

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import math
        rows, keys, codes, _, _ = key_runs(
            g, self.key_col, (self.type_col,),
            keep=g[self.key_col].notna())
        if len(rows) == 0:
            return pd.DataFrame({
                self.key_col: rows[self.key_col],
                "n_types": pd.Series([], dtype=np.int64),
                "n_events": pd.Series([], dtype=np.int64),
                "entropy": pd.Series([], dtype=np.float64)})
        # per-block partials of the same (key, type) arrive unmerged
        # (ONE shuffle, no keyed pre-groupby): combine in-group
        cell, _ = _segment_starts(codes, rows[self.type_col].to_numpy())
        c = np.add.reduceat(rows["c"].to_numpy(np.int64), cell)
        codes, keys = codes[cell], keys[cell]
        starts, ends = _segment_starts(codes)
        lens = ends - starts
        tot = np.add.reduceat(c, starts)
        q = c.astype(np.float64) / np.repeat(tot, lens).astype(np.float64)
        x = np.array([qi * math.log(qi) for qi in q])
        # left fold per key in binary type order (position-major mask)
        acc = np.zeros(len(starts))
        for j in range(int(lens.max())):
            m = lens > j
            acc[m] += x[starts[m] + j]
        from ..functions.rounding import round_half_away
        return pd.DataFrame({
            self.key_col: keys[starts],
            "n_types": lens.astype(np.int64),
            "n_events": tot.astype(np.int64),
            "entropy": round_half_away(-acc, 6),
        })


def type_entropy(events, *, key_col="user_id", type_col="event_type"):
    """Shannon entropy of each key's event-type distribution — the
    label/source-diversity screen of data curation.  Batch-local
    (key, type) count partials flow through ONE partition-group
    shuffle (aggregate-sized rows; same-cell partials from different
    blocks merge in-group), and the close folds −Σ p·ln p bit-exactly
    (libm ln, binary type order)."""

    def _partial(t: pa.Table) -> pa.Table:
        if key_col not in t.column_names:
            return pa.table({key_col: pa.array([], pa.int64()),
                             type_col: pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        kc, kuniq = pd.factorize(t[key_col].to_pandas(), sort=False)
        tc, tuniq = pd.factorize(t[type_col].to_pandas(), sort=False)
        ok = (kc >= 0) & (tc >= 0)   # null keys drop (oracle USING join);
        kc, tc = kc[ok], tc[ok]      # -1 codes would wrap the unique take
        nt = max(len(tuniq), 1)
        cell = kc.astype(np.int64) * nt + tc
        u, cnt = np.unique(cell, return_counts=True)
        kv = np.asarray(kuniq)[u // nt]
        tv = np.asarray(tuniq, dtype=object)[u % nt]
        return pa.table({
            key_col: pa.array(kv, pa.int64()),
            type_col: pa.array(tv, pa.string()),
            "c": pa.array(cnt.astype(np.int64))})

    partials = events.map_batches(_partial, batch_format="pyarrow")
    return partition_groups(
        partials, key_col, _EntropyGroup(key_col, type_col))


# --- cohort comparison (Welch's t) ------------------------------------------

def welch_ttest_weekend(events):
    """Welch's unequal-variance t-statistic between WEEKEND and WEEKDAY
    values per event type — the cohort-comparison / A-B screen.

    One pass of mergeable integer moments per (type, is_weekend) —
    n, Σcents, Σcents² with the (hi, lo) limb split so the global sums
    never wrap int64 — then a tiny close that replays the oracle's
    exact double sequence: mean = S/n, var/n = ((SS − S·S/n)/(n−1))/n,
    t = (m_wd − m_we)/√(v_wd/n_wd + v_we/n_we) (cents cancel, t is
    scale-free).  Weekend = DuckDB ``dayofweek(ts) IN (0, 6)`` ==
    ``(epoch_days + 4) % 7 ∈ {0, 6}`` (verified identical).  Types
    missing either cohort drop (the oracle's self-join); n < 2 on a
    side or zero pooled variance emits NULL t."""
    def _moments(batch: pa.Table) -> pa.Table:
        from ..functions.rounding import scaled_int
        from .windows import _epoch_micros
        if "event_type" not in batch.column_names or len(batch) == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "we": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "sc_hi": pa.array([], pa.int64()),
                             "sc_lo": pa.array([], pa.int64()),
                             "sq_hi": pa.array([], pa.int64()),
                             "sq_lo": pa.array([], pa.int64())})
        cents = scaled_int(batch["value"].to_numpy(zero_copy_only=False))
        cf = cents.astype(np.float64)
        if len(cents) and (np.abs(cents).max() > 3_000_000_000
                           or float((cf * cf).sum()) > 2**62
                           or float(np.abs(cf).sum()) > 2**62):
            raise OverflowError(
                "welch_ttest_weekend: a single batch's cents moments "
                "approach int64 — shrink the block size")
        t_us = np.asarray(_epoch_micros(batch["ts"]))
        dow = (t_us // 86_400_000_000 + 4) % 7
        we = ((dow == 0) | (dow == 6)).astype(np.int64)
        df = pd.DataFrame({
            "event_type": batch["event_type"].to_pandas().to_numpy(),
            "we": we, "c": cents, "c2": cents * cents})
        agg = df.groupby(["event_type", "we"], sort=False).agg(
            n=("c", "size"), sc=("c", "sum"), sq=("c2", "sum")) \
            .reset_index()
        sc_hi, sc_lo = _split_hi_lo(agg["sc"].to_numpy(np.int64))
        sq_hi, sq_lo = _split_hi_lo(agg["sq"].to_numpy(np.int64))
        return pa.table({
            "event_type": pa.array(agg["event_type"], pa.string()),
            "we": pa.array(agg["we"].to_numpy(np.int64)),
            "n": pa.array(agg["n"].to_numpy(np.int64)),
            "sc_hi": pa.array(sc_hi), "sc_lo": pa.array(sc_lo),
            "sq_hi": pa.array(sq_hi), "sq_lo": pa.array(sq_lo)})

    stats = combine(events.map_batches(_moments, batch_format="pyarrow"),
                    ["event_type", "we"], _MOMENT_SUMS)

    def _close(t: pa.Table) -> pa.Table:
        out_ty, out_n1, out_n2 = [], [], []
        out_m1, out_m2, out_t = [], [], []
        if len(t) and "event_type" in t.column_names:
            import math
            rows: dict[str, dict[int, tuple[int, int, int]]] = {}
            for i in range(len(t)):
                ty = t["event_type"][i].as_py()
                we = int(t["we"][i].as_py())
                s = (int(t["sc_hi"][i].as_py()) * _HI_LO
                     + int(t["sc_lo"][i].as_py()))
                ss = (int(t["sq_hi"][i].as_py()) * _HI_LO
                      + int(t["sq_lo"][i].as_py()))
                rows.setdefault(ty, {})[we] = (int(t["n"][i].as_py()),
                                               s, ss)
            from ..functions.rounding import round_half_away
            for ty in sorted(k for k in rows if 0 in rows[k]
                             and 1 in rows[k]):
                (n1, s1, ss1), (n2, s2, ss2) = rows[ty][0], rows[ty][1]
                m1 = float(s1) / float(n1)
                m2 = float(s2) / float(n2)
                out_ty.append(ty)
                out_n1.append(n1)
                out_n2.append(n2)
                out_m1.append(round_half_away(
                    np.float64(m1 / 100.0), 6))
                out_m2.append(round_half_away(
                    np.float64(m2 / 100.0), 6))
                tstat = np.nan
                if n1 >= 2 and n2 >= 2:
                    v1n = (float(ss1) - float(s1) * float(s1)
                           / float(n1)) / float(n1 - 1) / float(n1)
                    v2n = (float(ss2) - float(s2) * float(s2)
                           / float(n2)) / float(n2 - 1) / float(n2)
                    if v1n + v2n > 0.0:
                        tstat = round_half_away(np.float64(
                            (m1 - m2) / math.sqrt(v1n + v2n)), 6)
                out_t.append(tstat)
        return pa.table({
            "event_type": pa.array(out_ty, pa.string()),
            "n_weekday": pa.array(out_n1, pa.int64()),
            "n_weekend": pa.array(out_n2, pa.int64()),
            "mean_weekday": pa.array(out_m1, pa.float64()),
            "mean_weekend": pa.array(out_m2, pa.float64()),
            "t_stat": pa.array(out_t, pa.float64())})

    return stats.repartition(1).map_batches(_close,
                                            batch_format="pyarrow",
                                            batch_size=None)


# --- Kolmogorov-Smirnov cohort test ----------------------------------------

class _KsGroup:
    """Per-partition closer for :func:`ks_test_weekend`: each
    co-located event type's (cents → weekday/weekend counts) rows —
    per-block partials, merged in-group — become the two-sample KS
    statistic computed ENTIRELY in integers: at every observed value v,
    num(v) = |n₂·C₁(v) − n₁·C₂(v)| (cross-multiplied ECDF difference,
    no float until the output ratio), maximized with the EARLIEST v on
    ties.  n₁·n₂ past the int64 bound falls back to exact object ints;
    types missing a cohort emit nothing."""

    def __init__(self, type_col="event_type"):
        self.type_col = type_col

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        from ..functions.rounding import round_half_away
        empty = pd.DataFrame({
            self.type_col: pd.Series([], dtype=object),
            "n_weekday": pd.Series([], dtype=np.int64),
            "n_weekend": pd.Series([], dtype=np.int64),
            "d_num": pd.Series([], dtype=np.int64),
            "d_stat": pd.Series([], dtype=np.float64),
            "at_value": pd.Series([], dtype=np.float64)})
        # null types drop (oracle join)
        rows, keys, tcodes, _, _ = key_runs(
            g, self.type_col, ("cents",), keep=g[self.type_col].notna())
        cents = rows["cents"].to_numpy(np.int64)
        # merge same-(type, cents) partials from different blocks
        cell, _ = _segment_starts(tcodes, cents)
        c1 = np.add.reduceat(rows["c1"].to_numpy(np.int64), cell)
        c2 = np.add.reduceat(rows["c2"].to_numpy(np.int64), cell)
        tcodes, cents, keys = tcodes[cell], cents[cell], keys[cell]
        starts, ends = _segment_starts(tcodes)
        lens = ends - starts
        off1 = np.cumsum(c1)
        off2 = np.cumsum(c2)
        C1 = off1 - np.repeat(off1[starts] - c1[starts], lens)
        C2 = off2 - np.repeat(off2[starts] - c2[starts], lens)
        n1 = np.repeat(C1[ends - 1], lens)
        n2 = np.repeat(C2[ends - 1], lens)
        if len(n1) and float(n1.max()) * float(n2.max()) >= float(1 << 62):
            C1, C2 = C1.astype(object), C2.astype(object)
            n1, n2 = n1.astype(object), n2.astype(object)
        num = np.abs(n2 * C1 - n1 * C2)
        valid = (n1 > 0) & (n2 > 0)
        if not valid.any():
            return empty
        numv = num[valid]
        vstarts, vends = _segment_starts(tcodes[valid])
        maxv = np.maximum.reduceat(numv, vstarts)
        vlens = vends - vstarts
        attain = numv == np.repeat(maxv, vlens)
        cand = np.where(attain, np.arange(len(numv)), len(numv))
        pick = np.minimum.reduceat(cand, vstarts)
        n1p = n1[valid][pick]
        n2p = n2[valid][pick]
        d = np.array([float(a) / (float(b) * float(c))
                      for a, b, c in zip(maxv, n1p, n2p)])
        return pd.DataFrame({
            self.type_col: np.asarray(keys[valid][vstarts], object),
            "n_weekday": np.array([int(x) for x in n1p], dtype=np.int64),
            "n_weekend": np.array([int(x) for x in n2p], dtype=np.int64),
            "d_num": np.array([int(x) for x in maxv], dtype=np.int64),
            "d_stat": round_half_away(d, 6),
            "at_value": round_half_away(
                cents[valid][pick].astype(np.float64) / 100.0, 6),
        })


def _weekend_cohort_cells(t: pa.Table) -> pa.Table:
    """Per-block partial shared by the two-sample cohort tests
    (:func:`ks_test_weekend`, :func:`mannwhitney_weekend`): one row per
    (event_type, cents) with the weekday (``c1``) and weekend (``c2``)
    counts.  Output rows are bounded by |types|·|distinct cents| — a
    VALUE-DOMAIN bound, not a corpus bound."""
    from ..functions.rounding import scaled_int
    from .windows import _epoch_micros
    if "event_type" not in t.column_names or len(t) == 0:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "cents": pa.array([], pa.int64()),
                         "c1": pa.array([], pa.int64()),
                         "c2": pa.array([], pa.int64())})
    v = t["value"].to_numpy(zero_copy_only=False)
    cents = scaled_int(v)
    t_us = np.asarray(_epoch_micros(t["ts"]))
    dow = (t_us // 86_400_000_000 + 4) % 7
    we = ((dow == 0) | (dow == 6)).astype(np.int64)
    tc, tuniq = pd.factorize(t["event_type"].to_pandas(), sort=False)
    # NULL/NaN values drop (the oracle's WHERE value IS NOT NULL) —
    # scaled_int(NaN) is INT64_MIN and would blow up the domain span
    ok = (tc >= 0) & np.isfinite(v)
    tc, cents, we = tc[ok], cents[ok], we[ok]
    lo = int(cents.min()) if len(cents) else 0
    span = (int(cents.max()) - lo + 1) if len(cents) else 1
    cell = (tc.astype(np.int64) * span + (cents - lo)) * 2 + we
    u, inv = np.unique(cell, return_inverse=True)
    cnt = np.zeros(len(u), dtype=np.int64)
    np.add.at(cnt, inv, 1)
    uwe = u & 1
    utc = (u >> 1) // span
    # one row per (type, cents) with both cohort counts
    pair = utc * span + ((u >> 1) % span)
    pu, pinv = np.unique(pair, return_inverse=True)
    c1 = np.zeros(len(pu), dtype=np.int64)
    c2 = np.zeros(len(pu), dtype=np.int64)
    np.add.at(c1, pinv, np.where(uwe == 0, cnt, 0))
    np.add.at(c2, pinv, np.where(uwe == 1, cnt, 0))
    return pa.table({
        "event_type": pa.array(
            np.asarray(tuniq, object)[pu // span], pa.string()),
        "cents": pa.array(pu % span + lo),
        "c1": pa.array(c1), "c2": pa.array(c2)})


def ks_test_weekend(events):
    """Two-sample Kolmogorov-Smirnov test between weekend and weekday
    values per event type — the distribution-shift screen.  Per-block
    (type, cents) cohort-count partials flow through ONE partition-group
    shuffle (rows bounded by |types|·|distinct cents|, a VALUE-DOMAIN
    bound, not a corpus bound) and the close is pure integer arithmetic
    (cross-multiplied ECDFs) until the output ratio."""

    partials = events.map_batches(_weekend_cohort_cells,
                                  batch_format="pyarrow")
    return partition_groups(partials, "event_type", _KsGroup())


class _MannWhitneyGroup:
    """Per-partition closer for :func:`mannwhitney_weekend`: merges the
    co-located (type, cents) cohort-count cells, then computes the
    Mann-Whitney U rank-sum statistic ENTIRELY in integers:
    2·U₁ = Σᵥ (2·c₁(v)·C₂(v⁻) + c₁(v)·c₂(v)) (weekday-over-weekend wins
    cross-counted against the exclusive weekend ECDF, ties counted once
    each), plus the tie-correction term T = Σ(t³ − t) over the combined
    tie groups.  Doubles appear only in the close: the common-language
    effect size u_stat = U₁/(n₁·n₂) and the tie-corrected normal
    approximation z = (U₁ − n₁n₂/2) / √(n₁n₂/12 · ((N³−N−T)/(N(N−1)))),
    each operand cast-first to match the SQL expression bit-for-bit.
    Moments past the int64 bound fall back to exact object ints; types
    missing a cohort emit nothing."""

    def __init__(self, type_col="event_type"):
        self.type_col = type_col

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import math

        from ..functions.rounding import round_half_away
        empty = pd.DataFrame({
            self.type_col: pd.Series([], dtype=object),
            "n_weekday": pd.Series([], dtype=np.int64),
            "n_weekend": pd.Series([], dtype=np.int64),
            "u_num": pd.Series([], dtype=np.int64),
            "u_stat": pd.Series([], dtype=np.float64),
            "z_stat": pd.Series([], dtype=np.float64)})
        # null types drop (oracle scan)
        rows, keys, tcodes, _, _ = key_runs(
            g, self.type_col, ("cents",), keep=g[self.type_col].notna())
        # merge same-(type, cents) partials from different blocks
        cell, _ = _segment_starts(tcodes, rows["cents"].to_numpy(np.int64))
        c1 = np.add.reduceat(rows["c1"].to_numpy(np.int64), cell)
        c2 = np.add.reduceat(rows["c2"].to_numpy(np.int64), cell)
        tcodes, keys = tcodes[cell], keys[cell]
        starts, ends = _segment_starts(tcodes)
        lens = ends - starts
        n1 = np.add.reduceat(c1, starts)
        n2 = np.add.reduceat(c2, starts)
        nn = n1 + n2
        if len(nn) and (float(nn.max()) ** 3 >= float(1 << 62)
                        or float(n1.max()) * float(n2.max())
                        >= float(1 << 61)):
            c1, c2 = c1.astype(object), c2.astype(object)
        # exclusive per-type weekend ECDF at each cell
        excl = np.cumsum(c2) - c2
        c2b = excl - np.repeat(excl[starts], lens)
        u2x = np.add.reduceat(2 * c1 * c2b + c1 * c2, starts)
        t = c1 + c2
        tt = np.add.reduceat(t * t * t - t, starts)
        valid = (n1 > 0) & (n2 > 0)
        if not valid.any():
            return empty
        out_z = []
        for i in np.flatnonzero(valid):
            n1d, n2d = float(n1[i]), float(n2[i])
            nd, td = float(int(n1[i]) + int(n2[i])), float(tt[i])
            z = np.nan
            if nd >= 2.0:
                var = ((n1d * n2d) / 12.0) \
                    * (((nd * nd * nd - nd) - td) / (nd * (nd - 1.0)))
                if var > 0.0:
                    z = round_half_away(np.float64(
                        ((float(u2x[i]) - n1d * n2d) / 2.0)
                        / math.sqrt(var)), 6)
            out_z.append(z)
        vi = np.flatnonzero(valid)
        u_stat = np.array([
            round_half_away(np.float64(
                (float(u2x[i]) / 2.0)
                / (float(n1[i]) * float(n2[i]))), 6)
            for i in vi])
        return pd.DataFrame({
            self.type_col: np.asarray(keys[starts][vi], object),
            "n_weekday": n1[vi].astype(np.int64),
            "n_weekend": n2[vi].astype(np.int64),
            "u_num": np.array([int(u2x[i]) for i in vi], dtype=np.int64),
            "u_stat": u_stat,
            "z_stat": np.array(out_z, dtype=np.float64)})


def mannwhitney_weekend(events):
    """Mann-Whitney U rank-sum test between weekday and weekend values
    per event type — the nonparametric cohort-shift screen (rank
    mechanics, complementing Welch's mean test and KS's sup-distance).
    Shares :func:`_weekend_cohort_cells`' value-domain-bounded partials
    and ONE partition-group shuffle; the close is exact integer
    pair-counting with ties, doubles only in the output statistics."""

    partials = events.map_batches(_weekend_cohort_cells,
                                  batch_format="pyarrow")
    return partition_groups(partials, "event_type", _MannWhitneyGroup())


# --- active-day streaks (gaps-and-islands) ----------------------------------

def _active_day_partial(t: pa.Table) -> pa.Table:
    """Per-block partial for :func:`active_day_streaks`: the DISTINCT
    (user_id, epoch-day) pairs — bounded by |users|·|days span|, a
    calendar-domain bound, not a corpus bound."""
    from .windows import _epoch_micros
    if "user_id" not in t.column_names or len(t) == 0:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "day": pa.array([], pa.int64())})
    u = t["user_id"].to_numpy(zero_copy_only=False)
    ok = ~pd.isna(u)
    u = u[ok].astype(np.int64)
    day = (np.asarray(_epoch_micros(t["ts"]))[ok]
           // 86_400_000_000).astype(np.int64)
    # epoch days are small non-negatives: composite id dedups in one
    # pass — loud guard instead of silent wraparound for ids/dates
    # outside the packing's domain (hashed ids, pre-1970 timestamps)
    if len(u) and (int(u.max()) >= (1 << 39) or int(u.min()) < 0
                   or int(day.min()) < 0):
        raise OverflowError(
            "active_day_streaks: user_id beyond 2^39 or pre-1970 "
            "timestamp breaks the 24-bit day packing — widen the "
            "composite or dedup via np.unique over (u, day) pairs")
    cell = u * (1 << 24) + day
    uq = np.unique(cell)
    return pa.table({"user_id": pa.array(uq >> 24),
                     "day": pa.array(uq & ((1 << 24) - 1))})


class _StreakGroup:
    """Per-partition closer for :func:`active_day_streaks`: gaps-and-
    islands over each co-located user's distinct active days — island
    boundaries where the day delta ≠ 1, the longest island per user
    with the EARLIEST start on ties.  Pure integer arithmetic; matches
    the oracle's ``day − row_number()`` island id exactly."""

    def __init__(self, key_col="user_id"):
        self.key_col = key_col

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        rows, keys, codes, _, _ = key_runs(
            g, self.key_col, ("day",), keep=g[self.key_col].notna())
        day = rows["day"].to_numpy(np.int64)
        # dedup same (user, day) from different blocks
        cell, _ = _segment_starts(codes, day)
        codes, day, keys = codes[cell], day[cell], keys[cell]
        # islands: day − row_number is constant along consecutive days
        istarts, iends = _segment_starts(codes,
                                         day - np.arange(len(day)))
        ilen = (iends - istarts).astype(np.int64)
        istart_day = day[istarts]
        kstarts, kends = _segment_starts(codes[istarts])
        klens = kends - kstarts
        n_days = np.add.reduceat(ilen, kstarts)
        maxlen = np.maximum.reduceat(ilen, kstarts)
        # earliest island attaining the max (islands are start-ordered)
        attain = ilen == np.repeat(maxlen, klens)
        cand = np.where(attain, np.arange(len(ilen)), len(ilen))
        pick = np.minimum.reduceat(cand, kstarts)
        return pd.DataFrame({
            self.key_col: keys[istarts][kstarts],
            "n_days": n_days,
            "max_streak": maxlen,
            "streak_start": istart_day[pick]})


def active_day_streaks(events):
    """Longest consecutive-active-day streak per user (gaps-and-islands)
    — the engagement-continuity screen.  Per-block DISTINCT (user, day)
    partials (calendar-domain bounded) flow through ONE partition-group
    shuffle; the close is pure integer island arithmetic with the
    earliest start on tied lengths."""

    partials = events.map_batches(_active_day_partial,
                                  batch_format="pyarrow")
    return partition_groups(partials, "user_id", _StreakGroup())


# --- activity inequality (Gini) ---------------------------------------------

class _GiniGroup:
    """Per-partition kernel for :func:`gini_activity`: merge the
    same-(type, user) count partials, sort each type's per-user totals
    ascending (Σ i·x_i is invariant under permutation within tied x,
    so no tie-break is needed), and close the Gini coefficient
    G = 2·Σi·x_i/(n·Σx) − (n+1)/n in the oracle's exact double op
    order (i is the 1-based ascending rank)."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        from ..functions.rounding import round_half_away
        empty = pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "n_users": pd.Series([], dtype=np.int64),
            "total_events": pd.Series([], dtype=np.int64),
            "gini": pd.Series([], dtype=np.float64)})
        # null types and users drop (the oracle's WHERE)
        rows, keys, tcode, _, _ = key_runs(
            g, "event_type", ("user_id",),
            keep=g["event_type"].notna() & g["user_id"].notna())
        if len(rows) == 0:
            return empty
        cell, _ = _segment_starts(tcode, rows["user_id"].to_numpy())
        x = np.add.reduceat(rows["c"].to_numpy(np.int64), cell)  # merge
        tcode, keys = tcode[cell], keys[cell]           # block partials
        order = np.lexsort((x, tcode))
        tcode, x, keys = tcode[order], x[order], keys[order]
        starts, ends = _segment_starts(tcode)
        n = (ends - starts).astype(np.int64)
        sx = np.add.reduceat(x, starts)
        if float(n.max()) * float(sx.max()) >= float(1 << 62):
            raise OverflowError(
                "gini_activity: n·Σx approaching int64 — accumulate "
                "Σi·x in (hi, lo) limbs")
        i = np.arange(len(x), dtype=np.int64) \
            - np.repeat(starts, n) + 1          # 1-based rank in type
        sixi = np.add.reduceat(i * x, starts)
        nf = n.astype(np.float64)
        gini = (2.0 * sixi.astype(np.float64)
                / (nf * sx.astype(np.float64))
                - (nf + 1.0) / nf)
        return pd.DataFrame({
            "event_type": np.asarray(keys[starts], dtype=object),
            "n_users": n,
            "total_events": sx,
            "gini": round_half_away(gini, 6),
        })


def gini_activity(events):
    """Gini coefficient of per-user event counts per event type — the
    activity-inequality screen (0 = uniform usage, →1 = a few users
    dominate the stream).  Batch-local (type, user) count partials
    flow through ONE partition-group shuffle keyed on event_type; the
    close sorts each type's per-user totals once, vectorized."""

    def _partial(t: pa.Table) -> pa.Table:
        if "event_type" not in t.column_names or len(t) == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "user_id": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        tc, tuniq = pd.factorize(t["event_type"].to_pandas(), sort=False)
        kc, kuniq = pd.factorize(t["user_id"].to_pandas(), sort=False)
        ok = (tc >= 0) & (kc >= 0)              # nulls drop (oracle WHERE)
        tc, kc = tc[ok], kc[ok]
        nu = max(len(kuniq), 1)
        cell = tc.astype(np.int64) * nu + kc
        u, cnt = np.unique(cell, return_counts=True)
        return pa.table({
            "event_type": pa.array(
                np.asarray(tuniq, dtype=object)[u // nu], pa.string()),
            "user_id": pa.array(
                np.asarray(kuniq)[u % nu], pa.int64()),
            "c": pa.array(cnt.astype(np.int64))})

    partials = events.map_batches(_partial, batch_format="pyarrow")
    return partition_groups(partials, "event_type", _GiniGroup())


# --- event-type transition entropy ------------------------------------------

class _TransitionEntropyGroup:
    """Per-partition kernel for :func:`transition_entropy`: order each
    key's typed events by (t, event_id), count consecutive-pair
    (prev_type, next_type) bigrams, and close the conditional entropy
    H(next|prev) = −Σ_ab (c_ab/N)·ln(c_ab/c_a·) with libm ``math.log``
    per cell and the fold LEFT IN (ta, tb) STRING ORDER — bit-identical
    to the SQL ``list_reduce(list(term ORDER BY ta, tb))``.  Keys with
    fewer than 2 typed events emit nothing (the oracle's inner joins)."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import math

        from ..functions.rounding import round_half_away
        empty = pd.DataFrame({
            "user_id": pd.Series([], dtype=np.int64),
            "n_bigrams": pd.Series([], dtype=np.int64),
            "trans_entropy": pd.Series([], dtype=np.float64)})
        rows, keys, _, starts, ends = key_runs(
            g, keep=g["user_id"].notna() & g["event_type"].notna())
        # each row's key ordinal (keys are sorted, so this is their rank)
        ucodes = np.repeat(np.arange(len(starts)), ends - starts)
        tcodes, tuniq = pd.factorize(rows["event_type"], sort=False)
        same = ucodes[1:] == ucodes[:-1]
        if not same.any():
            return empty
        uu0 = ucodes[:-1][same].astype(np.int64)
        a0 = tcodes[:-1][same].astype(np.int64)
        b0 = tcodes[1:][same].astype(np.int64)
        nt = max(len(tuniq), 1)
        cell = (uu0 * nt + a0) * nt + b0
        uc, cnt = np.unique(cell, return_counts=True)
        uu = uc // (nt * nt)
        aa = (uc // nt) % nt
        bb = uc % nt
        # c_a· per (user, prev) and N per user, broadcast to cells
        ka, inva = np.unique(uu * nt + aa, return_inverse=True)
        ca = np.zeros(len(ka), dtype=np.int64)
        np.add.at(ca, inva, cnt)
        ca_cell = ca[inva]
        ku, invu = np.unique(uu, return_inverse=True)
        nf = np.zeros(len(ku), dtype=np.int64)
        np.add.at(nf, invu, cnt)
        nf_cell = nf[invu]
        # fold in (user, ta, tb) STRING order
        sa = np.asarray(tuniq, dtype=object)[aa]
        sb = np.asarray(tuniq, dtype=object)[bb]
        o2 = np.lexsort((sb, sa, uu))
        uu, cnt = uu[o2], cnt[o2]
        ca_cell, nf_cell = ca_cell[o2], nf_cell[o2]
        out_u, out_n, out_h = [], [], []
        prev_u, acc = -1, 0.0
        for i in range(len(uu)):
            if uu[i] != prev_u:
                if prev_u >= 0:
                    out_h.append(-acc)
                prev_u, acc = uu[i], 0.0
                out_u.append(prev_u)
                out_n.append(int(nf_cell[i]))
            acc += (float(cnt[i]) / float(nf_cell[i])) \
                * math.log(float(cnt[i]) / float(ca_cell[i]))
        out_h.append(-acc)
        return pd.DataFrame({
            "user_id": keys[starts][np.array(out_u, dtype=np.int64)],
            "n_bigrams": np.array(out_n, dtype=np.int64),
            "trans_entropy": round_half_away(
                np.array(out_h, dtype=np.float64), 6),
        })


def transition_entropy(events):
    """Conditional entropy of each user's event-type TRANSITIONS
    (H(next|prev) over consecutive typed events) — the sequence-
    predictability screen (0 = deterministic flows, ln|types| =
    memoryless).  One partition-group shuffle; the bigram cells per
    key are bounded by |types|², so the libm close is tiny."""
    from .windows import _epoch_micros

    def _prep(batch: pa.Table) -> pa.Table:
        if "ts" not in batch.column_names or len(batch) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "event_id": pa.array([], pa.int64()),
                             "event_type": pa.array([], pa.string()),
                             "t": pa.array([], pa.int64())})
        return pa.table({"user_id": batch["user_id"],
                         "event_id": batch["event_id"],
                         "event_type": batch["event_type"],
                         "t": pa.array(_epoch_micros(batch["ts"]))})

    prepped = events.map_batches(_prep, batch_format="pyarrow")
    return partition_groups(prepped, "user_id", _TransitionEntropyGroup())


# --- Benford first-digit screen ---------------------------------------------

class _BenfordGroup:
    """Per-partition kernel for :func:`benford_digits`: merge the
    (type, digit) count partials, densify to the 9-digit grid, and
    close χ² = Σ_d (o_d − n·p_d)²/(n·p_d) with Benford
    p_d = ln(1+1/d)/ln(10) — libm ``math.log`` per digit (== DuckDB
    ``ln`` bitwise) and the fold left in digit order, matching the SQL
    ``list_reduce(list(term ORDER BY d))``."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import math

        from ..functions.rounding import round_half_away
        empty = pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "n": pd.Series([], dtype=np.int64),
            "chi2": pd.Series([], dtype=np.float64)})
        if len(g) == 0:
            return empty
        tc, tuniq = pd.factorize(g["event_type"], sort=False)
        d = g["d"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        nt = len(tuniq)
        mat = np.zeros((nt, 9), dtype=np.int64)
        np.add.at(mat, (tc, d - 1), c)
        n = mat.sum(axis=1)
        ln10 = math.log(10.0)
        out_t, out_n, out_chi = [], [], []
        for ti in range(nt):
            nf = float(n[ti])
            if nf == 0.0:
                continue
            acc = 0.0
            for dd in range(1, 10):
                p = math.log(1.0 + 1.0 / float(dd)) / ln10
                e = nf * p
                diff = float(mat[ti, dd - 1]) - e
                acc += diff * diff / e
            out_t.append(tuniq[ti])
            out_n.append(int(n[ti]))
            out_chi.append(acc)
        return pd.DataFrame({
            "event_type": np.asarray(out_t, dtype=object),
            "n": np.array(out_n, dtype=np.int64),
            "chi2": round_half_away(
                np.array(out_chi, dtype=np.float64), 6),
        })


def benford_digits(events):
    """Benford's-law first-digit χ² per event type — the fabricated /
    synthetic-numerics screen.  The first significant digit comes from
    the cents integer by repeated div-10 (exact, no float log); zero
    cents are excluded.  Batch-local (type, digit) count partials
    through ONE tiny partition-group shuffle; the close is 9 libm
    terms per type."""
    from ..functions.rounding import scaled_int

    def _partial(t: pa.Table) -> pa.Table:
        if "event_type" not in t.column_names or len(t) == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "d": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        tc, tuniq = pd.factorize(t["event_type"].to_pandas(), sort=False)
        v = t["value"].to_pandas().to_numpy(np.float64)
        cents = scaled_int(np.abs(v))
        ok = (tc >= 0) & np.isfinite(v) & (cents > 0)
        tc, cents = tc[ok], cents[ok]
        while (cents >= 10).any():              # ≤7 vectorized rounds
            big = cents >= 10
            cents[big] //= 10
        cell = tc.astype(np.int64) * 9 + (cents - 1)
        u, cnt = np.unique(cell, return_counts=True)
        return pa.table({
            "event_type": pa.array(
                np.asarray(tuniq, dtype=object)[u // 9], pa.string()),
            "d": pa.array((u % 9 + 1).astype(np.int64)),
            "c": pa.array(cnt.astype(np.int64))})

    partials = events.map_batches(_partial, batch_format="pyarrow")
    return partition_groups(partials, "event_type", _BenfordGroup())


# --- Wald–Wolfowitz runs test -----------------------------------------------

class _RunsTestGroup:
    """Per-partition kernel for :func:`runs_test`: per key, median of
    the values ((lo+hi)/2 on even counts == DuckDB quantile_cont(0.5)
    bitwise), drop exact-median rows, then count sign runs in
    (t, event_id) order and close the normal z in the oracle's exact
    double op order.  Keys losing every row to the median filter emit
    nothing; one-sided keys (n1·n2 = 0, or n1 = n2 = 1 where the
    variance is zero) emit NULL z."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import math

        from ..functions.rounding import round_half_away
        # NULL keys and NULL/NaN values drop (the oracle's WHERE; a
        # NaN would survive the v != median filter as "below")
        rows, keys, codes, ks, ke = key_runs(
            g, keep=g["user_id"].notna()
            & np.isfinite(g["value"].to_numpy(np.float64)))
        v = rows["value"].to_numpy(np.float64)
        # per-key median from the value-sorted layout
        vv = v[np.lexsort((v, codes))]
        kc = ke - ks
        med = (vv[ks + (kc - 1) // 2] + vv[ks + kc // 2]) / 2.0
        # event-order pass: drop exact-median rows, count runs
        m_row = np.repeat(med, kc)
        keep = v != m_row
        codes2, v2, keys2 = codes[keep], v[keep], keys[keep]
        m2 = m_row[keep]
        if len(v2) == 0:
            return pd.DataFrame({
                "user_id": rows["user_id"].iloc[:0],
                "n_above": pd.Series([], dtype=np.int64),
                "n_below": pd.Series([], dtype=np.int64),
                "runs": pd.Series([], dtype=np.int64),
                "z": pd.Series([], dtype=np.float64)})
        sgn = (v2 > m2).astype(np.int64)
        starts, ends = _segment_starts(codes2)
        cnt = (ends - starts).astype(np.int64)
        chg = np.r_[0, (sgn[1:] != sgn[:-1]).astype(np.int64)]
        chg[starts] = 0
        cchg = np.concatenate([[0], np.cumsum(chg)])
        runs = 1 + (cchg[ends] - cchg[starts])
        cs = np.concatenate([[0], np.cumsum(sgn)])
        n1 = cs[ends] - cs[starts]
        n2 = cnt - n1
        n1f, n2f = n1.astype(np.float64), n2.astype(np.float64)
        nf = n1f + n2f
        two = 2.0 * n1f * n2f
        ok = (n1 > 0) & (n2 > 0) & (two > nf)
        z = np.full(len(starts), np.nan)
        for i in np.flatnonzero(ok):
            mu = two[i] / nf[i] + 1.0
            z[i] = (float(runs[i]) - mu) / math.sqrt(
                (two[i] * (two[i] - nf[i]))
                / (nf[i] * nf[i] * (nf[i] - 1.0)))
        return pd.DataFrame({
            "user_id": keys2[starts],
            "n_above": n1,
            "n_below": n2,
            "runs": runs.astype(np.int64),
            "z": np.where(ok, round_half_away(z, 6), np.nan)})


def runs_test(events):
    """Wald–Wolfowitz runs test per user — is the value sequence
    random around its median, or does it trend/oscillate?  One
    partition-group shuffle; medians, run counting and the z close
    are all vectorized across co-located keys."""
    from .windows import _epoch_micros

    def _prep(batch: pa.Table) -> pa.Table:
        if "ts" not in batch.column_names or len(batch) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "event_id": pa.array([], pa.int64()),
                             "value": pa.array([], pa.float64()),
                             "t": pa.array([], pa.int64())})
        return pa.table({"user_id": batch["user_id"],
                         "event_id": batch["event_id"],
                         "value": batch["value"],
                         "t": pa.array(_epoch_micros(batch["ts"]))})

    prepped = events.map_batches(_prep, batch_format="pyarrow")
    return partition_groups(prepped, "user_id", _RunsTestGroup())


# --- burstiness (Fano factor) -----------------------------------------------

class _FanoGroup:
    """Per-partition kernel for :func:`fano_factor`: merge the
    (user, hour) count partials, then per user over its FULL hourly
    span [min_hour, max_hour] (absent cells are exact zeros, so Σc and
    Σc² come from present cells alone) close the population
    variance-to-mean ratio in the oracle's double op order."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        from ..functions.rounding import round_half_away
        empty = pd.DataFrame({
            "user_id": pd.Series([], dtype=np.int64),
            "n_events": pd.Series([], dtype=np.int64),
            "span_hours": pd.Series([], dtype=np.int64),
            "fano": pd.Series([], dtype=np.float64)})
        # null users drop (the oracle's WHERE)
        rows, keys, uc, _, _ = key_runs(g, by=("h",),
                                        keep=g["user_id"].notna())
        if len(rows) == 0:
            return empty
        h = rows["h"].to_numpy(np.int64)
        # merge same-(user, hour) partials from different blocks
        cs, _ = _segment_starts(uc, h)
        cm = np.add.reduceat(rows["c"].to_numpy(np.int64), cs)
        ucm, hm, keys = uc[cs], h[cs], keys[cs]
        if float(np.abs(cm).max()) ** 2 * len(cm) >= float(1 << 62):
            raise OverflowError(
                "fano_factor: Σc² approaching int64 — accumulate in "
                "(hi, lo) limbs")
        us, ends = _segment_starts(ucm)
        n = np.add.reduceat(cm, us)
        sq = np.add.reduceat(cm * cm, us)
        span = hm[ends - 1] - hm[us] + 1
        nf, sqf = n.astype(np.float64), sq.astype(np.float64)
        spanf = span.astype(np.float64)
        mean = nf / spanf
        fano = (sqf / spanf - mean * mean) / mean
        return pd.DataFrame({
            "user_id": keys[us],
            "n_events": n,
            "span_hours": span.astype(np.int64),
            "fano": round_half_away(fano, 6)})


def fano_factor(events):
    """Fano factor (variance-to-mean of hourly event counts over each
    user's active span) — the burstiness screen: ≈1 Poisson, ≫1
    bursty, <1 metronomic.  Batch-local (user, hour) count partials
    through ONE partition-group shuffle; the dense-grid moments need
    only the present cells."""
    from .windows import _epoch_micros

    def _partial(t: pa.Table) -> pa.Table:
        if "ts" not in t.column_names or len(t) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "h": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        uc, uniq = pd.factorize(t["user_id"].to_pandas(), sort=False)
        h = np.asarray(_epoch_micros(t["ts"])) // 1_000_000 // 3600
        ok = uc >= 0
        uc, h = uc[ok], h[ok]
        if len(uc) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "h": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        hmin = h.min()
        nh = int(h.max() - hmin) + 1
        cell = uc.astype(np.int64) * nh + (h - hmin)
        u, cnt = np.unique(cell, return_counts=True)
        return pa.table({
            "user_id": pa.array(np.asarray(uniq)[u // nh], pa.int64()),
            "h": pa.array((u % nh + hmin).astype(np.int64)),
            "c": pa.array(cnt.astype(np.int64))})

    partials = events.map_batches(_partial, batch_format="pyarrow")
    return partition_groups(partials, "user_id", _FanoGroup())


# --- cohort retention triangle ----------------------------------------------

class _CohortCellsGroup:
    """Per-partition kernel for :func:`cohort_retention` (stage 2):
    every key's distinct active days are co-located; the key's cohort
    is its MIN day and each active day emits one (cohort_day,
    age_days) cell — already user-distinct by construction."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        # NULL user ids never anchor a cohort
        rows, _, codes, _, _ = key_runs(g, by=("day",),
                                        keep=g["user_id"].notna())
        day = rows["day"].to_numpy(np.int64)
        # the same (user, day) can arrive from several blocks'
        # partials — dedup before counting
        first, _ = _segment_starts(codes, day)
        codes, day = codes[first], day[first]
        starts, ends = _segment_starts(codes)
        cnt = ends - starts
        cohort = np.repeat(day[starts], cnt)    # min day per key
        age = day - cohort
        # count per (cohort, age) cell — ages are bounded by the span
        span = int(age.max()) + 1 if len(age) else 1
        cell = cohort * span + age
        u, c = np.unique(cell, return_counts=True)
        return pd.DataFrame({
            "cohort_day": (u // span).astype(np.int64),
            "age_days": (u % span).astype(np.int64),
            "n": c.astype(np.int64)})


class _CohortClose:
    """Closing kernel for :func:`cohort_retention`: the summed
    (cohort_day, age_days, n) cells arrive as ONE calendar-bounded
    block; cohort size is the age-0 count (every user is active on
    its own cohort day) and retention closes as one double division."""

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        empty = pa.table({"cohort_day": pa.array([], pa.int64()),
                          "age_days": pa.array([], pa.int64()),
                          "n_active": pa.array([], pa.int64()),
                          "cohort_size": pa.array([], pa.int64()),
                          "retention": pa.array([], pa.float64())})
        if len(t) == 0 or "cohort_day" not in t.column_names:
            return empty
        co = t["cohort_day"].to_numpy()
        age = t["age_days"].to_numpy()
        n = t["n"].to_numpy()
        uc, inv = np.unique(co, return_inverse=True)
        size = np.zeros(len(uc), dtype=np.int64)
        base = age == 0
        size[inv[base]] = n[base]
        cohort_size = size[inv]
        ret = n.astype(np.float64) / cohort_size.astype(np.float64)
        return pa.table({
            "cohort_day": pa.array(co.astype(np.int64)),
            "age_days": pa.array(age.astype(np.int64)),
            "n_active": pa.array(n.astype(np.int64)),
            "cohort_size": pa.array(cohort_size),
            "retention": pa.array(round_half_away(ret, 6))})


def cohort_retention(events):
    """Daily cohort-retention triangle — the product-analytics
    staple: for each signup-day cohort (a user's first active day),
    the share of the cohort active at each later age.  Three bounded
    stages: distinct (user, day) partials (calendar-domain bound),
    one partition-group shuffle by user to anchor cohorts, one tiny
    keyed groupby of (cohort, age) cells, a single-block close."""
    partials = events.map_batches(_active_day_partial,
                                  batch_format="pyarrow")
    cells = partition_groups(partials, "user_id", _CohortCellsGroup())
    summed = combine(cells, ["cohort_day", "age_days"], sums_of("n"))
    return summed.repartition(1).map_batches(
        _CohortClose(), batch_format="pyarrow", batch_size=None)


# --- TPC-H-Q14-shaped promo revenue share ------------------------------------

class _PromoScore:
    """Task-cached lineitem scorer for :func:`promo_revenue_share`:
    the part dimension's (sorted partkey, is-promo flag) arrays ship
    once per worker; each batch emits ONE (prom, tot) partial in exact
    1e-4-dollar integers (``rev4 = price_cents · (100 − disc_pct)``).
    Lineitems whose partkey is absent from part drop — inner-join
    semantics without shuffling the fact table."""

    def __init__(self, keys_ref, promo_ref):
        import ray
        self.keys = ray.get(keys_ref)
        self.promo = ray.get(promo_ref)

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.rounding import scaled_int
        if len(t) == 0:
            return pa.table({"prom": pa.array([], pa.int64()),
                             "tot": pa.array([], pa.int64())})
        ep = scaled_int(t["l_extendedprice"].to_numpy(zero_copy_only=False))
        dc = scaled_int(t["l_discount"].to_numpy(zero_copy_only=False))
        rev4 = ep * (100 - dc)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(self.keys, pk)
        idx_c = np.minimum(idx, len(self.keys) - 1)
        present = self.keys[idx_c] == pk
        is_promo = present & self.promo[idx_c]
        return pa.table({
            "prom": pa.array([int(rev4[is_promo].sum())], pa.int64()),
            "tot": pa.array([int(rev4[present].sum())], pa.int64())})


def promo_revenue_share(lineitem, part):
    """TPC-H-Q14-shaped promo revenue share: the percentage of joined
    revenue carried by PROMO parts.  The part dimension broadcasts
    once (``ray.put`` of two aligned arrays — the prescribed
    small-side pattern; never a fact-table shuffle), batches emit one
    exact-integer partial each, and ONE tiny Sum aggregate closes the
    three output doubles."""
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    from .taskcache import class_task

    dim = part.select_columns(["p_partkey", "p_type"]).to_arrow_refs()
    parts = [p for p in ray.get(dim) if p is not None and len(p)]
    if parts:
        tbl = pa.concat_tables(parts)
        pk = tbl["p_partkey"].to_numpy(zero_copy_only=False)
        promo = pc.equal(tbl["p_type"], "PROMO").to_numpy(
            zero_copy_only=False)
        order = np.argsort(pk, kind="stable")
        keys, promo = pk[order], promo[order]
    else:
        keys = np.array([], dtype=np.int64)
        promo = np.array([], dtype=bool)
    keys_ref, promo_ref = ray.put(keys), ray.put(promo)
    partials = lineitem.map_batches(
        class_task(_PromoScore, keys_ref, promo_ref),
        batch_format="pyarrow")
    g = partials.aggregate(Sum("prom", alias_name="prom"),
                           Sum("tot", alias_name="tot"))
    from ..functions.rounding import round_half_away
    prom = int(g["prom"] or 0)
    tot = int(g["tot"] or 0)
    out = {
        "promo_rev": pa.array([round_half_away(
            np.float64(float(prom) / 10000.0), 6)], pa.float64()),
        "total_rev": pa.array([round_half_away(
            np.float64(float(tot) / 10000.0), 6)], pa.float64()),
        "promo_share": pa.array(
            [round_half_away(np.float64(100.0 * float(prom) / float(tot)),
                             6)] if tot else [None], pa.float64()),
    }
    import ray.data as rd
    return rd.from_arrow(pa.table(out))


# --- TPC-H-Q12-shaped late-shipment priority counts --------------------------

def late_shipment_priority(lineitem, orders, *, grace_days: int = 90):
    """TPC-H-Q12-shaped shipping-delay accounting: per order priority,
    how many lineitems shipped more than ``grace_days`` after the
    order date vs on time.  One partitioned hash join on orderkey (the
    package's bucket-join machinery), then integer indicator partials
    into a 5-row groupby."""
    from .joins import hash_join
    from .windows import _epoch_micros

    j = hash_join(lineitem, orders, "l_orderkey", "o_orderkey",
                  how="inner")
    grace_us = grace_days * 86_400_000_000

    def _flags(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"o_orderpriority": pa.array([], pa.string()),
                             "late_count": pa.array([], pa.int64()),
                             "ontime_count": pa.array([], pa.int64())})
        ship = np.asarray(_epoch_micros(t["l_shipdate"]))
        od = np.asarray(_epoch_micros(t["o_orderdate"]))
        late = ship > od + grace_us
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "late_count": pa.array(late.astype(np.int64)),
            "ontime_count": pa.array((~late).astype(np.int64))})

    return combine(j.map_batches(_flags, batch_format="pyarrow"),
                   ["o_orderpriority"], sums_of("late_count", "ontime_count"))


# --- Grubbs single-outlier test ----------------------------------------------

class _GrubbsGroup:
    """Per-partition kernel for :func:`grubbs_test`: per event type,
    ``G = max|x − x̄| / s`` with everything exact until the close —
    ``y = n·c − Σc`` keeps deviations in int64 (bounded |y| ≤ 2n·max|c|,
    guarded), ``Σy² = n²Σc² − nS²`` is computed per GROUP in exact
    Python ints (never a per-row 128-bit array), the argmax row ties
    to the smallest event_id, and the close replays the SQL double
    chain ``(M/n) / √(D/(n²(n−1)))``."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import math

        from ..functions.rounding import round_half_away, scaled_int
        empty = pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "n": pd.Series([], dtype=np.int64),
            "outlier_event_id": pd.Series([], dtype=np.int64),
            "outlier_value": pd.Series([], dtype=np.float64),
            "g_stat": pd.Series([], dtype=np.float64)})
        rows, types, _, starts, ends = key_runs(
            g, "event_type", ("event_id",),
            keep=g["event_type"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        ids = rows["event_id"].to_numpy(np.int64)
        vals = rows["value"].to_numpy(np.float64)
        c = scaled_int(vals)
        n = len(c)
        lens = ends - starts
        s_grp = np.add.reduceat(c, starts)
        nk_row = np.repeat(lens, lens)
        y = nk_row * c - np.repeat(s_grp, lens)
        absy = np.abs(y)
        m_grp = np.maximum.reduceat(absy, starts)
        cmax = int(np.abs(c).max()) if n else 0
        sc2 = (np.add.reduceat(c.astype(object) * c.astype(object), starts)
               if cmax and cmax * cmax * n >= (1 << 62)
               else np.add.reduceat(c * c, starts))
        out = []
        for i, (s, ln) in enumerate(zip(starts, lens)):
            if ln < 3:
                continue
            nk, sk = int(ln), int(s_grp[i])
            d_exact = nk * nk * int(sc2[i]) - nk * sk * sk
            if d_exact <= 0:
                continue
            m = int(m_grp[i])
            seg = slice(s, s + ln)
            hit = np.flatnonzero(absy[seg] == m)
            eid = int(ids[seg][hit].min())
            val = float(vals[seg][hit[np.argmin(ids[seg][hit])]])
            gstat = ((float(m) / float(nk))
                     / math.sqrt(float(d_exact)
                                 / float(nk * nk * (nk - 1))))
            out.append((types[s], nk, eid, val,
                        round_half_away(gstat, 6)))
        if not out:
            return empty
        et, nn, ei, ov, gs = zip(*out)
        return pd.DataFrame({
            "event_type": list(et),
            "n": np.array(nn, dtype=np.int64),
            "outlier_event_id": np.array(ei, dtype=np.int64),
            "outlier_value": np.array(ov, dtype=np.float64),
            "g_stat": np.array(gs, dtype=np.float64)})


def grubbs_test(events):
    """Per-event-type Grubbs single-outlier test — the classic
    one-point ESD screen: the most extreme value's studentized
    deviation, with the offending event identified (ties → smallest
    event_id).  One partition-group shuffle over the bounded type
    domain; exact integer moments, one double chain per type."""

    def _prep(batch: pa.Table) -> pa.Table:
        cols = ["event_type", "event_id", "value"]
        if not all(col in batch.column_names for col in cols):
            return pa.table({
                "event_type": pa.array([], pa.string()),
                "event_id": pa.array([], pa.int64()),
                "value": pa.array([], pa.float64())})
        return batch.select(cols)

    prepped = events.map_batches(_prep, batch_format="pyarrow")
    return partition_groups(prepped, "event_type", _GrubbsGroup())


# --- distribution drift (split-half chi-square) --------------------------------

class _DriftChi2Group:
    """Per-partition kernel for :func:`drift_chi2`: per event type the
    stream splits at ``nk // 2`` in (t, event_id) order, values bucket
    into 20 fixed-width cents bins (clamped), and the chi-square
    homogeneity statistic folds over PRESENT bins in ascending bin
    order — expected counts are exact-integer ratios cast once, each
    bin term is a fixed double expression, so the SQL twin matches at
    6dp.  Types with < 2 rows drop."""

    BIN_CENTS, N_BINS = 1000, 20

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        from ..functions.rounding import round_half_away, scaled_int
        empty = pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "n": pd.Series([], dtype=np.int64),
            "dof": pd.Series([], dtype=np.int64),
            "chi2": pd.Series([], dtype=np.float64)})
        rows, types, _, starts, ends = key_runs(
            g, "event_type", keep=g["event_type"].notna()
            & ~np.isnan(g["value"].to_numpy(np.float64)))
        cents = scaled_int(rows["value"].to_numpy(np.float64))
        n = len(cents)
        lens = ends - starts
        local = np.arange(n) - np.repeat(starts, lens)
        nk_row = np.repeat(lens, lens)
        second = local >= (nk_row // 2)        # rn > nk//2
        bins = np.clip(cents // self.BIN_CENTS, 0, self.N_BINS - 1)
        seg = np.repeat(np.arange(len(starts)), lens)
        slot = (seg * self.N_BINS + bins) * 2 + second
        cnt = np.bincount(slot, minlength=len(starts) * self.N_BINS * 2)
        cnt = cnt.reshape(len(starts), self.N_BINS, 2)
        out = []
        for i, (s, nk) in enumerate(zip(starts, lens)):
            if nk < 2:
                continue
            n1, n2 = int(nk // 2), int(nk - nk // 2)
            o1, o2 = cnt[i, :, 0], cnt[i, :, 1]
            present = np.flatnonzero(o1 + o2 > 0)
            chi2 = 0.0
            for b in present:                  # ≤ N_BINS, bin order
                tot = int(o1[b] + o2[b])
                e1 = float(n1 * tot) / float(nk)
                e2 = float(n2 * tot) / float(nk)
                d1 = float(o1[b]) - e1
                d2 = float(o2[b]) - e2
                chi2 += d1 * d1 / e1 + d2 * d2 / e2
            out.append((types[s], int(nk), len(present) - 1,
                        round_half_away(chi2, 6)))
        if not out:
            return empty
        et, nn, dof, x2 = zip(*out)
        return pd.DataFrame({
            "event_type": list(et),
            "n": np.array(nn, dtype=np.int64),
            "dof": np.array(dof, dtype=np.int64),
            "chi2": np.array(x2, dtype=np.float64)})


def drift_chi2(events):
    """Per-event-type split-half distribution drift: the chi-square
    homogeneity statistic between the first and second half of the
    type's value stream over 20 fixed cents bins — the ops-monitoring
    drift screen.  One partition-group shuffle over the bounded type
    domain; integer counts, ordered per-bin double folds."""
    from ..stages.timeseries import _prep_events

    prepped = _prep_events(events, cols=("event_type", "event_id",
                                         "value"))
    return partition_groups(prepped, "event_type", _DriftChi2Group())


# --- global user value ranks ----------------------------------------------------

def user_value_ranks(events):
    """Global leaderboard ranks over per-user value totals: RANK,
    PERCENT_RANK and CUME_DIST by ascending total (exact cents) —
    the window-rank family on an aggregate, computed WITHOUT a global
    sort of the event stream: cents totals reduce per user (one
    |users|-row groupby), and only that bounded table crosses to a
    single-block rank close (ties share min-rank / max-cume exactly
    like the SQL window)."""
    import pyarrow.compute as pc

    from ..functions.rounding import round_half_away, scaled_int

    def _cents(t: pa.Table) -> pa.Table:
        if "value" not in t.column_names or len(t) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        keep = pc.and_(pc.is_valid(t["user_id"]),
                       pc.is_valid(t["value"]))
        t = t.filter(keep)
        return pa.table({
            "user_id": t["user_id"],
            "cents": pa.array(scaled_int(
                t["value"].to_numpy(zero_copy_only=False)))})

    sums = combine(events.map_batches(_cents, batch_format="pyarrow"),
                   ["user_id"], sums_of("cents"))

    def _close(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "user_id": pa.array([], pa.int64()),
            "total_value": pa.array([], pa.float64()),
            "rnk": pa.array([], pa.int64()),
            "pct_rank": pa.array([], pa.float64()),
            "cume": pa.array([], pa.float64())})
        if len(t) == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.lexsort((uid, cents))
        uid, cents = uid[order], cents[order]
        n = len(cents)
        run_first = np.r_[True, cents[1:] != cents[:-1]]
        run_id = np.cumsum(run_first) - 1
        run_starts = np.flatnonzero(run_first)
        run_ends = np.r_[run_starts[1:], n]
        rnk = (run_starts + 1)[run_id]
        cume_cnt = run_ends[run_id]
        pct = ((rnk - 1).astype(np.float64) / float(n - 1)
               if n > 1 else np.zeros(n))
        return pa.table({
            "user_id": pa.array(uid),
            "total_value": pa.array(round_half_away(
                cents.astype(np.float64) / 100.0, 6)),
            "rnk": pa.array(rnk.astype(np.int64)),
            "pct_rank": pa.array(round_half_away(pct, 6)),
            "cume": pa.array(round_half_away(
                cume_cnt.astype(np.float64) / float(n), 6))})

    return sums.repartition(1).map_batches(_close,
                                           batch_format="pyarrow",
                                           batch_size=None)


# --- TPC-H-Q4-shaped order priority check --------------------------------------

def order_priority_check(lineitem, orders, *, grace_days: int = 90):
    """TPC-H-Q4-shaped EXISTS aggregate: per order priority, how many
    orders have AT LEAST ONE lineitem shipped more than ``grace_days``
    after the order date.  The late-lineitem ORDERKEY SET (distinct,
    orders-bounded) semi-joins orders — the fact table never shuffles
    whole rows; counts are pure integers."""
    from .joins import hash_join, semi_join
    from .windows import _epoch_micros

    j = hash_join(lineitem, orders.select_columns(["o_orderkey",
                                                   "o_orderdate"]),
                  "l_orderkey", "o_orderkey", how="inner")
    grace_us = grace_days * 86_400_000_000

    def _late_keys(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"o_orderkey": pa.array([], pa.int64())})
        ship = np.asarray(_epoch_micros(t["l_shipdate"]))
        od = np.asarray(_epoch_micros(t["o_orderdate"]))
        late = ship > od + grace_us
        return pa.table({"o_orderkey": t["o_orderkey"].filter(
            pa.array(late))})

    late_keys = j.map_batches(_late_keys, batch_format="pyarrow")
    hit = semi_join(orders.select_columns(["o_orderkey",
                                           "o_orderpriority"]),
                    late_keys, "o_orderkey")
    return combine(hit, ["o_orderpriority"],
                   [([], "count_all", "late_orders")])


# --- RFM quintile scores ---------------------------------------------------------

def rfm_scores(events):
    """RFM segmentation per user: quintile scores (1-5, 5 = best) for
    Recency (latest event time, newer is better), Frequency (event
    count) and Monetary (exact cents total), plus the concatenated
    ``rfm`` code — the marketing-segmentation staple.

    Per-user sufficient statistics reduce in ONE |users|-row groupby
    (exact integers); only that bounded table crosses to a single-block
    close where each NTILE(5) runs over a deterministic total order
    (metric, then user_id) — the SQL twin states the identical
    orders."""
    import pyarrow.compute as pc

    from .windows import _epoch_micros
    from ..functions.rounding import scaled_int

    def _prep(t: pa.Table) -> pa.Table:
        if "ts" not in t.column_names or len(t) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "t": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        keep = pc.and_(pc.is_valid(t["user_id"]),
                       pc.is_valid(t["value"]))
        t = t.filter(keep)
        return pa.table({
            "user_id": t["user_id"],
            "t": pa.array(np.asarray(_epoch_micros(t["ts"]))),
            "cents": pa.array(scaled_int(
                t["value"].to_numpy(zero_copy_only=False)))})

    sums = combine(events.map_batches(_prep, batch_format="pyarrow"),
                   ["user_id"], [("t", "max", "last_t"),
                                 ([], "count_all", "freq"),
                                 ("cents", "sum", "cents")])

    def _ntile(order_keys: np.ndarray, uid: np.ndarray) -> np.ndarray:
        """NTILE(5) positions over (key asc, user_id asc) — DuckDB's
        equal-fill rule: first (n % 5) tiles get the extra row."""
        n = len(uid)
        order = np.lexsort((uid, order_keys))
        base, extra = divmod(n, 5)
        sizes = np.full(5, base, dtype=np.int64)
        sizes[:extra] += 1
        tile = np.repeat(np.arange(1, 6, dtype=np.int64), sizes)
        out = np.empty(n, dtype=np.int64)
        out[order] = tile
        return out

    def _close(t: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        empty = pa.table({
            "user_id": pa.array([], pa.int64()),
            "r_score": pa.array([], pa.int64()),
            "f_score": pa.array([], pa.int64()),
            "m_score": pa.array([], pa.int64()),
            "rfm": pa.array([], pa.string()),
            "monetary": pa.array([], pa.float64())})
        if len(t) == 0:
            return empty
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        last_t = t["last_t"].to_numpy(zero_copy_only=False)
        freq = t["freq"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        r = _ntile(last_t, uid)               # newer (larger t) → 5
        f = _ntile(freq, uid)
        m = _ntile(cents, uid)
        rfm = (pd.Series(r).astype(str) + pd.Series(f).astype(str)
               + pd.Series(m).astype(str))
        return pa.table({
            "user_id": pa.array(uid),
            "r_score": pa.array(r),
            "f_score": pa.array(f),
            "m_score": pa.array(m),
            "rfm": pa.array(rfm, pa.string()),
            "monetary": pa.array(round_half_away(
                cents.astype(np.float64) / 100.0, 6))})

    return sums.repartition(1).map_batches(_close,
                                           batch_format="pyarrow",
                                           batch_size=None)


# --- TPC-H-Q7-shaped volume shipping -----------------------------------------

def volume_shipping(lineitem, orders, customer, supplier, nation):
    """TPC-H-Q7-shaped cross-nation shipping volume: revenue per
    (supplier nation, customer nation, ship year).

    Scale-honest plan: lineitem pre-aggregates to one row per
    (orderkey, suppkey, year) BEFORE any join (revenue partials in
    exact 1e-4-dollar integers), then bucket-hash-joins supplier on
    suppkey, orders on orderkey and customer on custkey — none of the
    three fact/dimension sides is broadcastable at real TPC-H scale —
    and only the 25-row nation dim broadcasts (twice, one lookup per
    endpoint).  The final groupby is tiny (|nations|² × |years|)."""
    from .joins import hash_join

    def _li_partial(t: pa.Table) -> pa.Table:
        p100 = _scaled_cents(t["l_extendedprice"])
        d100 = _scaled_cents(t["l_discount"])
        df = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
            "l_suppkey": t["l_suppkey"].to_numpy(zero_copy_only=False),
            "l_year": t["l_shipdate"].to_pandas().dt.year
            .to_numpy(np.int64),
            "rev1e4": p100 * (100 - d100)})
        part = df.groupby(["l_orderkey", "l_suppkey", "l_year"],
                          as_index=False, sort=False, dropna=False).sum()
        schema = pa.schema([("l_orderkey", t["l_orderkey"].type),
                            ("l_suppkey", t["l_suppkey"].type),
                            ("l_year", pa.int64()),
                            ("rev1e4", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    li_pre = lineitem.map_batches(_li_partial, batch_format="pyarrow")
    j1 = hash_join(li_pre, supplier.select_columns(
        ["s_suppkey", "s_nationkey"]), "l_suppkey", "s_suppkey",
        how="inner")
    j2 = hash_join(j1, orders.select_columns(
        ["o_orderkey", "o_custkey"]), "l_orderkey", "o_orderkey",
        how="inner")
    j3 = hash_join(j2, customer.select_columns(
        ["c_custkey", "c_nationkey"]), "o_custkey", "c_custkey",
        how="inner")
    nat = nation.to_pandas()
    e1 = broadcast_enrich(j3, nat, "s_nationkey", "n_nationkey",
                          {"n_name": "supp_nation"})
    e2 = broadcast_enrich(e1, nat, "c_nationkey", "n_nationkey",
                          {"n_name": "cust_nation"})

    def _partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "supp_nation": t["supp_nation"].to_pandas(),
            "cust_nation": t["cust_nation"].to_pandas(),
            "l_year": t["l_year"].to_numpy(zero_copy_only=False),
            "rev1e4": t["rev1e4"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})
        part = df.groupby(["supp_nation", "cust_nation", "l_year"],
                          as_index=False, sort=False, dropna=False).sum()
        schema = pa.schema([("supp_nation", pa.string()),
                            ("cust_nation", pa.string()),
                            ("l_year", pa.int64()),
                            ("rev1e4", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    agg = combine(e2.map_batches(_partial, batch_format="pyarrow"),
                  ["supp_nation", "cust_nation", "l_year"], sums_of("rev1e4"))
    return agg.map_batches(
        lambda t: pa.table({
            "supp_nation": t["supp_nation"],
            "cust_nation": t["cust_nation"],
            "l_year": t["l_year"],
            "revenue": pa.array(
                t["rev1e4"].to_numpy(zero_copy_only=False)
                .astype(np.int64) / 10000.0)}),
        batch_format="pyarrow")


# --- TPC-H-Q10-shaped returned-item revenue ----------------------------------

def returned_item_revenue(lineitem, orders, customer, nation, *, k: int = 20):
    """TPC-H-Q10-shaped returned-item reporting: the top-k customers
    by revenue on lineitems flagged RETURNED (``l_returnflag = 'R'``).

    Plan: the return filter + per-order revenue partial run inside the
    lineitem scan pass (exact 1e-4-dollar integers), one bucket hash
    join attaches o_custkey, a second pre-aggregated shuffle collapses
    to one row per customer BEFORE the customer-dimension join (so the
    dim join moves |matched customers| rows, not |lineitems|), nation
    broadcasts, and top-k is per-block partial → single-block exact
    (no global sort).  The tie at rank k is deterministic: ordered by
    exact integer revenue desc, then custkey asc."""
    import pyarrow.compute as pc

    from .joins import hash_join

    def _li_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        p100 = _scaled_cents(t["l_extendedprice"])
        d100 = _scaled_cents(t["l_discount"])
        df = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
            "rev1e4": p100 * (100 - d100)})
        part = df.groupby("l_orderkey", as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([("l_orderkey", t["l_orderkey"].type),
                            ("rev1e4", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    li_pre = lineitem.map_batches(_li_partial, batch_format="pyarrow")
    j1 = hash_join(li_pre, orders.select_columns(
        ["o_orderkey", "o_custkey"]), "l_orderkey", "o_orderkey",
        how="inner")

    def _cust_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "o_custkey": t["o_custkey"].to_numpy(zero_copy_only=False),
            "rev1e4": t["rev1e4"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})
        part = df.groupby("o_custkey", as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([("o_custkey", t["o_custkey"].type),
                            ("rev1e4", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    per_cust = combine(j1.map_batches(_cust_partial, batch_format="pyarrow"),
                       ["o_custkey"], sums_of("rev1e4"))
    j2 = hash_join(per_cust, customer.select_columns(
        ["c_custkey", "c_name", "c_nationkey"]), "o_custkey", "c_custkey",
        how="inner")
    enriched = broadcast_enrich(j2, nation.to_pandas(), "c_nationkey",
                                "n_nationkey", {"n_name": "n_name"})
    top = topk_by(enriched, ["rev1e4", "c_custkey"], [True, False], k)
    return top.map_batches(
        lambda t: pa.table({
            "c_custkey": t["c_custkey"],
            "c_name": t["c_name"],
            "n_name": t["n_name"],
            "revenue": pa.array(
                t["rev1e4"].to_numpy(zero_copy_only=False)
                .astype(np.int64) / 10000.0)}),
        batch_format="pyarrow")


# --- TPC-H-Q13-shaped customer order-count distribution ----------------------

def order_count_distribution(customer, orders, *,
                             exclude_priority: str = "1-URGENT"):
    """TPC-H-Q13-shaped customer distribution: how many customers
    placed exactly c_count qualifying orders (orders with priority
    ``exclude_priority`` do not qualify — the Q13 comment-filter
    adapted to this schema), INCLUDING the zero-order customers the
    left join keeps.

    Plan: orders collapse to one (custkey, count) row per customer via
    batch partials + one keyed Sum shuffle, the customer key column
    LEFT-joins those counts (missing → 0), and the close is a tiny
    bounded-domain count-of-counts groupby.  Exact integers
    throughout — no float appears anywhere."""
    import pyarrow.compute as pc

    from .joins import hash_join

    def _ord_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["o_orderpriority"], exclude_priority))
        df = pd.DataFrame({
            "o_custkey": t["o_custkey"].to_numpy(zero_copy_only=False),
            "n_orders": np.ones(len(t), dtype=np.int64)})
        part = df.groupby("o_custkey", as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([("o_custkey", t["o_custkey"].type),
                            ("n_orders", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    per_cust = combine(
        orders.map_batches(_ord_partial, batch_format="pyarrow"),
        ["o_custkey"], sums_of("n_orders"))
    j = hash_join(customer.select_columns(["c_custkey"]), per_cust,
                  "c_custkey", "o_custkey", how="left")

    def _cnt_partial(t: pa.Table) -> pa.Table:
        n = t["n_orders"].to_pandas().fillna(0).to_numpy(np.int64)
        df = pd.DataFrame({"c_count": n,
                           "custdist": np.ones(len(n), dtype=np.int64)})
        part = df.groupby("c_count", as_index=False, sort=False,
                          dropna=False).sum()
        return pa.Table.from_pandas(
            part, schema=pa.schema([("c_count", pa.int64()),
                                    ("custdist", pa.int64())]),
            preserve_index=False)

    return combine(j.map_batches(_cnt_partial, batch_format="pyarrow"),
                   ["c_count"], sums_of("custdist"))


# --- TPC-H-Q15-shaped top supplier ---------------------------------------

def top_supplier_revenue(lineitem, supplier):
    """TPC-H-Q15-shaped top supplier: the supplier(s) whose lineitem
    revenue equals the global maximum (ALL ties survive, as Q15's
    view-equality semantics require).

    Plan: revenue partials combine per batch, ONE keyed shuffle
    collapses to |suppliers| rows, the scalar max reduces from that
    small aggregate (never re-scanning lineitem), and the equality
    filter + supplier-dimension join touch only the tied rows.
    Revenue is exact 1e-4-dollar integers so the tie is exact, not a
    float accident."""
    from .joins import hash_join

    def _li_partial(t: pa.Table) -> pa.Table:
        p100 = _scaled_cents(t["l_extendedprice"])
        d100 = _scaled_cents(t["l_discount"])
        df = pd.DataFrame({
            "l_suppkey": t["l_suppkey"].to_numpy(zero_copy_only=False),
            "rev1e4": p100 * (100 - d100)})
        part = df.groupby("l_suppkey", as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([("l_suppkey", t["l_suppkey"].type),
                            ("rev1e4", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    per_supp = combine(
        lineitem.map_batches(_li_partial, batch_format="pyarrow"),
        ["l_suppkey"], sums_of("rev1e4")).materialize()
    from ray.data.aggregate import Max
    row = per_supp.aggregate(Max("rev1e4", alias_name="m"))
    if not row or row["m"] is None:   # empty lineitem: no top supplier
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "s_suppkey": pa.array([], pa.int64()),
            "s_name": pa.array([], pa.string()),
            "total_revenue": pa.array([], pa.float64())}))
    best = row["m"]
    import pyarrow.compute as pc
    tied = per_supp.map_batches(
        lambda t: t.filter(pc.equal(t["rev1e4"], best)),
        batch_format="pyarrow")
    j = hash_join(tied, supplier.select_columns(["s_suppkey", "s_name"]),
                  "l_suppkey", "s_suppkey", how="inner")
    return j.map_batches(
        lambda t: pa.table({
            "s_suppkey": t["s_suppkey"],
            "s_name": t["s_name"],
            "total_revenue": pa.array(
                t["rev1e4"].to_numpy(zero_copy_only=False)
                .astype(np.int64) / 10000.0)}),
        batch_format="pyarrow")


# --- TPC-H-Q17-shaped small-quantity revenue ----------------------------

def small_quantity_revenue(lineitem):
    """TPC-H-Q17-shaped small-quantity-order revenue: average yearly
    revenue lost if orders below 20% of a part's average quantity were
    no longer taken.

    The correlated subquery becomes one per-part aggregate (count +
    exact centi-quantity sum) that joins back to lineitem; the 20%-of-
    average threshold never becomes a float — the filter cross-
    multiplies to ``5·q100·n < Σq100`` in int64, exactly the SQL
    predicate after the same rewrite.  The close is one Sum and one
    division by 7.0 (Q17's yearly scaling)."""
    from ray.data.aggregate import Sum

    from .joins import hash_join

    def _per_part(t: pa.Table) -> pa.Table:
        q100 = _scaled_cents(t["l_quantity"])
        df = pd.DataFrame({
            "l_partkey": t["l_partkey"].to_numpy(zero_copy_only=False),
            "n": np.ones(len(t), dtype=np.int64),
            "sumq100": q100})
        part = df.groupby("l_partkey", as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([("l_partkey", t["l_partkey"].type),
                            ("n", pa.int64()), ("sumq100", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    stats = combine(lineitem.map_batches(_per_part, batch_format="pyarrow"),
                    ["l_partkey"], sums_of("n", "sumq100"))
    j = hash_join(lineitem.select_columns(
        ["l_partkey", "l_quantity", "l_extendedprice"]), stats,
        "l_partkey", "l_partkey", how="inner")

    def _filtered_partial(t: pa.Table) -> pa.Table:
        q100 = _scaled_cents(t["l_quantity"])
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        sumq = t["sumq100"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = 5 * q100 * n < sumq
        p100 = _scaled_cents(t["l_extendedprice"])[keep]
        return pa.table({"p100": pa.array([int(p100.sum())], pa.int64())})

    total = j.map_batches(_filtered_partial, batch_format="pyarrow") \
        .aggregate(Sum("p100", alias_name="p100"))
    import ray.data as rd
    from ..functions.rounding import round_half_away
    cents = int(total["p100"] or 0)
    return rd.from_arrow(pa.table({
        "avg_yearly": pa.array([round_half_away(
            np.float64(float(cents) / 700.0), 6)], pa.float64())}))


# --- TPC-H-Q18-shaped large-volume customers -----------------------------

def large_volume_customers(lineitem, orders, customer, *,
                           min_qty: float = 250.0, k: int = 100):
    """TPC-H-Q18-shaped large-volume customers: the top-k biggest
    orders whose total lineitem quantity exceeds ``min_qty``.

    Plan: quantity partials collapse lineitem to |orders| rows in ONE
    keyed shuffle, the HAVING filter drops all but the heavy tail
    before any join, and the two dimension joins touch only survivors.
    Top-k orders by exact total-price cents with the orderkey tie —
    never a global sort."""
    from .joins import hash_join

    def _qty_partial(t: pa.Table) -> pa.Table:
        q100 = _scaled_cents(t["l_quantity"])
        df = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
            "q100": q100})
        part = df.groupby("l_orderkey", as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([("l_orderkey", t["l_orderkey"].type),
                            ("q100", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    thresh100 = int(round(min_qty * 100))
    import pyarrow.compute as pc
    heavy = combine(
        lineitem.map_batches(_qty_partial, batch_format="pyarrow"),
        ["l_orderkey"], sums_of("q100")).map_batches(
        lambda t: t.filter(pc.greater(t["q100"], thresh100)),
        batch_format="pyarrow")
    j1 = hash_join(heavy, orders.select_columns(
        ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]),
        "l_orderkey", "o_orderkey", how="inner")
    j2 = hash_join(j1, customer.select_columns(["c_custkey", "c_name"]),
                   "o_custkey", "c_custkey", how="inner")

    def _cents(t: pa.Table) -> pa.Table:
        return t.append_column(
            "tp100", pa.array(_scaled_cents(t["o_totalprice"]),
                              pa.int64()))

    top = topk_by(j2.map_batches(_cents, batch_format="pyarrow"),
                  ["tp100", "l_orderkey"], [True, False], k)
    return top.map_batches(
        lambda t: pa.table({
            "c_custkey": t["c_custkey"],
            "c_name": t["c_name"],
            "o_orderkey": t["l_orderkey"],
            "o_orderdate": t["o_orderdate"],
            "o_totalprice": t["o_totalprice"],
            "total_qty": pa.array(
                t["q100"].to_numpy(zero_copy_only=False)
                .astype(np.int64) / 100.0)}),
        batch_format="pyarrow")


# --- TPC-H-Q19-shaped disjunctive-predicate revenue ----------------------

_Q19_CLAUSES = (("Brand#4", 1, 15, 1, 20),
                ("Brand#2", 10, 30, 10, 35),
                ("Brand#19", 20, 50, 20, 50))


def disjunctive_revenue(lineitem, part, *, clauses=_Q19_CLAUSES):
    """TPC-H-Q19-shaped disjunctive revenue: one scalar revenue over
    an OR of (brand, size range, quantity range) clauses.

    The part attributes arrive through the bucket hash join (part is
    not broadcastable at real scale), every clause evaluates as one
    vectorized boolean column, and each batch emits a single exact-
    integer partial."""
    from ray.data.aggregate import Sum

    from .joins import hash_join

    j = hash_join(lineitem.select_columns(
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]),
        part.select_columns(["p_partkey", "p_brand", "p_size"]),
        "l_partkey", "p_partkey", how="inner")

    def _partial(t: pa.Table) -> pa.Table:
        brand = t["p_brand"].to_pandas().to_numpy(dtype=object)
        size = t["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        q100 = _scaled_cents(t["l_quantity"])
        keep = np.zeros(len(t), dtype=bool)
        for b, s_lo, s_hi, q_lo, q_hi in clauses:
            keep |= ((brand == b) & (size >= s_lo) & (size <= s_hi)
                     & (q100 >= q_lo * 100) & (q100 <= q_hi * 100))
        p100 = _scaled_cents(t["l_extendedprice"])[keep]
        d100 = _scaled_cents(t["l_discount"])[keep]
        return pa.table({"rev1e4": pa.array(
            [int((p100 * (100 - d100)).sum())], pa.int64())})

    total = j.map_batches(_partial, batch_format="pyarrow") \
        .aggregate(Sum("rev1e4", alias_name="rev1e4"))
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "revenue": pa.array([int(total["rev1e4"] or 0) / 10000.0],
                            pa.float64())}))


# --- TPC-H-Q22-shaped inactive high-balance customers --------------------

def inactive_high_balance(customer, orders, *,
                          priority: str = "1-URGENT"):
    """TPC-H-Q22-shaped global sales opportunity: per nation, how many
    above-average-balance customers placed NO ``priority`` orders (the
    empty-mailbox anti join), and their total balance.

    The global average of positive balances never becomes a float
    gate: the filter cross-multiplies to ``bal100·n > Σbal100`` in
    int64.  The anti join broadcasts the distinct urgent-customer key
    set under the cap and falls back to a partitioned hash join past
    it (semi_join machinery); the close is a |nations|-row integer
    groupby."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .joins import semi_join

    def _bal_partial(t: pa.Table) -> pa.Table:
        bal100 = _scaled_cents(t["c_acctbal"])
        pos = bal100 > 0
        return pa.table({"n": pa.array([int(pos.sum())], pa.int64()),
                         "s100": pa.array([int(bal100[pos].sum())],
                                          pa.int64())})

    g = customer.map_batches(_bal_partial, batch_format="pyarrow") \
        .aggregate(Sum("n", alias_name="n"), Sum("s100", alias_name="s100"))
    n, s100 = int(g["n"] or 0), int(g["s100"] or 0)

    def _above(t: pa.Table) -> pa.Table:
        bal100 = _scaled_cents(t["c_acctbal"])
        return t.filter(pa.array(bal100 * n > s100))

    rich = customer.map_batches(_above, batch_format="pyarrow")
    urgent = orders.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], priority)),
        batch_format="pyarrow")
    quiet = semi_join(rich, urgent, "c_custkey", right_key="o_custkey",
                      anti=True)

    def _nat_partial(t: pa.Table) -> pa.Table:
        bal100 = _scaled_cents(t["c_acctbal"])
        df = pd.DataFrame({
            "c_nationkey": t["c_nationkey"].to_numpy(zero_copy_only=False),
            "numcust": np.ones(len(t), dtype=np.int64),
            "bal100": bal100})
        part = df.groupby("c_nationkey", as_index=False, sort=False,
                          dropna=False).sum()
        schema = pa.schema([("c_nationkey", t["c_nationkey"].type),
                            ("numcust", pa.int64()),
                            ("bal100", pa.int64())])
        return pa.Table.from_pandas(part, schema=schema,
                                    preserve_index=False)

    agg = combine(quiet.map_batches(_nat_partial, batch_format="pyarrow"),
                  ["c_nationkey"], sums_of("numcust", "bal100"))
    return agg.map_batches(
        lambda t: pa.table({
            "c_nationkey": t["c_nationkey"],
            "numcust": t["numcust"],
            "totacctbal": pa.array(
                t["bal100"].to_numpy(zero_copy_only=False)
                .astype(np.int64) / 100.0)}),
        batch_format="pyarrow")


# --- weighted sample without replacement (Efraimidis–Spirakis) ------------

def weighted_sample(ds, key_col: str, weight_col: str, *, k: int = 50):
    """Deterministic weighted sample without replacement: the
    Efraimidis–Spirakis A-ES scheme with the engine's stable key hash
    as the uniform draw — ``score = ln(u)/w`` where ``u = (h+1)/2⁶⁴``
    — and the top-k scores win.

    No RNG state, no shuffle for scoring (one map pass), identical
    sample at any cluster size, and heavier rows win proportionally
    more often (w doubles → score halves toward 0).  Selection is the
    package's partial top-k (per-block survivors → single-block exact)
    with the raw double score + key tiebreak, replayable exactly in
    SQL because ``u`` and ``ln`` evaluate identically there.  Rows
    with non-positive weight never qualify (SQL-visible gate)."""
    from ..functions.hashing import stable_hash_array
    from ..functions.rounding import round_half_away

    def _score(t: pa.Table) -> pa.Table:
        hv = stable_hash_array(t[key_col].to_pandas())
        w = t[weight_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        keep = w > 0
        u = (hv.astype(np.float64) + 1.0) / 18446744073709551616.0
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.log(u) / w
        out = pa.table({key_col: t[key_col],
                        weight_col: t[weight_col],
                        "__score": pa.array(score)})
        return out.filter(pa.array(keep))

    top = topk_by(ds.map_batches(_score, batch_format="pyarrow"),
                  ["__score", key_col], [True, False], k)
    return top.map_batches(
        lambda t: pa.table({
            key_col: t[key_col],
            weight_col: t[weight_col],
            "wkey": pa.array(round_half_away(
                t["__score"].to_numpy(zero_copy_only=False), 6))}),
        batch_format="pyarrow")


# --- per-group mode --------------------------------------------------------

def mode_per_type(events):
    """Most frequent exact-cents value per event type (the MODE()
    aggregate with a deterministic smallest-value tie).

    Counts pre-combine per batch on (type, cents) cells — the shuffle
    carries |types|×|distinct cents| rows bounded by the value domain,
    never |events| — and the argmax close reads the whole tiny cell
    table in one block."""
    def _cell_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.filter(pc.is_valid(t["value"]))
        cents = _scaled_cents(t["value"])
        df = pd.DataFrame({"event_type": t["event_type"].to_pandas(),
                           "cents": cents,
                           "n": np.ones(len(t), dtype=np.int64)})
        part = df.groupby(["event_type", "cents"], as_index=False,
                          sort=False, dropna=True).sum()
        return pa.Table.from_pandas(
            part, schema=pa.schema([("event_type", pa.string()),
                                    ("cents", pa.int64()),
                                    ("n", pa.int64())]),
            preserve_index=False)

    cells = combine(events.map_batches(_cell_partial, batch_format="pyarrow"),
                    ["event_type", "cents"], sums_of("n"))

    def _close(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        if len(df) == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "mode_value": pa.array([], pa.float64()),
                             "n_mode": pa.array([], pa.int64())})
        df = df.sort_values(["event_type", "n", "cents"],
                            ascending=[True, False, True], kind="stable")
        best = df.groupby("event_type", as_index=False, sort=True).first()
        return pa.table({
            "event_type": pa.array(best["event_type"], pa.string()),
            "mode_value": pa.array(
                best["cents"].to_numpy(np.int64) / 100.0),
            "n_mode": pa.array(best["n"].to_numpy(np.int64))})

    return cells.repartition(1).map_batches(_close, batch_format="pyarrow",
                                            batch_size=None)


# --- PageRank over the event-type transition graph -------------------------

class _BigramCellsGroup:
    """Per-partition kernel: (prev_type → type) transition-count cells
    over each user's (t, event_id) order — bounded |types|² rows out
    per partition regardless of event count."""

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"u": pd.Series([], dtype=object),
                              "v": pd.Series([], dtype=object),
                              "w": pd.Series([], dtype=np.int64)})
        rows, _, codes, _, _ = key_runs(
            g, keep=g["event_type"].notna() & g["user_id"].notna())
        typ = rows["event_type"].to_numpy()
        same = codes[1:] == codes[:-1]
        if not same.any():
            return empty
        df = pd.DataFrame({"u": typ[:-1][same], "v": typ[1:][same],
                           "w": np.int64(1)})
        return df.groupby(["u", "v"], as_index=False, sort=False).sum()


def pagerank_event_types(events, *, iters: int = 4):
    """PageRank over the corpus-wide event-type transition graph — the
    iterative-graph-algorithm shape (label graphs, site graphs,
    topic-link graphs) on Ray Data.

    The heavy work is ONE partition-group shuffle producing per-user
    bigram cells (bounded |types|² per partition) merged by a tiny
    keyed Sum; the power iteration runs on the driver because the
    node set is the LABEL domain, not the data (at 100 TB the graph is
    still |types|²).  Doubles replay bit-exactly in SQL: edge weights
    normalize as w/W once, each node folds its incoming contributions
    in ascending-source order (list_reduce), and the damping step is
    ``0.15/N + 0.85·s`` with exactly those literals.  Dangling mass is
    dropped (documented variant — every label here has out-edges).
    ``iters`` counts update steps after the uniform start."""
    from functools import reduce
    from operator import add

    from .windows import _epoch_micros
    from ..functions.rounding import round_half_away

    def _prep(batch: pa.Table) -> pa.Table:
        if "ts" not in batch.column_names or len(batch) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "event_id": pa.array([], pa.int64()),
                             "event_type": pa.array([], pa.string()),
                             "t": pa.array([], pa.int64())})
        return pa.table({"user_id": batch["user_id"],
                         "event_id": batch["event_id"],
                         "event_type": batch["event_type"],
                         "t": pa.array(_epoch_micros(batch["ts"]))})

    cells = combine(partition_groups(
        events.map_batches(_prep, batch_format="pyarrow"), "user_id",
        _BigramCellsGroup()), ["u", "v"], sums_of("w"))
    edges = cells.to_pandas()
    import ray.data as rd
    if len(edges) == 0:
        return rd.from_arrow(pa.table({
            "event_type": pa.array([], pa.string()),
            "pagerank": pa.array([], pa.float64())}))
    nodes = sorted(set(edges["u"]).union(edges["v"]))
    idx = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    # w/W as doubles — the exact SQL normalization expression; each
    # node's incoming list in ascending-source order (the fold order)
    e = edges.sort_values(["v", "u"])
    e = e.assign(
        ui=pd.Index(nodes).get_indexer(e["u"]),
        wn=e["w"].to_numpy(np.float64)
        / e.groupby("u")["w"].transform("sum").to_numpy(np.float64))
    incoming: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for v, g in e.groupby("v", sort=False):
        incoming[idx[v]] = list(zip(g["ui"].tolist(), g["wn"].tolist()))
    ranks = [1.0 / float(n)] * n
    for _ in range(iters):
        ranks = [0.15 / float(n) + 0.85 * (reduce(
            add, (ranks[ui] * wn for ui, wn in inc)) if inc else 0.0)
            for inc in incoming]
    return rd.from_arrow(pa.table({
        "event_type": pa.array(nodes, pa.string()),
        "pagerank": pa.array(round_half_away(
            np.array(ranks, dtype=np.float64), 6))}))


# --- CDC keep-latest compaction ---------------------------------------------

def latest_event_per_user(events):
    """Keep-latest compaction: each user's single most recent event row
    (max ``(t, event_id)``) — the CDC upsert / changelog-compaction
    shape every incremental table maintenance job needs.

    Partial-first: every batch compacts locally to ≤ |its users| rows
    BEFORE the one keyed shuffle, so the exchange carries per-batch
    winners, not the event log; the per-key close re-runs the same
    vectorized argmax on the co-located survivors.  The (t, event_id)
    tie order is the engine-wide convention, so the winner is unique
    and deterministic."""

    def _local_latest(g: pd.DataFrame) -> pd.DataFrame:
        out_cols = ["user_id", "event_id", "t", "event_type", "value"]
        rows, _, _, _, ends = key_runs(g, keep=g["user_id"].notna())
        if len(rows) == 0:   # empty, or every user_id null
            return pd.DataFrame({
                "user_id": pd.Series([], dtype=np.int64),
                "event_id": pd.Series([], dtype=np.int64),
                "t": pd.Series([], dtype=np.int64),
                "event_type": pd.Series([], dtype=object),
                "value": pd.Series([], dtype=np.float64)})
        # the last row of each key's (t, id) run is its max; a null in
        # the batch made pandas widen the key to float64
        out = rows.iloc[ends - 1][out_cols]
        return out.assign(user_id=out["user_id"].astype(np.int64))

    def _prep(batch: pa.Table) -> pa.Table:
        from .windows import _epoch_micros
        if "ts" not in batch.column_names or len(batch) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "event_id": pa.array([], pa.int64()),
                             "t": pa.array([], pa.int64()),
                             "event_type": pa.array([], pa.string()),
                             "value": pa.array([], pa.float64())})
        t = pa.table({"user_id": batch["user_id"],
                      "event_id": batch["event_id"],
                      "t": pa.array(_epoch_micros(batch["ts"])),
                      "event_type": batch["event_type"],
                      "value": batch["value"]})
        return pa.Table.from_pandas(_local_latest(t.to_pandas()),
                                    preserve_index=False)

    compacted = events.map_batches(_prep, batch_format="pyarrow")
    # partition-group close: one kernel call per group, not per user
    return partition_groups(compacted, "user_id", _local_latest)
