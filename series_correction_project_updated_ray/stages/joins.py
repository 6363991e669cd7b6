"""Join operators and the engine's one keyed exchange.

The reference has only broadcast lookups and a co-partitioned outer merge
(SURVEY.md §2.6); a complete engine also needs a large-×-large equi-join.

Every operator that must see all rows of a key in one task — ``combine``,
``partition_groups`` and the joins here — runs ``keyed_exchange``: each
row gets ``__h``, a never-null int64 hash of its keys (``_key_hash``), the
rows are sorted on it, and a kernel runs once per sorted block.  The sort
never splits equal hashes across blocks, so a key is whole in one call;
the sort also picks the partition count, so no bucket count is set by
hand.  A kernel that folds one key at a time wraps in ``per_key``
(``each_key`` for one input), which splits each block by key value; a
pandas kernel that handles every key of its block vectorized opens with
``key_runs`` (the block sorted by key, then by time, plus each key's run
bounds).  No kernel sees a 0-row block: Ray skips the map call for one,
so an empty sort partition stays an empty (possibly column-less) block
of the output, which only a direct block reader (``nonempty_blocks``)
or the query's caller meets.  A
join tags both sides into one union (side marker, null-padded to a shared
schema) and probes each block with one vectorized merge.  The hash is
uniform in the key, so skew only arises from individual hot KEYS, which
an equi-join must co-locate anyway (``skew_join`` routes those around
the exchange).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.frames import arrow_table
from ..functions.hashing import stable_hash_array

_SORT_BLOCK_ROWS = 1 << 16


def _key_hash(t: pa.Table, keys: list[str]) -> np.ndarray:
    """int64 hash of each row's keys, equal for equal keys in every block
    whatever the block's null layout; a null key hashes as 0."""
    h = np.zeros(t.num_rows, dtype=np.uint64)
    for k in keys:
        col = t[k]
        if pa.types.is_integer(col.type) or pa.types.is_boolean(col.type):
            # to_pandas would turn a null-bearing int column into float64,
            # whose bits hash unlike the same ints in a null-free block
            vals = pc.fill_null(col.cast(pa.int64()), 0).to_numpy()
        elif pa.types.is_floating(col.type):
            # + 0.0 folds -0.0 into 0.0
            vals = pc.fill_null(col.cast(pa.float64()), 0.0).to_numpy() + 0.0
        else:
            vals = col.to_pandas()
        hk = pd.util.hash_array(vals) if isinstance(vals, np.ndarray) \
            else stable_hash_array(vals)
        if col.null_count:
            hk[pc.is_null(col).to_numpy(zero_copy_only=False)] = 0
        with np.errstate(over="ignore"):
            h = h * np.uint64(0x9E3779B97F4A7C15) + hk
    return h.view(np.int64)


def _with_hash(t: pa.Table, keys: list[str]) -> pa.Table:
    return t.append_column("__h", pa.array(_key_hash(t, keys)))


def keyed_exchange(sides, fn, batch_format: str = "pyarrow"):
    """Run ``fn`` once per block of rows co-located by key.

    ``sides`` are ``(ds, tag)`` pairs; ``tag`` maps a pyarrow batch to the
    rows to exchange with ``__h`` appended (``_with_hash`` of its keys).
    The sides are tagged, unioned and sorted on ``__h``: the sort's reduce
    emits one block per partition and equal hashes never straddle two, so
    every key is whole in exactly one block.  ``fn`` sees each non-empty
    block once, in ``batch_format`` and without ``__h``, and handles all
    of its keys vectorized; it never sees a 0-row block (an empty sort
    partition passes through as an empty, possibly column-less block).
    Tagging runs in batches of ``_SORT_BLOCK_ROWS`` rows: the
    sort emits as many blocks as it takes in and exchanges one object per
    (input, output) block pair, so coalescing many small blocks (a union
    of per-block kernel outputs) keeps the exchange from squaring their
    count.  Pass tagged inputs as separate sides rather than one union:
    with a union in front of the tagging map, Ray held the union's
    queued blocks while an upstream task that emitted a large output was
    backpressured (the triangle wedges: 3× the wall time)."""
    tagged = [ds.map_batches(tag, batch_size=_SORT_BLOCK_ROWS,
                             batch_format="pyarrow") for ds, tag in sides]
    rows = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    def _block(batch):
        if isinstance(batch, pd.DataFrame):
            return fn(batch.drop(columns="__h"))
        return fn(batch.drop_columns(["__h"]))
    _block.__name__ = getattr(fn, "__name__", type(fn).__name__)
    return rows.sort("__h").map_batches(_block, batch_size=None,
                                        batch_format=batch_format)


def _key_list(key_col) -> list[str]:
    return [key_col] if isinstance(key_col, str) else list(key_col)


def partition_groups(ds, key_col, fn, batch_format: str = "pandas"):
    """Run ``fn`` once per block of ``ds`` after the keyed exchange on
    ``key_col`` (a column or a list of columns) — the one-shuffle plan of
    every per-key kernel: whole keys are co-located, the block count
    follows the input size instead of |keys|, and ``fn`` handles all keys
    of its block vectorized."""
    keys = _key_list(key_col)
    return keyed_exchange([(ds, lambda t: _with_hash(t, keys))], fn,
                          batch_format)


def per_key(key_col, fn, batch_format: str = "pandas"):
    """Block kernel for ``keyed_exchange`` that runs ``fn`` once per key:
    the block splits by the key VALUES (nulls form one group; never by
    ``__h``, so a hash collision cannot merge two keys), each group
    reaches ``fn`` as its own batch in ``batch_format`` (converted per
    group, so a column's pandas dtype follows that group's nulls alone),
    and the outputs are yielded in turn for Ray to concatenate.  Takes
    pyarrow blocks."""
    keys = _key_list(key_col)

    def _groups(t: pa.Table):
        rows = t.select(keys).append_column(
            "__i", pa.array(np.arange(t.num_rows, dtype=np.int64)))
        lst = rows.group_by(keys, use_threads=False).aggregate(
            [("__i", "list")])["__i_list"].combine_chunks()
        idx, offs = lst.values.to_numpy(), lst.offsets.to_numpy()
        for b, e in zip(offs[:-1], offs[1:]):
            g = t.take(idx[b:e])
            yield fn(g.to_pandas() if batch_format == "pandas" else g)
    _groups.__name__ = getattr(fn, "__name__", type(fn).__name__)
    return _groups


def each_key(ds, key_col, fn, batch_format: str = "pandas"):
    """Run ``fn`` once per key of ``ds`` — ``partition_groups`` with a
    ``per_key`` block kernel, for kernels that fold one key at a time."""
    return partition_groups(ds, key_col, per_key(key_col, fn, batch_format),
                            "pyarrow")


def _segment_starts(*sort_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of equal-key runs in already-sorted parallel arrays."""
    n = len(sort_cols[0])
    if n == 0:
        # np.append(starts[1:], 0) would yield a 1-long ends for a
        # 0-long starts — keep the pair consistently empty
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    change = np.ones(n, dtype=bool)
    if n > 1:
        acc = np.zeros(n - 1, dtype=bool)
        for c in sort_cols:
            acc |= c[1:] != c[:-1]
        change[1:] = acc
    starts = np.flatnonzero(change)
    return starts, np.append(starts[1:], n)


def _segment_left_fold(x: np.ndarray, starts: np.ndarray,
                       lens: np.ndarray) -> np.ndarray:
    """Sum of each segment ``x[starts[i]:starts[i] + lens[i]]`` as a left
    fold from 0.0: one masked add per position across all segments, so
    each sum adds its terms in the order a per-segment loop would."""
    acc = np.zeros(len(starts))
    for j in range(int(lens.max(initial=0))):
        m = lens > j
        acc[m] += x[starts[m] + j]
    return acc


class KeyRuns(NamedTuple):
    rows: pd.DataFrame      # the kept rows in (key, *by) order
    keys: np.ndarray        # rows[key] values
    codes: np.ndarray       # factorize code of each row's key (-1: null)
    starts: np.ndarray      # first row of each key's run
    ends: np.ndarray        # one past its last row


def key_runs(g: pd.DataFrame, key: str = "user_id", by=("t", "event_id"),
             keep=None) -> KeyRuns:
    """The prologue of every per-key pandas kernel: the rows of ``g``
    where ``keep`` holds (all rows when None), sorted stably by the key's
    factorize code (first appearance in ``g``) and then by ``by`` — column
    names or arrays aligned with ``g`` — plus the bounds of each key's
    run.  Null keys share code -1, so they form one run sorted first;
    kernels that drop them pass ``keep=g[key].notna()``.  The order is
    ``np.lexsort((*reversed(by), codes))``, ties included; an empty input
    gives empty bounds."""
    codes, _ = pd.factorize(g[key], sort=False)
    cols = [g[c].to_numpy() if isinstance(c, str) else np.asarray(c)
            for c in reversed(by)]
    idx = np.arange(len(g)) if keep is None \
        else np.flatnonzero(np.asarray(keep, dtype=bool))
    codes = codes[idx]
    order = np.lexsort([c[idx] for c in cols] + [codes])
    rows = g.iloc[idx[order]]
    codes = codes[order]
    return KeyRuns(rows, rows[key].to_numpy(), codes, *_segment_starts(codes))


class _TagPad:
    """Tag side + key hash and align to the union schema (missing columns
    → typed nulls) so the two sides can union.  The hash is taken over
    the union-typed key columns, so both sides hash a key alike."""

    def __init__(self, key, side: str,
                 union_fields: list[tuple[str, pa.DataType]]):
        self.keys = _key_list(key)
        self.side = side
        self.union_fields = union_fields

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        cols = {}
        for name, typ in self.union_fields:
            if name in batch.column_names:
                col = batch[name]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                cols[name] = col.cast(typ)
            else:
                cols[name] = pa.nulls(n, typ)
        cols["__side"] = pa.array(np.full(n, self.side, dtype=object),
                                  pa.string())
        return _with_hash(pa.table(cols), self.keys)


class BucketJoin:
    """``keyed_exchange`` kernel over one block of the unioned tagged
    rows (every key of the block whole, both sides).

    Arrow-native probe: the sides split in Arrow, ONLY the key columns
    (null-free after the SQL null-key drop, so integer keys keep exact
    int64 dtypes) go through a pandas hash merge carrying positional
    indices, and every payload column is attached with
    ``pyarrow.compute.take`` — texts and list columns never convert to
    pandas (measured ~15× cost through the old whole-frame ``pd.merge``
    on keyed payloads).  Null-key rows whose side survives unmatched
    (left under left/outer, right under right/outer) bypass the probe
    entirely and append as pre-padded unmatched rows, which also keeps
    >2^53 integer keys away from the float degrade a null-bearing
    ``to_pandas`` would inflict.  ``pc.take`` with a null index emits a
    typed null, so outer padding never floatifies a column."""

    def __init__(self, left_key, right_key, l_cols: list[str],
                 r_cols: list[str], types: dict, how: str = "inner"):
        self.l_keys, self.r_keys = _key_list(left_key), _key_list(right_key)
        self.l_cols, self.r_cols = l_cols, r_cols
        self.types = types
        self.how = how

    def _merged_columns(self) -> list[tuple[str, str, str]]:
        """(output_name, side, base_name) triples exactly as pandas merge
        names them: columns present on both sides get the default _x/_y
        suffixes, except a shared key name under left_on==right_on which
        pandas collapses into one column (side 'k': left value where
        matched, right value for outer-unmatched right rows)."""
        overlap = set(self.l_cols) & set(self.r_cols)
        # pandas collapses a key pair into one column when the same name
        # sits at the same position of left_on/right_on
        collapsed = {l for l, r in zip(self.l_keys, self.r_keys) if l == r}
        out = []
        for c in self.l_cols:
            if c in collapsed:
                out.append((c, "k", c))
                continue
            suffixed = c in overlap
            out.append((c + "_x" if suffixed else c, "l", c))
        for c in self.r_cols:
            if c in collapsed:
                continue
            suffixed = c in overlap
            out.append((c + "_y" if suffixed else c, "r", c))
        return out

    def _empty(self) -> pa.Table:
        return pa.table({name: pa.nulls(0, self.types[base])
                         for name, _, base in self._merged_columns()})

    @staticmethod
    def _valid_keys(t: pa.Table, keys: list[str]):
        m = pc.is_valid(t[keys[0]])
        for k in keys[1:]:
            m = pc.and_(m, pc.is_valid(t[k]))
        return m

    def __call__(self, g: pa.Table) -> pa.Table:
        side = g["__side"]
        left = g.filter(pc.equal(side, "l")).select(self.l_cols)
        right = g.filter(pc.equal(side, "r")).select(self.r_cols)
        if self.how not in ("inner", "left", "right", "outer"):
            # hash_join validates up front; a keyed plan cannot
            # express non-equi joins (cross within a block ≠ cross)
            raise ValueError(f"unsupported how={self.how!r}")
        # SQL equi-join semantics: NULL keys never match.  Null-key rows
        # drop from the probe on both sides; they divert to the
        # pre-padded unmatched path when their side's rows survive the
        # join anyway (left for left/outer, right for right/outer)
        r_null = None
        if len(right):
            rvalid = self._valid_keys(right, self.r_keys)
            if self.how in ("right", "outer"):
                r_null = right.filter(pc.invert(rvalid))
                if len(r_null) == 0:
                    r_null = None
            right = right.filter(rvalid)
        l_null = None
        if len(left):
            lvalid = self._valid_keys(left, self.l_keys)
            if self.how in ("left", "outer"):
                l_null = left.filter(pc.invert(lvalid))
                if len(l_null) == 0:
                    l_null = None
            left = left.filter(lvalid)
        if self.how == "inner" and (len(left) == 0 or len(right) == 0):
            return self._empty()
        # hash probe over KEYS ONLY: positional-index pairs out, payloads
        # never enter pandas
        on = [f"__k{i}" for i in range(len(self.l_keys))]
        lkdf = pd.DataFrame(
            {c: left[k].to_pandas() for c, k in zip(on, self.l_keys)})
        lkdf["__lp"] = np.arange(len(left), dtype=np.int64)
        rkdf = pd.DataFrame(
            {c: right[k].to_pandas() for c, k in zip(on, self.r_keys)})
        rkdf["__rp"] = np.arange(len(right), dtype=np.int64)
        m = lkdf.merge(rkdf, on=on, how=self.how)

        def _take_idx(col: str) -> pa.Array:
            v = m[col].to_numpy()
            if v.dtype.kind == "f":  # unmatched rows → NaN → null index
                mask = np.isnan(v)
                return pa.array(np.where(mask, 0, v).astype(np.int64),
                                pa.int64(), mask=mask)
            return pa.array(v.astype(np.int64), pa.int64())

        l_take, r_take = _take_idx("__lp"), _take_idx("__rp")

        def _gather(t: pa.Table, base: str, idx: pa.Array):
            col = t[base]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            return pc.take(col, idx)

        r_key_of = dict(zip(self.l_keys, self.r_keys))
        cols = {}
        for name, src, base in self._merged_columns():
            if src == "l":
                cols[name] = _gather(left, base, l_take)
            elif src == "r":
                cols[name] = _gather(right, base, r_take)
            else:  # collapsed key: left value, right value where no left
                arr = _gather(left, base, l_take)
                if l_take.null_count:
                    arr = pc.coalesce(
                        arr, _gather(right, r_key_of[base], r_take))
                cols[name] = arr
        out = pa.table(cols)
        if l_null is not None:
            pad = pa.table({
                name: (l_null[base] if src in ("l", "k")
                       else pa.nulls(len(l_null), self.types[base]))
                for name, src, base in self._merged_columns()})
            out = pa.concat_tables(
                [out, pad.cast(out.schema)]) if len(out) else pad
        if r_null is not None:
            # right/outer: null-key right rows emit null-padded on the
            # left; a collapsed key column carries the right row's own
            # key value (partially null under composite keys)
            pad = pa.table({
                name: (r_null[base] if src == "r"
                       else r_null[r_key_of[base]] if src == "k"
                       else pa.nulls(len(r_null), self.types[base]))
                for name, src, base in self._merged_columns()})
            out = pa.concat_tables(
                [out, pad.cast(out.schema)]) if len(out) else pad
        # emit Arrow: Ray passes EMPTY blocks through downstream
        # map_batches unconverted, so a pandas return here would leak
        # pandas blocks into arrow-block consumers (observed: aggregate
        # sample_boundaries asserting on mixed block types)
        return out


def _rename_stage(ds, mapping: dict[str, str]):
    def _r(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [mapping.get(c, c) for c in batch.column_names])
    return ds.map_batches(_r, batch_format="pyarrow")


class KeySetFilter:
    """Broadcast semi/anti-join stage: the key SET ships once via
    ``ray.put`` (at real scale: a Bloom filter of it), probed per batch
    with a vectorized isin — no shuffle ever."""

    def __init__(self, keys_ref, key_col: str, anti: bool):
        import ray
        self.keys = pa.array(sorted(ray.get(keys_ref)))
        self.key_col, self.anti = key_col, anti

    def __call__(self, batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch[self.key_col], value_set=self.keys)
        if self.anti:
            mask = pc.invert(mask)
        return batch.filter(pc.fill_null(mask, self.anti))


def _known_schema(ds):
    """(ds, schema) without a throwaway execution: ds.schema() on a lazy
    plan with no metadata schema (any map_batches output)
    executes the plan and DISCARDS the blocks; materializing first makes
    the schema read and the subsequent consumption share one execution."""
    sch = ds.schema(fetch_if_missing=False)
    if sch is None:
        ds = ds.materialize()
        sch = ds.schema()
    return ds, sch


def _arrow_backed(ds):
    """(ds, schema) with REAL arrow types, coercing if needed.

    The union machinery needs the input schema up front; see
    _known_schema for why lazy inputs are materialized rather than
    schema()-probed (a probe executes and discards — measured 3x wall
    on chained joins).  A pandas-backed dataset reports PYTHON classes
    (object) in schema().types for string columns; the tag/pad/cast
    machinery needs real arrow types, so coerce such inputs through one
    arrow map_batches (cheap: a streaming identity map, not an
    all-to-all)."""
    ds, sch = _known_schema(ds)
    if sch is not None and any(not isinstance(t, pa.DataType)
                               for t in sch.types):
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
        ds, sch = _known_schema(ds)
    return ds, sch


_MAX_BROADCAST_KEYS = 4_000_000


def distributed_distinct(ds, cols: list[str], *, drop_nulls: bool = False):
    """Distinct rows of ``cols`` with a two-level plan: per-batch local
    distinct (arrow group_by) shrinks what the shuffle moves, then one
    ``combine`` dedups across batches (null keys form one row).  The
    result is |distinct| rows — safe to materialize/collect only when that
    is known small.  ``drop_nulls`` removes rows with a null in any of
    ``cols``."""
    from .rollup import combine

    def _local_distinct(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        if drop_nulls:
            for c in cols:
                t = t.filter(pc.is_valid(t[c]))
        return t.group_by(cols).aggregate([])

    return combine(ds.map_batches(_local_distinct, batch_format="pyarrow"),
                   cols, [])


def semi_join(left, right_keys, key_col: str, *, right_key: str | None = None,
              anti: bool = False, max_broadcast: int = _MAX_BROADCAST_KEYS):
    """left rows whose key ∈ right_keys (semi) or ∉ (anti).

    ``right_keys``: a Dataset (its ``right_key`` — default ``key_col`` —
    column is reduced to its distinct set) or an iterable of keys.  When
    the distinct key set is broadcast-small it ships once via ``ray.put``
    and probes per batch with no shuffle; past ``max_broadcast`` distinct
    keys the operator falls back to a partitioned hash join against the
    distinct-key Dataset, so a large right side can never OOM the driver."""
    import ray

    rk = right_key or key_col
    if hasattr(right_keys, "unique"):
        # distinct keys as a DATASET (null keys dropped — they never
        # match a semi predicate)
        distinct = distributed_distinct(right_keys, [rk],
                                        drop_nulls=True).materialize()
        if distinct.count() > max_broadcast:
            return _shuffle_semi_join(left, distinct, key_col, rk, anti)
        keys = [r[rk] for r in distinct.take_all()]
    else:
        keys = [k for k in right_keys if k is not None]
    ref = ray.put(set(keys))
    from .taskcache import class_task
    return left.map_batches(class_task(KeySetFilter, ref, key_col, anti),
                            batch_format="pyarrow")


def _shuffle_semi_join(left, distinct, key_col: str, rk: str, anti: bool):
    """Shuffle fallback: join ``left`` against the distinct-key Dataset.

    Semi = inner join with the (unique) key set — left multiplicity is
    preserved because the right side is distinct.  Anti = left outer join
    on a marker column, keep the unmatched rows.  Output columns equal
    the left schema either way."""
    left, left_schema = _known_schema(left)
    left_cols = list(left_schema.names)

    def _mark(t: pa.Table) -> pa.Table:
        return pa.table({
            "__semi_key": t[rk],
            "__present": pa.array(np.ones(len(t), dtype=np.int8)),
        })

    marked = distinct.map_batches(_mark, batch_format="pyarrow")
    joined = hash_join(left, marked, key_col, "__semi_key",
                       how="left" if anti else "inner")
    if anti:
        joined = joined.map_batches(
            lambda t: t.filter(pa.compute.is_null(t["__present"])),
            batch_format="pyarrow")
    return joined.select_columns(left_cols)


def _join_field_plan(l_sch, r_sch, left_key, right_key, suffixes):
    """(l_fields, r_fields, clash, union_fields, l_keys, r_keys) — the
    shared column plan of every join flavor: shared names get
    pandas-style suffixes, then both sides' fields merge into one union
    schema.  Only a key pair with the SAME name at the SAME position is
    exempt from suffixing (pandas collapses those into one output
    column); a name shared any other way — keys paired at different
    positions, or a key name doubling as the other side's non-key column
    — MUST be suffixed, or the union dict would keep just one side's
    type and silently cast the other side's column to it.  The returned
    l_keys/r_keys carry the post-suffix key names."""
    l_keys, r_keys = _key_list(left_key), _key_list(right_key)
    collapsed = {l for l, r in zip(l_keys, r_keys) if l == r}
    l_fields = list(zip(l_sch.names, l_sch.types))
    r_fields = list(zip(r_sch.names, r_sch.types))
    clash = ({n for n, _ in l_fields} & {n for n, _ in r_fields}) \
        - collapsed
    if clash:
        l_fields = [(n + suffixes[0] if n in clash else n, t)
                    for n, t in l_fields]
        r_fields = [(n + suffixes[1] if n in clash else n, t)
                    for n, t in r_fields]
        l_keys = [k + suffixes[0] if k in clash else k for k in l_keys]
        r_keys = [k + suffixes[1] if k in clash else k for k in r_keys]
    union_fields = list(dict(l_fields + r_fields).items())
    return l_fields, r_fields, clash, union_fields, l_keys, r_keys


def hash_join(left, right, left_key, right_key,
              how: str = "inner", suffixes=("_l", "_r")):
    """Partitioned hash equi-join of two Datasets — ONE shuffle total.

    ``left_key`` / ``right_key`` may be single column names or equal-
    length lists (composite keys: rows match when EVERY key pair is
    equal and null-free; the key hash combines all key columns).
    Shared non-key column names are suffixed pandas-style before the
    union; each side is null-padded to the union schema and hashed by its
    own keys, so one ``keyed_exchange`` co-locates both sides and
    ``BucketJoin`` probes each sorted block once.  The sort sets the
    block count from the input size, so per-task memory is bounded by
    the block size, not by a hand-set bucket count."""
    n_l = 1 if isinstance(left_key, str) else len(left_key)
    n_r = 1 if isinstance(right_key, str) else len(right_key)
    if n_l != n_r:
        raise ValueError(f"key lists must pair up: {n_l} left vs "
                         f"{n_r} right")
    if how not in ("inner", "left", "right", "outer"):
        # a keyed equi-join plan cannot express non-equi joins
        # (crossing within a block is not a cross join)
        raise ValueError(f"hash_join supports inner/left/right/outer; "
                         f"got {how!r} — use cross_join for Cartesian "
                         f"products")

    (left, l_sch), (right, r_sch) = _arrow_backed(left), _arrow_backed(right)
    if l_sch is None or r_sch is None:
        # a side is EMPTY with no schema (Ray drops all-empty blocks, so
        # a 0-row aggregate or keyed-exchange plan loses its metadata —
        # e.g. a candidate-pair set that filtered everything out)
        if how == "inner":
            return left if l_sch is None else right  # zero-block dataset
        raise ValueError(
            "hash_join(how=%r) with a schema-less empty input: the empty "
            "side's columns are unknowable (Ray dropped its blocks); seed "
            "it with a typed empty block if this shape is intended" % how)
    l_fields, r_fields, clash, union_fields, l_keys, r_keys = \
        _join_field_plan(l_sch, r_sch, left_key, right_key, suffixes)
    if clash:
        left = _rename_stage(left, {c: c + suffixes[0] for c in clash})
        right = _rename_stage(right, {c: c + suffixes[1] for c in clash})
    return keyed_exchange(
        [(left, _TagPad(l_keys, "l", union_fields)),
         (right, _TagPad(r_keys, "r", union_fields))],
        BucketJoin(l_keys, r_keys,
                   [n for n, _ in l_fields], [n for n, _ in r_fields],
                   dict(union_fields), how))


def cross_join(left, right, suffixes=("_l", "_r"),
               broadcast_limit_bytes: int = 256 << 20):
    """Cartesian product — broadcast the (small) right side's blocks and
    pair every left batch against them with repeat/tile index takes, all
    Arrow (no pandas round-trip).  Null keys don't exist here: SQL CROSS
    JOIN has no condition to fail.  The right side must fit the
    broadcast cap (a Cartesian product with a LARGE right side is almost
    always a query bug at scale)."""
    import ray

    (left, l_sch), (right, r_sch) = _arrow_backed(left), _arrow_backed(right)
    if l_sch is None or r_sch is None:
        raise ValueError("cross_join with a schema-less empty input")
    clash = [c for c in l_sch.names if c in set(r_sch.names)]
    if clash:
        left = _rename_stage(left, {c: c + suffixes[0] for c in clash})
        right = _rename_stage(right, {c: c + suffixes[1] for c in clash})
    right = right.materialize()
    if right.size_bytes() > broadcast_limit_bytes:
        raise ValueError(
            f"cross_join right side is {right.size_bytes()} bytes, past "
            f"the {broadcast_limit_bytes} broadcast cap; repartition or "
            f"rethink the product")
    refs = tuple(right.to_arrow_refs())

    def _cross(t: pa.Table) -> pa.Table:
        from .taskcache import nonempty_blocks
        tbls = nonempty_blocks(refs)
        if not tbls:
            # an empty right side: its 0-row blocks may still carry the
            # right columns' types
            r_empty = {f.name: pa.nulls(0, f.type)
                       for b in ray.get(list(refs)) for f in b.schema}
            out = {c: t[c][:0] for c in t.column_names}
            out.update(r_empty)
            return pa.table(out)
        r = pa.concat_tables(tbls)
        li = np.repeat(np.arange(len(t), dtype=np.int64), len(r))
        ri = np.tile(np.arange(len(r), dtype=np.int64), len(t))
        out = {c: pc.take(t[c], pa.array(li)) for c in t.column_names}
        out.update({c: pc.take(r[c], pa.array(ri))
                    for c in r.column_names})
        return pa.table(out)

    out = left.map_batches(_cross, batch_format="pyarrow")
    out._graft_pin = right
    return out


# --- Bloom-filter join pre-filter ------------------------------------------

def build_bloom(ds, key_col: str, *, bits_log2: int = 23, k: int = 4
                ) -> np.ndarray:
    """Bloom filter (uint64 word array, 2^bits_log2 bits) over the
    distinct keys of ``key_col``.

    Built as per-block fixed-size partials (one bitmap row per block)
    OR-combined on the driver — the traffic is |blocks| x 2^bits_log2/8
    bytes regardless of row count, the mergeable-sketch shape.  At the
    default 2^23 bits (1 MiB) the false-positive rate is ~2.4% at 1M
    distinct keys, ~9% at 2M; size up for bigger build sides."""
    n_words = (1 << bits_log2) // 64

    def _partial(t: pa.Table) -> pa.Table:
        words = np.zeros(n_words, dtype=np.uint64)
        col = t[key_col]
        valid = pa.compute.is_valid(col)
        if pa.compute.any(valid).as_py():
            pos = _bloom_positions(col.filter(valid), bits_log2, k)
            np.bitwise_or.at(words, pos >> np.uint64(6),
                             np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({"bloom": pa.array([words.tobytes()], pa.binary())})

    out = np.zeros(n_words, dtype=np.uint64)
    for row in ds.map_batches(_partial,
                              batch_format="pyarrow").take_all():
        out |= np.frombuffer(row["bloom"], dtype=np.uint64)
    return out


def _bloom_positions(col, bits_log2: int, k: int) -> np.ndarray:
    """(k x n) flat array of bit positions for each key (double hashing:
    pos_i = h1 + i*h2 mod 2^bits_log2, Kirsch-Mitzenmacher)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        # both join sides must hash identically even when one declares a
        # narrower integer type — a mismatch would be a FALSE NEGATIVE,
        # i.e. silently dropped join rows.  Nulls are filled on the ARROW
        # side first: a null-bearing int column degrades to float64 in
        # to_pandas, changing every OTHER row's hash vs the null-free
        # build side (null rows themselves are masked out by callers)
        col = pa.compute.fill_null(col.cast(pa.int64()), 0)
    h1 = stable_hash_array(col).astype(np.uint64)
    with np.errstate(over="ignore"):
        h2 = (h1 * np.uint64(0x9E3779B97F4A7C15)) ^ (h1 >> np.uint64(29))
    h2 |= np.uint64(1)  # odd => full-period stride
    mask = np.uint64((1 << bits_log2) - 1)
    with np.errstate(over="ignore"):
        pos = np.concatenate([(h1 + np.uint64(i) * h2) & mask
                              for i in range(k)])
    return pos


class BloomProbe:
    """map_batches stage: keep rows whose key MIGHT be in the filter
    (false positives pass — exactness comes from the join that follows;
    false negatives are impossible).  The bitmap ships once per actor via
    ``ray.put``."""

    def __init__(self, words_ref, key_col: str, bits_log2: int, k: int):
        import ray
        self.words = ray.get(words_ref)
        self.key_col, self.bits_log2, self.k = key_col, bits_log2, k

    def __call__(self, t: pa.Table) -> pa.Table:
        col = t[self.key_col]
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        if not valid.any():
            return t.slice(0, 0)
        pos = _bloom_positions(col, self.bits_log2, self.k)
        hit = (self.words[pos >> np.uint64(6)]
               >> (pos & np.uint64(63))) & np.uint64(1)
        keep = hit.astype(bool).reshape(self.k, len(t)).all(axis=0) & valid
        return t.filter(pa.array(keep))


def bloom_prefilter(left, right, left_key: str, right_key: str, *,
                    bits_log2: int = 23, k: int = 4):
    """Drop left rows whose key cannot appear in ``right`` before a
    shuffle join — the standard way to keep a selective join's exchange
    proportional to the MATCHING rows instead of the probe side.  Null
    keys are dropped (they never equi-match).  The result is a superset
    of the matching left rows; follow with an exact join."""
    import ray
    words = build_bloom(right, right_key, bits_log2=bits_log2, k=k)
    ref = ray.put(words)
    from .taskcache import class_task
    return left.map_batches(
        class_task(BloomProbe, ref, left_key, bits_log2, k),
        batch_format="pyarrow")


def hash_join_bloom(left, right, left_key: str, right_key: str, *,
                    suffixes=("_l", "_r"),
                    bits_log2: int = 23, k: int = 4):
    """INNER hash_join with a Bloom pre-filter on the left (probe) side.

    Result is identical to ``hash_join(..., how='inner')`` — the join
    removes the Bloom's false positives — but only candidate left rows
    enter the keyed exchange.  Inner-only: an outer variant would need
    the unmatched rows the prefilter exists to drop."""
    slim = bloom_prefilter(left, right, left_key, right_key,
                           bits_log2=bits_log2, k=k)
    return hash_join(slim, right, left_key, right_key, how="inner",
                     suffixes=suffixes)


# --- Skew-aware (hot-key hybrid) join --------------------------------------

def _global_heavy_keys(ds, key_col: str, *, mg_k: int = 256
                       ) -> tuple[dict, int]:
    """(merged Misra-Gries counter map over ``key_col``, total row count)
    in ONE streaming pass: each batch emits ≤ mg_k counter rows plus one
    total-marker row; the driver folds the fixed-size partials.  Null
    keys are excluded (they never equi-match)."""
    from .sketches import mg_build, mg_merge

    def _partial(t: pa.Table) -> pa.Table:
        col = t[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # drop nulls on the ARROW side: pandas dropna of a null-bearing
        # int column leaves float64 values, which would poison the hot-
        # key set's type
        col = col.filter(pa.compute.is_valid(col))
        d = mg_build(col.to_pandas().to_numpy(), mg_k)
        keys = list(d) + [None]
        # total marker = VALID (non-null) rows, matching the counters —
        # len(t) would inflate the denominator on null-heavy data and
        # under-detect hot keys
        ests = list(d.values()) + [len(col)]
        is_total = [False] * len(d) + [True]
        return pa.table({
            "key": pa.array(keys, t[key_col].type),
            "est": pa.array(np.asarray(ests, np.int64)),
            "is_total": pa.array(is_total),
        })

    acc: dict = {}
    total = 0
    for row in ds.map_batches(_partial, batch_format="pyarrow").take_all():
        if row["is_total"]:
            total += int(row["est"])
        else:
            acc = mg_merge(acc, {row["key"]: int(row["est"])}, mg_k)
    return acc, total


def skew_join(left, right, left_key: str, right_key: str, *,
              suffixes=("_l", "_r"),
              hot_share: float = 0.01, mg_k: int | None = None,
              max_hot_right_rows: int = 1_000_000):
    """INNER equi-join that routes HOT left keys around the shuffle.

    A single hot key sends its entire row mass through one block task of
    ``hash_join`` no matter how many blocks there are — co-location is
    the predicate's requirement.  This variant detects keys holding more
    than ``hot_share`` of the left side (mergeable Misra-Gries partials,
    ≤ mg_k rows per batch to the driver), BROADCASTS the right side's
    rows for those keys (guarded by ``max_hot_right_rows``), joins hot
    left rows per batch with no exchange, and hash-joins the remaining
    (now skew-free) rows normally.  Output is row-identical to
    ``hash_join(..., how='inner')`` — the hot path reuses the same
    TagPad/BucketJoin kernels.  Inner-only (an outer variant would need
    unmatched-row bookkeeping across the two paths).

    ``mg_k`` defaults to max(256, ceil(4/hot_share)): Misra-Gries can
    miss keys below ~1/(mg_k+1) of a batch, so a counter budget smaller
    than the requested threshold would make small ``hot_share`` values
    silently undetectable.  Both inputs are materialized once up front —
    the sketch pass, the hot/cold splits and the joins all consume the
    same cached blocks instead of re-executing the upstream plan three
    times (Ray spills blocks under pressure)."""
    import ray

    if mg_k is None:
        mg_k = max(256, int(np.ceil(4.0 / max(hot_share, 1e-6))))
    left = left.materialize()
    right = right.materialize()
    counters, total = _global_heavy_keys(left, left_key, mg_k=mg_k)
    hot = sorted(k for k, c in counters.items()
                 if total and c >= hot_share * total)
    if not hot:
        return hash_join(left, right, left_key, right_key, how="inner",
                         suffixes=suffixes)

    hot_ref = ray.put(set(hot))
    from .taskcache import class_task
    cold_l = left.map_batches(
        class_task(KeySetFilter, hot_ref, left_key, True),
        batch_format="pyarrow")
    hot_l = left.map_batches(
        class_task(KeySetFilter, hot_ref, left_key, False),
        batch_format="pyarrow")
    cold_r = right.map_batches(
        class_task(KeySetFilter, hot_ref, right_key, True),
        batch_format="pyarrow")
    hot_r = right.map_batches(
        class_task(KeySetFilter, hot_ref, right_key, False),
        batch_format="pyarrow").materialize()
    n_hot_r = hot_r.count()
    if n_hot_r > max_hot_right_rows:
        raise ValueError(
            f"skew_join: {n_hot_r} right rows carry hot keys (> "
            f"{max_hot_right_rows}); both sides are hot — use hash_join "
            "(co-location is unavoidable) or salt the key upstream")

    cold_join = hash_join(cold_l, cold_r, left_key, right_key, how="inner",
                          suffixes=suffixes)

    # hot path: same TagPad/BucketJoin kernels as the shuffle path, with
    # the (small) tagged right table broadcast once instead of exchanged
    hot_l, l_sch = _known_schema(hot_l)
    r_sch = hot_r.schema()
    l_fields, r_fields, clash, union_fields, l_keys, r_keys = \
        _join_field_plan(l_sch, r_sch, left_key, right_key, suffixes)
    if clash:
        hot_l = _rename_stage(hot_l, {c: c + suffixes[0] for c in clash})
    r_tbl = arrow_table(hot_r.to_pandas())
    if clash:
        r_tbl = r_tbl.rename_columns(
            [c + suffixes[1] if c in clash else c
             for c in r_tbl.column_names])
    # cast right columns to the declared union types (to_pandas round-
    # trips can widen/narrow)
    r_tagged = _TagPad(r_keys, "r", union_fields)(r_tbl)
    r_ref = ray.put(r_tagged)

    class _HotJoin:
        def __init__(self, r_ref, left_key, right_key, l_cols, r_cols,
                     types):
            self.r_tagged = ray.get(r_ref)
            self.tag = _TagPad(left_key, "l", union_fields)
            self.kernel = BucketJoin(left_key, right_key, l_cols, r_cols,
                                     types, "inner")

        def __call__(self, t: pa.Table) -> pa.Table:
            tagged = pa.concat_tables([self.tag(t), self.r_tagged])
            return self.kernel(tagged)

    from .taskcache import class_task
    hot_join = hot_l.map_batches(
        class_task(_HotJoin, r_ref, l_keys, r_keys,
                   [n for n, _ in l_fields],
                   [n for n, _ in r_fields],
                   dict(union_fields)),
        batch_format="pyarrow")
    return cold_join.union(hot_join)


class _GatherKernel:
    """``keyed_exchange`` kernel for :func:`gather_join` — one block of
    the tagged union.  Splits sides in Arrow, probes the (unique) source key
    with a pandas hash index (C-speed for int and string keys alike) and
    attaches payload columns via ``pyarrow.compute.take`` — payloads
    (texts, list/tensor columns) NEVER convert to pandas, which is the
    whole point vs :class:`BucketJoin`."""

    def __init__(self, target_key: str, out_fields: list, attach: list):
        self.target_key = target_key
        self.out_fields = out_fields      # [(name, type)] target-first
        self.attach = attach              # attach col names

    def _empty(self) -> pa.Table:
        return pa.table({n: pa.nulls(0, t) for n, t in self.out_fields})

    def __call__(self, g: pa.Table) -> pa.Table:
        side = g["__side"].to_numpy(zero_copy_only=False)
        is_src = side == "s"
        src = g.filter(pa.array(is_src))
        tgt = g.filter(pa.array(~is_src))
        if len(src) == 0 or len(tgt) == 0:
            return self._empty()
        # NULL keys never match (SQL semantics) — and must not reach the
        # pandas index, which WOULD match None to None
        src = src.filter(pc.is_valid(src["__gkey"]))
        tgt = tgt.filter(pc.is_valid(tgt[self.target_key]))
        if len(src) == 0 or len(tgt) == 0:
            return self._empty()
        src_idx = pd.Index(src["__gkey"].to_pandas())  # raises if dup keys
        idx = src_idx.get_indexer(tgt[self.target_key].to_pandas())
        keep = idx >= 0
        if not keep.all():
            tgt = tgt.filter(pa.array(keep))
            idx = idx[keep]
        take = pa.array(idx, pa.int64())
        cols = {}
        for n, t in self.out_fields:
            if n in self.attach:
                col = src[n]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                cols[n] = pc.take(col, take)
            else:
                cols[n] = tgt[n]
        # pin the declared types: an empty pandas block in the target
        # (Ray passes those through map_batches unconverted) makes the
        # shuffle's concat widen int columns to double, and a double key
        # would hash unlike the int keys in a downstream join
        return pa.table(cols).cast(pa.schema(self.out_fields))


def gather_join(target, source, target_key: str, source_key: str,
                attach_cols: list[str] | None = None, *,
                attach_as: dict[str, str] | None = None):
    """Distributed lookup join (inner): attach ``attach_cols`` from
    ``source`` — whose ``source_key`` must be UNIQUE, enforced per
    block — onto every matching ``target`` row.  ``attach_as`` renames
    attached columns on output ({source_name: output_name}), so callers
    never need a renaming map_batches in front (which would discard the
    source's metadata schema and force an extra materialization).

    Same one-exchange tagged-union plan as :func:`hash_join`, but the
    block kernel is Arrow-native end to end: built for wide payloads
    (document texts, shingle/embedding list columns) where the pandas
    merge in :class:`BucketJoin` dominates wall time.  Target rows with
    keys absent from ``source`` are dropped (inner); NULL keys never
    match."""
    target, t_sch = _arrow_backed(target)
    source, s_sch = _arrow_backed(source)
    attach_src = [c for c in s_sch.names if c != source_key] \
        if attach_cols is None else list(attach_cols)
    ren = attach_as or {}
    attach = [ren.get(c, c) for c in attach_src]
    clash = set(attach) & set(t_sch.names)
    if clash:
        raise ValueError(f"gather_join attach columns {sorted(clash)} "
                         "already exist on the target; rename first")
    t_fields = list(zip(t_sch.names, t_sch.types))
    s_types = dict(zip(s_sch.names, s_sch.types))
    key_t = s_types[source_key]
    out_fields = t_fields + [(ren.get(c, c), s_types[c])
                             for c in attach_src]
    union_fields = t_fields + [("__gkey", key_t)] \
        + [(ren.get(c, c), s_types[c]) for c in attach_src]

    def _as_src(t: pa.Table) -> pa.Table:
        keep = [source_key] + attach_src
        t = t.select(keep)
        return t.rename_columns(["__gkey"] + attach)
    s_tag = _TagPad(["__gkey"], "s", union_fields)
    return keyed_exchange(
        [(target, _TagPad([target_key], "t", union_fields)),
         (source, lambda t: s_tag(_as_src(t)))],
        _GatherKernel(target_key, out_fields, attach))
