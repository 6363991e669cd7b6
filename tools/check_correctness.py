"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry at the given sf, converts the result to
pandas, and for entries with an ``oracle_sql()`` twin compares against
DuckDB on: row count, sorted column-name schema, and order-insensitive
values (columns sorted by name, rows sorted by all columns, exact
comparison).  Prints one line per query, each ending in ``digest=``: the
first 16 hex digits of a sha256 over ``canon(df)`` (column names, dtypes
and hashed values), so two runs can be compared query by query, rows-only
queries included.

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(obj):
    import pyarrow as pa
    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)
    return df


def digest(df: pd.DataFrame) -> str:
    c = canon(df)
    h = hashlib.sha256(repr([(str(k), str(t)) for k, t in c.dtypes.items()])
                       .encode())
    h.update(pd.util.hash_pandas_object(c, index=False).to_numpy().tobytes())
    return h.hexdigest()[:16]


def compare(ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"rowcount ray={len(ray_df)} sql={len(sql_df)}")
    rc, sc = sorted(map(str, ray_df.columns)), sorted(map(str, sql_df.columns))
    if rc != sc:
        problems.append(f"schema ray={rc} sql={sc}")
        return problems
    if problems:
        return problems
    a, b = canon(ray_df), canon(sql_df)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            av = av.astype(np.float64)
            bv = bv.astype(np.float64)
            bad = ~(np.isclose(av, bv, rtol=0, atol=0, equal_nan=True))
            exact_bad = int(bad.sum())
            if exact_bad:
                close_bad = int((~np.isclose(av, bv, rtol=1e-9, atol=1e-9,
                                             equal_nan=True)).sum())
                problems.append(
                    f"col {c}: {exact_bad} value mismatches "
                    f"({close_bad} beyond 1e-9)")
        else:
            bad = av != bv
            if bad.any():
                i = int(np.argmax(bad))
                problems.append(
                    f"col {c}: {int(bad.sum())} mismatches, first at row {i}: "
                    f"ray={av[i]!r} sql={bv[i]!r}")
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import duckdb
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    import __ray_entry__ as E
    qs, oracles = E.queries(), E.oracle_sql()
    n_ok = n_bad = 0
    unknown = only - set(qs)
    if unknown:
        print(f"[FAIL] unknown query name(s): {sorted(unknown)}")
        n_bad += len(unknown)
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception:
            print(f"[FAIL] {name}: query raised")
            traceback.print_exc()
            n_bad += 1
            continue
        dt = time.time() - t0
        dg = f"digest={digest(ray_df)}"
        if name not in oracles:
            print(f"[rows-only] {name}: {len(ray_df)} rows "
                  f"{sorted(map(str, ray_df.columns))} ({dt:.1f}s) {dg}")
            continue
        try:
            sql_df = con.execute(oracles[name]).df()
        except Exception:
            print(f"[FAIL] {name}: oracle SQL raised")
            traceback.print_exc()
            n_bad += 1
            continue
        try:
            problems = compare(ray_df, sql_df)
        except Exception as e:
            problems = [f"compare raised: {type(e).__name__}: {e}"]
        if problems:
            n_bad += 1
            print(f"[MISMATCH] {name} ({dt:.1f}s): " + "; ".join(problems)
                  + f" {dg}")
        else:
            n_ok += 1
            print(f"[OK] {name}: {len(ray_df)} rows match oracle ({dt:.1f}s) "
                  f"{dg}")
    print(f"\n{n_ok} oracle-matched, {n_bad} failures")
    ray.shutdown()
    sys.exit(1 if n_bad else 0)


if __name__ == "__main__":
    main()
