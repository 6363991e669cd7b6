"""``ray job submit``-able CLI.

    python -m series_correction_project_updated_ray <command> [...]

Commands:

* ``rollup`` — checkpointed flagship (sequences → correction → tiers),
  resumable from per-partition manifests.
* ``seatek-correct`` — the reference CLI surface
  (/root/reference/scripts/series_correction_cli.py:9-64): --series,
  --river-miles, --years, --dry-run over a Seatek raw directory.
* ``skew-report`` — print the per-partition lineage/skew table of a
  rollup output directory.
* ``ingest`` — incremental continuous-aggregate maintenance: ingest new
  event files into a delta store, optionally expire + compact.

Owns its Ray session (guarded init) — library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def cmd_rollup(args) -> int:
    _ensure_ray(args.num_cpus)
    from .pipelines.resumable import run_resumable
    manifests = run_resumable(
        args.input, args.output, n_partitions=args.n_partitions,
        buckets_per_source=args.buckets_per_source,
        step_seconds=args.step_seconds)
    print(json.dumps({
        "partitions_processed": int(len(manifests)),
        "rows_in": int(manifests["rows_in"].sum()) if len(manifests) else 0,
        "output": args.output,
    }))
    return 0


def cmd_seatek_correct(args) -> int:
    _ensure_ray(args.num_cpus)
    from .pipelines.reports import write_csv_safely
    from .pipelines.seatek_compat import batch_correct, summarize
    from .sources.config import (enrich_with_river_mappings,
                                 filter_series_by_river_miles)
    from .sources.seatek import discover_files

    series = None
    if args.series != "all":
        series = [args.series]
    all_series = sorted({s for s, _, _ in discover_files(args.data_dir)})
    cfg = enrich_with_river_mappings({}, args.river_mile_map)
    requested = series or all_series
    non_digit = [s for s in requested if not s.isdigit()]
    wanted = [int(s) for s in requested if s.isdigit()]
    if args.river_miles and not cfg.get("RIVER_TO_SENSORS"):
        # an explicit --river-miles with no usable river-mile map (absent
        # flag or missing file) cannot be honored; processing everything
        # anyway would silently ignore the user's selection
        print("--river-miles given but no river-mile map is configured "
              "(pass --river-mile-map with an existing CSV)")
        return 2
    allowed = filter_series_by_river_miles(wanted, args.river_miles
                                           if args.river_miles else "all", cfg)
    # non-numeric series ids can't appear in the river-mile map; pass them
    # through alongside the filtered numeric ones
    keep = [str(s) for s in allowed] + non_digit
    if not keep:
        if cfg.get("RIVER_TO_SENSORS"):
            # a CONFIGURED filter that excludes everything means process
            # nothing — silently reverting to all series would ignore the
            # user's --river-miles selection
            print("no series match the requested river miles; nothing to do")
            return 0
        keep = requested

    y0, y1 = sorted(args.years) if args.years else (1, 99)
    year_range = (y0 - 1994 if y0 > 1900 else y0,
                  y1 - 1994 if y1 > 1900 else y1)
    if not discover_files(args.data_dir, keep, year_range):
        # reference batch_process fallback branch
        # (batch_correction.py:505-509): no matching files -> process the
        # configured raw_data lists instead
        from .pipelines.seatek_compat import process_fallback
        from .sources.config import load_config
        config_data = load_config(args.config) if args.config else {}
        sel = [int(s) for s in keep if s.isdigit()] if keep else None
        if not args.dry_run:
            import os
            os.makedirs(args.output, exist_ok=True)
        summary = process_fallback(config_data, args.output, sel,
                                   args.dry_run)
        if summary.empty:
            print("no matching files and no fallback raw_data configured")
            return 0
        if not args.dry_run:
            import os
            write_csv_safely(summary,
                             os.path.join(args.output, "summary.csv"),
                             index=False)
        print(summary.to_string(index=False))
        return 0
    # merge the processor config exactly like batch_process
    # (pipelines/seatek_compat.py): defaults ∪ processor_config — the
    # analyze command's --set overrides must reach the kernels, not just
    # the persisted file
    proc_cfg = None
    if args.config:
        from .sources.config import load_config
        config_data = load_config(args.config) or {}
        merged = {**config_data.get("defaults", {}),
                  **config_data.get("processor_config", {})}
        proc_cfg = merged or None
    corrected = batch_correct(args.data_dir, proc_cfg, series=keep,
                              year_range=year_range)
    corrected = corrected.materialize()
    summary = summarize(corrected)
    if args.dry_run:
        print(summary.to_string(index=False))
        return 0
    import os
    os.makedirs(args.output, exist_ok=True)
    corrected.drop_columns(["status"]).write_parquet(
        os.path.join(args.output, "corrected"))
    write_csv_safely(summary, os.path.join(args.output, "summary.csv"),
                     index=False)
    print(summary.to_string(index=False))
    return 0


def cmd_skew_report(args) -> int:
    from .state.checkpoint import skew_report
    print(skew_report(args.output).to_string(index=False))
    return 0


def cmd_analyze(args) -> int:
    """Config-mutation analysis driver (reference
    ``scripts/run_analysis.py:20-48``): load the JSON config, apply the
    requested dotted-path overrides (the reference hardcodes
    ``defaults.threshold = 3.0``), write the config back, then run the
    batch correction over it."""
    import os

    overrides = args.set or ["defaults.threshold=3.0"]
    config = {}
    if os.path.exists(args.config):
        with open(args.config) as f:
            config = json.load(f)
    for item in overrides:
        path, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = path.split(".")
        for k in parts[:-1]:
            node = node.setdefault(k, {})
        node[parts[-1]] = value
        print(f"set {path} = {value!r}")
    with open(args.config, "w") as f:
        json.dump(config, f, indent=2)
    print(f"Using config at: {args.config}")
    print(f"Output will be saved to: {args.output}")
    os.makedirs(args.output, exist_ok=True)
    args.river_miles = None
    args.river_mile_map = None
    return cmd_seatek_correct(args)


def cmd_ingest(args) -> int:
    """Incremental continuous-aggregate maintenance: ingest new files,
    optionally expire old windows and compact, print store state."""
    import glob as _glob
    import os
    _ensure_ray(args.num_cpus)
    from .state import ingest as ING
    files = sorted({f for pat in args.files
                    for f in (_glob.glob(pat) or
                              ([pat] if os.path.exists(pat) else []))})
    if not files:
        print(json.dumps({"error": "no files matched",
                          "patterns": args.files}))
        return 1
    n_new = ING.ingest(args.store, files, key_col=args.key_col,
                       width=args.width)
    folded = expired = 0
    if args.expire_before is not None:
        expired = ING.expire(args.store, args.expire_before,
                             key_col=args.key_col)
    if args.compact:
        folded = ING.compact(args.store, key_col=args.key_col)
    ledger = ING._load_ledger(args.store)
    print(json.dumps({
        "new_files": n_new,
        "total_files": len(ledger["files"]),
        "live_deltas": len(ledger["deltas"]),
        "deltas_folded": folded or expired,
        "store": args.store,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="series_correction_project_updated_ray")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("rollup", help="checkpointed flagship rollup")
    pr.add_argument("--input", required=True)
    pr.add_argument("--output", required=True)
    pr.add_argument("--n-partitions", type=int, default=32)
    pr.add_argument("--buckets-per-source", type=int, default=64)
    pr.add_argument("--step-seconds", type=int, default=13090)
    pr.add_argument("--num-cpus", type=int, default=None)
    pr.set_defaults(fn=cmd_rollup)

    ps = sub.add_parser("seatek-correct",
                        help="reference-compatible batch correction")
    ps.add_argument("--data-dir", required=True)
    ps.add_argument("--output", default="./seatek_out")
    ps.add_argument("--series", default="all")
    ps.add_argument("--river-miles", nargs=2, type=float, default=None)
    ps.add_argument("--river-mile-map", default=None)
    ps.add_argument("--config", default=None,
                    help="JSON config with series raw_data lists "
                         "(fallback mode when discovery finds no files)")
    ps.add_argument("--years", nargs=2, type=int, default=None)
    ps.add_argument("--dry-run", action="store_true")
    ps.add_argument("--num-cpus", type=int, default=None)
    ps.set_defaults(fn=cmd_seatek_correct)

    pa_ = sub.add_parser("analyze",
                         help="config-mutation analysis driver "
                              "(run_analysis.py twin): apply --set "
                              "overrides to the JSON config, persist "
                              "it, run batch correction")
    pa_.add_argument("--config", required=True)
    pa_.add_argument("--data-dir", required=True)
    pa_.add_argument("--output", default="./analysis_out")
    pa_.add_argument("--set", action="append", default=None,
                     metavar="PATH=JSON",
                     help="dotted-path config override, e.g. "
                          "defaults.threshold=3.0 (default when "
                          "omitted, matching the reference)")
    pa_.add_argument("--series", default="all")
    pa_.add_argument("--years", nargs=2, type=int, default=None)
    pa_.add_argument("--dry-run", action="store_true")
    pa_.add_argument("--num-cpus", type=int, default=None)
    pa_.set_defaults(fn=cmd_analyze)

    pi = sub.add_parser("ingest",
                        help="incremental continuous-aggregate ingest")
    pi.add_argument("--store", required=True)
    pi.add_argument("--files", nargs="+", required=True,
                    help="parquet files or globs; already-seen are skipped")
    pi.add_argument("--key-col", default="event_type")
    pi.add_argument("--width", type=int, default=60)
    pi.add_argument("--expire-before", type=int, default=None,
                    help="drop windows with window_start below this")
    pi.add_argument("--compact", action="store_true")
    pi.add_argument("--num-cpus", type=int, default=None)
    pi.set_defaults(fn=cmd_ingest)

    pk = sub.add_parser("skew-report", help="per-partition lineage table")
    pk.add_argument("--output", required=True)
    pk.set_defaults(fn=cmd_skew_report)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    finally:
        try:
            import ray
            if ray.is_initialized():
                ray.shutdown()
        except Exception:
            pass


if __name__ == "__main__":
    sys.exit(main())
