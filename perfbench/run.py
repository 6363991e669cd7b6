"""The repository's benchmark: one closed-loop client over three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload seq_local --seed 3 --seconds 10 --trace 0

It generates the workload's inputs from ``--seed`` (input set ``seed`` mod
the number of sets pinned in ``digests.json``), starts Ray on one CPU
three times, and in each session runs whole cycles of the workload's ops
(one op at a time, at least one cycle) for about a third of ``--seconds``.  It
checks every output, and prints as its last stdout line::

    {"correct": ..., "attempted": <ops>, "failed": <ops>, "metrics": {...}}

An op fails if it raises, overruns its deadline or fails its output check;
``failed / attempted`` is the failed-op ratio.  The line before it holds
the run's bases (CPU count, library versions, seed, input sizes and
digests, per-op sample counts, medians and maxima).

``--trace 0`` reports the end-to-end metrics (BENCHMARK.json):

* ``setup_s``         median of the three set-ups (``ray.init`` + a warm-up
                      Ray Data job importing the engine in a worker);
* ``points_per_s``    input points per cycle / the time of a cycle, the sum
                      of its ops' median times (output checks excluded);
* ``rollup_s``        median time to produce the rollup table: the local
                      plan, the shuffle plan, or ``read_rollup`` of the
                      compacted and expired store;
* ``bytes_per_point`` seq_local: rollup output bytes; seq_shuffle: tier
                      outputs + manifests; retention: delta store + segment
                      payloads — per input point;
* ``peak_rss_mb``     VmHWM of the driver plus that of the largest Ray worker.

``--trace 1`` runs the same cycles, then replays each layer in process
with spans around its public calls, and reports per-layer self times,
counts and ratios (0 where a layer does not run in the workload).  Spans
are written to ``.pbwork/results``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3
# one CPU: per-core throughput is the comparable signal (ROADMAP), and it
# does not depend on how many CPUs a box exposes
CPUS = 1
OP_DEADLINE_S = 60
OBJECT_STORE_BYTES = 512 * 2**20
# Ray's AF_UNIX sockets live under <temp>/session_<date>_<pid>/sockets/ and
# must stay under 108 bytes; longer checkout paths keep Ray's default
SOCKET_PATH_BUDGET = 107 - len("/session_2026-01-01_00-00-00_000000_0000000"
                               "/sockets/plasma_store")

# metric names and units, as BENCHMARK.json declares them
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class DeadlineExceeded(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    def _raise(signum, frame):
        raise DeadlineExceeded(f"op overran its {seconds} s deadline")
    old = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class OpFailed(Exception):
    pass


def _proc_tree() -> dict[int, tuple[int, bytes]]:
    """pid → (parent pid, cmdline) for every visible process."""
    out = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{p}/cmdline", "rb") as f:
                out[int(p)] = (ppid, f.read())
        except (OSError, IndexError, ValueError):
            continue
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Run:
    """Op bookkeeping for one benchmark run: attempts, failures, timings
    (op spans on the tracer) and peak memory of the driver + Ray workers."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.cycles = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_kb: dict[int, int] = {}

    def _fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg)

    def op(self, name: str, fn, check=None):
        self.attempted += 1
        try:
            with deadline(OP_DEADLINE_S), self.tracer.span("op." + name):
                result = fn()
        except Exception:  # any op failure is recorded, then the cycle stops
            self._fail(f"{name}: {traceback.format_exc(limit=3)}")
            raise OpFailed(name)
        finally:
            self.sample_rss()
        problem = check(result) if check else None
        if problem:
            self._fail(f"{name}: {problem}")
            raise OpFailed(name)
        return result

    def check(self, name: str, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"{name}: {problem}")

    def op_times(self, name: str) -> list[float]:
        return self.tracer.durations("op." + name)

    def op_median(self, name: str) -> float:
        times = self.op_times(name)
        return float(statistics.median(times)) if times else 0.0

    def sample_rss(self) -> None:
        me = os.getpid()
        tree = _proc_tree()

        def descends(pid):
            while pid in tree and pid != me:
                pid = tree[pid][0]
            return pid == me
        pids = [me] + [p for p, (_, cmd) in tree.items()
                       if cmd.startswith(b"ray::") and descends(p)]
        for p in pids:
            self.peak_kb[p] = max(self.peak_kb.get(p, 0), _vm_hwm_kb(p))

    def peak_mb(self) -> float:
        """Driver peak plus the largest worker peak.  Summing every worker
        would count however many idle workers Ray happened to start."""
        me = self.peak_kb.get(os.getpid(), 0)
        workers = [kb for p, kb in self.peak_kb.items() if p != os.getpid()]
        return (me + max(workers, default=0)) / 1024


def warm_batch(batch):
    """Warm-up map: import the engine modules every workload calls."""
    import series_correction_project_updated_ray.pipelines.resumable  # noqa: F401
    import series_correction_project_updated_ray.stages.compress  # noqa: F401
    import series_correction_project_updated_ray.stages.correction  # noqa: F401
    import series_correction_project_updated_ray.state.ingest  # noqa: F401
    return batch


def start_ray() -> str | None:
    """Start Ray on ``CPUS`` CPUs.  Returns the Ray temp dir if it is
    inside the checkout."""
    import ray
    from ray.data import DataContext

    temp = os.path.join(ROOT, ".pbray")
    kw = {"_temp_dir": temp} if len(temp) <= SOCKET_PATH_BUDGET else {}
    ray.init(num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
             **kw)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    import ray.data as rd
    rd.range(1).map_batches(warm_batch).materialize()
    return kw.get("_temp_dir")


def cycle_time(wl, run) -> float:
    """A cycle's time as the sum of its ops' median times: each op kind has
    a sample per cycle or more, a cycle has only one."""
    return sum(n * run.op_median(op) for op, n in wl.OPS.items())


def layer_metrics(wl, run) -> dict:
    tr = run.tracer
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(wl.layers(run))
    # a span fills the metric "<span name>_s" with its self time, a counter
    # the metric of its own name
    out.update({f"{n}_s": t for n, t in tr.self_times().items()
                if f"{n}_s" in out})
    out.update({n: c for n, c in tr.counts.items() if n in out})
    out.update({"op.rollup_s": run.op_median("rollup"),
                "op.checkpoint_s": run.op_median("checkpoint"),
                "op.resume_s": run.op_median("resume"),
                "op.ingest_wave_s": run.op_median("ingest_wave"),
                "op.maintenance_s": run.op_median("compact")
                + run.op_median("expire"),
                "op.query_s": run.op_median("query"),
                "op.compress_s": run.op_median("compress")})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import series_correction_project_updated_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the engine package is not importable from {ROOT}: "
              f"{e}", file=sys.stderr)
        return 2
    # Ray workers inherit the environment of the raylet this process
    # starts, so they import the engine from this checkout whatever the
    # working directory
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    # no usage-stats reporter: the benchmark starts no network traffic and
    # no background work beyond what the engine needs
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import numpy as np
    import pyarrow as pa
    import ray

    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # every input is checked against a digest pinned at the benchmark's
    # commit (pin.py); --seed picks one of the pinned input sets
    with open(os.path.join(os.path.dirname(__file__), "digests.json")) as f:
        pins = json.load(f)
    n_inputs = sum(k.startswith(args.workload + "/") for k in pins)
    input_seed = args.seed % n_inputs if n_inputs else None
    pinned = pins.get(f"{args.workload}/{input_seed}")
    if pinned is None:
        print(f"perfbench: no pinned digests for {args.workload!r}; run "
              f"perfbench/pin.py", file=sys.stderr)
        return 2
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.join(ROOT, ".pbwork", run_id)
    results = os.path.join(ROOT, ".pbwork", "results")
    os.makedirs(results, exist_ok=True)
    run = Run(Tracer(run_id))
    wl = WORKLOADS[args.workload]()
    ray_temp = None
    try:
        info = wl.prepare(work, input_seed)
        run.check("input digest", pinned["input"] == info["digest"],
                  "generated input differs from the pinned digest")
        if "output" in pinned:
            wl.expected = pinned["output"]

        # closed loop: ops back to back, in whole cycles, so every run
        # samples each op kind in the same mix (a cut cycle would add only
        # its first, cheaper ops).  The window is split over the set-ups'
        # Ray sessions, so the medians span three sessions' worker
        # processes; in each, a cycle starts only if its expected midpoint
        # falls inside that session's share of the window
        setups, cycle_s, cycle_wall = [], [], []
        try:
            for i in range(SETUPS):
                t0 = time.perf_counter()
                ray_temp = start_ray()
                setups.append(time.perf_counter() - t0)
                t_end = time.perf_counter() + args.seconds / SETUPS
                while True:
                    first = len(run.tracer.spans)
                    t0 = time.perf_counter()
                    wl.cycle(run)
                    run.cycles += 1
                    cycle_wall.append(time.perf_counter() - t0)
                    # a cycle records only its op spans
                    cycle_s.append(sum(s["end"] - s["start"]
                                       for s in run.tracer.spans[first:]))
                    if time.perf_counter() \
                            + statistics.median(cycle_wall) / 2 > t_end:
                        break
                if i < SETUPS - 1:
                    ray.shutdown()
            wl.finish(run)
        except OpFailed:
            pass
        if args.trace and not run.failed:
            metrics = {k: (v, PER_LAYER[k]) for k, v in
                       layer_metrics(wl, run).items()}
        elif not run.failed:
            metrics = {"setup_s": statistics.median(setups),
                       "points_per_s": wl.points / cycle_time(wl, run),
                       "rollup_s": run.op_median(wl.ROLLUP_OP),
                       "peak_rss_mb": run.peak_mb(),
                       **wl.end_to_end(run)}
            metrics = {k: (metrics[k], u) for k, u in END_TO_END.items()}
        else:
            metrics = {}
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        if ray_temp:
            shutil.rmtree(ray_temp, ignore_errors=True)
    if args.trace:
        run.tracer.dump(os.path.join(results, run_id + ".spans.json"))

    ops = sorted({s["name"][3:] for s in run.tracer.spans
                  if s["name"].startswith("op.")})
    bases = {
        "run": run_id, "workload": args.workload, "seed": args.seed,
        "input_seed": input_seed, "seconds": args.seconds, "trace": args.trace,
        "num_cpus": CPUS, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "ray": ray.__version__, "pyarrow": pa.__version__,
        "numpy": np.__version__,
        "input": {k: v for k, v in info.items()
                  if k not in ("files", "tables")} | {"files": len(info["files"])},
        "setup_s": setups, "cycles": run.cycles, "cycle_s": cycle_s,
        "ops": {n: {"n": len(run.op_times(n)),
                    "p50_s": run.op_median(n), "max_s": max(run.op_times(n))}
                for n in ops},
        "peak_kb": run.peak_kb, "errors": run.errors,
    }
    with open(os.path.join(results, run_id + ".json"), "w") as f:
        json.dump({"bases": bases, "metrics": metrics}, f, indent=1)
    print(json.dumps(bases))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
