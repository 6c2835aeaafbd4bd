"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim_bnb --seed 1 --seconds 20 --trace 0

The workload's operation (see ``workloads.py``) runs once untimed as a
warm-up, then again and again for ``--seconds``; every operation's output
is checked.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``,
measured with tracing off.  ``--trace 1`` measures half the time untraced,
half traced (spans around each layer's public functions, see
``layers.py``), runs the workload's baseline twins, and reports the
per-layer metrics; a table of each traced process's wall time, layer self
times and unattributed time is printed first, and the span totals are
kept in ``.perfbench_run/traces/``.  The program's source must be in
``src/`` next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_run")

clock = time.perf_counter


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, jobs: int = 1):
        """Run ``fn``; its record, or None if it raised.

        A record that carries its own ``attempted``/``failed`` counts (a
        serve round is many jobs) is tallied by them; an operation that
        raises counts ``jobs`` failures.  Each operation starts on a
        collected heap, so none pays for the garbage of the one before.
        """
        gc.collect()
        try:
            rec = fn()
        except Exception:   # any failure of the program is a failed op
            self.attempted += jobs
            self.failed += jobs
            print(traceback.format_exc(), file=sys.stderr)
            return None
        self.attempted += rec.get("attempted", 1)
        self.failed += rec.get("failed", 0)
        for err in rec.get("errors", ()):
            print(f"failed job: {err}", file=sys.stderr)
        return rec

    def measure(self, workload, seconds: float, min_ops: int) -> list[dict]:
        """Operations for ``seconds``, and at least ``min_ops``; the
        records of those that passed."""
        records = []
        t_end = clock() + seconds
        for done in itertools.count(1):
            rec = self.attempt(workload.op, jobs=workload_jobs(workload))
            if rec is not None:
                records.append(rec)
            if clock() >= t_end and done >= min_ops:
                return records


def workload_jobs(workload) -> int:
    return getattr(workload, "JOBS_PER_ROUND", 1)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its reaped children."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- per-layer metrics from span totals ---------------------------------------

def span_metrics(snaps: list[dict], n_ops: int, shards: int) -> dict:
    """Per-layer metrics every workload shares, per operation."""
    from spans import other_seconds, thread_seconds

    def total(field: str, key: str, roles=None) -> float:
        return sum(s[field].get(key, 0) for s in snaps
                   if roles is None or s["role"] in roles)

    def per_op(value: float) -> float:
        return value / n_ops

    children = ("worker", "jobhost")
    explore = total("self_s", "bnb.explore")
    uts = total("self_s", "uts.process")
    commits = total("calls", "repro.runtime.spool.write_spool")
    app_compute = sum(total("self_s", layer, children)
                      for layer in ("bnb.explore", "uts.process",
                                    "app.synthetic"))
    child_wall = sum(thread_seconds(s) for s in snaps
                     if s["role"] in children)
    boots = [b for s in snaps for b in s["series"].get("boot_s", ())]
    m = {
        "sim.events.ops": per_op(total("calls", "EventQueue.push")
                                 + total("calls", "EventQueue.pop")),
        "sim.events.self_s": per_op(total("self_s", "sim.events")),
        "sim.engine.transmit_calls": per_op(
            total("calls", "Simulator.transmit")),
        "sim.engine.transmit_self_s": per_op(
            total("self_s", "sim.engine.transmit")),
        "bnb.explore_calls": per_op(total("calls", "BnBEngine.explore")),
        "bnb.explore_self_s": per_op(explore),
        "bnb.nodes": per_op(total("counts", "bnb.nodes")),
        "bnb.nodes_per_s": ratio(total("counts", "bnb.nodes"), explore),
        "uts.process_self_s": per_op(uts),
        "uts.nodes_per_s": ratio(total("counts", "uts.nodes"), uts),
        "core.handler_self_s": per_op(total("self_s", "core.handler")),
        "runtime.spool.commits": per_op(commits),
        "runtime.spool.commit_self_s": per_op(
            total("self_s", "runtime.spool.commit")),
        "runtime.spool.bytes_per_commit": ratio(
            total("counts", "runtime.spool.bytes"), commits),
        "runtime.codec.frames_out": per_op(
            total("calls", "repro.runtime.codec.pack_frame")),
        "runtime.codec.encode_self_s": per_op(
            total("self_s", "runtime.codec.encode")),
        "runtime.codec.decode_self_s": per_op(
            total("self_s", "runtime.codec.decode")),
        "runtime.transport.flush_self_s": per_op(
            total("self_s", "runtime.transport.flush")),
        "runtime.transport.bytes_out": per_op(
            total("counts", "runtime.transport.bytes_out")),
        "runtime.worker.select_wait_s": per_op(
            total("self_s", "runtime.select", children)),
        "runtime.worker.compute_frac": ratio(app_compute, child_wall),
        "serve.daemon.admit_self_s": per_op(
            total("self_s", "serve.daemon.admit")),
        "serve.fleet.boot_s": statistics.median(boots) if boots else 0.0,
        "trace.other_s": per_op(sum(other_seconds(s) for s in snaps)),
    }
    m.update(shard_metrics(snaps, n_ops, shards))
    return m


def shard_metrics(snaps: list[dict], n_ops: int, shards: int) -> dict:
    """Window-loop metrics of the shard children (zero when unsharded).

    The children of one sharded run start their loops together and runs
    do not overlap, so sorting by loop start groups them run by run.
    """
    children = sorted((s for s in snaps if s["role"].startswith("shard")),
                      key=lambda s: s["series"]["loop_t0"][0])
    compute = critical = barrier = 0.0
    windows = 0
    for i in range(0, len(children) - shards + 1, shards):
        group = [s["series"]["window_compute_s"]
                 for s in children[i:i + shards]]
        windows += len(group[0])
        critical += sum(max(w) for w in zip(*group))
    for s in children:
        own = sum(s["series"]["window_compute_s"])
        compute += own
        barrier += s["series"]["loop_t1"][0] - s["series"]["loop_t0"][0] - own

    def total(name: str) -> float:
        return sum(s["counts"].get(name, 0) for s in children)

    return {
        "sim.shard.windows": windows / n_ops,
        "sim.shard.compute_s": compute / n_ops,
        "sim.shard.critical_path_s": critical / n_ops,
        "sim.shard.parallelism": ratio(compute, critical),
        "sim.shard.barrier_wait_s": barrier / n_ops,
        "sim.shard.export_msgs": total("sim.shard.export_msgs") / n_ops,
        "sim.shard.export_bytes": total("sim.shard.export_bytes") / n_ops,
    }


def process_table(snaps: list[dict]) -> list[str]:
    """One line per traced process: wall = layer self times + other."""
    from spans import other_seconds, thread_seconds

    lines = [f"{'process':<12} {'ospid':>7} {'wall_s':>9} {'layers_s':>9} "
             f"{'other_s':>9}  top layers"]
    for s in snaps:
        wall = thread_seconds(s)
        layers = sum(s["self_s"].values())
        top = sorted(s["self_s"].items(), key=lambda kv: -kv[1])[:4]
        ok = "ok" if layers <= 1.05 * wall else "OVER"
        lines.append(
            f"{s['role']:<12} {s['ospid']:>7} {wall:9.3f} {layers:9.3f} "
            f"{other_seconds(s):9.3f}  {ok} "
            + ", ".join(f"{k} {v:.3f}" for k, v in top))
    return lines


# -- one run ------------------------------------------------------------------

def traced_run(wl, tally: Tally, seconds: int, scratch: str) -> dict:
    """Untraced half, traced half, twins; the per-layer metrics."""
    from spans import Tracer, load_dumps

    untraced = tally.measure(wl, seconds / 2, 1)
    dump_dir = os.path.join(scratch, "spans")
    os.makedirs(dump_dir)
    saved_env = dict(os.environ)
    tracer = Tracer("bench")
    try:
        wl.install(tracer, dump_dir)
        if wl.traces_children:
            os.environ["PERFBENCH_TRACE_DIR"] = dump_dir
            os.environ["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(HERE, "hook"), SRC])
        tracer.reset()
        traced = tally.measure(wl, seconds / 2, 1)
        own = tracer.snapshot()
    finally:
        tracer.restore()
        os.environ.clear()
        os.environ.update(saved_env)
    twins = tally.attempt(wl.twins) if hasattr(wl, "twins") else {}
    if not (untraced and traced and twins is not None):
        return {}
    snaps = [own] + load_dumps(dump_dir)
    n_ops = (sum(len(r["jobs"]) for r in traced) if "jobs" in traced[0]
             else len(traced))
    metrics = span_metrics(snaps, n_ops, getattr(wl, "SHARDS", 1))
    try:
        metrics.update(wl.layer_metrics(untraced, twins))
    except (KeyError, IndexError, statistics.StatisticsError):
        # a failed op or twin leaves its ratio unmeasured
        print(traceback.format_exc(), file=sys.stderr)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    lines = process_table(snaps)
    print("\n".join(lines))
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    with open(os.path.join(OUT, "traces", f"{wl.name}-seed{wl.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed, "ops": n_ops,
                   "processes": snaps, "metrics": metrics}, fh, indent=1)
    return metrics


def run(args, declared: dict) -> dict:
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    # unique even when a process id of an earlier run comes round again
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    # temporary files of the program stay inside the checkout
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    wl = WORKLOADS[args.workload](args.seed, scratch)
    tally = Tally()
    metrics: dict = {}
    try:
        wl.prepare()
        tally.attempt(wl.op, jobs=workload_jobs(wl))   # warm-up
        if args.trace:
            metrics = traced_run(wl, tally, args.seconds, scratch)
        else:
            records = tally.measure(wl, args.seconds, wl.MIN_OPS)
            if records:
                metrics = wl.end_to_end(records)
                metrics["ok_frac"] = 1.0 - tally.failed / tally.attempted
                metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)
    # a layer the workload bypasses reads 0; an end-to-end metric must be
    # measured
    missing = set() if args.trace else set(declared) - set(metrics)
    undeclared = set(metrics) - set(declared)
    if missing or undeclared:
        print(f"metrics missing: {sorted(missing)}, "
              f"undeclared: {sorted(undeclared)}", file=sys.stderr)
    correct = (tally.failed == 0 and bool(metrics) and not missing
               and not undeclared)
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                               "unit": unit}
                        for name, unit in declared.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program source under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    # a terminated run still stops its daemons and workers on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args, declared)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
