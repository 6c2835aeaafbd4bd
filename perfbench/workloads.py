"""The benchmark's four workloads.

Each workload runs one kind of *operation* again and again:

=================  ==========================================================
``sim_bnb``        one ``run_instrumented`` of flowshop B&B (serial engine)
``sim_shard``      one ``run_sharded`` of the synthetic app over 2 shards
``live_uts_ft``    one ``run_live`` of UTS with p2p and fault tolerance
``serve_stream``   one round: start a daemon, wait for warm lanes, stream
                   jobs from two closed-loop clients, stop the daemon
=================  ==========================================================

:meth:`op` measures one operation, checks its output and returns its
record; a failed check raises :class:`CheckFailed`.  :meth:`end_to_end`
turns the records of a run into the end-to-end metrics.  :meth:`twins`,
where a workload has them, runs the traced run's baseline twins, and
:meth:`layer_metrics` adds the workload's own per-layer metrics to the
ones :mod:`run` derives from spans.
"""

from __future__ import annotations

import math
import mmap
import os
import random
import shutil
import statistics
import struct
import threading
import time

import layers

clock = time.perf_counter
median = statistics.median


class CheckFailed(Exception):
    """An operation finished, but its output is wrong."""


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile, interpolated between the two nearest
    samples (so with few samples p95 is not simply the slowest one)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def events_estimate(msgs: int, units: int, quantum: int) -> int:
    """Events-equivalent of a live run: the events the unfused simulator
    fires for the same protocol activity (a delivery and a handler event
    per message, one event per quantum), timers left out."""
    return 2 * msgs + math.ceil(units / quantum)


def run_facts(result, stats) -> dict:
    """Protocol counts of one run, from its ``RunStats``."""
    busy = stats.total_busy
    horizon = result.n * result.makespan
    return {
        "makespan": result.makespan,
        "units": result.total_units,
        "msgs": result.total_msgs,
        "steal_ok": (stats.total_steals_ok / stats.total_steals
                     if stats.total_steals else 0.0),
        "idle_frac": 1.0 - busy / horizon if horizon > 0 else 0.0,
    }


def op_metrics(records: list[dict], makespan_ops: int) -> dict:
    """End-to-end metrics of a workload whose operation is one run.

    The makespans are medians over the first ``makespan_ops`` operations,
    whose seeds are fixed by the run's seed, so on the simulator they are
    deterministic per seed however many operations the time allowed.
    """
    walls = [r["wall_s"] for r in records]
    makespan = median(r["makespan"] for r in records[:makespan_ops])
    return {
        "wall_s": median(walls),
        "setup_s": median(r["setup_s"] for r in records),
        "eq_per_s": median(r["eq"] / r["wall_s"] for r in records),
        "virtual_makespan_s": makespan,
        "makespan_s": makespan,
        "jobs_per_s": len(walls) / sum(walls),
        "job_latency_p50_s": median(walls),
        "job_latency_p95_s": percentile(walls, 95),
    }


def core_layers(records: list[dict]) -> dict:
    return {
        "core.msgs": median(r["msgs"] for r in records),
        "core.steal_success_frac": median(r["steal_ok"] for r in records),
        "core.idle_frac": median(r["idle_frac"] for r in records),
    }


class Workload:
    """Common shape; see the module docstring.

    Every operation (every job, on ``serve_stream``) runs with a seed of
    its own, ``seed * SEED_STRIDE + i`` for the i-th one of the run (the
    warm-up is 0), so a run's medians average over many protocol seeds
    rather than hanging on one, and the same ``--seed`` gives the same
    inputs in the same order.
    """

    name = ""
    #: spawned ``python -m`` children must load the tracing start-up hook
    traces_children = False
    #: a run measures at least this many operations, whatever --seconds
    MIN_OPS = 5
    SEED_STRIDE = 100_000

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self._issued = 0
        self._dirs = 0

    def sub_seed(self, i: int) -> int:
        return self.seed * self.SEED_STRIDE + i

    def next_seed(self) -> int:
        """The seed of the next operation."""
        self._issued += 1
        return self.sub_seed(self._issued - 1)

    def _dir(self, kind: str) -> str:
        self._dirs += 1
        return os.path.join(self.scratch, f"{kind}-{self._dirs}")

    def prepare(self) -> None:
        """Untimed, once per run: reference answers and probes."""

    def close(self) -> None:
        """Undo what :meth:`prepare` installed."""

    def install(self, tracer, dump_dir: str) -> None:
        """Wrap the layers this workload calls in-process."""

    def layer_metrics(self, records: list[dict], twins: dict) -> dict:
        return {}


class SimBnB(Workload):
    """Flowshop B&B (Ta21 cut to 11 x 10, lb1, NEH warm start), BTD n=64."""

    name = "sim_bnb"

    def prepare(self) -> None:
        from repro.bnb.engine import BnBEngine
        from repro.experiments.specs import BnBSpec
        from repro.sim.engine import Simulator
        from spans import Tracer

        spec = BnBSpec(1, 11, 10)
        self.optimum, _perm, self.seq_nodes = BnBEngine(
            spec.instance, bound=spec.bound).solve(spec.build().make_shared())
        # set-up ends when the event loop starts
        self._loop_t0 = None
        self._probe = Tracer("probe")
        self._probe.hook(Simulator, "run", before=self._stamp)

    def _stamp(self, _tracer, _args) -> None:
        self._loop_t0 = clock()

    def close(self) -> None:
        self._probe.restore()

    def op(self) -> dict:
        from repro.experiments import runner
        from repro.experiments.specs import BnBSpec

        seed = self.next_seed()
        t0 = clock()
        app = BnBSpec(1, 11, 10).build()
        cfg = runner.RunConfig(protocol="BTD", n=64, quantum=64, seed=seed)
        result, stats = runner.run_instrumented(cfg, app)
        wall = clock() - t0
        if result.optimum != self.optimum:
            raise CheckFailed(f"optimum {result.optimum}, sequential solve "
                              f"found {self.optimum}")
        return {"seed": seed, "wall_s": wall, "setup_s": self._loop_t0 - t0,
                "eq": result.events_equivalent, "events": result.events,
                "fused_ratio": stats.fused_ratio, **run_facts(result, stats)}

    def end_to_end(self, records: list[dict]) -> dict:
        return op_metrics(records, self.MIN_OPS)

    def install(self, tracer, dump_dir: str) -> None:
        layers.install_sim(tracer)

    def layer_metrics(self, records, twins) -> dict:
        return {**core_layers(records),
                "sim.engine.events": median(r["events"] for r in records),
                "sim.engine.fused_ratio": median(r["fused_ratio"]
                                                 for r in records),
                "bnb.search_overhead": (median(r["units"] for r in records)
                                        / self.seq_nodes)}


class SimShard(Workload):
    """Synthetic app (5000 units/node), BTD n=2000, 2 shards, 10 ms links."""

    name = "sim_shard"
    MIN_OPS = 3
    N = 2000
    UNITS_PER_NODE = 5000
    SHARDS = 2

    def prepare(self) -> None:
        from repro.sim.engine import Simulator
        from spans import Tracer

        # set-up ends when the last shard has built its simulator; the
        # forked shards stamp an anonymous shared mapping (no file)
        self._ready = mmap.mmap(-1, 8 * self.SHARDS)
        self._probe = Tracer("probe")
        self._probe.hook(Simulator, "begin_windows", after=self._stamp)

    def _stamp(self, _tracer, args, _out) -> None:
        ctx = args[0]._shard
        if ctx is not None:
            struct.pack_into("d", self._ready, 8 * ctx.shard_id, clock())

    def close(self) -> None:
        self._probe.restore()
        self._ready.close()

    def _config(self, seed: int):
        from repro.apps.synthetic import SyntheticApplication
        from repro.experiments.runner import RunConfig
        from repro.experiments.scale import fleet_network, fleet_pacing

        oclb, ack_timeout = fleet_pacing(1e-2)
        cfg = RunConfig(protocol="BTD", n=self.N, quantum=16,
                        seed=seed, network=fleet_network(self.N, 1e-2),
                        oclb=oclb, ack_timeout=ack_timeout)
        app = SyntheticApplication(self.N * self.UNITS_PER_NODE,
                                   unit_cost=1e-6)
        return cfg, app

    def _check(self, result) -> None:
        if result.total_units != self.N * self.UNITS_PER_NODE:
            raise CheckFailed(f"{result.total_units} units processed, "
                              f"expected {self.N * self.UNITS_PER_NODE}")

    def op(self) -> dict:
        from repro.sim import shard

        self._ready[:] = bytes(len(self._ready))
        seed = self.next_seed()
        t0 = clock()
        cfg, app = self._config(seed)
        result, stats, _walls = shard.run_sharded(cfg, app, self.SHARDS)
        wall = clock() - t0
        self._check(result)
        return {"seed": seed, "wall_s": wall,
                "setup_s": max(struct.unpack_from(f"{self.SHARDS}d",
                                                  self._ready)) - t0,
                "eq": result.events_equivalent, "events": result.events,
                "fused_ratio": stats.fused_ratio, **run_facts(result, stats)}

    def end_to_end(self, records: list[dict]) -> dict:
        return op_metrics(records, self.MIN_OPS)

    def install(self, tracer, dump_dir: str) -> None:
        layers.install_shard(tracer, dump_dir)

    def twins(self) -> dict:
        """The first measured run again, on the serial engine."""
        from repro.experiments import runner

        seed = self.sub_seed(1)
        t0 = clock()
        cfg, app = self._config(seed)
        result, _stats = runner.run_instrumented(cfg, app)
        wall = clock() - t0
        self._check(result)
        return {"seed": seed, "serial_wall_s": wall}

    def layer_metrics(self, records, twins) -> dict:
        sharded = [r["wall_s"] for r in records if r["seed"] == twins["seed"]]
        return {**core_layers(records),
                "sim.engine.events": median(r["events"] for r in records),
                "sim.engine.fused_ratio": median(r["fused_ratio"]
                                                 for r in records),
                "sim.shard.speedup_vs_serial": (
                    twins["serial_wall_s"] / sharded[0])}


class LiveUTSFaultTolerant(Workload):
    """UTS bin_small on 2 live workers: BTD, p2p, fault tolerance on."""

    name = "live_uts_ft"
    traces_children = True
    FT_OFF_RUNS = 3

    def prepare(self) -> None:
        from repro.uts.params import get_preset
        self.nodes = get_preset("bin_small").nodes

    def _run(self, seed: int, fault_tolerance: bool) -> dict:
        from repro.runtime import supervisor

        run_dir = self._dir("live")
        cfg = supervisor.LiveConfig(
            protocol="BTD", n=2, app={"kind": "uts", "preset": "bin_small"},
            seed=seed, p2p=True, fault_tolerance=fault_tolerance,
            timeout_s=60.0, run_dir=run_dir)
        t_call = time.time()
        t0 = clock()
        try:
            live = supervisor.run_live(cfg)
            wall = clock() - t0
            t_end = time.time()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        res = live.result
        conserved = live.conserved if fault_tolerance else res.total_units
        if not res.total_units == conserved == self.nodes:
            raise CheckFailed(f"units {res.total_units}, conserved "
                              f"{conserved}, tree has {self.nodes}")
        go = [float(rep["t0"]) for rep in live.reports.values()]
        return {"seed": seed, "wall_s": wall, "setup_s": min(go) - t_call,
                "spawn_to_go_s": max(go) - t_call,
                "teardown_s": t_end - (min(go) + res.makespan),
                "eq": events_estimate(res.total_msgs, res.total_units, 64),
                **run_facts(res, live.stats)}

    def op(self) -> dict:
        return self._run(self.next_seed(), fault_tolerance=True)

    def end_to_end(self, records: list[dict]) -> dict:
        return op_metrics(records, len(records))

    def install(self, tracer, dump_dir: str) -> None:
        layers.install_runtime(tracer, child=False)

    def twins(self) -> dict:
        """The first measured runs again with fault tolerance off."""
        runs = [self._run(self.sub_seed(i), fault_tolerance=False)
                for i in range(1, self.FT_OFF_RUNS + 1)]
        return {"seeds": [r["seed"] for r in runs],
                "ft_off_makespan_s": median(r["makespan"] for r in runs)}

    def layer_metrics(self, records, twins) -> dict:
        return {**core_layers(records),
                "runtime.supervisor.spawn_to_go_s": median(
                    r["spawn_to_go_s"] for r in records),
                "runtime.supervisor.teardown_s": median(
                    r["teardown_s"] for r in records),
                "runtime.live.ft_overhead_ratio": (
                    median(r["makespan"] for r in records
                           if r["seed"] in twins["seeds"])
                    / twins["ft_off_makespan_s"])}


class ServeStream(Workload):
    """In-process daemon, 1 lane x 2 p2p job hosts, two closed-loop
    clients."""

    name = "serve_stream"
    traces_children = True
    MIN_OPS = 3
    MIX = "synthetic:20000,uts:bin_mini,synthetic:8000"
    JOBS_PER_ROUND = 100
    CLIENTS = 2
    QUANTUM = 64
    #: status poll interval, far below a job's ~10 ms execution time
    POLL_S = 0.001
    JOB_TIMEOUT_S = 30.0

    def prepare(self) -> None:
        from repro.serve.loadgen import parse_mix
        from repro.uts.params import get_preset
        from repro.uts.sequential import count_tree

        specs = parse_mix(self.MIX)
        offset = random.Random(self.seed).randrange(len(specs))
        self.specs = specs[offset:] + specs[:offset]
        self.expected = [
            s["units"] if s["kind"] == "synthetic"
            else count_tree(get_preset(s["preset"]).params).nodes
            for s in self.specs]

    def op(self) -> dict:
        from repro.serve.client import ServeClient
        from repro.serve.daemon import ServeConfig, ServeDaemon

        run_dir = self._dir("serve")
        t0 = clock()
        # p2p: with the star data plane every protocol frame of a job
        # would hop through the lane thread, which shares this process's
        # interpreter lock with the polling clients; that hop made the
        # round walls scatter twice as widely from run to run
        daemon = ServeDaemon(ServeConfig(
            lanes=1, n=2, p2p=True, quantum=self.QUANTUM,
            job_timeout_s=self.JOB_TIMEOUT_S, run_dir=run_dir))
        try:
            address = daemon.start()
            with ServeClient(address) as client:
                while any(lane["state"] == "boot"
                          for lane in client.fleet()["lanes"]):
                    if clock() - t0 > 60.0:
                        raise CheckFailed("lanes still booting after 60 s")
                    time.sleep(0.002)
            setup = clock() - t0
            jobs, errors = self._stream(address)
        finally:
            daemon.stop()
            shutil.rmtree(run_dir, ignore_errors=True)
        done = [j for j in jobs if "latency_s" in j]
        if not done:
            raise CheckFailed(f"no job finished: {errors[:3]}")
        # a job a client never got to submit counts as failed too
        return {"setup_s": setup,
                "wall_s": (max(j["t_end"] for j in jobs)
                           - min(j["t_submit"] for j in jobs)),
                "jobs": done, "attempted": self.JOBS_PER_ROUND,
                "failed": self.JOBS_PER_ROUND - len(done), "errors": errors}

    def _stream(self, address) -> tuple[list[dict], list[str]]:
        from repro.serve.client import ServeClient

        lock = threading.Lock()
        jobs: list[dict] = []
        errors: list[str] = []
        next_job = iter(range(self.JOBS_PER_ROUND))

        def one_job(client, k: int, seed: int) -> dict:
            spec = self.specs[k % len(self.specs)]
            job = {"t_submit": clock()}
            try:
                resp = client.submit(spec, run={"seed": seed},
                                     timeout_s=self.JOB_TIMEOUT_S)
                if not resp.get("ok"):
                    raise CheckFailed(f"submit refused: {resp}")
                polls = 0
                while True:
                    st = client.status(resp["job_id"])
                    polls += 1
                    if st.get("state") in ("done", "dead"):
                        break
                    if clock() - job["t_submit"] > self.JOB_TIMEOUT_S:
                        raise CheckFailed(f"job {k} not terminal in time")
                    time.sleep(self.POLL_S)
                job["t_end"] = clock()
                if st["state"] != "done":
                    raise CheckFailed(f"job {k} dead: {st.get('error')}")
                if st["total_units"] != self.expected[k % len(self.specs)]:
                    raise CheckFailed(f"job {k}: {st['total_units']} units")
                msgs = client.result(resp["job_id"])["total_msgs"]
                job.update(latency_s=job["t_end"] - job["t_submit"],
                           polls=polls, queue_s=st["queue_s"],
                           exec_s=st["exec_s"], makespan=st["makespan"],
                           units=st["total_units"], msgs=msgs)
            except Exception as exc:   # counted as a failed job
                job.setdefault("t_end", clock())
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
            return job

        def client_loop() -> None:
            try:
                with ServeClient(address) as client:
                    while True:
                        with lock:
                            k = next(next_job, None)
                            if k is None:
                                return
                            seed = self.next_seed()
                        job = one_job(client, k, seed)
                        with lock:
                            jobs.append(job)
            except Exception as exc:   # the client's remaining jobs fail
                with lock:
                    errors.append(f"client: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client_loop, name=f"client{i}")
                   for i in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return jobs, errors

    def end_to_end(self, records: list[dict]) -> dict:
        done = [j for r in records for j in r["jobs"]]
        latencies = [j["latency_s"] for j in done]
        walls = sum(r["wall_s"] for r in records)
        return {
            "wall_s": median(r["wall_s"] for r in records),
            "setup_s": median(r["setup_s"] for r in records),
            "eq_per_s": sum(events_estimate(j["msgs"], j["units"],
                                            self.QUANTUM)
                            for j in done) / walls,
            "virtual_makespan_s": median(j["makespan"] for j in done),
            "makespan_s": median(j["makespan"] for j in done),
            "jobs_per_s": len(done) / walls,
            "job_latency_p50_s": percentile(latencies, 50),
            "job_latency_p95_s": percentile(latencies, 95),
        }

    def install(self, tracer, dump_dir: str) -> None:
        layers.install_serve(tracer)

    def layer_metrics(self, records, twins) -> dict:
        done = [j for r in records for j in r["jobs"]]
        return {
            "core.msgs": median(j["msgs"] for j in done),
            "serve.daemon.queue_wait_p50_s": percentile(
                [j["queue_s"] for j in done], 50),
            "serve.daemon.status_calls_per_job": (
                sum(j["polls"] for j in done) / len(done)),
            "serve.fleet.exec_p50_s": percentile(
                [j["exec_s"] for j in done], 50),
            "serve.fleet.dispatch_overhead_p50_s": percentile(
                [j["exec_s"] - j["makespan"] for j in done], 50),
        }


WORKLOADS = {w.name: w for w in (SimBnB, SimShard, LiveUTSFaultTolerant,
                                 ServeStream)}
