"""The public functions each layer's spans wrap, one installer per layer.

Layer names (the span's layer, summed as self time):

============================  =================================================
``sim.events``                ``EventQueue.push`` / ``EventQueue.pop``
``sim.engine.transmit``       ``Simulator.transmit``
``sim.engine.loop``           ``Simulator.run`` / ``Simulator.run_window``
``sim.shard.inject``          ``Simulator.inject`` (shard children)
``sim.shard.export``          ``ShardContext.export`` (shard children)
``sim.shard.driver``          ``run_sharded`` (the parent's window barrier)
``sim.shard.ipc``             pipe ``send`` / ``recv``, parent and shards
``experiments.runner``        ``run_instrumented``
``core.handler``              ``SimProcess._arrive`` / ``SimProcess._handled``
``bnb.explore``               ``BnBEngine.explore``
``uts.process``               ``UTSWork.process``
``app.synthetic``             ``SyntheticApplication.process[_quanta]``
``runtime.codec.encode``      ``pack_frame``, ``message_to_frame``
``runtime.codec.decode``      ``FrameDecoder.feed``, ``message_from_frame``
``runtime.spool.commit``      ``build_spool_doc``, ``write_spool``
``runtime.transport.flush``   ``FramedConnection.flush``
``runtime.select``            selector waits of live workers and job hosts
``runtime.supervisor``        ``run_live``
``serve.daemon.admit``        ``ServeDaemon.op_submit`` (via the op table)
``serve.daemon.status``       ``ServeDaemon.op_status`` (via the op table)
``serve.fleet.boot``          ``Lane._boot``
``serve.fleet.execute``       ``Lane._execute``
``serve.client``              ``ServeClient.request``
============================  =================================================

Every installer imports the program lazily, so the start-up hook can load
this module by path before any program module is imported.
"""

from __future__ import annotations

import os
import pickle
import time

_clock = time.perf_counter


def _count_result(name: str, attr: str | None = None):
    def after(tracer, _args, out):
        tracer.count(name, getattr(out, attr) if attr else out)
    return after


def install_kernels(tr) -> None:
    """Protocol handler and application kernels (sim and live alike)."""
    from repro.apps.synthetic import SyntheticApplication
    from repro.bnb.engine import BnBEngine
    from repro.sim.process import SimProcess
    from repro.uts.work import UTSWork

    tr.patch(SimProcess, "_arrive", "core.handler")
    tr.patch(SimProcess, "_handled", "core.handler")
    tr.patch(BnBEngine, "explore", "bnb.explore",
             after=_count_result("bnb.nodes", "nodes"))
    tr.patch(UTSWork, "process", "uts.process",
             after=_count_result("uts.nodes"))
    tr.patch(SyntheticApplication, "process", "app.synthetic")
    tr.patch(SyntheticApplication, "process_quanta", "app.synthetic")


def install_sim(tr) -> None:
    """Event queue, engine and the serial driver."""
    from repro.experiments import runner
    from repro.sim.engine import Simulator
    from repro.sim.events import EventQueue

    tr.patch(EventQueue, "push", "sim.events")
    tr.patch(EventQueue, "pop", "sim.events")
    tr.patch(Simulator, "transmit", "sim.engine.transmit")
    tr.patch(Simulator, "run", "sim.engine.loop")
    tr.patch(runner, "run_instrumented", "experiments.runner")
    install_kernels(tr)


def install_shard(tr, dump_dir: str) -> None:
    """Window loop of the shard children, plus the parent's driver.

    Children are forked, so they inherit these wrappers.  Each child
    forgets the parent's spans when it starts its window loop and writes
    its own at ``finish_windows``.  Per window it records its compute time
    (injecting the barrier's inbound batch, then ``run_window``) and the
    cross-shard messages it exports, counted and pickled.
    """
    from multiprocessing import connection

    from repro.sim import shard
    from repro.sim.engine import Simulator

    install_sim(tr)
    tr.patch(connection._ConnectionBase, "send", "sim.shard.ipc")
    tr.patch(connection._ConnectionBase, "recv", "sim.shard.ipc")
    tr.patch(Simulator, "run_window", "sim.engine.loop")
    tr.patch(Simulator, "inject", "sim.shard.inject")
    tr.patch(shard.ShardContext, "export", "sim.shard.export")
    tr.patch(shard, "run_sharded", "sim.shard.driver")
    state = {"window_t0": None}

    def begin_after(tracer, args, _out):
        sim = args[0]
        if sim._shard is not None:
            tracer.reset(role=f"shard{sim._shard.shard_id}")
            state["window_t0"] = None
            tracer.series["loop_t0"].append(_clock())

    def window_start(_tracer, _args):
        if state["window_t0"] is None:
            state["window_t0"] = _clock()

    def window_end(tracer, args, _out):
        tracer.series["window_compute_s"].append(
            _clock() - state["window_t0"])
        state["window_t0"] = None
        outbox = args[0]._shard.outbox
        tracer.count("sim.shard.export_msgs", len(outbox))
        if outbox:
            tracer.count("sim.shard.export_bytes", len(
                pickle.dumps(outbox, pickle.HIGHEST_PROTOCOL)))

    def finish_before(tracer, args):
        if args[0]._shard is not None:
            tracer.series["loop_t1"].append(_clock())

    def finish_after(tracer, args, _out):
        if args[0]._shard is not None:
            tracer.dump(dump_dir)

    tr.hook(Simulator, "begin_windows", after=begin_after)
    tr.hook(Simulator, "inject", before=window_start)
    tr.hook(Simulator, "run_window", before=window_start, after=window_end)
    tr.hook(Simulator, "finish_windows", before=finish_before,
            after=finish_after)


def install_runtime(tr, child: bool) -> None:
    """Codec, transport and spool; selector waits in child processes."""
    from repro.runtime import codec, spool, transport

    tr.patch(codec, "pack_frame", "runtime.codec.encode")
    tr.patch(codec, "message_to_frame", "runtime.codec.encode")
    tr.patch(codec, "message_from_frame", "runtime.codec.decode")
    tr.patch(codec.FrameDecoder, "feed", "runtime.codec.decode", eager=True)
    tr.patch(spool, "build_spool_doc", "runtime.spool.commit")
    tr.patch(spool, "write_spool", "runtime.spool.commit",
             after=lambda t, args, _o: t.count(
                 "runtime.spool.bytes", os.path.getsize(args[0])))
    tr.patch(transport.FramedConnection, "flush", "runtime.transport.flush")
    traced_flush = transport.FramedConnection.flush

    def flush(conn):
        before = len(conn.outbuf)
        ok = traced_flush(conn)
        tr.count("runtime.transport.bytes_out", before - len(conn.outbuf))
        return ok

    tr.replace(transport.FramedConnection, "flush", flush)
    install_kernels(tr)
    if child:
        import selectors
        tr.patch(selectors.DefaultSelector, "select", "runtime.select")
    else:
        from repro.runtime import supervisor
        tr.patch(supervisor, "run_live", "runtime.supervisor")


def install_serve(tr) -> None:
    """Daemon admission and status, lane boot and dispatch, the client."""
    from repro.serve import client, daemon, fleet

    install_runtime(tr, child=False)
    tr.track_threads()
    ops = daemon.ServeDaemon._OPS   # the request dispatch table
    tr.patch(ops, "submit", "serve.daemon.admit",
             key="ServeDaemon.op_submit")
    tr.patch(ops, "status", "serve.daemon.status",
             key="ServeDaemon.op_status")
    tr.patch(fleet.Lane, "_boot", "serve.fleet.boot")
    tr.patch(fleet.Lane, "_execute", "serve.fleet.execute")
    tr.patch(client.ServeClient, "request", "serve.client")
    state = {}

    def boot_start(_tracer, args):
        state[id(args[0])] = _clock()

    def boot_end(tracer, args, _out):
        tracer.series["boot_s"].append(_clock() - state.pop(id(args[0])))

    tr.hook(fleet.Lane, "_boot", before=boot_start, after=boot_end)
