"""Live worker entry point: ``python -m repro.runtime.worker '<json>'``.

One OS process = one protocol worker.  The supervisor passes the full
configuration as a single JSON argument; the worker connects back,
handshakes (``hello`` / ``go``), builds its protocol object through the
same :func:`repro.experiments.runner.worker_factory` the simulator uses,
and then runs a selector reactor until the supervisor says ``shutdown``:

1. wait on the sockets until the next timer deadline (or a short idle tick);
2. absorb inbound frames — routed protocol messages into
   ``proc._arrive``, ``dead``/``left`` announcements into the failure
   detector, ``join`` announcements into the overlay graft;
3. fire due timers (compute quanta, retransmits, termination waves ride
   here);
4. **fault mode:** if any frame was queued (on the supervisor connection
   or a peer connection) since the last commit, commit the write-ahead
   spool — *before* step 5, so no byte ever leaves this process without
   the state that explains it already being on disk (see
   :mod:`repro.runtime.spool`);
5. flush the outbound buffers;
6. once the protocol reports termination, send the ``done`` report (and
   keep answering late messages until ``shutdown`` arrives).

Two data-plane modes:

* **star** (default): every protocol frame rides the supervisor
  connection; the supervisor relays by destination pid.
* **p2p** (``"p2p": true``): the worker opens its own listener *before*
  ``hello`` and advertises the endpoint; protocol frames then flow over
  direct worker<->worker connections (:mod:`repro.runtime.mesh`) and the
  supervisor connection carries control only — ``go``, ``dead``,
  ``join``/``left`` membership news, ``leave`` orders, ``shutdown``, and
  the final reports.  A worker spawned mid-run (``"join": {...}``) boots
  with the full graft history, announces itself to its overlay parent
  (ATTACH/ADOPT — the same exchange a post-crash splice uses), and a
  worker ordered to ``leave`` drains its pool to its parent and departs
  once every transfer it initiated is acknowledged.

The worker ignores SIGINT (the supervisor coordinates interactive aborts)
and treats SIGTERM or supervisor EOF as an orderly exit, so no run leaves
orphans behind.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector

from ..apps.base import Application
from ..core.config import OCLBConfig
from ..experiments.runner import RunConfig, worker_factory
from ..obs.export import TraceWriter
from ..obs.registry import MetricsRegistry
from .codec import message_from_frame, stats_to_wire
from .env import LiveEnv
from .mesh import PeerMesh, open_peer_listener
from .spool import build_spool_doc, recovery_state, spool_path, write_spool
from .transport import FramedConnection, connect_endpoint

#: Selector timeout when no timer is pending (keeps the watchdog and
#: supervisor-EOF checks responsive).
IDLE_TICK_S = 0.25

#: Live-scale OCLB pacing: wall milliseconds, not the simulator's virtual
#: defaults — loopback RTTs are tens of microseconds, but real scheduling
#: jitter is milliseconds, so retries back off further than in the sim.
LIVE_WAVE_RETRY_S = 0.02
LIVE_PROBE_RETRY_S = 0.005
LIVE_ACK_TIMEOUT_S = 0.02


def build_app(spec: dict) -> tuple[Application, str]:
    """Construct the application from its JSON coordinates."""
    if spec["kind"] == "uts":
        from ..apps.uts_app import UTS_UNIT_COST, UTSApplication
        from ..uts.params import get_preset
        preset = get_preset(spec["preset"])
        app = UTSApplication(preset.params,
                             unit_cost=spec.get("unit_cost", UTS_UNIT_COST))
        return app, f"uts/{spec['preset']}"
    if spec["kind"] == "bnb":
        from ..experiments.specs import BnBSpec
        bs = BnBSpec(spec["index"], n_jobs=spec["jobs"],
                     n_machines=spec["machines"],
                     bound=spec.get("bound", "lb1"),
                     warm_start=spec.get("warm_start", True))
        return bs.build(), (f"bnb/ta{20 + spec['index']}"
                            f"@{spec['jobs']}x{spec['machines']}")
    if spec["kind"] == "synthetic":
        from ..apps.synthetic import SyntheticApplication
        app = SyntheticApplication(int(spec["units"]),
                                   unit_cost=spec.get("unit_cost", 1e-5))
        return app, f"synthetic/{spec['units']}"
    raise SystemExit(f"unknown app kind {spec.get('kind')!r}")


def build_run_config(cfg: dict) -> RunConfig:
    """The worker-side :class:`RunConfig` (shared with the simulator)."""
    run = cfg["run"]
    oclb = OCLBConfig(
        sharing=run.get("sharing", "proportional"),
        wave_retry=run.get("wave_retry", LIVE_WAVE_RETRY_S),
        probe_retry=run.get("probe_retry", LIVE_PROBE_RETRY_S))
    return RunConfig(protocol=run["protocol"], n=run["n"],
                     dmax=run.get("dmax", 10),
                     sharing=run.get("sharing", "proportional"),
                     quantum=run.get("quantum", 64), seed=run.get("seed", 0),
                     oclb=oclb,
                     ack_timeout=run.get("ack_timeout", LIVE_ACK_TIMEOUT_S),
                     ack_max_backoff=run.get("ack_max_backoff"),
                     breaker_threshold=run.get("breaker_threshold", 4))


class _Exit(Exception):
    """Internal: unwind the reactor (code carried to sys.exit)."""

    def __init__(self, code: int) -> None:
        self.code = code


def _run(cfg: dict) -> int:
    pid = cfg["pid"]
    fault_mode = bool(cfg.get("fault_mode"))
    run_dir = cfg.get("run_dir")
    p2p = bool(cfg.get("p2p"))
    slots = int(cfg.get("slots", cfg["run"]["n"]))
    join = cfg.get("join")          # {"parent": p} for a mid-run joiner
    deadline = time.monotonic() + float(cfg.get("timeout_s", 120.0))

    sel = DefaultSelector()
    interest: dict[int, int] = {}   # fd -> registered event mask

    def set_interest(sock, flags, data) -> None:
        fd = sock.fileno()
        if fd < 0:
            return
        if fd not in interest:
            sel.register(sock, flags, data)
            interest[fd] = flags
        elif interest[fd] != flags:
            sel.modify(sock, flags, data)
            interest[fd] = flags

    def forget_sock(sock) -> None:
        fd = sock.fileno()
        if fd in interest:
            sel.unregister(sock)
            del interest[fd]

    mesh = None
    peer_endpoint = None
    if p2p:
        # the listener must accept before anyone can learn our address:
        # open it ahead of the hello that advertises it
        peer_listener, peer_endpoint = open_peer_listener(
            cfg.get("transport", "tcp"), cfg.get("host", "127.0.0.1"),
            int(cfg.get("peer_port", 0)), run_dir, pid)
        mesh = PeerMesh(
            pid, peer_listener,
            on_conn=lambda c: set_interest(c.sock, EVENT_READ, c),
            on_drop=lambda c: forget_sock(c.sock))

    sock = connect_endpoint(cfg["endpoint"])
    conn = FramedConnection(sock)
    hello = {"t": "hello", "pid": pid, "ospid": os.getpid()}
    if peer_endpoint is not None:
        hello["peer"] = peer_endpoint
    conn.send_frame(hello)
    conn.flush()

    # blocking handshake: wait for "go".  A peer that handshook earlier
    # may already be running and sending us protocol frames — on the
    # supervisor stream they ride ahead of "go", so buffer them; on the
    # p2p mesh the membership buffer holds them (no member is known yet).
    set_interest(conn.sock, EVENT_READ, "ctrl")
    if mesh is not None:
        set_interest(mesh.listener, EVENT_READ, "accept")
    started = False
    go: dict = {}
    early: list[dict] = []
    while not started:
        if time.monotonic() > deadline:
            return 3
        for key, _mask in sel.select(timeout=0.5):
            if key.data == "ctrl":
                for frame in conn.receive():
                    t = frame.get("t")
                    if t == "go":
                        started = True
                        go = frame
                    elif t == "shutdown":
                        return 0
                    else:
                        early.append(frame)
            elif key.data == "accept":
                mesh.accept()
            elif isinstance(key.data, FramedConnection):
                mesh.service(key.data)   # pre-go: everything buffers
                if key.data.eof:
                    mesh.forget(key.data)
        if conn.eof:
            return 1
    t0_epoch = time.time()

    app, app_label = build_app(cfg["app"])
    rcfg = build_run_config(cfg)
    grafts = tuple((int(a), int(b)) for a, b in go.get("grafts", ()))
    proc = worker_factory(rcfg, app, grafts=grafts)(pid)
    metrics = MetricsRegistry()
    env = LiveEnv(pid, slots, conn, mesh=mesh, seed=rcfg.seed,
                  fault_mode=fault_mode, run_dir=run_dir, metrics=metrics,
                  debug=bool(cfg.get("debug")))
    env.attach(proc)

    replay: list[dict] = []
    if mesh is not None:
        mesh.partitions = tuple(
            (frozenset(int(q) for q in side), float(t0), float(t1))
            for side, t0, t1 in go.get("partitions", ()))
        for peer, ep in go.get("peers", {}).items():
            if int(peer) != pid:
                replay.extend(mesh.add_member(int(peer), ep))
        mesh.arm()

    tracer = None
    if cfg.get("trace") and run_dir:
        tracer = TraceWriter(os.path.join(run_dir, f"trace_{pid}.ndjson"),
                            meta={"pid": pid, "t0_epoch": t0_epoch,
                                  "protocol": rcfg.protocol, "n": rcfg.n,
                                  "app": app_label, "live": True})
        proc.tracer = tracer

    my_spool = spool_path(run_dir, pid) if (fault_mode and run_dir) else None
    committed = -1   # frames_queued() as of the last spool commit

    def frames_queued() -> int:
        n = conn.frames_queued
        return n + mesh.frames_queued if mesh is not None else n

    def commit_spool() -> None:
        nonlocal committed
        committed = frames_queued()
        if my_spool is not None:
            write_spool(my_spool, build_spool_doc(proc))

    def final_report(kind: str) -> dict:
        rep = {"t": kind, "pid": pid}
        if fault_mode:
            rep.update(recovery_state(proc))
        return rep

    def results_report(kind: str) -> dict:
        ps = env.stats.per_process[pid]
        rep = final_report(kind)
        rep.update({
            "t0": t0_epoch,
            "stats": stats_to_wire(ps),
            "work_done": env.stats.work_done_time,
            "optimum": (app.shared_value(proc.shared)
                        if proc.shared is not None else None),
            "metrics": metrics.snapshot(),
        })
        if mesh is not None:
            rep["links"] = mesh.links_wire()
            rep["part_drops"] = mesh.part_drops
        return rep

    def deliver_peer_frames(frames: list[dict]) -> None:
        for frame in frames:
            env.deliver(message_from_frame(frame))

    def handle_gone(gone: int, left: bool) -> None:
        # drain whatever the departed peer flushed before going: those
        # frames physically arrived, so the protocol sees them first —
        # exactly the order the star router's relay guarantees
        if mesh is not None:
            deliver_peer_frames(mesh.drop_peer(gone))
        if left:
            env.mark_left(gone)
        else:
            env.mark_dead(gone)

    commit_spool()   # a kill before the first quantum must find a spool
    proc.start()
    for d in go.get("dead", ()):
        env.mark_dead(int(d))
    for lv in go.get("left", ()):
        env.mark_left(int(lv))
    for frame in early:   # frames that raced our handshake
        if frame.get("t") == "msg":
            env.deliver(message_from_frame(frame))
        elif frame.get("t") == "dead":
            env.mark_dead(frame["pid"])
        elif frame.get("t") == "left":
            env.mark_left(frame["pid"])
    deliver_peer_frames(replay)
    if join is not None:
        # announce ourselves to the overlay parent the registry assigned
        # (ATTACH -> ADOPT; idempotent if the parent died while we booted)
        proc.join_overlay()

    done_sent = False
    left_sent = False
    try:
        while True:
            if time.monotonic() > deadline:
                raise _Exit(3)
            nxt = env.queue.next_deadline()
            timeout = (IDLE_TICK_S if nxt is None
                       else min(IDLE_TICK_S, max(0.0, nxt - env.now)))
            set_interest(conn.sock, EVENT_READ
                         | (EVENT_WRITE if conn.wants_write else 0), "ctrl")
            if mesh is not None:
                for c in mesh.open_conns():
                    set_interest(c.sock, EVENT_READ
                                 | (EVENT_WRITE if c.wants_write else 0), c)

            for key, mask in sel.select(timeout=timeout):
                if key.data == "accept":
                    mesh.accept()
                    continue
                if isinstance(key.data, FramedConnection):
                    c = key.data
                    # EVENT_WRITE only wakes the loop: the flush itself
                    # waits for the post-commit flush_all below, so no
                    # frame ever leaves ahead of the spool that explains it
                    deliver_peer_frames(mesh.service(c))
                    if c.eof:
                        mesh.forget(c)
                    continue
                # key.data == "ctrl": fall through to the shared drain below
            for frame in conn.receive():
                t = frame.get("t")
                if t == "msg":
                    env.deliver(message_from_frame(frame))
                elif t == "dead":
                    handle_gone(int(frame["pid"]), left=False)
                elif t == "left":
                    handle_gone(int(frame["pid"]), left=True)
                elif t == "join":
                    jp = int(frame["pid"])
                    # graft first, then replay the joiner's early frames:
                    # its ATTACH must find the overlay already extended
                    proc.peer_joined(jp, int(frame["parent"]))
                    if mesh is not None:
                        deliver_peer_frames(
                            mesh.add_member(jp, frame.get("endpoint")))
                elif t == "leave":
                    proc.begin_leave()
                elif t == "shutdown":
                    if fault_mode and not frame.get("abort"):
                        conn.send_frame(final_report("bye"))
                    commit_spool()
                    flush_until = time.monotonic() + 5.0
                    while (not conn.flush()
                           and time.monotonic() < flush_until):
                        time.sleep(0.005)
                    raise _Exit(0)
            if conn.eof:
                raise _Exit(1)   # supervisor vanished: don't linger

            env.queue.fire_due()

            if proc.terminated and not done_sent and not left_sent:
                done_sent = True
                conn.send_frame(results_report("done"))

            if (proc.leaving and not left_sent and not done_sent
                    and proc.leave_tick()):
                # pool drained, every transfer acked: report and depart
                left_sent = True
                env.stats.per_process[pid].finish_time = env.now
                conn.send_frame(results_report("left"))
                commit_spool()
                flush_until = time.monotonic() + 5.0
                while time.monotonic() < flush_until:
                    ok = conn.flush()
                    if mesh is not None:
                        ok = mesh.flush_all() and ok
                    if ok:
                        break
                    time.sleep(0.005)
                raise _Exit(0)

            # write-ahead: state hits the disk before the bytes it
            # explains hit the wire.  Bytes left over from a partial
            # flush were explained by an earlier commit, so only newly
            # queued frames call for another one
            if frames_queued() != committed:
                commit_spool()
            conn.flush()
            if mesh is not None:
                mesh.flush_all()
    except _Exit as ex:
        return ex.code
    finally:
        if tracer is not None:
            tracer.close()
        conn.close()
        if mesh is not None:
            mesh.close()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.runtime.worker '<json config>'",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    return _run(json.loads(argv[0]))


if __name__ == "__main__":
    sys.exit(main())
