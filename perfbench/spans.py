"""In-memory span recorder for the benchmark's traced runs.

A :class:`Tracer` replaces public functions of the program with wrappers
that time each call.  Every wrapper opens a span on the calling thread's
stack; when the call returns, the span's *self time* (its duration minus
the part its child spans cover) is added to its layer.  Self times of one
thread therefore never overlap, and per thread

    sum(layer self times) + other = thread wall time

holds by construction; ``other`` is the time no wrapped call covered.

Spans stay in memory.  A process writes its totals once, as one JSON file
(:meth:`Tracer.dump`), when its traced work ends: at interpreter exit for
live workers and job hosts (see ``hook/sitecustomize.py``), at
``Simulator.finish_windows`` for forked shard children (they leave through
``os._exit``, so no exit handler would run).

The module imports nothing from the program, so the start-up hook can load
it before the program's modules bind the names it patches.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


def _get(owner, attr: str):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _put(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class _ThreadRecord:
    """Span stack and totals of one thread."""

    __slots__ = ("name", "start", "end", "stack", "self_s", "calls", "counts")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end = None
        self.stack: list[float] = []          # child time of each open span
        self.self_s: dict = defaultdict(float)  # layer -> self seconds
        self.calls: dict = defaultdict(int)     # wrapped function -> calls
        self.counts: dict = defaultdict(float)  # counter -> total


class Tracer:
    """Per-process span recorder (see module docstring)."""

    def __init__(self, role: str) -> None:
        self.role = role
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self.series: dict = defaultdict(list)   # name -> ordered values
        self.reset()

    # -- state ---------------------------------------------------------------

    def reset(self, role: str | None = None) -> None:
        """Forget every span; the wall clock restarts now.

        A forked child calls this first: it inherits the parent's totals,
        which are not its own work.
        """
        if role is not None:
            self.role = role
        self.t0 = _clock()
        self._threads: list[_ThreadRecord] = []
        self._local = threading.local()
        self.series = defaultdict(list)
        self._record()   # the calling thread counts from now on

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _ThreadRecord(threading.current_thread().name, self.t0)
            self._local.rec = rec
            with self._lock:
                self._threads.append(rec)
        return rec

    def count(self, name: str, value: float = 1) -> None:
        self._record().counts[name] += value

    # -- patching ------------------------------------------------------------

    def wrap(self, fn, layer: str, key: str, after=None, eager=False):
        """A wrapper of ``fn`` that records a span of ``layer``.

        ``after(tracer, args, result)`` runs outside the span, for counters.
        ``eager`` is for generator functions: the wrapper drains the
        generator inside the span, so the span covers the work, and
        returns an iterator over what it yielded.
        """
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._record()
            stack = rec.stack
            stack.append(0.0)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
                if eager:
                    out = iter(list(out))
            finally:
                dur = _clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                rec.self_s[layer] += dur - child
                rec.calls[key] += 1
            if after is not None:
                after(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch(self, owner, attr: str, layer: str, after=None,
              eager=False, key: str | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``owner`` is a class, a module, or a dict (a dispatch table; then
        ``attr`` is its key).  Calls are counted under ``key``, by default
        ``<owner name>.<attr>``.  For a module function, every loaded
        module of the program that bound the same function object by name
        (``from x import f``) is patched too, so callers that imported it
        early see the wrapper.
        """
        original = _get(owner, attr)
        key = key or f"{getattr(owner, '__name__', owner)}.{attr}"
        wrapper = self.wrap(original, layer, key, after=after, eager=eager)
        self._set(owner, attr, original, wrapper)
        if not isinstance(owner, (type, dict)):
            for mod in list(sys.modules.values()):
                if (mod is not owner and mod is not None
                        and getattr(mod, "__name__", "").startswith("repro")
                        and mod.__dict__.get(attr) is original):
                    self._set(mod, attr, original, wrapper)

    def hook(self, owner, attr: str, before=None, after=None) -> None:
        """Run ``before(tracer, args)`` / ``after(tracer, args, result)``
        around ``owner.attr`` without opening a span (timestamps, counts)."""
        original = _get(owner, attr)
        tracer = self

        def hooked(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            out = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, out)
            return out

        hooked.__wrapped__ = original
        self._set(owner, attr, original, hooked)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value``; :meth:`restore` undoes it."""
        self._set(owner, attr, _get(owner, attr), value)

    def _set(self, owner, attr, original, value) -> None:
        self._patches.append((owner, attr, original))
        _put(owner, attr, value)

    def track_threads(self) -> None:
        """Record the lifetime of every thread started from now on."""
        tracer = self
        original = threading.Thread.__dict__["run"]

        def run(thread):
            rec = tracer._record()
            rec.start = _clock()
            try:
                original(thread)
            finally:
                rec.end = _clock()

        self._set(threading.Thread, "run", original, run)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            _put(owner, attr, original)

    # -- output --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals of this process: per thread wall and self times."""
        now = _clock()
        threads = []
        counts: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        with self._lock:
            records = list(self._threads)
        for rec in records:
            end = rec.end if rec.end is not None else now
            wall = max(0.0, end - max(rec.start, self.t0))
            layers = dict(rec.self_s)
            threads.append({"name": rec.name, "wall_s": wall,
                            "self_s": layers})
            for k, v in layers.items():
                self_s[k] += v
            for k, v in rec.calls.items():
                calls[k] += v
            for k, v in rec.counts.items():
                counts[k] += v
        return {"role": self.role, "ospid": os.getpid(),
                "wall_s": now - self.t0, "threads": threads,
                "self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(counts),
                "series": {k: list(v) for k, v in self.series.items()}}

    def dump(self, directory: str) -> str:
        """Write the snapshot; the file appears whole or not at all, so a
        process killed mid-write leaves no truncated JSON behind."""
        path = os.path.join(directory, f"{self.role}-{os.getpid()}.json")
        with open(path + ".part", "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(path + ".part", path)
        return path


def load_dumps(directory: str) -> list[dict]:
    """Every process snapshot written into ``directory``."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


def thread_seconds(snap: dict) -> float:
    """Wall time of a process summed over its traced threads."""
    return sum(t["wall_s"] for t in snap["threads"])


def other_seconds(snap: dict) -> float:
    """Wall time of a process that no layer's self time covers."""
    return thread_seconds(snap) - sum(snap["self_s"].values())
