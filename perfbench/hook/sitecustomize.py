"""Start-up hook that traces live workers and serve job hosts.

The benchmark's traced run puts this directory on ``PYTHONPATH`` and names
a dump directory in ``PERFBENCH_TRACE_DIR``.  ``run_live`` and the serve
lanes copy the environment into every ``python -m`` child they spawn, so
each child imports this module at start-up, before ``repro.runtime.worker``
or ``repro.serve.jobhost`` binds ``write_spool``, ``message_from_frame``
and the other names the tracer patches.  The child's span totals are
written to the dump directory when the interpreter exits.  Without the
variable the hook does nothing.
"""

import os


def _load(name: str):
    import importlib.util
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _install(dump_dir: str) -> None:
    import atexit
    import signal
    import sys

    spans = _load("spans")
    layers = _load("layers")
    tracer = spans.Tracer("child")
    layers.install_runtime(tracer, child=True)

    def dump() -> None:
        # a serve lane sends its hosts "shutdown" and SIGTERM at once; the
        # children's SIGTERM handler raises SystemExit, which must not cut
        # the dump short when the frame won the race
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        main = os.path.basename(sys.argv[0]) if sys.argv else ""
        tracer.role = {"worker.py": "worker",
                       "jobhost.py": "jobhost"}.get(main, "child")
        tracer.dump(dump_dir)

    atexit.register(dump)


if os.environ.get("PERFBENCH_TRACE_DIR"):
    _install(os.environ["PERFBENCH_TRACE_DIR"])
