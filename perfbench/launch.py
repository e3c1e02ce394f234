"""Start one process of the system under test, optionally traced.

    python3 perfbench/launch.py ARGS...                  # python -m repro ARGS
    python3 perfbench/launch.py --trace OUT.json ARGS... # the same, traced
    python3 perfbench/launch.py --probe                  # import repro, exit

The benchmark starts every ``repro`` process (CLI runs, ``serve``,
``broker``, ``fleet-worker``) through this file.  Untraced, it puts the
checkout's ``src`` on the path, exactly as ``PYTHONPATH=src python -m
repro`` from the checkout root would, and calls :func:`repro.cli.main`.
Traced, it first installs the span wrappers of :mod:`perfbench.layers`
and writes the span aggregates to OUT when the process exits.  SIGTERM
— how the benchmark stops servers, brokers and workers — unwinds the
program like Ctrl-C, so the aggregates are written then too.
"""

import atexit
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv):
    # Replace the script's own directory: the program under test must
    # not see the benchmark's modules as top-level names.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    if argv[:1] == ["--probe"]:
        import repro  # noqa: F401 - the import is what is timed
        return 0
    if argv[:1] == ["--trace"]:
        out, argv = argv[1], argv[2:]
        # Load every module a layer lives in before wrapping, including
        # the ones the CLI imports lazily per subcommand.
        import repro.cli  # noqa: F401
        import repro.fleet.net.executor  # noqa: F401
        import repro.fleet.net.server  # noqa: F401
        import repro.fleet.net.worker  # noqa: F401
        import repro.server.http  # noqa: F401
        from perfbench import layers, tracing
        tracer = tracing.Tracer(keep_samples=layers.keep_samples)
        tracing.install(tracer, layers.targets())
        atexit.register(tracer.dump, out)
    signal.signal(signal.SIGTERM, _interrupt)
    from repro.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
