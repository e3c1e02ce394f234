"""Processes of the system under test: start, wait, stop, peak memory.

Every process is started through ``perfbench/launch.py`` in its own
session, with output to a log file (never a pipe nobody drains), and is
reaped with ``os.wait4`` so its peak resident set comes back with its
exit status.  :class:`Processes` owns them all and stops every one that
is still alive when the benchmark ends, failed run or not, so no orphan
server, broker or worker loads the next run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

LAUNCHER = Path(__file__).resolve().parent / "launch.py"


class Proc:
    """One started process; :meth:`wait` or :meth:`stop` reaps it."""

    def __init__(self, args: List[str], log: Path, trace: Optional[Path],
                 cwd: Path):
        command = [sys.executable, str(LAUNCHER)]
        if trace is not None:
            command += ["--trace", str(trace)]
        self.log = log
        self.trace = trace
        self.returncode: Optional[int] = None
        self.maxrss_kb = 0
        self.started = time.perf_counter()
        with open(log, "wb") as out:
            self.popen = subprocess.Popen(command + list(args), cwd=cwd,
                                          stdout=out,
                                          stderr=subprocess.STDOUT,
                                          stdin=subprocess.DEVNULL,
                                          start_new_session=True)
        self.pid = self.popen.pid

    @property
    def alive(self) -> bool:
        return self.returncode is None

    def _reap(self) -> float:
        _pid, status, usage = os.wait4(self.pid, 0)
        ended = time.perf_counter()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.returncode
        self.maxrss_kb = usage.ru_maxrss
        return ended

    def _signal(self, signum: int) -> None:
        try:
            os.killpg(self.pid, signum)
        except ProcessLookupError:
            pass

    def wait(self, timeout: float) -> float:
        """Block until exit; returns the wall seconds since start.

        A process still running after ``timeout`` seconds is killed, and
        reported through its (negative) :attr:`returncode`.
        """
        timer = threading.Timer(timeout, self._signal, (signal.SIGKILL,))
        timer.start()
        try:
            ended = self._reap()
        finally:
            timer.cancel()
        return ended - self.started

    def stop(self, grace: float = 10.0) -> None:
        """SIGTERM, then SIGKILL after ``grace`` seconds; reap."""
        if not self.alive:
            return
        self._signal(signal.SIGTERM)
        timer = threading.Timer(grace, self._signal, (signal.SIGKILL,))
        timer.start()
        try:
            self._reap()
        finally:
            timer.cancel()

    def output(self) -> str:
        return self.log.read_text(errors="replace")

    def wait_for(self, pattern: str, timeout: float) -> re.Match:
        """Poll the log until ``pattern`` appears; raise if it never does."""
        regex = re.compile(pattern)
        deadline = time.perf_counter() + timeout
        while True:
            match = regex.search(self.output())
            if match:
                return match
            if self.popen.poll() is not None:
                self.returncode = self.popen.returncode
                raise RuntimeError(f"process exited ({self.returncode}) "
                                   f"before {pattern!r}:\n{self.output()}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"no {pattern!r} within {timeout}s:\n"
                                   f"{self.output()}")
            time.sleep(0.002)


class Processes:
    """Starts processes in a work directory and stops them all at the end."""

    def __init__(self, workdir: Path, cwd: Path):
        self.workdir = workdir
        self.cwd = cwd
        self.procs: List[Proc] = []
        self._count = 0

    def spawn(self, args: List[str], traced: bool = False) -> Proc:
        self._count += 1
        stem = self.workdir / f"proc{self._count:03d}"
        proc = Proc(args, Path(f"{stem}.log"),
                    Path(f"{stem}.trace.json") if traced else None, self.cwd)
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        """Stop every process still running; wait until each has ended."""
        for proc in self.procs:
            if proc.alive:
                proc._signal(signal.SIGTERM)
        for proc in self.procs:
            proc.stop()

    def __enter__(self) -> "Processes":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
