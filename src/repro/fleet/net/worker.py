"""``python -m repro fleet-worker`` — the fleet's one worker.

:class:`FleetWorker` takes a cell's lease, rolls the attempt's fault
dice (kill, drop, delay), takes the values from its local cache or
computes them through the *unchanged* engine job path
(:func:`~repro.evaluation.engine._execute_payload`, as every executor
does), and completes back to the broker with them.  A compute that
raises is reported with ``fail`` — the broker retries the cell and
finally dead-letters it with the exception as the reason — and the
worker carries on.  Each :class:`~repro.evaluation.TrialJob` carries
its own seed material, so a cell computed on any worker is
bit-identical to a serial run.

On the wall clock, :meth:`FleetWorker.run` is the ``fleet-worker``
process loop: poll for a lease, heartbeat on a thread while computing,
complete at once; a scheduled kill is ``os._exit`` mid-lease.  On a
:class:`~repro.fleet.clock.ManualClock` the coordinator hands it leases
and steps it on virtual ticks with no threads: it holds each lease for
the cell's simulated duration (1–8 virtual seconds, spanning the
default lease timeout so heartbeats are load-bearing), heartbeats on
ticks, and a scheduled kill leaves it dead until the broker reaps the
lease.  CI forces ``(digest, attempt)`` kill coordinates to murder
exactly one worker process per run and still demand a bit-identical
record.

A local :class:`~repro.evaluation.ResultCache` completes cells it
already holds instantly; a bounded
:class:`~repro.evaluation.EvictionPolicy` keeps long-lived workers from
growing without bound while baseline-pinned digests stay put.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import sys
import threading
import time
import traceback
from typing import List, Optional, Tuple

from ..backoff import BackoffPolicy
from ..broker import Lease
from ..faults import FaultSchedule
from .client import SocketBroker

#: Exit status of a fault-killed worker, distinguishable from crashes.
KILL_EXIT_STATUS = 17


def _default_kill() -> None:  # pragma: no cover - exercised in subprocesses
    """Die the way a faulted machine dies: no cleanup, no goodbye."""
    os._exit(KILL_EXIT_STATUS)


class FleetWorker:
    """One worker: lease, fault dice, cache or compute, complete.

    ``broker`` is any broker (in-process or socket).  ``clock=None``
    runs the wall-clock loop of :meth:`run`; a ManualClock makes a
    worker its coordinator steps (:meth:`_attempt` per lease it hands
    out, :meth:`step` per tick, :meth:`respawn` once the broker reaps a
    dead worker's lease).  ``heartbeat_interval`` (default: a third of
    the lease timeout) must lie strictly between 0, which would hammer
    the broker, and the lease timeout, past which long cells' leases
    expire.  ``on_kill`` is the wall-clock death hook: ``os._exit`` for
    the CLI worker, a soft stop for worker threads in tests — either way
    the lease is abandoned, indistinguishable from death to the broker.
    """

    def __init__(self, broker, *, clock=None, cache=None,
                 faults: Optional[FaultSchedule] = None,
                 poll_interval: float = 0.2,
                 idle_exit: Optional[float] = None,
                 heartbeat_interval: Optional[float] = None,
                 retry: Optional[BackoffPolicy] = None,
                 on_kill=None, label: str = "worker"):
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, "
                             f"got {poll_interval}")
        interval = (broker.lease_timeout / 3.0 if heartbeat_interval is None
                    else float(heartbeat_interval))
        if not 0 < interval < broker.lease_timeout:
            raise ValueError(f"heartbeat_interval must be > 0 and below "
                             f"the lease timeout {broker.lease_timeout}, "
                             f"got {heartbeat_interval}")
        self.broker = broker
        self.clock = clock
        self.cache = cache
        self.faults = faults if faults is not None else FaultSchedule()
        self.poll_interval = float(poll_interval)
        self.idle_exit = idle_exit
        self.heartbeat_interval = interval
        #: Backoff between lease polls while the broker is unreachable
        #: — a worker outlives broker downtime instead of exiting.
        self.retry = (retry if retry is not None
                      else BackoffPolicy(base=0.2, factor=2.0, cap=5.0,
                                         jitter=0.1))
        self.on_kill = on_kill if on_kill is not None else _default_kill
        self.label = label
        self.leased = 0
        self.completed = 0
        self.dropped = 0
        self.killed = 0
        self.failed = 0
        self.cache_hits = 0
        self.broker_retries = 0
        self.abandoned = 0
        #: The lease being worked on, and whether the worker died holding
        #: it.  A stepped worker holds its lease across ticks.
        self.held: Optional[Lease] = None
        self.dead = False
        self._result: Tuple = (None, None)  # (values, elapsed)
        self._finish_at = 0.0
        self._next_beat = 0.0
        self._quiet = False
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the run loop to exit after the current lease settles."""
        self._stop.set()

    def _now(self) -> float:
        """The worker's time: virtual when stepped, else wall seconds."""
        return self.clock.now() if self.clock is not None else time.time()

    @staticmethod
    def _duration(key: str) -> float:
        """A cell's simulated compute time on a ManualClock: 1–8 seconds.

        Deterministic per digest, independent of the fault seed, and
        spanning the default lease timeout so heartbeats are
        load-bearing.
        """
        word = hashlib.blake2b(f"duration\x1f{key}".encode("utf-8"),
                               digest_size=8).digest()
        return 1.0 + int.from_bytes(word, "little") % 8

    def run(self) -> int:
        """Lease and compute until stopped or idle; returns cells leased.

        The wall-clock process loop.  An unreachable broker does not
        kill the worker: lease polls are retried under the seeded
        :attr:`retry` backoff (counted in :attr:`broker_retries`) until
        the broker returns — restarted from its journal, redelivering
        idempotently — or ``idle_exit`` elapses.
        """
        idle_since = time.time()
        outages = 0
        while not self._stop.is_set():
            try:
                lease = self.broker.lease(time.time())
            except (ConnectionError, OSError):
                self.broker_retries += 1
                if (self.idle_exit is not None
                        and time.time() - idle_since >= self.idle_exit):
                    break
                self._stop.wait(self.retry.delay("lease", min(outages, 60)))
                outages += 1
                continue
            outages = 0
            if lease is None:
                if (self.idle_exit is not None
                        and time.time() - idle_since >= self.idle_exit):
                    break
                self._stop.wait(self.poll_interval)
                continue
            idle_since = time.time()
            if not self._attempt(lease):
                # The kill hook declined to die for real (a test double):
                # abandon the lease exactly as a dead process would.
                break
        return self.leased

    # -- one attempt ---------------------------------------------------------

    def _attempt(self, lease: Lease) -> bool:
        """Run one leased attempt; ``False`` means "this worker died".

        Every worker's one path: fault dice, then the values (cache or
        compute), then the completion.  On the wall clock the completion
        follows the compute at once; a stepped worker holds the lease
        for the cell's simulated duration and completes from
        :meth:`step`.
        """
        self.leased += 1
        self.held = lease
        if self.faults.kill_worker(lease.key, lease.attempt):
            self.killed += 1
            self.dead = True
            self._say("killed mid-lease", lease)
            if self.clock is None:
                self.on_kill()
            return False
        quiet = self.faults.delay_heartbeat(lease.key, lease.attempt)
        try:
            self._result = self._compute(lease, beat=not quiet)
        except Exception as exc:  # noqa: BLE001 - becomes the dead letter
            self._fail(lease, f"{type(exc).__name__}: {exc}")
            return True
        now = self._now()
        if self.clock is None:
            self._finish(now)
        else:
            self._finish_at = now + self._duration(lease.key)
            self._next_beat = now + self.heartbeat_interval
            self._quiet = quiet
        return True

    def step(self, now: float) -> None:
        """Move a stepped worker to ``now``: finish its lease, or beat.

        The held lease completes once its simulated duration is up;
        until then heartbeats go out when due, unless the delay dice
        suppressed them.  A dead worker does nothing.
        """
        if self.held is None or self.dead:
            return
        if now >= self._finish_at:
            self._finish(now)
        elif now >= self._next_beat:
            if not self._quiet:
                self.broker.heartbeat(self.held.lease_id, now)
            self._next_beat = now + self.heartbeat_interval

    def respawn(self) -> None:
        """Come back idle after dying: the broker reaped the dead lease."""
        self.held = None
        self.dead = False

    def _finish(self, now: float) -> None:
        """Complete the held attempt, unless the drop dice lose it."""
        lease, (values, elapsed) = self.held, self._result
        self.held = None
        if self.faults.drop_completion(lease.key, lease.attempt):
            # The completion message is "lost in transit": never sent.
            # The lease dangles until the broker reaps it and retries.
            self.dropped += 1
            self._say("dropped completion", lease)
            return
        try:
            status = self.broker.complete(lease.lease_id, now,
                                          values=values, elapsed=elapsed)
        except (ConnectionError, OSError, KeyError):
            # The broker stayed unreachable past the client's reconnect
            # window (or restarted without this lease — pre-journal or
            # post-reset).  Abandon the attempt: the protocol repairs it
            # like any dropped completion, by expiry and retry.
            self.abandoned += 1
            self._say("abandoned completion", lease, "(broker unreachable)")
            return
        if status in ("completed", "late"):
            self.completed += 1

    def _fail(self, lease: Lease, reason: str) -> None:
        """Report a raising compute; the broker retries or buries it.

        Called while the exception is being handled, so a worker process
        logs its traceback too.
        """
        self.held = None
        self.failed += 1
        self._say("failed", lease, reason)
        if self.clock is None:
            traceback.print_exc()
        try:
            self.broker.fail(lease.lease_id, self._now(), reason=reason)
        except (ConnectionError, OSError, KeyError):
            # Unreported, the lease expires and the cell retries anyway.
            self.abandoned += 1

    def _say(self, event: str, lease: Lease, note: str = "") -> None:
        """One log line about an attempt, on the wall clock only.

        A stepped worker runs inside its coordinator's process, whose
        output is the caller's; its events surface in the coordinator's
        counters and dead letters instead.
        """
        if self.clock is None:
            print(f"[{self.label}] {event} cell={lease.key} "
                  f"attempt={lease.attempt}" + (f" {note}" if note else ""),
                  flush=True)

    def _compute(self, lease: Lease, beat: bool
                 ) -> Tuple[List[float], Optional[float]]:
        """The cell's values: from the local cache, or freshly computed.

        On the wall clock fresh computation runs under a heartbeat
        thread beating every :attr:`heartbeat_interval` seconds (unless
        ``beat`` is false), so a slow cell's lease stays alive exactly
        as long as this process does.  A stepped worker beats from
        :meth:`step` instead.
        """
        point, job = lease.payload
        if self.cache is not None:
            cached = self.cache.get(job)
            if cached is not None:
                self.cache_hits += 1
                return cached, None
        beat_stop = threading.Event()
        beater = None
        if beat and self.clock is None:
            beater = threading.Thread(
                target=self._beat, args=(lease, beat_stop), daemon=True,
                name=f"repro-heartbeat-{lease.lease_id}")
            beater.start()
        try:
            from ...evaluation.engine import _execute_payload
            values, elapsed = _execute_payload((point, job))
        finally:
            if beater is not None:
                beat_stop.set()
                beater.join(timeout=5.0)
        if self.cache is not None:
            self.cache.put(job, values)
        return values, elapsed

    def _beat(self, lease: Lease, stop: threading.Event) -> None:
        """Wall-clock heartbeats for one lease until ``stop`` is set."""
        while not stop.wait(self.heartbeat_interval):
            try:
                if not self.broker.heartbeat(lease.lease_id, time.time()):
                    return  # lease gone; the broker moved on
            except (OSError, ConnectionError):
                return


# ---------------------------------------------------------------------------
# CLI entry point.
# ---------------------------------------------------------------------------

def _positive_seconds(text: str) -> float:
    """A ``--heartbeat-interval`` value: seconds, strictly positive."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seconds, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _parse_coordinate(text: str) -> Tuple[str, int]:
    """A forced-fault flag value ``DIGEST:ATTEMPT`` as a tuple."""
    digest, sep, attempt = text.rpartition(":")
    if not sep or not digest:
        raise argparse.ArgumentTypeError(
            f"expected DIGEST:ATTEMPT, got {text!r}")
    try:
        return digest, int(attempt)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"attempt must be an integer in {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet-worker",
        description="Lease and compute fleet cells from a socket broker.")
    parser.add_argument("--broker", metavar="HOST:PORT",
                        default=os.environ.get("REPRO_FLEET_BROKER"),
                        help="broker address (default: $REPRO_FLEET_BROKER)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="local cell cache directory")
    parser.add_argument("--baselines", metavar="DIR", default=None,
                        help="committed baseline records whose cell digests "
                             "are pinned against cache eviction")
    parser.add_argument("--cache-max-cells", type=int, default=None,
                        metavar="N", help="evict the local cache down to N "
                                          "cells (LRU, pins exempt)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="B", help="evict the local cache down to B "
                                          "bytes (LRU, pins exempt)")
    parser.add_argument("--cache-max-age", type=float, default=None,
                        metavar="S", help="evict unpinned cells older than "
                                          "S seconds")
    parser.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="seconds between lease polls when idle")
    parser.add_argument("--reconnect-timeout", type=float, default=30.0,
                        metavar="S", help="per-call window to ride out an "
                                          "unreachable broker before a poll "
                                          "counts as failed (polls then "
                                          "retry with backoff)")
    parser.add_argument("--idle-exit", type=float, default=None, metavar="S",
                        help="exit after S continuous seconds without work")
    parser.add_argument("--heartbeat-interval", type=_positive_seconds,
                        default=None, metavar="S",
                        help="override the lease_timeout/3 heartbeat "
                             "cadence (0 < S < lease timeout)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the probabilistic fault coins")
    parser.add_argument("--kill-rate", type=float, default=0.0,
                        help="probability of dying mid-lease per attempt")
    parser.add_argument("--drop-rate", type=float, default=0.0,
                        help="probability of losing a completion per attempt")
    parser.add_argument("--kill", action="append", default=[],
                        type=_parse_coordinate, metavar="DIGEST:ATTEMPT",
                        help="die mid-lease at this exact coordinate "
                             "(repeatable)")
    parser.add_argument("--drop", action="append", default=[],
                        type=_parse_coordinate, metavar="DIGEST:ATTEMPT",
                        help="lose the completion at this exact coordinate "
                             "(repeatable)")
    return parser


def _graceful_exit(signum, frame):  # pragma: no cover - signal path
    """SIGTERM handler: unwind through the finally blocks and exit 0."""
    raise SystemExit(0)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one worker process against a broker until idle or SIGTERM/Ctrl-C.

    Both signals shut down cleanly: the exit line is printed, the
    broker connection is closed, and the process exits 0.
    """
    args = _build_parser().parse_args(argv)
    if not args.broker:
        print("error: no broker address (pass --broker HOST:PORT or set "
              "REPRO_FLEET_BROKER)", file=sys.stderr)
        return 2
    cache = None
    if args.cache:
        from ...evaluation import EvictionPolicy, ResultCache
        pinned = set()
        if args.baselines:
            from ...results import baseline_digests
            pinned = baseline_digests(args.baselines)
        eviction = None
        if (args.cache_max_cells is not None
                or args.cache_max_bytes is not None
                or args.cache_max_age is not None):
            eviction = EvictionPolicy(max_cells=args.cache_max_cells,
                                      max_bytes=args.cache_max_bytes,
                                      max_age_seconds=args.cache_max_age)
        cache = ResultCache(args.cache, eviction=eviction, pinned=pinned)
    faults = FaultSchedule(seed=args.fault_seed, kill_rate=args.kill_rate,
                           drop_rate=args.drop_rate,
                           kill=frozenset(args.kill),
                           drop=frozenset(args.drop))
    try:
        broker = SocketBroker(args.broker,
                              reconnect_timeout=args.reconnect_timeout)
    except (OSError, ConnectionError, ValueError) as exc:
        print(f"error: cannot reach broker at {args.broker}: {exc}",
              file=sys.stderr)
        return 1
    label = f"worker:{os.getpid()}"
    try:
        worker = FleetWorker(broker, cache=cache, faults=faults,
                             poll_interval=args.poll,
                             idle_exit=args.idle_exit,
                             heartbeat_interval=args.heartbeat_interval,
                             label=label)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        broker.close()
        return 2
    print(f"[{label}] polling broker {args.broker} "
          f"lease_timeout={broker.lease_timeout}", flush=True)
    signal.signal(signal.SIGTERM, _graceful_exit)
    try:
        worker.run()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        print(f"[{label}] exiting leased={worker.leased} "
              f"completed={worker.completed} dropped={worker.dropped} "
              f"failed={worker.failed} abandoned={worker.abandoned} "
              f"broker_retries={worker.broker_retries} "
              f"cache_hits={worker.cache_hits}", flush=True)
        broker.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the smoke CI job
    raise SystemExit(main())
