"""The fleet coordinator: one broker, N leased workers, one settle loop.

:class:`FleetExecutor` satisfies the engine's executor contract — its
``run(payloads)`` returns one cell result per payload, in payload order
— but instead of a pool it drives a work queue: every cell is enqueued
on a broker keyed by its job digest, and
:class:`~repro.fleet.net.worker.FleetWorker`\\ s lease, compute (through
the same :func:`~repro.evaluation.engine._execute_payload` as every
other executor), heartbeat, and complete it with its values, which the
coordinator reads back from the broker.  Lost workers, lost
completions, duplicated deliveries and raising cells are recovered by
protocol (expire or fail → backoff → requeue → dead-letter).

Only the broker and the clock differ between transports: without
``FleetOptions.broker`` each run gets a fresh
:class:`~repro.fleet.broker.InProcessBroker` and the coordinator steps
``n_workers`` in-process workers on a
:class:`~repro.fleet.clock.ManualClock`, with no threads; with it each
run resets the socket broker at that address and, on the wall clock,
``python -m repro fleet-worker`` processes compute.  On virtual time
every injected fault is a pure function of the
:class:`~repro.fleet.faults.FaultSchedule` seed and the cell digest, so
the same grid under the same schedule gives the same leases, expiries,
retries and dead letters on either broker — tier-1 tests assert on
failure modes instead of hoping for them.  Values are bit-identical to
serial throughout, because every :class:`~repro.evaluation.TrialJob`
carries its own seed material.

Cells the fleet could not complete (retry exhaustion) are returned as
placeholder values with ``cacheable=False`` so the engine never
persists them; their provenance lands in :attr:`FleetExecutor.dead_letters`
for the run record.  Set ``dead_letter_policy="raise"`` to fail the
run instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ReproError
from .backoff import BackoffPolicy
from .broker import DEAD, DONE, InProcessBroker
from .clock import ManualClock
from .faults import FaultSchedule

#: Virtual seconds between coordinator rounds on a ManualClock.
TICK = 1.0


class FleetError(ReproError, RuntimeError):
    """The fleet could not finish a grid (dead letters under ``raise``,
    a run that did not settle in time, or a coordinator bug)."""


@dataclass(frozen=True)
class FleetOptions:
    """Tuning knobs for one fleet: pool size, lease policy, faults.

    The defaults describe the CI fleet: 4 workers, a 5-virtual-second
    lease kept alive by heartbeats every third of it, 3 attempts per
    cell, and no injected faults.  Simulated cell durations span 1–8
    virtual seconds, so under the defaults long cells genuinely depend
    on their heartbeats — suppressing them (``FaultSchedule.delay``)
    expires a lease mid-compute, exactly the failure the protocol must
    absorb.
    """

    n_workers: int = 4
    lease_timeout: float = 5.0
    max_attempts: int = 3
    backoff: BackoffPolicy = BackoffPolicy()
    faults: FaultSchedule = FaultSchedule()
    #: ``"record"`` returns placeholder cells (``cacheable=False``) and
    #: surfaces dead letters in stats/records; ``"raise"`` aborts.
    dead_letter_policy: str = "record"
    #: ``HOST:PORT`` of a networked broker server.  When set, every run
    #: resets the socket broker there instead of opening an in-process
    #: one, and — unless the executor is handed a ManualClock — real
    #: ``fleet-worker`` processes compute, so ``n_workers``/``faults``
    #: describe nothing: the worker processes bring their own.
    broker: Optional[str] = None
    #: Wall-clock coordinator poll cadence (seconds between
    #: expire/settle sweeps) and per-``run`` wall-clock budget.
    poll_interval: float = 0.2
    run_timeout: float = 600.0
    #: How long one remote broker call rides out unreachability
    #: (reconnecting under seeded backoff) before surfacing
    #: ``ConnectionError`` — the window a journalled broker has to
    #: restart unnoticed.
    reconnect_timeout: float = 30.0

    def __post_init__(self):
        """Validate pool and timing parameters."""
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, "
                             f"got {self.lease_timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.dead_letter_policy not in ("record", "raise"):
            raise ValueError(f"dead_letter_policy must be 'record' or "
                             f"'raise', got {self.dead_letter_policy!r}")
        if self.poll_interval <= 0 or self.run_timeout <= 0:
            raise ValueError("poll_interval and run_timeout must be > 0")
        if self.reconnect_timeout <= 0:
            raise ValueError(f"reconnect_timeout must be > 0, "
                             f"got {self.reconnect_timeout}")
        if self.broker is not None:
            # Validate the HOST:PORT shape eagerly — a typo should fail
            # at option construction, not mid-run inside a socket call.
            from .net.protocol import parse_address
            parse_address(self.broker)


@dataclass
class FleetStats:
    """Observable fleet counters, mergeable across runs and cores.

    ``leased``/``completed``/``retried``/``dead`` are the headline
    counters surfaced by ``/stats`` and ``cache stats --json``; the
    rest pin the fault machinery in tests (a chaos run must show its
    kills and duplicates, or the schedule silently did nothing).
    ``reconnects`` (client re-connections after I/O loss) and
    ``replayed`` (journal mutations a restarted broker rebuilt from)
    are the recovery counters — nonzero means a run rode out broker
    downtime.
    """

    enqueued: int = 0
    leased: int = 0
    duplicated: int = 0
    heartbeats: int = 0
    completed: int = 0
    duplicates: int = 0
    late: int = 0
    expired: int = 0
    retried: int = 0
    dead: int = 0
    killed: int = 0
    dropped: int = 0
    reconnects: int = 0
    replayed: int = 0

    def merge(self, other: "FleetStats") -> None:
        """Accumulate another stats object into this one."""
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain JSON-ready mapping."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def active(self) -> bool:
        """Whether this fleet has done any work at all."""
        return any(getattr(self, spec.name) for spec in fields(self))


class FleetExecutor:
    """The fleet's one coordinator: enqueue, settle, read back in order.

    Satisfies the engine's executor protocol (``run(payloads)`` →
    one ``(values, elapsed, cacheable)`` triple per payload, in payload
    order), so it drops into :func:`~repro.evaluation.run_grid`,
    :meth:`PanelDef.run <repro.experiments.catalog.PanelDef.run>`, and
    :class:`~repro.service.ServiceCore` unchanged.  Results are
    bit-identical to :class:`~repro.evaluation.SerialExecutor` —
    including under injected faults — because jobs carry their own seed
    material and completion is idempotent per digest.

    ``clock`` defaults to a fresh :class:`~repro.fleet.clock.ManualClock`
    when ``options.broker`` is unset and to the wall clock (``None``)
    when it is set; pass a ManualClock with a broker address to step
    in-process workers over the socket broker.

    One instance accumulates :attr:`stats` and :attr:`dead_letters`
    across its ``run`` calls; the service tier creates one per recorded
    run so the totals describe exactly that record.
    """

    def __init__(self, options: Optional[FleetOptions] = None,
                 clock: Optional[ManualClock] = None):
        self.options = options if options is not None else FleetOptions()
        if clock is None and self.options.broker is None:
            clock = ManualClock()
        #: Virtual time for stepped in-process workers, or ``None``:
        #: wall time, with the workers in their own processes.
        self.clock = clock
        self.stats = FleetStats()
        self.dead_letters: List[Dict[str, object]] = []

    # -- executor protocol ---------------------------------------------------

    def run(self, payloads: Sequence[Tuple]) -> List[Tuple]:
        """Drive every payload through the fleet; results in payload order.

        Unlike the streaming pool executors this returns a fully
        materialised list: under faults a cell's completion order is a
        scheduling artifact, so the fleet settles the whole grid before
        handing anything back.
        """
        if not payloads:
            return []
        broker = self._open_broker()
        try:
            order: List[str] = []
            jobs: Dict[str, object] = {}
            for point, job in payloads:
                order.append(job.digest)
                if broker.enqueue(job.digest, (point, job)):
                    jobs[job.digest] = job
            workers = self._spawn_workers(broker)
            self._await_settled(broker, workers, len(jobs))
            return self._settle(broker, workers, order, jobs)
        finally:
            if self.options.broker is not None:
                self.stats.reconnects += broker.reconnects
                broker.close()

    def _open_broker(self):
        """A fresh broker for one run: in-process, or the socket one reset.

        The reset makes counters and dead letters describe exactly this
        run; stale state from a previous run can never satisfy (or
        block) this one.
        """
        opts = self.options
        policy = dict(lease_timeout=opts.lease_timeout,
                      max_attempts=opts.max_attempts, backoff=opts.backoff)
        if opts.broker is None:
            return InProcessBroker(**policy)
        # Imported lazily: the socket tier is dead weight in-process.
        from .net.client import SocketBroker
        return SocketBroker(opts.broker, reset=True,
                            reconnect_timeout=opts.reconnect_timeout,
                            **policy)

    def _spawn_workers(self, broker) -> list:
        """The in-process workers a ManualClock run steps; none otherwise."""
        if self.clock is None:
            return []
        from .net.worker import FleetWorker
        return [FleetWorker(broker, clock=self.clock,
                            faults=self.options.faults)
                for _ in range(self.options.n_workers)]

    # -- settling ------------------------------------------------------------

    def _await_settled(self, broker, workers: list, n_cells: int) -> None:
        """Step, reap and wait until every cell is DONE or DEAD.

        One loop for both clocks: lease queued cells onto idle
        in-process workers, move the clock on (one :data:`TICK`, a jump
        to the next backoff release when every worker is idle, or a
        ``poll_interval`` sleep on the wall clock), step the workers,
        and reap expired leases — load-bearing on the wall clock, where
        nobody else reaps the leases of dead worker processes.  A broker
        unreachable past its client's ``reconnect_timeout`` is waited
        out, so one restarted from its journal resumes the run.  One
        guard bounds the loop on the run's own clock: ``run_timeout``
        wall seconds, or a virtual span no correct run reaches (200
        ticks plus a full backoff hold per attempt).
        """
        opts = self.options
        if self.clock is None:
            budget = opts.run_timeout
        else:
            attempts = n_cells * opts.max_attempts
            budget = ((1000 + 200 * attempts) * TICK
                      + attempts * opts.backoff.cap)
        deadline = self._now() + budget
        twins: List[str] = []
        while True:
            now = self._now()
            try:
                if broker.outstanding() == 0:
                    return
                if now >= deadline:
                    raise self._stalled(n_cells, budget)
                busy = self._dispatch(broker, workers, now, twins)
                if workers and not busy:
                    # Everything queued is on a backoff hold: jump
                    # straight to the next release instead of ticking.
                    hold = broker.next_eligible()
                    if hold is not None and hold > now:
                        self.clock.advance(hold - now)
                        continue
                now = self._advance()
                for worker in workers:
                    worker.step(now)
                reaped = set(broker.expire(now))
                for worker in workers:
                    if worker.dead and worker.held.lease_id in reaped:
                        # The broker noticed the death; respawn the worker.
                        worker.respawn()
            except (ConnectionError, OSError) as exc:
                if self._now() >= deadline:
                    raise self._stalled(n_cells, budget, exc) from exc
                self._advance()

    def _dispatch(self, broker, workers: list, now: float,
                  twins: List[str]) -> bool:
        """Lease cells onto idle in-process workers; whether any is busy.

        Duplicate deliveries the fault schedule demands wait in
        ``twins`` and are served ahead of fresh leases the moment a
        worker is idle — as long as the original attempt is still in
        flight (a cell that completed first simply never gets its twin,
        like a real redelivery racing completion).
        """
        def idle():
            return next((w for w in workers if w.held is None), None)

        worker = idle()
        while worker is not None and twins:
            twin = broker.duplicate_lease(twins.pop(0), now)
            if twin is not None:
                worker._attempt(twin)
                worker = idle()
        while worker is not None:
            lease = broker.lease(now)
            if lease is None:
                break
            worker._attempt(lease)
            if self.options.faults.duplicate_delivery(lease.key,
                                                      lease.attempt):
                twins.append(lease.key)
            worker = idle()
        return any(w.held is not None for w in workers)

    def _now(self) -> float:
        """The run's time: virtual on a ManualClock, else wall seconds."""
        return self.clock.now() if self.clock is not None else time.time()

    def _advance(self) -> float:
        """Move the run's clock on by one round; the new time."""
        if self.clock is not None:
            return self.clock.advance(TICK)
        time.sleep(self.options.poll_interval)
        return time.time()

    def _stalled(self, n_cells: int, budget: float,
                 cause: Optional[BaseException] = None) -> FleetError:
        """The error for a run that outlived its budget."""
        if self.clock is not None:
            hint = " of virtual time; this is a coordinator bug"
        elif cause is not None:
            hint = f": broker at {self.options.broker} unreachable ({cause})"
        else:
            hint = (f" (are any workers running against "
                    f"{self.options.broker}?)")
        return FleetError(f"fleet did not settle {n_cells} cells within "
                          f"{budget:g}s{hint}")

    def _settle(self, broker, workers: list, order: Sequence[str],
                jobs: Dict[str, object]) -> List[Tuple]:
        """Fold a settled run into the telemetry; cells in payload order.

        Completed keys become ``(values, elapsed, cacheable=True)`` cells
        read back from the broker, dead-lettered keys uncacheable
        placeholders (or a :class:`FleetError` under
        ``dead_letter_policy="raise"``), and a key in neither state is a
        coordinator bug worth crashing on.
        """
        for name, value in broker.counters.items():
            setattr(self.stats, name, getattr(self.stats, name) + value)
        self.stats.killed += sum(worker.killed for worker in workers)
        self.stats.dropped += sum(worker.dropped for worker in workers)
        letters = {}
        for letter in broker.dead_letters:
            letters[letter.key] = letter
            job = jobs[letter.key]
            self.dead_letters.append({
                "digest": letter.key,
                "series_value": job.series_value,
                "sweep_value": job.sweep_value,
                "attempts": letter.attempts,
                "reason": letter.reason,
            })
        out: List[Tuple] = []
        for key in order:
            state = broker.state(key)
            if state == DONE:
                result = broker.result(key)
                if result is None:
                    raise FleetError(f"cell {key} completed without "
                                     f"shipping its values")
                values, elapsed = result
                out.append((list(values), elapsed, True))
            elif state == DEAD:
                if self.options.dead_letter_policy == "raise":
                    raise FleetError(f"cell {key} dead-lettered: "
                                     f"{letters[key].reason}")
                # Placeholder values, never cached: the run completes
                # and records the loss instead of poisoning the cache.
                out.append(([0.0] * jobs[key].n_trials, None, False))
            else:
                raise FleetError(f"cell {key} still {state!r} after the "
                                 f"fleet settled; this is a coordinator bug")
        return out

    # -- record/stats payloads ----------------------------------------------

    def record_payload(self) -> Dict[str, object]:
        """The ``fleet`` key for a run record: counters + dead letters.

        Environment metadata like ``timings``: excluded from ``run_id``,
        emitted only for fleet-executed runs, so every other record
        round-trips byte-for-byte unchanged.
        """
        payload: Dict[str, object] = {"counters": self.stats.as_dict()}
        if self.dead_letters:
            payload["dead_letters"] = [dict(d) for d in self.dead_letters]
        return payload
