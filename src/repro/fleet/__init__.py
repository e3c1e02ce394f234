"""Fault-tolerant work-queue executor (``--executor fleet``).

One coordinator (:class:`FleetExecutor`) enqueues digest-addressed
:class:`~repro.evaluation.TrialJob` cells onto a broker; N copies of
one worker (:class:`~repro.fleet.net.worker.FleetWorker`) lease,
heartbeat, compute, and complete them.  Lost workers, lost
completions, duplicated deliveries, and raising cells are absorbed by
protocol — lease expiry or explicit failure, capped-exponential
requeue, bounded retries, dead letters, idempotent completion.  The
broker (in-process, or a socket server) and the clock (a
:class:`ManualClock` stepping in-process workers, or the wall clock
with worker processes) are the only differences between transports,
so every failure mode is exercised deterministically in tier-1 tests
on virtual time under a seeded fault schedule.  Broker death itself
is recoverable through the write-ahead
:class:`~repro.fleet.journal.Journal`: every mutation is logged before
it is applied and :func:`~repro.fleet.journal.replay_journal` rebuilds
the broker bit-for-bit on restart.  See ``docs/engine.md`` ("Fleet
executor") for the protocol and state diagram.
"""

from .backoff import BackoffPolicy
from .broker import (
    DEAD,
    DONE,
    LEASED,
    QUEUED,
    BrokerBusyError,
    DeadLetter,
    InProcessBroker,
    Lease,
)
from .clock import ManualClock
from .executor import FleetError, FleetExecutor, FleetOptions, FleetStats
from .faults import FaultSchedule
from .journal import Journal, JournalError, read_journal, replay_journal

__all__ = [
    "BackoffPolicy",
    "BrokerBusyError",
    "DEAD",
    "DONE",
    "DeadLetter",
    "FaultSchedule",
    "FleetError",
    "FleetExecutor",
    "FleetOptions",
    "FleetStats",
    "InProcessBroker",
    "Journal",
    "JournalError",
    "LEASED",
    "Lease",
    "ManualClock",
    "QUEUED",
    "read_journal",
    "replay_journal",
]
