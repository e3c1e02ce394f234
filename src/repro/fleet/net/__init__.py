"""Networked fleet backend: socket broker, broker server, worker loop.

The fleet of :mod:`repro.fleet` has one coordinator and one worker; this
package holds the worker and the transport that lets it live on another
machine.  The same broker state machine runs behind a TCP socket so
that real worker processes lease, compute, and complete digest-keyed
cells:

* :mod:`~repro.fleet.net.protocol` — the JSON-lines wire protocol, one
  request/response pair per broker method, explicit ``now`` preserved;
* :class:`~repro.fleet.net.server.BrokerServer` — a threaded TCP server
  over one lock-protected :class:`~repro.fleet.broker.InProcessBroker`
  (``python -m repro broker``);
* :class:`~repro.fleet.net.client.SocketBroker` — a client satisfying
  the broker method contract verbatim, which
  :class:`~repro.fleet.executor.FleetExecutor` opens whenever
  ``FleetOptions.broker`` is set;
* :class:`~repro.fleet.net.worker.FleetWorker` — the fleet's one worker:
  stepped on a ManualClock by the coordinator, or the wall-clock process
  loop of ``python -m repro fleet-worker``: lease, heartbeat, compute
  through the unchanged engine job path, complete with the values.

Results remain bit-identical to the serial executor because every
:class:`~repro.evaluation.TrialJob` carries its own seed material and
completion is idempotent per digest — the transport cannot perturb the
values it moves.
"""

from .client import SocketBroker
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import BrokerServer
from .worker import FleetWorker

__all__ = [
    "BrokerServer",
    "FleetWorker",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SocketBroker",
]
