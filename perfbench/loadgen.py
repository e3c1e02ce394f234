"""A seeded request mix, sent open-loop or closed-loop over HTTP/1.1.

Open loop: requests have due times drawn from a Poisson process at a
fixed rate, and each request's latency is timed from when it was *due*,
not from when it was sent — so a stall that delays later requests is
charged to them.  At most ``connections`` requests are in flight (the
server closes every connection after one response), so when the server
falls behind, due requests queue in the generator and their wait shows
up in their latency.  How late the generator itself ran is reported
apart: the delay of each request that found a free connection at its
due time.

Closed loop: ``connections`` clients each send the next request as soon
as the previous one completes; completed requests per second is the
capacity at that concurrency.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

#: Request kinds and their share of the mix.  ``record_304`` is a
#: ``GET /records/<stem>`` whose ``If-None-Match`` carries the current
#: ETag, so the server answers 304 without a body.
MIX: Tuple[Tuple[str, float], ...] = (
    ("record", 0.35), ("record_304", 0.15), ("cell", 0.20),
    ("catalog", 0.05), ("run", 0.25))
#: Cards in one :func:`dealer` deck; every share of :data:`MIX` is a
#: whole number of cards.
DECK = 20


@dataclass(frozen=True)
class Request:
    """One request of a schedule: when it is due, what it asks for."""

    due: float
    kind: str
    target: str


def dealer(rng: random.Random, targets: Dict[str, Sequence[str]]
           ) -> Callable[[], Tuple[str, str]]:
    """Endless ``(kind, target)`` draws that follow :data:`MIX` exactly.

    Kinds are dealt from a shuffled deck of :data:`DECK` cards holding
    each kind in proportion to its share, so every :data:`DECK`
    consecutive draws have the mix's exact composition.  A closed loop
    fed this way does the same work per request under every seed, and
    its throughput does not vary with how the seed's draws fell.
    """
    deck: List[str] = []

    def deal() -> Tuple[str, str]:
        if not deck:
            deck.extend(kind for kind, share in MIX
                        for _ in range(round(share * DECK)))
            rng.shuffle(deck)
        kind = deck.pop()
        return kind, rng.choice(list(targets[kind]))
    return deal


def schedule(seed: int, rate: float, duration: float,
             targets: Dict[str, Sequence[str]]) -> List[Request]:
    """Poisson arrivals at ``rate``/s over ``duration`` s, seeded."""
    rng = random.Random(seed)
    kinds = [kind for kind, _ in MIX]
    weights = [share for _, share in MIX]
    due, out = 0.0, []
    while True:
        due += rng.expovariate(rate)
        if due >= duration:
            return out
        kind = rng.choices(kinds, weights)[0]
        out.append(Request(due, kind, rng.choice(list(targets[kind]))))


@dataclass
class Outcome:
    """What happened to one request (times in seconds on one clock)."""

    request: Request
    due: float
    start: float
    end: float
    ok: bool
    #: Whether a connection was free when the request came due.
    free_at_due: bool

    @property
    def latency(self) -> float:
        return self.end - self.due


Send = Callable[[Request], Awaitable[bool]]


async def open_loop(requests: Sequence[Request], send: Send,
                    connections: int) -> List[Outcome]:
    """Send each request at its due time, at most ``connections`` at once.

    Requests go out in due order; one that comes due while every
    connection is busy waits for the next free one.
    """
    t0 = time.perf_counter()
    pending = list(reversed(requests))
    outcomes: List[Outcome] = []

    async def connection():
        free_since = t0
        while pending:
            request = pending.pop()
            due = t0 + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            start = time.perf_counter()
            ok = await send(request)
            end = time.perf_counter()
            outcomes.append(Outcome(request, due, start, end, ok,
                                    free_since <= due))
            free_since = end

    await asyncio.gather(*(connection() for _ in range(connections)))
    outcomes.sort(key=lambda o: o.due)
    return outcomes


async def closed_loop(next_request: Callable[[], Request], send: Send,
                      connections: int, duration: float,
                      count: Optional[int] = None
                      ) -> Tuple[List[Outcome], float]:
    """Back-to-back requests on each connection for ``duration`` s.

    Given ``count``, the loop instead stops once ``count`` requests have
    been sent.  Returns the outcomes and the elapsed wall time, which
    runs until the last request sent has completed.
    """
    t0 = time.perf_counter()
    outcomes: List[Outcome] = []
    sent = 0

    def more() -> bool:
        if count is not None:
            return sent < count
        return time.perf_counter() - t0 < duration

    async def connection():
        nonlocal sent
        while more():
            sent += 1
            request = next_request()
            start = time.perf_counter()
            ok = await send(request)
            outcomes.append(Outcome(request, start, start,
                                    time.perf_counter(), ok, True))

    await asyncio.gather(*(connection() for _ in range(connections)))
    return outcomes, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------

@dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes


async def http(host: str, port: int, method: str, path: str,
               headers: Optional[Dict[str, str]] = None,
               body: bytes = b"") -> Response:
    """One request on a fresh connection; read to EOF (server closes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}",
                f"Content-Length: {len(body)}", "Connection: close"]
        head += [f"{k}: {v}" for k, v in (headers or {}).items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    parsed = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    return Response(status, parsed, payload)


@dataclass
class Expected:
    """What a correct server returns for each target of the mix."""

    #: record stem -> (ETag run_id, manifest bytes on disk)
    records: Dict[str, Tuple[str, bytes]] = field(default_factory=dict)
    #: cell digest -> trial values read straight from the cache directory
    cells: Dict[str, object] = field(default_factory=dict)
    #: bench name -> committed run_id of its record
    runs: Dict[str, str] = field(default_factory=dict)

    def targets(self) -> Dict[str, List[str]]:
        return {"record": sorted(self.records),
                "record_304": sorted(self.records),
                "cell": sorted(self.cells), "catalog": ["catalog"],
                "run": sorted(self.runs)}


def http_sender(host: str, port: int, expected: Expected) -> Send:
    """A :data:`Send` that issues the request and checks the answer.

    A request fails on a transport error, a status other than 2xx/304,
    or a body that differs from what :class:`Expected` says is correct.
    """
    async def send(request: Request) -> bool:
        try:
            if request.kind in ("record", "record_304"):
                run_id, manifest = expected.records[request.target]
                headers = ({"If-None-Match": f'"{run_id}"'}
                           if request.kind == "record_304" else None)
                reply = await http(host, port, "GET",
                                   f"/records/{request.target}", headers)
                if request.kind == "record_304":
                    return reply.status == 304
                return (reply.status == 200 and reply.body == manifest
                        and reply.headers.get("etag") == f'"{run_id}"')
            if request.kind == "cell":
                reply = await http(host, port, "GET",
                                   f"/cells/{request.target}")
                return (reply.status == 200 and json.loads(reply.body)
                        == {"digest": request.target,
                            "values": expected.cells[request.target]})
            if request.kind == "catalog":
                reply = await http(host, port, "GET", "/catalog")
                return reply.status == 200 and b"benches" in reply.body
            reply = await http(host, port, "POST", "/run",
                               body=json.dumps({"name": request.target})
                               .encode())
            return (reply.status == 200 and json.loads(reply.body)["run_id"]
                    == expected.runs[request.target])
        except (OSError, ValueError, KeyError, IndexError):
            return False
    return send
