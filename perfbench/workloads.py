"""The two workloads: cold batch runs (serial and on a fleet), a warm server.

Each workload function drives the system through the launcher
(:mod:`perfbench.procs`), checks every operation's output against the
committed records, and returns a :class:`Measurement`.  The end-to-end
figures of a measurement are named as in the benchmark's design notes
(``cli_dpfw_s``, ``serve_peak_p95_ms``, ...); ``run.py`` maps the
headline ones onto the metric names ``BENCHMARK.json`` gates.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import re
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import loadgen
from perfbench.procs import Proc, Processes

#: Benches whose cells the server's cache is warmed with; warm
#: ``POST /run`` requests ask for them.
WARM_BENCHES = {"ablation_truncation_threshold": "ablation_threshold",
                "fig05_lasso_lognormal": "fig05"}

#: Open-loop rates, fixed once and never derived at run time.  The
#: closed-loop capacity of the mix with 2 connections on the 2-vCPU host
#: the benchmark was defined on drifted between about 90 and 300
#: requests/s with the host's speed; the rates are about 1/3 and 2/3 of
#: its slow end, so a slow stretch of the host does not tip the peak
#: phase into saturation, where latency stops measuring the program.
BASE_RPS, PEAK_RPS = 30.0, 60.0
#: The p95 latency the peak phase must meet.
P95_LIMIT_MS = 100.0
#: Concurrent connections of the load generator (= nproc of that host).
CONNECTIONS = 2
#: Turns the serving phases take within one run.
CYCLES = 8
#: Shares of a run's seconds the base, peak and capacity phases take.
#: The gated figure comes from the capacity phase, so it gets most of
#: the run; at ``--seconds 30`` the open-loop phases still draw about
#: 250 requests each, enough for a p95 with ten samples beyond it.
SHARES = {"base": 0.28, "peak": 0.14, "capacity": 0.58}
#: Requests sent back to back, unchecked for time, before any phase.
WARMUP_REQUESTS = 2 * loadgen.DECK
#: Spawn-to-ready repetitions behind each setup_s median.
SETUPS = 3
#: Seconds any single process of the system may take before it is
#: killed and its operation counted as failed.
PROC_TIMEOUT = 150.0


@dataclass
class Measurement:
    """What one workload run measured and checked."""

    figures: Dict[str, float] = field(default_factory=dict)
    #: figure -> number of samples behind it (percentiles, medians)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Seconds of one unit of the workload's work (a batch pass, a
    #: request at capacity); traced over untraced is the
    #: tracing overhead.
    work_s: float = 0.0
    peak_rss_kb: int = 0
    traces: List[Path] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def reaped(self, proc: Proc) -> None:
        self.peak_rss_kb = max(self.peak_rss_kb, proc.maxrss_kb)
        if proc.trace is not None:
            self.traces.append(proc.trace)


@dataclass
class Context:
    """Inputs and places of one benchmark run."""

    root: Path
    seed: int
    seconds: float
    tmp: Path
    procs: Processes
    #: record stem -> committed run_id at the commit under test
    committed: Dict[str, str]

    def fresh(self, prefix: str) -> Path:
        """A new, empty directory under the run's temporary directory."""
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.tmp))


def committed_run_ids(root: Path) -> Dict[str, str]:
    """Every committed record's run_id, by stem."""
    out = {}
    for path in sorted((root / "benchmarks" / "results").glob("*.json")):
        out[path.stem] = json.loads(path.read_text())["run_id"]
    return out


def percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile (nearest rank) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> Optional[float]:
    """The highest of p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (0.95, 0.90, 0.75, 0.50):
        if n - math.ceil(q * n) >= 10:
            return q
    return None


def _record_run_id(path: Path) -> Optional[str]:
    try:
        return json.loads(path.read_text())["run_id"]
    except (OSError, ValueError, KeyError):
        return None


def startup_probe(ctx: Context, m: Measurement) -> float:
    """Spawn-to-exit seconds of ``import repro`` in a fresh interpreter."""
    proc = ctx.procs.spawn(["--probe"])
    wall = proc.wait(PROC_TIMEOUT)
    m.reaped(proc)
    m.check(proc.returncode == 0, f"import probe exit {proc.returncode}")
    return wall


# ---------------------------------------------------------------------------
# serve_warm
# ---------------------------------------------------------------------------

def _post_run(port: int, name: str) -> loadgen.Response:
    return asyncio.run(loadgen.http(
        "127.0.0.1", port, "POST", "/run",
        body=json.dumps({"name": name}).encode()))


def _start_server(ctx: Context, m: Measurement, results: Path, cache: Path,
                  traced: bool):
    """Spawn ``serve`` over a fresh cache and warm it; (proc, port, s)."""
    started = time.perf_counter()
    proc = ctx.procs.spawn(["serve", "--port", "0", "--results-dir",
                            str(results), "--cache", str(cache)], traced)
    port = int(proc.wait_for(r"listening on http://127\.0\.0\.1:(\d+)",
                             PROC_TIMEOUT).group(1))
    for name, stem in WARM_BENCHES.items():
        reply = _post_run(port, name)
        run_id = (json.loads(reply.body).get("run_id")
                  if reply.status == 200 else None)
        m.check(run_id == ctx.committed[stem],
                f"warm-up POST /run {name}: {reply.status} {run_id}")
    return proc, port, time.perf_counter() - started


def _expected(ctx: Context, results: Path, cache: Path) -> loadgen.Expected:
    """The correct answer for every target, read straight from disk."""
    expected = loadgen.Expected()
    for path in sorted(results.glob("*.json")):
        expected.records[path.stem] = (ctx.committed[path.stem],
                                       path.read_bytes())
    for cell in sorted(cache.glob("??/*.json")):
        expected.cells[cell.stem] = json.loads(cell.read_text())
    expected.runs = {name: ctx.committed[stem]
                     for name, stem in WARM_BENCHES.items()}
    return expected


def _phase_figures(m: Measurement, phase: str,
                   outcomes: List[loadgen.Outcome]) -> List[float]:
    """Latency figures of one open-loop phase; returns its latencies."""
    ok = [o for o in outcomes if o.ok]
    m.extra[f"loadgen.{phase}.sent"] = len(outcomes)
    m.extra[f"loadgen.{phase}.succeeded"] = len(ok)
    m.extra[f"loadgen.{phase}.failed"] = len(outcomes) - len(ok)
    for o in outcomes:
        m.check(o.ok, f"{phase} {o.request.kind} {o.request.target}")
    # A failed request misses every latency limit.
    return [o.latency * 1000.0 if o.ok else math.inf for o in outcomes]


def _backlog_grows(turns: List[List[loadgen.Outcome]]) -> bool:
    """Did queueing delay rise from the first to the last quarter of
    a phase's turns, pooled over the turns?"""
    first: List[float] = []
    last: List[float] = []
    for outcomes in turns:
        quarter = len(outcomes) // 4
        waits = [o.start - o.due for o in outcomes]
        first += waits[:quarter]
        last += waits[len(waits) - quarter:]
    if len(first) < 10:
        return False
    return statistics.mean(last) > 2.0 * statistics.mean(first) + 0.010


def serve_warm(ctx: Context, traced: bool) -> Measurement:
    """An open-loop request mix at two fixed rates, then capacity."""
    m = Measurement()
    results = ctx.fresh("results")
    shutil.copytree(ctx.root / "benchmarks" / "results", results,
                    dirs_exist_ok=True)
    setups = []
    for i in range(SETUPS):
        cache = ctx.fresh("cache")
        proc, port, wall = _start_server(ctx, m, results, cache, traced)
        setups.append(wall)
        if i < SETUPS - 1:
            proc.stop()
            m.reaped(proc)
    m.figures["setup_s"] = statistics.median(setups)
    m.samples["setup_s"] = len(setups)
    expected = _expected(ctx, results, cache)
    targets = expected.targets()
    send = loadgen.http_sender("127.0.0.1", port, expected)
    # The phases take turns in short cycles, so each one samples the
    # whole run rather than one stretch of it: the host's speed drifts
    # over seconds, and a phase measured in one block would inherit
    # whichever stretch it fell in.
    turns: Dict[str, List[List[loadgen.Outcome]]] = {"base": [],
                                                     "peak": []}
    deal = loadgen.dealer(random.Random(ctx.seed * 100 + 99), targets)
    done: List[loadgen.Outcome] = []
    outcomes, _ = asyncio.run(loadgen.closed_loop(
        lambda: loadgen.Request(0.0, *deal()), send, CONNECTIONS, 0.0,
        count=WARMUP_REQUESTS))
    done += outcomes
    bursts: List[float] = []
    for cycle in range(CYCLES):
        for index, (phase, rate) in enumerate((("base", BASE_RPS),
                                               ("peak", PEAK_RPS))):
            requests = loadgen.schedule(
                ctx.seed * 100 + cycle * 10 + index, rate,
                SHARES[phase] * ctx.seconds / CYCLES, targets)
            outcomes = asyncio.run(loadgen.open_loop(requests, send,
                                                     CONNECTIONS))
            turns[phase].append(outcomes)
        outcomes, seconds = asyncio.run(loadgen.closed_loop(
            lambda: loadgen.Request(0.0, *deal()), send, CONNECTIONS,
            SHARES["capacity"] * ctx.seconds / CYCLES))
        done += outcomes
        bursts.append(1000.0 * seconds / len(outcomes))
    lateness = []
    tails = {}
    for phase, phase_turns in turns.items():
        outcomes = [o for turn in phase_turns for o in turn]
        latencies = _phase_figures(m, phase, outcomes)
        lateness += [(o.start - o.due) * 1000.0 for o in outcomes
                     if o.free_at_due]
        prefix = "serve" if phase == "base" else "serve_peak"
        q = tail_quantile(len(latencies))
        if phase == "base":
            m.figures["serve_p50_ms"] = statistics.median(latencies)
            m.samples["serve_p50_ms"] = len(latencies)
        if q is not None:
            name = f"{prefix}_p{round(q * 100)}_ms"
            m.figures[name] = tails[phase] = percentile(latencies, q)
            m.samples[name] = len(latencies)
        m.extra[f"loadgen.{phase}.backlog_grew"] = float(
            _backlog_grows(phase_turns))
    m.extra["loadgen.late_p95_ms"] = (percentile(lateness, 0.95)
                                      if lateness else 0.0)
    m.extra["serve.peak_meets_limit"] = float(
        tails.get("peak", math.inf) <= P95_LIMIT_MS
        and not m.extra["loadgen.peak.backlog_grew"])
    for o in done:
        m.check(o.ok, f"capacity {o.request.kind} {o.request.target}")
    m.figures["serve_request_ms"] = statistics.median(bursts)
    m.samples["serve_request_ms"] = len(bursts)
    m.figures["serve_capacity_rps"] = 1000.0 / m.figures["serve_request_ms"]
    m.work_s = m.figures["serve_request_ms"] / 1000.0
    proc.stop()
    m.reaped(proc)
    return m


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

#: The operations of one batch pass: figure -> (catalog bench, record
#: stem, whether it runs on the fleet, extra ``repro run`` arguments).
#: The serial runs are each dominated by a different layer: startup (the
#: short ablation), data generation and truncation (fig07), Catoni and
#: the loss gradients (fig02).  The fleet runs send fig05's cells
#: through the broker and the workers (``--broker`` is added, with a
#: fresh ``--cache``), or through the in-process simulated fleet.
BATCH = {
    "cli_short_s": ("ablation_truncation_threshold", "ablation_threshold",
                    False),
    "cli_sparse_s": ("fig07_sparse_lognormal_noise", "fig07", False),
    "cli_dpfw_s": ("fig02_dpfw_logistic", "fig02", False),
    "fleet_net_s": ("fig05_lasso_lognormal", "fig05", True),
    "fleet_sim_s": ("fig05_lasso_lognormal", "fig05", True),
}

#: The runs of one pass, in the order the seed shuffles.  The networked
#: fleet run goes twice: how its cells fall on the two workers and how
#: its polls line up with their leases make it the least steady
#: operation, so its median is taken over twice the samples.
PASS = [*BATCH, "fleet_net_s"]

_FLEET_LINE = re.compile(r"\[fleet\] leased=(\d+) completed=(\d+) "
                         r"retried=(\d+) dead=(\d+)")


def _start_fleet(ctx: Context, traced: bool) -> Tuple[List[Proc], str]:
    """A broker plus two workers, all polling; ([broker, *workers], address)."""
    broker = ctx.procs.spawn(["broker", "--port", "0"], traced)
    address = broker.wait_for(r"listening on (\S+:\d+)",
                              PROC_TIMEOUT).group(1)
    workers = [ctx.procs.spawn(["fleet-worker", "--broker", address],
                               traced) for _ in range(CONNECTIONS)]
    for worker in workers:
        worker.wait_for(r"polling broker", PROC_TIMEOUT)
    return [broker] + workers, address


def _batch_run(ctx: Context, m: Measurement, figure: str, address: str,
               traced: bool, counts: Dict[str, int]) -> Optional[float]:
    """One ``repro run`` process; its wall seconds, or None if it failed."""
    bench, stem, on_fleet = BATCH[figure]
    out = ctx.fresh("run")
    args = ["run", bench, "--results-dir", str(out)]
    if on_fleet:
        args += ["--executor", "fleet"]
    if figure == "fleet_net_s":
        args += ["--broker", address, "--cache", str(ctx.fresh("cache"))]
    proc = ctx.procs.spawn(args, traced)
    wall = proc.wait(PROC_TIMEOUT)
    m.reaped(proc)
    run_id = _record_run_id(out / f"{stem}.json")
    dead = "0"
    if on_fleet:
        line = _FLEET_LINE.search(proc.output())
        dead = line.group(4) if line is not None else "unknown"
        if line is not None:
            for key, value in zip(("leased", "completed", "retried", "dead"),
                                  map(int, line.groups())):
                counts[key] = counts.get(key, 0) + value
    ok = m.check(proc.returncode == 0 and run_id == ctx.committed[stem]
                 and dead == "0",
                 f"{figure} {bench}: exit {proc.returncode} run_id {run_id} "
                 f"dead {dead}")
    return wall if ok else None


def batch(ctx: Context, traced: bool) -> Measurement:
    """Cold ``repro run`` processes: serial, networked fleet, simulated.

    A closed loop with one client.  Each pass runs every operation of
    :data:`PASS`, in an order the seed shuffles; new runs start
    until ``seconds`` have passed, and the first pass always completes,
    so every operation has at least one sample.  A broker and two
    workers, started in setup, stay up for the whole run.
    """
    m = Measurement()
    setups = []
    for i in range(SETUPS):
        started = time.perf_counter()
        system, address = _start_fleet(ctx, traced)
        setups.append(time.perf_counter() - started)
        if i < SETUPS - 1:
            for proc in system:
                proc.stop()
                m.reaped(proc)
    m.figures["setup_s"] = statistics.median(setups)
    m.samples["setup_s"] = len(setups)
    rng = random.Random(ctx.seed)
    walls: Dict[str, List[float]] = {figure: [] for figure in BATCH}
    counts: Dict[str, int] = {}
    t0 = time.perf_counter()
    runs = 0
    while runs < len(PASS) or time.perf_counter() - t0 < ctx.seconds:
        if runs % len(PASS) == 0:
            order = list(PASS)
            rng.shuffle(order)
        figure = order[runs % len(PASS)]
        runs += 1
        wall = _batch_run(ctx, m, figure, address, traced, counts)
        if wall is not None:
            walls[figure].append(wall)
    for proc in system:
        proc.stop()
        m.reaped(proc)
    for figure, values in walls.items():
        if values:
            m.figures[figure] = statistics.median(values)
            m.samples[figure] = len(values)
    if all(walls.values()):
        m.figures["batch_pass_s"] = sum(m.figures[f] for f in BATCH)
        m.work_s = m.figures["batch_pass_s"]
    m.extra["fleet.leased"] = counts.get("leased", 0)
    m.extra["fleet.retried"] = counts.get("retried", 0)
    m.extra["fleet.dead"] = counts.get("dead", 0)
    m.extra["fleet.useful_ratio"] = (counts.get("completed", 0)
                                     / counts["leased"]
                                     if counts.get("leased") else 0.0)
    return m


WORKLOADS = {"batch": batch, "serve_warm": serve_warm}
