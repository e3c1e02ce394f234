"""The benchmark's load generator: seeded schedules, due-time latency."""

import asyncio
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import loadgen, workloads  # noqa: E402

TARGETS = {"record": ["fig05", "fig07"], "record_304": ["fig05", "fig07"],
           "cell": ["aa", "bb", "cc"], "catalog": ["catalog"],
           "run": ["fig05_lasso_lognormal"]}


def test_same_seed_same_schedule_and_mix():
    first = loadgen.schedule(7, 100.0, 5.0, TARGETS)
    again = loadgen.schedule(7, 100.0, 5.0, TARGETS)
    other = loadgen.schedule(8, 100.0, 5.0, TARGETS)
    assert first == again
    assert first != other
    assert 350 < len(first) < 650
    assert all(0.0 < r.due < 5.0 for r in first)
    assert [r.due for r in first] == sorted(r.due for r in first)
    shares = {kind: sum(r.kind == kind for r in first) / len(first)
              for kind, _ in loadgen.MIX}
    for kind, share in loadgen.MIX:
        assert abs(shares[kind] - share) < 0.08


def _fake_send(service):
    async def send(request):
        await asyncio.sleep(service)
        return True
    return send


def test_latency_counts_from_the_due_time():
    # Three requests all due at t=0 on one connection, 50 ms each: the
    # second and third wait behind the first, and that wait is theirs.
    requests = [loadgen.Request(0.0, "catalog", "catalog")] * 3
    outcomes = asyncio.run(loadgen.open_loop(requests, _fake_send(0.05), 1))
    latencies = [o.latency for o in outcomes]
    for got, want in zip(latencies, (0.05, 0.10, 0.15)):
        assert want - 0.005 <= got < want + 0.04
    assert outcomes[0].free_at_due
    assert not outcomes[2].free_at_due
    # Queueing shows as a late start, not as service time.
    assert outcomes[2].start - outcomes[2].due >= 0.095


def test_requests_wait_for_their_due_time():
    requests = [loadgen.Request(0.0, "catalog", "catalog"),
                loadgen.Request(0.08, "catalog", "catalog")]
    outcomes = asyncio.run(loadgen.open_loop(requests, _fake_send(0.01), 2))
    late = outcomes[1].start - outcomes[1].due
    assert 0.0 <= late < 0.03
    assert outcomes[1].latency < 0.05


def test_tail_quantile_keeps_ten_samples_beyond():
    assert workloads.tail_quantile(200) == 0.95
    assert workloads.tail_quantile(199) == 0.90
    assert workloads.tail_quantile(20) == 0.50
    assert workloads.tail_quantile(5) is None
    assert workloads.percentile(list(range(1, 101)), 0.95) == 95


def test_dealer_keeps_the_exact_mix_in_every_deck():
    import random

    deal = loadgen.dealer(random.Random(3), TARGETS)
    draws = [deal() for _ in range(3 * loadgen.DECK)]
    again = loadgen.dealer(random.Random(3), TARGETS)
    assert draws == [again() for _ in range(3 * loadgen.DECK)]
    for start in range(0, len(draws), loadgen.DECK):
        kinds = [kind for kind, _ in draws[start:start + loadgen.DECK]]
        for kind, share in loadgen.MIX:
            assert kinds.count(kind) == round(share * loadgen.DECK)
    assert all(target in TARGETS[kind] for kind, target in draws)


def test_closed_loop_with_a_count_sends_exactly_that_many():
    outcomes, elapsed = asyncio.run(loadgen.closed_loop(
        lambda: loadgen.Request(0.0, "catalog", "catalog"),
        _fake_send(0.01), 2, 0.0, count=7))
    assert len(outcomes) == 7
    assert all(o.ok for o in outcomes)
    assert elapsed >= 0.04


def test_backlog_is_pooled_over_a_phases_turns():
    def turn(waits):
        return [loadgen.Outcome(loadgen.Request(0.0, "catalog", "catalog"),
                                0.0, wait, wait + 0.001, True, True)
                for wait in waits]

    # Each short turn is too small to judge alone; pooled, the waits
    # at the end of the turns are far above those at their start.
    growing = [turn([0.0] * 3 + [0.05] * 3 + [0.2] * 3) for _ in range(6)]
    steady = [turn([0.001] * 9) for _ in range(6)]
    assert workloads._backlog_grows(growing)
    assert not workloads._backlog_grows(steady)
    assert not workloads._backlog_grows(growing[:1])
