"""The benchmark's tracer: wrappers restore cleanly, self time adds up."""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import layers, tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _bindings():
    """Every (namespace, name) -> value binding in the repro package."""
    import repro.cli  # noqa: F401
    import repro.fleet.net.executor  # noqa: F401
    import repro.fleet.net.server  # noqa: F401
    import repro.fleet.net.worker  # noqa: F401
    import repro.server.http  # noqa: F401
    return {(id(space), name): value
            for space in tracing._program_namespaces()
            for name, value in vars(space).items()}


def test_install_then_restore_leaves_every_binding_identical():
    before = _bindings()
    from repro._validation import check_dataset
    from repro.losses import base

    patch = tracing.install(tracing.Tracer(), layers.targets())
    try:
        # Consumers' own bindings are replaced, not just the definition.
        assert base.check_dataset is not check_dataset
        assert tracing.original(base.check_dataset) is check_dataset
        assert len(patch.undo) > 50
    finally:
        patch.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert base.check_dataset is check_dataset


def test_wrapped_functions_count_calls_and_keep_results():
    from repro import _validation
    import numpy as np

    tracer = tracing.Tracer()
    patch = tracing.install(tracer, layers.targets())
    try:
        x = np.ones((3, 2))
        assert _validation.check_matrix(x, "x") is not None
    finally:
        patch.restore()
    calls, total, own = tracer.totals["validation"]
    assert calls >= 1 and total >= own >= 0.0


def test_wrappers_do_not_move_cell_fingerprints():
    from repro.evaluation.scenarios import point_fingerprint
    from repro.experiments import bench

    points = [panel.point for name in ("fig02_dpfw_logistic",
                                       "fig07_sparse_lognormal_noise")
              for panel in bench(name).panels]
    before = [point_fingerprint(p) for p in points]
    patch = tracing.install(tracing.Tracer(), layers.targets())
    try:
        traced = [point_fingerprint(p) for p in points]
    finally:
        patch.restore()
    assert traced == before


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3].
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def at(t):
        clock.now = t

    at(0.0)
    root = tracer.enter("root")
    at(1.0)
    a = tracer.enter("a")
    at(2.0)
    a1 = tracer.enter("a1")
    at(3.0)
    tracer.exit(a1)
    at(4.0)
    tracer.exit(a)
    at(5.0)
    b = tracer.enter("b")
    at(9.0)
    tracer.exit(b)
    at(10.0)
    tracer.exit(root)
    assert tracer.totals["a1"] == [1, 1.0, 1.0]
    assert tracer.totals["a"] == [1, 3.0, 2.0]
    assert tracer.totals["b"] == [1, 4.0, 4.0]
    assert tracer.totals["root"] == [1, 10.0, 3.0]
    # Self times partition the root span's wall time.
    assert sum(v[2] for v in tracer.totals.values()) == 10.0


def test_same_name_nested_spans_count_one_call():
    # get [0, 6] calls helper x [1, 5], which calls get again [2, 4]:
    # one operation, whose self time is split around x.
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock, keep_samples=lambda name: True)
    outer = tracer.enter("get")
    clock.now = 1.0
    helper = tracer.enter("x")
    clock.now = 2.0
    inner = tracer.enter("get")
    clock.now = 4.0
    tracer.exit(inner)
    clock.now = 5.0
    tracer.exit(helper)
    clock.now = 6.0
    tracer.exit(outer)
    assert tracer.totals["get"] == [1, 6.0, 4.0]
    assert tracer.totals["x"] == [1, 4.0, 2.0]
    assert tracer.samples["get"] == [6.0]


def test_spans_in_other_threads_are_not_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    outer = tracer.enter("outer")

    def worker():
        token = tracer.enter("thread")
        clock.now += 2.0
        tracer.exit(token)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    clock.now += 1.0
    tracer.exit(outer)
    assert tracer.totals["outer"] == [1, 3.0, 3.0]


def test_merge_sums_processes():
    a = {"totals": {"x": [1, 2.0, 1.0]}, "samples": {"s": [0.1]},
         "counters": {"cache.hits": 2}}
    b = {"totals": {"x": [2, 1.0, 1.0], "y": [1, 1.0, 1.0]},
         "samples": {"s": [0.2]}, "counters": {"cache.hits": 1}}
    merged = tracing.merge_snapshots([a, b])
    assert merged["totals"] == {"x": [3, 3.0, 2.0], "y": [1, 1.0, 1.0]}
    assert merged["samples"] == {"s": [0.1, 0.2]}
    assert merged["counters"] == {"cache.hits": 3}
