"""The layers of ``repro`` the benchmark times.

Layers are named after the program's modules.  Each layer is a set of
functions found by a rule over a module (every ``check_*`` of
``repro._validation``, every ``fit`` of a solver class, ...) rather than
a hand-kept list, so a function added to a layer is timed without
touching the benchmark.  :func:`targets` resolves the rules against the
code under test; :func:`layer_metrics` turns the merged span aggregates
of a traced run into the per-layer metrics ``BENCHMARK.json`` lists.
Which end-to-end figure each layer should move is tabled in
``perfbench/README.md``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import statistics
from typing import Dict, List, Optional

from perfbench.tracing import Target

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
SELF_LAYERS = ("data", "validation", "losses", "solver", "privacy",
               "estimators.catoni", "estimators.truncation",
               "engine.fingerprint", "engine.jobs", "cache.get", "cache.put",
               "record.finalize", "record.load", "record.serialise",
               "fleet.broker.dispatch")
SERVICE_METHODS = ("run_bench", "load_record", "cell_values",
                   "catalog_payload")
ROUTES = {"_get_catalog": "catalog", "_get_record": "records",
          "_get_cell": "cells", "_post_run": "run"}
BROKER_OPS = ("enqueue", "lease", "heartbeat", "complete", "expire",
              "outstanding", "state", "result")


def _functions(module: str, *, prefix: str = "") -> List[str]:
    """Names of the functions ``module`` itself defines."""
    mod = importlib.import_module(module)
    return [name for name, value in vars(mod).items()
            if inspect.isfunction(value) and value.__module__ == module
            and name.startswith(prefix)]


def _classes(package: str, base: Optional[type] = None):
    """``(module, class)`` for every class a module or package defines."""
    root = importlib.import_module(package)
    modules = [root]
    if hasattr(root, "__path__"):
        modules += [importlib.import_module(f"{package}.{info.name}")
                    for info in pkgutil.iter_modules(root.__path__)]
    for mod in modules:
        for value in vars(mod).values():
            if (inspect.isclass(value) and value.__module__ == mod.__name__
                    and (base is None or issubclass(value, base))):
                yield mod.__name__, value


def _methods(package: str, names, span: str, base=None) -> List[Target]:
    return [Target(module, f"{cls.__name__}.{name}", span)
            for module, cls in _classes(package, base)
            for name in names if name in vars(cls)]


def _module_targets(module: str, span: str,
                    prefix: str = "") -> List[Target]:
    return [Target(module, name, span)
            for name in _functions(module, prefix=prefix)]


def _cache_outcome(values) -> str:
    return "cache.misses" if values is None else "cache.hits"


def _broker_op(args, kwargs) -> str:
    op = args[1] if len(args) > 1 else kwargs.get("op")
    return f"fleet.broker.{op}"


def targets() -> List[Target]:
    """Resolve every layer rule against the ``repro`` package on the path."""
    from repro.losses.base import Loss

    found: List[Target] = []
    found += _module_targets("repro._validation", "validation",
                             prefix="check_")
    for module in ("repro.data.distributions", "repro.data.synthetic",
                   "repro.data.real_like"):
        found += _module_targets(module, "data")
    found += _methods("repro.data", ("sample", "centered_sample"), "data")
    found += _methods("repro.losses", ("value", "gradient",
                                       "per_sample_gradients",
                                       "per_sample_values"), "losses",
                      base=Loss)
    found += _methods("repro.core", ("fit",), "solver")
    found += _methods("repro.baselines", ("fit",), "solver")
    found += [Target("repro.core.batched", name, "solver")
              for name in _functions("repro.core.batched")
              if "fit" in name or name.startswith("fast_")]
    found += _methods("repro.privacy.mechanisms",
                      ("randomize", "select", "probabilities"), "privacy")
    found += _module_targets("repro.privacy.mechanisms", "privacy")
    found += _module_targets("repro.core.peeling", "privacy")
    found += _module_targets("repro.estimators.catoni", "estimators.catoni")
    found += _methods("repro.estimators.catoni", (
        "influence", "estimate", "estimate_columns", "noisy_estimate"),
        "estimators.catoni")
    found += _module_targets("repro.estimators.truncation",
                             "estimators.truncation")
    found += [
        Target("repro.evaluation.scenarios", "point_fingerprint",
               "engine.fingerprint"),
        Target("repro.evaluation.engine", "build_jobs", "engine.jobs"),
        Target("repro.evaluation.engine", "ResultCache.get", "cache.get",
               outcome=_cache_outcome),
        Target("repro.evaluation.engine", "ResultCache.read_values",
               "cache.get"),
        Target("repro.evaluation.engine", "ResultCache.put", "cache.put"),
        Target("repro.results.record", "RunRecorder.finalize",
               "record.finalize"),
        Target("repro.results.store", "ResultsStore.load", "record.load"),
        Target("repro.results.store", "load_record", "record.load"),
        Target("repro.results.store", "manifest_text", "record.serialise"),
        Target("repro.service.serializers", "run_payload",
               "record.serialise"),
        Target("repro.service.serializers", "catalog_payload",
               "service.catalog_payload"),
        Target("repro.fleet.net.client", "SocketBroker.call", _broker_op),
        Target("repro.fleet.net.server", "BrokerServer.dispatch",
               "fleet.broker.dispatch"),
        Target("repro.fleet.net.worker", "FleetWorker.run",
               "fleet.worker.run"),
        Target("repro.fleet.net.worker", "FleetWorker._attempt",
               "fleet.worker.attempt"),
        Target("repro.fleet.net.executor",
               "RemoteFleetExecutor._await_settled",
               "fleet.coordinator.wait"),
    ]
    found += [Target("repro.service.core", f"ServiceCore.{name}",
                     f"service.{name}")
              for name in SERVICE_METHODS if name != "catalog_payload"]
    found += [Target("repro.server.http", f"ReproServer.{method}",
                     f"serve.route.{route}")
              for method, route in ROUTES.items()]
    return found


def keep_samples(name: str) -> bool:
    """Span names whose individual durations feed a percentile."""
    return name.startswith(("serve.route.", "fleet.broker."))


# ---------------------------------------------------------------------------
# Aggregates -> per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_names() -> List[str]:
    """Every per-layer metric name, in ``BENCHMARK.json`` order."""
    names = ["startup.import_s"]
    for layer in SELF_LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += ["cache.hits", "cache.misses", "cache.hit_ratio"]
    names += [f"service.{m}.self_s" for m in SERVICE_METHODS]
    names += [f"serve.route.{r}.p50_ms" for r in ROUTES.values()]
    names += [f"fleet.broker.{op}.calls" for op in BROKER_OPS]
    names += ["fleet.broker.rtt_ms", "fleet.worker.busy_s",
              "fleet.worker.idle_s", "fleet.coordinator.wait_s",
              "fleet.leased", "fleet.retried", "fleet.dead",
              "fleet.useful_ratio", "loadgen.late_p95_ms",
              "trace.overhead_ratio"]
    for phase in ("base", "peak"):
        names += [f"loadgen.{phase}.{k}"
                  for k in ("sent", "succeeded", "failed")]
    return names


def _p50_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def layer_metrics(merged: Dict[str, object]) -> Dict[str, float]:
    """Per-layer figures from merged span aggregates (0 where unused)."""
    totals, samples = merged["totals"], merged["samples"]
    counters = merged["counters"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    out: Dict[str, float] = {}
    for layer in SELF_LAYERS:
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_s"] = self_s(layer)
    hits, misses = counters.get("cache.hits", 0), counters.get(
        "cache.misses", 0)
    out["cache.hits"], out["cache.misses"] = hits, misses
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for method in SERVICE_METHODS:
        out[f"service.{method}.self_s"] = self_s(f"service.{method}")
    for route in ROUTES.values():
        out[f"serve.route.{route}.p50_ms"] = _p50_ms(
            samples.get(f"serve.route.{route}", []))
    for op in BROKER_OPS:
        out[f"fleet.broker.{op}.calls"] = calls(f"fleet.broker.{op}")
    rtts = [d for name, values in samples.items()
            if name.startswith("fleet.broker.") and name != (
                "fleet.broker.dispatch") for d in values]
    out["fleet.broker.rtt_ms"] = _p50_ms(rtts)
    busy = totals.get("fleet.worker.attempt", [0, 0.0, 0.0])[1]
    alive = totals.get("fleet.worker.run", [0, 0.0, 0.0])[1]
    out["fleet.worker.busy_s"] = busy
    out["fleet.worker.idle_s"] = max(alive - busy, 0.0)
    out["fleet.coordinator.wait_s"] = totals.get(
        "fleet.coordinator.wait", [0, 0.0, 0.0])[1]
    return out


def format_table(merged: Dict[str, object]) -> str:
    """Self time and calls per span name, largest self time first."""
    rows = sorted(merged["totals"].items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':<34} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
    for name, (count, total, own) in rows:
        lines.append(f"{name:<34} {count:>9d} {total:>9.3f} {own:>9.3f}")
    traced = sum(v[2] for v in merged["totals"].values())
    lines.append(f"{'(all traced spans)':<34} {'':>9} {'':>9} "
                 f"{traced:>9.3f}")
    return "\n".join(lines)
