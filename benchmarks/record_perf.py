"""Record the engine perf suite: append-only trajectories in benchmarks/perf.

Runs each suite bench cold through the service core and snapshots the
per-cell compute wall-times the run record captured (``record.timings``
— measured inside the engine workers, honest under any executor).  Each
``benchmarks/perf/BENCH_*.json`` holds a *trajectory*: a list of
snapshots, oldest first, appended to and never rewritten, so the
committed history shows what each optimization bought.  Timings are
environment, excluded from ``run_id``/``config_digest``, so recording
never perturbs any bit-identity gate — but every snapshot carries the
bench's ``run_id``, which check_perf.py asserts against the committed
trajectory (speed must never be purchased with drift).

Regenerate deliberately, on quiet hardware::

    PYTHONPATH=src python benchmarks/record_perf.py

In CI (or anywhere the committed files must stay untouched), measure
into a scratch directory and gate with check_perf.py::

    PYTHONPATH=src python benchmarks/record_perf.py --out /tmp/perf
    PYTHONPATH=src python benchmarks/check_perf.py --fresh /tmp/perf
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from repro.service import ServiceCore

#: The perf suite: trajectory file -> catalog bench.  BENCH_engine
#: tracks the cheapest ablation (the regression gate's primary bench);
#: BENCH_lasso and BENCH_dpfw track one bench per private solver
#: (Algorithm 2 and Algorithm 1).
SUITE = {
    "BENCH_engine.json": "ablation_truncation_threshold",
    "BENCH_lasso.json": "fig05_lasso_lognormal",
    "BENCH_dpfw.json": "fig01_dpfw_linear",
}

PERF_DIR = Path(__file__).parent / "perf"


def measure(core: ServiceCore, bench: str) -> dict:
    """Run ``bench`` uncached and return one timing snapshot."""
    record = core.run_bench(bench).record
    assert record.timings is not None, "engine reported no cell timings"
    cells = [
        {"digest": cell.digest, "seconds": round(seconds, 6)}
        for panel, row in zip(record.panels, record.timings)
        for cell, seconds in zip(panel.cells, row)
    ]
    return {
        "bench": bench,
        "run_id": record.run_id,
        "config_digest": record.config_digest,
        "executor": record.executor,
        "n_cells": len(cells),
        "cells": cells,
        "total_seconds": round(sum(c["seconds"] for c in cells), 6),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def load_trajectory(path: Path) -> list:
    """The snapshot list at ``path``; migrates the legacy flat layout.

    The first committed baseline (PR 6) was a single flat snapshot
    object; it becomes entry 0 of the trajectory so history is
    preserved append-only.
    """
    if not path.exists():
        return []
    payload = json.loads(path.read_text())
    if isinstance(payload, dict) and "trajectory" in payload:
        return list(payload["trajectory"])
    return [payload]  # legacy flat snapshot


def write_trajectory(path: Path, bench: str, snapshots: list) -> None:
    """Write the canonical trajectory document, stable byte layout."""
    payload = {"bench": bench, "trajectory": snapshots}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[list] = None) -> int:
    """Measure the suite; append to (or write fresh into) perf files."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="write fresh single-snapshot files into DIR instead of "
             "appending to the committed trajectories")
    args = parser.parse_args(argv)
    core = ServiceCore()  # no cache: every cell computes, every cell times
    for filename, bench in SUITE.items():
        snapshot = measure(core, bench)
        if args.out is not None:
            target = args.out / filename
            write_trajectory(target, bench, [snapshot])
        else:
            target = PERF_DIR / filename
            trajectory = load_trajectory(target)
            trajectory.append(snapshot)
            write_trajectory(target, bench, trajectory)
        print(f"[perf] {target}: {bench} total={snapshot['total_seconds']}s "
              f"over {snapshot['n_cells']} cells run_id={snapshot['run_id']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
