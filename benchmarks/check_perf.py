"""Gate perf regressions against the committed trajectories, drift-proof.

For every suite bench (see record_perf.SUITE) this compares a *fresh*
timing snapshot against the last entry of the committed trajectory in
``benchmarks/perf/`` and fails (exit 1) when either

* the fresh ``run_id`` differs from the committed one — the optimization
  changed results, which a speed-up must never do; or
* the fresh ``total_seconds`` exceeds the committed total by more than
  the noise tolerance (``REPRO_PERF_TOLERANCE``, default 0.5 — i.e.
  fresh may be at most 1.5x the committed total).

Fresh snapshots come from ``--fresh DIR`` (files written by
``record_perf.py --out DIR``) or, when omitted, are measured in-process.
Cell digests are also cross-checked where both sides share them, so a
"speedup" that silently dropped or re-keyed cells cannot pass.

Usage::

    PYTHONPATH=src python benchmarks/record_perf.py --out /tmp/perf
    PYTHONPATH=src python benchmarks/check_perf.py --fresh /tmp/perf
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from record_perf import PERF_DIR, SUITE, load_trajectory, measure

DEFAULT_TOLERANCE = 0.5


def check_bench(filename: str, fresh: dict, tolerance: float) -> list:
    """Problems (empty when the fresh snapshot passes the gate)."""
    trajectory = load_trajectory(PERF_DIR / filename)
    if not trajectory:
        return [f"{filename}: no committed trajectory to gate against"]
    committed = trajectory[-1]
    problems = []
    if fresh["run_id"] != committed["run_id"]:
        problems.append(
            f"{filename}: run_id drift — fresh {fresh['run_id']} vs "
            f"committed {committed['run_id']} (results changed; perf is "
            f"never allowed to purchase speed with drift)")
    if fresh["config_digest"] != committed["config_digest"]:
        problems.append(
            f"{filename}: config_digest drift — fresh "
            f"{fresh['config_digest']} vs committed "
            f"{committed['config_digest']}")
    committed_cells = {c["digest"] for c in committed["cells"]}
    fresh_cells = {c["digest"] for c in fresh["cells"]}
    if committed_cells != fresh_cells:
        problems.append(
            f"{filename}: cell digest set changed "
            f"({len(committed_cells)} committed vs {len(fresh_cells)} fresh)")
    budget = committed["total_seconds"] * (1.0 + tolerance)
    if fresh["total_seconds"] > budget:
        problems.append(
            f"{filename}: perf regression — fresh {fresh['total_seconds']}s "
            f"> {budget:.6f}s (committed {committed['total_seconds']}s "
            f"+ {tolerance:.0%} tolerance)")
    return problems


def main(argv: Optional[list] = None) -> int:
    """Gate the whole suite; 0 when every bench passes."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh", type=Path, default=None, metavar="DIR",
        help="directory of fresh snapshots from record_perf.py --out; "
             "when omitted, the suite is measured in-process")
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("REPRO_PERF_TOLERANCE",
                                     DEFAULT_TOLERANCE)),
        help="allowed fractional slowdown over the committed total "
             "(default %(default)s, env REPRO_PERF_TOLERANCE)")
    args = parser.parse_args(argv)

    core = None
    failures = []
    for filename, bench in SUITE.items():
        if args.fresh is not None:
            path = args.fresh / filename
            if not path.exists():
                failures.append(f"{filename}: missing fresh snapshot "
                                f"under {args.fresh}")
                continue
            fresh = json.loads(path.read_text())["trajectory"][-1]
        else:
            if core is None:
                from repro.service import ServiceCore
                core = ServiceCore()
            fresh = measure(core, bench)
        problems = check_bench(filename, fresh, args.tolerance)
        if problems:
            failures.extend(problems)
        else:
            committed = load_trajectory(PERF_DIR / filename)[-1]
            print(f"[perf] OK {filename}: {fresh['total_seconds']}s vs "
                  f"committed {committed['total_seconds']}s, run_id "
                  f"{fresh['run_id']} reproduced")
    for problem in failures:
        print(f"[perf] FAIL {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
