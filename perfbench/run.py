"""The repository benchmark: one command, every workload, checked outputs.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing in the program wrapped; ``--trace 1`` instead runs
the workload once untraced and once with every layer of
:mod:`perfbench.layers` wrapped, and reports the per-layer metrics and
the tracing overhead.  Every operation's output is checked against the
committed records; failures are counted, never hidden.  All files go to
temporary directories under ``.perfbench_tmp/`` (removed afterwards),
and a full report to ``.perfbench_out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import layers, tracing, workloads  # noqa: E402
from perfbench.procs import Processes  # noqa: E402

#: ``BENCHMARK.json``'s end-to-end metrics: workload -> figure behind
#: ``latency_ms`` (seconds figures are converted to ms).  For the server
#: it is the time per request at capacity (the median over the run's
#: capacity bursts): the open-loop p50 mixes ~2 ms reads with ~7-15 ms
#: warm runs, and small shifts in queueing move it between the two modes.
HEADLINE = {"batch": "batch_pass_s", "serve_warm": "serve_request_ms"}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_rps"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def environment(root: Path) -> dict:
    """Interpreter, numpy/BLAS build, thread knobs as found, host, commit.

    The benchmark sets no BLAS thread count: ``fig07``'s ``run_id``
    depends on it, and a host where it differs must show up as a
    failed check, not be masked.
    """
    probe = ("import json, numpy\n"
             "cfg = numpy.show_config(mode='dicts')\n"
             "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
             "print(json.dumps({'numpy': numpy.__version__,\n"
             "  'blas': blas.get('name'), 'blas_version': blas.get('version'),\n"
             "  'blas_openblas_config': blas.get('openblas configuration')}))")
    try:
        out = subprocess.run([sys.executable, "-c", probe], cwd=root,
                             capture_output=True, text=True, timeout=60)
        numpy_info = json.loads(out.stdout.strip().splitlines()[-1])
    except (OSError, ValueError, IndexError, subprocess.TimeoutExpired):
        numpy_info = {"numpy": None, "blas": None, "blas_version": None}
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"python": platform.python_version(), **numpy_info,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _measure(args, tmp: Path, procs: Processes):
    ctx = workloads.Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                            tmp=tmp, procs=procs,
                            committed=workloads.committed_run_ids(ROOT))
    run = workloads.WORKLOADS[args.workload]
    if not args.trace:
        return run(ctx, False), None, None
    # Traced: an untraced yardstick, then the same work traced.
    ref, m = run(ctx, False), run(ctx, True)
    probe = workloads.Measurement()
    import_s = statistics.median(workloads.startup_probe(ctx, probe)
                                 for _ in range(workloads.SETUPS))
    m.extra["startup.import_s"] = import_s
    for measured in (ref, probe):
        m.attempted += measured.attempted
        m.failed += measured.failed
        m.failures += measured.failures
    merged = tracing.merge_snapshots(
        json.loads(path.read_text()) for path in m.traces if path.exists())
    return m, ref, merged


def _print_figures(m) -> None:
    for name in sorted(m.figures):
        n = m.samples.get(name)
        print(f"  {name:<22} {m.figures[name]:>12.4f} {_unit(name):<5}"
              + (f" (n={n})" if n is not None else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not any(
            (ROOT / "benchmarks" / "results").glob("*.json")):
        print("error: no repro sources or committed records under "
              f"{ROOT}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop_on_sigterm)
    env = environment(ROOT)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=ROOT / ".perfbench_tmp"))
    try:
        with Processes(tmp, ROOT) as procs:
            m, ref, merged = _measure(args, tmp, procs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # End-to-end figures always come from an untraced run.
    shown = m if merged is None else ref
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("figures, untraced (median unless a percentile is named):")
    _print_figures(shown)
    print(f"  {'peak_rss_mb':<22} {shown.peak_rss_kb / 1024:>12.4f} MiB")
    for name, value in sorted(shown.extra.items()):
        if name not in layers.per_layer_names():
            print(f"  {name:<34} {value:>12.4f}")
    print(f"operations: attempted={m.attempted} failed={m.failed}")
    for failure in m.failures[:20]:
        print(f"  FAILED {failure}")

    if merged is None:
        headline = m.figures.get(HEADLINE[args.workload])
        if headline is not None and not HEADLINE[args.workload].endswith(
                "_ms"):
            headline *= 1000.0
        metrics = {
            "setup_s": {"value": m.figures["setup_s"], "unit": "s"},
            "latency_ms": {"value": headline, "unit": "ms"},
            "peak_rss_mb": {"value": m.peak_rss_kb / 1024.0, "unit": "MiB"},
        }
    else:
        values = {name: 0.0 for name in layers.per_layer_names()}
        values.update(layers.layer_metrics(merged))
        values.update({k: v for k, v in m.extra.items() if k in values})
        values["trace.overhead_ratio"] = (m.work_s / ref.work_s
                                          if ref.work_s else 0.0)
        print("per-layer self time (traced run, all processes):")
        print(layers.format_table(merged))
        print("per-layer metrics:")
        for name, value in values.items():
            print(f"  {name:<36} {value:>14.6f} {_unit(name)}")
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in values.items()}

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "figures": shown.figures,
              "samples": shown.samples, "extra": m.extra,
              "failures": m.failures, "metrics": metrics,
              "spans": merged["totals"] if merged else None}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"report: {out.relative_to(ROOT)}")
    correct = m.failed == 0 and all(
        v["value"] is not None for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
