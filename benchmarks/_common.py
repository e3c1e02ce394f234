"""Shared machinery for the figure-reproduction benchmarks.

Each ``test_figXX_*`` benchmark regenerates one figure of the paper at a
laptop-scale size: it sweeps the figure's x-axis, prints the same
(x, series) rows the paper plots, appends the table to
``benchmarks/results/`` and asserts the robust qualitative shapes
(finiteness; the headline monotonicity with generous slack).

The paper's sizes (n up to 9e4 per point, 20 trials) would take hours;
``REPRO_BENCH_FULL=1`` switches to paper scale.  What each bench *is* —
panel scenarios, grids, seeds, trial counts, table titles — lives in
the named catalog (:mod:`repro.experiments.catalog`); the test files
call :func:`run_catalog_bench` and assert figure shapes on the returned
panels, and ``python -m repro run <name>`` reproduces the identical
tables from the same definitions.  See ``docs/engine.md`` for the
engine architecture and the executor/cache environment knobs.
"""

from __future__ import annotations

import os
import pickle
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.evaluation import format_panel_block, run_grid
from repro.results import ResultsStore, load_record
from repro.service import ServiceCore

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Trials per sweep point (the paper uses >= 20).
N_TRIALS = 10 if FULL else 3

#: Executor names the engine accepts (mirrors ``repro.cli``).
_VALID_EXECUTORS = ("serial", "thread", "process", "fleet")

#: Executor for the sweep grids: "serial" (default), "thread",
#: "process", or "fleet" (the work-queue executor of ``repro.fleet``).
#: Every figure/ablation point is a picklable scenario dataclass (see
#: ``repro.experiments.panels``), so the parallel executors fan the
#: grid cells out for real.  All four are bit-identical.  An unknown
#: value fails here, at import — not as a confusing engine error after
#: the first expensive data generation.
EXECUTOR = os.environ.get("REPRO_BENCH_EXECUTOR", "serial")
if EXECUTOR not in _VALID_EXECUTORS:
    raise ValueError(
        f"unknown REPRO_BENCH_EXECUTOR value {EXECUTOR!r}; valid options: "
        f"{', '.join(_VALID_EXECUTORS)}")

#: Optional on-disk cell cache; rerunning a bench recomputes only the
#: cells missing from this directory.  Keys include each scenario's
#: code fingerprint; ``python -m repro cache prune`` garbage-collects
#: cells no current catalog grid claims.  An unusable directory fails
#: here, at import, instead of silently running uncached.
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None
if CACHE_DIR is not None:
    try:
        Path(CACHE_DIR).mkdir(parents=True, exist_ok=True)
        _probe = Path(CACHE_DIR) / ".write-probe"
        _probe.write_text("")
        _probe.unlink()
    except OSError as exc:
        raise ValueError(
            f"REPRO_BENCH_CACHE directory {CACHE_DIR!r} is not writable "
            f"({exc}); fix or unset the variable") from exc

RESULTS_DIR = Path(__file__).parent / "results"


def run_sweep(point: Callable[[object, object, np.random.Generator], float],
              sweep_values: Sequence, series_values: Sequence,
              n_trials: int = N_TRIALS, seed: int = 0
              ) -> Dict[object, List[float]]:
    """Average ``point(series, x, rng)`` over trials for each grid cell.

    A thin wrapper over :func:`repro.evaluation.run_grid`, so the bench
    grids get the engine's stable cross-process seeding, parallel
    fan-out (``REPRO_BENCH_EXECUTOR``) and code-aware cell caching
    (``REPRO_BENCH_CACHE``) for free.  ``point`` is normally one of the
    ``repro.experiments.panels`` dataclasses — picklable, so the
    process executor genuinely fans out, and fingerprinted, so the
    engine's cache keys see its code.  An ad-hoc closure still works:
    it runs on the serial (or thread) executor, and under ``process``
    it falls back to serial with a warning rather than failing the
    bench.
    """
    result = run_grid(point, "x", sweep_values, "series", series_values,
                      n_trials=n_trials, seed=seed,
                      executor=_resolve_executor(point), cache=CACHE_DIR)
    return {series: [stat.mean for stat in result.series[series]]
            for series in series_values}


def _resolve_executor(point) -> str:
    """The env-selected executor, demoted to serial for unpicklable points."""
    if EXECUTOR == "process":
        try:
            pickle.dumps(point)
        except Exception:
            warnings.warn(f"point {point!r} is not picklable; "
                          "falling back to the serial executor")
            return "serial"
    return EXECUTOR


#: The one service core every bench in a pytest session runs through:
#: shared cell cache, shared single-flight map — exactly the tier the
#: CLI and ``python -m repro serve`` sit on, which is what makes bench,
#: CLI, and served runs bit-identical (equal ``run_id``).
CORE = ServiceCore(results_dir=RESULTS_DIR, cache=CACHE_DIR)


def run_catalog_bench(name: str) -> List[Dict[object, List[float]]]:
    """Run every panel of the named catalog bench; emit tables + record.

    The single bench entry point: grids, seeds, trial counts and titles
    come from the catalog, and execution goes through the same
    :meth:`~repro.service.ServiceCore.run_bench` the CLI and the HTTP
    server use (with the bench env knobs applied), so each panel's
    table is printed and persisted exactly as ``python -m repro run
    <name>`` writes it.  A provenance-stamped run record
    (``repro.results``) lands next to the text table —
    ``results/<stem>.json`` — identical to the CLI's, so ``python -m
    repro diff`` can compare bench and CLI runs freely.  Returns the
    panels' ``series -> mean curve`` mappings, in catalog order, for
    the caller's shape assertions.

    At laptop scale the fresh ``run_id`` must equal the committed
    record's before anything is written (:func:`check_committed_run_id`).
    """
    run = CORE.run_bench(name, full=FULL, executor=EXECUTOR,
                         demote_unpicklable=True)
    if not FULL:
        check_committed_run_id(run.record)
    for block in run.blocks:
        _emit_block(run.definition.result_stem, block)
    ResultsStore(RESULTS_DIR).save(run.record)
    return list(run.panels)


#: Result stems whose ``run_id`` depends on the BLAS thread count (an
#: open ROADMAP item), so a fresh run on another host may differ from
#: the committed record without any code change.
HOST_DEPENDENT_STEMS = frozenset({"fig07", "fig08", "fig09", "fig10",
                                  "fig11"})


def check_committed_run_id(record) -> None:
    """Fail when a fresh record's ``run_id`` differs from the committed one.

    Committed records are gates: a code change that moves a bench's
    numbers must fail here, naming both ids, instead of silently
    rewriting ``results/<stem>.json``.  Benches without a committed
    record, and the :data:`HOST_DEPENDENT_STEMS`, are not gated.
    """
    stem = record.result_stem
    path = ResultsStore(RESULTS_DIR).path_for(stem)
    if stem in HOST_DEPENDENT_STEMS or not path.exists():
        return
    committed = load_record(path).run_id
    if record.run_id != committed:
        raise AssertionError(
            f"{stem}: fresh run_id {record.run_id} differs from committed "
            f"run_id {committed} in {path}")


#: Result files already written this run — the first panel of a bench
#: truncates its file so a rerun never leaves stale (and possibly
#: irreproducible) tables from earlier code stacked above fresh ones;
#: later panels of the same bench append.
_WRITTEN: set = set()


def _emit_block(name: str, text: str) -> str:
    """Print a formatted table block and persist it under results/."""
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    mode = "a" if name in _WRITTEN else "w"
    _WRITTEN.add(name)
    with open(RESULTS_DIR / f"{name}.txt", mode) as fh:
        fh.write(text)
    return text


def emit_table(name: str, title: str, x_name: str, x_values: Sequence,
               series: Dict[object, List[float]]) -> str:
    """Print the figure table and persist it under benchmarks/results/."""
    return _emit_block(name, format_panel_block(title, x_name, x_values,
                                                series))


def assert_finite(series: Dict[object, List[float]]) -> None:
    """Every swept value must be a finite number."""
    for values in series.values():
        assert np.all(np.isfinite(values)), f"non-finite bench values: {values}"


def assert_trending_down(series: Dict[object, List[float]],
                         slack: float = 0.15, floor: float = 0.05) -> None:
    """End point must not exceed start point by more than the allowance.

    DP runs are noisy at bench scale; we assert the robust end-to-end
    trend rather than per-step monotonicity.  The allowance is
    ``slack * max(|start|, floor)`` so the check stays meaningful when
    values hover near (or below) zero.
    """
    for label, values in series.items():
        allowance = slack * max(abs(values[0]), floor)
        assert values[-1] <= values[0] + allowance + 1e-9, (
            f"series {label} trends up: {values}"
        )


def assert_dimension_insensitive(series: Dict[object, List[float]],
                                 factor: float = 4.0) -> None:
    """Across series (dimensions), mean errors must stay within ``factor``.

    This is the paper's headline log-d claim: d=200 vs d=800 curves
    nearly coincide.  A poly(d) method would blow past any constant
    factor.
    """
    means = [float(np.mean(v)) for v in series.values()]
    lo = max(min(means), 1e-6)
    assert max(means) <= factor * lo, f"dimension sensitivity too strong: {means}"
