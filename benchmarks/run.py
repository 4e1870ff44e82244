"""lebesgue-lab benchmark: four seeded workloads, end to end or traced per layer.

    python3 benchmarks/run.py --workload norm-grid --seed 3 --seconds 12 --trace 0
    python3 benchmarks/run.py --workload all

The workloads, metrics and default ``--seconds`` come from ``BENCHMARK.json``.

A run draws its units from the seed, as many as take about ``--seconds`` on
one core (``workloads.rounds_for``), so a seed and a length always give the
same inputs.  One fresh interpreter (``worker.py``) runs them once each,
with the package's caches emptied before each unit, as they are for a CLI
user.  Untraced (``--trace 0``) the run reports:

* ``setup_s``: fresh interpreter to ``import lebesgue_lab`` (and its CLI)
  done, median over SETUP_RUNS interpreters that only import, each scaled
  like a unit by calibrations that this process times before and after it
  (the median of CALIBRATION_REPEATS each);
* ``verified_per_s``: items that completed and passed their checks, over the
  summed time of the units, each unit's time scaled to the reference host
  speed by the calibrations timed on either side of it
  (``worker.calibration_s``); the unscaled rate is printed too;
* ``ok_ratio``: verified items over attempted items, the reference replay
  included (the complement of the fail ratio, which is printed too);
* ``peak_rss_mb``: peak resident memory of the worker.

Traced (``--trace 1``), the units of a quarter of ``--seconds`` run in
TRACE_PAIRS untraced passes alternating with as many traced ones; the run
reports the per-layer metrics of ``BENCHMARK.json`` (medians over the traced
passes) and ``trace.overhead_ratio``, traced over untraced scaled time of a
pass.

Every run also replays the reference batch (seed 0, batch 0) and compares
its records with the stored reference.  The last line printed is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import CALIBRATION_REFERENCE_S, calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PACKAGE_INIT = ROOT / "src" / "lebesgue_lab" / "__init__.py"

TRACE_PAIRS = 2
SETUP_RUNS = 5
CALIBRATION_REPEATS = 7
WORKER_TIMEOUT_S = 150

# One process, one thread.  The package's own thread pool is slower than one
# thread at the seed (see ROADMAP, Baseline), and the benchmark host has two
# shared cores, so further threads would only measure contention.  BLAS
# threads are pinned for the same reason; numpy reads them at import.
PINNED_ENV = {
    "LEBESGUE_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

class BenchError(RuntimeError):
    """A worker crashed or printed no result: the benchmark itself failed."""


def run_worker(workload: str, *args: str):
    """Start one worker; return (set-up seconds, its result object or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *args]
    started = perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env={**os.environ, **PINNED_ENV}
    )
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - started
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {cmd[2:]} exited {proc.returncode}")
    if "--setup-only" in args:
        return setup_s, None
    if not lines:
        raise BenchError(f"worker {cmd[2:]} printed no result")
    return setup_s, json.loads(lines[-1])


def run_units(workload: str, seed: int, seconds: float, passes: int, trace: bool = False):
    args = ["--seed", str(seed), "--seconds", repr(seconds), "--passes", str(passes)]
    return run_worker(workload, *args, *(["--trace"] if trace else []))


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(worker_result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **worker_result["versions"],
        "git_sha": git_sha(),
        "pinned_env": PINNED_ENV,
    }


def _notes(result: dict) -> dict:
    attempted = result["attempted"]
    return {
        "fail_ratio": (attempted - result["verified"]) / attempted,
        "failures": result["failures"],
        "reference_mismatches": result["reference_mismatches"],
        "bit_identical": result["bit_identical"],
    }


def _outcome(result: dict, metrics: dict, notes: dict) -> dict:
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["attempted"] - result["verified"],
            "metrics": metrics, "notes": notes, "first": result}


def host_calibration_s() -> float:
    # one set-up takes as long as hundreds of units' calibrations, so the
    # calibrations next to it are repeated to weigh as much
    return statistics.median(calibration_s() for _ in range(CALIBRATION_REPEATS))


def measure_plain(workload: str, seed: int, seconds: float) -> dict:
    setups, scaled_setups = [], []
    before = host_calibration_s()
    for _ in range(SETUP_RUNS):
        setups.append(run_worker(workload, "--setup-only")[0])
        after = host_calibration_s()
        scaled_setups.append(setups[-1] * 2.0 * CALIBRATION_REFERENCE_S / (before + after))
        before = after
    _, result = run_units(workload, seed, seconds, 1)
    # the shared host's speed swings by 30% and more for seconds at a time;
    # scaled by the calibrations next to it, a unit's time follows the
    # program instead
    (raw,), (scaled,) = result["unit_times"], result["scaled_times"]
    verified = result["verified_per_pass"]
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "verified_per_s": verified / sum(scaled),
        "ok_ratio": result["verified"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "samples": f"{result['units']} units, {sum(raw):.4g} s timed; unscaled "
                   f"verified_per_s {verified / sum(raw):.6g}, setup_s {statistics.median(setups):.4g}",
        **_notes(result),
    }
    return _outcome(result, metrics, notes)


def measure_traced(workload: str, seed: int, seconds: float, layer_names) -> dict:
    passes = 2 * TRACE_PAIRS
    _, result = run_units(workload, seed, seconds, passes, trace=True)
    traced = result["traced"]
    # median_low keeps counts integral; they are equal across passes anyway
    metrics = {
        name: statistics.median_low(t["layers"][name] for t in traced)
        for name in layer_names
        if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        t["scaled_s"] / sum(plain) for plain, t in zip(result["scaled_times"], traced)
    )
    notes = {
        "samples": f"{result['units']} units, {TRACE_PAIRS} untraced and traced passes",
        **_notes(result),
        # span counts of one seed must repeat exactly (ROADMAP, aim 3)
        "counts_repeat": all(t["span_calls"] == traced[0]["span_calls"] for t in traced),
    }
    return _outcome(result, metrics, notes)


def _print_summary(workload: str, seed: int, run: dict, units: dict) -> None:
    notes = run["notes"]
    print(f"workload {workload} seed {seed}: {run['attempted']} items attempted, "
          f"{run['failed']} failed; {notes['samples']}")
    for name, value in run["metrics"].items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':48s} {notes['fail_ratio']:.6g} ratio "
          f"(failures by reason: {json.dumps(notes['failures'])})")
    print(f"  output check: {'ok' if run['correct'] else 'FAILED'}; reference (seed 0, batch 0): "
          f"{notes['reference_mismatches']} mismatches, bit_identical={notes['bit_identical']}")
    if "counts_repeat" in notes and not notes["counts_repeat"]:
        print("  WARNING: span counts differ between traced passes over the same units")


def main() -> int:
    parser = argparse.ArgumentParser(description="lebesgue-lab benchmark")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # this process times calibrations too, under the workers' settings
    os.environ.update(PINNED_ENV)
    # a terminated run still stops its worker (see run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not SPEC_PATH.is_file() or not PACKAGE_INIT.is_file():
        print(f"no package source at {PACKAGE_INIT.parent} or no {SPEC_PATH.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        parser.error(f"--workload must be one of {names} or all")

    runs = {}
    try:
        for workload in workloads:
            if args.trace:
                run = measure_traced(workload, args.seed, seconds, list(units))
            else:
                run = measure_plain(workload, args.seed, seconds)
            if set(run["metrics"]) != set(units):
                raise BenchError(f"metrics {sorted(run['metrics'])} do not match {SPEC_PATH.name}")
            if not runs:
                print("provenance: " + json.dumps(provenance(run["first"])))
            _print_summary(workload, args.seed, run, units)
            runs[workload] = run
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for workload, run in runs.items():
        prefix = "" if len(runs) == 1 else f"{workload}."
        metrics.update({prefix + n: {"value": v, "unit": units[n]} for n, v in run["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
