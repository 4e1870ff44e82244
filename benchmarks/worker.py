"""Run one benchmark measurement in a fresh interpreter and print its result.

The worker imports ``lebesgue_lab`` and its CLI from the checkout's ``src``
and prints ``ready``; the parent times set-up up to that line.  With
``--setup-only`` it stops there.  Otherwise it replays the reference batch,
which also warms the interpreter up, and compares it with the stored file in
``reference/``; runs the seeded units of a workload ``--passes`` times, pass
after pass, timing each unit alone; checks every item's output; and prints
one JSON object as its last line.

    python3 benchmarks/worker.py --workload epi-batch --seed 0 --seconds 4
    python3 benchmarks/worker.py --workload epi-batch --seed 0 --seconds 2 --passes 2 --trace
    python3 benchmarks/worker.py --workload epi-batch --reference write

Before every unit the package's ``lru_cache``s are emptied, so each unit
starts as cold as a fresh CLI call.  A fixed calibration, which does not use
the package, is timed before the first unit of a pass and after every unit;
each unit's time is also reported scaled by the calibrations on either side
of it (``scaled_times``), which takes the shared host's speed out of it.
With ``--trace`` the passes alternate untraced and traced, each traced pass
with a tracer of its own.
``--reference write`` rewrites the stored reference, for a change that
explains why the package's outputs moved.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


# The calibration: a Python loop and small numpy calls, the two kinds of work
# the workloads do, with no package code.  On the reference host (2 shared
# cores, see README.md) it takes CALIBRATION_REFERENCE_S when the host is
# quiet; a unit timed at a moment when the calibration takes twice as long
# has its time halved.  The host's speed swings by 30% and more for seconds
# at a time, and scaled times follow the program, not the swings.
CALIBRATION_LOOP = 40_000
CALIBRATION_NUMPY_CALLS = 200
CALIBRATION_REFERENCE_S = 0.0027
_CALIBRATION_XS = None


def calibration_s() -> float:
    """Seconds the fixed calibration takes now."""
    global _CALIBRATION_XS
    import numpy

    if _CALIBRATION_XS is None:
        _CALIBRATION_XS = numpy.linspace(0.0, 1.0, 300)
    xs = _CALIBRATION_XS
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    for _ in range(CALIBRATION_NUMPY_CALLS):
        acc += float(numpy.exp(-xs * xs).sum())
    return time.perf_counter() - started


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def package_caches() -> list:
    """Every ``lru_cache`` held at module level by a ``lebesgue_lab`` module."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "lebesgue_lab" or name.startswith("lebesgue_lab."):
            for obj in vars(module).values():
                if isinstance(obj, functools._lru_cache_wrapper):
                    found[id(obj)] = obj
    return list(found.values())


class Runner:
    """Runs units with the package's caches emptied before each."""

    def __init__(self, workloads, workload: str, out_path: str):
        self.workloads = workloads
        self.workload = workload
        self.out_path = out_path
        self.caches = package_caches()

    def run(self, inputs: dict) -> tuple[float, list[dict]]:
        """(wall seconds, items) of one unit; only the package calls are timed."""
        for cache in self.caches:
            cache.cache_clear()
        started = time.perf_counter()
        items = self.workloads.execute(self.workload, inputs, self.out_path)
        return time.perf_counter() - started, items


def run_passes(runner: Runner, units, passes: int, tracing_module=None, layer_names=()):
    """Run every unit ``passes`` times; return per-pass unit times, items and traces.

    Times come per pass and unit, raw and scaled (see ``calibration_s``).
    With ``tracing_module``, odd passes are traced, each by a fresh tracer
    installed for that pass only; their layer metrics, span counts and
    times are returned apart from the untraced passes'.
    """
    times, scaled, items, traced = [], [], [], []
    for p in range(passes):
        tracer = restore = None
        if tracing_module is not None and p % 2 == 1:
            tracer = tracing_module.Tracer()
            restore = tracing_module.install(tracer)
        try:
            pass_times, pass_scaled, pass_items = [], [], []
            before = calibration_s()
            for inputs in units:
                wall, out = runner.run(inputs)
                after = calibration_s()
                pass_times.append(wall)
                pass_scaled.append(wall * 2.0 * CALIBRATION_REFERENCE_S / (before + after))
                pass_items.append(out)
                before = after
        finally:
            if restore is not None:
                restore()
        if tracer is None:
            times.append(pass_times)
            scaled.append(pass_scaled)
        else:
            traced.append({
                "wall_s": sum(pass_times),
                "scaled_s": sum(pass_scaled),
                "layers": tracer.layer_metrics(layer_names),
                "span_calls": tracer.span_counts(),
                "tracer": tracer,
            })
        items.append(pass_items)
    return times, scaled, items, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="timed seconds all passes should take; sets the number of units")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", choices=("write",), default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import lebesgue_lab
    import lebesgue_lab.cli  # noqa: F401  (a CLI user pays for this import too)

    if not Path(lebesgue_lab.__file__).resolve().is_relative_to(SRC):
        print(f"lebesgue_lab imported from {lebesgue_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import scipy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(workloads, args.workload, str(WORK / f"report-{os.getpid()}.json"))

    if args.reference == "write":
        _, items = runner.run(workloads.reference_inputs(args.workload))
        workloads.write_reference(str(reference_path(args.workload)), items)
        return 0

    # the reference replay comes first, so it also warms up the interpreter
    _, ref_items = runner.run(workloads.reference_inputs(args.workload))

    rounds = workloads.rounds_for(args.workload, args.seconds, args.passes)
    units = workloads.make_units(args.workload, args.seed, rounds)
    layer_names = []
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layer_names = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
    times, scaled, items, traced = run_passes(
        runner, units, args.passes, tracing if args.trace else None, layer_names
    )

    # every pass must check out and repeat the first pass's records exactly
    reasons = []
    for pass_items in items:
        for unit_items, first_items in zip(pass_items, items[0]):
            unit_reasons = workloads.check_items(unit_items)
            reasons += [
                "differs between passes" if reason is None and item != first else reason
                for reason, item, first in zip(unit_reasons, unit_items, first_items)
            ]
            reasons += ["differs between passes"] * abs(len(unit_items) - len(first_items))
    verified_per_pass = reasons[: sum(map(len, items[0]))].count(None)

    ref_reasons = workloads.check_items(ref_items)
    reference = workloads.read_reference(str(reference_path(args.workload)))
    mismatch, bit_identical = workloads.compare_reference(ref_items, reference)
    reasons += [
        "reference mismatch" if bad and reason is None else reason
        for reason, bad in zip(ref_reasons, mismatch)
    ]

    failures = collections.Counter(r for r in reasons if r is not None)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "units": len(units),
        "passes": args.passes,
        "unit_times": times,
        "scaled_times": scaled,
        "verified_per_pass": verified_per_pass,
        "attempted": len(reasons),
        "verified": reasons.count(None),
        "failures": dict(failures),
        "correct": all(r in workloads.KNOWN_ERRORS for r in failures),
        "reference_mismatches": sum(mismatch),
        "bit_identical": bit_identical,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "lebesgue_lab": lebesgue_lab.__version__,
        },
    }
    if traced:
        (WORK / "trace").mkdir(exist_ok=True)
        traced[0]["tracer"].dump(str(WORK / "trace" / f"{args.workload}-seed{args.seed}.npz"))
        result["traced"] = [{k: v for k, v in t.items() if k != "tracer"} for t in traced]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
