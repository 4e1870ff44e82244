"""The four benchmark workloads: seeded inputs, timed units, and output checks.

A *unit* is the piece of a workload that is timed on its own: one or two
CLI calls, or a run of library calls.  ``make_units`` draws a run's units
from ``(workload, seed, rounds)`` alone; ``reference_inputs`` is the larger
batch whose records are stored in ``reference/``.  ``execute`` runs one
unit (or the reference batch) through the package's public entry points and
returns one result per output row (an *item*); ``check_items`` judges the
records without calling the package, so checking adds no spans to a traced
run.

Every package function is looked up on its module at call time
(``cli.main``, ``epi.random_instance``), never bound to a local name, so the
wrappers that :mod:`tracing` installs see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import traceback
import zlib

import numpy as np

from lebesgue_lab import cli, epi, kernel, levelsets

WORKLOADS = ("norm-grid", "level-census", "epi-batch", "wide-support")

# ---- unit composition -------------------------------------------------------
# A round is one draw of a workload's inputs, split into units of 0.05 to
# 0.45 s on one core: short, so the calibrations timed on either side of a
# unit see the speed the shared host ran it at.  Lengths are drawn one per
# stratum, so every round has the same mix of cheap and costly items and the
# mix does not move with the seed.

NORM_P = (2.0, 2.5, 3.0, 4.0, 8.0, 16.0, 32.0, 128.0)
NORM_L_RANGE = (6, 1000)
NORM_STRATA = 8  # log-spaced, one length each, per unit

# np-verify costs about linearly in l, so its lengths come in antithetic pairs
# (l, 54 - l), l drawn from each stratum: every round sums to the same total l.
NP_VERIFY_STRATA = ((6, 12), (13, 19), (20, 26))
NP_VERIFY_PAIR_SUM = 54
CENSUS_STRATA = ((6, 14), (15, 24))
CENSUS_LEVELS = 36  # per census length, dealt round-robin over its bands
CENSUS_MARGIN = 0.02  # keeps finite differences inside a band, as acceptance does

EPI_RANDOM = 40  # epi-check instances per unit, and as many rogozin instances
EPI_L_RANGE = (6, 30)  # the CLI default, left implicit in the calls

WIDE_INSTANCES = 80  # per unit
WIDE_L_RANGE = (100, 300)

# Seconds one round takes on one core of the reference host, in its quiet
# moments; ``rounds_for`` sizes a run from them, so a run's inputs depend on
# its seed and its length alone, never on how fast the host happens to be.
ROUND_SECONDS = {
    "norm-grid": 0.066,
    "level-census": 1.0,
    "epi-batch": 0.072,
    "wide-support": 0.078,
}

# The stored reference is seed 0, batch 0 at these sizes (strata or instances).
REFERENCE_SEED = 0
REFERENCE_SIZES = {"norm-grid": 256, "epi-batch": 600, "wide-support": 1200}

# ---- output checks ----------------------------------------------------------
# Reference floats agree when |a - b| <= REF_REL_TOL * max(|a|, |b|) + REF_ABS_TOL.
# The absolute part covers quadrature error estimates near 1e-17, whose
# relative digits move with any change of summation order.
REF_REL_TOL = 1e-9
REF_ABS_TOL = 1e-13
CENSUS_FD_REL_TOL = 1e-4  # |dG/dy + slope_sum| / slope_sum, as acceptance uses
PARSEVAL_REL_TOL = 1e-9  # integral of g^2 over a period is exactly 1/l
SLACK = 1e-9  # the package's own slack on the asserted inequalities
ROGOZIN_SLACK = 1e-12
# items of the reference batch kept in reference/; the rest are checked only
# by their verdicts, which keeps the stored files small and readable
REFERENCE_ITEMS = 400

# The only exception an item may raise without making the run incorrect:
# random_pmf's water-filling stops settling for l above about 60 (known defect).
KNOWN_ERRORS = ("GenerationError",)


def rng_for(workload: str, seed: int, batch: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, batch])


def _log_strata(rng, lo: int, hi: int, count: int) -> list[int]:
    edges = np.geomspace(lo, hi + 1, count + 1)
    draws = np.exp(rng.uniform(np.log(edges[:-1]), np.log(edges[1:])))
    return [int(min(max(math.floor(v), lo), hi)) for v in draws]


def _strata(rng, strata) -> list[int]:
    return [int(rng.integers(a, b + 1)) for a, b in strata]


def make_inputs(workload: str, seed: int, batch: int, size: int | None = None) -> dict:
    """One draw of a workload's inputs; ``size`` is its strata or instances."""
    rng = rng_for(workload, seed, batch)
    if workload == "norm-grid":
        return {
            "lengths": _log_strata(rng, *NORM_L_RANGE, size or NORM_STRATA),
            "ps": list(NORM_P),
        }
    if workload == "level-census":
        return {
            "np_lengths": [
                v for l in _strata(rng, NP_VERIFY_STRATA) for v in (l, NP_VERIFY_PAIR_SUM - l)
            ],
            "census": [[l, int(rng.integers(2**31))] for l in _strata(rng, CENSUS_STRATA)],
        }
    if workload == "epi-batch":
        return {
            "epi_seed": int(rng.integers(2**31)),
            "rogozin_seed": int(rng.integers(2**31)),
            "count": size or EPI_RANDOM,
        }
    if workload == "wide-support":
        return {"first_seed": int(rng.integers(2**31)), "count": size or WIDE_INSTANCES}
    raise ValueError(f"unknown workload {workload!r}")


def reference_inputs(workload: str) -> dict:
    """The batch whose records ``reference/<workload>.json`` stores."""
    return make_inputs(workload, REFERENCE_SEED, 0, REFERENCE_SIZES.get(workload))


def rounds_for(workload: str, seconds: float, passes: int) -> int:
    """Rounds that ``passes`` repeats of fill about ``seconds`` on one core."""
    return max(1, round(seconds / (passes * ROUND_SECONDS[workload])))


def make_units(workload: str, seed: int, rounds: int) -> list[dict]:
    """The units of a run: ``rounds`` seeded draws, each split into units.

    A ``level-census`` round is split into one unit per np-verify pair and
    one per census length; every other round is one unit.
    """
    units = []
    for r in range(1, rounds + 1):  # batch 0 of a seed is the reference draw
        inputs = make_inputs(workload, seed, r)
        if workload != "level-census":
            units.append(inputs)
            continue
        ls = inputs["np_lengths"]
        units += [{"np_lengths": ls[i : i + 2], "census": []} for i in range(0, len(ls), 2)]
        units += [{"np_lengths": [], "census": [c]} for c in inputs["census"]]
    return units


# ---- running items ----------------------------------------------------------


def _ok(key, record) -> dict:
    return {"key": key, "record": record}


def _err(key, error: str) -> dict:
    return {"key": key, "error": error}


def _failed(key, exc: Exception) -> dict:
    """The item failed with ``exc``; an unexpected error also shows its traceback."""
    if type(exc).__name__ not in KNOWN_ERRORS:
        traceback.print_exception(exc, file=sys.stderr)
    return _err(key, type(exc).__name__)


def _call_cli(argv, out_path):
    """One CLI call; returns (rows, None) or (None, error)."""
    try:
        code = cli.main(argv + ["--out", out_path])
    except Exception as exc:  # cli.run lets GenerationError escape (known defect)
        return None, _failed(None, exc)["error"]
    try:
        if code != 0:
            return None, f"exit {code}"
        with open(out_path) as fh:
            return json.load(fh)["records"], None
    finally:
        if os.path.exists(out_path):
            os.unlink(out_path)


def _cli_items(command, keys, batch_args, item_args, out_path) -> list[dict]:
    """Run one CLI command over the whole batch; if it fails, rerun item by item.

    The CLI stops at the first failing row, so a failed call is repeated one
    item at a time to find which items failed and keep the rest.
    """
    rows, error = _call_cli([command, *batch_args], out_path)
    if error is None and len(rows) == len(keys):
        return [_ok(k, r) for k, r in zip(keys, rows)]
    results = []
    for k in keys:
        rows, error = _call_cli([command, *item_args(k)], out_path)
        if error is None and len(rows) != 1:
            error = f"{len(rows)} rows"
        results.append(_err(k, error) if error else _ok(k, rows[0]))
    return results


def census_levels(l: int, level_seed: int) -> list[float]:
    """CENSUS_LEVELS seeded levels dealt over every peak-to-peak band of g.

    The bands are those of the acceptance slope census: between consecutive
    arch peaks, floored at the truncated Gaussian's level y_last.
    """
    peaks = [prof.peak_y for prof in levelsets.bump_profiles(kernel.KernelSpec(l))[1:]]
    floor = kernel.TruncatedGaussian.from_length(l).y_last
    edges = [max(y, floor) for y in peaks] + [floor]
    bands = [
        (bottom, top - bottom)
        for top, bottom in zip(edges[:-1], edges[1:])
        if top - bottom >= 10 * levelsets.PEAK_EXCLUSION
    ]
    fractions = np.random.default_rng(level_seed).uniform(
        CENSUS_MARGIN, 1.0 - CENSUS_MARGIN, CENSUS_LEVELS
    )
    levels = []
    for j, f in enumerate(fractions):
        bottom, width = bands[j % len(bands)]
        levels.append(bottom + width * float(f))
    return levels


def _census_record(spec, y: float) -> dict:
    check = levelsets.check_derivative_bounds(spec, y)
    h = 1e-6 * y
    upper = levelsets.superlevel_measure(spec, y + h)
    lower = levelsets.superlevel_measure(spec, y - h)
    record = dataclasses.asdict(check)
    record["fd_slope"] = (upper - lower) / (2.0 * h)
    record["slope_sum"] = levelsets.slope_sum(spec, y)
    return record


def _census(l: int, level_seed: int) -> list[dict]:
    try:
        spec = kernel.KernelSpec(l)
        levels = census_levels(l, level_seed)
    except Exception as exc:
        return [_failed(["census", l, -1], exc)]
    results = []
    for j, y in enumerate(levels):
        key = ["census", l, j]
        try:
            results.append(_ok(key, _census_record(spec, y)))
        except Exception as exc:
            results.append(_failed(key, exc))
    return results


def _wide_item(seed: int) -> dict:
    key = ["wide", seed]
    try:
        inst = epi.random_instance(seed, l_range=WIDE_L_RANGE)
        check = epi.check_rogozin(inst)
    except Exception as exc:
        return _failed(key, exc)
    record = dataclasses.asdict(check)
    record["l_indices"] = list(inst.l_indices)
    return _ok(key, record)


def execute(workload: str, inputs: dict, out_path: str) -> list[dict]:
    """Run one batch; the caller times this call and nothing else."""
    if workload == "norm-grid":
        ls, ps = inputs["lengths"], inputs["ps"]
        grid = ["--l", ",".join(map(str, ls)), "--p", ",".join(map(repr, ps))]
        results = []
        for command in ("certify", "sweep"):
            keys = [[command, l, p] for l in ls for p in ps]
            results += _cli_items(
                command, keys, grid, lambda k: ["--l", str(k[1]), "--p", repr(k[2])], out_path
            )
        return results
    if workload == "level-census":
        ls = inputs["np_lengths"]
        results = []
        if ls:
            results += _cli_items(
                "np-verify",
                [["np-verify", l] for l in ls],
                ["--l", ",".join(map(str, ls))],
                lambda k: ["--l", str(k[1])],
                out_path,
            )
        for l, level_seed in inputs["census"]:
            results += _census(l, level_seed)
        return results
    if workload == "epi-batch":
        results = []
        count = inputs["count"]
        for command, first in (("epi-check", inputs["epi_seed"]), ("rogozin", inputs["rogozin_seed"])):
            results += _cli_items(
                command,
                [[command, s] for s in range(first, first + count)],
                ["--random", str(count), "--seed", str(first)],
                lambda k: ["--random", "1", "--seed", str(k[1])],
                out_path,
            )
        return results
    if workload == "wide-support":
        first = inputs["first_seed"]
        return [_wide_item(s) for s in range(first, first + inputs["count"])]
    raise ValueError(f"unknown workload {workload!r}")


# ---- checking records -------------------------------------------------------


def _close(a: float, b: float, rel: float = REF_REL_TOL, abs_: float = REF_ABS_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _check_norm(key, r) -> str | None:
    _, l, p = key
    if (r["l"], r["p"]) != (l, p):
        return "row order"
    if not _close(r["bound"], math.sqrt(2.0 / (p * (l * l - 1)))):
        return "bound"
    if not _close(r["margin"], r["bound"] - r["value"]):
        return "margin"
    if not (0.0 < r["value"] and 0.0 <= r["error_estimate"]):
        return "value"
    if not r["value"] + r["error_estimate"] < r["bound"]:
        return "verdict"
    if p == 2.0 and abs(r["value"] * l - 1.0) > PARSEVAL_REL_TOL:
        return "parseval"
    if key[0] == "sweep":
        if not (r["asymptotic"] > 0.0 and _close(r["ratio"], r["value"] / r["asymptotic"])):
            return "ratio"
    return None


def _check_np_verify(key, r) -> str | None:
    if r["l"] != key[1]:
        return "row order"
    if not (r["crossings"] == 1 and r["F0_lt_G0"] and r["G_lt_F_above_y1"]):
        return "verdict"
    if not 0.0 < r["y0"] < 1.0:
        return "y0"
    return None


def _check_census(key, r) -> str | None:
    if r["l"] != key[1]:
        return "row order"
    if not (r["ok"] and r["root_count"] == r["expected_roots"]):
        return "verdict"
    if r["sum_inverse_slope"] < r["sum_lower_bound"] - SLACK or r["worst_bound_margin"] > SLACK:
        return "slope bound"
    if abs(r["fd_slope"] + r["slope_sum"]) > CENSUS_FD_REL_TOL * r["slope_sum"]:
        return "dG/dy"
    return None


def _check_epi(key, r) -> str | None:
    ls = r["l_indices"]
    if not all(EPI_L_RANGE[0] <= l <= EPI_L_RANGE[1] for l in ls) or r["l_min"] != min(ls):
        return "indices"
    split = max(ls) ** 2 / sum(l * l for l in ls) <= 0.5
    if r["case"] != ("holder_split" if split else "single_dominant"):
        return "case"
    # the paper's floors: 5/14 of sum N in general, 35/72 when every M = 1/l
    sum_n = r["floor_general"] * 14.0 / 5.0
    lmin = r["l_min"]
    if not (
        _close(r["rhs_general"], 0.5 * (lmin - 1) / (lmin + 1) * sum_n)
        and _close(r["floor_exact"], 35.0 / 72.0 * sum_n)
    ):
        return "rhs"
    if not (r["holds"] and r["lhs"] >= r["rhs_general"] - SLACK):
        return "verdict"
    if r["rhs_exact_M"] is not None and r["lhs"] < r["rhs_exact_M"] - SLACK:
        return "verdict"
    return None


def _check_rogozin(key, r) -> str | None:
    if key[0] == "rogozin" and r["seed"] != key[1]:
        return "row order"
    if key[0] == "wide" and not all(WIDE_L_RANGE[0] <= l <= WIDE_L_RANGE[1] for l in r["l_indices"]):
        return "indices"
    if not 0.0 < r["max_prob"] <= 1.0 or not _close(r["gap"], r["max_prob_uniform"] - r["max_prob"]):
        return "gap"
    if not (r["ok"] and r["max_prob"] <= r["max_prob_uniform"] + ROGOZIN_SLACK):
        return "verdict"
    return None


_CHECKS = {
    "certify": _check_norm,
    "sweep": _check_norm,
    "np-verify": _check_np_verify,
    "census": _check_census,
    "epi-check": _check_epi,
    "rogozin": _check_rogozin,
    "wide": _check_rogozin,
}


def check_items(results: list[dict]) -> list[str | None]:
    """Per item, why it failed (its error or the first failed check), or None.

    Besides each record's own checks, ``sweep`` and ``certify`` must report
    the same norm for the same (l, p): both integrate the same quantity.
    """
    reasons = []
    for item in results:
        if "error" in item:
            reasons.append(item["error"])
            continue
        try:
            reasons.append(_CHECKS[item["key"][0]](item["key"], item["record"]))
        except (KeyError, TypeError) as exc:
            reasons.append(f"malformed record: {exc!r}")
    certified = {
        tuple(item["key"][1:]): item["record"]["value"]
        for item, reason in zip(results, reasons)
        if item["key"][0] == "certify" and reason is None
    }
    for i, item in enumerate(results):
        if item["key"][0] == "sweep" and reasons[i] is None:
            value = certified.get(tuple(item["key"][1:]))
            if value is not None and not _close(item["record"]["value"], value):
                reasons[i] = "sweep != certify"
    return reasons


# ---- stored reference -------------------------------------------------------


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and not isinstance(a, bool)
            and not isinstance(b, bool)
            and _close(float(a), float(b))
        )
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def compare_reference(results: list[dict], reference: dict):
    """(mismatch per item, bit_identical) against the stored reference items.

    Keys, error names, verdicts and every non-float field must be equal;
    floats must agree within REF_REL_TOL / REF_ABS_TOL.  ``bit_identical``
    additionally requires every float to be equal.  Only the stored items
    are compared; a batch of another size mismatches as a whole.
    """
    mismatch = [False] * len(results)
    if len(results) != reference["attempted"]:
        return [True] * len(results), False
    identical = True
    for index, stored in reference["items"]:
        mismatch[index] = not _same(results[index], stored)
        identical = identical and results[index] == stored
    return mismatch, identical


def write_reference(path: str, results: list[dict]) -> None:
    """Store REFERENCE_ITEMS items of a batch, picked at random once.

    One line per stored item: its index in the batch, its key, then its
    record's values or its error name.  Field names are stored once per
    record kind, in ``fields``.
    """
    count = min(len(results), REFERENCE_ITEMS)
    picks = sorted(np.random.default_rng(0).choice(len(results), count, replace=False).tolist())
    fields: dict[str, list[str]] = {}
    lines = []
    for index in picks:
        item = results[index]
        key = item["key"]
        if "error" in item:
            lines.append([index, key, item["error"]])
            continue
        names = fields.setdefault(key[0], list(item["record"]))
        if list(item["record"]) != names:
            raise ValueError(f"record fields of {key} differ from {names}")
        lines.append([index, key, [item["record"][n] for n in names]])
    with open(path, "w") as fh:
        fh.write(f'{{"attempted": {len(results)},\n"fields": {json.dumps(fields)},\n"items": [\n')
        fh.write(",\n".join(json.dumps(line, separators=(",", ":")) for line in lines))
        fh.write("\n]}\n")


def read_reference(path: str) -> dict:
    """The stored reference: ``attempted`` and (index, item) pairs."""
    with open(path) as fh:
        data = json.load(fh)
    fields = data["fields"]
    items = [
        (index, _err(key, body) if isinstance(body, str) else _ok(key, dict(zip(fields[key[0]], body))))
        for index, key, body in data["items"]
    ]
    return {"attempted": data["attempted"], "items": items}
