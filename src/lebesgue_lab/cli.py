"""Command-line front end: sweeps, verification suites, and report files.

Reports embed the fully resolved run configuration, use round-trip float
formatting, and are written atomically (temp file + rename).  Exit status is
0 when every assertion passed, 1 on a verification failure, 2 on usage
errors and on random instances that could not be generated (a generation
budget ran out or a convolution outgrew its support cap).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import acceptance
from .epi import (
    check_epis,
    check_rogozin,
    handcrafted_corpus,
    load_instances,
    random_instances,
)
from .errors import (
    ConvolutionOverflowError,
    DomainError,
    GenerationError,
    PreconditionError,
    VerificationError,
)
from .kernel import KernelSpec, TruncatedGaussian, gaussian_values, kernel_values
from .levelsets import bump_profiles, detect_sign_changes
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    ball_integral,
    certify_bound_grid,
    lp_norm_grid,
    sinc_power_bound,
)

@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    output_path: str
    format: str
    seed: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def parse_int_range(text: str) -> list[int]:
    """``a..b`` (inclusive) or a comma-separated list."""
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok]


def parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ";".join(_fmt(item) for item in v)  # keep CSV cells comma-free
    return str(v)


def _atomic_write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(config: RunConfig, columns, records) -> None:
    """Emit each record's ``columns`` as JSON or CSV with the resolved config embedded.

    A record is a result dataclass, whose columns are its attributes, or a
    dict, whose columns are its keys.  JSON writes a non-finite column as
    null, since RFC 8259 has no NaN or infinity; CSV writes ``nan``.
    """
    rows = [{k: r[k] if isinstance(r, dict) else getattr(r, k) for k in columns} for r in records]
    if config.format == "json":
        payload = {"config": config.as_dict(), "records": rows}
        try:  # only a report with a non-finite column pays for a second pass
            text = json.dumps(payload, indent=2, allow_nan=False)
        except ValueError:
            payload["records"] = [
                {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in r.items()} for r in rows
            ]
            text = json.dumps(payload, indent=2, allow_nan=False)
        _atomic_write(config.output_path, text + "\n")
        return
    out = io.StringIO()
    out.writelines(f"# {k}={_fmt(v)}\n" for k, v in sorted(config.as_dict().items()) if k != "parameters")
    out.writelines(f"# param:{k}={_fmt(v)}\n" for k, v in sorted(config.parameters.items()))
    writer = csv.writer(out, lineterminator="\n")  # quotes only a cell with a comma, a quote or a line break
    writer.writerow(columns)
    writer.writerows([_fmt(row[k]) for k in columns] for row in rows)
    _atomic_write(config.output_path, out.getvalue())


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


# command -> (help, record function of ((l, p) pairs, cfg), report columns) for
# the (l, p) grid commands; a record function returns one record per pair, and
# certify_bound_grid raises on a failed certificate, which fails the whole
# command
_GRID_COMMANDS = {
    "lebesgue": (
        "kernel norms over an (l, p) grid",
        lp_norm_grid,
        ("l", "p", "value", "bound", "asymptotic", "error_estimate", "converged"),
    ),
    "certify": (
        "certify the norm bound over an (l, p) grid",
        certify_bound_grid,
        ("l", "p", "value", "bound", "margin", "error_estimate"),
    ),
    "asymptotic": (
        "ratios to first-order references",
        lp_norm_grid,
        ("l", "p", "value", "asymptotic", "ratio"),
    ),
    "sweep": (
        "norms, bounds, and ratios in one table",
        lp_norm_grid,
        ("l", "p", "value", "bound", "margin", "asymptotic", "ratio", "error_estimate"),
    ),
}


def _cmd_grid(config: RunConfig, args) -> int:
    _, record, columns = _GRID_COMMANDS[config.command]
    cfg = _quad_config(args)
    ls, ps = parse_int_range(args.l), parse_float_list(args.p)
    # one call for the whole grid; without exponents no length is read, as in a loop over (l, p)
    write_report(config, columns, record([(l, p) for l in ls for p in ps], cfg))
    return 0


def _cmd_ball(config: RunConfig, args) -> int:
    cfg = _quad_config(args)
    rows = []
    for p in parse_float_list(args.p):
        v = ball_integral(p, cfg)
        bound = sinc_power_bound(p)
        rows.append({"p": p, "value": v, "bound": bound, "margin": bound - v})
    write_report(config, ("p", "value", "bound", "margin"), rows)
    return 0


def _cmd_np_verify(config: RunConfig, args) -> int:
    reports = detect_sign_changes([KernelSpec(l) for l in parse_int_range(args.l)])
    write_report(config, ("l", "y0", "crossings", "F0_lt_G0", "G_lt_F_above_y1"), reports)
    return 0


def _random_instances(config: RunConfig, args):
    """The ``--random`` instances from seed ``--seed`` on, generated in blocks."""
    seeds = range(config.seed, config.seed + args.random)
    return random_instances(seeds, n_range=(args.n_min, args.n_max), l_range=(args.lmin, args.lmax))


def _extra_instances(args):
    """The handcrafted corpus and the ``--instances`` file, read once the random ones are checked."""
    if args.corpus:
        yield from handcrafted_corpus()
    if args.instances:
        yield from load_instances(args.instances)


def _cmd_epi_check(config: RunConfig, args) -> int:
    instances = itertools.chain(_random_instances(config, args), _extra_instances(args))
    reports = check_epis(instances, cfg=_quad_config(args), with_chain=not args.no_chain)
    write_report(
        config,
        ("l_indices", "l_min", "case", "lhs", "rhs_general", "rhs_exact_M",
         "floor_general", "floor_exact", "holds"),
        reports,
    )
    return 0 if all(r.holds for r in reports) else 1


def _cmd_rogozin(config: RunConfig, args) -> int:
    rows = [{"seed": inst.seed, **vars(check_rogozin(inst))} for inst in _random_instances(config, args)]
    write_report(config, ("seed", "max_prob", "max_prob_uniform", "gap", "ok"), rows)
    return 0 if all(r["ok"] for r in rows) else 1


def _cmd_suite(config: RunConfig, args) -> int:
    # progress goes to stderr, so that the report alone goes to stdout for --out -
    results = acceptance.run_all(printer=lambda line: print(line, file=sys.stderr, flush=True))
    write_report(config, ("name", "ok", "detail", "seconds"), results)
    return 0 if all(r.ok for r in results) else 1


def emit_plot_data(spec: KernelSpec, resolution: int, out: str) -> None:
    """Write x, g(x), f(x) samples plus the level lines needed to redraw them.

    The metadata comments carry each arch peak level and the Gaussian floor,
    which is everything a plotting tool needs to reproduce the comparison
    picture for this length.
    """
    if resolution < 100:
        raise PreconditionError(f"resolution must be >= 100, got {resolution}")
    tg = TruncatedGaussian.from_length(spec.l)
    xs = np.linspace(0.0, 0.5, resolution)
    gs = kernel_values(spec.l, xs)
    fs = gaussian_values(tg, xs)
    comments = [
        f"# l={spec.l}",
        f"# x_c={tg.x_c!r}",
    ]
    for prof in bump_profiles(spec)[1:]:
        comments.append(f"# level:y_{prof.index}={prof.peak_y!r}")
    comments.append(f"# level:y_last={tg.y_last!r}")
    lines = comments + ["x,g,f"]
    for x, g, f in zip(xs.tolist(), gs.tolist(), fs.tolist()):
        lines.append(f"{x!r},{g!r},{f!r}")
    _atomic_write(out, "\n".join(lines) + "\n")


def _cmd_plot_data(config: RunConfig, args) -> int:
    emit_plot_data(KernelSpec(args.l), args.resolution, config.output_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lebesgue-lab",
        description="Kernel norm bounds, level-set comparison checks, and the "
        "discrete max-entropy power inequality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def report(p):
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="default: by file extension, else json")

    def tolerances(p):
        p.add_argument("--abs-tol", type=float, default=DEFAULT_CONFIG.abs_tol)
        p.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol)

    def random_batch(p):
        p.add_argument("--random", type=int, default=100)
        p.add_argument("--seed", type=int, default=0, help="seed of the first instance")
        p.add_argument("--lmin", type=int, default=6)
        p.add_argument("--lmax", type=int, default=30)
        p.add_argument("--n-min", type=int, default=2)
        p.add_argument("--n-max", type=int, default=5)

    for name, (help_text, _, _) in _GRID_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--l", required=True)
        p.add_argument("--p", required=True)
        report(p)
        tolerances(p)

    p = sub.add_parser("ball", help="sinc-power integrals with their bound")
    p.add_argument("--p", required=True)
    report(p)
    tolerances(p)

    p = sub.add_parser("np-verify", help="sign-change reports per kernel length")
    p.add_argument("--l", required=True)
    report(p)

    p = sub.add_parser("epi-check", help="entropy power inequality on random instances")
    random_batch(p)
    p.add_argument("--corpus", action="store_true", help="include the handcrafted corpus")
    p.add_argument("--instances", default=None,
                   help="corpus file: JSON array of pmf-object arrays")
    p.add_argument("--no-chain", action="store_true", help="skip the bound chain")
    report(p)
    tolerances(p)

    p = sub.add_parser("rogozin", help="uniformization comparison on random instances")
    random_batch(p)
    report(p)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    report(p)

    p = sub.add_parser("plot-data", help="sample g and f plus level lines to CSV")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--resolution", type=int, default=2000)
    p.add_argument("--out", default="plot.csv", help="CSV output path ('-' for stdout)")

    return parser


_HANDLERS = {
    **dict.fromkeys(_GRID_COMMANDS, _cmd_grid),
    "ball": _cmd_ball,
    "np-verify": _cmd_np_verify,
    "epi-check": _cmd_epi_check,
    "rogozin": _cmd_rogozin,
    "suite": _cmd_suite,
    "plot-data": _cmd_plot_data,
}


def _infer_format(out: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    if out.endswith(".csv"):
        return "csv"
    return "json"


def run(args) -> int:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "out", "format", "seed") and v is not None
    }
    config = RunConfig(
        command=args.command,
        parameters=params,
        output_path=args.out,
        format=_infer_format(args.out, getattr(args, "format", None)),
        seed=getattr(args, "seed", 0),
    )
    try:
        return _HANDLERS[args.command](config, args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (
        DomainError,
        PreconditionError,
        ValueError,
        GenerationError,
        ConvolutionOverflowError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = run(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
