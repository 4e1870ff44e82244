"""Command-line front end: sweeps, verification suites, and report files.

Every command is one row of ``_COMMANDS`` (help, handler, flag groups); a
call that names its command builds that command's parser alone, with the
usage texts of the full parser.  Reports embed the fully resolved run
configuration, use round-trip float formatting, and are written atomically
(temp file + rename); a JSON report is one compact line.  Exit status is 0
when every assertion passed, 1 on a verification failure, 2 on usage errors,
on a report that cannot be written (its directory is checked before any
work) and on random instances that could not be generated (a generation
budget ran out or a convolution outgrew its support cap).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
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
    DEFAULT_L_RANGE,
    DEFAULT_N_RANGE,
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
    ball_integral_grid,
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
            text = json.dumps(payload, allow_nan=False)
        except ValueError:
            payload["records"] = [
                {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in r.items()} for r in rows
            ]
            text = json.dumps(payload, allow_nan=False)
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


def _cmd_grid(record, columns, config: RunConfig, args) -> int:
    """An (l, p) grid command: ``record`` maps ((l, p) pairs, cfg) to one record per pair."""
    cfg = _quad_config(args)
    ls, ps = parse_int_range(args.l), parse_float_list(args.p)
    # one call for the whole grid; without exponents no length is read, as in a loop over (l, p)
    write_report(config, columns, record([(l, p) for l in ls for p in ps], cfg))
    return 0


def _cmd_ball(config: RunConfig, args) -> int:
    ps = parse_float_list(args.p)
    rows = []
    for p, v in zip(ps, ball_integral_grid(ps, _quad_config(args))):
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
    if args.random < 0:
        raise DomainError(f"--random must be >= 0, got {args.random}")
    if config.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {config.seed}")
    seeds = range(config.seed, config.seed + args.random)
    return random_instances(seeds, n_range=(args.n_min, args.n_max), l_range=(args.lmin, args.lmax))


def _extra_instances(args):
    """The handcrafted corpus and the ``--instances`` file, read once the random ones are checked."""
    if args.corpus:
        yield from handcrafted_corpus()
    if args.instances:
        yield from load_instances(args.instances)


def _cmd_epi_check(config: RunConfig, args) -> int:
    reports = check_epis(itertools.chain(_random_instances(config, args), _extra_instances(args)))
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


# flag groups: (flag, add_argument keywords) pairs, added in order
_LENGTHS = (("--l", dict(required=True)),)
_EXPONENTS = (("--p", dict(required=True)),)
_REPORT = (
    ("--out", dict(default="-", help="output path ('-' for stdout)")),
    ("--format", dict(choices=("json", "csv"), default=None, help="default: by file extension, else json")),
)
_TOLERANCES = (
    ("--abs-tol", dict(type=float, default=DEFAULT_CONFIG.abs_tol)),
    ("--rel-tol", dict(type=float, default=DEFAULT_CONFIG.rel_tol)),
)
_BATCH = (
    ("--random", dict(type=int, default=100)),
    ("--seed", dict(type=int, default=0, help="seed of the first instance")),
    ("--lmin", dict(type=int, default=DEFAULT_L_RANGE[0])),
    ("--lmax", dict(type=int, default=DEFAULT_L_RANGE[1])),
    ("--n-min", dict(type=int, default=DEFAULT_N_RANGE[0])),
    ("--n-max", dict(type=int, default=DEFAULT_N_RANGE[1])),
)
_CORPUS = (
    ("--corpus", dict(action="store_true", help="include the handcrafted corpus")),
    ("--instances", dict(default=None, help="corpus file: JSON array of pmf-object arrays")),
)
_PLOT = (
    ("--l", dict(type=int, required=True)),
    ("--resolution", dict(type=int, default=2000)),
    ("--out", dict(default="plot.csv", help="CSV output path ('-' for stdout)")),
)
_GRID = (_LENGTHS, _EXPONENTS, _REPORT, _TOLERANCES)

# command -> (help, handler of (config, args), flag groups), in the order of the
# help listing; certify_bound_grid raises on a failed certificate, which fails
# the whole command
_COMMANDS = {
    "lebesgue": (
        "kernel norms over an (l, p) grid",
        functools.partial(_cmd_grid, lp_norm_grid,
                          ("l", "p", "value", "bound", "asymptotic", "error_estimate", "converged")),
        _GRID,
    ),
    "certify": (
        "certify the norm bound over an (l, p) grid",
        functools.partial(_cmd_grid, certify_bound_grid, ("l", "p", "value", "bound", "margin", "error_estimate")),
        _GRID,
    ),
    "asymptotic": (
        "ratios to first-order references",
        functools.partial(_cmd_grid, lp_norm_grid, ("l", "p", "value", "asymptotic", "ratio")),
        _GRID,
    ),
    "sweep": (
        "norms, bounds, and ratios in one table",
        functools.partial(_cmd_grid, lp_norm_grid,
                          ("l", "p", "value", "bound", "margin", "asymptotic", "ratio", "error_estimate")),
        _GRID,
    ),
    "ball": ("sinc-power integrals with their bound", _cmd_ball, (_EXPONENTS, _REPORT, _TOLERANCES)),
    "np-verify": ("sign-change reports per kernel length", _cmd_np_verify, (_LENGTHS, _REPORT)),
    "epi-check": ("entropy power inequality on random instances", _cmd_epi_check,
                  (_BATCH, _CORPUS, _REPORT)),
    "rogozin": ("uniformization comparison on random instances", _cmd_rogozin, (_BATCH, _REPORT)),
    "suite": ("run the full acceptance battery", _cmd_suite, (_REPORT,)),
    "plot-data": ("sample g and f plus level lines to CSV", _cmd_plot_data, (_PLOT,)),
}


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The parser of the named ``commands`` (default: all), with every usage text of the full parser."""
    parser = argparse.ArgumentParser(
        prog="lebesgue-lab",
        description="Kernel norm bounds, level-set comparison checks, and the "
        "discrete max-entropy power inequality.",
    )
    # a partial parser names every command in its usage line, as the full one does
    metavar = None if commands is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, _, groups) in _COMMANDS.items():
        if commands is None or name in commands:
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in itertools.chain(*groups):
                p.add_argument(flag, **kwargs)
    return parser


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
        if args.out != "-" and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise PreconditionError(f"output directory of {args.out!r} does not exist")
        return _COMMANDS[args.command][1](config, args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (
        DomainError,
        PreconditionError,
        ValueError,
        GenerationError,
        ConvolutionOverflowError,
        OSError,  # the report could not be written
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else argv
    # a call that names its command builds that command's parser alone
    args = build_parser([words[0]] if words and words[0] in _COMMANDS else None).parse_args(words)
    code = run(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
