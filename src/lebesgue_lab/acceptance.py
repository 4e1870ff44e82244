"""The acceptance battery: every headline claim checked at its stated tolerance.

Each criterion is a check returning (ok, detail) under the ``_criterion``
wrapper, which times it, turns a :class:`VerificationError` into a failed
result and returns an :class:`AcceptanceResult`; ``run_all`` executes the
battery in order.  The checks are deliberately independent of each other so
a failure pinpoints the broken subsystem.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .epi import (
    DEFAULT_L_RANGE,
    EXACT_FLOOR,
    GENERAL_FLOOR,
    EpiInstance,
    check_epis,
    check_rogozin,
    handcrafted_corpus,
    make_instance,
    random_instances,
)
from .errors import VerificationError
from .kernel import KernelSpec, check_first_arch_domination
from .levelsets import (
    PEAK_EXCLUSION,
    TruncatedGaussian,
    bump_profiles,
    check_derivative_bounds_many,
    comparison_functional,
    detect_sign_changes,
    superlevel_measure_many,
)
from .pmf import convolve, entropy_summary, uniform
from .quadrature import (
    ball_integral_grid,
    certify_bound_grid,
    integrate_kernel_power_grid,
    lp_norm_grid,
    sinc_power_bound,
)

CERT_L_RANGE = range(6, 65)
CERT_P_GRID = (2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0)
FUNCTIONAL_P_GRID = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
EPI_SEEDS = range(10_000)


@dataclass(frozen=True)
class AcceptanceResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _criterion(name: str):
    """Decorator: the check, which returns (ok, detail), as criterion ``name``.

    The criterion times the check and returns an :class:`AcceptanceResult`;
    a :class:`VerificationError` raised by the check fails it with the
    error's message.
    """

    def wrap(check):
        @functools.wraps(check)
        def criterion() -> AcceptanceResult:
            t0 = time.perf_counter()
            try:
                ok, detail = check()
            except VerificationError as exc:
                ok, detail = False, str(exc)
            return AcceptanceResult(name=name, ok=ok, detail=detail, seconds=time.perf_counter() - t0)

        return criterion

    return wrap


@_criterion("bound certification")
def criterion_bound_certification():
    """Norm + error below sqrt(2/(p(l^2-1))) across the whole (l, p) grid."""
    margins = [c.margin for c in certify_bound_grid([(l, p) for l in CERT_L_RANGE for p in CERT_P_GRID])]
    return True, f"{len(margins)}/{len(margins)} pass, min margin {min(margins):.3e}"


@_criterion("parseval identity")
def criterion_parseval():
    """|norm(l, 2) - 1/l| <= 1e-9 for l = 2..128."""
    ls = range(2, 129)
    norms = integrate_kernel_power_grid([(l, 2.0) for l in ls])
    worst = max(abs(value - 1.0 / l) for l, (value, _, _) in zip(ls, norms))
    return worst <= 1e-9, f"max |norm - 1/l| = {worst:.3e}"


@_criterion("sinc-power integral")
def criterion_ball_integral():
    """Sinc-power anchors 1 and 2/3, and strict sqrt(2/p) domination."""
    strict = (2.5, 3.0, 4.0, 8.0, 16.0)
    v2, v4, *values = ball_integral_grid((2.0, 4.0, *strict))
    checks = [abs(v2 - 1.0) <= 1e-9, abs(v4 - 2.0 / 3.0) <= 1e-9]
    margins = []
    for p, v in zip(strict, values):
        margins.append(sinc_power_bound(p) - v)
        checks.append(v < sinc_power_bound(p))
    return all(checks), (
        f"|I(2)-1|={abs(v2 - 1.0):.2e}, |I(4)-2/3|={abs(v4 - 2.0 / 3.0):.2e}, "
        f"min strict margin {min(margins):.3e}"
    )


@_criterion("asymptotic coincidence")
def criterion_asymptotics():
    """Ratios to the first-order references converge the right way."""
    # one batch: the ratios at p = 1, 2, 4 per length, and at p = 1 alone for l = 1000
    ratios = {}
    grid = [(l, p) for l in (50, 100, 200, 400, 1000) for p in ((1.0, 2.0, 4.0) if l < 1000 else (1.0,))]
    for r in lp_norm_grid(grid):
        ratios.setdefault(r.l, []).append(r.ratio)
    ok = True
    notes = []
    for column, p in ((1, 2.0), (2, 4.0)):
        devs = [abs(ratios[l][column] - 1.0) for l in (50, 100, 200, 400)]
        if devs[-1] > 0.02:
            ok = False
        # deviations must shrink along the doubling sequence; 1e-9 absorbs the
        # rounding floor reached when the reference is exact (p = 2)
        if not all(devs[i + 1] <= devs[i] + 1e-9 for i in range(3)):
            ok = False
        notes.append(f"p={p:g}: dev@400={devs[-1]:.2e}")
    ones = [r[0] for r in ratios.values()]
    if not 0.8 <= ones[-1] <= 1.6:
        ok = False
    if not all(ones[i + 1] < ones[i] for i in range(4)):
        ok = False
    notes.append(f"p=1: ratio@1000={ones[-1]:.4f}")
    return ok, "; ".join(notes)


@_criterion("sign change and monotone functional")
def criterion_sign_change():
    """One proven sign change, Phi(2) >= 0, and a monotone comparison functional.

    The crossing and Phi(2) >= 0 at every length l = 6..30 that the battery's
    chains rest on; monotonicity over ``FUNCTIONAL_P_GRID`` at l = 6..12.
    """
    lo, hi = DEFAULT_L_RANGE
    reports = detect_sign_changes([KernelSpec(l) for l in range(lo, hi + 1)])
    bases = []
    for r in reports:
        spec = KernelSpec(r.l)
        ps = FUNCTIONAL_P_GRID if r.l <= 12 else FUNCTIONAL_P_GRID[:1]
        values = [comparison_functional(spec, p, r.y0) for p in ps]
        # Phi(2) >= 0 is the base case that the monotonicity carries to every p >= 2
        if not values[0] >= 0.0:
            return False, f"comparison functional negative at l={r.l}, p=2: {values[0]!r}"
        bases.append(values[0])
        for a, b in zip(values, values[1:]):
            if b < a - 1e-9 * max(1.0, abs(a)):
                return False, f"comparison functional not monotone at l={r.l}: {a!r} -> {b!r}"
    margin = min(r.margin for r in reports)
    return True, (
        f"single crossing proven and min Phi(2) {min(bases):.3e} >= 0 for l={lo}..{hi} "
        f"(min band margin {margin:.4f}); functional nondecreasing over p for l=6..12"
    )


@_criterion("first-arch domination")
def criterion_first_arch_domination():
    """Gaussian domination of the first arch on dense grids, l = 2..50."""
    worst = -math.inf
    for l in range(2, 51):
        report = check_first_arch_domination(KernelSpec(l), 10_000)
        worst = max(worst, report.max_diff)
        if not report.ok or report.violation_count:
            return False, f"violation at l={l}: {report}"
    return True, f"0 violations, max diff {worst:.3e}; the log-sinc series lemma (kernel.py) proves it for every l"


# levels per peak-to-peak band in the slope census
_BAND_LEVELS = 50


def _band_levels(spec: KernelSpec):
    """Levels inside every peak-to-peak band, clear of the exclusion windows."""
    profs = bump_profiles(spec)
    tg = TruncatedGaussian.from_length(spec.l)
    peaks = [p.peak_y for p in profs[1:]]
    edges = [max(p, tg.y_last) for p in peaks] + [tg.y_last]
    for top, bottom in zip(edges[:-1], edges[1:]):
        if top - bottom < 10 * PEAK_EXCLUSION:
            continue
        # fractions keep a 2% margin so finite differences never cross a knot
        for f in np.linspace(0.02, 0.98, _BAND_LEVELS):
            yield bottom + (top - bottom) * float(f)


@_criterion("slope census")
def criterion_slope_census():
    """Root census, slope caps, and the slope-sum identity for G'."""
    checked = 0
    worst_rel = 0.0
    for l in (6, 8, 9, 12):
        spec = KernelSpec(l)
        ys = np.array(list(_band_levels(spec)))
        s = np.array([check.sum_inverse_slope for check in check_derivative_bounds_many(spec, ys)])
        h = 1e-6 * ys
        upper, lower = np.split(superlevel_measure_many(spec, np.concatenate([ys + h, ys - h])), 2)
        fd = (upper - lower) / (2.0 * h)
        rel = np.abs(-fd - s) / s
        if (rel > 1e-4).any():
            i = int(np.argmax(rel > 1e-4))
            return False, f"dG/dy mismatch {rel[i]:.2e} at l={l}, y={ys[i]}"
        worst_rel = max(worst_rel, float(rel.max()))
        checked += len(ys)
    return True, f"{checked} levels, worst dG/dy mismatch {worst_rel:.2e}"


@functools.cache
def _epi_instances() -> tuple[EpiInstance, ...]:
    # both entropy-power criteria check this batch; its weights are read-only
    return tuple(random_instances(EPI_SEEDS))


@_criterion("entropy power suite")
def criterion_epi_suite():
    """Entropy power inequality over the random batch, corpus, and floors.

    The detail gives the smallest exact chain margin 1 - m0/m4 of the batch.
    """
    reports = check_epis(_epi_instances())
    n_exact = sum(report.rhs_exact_M is not None for report in reports)
    corpus = handcrafted_corpus()
    check_epis(corpus)
    # every chain the batch decided, as its sorted indices: the decision is symmetric in them
    chains = {tuple(sorted(r.l_indices)): r.chain for r in reports if r.chain is not None}
    # int / int: the exact margin, correctly rounded
    margin, worst = min(((rhs - lhs) / rhs, ls) for ls, (lhs, rhs) in chains.items())
    floors_ok = (
        0.5 * (6 - 1) / (6 + 1) == GENERAL_FLOOR and 0.5 * (36 - 1) / 36 == EXACT_FLOOR
    )
    return floors_ok, (
        f"{len(EPI_SEEDS)} random + {len(corpus)} corpus instances hold; "
        f"{n_exact} exact-index; min exact chain margin 1 - m0/m4 = {margin:.4e} "
        f"at {worst} over {len(chains)} index tuples; "
        f"floors at l_min=6 {'match' if floors_ok else 'DIFFER'}"
    )


@_criterion("uniformization suite")
def criterion_rogozin_suite():
    """Uniformization comparison over the same batch, equality at uniforms to an ulp."""
    for inst in _epi_instances():
        check_rogozin(inst)
    # the uniform side is exact and the convolved side float, so at a
    # uniform instance the two agree to the last bit of the maximum
    ulps = []
    for ls in ((6, 6), (7, 11), (6, 8, 10), (9, 9, 9, 9)):
        check = check_rogozin(make_instance([uniform(l) for l in ls]))
        ulps.append(check.gap / np.spacing(check.max_prob_uniform))
    return all(abs(u) <= 1.0 for u in ulps), (
        f"{len(EPI_SEEDS)} instances hold; uniform-instance gaps "
        f"[{', '.join(f'{u:+g}' for u in ulps)}] ulps"
    )


@_criterion("sharpness witnesses")
def criterion_sharpness():
    """Self-convolution of a uniform law keeps its entropy power (to rounding)."""
    worst = 0.0
    for l in range(6, 21):
        u = uniform(l)
        n_single = entropy_summary(u).N_inf
        n_sum = entropy_summary(convolve(u, u)).N_inf
        worst = max(worst, abs(n_sum - n_single) / n_single)
    # the identity is exact in real arithmetic; float convolution wobbles the
    # maximum by at most a couple of ulps
    sharp_ok = worst <= 1e-13
    const_ratio = (100**2 - 1) / (101**2)
    const_ok = abs(const_ratio - 1.0) <= 0.05
    return sharp_ok and const_ok, (
        f"max rel gap {worst:.2e}; equal-index constant at l=100 is {const_ratio:.4f} of limit"
    )


CRITERIA = (
    criterion_bound_certification,
    criterion_parseval,
    criterion_ball_integral,
    criterion_asymptotics,
    criterion_sign_change,
    criterion_first_arch_domination,
    criterion_slope_census,
    criterion_epi_suite,
    criterion_rogozin_suite,
    criterion_sharpness,
)


def run_all(printer=None) -> list[AcceptanceResult]:
    results = []
    for i, criterion in enumerate(CRITERIA, start=1):
        res = criterion()
        results.append(res)
        if printer is not None:
            status = "PASS" if res.ok else "FAIL"
            printer(f"[{i:2d}/{len(CRITERIA)}] {status}  {res.name}: {res.detail} ({res.seconds:.1f}s)")
    return results
