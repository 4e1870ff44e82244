"""The acceptance battery: every headline claim checked at its stated tolerance.

Each criterion function returns an :class:`AcceptanceResult`; ``run_all``
executes the battery in order.  The checks are deliberately independent of
each other so a failure pinpoints the broken subsystem.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .epi import (
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
    check_derivative_bounds,
    comparison_functional,
    detect_sign_change,
    superlevel_measure,
)
from .pmf import convolve, entropy_summary, uniform
from .quadrature import (
    QuadratureConfig,
    ball_integral,
    certify_bound,
    integrate_kernel_power,
    lp_norm,
    sinc_power_bound,
)

CERT_L_RANGE = range(6, 65)
CERT_P_GRID = (2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0)
FUNCTIONAL_P_GRID = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
EPI_SEEDS = range(10_000)

# the randomized batches certify chains with margins above 1e-3 relative, so
# a slightly relaxed tolerance buys a large constant factor in runtime
BATCH_CFG = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)


@dataclass(frozen=True)
class AcceptanceResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _result(name: str, started: float, ok: bool, detail: str) -> AcceptanceResult:
    return AcceptanceResult(name=name, ok=ok, detail=detail, seconds=time.perf_counter() - started)


def criterion_bound_certification() -> AcceptanceResult:
    """Norm + error below sqrt(2/(p(l^2-1))) across the whole (l, p) grid."""
    t0 = time.perf_counter()
    count = 0
    min_margin = math.inf
    try:
        for l in CERT_L_RANGE:
            spec = KernelSpec(l)
            for p in CERT_P_GRID:
                cert = certify_bound(spec, p)
                min_margin = min(min_margin, cert.margin)
                count += 1
    except VerificationError as exc:
        return _result("bound certification", t0, False, str(exc))
    return _result(
        "bound certification", t0, True, f"{count}/{count} pass, min margin {min_margin:.3e}"
    )


def criterion_parseval() -> AcceptanceResult:
    """|norm(l, 2) - 1/l| <= 1e-9 for l = 2..128."""
    t0 = time.perf_counter()
    worst = 0.0
    for l in range(2, 129):
        value, _, _ = integrate_kernel_power(KernelSpec(l), 2.0)
        worst = max(worst, abs(value - 1.0 / l))
    return _result("parseval identity", t0, worst <= 1e-9, f"max |norm - 1/l| = {worst:.3e}")


def criterion_ball_integral() -> AcceptanceResult:
    """Sinc-power anchors 1 and 2/3, and strict sqrt(2/p) domination."""
    t0 = time.perf_counter()
    try:
        v2 = ball_integral(2.0)
        v4 = ball_integral(4.0)
        checks = [abs(v2 - 1.0) <= 1e-9, abs(v4 - 2.0 / 3.0) <= 1e-9]
        margins = []
        for p in (2.5, 3.0, 4.0, 8.0, 16.0):
            v = ball_integral(p)
            margins.append(sinc_power_bound(p) - v)
            checks.append(v < sinc_power_bound(p))
    except VerificationError as exc:
        return _result("sinc-power integral", t0, False, str(exc))
    ok = all(checks)
    return _result(
        "sinc-power integral",
        t0,
        ok,
        f"|I(2)-1|={abs(v2 - 1.0):.2e}, |I(4)-2/3|={abs(v4 - 2.0 / 3.0):.2e}, "
        f"min strict margin {min(margins):.3e}",
    )


def criterion_asymptotics() -> AcceptanceResult:
    """Ratios to the first-order references converge the right way."""
    t0 = time.perf_counter()
    ok = True
    notes = []
    for p in (2.0, 4.0):
        devs = [abs(lp_norm(KernelSpec(l), p).ratio - 1.0) for l in (50, 100, 200, 400)]
        if devs[-1] > 0.02:
            ok = False
        # deviations must shrink along the doubling sequence; 1e-9 absorbs the
        # rounding floor reached when the reference is exact (p = 2)
        if not all(devs[i + 1] <= devs[i] + 1e-9 for i in range(3)):
            ok = False
        notes.append(f"p={p:g}: dev@400={devs[-1]:.2e}")
    ratios = [lp_norm(KernelSpec(l), 1.0).ratio for l in (50, 100, 200, 400, 1000)]
    if not 0.8 <= ratios[-1] <= 1.6:
        ok = False
    if not all(ratios[i + 1] < ratios[i] for i in range(4)):
        ok = False
    notes.append(f"p=1: ratio@1000={ratios[-1]:.4f}")
    return _result("asymptotic coincidence", t0, ok, "; ".join(notes))


def criterion_sign_change() -> AcceptanceResult:
    """One sign change per length, and a monotone comparison functional."""
    t0 = time.perf_counter()
    try:
        y0s = {}
        for l in range(6, 17):
            spec = KernelSpec(l)
            scan = np.geomspace(1e-4, 1.0 - 1e-6, 1000)
            report = detect_sign_change(spec, scan)
            y0s[l] = report.y0
        for l in range(6, 13):
            spec = KernelSpec(l)
            values = [comparison_functional(spec, p, y0s[l]) for p in FUNCTIONAL_P_GRID]
            for a, b in zip(values, values[1:]):
                if b < a - 1e-9 * max(1.0, abs(a)):
                    return _result(
                        "sign change and monotone functional",
                        t0,
                        False,
                        f"comparison functional not monotone at l={l}: {a!r} -> {b!r}",
                    )
    except VerificationError as exc:
        return _result("sign change and monotone functional", t0, False, str(exc))
    return _result(
        "sign change and monotone functional",
        t0,
        True,
        "single crossing for l=6..16, functional nondecreasing for l=6..12",
    )


def criterion_first_arch_domination() -> AcceptanceResult:
    """Gaussian domination of the first arch on dense grids, l = 2..50."""
    t0 = time.perf_counter()
    worst = -math.inf
    for l in range(2, 51):
        report = check_first_arch_domination(KernelSpec(l), 10_000)
        worst = max(worst, report.max_diff)
        if not report.ok or report.violation_count:
            return _result(
                "first-arch domination", t0, False, f"violation at l={l}: {report}"
            )
    return _result("first-arch domination", t0, True, f"0 violations, max diff {worst:.3e}")


def _band_levels(spec: KernelSpec, per_band: int = 50):
    """Levels inside every peak-to-peak band, clear of the exclusion windows."""
    profs = bump_profiles(spec)
    tg = TruncatedGaussian.from_length(spec.l)
    peaks = [p.peak_y for p in profs[1:]]
    edges = [max(p, tg.y_last) for p in peaks] + [tg.y_last]
    for top, bottom in zip(edges[:-1], edges[1:]):
        if top - bottom < 10 * PEAK_EXCLUSION:
            continue
        # fractions keep a 2% margin so finite differences never cross a knot
        for f in np.linspace(0.02, 0.98, per_band):
            yield bottom + (top - bottom) * float(f)


def criterion_slope_census() -> AcceptanceResult:
    """Root census, slope caps, and the slope-sum identity for G'."""
    t0 = time.perf_counter()
    checked = 0
    worst_rel = 0.0
    try:
        for l in (6, 8, 9, 12):
            spec = KernelSpec(l)
            for y in _band_levels(spec):
                s = check_derivative_bounds(spec, y).sum_inverse_slope
                h = 1e-6 * y
                fd = (superlevel_measure(spec, y + h) - superlevel_measure(spec, y - h)) / (2.0 * h)
                rel = abs(-fd - s) / s
                worst_rel = max(worst_rel, rel)
                if rel > 1e-4:
                    return _result(
                        "slope census",
                        t0,
                        False,
                        f"dG/dy mismatch {rel:.2e} at l={l}, y={y}",
                    )
                checked += 1
    except VerificationError as exc:
        return _result("slope census", t0, False, str(exc))
    return _result(
        "slope census", t0, True, f"{checked} levels, worst dG/dy mismatch {worst_rel:.2e}"
    )


@functools.cache
def _epi_instances() -> tuple[EpiInstance, ...]:
    # both entropy-power criteria check this batch; its weights are read-only
    return tuple(random_instances(EPI_SEEDS, n_range=(2, 5), l_range=(6, 30)))


def criterion_epi_suite() -> AcceptanceResult:
    """Entropy power inequality over the random batch, corpus, and floors."""
    t0 = time.perf_counter()
    try:
        reports = check_epis(_epi_instances(), cfg=BATCH_CFG)
        n_exact = sum(report.rhs_exact_M is not None for report in reports)
        check_epis(handcrafted_corpus(), cfg=BATCH_CFG)
    except VerificationError as exc:
        return _result("entropy power suite", t0, False, str(exc))
    floors_ok = (
        0.5 * (6 - 1) / (6 + 1) == GENERAL_FLOOR and 0.5 * (36 - 1) / 36 == EXACT_FLOOR
    )
    ok = floors_ok
    detail = (
        f"{len(EPI_SEEDS)} random + {len(handcrafted_corpus())} corpus instances hold; "
        f"{n_exact} exact-index; floors at l_min=6 {'match' if floors_ok else 'DIFFER'}"
    )
    return _result("entropy power suite", t0, ok, detail)


def criterion_rogozin_suite() -> AcceptanceResult:
    """Uniformization comparison over the same batch, equality at uniforms to an ulp."""
    t0 = time.perf_counter()
    try:
        for inst in _epi_instances():
            check_rogozin(inst)
    except VerificationError as exc:
        return _result("uniformization suite", t0, False, str(exc))
    # the uniform side is exact and the convolved side float, so at a
    # uniform instance the two agree to the last bit of the maximum
    ulps = []
    for ls in ((6, 6), (7, 11), (6, 8, 10), (9, 9, 9, 9)):
        check = check_rogozin(make_instance([uniform(l) for l in ls]))
        ulps.append(check.gap / np.spacing(check.max_prob_uniform))
    ok = all(abs(u) <= 1.0 for u in ulps)
    return _result(
        "uniformization suite",
        t0,
        ok,
        f"{len(EPI_SEEDS)} instances hold; uniform-instance gaps "
        f"[{', '.join(f'{u:+g}' for u in ulps)}] ulps",
    )


def criterion_sharpness() -> AcceptanceResult:
    """Self-convolution of a uniform law keeps its entropy power (to rounding)."""
    t0 = time.perf_counter()
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
    ok = sharp_ok and const_ok
    return _result(
        "sharpness witnesses",
        t0,
        ok,
        f"max rel gap {worst:.2e}; equal-index constant at l=100 is {const_ratio:.4f} of limit",
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
