import dataclasses
import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lebesgue_lab import levelsets
from lebesgue_lab.errors import DomainError, PreconditionError, VerificationError
from lebesgue_lab.kernel import (
    KernelSpec,
    TruncatedGaussian,
    _slope_numerators,
    gaussian_distribution_function,
    kernel_slope_values,
    kernel_values,
    kernel_values_and_slopes,
)
from lebesgue_lab.levelsets import (
    _ARCH,
    _BLOCK_ROWS,
    _C2,
    _C4,
    _FIELDS,
    _FLAT_TOP,
    _HALF,
    _HI,
    _INC,
    _L,
    _LO,
    _MAX_ROUNDS,
    _START_LEVEL_FLOOR,
    _START_STEPS,
    _TOP,
    CENSUS_MIN_LENGTH,
    PEAK_EXCLUSION,
    BumpProfile,
    _measures,
    _newton,
    _newton_block,
    _newton_start,
    _peak_gap,
    _segments,
    _slope_sums,
    _solve_levels,
    _stack,
    bump_profiles,
    check_derivative_bounds,
    check_derivative_bounds_many,
    detect_sign_change,
    detect_sign_changes,
    level_crossings,
    superlevel_measure,
    superlevel_measure_many,
    comparison_functional,
    slope_sum,
)

PI = math.pi
LOG_LEVELS = np.geomspace(1e-4, 1.0 - 1e-6, 2000)


def default_level_grid(spec):
    """2,000 log-spaced levels, every arch peak and the floor y_last: a dense scan of F - G."""
    peaks = [p.peak_y for p in bump_profiles(spec)[1:]]
    return np.unique(np.concatenate([LOG_LEVELS, peaks, [TruncatedGaussian.from_length(spec.l).y_last]]))


def peak_oracle(l, m, lo, hi):
    """The root of phi on arch m's bracket [lo, hi], solved alone by ``_newton``'s rule one scalar round at a time.

    phi, the numerator of h', rises on the odd arches and falls on the even
    ones; the start is the bracket's midpoint.  Returns (x, g(x)).
    """
    orient = 1.0 if m % 2 else -1.0
    x = np.float64(0.5 * (lo + hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ROUNDS):
            phi, slope = _slope_numerators(l, np.array([x]))
            d, slope = orient * phi[0], np.abs(slope[0])
            if d <= 0.0:
                lo = x
            else:
                hi = x
            newton, tol = x - d / slope, 2.0 * np.spacing(x)
            inside = lo <= newton <= hi if abs(newton - x) <= tol else lo < newton < hi
            xn = x if d == 0.0 else newton if inside else 0.5 * (lo + hi)
            x, done = xn, abs(xn - x) <= tol
            if done:
                break
    return float(x), float(kernel_values(l, np.array([x]))[0])


def exact_peak(l, m, x):
    """The maximizer of g on arch m and g there, at 40 digits: three Newton steps on phi from the float peak x."""
    with mpmath.workdps(40):
        x, pi = mpmath.mpf(x), mpmath.pi
        for _ in range(3):
            u, t = l * pi * x, pi * x
            phi = l * mpmath.cos(u) * mpmath.sin(t) - mpmath.sin(u) * mpmath.cos(t)
            x -= phi / (-pi * (l * l - 1) * mpmath.sin(u) * mpmath.sin(t))
        assert mpmath.mpf(m) / l < x < mpmath.mpf(m + 1) / l
        return float(x), float(abs(mpmath.sin(l * pi * x) / (l * mpmath.sin(pi * x))))


def ulps_apart(a, b):
    """The count of doubles from a to b, for positive a and b."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def bisection_oracle(l, y, lo, hi, inc):
    """60 rounds of plain bisection on each monotone bracket."""
    lo, hi = lo.copy(), hi.copy()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        move_lo = (kernel_values(l, mid) > y) ^ inc
        lo = np.where(move_lo, mid, lo)
        hi = np.where(move_lo, hi, mid)
    return 0.5 * (lo + hi)


def brackets(spec, arch, inc):
    """The monotone bracket of each crossing: up to its arch's peak, or down from it."""
    profs = bump_profiles(spec)
    lo = np.array([profs[k].x_lo if up else profs[k].peak_x for k, up in zip(arch, inc)])
    hi = np.array([profs[k].peak_x if up else profs[k].x_hi for k, up in zip(arch, inc)])
    return lo, hi


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def length_and_level(draw):
    """A length in 6..501 and a level anywhere, near an arch peak, or near 1 - 1e-6."""
    l = draw(st.integers(6, 501))
    kind = draw(st.sampled_from(("anywhere", "near peak", "near top")))
    if kind == "anywhere":
        y = draw(open_unit)
    elif kind == "near peak":
        peak = draw(st.sampled_from([p.peak_y for p in bump_profiles(KernelSpec(l))[1:]]))
        y = peak + draw(st.floats(-PEAK_EXCLUSION, PEAK_EXCLUSION))
    else:
        y = 1.0 - draw(st.floats(5e-7, 2e-6))
    return l, y


@st.composite
def length_and_any_level(draw):
    """A length in 6..501 and a level of every kind the start estimate must survive."""
    l = draw(st.integers(6, 501))
    kind = draw(st.sampled_from(("anywhere", "subnormal", "near peak", "arch-0 switch", "near one")))
    if kind == "anywhere":
        y = draw(open_unit)
    elif kind == "subnormal":
        y = draw(st.floats(5e-324, 2.2250738585072014e-308, allow_subnormal=True))
    elif kind == "near peak":
        peak = draw(st.sampled_from([p.peak_y for p in bump_profiles(KernelSpec(l))[1:]]))
        y = peak + draw(st.floats(-PEAK_EXCLUSION, PEAK_EXCLUSION))
    elif kind == "arch-0 switch":
        y = 1.0 / (l * math.sin(PI / (2 * l))) + draw(st.floats(-1e-12, 1e-12))
    else:
        y = 1.0 - draw(st.floats(2.0**-53, 1e-5))
    return l, y


def solve_length(l, ys):
    """``_solve_levels`` of the levels ys, all at length l: a group of one length."""
    return _solve_levels(_segments(l), np.zeros(len(ys), dtype=np.intp), ys)


def straddled_rows(l, ys):
    """The count of (level, segment) rows that the levels ys make at length l."""
    return len(solve_length(l, ys)[0])


def count_newton_points(monkeypatch):
    """Route Newton's fused kernel calls through a counter of evaluated points."""
    counted = [0]
    fused = levelsets.kernel_values_and_slopes

    def counting(l, x):
        counted[0] += np.size(x)
        return fused(l, x)

    monkeypatch.setattr(levelsets, "kernel_values_and_slopes", counting)
    return counted


def newton_start_oracle(y, seg):
    """``_newton_start`` as it was written with ``np.clip`` and ``.any()``."""
    lo, hi, inc, arch, l = seg[_LO], seg[_HI], seg[_INC], seg[_ARCH], seg[_L]
    x = 0.5 * (lo + hi)
    yl = np.maximum(y, _START_LEVEL_FLOOR) * l
    for _ in range(_START_STEPS):
        a = np.arcsin(np.minimum(1.0, yl * np.sin(PI * x))) / PI
        x = np.where(inc, arch + a, arch + 1.0 - a) / l
    top = (arch == 0) & (y > seg[_FLAT_TOP])
    if top.any():
        c2, c4 = seg[_C2, top], seg[_C4, top]
        log_y = -np.log(y[top])
        x[top] = np.sqrt(2.0 * log_y / (c2 + np.sqrt(c2 * c2 + 4.0 * c4 * log_y)))
    return np.clip(x, lo, hi)


def newton_block_oracle(y, seg):
    """``_newton_block`` as it was written with every round gathering and scattering its live rows."""
    x = newton_start_oracle(y, seg)
    lo, hi, l = seg[_LO], seg[_HI], seg[_L]
    inc = seg[_INC] == 1.0
    step_sign = np.where(inc, 1.0, -1.0)
    live = np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ROUNDS):
            if not len(live):
                break
            xl, il = x[live], inc[live]
            g, slope = kernel_values_and_slopes(l[live], xl)
            d = g - y[live]
            move_lo = (d > 0.0) ^ il
            lo_l = np.where(move_lo, xl, lo[live])
            hi_l = np.where(move_lo, hi[live], xl)
            xn = xl - step_sign[live] * d / np.abs(slope)
            tol = 2.0 * np.spacing(xl)
            on_end = (xn == lo_l) | (xn == hi_l)
            keep = (xn >= lo_l) & (xn <= hi_l) & ((np.abs(xn - xl) <= tol) | ~on_end)
            xn = np.where(keep, xn, 0.5 * (lo_l + hi_l))
            exact = d == 0.0
            xn = np.where(exact, xl, xn)
            x[live], lo[live], hi[live] = xn, lo_l, hi_l
            live = live[~(exact | (np.abs(xn - xl) <= tol))]
    return x


def block_rows(cases):
    """The rows (levels, segments) that the (length, level) pairs make, as one Newton block."""
    ls = sorted({l for l, _ in cases})
    ys = np.array([y for _, y in cases])
    row, _, seg = _solve_levels(_stack(ls), np.array([ls.index(l) for l, _ in cases]), ys)
    return ys[row], seg


def assert_block_equals_oracle(y, seg):
    roots = _newton_block(y, seg.copy())
    assert [r.hex() for r in roots.tolist()] == [r.hex() for r in newton_block_oracle(y, seg.copy()).tolist()]


@st.composite
def length_and_block_level(draw):
    """A length in 2..3000 and a level on the flat top, near a peak, near 1e-300 or anywhere."""
    l = draw(st.integers(2, 3000))
    kind = draw(st.sampled_from(("anywhere", "flat top", "near peak", "tiny")))
    tops = _segments(l)[_TOP, 0, 1:]
    if kind == "flat top":
        y = 1.0 - 10.0 ** draw(st.floats(-9, -5))
    elif kind == "near peak" and len(tops):
        y = float(draw(st.sampled_from(tops.tolist()))) + draw(st.floats(-1e-9, 1e-9))
    elif kind == "tiny":
        y = _START_LEVEL_FLOOR * draw(st.floats(0.5, 2.0))
    else:
        y = draw(open_unit)
    return l, y


class TestBumpProfiles:
    @pytest.mark.parametrize("l", [6, 7, 8, 9, 12, 15])
    def test_peak_between_edge_values(self, l):
        profs = bump_profiles(KernelSpec(l))
        for prof in profs[1:]:
            m = prof.index
            if prof.peak_x == prof.x_hi:
                continue  # odd-l half arch handled below
            lo = 1.0 / (l * math.sin(PI * (m + 0.5) / l))
            hi = 1.0 / (l * math.sin(PI * m / l))
            assert lo - 1e-12 <= prof.peak_y <= hi + 1e-12

    @pytest.mark.parametrize("l", [6, 7, 8, 9, 12, 15])
    def test_peaks_strictly_decreasing(self, l):
        profs = bump_profiles(KernelSpec(l))
        peaks = [p.peak_y for p in profs]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    @pytest.mark.parametrize("l", [7, 9, 15])
    def test_odd_half_arch_peaks_at_one_half(self, l):
        last = bump_profiles(KernelSpec(l))[-1]
        assert last.peak_x == 0.5
        assert last.peak_y == pytest.approx(1.0 / l, rel=1e-14)

    @pytest.mark.parametrize("l", range(6, 17))
    def test_peak_floor_claim(self, l):
        # every arch peak sits above 1/(pi (m + 1/2))
        for prof in bump_profiles(KernelSpec(l))[1:]:
            assert prof.peak_y >= 1.0 / (PI * (prof.index + 0.5)) - 1e-12

    @pytest.mark.parametrize("l", range(2, 201))
    def test_vector_search_equals_scalar_oracle(self, l):
        # each peak of the batch is the peak solved alone; every arch for
        # l <= 30 and at 48 and 101; first, middle and last above
        profs = bump_profiles(KernelSpec(l))
        assert profs[0] == BumpProfile(0, 0.0, 1.0 / l, 0.0, 1.0)
        full = [p for p in profs[1:] if p.peak_x != p.x_hi]
        assert [p.index for p in full] == list(range(1, l // 2))
        if l > 30 and l not in (48, 101):
            full = [full[0], full[len(full) // 2], full[-1]]
        for p in full:
            assert (p.x_lo, p.x_hi) == (p.index / l, (p.index + 1) / l)
            want = peak_oracle(l, p.index, p.x_lo, p.x_hi)
            assert (p.peak_x.hex(), p.peak_y.hex()) == (want[0].hex(), want[1].hex())

    @pytest.mark.parametrize("l", [9, 40, 301])
    def test_brackets_of_mixed_widths_stop_in_their_own_rounds(self, l, monkeypatch):
        # one bracket per arch, from its whole width down to a few hundred
        # ulps, some around the peak and some from it
        profs = bump_profiles(KernelSpec(l))[1 : l // 2]
        widths = [1.0 / l, 1e-3 / l, 1e-7, 3e-11, 2e-13, 5e-14]
        a = np.array([p.peak_x - 0.3 * widths[p.index % 6] for p in profs])
        a[1::3] = [p.peak_x for p in profs[1::3]]
        b = a + [widths[p.index % 6] for p in profs]
        orient = np.array([1.0 if p.index % 2 else -1.0 for p in profs])
        sizes = []
        numerators = levelsets._slope_numerators
        monkeypatch.setattr(levelsets, "_slope_numerators", lambda l, x: sizes.append(np.size(x)) or numerators(l, x))
        x = _newton(partial(_peak_gap, l=l), 0.5 * (a + b), a, b, orient)
        assert len(set(sizes)) >= min(len(profs), 4)  # rows left the solve in several rounds
        for i, p in enumerate(profs):
            want = peak_oracle(l, p.index, float(a[i]), float(b[i]))[0]
            assert x[i].hex() == want.hex()

    def test_peaks_are_the_exact_maximizers_to_an_ulp(self):
        # every arch of l = 4..59 and one random arch at 120 lengths in 60..3000;
        # the golden-section search this replaced left peak_x up to 3e7 ulps off
        rng = np.random.default_rng(29)
        cases = [(l, m) for l in range(4, 60) for m in range(1, l // 2)]
        cases += [(l, int(rng.integers(1, l // 2))) for l in rng.integers(60, 3001, 120).tolist()]
        worst_x = worst_y = 0
        for l, m in cases:
            p = bump_profiles(KernelSpec(l))[m]
            x, y = exact_peak(l, m, p.peak_x)
            worst_x = max(worst_x, ulps_apart(p.peak_x, x))
            worst_y = max(worst_y, ulps_apart(p.peak_y, y))
        assert worst_x <= 1 and worst_y <= 3

    @pytest.mark.parametrize("l", [2, 3])
    def test_no_side_arch_runs_no_round(self, l, monkeypatch):
        calls = []
        numerators = levelsets._slope_numerators
        monkeypatch.setattr(levelsets, "_slope_numerators", lambda l, x: calls.append(l) or numerators(l, x))
        levelsets._segments.cache_clear()
        assert len(bump_profiles(KernelSpec(l))) == 1 + l % 2
        assert calls == []

    @pytest.mark.parametrize("l", range(6, 31))
    def test_first_peak_below_log_concavity_threshold(self, l):
        y1 = bump_profiles(KernelSpec(l))[1].peak_y
        cap = 1.0 / (l * math.sin(PI / l))
        assert y1 <= cap + 1e-15
        assert cap < 1.0 / math.sqrt(math.e)


class TestMeasureG:
    def test_matches_grid_counting_oracle(self):
        # fraction of 1e7 uniform samples of [0, 1/2] above the level, halved
        spec = KernelSpec(8)
        y = 0.05
        n = 10_000_000
        xs = (np.arange(n) + 0.5) * (0.5 / n)
        oracle = 0.5 * float(np.mean(kernel_values(8, xs) > y))
        assert superlevel_measure(spec, y) == pytest.approx(oracle, abs=5e-7)

    def test_tiny_superlevel_set_near_one(self):
        spec = KernelSpec(8)
        v = superlevel_measure(spec, 0.999)
        assert 0.0 < v < 1.0 / 8.0

    def test_approaches_half_at_zero(self):
        assert superlevel_measure(KernelSpec(8), 1e-6) == pytest.approx(0.5, abs=1e-3)
        assert superlevel_measure(KernelSpec(9), 1e-6) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("l", [6, 9, 14])
    def test_monotone_nonincreasing(self, l):
        spec = KernelSpec(l)
        ys = np.geomspace(1e-5, 1 - 1e-6, 300)
        vals = superlevel_measure_many(spec, ys)
        assert np.all(np.diff(vals) <= 1e-14)

    def test_batch_equals_scalar(self):
        spec = KernelSpec(9)
        ys = np.geomspace(1e-3, 0.9, 50)
        batch = superlevel_measure_many(spec, ys)
        scalar = np.array([superlevel_measure(spec, y) for y in ys])
        assert np.array_equal(batch, scalar)

    @given(st.integers(6, 501), st.lists(open_unit, min_size=2, max_size=12))
    def test_batch_equals_scalar_everywhere(self, l, ys):
        spec = KernelSpec(l)
        batch = superlevel_measure_many(spec, np.array(ys))
        assert np.array_equal(batch, [superlevel_measure(spec, y) for y in ys])

    def test_batch_over_several_blocks_equals_scalar(self):
        spec = KernelSpec(101)
        ys = np.geomspace(1e-4, 0.99, 200)
        assert straddled_rows(101, ys) > 2 * _BLOCK_ROWS
        batch = superlevel_measure_many(spec, ys)
        assert np.array_equal(batch, [superlevel_measure(spec, y) for y in ys])

    @pytest.mark.parametrize("y", [0.0, 1.0, -0.5, math.nan])
    def test_domain_errors(self, y):
        with pytest.raises(DomainError):
            superlevel_measure(KernelSpec(8), y)

    @given(st.integers(6, 60), st.lists(open_unit, min_size=1, max_size=8))
    def test_one_solve_gives_measure_and_slope_sum(self, l, ys):
        spec = KernelSpec(l)
        row, roots, seg = solve_length(l, np.array(ys))
        # the crossings come grouped by level
        assert np.all(np.diff(row) >= 0)
        measures = _measures(len(ys), row, roots, seg)
        _, slope_sums = _slope_sums(len(ys), row, np.abs(kernel_slope_values(l, roots)))
        for i, y in enumerate(ys):
            fused = (float(measures[i]), slope_sums[i])
            # the slope sum computed on its own, from level_crossings' roots
            alone = level_crossings(spec, y)[0]
            inverse_sum = float(np.sum(1.0 / np.abs(kernel_slope_values(l, alone))))
            separate = (superlevel_measure(spec, y), inverse_sum)
            assert [v.hex() for v in fused] == [v.hex() for v in separate]
            assert slope_sum(spec, y) == fused[1]


class TestLevelCrossings:
    def test_census_matches_dense_sign_scan(self):
        # oracle: count sign changes of g - y on a 1e5-point grid
        spec = KernelSpec(8)
        profs = bump_profiles(spec)
        y = 0.5 * (profs[1].peak_y + profs[2].peak_y)
        roots, _, _ = level_crossings(spec, y)
        xs = np.linspace(0.0, 0.5, 100_001)
        signs = np.sign(kernel_values(8, xs) - y)
        nz = signs[signs != 0]
        flips = int(np.count_nonzero(nz[:-1] * nz[1:] < 0))
        assert len(roots) == flips == 3

    def test_roots_solve_the_equation(self):
        spec = KernelSpec(9)
        y = 0.09
        roots, _, _ = level_crossings(spec, y)
        assert np.all(np.abs(kernel_values(9, roots) - y) < 1e-12)

    @given(length_and_level())
    def test_roots_inside_brackets_and_as_accurate_as_bisection(self, case):
        # The oracle ends next to a sign change of the computed g - y.  Newton
        # stops once its step is at most 2 ulps, so its residual may exceed
        # the oracle's by what computed g moves over a few ulps of x (slope
        # and rounding), plus one ulp of y.
        l, y = case
        spec = KernelSpec(l)
        roots, arch, inc = level_crossings(spec, y)
        # segments run left to right and each root lies in its own, so the
        # roots ascend; only below about 1e-16 do the two roots beside a zero
        # k/l round to the same float
        steps = np.diff(roots)
        assert np.all(steps > 0.0) if y > 1e-14 else np.all(steps >= 0.0)
        lo, hi = brackets(spec, arch, inc)
        assert np.all((lo <= roots) & (roots <= hi))
        oracle = bisection_oracle(l, np.full(len(roots), y), lo, hi, inc)
        residual = np.abs(kernel_values(l, roots) - y)
        oracle_residual = np.abs(kernel_values(l, oracle) - y)
        window = roots[:, None] + np.arange(-3, 4) * np.spacing(roots)[:, None]
        spread = np.ptp(kernel_values(l, window.ravel()).reshape(window.shape), axis=1)
        assert np.all(residual <= oracle_residual + np.spacing(y) + spread)

    @given(st.integers(6, 501), st.lists(open_unit, min_size=2, max_size=12))
    def test_batched_roots_equal_scalar_roots(self, l, ys):
        spec = KernelSpec(l)
        ys = np.array(ys)
        row, batch, _ = solve_length(l, ys)
        for i, y in enumerate(ys):
            roots, _, _ = level_crossings(spec, y)
            assert np.array_equal(batch[row == i], roots)


def assert_each_level_alone(ls, which, ys):
    """One solve of levels with lengths ls[which[i]] equals every level solved alone, in hex."""
    row, roots, seg = _solve_levels(_stack(ls), np.array(which), np.array(ys))
    assert np.all(np.diff(row) >= 0)
    for i, (k, y) in enumerate(zip(which, ys)):
        _, alone, alone_seg = solve_length(ls[k], np.array([y]))
        at = row == i
        assert [r.hex() for r in roots[at].tolist()] == [r.hex() for r in alone.tolist()], (ls[k], y)
        for field in (_ARCH, _INC, _HALF):
            assert np.array_equal(seg[field, at], alone_seg[field]), (ls[k], y)


class TestRowLengths:
    @given(st.lists(length_and_any_level(), min_size=1, max_size=6))
    def test_a_length_per_level_is_each_level_alone(self, cases):
        # unsorted and repeated lengths; levels near peaks, near 1, subnormal
        assert_each_level_alone([l for l, _ in cases], range(len(cases)), [y for _, y in cases])

    def test_short_tables_padded_beside_wide_ones(self):
        # one and two segments (l = 2, 3) and a few (4, 5) in the table of 301
        # and 1000: every level of a short length has padding to its right
        ls = [2, 301, 3, 4, 1000, 5]
        rng = np.random.default_rng(23)
        which = rng.integers(0, len(ls), 120).tolist()
        ys = np.concatenate(
            [rng.uniform(1e-6, 1.0, 40), 10.0 ** rng.uniform(-12, 0, 40), 1.0 - 10.0 ** rng.uniform(-9, -1, 40)]
        )
        table = _stack(ls)
        assert table.shape == (_FIELDS, len(ls), 999)
        assert np.all(table[_TOP, 0, 1:] == -math.inf) and np.all(table[_TOP, 2, 2:] == -math.inf)
        assert_each_level_alone(ls, which, ys.tolist())

    @pytest.mark.parametrize("l", [2, 3, 7, 48])
    def test_a_single_length_is_its_own_table(self, l):
        assert np.array_equal(_stack([l]), _segments(l))
        assert _segments(l).shape == (_FIELDS, 1, l - 1)

    def test_empty_solves(self):
        row, roots, seg = _solve_levels(_stack([6, 9]), np.zeros(0, dtype=np.intp), np.zeros(0))
        assert len(row) == len(roots) == seg.shape[1] == 0


class TestNewtonStart:
    @given(length_and_any_level())
    def test_start_is_finite_inside_its_bracket_and_raises_nothing(self, case):
        l, y = case
        spec = KernelSpec(l)
        ys = np.array([y])
        row, _, seg = solve_length(l, ys)
        with np.errstate(all="raise"):
            x = _newton_start(ys[row], seg)
        assert np.all(np.isfinite(x))
        assert np.all((seg[_LO] <= x) & (x <= seg[_HI]))

    @pytest.mark.parametrize("l", [6, 27, 48])
    def test_rounds_per_row_over_the_default_grid(self, l, monkeypatch):
        # a midpoint start took about 6 rounds per row here
        spec = KernelSpec(l)
        ys = default_level_grid(spec)
        rows = straddled_rows(l, ys)
        counted = count_newton_points(monkeypatch)
        superlevel_measure_many(spec, ys)
        assert counted[0] / rows <= 3.5

    def test_rounds_per_row_on_the_flat_top_of_arch_0(self, monkeypatch):
        # A midpoint start took about 19 rounds per row here, following noise.
        # About one row in ten still bisects the noise window for 20-29
        # rounds, so the mean needs a large sample to be stable.
        # The cases go by length, so that each length's segment table is built
        # once; the points of the solve that counts a case's rows are taken
        # back out of the counter.
        rng = np.random.default_rng(20)
        cases = [(int(rng.integers(6, 502)), 1.0 - 10.0 ** rng.uniform(-9, -5)) for _ in range(1000)]
        counted = count_newton_points(monkeypatch)
        rows = 0
        for l, y in sorted(cases):
            before = counted[0]
            rows += straddled_rows(l, np.array([y]))
            counted[0] = before
            superlevel_measure(KernelSpec(l), y)
        assert rows == len(cases)
        assert counted[0] / rows <= 6.0


class TestNewtonRounds:
    @given(st.lists(length_and_block_level(), min_size=1, max_size=8))
    def test_rounds_give_the_roots_of_the_gathering_rounds(self, cases):
        assert_block_equals_oracle(*block_rows(cases))

    def test_rows_finishing_in_different_rounds(self, monkeypatch):
        # flat-top rows bisect their noise window for many rounds, the others
        # finish in 3-4, so the block compacts several times
        rng = np.random.default_rng(25)
        cases = [(int(l), 1.0 - 10.0 ** rng.uniform(-9, -5)) for l in rng.integers(6, 502, 40)]
        cases += [(int(l), float(y)) for l, y in zip(rng.integers(2, 3001, 20), rng.uniform(0.0, 1.0, 20))]
        cases += [(3000, 1e-300), (2, 0.9), (7, 1.0 / (7 * math.sin(PI / 14)))]
        rows = block_rows(cases)
        sizes = []
        fused = levelsets.kernel_values_and_slopes
        monkeypatch.setattr(levelsets, "kernel_values_and_slopes", lambda l, x: sizes.append(len(x)) or fused(l, x))
        assert_block_equals_oracle(*rows)
        assert len(set(sizes)) >= 5 and sizes == sorted(sizes, reverse=True)


def in_each_layout(solve):
    """solve() with every Newton block on arrays, then every block on Python floats."""
    results = []
    for rows_max in (0, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(levelsets, "_ROW_ROUNDS_MAX", rows_max)
            results.append(solve())
    return results


def hexes(values):
    return [v.hex() for v in np.asarray(values, dtype=float).tolist()]


@st.composite
def length_and_band_level(draw):
    """A length in 2..400 and a level between two of its peaks (1 and 0 included), or 1 - 10^U(-15, -3)."""
    l = draw(st.integers(2, 400))
    if draw(st.booleans()):
        return l, 1.0 - 10.0 ** draw(st.floats(-15, -3))
    edges = [1.0, *_segments(l)[_TOP, 0, 1::2].tolist(), 0.0]  # the peaks, falling with the arch
    k = draw(st.integers(0, len(edges) - 2))
    return l, draw(st.floats(edges[k + 1], edges[k], exclude_min=True, exclude_max=True))


def linear_gap(x, root, scale, flat):
    """(x - root) * scale and |scale|, or a zero slope where ``flat``: a ``_newton`` evaluator with known steps."""
    return (x - root) * scale, np.where(flat, 0.0, np.abs(scale))


class TestNewtonLayouts:
    @given(st.lists(length_and_band_level(), min_size=1, max_size=8))
    def test_crossings_across_the_bands_and_on_the_flat_top(self, cases):
        y, seg = block_rows(cases)
        arrays, rows = in_each_layout(lambda: hexes(_newton_block(y, seg)))
        assert arrays == rows

    @given(st.integers(4, 400))
    def test_arch_peaks(self, l):
        arrays, rows = in_each_layout(lambda: _segments.__wrapped__(l).tobytes())
        assert arrays == rows

    @settings(max_examples=20)
    @given(st.lists(st.integers(2, 400), min_size=1, max_size=6))
    def test_y0_steps(self, ls):
        # y0's rows step on D by _crossing_gap, stopped at step_tol
        specs = [KernelSpec(l) for l in ls]
        reports = in_each_layout(lambda: [hexed_fields(dataclasses.astuple(r)) for r in detect_sign_changes(specs)])
        assert reports[0] == reports[1]

    def test_targeted_rows(self):
        # (x, lo, hi, root, scale, flat): d == 0 at the start; a step of 1 ulp
        # onto hi, kept by the closed bracket where bisection would round to x;
        # a long step onto lo, which bisects; a zero slope, which bisects onto
        # the root, where d == 0 and d / |d'| is 0/0; a NaN value, which moves
        # no bracket end and bisects; and x < 0, whose tolerance is 2 ulps of
        # x as for x > 0, so its linear row stops on the second round
        hi = math.nextafter(0.375, 1.0)
        table = np.array([
            (0.3, 0.2, 0.4, 0.3, 1.0, False),
            (0.375, 0.125, hi, hi, 1.0, False),
            (0.25, 0.0, 0.5, 0.0, 1.0, False),
            (0.3, 0.1, 0.5, 0.2, 1.0, True),
            (0.25, 0.1, 0.5, 0.2, math.nan, False),
            (-0.3, -0.5, -0.1, -0.2, 1.0, False),
        ]).T
        x, lo, hi_, root, scale, flat = table
        flat = flat == 1.0

        def solve(part):
            rounds = []
            roots = _newton(lambda x, *rows: rounds.append(len(x)) or linear_gap(x, *rows),
                            x[part], lo[part], hi_[part], root[part], scale[part], flat[part])
            return hexes(roots), len(rounds)

        def solves():
            return solve(slice(None)), [solve([k]) for k in range(len(x))]

        arrays, rows = in_each_layout(solves)
        assert arrays == rows
        (together, _), alone = arrays
        assert together == [h for hs, _ in alone for h in hs]
        assert together[:2] == [(0.3).hex(), hi.hex()]
        assert together[3:5] == [(0.2).hex(), (0.5 * (0.1 + 0.5)).hex()]
        rounds = [n for _, n in alone]
        assert rounds[:2] == [1, 1] and rounds[-1] == 2

    @given(st.integers(6, 40), open_unit)
    def test_a_level_alone_equals_it_in_a_larger_batch(self, l, u):
        # alone its block takes the rows of Python floats, in the batch the arrays
        tops = _segments(l)[_TOP, 0, 1::2]
        floor = TruncatedGaussian.from_length(l).y_last
        y = floor + (tops[0] - floor) * u
        batch = np.append(np.linspace(floor, tops[-1], 42)[1:-1], y)  # 40 levels of l - 1 roots each
        alone_row, alone, _ = solve_length(l, np.array([y]))
        batch_row, roots, _ = solve_length(l, batch)
        assert len(alone_row) <= levelsets._ROW_ROUNDS_MAX < len(batch_row)
        assert hexes(roots[batch_row == len(batch) - 1]) == hexes(alone)

    @pytest.mark.parametrize("rows_max", [0, 10**9], ids=["arrays", "rows"])
    @pytest.mark.parametrize("l", [2, 6, 64, 448, 1001])
    def test_levels_next_to_one_finish_below_the_round_cap(self, l, rows_max, monkeypatch):
        # _MAX_ROUNDS returns an unconverged x silently.  The named levels take
        # 1-5 rounds; over 1 - k 2^-53 and 1 - 10^-e the worst row of l = 2
        # bisects toward a root near 1e-8, whose ulps are 1e-24, for 49 rounds
        monkeypatch.setattr(levelsets, "_ROW_ROUNDS_MAX", rows_max)
        calls = []
        fused = levelsets.kernel_values_and_slopes
        monkeypatch.setattr(levelsets, "kernel_values_and_slopes", lambda l, x: calls.append(len(x)) or fused(l, x))
        for y in (math.nextafter(1.0, 0.0), 1.0 - 1e-15, 1.0 - 1e-13):
            calls.clear()
            row, _, _ = solve_length(l, np.array([y]))
            assert len(row) == 1 and len(calls) <= 45, y
        calls.clear()
        ys = np.concatenate([1.0 - np.arange(1, 401) * 2.0**-53, 1.0 - 10.0 ** -np.linspace(3, 15.9, 200)])
        row, _, _ = solve_length(l, ys)
        assert len(row) == len(ys) and len(calls) <= 50 < _MAX_ROUNDS


def scan_oracle_signs(spec, scan):
    """sign(F - G) with G solved at every level of the scan."""
    tg = TruncatedGaussian.from_length(spec.l)
    return np.sign(gaussian_distribution_function(tg, scan) - superlevel_measure_many(spec, scan))


def assert_proven_signs(spec, scan):
    """The signs the band cover proves, - below the reported y0 and + above, are the solved scan's.

    The scan's nonzero signs flip exactly once, from - to +, between two
    levels that bracket y0 (y0 itself may be one of them).
    """
    y0 = detect_sign_change(spec).y0
    signs = scan_oracle_signs(spec, scan)
    nz = np.nonzero(signs)[0]
    flips = np.nonzero(signs[nz[:-1]] * signs[nz[1:]] < 0.0)[0]
    assert len(flips) == 1
    i, j = nz[flips[0]], nz[flips[0] + 1]
    assert signs[i] < 0.0 and scan[i] <= y0 <= scan[j]


def spy_solved_levels(monkeypatch):
    """Record every level passed to ``_solve_levels``, the module's one solve."""
    solved = []
    solve = levelsets._solve_levels

    def spying(table, which, ys):
        solved.extend(np.asarray(ys, dtype=float).tolist())
        return solve(table, which, ys)

    monkeypatch.setattr(levelsets, "_solve_levels", spying)
    return solved


@st.composite
def length_and_custom_scan(draw):
    """A length in 6..200 and a sorted scan of >= 1,000 random levels.

    The levels mix uniform, log-uniform and near-1 draws; the refined
    crossing level y0 and every arch peak are inserted.
    """
    l = draw(st.integers(6, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1000, 1500))
    kind = rng.integers(0, 3, n)
    levels = np.where(
        kind == 0,
        rng.uniform(1e-6, 1.0, n),
        np.where(kind == 1, 10.0 ** rng.uniform(-12.0, 0.0, n), 1.0 - 10.0 ** rng.uniform(-9.0, -1.0, n)),
    )
    spec = KernelSpec(l)
    knots = [detect_sign_change(spec).y0] + [p.peak_y for p in bump_profiles(spec)[1:]]
    return l, np.unique(np.concatenate([levels, knots]))


class TestSignChange:
    # the sampled claim that the band cover replaced, kept as an oracle
    @pytest.mark.parametrize("l", [*range(6, 130), 200, 301, 1000])
    def test_cover_signs_equal_the_full_scan_on_the_default_grid(self, l):
        spec = KernelSpec(l)
        assert_proven_signs(spec, default_level_grid(spec))

    @pytest.mark.parametrize("l", range(6, 17))
    def test_cover_signs_equal_the_full_scan_on_the_criterion_grid(self, l):
        assert_proven_signs(KernelSpec(l), np.geomspace(1e-4, 1.0 - 1e-6, 1000))

    @given(length_and_custom_scan())
    def test_cover_signs_equal_the_full_scan_on_random_scans(self, case):
        l, scan = case
        assert_proven_signs(KernelSpec(l), scan)

    @pytest.mark.parametrize("l", [6, 48, 1000])
    def test_default_grid_solves_few_levels(self, l, monkeypatch):
        # signing a 2,000-level grid by a monotone interval cover solved 80-150 of its levels
        solved = spy_solved_levels(monkeypatch)
        detect_sign_change(KernelSpec(l))
        assert 0 < len(solved) <= 12

    @pytest.mark.parametrize("l", [6, 8])
    def test_single_crossing(self, l):
        report = detect_sign_change(KernelSpec(l))
        assert report.crossings == 1
        assert report.F0_lt_G0
        assert report.G_lt_F_above_y1

    def test_crossing_level_sits_between_floor_and_first_peak(self):
        spec = KernelSpec(8)
        report = detect_sign_change(spec)
        tg = TruncatedGaussian.from_length(8)
        y1 = bump_profiles(spec)[1].peak_y
        assert tg.y_last < report.y0 < y1

    def test_odd_length(self):
        report = detect_sign_change(KernelSpec(9))
        assert report.crossings == 1

    def test_difference_brackets_zero_around_y0(self):
        spec = KernelSpec(8)
        tg = TruncatedGaussian.from_length(8)
        report = detect_sign_change(spec)
        from lebesgue_lab.kernel import gaussian_distribution_function

        delta = 1e-3
        below = gaussian_distribution_function(tg, report.y0 - delta) - superlevel_measure(spec, report.y0 - delta)
        above = gaussian_distribution_function(tg, report.y0 + delta) - superlevel_measure(spec, report.y0 + delta)
        assert below < 0.0 < above

    @pytest.mark.parametrize("l", [6, 9, 24])
    def test_refined_level_pins_the_sign_change(self, l):
        # the ends of band 1 bracket y0 to within 0.06-0.1; the Newton refinement far closer
        spec = KernelSpec(l)
        tg = TruncatedGaussian.from_length(l)
        y0 = detect_sign_change(spec).y0

        def diff(y):
            return gaussian_distribution_function(tg, y) - superlevel_measure(spec, y)

        assert diff(y0 - 1e-10) < 0.0 < diff(y0 + 1e-10)

    def test_small_length_reports_without_asserting(self):
        report = detect_sign_change(KernelSpec(4))
        assert report.l == 4  # no exception even if the pattern differs
        # at l = 3 the single band's enclosure falls short of |F'|, unasserted
        assert detect_sign_change(KernelSpec(3)).margin < 1.0

    @pytest.mark.parametrize("l", [6, 48])
    def test_cover_takes_few_rounds(self, l, monkeypatch):
        # one solve of the band ends, then one per refinement round
        calls = count_solves(monkeypatch)
        detect_sign_change(KernelSpec(l))
        assert 0 < calls[0] <= 9

    def test_lengths_in_lockstep_share_their_rounds(self, monkeypatch):
        ls = range(6, 49)
        calls = count_solves(monkeypatch)
        alone = []
        for l in ls:
            calls[0] = 0
            alone.append((detect_sign_change(KernelSpec(l)), calls[0]))
        calls[0] = 0
        together = detect_sign_changes([KernelSpec(l) for l in ls])
        # one solve per round for all 43 lengths: the rounds of the slowest length
        assert calls[0] == max(n for _, n in alone)
        assert together == [report for report, _ in alone]


class TestProof:
    def test_lipschitz_constant_bounds_the_second_derivative(self):
        # h = sin(l pi x) / (l sin(pi x)); h''(0) = -(pi^2 / l) sum_j (l - 1 - 2j)^2, exactly the constant
        for l in range(2, 3001):
            assert 3 * sum((l - 1 - 2 * j) ** 2 for j in range(l)) == l * (l * l - 1)
        rng = np.random.default_rng(27)
        with mpmath.workdps(40):
            for l, x in zip(rng.integers(2, 3001, 60).tolist(), rng.uniform(1e-6, 0.5, 60).tolist()):
                second = mpmath.diff(lambda t: mpmath.sin(l * mpmath.pi * t) / (l * mpmath.sin(mpmath.pi * t)), x, 2)
                bound = mpmath.pi**2 * (l * l - 1) / 3
                assert abs(second) <= bound
                assert levelsets._slope_lipschitz(l) == pytest.approx(float(bound), rel=1e-15)

    def test_every_length_to_1000_is_proven_with_margin(self):
        reports = detect_sign_changes([KernelSpec(l) for l in range(6, 1001)])
        margins = [r.margin for r in reports]
        assert min(margins) > 1.0
        # the tightest band: the caps of band 3, the half arch of l = 7
        assert reports[int(np.argmin(margins))].l == 7

    @pytest.mark.parametrize(
        "name, factor, proven",
        [("_slope_lipschitz", 3.0, (6, 7)), ("_census_slope_sum", 1.0 / 3.0, (6,))],
    )
    def test_a_weakened_bound_raises_for_its_lengths(self, monkeypatch, name, factor, proven):
        # a 3x Lipschitz constant loses bands 1 and 2 from l = 8 on; a census
        # bound divided by 3 loses the bands m >= 3, which l = 6 does not have
        bound = getattr(levelsets, name)
        monkeypatch.setattr(levelsets, name, lambda *args: factor * bound(*args))
        for l in range(6, 13):
            if l in proven:
                assert detect_sign_change(KernelSpec(l)).margin > 1.0
            else:
                with pytest.raises(VerificationError, match=rf"l={l},.* margin=0\."):
                    detect_sign_change(KernelSpec(l))


def count_solves(monkeypatch):
    """Count the calls of ``_solve_levels``, the module's one solve."""
    calls = [0]
    solve = levelsets._solve_levels

    def counting(table, which, ys):
        calls[0] += 1
        return solve(table, which, ys)

    monkeypatch.setattr(levelsets, "_solve_levels", counting)
    return calls


def outcome(call):
    """A call's reports with every float in hex, or the type and message of its error."""
    try:
        reports = call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [[v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r)] for r in reports]


class TestSignChangeBatch:
    @settings(max_examples=15)
    @given(st.lists(st.integers(2, 300), min_size=1, max_size=4))
    def test_batch_equals_a_loop_of_single_calls(self, ls):
        # random, repeated and unsorted lengths
        specs = [KernelSpec(l) for l in ls]
        batch = outcome(lambda: detect_sign_changes(specs))
        alone = outcome(lambda: [detect_sign_change(spec) for spec in specs])
        assert batch == alone

    def test_first_failing_length_decides_the_error(self, monkeypatch):
        # with a third of the census caps every l >= 7 fails; l = 4 is not asserted
        bound = levelsets._census_slope_sum
        monkeypatch.setattr(levelsets, "_census_slope_sum", lambda l, m: bound(l, m) / 3.0)
        specs = [KernelSpec(l) for l in (4, 9, 7)]
        with pytest.raises(VerificationError, match=r"l=9,"):
            detect_sign_changes(specs)

    def test_empty_batch(self):
        assert detect_sign_changes([]) == []

    def test_lockstep_groups_bound_the_rows_of_a_round(self):
        specs = [KernelSpec(l) for l in (*range(6, 49), 20_000, 301, 302, *range(1000, 1020))]
        groups = levelsets._lockstep_groups(specs)
        assert [spec for group in groups for spec in group] == specs
        assert groups[0] == specs[:43]  # the lengths of np-verify --l 6..48 run together
        assert groups[1] == [KernelSpec(20_000)]  # over the bound: alone
        assert len(groups) > 3
        for group in groups:
            rows = sum(4 * (s.l - 1) for s in group)
            assert rows <= levelsets._LOCKSTEP_ROWS or len(group) == 1

    def test_single_call_is_a_batch_of_one(self):
        spec = KernelSpec(12)
        assert detect_sign_changes([spec]) == [detect_sign_change(spec)]

    def test_one_peak_solve_per_length(self, monkeypatch):
        # 43 lengths in one lockstep group, more than the segment tables the cache holds
        solved = []
        newton = levelsets._newton

        def spying(evaluate, *args, **kwargs):
            if getattr(evaluate, "func", None) is _peak_gap:
                solved.append(evaluate.keywords["l"])
            return newton(evaluate, *args, **kwargs)

        monkeypatch.setattr(levelsets, "_newton", spying)
        levelsets._segments.cache_clear()
        detect_sign_changes([KernelSpec(l) for l in range(6, 49)])
        assert sorted(solved) == list(range(6, 49))


class TestPhi:
    def test_nonnegative_at_base_exponent(self):
        spec = KernelSpec(6)
        y0 = detect_sign_change(spec).y0
        assert comparison_functional(spec, 2.0, y0) >= 0.0

    def test_nondecreasing_in_p(self):
        spec = KernelSpec(8)
        y0 = detect_sign_change(spec).y0
        values = [comparison_functional(spec, p, y0) for p in (2.0, 3.0, 4.0, 6.0, 8.0, 12.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("l, p", [(6, 2.0), (9, 3.5), (40, 8.0), (199, 128.0)])
    def test_gaussian_power_integral_against_mpmath(self, monkeypatch, l, p):
        # with the kernel term zeroed the functional is 2 int_0^{x_c} f^p / (p y0^p)
        monkeypatch.setattr(levelsets, "integrate_kernel_power", lambda *args: (0.0, 0.0, True))
        y0 = 0.5
        f_int = comparison_functional(KernelSpec(l), p, y0) * p * y0**p / 2.0
        x_c = TruncatedGaussian.from_length(l).x_c
        with mpmath.workdps(40):
            a = p * mpmath.mpf(PI) * (l * l - 1) / 2
            exact = mpmath.quad(lambda x: mpmath.exp(-a * x * x), [0, 1 / mpmath.sqrt(a), x_c])
        assert abs(f_int - exact) <= 1e-14 * exact

    def test_rejects_small_exponent(self):
        with pytest.raises(PreconditionError):
            comparison_functional(KernelSpec(8), 1.5, 0.2)

    def test_rejects_nan_exponent(self):
        with pytest.raises(PreconditionError):
            comparison_functional(KernelSpec(8), math.nan, 0.5)

    def test_rejects_infinite_exponent(self):
        with pytest.raises(DomainError):
            comparison_functional(KernelSpec(10), math.inf, 0.3)

    def test_rejects_an_exponent_whose_y0_power_underflows(self):
        # at l = 6, y0**p falls below the smallest normal float from p = 483.015 on
        spec = KernelSpec(6)
        y0 = detect_sign_change(spec).y0
        assert math.isfinite(comparison_functional(spec, 483.0, y0))
        with pytest.raises(DomainError, match=r"smallest normal float .* p must be <= 483\.01"):
            comparison_functional(spec, 484.0, y0)


class TestSlopeBounds:
    def test_mid_band_census_even(self):
        spec = KernelSpec(8)
        profs = bump_profiles(spec)
        y = 0.5 * (profs[1].peak_y + profs[2].peak_y)
        check = check_derivative_bounds(spec, y)
        assert check.band == 1
        assert check.root_count == check.expected_roots == 3
        assert check.ok

    def test_band_above_floor_even(self):
        spec = KernelSpec(6)
        tg = TruncatedGaussian.from_length(6)
        y = tg.y_last * 1.05
        check = check_derivative_bounds(spec, y)
        assert check.band == 2
        assert check.root_count == 5  # one on the lead-in plus two per full arch

    def test_band_above_floor_odd(self):
        spec = KernelSpec(9)
        tg = TruncatedGaussian.from_length(9)
        y = tg.y_last * 1.05
        check = check_derivative_bounds(spec, y)
        assert check.band == 4
        assert check.root_count == 2 * 4  # final half arch carries a single root

    @pytest.mark.parametrize("l", [6, 7, 16, 41, 120])
    def test_slope_caps_match_scalar_loop(self, l):
        """The vector slope caps against the per-root loop they replace, bit for bit."""
        spec = KernelSpec(l)
        profs = bump_profiles(spec)
        edges = [max(p.peak_y, TruncatedGaussian.from_length(l).y_last) for p in profs[1:]]
        for top, bottom in zip(edges, edges[1:]):
            if top - bottom < 1e-6:
                continue
            for frac in (0.1, 0.5, 0.9):
                y = bottom + frac * (top - bottom)
                roots, arch, _ = level_crossings(spec, y)
                slopes = np.abs(levelsets.kernel_slope_values(l, roots))
                worst, ok = -math.inf, True
                for k, s in zip(arch.tolist(), slopes.tolist()):
                    if k == 0:
                        cap = (l * PI / 2.0) * ((PI / l) / math.sin(PI / l)) ** 2
                    else:
                        cap = l * PI**2 / (4.0 * k)
                    worst = max(worst, s - cap)
                    ok = ok and not s > cap + 1e-9
                check = check_derivative_bounds(spec, y)
                assert check.worst_bound_margin.hex() == worst.hex()
                assert check.ok is ok

    def test_exclusion_window(self):
        spec = KernelSpec(8)
        y1 = bump_profiles(spec)[1].peak_y
        with pytest.raises(PreconditionError):
            check_derivative_bounds(spec, y1 - 1e-12)

    def test_level_outside_band_range(self):
        spec = KernelSpec(8)
        with pytest.raises(PreconditionError):
            check_derivative_bounds(spec, 0.5)

    def test_small_length_rejected(self):
        with pytest.raises(PreconditionError):
            check_derivative_bounds(KernelSpec(5), 0.2)

    @pytest.mark.parametrize("l", [6, 9, 12])
    def test_slope_sum_matches_finite_difference(self, l):
        spec = KernelSpec(l)
        profs = bump_profiles(spec)
        for frac in (0.3, 0.7):
            y = profs[2].peak_y + frac * (profs[1].peak_y - profs[2].peak_y)
            h = 1e-6 * y
            fd = -(superlevel_measure(spec, y + h) - superlevel_measure(spec, y - h)) / (2.0 * h)
            assert fd == pytest.approx(slope_sum(spec, y), rel=1e-4)


# the slope-census lengths, with odd lengths whose last band lies below a half arch
CENSUS_LENGTHS = (6, 7, 8, 9, 12, 48, 301)


def band_edges(spec):
    """(bottom, top) of every peak-to-peak band above the Gaussian floor, the last on the floor."""
    tg = TruncatedGaussian.from_length(spec.l)
    edges = [max(p.peak_y, tg.y_last) for p in bump_profiles(spec)[1:]] + [tg.y_last]
    return [(bottom, top) for top, bottom in zip(edges, edges[1:]) if top - bottom > 10 * PEAK_EXCLUSION]


def census_oracle(spec, y):
    """The fields of the slope census at one level, computed one level at a time."""
    l = spec.l
    band = max(p.index for p in bump_profiles(spec)[1:] if p.peak_y > y)
    expected = 1 + 2 * band - (1 if l % 2 == 1 and band == l // 2 else 0)
    roots, arch, _ = level_crossings(spec, y)
    slopes = np.abs(kernel_slope_values(l, roots))
    inv_sum = float(np.sum(1.0 / slopes))
    first_cap = (l * PI / 2.0) * ((PI / l) / math.sin(PI / l)) ** 2
    caps = np.where(arch == 0, first_cap, l * PI**2 / (4.0 * np.maximum(arch, 1)))
    lower = 1.0 / (2.0 * l) + 4.0 * band * band / (l * PI**2)
    ok = not np.any(slopes > caps + 1e-9) and not inv_sum < lower - 1e-9
    return (l, y, band, len(roots), expected, inv_sum, lower, float(np.max(slopes - caps)), ok)


def hexed_fields(fields):
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in fields]


@st.composite
def length_and_band_levels(draw):
    """A census length and 1..12 levels, each inside one of its bands, clear of the peaks."""
    l = draw(st.sampled_from(CENSUS_LENGTHS))
    bands = band_edges(KernelSpec(l))
    picks = draw(st.lists(st.sampled_from(bands), min_size=1, max_size=12))
    margin = 2 * PEAK_EXCLUSION
    return l, [draw(st.floats(bottom + margin, top - margin)) for bottom, top in picks]


class TestSlopeBoundBatch:
    @pytest.mark.parametrize("l", CENSUS_LENGTHS)
    def test_every_band_matches_the_scalar_census(self, l):
        spec = KernelSpec(l)
        ys = [bottom + (top - bottom) * f for bottom, top in band_edges(spec) for f in (0.02, 0.5, 0.98)]
        checks = check_derivative_bounds_many(spec, ys)
        assert [c.band for c in checks[-3:]] == [(l - 1) // 2] * 3
        if l % 2 == 1:  # the last band lies below the half arch: one root there
            assert [c.expected_roots for c in checks[-3:]] == [l - 1] * 3
        for y, check in zip(ys, checks):
            assert hexed_fields(dataclasses.astuple(check)) == hexed_fields(census_oracle(spec, y))
            assert check == check_derivative_bounds(spec, y)

    @given(length_and_band_levels())
    def test_random_batches_match_the_scalar_census(self, case):
        l, ys = case
        spec = KernelSpec(l)
        checks = check_derivative_bounds_many(spec, np.array(ys))
        assert [hexed_fields(dataclasses.astuple(c)) for c in checks] == [
            hexed_fields(census_oracle(spec, y)) for y in ys
        ]

    def test_empty_batch(self):
        assert check_derivative_bounds_many(KernelSpec(8), []) == []

    def test_empty_batch_below_the_census_range_raises(self):
        with pytest.raises(PreconditionError, match=rf"^slope checks require l >= {CENSUS_MIN_LENGTH}, got 5$"):
            check_derivative_bounds_many(KernelSpec(5), [])

    def mid_band(self, spec):
        bottom, top = band_edges(spec)[0]
        return 0.5 * (bottom + top)

    def spy_checked_levels(self, monkeypatch):
        solved = []
        solve = levelsets._solve_levels

        def spying(table, which, ys):
            solved.append(np.asarray(ys).tolist())
            return solve(table, which, ys)

        monkeypatch.setattr(levelsets, "_solve_levels", spying)
        return solved

    def test_first_out_of_range_level_raises_its_own_error(self, monkeypatch):
        spec = KernelSpec(8)
        y = self.mid_band(spec)
        solved = self.spy_checked_levels(monkeypatch)
        with pytest.raises(PreconditionError, match=r"^level 0\.5 outside \("):
            check_derivative_bounds_many(spec, [y, 0.5, y])
        # the level before it is solved and checked, in one batch; no level after it
        assert solved == [[y]]

    def test_level_in_an_exclusion_window_raises_its_own_error(self, monkeypatch):
        spec = KernelSpec(9)
        y = self.mid_band(spec)
        peak = bump_profiles(spec)[2].peak_y
        solved = self.spy_checked_levels(monkeypatch)
        with pytest.raises(PreconditionError, match="within exclusion window"):
            check_derivative_bounds_many(spec, [y, y, peak + 0.5 * PEAK_EXCLUSION, 0.5])
        assert solved == [[y, y]]

    @pytest.mark.parametrize("bad", [math.nan, 0.0, 1.0, -1.0])
    def test_levels_outside_the_band_range(self, bad):
        spec = KernelSpec(6)
        with pytest.raises(PreconditionError, match="outside"):
            check_derivative_bounds_many(spec, [self.mid_band(spec), bad])

    def test_failed_check_before_an_invalid_level(self, monkeypatch):
        # slopes far above their caps fail the first level, which raises
        # before the second level's PreconditionError
        slope_values = levelsets.kernel_slope_values
        monkeypatch.setattr(levelsets, "kernel_slope_values", lambda l, x: 1e6 * slope_values(l, x))
        spec = KernelSpec(8)
        with pytest.raises(VerificationError, match="slope bound failed"):
            check_derivative_bounds_many(spec, [self.mid_band(spec), 0.5])

    def test_small_length_rejected(self):
        with pytest.raises(PreconditionError, match="l >= 6"):
            check_derivative_bounds_many(KernelSpec(5), [0.2, 0.3])

    @pytest.mark.parametrize("l", [8, 9, 301])
    def test_exclusion_windows_match_a_loop_over_every_peak(self, l, monkeypatch):
        spec = KernelSpec(l)
        peaks = [p.peak_y for p in bump_profiles(spec)[1:]]
        y_last = TruncatedGaussian.from_length(l).y_last

        def oracle(y):
            # the error of a level, from a test of every peak; None inside
            if not y_last < y < peaks[0]:
                return f"level {y} outside ({y_last}, {peaks[0]})"
            if not all(abs(y - p) >= PEAK_EXCLUSION for p in peaks):
                return f"level {y} within exclusion window of an arch peak"
            return None

        # No float lies exactly PEAK_EXCLUSION from a peak (|y - p| is exact
        # here), so each window edge falls between neighbouring floats: the
        # three nearest to the edge get both verdicts wherever it is in range.
        edges = {
            (p, side): [float(np.nextafter(e, -1.0)), e, float(np.nextafter(e, 2.0))]
            for p in peaks
            for side, e in ((-1, p - PEAK_EXCLUSION), (1, p + PEAK_EXCLUSION))
        }
        for (p, side), near in edges.items():
            if y_last < min(near) and max(near) < peaks[0]:
                assert {oracle(y) is None for y in near} == {True, False}, (p, side)
        # inside every window, next to its edges, between windows and out of range
        levels = [p + k * PEAK_EXCLUSION for p in peaks for k in (-3.0, -0.5, 0.0, 0.5, 3.0)]
        levels += [y for near in edges.values() for y in near]
        levels += [math.nan, y_last, peaks[0], 0.5 * (y_last + peaks[-1]), 1.0, 0.0]

        class Solved(Exception):
            pass

        solve = levelsets._solve_levels

        def solving(table, which, ys):
            if len(ys):
                raise Solved(np.asarray(ys).tolist())
            return solve(table, which, ys)

        monkeypatch.setattr(levelsets, "_solve_levels", solving)
        for y in levels:
            with pytest.raises((Solved, PreconditionError)) as caught:
                check_derivative_bounds_many(spec, [float(y)])
            error = oracle(float(y))
            want = (Solved, str([float(y)])) if error is None else (PreconditionError, error)
            assert (caught.type, str(caught.value)) == want
        # in one batch the levels before the first rejected one are solved together
        monkeypatch.setattr(levelsets, "_solve_levels", solve)
        first = next(i for i, y in enumerate(levels) if oracle(float(y)))
        with pytest.raises(PreconditionError) as caught:
            check_derivative_bounds_many(spec, levels)
        assert str(caught.value) == oracle(float(levels[first]))
