"""Distribution-function comparison between the kernel and its Gaussian majorant.

For a level y in (0, 1) the kernel's distribution function

    G(y) = measure{ x in [0, 1/2] : g(x) > y }

is assembled arch by arch: the first arch is monotone decreasing (one
crossing), every full arch contributes an interval around its peak (two
crossings), and for odd lengths the final half-arch rising to g(1/2) = 1/l
contributes at most one more crossing.  One cached table per length
(``_segments``) holds the arches' bounds, their peaks and the monotone
segments between them; ``bump_profiles`` is an uncached view of it.  Every
root of the module comes from one safeguarded Newton routine (``_newton``):
the arch peaks, as the roots of phi, the numerator of h', from the arch
midpoints (2-5 rounds each); each crossing of g = y, on its monotone
segment, from the arch inverted with its denominator frozen (or, on the
flat top of arch 0, from the osculating Gaussian with its x^4 correction),
so a root takes 3-4 rounds (3.8 on average, and a level's block of roots
4-6, on the benchmark's census levels), each round evaluating g and g'
together from one set of sines (``kernel.kernel_values_and_slopes``); and
y0, as the root of D below.  A block of at most ``_ROW_ROUNDS_MAX`` rows
keeps its rounds' bookkeeping on Python floats, a larger one on arrays,
with the same IEEE operations and so the same bits.  Every per-level quantity comes
from one solve of a batch of levels (``_solve_levels``), each level reading
its length's row of one padded stack of those tables (``_stack``), and a
level's roots are bit-identical in any batch.  With F the truncated
Gaussian's distribution function (closed form, see kernel.py), the module
proves that D = F - G changes sign exactly once, from - to +, at a level y0.
D' = F' + s, where s = -G' is the sum of 1/|g'| over the crossings.  Below
y_last F is constant, so D increases.  Band m >= 1 runs from
a_m = max(y_(m+1), y_last) up to the peak y_m of arch m, below e^(-1/2),
where |F'| falls as y rises; so D increases on the band if a bound on s there
beats |F'(a_m)|.  Bands m >= 3 take the slope census's caps,
s >= 1/(2l) + 4 m^2 / (l pi^2).  Bands 1 and 2 take one Lipschitz enclosure
each, from their crossings u_i and v_i at the two ends:
s >= sum_i 2 / (|g'(u_i)| + |g'(v_i)| + (v_i - u_i) L), where
L = pi^2 (l^2 - 1) / 3 is a Lipschitz constant of |g'|.  Above y_1 the
superlevel set lies in arch 0, where g < f (kernel.py's lemma), so D > 0.
The smallest ratio of bound to |F'| is the report's margin.  l < 6
(``CENSUS_MIN_LENGTH``) is not asserted, and the comparisons are floats,
not yet outward-rounded.  The module also evaluates the comparison
functional (integral f^p - integral g^p) / (p y0^p), whose monotonicity in
p transfers the p = 2 comparison upward, and validates the slope census.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, PreconditionError, VerificationError
from .kernel import (
    PI,
    KernelSpec,
    TruncatedGaussian,
    _check_levels,
    _slope_numerators,
    gaussian_distribution_function,
    kernel_slope_values,
    kernel_values,
    kernel_values_and_slopes,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, bump_partition, integrate_kernel_power

# levels this close to an arch peak are excluded from slope checks (the
# derivative of G is undefined exactly at the peaks)
PEAK_EXCLUSION = 1e-9

# the slope census's caps (``_census_slope_sum``) hold from this length on; the
# sign-change proof is asserted there, and the slope checks refuse shorter lengths
CENSUS_MIN_LENGTH = 6


@dataclass(frozen=True)
class BumpProfile:
    """One arch of the kernel: its interval and peak."""

    index: int
    x_lo: float
    x_hi: float
    peak_x: float
    peak_y: float


@dataclass(frozen=True)
class SignChangeReport:
    l: int
    y0: float
    crossings: int
    F0_lt_G0: bool
    G_lt_F_above_y1: bool
    margin: float  # smallest ratio of a band's slope-sum bound to |F'|; > 1 proves D increases


@dataclass(frozen=True)
class SlopeBoundCheck:
    """Root census and slope bounds at one level between the floor and y_1."""

    l: int
    y: float
    band: int
    root_count: int
    expected_roots: int
    sum_inverse_slope: float
    sum_lower_bound: float
    worst_bound_margin: float
    ok: bool


# The fields of a segment table, one float row each (flags 1.0 or 0.0): bracket,
# highest value, rising, half arch, arch index, length, ``_newton_start``'s constants.
_FIELDS = 10
_LO, _HI, _TOP, _INC, _HALF, _ARCH, _L, _FLAT_TOP, _C2, _C4 = range(_FIELDS)


@lru_cache(maxsize=16)  # a lockstep group stacks its tables once (``_stack``)
def _segments(l: int) -> np.ndarray:
    """The monotone segments of g on [0, 1/2] at length l, left to right: the one record of its arches.

    Returns the table of l alone, the read-only stack of a group of one
    length, indexed (field, 0, segment): arch 0 falls from 1, every full
    arch of ``bump_partition(l)`` rises to its peak and falls again, and an
    odd length's final half arch rises to g(1/2).  The peaks are the roots
    of phi, the numerator of h' (``kernel._slope_numerators``), all solved
    by one ``_newton`` from the arch midpoints; phi rises on the odd arches
    and falls on the even ones.  The constants are Python scalars, so a row
    gets the float its length alone gives.
    """
    arches = bump_partition(l)
    lo, hi = arches[1 : l // 2].T
    orient = np.where(np.arange(1, l // 2) % 2 == 1, 1.0, -1.0)
    peak_x = _newton(partial(_peak_gap, l=l), 0.5 * (lo + hi), lo, hi, orient)
    peak_y = kernel_values(l, peak_x)
    flat_top = 1.0 / (l * math.sin(PI / (2 * l)))
    c2 = PI**2 * (l * l - 1) / 6.0
    c4 = PI**4 * (l**4 - 1) / 180.0
    # (lo, hi, top, rising, half arch, arch index) of each segment
    segments = [(0.0, arches[0, 1], 1.0, False, False, 0)]
    for m, px, py in zip(range(1, l // 2), peak_x.tolist(), peak_y.tolist()):
        segments += [(arches[m, 0], px, py, True, False, m), (px, arches[m, 1], py, False, False, m)]
    if l % 2 == 1:
        segments.append((*arches[-1], kernel_values(l, arches[-1, 1:])[0], True, True, l // 2))
    table = np.array([seg + (l, flat_top, c2, c4) for seg in segments], dtype=float).T.copy()[:, None, :]
    table.setflags(write=False)
    return table


def bump_profiles(spec: KernelSpec) -> tuple[BumpProfile, ...]:
    """All arches of the kernel on [0, 1/2] with located peaks, read from ``_segments``.

    Arch 0 is the monotone lead-in [0, 1/l] with its maximum 1 at the origin;
    arch m >= 1 peaks strictly inside [m/l, (m+1)/l]; for odd l the final
    half-arch peaks at the right endpoint 1/2 with height exactly 1/l.  Each
    arch m >= 1 has one rising segment, which ends at its peak.  Uncached.
    """
    seg = _segments(spec.l)[:, 0]
    rising = seg[:, seg[_INC] == 1.0]
    peaks = [(0.0, 1.0), *zip(rising[_HI].tolist(), rising[_TOP].tolist())]
    bounds = bump_partition(spec.l).tolist()
    return tuple(BumpProfile(m, lo, hi, *peak) for m, ((lo, hi), peak) in enumerate(zip(bounds, peaks)))


def _stack(ls) -> np.ndarray:
    """The tables of the lengths ``ls`` as rows of one, padded with top = -inf, which no level straddles."""
    segments = [_segments(l) for l in ls]
    width = max(seg.shape[2] for seg in segments)
    table = np.zeros((_FIELDS, len(segments), width))
    table[_TOP] = -math.inf
    for k, seg in enumerate(segments):
        table[:, k, : seg.shape[2]] = seg[:, 0]
    return table


# hard cap on Newton rounds per root, which returns x unconverged: the worst
# rows measured, levels within 1e-15 of 1 at l = 2 with roots near 1e-8, whose
# ulps are 1e-24, bisect for 49 rounds (tests pin the margin)
_MAX_ROUNDS = 60
# a Newton block of at most this many rows keeps its bookkeeping on Python
# floats, where numpy's per-call cost outweighs the arithmetic: one level's
# crossings solved x1.27 faster at 18 rows, x1.09 at 34, x1.00 at 41, x0.90 at
# 50 and x0.40 at 297 (2 shared vCPUs, Python 3.11, numpy 2.4)
_ROW_ROUNDS_MAX = 40
# rows solved together; bounds the temporaries of a large batch of levels
_BLOCK_ROWS = 4096
_STRADDLE_CELLS = 8 * _BLOCK_ROWS  # tops gathered per pass of the straddle test; bounds its memory
# fixed-point steps of the inverted-arch start estimate
_START_STEPS = 2
# the start estimate reads levels below this as this: below about 1e-17 the
# estimate is an arch end to the last ulp anyway, and y l sin(pi x) then
# cannot underflow
_START_LEVEL_FLOOR = 1e-300


def _newton_start(y, seg) -> np.ndarray:
    """Start point of each Newton row: the arch inverted with its denominator frozen.

    On arch k the numerator is sin(theta) with l pi x = k pi + theta, so
    g(x) = y reads sin(theta) = y l sin(pi x).  From the bracket midpoint,
    each of ``_START_STEPS`` fixed-point steps sets
    a = asin(min(1, y l sin(pi x))) / pi and then x = (k + a) / l on a
    rising segment, (k + 1 - a) / l on a falling one.  Arch 0 falls from 1
    and is treated the same way below its mid-height 1/(l sin(pi/(2l))),
    where theta passes pi/2.  Above it, where g is flat and the sine form
    loses its digits, the start inverts the osculating Gaussian
    exp(-pi^2 (l^2 - 1) x^2 / 6) together with the next term of log g,
    -pi^4 (l^4 - 1) x^4 / 180, which takes about 0.8 rounds more off the
    flat top.  Every estimate is clipped into its bracket, and each row's
    start depends on that row alone.
    """
    lo, hi, inc, arch, l = seg[_LO], seg[_HI], seg[_INC], seg[_ARCH], seg[_L]
    x = 0.5 * (lo + hi)
    yl = np.maximum(y, _START_LEVEL_FLOOR) * l
    for _ in range(_START_STEPS):
        a = np.arcsin(np.minimum(1.0, yl * np.sin(PI * x))) / PI
        x = np.where(inc, arch + a, arch + 1.0 - a) / l
    top = (arch == 0) & (y > seg[_FLAT_TOP])
    if np.count_nonzero(top):
        # -log g(x) = c2 x^2 + c4 x^4 + O(x^6), solved for x^2 without cancellation
        c2, c4 = seg[_C2, top], seg[_C4, top]
        log_y = -np.log(y[top])
        x[top] = np.sqrt(2.0 * log_y / (c2 + np.sqrt(c2 * c2 + 4.0 * c4 * log_y)))
    return np.minimum(np.maximum(x, lo), hi)


def _newton(evaluate, x, lo, hi, *rows, step_tol=None) -> np.ndarray:
    """Safeguarded Newton (``rtsafe``, Numerical Recipes, section 9.4) on brackets [lo, hi], row by row.

    ``evaluate(x, *rows)`` returns each row's value d, signed so that the
    root lies left of x where d > 0, and |d'|.  A round shrinks the bracket
    by the sign of d and steps by -d / |d'|.  A step that leaves the
    bracket, or is not finite, becomes a bisection step; so does a step
    longer than the tolerance onto a bracket end, which would revisit an
    evaluated point and, where d is flat to rounding, can cycle between the
    two ends.  A row is done when d == 0 (it keeps x) or when its step is at
    most ``step_tol``, by default 2 ulps of x.  ``rows`` are the per-row
    arrays that ``evaluate`` reads; a round works on the unfinished rows'
    own arrays, compacted only on a round where some row finishes, so no
    row's result depends on another's, and no round runs without a row.
    A block of at most ``_ROW_ROUNDS_MAX`` rows runs ``_newton_rows``, with
    the same IEEE operations on Python floats, so the same bits.
    """
    if len(x) <= _ROW_ROUNDS_MAX:
        return _newton_rows(evaluate, x, lo, hi, rows, step_tol)
    lo, hi = lo.copy(), hi.copy()
    out = np.empty(len(x))
    index = np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ROUNDS):
            if not len(index):
                return out
            d, slope = evaluate(x, *rows)
            # x replaces the bracket end on its side of the root (lo where d == 0, which finishes the row)
            np.copyto(lo, x, where=d <= 0.0)
            np.copyto(hi, x, where=d > 0.0)
            newton = x - d / slope
            tol = 2.0 * np.spacing(x) if step_tol is None else step_tol
            keep = (lo < newton) & (newton < hi)
            np.copyto(keep, (lo <= newton) & (newton <= hi), where=np.abs(newton - x) <= tol)
            xn = 0.5 * (lo + hi)
            np.copyto(xn, newton, where=keep)
            np.copyto(xn, x, where=d == 0.0)
            x, going = xn, np.abs(xn - x) > tol
            if np.count_nonzero(going) < len(index):
                out[index] = x
                index, x, lo, hi, *rows = (v[going] for v in (index, x, lo, hi, *rows))
    out[index] = x
    return out


def _newton_rows(evaluate, x, lo, hi, rows, step_tol) -> np.ndarray:
    """``_newton``'s rounds with one ``evaluate`` call each and the rest on Python floats.

    Each line is the array round's for one row.  A zero slope's step is
    inf: numpy's d/0 is +-inf or NaN, and each bisects (or keeps x where
    d == 0).  np.spacing(x) is math.ulp(x), negated for x < 0 (x stays
    finite, inside its bracket), and NaN compares false in both.
    """
    out, index = np.empty(len(x)), np.arange(len(x))
    x, lo, hi = x.tolist(), lo.tolist(), hi.tolist()
    ulp, inf = math.ulp, math.inf
    for _ in range(_MAX_ROUNDS):
        if not x:
            return out
        d, slope = evaluate(np.array(x), *rows)
        going = []
        for k, xk, dk, sk in zip(range(len(x)), x, d.tolist(), slope.tolist()):
            a, b = lo[k], hi[k]
            if dk <= 0.0:
                lo[k] = a = xk
            elif dk > 0.0:
                hi[k] = b = xk
            newton = xk - dk / sk if sk else inf
            tol = (-2.0 * ulp(xk) if xk < 0.0 else 2.0 * ulp(xk)) if step_tol is None else step_tol
            if not (a <= newton <= b if abs(newton - xk) <= tol else a < newton < b):
                newton = 0.5 * (a + b)
            x[k] = xn = xk if dk == 0.0 else newton
            going.append(abs(xn - xk) > tol)
        if not all(going):
            out[index] = x
            mask = np.array(going)
            index, *rows = (v[mask] for v in (index, *rows))
            x, lo, hi = ([v for v, g in zip(u, going) if g] for u in (x, lo, hi))
    out[index] = x
    return out


def _peak_gap(x, orient, l):
    """phi at the points x of length l, oriented to rise, and |phi'|: the peaks' ``_newton`` evaluator."""
    phi, slope = _slope_numerators(l, x)
    return orient * phi, np.abs(slope)


def _level_gap(x, y, l, step_sign):
    """g(x) - y, oriented to rise by the segment's ``step_sign``, and |g'|: the crossings' ``_newton`` evaluator.

    One pass over the sines gives both (``kernel_values_and_slopes``), and
    multiplying by +-1.0 is exact.
    """
    g, slope = kernel_values_and_slopes(l, x)
    return step_sign * (g - y), np.abs(slope)


def _newton_segments(y, segments, flat) -> np.ndarray:
    """Roots of g(x) = y_i on monotone brackets [lo, hi] of segments[:, flat_i].

    Each row runs ``_newton`` on g - y from the inverted-arch estimate of
    ``_newton_start``, in blocks of ``_BLOCK_ROWS`` gathered one at a time;
    no row's result depends on another's, whatever its length.
    """
    x = np.empty(len(y))
    for start in range(0, len(y), _BLOCK_ROWS):
        part = slice(start, start + _BLOCK_ROWS)
        x[part] = _newton_block(y[part], segments.take(flat[part], axis=1))
    return x


def _newton_block(y, seg) -> np.ndarray:
    """The roots of one block of ``_newton_segments``, the sign of g' taken from each segment's ``inc``."""
    step_sign = np.where(seg[_INC] == 1.0, 1.0, -1.0)
    return _newton(_level_gap, _newton_start(y, seg), seg[_LO], seg[_HI], y, seg[_L], step_sign)


def _solve_levels(table: np.ndarray, which: np.ndarray, ys: np.ndarray):
    """Check the levels ys and solve every crossing of all of them at once.

    The one solve of the module.  Level i has the length of row ``which[i]``
    of ``table`` (``_stack``); one straddle test, on about
    ``_STRADDLE_CELLS`` tops at a time, finds the segments it crosses.
    Returns (row, roots, segments): one entry per (level, segment) pair,
    level-major and each level's left to right, so its roots ascend, with
    the fields of the segment.  A level's superlevel measure is then
    sum(decreasing roots) - sum(increasing roots) + 1/2 per half arch.  Every
    Newton row iterates on its own, so a level's roots depend neither on the
    others nor on their lengths.
    """
    _check_levels(ys)
    top = table[_TOP]
    straddled = np.empty((len(ys), top.shape[1]), dtype=bool)
    step = 1 + _STRADDLE_CELLS // (1 + top.shape[1])
    for start in range(0, len(ys), step):
        part = slice(start, start + step)
        np.less(ys[part, None], top.take(which[part], axis=0), out=straddled[part])
    row, flat = np.nonzero(straddled)
    flat += which[row] * top.shape[1]
    segments = table.reshape(len(table), -1)
    return row, _newton_segments(ys[row], segments, flat), segments.take(flat, axis=1)


def _measures(n: int, row, roots, seg) -> np.ndarray:
    # each descending root closes an interval that an ascending root (or 0) opened
    out = np.zeros(n)
    np.add.at(out, row, np.where(seg[_INC], -roots, roots))
    np.add.at(out, row[seg[_HALF] == 1.0], 0.5)
    return out


def _slope_sums(n: int, row: np.ndarray, slopes: np.ndarray):
    """Level i's crossings, bounds[i] to bounds[i + 1], and its slope sum |G'(y)|.

    The sum of 1/|g'| is each level's own sum, which goes pairwise from 8
    roots on: ``np.add.reduceat`` adds in sequence and would move bits.
    """
    bounds = row.searchsorted(np.arange(n + 1)).tolist()
    inverse = 1.0 / slopes
    return bounds, [float(inverse[a:b].sum()) for a, b in zip(bounds, bounds[1:])]


def superlevel_measure_many(spec: KernelSpec, ys) -> np.ndarray:
    """Vectorized measure of {x in [0, 1/2] : g(x) > y} for a batch of levels."""
    ys = np.asarray(ys, dtype=float)
    row, roots, seg = _solve_levels(_segments(spec.l), np.zeros(len(ys), dtype=np.intp), ys)
    return _measures(len(ys), row, roots, seg)


def superlevel_measure(spec: KernelSpec, y: float) -> float:
    """Measure of the superlevel set {x in [0, 1/2] : g(x) > y}."""
    return float(superlevel_measure_many(spec, np.array([float(y)]))[0])


def level_crossings(spec: KernelSpec, y: float):
    """All solutions of g(x) = y in [0, 1/2], with their arch indices.

    Returns (roots, arches, increasing) as parallel arrays in left-to-right
    segment order; each root lies in its own segment, so the roots ascend.
    Bracketed Newton (see ``_newton_segments``) pins each root to within a
    few ulps.
    """
    _, roots, seg = _solve_levels(_segments(spec.l), np.zeros(1, dtype=np.intp), np.array([float(y)]))
    return roots, seg[_ARCH].astype(int), seg[_INC] == 1.0


def slope_sum(spec: KernelSpec, y: float) -> float:
    """Sum of 1/|g'| over all crossings of the level y (equals |G'(y)|)."""
    row, roots, _ = _solve_levels(_segments(spec.l), np.zeros(1, dtype=np.intp), np.array([float(y)]))
    return _slope_sums(1, row, np.abs(kernel_slope_values(spec.l, roots)))[1][0]


def _gaussian_slope(l: int, y, f):
    """|F'(y)| = 1 / (pi (l^2 - 1) y F(y)) at levels y >= y_last, given f = F(y)."""
    return 1.0 / (PI * (l * l - 1) * y * f)


def _census_slope_sum(l: int, m):
    """The slope census's lower bound on |G'| in band m, from caps on |g'| at its crossings.

    |g'| <= 2l on arch 0 (l >= 6), and <= (pi l / 2k)(1 + 1/2k) <= l pi^2 / (4k)
    on arch k >= 1, where sin(pi x) >= 2k/l.
    """
    return 1.0 / (2.0 * l) + 4.0 * m * m / (l * PI**2)


def _slope_lipschitz(l: int) -> float:
    """pi^2 (l^2 - 1) / 3, a Lipschitz constant of |g'| = |h'| on [0, 1/2].

    h = (1/l) sum_{j<l} cos(pi (l - 1 - 2j) x), so |h''| is at most
    (pi^2 / l) sum_j (l - 1 - 2j)^2, this constant, with equality at x = 0.
    """
    return PI**2 * (l * l - 1) / 3.0


# a Newton step on y0 this short ends the refinement: the error it leaves
# is of the order of its square, far below the step itself
_Y0_STEP_TOL = 1e-10


def _crossing_gap(y, which, orient, table, tgs):
    """D(y) = F(y) - G(y) at length row ``which`` of ``table``, oriented to rise, and |D'|: the y0 ``_newton`` evaluator.

    One solve of every level gives both G and the slope sum, and
    D' = F' + slope_sum, with F' from ``_gaussian_slope`` above y_last and
    0 below it, since G' is minus the slope sum.
    """
    row, roots, seg = _solve_levels(table, which, y)
    g = _measures(len(y), row, roots, seg)
    _, sums = _slope_sums(len(y), row, np.abs(kernel_slope_values(seg[_L], roots)))
    cases = list(zip([tgs[k] for k in which.tolist()], y.tolist(), sums))
    f = [gaussian_distribution_function(tg, v) for tg, v, _ in cases]
    slope = [(0.0 if v < tg.y_last else -_gaussian_slope(tg.l, v, fv)) + s for (tg, v, s), fv in zip(cases, f)]
    return orient * (np.array(f) - g), np.abs(slope)


# lengths run in lockstep while their band-end solves add at most this many
# Newton rows in all, which bounds a solve's rows and its memory
_LOCKSTEP_ROWS = 8 * _BLOCK_ROWS


def _lockstep_groups(specs: list[KernelSpec]) -> list[list[KernelSpec]]:
    """Consecutive runs of specs whose band-end solves add at most ``_LOCKSTEP_ROWS`` rows.

    A length solves at most 4 band-end levels of at most l - 1 segments
    each; a length over the bound runs alone.
    """
    groups, rows = [], _LOCKSTEP_ROWS
    for spec in specs:
        add = 4 * (spec.l - 1)
        if rows + add > _LOCKSTEP_ROWS:
            groups.append([])
            rows = 0
        groups[-1].append(spec)
        rows += add
    return groups


def _band_margin(rising: np.ndarray, tg: TruncatedGaussian, ends: dict) -> float:
    """The smallest ratio of a bound on |G'| to |F'(a_m)| over the bands m >= 1 of one length (inf: none).

    ``rising`` holds the length's rising segments, whose ends are the arch
    peaks; ``ends`` maps each solved band end to its roots and their |g'|.
    On |g'|'s Lipschitz tent between a crossing's ends, its sup is
    (|g'(u)| + |g'(v)| + lipschitz |v - u|) / 2.
    """
    l = tg.l
    peaks = rising[_TOP]  # y_1 > y_2 > ...
    bands = np.nonzero(peaks > tg.y_last)[0]  # band m is entry m - 1
    lows = np.maximum(np.append(peaks[1:], tg.y_last), tg.y_last)[bands]
    bounds = _census_slope_sum(l, bands + 1.0)
    for m in bands[:2].tolist():
        u, su = ends[lows[m]]
        v, sv = ends[peaks[m]]
        # at y_m, arch m's one or two crossings sit at its peak, where g' = 0
        v = np.append(v, np.full(len(u) - len(v), rising[_HI, m]))
        sv = np.append(sv, np.zeros(len(u) - len(sv)))
        bounds[m] = np.sum(2.0 / (su + sv + _slope_lipschitz(l) * np.abs(v - u)))
    ratios = bounds / _gaussian_slope(l, lows, gaussian_distribution_function(tg, lows))
    return float(np.min(ratios, initial=math.inf))


def detect_sign_changes(specs) -> list[SignChangeReport]:
    """Prove the single sign change of F - G (module docstring) and refine y0, for every length.

    ``crossings`` counts the sign changes of D at 0+ and at the solved band
    ends y_1, y_2, y_3 and y_last (clipped to y_last), every sign change under
    the proof; y0 is refined from the pair that brackets it.  From
    ``CENSUS_MIN_LENGTH`` on, any other pattern than one crossing from - to
    +, D(y_1) <= 0 or a margin <= 1 raises, the first failing length first,
    as in a loop of single calls.
    """
    return [report for group in _lockstep_groups(list(specs)) for report in _sign_changes(group)]


def _sign_changes(specs: list[KernelSpec]) -> list[SignChangeReport]:
    """The reports of :func:`detect_sign_changes` for one lockstep group."""
    tgs = [TruncatedGaussian.from_length(spec.l) for spec in specs]
    table = _stack([spec.l for spec in specs])
    # each length's rising segments, one per side arch, which end at its peak
    risings = [table[:, k, table[_INC, k] == 1.0] for k in range(len(specs))]
    # the ends of bands 1 and 2, ascending: y_last and y_3, y_2, y_1 clipped to it
    levels = [np.unique(np.maximum(np.append(r[_TOP, :3], tg.y_last), tg.y_last)) for r, tg in zip(risings, tgs)]
    ys = np.concatenate(levels)
    which = np.repeat(np.arange(len(specs)), [len(v) for v in levels])
    row, roots, seg = _solve_levels(table, which, ys)
    g = _measures(len(ys), row, roots, seg)
    bounds = row.searchsorted(np.arange(len(ys) + 1)).tolist()
    slopes = np.abs(kernel_slope_values(seg[_L], roots))
    ends = [(roots[a:b], slopes[a:b]) for a, b in zip(bounds, bounds[1:])]

    fields, brackets, start = [], [], 0
    for k, (tg, level) in enumerate(zip(tgs, levels)):
        stop = start + len(level)
        margin = _band_margin(risings[k], tg, dict(zip(level, ends[start:stop])))
        # D at 0+, where F = x_c and G = 1/2, and at each band end
        d = np.append(tg.x_c - 0.5, gaussian_distribution_function(tg, level) - g[start:stop])
        start = stop
        nz = np.nonzero(d)[0]
        flips = np.nonzero(d[nz[:-1]] * d[nz[1:]] < 0.0)[0]
        if len(flips):
            i, j = nz[flips[0]], nz[flips[0] + 1]
            brackets.append((k, float(level[i - 1]) if i else 0.0, float(level[j - 1]), 1.0 if d[i] < 0.0 else -1.0))
        # without a side arch (l = 2) arch 0 is all of [0, 1/2]: no y_1
        above = not risings[k].size or (level[-1] > tg.y_last and d[-1] > 0.0)
        fields.append((len(flips), tg.x_c < 0.5, bool(above), margin))
    # y0 by ``_newton`` on D, from the middle of each bracket (row, lo, hi, +1.0 where D(lo) < 0)
    which, lo, hi, orient = np.array(brackets).reshape(-1, 4).T
    which = which.astype(np.intp)
    y0s = np.full(len(specs), math.nan)
    gap = partial(_crossing_gap, table=table, tgs=tgs)
    y0s[which] = _newton(gap, 0.5 * (lo + hi), lo, hi, which, orient, step_tol=_Y0_STEP_TOL)

    reports = [SignChangeReport(spec.l, float(y0s[k]), *fields[k]) for k, spec in enumerate(specs)]
    for r in reports:
        proven = (r.crossings, r.F0_lt_G0, r.G_lt_F_above_y1, r.margin > 1.0) == (1, True, True, True)
        if r.l >= CENSUS_MIN_LENGTH and not proven:
            raise VerificationError(f"single sign change not proven: {r}")
    return reports


def detect_sign_change(spec: KernelSpec) -> SignChangeReport:
    """:func:`detect_sign_changes` for one length."""
    return detect_sign_changes([spec])[0]


def comparison_functional(
    spec: KernelSpec,
    p: float,
    y0: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """(2 int_0^{x_c} f^p - int |D_l|^p) / (p y0^p); nondecreasing in p.

    f^p = exp(-a x^2) with a = p pi (l^2 - 1) / 2, so its integral over
    [0, x_c] is sqrt(pi / a) erf(x_c sqrt(a)) / 2 in closed form.
    """
    if not p >= 2.0:
        raise PreconditionError(f"comparison functional needs p >= 2, got {p}")
    if not 0.0 < y0 < 1.0:
        raise DomainError(f"crossing level y0 = {y0} outside (0, 1)")
    y0_p = y0**p  # an infinite p makes it 0.0 too
    if y0_p < sys.float_info.min:  # a subnormal divisor loses digits, and 0.0 cannot divide
        limit = math.log(sys.float_info.min) / math.log(y0)
        raise DomainError(f"y0**p underflows the smallest normal float at y0 = {y0}: p must be <= {limit}, got {p}")
    g_int, _, ok_g = integrate_kernel_power(spec, p, cfg)
    if not ok_g:
        raise VerificationError(f"comparison functional quadrature did not converge at p={p}")
    x_c = TruncatedGaussian.from_length(spec.l).x_c
    a = p * PI * (spec.l * spec.l - 1) / 2.0
    f_int = 0.5 * math.sqrt(PI / a) * math.erf(x_c * math.sqrt(a))
    return (2.0 * f_int - g_int) / (p * y0_p)


def check_derivative_bounds_many(spec: KernelSpec, ys) -> list[SlopeBoundCheck]:
    """Validate the root census and slope bounds at every level of ys, below y_1.

    Each level must lie strictly between the Gaussian floor and the first
    arch peak, away from every peak by the exclusion window.  For a level in
    the band below arch m's peak, the census is one root on the first arch
    and two per full arch up to m (one on a final half-arch), and the inverse
    slopes must sum to at least 1/(2l) + 4 m^2 / (l pi^2).  The levels before
    the first one out of range are solved in one batch and checked in order;
    then that level raises, so the first failing level decides the error, as
    in a loop of single checks.
    """
    l = spec.l
    if l < CENSUS_MIN_LENGTH:  # before an empty batch returns, so no length outside the range passes
        raise PreconditionError(f"slope checks require l >= {CENSUS_MIN_LENGTH}, got {l}")
    ys = np.asarray(ys, dtype=float)
    if not len(ys):
        return []
    # the rising segments' tops: the peaks of arches 1, 2, ..., falling with the arch
    tops = _segments(l)[_TOP, 0, 1::2]
    peaks = [*tops.tolist(), -math.inf]
    tg = TruncatedGaussian.from_length(l)
    y1 = peaks[0]
    levels = ys.tolist()
    bands = np.searchsorted(np.negative(tops), -ys).tolist()  # band m: arches 1..m peak above

    def inside(y, m):  # |y - p| grows away from the band's ends, peaks[m - 1] > y >= peaks[m]; NaN fails
        return tg.y_last < y < y1 and min(abs(y - peaks[m - 1]), abs(y - peaks[m])) >= PEAK_EXCLUSION

    n = next((i for i, (y, m) in enumerate(zip(levels, bands)) if not inside(y, m)), len(ys))
    row, roots, seg = _solve_levels(_segments(l), np.zeros(n, dtype=np.intp), ys[:n])
    slopes = np.abs(kernel_slope_values(l, roots))
    # each level's crossings, from bounds[i] to bounds[i + 1]; every level has one on arch 0
    bounds, inv_sums = _slope_sums(n, row, slopes)
    # the caps behind ``_census_slope_sum``, arch 0's <= 2l (np.maximum only spares arch 0 a 1/0)
    first_cap = (l * PI / 2.0) * ((PI / l) / math.sin(PI / l)) ** 2
    caps = np.where(seg[_ARCH] == 0, first_cap, l * PI**2 / (4.0 * np.maximum(seg[_ARCH], 1)))
    slack = 1e-9
    worst = np.maximum.reduceat(slopes - caps, bounds[:-1]).tolist()
    over = np.logical_or.reduceat(slopes > caps + slack, bounds[:-1]).tolist()
    checks = []
    for y, m, start, stop, inv_sum, margin, over_cap in zip(levels, bands, bounds, bounds[1:], inv_sums, worst, over):
        want = 1 + 2 * m - (l % 2 == 1 and m == l // 2)  # a final half arch has one root
        if stop - start != want:
            raise VerificationError(
                f"root census mismatch at l={l}, y={y}: found {stop - start}, expected {want}"
            )
        lower = _census_slope_sum(l, m)
        check = SlopeBoundCheck(
            l=l,
            y=y,
            band=m,
            root_count=want,
            expected_roots=want,
            sum_inverse_slope=inv_sum,
            sum_lower_bound=lower,
            worst_bound_margin=margin,
            ok=not (over_cap or inv_sum < lower - slack),
        )
        if not check.ok:
            raise VerificationError(f"slope bound failed: {check}")
        checks.append(check)
    if n < len(ys):
        if not tg.y_last < levels[n] < y1:
            raise PreconditionError(f"level {levels[n]} outside ({tg.y_last}, {y1})")
        raise PreconditionError(f"level {levels[n]} within exclusion window of an arch peak")
    return checks


def check_derivative_bounds(spec: KernelSpec, y: float) -> SlopeBoundCheck:
    """:func:`check_derivative_bounds_many` at one level."""
    return check_derivative_bounds_many(spec, [y])[0]
