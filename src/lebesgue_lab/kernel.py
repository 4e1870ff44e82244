"""Evaluation of the absolute normalized Dirichlet kernel and its Gaussian majorant.

The two functions at the heart of the package are

    g(x) = |sin(l pi x)| / (l sin(pi x))   on [0, 1/2],

the modulus of the normalized Dirichlet kernel of length ``l``, and the
truncated Gaussian

    f(x) = exp(-pi (l^2 - 1) x^2 / 2)      on [0, x_c],  0 beyond,

cut off at the level ``y_last`` where the exponential first drops below the
floor 2/(pi (l+1)) (even ``l``) or 2/(pi (l+2)) (odd ``l``).  The module also
provides the closed-form distribution function of ``f`` and a grid check of
the pointwise domination g < f on the first arch (0, 1/l].

Lemma (arch 0): g(x) <= exp(-pi^2 (l^2 - 1) x^2 / 6) < f(x) for 0 < |x| < 1/l
and every l >= 2.  With sinc(z) = sin(pi z)/(pi z), g(x) = sinc(l x)/sinc(x),
and for |z| < 1 the product sinc(z) = prod_n (1 - z^2/n^2) gives

    log sinc(z) = -sum_{j>=1} zeta(2j) z^(2j) / j,

so log g(x) = -sum_{j>=1} zeta(2j) (l^(2j) - 1) x^(2j) / j.  Every term is
negative, and the first alone is -pi^2 (l^2 - 1) x^2 / 6, since
zeta(2) = pi^2/6; that is the first inequality.  The second holds because
pi^2/6 > pi/2.  Above the peak y_1 of arch 1, the superlevel set of g lies in
arch 0, so G(y) < F(y) there when y_1 > y_last (levelsets.py uses this).
The grid check confirms the floating-point evaluation, not the lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

PI = math.pi

# below this abscissa the sine quotient is evaluated by series to avoid 0/0
_SERIES_CUTOFF = 1e-8


# The range where the paper's L^p bound, integral g^p < sqrt(2 / (p (l^2 - 1))),
# is a theorem.  Every check resting on it reads it here: certificates and norm
# records (quadrature.py), the chain and the entropy-power assertion (epi.py).
BOUND_MIN_LENGTH = 6
BOUND_MIN_EXPONENT = 2  # an int, so epi's split test stays in integers

# the longest kernel: the closed forms below take l^2 - 1 and l x in floats,
# exact or rounded once only for l < 2^26
MAX_LENGTH = 2**26 - 1


def bound_range_problem(l: int, p: float) -> str | None:
    """The first floor of the range that (l, p) is below, as ``l >= 6, got 5``, or None (NaN p too)."""
    if l < BOUND_MIN_LENGTH:
        return f"l >= {BOUND_MIN_LENGTH}, got {l}"
    return f"p >= {BOUND_MIN_EXPONENT}, got {p}" if p < BOUND_MIN_EXPONENT else None


@dataclass(frozen=True)
class KernelSpec:
    """Length parameter of the normalized Dirichlet kernel.

    ``l`` must be an integer in [2, MAX_LENGTH].  Operations that rest on
    the sharp norm bound additionally require its range
    (:func:`bound_range_problem`).
    """

    l: int

    def __post_init__(self):
        if isinstance(self.l, bool) or int(self.l) != self.l:
            raise DomainError(f"kernel length must be an integer, got {self.l!r}")
        object.__setattr__(self, "l", int(self.l))
        if self.l < 2:
            raise DomainError(f"kernel length must be >= 2, got {self.l}")
        if self.l > MAX_LENGTH:
            raise DomainError(f"kernel length must be <= {MAX_LENGTH} (2^26 - 1), got {self.l}")


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian comparison function with stored cutoff data.

    ``x_c`` and ``y_last`` are computed once in :meth:`from_length` and then
    carried verbatim so every consumer sees bit-identical values.
    """

    l: int
    x_c: float
    y_last: float

    @classmethod
    def from_length(cls, l: int) -> "TruncatedGaussian":
        l = KernelSpec(l).l
        if l % 2 == 0:
            y_last = 2.0 / (PI * (l + 1))
        else:
            y_last = 2.0 / (PI * (l + 2))
        x_c = math.sqrt(2.0 * math.log(1.0 / y_last) / (PI * (l * l - 1)))
        return cls(l=l, x_c=x_c, y_last=y_last)


def _sinc_poly(u2: np.ndarray) -> np.ndarray:
    # sin(u)/u = 1 - u^2/6 + u^4/120 + O(u^6); u^2 <= 1e-3 in all callers
    return 1.0 - u2 / 6.0 + u2 * u2 / 120.0


def _sines(l, x: np.ndarray):
    """sin u, sin(pi x) and phi = l cos u sin(pi x) - sin u cos(pi x), with u = pi fmod(l x, 2).

    Every closed form in x reads these: g = |sin u| / (l sin(pi x)), its
    slope pi phi / (l sin^2(pi x)), and phi with its slope.  The argument
    is reduced modulo the period before the multiply by pi, so l x never
    feeds a huge argument into sin, but after l x is rounded.
    """
    u = PI * np.fmod(l * x, 2.0)
    sin_u = np.sin(u)
    pi_x = PI * x
    s = np.sin(pi_x)
    return sin_u, s, l * np.cos(u) * s - sin_u * np.cos(pi_x)


def _closed_values_and_slopes(l, x: np.ndarray):
    sin_u, s, phi = _sines(l, x)
    l_sin = l * s
    return np.abs(sin_u) / l_sin, PI * phi / (l_sin * s)


def kernel_values_and_slopes(l, x: np.ndarray):
    """g(x) and the signed slope of h(x) = sin(l pi x)/(l sin(pi x)), from one evaluation of the sines.

    Returns (values, slopes), without domain checks (callers guarantee x in
    [0, 1/2]).  Away from the origin they are the closed forms
    |sin(l pi x)| / (l sin(pi x)) and the quotient rule expression

        pi * (l cos(l pi x) sin(pi x) - sin(l pi x) cos(pi x)) / (l sin^2(pi x)).

    Rounding l x jitters g by about g' times an ulp of x, at the float Gauss
    nodes up to 1.9e-11 relative at l = 1000 and 2.5e-9 at l = 100001
    against mpmath (:func:`arch_values` rounds no such argument).  Below the
    series cutoff both come from truncated sinc series instead of 0/0, the
    slope as h(x) * d/dx log h(x); an array with no such point skips the
    masking.  ``l`` is one length or an array of lengths shaped like ``x``;
    each point gets what its length alone gives.  The series constants
    l^2 - 1 and l^4 - 1 = (l^2 - 1)(l^2 + 1) are taken in floats: exact, or
    rounded once, for every l <= MAX_LENGTH.
    """
    x = np.asarray(x, dtype=float)
    small = x < _SERIES_CUTOFF
    if not np.count_nonzero(small):
        return _closed_values_and_slopes(l, x)
    values = np.empty_like(x)
    slopes = np.empty_like(x)
    ls = np.broadcast_to(l, x.shape)
    big = ~small
    values[big], slopes[big] = _closed_values_and_slopes(ls[big], x[big])
    xs, lengths = x[small], ls[small]
    l2m1 = lengths.astype(float) ** 2 - 1.0
    h = _sinc_poly((lengths * PI * xs) ** 2) / _sinc_poly((PI * xs) ** 2)
    values[small] = h
    slopes[small] = h * (-(PI**2) * l2m1 * xs / 3.0 - (PI**4) * (l2m1 * (l2m1 + 2.0)) * xs**3 / 45.0)
    return values, slopes


def kernel_values(l, x: np.ndarray) -> np.ndarray:
    """Vectorized g(x) for x in [0, 1/2] and l <= MAX_LENGTH: the value half of :func:`kernel_values_and_slopes`."""
    return kernel_values_and_slopes(l, x)[0]


def arch_values(l, k, s):
    """g at l x = k + s on arch k, s in (0, 1), or in (0, 1/2] on an odd length's final half arch.

    sin(pi min(s, 1 - s)) / (l (sin(pi k/l) cos(pi s/l) + cos(pi k/l) sin(pi s/l))) rounds no
    argument to l x: within 1e-15 relative of mpmath for l up to 2 * 10^5 and s from 1e-300,
    near the arch ends too.  The arguments broadcast (s an array), each value its (l, k, s)'s alone.
    """
    arch, node = PI * k / l, PI * s / l
    den = np.sin(arch) * np.cos(node)
    den += np.cos(arch) * np.sin(node)  # in place: one (K, 46) temporary fewer
    return np.divide(np.sin(PI * np.minimum(s, 1.0 - s)) / l, den, out=den)


def eval_kernel(spec: KernelSpec, x: float) -> float:
    """g(x) = |sin(l pi x)| / (l sin(pi x)) for x in [0, 1/2]."""
    if not 0.0 <= x <= 0.5:
        raise DomainError(f"x = {x} outside [0, 1/2]")
    return float(kernel_values(spec.l, np.array([x]))[0])


def _slope_numerators(l: int, x: np.ndarray):
    """phi(x) = l cos(l pi x) sin(pi x) - sin(l pi x) cos(pi x), the numerator of h', and phi'(x).

    h' = pi phi / (l sin^2(pi x)), so the peaks of g are the roots of phi,
    and phi'(x) = -pi (l^2 - 1) sin(l pi x) sin(pi x) keeps one sign on
    each arch (k/l, (k+1)/l): one root per arch.  Both come from
    :func:`_sines`; l^2 - 1 is exact for l <= MAX_LENGTH.
    """
    sin_u, s, phi = _sines(l, x)
    return phi, -PI * (l * l - 1) * sin_u * s


def kernel_slope_values(l, x: np.ndarray) -> np.ndarray:
    """Vectorized derivative of the signed quotient sin(l pi x)/(l sin(pi x)).

    The slope half of :func:`kernel_values_and_slopes`.
    """
    return kernel_values_and_slopes(l, x)[1]


def kernel_slope(spec: KernelSpec, x: float) -> float:
    """Signed slope of the un-absolute kernel quotient at x in [0, 1/2]."""
    if not 0.0 <= x <= 0.5:
        raise DomainError(f"x = {x} outside [0, 1/2]")
    return float(kernel_slope_values(spec.l, np.array([x]))[0])


def gaussian_values(tg: TruncatedGaussian, x: np.ndarray) -> np.ndarray:
    """Vectorized truncated Gaussian: the exponential on [0, x_c], zero beyond."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= tg.x_c, np.exp(-PI * (tg.l * tg.l - 1) * x * x / 2.0), 0.0)


def eval_gaussian(tg: TruncatedGaussian, x: float) -> float:
    """f(x) at one abscissa x >= 0; see :func:`gaussian_values`."""
    if not x >= 0.0:
        raise DomainError(f"x = {x} must be >= 0")
    return float(gaussian_values(tg, np.array([x]))[0])


def _check_levels(ys: np.ndarray) -> None:
    # written so that NaN fails too
    if np.count_nonzero((ys > 0.0) & (ys < 1.0)) < ys.size:
        raise DomainError("levels must lie in (0, 1)")


def gaussian_distribution_function(tg: TruncatedGaussian, y):
    """Distribution function of the truncated Gaussian, in closed form.

    F(y) is the measure of {x : f(x) > y}: constant x_c below the truncation
    level, then sqrt(2 log(1/y) / (pi (l^2-1))) up to 1.  Monotone
    nonincreasing, with F(y) -> 0 as y -> 1.  ``y`` is a level or an array
    of levels; a float or an array of the same shape comes back.
    """
    ys = np.asarray(y, dtype=float)
    _check_levels(ys)
    f = np.where(ys < tg.y_last, tg.x_c, np.sqrt(2.0 * np.log(1.0 / ys) / (PI * (tg.l * tg.l - 1))))
    return float(f) if f.ndim == 0 else f


@dataclass(frozen=True)
class GaussianDominationReport:
    """Grid check of g < exp(-pi (l^2-1) x^2 / 2) on (0, 1/l]."""

    l: int
    grid_size: int
    max_diff: float
    argmax_x: float
    violation_count: int
    ok: bool


# strict inequalities are asserted with this absolute slack; rounding alone
# can produce tiny positives at equality-adjacent points (none occur here)
STRICT_SLACK = 1e-15


def check_first_arch_domination(spec: KernelSpec, grid_size: int) -> GaussianDominationReport:
    """Check the first-arch domination on a uniform grid of (0, 1/l].

    Evaluates both sides at x = i/(grid_size*l), i = 1..grid_size, and
    reports the largest value of (kernel - gaussian), which must stay below
    the strictness slack at every point.
    """
    if grid_size < 2:
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")
    l = spec.l
    xs = np.arange(1, grid_size + 1, dtype=float) / (grid_size * l)
    # x <= 1/l < x_c on the whole grid, so no point is cut off
    diff = kernel_values(l, xs) - gaussian_values(TruncatedGaussian.from_length(l), xs)
    i = int(np.argmax(diff))
    max_diff = float(diff[i])
    violations = int(np.count_nonzero(diff >= STRICT_SLACK))
    return GaussianDominationReport(
        l=l,
        grid_size=grid_size,
        max_diff=max_diff,
        argmax_x=float(xs[i]),
        violation_count=violations,
        ok=max_diff < STRICT_SLACK,
    )
