import functools
import heapq
import math
import types
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as hurwitz_zeta

from lebesgue_lab import kernel, quadrature
from lebesgue_lab.epi import CASE_HOLDER, holder_exponents, random_instance
from lebesgue_lab.errors import DomainError, PreconditionError, VerificationError
from lebesgue_lab.kernel import PI, KernelSpec, arch_values, kernel_values
from lebesgue_lab.levelsets import comparison_functional
from lebesgue_lab.quadrature import (
    DEFAULT_CONFIG,
    MAX_EXPONENT,
    QuadratureConfig,
    _intervals,
    _kept_arches,
    _W15,
    _W31,
    _X15,
    _X31,
    _pair_abscissae,
    _pair_eval,
    _pair_sums,
    asymptotic_reference,
    ball_half,
    ball_integral,
    certify_bound,
    certify_bound_grid,
    integrate_kernel_power,
    integrate_kernel_power_grid,
    lp_norm,
    lp_norm_grid,
    norm_bound,
)
from test_kernel import ARCH_VALUES_REL_BOUND, mpmath_arch_value
from test_pmf import uniform_counts

# the benchmark's norm-grid exponents, plus 64, 64.5 and 65 around the old exp-log switch
ARCH_P_GRID = (2.0, 2.5, 3.0, 4.0, 8.0, 16.0, 32.0, 128.0, 64.0, 64.5, 65.0)
# ARCH_P_GRID plus an exponent next to 2 and one off the integers; 2.5 splits
NORM_P_GRID = ARCH_P_GRID + (2.0001, 7.3)
NAN = float("nan")
INF = float("inf")
# the sinc head spans this many periods; the zeta tail carries the rest
HEAD_PERIODS = 16


def adaptive_integral(fn, pieces, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Integrate a vectorized callable over (a, b) pieces: the split loop's one-integrand form.

    ``pieces`` is anything ``np.asarray(pieces, float).reshape(-1, 2)``
    accepts: an (n, 2) array or a list of pairs.  Pieces with b <= a are
    skipped.  Returns (value, error_estimate, converged).

    All pieces go through one pair evaluation.  If the stop test already
    holds, that is the answer; otherwise the piece with the largest error
    estimate is bisected until it holds or the budget of
    ``cfg.max_subdivisions`` bisections per initial piece is spent.  The
    bisections are evaluated in rounds, one call of ``fn`` each, and applied
    in that order (see ``quadrature._refine``).  The value and the error are
    ``math.fsum`` totals, which are correctly rounded, so they do not depend
    on the refinement history.
    """
    pieces = np.asarray(pieces, dtype=float).reshape(-1, 2)
    pieces = pieces[pieces[:, 1] > pieces[:, 0]]
    if not len(pieces):
        return 0.0, 0.0, True
    a, b = pieces[:, 0], pieces[:, 1]
    # read from the module per call, so a test that replaces the loop sees it run
    return quadrature._rounds(quadrature._refine(a, b, *_pair_eval(fn, a, b), cfg), fn)


def uncached_power_integrand(l, p):
    """g^p evaluated from x on every call."""

    def fn(x):
        return kernel_values(l, x) ** p

    return fn


def uncached_sinc_integrand(p):
    """|sin u / u|^p evaluated from u on every call."""

    def fn(u):
        u = np.asarray(u, dtype=float)
        return np.where(u != 0.0, np.abs(np.sin(u) / np.where(u != 0.0, u, 1.0)), 1.0) ** p

    return fn


def uncached_ball_half(p, cfg=DEFAULT_CONFIG):
    """The sinc-power half-line integral with the 16-period head evaluated from u."""
    periods = _intervals(np.arange(HEAD_PERIODS + 1) * PI)
    head, _, ok1 = adaptive_integral(uncached_sinc_integrand(p), periods, cfg)

    def tail_fn(t):
        return np.sin(t) ** p * PI ** (-p) * hurwitz_zeta(p, HEAD_PERIODS + t / PI)

    tail, _, ok2 = adaptive_integral(tail_fn, _intervals(np.arange(5) * PI / 4.0), cfg)
    assert ok1 and ok2
    return head + tail


def mpmath_ball_half(p):
    """The sinc-power half-line integral at 30 digits: quad per head period plus the zeta tail."""
    with mpmath.workdps(30):
        p, pi = mpmath.mpf(p), mpmath.pi
        head = mpmath.fsum(
            mpmath.quad(lambda u: abs(mpmath.sin(u) / u) ** p, [j * pi, (j + 1) * pi])
            for j in range(HEAD_PERIODS)
        )
        tail = mpmath.quad(
            lambda t: mpmath.sin(t) ** p * pi ** (-p) * mpmath.zeta(p, HEAD_PERIODS + t / pi),
            [0, pi],
        )
        return float(head + tail)


def clear_caches():
    for obj in vars(quadrature).values():
        if isinstance(obj, functools._lru_cache_wrapper):
            obj.cache_clear()


@pytest.fixture(autouse=True)
def no_stored_integrals():
    """Every test starts with no finished kernel-power integral stored, so a spy sees the work."""
    quadrature._integrals.cache_clear()


def alone(call):
    """``call()`` with no finished integral stored: what it returns is integrated afresh.

    A test comparing two ways to one result runs each side alone, so that
    neither side reads the other's stored integrals.
    """
    quadrature._integrals.cache_clear()
    return call()


def simpson_oracle(l: int, p: float, n: int = 1_000_000) -> float:
    """Composite Simpson rule on n+1 uniform points of [0, 1/2], doubled."""
    xs = np.linspace(0.0, 0.5, n + 1)
    ys = kernel_values(l, xs) ** p
    h = 0.5 / n
    return 2.0 * (h / 3.0) * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())


class TestLpNorm:
    @pytest.mark.parametrize("l", [2, 3, 5, 6, 10, 17, 64, 128])
    def test_parseval_identity(self, l):
        value, err, converged = integrate_kernel_power(KernelSpec(l), 2.0)
        assert abs(value - 1.0 / l) <= 1e-9
        assert converged
        assert err <= DEFAULT_CONFIG.abs_tol

    def test_fourth_power_against_simpson_oracle(self):
        value, _, _ = integrate_kernel_power(KernelSpec(6), 4.0)
        assert abs(value - simpson_oracle(6, 4.0)) <= 1e-10
        assert 0.0 < value < math.sqrt(2.0 / (4.0 * 35.0))

    def test_monotone_decreasing_in_p(self):
        for l in (6, 11):
            values = [integrate_kernel_power(KernelSpec(l), p)[0]
                      for p in (1.0, 2.0, 3.0, 4.0, 8.0, 16.0)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_bound_fields(self):
        assert lp_norm(KernelSpec(6), 2.0).bound == norm_bound(6, 2.0)
        assert lp_norm(KernelSpec(5), 2.0).bound is None
        assert lp_norm(KernelSpec(6), 1.5).bound is None
        assert lp_norm(KernelSpec(6), 2.0).asymptotic == asymptotic_reference(6, 2.0)

    @pytest.mark.parametrize("l, p", [(6, 2.0), (64, 8.0), (5, 2.0), (6, 1.5)])
    def test_margin_and_ratio(self, l, p):
        r = lp_norm(KernelSpec(l), p)
        assert r.margin == (None if r.bound is None else r.bound - r.value)
        assert r.ratio == r.value / r.asymptotic

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            lp_norm(KernelSpec(6), 0.5)

    def test_rejects_nan_exponent(self):
        with pytest.raises(DomainError):
            lp_norm(KernelSpec(10), NAN)

    @pytest.mark.parametrize("p", [INF, -INF])
    def test_rejects_infinite_exponent(self, p):
        with pytest.raises(DomainError):
            lp_norm(KernelSpec(10), p)

    @pytest.mark.parametrize("p", [INF, NAN, 0.5])
    def test_kernel_power_rejects_bad_exponent(self, p):
        with pytest.raises(DomainError):
            integrate_kernel_power(KernelSpec(10), p)

    def test_deterministic_bit_for_bit(self):
        a = lp_norm(KernelSpec(23), 3.5)
        b = lp_norm(KernelSpec(23), 3.5)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate

    @pytest.mark.parametrize("l,p", [(6, 2.0), (9, 3.0), (9, 2.0)])
    def test_partition_invariance(self, l, p):
        default_val, _, _ = integrate_kernel_power(KernelSpec(l), p)
        cuts = np.linspace(0.0, 0.5, 4 * l + 1)
        uniform_half, _, ok = adaptive_integral(uncached_power_integrand(l, p), _intervals(cuts))
        assert ok
        assert abs(default_val - 2.0 * uniform_half) <= 1e-10

    def test_large_power_survives_underflow(self):
        value, _, converged = integrate_kernel_power(KernelSpec(30), 120.0)
        assert converged and 0.0 < value < norm_bound(30, 120.0)

    def test_subdivision_budget_flags_nonconvergence(self):
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=1)
        _, err, converged = integrate_kernel_power(KernelSpec(6), 2.5, cfg)
        # budget of one split per arch cannot certify 1e-15; flag must be honest
        assert err >= 0.0
        assert isinstance(converged, bool)


class TestCertifyBound:
    def test_parseval_case(self):
        cert = certify_bound(KernelSpec(6), 2.0)
        assert cert.bound == pytest.approx(math.sqrt(1.0 / 35.0), rel=1e-15)
        assert cert.value == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert cert.margin == pytest.approx(0.0023641842790366, abs=1e-12)
        assert cert.passed

    def test_large_length(self):
        cert = certify_bound(KernelSpec(100), 2.0)
        assert cert.bound == pytest.approx(1.0 / math.sqrt(9999.0), rel=1e-15)
        assert cert.value == pytest.approx(0.01, abs=1e-10)
        assert cert.passed

    def test_length_below_six_rejected(self):
        with pytest.raises(PreconditionError):
            certify_bound(KernelSpec(5), 2.0)

    def test_exponent_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            certify_bound(KernelSpec(8), 1.5)

    def test_nan_exponent_rejected(self):
        with pytest.raises(DomainError):
            certify_bound(KernelSpec(10), NAN)

    def test_infinite_exponent_rejected(self):
        # inf passes the p >= 2 precondition; lp_norm rejects it
        with pytest.raises(DomainError):
            certify_bound(KernelSpec(10), INF)

    @pytest.mark.parametrize("l", [6, 12, 33, 64])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0])
    def test_bound_sits_below_asymptotic_envelope(self, l, p):
        # sqrt(2/(p(l^2-1))) < sqrt(2/p)/l * (1 + 1/(2(l^2-1)))
        lhs = norm_bound(l, p)
        rhs = math.sqrt(2.0 / p) / l * (1.0 + 1.0 / (2.0 * (l * l - 1)))
        assert lhs < rhs
        cert = certify_bound(KernelSpec(l), p)
        assert cert.value + cert.error_estimate < lhs


def sinc_grid_oracle(p: float, span: float = 2000.0, n: int = 4_000_000):
    """Midpoint rule for the sinc power over [0, span], plus its envelope tail bound."""
    xs = (np.arange(n) + 0.5) * (span / n)
    vals = np.abs(np.sinc(xs)) ** p
    integral = 2.0 * float(vals.sum()) * (span / n)
    tail_bound = 2.0 / (math.pi**p * (p - 1.0) * span ** (p - 1.0))
    return integral, tail_bound


class TestBallIntegral:
    def test_value_at_two_is_one(self):
        assert abs(ball_integral(2.0) - 1.0) <= 1e-9

    def test_value_at_four_is_two_thirds(self):
        assert abs(ball_integral(4.0) - 2.0 / 3.0) <= 1e-9

    def test_against_fixed_grid_oracle(self):
        value, tail = sinc_grid_oracle(4.0)
        assert abs(ball_integral(4.0) - value) <= tail + 1e-9

    def test_grid_oracle_consistent_at_two(self):
        value, tail = sinc_grid_oracle(2.0)
        assert abs(ball_integral(2.0) - value) <= tail + 1e-9

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 8.0, 16.0])
    def test_strictly_below_bound(self, p):
        assert ball_integral(p) < math.sqrt(2.0 / p)

    def test_half_line_value_at_two(self):
        assert ball_half(2.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_accepts_p_between_one_and_two(self):
        assert ball_integral(1.5) > 1.0  # wider than the p=2 case, no bound asserted

    def test_rejects_divergent_exponent(self):
        with pytest.raises(DomainError):
            ball_integral(1.0)

    @pytest.mark.parametrize("fn", [ball_half, ball_integral])
    def test_rejects_nan_exponent(self, fn):
        with pytest.raises(DomainError):
            fn(NAN)

    @pytest.mark.parametrize("fn", [ball_half, ball_integral])
    def test_rejects_infinite_exponent(self, fn):
        with pytest.raises(DomainError):
            fn(INF)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.0001, 2.5, 3.0])
    def test_shared_head_matches_uncached_head(self, p):
        # the head of p does not depend on the exponents integrated before it, here p = 3
        clear_caches()
        ball_half(3.0)
        assert ball_half(p).hex() == uncached_ball_half(p).hex()

    @pytest.mark.parametrize(
        "p, expected",
        [
            (7.3, "0x1.92d7917877954p-1"),
            (8.0, "0x1.81873cd21aae9p-1"),
            (16.0, "0x1.133ef68e791d8p-1"),
            (64.0, "0x1.1535fb13d1c99p-2"),
            (130.0, "0x1.85790a3d728f3p-3"),
        ],
    )
    def test_pinned_where_the_head_was_already_sixteen_periods(self, p, expected):
        # bits from the envelope-sized head, which was 16 periods for every
        # p >= 6.27 at default tolerances as well
        clear_caches()
        assert ball_half(p).hex() == expected

    @pytest.mark.parametrize(
        "p, exact",
        [(2.0, PI / 2.0), (4.0, PI / 3.0), (6.0, 11.0 * PI / 40.0), (8.0, 151.0 * PI / 630.0)],
    )
    def test_exact_even_exponents(self, p, exact):
        assert ball_half(p) == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.5])
    def test_against_mpmath(self, p):
        assert ball_half(p) == pytest.approx(mpmath_ball_half(p), rel=1e-10, abs=0.0)

    def test_head_nodes_evaluated_once_per_exponent(self, monkeypatch):
        # the head nodes are evaluated once per call: no call reads another's integrals
        periods = _intervals(np.arange(HEAD_PERIODS + 1) * PI)
        head_nodes = quadrature._pair_abscissae(periods[:, 0], periods[:, 1])
        builds = []

        def spy(u):
            builds.append(np.array_equal(u, head_nodes))
            return sinc_modulus(u)

        sinc_modulus = quadrature._sinc_modulus
        monkeypatch.setattr(quadrature, "_sinc_modulus", spy)
        clear_caches()
        for p in (1.01, 2.0, 2.5, 7.3, 130.0, 2.0):
            ball_half(p)
        ball_half(3.0, QuadratureConfig(abs_tol=1e-14))
        assert builds.count(True) == 7

    def test_cached_heads_match_uncached_heads_over_p(self):
        clear_caches()
        for p in np.linspace(1.05, 130.0, 200).tolist():
            assert ball_half(p).hex() == uncached_ball_half(p).hex(), p

    @pytest.mark.parametrize("p", [1.001, 1.01, 1.5, 2.0, 2.5, 7.3, 16.0, 64.0, 128.0, 130.0, 1e3, 1e5])
    def test_tail_zeta_against_mpmath(self, p):
        # the tail's Hurwitz zeta over its whole range of q, against 40 digits
        q = np.linspace(HEAD_PERIODS, HEAD_PERIODS + 1, 65)
        got = quadrature._hurwitz_zeta(p, q, quadrature._zeta_coefficients(p))
        with mpmath.workdps(40):
            exact = [float(mpmath.zeta(p, mpmath.mpf(x))) for x in q]
        for x, value, want in zip(q, got, exact):
            if want >= np.finfo(float).tiny:
                assert abs(value - want) <= 4 * np.spacing(want), (x, value, want)
            else:  # q^-p underflows
                assert math.isfinite(value) and value >= 0.0, (x, value)

    @pytest.mark.parametrize("p", [1.001, 1.01, 1.03])
    def test_tail_zeta_keeps_the_oracle_bits_near_one(self, p):
        # near p = 1 the tail is nearly all of the integral, and its last bit
        # depends on the order in which the zeta adds its first expansion terms
        clear_caches()
        assert ball_half(p).hex() == uncached_ball_half(p).hex()

    def test_finite_and_falling_near_one(self):
        # nearly all of the integral lies past the 16-period head, in the zeta tail
        ps = (1.001, 1.01, 1.03)
        values = [ball_half(p) for p in ps]
        assert all(math.isfinite(v) for v in values)
        assert values[0] > values[1] > values[2]
        # the integral grows like 2/(pi (p - 1)) as p falls to 1
        for p, v in zip(ps, values):
            assert 2.0 / PI < (p - 1.0) * v < 0.7

    def test_caller_budget_reaches_refinement(self, monkeypatch):
        budgets = []

        def spy(a, b, i31, err, cfg):
            budgets.append(cfg.max_subdivisions)
            return refine(a, b, i31, err, cfg)

        refine = quadrature._refine
        monkeypatch.setattr(quadrature, "_refine", spy)
        clear_caches()
        ball_half(3.0, QuadratureConfig(max_subdivisions=1))
        assert budgets and set(budgets) == {1}


def mpmath_gauss_legendre(n, starts):
    """The n-point Gauss-Legendre nodes and weights at 50 digits, by Newton's method from ``starts``."""
    with mpmath.workdps(50):
        nodes, weights = [], []
        def slope(x):  # P_n'(x)
            return n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)

        for x in map(mpmath.mpf, starts):
            for _ in range(7):
                x -= mpmath.legendre(n, x) / slope(x)
            dp = slope(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


def ulps(got, exact):
    """|got - exact| in units of the last place of exact rounded to a double (0 where both are 0)."""
    with mpmath.workdps(50):
        return [float(abs(mpmath.mpf(g) - e) / np.spacing(abs(float(e)))) if e else abs(g) for g, e in zip(got, exact)]


class TestGaussPair:
    # the pair is written out as numpy's leggauss returned it; its weights are
    # not correctly rounded, and correcting them would move every integral's
    # last bits, so the bounds are the errors found, rounded up
    @pytest.mark.parametrize("n, nodes, weights, weight_ulps", [(15, _X15, _W15, 40), (31, _X31, _W31, 2500)])
    def test_against_fifty_digits(self, n, nodes, weights, weight_ulps):
        exact_nodes, exact_weights = mpmath_gauss_legendre(n, nodes.tolist())
        assert max(ulps(nodes.tolist(), exact_nodes)) <= 1.0
        assert max(ulps(weights.tolist(), exact_weights)) <= weight_ulps

    @pytest.mark.parametrize("nodes, weights", [(_X15, _W15), (_X31, _W31)], ids=["15", "31"])
    def test_symmetric_and_ascending(self, nodes, weights):
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0.0) and nodes[len(nodes) // 2] == 0.0


# the sinc exponents of the batch tests: near 1, around 2, off the integers, both sides of 128, the cap
SINC_P_GRID = (1.001, 1.01, 1.5, 2.0, 2.5, 7.3, 32.0, 128.0, 130.0, 1e3, 1e5)


class TestSincBatch:
    @pytest.mark.parametrize(
        "cfg", [DEFAULT_CONFIG, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)], ids=["default", "loose"]
    )
    def test_batch_equals_one_at_a_time(self, cfg):
        rng = np.random.default_rng(32)
        ps = list(SINC_P_GRID) + rng.choice(SINC_P_GRID, 6).tolist()
        rng.shuffle(ps)
        alone = {}
        for p in SINC_P_GRID:
            clear_caches()
            alone[p] = ball_half(p, cfg).hex()
        clear_caches()
        assert [v.hex() for v in quadrature.ball_half_grid(ps, cfg)] == [alone[p] for p in ps]
        # a second batch integrates them again, to the same bits, whatever it is mixed with
        assert [v.hex() for v in quadrature.ball_half_grid(ps[::-1] + [3.0], cfg)][:-1] == [alone[p] for p in ps[::-1]]

    def test_norm_grid_evaluates_the_head_nodes_once(self, monkeypatch):
        periods = _intervals(np.arange(HEAD_PERIODS + 1) * PI)
        head_nodes = quadrature._pair_abscissae(periods[:, 0], periods[:, 1])
        builds = []

        def spy(u):
            builds.append(np.array_equal(u, head_nodes))
            return sinc_modulus(u)

        sinc_modulus = quadrature._sinc_modulus
        monkeypatch.setattr(quadrature, "_sinc_modulus", spy)
        clear_caches()
        ps = (2.0, 2.5, 3.0, 4.0, 8.0, 16.0, 32.0, 128.0)
        records = lp_norm_grid([(l, p) for l in (6, 64, 1000) for p in ps])
        assert len(records) == 24 and builds.count(True) == 1

    # at one bisection per piece p = 1.01 does not converge, and p = 2 does
    BUDGET = QuadratureConfig(max_subdivisions=1)

    @pytest.mark.parametrize("ps, error", [((1.01, 1e9), VerificationError), ((1e9, 1.01), DomainError)])
    def test_first_failing_exponent_raises(self, ps, error):
        clear_caches()
        entries = quadrature.ball_half_grid((2.0, *ps), self.BUDGET)
        assert isinstance(entries[0], float)
        assert [type(e) for e in entries[1:]] == [{1.01: VerificationError, 1e9: DomainError}[p] for p in ps]
        with pytest.raises(error):
            quadrature.ball_integral_grid((2.0, *ps), self.BUDGET)
        # in the norm grid the range check comes first: the failing integral
        # raises at its record only when it precedes the exponent out of range
        with pytest.raises(error):
            lp_norm_grid([(6, 2.0), *((6, p) for p in ps)], self.BUDGET)
        # an integral that failed is not stored, so it fails again
        with pytest.raises(VerificationError, match="did not converge at p=1.01"):
            ball_half(1.01, self.BUDGET)


class TestAcrossSixtyFour:
    # both sides of 64, where powers once switched to exp(p log g), and far past
    # it, where every arch but the first is dropped
    @pytest.mark.parametrize("l", [6, 64, 1000])
    def test_converges_falls_and_stays_below_bound(self, l):
        ps = (63.9, 64.0, 64.1, 65.0, 128.0, 500.0, 1e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [lp_norm(KernelSpec(l), p) for p in ps]
        assert all(r.converged for r in results)
        values = [r.value for r in results]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(r.value + r.error_estimate < norm_bound(l, r.p) for r in results)


def laplace_kernel_power(l, p):
    """The Laplace limit sqrt(6/(pi p (l^2-1))) of integral g^p, with its 1/p term.

    On arch 0, log g = -zeta(2) (l^2-1) x^2 - zeta(4) (l^4-1) x^4 / 2 - ...;
    the next term is O(1/p^2), below 1e-10 relative at p = 1e5.
    """
    z2, z4 = math.pi**2 / 6.0, math.pi**4 / 90.0
    c = 3.0 * z4 * (l * l + 1) / (8.0 * z2 * z2 * (l * l - 1))
    return math.sqrt(6.0 / (math.pi * p * (l * l - 1))) * (1.0 - c / p)


class TestExponentRange:
    # above the cap the first pass can miss the arch-0 peak and return a
    # collapsed value flagged as converged (l = 6, p = 1e8: 6.4e-151, not 2.3e-5)
    @pytest.mark.parametrize("l", [6, 64, 1000, 10**4])
    @pytest.mark.parametrize(
        "cfg", [DEFAULT_CONFIG, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)], ids=["default", "batch"]
    )
    def test_largest_exponent_is_within_tolerance(self, l, cfg):
        value, _, converged = integrate_kernel_power(KernelSpec(l), MAX_EXPONENT, cfg)
        exact = laplace_kernel_power(l, MAX_EXPONENT)
        assert converged and abs(value - exact) <= max(cfg.abs_tol, cfg.rel_tol * exact)

    def test_largest_sinc_exponent_is_within_tolerance(self):
        exact = 0.5 * math.sqrt(6.0 * math.pi / MAX_EXPONENT) * (1.0 - 0.15 / MAX_EXPONENT)
        assert abs(ball_half(MAX_EXPONENT) - exact) <= DEFAULT_CONFIG.rel_tol * exact

    @pytest.mark.parametrize(
        "fn",
        [
            lambda p: integrate_kernel_power_grid([(6, 2.0), (6, p)]),
            lambda p: lp_norm(KernelSpec(6), p),
            lambda p: certify_bound(KernelSpec(6), p),
            ball_half,
            ball_integral,
        ],
        ids=["integrate_kernel_powers", "lp_norm", "certify_bound", "ball_half", "ball_integral"],
    )
    @pytest.mark.parametrize("p", [math.nextafter(MAX_EXPONENT, INF), 1e7, 1e8])
    def test_rejects_exponent_above_the_cap(self, fn, p):
        with pytest.raises(DomainError, match="finite"):
            fn(p)


class TestAsymptoticComparison:
    def test_parseval_ratio_is_one(self):
        c = lp_norm(KernelSpec(1000), 2.0)
        assert c.ratio == pytest.approx(1.0, abs=1e-9)

    def test_fourth_power_deviation_shrinks(self):
        devs = [abs(lp_norm(KernelSpec(l), 4.0).ratio - 1.0)
                for l in (50, 100, 200, 400)]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_l1_ratio_band_and_trend(self):
        ratios = [lp_norm(KernelSpec(l), 1.0).ratio for l in (100, 400, 1000)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert 0.8 <= ratios[-1] <= 1.6


def kernel_product_integrand(ls):
    """The product of g_l over l in ls, evaluated from x on every call."""

    def fn(x):
        out = kernel_values(ls[0], x)
        for l in ls[1:]:
            out = out * kernel_values(l, x)
        return out

    return fn


def quadrature_product_l1(ls, cfg=DEFAULT_CONFIG):
    """The one-period product integral by adaptive quadrature between the factors' zeros."""
    # 0, 1/2 and every zero k/l in (0, 1/2] of each factor: no factor changes sign between them
    cuts = np.array(sorted({0.0, 0.5, *(k / l for l in ls for k in range(1, l // 2 + 1))}))
    value, err, converged = adaptive_integral(kernel_product_integrand(ls), _intervals(cuts), cfg)
    return 2.0 * value, 2.0 * err, converged


class TestProductKernel:
    def test_single_factor_matches_l1_norm(self):
        value, _, ok = quadrature_product_l1([8])
        assert ok
        assert value == pytest.approx(integrate_kernel_power(KernelSpec(8), 1.0)[0], abs=1e-11)

    def test_product_below_min_factor(self):
        value = quadrature_product_l1([6, 8])[0]
        single = quadrature_product_l1([6])[0]
        assert 0.0 < value < single


def test_holds_nothing_of_pmf():
    from lebesgue_lab import pmf

    assert [name for name, obj in vars(quadrature).items()
            if obj is pmf or getattr(obj, "__module__", None) == pmf.__name__] == []


class TestEvenPowerOracles:
    @pytest.mark.parametrize("p", [4, 6, 8, 10])
    def test_even_power_equals_central_count(self, p):
        # for even p the integral of D_l^p over a period is the constant term
        # of D_l^p, the central count of p uniform laws on {1..l}
        for l in [*range(6, 41), 64, 129]:
            counts = uniform_counts((l,) * p)
            exact = int(counts[len(counts) // 2]) / l**p
            value = integrate_kernel_power(KernelSpec(l), float(p))[0]
            assert abs(value - exact) <= max(DEFAULT_CONFIG.abs_tol, DEFAULT_CONFIG.rel_tol * exact)

    def test_fourth_power_closed_form(self):
        for l in (6, 7, 64, 129):
            counts = uniform_counts((l,) * 4)
            assert int(counts[len(counts) // 2]) == l * (2 * l * l + 1) // 3


class TestQuadratureConfig:
    def test_rejects_impossible_tolerance(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=1e-16)

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [NAN, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_tolerance(self, field, value):
        with pytest.raises(DomainError):
            QuadratureConfig(**{field: value})

    def test_rejects_budget_overflow(self):
        with pytest.raises(DomainError):
            QuadratureConfig(max_subdivisions=10**7)


def scalar_arches(l):
    """The arches of length l in u = l x, one math.sin and math.log per arch.

    Their cuts 0, 1, ..., l//2 and l/2 (an array), widths (1, and 1/2 for an
    odd length's final half arch) and widest width, and the log caps of the
    arches k >= 1, as a list and as an array; the caps must fall with k.
    """
    cuts = [float(k) for k in range(0, l // 2 + 1)]
    if cuts[-1] < l / 2:
        cuts.append(l / 2)
    logcaps = [math.log(1.0 / (l * math.sin(PI * k / l))) for k in range(1, len(cuts) - 1)]
    assert all(a >= b for a, b in zip(logcaps, logcaps[1:])), l
    widths = [b - a for a, b in zip(cuts[:-1], cuts[1:])]
    return types.SimpleNamespace(
        cuts=np.array(cuts), widths=widths, widest=max(widths), logcaps=logcaps, logcap_array=np.array(logcaps)
    )


def scalar_kept_arches(l, p, abs_tol, arches=None):
    """Arch dropping over the arches of ``scalar_arches(l)`` (or ``arches``): (kept pieces, charge).

    Arch k >= 1 is dropped when p*log(cap_k) < log(abs_tol) - log(l); the
    caps fall, so the dropped arches are a suffix.  Each is charged its u-width
    times math.exp(p*log(cap_k)), summed in arch order from 0.0, until the
    widest arch's charge at the current cap is at most 2^-54 of the sum,
    under half an ulp of it: no charge from there on can move the sum (a
    zero sum stops at a zero charge), so the loop stops.
    """
    arches = arches or scalar_arches(l)
    logcaps, widths, widest = arches.logcaps, arches.widths, arches.widest
    drop = p * arches.logcap_array < math.log(abs_tol) - math.log(l)
    k = len(widths) - int(np.count_nonzero(drop))
    assert drop[k - 1 :].all(), (l, p)
    dropped_err = 0.0
    for j in range(k, len(widths)):
        charge = math.exp(p * logcaps[j - 1])
        if widest * charge <= dropped_err * 2.0**-54:
            break
        dropped_err += widths[j] * charge
    return np.column_stack((arches.cuts[:k], arches.cuts[1 : k + 1])), dropped_err


def every_exp_kept_arches(l, p, abs_tol):
    """_kept_arches with one math.exp for every dropped arch, underflowed or not."""
    pieces, logcaps = quadrature._arch_record(l)
    logcaps = np.array(logcaps)
    threshold = math.log(abs_tol) - math.log(l)
    if not len(logcaps) or not p * logcaps[-1] < threshold:
        return pieces, 0.0
    plog = p * logcaps
    drop = plog < threshold
    k = len(pieces) - int(np.count_nonzero(drop))
    charges = np.fromiter(map(math.exp, plog[drop].tolist()), float)
    charges *= pieces[k:, 1] - pieces[k:, 0]
    return pieces[:k], float(np.cumsum(charges)[-1])


def two_call_pair_eval(fn, a, b):
    """The 15/31 pair with one integrand call per rule."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    f15 = fn((mid[:, None] + half[:, None] * _X15).ravel()).reshape(len(a), 15)
    f31 = fn((mid[:, None] + half[:, None] * _X31).ravel()).reshape(len(a), 31)
    i15 = half * (f15 @ _W15)
    i31 = half * (f31 @ _W31)
    return i31, np.abs(i31 - i15)


def counted(fn):
    def wrapper(x):
        wrapper.calls += 1
        wrapper.points += np.size(x)
        return fn(x)

    wrapper.calls = 0
    wrapper.points = 0
    return wrapper


class TestArchDropping:
    @pytest.mark.parametrize("p", ARCH_P_GRID)
    def test_kept_arches_and_charge_match_scalar_loop(self, p):
        for l in range(2, 1001):
            kept, charge = _kept_arches(l, p, DEFAULT_CONFIG.abs_tol)
            oracle_kept, oracle_charge = scalar_kept_arches(l, p, DEFAULT_CONFIG.abs_tol)
            assert kept.tolist() == oracle_kept.tolist(), (l, p)
            assert charge == oracle_charge, (l, p)

    def test_underflowed_charges_are_skipped_exactly(self):
        # exp is 0.0 below -746: leaving those arches out of the sum changes nothing;
        # near p = 650 the first dropped arches sit just above it
        for l in sorted({*range(6, 401), *range(401, 5001, 23)}):
            for p in (8.0, 16.0, 64.0, 128.0, 500.0, 650.0, 651.0, 1000.0, 5000.0):
                kept, charge = _kept_arches(l, p, DEFAULT_CONFIG.abs_tol)
                oracle = every_exp_kept_arches(l, p, DEFAULT_CONFIG.abs_tol)
                assert np.array_equal(kept, oracle[0]), (l, p)
                assert charge == oracle[1], (l, p)

    def test_kept_arches_match_scalar_loop_over_lengths_exponents_and_tolerances(self):
        # the bisection for the first dropped arch and the charge loop, at
        # l in 2..199 and 300 log-uniform lengths up to 2 * 10^5, 18 exponents
        # from 1 to 1e5 and three tolerances: 26,892 cases
        rng = np.random.default_rng(40)
        lengths = [*range(2, 200), *np.exp(rng.uniform(math.log(200), math.log(200_001), 300)).astype(int).tolist()]
        ps = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3, 8.0, 16.0, 32.0, 64.0, 128.0, 650.0, 1000.0, 3000.0, 1e4, 3e4, 1e5)
        cases = 0
        for l in lengths:
            arches = scalar_arches(l)
            for p in ps:
                for abs_tol in (1e-9, 1e-12, 1e-15):
                    kept, charge = _kept_arches(l, p, abs_tol)
                    oracle_kept, oracle_charge = scalar_kept_arches(l, p, abs_tol, arches)
                    assert np.array_equal(kept, oracle_kept), (l, p, abs_tol)
                    assert charge.hex() == oracle_charge.hex(), (l, p, abs_tol)
                    cases += 1
        assert cases == 26_892

    def test_charges_stop_where_they_cannot_move_the_sum(self, monkeypatch):
        # the scalar loop, which stops charging only where no later charge can
        # move the sum, at lengths to 10^4 and exponents whose first charge
        # sits near the subnormals (p ~ 950-1050)
        for l in (7, 64, 301, 1000, 4099, 10_000):
            for p in (2.5, 8.0, 16.0, 32.0, 128.0, 650.0, 951.0, 1000.0, 1049.0):
                for abs_tol in (DEFAULT_CONFIG.abs_tol, 1e-15, 1e-6):
                    kept, charge = _kept_arches(l, p, abs_tol)
                    oracle_kept, oracle_charge = scalar_kept_arches(l, p, abs_tol)
                    assert kept.tolist() == oracle_kept.tolist(), (l, p, abs_tol)
                    assert charge.hex() == oracle_charge.hex(), (l, p, abs_tol)
        # and they do stop: at l = 1000, p = 32 one arch is kept, and of the
        # 499 dropped ones only the first 3 are charged (a loop charges all)
        exps = []
        counting = types.SimpleNamespace(log=math.log, exp=lambda v: exps.append(v) or math.exp(v))
        monkeypatch.setattr(quadrature, "math", counting)
        kept, _ = _kept_arches(1000, 32.0, DEFAULT_CONFIG.abs_tol)
        assert (len(kept), len(exps), len(quadrature._arch_record(1000)[0])) == (1, 3, 500)

    @pytest.mark.parametrize("p", NORM_P_GRID)
    def test_value_and_error_match_scalar_loop(self, p):
        # the node tables and rounds against scalar oracles for every integral
        for l in sorted({*range(6, 201), *range(6, 1001, 37)}):
            assert integrate_kernel_power(KernelSpec(l), p) == uncached_kernel_power(l, p), (l, p)


@functools.lru_cache(maxsize=256)
def scalar_node_table(l):
    """g at the 15/31 nodes of every arch of length l, node by node with math: (n, 15) and (n, 31) arrays.

    At node j of arch i, u = l x = i + s_j, with s_j = 0.5 + 0.5 xi_j on a
    full arch and half of it on an odd length's final half arch.  The
    numerator |sin(pi u)| is sin(pi min(s_j, 1 - s_j)), and the denominator
    l sin(pi x) is l times the sine of the sum pi i/l + pi s_j/l, expanded.
    """
    n = l // 2 + l % 2
    tables = []
    for nodes in (_X15.tolist(), _X31.tolist()):
        rows = []
        for i in range(n):
            half = l % 2 and i == n - 1
            arch = PI * i / l
            row = []
            for x in nodes:
                s = (0.5 + 0.5 * x) * (0.5 if half else 1.0)
                node = PI * s / l
                num = math.sin(PI * min(s, 1.0 - s)) / l
                row.append(num / (math.sin(arch) * math.cos(node) + math.cos(arch) * math.sin(node)))
            rows.append(row)
        tables.append(np.array(rows))
    return tables


def arch_halves(l, p):
    """The halves of a piece (lo, hi) of arch k = floor(lo) in u, g^p from their own arch_values call.

    The cuts less k are exact, and the halves' abscissae are taken in s = u - k.
    """

    def halves(lo, hi):
        k = math.floor(lo)
        m = 0.5 * (lo + hi)
        return _pair_eval(lambda s: arch_values(l, k, s) ** p, np.array([lo - k, m - k]), np.array([m - k, hi - k]))

    return halves


def u_config(l, cfg):
    """``cfg`` for an integral in u = l x: abs_tol scaled by l, so the stop test keeps its x-space meaning."""
    return replace(cfg, abs_tol=l * cfg.abs_tol)


def uncached_kernel_power(l, p, cfg=DEFAULT_CONFIG):
    """integrate_kernel_power from the scalar arch loop, the scalar node table and fresh halves.

    The first pass raises the kept rows of :func:`scalar_node_table` to p;
    the split loop bisects one piece at a time, each piece's halves from
    :func:`arch_halves`.  Value and error are divided by l at the end.
    """
    kept, charge = scalar_kept_arches(l, p, cfg.abs_tol)
    a, b = kept[:, 0], kept[:, 1]
    first = np.concatenate([table[: len(kept)].ravel() for table in scalar_node_table(l)]) ** p
    value, err, ok, _ = serial_refine(arch_halves(l, p), a, b, *_pair_sums(first, a, b), u_config(l, cfg))
    return 2.0 * value / l, 2.0 * (err + charge) / l, ok


class TestNodeTables:
    @pytest.mark.parametrize(
        "cfg",
        [
            QuadratureConfig(max_subdivisions=1),
            QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=1),
        ],
        ids=["default-tol", "tight-tol"],
    )
    def test_budget_limited_matches_uncached(self, cfg):
        results = []
        for l in (6, 7, 13, 64, 301):
            for p in NORM_P_GRID:
                got = integrate_kernel_power(KernelSpec(l), p, cfg)
                assert got == uncached_kernel_power(l, p, cfg), (l, p)
                results.append(got[2])
        if cfg.rel_tol == 1e-15:
            assert not all(results)  # the budget runs out somewhere

    @pytest.mark.parametrize("l", [6, 11, 64, 300, 1000])
    def test_call_order_does_not_matter(self, l):
        spec = KernelSpec(l)
        clear_caches()
        forward = [lp_norm(spec, p) for p in (128.0, 2.0)]
        clear_caches()
        backward = [lp_norm(spec, p) for p in (2.0, 128.0)][::-1]
        cold = []
        for p in (128.0, 2.0):
            clear_caches()
            cold.append(lp_norm(spec, p))
        assert forward == backward == cold

    def test_tables_are_read_only(self):
        # the cached arch record hands the same arrays and memoryview to every caller
        clear_caches()
        kept, _ = _kept_arches(9, 2.0, DEFAULT_CONFIG.abs_tol)
        pieces, logcaps = quadrature._arch_record(9)
        for array in (kept, pieces):
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert pieces.tolist() == [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0], [4.0, 4.5]]
        assert logcaps.readonly and len(logcaps) == len(pieces) - 1 == 4
        with pytest.raises(TypeError):
            logcaps[0] = 0.0

    @pytest.mark.parametrize("l", [6, 7, 64, 1000, 1001, 100001])
    def test_node_table_is_g_at_the_ideal_nodes(self, l):
        # against mpmath at u = i + s_j for the float node s_j of the table to
        # ARCH_VALUES_REL_BOUND, and at the ideal node (1 + xi_j)/2, or
        # (1 + xi_j)/4 on an odd length's final half arch, to 1e-13: s_j is
        # within an ulp of it; beyond 64 arches on the first 20, the last 20
        # and 30 spread between
        n = len(quadrature._arch_record(l)[0])
        table = quadrature._kernel_table(l, n)
        rows = range(n) if n <= 64 else sorted({*range(20), *range(n - 20, n), *range(0, n, n // 30)})
        worst = worst_ideal = 0.0
        with mpmath.workdps(30):
            for i in rows:
                half = l % 2 and i == n - 1
                s = _pair_abscissae(np.zeros(1), np.full(1, 0.5 if half else 1.0))
                for j, xi in enumerate(_X15.tolist() + _X31.tolist()):
                    ideal = (1 + mpmath.mpf(xi)) / (4 if half else 2)
                    worst = max(worst, abs(table[i, j] / mpmath_arch_value(l, i, s[j]) - 1))
                    worst_ideal = max(worst_ideal, abs(table[i, j] / mpmath_arch_value(l, i, ideal) - 1))
        assert worst < ARCH_VALUES_REL_BOUND and worst_ideal < 1e-13, (worst, worst_ideal)

    def test_node_table_is_the_scalar_closed_form(self):
        # the first pass of the oracle integrals, bit for bit
        for l in (*range(2, 70), 301, 1000, 1001):
            n = len(quadrature._arch_record(l)[0])
            for k in {1, n // 2 + 1, n}:
                oracle = np.concatenate([t[:k] for t in scalar_node_table(l)], axis=1)
                assert quadrature._kernel_table(l, k).tobytes() == oracle.tobytes(), (l, k)


class TestAdaptiveIntegral:
    def test_pieces_forms_agree(self):
        cuts = np.linspace(0.0, 0.5, 14)
        pairs = list(zip(cuts[:-1], cuts[1:]))
        fn = uncached_power_integrand(13, 3.0)
        expected = adaptive_integral(fn, pairs)
        assert adaptive_integral(fn, np.array(pairs)) == expected
        assert adaptive_integral(fn, np.array(pairs).ravel()) == expected
        assert adaptive_integral(fn, [(a, b) for a, b in pairs] + [(0.3, 0.3), (0.4, 0.2)]) == expected
        assert adaptive_integral(fn, []) == adaptive_integral(fn, np.empty((0, 2))) == (0.0, 0.0, True)

    def test_pieces_forms_agree_when_splitting(self):
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=5)
        pairs = [(0.0, 1.0), (1.0, 2.5)]
        assert adaptive_integral(np.sqrt, pairs, cfg) == adaptive_integral(
            np.sqrt, np.array(pairs), cfg
        )

    def test_one_call_when_first_pass_converges(self):
        fn = counted(lambda x: x**5)
        value, err, ok = adaptive_integral(fn, [(0.0, 1.0), (1.0, 2.0)])
        assert fn.calls == 1 and ok
        assert value == pytest.approx(64.0 / 6.0, rel=1e-15)

    def test_independent_singular_pieces_bisect_in_rounds(self):
        # sqrt(x - k) on each [k, k+1]: four pieces that need splitting at once
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3)
        fn = counted(lambda x: np.sqrt(x - np.floor(x)))
        pieces = [(k, k + 1.0) for k in range(4)]
        value, err, ok = adaptive_integral(fn, pieces, cfg)
        budget = 3 * len(pieces)
        assert not ok
        assert fn.points == 46 * len(pieces) + 92 * budget  # the first pass, then every split
        assert fn.calls < 1 + budget
        assert value == pytest.approx(4.0 / 1.5, rel=1e-6)

    def test_budget_exhausted_through_the_heap(self):
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3)
        fn = counted(np.sqrt)
        value, err, ok = adaptive_integral(fn, [(0.0, 1.0), (1.0, 2.0)], cfg)
        assert not ok
        assert err > max(cfg.abs_tol, cfg.rel_tol * value)
        assert fn.calls == 1 + 3 * 2  # the first pass, then every split the budget allows
        assert value == pytest.approx(2.0**1.5 / 1.5, rel=1e-6)

    @pytest.mark.parametrize(
        "fn",
        [
            uncached_power_integrand(37, 2.5),
            uncached_power_integrand(9, 100.0),
            uncached_sinc_integrand(3.0),
        ],
        # p = 100 lies past the old exp(p log g) switch at 64, hence its id
        ids=["power", "log-domain power", "sinc power"],
    )
    def test_pair_eval_matches_two_calls(self, fn):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 300):
            a = np.sort(rng.uniform(0.0, 0.5, n))
            b = a + rng.uniform(1e-9, 0.01, n)
            one = counted(fn)
            i31, err = _pair_eval(one, a, b)
            o31, oerr = two_call_pair_eval(fn, a, b)
            assert one.calls == 1
            assert i31.tobytes() == o31.tobytes() and err.tobytes() == oerr.tobytes()


def serial_refine(halves, a, b, i31, err, cfg):
    """The split loop of ``_refine`` with one evaluation per bisection.

    ``halves(lo, hi)`` gives the (I31, error) of the two halves of a piece,
    each a (2,) array.  Returns (value, error, converged, splits).
    """
    total = float(np.sum(i31))
    total_err = float(np.sum(err))
    splits = 0
    if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        values, errors = i31.tolist(), err.tolist()
    else:
        heap = list(zip((-err).tolist(), a.tolist(), b.tolist(), i31.tolist()))
        heapq.heapify(heap)
        budget = cfg.max_subdivisions * len(a)
        while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)) and splits < budget:
            neg_e, lo, hi, v = heapq.heappop(heap)
            m = 0.5 * (lo + hi)
            ci, ce = halves(lo, hi)
            total += float(ci.sum()) - v
            total_err += float(ce.sum()) + neg_e
            heapq.heappush(heap, (-float(ce[0]), lo, m, float(ci[0])))
            heapq.heappush(heap, (-float(ce[1]), m, hi, float(ci[1])))
            splits += 1
        values = [v for _, _, _, v in heap]
        errors = [-neg_e for neg_e, _, _, _ in heap]
    value = math.fsum(values)
    error = math.fsum(errors)
    return value, error, error <= max(cfg.abs_tol, cfg.rel_tol * abs(value)), splits


def hexed(result):
    value, error, converged = result
    return value.hex(), error.hex(), converged


@pytest.fixture
def serial_oracle(monkeypatch):
    """Check every ``_refine`` loop against :func:`serial_refine` on the same first pass.

    Whoever evaluates a loop's rounds (one integrand, or the lockstep rounds
    of many kernel powers), the serial loop reads each bisection's halves
    from what the rounds evaluated, one bisection at a time.  Value, error
    and flag must agree in ``float.hex``, and a bisection whose halves no
    round evaluated fails the check.  Whenever the serial loop stopped on
    its tolerance, every evaluated piece must be one it bisected, so no
    round evaluates a piece that is never bisected; when the budget runs out
    first, the loop may never reach a piece that a round evaluated.
    Returns the list of (rounds, bisections) per checked loop.
    """
    refine = quadrature._refine
    checked = []

    def spy(a, b, i31, err, cfg):
        evaluated = {}
        loop = refine(a, b, i31, err, cfg)
        rounds = 0
        try:
            taken = next(loop)
            while True:
                ci, ce = yield taken
                rounds += 1
                evaluated.update((piece, (ci[j].copy(), ce[j].copy())) for j, piece in enumerate(taken))
                taken = loop.send((ci, ce))
        except StopIteration as done:
            got = done.value
        bisected = set()

        def halves(lo, hi):
            bisected.add((lo, hi))
            return evaluated[lo, hi]

        *want, splits = serial_refine(halves, a, b, i31, err, cfg)
        assert hexed(got) == hexed(want)
        if splits < cfg.max_subdivisions * len(a):
            assert bisected == set(evaluated)
        assert rounds <= splits
        checked.append((rounds, splits))
        return got

    monkeypatch.setattr(quadrature, "_refine", spy)
    return checked


def random_tuples(seed, count):
    rng = np.random.default_rng(seed)
    return [rng.integers(6, 31, size=rng.integers(2, 6)).tolist() for _ in range(count)]


class TestRefinementRounds:
    @pytest.mark.parametrize("p", NORM_P_GRID)
    def test_kernel_powers_match_serial_loop(self, serial_oracle, p):
        for l in sorted({*range(6, 201), *range(6, 1001, 37)}):
            integrate_kernel_power(KernelSpec(l), p)
        if p == 2.5:
            assert sum(serial for _, serial in serial_oracle) > 2 * sum(r for r, _ in serial_oracle)

    def test_chain_exponents_match_serial_loop(self, serial_oracle):
        # about a third of the chain exponents refine past their first pass;
        # a pair repeated across instances is integrated again each time
        for seed in range(400):
            instance = random_instance(seed)
            if instance.case == CASE_HOLDER:
                for l, p in zip(instance.l_indices, holder_exponents(instance.l_indices)):
                    alone(lambda: integrate_kernel_power(KernelSpec(l), p))
        assert len(serial_oracle) > 300

    def test_product_kernel_matches_serial_loop(self, serial_oracle):
        # the kernel-product integrand keeps multi-factor refinement covered
        for ls in random_tuples(29, 200):
            quadrature_product_l1(ls)
        assert len(serial_oracle) == 200

    @pytest.mark.parametrize("p", [1.001, 1.01, 1.03, 1.5, 2.5, 130.0])
    def test_sinc_power_matches_serial_loop(self, serial_oracle, p):
        clear_caches()
        ball_half(p)
        assert len(serial_oracle) == 2  # the head and the zeta tail

    def test_comparison_functional_matches_serial_loop(self, serial_oracle):
        for l in (6, 9, 40):
            for p in (2.0, 2.5, 7.3):
                comparison_functional(KernelSpec(l), p, 0.3)
        # one kernel-power refinement per length at p = 2.5; p = 2 and 7.3
        # converge on their first pass, which starts no split loop, and the
        # Gaussian power is in closed form
        assert len(serial_oracle) == 3

    @pytest.mark.parametrize("max_subdivisions", [1, 3])
    @pytest.mark.parametrize("tol", [None, 1e-15], ids=["default-tol", "tight-tol"])
    def test_budget_limited_match_serial_loop(self, serial_oracle, max_subdivisions, tol):
        tols = {} if tol is None else {"abs_tol": tol, "rel_tol": tol}
        cfg = QuadratureConfig(max_subdivisions=max_subdivisions, **tols)
        converged = []
        for l in (6, 7, 13, 64, 301):
            for p in NORM_P_GRID:
                converged.append(integrate_kernel_power(KernelSpec(l), p, cfg)[2])
        for ls in random_tuples(31, 20):
            converged.append(quadrature_product_l1(ls, cfg)[2])
        if tol is not None:
            assert not all(converged)  # the budget runs out somewhere

    def test_rounds_evaluate_few_more_points_than_one_bisection_at_a_time(self, serial_oracle, monkeypatch):
        # at max_subdivisions = 1 a round may take pieces the budget never
        # reaches: over these pairs the first passes and the rounds take g at
        # 4,608,970 points, and with one evaluation per bisection 4,608,510
        # would do (+0.01 %; the 460 extra points are 0.16 % of the rounds').
        # A round's arch_values call has a length per point, the first pass's
        # one length.
        rounds, first, values, table = [], [], quadrature.arch_values, quadrature._kernel_table

        def spy(l, k, s):
            if np.ndim(l):
                rounds.append(np.size(s))
            return values(l, k, s)

        monkeypatch.setattr(quadrature, "arch_values", spy)
        monkeypatch.setattr(quadrature, "_kernel_table", lambda l, k: first.append(46 * k) or table(l, k))
        cfg = QuadratureConfig(max_subdivisions=1)
        for p in NORM_P_GRID:
            for l in sorted({*range(6, 201), *range(6, 1001, 37)}):
                integrate_kernel_power(KernelSpec(l), p, cfg)
        lockstep = sum(first) + sum(rounds)
        serial = sum(first) + 92 * sum(splits for _, splits in serial_oracle)
        assert serial <= lockstep <= 1.001 * serial, (lockstep, serial)

    def test_sinc_power_near_one_makes_few_calls(self, monkeypatch):
        calls = []

        def spy(fn, a, b):
            calls.append(len(a))
            return pair_eval(fn, a, b)

        pair_eval = quadrature._pair_eval
        monkeypatch.setattr(quadrature, "_pair_eval", spy)
        clear_caches()
        ball_half(1.01)
        # one call per round, not one per bisection (159 of them here)
        assert len(calls) <= 64


class TestStackedPairProducts:
    @pytest.mark.parametrize("m", [15, 31])
    def test_stacked_exponents_equal_one_product_each(self, m):
        # the exponents that keep k arches share a (P, k, m) @ w product in the
        # first pass; that is P products of (k, m), byte for byte
        w = {15: _W15, 31: _W31}[m]
        rng = np.random.default_rng(m + 1)
        for count in (1, 2, 3, 7, 20):
            for k in range(1, 40):
                f = rng.uniform(0.0, 1.0, (count, k * m))
                stacked = f.reshape(count, k, m) @ w
                each = np.stack([f[i].copy().reshape(k, m) @ w for i in range(count)])
                assert stacked.tobytes() == each.tobytes(), (count, k)

    @pytest.mark.parametrize("m", [15, 31])
    def test_stacked_product_equals_one_product_per_pair(self, m):
        # _pair_sums evaluates the halves of k pieces as (k, 2, m) @ w; that is
        # k products of (2, m), byte for byte, where a flat (2k, m) @ w need not be
        w = {15: _W15, 31: _W31}[m]
        rng = np.random.default_rng(m)
        for k in range(1, 301):
            f = rng.uniform(0.0, 1.0, 2 * k * m + 7)[7:]  # an offset view, as in _pair_sums
            stacked = f.reshape(k, 2, m) @ w
            pairs = np.stack([f[2 * m * j : 2 * m * (j + 1)].reshape(2, m) @ w for j in range(k)])
            assert stacked.tobytes() == pairs.tobytes(), k


def per_p_kernel_power(l, p, cfg=DEFAULT_CONFIG):
    """Oracle: ``integrate_kernel_power`` as it was before the exponents shared their work.

    The arches that exponent keeps, a node table of those arches alone
    raised to p, and the split loop with a fresh ``arch_values`` call per
    bisection, in u = l x.
    """
    kept, charge = _kept_arches(l, p, cfg.abs_tol)
    a, b = kept[:, 0], kept[:, 1]
    table = quadrature._kernel_table(l, len(kept))
    first = np.concatenate((table[:, :15].ravel(), table[:, 15:].ravel())) ** p
    value, err, converged, _ = serial_refine(arch_halves(l, p), a, b, *_pair_sums(first, a, b), u_config(l, cfg))
    return 2.0 * value / l, 2.0 * (err + charge) / l, converged


# NORM_P_GRID with exponents 1 and 1.5 and a repeat; from p = 32 on some
# arches are dropped at l >= 64, and at 300 and 1000 most of them are
POWERS_P_GRID = NORM_P_GRID + (1.0, 1.5, 300.0, 1000.0, 2.5)


class TestKernelPowers:
    @pytest.mark.parametrize(
        "cfg",
        [
            DEFAULT_CONFIG,
            QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15),
            QuadratureConfig(max_subdivisions=1),
            QuadratureConfig(max_subdivisions=3),
            QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=1),
            QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3),
        ],
        ids=["default", "tight", "default-budget-1", "default-budget-3", "tight-budget-1", "tight-budget-3"],
    )
    def test_each_exponent_matches_its_own_path(self, cfg):
        for l in (6, 7, 13, 30, 64, 301):
            clear_caches()
            got = integrate_kernel_power_grid([(l, p) for p in POWERS_P_GRID], cfg)
            assert len(got) == len(POWERS_P_GRID)
            for p, result in zip(POWERS_P_GRID, got):
                assert hexed(result) == hexed(per_p_kernel_power(l, p, cfg)), (l, p)

    @settings(max_examples=60, deadline=None)
    @given(
        l=st.integers(min_value=2, max_value=400),
        ps=st.lists(st.floats(min_value=1.0, max_value=400.0), min_size=1, max_size=6),
    )
    def test_random_exponent_sets(self, l, ps):
        got = integrate_kernel_power_grid([(l, p) for p in ps])
        assert [hexed(r) for r in got] == [hexed(per_p_kernel_power(l, p)) for p in ps]

    def test_one_exponent_is_the_scalar_call(self):
        for l, p in ((6, 2.0), (64, 2.5), (301, 128.0)):
            scalar = alone(lambda: integrate_kernel_power(KernelSpec(l), p))
            assert scalar == alone(lambda: integrate_kernel_power_grid([(l, p)]))[0]

    def test_one_table_and_one_kernel_call_per_round(self, monkeypatch):
        tables, calls = [], []
        table, values = quadrature._kernel_table, quadrature.arch_values
        monkeypatch.setattr(quadrature, "_kernel_table", lambda l, k: tables.append((l, k)) or table(l, k))
        # a round's call has a length per point, the first pass's one length
        monkeypatch.setattr(quadrature, "arch_values", lambda l, k, s: np.ndim(l) and calls.append(l) or values(l, k, s))
        ps = [2.5, 3.1, 7.3, 40.0]
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
        integrate_kernel_power_grid([(64, p) for p in ps], cfg)
        rounds = len(calls)
        assert tables == [(64, len(_kept_arches(64, 2.5, cfg.abs_tol)[0]))]
        calls.clear()
        for p in ps:
            alone(lambda: integrate_kernel_power(KernelSpec(64), p, cfg))
        assert 0 < rounds < len(calls)

    def test_no_exponents(self):
        assert integrate_kernel_power_grid([]) == []

    @pytest.mark.parametrize("bad", [0.5, NAN, INF])
    def test_a_bad_exponent_raises(self, bad):
        with pytest.raises(DomainError):
            integrate_kernel_power_grid([(9, 2.0), (9, bad)])


# mixed, repeated and unsorted lengths, among them 2..5 and 64, at exponents
# that keep every arch, and at 300 and 1000, which drop most of them
GRID_PAIRS = [
    (l, p)
    for l in (64, 2, 7, 3, 301, 4, 5, 64, 6, 13)
    for p in (2.0, 1.0, 7.3, 2.5, 300.0, 128.0, 1000.0, 2.5)
]
TIGHT_BUDGET_1 = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=1)


class TestKernelPowerGrid:
    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, TIGHT_BUDGET_1], ids=["default", "tight-budget-1"])
    def test_each_pair_matches_its_own_path(self, cfg):
        clear_caches()
        got = integrate_kernel_power_grid(GRID_PAIRS, cfg)
        assert [hexed(r) for r in got] == [hexed(per_p_kernel_power(l, p, cfg)) for l, p in GRID_PAIRS]
        # and each is the one-pair call's
        assert got == [alone(lambda: integrate_kernel_power_grid([(l, p)], cfg))[0] for l, p in GRID_PAIRS]

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, TIGHT_BUDGET_1], ids=["default", "tight-budget-1"])
    def test_uncached_table_next_to_cached_ones(self, monkeypatch, cfg):
        # a length of 4097 arches is integrated next to stored pairs of short
        # lengths; only the pairs not stored build a node table
        big = 8193
        integrate_kernel_power_grid([(6, 2.5), (64, 3.0)], cfg)
        tables, table = [], quadrature._kernel_table
        monkeypatch.setattr(quadrature, "_kernel_table", lambda l, k: tables.append(l) or table(l, k))
        pairs = [(6, 2.5), (big, 2.0), (64, 3.0), (big, 128.0), (6, 2.0)]
        got = integrate_kernel_power_grid(pairs, cfg)
        assert tables == [big, 6]
        assert [hexed(r) for r in got] == [hexed(per_p_kernel_power(l, p, cfg)) for l, p in pairs]

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, TIGHT_BUDGET_1], ids=["default", "tight-budget-1"])
    def test_arch_zero_near_the_origin_with_a_length_array(self, monkeypatch, cfg):
        seen = []

        def spy(l, k, s):
            if np.ndim(l):
                ls, ks, s = np.broadcast_arrays(l, k, s)
                seen.append(np.unique(ls[(ks == 0) & (s < 1e-8 * ls)]).tolist())
            return values(l, k, s)

        values = quadrature.arch_values
        monkeypatch.setattr(quadrature, "arch_values", spy)
        pairs = [(10**4, 1e5), (6, 1e5), (6, 2.5), (6, 1000.0)]
        got = integrate_kernel_power_grid(pairs, cfg)
        monkeypatch.undo()
        if cfg is DEFAULT_CONFIG:
            # arch 0 of l = 10^4 at p = 1e5 is bisected to nodes below
            # x = 1e-8 (s = l x below 1e-8 l) in rounds that evaluate l = 6 as well
            assert [10000.0] in seen
        assert [hexed(r) for r in got] == [hexed(per_p_kernel_power(l, p, cfg)) for l, p in pairs]

    def test_certify_grid_evaluates_g_through_arch_values_alone(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("kernel_values was called")

        rounds, values = [], quadrature.arch_values
        assert not hasattr(quadrature, "kernel_values")
        monkeypatch.setattr(kernel, "kernel_values", forbidden)
        # a round's call has a length per point, 92 points per bisected piece
        monkeypatch.setattr(quadrature, "arch_values", lambda l, k, s: np.ndim(l) and rounds.append(np.size(s)) or values(l, k, s))
        certs = certify_bound_grid([(l, p) for l in (6, 7, 64, 1000) for p in (2.5, 3.0, 8.0)])
        assert all(cert.passed for cert in certs)
        assert rounds and all(n % 92 == 0 for n in rounds), rounds

    @pytest.mark.parametrize("l", [1000, 100_001])
    def test_refined_node_values_match_mpmath(self, monkeypatch, l):
        # the rounds of g^2.5 at tight tolerances bisect arches next to their
        # zeros: the 100 nodes nearest an arch end, and 100 others, are within
        # the evaluator's bound of g at l x = k + s
        seen, values = [], quadrature.arch_values

        def spy(ls, k, s):
            g = values(ls, k, s)
            if np.ndim(ls):
                seen.append(np.column_stack([a.ravel() for a in np.broadcast_arrays(k, s, g)]))
            return g

        monkeypatch.setattr(quadrature, "arch_values", spy)
        integrate_kernel_power_grid([(l, 2.5)], QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15))
        points = np.concatenate(seen)
        ends = np.minimum(points[:, 1], 1.0 - points[:, 1])
        order = np.argsort(ends, kind="stable")
        sample = np.concatenate((order[:100], np.random.default_rng(l).choice(order[100:], 100, replace=False)))
        assert ends[order[0]] < 1e-3 and (points[:, 0] >= 1).any()
        for k, s, g in points[sample].tolist():
            assert abs(g / mpmath_arch_value(l, int(k), s) - 1) < ARCH_VALUES_REL_BOUND, (k, s)

    def test_store_bounds(self):
        # a length left holding more than _EXPONENTS_KEPT exponents is emptied
        ps = [2.0 + j / 8.0 for j in range(quadrature._EXPONENTS_KEPT + 1)]
        first = integrate_kernel_power_grid([(6, p) for p in ps[:-1]])
        assert len(quadrature._integrals(6, DEFAULT_CONFIG)) == len(ps) - 1
        assert integrate_kernel_power_grid([(6, p) for p in ps])[:-1] == first
        assert quadrature._integrals(6, DEFAULT_CONFIG) == {}
        # a call over more lengths than the cache keeps reads every one it integrated
        lengths = range(2, 3 + quadrature._integrals.cache_parameters()["maxsize"])
        got = integrate_kernel_power_grid([(l, 2.0) for l in lengths])
        assert got[:3] == [alone(lambda: integrate_kernel_power(KernelSpec(l), 2.0)) for l in lengths[:3]]

    def test_chunks_do_not_change_the_results(self, monkeypatch):
        whole = alone(lambda: integrate_kernel_power_grid(GRID_PAIRS))
        for arches in (1, 40, 10**6):
            monkeypatch.setattr(quadrature, "_CHUNK_ARCHES", arches)
            assert alone(lambda: integrate_kernel_power_grid(GRID_PAIRS)) == whole

    def test_chunks_bound_the_lengths_in_flight(self, monkeypatch):
        rounds = []

        def spy(pairs, loops):
            rounds.append({pairs[i][0] for i in loops})
            return power_rounds(pairs, loops)

        power_rounds = quadrature._power_rounds
        monkeypatch.setattr(quadrature, "_power_rounds", spy)
        monkeypatch.setattr(quadrature, "_CHUNK_ARCHES", 700)
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
        # every arch is kept at p = 2.5: 151, 501, 1001 and 4 of them; a
        # length over the bound runs alone
        integrate_kernel_power_grid([(301, 2.5), (1000, 2.5), (2001, 2.5), (6, 2.5)], cfg)
        assert rounds == [{301, 1000}, {2001}, {6}]

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(min_value=2, max_value=400), st.floats(min_value=1.0, max_value=400.0)),
            max_size=8,
        ),
        tight=st.booleans(),
    )
    def test_random_pairs(self, pairs, tight):
        cfg = TIGHT_BUDGET_1 if tight else DEFAULT_CONFIG
        got = alone(lambda: integrate_kernel_power_grid(pairs, cfg))
        assert [hexed(r) for r in got] == [hexed(per_p_kernel_power(l, p, cfg)) for l, p in pairs]

    def test_empty_batches(self):
        assert integrate_kernel_power_grid([]) == []
        assert lp_norm_grid([]) == []
        assert certify_bound_grid([]) == []

    @pytest.mark.parametrize("bad", [(1, 2.0), (6, 0.5), (6.5, 2.0), (6, NAN)])
    def test_a_bad_pair_raises_before_any_work(self, monkeypatch, bad):
        monkeypatch.setattr(quadrature, "_kernel_table", None)  # no table is read
        with pytest.raises(DomainError):
            integrate_kernel_power_grid([(6, 2.0), bad])

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(st.integers(min_value=2, max_value=300), st.sampled_from([1, 5])),
                st.one_of(st.floats(min_value=1.0, max_value=400.0), st.sampled_from([0.5, NAN, 1e8])),
            ),
            max_size=6,
        ),
        tight=st.booleans(),
    )
    def test_grid_records_are_scalar_calls(self, pairs, tight):
        cfg = TIGHT_BUDGET_1 if tight else DEFAULT_CONFIG

        def loop(scalar):
            return lambda: [alone(lambda: scalar(KernelSpec(l), p, cfg)) for l, p in pairs]

        assert outcome(lambda: alone(lambda: lp_norm_grid(pairs, cfg))) == outcome(loop(lp_norm))
        assert outcome(lambda: alone(lambda: certify_bound_grid(pairs, cfg))) == outcome(loop(certify_bound))

    def test_failure_at_an_earlier_length_before_a_bad_length(self):
        # a failed certificate at l = 6 wins over l = 5 and l = 1 after it
        with pytest.raises(VerificationError, match=r"at l=6, p=2\.5:"):
            certify_bound_grid([(7, 2.0), (6, 2.5), (5, 2.0)], TIGHT_BUDGET_1)
        with pytest.raises(VerificationError, match=r"at l=6, p=2\.5:"):
            certify_bound_grid([(6, 2.5), (1, 2.0)], TIGHT_BUDGET_1)
        with pytest.raises(VerificationError, match="sinc-power integral did not converge at p=2.5"):
            lp_norm_grid([(6, 2.5), (1, 2.0)], TIGHT_BUDGET_1)
        with pytest.raises(DomainError, match="got 1$"):
            lp_norm_grid([(6, 2.0), (1, 2.0)])


def hexed_record(record):
    """A result record's fields, each float as float.hex."""
    return [v.hex() if isinstance(v, float) else v for v in vars(record).values()]


def outcome(call):
    """The hexed records ``call`` returns, or the type and message of what it raises."""
    try:
        return [hexed_record(r) for r in call()]
    except (DomainError, PreconditionError, VerificationError) as exc:
        return type(exc), str(exc)


# NORM_P_GRID with p near 1, a far exponent and repeats of 2.0001 and 7.3, unsorted
BATCH_P_GRID = NORM_P_GRID + (1.0, 1.01, 2.0001, 7.3, 300.0)


class TestNormBatches:
    @pytest.mark.parametrize(
        "batch, scalar",
        [(lp_norm_grid, lp_norm), (certify_bound_grid, certify_bound)],
        ids=["lp_norms", "certify_bounds"],
    )
    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, TIGHT_BUDGET_1], ids=["default", "tight-budget-1"])
    @pytest.mark.parametrize("l", [6, 7, 13, 64, 301, 1000])
    def test_batch_is_scalar_calls(self, l, cfg, batch, scalar):
        spec = KernelSpec(l)
        singles = [outcome(lambda: [alone(lambda: scalar(spec, p, cfg))]) for p in BATCH_P_GRID]
        passing = [(p, single[0]) for p, single in zip(BATCH_P_GRID, singles) if isinstance(single, list)]
        assert outcome(lambda: alone(lambda: batch([(l, p) for p, _ in passing], cfg))) == [r for _, r in passing]
        # the whole grid raises what the first failing exponent raises alone:
        # p < 2 for certify_bound_grid, and at the tight budget a failed
        # certificate or a sinc reference that does not converge
        first_error = next((single for single in singles if isinstance(single, tuple)), None)
        grid = [(l, p) for p in BATCH_P_GRID]
        assert outcome(lambda: alone(lambda: batch(grid, cfg))) == (first_error or [r for _, r in passing])
        if batch is lp_norm_grid:
            # at the tight budget the references of 1.01, 2.5 and 2.0001 (twice) fail
            assert len(passing) == len(BATCH_P_GRID) - (4 if cfg is TIGHT_BUDGET_1 else 0)
        else:
            assert first_error[0] is (PreconditionError if cfg is DEFAULT_CONFIG else VerificationError)

    @settings(max_examples=40, deadline=None)
    @given(
        l=st.integers(min_value=2, max_value=400),
        ps=st.lists(
            st.one_of(st.floats(min_value=1.0, max_value=400.0), st.sampled_from([0.5, NAN, 1e8])),
            max_size=6,
        ),
        tight=st.booleans(),
    )
    def test_random_batches_are_scalar_calls(self, l, ps, tight):
        spec, cfg = KernelSpec(l), TIGHT_BUDGET_1 if tight else DEFAULT_CONFIG
        pairs = [(l, p) for p in ps]
        for batch, scalar in ((lp_norm_grid, lp_norm), (certify_bound_grid, certify_bound)):
            assert outcome(lambda: alone(lambda: batch(pairs, cfg))) == outcome(
                lambda: [alone(lambda: scalar(spec, p, cfg)) for p in ps]
            )

    def test_no_exponents(self):
        assert lp_norm_grid([]) == []
        assert certify_bound_grid([]) == []

    def test_failed_certificate_before_a_bad_exponent(self):
        # checking every exponent first would raise DomainError for 1e8
        with pytest.raises(VerificationError, match=r"at l=6, p=2\.5:"):
            certify_bound_grid([(6, 2.5), (6, 1e8)], TIGHT_BUDGET_1)

    def test_first_exponent_below_two_raises(self):
        with pytest.raises(PreconditionError, match="got 1.5$"):
            certify_bound_grid([(6, 2.0), (6, 1.5), (6, NAN)])

    def test_failed_reference_before_a_bad_exponent(self):
        with pytest.raises(VerificationError, match="sinc-power integral did not converge at p=2.5"):
            lp_norm_grid([(6, 2.5), (6, 1e8)], TIGHT_BUDGET_1)

    def test_nan_exponent_raises(self):
        with pytest.raises(DomainError):
            lp_norm_grid([(6, 2.0), (6, NAN)])

    def test_one_kernel_power_call_per_batch(self, monkeypatch):
        calls = []

        def counted(pairs, *args, **kwargs):
            calls.append(list(pairs))
            return integrate_kernel_power_grid(pairs, *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_kernel_power_grid", counted)
        lp_norm_grid([(64, 2.0), (64, 8.0), (64, 1.0)])
        with pytest.raises(PreconditionError):
            certify_bound_grid([(64, 2.0), (64, 8.0), (64, 3.0), (64, 1.5)])
        # the certificates before the first exponent below 2 are integrated, in one call
        assert calls == [[(64, 2.0), (64, 8.0), (64, 1.0)], [(64, 2.0), (64, 8.0), (64, 3.0)]]
        calls.clear()
        with pytest.raises(PreconditionError):
            certify_bound_grid([(6, 2.0), (64, 8.0), (5, 3.0), (7, 2.0)])
        # across lengths too: one call for the pairs before the first invalid one
        assert calls == [[(6, 2.0), (64, 8.0)]]
