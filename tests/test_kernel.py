import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lebesgue_lab.errors import DomainError
from lebesgue_lab.kernel import (
    KernelSpec,
    TruncatedGaussian,
    check_first_arch_domination,
    gaussian_distribution_function,
    eval_gaussian,
    eval_kernel,
    gaussian_values,
    kernel_slope,
    kernel_slope_values,
    kernel_values,
    kernel_values_and_slopes,
)

# high-precision evaluations of the closed forms (40-digit arithmetic)
G_6_AT_TWELFTH = 0.6439505508593789  # 1 / (6 sin(pi/12))
Y_LAST_8 = 0.0707355302630646  # 2 / (9 pi)
X_C_8 = 0.16360439554922646
Y_LAST_9 = 0.057874524760689216  # 2 / (11 pi)
X_C_9 = 0.15058361555032753
F_HALF_8 = 0.08369172460136572  # sqrt(2 log 2 / (63 pi))


def _sinc_poly(u2):
    return 1.0 - u2 / 6.0 + u2 * u2 / 120.0


def masked_kernel_values(l, x):
    """g by series below 1e-8 and by the closed form elsewhere, each on its own mask."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1e-8
    xs, xb = x[small], x[~small]
    out[small] = _sinc_poly((l * math.pi * xs) ** 2) / _sinc_poly((math.pi * xs) ** 2)
    out[~small] = np.abs(np.sin(math.pi * np.fmod(l * xb, 2.0))) / (l * np.sin(math.pi * xb))
    return out


def masked_kernel_slope_values(l, x):
    """The signed slope, masked the same way."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1e-8
    xs, xb = x[small], x[~small]
    h = _sinc_poly((l * math.pi * xs) ** 2) / _sinc_poly((math.pi * xs) ** 2)
    dlog = -(math.pi**2) * (l * l - 1) * xs / 3.0 - (math.pi**4) * (l**4 - 1) * xs**3 / 45.0
    out[small] = h * dlog
    u = math.pi * np.fmod(l * xb, 2.0)
    s = np.sin(math.pi * xb)
    out[~small] = math.pi * (l * np.cos(u) * s - np.sin(u) * np.cos(math.pi * xb)) / (l * s * s)
    return out


class TestKernelSpec:
    def test_accepts_small_lengths(self):
        assert KernelSpec(2).l == 2

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True])
    def test_rejects_bad_lengths(self, bad):
        with pytest.raises(DomainError):
            KernelSpec(bad)


class TestEvalG:
    def test_a_length_per_point_is_each_length_alone(self):
        # both branches: the series below the cutoff and the closed form above it
        rng = np.random.default_rng(3)
        x = np.concatenate(([0.0, 5e-324, 1e-9, 1e-8, 0.5], rng.uniform(0.0, 2e-8, 50), rng.uniform(0.0, 0.5, 200)))
        ls = rng.choice([2, 6, 7, 64, 1000, 10**4], size=x.size)
        got = kernel_values(ls, x)
        want = [kernel_values(int(l), np.array([xi]))[0] for l, xi in zip(ls, x)]
        assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in want]
        assert kernel_values(ls.astype(float), x).tobytes() == got.tobytes()

    def test_values_and_slopes_with_a_length_per_point_are_each_length_alone(self):
        # lengths past l = 55,108, where l**4 overflows int64; x from 0 through
        # the series cutoff to 1/2
        rng = np.random.default_rng(4)
        cutoff = 1e-8
        tiny = [0.0, 5e-324, 2.0e-310, 1e-12, 5e-9, np.nextafter(cutoff, 0.0), cutoff, np.nextafter(cutoff, 1.0)]
        x = np.concatenate((tiny, rng.uniform(0.0, 2 * cutoff, 60), rng.uniform(0.0, 0.5, 300), [0.5]))
        ls = rng.choice([2, 3, 6, 7, 64, 1000, 10**4, 55_108, 55_109, 99_999, 10**5], size=x.size)
        values, slopes = kernel_values_and_slopes(ls, x)
        for l in np.unique(ls).tolist():
            at = ls == l
            alone_values, alone_slopes = kernel_values_and_slopes(l, x[at])
            assert values[at].tobytes() == alone_values.tobytes(), l
            assert slopes[at].tobytes() == alone_slopes.tobytes(), l
            # the one-length call against an oracle in Python-int arithmetic
            assert alone_values.tobytes() == masked_kernel_values(l, x[at]).tobytes(), l
            assert alone_slopes.tobytes() == masked_kernel_slope_values(l, x[at]).tobytes(), l
        assert kernel_slope_values(ls, x).tobytes() == slopes.tobytes()

    def test_value_at_origin_is_one(self):
        assert eval_kernel(KernelSpec(8), 0.0) == 1.0

    def test_first_zero(self):
        assert abs(eval_kernel(KernelSpec(8), 1.0 / 8.0)) <= 1e-14

    def test_half_period_value(self):
        assert eval_kernel(KernelSpec(6), 1.0 / 12.0) == pytest.approx(G_6_AT_TWELFTH, abs=1e-14)

    @pytest.mark.parametrize("x", [-0.1, 0.5000001, 1.0])
    def test_domain_errors(self, x):
        with pytest.raises(DomainError):
            eval_kernel(KernelSpec(8), x)

    @pytest.mark.parametrize("l", [2, 5, 8, 13, 50, 101])
    def test_zeros_at_multiples(self, l):
        spec = KernelSpec(l)
        for k in range(1, l // 2 + 1):
            assert abs(eval_kernel(spec, k / l)) <= 1e-14

    @given(
        st.integers(min_value=2, max_value=500),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_bounded_by_one(self, l, x):
        v = eval_kernel(KernelSpec(l), x)
        assert 0.0 <= v <= 1.0

    def test_series_branch_matches_direct_branch(self):
        # compare just above and below the series cutoff
        l = 37
        lo, hi = 0.9e-8, 1.1e-8
        vals = kernel_values(l, np.array([lo, hi]))
        expected = math.sin(l * math.pi * hi) / (l * math.sin(math.pi * hi))
        assert vals[1] == pytest.approx(expected, rel=1e-13)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l", [2, 6, 37, 500, 1000])
    @pytest.mark.parametrize(
        "fn,oracle",
        [(kernel_values, masked_kernel_values), (kernel_slope_values, masked_kernel_slope_values)],
        ids=["values", "slopes"],
    )
    def test_matches_masked_oracle(self, l, fn, oracle):
        # x = 0, x below the series cutoff and ordinary x, mixed and apart
        rng = np.random.default_rng(l)
        tiny = np.array([0.0, 5e-324, 1e-12, 5e-9, np.nextafter(1e-8, 0.0), 1e-8])
        ordinary = np.concatenate([rng.uniform(1e-8, 0.5, 400), [0.5, 1.0 / l]])
        mixed = np.concatenate([tiny, ordinary])
        for x in (mixed, rng.permutation(mixed), ordinary, tiny, ordinary[:1], np.empty(0)):
            assert fn(l, x).tobytes() == oracle(l, x).tobytes()

    @pytest.mark.parametrize("l", [2, 6, 37, 500, 1000])
    def test_fused_evaluator_equals_separate_functions(self, l):
        # x = 0, subnormal, below the series cutoff and ordinary x, mixed and apart
        rng = np.random.default_rng(l + 1)
        tiny = np.array([0.0, 5e-324, 2.0e-310, 1e-12, 5e-9, np.nextafter(1e-8, 0.0), 1e-8])
        ordinary = np.concatenate([rng.uniform(1e-8, 0.5, 400), [0.5, 1.0 / l]])
        mixed = np.concatenate([tiny, ordinary])
        for x in (mixed, rng.permutation(mixed), ordinary, tiny, tiny[:1], ordinary[:1], np.empty(0)):
            values, slopes = kernel_values_and_slopes(l, x)
            assert values.tobytes() == kernel_values(l, x).tobytes()
            assert slopes.tobytes() == kernel_slope_values(l, x).tobytes()
            assert slopes.tobytes() == masked_kernel_slope_values(l, x).tobytes()

    def test_slope_matches_finite_difference(self):
        spec = KernelSpec(11)
        for x in (0.031, 0.17, 0.342, 0.49):
            h = 1e-7
            fd = (eval_kernel(spec, x + h) - eval_kernel(spec, x - h)) / (2 * h)
            sl = kernel_slope(spec, x)
            assert abs(abs(sl) - abs(fd)) <= 1e-5 * max(1.0, abs(sl))


class TestTruncatedGaussian:
    def test_even_floor_level(self):
        tg = TruncatedGaussian.from_length(8)
        assert tg.y_last == pytest.approx(Y_LAST_8, abs=1e-16)
        assert tg.x_c == pytest.approx(X_C_8, abs=1e-15)

    def test_odd_floor_level(self):
        tg = TruncatedGaussian.from_length(9)
        assert tg.y_last == pytest.approx(Y_LAST_9, abs=1e-16)
        assert tg.x_c == pytest.approx(X_C_9, abs=1e-15)

    @pytest.mark.parametrize("l", range(6, 201))
    def test_cutoff_consistency(self, l):
        tg = TruncatedGaussian.from_length(l)
        recon = math.exp(-math.pi * (l * l - 1) * tg.x_c**2 / 2.0)
        assert recon == pytest.approx(tg.y_last, rel=1e-12)

    def test_gaussian_at_origin(self):
        assert eval_gaussian(TruncatedGaussian.from_length(8), 0.0) == 1.0

    def test_value_at_cutoff(self):
        tg = TruncatedGaussian.from_length(8)
        assert eval_gaussian(tg, tg.x_c) == pytest.approx(tg.y_last, abs=1e-12)

    def test_zero_beyond_cutoff(self):
        tg = TruncatedGaussian.from_length(8)
        assert eval_gaussian(tg, tg.x_c + 1e-9) == 0.0

    def test_negative_abscissa_rejected(self):
        with pytest.raises(DomainError):
            eval_gaussian(TruncatedGaussian.from_length(8), -1e-9)

    def test_nan_abscissa_rejected(self):
        with pytest.raises(DomainError):
            eval_gaussian(TruncatedGaussian.from_length(8), float("nan"))

    @given(st.integers(min_value=2, max_value=300), st.floats(min_value=0.0, max_value=1.0))
    def test_bounded_by_one(self, l, x):
        assert 0.0 <= eval_gaussian(TruncatedGaussian.from_length(l), x) <= 1.0

    @pytest.mark.parametrize("l", [2, 6, 7, 64, 1000])
    def test_batch_truncates_after_cutoff(self, l):
        tg = TruncatedGaussian.from_length(l)
        xs = np.array([0.0, 0.5 * tg.x_c, tg.x_c, np.nextafter(tg.x_c, 1.0), 2.0 * tg.x_c])
        fs = gaussian_values(tg, xs)
        exact = [math.exp(-math.pi * (l * l - 1) * x * x / 2.0) for x in xs[:3]]
        assert fs[:3].tolist() == pytest.approx(exact, rel=1e-15) and fs[2] > 0.0
        assert np.array_equal(fs[3:], [0.0, 0.0])
        # the scalar form is the one-point case of the batch
        assert [eval_gaussian(tg, x) for x in xs.tolist()] == fs.tolist()


class TestClosedFormF:
    def test_mid_level_value(self):
        tg = TruncatedGaussian.from_length(8)
        assert gaussian_distribution_function(tg, 0.5) == pytest.approx(F_HALF_8, abs=1e-15)

    def test_constant_below_floor(self):
        tg = TruncatedGaussian.from_length(8)
        assert gaussian_distribution_function(tg, tg.y_last / 2) == tg.x_c
        assert gaussian_distribution_function(tg, 1e-9) == tg.x_c

    def test_vanishes_near_one(self):
        tg = TruncatedGaussian.from_length(8)
        assert gaussian_distribution_function(tg, 0.999999) == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("y", [0.0, 1.0, -0.2, 1.4])
    def test_domain_errors(self, y):
        with pytest.raises(DomainError):
            gaussian_distribution_function(TruncatedGaussian.from_length(8), y)

    @pytest.mark.parametrize("l", [6, 9, 48])
    def test_array_matches_scalar_calls(self, l):
        tg = TruncatedGaussian.from_length(l)
        ys = np.concatenate([np.geomspace(1e-6, 1 - 1e-9, 500), [tg.y_last]])
        batch = gaussian_distribution_function(tg, ys)
        assert batch.shape == ys.shape
        assert [v.hex() for v in batch.tolist()] == [
            gaussian_distribution_function(tg, y).hex() for y in ys.tolist()
        ]

    @pytest.mark.parametrize("bad", [math.nan, 0.0, 1.0, -0.2])
    def test_one_bad_level_in_an_array_raises(self, bad):
        ys = np.array([0.1, bad, 0.5])
        with pytest.raises(DomainError):
            gaussian_distribution_function(TruncatedGaussian.from_length(8), ys)

    def test_monotone_nonincreasing(self):
        tg = TruncatedGaussian.from_length(9)
        ys = np.geomspace(1e-6, 1 - 1e-6, 400)
        vals = [gaussian_distribution_function(tg, y) for y in ys]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("l", [6, 7, 8, 9])
    def test_matches_measured_distribution_of_f(self, l):
        # independent oracle: measure {f > y} by bisecting f on [0, x_c]
        tg = TruncatedGaussian.from_length(l)
        for y in np.geomspace(1e-3, 1 - 1e-6, 100):
            if y < tg.y_last:
                measured = tg.x_c
            else:
                lo, hi = 0.0, tg.x_c
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if eval_gaussian(tg, mid) > y:
                        lo = mid
                    else:
                        hi = mid
                measured = 0.5 * (lo + hi)
            assert gaussian_distribution_function(tg, y) == pytest.approx(measured, abs=1e-8)


class TestFirstArchDomination:
    def test_small_length_grid(self):
        report = check_first_arch_domination(KernelSpec(2), 1000)
        assert report.ok and report.violation_count == 0
        assert report.max_diff < 0.0
        # right endpoint: the kernel vanishes while the gaussian does not
        assert eval_kernel(KernelSpec(2), 0.5) <= 1e-14
        assert gaussian_values(TruncatedGaussian.from_length(2), np.array([0.5]))[0] == pytest.approx(
            math.exp(-3 * math.pi / 8), rel=1e-15
        )

    @pytest.mark.parametrize("l", [6, 50])
    def test_dense_grids(self, l):
        report = check_first_arch_domination(KernelSpec(l), 10_000)
        assert report.ok and report.violation_count == 0

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            check_first_arch_domination(KernelSpec(6), 1)

    @pytest.mark.parametrize("l", [2, 6, 64, 1000])
    def test_log_sinc_series_lemma_against_mpmath(self, l):
        # log g(x) = -sum_j zeta(2j) (l^(2j) - 1) x^(2j) / j on arch 0, every
        # term negative: so g <= exp(-pi^2 (l^2 - 1) x^2 / 6) < f there
        with mpmath.workdps(40):
            for t in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.97):
                x = mpmath.mpf(t) / l
                g = mpmath.sin(l * mpmath.pi * x) / (l * mpmath.sin(mpmath.pi * x))
                series, j = mpmath.mpf(0), 1
                while True:
                    term = mpmath.zeta(2 * j) * ((l * x) ** (2 * j) - x ** (2 * j)) / j
                    series -= term
                    if term < mpmath.mpf(10) ** -45:
                        break
                    j += 1
                assert abs(series - mpmath.log(g)) < mpmath.mpf(10) ** -35
                envelope = mpmath.exp(-mpmath.pi**2 * (l * l - 1) * x**2 / 6)
                assert g <= envelope < mpmath.exp(-mpmath.pi * (l * l - 1) * x**2 / 2)
