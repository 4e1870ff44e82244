import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import lebesgue_lab
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lebesgue_lab import pmf
from lebesgue_lab.errors import ConvolutionOverflowError, DomainError
from lebesgue_lab.pmf import (
    DIRECT_LIMIT,
    MASS_TOL,
    SUPPORT_CAP,
    Pmf,
    _clean_transform_weights,
    _FAST_LENS,
    _next_fast_len,
    convolve,
    convolve_many,
    entropy_summary,
    l_index,
    l_index_from_max,
    l_indices_from_max,
    segment_sums,
    uniform,
    uniform_max,
    weight_problems,
)


def random_pmf(rng, size):
    w = rng.random(size) + 1e-3
    return Pmf(offset=int(rng.integers(-10, 10)), weights=w / w.sum())


def heavy_law(excess=9e-13):
    """A law on 10 points whose weights sum to 1 + ``excess``, up to rounding."""
    w = np.full(10, 0.1)
    w[0] += excess
    return Pmf(0, w)


positive_weight_lists = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=12
)


class TestPmfValidation:
    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            Pmf(0, np.array([0.5, -0.1, 0.6]))

    def test_rejects_bad_mass(self):
        with pytest.raises(DomainError):
            Pmf(0, np.array([0.5, 0.4]))

    def test_bad_mass_is_reported_as_a_plain_float(self):
        with pytest.raises(DomainError, match=r"^weights sum to 1\.1, not 1$"):
            Pmf(0, [0.5, 0.6])

    def test_one_law_past_the_mass_tolerance_is_refused(self):
        assert np.add.reduce(heavy_law().weights) - 1.0 < MASS_TOL
        with pytest.raises(DomainError, match="^weights sum to 1.000000000002"):
            heavy_law(2e-12)

    def test_rejects_untrimmed_support(self):
        with pytest.raises(DomainError):
            Pmf(0, np.array([0.0, 0.5, 0.5]))

    def test_weights_are_read_only(self):
        f = uniform(4)
        with pytest.raises(ValueError):
            f.weights[0] = 0.9

    def test_batch_checks_are_the_checks_of_one(self):
        laws = [
            [0.5, 0.5],
            [0.5, -0.1, 0.6],
            [0.5, 0.4],
            [0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0],
            [np.nan, 1.0],
            [np.inf, -np.inf],
            [0.25, 0.0, 0.75],
            [1.0],
        ]
        rows = np.zeros((len(laws), 4))
        for row, w in zip(rows, laws):
            row[: len(w)] = w
        got, maxima = weight_problems(rows, [len(w) for w in laws])
        for w, problem, m in zip(laws, got, maxima):
            try:
                assert Pmf(0, np.array(w)).max_weight == m, w
                assert problem is None, w
            except DomainError as exc:
                assert str(exc) == problem, w
        assert got[0] is None and got[-1] is None and got[-2] is None
        assert weight_problems(rows[:1], [2]) == ([None], [0.5])


class TestSegmentSums:
    """One ``reduceat`` gives each run the bits of ``np.add.reduce`` of the run alone."""

    def test_every_run_length_to_1500(self):
        # numpy sums a run sequentially below 8 values, in blocks of 8 to 128
        # and recursively above: every length, in one call and run by run
        rng = np.random.default_rng(5)
        lengths = list(range(1, 1501))
        values = rng.random(sum(lengths)) * np.repeat(10.0 ** rng.integers(-3, 4, size=len(lengths)), lengths)
        runs = np.split(values, np.cumsum(lengths)[:-1])
        want = [np.add.reduce(run).hex() for run in runs]
        assert [float(v).hex() for v in segment_sums(values, lengths)] == want
        assert [float(segment_sums(run, [len(run)])[0]).hex() for run in runs] == want
        # what the leading zero is for: reduceat on the runs alone moves bits
        starts = np.cumsum(lengths) - lengths
        assert [float(v).hex() for v in np.add.reduceat(values, starts)] != want

    def test_blocks_of_padded_rows(self):
        # the rows of a generation wave: 40 laws, each padded with zeros to one width
        rng = np.random.default_rng(11)
        for _ in range(200):
            sizes = rng.integers(6, 121, size=40).tolist()
            rows = np.zeros((40, max(sizes) + 1))
            for row, n in zip(rows, sizes):
                row[:n] = rng.random(n)
            got = segment_sums(rows[np.arange(rows.shape[1]) < np.array(sizes)[:, None]], sizes)
            assert got.tolist() == [np.add.reduce(row[:n]) for row, n in zip(rows, sizes)]

    def test_empty_runs_sum_to_zero(self):
        got = segment_sums(np.array([0.25, 0.5, 1.0]), [0, 2, 0, 1, 0])
        assert got.tolist() == [0.0, 0.75, 0.0, 1.0, 0.0]


class TestUniform:
    def test_point_mass(self):
        f = uniform(1)
        assert f.offset == 1 and len(f) == 1
        s = entropy_summary(f)
        assert s.M == 1.0 and s.N_inf == 1.0 and s.H_inf == 0.0

    def test_six_sided(self):
        s = entropy_summary(uniform(6))
        assert s.M == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert s.H_inf == pytest.approx(math.log(6.0), rel=1e-15)
        assert s.N_inf == pytest.approx(36.0, rel=1e-14)

    def test_entropy_power_is_square_of_size(self):
        assert entropy_summary(uniform(10)).N_inf == pytest.approx(100.0, rel=1e-14)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(DomainError):
            uniform(0)


# a factor of a uniform convolution whose support times the running one
# exceeds this is added by window sums of one running sum, O(n + l), rather
# than by np.convolve, O(n l), which is faster below it
WINDOW_SUM_ABOVE = 2**13


def uniform_counts(ls) -> np.ndarray:
    """Integer counts of the convolution of the uniform laws on {1, ..., l_i}: the oracle of :func:`uniform_max`.

    Entry k counts the tuples with j_i in {1, ..., l_i} and sum j_i = n + k.
    The other j_i fix the last, so no count, nor a partial sum of one,
    exceeds prod(ls) / max(ls): below 2^63 that is exact int64 arithmetic,
    above it the same convolutions run on Python integers.  The counts sum
    to prod(ls), which may wrap in int64 although every count is exact.
    Each factor is a convolution with l ones: ``np.convolve`` for short
    supports, window sums of a running sum beyond ``WINDOW_SUM_ABOVE``.
    Sizes are checked as :func:`uniform_max` checks them.
    """
    ls = list(ls)
    if not ls or any(isinstance(l, bool) or int(l) != l or l < 1 for l in ls):
        raise DomainError(f"support sizes must be positive integers, got {ls!r}")
    ls = [int(l) for l in ls]
    dtype = np.int64 if math.prod(ls) // max(ls) < 2**63 else object
    ones = np.ones(max(ls), dtype)
    counts = ones[:1]
    for l in ls:
        n = len(counts)
        if n * l <= WINDOW_SUM_ABOVE:
            counts = np.convolve(counts, ones[:l])
            continue
        # entry i is the sum of counts[i - l + 1 .. i]: a difference of two
        # running sums, exact in int64 even where the running sums wrap
        run = np.empty(n + l, dtype)
        run[0] = 0
        np.cumsum(counts, out=run[1 : n + 1])
        run[n + 1 :] = run[n]
        counts = run[1:] - np.concatenate((np.zeros(l - 1, dtype), run[:n]))
    return counts


def python_counts(ls):
    """Counts of the uniform convolution by Python-integer window sums."""
    counts = [1]
    for l in ls:
        prefix = [0, *itertools.accumulate(counts + [0] * (l - 1))]
        counts = [prefix[k + 1] - prefix[max(k + 1 - l, 0)] for k in range(len(counts) + l - 1)]
    return counts


class TestUniformCounts:
    @pytest.mark.parametrize("ls", [(1,), (1, 1), (2,), (6, 6), (3, 7, 2), (6, 8, 10, 12, 14)])
    def test_small_tuples(self, ls):
        counts = uniform_counts(ls)
        assert counts.tolist() == python_counts(ls)
        law = convolve_many([uniform(l) for l in ls])
        assert np.allclose(counts / math.prod(ls), law.weights, rtol=1e-14, atol=0.0)

    def test_int64_while_exact(self):
        ls = list(range(97, 107))  # prod > 2^63 > prod / max
        counts = uniform_counts(ls)
        assert counts.dtype == np.int64
        assert counts.tolist() == python_counts(ls)
        assert sum(counts.tolist()) == math.prod(ls)

    def test_python_integers_beyond_int64(self):
        ls = (129,) * 11  # prod / max = 129^10 > 2^63
        counts = uniform_counts(ls)
        assert counts.dtype == object
        assert counts.tolist() == python_counts(ls)
        assert sum(counts.tolist()) == 129**11
        assert max(counts.tolist()) > 2**63

    @pytest.mark.parametrize(
        "ls",
        # past the switch to window sums: int64 running sums that wrap, and Python integers
        [(300, 299, 250), (1000, 1000, 3), (500, 2), (97, 98, 99, 100, 101, 102, 103, 104, 105, 106), (129,) * 11],
    )
    def test_window_sums_match_convolution(self, ls):
        dtype = np.int64 if math.prod(ls) // max(ls) < 2**63 else object
        folded = np.ones(1, dtype)
        for l in ls:
            folded = np.convolve(folded, np.ones(l, dtype))
        counts = uniform_counts(ls)
        assert counts.dtype == folded.dtype
        assert counts.tolist() == folded.tolist()

    @pytest.mark.parametrize("bad", [(6, 0), (6, 2.5), (True,), (-3,), ()])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(DomainError):
            uniform_counts(bad)


class TestUniformMax:
    @settings(max_examples=300)
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=8))
    def test_is_the_largest_count(self, ls):
        assert uniform_max(ls) == int(uniform_counts(ls).max())

    @pytest.mark.parametrize(
        "ls",
        # the oracle's int64 counts with prod > 2^63 > prod / max, its Python integers
        # with prod / max > 2^63, and long tuples
        [tuple(range(97, 107)), (129,) * 11, (6,) * 30, (7, 9, 11) * 8, tuple(range(6, 40))],
    )
    def test_boundary_tuples(self, ls):
        assert uniform_max(ls) == max(python_counts(ls))

    def test_any_index(self):
        # the two large factors' counts are a triangle peaking at L = 10^6, and
        # the third sums six of them around the peak: L-3, L-2, L-1, L, L-1, L-2
        assert uniform_max((6, 10**6, 10**6)) == 6 * 10**6 - 9

    @pytest.mark.parametrize("bad", [(6, 0), (6, 2.5), (True,), (-3,), ()])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(DomainError):
            uniform_max(bad)


class TestEntropySummary:
    def test_simple_weights(self):
        s = entropy_summary(Pmf(0, np.array([0.5, 0.3, 0.2])))
        assert s.M == 0.5 and s.N_inf == pytest.approx(4.0, rel=1e-15)

    @given(positive_weight_lists)
    def test_internal_consistency(self, raw):
        w = np.asarray(raw)
        s = entropy_summary(Pmf(0, w / w.sum()))
        assert s.N_inf == pytest.approx(math.exp(2.0 * s.H_inf), rel=1e-12)
        assert s.N_inf == pytest.approx(s.M**-2, rel=1e-12)
        assert s.H_inf >= 0.0 and s.N_inf >= 1.0 - 1e-12


class TestLIndex:
    def test_exact_reciprocal(self):
        assert l_index(uniform(6)) == 6

    def test_interior_point(self):
        assert l_index_from_max(0.15) == 6  # 0.15 in (1/7, 1/6]

    def test_point_mass(self):
        assert l_index_from_max(1.0) == 1

    def test_just_above_reciprocal(self):
        assert l_index_from_max(1.0 / 6.0 + 1e-13) == 5

    @pytest.mark.parametrize("l", range(1, 200))
    def test_rounded_reciprocals_land_exactly(self, l):
        assert l_index_from_max(1.0 / l) == l

    def test_rounded_reciprocals_of_long_supports_land_exactly(self):
        # an absolute guard of 1e-12 missed 5,181 of these lengths, the first
        # at 11,619, where an ulp of l passes 1e-12
        ls = [*range(1, 100_001), *range(100_001, 2_000_001, 997), 2_000_000]
        assert l_indices_from_max([1.0 / l for l in ls]) == ls
        assert [l_index(uniform(l)) for l in (11_619, 16_384, 99_999)] == [11_619, 16_384, 99_999]

    def test_relative_guard_keeps_the_indices_of_short_supports(self):
        # the absolute guard, right wherever 1/m is within an ulp of k or far from it
        def absolute_guard(m):
            inv = 1.0 / m
            k = round(inv)
            return int(k) if k >= 1 and abs(inv - k) < 1e-12 and m * k <= 1.0 else int(math.floor(inv))

        rng = np.random.default_rng(29)
        ms = rng.uniform(0.0, 1.0, 200_000)
        ms = ms[ms > 0.0].tolist()
        factors = (1 - 1e-9, 1 - 1e-12, 1 - 1e-14, 1 - 4e-16, 1.0, 1 + 4e-16, 1 + 1e-14, 1 + 1e-12, 1 + 1e-9)
        ms += [f / l for l in range(2, 400) for f in factors]
        assert l_indices_from_max(ms) == [absolute_guard(m) for m in ms]

    @given(st.integers(min_value=1, max_value=500), st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_interval_membership(self, l, frac):
        m = 1.0 / (l + 1) + frac * (1.0 / l - 1.0 / (l + 1))
        if 1.0 / (l + 1) < m <= 1.0 / l:  # guard against rounding at the edges
            assert l_index_from_max(m) == l

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            l_index_from_max(0.0)

    def test_batch_is_the_index_of_each(self):
        ms = [1.0, 0.5, 1.0 / 6.0, 0.15, 1.0 / 6.0 + 1e-13, 1.0 / 299.0, 0.004]
        assert l_indices_from_max(ms) == [l_index_from_max(m) for m in ms] == [1, 2, 6, 6, 5, 299, 250]
        with pytest.raises(DomainError, match="1.5"):
            l_indices_from_max([0.5, 1.5, 0.0])


class TestConvolve:
    def test_two_uniform_six(self):
        c = convolve(uniform(6), uniform(6))
        assert c.offset == 2 and len(c) == 11
        assert c.max_weight == pytest.approx(1.0 / 6.0, rel=1e-14)
        # triangular shape rises then falls
        assert np.all(np.diff(c.weights[:6]) > 0) and np.all(np.diff(c.weights[5:]) < 0)

    def test_point_mass_is_identity(self):
        point = Pmf(0, np.array([1.0]))
        f = random_pmf(np.random.default_rng(3), 9)
        c = convolve(point, f)
        assert c.offset == f.offset
        assert np.array_equal(c.weights, f.weights)

    def test_small_hand_computed_case(self):
        c = convolve(uniform(2), uniform(3))
        assert c.offset == 2
        assert np.allclose(c.weights, [1 / 6, 1 / 3, 1 / 3, 1 / 6], atol=1e-15)
        assert c.max_weight == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_mass_conserved(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_pmf(rng, int(rng.integers(1, 40)))
            b = random_pmf(rng, int(rng.integers(1, 40)))
            assert abs(convolve(a, b).weights.sum() - 1.0) <= 1e-11

    def test_commutative(self):
        rng = np.random.default_rng(5)
        a, b = random_pmf(rng, 17), random_pmf(rng, 23)
        ab, ba = convolve(a, b), convolve(b, a)
        assert ab.offset == ba.offset
        assert np.allclose(ab.weights, ba.weights, atol=1e-12)

    def test_associative(self):
        rng = np.random.default_rng(7)
        a, b, c = (random_pmf(rng, n) for n in (7, 11, 13))
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert left.offset == right.offset
        assert np.allclose(left.weights, right.weights, atol=1e-12)

    def test_max_does_not_increase(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = random_pmf(rng, int(rng.integers(2, 30)))
            b = random_pmf(rng, int(rng.integers(2, 30)))
            c = convolve(a, b)
            assert c.max_weight <= min(a.max_weight, b.max_weight) + 1e-15

    def test_entropy_power_does_not_decrease(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_pmf(rng, int(rng.integers(2, 30)))
            b = random_pmf(rng, int(rng.integers(2, 30)))
            n_ab = entropy_summary(convolve(a, b)).N_inf
            n_max = max(entropy_summary(a).N_inf, entropy_summary(b).N_inf)
            assert n_ab >= n_max - 1e-12 * n_max

    @pytest.mark.parametrize("l", range(6, 21))
    def test_self_convolution_keeps_uniform_entropy_power(self, l):
        u = uniform(l)
        n_u = entropy_summary(u).N_inf
        n_uu = entropy_summary(convolve(u, u)).N_inf
        assert abs(n_uu - n_u) <= 1e-13 * n_u  # exact identity up to float rounding

    def test_direct_and_transform_agree(self):
        rng = np.random.default_rng(23)
        a = random_pmf(rng, 300)
        b = random_pmf(rng, 260)  # 300*260 > 2^16 forces the transform path
        via_fft = convolve(a, b)
        direct = np.convolve(a.weights, b.weights)
        assert np.allclose(via_fft.weights, direct, atol=1e-12)

    def test_direct_and_transform_agree_large(self):
        rng = np.random.default_rng(29)
        a = random_pmf(rng, 10_000)
        b = random_pmf(rng, 12)
        via_fft = convolve(a, b)
        direct = np.convolve(a.weights, b.weights)
        assert len(via_fft) == 10_011
        assert np.allclose(via_fft.weights, direct, atol=1e-12)

    @pytest.mark.parametrize("sizes", [(257, 256), (256, 257), (DIRECT_LIMIT // 2 + 1, 2),
                                       (1200, 1200), (1200, 55), (101, 1100)])
    def test_transform_matches_fftconvolve_bit_for_bit(self, sizes):
        assert sizes[0] * sizes[1] > DIRECT_LIMIT
        rng = np.random.default_rng(sizes[0] * 7919 + sizes[1])
        self._check_against_fftconvolve(random_pmf(rng, sizes[0]), random_pmf(rng, sizes[1]))

    def test_point_mass_shifts_a_large_support_exactly(self):
        rng = np.random.default_rng(43)
        a = random_pmf(rng, DIRECT_LIMIT + 1)
        for out in (convolve(a, Pmf(4, np.array([1.0]))), convolve(Pmf(4, np.array([1.0])), a)):
            assert out.offset == a.offset + 4
            np.testing.assert_array_equal(out.weights, a.weights)

    def test_transform_matches_fftconvolve_on_random_supports(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 40:
            na, nb = (int(n) for n in rng.integers(100, 1201, size=2))
            if na * nb > DIRECT_LIMIT:
                self._check_against_fftconvolve(random_pmf(rng, na), random_pmf(rng, nb))
                checked += 1

    @staticmethod
    def _check_against_fftconvolve(a, b):
        from scipy.signal import fftconvolve  # test-only oracle

        w = _clean_transform_weights(fftconvolve(a.weights, b.weights))
        start = len(w) - len(np.trim_zeros(w, "f"))
        got = convolve(a, b)
        assert got.offset == a.offset + b.offset + start
        np.testing.assert_array_equal(got.weights, np.trim_zeros(w))

    def test_overflow_cap(self):
        rng = np.random.default_rng(31)
        a = random_pmf(rng, 2**23 + 1)
        with pytest.raises(ConvolutionOverflowError):
            convolve(a, a)  # support would reach 2^24 + 1

    def test_convolve_many_needs_input(self):
        with pytest.raises(DomainError):
            convolve_many([])


def loop_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, by a loop over the powers of 3 and 5: the oracle of ``_next_fast_len``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n or beyond
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def dense(f, lo, hi):
    """The weights of ``f`` on the integers lo..hi-1, zero off its support."""
    out = np.zeros(hi - lo)
    out[f.offset - lo : f.offset - lo + len(f)] = f.weights
    return out


class TestConvolveMany:
    """Sums of several laws: direct steps, then one product of transforms."""

    # the transform's error on a sum of uniform laws, in units of eps times
    # the largest weight; measured up to 3.7 on these tuples
    UNIFORM_BOUND = 8
    # weights of the n-fold transform and of the pairwise fold differ by at
    # most this many ulps of the largest weight; measured up to 9 on random laws
    FOLD_ULPS = 16

    @pytest.mark.parametrize("ls", [(300, 299, 250), (257, 256, 255, 254), (1000, 70, 3),
                                    (300,) * 5, (600, 400, 300, 200, 100, 50, 7)])
    def test_uniform_sums_match_exact_counts(self, ls):
        assert ls[0] * ls[1] > DIRECT_LIMIT  # the first step already transforms
        law = convolve_many([uniform(l) for l in ls])
        exact = uniform_counts(ls) / math.prod(ls)
        assert law.offset == len(ls) and len(law) == len(exact)
        err = np.abs(law.weights - exact).max()
        assert err <= self.UNIFORM_BOUND * np.finfo(float).eps * exact.max()

    def test_a_sum_of_laws_at_the_mass_tolerance_is_a_law(self):
        # each mass is within MASS_TOL of 1, the sum's is 1 + 2.7e-12; a point
        # mass only shifts the sum
        law = heavy_law()
        total = convolve_many([law, uniform(1), law, law])
        assert np.add.reduce(total.weights) - 1.0 > 2 * MASS_TOL
        assert total.offset == 1 and len(total) == 28
        assert total.weights.tobytes() == np.convolve(np.convolve(law.weights, law.weights), law.weights).tobytes()

    def test_matches_the_pairwise_fold(self):
        rng = np.random.default_rng(53)
        transformed = 0
        for _ in range(60):
            laws = [random_pmf(rng, int(n)) for n in rng.integers(2, 700, size=rng.integers(3, 7))]
            many = convolve_many(laws)
            fold = functools.reduce(convolve, laws)
            # clipping at the round-off floor may trim the two supports differently
            lo = min(many.offset, fold.offset)
            hi = max(many.offset + len(many), fold.offset + len(fold))
            diff = np.abs(dense(many, lo, hi) - dense(fold, lo, hi)).max()
            assert diff <= self.FOLD_ULPS * np.spacing(fold.max_weight)
            transformed += len(laws[0]) * len(laws[1]) > DIRECT_LIMIT
        assert transformed > 10

    def test_direct_sums_equal_the_fold_bit_for_bit(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            laws = [random_pmf(rng, int(n)) for n in rng.integers(1, 40, size=rng.integers(2, 6))]
            many, fold = convolve_many(laws), functools.reduce(convolve, laws)
            assert many.offset == fold.offset
            np.testing.assert_array_equal(many.weights, fold.weights)

    def test_point_mass_after_the_switch_shifts_exactly(self):
        rng = np.random.default_rng(61)
        a, b, c = random_pmf(rng, 300), random_pmf(rng, 280), random_pmf(rng, 90)
        assert len(a) * len(b) > DIRECT_LIMIT
        plain = convolve_many([a, b, c])
        for where in range(4):
            laws = [a, b, c]
            laws.insert(where, Pmf(-7, np.array([1.0])))
            shifted = convolve_many(laws)
            assert shifted.offset == plain.offset - 7
            np.testing.assert_array_equal(shifted.weights, plain.weights)

    def test_point_masses_alone(self):
        got = convolve_many([Pmf(3, np.array([1.0])), Pmf(-5, np.array([1.0]))])
        assert got.offset == -2 and got.weights.tolist() == [1.0]

    def test_total_support_over_cap_raises(self):
        # each factor adds 2^16 to the support: all but the last fit under
        # the cap, so only the n-fold total exceeds it
        a = uniform(2**16 + 1)
        count = SUPPORT_CAP // 2**16
        assert (count - 1) * 2**16 + 1 <= SUPPORT_CAP < count * 2**16 + 1
        with pytest.raises(ConvolutionOverflowError):
            convolve_many([a] * count)

    def test_next_fast_len_is_the_least_smooth_length(self):
        assert _FAST_LENS[-1] == SUPPORT_CAP and len(_FAST_LENS) == 836
        assert all(_next_fast_len(n) == loop_fast_len(n) for n in range(1, 5_000))
        rng = np.random.default_rng(71)
        assert all(_next_fast_len(int(n)) == loop_fast_len(int(n))
                   for n in rng.integers(1, SUPPORT_CAP + 1, size=20_000))

    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len  # test-only oracle

        assert all(_next_fast_len(n) == next_fast_len(n, True) for n in range(1, 20_001))
        rng = np.random.default_rng(67)
        assert all(_next_fast_len(int(n)) == next_fast_len(int(n), True)
                   for n in rng.integers(20_001, 2**24 + 1, size=2000))


def fresh_python(code, block_scipy=False):
    """stdout of ``code`` run in a new interpreter on this package's source tree.

    With ``block_scipy`` every scipy import in it fails, as if scipy were
    not installed.
    """
    src = str(Path(lebesgue_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    if block_scipy:
        code = "import sys; sys.modules['scipy'] = None\n" + code
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout


# an expression, for the code given to fresh_python, naming every scipy module loaded
LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestDeferredScipy:
    """No command imports scipy: convolution and the sinc-power tail run on numpy."""

    def test_package_import_loads_no_scipy(self):
        code = f"import sys, lebesgue_lab, lebesgue_lab.cli; print({LOADED_SCIPY})"
        assert fresh_python(code).strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["certify", "--l", "6..12", "--p", "2,2.5,128"],
        ["np-verify", "--l", "6,7"],
        ["epi-check", "--random", "5"],
        ["rogozin", "--random", "5"],
        ["sweep", "--l", "6,64", "--p", "1.01,2,2.5"],
        ["asymptotic", "--l", "6", "--p", "1,2.5"],
        ["lebesgue", "--l", "6,7", "--p", "1,3"],
        ["ball", "--p", "1.01,2,4,130"],
    ], ids=lambda argv: argv[0])
    def test_command_runs_without_scipy(self, argv, tmp_path):
        argv = argv + ["--out", str(tmp_path / "report.json")]
        code = f"from lebesgue_lab import cli\nprint(cli.main({argv!r}))"
        assert fresh_python(code, block_scipy=True).strip() == "0"

    def test_sweep_in_fresh_interpreter_matches_in_process(self, tmp_path):
        from lebesgue_lab import cli

        argv = ["sweep", "--l", "6", "--p", "2.5", "--out"]
        fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
        code = (f"import sys\nfrom lebesgue_lab import cli\ncli.main({argv + [str(fresh)]!r})\n"
                f"print({LOADED_SCIPY}, sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        # the asymptotic column's zeta tail is numpy, and the Gauss pair is written out
        assert fresh_python(code).strip() == "[] []"
        assert cli.main(argv + [str(here)]) == 0
        records = [json.loads(path.read_text())["records"] for path in (fresh, here)]
        assert records[0] == records[1]

    def test_fft_convolve_in_fresh_interpreter_matches_in_process(self):
        rng = np.random.default_rng(47)
        a, b, c = random_pmf(rng, 300), random_pmf(rng, 300), random_pmf(rng, 250)
        assert len(a) * len(b) > DIRECT_LIMIT  # the transform side
        laws = json.dumps([f.to_json_dict() for f in (a, b, c)])
        code = (
            "import json, sys\n"
            "from lebesgue_lab.pmf import Pmf, convolve, convolve_many\n"
            f"a, b, c = map(Pmf.from_json_dict, json.loads({laws!r}))\n"
            f"before = {LOADED_SCIPY}\n"
            "pair, many = convolve(a, b), convolve_many([a, b, c])\n"
            f"print(json.dumps([before, {LOADED_SCIPY}, pair.to_json_dict(), many.to_json_dict()]))\n"
        )
        before, after, pair, many = json.loads(fresh_python(code))
        assert before == after == []
        assert pair == convolve(a, b).to_json_dict()
        assert many == convolve_many([a, b, c]).to_json_dict()

    def test_transform_runs_without_scipy(self):
        ls = (300, 299, 250)
        code = (
            "import json\n"
            "from lebesgue_lab.pmf import convolve_many, uniform\n"
            f"law = convolve_many([uniform(l) for l in {ls!r}])\n"
            "print(json.dumps(law.to_json_dict()))\n"
        )
        got = json.loads(fresh_python(code, block_scipy=True))
        assert got == convolve_many([uniform(l) for l in ls]).to_json_dict()
        exact = uniform_counts(ls) / math.prod(ls)
        bound = TestConvolveMany.UNIFORM_BOUND * np.finfo(float).eps * exact.max()
        assert np.abs(np.asarray(got["weights"]) - exact).max() <= bound


def stored_max_is_exact(f):
    """``f.max_weight`` is the float ``weights.max()`` gives, bit for bit."""
    assert type(f.max_weight) is float
    assert f.max_weight.hex() == float(f.weights.max()).hex(), (f.max_weight, f.weights.max())


def one_transform_per_factor(laws):
    """Oracle: the weights of a transformed sum with one ``rfft`` call per factor, as earlier versions did."""
    factors = [f.weights for f in laws]
    out_len = sum(map(len, factors)) - len(factors) + 1
    n = _next_fast_len(out_len)
    spectrum = np.fft.rfft(factors[0], n)
    for w in factors[1:]:
        spectrum *= np.fft.rfft(w, n)
    return _clean_transform_weights(np.fft.irfft(spectrum, n)[:out_len])


class TestStoredMaximum:
    """A law's maximum is measured once, when its weights are validated."""

    @settings(max_examples=200, deadline=None)
    @given(positive_weight_lists, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=40))
    def test_laws_and_direct_sums(self, raw, offset, l):
        w = np.array(raw)
        f = Pmf(offset, w / w.sum())
        for law in (f, Pmf.from_json_dict(f.to_json_dict()), uniform(l)):
            stored_max_is_exact(law)
        # direct sums, a point mass that only shifts, and point masses alone
        for laws in ([f, uniform(l)], [f, f, f], [uniform(1), f], [f, uniform(1), uniform(l)], [uniform(1)] * 2):
            stored_max_is_exact(convolve_many(laws))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=4))
    def test_transformed_sums(self, seed, count):
        rng = np.random.default_rng(seed)
        laws = [random_pmf(rng, int(n)) for n in rng.integers(257, 700, size=count)]
        assert len(laws[0]) * len(laws[1]) > DIRECT_LIMIT
        stored_max_is_exact(convolve_many(laws))
        stored_max_is_exact(convolve_many([laws[0], uniform(1), *laws[1:]]))

    def test_weight_problems_measures_each_row(self):
        rng = np.random.default_rng(83)
        laws = [random_pmf(rng, int(n)) for n in rng.integers(1, 50, size=30)]
        rows = np.zeros((len(laws), 51))
        for row, f in zip(rows, laws):
            row[: len(f)] = f.weights
        problems, maxima = weight_problems(rows, [len(f) for f in laws])
        assert problems == [None] * len(laws)
        assert [m.hex() for m in maxima] == [f.max_weight.hex() for f in laws]

    def test_max_weight_is_stored_not_computed(self):
        assert "max_weight" in vars(uniform(5))
        assert not isinstance(vars(Pmf).get("max_weight"), property)


class TestBatchedTransform:
    """The transformed factors of a sum go through one batched ``rfft`` per chunk."""

    def test_equals_one_transform_per_factor(self):
        rng = np.random.default_rng(89)
        for _ in range(40):
            laws = [random_pmf(rng, int(n)) for n in rng.integers(260, 900, size=rng.integers(2, 6))]
            assert len(laws[0]) * len(laws[1]) > DIRECT_LIMIT
            expected = one_transform_per_factor(laws)
            start = int(np.flatnonzero(expected)[0])
            got = convolve_many(laws)
            assert got.weights.tobytes() == np.trim_zeros(expected).tobytes()
            assert got.offset == sum(f.offset for f in laws) + start

    @pytest.mark.parametrize("budget", [1, 70_000])
    def test_chunks_give_the_weights_of_one_batch(self, monkeypatch, budget):
        # one byte transforms one factor at a time; 70 kB holds two spectra of
        # these sums (5-smooth lengths near 3,000 to 4,000), so five take three chunks
        rng = np.random.default_rng(97)
        sums = [[random_pmf(rng, int(n)) for n in rng.integers(600, 800, size=5)] for _ in range(6)]
        whole = [convolve_many(laws) for laws in sums]
        monkeypatch.setattr(pmf, "SPECTRA_BUDGET", budget)
        for laws, expected in zip(sums, whole):
            got = convolve_many(laws)
            assert (got.offset, got.weights.tobytes()) == (expected.offset, expected.weights.tobytes())


class TestSerialization:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(37)
        f = random_pmf(rng, 25)
        g = Pmf.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
        assert g.offset == f.offset
        assert np.array_equal(g.weights, f.weights)

    def test_json_shape(self):
        d = json.loads(json.dumps(uniform(3).to_json_dict()))
        assert set(d) == {"offset", "weights"}
        assert d["offset"] == 1 and len(d["weights"]) == 3
