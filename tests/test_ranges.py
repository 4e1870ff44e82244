"""Each range statement and every check that reads it.

The norm bound's range (``kernel.BOUND_MIN_LENGTH``, ``BOUND_MIN_EXPONENT``),
the split case (``epi._is_split``), the slope census's range
(``levelsets.CENSUS_MIN_LENGTH``) and the battery's default ranges
(``epi.DEFAULT_N_RANGE``, ``DEFAULT_L_RANGE``) are each stated once.  These
tests pin every consumer at the edge of its range, with its message.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lebesgue_lab import cli, epi, kernel, levelsets
from lebesgue_lab.epi import CASE_DOMINANT, CASE_HOLDER, check_epi, decide_chain, holder_exponents, make_instance
from lebesgue_lab.errors import PreconditionError, VerificationError
from lebesgue_lab.kernel import KernelSpec
from lebesgue_lab.levelsets import check_derivative_bounds_many, detect_sign_changes
from lebesgue_lab.pmf import uniform
from lebesgue_lab.quadrature import certify_bound_grid, lp_norm_grid, norm_bound

# the largest exponent below 2
BELOW_TWO = 2.0 - 2.0**-52

# x^2 - 2 y^2 = 1, so (x, y, y) is dominant with smallest exponent
# (x^2 + 2 y^2) / x^2 = 2 - 1/x^2, which rounds to 2.0 once x >= 2^26
PELL = (131836323, 93222358, 93222358)
# the largest triples below 2^26 with x^2 - 2 y^2 = 1 (dominant) and = -1 (split)
PELL_BELOW = (22619537, 15994428, 15994428)
NEGATIVE_PELL_BELOW = (54608393, 38613965, 38613965)


def old_float_forms(ls):
    """The two float forms of the split test: ``_classified``'s ratio and ``holder_exponents``' exponent."""
    s = sum(l * l for l in ls)
    return max(ls) ** 2 / s <= 0.5, min(s / (l * l) for l in ls) >= 2.0


class TestTheRange:
    def test_floors(self):
        assert (kernel.BOUND_MIN_LENGTH, kernel.BOUND_MIN_EXPONENT) == (6, 2)
        assert isinstance(kernel.BOUND_MIN_EXPONENT, int)  # the split test multiplies it exactly

    @pytest.mark.parametrize("l, p, problem", [
        (5, 2.0, "l >= 6, got 5"),
        (5, 1.0, "l >= 6, got 5"),
        (6, BELOW_TWO, "p >= 2, got 1.9999999999999998"),
        (6, 2.0, None),
        (6, math.nan, None),
    ])
    def test_bound_range_problem(self, l, p, problem):
        assert kernel.bound_range_problem(l, p) == problem


class TestQuadratureReadsTheRange:
    @pytest.mark.parametrize("pair, message", [
        ((5, 2.0), "certification requires l >= 6, got 5"),
        ((6, BELOW_TWO), "certification requires p >= 2, got 1.9999999999999998"),
    ])
    def test_certification_refuses_below_each_floor(self, pair, message):
        with pytest.raises(PreconditionError) as raised:
            certify_bound_grid([pair])
        assert str(raised.value) == message

    def test_certification_holds_at_the_floors(self):
        (cert,) = certify_bound_grid([(6, 2.0)])
        assert cert.passed and cert.bound == norm_bound(6, 2.0)

    def test_bound_column_at_the_edges(self):
        records = lp_norm_grid([(5, 2.0), (6, BELOW_TWO), (6, 2.0)])
        assert [r.bound for r in records] == [None, None, norm_bound(6, 2.0)]
        assert [r.margin is None for r in records] == [True, True, False]


class TestSplitCase:
    def test_pell_triple_is_dominant(self):
        x, y, _ = PELL
        assert x * x - 2 * y * y == 1
        # both float forms round its smallest exponent, 2 - 5.8e-17, to the split case
        assert old_float_forms(PELL) == (True, True)
        assert not epi._is_split(PELL)
        for check in (holder_exponents, decide_chain):
            with pytest.raises(PreconditionError, match="dominates") as raised:
                check(PELL)
            assert str(raised.value) == f"a single index dominates (min exponent 2.0 < 2) for {PELL}"
        # the laws are not read by the classification; no law at these indices is built
        laws = (uniform(6),) * 3
        assert epi._classified(laws, PELL, None).case == CASE_DOMINANT

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(1, 6 * 10**7 - 1), min_size=2, max_size=5),
        # the largest index at the boundary max^2 = sum of the others' squares, or one off it
        st.tuples(st.lists(st.integers(1, 3 * 10**7), min_size=1, max_size=4), st.integers(-1, 2)).map(
            lambda drawn: [*drawn[0], max(1, math.isqrt(sum(l * l for l in drawn[0])) + drawn[1])]
        ).filter(lambda ls: max(ls) < 6 * 10**7),
    ))
    @example(list(PELL_BELOW))
    @example(list(NEGATIVE_PELL_BELOW))
    @example([6, 6])
    @example([6, 7])
    def test_integer_test_equals_both_float_forms_below_six_times_ten_to_the_seven(self, ls):
        ratio, exponent = old_float_forms(ls)
        assert epi._is_split(tuple(ls)) == ratio == exponent

    def test_the_pell_triples_near_the_float_limit(self):
        assert not epi._is_split(PELL_BELOW) and epi._is_split(NEGATIVE_PELL_BELOW)
        assert old_float_forms(PELL_BELOW) == (False, False)


class TestEpiReadsTheRange:
    def test_chain_refuses_below_the_length_floor(self):
        with pytest.raises(PreconditionError) as raised:
            decide_chain((5, 5))
        assert str(raised.value) == "chain requires every index >= 6, got (5, 5)"
        lhs, rhs = decide_chain((6, 6))
        assert lhs <= rhs

    def test_dominance_message(self):
        with pytest.raises(PreconditionError) as raised:
            holder_exponents((6, 7))
        assert str(raised.value) == "a single index dominates (min exponent 1.7346938775510203 < 2) for (6, 7)"

    def test_assertion_and_chain_start_at_the_length_floor(self):
        below = check_epi(make_instance([uniform(5), uniform(5)]))
        at = check_epi(make_instance([uniform(6), uniform(6)]))
        assert below.case == at.case == CASE_HOLDER
        assert (below.asserted, below.chain) == (False, None)
        assert at.asserted and at.chain == decide_chain((6, 6))

    def test_dominant_instance_decides_no_chain(self):
        report = check_epi(make_instance([uniform(6), uniform(9)]))
        assert report.case == CASE_DOMINANT and report.asserted and report.chain is None


class TestCensusRange:
    def test_floor(self):
        assert levelsets.CENSUS_MIN_LENGTH == 6

    def test_slope_checks_refuse_below_it(self):
        with pytest.raises(PreconditionError) as raised:
            check_derivative_bounds_many(KernelSpec(5), [0.2])
        assert str(raised.value) == "slope checks require l >= 6, got 5"
        # at the floor a level in band 1 is checked
        (check,) = check_derivative_bounds_many(KernelSpec(6), [0.2])
        assert check.ok and check.band == 1

    def test_sign_change_is_asserted_from_it(self, monkeypatch):
        # a margin of 0.5 fails the proof: reported below the floor, raised at it
        monkeypatch.setattr(levelsets, "_band_margin", lambda rising, tg, ends: 0.5)
        (report,) = detect_sign_changes([KernelSpec(5)])
        assert report.margin == 0.5
        with pytest.raises(VerificationError, match="single sign change not proven"):
            detect_sign_changes([KernelSpec(6)])


class TestDefaultRanges:
    def test_ranges(self):
        assert (epi.DEFAULT_N_RANGE, epi.DEFAULT_L_RANGE) == ((2, 5), (6, 30))

    def test_generation_defaults(self):
        for generate in (epi.random_instance, epi.random_instances):
            defaults = generate.__defaults__
            assert defaults == (epi.DEFAULT_N_RANGE, epi.DEFAULT_L_RANGE)

    @pytest.mark.parametrize("command", ["epi-check", "rogozin"])
    def test_cli_defaults(self, command):
        args = cli.build_parser([command]).parse_args([command])
        assert (args.n_min, args.n_max) == epi.DEFAULT_N_RANGE
        assert (args.lmin, args.lmax) == epi.DEFAULT_L_RANGE
