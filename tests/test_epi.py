import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lebesgue_lab import epi, kernel, pmf, quadrature
from lebesgue_lab.epi import (
    CASE_DOMINANT,
    CASE_HOLDER,
    EXACT_FLOOR,
    GENERAL_FLOOR,
    check_epi,
    check_epis,
    check_rogozin,
    decide_chain,
    handcrafted_corpus,
    holder_exponents,
    instance_from_json_obj,
    instance_to_json_obj,
    load_instances,
    make_instance,
    random_instance,
    random_instances,
    _fit_max_into,
    save_instances,
)
from lebesgue_lab.errors import DomainError, GenerationError, PreconditionError, VerificationError
from lebesgue_lab.pmf import Pmf, convolve_many, entropy_summary, l_index, uniform
from lebesgue_lab.quadrature import integrate_kernel_power_grid, norm_bound
from test_pmf import stored_max_is_exact, uniform_counts
from test_quadrature import quadrature_product_l1


class TestHolderExponents:
    def test_equal_pair_is_dual(self):
        assert holder_exponents((6, 6)) == (2.0, 2.0)

    def test_three_way_split(self):
        ps = holder_exponents((6, 8, 10))
        assert ps == pytest.approx((200.0 / 36.0, 3.125, 2.0), rel=1e-15)
        assert sum(1.0 / p for p in ps) == pytest.approx(1.0, abs=1e-12)

    def test_dominant_index_rejected(self):
        with pytest.raises(PreconditionError):
            holder_exponents((6, 20))  # 400/436 > 1/2


def numeric_chain(ls):
    """The bound chain's members m0..m4 of :func:`decide_chain` as floats, weakest last.

    m0 and m4 are the exact ends, correctly rounded; m1 is the squared
    product integral by adaptive quadrature, m2 the Hoelder product of the
    quadrature norms and m3 the product of their certified bounds.
    """
    ls = tuple(ls)
    ps = holder_exponents(ls)
    top, lmin, sum_sq = int(uniform_counts(ls).max()), min(ls), sum(l * l for l in ls)
    m1, _, converged = quadrature_product_l1(ls)
    assert converged, ls
    pairs = list(zip(ls, ps))
    m2 = m3 = 1.0
    for (l, p), (value, _, converged) in zip(pairs, integrate_kernel_power_grid(pairs)):
        assert converged, (l, p)
        m2 *= value ** (2.0 / p)
        m3 *= norm_bound(l, p) ** (2.0 / p)
    return top**2 / math.prod(ls) ** 2, m1**2, m2, m3, 2 * lmin**2 / ((lmin**2 - 1) * sum_sq)


def ordered(chain):
    """Each member is at most the next, within 1e-9 relative."""
    return all(a <= b * (1.0 + 1e-9) for a, b in zip(chain, chain[1:]))


class TestHolderChain:
    def test_equal_pair_collapses_to_closed_form(self):
        chain = numeric_chain((6, 6))
        assert ordered(chain)
        assert chain[3] == pytest.approx(1.0 / 35.0, rel=1e-12)
        assert chain[4] == pytest.approx(1.0 / 35.0, rel=1e-12)
        # the first three members all equal 1/36 for identical factors
        for m in chain[:3]:
            assert m == pytest.approx(1.0 / 36.0, rel=1e-9)

    def test_mixed_sizes_strictly_ordered(self):
        chain = numeric_chain((6, 8, 10))
        assert all(a < b for a, b in zip(chain, chain[1:]))

    def test_four_equal_sevens_closed_form(self):
        chain = numeric_chain((7, 7, 7, 7))
        assert chain[4] == pytest.approx(1.0 / 96.0, rel=1e-15)

    def test_small_index_rejected(self):
        with pytest.raises(PreconditionError):
            decide_chain((5, 5))

    def test_uniform_maximum_matches_float_convolution(self):
        for ls in ((6, 6), (6, 8, 10), (7, 7, 7, 7), (30, 29, 28, 27, 26), (6, 7)):
            if max(ls) ** 2 > 0.5 * sum(l * l for l in ls):
                continue
            m0 = numeric_chain(ls)[0]
            assert m0 == pytest.approx(convolve_many([uniform(l) for l in ls]).max_weight ** 2, rel=1e-14)

    def test_chain_convolves_no_laws(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the chain convolved laws")

        monkeypatch.setattr(epi, "convolve_many", forbidden)
        monkeypatch.setattr(pmf, "convolve", forbidden)
        for ls in ((6, 8, 10), (40, 40, 40)):
            lhs, rhs = decide_chain(ls)
            assert lhs <= rhs

    def test_exponent_sum_is_one(self):
        for ls in ((6, 6), (7, 9, 11), (6, 8, 10, 12)):
            assert sum(1.0 / p for p in holder_exponents(ls)) == pytest.approx(1.0, abs=1e-12)


def _split(ls):
    return 2 * max(ls) ** 2 <= sum(l * l for l in ls)


class TestDecideChain:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(6, 40), min_size=2, max_size=5).filter(_split))
    @example([6, 6])
    @example([30, 30])
    @example([40, 40, 40, 40, 40])
    def test_exact_ends_are_the_numeric_chain_ends(self, ls):
        lhs, rhs = decide_chain(ls)
        assert lhs <= rhs
        top, lmin, sum_sq = int(uniform_counts(ls).max()), min(ls), sum(l * l for l in ls)
        assert lhs == top**2 * (lmin**2 - 1) * sum_sq and rhs == 2 * lmin**2 * math.prod(ls) ** 2
        chain = numeric_chain(ls)
        assert ordered(chain)
        # the numeric chain's ends are the exact sides divided out, correctly rounded
        assert chain[0] == float(Fraction(top**2, math.prod(ls) ** 2))
        assert chain[4] == float(Fraction(2 * lmin**2, (lmin**2 - 1) * sum_sq))

    def test_equal_uniforms_sit_one_over_l_squared_below(self):
        for l in (6, 17, 30):
            lhs, rhs = decide_chain((l, l))
            assert 1 - Fraction(lhs, rhs) == Fraction(1, l * l)

    def test_outside_its_range_it_raises(self):
        with pytest.raises(PreconditionError, match="every index >= 6"):
            decide_chain((5, 6, 6))
        with pytest.raises(PreconditionError, match="dominates"):
            decide_chain((6, 20))

    def test_any_exponent_is_decided(self):
        # the exponent at l = 6 is 500001, far past the range of the kernel-power quadrature
        assert holder_exponents((6, 3000, 3000))[0] == 500001.0
        lhs, rhs = decide_chain((6, 3000, 3000))
        assert lhs <= rhs

    def test_any_index_is_decided(self):
        # its count array would have 2 x 10^6 entries; the closed form reads the centre alone
        lhs, rhs = decide_chain((6, 10**6, 10**6))
        assert lhs <= rhs
        assert lhs == (6 * 10**6 - 9) ** 2 * 35 * (36 + 2 * 10**12)

    @pytest.mark.parametrize("n, count, tightest, margin", [
        (2, 25, (30, 30), Fraction(1, 900)),
        (3, 1198, (6, 30, 30), Fraction(5041, 48000)),
    ])
    def test_every_small_split_case_tuple_holds(self, n, count, tightest, margin):
        margins = {}
        for ls in itertools.combinations_with_replacement(range(6, 31), n):
            if _split(ls):
                lhs, rhs = decide_chain(ls)
                margins[ls] = 1 - Fraction(lhs, rhs)
        assert len(margins) == count
        assert min(margins.values()) == margin > 0
        assert min(margins, key=margins.get) == tightest


class TestRogozin:
    def test_uniform_instance_has_zero_gap(self):
        check = check_rogozin(make_instance([uniform(6), uniform(7), uniform(9)]))
        assert check.gap == 0.0
        assert check.ok

    def test_non_uniform_instance(self):
        x1 = Pmf(0, np.array([0.15, 0.13, 0.12, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]))
        inst = make_instance([x1, uniform(7)])
        assert inst.l_indices == (6, 7)
        check = check_rogozin(inst)
        assert check.ok and check.gap > 0.0

    def test_seeded_random_instance(self):
        assert check_rogozin(random_instance(42)).ok

    @pytest.mark.parametrize(
        "ls",
        # (129,) * 11 has prod / max >= 2^63: the Python-integer counts
        [(6, 7, 9), (300, 299, 250), (129,) * 11],
        ids=["small", "transform", "python-int"],
    )
    def test_uniform_side_is_the_exact_quotient(self, ls):
        check = check_rogozin(make_instance([uniform(l) for l in ls]))
        exact = Fraction(int(uniform_counts(ls).max()), math.prod(ls))
        assert check.max_prob_uniform == float(exact)

    def test_halved_uniform_maximum_fails(self, monkeypatch):
        top = epi.uniform_max
        monkeypatch.setattr(epi, "uniform_max", lambda ls: top(ls) / 2)
        # a sum of uniforms sits at equality, on the direct path and on the transform
        for ls in ((6, 7, 9), (300, 299, 250)):
            inst = make_instance([uniform(l) for l in ls])
            with pytest.raises(VerificationError, match="uniformization comparison failed"):
                check_rogozin(inst)


class TestCheckEpi:
    def test_two_uniform_six(self):
        report = check_epi(make_instance([uniform(6), uniform(6)]))
        assert report.case == CASE_HOLDER
        assert report.lhs == pytest.approx(36.0, rel=1e-12)
        assert report.rhs_exact_M == pytest.approx(35.0, rel=1e-12)
        assert report.floor_exact == pytest.approx(35.0, rel=1e-12)
        assert report.holds and report.asserted

    def test_dominant_pair(self):
        report = check_epi(make_instance([uniform(6), uniform(100)]))
        assert report.case == CASE_DOMINANT
        assert report.lhs >= 10_000.0 * (1 - 1e-12)
        assert report.lhs > 0.5 * (36.0 + 10_000.0)
        assert report.holds

    def test_random_equal_index_pair(self):
        inst = random_instance(7, n_range=(2, 2), l_range=(6, 6))
        assert inst.l_indices == (6, 6)
        assert check_epi(inst).holds

    def test_report_only_below_six(self):
        report = check_epi(make_instance([uniform(4), uniform(5)]))
        assert not report.asserted

    def test_case_classification_boundary(self):
        # equal pair sits exactly on the 1/2 boundary and splits
        assert make_instance([uniform(9), uniform(9)]).case == CASE_HOLDER
        assert make_instance([uniform(9), uniform(13)]).case == CASE_DOMINANT

    def test_floor_constants_at_six(self):
        assert 0.5 * (6 - 1) / (6 + 1) == GENERAL_FLOOR
        assert 0.5 * (6 * 6 - 1) / (6 * 6) == EXACT_FLOOR

    def test_instance_needs_two_variables(self):
        with pytest.raises(PreconditionError):
            make_instance([uniform(6)])


class TestRandomInstance:
    def test_deterministic(self):
        a, b = random_instance(123), random_instance(123)
        assert a.l_indices == b.l_indices
        assert all(
            x.offset == y.offset and np.array_equal(x.weights, y.weights)
            for x, y in zip(a.pmfs, b.pmfs)
        )

    def test_indices_within_range(self):
        for seed in range(50):
            inst = random_instance(seed, n_range=(2, 5), l_range=(6, 30))
            assert 2 <= len(inst.pmfs) <= 5
            assert all(6 <= l <= 30 for l in inst.l_indices)

    def test_point_mass_range(self):
        inst = random_instance(3, n_range=(2, 3), l_range=(1, 1))
        assert all(l == 1 for l in inst.l_indices)
        assert all(f.max_weight > 0.5 for f in inst.pmfs)

    def test_seed_recorded(self):
        assert random_instance(99).seed == 99


class TestHandcraftedCorpus:
    def test_has_twenty_instances(self):
        assert len(handcrafted_corpus()) == 20

    def test_covers_both_cases(self):
        cases = {inst.case for inst in handcrafted_corpus()}
        assert cases == {CASE_HOLDER, CASE_DOMINANT}

    def test_all_pass(self):
        for inst in handcrafted_corpus():
            report = check_epi(inst)
            assert report.holds
            check_rogozin(inst)

    def test_contains_exact_index_instances(self):
        exact = [
            inst
            for inst in handcrafted_corpus()
            if all(abs(f.max_weight * l - 1) <= 1e-12 for f, l in zip(inst.pmfs, inst.l_indices))
        ]
        assert len(exact) >= 5


class TestInstanceSerialization:
    def test_json_obj_round_trip(self):
        inst = random_instance(11)
        again = instance_from_json_obj(instance_to_json_obj(inst))
        assert again.l_indices == inst.l_indices
        assert all(
            x.offset == y.offset and np.array_equal(x.weights, y.weights)
            for x, y in zip(again.pmfs, inst.pmfs)
        )

    def test_corpus_file_round_trip(self, tmp_path):
        path = str(tmp_path / "corpus.json")
        instances = [random_instance(s) for s in range(4)]
        save_instances(path, instances)
        loaded = load_instances(path)
        assert len(loaded) == 4
        assert [i.l_indices for i in loaded] == [i.l_indices for i in instances]

    def test_flat_file_is_one_instance(self, tmp_path):
        import json

        path = str(tmp_path / "one.json")
        inst = make_instance([uniform(6), uniform(8)])
        with open(path, "w") as fh:
            json.dump(instance_to_json_obj(inst), fh)
        loaded = load_instances(path)
        assert len(loaded) == 1 and loaded[0].l_indices == (6, 8)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(PreconditionError):
            load_instances(str(path))


class TestEntropyPowerArithmetic:
    def test_sum_of_uniform_powers(self):
        inst = make_instance([uniform(6), uniform(8)])
        total = sum(entropy_summary(f).N_inf for f in inst.pmfs)
        assert total == pytest.approx(36.0 + 64.0, rel=1e-12)

    def test_constants_increase_with_min_index(self):
        general = [0.5 * (l - 1) / (l + 1) for l in range(6, 65)]
        exact = [0.5 * (l * l - 1) / (l * l) for l in range(6, 65)]
        assert all(a < b for a, b in zip(general, general[1:]))
        assert all(a < b for a, b in zip(exact, exact[1:]))
        assert all(c >= GENERAL_FLOOR for c in general)
        assert all(c >= EXACT_FLOOR for c in exact)
        assert all(c < 0.5 for c in general + exact)


def _fit_max_into_loop(weights, target, rounds=50):
    """Oracle: the one-at-a-time water-filling that ``_fit_max_into`` replaces.

    Saturate the current argmax at the target, rescale the remaining mass,
    and repeat while any free weight pokes above the target.
    """
    w = np.array(weights, dtype=float)
    w /= w.sum()
    saturated = np.zeros(len(w), dtype=bool)
    saturated[int(np.argmax(w))] = True
    for _ in range(rounds):
        w[saturated] = target
        free = ~saturated
        free_mass = 1.0 - target * np.count_nonzero(saturated)
        if free_mass < 0.0 or (free_mass > 0.0 and not np.any(free)):
            raise GenerationError("target maximum infeasible for this support size")
        if np.any(free):
            w[free] *= free_mass / w[free].sum()
        over = free & (w > target)
        if not np.any(over):
            return w
        saturated[int(np.argmax(np.where(free, w, -np.inf)))] = True
    raise GenerationError(f"max adjustment did not settle in {rounds} rounds")


def _fit_max_into_argsort(weights, target, rounds=50):
    """Oracle: the closed form from a stable argsort that ``_fit_max_into`` replaces.

    It sorts indices rather than values and tests every saturation count.
    """
    w = np.array(weights, dtype=float)
    w /= w.sum()
    n = len(w)
    order = np.argsort(-w, kind="stable")
    ws = w[order]
    free_mass = 1.0 - target * np.arange(1, n)
    scale = free_mass / np.cumsum(ws[::-1])[::-1][1:]
    settled = np.flatnonzero(ws[1:] * scale <= target)
    k = int(settled[0]) + 1 if len(settled) else n
    if k > rounds:
        raise GenerationError(f"max adjustment did not settle in {rounds} rounds")
    if k == n:
        if 1.0 - target * n != 0.0:
            raise GenerationError("target maximum infeasible for this support size")
    elif free_mass[k - 1] < 0.0:
        raise GenerationError("target maximum infeasible for this support size")
    else:
        free = np.ones(n, dtype=bool)
        free[order[:k]] = False
        w[free] *= free_mass[k - 1] / w[free].sum()
    w[order[:k]] = target
    return w


def _exact_fit(weights, target, saturated):
    """Each free weight times (1 - k target) / (free mass), in exact rationals.

    ``weights`` are normalised as ``_fit_max_into`` normalises them, and the
    result is rounded once per entry.
    """
    w = np.array(weights, dtype=float)
    w /= w.sum()
    free = [Fraction(float(v)) for v in w[~saturated]]
    scale = (1 - int(saturated.sum()) * Fraction(target)) / sum(free)
    return np.array([float(v * scale) for v in free])


def _outcome(fit, raw, target):
    try:
        return fit(raw, target)
    except GenerationError as exc:
        return str(exc)


@st.composite
def waterfill_inputs(draw):
    """(raw weights, target): random or tied weights, n = 2..1200.

    The target is drawn from an index interval (1/(l+1), 1/l], or is exactly
    1/n (every weight saturates, feasibly), or lies below 1/n (infeasible).
    """
    n = draw(st.integers(min_value=2, max_value=1200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = draw(st.sampled_from([0, 1, 2, 3, 7]))
    raw = rng.random(n) + 0.05 if levels == 0 else rng.integers(1, levels + 1, n).astype(float)
    kind = draw(st.sampled_from(["index", "index", "one_over_n", "below"]))
    if kind == "one_over_n":
        return raw, 1.0 / n
    if kind == "below":
        return raw, draw(st.floats(min_value=0.5, max_value=0.999)) / n
    l = draw(st.integers(min_value=1, max_value=n))
    lo, hi = 1.0 / (l + 1), 1.0 / l
    return raw, hi - (hi - lo) * draw(st.floats(min_value=0.0, max_value=1.0))


def _random_draws(count, seed):
    """(raw, target) as ``random_pmf`` draws them, for l in 6..300."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        l = int(rng.integers(6, 301))
        size = int(rng.integers(l + 1, 4 * l + 1))
        lo, hi = max(1.0 / (l + 1), 1.0 / size), 1.0 / l
        yield rng.random(size) + 0.05, hi - (hi - lo) * float(rng.random())


def _shaped_draws():
    """Tie-heavy inputs and the corpus shapes, over targets across the range."""
    shapes = [(np.full(40, 1.0), 10), (np.full(60, 1.0), 40), (np.full(7, 1.0), 6)]
    for l in (8, 10, 13):
        shapes.append((1.0 + 0.05 * np.sin(np.arange(2 * l) + 1.0), l))
    for l, size in ((6, 14), (9, 25), (12, 30)):
        raw = np.full(size, 0.1)
        raw[0] = raw[-1] = 1.0
        shapes.append((raw, l))
    for l, ratio in ((7, 0.7), (11, 0.85), (15, 0.9), (20, 0.95)):
        raw = ratio ** np.arange(3 * l, dtype=float)
        shapes += [(raw, l), (raw[::-1], l)]
    shapes.append((np.r_[np.full(55, 1.0), np.full(100, 0.5)], 52))
    shapes.append((np.array([1.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0]), 4))
    for raw, l in shapes:
        lo, hi = 1.0 / (l + 1), 1.0 / l
        for frac in (0.0, 0.3, 0.5, 0.9, 1.0):
            yield raw, lo + (hi - lo) * frac
        # below 1/len(raw) every weight saturates: infeasible, or past the cap
        yield raw, 0.9 / len(raw)
        yield raw, 1.0 / len(raw)


WATERFILL_DRAWS = list(_random_draws(1500, seed=20240)) + list(_shaped_draws())

WATERFILL_EDGES = [
    (np.full(40, 1.0), 1.0 / 40),  # all saturate, feasibly
    (np.full(30, 1.0), 0.9 / 30),  # all saturate below the mass
    (np.full(60, 1.0), 1.0 / 60),  # all would saturate, past the cap
    (np.r_[np.full(55, 1.0), np.full(100, 0.5)], 1.0 / 52),  # 52 tied saturate
    (np.r_[np.full(50, 1.0), np.full(100, 0.5)], 1.0 / 120),  # 50: at the cap
    (np.r_[np.full(51, 1.0), np.full(100, 0.5)], 1.0 / 120),  # 51: past it
    (np.array([1.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0]), 0.25),  # ties split at the cut
]


def _with_edges(test):
    for case in reversed(WATERFILL_EDGES):
        test = example(case)(test)
    return test


class TestWaterFilling:
    def test_matches_the_loop(self):
        # one saturation is the same arithmetic as the loop's single round;
        # after k rounds the loop has rounded k rescalings, the closed form one
        failures = set()
        one = many = 0
        for raw, target in WATERFILL_DRAWS:
            expected = _outcome(_fit_max_into_loop, raw, target)
            got = _outcome(_fit_max_into, raw, target)
            if isinstance(expected, str):
                assert got == expected, (len(raw), target)
                failures.add(expected)
                continue
            assert not isinstance(got, str), (len(raw), target, got)
            assert got.max() == target
            if np.count_nonzero(expected == target) == 1:
                one += 1
                np.testing.assert_array_equal(got, expected)
            else:
                many += 1
                np.testing.assert_allclose(got, expected, rtol=2e-15, atol=0.0)
        assert len(failures) == 2 and one > 100 and many > 100

    @settings(max_examples=300, deadline=None)
    @given(waterfill_inputs())
    @_with_edges
    def test_matches_the_argsort_form_bit_for_bit(self, case):
        self._check_against_argsort(*case)

    @pytest.mark.parametrize("height", [1, 3, 40])
    def test_rows_match_one_law_at_a_time(self, height):
        # _water_fill on padded rows of mixed sizes: each row as _fit_max_into on its own weights
        draws = WATERFILL_DRAWS + WATERFILL_EDGES
        for start in range(0, len(draws), height):
            batch = draws[start : start + height]
            sizes = [len(raw) for raw, _ in batch]
            rows = np.zeros((len(batch), max(sizes) + 1))
            for row, (raw, _) in zip(rows, batch):
                row[: len(raw)] = raw
            problems = epi._water_fill(rows, sizes, [target for _, target in batch])
            for row, problem, (raw, target) in zip(rows, problems, batch):
                expected = _outcome(_fit_max_into, raw, target)
                if isinstance(expected, str):
                    assert problem == expected, (len(raw), target)
                else:
                    assert problem is None, (len(raw), target, problem)
                    assert row[: len(raw)].tobytes() == expected.tobytes(), (len(raw), target)
                    assert not row[len(raw) :].any()

    def test_argsort_form_on_the_shared_draws(self):
        outcomes = set()
        for raw, target in WATERFILL_DRAWS:
            got = self._check_against_argsort(raw, target)
            outcomes.add(got if isinstance(got, str) else np.count_nonzero(got == target) > 1)
        assert len(outcomes) == 4  # both failures, one and several saturations

    @staticmethod
    def _check_against_argsort(raw, target):
        """The outcome of ``_fit_max_into``, checked hex-equal to the argsort form's."""
        expected = _outcome(_fit_max_into_argsort, raw, target)
        got = _outcome(_fit_max_into, raw, target)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str), got
            assert got.tobytes() == expected.tobytes()
        return got

    def test_weights_within_four_ulps_of_exact(self):
        for raw, target in WATERFILL_DRAWS[::15]:
            try:
                got = _fit_max_into(raw, target)
            except GenerationError:
                continue
            saturated = got == target
            exact = _exact_fit(raw, target, saturated)
            assert np.all(np.abs(got[~saturated] - exact) <= 4 * np.spacing(exact))

    def test_random_instance_matches_the_loop(self):
        def instances(generate, l_range):
            out = []
            for seed in range(150):
                try:
                    out.append(generate(seed, l_range=l_range))
                except GenerationError as exc:
                    out.append(str(exc))
            return out

        for l_range in ((6, 30), (100, 300)):
            ours = instances(random_instance, l_range)
            theirs = instances(functools.partial(scalar_random_instance, fit=_fit_max_into_loop), l_range)
            for a, b in zip(ours, theirs):
                if isinstance(b, str):
                    assert a == b
                    continue
                assert a.l_indices == b.l_indices
                assert [f.offset for f in a.pmfs] == [f.offset for f in b.pmfs]
            if l_range == (100, 300):
                assert any(isinstance(b, str) for b in theirs)


def scalar_random_pmf(rng, l, fit=_fit_max_into_argsort):
    """Oracle: one random law at index l, drawn and fitted on its own.

    The law-at-a-time generation that :func:`random_instances` batches; its
    default fit, the argsort closed form, is the water-filling of earlier
    versions bit for bit (``TestWaterFilling``).
    """
    size = int(rng.integers(l, 4 * l + 1))
    if size == l:
        w = np.full(size, 1.0 / size)
    else:
        lo = max(1.0 / (l + 1), 1.0 / size)
        hi = 1.0 / l
        target = hi - (hi - lo) * float(rng.random())
        w = fit(rng.random(size) + 0.05, target)
    f = Pmf(offset=int(rng.integers(-5, 6)), weights=w)
    if l_index(f) != l:
        raise GenerationError(f"generated law landed at index {l_index(f)}, wanted {l}")
    return f


def scalar_random_instance(seed, n_range=(2, 5), l_range=(6, 30), fit=_fit_max_into_argsort):
    """Oracle: ``random_instance`` one law at a time, stopping at the first that fails."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    ls = [int(rng.integers(l_range[0], l_range[1] + 1)) for _ in range(n)]
    return make_instance([scalar_random_pmf(rng, l, fit) for l in ls], seed=seed)


def _laws(instance):
    return instance.l_indices, [(f.offset, f.weights.tobytes()) for f in instance.pmfs]


def _outcome_of(generate, *args, **kwargs):
    try:
        return _laws(generate(*args, **kwargs))
    except GenerationError as exc:
        return str(exc)


class TestBatchGeneration:
    def test_matches_the_scalar_oracle_on_the_suite_seeds(self):
        # the acceptance batch, seeds 0..9999 at l in 6..30: weights and offsets bit for bit
        from lebesgue_lab.acceptance import EPI_SEEDS, _epi_instances

        batch = _epi_instances()
        assert len(batch) == len(EPI_SEEDS) == 10_000
        for seed, instance in zip(EPI_SEEDS, batch):
            assert instance.seed == seed
            assert _laws(instance) == _laws(scalar_random_instance(seed)), seed

    @pytest.mark.parametrize("l_range", [epi.DEFAULT_L_RANGE, (100, 300)], ids=["l6-30", "l100-300"])
    def test_indices_are_drawn_as_one_draw_each(self, l_range):
        # one call of size n draws the n indices that n scalar calls would, and
        # leaves the generator where they would
        lo, hi = epi.DEFAULT_N_RANGE
        for seed in range(10_000):
            rng, ls = epi._seeded(seed, epi.DEFAULT_N_RANGE, l_range)
            oracle = np.random.default_rng(seed)
            n = int(oracle.integers(lo, hi + 1))
            assert ls == [int(oracle.integers(l_range[0], l_range[1] + 1)) for _ in range(n)], seed
            assert all(type(l) is int for l in ls) and rng.random() == oracle.random(), seed

    def test_wide_failures_match_the_scalar_oracle(self):
        # at l in 100..300 most seeds fail: the same seeds, with the same messages
        seeds = range(400)
        expected = [_outcome_of(scalar_random_instance, s, l_range=(100, 300)) for s in seeds]
        got = [_outcome_of(random_instance, s, l_range=(100, 300)) for s in seeds]
        assert got == expected
        assert 100 < sum(isinstance(e, str) for e in expected) < 400

    def test_a_block_raises_at_the_first_failing_seed(self):
        expected = [_outcome_of(scalar_random_instance, s, l_range=(100, 300)) for s in range(60)]
        failing = [s for s, e in enumerate(expected) if isinstance(e, str)]
        start = 0
        for stop in failing[:5]:
            batch = random_instances(range(start, 60), l_range=(100, 300))
            for s in range(start, stop):
                assert _laws(next(batch)) == expected[s]
            with pytest.raises(GenerationError) as exc:
                next(batch)
            assert str(exc.value) == expected[stop]
            start = stop + 1

    @pytest.mark.parametrize("l_range", [(6, 30), (100, 300)], ids=["l6-30", "l100-300"])
    def test_blocks_split_nowhere_visible(self, monkeypatch, l_range):
        def batch():
            # every seed's outcome, resuming after each seed that fails
            outcomes = []
            while len(outcomes) < len(seeds):
                instances = random_instances(seeds[len(outcomes) :], l_range=l_range)
                for _ in seeds[len(outcomes) :]:
                    outcomes.append(_outcome_of(next, instances))
                    if isinstance(outcomes[-1], str):
                        break
            return outcomes

        seeds = list(range(40))
        whole = batch()
        assert (l_range == (100, 300)) == any(isinstance(o, str) for o in whole)
        monkeypatch.setattr(epi, "_BLOCK", 7)
        assert batch() == whole
        # a block of one seed generates law by law, never in waves
        monkeypatch.setattr(epi, "_BLOCK", 1)
        monkeypatch.setattr(epi, "_wave", None)
        assert batch() == whole
        assert [_outcome_of(random_instance, s, l_range=l_range) for s in seeds] == whole

    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_a_negative_seed_raises_there(self, monkeypatch, block):
        # not numpy's bare "expected non-negative integer": the seed is named,
        # after the instances before it
        monkeypatch.setattr(epi, "_BLOCK", block)
        instances = random_instances([3, 4, -3, 5])
        assert [_laws(next(instances)) for _ in range(2)] == [_laws(random_instance(s)) for s in (3, 4)]
        with pytest.raises(DomainError, match=re.escape("seed -3 is negative")):
            next(instances)
        with pytest.raises(DomainError, match=re.escape("seed -1 is negative")):
            random_instance(-1)
        # a seed that fails before it raises its own error first
        with pytest.raises(GenerationError):
            list(random_instances([0, -1], l_range=(100, 300)))

    @pytest.mark.parametrize(
        "ranges, named",
        [({"n_range": (3, 2)}, "variable count range (3, 2)"), ({"l_range": (40, 10)}, "index range (40, 10)")],
        ids=["variables", "indices"],
    )
    def test_an_empty_range_raises(self, ranges, named):
        # not numpy's bare "low >= high", and before any seed is drawn
        for seeds in (range(3), []):
            with pytest.raises(DomainError, match=re.escape(f"{named} is empty")):
                next(random_instances(seeds, **ranges))
        with pytest.raises(DomainError, match=re.escape(named)):
            random_instance(0, **ranges)

    def test_index_range_starts_at_one(self):
        with pytest.raises(DomainError):
            random_instance(0, l_range=(0, 3))
        assert next(random_instances([], l_range=(6, 30)), None) is None

    def test_two_variables_needed_at_that_seed(self):
        # n_range (1, 2): the seeds that draw one variable fail, the others generate
        outcomes = []
        for seed in range(20):
            try:
                outcomes.append(len(random_instance(seed, n_range=(1, 2)).pmfs))
            except PreconditionError:
                outcomes.append(1)
        assert set(outcomes) == {1, 2}


class MaximumSpy(np.ndarray):
    """Weights that log every maximum taken over them: ``ndarray.max``, ``np.max`` and ``np.maximum.reduce``."""

    scans = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.maximum and method != "__call__":
            MaximumSpy.scans.append(method)
        plain = tuple(x.view(np.ndarray) if isinstance(x, MaximumSpy) else x for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


def generated(block, l_range, seeds):
    """Every instance of ``seeds`` that generates, in blocks of ``block`` seeds (1: law by law, else in waves)."""
    out = []
    for start in range(0, len(seeds), block):
        part = seeds[start : start + block]
        if block == 1:
            try:
                outcomes = [epi._instance(part[0], epi.DEFAULT_N_RANGE, l_range)]
            except GenerationError:
                outcomes = []
        else:
            outcomes = epi._instance_block(part, epi.DEFAULT_N_RANGE, l_range)
        out += [o for o in outcomes if isinstance(o, epi.EpiInstance)]
    return out


class TestStoredMaximum:
    """Every law and sum the battery builds carries its weights' maximum, measured once."""

    @pytest.mark.parametrize("l_range", [(6, 30), (100, 300)], ids=["l6-30", "l100-300"])
    @pytest.mark.parametrize("block", [1, 40])
    def test_generated_laws_and_their_sums(self, block, l_range):
        instances = generated(block, l_range, list(range(80)))
        assert len(instances) >= 20
        for inst in instances:
            for f in (*inst.pmfs, convolve_many(inst.pmfs)):
                stored_max_is_exact(f)

    def test_corpus_laws_and_their_sums(self):
        for inst in handcrafted_corpus():
            for f in (*inst.pmfs, convolve_many(inst.pmfs)):
                stored_max_is_exact(f)

    def test_the_checks_scan_no_law_for_its_maximum(self):
        wide = generated(40, (100, 300), list(range(20)))[:3]  # sums through the transform
        instances = [*random_instances(range(40)), *handcrafted_corpus(), *wide]
        spied = [make_instance([Pmf._checked(f.offset, f.weights.view(MaximumSpy), f.max_weight) for f in inst.pmfs])
                 for inst in instances]
        MaximumSpy.scans.clear()
        reports, checks = check_epis(spied), [check_rogozin(inst) for inst in spied]
        assert MaximumSpy.scans == []
        assert reports == check_epis(instances) and checks == [check_rogozin(inst) for inst in instances]
        spied[0].pmfs[0].weights.max()  # the spy sees a scan
        assert MaximumSpy.scans == ["reduce"]


class TestCheckEpis:
    def test_batch_reports_match_one_at_a_time(self):
        instances = [*random_instances(range(300)), *handcrafted_corpus()]
        assert check_epis(instances) == [check_epi(inst) for inst in instances]

    def test_runs_no_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("check_epis ran quadrature")

        # epi holds nothing of the quadrature module
        assert [name for name, obj in vars(epi).items()
                if obj is quadrature or getattr(obj, "__module__", None) == quadrature.__name__] == []
        monkeypatch.setattr(quadrature, "integrate_kernel_power_grid", forbidden)
        monkeypatch.setattr(quadrature, "kernel_values", forbidden)
        monkeypatch.setattr(kernel, "kernel_values", forbidden)
        instances = [*random_instances(range(40)), *handcrafted_corpus()]
        assert sum(inst.case == CASE_HOLDER for inst in instances) >= 20
        assert all(report.holds for report in check_epis(instances))

    def test_doubled_counts_fail_the_first_split_case_instance(self, monkeypatch):
        # seeds 2 and 3 draw a dominant index, seed 4 is the first split case
        instances = list(random_instances(range(2, 12)))
        assert [inst.case for inst in instances[:3]] == [CASE_DOMINANT, CASE_DOMINANT, CASE_HOLDER]
        top = epi.uniform_max
        monkeypatch.setattr(epi, "uniform_max", lambda ls: 2 * top(ls))
        with pytest.raises(VerificationError, match="bound chain ends out of order") as alone:
            check_epi(instances[2])
        assert str(instances[2].l_indices) in str(alone.value)
        with pytest.raises(VerificationError) as batch:
            check_epis(instances)
        assert str(batch.value) == str(alone.value)

    def test_first_failing_instance_raises_its_own_error(self, monkeypatch):
        instances = [make_instance([uniform(4), uniform(5)]), *random_instances(range(5))]
        monkeypatch.setattr(epi, "EPI_SLACK", -1e300)  # every asserted inequality fails
        with pytest.raises(VerificationError) as alone:
            check_epi(instances[1])
        with pytest.raises(VerificationError) as batch:
            check_epis(instances)
        assert str(batch.value) == str(alone.value)

    def test_an_exponent_above_the_cap_comes_after_the_instances_before_it(self, monkeypatch):
        # its exponent at l = 6 is 500001, above the kernel-power quadrature's
        # MAX_EXPONENT, which the exact decision does not need: it is decided
        wide = make_instance([uniform(6), uniform(3000), uniform(3000)])
        assert wide.case == CASE_HOLDER
        batch = [make_instance([uniform(6), uniform(7)]), wide, make_instance([uniform(6)] * 3)]
        reports = check_epis(batch)
        assert reports == [check_epi(inst) for inst in batch]
        assert reports[1].holds and reports[1].chain == decide_chain(wide.l_indices)
        lhs, rhs = reports[1].chain
        assert lhs <= rhs
        # an instance before it that fails raises first
        monkeypatch.setattr(epi, "EPI_SLACK", -1e300)
        with pytest.raises(VerificationError) as alone:
            check_epi(batch[0])
        with pytest.raises(VerificationError) as first:
            check_epis(batch)
        assert str(first.value) == str(alone.value)

    def test_an_error_from_the_instances_comes_after_the_ones_before_it(self, monkeypatch):
        def instances():
            yield from random_instances(range(3))
            raise GenerationError("no fourth instance")

        with pytest.raises(GenerationError, match="no fourth"):
            check_epis(instances())
        # an instance before it that fails raises first
        monkeypatch.setattr(epi, "EPI_SLACK", -1e300)
        with pytest.raises(VerificationError):
            check_epis(instances())
