"""Acceptance battery: each headline criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion; the same battery backs ``lebesgue-lab suite``.
"""

import functools

import pytest

from lebesgue_lab import acceptance
from lebesgue_lab.errors import VerificationError


@functools.cache
def _result(criterion):
    """Each criterion's one run, shared by its own test and the runtime budgets."""
    return criterion()


def _run(criterion):
    result = _result(criterion)
    status = "PASS" if result.ok else "FAIL"
    print(f"{status}  {result.name}: {result.detail} ({result.seconds:.1f}s)")
    assert result.ok, f"{result.name}: {result.detail}"


def test_criterion_01_bound_certification():
    _run(acceptance.criterion_bound_certification)


def test_criterion_02_parseval_identity():
    _run(acceptance.criterion_parseval)


def test_criterion_03_sinc_power_integral():
    _run(acceptance.criterion_ball_integral)


def test_criterion_04_asymptotic_coincidence():
    _run(acceptance.criterion_asymptotics)


def test_criterion_05_sign_change_and_monotone_functional():
    _run(acceptance.criterion_sign_change)


def test_criterion_06_first_arch_domination():
    _run(acceptance.criterion_first_arch_domination)


def test_criterion_07_slope_census():
    _run(acceptance.criterion_slope_census)


def test_criterion_08_entropy_power_suite():
    _run(acceptance.criterion_epi_suite)


def test_criterion_09_uniformization_suite():
    _run(acceptance.criterion_rogozin_suite)


def test_criterion_10_sharpness_witnesses():
    _run(acceptance.criterion_sharpness)


@pytest.mark.parametrize("budget_name,criteria,limit_seconds", [
    ("certification", (acceptance.criterion_bound_certification,), 60.0),
    ("level machinery", (acceptance.criterion_sign_change,), 120.0),
    (
        "entropy power batch",
        (acceptance.criterion_epi_suite, acceptance.criterion_rogozin_suite),
        300.0,
    ),
])
def test_runtime_budgets(budget_name, criteria, limit_seconds):
    total = sum(_result(criterion).seconds for criterion in criteria)
    assert total < limit_seconds, f"{budget_name} took {total:.1f}s"


# each criterion with a library function it calls
CRITERION_DEPENDENCIES = [
    (acceptance.criterion_bound_certification, "certify_bound_grid"),
    (acceptance.criterion_parseval, "integrate_kernel_power_grid"),
    (acceptance.criterion_ball_integral, "ball_integral_grid"),
    (acceptance.criterion_asymptotics, "lp_norm_grid"),
    (acceptance.criterion_sign_change, "detect_sign_changes"),
    (acceptance.criterion_first_arch_domination, "check_first_arch_domination"),
    (acceptance.criterion_slope_census, "check_derivative_bounds_many"),
    (acceptance.criterion_epi_suite, "check_epis"),
    (acceptance.criterion_rogozin_suite, "check_rogozin"),
    (acceptance.criterion_sharpness, "entropy_summary"),
]


@pytest.mark.parametrize(
    "criterion, dependency", CRITERION_DEPENDENCIES, ids=[c.__name__ for c, _ in CRITERION_DEPENDENCIES]
)
def test_verification_error_fails_the_criterion(monkeypatch, criterion, dependency):
    def broken(*args, **kwargs):
        raise VerificationError(f"{dependency} failed")

    monkeypatch.setattr(acceptance, dependency, broken)
    result = criterion()
    assert (result.ok, result.detail) == (False, f"{dependency} failed")
    assert result.seconds >= 0.0


def test_negative_base_of_the_functional_fails_the_sign_change_criterion(monkeypatch):
    # Phi(2) >= 0 is the base case the monotone functional carries to every p >= 2
    functional = acceptance.comparison_functional

    def shifted(spec, p, y0):
        return functional(spec, p, y0) - (1.0 if spec.l == 9 else 0.0)

    monkeypatch.setattr(acceptance, "comparison_functional", shifted)
    result = acceptance.criterion_sign_change()
    assert not result.ok and result.detail.startswith("comparison functional negative at l=9, p=2: -")
