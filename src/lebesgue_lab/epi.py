"""Verification engine for the discrete max-entropy power inequality.

Given independent integer-valued variables X_i whose max probabilities place
them at indices l_i (that is, M(X_i) in (1/(l_i+1), 1/l_i]), the pipeline
being verified is:

  * replacing each X_i by the uniform law on {1, ..., l_i} can only increase
    the maximum of the convolution (checked exactly on small supports);
  * the maximum of the uniform convolution is at most the one-period integral
    of the product of kernel moduli (Fourier inversion); both come from the
    integer counts of the uniform convolution, with no quadrature;
  * when no single index dominates, a Hoelder split with exponents
    p_i = (sum_j l_j^2) / l_i^2 plus the certified norm bound collapses the
    product to the closed form 2 l_min^2 / ((l_min^2 - 1) sum l_i^2);
  * otherwise the dominant uniform alone already carries half the sum.

Together these yield N(sum X_i) >= 1/2 * (l_min - 1)/(l_min + 1) * sum N(X_i)
for l_min >= 6 (floor 5/14), improving to 1/2 * (l_min^2 - 1)/l_min^2 (floor
35/72) when every M(X_i) equals 1/l_i exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, PreconditionError, VerificationError
from .pmf import Pmf, convolve_many, entropy_summary, l_index, uniform, uniform_counts
from .quadrature import (
    DEFAULT_CONFIG,
    KernelSpec,
    QuadratureConfig,
    integrate_kernel_power,
    norm_bound,
    product_kernel_l1,
)

CASE_HOLDER = "holder_split"
CASE_DOMINANT = "single_dominant"

# slack for every inequality assertion; true margins in the tested ranges
# exceed 1e-3, so this only absorbs convolution rounding
EPI_SLACK = 1e-9
ROGOZIN_SLACK = 1e-12

GENERAL_FLOOR = 5.0 / 14.0
EXACT_FLOOR = 35.0 / 72.0

_MAX_SATURATIONS = 50  # water-filling's cap: the rounds of its one-at-a-time form


@dataclass(frozen=True)
class EpiInstance:
    pmfs: tuple[Pmf, ...]
    l_indices: tuple[int, ...]
    l_min: int
    l_max: int
    case: str
    seed: int | None = None


@dataclass(frozen=True)
class HolderChain:
    """Numeric values of the bound chain, weakest member last."""

    ls: tuple[int, ...]
    exponents: tuple[float, ...]
    members: tuple[float, ...]
    labels: tuple[str, ...]
    ok: bool


@dataclass(frozen=True)
class RogozinCheck:
    max_prob: float
    max_prob_uniform: float
    gap: float
    ok: bool


@dataclass(frozen=True)
class EpiReport:
    l_indices: tuple[int, ...]
    l_min: int
    case: str
    lhs: float
    rhs_general: float
    rhs_exact_M: float | None
    floor_general: float
    floor_exact: float
    holds: bool
    asserted: bool


def make_instance(pmfs, seed: int | None = None) -> EpiInstance:
    pmfs = tuple(pmfs)
    if len(pmfs) < 2:
        raise PreconditionError("an instance needs at least two variables")
    ls = tuple(l_index(f) for f in pmfs)
    sum_sq = sum(l * l for l in ls)
    case = CASE_HOLDER if max(ls) ** 2 / sum_sq <= 0.5 else CASE_DOMINANT
    return EpiInstance(
        pmfs=pmfs, l_indices=ls, l_min=min(ls), l_max=max(ls), case=case, seed=seed
    )


def holder_exponents(ls) -> tuple[float, ...]:
    """Dual exponents p_i = (sum_j l_j^2) / l_i^2; all >= 2 in the split case."""
    ls = tuple(int(l) for l in ls)
    s = sum(l * l for l in ls)
    ps = tuple(s / (l * l) for l in ls)
    if min(ps) < 2.0:
        raise PreconditionError(
            f"a single index dominates (min exponent {min(ps)} < 2) for {ls}"
        )
    return ps


def _uniform_max(ls, counts) -> float:
    """Maximum of the uniform convolution: max N_m / prod(ls), correctly rounded."""
    return int(counts.max()) / math.prod(ls)


def holder_bound_chain(ls, cfg: QuadratureConfig = DEFAULT_CONFIG) -> HolderChain:
    """Evaluate every member of the product bound chain and check the ordering.

    Members, in order: the squared maximum of the uniform convolution, the
    squared one-period integral of the kernel product, the Hoelder product of
    norms, the product of certified bounds, and the closed form.  Each must
    be <= the next within 1e-9 relative.
    """
    ls = tuple(int(l) for l in ls)
    if min(ls) < 6:
        raise PreconditionError(f"chain requires every index >= 6, got {ls}")
    ps = holder_exponents(ls)

    counts = uniform_counts(ls)
    m0 = _uniform_max(ls, counts) ** 2
    m1 = product_kernel_l1(ls, counts)[0] ** 2
    m2 = m3 = 1.0
    norms = {}  # equal indices share their exponent, so each is integrated once
    for l, p in zip(ls, ps):
        if l not in norms:
            value, _, converged = integrate_kernel_power(KernelSpec(l), p, cfg)
            if not converged:
                raise VerificationError(f"norm quadrature did not converge at l={l}, p={p}")
            norms[l] = value
        m2 *= norms[l] ** (2.0 / p)
        m3 *= norm_bound(l, p) ** (2.0 / p)
    lmin = min(ls)
    m4 = 2.0 * lmin * lmin / ((lmin * lmin - 1) * sum(l * l for l in ls))

    members = (m0, m1, m2, m3, m4)
    labels = (
        "max_prob_squared",
        "product_l1_squared",
        "holder_norm_product",
        "certified_bound_product",
        "closed_form",
    )
    ok = all(members[i] <= members[i + 1] * (1.0 + 1e-9) for i in range(4))
    chain = HolderChain(ls=ls, exponents=ps, members=members, labels=labels, ok=ok)
    if not ok:
        raise VerificationError(f"bound chain out of order: {chain}")
    return chain


def check_rogozin(instance: EpiInstance) -> RogozinCheck:
    """Check that uniformizing the summands raises the convolution max.

    The uniform side is the chain's first member, exact to the last bit.
    """
    m_actual = convolve_many(instance.pmfs).max_weight
    m_uniform = _uniform_max(instance.l_indices, uniform_counts(instance.l_indices))
    ok = m_actual <= m_uniform + ROGOZIN_SLACK
    check = RogozinCheck(
        max_prob=m_actual, max_prob_uniform=m_uniform, gap=m_uniform - m_actual, ok=ok
    )
    if not ok:
        raise VerificationError(f"uniformization comparison failed: {check}")
    return check


def _all_exact_index(instance: EpiInstance) -> bool:
    return all(
        abs(f.max_weight * l - 1.0) <= 1e-12
        for f, l in zip(instance.pmfs, instance.l_indices)
    )


def check_epi(
    instance: EpiInstance,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    with_chain: bool = True,
) -> EpiReport:
    """Check the entropy power inequality on one instance.

    With l_min >= 6 a violation raises; below that the inequality is not
    claimed and the report is returned without assertion.  In the split case
    the full bound chain is evaluated as well (disable via ``with_chain``
    when only the inequality itself is wanted).
    """
    s = convolve_many(instance.pmfs)
    lhs = entropy_summary(s).N_inf
    sum_n = sum(entropy_summary(f).N_inf for f in instance.pmfs)
    lmin = instance.l_min
    rhs_general = 0.5 * (lmin - 1) / (lmin + 1) * sum_n
    rhs_exact = 0.5 * (lmin * lmin - 1) / (lmin * lmin) * sum_n if _all_exact_index(instance) else None

    holds = lhs >= rhs_general - EPI_SLACK
    if rhs_exact is not None:
        holds = holds and lhs >= rhs_exact - EPI_SLACK

    asserted = lmin >= 6
    if asserted and instance.case == CASE_HOLDER and with_chain:
        holder_bound_chain(instance.l_indices, cfg)

    report = EpiReport(
        l_indices=instance.l_indices,
        l_min=lmin,
        case=instance.case,
        lhs=lhs,
        rhs_general=rhs_general,
        rhs_exact_M=rhs_exact,
        floor_general=GENERAL_FLOOR * sum_n,
        floor_exact=EXACT_FLOOR * sum_n,
        holds=holds,
        asserted=asserted,
    )
    if asserted and not holds:
        raise VerificationError(f"entropy power inequality failed: {report}")
    return report


def _fit_max_into(weights: np.ndarray, target: float) -> np.ndarray:
    """Pin the largest weight to ``target`` and cap the rest below it.

    Water-filling in closed form.  Saturating the largest weights one at a
    time and rescaling the rest never reorders them, so with the values
    sorted once the saturation count k is the least k >= 1 with
    ``w[k] * (1 - k target) / sum(w[k:]) <= target`` (w descending, its
    tail sums accumulated from the smallest value up): the top k weights
    become ``target`` and the others are rescaled once to the remaining
    mass, by the same sum and product as one round of the one-at-a-time
    form (so a single saturation gives its weights bit for bit, and more
    agree to about 2e-15 relative).  Only k <= ``_MAX_SATURATIONS`` is
    tried, the number of saturations the one-at-a-time form allowed, so
    the same inputs fail; an infeasible target (k targets exceed the unit
    mass, or every weight saturates below it) fails too.  The saturated
    weights are the k largest, ties to the lower index.
    """
    w = np.array(weights, dtype=float)
    w /= w.sum()
    n = len(w)
    ascending = np.sort(w)
    m = min(_MAX_SATURATIONS, n - 1)
    # entry k - 1 belongs to k saturated weights: the largest free weight
    # and the mass of the free weights
    top = ascending[-2 : -m - 2 : -1].tolist()
    tails = np.cumsum(ascending)[-2 : -m - 2 : -1].tolist()
    k = n
    for j in range(m):
        if top[j] * ((1.0 - target * (j + 1)) / tails[j]) <= target:
            k = j + 1
            break
    if k > _MAX_SATURATIONS:
        raise GenerationError(f"max adjustment did not settle in {_MAX_SATURATIONS} rounds")
    free_mass = 1.0 - target * k
    if free_mass < 0.0 or (k == n and free_mass != 0.0):
        raise GenerationError("target maximum infeasible for this support size")
    cut = ascending[n - k]
    saturated = w > cut
    saturated[np.flatnonzero(w == cut)[: k - np.count_nonzero(saturated)]] = True
    if k < n:
        free = ~saturated
        w[free] *= free_mass / w[free].sum()
    w[saturated] = target
    return w


def random_pmf(rng: np.random.Generator, l: int) -> Pmf:
    """One random law at index l: support in [l, 4l], max pinned into range."""
    size = int(rng.integers(l, 4 * l + 1))
    if size == l:
        # the only feasible maximum is 1/l itself, i.e. the uniform law
        w = np.full(size, 1.0 / size)
    else:
        lo = max(1.0 / (l + 1), 1.0 / size)
        hi = 1.0 / l
        target = hi - (hi - lo) * float(rng.random())
        w = _fit_max_into(rng.random(size) + 0.05, target)
    f = Pmf(offset=int(rng.integers(-5, 6)), weights=w)
    if l_index(f) != l:
        raise GenerationError(f"generated law landed at index {l_index(f)}, wanted {l}")
    return f


def random_instance(seed: int, n_range=(2, 5), l_range=(6, 30)) -> EpiInstance:
    """Deterministic random instance: n variables with indices in l_range."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    ls = [int(rng.integers(l_range[0], l_range[1] + 1)) for _ in range(n)]
    pmfs = tuple(random_pmf(rng, l) for l in ls)
    return make_instance(pmfs, seed=seed)


def instance_to_json_obj(instance: EpiInstance) -> list[dict]:
    """An instance serializes as a JSON array of pmf objects."""
    return [f.to_json_dict() for f in instance.pmfs]


def instance_from_json_obj(obj, seed: int | None = None) -> EpiInstance:
    return make_instance([Pmf.from_json_dict(d) for d in obj], seed=seed)


def save_instances(path: str, instances) -> None:
    """Write a corpus file: a JSON array of instances, each an array of pmfs."""
    with open(path, "w") as fh:
        json.dump([instance_to_json_obj(inst) for inst in instances], fh)


def load_instances(path: str) -> tuple[EpiInstance, ...]:
    """Read a corpus file; a bare array of pmf objects is a single instance."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise PreconditionError(f"corpus file {path} must hold a nonempty JSON array")
    if isinstance(data[0], dict):  # one instance, flat
        data = [data]
    for entry in data:
        if not isinstance(entry, list) or not all(
            isinstance(d, dict) and type(d.get("offset")) is int and isinstance(d.get("weights"), list)
            for d in entry
        ):
            raise PreconditionError(
                f"corpus file {path}: an instance is not an array of objects "
                "with an integer offset and an array of weights"
            )
    return tuple(instance_from_json_obj(entry) for entry in data)


def _geometric_weights(size: int, ratio: float) -> np.ndarray:
    return ratio ** np.arange(size, dtype=float)


def handcrafted_corpus() -> tuple[EpiInstance, ...]:
    """Twenty fixed instances covering near-extremal and generic shapes.

    The extremizers are uniform laws, so the corpus mixes exact uniforms,
    slightly perturbed uniforms, two-spike laws, and geometric tails, plus
    dominant-index pairs that exercise the non-split case.
    """
    instances = []

    def fitted(raw, l, frac):
        lo, hi = 1.0 / (l + 1), 1.0 / l
        return Pmf(offset=0, weights=_fit_max_into(np.asarray(raw, dtype=float), lo + (hi - lo) * frac))

    # exact uniforms (all-exact-index subset)
    instances.append(make_instance([uniform(6), uniform(6)]))
    instances.append(make_instance([uniform(6), uniform(7)]))
    instances.append(make_instance([uniform(7), uniform(9), uniform(11)]))
    instances.append(make_instance([uniform(6)] * 5))
    instances.append(make_instance([uniform(9), uniform(9), uniform(9)]))
    instances.append(make_instance([uniform(30), uniform(30)]))
    # near-uniform perturbations
    for l, n in ((8, 2), (10, 3), (13, 2)):
        ripple = 1.0 + 0.05 * np.sin(np.arange(2 * l) + 1.0)
        instances.append(make_instance([fitted(ripple, l, 0.5) for _ in range(n)]))
    # two-spike shapes
    for l, size in ((6, 14), (9, 25), (12, 30)):
        raw = np.full(size, 0.1)
        raw[0] = raw[-1] = 1.0
        instances.append(make_instance([fitted(raw, l, 0.9), fitted(raw, l, 0.4)]))
    # geometric tails
    for l, ratio in ((7, 0.7), (11, 0.85), (15, 0.9), (20, 0.95)):
        raw = _geometric_weights(3 * l, ratio)
        instances.append(make_instance([fitted(raw, l, 0.6), fitted(raw[::-1], l, 0.3)]))
    # dominant single index
    instances.append(make_instance([uniform(6), uniform(25)]))
    instances.append(make_instance([uniform(6), uniform(7), uniform(30)]))
    instances.append(make_instance([fitted(np.full(40, 1.0), 10, 0.5), uniform(30)]))
    # mixed five-variable spread
    instances.append(
        make_instance([uniform(6), uniform(12), uniform(18), uniform(24), uniform(30)])
    )
    assert len(instances) == 20
    return tuple(instances)
