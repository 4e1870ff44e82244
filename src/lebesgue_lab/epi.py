"""Verification engine for the discrete max-entropy power inequality.

Given independent integer-valued variables X_i whose max probabilities place
them at indices l_i (that is, M(X_i) in (1/(l_i+1), 1/l_i]), the pipeline
being verified is:

  * replacing each X_i by the uniform law on {1, ..., l_i} can only increase
    the maximum of the convolution (checked exactly on small supports);
  * the maximum of the uniform convolution is at most the one-period integral
    of the product of kernel moduli (Fourier inversion); that maximum is the
    largest count of the uniform convolution, in closed form
    (:func:`~lebesgue_lab.pmf.uniform_max`), over the product of the l_i;
  * when no single index dominates, a Hoelder split with exponents
    p_i = (sum_j l_j^2) / l_i^2 plus the certified norm bound collapses the
    product to the closed form 2 l_min^2 / ((l_min^2 - 1) sum l_i^2); every
    link of that chain is a theorem, so :func:`check_epis` decides it by its
    two ends alone, exactly in integers (:func:`decide_chain`);
  * otherwise the dominant uniform alone already carries half the sum.

Together these yield N(sum X_i) >= 1/2 * (l_min - 1)/(l_min + 1) * sum N(X_i)
for l_min >= 6 (floor 5/14), improving to 1/2 * (l_min^2 - 1)/l_min^2 (floor
35/72) when every M(X_i) equals 1/l_i exactly.

:func:`random_instances` generates a batch in blocks of ``_BLOCK`` seeds,
so its work arrays stay bounded; each seed draws its laws from its own
generator.  In a block of two or more seeds the t-th law of every seed is
generated at once, as a few array passes over padded rows (water-filling,
Pmf's checks, the index); a block of one seed generates its laws one after
another, each on its own weights, which costs less than a wave of one row.
Either way a seed stops at its first law that fails, and
:func:`random_instance` is a batch of one.  Every value is bit-identical to
generating one instance at a time, and the first seed that fails raises the
error it raises alone.  :func:`check_epis` checks the instances one by one;
no quadrature runs on its path, and it reads each maximum, a law's or a
sum's, as it was measured when that law's weights were validated.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GenerationError, PreconditionError, VerificationError
from .kernel import BOUND_MIN_EXPONENT, BOUND_MIN_LENGTH
from .pmf import (
    Pmf,
    convolve_many,
    l_index,
    l_indices_from_max,
    segment_sums,
    uniform,
    uniform_max,
    weight_problems,
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

# instances are generated in blocks of this many seeds, so the padded
# work arrays of a large batch stay bounded
_BLOCK = 256

# the battery's default variable counts and indices, inclusive (generation, suite, CLI)
DEFAULT_N_RANGE = (2, 5)
DEFAULT_L_RANGE = (6, 30)


@dataclass(frozen=True)
class EpiInstance:
    pmfs: tuple[Pmf, ...]
    l_indices: tuple[int, ...]
    l_min: int
    l_max: int
    case: str
    seed: int | None = None


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
    # the exact chain ends (lhs, rhs) of decide_chain, or None where no chain was decided
    chain: tuple[int, int] | None


def make_instance(pmfs, seed: int | None = None) -> EpiInstance:
    pmfs = tuple(pmfs)
    return _classified(pmfs, tuple(l_index(f) for f in pmfs), seed)


def _classified(pmfs: tuple, ls: tuple, seed: int | None) -> EpiInstance:
    """The instance of laws ``pmfs`` at indices ``ls``, with its case."""
    if len(pmfs) < 2:
        raise PreconditionError("an instance needs at least two variables")
    case = CASE_HOLDER if _is_split(ls) else CASE_DOMINANT
    return EpiInstance(pmfs=pmfs, l_indices=ls, l_min=min(ls), l_max=max(ls), case=case, seed=seed)


def _is_split(ls: tuple) -> bool:
    """Whether every exponent p_i = sum_j l_j^2 / l_i^2 reaches the bound's floor, exactly.

    Float forms of the test agree with it only below 2^26: (131836323,
    93222358, 93222358), smallest exponent 2 - 5.8e-17, rounds to 2.0.
    """
    return BOUND_MIN_EXPONENT * max(ls) ** 2 <= sum(l * l for l in ls)


def holder_exponents(ls) -> tuple[float, ...]:
    """Dual exponents p_i = (sum_j l_j^2) / l_i^2; a dominant index (:func:`_is_split`) raises."""
    ls = tuple(int(l) for l in ls)
    s = sum(l * l for l in ls)
    ps = tuple(s / (l * l) for l in ls)
    if not _is_split(ls):
        raise PreconditionError(f"a single index dominates (min exponent {min(ps)} < {BOUND_MIN_EXPONENT}) for {ls}")
    return ps


def decide_chain(ls) -> tuple[int, int]:
    """Decide the bound chain of indices ``ls`` by its two ends, exactly in integers.

    The chain's members are m0 the squared maximum of the uniform
    convolution, m1 the squared one-period integral of the product of kernel
    moduli, m2 the Hoelder product of the kernels' L^(p_i) norms, m3 the
    product of their certified bounds, and m4 the closed form.  Its four
    links are each a theorem when every l_i >= 6 and every exponent
    p_i = sum_j l_j^2 / l_i^2 >= 2 (the split case), the bound's range:

      * m0 <= m1: Fourier inversion and the triangle inequality;
      * m1 <= m2: Hoelder's inequality, since sum 1/p_i = 1;
      * m2 <= m3: the paper's L^p bound, a theorem for every l >= 6 and
        p >= 2 (``np-verify`` proves the single crossing of F - G behind it
        for l = 6..3000 in CI);
      * m3 <= m4: l^2 / (l^2 - 1) decreases in l, and the weights
        l_i^2 / sum l^2 sum to 1.

    The inequality uses only m0 <= m4, decided by the ends alone: with N the
    largest count of the uniform convolution (:func:`uniform_max`, a closed
    form at any index), N^2 (l_min^2 - 1) sum l^2 <= 2 l_min^2 (prod l)^2.
    Returns (lhs, rhs); lhs > rhs raises VerificationError naming ``ls`` and
    both sides.  An index below 6 or a dominant index raises
    PreconditionError; the exponents may be as large as the indices make
    them.
    """
    ls = tuple(int(l) for l in ls)
    if min(ls) < BOUND_MIN_LENGTH:
        raise PreconditionError(f"chain requires every index >= {BOUND_MIN_LENGTH}, got {ls}")
    if not _is_split(ls):
        holder_exponents(ls)  # raises, naming the smallest exponent
    top, lmin = uniform_max(ls), min(ls)
    lhs = top * top * (lmin * lmin - 1) * sum(l * l for l in ls)
    rhs = 2 * lmin * lmin * math.prod(ls) ** 2
    if lhs > rhs:
        raise VerificationError(f"bound chain ends out of order at {ls}: m0 <= m4 fails as {lhs} > {rhs}")
    return lhs, rhs


def check_rogozin(instance: EpiInstance) -> RogozinCheck:
    """Check that uniformizing the summands raises the convolution max (Rogozin's inequality).

    The uniform side is the chain's first member: the largest count of the
    uniform convolution (:func:`uniform_max`) over the product of the
    indices, correctly rounded.  Only the instance's own laws are convolved.
    """
    m_actual = convolve_many(instance.pmfs).max_weight
    m_uniform = uniform_max(instance.l_indices) / math.prod(instance.l_indices)
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


def check_epi(instance: EpiInstance) -> EpiReport:
    """Check the entropy power inequality on one instance.

    With l_min >= 6, the bound's length floor, a violation raises; below it
    the inequality is not claimed and the report is returned without
    assertion.  An asserted split-case instance has its bound chain decided
    exactly (:func:`decide_chain`), and its ends are the report's ``chain``.
    """
    lhs = convolve_many(instance.pmfs).max_weight ** -2
    sum_n = sum(f.max_weight ** -2 for f in instance.pmfs)
    lmin = instance.l_min
    rhs_general = 0.5 * (lmin - 1) / (lmin + 1) * sum_n
    rhs_exact = 0.5 * (lmin * lmin - 1) / (lmin * lmin) * sum_n if _all_exact_index(instance) else None

    holds = lhs >= rhs_general - EPI_SLACK
    if rhs_exact is not None:
        holds = holds and lhs >= rhs_exact - EPI_SLACK

    asserted = lmin >= BOUND_MIN_LENGTH
    chain = decide_chain(instance.l_indices) if asserted and instance.case == CASE_HOLDER else None

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
        chain=chain,
    )
    if asserted and not holds:
        raise VerificationError(f"entropy power inequality failed: {report}")
    return report


def check_epis(instances) -> list[EpiReport]:
    """:func:`check_epi` on each instance, in order.

    The first instance that fails raises its own error, and an error raised
    by ``instances`` itself is raised once the instances before it are
    checked.
    """
    return [check_epi(instance) for instance in instances]


def _fit_max_into(weights: np.ndarray, target: float) -> np.ndarray:
    """Pin the largest weight to ``target`` and cap the rest below it: :func:`_fill` on a copy.

    Generation fills the laws of a one-seed block with :func:`_fill` itself,
    one law after another, and the laws of a larger block in rows
    (:func:`_water_fill`), to the same bits.
    """
    w = np.array(weights, dtype=float)
    problem = _fill(w, target)
    if problem is not None:
        raise GenerationError(problem)
    return w


def _saturations(k: int, target: float, n: int) -> tuple:
    """(k, None) for n weights that saturate k, or (0, why they fail).

    ``k`` is where the saturation test first holds: the least j in
    1..min(_MAX_SATURATIONS, n - 1) with ``top[j] * ((1 - target j) /
    tail[j - 1]) <= target``, or n if there is none, where ``top[j]`` is
    the (j + 1)-th largest weight and ``tail[j - 1]`` the sum of all but the
    j largest.
    """
    if k > _MAX_SATURATIONS:
        return 0, f"max adjustment did not settle in {_MAX_SATURATIONS} rounds"
    free_mass = 1.0 - target * k
    if free_mass < 0.0 or (k == n and free_mass != 0.0):
        return 0, "target maximum infeasible for this support size"
    return k, None


def _fill(w: np.ndarray, target: float) -> str | None:
    """Normalise one law's weights, pin the largest to ``target`` and cap the rest below it.

    ``w`` is filled in place; returns None or why it failed.

    Water-filling in closed form.  Saturating the largest weights one at a
    time and rescaling the rest never reorders them, so with the values
    sorted once the saturation count k is the least k >= 1 with
    ``w[k] * (1 - k target) / sum(w[k:]) <= target`` (w descending, its
    tail sums accumulated from the smallest value up; a loop on Python
    floats, then :func:`_saturations`):
    the top k weights become ``target`` and the others are rescaled once to
    the remaining mass, by the same sum and product as one round of the
    one-at-a-time form (so a single saturation gives its weights bit for
    bit, and more agree to about 2e-15 relative).  Only k <=
    ``_MAX_SATURATIONS`` is tried, the number of saturations the
    one-at-a-time form allowed, so the same inputs fail; an infeasible
    target (k targets exceed the unit mass, or every weight saturates below
    it) fails too.  The saturated weights are the k largest, ties to the
    lower index.  The sums that normalise the weights and rescale the free
    ones are ``ndarray.sum`` of exactly those values.
    """
    n = len(w)
    w /= np.add.reduce(w)
    ascending = np.sort(w)
    m = min(_MAX_SATURATIONS, n - 1)
    # entry j of top is the (j + 1)-th largest value; entry j - 1 of tail
    # is the sum of all but the j largest
    top, tail = ascending[: -m - 2 : -1].tolist(), np.add.accumulate(ascending)[-2 : -m - 2 : -1].tolist()
    k = next((j for j in range(1, m + 1) if top[j] * ((1.0 - target * j) / tail[j - 1]) <= target), n)
    k, problem = _saturations(k, target, n)
    if problem is not None:
        return problem
    # the cut, the k-th largest value, saturates with every value above it,
    # and so do its ties unless one is not among the k largest
    cut = top[k - 1]
    if k < n and top[k] == cut:  # only as many ties as saturations are left, the first ones
        above, tied = w > cut, w == cut
        saturated = above | (tied & (np.cumsum(tied) <= k - np.count_nonzero(above)))
    else:
        saturated = w >= cut
    if k < n:
        w *= (1.0 - target * k) / np.add.reduce(w[~saturated])
    w[saturated] = target
    return None


def _water_fill(rows: np.ndarray, sizes: list, targets: list) -> list:
    """:func:`_fill` on the weights of each row at once.

    Row i holds its weights in its first ``sizes[i]`` entries and zeros
    after them, and every row has at least one zero.  The rows are filled
    in place; returns per row None or why it failed, as :func:`_fill` of
    the row's weights alone, bit for bit.

    The passes over the weights (sorting, the running sums, the comparison
    with the cut, the rescaling) run on all rows at once.  The zeros after a
    row's weights sort first and add exactly 0.0 to its running sums, so in
    every row the (j + 1)-th largest value and the tail sum through it sit
    at column j from the end.  :func:`_fill`'s saturation test runs on
    every row and j at once, each entry by the same float operations.  The
    sums that normalise a row and rescale its free weights are
    ``ndarray.sum`` of that row's own values (:func:`segment_sums`, one
    call for all rows).
    """
    width = rows.shape[1]
    is_weight = np.arange(width) < np.array(sizes)[:, None]
    # ndarray.sum of each row's own weights, then one division; the zeros stay 0
    rows /= segment_sums(rows[is_weight], sizes)[:, None]
    ascending = np.sort(rows, axis=1)
    m = min(_MAX_SATURATIONS, width - 1)
    # column j - 1: each row's (j + 1)-th largest value and the sum of all
    # but its j largest, for j = 1..m; a row of n weights tests j < n only
    # (its tails beyond are 0, so 1.0 stands in for them)
    j = np.arange(1, m + 1)
    inside, t = j < np.array(sizes)[:, None], np.array(targets)[:, None]
    tails = np.where(inside, np.add.accumulate(ascending, axis=1)[:, -2 : -m - 2 : -1], 1.0)
    settles = inside & (ascending[:, -2 : -m - 2 : -1] * ((1.0 - t * j) / tails) <= t)
    firsts = np.where(settles.any(axis=1), settles.argmax(axis=1) + 1, sizes).tolist()
    # per row: the cut, the k-th largest value (a failed row saturates
    # nothing), the count k of saturated weights, and the factor of the free ones
    cuts, counts, scales, problems, split = [], [], [], [], []
    for i, (k, target, n) in enumerate(zip(firsts, targets, sizes)):
        k, problem = _saturations(k, target, n)
        problems.append(problem)
        if problem is None:
            cuts.append(ascending[i, width - k])
            scales.append(1.0 - target * k)
            if k < n and ascending[i, width - k - 1] == cuts[-1]:
                split.append(i)
        else:
            cuts.append(math.inf)
            scales.append(1.0)
        counts.append(k)
    if not any(counts):  # every row failed
        return problems
    saturated = rows >= np.array(cuts)[:, None]
    for i in split:  # only as many ties as saturations are left, the first ones
        above, tied = rows[i] > cuts[i], rows[i] == cuts[i]
        saturated[i] = above | (tied & (np.cumsum(tied) <= counts[i] - np.count_nonzero(above)))
    # every row's free weights, in index order, one row after the other; a
    # row whose every weight saturates has none and keeps its scale
    free = [n - k for n, k in zip(sizes, counts)]
    free_sums = segment_sums(rows[is_weight ^ saturated], free)
    rows *= np.divide(scales, free_sums, out=np.array(scales), where=np.array(free) > 0)[:, None]
    np.copyto(rows, np.array(targets)[:, None], where=saturated)
    return problems


def random_instances(seeds, n_range=DEFAULT_N_RANGE, l_range=DEFAULT_L_RANGE):
    """Deterministic random instances, one per seed, in the order of ``seeds``.

    A generator: iterating it gives ``random_instance(seed, n_range,
    l_range)`` for each seed in turn.  A seed whose instance cannot be
    generated raises there, with the error ``random_instance`` raises, after
    the instances of the seeds before it; a negative seed raises
    DomainError there.  The seeds are taken in blocks of ``_BLOCK``: a
    block of one seed generates its laws one after another, each on its own
    weights (:func:`_instance`), and a larger block in waves of padded rows
    (:func:`_instance_block`), which cost less per law once a few seeds
    share them.  Indices start at 1, and an empty range of indices or of
    variable counts raises DomainError.
    """
    if l_range[0] < 1:
        raise DomainError(f"index range must start at 1 or above, got {tuple(l_range)}")
    for name, (lo, hi) in (("variable count", n_range), ("index", l_range)):
        if lo > hi:
            raise DomainError(f"{name} range {(lo, hi)} is empty")
    seeds = iter(seeds)
    while block := list(itertools.islice(seeds, _BLOCK)):
        if len(block) == 1:
            yield _instance(block[0], n_range, l_range)
            continue
        for outcome in _instance_block(block, n_range, l_range):
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome


def random_instance(seed: int, n_range=DEFAULT_N_RANGE, l_range=DEFAULT_L_RANGE) -> EpiInstance:
    """Deterministic random instance: n variables with indices in l_range.

    Seeded by ``seed`` alone, in the order :func:`_seeded` and :func:`_draw`
    draw; a batch of one, so its laws are generated one after another
    (:func:`_instance`).
    """
    return next(random_instances([seed], n_range, l_range))


def _seeded(seed: int, n_range, l_range) -> tuple:
    """A seed's generator and its indices: it draws n, then the n indices in one call.

    A negative seed raises DomainError (numpy's own error would not name it).
    """
    if seed < 0:
        raise DomainError(f"seed {seed} is negative; seeds must be >= 0")
    rng = np.random.default_rng(seed)
    n = rng.integers(n_range[0], n_range[1] + 1)
    return rng, rng.integers(l_range[0], l_range[1] + 1, size=n).tolist()


def _instance(seed: int, n_range, l_range) -> EpiInstance:
    """The instance of one seed, its laws generated one after another (:func:`_law`).

    It raises at its first law that fails, as :func:`_instance_block` stops there.
    """
    rng, ls = _seeded(seed, n_range, l_range)
    return _classified(tuple(_law(rng, l) for l in ls), tuple(ls), seed)


def _instance_block(seeds: list, n_range, l_range) -> list:
    """The instance of each seed of a block, or the error it raises.

    Each seed draws from its own generator (:func:`_seeded`), then its laws
    in order (:func:`_draw`).  The laws go in waves, the t-th law of every
    seed at once (:func:`_wave`), so a seed stops at its first law that
    fails, as one law at a time does.  The seeds after a negative seed are
    not drawn; its outcome is the DomainError naming it.
    """
    rngs, lss = [], []
    for seed in seeds:
        try:
            rng, ls = _seeded(seed, n_range, l_range)
        except DomainError as exc:
            return [*_instance_block(seeds[: len(rngs)], n_range, l_range), exc]
        rngs.append(rng)
        lss.append(ls)
    laws = [[] for _ in seeds]
    outcomes = [None] * len(seeds)  # a seed's error, once one of its laws fails
    alive, t = list(range(len(seeds))), 0
    while alive := [i for i in alive if outcomes[i] is None and t < len(lss[i])]:
        for i, law in zip(alive, _wave([rngs[i] for i in alive], [lss[i][t] for i in alive])):
            if isinstance(law, Pmf):
                laws[i].append(law)
            else:
                outcomes[i] = law
        t += 1
    for i, seed in enumerate(seeds):
        if outcomes[i] is None:
            try:
                outcomes[i] = _classified(tuple(laws[i]), tuple(lss[i]), seed)
            except PreconditionError as exc:
                outcomes[i] = exc
    return outcomes


def _draw(rng, l: int, w: np.ndarray) -> float | None:
    """Draw the weights of a law at index l into ``w``, of its drawn size in [l, 4l].

    Returns the maximum target its weights are filled to, drawn in range,
    or None for the uniform law (size l, the only law whose maximum can be
    1/l), which is drawn final.  The law's offset is drawn after it.
    """
    size = len(w)
    if size == l:
        w[:] = 1.0 / size
        return None
    lo = max(1.0 / (l + 1), 1.0 / size)
    hi = 1.0 / l
    target = hi - (hi - lo) * float(rng.random())
    np.add(rng.random(out=w), 0.05, out=w)
    return target


def _law(rng, l: int) -> Pmf:
    """One law at index l, drawn and filled on its own weights (:func:`_fill`).

    Pmf's checks (:func:`~lebesgue_lab.pmf.weight_problems`) and the index
    check are :func:`_wave`'s, on one row, and raise the errors it returns.
    """
    w = np.empty(int(rng.integers(l, 4 * l + 1)))
    target = _draw(rng, l, w)
    problem = None if target is None else _fill(w, target)
    offset = int(rng.integers(-5, 6))
    if problem is not None:
        raise GenerationError(problem)
    (problem,), (m,) = weight_problems(w[None], [len(w)])
    if problem is not None:
        raise DomainError(problem)
    if (index := l_indices_from_max([m])[0]) != l:
        raise GenerationError(f"generated law landed at index {index}, wanted {l}")
    w.setflags(write=False)
    return Pmf._checked(offset, w, m)


def _wave(rngs: list, ls: list) -> list:
    """One law per generator, at index ls[i]: each a Pmf, or the error it fails with.

    Each law's weights are drawn by its generator straight into a
    zero-padded row (:func:`_draw`).  Then, over all the rows at once:
    water-filling (:func:`_water_fill`), Pmf's checks
    (:func:`~lebesgue_lab.pmf.weight_problems`) and the index of each law
    (:func:`~lebesgue_lab.pmf.l_indices_from_max`), checked against the
    index it was drawn at.
    """
    sizes = [int(rng.integers(l, 4 * l + 1)) for rng, l in zip(rngs, ls)]
    rows = np.zeros((len(ls), max(sizes) + 1))
    targets, offsets, fit = [], [], []
    for i, (rng, l, size) in enumerate(zip(rngs, ls, sizes)):
        targets.append(_draw(rng, l, rows[i, :size]))
        if targets[-1] is not None:
            fit.append(i)
        offsets.append(int(rng.integers(-5, 6)))
    outcomes = [None] * len(ls)
    if len(fit) == len(ls):
        fit_problems = _water_fill(rows, sizes, targets)
    elif fit:
        filled = rows[fit]
        fit_problems = _water_fill(filled, [sizes[i] for i in fit], [targets[i] for i in fit])
        rows[fit] = filled
    for i, problem in zip(fit, fit_problems if fit else ()):
        if problem is not None:
            outcomes[i] = GenerationError(problem)
    maxima = [None] * len(ls)
    if checked := [i for i, outcome in enumerate(outcomes) if outcome is None]:
        checked_rows = rows if len(checked) == len(ls) else rows[checked]
        for i, problem, m in zip(checked, *weight_problems(checked_rows, [sizes[i] for i in checked])):
            if problem is None:
                maxima[i] = m
            else:
                outcomes[i] = DomainError(problem)
    checked = [i for i, outcome in enumerate(outcomes) if outcome is None]
    for i, index in zip(checked, l_indices_from_max([maxima[i] for i in checked])):
        if index != ls[i]:
            outcomes[i] = GenerationError(f"generated law landed at index {index}, wanted {ls[i]}")
    rows.setflags(write=False)  # law i is a read-only slice of row i
    return [
        Pmf._checked(offsets[i], rows[i, : sizes[i]], maxima[i]) if outcome is None else outcome
        for i, outcome in enumerate(outcomes)
    ]


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
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"corpus file {path} cannot be read: {exc.strerror}") from exc
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
