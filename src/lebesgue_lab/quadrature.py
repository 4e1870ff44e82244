"""Adaptive quadrature for kernel powers, the sinc-power integral, and bounds.

Each integrand is integrated over its natural partition (the arches between
kernel zeros) with a nested 15/31-point Gauss pair per subinterval; the local
error estimate is |I31 - I15| and the interval with the worst estimate is
bisected first.  Between zeros every integrand here is analytic, so the pair
converges almost immediately and the error estimate is conservative.  The
pair's nodes and weights are written out as the floats numpy's ``leggauss``
returns (``_X15``, ``_W15``, ``_X31``, ``_W31``), so no call solves its
eigenproblem or imports ``numpy.polynomial``.

The sinc-power integral over the real line is split at a moderate multiple of
pi; the infinite remainder is folded into a single finite integral through the
Hurwitz zeta function, so no large truncation ever has to be swept.  That
zeta (:func:`_hurwitz_zeta`) is Cephes' method on numpy: ten terms summed
directly, then an Euler-Maclaurin expansion whose coefficients are worked
out once per exponent.  So the whole package runs on numpy alone.

:func:`ball_half_grid` is the one engine for the sinc-power integral, over
any exponents.  |sinc| is evaluated once at the head's first-pass abscissae,
and sin t and 16 + t/pi once at the tail's; each exponent raises them to its
p and takes its own zeta, and the first passes of all exponents are one
stacked pair-sum product per integral.  Each exponent's head and tail then
go through :func:`_refine`, whose rounds evaluate that exponent's own
integrand, so each value is float.hex-identical to the exponent integrated
alone.  A call integrates each of its distinct exponents once; nothing is
kept across calls.  The batch returns each exponent's value or error;
:func:`ball_half`, :func:`ball_integral_grid` and the asymptotic column of
:func:`lp_norm_grid` raise the first error in the order a loop of scalar
calls would.

The exponent p never moves a first-pass node: it only decides how many arches
are kept, and the dropped ones are a suffix, found by bisection.  So a call
builds one table of g per length, at the 15/31 nodes of the longest arch
prefix its exponents keep, and each exponent raises a slice of it to p.  The
table (``_kernel_table``) is g at the ideal nodes in closed form, from a
bounded per-length cache (``_arch_record``), to 6e-16 relative against
mpmath; g at the float nodes is off by up to 1.9e-11 at l = 1000.  Only a
bisected piece evaluates g again (:func:`kernel_values`).

Across calls only finished integrals are kept: ``_integrals(l, cfg)`` is an
``lru_cache`` of 256 (length, tolerances) entries, each a dict {p: (value,
error, converged)} of at most 64 exponents, about 2.8 MB when full.  A call
integrates only the pairs not stored, so a command after another over the
same (l, p) and tolerances in one process (``certify`` then ``sweep``)
integrates nothing again; two CLI processes share nothing.

The split loop (:func:`_refine`) is the globally adaptive one of QUADPACK:
pop the piece with the largest error, bisect it, push its halves.  It is a
generator of rounds: it yields the pieces it is certain to bisect before it
can stop (each such piece and those after it in heap order carry more error
than the tolerance allows), is sent their halves, and then applies the
bisections one at a time in its own heap order.  So every value, error and
flag is that of one evaluation per bisection, bit for bit, and no half is
evaluated that the loop does not use unless the subdivision budget runs out
first.  :func:`_rounds` evaluates the rounds of one integrand, one call
each.

:func:`integrate_kernel_power_grid` is the one engine for g^p, over (l, p)
pairs of any lengths: per length, one node table at the longest kept prefix
serves every p and an array stop test finishes the exponents that converge
on their first pass; the split loops of all lengths then run in lockstep,
each round evaluating g once, with the length of each point, at the union
of the halves they ask for.  A batch runs in chunks of lengths whose pairs
keep at most ``_CHUNK_ARCHES`` arches in all, and raises the error of its
first failing pair, as a loop over its pairs would; each result is
float.hex-identical to the pair's integral on its own.  The records of
:func:`lp_norm_grid` and :func:`certify_bound_grid` are built on it, and
the forms at one pair (:func:`integrate_kernel_power`, :func:`lp_norm`,
:func:`certify_bound`) are grid calls of one pair.

Every power is the plain ``values ** p``, at every p: libm ``pow`` is within
an ulp, and a power that underflows is simply 0.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PreconditionError, VerificationError
from .kernel import PI, KernelSpec, bound_range_problem, kernel_values


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the adaptive integrator."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 10_000

    def __post_init__(self):
        if not (self.abs_tol >= 1e-15 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be finite and >= 1e-15, got {self.abs_tol}")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not 1 <= self.max_subdivisions <= 10**6:
            raise DomainError(f"max_subdivisions outside [1, 1e6]: {self.max_subdivisions}")


DEFAULT_CONFIG = QuadratureConfig()

# The largest exponent integrated.  Against the Laplace limit
# sqrt(6/(pi p (l^2-1))) with its 1/p term, g^p at l in {6, 64, 1000, 10^4}
# stays within its tolerance through p = 1e5, at the default tolerances and
# at abs_tol 1e-9 / rel_tol 1e-8; the first miss is 3% at p = 3.2e5 (l = 10^4,
# the looser tolerances).  So the range is verified for l <= 10^4 only: at
# l = 10^5, 1e-9 / 1e-8, p = 1.905e4 comes out 2.6% low and is flagged
# converged, because the 15/31 estimate is not a bound.  From about p = 2e6
# the first pass no longer sees the arch-0 peak: both Gauss estimates are
# near 0, and a value collapsed by orders of magnitude passes as converged.
# The sinc power collapses alike.
MAX_EXPONENT = 1e5


@dataclass(frozen=True)
class LpNormResult:
    """A computed kernel norm with its certified bound and asymptotic anchor."""

    l: int
    p: float
    value: float
    bound: float | None
    asymptotic: float
    error_estimate: float
    converged: bool
    margin: float | None  # bound - value, where the bound applies
    ratio: float  # value / asymptotic


@dataclass(frozen=True)
class BoundCertificate:
    l: int
    p: float
    value: float
    bound: float
    margin: float
    error_estimate: float
    passed: bool


# The nested 15/31-point Gauss-Legendre pair on [-1, 1]: the values
# numpy.polynomial.legendre.leggauss(15) and (31) return under numpy 2.4,
# written out, so that no call solves its eigenproblem or imports
# numpy.polynomial.  Against 50 digits the nodes are within an ulp, the
# 15-point weights within 40 ulps and the 31-point weights within 2,500 ulps
# (5e-13 relative); correctly rounded weights would move every integral's
# last bits.
_X15 = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_W15 = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
_X31 = np.array([
    -0.997087481819477, -0.9846859096651525, -0.9625039250929497,
    -0.9307569978966481, -0.8897600299482711, -0.8399203201462674,
    -0.781733148416625, -0.7157767845868533, -0.6427067229242603,
    -0.5632491614071492, -0.4781937820449025, -0.38838590160823294,
    -0.29471806998170164, -0.19812119933557062, -0.09955531215234152,
    0.0, 0.09955531215234152, 0.19812119933557062,
    0.29471806998170164, 0.38838590160823294, 0.4781937820449025,
    0.5632491614071492, 0.6427067229242603, 0.7157767845868533,
    0.781733148416625, 0.8399203201462674, 0.8897600299482711,
    0.9307569978966481, 0.9625039250929497, 0.9846859096651525,
    0.997087481819477,
])
_W31 = np.array([
    0.00747083157925088, 0.017318620790311608, 0.027009019184978878,
    0.03643227391238576, 0.04549370752720094, 0.05410308242491654,
    0.06217478656102821, 0.06962858323541009, 0.07639038659877635,
    0.08239299176158914, 0.08757674060847759, 0.09189011389364123,
    0.09529024291231925, 0.09774333538632848, 0.09922501122667202,
    0.0997205447934261, 0.09922501122667202, 0.09774333538632848,
    0.09529024291231925, 0.09189011389364123, 0.08757674060847759,
    0.08239299176158914, 0.07639038659877635, 0.06962858323541009,
    0.06217478656102821, 0.05410308242491654, 0.04549370752720094,
    0.03643227391238576, 0.027009019184978878, 0.017318620790311608,
    0.00747083157925088,
])


def _pair_abscissae(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 15-node abscissae of every interval (a, b), then the 31-node ones.

    ``a`` and ``b`` may have any shape; each half lists the intervals in
    their C order, with the node index last.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return np.concatenate([(mid[..., None] + half[..., None] * x).ravel() for x in (_X15, _X31)])


def _pair_sums(f: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(I31, |I31 - I15|), shaped like ``a``, from values ``f`` at ``_pair_abscissae(a, b)``.

    Each half of ``f`` is reshaped in place to ``a.shape + (15,)`` and
    ``a.shape + (31,)``, so the two weight products read contiguous blocks.
    The shape decides the BLAS calls: an (n, m) block is one matrix-vector
    product, a stacked (k, 2, m) block is k products of (2, m).  Rows of the
    two can differ in their last bits, so the two halves of a bisected piece
    are always one (2, m) product, however many pieces are bisected with it.
    """
    n = a.size
    half = 0.5 * (b - a)
    i15 = half * (f[: 15 * n].reshape(*a.shape, 15) @ _W15)
    i31 = half * (f[15 * n :].reshape(*a.shape, 31) @ _W31)
    return i31, np.abs(i31 - i15)


def _pair_eval(fn, a: np.ndarray, b: np.ndarray):
    """The 15/31 pair on a batch of intervals, with one call of ``fn``."""
    return _pair_sums(fn(_pair_abscissae(a, b)), a, b)


def _rounds(loop, fn):
    """The result of a :func:`_refine` loop whose rounds are evaluated with one call of ``fn`` each."""
    try:
        taken = next(loop)
        while True:
            cuts = _cuts(taken)
            taken = loop.send(_pair_eval(fn, cuts[:, :2], cuts[:, 1:]))
    except StopIteration as done:
        return done.value


def _cuts(taken) -> np.ndarray:
    """Row j is (lo, mid, hi) of piece j: its halves are the (k, 2) views ``[:, :2]`` and ``[:, 1:]``."""
    lo, hi = np.asarray(taken, dtype=float).reshape(-1, 2).T
    return np.column_stack((lo, 0.5 * (lo + hi), hi))


def _refine(a, b, i31, err, cfg: QuadratureConfig):
    """The stop test and split loop of the adaptive integral, as a generator of rounds.

    Takes the first pass's (I31, error) per piece (a, b).  The loop pops the
    piece with the largest error, bisects it and pushes its halves, one piece
    at a time, until the stop test holds or the budget is spent.  When it
    pops a piece whose halves are not yet evaluated, it yields the (lo, hi)
    pieces that :func:`_round_pieces` finds it certain to bisect next and is
    sent their halves' (I31, error) as two (k, 2) arrays, row j the lower
    and upper half of piece j, as ``_pair_eval`` on the halves of
    :func:`_cuts` gives them.  It returns (value, error, converged).

    The loop applies the bisections in its own order, so every value, error
    and flag is that of one evaluation per bisection, bit for bit, whoever
    evaluates the rounds (:func:`_rounds` for one integrand,
    :func:`_power_rounds` for many kernel powers at once).  A round holds a
    piece that the loop never bisects only when the budget runs out before
    the loop reaches it.
    """
    total = float(np.sum(i31))
    total_err = float(np.sum(err))
    if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        values, errors = i31.tolist(), err.tolist()
    else:
        heap = list(zip((-err).tolist(), a.tolist(), b.tolist(), i31.tolist()))
        heapq.heapify(heap)
        budget = cfg.max_subdivisions * len(a)
        splits = 0
        halves = {}
        while total_err > (tol := max(cfg.abs_tol, cfg.rel_tol * abs(total))) and splits < budget:
            if heap[0][1:3] not in halves:
                taken = _round_pieces(heap, halves, total_err - tol, budget - splits)
                ci, ce = yield taken
                # each sum is its own pair's, as one bisection's .sum() would give it
                sums = zip(ci.sum(axis=1).tolist(), ce.sum(axis=1).tolist(), ci.tolist(), ce.tolist())
                halves.update(zip(taken, sums))
            neg_e, lo, hi, v = heapq.heappop(heap)
            m = 0.5 * (lo + hi)
            ci_sum, ce_sum, (c0, c1), (e0, e1) = halves.pop((lo, hi))
            total += ci_sum - v
            total_err += ce_sum + neg_e
            heapq.heappush(heap, (-e0, lo, m, c0))
            heapq.heappush(heap, (-e1, m, hi, c1))
            splits += 1
        values = [v for _, _, _, v in heap]
        errors = [-neg_e for neg_e, _, _, _ in heap]
    return _totals(values, errors, cfg)


def _totals(values: list, errors: list, cfg: QuadratureConfig):
    """(value, error, converged) of the pieces' values and errors, as ``math.fsum`` totals."""
    value = math.fsum(values)
    error = math.fsum(errors)
    return value, error, error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))


def _round_pieces(heap, halves, excess: float, room: int) -> list:
    """The (lo, hi) pieces that :func:`_refine` must bisect next and has not evaluated.

    Walks ``heap`` in pop order and takes pieces while the summed error of
    those already taken is below ``excess``, by which the total error exceeds
    the tolerance, and while fewer than ``room`` (the remaining budget) are
    taken.  A taken piece and the pieces after it in pop order carry more
    error than the tolerance allows, so in exact arithmetic the loop cannot
    stop before it bisects that piece.  Pieces already in ``halves`` count
    but are not taken again.
    """
    taken = []
    summed = 0.0
    for neg_e, lo, hi, _ in _pop_order(heap):
        if not (room and summed < excess):
            break
        if (lo, hi) not in halves:
            taken.append((lo, hi))
        summed -= neg_e
        room -= 1
    return taken


def _pop_order(heap):
    """The entries of ``heap`` in the order heappop would return them, lazily."""
    frontier = [(heap[0], 0)]
    while frontier:
        entry, i = heapq.heappop(frontier)
        yield entry
        for child in (2 * i + 1, 2 * i + 2):
            if child < len(heap):
                heapq.heappush(frontier, (heap[child], child))


def bump_partition(l: int) -> np.ndarray:
    """The arches of the kernel, [k/l, (k+1)/l] clipped to [0, 1/2], as an (n, 2) array.

    Row k is arch k; the cuts k/l are correctly rounded quotients, the same
    floats as the scalar expression ``k / l``.
    """
    cuts = np.arange(l // 2 + 1) / l
    if cuts[-1] < 0.5:
        cuts = np.append(cuts, 0.5)
    return _intervals(cuts)


def _intervals(cuts: np.ndarray) -> np.ndarray:
    """The (n - 1, 2) array of consecutive pairs of n sorted cuts."""
    return np.column_stack((cuts[:-1], cuts[1:]))


# pi t_j, with t_j = l x - k at the 15, then the 31 nodes x of arch k: row 0
# (1 + xi_j)/2 on a full arch, row 1 (1 + xi_j)/4 on an odd length's final half
# arch; and sin(pi t_j), in row 0 from 1 - |xi_j|, to an ulp also near t_j = 1.
_X46 = _X15.tolist() + _X31.tolist()
_PI_T = np.array([[PI * (0.5 + 0.5 * x) for x in _X46], [PI * (0.25 + 0.25 * x) for x in _X46]])
_SIN_PI_T = np.array([[math.sin(0.5 * PI * (1.0 - abs(x))) for x in _X46], list(map(math.sin, _PI_T[1].tolist()))])


@lru_cache(maxsize=64)
def _arch_record(l: int):
    """(bump_partition(l), sin(pi k/l), cos(pi k/l), nodes, log cap_k for k >= 1) of the arches k.

    ``nodes`` stacks sin(pi t_j)/l, cos(pi t_j/l) and sin(pi t_j/l).  g <=
    cap_k = 1/(l sin(pi k/l)) <= 1/2 on arch k >= 1, falling as k grows; its
    ``math.log`` values come as a memoryview of floats.  All are read-only.
    """
    pieces = bump_partition(l)
    angles, t = PI * np.arange(len(pieces)) / l, _PI_T / l
    sines = np.sin(angles)
    logcaps = np.fromiter(map(math.log, (1.0 / (l * sines[1:])).tolist()), float, len(sines) - 1)
    record = (pieces, sines, np.cos(angles), np.stack((_SIN_PI_T / l, np.cos(t), np.sin(t))), logcaps)
    for array in record:  # the cache hands the same arrays to every caller
        array.setflags(write=False)
    return *record[:4], memoryview(logcaps)


# math.exp is exactly 0.0 below this (the smallest subnormal is exp(-744.4))
_EXP_ZERO_BELOW = -746.0
# A charge whose log is this far below the first charge's is at most 2^-55
# of it (arch widths are equal up to rounding, a final half arch narrower),
# under half an ulp of any sum that holds the first charge, rounding of exp
# and of the product included; 54 ln 2 would leave no room for that rounding
# when the first charge sits just below a power of two.  The bound is
# relative, so it is used only when the first charge's log is above
# _NORMAL_CHARGE_LOG, far from the subnormals, whose rounding is absolute.
_NEGLIGIBLE_CHARGE_LOG = 55.0 * math.log(2.0)
_NORMAL_CHARGE_LOG = -600.0


def _kept_arches(l: int, p: float, abs_tol: float):
    """The arch dropping of :func:`integrate_kernel_power`: (kept pieces, charge).

    An arch k >= 1 is dropped when p*log(cap_k) < log(abs_tol) - log(l);
    arch 0 is always kept.  The caps fall with k, so the dropped arches are a
    suffix, found by bisection.  Each charge is a ``math.exp`` (not taken
    where it underflows to 0.0, nor where it cannot move the sum), summed in
    arch order: the result is that of a scalar loop over every arch.
    """
    pieces, _, _, _, logcaps = _arch_record(l)
    threshold = math.log(abs_tol) - math.log(l)
    k = 1 + bisect.bisect_left(logcaps, True, key=lambda c: p * c < threshold)
    if k == len(pieces):
        return pieces, 0.0
    # arch j >= k is charged exp(p logcaps[j - 1]) times its width, the first
    # charge the largest.  No charge under half an ulp of the sum moves it: not
    # exp's 0.0 below _EXP_ZERO_BELOW, nor one _NEGLIGIBLE_CHARGE_LOG below a
    # normal first charge, so none is taken from arch n, the first below the cut
    first = p * logcaps[k - 1]
    cut = first - _NEGLIGIBLE_CHARGE_LOG if first > _NORMAL_CHARGE_LOG else _EXP_ZERO_BELOW
    n = 1 + bisect.bisect_left(logcaps, True, lo=k - 1, key=lambda c: p * c < cut)
    charge = 0.0
    for logcap, width in zip(logcaps[k - 1 : n - 1].tolist(), (pieces[k:n, 1] - pieces[k:n, 0]).tolist()):
        charge += math.exp(p * logcap) * width
    return pieces[:k], charge


def _kernel_table(l: int, k: int) -> np.ndarray:
    """g at the 15/31 pair nodes of the first k arches of bump_partition(l), the 15-node values first.

    At node j of arch i, l x = i + t_j, so |sin(pi l x)| = sin(pi t_j) and
    l sin(pi x) = l (sin(pi i/l) cos(pi t_j/l) + cos(pi i/l) sin(pi t_j/l)):
    g at these ideal nodes is an outer product of the record's factors.
    """
    pieces, sines, cosines, (num, cos_t, sin_t), _ = _arch_record(l)
    s, c = sines[:k, None], cosines[:k, None]
    table = np.empty(46 * k)
    for lo, hi in ((0, 15), (15, 46)):
        g = table[lo * k : hi * k].reshape(k, hi - lo)
        np.divide(num[0, lo:hi], np.add(s * cos_t[0, lo:hi], c * sin_t[0, lo:hi], out=g), out=g)
        if l % 2 and k == len(pieces):  # the final half arch
            g[-1] = num[1, lo:hi] / (s[-1] * cos_t[1, lo:hi] + c[-1] * sin_t[1, lo:hi])
    return table


def _check_exponent(p: float) -> None:
    """Raise DomainError unless the kernel power p lies in [1, MAX_EXPONENT]."""
    if not 1.0 <= p <= MAX_EXPONENT:
        raise DomainError(f"exponent p must be finite and in [1, {MAX_EXPONENT:g}], got {p}")


# a batch runs in chunks of lengths whose pairs keep at most this many arches
# in all (a length over it runs alone), so the first passes, split loops and
# round arrays alive at once stay bounded
_CHUNK_ARCHES = 2048
# a length of the finished integrals that holds more exponents than this
# after a call is emptied
_EXPONENTS_KEPT = 64


@lru_cache(maxsize=256)
def _integrals(l: int, cfg: QuadratureConfig) -> dict:
    """{p: (value, error, converged)} of g^p at length l: the store :func:`integrate_kernel_power_grid` fills."""
    return {}


def integrate_kernel_power_grid(pairs, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """2 * integral of g^p over [0, 1/2] at every (l, p) of ``pairs``, one triple each.

    Arches whose peak cap satisfies p*log(cap) < log(abs_tol) - log(l) cannot
    matter at the requested tolerance; they are skipped and their width*cap^p
    bound is charged to the error estimate instead.  Each l must be a kernel
    length and each p must lie in [1, MAX_EXPONENT]; the first pair that is
    not raises before any work.

    A pair already in the store of finished integrals (:func:`_integrals`)
    is read from it; the others are integrated once each and stored.  They
    share their work: each length has one node table (:func:`_kernel_table`),
    and the exponents of a length that keep as many arches share one stacked
    product for their pair sums and one array stop test, so an exponent that
    converges on its first pass starts no split loop.  The split loops of a
    chunk of lengths then run in lockstep (:func:`_power_rounds`).  Returns
    (value, error, converged) per pair, in order, each float.hex-identical to
    that pair integrated alone.
    """
    asked = [(KernelSpec(l).l, p) for l, p in pairs]
    for _, p in asked:
        _check_exponent(p)
    # held here, so a store the cache evicts during the call is still read
    stores = {l: _integrals(l, cfg) for l, _ in asked}
    pairs = [pair for pair in dict.fromkeys(asked) if pair[1] not in stores[pair[0]]]
    by_length = {}
    for i, (l, _) in enumerate(pairs):
        by_length.setdefault(l, []).append(i)
    results, charges, loops, arches = {}, [0.0] * len(pairs), {}, 0
    for l, group in by_length.items():
        kept = [_kept_arches(l, pairs[i][1], cfg.abs_tol) for i in group]
        width, weight = max(len(pieces) for pieces, _ in kept), sum(len(pieces) for pieces, _ in kept)
        if arches and arches + weight > _CHUNK_ARCHES:
            results.update(_power_rounds(pairs, loops))
            loops, arches = {}, 0
        arches += weight
        table = _kernel_table(l, width)
        by_count = {}
        for i, (pieces, charge) in zip(group, kept):
            by_count.setdefault(len(pieces), []).append(i)
            charges[i] = charge
        # the exponents that keep k arches share one first pass: row j of each
        # half holds the nodes of the first k arches (the table lists the
        # 15-node values of its arches, then the 31-node ones) raised to the
        # p of exponent ks[j], and the stacked pair sums and row totals of
        # each are those of that exponent alone
        for k, ks in by_count.items():
            n = len(ks)
            f = np.empty(46 * k * n)
            f15, f31 = f[: 15 * k * n].reshape(n, -1), f[15 * k * n :].reshape(n, -1)
            for j, i in enumerate(ks):
                np.power(table[: 15 * k], pairs[i][1], out=f15[j])
                np.power(table[15 * width : 15 * width + 31 * k], pairs[i][1], out=f31[j])
            pieces = _arch_record(l)[0][:k]
            a, b = pieces[:, 0], pieces[:, 1]
            i31, err = _pair_sums(f, np.repeat(a[None], n, axis=0), np.repeat(b[None], n, axis=0))
            # the stop test of _refine on every row at once
            done = err.sum(axis=1) <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(i31.sum(axis=1)))
            for row, (i, first_pass) in enumerate(zip(ks, done.tolist())):
                if first_pass:
                    results[i] = _totals(i31[row].tolist(), err[row].tolist(), cfg)
                else:
                    loops[i] = _refine(a, b, i31[row], err[row], cfg)
    results.update(_power_rounds(pairs, loops))
    for i, (v, e, ok) in results.items():
        l, p = pairs[i]
        stores[l][p] = (2.0 * v, 2.0 * (e + charges[i]), ok)
    found = [stores[l][p] for l, p in asked]
    for store in stores.values():
        if len(store) > _EXPONENTS_KEPT:
            store.clear()
    return found


def _power_rounds(pairs: list, loops: dict) -> dict:
    """Run the :func:`_refine` loops ``{i: loop}`` of g^p at ``pairs[i]`` in lockstep: {i: result}.

    Each round gathers the pieces every unfinished loop asks for and
    evaluates g once, with one :func:`kernel_values` call given the length
    of each point, at the pair abscissae of the halves of their union
    (pieces that several loops of one length bisect are evaluated once).
    Each loop's pieces are raised to its own p by a scalar power, as in a
    round of that loop alone, and the pair sums of all loops are one
    stacked product, in which each piece's two halves are one (2, m)
    product, again as alone.
    """
    results, asks = {}, {}

    def advance(i, sent):
        try:
            asks[i] = loops[i].send(sent)
        except StopIteration as done:
            results[i] = done.value

    for i in loops:
        advance(i, None)
    while asks:
        current, asks = asks, {}
        index = {}
        rows = np.array([
            index.setdefault((pairs[i][0], *piece), len(index)) for i, taken in current.items() for piece in taken
        ])
        keys = np.array(list(index))
        cuts, n = _cuts(keys[:, 1:]), len(keys)
        # the length of each abscissa: its piece's, for the 2 * 15 nodes then the 2 * 31
        lengths = np.concatenate((np.repeat(keys[:, 0], 30), np.repeat(keys[:, 0], 62)))
        g = kernel_values(lengths, _pair_abscissae(cuts[:, :2], cuts[:, 1:]))
        f15, f31 = g[: 30 * n].reshape(n, 2, 15)[rows], g[30 * n :].reshape(n, 2, 31)[rows]
        bounds = np.cumsum([0] + [len(taken) for taken in current.values()]).tolist()
        for i, start, stop in zip(current, bounds, bounds[1:]):
            # each loop's values raised by its own scalar exponent: numpy
            # raises a power whose exponent varies along the array
            # differently (at p = 2, say)
            for block in (f15[start:stop], f31[start:stop]):
                np.power(block, pairs[i][1], out=block)
        cuts = cuts[rows]
        ci, ce = _pair_sums(np.concatenate((f15.ravel(), f31.ravel())), cuts[:, :2], cuts[:, 1:])
        for i, start, stop in zip(current, bounds, bounds[1:]):
            advance(i, (ci[start:stop], ce[start:stop]))
    return results


def integrate_kernel_power(spec: KernelSpec, p: float, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """2 * integral of g^p over [0, 1/2]: :func:`integrate_kernel_power_grid` at one pair.

    The first pass raises the cached node table of the kept arches to p;
    only a bisected piece evaluates g again.  p must lie in [1, MAX_EXPONENT].
    """
    return integrate_kernel_power_grid([(spec.l, p)], cfg)[0]


def norm_bound(l: int, p: float) -> float:
    """The certified upper bound sqrt(2 / (p (l^2 - 1)))."""
    return math.sqrt(2.0 / (p * (l * l - 1)))


def _valid_prefix(pairs, check) -> tuple:
    """(the (l, p) pairs before the first bad one, its error or None): a bad l, or ``check(l, p)`` raises.

    A batch integrates the prefix, builds and checks its records in order,
    and then raises the error: so the first failing pair decides the error,
    as in a loop of scalar calls.
    """
    valid = []
    for l, p in pairs:
        try:
            l = KernelSpec(l).l
            check(l, p)
        except (DomainError, PreconditionError) as exc:
            return valid, exc
        valid.append((l, p))
    return valid, None


def lp_norm_grid(pairs, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """Integral of |D_l|^p over one period at every (l, p) of ``pairs``, one record each.

    The bound field is populated in the range of the certified inequality
    (``kernel.bound_range_problem``).  The asymptotic field carries the
    first-order reference: (2/pi) * integral_0^inf |sin u / u|^p du / l for
    p > 1 and 4 log(l) / (pi^2 l) for p = 1.  The values come from one
    :func:`integrate_kernel_power_grid` call, and the sinc-power integrals
    of the distinct exponents from one :func:`ball_half_grid` call; a record
    whose sinc-power integral failed raises its error.
    """
    pairs, error = _valid_prefix(pairs, lambda l, p: _check_exponent(p))
    halves = _halves_of([p for _, p in pairs], cfg)
    norms = []
    for (l, p), (value, err, converged) in zip(pairs, integrate_kernel_power_grid(pairs, cfg)):
        bound = None if bound_range_problem(l, p) else norm_bound(l, p)
        asymptotic = _asymptotic(l, p, halves)
        norms.append(LpNormResult(
            l=l,
            p=float(p),
            value=value,
            bound=bound,
            asymptotic=asymptotic,
            error_estimate=err,
            converged=converged,
            margin=None if bound is None else bound - value,
            ratio=value / asymptotic,
        ))
    if error is not None:
        raise error
    return norms


def lp_norm(spec: KernelSpec, p: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> LpNormResult:
    """:func:`lp_norm_grid` at one pair."""
    return lp_norm_grid([(spec.l, p)], cfg)[0]


def _check_certifiable(l: int, p: float) -> None:
    if problem := bound_range_problem(l, p):
        raise PreconditionError(f"certification requires {problem}")
    # a NaN or too large exponent passes the test above
    _check_exponent(p)


def certify_bound_grid(pairs, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """Certify value + error < sqrt(2/(p(l^2-1))) at every (l, p) of ``pairs``; raises on any failure.

    One :func:`integrate_kernel_power_grid` call; the first pair that is
    out of range or fails its certificate raises.
    """
    pairs, error = _valid_prefix(pairs, _check_certifiable)
    certs = []
    for (l, p), (value, err, converged) in zip(pairs, integrate_kernel_power_grid(pairs, cfg)):
        bound = norm_bound(l, p)
        if not (converged and value + err < bound):
            raise VerificationError(
                f"norm bound failed at l={l}, p={p}: "
                f"value={value!r} + err={err!r} !< bound={bound!r}"
            )
        certs.append(BoundCertificate(
            l=l,
            p=float(p),
            value=value,
            bound=bound,
            margin=bound - value,
            error_estimate=err,
            passed=True,
        ))
    if error is not None:
        raise error
    return certs


def certify_bound(
    spec: KernelSpec, p: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> BoundCertificate:
    """:func:`certify_bound_grid` at one pair."""
    return certify_bound_grid([(spec.l, p)], cfg)[0]


def _sinc_modulus(u: np.ndarray) -> np.ndarray:
    """|sin u / u|, with 1 at u = 0."""
    u = np.asarray(u, dtype=float)
    return np.where(u != 0.0, np.abs(np.sin(u) / np.where(u != 0.0, u, 1.0)), 1.0)


# the sinc head spans this many periods; the zeta tail folds in all the rest
_HEAD_PERIODS = 16

# zeta(p, q) as Cephes' zeta computes it (Moshier, "Methods and Programs for
# Mathematical Functions", 1989): _ZETA_DIRECT terms (q + k)^-p, then the
# Euler-Maclaurin expansion from w = q + _ZETA_DIRECT - 1.  Entry j - 1 is
# (2j)! / B_2j, Cephes' A[].
_ZETA_DIVISORS = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
_ZETA_DIRECT = 10
# the shifts k of the direct terms, largest first, so the smallest term comes first
_ZETA_SHIFTS = np.arange(_ZETA_DIRECT - 1, -1.0, -1.0)[:, None]
# Near p = 1 the tail is nearly all of the sinc-power integral, and the last
# bit of the sum there depends on how the first expansion terms are added.
# These are added one at a time, as Cephes adds them, so ball_half agrees bit
# for bit with the same integral on Cephes' zeta (scipy.special.zeta, the
# tests' oracle) at all but a few exponents near 1, by an ulp; the rest go
# in Horner form in 1/w^2.
_ZETA_ONE_AT_A_TIME = 3


def _zeta_coefficients(p: float) -> tuple:
    """The expansion coefficients c_j = (p)_{2j-1} B_2j / (2j)! of zeta(p, q), q in [16, 17].

    Term j is c_j w^(-p-2j+1) with w = q + 9 in [25, 26].  zeta(p, q) exceeds
    both w^(1-p) / (p - 1) and q^-p, so the term is at most
    |c_j| min((p - 1) 25^-2j, 25^(1-2j) (17/26)^p) of it; the coefficients
    stop before the first term whose bound is under 2^-56.
    """
    coeffs = []
    rising = p  # (p)_{2j-1}
    decay = (17.0 / 26.0) ** p
    for j, divisor in enumerate(_ZETA_DIVISORS, start=1):
        c = rising / divisor
        scale = 25.0 ** (-2 * j)
        if abs(c) * scale * min(p - 1.0, 25.0 * decay) < 2.0**-56:
            break
        coeffs.append(c)
        rising *= (p + 2 * j - 1) * (p + 2 * j)
    return tuple(coeffs)


def _hurwitz_zeta(p: float, q: np.ndarray, coeffs: tuple) -> np.ndarray:
    """zeta(p, q) = sum_{k >= 0} (q + k)^-p for p > 1 and q in [16, 17].

    ``coeffs`` is :func:`_zeta_coefficients` of p.  ``q`` is a 1-D array of
    two or more points: numpy then adds the rows of direct terms in order,
    from the smallest, so each value is the same whatever else ``q`` holds
    (a single column it would sum pairwise).
    """
    terms = (_ZETA_SHIFTS + q) ** -p
    s = np.add.reduce(terms, axis=0)
    w, b = q + (_ZETA_DIRECT - 1), terms[0]
    s += b * w / (p - 1.0)
    s -= 0.5 * b
    if coeffs:
        y = 1.0 / (w * w)
        scaled = b / w  # w^(-p-2j+1) for the next term j
        for c in coeffs[:_ZETA_ONE_AT_A_TIME]:
            s += scaled * c
            scaled *= y
        rest = coeffs[_ZETA_ONE_AT_A_TIME:]
        if rest:
            horner = rest[-1]
            for c in rest[-2::-1]:
                horner = horner * y + c
            s += scaled * horner
    return s


def ball_half_grid(ps, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """integral_0^infty |sin u / u|^p du at every p of ``ps``: per exponent its value or its error.

    Computed as a sweep over the first m = 16 periods plus the exact
    remainder sum folded through the Hurwitz zeta function:

        integral_{m pi}^infty = integral_0^pi sin^p(t) pi^{-p} zeta(p, m + t/pi) dt.

    An exponent outside (1, MAX_EXPONENT] gets a DomainError, and one whose
    integral does not converge a VerificationError.  Nothing is raised, so
    each caller raises the error of its first failing exponent in its own
    order.  The distinct exponents are integrated once each, together: the
    head over 16 periods and the tail over four quarter periods are
    adaptive integrals of each exponent's own integrands, with |sinc| at
    the head's first-pass abscissae, and sin t and 16 + t/pi at the tail's,
    evaluated once for all exponents.
    """
    asked = [
        float(p) if 1.0 < p <= MAX_EXPONENT
        else DomainError(f"sinc-power integral needs a finite p in (1, {MAX_EXPONENT:g}], got {p}")
        for p in ps
    ]
    ps = [p for p in dict.fromkeys(asked) if isinstance(p, float)]
    if not ps:
        return asked
    periods = _intervals(np.arange(_HEAD_PERIODS + 1) * PI)
    quarters = _intervals(np.arange(5) * PI / 4.0)
    u = _pair_abscissae(periods[:, 0], periods[:, 1])
    t = _pair_abscissae(quarters[:, 0], quarters[:, 1])
    sinc, sin_t, q = _sinc_modulus(u), np.sin(t), _HEAD_PERIODS + t / PI
    heads = _stacked_integrals(
        periods, [sinc**p for p in ps], [lambda u, p=p: _sinc_modulus(u) ** p for p in ps], cfg
    )
    zeta_tails = [_zeta_tail(p) for p in ps]
    tails = _stacked_integrals(
        quarters,
        [f(sin_t, q) for f in zeta_tails],
        [lambda t, f=f: f(np.sin(t), _HEAD_PERIODS + t / PI) for f in zeta_tails],
        cfg,
    )
    found = {
        p: head + tail if ok1 and ok2 else VerificationError(
            f"sinc-power integral did not converge at p={p} (errors {head_err:.3e}, {tail_err:.3e})"
        )
        for p, (head, head_err, ok1), (tail, tail_err, ok2) in zip(ps, heads, tails)
    }
    # an error stands for itself
    return [p if isinstance(p, Exception) else found[p] for p in asked]


def _zeta_tail(p: float):
    """The tail's integrand sin^p(t) pi^-p zeta(p, 16 + t/pi), as a function of (sin t, 16 + t/pi)."""
    coeffs = _zeta_coefficients(p)
    return lambda sin_t, q: sin_t**p * PI ** (-p) * _hurwitz_zeta(p, q, coeffs)


def _stacked_integrals(pieces: np.ndarray, rows: list, fns: list, cfg: QuadratureConfig) -> list:
    """The adaptive integral of ``fns[j]`` over ``pieces`` for every j, with ``rows[j]`` its first-pass values.

    ``rows[j]`` is ``fns[j]`` at the ``_pair_abscissae`` of ``pieces``.  The
    first passes are one stacked pair-sum product, whose row j is that of
    ``rows[j]`` alone (the (k, m) blocks of a stacked (n, k, m) @ w product
    are those of k alone).  Each row then goes through :func:`_refine`,
    which returns at once when its first pass converged, and any rounds
    evaluate ``fns[j]``.
    """
    a, b = pieces[:, 0], pieces[:, 1]
    n, split = len(rows), 15 * len(a)
    f = np.stack(rows)
    i31, err = _pair_sums(
        np.concatenate((f[:, :split].ravel(), f[:, split:].ravel())),
        np.repeat(a[None], n, axis=0),
        np.repeat(b[None], n, axis=0),
    )
    return [_rounds(_refine(a, b, i31[j], err[j], cfg), fn) for j, fn in enumerate(fns)]


def ball_half(p: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """integral_0^infty |sin u / u|^p du for p in (1, MAX_EXPONENT]: :func:`ball_half_grid` at one exponent."""
    return _value(ball_half_grid([p], cfg)[0])


def _value(entry):
    """A :func:`ball_half_grid` entry's value, or raise the error it holds."""
    if isinstance(entry, Exception):
        raise entry
    return entry


# the p = 2 case of the sinc bound is an equality; strictness is only
# asserted once p exceeds 2 by more than this
_BALL_EQUALITY_WINDOW = 1e-6


def sinc_power_bound(p: float) -> float:
    """sqrt(2/p), the bound on integral_R |sin(pi x)/(pi x)|^p dx for p >= 2."""
    return math.sqrt(2.0 / p)


def ball_integral_grid(ps, cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """integral_R |sin(pi x)/(pi x)|^p dx at every p of ``ps``, checked against :func:`sinc_power_bound` for p >= 2.

    One :func:`ball_half_grid` call; the first exponent that is out of
    range, does not converge or fails its bound raises, as in a loop of
    :func:`ball_integral`.
    """
    ps = list(ps)
    values = []
    for p, half in zip(ps, ball_half_grid(ps, cfg)):
        value = (2.0 / PI) * _value(half)
        if p >= 2.0:
            bound = sinc_power_bound(p)
            if p < 2.0 + _BALL_EQUALITY_WINDOW:
                ok = value <= bound + 1e-9
            else:
                ok = value < bound
            if not ok:
                raise VerificationError(
                    f"sinc-power bound failed at p={p}: value={value!r} !< {bound!r}"
                )
        values.append(value)
    return values


def ball_integral(p: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """:func:`ball_integral_grid` at one exponent."""
    return ball_integral_grid([p], cfg)[0]


def _halves_of(ps, cfg: QuadratureConfig) -> dict:
    """{p: ball_half_grid entry} for the distinct exponents p != 1 of ``ps``, as :func:`_asymptotic` reads them."""
    ps = list(dict.fromkeys(p for p in ps if p != 1.0))
    return dict(zip(ps, ball_half_grid(ps, cfg)))


def _asymptotic(l: int, p: float, halves: dict) -> float:
    """:func:`asymptotic_reference` with the sinc-power integral at p read from ``halves``."""
    if p == 1.0:
        return 4.0 * math.log(l) / (PI**2 * l)
    return (2.0 / PI) * _value(halves[p]) / l


def asymptotic_reference(l: int, p: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """First-order reference value for the kernel norm at length l."""
    return _asymptotic(l, p, _halves_of([p], cfg))
