"""Probability mass functions on the integers: convolution and max-entropy data.

A :class:`Pmf` is an offset plus a finite weight vector with trimmed support.
The quantities of interest are the maximum probability M, the max-order
entropy H = -log M, and the entropy power N = M^(-2); M is measured once,
when the weights are validated (``Pmf.max_weight``).  Convolution of
independent summands is exact: direct summation for small supports,
one product of real FFTs beyond a size threshold, with both paths
agreeing to float accuracy.

Both paths run on numpy alone: the transform is ``numpy.fft``.

:func:`weight_problems` runs Pmf's checks on many laws at once, each a row
of a zero-padded array, and measures their maxima in the same pass;
:func:`l_indices_from_max` gives their indices, and a :class:`Pmf` checks
its own weights with the same function.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvolutionOverflowError, DomainError

MASS_TOL = 1e-12
# products of support sizes up to this use plain summation; beyond it the FFT
DIRECT_LIMIT = 2**16
SUPPORT_CAP = 2**24
# a sum transforms its factors in chunks whose spectra take at most this
# many bytes (a chunk of one factor where one spectrum alone is larger)
SPECTRA_BUDGET = 2**24


@dataclass(frozen=True, eq=False)
class Pmf:
    """Integer-valued law: support starts at ``offset``, weights sum to 1.

    ``max_weight``, measured when the weights are validated, is ``float(weights.max())``.
    """

    offset: int
    weights: np.ndarray
    max_weight: float = field(init=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise DomainError("weights must be a nonempty 1-D sequence")
        (problem,), (m,) = weight_problems(w[None, :], [len(w)])
        if problem is not None:
            raise DomainError(problem)
        w.setflags(write=False)
        self.__dict__.update(offset=int(self.offset), weights=w, max_weight=m)  # frozen: set past __setattr__

    @classmethod
    def _checked(cls, offset: int, weights: np.ndarray, max_weight: float) -> "Pmf":
        """A law whose read-only 1-D weights passed :func:`weight_problems`, with the maximum it measured."""
        f = object.__new__(cls)
        f.__dict__.update(offset=int(offset), weights=weights, max_weight=max_weight)
        return f

    def __len__(self) -> int:
        return len(self.weights)

    def to_json_dict(self) -> dict:
        return {"offset": self.offset, "weights": [float(v) for v in self.weights]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Pmf":
        return cls(offset=d["offset"], weights=np.asarray(d["weights"], dtype=float))


def segment_sums(values: np.ndarray, lengths) -> np.ndarray:
    """``np.add.reduce`` of each run of ``values``, bit for bit: run i holds the next ``lengths[i]`` (>= 0) values.

    One ``np.add.reduceat`` over the runs, each led by an added 0.0.  numpy
    sums pairwise, in an order fixed by the count of values, so a run must
    be summed as itself, not inside a padded row.  ``np.add.reduce`` adds
    a run's pairwise sum to 0.0, while ``reduceat`` adds the pairwise sum
    of the rest of a segment to its first value: with the leading zero the
    two agree, and an empty run sums to 0.0.  A lone run, as a one-law
    check has, goes to ``np.add.reduce`` itself.
    """
    if len(lengths) == 1:
        return np.add.reduce(values, keepdims=True)
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    padded = np.zeros(len(values) + len(lengths))
    ahead = np.ones(len(padded), dtype=bool)
    ahead[starts] = False
    padded[ahead] = values
    return np.add.reduceat(padded, starts)


def weight_problems(rows: np.ndarray, sizes, mass_tol: float = MASS_TOL) -> tuple[list, list]:
    """Why each row's weights are not a law, or None, and each row's maximum: :class:`Pmf`'s checks, a batch at once.

    Row i holds its weights in its first ``sizes[i]`` (>= 1) entries and
    zeros after them.  The checks, in Pmf's order: finite, nonnegative,
    trimmed (positive end weights), and a sum within ``mass_tol`` of 1, the
    sum ``ndarray.sum`` gives.  Finiteness and sign are tested on all rows at
    once and looked at row by row only when one fails; each row's sum is
    that of its weights alone (:func:`segment_sums`).  The maxima are one
    pass over all rows, as Python floats.
    """
    maxima = rows.max(axis=1).tolist()
    weights = rows[0, : sizes[0]] if len(rows) == 1 else rows[np.arange(rows.shape[1]) < np.asarray(sizes)[:, None]]
    if rows.min() >= 0.0 and max(maxima) < math.inf:  # a NaN fails the first
        finite = negative = None
        totals = segment_sums(weights, sizes).tolist()
    else:
        finite = np.isfinite(rows).all(axis=1).tolist()
        negative = (rows.min(axis=1) < 0.0).tolist()
        with np.errstate(invalid="ignore"):  # inf - inf: that row fails before its sum is read
            totals = segment_sums(weights, sizes).tolist()
    problems = []
    for i, (row, n) in enumerate(zip(rows, sizes)):
        if finite is not None and not finite[i]:
            problems.append("weights must be finite")
        elif negative is not None and negative[i]:
            problems.append("weights must be nonnegative")
        elif row[0] == 0.0 or row[n - 1] == 0.0:
            problems.append("support must be trimmed: end weights must be positive")
        else:
            total = totals[i]
            problems.append(f"weights sum to {total!r}, not 1" if abs(total - 1.0) > mass_tol else None)
    return problems, maxima


@dataclass(frozen=True)
class EntropySummary:
    """Max probability with its entropy and entropy power."""

    M: float
    H_inf: float
    N_inf: float


def _support_size(l) -> int:
    if isinstance(l, bool) or int(l) != l or l < 1:
        raise DomainError(f"uniform support size must be a positive integer, got {l!r}")
    return int(l)


def uniform(l: int) -> Pmf:
    """Uniform law on {1, ..., l}."""
    l = _support_size(l)
    return Pmf(offset=1, weights=np.full(l, 1.0 / l))


def uniform_max(ls) -> int:
    """The largest count of the convolution of the uniform laws on {1, ..., l_i}.

    Entry k of that convolution counts the tuples with j_i in {1, ..., l_i}
    and sum j_i = n + k.  Each factor's counts are symmetric and
    log-concave, so their convolution is too (Hoggar, 1974) and peaks at
    the centre k = sum(l_i - 1) // 2.  Inclusion-exclusion over the subsets
    S of the factors gives that count as sum_S (-1)^|S| C(k - sum_S l_i +
    n - 1, n - 1), over the S with sum_S l_i <= k.  The signed subset sums
    are folded in one factor at a time and those above k dropped, so the
    work is O(n min(2^n, k)), in Python integers.
    """
    ls = [_support_size(l) for l in ls]
    if not ls:
        raise DomainError("need at least one support size")
    n, k = len(ls), sum(l - 1 for l in ls) // 2
    signed = {0: 1}  # subset sum -> the signed count of subsets with that sum
    for l in ls:
        folded = dict(signed)
        for s, c in signed.items():
            if s + l <= k:
                folded[s + l] = folded.get(s + l, 0) - c
        signed = folded
    return sum(c * math.comb(k - s + n - 1, n - 1) for s, c in signed.items())


def entropy_summary(f: Pmf) -> EntropySummary:
    m = f.max_weight
    return EntropySummary(M=m, H_inf=-math.log(m), N_inf=m**-2)


def l_index_from_max(m: float) -> int:
    """The unique integer l with m in (1/(l+1), 1/l]: :func:`l_indices_from_max` of one."""
    return l_indices_from_max([m])[0]


def l_indices_from_max(ms) -> list[int]:
    """The unique integer l with m in (1/(l+1), 1/l], for each max probability m.

    Computed as floor(1/m) with an exactness guard so that m stored as a
    rounded 1/l still maps to l.  The guard is relative: 1/m is within a few
    ulps of k, and an ulp of k passes 1e-12 from k = 2^13 on.  The first m
    outside (0, 1] raises.  Each index takes a few float operations, so they
    run on Python floats.
    """
    out = []
    for m in ms:
        if not 0.0 < m <= 1.0:
            raise DomainError(f"max probability {m} outside (0, 1]")
        inv = 1.0 / m
        k = round(inv)
        out.append(int(k) if k >= 1 and abs(inv - k) <= 1e-12 * k and m * k <= 1.0 else int(math.floor(inv)))
    return out


def l_index(f: Pmf) -> int:
    return l_index_from_max(f.max_weight)


def _clean_transform_weights(w: np.ndarray) -> np.ndarray:
    lowest = w.min()
    if not lowest >= 0.0:  # round-off below zero, or a NaN; the common case scans once
        if np.any(w < -1e-15):
            raise DomainError(f"transform produced weight {lowest!r} below -1e-15")
        w = np.where(w < 0.0, 0.0, w)
    return w / w.sum()


# the 5-smooth numbers up to SUPPORT_CAP (itself 2^24), ascending, 836 of
# them: each odd part 3^b 5^c times every power of two that keeps it in range
_FAST_LENS = tuple(sorted(
    m << a
    for m in (3**b * 5**c for b in range(SUPPORT_CAP.bit_length()) for c in range(SUPPORT_CAP.bit_length()))
    if m <= SUPPORT_CAP
    for a in range((SUPPORT_CAP // m).bit_length())
))


def _next_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a length that real FFTs transform fast, for n <= SUPPORT_CAP.

    Equal to ``scipy.fft.next_fast_len(n, real=True)``, the length that
    ``scipy.signal.fftconvolve`` pads to.
    """
    return _FAST_LENS[bisect.bisect_left(_FAST_LENS, n)]


def convolve(a: Pmf, b: Pmf) -> Pmf:
    """Exact law of the sum of independent variables with laws a and b.

    The two-factor case of :func:`convolve_many`.  A pair whose supports
    multiply to more than DIRECT_LIMIT takes the real FFTs of a 5-smooth
    length at least the output support, the transforms
    ``scipy.signal.fftconvolve`` takes, so its weights are bit-identical to
    it up to the clipping and renormalisation.
    """
    return convolve_many((a, b))


def convolve_many(pmfs) -> Pmf:
    """Exact law of the sum of independent variables with the given laws.

    A point mass only shifts the sum, so it moves the offset and is not
    multiplied in (its weight is taken as exactly 1).  The other factors are
    summed directly with ``np.convolve``, in order, while the product of the
    running support and the next factor's is at most DIRECT_LIMIT; all the
    rest go through one transform: their real FFTs at one 5-smooth length,
    batched as zero-padded rows within SPECTRA_BUDGET and multiplied in
    order, one inverse, round-off below zero clipped and the weights
    renormalised once.  The result is validated once, its mass against one
    MASS_TOL per factor multiplied in and one for the rounding of the sum
    (each factor's mass may be off by MASS_TOL, and the masses multiply),
    and a total support above SUPPORT_CAP is refused before any work.

    Sums that stay direct, and pairs, are bit-identical to folding
    :func:`convolve` over the laws as earlier versions did.  A sum with
    three or more factors that reaches the transform is not: the fold
    rounded, clipped and renormalised one transform per step, and went back
    to direct summation for a short factor after the first transform, where
    this takes a single product of spectra.  The two agree to a few ulps.
    """
    pmfs = list(pmfs)
    if not pmfs:
        raise DomainError("need at least one pmf")
    factors = [f.weights for f in pmfs if len(f.weights) > 1]
    out_len = sum(map(len, factors)) - len(factors) + 1
    if out_len > SUPPORT_CAP:
        raise ConvolutionOverflowError(
            f"convolution support {out_len} exceeds cap {SUPPORT_CAP}"
        )
    w = factors[0] if factors else np.ones(1)
    i = 1
    while i < len(factors) and len(w) * len(factors[i]) <= DIRECT_LIMIT:
        w = np.convolve(w, factors[i])
        i += 1
    if i < len(factors):
        n = _next_fast_len(out_len)
        rest = [w, *factors[i:]]
        step = max(1, SPECTRA_BUDGET // (16 * (n // 2 + 1)))  # factors a chunk transforms at once
        spectrum = None
        for first in range(0, len(rest), step):
            chunk = rest[first : first + step]
            rows = np.zeros((len(chunk), n))
            for row, f in zip(rows, chunk):
                row[: len(f)] = f
            for factor in np.fft.rfft(rows):  # multiplied in the factors' order
                spectrum = factor if spectrum is None else np.multiply(spectrum, factor, out=spectrum)
        w = _clean_transform_weights(np.fft.irfft(spectrum, n)[:out_len])
    start = 0
    end = len(w)
    while w[start] == 0.0:
        start += 1
    while w[end - 1] == 0.0:
        end -= 1
    w = w[start:end]
    (problem,), (m,) = weight_problems(w[None], [len(w)], mass_tol=(len(factors) + 1) * MASS_TOL)
    if problem is not None:
        raise DomainError(problem)
    w.setflags(write=False)
    return Pmf._checked(sum(f.offset for f in pmfs) + start, w, m)
