"""Exact discrete distributions on the nonnegative integers.

Poisson truncation with certified tail mass, Poisson-binomial convolution,
value-weighted Bernoulli sums (whose atoms are exact subset sums) and their
leave-one-out raw moments, total-variation distances, and the classical
Poisson-approximation inequalities (Barbour-Hall, Borisov-Ruzankin).
Everything is either exact or carries an explicit error bound so that
downstream inequality checks can be made truncation-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import _integer_arg, _readonly
from .errors import CapacityError, DomainError, PrecisionError

TAIL_TOL = 1e-12  # certified Poisson tail of every series and pmf the package forms
_NORM_TOL = 1e-12
_DECONV_TOL = 1e-14
_LOG_HUGE = 709.0  # log of the largest tail bound reported as finite; larger ones are inf
_LOG_ROUND_UP = 16 * np.finfo(float).eps  # relative slack on a log-space tail bound
_SERIES_LIMIT = 1_000_000  # largest truncation point of a certified Poisson series
MAX_RATE = 50.0  # largest growth-envelope rate whose Poisson tails are certified
_BLOCK_ENTRIES = 1 << 18  # Poisson weights, or deconvolved masses, formed at once
_BATCH_TERMS = 24  # fewest terms that remove_bernoulli_terms takes out in one sweep
EXACT_TERMS = 20  # most terms weighted_sum_distribution enumerates exactly


@dataclass(frozen=True, eq=False)
class Pmf:
    """Finite distribution on the integers ``0, 1, ...``.

    ``tail_mass`` is certified probability mass beyond the stored range; it is
    zero for exact constructions and positive only for truncations.
    """

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise DomainError("pmf needs a one-dimensional, nonempty probability vector")
        # every check is written so that NaN fails it
        if not float(self.probs.min()) >= -1e-15:
            raise DomainError("negative or NaN probability in pmf")
        if not self.tail_mass >= 0.0:
            raise DomainError("negative or NaN tail mass")
        total = float(self.probs.sum()) + self.tail_mass
        if not abs(total - 1.0) <= _NORM_TOL:
            raise DomainError(f"pmf is not normalized: total mass {total!r}")

    def __len__(self) -> int:
        return int(self.probs.size)

    @property
    def k_max(self) -> int:
        """Largest integer carried explicitly."""
        return len(self) - 1

    def support(self) -> np.ndarray:
        return np.arange(len(self))

    def prob(self, k: int) -> float:
        """P(K = k) for an integer k, 0.0 outside the stored range."""
        k = _integer_arg(k, "count")
        return float(self.probs[k]) if 0 <= k < len(self) else 0.0

    def mean(self) -> float:
        """Mean over the stored range (the truncated tail is ignored)."""
        return float(np.dot(self.support(), self.probs))

    def var(self) -> float:
        """Variance over the stored range."""
        m = self.mean()
        return float(np.dot((self.support() - m) ** 2, self.probs))

    def expect(self, h) -> float:
        """Expectation of ``h`` over the stored range; see poisson_expect for certified tails."""
        return float(np.dot(_eval_on(h, self.support()), self.probs))


@dataclass(frozen=True, eq=False)
class ValueDist:
    """Finite distribution over real values (point masses, sorted support)."""

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "masses", _readonly(self.masses))
        if self.values.shape != self.masses.shape or self.values.ndim != 1 or not self.values.size:
            raise DomainError("values and masses must be matching nonempty 1-d arrays")
        # every check is written so that NaN fails it
        if not np.isfinite(self.values).all():
            raise DomainError("values must be finite")
        if not float(self.masses.min()) >= -1e-15:
            raise DomainError("negative or NaN mass")
        if not abs(float(self.masses.sum()) - 1.0) <= _NORM_TOL:
            raise DomainError("value distribution is not normalized")
        if np.any(np.diff(self.values) < 0):
            raise DomainError("values must be sorted ascending")

    def __len__(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        return float(np.dot(self.values, self.masses))

    def var(self) -> float:
        m = self.mean()
        return float(np.dot((self.values - m) ** 2, self.masses))

    def expect(self, h) -> float:
        return float(np.dot(_eval_on(h, self.values), self.masses))

    @classmethod
    def from_pmf(cls, pmf: Pmf, scale: float = 1.0) -> "ValueDist":
        """The law of ``scale * K`` for K ~ pmf; a negative scale fails the sort check."""
        if pmf.tail_mass > _NORM_TOL:
            raise PrecisionError("cannot convert a truncated pmf to an exact value distribution")
        keep = pmf.probs > 0.0
        return cls(scale * pmf.support().astype(float)[keep], pmf.probs[keep])

    def shifted(self, c: float) -> "ValueDist":
        """The law of X + c.  Rounding is monotone, so the values stay sorted,
        and the masses are this law's: only an end atom can fail a check, by
        leaving the finite range, so nothing else is checked again."""
        with np.errstate(over="ignore"):
            values = self.values + c
        if not (math.isfinite(values[0]) and math.isfinite(values[-1])):
            raise DomainError("values must be finite")
        values.setflags(write=False)
        out = object.__new__(ValueDist)
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "masses", self.masses)
        return out


def _eval_on(h, ks: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Evaluate a scalar function on an array, falling back to a python loop.

    With ``rows`` set, ``h`` may also return one row of values per mean.  The
    loop runs only when the array call returns another shape or raises what
    a scalar-only function raises on an array (``TypeError``, ``ValueError``);
    every other error, a ``CglabError`` included, propagates.
    """
    try:
        out = np.asarray(h(ks), dtype=float)
        if out.shape == ks.shape or out.shape == (rows, ks.size):
            return out
    except (TypeError, ValueError):
        pass
    return np.fromiter((float(h(k)) for k in ks), dtype=float, count=ks.size)


class Expectation(NamedTuple):
    """Value and error are arrays when ``poisson_expect`` gets a vector of means."""

    value: float
    error: float  # certified bound on the truncated-tail contribution


class TvInterval(NamedTuple):
    lower: float
    upper: float


class PoissonTvBound(NamedTuple):
    tight: float  # 1 - exp(-|x - y|)
    weak: float  # |x - y|


class BarbourHallBound(NamedTuple):
    bound: float
    max_prob: float


# ---------------------------------------------------------------------------
# constructors


def poisson_pmf(mean: float, tail_tol: float = TAIL_TOL) -> Pmf:
    """Truncated Poisson pmf with certified tail mass below ``tail_tol``.

    The masses run to the point k_cut that ``_truncation`` certifies at rate
    0.  The tail past k is the sum of the masses k+1..k_cut, rounded up by a
    few ulps of their log-space terms, plus the certified tail past k_cut; the
    cutoff is the smallest k whose tail is under tail_tol; that tail is ``tail_mass``.
    """
    if mean < 0:
        raise DomainError("Poisson mean must be nonnegative")
    if not 0.0 < tail_tol < 1.0:
        raise DomainError("tail_tol must lie in (0, 1)")
    means = np.array([mean], dtype=float)
    k_cut, err = _truncation(means, 0.0, 1.0, tail_tol)
    w = _poisson_weights(means, np.arange(k_cut + 1))[0]
    size = k_cut * (1.0 + abs(math.log(mean or 1.0))) + mean + _log_factorial(k_cut)
    tails = np.append(np.cumsum(w[:0:-1])[::-1], 0.0) * (1.0 + _LOG_ROUND_UP * size) + err[0]
    k_max = int(np.argmax(tails < tail_tol))
    return Pmf(w[:k_max + 1], tail_mass=float(tails[k_max]))


def bernoulli_sum_pmf(probs: Sequence[float]) -> Pmf:
    """Exact Poisson-binomial pmf of a sum of independent Bernoulli variables.

    Divide-and-conquer product of the terms' generating polynomials: each
    level convolves neighbouring pmfs pairwise, so every mass is a sum of
    nonnegative products (no FFT, no cancellation).  A level of many short
    pmfs takes one vector operation per coefficient instead of one
    ``np.convolve`` per pair.  When every term is the same p, the sum is
    binomial, and its pmf is ``[1-p, p]`` raised to the k-th power by
    repeated squaring, high bit first: one squaring per bit of k and one
    more term per set bit (``_binomial_step``, which ``binomial_ladder``
    shares), again sums of nonnegative products.  The empty
    sum is a point mass at zero.
    """
    p = np.asarray(probs if isinstance(probs, np.ndarray) else list(probs), dtype=float)
    if p.size:
        lo, hi = float(p.min()), float(p.max())
        if not (lo >= -1e-15 and hi <= 1.0 + 1e-15):
            raise DomainError("Bernoulli probabilities must lie in [0, 1]")  # NaN fails too
        if lo == hi:
            term = np.array([1.0 - lo, lo])
            out = term
            for bit in bin(p.size)[3:]:
                out = _binomial_step(out, term, bit == "1")
            return Pmf(out)
    level = np.stack([1.0 - p, p], axis=1) if p.size else np.ones((1, 1))
    while level.shape[0] > 1:
        if level.shape[0] % 2:  # a point mass at zero multiplies exactly
            level = np.vstack([level, np.eye(1, level.shape[1])])
        a, b = level[0::2], level[1::2]
        width = level.shape[1]
        if a.shape[0] > width:
            nxt = np.zeros((a.shape[0], 2 * width - 1))
            for j in range(width):
                nxt[:, j:j + width] += a[:, j:j + 1] * b
        else:
            nxt = np.array([np.convolve(x, y) for x, y in zip(a, b)])
        level = nxt
    return Pmf(level[0, :p.size + 1])


def _binomial_step(half: np.ndarray, term: np.ndarray, odd: bool) -> np.ndarray:
    """Masses of Bin(2j + odd, p) from those of Bin(j, p), ``term`` being [1-p, p]."""
    out = np.convolve(half, half)
    return np.convolve(out, term) if odd else out


def binomial_ladder(p: float, n: int) -> Iterator[np.ndarray]:
    """Masses of Bin(k, p) for k = 0, 1, ..., n, in order.

    Bin(k, p) is built from Bin(k >> 1, p) by ``_binomial_step``, the step
    that ``bernoulli_sum_pmf`` takes per bit of k, so the k-th array has the
    bytes of ``bernoulli_sum_pmf([p] * k).probs``.  Bin(j, p) is dropped once
    Bin(2j + 1, p) is built, which needs it last.
    """
    term = np.array([1.0 - p, p])
    held = {0: np.ones(1), 1: term}
    for k in range(n + 1):
        if k >= 2:
            held[k] = _binomial_step(held[k >> 1], term, k & 1)
            if k & 1:
                del held[k >> 1]
        yield held[k]


def remove_bernoulli(full: np.ndarray, p: float) -> np.ndarray | None:
    """Masses of a Poisson-binomial sum with one Bernoulli(p) term taken out.

    ``full`` holds the masses f of the whole sum on 0..n; the result holds
    those, g, of the other terms on 0..n-1, which satisfy
    ``f[k] = (1-p) g[k] + p g[k-1]``.  Each mass is solved for from the f[k]
    it dominates: the forward recurrence ``g[k] = (f[k] - p g[k-1]) / (1-p)``
    runs while ``(1-p) g[k] >= p g[k-1]``, and the backward one
    ``g[k-1] = (f[k] - (1-p) g[k]) / p`` fills in the rest from the top.
    The law of a Bernoulli sum is log-concave, so g[k] / g[k-1] falls with
    k and each recurrence stays where it loses at most half of f[k] to the
    subtraction: every mass keeps a small relative error, tails included.
    p <= 1/2 runs mostly forward and p > 1/2 mostly backward; p = 0 and
    p = 1 are exact.  Masses that come out below zero by at most
    ``_DECONV_TOL`` (cancellation in an underflowing tail) are returned as
    zero.  Returns None when a mass is further below zero or the result,
    convolved back, misses ``full`` by more than ``_DECONV_TOL`` anywhere
    (NaN fails both checks); the caller then convolves the other terms
    directly.  The work runs over the nonzero window of ``full`` only;
    ``remove_bernoulli_terms`` takes many terms out of one law at once.
    """
    f = np.asarray(full, dtype=float)
    n = f.size - 1
    if n < 1:
        raise DomainError("no Bernoulli term to remove from a point mass")
    if not 0.0 <= p <= 1.0:
        raise DomainError("Bernoulli probability must lie in [0, 1]")
    q = 1.0 - p
    lo, hi = _window(f, p)
    fw = f[lo:hi + 2]
    fl = fw.tolist()
    g = [0.0] * (hi - lo + 1)  # g[j] is the mass at lo + j
    split = 0  # g[:split] comes from the forward recurrence
    prev = 0.0
    while q > 0.0 and split <= hi - lo:
        rest = fl[split] - p * prev  # (1-p) g[k]
        if rest < p * prev:
            break
        prev = g[split] = rest / q
        split += 1
    prev = 0.0
    for j in range(hi - lo, split - 1, -1):
        prev = g[j] = (fl[j + 1] - q * prev) / p
    gw = np.array(g)
    if not _deconvolution_checks(gw, fw, p, q):
        return None
    out = np.zeros(n)
    out[lo:hi + 1] = gw
    return out


def _window(f: np.ndarray, p: float) -> tuple[int, int]:
    """The window ``lo..hi`` outside which the law of f without a Bernoulli(p) term vanishes.

    g vanishes where f[k] = 0 (if p < 1) and where f[k+1] = 0 (if p > 0), so
    only g[lo..hi], checked against f[lo..hi+1], is computed.
    """
    support = np.flatnonzero(f)
    return (max(int(support[0]) - (p == 1.0), 0),
            min(int(support[-1]) - (p > 0.0), f.size - 2))


def _deconvolution_checks(g: np.ndarray, fw: np.ndarray, p, q):
    """Whether g, the masses of a law with a Bernoulli(p) term taken out,
    passes ``remove_bernoulli``'s checks against the window fw of the full law.

    g is one row, with p and q = 1 - p floats, or one row per term, with p
    and q columns.  Masses that cancel to within ``_DECONV_TOL`` below zero
    (underflow at the top of the window) are set to zero in place, and the
    residual check reads the masses returned.  Every check is written so that
    NaN fails it.
    """
    ok = g.min(axis=-1, initial=0.0) >= -_DECONV_TOL
    np.maximum(g, 0.0, out=g)
    back = np.zeros(g.shape[:-1] + fw.shape)
    back[..., :-1] += q * g
    back[..., 1:] += p * g
    back -= fw
    return ok & (np.abs(back, out=back).max(axis=-1) <= _DECONV_TOL)


def remove_bernoulli_terms(full: np.ndarray,
                           terms: Sequence[float]) -> Iterator[np.ndarray | None]:
    """``remove_bernoulli(full, p)`` for each p in ``terms``, in order, with its bytes.

    Fewer than ``_BATCH_TERMS`` terms strictly between 0 and 1 are taken out
    one at a time.  More share one sweep: every such term's row runs
    ``remove_bernoulli``'s recurrences over the window of ``full`` that they
    share, one vector operation per window entry across the terms, in blocks
    whose working set holds at most ``_BLOCK_ENTRIES`` floats.  A row drops out of the forward
    sweep where its own recurrence stops, so no row computes past its switch
    point.  Terms 0 and 1, whose windows differ, are taken out alone.  Each
    result is a fresh array, or None where ``remove_bernoulli`` gives None.
    """
    f = np.asarray(full, dtype=float)
    p = np.asarray(terms, dtype=float).reshape(-1)
    inner = (p > 0.0) & (p < 1.0)
    if np.count_nonzero(inner) < _BATCH_TERMS:
        for x in p.tolist():
            yield remove_bernoulli(f, x)
        return
    n = f.size - 1
    if n < 1:
        raise DomainError("no Bernoulli term to remove from a point mass")
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        raise DomainError("Bernoulli probability must lie in [0, 1]")  # NaN fails too
    lo, hi = _window(f, 0.5)  # the window of every term strictly between 0 and 1
    fw = f[lo:hi + 2]
    # a block's masses, their convolution back and one product: three matrices
    step = max(1, _BLOCK_ENTRIES // (3 * fw.size))
    for start in range(0, p.size, step):
        block, mids = p[start:start + step], inner[start:start + step]
        sweep = iter(_deconvolve_block(fw, block[mids]))
        for x, mid in zip(block.tolist(), mids.tolist()):
            if not mid:
                yield remove_bernoulli(f, x)
            elif (g := next(sweep)) is None:
                yield None
            else:
                out = np.zeros(n)
                out[lo:hi + 1] = g
                yield out


def _deconvolve_block(fw: np.ndarray, p: np.ndarray) -> list[np.ndarray | None]:
    """``remove_bernoulli``'s window rows for terms p in (0, 1) that share the window
    fw = f[lo..hi+1]: each row by the same operations in the same order, or None."""
    if not p.size:
        return []
    q = 1.0 - p
    width = fw.size - 1
    g = np.zeros((width, p.size))  # g[j, r]: row r's mass at lo + j
    split = np.full(p.size, width)  # g[:split[r], r] comes from the forward recurrence
    live = np.arange(p.size)
    pl, ql, prev = p, q, np.zeros(p.size)
    # non-laws can overflow as the scalar recurrences do; their rows fail the checks
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(width):
            pp = pl * prev
            rest = fw[j] - pp  # (1-p) g[k]
            stop = rest < pp
            if stop.any():
                split[live[stop]] = j
                keep = ~stop
                live, pl, ql, rest = live[keep], pl[keep], ql[keep], rest[keep]
                if not live.size:
                    break
            prev = g[j, live] = rest / ql
        # backward from the top, rows in order of their split: at entry j the
        # rows with split <= j, a prefix of that order, run
        order = np.argsort(split, kind="stable")
        tops = np.arange(width - 1, -1, -1)
        counts = np.searchsorted(split[order], tops, side="right").tolist()
        po, qo, prev = p[order], q[order], np.zeros(p.size)
        for j, c in zip(tops.tolist(), counts):
            if not c:
                break
            prev = g[j, order[:c]] = (fw[j + 1] - qo[:c] * prev[:c]) / po[:c]
    rows = g.T
    ok = _deconvolution_checks(rows, fw, p[:, None], q[:, None])
    return [row if good else None for row, good in zip(rows, ok.tolist())]


def weighted_sum_distribution(weights: Sequence[float], probs: Sequence[float]) -> ValueDist:
    """Exact distribution of ``sum_i w_i * Bernoulli(p_i)`` with independent terms.

    Enumerates every outcome by sequential branching.  Each atom is a subset
    sum, formed left to right, and only equal sums merge (their masses add),
    so no value is ever rewritten; sums that differ in the last bit stay
    apart.  Weights must be finite and nonnegative and probabilities lie in
    [0, 1]; more than ``EXACT_TERMS`` (20) terms raise ``CapacityError``.
    """
    w = np.asarray(list(weights), dtype=float)
    p = np.asarray(list(probs), dtype=float)
    if w.shape != p.shape:
        raise DomainError("weights and probs must have the same length")
    if w.size and not (float(w.min()) >= 0.0 and float(w.max()) < np.inf):
        raise DomainError("weights must be finite and nonnegative")  # NaN fails too
    if w.size and not (float(p.min()) >= -1e-15 and float(p.max()) <= 1.0 + 1e-15):
        raise DomainError("probabilities must lie in [0, 1]")
    if w.size > EXACT_TERMS:
        raise CapacityError(f"exact enumeration is limited to {EXACT_TERMS} weighted "
                            f"Bernoulli terms (got {w.size})")
    vals = np.array([0.0])
    mass = np.array([1.0])
    for wi, pi in zip(w, p):
        if pi <= 0.0:
            continue
        if pi >= 1.0:  # a certain term can still make two sums equal
            both, both_mass = vals + wi, mass
        else:
            both = np.concatenate([vals, vals + wi])
            both_mass = np.concatenate([mass * (1.0 - pi), mass * pi])
        order = np.argsort(both, kind="stable")
        vals, mass = both[order], both_mass[order]
        starts = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
        if starts.size < vals.size:  # skipped when all sums differ: reduceat is not free
            vals, mass = vals[starts], np.add.reduceat(mass, starts)
    return ValueDist(vals, mass)


def _prefix_products(terms: np.ndarray, binom: list[list[float]]) -> np.ndarray:
    """Raw moments 0..d of every prefix sum of independent terms whose own raw
    moments 1..d are the rows of ``terms`` (moment 0 is 1); row k sums terms
    0..k-1, so row 0 is the empty sum.  Adding a term X to a sum S gives
    ``E (S + X)^m = sum_a C(m, a) E X^a E S^(m-a)``, with ``binom[m][a] = C(m, a)``."""
    n, d = terms.shape
    out = np.zeros((n + 1, d + 1))
    out[:, 0] = 1.0
    for m in range(1, d + 1):
        step = sum(binom[m][a] * terms[:, a - 1] * out[:n, m - a] for a in range(1, m + 1))
        out[1:, m] = np.cumsum(step)
    return out


def leave_one_out_moments(weights: Sequence[float], probs: Sequence[float],
                          degree: int) -> np.ndarray:
    """Raw moments E S^0 .. E S^degree of ``S = sum_j w_j * Bernoulli(p_j)``, each
    term left out in turn.

    Row j (j < n) holds the moments of S without term j, and row n those of S.
    Term j's raw moments are ``E (w_j B_j)^a = p_j w_j^a`` for a >= 1, and the
    moments of a sum of independent parts are the binomial convolution of
    theirs.  Row j convolves the moments of the terms before j with those of
    the terms after it, so nothing is divided, and every moment is a sum of
    nonnegative products, so nothing cancels.  No factorial is formed, so no
    degree overflows or underflows through one.
    """
    w = np.asarray(list(weights), dtype=float)
    p = np.asarray(list(probs), dtype=float)
    if w.shape != p.shape or w.ndim != 1:
        raise DomainError("weights and probs must be matching one-dimensional sequences")
    if w.size and not (float(w.min()) >= 0.0 and float(w.max()) < np.inf):
        raise DomainError("weights must be finite and nonnegative")
    if w.size and not (float(p.min()) >= 0.0 and float(p.max()) <= 1.0):
        raise DomainError("probabilities must lie in [0, 1]")
    degree = _integer_arg(degree, "moment degree", 0)
    n = w.size
    binom = [[float(math.comb(m, a)) for a in range(m + 1)] for m in range(degree + 1)]
    terms = p[:, None] * w[:, None] ** np.arange(1, degree + 1)
    before = _prefix_products(terms, binom)
    after = _prefix_products(terms[::-1], binom)[n - 1::-1] if n else before[:0]
    out = np.empty((n + 1, degree + 1))
    for k in range(degree + 1):
        out[:n, k] = sum(binom[k][a] * before[:n, a] * after[:, k - a] for a in range(k + 1))
    out[n] = before[n]
    return out


# ---------------------------------------------------------------------------
# distances and approximation bounds


def tv_distance(p: Pmf, q: Pmf) -> TvInterval:
    """Total-variation distance between two pmfs on the integers.

    Returns an interval: the point estimate over the stored ranges widened by
    half the combined tail masses, so the true distance is certified to lie
    inside it.  Callers checking an upper bound should compare ``upper``.
    """
    n = max(len(p), len(q))
    pa = np.zeros(n)
    qa = np.zeros(n)
    pa[:len(p)] = p.probs
    qa[:len(q)] = q.probs
    d0 = 0.5 * float(np.abs(pa - qa).sum())
    slack = 0.5 * (p.tail_mass + q.tail_mass)
    return TvInterval(max(0.0, d0 - slack), min(1.0, d0 + slack))


def tv_poisson_bound(x: float, y: float) -> PoissonTvBound:
    """Upper bounds on the TV distance between Poisson(x) and Poisson(y)."""
    if not (x >= 0 and y >= 0):
        raise DomainError("Poisson parameters must be nonnegative")
    gap = abs(x - y)
    return PoissonTvBound(-math.expm1(-gap), gap)


def barbour_hall_bound(probs: Sequence[float]) -> BarbourHallBound:
    """TV bound between a Bernoulli sum and the Poisson with the same mean.

    Returns ``(1 - e^{-x}) * x^{-1} * sum(p_i^2)`` with ``x = sum(p_i)``,
    together with ``max(p_i)``; the bound never exceeds the latter.
    """
    p = np.asarray(list(probs), dtype=float)
    if p.size == 0:
        raise DomainError("probability vector must be nonempty")
    if not (float(p.min()) >= 0 and float(p.max()) <= 1.0):
        raise DomainError("probabilities must lie in [0, 1]")  # NaN fails too
    x = float(p.sum())
    pmax = float(p.max())
    if x == 0.0:
        return BarbourHallBound(0.0, pmax)
    bound = -math.expm1(-x) / x * float(np.dot(p, p))
    return BarbourHallBound(bound, pmax)


def borisov_ruzankin_bound(mean: float, nu: float, max_prob: float) -> float:
    """Bound on ``|E h(S) - E h(Poisson(mean))|`` for a Bernoulli sum S.

    ``nu`` bounds the expected absolute second difference of h under the
    Poisson law and ``max_prob`` is the largest success probability.
    """
    if not max_prob < 1.0:
        raise DomainError("max_prob must be below 1")
    if not (max_prob >= 0 and mean >= 0 and nu >= 0):
        raise DomainError("mean, nu and max_prob must be nonnegative")
    return 0.5 * mean * nu * max_prob * math.exp(max_prob) / (1.0 - max_prob) ** 2


# ---------------------------------------------------------------------------
# certified expectations under exponential growth envelopes


_log_factorials = np.zeros(1)  # log k! for k = 0, 1, ...: math.lgamma values, grown on demand


def _log_factorial(k):
    """``log k!`` elementwise for integers 0 <= k <= _SERIES_LIMIT + 1, from a table
    that at least doubles when it grows; a larger k raises ``PrecisionError``."""
    global _log_factorials
    table, top = _log_factorials, int(np.max(k))
    if top >= table.size:
        if top > _SERIES_LIMIT + 1:
            raise PrecisionError("Poisson series past its certified limit")
        size = min(max(2 * table.size, top + 1), _SERIES_LIMIT + 2)
        table = _log_factorials = np.array([math.lgamma(j + 1.0) for j in range(size)])
    return table[k]


def _log_poisson_sf(k, means: np.ndarray) -> np.ndarray:
    """Upper bound on ``log P(Poisson(mean) > k)``, elementwise, never -inf by underflow.

    The tail is at most its first term ``p(k+1)`` times the geometric series
    of ratio ``mean / (k+2)``, which bounds the ratio of each term to the
    one before.  Where that ratio reaches 1, or the bound exceeds 1, the
    bound is 0 (a tail of at most 1): ``fmin`` takes 0 over the NaN of a
    ratio above 1, and over that of ``0 * log 0`` at k = -1 and mean 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (k + 1.0) * np.log(means) - means - _log_factorial(k + 1)
        return np.fmin(first - np.log1p(-means / (k + 2.0)), 0.0)


def exp_weighted_poisson_tail(mean, k_max, rate, scale):
    """Certified bound on ``sum_{k > k_max} scale * e^{rate k} * Poisson_mean(k)``.

    Uses the exponential tilt: the weighted tail equals
    ``scale * e^{mean (e^rate - 1)}`` times a Poisson(mean * e^rate) tail.
    The bound is formed in log space, so it never overflows on the way; a
    bound beyond ``e^709`` comes back as inf.  Arguments (``k_max`` too)
    broadcast against each other; the result is a float for scalar arguments.
    A ``k_max`` past ``_SERIES_LIMIT`` raises ``PrecisionError``.
    """
    mean, rate, scale = (np.asarray(v, dtype=float) for v in (mean, rate, scale))
    args = np.concatenate((mean.ravel(), rate.ravel(), scale.ravel()))
    if not (args.min() >= 0.0 and args.max() < np.inf):
        raise DomainError("mean, rate and scale must be finite and nonnegative")
    if rate.max() > MAX_RATE:
        raise PrecisionError("growth-envelope rate too large to certify tails")
    with np.errstate(divide="ignore"):  # a zero scale has log -inf
        terms = (np.log(scale), mean * np.expm1(rate), _log_poisson_sf(k_max, mean * np.exp(rate)))
    log_bound = terms[0] + terms[1] + terms[2]
    # the round trip through log space costs a few ulps of the terms: round up by them
    finite = np.isfinite(log_bound)
    slack = _LOG_ROUND_UP * (1.0 + sum(np.abs(np.where(finite, t, 0.0)) for t in terms))
    log_bound = np.where(finite, log_bound + slack, log_bound)
    bound = np.where(log_bound < _LOG_HUGE, np.exp(np.minimum(log_bound, _LOG_HUGE)), np.inf)
    return float(bound) if bound.ndim == 0 else bound


def _poisson_weights(means: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Poisson(mean) masses on ``ks = 0..K``, one row per mean, for a K that
    ``_truncation`` returned: past it every tail is below 2^-60.

    Exponentiated from the log-pmf and normalised to sum 1, so each row sums
    to the exact mass ``P(X <= K)`` to within 2^-60: the large cancelling
    terms of the log-pmf at big means leave no error in the overall scale,
    and ``e^{-mean}`` is never formed on its own, so means where it
    underflows keep their mass.
    """
    w = np.multiply.outer(np.log(np.where(means > 0.0, means, 1.0)), ks)
    w -= _log_factorial(ks)
    w -= means[:, None]
    np.exp(w, out=w)
    zero = means == 0.0
    if zero.any():
        w[zero] = ks == 0
    w *= (1.0 / w.sum(axis=1))[:, None]
    return w


def _truncation(means: np.ndarray, rate, scale, tol: float) -> tuple[int, np.ndarray]:
    """One truncation point K for every mean, and each mean's certified tail bound there.

    K starts t = 10 sqrt(top + 1) + 20 above the largest mean, top, and doubles
    until every envelope-weighted tail (``exp_weighted_poisson_tail``) drops
    below ``tol``; past ``_SERIES_LIMIT`` the series is not certified.  Every
    untilted tail there is below e^-45 < 2^-60, by Bernstein's inequality
    ``P(X >= mean + t) <= exp(-t^2 / (2 (mean + t / 3)))`` for every mean <= top.
    """
    top = float(means.max(initial=0.0))
    if not (top < np.inf and means.min(initial=0.0) >= 0.0):
        raise DomainError("Poisson mean must be finite and nonnegative")
    k_max = int(top + 10.0 * math.sqrt(top + 1.0) + 20.0)
    while True:
        err = exp_weighted_poisson_tail(means, k_max, rate, scale)
        if err.max(initial=0.0) < tol:
            return k_max, err
        k_max *= 2
        if k_max > _SERIES_LIMIT:
            raise PrecisionError("cannot certify Poisson expectation under this envelope")


def poisson_expect(mean, h, rate, scale, tol: float = TAIL_TOL) -> Expectation:
    """Certified ``E[h(X)]`` for ``X ~ Poisson(mean)``, with ``|h(k)| <= scale e^{rate k}``.

    ``mean`` is a scalar or a vector of means; ``rate`` and ``scale`` give one
    envelope for all of them or one per mean.  A single truncation point K,
    shared by every mean, is doubled until each envelope-weighted tail drops
    below ``tol``; the returned error is that certified tail bound.  ``h``
    maps the integers ``0..K`` to one row of values shared by every mean, or
    to one row per mean.  Value and error are floats for a scalar mean and
    arrays otherwise.
    """
    means = np.asarray(mean, dtype=float)
    if means.ndim > 1:
        raise DomainError("Poisson means must form a scalar or a vector")
    scalar = means.ndim == 0
    means = means.reshape(-1)
    k_max, err = _truncation(means, rate, scale, tol)
    ks = np.arange(k_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        hv = _eval_on(h, ks, rows=means.size)
    overflow = ~np.isfinite(hv)
    if overflow.any():
        # A shared K can reach far past where a fast-growing h stays finite
        # (inf, or nan for a difference of infs).  Those terms are dropped,
        # and the envelope bounds what they held.
        first = np.where(overflow.any(axis=-1), overflow.argmax(axis=-1), ks.size)
        err = err + exp_weighted_poisson_tail(means, first - 1, rate, scale)
        if err.max() >= tol:
            raise PrecisionError("the expected function overflows on the truncation range")
        hv = np.where(overflow, 0.0, hv)
    value = np.empty(means.size)
    step = max(1, _BLOCK_ENTRIES // ks.size)
    for lo in range(0, means.size, step):
        w = _poisson_weights(means[lo:lo + step], ks)
        value[lo:lo + step] = (w @ hv if hv.ndim == 1
                               else np.einsum("ij,ij->i", w, hv[lo:lo + step]))
    if scalar:
        return Expectation(float(value[0]), float(err[0]))
    return Expectation(value, err)

