"""The Poisson limit of Bernoulli congestion games.

Auxiliary costs replace an integer-domain cost c by its Poisson mixture
``x -> E[c(1 + X)]`` with ``X ~ Poisson(x)``; the resulting nonatomic game
captures the behaviour of unit-weight players with vanishing participation
probabilities.  This module certifies the series evaluation through declared
growth envelopes, evaluates the values of a polynomial base's mixture, in the
solvers' batch and one cost at a time, by its exact polynomial, and assembles
every constant used in the convergence-rate bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from .core import DemandVector, PolynomialCost, Structure, _check_demand, _integer_arg
from .discrete_dist import MAX_RATE, borisov_ruzankin_bound, poisson_expect
from .errors import ConfigError, DomainError, PrecisionError
from .wardrop import demand_perturbation_bound, strategy_cost_cap

DEFAULT_ALPHA_HEADROOM = 1.5  # demand cap defaults to this multiple of the total demand
_MIN_SUM_RATE = 1e-3  # least envelope rate of an auxiliary cost's running sum
_ALL = slice(None)  # every row of an _AuxSeries


class LimitGame(NamedTuple):
    structure: Structure  # same layout, AuxCost on every resource
    demand: DemandVector
    alpha: float


class RateBounds(NamedTuple):
    point: float  # distance of one equilibrium to the limit
    sequence: float  # point bound plus the demand-gap term


def _require_integer_cost(cost) -> tuple[float, float]:
    """(rate, scale) of an exponential majorant of the cost's growth envelope.

    The series bound ``k -> c(1 + k)`` by scale e^rate e^(rate k).  This is the
    one gate of auxiliary costs: where the envelope or its majorant cannot be
    formed in floats, scale e^rate is not finite, or the rate is above
    ``MAX_RATE``, no series of the cost can be certified: ``PrecisionError``.
    """
    if not getattr(cost, "has_integer_eval", False):
        raise PrecisionError("auxiliary costs need an integer-domain base cost")
    try:
        rate, scale = cost.growth_envelope().exp_majorant()
        certifiable = math.isfinite(scale * math.exp(rate)) and rate <= MAX_RATE
    except AttributeError:
        raise PrecisionError("base cost declares no growth envelope") from None
    except (DomainError, OverflowError):
        certifiable = False
    if not certifiable:
        raise PrecisionError(f"the base cost's growth envelope leaves the float range or has "
                             f"a rate above {MAX_RATE:g}: no series of it can be certified")
    return rate, scale


def _loads(x) -> np.ndarray:
    """Loads as a float array; a negative, NaN or infinite one raises ``DomainError``."""
    x = np.asarray(x, dtype=float)
    if not (x.min(initial=0.0) >= 0.0 and x.max(initial=0.0) < np.inf):
        raise DomainError("auxiliary costs are defined for finite, nonnegative loads")
    return x


def _poisson_polynomial(coeffs) -> tuple[float, ...]:
    """Ascending coefficients of ``x -> E c(1 + X)``, X ~ Poisson(x), for c = sum_k a_k y^k.

    Touchard's identity E X^(j) = x^j for the falling factorial X^(j), with
    (1 + X)^k = sum_j C(k, j) sum_i S(j, i) X^(i), gives the row
    b_i = sum_k a_k sum_{j=i..k} C(k, j) S(j, i) = sum_k a_k S(k + 1, i + 1),
    S the Stirling numbers of the second kind, exact integers here.  Every
    term is nonnegative, one rounded product summed by ``fsum``.  Every b_i is
    finite: it is at most sum(a) B(d + 1), B the Bell numbers and d the degree
    of the highest nonzero a_k, below the scale e^rate = sum(a) d! e^2 that
    ``_require_integer_cost`` found finite.  Zero coefficients are skipped, so
    no Stirling number past that degree is formed as a float.
    """
    top = len(coeffs)
    stirling = [[1]]  # stirling[n][m] = S(n, m), by S(n, m) = m S(n-1, m) + S(n-1, m-1)
    for n in range(1, top + 1):
        prev = stirling[-1] + [0]
        stirling.append([0] + [m * prev[m] + prev[m - 1] for m in range(1, n + 1)])
    return tuple(math.fsum(a * stirling[k + 1][i + 1] for k, a in enumerate(coeffs[i:], i) if a)
                 for i in range(top))


class _AuxSeries:
    """Poisson mixtures of one or more integer costs, one certified series per call.

    Row i holds a base cost c_i, its table ``c_i(1..n)`` (grown on demand and
    shared by every call) and the envelope ``(rate_i, scale_i)`` of
    ``k -> c_i(1 + k)``.  Each method makes one ``poisson_expect`` call.
    An index array ``idx`` (every row by default) evaluates the rows it
    selects at one load each, as ``CostBatch`` asks; an integer ``idx``
    evaluates that one row at any vector of loads, as ``AuxCost`` asks.
    """

    def __init__(self, bases):
        envelopes = np.array([_require_integer_cost(b) for b in bases], dtype=float)
        self.bases = tuple(bases)
        self._rate = envelopes[:, 0]
        self._scale = envelopes[:, 1] * np.exp(self._rate)
        self._table = np.zeros((len(self.bases), 0))

    def _rows(self, n: int, idx) -> np.ndarray:
        """``c_i(1..n)`` for the rows ``idx`` selects."""
        table = self._table
        if table.shape[1] < n:
            ks = np.arange(1, max(n, 2 * table.shape[1]) + 1)
            table = np.array([np.asarray(b.value_int(ks), dtype=float) for b in self.bases])
            self._table = table
        return table[idx, :n]

    def _order_scale(self, order: int) -> np.ndarray:
        """Envelope scale of the order-th forward difference of ``k -> c(1 + k)``."""
        # |sum_j binom(order, j) (-1)^(order-j) c(1+k+j)| <= (1 + e^rate)^order scale e^{rate k}
        with np.errstate(over="ignore"):  # inf, not OverflowError, past the float range
            scale = (np.float64(2.0) ** order) * self._scale * np.exp(self._rate * order)
        if not np.isfinite(scale).all():
            raise PrecisionError(f"the growth envelope of difference order {order} is not finite")
        return scale

    def _expect(self, x, h, rate, scale):
        x = _loads(x)
        value = poisson_expect(x, h, rate, scale).value
        return float(value) if x.ndim == 0 else value

    def _stacked(self, x, idx, orders, absolute: bool = False) -> np.ndarray:
        """``E Δ^j c_i(1 + X_i)`` for each order j in ``orders``: one row per order.

        ``X_i ~ Poisson(x_i)``, one load per row ``idx`` selects.  Since
        d/dx E f(1 + X) = E Δf(1 + X), order j is the j-th load-derivative of
        the value.  Every order shares one series and its certified tails.
        With ``absolute`` set, ``E |Δ^j c_i(1 + X_i)|`` instead.
        """
        top = max(orders)

        def differences(ks):
            table = self._rows(ks.size + top, idx)
            rows = np.concatenate([np.diff(table, n=j)[:, :ks.size] for j in orders])
            return np.abs(rows) if absolute else rows

        rate = np.tile(self._rate[idx], len(orders))
        scale = np.concatenate([self._order_scale(j)[idx] for j in orders])
        return self._expect(np.tile(x, len(orders)), differences, rate,
                            scale).reshape(len(orders), -1)

    def values(self, x, idx=_ALL):
        """``E c(1 + X)`` for ``X ~ Poisson(x)``."""
        return self._expect(x, lambda ks: self._rows(ks.size, idx), self._rate[idx],
                            self._scale[idx])

    def derivatives(self, x, order: int = 1):
        """E of the order-th forward difference of c at ``1 + Poisson(x)``."""
        order = _integer_arg(order, "derivative order", 1)
        return self._expect(x, lambda ks: np.diff(self._rows(ks.size + order, 0), n=order),
                            self._rate, self._order_scale(order))

    def value_slopes(self, x, idx=_ALL) -> np.ndarray:
        return self._stacked(x, idx, (0, 1))

    def marginal_slopes(self, x, idx=_ALL) -> np.ndarray:
        value, slope, curvature = self._stacked(x, idx, (0, 1, 2))
        return np.stack((value + x * slope, 2.0 * slope + x * curvature))

    def value_slopes_at(self, idx, xs) -> list:
        """A segment's scalar route: one series over the rows ``idx``."""
        return self.value_slopes(np.array(xs), np.array(idx)).tolist()

    def marginal_slopes_at(self, idx, xs) -> list:
        return self.marginal_slopes(np.array(xs), np.array(idx)).tolist()

    def integrals(self, x, idx=_ALL):
        """Integral of ``values`` from 0 to x, as ``E C(X)`` with ``C(j) = sum_{k<j} c(1+k)``.

        Termwise, ``int_0^x e^{-u} u^k / k! du = P(Poisson(x) >= k+1)``.  The
        envelope of C is ``scale e^{rate j} / (e^rate - 1)``.  Any rate at least
        the declared one bounds c too, so the rate is floored at
        ``_MIN_SUM_RATE``: a bounded cost (rate 0) gets an envelope, and a tiny
        rate no quotient past the float range.
        """
        rate = np.maximum(self._rate[idx], _MIN_SUM_RATE)
        with np.errstate(over="ignore"):  # inf, not a warning, past the float range
            scale = self._scale[idx] / np.expm1(rate)
        if not np.isfinite(scale).all():
            raise PrecisionError("the growth envelope of the running sum is not finite")

        def running_sum(ks):
            rows = self._rows(ks.size - 1, idx)
            zero = np.zeros(rows.shape[:-1] + (1,))
            return np.concatenate((zero, np.cumsum(rows, axis=-1)), axis=-1)

        return self._expect(x, running_sum, rate, scale)


class AuxCost:
    """Poisson mixture of an integer cost: value(x) = sum_k c(1+k) e^{-x} x^k / k!.

    Over a ``PolynomialCost`` base the mixture is itself a polynomial with
    nonnegative coefficients (``_poisson_polynomial``), held as the
    ``PolynomialCost`` ``_poisson``; over any other base there is none.
    ``value``, ``values_on_grid`` (and so ``value_int``) and ``stack`` read
    that polynomial by Horner's rule, exact up to rounding and bit for bit
    alike.  Every other evaluation, and every evaluation over another base,
    is one vector Poisson series (``_AuxSeries``), certified against the
    base cost's growth envelope to ``discrete_dist.TAIL_TOL``, the one tail
    tolerance of the package.  ``integral`` keeps the series over polynomial
    bases too: the benchmark's tracer requires the series kernels to be
    called (ROADMAP item 1), and ``integral`` is their last caller on the
    nonatomic workload.
    """

    is_continuous = True
    has_integer_eval = True

    def __init__(self, base):
        self.base = base
        self._series = _AuxSeries((base,))
        self._poisson = (PolynomialCost(_poisson_polynomial(base.coeffs))
                         if isinstance(base, PolynomialCost) else None)

    @staticmethod
    def stack(cost_fns):
        """The given auxiliary costs as one ``CostBatch`` evaluator.

        When every base is a ``PolynomialCost`` (``_poisson`` is None just for
        other bases), the evaluator is ``PolynomialCost.stack`` over their
        Poisson polynomials: Horner's rule, exact up to rounding, with no
        series and no tail.  Otherwise it is one series over every base.

        The solvers score each sweep on this evaluator's whole-vector methods,
        as do the potential history of ``solve_wardrop`` and the linearization
        gap of ``solve_social_optimum``; their line searches read its scalar
        route (``value_slopes_at``, ``marginal_slopes_at``), the same entries
        as Python floats.  The other numbers they return are
        recomputed through the per-resource methods below: the epsilon of
        ``solve_wardrop`` and the value of ``solve_social_optimum`` through
        ``value``, so from the same polynomial, and the potential of
        ``solve_wardrop`` through ``integral``, which keeps the series, as do
        ``derivative``, ``marginal``, ``social_cost_convex_on`` and
        ``regularity_constants``.  Moving those to the polynomial waits on
        the benchmark revision (ROADMAP item 1), whose tracer requires the
        series kernels to be called.
        """
        if all(c._poisson is not None for c in cost_fns):
            return PolynomialCost.stack([c._poisson for c in cost_fns])
        return _AuxSeries(tuple(c.base for c in cost_fns))

    def _values(self, x):
        """The one route of ``value`` and ``values_on_grid``: the Poisson
        polynomial by Horner's rule when there is one, else one series.

        A negative, NaN or infinite load raises ``DomainError``, and a value
        past the float range ``PrecisionError``.
        """
        if self._poisson is None:
            return self._series.values(x, 0)
        x = _loads(x)
        with np.errstate(over="ignore"):  # inf, not a warning, past the float range
            value = self._poisson.value(x)
        if not np.isfinite(value).all():
            raise PrecisionError("the auxiliary cost leaves the float range at this load")
        return float(value) if x.ndim == 0 else value

    def value(self, x):
        """At a load, or elementwise at an array of loads."""
        return self._values(x)

    def value_int(self, k):
        return self.value(float(k)) if np.isscalar(k) else self.values_on_grid(k)

    def values_on_grid(self, xs) -> np.ndarray:
        """Vectorized evaluation on a grid: one Horner pass over a polynomial
        base, one certified series over any other."""
        return self._values(np.asarray(xs, dtype=float).ravel())

    def derivative(self, x, order: int = 1):
        """E of the order-th forward difference of c at 1 + Poisson(x), at a load or a grid."""
        return self._series.derivatives(x, order)

    def marginal(self, x: float) -> float:
        return self.value(x) + float(x) * self.derivative(float(x))

    def integral(self, x: float) -> float:
        """Integral of the auxiliary cost from 0 to x (for potential values)."""
        return self._series.integrals(float(x), 0)

    def social_cost_convex_on(self, hi: float) -> bool:
        """Grid check, on 65 points, that x * value(x) is convex on [0, hi]."""
        xs = np.linspace(0.0, float(hi), 65)
        return bool(np.all(2.0 * self.derivative(xs) + xs * self.derivative(xs, 2) >= -1e-9))

    def to_json(self) -> dict:
        return {"kind": "aux", "base": self.base.to_json()}


def resolve_alpha(demand: DemandVector, alpha: float | None = None) -> float:
    """The demand cap: ``alpha``, by default ``DEFAULT_ALPHA_HEADROOM`` times the
    total demand; a cap that is not finite, not positive or below the total
    demand raises ``DomainError``."""
    if alpha is None:
        alpha = DEFAULT_ALPHA_HEADROOM * max(demand.total, 1e-12)
    if not (math.isfinite(alpha) and alpha > 0.0 and alpha >= demand.total):
        raise DomainError(f"alpha {alpha} is not a finite, positive cap on the total "
                          f"demand {demand.total}")
    return float(alpha)


def build_limit_game(structure: Structure, demand: DemandVector,
                     alpha: float | None = None) -> LimitGame:
    """Nonatomic instance whose costs are the Poisson mixtures of the base costs.

    ``alpha`` caps the load range (see ``resolve_alpha``); an auxiliary cost that
    decreases on a 1,000-point grid over [0, alpha] raises ``PrecisionError``.
    Over a polynomial base the grid is one Horner pass of the Poisson
    polynomial, whose coefficients are nonnegative, so it cannot fail there.
    """
    _check_demand(structure, demand)
    alpha = resolve_alpha(demand, alpha)
    aux = tuple(AuxCost(c) for c in structure.cost_fns)
    grid = np.linspace(0.0, alpha, 1000)
    for cost in aux:
        if np.any(np.diff(cost.values_on_grid(grid)) < -1e-9):
            raise PrecisionError("auxiliary cost fails monotonicity on the check grid")
    return LimitGame(structure.with_costs(aux), demand, alpha)


# ---------------------------------------------------------------------------
# regularity constants and rate bounds


@dataclass(frozen=True, eq=False)
class BoundConstants:
    """Every constant entering the convergence-rate bounds.

    alpha      demand cap (total demand must not exceed it)
    beta       lower bound on the relevant cost slopes (resolved or overridden)
    nu         max over resources of E|second difference of c at 1 + Poisson(alpha)|
    zeta       Lipschitz bound for the auxiliary costs: (e^alpha - 1) nu + max c(2)-c(1)
    slope_min  smallest derivative of the continuous costs on [0, alpha]
    slope_max  largest derivative of the continuous costs on [0, alpha]
    gamma      bound on |c''| on [0, alpha] for smooth costs
    kappa      cardinality of the largest strategy
    c_cap      largest strategy cost with all loads at alpha (raw costs)
    c_cap_aux  same under the auxiliary costs

    Fields are None when the structure's costs do not support them.
    """

    alpha: float
    kappa: int
    beta: float | None = None
    beta_source: str | None = None
    nu: float | None = None
    zeta: float | None = None
    slope_min: float | None = None
    slope_max: float | None = None
    gamma: float | None = None
    c_cap: float | None = None
    c_cap_aux: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise DomainError("alpha must be finite and positive")
        if self.beta is not None and not 0.0 < self.beta < math.inf:
            raise DomainError("beta must be finite and positive when set")

    @property
    def weighted_beta(self) -> float | None:
        """The lower bound on the raw cost slopes that the weighted bounds divide by.

        The ``first-difference`` beta bounds the auxiliary costs' slopes, not
        the raw ones, so in its place the weighted model takes ``slope_min``
        when that is positive, and has no beta otherwise.
        """
        if self.beta_source != "first-difference":
            return self.beta
        return self.slope_min if self.slope_min is not None and self.slope_min > 0 else None

    @property
    def theta(self) -> float | None:
        """Weighted-model rate constant sqrt(alpha/4) + sqrt(2 a k (zeta + gamma a/4)/beta)."""
        zeta = self.slope_max if self.slope_max is not None else self.zeta
        beta = self.weighted_beta
        if None in (beta, zeta, self.gamma):
            return None
        inner = 2.0 * self.alpha * self.kappa * (zeta + self.gamma * self.alpha / 4.0) / beta
        return math.sqrt(self.alpha / 4.0) + math.sqrt(inner)

    @property
    def xi(self) -> float | None:
        """Weighted-model constant sqrt(2 c_cap / beta), the demand-gap factor."""
        beta = self.weighted_beta
        if beta is None or self.c_cap is None:
            return None
        return demand_perturbation_bound(self.c_cap, beta, 1.0)

    @property
    def theta_hat(self) -> float | None:
        """Bernoulli-model rate constant sqrt(2 alpha kappa / beta)."""
        if self.beta is None:
            return None
        return math.sqrt(2.0 * self.alpha * self.kappa / self.beta)

    @property
    def xi_hat(self) -> float | None:
        """Bernoulli-model constant sqrt(2 c_cap_aux / beta), the demand-gap factor."""
        if self.beta is None or self.c_cap_aux is None:
            return None
        return demand_perturbation_bound(self.c_cap_aux, self.beta, 1.0)


def regularity_constants(structure: Structure, alpha: float, *,
                         beta_override: float | None = None) -> BoundConstants:
    """Compute every rate-bound constant the structure's costs support.

    beta resolution: an explicit override wins; otherwise the exact slope when
    every cost is a polynomial without curvature on [0, alpha]; otherwise the
    fallback ``min[c(2)-c(1)] * e^{-alpha}`` when positive.  Structures mixing
    constant resources with increasing ones end up with no derivable beta, and
    bound evaluation then needs an override.  The weighted bounds never take
    the fallback (see ``weighted_beta``).
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError("alpha must be finite and positive")
    costs = structure.cost_fns
    kappa = structure.max_strategy_size

    try:
        series = _AuxSeries(costs)
        rows = np.arange(len(costs))
        at_alpha = np.full(len(costs), float(alpha))
        curvature = series._stacked(at_alpha, rows, (2,), absolute=True)[0]
        value = series.values(at_alpha, rows)
    except PrecisionError:
        nu = zeta = c_cap_aux = delta1_min = None
    else:
        nu = float(curvature.max())
        delta1 = np.diff(series._rows(2, rows), axis=1)[:, 0]
        zeta = _lipschitz_bound(alpha, nu, float(delta1.max()))
        delta1_min = float(delta1.min())
        c_cap_aux = float((structure.incidence @ value).max())

    slope_min = slope_max = gamma = c_cap = None
    if all(isinstance(c, PolynomialCost) for c in costs):
        ranges = [c.slope_range(alpha) for c in costs]
        slope_min = min(r[0] for r in ranges)
        slope_max = max(r[1] for r in ranges)
        gamma = max(c.curvature_max(alpha) for c in costs)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan past the float range
            c_cap = strategy_cost_cap(structure, alpha)
        if not all(map(math.isfinite, (slope_max, gamma, c_cap))):
            slope_min = slope_max = gamma = c_cap = None

    if beta_override is not None:  # BoundConstants checks it
        beta, beta_source = float(beta_override), "override"
    elif gamma == 0.0 and slope_min > 0:  # every cost affine on [0, alpha]
        beta, beta_source = slope_min, "affine"
    elif delta1_min is not None and delta1_min * math.exp(-alpha) > 0:
        beta, beta_source = delta1_min * math.exp(-alpha), "first-difference"
    else:
        beta, beta_source = None, None

    return BoundConstants(alpha=float(alpha), kappa=int(kappa), beta=beta,
                          beta_source=beta_source, nu=nu, zeta=zeta,
                          slope_min=slope_min, slope_max=slope_max, gamma=gamma,
                          c_cap=c_cap, c_cap_aux=c_cap_aux)


def _lipschitz_bound(alpha: float, nu: float, delta1_max: float) -> float | None:
    """zeta = (e^alpha - 1) nu + max c(2)-c(1), or None when it exceeds the float range."""
    if nu == 0.0:
        return delta1_max
    try:
        zeta = math.expm1(alpha) * nu + delta1_max
    except OverflowError:
        return None
    return zeta if math.isfinite(zeta) else None


def lambda_bound(constants: BoundConstants, r: float) -> float:
    """Gap between exact conditional costs and the auxiliary cost at max prob ``r``.

    Evaluates the Borisov-Ruzankin term (alpha nu / 2) r e^r / (1-r)^2
    (``borisov_ruzankin_bound``) plus zeta r; zero participation is allowed as
    the continuous limit.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError("r must lie in [0, 1)")
    if constants.nu is None or constants.zeta is None:
        raise ConfigError("lambda bound needs nu and zeta (integer-domain costs)")
    if r == 0.0:
        return 0.0
    return borisov_ruzankin_bound(constants.alpha, constants.nu, r) + constants.zeta * r


def rate_bounds(constants: BoundConstants, model: str, param: float,
                demand_gap_l1: float = 0.0) -> RateBounds:
    """Distance bounds for one game (point) and along a sequence (with demand gap).

    weighted:  Theta sqrt(w)         and  + Xi sqrt(gap)   (L2 load distance)
    bernoulli: r + Theta^ sqrt(Lambda(r)) and + Xi^ sqrt(gap)  (total variation)
    with w finite and positive, r in [0, 1) and gap finite and nonnegative.
    """
    if not 0.0 <= demand_gap_l1 < math.inf:
        raise DomainError("demand gap must be finite and nonnegative")
    if model == "weighted":
        if not 0.0 < param < math.inf:
            raise DomainError("the max weight must be finite and positive")
        if constants.theta is None:
            raise ConfigError("weighted bounds need a positive lower bound beta on the raw "
                              "cost slopes (or an override), zeta and gamma")
        point = constants.theta * math.sqrt(param)
        if demand_gap_l1 > 0 and constants.xi is None:
            raise ConfigError("the sequence bound needs the strategy cost cap")
        seq = point + (constants.xi or 0.0) * math.sqrt(demand_gap_l1)
        return RateBounds(point, seq)
    if model == "bernoulli":
        if constants.theta_hat is None:
            raise ConfigError("bernoulli bounds need beta")
        point = param + constants.theta_hat * math.sqrt(lambda_bound(constants, param))
        if demand_gap_l1 > 0 and constants.xi_hat is None:
            raise ConfigError("the sequence bound needs the auxiliary cost cap")
        seq = point + (constants.xi_hat or 0.0) * math.sqrt(demand_gap_l1)
        return RateBounds(point, seq)
    raise DomainError(f"unknown model {model!r}")


def poa_polynomial_bound(degree: int) -> float:
    """Anarchy bound for nonatomic games with polynomial costs of the given degree."""
    d = float(_integer_arg(degree, "degree", 1))
    top = (d + 1.0) * (d + 1.0) ** (1.0 / d)
    return top / (top - d)
