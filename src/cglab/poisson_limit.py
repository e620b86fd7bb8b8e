"""The Poisson limit of Bernoulli congestion games.

Auxiliary costs replace an integer-domain cost c by its Poisson mixture
``x -> E[c(1 + X)]`` with ``X ~ Poisson(x)``; the resulting nonatomic game
captures the behaviour of unit-weight players with vanishing participation
probabilities.  This module certifies the series evaluation through declared
growth envelopes and assembles every constant used in the convergence-rate
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from .core import ALL, AffineCost, DemandVector, PolynomialCost, Structure
from .discrete_dist import borisov_ruzankin_bound, poisson_expect
from .errors import ConfigError, DomainError, PrecisionError
from .wardrop import demand_perturbation_bound, strategy_cost_cap

DEFAULT_TAIL_TOL = 1e-10
DEFAULT_ALPHA_HEADROOM = 1.5  # demand cap defaults to this multiple of the total demand


class LimitGame(NamedTuple):
    structure: Structure  # same layout, AuxCost on every resource
    demand: DemandVector
    alpha: float


class RateBounds(NamedTuple):
    point: float  # distance of one equilibrium to the limit
    sequence: float  # point bound plus the demand-gap term


def _require_integer_cost(cost):
    if not getattr(cost, "has_integer_eval", False):
        raise PrecisionError("auxiliary costs need an integer-domain base cost")
    try:
        return cost.growth_envelope().exp_majorant()
    except PrecisionError:
        raise
    except AttributeError:
        raise PrecisionError("base cost declares no growth envelope") from None


class _AuxSeries:
    """Poisson mixtures of one or more integer costs, one certified series per call.

    Row i holds a base cost c_i, its table ``c_i(1..n)`` (grown on demand and
    shared by every call) and the envelope ``(rate_i, scale_i)`` of
    ``k -> c_i(1 + k)``.  Each method makes one ``poisson_expect`` call.
    Without ``idx`` a single row is evaluated at any vector of loads; with it,
    the rows ``idx`` selects at one load each, as ``CostBatch`` asks.
    """

    def __init__(self, bases, tail_tol: float):
        envelopes = np.array([_require_integer_cost(b) for b in bases], dtype=float)
        self.bases = tuple(bases)
        self.tail_tol = float(tail_tol)
        self._rate = envelopes[:, 0]
        self._scale = envelopes[:, 1] * np.exp(self._rate)
        self._table = np.zeros((len(self.bases), 0))

    def _rows(self, n: int, idx=None) -> np.ndarray:
        """``c_i(1..n)``: one row per entry of ``idx``, or without it the single row."""
        table = self._table
        if table.shape[1] < n:
            ks = np.arange(1, max(n, 2 * table.shape[1]) + 1)
            table = np.array([np.asarray(b.value_int(ks), dtype=float) for b in self.bases])
            self._table = table
        return table[0, :n] if idx is None else table[idx, :n]

    def _order_scale(self, order: int) -> np.ndarray:
        """Envelope scale of the order-th forward difference of ``k -> c(1 + k)``."""
        # |sum_j binom(order, j) (-1)^(order-j) c(1+k+j)| <= (1 + e^rate)^order scale e^{rate k}
        return (2.0 ** order) * self._scale * np.exp(self._rate * order)

    def _expect(self, x, h, rate, scale):
        x = np.asarray(x, dtype=float)
        if (x < 0).any():
            raise DomainError("auxiliary costs are defined for nonnegative loads")
        value = poisson_expect(x, h, rate, scale, self.tail_tol).value
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

    def values(self, x, idx=None):
        """``E c(1 + X)`` for ``X ~ Poisson(x)``."""
        if idx is not None:
            return self._stacked(x, idx, (0,))[0]
        return self._expect(x, lambda ks: self._rows(ks.size), self._rate, self._scale)

    def derivatives(self, x, order: int = 1):
        """E of the order-th forward difference of c at ``1 + Poisson(x)``."""
        if order < 1:
            raise DomainError("derivative order must be at least 1")
        return self._expect(x, lambda ks: np.diff(self._rows(ks.size + order), n=order),
                            self._rate, self._order_scale(order))

    def value_slopes(self, x, idx) -> np.ndarray:
        return self._stacked(x, idx, (0, 1))

    def marginals(self, x, idx) -> np.ndarray:
        value, slope = self._stacked(x, idx, (0, 1))
        return value + x * slope

    def marginal_slopes(self, x, idx) -> np.ndarray:
        value, slope, curvature = self._stacked(x, idx, (0, 1, 2))
        return np.stack((value + x * slope, 2.0 * slope + x * curvature))

    def integrals(self, x, idx=None):
        """Integral of ``values`` from 0 to x, as ``E C(X)`` with ``C(j) = sum_{k<j} c(1+k)``.

        Termwise, ``int_0^x e^{-u} u^k / k! du = P(Poisson(x) >= k+1)``.  The
        envelope of C is ``scale e^{rate j} / (e^rate - 1)``, or ``scale e^{j-1}``
        for a bounded cost (rate 0, using j <= e^{j-1}).
        """
        sel = ALL if idx is None else idx
        positive = self._rate[sel] > 0.0
        rate = np.where(positive, self._rate[sel], 1.0)
        scale = self._scale[sel] / np.where(positive, np.expm1(rate), math.e)

        def running_sum(ks):
            rows = self._rows(ks.size - 1, idx)
            zero = np.zeros(rows.shape[:-1] + (1,))
            return np.concatenate((zero, np.cumsum(rows, axis=-1)), axis=-1)

        return self._expect(x, running_sum, rate, scale)


class AuxCost:
    """Poisson mixture of an integer cost: value(x) = sum_k c(1+k) e^{-x} x^k / k!.

    Series truncation is certified against the base cost's growth envelope so
    each evaluation is accurate to ``tail_tol``.  Every method evaluates one
    vector Poisson series (``_AuxSeries``); the solvers evaluate all the
    auxiliary costs of a structure together through ``stack``.
    """

    is_continuous = True
    has_integer_eval = True

    def __init__(self, base, tail_tol: float = DEFAULT_TAIL_TOL,
                 domain_cap: float | None = None):
        if not 0.0 < tail_tol < 1.0:
            raise DomainError("tail_tol must lie in (0, 1)")
        self.base = base
        self.tail_tol = float(tail_tol)
        self.domain_cap = None if domain_cap is None else float(domain_cap)
        self._series = _AuxSeries((base,), self.tail_tol)
        if self.domain_cap is not None:
            grid = self.values_on_grid(np.linspace(0.0, self.domain_cap, 1000))
            if np.any(np.diff(grid) < -1e-9):
                raise PrecisionError("auxiliary cost fails monotonicity on the check grid")

    @staticmethod
    def stack(cost_fns) -> _AuxSeries:
        """All the given auxiliary costs as one series, certified to the smallest tail_tol."""
        return _AuxSeries(tuple(c.base for c in cost_fns), min(c.tail_tol for c in cost_fns))

    def value(self, x):
        """At a load, or elementwise at an array of loads."""
        return self._series.values(x)

    def value_int(self, k):
        return self.value(float(k)) if np.isscalar(k) else self.values_on_grid(k)

    def values_on_grid(self, xs) -> np.ndarray:
        """Vectorized evaluation on a grid, sharing one certified truncation."""
        return self._series.values(np.asarray(xs, dtype=float).ravel())

    def derivative(self, x, order: int = 1):
        """E of the order-th forward difference of c at 1 + Poisson(x), at a load or a grid."""
        return self._series.derivatives(x, order)

    def marginal(self, x: float) -> float:
        return self.value(x) + float(x) * self.derivative(float(x))

    def integral(self, x: float) -> float:
        """Integral of the auxiliary cost from 0 to x (for potential values)."""
        return self._series.integrals(float(x))

    def social_cost_convex_on(self, hi: float) -> bool:
        """Grid check, on 65 points, that x * value(x) is convex on [0, hi]."""
        xs = np.linspace(0.0, float(hi), 65)
        return bool(np.all(2.0 * self.derivative(xs) + xs * self.derivative(xs, 2) >= -1e-9))

    def to_json(self) -> dict:
        return {"kind": "aux", "base": self.base.to_json(), "tail_tol": self.tail_tol}


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
                     tail_tol: float = DEFAULT_TAIL_TOL,
                     alpha: float | None = None) -> LimitGame:
    """Nonatomic instance whose costs are the Poisson mixtures of the base costs.

    ``alpha`` caps the load range used for validation (see ``resolve_alpha``).
    """
    alpha = resolve_alpha(demand, alpha)
    aux = tuple(AuxCost(c, tail_tol=tail_tol, domain_cap=alpha) for c in structure.cost_fns)
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
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")
        if self.beta is not None and self.beta <= 0:
            raise DomainError("beta must be positive when set")

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
                         beta_override: float | None = None,
                         tail_tol: float = 1e-12) -> BoundConstants:
    """Compute every rate-bound constant the structure's costs support.

    beta resolution: an explicit override wins; otherwise the exact slope for
    all-affine costs; otherwise the fallback ``min[c(2)-c(1)] * e^{-alpha}``
    when positive.  Structures mixing constant resources with increasing ones
    end up with no derivable beta, and bound evaluation then needs an override.
    The weighted bounds never take the fallback (see ``weighted_beta``).
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    costs = structure.cost_fns
    kappa = structure.max_strategy_size

    try:
        series = _AuxSeries(costs, tail_tol)
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
        c_cap = strategy_cost_cap(structure, alpha)

    if beta_override is not None:
        if beta_override <= 0:
            raise DomainError("beta override must be positive")
        beta, beta_source = float(beta_override), "override"
    elif all(isinstance(c, AffineCost) for c in costs) and min(c.slope for c in costs) > 0:
        beta, beta_source = min(c.slope for c in costs), "affine"
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
    """
    if demand_gap_l1 < 0:
        raise DomainError("demand gap must be nonnegative")
    if model == "weighted":
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
    if not isinstance(degree, (int, np.integer)) or degree < 1:
        raise DomainError("degree must be an integer >= 1")
    d = float(degree)
    top = (d + 1.0) * (d + 1.0) ** (1.0 / d)
    return top / (top - d)
