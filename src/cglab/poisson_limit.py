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
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import stats

from .core import AffineCost, DemandVector, PolynomialCost, Structure
from .discrete_dist import (exp_weighted_poisson_survival_tail,
                            exp_weighted_poisson_tail, poisson_expect)
from .errors import ConfigError, DomainError, PrecisionError

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


class AuxCost:
    """Poisson mixture of an integer cost: value(x) = sum_k c(1+k) e^{-x} x^k / k!.

    Series truncation is certified against the base cost's growth envelope so
    each evaluation is accurate to ``tail_tol``.  Evaluations are memoized
    behind a lock, and instances are otherwise immutable.
    """

    is_continuous = True
    has_integer_eval = True

    def __init__(self, base, tail_tol: float = DEFAULT_TAIL_TOL,
                 domain_cap: float | None = None):
        if not 0.0 < tail_tol < 1.0:
            raise DomainError("tail_tol must lie in (0, 1)")
        rate, scale = _require_integer_cost(base)
        self.base = base
        self.tail_tol = float(tail_tol)
        self.domain_cap = None if domain_cap is None else float(domain_cap)
        # envelope of k -> c(1 + k)
        self._rate = rate
        self._scale = scale * math.exp(rate)
        self._cache: dict[tuple[str, float], float] = {}
        self._lock = threading.Lock()
        if self.domain_cap is not None:
            grid = self.values_on_grid(np.linspace(0.0, self.domain_cap, 1000))
            if np.any(np.diff(grid) < -1e-9):
                raise PrecisionError("auxiliary cost fails monotonicity on the check grid")

    def _truncation(self, mean: float) -> int:
        k_max = int(mean + 10.0 * math.sqrt(mean + 1.0) + 20.0)
        while exp_weighted_poisson_tail(mean, k_max, self._rate, self._scale) >= self.tail_tol:
            k_max *= 2
            if k_max > 1_000_000:
                raise PrecisionError("cannot certify the auxiliary-cost series")
        return k_max

    def value(self, x: float) -> float:
        x = float(x)
        if x < 0:
            raise DomainError("auxiliary costs are defined for nonnegative loads")
        with self._lock:
            hit = self._cache.get(("v", x))
        if hit is not None:
            return hit
        val = poisson_expect(x, lambda k: self.base.value_int(np.asarray(k) + 1),
                             self._rate, self._scale, self.tail_tol).value
        with self._lock:
            self._cache[("v", x)] = val
        return val

    def value_int(self, k):
        if np.isscalar(k):
            return self.value(float(k))
        return np.array([self.value(float(v)) for v in np.asarray(k).ravel()])

    def values_on_grid(self, xs) -> np.ndarray:
        """Vectorized evaluation on a grid, sharing one certified truncation."""
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return np.zeros(0)
        if float(xs.min()) < 0:
            raise DomainError("auxiliary costs are defined for nonnegative loads")
        k_max = self._truncation(float(xs.max()))
        ks = np.arange(k_max + 1)
        cvals = np.asarray(self.base.value_int(ks + 1), dtype=float)
        terms = np.empty((xs.size, k_max + 1))
        terms[:, 0] = np.exp(-xs)
        for k in range(1, k_max + 1):
            terms[:, k] = terms[:, k - 1] * xs / k
        return terms @ cvals

    def derivative(self, x: float, order: int = 1) -> float:
        """E of the order-th forward difference of c at 1 + Poisson(x)."""
        x = float(x)
        if x < 0:
            raise DomainError("auxiliary costs are defined for nonnegative loads")
        if order < 1:
            raise DomainError("derivative order must be at least 1")
        key = ("d%d" % order, x)
        with self._lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        base = self.base

        def diff(k):
            ks = np.asarray(k) + 1
            out = np.zeros(ks.shape, dtype=float)
            for j in range(order + 1):
                out = out + math.comb(order, j) * (-1.0) ** (order - j) \
                    * np.asarray(base.value_int(ks + j), dtype=float)
            return out

        rate = self._rate
        scale = (2.0 ** order) * self._scale * math.exp(rate * order)
        val = poisson_expect(x, diff, rate, scale, self.tail_tol).value
        with self._lock:
            self._cache[key] = val
        return val

    def marginal(self, x: float) -> float:
        return self.value(x) + float(x) * self.derivative(x)

    def integral(self, x: float) -> float:
        """Integral of the auxiliary cost from 0 to x (for potential values).

        Uses ``int_0^x e^{-u} u^k / k! du = P(Poisson(x) >= k+1)`` termwise.
        """
        x = float(x)
        if x < 0:
            raise DomainError("auxiliary costs are defined for nonnegative loads")
        if x == 0.0:
            return 0.0
        k_max = int(x + 10.0 * math.sqrt(x + 1.0) + 20.0)
        while exp_weighted_poisson_survival_tail(
                x, k_max, self._rate, self._scale) >= self.tail_tol:
            k_max *= 2
            if k_max > 1_000_000:
                raise PrecisionError("cannot certify the auxiliary-cost integral")
        ks = np.arange(k_max + 1)
        cvals = np.asarray(self.base.value_int(ks + 1), dtype=float)
        survival = stats.poisson.sf(ks, x)
        return float(np.dot(cvals, survival))

    def social_cost_convex_on(self, hi: float, points: int = 65) -> bool:
        """Grid check that x * value(x) is convex on [0, hi]."""
        for x in np.linspace(0.0, float(hi), points):
            if 2.0 * self.derivative(float(x)) + float(x) * self.derivative(float(x), 2) < -1e-9:
                return False
        return True

    def to_json(self) -> dict:
        return {"kind": "aux", "base": self.base.to_json(), "tail_tol": self.tail_tol}


def aux_cost_eval(aux: AuxCost, x: float) -> float:
    """Auxiliary cost value with certified error below the configured tail_tol."""
    return aux.value(x)


def aux_cost_derivative(aux: AuxCost, x: float, order: int = 1) -> float:
    """Derivative of the auxiliary cost via expected forward differences."""
    if order not in (1, 2):
        raise DomainError("only first and second derivatives are supported")
    return aux.derivative(x, order)


def build_limit_game(structure: Structure, demand: DemandVector,
                     tail_tol: float = DEFAULT_TAIL_TOL,
                     alpha: float | None = None) -> LimitGame:
    """Nonatomic instance whose costs are the Poisson mixtures of the base costs.

    ``alpha`` caps the load range used for validation; it defaults to 1.5
    times the total demand so the regularity machinery has headroom.
    """
    if alpha is None:
        alpha = DEFAULT_ALPHA_HEADROOM * max(demand.total, 1e-12)
    if alpha < demand.total:
        raise DomainError("alpha must be at least the total demand")
    aux = tuple(AuxCost(c, tail_tol=tail_tol, domain_cap=alpha) for c in structure.cost_fns)
    return LimitGame(structure.with_costs(aux), demand, float(alpha))


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
    def theta(self) -> float | None:
        """Weighted-model rate constant sqrt(alpha/4) + sqrt(2 a k (zeta + gamma a/4)/beta)."""
        zeta = self.slope_max if self.slope_max is not None else self.zeta
        if None in (self.beta, zeta, self.gamma):
            return None
        inner = 2.0 * self.alpha * self.kappa * (zeta + self.gamma * self.alpha / 4.0) / self.beta
        return math.sqrt(self.alpha / 4.0) + math.sqrt(inner)

    @property
    def xi(self) -> float | None:
        if self.beta is None or self.c_cap is None:
            return None
        return math.sqrt(2.0 * self.c_cap / self.beta)

    @property
    def theta_hat(self) -> float | None:
        """Bernoulli-model rate constant sqrt(2 alpha kappa / beta)."""
        if self.beta is None:
            return None
        return math.sqrt(2.0 * self.alpha * self.kappa / self.beta)

    @property
    def xi_hat(self) -> float | None:
        if self.beta is None or self.c_cap_aux is None:
            return None
        return math.sqrt(2.0 * self.c_cap_aux / self.beta)


def regularity_constants(structure: Structure, alpha: float, *,
                         beta_override: float | None = None,
                         tail_tol: float = 1e-12) -> BoundConstants:
    """Compute every rate-bound constant the structure's costs support.

    beta resolution: an explicit override wins; otherwise the exact slope for
    all-affine costs; otherwise the fallback ``min[c(2)-c(1)] * e^{-alpha}``
    when positive.  Structures mixing constant resources with increasing ones
    end up with no derivable beta, and bound evaluation then needs an override.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    costs = structure.cost_fns
    kappa = structure.max_strategy_size

    nu = zeta = c_cap_aux = None
    delta1_min = None
    integer_ok = all(getattr(c, "has_integer_eval", False) for c in costs)
    if integer_ok:
        try:
            nu = 0.0
            delta1 = []
            for c in costs:
                rate, scale = c.growth_envelope().exp_majorant()
                env_rate = rate
                env_scale = 4.0 * scale * math.exp(rate * 3.0)

                def second_diff(k, cost=c):
                    ks = np.asarray(k) + 1
                    return np.abs(np.asarray(cost.value_int(ks + 2), dtype=float)
                                  - 2.0 * np.asarray(cost.value_int(ks + 1), dtype=float)
                                  + np.asarray(cost.value_int(ks), dtype=float))

                nu = max(nu, poisson_expect(alpha, second_diff, env_rate, env_scale,
                                            tail_tol).value)
                delta1.append(float(c.value_int(2)) - float(c.value_int(1)))
            zeta = math.expm1(alpha) * nu + max(delta1)
            delta1_min = min(delta1)
            aux = [AuxCost(c, tail_tol=max(tail_tol, 1e-14)) for c in costs]
            x = np.array([a.value(alpha) for a in aux])
            c_cap_aux = float((structure.incidence @ x).max())
        except PrecisionError:
            nu = zeta = c_cap_aux = delta1_min = None
            integer_ok = False

    slope_min = slope_max = gamma = c_cap = None
    smooth = all(isinstance(c, (AffineCost, PolynomialCost)) for c in costs)
    if smooth:
        ranges = [c.slope_range(alpha) for c in costs]
        slope_min = min(r[0] for r in ranges)
        slope_max = max(r[1] for r in ranges)
        gamma = max(c.curvature_max(alpha) for c in costs)
        xa = np.array([float(c.value(alpha)) for c in costs])
        c_cap = float((structure.incidence @ xa).max())

    if beta_override is not None:
        if beta_override <= 0:
            raise DomainError("beta override must be positive")
        beta, beta_source = float(beta_override), "override"
    elif all(isinstance(c, AffineCost) for c in costs) and min(c.slope for c in costs) > 0:
        beta, beta_source = min(c.slope for c in costs), "affine"
    elif delta1_min is not None and delta1_min > 0:
        beta, beta_source = delta1_min * math.exp(-alpha), "first-difference"
    else:
        beta, beta_source = None, None

    return BoundConstants(alpha=float(alpha), kappa=int(kappa), beta=beta,
                          beta_source=beta_source, nu=nu, zeta=zeta,
                          slope_min=slope_min, slope_max=slope_max, gamma=gamma,
                          c_cap=c_cap, c_cap_aux=c_cap_aux)


def lambda_bound(constants: BoundConstants, r: float) -> float:
    """Gap between exact conditional costs and the auxiliary cost at max prob ``r``.

    Evaluates (alpha nu / 2) r e^r / (1-r)^2 + zeta r; zero participation is
    allowed as the continuous limit.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError("r must lie in [0, 1)")
    if constants.nu is None or constants.zeta is None:
        raise ConfigError("lambda bound needs nu and zeta (integer-domain costs)")
    if r == 0.0:
        return 0.0
    return (0.5 * constants.alpha * constants.nu * r * math.exp(r) / (1.0 - r) ** 2
            + constants.zeta * r)


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
            raise ConfigError("weighted bounds need beta, zeta and gamma")
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
