"""Games with population uncertainty and their Poisson-game equilibria.

Players know the joint distribution of how many players of each type are
active, not who they are, and all players of one type share a mixed strategy.
Independent Poisson counts are the special case whose posterior (seen by an
active player) coincides with the prior; Bernoulli-product counts converge to
that case as participation probabilities vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (USAGE_TOL, DemandVector, Structure, _check_demand, _check_index, _field,
                   _integer_arg, _readonly, _reject_unknown, _strategy_distributions,
                   all_strategy_costs)
from .discrete_dist import Pmf, bernoulli_sum_pmf, poisson_pmf
from .errors import DomainError, StructureError
from .poisson_limit import AuxCost, build_limit_game
from .wardrop import wardrop_epsilon

EQUIVALENCE_TOL = 1e-9  # flow gap, Poisson-game regret and Wardrop gap of an equivalence


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Per-type count distributions: independent Poisson, or products of Bernoullis."""

    kind: str
    means: tuple[float, ...] | None = None
    probs: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind == "independent_poisson":
            if self.means is None or self.probs is not None:
                raise StructureError("poisson model needs per-type means only")
            object.__setattr__(self, "means", tuple(float(m) for m in self.means))
            if any(not 0.0 < m < math.inf for m in self.means):
                raise DomainError("poisson means must be positive and finite")
        elif self.kind == "bernoulli_product":
            if self.probs is None or self.means is not None:
                raise StructureError("bernoulli model needs per-type probability lists only")
            object.__setattr__(self, "probs",
                               tuple(tuple(float(r) for r in rs) for rs in self.probs))
            for rs in self.probs:
                if any(not 0.0 < r <= 1.0 for r in rs):
                    raise DomainError("participation probabilities must lie in (0, 1]")
        else:
            raise StructureError(f"unknown population model {self.kind!r}")

    @classmethod
    def poisson(cls, means: Sequence[float]) -> "PopulationModel":
        return cls("independent_poisson", means=tuple(means))

    @classmethod
    def bernoulli(cls, probs: Sequence[Sequence[float]]) -> "PopulationModel":
        return cls("bernoulli_product", probs=tuple(tuple(r) for r in probs))

    @property
    def n_types(self) -> int:
        return len(self.means) if self.kind == "independent_poisson" else len(self.probs)

    def expected_count(self, t: int) -> float:
        t = _check_index(t, self.n_types, "type")
        if self.kind == "independent_poisson":
            return self.means[t]
        return float(sum(self.probs[t]))

    def count_prob(self, t: int, n: int) -> float:
        """P(N_t = n), computed directly (no truncation); 0.0 for a negative n.
        A count that is not an integer raises ``DomainError``."""
        t = _check_index(t, self.n_types, "type")
        n = _integer_arg(n, "player counts")
        if n < 0:
            return 0.0
        if self.kind == "independent_poisson":
            m = self.means[t]
            return math.exp(n * math.log(m) - m - math.lgamma(n + 1))
        return bernoulli_sum_pmf(self.probs[t]).prob(n)

    def count_pmf(self, t: int) -> Pmf:
        """Exact for Bernoulli counts; a Poisson count is truncated with tail mass
        below ``discrete_dist.TAIL_TOL``."""
        t = _check_index(t, self.n_types, "type")
        if self.kind == "independent_poisson":
            return poisson_pmf(self.means[t])
        return bernoulli_sum_pmf(self.probs[t])


@dataclass(frozen=True, eq=False)
class TypeProfile:
    """One mixed strategy per type, shared by every player of that type."""

    probs: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", _strategy_distributions(self.probs, "type"))

    def __len__(self) -> int:
        return len(self.probs)

    def to_json(self, structure: Structure) -> dict:
        return {structure.types[t]: [float(v) for v in p]
                for t, p in enumerate(self.probs)}

    @classmethod
    def from_json(cls, structure: Structure, data) -> "TypeProfile":
        _reject_unknown(data, set(structure.types), "type profile")
        return cls(tuple(_field(data, tid, "type profile", _readonly) for tid in structure.types))


def induced_flows(structure: Structure, demand: DemandVector,
                  sigma: TypeProfile) -> np.ndarray:
    """Flat expected strategy flows: demand times the type's strategy weights."""
    _check_demand(structure, demand)
    if len(sigma) != structure.n_types:
        raise StructureError("type profile does not match the structure")
    y = np.zeros(structure.n_flows)
    for t, sl in enumerate(structure.type_slices):
        if sigma.probs[t].size != sl.stop - sl.start:
            raise StructureError(f"type {structure.types[t]!r} profile has wrong length")
        y[sl] = demand[t] * sigma.probs[t]
    return y


def _multinomial_prob(counts: np.ndarray, weights: np.ndarray) -> float:
    """n! prod(w^c / c!), formed in log space; exactly 0.0 when a positive
    count falls on a weight that is zero (or a round-off negative)."""
    log_p = math.lgamma(int(counts.sum()) + 1)
    for c, w in zip(counts, weights):
        c = int(c)
        if c == 0:
            continue
        if w <= 0.0:
            return 0.0
        log_p += c * math.log(w) - math.lgamma(c + 1)
    return math.exp(log_p)


def flow_profile_probability(model: PopulationModel, sigma: TypeProfile,
                             counts: Sequence[Sequence[int]]) -> float:
    """Probability that the per-(type, strategy) player counts equal ``counts``.

    The type totals follow the population model; conditional on a total, the
    split across strategies is multinomial with the type's mixed strategy.
    """
    if len(counts) != len(sigma):
        raise StructureError("counts do not match the profile's types")
    out = 1.0
    for t, per_t in enumerate(counts):
        c = np.array([_integer_arg(v, "player counts", 0) for v in per_t], dtype=int)
        if c.size != sigma.probs[t].size:
            raise StructureError(f"type {t} counts have the wrong length")
        out *= model.count_prob(t, int(c.sum())) * _multinomial_prob(c, sigma.probs[t])
    return out


def posterior(model: PopulationModel, t: int, nbar: Sequence[int]) -> float:
    """Posterior probability of the other-player count vector, seen by type t.

    Size-biasing in the t coordinate: (n_t + 1) mu(nbar + delta_t) / E[N_t].
    """
    t = _check_index(t, model.n_types, "type")
    mean = model.expected_count(t)
    if mean <= 0:
        raise DomainError("posterior undefined for a type with zero expected count")
    nb = [_integer_arg(v, "player counts") for v in nbar]
    if len(nb) != model.n_types:
        raise StructureError("count vector does not match the model's types")
    if min(nb) < 0:
        return 0.0
    bumped = list(nb)
    bumped[t] += 1
    joint = 1.0
    for tt, n in enumerate(bumped):
        joint *= model.count_prob(tt, n)
    return (nb[t] + 1) * joint / mean


def posterior_count_pmf(model: PopulationModel, t: int) -> Pmf:
    """Marginal posterior pmf of the number of *other* type-t players.

    Other types are unaffected (independence), so total-variation comparisons
    of prior versus posterior reduce to this marginal.  A Poisson count's
    posterior is its prior, certified tail included; a Bernoulli count's is
    the exact size-biased law ``k P(N_t = k) / E[N_t]``, shifted down by one.
    """
    mean = model.expected_count(t)
    if mean <= 0:
        raise DomainError("posterior undefined for a type with zero expected count")
    prior = model.count_pmf(t)
    if model.kind == "independent_poisson":
        return prior
    return Pmf(np.arange(1, len(prior)) * prior.probs[1:] / mean)


@dataclass(frozen=True)
class TypeRegret:
    type_id: str
    costs: tuple[float, ...]
    best: float
    regret: float


@dataclass(frozen=True)
class PoissonGameReport:
    max_regret: float
    per_type: tuple[TypeRegret, ...]
    strategy_costs: tuple[float, ...]


def verify_poisson_game_equilibrium(structure: Structure, demand: DemandVector,
                                    sigma: TypeProfile) -> PoissonGameReport:
    """Regret of a type profile in the Poisson game over this structure.

    With independent Poisson populations the expected cost of a strategy is
    the sum of auxiliary costs at the expected loads, so verification reduces
    to evaluating the limit game's strategy costs at flows demand * sigma.
    The auxiliary costs are those ``build_limit_game`` builds; no demand cap
    enters them.
    """
    y = induced_flows(structure, demand, sigma)
    x = y @ structure.incidence
    costs = all_strategy_costs(structure.with_costs([AuxCost(c) for c in structure.cost_fns]), x)
    rows = []
    worst = 0.0
    for t, sl in enumerate(structure.type_slices):
        cvec = costs[sl]
        best = float(cvec.min())
        used = sigma.probs[t] > USAGE_TOL
        regret = max((float(c) - best for s, c in enumerate(cvec) if used[s]), default=0.0)
        rows.append(TypeRegret(structure.types[t], tuple(float(c) for c in cvec),
                               best, regret))
        worst = max(worst, regret)
    return PoissonGameReport(worst, tuple(rows), tuple(float(c) for c in costs))


@dataclass(frozen=True)
class EquivalenceReport:
    flow_gap: float
    flows_match: bool
    poisson_regret: float
    wardrop_eps: float
    equivalent: bool


def wardrop_equivalence_check(structure: Structure, demand: DemandVector,
                              sigma: TypeProfile, pair) -> EquivalenceReport:
    """Cross-check a type profile against a flow-load pair of the limit game.

    The profile and the pair describe the same object when the flows agree and
    the Poisson-game regret and the limit game's equilibrium gap are both
    within ``EQUIVALENCE_TOL``; each side flags a genuine deviation on its own.
    """
    y = induced_flows(structure, demand, sigma)
    flow_gap = float(np.abs(y - pair.y).max())
    report = verify_poisson_game_equilibrium(structure, demand, sigma)
    eps = wardrop_epsilon(build_limit_game(structure, demand).structure, demand, pair)
    flows_match = flow_gap <= EQUIVALENCE_TOL
    equivalent = (flows_match and report.max_regret <= EQUIVALENCE_TOL
                  and eps <= EQUIVALENCE_TOL)
    return EquivalenceReport(flow_gap=flow_gap, flows_match=flows_match,
                             poisson_regret=report.max_regret, wardrop_eps=eps,
                             equivalent=equivalent)
