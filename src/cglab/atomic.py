"""Weighted and Bernoulli atomic congestion games.

Weighted players contribute their full weight when using a resource; Bernoulli
players have unit weight but participate only with an individual probability,
drawn independently of everyone's mixed strategies.  Expected conditional
costs are computed exactly through Poisson-binomial laws (Bernoulli, always;
weighted, when the random terms share one weight) and weighted-sum
enumeration (weighted, up to twenty random terms), with a seeded Monte Carlo
fallback beyond that.

The Poisson-binomial law of a resource's load is built once per distinct
column of usage indicators; each player's conditional cost needs the law
without that player, which is deconvolved out of the full law in O(n)
(``remove_bernoulli``) instead of convolved afresh from the other n-1 terms.

The exact social optimum is searched over pure profiles.  When the players of
each type share one magnitude, a profile is a vector of per-type strategy
counts, and a resource's value depends only on how many players of each type
use it.  The search therefore holds every count vector as one row of an
integer array, gets each resource's per-type counts by one matrix product,
builds one value table per resource, and scores each row as the ``fsum`` of
its table entries; ``esc`` scores a pure profile from the same per-resource
values, so the two agree bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import DemandVector, Structure, _readonly, parse_instance
from .discrete_dist import (ValueDist, bernoulli_sum_pmf, remove_bernoulli,
                            weighted_sum_distribution)
from .errors import (CapacityError, ConfigError, ConvergenceError, DomainError,
                     PrecisionError, StructureError)

USAGE_TOL = 1e-10
TIE_TOL = 1e-12


@dataclass(frozen=True)
class MonteCarlo:
    """Settings for the sampling fallback; the seed keys a counter-based generator."""

    seed: int
    samples: int = 1_000_000


@dataclass(frozen=True, eq=False)
class WeightedGame:
    structure: Structure
    weights: tuple[float, ...]
    player_types: tuple[int, ...]

    kind = "weighted"

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "player_types", tuple(int(t) for t in self.player_types))
        if len(self.weights) != len(self.player_types):
            raise StructureError("one weight per player is required")
        if not all(math.isfinite(w) for w in self.weights):
            raise DomainError("player weights must be finite")
        if any(w <= 0 for w in self.weights):
            raise StructureError("player weights must be positive")
        if any(t < 0 or t >= self.structure.n_types for t in self.player_types):
            raise StructureError("player type out of range")
        for c in self.structure.cost_fns:
            if not getattr(c, "is_continuous", False):
                raise StructureError("weighted games need continuous cost functions")

    @property
    def n_players(self) -> int:
        return len(self.weights)

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return self.weights

    @cached_property
    def demand(self) -> DemandVector:
        d = np.zeros(self.structure.n_types)
        for w, t in zip(self.weights, self.player_types):
            d[t] += w
        return DemandVector(d)

    @classmethod
    def homogeneous(cls, structure: Structure, demand: DemandVector, n: int) -> "WeightedGame":
        """n players per type, each carrying an equal share of the type demand."""
        weights, types = [], []
        for t in range(structure.n_types):
            if demand[t] <= 0:
                continue
            weights.extend([demand[t] / n] * n)
            types.extend([t] * n)
        return cls(structure, tuple(weights), tuple(types))


@dataclass(frozen=True, eq=False)
class BernoulliGame:
    structure: Structure
    probs: tuple[float, ...]
    player_types: tuple[int, ...]

    kind = "bernoulli"

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(r) for r in self.probs))
        object.__setattr__(self, "player_types", tuple(int(t) for t in self.player_types))
        if len(self.probs) != len(self.player_types):
            raise StructureError("one participation probability per player is required")
        if any(not 0.0 < r <= 1.0 for r in self.probs):
            raise StructureError("participation probabilities must lie in (0, 1]")
        if any(t < 0 or t >= self.structure.n_types for t in self.player_types):
            raise StructureError("player type out of range")
        n = len(self.probs)
        for c in self.structure.cost_fns:
            if not getattr(c, "has_integer_eval", False):
                raise StructureError("Bernoulli games need integer-domain cost functions")
            try:
                c.value_int(n + 1)
            except PrecisionError as exc:
                raise StructureError(
                    f"cost not evaluable up to {n + 1}: {exc}") from None

    @property
    def n_players(self) -> int:
        return len(self.probs)

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return self.probs

    @cached_property
    def demand(self) -> DemandVector:
        d = np.zeros(self.structure.n_types)
        for r, t in zip(self.probs, self.player_types):
            d[t] += r
        return DemandVector(d)

    @classmethod
    def homogeneous(cls, structure: Structure, demand: DemandVector, n: int) -> "BernoulliGame":
        probs, types = [], []
        for t in range(structure.n_types):
            if demand[t] <= 0:
                continue
            r = demand[t] / n
            if not 0.0 < r <= 1.0:
                raise DomainError(f"per-player probability {r} outside (0, 1]")
            probs.extend([r] * n)
            types.extend([t] * n)
        return cls(structure, tuple(probs), tuple(types))


Game = WeightedGame | BernoulliGame


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """One probability vector over the player's own strategy set, per player."""

    probs: tuple[np.ndarray, ...]

    def __post_init__(self):
        arrs = tuple(_readonly(p) for p in self.probs)
        object.__setattr__(self, "probs", arrs)
        for i, p in enumerate(arrs):
            if p.ndim != 1 or p.size == 0:
                raise DomainError(f"player {i} has an invalid strategy distribution")
            if float(p.min()) < -1e-15:
                raise DomainError(f"player {i} has negative strategy probability")
            if abs(float(p.sum()) - 1.0) > 1e-12:
                raise DomainError(f"player {i}'s strategy distribution is not normalized")

    def __len__(self) -> int:
        return len(self.probs)

    @classmethod
    def pure(cls, game: Game, strategies: Sequence[int]) -> "MixedProfile":
        out = []
        for i, s in enumerate(strategies):
            m = len(game.structure.strategies[game.player_types[i]])
            if not 0 <= s < m:
                raise StructureError(f"player {i} has no strategy {s}")
            v = np.zeros(m)
            v[s] = 1.0
            out.append(v)
        return cls(tuple(out))

    @classmethod
    def symmetric(cls, game: Game, sigma: Sequence[float]) -> "MixedProfile":
        v = np.asarray(sigma, dtype=float)
        return cls(tuple(v.copy() for _ in range(game.n_players)))

    def to_json(self) -> dict:
        return {str(i): [float(v) for v in p] for i, p in enumerate(self.probs)}


def _check_profile(game: Game, profile: MixedProfile) -> None:
    if len(profile) != game.n_players:
        raise StructureError("profile does not cover every player")
    for i, p in enumerate(profile.probs):
        m = len(game.structure.strategies[game.player_types[i]])
        if p.size != m:
            raise StructureError(f"player {i} profile has wrong length")


def choice_probabilities(game: Game, profile: MixedProfile) -> np.ndarray:
    """(n_players, n_resources) matrix of per-resource usage probabilities."""
    _check_profile(game, profile)
    s = game.structure
    out = np.zeros((game.n_players, s.n_resources))
    for i, p in enumerate(profile.probs):
        sl = s.type_slices[game.player_types[i]]
        out[i] = p @ s.incidence[sl]
    return out


def resource_choice_prob(game: Game, profile: MixedProfile, i: int, e: int) -> float:
    """Probability that player i's drawn strategy contains resource e."""
    _check_profile(game, profile)
    s = game.structure
    if not 0 <= e < s.n_resources:
        raise StructureError(f"no resource with index {e}")
    sl = s.type_slices[game.player_types[i]]
    return float(profile.probs[i] @ s.incidence[sl][:, e])


# ---------------------------------------------------------------------------
# exact conditional expected costs


class _LoadLaw:
    """The count law of one column of independent usage indicators.

    ``full`` is the Poisson-binomial pmf of the column's nonzero entries
    (``terms``).  ``without(q)`` is the law of the others when the entry of
    the asking player is q: ``full`` itself when q is 0, else q deconvolved
    out of it; a deconvolution that fails its residual check is replaced by
    the direct convolution of the other terms.  The last such law is kept,
    because one player's resources often share a column.  ``values``
    memoizes expectations under these laws; ``key`` is the column's bytes.
    """

    def __init__(self, column: np.ndarray):
        self.key = column.tobytes()
        self.terms = column[column > 0.0]
        self.full = bernoulli_sum_pmf(self.terms).probs
        self.values: dict[tuple, object] = {}
        self._last: tuple[float, np.ndarray] | None = None

    def without(self, q: float) -> np.ndarray:
        if q == 0.0:
            return self.full
        if self._last is not None and self._last[0] == q:
            return self._last[1]
        pmf = remove_bernoulli(self.full, q)
        if pmf is None:
            j = int(np.flatnonzero(self.terms == q)[0])
            pmf = bernoulli_sum_pmf(np.delete(self.terms, j)).probs
        self._last = (q, pmf)
        return pmf


class _CondCache:
    """Conditional-cost memo for one usage matrix (players x resources).

    A resource's column holds every player's chance to put a random unit on
    it: participation times usage probability for Bernoulli players, the
    usage probability below one for weighted players (certain usage is a
    constant).  Each distinct column, keyed by its bytes, gets one
    ``_LoadLaw``.  ``move`` replaces a player's row, as best-response
    dynamics does, and forgets the laws of the resources whose columns it
    changes, dropping each law no resource uses any more, so at most one law
    per resource is kept.  ``equal_mags`` records whether every player has
    the same magnitude.
    """

    def __init__(self, game: Game, usage: np.ndarray):
        self.game = game
        self.usage = usage
        self.mags = np.asarray(game.magnitudes, dtype=float)
        self.equal_mags = bool(np.all(self.mags == self.mags[:1]))
        self.edge_laws: list[_LoadLaw | None] = [None] * usage.shape[1]
        self.laws: dict[bytes, _LoadLaw] = {}
        self.values: dict[tuple, tuple[float, float]] = {}
        self.cost_grids: dict[tuple[int, int], np.ndarray] = {}

    def law(self, e: int) -> _LoadLaw:
        law = self.edge_laws[e]
        if law is None:
            u = self.usage[:, e]
            col = self.mags * u if self.game.kind == "bernoulli" else u * (u < 1.0)
            law = self.laws.get(col.tobytes())
            if law is None:
                law = _LoadLaw(col)
                self.laws[law.key] = law
            self.edge_laws[e] = law
        return law

    def move(self, i: int, row: np.ndarray) -> None:
        for e in np.flatnonzero(self.usage[i] != row):
            law, self.edge_laws[e] = self.edge_laws[e], None
            if law is not None and not any(other is law for other in self.edge_laws):
                del self.laws[law.key]
        self.usage[i] = row

    def unit_costs(self, e: int, size: int) -> np.ndarray:
        """c_e(1), ..., c_e(size)."""
        grid = self.cost_grids.get((e, size))
        if grid is None:
            cost = self.game.structure.cost_fns[e]
            grid = np.asarray(cost.value_int(np.arange(size) + 1), dtype=float)
            self.cost_grids[(e, size)] = grid
        return grid


def _edge_cost_bernoulli(cache: _CondCache, i: int, e: int) -> float:
    """E[c_e(1 + Z)] where Z counts the other active players on resource e."""
    law = cache.law(e)
    q = float(cache.mags[i] * cache.usage[i, e])
    hit = law.values.get((e, q))
    if hit is None:
        pmf = law.without(q)
        hit = law.values[(e, q)] = float(pmf @ cache.unit_costs(e, pmf.size))
    return hit


def _edge_cost_weighted(cache: _CondCache, i: int, e: int,
                        mc: MonteCarlo | None) -> tuple[float, float]:
    """E[c_e(w_i + V)] where V sums the other players' weighted usage indicators.

    Returns (value, standard error); the error is zero on the exact branches.
    """
    game = cache.game
    w = cache.mags
    p = cache.usage[:, e].copy()
    p[i] = 0.0
    base = float(game.weights[i]) + float(w[p >= 1.0].sum())
    frac = p * (p < 1.0)
    sel = frac > 0.0
    wf, pf = w[sel], frac[sel]
    cost = game.structure.cost_fns[e]
    if wf.size == 0:
        return float(cost.value(base)), 0.0
    if cache.equal_mags or np.unique(wf).size == 1:
        law = cache.law(e)
        u = float(cache.usage[i, e])
        q = u if u < 1.0 else 0.0
        key = (e, base, float(wf[0]), q)
        hit = law.values.get(key)
        if hit is None:
            pmf = law.without(q)
            vals = base + wf[0] * np.arange(pmf.size)
            hit = law.values[key] = (float(pmf @ np.asarray(cost.value(vals), dtype=float)),
                                     0.0)
        return hit
    key = ("w", e, base, tuple(sorted(zip(wf, pf))))
    hit = cache.values.get(key)
    if hit is not None:
        return hit
    if wf.size <= 20:
        dist = weighted_sum_distribution(wf, pf)
        out = (float(dist.masses @ np.asarray(cost.value(base + dist.values),
                                              dtype=float)), 0.0)
    else:
        if mc is None:
            raise ConfigError(
                "more than 20 unequal-weight random terms: supply MonteCarlo settings")
        dist = weighted_sum_distribution(wf, pf, mode="monte_carlo", seed=mc.seed,
                                         samples=mc.samples,
                                         stream=i * game.structure.n_resources + e + 1)
        cvals = np.asarray(cost.value(base + dist.values), dtype=float)
        mean = float(dist.masses @ cvals)
        var = float(dist.masses @ (cvals - mean) ** 2)
        out = (mean, math.sqrt(max(var, 0.0) / mc.samples))
    cache.values[key] = out
    return out


def _strategy_cond_cost(cache: _CondCache, i: int, s: int,
                        mc: MonteCarlo | None) -> tuple[float, float]:
    """(conditional cost, standard error) of strategy s for player i."""
    game = cache.game
    edges = game.structure.strategies[game.player_types[i]][s]
    if game.kind == "bernoulli":
        return sum(_edge_cost_bernoulli(cache, i, e) for e in edges), 0.0
    parts = [_edge_cost_weighted(cache, i, e, mc) for e in edges]
    return (sum(v for v, _ in parts),
            math.sqrt(sum(se * se for _, se in parts)))


class CostEstimate(NamedTuple):
    value: float
    stderr: float  # zero whenever every edge took an exact branch


def conditional_expected_cost(game: Game, profile: MixedProfile, i: int, s: int,
                              *, mc: MonteCarlo | None = None) -> float:
    """Expected cost of strategy s for player i, conditional on i playing it.

    Bernoulli games are always exact (Poisson-binomial over the other players'
    active-and-using probabilities).  Weighted games are exact whenever the
    random terms share one weight or number at most twenty; otherwise seeded
    Monte Carlo settings are required.
    """
    return conditional_cost_estimate(game, profile, i, s, mc=mc).value


def conditional_cost_estimate(game: Game, profile: MixedProfile, i: int, s: int,
                              *, mc: MonteCarlo | None = None) -> CostEstimate:
    """Conditional cost with its sampling standard error (zero when exact)."""
    _check_profile(game, profile)
    t = game.player_types[i]
    if not 0 <= s < len(game.structure.strategies[t]):
        raise StructureError(f"player {i} has no strategy {s}")
    cache = _CondCache(game, choice_probabilities(game, profile))
    return CostEstimate(*_strategy_cond_cost(cache, i, s, mc))


def player_expected_cost(game: Game, profile: MixedProfile, i: int,
                         *, mc: MonteCarlo | None = None) -> float:
    """Unconditional expected cost of player i (inactive players pay nothing)."""
    _check_profile(game, profile)
    cache = _CondCache(game, choice_probabilities(game, profile))
    total = sum(float(profile.probs[i][s]) * _strategy_cond_cost(cache, i, s, mc)[0]
                for s in range(profile.probs[i].size) if profile.probs[i][s] > 0.0)
    if game.kind == "bernoulli":
        return game.probs[i] * total
    return total


# ---------------------------------------------------------------------------
# equilibrium verification


@dataclass(frozen=True)
class PlayerRegret:
    player: int
    costs: tuple[float, ...]
    best: float
    regret: float


@dataclass(frozen=True)
class EquilibriumReport:
    max_regret: float
    players: tuple[PlayerRegret, ...]
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_regret <= self.tol


def verify_equilibrium(game: Game, profile: MixedProfile, tol: float = 1e-9,
                       *, usage_tol: float = USAGE_TOL,
                       mc: MonteCarlo | None = None) -> EquilibriumReport:
    """Largest amount any player can save by deviating from a used strategy.

    A strategy counts as used when its probability exceeds ``usage_tol``.
    The profile is an (approximate) equilibrium iff the result is at most tol.
    """
    _check_profile(game, profile)
    cache = _CondCache(game, choice_probabilities(game, profile))
    rows = []
    worst = 0.0
    for i in range(game.n_players):
        m = profile.probs[i].size
        costs = [_strategy_cond_cost(cache, i, s, mc)[0] for s in range(m)]
        best = min(costs)
        used = profile.probs[i] > usage_tol
        regret = max((c - best for s, c in enumerate(costs) if used[s]), default=0.0)
        rows.append(PlayerRegret(i, tuple(costs), best, regret))
        worst = max(worst, regret)
    return EquilibriumReport(worst, tuple(rows), tol)


# ---------------------------------------------------------------------------
# equilibrium computation


@dataclass(frozen=True)
class BestResponseResult:
    strategies: tuple[int, ...] | None
    converged: bool
    sweeps: int
    cycle: tuple[tuple[int, ...], ...] | None
    regret: float | None

    def profile(self, game: Game) -> MixedProfile:
        if self.strategies is None:
            raise ConvergenceError("best-response dynamics did not settle")
        return MixedProfile.pure(game, self.strategies)


def _pure_usage(game: Game, state: Sequence[int]) -> np.ndarray:
    s = game.structure
    out = np.zeros((game.n_players, s.n_resources))
    for i, si in enumerate(state):
        sl = s.type_slices[game.player_types[i]]
        out[i] = s.incidence[sl][si]
    return out


def best_response_dynamics(game: Game, initial: Sequence[int], max_sweeps: int = 500,
                           *, tie_tol: float = TIE_TOL,
                           mc: MonteCarlo | None = None) -> BestResponseResult:
    """Round-robin exact best responses from a pure profile.

    Players keep their current strategy when it is within ``tie_tol`` of the
    optimum; otherwise they move to the lowest-index best response.  A revisit
    of an earlier state is returned as a cycle report rather than an error.
    """
    state = list(initial)
    if len(state) != game.n_players:
        raise StructureError("initial profile does not cover every player")
    cache = _CondCache(game, _pure_usage(game, state))
    history = [tuple(state)]
    seen = {tuple(state): 0}
    for sweep in range(1, max_sweeps + 1):
        changed = False
        for i in range(game.n_players):
            t = game.player_types[i]
            m = len(game.structure.strategies[t])
            costs = [_strategy_cond_cost(cache, i, s, mc)[0] for s in range(m)]
            best = int(np.argmin(costs))
            if costs[best] < costs[state[i]] - tie_tol:
                state[i] = best
                sl = game.structure.type_slices[t]
                cache.move(i, game.structure.incidence[sl][best])
                changed = True
        snap = tuple(state)
        if not changed:
            report = verify_equilibrium(game, MixedProfile.pure(game, snap), mc=mc)
            return BestResponseResult(snap, True, sweep, None, report.max_regret)
        if snap in seen:
            cycle = tuple(history[seen[snap]:]) + (snap,)
            return BestResponseResult(None, False, sweep, cycle, None)
        seen[snap] = len(history)
        history.append(snap)
    return BestResponseResult(None, False, max_sweeps, None, None)


def _require_symmetric(game: Game) -> None:
    if len(set(game.player_types)) != 1:
        raise ConfigError("symmetric solver needs all players of one type")
    if len(set(game.magnitudes)) != 1:
        raise ConfigError("symmetric solver needs identical weights/probabilities")


def symmetric_mixed_equilibrium(game: Game, tol: float = 1e-9, damping: float = 0.5,
                                *, max_iters: int = 2000,
                                mc: MonteCarlo | None = None) -> MixedProfile:
    """Shared mixed strategy making every identical player indifferent.

    Scans pure symmetric profiles, then solves two-strategy indifference by
    bisection, then falls back to a damped best-response fixed point over the
    full simplex.  The result is returned only if it verifies under ``tol``.
    """
    _require_symmetric(game)
    t = game.player_types[0]
    m = len(game.structure.strategies[t])

    def attempt(sigma: np.ndarray) -> MixedProfile | None:
        prof = MixedProfile.symmetric(game, sigma)
        if verify_equilibrium(game, prof, tol, mc=mc).ok:
            return prof
        return None

    for s in range(m):
        v = np.zeros(m)
        v[s] = 1.0
        found = attempt(v)
        if found is not None:
            return found

    def pair_gap(a: int, b: int, q: float) -> float:
        v = np.zeros(m)
        v[a], v[b] = q, 1.0 - q
        prof = MixedProfile.symmetric(game, v)
        cache = _CondCache(game, choice_probabilities(game, prof))
        return (_strategy_cond_cost(cache, 0, a, mc)[0]
                - _strategy_cond_cost(cache, 0, b, mc)[0])

    for a, b in itertools.combinations(range(m), 2):
        lo_val, hi_val = pair_gap(a, b, 0.0), pair_gap(a, b, 1.0)
        if not (lo_val < 0.0 < hi_val):
            continue  # no interior indifference point; boundary cases are the pure scans
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if pair_gap(a, b, mid) > 0.0:
                hi = mid
            else:
                lo = mid
        v = np.zeros(m)
        q = 0.5 * (lo + hi)
        v[a], v[b] = q, 1.0 - q
        found = attempt(v)
        if found is not None:
            return found

    sigma = np.full(m, 1.0 / m)
    for it in range(max_iters):
        prof = MixedProfile.symmetric(game, sigma)
        cache = _CondCache(game, choice_probabilities(game, prof))
        costs = np.array([_strategy_cond_cost(cache, 0, s, mc)[0] for s in range(m)])
        floor = costs.min()
        target = (costs <= floor + TIE_TOL).astype(float)
        target /= target.sum()
        sigma = (1.0 - damping) * sigma + damping * target
        sigma = np.maximum(sigma, 0.0)
        sigma /= sigma.sum()
        if it % 10 == 9 or it == max_iters - 1:
            found = attempt(sigma)
            if found is not None:
                return found
    raise ConvergenceError("no symmetric mixed equilibrium found at the requested tolerance")


# ---------------------------------------------------------------------------
# social cost, optimum, anarchy


def esc(game: Game, profile: MixedProfile, *, mc: MonteCarlo | None = None) -> float:
    """Expected social cost, decomposed through per-player conditional costs.

    Exact whenever the conditional costs are exact (always, for Bernoulli).
    Pure profiles take the direct per-resource route, which the optimum
    search shares, so equal assignments produce bitwise-equal values.
    """
    _check_profile(game, profile)
    pure = [int(np.argmax(p)) for p in profile.probs]
    if all(float(p[s]) == 1.0 for p, s in zip(profile.probs, pure)):
        return _PureEscEvaluator(game).from_assignment(pure)
    usage = choice_probabilities(game, profile)
    cache = _CondCache(game, usage)
    mags = game.magnitudes
    total = 0.0
    for i in range(game.n_players):
        for e in range(game.structure.n_resources):
            if usage[i, e] <= 0.0:
                continue
            if game.kind == "bernoulli":
                val = _edge_cost_bernoulli(cache, i, e)
            else:
                val = _edge_cost_weighted(cache, i, e, mc)[0]
            total += mags[i] * usage[i, e] * val
    return float(total)


def expected_loads(game: Game, profile: MixedProfile) -> np.ndarray:
    """Expected resource loads: weight/probability times usage, summed over players."""
    usage = choice_probabilities(game, profile)
    return np.asarray(game.magnitudes) @ usage


def load_distribution(game: Game, profile: MixedProfile, e: int,
                      *, mc: MonteCarlo | None = None):
    """Exact distribution of the random load on resource e.

    Bernoulli games yield a pmf on the integers; weighted games yield a
    value distribution (scaled counts when all weights agree).
    """
    _check_profile(game, profile)
    if not 0 <= e < game.structure.n_resources:
        raise StructureError(f"no resource with index {e}")
    usage = choice_probabilities(game, profile)
    if game.kind == "bernoulli":
        p = np.asarray(game.probs) * usage[:, e]
        return bernoulli_sum_pmf(p[p > 0.0])
    w = np.asarray(game.weights)
    p = usage[:, e]
    sel = p > 0.0
    wf, pf = w[sel], p[sel]
    if np.unique(wf).size <= 1:
        pmf = bernoulli_sum_pmf(pf)
        scale = float(wf[0]) if wf.size else 1.0
        return ValueDist.from_pmf(pmf, scale=scale)
    if wf.size <= 20:
        return weighted_sum_distribution(wf, pf)
    if mc is None:
        raise CapacityError(
            "more than 20 unequal weights: supply MonteCarlo settings for sampling")
    return weighted_sum_distribution(wf, pf, mode="monte_carlo", seed=mc.seed,
                                     samples=mc.samples, stream=e + 1)


def strategy_flow_covariance(game: Game, profile: MixedProfile, t: int,
                             s1: int, s2: int) -> float:
    """Covariance of the random flows on two strategies of one type (closed form)."""
    _check_profile(game, profile)
    total = 0.0
    for i in range(game.n_players):
        if game.player_types[i] != t:
            continue
        mi = game.magnitudes[i]
        p1 = float(profile.probs[i][s1])
        p2 = float(profile.probs[i][s2])
        if s1 == s2:
            if game.kind == "bernoulli":
                q = game.probs[i] * p1
                total += q * (1.0 - q)
            else:
                total += mi * mi * p1 * (1.0 - p1)
        else:
            # exclusive draws: the cross moment vanishes, leaving minus the
            # product of the per-strategy means
            if game.kind == "bernoulli":
                total += -(game.probs[i] ** 2) * p1 * p2
            else:
                total += -(mi * mi) * p1 * p2
    return total


def _compositions(n: int, k: int) -> np.ndarray:
    """Every split of n players over k strategies, one row each, in lexicographic order.

    Row r places k - 1 bars among n + k - 1 slots (the r-th combination of
    slot indices); the gaps between consecutive bars are the counts.
    """
    rows = list(itertools.combinations(range(n + k - 1), k - 1))
    bars = np.array(rows, dtype=np.int64).reshape(len(rows), k - 1)
    ends = np.full((len(rows), 1), n + k - 1)
    return np.diff(np.hstack([-np.ones_like(ends), bars, ends]), axis=1) - 1


class _PureEscEvaluator:
    """Exact expected social cost of pure profiles, one resource at a time.

    A resource's value is its expected load times cost: fsum(w) c(fsum(w))
    for the weights w on it, or E[K c(K)] for the Poisson-binomial count K of
    the participation probabilities on it (0.0 when nobody uses it).
    Bernoulli values are memoized per (resource, sorted probabilities) and
    their pmfs per sorted probabilities alone, so resources with the same
    users share one pmf.  A profile's cost is the fsum of its resources'
    values, which does not depend on edge order, so every route that sums the
    same values (``from_assignment``, the count-space optimum search) agrees
    bit for bit.
    """

    def __init__(self, game: Game):
        self.game = game
        self._pmfs: dict[tuple[float, ...], np.ndarray] = {}
        self._values: dict[tuple, float] = {}

    def edge_value(self, e: int, mags: Sequence[float]) -> float:
        """Value of resource e when players of these magnitudes use it."""
        cost = self.game.structure.cost_fns[e]
        if self.game.kind == "weighted":
            load = math.fsum(mags)
            return load * float(cost.value(load))
        if not mags:
            return 0.0
        key = tuple(sorted(mags))
        hit = self._values.get((e, key))
        if hit is None:
            pmf = self._pmfs.get(key)
            if pmf is None:
                pmf = self._pmfs[key] = bernoulli_sum_pmf(key).probs
            ks = np.arange(pmf.size)
            hit = self._values[(e, key)] = float(
                pmf @ (ks * np.asarray(cost.value_int(ks), dtype=float)))
        return hit

    def from_assignment(self, state: Sequence[int]) -> float:
        game = self.game
        s = game.structure
        per_edge: list[list[float]] = [[] for _ in range(s.n_resources)]
        for i, si in enumerate(state):
            for e in s.strategies[game.player_types[i]][si]:
                per_edge[e].append(game.magnitudes[i])
        return math.fsum(self.edge_value(e, ms) for e, ms in enumerate(per_edge))


@dataclass(frozen=True)
class OptResult:
    value: float
    exact: bool
    description: str


_COMBO_CHUNK = 1 << 14


def _count_space_optimum(game: Game, evaluator: _PureEscEvaluator,
                         by_type: dict[int, list[int]]) -> OptResult:
    """Minimum over per-type strategy counts, each scored from per-resource tables.

    The counts of type t are the rows of ``_compositions``; every combination
    of one row per type is a profile, visited in ``itertools.product`` order.
    A resource's value depends only on how many players of each type use it,
    so each resource gets one table over the per-type counts that vary on it,
    filled by ``evaluator.edge_value``; ``parts[j]`` holds, per composition of
    type j and per resource, that type's share of the flat table index.
    """
    s = game.structure
    type_ids = sorted(by_type)
    comps = [_compositions(len(by_type[t]), len(s.strategies[t])) for t in type_ids]
    # users[j][r, e]: players of type j on resource e under composition r
    users = [c @ s.incidence[s.type_slices[t]].astype(np.int64)
             for c, t in zip(comps, type_ids)]
    mags = [game.magnitudes[by_type[t][0]] for t in type_ids]
    parts = [np.zeros_like(u) for u in users]
    table: list[float] = []
    for e in range(s.n_resources):
        ranges = [range(len(by_type[t]) + 1) if np.ptp(u[:, e]) > 0 else (int(u[0, e]),)
                  for t, u in zip(type_ids, users)]
        stride = 1
        for j in reversed(range(len(ranges))):
            if len(ranges[j]) > 1:
                parts[j][:, e] = users[j][:, e] * stride
                stride *= len(ranges[j])
        parts[0][:, e] += len(table)
        table.extend(evaluator.edge_value(e, [w for w, k in zip(mags, ks) for _ in range(k)])
                     for ks in itertools.product(*ranges))
    values = np.array(table)
    shape = tuple(len(c) for c in comps)
    total = math.prod(shape)
    best = math.inf
    best_row = None
    for start in range(0, total, _COMBO_CHUNK):
        rows = np.unravel_index(np.arange(start, min(start + _COMBO_CHUNK, total)), shape)
        index = sum(part[r] for part, r in zip(parts, rows))
        for k, row in enumerate(values[index].tolist()):
            val = math.fsum(row)
            if val < best - 1e-15:
                best = val
                best_row = start + k
    best_counts = None
    if best_row is not None:
        best_counts = tuple(tuple(int(v) for v in c[r])
                            for c, r in zip(comps, np.unravel_index(best_row, shape)))
    return OptResult(best, True, f"pure counts {best_counts}")


def social_optimum_pure(game: Game, budget: int = 250_000) -> OptResult | None:
    """Exact minimum expected social cost over pure profiles, when enumerable.

    The expected social cost is multilinear in the players' mixed strategies,
    so its minimum over all mixed profiles is attained at a pure profile.
    Per-type symmetric games are enumerated by strategy counts; small general
    games are enumerated profile by profile.  Returns None over budget.
    """
    s = game.structure
    evaluator = _PureEscEvaluator(game)
    by_type: dict[int, list[int]] = {}
    for i, t in enumerate(game.player_types):
        by_type.setdefault(t, []).append(i)
    symmetric = all(len({game.magnitudes[i] for i in members}) == 1
                    for members in by_type.values())
    if symmetric:
        combos = 1
        for t, members in by_type.items():
            m = len(s.strategies[t])
            combos *= math.comb(len(members) + m - 1, m - 1)
        if combos <= budget:
            return _count_space_optimum(game, evaluator, by_type)
    total = 1
    for t in game.player_types:
        total *= len(s.strategies[t])
        if total > budget:
            return None
    best = math.inf
    best_state = None
    for state in itertools.product(*[range(len(s.strategies[t]))
                                     for t in game.player_types]):
        val = evaluator.from_assignment(state)
        if val < best - 1e-15:
            best = val
            best_state = state
    return OptResult(best, True, f"pure profile {best_state}")


@dataclass(frozen=True)
class OptPoaResult:
    opt: float
    poa: float
    pos: float
    esc_values: tuple[float, ...]
    opt_exact: bool
    opt_description: str
    rejected: tuple[int, ...]


def opt_and_poa(game: Game, equilibria: Sequence[MixedProfile], *,
                budget: int = 250_000, tol: float = 1e-9,
                mc: MonteCarlo | None = None) -> OptPoaResult:
    """Optimum cost plus anarchy/stability ratios over a verified equilibrium family.

    Profiles failing verification are reported in ``rejected`` and excluded.
    When exhaustive search is over budget the optimum falls back to the best
    supplied equilibrium and is flagged as inexact.
    """
    verified: list[float] = []
    rejected: list[int] = []
    for idx, prof in enumerate(equilibria):
        if verify_equilibrium(game, prof, tol, mc=mc).ok:
            verified.append(esc(game, prof, mc=mc))
        else:
            rejected.append(idx)
    if not verified:
        raise ConvergenceError("no supplied profile verified as an equilibrium")
    found = social_optimum_pure(game, budget)
    if found is None:
        opt, exact, desc = min(verified), False, "best verified equilibrium (budget exceeded)"
    else:
        opt, exact, desc = found.value, True, found.description
    if opt <= 0.0:
        raise DomainError("optimal expected social cost is zero; ratios are undefined")
    return OptPoaResult(opt=opt, poa=max(verified) / opt, pos=min(verified) / opt,
                        esc_values=tuple(verified), opt_exact=exact,
                        opt_description=desc, rejected=tuple(rejected))


# ---------------------------------------------------------------------------
# game and profile files


def parse_game(obj: Mapping) -> Game:
    extra = set(obj) - {"resources", "types", "demands", "players"}
    if extra:
        raise StructureError(f"unknown keys in game file: {sorted(extra)}")
    structure, demand = parse_instance({k: obj[k] for k in ("resources", "types", "demands")})
    weights: list[float] = []
    probs: list[float] = []
    types: list[int] = []

    def magnitude(entry: Mapping, field: str, count: int, t: int) -> float:
        raw = entry[field]
        if raw == "d/n":
            return demand[t] / count
        return float(raw)

    for entry in obj["players"]:
        keys = set(entry)
        if not keys <= {"type", "weight", "prob", "count"}:
            raise StructureError(f"unknown keys in player entry: {sorted(keys)}")
        t = structure.type_index[str(entry["type"])]
        count = int(entry.get("count", 1))
        if "weight" in entry and "prob" in entry:
            raise StructureError("player entry mixes weight and prob")
        if "weight" in entry:
            weights.extend([magnitude(entry, "weight", count, t)] * count)
            types.extend([t] * count)
        elif "prob" in entry:
            probs.extend([magnitude(entry, "prob", count, t)] * count)
            types.extend([t] * count)
        else:
            raise StructureError("player entry needs a weight or a prob")
    if weights and probs:
        raise StructureError("game mixes weighted and Bernoulli players")
    if weights:
        game: Game = WeightedGame(structure, tuple(weights), tuple(types))
    elif probs:
        game = BernoulliGame(structure, tuple(probs), tuple(types))
    else:
        raise StructureError("game file declares no players")
    if float(np.abs(game.demand.values - demand.values).max()) > 1e-9:
        raise StructureError("player magnitudes are inconsistent with the declared demands")
    return game


def load_game(path: str | Path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(json.load(fh))


def load_profile(path: str | Path, game: Game) -> MixedProfile:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    out = []
    for i in range(game.n_players):
        if str(i) not in data:
            raise StructureError(f"profile file is missing player {i}")
        out.append(np.asarray(data[str(i)], dtype=float))
    prof = MixedProfile(tuple(out))
    _check_profile(game, prof)
    return prof
