"""Weighted and Bernoulli atomic congestion games.

Weighted players contribute their full weight when using a resource; Bernoulli
players have unit weight but participate only with an individual probability,
drawn independently of everyone's mixed strategies.  Every expected cost is
exact.

Every load law of an evaluation comes from one store, ``_LoadLaws``.  It
splits each resource's column of usage probabilities once into a record
(``_Column``): the certain users' weights and their fsum, and the random
users' Bernoulli terms, whose sorted tuple keys one Poisson-binomial law that
the store convolves once.  A player's conditional cost needs that law
without the player, which is deconvolved out over the law's nonzero window
(``remove_bernoulli``); ``verify_equilibrium`` takes every distinct term of
a key out at once (``remove_bernoulli_terms``, one vectorised sweep across
the terms above a break-even count).  A best-response move derives a changed
column's law the same way, the mover's old term out and its new one in.
Bernoulli games read every conditional cost from these count laws.  A
weighted player's cost on a resource takes the first route that applies:

1. no other random user: the cost at the certain load;
2. the other random users share one weight: their count law;
3. a polynomial cost of degree d: the first d raw moments of the other
   players' random weight (``leave_one_out_moments``, every player's in one
   pass per resource, for any number of players);
4. otherwise an enumeration of their subset sums (``weighted_sum_distribution``).

``esc`` and ``load_distribution`` read the law of a resource's whole load,
which is enumerated when its random weights differ.  An enumeration takes at
most ``discrete_dist.EXACT_TERMS`` = 20 random terms of unequal weight and
raises ``CapacityError`` beyond that.  ``opt_and_poa`` hands each profile's
verification and ``esc`` one store, and ``verify_equilibrium`` evaluates one
cost row per class of players (type, magnitude and probability row).

The exact social optimum is searched over pure profiles.  Players of one type
and one magnitude form a class and are interchangeable, so a profile is a
vector of per-class strategy counts, and a resource's value depends only on
how many players of each class use it.  The search therefore holds every
count vector as one row of an integer array, gets each resource's per-class
counts by one matrix product, and builds one value table per resource from
the counts alone: a resource that one class uses reads its Bernoulli values
off one binomial ladder per class (``binomial_ladder``) or its weighted
values at the loads k w.  Each row's score is the ``fsum`` of its table
entries, taken only for the rows whose rounded sum could beat every earlier
row, and a row replaces the best when it is lower by more than 1e-15 times
the best.  ``esc`` scores every profile as the ``fsum`` of the same
per-resource values, so on pure profiles the two agree bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (USAGE_TOL, DemandVector, PolynomialCost, Structure, _as_list, _field,
                   _integer, _reject_unknown, _strategy_distributions, parse_instance)
from .discrete_dist import (Pmf, ValueDist, bernoulli_sum_pmf, binomial_ladder,
                            leave_one_out_moments, remove_bernoulli, remove_bernoulli_terms,
                            weighted_sum_distribution)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     PrecisionError, StructureError)

TIE_TOL = 1e-12
VERIFY_TOL = 1e-9  # default regret tolerance of an equilibrium check
OPT_BUDGET = 250_000  # count vectors the exact optimum search may score
MAX_SWEEPS = 500  # best-response sweeps before the dynamics give up


def _type_demands(game) -> DemandVector:
    """Per-type sums of the players' weights or participation probabilities."""
    d = np.zeros(game.structure.n_types)
    for m, t in zip(game.magnitudes, game.player_types):
        d[t] += m
    return DemandVector(d)


def _require_finite(evaluate, load) -> float:
    """A cost, given by its ``evaluate`` method, at the largest load a game can
    put on it; a cost that is not finite there is rejected."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            top = float(evaluate(load))
    except PrecisionError as exc:
        raise StructureError(f"cost not evaluable up to {load}: {exc}") from None
    if not math.isfinite(top):
        raise StructureError(f"cost is not finite at the largest load {load}")
    return top


def _require_finite_social_cost(load: float, tops: list[float]) -> None:
    """Reject a game whose social cost could overflow.

    Costs are nondecreasing, so when no load exceeds ``load`` and ``tops``
    bound each resource's cost there, each resource's E[L c(L)] is at most
    ``load * max(tops)`` and their sum at most ``len(tops)`` times that.  A
    finite bound keeps every value ``esc`` and the optimum search add, and
    their sum, finite.
    """
    bound = len(tops) * load * max(tops, default=0.0)
    if not math.isfinite(bound):
        raise StructureError(f"the social cost bound {len(tops)} * {load} * {max(tops)} "
                             "overflows")


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
        if not math.isfinite(sum(self.weights)):
            raise DomainError("player weights and their total must be finite")
        if any(w <= 0 for w in self.weights):
            raise StructureError("player weights must be positive")
        if any(t < 0 or t >= self.structure.n_types for t in self.player_types):
            raise StructureError("player type out of range")
        total = math.fsum(self.weights)
        tops = []
        for c in self.structure.cost_fns:
            if not getattr(c, "is_continuous", False):
                raise StructureError("weighted games need continuous cost functions")
            tops.append(_require_finite(c.value, total))
        _require_finite_social_cost(total, tops)

    @property
    def n_players(self) -> int:
        return len(self.weights)

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return self.weights

    demand = cached_property(_type_demands)

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
        tops = []
        for c in self.structure.cost_fns:
            if not getattr(c, "has_integer_eval", False):
                raise StructureError("Bernoulli games need integer-domain cost functions")
            tops.append(_require_finite(c.value_int, n + 1))
        _require_finite_social_cost(n, tops)

    @property
    def n_players(self) -> int:
        return len(self.probs)

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return self.probs

    demand = cached_property(_type_demands)

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
        object.__setattr__(self, "probs", _strategy_distributions(self.probs, "player"))

    def __len__(self) -> int:
        return len(self.probs)

    @classmethod
    def pure(cls, game: Game, strategies: Sequence[int]) -> "MixedProfile":
        out = []
        for i, s in enumerate(strategies):
            m = len(game.structure.strategies[game.player_types[i]])
            _check_index(s, m, f"strategy of player {i}")
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


def _check_index(k: int, size: int, what: str) -> None:
    """Reject an index outside 0 .. size - 1; a negative one would count from the end."""
    if not 0 <= k < size:
        raise StructureError(f"no {what} with index {k}")


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
    _check_index(i, game.n_players, "player")
    _check_index(e, s.n_resources, "resource")
    sl = s.type_slices[game.player_types[i]]
    return float(profile.probs[i] @ s.incidence[sl][:, e])


# ---------------------------------------------------------------------------
# load laws and exact conditional expected costs


@dataclass(eq=False)
class _Column:
    """One resource's users, split once into certain weights and random terms.

    ``certain`` maps each weighted player sure to use the resource to its
    weight, and ``total`` is their fsum.  ``own`` holds every player's
    Bernoulli term: usage probability (times participation, in a Bernoulli
    game) for the players whose use is random, 0 for the rest.  ``rand``
    lists the random users, ``terms`` and ``weights`` their terms and
    weights, and ``key`` the sorted terms.  ``law`` (the key's pmf) and
    ``moments`` (leave-one-out raw moment rows, the whole sum's last) fill in
    on first use, and ``values`` memoizes conditional costs by the asking
    player's own entry: its term, and in a weighted game its weight and
    whether it is certain, which fix the other players' load.
    """

    certain: dict[int, float]
    total: float
    own: list[float]
    rand: np.ndarray
    terms: np.ndarray
    weights: np.ndarray
    key: tuple[float, ...]
    law: np.ndarray | None = None
    moments: list[list[float]] | None = None
    values: dict = field(default_factory=dict)

    @cached_property
    def signature(self) -> bytes:
        """The random users' weights and terms, in player order: equal ones
        enumerate to the same law."""
        return self.weights.tobytes() + self.terms.tobytes()

    @cached_property
    def index(self) -> dict[int, int]:
        """Each random user's position in ``rand``."""
        return dict(zip(self.rand.tolist(), range(self.rand.size)))

    @cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.weights, return_counts=True)

    def shared_weight(self, i: int | None = None) -> float | None:
        """The one weight of the random users other than player i, if they share one."""
        vals, counts = self._distinct
        if vals.size == 1:
            return float(vals[0])
        j = self.index.get(i)
        if vals.size == 2 and j is not None:
            mine = int(vals[1] == self.weights[j])
            if counts[mine] == 1:
                return float(vals[1 - mine])
        return None


class _LoadLaws:
    """Every load law of one evaluation of a game, and the expectations read from them.

    ``record(e)`` splits resource e's column of the usage matrix (players x
    resources) once into a ``_Column``, which every expectation on e reads.
    ``pmf`` convolves the Poisson-binomial law of each key (sorted Bernoulli
    terms) once, so resources with the same random users share one law.  A
    conditional cost needs the count without the player's own term q:
    ``without`` deconvolves q out of the full law over its nonzero window
    (``remove_bernoulli``), convolves the other terms when the residual check
    fails, and keeps the last such law, since one player's resources often
    share a column.  ``conditional`` reads E c_e(base + weight Z) under it.
    A single query takes this path, since a best-response move changes a
    column before the next player reads it; ``fill_conditionals`` memoizes
    every Bernoulli player's costs at once for ``verify_equilibrium``, with
    the same bytes: one ``remove_bernoulli_terms`` sweep per key, over the
    key's distinct terms.

    A Bernoulli player's cost on e is ``conditional`` at its term.  A weighted
    player's cost (``_edge_cost``) takes the first route that
    applies: (1) no other random user: c_e at the certain load; (2) the other
    random users share one weight: ``conditional``; (3) a ``PolynomialCost``:
    the record's leave-one-out raw moments; (4) else an enumeration of the
    other random weights' sums, at most ``EXACT_TERMS`` of them.

    ``move`` replaces a player's row, as best-response dynamics does, and drops
    each changed column's record.  A record that held its law passes it on
    over its window: the mover's old term deconvolved out (or the law
    convolved afresh when the residual check fails) and its new one convolved
    in.  Pmfs that no record uses are dropped, so at most one law per
    resource is kept.

    ``edge_value`` is E[L c_e(L)], for resource e's column or for the sorted
    magnitudes of certain users (the optimum search, which has no usage and
    builds the key from its counts).  With weights it reads ``weighted_law``,
    which enumerates a column whose random weights differ (columns with the
    same random users in a row share one enumeration, so ``esc`` visits them
    together), or c_e at the magnitudes' fsum; with probabilities, the key's
    pmf against the grid ``load_costs(e)``.  The optimum search fills a resource that one class
    uses without it, by the same arithmetic: the binomial ladder's laws have
    the bytes of the equal-term keys' pmfs, and k w is the fsum of k copies
    of w.  A profile's cost is the fsum of its resources' values, which does
    not depend on edge order, so ``esc`` and the count-space optimum search,
    which sum the same values, agree bit for bit.
    """

    def __init__(self, game: Game, usage: np.ndarray | None = None):
        self.game = game
        self.usage = usage
        self.mags = np.asarray(game.magnitudes, dtype=float)
        self.top = math.frexp(math.fsum(game.magnitudes))[1]  # every load is below 2^top
        n_res = game.structure.n_resources
        self.records: list[_Column | None] = [None] * n_res
        self._grids: list[np.ndarray | None] = [None] * n_res
        self._load_grids: list[np.ndarray | None] = [None] * n_res
        self._pmfs: dict[tuple[float, ...], np.ndarray] = {(): np.ones(1)}  # nobody: 0
        self._last: tuple[np.ndarray, float, np.ndarray] | None = None
        self._enumerated: tuple[bytes, ValueDist] | None = None

    def pmf(self, key: tuple[float, ...]) -> np.ndarray:
        """Pmf of the count with these sorted Bernoulli terms."""
        pmf = self._pmfs.get(key)
        if pmf is None:
            pmf = self._pmfs[key] = bernoulli_sum_pmf(key).probs
        return pmf

    def record(self, e: int) -> _Column:
        """Resource e's users, split into certain weights and random terms."""
        col = self.records[e]
        if col is None:
            u = self.usage[:, e]
            if self.game.kind == "bernoulli":
                own, sure = self.mags * u, []
            else:
                own, sure = u * (u < 1.0), np.flatnonzero(u >= 1.0).tolist()
            rand = np.flatnonzero(own > 0.0)
            terms = own[rand]
            certain = {i: self.game.magnitudes[i] for i in sure}
            col = self.records[e] = _Column(
                certain, math.fsum(certain.values()), own.tolist(), rand, terms,
                self.mags[rand], tuple(np.sort(terms).tolist()))
        return col

    def law(self, e: int) -> np.ndarray:
        """Pmf of resource e's random count."""
        col = self.record(e)
        if col.law is None:
            col.law = self.pmf(col.key)
        return col.law

    def without(self, e: int, q: float) -> np.ndarray:
        """Law of resource e's count without the term q (q = 0: the whole count)."""
        full = self.law(e)
        if q == 0.0:
            return full
        if self._last is not None and self._last[0] is full and self._last[1] == q:
            return self._last[2]
        pmf = remove_bernoulli(full, q)
        if pmf is None:
            pmf = self._convolved_without(self.records[e].key, q)
        self._last = (full, q, pmf)
        return pmf

    def _convolved_without(self, key: tuple[float, ...], q: float) -> np.ndarray:
        """The law of the terms of ``key`` but one q, convolved directly."""
        j = key.index(q)
        return self.pmf(key[:j] + key[j + 1:])

    def fill_conditionals(self) -> None:
        """Memoize every conditional cost of a Bernoulli game's players on the
        resources they may use, as ``_edge_cost`` would compute it.

        Resources whose random users have one key share one law, so each key's
        distinct terms are taken out of it at once (``remove_bernoulli_terms``,
        with ``remove_bernoulli``'s bytes), and each law is dotted with the
        ``unit_costs`` as ``conditional`` does, once per distinct grid.
        """
        groups: dict[tuple[float, ...], dict[bytes, list[int]]] = {}
        for e in range(self.game.structure.n_resources):
            key = self.record(e).key
            if key:
                groups.setdefault(key, {}).setdefault(self.unit_costs(e).tobytes(), []).append(e)
        for key, by_grid in groups.items():
            terms = list(dict.fromkeys(key))
            full = self.law(next(iter(by_grid.values()))[0])
            for q, pmf in zip(terms, remove_bernoulli_terms(full, terms)):
                if pmf is None:
                    pmf = self._convolved_without(key, q)
                for edges in by_grid.values():
                    value = float(pmf @ self.unit_costs(edges[0])[:pmf.size])
                    for e in edges:  # the memo key of a Bernoulli player's entry
                        self.records[e].values[(q, 1.0, False)] = value

    def unit_costs(self, e: int) -> np.ndarray:
        """c_e(1), ..., c_e(n + 1) for a Bernoulli game of n players."""
        grid = self._grids[e]
        if grid is None:
            cost = self.game.structure.cost_fns[e]
            ks = np.arange(self.game.n_players + 1) + 1
            grid = self._grids[e] = np.asarray(cost.value_int(ks), dtype=float)
        return grid

    def load_costs(self, e: int) -> np.ndarray:
        """k c_e(k) for k = 0, ..., n in a Bernoulli game of n players, read off
        ``unit_costs``."""
        grid = self._load_grids[e]
        if grid is None:
            n = self.game.n_players
            grid = self._load_grids[e] = np.concatenate(
                ([0.0], np.arange(1, n + 1) * self.unit_costs(e)[:n]))
        return grid

    def conditional(self, e: int, q: float, base: float = 1.0, weight: float = 1.0) -> float:
        """E[c_e(base + weight Z)], Z counting resource e's random users without the term q.

        Bernoulli games read c_e through ``value_int`` (base and weight are 1),
        weighted games through ``value``.
        """
        pmf = self.without(e, q)
        if self.game.kind == "bernoulli":
            vals = self.unit_costs(e)[:pmf.size]
        else:
            cost = self.game.structure.cost_fns[e]
            vals = np.asarray(cost.value(base + weight * np.arange(pmf.size)), dtype=float)
        return float(pmf @ vals)

    def move(self, i: int, row: np.ndarray) -> None:
        changed = np.flatnonzero(self.usage[i] != row)
        held = [self.records[e] for e in changed]
        self.usage[i] = row
        for e, was in zip(changed, held):
            self.records[e] = None
            if was is not None and was.law is not None:
                self._carry(e, was, i)
        live = {col.key for col in self.records if col is not None} | {()}
        for key in self._pmfs.keys() - live:
            del self._pmfs[key]
        self._last = None

    def _carry(self, e: int, was: _Column, i: int) -> None:
        """Give resource e's rebuilt record the law of ``was``, its record before
        player i moved, with i's old term deconvolved out and its new one convolved in."""
        col = self.record(e)
        law = self._pmfs.get(col.key)
        if law is None:
            old, new = was.own[i], col.own[i]
            law = remove_bernoulli(was.law, old) if old > 0.0 else was.law
            if law is None:
                law = self.pmf(col.key)
            else:
                law = self._pmfs[col.key] = np.convolve(law, [1.0 - new, new]) if new > 0.0 else law
        col.law = law

    def weighted_law(self, e: int) -> ValueDist:
        """Law of resource e's weighted load: the certain weights' fsum plus the random rest."""
        col = self.record(e)
        if not col.rand.size:
            return ValueDist(np.array([col.total]), np.ones(1))
        weight = col.shared_weight()
        if weight is not None:
            rest = ValueDist.from_pmf(Pmf(self.law(e)), scale=weight)
        else:
            # columns with the same random users share the last enumeration; it is
            # dropped before the next one is built, so at most one is alive
            if self._enumerated is None or self._enumerated[0] != col.signature:
                self._enumerated = None
                self._enumerated = (col.signature,
                                    weighted_sum_distribution(col.weights, col.terms))
            rest = self._enumerated[1]
        return ValueDist(col.total + rest.values, rest.masses)

    def edge_value(self, e: int, key: tuple[float, ...] | None = None) -> float:
        """E[L c_e(L)] for resource e's load: its column's, or that of certain
        users with the sorted magnitudes ``key``.

        A Bernoulli load's value is its key's pmf against resource e's grid of
        k c_e(k), k = 0..n, derived once per resource from the costs that the
        conditional costs read.
        """
        if self.game.kind == "bernoulli":
            key = self.record(e).key if key is None else key
            if not key:
                return 0.0
            pmf = self.pmf(key)
            return float(pmf @ self.load_costs(e)[:pmf.size])
        cost = self.game.structure.cost_fns[e]
        if key is not None:
            load = math.fsum(key)
            return load * float(cost.value(load))
        law = self.weighted_law(e)
        return float(law.masses @ (law.values * np.asarray(cost.value(law.values), dtype=float)))


# opt_and_poa pins one store per profile here, so that the profile's
# verify_equilibrium and esc calls read the same laws
_PINNED: ContextVar[tuple[Game, MixedProfile, _LoadLaws] | None] = ContextVar(
    "_PINNED", default=None)


def _laws_of(game: Game, profile: MixedProfile) -> _LoadLaws:
    """The store pinned for this game and profile, else a new one."""
    pinned = _PINNED.get()
    if pinned is not None and pinned[0] is game and pinned[1] is profile:
        return pinned[2]
    return _LoadLaws(game, choice_probabilities(game, profile))


def _edge_cost(laws: _LoadLaws, i: int, e: int) -> float:
    """Player i's expected cost on resource e, conditional on its using e.

    A Bernoulli player's is E[c_e(1 + Z)], Z counting the other players that
    take part on e.  A weighted player's is E[c_e(b + V)] by the first route
    that applies (``_LoadLaws``): b is w_i plus the fsum of the other certain
    users' weights on e, and V the weight the other players put on e at random.
    """
    col = laws.records[e] or laws.record(e)
    q = col.own[i]
    bernoulli = laws.game.kind == "bernoulli"
    w, sure = 1.0 if bernoulli else laws.game.weights[i], i in col.certain
    hit = col.values.get((q, w, sure))
    if hit is not None:
        return hit
    cost = laws.game.structure.cost_fns[e]
    # fsum is correctly rounded, so this is the fsum of the other certain weights
    base = w + (math.fsum([*col.certain.values(), -w]) if sure else col.total)
    if bernoulli:
        hit = laws.conditional(e, q)
    elif col.rand.size == (q > 0.0):
        hit = float(cost.value(base))
    elif (shared := col.shared_weight(i)) is not None:
        hit = laws.conditional(e, q, base, shared)
    elif isinstance(cost, PolynomialCost):
        # c(b + V) = sum_k a_k sum_m C(k, m) b^(k-m) V^m, every term nonnegative.
        # When a power of the load could overflow, loads are scaled by 2^-top,
        # which is exact, and each term is scaled back; else nothing is scaled
        shift = laws.top if cost.degree * (laws.top + 1) >= sys.float_info.max_exp else 0
        if col.moments is None:
            col.moments = leave_one_out_moments(np.ldexp(col.weights, -shift), col.terms,
                                                cost.degree).tolist()
        mu = col.moments[col.index.get(i, col.rand.size)]
        b = math.ldexp(base, -shift)
        hit = math.fsum(math.ldexp(a * math.comb(k, m) * b ** (k - m) * mu[m], shift * k)
                        for k, a in enumerate(cost.coeffs) for m in range(k + 1))
    else:
        others = np.arange(col.rand.size) != col.index.get(i, -1)
        dist = weighted_sum_distribution(col.weights[others], col.terms[others])
        hit = float(dist.masses @ np.asarray(cost.value(base + dist.values), dtype=float))
    col.values[(q, w, sure)] = hit
    return hit


def _strategy_cond_cost(laws: _LoadLaws, i: int, s: int) -> float:
    """Conditional cost of strategy s for player i."""
    game = laws.game
    return sum(_edge_cost(laws, i, e) for e in game.structure.strategies[game.player_types[i]][s])


def conditional_cost_estimate(game: Game, profile: MixedProfile, i: int, s: int) -> float:
    """Expected cost of strategy s for player i, conditional on i playing it.

    Exact.  Bernoulli games read the Poisson-binomial law of the other
    players' using probabilities.  In a weighted game each resource takes
    the first route that applies: no other random user; other random users
    of one weight (their Poisson-binomial count); a ``PolynomialCost`` (the
    leave-one-out raw moments of the other random weight, for any number of
    players); else an enumeration of the other random weights' sums, which
    takes at most ``EXACT_TERMS`` (20) terms and raises ``CapacityError``
    beyond that.
    """
    _check_index(i, game.n_players, "player")
    _check_index(s, len(game.structure.strategies[game.player_types[i]]),
                 f"strategy of player {i}")
    return _strategy_cond_cost(_laws_of(game, profile), i, s)


def player_expected_cost(game: Game, profile: MixedProfile, i: int) -> float:
    """Unconditional expected cost of player i (inactive players pay nothing)."""
    _check_index(i, game.n_players, "player")
    laws = _laws_of(game, profile)
    total = sum(float(profile.probs[i][s]) * _strategy_cond_cost(laws, i, s)
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


def verify_equilibrium(game: Game, profile: MixedProfile,
                       tol: float = VERIFY_TOL) -> EquilibriumReport:
    """Largest amount any player can save by deviating from a used strategy.

    A strategy counts as used when its probability exceeds ``USAGE_TOL``.
    The profile is an (approximate) equilibrium iff the result is at most tol.

    Players of one class (type, magnitude and probability row) see the same
    other players' load on every resource, and ``_edge_cost`` memoizes by
    exactly what fixes that load, so the first player of a class computes
    the class's costs and the others copy them.  A cost that is not finite
    raises ``PrecisionError``: no comparison with NaN could certify anything.
    """
    laws = _laws_of(game, profile)
    if game.kind == "bernoulli":
        laws.fill_conditionals()
    rows = []
    worst = 0.0
    classes: dict[tuple, tuple] = {}
    for i in range(game.n_players):
        key = (game.player_types[i], game.magnitudes[i], profile.probs[i].tobytes())
        row = classes.get(key)
        if row is None:
            costs = [_strategy_cond_cost(laws, i, s) for s in range(profile.probs[i].size)]
            if not all(map(math.isfinite, costs)):
                raise PrecisionError(f"player {i} has a conditional cost that is not finite")
            best = min(costs)
            used = profile.probs[i] > USAGE_TOL
            regret = max((c - best for s, c in enumerate(costs) if used[s]), default=0.0)
            row = classes[key] = (tuple(costs), best, regret)
            worst = max(worst, regret)
        rows.append(PlayerRegret(i, *row))
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


def best_response_dynamics(game: Game, initial: Sequence[int]) -> BestResponseResult:
    """Round-robin exact best responses from a pure profile, for up to ``MAX_SWEEPS`` sweeps.

    Players keep their current strategy when it is within ``TIE_TOL`` of the
    optimum; otherwise they move to the lowest-index best response.  A revisit
    of an earlier state is returned as a cycle report rather than an error.
    """
    state = list(initial)
    if len(state) != game.n_players:
        raise StructureError("initial profile does not cover every player")
    laws = _LoadLaws(game, choice_probabilities(game, MixedProfile.pure(game, state)))
    history = [tuple(state)]
    seen = {tuple(state): 0}
    for sweep in range(1, MAX_SWEEPS + 1):
        changed = False
        regret = 0.0
        for i in range(game.n_players):
            t = game.player_types[i]
            m = len(game.structure.strategies[t])
            costs = [_strategy_cond_cost(laws, i, s) for s in range(m)]
            best = int(np.argmin(costs))
            if costs[best] < costs[state[i]] - TIE_TOL:
                state[i] = best
                sl = game.structure.type_slices[t]
                laws.move(i, game.structure.incidence[sl][best])
                changed = True
            regret = max(regret, costs[state[i]] - costs[best])
        snap = tuple(state)
        if not changed:
            return BestResponseResult(snap, True, sweep, None, regret)
        if snap in seen:
            cycle = tuple(history[seen[snap]:]) + (snap,)
            return BestResponseResult(None, False, sweep, cycle, None)
        seen[snap] = len(history)
        history.append(snap)
    return BestResponseResult(None, False, MAX_SWEEPS, None, None)


def _require_symmetric(game: Game) -> None:
    if len(set(game.player_types)) != 1:
        raise ConfigError("symmetric solver needs all players of one type")
    if len(set(game.magnitudes)) != 1:
        raise ConfigError("symmetric solver needs identical weights/probabilities")


def symmetric_mixed_equilibrium(game: Game, tol: float = VERIFY_TOL) -> MixedProfile:
    """Shared mixed strategy making every identical player indifferent.

    Scans pure symmetric profiles, then solves two-strategy indifference by
    bisection, then falls back to a best-response fixed point over the full
    simplex, damped by one half, for up to 2000 iterations.  The result is
    returned only if it verifies under ``tol``.
    """
    _require_symmetric(game)
    t = game.player_types[0]
    m = len(game.structure.strategies[t])

    def attempt(sigma: np.ndarray) -> MixedProfile | None:
        prof = MixedProfile.symmetric(game, sigma)
        if verify_equilibrium(game, prof, tol).ok:
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
        laws = _LoadLaws(game, choice_probabilities(game, prof))
        return _strategy_cond_cost(laws, 0, a) - _strategy_cond_cost(laws, 0, b)

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
    for it in range(2000):
        prof = MixedProfile.symmetric(game, sigma)
        laws = _LoadLaws(game, choice_probabilities(game, prof))
        costs = np.array([_strategy_cond_cost(laws, 0, s) for s in range(m)])
        floor = costs.min()
        target = (costs <= floor + TIE_TOL).astype(float)
        target /= target.sum()
        sigma = 0.5 * sigma + 0.5 * target
        sigma = np.maximum(sigma, 0.0)
        sigma /= sigma.sum()
        if it % 10 == 9:  # the last iteration, 1999, is one of these
            found = attempt(sigma)
            if found is not None:
                return found
    raise ConvergenceError("no symmetric mixed equilibrium found at the requested tolerance")


# ---------------------------------------------------------------------------
# social cost, optimum, anarchy


def esc(game: Game, profile: MixedProfile) -> float:
    """Expected social cost: the fsum over resources of E[L_e c_e(L_e)].

    Exact.  A weighted resource's value reads the law of its whole load: the
    Poisson-binomial count when its random users share one weight, else an
    enumeration, so a resource with more than ``EXACT_TERMS`` (20) random
    users of unequal weight raises ``CapacityError``, polynomial costs
    included.  The optimum search sums the same per-resource values, so
    equal pure assignments give bitwise-equal costs.
    """
    laws = _laws_of(game, profile)
    # resources with the same random users come one after another, so that they
    # share one enumeration; the fsum does not depend on the order
    edges = sorted(range(game.structure.n_resources), key=lambda e: laws.record(e).signature)
    return math.fsum(laws.edge_value(e) for e in edges)


def expected_loads(game: Game, profile: MixedProfile) -> np.ndarray:
    """Expected resource loads: weight/probability times usage, summed over players."""
    usage = choice_probabilities(game, profile)
    return np.asarray(game.magnitudes) @ usage


def load_distribution(game: Game, profile: MixedProfile, e: int):
    """Distribution of the random load on resource e, the law ``esc`` reads.

    Bernoulli games yield a pmf on the integers; weighted games yield a
    value distribution (shifted, scaled counts when the random weights agree).
    """
    _check_index(e, game.structure.n_resources, "resource")
    laws = _laws_of(game, profile)
    if game.kind == "bernoulli":
        return Pmf(laws.law(e))
    return laws.weighted_law(e)


def strategy_flow_covariance(game: Game, profile: MixedProfile, t: int,
                             s1: int, s2: int) -> float:
    """Covariance of the random flows on two strategies of one type (closed form)."""
    _check_profile(game, profile)
    _check_index(t, game.structure.n_types, "type")
    for k in (s1, s2):
        _check_index(k, len(game.structure.strategies[t]), f"strategy of type {t}")
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
    rows = math.comb(n + k - 1, k - 1)
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n + k - 1), k - 1)), np.int64, rows * (k - 1))
    ends = np.full((rows, 1), n + k - 1)
    return np.diff(np.hstack([-np.ones_like(ends), bars.reshape(rows, k - 1), ends]), axis=1) - 1


@dataclass(frozen=True)
class OptResult:
    value: float
    exact: bool
    description: str


_COMBO_CHUNK = 1 << 14


def _first_minimum(blocks) -> tuple[float, int | None]:
    """The row that a sequential scan keeps, and its fsum: blocks of rows in order.

    The scan keeps the first row, then any row whose fsum is below the best
    so far by more than 1e-15 times the best.  That threshold falls only as
    the best does, and every earlier row was at or above it when scanned (or
    set the best, which is above it), so a row that replaces the best is below
    every earlier row's fsum.  Only rows that can be are summed with ``fsum``:
    a block's ``sum(axis=1)`` is within ``err`` of each row's fsum (n terms
    added in any order are off by at most n u times the sum of their
    magnitudes, the fsum by u more; ``err`` doubles that, and the smallest
    normal float covers underflow), so a row whose lower bound is not below
    every earlier row's upper bound is skipped, and the skipped rows are
    those that would not have changed the scan's state.
    """
    best, best_row, bound, start = math.inf, None, math.inf, 0
    for block in blocks:
        sums = block.sum(axis=1)
        err = np.abs(block).sum(axis=1) * math.ldexp(block.shape[1] + 4, -52) + sys.float_info.min
        upper = sums + err
        prefix = np.minimum.accumulate(np.concatenate(([bound], upper[:-1])))
        for r in np.flatnonzero(sums - err < prefix).tolist():
            val = math.fsum(block[r].tolist())
            if best_row is None or val < best - 1e-15 * best:
                best, best_row = val, start + r
        bound = min(float(prefix[-1]), float(upper[-1]))
        start += block.shape[0]
    return best, best_row


def _count_space_optimum(game: Game, classes: Counter) -> OptResult:
    """Minimum over per-class strategy counts, each scored from per-resource tables.

    ``classes`` counts the players of each (type, magnitude).  The strategy
    counts of a class are the rows of ``_compositions``; every combination of
    one row per class, classes in key order, is a profile, visited in
    ``itertools.product`` order.  A resource's value depends only on how many
    players of each class use it, so each resource gets one table over the
    per-class counts that vary on it; ``parts[j]`` holds, per composition of
    class j and per resource, that class's share of the flat index into
    ``values``, where the tables lie one after another.

    A resource that only one class uses, with a varying count, is filled from
    the counts k = 0..n_j: in a Bernoulli game by one ``binomial_ladder`` per
    class, each law dotted with the resource's ``load_costs`` as
    ``edge_value`` dots the key's pmf (the ladder's k-th law has that pmf's
    bytes); in a weighted game at the load k w, which equals the fsum of k
    copies of w since both are correctly rounded (a ``PolynomialCost`` takes
    all k at once as one array, whose entries round as its scalar values
    do).  Any other resource's
    entries are ``edge_value`` at a key built from the counts: the distinct
    magnitudes on it, sorted once, each repeated by its count.  The profiles
    are scored by ``_first_minimum``, so equal values keep the first profile.
    """
    s = game.structure
    laws = _LoadLaws(game)
    keys = sorted(classes)
    sizes = [classes[k] for k in keys]
    mags = [w for _, w in keys]
    comps = [_compositions(n, len(s.strategies[t])) for n, (t, _) in zip(sizes, keys)]
    # users[j][r, e]: players of class j on resource e under composition r
    users = [c @ s.incidence[s.type_slices[t]].astype(np.int64)
             for c, (t, _) in zip(comps, keys)]
    parts = [np.zeros_like(u) for u in users]
    solo: list[list[tuple[int, int]]] = [[] for _ in keys]  # (resource, offset) per class
    generic: list[tuple[int, int, list]] = []
    size = 0
    for e in range(s.n_resources):
        ranges = [range(n + 1) if np.ptp(u[:, e]) > 0 else (int(u[0, e]),)
                  for n, u in zip(sizes, users)]
        stride = 1
        for j in reversed(range(len(ranges))):
            if len(ranges[j]) > 1:
                parts[j][:, e] = users[j][:, e] * stride
                stride *= len(ranges[j])
        parts[0][:, e] += size
        present = [j for j, r in enumerate(ranges) if r != (0,)]
        if len(present) == 1 and len(ranges[present[0]]) > 1:
            solo[present[0]].append((e, size))
        else:
            generic.append((e, size, [(j, ranges[j]) for j in present]))
        size += stride
    values = np.empty(size)
    bernoulli = game.kind == "bernoulli"
    for j, (n, w) in enumerate(zip(sizes, mags)):
        if not solo[j]:
            continue
        if bernoulli:
            grids = [(laws.load_costs(e), at) for e, at in solo[j]]
            for k, pmf in enumerate(binomial_ladder(w, n)):
                for grid, at in grids:
                    values[at + k] = float(pmf @ grid[:k + 1])
        else:
            for e, at in solo[j]:
                cost = s.cost_fns[e]
                if isinstance(cost, PolynomialCost):
                    loads = np.arange(n + 1) * w
                    values[at:at + n + 1] = loads * np.asarray(cost.value(loads), dtype=float)
                else:
                    for k in range(n + 1):
                        load = k * w
                        values[at + k] = load * float(cost.value(load))
    for e, at, present in generic:
        order = sorted({mags[j] for j, _ in present})
        ones = [(v,) for v in order]
        # counts[k, i]: users of magnitude order[i] in the k-th entry
        member = np.equal.outer([mags[j] for j, _ in present], order).astype(np.int64)
        counts = np.array(list(itertools.product(*(r for _, r in present))),
                          dtype=np.int64) @ member
        for k, row in enumerate(counts.tolist()):
            values[at + k] = laws.edge_value(e, sum(map(operator.mul, ones, row), ()))
    shape = tuple(len(c) for c in comps)
    total = math.prod(shape)

    def blocks():
        for start in range(0, total, _COMBO_CHUNK):
            rows = np.unravel_index(np.arange(start, min(start + _COMBO_CHUNK, total)), shape)
            yield values[sum(part[r] for part, r in zip(parts, rows))]

    best, best_row = _first_minimum(blocks())
    best_counts = tuple(tuple(int(v) for v in c[r])
                        for c, r in zip(comps, np.unravel_index(best_row, shape)))
    return OptResult(best, True, f"pure counts {best_counts}")


def social_optimum_pure(game: Game, budget: int = OPT_BUDGET) -> OptResult | None:
    """Exact minimum expected social cost over pure profiles, when enumerable.

    The expected social cost is multilinear in the players' mixed strategies,
    so its minimum over all mixed profiles is attained at a pure profile.
    Players of one type and one magnitude are interchangeable, so profiles
    are enumerated by per-class strategy counts; a profile replaces the best
    so far only when it is cheaper by more than 1e-15 times the best.
    Returns None when the count vectors number more than ``budget``.
    """
    s = game.structure
    classes = Counter(zip(game.player_types, game.magnitudes))
    combos = math.prod(math.comb(n + len(s.strategies[t]) - 1, len(s.strategies[t]) - 1)
                       for (t, _), n in classes.items())
    if combos > budget:
        return None
    return _count_space_optimum(game, classes)


@dataclass(frozen=True)
class OptPoaResult:
    opt: float
    poa: float
    pos: float
    esc_values: tuple[float, ...]
    opt_exact: bool
    opt_description: str
    rejected: tuple[int, ...]


def opt_and_poa(game: Game, equilibria: Sequence[MixedProfile]) -> OptPoaResult:
    """Optimum cost plus anarchy/stability ratios over a verified equilibrium family.

    Profiles that fail verification at ``VERIFY_TOL`` are reported in
    ``rejected`` and excluded.  When exhaustive search is over ``OPT_BUDGET``
    the optimum falls back to the best supplied equilibrium and is flagged as
    inexact.  A profile's verification and its ``esc`` read one store of load laws.
    """
    verified: list[float] = []
    rejected: list[int] = []
    for idx, prof in enumerate(equilibria):
        pin = _PINNED.set((game, prof, _LoadLaws(game, choice_probabilities(game, prof))))
        try:
            if verify_equilibrium(game, prof).ok:
                verified.append(esc(game, prof))
            else:
                rejected.append(idx)
        finally:
            _PINNED.reset(pin)
    if not verified:
        raise ConvergenceError("no supplied profile verified as an equilibrium")
    found = social_optimum_pure(game)
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
    structure, demand = parse_instance({k: obj[k] for k in ("resources", "types", "demands")
                                        if k in obj})
    weights: list[float] = []
    probs: list[float] = []
    types: list[int] = []

    def magnitude(entry: Mapping, field: str, count: int, t: int) -> float:
        if entry[field] == "d/n":
            return demand[t] / count
        return _field(entry, field, "player entry", float)

    for entry in _field(obj, "players", "game file", _as_list):
        _reject_unknown(entry, {"type", "weight", "prob", "count"}, "player entry")
        tid = _field(entry, "type", "player entry", str)
        if tid not in structure.type_index:
            raise StructureError(f"player entry names the unknown type {tid!r}")
        t = structure.type_index[tid]
        count = _field(entry, "count", "player entry", _integer, 1)
        if count < 1:
            raise DomainError(f"player entry key 'count' must be positive, not {count}")
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
