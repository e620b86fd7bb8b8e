"""Weighted and Bernoulli atomic congestion games.

Weighted players contribute their full weight when using a resource; Bernoulli
players have unit weight but participate only with an individual probability,
drawn independently of everyone's mixed strategies.  Every expected cost is
exact.

Every load law of an evaluation comes from one store, ``_LoadLaws``.  It
splits each resource's column of usage probabilities once into a record
(``_Column``): the certain users' weights and their fsum, and the random
users' Bernoulli terms, whose sorted tuple keys one Poisson-binomial law.
Each law is one record (``_Law``), convolved once: its pmf, its last
single-term deconvolution (``remove_bernoulli``), and per grid of costs (the
game's) a map from a player's own term to its conditional cost, which
best-response dynamics and ``verify_equilibrium`` fill alike, a term at a
time or all at once (``remove_bernoulli_terms``).  A best-response move
patches each changed column's record and carries its law: the mover's old
term out, by the deconvolution its own evaluation has just made, and its new
one in.  Bernoulli games read every conditional cost from these count laws.
A weighted player's cost on a resource takes the first route that applies:

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
verification and ``esc`` one store.

Players of one type and one magnitude form a class and are interchangeable.
A game decides its classes in one place, ``_AtomicGame._classes``, which the
three readers share: ``verify_equilibrium`` evaluates one cost row per class
and probability row, ``symmetric_mixed_equilibrium`` needs exactly one class,
and the exact social optimum counts its profiles per class.

The exact social optimum is searched over pure profiles.  A profile is a
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

import bisect
import itertools
import json
import math
import operator
import sys
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, partialmethod
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import (USAGE_TOL, DemandVector, PolynomialCost, Structure, _as_list,
                   _check_demand, _check_index, _field, _integer, _integer_arg, _readonly,
                   _reject_unknown, _strategy_distributions, parse_instance)
from .discrete_dist import (_BATCH_TERMS, Pmf, ValueDist, bernoulli_sum_pmf, binomial_ladder,
                            leave_one_out_moments, remove_bernoulli, remove_bernoulli_terms,
                            weighted_sum_distribution)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     PrecisionError, StructureError)
from .wardrop import solve_wardrop

TIE_TOL = 1e-12
VERIFY_TOL = 1e-9  # default regret tolerance of an equilibrium check
OPT_BUDGET = 250_000  # count vectors the exact optimum search may score
MAX_SWEEPS = 500  # best-response sweeps before the dynamics give up


class _Classes(NamedTuple):
    """A game's player classes: players of one type and one magnitude, who are
    interchangeable in every cost."""

    keys: list[tuple[int, float]]  # each class's (type, magnitude), sorted
    sizes: list[int]  # players per class
    of: list[int]  # each player's class


class _AtomicGame:
    """What a game fixes alike in both player models: its players' types and
    magnitudes, their classes, the demand they add up to per type, and the
    checks every game passes when it is built.  A player model gives its
    magnitudes' field and what one is called (``_magnitude``), their rule
    (``_check_magnitudes``), the costs it can evaluate and how (``_costs``),
    and its largest load and the largest load a cost is read at
    (``_top_loads``).

    Costs are nondecreasing, so the resources' number times the largest load
    times the largest cost there bounds every value ``esc`` and the optimum
    search add, and their sum: a game whose bound overflows is rejected.
    """

    structure: Structure
    player_types: tuple[int, ...]
    kind: str
    _magnitude: tuple[str, str]
    _costs: tuple[str, str, str]

    def __post_init__(self):
        name, each = self._magnitude
        object.__setattr__(self, name, tuple(float(m) for m in getattr(self, name)))
        n_types = self.structure.n_types
        object.__setattr__(self, "player_types",
                           tuple(_check_index(t, n_types, "type") for t in self.player_types))
        if len(self.magnitudes) != len(self.player_types):
            raise StructureError(f"one {each} per player is required")
        if not self.player_types:
            raise StructureError("a game needs at least one player")
        self._check_magnitudes()
        capability, method, message = self._costs
        load, read_at = self._top_loads()
        tops = []
        for c in self.structure.cost_fns:
            if not getattr(c, capability, False):
                raise StructureError(message)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    tops.append(float(getattr(c, method)(read_at)))
            except PrecisionError as exc:
                raise StructureError(f"cost not evaluable up to {read_at}: {exc}") from None
            if not math.isfinite(tops[-1]):
                raise StructureError(f"cost is not finite at the largest load {read_at}")
        bound = len(tops) * load * max(tops, default=0.0)
        if not math.isfinite(bound):
            raise StructureError(f"the social cost bound {len(tops)} * {load} * {max(tops)} "
                                 "overflows")

    @property
    def n_players(self) -> int:
        return len(self.player_types)

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return getattr(self, self._magnitude[0])

    @cached_property
    def _classes(self) -> _Classes:
        """The one place that groups players into classes."""
        players = list(zip(self.player_types, self.magnitudes))
        keys = sorted(set(players))
        index = {key: j for j, key in enumerate(keys)}
        of = [index[key] for key in players]
        return _Classes(keys, np.bincount(of).tolist(), of)

    @cached_property
    def demand(self) -> DemandVector:
        """Per-type sums of the players' magnitudes."""
        d = np.zeros(self.structure.n_types)
        for m, t in zip(self.magnitudes, self.player_types):
            d[t] += m
        return DemandVector(d)

    @classmethod
    def homogeneous(cls, structure: Structure, demand: DemandVector, n: int):
        """n players per type of positive demand, each with an equal share of
        it: its weight, or its participation probability."""
        _check_demand(structure, demand)
        n = _integer_arg(n, "player count", 1)
        mags, types = [], []
        for t in range(structure.n_types):
            if demand[t] <= 0:
                continue
            mags.extend([demand[t] / n] * n)
            types.extend([t] * n)
        return cls(structure, tuple(mags), tuple(types))


@dataclass(frozen=True, eq=False)
class WeightedGame(_AtomicGame):
    structure: Structure
    weights: tuple[float, ...]
    player_types: tuple[int, ...]

    kind = "weighted"
    _magnitude = ("weights", "weight")
    _costs = ("is_continuous", "value", "weighted games need continuous cost functions")

    def _check_magnitudes(self) -> None:
        if not math.isfinite(sum(self.weights)):
            raise DomainError("player weights and their total must be finite")
        if any(w <= 0 for w in self.weights):
            raise StructureError("player weights must be positive")

    def _top_loads(self) -> tuple[float, float]:
        """Every player on one resource: the total weight, where costs are read too."""
        total = math.fsum(self.weights)
        return total, total


class _CostGrids(NamedTuple):
    """A Bernoulli game's costs at the counts its loads take, per resource."""

    units: list[np.ndarray]  # c_e(1), ..., c_e(n + 1)
    loads: list[np.ndarray]  # k c_e(k) for k = 0, ..., n
    ids: list[int]  # one per distinct grid of ``units``


@dataclass(frozen=True, eq=False)
class BernoulliGame(_AtomicGame):
    structure: Structure
    probs: tuple[float, ...]
    player_types: tuple[int, ...]

    kind = "bernoulli"
    _magnitude = ("probs", "participation probability")
    _costs = ("has_integer_eval", "value_int",
              "Bernoulli games need integer-domain cost functions")

    def _check_magnitudes(self) -> None:
        if any(not 0.0 < r <= 1.0 for r in self.probs):
            raise StructureError("participation probabilities must lie in (0, 1]")

    def _top_loads(self) -> tuple[int, int]:
        """Every player on one resource: n, and costs are read up to n + 1."""
        return self.n_players, self.n_players + 1

    @cached_property
    def _grids(self) -> _CostGrids:
        """Every cost at the counts that the conditional costs E c_e(1 + Z) and
        the values E[L c_e(L)] read, evaluated once per game.  Resources with
        equal costs share an id, and so the maps of conditional costs that a
        law of ``_LoadLaws`` keeps per grid."""
        n = self.n_players
        ks = np.arange(1, n + 2)
        units = [np.asarray(c.value_int(ks), dtype=float) for c in self.structure.cost_fns]
        loads = [np.concatenate(([0.0], ks[:n] * grid[:n])) for grid in units]
        index: dict[bytes, int] = {}
        return _CostGrids(units, loads, [index.setdefault(g.tobytes(), len(index)) for g in units])


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
        for s, t in zip(_pure_state(game, strategies), game.player_types):
            v = np.zeros(len(game.structure.strategies[t]))
            v[s] = 1.0
            out.append(v)
        return cls(tuple(out))

    @classmethod
    def symmetric(cls, game: Game, sigma: Sequence[float]) -> "MixedProfile":
        v = np.asarray(sigma, dtype=float)
        return cls(tuple(v.copy() for _ in range(game.n_players)))

    def to_json(self) -> dict:
        return {str(i): [float(v) for v in p] for i, p in enumerate(self.probs)}


def _pure_state(game: Game, strategies: Sequence[int]) -> list[int]:
    """One strategy index per player, each read by ``_check_index``."""
    if len(strategies) != game.n_players:
        raise StructureError("a pure profile needs one strategy per player")
    return [_check_index(s, len(game.structure.strategies[t]), f"strategy of player {i}")
            for i, (s, t) in enumerate(zip(strategies, game.player_types))]


def _check_profile(game: Game, profile: MixedProfile) -> None:
    if len(profile) != game.n_players:
        raise StructureError("profile does not cover every player")
    for i, p in enumerate(profile.probs):
        m = len(game.structure.strategies[game.player_types[i]])
        if p.size != m:
            raise StructureError(f"player {i} profile has wrong length")


def choice_probabilities(game: Game, profile: MixedProfile) -> np.ndarray:
    """(n_players, n_resources) matrix of per-resource usage probabilities.

    The rows of each type's players are stacked once, and each entry adds the
    probabilities of the type's strategies that contain the resource, in
    strategy order.  A sum can pass 1 only by rounding, so entries are capped
    at 1: a row that sums to 1 + 2^-52 would otherwise give a Bernoulli term
    above 1.
    """
    _check_profile(game, profile)
    s = game.structure
    out = np.zeros((game.n_players, s.n_resources))
    types = np.asarray(game.player_types)
    for t in range(s.n_types):
        players = np.flatnonzero(types == t)
        if not players.size:
            continue
        rows = np.stack([profile.probs[i] for i in players.tolist()])
        usage = np.zeros((players.size, s.n_resources))
        for k, strategy in enumerate(s.incidence[s.type_slices[t]]):
            usage += rows[:, k, None] * strategy
        out[players] = usage
    return np.minimum(out, 1.0, out=out)


def resource_choice_prob(game: Game, profile: MixedProfile, i: int, e: int) -> float:
    """Probability that player i's drawn strategy contains resource e: its
    entry of ``choice_probabilities``, which every load law is built from."""
    i = _check_index(i, game.n_players, "player")
    e = _check_index(e, game.structure.n_resources, "resource")
    return float(choice_probabilities(game, profile)[i, e])


# ---------------------------------------------------------------------------
# load laws and exact conditional expected costs


@dataclass(eq=False)
class _Law:
    """One Poisson-binomial count law of a store: the pmf of the sorted terms ``key``.

    ``removed(q)`` takes one term out (``remove_bernoulli``) and keeps the
    result for the last term asked, ``singles`` counts those removals since
    the law's last sweep, and ``costs`` maps a cost grid's id to the
    conditional costs read under the law, by the asking player's own term.
    The pmf never changes, so the maps hold while any record holds the law.
    """

    key: tuple[float, ...]
    pmf: np.ndarray
    term: float | None = None
    rest: np.ndarray | None = None
    singles: int = 0
    costs: dict[int, dict[float, float]] = field(default_factory=dict)

    def removed(self, q: float) -> np.ndarray | None:
        """``remove_bernoulli(pmf, q)``, kept for the last q asked: a player's
        evaluation takes its term out of its resources' laws, and its move
        takes the same term out again."""
        if q != self.term:
            self.term, self.rest = q, remove_bernoulli(self.pmf, q)
            self.singles += 1
        return self.rest


@dataclass(eq=False)
class _Column:
    """One resource's users, split once into certain weights and random terms.

    ``certain`` maps each weighted player sure to use the resource to its
    weight, and ``total`` is their fsum.  ``own`` holds every player's
    Bernoulli term: usage probability (times participation, in a Bernoulli
    game) for the players whose use is random, 0 for the rest, and ``key``
    the sorted positive terms.  ``rand`` lists the random users, and
    ``terms`` and ``weights`` (from ``mags``, every player's magnitude) their
    terms and weights: ``record`` sets them, and a record that a move patched
    derives them from ``own`` on first use, which a Bernoulli game's
    conditional costs never make.  ``law`` (the key's ``_Law``) and
    ``moments`` (leave-one-out raw moment rows, the whole sum's last) fill in
    on first use, and ``values`` memoizes a weighted player's conditional
    costs by its own entry: its term, its weight and whether it is certain,
    which fix the other players' load.
    """

    certain: dict[int, float]
    total: float
    own: list[float]
    key: tuple[float, ...]
    mags: np.ndarray
    law: _Law | None = None
    moments: list[list[float]] | None = None
    values: dict = field(default_factory=dict)

    @cached_property
    def rand(self) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.own) > 0.0)

    @cached_property
    def terms(self) -> np.ndarray:
        return np.asarray(self.own)[self.rand]

    @cached_property
    def weights(self) -> np.ndarray:
        return self.mags[self.rand]

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

    The store holds the state of one evaluation only: a Bernoulli game's cost
    grids are the game's (``BernoulliGame._grids``).  ``record(e)`` splits
    resource e's column of the usage matrix (players x resources) once into a
    ``_Column``.  ``law_of`` keeps one ``_Law`` per key (sorted Bernoulli
    terms), convolved once and shared by the resources with those random
    users.  A conditional cost needs the law without the
    player's own term q: ``without`` deconvolves q out (``_Law.removed``), or
    convolves the other terms when the residual check fails.  A Bernoulli
    player's cost on e (``term_cost``) is read from the map that e's law keeps
    for e's grid of costs c_e(1..n+1) (equal grids share an id).  A missing
    entry takes q out alone, or, after ``_BATCH_TERMS`` such removals
    since the law's last sweep, all of the key's terms in one sweep for every
    record holding the law (``_fill``), as in the last sweep of best-response
    dynamics, where nobody moves; ``fill_conditionals`` fills every law's maps
    the same way for ``verify_equilibrium``.  A weighted player's cost
    (``_edge_cost``) takes the first route that applies: (1) no other random
    user: c_e at the certain load; (2) the other random users share one
    weight: their count law without q; (3) a ``PolynomialCost``: the record's
    leave-one-out raw moments; (4) else an enumeration of the other random
    weights' sums, at most ``EXACT_TERMS`` of them.

    ``move`` replaces a player's row, as best-response dynamics does: each
    changed record is patched (one entry of ``own``, one term of the key) and
    gets the law held for its new key, else its old law with the mover's old
    term taken out (the removal that the mover's evaluation has just made)
    and its new one convolved in.  Laws that no record holds are dropped, with
    their maps, so at most one law per resource is kept.

    ``edge_value`` is E[L c_e(L)], for resource e's column or for the sorted
    magnitudes of certain users (the optimum search, which builds the key from
    its counts): with weights, read off ``weighted_law``, which enumerates a
    column whose random weights differ (columns with the same random users in
    a row share one enumeration), or c_e at the magnitudes' fsum; with
    probabilities, the key's pmf against the grid of k c_e(k).  The optimum
    search fills a resource that one class uses by the same arithmetic (the
    binomial ladder's laws have the bytes of the equal-term keys' pmfs, and
    k w is the fsum of k copies of w), and a profile's cost is the fsum of
    its resources' values, so ``esc`` and the search agree bit for bit.
    """

    def __init__(self, game: Game, usage: np.ndarray | None = None):
        self.game = game
        self.usage = usage
        self.mags = np.asarray(game.magnitudes, dtype=float)
        self.top = math.frexp(math.fsum(game.magnitudes))[1]  # every load is below 2^top
        self.records: list[_Column | None] = [None] * game.structure.n_resources
        self._laws: dict[tuple[float, ...], _Law] = {(): _Law((), np.ones(1))}  # nobody: 0
        self._enumerated: tuple[bytes, ValueDist] | None = None

    def law_of(self, key: tuple[float, ...]) -> _Law:
        """The law of the count with these sorted Bernoulli terms."""
        law = self._laws.get(key)
        if law is None:
            law = self._laws[key] = _Law(key, bernoulli_sum_pmf(key).probs)
        return law

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
            certain = {i: self.game.magnitudes[i] for i in sure}
            col = self.records[e] = _Column(
                certain, math.fsum(certain.values()), own.tolist(),
                tuple(np.sort(own[rand]).tolist()), self.mags)
            # the derived arrays, cached from the array at hand
            col.__dict__.update(rand=rand, terms=own[rand], weights=self.mags[rand])
        return col

    def law(self, e: int) -> _Law:
        """The law of resource e's random count."""
        col = self.record(e)
        if col.law is None:
            col.law = self.law_of(col.key)
        return col.law

    def without(self, law: _Law, q: float) -> np.ndarray:
        """The pmf of ``law`` without the term q (q = 0: the whole law)."""
        if q == 0.0:
            return law.pmf
        pmf = law.removed(q)
        return self._convolved_without(law.key, q) if pmf is None else pmf

    def _convolved_without(self, key: tuple[float, ...], q: float) -> np.ndarray:
        """The pmf of the terms of ``key`` but one q, convolved directly."""
        j = key.index(q)
        return self.law_of(key[:j] + key[j + 1:]).pmf

    def term_cost(self, e: int, q: float) -> float:
        """A Bernoulli player's conditional cost on resource e, at its term q there."""
        law, grids = self.law(e), self.game._grids
        costs = law.costs.setdefault(grids.ids[e], {})
        cost = costs.get(q)
        if cost is None:
            if q > 0.0 and law.singles >= _BATCH_TERMS:
                self._fill(law, dict.fromkeys(law.key))
                return costs[q]
            pmf = self.without(law, q)
            cost = costs[q] = float(pmf @ grids.units[e][:pmf.size])
        return cost

    def _fill(self, law: _Law, terms) -> None:
        """Fill the maps of ``law`` for the cost grids of the records that hold
        it at each of ``terms`` that one of them lacks: the positive terms are
        taken out in one ``remove_bernoulli_terms`` sweep, and the term 0 reads
        the whole law."""
        grids = self.game._grids
        held = {grids.ids[e]: grids.units[e] for e, col in enumerate(self.records)
                if col is not None and col.law is law}
        maps = [(law.costs.setdefault(gid, {}), grid) for gid, grid in held.items()]
        todo = [q for q in terms if any(q not in costs for costs, _ in maps)]
        removed = remove_bernoulli_terms(law.pmf, [q for q in todo if q > 0.0])
        for q in todo:
            pmf = next(removed) if q > 0.0 else law.pmf
            if pmf is None:
                pmf = self._convolved_without(law.key, q)
            for costs, grid in maps:
                if q not in costs:
                    costs[q] = float(pmf @ grid[:pmf.size])
        law.singles = 0

    def fill_conditionals(self) -> list[dict[float, float]]:
        """Every conditional cost of a Bernoulli game's players: per resource,
        the map of its law for its grid, from a player's own term there to its
        cost, filled at every term of the column (0 too, when some player's
        term there is 0) by one ``_fill`` per law."""
        laws = [self.law(e) for e in range(self.game.structure.n_resources)]
        for law in dict.fromkeys(laws):
            terms = list(dict.fromkeys(law.key))
            if len(law.key) < self.game.n_players:
                terms.append(0.0)
            self._fill(law, terms)
        ids = self.game._grids.ids
        return [law.costs[ids[e]] for e, law in enumerate(laws)]

    def move(self, i: int, row: np.ndarray) -> None:
        """Replace player i's row of the usage matrix, patching each changed
        record (``_patched``) and carrying its law (``_carry``).  Laws that no
        record holds are dropped, found by identity rather than by hashing
        keys, so at most one law per resource is kept."""
        changed = np.flatnonzero(self.usage[i] != row).tolist()
        self.usage[i] = row
        usage = self.usage[i].tolist()
        for e in changed:
            was = self.records[e]
            if was is not None:
                old = was.own[i]
                col = self.records[e] = self._patched(was, i, usage[e])
                if was.law is not None:
                    col.law = self._carry(col.key, was.law, old, col.own[i])
        held = {col.law for col in self.records if col is not None}
        for key in [key for key, law in self._laws.items() if key and law not in held]:
            del self._laws[key]

    def _patched(self, was: _Column, i: int, u: float) -> _Column:
        """``was`` with player i's usage probability changed to u, split as
        ``record`` splits it: one entry of ``own`` changes (the list is taken
        over, since ``was`` is dropped), and one term leaves or enters the
        sorted key."""
        old = was.own[i]
        if self.game.kind == "bernoulli":
            new, sure = self.game.probs[i] * u, False
        else:
            new, sure = (u if u < 1.0 else 0.0), u >= 1.0
        own, key = was.own, was.key
        own[i] = new
        if old > 0.0:
            j = bisect.bisect_left(key, old)
            key = key[:j] + key[j + 1:]
        if new > 0.0:
            j = bisect.bisect_left(key, new)
            key = key[:j] + (new,) + key[j:]
        certain, total = was.certain, was.total
        if sure or i in certain:
            certain = {k: w for k, w in certain.items() if k != i}
            if sure:
                certain[i] = self.game.magnitudes[i]
            total = math.fsum(certain.values())
        return _Column(certain, total, own, key, self.mags)

    def _carry(self, key: tuple[float, ...], law: _Law, old: float, new: float) -> _Law:
        """The law of ``key``, a patched record's: the one held, else ``law``,
        the replaced record's, with the mover's old term taken out and its new
        one convolved in."""
        carried = self._laws.get(key)
        if carried is None:
            pmf = law.removed(old) if old > 0.0 else law.pmf
            if pmf is None:
                return self.law_of(key)
            if new > 0.0:
                pmf = np.convolve(pmf, [1.0 - new, new])
            carried = self._laws[key] = _Law(key, pmf)
        return carried

    def weighted_law(self, e: int) -> ValueDist:
        """Law of resource e's weighted load: the certain weights' fsum plus the random rest."""
        col = self.record(e)
        if not col.rand.size:
            return ValueDist(np.array([col.total]), np.ones(1))
        weight = col.shared_weight()
        if weight is not None:
            rest = ValueDist.from_pmf(Pmf(self.law(e).pmf), scale=weight)
        else:
            # columns with the same random users share the last enumeration; it is
            # dropped before the next one is built, so at most one is alive
            if self._enumerated is None or self._enumerated[0] != col.signature:
                self._enumerated = None
                self._enumerated = (col.signature,
                                    weighted_sum_distribution(col.weights, col.terms))
            rest = self._enumerated[1]
        return rest.shifted(col.total)

    def edge_value(self, e: int, key: tuple[float, ...] | None = None) -> float:
        """E[L c_e(L)] for resource e's load: its column's, or that of certain
        users with the sorted magnitudes ``key``.

        A Bernoulli load's value is its key's pmf against resource e's grid of
        k c_e(k), k = 0..n, which the game derives from the costs that the
        conditional costs read.
        """
        if self.game.kind == "bernoulli":
            key = self.record(e).key if key is None else key
            if not key:
                return 0.0
            pmf = self.law_of(key).pmf
            return float(pmf @ self.game._grids.loads[e][:pmf.size])
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
    if laws.game.kind == "bernoulli":
        return laws.term_cost(e, q)
    w, sure = laws.game.weights[i], i in col.certain
    hit = col.values.get((q, w, sure))
    if hit is not None:
        return hit
    cost = laws.game.structure.cost_fns[e]
    # fsum is correctly rounded, so this is the fsum of the other certain weights
    base = w + (math.fsum([*col.certain.values(), -w]) if sure else col.total)
    if col.rand.size == (q > 0.0):
        hit = float(cost.value(base))
    elif (shared := col.shared_weight(i)) is not None:
        pmf = laws.without(laws.law(e), q)
        hit = float(pmf @ np.asarray(cost.value(base + shared * np.arange(pmf.size)), dtype=float))
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
    i = _check_index(i, game.n_players, "player")
    s = _check_index(s, len(game.structure.strategies[game.player_types[i]]),
                     f"strategy of player {i}")
    return _strategy_cond_cost(_laws_of(game, profile), i, s)


def player_expected_cost(game: Game, profile: MixedProfile, i: int) -> float:
    """Unconditional expected cost of player i (inactive players pay nothing)."""
    i = _check_index(i, game.n_players, "player")
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

    Players of one class (``_AtomicGame._classes``) who play one probability
    row see the same other players' load on every resource, so the first of
    them computes the row of costs and the others copy it.  In a Bernoulli
    game a player's cost on a resource depends only on its own term there, so
    the row is read from the resource maps of ``_LoadLaws.fill_conditionals``,
    each strategy's costs added in edge order as ``_strategy_cond_cost``
    adds them; in a weighted game ``_edge_cost`` memoizes by exactly what
    fixes that load.  A cost that is not finite raises ``PrecisionError``:
    no comparison with NaN could certify anything.
    """
    if not tol >= 0:  # NaN fails too
        raise DomainError(f"tol must be nonnegative, got {tol}")
    laws = _laws_of(game, profile)
    strategies = game.structure.strategies
    if game.kind == "bernoulli":
        maps = laws.fill_conditionals()
        owns = [col.own for col in laws.records]
    rows = []
    worst = 0.0
    seen: dict[tuple, tuple] = {}
    for i, j in enumerate(game._classes.of):
        t = game.player_types[i]
        key = (j, profile.probs[i].tobytes())
        row = seen.get(key)
        if row is None:
            if game.kind == "bernoulli":
                costs = [sum([maps[e][owns[e][i]] for e in strategy])
                         for strategy in strategies[t]]
            else:
                costs = [_strategy_cond_cost(laws, i, s) for s in range(len(strategies[t]))]
            if not all(map(math.isfinite, costs)):
                raise PrecisionError(f"player {i} has a conditional cost that is not finite")
            best = min(costs)
            regret = max([c - best for c, p in zip(costs, profile.probs[i].tolist())
                          if p > USAGE_TOL], default=0.0)
            row = seen[key] = (tuple(costs), best, regret)
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
    state = _pure_state(game, initial)
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
            best = costs.index(min(costs))  # the first cheapest
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


class _EachRow(list):
    """``CostBatch``'s evaluator of costs with scalar methods only, one row at a
    time: ``value_slopes`` is its scalar route, ``value_slopes_at``, at every row."""

    def _each(self, method: str, x: np.ndarray) -> np.ndarray:
        return np.array([getattr(c, method)(u) for c, u in zip(self, x.tolist())])

    values = partialmethod(_each, "value")
    integrals = partialmethod(_each, "integral")

    def value_slopes(self, x: np.ndarray) -> np.ndarray:
        return np.array(self.value_slopes_at(range(len(self)), x.tolist()))

    def value_slopes_at(self, idx, xs) -> tuple[list, list]:
        pairs = [self[i].value_slope(u) for i, u in zip(idx, xs)]
        return [v for v, _ in pairs], [s for _, s in pairs]


class _BinomialMixture:
    """u -> E g(K), K ~ Bin(m, r u), for a grid g(0..m): a resource's cost to one
    player when each of the m others uses it with probability u.  ``derivative``
    is m r E Δg(Bin(m - 1, r u)); ``integral`` is the Bernstein antiderivative
    E G(Bin(m + 1, r u)) / (r (m + 1)), G(j) = g(0) + ... + g(j - 1).  r u is
    clamped into [0, 1]: a line search can step a rounding error past 1.
    """

    is_continuous = True
    stack = _EachRow

    def __init__(self, grid, r: float):
        self.grid, self.r = np.asarray(grid, dtype=float), r
        self.m = self.grid.size - 1
        self._step = np.diff(self.grid)

    def _q(self, u) -> float:
        return min(max(self.r * float(u), 0.0), 1.0)

    def value(self, u) -> float:
        return self.value_slope(u)[0]

    def value_slope(self, u) -> tuple[float, float]:
        """The value and its derivative in u from one Bin(m - 1, q) pmf, q = r u:
        with K of that law, E g(Bin(m, q)) = E[(1 - q) g(K) + q g(K + 1)], the
        masses of one more term, and the derivative is m r E Δg(K)."""
        if not self.m:
            return float(self.grid[0]), 0.0
        q = self._q(u)
        probs = bernoulli_sum_pmf(np.full(self.m - 1, q)).probs
        return (float(np.convolve(probs, [1.0 - q, q]) @ self.grid),
                self.m * self.r * float(probs @ self._step))

    def derivative(self, u) -> float:
        return self.value_slope(u)[1]

    def integral(self, u) -> float:
        running = np.concatenate(([0.0], np.cumsum(self.grid)))
        probs = bernoulli_sum_pmf(np.full(self.m + 1, self._q(u))).probs
        return float(probs @ running) / (self.r * (self.m + 1))


def symmetric_mixed_equilibrium(game: Game, tol: float = VERIFY_TOL) -> MixedProfile:
    """A mixed strategy σ that is an equilibrium when every player plays it.

    With the others on σ, a player's cost on resource e is the binomial mixture
    ĉ_e(σ_e) = E c_e(b (1 + K)), K ~ Bin(n - 1, r σ_e): b = 1 and r the
    participation probability in a Bernoulli game, b the weight and r = 1 in a
    weighted one.  So σ is an equilibrium exactly when its flows are a Wardrop
    equilibrium, at demand 1, of the nonatomic game with costs ĉ_e, whose
    potential is convex; ``solve_wardrop`` finds one to a gap of tol / 10 (one
    exists: Nash 1951).  As r -> 0, ĉ_e tends to ``AuxCost``'s Poisson mixture.
    σ is returned only if it verifies under ``tol``, which must be positive.
    """
    if not tol > 0:  # NaN fails too
        raise DomainError(f"the symmetric solver needs a positive tol, got {tol}")
    keys = game._classes.keys
    if len(keys) != 1:
        raise ConfigError("symmetric solver needs players of one type and one weight/probability")
    s, [(t, w)] = game.structure, keys
    if game.kind == "bernoulli":
        # c_e(1 + k) for k = 0..n - 1 others on the resource
        costs = [_BinomialMixture(grid[:-1], w) for grid in game._grids.units]
    else:
        ks = np.arange(game.n_players)  # how many others use the resource
        costs = [_BinomialMixture(c.value(w + w * ks), 1.0) for c in s.cost_fns]
    reduced = Structure(s.resources, costs, (s.types[t],), (s.strategies[t],))
    sol = solve_wardrop(reduced, DemandVector(np.ones(1)), target_eps=tol / 10)
    profile = MixedProfile.symmetric(game, sol.pair.y)
    report = verify_equilibrium(game, profile, tol)
    if not report.ok:
        raise ConvergenceError(f"the symmetric profile's regret {report.max_regret:.3e} "
                               f"exceeds tol {tol:g}")
    return profile


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
    e = _check_index(e, game.structure.n_resources, "resource")
    laws = _laws_of(game, profile)
    if game.kind == "bernoulli":
        return Pmf(laws.law(e).pmf)
    return laws.weighted_law(e)


def strategy_flow_covariance(game: Game, profile: MixedProfile, t: int,
                             s1: int, s2: int) -> float:
    """Covariance of the random flows on two strategies of one type (closed form)."""
    _check_profile(game, profile)
    t = _check_index(t, game.structure.n_types, "type")
    s1, s2 = (_check_index(k, len(game.structure.strategies[t]), f"strategy of type {t}")
              for k in (s1, s2))
    total = 0.0
    for i in range(game.n_players):
        if game.player_types[i] != t:
            continue
        # a player adds magnitude m with probability r p_s to strategy s's flow
        m, r = (1.0, game.probs[i]) if game.kind == "bernoulli" else (game.magnitudes[i], 1.0)
        p1, p2 = float(profile.probs[i][s1]), float(profile.probs[i][s2])
        if s1 == s2:
            q = r * p1
            total += m * m * q * (1.0 - q)
        else:
            # exclusive draws: the cross moment vanishes, leaving minus the
            # product of the per-strategy means
            total -= m * m * r * r * p1 * p2
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


def _count_space_optimum(game: Game) -> OptResult:
    """Minimum over per-class strategy counts, each scored from per-resource tables.

    The strategy counts of a class of ``_AtomicGame._classes`` are the rows
    of ``_compositions``; every combination of one row per class, classes in
    key order, is a profile, visited in ``itertools.product`` order.  A
    resource's value depends only on how many players of each class use it,
    so each resource gets one table over the per-class counts that vary on
    it; ``parts[j]`` holds, per composition of class j and per resource, that
    class's share of the flat index into ``values``, where the tables lie one
    after another.

    A resource that only one class uses, with a varying count, is filled from
    the counts k = 0..n_j: in a Bernoulli game by one ``binomial_ladder`` per
    class, each law dotted with the resource's grid of k c_e(k) as
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
    keys, sizes = game._classes.keys, game._classes.sizes
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
            grids = [(game._grids.loads[e], at) for e, at in solo[j]]
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
    return OptResult(best, f"pure counts {best_counts}")


def social_optimum_pure(game: Game) -> OptResult | None:
    """Exact minimum expected social cost over pure profiles, when enumerable.

    The expected social cost is multilinear in the players' mixed strategies,
    so its minimum over all mixed profiles is attained at a pure profile.
    Players of one class (``_AtomicGame._classes``) are interchangeable, so
    profiles are enumerated by per-class strategy counts; a profile replaces the best
    so far only when it is cheaper by more than 1e-15 times the best.
    Returns None when the count vectors number more than ``OPT_BUDGET``.
    """
    s, classes = game.structure, game._classes
    combos = math.prod(math.comb(n + len(s.strategies[t]) - 1, len(s.strategies[t]) - 1)
                       for (t, _), n in zip(classes.keys, classes.sizes))
    if combos > OPT_BUDGET:
        return None
    return _count_space_optimum(game)


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
    keys = [str(i) for i in range(game.n_players)]  # as MixedProfile.to_json writes them
    _reject_unknown(data, set(keys), "profile file")
    prof = MixedProfile(tuple(_field(data, k, "profile file", _readonly) for k in keys))
    _check_profile(game, prof)
    return prof
