"""Canonical benchmark instances and their documented equilibrium families.

Three networks cover the interesting regimes: a two-edge parallel network
(symmetric mixing), the Pigou network (boundary equilibria and an efficiency
gap that appears only in the unit-weight limit), and the Wheatstone network
(a dominated zig-zag path for unit-weight players that nonatomic and weighted
players happily use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .atomic import BernoulliGame, Game, MixedProfile, WeightedGame
from .core import AffineCost, DemandVector, PolynomialCost, Structure
from .errors import DomainError

# Wheatstone strategy order
UPPER, ZIGZAG, LOWER = 0, 1, 2


def wheatstone_structure() -> Structure:
    """Four-node diamond with a free shortcut: costs x, 1, 0, 1, x on e1..e5."""
    return Structure(
        resources=("e1", "e2", "e3", "e4", "e5"),
        cost_fns=(AffineCost(1.0), AffineCost(0.0, 1.0), AffineCost(0.0, 0.0),
                  AffineCost(0.0, 1.0), AffineCost(1.0)),
        types=("od",),
        strategies=(((0, 3), (0, 2, 4), (1, 4)),),  # upper, zig-zag, lower
    )


def pigou_structure() -> Structure:
    """Two parallel edges: c1(x) = x against a constant 2."""
    return Structure(
        resources=("e1", "e2"),
        cost_fns=(AffineCost(1.0), AffineCost(0.0, 2.0)),
        types=("od",),
        strategies=(((0,), (1,)),),
    )


def parallel_structure() -> Structure:
    """Two identical strictly increasing edges, c(x) = x."""
    return Structure(
        resources=("e1", "e2"),
        cost_fns=(AffineCost(1.0), AffineCost(1.0)),
        types=("od",),
        strategies=(((0,), (1,)),),
    )


def unit_demand(structure: Structure) -> DemandVector:
    return DemandVector.of(structure, {structure.types[0]: 1.0})


def random_instance(rng: np.random.Generator, n_resources: int, n_types: int,
                    n_strategies: int) -> tuple[Structure, DemandVector]:
    """Random nonatomic instance (W3 at 60 resources, 4 types, 40 strategies).

    ``n_resources`` resources with ``PolynomialCost((U(0,1), U(.1,1), 0,
    U(0,.2)))``; ``n_types`` types, each with ``n_strategies`` distinct
    strategies of 2 to 5 resources; unit demand per type.  The draws from
    ``rng`` are those of the benchmark's own copy of this generator.
    """
    cost_fns = tuple(PolynomialCost((rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0), 0.0,
                                     rng.uniform(0.0, 0.2)))
                     for _ in range(n_resources))
    strategies = []
    for _ in range(n_types):
        seen: set[tuple[int, ...]] = set()
        per_type = []
        while len(per_type) < n_strategies:
            size = int(rng.integers(2, 6))
            s = tuple(sorted(int(e) for e in rng.choice(n_resources, size, replace=False)))
            if s not in seen:
                seen.add(s)
                per_type.append(s)
        strategies.append(tuple(per_type))
    structure = Structure(resources=tuple(f"r{e}" for e in range(n_resources)),
                          cost_fns=cost_fns, types=tuple(f"t{t}" for t in range(n_types)),
                          strategies=tuple(strategies))
    return structure, DemandVector(np.ones(n_types))


# ---------------------------------------------------------------------------
# documented equilibrium families


def wheatstone_all_zigzag(game: Game) -> MixedProfile:
    return MixedProfile.pure(game, [ZIGZAG] * game.n_players)


def wheatstone_zigzag_with_mixer(game: Game) -> MixedProfile:
    """All but one player on the zig-zag path; the last splits upper/lower evenly.

    The mixer is indifferent among all three paths, and zig-zag players
    strictly prefer to stay, so this is an equilibrium for every n >= 2.
    """
    n = game.n_players
    probs = [np.array([0.0, 1.0, 0.0]) for _ in range(n - 1)]
    probs.append(np.array([0.5, 0.0, 0.5]))
    return MixedProfile(tuple(probs))


def wheatstone_split(game: Game) -> MixedProfile:
    """Half the players on the upper path, the rest on the lower path."""
    n = game.n_players
    k = (n + 1) // 2
    return MixedProfile.pure(game, [UPPER] * k + [LOWER] * (n - k))


def wheatstone_symmetric_mix(game: Game) -> MixedProfile:
    return MixedProfile.symmetric(game, [0.5, 0.0, 0.5])


def wheatstone_partial_mix(game: Game, k1: int, k2: int) -> MixedProfile:
    """k1 players pure upper, k2 pure lower, the rest mixing to equalize costs.

    The mixing weight on the upper path is (1 + (k2 - k1)/(k3 - 1))/2, which
    needs k3 - 1 > |k2 - k1| to stay inside the simplex.
    """
    n = game.n_players
    k3 = n - k1 - k2
    if k3 - 1 <= abs(k2 - k1):
        raise DomainError("need k3 - 1 > |k2 - k1| for an interior mixing weight")
    q = 0.5 * (1.0 + (k2 - k1) / (k3 - 1.0))
    probs = [np.array([1.0, 0.0, 0.0])] * k1 + [np.array([0.0, 0.0, 1.0])] * k2
    probs += [np.array([q, 0.0, 1.0 - q])] * k3
    return MixedProfile(tuple(probs))


def two_strategy_all_first(game: Game) -> MixedProfile:
    return MixedProfile.pure(game, [0] * game.n_players)


def two_strategy_symmetric(game: Game) -> MixedProfile:
    return MixedProfile.symmetric(game, [0.5, 0.5])


# ---------------------------------------------------------------------------
# closed forms from the worked trajectories


def parity(n: int) -> int:
    return 1 if n % 2 else 0


def wheatstone_weighted_poa(n: int) -> float:
    return 4.0 * n * n / (3.0 * n * n + parity(n))


def wheatstone_weighted_pos(n: int) -> float:
    return (4.0 * n * n - 2.0 * n + 2.0) / (3.0 * n * n + parity(n))


def wheatstone_weighted_opt(n: int) -> float:
    return (3.0 * n * n + parity(n)) / (2.0 * n * n)


def wheatstone_bernoulli_poa(n: int) -> float:
    delta = (1.0 / n) if n % 2 else 0.0
    return (5.0 * n - 1.0) / (5.0 * n - 2.0 + delta)


def wheatstone_bernoulli_opt(n: int) -> float:
    delta = (1.0 / n) if n % 2 else 0.0
    return (5.0 * n - 2.0 + delta) / (2.0 * n)


def wheatstone_bernoulli_mixed_player_cost(n: int) -> float:
    """Per-player expected cost in the fully mixed equilibrium."""
    return (5.0 * n - 1.0) / (2.0 * n * n)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ExampleDef:
    name: str
    build: Callable[[], Structure]
    families: dict  # model -> ordered (label, builder) pairs

    def demand(self) -> DemandVector:
        return unit_demand(self.build())

    def game(self, model: str, n: int) -> Game:
        structure = self.build()
        demand = unit_demand(structure)
        if model == "weighted":
            return WeightedGame.homogeneous(structure, demand, n)
        if model == "bernoulli":
            return BernoulliGame.homogeneous(structure, demand, n)
        raise DomainError(f"unknown model {model!r}")

    def family(self, model: str) -> tuple[tuple[str, Callable[[Game], MixedProfile]], ...]:
        if model not in self.families:
            raise DomainError(f"{self.name} has no {model} equilibrium family")
        return self.families[model]


EXAMPLES: dict[str, ExampleDef] = {
    "wheatstone-weighted": ExampleDef(
        name="wheatstone-weighted",
        build=wheatstone_structure,
        families={"weighted": (("worst", wheatstone_all_zigzag),
                               ("best", wheatstone_zigzag_with_mixer))},
    ),
    "wheatstone-bernoulli": ExampleDef(
        name="wheatstone-bernoulli",
        build=wheatstone_structure,
        families={"bernoulli": (("worst", wheatstone_symmetric_mix),
                                ("best", wheatstone_split))},
    ),
    "pigou": ExampleDef(
        name="pigou",
        build=pigou_structure,
        families={"weighted": (("worst", two_strategy_all_first),),
                  "bernoulli": (("worst", two_strategy_all_first),)},
    ),
    "parallel": ExampleDef(
        name="parallel",
        build=parallel_structure,
        families={"weighted": (("worst", two_strategy_symmetric),),
                  "bernoulli": (("worst", two_strategy_symmetric),)},
    ),
}
