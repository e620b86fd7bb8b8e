"""Structural congestion-game objects and deterministic flow/load arithmetic.

A game structure fixes the resources with their cost functions, the player
types, and each type's strategies (explicit subsets of resources).  Flows are
per-(type, strategy) quantities in demand units; loads are the induced
per-resource totals.  All objects are immutable values after construction.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, PrecisionError, StructureError

FEASIBILITY_TOL = 1e-9
USAGE_TOL = 1e-10  # a strategy counts as used above this probability
ALL = slice(None)  # every row of a cost stack


def _readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# cost functions


@dataclass(frozen=True)
class GrowthEnvelope:
    """Declared bound on an integer cost's growth, used to certify series tails.

    kind "exp": bound(k) = scale * e^(rate k);  kind "poly": scale * (1+k)^degree.
    """

    kind: str
    rate: float = 0.0
    scale: float = 1.0
    degree: int = 0

    def __post_init__(self):
        if self.kind not in ("exp", "poly"):
            raise DomainError(f"unknown envelope kind {self.kind!r}")
        if not (math.isfinite(self.rate) and math.isfinite(self.scale)):
            raise DomainError("envelope rate and scale must be finite")
        if self.scale < 0 or self.rate < 0 or self.degree < 0:
            raise DomainError("envelope parameters must be nonnegative")

    def bound(self, k):
        k = np.asarray(k, dtype=float)
        if self.kind == "exp":
            with np.errstate(over="ignore"):  # inf past the float range
                out = self.scale * np.exp(self.rate * k)
        else:
            out = self.scale * (1.0 + k) ** self.degree
        return out if out.ndim else float(out)

    def exp_majorant(self) -> tuple[float, float]:
        """(rate, scale) with scale * e^(rate k) >= bound(k) for all k >= 0."""
        if self.kind == "exp":
            return (self.rate, self.scale)
        # (1+k)^d <= d! * e^(1+k), so a polynomial envelope is dominated by
        # an exponential one with unit rate.
        return (1.0, self.scale * math.factorial(self.degree) * math.e)

    def to_json(self) -> dict:
        if self.kind == "exp":
            return {"kind": "exp", "rate": self.rate, "scale": self.scale}
        return {"kind": "poly", "degree": self.degree, "scale": self.scale}


class _PolynomialStack:
    """Polynomial costs (affine ones included) stacked into zero-padded coefficient arrays.

    Horner's rule on a padded row performs the very operations of ``polyval``,
    so values, derivatives and marginals equal the scalar methods bit for bit.
    Each cost supplies its rows through ``_coefficient_rows``: value, direct
    marginal part, slope, integral, and the load-derivatives of value and
    marginal.  Every method takes the loads of the rows ``idx`` selects.
    """

    def __init__(self, cost_fns):
        rows = [c._coefficient_rows() for c in cost_fns]
        (self._value, self._direct, self._slope, self._integral, self._value_slope,
         self._marginal_slope) = (_pad_rows([r[i] for r in rows]) for i in range(6))

    def values(self, x: np.ndarray, idx=ALL) -> np.ndarray:
        return _horner(self._value[idx], x)

    def marginals(self, x: np.ndarray, idx=ALL) -> np.ndarray:
        return _horner(self._direct[idx], x) + x * _horner(self._slope[idx], x)

    def integrals(self, x: np.ndarray, idx=ALL) -> np.ndarray:
        return _horner(self._integral[idx], x)

    def value_slopes(self, x: np.ndarray, idx=ALL) -> np.ndarray:
        return np.stack((self.values(x, idx), _horner(self._value_slope[idx], x)))

    def marginal_slopes(self, x: np.ndarray, idx=ALL) -> np.ndarray:
        return np.stack((self.marginals(x, idx), _horner(self._marginal_slope[idx], x)))


def _pad_rows(rows) -> np.ndarray:
    out = np.zeros((len(rows), max(len(r) for r in rows)))
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows of ascending coefficients evaluated at x, in ``polyval``'s order of operations."""
    acc = coeffs[:, -1] + x * 0
    for j in range(coeffs.shape[1] - 2, -1, -1):
        acc = coeffs[:, j] + acc * x
    return acc


@dataclass(frozen=True)
class PolynomialCost:
    """c(x) = sum_j coeffs[j] * x^j with nonnegative coefficients (ascending order)."""

    coeffs: tuple[float, ...]

    is_continuous = True
    has_integer_eval = True
    stack = _PolynomialStack

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise DomainError("polynomial cost needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise DomainError("polynomial cost coefficients must be finite")
        if min(self.coeffs) < 0:
            raise DomainError("polynomial cost coefficients must be nonnegative")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, x):
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def value_int(self, k):
        return self.value(np.asarray(k, dtype=float)) if not np.isscalar(k) else self.value(float(k))

    def derivative(self, x):
        d = [j * c for j, c in enumerate(self.coeffs)][1:] or [0.0]
        return np.polynomial.polynomial.polyval(x, d)

    def integral(self, x):
        anti = [0.0] + [c / (j + 1) for j, c in enumerate(self.coeffs)]
        return np.polynomial.polynomial.polyval(x, anti)

    def marginal(self, x):
        return self.value(x) + x * self.derivative(x)

    def slope_range(self, hi: float) -> tuple[float, float]:
        # nonnegative coefficients make the derivative weakly increasing
        lo = self.coeffs[1] if len(self.coeffs) > 1 else 0.0
        return (float(lo), float(self.derivative(hi)))

    def curvature_max(self, hi: float) -> float:
        dd = [j * (j - 1) * c for j, c in enumerate(self.coeffs)][2:] or [0.0]
        return float(np.polynomial.polynomial.polyval(hi, dd))

    def _coefficient_rows(self):
        slope = [j * c for j, c in enumerate(self.coeffs)][1:] or [0.0]
        integral = [0.0] + [c / (j + 1) for j, c in enumerate(self.coeffs)]
        # d/dx (c + x c') = sum_j j (j + 1) c_j x^(j-1)
        marginal_slope = [j * (j + 1) * c for j, c in enumerate(self.coeffs)][1:] or [0.0]
        return self.coeffs, self.coeffs, slope, integral, slope, marginal_slope

    def growth_envelope(self) -> GrowthEnvelope:
        return GrowthEnvelope("poly", degree=self.degree, scale=sum(self.coeffs))

    def to_json(self) -> dict:
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}


class AffineCost(PolynomialCost):
    """c(x) = slope * x + intercept: the degree-one polynomial cost ``(intercept, slope)``."""

    def __init__(self, slope: float, intercept: float = 0.0):
        super().__init__((intercept, slope))

    @property
    def slope(self) -> float:
        return self.coeffs[1]

    @property
    def intercept(self) -> float:
        return self.coeffs[0]

    def value(self, x):
        intercept, slope = self.coeffs  # Horner's two operations, without polyval's overhead
        return slope * x + intercept

    def to_json(self) -> dict:
        return {"kind": "affine", "a": self.slope, "b": self.intercept}


@dataclass(frozen=True)
class TableCost:
    """Integer-domain cost given by a weakly increasing table c(0..K).

    Evaluation past K extends through the declared growth envelope; without
    an envelope such evaluations raise.  There is no continuous evaluation.
    """

    values: tuple[float, ...]
    envelope: GrowthEnvelope | None = None

    is_continuous = False
    has_integer_eval = True

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise DomainError("table cost needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise DomainError("table cost values must be finite")
        if min(self.values) < 0:
            raise DomainError("table cost values must be nonnegative")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise DomainError("table cost must be weakly increasing")
        if self.envelope is not None:
            ks = np.arange(len(self.values))
            if np.any(np.asarray(self.envelope.bound(ks)) < np.asarray(self.values) - 1e-12):
                raise DomainError("growth envelope must dominate the table values")

    @property
    def k_top(self) -> int:
        return len(self.values) - 1

    def value(self, x):
        raise StructureError("table costs are integer-domain only")

    def value_int(self, k):
        ks = np.asarray(k)
        scalar = ks.ndim == 0
        ks = np.atleast_1d(ks).astype(int)
        if ks.min() < 0:
            raise DomainError("table cost evaluated at a negative integer")
        tab = np.asarray(self.values)
        if ks.max() <= self.k_top:
            out = tab[ks]
        elif self.envelope is None:
            raise PrecisionError(
                "table cost evaluated beyond its last entry and no growth envelope is declared")
        else:
            out = np.where(ks <= self.k_top, tab[np.minimum(ks, self.k_top)],
                           np.asarray(self.envelope.bound(ks), dtype=float))
        return float(out[0]) if scalar else out

    def growth_envelope(self) -> GrowthEnvelope:
        if self.envelope is None:
            raise PrecisionError("table cost has no declared growth envelope")
        return self.envelope

    def to_json(self) -> dict:
        out: dict = {"kind": "table", "values": list(self.values)}
        if self.envelope is not None:
            out["envelope"] = self.envelope.to_json()
        return out


Cost = PolynomialCost | TableCost  # plus poisson_limit.AuxCost, duck-typed


# ---------------------------------------------------------------------------
# structure, demands, flows


@dataclass(frozen=True, eq=False)
class Structure:
    """Resources with costs, types, and per-type strategies (resource-index tuples)."""

    resources: tuple[str, ...]
    cost_fns: tuple
    types: tuple[str, ...]
    strategies: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "cost_fns", tuple(self.cost_fns))
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "strategies",
                           tuple(tuple(tuple(int(e) for e in s) for s in per_t)
                                 for per_t in self.strategies))
        if len(set(self.resources)) != len(self.resources):
            raise StructureError("resource ids must be unique")
        if len(set(self.types)) != len(self.types):
            raise StructureError("type ids must be unique")
        if len(self.cost_fns) != len(self.resources):
            raise StructureError("one cost function per resource is required")
        if len(self.strategies) != len(self.types):
            raise StructureError("one strategy list per type is required")
        n_res = len(self.resources)
        for t, per_t in enumerate(self.strategies):
            if not per_t:
                raise StructureError(f"type {self.types[t]!r} has no strategies")
            seen = set()
            for s in per_t:
                if not s:
                    raise StructureError(f"type {self.types[t]!r} has an empty strategy")
                if any(e < 0 or e >= n_res for e in s):
                    raise StructureError("strategy references an undeclared resource")
                key = frozenset(s)
                if key in seen:
                    raise StructureError(f"type {self.types[t]!r} repeats a strategy")
                seen.add(key)

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    @property
    def n_types(self) -> int:
        return len(self.types)

    @cached_property
    def resource_index(self) -> dict[str, int]:
        return {rid: i for i, rid in enumerate(self.resources)}

    @cached_property
    def type_index(self) -> dict[str, int]:
        return {tid: i for i, tid in enumerate(self.types)}

    @cached_property
    def flow_index(self) -> tuple[tuple[int, int], ...]:
        """Flat flow layout: one (type, local strategy) slot per strategy."""
        return tuple((t, s) for t in range(self.n_types)
                     for s in range(len(self.strategies[t])))

    @property
    def n_flows(self) -> int:
        return len(self.flow_index)

    @cached_property
    def type_slices(self) -> tuple[slice, ...]:
        out = []
        start = 0
        for t in range(self.n_types):
            k = len(self.strategies[t])
            out.append(slice(start, start + k))
            start += k
        return tuple(out)

    @cached_property
    def incidence(self) -> np.ndarray:
        """(n_flows, n_resources) 0/1 matrix; loads are ``flows @ incidence``."""
        m = np.zeros((self.n_flows, self.n_resources))
        for row, (t, s) in enumerate(self.flow_index):
            for e in self.strategies[t][s]:
                m[row, e] = 1.0
        m.setflags(write=False)
        return m

    @property
    def max_strategy_size(self) -> int:
        return max(len(s) for per_t in self.strategies for s in per_t)

    def strategy_label(self, t: int, s: int) -> str:
        return f"{self.types[t]}/{s}"

    def with_costs(self, cost_fns: Sequence) -> "Structure":
        return Structure(self.resources, tuple(cost_fns), self.types, self.strategies)


@dataclass(frozen=True, eq=False)
class DemandVector:
    """Per-type demands with the cached total."""

    values: np.ndarray
    total: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1:
            raise DomainError("demands must form a one-dimensional vector")
        if not bool(np.all(np.isfinite(self.values))):
            raise DomainError("demands must be finite")
        if self.values.size and float(self.values.min()) < 0:
            raise DomainError("demands must be nonnegative")
        if self.total is None:
            object.__setattr__(self, "total", float(self.values.sum()))
        elif abs(self.total - float(self.values.sum())) > 1e-12:
            raise DomainError("cached total demand disagrees with the components")

    def __getitem__(self, t: int) -> float:
        return float(self.values[t])

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def of(cls, structure: Structure, per_type: Mapping[str, float]) -> "DemandVector":
        unknown = set(per_type) - set(structure.types)
        if unknown:
            raise StructureError(f"demands reference unknown types: {sorted(unknown)}")
        return cls(np.array([float(per_type.get(t, 0.0)) for t in structure.types]))


@dataclass(frozen=True, eq=False)
class FlowLoadPair:
    """A strategy-flow vector with its induced (or supplied) resource loads."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _readonly(self.y))
        object.__setattr__(self, "x", _readonly(self.x))

    @classmethod
    def from_flows(cls, structure: Structure, y) -> "FlowLoadPair":
        y = np.asarray(y, dtype=float)
        return cls(y, loads_from_flows(structure, y))


def _strategy_distributions(probs, owner: str) -> tuple[np.ndarray, ...]:
    """Read-only copies of one strategy distribution per ``owner`` (player or type)."""
    arrs = tuple(_readonly(p) for p in probs)
    for i, p in enumerate(arrs):
        if p.ndim != 1 or p.size == 0:
            raise DomainError(f"{owner} {i} has an invalid strategy distribution")
        if float(p.min()) < -1e-15:
            raise DomainError(f"{owner} {i} has negative strategy probability")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise DomainError(f"{owner} {i}'s strategy distribution is not normalized")
    return arrs


# ---------------------------------------------------------------------------
# flow/load/cost operations


def loads_from_flows(structure: Structure, y) -> np.ndarray:
    """Resource loads induced by a flat strategy-flow vector (linear map)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (structure.n_flows,):
        raise StructureError(
            f"flow vector has shape {y.shape}, expected ({structure.n_flows},)")
    if y.size and float(y.min()) < -1e-12:
        raise DomainError("flows must be nonnegative")
    return y @ structure.incidence


def check_feasible(structure: Structure, demand: DemandVector, pair: FlowLoadPair,
                   tol: float = FEASIBILITY_TOL) -> float:
    """Maximum absolute violation over all feasibility constraints.

    The pair is feasible iff the returned value does not exceed ``tol``;
    nonnegativity, per-type totals and the load identity are all checked.
    """
    y = pair.y
    if y.shape != (structure.n_flows,):
        raise StructureError("flow vector does not match the structure")
    if len(demand) != structure.n_types:
        raise StructureError("demand vector does not match the structure")
    worst = max(0.0, float(-y.min())) if y.size else 0.0
    for t, sl in enumerate(structure.type_slices):
        worst = max(worst, abs(float(y[sl].sum()) - demand[t]))
    worst = max(worst, float(np.abs(pair.x - y @ structure.incidence).max()))
    return worst


def strategy_cost(structure: Structure, x, t: int, s: int) -> float:
    """Total cost of strategy ``s`` of type ``t`` at loads ``x``."""
    if not 0 <= t < structure.n_types:
        raise StructureError(f"no type with index {t}")
    if not 0 <= s < len(structure.strategies[t]):
        raise StructureError(f"type {structure.types[t]!r} has no strategy {s}")
    x = np.asarray(x, dtype=float)
    return float(sum(structure.cost_fns[e].value(float(x[e])) for e in structure.strategies[t][s]))


def all_strategy_costs(structure: Structure, x) -> np.ndarray:
    """Costs of every strategy (flat flow layout) at loads ``x``."""
    x = np.asarray(x, dtype=float)
    ce = np.array([float(c.value(float(x[e]))) for e, c in enumerate(structure.cost_fns)])
    return structure.incidence @ ce


class CostBatch:
    """Every resource's cost at a whole load vector, one vector call per cost family.

    A continuous cost class names in its ``stack`` attribute the evaluator of
    a list of its costs: affine and polynomial costs share one, auxiliary
    costs have their own.  ``values`` and ``marginals`` also evaluate a subset
    of the resources: with ``rows``, ``x`` holds just those rows' loads.  With
    ``slopes`` they return a (2, n) array, the density and its derivative in
    the load.
    """

    def __init__(self, cost_fns):
        families: dict = {}
        for e, c in enumerate(cost_fns):
            stack = getattr(type(c), "stack", None)
            if stack is None:
                raise PrecisionError(f"{type(c).__name__} costs have no vector evaluation")
            families.setdefault(stack, []).append(e)
        self._size = len(cost_fns)
        self._families = [(np.array(rows), make([cost_fns[e] for e in rows]))
                          for make, rows in families.items()]
        self._family = np.empty(self._size, dtype=int)
        self._local = np.empty(self._size, dtype=int)  # position within its family
        for f, (rows, _) in enumerate(self._families):
            self._family[rows] = f
            self._local[rows] = np.arange(rows.size)

    def _eval(self, method: str, x, rows=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if len(self._families) == 1:  # local positions are the resource indices
            return getattr(self._families[0][1], method)(x, ALL if rows is None else rows)
        rows = np.arange(self._size) if rows is None else np.asarray(rows)
        family = self._family[rows]
        out = None
        for f, (_, stack) in enumerate(self._families):
            at = np.flatnonzero(family == f)
            if at.size:
                got = getattr(stack, method)(x[at], self._local[rows[at]])
                if out is None:
                    out = np.empty(got.shape[:-1] + rows.shape)
                out[..., at] = got
        return out

    def values(self, x, rows=None, slopes: bool = False) -> np.ndarray:
        return self._eval("value_slopes" if slopes else "values", x, rows)

    def marginals(self, x, rows=None, slopes: bool = False) -> np.ndarray:
        """Derivatives of x * c(x): the marginal social costs."""
        return self._eval("marginal_slopes" if slopes else "marginals", x, rows)

    def integrals(self, x) -> np.ndarray:
        """Integrals of the costs from 0 to x: the Beckmann potential's terms."""
        return self._eval("integrals", x)


def social_cost(structure: Structure, pair: FlowLoadPair) -> float:
    """Deterministic social cost: sum over resources of load times unit cost."""
    return float(sum(float(pair.x[e]) * float(c.value(float(pair.x[e])))
                     for e, c in enumerate(structure.cost_fns)))


def potential(structure: Structure, x) -> float:
    """Beckmann potential: sum over resources of the cost integrated up to the load."""
    return float(sum(c.integral(float(x[e])) for e, c in enumerate(structure.cost_fns)))


# ---------------------------------------------------------------------------
# instance files


def parse_cost(obj: Mapping) -> Cost:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise StructureError("cost spec must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "affine":
        _reject_unknown(obj, {"kind", "a", "b"}, "affine cost")
        return AffineCost(_field(obj, "a", "affine cost", float, 0.0),
                          _field(obj, "b", "affine cost", float, 0.0))
    if kind == "polynomial":
        _reject_unknown(obj, {"kind", "coeffs"}, "polynomial cost")
        return PolynomialCost(_field(obj, "coeffs", "polynomial cost", _floats))
    if kind == "table":
        _reject_unknown(obj, {"kind", "values", "envelope"}, "table cost")
        env = obj.get("envelope")
        return TableCost(_field(obj, "values", "table cost", _floats),
                         _parse_envelope(env) if env else None)
    if kind == "aux":
        _reject_unknown(obj, {"kind", "base", "tail_tol"}, "aux cost")
        from .poisson_limit import DEFAULT_TAIL_TOL, AuxCost  # deferred to avoid an import cycle

        return AuxCost(parse_cost(_field(obj, "base", "aux cost")),
                       tail_tol=_field(obj, "tail_tol", "aux cost", float, DEFAULT_TAIL_TOL))
    raise StructureError(f"unknown cost kind {kind!r}")


def _parse_envelope(obj: Mapping) -> GrowthEnvelope:
    kind = obj.get("kind")
    if kind == "exp":
        _reject_unknown(obj, {"kind", "rate", "scale"}, "exp envelope")
        return GrowthEnvelope("exp", rate=_field(obj, "rate", "exp envelope", float),
                              scale=_field(obj, "scale", "exp envelope", float))
    if kind == "poly":
        _reject_unknown(obj, {"kind", "degree", "scale"}, "poly envelope")
        return GrowthEnvelope("poly", degree=_field(obj, "degree", "poly envelope", _integer),
                              scale=_field(obj, "scale", "poly envelope", float))
    raise StructureError(f"unknown envelope kind {kind!r}")


def _reject_unknown(obj: Mapping, allowed: set[str], what: str) -> None:
    if not isinstance(obj, Mapping):
        raise StructureError(f"{what} must be an object, not {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise StructureError(f"unknown keys in {what}: {sorted(unknown)}")


_REQUIRED = object()


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _integer(value) -> int:
    """An integral number, or a string of decimal digits (as environment variables
    arrive); a fraction, a bool or anything else raises ValueError or TypeError."""
    if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (str, float, bool)):
        raise ValueError
    return operator.index(value)


def _as_list(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError
    return value


def _as_mapping(value) -> Mapping:
    if not isinstance(value, Mapping):
        raise TypeError
    return value


def _field(obj: Mapping, key: str, what: str, kind=None, default=_REQUIRED):
    """``obj[key]`` of an input file, through ``kind`` when given; a missing key without
    a default raises ``StructureError``, a value ``kind`` rejects ``DomainError``."""
    if key not in obj:
        if default is _REQUIRED:
            raise StructureError(f"{what} needs the key {key!r}")
        return default
    if kind is None:
        return obj[key]
    try:
        return kind(obj[key])
    except (TypeError, ValueError):
        raise DomainError(f"{what} key {key!r} has the invalid value {obj[key]!r}") from None


def parse_instance(obj: Mapping) -> tuple[Structure, DemandVector]:
    """Parse an instance object: resources with costs, types with strategies, demands."""
    _reject_unknown(obj, {"resources", "types", "demands"}, "instance")
    resources = []
    costs = []
    for r in _field(obj, "resources", "instance", _as_list):
        _reject_unknown(r, {"id", "cost"}, "resource")
        resources.append(_field(r, "id", "resource", str))
        costs.append(parse_cost(_field(r, "cost", "resource")))
    rid_to_idx = {rid: i for i, rid in enumerate(resources)}
    types = []
    strategies = []
    for t in _field(obj, "types", "instance", _as_list):
        _reject_unknown(t, {"id", "strategies"}, "type")
        types.append(_field(t, "id", "type", str))
        per_t = []
        for strat in _field(t, "strategies", "type", _as_list):
            if not isinstance(strat, (list, tuple)):
                raise StructureError(f"type key 'strategies' holds {strat!r}, not a list")
            try:
                per_t.append(tuple(rid_to_idx[str(e)] for e in strat))
            except KeyError as exc:
                raise StructureError(f"strategy references unknown resource {exc}") from None
        strategies.append(tuple(per_t))
    structure = Structure(tuple(resources), tuple(costs), tuple(types), tuple(strategies))
    demands = _field(obj, "demands", "instance", _as_mapping)
    demand = DemandVector.of(structure, {str(k): _field(demands, k, "demands", float)
                                         for k in demands})
    return structure, demand


def instance_to_json(structure: Structure, demand: DemandVector) -> dict:
    return {
        "resources": [{"id": rid, "cost": structure.cost_fns[i].to_json()}
                      for i, rid in enumerate(structure.resources)],
        "types": [{"id": tid,
                   "strategies": [[structure.resources[e] for e in s]
                                  for s in structure.strategies[t]]}
                  for t, tid in enumerate(structure.types)],
        "demands": {tid: demand[t] for t, tid in enumerate(structure.types)},
    }


def load_instance(path: str | Path) -> tuple[Structure, DemandVector]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(json.load(fh))
