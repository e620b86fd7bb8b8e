"""Structural congestion-game objects and deterministic flow/load arithmetic.

A game structure fixes the resources with their cost functions, the player
types, and each type's strategies (explicit subsets of resources).  Flows are
per-(type, strategy) quantities in demand units; loads are the induced
per-resource totals.  All objects are immutable values after construction.
"""

from __future__ import annotations

import copy
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, PrecisionError, StructureError

USAGE_TOL = 1e-10  # a strategy counts as used above this probability


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
        object.__setattr__(self, "degree", _integer_arg(self.degree, "envelope degree", 0))
        if self.scale < 0 or self.rate < 0:
            raise DomainError("envelope parameters must be nonnegative")

    def bound(self, k):
        k = np.asarray(k, dtype=float)
        with np.errstate(over="ignore"):  # inf past the float range, but 0 for a zero scale
            growth = np.exp(self.rate * k) if self.kind == "exp" else (1.0 + k) ** self.degree
            out = self.scale * growth if self.scale else 0.0 * k
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


def _horner(coeffs, x):
    """Ascending coefficients evaluated at x by Horner's rule.

    The one evaluator of polynomial costs: a cost's coefficient tuple at a
    float gives a Python float, at a load array an array; a stack's column
    array (one row per power, one column per cost) gives one value per cost.
    Adding ``x * 0`` shapes the start like x.
    """
    acc = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


class _Rows(NamedTuple):
    """A polynomial cost's coefficient rows, each in ascending order."""

    value: tuple[float, ...]
    slope: tuple[float, ...]
    integral: tuple[float, ...]
    marginal_slope: tuple[float, ...]  # d/dx (c + x c') = sum_j j (j + 1) c_j x^(j-1)
    curvature: tuple[float, ...]

    @classmethod
    def of(cls, coeffs: tuple[float, ...]) -> "_Rows":
        def row(terms, skip):
            return tuple(terms)[skip:] or (0.0,)

        return cls(coeffs,
                   row((j * c for j, c in enumerate(coeffs)), 1),
                   (0.0,) + tuple(c / (j + 1) for j, c in enumerate(coeffs)),
                   row((j * (j + 1) * c for j, c in enumerate(coeffs)), 1),
                   row((j * (j - 1) * c for j, c in enumerate(coeffs)), 2))


class _PolynomialStack:
    """Polynomial costs stacked into zero-padded coefficient columns.

    Every row goes through ``_horner``, the routine of the scalar methods, so
    values, slopes and integrals equal theirs bit for bit.  The array methods
    take every row's load; the ``*_at`` methods, a segment's scalar route,
    take the rows ``idx`` and their loads as lists of Python floats and read
    each cost's ``_Rows`` tuples, so a zero-padded column gives the same bits.
    """

    def __init__(self, cost_fns):
        self._rows = [c._rows for c in cost_fns]
        self._value, self._slope, self._integral, self._marginal_slope = (
            _pad_columns([r[i] for r in self._rows]) for i in range(4))

    def values(self, x: np.ndarray) -> np.ndarray:
        return _horner(self._value, x)

    def integrals(self, x: np.ndarray) -> np.ndarray:
        return _horner(self._integral, x)

    def value_slopes(self, x: np.ndarray) -> np.ndarray:
        return np.stack((self.values(x), _horner(self._slope, x)))

    def marginal_slopes(self, x: np.ndarray) -> np.ndarray:
        value, slope = self.values(x), _horner(self._slope, x)
        return np.stack((value + x * slope, _horner(self._marginal_slope, x)))

    def value_slopes_at(self, idx, xs) -> tuple[list, list]:
        rows = self._rows
        return ([_horner(rows[i].value, u) for i, u in zip(idx, xs)],
                [_horner(rows[i].slope, u) for i, u in zip(idx, xs)])

    def marginal_slopes_at(self, idx, xs) -> tuple[list, list]:
        values, slopes = self.value_slopes_at(idx, xs)
        return ([v + u * s for v, u, s in zip(values, xs, slopes)],
                [_horner(self._rows[i].marginal_slope, u) for i, u in zip(idx, xs)])


def _pad_columns(rows) -> np.ndarray:
    out = np.zeros((max(len(r) for r in rows), len(rows)))
    for i, r in enumerate(rows):
        out[:len(r), i] = r
    return out


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
        object.__setattr__(self, "_rows", _Rows.of(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, x):
        return _horner(self.coeffs, x)

    def value_int(self, k):
        return self.value(np.asarray(k, dtype=float)) if not np.isscalar(k) else self.value(float(k))

    def derivative(self, x):
        return _horner(self._rows.slope, x)

    def integral(self, x):
        return _horner(self._rows.integral, x)

    def marginal(self, x):
        return self.value(x) + x * self.derivative(x)

    def slope_range(self, hi: float) -> tuple[float, float]:
        # nonnegative coefficients make the derivative weakly increasing
        lo = self.coeffs[1] if len(self.coeffs) > 1 else 0.0
        return (float(lo), float(self.derivative(hi)))

    def curvature_max(self, hi: float) -> float:
        return float(_horner(self._rows.curvature, hi))

    def growth_envelope(self) -> GrowthEnvelope:
        # trailing zero coefficients do not raise the growth
        degree = max((j for j, c in enumerate(self.coeffs) if c), default=0)
        return GrowthEnvelope("poly", degree=degree, scale=sum(self.coeffs))

    def to_json(self) -> dict:
        if self.degree == 1:
            return {"kind": "affine", "a": self.coeffs[1], "b": self.coeffs[0]}
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}


def AffineCost(slope: float, intercept: float = 0.0) -> PolynomialCost:
    """c(x) = slope * x + intercept: the degree-one ``PolynomialCost((intercept, slope))``."""
    return PolynomialCost((intercept, slope))


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
            if np.any(np.asarray(self.envelope.bound(ks)) < np.asarray(self.values)):
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
        n_res = len(self.resources)
        object.__setattr__(self, "strategies",
                           tuple(tuple(tuple(_check_index(e, n_res, "resource") for e in s)
                                       for s in per_t) for per_t in self.strategies))
        if len(set(self.resources)) != len(self.resources):
            raise StructureError("resource ids must be unique")
        if len(set(self.types)) != len(self.types):
            raise StructureError("type ids must be unique")
        if len(self.cost_fns) != len(self.resources):
            raise StructureError("one cost function per resource is required")
        if len(self.strategies) != len(self.types):
            raise StructureError("one strategy list per type is required")
        for t, per_t in enumerate(self.strategies):
            if not per_t:
                raise StructureError(f"type {self.types[t]!r} has no strategies")
            seen = set()
            for s in per_t:
                if not s:
                    raise StructureError(f"type {self.types[t]!r} has an empty strategy")
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
        """This structure with other costs.  Only their count is checked: the
        copy shares the checked fields and the cached layouts, none of which
        depends on the costs."""
        cost_fns = tuple(cost_fns)
        if len(cost_fns) != len(self.resources):
            raise StructureError("one cost function per resource is required")
        for layout in ("type_index", "flow_index", "type_slices", "incidence"):
            getattr(self, layout)  # cached here, so that both structures read one copy
        out = copy.copy(self)
        object.__setattr__(out, "cost_fns", cost_fns)
        return out


@dataclass(frozen=True, eq=False)
class DemandVector:
    """Per-type demands with the cached total."""

    values: np.ndarray
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1:
            raise DomainError("demands must form a one-dimensional vector")
        if not bool(np.all(np.isfinite(self.values))):
            raise DomainError("demands must be finite")
        if self.values.size and float(self.values.min()) < 0:
            raise DomainError("demands must be nonnegative")
        object.__setattr__(self, "total", float(self.values.sum()))

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
        if not float(p.min()) >= -1e-15:  # written so that NaN fails it
            raise DomainError(f"{owner} {i} has a negative or NaN strategy probability")
        if not abs(float(p.sum()) - 1.0) <= 1e-12:
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


def _check_demand(structure: Structure, demand: DemandVector) -> None:
    """Refuse a demand vector without exactly one entry per type of the structure."""
    if len(demand) != structure.n_types:
        raise StructureError("demand vector does not match the structure")


def check_feasible(structure: Structure, demand: DemandVector, pair: FlowLoadPair) -> float:
    """Maximum absolute violation over all feasibility constraints: nonnegativity,
    per-type totals and the load identity.  Callers compare it with their own
    tolerance.  A flow or load that is NaN or infinite is an infinite violation:
    no comparison below would see a NaN."""
    y = pair.y
    if y.shape != (structure.n_flows,):
        raise StructureError("flow vector does not match the structure")
    if pair.x.shape != (structure.n_resources,):
        raise StructureError("load vector does not match the structure")
    _check_demand(structure, demand)
    if not (np.isfinite(y).all() and np.isfinite(pair.x).all()):
        return math.inf
    worst = max(0.0, float(-y.min())) if y.size else 0.0
    for t, sl in enumerate(structure.type_slices):
        worst = max(worst, abs(float(y[sl].sum()) - demand[t]))
    worst = max(worst, float(np.abs(pair.x - y @ structure.incidence).max()))
    return worst


def strategy_cost(structure: Structure, x, t: int, s: int) -> float:
    """Total cost of strategy ``s`` of type ``t`` at loads ``x``: its entry of
    ``all_strategy_costs``, which the solvers read."""
    t = _check_index(t, structure.n_types, "type")
    s = _check_index(s, len(structure.strategies[t]), f"strategy of type {t}")
    return float(all_strategy_costs(structure, x)[structure.type_slices[t].start + s])


def all_strategy_costs(structure: Structure, x) -> np.ndarray:
    """Costs of every strategy (flat flow layout) at loads ``x``."""
    x = np.asarray(x, dtype=float)
    ce = np.array([float(c.value(float(x[e]))) for e, c in enumerate(structure.cost_fns)])
    return structure.incidence @ ce


class CostBatch:
    """Every resource's cost, one call per cost family.

    A continuous cost class names in its ``stack`` attribute the evaluator of
    a list of its costs: polynomial costs have one, auxiliary costs have their
    own (which hands polynomial bases to the first).  ``value_slopes`` and
    ``marginal_slopes`` return a (2, n) array, a density and its derivative in
    the load, at a whole load vector: the solvers score each sweep on these.
    ``value_slopes_at`` and ``marginal_slopes_at`` are their scalar route, for
    a line-search segment, which moves only the few resources of one strategy
    and not the other: they take those resources' indices and loads
    as lists and return the two rows as lists of Python floats, so that no
    numpy call is made per entry.
    """

    def __init__(self, cost_fns):
        families: dict = {}
        for e, c in enumerate(cost_fns):
            stack = getattr(type(c), "stack", None)
            if stack is None:
                raise PrecisionError(f"{type(c).__name__} costs have no vector evaluation")
            families.setdefault(stack, []).append(e)
        self._families = [(rows, make([cost_fns[e] for e in rows]))
                          for make, rows in families.items()]
        # each resource's family and position within it, for a segment's dispatch
        self._home = [None] * len(cost_fns)
        for f, (rows, _) in enumerate(self._families):
            for i, e in enumerate(rows):
                self._home[e] = (f, i)

    def _eval(self, method: str, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if len(self._families) == 1:  # positions in the family are the resource indices
            return getattr(self._families[0][1], method)(x)
        out = None
        for rows, stack in self._families:
            got = getattr(stack, method)(x[rows])
            if out is None:
                out = np.empty(got.shape[:-1] + x.shape)
            out[..., rows] = got
        return out

    def _eval_at(self, method: str, idx, xs) -> tuple[list, list]:
        if len(self._families) == 1:
            return getattr(self._families[0][1], method)(idx, xs)
        values, slopes = [0.0] * len(idx), [0.0] * len(idx)
        for f, (_, stack) in enumerate(self._families):
            at = [k for k, e in enumerate(idx) if self._home[e][0] == f]
            if at:
                got = getattr(stack, method)([self._home[idx[k]][1] for k in at],
                                             [xs[k] for k in at])
                for k, v, s in zip(at, *got):
                    values[k], slopes[k] = v, s
        return values, slopes

    def values(self, x) -> np.ndarray:
        return self._eval("values", x)

    def value_slopes(self, x) -> np.ndarray:
        return self._eval("value_slopes", x)

    def marginal_slopes(self, x) -> np.ndarray:
        """The marginal social costs, derivatives of x * c(x), with their slopes."""
        return self._eval("marginal_slopes", x)

    def integrals(self, x) -> np.ndarray:
        """Integrals of the costs from 0 to x: the Beckmann potential's terms."""
        return self._eval("integrals", x)

    def value_slopes_at(self, idx, xs) -> tuple[list, list]:
        """The entries ``idx`` of ``value_slopes`` at their loads ``xs``."""
        return self._eval_at("value_slopes_at", idx, xs)

    def marginal_slopes_at(self, idx, xs) -> tuple[list, list]:
        """The entries ``idx`` of ``marginal_slopes`` at their loads ``xs``."""
        return self._eval_at("marginal_slopes_at", idx, xs)


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
        _reject_unknown(obj, {"kind", "base"}, "aux cost")
        from .poisson_limit import AuxCost  # deferred to avoid an import cycle

        return AuxCost(parse_cost(_field(obj, "base", "aux cost")))
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
    """An integral number, or a string of decimal digits; a fraction, a NaN, a
    bool or anything else raises ValueError or TypeError."""
    if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (str, float, bool)):
        raise ValueError
    return operator.index(value)


def _integer_arg(value, what: str, least: int | None = None) -> int:
    """A count, index, degree or order argument read by ``_integer``: a value it
    refuses, or one below ``least``, raises ``DomainError`` naming ``what``."""
    try:
        k = _integer(value)
        if least is None or k >= least:
            return k
    except (TypeError, ValueError):
        pass
    bound = "" if least is None else f" >= {least}"
    raise DomainError(f"{what}: {value!r} is not an integer{bound}")


def _check_index(k, size: int, what: str) -> int:
    """Index ``k`` read by ``_integer_arg``; one outside 0 .. size - 1, where a
    negative one would count from the end, raises ``StructureError``."""
    k = _integer_arg(k, f"{what} index")
    if not 0 <= k < size:
        raise StructureError(f"no {what} with index {k}")
    return k


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
