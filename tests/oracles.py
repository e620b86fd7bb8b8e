"""Independent brute-force oracles and seeded instance generators for tests.

Everything here enumerates outcome spaces directly and stays deliberately
ignorant of the library's decompositions, so agreement is meaningful.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from cglab.atomic import BernoulliGame, MixedProfile, WeightedGame
from cglab.core import AffineCost, PolynomialCost, Structure
from cglab.discrete_dist import bernoulli_sum_pmf


def enumerate_bernoulli_sum(probs):
    """Walk all 2^n participation outcomes of a Bernoulli sum."""
    n = len(probs)
    out = np.zeros(n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        p = 1.0
        for b, q in zip(bits, probs):
            p *= q if b else (1.0 - q)
        out[sum(bits)] += p
    return out


def outcome_probability(profile, outcome):
    p = 1.0
    for i, si in enumerate(outcome):
        p *= float(profile.probs[i][si])
    return p


def esc_brute_force(game, profile):
    """Expected social cost over the full outcome space.

    Enumerates every pure strategy profile and, for Bernoulli games, every
    participation vector, weighting each by its probability.
    """
    s = game.structure
    n = game.n_players
    n_res = s.n_resources
    inc = [np.array([[1.0 if e in s.strategies[t][si] else 0.0
                      for e in range(n_res)]
                     for si in range(len(s.strategies[t]))])
           for t in game.player_types]
    if game.kind == "bernoulli":
        grid = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
        r = np.asarray(game.probs)
        u_prob = np.prod(np.where(grid > 0.5, r, 1.0 - r), axis=1)
    total = 0.0
    for outcome in itertools.product(*[range(len(s.strategies[t]))
                                       for t in game.player_types]):
        p_strat = outcome_probability(profile, outcome)
        if p_strat == 0.0:
            continue
        rows = np.stack([inc[i][si] for i, si in enumerate(outcome)])
        if game.kind == "weighted":
            loads = np.asarray(game.weights) @ rows
            sc = sum(float(loads[e]) * float(s.cost_fns[e].value(float(loads[e])))
                     for e in range(n_res))
            total += p_strat * sc
        else:
            loads = grid @ rows
            sc = np.zeros(grid.shape[0])
            for e in range(n_res):
                col = loads[:, e].astype(int)
                sc += col * np.asarray(s.cost_fns[e].value_int(col), dtype=float)
            total += p_strat * float(u_prob @ sc)
    return total


def conditional_cost_brute_force(game, profile, i, s):
    """Expected cost of strategy s for player i, given that i plays it (and, in
    a Bernoulli game, takes part), over every outcome of the other players'
    strategies and participations."""
    st = game.structure
    n = game.n_players
    mags = game.magnitudes
    choices = [(s,) if j == i else range(len(st.strategies[t]))
               for j, t in enumerate(game.player_types)]
    if game.kind == "bernoulli":
        actives = [act for act in itertools.product((0, 1), repeat=n) if act[i]]
    else:
        actives = [(1,) * n]
    terms = []
    for outcome in itertools.product(*choices):
        p_strat = math.prod(float(profile.probs[j][sj]) for j, sj in enumerate(outcome)
                            if j != i)
        if p_strat == 0.0:
            continue
        for act in actives:
            chance = p_strat
            if game.kind == "bernoulli":
                chance *= math.prod(r if a else 1.0 - r
                                    for j, (a, r) in enumerate(zip(act, mags)) if j != i)
            for e in st.strategies[game.player_types[i]][s]:
                users = [j for j, sj in enumerate(outcome)
                         if act[j] and e in st.strategies[game.player_types[j]][sj]]
                if game.kind == "bernoulli":
                    cost = float(st.cost_fns[e].value_int(len(users)))
                else:
                    cost = float(st.cost_fns[e].value(math.fsum(mags[j] for j in users)))
                terms.append(chance * cost)
    return math.fsum(terms)


def load_law_brute_force(game, profile, e):
    """Law of the load on resource e over the full outcome space, as {load: mass}.

    Loads are rounded to 9 decimals, so sums of the same weights taken in a
    different order share one key.
    """
    s = game.structure
    n = game.n_players
    mags = game.magnitudes
    if game.kind == "bernoulli":
        actives = list(itertools.product((0, 1), repeat=n))
        chances = [math.prod(r if a else 1.0 - r for a, r in zip(act, mags)) for act in actives]
    else:
        actives, chances = [(1,) * n], [1.0]
    law = {}
    for outcome in itertools.product(*[range(len(s.strategies[t]))
                                       for t in game.player_types]):
        p_strat = outcome_probability(profile, outcome)
        on = [e in s.strategies[t][si] for t, si in zip(game.player_types, outcome)]
        for act, chance in zip(actives, chances):
            if game.kind == "bernoulli":
                load = float(sum(o and a for o, a in zip(on, act)))
            else:
                load = math.fsum(m for m, o in zip(mags, on) if o)
            key = round(load, 9)
            law[key] = law.get(key, 0.0) + p_strat * chance
    return law


def random_small_game(rng, kind, max_players=7, degree=None):
    """Seeded random congestion game plus a mixed profile; the costs are affine,
    or polynomials of the given degree with nonnegative coefficients."""
    n_res = int(rng.integers(2, 4))
    if degree is None:
        costs = tuple(AffineCost(round(float(rng.uniform(0, 2)), 3),
                                 round(float(rng.uniform(0, 1)), 3))
                      for _ in range(n_res))
    else:
        costs = tuple(PolynomialCost(tuple(round(float(rng.uniform(0, 1)), 3)
                                           for _ in range(degree + 1)))
                      for _ in range(n_res))
    all_subsets = [tuple(c) for k in range(1, n_res + 1)
                   for c in itertools.combinations(range(n_res), k)]
    n_types = int(rng.integers(1, 3))
    strategies = []
    for _ in range(n_types):
        k = int(rng.integers(2, 4))
        picks = rng.choice(len(all_subsets), size=min(k, len(all_subsets)),
                           replace=False)
        strategies.append(tuple(all_subsets[j] for j in sorted(picks)))
    structure = Structure(tuple(f"e{j}" for j in range(n_res)), costs,
                          tuple(f"t{j}" for j in range(n_types)), tuple(strategies))
    n_players = int(rng.integers(2, max_players + 1))
    types = tuple(int(rng.integers(0, n_types)) for _ in range(n_players))
    if kind == "weighted":
        game = WeightedGame(structure,
                            tuple(round(float(rng.uniform(0.1, 1.5)), 3)
                                  for _ in range(n_players)), types)
    else:
        game = BernoulliGame(structure,
                             tuple(round(float(rng.uniform(0.05, 0.95)), 3)
                                   for _ in range(n_players)), types)
    profile = MixedProfile(tuple(
        np.array(v) / sum(v)
        for v in (rng.uniform(0.05, 1.0, len(structure.strategies[t])) for t in types)))
    return game, profile


def random_homogeneous_game(rng, kind, max_types=2, max_players=4):
    """Seeded random game whose players share one magnitude within each type.

    Costs are affine or quadratic; a type may have a single strategy, and the
    players of different types (at most ``max_players // n_types`` each) are
    interleaved in the player order.
    """
    n_res = int(rng.integers(2, 5))
    costs = tuple(PolynomialCost(tuple(round(float(rng.uniform(0, 2)), 3)
                                       for _ in range(int(rng.integers(2, 4)))))
                  for _ in range(n_res))
    all_subsets = [tuple(c) for k in range(1, n_res + 1)
                   for c in itertools.combinations(range(n_res), k)]
    n_types = int(rng.integers(1, max_types + 1))
    strategies = []
    for _ in range(n_types):
        picks = rng.choice(len(all_subsets), size=int(rng.integers(1, 4)), replace=False)
        strategies.append(tuple(all_subsets[j] for j in sorted(picks)))
    structure = Structure(tuple(f"e{j}" for j in range(n_res)), costs,
                          tuple(f"t{j}" for j in range(n_types)), tuple(strategies))
    per_type = max(1, max_players // n_types)
    types = [t for t in range(n_types) for _ in range(int(rng.integers(1, per_type + 1)))]
    types = tuple(types[j] for j in rng.permutation(len(types)))
    mags = [round(float(rng.uniform(0.05, 0.95)), 3) for _ in range(n_types)]
    cls = WeightedGame if kind == "weighted" else BernoulliGame
    return cls(structure, tuple(mags[t] for t in types), types)


def _compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, k - 1):
            yield (head,) + rest


def pure_esc_by_assignment(game, state):
    """Expected social cost of a pure profile, one resource at a time.

    Each resource contributes load times cost: fsum(w) c(fsum(w)) for the
    weights on it, or E[K c(K)] for the Poisson-binomial count K of the
    probabilities on it (sorted before the pmf is built); the resources'
    values are added with fsum.
    """
    s = game.structure
    per_edge = [[] for _ in range(s.n_resources)]
    for i, si in enumerate(state):
        for e in s.strategies[game.player_types[i]][si]:
            per_edge[e].append(game.magnitudes[i])
    if game.kind == "weighted":
        return math.fsum(math.fsum(ws) * float(s.cost_fns[e].value(math.fsum(ws)))
                         for e, ws in enumerate(per_edge))
    values = []
    for e, ps in enumerate(per_edge):
        if ps:
            pmf = bernoulli_sum_pmf(tuple(sorted(ps))).probs
            ks = np.arange(pmf.size)
            values.append(float(pmf @ (ks * np.asarray(s.cost_fns[e].value_int(ks),
                                                       dtype=float))))
    return math.fsum(values)


def pure_optimum_by_assignment(game, budget=250_000):
    """(value, description) of the cheapest pure profile, or None over budget.

    Games whose players share one magnitude within each type walk the
    per-type strategy counts (compositions in lexicographic order, combined
    across types in ``itertools.product`` order), filling each type's
    players in index order; other games walk every profile.  Each profile
    is scored by ``pure_esc_by_assignment``, and a profile replaces the best
    so far only when it is cheaper by more than 1e-15.
    """
    s = game.structure
    by_type = {}
    for i, t in enumerate(game.player_types):
        by_type.setdefault(t, []).append(i)
    if all(len({game.magnitudes[i] for i in members}) == 1 for members in by_type.values()):
        combos = math.prod(math.comb(len(members) + len(s.strategies[t]) - 1,
                                     len(s.strategies[t]) - 1)
                           for t, members in by_type.items())
        if combos <= budget:
            best, best_counts = math.inf, None
            type_ids = sorted(by_type)
            count_lists = [list(_compositions(len(by_type[t]), len(s.strategies[t])))
                           for t in type_ids]
            for combo in itertools.product(*count_lists):
                val = pure_esc_by_assignment(game, state_from_counts(game, combo))
                if val < best - 1e-15:
                    best, best_counts = val, combo
            return best, f"pure counts {best_counts}"
    if math.prod(len(s.strategies[t]) for t in game.player_types) > budget:
        return None
    best, best_state = math.inf, None
    for state in itertools.product(*[range(len(s.strategies[t])) for t in game.player_types]):
        val = pure_esc_by_assignment(game, state)
        if val < best - 1e-15:
            best, best_state = val, state
    return best, f"pure profile {best_state}"


def state_from_counts(game, counts):
    """Pure strategies that put counts[t][s] players of type t on strategy s,
    filling each type's players in index order."""
    state = [0] * game.n_players
    by_type = {}
    for i, t in enumerate(game.player_types):
        by_type.setdefault(t, []).append(i)
    for t, per_t in zip(sorted(by_type), counts):
        idx = iter(by_type[t])
        for strat, c in enumerate(per_t):
            for _ in range(c):
                state[next(idx)] = strat
    return state


def sequential_bernoulli_sum(probs):
    """Poisson-binomial pmf by adding one Bernoulli term at a time."""
    out = np.array([1.0])
    for q in probs:
        nxt = np.zeros(out.size + 1)
        nxt[:-1] = out * (1.0 - q)
        nxt[1:] += out * q
        out = nxt
    return out


def binomial_pmf_exact(k, p):
    """Binomial(k, p) masses in exact rational arithmetic, each rounded once.

    The failure probability is ``1.0 - p`` as rounded to a float, the one a
    Bernoulli(p) term carries.  p and q are multiples of 2^-L for one L, so
    the mass at j is the integer C(k, j) p^j q^(k-j) 2^(kL) over 2^(kL); the
    one true division of the two integers rounds it correctly.
    """
    (pn, pd), (qn, qd) = float(p).as_integer_ratio(), (1.0 - float(p)).as_integer_ratio()
    scale = max(pd, qd)
    pn, qn = pn * (scale // pd), qn * (scale // qd)
    q_powers = [1]
    for _ in range(k):
        q_powers.append(q_powers[-1] * qn)
    out, p_power = [], 1
    for j in range(k + 1):
        out.append(math.comb(k, j) * p_power * q_powers[k - j] / scale ** k)
        p_power *= pn
    return np.array(out)


def pairwise_tree_pmf(probs):
    """Poisson-binomial pmf by the divide-and-conquer product of terms that differ.

    Step for step the route ``bernoulli_sum_pmf`` takes when its terms are
    not all equal: neighbouring pmfs convolved pairwise, an odd level padded
    with a point mass at zero, and a level of more pmfs than each has masses
    convolved by one vector operation per coefficient.
    """
    p = np.asarray(probs, dtype=float)
    level = np.stack([1.0 - p, p], axis=1)
    while level.shape[0] > 1:
        if level.shape[0] % 2:
            level = np.vstack([level, np.eye(1, level.shape[1])])
        a, b = level[0::2], level[1::2]
        width = level.shape[1]
        if a.shape[0] > width:
            nxt = np.zeros((a.shape[0], 2 * width - 1))
            for j in range(width):
                nxt[:, j:j + width] += a[:, j:j + 1] * b
        else:
            nxt = np.array([np.convolve(x, y) for x, y in zip(a, b)])
        level = nxt
    return level[0, :p.size + 1]


def sequential_merge(values, masses, tol):
    """Point-mass pooling, one sorted point at a time.

    A point joins the current group when it lies within tol of the group's
    first (smallest) value; the group keeps the mass-weighted mean.
    """
    order = np.argsort(values, kind="stable")
    out_v, out_m = [], []
    anchor = None
    for vi, mi in zip(values[order], masses[order]):
        if anchor is None or vi - anchor > tol:
            out_v.append(float(vi))
            out_m.append(float(mi))
            anchor = float(vi)
        else:
            tot = out_m[-1] + mi
            if tot > 0:
                out_v[-1] = (out_v[-1] * out_m[-1] + vi * mi) / tot
            out_m[-1] = tot
    return np.array(out_v), np.array(out_m)


def _poisson_terms_mp(mean, rate):
    """Poisson(mean) masses in mpmath, far past where any of them (times an
    envelope of the given rate) could matter."""
    tilted = float(mean) * math.exp(rate)
    top = int(tilted + 40.0 * math.sqrt(tilted + 1.0) + 200.0)
    m = mpmath.mpf(mean)
    term = mpmath.exp(-m)
    for k in range(top + 1):
        yield k, term
        term = term * m / (k + 1)


def poisson_expect_mp(mean, h, rate=0.0, dps=40):
    """E[h(X)] for X ~ Poisson(mean), summed term by term at ``dps`` digits.

    ``h`` maps an integer k to a float; ``rate`` is the exponential growth
    rate of |h|, which sets how far the sum runs.
    """
    with mpmath.workdps(dps):
        return float(mpmath.fsum(mpmath.mpf(h(k)) * p for k, p in _poisson_terms_mp(mean, rate)))


def aux_integral_mp(mean, c, rate=0.0, dps=40):
    """int_0^mean E[c(1 + Poisson(u))] du as sum_k c(1+k) P(Poisson(mean) >= k+1).

    The survival probabilities are summed from the far end down, so none of
    them is formed as a difference of numbers close to 1.
    """
    with mpmath.workdps(dps):
        masses = [p for _, p in _poisson_terms_mp(mean, rate)]
        total, above = mpmath.mpf(0), mpmath.mpf(0)
        for k in range(len(masses) - 1, -1, -1):
            total += mpmath.mpf(c(1 + k)) * above  # above = P(X >= k + 1)
            above += masses[k]
        return float(total)


def linearization_gap(s, d, pair) -> float:
    """Linearization gap of ``pair``, clipped at 0, through the scalar ``marginal``
    methods, with the solvers' all-or-nothing target (ties to the lowest index)."""
    marg = np.array([c.marginal(float(load)) for c, load in zip(s.cost_fns, pair.x)])
    strat = s.incidence @ marg
    target = np.zeros(s.n_flows)
    for t, sl in enumerate(s.type_slices):
        target[sl.start + int(np.argmin(strat[sl]))] = d[t]
    return max(float(-(marg @ ((target - pair.y) @ s.incidence))), 0.0)


def bisection_minimizer(costs, x, dx, width: float = 1e-15) -> float:
    """Minimiser on [0, 1] of the summed cost integrals along ``x + gamma dx``.

    Bisects on the sign of the derivative, summed exactly (``math.fsum``)
    from the costs' scalar ``value`` methods.
    """
    def slope(gamma):
        return math.fsum(float(c.value(xe + gamma * de)) * de for c, xe, de in zip(costs, x, dx))

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def weighted_poly_expect_exact(coeffs, base, weights, probs):
    """E c(base + sum_j w_j B_j) in exact rational arithmetic, B_j ~ Bernoulli(p_j)
    independent and c(x) = sum_k coeffs[k] x^k.

    Adds the terms one at a time to the moments E (base + S)^k, k <= degree,
    by the binomial theorem, and rounds only the final ``Fraction``.  Every
    float is a multiple of 2^-L for one L, so E (base + S)^k is held exactly
    as the integer N_k = 2^(2kL) E (base + S)^k.
    """
    d = len(coeffs) - 1
    values = [float(base), *map(float, weights), *map(float, probs)]
    scale = max(v.as_integer_ratio()[1] for v in values)  # 2^L

    def ints(vs):
        return [n * (scale // m) for n, m in (float(v).as_integer_ratio() for v in vs)]

    (b,), ws, ps = ints([base]), ints(weights), ints(probs)
    moments = [b ** k * scale ** k for k in range(d + 1)]  # N_k
    for w, p in zip(ws, ps):
        # E (w B)^j = p w^j / 2^((j+1)L) adds 2^((j-1)L) p w^j times N_(k-j) to N_k
        term = [0] + [p * w ** j * scale ** (j - 1) for j in range(1, d + 1)]
        moments = [moments[k] + sum(math.comb(k, j) * moments[k - j] * term[j]
                                    for j in range(1, k + 1))
                   for k in range(d + 1)]
    return float(sum(Fraction(a) * Fraction(n, scale ** (2 * k))
                     for k, (a, n) in enumerate(zip(coeffs, moments)) if a))
