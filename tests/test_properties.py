"""Property-based checks of the fast kernels against brute-force oracles.

Covers the leave-one-out load laws (deconvolution with its direct-convolution
fallback, one term at a time or many in one sweep), the divide-and-conquer
Poisson-binomial pmf and its repeated squaring of equal terms, the exact
subset-sum atoms of weighted Bernoulli sums, array cost values against
scalar calls, each single-entry helper against the batch routine it reads,
the batched cost evaluator of the nonatomic solvers (whole load vectors and
row subsets, with slopes), their Newton line search, the vector Poisson
series behind the auxiliary costs and the exact Poisson polynomial that
replaces it over polynomial bases, the per-resource load laws behind ``esc``
and ``load_distribution``, the conditional costs behind
``verify_equilibrium`` and its one row per class of players, and the
count-space search for the pure social optimum, the symmetric mixed
equilibria found as Wardrop equilibria of binomial mixtures, with one pmf per
value and slope; and that a falsified property is reported without ending
the test session.
"""

import ast
import dataclasses
import itertools
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cglab import atomic, discrete_dist
from cglab.atomic import (BernoulliGame, MixedProfile, WeightedGame,
                          conditional_cost_estimate, esc, load_distribution,
                          resource_choice_prob, social_optimum_pure, verify_equilibrium)
from cglab.core import (AffineCost, CostBatch, DemandVector, GrowthEnvelope, PolynomialCost,
                        Structure, TableCost, all_strategy_costs, check_feasible,
                        strategy_cost)
from cglab.discrete_dist import (TAIL_TOL, bernoulli_sum_pmf, binomial_ladder,
                                 leave_one_out_moments, poisson_expect, remove_bernoulli,
                                 remove_bernoulli_terms, weighted_sum_distribution)
from cglab.errors import CapacityError, DomainError
from cglab.instances import UPPER, parallel_structure, random_instance, wheatstone_structure
from cglab.poisson_limit import AuxCost, build_limit_game, regularity_constants
from cglab.wardrop import (_segment_minimizer, solve_social_optimum, solve_wardrop,
                           wardrop_epsilon)

from oracles import (aux_integral_mp, bisection_minimizer, conditional_cost_brute_force,
                     enumerate_bernoulli_sum, esc_brute_force, linearization_gap, load_law_brute_force,
                     poisson_expect_mp, pure_optimum_by_assignment, random_homogeneous_game,
                     random_small_game, sequential_bernoulli_sum, subset_sum_law,
                     state_from_counts, weighted_poly_expect_exact, binomial_pmf_exact,
                     pairwise_tree_pmf, first_minimum_plain)
from oracles import _compositions as compositions_oracle

SPECIAL_P = (0.0, 1e-4, 0.5, 0.9, 1.0)

probabilities = st.one_of(st.sampled_from(SPECIAL_P), st.floats(0.0, 1.0),
                          st.floats(0.0, 0.02))


# a W1 column's key: 200 terms uniform(1e-4, 1.9/n) at usage one half
W1_KEY = sorted((np.random.default_rng(1).uniform(1e-4, 1.9 / 200, 200) * 0.5).tolist())


class TestLeaveOneOut:
    @given(st.lists(probabilities, max_size=199), st.sampled_from(SPECIAL_P))
    @example([0.01] * 199, 0.5)
    @example([0.01] * 100, 0.999)
    @example([(k % 10) / 10.0 for k in range(199)], 0.9)
    def test_deconvolution_matches_direct_convolution(self, others, p):
        full = bernoulli_sum_pmf(others + [p]).probs
        got = remove_bernoulli(full, p)
        assert got is not None
        want = sequential_bernoulli_sum(others)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13
        assert got.min() >= 0.0
        # tails too: every mass clear of underflow keeps a small relative error
        big = want > 1e-250
        assert np.all(np.abs(got[big] - want[big]) <= 1e-13 * want[big])

    def test_deconvolving_a_deconvolved_law(self):
        # a law that is itself a deconvolution, as a best-response move leaves a
        # column's law, carries rounding in its far tail; the masses there that
        # cancel to just below zero are returned as zero instead of rejected
        terms = np.random.default_rng(1).uniform(1e-4, 1.9 / 256, 256).tolist()
        once = remove_bernoulli(bernoulli_sum_pmf(terms).probs, terms[0])
        for j in range(1, 256, 5):
            got = remove_bernoulli(once, terms[j])
            assert got is not None and got.min() >= 0.0
            want = sequential_bernoulli_sum(terms[1:j] + terms[j + 1:])
            assert np.abs(got - want).max() <= 1e-13

    def test_best_response_moves_rarely_fall_back(self, pmf_builds):
        # the W2 game: 256 Bernoulli players of probability uniform(1e-4, 1.9/n),
        # drawn after those of a 1,024-player game, all starting on the upper
        # path.  Its first build is the upper column; every later one is a
        # deconvolution that fell back on direct convolution
        rng = np.random.default_rng(1)
        rng.uniform(1e-4, 1.9 / 1024, 1024)
        n = 256
        game = BernoulliGame(wheatstone_structure(), tuple(rng.uniform(1e-4, 1.9 / n, n)),
                             (0,) * n)
        assert atomic.best_response_dynamics(game, [UPPER] * n).converged
        assert len(pmf_builds[0]) == n
        assert len(pmf_builds) - 1 <= 1

    def test_failed_residual_check_returns_none(self):
        # [0.3, 0.7] is not of the form (1-p) g + p shift(g) for p = 0.5 and a pmf g
        assert remove_bernoulli(np.array([0.3, 0.7]), 0.5) is None

    def test_degenerate_inputs_return_none(self):
        # a point mass at 1 has no law without a Bernoulli(1/2) term: the window
        # of that law is empty, which used to raise ValueError from min()
        assert remove_bernoulli(np.array([0.0, 1.0]), 0.5) is None
        assert remove_bernoulli(np.array([0.0, 1.0]), 1.0).tobytes() == np.ones(1).tobytes()
        # a NaN mass used to pass both checks and come back as [1, nan]
        nan_law = np.array([0.5, np.nan, 0.5])
        assert remove_bernoulli(nan_law, 0.5) is None
        assert all(row is None for row in remove_bernoulli_terms(nan_law, np.linspace(0.1, 0.9, 30)))

    @given(st.lists(probabilities, min_size=1, max_size=150), st.lists(probabilities, max_size=40))
    @example(W1_KEY, [])
    @example(np.random.default_rng(2).uniform(0.4, 0.6, 60).tolist(), [0.5])
    @example(np.random.default_rng(3).uniform(0.9, 1.0, 60).tolist(), [0.9, 1.0 - 1e-12])
    @example(None, np.linspace(0.01, 0.99, 40).tolist())  # every row of a non-law fails
    def test_batched_rows_equal_single_removals(self, law, extra):
        # the law's distinct terms, then terms that need not be in it; with
        # law None, the masses [0.4, 0, 0.6] have a gap, so no law matches them
        if law is None:
            full, terms = np.array([0.4, 0.0, 0.6]), extra
        else:
            full, terms = bernoulli_sum_pmf(law).probs, sorted(set(law)) + extra
        want = [remove_bernoulli(full, p) for p in terms]
        if law is None:
            assert all(row is None for row in want)
        # the sweep at every count of terms, and the entry point's own choice
        with mock.patch.object(discrete_dist, "_BATCH_TERMS", 1):
            swept = list(remove_bernoulli_terms(full, terms))
        for got in (swept, list(remove_bernoulli_terms(full, terms))):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert (a is None) == (b is None)
                assert a is None or a.tobytes() == b.tobytes()

    def test_direct_convolution_fallback(self, monkeypatch):
        # with every deconvolution rejected, one at a time or in a sweep, each
        # law comes from the other terms
        rng = np.random.default_rng(3)
        s = wheatstone_structure()
        game = BernoulliGame(s, tuple(rng.uniform(0.05, 1.0, 40)), (0,) * 40)
        profile = MixedProfile(tuple(v / v.sum() for v in rng.uniform(0.0, 1.0, (40, 3))))
        want = verify_equilibrium(game, profile)
        monkeypatch.setattr(atomic, "remove_bernoulli", lambda full, p: None)
        monkeypatch.setattr(atomic, "remove_bernoulli_terms",
                            lambda full, terms: (None for _ in terms))
        got = verify_equilibrium(game, profile)
        for a, b in zip(got.players, want.players):
            assert np.abs(np.array(a.costs) - np.array(b.costs)).max() <= 1e-13

    def test_swept_costs_equal_single_queries(self, monkeypatch):
        # many distinct terms per column, certain players (probability 1 on a
        # pure row) and mixed rows: every cost of the report, whose columns are
        # swept, has the bytes of a fresh single query for that player
        sweeps = []
        sweep = discrete_dist._deconvolve_block
        monkeypatch.setattr(discrete_dist, "_deconvolve_block",
                            lambda fw, p: sweeps.append(p.size) or sweep(fw, p))
        s = wheatstone_structure()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(24, 41))
            probs = rng.choice(rng.uniform(0.01, 0.9, 12), n)
            probs[:4] = 1.0
            rows = [np.eye(3)[int(rng.integers(3))] if rng.random() < 0.3
                    else rng.dirichlet(np.ones(3)) for _ in range(n)]
            rows[0] = np.eye(3)[0]
            game = BernoulliGame(s, tuple(probs), (0,) * n)
            profile = MixedProfile(tuple(rows))
            report = verify_equilibrium(game, profile)
            for i, row in enumerate(report.players):
                want = tuple(conditional_cost_estimate(game, profile, i, k) for k in range(3))
                assert [c.hex() for c in row.costs] == [c.hex() for c in want]
        assert sweeps and max(sweeps) >= discrete_dist._BATCH_TERMS

    @given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=199),
           st.sampled_from(SPECIAL_P), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_conditional_cost_matches_direct_convolution(self, others, p, slope, icpt):
        # Two parallel links; player 0 either sits on link 0 with participation
        # p, or (p = 0) plays link 1, so its own entry in link 0's column is p.
        s = Structure(("a", "b"), (AffineCost(slope, icpt), AffineCost(1.0)), ("t",),
                      (((0,), (1,)),))
        rng = np.random.default_rng(len(others))
        mix = rng.uniform(0.0, 1.0, len(others))
        probs = (p if p > 0.0 else 0.5,) + tuple(others)
        game = BernoulliGame(s, probs, (0,) * len(probs))
        first = np.array([1.0, 0.0]) if p > 0.0 else np.array([0.0, 1.0])
        profile = MixedProfile((first,) + tuple(np.array([m, 1.0 - m]) for m in mix))
        got = conditional_cost_estimate(game, profile, 0, 0)
        law = sequential_bernoulli_sum(np.asarray(others) * mix)
        want = float(law @ (slope * (1.0 + np.arange(law.size)) + icpt))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    @given(st.floats(0.05, 1.0), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    def test_equal_weight_branch_matches_enumeration(self, w, mixes):
        # every player has weight w, so the other players' load is w times a
        # Poisson-binomial count: the count-law route of the weighted kernel
        s = wheatstone_structure()
        n = len(mixes)
        game = WeightedGame(s, (w,) * n, (0,) * n)
        profile = MixedProfile(tuple(np.array([m, 0.0, 1.0 - m]) for m in mixes))
        usage0 = np.array(mixes[1:])
        law = enumerate_bernoulli_sum(list(usage0))
        k = np.arange(law.size)
        # upper path: e1 (cost x) and e4 (cost 1); only the upper users load e1
        want = float(law @ (w + w * k)) + 1.0
        got = conditional_cost_estimate(game, profile, 0, 0)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_heterogeneous_wheatstone_matches_per_player_convolution(self):
        n = 256
        rng = np.random.default_rng(7)
        s = wheatstone_structure()
        game = BernoulliGame(s, tuple(rng.uniform(1e-4, 1.9 / n, n)), (0,) * n)
        sigma = np.array([0.4, 0.2, 0.4])
        report = verify_equilibrium(game, MixedProfile.symmetric(game, sigma))
        usage = sigma @ s.incidence  # the same for every player
        probs = np.asarray(game.probs)
        worst = 0.0
        for i, row in enumerate(report.players):
            others = np.delete(probs, i)
            laws = {u: bernoulli_sum_pmf(others * u).probs for u in set(usage)}
            edge = {}
            for e in range(s.n_resources):
                law = laws[usage[e]]
                ks = np.arange(law.size) + 1.0
                edge[e] = float(law @ np.asarray(s.cost_fns[e].value_int(ks), dtype=float))
            want = [sum(edge[e] for e in strat) for strat in s.strategies[0]]
            worst = max(worst, float(np.abs(np.array(row.costs) - want).max()))
        assert worst <= 1e-13


    def test_moves_keep_one_law_per_resource(self):
        # best-response moves replace columns; each replaced law is dropped
        # once no resource uses it, and the costs match a fresh store
        n = 30
        rng = np.random.default_rng(5)
        s = wheatstone_structure()
        game = BernoulliGame(s, tuple(rng.uniform(0.05, 1.0, n)), (0,) * n)
        state = list(rng.integers(0, 3, n))
        laws = atomic._LoadLaws(game, atomic.choice_probabilities(game, MixedProfile.pure(game, state)))
        for step in range(60):
            for e in range(s.n_resources):
                laws.law(e)
            i, best = step % n, int(rng.integers(0, 3))
            state[i] = best
            laws.move(i, s.incidence[s.type_slices[0]][best])
            live = {col.key for col in laws.records if col is not None}
            assert set(laws._laws) - {()} <= live
            for col in laws.records:  # a rebuilt record reads its key's law
                assert col is None or col.law is None or col.law is laws._laws[col.key]
            assert len(live) <= s.n_resources
        fresh = atomic._LoadLaws(game, atomic.choice_probabilities(game, MixedProfile.pure(game, state)))
        for i in range(n):
            for k in range(3):
                got = atomic._strategy_cond_cost(laws, i, k)
                assert got == pytest.approx(atomic._strategy_cond_cost(fresh, i, k),
                                            rel=1e-13, abs=1e-13)

    def test_weighted_column_sums_follow_moves(self):
        # equal weights: a move drops the record of each changed column, with
        # its certain-weight sum and its random users, so every record a moved
        # store holds is a fresh store's, the moved store answers bit for bit
        # as a fresh one, and both match the enumerated law
        n, w = 9, 0.3
        rng = np.random.default_rng(11)
        s = wheatstone_structure()
        game = WeightedGame(s, (w,) * n, (0,) * n)
        rows = s.incidence[s.type_slices[0]]
        choices = [rows[k] for k in range(3)] + [np.array([0.5, 0.5, 0.0, 0.5, 0.5])]
        usage = np.array([choices[int(rng.integers(0, 4))] for _ in range(n)])
        laws = atomic._LoadLaws(game, usage.copy())
        for step in range(40):
            for i in range(n):
                atomic._strategy_cond_cost(laws, i, int(rng.integers(0, 3)))
            row = choices[int(rng.integers(0, 4))]
            usage[step % n] = row
            laws.move(step % n, row)
            fresh = atomic._LoadLaws(game, usage.copy())
            for e, col in enumerate(laws.records):
                if col is not None:
                    want = fresh.record(e)
                    assert (col.certain, col.total, col.key) == (want.certain, want.total,
                                                                want.key)
                    assert col.index == want.index
        fresh = atomic._LoadLaws(game, usage.copy())
        for i in range(n):
            others = np.delete(usage, i, axis=0)
            for k in range(3):
                got = atomic._strategy_cond_cost(laws, i, k)
                assert got == atomic._strategy_cond_cost(fresh, i, k)
                want = 0.0
                for e in s.strategies[0][k]:
                    col = others[:, e]
                    law = enumerate_bernoulli_sum(list(col[col < 1.0]))
                    loads = w + w * float(np.sum(col >= 1.0)) + w * np.arange(law.size)
                    want += float(law @ np.asarray(s.cost_fns[e].value(loads), dtype=float))
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("bernoulli", "weighted")))
    def test_patched_columns_equal_fresh_records(self, seed, kind):
        # random games, rows and moves, pure or mixed, certain or not: after every
        # move, each record a move patched is the record a fresh split of the
        # moved usage gives, and each law it carries is its key's
        rng = np.random.default_rng(seed)
        game = _random_set_game(rng, kind, int(rng.integers(2, 30)), 5)
        s = game.structure
        usage = atomic.choice_probabilities(game, _random_rows(rng, game))
        laws = atomic._LoadLaws(game, usage.copy())
        for step in range(30):
            i = int(rng.integers(game.n_players))
            for e in rng.permutation(s.n_resources)[:int(rng.integers(s.n_resources + 1))]:
                laws.law(int(e))  # some records hold laws, others none or no record
            t = game.player_types[i]
            row = _random_rows(rng, game).probs[i] @ s.incidence[s.type_slices[t]]
            patched = {e for e in np.flatnonzero(usage[i] != row).tolist()
                       if laws.records[e] is not None}
            usage[i] = row
            laws.move(i, row)
            fresh = atomic._LoadLaws(game, usage.copy())
            for e in patched:
                col, want = laws.records[e], fresh.record(e)
                assert col.own == want.own and col.key == want.key
                assert (col.certain, col.total) == (want.certain, want.total)
                for name in ("rand", "terms", "weights"):
                    assert getattr(col, name).tobytes() == getattr(want, name).tobytes()
                assert col.law is None or col.law is laws._laws[col.key]
                if col.law is not None and kind == "bernoulli":
                    assert np.abs(col.law.pmf - fresh.law(e).pmf).max() <= 1e-13

    @given(st.integers(0, 2**32 - 1))
    def test_law_cost_maps_outlive_moves(self, seed):
        # random Bernoulli games, mixed and pure rows, random moves with random
        # conditional-cost queries between them.  A law's cost maps are kept
        # across moves, so after every move each cost that a held law keeps for
        # a resource's grid is, bit for bit, the cost that a fresh store gives
        # for that resource and term.  The fresh store is handed the moved
        # store's pmfs, since a carried law rounds apart from a freshly
        # convolved one (by at most 1e-13, as the test above checks), and
        # against fresh convolutions the costs agree to 1e-12.  The store keeps
        # only the laws that its records hold, and the empty key's
        rng = np.random.default_rng(seed)
        game = _random_set_game(rng, "bernoulli", int(rng.integers(2, 41)), 5)
        s = game.structure
        usage = atomic.choice_probabilities(game, _random_rows(rng, game))
        laws = atomic._LoadLaws(game, usage.copy())
        for step in range(30):
            for _ in range(int(rng.integers(0, 2 * game.n_players + 1))):
                i = int(rng.integers(game.n_players))
                k = int(rng.integers(len(s.strategies[game.player_types[i]])))
                atomic._strategy_cond_cost(laws, i, k)
            i = int(rng.integers(game.n_players))
            t = game.player_types[i]
            row = _random_rows(rng, game).probs[i] @ s.incidence[s.type_slices[t]]
            usage[i] = row
            laws.move(i, row)
            held = {col.law for col in laws.records if col is not None and col.law is not None}
            assert set(laws._laws.values()) <= held | {laws._laws[()]}
            assert all(laws._laws[law.key] is law for law in held)
            fresh = atomic._LoadLaws(game, usage.copy())
            fresh._laws = {key: atomic._Law(key, law.pmf) for key, law in laws._laws.items()}
            plain = atomic._LoadLaws(game, usage.copy())
            for e, col in enumerate(laws.records):
                if col is None or col.law is None:
                    continue
                for q, cost in col.law.costs.get(game._grids.ids[e], {}).items():
                    assert cost.hex() == fresh.term_cost(e, q).hex()
                    assert cost == pytest.approx(plain.term_cost(e, q), rel=1e-12, abs=1e-12)

    def test_reused_and_swept_removals_change_no_result(self, monkeypatch):
        # a move takes the mover's term out of the laws its evaluation just
        # deconvolved, and a law that has had _BATCH_TERMS single removals since
        # its last sweep has all its terms swept out at once.  With the
        # slot that keeps a law's last removal patched off (every one runs again,
        # and still counts), with no sweep, and with a sweep after every second
        # single removal, the dynamics end at the same bytes
        calls = []
        remove = atomic.remove_bernoulli
        monkeypatch.setattr(atomic, "remove_bernoulli",
                            lambda full, p: calls.append(p) or remove(full, p))
        rng = np.random.default_rng(1)
        rng.uniform(1e-4, 1.9 / 1024, 1024)
        n = 256
        game = BernoulliGame(wheatstone_structure(), tuple(rng.uniform(1e-4, 1.9 / n, n)),
                             (0,) * n)
        def every_time(law, q):
            law.singles += 1
            return atomic.remove_bernoulli(law.pmf, q)

        removed, usual = atomic._Law.removed, discrete_dist._BATCH_TERMS
        results = {}
        for slot, batch in ((True, usual), (False, usual), (True, 10**9), (True, 2)):
            monkeypatch.setattr(atomic._Law, "removed", removed if slot else every_time)
            monkeypatch.setattr(atomic, "_BATCH_TERMS", batch)
            calls.clear()
            res = atomic.best_response_dynamics(game, [UPPER] * n)
            results[slot, batch] = (res.strategies, res.sweeps, res.regret.hex()), len(calls)
        assert len({got for got, _ in results.values()}) == 1
        reused, repeated = results[True, usual][1], results[False, usual][1]
        assert reused < repeated
        assert results[True, 2][1] < reused < results[True, 10**9][1]


class TestTreeConvolution:
    @given(st.lists(probabilities, max_size=12))
    def test_matches_outcome_enumeration(self, probs):
        got = bernoulli_sum_pmf(probs).probs
        want = enumerate_bernoulli_sum(probs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14
        assert got.min() >= 0.0

    @given(st.lists(probabilities, max_size=300))
    def test_matches_sequential_convolution(self, probs):
        got = bernoulli_sum_pmf(probs).probs
        assert np.abs(got - sequential_bernoulli_sum(probs)).max() <= 1e-14
        assert got.min() >= 0.0

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_sum_pmf([0.5, math.nan])


class TestEqualTerms:
    """A key whose terms are all equal is binomial: its pmf is one term's
    raised to the k-th power by repeated squaring."""

    @given(st.integers(1, 2000), probabilities)
    @example(2000, 0.3)
    @example(2000, 1e-4)
    def test_matches_sequential_convolution(self, k, p):
        # a product tree's rounding error grows about in proportion to k (the
        # pairwise tree it replaces misses the sequential sum by 2.4e-14 at
        # k = 2000, p = 1e-4), so the tolerance is 1e-14 up to 256 terms and
        # grows with k past that
        got = bernoulli_sum_pmf([p] * k).probs
        assert got.shape == (k + 1,)
        tol = 1e-14 * max(1.0, k / 256)
        assert np.abs(got - sequential_bernoulli_sum([p] * k)).max() <= tol
        assert got.min() >= 0.0

    @given(st.integers(1, 300), probabilities)
    @example(300, 0.7)
    def test_matches_exact_binomial(self, k, p):
        got = bernoulli_sum_pmf([p] * k).probs
        want = binomial_pmf_exact(k, p)
        big = want > 1e-300
        assert np.all(np.abs(got[big] - want[big]) <= 1e-13 * want[big])

    @given(st.lists(probabilities, min_size=2, max_size=300))
    @example([0.1] * 63 + [0.2])
    def test_unequal_terms_keep_the_pairwise_tree(self, probs):
        if min(probs) == max(probs):
            probs = probs + [0.5 if probs[0] != 0.5 else 0.25]
        got = bernoulli_sum_pmf(probs).probs
        assert got.tobytes() == pairwise_tree_pmf(probs).tobytes()


    @given(st.integers(0, 300), st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
    @example(300, 0.3)
    def test_ladder_is_byte_equal_to_the_squaring(self, n, p):
        ladder = list(binomial_ladder(p, n))
        assert len(ladder) == n + 1
        for k, got in enumerate(ladder):
            assert got.tobytes() == bernoulli_sum_pmf([p] * k).probs.tobytes()


term_weights = st.one_of(st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.5, 1.0)), st.floats(0.0, 10.0))


class TestVectorisedMerge:
    @given(st.lists(st.tuples(term_weights, probabilities), max_size=8))
    @example([(0.1, 0.25), (0.1, 0.25)])
    @example([(0.1, 0.5), (0.2, 0.4), (0.3, 0.2), (0.0, 1.0), (0.5, 0.0)])
    @example([(5.422882411927112e-161, 0.0001), (0.1, 1.0)])  # a certain term merges sums
    def test_atoms_are_the_distinct_subset_sums(self, terms):
        weights, probs = [w for w, _ in terms], [p for _, p in terms]
        got = weighted_sum_distribution(weights, probs)
        sums, masses = subset_sum_law(weights, probs)
        distinct, group = np.unique(sums, return_inverse=True)
        assert got.values.tobytes() == distinct.tobytes()
        if distinct.size == sums.size:
            assert got.masses.tobytes() == masses.tobytes()
        else:
            want = [math.fsum(masses[group == g]) for g in range(distinct.size)]
            assert float(np.abs(got.masses - want).max()) <= 1e-15

    def test_weighted_sum_with_colliding_subset_sums(self):
        # equal weights make some subset sums coincide; 0.1 + 0.2 and 0.3 are
        # different sums, so they stay two atoms
        dist = weighted_sum_distribution([0.1, 0.2, 0.1, 0.3, 0.2], [0.5, 0.4, 0.3, 0.2, 0.6])
        assert len(dist) == 11
        assert abs(float(dist.masses.sum()) - 1.0) <= 1e-15


coefficients = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
smooth_costs = st.one_of(
    st.builds(AffineCost, coefficients, coefficients),
    st.builds(PolynomialCost, st.lists(coefficients, min_size=1, max_size=5).map(tuple)))
loads = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
row_picks = st.lists(st.integers(0, 11), min_size=1, max_size=12)


def _subset(picks, n: int) -> np.ndarray:
    """Distinct rows below n, in the order first picked."""
    return np.array(list(dict.fromkeys(i % n for i in picks)))


class TestArrayCostValues:
    @given(st.lists(coefficients, min_size=1, max_size=5), st.floats(1e-3, 1e3),
           st.integers(0, 300))
    @example([0.0, 1.0], 0.1, 300)
    @example([0.3, 0.1, 0.0, 0.07], 1 / 3, 64)
    def test_array_values_equal_scalar_calls(self, coeffs, w, n):
        # the count-space optimum fills a weighted one-class table at the loads
        # k w as one array; each entry must be the scalar call's
        loads = np.arange(n + 1) * w
        for cost in (PolynomialCost(tuple(coeffs)), AffineCost(coeffs[-1], coeffs[0])):
            want = [k * w * float(cost.value(k * w)) for k in range(n + 1)]
            got = loads * np.asarray(cost.value(loads), dtype=float)
            assert got.tobytes() == np.array(want).tobytes()


class TestAffineIsPolynomial:
    @given(coefficients, coefficients, loads)
    @example(0.0, 0.0, 0.0)
    @example(0.1, 0.7, 3.3)
    def test_affine_equals_degree_one_polynomial_bitwise(self, a, b, x):
        affine, poly = AffineCost(a, b), PolynomialCost((b, a))

        def bits(v):
            return np.asarray(v, dtype=float).tobytes()

        xs = np.array([0.0, x, 0.5 * x])
        for method in ("value", "value_int", "derivative", "integral", "marginal"):
            for at in (x, xs):
                assert bits(getattr(affine, method)(at)) == bits(getattr(poly, method)(at))
        assert bits(affine.value(xs)) == bits(P.polyval(xs, (b, a)))
        assert affine.slope_range(x) == poly.slope_range(x)
        assert affine.curvature_max(x) == poly.curvature_max(x)
        assert affine.growth_envelope() == poly.growth_envelope()
        batch = CostBatch([affine, poly])
        at = np.array([x, x])
        for got in (batch.value_slopes(at), batch.marginal_slopes(at), batch.integrals(at)):
            assert bits(got[..., 0]) == bits(got[..., 1])


class TestCostBatch:
    @given(st.lists(st.tuples(smooth_costs, loads), min_size=1, max_size=12))
    @example([(AffineCost(1.0), 0.0), (PolynomialCost((0.3,)), 2.5),
              (PolynomialCost((0.1, 0.7, 0.0, 0.2)), 1.7), (AffineCost(0.0, 2.0), 3.0)])
    def test_bit_identical_to_scalar_methods(self, rows):
        costs = [c for c, _ in rows]
        x = np.array([v for _, v in rows])
        batch = CostBatch(costs)
        want_values = np.array([float(c.value(float(v))) for c, v in rows])
        want_marginals = np.array([float(c.marginal(float(v))) for c, v in rows])
        assert batch.values(x).tobytes() == want_values.tobytes()
        assert batch.marginal_slopes(x)[0].tobytes() == want_marginals.tobytes()
        want_integrals = np.array([float(c.integral(float(v))) for c, v in rows])
        assert np.allclose(batch.integrals(x), want_integrals, rtol=1e-13, atol=0.0)

    @given(st.lists(st.tuples(smooth_costs, loads), min_size=1, max_size=12), row_picks)
    @example([(AffineCost(2.0, 1.0), 0.0), (PolynomialCost((0.1, 0.7, 0.0, 0.2)), 1.7)], [1])
    def test_row_subsets_and_slopes_bit_identical(self, rows, picks):
        costs = [c for c, _ in rows]
        x = np.array([v for _, v in rows])
        sub = _subset(picks, len(rows))
        batch = CostBatch(costs)
        for method, at in ((batch.value_slopes, batch.value_slopes_at),
                           (batch.marginal_slopes, batch.marginal_slopes_at)):
            full = method(x)
            assert full.shape == (2, len(rows))
            assert _bits(at(sub.tolist(), x[sub].tolist())) == full[:, sub].tobytes()
        assert batch.values(x).tobytes() == batch.value_slopes(x)[0].tobytes()
        want = np.array([float(c.derivative(float(v))) for c, v in rows])
        assert batch.value_slopes(x)[1].tobytes() == want.tobytes()
        want = [_marginal_slope(c, float(v)) for c, v in rows]
        assert np.allclose(batch.marginal_slopes(x)[1], want, rtol=1e-12, atol=0.0)

    @given(st.lists(st.tuples(st.sampled_from(("poly", "aux", "mixture")),
                              st.lists(coefficients, min_size=1, max_size=5), loads),
                    min_size=1, max_size=8), row_picks)
    @example([("poly", [0.0, 0.0, 0.0, 0.0, 1.0], 3.5), ("aux", [0.5, 0.0, 2.0], 0.0),
              ("mixture", [0.25, 0.0, 1.0], 0.4)], [2, 0])
    @example([("aux", [0.0], 7.0), ("aux", [1.0, 0.0, 0.0, 0.5], 1e3)], [1])
    def test_scalar_route_is_the_vector_route_bitwise(self, rows, picks):
        # a segment's scalar route returns the entries of the whole-vector
        # evaluation, whatever family each resource is in
        def cost(kind, coeffs):
            if kind == "mixture":  # grid g(0..m) from the steps, participation from the last
                return atomic._BinomialMixture(np.cumsum(coeffs), 1.0 / (1.0 + coeffs[-1]))
            poly = PolynomialCost(tuple(coeffs))
            return AuxCost(poly) if kind == "aux" else poly

        costs = [cost(kind, coeffs) for kind, coeffs, _ in rows]
        x = np.array([v for _, _, v in rows])
        sub = _subset(picks, len(rows)).tolist()
        batch = CostBatch(costs)
        routes = [(batch.value_slopes, batch.value_slopes_at)]
        if all(kind != "mixture" for kind, _, _ in rows):  # mixtures have no marginal route
            routes.append((batch.marginal_slopes, batch.marginal_slopes_at))
        for method, at in routes:
            got = at(sub, x[sub].tolist())
            assert all(type(v) is float for row in got for v in row)
            assert _bits(got) == method(x)[:, sub].tobytes()

    @given(st.integers(0, 2**32 - 1))
    @example(1)
    def test_solvers_pass_the_benchmark_checks(self, seed):
        # the checks of the nonatomic benchmark workload, on its reduced shape
        s, d = random_instance(np.random.default_rng(seed), 12, 2, 8)
        limit = build_limit_game(s, d).structure
        for structure, sol in ((s, solve_wardrop(s, d)),
                               (limit, solve_wardrop(limit, d, max_iters=200))):
            assert sol.epsilon == wardrop_epsilon(structure, d, sol.pair)
            assert check_feasible(structure, d, sol.pair) <= 1e-9
        opt = solve_social_optimum(s, d, max_iters=50)
        assert check_feasible(s, d, opt.pair) <= 1e-9
        # out of budget, the gap is that of the iterate before the last step
        evaluated = (solve_social_optimum(s, d, max_iters=49).pair
                     if opt.stop_reason == "budget" else opt.pair)
        assert opt.gap == linearization_gap(s, d, evaluated)

    def test_aux_rows_match_their_scalar_methods(self):
        costs = [AuxCost(AffineCost(1.0, 0.5)), PolynomialCost((0.2, 1.0)),
                 AuxCost(PolynomialCost((0.0, 0.0, 1.0)))]
        x = np.array([0.7, 1.3, 2.9])
        batch = CostBatch(costs)
        for method, got in (("value", batch.values(x)),
                            ("marginal", batch.marginal_slopes(x)[0]),
                            ("integral", batch.integrals(x))):
            want = [float(getattr(c, method)(float(v))) for c, v in zip(costs, x)]
            assert np.allclose(got, want, rtol=1e-13, atol=1e-10), method


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _many_strategy_game(seed: int, kind: str):
    """One type with 4-11 strategies over 4-5 resources, 1-5 players, a random profile."""
    rng = np.random.default_rng(seed)
    n_res = int(rng.integers(4, 6))
    subsets = [c for k in range(1, n_res + 1) for c in itertools.combinations(range(n_res), k)]
    picks = rng.choice(len(subsets), int(rng.integers(4, 12)), replace=False)
    s = Structure(tuple(f"e{j}" for j in range(n_res)), (AffineCost(1.0),) * n_res, ("t",),
                  (tuple(subsets[j] for j in sorted(picks)),))
    n_players = int(rng.integers(1, 6))
    cls = BernoulliGame if kind == "bernoulli" else WeightedGame
    game = cls(s, tuple(rng.uniform(0.05, 1.0, n_players)), (0,) * n_players)
    return game, _random_rows(rng, game)


class TestOneRoutePerQuantity:
    """Each quantity has one implementation: a single-entry helper returns the
    entry of the batch routine, whichever way its input is spelled."""

    @given(st.lists(coefficients, min_size=1, max_size=7), st.floats(0.0, 100.0))
    @example([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], 100.0)
    @example([0.3, 0.0, 0.7], 0.1)
    def test_scalar_methods_equal_a_one_row_stack(self, coeffs, x):
        cost = PolynomialCost(tuple(coeffs))
        stack, at = PolynomialCost.stack([cost]), np.array([x])
        value, slope = stack.value_slopes(at)
        for scalar, row in ((cost.value(x), stack.values(at)), (cost.derivative(x), slope),
                            (cost.integral(x), stack.integrals(at)),
                            (cost.marginal(x), stack.marginal_slopes(at)[0])):
            assert type(scalar) is float
            assert _bits(scalar) == _bits(row)
        assert _bits(cost.value(at)) == _bits(value)

    @given(st.lists(st.tuples(st.lists(coefficients, min_size=1, max_size=3), loads),
                    min_size=1, max_size=8),
           st.lists(st.frozensets(st.integers(0, 7), min_size=1), min_size=1, max_size=6))
    @example([((0.7,), 4.8), ((1.7,), 1.4), ((0.3, 1.3, 1.4), 3.2), ((2.2,), 3.5),
              ((0.3,), 1.5), ((1.6, 1.3), 0.0), ((1.8, 2.2), 4.9)],
             [{5}, {1, 6}, {0, 2, 6}, {0, 3, 6}, {1, 2, 3, 4, 5}, {1, 2, 3, 5, 6}])
    def test_strategy_cost_is_its_all_strategy_costs_entry(self, rows, picks):
        n = len(rows)
        strategies = tuple(dict.fromkeys(tuple(sorted({e % n for e in p})) for p in picks))
        s = Structure(tuple(f"e{j}" for j in range(n)),
                      tuple(PolynomialCost(tuple(c)) for c, _ in rows), ("t",), (strategies,))
        x = np.array([v for _, v in rows])
        want = all_strategy_costs(s, x)
        for k in range(len(strategies)):
            assert _bits(strategy_cost(s, x, 0, k)) == _bits(want[k])

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("bernoulli", "weighted")))
    @example(0, "bernoulli")
    def test_resource_choice_prob_is_its_choice_probabilities_entry(self, seed, kind):
        game, profile = _many_strategy_game(seed, kind)
        want = atomic.choice_probabilities(game, profile)
        for i in range(game.n_players):
            for e in range(game.structure.n_resources):
                assert _bits(resource_choice_prob(game, profile, i, e)) == _bits(want[i, e])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).map(
        lambda steps: np.cumsum(steps).tolist()), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example([0.27, 0.31, 0.33, 1.14, 2.05, 2.66, 3.39, 3.93, 4.87, 5.68, 5.69, 6.54, 6.58,
              7.31, 7.48, 8.35, 8.89], 0.3, 0.42)  # m = 16
    @example([0.27, 0.31, 0.33, 1.14, 2.05, 2.66, 3.39, 3.93], 0.3, 0.42)  # m = 7
    def test_binomial_mixture_value_is_its_value_slope_value(self, grid, r, u):
        mix = atomic._BinomialMixture(grid, r)
        assert _bits(mix.value(u)) == _bits(mix.value_slope(u)[0])

    @given(st.lists(st.tuples(st.floats(0.0, 3.0), coefficients), min_size=1, max_size=4),
           st.floats(0.5, 8.0))
    @example([(1.0, 0.0), (2.0, 1.0)], 1.5)
    def test_constants_do_not_depend_on_how_a_cost_is_spelled(self, lines, alpha):
        def constants(spell):
            s = Structure(tuple(f"e{j}" for j in range(len(lines))),
                          tuple(spell(a, b) for a, b in lines), ("t",),
                          (tuple((j,) for j in range(len(lines))),))
            return dataclasses.astuple(regularity_constants(s, alpha))

        assert constants(AffineCost) == constants(lambda a, b: PolynomialCost((b, a)))


def _marginal_slope(cost, x: float) -> float:
    """Second derivative of x c(x), from the coefficients by ``numpy.polynomial``."""
    return float(P.polyval(x, P.polyder((0.0,) + cost.coeffs, 2)))


def _table_base(seed: int, rate: float) -> TableCost:
    values = np.cumsum(np.random.default_rng(seed).uniform(0.0, 1.0, 13))
    top = float(values[-1]) + 1.0
    return TableCost(tuple(values), GrowthEnvelope("exp", rate=rate, scale=top))


BASES = (AffineCost(1.0, 0.5), PolynomialCost((0.3, 1.0, 0.0, 0.2)),
         _table_base(4, 0.2), _table_base(5, 0.0))
# beyond the certified truncation error, double rounding of the weighted sum,
# relative to the size of the value
ROUNDING = 2e-13


def _envelope(base):
    """Rate and scale of the envelope of k -> c(1 + k)."""
    rate, scale = base.growth_envelope().exp_majorant()
    return rate, scale * math.exp(rate)


def _close_to_oracle(got: float, want: float) -> bool:
    return abs(got - want) <= TAIL_TOL + ROUNDING * abs(want)


class TestPoissonSeries:
    @given(st.lists(st.tuples(loads, st.sampled_from(range(len(BASES)))),
                    min_size=1, max_size=3))
    @example([(800.0, 3), (0.0, 0), (1000.0, 1)])
    def test_vector_expectation_matches_mpmath(self, rows):
        means = np.array([m for m, _ in rows])
        bases = [BASES[b] for _, b in rows]
        envelopes = np.array([_envelope(b) for b in bases])
        got = poisson_expect(
            means, lambda ks: np.array([b.value_int(ks + 1) for b in bases], dtype=float),
            envelopes[:, 0], envelopes[:, 1], TAIL_TOL)
        assert got.value.shape == got.error.shape == means.shape
        for m, b, (rate, _), value, error in zip(means, bases, envelopes, got.value, got.error):
            assert error < TAIL_TOL
            want = poisson_expect_mp(m, lambda k: float(b.value_int(k + 1)), rate)
            assert _close_to_oracle(value, want), (m, b, value, want)

    @given(st.lists(loads, min_size=1, max_size=5), st.sampled_from(range(len(BASES))))
    def test_shared_row_matches_scalar_calls(self, means, b):
        base = BASES[b]
        rate, scale = _envelope(base)
        h = lambda ks: base.value_int(np.asarray(ks) + 1)
        got = poisson_expect(np.array(means), h, rate, scale, TAIL_TOL).value
        for m, v in zip(means, got):
            one = poisson_expect(m, h, rate, scale, TAIL_TOL)
            assert abs(v - one.value) <= 2 * TAIL_TOL + ROUNDING * abs(one.value)

    @given(loads, st.sampled_from(range(len(BASES))))
    @example(500.0, 0)
    @example(1000.0, 2)
    def test_aux_value_and_integral_match_mpmath(self, x, b):
        base = BASES[b]
        rate = base.growth_envelope().exp_majorant()[0]
        aux = AuxCost(base)
        want = poisson_expect_mp(x, lambda k: float(base.value_int(k + 1)), rate)
        assert _close_to_oracle(aux.value(x), want)
        want = aux_integral_mp(x, lambda k: float(base.value_int(k)), rate)
        assert _close_to_oracle(aux.integral(x), want)


def _envelope_at(values, kind: str, growth: float, below: float) -> GrowthEnvelope:
    """An envelope of rate ``growth`` (exp) or degree ``round(3 growth)`` (poly)
    whose bound at the table's top is the top value less ``below``."""
    top, k_top = values[-1] - below, len(values) - 1
    if kind == "exp":
        return GrowthEnvelope("exp", rate=growth, scale=top * math.exp(-growth * k_top))
    degree = round(3 * growth)
    return GrowthEnvelope("poly", degree=degree, scale=top / (1.0 + k_top) ** degree)


class TestAuxMonotone:
    """aux'(x) = E Δc(1 + X) sums nonnegative terms when the base is
    nondecreasing on the integers, so it is nonnegative exactly, with no
    tolerance, on any grid of loads."""

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=10),
           st.sampled_from(("exp", "poly")), st.floats(0.0, 1.0),
           st.one_of(st.just(0.0), st.sampled_from((1e-13, 5e-13, 1e-12))),
           st.floats(0.5, 60.0))
    @example([0.0, 1e-13], "exp", 0.0, 1e-13, 3.0)
    def test_table_bases(self, steps, kind, growth, below, alpha):
        # the entries below the top are clipped to the envelope, so that only
        # the top decides whether construction accepts it
        sums = np.cumsum(steps)
        try:
            envelope = _envelope_at(sums, kind, growth, below)
            clipped = np.minimum(sums, envelope.bound(np.arange(sums.size)))
            base = TableCost(tuple(clipped[:-1]) + (sums[-1],), envelope)
        except DomainError:
            assume(False)
        xs = np.linspace(0.0, alpha, 200)
        assert np.all(AuxCost(base).derivative(xs) >= 0.0)

    @given(st.lists(coefficients, min_size=1, max_size=5), st.floats(0.5, 60.0))
    def test_polynomial_bases(self, coeffs, alpha):
        xs = np.linspace(0.0, alpha, 200)
        assert np.all(AuxCost(PolynomialCost(tuple(coeffs))).derivative(xs) >= 0.0)


def _close_to(got, want, tol: float, size) -> bool:
    """Within two certified tails of ``tol`` each, plus rounding relative to ``size``."""
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want))
                       <= 2 * tol + ROUNDING * np.asarray(size)))


class TestAuxCostBatch:
    @given(st.lists(st.tuples(st.sampled_from(range(len(BASES))), st.floats(0.0, 40.0),
                              st.booleans()), min_size=1, max_size=6), row_picks)
    @example([(2, 3.0, True), (1, 0.0, False), (3, 40.0, True)], [2, 0])
    def test_row_subsets_and_slopes_match_scalar_methods(self, rows, picks):
        # table bases have no continuous evaluation, so their rows are always auxiliary
        costs = [AuxCost(BASES[b]) if aux or b >= 2 else BASES[b]
                 for b, _, aux in rows]
        x = np.array([v for _, v, _ in rows])
        sub = _subset(picks, len(rows))
        is_aux = np.array([isinstance(c, AuxCost) for c in costs])
        batch = CostBatch(costs)
        value, slope = batch.value_slopes(x)
        marginal, marginal_slope = batch.marginal_slopes(x)
        for full, got in ((np.stack((value, slope)),
                           np.array(batch.value_slopes_at(sub.tolist(), x[sub].tolist()))),
                          (np.stack((marginal, marginal_slope)),
                           np.array(batch.marginal_slopes_at(sub.tolist(), x[sub].tolist())))):
            poly = ~is_aux[sub]
            assert got[:, poly].tobytes() == full[:, sub][:, poly].tobytes()
            assert _close_to(got, full[:, sub], TAIL_TOL * (2.0 + x[sub]), np.abs(full[:, sub]))
        for e in np.flatnonzero(is_aux):
            c, v = costs[e], float(x[e])
            d1, d2 = c.derivative(v), c.derivative(v, 2)
            assert _close_to(value[e], c.value(v), TAIL_TOL, abs(value[e]))
            assert _close_to(slope[e], d1, TAIL_TOL, abs(d1))
            assert _close_to(marginal[e], c.marginal(v), TAIL_TOL * (1.0 + v), abs(marginal[e]))
            assert _close_to(marginal_slope[e], 2.0 * d1 + v * d2, TAIL_TOL * (2.0 + v),
                             2.0 * abs(d1) + v * abs(d2))


def _close_or_underflow(got: float, want: float, rel: float) -> bool:
    """Within ``rel`` of ``want``, or both below the normal float range, where
    floats themselves carry fewer digits."""
    return abs(got - want) <= rel * abs(want) + sys.float_info.min


class TestPoissonPolynomial:
    """``AuxCost.stack`` over polynomial bases: the exact Poisson polynomial
    (Touchard) against term-by-term mpmath sums, with no tail to allow for."""

    @given(st.lists(coefficients, min_size=1, max_size=5), st.floats(0.0, 60.0))
    @example([0.0, 0.0, 0.0, 0.0, 1.0], 60.0)
    @example([0.0], 3.0)
    def test_value_slope_and_integral_match_mpmath(self, coeffs, x):
        def c(j):  # exact integer powers: every term of the sum is nonnegative
            return math.fsum(a * j ** i for i, a in enumerate(coeffs))

        stack = AuxCost.stack([AuxCost(PolynomialCost(tuple(coeffs)))])
        value, slope = stack.value_slopes(np.array([x]))[:, 0]
        integral = stack.integrals(np.array([x]))[0]
        slope_want = poisson_expect_mp(x, lambda k: math.fsum(
            a * ((k + 2) ** i - (k + 1) ** i) for i, a in enumerate(coeffs)))
        assert _close_or_underflow(value, poisson_expect_mp(x, lambda k: c(k + 1)), 1e-13)
        assert _close_or_underflow(slope, slope_want, 1e-13)
        assert _close_or_underflow(integral, aux_integral_mp(x, c), 1e-13)

    @given(st.lists(coefficients, min_size=1, max_size=5), st.floats(0.0, 50.0))
    @example([0.0, 0.0, 0.0, 0.0, 1.0], 50.0)
    @example([0.0], 0.0)
    def test_values_match_mpmath_and_the_batch(self, coeffs, x):
        # value, values_on_grid, value_int and the batch share one Horner route
        aux = AuxCost(PolynomialCost(tuple(coeffs)))
        value = aux.value(x)
        want = poisson_expect_mp(x, lambda k: math.fsum(a * (k + 1) ** i
                                                        for i, a in enumerate(coeffs)))
        assert _close_or_underflow(value, want, 1e-13)
        at = np.array([x])
        for entry in (aux.values_on_grid(at), aux.value_int(at),
                      AuxCost.stack([aux]).values(at)):
            assert entry.tobytes() == np.float64(value).tobytes()
        for bad in (math.nan, math.inf, -math.inf, -1.0, -x - 1e-300):
            for load in (bad, np.array([x, bad])):
                with pytest.raises(DomainError):
                    aux.value(load)


class TestBinomialMixtureSlopes:
    """One Bin(m - 1, q) pmf gives both the value and the slope."""

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    def test_one_pmf_matches_two(self, steps, r, u):
        grid = np.cumsum(steps)
        mix = atomic._BinomialMixture(grid, r)
        q = min(r * u, 1.0)
        m = grid.size - 1
        value = float(bernoulli_sum_pmf(np.full(m, q)).probs @ grid)
        slope = m * r * float(bernoulli_sum_pmf(np.full(m - 1, q)).probs
                              @ np.diff(grid)) if m else 0.0
        got = mix.value_slope(u)
        assert _close_or_underflow(got[0], value, 1e-14)
        assert _close_or_underflow(got[1], slope, 1e-14)


steep_costs = st.one_of(
    st.builds(AffineCost, st.floats(0.1, 3.0), coefficients),
    st.builds(lambda c0, c1, rest: PolynomialCost((c0, c1) + tuple(rest)),
              coefficients, st.floats(0.1, 3.0), st.lists(coefficients, max_size=3)))
STEEP_BASES = (AffineCost(1.0, 0.5), PolynomialCost((0.3, 1.0, 0.0, 0.2)))


def _segment(rows, flow: float):
    """A path shift: ``flow`` leaves the resources of one strategy for the other's.

    Each row is (cost, joins, other load): whether the moving flow joins the
    resource or leaves it, and the load the resource carries besides.
    """
    costs = [c for c, _, _ in rows]
    x = np.array([other + (0.0 if joins else flow) for _, joins, other in rows])
    dx = np.array([flow if joins else -flow for _, joins, _ in rows])
    return costs, x, dx


def _newton_minimizer(costs, x, dx) -> float:
    batch = CostBatch(costs)
    rows = list(range(len(costs)))

    def slope(gamma):
        dens, ddens = map(np.array, batch.value_slopes_at(
            rows, np.maximum(x + gamma * dx, 0.0).tolist()))
        return float(dens @ dx), float(ddens @ (dx * dx))

    d0, dd0 = batch.value_slopes(x)
    return _segment_minimizer(slope, float(d0 @ dx), float(dd0 @ (dx * dx)))


class TestSegmentMinimizer:
    @given(st.lists(st.tuples(steep_costs, st.booleans(), st.floats(0.0, 3.0)),
                    min_size=1, max_size=6), st.floats(0.01, 3.0))
    @example([(AffineCost(1.0), True, 0.5), (AffineCost(1.0), False, 2.0)], 1.0)  # gamma 0
    @example([(AffineCost(1.0, 0.1), False, 0.0), (AffineCost(0.5), True, 0.0)], 1.0)  # 1
    @example([(AffineCost(1.0), False, 0.0), (AffineCost(1.0), True, 0.0)], 1.0)  # 1/2
    # 1: the first Newton step lands one ulp short of 1 and the bracket closes there
    @example([(AffineCost(0.109375), False, 0.0)], 1.4432992398971733)
    def test_polynomial_segments_match_bisection(self, rows, flow):
        costs, x, dx = _segment(rows, flow)
        want = bisection_minimizer(costs, x, dx)
        got = _newton_minimizer(costs, x, dx)
        assert got == want if want in (0.0, 1.0) else abs(got - want) <= 1e-9

    @given(st.lists(st.tuples(st.sampled_from(range(len(STEEP_BASES))), st.booleans(),
                              st.floats(0.0, 3.0)), min_size=1, max_size=4),
           st.floats(0.01, 3.0))
    @example([(0, True, 1.0), (1, False, 0.0)], 0.5)  # gamma 0
    @example([(0, False, 0.0), (0, True, 0.0)], 2.0)  # interior
    @example([(1, False, 2.0), (0, True, 0.0)], 0.5)  # gamma 1
    def test_aux_segments_match_bisection(self, rows, flow):
        costs, x, dx = _segment([(AuxCost(STEEP_BASES[b]), joins, other)
                                 for b, joins, other in rows], flow)
        want = bisection_minimizer(costs, x, dx)
        got = _newton_minimizer(costs, x, dx)
        assert got == want if want in (0.0, 1.0) else abs(got - want) <= 1e-8


def _random_game(seed: int, n_resources: int, n_types: int, limit: bool):
    rng = np.random.default_rng(seed)
    costs = tuple(PolynomialCost((rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0), 0.0,
                                  rng.uniform(0.0, 0.2))) if rng.uniform() < 0.5
                  else AffineCost(rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0))
                  for _ in range(n_resources))
    strategies = []
    for _ in range(n_types):
        picks = {tuple(sorted(rng.choice(n_resources, int(rng.integers(1, 3)), replace=False)))
                 for _ in range(4)}
        strategies.append(tuple(sorted(picks)))
    s = Structure(tuple(f"r{e}" for e in range(n_resources)), costs,
                  tuple(f"t{t}" for t in range(n_types)), tuple(strategies))
    d = DemandVector(rng.uniform(0.2, 2.0, n_types))
    return (build_limit_game(s, d).structure if limit else s), d


class TestSolverCertificate:
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 3), st.booleans(),
           st.sampled_from((1e-4, 1e-8, 1e-12)), st.integers(0, 60))
    def test_epsilon_is_recomputable(self, seed, n_resources, n_types, limit, target, iters):
        s, d = _random_game(seed, n_resources, n_types, limit)
        sol = solve_wardrop(s, d, target_eps=target, max_iters=iters)
        assert sol.epsilon == wardrop_epsilon(s, d, sol.pair)
        assert sol.stop_reason in ("converged", "budget", "no_descent")

    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 3),
           st.sampled_from((1e-4, 1e-9, 1e-12)), st.integers(0, 60))
    def test_optimum_gap_is_recomputable(self, seed, n_resources, n_types, target, iters):
        # the gap belongs to the last iterate evaluated: the returned pair,
        # unless the budget ran out, when one more step followed it
        s, d = _random_game(seed, n_resources, n_types, limit=False)
        opt = solve_social_optimum(s, d, target_gap=target, max_iters=iters)
        assert opt.converged == (opt.gap <= target)
        if opt.stop_reason != "budget":
            assert opt.gap == linearization_gap(s, d, opt.pair)
        elif iters == 0:
            assert opt.gap == math.inf
        else:
            before = solve_social_optimum(s, d, target_gap=target, max_iters=iters - 1)
            assert opt.gap == linearization_gap(s, d, before.pair)


def _mixed_game(seed, kind, costs=None):
    """A small random game and mixed profile.

    "equal" gives every weighted player one weight, and "apart" every player
    but player 0.  ``costs`` is None (affine), a polynomial degree, or "aux"
    (``AuxCost`` over random tables).  Odd seeds make player 0 certain of its
    strategy.
    """
    rng = np.random.default_rng(seed)
    game, profile = random_small_game(rng, "bernoulli" if kind == "bernoulli" else "weighted",
                                      max_players=5, degree=None if costs == "aux" else costs)
    if kind in ("equal", "apart"):
        w = game.weights
        rest = w[1] if kind == "apart" else w[0]
        game = WeightedGame(game.structure, (w[0],) + (rest,) * (game.n_players - 1),
                            game.player_types)
    if costs == "aux":
        env = GrowthEnvelope("poly", degree=2, scale=2.0)
        tables = tuple(AuxCost(TableCost(tuple(np.cumsum(row)), env))
                       for row in np.random.default_rng(seed).uniform(
                           0.0, 0.5, (game.structure.n_resources, 3)))
        game = type(game)(game.structure.with_costs(tables), game.magnitudes,
                          game.player_types)
    if seed % 2:
        pinned = np.eye(profile.probs[0].size)[0]
        profile = MixedProfile((pinned,) + profile.probs[1:])
    return game, profile


def _random_set_game(rng, kind, n_players, max_strategies, n_types=None):
    """A random game on 2-5 resources with affine or quadratic costs: 1-3
    types (or ``n_types``), each with 1 to ``max_strategies`` distinct
    strategies; the players' types are drawn independently, and the
    magnitudes from a pool of 3 to 80 values, so that some repeat."""
    n_res = int(rng.integers(2, 6))
    costs = tuple(PolynomialCost(tuple(round(float(rng.uniform(0, 2)), 3)
                                       for _ in range(int(rng.integers(2, 4)))))
                  for _ in range(n_res))
    subsets = [c for k in range(1, n_res + 1) for c in itertools.combinations(range(n_res), k)]
    n_types = int(rng.integers(1, 4)) if n_types is None else n_types
    strategies = tuple(
        tuple(subsets[j] for j in sorted(rng.choice(
            len(subsets), int(rng.integers(1, min(max_strategies, len(subsets)) + 1)),
            replace=False)))
        for _ in range(n_types))
    structure = Structure(tuple(f"e{j}" for j in range(n_res)), costs,
                          tuple(f"t{j}" for j in range(n_types)), strategies)
    types = tuple(int(t) for t in rng.integers(0, n_types, n_players))
    types = (0, n_types - 1) + types[2:] if n_players >= 2 else types
    pool = rng.uniform(0.05, 1.0, int(rng.integers(3, 81)))
    if kind == "bernoulli":
        pool[0] = 1.0  # a player who always takes part
        return BernoulliGame(structure, tuple(rng.choice(pool, n_players)), types)
    return WeightedGame(structure, tuple(rng.choice(pool, n_players)), types)


def _random_rows(rng, game, shared=0):
    """A profile of random rows: about a third pure, the rest mixed with some
    exact zeros; with ``shared`` > 0, each player takes one of that many rows
    of its type."""
    def row(m):
        if rng.random() < 0.35:
            return np.eye(m)[int(rng.integers(m))]
        v = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.8)
        v[int(rng.integers(m))] += 0.5
        return v / v.sum()
    s = game.structure
    pools = [[row(len(s.strategies[t])) for _ in range(shared)] for t in range(s.n_types)]
    return MixedProfile(tuple(pools[t][int(rng.integers(shared))] if shared
                              else row(len(s.strategies[t])) for t in game.player_types))


class TestLoadLaw:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(("bernoulli", "equal", "unequal")))
    def test_mixed_esc_matches_brute_force(self, seed, kind):
        game, profile = _mixed_game(seed, kind)
        want = esc_brute_force(game, profile)
        assert esc(game, profile) == pytest.approx(want, rel=1e-12, abs=1e-13)

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(("bernoulli", "equal", "unequal", "apart")),
           st.sampled_from((None, 3, "aux")))
    @example(2, "apart", 3)  # the other random users of one weight: a count law
    @example(2, "apart", "aux")
    def test_conditional_costs_match_brute_force(self, seed, kind, costs):
        game, profile = _mixed_game(seed, kind, costs)
        for i, row in enumerate(verify_equilibrium(game, profile).players):
            for s, got in enumerate(row.costs):
                want = conditional_cost_brute_force(game, profile, i, s)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("bernoulli", "equal", "unequal")))
    def test_load_distribution_matches_brute_force(self, seed, kind):
        game, profile = _mixed_game(seed, kind)
        for e in range(game.structure.n_resources):
            want = load_law_brute_force(game, profile, e)
            dist = load_distribution(game, profile, e)
            if game.kind == "bernoulli":
                got = {float(k): float(m) for k, m in enumerate(dist.probs)}
            else:
                got = {}
                for v, m in zip(dist.values, dist.masses):
                    got[round(float(v), 9)] = got.get(round(float(v), 9), 0.0) + float(m)
            for key in set(got) | set(want):
                assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=1e-13)

    def test_columns_with_the_same_users_share_one_enumeration(self, monkeypatch):
        # under [.4, .2, .4] on the Wheatstone network, e1/e5 and e2/e4 have the
        # same random users, so three enumerations serve five resources; the
        # value is the fsum of the resources' values from stores of their own
        w = np.random.default_rng(1).uniform(0.5, 1.5, 12)
        game = WeightedGame(wheatstone_structure(), tuple(w / w.sum()), (0,) * 12)
        profile = MixedProfile.symmetric(game, [0.4, 0.2, 0.4])
        usage = atomic.choice_probabilities(game, profile)
        want = math.fsum(atomic._LoadLaws(game, usage.copy()).edge_value(e) for e in range(5))
        calls = []
        monkeypatch.setattr(atomic, "weighted_sum_distribution", lambda ws, ps: (
            calls.append(len(ws)) or weighted_sum_distribution(ws, ps)))
        assert esc(game, profile).hex() == want.hex()
        assert calls == [12, 12, 12]

    def test_more_than_twenty_unequal_random_users_stay_exact(self):
        # the laws of whole loads are enumerated up to 20 random terms; the
        # conditional costs of polynomial costs need only moments, past 20 too
        s = parallel_structure()
        w = np.linspace(0.5, 1.5, 20)
        w /= w.sum()
        game = WeightedGame(s, tuple(w), (0,) * 20)
        profile = MixedProfile.symmetric(game, [0.5, 0.5])
        # c(x) = x on both edges: E[L c(L)] = Var L + (E L)^2 per edge
        assert esc(game, profile) == pytest.approx(2.0 * (float(w @ w) / 4.0 + 0.25),
                                                   rel=1e-12)
        # 21 random users on link 0, and player 0 certain to be there with them
        w = np.linspace(0.5, 1.5, 22)
        w /= w.sum()
        game = WeightedGame(s, tuple(w), (0,) * 22)
        profile = MixedProfile((np.array([1.0, 0.0]),) + profile.probs[:1] * 21)
        usage = np.stack(profile.probs)
        rows = verify_equilibrium(game, profile).players
        for i in (0, 1, 21):
            for e in range(2):
                want = w[i] + math.fsum(w[j] * usage[j, e] for j in range(22) if j != i)
                assert abs(rows[i].costs[e] - want) <= 1e-12
                assert abs(conditional_cost_estimate(game, profile, i, e) - want) <= 1e-12
        for call in (esc, lambda g, p: load_distribution(g, p, 0)):
            with pytest.raises(CapacityError, match="limited to 20"):
                call(game, profile)


class TestWeightedMoments:
    """Conditional costs of polynomial costs under unequal weights come from
    leave-one-out raw moments; other costs still enumerate."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_leave_one_out_moments_are_exact(self, seed, degree):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 8))
        w, p = rng.uniform(0.0, 2.0, n), rng.choice(SPECIAL_P + (0.3,), n)
        rows = leave_one_out_moments(w, p, degree)
        assert rows.shape == (n + 1, degree + 1)
        for j in range(n + 1):
            keep = np.arange(n) != j
            for k in range(degree + 1):
                want = weighted_poly_expect_exact((0.0,) * k + (1.0,), 0.0, w[keep], p[keep])
                assert rows[j, k] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_two_thousand_weight_cubic_wheatstone_is_exact(self):
        rng = np.random.default_rng(7)
        s = wheatstone_structure()
        s = s.with_costs(tuple(PolynomialCost(tuple(rng.uniform(0.0, 1.0, 4)))
                               for _ in range(s.n_resources)))
        n = 2000
        w = rng.uniform(0.5, 1.5, n)
        w /= w.sum()
        game = WeightedGame(s, tuple(w), (0,) * n)
        # the first 50 players surely take the upper path, the rest mix
        profile = MixedProfile(tuple(np.array([1.0, 0.0, 0.0]) if i < 50
                                     else np.array([0.4, 0.2, 0.4]) for i in range(n)))
        usage = atomic.choice_probabilities(game, profile)
        rows = verify_equilibrium(game, profile).players
        for i in (0, 50, n - 1):
            for k, edges in enumerate(s.strategies[0]):
                want = 0.0
                for e in edges:
                    others = np.arange(n) != i
                    certain = others & (usage[:, e] >= 1.0)
                    rand = others & (usage[:, e] < 1.0)
                    want += weighted_poly_expect_exact(
                        s.cost_fns[e].coeffs, w[i] + math.fsum(w[certain]),
                        w[rand], usage[rand, e])
                assert rows[i].costs[k] == pytest.approx(want, rel=1e-12, abs=0.0)
        for call in (esc, lambda g, p: load_distribution(g, p, 0)):
            with pytest.raises(CapacityError, match="limited to 20"):
                call(game, profile)

    def test_table_costs_still_enumerate(self, monkeypatch):
        calls = []

        def spy(weights, probs):
            calls.append(len(weights))
            return weighted_sum_distribution(weights, probs)

        monkeypatch.setattr(atomic, "weighted_sum_distribution", spy)
        for seed in range(6):
            game, profile = _mixed_game(seed, "unequal", "aux")
            for i, row in enumerate(verify_equilibrium(game, profile).players):
                for k, got in enumerate(row.costs):
                    want = conditional_cost_brute_force(game, profile, i, k)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert calls


class TestClassRows:
    """A game groups its players into classes of one type and one magnitude
    (``_AtomicGame._classes``), and ``verify_equilibrium`` evaluates one row
    per class and probability row and copies it to the players who share them."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("weighted", "bernoulli")),
           st.booleans())
    def test_class_index_counts_type_magnitude_pairs(self, seed, kind, homogeneous):
        rng = np.random.default_rng(seed)
        game = (random_homogeneous_game(rng, kind, max_types=3, max_players=8) if homogeneous
                else random_small_game(rng, kind)[0])
        players = list(zip(game.player_types, game.magnitudes))
        counts = Counter(players)
        classes = game._classes
        assert classes.keys == sorted(counts)
        assert classes.sizes == [counts[key] for key in classes.keys]
        assert [classes.keys[j] for j in classes.of] == players

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("weighted", "bernoulli")))
    @example(1, "weighted")
    def test_class_rows_match_per_player_costs(self, seed, kind):
        rng = np.random.default_rng(seed)
        game = random_homogeneous_game(rng, kind, max_types=3, max_players=8)
        s = game.structure
        # two rows per type, mixed or pure, so classes both repeat and split
        rows = [[rng.dirichlet(np.ones(len(s.strategies[t]))) if rng.random() < 0.7
                 else np.eye(len(s.strategies[t]))[int(rng.integers(len(s.strategies[t])))]
                 for _ in range(2)] for t in range(s.n_types)]
        profile = MixedProfile(tuple(rows[t][int(rng.integers(2))] for t in game.player_types))
        report = verify_equilibrium(game, profile)
        # every player through one store, one after another: the costs before classes
        laws = atomic._LoadLaws(game, atomic.choice_probabilities(game, profile))
        worst = 0.0
        for i, row in enumerate(report.players):
            costs = tuple(atomic._strategy_cond_cost(laws, i, k)
                          for k in range(profile.probs[i].size))
            used = profile.probs[i] > atomic.USAGE_TOL
            regret = max(c - min(costs) for c, u in zip(costs, used) if u)
            assert (row.player, row.costs, row.best, row.regret) == (
                i, costs, min(costs), regret)
            worst = max(worst, regret)
            for k, got in enumerate(row.costs):
                want = conditional_cost_estimate(game, profile, i, k)
                if kind == "bernoulli":
                    assert got == want
                else:
                    # a fresh store reads player i's own leave-one-out moment
                    # row, which rounds apart from its class mates' rows
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert report.max_regret == worst


    @given(st.integers(0, 2**32 - 1))
    def test_heterogeneous_bernoulli_rows_match_per_player_costs(self, seed):
        # two types, at least _BATCH_TERMS distinct terms on a column, classes
        # that repeat (shared probabilities and rows) and ones that do not:
        # every row is the one _strategy_cond_cost gives, byte for byte
        sweeps = []
        sweep = discrete_dist._deconvolve_block
        rng = np.random.default_rng(seed)
        # every strategy uses resource 0, so its terms are the probabilities of
        # the players, at least _BATCH_TERMS + 6 of them distinct (one of them 1)
        n_res = 4
        costs = tuple(PolynomialCost(tuple(round(float(rng.uniform(0, 2)), 3)
                                           for _ in range(int(rng.integers(2, 4)))))
                      for _ in range(n_res))
        subsets = [(0,) + c for k in range(n_res)
                   for c in itertools.combinations(range(1, n_res), k)]
        strategies = tuple(tuple(subsets[j] for j in sorted(rng.choice(
            len(subsets), int(rng.integers(2, 5)), replace=False))) for _ in range(2))
        s = Structure(tuple(f"e{j}" for j in range(n_res)), costs, ("a", "b"), strategies)
        n = int(rng.integers(40, 61))
        pool = rng.uniform(0.01, 1.0, discrete_dist._BATCH_TERMS + 6)
        pool[0] = 1.0
        probs = np.concatenate((pool, rng.choice(pool, n - pool.size)))
        game = BernoulliGame(s, tuple(probs), tuple(int(t) for t in rng.integers(0, 2, n)))
        profile = _random_rows(rng, game, shared=3)
        with mock.patch.object(discrete_dist, "_deconvolve_block",
                               lambda fw, p: sweeps.append(p.size) or sweep(fw, p)):
            report = verify_equilibrium(game, profile)
        laws = atomic._LoadLaws(game, atomic.choice_probabilities(game, profile))
        for i, row in enumerate(report.players):
            want = [atomic._strategy_cond_cost(laws, i, k) for k in range(len(row.costs))]
            assert [c.hex() for c in row.costs] == [c.hex() for c in want]
        assert len({(t, m) for t, m in zip(game.player_types, game.probs)}) < game.n_players
        assert sweeps and max(sweeps) >= discrete_dist._BATCH_TERMS


class TestChoiceProbabilities:
    @given(st.integers(0, 2**32 - 1))
    @example(3)
    def test_type_products_equal_row_products(self, seed):
        # one product per type, players of several types interleaved, rows mixed
        # and pure: each row is its player's own product, capped at 1.  That
        # product adds the strategies in order; the matrix-vector product
        # p @ incidence that each row used to be agrees byte for byte up to
        # three strategies (the shipped games have two or three), and beyond
        # that within the rounding of the sum: (k - 1) units in the last place
        # of the row's total, 1
        rng = np.random.default_rng(seed)
        game = _random_set_game(rng, "bernoulli", int(rng.integers(1, 40)), 8)
        profile = _random_rows(rng, game)
        got = atomic.choice_probabilities(game, profile)
        s = game.structure
        for i, p in enumerate(profile.probs):
            incidence = s.incidence[s.type_slices[game.player_types[i]]]
            row = np.zeros(s.n_resources)
            for k in range(p.size):
                row = row + p[k] * incidence[k]
            assert got[i].tobytes() == np.minimum(row, 1.0).tobytes()
            blas = np.minimum(p @ incidence, 1.0)
            if p.size <= 3:
                assert got[i].tobytes() == blas.tobytes()
            else:
                assert np.abs(got[i] - blas).max() <= (p.size - 1) * np.finfo(float).eps


class TestCountSpaceOptimum:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(("weighted", "bernoulli")))
    def test_matches_brute_force_minimum(self, seed, kind):
        game = random_homogeneous_game(np.random.default_rng(seed), kind)
        found = social_optimum_pure(game)
        assert found.description.startswith("pure counts")
        s = game.structure
        best = min(esc_brute_force(game, MixedProfile.pure(game, list(state)))
                   for state in itertools.product(*[range(len(s.strategies[t]))
                                                    for t in game.player_types]))
        assert abs(found.value - best) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("weighted", "bernoulli")))
    def test_bit_identical_to_assignment_oracle(self, seed, kind):
        game = random_homogeneous_game(np.random.default_rng(seed), kind, max_types=3,
                                       max_players=8)
        found = social_optimum_pure(game)
        value, description = pure_optimum_by_assignment(game)
        assert found.value.hex() == value.hex()
        assert found.description == description
        counts = ast.literal_eval(description.removeprefix("pure counts "))
        profile = MixedProfile.pure(game, state_from_counts(game, counts))
        assert esc(game, profile).hex() == value.hex()


    @given(st.floats(0.0, 1e300), st.integers(0, 10_000))
    @example(0.1, 10_000)
    @example(1 / 3, 9_999)
    def test_equal_weights_load_is_their_fsum(self, w, k):
        # both are the correctly rounded value of the exact sum
        assert k * w == math.fsum([w] * k)

    def test_compositions_match_the_oracle(self):
        for n in range(13):
            for k in range(1, 6):
                got = atomic._compositions(n, k)
                want = list(compositions_oracle(n, k))
                assert got.shape == (len(want), k)
                assert list(map(tuple, got.tolist())) == want

    @given(st.integers(0, 2**32 - 1))
    @example(178)  # a plain row sum orders two rows wrongly: an unbounded filter fails
    @example(346)
    def test_filtered_scan_keeps_the_plain_scans_row(self, seed):
        # up to 300 rows of up to 40 entries from 2^-30 to 1 times 2^exp, exp in
        # -60..40, scanned in blocks of up to 64 rows: exact ties (an anchor row
        # permuted, which leaves its fsum alone), near-ties (the anchor with its
        # largest entry moved by 0-20 ulps of its fsum, permuted) and rows up to
        # 1 % above the anchor
        rng = np.random.default_rng(seed)
        exp, cols = int(rng.integers(-60, 41)), int(rng.integers(1, 41))
        rows, chunk = int(rng.integers(1, 301)), int(rng.integers(1, 65))
        anchor = np.ldexp(rng.uniform(0.5, 1.0, cols), exp - rng.integers(0, 31, cols))
        ulp = np.spacing(math.fsum(anchor))
        table = np.empty((rows, cols))
        for r in range(rows):
            kind = rng.integers(0, 3)
            if kind == 2:
                table[r] = anchor * rng.uniform(1.0, 1.01, cols)
            else:
                row = anchor.copy()
                if kind == 1:
                    row[np.argmax(row)] += int(rng.integers(-20, 21)) * ulp
                table[r] = rng.permutation(row)
        got = atomic._first_minimum(table[i:i + chunk] for i in range(0, rows, chunk))
        want = first_minimum_plain(table.tolist())
        assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])


# a one-type game whose symmetric equilibrium mixes three strategies; the
# three-stage search that preceded the Wardrop route raised ConvergenceError
# on it at n = 2, 3, 4 and 8 in both models
MIXING_GAME = ([(0, 0, 0, .26, 0), (.47, 0, 0, .85, 0), (.09, .91, 0, .2, .3),
                (.61, 0, .11, .16, .35), (.94, .35, .43, 0, .98), (.21, .41, .44, 0, .86)],
               [(1, 5), (0, 1, 3), (4, 5), (4,)])


@st.composite
def one_type_games(draw):
    """Coefficient rows of degree <= 4 for 2-6 resources, and 2-5 distinct strategies."""
    coefficient = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.lists(coefficient, min_size=1, max_size=5), min_size=2, max_size=6))
    strategies = draw(st.lists(st.frozensets(st.integers(0, len(rows) - 1), min_size=1),
                               min_size=2, max_size=5, unique=True))
    return rows, [tuple(sorted(strategy)) for strategy in strategies]


class TestSymmetricSolver:
    @given(one_type_games(), st.integers(2, 512),
           st.sampled_from(("bernoulli", "weighted", "table")))
    @example(MIXING_GAME, 2, "bernoulli")
    @example(MIXING_GAME, 3, "bernoulli")
    @example(MIXING_GAME, 4, "bernoulli")
    @example(MIXING_GAME, 8, "bernoulli")
    @example(MIXING_GAME, 2, "weighted")
    @example(MIXING_GAME, 3, "weighted")
    @example(MIXING_GAME, 4, "weighted")
    @example(MIXING_GAME, 8, "weighted")
    def test_the_returned_profile_verifies(self, spec, n, model):
        # polynomial costs in both models, and their tables c(0..n+1) in the Bernoulli one
        rows, strategies = spec
        costs = [PolynomialCost(tuple(row)) for row in rows]
        if model == "table":
            costs = [TableCost(tuple(c.value_int(np.arange(n + 2)))) for c in costs]
        s = Structure(tuple(f"e{j}" for j in range(len(rows))), tuple(costs), ("t",),
                      (tuple(strategies),))
        cls = WeightedGame if model == "weighted" else BernoulliGame
        game = cls.homogeneous(s, DemandVector(np.ones(1)), n)
        profile = atomic.symmetric_mixed_equilibrium(game)
        assert verify_equilibrium(game, profile).max_regret <= atomic.VERIFY_TOL


class TestFailureReports:
    def test_a_falsified_property_is_reported_and_the_run_goes_on(self, tmp_path):
        # under filterwarnings = error, a deprecation warning raised while
        # hypothesis writes its report used to end the whole session
        (tmp_path / "test_falsified.py").write_text(
            "from hypothesis import given, strategies as st\n\n\n"
            "@given(st.integers())\n"
            "def test_falsified(x):\n"
            "    assert x < 5\n\n\n"
            "def test_after():\n"
            "    pass\n", encoding="utf-8")
        config = Path(__file__).resolve().parents[1] / "pyproject.toml"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
             "--rootdir", str(tmp_path), "test_falsified.py"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        out = proc.stdout + proc.stderr
        assert "INTERNALERROR" not in out
        assert "Falsifying example" in out
        assert "1 failed, 1 passed" in out
