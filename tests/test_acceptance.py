"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything here is
exact-rational except the Monte Carlo consistency criterion, which uses
three-sigma bands around independently derived probabilities.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from ocsg import chain as chain_mod
from ocsg import mdp, oracle, ssg, termination
from ocsg.model import (
    LIMINF_MINUS_INF,
    LIMINF_PLUS_INF,
    LIMIT_OBJECTIVES,
    MEAN_GT,
    OcSsg,
    PureMemorylessStrategy,
    State,
    Transition,
    fix_strategies,
    oc_to_reward_ssg,
    parse_model,
)
from ocsg.reduce import condon_to_limit, condon_to_termination, normalize_reach_instance

from grids import as_mdp, exhaustive_games, random_games, random_reach_instances

RANDOM_SEED = 987654321


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="session")
def grid_games():
    games = exhaustive_games(3) + random_games(200, sizes=(4, 5), seed=RANDOM_SEED)
    print(f"\n[grid: {len(games)} instances]")
    return games


@pytest.fixture(scope="session")
def solutions(grid_games):
    store = {}

    def get(index, objective):
        key = (index, objective.kind)
        if key not in store:
            game = grid_games[index]
            store[key] = (
                ssg.solve_limit_ssg(game, objective),
                oracle.enumerate_solve(game, objective),
            )
        return store[key]

    return get


def test_criterion_1_oracle_equivalence(grid_games, solutions):
    with criterion(1, "solve_limit_ssg equals exhaustive enumeration on the grid"):
        for index in range(len(grid_games)):
            for objective in LIMIT_OBJECTIVES:
                solve, reference = solutions(index, objective)
                assert solve.result.values == reference.values, (index, objective.kind)


def test_criterion_2_mean_equals_liminf_plus(grid_games, solutions):
    with criterion(2, "Val(mean>0) = Val(liminf=+inf) statewise on the grid"):
        for index in range(len(grid_games)):
            mean, _ = solutions(index, MEAN_GT)
            liminf, _ = solutions(index, LIMINF_PLUS_INF)
            assert mean.result.values == liminf.result.values, index


def test_criterion_3_procedure_mp_cross_validation(grid_games):
    with criterion(3, "procedure MP agrees with the MEC route on all grid MDPs"):
        for index, game in enumerate(grid_games):
            game = as_mdp(game)
            region, _ = mdp.qualitative_limit(game, MEAN_GT, "max")
            for sid in game.ids():
                answer = mdp.procedure_mp(game, sid) is not None
                assert answer == (sid in region), (index, sid)


def _arrival_counter_view(game):
    states = []
    for s in game.states:
        transitions = tuple(
            Transition(t.target, prob=t.prob, delta=game.state(t.target).reward) for t in s.transitions
        )
        states.append(State(s.id, s.owner, transitions=transitions))
    return OcSsg(tuple(states))


def test_criterion_4_large_counter_reduces_to_liminf(grid_games, solutions):
    with criterion(4, "j>=|V| termination equals liminf=-inf, both code paths"):
        for index, game in enumerate(grid_games):
            counter = _arrival_counter_view(game)
            j = len(counter.states)
            rewards = oc_to_reward_ssg(counter)
            w = ssg.solve_limit_ssg(rewards, LIMINF_MINUS_INF).result.value_one_set
            level = termination.build_level_game(rewards, j, w, hi=len(counter.states))
            asr = mdp.almost_sure_reach(level.game, level.targets)
            for sid in counter.ids():
                direct = termination.decide_term_one(counter, sid, j)
                assert direct.branch == "limit"
                widened = termination._level_id(sid, 0) in asr.winning
                assert direct.value_one == widened, (index, sid)
            if len(game.states) <= 3:
                _, reference = solutions(index, LIMINF_MINUS_INF)
                for sid in counter.ids():
                    value_one = termination.decide_term_one(counter, sid, j).value_one
                    assert value_one == (reference.values[sid] == 1), (index, sid)


def test_criterion_5_min_memory_fixture(five_state_game):
    with criterion(5, "five-state fixture: value<1, memoryless Min fails, memory wins"):
        for j in (1, 2, 3):
            assert termination.decide_term_one(five_state_game, "v", j).value_one is False

        always_low = fix_strategies(five_state_game, min_strategy=PureMemorylessStrategy("min", {"v": 1}))
        assert termination.decide_term_one(always_low, "v", 1).value_one is True
        always_back = fix_strategies(five_state_game, min_strategy=PureMemorylessStrategy("min", {"v": 0}))
        for j in (1, 2, 3, 5, 7):
            assert termination.decide_term_one(always_back, "v", j).value_one is True

        for j in (1, 2, 3):
            sigma, pi = termination.synthesize_term_strategies(five_state_game, "v", j)
            assert sigma is None
            assert pi.memory_size <= 5
            product, pstart = termination.product_with_strategy(five_state_game, pi, "v")
            assert termination.decide_term_one(product, pstart, j).value_one is False


def test_criterion_6_condon_reduction_contract():
    with criterion(6, "Condon reduction contract on 100 seeded instances"):
        for game, s, t, u in random_reach_instances(100, seed=RANDOM_SEED):
            normalized = normalize_reach_instance(game, t, u)
            reach_t = oracle.enumerate_reach(normalized, {t}).values[s]
            reach_u = oracle.enumerate_reach(normalized, {u}).values[s]
            reduced = condon_to_limit(game, s, t, u)
            minus = ssg.solve_limit_ssg(reduced, LIMINF_MINUS_INF).result.values[s]
            plus = ssg.solve_limit_ssg(reduced, LIMINF_PLUS_INF).result.values[s]
            assert minus == (1 if reach_t >= Fraction(1, 2) else 0)
            assert plus == (1 if reach_u > Fraction(1, 2) else 0)

            counter, start, j = condon_to_termination(game, s, t, u)
            term_one = termination.decide_term_one(counter, start, j).value_one
            assert term_one == (reach_t >= Fraction(1, 2))


def _pivot_checked_values(game, result, objective):
    """Re-evaluate the optimal profile's chain, returning values and pivot."""
    induced = fix_strategies(game, result.witness_max, result.witness_min)
    bsccs, _ = chain_mod.bscc_decompose(induced)
    winning = set()
    for members in bsccs:
        if chain_mod.analyze_bscc(induced, members).classification[objective.kind]:
            winning.update(members)
    if not winning:
        return {sid: Fraction(0) for sid in induced.ids()}, 1
    return chain_mod.reach_probabilities(induced, winning, return_pivot=True)


def test_criterion_7_rationality_and_denominator_bound(grid_games, solutions):
    with criterion(7, "values are exact rationals; denominators divide the pivot"):
        three_state = [i for i, g in enumerate(grid_games) if len(g.states) == 3]
        for index in three_state:
            game = grid_games[index]
            for objective in LIMIT_OBJECTIVES:
                solve, _ = solutions(index, objective)
                for value in solve.result.values.values():
                    assert isinstance(value, Fraction)
                    assert 0 <= value <= 1
                values, pivot = _pivot_checked_values(game, solve.result, objective)
                assert values == solve.result.values
                for value in values.values():
                    assert value.denominator <= pivot
                    assert pivot % value.denominator == 0


def test_criterion_8_monte_carlo_consistency(fair_walk):
    with criterion(8, "Monte Carlo frequencies match exact values to 3 sigma"):
        # Exact truncated fair-walk termination from the reflection identity
        # P(S_1..S_N all >= 0) = C(N, N/2) / 2^N, cross-checked by brute
        # force at small N.
        def never_hit(n):
            mass, term = 0, 1
            # C(n, n//2)/2^n
            for k in range(n // 2):
                term = term * (n - k) // (k + 1)
            return Fraction(term, 2**n)

        def brute_never_hit(n):
            alive = 0
            for bits in range(2**n):
                total, ok = 0, True
                for i in range(n):
                    total += 1 if (bits >> i) & 1 else -1
                    if total < 0:
                        ok = False
                        break
                alive += ok
            return Fraction(alive, 2**n)

        assert never_hit(10) == brute_never_hit(10)
        assert never_hit(14) == brute_never_hit(14)

        horizon, trials = 10_000, 100_000
        exact = 1 - never_hit(horizon)
        stats = oracle.simulate(fair_walk, (), "s", horizon, trials, seed=RANDOM_SEED, j=1, stop_at_termination=True)
        sigma = (float(exact * (1 - exact)) / trials) ** 0.5
        assert abs(float(stats.termination_frequency - exact)) <= 3 * sigma

        # One-third-down walk: P(hit -1) solves x = 1/3 + 2/3 x^2, so 1/2.
        down_third = parse_model(
            "ocssg\nstate s owner=rand\ntrans s -> s p=1/3 delta=-1\ntrans s -> s p=2/3 delta=1\n"
        )
        trials = 10_000
        stats = oracle.simulate(down_third, (), "s", 2_000, trials, seed=RANDOM_SEED + 1, j=1, stop_at_termination=True)
        sigma = (0.25 / trials) ** 0.5
        assert abs(float(stats.termination_frequency) - 0.5) <= 3 * sigma

        # Unit-drift components must trip their liminf proxies nearly always.
        up = parse_model("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=1\n")
        down = parse_model("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=-1\n")
        plus = oracle.estimate_objective(up, (), LIMINF_PLUS_INF, 50, 10_000, 1_000, RANDOM_SEED + 2, "s")
        minus = oracle.estimate_objective(down, (), LIMINF_MINUS_INF, 50, 10_000, 1_000, RANDOM_SEED + 3, "s")
        assert plus >= Fraction(99, 100)
        assert minus >= Fraction(99, 100)


def test_criterion_9_witness_certificates(grid_games, solutions):
    with criterion(9, "fixing each witness and best-responding reproduces the values"):
        sample = list(range(0, len(grid_games), 9))
        for index in sample:
            game = grid_games[index]
            for objective in LIMIT_OBJECTIVES:
                solve, _ = solutions(index, objective)
                against_min = ssg.best_response(game, solve.min_witness, objective)
                assert against_min.values == solve.result.values, (index, objective.kind)
                against_max = ssg.best_response(game, solve.max_witness, objective)
                assert against_max.values == solve.result.values, (index, objective.kind)
