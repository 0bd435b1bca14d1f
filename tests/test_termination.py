import random
from fractions import Fraction
from pathlib import Path

import pytest

from ocsg import mdp, ssg, termination
from ocsg.model import (
    LIMINF_MINUS_INF,
    OcSsg,
    PureMemorylessStrategy,
    State,
    Transition,
    fix_strategies,
    oc_to_reward_ssg,
    parse_model,
)

from grids import random_games


def _as_ocssg(game):
    """Reward game (on states) -> counter game with arrival deltas."""
    states = []
    for s in game.states:
        transitions = tuple(
            Transition(t.target, prob=t.prob, delta=game.state(t.target).reward) for t in s.transitions
        )
        states.append(State(s.id, s.owner, transitions=transitions))
    return OcSsg(tuple(states))


# -- level game construction --------------------------------------------------


def test_level_game_counts_two_states():
    base = oc_to_reward_ssg(
        parse_model(
            "ocssg\nstate a owner=rand\nstate b owner=rand\n"
            "trans a -> b p=1/1 delta=1\ntrans b -> a p=1/1 delta=-1\n"
        )
    )
    level = termination.build_level_game(base, 1, frozenset())
    assert len(level.game.states) == 6
    levels = {level.to_base[s.id][1] for s in level.game.states}
    assert levels == {-1, 0, 1}


def test_level_game_counts_appendix(five_state_game):
    base = oc_to_reward_ssg(five_state_game)
    level = termination.build_level_game(base, 1, frozenset())
    assert len(level.game.states) == 30


def test_level_game_value_one_rows_are_targets(five_state_game):
    base = oc_to_reward_ssg(five_state_game)
    level = termination.build_level_game(base, 1, frozenset({"down"}))
    for i in range(-1, 5):
        assert termination._level_id("down", i) in level.targets
    assert termination._level_id("up", 0) not in level.targets
    assert termination._level_id("up", -1) in level.targets


def test_level_game_rejects_large_j(five_state_game):
    base = oc_to_reward_ssg(five_state_game)
    with pytest.raises(ValueError):
        termination.build_level_game(base, 5, frozenset())


def test_level_game_boundary_absorbing(five_state_game):
    base = oc_to_reward_ssg(five_state_game)
    level = termination.build_level_game(base, 1, frozenset())
    top = level.game.state(termination._level_id("v", 4))
    assert len(top.transitions) == 1 and top.transitions[0].target == top.id


# -- qualitative decisions -----------------------------------------------------


def test_term_one_fair_walk(fair_walk):
    assert termination.decide_term_one(fair_walk, "s", 1).value_one is True


def test_term_one_always_increment():
    game = parse_model("ocssg\nstate s owner=rand\ntrans s -> s p=1/1 delta=1\n")
    assert termination.decide_term_one(game, "s", 1).value_one is False
    assert termination.decide_term_zero(game, "s", 1) is True


def test_term_one_appendix_all_j(five_state_game):
    for j in (1, 2, 3, 4, 5, 7):
        assert termination.decide_term_one(five_state_game, "v", j).value_one is False, j


def test_term_decision_branches(five_state_game):
    assert termination.decide_term_one(five_state_game, "v", 2).branch == "level"
    assert termination.decide_term_one(five_state_game, "v", 5).branch == "limit"


def test_term_zero_fair_walk(fair_walk):
    assert termination.decide_term_zero(fair_walk, "s", 1) is False


def test_term_zero_min_picks_up_loop():
    game = parse_model(
        "ocssg\nstate m owner=min\nstate d owner=min\nstate u owner=min\n"
        "trans m -> d delta=0\ntrans m -> u delta=0\n"
        "trans d -> d delta=-1\ntrans u -> u delta=1\n"
    )
    assert termination.decide_term_zero(game, "m", 1) is True
    assert termination.decide_term_one(game, "m", 1).value_one is False


def test_zero_and_one_never_both():
    rng = random.Random(6)
    for game in random_games(20, sizes=(3, 4), seed=55):
        counter = _as_ocssg(game)
        start = rng.choice(counter.ids())
        for j in (1, 2, len(counter.states)):
            one = termination.decide_term_one(counter, start, j).value_one
            zero = termination.decide_term_zero(counter, start, j)
            assert not (one and zero)


def test_limit_branch_agrees_with_widened_level_branch():
    for game in random_games(15, sizes=(3,), seed=66):
        counter = _as_ocssg(game)
        j = len(counter.states)
        rewards = oc_to_reward_ssg(counter)
        w = ssg.solve_limit_ssg(rewards, LIMINF_MINUS_INF).result.value_one_set
        level = termination.build_level_game(rewards, j, w, hi=len(counter.states))
        asr = mdp.almost_sure_reach(level.game, level.targets)
        for start in counter.ids():
            direct = termination.decide_term_one(counter, start, j)
            assert direct.branch == "limit"
            widened = termination._level_id(start, 0) in asr.winning
            assert direct.value_one == widened, start


def test_truncated_termination_monotone_in_j():
    # Exact finite-horizon DP: the probability of hitting -j within the
    # horizon never increases with j (unit deltas cannot skip levels).
    def truncated(chain, start, j, horizon):
        dist = {(start, 0): Fraction(1)}
        hit = Fraction(0)
        for _ in range(horizon):
            nxt = {}
            for (sid, total), mass in dist.items():
                for t in chain.state(sid).transitions:
                    new_total = total + t.delta
                    weight = mass * t.prob
                    if new_total == -j:
                        hit += weight
                    else:
                        key = (t.target, new_total)
                        nxt[key] = nxt.get(key, Fraction(0)) + weight
            dist = nxt
        return hit

    rng = random.Random(8)
    for game in random_games(8, sizes=(3,), seed=77):
        counter = _as_ocssg(game)
        chain = fix_strategies(
            counter,
            PureMemorylessStrategy("max", {sid: 0 for sid in counter.owner_ids("max")}),
            PureMemorylessStrategy("min", {sid: 0 for sid in counter.owner_ids("min")}),
        )
        start = rng.choice(chain.ids())
        values = [truncated(chain, start, j, 24) for j in (1, 2, 3)]
        assert values[0] >= values[1] >= values[2]


# -- strategy synthesis --------------------------------------------------------


def test_synthesize_rejects_unknown_start(fair_walk):
    for j in (1, 2):
        with pytest.raises(ValueError, match="unknown state"):
            termination.synthesize_term_strategies(fair_walk, "nowhere", j)


def test_synthesize_fair_walk_trivial(fair_walk):
    sigma, pi = termination.synthesize_term_strategies(fair_walk, "s", 1)
    assert pi is None
    assert sigma.choice == {}


def test_synthesize_max_commits_to_down_branch():
    game = parse_model(
        "ocssg\nstate m owner=max\nstate p owner=rand\nstate n owner=rand\n"
        "trans m -> p delta=0\ntrans m -> n delta=0\n"
        "trans p -> p p=1/1 delta=1\ntrans n -> n p=1/1 delta=-1\n"
    )
    assert termination.decide_term_one(game, "m", 1).value_one is True
    sigma, pi = termination.synthesize_term_strategies(game, "m", 1)
    assert pi is None
    assert sigma.choice["m"] == 1
    residual = fix_strategies(game, max_strategy=sigma)
    assert termination.decide_term_one(residual, "m", 1).value_one is True


def test_synthesize_max_witness_survives_best_response():
    for game in random_games(12, sizes=(3,), seed=88):
        counter = _as_ocssg(game)
        for start in counter.ids():
            for j in (1, 2):
                decision = termination.decide_term_one(counter, start, j)
                sigma, pi = termination.synthesize_term_strategies(counter, start, j)
                if decision.value_one:
                    assert sigma is not None and pi is None
                    residual = fix_strategies(counter, max_strategy=sigma)
                    assert termination.decide_term_one(residual, start, j).value_one
                else:
                    assert pi is not None and sigma is None
                    product, pstart = termination.product_with_strategy(counter, pi, start)
                    assert not termination.decide_term_one(product, pstart, j).value_one


def test_synthesize_handles_state_entered_only_at_bottom_level():
    # c is reached exactly when the sum hits -1, so its only level copy is
    # the terminal boundary; the collapsed Max strategy must still come out.
    game = parse_model(
        "ocssg\nstate a owner=max\nstate b owner=min\nstate c owner=max\n"
        "trans a -> c delta=-1\ntrans a -> b delta=-1\n"
        "trans b -> b delta=0\ntrans b -> c delta=-1\ntrans c -> b delta=0\n"
    )
    assert termination.decide_term_one(game, "a", 1).value_one is True
    sigma, pi = termination.synthesize_term_strategies(game, "a", 1)
    assert pi is None
    residual = fix_strategies(game, max_strategy=sigma)
    assert termination.decide_term_one(residual, "a", 1).value_one is True


def test_appendix_min_needs_memory(five_state_game):
    # Both memoryless Min strategies terminate surely for the right j, yet
    # the synthesized finite-memory witness keeps the value below 1.
    always_back = fix_strategies(five_state_game, min_strategy=PureMemorylessStrategy("min", {"v": 0}))
    always_low = fix_strategies(five_state_game, min_strategy=PureMemorylessStrategy("min", {"v": 1}))
    assert termination.decide_term_one(always_low, "v", 1).value_one is True
    for j in (1, 2, 3, 5):
        assert termination.decide_term_one(always_back, "v", j).value_one is True

    for j in (1, 2, 3):
        sigma, pi = termination.synthesize_term_strategies(five_state_game, "v", j)
        assert sigma is None
        assert pi.memory_size <= 5
        product, pstart = termination.product_with_strategy(five_state_game, pi, "v")
        assert not termination.decide_term_one(product, pstart, j).value_one


def test_min_witness_memory_bound():
    for game in random_games(10, sizes=(4,), seed=101):
        counter = _as_ocssg(game)
        start = counter.ids()[0]
        for j in (1, 2, 3):
            decision = termination.decide_term_one(counter, start, j)
            if decision.value_one:
                continue
            _, pi = termination.synthesize_term_strategies(counter, start, j)
            assert pi.memory_size <= len(counter.states)


def test_dense_counter_n24_terminates_with_value_one():
    # bench/families.py dense_counter(24, 7, None): the dense instance of
    # test_ssg read as a counter game.
    game = parse_model((Path(__file__).parent / "data" / "dcounter-n24-f7.ocssg").read_text())
    assert termination.decide_term_one(game, "s0", 2).value_one
