"""Games the program builds from a valid game are valid without a re-check.

``build_level_game``, ``condon_to_limit``, ``condon_to_termination`` and
``product_with_strategy`` do not validate what they build, and a game's
violations are computed once and cached; these tests hold the builders to
that.
"""

import pytest

from ocsg import termination
from ocsg.model import ModelSemanticError, OcSsg, Ssg, State, Transition, check_valid, oc_to_reward_ssg, validate
from ocsg.reduce import condon_to_limit, condon_to_termination

from grids import exhaustive_games, random_games, random_reach_instances


def _arrival_counter_view(game):
    return OcSsg(
        tuple(
            State(s.id, s.owner, transitions=tuple(
                Transition(t.target, prob=t.prob, delta=game.state(t.target).reward) for t in s.transitions
            ))
            for s in game.states
        )
    )


def test_level_games_of_grid_counter_games_are_valid():
    games = exhaustive_games(3) + random_games(200, sizes=(4, 5), seed=987654321)
    built = 0
    for game in games:
        rewards = oc_to_reward_ssg(_arrival_counter_view(game))
        assert validate(rewards) == []
        w = frozenset(rewards.ids()[:1])
        for j in range(1, len(rewards.states)):
            level = termination.build_level_game(rewards, j, w)
            assert validate(level.game) == [], (game, j)
            built += 1
    assert built > 1000


@pytest.mark.parametrize("seed", [987654321, 456])
def test_condon_outputs_are_valid(seed):
    for game, s, t, u in random_reach_instances(100, seed=seed):
        assert validate(condon_to_limit(game, s, t, u)) == []
        counter, _, _ = condon_to_termination(game, s, t, u)
        assert validate(counter) == []


def test_strategy_products_are_valid(five_state_game):
    products = 0
    for game in [_arrival_counter_view(g) for g in random_games(12, sizes=(3, 4), seed=88)] + [five_state_game]:
        for start in game.ids():
            for j in (1, 2, len(game.states)):
                sigma, pi = termination.synthesize_term_strategies(game, start, j)
                strategy = pi if pi is not None else termination._memoryless_as_finite(sigma)
                product, pstart = termination.product_with_strategy(game, strategy, start)
                assert validate(product) == [] and pstart in product.by_id
                products += 1
    assert products > 100


def test_check_valid_raises_on_every_call():
    game = Ssg((State("a", "max", reward=0), State("b", "rand", reward=2, transitions=(Transition("a"),))))
    expected = validate(game)
    assert expected
    for _ in range(3):
        with pytest.raises(ModelSemanticError) as err:
            check_valid(game)
        assert str(err.value) == "; ".join(expected)
