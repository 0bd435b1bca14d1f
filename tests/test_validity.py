"""Games the program builds from a valid game are valid without a re-check.

``condon_to_limit``, ``condon_to_termination``, ``product_with_strategy``
and ``fix_strategies`` do not validate what they build, nor does any solver
that receives it, and a game's violations are computed once and cached;
these tests hold the builders to that.  The reference level game of
``grids.build_level_game`` and the relabelled games of
``grids.relabel_controlled`` are held to it too, since the tests solve
them.
"""

import pytest

from ocsg import certify, termination
from ocsg.model import (
    FiniteMemoryStrategy,
    ModelSemanticError,
    PureMemorylessStrategy,
    Ssg,
    State,
    Transition,
    check_valid,
    fix_strategies,
    validate,
)
from ocsg.reduce import condon_to_limit, condon_to_termination

from grids import arrival_counter_view, build_level_game, exhaustive_games, oc_to_reward_ssg, random_games, random_reach_instances
from grids import relabel_controlled


def test_level_games_of_grid_counter_games_are_valid():
    games = exhaustive_games(3) + random_games(200, sizes=(4, 5), seed=987654321)
    built = 0
    for game in games:
        rewards = oc_to_reward_ssg(arrival_counter_view(game))
        assert validate(rewards) == []
        w = frozenset(rewards.ids()[:1])
        for j in range(1, len(rewards.states)):
            level = build_level_game(rewards, j, w)
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
    for game in [arrival_counter_view(g) for g in random_games(12, sizes=(3, 4), seed=88)] + [five_state_game]:
        for start in game.ids():
            for j in (1, 2, len(game.states)):
                sigma, pi = termination.synthesize_term_strategies(game, start, j)
                strategy = pi
                if pi is None:  # memoryless: one band per state, lo = hi
                    strategy = FiniteMemoryStrategy("max", 0, 0, 0, {}, {sid: ((0, k),) for sid, k in sigma.choice.items()})
                product, pstart = certify.product_with_strategy(game, strategy, start)
                assert validate(product) == [] and pstart in product.index.pos
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


def test_collapses_and_relabellings_of_valid_games_are_valid():
    # Nothing re-checks what fix_strategies and relabel_controlled build from
    # a valid game, so what they build must be valid.
    checked = 0
    for game in exhaustive_games(3) + random_games(100, sizes=(4, 5), seed=31):
        check_valid(game)
        first = {owner: PureMemorylessStrategy(owner, {sid: 0 for sid in game.owner_ids(owner)}) for owner in ("max", "min")}
        for derived in (
            fix_strategies(game, first["max"]),
            fix_strategies(game, min_strategy=first["min"]),
            relabel_controlled(game, "max"),
            relabel_controlled(game, "min"),
        ):
            assert validate(derived) == []
            checked += 1
    assert checked > 1000


def test_relabelling_an_invalid_game_is_still_rejected():
    game = Ssg((
        State("a", "max", reward=0, transitions=(Transition("b"),)),
        State("b", "rand", reward=2, transitions=(Transition("a", prob=1),)),
    ))
    for cached in (False, True):
        if cached:
            with pytest.raises(ModelSemanticError):
                check_valid(game)
        for derived in (relabel_controlled(game, "max"), fix_strategies(game, PureMemorylessStrategy("max", {"a": 0}))):
            with pytest.raises(ModelSemanticError, match="state reward 2"):
                check_valid(derived)
