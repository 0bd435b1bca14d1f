"""The worklist kernels against the re-sweep fixpoints they replaced.

``sweep_attractor`` and ``sweep_energy`` visit every state per pass until a
pass changes nothing; they are the reference forms of ``chain.attractor``
and ``mdp.energy_min_credit``.
"""

import math
import random

from ocsg import chain, mdp
from ocsg.model import OcSsg, State, Transition, oc_to_reward_ssg, state_to_transition_rewards

from grids import exhaustive_games, random_games

SIDES = (("max", "rand"), ("min", "rand"), ("rand",))


def sweep_attractor(game, seeds, any_owners, within=None, allowed=None):
    region = set(game.ids()) if within is None else set(within)
    attracted = set(seeds)
    changed = True
    while changed:
        changed = False
        for sid in game.ids():
            if sid in attracted or sid not in region:
                continue
            s = game.state(sid)
            indices = allowed[sid] if allowed is not None else range(len(s.transitions))
            hits = [s.transitions[k].target in attracted for k in indices]
            if any(hits) if s.owner in any_owners else (hits and all(hits)):
                attracted.add(sid)
                changed = True
    return attracted


def sweep_energy(game, keeper):
    if isinstance(game, OcSsg):
        view = oc_to_reward_ssg(game)
    elif game.reward_location == "states":
        view = state_to_transition_rewards(game)
    else:
        view = game
    cutoff = len(view.states)
    credit = {sid: 0 for sid in view.ids()}

    def lift_edge(t):
        need = credit[t.target] - t.reward
        return math.inf if need > cutoff else max(0, need)

    changed = True
    while changed:
        changed = False
        for s in view.states:
            demands = [lift_edge(t) for t in s.transitions]
            candidate = min(demands) if s.owner == keeper else max(demands)
            if candidate > credit[s.id]:
                credit[s.id] = candidate
                changed = True
    return credit


def _random_query(rng, game):
    ids = game.ids()
    seeds = {sid for sid in ids if rng.random() < 0.3}
    within = None
    if rng.random() < 0.5:
        within = seeds | {sid for sid in ids if rng.random() < 0.7}
    allowed = None
    if rng.random() < 0.5:
        allowed = {
            s.id: [k for k in range(len(s.transitions)) if rng.random() < 0.7] for s in game.states
        }
    return seeds, within, allowed


def _check_attractor(game, seeds, sides, within, allowed):
    won, choice = chain.attractor(game, seeds, sides, within, allowed)
    assert won == sweep_attractor(game, seeds, sides, within, allowed)
    pulled = {sid for sid in won - set(seeds) if game.state(sid).owner in sides and game.state(sid).owner != "rand"}
    assert set(choice) == pulled
    for sid, k in choice.items():
        assert allowed is None or k in allowed[sid]
        assert game.state(sid).transitions[k].target in won
    # Every choice edge leads to a state that joined earlier: the same set is
    # attracted when controlled states may use only their recorded edge.
    only_choice = {
        s.id: [choice[s.id]] if s.id in choice else (allowed[s.id] if allowed is not None else range(len(s.transitions)))
        for s in game.states
    }
    assert sweep_attractor(game, seeds, sides, within, only_choice) == won


def test_attractor_matches_sweep_on_exhaustive_grid():
    rng = random.Random(1998)
    for game in exhaustive_games():
        for sides in SIDES:
            seeds, within, allowed = _random_query(rng, game)
            _check_attractor(game, seeds, sides, within, allowed)


def test_attractor_matches_sweep_on_random_games():
    rng = random.Random(2011)
    games = random_games(150, sizes=(4, 6, 9, 12), seed=77)
    games += random_games(50, sizes=(6, 12), seed=78, reward_location="transitions")
    for game in games:
        for sides in SIDES:
            for _ in range(4):
                seeds, within, allowed = _random_query(rng, game)
                _check_attractor(game, seeds, sides, within, allowed)


def _counter_game(game):
    return OcSsg(
        tuple(
            State(s.id, s.owner, transitions=tuple(Transition(t.target, prob=t.prob, delta=t.reward) for t in s.transitions))
            for s in game.states
        )
    )


def test_energy_credit_matches_sweep():
    games = [_counter_game(g) for g in random_games(120, sizes=(4, 6, 10), seed=31, reward_location="transitions")]
    games += random_games(120, sizes=(4, 6, 10), seed=32, reward_location="states")
    for game in games:
        for keeper in ("max", "min"):
            assert mdp.energy_min_credit(game, keeper) == sweep_energy(game, keeper)
