"""The linear-time kernels against the slower forms they replaced.

``sweep_attractor`` and ``sweep_energy`` visit every state per pass until a
pass changes nothing; they are the reference forms of ``chain.attractor``
and ``mdp.energy_min_credit``.  ``reference_normalization`` (reachability
policy iteration) and ``reference_mec_consistent`` (a second potential BFS)
are the reference forms of the normalization check in ``reduce`` and of
``chain.potential`` on end-component edges.
"""

import math
import random

import pytest

from ocsg import chain, mdp, reduce
from ocsg.model import (
    OcSsg,
    State,
    Transition,
    oc_to_reward_ssg,
    relabel_controlled,
    state_to_transition_rewards,
)

from grids import as_mdp, exhaustive_games, random_game, random_games

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


def reference_normalization(game, t, t_prime):
    worst = mdp.solve_reachability(relabel_controlled(game, "max"), {t, t_prime}, "min")
    offenders = sorted(sid for sid, v in worst.values.items() if v != 1)
    if offenders:
        raise reduce.NormalizationError(
            f"players can avoid {{t, t'}} from {offenders}: reachability is not almost sure"
        )


def _outcome(check, game, t, t_prime):
    try:
        check(game, t, t_prime)
    except reduce.NormalizationError as exc:
        return str(exc)
    return None


def test_normalization_matches_policy_iteration():
    rng = random.Random(1992)
    rejected = 0
    for _ in range(3000):
        game = random_game(rng, rng.randint(3, 6), rng.choice(("states", "transitions")))
        t, t_prime = rng.sample(game.ids(), 2)
        routed = reduce._route_dead_sinks(game, t, t_prime)
        expected = _outcome(reference_normalization, routed, t, t_prime)
        assert _outcome(reduce._check_normalized, routed, t, t_prime) == expected, (routed, t, t_prime)
        rejected += expected is not None
    assert rejected >= 1000


def reference_mec_consistent(game, mec):
    view = state_to_transition_rewards(game) if game.reward_location == "states" else game
    anchor = min(mec.members)
    level = {anchor: 0}
    queue = [anchor]
    edges = []
    while queue:
        uid = queue.pop()
        s = view.state(uid)
        for k in mec.allowed[uid]:
            t = s.transitions[k]
            edges.append((uid, t))
            if t.target not in level:
                level[t.target] = level[uid] + t.reward
                queue.append(t.target)
    return all(level[t.target] - level[uid] == t.reward for uid, t in edges)


@pytest.mark.parametrize("reward_location", ["states", "transitions"])
def test_potential_matches_mec_bfs(reward_location):
    games = random_games(300, sizes=(3, 5, 8), seed=2010, reward_location=reward_location)
    if reward_location == "states":
        games += exhaustive_games()
    seen = {True: 0, False: 0}
    for game in games:
        game = as_mdp(game)
        for mec in mdp.mec_decompose(game):
            consistent = reference_mec_consistent(game, mec)
            h = chain.potential(game, mec.members, mec.allowed)
            assert (h is not None) == consistent, (game, mec)
            seen[consistent] += 1
            if h is not None:
                assert set(h) == mec.members
    assert min(seen.values()) >= 100
