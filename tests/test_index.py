"""Indexes derived from one game's index against the games they replace.

A best response solves on ``Index.fixed`` of the game's index, every
policy chain reads ``Index.steps``, and a best response's MECs run in
place on that index; ``grids.restricted``, a MEC's sub-index, is
the reference the in-place MEC policy iteration is checked against.
``mdp._mecs`` decomposes on ints and ``mdp._reach`` runs reachability
rounds on the index's columns.  Each is checked against the game-level
form it replaced: ``fix_strategies``, ``grids.restrict_to_mec``,
``grids.reference_mec_decompose`` and ``grids.reference_solve_reachability``,
on random one-player games, seeded dense games and random node and edge
restrictions.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ocsg import mdp, ssg
from ocsg.model import (
    LIMIT_OBJECTIVES,
    OcSsg,
    PureMemorylessStrategy,
    State,
    Transition,
    fix_strategies,
    parse_model,
)

from grids import (
    bench_families,
    named_mec,
    per_visit_reward,
    random_game,
    reference_mec_decompose,
    reference_solve_reachability,
    relabel_controlled,
    restrict_to_mec,
    restricted,
    step_reward,
)

LOCATIONS = st.sampled_from(("states", "transitions"))


def _random(seed, n, location):
    return random_game(random.Random(seed), n, location)


def _dense(n, fseed):
    return parse_model(bench_families().dense(n, fseed, None))


def _content(index):
    return index.ids, index.pos, index.owner, index.succ, index.prob, index.weight, index.visit_reward


def _games():
    """Random games of 1-9 states and seeded dense games, n <= 40."""
    small = st.builds(_random, st.integers(0, 10**6), st.integers(1, 9), LOCATIONS)
    dense = st.builds(_dense, st.sampled_from((8, 12, 16, 24, 32, 40)), st.integers(1, 40))
    return st.one_of(small, small, dense)


def _counter_view(game):
    """The game with each step's weight as its counter delta."""
    states = []
    for s in game.states:
        steps = tuple(Transition(t.target, prob=t.prob, delta=step_reward(game, s, t)) for t in s.transitions)
        states.append(State(s.id, s.owner, transitions=steps))
    return OcSsg(tuple(states))


@settings(max_examples=150, deadline=None)
@given(_games(), st.booleans())
def test_index_columns_follow_step_reward(game, counter):
    # The index reads weights a column at a time and sums a rand step's
    # expected weight in integers: the same numbers as ``step_reward`` and
    # a ``Fraction`` sum, an int on a one-edge node and None at a
    # controlled node.
    if counter:
        game = _counter_view(game)
    index = game.index
    assert index.weight == tuple(tuple(step_reward(game, s, t) for t in s.transitions) for s in game.states)
    for s, reward in zip(game.states, index.visit_reward):
        if s.owner != "rand":
            assert reward is None
        else:
            assert reward == per_visit_reward(game, s)
            assert type(reward) is (int if len(s.transitions) == 1 else Fraction)


@settings(max_examples=150, deadline=None)
@given(_games(), st.randoms(use_true_random=False))
def test_fixed_index_is_the_residual_games_index(game, rng):
    # One player fixed leaves a one-player residual, both a chain; either
    # way ``Index.steps`` gives the residual's step columns, and ``fixed``
    # is those steps with the fixed nodes relabelled rand.
    strategies = {
        player: PureMemorylessStrategy(
            player, {sid: rng.randrange(len(game.state(sid).transitions)) for sid in game.owner_ids(player)}
        )
        for player in ("max", "min")
    }
    for players in (("max",), ("min",), ("max", "min")):
        residual = fix_strategies(game, *(strategies[player] for player in players))
        nodes = {game.index.pos[sid]: k for player in players for sid, k in strategies[player].choice.items()}
        assert _content(game.index.fixed(nodes)) == _content(residual.index)
        columns = (residual.index.succ, residual.index.prob, residual.index.weight, residual.index.visit_reward)
        assert game.index.steps(nodes) == tuple(map(list, columns))
        assert residual.is_chain() or len(players) == 1


@settings(max_examples=150, deadline=None)
@given(_games(), st.sampled_from(("max", "min")))
def test_restricted_index_is_the_mec_games_index(game, owner):
    game = relabel_controlled(game, owner)
    index = game.index
    for mec in mdp._mecs(index):
        sub, _ = restrict_to_mec(game, named_mec(index, mec))
        assert _content(restricted(index, sorted(mec.members), mec.allowed)) == _content(sub.index)


def _restriction(game, rng):
    """A random start set and a random nonempty set of allowed edges per
    state, each in edge order."""
    within = {sid for sid in game.ids() if rng.random() < 0.8}
    allowed = {}
    for s in game.states:
        edges = [k for k in range(len(s.transitions)) if rng.random() < 0.7]
        allowed[s.id] = tuple(edges or [rng.randrange(len(s.transitions))])
    return within, allowed


@settings(max_examples=300, deadline=None)
@given(_games(), st.sampled_from(("max", "min")), st.randoms(use_true_random=False))
def test_int_mecs_match_the_iterated_attractor(game, owner, rng):
    game = relabel_controlled(game, owner)
    index = game.index
    assert mdp.mec_decompose(game) == reference_mec_decompose(game)

    within, allowed = _restriction(game, rng)
    assert mdp.mec_decompose(game, within) == reference_mec_decompose(game, within)
    # With allowed edges: the reference decomposes the game that keeps only
    # them, and its edges map back to the game's.
    kept, index_map = restrict_to_mec(game, mdp.Mec(frozenset(game.ids()), allowed))
    expected = [
        mdp.Mec(mec.members, {sid: tuple(index_map[sid][k] for k in edges) for sid, edges in mec.allowed.items()})
        for mec in reference_mec_decompose(kept, within)
    ]
    nodes = {index.pos[sid] for sid in within}
    by_node = {index.pos[sid]: edges for sid, edges in allowed.items()}
    assert [named_mec(index, mec) for mec in mdp._mecs(index, nodes, by_node)] == expected


@settings(max_examples=200, deadline=None)
@given(_games(), st.sampled_from(("max", "min")), st.randoms(use_true_random=False))
def test_int_mecs_leave_out_nodes_with_no_allowed_edge(game, owner, rng):
    # A node whose allowed edges are none is in no end component: the MECs
    # on a start set are those on the set without such nodes, and the
    # reference's there.
    game = relabel_controlled(game, owner)
    index = game.index
    within, allowed = _restriction(game, rng)
    bare = {sid for sid in within if rng.random() < 0.3}
    kept, index_map = restrict_to_mec(game, mdp.Mec(frozenset(game.ids()), allowed))
    expected = [
        mdp.Mec(mec.members, {sid: tuple(index_map[sid][k] for k in edges) for sid, edges in mec.allowed.items()})
        for mec in reference_mec_decompose(kept, within - bare)
    ]
    nodes = {index.pos[sid] for sid in within}
    by_node = {index.pos[sid]: () if sid in bare else edges for sid, edges in allowed.items()}
    found = mdp._mecs(index, nodes, by_node)
    assert found == mdp._mecs(index, nodes - {index.pos[sid] for sid in bare}, by_node)
    assert [named_mec(index, mec) for mec in found] == expected


@settings(max_examples=200, deadline=None)
@given(_games(), st.sampled_from(("max", "min")), st.randoms(use_true_random=False))
def test_int_reachability_matches_per_round_chains(game, owner, rng):
    game = relabel_controlled(game, owner)
    targets = {sid for sid in game.ids() if rng.random() < 0.3}
    for direction in ("max", "min"):
        result = mdp.solve_reachability(game, targets, direction)
        values, witness = reference_solve_reachability(game, targets, direction)
        assert result.values == values
        assert (result.witness_max or result.witness_min) == witness
        assert witness.player == owner or not game.controlled_ids()


@settings(max_examples=60, deadline=None)
@given(_games(), st.sampled_from(LIMIT_OBJECTIVES), st.randoms(use_true_random=False))
def test_best_response_matches_the_residual_game(game, objective, rng):
    # The best response on the derived residual index gives the values and
    # witnesses of the one-player solve of the residual game.
    for player, direction in (("min", "max"), ("max", "min")):
        choice = {sid: rng.randrange(len(game.state(sid).transitions)) for sid in game.owner_ids(player)}
        fixed = PureMemorylessStrategy(player, choice)
        residual = fix_strategies(game, fixed)
        expected = mdp.quantitative_limit(residual, objective, direction)
        assert ssg.best_response(game, fixed, objective) == expected
