import itertools
import operator
from fractions import Fraction
from pathlib import Path

import pytest

from ocsg import certify, linsolve, mdp, model, oracle, ssg, termination
from ocsg import chain as chain_mod
from ocsg.model import (
    LIMINF_GT_MINUS_INF,
    LIMINF_MINUS_INF,
    LIMINF_PLUS_INF,
    LIMIT_OBJECTIVES,
    MEAN_GT,
    Objective,
    PureMemorylessStrategy,
    SolveResult,
    Ssg,
    State,
    Transition,
    fix_strategies,
    parse_model,
    relabel_controlled,
)
from ocsg.reduce import condon_to_limit

from grids import bench_families, exhaustive_games, oc_to_reward_ssg, random_games

FAIR_COIN_CONDON = parse_model(
    "ssg rewards=states\n"
    "state s owner=rand reward=0\nstate t owner=rand reward=0\nstate u owner=rand reward=0\n"
    "trans s -> t p=1/2\ntrans s -> u p=1/2\ntrans t -> t p=1/1\ntrans u -> u p=1/1\n"
)


def test_best_response_on_player_free_game_is_mdp_solve():
    game = parse_model(
        "ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=-1\n"
    )
    result = ssg.best_response(game, PureMemorylessStrategy("min", {}), LIMINF_MINUS_INF)
    assert result.values == {"s": 1}


def test_best_response_appendix_min_back(five_state_game):
    game = oc_to_reward_ssg(five_state_game)
    fixed = PureMemorylessStrategy("min", {"v": 0})  # v -> back
    result = ssg.best_response(game, fixed, LIMINF_MINUS_INF)
    assert result.values["v"] == 1


def test_best_response_round_trip_stabilises_on_two_state_games():
    for game in random_games(20, sizes=(2,), seed=246):
        if not game.owner_ids("min"):
            continue
        pi0 = PureMemorylessStrategy("min", {sid: 0 for sid in game.owner_ids("min")})
        r1 = ssg.best_response(game, pi0, LIMINF_MINUS_INF)
        sigma = r1.witness_max or PureMemorylessStrategy("max", {})
        r2 = ssg.best_response(game, sigma, LIMINF_MINUS_INF)
        pi1 = r2.witness_min or pi0
        r3 = ssg.best_response(game, pi1, LIMINF_MINUS_INF)
        sigma2 = r3.witness_max or sigma
        r4 = ssg.best_response(game, sigma2, LIMINF_MINUS_INF)
        assert r4.values == r3.values


def test_player_free_game_equals_chain_tail_value():
    game = parse_model(
        "ssg rewards=transitions\nstate a owner=rand\nstate b owner=rand\n"
        "trans a -> b p=1/2 reward=1\ntrans a -> a p=1/2 reward=-1\ntrans b -> b p=1/1 reward=-1\n"
    )
    solve = ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
    assert solve.result.values == certify.chain_tail_value(game, LIMINF_MINUS_INF)


def test_condon_fair_coin_limit_values():
    reduced = condon_to_limit(FAIR_COIN_CONDON, "s", "t", "u")
    minus = ssg.solve_limit_ssg(reduced, LIMINF_MINUS_INF).result.values["s"]
    plus = ssg.solve_limit_ssg(reduced, LIMINF_PLUS_INF).result.values["s"]
    assert minus == 1  # reach-t value 1/2 >= 1/2
    assert plus == 0  # reach-t' value 1/2 is not > 1/2


def test_solve_matches_oracle_with_mixed_owners():
    for game in random_games(40, sizes=(3, 4), seed=10101):
        for objective in LIMIT_OBJECTIVES:
            solve = ssg.solve_limit_ssg(game, objective)
            reference = oracle.enumerate_solve(game, objective)
            assert solve.result.values == reference.values, objective.kind


def test_mutual_best_response_certificate():
    for game in random_games(10, sizes=(3,), seed=20202):
        for objective in (LIMINF_MINUS_INF, MEAN_GT):
            solve = ssg.solve_limit_ssg(game, objective)
            against_min = ssg.best_response(game, solve.result.witness_min, objective)
            against_max = ssg.best_response(game, solve.result.witness_max, objective)
            assert against_min.values == solve.result.values
            assert against_max.values == solve.result.values


def test_values_are_rational_in_unit_interval():
    for game in random_games(10, sizes=(4,), seed=30303):
        solve = ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
        for value in solve.result.values.values():
            assert isinstance(value, Fraction)
            assert 0 <= value <= 1


def _with_extra_edge(game, sid, target):
    states = []
    for s in game.states:
        if s.id != sid:
            states.append(s)
            continue
        states.append(State(s.id, s.owner, reward=s.reward, transitions=s.transitions + (Transition(target),)))
    return Ssg(tuple(states), reward_location=game.reward_location)


def test_edge_monotonicity():
    # Extra options help Max and hurt Min, never the other way around.
    for game in random_games(12, sizes=(3,), seed=40404):
        base = ssg.solve_limit_ssg(game, LIMINF_MINUS_INF).result.values
        for sid in game.controlled_ids():
            owner = game.state(sid).owner
            for target in game.ids():
                richer = _with_extra_edge(game, sid, target)
                values = ssg.solve_limit_ssg(richer, LIMINF_MINUS_INF).result.values
                for state_id in game.ids():
                    if owner == "max":
                        assert values[state_id] >= base[state_id]
                    else:
                        assert values[state_id] <= base[state_id]


def test_decide_threshold_edges():
    game = FAIR_COIN_CONDON
    reduced = condon_to_limit(game, "s", "t", "u")
    value = ssg.solve_limit_ssg(reduced, LIMINF_MINUS_INF).result.values["s"]
    assert ssg.threshold_holds(value, Fraction(0), ">=") is True
    assert ssg.threshold_holds(value, Fraction(1), ">") is False
    assert ssg.threshold_holds(value, Fraction(1, 2), ">") is True


def test_decide_threshold_validates_input():
    value = ssg.solve_limit_ssg(FAIR_COIN_CONDON, LIMINF_MINUS_INF).result.values["s"]
    with pytest.raises(ValueError):
        ssg.threshold_holds(value, Fraction(2), ">")
    with pytest.raises(ValueError):
        ssg.threshold_holds(value, Fraction(1, 2), "<")
    with pytest.raises(ValueError):
        ssg.check_threshold(Fraction(2), ">")
    with pytest.raises(ValueError):
        ssg.check_threshold(Fraction(1, 2), "<")


def _random_rough_game(rng, n):
    # Probabilities with ragged denominators, rewards on transitions.
    ids = [chr(ord("a") + i) for i in range(n)]
    states = []
    for sid in ids:
        owner = rng.choice(("max", "min", "rand"))
        width = rng.choice((1, 2, 3))
        targets = [rng.choice(ids) for _ in range(width)] if owner == "rand" else rng.sample(ids, min(width, n))
        if owner == "rand":
            weights = [rng.randint(1, 6) for _ in targets]
            total = sum(weights)
            probs = [Fraction(w, total) for w in weights]
        else:
            probs = [None] * len(targets)
        trans = tuple(
            Transition(t, prob=p, reward=rng.choice((-1, 0, 1))) for t, p in zip(targets, probs)
        )
        states.append(State(sid, owner, transitions=trans))
    return Ssg(tuple(states), reward_location="transitions")


def test_solve_matches_oracle_off_grid_probabilities():
    import random

    rng = random.Random(90210)
    for _ in range(25):
        game = _random_rough_game(rng, rng.choice((3, 4)))
        for objective in LIMIT_OBJECTIVES:
            solve = ssg.solve_limit_ssg(game, objective)
            reference = oracle.enumerate_solve(game, objective)
            assert solve.result.values == reference.values, objective.kind


# Min's single-switch descent stalls at a profile whose values no Max
# strategy guarantees; the next round, started from Min's best response to
# Max's ascended strategy, certifies the values.
UNCERTIFIED_IMPROVEMENT = parse_model(
    "ssg rewards=transitions\n"
    "state a owner=max\nstate b owner=min\nstate c owner=min\n"
    "trans a -> a reward=1\ntrans a -> c reward=-1\n"
    "trans b -> a reward=-1\ntrans b -> c reward=1\n"
    "trans c -> a reward=-1\ntrans c -> b reward=0\n"
)

# Positions in grids.exhaustive_games() where Min's first descent stalls.
STALLED_GRID_CASES = (
    (1731, LIMINF_GT_MINUS_INF),
    (1797, LIMINF_PLUS_INF),
    (1797, MEAN_GT),
    (1817, LIMINF_MINUS_INF),
    (2398, LIMINF_MINUS_INF),
)

DATA = Path(__file__).parent / "data"


def _dense_family():
    return bench_families().dense


def _assert_certified(game, solve, objective):
    assert ssg.best_response(game, solve.result.witness_min, objective).values == solve.result.values
    assert ssg.best_response(game, solve.result.witness_max, objective).values == solve.result.values


def test_alternation_certifies_where_one_descent_stalls():
    grid = exhaustive_games()
    cases = [(UNCERTIFIED_IMPROVEMENT, LIMINF_MINUS_INF)]
    cases += [(grid[position], objective) for position, objective in STALLED_GRID_CASES]
    cases += [(game, objective) for game in random_games(8, sizes=(3,), seed=50505) for objective in LIMIT_OBJECTIVES]
    for game, objective in cases:
        solve = ssg.solve_limit_ssg(game, objective)
        assert solve.method == "improvement"
        assert solve.result.values == oracle.enumerate_solve(game, objective).values, objective.kind
        _assert_certified(game, solve, objective)


def test_dense_n24_solves_with_certificate():
    # bench/families.py dense(24, 7, None): 8 Max, 10 Min and 6 rand states.
    game = parse_model((DATA / "dense-n24-f7.ssg").read_text())
    solve = ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
    assert set(solve.result.values.values()) == {1}
    _assert_certified(game, solve, LIMINF_MINUS_INF)


def test_dense_n32_solves_to_zero_with_certificate():
    # bench/families.py dense(32, 7, None): 10 Max, 13 Min and 9 rand states.
    # Min's first descent stalls at value 1 everywhere.
    game = parse_model((DATA / "dense-n32-f7.ssg").read_text())
    solve = ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
    assert set(solve.result.values.values()) == {0}
    _assert_certified(game, solve, LIMINF_MINUS_INF)


def test_dense_n32_evaluation_count(monkeypatch):
    # Each MEC's policy iteration stops at the first policy whose gain wins
    # at every state; run to optimality, the same solve evaluates 20 policies.
    game = parse_model((DATA / "dense-n32-f7.ssg").read_text())
    evaluations = []
    evaluate = mdp._PolicyEvaluation
    monkeypatch.setattr(mdp, "_PolicyEvaluation", lambda *args: evaluations.append(args) or evaluate(*args))
    ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
    assert len(evaluations) == 8


def test_dense_n32_linear_solve_counts(monkeypatch):
    # A round that stops reads only its closed-class means, and one that
    # switches on gain reads no bias; evaluating every round in full, the
    # same solve runs 22 factorizations.  Of the 14 new closed classes, the
    # 6 cycles are evaluated in closed form and each of the other 8 takes
    # one transposed solve for its mean and h; a solve serves each transient
    # gain or bias (8).  Every bias read is of a chain with one closed
    # class, which reads h, so no stationary law is solved.
    game = parse_model((DATA / "dense-n32-f7.ssg").read_text())
    counts = {"factor": 0, "solve": 0, "solve_transposed": 0}
    cycles = []
    closed_class = mdp._ClosedClass

    def spy_class(members, succ, *args):
        cycles.append(all(len(succ[v]) == 1 for v in members))
        return closed_class(members, succ, *args)
    factor, solve, solve_transposed = linsolve.factor, linsolve.Factorization.solve, linsolve.Factorization.solve_transposed

    def spy(name, call):
        def counted(*args):
            counts[name] += 1
            return call(*args)

        return counted

    monkeypatch.setattr(linsolve, "factor", spy("factor", factor))
    monkeypatch.setattr(linsolve.Factorization, "solve", spy("solve", solve))
    monkeypatch.setattr(linsolve.Factorization, "solve_transposed", spy("solve_transposed", solve_transposed))
    monkeypatch.setattr(mdp, "_ClosedClass", spy_class)
    ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
    assert (len(cycles), cycles.count(True)) == (14, 6)
    assert counts == {"factor": 12, "solve": 8, "solve_transposed": 8}


def _walk(key):
    """The types of every leaf of a nested tuple."""
    if type(key) is tuple:
        return set().union(*map(_walk, key)) if key else set()
    return {type(key)}


def _holds(value, kind, seen):
    """Whether ``value`` is a ``kind`` or holds one in its attributes,
    lists, tuples or dicts, searched depth first."""
    if isinstance(value, kind):
        return True
    if id(value) in seen:
        return False
    seen.add(id(value))
    if isinstance(value, dict):
        parts = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        parts = value
    else:
        parts = getattr(value, "__dict__", {}).values()
    return any(_holds(part, kind, seen) for part in parts)


def test_component_memo_keeps_no_factorization(monkeypatch):
    # A memoized class keeps its mean, h and potential verdict; the
    # factorization of its stationary system is dropped once h is solved.
    dense, memos = bench_families().dense, {}
    closed_classes = mdp._closed_classes

    def spy_classes(*args):
        memo = mdp.COMPONENT_MEMO.get()
        memos[id(memo)] = memo
        return closed_classes(*args)

    monkeypatch.setattr(mdp, "_closed_classes", spy_classes)
    for n in (16, 24, 32):
        for f in (1, 2, 3):
            game = parse_model(dense(n, f, None))
            for objective in LIMIT_OBJECTIVES:
                ssg.solve_limit_ssg(game, objective)
    classes = [closed for memo in memos.values() for closed in memo.values()]
    assert len(memos) == 9 * len(LIMIT_OBJECTIVES) and len(classes) > 100
    assert not any(_holds(closed, linsolve.Factorization, set()) for closed in classes)


def test_dense_n32_policy_iteration_builds_no_game(monkeypatch):
    # A solve compiles the game once: best responses, MECs and rounds read
    # indexes derived from its index, so no game is built.  The memo holds
    # closed classes only, each keyed on a tuple of ints.
    game = parse_model((DATA / "dense-n32-f7.ssg").read_text())
    index = relabel_controlled(game, "max").index
    calls, memos = [], {}

    def spy(name, call):
        def counted(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)

        return counted

    closed_classes, closed_class = mdp._closed_classes, mdp._ClosedClass

    def spy_classes(*args):
        memo = mdp.COMPONENT_MEMO.get()
        memos[id(memo)] = memo
        return closed_classes(*args)

    systems, cycles = [], []

    def spy_class(members, succ, *args):
        calls.append("closed class")
        cycles.append(all(len(succ[v]) == 1 for v in members))
        return closed_class(members, succ, *args)

    monkeypatch.setattr(model.Ssg, "__init__", spy("Ssg", model.Ssg.__init__))
    monkeypatch.setattr(model, "fix_strategies", spy("fix_strategies", model.fix_strategies))
    monkeypatch.setattr(model, "relabel_controlled", spy("relabel_controlled", model.relabel_controlled))
    monkeypatch.setattr(mdp, "_closed_classes", spy_classes)
    stationary_system = chain_mod.stationary_system
    monkeypatch.setattr(chain_mod, "stationary_system", lambda *args: systems.append(args) or stationary_system(*args))
    for objective in LIMIT_OBJECTIVES:
        ssg.solve_limit_ssg(game, objective)
    assert calls == []
    assert not any(hasattr(mdp, name) for name in ("relabel_controlled", "fix_strategies", "_induced_chain"))
    assert len(memos) == len(LIMIT_OBJECTIVES) and None not in memos.values()
    keys = [key for memo in memos.values() for key in memo]
    assert keys and all(type(closed) is mdp._ClosedClass for memo in memos.values() for closed in memo.values())
    assert set().union(*map(_walk, keys)) == {int}
    # A key holds a bare node exactly at a member with several steps, so
    # the classes without one are the cycles, which factor nothing.
    non_cycles = sum(any(type(part) is int for part in key) for key in keys)
    assert 0 < non_cycles < len(keys) and len(systems) == non_cycles

    # Each policy-iteration round reads the policy's chain off the index,
    # on the whole index or in place on a MEC: no induced chain, no
    # collapsed strategy, no index and no game-level stationary law.
    # Every stationary system is a closed class's, one per class that is
    # not a cycle.
    monkeypatch.setattr(chain_mod, "stationary_system", spy("stationary_system", stationary_system))
    monkeypatch.setattr(mdp, "_ClosedClass", spy_class)
    monkeypatch.setattr(mdp, "_PolicyEvaluation", spy("round", mdp._PolicyEvaluation))
    monkeypatch.setattr(model.Index, "__init__", spy("Index", model.Index.__init__))
    parts = [(None, None)] + [(sorted(mec.members), mec.allowed) for mec in mdp._mecs(index)]
    for members, allowed in parts:
        for direction in ("max", "min"):
            evaluation, _ = mdp._policy_iteration(index, direction, None, members, allowed)
            inside = range(len(index.ids)) if members is None else members
            assert None not in [evaluation.gain[v] for v in inside] + [evaluation.bias[v] for v in inside]
            assert len(evaluation.gain) == len(evaluation.bias) == len(index.ids)
    assert len(parts) > 1 and calls.count("round") > 2 * len(parts)
    assert set(calls) - {"stationary_system"} == {"round", "closed class"}
    assert calls.count("stationary_system") == cycles.count(False)
    assert calls.count("closed class") == len(cycles)


def test_dense_n7_f36_matches_oracle():
    # bench/families.py dense(7, 36, None).  Min can loop on s0 with reward -1
    # forever, which never reaches the value-1 set {s3, s5, s6} yet wins the
    # limit objective for Max, so s0 is worth 1/2 while reaching that set is
    # worth 0: two-player reachability of the value-1 set is not the value.
    game = parse_model((DATA / "dense-n7-f36.ssg").read_text())
    half = Fraction(1, 2)
    expected = {"s0": half, "s1": 0, "s2": half, "s3": 1, "s4": half, "s5": 1, "s6": 1}
    assert oracle.enumerate_solve(game, LIMINF_MINUS_INF).values == expected
    solve = ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
    assert solve.result.values == expected
    _assert_certified(game, solve, LIMINF_MINUS_INF)


def test_small_dense_family_matches_oracle():
    dense = _dense_family()
    for n in range(4, 9):
        for fseed in range(1, 13):
            game = parse_model(dense(n, fseed, None))
            for objective in LIMIT_OBJECTIVES:
                solve = ssg.solve_limit_ssg(game, objective)
                reference = oracle.enumerate_solve(game, objective)
                assert solve.result.values == reference.values, (n, fseed, objective.kind)


def test_dense_family_certificate_sweep():
    # Past oracle sizes: every solve must come back with a mutual best response.
    dense = _dense_family()
    for n in (20, 24, 32, 40):
        for fseed in range(1, 9):
            game = parse_model(dense(n, fseed, None))
            for objective in LIMIT_OBJECTIVES:
                _assert_certified(game, ssg.solve_limit_ssg(game, objective), objective)


# Dense games (n, fseed), objectives and their value at every state, on
# which an earlier alternating loop raised NoCertificate: all but dense 64,
# f33 when every MEC policy iteration started from first edges, dense 64,
# f33 before MEC policy iterations stopped early.
FORMER_REFUSALS = (
    (32, 12, ("mean-gt", "liminf-plus-inf"), 1),
    (64, 27, ("liminf-minus-inf", "liminf-lt-plus-inf", "mean-leq"), 0),
    (64, 33, ("mean-gt", "liminf-plus-inf"), 0),
    (64, 53, ("liminf-gt-minus-inf",), 0),
    (128, 3, ("mean-leq", "liminf-lt-plus-inf"), 0),
)


def test_former_refusals_answer_with_certificate():
    dense = _dense_family()
    for n, fseed, kinds, value in FORMER_REFUSALS:
        game = parse_model(dense(n, fseed, None))
        for objective in (Objective(kind) for kind in kinds):
            solve = ssg.solve_limit_ssg(game, objective)
            assert solve.method == "improvement"
            assert set(solve.result.values.values()) == {value}, (n, fseed, objective.kind)
            _assert_certified(game, solve, objective)


# Max's only good move is a -> a with reward -1.  Min's second edge, a loop
# with reward -1, loses at b; it is there so that the solve runs the
# alternating loop, which a game where Min has one strategy skips.
FIRST_EDGE_LOSES = parse_model(
    "ssg rewards=transitions\n"
    "state a owner=max\nstate b owner=min\n"
    "trans a -> a reward=0\ntrans a -> a reward=-1\ntrans b -> a reward=0\ntrans b -> b reward=-1\n"
)


def _first_edges(index, objective, player, choice, respond, done):
    choice = (0,) * len(index.ids)
    return (choice, *respond(player, choice))


def test_revisited_min_strategy_raises_no_certificate(monkeypatch):
    solve = ssg.solve_limit_ssg(FIRST_EDGE_LOSES, LIMINF_MINUS_INF)
    assert solve.result.values == {"a": 1, "b": 1}
    # With improvement pinned to first edges, Max never reaches Min's vector
    # and Min's best response to Max is the strategy the loop started from.
    monkeypatch.setattr(ssg, "_improve", _first_edges)
    with pytest.raises(ssg.NoCertificate):
        ssg.solve_limit_ssg(FIRST_EDGE_LOSES, LIMINF_MINUS_INF)


# -- the loop against its reference form ---------------------------------------


def _reference_vector(game, values):
    return tuple(values[sid] for sid in game.ids())


def _reference_switches(game, player, choice):
    for sid in game.owner_ids(player):
        for k in range(len(game.state(sid).transitions)):
            if k != choice[sid]:
                yield {**choice, sid: k}


def _reference_improve(game, objective, player, choice, goal=None):
    better = operator.ge if player == "max" else operator.le
    result = ssg.best_response(game, PureMemorylessStrategy(player, choice), objective)
    vec = _reference_vector(game, result.values)
    while vec != goal:
        for candidate in _reference_switches(game, player, choice):
            reply = ssg.best_response(game, PureMemorylessStrategy(player, candidate), objective)
            cvec = _reference_vector(game, reply.values)
            if cvec != vec and all(map(better, cvec, vec)):
                choice, result, vec = candidate, reply, cvec
                break
        else:
            break
    return choice, result


def reference_solve(game, objective):
    """``solve_limit_ssg`` without the early certificate and the per-solve memos.

    A game where one player has a single strategy, Min checked first, is
    the other player's best response to it.  Otherwise Min's descent scans
    every single switch until none improves, and every strategy and every
    end component is evaluated afresh each time the scan reaches it.
    """
    assert mdp.COMPONENT_MEMO.get() is None
    for player, other in (("min", "max"), ("max", "min")):
        if _has_one_strategy(game, player):
            fixed = {sid: 0 for sid in game.owner_ids(player)}
            reply = ssg.best_response(game, PureMemorylessStrategy(player, fixed), objective)
            witness = getattr(reply, f"witness_{other}")
            pair = {player: fixed, other: dict(witness.choice) if witness else {}}
            sigma, tau = (PureMemorylessStrategy(who, pair[who]) for who in ("max", "min"))
            return ssg.SsgSolve(SolveResult.from_values(reply.values, sigma, tau), "improvement")
    tau = {sid: 0 for sid in game.owner_ids("min")}
    visited = set()
    while True:
        visited.add(frozenset(tau.items()))
        tau, against_tau = _reference_improve(game, objective, "min", tau)
        visited.add(frozenset(tau.items()))
        goal = _reference_vector(game, against_tau.values)
        sigma, against_sigma = _reference_improve(game, objective, "max", dict(against_tau.witness_max.choice), goal)
        if _reference_vector(game, against_sigma.values) == goal:
            sigma, tau = PureMemorylessStrategy("max", sigma), PureMemorylessStrategy("min", tau)
            return ssg.SsgSolve(SolveResult.from_values(against_tau.values, sigma, tau), "improvement")
        tau = dict(against_sigma.witness_min.choice)
        if frozenset(tau.items()) in visited:
            raise ssg.NoCertificate("alternating improvement revisited a Min strategy without a certified pair")


def _dense_sweep():
    dense = _dense_family()
    for n in (8, 12, 16, 24):
        for fseed in range(1, 5):
            game = parse_model(dense(n, fseed, None))
            for objective in LIMIT_OBJECTIVES:
                yield game, objective


def _has_one_strategy(game, player):
    return all(len(game.state(sid).transitions) == 1 for sid in game.owner_ids(player))


def _first_edges_of(game, player):
    """``game`` with every state of ``player`` cut down to its first edge."""
    states = tuple(
        State(s.id, s.owner, reward=s.reward, transitions=s.transitions[:1]) if s.owner == player else s
        for s in game.states
    )
    return Ssg(states, reward_location=game.reward_location)


def _one_strategy_sweep():
    """Games in which one player has a single strategy, under every
    objective: Min's (dense MDPs, a ruin chain, a dense game cut to Min's
    first edges), then Max's alone (dense games with every controlled
    state Min's, a dense game cut to Max's first edges)."""
    families = bench_families()
    games = [parse_model(families.dense_mdp(n, fseed, None)) for n in (8, 12, 16, 24) for fseed in range(1, 5)]
    games.append(parse_model(families.ruin(12, None)))
    games.append(_first_edges_of(parse_model(families.dense(12, 1, None)), "min"))
    dense = [parse_model(families.dense(n, fseed, None)) for n in (8, 12, 16) for fseed in (1, 2)]
    games += [relabel_controlled(game, "min") for game in dense]
    games.append(_first_edges_of(parse_model(families.dense(12, 1, None)), "max"))
    for game in games:
        assert _has_one_strategy(game, "min") or _has_one_strategy(game, "max")
        yield from ((game, objective) for objective in LIMIT_OBJECTIVES)


def _reference_cases():
    grid = exhaustive_games()
    yield from ((UNCERTIFIED_IMPROVEMENT, objective) for objective in LIMIT_OBJECTIVES)
    yield from ((grid[position], objective) for position, objective in STALLED_GRID_CASES)
    for game in random_games(8, sizes=(3,), seed=50505):
        yield from ((game, objective) for objective in LIMIT_OBJECTIVES)
    for name in ("dense-n7-f36.ssg", "dense-n24-f7.ssg", "dense-n32-f7.ssg"):
        game = parse_model((DATA / name).read_text())
        yield from ((game, objective) for objective in LIMIT_OBJECTIVES)
    yield from _dense_sweep()
    yield from _one_strategy_sweep()


def test_solve_matches_reference_loop():
    for game, objective in _reference_cases():
        solve = ssg.solve_limit_ssg(game, objective)
        reference = reference_solve(game, objective)
        assert solve.result.values == reference.result.values, objective.kind
        assert solve.result.witness_max == reference.result.witness_max, objective.kind
        assert solve.result.witness_min == reference.result.witness_min, objective.kind
        assert solve.method == reference.method


def _count_best_responses(monkeypatch):
    """Wrap ``ssg._reply``, which a solve calls once per memo miss; returns
    the list of (player, choice) keys it saw."""
    seen = []
    reply = ssg._reply

    def counting(index, objective, player, choice):
        seen.append((player, choice))
        return reply(index, objective, player, choice)

    monkeypatch.setattr(ssg, "_reply", counting)
    return seen


def _with_max_state(game, *edges):
    """``game`` with one more state, ``m``, Max's, and its edges
    (target, reward)."""
    transitions = tuple(Transition(target, None, reward, None) for target, reward in edges)
    return Ssg(game.states + (State("m", "max", None, transitions),), reward_location=game.reward_location)


# Min's first edges (self-loops with reward +1) are optimal: value 0
# everywhere.  Max's state m loops at +1 or enters a, worth 0 either way.
ZERO_TAU_OPTIMAL_MIN_ONLY = parse_model(
    "ssg rewards=transitions\n"
    "state a owner=min\nstate b owner=min\nstate c owner=min\n"
    "trans a -> a reward=1\ntrans a -> b reward=-1\n"
    "trans b -> b reward=1\ntrans b -> c reward=-1\n"
    "trans c -> c reward=1\ntrans c -> a reward=-1\n"
)
ZERO_TAU_OPTIMAL = _with_max_state(ZERO_TAU_OPTIMAL_MIN_ONLY, ("m", 1), ("a", 1))

# Min's first edges are optimal again, but b can only fall: a is worth 0,
# b and c are worth 1.  Max's state m loops at +1 (worth 0) or enters b,
# so it is worth 1.
NONZERO_TAU_OPTIMAL_MIN_ONLY = parse_model(
    "ssg rewards=transitions\n"
    "state a owner=min\nstate b owner=min\nstate c owner=rand\n"
    "trans a -> a reward=1\ntrans a -> b reward=-1\n"
    "trans b -> b reward=-1\ntrans b -> c reward=-1\n"
    "trans c -> c p=1/1 reward=-1\n"
)
NONZERO_TAU_OPTIMAL = _with_max_state(NONZERO_TAU_OPTIMAL_MIN_ONLY, ("m", 1), ("b", -1))


def test_zero_valued_first_pair_costs_one_best_response(monkeypatch):
    # Max's reply to Min's first strategy is worth 0 everywhere, so no Min
    # reply can lower it: the solve skips Min's reply to Max's witness.
    seen = _count_best_responses(monkeypatch)
    solve = ssg.solve_limit_ssg(ZERO_TAU_OPTIMAL, LIMINF_MINUS_INF)
    assert solve.result.values == {"a": 0, "b": 0, "c": 0, "m": 0}
    assert solve.result.witness_min.choice == {"a": 0, "b": 0, "c": 0}
    assert [player for player, _ in seen] == ["min"]
    # Without m, Max has a single strategy: the solve is Min's reply to it.
    seen.clear()
    solve = ssg.solve_limit_ssg(ZERO_TAU_OPTIMAL_MIN_ONLY, LIMINF_MINUS_INF)
    assert solve.result.values == {"a": 0, "b": 0, "c": 0}
    assert [player for player, _ in seen] == ["max"]
    _assert_certified(ZERO_TAU_OPTIMAL_MIN_ONLY, solve, LIMINF_MINUS_INF)


def test_certified_first_pair_costs_two_best_responses(monkeypatch):
    # A nonzero value needs Min's reply to certify the pair; scanning Min's
    # two switches before testing the pair would cost four.
    seen = _count_best_responses(monkeypatch)
    solve = ssg.solve_limit_ssg(NONZERO_TAU_OPTIMAL, LIMINF_MINUS_INF)
    assert solve.result.values == {"a": 0, "b": 1, "c": 1, "m": 1}
    assert solve.result.witness_min.choice == {"a": 0, "b": 0}
    assert [player for player, _ in seen] == ["min", "max"]
    # Without m, Max has a single strategy: the solve is Min's reply to it.
    seen.clear()
    solve = ssg.solve_limit_ssg(NONZERO_TAU_OPTIMAL_MIN_ONLY, LIMINF_MINUS_INF)
    assert solve.result.values == {"a": 0, "b": 1, "c": 1}
    assert [player for player, _ in seen] == ["max"]
    _assert_certified(NONZERO_TAU_OPTIMAL_MIN_ONLY, solve, LIMINF_MINUS_INF)


def test_single_min_strategy_solve_runs_one_best_response(monkeypatch):
    # A player's only strategy is a best response to any strategy of the
    # other, so the other's best response to it ends the solve with a
    # certified pair, Min's single strategy checked first.  So does a Min
    # strategy that Max's best reply holds to 0 everywhere.  The reply the
    # solve skips must give the same values.
    seen = _count_best_responses(monkeypatch)
    lone = set()
    for game, objective in _one_strategy_sweep():
        fixed = "min" if _has_one_strategy(game, "min") else "max"
        lone.add(fixed)
        seen.clear()
        solve = ssg.solve_limit_ssg(game, objective)
        assert [player for player, _ in seen] == [fixed], objective.kind
        _assert_certified(game, solve, objective)
    assert lone == {"min", "max"}
    one_reply = two_player = 0
    for game, objective in _dense_sweep():
        first = PureMemorylessStrategy("min", {sid: 0 for sid in game.owner_ids("min")})
        settled = _has_one_strategy(game, "min") or _has_one_strategy(game, "max")
        settled = settled or not any(ssg.best_response(game, first, objective).values.values())
        seen.clear()
        solve = ssg.solve_limit_ssg(game, objective)
        if settled:
            assert len(seen) == 1, objective.kind
            _assert_certified(game, solve, objective)
            one_reply += 1
        else:
            assert len(seen) >= 2, objective.kind
            two_player += 1
    assert one_reply > 0 and two_player > 0


def test_one_player_counter_game_is_one_best_response(monkeypatch):
    # Only Min and chance move in the balanced drift counter game: its
    # liminf = -inf solve is Min's one best response, the one-player solve.
    game = parse_model((DATA / "dbalanced-n200-f1.ocssg").read_text())
    seen = _count_best_responses(monkeypatch)
    solve = ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
    assert [player for player, _ in seen] == ["max"]
    assert solve.result.values == mdp.quantitative_limit(game, LIMINF_MINUS_INF, "min").values


def test_no_strategy_is_evaluated_twice_in_one_solve(monkeypatch):
    seen = _count_best_responses(monkeypatch)
    for game, objective in _dense_sweep():
        seen.clear()
        ssg.solve_limit_ssg(game, objective)
        assert len(seen) == len(set(seen)), objective.kind


def test_memo_does_not_outlive_a_solve(monkeypatch):
    seen = _count_best_responses(monkeypatch)
    first = ssg.solve_limit_ssg(UNCERTIFIED_IMPROVEMENT, LIMINF_MINUS_INF)
    calls = len(seen)
    second = ssg.solve_limit_ssg(UNCERTIFIED_IMPROVEMENT, LIMINF_MINUS_INF)
    assert calls > 0
    assert len(seen) == 2 * calls
    assert seen[calls:] == seen[:calls]
    assert second == first


def test_one_solve_evaluates_each_end_component_once(monkeypatch):
    analyzed = []
    closed_class = mdp._ClosedClass

    def spy_analyze(members, succ, prob, rewards):
        # A closed class's content: per member its node, targets,
        # probabilities and per-visit reward, all its evaluation reads.
        # Every index of a solve numbers its nodes as the game's does.
        analyzed.append(tuple((v, tuple(succ[v]), tuple(prob[v]), rewards[v]) for v in members))
        return closed_class(members, succ, prob, rewards)

    monkeypatch.setattr(mdp, "_ClosedClass", spy_analyze)
    total = 0
    for game, objective in _dense_sweep():
        analyzed.clear()
        ssg.solve_limit_ssg(game, objective)
        assert len(analyzed) == len(set(analyzed)), objective.kind
        total += len(analyzed)
    assert total > 0


def test_one_solve_tests_each_class_potential_once(monkeypatch):
    # The chain bound of a two-player scan tests a mean-0 closed class for
    # a potential at most once per solve: the verdict is kept with the
    # memoized class, whose key holds every target and weight the test
    # reads.  Without that, dense 64 (f2) tests one class 50 times and
    # dense 128 (f2) one class 10 times.
    dense = _dense_family()
    tested = []
    node_potential = chain_mod.node_potential

    def spy_potential(members, succ, weights):
        # Per member its node, targets and weights, all the test reads.
        tested.append(tuple((v, tuple(succ[v]), tuple(weights[v])) for v in members))
        return node_potential(members, succ, weights)

    monkeypatch.setattr(chain_mod, "node_potential", spy_potential)
    for n in (64, 128):
        tested.clear()
        ssg.solve_limit_ssg(parse_model(dense(n, 2, None)), LIMINF_GT_MINUS_INF)
        assert tested and len(tested) == len(set(tested)), n


def test_one_solve_builds_one_index_per_best_response(monkeypatch):
    # A best response (a ``_reply`` memo miss) solves on the one residual
    # index that ``Index.fixed`` derives, and on the game's index itself
    # when the fixed player owns no node; no index is built per MEC or
    # round, so a solve of a game where Min owns no node builds none.
    built, replies = [], []
    init, reply = model.Index.__init__, ssg._reply

    def spy_init(self, *args):
        built.append(len(replies))
        init(self, *args)

    def spy_reply(index, objective, player, choice):
        replies.append(player in index.owner)
        return reply(index, objective, player, choice)

    games = [game for game, objective in _dense_sweep() if objective is LIMIT_OBJECTIVES[0]]
    games += [game for game, objective in _one_strategy_sweep() if objective is LIMIT_OBJECTIVES[0]]
    games.append(parse_model((DATA / "dense-n32-f7.ssg").read_text()))
    monkeypatch.setattr(model.Index, "__init__", spy_init)
    monkeypatch.setattr(ssg, "_reply", spy_reply)
    one_player = 0
    for game in games:
        game.index.preds  # compiled before the solve
        for objective in LIMIT_OBJECTIVES:
            built.clear()
            replies.clear()
            ssg.solve_limit_ssg(game, objective)
            # One index per reply whose fixed player owns a node, built
            # within that reply.
            assert built == [i + 1 for i, owns in enumerate(replies) if owns], objective.kind
            if not game.owner_ids("min"):
                assert built == [], objective.kind
                one_player += 1
    assert one_player >= 16 * len(LIMIT_OBJECTIVES)


def test_limit_solves_never_lift_energy(monkeypatch, five_state_game):
    # Limit objectives are decided from end components; only the
    # termination-value-0 question plays the energy game.
    lifts = []
    lift = mdp.energy_min_credit

    def spy(game, keeper="max"):
        lifts.append(keeper)
        return lift(game, keeper)

    monkeypatch.setattr(mdp, "energy_min_credit", spy)
    grid = exhaustive_games()
    cases = list(_dense_sweep())
    cases += [(grid[i], objective) for i in range(0, len(grid), 29) for objective in LIMIT_OBJECTIVES]
    for game, objective in cases:
        ssg.solve_limit_ssg(game, objective)
    assert lifts == []
    termination.decide_term_zero(five_state_game, "v", 1)
    assert lifts == ["min"]


def test_component_memo_lives_only_inside_a_solve(monkeypatch):
    memos = []
    mec_gain = mdp._mec_gain

    def spy(*args):
        memos.append(mdp.COMPONENT_MEMO.get())
        return mec_gain(*args)

    monkeypatch.setattr(mdp, "_mec_gain", spy)
    assert mdp.COMPONENT_MEMO.get() is None
    ssg.solve_limit_ssg(FIRST_EDGE_LOSES, MEAN_GT)
    assert memos and all(type(memo) is dict and memo is memos[0] for memo in memos)
    assert mdp.COMPONENT_MEMO.get() is None

    memos.clear()
    residual = fix_strategies(FIRST_EDGE_LOSES, min_strategy=PureMemorylessStrategy("min", {"b": 0}))
    mdp.quantitative_limit(residual, MEAN_GT, "max")
    assert memos and all(memo is None for memo in memos)

    monkeypatch.setattr(ssg, "_improve", _first_edges)
    with pytest.raises(ssg.NoCertificate):
        ssg.solve_limit_ssg(FIRST_EDGE_LOSES, LIMINF_MINUS_INF)
    assert mdp.COMPONENT_MEMO.get() is None


# -- the chain bound on best responses -----------------------------------------


def _profiles(game):
    """Every pair of pure memoryless choices, as one choice map over the
    controlled states."""
    controlled = game.controlled_ids()
    options = [range(len(game.state(sid).transitions)) for sid in controlled]
    for picks in itertools.product(*options):
        yield dict(zip(controlled, picks))


class _TailValues(dict):
    """The exact tail values of the chain that a profile of ``game`` makes
    (``certify.chain_tail_value``), by node, each profile evaluated once."""

    def __init__(self, game, objective):
        super().__init__()
        self.game, self.objective = game, objective

    def __missing__(self, key):
        profile, game = dict(key), self.game
        sigma = PureMemorylessStrategy("max", {sid: profile[sid] for sid in game.owner_ids("max")})
        tau = PureMemorylessStrategy("min", {sid: profile[sid] for sid in game.owner_ids("min")})
        values = certify.chain_tail_value(fix_strategies(game, sigma, tau), self.objective)
        self[key] = [values[sid] for sid in game.ids()]
        return self[key]


def _assert_switch_signs(game, profile, tail):
    # Every single switch of ``profile``: the rule's sign against the held
    # chain's exact values is the sign of the exact difference at the
    # switched node, and the difference has that sign or is 0 everywhere.
    index = game.index
    held = tail[frozenset(profile.items())]
    for sid in game.controlled_ids():
        u = index.pos[sid]
        for k in range(len(index.succ[u])):
            if k != profile[sid]:
                switched = {**profile, sid: k}
                values = tail[frozenset(switched.items())]
                choice = [switched.get(t, 0) for t in index.ids]
                rule = mdp._switch_sign(index, choice, u, tail.objective.kind, tuple(held))
                assert rule == chain_mod.sign(values[u] - held[u]), (tail.objective.kind, switched)
                assert {chain_mod.sign(c - h) for c, h in zip(values, held)} <= {0, rule}, switched


def test_switch_sign_is_the_sign_of_the_difference_on_the_grid():
    for game in exhaustive_games():
        for objective in LIMIT_OBJECTIVES:
            tail = _TailValues(game, objective)
            for profile in _profiles(game):
                _assert_switch_signs(game, profile, tail)


def test_switch_sign_is_the_sign_of_the_difference_on_dense_games():
    import random

    rng = random.Random(4242)
    dense = _dense_family()
    for n in (8, 12, 16):
        for fseed in range(1, 9):
            game = parse_model(dense(n, fseed, None))
            profiles = [
                {sid: rng.randrange(len(game.state(sid).transitions)) for sid in game.controlled_ids()}
                for _ in range(3)
            ]
            for objective in LIMIT_OBJECTIVES:
                tail = _TailValues(game, objective)
                for profile in profiles:
                    _assert_switch_signs(game, profile, tail)


# Max at u picks a fair ±1 coin loop (mean 0, no potential) or a +1 loop;
# z <-> y is a mean-0 class with a potential that u cannot reach.
UNREACHED_ZERO_CLASS = parse_model(
    "ssg rewards=transitions\n"
    "state u owner=max\nstate a owner=rand\nstate b owner=rand\nstate z owner=rand\nstate y owner=rand\n"
    "trans u -> a reward=0\ntrans u -> b reward=0\n"
    "trans a -> a p=1/2 reward=1\ntrans a -> a p=1/2 reward=-1\ntrans b -> b p=1/1 reward=1\n"
    "trans z -> y p=1/1 reward=1\ntrans y -> z p=1/1 reward=-1\n"
)


def test_switch_sign_reads_only_the_classes_u_reaches(monkeypatch):
    # The rule judges the classes that u reaches and no other: no closed
    # class, potential test, stationary system or hitting solve touches z
    # and y.
    calls = []

    def spy(name, call):
        def counted(members, *args):
            calls.append((name, set(members)))
            return call(members, *args)

        return counted

    monkeypatch.setattr(chain_mod, "node_potential", spy("potential", chain_mod.node_potential))
    monkeypatch.setattr(chain_mod, "stationary_system", spy("stationary", chain_mod.stationary_system))
    monkeypatch.setattr(mdp, "_ClosedClass", spy("class", mdp._ClosedClass))
    monkeypatch.setattr(mdp, "_chain_reach", lambda *args: calls.append(("reach", args)))
    game, index = UNREACHED_ZERO_CLASS, UNREACHED_ZERO_CLASS.index
    tail = _TailValues(game, LIMINF_MINUS_INF)
    u, a, b = (index.pos[sid] for sid in "uab")
    to_a, to_b = tail[frozenset({"u": 0}.items())], tail[frozenset({"u": 1}.items())]
    assert to_a == [1, 1, 0, 0, 0] and to_b == [0, 1, 0, 0, 0]
    calls.clear()
    assert mdp._switch_sign(index, [1, 0, 0, 0, 0], u, LIMINF_MINUS_INF.kind, tuple(to_a)) == -1
    # b's self-loop is a cycle, evaluated with no stationary system.
    assert calls == [("class", {b})]
    calls.clear()
    assert mdp._switch_sign(index, [0, 0, 0, 0, 0], u, LIMINF_MINUS_INF.kind, tuple(to_b)) == 1
    assert calls == [("class", {a}), ("stationary", {a}), ("potential", {a})]


def test_skipped_candidates_fail_the_vector_test(monkeypatch):
    # A candidate the chain bound skips would have been rejected: the full
    # best response to it does not improve on the scan's vector.
    may_improve = ssg._may_improve
    skipped = []

    def spy(index, objective, player, profile, u, vec):
        admitted = may_improve(index, objective, player, profile, u, vec)
        if not admitted:
            # ``game`` is the solve's game, bound by the loop below.
            better = operator.ge if player == "max" else operator.le
            pos = index.pos
            candidate = PureMemorylessStrategy(player, {sid: profile[pos[sid]] for sid in game.owner_ids(player)})
            cvec = tuple(ssg.best_response(game, candidate, objective).values[sid] for sid in game.ids())
            assert cvec == vec or not all(map(better, cvec, vec)), objective.kind
            skipped.append(player)
        return admitted

    monkeypatch.setattr(ssg, "_may_improve", spy)
    for game, objective in _reference_cases():
        ssg.solve_limit_ssg(game, objective)
    assert {"max", "min"} <= set(skipped)


def _reply_cases():
    """Every grid game under one objective in turn, and dense games n
    8/12/16, each also with every controlled state given to one player,
    under every objective."""
    for i, game in enumerate(exhaustive_games()):
        yield game, [LIMIT_OBJECTIVES[i % len(LIMIT_OBJECTIVES)]]
    dense = _dense_family()
    for game in (parse_model(dense(n, fseed, None)) for n in (8, 12, 16) for fseed in (1, 2, 3)):
        for variant in (game, relabel_controlled(game, "max"), relabel_controlled(game, "min")):
            yield variant, LIMIT_OBJECTIVES


def test_reply_witness_is_an_edge_at_exactly_the_opponents_nodes():
    # The chain bound pairs a strategy with the held reply's witness by
    # adding the two tuples: the witness must hold a valid edge at every
    # node of the opponent and 0 at every other node, also when one side
    # owns none.
    import random

    rng = random.Random(37)
    ownerless = 0
    for game, objectives in _reply_cases():
        index = game.index
        for player, opponent in (("max", "min"), ("min", "max")):
            ownerless += opponent not in index.owner
            choices = [(0,) * len(index.ids)]
            choices.append(tuple(rng.randrange(len(t)) if who == player else 0 for who, t in zip(index.owner, index.succ)))
            for choice, objective in itertools.product(choices, objectives):
                values, witness = ssg._reply(index, objective, player, choice)
                assert len(values) == len(witness) == len(index.ids)
                for who, targets, k in zip(index.owner, index.succ, witness):
                    assert 0 <= k < len(targets) if who == opponent else k == 0, (objective.kind, player)
    assert ownerless > 0


def test_one_solve_builds_one_result_and_validates_nothing(monkeypatch):
    # The loop keeps its strategies and replies by node: the returned pair
    # is the one ``SolveResult`` of a solve, and no strategy is validated.
    results, validated = [], []
    init, validate_for = SolveResult.__init__, PureMemorylessStrategy.validate_for
    monkeypatch.setattr(SolveResult, "__init__", lambda self, *args: results.append(args) or init(self, *args))
    monkeypatch.setattr(
        PureMemorylessStrategy, "validate_for", lambda self, game: validated.append(self) or validate_for(self, game)
    )
    cases = [(parse_model((DATA / name).read_text()), objective) for name, objective, _ in BEST_RESPONSE_COUNTS]
    cases += [(UNCERTIFIED_IMPROVEMENT, objective) for objective in LIMIT_OBJECTIVES]
    for game, objective in cases:
        results.clear()
        solve = ssg.solve_limit_ssg(game, objective)
        assert len(results) == 1 and results[0][0] is solve.result.values, objective.kind
        assert validated == [], objective.kind


def test_game_without_opponent_states_is_one_best_response(monkeypatch):
    # With every controlled state Min's, Max has no state and so a single
    # strategy: the solve is Min's one best response to it, with the
    # oracle's values and a certified pair, and no candidate is bounded.
    seen = _count_best_responses(monkeypatch)
    monkeypatch.setattr(ssg, "_may_improve", lambda *args: pytest.fail("a candidate was bounded"))
    games = [UNCERTIFIED_IMPROVEMENT] + random_games(8, sizes=(3, 4), seed=50505)
    games.append(parse_model(_dense_family()(12, 1, None)))
    for game in (relabel_controlled(game, "min") for game in games):
        for objective in LIMIT_OBJECTIVES:
            seen.clear()
            solve = ssg.solve_limit_ssg(game, objective)
            assert len(seen) == 1, objective.kind
            assert solve.result.values == oracle.enumerate_solve(game, objective).values, objective.kind
            _assert_certified(game, solve, objective)
            assert solve == reference_solve(game, objective), objective.kind


# Best responses of one solve, counted as ``ssg._reply`` calls (the
# memo misses); without the chain bound they are 26 and 349.
BEST_RESPONSE_COUNTS = (
    ("dense-n32-f7.ssg", LIMINF_MINUS_INF, 4),
    ("dense-n96-f3.ssg", Objective("mean-leq"), 30),
)


def test_best_response_counts(monkeypatch):
    seen = _count_best_responses(monkeypatch)
    for name, objective, count in BEST_RESPONSE_COUNTS:
        seen.clear()
        ssg.solve_limit_ssg(parse_model((DATA / name).read_text()), objective)
        assert len(seen) == count, name
