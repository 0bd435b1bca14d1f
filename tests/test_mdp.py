import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ocsg import certify, linsolve, mdp, oracle, ssg
from ocsg import chain as chain_mod
from ocsg.model import (
    LIMINF_GT_MINUS_INF,
    LIMINF_MINUS_INF,
    LIMINF_PLUS_INF,
    LIMIT_OBJECTIVES,
    MEAN_GT,
    MEAN_LEQ,
    PureMemorylessStrategy,
    Ssg,
    State,
    Transition,
    fix_strategies,
    parse_model,
    relabel_controlled,
)

from conftest import DATA, FAIR_WALK_TEXT
from grids import (
    as_mdp,
    bench_families,
    class_gain_bias,
    eager_sub_gain,
    evaluate_gain_bias,
    exhaustive_games,
    expected_mean_payoff,
    induced_chain,
    named_asr,
    named_mec,
    named_two_player_asr,
    oc_to_reward_ssg,
    per_visit_reward,
    random_game,
    random_games,
    reference_almost_sure_reach,
    reference_mec_decompose,
    reference_procedure_mp,
    reference_solve_reachability,
    remove_states,
    restrict_to_mec,
    restricted,
)


def test_decided_reach_runs_no_round(monkeypatch):
    # With no target, or every node a target, every value is 0 or 1 and
    # the start choice, every first edge, comes back with no round run.
    monkeypatch.setattr(mdp, "_chain_reach", lambda *args: pytest.fail("a reachability round ran"))
    for game in exhaustive_games():
        index = game.index
        start = {v: 0 for v, owner in enumerate(index.owner) if owner != "rand"}
        for direction in ("max", "min"):
            for targets in ((), game.ids()):
                values, policy = mdp._reach(index, frozenset(map(index.pos.__getitem__, targets)), direction)
                expected, witness = reference_solve_reachability(game, targets, direction)
                assert dict(zip(index.ids, values)) == expected
                assert policy == start == {index.pos[sid]: k for sid, k in witness.choice.items()}


def _fix(game, strategy):
    if strategy.player == "max":
        return fix_strategies(game, max_strategy=strategy)
    return fix_strategies(game, min_strategy=strategy)


# -- solve_reachability ------------------------------------------------------


def test_reach_direct_edge():
    game = parse_model(
        "ssg rewards=states\nstate m owner=max reward=0\nstate t owner=rand reward=0\n"
        "trans m -> t\ntrans m -> m\ntrans t -> t p=1/1\n"
    )
    result = mdp.solve_reachability(game, {"t"}, "max")
    assert result.values["m"] == 1
    assert result.witness_max.choice["m"] == 0


def test_reach_max_prefers_certainty():
    game = parse_model(
        "ssg rewards=states\n"
        "state m owner=max reward=0\nstate t owner=rand reward=0\nstate c owner=rand reward=0\n"
        "state dead owner=rand reward=0\n"
        "trans m -> t\ntrans m -> c\ntrans c -> t p=1/2\ntrans c -> dead p=1/2\n"
        "trans t -> t p=1/1\ntrans dead -> dead p=1/1\n"
    )
    result = mdp.solve_reachability(game, {"t"}, "max")
    assert result.values["m"] == 1


def test_reach_min_takes_coin():
    game = parse_model(
        "ssg rewards=states\n"
        "state s owner=min reward=0\nstate t owner=rand reward=0\nstate c owner=rand reward=0\n"
        "state dead owner=rand reward=0\n"
        "trans s -> t\ntrans s -> c\ntrans c -> t p=1/2\ntrans c -> dead p=1/2\n"
        "trans t -> t p=1/1\ntrans dead -> dead p=1/1\n"
    )
    result = mdp.solve_reachability(game, {"t"}, "min")
    assert result.values["s"] == Fraction(1, 2)
    assert result.witness_min.choice["s"] == 1


def test_reach_min_avoids_via_cycle():
    # Min value 0 needs the avoid-region preprocessing, not just switching.
    game = parse_model(
        "ssg rewards=states\n"
        "state a owner=min reward=0\nstate b owner=min reward=0\nstate t owner=rand reward=0\n"
        "trans a -> t\ntrans a -> b\ntrans b -> a\ntrans t -> t p=1/1\n"
    )
    result = mdp.solve_reachability(game, {"t"}, "min")
    assert result.values["a"] == 0
    assert result.values["b"] == 0


# The controller at a and b can move on to the target t, worth 0, or loop
# between a and b, worth 1 a step.
LOOP_OR_TARGET = parse_model(
    "ssg rewards=states\n"
    "state a owner=max reward=1\nstate b owner=max reward=1\nstate t owner=rand reward=0\n"
    "trans a -> t\ntrans a -> b\ntrans b -> a\ntrans b -> t\ntrans t -> t p=1/1\n"
)


def test_one_player_entries_reject_an_unknown_direction():
    # An unknown direction is refused, not read as minimising without the
    # avoiding start (reach 1 where the min value is 0) or as maximising.
    assert mdp.solve_reachability(LOOP_OR_TARGET, {"t"}, "min").values == {"a": 0, "b": 0, "t": 1}
    assert mdp.solve_reachability(LOOP_OR_TARGET, {"t"}, "max").values == {"a": 1, "b": 1, "t": 1}
    assert mdp.quantitative_limit(LOOP_OR_TARGET, MEAN_GT, "min").values == {"a": 0, "b": 0, "t": 0}
    assert mdp.quantitative_limit(LOOP_OR_TARGET, MEAN_GT, "max").values == {"a": 1, "b": 1, "t": 0}
    for direction in ("MIN", "Min", "maximum", ""):
        with pytest.raises(ValueError, match="^direction must be max or min$"):
            mdp.solve_reachability(LOOP_OR_TARGET, {"t"}, direction)
        with pytest.raises(ValueError, match="^direction must be max or min$"):
            mdp.quantitative_limit(LOOP_OR_TARGET, MEAN_GT, direction)


def test_reach_agrees_with_oracle_on_random_mdps():
    rng = random.Random(31)
    for game in random_games(25, sizes=(3, 4), seed=314):
        game = as_mdp(game)
        targets = {rng.choice(game.ids())}
        for direction in ("max", "min"):
            result = mdp.solve_reachability(game, targets, direction)
            relabeled = game if direction == "max" else _relabel(game, "min")
            reference = oracle.enumerate_reach(relabeled, targets)
            assert result.values == reference.values


def _relabel(game, owner):
    from ocsg.model import relabel_controlled

    return relabel_controlled(game, owner)


# -- almost_sure_reach -------------------------------------------------------


def test_asr_whole_game():
    game = parse_model(
        "ssg rewards=states\nstate a owner=rand reward=0\nstate t owner=rand reward=0\n"
        "trans a -> t p=1/1\ntrans t -> t p=1/1\n"
    )
    assert named_asr(game.index, {"t"}).winning == frozenset({"a", "t"})


def test_asr_min_escape_excluded():
    game = parse_model(
        "ssg rewards=states\n"
        "state n owner=min reward=0\nstate t owner=rand reward=0\nstate sink owner=rand reward=0\n"
        "trans n -> t\ntrans n -> sink\ntrans t -> t p=1/1\ntrans sink -> sink p=1/1\n"
    )
    result = named_two_player_asr(game.index, {"t"})
    assert "n" not in result.winning
    assert result.spoil_choice["n"] == 1


def test_asr_positive_but_not_almost_sure():
    game = parse_model(
        "ssg rewards=states\n"
        "state a owner=rand reward=0\nstate t owner=rand reward=0\nstate sink owner=rand reward=0\n"
        "trans a -> t p=1/2\ntrans a -> sink p=1/2\ntrans t -> t p=1/1\ntrans sink -> sink p=1/1\n"
    )
    assert named_asr(game.index, {"t"}).winning == frozenset({"t"})


def test_asr_targets_are_absorbing():
    game = parse_model(
        "ssg rewards=states\n"
        "state m owner=min reward=0\nstate c owner=rand reward=0\nstate sink owner=rand reward=0\n"
        "trans m -> m\ntrans m -> sink\ntrans c -> c p=1/2\ntrans c -> sink p=1/2\ntrans sink -> sink p=1/1\n"
    )
    assert named_asr(game.index, {"m", "c"}).winning == frozenset({"m", "c"})


def test_asr_witness_reaches_almost_surely():
    for game in random_games(20, sizes=(4,), seed=2718):
        targets = {game.ids()[0]}
        result = named_two_player_asr(game.index, targets)
        if not result.winning - targets:
            continue
        # Fix the witness for Max and the recorded spoiler (or any) for Min,
        # then hitting probabilities must be exactly 1 on the winning set.
        max_choice = {sid: result.max_choice.get(sid, 0) for sid in game.owner_ids("max")}
        for min_fill in range(2):
            min_choice = {
                sid: min(min_fill, len(game.state(sid).transitions) - 1)
                for sid in game.owner_ids("min")
            }
            chain = fix_strategies(
                game,
                PureMemorylessStrategy("max", max_choice),
                PureMemorylessStrategy("min", min_choice),
            )
            values = certify.reach_probabilities(chain, targets)
            for sid in result.winning:
                assert values[sid] == 1


def _random_game(seed, n, location):
    return random_game(random.Random(seed), n, location)


@settings(max_examples=300, deadline=None)
@given(
    st.builds(_random_game, st.integers(0, 10**6), st.integers(1, 9), st.sampled_from(("states", "transitions"))),
    st.randoms(use_true_random=False),
)
def test_asr_matches_the_set_based_reference(game, rng):
    # The two-player int fixpoint on the game's index against the set-based
    # one: winning set, Max's choices and Min's spoiling choices.
    targets = {sid for sid in game.ids() if rng.random() < 0.3}
    assert named_two_player_asr(game.index, targets) == reference_almost_sure_reach(game, targets)


@settings(max_examples=300, deadline=None)
@given(
    st.builds(_random_game, st.integers(0, 10**6), st.integers(1, 9), st.sampled_from(("states", "transitions"))),
    st.randoms(use_true_random=False),
)
def test_asr_reads_only_rand_vs_controlled(game, rng):
    # The one-player fixpoint hands every controlled node to Max, whoever
    # owns it: on the game's index, and on the residual of fixing one
    # player, it equals its result with every controlled state relabelled
    # to Max, and the two-player reference on that relabelled game.
    targets = {sid for sid in game.ids() if rng.random() < 0.3}
    player = rng.choice(("max", "min"))
    fixed = {sid: rng.randrange(len(game.state(sid).transitions)) for sid in game.owner_ids(player)}
    residual = fix_strategies(game, **{f"{player}_strategy": PureMemorylessStrategy(player, fixed)})
    nodes = {game.index.pos[sid]: k for sid, k in fixed.items()}
    for index, view in ((game.index, game), (game.index.fixed(nodes), residual)):
        relabeled = relabel_controlled(view, "max")
        got = named_asr(index, targets)
        assert got == named_asr(relabeled.index, targets)
        reference = reference_almost_sure_reach(relabeled, targets)
        assert (got.winning, got.max_choice) == (reference.winning, reference.max_choice)


# -- expected mean payoff ----------------------------------------------------


def _evaluation(index, policy):
    """``mdp._PolicyEvaluation`` of a policy keyed by state id."""
    return mdp._PolicyEvaluation(index, [policy.get(sid, 0) for sid in index.ids])


def _by_id(index, values):
    return dict(zip(index.ids, values))


def _policy_by_id(index, choice):
    """A choice list's controlled entries, keyed by state id."""
    return {sid: k for sid, owner, k in zip(index.ids, index.owner, choice) if owner != "rand"}


def _bias_shift(index, evaluation, canonical):
    """The one constant by which ``evaluation.bias`` exceeds the canonical
    bias ``canonical`` (keyed by state id) at every node of the evaluation,
    transient ones included: any constant when its chain has one closed
    class, 0 when it has several."""
    shifts = {b - canonical[sid] for sid, b in zip(index.ids, evaluation.bias) if b is not None}
    assert len(shifts) == 1, shifts
    shift = shifts.pop()
    assert len(evaluation.members) == 1 or shift == 0, shift
    return shift


def test_mean_payoff_self_loop():
    game = parse_model("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=1\n")
    gain, _ = expected_mean_payoff(game, "max")
    assert gain["s"] == 1


def test_mean_payoff_max_picks_positive_loop():
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\nstate a owner=rand\nstate b owner=rand\n"
        "trans m -> a reward=0\ntrans m -> b reward=0\n"
        "trans a -> a p=1/1 reward=1\ntrans b -> b p=1/1 reward=-1\n"
    )
    gain, strategy = expected_mean_payoff(game, "max")
    assert gain["m"] == 1
    assert strategy.choice["m"] == 0


def test_mean_payoff_zero_under_both_choices():
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\nstate a owner=rand\nstate b owner=rand\n"
        "trans m -> m reward=0\ntrans m -> a reward=0\n"
        "trans a -> b p=1/1 reward=1\ntrans b -> a p=1/1 reward=-1\n"
    )
    for choice in (0, 1):
        gain = _by_id(game.index, _evaluation(game.index, {"m": choice}).gain)
        assert gain["m"] == 0
    gain, _ = expected_mean_payoff(game, "max")
    assert gain["m"] == 0


def test_policy_iteration_starts_on_the_first_edge_of_extreme_weight(monkeypatch):
    # A step weighs the reward of the state it arrives at.  n's edges tie,
    # so n starts on edge 0 in both directions.
    game = parse_model(
        "ssg rewards=states\nstate m owner=max reward=0\nstate n owner=max reward=0\n"
        "state w owner=rand reward=0\nstate y owner=rand reward=1\n"
        "state x owner=rand reward=-1\nstate z owner=rand reward=1\n"
        "trans m -> w\ntrans m -> y\ntrans m -> x\ntrans m -> z\ntrans n -> z\ntrans n -> y\n"
        "trans w -> m p=1/2\ntrans w -> n p=1/2\ntrans y -> y p=1/1\ntrans x -> x p=1/1\ntrans z -> z p=1/1\n"
    )
    starts, evaluate = [], mdp._PolicyEvaluation

    def spy(index, choice, members=None):
        starts.append(_policy_by_id(index, choice))
        return evaluate(index, choice, members)

    monkeypatch.setattr(mdp, "_PolicyEvaluation", spy)
    for direction, start in (("max", {"m": 1, "n": 0}), ("min", {"m": 2, "n": 0})):
        starts.clear()
        mdp._policy_iteration(game.index, direction)
        assert starts[0] == start, direction


def test_mean_payoff_agrees_with_enumeration():
    games = random_games(20, sizes=(3, 4), seed=1618, reward_location="transitions")
    games += random_games(20, sizes=(3, 4), seed=1618, reward_location="states")
    for game in games:
        game = as_mdp(game)
        for direction in ("max", "min"):
            gain, strategy = expected_mean_payoff(game, direction)
            ref_gain, _ = oracle.enumerate_mean_payoff(game, direction)
            assert gain == ref_gain
            eval_gain = _by_id(game.index, _evaluation(game.index, strategy.choice).gain)
            assert eval_gain == gain


def test_mean_payoff_last_evaluation_is_the_returned_policys():
    for game in random_games(20, sizes=(3, 4), seed=1618, reward_location="transitions"):
        game = as_mdp(game)
        for direction in ("max", "min"):
            index = game.index
            evaluation, choice = mdp._policy_iteration(index, direction)
            policy = _policy_by_id(index, choice)
            gain, strategy = expected_mean_payoff(game, direction)
            assert (gain, strategy.choice) == (_by_id(index, evaluation.gain), policy)
            reference_gain, canonical = evaluate_gain_bias(game, policy)
            assert _by_id(index, evaluation.gain) == reference_gain
            _bias_shift(index, evaluation, canonical)


def reference_class_gain_bias(induced, members):
    """Two eliminations per class: the stationary law through
    ``certify.analyze_bscc``, then the bias system whose first row is the
    normalisation pi . h = 0 in place of the first state's equation."""
    analysis = certify.analyze_bscc(induced, members)
    order = list(analysis.stationary)
    pos = {sid: i for i, sid in enumerate(order)}
    rows = [{j: analysis.stationary[sid] for j, sid in enumerate(order)}]
    rhs = [Fraction(0)]
    for i, sid in enumerate(order[1:], 1):
        state = induced.state(sid)
        row = {i: Fraction(1)}
        for t in state.transitions:
            j = pos[t.target]
            row[j] = row.get(j, 0) - t.prob
        rows.append(row)
        rhs.append(per_visit_reward(induced, state) - analysis.mean_payoff)
    solution = linsolve.factor(rows).solve(rhs)
    return analysis.mean_payoff, {sid: solution[pos[sid]] for sid in order}


def _policy_cases():
    """Every policy of every grid game, and seeded random policies of the
    dense family (n 8-24)."""
    for game in exhaustive_games():
        controlled = game.controlled_ids()
        ranges = [range(len(game.state(sid).transitions)) for sid in controlled]
        for picks in itertools.product(*ranges):
            yield game, dict(zip(controlled, picks))
    dense = bench_families().dense
    rng = random.Random(2718)
    for n in (8, 12, 16, 24):
        for fseed in range(1, 5):
            game = parse_model(dense(n, fseed, None))
            for _ in range(4):
                yield game, {sid: rng.randrange(len(game.state(sid).transitions)) for sid in game.controlled_ids()}


def test_class_gain_bias_matches_two_elimination_reference():
    classes = 0
    for game, policy in _policy_cases():
        induced = induced_chain(game, policy)
        bsccs = certify.bscc_decompose(induced)[0]
        ids = game.index.ids
        evaluation = _evaluation(game.index, policy)
        assert [frozenset(ids[v] for v in members) for members in evaluation.members] == bsccs
        for nodes, members, closed in zip(evaluation.members, bsccs, evaluation._classes):
            bias = {ids[v]: h for v, h in zip(nodes, closed.bias(nodes, evaluation._succ, evaluation._prob))}
            assert (closed.mean, bias) == reference_class_gain_bias(induced, members)
            classes += 1
    assert classes > 5000


def test_evaluation_factors_each_matrix_once(monkeypatch):
    sizes, solves = [], []
    factor, solve = linsolve.factor, linsolve.Factorization.solve

    def spy(rows):
        sizes.append(len(rows))
        return factor(rows)

    monkeypatch.setattr(linsolve, "factor", spy)
    monkeypatch.setattr(linsolve.Factorization, "solve", lambda *args: solves.append(args) or solve(*args))
    transient_blocks, cycles, several = 0, 0, 0
    for game, policy in _policy_cases():
        induced = induced_chain(game, policy)
        bsccs, transient = certify.bscc_decompose(induced)
        sizes.clear()
        evaluation = _evaluation(game.index, policy)
        # One factorization per closed class that is not a cycle (a cycle,
        # every member with one step, is evaluated in closed form) and one
        # for the transient block when the gain is read.  The bias reads
        # h with one class, so it factors nothing more; with several, it
        # factors each class that is not a cycle once more, for its law.
        factored = [
            len(members) for members in bsccs if any(len(induced.state(sid).transitions) > 1 for sid in members)
        ]
        assert sizes == factored
        expected = factored + ([len(transient)] if transient else [])
        assert len(evaluation.gain) == len(game.states) and sizes == expected
        solves.clear()
        assert len(evaluation.bias) == len(game.states)
        if len(bsccs) > 1:
            expected += factored
            several += 1
        assert sizes == expected
        assert len(solves) == bool(transient) + (len(factored) if len(bsccs) > 1 else 0)
        if len(bsccs) > 1:
            # Each class keeps its shifted list, so a second read factors nothing.
            for nodes, closed in zip(evaluation.members, evaluation._classes):
                closed.bias(nodes, evaluation._succ, evaluation._prob)
            assert sizes == expected
        transient_blocks += bool(transient)
        cycles += len(bsccs) - len(factored)
    assert transient_blocks > 2000 and cycles > 2000 and several > 800


def test_lazy_evaluation_matches_eager_reference():
    for game, policy in _policy_cases():
        induced = induced_chain(game, policy)
        evaluation = _evaluation(game.index, policy)
        bsccs = certify.bscc_decompose(induced)[0]
        assert evaluation.means == [class_gain_bias(induced, members)[0] for members in bsccs]
        gain, canonical = evaluate_gain_bias(game, policy)
        assert _by_id(game.index, evaluation.gain) == gain
        _bias_shift(game.index, evaluation, canonical)


def test_one_class_bias_is_canonical_plus_the_law_average_of_h():
    # With one closed class the bias is its h extended to the transient
    # nodes: the canonical bias plus pi . h at every node.  With several,
    # it is the canonical bias.
    counts = [0, 0]
    for game, policy in _policy_cases():
        induced = induced_chain(game, policy)
        evaluation = _evaluation(game.index, policy)
        shift = _bias_shift(game.index, evaluation, evaluate_gain_bias(game, policy)[1])
        if len(evaluation.members) == 1:
            law, _ = certify.stationary_law(induced, certify.bscc_decompose(induced)[0][0])
            h = dict(zip(evaluation.members[0], evaluation._classes[0].h))
            assert shift == sum(p * h[game.index.pos[sid]] for sid, p in law.items())
        counts[len(evaluation.members) > 1] += 1
    assert min(counts) > 800


def _cycle_chain(steps):
    """A transition-reward chain of the cycle ``steps`` (node -> (targets,
    per-visit reward)), its states named by node in node order."""
    states = tuple(
        State(str(v), "rand", transitions=(Transition(str(targets[0]), Fraction(1), reward),))
        for v, (targets, reward) in steps.items()
    )
    return Ssg(states, reward_location="transitions")


def test_cycle_classes_take_the_closed_form(monkeypatch):
    # A closed class whose every member has one step is a cycle: its mean,
    # h and bias come in closed form, equal to the factored evaluation's,
    # and it builds no stationary system.  The classes are every one that
    # the two-player solve meets on the grid games and small dense games,
    # under every objective, and three built by hand.
    systems, built = [], []
    stationary_system, closed_class = chain_mod.stationary_system, mdp._ClosedClass

    def spy_class(members, succ, prob, rewards):
        before = len(systems)
        closed = closed_class(members, succ, prob, rewards)
        built.append(({v: (tuple(succ[v]), rewards[v]) for v in members}, closed, len(systems) - before))
        return closed

    monkeypatch.setattr(chain_mod, "stationary_system", lambda *args: systems.append(args) or stationary_system(*args))
    monkeypatch.setattr(mdp, "_ClosedClass", spy_class)
    dense = bench_families().dense
    games = exhaustive_games() + [parse_model(dense(n, f, None)) for n in range(8, 17) for f in (1, 2, 3)]
    for game in games:
        for objective in LIMIT_OBJECTIVES:
            ssg.solve_limit_ssg(game, objective)
    # A self-loop, a cycle through a one-edge rand node, and a cycle with
    # Fraction rewards against node order.
    mdp._ClosedClass([0], [(0,)], [(1,)], [-1])
    through_rand = parse_model(
        "ssg rewards=transitions\nstate m owner=max\nstate r owner=rand\n"
        "trans m -> r reward=1\ntrans m -> m reward=-1\ntrans r -> m p=1/1 reward=-1\n"
    ).index
    succ, prob, _, rewards = through_rand.steps({0: 0})
    mdp._closed_classes(succ, prob, rewards, [0])
    thirds = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)]
    mdp._ClosedClass([0, 1, 2], [(2,), (0,), (1,)], [(1,)] * 3, thirds)
    monkeypatch.setattr(mdp, "_ClosedClass", closed_class)

    cycles = 0
    for steps, closed, factored in built:
        if any(len(targets) > 1 for targets, _ in steps.values()):
            assert factored == 1
            continue
        cycles += 1
        assert factored == 0
        mean, bias = class_gain_bias(_cycle_chain(steps), frozenset(map(str, steps)))
        bias = [bias[str(v)] for v in steps]
        assert closed.mean == mean
        assert closed.h == [b - bias[0] for b in bias]
        before = len(systems)
        members = list(steps)
        assert closed.bias(members, {v: targets for v, (targets, _) in steps.items()}, dict.fromkeys(members, (1,))) == bias
        assert len(systems) == before
    assert cycles > 500 and cycles < len(built)
    assert [len(steps) for steps, _, _ in built[-3:]] == [1, 2, 3]


# -- MECs ---------------------------------------------------------------------


def test_mec_whole_graph():
    game = parse_model(
        "ssg rewards=states\nstate a owner=rand reward=0\nstate b owner=rand reward=0\n"
        "trans a -> b p=1/1\ntrans b -> a p=1/1\n"
    )
    mecs = mdp.mec_decompose(game)
    assert len(mecs) == 1
    assert mecs[0].members == frozenset({"a", "b"})


def test_mec_two_absorbing_loops():
    game = parse_model(
        "ssg rewards=states\nstate m owner=max reward=0\nstate a owner=rand reward=0\nstate b owner=rand reward=0\n"
        "trans m -> a\ntrans m -> b\ntrans a -> a p=1/1\ntrans b -> b p=1/1\n"
    )
    mecs = mdp.mec_decompose(game)
    assert [m.members for m in mecs] == [frozenset({"a"}), frozenset({"b"})]


def test_mec_appendix_example(five_state_game):
    game = oc_to_reward_ssg(five_state_game)
    mecs = mdp.mec_decompose(game)
    assert [m.members for m in mecs] == [frozenset({"down"}), frozenset({"up"})]


def test_mec_decompose_refuses_unknown_ids():
    game = parse_model((DATA / "mdp-n20-f1.ssg").read_text())
    with pytest.raises(ValueError, match=r"^unknown states \['nope'\]$"):
        mdp.mec_decompose(game, {"nope"})
    with pytest.raises(ValueError, match=r"^unknown states \['a', 'b'\]$"):
        mdp.mec_decompose(game, ["s0", "b", "a"])
    assert mdp.mec_decompose(game, ["s0", "s1"]) == mdp.mec_decompose(game, {"s1", "s0"})


# One-node SCCs only: c1 (Max) has a self-loop and an edge out, c2 (Max)
# only an edge out, r2 (rand) a self-loop and an edge out, r3 (rand) only
# a self-loop.  c1 and r3 are MECs; r2 leaks and c2 has no edge that stays.
ONE_NODE_SCCS = parse_model(
    "ssg rewards=transitions\n"
    "state c1 owner=max\nstate c2 owner=max\nstate r2 owner=rand\nstate r3 owner=rand\n"
    "trans c1 -> c1 reward=0\ntrans c1 -> c2 reward=0\ntrans c2 -> r2 reward=1\n"
    "trans r2 -> r2 p=1/2 reward=0\ntrans r2 -> r3 p=1/2 reward=0\ntrans r3 -> r3 p=1/1 reward=-1\n"
)


def test_mec_one_node_components():
    game, index = ONE_NODE_SCCS, ONE_NODE_SCCS.index
    c1, c2, r2, r3 = (index.pos[sid] for sid in ("c1", "c2", "r2", "r3"))
    expected = [mdp.Mec(frozenset({"c1"}), {"c1": (0,)}), mdp.Mec(frozenset({"r3"}), {"r3": (0,)})]
    assert mdp.mec_decompose(game) == expected == reference_mec_decompose(game)
    # Without its self-loop among the allowed edges, c1 is in no MEC.
    allowed = [range(len(edges)) for edges in index.succ]
    allowed[c1] = (1,)
    assert [named_mec(index, mec) for mec in mdp._mecs(index, None, allowed)] == expected[1:]
    # The same game with Min owning the controlled nodes, and each node alone.
    assert mdp.mec_decompose(relabel_controlled(game, "min")) == expected
    for v, mecs in ((c1, expected[:1]), (c2, []), (r2, []), (r3, expected[1:])):
        assert [named_mec(index, mec) for mec in mdp._mecs(index, [v])] == mecs


def _strongly_connected(succ, members, allowed):
    """Whether ``members`` can hold an end component as ``mdp._mecs`` asks
    of a candidate: strongly connected over the edges ``allowed[v]`` that
    stay in it, with two nodes or more or one node on an allowed edge to
    itself."""
    edges = {v: {succ[v][k] for k in allowed[v]} & members for v in members}
    if len(members) == 1:
        (v,) = members
        return v in edges[v]
    back = {v: {u for u in members if v in edges[u]} for v in members}

    def reached(step):
        start = min(members)
        seen, stack = {start}, [start]
        while stack:
            for t in step[stack.pop()] - seen:
                seen.add(t)
                stack.append(t)
        return seen

    return reached(edges) == members == reached(back)


def _spy_mec_kernels(monkeypatch):
    """Count ``mdp._mecs`` calls and the ``chain.attractor`` and
    ``chain.tarjan`` calls made inside one; every such attractor call must
    have a seed and run within a set ``_strongly_connected`` accepts."""
    counts = {"mecs": 0, "attractors": 0, "tarjans": 0}
    depth = []
    mecs, attractor, tarjan = mdp._mecs, chain_mod.attractor, chain_mod.tarjan

    def counted_mecs(*args, **kwargs):
        counts["mecs"] += 1
        depth.append(True)
        try:
            return mecs(*args, **kwargs)
        finally:
            depth.pop()

    def checked_attractor(graph, seeds, any_owners, within=None, allowed=None):
        if depth:
            counts["attractors"] += 1
            assert seeds
            assert _strongly_connected(graph.succ, {v for v, keep in enumerate(within) if keep}, allowed)
        return attractor(graph, seeds, any_owners, within=within, allowed=allowed)

    def counted_tarjan(succ, roots):
        counts["tarjans"] += bool(depth)
        return tarjan(succ, roots)

    monkeypatch.setattr(mdp, "_mecs", counted_mecs)
    monkeypatch.setattr(chain_mod, "attractor", checked_attractor)
    monkeypatch.setattr(chain_mod, "tarjan", counted_tarjan)
    return counts


def test_mec_attractors_run_on_strongly_connected_candidates(monkeypatch):
    counts = _spy_mec_kernels(monkeypatch)
    rng = random.Random(4401)
    for game in itertools.chain(exhaustive_games(), random_games(200, sizes=(3, 5, 8), seed=4401), [ONE_NODE_SCCS]):
        game = relabel_controlled(game, rng.choice(("max", "min")))
        index = game.index
        assert mdp.mec_decompose(game) == reference_mec_decompose(game)
        allowed = [tuple(k for k in range(len(edges)) if rng.random() < 0.7) for edges in index.succ]
        nodes = [v for v in range(len(index.succ)) if rng.random() < 0.8]
        mdp._mecs(index, nodes, allowed)
    for name, objective in (("dense-n32-f7.ssg", LIMINF_MINUS_INF), ("mdp-n20-f1.ssg", MEAN_GT)):
        ssg.solve_limit_ssg(parse_model((DATA / name).read_text()), objective)
    assert counts["attractors"] > 100, counts


# ``mdp._mecs`` calls of one solve, and the ``chain.attractor`` and
# ``chain.tarjan`` calls made inside them; with a candidate per SCC of
# every size and a second ``tarjan`` per kept candidate they were 1,334
# attractors and 184 tarjans.
MEC_KERNEL_COUNTS = (("dense-n96-f3.ssg", MEAN_LEQ, {"mecs": 30, "attractors": 202, "tarjans": 149}),)


def test_mec_kernel_counts(monkeypatch):
    counts = _spy_mec_kernels(monkeypatch)
    for name, objective, expected in MEC_KERNEL_COUNTS:
        counts.update(dict.fromkeys(counts, 0))
        ssg.solve_limit_ssg(parse_model((DATA / name).read_text()), objective)
        assert counts == expected, name


def test_asr_of_no_target_runs_no_attractor(monkeypatch):
    monkeypatch.setattr(chain_mod, "attractor", lambda *args, **kwargs: pytest.fail("an attractor ran"))
    for game in (ONE_NODE_SCCS, parse_model((DATA / "mdp-n20-f1.ssg").read_text())):
        for targets in ((), set(), frozenset()):
            assert mdp.almost_sure_reach(game.index, targets) == mdp.AsrResult(frozenset(), {})


def test_policy_bsccs_lie_inside_mecs():
    import itertools

    for game in random_games(15, sizes=(4,), seed=41):
        game = as_mdp(game)
        mecs = mdp.mec_decompose(game)
        controlled = [s.id for s in game.states if s.owner != "rand"]
        sizes = [len(game.state(sid).transitions) for sid in controlled]
        for combo in itertools.product(*(range(n) for n in sizes)):
            induced = fix_strategies(game, PureMemorylessStrategy("max", dict(zip(controlled, combo))))
            bsccs, _ = certify.bscc_decompose(induced)
            for members in bsccs:
                assert any(members <= m.members for m in mecs), (members, mecs)


def _sign(x):
    return (x > 0) - (x < 0)


def _reference_mec_part(game, mec, rule):
    """``_mec_part``'s members (state ids) with the MEC (nodes of the game's
    index) solved to optimality on its sub-MDP game, and the optimal gain
    map when its sign wins the whole MEC (else None)."""
    direction, winning_signs, zero_part = rule
    index = game.index
    named = named_mec(index, mec)
    sub, _ = restrict_to_mec(game, named)
    evaluation, _ = mdp._policy_iteration(sub.index, direction)
    gains = _by_id(sub.index, evaluation.gain)
    gain = gains[min(named.members)]
    if _sign(gain) in winning_signs:
        return frozenset(named.members), gains
    if gain != 0 or zero_part is None:
        return frozenset(), None
    # The sub-MDP keeps the game order, so its nodes are the sorted members.
    allowed, noisy = mdp._tight_part(index, mec, dict(zip(sorted(mec.members), evaluation.bias)))
    return frozenset(index.ids[v] for v in zero_part(index, mec.members, allowed, noisy)[0]), None


def _mec_cases():
    """Grid games, random one-player games of both reward locations and
    dense games n 8-24, every controlled state handed to Max."""
    yield from exhaustive_games()
    for location in ("states", "transitions"):
        yield from random_games(300, sizes=(4, 6, 9), seed=1617, reward_location=location)
    dense = bench_families().dense
    for n in (8, 12, 16, 24):
        for fseed in range(1, 5):
            yield parse_model(dense(n, fseed, None))


def test_early_stopped_mecs_win_at_every_state():
    early = 0
    for game in _mec_cases():
        game = as_mdp(game)
        ids = game.index.ids
        for mec in mdp._mecs(game.index):
            sub, index_map = restrict_to_mec(game, named_mec(game.index, mec))
            for kind, rule in mdp._MEC_RULES.items():
                members, choice = mdp._mec_part(game.index, mec, rule)
                reference, optimal = _reference_mec_part(game, mec, rule)
                assert {ids[v] for v in members} == reference, (game, mec, kind)
                if optimal is None:
                    continue
                # The choice stays in the MEC and wins at every state of it.
                policy = {ids[v]: index_map[ids[v]].index(k) for v, k in choice.items()}
                assert policy.keys() == set(sub.controlled_ids())
                gains = _by_id(sub.index, _evaluation(sub.index, policy).gain)
                assert all(_sign(g) in rule[1] for g in gains.values()), (game, mec, kind)
                early += gains != optimal
    assert early > 100


def test_sub_gain_matches_eager_stop_on_all_gains(monkeypatch):
    # A MEC's gain policy iteration runs in place, on its members and
    # allowed edges in the game's index.  The same loop on the MEC's
    # sub-index (``grids.restricted``, the MEC as a whole index) and the
    # eager loop on its sub-MDP game must visit the same policies in the
    # same order and return the same result, mapped back by node.
    lazy, rounds, stopped = mdp._PolicyEvaluation, [], 0

    def spy(index, choice, members=None):
        rounds.append((list(choice), lazy(index, choice, members)))
        return rounds[-1][1]

    monkeypatch.setattr(mdp, "_PolicyEvaluation", spy)
    for game in _mec_cases():
        game = as_mdp(game)
        index = game.index
        for mec in mdp._mecs(index):
            sub, _ = restrict_to_mec(game, named_mec(index, mec))
            members = sorted(mec.members)
            sub_index = restricted(index, members, mec.allowed)
            edges = {i: tuple(range(len(targets))) for i, targets in enumerate(sub_index.succ)}
            whole = mdp.Mec(frozenset(range(len(members))), edges)
            for kind, rule in mdp._MEC_RULES.items():
                eager_rounds = []
                eager = eager_sub_gain(sub, rule, eager_rounds)
                rounds.clear()
                in_place = mdp._mec_gain(index, mec, rule)
                in_place_rounds = rounds[:]
                rounds.clear()
                least, choice, optimal_bias = mdp._mec_gain(sub_index, whole, rule)
                result = (least, _policy_by_id(sub_index, [choice.get(v, 0) for v in range(len(members))]))
                assert result == eager[:2], (sub, kind)
                # The bias is the last round's, the eager one up to its
                # one-class constant.
                assert (optimal_bias is None) == (eager[2] is None)
                if optimal_bias is not None:
                    assert optimal_bias is rounds[-1][1].bias
                    _bias_shift(sub_index, rounds[-1][1], eager[2])
                # In place: the same gain, the choice through the MEC's
                # allowed edges, and the bias at the members, None elsewhere.
                assert in_place[:2] == (least, {members[v]: mec.allowed[members[v]][k] for v, k in choice.items()})
                if optimal_bias is None:
                    assert in_place[2] is None
                else:
                    assert [in_place[2][v] for v in members] == optimal_bias
                    assert all(h is None for v, h in enumerate(in_place[2]) if v not in mec.members)
                # All three visit the same policies in the same order.  Each
                # lazy round's class means equal the eager gains, and it
                # computes the gain and the bias only where the round uses
                # them, equal to the eager ones; in place, each class, gain
                # and bias is the sub-index round's at the same node.
                assert len(in_place_rounds) == len(rounds) == len(eager_rounds)
                for (policy, gain, bias, reads), (sub_choice, evaluation), (choice_in, evaluation_in) in zip(
                    eager_rounds, rounds, in_place_rounds
                ):
                    assert _policy_by_id(sub_index, sub_choice) == policy
                    assert [mec.allowed[v].index(choice_in[v]) for v in members if index.owner[v] != "rand"] == [
                        k for v, k in enumerate(sub_choice) if sub_index.owner[v] != "rand"
                    ]
                    classes = zip(evaluation.members, evaluation._classes)
                    assert all(gain[sub_index.ids[v]] == c.mean for nodes, c in classes for v in nodes)
                    assert evaluation_in.members == [[members[v] for v in nodes] for nodes in evaluation.members]
                    assert evaluation_in.means == evaluation.means
                    computed = {name for name in ("gain", "bias") if name in vars(evaluation)}
                    assert computed == reads
                    assert {name for name in ("gain", "bias") if name in vars(evaluation_in)} == reads
                    assert "gain" not in computed or _by_id(sub_index, evaluation.gain) == gain
                    if "bias" in computed:
                        _bias_shift(sub_index, evaluation, bias)
                    for name in computed:
                        local, placed = getattr(evaluation, name), getattr(evaluation_in, name)
                        assert [placed[v] for v in members] == local
                        assert all(x is None for v, x in enumerate(placed) if v not in mec.members)
                stopped += optimal_bias is None
    assert stopped > 10000


# -- procedure MP ------------------------------------------------------------


def test_procedure_mp_picks_positive_loop():
    # m lies outside the positive component, so its choice comes from the cut.
    for edges, good in (("trans m -> a reward=0\ntrans m -> b reward=0\n", 0),
                        ("trans m -> b reward=0\ntrans m -> a reward=0\n", 1)):
        game = parse_model(
            "ssg rewards=transitions\nstate m owner=max\nstate a owner=rand\nstate b owner=rand\n"
            + edges + "trans a -> a p=1/1 reward=1\ntrans b -> b p=1/1 reward=-1\n"
        )
        strategy = reference_procedure_mp(game, "m")
        assert strategy is not None
        assert strategy.choice["m"] == good


def test_procedure_mp_no_when_nonpositive():
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\ntrans m -> m reward=0\ntrans m -> m reward=-1\n"
    )
    assert reference_procedure_mp(game, "m") is None


def test_procedure_mp_no_for_half_reachable_drift():
    game = parse_model(
        "ssg rewards=transitions\n"
        "state root owner=rand\nstate p owner=rand\nstate d owner=rand\nstate f owner=rand\n"
        "trans root -> p p=1/2 reward=0\ntrans root -> d p=1/2 reward=0\n"
        "trans p -> p p=1/1 reward=1\ntrans d -> f p=1/1 reward=0\ntrans f -> d p=1/1 reward=0\n"
    )
    assert reference_procedure_mp(game, "root") is None
    assert reference_procedure_mp(game, "p") is not None
    values = mdp.quantitative_limit(game, MEAN_GT, "max").values
    assert values["root"] == Fraction(1, 2)


def test_procedure_mp_survives_early_cut_of_one_drift():
    # Two positive-drift components; cutting one first must not strand the
    # random splitter whose mass now points at the absorbing placeholder.
    game = parse_model(
        "ssg rewards=states\n"
        "state a owner=max reward=1\nstate b owner=max reward=0\n"
        "state c owner=rand reward=1\nstate d owner=rand reward=1\n"
        "trans a -> b\ntrans a -> a\ntrans b -> c\ntrans c -> b p=1/1\n"
        "trans d -> b p=1/4\ntrans d -> a p=3/4\n"
    )
    for sid in game.ids():
        assert reference_procedure_mp(game, sid) is not None, sid


def test_second_cut_reuses_the_absorbing_state():
    # A later round cuts b after z exists; a's edge into b must join the
    # existing z instead of a second state named z.
    game = parse_model(
        "ssg rewards=states\n"
        "state a owner=rand reward=0\nstate b owner=max reward=1\nstate z owner=rand reward=0\n"
        "trans a -> b p=1/2\ntrans a -> z p=1/2\ntrans b -> b\ntrans b -> a\ntrans z -> z p=1/1\n"
    )
    cut_game, z_id = remove_states(game, {"b"}, "z")
    assert z_id == "z"
    assert cut_game.ids() == ("a", "z")
    assert [t.target for t in cut_game.state("a").transitions] == ["z", "z"]
    assert cut_game.violations == ()


def test_a_cut_never_severs_a_controlled_edge():
    # m could step into the cut {b}, so a cut without m is not closed.
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\nstate b owner=rand\n"
        "trans m -> b reward=0\ntrans m -> m reward=0\ntrans b -> b p=1/1 reward=1\n"
    )
    with pytest.raises(AssertionError, match="controlled edge"):
        remove_states(game, {"b"}, None)


def test_procedure_mp_matches_mean_gt_region():
    for game in random_games(30, sizes=(3, 4), seed=3141, reward_location="transitions"):
        game = as_mdp(game)
        region = mdp.quantitative_limit(game, MEAN_GT, "max").value_one_set
        for sid in game.ids():
            witness = reference_procedure_mp(game, sid)
            assert (witness is not None) == (sid in region), sid
            if witness is not None:
                assert certify.chain_tail_value(_fix(game, witness), MEAN_GT)[sid] == 1, sid


# -- energy games ------------------------------------------------------------


def test_energy_keeper_zero_loop():
    game = parse_model("ssg rewards=transitions\nstate k owner=max\ntrans k -> k reward=0\n")
    assert mdp.energy_min_credit(game, "max") == {"k": 0}


def test_energy_adversary_negative_loop():
    game = parse_model("ssg rewards=transitions\nstate a owner=min\ntrans a -> a reward=-1\n")
    assert mdp.energy_min_credit(game, "max")["a"] == mdp.INFINITE_CREDIT


def test_energy_dip_then_recover():
    game = parse_model(
        "ssg rewards=transitions\nstate h owner=max\nstate l owner=max\n"
        "trans h -> l reward=-1\ntrans l -> l reward=1\n"
    )
    assert mdp.energy_min_credit(game, "max") == {"h": 1, "l": 0}


def test_energy_random_states_are_adversarial():
    game = parse_model(
        "ssg rewards=transitions\nstate r owner=rand\nstate k owner=max\n"
        "trans r -> k p=1/2 reward=-1\ntrans r -> k p=1/2 reward=1\ntrans k -> r reward=0\n"
    )
    credit = mdp.energy_min_credit(game, "max")
    assert credit["r"] == mdp.INFINITE_CREDIT
    assert credit["k"] == mdp.INFINITE_CREDIT


def test_energy_monotone_in_added_edges():
    base = parse_model(
        "ssg rewards=transitions\nstate k owner=max\nstate a owner=min\n"
        "trans k -> a reward=-1\ntrans a -> k reward=1\ntrans a -> a reward=0\n"
    )
    richer_keeper = parse_model(
        "ssg rewards=transitions\nstate k owner=max\nstate a owner=min\n"
        "trans k -> a reward=-1\ntrans k -> k reward=0\ntrans a -> k reward=1\ntrans a -> a reward=0\n"
    )
    base_credit = mdp.energy_min_credit(base, "max")
    keeper_credit = mdp.energy_min_credit(richer_keeper, "max")
    for sid in base.ids():
        assert keeper_credit[sid] <= base_credit[sid]
    richer_adversary = parse_model(
        "ssg rewards=transitions\nstate k owner=max\nstate a owner=min\n"
        "trans k -> a reward=-1\ntrans a -> k reward=1\ntrans a -> a reward=0\ntrans a -> k reward=-1\n"
    )
    adversary_credit = mdp.energy_min_credit(richer_adversary, "max")
    for sid in base.ids():
        assert adversary_credit[sid] >= base_credit[sid]


def test_energy_reads_predecessors_only_once_a_state_rises():
    # No delta of the positive drift counter is negative, so every state is
    # idle: no credit rises and no predecessor list is needed.
    idle = parse_model(bench_families().drift_counter(50, 1, None, balanced=False))
    for keeper in ("max", "min"):
        assert set(mdp.energy_min_credit(idle, keeper).values()) == {0}
    assert "preds" not in vars(idle.index)
    rising = parse_model(bench_families().drift_counter(50, 1, None, balanced=True))
    assert max(mdp.energy_min_credit(rising, "min").values()) > 0
    assert "preds" in vars(rising.index)


def test_energy_finite_credits_bounded():
    for game in random_games(25, sizes=(4, 5), seed=112, reward_location="transitions"):
        credit = mdp.energy_min_credit(game, "max")
        for value in credit.values():
            assert value == mdp.INFINITE_CREDIT or 0 <= value <= len(game.states)


# -- qualitative and quantitative limits --------------------------------------


def test_qualitative_negative_loop():
    game = parse_model("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=-1\n")
    region = mdp.quantitative_limit(game, LIMINF_MINUS_INF, "max").value_one_set
    assert region == frozenset({"s"})


def test_qualitative_two_cycle_bounded_below():
    game = parse_model(
        "ssg rewards=transitions\nstate a owner=max\nstate b owner=max\n"
        "trans a -> b reward=1\ntrans b -> a reward=-1\n"
    )
    result = mdp.quantitative_limit(game, LIMINF_GT_MINUS_INF, "max")
    assert result.value_one_set == frozenset({"a", "b"})
    assert result.witness_max.choice == {"a": 0, "b": 0}
    credit = mdp.energy_min_credit(game, "max")
    assert credit == {"a": 0, "b": 1}


def test_qualitative_fair_walk(fair_walk):
    game = oc_to_reward_ssg(fair_walk)
    minus = mdp.quantitative_limit(game, LIMINF_MINUS_INF, "max").value_one_set
    plus = mdp.quantitative_limit(game, LIMINF_PLUS_INF, "max").value_one_set
    assert minus == frozenset({"s"})
    assert plus == frozenset()


def test_spec_divergence_predicate_counterexample():
    # Zero minimal gain and a nonzero cycle, yet rewards never go negative:
    # liminf=-inf is unreachable and the solver must say so.
    game = parse_model(
        "ssg rewards=transitions\nstate a owner=max\nstate b owner=rand\nstate c owner=rand\n"
        "trans a -> b reward=0\ntrans a -> c reward=0\n"
        "trans b -> a p=1/1 reward=0\ntrans c -> a p=1/1 reward=1\n"
    )
    region = mdp.quantitative_limit(game, LIMINF_MINUS_INF, "max").value_one_set
    assert region == frozenset()
    values = mdp.quantitative_limit(game, LIMINF_MINUS_INF, "max").values
    assert set(values.values()) == {0}


def _zero_drift_mdp(rng, n, reward_location):
    """Max/rand MDP with up to 10 controlled states and mostly nonnegative
    rewards, so zero minimal gain on an inconsistent MEC is common."""
    ids = [f"v{i}" for i in range(n)]
    rewards = (-1, 0, 0, 1, 1)
    states = []
    for sid in ids:
        owner = "rand" if rng.random() < 0.4 else "max"
        targets = [rng.choice(ids) for _ in range(rng.choice((1, 2, 2, 3)))]
        probs = [Fraction(1, len(targets))] * len(targets) if owner == "rand" else [None] * len(targets)
        if reward_location == "states":
            trans = tuple(Transition(t, prob=p) for t, p in zip(targets, probs))
            states.append(State(sid, owner, reward=rng.choice(rewards), transitions=trans))
        else:
            trans = tuple(Transition(t, prob=p, reward=rng.choice(rewards)) for t, p in zip(targets, probs))
            states.append(State(sid, owner, transitions=trans))
    return Ssg(tuple(states), reward_location=reward_location)


def _zero_drift_mecs(game):
    """The MECs (nodes of the game's index) of minimal gain 0 without a
    potential."""
    rule = mdp._MEC_RULES["liminf-minus-inf"]
    mecs = []
    for mec in mdp._mecs(game.index):
        named = named_mec(game.index, mec)
        sub, _ = restrict_to_mec(game, named)
        if mdp._mec_gain(game.index, mec, rule)[0] == 0 and certify.potential(sub, named.members) is None:
            mecs.append(mec)
    return mecs


def test_zero_drift_cores_match_oracle():
    rng = random.Random(2010)
    checked = cores = 0
    while checked < 80:
        game = _zero_drift_mdp(rng, rng.randint(3, 10), rng.choice(("states", "transitions")))
        profiles = 1
        for sid in game.controlled_ids():
            profiles *= len(game.state(sid).transitions)
        mecs = _zero_drift_mecs(game) if profiles <= 1024 else []
        if not mecs:
            continue
        checked += 1
        cores += any(mdp._mec_part(game.index, mec, mdp._MEC_RULES["liminf-minus-inf"])[0] for mec in mecs)
        result = mdp.quantitative_limit(game, LIMINF_MINUS_INF, "max")
        assert result.values == oracle.enumerate_solve(game, LIMINF_MINUS_INF).values
        induced = _fix(game, result.witness_max)
        assert certify.chain_tail_value(induced, LIMINF_MINUS_INF) == result.values
    assert 0 < cores < checked


def test_zero_drift_ring_has_no_core():
    # k Max states in a cycle, each with a reward-0 and a reward-+1 edge to
    # the next: minimal gain 0, no potential, and no prefix sum ever drops.
    k = 16
    lines = ["ssg rewards=transitions"] + [f"state r{i} owner=max" for i in range(k)]
    for i in range(k):
        lines += [f"trans r{i} -> r{(i + 1) % k} reward=0", f"trans r{i} -> r{(i + 1) % k} reward=1"]
    game = parse_model("\n".join(lines) + "\n")
    values = mdp.quantitative_limit(game, LIMINF_MINUS_INF, "max").values
    assert set(values.values()) == {0}


def test_zero_drift_noisy_rand_loop_is_a_core():
    # Through r the walk steps +-1 with equal odds: gain 0 but no potential,
    # so liminf=-inf holds almost surely once Max stops taking m's +1 loop.
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\nstate r owner=rand\n"
        "trans m -> m reward=1\ntrans m -> r reward=0\n"
        "trans r -> m p=1/2 reward=1\ntrans r -> m p=1/2 reward=-1\n"
    )
    result = mdp.quantitative_limit(game, LIMINF_MINUS_INF, "max")
    assert result.values == {"m": 1, "r": 1}
    assert result.witness_max.choice == {"m": 1}


def test_quantitative_divergence_two_thirds():
    game = parse_model(
        "ssg rewards=transitions\nstate root owner=rand\nstate osc owner=rand\nstate up owner=rand\n"
        "trans root -> osc p=2/3 reward=0\ntrans root -> up p=1/3 reward=0\n"
        "trans osc -> osc p=1/2 reward=1\ntrans osc -> osc p=1/2 reward=-1\n"
        "trans up -> up p=1/1 reward=1\n"
    )
    result = mdp.quantitative_limit(game, LIMINF_MINUS_INF, "max")
    assert result.values["root"] == Fraction(2, 3)
    reference = oracle.enumerate_solve(game, LIMINF_MINUS_INF)
    assert result.values == reference.values


def test_limits_match_oracle_and_complement_identity():
    for game in random_games(25, sizes=(3, 4), seed=777, reward_location="transitions"):
        game = as_mdp(game)
        for objective in LIMIT_OBJECTIVES:
            result = mdp.quantitative_limit(game, objective, "max")
            reference = oracle.enumerate_solve(game, objective)
            assert result.values == reference.values, objective.kind
            flipped = mdp.quantitative_limit(game, objective.complement(), "min")
            for sid in game.ids():
                assert flipped.values[sid] == 1 - result.values[sid]


def test_pm_di_equivalence_statewise():
    for game in random_games(25, sizes=(3, 4), seed=888, reward_location="transitions"):
        game = as_mdp(game)
        mean = mdp.quantitative_limit(game, MEAN_GT, "max").values
        liminf = mdp.quantitative_limit(game, LIMINF_PLUS_INF, "max").values
        assert mean == liminf


def test_witness_self_consistency():
    for game in random_games(25, sizes=(3, 4), seed=999, reward_location="transitions"):
        game = as_mdp(game)
        for objective in LIMIT_OBJECTIVES:
            result = mdp.quantitative_limit(game, objective, "max")
            witness = result.witness_max or result.witness_min
            induced = _fix(game, witness)
            reproduced = certify.chain_tail_value(induced, objective)
            assert reproduced == result.values, objective.kind


def test_one_player_calls_on_a_parsed_game_build_no_states(built_states):
    # The one-player and chain entry points check their input on the
    # index, so on a parsed game they build no `State` or `Transition`.
    game = parse_model((DATA / "mdp-n20-f1.ssg").read_text())
    start = game.ids()[0]
    values = mdp.quantitative_limit(game, MEAN_GT).values
    assert set(mdp.solve_reachability(game, [start], "max").values) == set(values)
    assert mdp.mec_decompose(game)
    assert len(mdp.energy_min_credit(game)) == len(values)
    sigma = PureMemorylessStrategy("max", dict.fromkeys(game.owner_ids("max"), 0))
    stats = oracle.simulate(game, [sigma], start, steps=50, trials=3, seed=5, j=2)
    assert stats.trials == len(stats.records) == 3
    assert 0 <= oracle.estimate_objective(game, [sigma], MEAN_GT, None, 50, 3, 5, start) <= 1
    walk = parse_model(FAIR_WALK_TEXT)
    assert certify.chain_tail_value(walk, LIMINF_MINUS_INF) == {"s": 1}
    assert certify.reach_probabilities(walk, ["s"]) == {"s": 1}
    assert built_states == {}
