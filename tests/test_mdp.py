import random
from fractions import Fraction

from ocsg import chain as chain_mod
from ocsg import mdp, oracle
from ocsg.model import (
    LIMINF_GT_MINUS_INF,
    LIMINF_MINUS_INF,
    LIMINF_PLUS_INF,
    LIMIT_OBJECTIVES,
    MEAN_GT,
    PureMemorylessStrategy,
    Ssg,
    State,
    Transition,
    fix_strategies,
    parse_model,
)

from grids import as_mdp, random_games


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
    assert mdp.almost_sure_reach(game, {"t"}).winning == frozenset({"a", "t"})


def test_asr_min_escape_excluded():
    game = parse_model(
        "ssg rewards=states\n"
        "state n owner=min reward=0\nstate t owner=rand reward=0\nstate sink owner=rand reward=0\n"
        "trans n -> t\ntrans n -> sink\ntrans t -> t p=1/1\ntrans sink -> sink p=1/1\n"
    )
    result = mdp.almost_sure_reach(game, {"t"})
    assert "n" not in result.winning
    assert result.spoil_choice["n"] == 1


def test_asr_positive_but_not_almost_sure():
    game = parse_model(
        "ssg rewards=states\n"
        "state a owner=rand reward=0\nstate t owner=rand reward=0\nstate sink owner=rand reward=0\n"
        "trans a -> t p=1/2\ntrans a -> sink p=1/2\ntrans t -> t p=1/1\ntrans sink -> sink p=1/1\n"
    )
    assert mdp.almost_sure_reach(game, {"t"}).winning == frozenset({"t"})


def test_asr_targets_are_absorbing():
    game = parse_model(
        "ssg rewards=states\n"
        "state m owner=min reward=0\nstate c owner=rand reward=0\nstate sink owner=rand reward=0\n"
        "trans m -> m\ntrans m -> sink\ntrans c -> c p=1/2\ntrans c -> sink p=1/2\ntrans sink -> sink p=1/1\n"
    )
    assert mdp.almost_sure_reach(game, {"m", "c"}).winning == frozenset({"m", "c"})


def test_asr_witness_reaches_almost_surely():
    for game in random_games(20, sizes=(4,), seed=2718):
        targets = {game.ids()[0]}
        result = mdp.almost_sure_reach(game, targets)
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
            values = chain_mod.reach_probabilities(chain, targets)
            for sid in result.winning:
                assert values[sid] == 1


# -- expected mean payoff ----------------------------------------------------


def test_mean_payoff_self_loop():
    game = parse_model("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=1\n")
    gain, _ = mdp.expected_mean_payoff(game, "max")
    assert gain["s"] == 1


def test_mean_payoff_max_picks_positive_loop():
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\nstate a owner=rand\nstate b owner=rand\n"
        "trans m -> a reward=0\ntrans m -> b reward=0\n"
        "trans a -> a p=1/1 reward=1\ntrans b -> b p=1/1 reward=-1\n"
    )
    gain, strategy = mdp.expected_mean_payoff(game, "max")
    assert gain["m"] == 1
    assert strategy.choice["m"] == 0


def test_mean_payoff_zero_under_both_choices():
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\nstate a owner=rand\nstate b owner=rand\n"
        "trans m -> m reward=0\ntrans m -> a reward=0\n"
        "trans a -> b p=1/1 reward=1\ntrans b -> a p=1/1 reward=-1\n"
    )
    for choice in (0, 1):
        gain, _ = mdp._evaluate_gain_bias(game, {"m": choice})
        assert gain["m"] == 0
    gain, _ = mdp.expected_mean_payoff(game, "max")
    assert gain["m"] == 0


def test_mean_payoff_agrees_with_enumeration():
    for game in random_games(20, sizes=(3, 4), seed=1618, reward_location="transitions"):
        game = as_mdp(game)
        for direction in ("max", "min"):
            gain, strategy = mdp.expected_mean_payoff(game, direction)
            ref_gain, _ = oracle.enumerate_mean_payoff(game, direction)
            assert gain == ref_gain
            eval_gain, _ = mdp._evaluate_gain_bias(game, strategy.choice)
            assert eval_gain == gain


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
    from ocsg.model import oc_to_reward_ssg

    game = oc_to_reward_ssg(five_state_game)
    mecs = mdp.mec_decompose(game)
    assert [m.members for m in mecs] == [frozenset({"down"}), frozenset({"up"})]


def test_policy_bsccs_lie_inside_mecs():
    import itertools

    for game in random_games(15, sizes=(4,), seed=41):
        game = as_mdp(game)
        mecs = mdp.mec_decompose(game)
        controlled = [s.id for s in game.states if s.owner != "rand"]
        sizes = [len(game.state(sid).transitions) for sid in controlled]
        for combo in itertools.product(*(range(n) for n in sizes)):
            induced = fix_strategies(game, PureMemorylessStrategy("max", dict(zip(controlled, combo))))
            bsccs, _ = chain_mod.bscc_decompose(induced)
            for members in bsccs:
                assert any(members <= m.members for m in mecs), (members, mecs)


# -- procedure MP ------------------------------------------------------------


def test_procedure_mp_picks_positive_loop():
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\nstate a owner=rand\nstate b owner=rand\n"
        "trans m -> a reward=0\ntrans m -> b reward=0\n"
        "trans a -> a p=1/1 reward=1\ntrans b -> b p=1/1 reward=-1\n"
    )
    strategy = mdp.procedure_mp(game, "m")
    assert strategy is not None
    assert strategy.choice["m"] == 0


def test_procedure_mp_no_when_nonpositive():
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\ntrans m -> m reward=0\ntrans m -> m reward=-1\n"
    )
    assert mdp.procedure_mp(game, "m") is None


def test_procedure_mp_no_for_half_reachable_drift():
    game = parse_model(
        "ssg rewards=transitions\n"
        "state root owner=rand\nstate p owner=rand\nstate d owner=rand\nstate f owner=rand\n"
        "trans root -> p p=1/2 reward=0\ntrans root -> d p=1/2 reward=0\n"
        "trans p -> p p=1/1 reward=1\ntrans d -> f p=1/1 reward=0\ntrans f -> d p=1/1 reward=0\n"
    )
    assert mdp.procedure_mp(game, "root") is None
    assert mdp.procedure_mp(game, "p") is not None
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
        assert mdp.procedure_mp(game, sid) is not None, sid


def test_procedure_mp_matches_mean_gt_region():
    for game in random_games(30, sizes=(3, 4), seed=3141, reward_location="transitions"):
        game = as_mdp(game)
        region, _ = mdp.qualitative_limit(game, MEAN_GT, "max")
        for sid in game.ids():
            assert (mdp.procedure_mp(game, sid) is not None) == (sid in region), sid


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


def test_energy_finite_credits_bounded():
    for game in random_games(25, sizes=(4, 5), seed=112, reward_location="transitions"):
        credit = mdp.energy_min_credit(game, "max")
        for value in credit.values():
            assert value == mdp.INFINITE_CREDIT or 0 <= value <= len(game.states)


# -- qualitative and quantitative limits --------------------------------------


def test_qualitative_negative_loop():
    game = parse_model("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=-1\n")
    region, _ = mdp.qualitative_limit(game, LIMINF_MINUS_INF, "max")
    assert region == frozenset({"s"})


def test_qualitative_two_cycle_bounded_below():
    game = parse_model(
        "ssg rewards=transitions\nstate a owner=max\nstate b owner=max\n"
        "trans a -> b reward=1\ntrans b -> a reward=-1\n"
    )
    region, witness = mdp.qualitative_limit(game, LIMINF_GT_MINUS_INF, "max")
    assert region == frozenset({"a", "b"})
    credit = mdp.energy_min_credit(game, "max")
    assert credit == {"a": 0, "b": 1}


def test_qualitative_fair_walk(fair_walk):
    from ocsg.model import oc_to_reward_ssg

    game = oc_to_reward_ssg(fair_walk)
    minus, _ = mdp.qualitative_limit(game, LIMINF_MINUS_INF, "max")
    plus, _ = mdp.qualitative_limit(game, LIMINF_PLUS_INF, "max")
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
    region, _ = mdp.qualitative_limit(game, LIMINF_MINUS_INF, "max")
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
    return [
        mec
        for mec in mdp.mec_decompose(game)
        if mdp._mec_gain(game, mec, "min")[0] == 0 and chain_mod.potential(game, mec.members, mec.allowed) is None
    ]


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
        cores += any(mdp._divergence_core(game, mec) is not None for mec in mecs)
        result = mdp.quantitative_limit(game, LIMINF_MINUS_INF, "max")
        assert result.values == oracle.enumerate_solve(game, LIMINF_MINUS_INF).values
        induced = _fix(game, result.witness_max)
        assert chain_mod.chain_tail_value(induced, LIMINF_MINUS_INF) == result.values
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
            reproduced = chain_mod.chain_tail_value(induced, objective)
            assert reproduced == result.values, objective.kind
