import pytest

from ocsg import certify, oracle
from ocsg.model import (
    LIMINF_MINUS_INF,
    LIMINF_PLUS_INF,
    MEAN_GT,
    Objective,
    PureMemorylessStrategy,
    parse_model,
)


def test_enumerate_player_free_equals_chain_value():
    game = parse_model(
        "ssg rewards=transitions\nstate a owner=rand\nstate b owner=rand\n"
        "trans a -> b p=1/3 reward=-1\ntrans a -> a p=2/3 reward=1\ntrans b -> b p=1/1 reward=-1\n"
    )
    result = oracle.enumerate_solve(game, LIMINF_MINUS_INF)
    assert result.values == certify.chain_tail_value(game, LIMINF_MINUS_INF)


def test_enumerate_single_choice_game():
    game = parse_model(
        "ssg rewards=transitions\nstate m owner=max\nstate s owner=rand\n"
        "trans m -> s reward=1\ntrans s -> m p=1/1 reward=-1\n"
    )
    result = oracle.enumerate_solve(game, MEAN_GT)
    assert result.values == {"m": 0, "s": 0}
    assert result.witness_max.choice == {"m": 0}


def test_enumerate_guard():
    states = ["state x%d owner=max" % i for i in range(25)]
    edges = []
    for i in range(25):
        edges.append(f"trans x{i} -> x{(i + 1) % 25} reward=0")
        edges.append(f"trans x{i} -> x{(i + 2) % 25} reward=0")
    text = "ssg rewards=transitions\n" + "\n".join(states + edges) + "\n"
    with pytest.raises(oracle.EnumerationTooLarge):
        oracle.enumerate_solve(parse_model(text), MEAN_GT)


def test_simulation_determinism(five_state_game):
    pi = PureMemorylessStrategy("min", {"v": 0})
    a = oracle.simulate(five_state_game, (pi,), "v", 200, 300, seed=99, j=1)
    b = oracle.simulate(five_state_game, (pi,), "v", 200, 300, seed=99, j=1)
    assert a == b
    c = oracle.simulate(five_state_game, (pi,), "v", 200, 300, seed=100, j=1)
    assert a.records != c.records


def test_simulate_requires_seed(fair_walk):
    with pytest.raises(ValueError):
        oracle.simulate(fair_walk, (), "s", 10, 10, seed=None)


@pytest.mark.parametrize("j", [1.5, True])
def test_simulate_requires_an_int_j(fair_walk, j):
    # At j = 1.5 the running sum never hits -j, so termination would read 0.
    with pytest.raises(ValueError, match=f"^simulation requires an int j, got {j}$"):
        oracle.simulate(fair_walk, (), "s", 10, 10, seed=1, j=j)


def test_simulate_needs_a_strategy_for_every_controlled_state(five_state_game):
    with pytest.raises(ValueError, match="^v: no strategy resolves this state$"):
        oracle.simulate(five_state_game, (), "v", 10, 10, seed=1)


def test_strategy_errors_cut_a_long_state_id():
    sid = "x" * 5000
    game = parse_model(f"ssg rewards=states\nstate {sid} owner=max reward=0\ntrans {sid} -> {sid}\n")
    cases = (
        ((), f"{'x' * 20}...: no strategy resolves this state"),
        ((PureMemorylessStrategy("max", {sid: 3}),), f"invalid transition index 3 at {'x' * 20}..."),
    )
    for strategies, message in cases:
        with pytest.raises(ValueError) as raised:
            oracle.simulate(game, strategies, sid, 10, 10, seed=1)
        assert str(raised.value) == message


def test_unknown_start_is_a_typed_error(fair_walk):
    cases = (("nowhere", "unknown state 'nowhere'"), ("x" * 5000, f"unknown state {'x' * 20!r}..."))
    for start, message in cases:
        with pytest.raises(ValueError) as raised:
            oracle.simulate(fair_walk, (), start, 10, 10, seed=1)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            oracle.estimate_objective(fair_walk, (), Objective.term(1), None, 10, 10, 1, start)
        assert str(raised.value) == message


def test_always_increment_min_prefix_zero():
    game = parse_model("ocssg\nstate s owner=rand\ntrans s -> s p=1/1 delta=1\n")
    stats = oracle.simulate(game, (), "s", 100, 50, seed=5)
    assert stats.frequency(lambda r: r.min_prefix_sum == 0) == 1
    assert all(r.max_prefix_sum == 100 for r in stats.records)


def test_estimate_term_proxy_matches_simulation():
    game = parse_model(
        "ocssg\nstate s owner=rand\ntrans s -> s p=1/2 delta=1\ntrans s -> s p=1/2 delta=-1\n"
    )
    freq = oracle.estimate_objective(game, (), Objective.term(1), None, 2_000, 500, 17, "s")
    stats = oracle.simulate(game, (), "s", 2_000, 500, seed=17, j=1, stop_at_termination=True)
    assert freq == stats.termination_frequency


def test_down_walk_third_termination_near_half():
    # P(hit -1) solves x = 1/3 + 2/3 x^2, so x = 1/2.
    game = parse_model(
        "ocssg\nstate s owner=rand\ntrans s -> s p=1/3 delta=-1\ntrans s -> s p=2/3 delta=1\n"
    )
    trials = 10_000
    stats = oracle.simulate(game, (), "s", 1_500, trials, seed=31337, j=1, stop_at_termination=True)
    freq = stats.termination_frequency
    sigma = (0.25 / trials) ** 0.5
    assert abs(float(freq) - 0.5) <= 3 * sigma


def test_estimate_plus_proxy_on_drift():
    game = parse_model("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=1\n")
    freq = oracle.estimate_objective(game, (), LIMINF_PLUS_INF, 50, 2_000, 200, 7, "s")
    assert freq == 1


def test_estimate_minus_proxy_on_drift():
    game = parse_model("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=-1\n")
    freq = oracle.estimate_objective(game, (), LIMINF_MINUS_INF, 50, 2_000, 200, 7, "s")
    assert freq == 1


def test_threshold_is_read_only_by_the_threshold_proxies():
    # The term and mean-gt proxies read no threshold, so none may be given;
    # the two threshold proxies need a positive one.
    game = parse_model("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=1\n")
    for objective in (Objective.term(1), MEAN_GT):
        for threshold in (0, 50):
            with pytest.raises(ValueError) as raised:
                oracle.estimate_objective(game, (), objective, threshold, 10, 10, 1, "s")
            assert str(raised.value) == "threshold applies only to liminf-minus-inf or liminf-plus-inf"
        assert oracle.estimate_objective(game, (), objective, None, 10, 10, 1, "s") in (0, 1)
    for objective in (LIMINF_MINUS_INF, LIMINF_PLUS_INF):
        for threshold in (None, 0, -1):
            with pytest.raises(ValueError) as raised:
                oracle.estimate_objective(game, (), objective, threshold, 10, 10, 1, "s")
            assert str(raised.value) == "threshold must be positive"


def test_estimate_bounded_cycle_never_dips():
    game = parse_model(
        "ssg rewards=transitions\nstate a owner=rand\nstate b owner=rand\n"
        "trans a -> b p=1/1 reward=1\ntrans b -> a p=1/1 reward=-1\n"
    )
    freq = oracle.estimate_objective(game, (), LIMINF_MINUS_INF, 2, 500, 100, 11, "a")
    assert freq == 0


def test_finite_memory_strategy_in_simulation(five_state_game):
    from ocsg.termination import synthesize_term_strategies

    _, pi = synthesize_term_strategies(five_state_game, "v", 1)
    stats = oracle.simulate(five_state_game, (pi,), "v", 500, 2_000, seed=321, j=1, stop_at_termination=True)
    # Exact termination value under the witness is 1/2.
    freq = float(stats.termination_frequency)
    sigma = (0.25 / 2_000) ** 0.5
    assert abs(freq - 0.5) <= 3 * sigma


def test_statistical_consistency_against_exact_reachability():
    # Exact solver value vs Monte Carlo frequency, three-sigma band.
    game = parse_model(
        "ssg rewards=states\n"
        "state s owner=rand reward=0\nstate m owner=rand reward=0\nstate t owner=rand reward=0\n"
        "state dead owner=rand reward=0\n"
        "trans s -> m p=3/4\ntrans s -> dead p=1/4\ntrans m -> t p=1/4\ntrans m -> s p=3/4\n"
        "trans t -> t p=1/1\ntrans dead -> dead p=1/1\n"
    )
    exact = certify.reach_probabilities(game, {"t"})["s"]
    counter = parse_model(
        "ocssg\n"
        "state s owner=rand\nstate m owner=rand\nstate t owner=rand\nstate dead owner=rand\n"
        "trans s -> m p=3/4 delta=0\ntrans s -> dead p=1/4 delta=0\n"
        "trans m -> t p=1/4 delta=-1\ntrans m -> s p=3/4 delta=0\n"
        "trans t -> t p=1/1 delta=0\ntrans dead -> dead p=1/1 delta=0\n"
    )
    trials = 20_000
    stats = oracle.simulate(counter, (), "s", 300, trials, seed=181818, j=1, stop_at_termination=True)
    freq = stats.termination_frequency
    sigma = (float(exact * (1 - exact)) / trials) ** 0.5
    assert abs(float(freq - exact)) <= 3 * sigma
