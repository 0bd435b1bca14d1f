import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ocsg import certify, mdp, ssg, termination
from ocsg.model import (
    LIMINF_MINUS_INF,
    LIMIT_OBJECTIVES,
    PureMemorylessStrategy,
    fix_strategies,
    parse_model,
)

from conftest import FIVE_STATE_TEXT
from grids import (
    arrival_counter_view,
    bench_families,
    build_level_game,
    exhaustive_games,
    level_id,
    level_product,
    oc_to_reward_ssg,
    random_game,
    random_games,
    reference_almost_sure_reach,
    two_player_almost_sure_reach,
)


def test_counter_game_solves_like_its_reward_view():
    """Solvers read deltas from ``Index.weight``, so a counter game
    as parsed and its reward view give the same solve (values, value-1 set,
    both witnesses, method), energy credits and value-1 thresholds, choices
    included."""
    for index, game in enumerate(exhaustive_games()):
        counter = arrival_counter_view(game)
        rewards = oc_to_reward_ssg(counter)
        solves = {objective: ssg.solve_limit_ssg(counter, objective) for objective in LIMIT_OBJECTIVES}
        for objective, solve in solves.items():
            assert solve == ssg.solve_limit_ssg(rewards, objective), (index, objective.kind)
        for keeper in ("max", "min"):
            assert mdp.energy_min_credit(counter, keeper) == mdp.energy_min_credit(rewards, keeper), index
        w = solves[LIMINF_MINUS_INF].result.value_one_set
        safe = [sid in w for sid in counter.index.ids]
        thresholds = termination._value_one_thresholds(counter.index, safe, choices=True)
        assert thresholds == termination._value_one_thresholds(rewards.index, safe, choices=True), index


# -- level product (the tests/grids.py reference) ------------------------------


def _node(game, state_id, level, j):
    """The level-product node of ``state_id`` at ``level`` for initial counter j."""
    return game.ids().index(state_id) * (len(game.states) + 1) + level + j


def test_level_game_counts_two_states():
    base = oc_to_reward_ssg(
        parse_model(
            "ocssg\nstate a owner=rand\nstate b owner=rand\n"
            "trans a -> b p=1/1 delta=1\ntrans b -> a p=1/1 delta=-1\n"
        )
    )
    graph, _ = level_product(base, frozenset())
    assert len(graph.succ) == 6
    levels = {divmod(v, 3)[1] - 1 for v in range(len(graph.succ))}
    assert levels == {-1, 0, 1}


def test_level_game_counts_appendix(five_state_game):
    base = oc_to_reward_ssg(five_state_game)
    graph, _ = level_product(base, frozenset())
    assert len(graph.succ) == 30


def test_level_game_value_one_rows_are_targets(five_state_game):
    base = oc_to_reward_ssg(five_state_game)
    _, targets = level_product(base, frozenset({"down"}))
    for i in range(-1, 5):
        assert _node(base, "down", i, 1) in targets
    assert _node(base, "up", 0, 1) not in targets
    assert _node(base, "up", -1, 1) in targets


def test_level_game_rejects_large_j(five_state_game):
    # The reference; the program sends j >= |V| to the limit branch.
    base = oc_to_reward_ssg(five_state_game)
    with pytest.raises(ValueError):
        build_level_game(base, 5, frozenset())
    assert termination.decide_term_one(five_state_game, "v", 5).branch == "limit"


def test_level_game_boundary_absorbing(five_state_game):
    # Play stops at both boundaries: the bottom copies are targets and the
    # top copies dead ends, none with a successor, and the top loses.
    base = oc_to_reward_ssg(five_state_game)
    graph, targets = level_product(base, frozenset())
    top = _node(base, "v", 4, 1)
    bottom = _node(base, "v", -1, 1)
    assert graph.succ[top] == graph.succ[bottom] == ()
    assert bottom in targets and top not in targets
    assert top not in two_player_almost_sure_reach(graph, targets).winning


def _reference_as_product(game, level):
    """Almost-sure reach on the reference level game with its ``<id>@<level>``
    keys mapped to level-product nodes.  The reference's top copies keep a
    self-loop, by which a Min copy there spoils; the product's are dead
    ends, so those spoil choices are left out."""
    asr = reference_almost_sure_reach(level.game, level.targets)

    def node(lid):
        return _node(game, *level.to_base[lid], level.j)

    return (
        {node(lid) for lid in asr.winning},
        {node(lid): k for lid, k in asr.max_choice.items()},
        {node(lid): k for lid, k in asr.spoil_choice.items() if level.to_base[lid][1] != level.hi},
    )


def test_level_product_matches_reference_level_game():
    """Winning set, Max choices and spoil choices of almost-sure reach on the
    level product equal those on the reference ``Ssg`` level game, for every
    1 <= j < |V| (so for every start at level 0)."""
    games = exhaustive_games() + random_games(60, sizes=(3, 4, 5), seed=1515)
    compared = 0
    for index, game in enumerate(games):
        counter = arrival_counter_view(game)
        w = ssg.solve_limit_ssg(counter, LIMINF_MINUS_INF).result.value_one_set
        graph, targets = level_product(counter, w)
        asr = two_player_almost_sure_reach(graph, targets)
        got = (set(asr.winning), asr.max_choice, asr.spoil_choice)
        for j in range(1, len(counter.states)):
            assert got == _reference_as_product(counter, build_level_game(counter, j, w)), (index, j)
            compared += 1
    assert compared > 3000


def _random_counter(seed, n):
    return arrival_counter_view(random_game(random.Random(seed), n))


@settings(max_examples=150, deadline=None)
@given(st.builds(_random_counter, st.integers(0, 10**6), st.integers(2, 7)), st.randoms(use_true_random=False))
def test_level_product_asr_matches_the_set_based_reference(counter, rng):
    # The product takes any target set, so W is drawn at random here.
    w = frozenset(sid for sid in counter.ids() if rng.random() < 0.3)
    graph, targets = level_product(counter, w)
    asr = two_player_almost_sure_reach(graph, targets)
    got = (set(asr.winning), asr.max_choice, asr.spoil_choice)
    for j in range(1, len(counter.states)):
        assert got == _reference_as_product(counter, build_level_game(counter, j, w)), j


def test_start_in_w_has_value_one_on_the_full_product():
    # A start in the liminf=-inf value-1 set W answers value 1 with no
    # product; almost-sure reach on the full reference level game agrees
    # at every j <= |V|.
    checked = 0
    for game in exhaustive_games():
        counter = arrival_counter_view(game)
        n = len(counter.states)
        w = ssg.solve_limit_ssg(counter, LIMINF_MINUS_INF).result.value_one_set
        for j in range(1, n + 1):
            level = build_level_game(counter, j, w, hi=n if j == n else None)
            winning = reference_almost_sure_reach(level.game, level.targets).winning
            for start in w:
                assert level_id(start, 0) in winning
                assert termination.decide_term_one(counter, start, j).value_one
                checked += 1
    assert checked > 1000


def _reference_winning_offsets(counter, w):
    """Per state, its offsets in 0..|V| that almost-sure reach on the
    reference level product wins."""
    n = len(counter.index.ids)
    graph, targets = level_product(counter, w)
    winning = two_player_almost_sure_reach(graph, targets).winning
    return [{o for o in range(n + 1) if i * (n + 1) + o in winning} for i in range(n)]


def _assert_thresholds_match(counter, w):
    """The thresholds answer every state at every offset 0..|V| as almost-sure
    reach on the reference product does; returns the pairs compared."""
    index = counter.index
    n = len(index.ids)
    safe = [sid in w for sid in index.ids]
    top = termination._value_one_thresholds(index, safe, choices=False).top
    assert top == termination._value_one_thresholds(index, safe, choices=True).top
    for i, won in enumerate(_reference_winning_offsets(counter, w)):
        assert won == {o for o in range(n + 1) if safe[i] or o <= top[i]}, (index.ids[i], top)
    return n * (n + 1)


def test_thresholds_match_the_product_on_the_grid():
    # W is the liminf=-inf value-1 set, then empty, then a seeded draw.
    rng = random.Random(2828)
    compared = 0
    for game in exhaustive_games() + random_games(60, sizes=(4, 5, 6), seed=2929):
        counter = arrival_counter_view(game)
        w = ssg.solve_limit_ssg(counter, LIMINF_MINUS_INF).result.value_one_set
        for safe in (w, frozenset(), frozenset(sid for sid in counter.ids() if rng.random() < 0.3)):
            compared += _assert_thresholds_match(counter, safe)
    assert compared > 15000


def test_thresholds_match_the_product_on_bench_counters():
    # Seeded chance (2, 4 or 8 controlled states), dense and drift counters
    # with n <= 30, each with its own W and with W empty.
    families = bench_families()
    rng = random.Random(3030)
    compared, nonempty = 0, 0
    for f in range(1, 31):
        texts = [
            families.chance_counter(rng.randint(8, 30), f, None, controlled=rng.choice((2, 4, 8))),
            families.dense_counter(rng.randint(2, 20), f, None),
            families.drift_counter(rng.randint(2, 30), f, None, balanced=bool(f % 2)),
        ]
        for text in texts:
            counter = parse_model(text)
            w = ssg.solve_limit_ssg(counter, LIMINF_MINUS_INF).result.value_one_set
            nonempty += bool(w)
            for safe in (w, frozenset()):
                compared += _assert_thresholds_match(counter, safe)
    assert nonempty >= 20 and compared > 50000


def test_value_one_is_downward_closed():
    # In the reference product each state's winning offsets are 0..a(i),
    # and decide_term_one's answer never turns true as j grows.
    for game in random_games(40, sizes=(3, 4, 5), seed=3131):
        counter = arrival_counter_view(game)
        w = ssg.solve_limit_ssg(counter, LIMINF_MINUS_INF).result.value_one_set
        for offsets in _reference_winning_offsets(counter, w):
            assert offsets == set(range(len(offsets))), offsets
        n = len(counter.states)
        for start in counter.ids():
            answers = [termination.decide_term_one(counter, start, j).value_one for j in range(1, n + 2)]
            assert answers == sorted(answers, reverse=True), (start, answers)


def test_level_branch_builds_no_states_and_runs_no_reach(built_states, monkeypatch):
    # With the liminf=-inf solve done up front, a value-1 query and a
    # synthesis on the level branch build no `State` or `Transition` and
    # run no almost-sure reach: the thresholds read the parsed game's
    # index.  The chance counters have value 1 at j = 1 only, so both
    # witnesses come.
    data = Path(__file__).parent / "data"
    games = [(parse_model(FIVE_STATE_TEXT), "v")]
    games += [(parse_model((data / f"chance-n8-f{f}.ocssg").read_text()), "c0") for f in (1, 27)]

    def forbidden(*args):
        raise AssertionError("almost-sure reach ran")

    for counter, start in games:
        solve = ssg.solve_limit_ssg(counter, LIMINF_MINUS_INF)
        assert start not in solve.result.value_one_set
        with monkeypatch.context() as patch:
            patch.setattr(ssg, "solve_limit_ssg", lambda g, objective, _solve=solve: _solve)
            patch.setattr(mdp, "almost_sure_reach", forbidden)
            for j in (1, 2):
                assert termination.decide_term_one(counter, start, j).branch == "level"
                termination.synthesize_term_strategies(counter, start, j)
    assert built_states == {}


def test_a_decision_records_no_choice_table(monkeypatch):
    # The level-branch decision reads only the thresholds, so it records
    # neither Max's bands nor Min's spoiling edges; a synthesis records
    # both, over the same thresholds.
    data = Path(__file__).parent / "data"
    games = [(parse_model(FIVE_STATE_TEXT), "v")]
    games += [(parse_model((data / f"chance-n8-f{f}.ocssg").read_text()), "c0") for f in (1, 27)]
    recorded = []

    def spy(*args, _thresholds=termination._value_one_thresholds, **kwargs):
        recorded.append(_thresholds(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(termination, "_value_one_thresholds", spy)
    for counter, start in games:
        for j in (1, 2):
            recorded.clear()
            assert termination.decide_term_one(counter, start, j).branch == "level"
            termination.synthesize_term_strategies(counter, start, j)
            decision, synthesis = recorded
            assert decision.max_choice is None and decision.spoil is None
            assert synthesis.max_choice is not None and synthesis.spoil is not None
            assert decision.top == synthesis.top


def test_start_in_the_liminf_value_one_set_builds_no_product(monkeypatch):
    # Every state of the dense counter fixture has liminf=-inf value 1, so
    # the start wins at every j < |V|: value 1, no threshold fixpoint.
    game = parse_model((Path(__file__).parent / "data" / "dcounter-n24-f7.ocssg").read_text())

    def forbidden(*args):
        raise AssertionError("a level product was built")

    monkeypatch.setattr(termination, "_value_one_thresholds", forbidden)
    for j in (1, 2, 23):
        decision = termination.decide_term_one(game, "s0", j)
        assert (decision.value_one, decision.branch, decision.start_level_state) == (True, "level", "s0@0")
        sigma, pi = termination.synthesize_term_strategies(game, "s0", j)
        assert pi is None and set(sigma.choice) == set(game.owner_ids("max"))


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


def test_term_zero_rejects_unknown_start(fair_walk):
    for j in (1, 2):
        with pytest.raises(ValueError, match="unknown state 'nowhere'"):
            termination.decide_term_zero(fair_walk, "nowhere", j)


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
        counter = arrival_counter_view(game)
        start = rng.choice(counter.ids())
        for j in (1, 2, len(counter.states)):
            one = termination.decide_term_one(counter, start, j).value_one
            zero = termination.decide_term_zero(counter, start, j)
            assert not (one and zero)


def test_limit_branch_agrees_with_widened_level_branch():
    for game in random_games(15, sizes=(3,), seed=66):
        counter = arrival_counter_view(game)
        j = len(counter.states)
        rewards = oc_to_reward_ssg(counter)
        w = ssg.solve_limit_ssg(rewards, LIMINF_MINUS_INF).result.value_one_set
        level = build_level_game(rewards, j, w, hi=len(counter.states))
        asr = reference_almost_sure_reach(level.game, level.targets)
        for start in counter.ids():
            direct = termination.decide_term_one(counter, start, j)
            assert direct.branch == "limit"
            widened = level_id(start, 0) in asr.winning
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
        counter = arrival_counter_view(game)
        chain = fix_strategies(
            counter,
            PureMemorylessStrategy("max", {sid: 0 for sid in counter.owner_ids("max")}),
            PureMemorylessStrategy("min", {sid: 0 for sid in counter.owner_ids("min")}),
        )
        start = rng.choice(chain.ids())
        values = [truncated(chain, start, j, 24) for j in (1, 2, 3)]
        assert values[0] >= values[1] >= values[2]


# -- strategy synthesis --------------------------------------------------------


@pytest.mark.parametrize("j", [1.5, True])
def test_termination_requires_an_int_j(j):
    # 1.5 would be answered by the thresholds and True read as j = 1.
    game = parse_model((Path(__file__).parent / "data" / "chance-n8-f1.ocssg").read_text())
    for entry in (termination.decide_term_one, termination.decide_term_zero, termination.synthesize_term_strategies):
        with pytest.raises(ValueError, match=f"^termination requires an int j, got {j}$"):
            entry(game, "c0", j)


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
        counter = arrival_counter_view(game)
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
                    product, pstart = certify.product_with_strategy(counter, pi, start)
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
        product, pstart = certify.product_with_strategy(five_state_game, pi, "v")
        assert not termination.decide_term_one(product, pstart, j).value_one


def test_min_witness_memory_bound():
    for game in random_games(10, sizes=(4,), seed=101):
        counter = arrival_counter_view(game)
        start = counter.ids()[0]
        for j in (1, 2, 3):
            decision = termination.decide_term_one(counter, start, j)
            if decision.value_one:
                continue
            _, pi = termination.synthesize_term_strategies(counter, start, j)
            assert pi.memory_size <= len(counter.states)


def _level_min_witnesses():
    """(game, start, j, pi) for every level-branch Min witness of random and
    chance counter games, j < |V|."""
    games = [arrival_counter_view(game) for game in random_games(30, sizes=(4, 5), seed=4606)]
    games += [parse_model(bench_families().chance_counter(n, f, None)) for n in (6, 8, 10) for f in range(1, 6)]
    for game in games:
        for start in game.ids():
            for j in range(1, len(game.states)):
                _, pi = termination.synthesize_term_strategies(game, start, j)
                if pi is not None:
                    yield game, start, j, pi


def test_min_witness_memory_is_the_clamped_counter():
    checked = 0
    for game, _, j, pi in _level_min_witnesses():
        lo, hi = 1 - j, len(game.states) - j
        assert (pi.lo, pi.hi, pi.initial_memory, pi.memory_size) == (lo, hi, 0, len(game.states))
        for s in game.states:
            for k, t in enumerate(s.transitions):
                for m in range(lo, hi + 1):
                    expected = hi if m == hi else min(max(m + t.delta, lo), hi)
                    assert pi.next_memory(m, s.id, k) == expected
        checked += 1
    assert checked > 100


def test_min_witness_bands_are_the_spoiling_table():
    # Below the top memory Min spoils at offset m + j; at the top it plays
    # its liminf witness.  Bands are maximal runs starting at lo, and so are
    # Max's attractor bands.
    checked = 0
    for game, start, j, pi in _level_min_witnesses():
        solve, thresholds = termination._term_pipeline(game, start, j, choices=True)
        index = game.index
        for i, (sid, who) in enumerate(zip(index.ids, index.owner)):
            runs = pi.bands[sid] if who == "min" else thresholds.max_choice[i] if who == "max" else ()
            firsts = [first for first, _ in runs]
            assert firsts == sorted(set(firsts)) and all(a[1] != b[1] for a, b in zip(runs, runs[1:]))
            if who != "min":
                continue
            assert firsts[0] == pi.lo
            for m in range(pi.lo, pi.hi + 1):
                spoiling = thresholds.spoil[i][m + j] if m < pi.hi else solve.result.witness_min.choice[sid]
                assert pi.choose(m, sid) == spoiling
        checked += 1
    assert checked > 100


def test_chance_300_min_witness_is_linear_in_the_game():
    game = parse_model(bench_families().chance_counter(300, 1, None))
    sigma, pi = termination.synthesize_term_strategies(game, "c0", 2)
    assert sigma is None and pi.memory_size == 300
    assert len(pi.delta) == 300 and sum(map(len, pi.delta.values())) == sum(len(s.transitions) for s in game.states)
    assert sum(map(len, pi.bands.values())) == 3


def test_dense_counter_n24_terminates_with_value_one():
    # bench/families.py dense_counter(24, 7, None): the dense instance of
    # test_ssg read as a counter game.
    game = parse_model((Path(__file__).parent / "data" / "dcounter-n24-f7.ocssg").read_text())
    assert termination.decide_term_one(game, "s0", 2).value_one


def _synth_lines():
    """One line per synthesis case: chance counters with n in {8, 16, 30, 40}
    and f 1-6, dense counters with n in {8, 16, 24} and f 1-4, the first three
    states of each, j in {1, 2, 3, n // 2}.  A line names the case, the player
    that gets a witness, and the SHA-256 prefix of the witness's repr.  Each
    witness must pass its ``validate_for`` on the game."""
    families = bench_families()
    texts = [(f"chance-n{n}-f{f}", families.chance_counter(n, f, None)) for n in (8, 16, 30, 40) for f in range(1, 7)]
    texts += [(f"dense-n{n}-f{f}", families.dense_counter(n, f, None)) for n in (8, 16, 24) for f in range(1, 5)]
    for name, text in texts:
        game = parse_model(text)
        n = len(game.states)
        for start in game.ids()[:3]:
            for j in sorted({1, 2, 3, n // 2}):
                sigma, pi = termination.synthesize_term_strategies(game, start, j)
                witness = sigma if pi is None else pi
                witness.validate_for(game)
                text = repr(sigma) if pi is None else _automaton_repr(game, pi)
                digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                yield f"{name} {start} j={j} {witness.player} {digest}"


def _automaton_repr(game, pi):
    """The repr of ``pi`` in the general automaton form the golden file was
    written from: its memory states lo..hi, its initial memory, an update
    entry (memory, state, edge) -> next memory wherever the memory moves,
    and a choice entry (memory, owned state) -> edge, read off through
    ``next_memory`` and ``choose`` in game order."""
    memory = tuple(range(pi.lo, pi.hi + 1))
    update = {}
    for s in game.states:
        for k in range(len(s.transitions)):
            for m in memory:
                if (nxt := pi.next_memory(m, s.id, k)) != m:
                    update[(m, s.id, k)] = nxt
    choice = {(m, sid): pi.choose(m, sid) for sid in game.owner_ids(pi.player) for m in memory}
    return (
        f"FiniteMemoryStrategy(player={pi.player!r}, memory_states={memory!r}, "
        f"initial_memory={pi.initial_memory!r}, update={update!r}, choice={choice!r})"
    )


def test_synthesized_witnesses_match_golden_file():
    # Pins the choice tables that only synthesis reads: Max's attractor
    # bands and Min's spoiling edges, through the strategies built on them.
    # A Min witness is hashed in its expanded automaton form.
    golden = (Path(__file__).parent / "data" / "golden-synth-strategies.txt").read_text().splitlines()
    assert len(golden) > 400 and {line.split()[3] for line in golden} == {"max", "min"}
    assert list(_synth_lines()) == golden
