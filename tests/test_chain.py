from fractions import Fraction
from math import lcm

import pytest

import random

from hypothesis import given, settings, strategies as st

from ocsg import chain as chain_mod
from ocsg import linsolve, mdp, oracle
from ocsg.certify import analyze_bscc, bscc_decompose, chain_tail_value, reach_probabilities
from ocsg.model import (
    LIMINF_MINUS_INF,
    LIMINF_PLUS_INF,
    LIMIT_KINDS,
    PureMemorylessStrategy,
    fix_strategies,
    parse_model,
)

from grids import (
    bench_families,
    certified_reach,
    induced_chain,
    oc_to_reward_ssg,
    random_games,
    reference_hitting_rows,
    reference_stationary_rows,
)


def _chain(text):
    return parse_model(text)


SELF_LOOP = _chain("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=1\n")

FAIR_LOOP = _chain(
    "ssg rewards=transitions\nstate s owner=rand\n"
    "trans s -> s p=1/2 reward=1\ntrans s -> s p=1/2 reward=-1\n"
)

TWO_CYCLE = _chain(
    "ssg rewards=transitions\nstate a owner=rand\nstate b owner=rand\n"
    "trans a -> b p=1/1 reward=1\ntrans b -> a p=1/1 reward=-1\n"
)


def test_bscc_single_self_loop():
    bsccs, transient = bscc_decompose(SELF_LOOP)
    assert bsccs == [frozenset({"s"})]
    assert transient == frozenset()


def test_bscc_cycle_plus_transient():
    game = _chain(
        "ssg rewards=states\n"
        "state t owner=rand reward=0\nstate a owner=rand reward=0\nstate b owner=rand reward=0\n"
        "trans t -> a p=1/1\ntrans a -> b p=1/1\ntrans b -> a p=1/1\n"
    )
    bsccs, transient = bscc_decompose(game)
    assert bsccs == [frozenset({"a", "b"})]
    assert transient == frozenset({"t"})


def test_bscc_appendix_under_always_low(five_state_game):
    chain = fix_strategies(oc_to_reward_ssg(five_state_game), min_strategy=PureMemorylessStrategy("min", {"v": 1}))
    bsccs, transient = bscc_decompose(chain)
    assert sorted(map(sorted, bsccs)) == [["down"], ["up"]]
    assert transient == frozenset({"v", "low", "back"})


def test_analyze_positive_self_loop():
    analysis = analyze_bscc(SELF_LOOP, frozenset({"s"}))
    assert analysis.mean_payoff == 1
    assert analysis.classification["liminf-plus-inf"] == 1
    assert analysis.classification["mean-gt"] == 1
    assert analysis.classification["liminf-minus-inf"] == 0


def test_analyze_deterministic_two_cycle():
    analysis = analyze_bscc(TWO_CYCLE, frozenset({"a", "b"}))
    assert analysis.mean_payoff == 0
    assert analysis.potential == {"a": 0, "b": 1}
    assert analysis.classification["liminf-minus-inf"] == 0
    assert analysis.classification["liminf-gt-minus-inf"] == 1


def test_analyze_fair_walk_degenerate():
    analysis = analyze_bscc(FAIR_LOOP, frozenset({"s"}))
    assert analysis.mean_payoff == 0
    assert analysis.potential is None
    assert analysis.classification["liminf-minus-inf"] == 1
    assert analysis.classification["liminf-plus-inf"] == 0


def test_fair_walk_dip_frequency_matches_reflection_value():
    # Zero-drift dips below -B within the horizon: exact probability is
    # 2 P(S_N <= -(B+2)) by the reflection principle.  Cross-check the
    # formula by brute-force path enumeration at a tiny horizon first.
    def reflected(n, b):
        mass, term = 0, 1  # term = C(n, k), updated incrementally
        for k in range((n - b - 2) // 2 + 1):
            mass += term
            term = term * (n - k) // (k + 1)
        return 2 * Fraction(mass, 2**n)

    def brute(n, b):
        hits = 0
        for bits in range(2**n):
            total, lo = 0, 0
            for i in range(n):
                total += 1 if (bits >> i) & 1 else -1
                lo = min(lo, total)
            hits += lo < -b
        return Fraction(hits, 2**n)

    assert reflected(10, 2) == brute(10, 2)
    assert reflected(12, 4) == brute(12, 4)

    horizon, threshold, trials = 10_000, 50, 1000
    exact = reflected(horizon, threshold)
    freq = oracle.estimate_objective(FAIR_LOOP, (), LIMINF_MINUS_INF, threshold, horizon, trials, 4242, "s")
    sigma = (float(exact * (1 - exact)) / trials) ** 0.5
    assert abs(float(freq - exact)) <= 3 * sigma


def test_stationary_positive_and_normalised():
    game = _chain(
        "ssg rewards=states\n"
        "state a owner=rand reward=1\nstate b owner=rand reward=-1\nstate c owner=rand reward=0\n"
        "trans a -> b p=1/4\ntrans a -> c p=3/4\ntrans b -> a p=1/1\ntrans c -> a p=1/2\ntrans c -> c p=1/2\n"
    )
    analysis = analyze_bscc(game, frozenset({"a", "b", "c"}))
    assert sum(analysis.stationary.values()) == 1
    assert all(v > 0 for v in analysis.stationary.values())
    expected = sum(analysis.stationary[s.id] * s.reward for s in game.states)
    assert analysis.mean_payoff == expected


def test_branching_zero_drift_consistent_chain():
    # Random branching with a potential function: prefix sums stay in [-1, 1]
    # even though the chain is genuinely stochastic.
    game = _chain(
        "ssg rewards=transitions\n"
        "state x owner=rand\nstate y owner=rand\nstate z owner=rand\n"
        "trans x -> y p=1/1 reward=1\n"
        "trans y -> z p=1/2 reward=-1\ntrans y -> x p=1/2 reward=-1\n"
        "trans z -> x p=1/1 reward=0\n"
    )
    analysis = analyze_bscc(game, frozenset({"x", "y", "z"}))
    assert analysis.mean_payoff == 0
    assert analysis.potential == {"x": 0, "y": 1, "z": 0}
    assert analysis.classification["liminf-gt-minus-inf"] == 1
    counter = parse_model(
        "ocssg\nstate x owner=rand\nstate y owner=rand\nstate z owner=rand\n"
        "trans x -> y p=1/1 delta=1\n"
        "trans y -> z p=1/2 delta=-1\ntrans y -> x p=1/2 delta=-1\n"
        "trans z -> x p=1/1 delta=0\n"
    )
    stats = oracle.simulate(counter, (), "x", 2_000, 50, seed=23)
    assert all(-1 <= r.min_prefix_sum and r.max_prefix_sum <= 1 for r in stats.records)


def test_classification_complementarity():
    fixed = [SELF_LOOP, FAIR_LOOP, TWO_CYCLE]
    random_chains = [
        fix_strategies(
            game,
            PureMemorylessStrategy("max", {sid: 0 for sid in game.owner_ids("max")}),
            PureMemorylessStrategy("min", {sid: 0 for sid in game.owner_ids("min")}),
        )
        for game in random_games(15, sizes=(3, 4), seed=2024)
    ]
    for game in fixed + random_chains:
        bsccs, _ = bscc_decompose(game)
        for members in bsccs:
            c = analyze_bscc(game, members).classification
            assert c["liminf-minus-inf"] + c["liminf-gt-minus-inf"] == 1
            assert c["liminf-plus-inf"] + c["liminf-lt-plus-inf"] == 1
            assert c["mean-gt"] + c["mean-leq"] == 1
            assert c["mean-gt"] == c["liminf-plus-inf"]


def test_analyze_rejects_non_bottom_set():
    game = _chain(
        "ssg rewards=states\nstate a owner=rand reward=0\nstate b owner=rand reward=0\n"
        "trans a -> b p=1/1\ntrans b -> b p=1/1\n"
    )
    with pytest.raises(ValueError):
        analyze_bscc(game, frozenset({"a"}))


def test_reach_all_states_target():
    values = reach_probabilities(TWO_CYCLE, {"a", "b"})
    assert values == {"a": 1, "b": 1}


def test_reach_coin():
    game = _chain(
        "ssg rewards=states\n"
        "state s owner=rand reward=0\nstate t owner=rand reward=0\nstate dead owner=rand reward=0\n"
        "trans s -> t p=1/2\ntrans s -> dead p=1/2\ntrans t -> t p=1/1\ntrans dead -> dead p=1/1\n"
    )
    assert reach_probabilities(game, {"t"})["s"] == Fraction(1, 2)


def test_reach_self_loop_third():
    game = _chain(
        "ssg rewards=states\n"
        "state s owner=rand reward=0\nstate t owner=rand reward=0\nstate dead owner=rand reward=0\n"
        "trans s -> s p=1/3\ntrans s -> t p=1/3\ntrans s -> dead p=1/3\n"
        "trans t -> t p=1/1\ntrans dead -> dead p=1/1\n"
    )
    assert reach_probabilities(game, {"t"})["s"] == Fraction(1, 2)


def test_reach_satisfies_one_step_equations():
    game = _chain(
        "ssg rewards=states\n"
        "state s owner=rand reward=0\nstate m owner=rand reward=0\nstate t owner=rand reward=0\n"
        "state dead owner=rand reward=0\n"
        "trans s -> m p=3/4\ntrans s -> dead p=1/4\ntrans m -> t p=1/4\ntrans m -> s p=3/4\n"
        "trans t -> t p=1/1\ntrans dead -> dead p=1/1\n"
    )
    values = reach_probabilities(game, {"t"})
    for s in game.states:
        if s.id == "t" or values[s.id] == 0:
            continue
        assert values[s.id] == sum(t.prob * values[t.target] for t in s.transitions)


def test_chain_tail_value_sure_winner():
    assert chain_tail_value(SELF_LOOP, LIMINF_PLUS_INF) == {"s": 1}


def test_chain_tail_value_coin_between_drifts():
    game = _chain(
        "ssg rewards=transitions\n"
        "state root owner=rand\nstate up owner=rand\nstate downs owner=rand\n"
        "trans root -> up p=1/2 reward=0\ntrans root -> downs p=1/2 reward=0\n"
        "trans up -> up p=1/1 reward=1\ntrans downs -> downs p=1/1 reward=-1\n"
    )
    assert chain_tail_value(game, LIMINF_PLUS_INF)["root"] == Fraction(1, 2)
    assert chain_tail_value(game, LIMINF_MINUS_INF)["root"] == Fraction(1, 2)


def test_chain_tail_value_appendix_always_low(five_state_game):
    chain = fix_strategies(oc_to_reward_ssg(five_state_game), min_strategy=PureMemorylessStrategy("min", {"v": 1}))
    values = chain_tail_value(chain, LIMINF_MINUS_INF)
    assert values["v"] == 0
    assert values["down"] == 1
    assert values["back"] == Fraction(1, 2)


def test_birth_death_walk_of_400_states():
    # Absorbing ends, fair steps in between: hitting the top from state i has
    # probability i/(n-1).  A tridiagonal system that sparse elimination
    # solves without fill-in.
    n = 400
    lines = ["ssg rewards=transitions"] + [f"state w{i} owner=rand" for i in range(n)]
    lines += ["trans w0 -> w0 p=1/1 reward=0", f"trans w{n - 1} -> w{n - 1} p=1/1 reward=0"]
    for i in range(1, n - 1):
        lines += [f"trans w{i} -> w{i - 1} p=1/2 reward=0", f"trans w{i} -> w{i + 1} p=1/2 reward=0"]
    walk = parse_model("\n".join(lines) + "\n")
    values, pivot = certified_reach(walk, {f"w{n - 1}"})
    assert values == reach_probabilities(walk, {f"w{n - 1}"}) == {f"w{i}": Fraction(i, n - 1) for i in range(n)}
    for value in values.values():
        assert pivot % value.denominator == 0


# -- the shared kernels: one winning-signs table, one hitting-rows builder ------


def _paper_rule(kind, mean, has_potential):
    """Whether a closed class of mean ``mean`` wins ``kind``, written out:
    the sign of the mean, and at mean 0 for the two liminf-vs-minus-infinity
    objectives whether the class has a potential."""
    return {
        "liminf-plus-inf": mean > 0,
        "mean-gt": mean > 0,
        "mean-leq": mean <= 0,
        "liminf-lt-plus-inf": mean <= 0,
        "liminf-minus-inf": mean < 0 or (mean == 0 and not has_potential),
        "liminf-gt-minus-inf": mean > 0 or (mean == 0 and has_potential),
    }[kind]


def test_winning_signs_table_is_the_rule_of_chains_and_mecs():
    zero_parts = {"liminf-minus-inf": mdp._noisy_components, "liminf-gt-minus-inf": mdp._quiet_components}
    assert set(chain_mod.WINNING_SIGNS) == set(mdp._MEC_RULES) == set(LIMIT_KINDS)
    for kind in LIMIT_KINDS:
        direction, signs, zero_part = mdp._MEC_RULES[kind]
        assert signs == chain_mod.WINNING_SIGNS[kind][0]
        assert direction == ("max" if kind in ("liminf-plus-inf", "mean-gt", "liminf-gt-minus-inf") else "min")
        assert zero_part is zero_parts.get(kind)
        for mean in (Fraction(-1, 3), Fraction(0), Fraction(5, 2)):
            for has_potential in (False, True):
                asked = []
                wins = chain_mod.class_wins(kind, mean, lambda: asked.append(1) or has_potential)
                assert wins == _paper_rule(kind, mean, has_potential), (kind, mean, has_potential)
                # The potential is tested only where it decides.
                assert bool(asked) == (mean == 0 and kind in zero_parts)
                if zero_part is None or mean != 0:
                    # A MEC of gain ``mean`` wins whole by its sign alone.
                    assert (chain_mod.sign(mean) in signs) == wins


def test_analyze_bscc_classifies_by_the_table():
    cases = [
        (SELF_LOOP, 1, False),
        (_chain("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=-1\n"), -1, False),
        (_chain("ssg rewards=transitions\nstate s owner=rand\ntrans s -> s p=1/1 reward=0\n"), 0, True),
        (TWO_CYCLE, 0, True),
        (FAIR_LOOP, 0, False),
    ]
    for chain, mean, has_potential in cases:
        analysis = analyze_bscc(chain, frozenset(chain.ids()))
        assert (analysis.mean_payoff, analysis.potential is not None) == (mean, has_potential)
        assert analysis.classification == {kind: int(_paper_rule(kind, mean, has_potential)) for kind in LIMIT_KINDS}


GRAPHS = st.integers(1, 10).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
    )
)


@settings(max_examples=300, deadline=None)
@given(GRAPHS)
def test_bottom_sccs_from_roots_are_the_reached_bottom_sccs(graph):
    # A node lies in a bottom SCC exactly when every node it reaches
    # reaches it back; its SCC is then the set it reaches.
    succ, roots = graph

    def reach(sources):
        seen, stack = set(sources), list(sources)
        while stack:
            for t in succ[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    closure = [reach([v]) for v in range(len(succ))]
    bottoms = {tuple(sorted(closure[v])) for v in range(len(succ)) if all(v in closure[t] for t in closure[v])}
    reached = reach(roots)
    found = chain_mod.bottom_sccs(succ, roots)
    assert all(comp == sorted(comp) for comp in found)
    assert sorted(map(tuple, found)) == sorted(comp for comp in bottoms if reached.issuperset(comp))
    assert len(found) == len(set(map(tuple, found)))


def test_chain_reach_is_reach_probabilities_of_the_fixed_chain():
    # ``mdp._chain_reach`` reads the policy's chain off the index, and
    # ``certify.reach_probabilities`` reads the chain ``fix_strategies``
    # builds; both solve the rows of ``chain.hitting_rows``.  Target sets
    # are random, the empty set and targets no node reaches included.
    rng = random.Random(31)
    fractional = out_of_reach = empty = 0
    for reward_location in ("states", "transitions"):
        for game in random_games(60, sizes=(3, 4, 5, 6), seed=1931, reward_location=reward_location):
            index = game.index
            controlled = [v for v, owner in enumerate(index.owner) if owner != "rand"]
            for _ in range(3):
                choice = [0] * len(index.ids)
                for v in controlled:
                    choice[v] = rng.randrange(len(index.succ[v]))
                targets = frozenset(v for v in range(len(index.ids)) if rng.random() < 0.3)
                allowed = [range(len(edges)) for edges in index.succ]
                for v in controlled:
                    allowed[v] = (choice[v],)
                chain = induced_chain(game, {index.ids[v]: choice[v] for v in controlled})
                expected = reach_probabilities(chain, {index.ids[v] for v in targets})
                assert dict(zip(index.ids, mdp._chain_reach(index, choice, targets, allowed))) == expected
                fractional += any(0 < x < 1 for x in expected.values())
                out_of_reach += any(x == 0 for x in expected.values())
                empty += not targets
    assert min(fractional, out_of_reach, empty) >= 10, (fractional, out_of_reach, empty)


CANCELLING = _chain(
    "ssg rewards=transitions\nstate a owner=rand\nstate b owner=rand\nstate c owner=rand\n"
    "trans a -> b p=1/2 reward=1\ntrans a -> b p=1/2 reward=-1\n"
    "trans b -> b p=1/2 reward=0\ntrans b -> c p=1/2 reward=1\n"
    "trans c -> c p=1/4 reward=0\ntrans c -> c p=1/4 reward=1\ntrans c -> a p=1/2 reward=-1\n"
)


def _policy_chains():
    """(succ, prob) of the chains that random policies leave in grid games
    and in small ``bench/families`` chance and dense counters, and of
    ``CANCELLING`` (a node with both 1/2 edges into one target, a 1/2
    self-loop, two 1/4 self-loops)."""
    families = bench_families()
    games = [CANCELLING]
    games += random_games(60, sizes=(3, 4, 5, 6), seed=4099, reward_location="transitions")
    games += [parse_model(families.chance_counter(n, fseed, None)) for n in (4, 9) for fseed in (1, 2)]
    games += [parse_model(families.dense_counter(n, fseed, None)) for n in (8, 16) for fseed in (1, 2)]
    rng = random.Random(53)
    for game in games:
        index = game.index
        for _ in range(3):
            choice = {v: rng.randrange(len(index.succ[v])) for v, who in enumerate(index.owner) if who != "rand"}
            succ, prob, _, _ = index.steps(choice)
            yield succ, prob


def _factor_or_error(*args):
    try:
        return linsolve.factor(*args)
    except linsolve.SingularMatrixError as error:
        return str(error)


def test_stationary_system_factors_the_fraction_rows():
    # The integer rows give the Factorization of the Fraction rows, over
    # every closed class of each chain; some rows cancel a denominator.
    classes = cancelled = 0
    for succ, prob in _policy_chains():
        for members in chain_mod.bottom_sccs(succ, range(len(succ))):
            factorization = chain_mod.stationary_system(members, succ, prob)
            assert factorization == linsolve.factor(reference_stationary_rows(members, succ, prob))
            classes += len(members) > 1
            for j, scale in enumerate(factorization.scales[1:], 1):
                into = [p for v in members for t, p in zip(succ[v], prob[v]) if t == members[j]]
                cancelled += scale < lcm(*(Fraction(p).denominator for p in into))
    assert classes >= 100 and cancelled >= 3, (classes, cancelled)


def test_hitting_rows_are_the_fraction_rows_scaled():
    # Each integer row is its Fraction row times its scale, the lcm of that
    # row's reduced denominators, and factors the same (singular included).
    rng = random.Random(59)
    systems = singular = 0
    for succ, prob in _policy_chains():
        nodes = range(len(succ))
        targets = frozenset(v for v in nodes if rng.random() < 0.3)
        interior = [v for v in nodes if v not in targets and rng.random() < 0.8]
        rows, scales, rhs = chain_mod.hitting_rows(interior, succ, prob, targets)
        expected_rows, expected_rhs = reference_hitting_rows(interior, succ, prob, targets)
        assert rhs == expected_rhs
        for row, scale, expected in zip(rows, scales, expected_rows):
            expected = {j: a for j, a in expected.items() if a}
            assert scale == lcm(*(Fraction(a).denominator for a in expected.values()))
            assert row == {j: a * scale for j, a in expected.items()}
        factorization = _factor_or_error(rows, scales)
        assert factorization == _factor_or_error(expected_rows)
        systems += 1
        singular += isinstance(factorization, str)
    assert systems - singular >= 50 and singular >= 5, (systems, singular)
