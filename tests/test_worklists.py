"""The linear-time kernels against the slower forms they replaced.

``sweep_attractor`` and ``sweep_energy`` visit every state per pass until a
pass changes nothing; they are the reference forms of ``chain.attractor``
(run here on the game's index with its ``within`` and ``allowed`` masks)
and ``mdp.energy_min_credit``; the lifting is also checked against the
capped worklist ``grids.reference_energy_min_credit`` on counter families
whose climbs run long.  ``reference_normalization`` (reachability
policy iteration) and ``reference_mec_consistent`` (a second potential BFS)
are the reference forms of the normalization check in ``reduce`` and of
``certify.potential`` on end-component edges.  ``reference_lifting_region``
(energy lifting plus the keeper's credit-preserving edges) is the reference
form of the end-component rule that ``mdp`` uses for liminf > -inf, and
``reference_divergence_core`` (a potential test, then the BSCC around a
noisy state of the first tight end component) the reference form of the
rule for liminf = -inf.  The references read step weights through their
own ``arrival_weights``, not the game's ``Index.weight``, so a wrong weight
there shows up as a disagreement.  The last tests check the seed order of
the two counter worklists, ``termination._relax`` and
``mdp.energy_min_credit``: successors first, an acyclic game pops each
node once in any listing.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ocsg import certify, chain, mdp, reduce, termination
from ocsg.model import (
    LIMINF_GT_MINUS_INF,
    LIMINF_MINUS_INF,
    LIMINF_PLUS_INF,
    OWNERS,
    OcSsg,
    PureMemorylessStrategy,
    State,
    Transition,
    fix_strategies,
    parse_model,
    relabel_controlled,
)

from grids import (
    as_mdp,
    bench_families,
    exhaustive_games,
    named_mec,
    random_game,
    random_games,
    reference_almost_sure_reach,
    reference_attractor,
    reference_energy_min_credit,
    renumber,
    restrict_to_mec,
)

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


def arrival_weights(game):
    """State id -> weight of each edge: the counter delta, the edge reward,
    or the reward of the state the edge enters."""
    def weight(t):
        if isinstance(game, OcSsg):
            return t.delta
        if game.reward_location == "transitions":
            return t.reward
        return game.state(t.target).reward

    return {s.id: [weight(t) for t in s.transitions] for s in game.states}


def sweep_energy(game, keeper):
    weights = arrival_weights(game)
    cutoff = len(game.states)
    credit = {sid: 0 for sid in game.ids()}

    def lift_edge(t, w):
        need = credit[t.target] - w
        return math.inf if need > cutoff else max(0, need)

    changed = True
    while changed:
        changed = False
        for s in game.states:
            demands = [lift_edge(t, w) for t, w in zip(s.transitions, weights[s.id])]
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


def masked_attractor(game, seeds, sides, within=None, allowed=None):
    """``chain.attractor`` on the game's index, joined only inside
    ``within`` and counting only the ``allowed`` edges (both keyed by state
    id), keyed by state id."""
    index = game.index
    ids, pos = index.ids, index.pos
    inside = None if within is None else [sid in within for sid in ids]
    kept = None if allowed is None else [allowed[sid] for sid in ids]
    won, choice = chain.attractor(index, [pos[sid] for sid in seeds], sides, within=inside, allowed=kept)
    return {ids[v] for v, hit in enumerate(won) if hit}, {ids[v]: k for v, k in choice.items()}


def _check_attractor(game, seeds, sides, within, allowed):
    won, choice = masked_attractor(game, seeds, sides, within, allowed)
    assert (won, choice) == reference_attractor(game, seeds, sides, within, allowed)
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


def _random(seed, n, location):
    return random_game(random.Random(seed), n, location)


GAMES = st.builds(_random, st.integers(0, 10**6), st.integers(1, 9), st.sampled_from(("states", "transitions")))


@settings(max_examples=300, deadline=None)
@given(GAMES, st.sampled_from(SIDES), st.randoms(use_true_random=False))
def test_attractor_matches_reference_with_masks(game, sides, rng):
    # ``within``/``allowed`` masks: the int attractor on the index with
    # the allowed edges gives the reference's set and choices.
    seeds, within, allowed = _random_query(rng, game)
    assert masked_attractor(game, seeds, sides, within, allowed) == reference_attractor(
        game, seeds, sides, within, allowed
    )
    # The edges into alive nodes, as almost-sure reach cuts them, with
    # ``within`` the alive nodes or a part of them.
    index = game.index
    alive = [rng.random() < 0.8 for _ in index.ids]
    inside = [live and rng.random() < 0.8 for live in alive]
    seeds = [v for v in range(len(alive)) if inside[v] and rng.random() < 0.3]
    ids = index.ids
    cut = [[k for k, t in enumerate(targets) if alive[t]] for targets in index.succ]
    for within in (alive, inside):
        won, choice = chain.attractor(index, seeds, sides, within=within, allowed=cut)
        named_within = {sid for sid, hit in zip(ids, within) if hit}
        expected = reference_attractor(game, {ids[v] for v in seeds}, sides, named_within, dict(zip(ids, cut)))
        assert ({ids[v] for v, hit in enumerate(won) if hit}, {ids[v]: k for v, k in choice.items()}) == expected


def _counter_game(game):
    return OcSsg(
        tuple(
            State(s.id, s.owner, transitions=tuple(Transition(t.target, prob=t.prob, delta=t.reward) for t in s.transitions))
            for s in game.states
        )
    )


COUNTER_GAMES = st.builds(_random, st.integers(0, 10**6), st.integers(1, 9), st.just("transitions")).map(_counter_game)


@settings(max_examples=300, deadline=None)
@given(st.one_of(GAMES, COUNTER_GAMES))
def test_energy_lifting_matches_rescanning_reference(game):
    # Lifting re-queues only the predecessors a lift can raise; the sweep
    # rescans every state until nothing changes.  Both keepers.
    for keeper in ("max", "min"):
        assert mdp.energy_min_credit(game, keeper) == sweep_energy(game, keeper)


def test_energy_credit_matches_sweep():
    games = [_counter_game(g) for g in random_games(120, sizes=(4, 6, 10), seed=31, reward_location="transitions")]
    games += random_games(120, sizes=(4, 6, 10), seed=32, reward_location="states")
    for game in games:
        for keeper in ("max", "min"):
            assert mdp.energy_min_credit(game, keeper) == sweep_energy(game, keeper)


def _no_gap(credit):
    finite = {c for c in credit.values() if c != math.inf}
    return finite == set(range(len(finite)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(GAMES, COUNTER_GAMES))
def test_finite_credits_leave_no_gap(game):
    # The lemma the lifting's gap rule rests on: the least credits' finite
    # values are {0, ..., m}.
    for keeper in ("max", "min"):
        assert _no_gap(sweep_energy(game, keeper))


def test_finite_credits_leave_no_gap_on_random_games():
    games = [_counter_game(g) for g in random_games(200, sizes=(4, 8, 12), seed=33, reward_location="transitions")]
    games += random_games(200, sizes=(4, 8, 12), seed=34, reward_location="states")
    for game in games:
        for keeper in ("max", "min"):
            assert _no_gap(sweep_energy(game, keeper))


@pytest.mark.parametrize("family", ["dense_counter", "chance_counter"])
def test_energy_lifting_matches_capped_worklist_on_counter_families(family):
    # Climbs here run long, up to the |V| cap in the capped worklist, and
    # end at a gap in the credits in the lifting.  Every n in 2-100 (4-100
    # for chance, which places 4 controlled states) and every f in 1-39,
    # with a stride of 3 in f that shifts with n.
    generate = getattr(bench_families(), family)
    for n in range(4 if family == "chance_counter" else 2, 101):
        for fseed in range(1 + n % 3, 40, 3):
            game = parse_model(generate(n, fseed, None))
            for keeper in ("max", "min"):
                assert mdp.energy_min_credit(game, keeper) == reference_energy_min_credit(game, keeper), (n, fseed)


def test_energy_lifting_matches_capped_worklist_on_drift_counters():
    drift_counter = bench_families().drift_counter
    for balanced in (True, False):
        for n in (50, 200, 500):
            for fseed in range(1, 11):
                game = parse_model(drift_counter(n, fseed, None, balanced=balanced))
                for keeper in ("max", "min"):
                    expected = reference_energy_min_credit(game, keeper)
                    assert mdp.energy_min_credit(game, keeper) == expected, (balanced, n, fseed)


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
    weights = arrival_weights(game)
    anchor = min(mec.members)
    level = {anchor: 0}
    queue = [anchor]
    edges = []
    while queue:
        uid = queue.pop()
        s = game.state(uid)
        for k in mec.allowed[uid]:
            t, w = s.transitions[k], weights[uid][k]
            edges.append((uid, t, w))
            if t.target not in level:
                level[t.target] = level[uid] + w
                queue.append(t.target)
    return all(level[t.target] - level[uid] == w for uid, t, w in edges)


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
            h = certify.potential(restrict_to_mec(game, mec)[0], mec.members)
            assert (h is not None) == consistent, (game, mec)
            seen[consistent] += 1
            if h is not None:
                assert set(h) == mec.members
    assert min(seen.values()) >= 100


def reference_lifting_region(game):
    """Value-1 set of liminf > -inf and a witness choice on it, by energy
    lifting: almost-sure reach of the liminf=+inf value-1 set and of the
    states from which Max keeps every prefix sum >= 0.  Max follows the
    liminf=+inf witness on the former, and a credit-preserving edge of least
    demand at every other state of finite credit."""
    relabeled = relabel_controlled(game, "max")
    w_inf, inf_choice = _value_one_region(game, LIMINF_PLUS_INF)
    credit = sweep_energy(relabeled, "max")
    weights = arrival_weights(relabeled)
    cutoff = len(relabeled.states)
    keeper = {}
    for s in relabeled.states:
        if s.owner == "max" and credit[s.id] != math.inf:
            needs = [max(0, credit[t.target] - w) for t, w in zip(s.transitions, weights[s.id])]
            demands = [math.inf if need > cutoff else need for need in needs]
            keeper[s.id] = demands.index(min(demands))
    finite = {sid for sid, c in credit.items() if c != math.inf}
    targets = set(w_inf) | {sid for sid in finite if credit[sid] == 0}
    cores = {sid: keeper[sid] for sid in finite - w_inf if sid in keeper}
    cores.update({sid: inf_choice[sid] for sid in w_inf if sid in inf_choice})
    asr = reference_almost_sure_reach(relabeled, targets)
    choice = dict(asr.max_choice)
    choice.update({sid: k for sid, k in cores.items() if sid in asr.winning})
    return asr.winning, choice


def reference_divergence_core(game, mec):
    """A policy BSCC inside the MEC of the Max-labelled one-player ``game``
    that almost surely drives liminf to -inf, or None.

    A MEC of negative minimal gain is its own core; one of positive minimal
    gain, or whose edges admit a potential, has none.  At gain 0 the core is
    the BSCC around x under the almost-sure-reach choice toward x inside the
    first end component of the tight sub-MDP (min-gain bias, zero-slack
    controlled edges) that holds a noisy rand state x.
    """
    sub, _ = restrict_to_mec(game, mec)
    evaluation, _ = mdp._policy_iteration(sub.index, "min")
    ids = sub.index.ids
    bias = dict(zip(ids, evaluation.bias))
    gain = evaluation.gain[ids.index(min(mec.members))]
    if gain < 0:
        return frozenset(mec.members)
    if gain > 0 or reference_mec_consistent(game, mec):
        return None
    weights = arrival_weights(sub)
    allowed, noisy = {}, set()
    for s in sub.states:
        zero = [k for k, t in enumerate(s.transitions) if weights[s.id][k] + bias[t.target] == bias[s.id]]
        allowed[s.id] = zero if s.owner != "rand" else list(range(len(s.transitions)))
        if s.owner == "rand" and len(zero) < len(s.transitions):
            noisy.add(s.id)
    tight, _ = restrict_to_mec(sub, mdp.Mec(frozenset(sub.ids()), allowed))
    for component in mdp.mec_decompose(tight):
        x = min(component.members & noisy, default=None)
        if x is None:
            continue
        inner, _ = restrict_to_mec(tight, component)
        choice = reference_almost_sure_reach(inner, {x}).max_choice
        induced = fix_strategies(inner, PureMemorylessStrategy("max", choice))
        bsccs, _ = certify.bscc_decompose(induced)
        return next(b for b in bsccs if x in b)
    return None


def _value_one_region(game, objective):
    """``mdp._value_one_region`` on the game's index, keyed by state id."""
    ids = game.index.ids
    region, choice = mdp._value_one_region(game.index, objective)
    return {ids[v] for v in region}, {ids[v]: k for v, k in choice.items()}


def _wins_almost_surely(game, region, choice, objective=LIMINF_GT_MINUS_INF):
    """Max wins ``objective`` with probability 1 on ``region`` by ``choice``."""
    relabeled = relabel_controlled(game, "max")
    policy = {sid: choice.get(sid, 0) for sid in relabeled.owner_ids("max")}
    induced = fix_strategies(relabeled, PureMemorylessStrategy("max", policy))
    values = certify.chain_tail_value(induced, objective)
    return all(values[sid] == 1 for sid in region)


def _one_player_cases():
    yield from exhaustive_games()
    for location in ("states", "transitions"):
        yield from map(as_mdp, random_games(400, sizes=(4, 6, 9), seed=1011, reward_location=location))
    counter_sources = random_games(100, sizes=(5, 8), seed=1012, reward_location="transitions")
    yield from (_counter_game(as_mdp(game)) for game in counter_sources)
    dense_mdp = bench_families().dense_mdp
    for n in (20, 30, 40, 50, 60):
        for fseed in (1, 2):
            yield parse_model(dense_mdp(n, fseed, None))


def test_bounded_region_matches_energy_lifting():
    nonempty = 0
    for game in _one_player_cases():
        region, choice = _value_one_region(game, LIMINF_GT_MINUS_INF)
        reference, reference_choice = reference_lifting_region(game)
        assert region == reference, game
        assert _wins_almost_surely(game, region, choice), game
        assert _wins_almost_surely(game, reference, reference_choice), game
        nonempty += bool(region) and region != set(game.ids())
    assert nonempty >= 300


def test_divergence_region_matches_reference_cores():
    rule = mdp._MEC_RULES["liminf-minus-inf"]
    noisy_fired = 0
    for game in _one_player_cases():
        # The int MECs read the game's index as it is: no relabel.
        relabeled = relabel_controlled(game, "max")
        index = game.index
        cores = set()
        for mec in mdp._mecs(index):
            core = reference_divergence_core(relabeled, named_mec(index, mec))
            members, _ = mdp._mec_part(index, mec, rule)
            assert bool(members) == (core is not None), (game, mec)
            cores |= core or set()
            noisy_fired += bool(members) and mdp._mec_gain(index, mec, rule)[0] == 0
        region, choice = _value_one_region(game, LIMINF_MINUS_INF)
        assert region == reference_almost_sure_reach(relabeled, cores).winning, game
        assert _wins_almost_surely(game, region, choice, LIMINF_MINUS_INF), game
    assert noisy_fired > 0


# -- successors-first seeding of the counter fixpoints --------------------------


def staircase(n, loop, top_first):
    """All Max, v_k -> v_{k-1} with delta -1 and a self-loop of delta
    ``loop`` on v_0, listed v_{n-1} first or v_0 first."""
    order = range(n - 1, -1, -1) if top_first else range(n)
    lines = ["ocssg", *(f"state v{k} owner=max" for k in order), f"trans v0 -> v0 delta={loop}"]
    lines += [f"trans v{k} -> v{k - 1} delta=-1" for k in order if k]
    return parse_model("\n".join(lines) + "\n")


def random_acyclic_counter_game(rng, n):
    """A counter game on s0..s{n-1} whose only cycle is a self-loop of delta
    0 or +1 on s0: every other state steps to one to three lower states."""
    lines = ["ocssg"]
    lines += [f"state s{i} owner={'max' if i == 0 else rng.choice(OWNERS)}" for i in range(n)]
    lines.append(f"trans s0 -> s0 delta={rng.choice((0, 1))}")
    for i in range(1, n):
        targets = rng.sample(range(i), min(i, rng.randint(1, 3)))
        rand = lines[1 + i].endswith("rand")
        for t in targets:
            prob = f" p=1/{len(targets)}" if rand else ""
            lines.append(f"trans s{i} -> s{t}{prob} delta={rng.choice((-1, 0, 1))}")
    return parse_model("\n".join(lines) + "\n")


class CountingQueue(list):
    """A worklist that counts the pops of each node."""

    def __init__(self, nodes, n):
        super().__init__(nodes)
        self.pops = [0] * n

    def pop(self):
        v = super().pop()
        self.pops[v] += 1
        return v


def relax_positive(index):
    """``termination._relax`` as the first pass of the threshold fixpoint
    runs it from all-zero values under the cap |V|-1, seeded successors
    first: the values by state id, the pops per node and the (node, edge)
    of every rise."""
    n = len(index.ids)
    value, rises = [0] * n, []
    queue = CountingQueue(index.sinks_last, n)
    takes_min = [who == "min" for who in index.owner]
    termination._relax(
        index.succ, index.weight, index.preds, takes_min, value, [n - 1] * n, queue, lambda v, k, old, new: rises.append((v, k))
    )
    return dict(zip(index.ids, value)), queue.pops, rises


@pytest.mark.parametrize("top_first", [False, True])
def test_relax_raises_each_staircase_node_once(top_first):
    n = 300
    values, pops, rises = relax_positive(staircase(n, 1, top_first).index)
    assert values == {f"v{k}": k for k in range(n)}
    assert max(pops) == 1
    assert len(rises) == len({v for v, _ in rises}) == n - 1


def test_relax_pops_each_node_once_on_acyclic_games():
    # Successors first, an acyclic game pops every node once and relaxes
    # every edge once, so no edge raises its source twice, in any listing.
    rng = random.Random(2011)
    for _ in range(60):
        game = random_acyclic_counter_game(rng, rng.randint(2, 40))
        expected = None
        for _ in range(3):
            listed = renumber(game, rng.sample(range(len(game.states)), len(game.states)))
            values, pops, rises = relax_positive(listed.index)
            assert max(pops) == 1 and len(rises) == len(set(rises)), listed
            assert expected is None or values == expected
            expected = values


@pytest.mark.parametrize("top_first", [False, True])
def test_energy_lifting_on_staircase_is_listing_free(top_first):
    game = staircase(300, 0, top_first)
    assert mdp.energy_min_credit(game, "min") == {f"v{k}": k for k in range(300)}


def test_energy_credits_agree_in_every_listing():
    rng = random.Random(1994)
    for _ in range(60):
        game = random_acyclic_counter_game(rng, rng.randint(2, 40))
        for keeper in ("max", "min"):
            expected = mdp.energy_min_credit(game, keeper)
            for _ in range(3):
                listed = renumber(game, rng.sample(range(len(game.states)), len(game.states)))
                assert mdp.energy_min_credit(listed, keeper) == expected
