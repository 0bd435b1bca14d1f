"""Deterministic instance generators shared by the test suite.

The exhaustive layers enumerate every game shape for 1 and 2 states and a
fixed-stride slice of the 3-state space (full enumeration is ~375k games,
far beyond the intended minutes of runtime).  Random layers draw from a
seeded generator so every run sees identical instances.  ``oc_to_reward_ssg``
is the reward view of a counter game, a reference the solvers never use:
they read counter games as parsed.  ``build_level_game`` is the level game
of termination built as a full ``Ssg`` with string ids; ``level_product``
is the same unfolding as an int ``Graph`` for
``two_player_almost_sure_reach``, the two-player int fixpoint (Max works
toward the targets, Min spoils), and that pair is the reference the
per-state value-1 thresholds of ``ocsg.termination`` are checked against
at every state and offset.
``renumber``, ``swap_edges`` and ``swap_owners`` rebuild a game with the
same ids in another node order, with each state's edges reversed, or with
Max and Min swapped, for checks that an answer does not depend on the
numbering.
``reference_parse_model`` is the model parser as first written, token
columns and all, the reference the single ``ocsg.model.parse_model`` is
checked against.  ``class_gain_bias`` and ``evaluate_gain_bias`` are the
eager policy evaluation, every closed-class mean and bias and the whole
transient gain and bias solved up front, the reference the lazy
``ocsg.mdp._PolicyEvaluation`` is checked against; ``eager_sub_gain`` is
the MEC gain policy iteration on it, stopped on every state's gain.
``fraction_factor`` is the Markowitz elimination of ``ocsg.linsolve``
done in ``Fraction`` arithmetic, the reference its integer elimination is
checked against, and ``fraction_certificate`` the determinant certificate
of a system: |det| of the matrix with each row, right-hand side included,
scaled to integers, which every solution denominator divides.
``reference_attractor`` and ``reference_almost_sure_reach`` are the
attractor and two-player almost-sure reach on sets and dicts keyed by
state id, with ``within``/``allowed`` masks, the references the int forms
``ocsg.chain.attractor``, ``two_player_almost_sure_reach`` and, with every
controlled state handed to Max, the one-player ``ocsg.mdp.almost_sure_reach``
are checked against; ``named_asr`` and ``named_two_player_asr`` are the int
forms keyed by state id.
``reference_mec_decompose`` (an attractor over the whole game per
candidate) and ``reference_solve_reachability`` (a chain built by
``fix_strategies`` and solved by ``certify.reach_probabilities`` per round)
are the game-level MEC decomposition and reachability policy iteration,
the references the int forms ``ocsg.mdp._mecs`` and ``ocsg.mdp._reach``
are checked against; ``restrict_to_mec`` is a MEC's sub-MDP as a game,
``restricted`` its sub-index, renumbered from 0 (the reference the
in-place MEC policy iteration of ``ocsg.mdp`` is checked against), and
``named_mec`` an int MEC keyed by state id.  ``induced_chain`` is the
chain a policy leaves, built by ``fix_strategies``.  ``certified_reach``
is ``certify.reach_probabilities`` solved by ``linsolve.factor``, with the
``fraction_certificate`` that every value's denominator divides.
``expected_mean_payoff`` is the optimal mean payoff of a one-player game
and its policy, from ``ocsg.mdp``'s policy iteration run to optimality.
``reference_procedure_mp`` is the paper's Procedure MP on it, a game built
per cut by ``remove_states`` with one absorbing state z, the cross-check
of the value-1 set that ``ocsg.mdp`` gives the mean-payoff objectives.
``reference_energy_min_credit`` is energy lifting capped only at |V|, the
reference the gap-cut lifting of ``ocsg.mdp.energy_min_credit`` is checked
against on counter families whose climbs run long.
"""

from __future__ import annotations

import heapq
import importlib.util
import itertools
import operator
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

from ocsg import chain as chain_mod
from ocsg import certify, linsolve, mdp
from ocsg.model import (
    _ID_RE,
    ON_STATES,
    ON_TRANSITIONS,
    REWARD_VALUES,
    Index,
    ModelSemanticError,
    ModelSyntaxError,
    OcSsg,
    PureMemorylessStrategy,
    Ssg,
    State,
    Transition,
    _clipped,
    _clipped_fraction,
    _describe,
    _quoted,
    check_valid,
    fix_strategies,
    relabel_controlled,
)

PROBS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
SPLITS = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4)))
REWARDS = (-1, 0, 1)
OWNERS = ("max", "min", "rand")

THREE_STATE_STRIDE = 241


def _state_options(ids):
    """All (owner, reward, transitions) combinations for one state."""
    options = []
    singles = [(t,) for t in ids]
    pairs = list(itertools.combinations(ids, 2))
    for owner in ("max", "min"):
        for targets in singles + pairs:
            trans = tuple(Transition(t) for t in targets)
            for reward in REWARDS:
                options.append((owner, reward, trans))
    for targets in singles:
        trans = (Transition(targets[0], prob=Fraction(1)),)
        for reward in REWARDS:
            options.append(("rand", reward, trans))
    for targets in pairs:
        for split in SPLITS:
            trans = tuple(Transition(t, prob=p) for t, p in zip(targets, split))
            for reward in REWARDS:
                options.append(("rand", reward, trans))
    return options


def _assemble(ids, picks):
    states = tuple(
        State(sid, owner, reward=reward, transitions=trans)
        for sid, (owner, reward, trans) in zip(ids, picks)
    )
    return Ssg(states, reward_location="states")


def exhaustive_games(max_states: int = 3, stride: int = THREE_STATE_STRIDE):
    """Every 1- and 2-state game; every ``stride``-th 3-state game."""
    games = []
    for n in range(1, max_states + 1):
        ids = tuple("abc"[:n])
        options = _state_options(ids)
        combos = itertools.product(options, repeat=n)
        if n < 3:
            games.extend(_assemble(ids, picks) for picks in combos)
        else:
            games.extend(
                _assemble(ids, picks)
                for i, picks in enumerate(combos)
                if i % stride == 0
            )
    return games


def random_game(rng: random.Random, n: int, reward_location: str = "states") -> Ssg:
    ids = [chr(ord("a") + i) for i in range(n)]
    states = []
    for sid in ids:
        owner = rng.choice(OWNERS)
        width = rng.choice((1, 2))
        targets = rng.sample(ids, min(width, n))
        if owner == "rand":
            if len(targets) == 1:
                probs = [Fraction(1)]
            else:
                p = rng.choice(SPLITS)
                probs = list(p)
        else:
            probs = [None] * len(targets)
        if reward_location == "states":
            trans = tuple(Transition(t, prob=p) for t, p in zip(targets, probs))
            states.append(State(sid, owner, reward=rng.choice(REWARDS), transitions=trans))
        else:
            trans = tuple(
                Transition(t, prob=p, reward=rng.choice(REWARDS)) for t, p in zip(targets, probs)
            )
            states.append(State(sid, owner, transitions=trans))
    return Ssg(tuple(states), reward_location=reward_location)


def random_games(count: int, sizes=(4, 5), seed: int = 20110419, reward_location: str = "states"):
    rng = random.Random(seed)
    return [random_game(rng, rng.choice(sizes), reward_location) for _ in range(count)]


def as_mdp(game: Ssg) -> Ssg:
    """Hand every controlled state to Max, turning the game into an MDP."""
    return relabel_controlled(game, "max")


def renumber(game, order):
    """The game with its states listed in ``order``, a permutation of the
    state positions: the same game, ids and edges under another node
    numbering."""
    states = game.states
    return replace(game, states=tuple(states[i] for i in order))


def swap_edges(game):
    """The game with each state's edges in reverse order: the same game
    under another edge numbering, so every choice index changes."""
    return replace(game, states=tuple(s._replace(transitions=s.transitions[::-1]) for s in game.states))


def swap_owners(game):
    """The game with the owners Max and Min swapped.  Its value of a limit
    objective is 1 minus the game's value of the complement objective."""
    swap = {"max": "min", "min": "max", "rand": "rand"}
    return replace(game, states=tuple(s._replace(owner=swap[s.owner]) for s in game.states))


def random_reach_instance(rng: random.Random, n: int) -> tuple[Ssg, str, str, str]:
    """A reachability SSG with distinguished s, absorbing t and t'."""
    ids = [chr(ord("a") + i) for i in range(n)] + ["t", "u"]
    states = []
    for sid in ids:
        if sid in ("t", "u"):
            states.append(State(sid, "rand", reward=0, transitions=(Transition(sid, prob=Fraction(1)),)))
            continue
        owner = rng.choice(OWNERS)
        width = rng.choice((1, 2))
        targets = rng.sample(ids, width)
        if owner == "rand":
            if width == 1:
                probs = [Fraction(1)]
            else:
                probs = list(rng.choice(SPLITS))
        else:
            probs = [None] * width
        trans = tuple(Transition(t, prob=p) for t, p in zip(targets, probs))
        states.append(State(sid, owner, reward=0, transitions=trans))
    return Ssg(tuple(states), reward_location="states"), "a", "t", "u"


def random_reach_instances(count: int, seed: int = 62831853, max_core: int = 3):
    """Seeded normalized instances: every strategy pair reaches {t, t'} a.s."""
    from ocsg.reduce import NormalizationError, condon_to_limit

    rng = random.Random(seed)
    instances = []
    while len(instances) < count:
        instance = random_reach_instance(rng, rng.randint(1, max_core))
        try:
            condon_to_limit(*instance[:1], *instance[1:])
        except NormalizationError:
            continue
        instances.append(instance)
    return instances


def bench_families():
    """``bench/families.py``, loaded without putting bench/ on sys.path."""
    path = Path(__file__).parents[1] / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oc_to_reward_ssg(game: OcSsg) -> Ssg:
    """Turn counter deltas into transition rewards on the identical graph."""
    check_valid(game)
    states = tuple(
        State(
            s.id,
            s.owner,
            reward=None,
            transitions=tuple(Transition(t.target, prob=t.prob, reward=t.delta) for t in s.transitions),
        )
        for s in game.states
    )
    return Ssg(states, reward_location=ON_TRANSITIONS)


def arrival_counter_view(game: Ssg) -> OcSsg:
    """A reward game (rewards on states) read as a counter game: each edge's
    delta is the reward of the state it arrives at."""
    return OcSsg(tuple(
        State(s.id, s.owner, transitions=tuple(
            Transition(t.target, prob=t.prob, delta=game.state(t.target).reward) for t in s.transitions
        ))
        for s in game.states
    ))


def step_reward(game: Ssg | OcSsg, source: State, transition: Transition) -> int:
    """Weight of the step ``source -> transition.target``: the rule that
    says where a step's weight lives, stated per edge.  It is the reference
    for ``Index.weight``, which ``model._GameOps.index`` fills by this rule
    a column at a time.

    In a counter game it is the counter delta, in a transition-reward game
    the edge reward, and in a state-reward game the reward of the state the
    step arrives at.  Prefix sums of a run therefore differ from the
    state-reward sums only by the initial state's reward, which no limit
    objective observes.
    """
    if isinstance(game, OcSsg):
        return transition.delta
    if game.reward_location == ON_TRANSITIONS:
        return transition.reward
    return game.state(transition.target).reward


def per_visit_reward(game, state):
    """Expected weight of the step that leaves rand ``state``."""
    return sum((t.prob * step_reward(game, state, t) for t in state.transitions), Fraction(0))


def class_gain_bias(induced, members):
    """Mean payoff of the closed class ``members`` of ``induced`` and its
    canonical bias (stationary average 0), keyed by state id.

    With the members in game order, the unichain evaluation g + h(s) -
    sum_t P(s, t) h(t) = r(s) with h(first member) = 0 is M x = r for x =
    (g, h without its first entry) and M = [1 | (I - P) without column 0].
    M^T is the stationary system S of ``certify.stationary_law``, so one
    factorization gives the law, g and h; the canonical bias is h minus its
    stationary average.
    """
    stationary, system = certify.stationary_law(induced, members)
    rewards = [per_visit_reward(induced, induced.state(sid)) for sid in stationary]
    solution = system.solve_transposed(rewards)
    mean, h = solution[0], [Fraction(0)] + solution[1:]
    shift = sum((w * v for w, v in zip(stationary.values(), h)), Fraction(0))
    return mean, {sid: v - shift for sid, v in zip(stationary, h)}


def evaluate_gain_bias(game, policy):
    """Exact gain and canonical bias of a fixed policy (multichain evaluation)."""
    induced = induced_chain(game, policy)
    bsccs, transient = certify.bscc_decompose(induced)
    gain: dict[str, Fraction] = {}
    bias: dict[str, Fraction] = {}
    for members in bsccs:
        mean, class_bias = class_gain_bias(induced, members)
        for sid in class_bias:
            gain[sid] = mean
        bias.update(class_bias)

    order = [sid for sid in induced.ids() if sid in transient]
    if order:
        pos = {sid: i for i, sid in enumerate(order)}
        n = len(order)
        rows = [{i: Fraction(1)} for i in range(n)]
        rhs_g = [Fraction(0)] * n
        for i, sid in enumerate(order):
            row = rows[i]
            for t in induced.state(sid).transitions:
                if t.target in pos:
                    j = pos[t.target]
                    row[j] = row.get(j, 0) - t.prob
                else:
                    rhs_g[i] += t.prob * gain[t.target]
        # The gain and the bias solve the same matrix I - P_TT.
        system = linsolve.factor(rows)
        sol_g = system.solve(rhs_g)
        for sid in order:
            gain[sid] = sol_g[pos[sid]]
        rhs_h = [Fraction(0)] * n
        for i, sid in enumerate(order):
            state = induced.state(sid)
            rhs_h[i] = per_visit_reward(induced, state) - gain[sid]
            for t in state.transitions:
                if t.target not in pos:
                    rhs_h[i] += t.prob * bias[t.target]
        sol_h = system.solve(rhs_h)
        for sid in order:
            bias[sid] = sol_h[pos[sid]]
    return gain, bias


def eager_sub_gain(sub, rule, log=None):
    """``mdp._mec_gain`` on the sub-MDP game ``sub``, with every round
    evaluated in full by ``evaluate_gain_bias`` and stopped once every
    state's gain has a winning sign: the least favourable gain, the policy,
    and the bias (None when it stopped).  It starts, as
    ``mdp._policy_iteration`` does, from each controlled state's first edge
    of extreme step weight.  ``log`` receives (policy, gain, bias, reads)
    per round, ``reads`` naming what the round used past its class means:
    nothing when it stops, the gain when it switches on gain, else also the
    bias."""
    direction, winning_signs, _ = rule
    pick, least, better = (max, min, operator.gt) if direction == "max" else (min, max, operator.lt)
    controlled = sub.controlled_ids()
    policy = {}
    for sid in controlled:
        state = sub.state(sid)
        weights = [step_reward(sub, state, t) for t in state.transitions]
        policy[sid] = weights.index(pick(weights))
    while True:
        gain, bias = evaluate_gain_bias(sub, policy)
        reads = set()
        if log is not None:
            log.append((dict(policy), gain, bias, reads))
        if all((g > 0) - (g < 0) in winning_signs for g in gain.values()):
            return least(gain.values()), policy, None
        reads.add("gain")
        switched = False
        for sid in controlled:
            qs = [gain[t.target] for t in sub.state(sid).transitions]
            if better(pick(qs), gain[sid]):
                policy[sid] = qs.index(pick(qs))
                switched = True
        if switched:
            continue
        reads.add("bias")
        for sid in controlled:
            state = sub.state(sid)
            qs = {
                k: step_reward(sub, state, t) + bias[t.target]
                for k, t in enumerate(state.transitions)
                if gain[t.target] == gain[sid]
            }
            best = pick(qs.values())
            if better(best, gain[sid] + bias[sid]):
                policy[sid] = next(k for k, q in qs.items() if q == best)
                switched = True
        if not switched:
            return least(gain.values()), policy, bias


def reference_energy_min_credit(game, keeper: str = "max") -> dict[str, int | float]:
    """Energy lifting as a worklist capped only at |V|: every state queued
    at the start, a climb lifted one unit at a time up to the cap."""
    index = game.index
    ids, succ, weight, preds = index.ids, index.succ, index.weight, index.preds
    keeps = [owner == keeper for owner in index.owner]
    cutoff = len(ids)
    credit: list[int | float] = [0] * cutoff
    queue = list(range(cutoff))
    queued = [True] * cutoff
    while queue:
        i = queue.pop()
        queued[i] = False
        needs = [credit[t] - w for t, w in zip(succ[i], weight[i])]
        need = min(needs) if keeps[i] else max(needs)
        if need > credit[i]:
            credit[i] = need = mdp.INFINITE_CREDIT if need > cutoff else need
            for pred, k in preds[i]:
                if not queued[pred] and need - weight[pred][k] > credit[pred]:
                    queued[pred] = True
                    queue.append(pred)
    return dict(zip(ids, credit))


def restrict_to_mec(game, mec):
    """The sub-MDP on the MEC (state ids) as a game, and per member the
    original index of each of its edges."""
    states = []
    index_map: dict[str, tuple[int, ...]] = {}
    for s in game.states:
        if s.id not in mec.members:
            continue
        keep = mec.allowed[s.id]
        index_map[s.id] = tuple(keep)
        states.append(State(s.id, s.owner, reward=s.reward, transitions=tuple(s.transitions[k] for k in keep)))
    return replace(game, states=tuple(states)), index_map


def restricted(index, members, allowed) -> Index:
    """The index on ``members`` (nodes in node order, renumbered from 0)
    in which node v keeps the edges ``allowed[v]``, in edge order; a rand
    node must keep all of them, and every kept edge must enter a member."""
    local = {v: i for i, v in enumerate(members)}
    ids = tuple(index.ids[v] for v in members)
    columns = [
        tuple(tuple(column[v][k] for k in allowed[v]) for v in members)
        for column in (index.succ, index.prob, index.weight)
    ]
    succ = tuple(tuple(map(local.__getitem__, targets)) for targets in columns[0])
    owner = tuple(index.owner[v] for v in members)
    return Index(ids, {sid: i for i, sid in enumerate(ids)}, owner, succ, columns[1], columns[2])


def named_mec(index, mec):
    """A MEC of ``mdp._mecs`` (nodes of ``index``) keyed by state id."""
    ids = index.ids
    return mdp.Mec(frozenset(ids[v] for v in mec.members), {ids[v]: edges for v, edges in mec.allowed.items()})


def _id_graph(game):
    """The game's states in order and, keyed by state id, each state's
    owner, its edge targets in edge order, and the (source, edge index) of
    every edge entering it, sources in game order."""
    owner, succ = {}, {}
    preds = {s.id: [] for s in game.states}
    for s in game.states:
        owner[s.id] = s.owner
        succ[s.id] = targets = [t.target for t in s.transitions]
        for k, target in enumerate(targets):
            preds[target].append((s.id, k))
    return tuple(preds), owner, succ, preds


def reference_attractor(game, seeds, any_owners, within=None, allowed=None):
    """Least superset W of ``seeds`` inside ``within`` closed under
    attraction, as sets and dicts keyed by state id.

    A state whose owner is in ``any_owners`` joins W once one of its
    counted edges enters W; any other state joins once all of its counted
    edges do, and it must have at least one.  ``allowed[s]`` limits the
    counted edge indices (default: every edge).  Returns (W, choice), where
    ``choice`` maps each controlled ``any_owners`` state outside ``seeds``
    to the edge that pulled it in.
    """
    nodes, owner, succ, preds = _id_graph(game)
    attracted = set(seeds)
    queue = [v for v in nodes if v in attracted]
    outside: dict = {}
    choice: dict = {}
    while queue:
        target = queue.pop()
        for v, k in preds[target]:
            if v in attracted or (within is not None and v not in within):
                continue
            if allowed is not None and k not in allowed[v]:
                continue
            who = owner[v]
            if who in any_owners:
                if who != "rand":
                    choice[v] = k
            else:
                left = outside.get(v)
                if left is None:
                    left = len(allowed[v]) if allowed is not None else len(succ[v])
                outside[v] = left = left - 1
                if left:
                    continue
            attracted.add(v)
            queue.append(v)
    return attracted, choice


@dataclass(frozen=True)
class TwoPlayerAsr:
    """Two-player almost-sure reach: the winning set, Max's choices and
    Min's spoiling choices."""

    winning: frozenset
    max_choice: dict
    spoil_choice: dict


def reference_almost_sure_reach(game, targets):
    """Almost-sure reach of ``targets`` by alternating set attractors, with
    each Max state's ``allowed`` edges cut to the surviving region and the
    targets given no edges: the winning set, Max's choices and Min's
    spoiling choices, keyed by state id."""
    nodes, owner, succ, _ = _id_graph(game)
    alive = set(nodes)
    targets = frozenset(targets) & alive
    allowed = {v: [] if v in targets else list(range(len(succ[v]))) for v in nodes}
    spoil: dict = {}
    while True:
        pos, max_choice = reference_attractor(game, targets & alive, ("max", "rand"), alive, allowed)
        blocked = alive - pos
        if not blocked:
            break
        for v in blocked:
            if owner[v] == "min" and v not in spoil:
                spoil[v] = next(k for k, t in enumerate(succ[v]) if t in blocked)
        doomed, pulled = reference_attractor(game, blocked, ("min", "rand"), alive, allowed)
        for v, k in pulled.items():
            spoil.setdefault(v, k)
        alive -= doomed
        for v in alive:
            if owner[v] == "max":
                allowed[v] = [k for k in allowed[v] if succ[v][k] in alive]
    return TwoPlayerAsr(frozenset(alive), max_choice, spoil)


def named_asr(index, targets):
    """``mdp.almost_sure_reach`` on ``index``, keyed by state id."""
    ids = index.ids
    asr = mdp.almost_sure_reach(index, [index.pos[sid] for sid in targets])
    return mdp.AsrResult(frozenset(ids[v] for v in asr.winning), {ids[v]: k for v, k in asr.max_choice.items()})


def named_two_player_asr(index, targets):
    """``two_player_almost_sure_reach`` on ``index``, keyed by state id."""
    ids = index.ids
    asr = two_player_almost_sure_reach(index, [index.pos[sid] for sid in targets])
    return TwoPlayerAsr(
        frozenset(ids[v] for v in asr.winning),
        {ids[v]: k for v, k in asr.max_choice.items()},
        {ids[v]: k for v, k in asr.spoil_choice.items()},
    )


def reference_mec_decompose(game, within=None):
    """Maximal end components by iterated SCC splitting: each candidate
    loses its attractor toward the states outside it (a rand state with an
    edge out, a controlled state with every edge out), then splits into
    its SCCs until one SCC is all that is left."""
    mecs = []
    queue = [frozenset(game.ids() if within is None else within)]
    while queue:
        candidate = queue.pop()
        candidate -= reference_attractor(game, set(game.ids()) - candidate, ("rand",))[0]
        if not candidate:
            continue
        comps = certify.strongly_connected_components(game, within=candidate)
        if len(comps) == 1 and set(comps[0]) == candidate:
            allowed = {}
            for sid in candidate:
                s = game.state(sid)
                if s.owner == "rand":
                    allowed[sid] = tuple(range(len(s.transitions)))
                else:
                    allowed[sid] = tuple(k for k, t in enumerate(s.transitions) if t.target in candidate)
            mecs.append(mdp.Mec(frozenset(candidate), allowed))
        else:
            queue.extend(frozenset(c) for c in comps)
    mecs.sort(key=lambda m: min(m.members))
    return mecs


def reference_solve_reachability(game, targets, direction="max"):
    """Reachability policy iteration that builds each round's chain with
    ``fix_strategies`` and evaluates it with ``certify.reach_probabilities``:
    the values and the witness (labelled by the controlled states' owner,
    else by ``direction``)."""
    targets = frozenset(targets)
    controlled = game.controlled_ids()
    avoid = set()
    if direction == "min":
        avoid = set(game.ids()) - reference_attractor(game, targets, ("rand",))[0]
    policy = {
        sid: next(k for k, t in enumerate(game.state(sid).transitions) if t.target in avoid) if sid in avoid else 0
        for sid in controlled
    }
    owners = {game.state(sid).owner for sid in controlled}
    player = owners.pop() if len(owners) == 1 else direction
    pick, better = (max, operator.gt) if direction == "max" else (min, operator.lt)
    while True:
        values = certify.reach_probabilities(induced_chain(game, policy), targets)
        switched = False
        for sid in controlled:
            if sid in targets:
                continue
            qs = [values[t.target] for t in game.state(sid).transitions]
            if better(pick(qs), values[sid]):
                policy[sid] = qs.index(pick(qs))
                switched = True
        if not switched:
            return values, PureMemorylessStrategy(player, dict(policy))


def induced_chain(game, policy: dict[str, int]) -> Ssg:
    """The chain left when every controlled state follows ``policy``."""
    split = {"max": {}, "min": {}}
    for sid, k in policy.items():
        split[game.state(sid).owner][sid] = k
    return fix_strategies(game, *(PureMemorylessStrategy(player, choice) for player, choice in split.items()))


def certified_reach(chain, targets):
    """The hitting probabilities of the states ``targets`` in ``chain`` by
    state id, as ``certify.reach_probabilities`` defines them, from one
    ``linsolve.factor`` of the ``chain.hitting_rows`` system on the
    can-reach region, and that system's ``fraction_certificate`` (1 when
    nothing is solved)."""
    index = chain.index
    nodes = frozenset(index.pos[sid] for sid in targets)
    reached, _ = chain_mod.attractor(index, nodes, OWNERS)
    interior = [v for v, hit in enumerate(reached) if hit and v not in nodes]
    values = {sid: Fraction(int(v in nodes)) for v, sid in enumerate(index.ids)}
    pivot = 1
    if interior:
        rows, rhs = chain_mod.hitting_rows(interior, index.succ, index.prob, nodes)
        solution = linsolve.factor(rows).solve(rhs)
        pivot = fraction_certificate(rows, rhs)
        values.update(zip((index.ids[v] for v in interior), solution))
    return values, pivot


def remove_states(game, cut, z_id):
    """Drop ``cut``; stochastic edges into it are redirected, at the same
    index, to absorbing z, which the first cut that needs it adds and later
    ones keep.  A controlled edge into ``cut`` raises AssertionError."""
    z = z_id
    if z is None:
        z = "z"
        while z in game.index.pos:
            z += "'"
    states = []
    for s in game.states:
        if s.id in cut:
            continue
        if any(t.target in cut for t in s.transitions):
            if s.owner != "rand":
                raise AssertionError(f"{s.id}: the cut severs a controlled edge")
            transitions = tuple(
                Transition(z, prob=t.prob, reward=t.reward) if t.target in cut else t for t in s.transitions
            )
            s = State(s.id, s.owner, reward=s.reward, transitions=transitions)
            z_id = z
        states.append(s)
    if z_id is not None and z_id not in game.index.pos:
        z_reward = 0 if game.reward_location == ON_STATES else None
        zero_reward = 0 if game.reward_location == ON_TRANSITIONS else None
        loop = Transition(z_id, prob=Fraction(1), reward=zero_reward)
        states.append(State(z_id, "rand", reward=z_reward, transitions=(loop,)))
    return replace(game, states=tuple(states)), z_id


def expected_mean_payoff(game, direction: str = "max"):
    """Optimal expected mean payoff per state of a one-player game and a
    pure memoryless optimiser: ``mdp._policy_iteration`` run to optimality."""
    mdp._require_one_player(game)
    index = game.index
    evaluation, choice = mdp._policy_iteration(index, direction)
    policy = {v: choice[v] for v, owner in enumerate(index.owner) if owner != "rand"}
    return dict(zip(index.ids, evaluation.gain)), mdp._strategy(index, policy, direction)


def reference_procedure_mp(game, start: str):
    """The paper's Procedure MP: does the controller win Mean>0 almost
    surely from ``start``?  Each round maximises the expected mean payoff
    (``expected_mean_payoff``) and answers No when the gain at ``start``
    is not positive.  Otherwise it cuts the almost-sure reach region of a
    positive-drift BSCC of the mean-payoff policy, found by the induced
    chain's ``certify.bscc_decompose`` and ``certify.analyze_bscc``.  The
    cut is dropped by ``remove_states``, its severed stochastic edges
    redirected to one absorbing zero-reward state z, until ``start`` is
    cut.  None for No, else the stitched witness: the mean-payoff choice
    inside the BSCC and the almost-sure reach choice elsewhere in a cut."""
    current = game
    stitched: dict[str, int] = {}
    z_id = None
    while start in current.index.pos:
        gains, sigma_mp = expected_mean_payoff(current, "max")
        if gains[start] <= 0:
            return None
        induced = induced_chain(current, sigma_mp.choice)
        bsccs, _ = certify.bscc_decompose(induced)
        positive = [b for b in bsccs if certify.analyze_bscc(induced, b).mean_payoff > 0]
        if not positive:
            raise AssertionError("positive gain without a positive-drift BSCC")
        component = min(positive, key=min)
        targets = set(component) | ({z_id} if z_id is not None else set())
        index = current.index
        asr = mdp.almost_sure_reach(index, [index.pos[sid] for sid in targets])
        cut = {index.ids[v] for v in asr.winning} - {z_id}
        for sid in cut:
            if current.state(sid).owner != "rand":
                stitched[sid] = sigma_mp.choice[sid] if sid in component else asr.max_choice[index.pos[sid]]
        current, z_id = remove_states(current, cut, z_id)

    for sid in game.controlled_ids():
        stitched.setdefault(sid, 0)
    return PureMemorylessStrategy(mdp._player_label(game.index.owner, "max"), stitched)


def level_id(state_id: str, level: int) -> str:
    return f"{state_id}@{level}"


@dataclass(frozen=True)
class LevelGame:
    game: Ssg
    j: int
    hi: int
    targets: frozenset[str]
    to_base: dict[str, tuple[str, int]]


def build_level_game(base: Ssg | OcSsg, j: int, liminf_value_one, hi: int | None = None) -> LevelGame:
    """Unfold the running sum of step weights into levels -j..hi with
    absorbing boundaries, as an ``Ssg`` whose states are ``<id>@<level>``.

    ``base`` is a counter game or a reward game; each step moves the level
    by its ``step_reward``, which the level game carries as its transition
    reward.  ``liminf_value_one`` is the value-1 set of liminf=-inf on
    ``base``; the target set collects the bottom boundary and every level
    copy of those states.  The default window tops out at |V|-j, the window
    of ``ocsg.termination``; a wider ``hi`` checks the limit branch.
    """
    n = len(base.states)
    if hi is None:
        if not 0 < j < n:
            raise ValueError(f"level construction needs 0 < j < |V|, got j={j}, |V|={n}")
        hi = n - j
    if j < 1 or hi < 0:
        raise ValueError("window must contain the start level 0")
    liminf_value_one = frozenset(liminf_value_one)

    states = []
    to_base = {}
    targets = set()
    for s in base.states:
        steps = [(t, step_reward(base, s, t)) for t in s.transitions]
        for level in range(-j, hi + 1):
            lid = level_id(s.id, level)
            to_base[lid] = (s.id, level)
            if level == -j or s.id in liminf_value_one:
                targets.add(lid)
            if level in (-j, hi):
                prob = Fraction(1) if s.owner == "rand" else None
                transitions = (Transition(lid, prob=prob, reward=0),)
            else:
                transitions = tuple(
                    Transition(level_id(t.target, level + w), prob=t.prob, reward=w) for t, w in steps
                )
            states.append(State(lid, s.owner, transitions=transitions))
    game = Ssg(tuple(states), reward_location="transitions")
    return LevelGame(game, j, hi, frozenset(targets), to_base)


@dataclass(frozen=True)
class Graph:
    """An int graph, the form ``chain.attractor`` and
    ``two_player_almost_sure_reach`` read: per node 0..n-1 its owner, the
    targets of its edges in edge order, and the (source, edge index) of
    every edge entering it, sources in node order.  An ``Index`` has the
    same three fields."""

    owner: list | tuple
    succ: list | tuple
    preds: list | tuple


def two_player_almost_sure_reach(graph, targets) -> TwoPlayerAsr:
    """Value-1 set for Max reaching the nodes ``targets`` of an int graph
    (a ``Graph`` or an ``Index``), with Max's witness and Min's spoiling
    choices, keyed by node.

    Classical alternating fixpoint: repeatedly delete the region from which
    Max cannot reach the target with positive probability, together with
    Min's positive-probability attractor into it, until stable.  Target
    nodes are treated as absorbing: they count no edges and never join
    Min's attractor.  Every node counts only its edges into the surviving
    region (for a live node that is not Max's, that is every edge), and
    Max's witness follows the edges that pulled its nodes into the final
    positive attractor.  A dead end that is not a target loses.
    """
    owner, succ = graph.owner, graph.succ
    n = len(succ)
    target = [False] * n
    for v in targets:
        target[v] = True
    alive = [True] * n
    spoil: dict[int, int] = {}

    while True:
        seeds = [v for v in range(n) if target[v] and alive[v]]
        into_alive = [[k for k, t in enumerate(targets) if alive[t]] for targets in succ]
        pos, max_choice = chain_mod.attractor(graph, seeds, ("max", "rand"), within=alive, allowed=into_alive)
        blocked = [v for v in range(n) if alive[v] and not pos[v]]
        if not blocked:
            break
        for v in blocked:
            if owner[v] == "min" and v not in spoil:
                # A dead end has no edge to spoil by.
                k = next((k for k, t in enumerate(succ[v]) if alive[t] and not pos[t]), None)
                if k is not None:
                    spoil[v] = k
        within = [live and not hit for live, hit in zip(alive, target)]
        doomed, pulled = chain_mod.attractor(graph, blocked, ("min", "rand"), within=within, allowed=into_alive)
        for v, k in pulled.items():
            spoil.setdefault(v, k)
        alive = [live and not gone for live, gone in zip(alive, doomed)]

    return TwoPlayerAsr(frozenset(v for v in range(n) if alive[v]), max_choice, spoil)


def level_product(base: Ssg | OcSsg, liminf_value_one) -> tuple[Graph, frozenset[int]]:
    """The running sum of step weights unfolded to L = |V|+1 offsets, as an
    int ``Graph``, and its targets.

    Node i*L + o is base state i (game order) at offset o in 0..|V|; with
    initial counter j the offset is the level plus j, so levels run from -j
    to |V|-j and the start is at offset j.  The targets are offset 0 and
    every copy of a state in ``liminf_value_one``, the value-1 set of
    liminf=-inf on ``base``.  Targets have no successors, and neither has
    the top offset |V|, a dead end that loses, so there are no boundary
    self-loops; elsewhere edge k of the base state moves the offset by its
    ``step_reward``, read from the base game's ``index``.  Nothing here
    depends on j.
    """
    index = base.index
    n = len(index.ids)
    width = n + 1
    owner: list[str] = []
    succ: list[tuple[int, ...]] = []
    targets: list[int] = []
    for i, (sid, who, nxt, weights) in enumerate(zip(index.ids, index.owner, index.succ, index.weight)):
        first = i * width
        owner += [who] * width
        if sid in liminf_value_one:
            succ += [()] * width
            targets += range(first, first + width)
            continue
        # Edge k from offset o leads to node steps[k] + o.
        steps = [t * width + w for t, w in zip(nxt, weights)]
        succ.append(())
        succ += [tuple(step + o for step in steps) for o in range(1, n)]
        succ.append(())
        targets.append(first)
    preds: list[list[tuple[int, int]]] = [[] for _ in succ]
    for v, nxt in enumerate(succ):
        for k, t in enumerate(nxt):
            preds[t].append((v, k))
    return Graph(owner, succ, preds), frozenset(targets)


# ---------------------------------------------------------------------------
# Reference parser


def _reference_violations(game: Ssg | OcSsg):
    """``ocsg.model._violations`` as first written: the same rules, messages
    and order, checked with ``Fraction`` comparisons and a second pass over
    a rand state's edges for its probability sum."""
    seen = set()
    for i, s in enumerate(game.states):
        if s.id in seen:
            yield i, None, "duplicate state id"
        seen.add(s.id)
    is_oc = isinstance(game, OcSsg)
    loc = None if is_oc else game.reward_location
    if not is_oc and loc not in (ON_STATES, ON_TRANSITIONS):
        yield None, None, f"reward location {loc!r} invalid"

    for i, s in enumerate(game.states):
        if s.owner not in OWNERS:
            yield i, None, f"unknown owner {_quoted(s.owner)}"
        if not s.transitions:
            yield i, None, "no successor"
        if loc == ON_STATES:
            if s.reward is None:
                yield i, None, "missing state reward"
            elif s.reward not in REWARD_VALUES:
                yield i, None, f"state reward {s.reward} outside {{-1,0,1}}"
        elif s.reward is not None:
            yield i, None, "unexpected state reward"

        total = Fraction(0)
        for k, t in enumerate(s.transitions):
            if t.target not in seen:
                yield i, k, f"dangling target {_quoted(t.target)}"
            if s.owner == "rand":
                if t.prob is None:
                    yield i, k, "missing probability"
                elif t.prob <= 0:
                    yield i, k, "positivity violated"
                else:
                    total += t.prob
            elif t.prob is not None:
                yield i, k, "probability on a controlled transition"
            if is_oc:
                if t.delta is None:
                    yield i, k, "missing delta"
                elif t.delta not in REWARD_VALUES:
                    yield i, k, f"delta {t.delta} outside {{-1,0,1}}"
            elif t.delta is not None:
                yield i, k, "unexpected delta"
            if loc == ON_TRANSITIONS:
                if t.reward is None:
                    yield i, k, "missing transition reward"
                elif t.reward not in REWARD_VALUES:
                    yield i, k, f"transition reward {t.reward} outside {{-1,0,1}}"
            elif t.reward is not None:
                yield i, k, "unexpected reward"
        if s.owner == "rand" and all(t.prob is not None and t.prob > 0 for t in s.transitions) and s.transitions:
            if total != 1:
                yield i, None, f"probabilities sum {_clipped_fraction(total)} != 1"


def _tokens(line: str):
    """Yield (column, token) pairs, columns 1-based."""
    for m in re.finditer(r"\S+", line):
        yield m.start() + 1, m.group()


def _parse_attrs(parts, lineno, allowed):
    attrs = {}
    for col, tok in parts:
        if "=" not in tok:
            raise ModelSyntaxError(lineno, col, f"expected key=value, found {_quoted(tok)}")
        key, _, raw = tok.partition("=")
        if key not in allowed:
            raise ModelSyntaxError(lineno, col, f"unknown attribute {_quoted(key)}")
        if key in attrs:
            raise ModelSyntaxError(lineno, col, f"repeated attribute {_quoted(key)}")
        attrs[key] = (col, raw)
    return attrs


def _parse_int_reward(lineno, col, raw, what):
    try:
        value = int(raw)
    except ValueError:
        raise ModelSyntaxError(lineno, col, f"expected integer {what}, found {_quoted(raw)}") from None
    if value not in REWARD_VALUES:
        raise ModelSemanticError(f"{what} {_quoted(raw)} outside {{-1,0,1}}", lineno)
    return value


def _parse_prob(lineno, col, raw):
    m = re.fullmatch(r"(\d+)(?:/(\d+))?", raw)
    if not m:
        raise ModelSyntaxError(lineno, col, f"expected probability num/den, found {_quoted(raw)}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError:  # more digits than int() converts
        raise ModelSyntaxError(lineno, col, f"probability numeral too long, found {_quoted(raw)}") from None
    if den == 0:
        raise ModelSemanticError("zero probability denominator", lineno)
    return Fraction(num, den)


def reference_parse_model(text: str) -> Ssg | OcSsg:
    """``ocsg.model.parse_model`` as first written: a regex scan that keeps
    every token's column, a fresh ``Fraction`` per ``p=`` token, and
    ``_reference_violations`` for the model rules.  The differential parser
    tests hold ``parse_model`` to it on every error and on every game's
    index columns and state rewards."""
    header = None
    reward_location = None
    declared: dict[str, tuple[str, int | None, list[int]]] = {}  # id -> owner, reward, its lines
    transitions: dict[str, list[Transition]] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = list(_tokens(line))
        col0, keyword = parts[0]

        if header is None:
            if keyword == "ssg":
                attrs = _parse_attrs(parts[1:], lineno, {"rewards"})
                if "rewards" not in attrs:
                    raise ModelSyntaxError(lineno, col0, "ssg header requires rewards=states|transitions")
                col, raw = attrs["rewards"]
                if raw not in (ON_STATES, ON_TRANSITIONS):
                    raise ModelSyntaxError(lineno, col, f"expected states|transitions, found {_quoted(raw)}")
                reward_location = raw
            elif keyword == "ocssg":
                if parts[1:]:
                    raise ModelSyntaxError(lineno, parts[1][0], "ocssg header takes no attributes")
            else:
                raise ModelSyntaxError(lineno, col0, f"expected header ssg|ocssg, found {_quoted(keyword)}")
            header = keyword
            continue

        if keyword == "state":
            if len(parts) < 2:
                raise ModelSyntaxError(lineno, col0, "expected state id")
            col_id, sid = parts[1]
            if not _ID_RE.match(sid):
                raise ModelSyntaxError(lineno, col_id, f"invalid state id {_quoted(sid)}")
            attrs = _parse_attrs(parts[2:], lineno, {"owner", "reward"})
            if "owner" not in attrs:
                raise ModelSyntaxError(lineno, col_id, "state line requires owner=max|min|rand")
            col, raw = attrs["owner"]
            if raw not in OWNERS:
                raise ModelSyntaxError(lineno, col, f"expected owner max|min|rand, found {_quoted(raw)}")
            if sid in declared:
                raise ModelSemanticError(f"{_clipped(sid)}: duplicate state id", lineno)
            reward = _parse_int_reward(lineno, *attrs["reward"], "reward") if "reward" in attrs else None
            declared[sid] = (raw, reward, [lineno])  # the state line, then one per transition
            transitions[sid] = []

        elif keyword == "trans":
            if len(parts) < 4 or parts[2][1] != "->":
                col = parts[2][0] if len(parts) > 2 else col0
                raise ModelSyntaxError(lineno, col, "expected trans <src> -> <dst>")
            _, src = parts[1]
            col_dst, dst = parts[3]
            if not _ID_RE.match(dst):
                raise ModelSyntaxError(lineno, col_dst, f"invalid target id {_quoted(dst)}")
            attrs = _parse_attrs(parts[4:], lineno, {"p", "reward", "delta"})
            if src not in declared:
                raise ModelSemanticError(f"transition from undeclared state {_quoted(src)}", lineno)
            prob = _parse_prob(lineno, *attrs["p"]) if "p" in attrs else None
            reward = _parse_int_reward(lineno, *attrs["reward"], "reward") if "reward" in attrs else None
            delta = _parse_int_reward(lineno, *attrs["delta"], "delta") if "delta" in attrs else None
            transitions[src].append(Transition(dst, prob=prob, reward=reward, delta=delta))
            declared[src][2].append(lineno)

        else:
            raise ModelSyntaxError(lineno, col0, f"expected state|trans, found {_quoted(keyword)}")

    if header is None:
        raise ModelSyntaxError(1, 1, "empty input, expected header ssg|ocssg")

    states = tuple(
        State(sid, owner, reward=reward, transitions=tuple(transitions[sid]))
        for sid, (owner, reward, _) in declared.items()
    )
    game = OcSsg(states) if header == "ocssg" else Ssg(states, reward_location=reward_location)
    violations = list(_reference_violations(game))
    if violations:
        rows = [lines for _, _, lines in declared.values()]
        line, _, i, k, message = min(
            (rows[i][0 if k is None else k + 1], order, i, k, message)
            for order, (i, k, message) in enumerate(violations)
        )
        raise ModelSemanticError(_describe(game, i, k, message), line)
    return game


@dataclass(frozen=True)
class FractionFactorization:
    """One ``Fraction`` elimination of an n x n matrix.  Each step is (pivot
    column c, pivot row index p, pivot row, [(row index, multiplier)]); the
    pivot row is final, with c and later pivot columns only."""

    n: int
    steps: list

    def solve(self, rhs):
        b = [Fraction(r) for r in rhs]
        for _, p, _, multipliers in self.steps:
            if b[p]:
                for i, f in multipliers:
                    b[i] -= f * b[p]
        x = [Fraction(0)] * self.n
        for c, p, row, _ in reversed(self.steps):
            x[c] = (b[p] - sum((a * x[j] for j, a in row.items() if j != c), Fraction(0))) / row[c]
        return x

    def solve_transposed(self, rhs):
        d = [Fraction(r) for r in rhs]
        z = [Fraction(0)] * self.n
        for c, p, row, _ in self.steps:
            z[p] = d[c] / row[c]
            for j, a in row.items():
                if j != c:
                    d[j] -= a * z[p]
        for _, p, _, multipliers in reversed(self.steps):
            z[p] -= sum((f * z[i] for i, f in multipliers), Fraction(0))
        return z


def fraction_factor(rows) -> FractionFactorization:
    """Markowitz elimination as in ``ocsg.linsolve.factor`` (sparsest
    column, then sparsest row in it, lowest index on ties), eliminating
    with ``Fraction`` multipliers."""
    n = len(rows)
    live = [{j: Fraction(a) for j, a in row.items() if a} for row in rows]
    col_rows = [set() for _ in range(n)]
    for i, row in enumerate(live):
        for j in row:
            col_rows[j].add(i)
    heap = [(len(col_rows[j]), j) for j in range(n)]
    heapq.heapify(heap)
    done = [False] * n
    steps = []
    while heap:
        count, c = heapq.heappop(heap)
        if done[c] or count != len(col_rows[c]):
            continue
        if not count:
            raise linsolve.SingularMatrixError(f"no pivot in column {c}")
        done[c] = True
        p = min(col_rows[c], key=lambda i: (len(live[i]), i))
        pivot_row = live[p]
        for j in pivot_row:
            col_rows[j].discard(p)
        rest = [(j, a) for j, a in pivot_row.items() if j != c]
        multipliers = []
        for i in col_rows[c]:
            row = live[i]
            f = row.pop(c) / pivot_row[c]
            multipliers.append((i, f))
            for j, a in rest:
                v = row.get(j, 0) - f * a
                if v:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
        for j, _ in rest:
            heapq.heappush(heap, (len(col_rows[j]), j))
        steps.append((c, p, pivot_row, multipliers))
    return FractionFactorization(n, steps)


def fraction_certificate(rows, rhs) -> int:
    """The determinant certificate of ``rows`` x = ``rhs``: |product of the
    ``fraction_factor`` pivots| times the product over the rows of the lcm
    of the row's and its right-hand side's denominators.  Raises
    ``linsolve.SingularMatrixError`` on a singular matrix."""
    scale = prod(
        lcm(Fraction(r).denominator, *(Fraction(a).denominator for a in row.values())) for row, r in zip(rows, rhs)
    )
    pivots = prod((row[c] for c, _, row, _ in fraction_factor(rows).steps), start=Fraction(1))
    certificate = abs(pivots * scale)
    assert certificate.denominator == 1
    return certificate.numerator
