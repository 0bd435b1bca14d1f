"""One-player solvers on the game graph.

All operations optimise every controlled state in the requested direction;
inputs are expected to be one-player models (a residual of ``fix_strategies``
or a game whose controlled states belong to a single player).  The exception
is ``almost_sure_reach``, which is a genuine two-player fixpoint keyed on
owner labels: max-owned states work toward the target, min-owned states
spoil.

Probabilities, values, and gains are exact Fractions throughout; policy
iteration terminates because every accepted switch strictly improves an
exactly evaluated quantity.

A limit objective is decided from the end components, as in the paper, by
one rule table (``_MEC_RULES``) read by one function (``_mec_part``): the
sign of each MEC's optimal gain, and at gain 0 one part of its tight
sub-MDP, the end components with a noisy rand state (liminf = -inf) or
those without one (liminf > -inf); then almost-sure reach of the states
they win.  A MEC's gain policy iteration stops at the first policy whose
closed classes all have a mean of winning sign, which then wins the whole
MEC (every state's gain is a convex combination of class means); only a
MEC that no policy wins is solved to optimality, so a gain-0 MEC gets the
optimal bias.  Each round evaluates its policy only as far as it reads
(``_PolicyEvaluation``): class means first, the transient gain when it
does not stop, the bias when no gain switch exists.  No potential test
runs on this path, and energy lifting (``energy_min_credit``) serves only
the termination-value-0 question.

Policy iteration rounds run on the game's int ``model.Index``: a round
reads its policy's chain as int successor lists, splits it with the one
Tarjan kernel (``chain.bottom_sccs``) and builds the stationary and
transient systems from those lists, with no game built.

Inside one ``ssg.solve_limit_ssg`` call, ``COMPONENT_MEMO`` holds a dict
that memoizes end-component results by content: each closed class of an
induced chain (its mean, and the factorization of its stationary system,
from which its canonical bias is computed on the first read and kept),
keyed on its members' steps in game order, each (id, ((target id,
numerator, denominator, weight), ...)) in strs and ints, so a lookup hashes
no ``State``, ``Transition`` or ``Fraction``; and the gain policy
iteration on a MEC sub-MDP, keyed on the direction and the winning signs
of the objective's rule (which fix where it stops), the game flavour (type
and ``reward_location``) and the sub-MDP's states.  A class key holds
every probability and weight its analysis reads, so equal keys mean equal
results.  Outside a solve the variable is None and nothing is cached.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import chain as chain_mod
from . import linsolve
from .model import (
    LIMIT_KINDS,
    ON_STATES,
    ON_TRANSITIONS,
    Objective,
    OcSsg,
    PureMemorylessStrategy,
    SolveResult,
    Ssg,
    State,
    Transition,
    _quoted,
    fix_strategies,
    relabel_controlled,
    step_reward,
)

INFINITE_CREDIT = math.inf

COMPONENT_MEMO: ContextVar[dict | None] = ContextVar("COMPONENT_MEMO", default=None)
_MISSING = object()


def _memoized(key, compute):
    """``compute()``, looked up in and stored to ``COMPONENT_MEMO`` when a
    solve has set it; callers must not mutate what it returns."""
    memo = COMPONENT_MEMO.get()
    if memo is None:
        return compute()
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value


def _flavour(game) -> tuple:
    return type(game), getattr(game, "reward_location", None)


def _require_one_player(game) -> None:
    owners = {s.owner for s in game.states if s.owner != "rand" and len(s.transitions) > 1}
    if len(owners) > 1:
        raise ValueError("one-player model expected, both players still have choices")


def _player_label(game, direction: str) -> str:
    owners = {s.owner for s in game.states if s.owner != "rand"}
    return owners.pop() if len(owners) == 1 else direction


def _induced_chain(game, policy: dict[str, int]) -> Ssg:
    """The chain left when every controlled state follows ``policy``."""
    split = {"max": {}, "min": {}}
    for sid, k in policy.items():
        split[game.by_id[sid].owner][sid] = k
    return fix_strategies(game, *(PureMemorylessStrategy(player, choice) for player, choice in split.items()))


def _strategy(game, policy: dict[str, int], direction: str) -> PureMemorylessStrategy:
    return PureMemorylessStrategy(_player_label(game, direction), dict(policy))


def _better(direction: str, a, b) -> bool:
    return a > b if direction == "max" else a < b


def _extreme(direction: str, values):
    return max(values) if direction == "max" else min(values)


# ---------------------------------------------------------------------------
# Reachability


def solve_reachability(game: Ssg, targets, direction: str = "max") -> SolveResult:
    """Optimal hitting probabilities by policy iteration with exact evaluation.

    Each candidate policy is evaluated through ``chain.reach_probabilities``
    (the least fixed point), a switch is accepted only on strict improvement,
    and the loop stops at a policy with no improving switch.
    """
    _require_one_player(game)
    targets = frozenset(targets)
    missing = targets - set(game.ids())
    if missing:
        raise ValueError(f"unknown target states {sorted(missing)}")
    controlled = game.controlled_ids()

    avoid_region: set[str] = set()
    if direction == "min":
        avoid_region = set(game.ids()) - chain_mod.attractor(game, targets, ("rand",))[0]

    policy: dict[str, int] = {}
    for sid in controlled:
        trans = game.state(sid).transitions
        if sid in avoid_region:
            policy[sid] = next(k for k, t in enumerate(trans) if t.target in avoid_region)
        else:
            policy[sid] = 0

    limit = 1
    for sid in controlled:
        limit *= len(game.state(sid).transitions)
    for _ in range(limit + 1):
        values = chain_mod.reach_probabilities(_induced_chain(game, policy), targets)
        switched = False
        for sid in controlled:
            if sid in targets:
                continue
            trans = game.state(sid).transitions
            qs = [values[t.target] if t.target not in targets else Fraction(1) for t in trans]
            best = _extreme(direction, qs)
            if _better(direction, best, values[sid]):
                policy[sid] = qs.index(best)
                switched = True
        if not switched:
            witness = _strategy(game, policy, direction)
            return SolveResult.from_values(
                values,
                witness_max=witness if witness.player == "max" else None,
                witness_min=witness if witness.player == "min" else None,
            )
    raise AssertionError("policy iteration failed to terminate")


# ---------------------------------------------------------------------------
# Almost-sure reachability (two-player fixpoint)


@dataclass(frozen=True)
class AsrResult:
    """Keyed by node: state ids on a game, ints on an int-keyed graph."""

    winning: frozenset
    max_choice: dict
    spoil_choice: dict


def almost_sure_reach(game, targets) -> AsrResult:
    """Value-1 set for Max reaching ``targets``, with witness and spoiler data.

    Classical alternating fixpoint: repeatedly delete the region from which
    Max cannot reach the target with positive probability, together with
    Min's positive-probability attractor into it, until stable.  Target
    nodes are treated as absorbing.  Max nodes count only their edges that
    stay in the surviving region, and Max's witness follows the edges that
    pulled its nodes into the final positive attractor.

    Reads only ``game.graph``, like ``chain.attractor``: ``game`` is a game,
    keyed by state id, or a ``model.Graph`` such as the int-keyed level
    product of ``termination``.
    """
    graph = game.graph
    owner, succ = graph.owner, graph.succ
    alive = set(graph.nodes)
    targets = frozenset(targets) & alive
    allowed = {v: [] if v in targets else list(range(len(succ[v]))) for v in graph.nodes}
    spoil: dict = {}

    while True:
        pos, max_choice = chain_mod.attractor(graph, targets & alive, ("max", "rand"), alive, allowed)
        blocked = alive - pos
        if not blocked:
            break
        for v in blocked:
            if owner[v] == "min" and v not in spoil:
                spoil[v] = next(k for k, t in enumerate(succ[v]) if t in blocked)
        doomed, pulled = chain_mod.attractor(graph, blocked, ("min", "rand"), alive, allowed)
        for v, k in pulled.items():
            spoil.setdefault(v, k)
        alive -= doomed
        for v in alive:
            if owner[v] == "max":
                allowed[v] = [k for k in allowed[v] if succ[v][k] in alive]

    return AsrResult(frozenset(alive), max_choice, spoil)


# ---------------------------------------------------------------------------
# Expected mean payoff (gain/bias policy iteration)


class _ClosedClass:
    """A closed class of an induced chain: its mean payoff, and its
    canonical bias (stationary average 0, keyed by state id) computed on
    the first read of ``bias`` and kept.

    ``members`` are nodes of the game index in game order; node v steps to
    ``succ[v][k]`` with probability ``prob[v][k]`` and has the per-visit
    reward ``rewards[v]``.  The mean is the stationary average of the
    per-visit rewards.  The unichain evaluation g + h(s) - sum_t P(s, t)
    h(t) = r(s) with h(first member) = 0 is M x = r for x = (g, h without
    its first entry) and M = [1 | (I - P) without column 0].  M^T is the
    stationary system S of ``chain.stationary_system``, so the bias reuses
    the law's factorization: h from ``solve_transposed``, shifted by its
    stationary average.
    """

    def __init__(self, ids, members, succ, prob, rewards):
        law, self._system = chain_mod.stationary_system(members, succ, prob)
        self.stationary = dict(zip((ids[v] for v in members), law))
        self._rewards = [rewards[v] for v in members]
        self.mean = sum((w * r for w, r in zip(law, self._rewards)), Fraction(0))

    @cached_property
    def bias(self) -> dict[str, Fraction]:
        h = [Fraction(0)] + self._system.solve_transposed(self._rewards)[1:]
        shift = sum((w * v for w, v in zip(self.stationary.values(), h)), Fraction(0))
        return {sid: v - shift for sid, v in zip(self.stationary, h)}


class _PolicyEvaluation:
    """The gain and canonical bias of a fixed policy (multichain
    evaluation), computed only as far as they are read, each at most once.

    The induced chain is read from the game's ``index`` as int successor
    lists (``Index.chain_steps``); no game is built.  Its closed classes
    are its ``chain.bottom_sccs``.  ``means`` (the closed classes' mean
    payoffs) come first, from the classes' stationary laws.  ``gain`` adds
    the transient states: one factorization of I - P_TT, kept.  ``bias`` adds each class's bias and solves the transient bias
    with that factorization.  ``node_gain`` and ``node_bias`` are the same
    values indexed by node, ``gain`` and ``bias`` keyed by state id.  A
    closed class is memoized in ``COMPONENT_MEMO``, bias included, on the
    content keys of its members' steps.
    """

    def __init__(self, game, policy):
        index = game.index
        n = len(index.ids)
        choice = [0] * n
        for sid, k in policy.items():
            choice[index.pos[sid]] = k
        steps = [options[k] for options, k in zip(index.chain_steps, choice)]
        self._ids = ids = index.ids
        self._succ = succ = [step[0] for step in steps]
        self._prob = prob = [step[1] for step in steps]
        self._rewards = rewards = [step[2] for step in steps]
        self._members = chain_mod.bottom_sccs(succ)
        self._classes = [
            _memoized(
                ("class", tuple(steps[v][3] for v in members)),
                lambda: _ClosedClass(ids, members, succ, prob, rewards),
            )
            for members in self._members
        ]
        self.means = [closed.mean for closed in self._classes]
        closed = {v for members in self._members for v in members}
        self._transient = [v for v in range(n) if v not in closed]

    @cached_property
    def _system(self) -> linsolve.Factorization:
        pos = {v: i for i, v in enumerate(self._transient)}
        rows = [{i: 1} for i in range(len(pos))]
        for i, v in enumerate(self._transient):
            row = rows[i]
            for t, p in zip(self._succ[v], self._prob[v]):
                j = pos.get(t)
                if j is not None:
                    row[j] = row.get(j, 0) - p
        return linsolve.factor(rows)

    def _extend(self, values: list, rhs) -> list:
        """``values`` on the closed classes (None elsewhere) extended to the
        transient states: x = rhs + P_TC values, solved against I - P_TT."""
        if self._transient:
            succ, prob = self._succ, self._prob
            exits = [
                sum((p * values[t] for t, p in zip(succ[v], prob[v]) if values[t] is not None), r)
                for v, r in zip(self._transient, rhs)
            ]
            for v, x in zip(self._transient, self._system.solve(exits)):
                values[v] = x
        return values

    @cached_property
    def node_gain(self) -> list[Fraction]:
        gain = [None] * len(self._ids)
        for members, closed in zip(self._members, self._classes):
            for v in members:
                gain[v] = closed.mean
        return self._extend(gain, [Fraction(0)] * len(self._transient))

    @cached_property
    def node_bias(self) -> list[Fraction]:
        bias = [None] * len(self._ids)
        for members, closed in zip(self._members, self._classes):
            for v, h in zip(members, closed.bias.values()):
                bias[v] = h
        gain = self.node_gain
        return self._extend(bias, [self._rewards[v] - gain[v] for v in self._transient])

    @cached_property
    def gain(self) -> dict[str, Fraction]:
        return dict(zip(self._ids, self.node_gain))

    @cached_property
    def bias(self) -> dict[str, Fraction]:
        return dict(zip(self._ids, self.node_bias))


def expected_mean_payoff(game, direction: str = "max", bias_out: dict | None = None):
    """Optimal expected mean payoff per state plus a pure memoryless optimiser.

    Howard's multichain policy iteration (``_policy_iteration``) run to
    optimality.  A ``bias_out`` dict receives the canonical bias of the
    returned policy, which the last round has already evaluated.
    """
    _require_one_player(game)
    evaluation, policy = _policy_iteration(game, direction)
    if bias_out is not None:
        bias_out.update(evaluation.bias)
    return evaluation.gain, _strategy(game, policy, direction)


def _policy_iteration(game, direction: str, stop=None):
    """The last ``_PolicyEvaluation`` and the policy of Howard's multichain
    policy iteration (Puterman 1994, section 9.2) from the all-first-edges
    policy.

    Each round switches to an edge of strictly better gain, and only when
    none exists to a gain-tied edge of strictly better reward plus
    canonical bias.  Switching is conservative (the current edge stays
    unless a strictly better one exists), so no policy repeats; a repeat
    raises AssertionError.  The loop returns at the first policy with no
    improving switch, or earlier at the first evaluated policy whose
    closed-class means satisfy ``stop``.  A round reads the gain only when
    it does not stop, and the bias only when no gain switch exists.  The
    rounds read the game's ``index``.
    """
    index = game.index
    ids, succ, weight = index.ids, index.succ, index.weight
    controlled = [v for v, owner in enumerate(index.owner) if owner != "rand"]
    policy = {ids[v]: 0 for v in controlled}
    seen = set()
    while True:
        key = tuple(policy.values())
        if key in seen:
            raise AssertionError("mean-payoff policy iteration revisited a policy")
        seen.add(key)
        evaluation = _PolicyEvaluation(game, policy)
        if stop is not None and stop(evaluation.means):
            return evaluation, policy
        gain = evaluation.node_gain
        switched = False
        for v in controlled:
            qs_gain = [gain[t] for t in succ[v]]
            best_gain = _extreme(direction, qs_gain)
            if _better(direction, best_gain, gain[v]):
                policy[ids[v]] = qs_gain.index(best_gain)
                switched = True
        if switched:
            continue
        bias = evaluation.node_bias
        for v in controlled:
            qs_bias = {k: w + bias[t] for k, (t, w) in enumerate(zip(succ[v], weight[v])) if gain[t] == gain[v]}
            best = _extreme(direction, qs_bias.values())
            if _better(direction, best, gain[v] + bias[v]):
                policy[ids[v]] = next(k for k, q in qs_bias.items() if q == best)
                switched = True
        if not switched:
            return evaluation, policy


# ---------------------------------------------------------------------------
# Maximal end components


@dataclass(frozen=True)
class Mec:
    members: frozenset[str]
    allowed: dict[str, tuple[int, ...]]


def mec_decompose(game, within=None) -> list[Mec]:
    """Maximal end components by iterated SCC splitting and pruning, of the
    whole game or of the sub-MDP that the start set ``within`` induces."""
    _require_one_player(game)
    mecs: list[Mec] = []
    queue: list[frozenset[str]] = [frozenset(game.ids() if within is None else within)]
    while queue:
        candidate = queue.pop()
        candidate -= chain_mod.attractor(game, set(game.ids()) - candidate, ("rand",))[0]
        if not candidate:
            continue
        comps = chain_mod.strongly_connected_components(game, within=candidate)
        if len(comps) == 1 and set(comps[0]) == candidate:
            allowed = {}
            for sid in candidate:
                s = game.state(sid)
                if s.owner == "rand":
                    allowed[sid] = tuple(range(len(s.transitions)))
                else:
                    allowed[sid] = tuple(k for k, t in enumerate(s.transitions) if t.target in candidate)
            mecs.append(Mec(frozenset(candidate), allowed))
        else:
            queue.extend(frozenset(c) for c in comps)
    mecs.sort(key=lambda m: min(m.members))
    return mecs


def _restrict_to_mec(game, mec: Mec):
    """Sub-MDP on the MEC; controlled transition indices are remapped."""
    states = []
    index_map: dict[str, tuple[int, ...]] = {}
    for s in game.states:
        if s.id not in mec.members:
            continue
        keep = mec.allowed[s.id]
        index_map[s.id] = tuple(keep)
        states.append(State(s.id, s.owner, reward=s.reward, transitions=tuple(s.transitions[k] for k in keep)))
    return game.with_states(tuple(states)), index_map


# ---------------------------------------------------------------------------
# Procedure MP: almost-sure positive mean payoff


def procedure_mp(game, start: str):
    """Decide whether the controller wins Mean>0 almost surely from ``start``.

    Faithful loop: maximise expected mean payoff, stop with No when the gain
    at ``start`` is not positive, otherwise cut the region that almost surely
    reaches a positive-drift BSCC of the mean-payoff policy σ_mp, redirecting
    severed stochastic edges to a fresh absorbing zero-reward state z.

    The cut comes from almost-sure reach: in a one-player game value-1
    reachability is almost-sure reachability, so the cut is the winning set
    of ``almost_sure_reach`` toward the BSCC and z (which stands for earlier
    cuts, all won almost surely), less z.  The witness keeps σ_mp inside the
    BSCC and takes the almost-sure reach choice elsewhere in the cut.

    Indices never shift: a controlled state with an edge into the cut could
    step into it, so it is in the cut itself.  A cut therefore severs only
    rand edges, and ``_remove_states`` redirects those to z at the same index.

    Returns None for No, or the stitched PureMemorylessStrategy.
    """
    _require_one_player(game)
    if start not in game.by_id:
        raise ValueError(f"unknown state {_quoted(start)}")
    if isinstance(game, OcSsg):
        raise ValueError("reward game expected, translate the counter first")

    current = game
    stitched: dict[str, int] = {}
    z_id = None
    while start in current.by_id:
        gains, sigma_mp = expected_mean_payoff(current, "max")
        if gains[start] <= 0:
            return None
        induced = _induced_chain(current, sigma_mp.choice)
        bsccs, _ = chain_mod.bscc_decompose(induced)
        positive = [b for b in bsccs if chain_mod.analyze_bscc(induced, b).mean_payoff > 0]
        if not positive:
            raise AssertionError("positive gain without a positive-drift BSCC")
        component = min(positive, key=min)
        targets = set(component) | ({z_id} if z_id is not None else set())
        asr = almost_sure_reach(relabel_controlled(current, "max"), targets)
        cut = asr.winning - {z_id}
        for sid in cut:
            if current.state(sid).owner != "rand":
                stitched[sid] = sigma_mp.choice[sid] if sid in component else asr.max_choice[sid]
        current, z_id = _remove_states(current, cut, z_id)

    for sid in game.controlled_ids():
        stitched.setdefault(sid, 0)
    return PureMemorylessStrategy(_player_label(game, "max"), stitched)


def _remove_states(game, cut, z_id):
    """Drop ``cut``; stochastic edges into it are redirected, at the same
    index, to absorbing z, which the first cut that needs it adds and later
    ones keep.  A controlled edge into ``cut`` raises AssertionError."""
    z = z_id
    if z is None:
        z = "z"
        while z in game.by_id:
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
    if z_id is not None and z_id not in game.by_id:
        z_reward = 0 if game.reward_location == ON_STATES else None
        zero_reward = 0 if game.reward_location == ON_TRANSITIONS else None
        loop = Transition(z_id, prob=Fraction(1), reward=zero_reward)
        states.append(State(z_id, "rand", reward=z_reward, transitions=(loop,)))
    return game.with_states(tuple(states)), z_id


# ---------------------------------------------------------------------------
# Energy games: minimal credit for keeping prefix sums nonnegative


def energy_min_credit(game, keeper: str = "max") -> dict[str, int | float]:
    """Minimal initial credit per state in the nonnegative-energy game.

    ``keeper`` must keep every prefix sum of step weights >= 0; the other
    player and all rand states are adversarial.  Standard lifting fixpoint
    (Brim, Chaloupka, Doyen, Gentilini, Raskin 2011) run as a worklist: a
    state is lifted again only after the credit of a successor rose, and
    lifting is monotone, so this reaches the least fixpoint.  The lifts
    read the successor, weight and predecessor lists of the game's
    ``index``.
    Weights in {-1,0,+1} cap finite credits at |V|, larger demands are
    infinite.
    Only the termination-value-0 question (``termination.decide_term_zero``)
    needs it; the limit objectives are decided from end components.
    """
    if keeper not in ("max", "min"):
        raise ValueError("keeper must be max or min")
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
        needs = [max(0, credit[t] - w) for t, w in zip(succ[i], weight[i])]
        need = min(needs) if keeps[i] else max(needs)
        candidate = INFINITE_CREDIT if need > cutoff else need
        if candidate > credit[i]:
            credit[i] = candidate
            for pred in preds[i]:
                if not queued[pred]:
                    queued[pred] = True
                    queue.append(pred)
    return dict(zip(ids, credit))


# ---------------------------------------------------------------------------
# Qualitative and quantitative limit objectives


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sub_gain(sub, rule):
    """Gain policy iteration on the end-component sub-MDP in the rule's
    direction: a gain, the policy's choice in sub-MDP indices and its bias.

    It stops at the first policy whose closed classes all have a mean of
    winning sign, and returns the least favourable of those means and no
    bias.  That test reads no transient gain, and it is exact: a transient
    state's gain is a convex combination, with positive weights, of the
    means of the classes it reaches, and each set of winning signs is an
    interval, so every state's gain wins exactly when every class mean
    does, and the least favourable gain is the extreme class mean.  Such a
    policy wins the whole MEC.  A MEC that no policy wins, a gain-0 one
    included, is solved to optimality: its gain is constant and the bias
    is the optimiser's.
    """
    direction, winning_signs, _ = rule

    def wins(means):
        return all(_sign(m) in winning_signs for m in means)

    evaluation, policy = _policy_iteration(sub, direction, wins)
    least = min if direction == "max" else max
    if wins(evaluation.means):
        return least(evaluation.means), policy, None
    values = set(evaluation.node_gain)
    if len(values) != 1:
        raise AssertionError("gain not constant on an end component")
    return least(values), policy, evaluation.bias


def _mec_gain(game, mec: Mec, rule):
    """``_sub_gain`` on the MEC, memoized on the rule's direction and
    winning signs, with the choice in original indices."""
    sub, index_map = _restrict_to_mec(game, mec)
    key = ("mec", rule[:2], _flavour(sub), sub.states)
    gain, choice, bias = _memoized(key, lambda: _sub_gain(sub, rule))
    return gain, {sid: index_map[sid][k] for sid, k in choice.items()}, bias


def _tight_part(game, mec: Mec, bias):
    """The MEC's tight sub-MDP under the bias h of a gain-0 optimiser, its
    index map to original edges, and its noisy rand states.

    The slack r(s,k) + h(target) - h(s) is >= 0 (min) or <= 0 (max) on every
    controlled edge and averages 0 at rand states.  The tight sub-MDP keeps
    every rand edge and the controlled edges of slack 0; a rand state with
    an edge of nonzero slack is noisy.
    """
    allowed, noisy = {}, set()
    for sid, edges in mec.allowed.items():
        s = game.state(sid)
        zero = tuple(
            k for k in edges if step_reward(game, s, s.transitions[k]) + bias[s.transitions[k].target] == bias[sid]
        )
        allowed[sid] = zero if s.owner != "rand" else edges
        if s.owner == "rand" and len(zero) < len(edges):
            noisy.add(sid)
    tight, tight_map = _restrict_to_mec(game, Mec(mec.members, allowed))
    return tight, tight_map, noisy


def _noisy_components(tight, noisy):
    """The end components C of the min-gain tight sub-MDP that hold a noisy
    state, each with the choice of the positive attractor toward x = min(C
    & noisy) inside C: liminf = -inf almost surely on C.

    The attractor pulls in all of C, and C is closed under the choice, so x
    is reached almost surely and lies in a BSCC B.  B has mean 0: its
    controlled edges are tight and rand slacks average 0.  B has no
    potential: if phi were one, each slack in B would be g(t) - g(s) with g
    = phi + h, g would be harmonic on the irreducible chain B, hence
    constant, and x would have no edge of nonzero slack.  A mean-0 BSCC
    without a potential drives liminf to -inf.  Conversely every policy
    BSCC of mean 0 uses only tight controlled edges, and one with no noisy
    state has the potential -h, so these components are all the gain-0 MEC
    offers; with a potential on the MEC no tight component holds a noisy
    state.
    """
    members, choice = set(), {}
    for component in mec_decompose(tight):
        x = min(component.members & noisy, default=None)
        if x is not None:
            members |= component.members
            choice.update(chain_mod.attractor(tight, {x}, ("max", "rand"), component.members, component.allowed)[1])
    return members, choice


def _quiet_components(tight, noisy):
    """The end components of the max-gain tight sub-MDP without noisy
    states, where each controlled state takes its first edge inside its
    component: liminf > -inf almost surely there.

    Every slack inside is 0, so the prefix sum from s to t is h(s) - h(t),
    which is bounded.  It is all the gain-0 MEC offers: let B be a policy
    BSCC in the MEC with liminf > -inf almost surely.  Its mean is <= 0 (the
    max gain) and not < 0, so 0.  Stationary weights are positive,
    controlled slacks <= 0 and rand slacks average 0, and the weighted slack
    sum is the mean, so B uses only tight controlled edges.  B has a
    potential phi (a mean-0 BSCC with liminf > -inf), so each slack in B is
    g(t) - g(s) with g = phi + h; g is harmonic on the irreducible chain B,
    hence constant, and no rand state of B is noisy.
    """
    members, choice = set(), {}
    for component in mec_decompose(tight, within=set(tight.ids()) - noisy):
        members |= component.members
        choice.update({sid: edges[0] for sid, edges in component.allowed.items() if tight.state(sid).owner != "rand"})
    return members, choice


# Per limit objective: the direction of the MEC gain solve, the gain signs
# that win the whole MEC, and the part a gain-0 MEC wins (None: nothing).
# The MEC's policy iteration stops at the first policy whose gain has a
# winning sign at every state, so the memo key holds the first two fields.
_MEC_RULES = {
    "mean-gt": ("max", (1,), None),
    "liminf-plus-inf": ("max", (1,), None),
    "mean-leq": ("min", (-1, 0), None),
    "liminf-lt-plus-inf": ("min", (-1, 0), None),
    "liminf-minus-inf": ("min", (-1,), _noisy_components),
    "liminf-gt-minus-inf": ("max", (1,), _quiet_components),
}


def _mec_part(game, mec: Mec, rule):
    """The MEC states where Max wins by staying in the MEC, with a choice
    in original indices that does so: the whole MEC with the choice of a
    policy whose gain wins at every state, the rule's tight part at gain 0,
    and nothing otherwise."""
    _, winning_signs, zero_part = rule
    gain, choice, bias = _mec_gain(game, mec, rule)
    if _sign(gain) in winning_signs:
        return frozenset(mec.members), choice
    if gain != 0 or zero_part is None:
        return frozenset(), {}
    tight, tight_map, noisy = _tight_part(game, mec, bias)
    members, keep = zero_part(tight, noisy)
    return frozenset(members), {sid: tight_map[sid][k] for sid, k in keep.items()}


def _value_one_region(game, objective: Objective):
    """Maximising value-1 set W plus a witness choice map defined on W.

    Each MEC of the game with every controlled state handed to Max yields,
    by ``_mec_part`` and the objective's row of ``_MEC_RULES``, the states
    where Max wins by staying in it and a choice that stays; W is
    almost-sure reach of them, and contains them.
    """
    rule = _MEC_RULES.get(objective.kind)
    if rule is None:
        raise ValueError(f"unsupported limit tag {objective.kind}")
    relabeled = relabel_controlled(game, "max")
    cores: dict[str, int] = {}
    targets: set[str] = set()
    for mec in mec_decompose(relabeled):
        members, choice = _mec_part(relabeled, mec, rule)
        targets |= members
        cores.update(choice)
    asr = almost_sure_reach(relabeled, targets)
    return asr.winning, {**asr.max_choice, **cores}


def quantitative_limit(game, objective: Objective, direction: str = "max") -> SolveResult:
    """Exact optimal values: reachability of the value-1 region (max form),
    complemented for the minimising direction."""
    _require_one_player(game)
    if objective.kind not in LIMIT_KINDS:
        raise ValueError(f"not a limit objective: {objective.kind}")
    if direction == "min":
        comp = quantitative_limit(game, objective.complement(), "max")
        values = {sid: 1 - v for sid, v in comp.values.items()}
        return SolveResult.from_values(values, comp.witness_max, comp.witness_min)

    winning, region_choice = _value_one_region(game, objective)
    reach = solve_reachability(game, winning, "max")
    policy = dict((reach.witness_max or reach.witness_min).choice)
    policy.update(region_choice)
    witness = _strategy(game, policy, "max")
    return SolveResult.from_values(
        reach.values,
        witness_max=witness if witness.player == "max" else None,
        witness_min=witness if witness.player == "min" else None,
    )
