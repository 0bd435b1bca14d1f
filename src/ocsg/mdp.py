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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import chain as chain_mod
from .linsolve import solve_linear_system
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
    check_valid,
    fix_strategies,
    oc_to_reward_ssg,
    relabel_controlled,
    state_to_transition_rewards,
)

INFINITE_CREDIT = math.inf


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
    winning: frozenset[str]
    max_choice: dict[str, int]
    spoil_choice: dict[str, int]


def almost_sure_reach(game, targets) -> AsrResult:
    """Value-1 set for Max reaching ``targets``, with witness and spoiler data.

    Classical alternating fixpoint: repeatedly delete the region from which
    Max cannot reach the target with positive probability, together with
    Min's positive-probability attractor into it, until stable.  Target
    states are treated as absorbing.  Max states count only their edges
    that stay in the surviving region, and Max's witness follows the edges
    that pulled its states into the final positive attractor.
    """
    targets = frozenset(targets) & set(game.ids())
    alive = set(game.ids())
    allowed = {
        s.id: list(range(len(s.transitions))) if s.id not in targets else []
        for s in game.states
    }
    spoil: dict[str, int] = {}

    while True:
        pos, max_choice = chain_mod.attractor(game, targets & alive, ("max", "rand"), alive, allowed)
        blocked = alive - pos
        if not blocked:
            break
        for sid in blocked:
            s = game.state(sid)
            if s.owner == "min" and sid not in spoil:
                spoil[sid] = next(k for k, t in enumerate(s.transitions) if t.target in blocked)
        doomed, pulled = chain_mod.attractor(game, blocked, ("min", "rand"), alive, allowed)
        for sid, k in pulled.items():
            spoil.setdefault(sid, k)
        alive -= doomed
        for sid in alive:
            if game.state(sid).owner == "max":
                allowed[sid] = [k for k in allowed[sid] if game.state(sid).transitions[k].target in alive]

    return AsrResult(frozenset(alive), max_choice, spoil)


# ---------------------------------------------------------------------------
# Expected mean payoff (gain/bias policy iteration)


def _per_visit_reward(game, state: State, index: int | None) -> Fraction:
    if game.reward_location == ON_STATES:
        return Fraction(state.reward)
    if index is not None:
        return Fraction(state.transitions[index].reward)
    return sum((t.prob * t.reward for t in state.transitions), Fraction(0))


def _evaluate_gain_bias(game, policy):
    """Exact gain and canonical bias of a fixed policy (multichain evaluation)."""
    induced = _induced_chain(game, policy)
    bsccs, transient = chain_mod.bscc_decompose(induced)
    gain: dict[str, Fraction] = {}
    bias: dict[str, Fraction] = {}
    for members in bsccs:
        analysis = chain_mod.analyze_bscc(induced, members)
        order = [sid for sid in induced.ids() if sid in members]
        pos = {sid: i for i, sid in enumerate(order)}
        n = len(order)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        rhs = [Fraction(0)] * n
        for j, sid in enumerate(order):
            matrix[0][j] = analysis.stationary[sid]
        for i, sid in enumerate(order):
            if i == 0:
                continue
            state = induced.state(sid)
            matrix[i][i] += Fraction(1)
            for t in state.transitions:
                matrix[i][pos[t.target]] -= t.prob
            rhs[i] = _per_visit_reward(induced, state, None) - analysis.mean_payoff
        solution, _ = solve_linear_system(matrix, rhs)
        for sid in order:
            gain[sid] = analysis.mean_payoff
            bias[sid] = solution[pos[sid]]

    order = [sid for sid in induced.ids() if sid in transient]
    if order:
        pos = {sid: i for i, sid in enumerate(order)}
        n = len(order)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        rhs_g = [Fraction(0)] * n
        for i, sid in enumerate(order):
            matrix[i][i] += Fraction(1)
            for t in induced.state(sid).transitions:
                if t.target in pos:
                    matrix[i][pos[t.target]] -= t.prob
                else:
                    rhs_g[i] += t.prob * gain[t.target]
        sol_g, _ = solve_linear_system(matrix, rhs_g)
        for sid in order:
            gain[sid] = sol_g[pos[sid]]
        rhs_h = [Fraction(0)] * n
        for i, sid in enumerate(order):
            state = induced.state(sid)
            rhs_h[i] = _per_visit_reward(induced, state, None) - gain[sid]
            for t in state.transitions:
                if t.target not in pos:
                    rhs_h[i] += t.prob * bias[t.target]
        sol_h, _ = solve_linear_system(matrix, rhs_h)
        for sid in order:
            bias[sid] = sol_h[pos[sid]]
    return gain, bias


def expected_mean_payoff(game, direction: str = "max"):
    """Optimal expected mean payoff per state plus a pure memoryless optimiser.

    Howard's multichain policy iteration (Puterman 1994, section 9.2): switch
    to an edge of strictly better gain, and only when none exists to a
    gain-tied edge of strictly better reward plus canonical bias.  Switching
    is conservative (the current edge stays unless a strictly better one
    exists), so no policy repeats; a repeat raises AssertionError.
    """
    _require_one_player(game)
    controlled = game.controlled_ids()
    policy = {sid: 0 for sid in controlled}
    seen = set()
    while True:
        key = tuple(sorted(policy.items()))
        if key in seen:
            raise AssertionError("mean-payoff policy iteration revisited a policy")
        seen.add(key)
        gain, bias = _evaluate_gain_bias(game, policy)
        switched = False
        for sid in controlled:
            state = game.state(sid)
            qs_gain = [gain[t.target] for t in state.transitions]
            best_gain = _extreme(direction, qs_gain)
            if _better(direction, best_gain, gain[sid]):
                policy[sid] = qs_gain.index(best_gain)
                switched = True
        if switched:
            continue
        for sid in controlled:
            state = game.state(sid)
            tied = [k for k, t in enumerate(state.transitions) if gain[t.target] == gain[sid]]
            qs_bias = {
                k: _per_visit_reward(game, state, k) + bias[state.transitions[k].target] for k in tied
            }
            best = _extreme(direction, qs_bias.values())
            if _better(direction, best, gain[sid] + bias[sid]):
                policy[sid] = next(k for k in tied if qs_bias[k] == best)
                switched = True
        if not switched:
            return gain, _strategy(game, policy, direction)


# ---------------------------------------------------------------------------
# Maximal end components


@dataclass(frozen=True)
class Mec:
    members: frozenset[str]
    allowed: dict[str, tuple[int, ...]]


def mec_decompose(game) -> list[Mec]:
    """Maximal end components by iterated SCC splitting and pruning."""
    _require_one_player(game)
    mecs: list[Mec] = []
    queue: list[frozenset[str]] = [frozenset(game.ids())]
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
    reaches a positive-drift BSCC (stitching the witness from the mean-payoff
    policy inside and the reachability policy outside), redirecting severed
    stochastic edges to a fresh absorbing zero-reward state.

    Returns None for No, or the stitched PureMemorylessStrategy.
    """
    _require_one_player(game)
    if start not in game.by_id:
        raise ValueError(f"unknown state {start!r}")
    if isinstance(game, OcSsg):
        raise ValueError("reward game expected, translate the counter first")

    current = game
    index_map = {s.id: list(range(len(s.transitions))) for s in game.states}
    stitched: dict[str, int] = {}
    z_id = None
    original_controlled = set(game.controlled_ids())

    while True:
        if start not in current.by_id:
            break
        gains, sigma_mp = expected_mean_payoff(current, "max")
        if gains[start] <= 0:
            return None
        induced = _induced_chain(current, sigma_mp.choice)
        bsccs, _ = chain_mod.bscc_decompose(induced)
        positive = [b for b in bsccs if chain_mod.analyze_bscc(induced, b).mean_payoff > 0]
        if not positive:
            raise AssertionError("positive gain without a positive-drift BSCC")
        component = min(positive, key=min)
        # z stands for the already-removed region, which wins almost surely,
        # so it counts as a target when deciding who reaches a win for sure.
        targets = set(component) | ({z_id} if z_id is not None else set())
        reach = solve_reachability(current, targets, "max")
        sigma_c = (reach.witness_max or reach.witness_min).choice
        under_sigma = chain_mod.reach_probabilities(_induced_chain(current, sigma_c), targets)
        cut = {sid for sid, v in under_sigma.items() if v == 1 and sid != z_id}
        for sid in cut:
            if sid in original_controlled and sid in current.by_id and current.state(sid).owner != "rand":
                local = sigma_mp.choice[sid] if sid in component else sigma_c[sid]
                stitched[sid] = index_map[sid][local]
        current, index_map, z_id = _remove_states(current, cut, index_map, z_id)

    for sid in original_controlled - set(stitched):
        stitched[sid] = 0
    return PureMemorylessStrategy(_player_label(game, "max"), stitched)


def _remove_states(game, cut, index_map, z_id):
    """Drop ``cut``; stochastic edges into it are redirected to absorbing z."""
    needs_z = any(
        s.id not in cut and s.owner == "rand" and any(t.target in cut for t in s.transitions)
        for s in game.states
    )
    if needs_z and z_id is None:
        z_id = "z"
        while z_id in game.by_id:
            z_id += "'"
    zero_reward = 0 if game.reward_location == ON_TRANSITIONS else None
    states = []
    new_index_map = {}
    for s in game.states:
        if s.id in cut:
            continue
        transitions = []
        kept = []
        for k, t in enumerate(s.transitions):
            if t.target in cut:
                if s.owner == "rand":
                    transitions.append(Transition(z_id, prob=t.prob, reward=t.reward))
                    kept.append(index_map[s.id][k])
                continue
            else:
                transitions.append(t)
                kept.append(index_map[s.id][k])
        if not transitions:
            raise AssertionError(f"{s.id}: all transitions removed")
        states.append(State(s.id, s.owner, reward=s.reward, transitions=tuple(transitions)))
        new_index_map[s.id] = kept
    if needs_z:
        z_reward = 0 if game.reward_location == ON_STATES else None
        states.append(
            State(z_id, "rand", reward=z_reward, transitions=(Transition(z_id, prob=Fraction(1), reward=zero_reward),))
        )
        new_index_map[z_id] = [0]
    return game.with_states(tuple(states)), new_index_map, z_id


# ---------------------------------------------------------------------------
# Energy games: minimal credit for keeping prefix sums nonnegative


def _transition_weight_view(game):
    """Normalise to per-edge integer weights for the energy analysis."""
    if isinstance(game, OcSsg):
        return oc_to_reward_ssg(game)
    if game.reward_location == ON_STATES:
        return state_to_transition_rewards(game)
    return game


def energy_min_credit(game, keeper: str = "max") -> dict[str, int | float]:
    """Minimal initial credit per state in the nonnegative-energy game.

    ``keeper`` must keep every prefix sum of edge weights >= 0; the other
    player and all rand states are adversarial.  Standard lifting fixpoint
    (Brim, Chaloupka, Doyen, Gentilini, Raskin 2011) run as a worklist: a
    state is lifted again only after the credit of a successor rose, and
    lifting is monotone, so this reaches the least fixpoint.  Weights in
    {-1,0,+1} cap finite credits at |V|, larger demands are infinite.
    """
    if keeper not in ("max", "min"):
        raise ValueError("keeper must be max or min")
    check_valid(game)
    view = _transition_weight_view(game)
    cutoff = len(view.states)
    credit: dict[str, int | float] = {sid: 0 for sid in view.ids()}
    queue = list(view.ids())
    queued = set(queue)
    while queue:
        sid = queue.pop()
        queued.discard(sid)
        s = view.state(sid)
        demands = [_demand(credit, t, cutoff) for t in s.transitions]
        candidate = min(demands) if s.owner == keeper else max(demands)
        if candidate > credit[sid]:
            credit[sid] = candidate
            for pred, _ in view.predecessors[sid]:
                if pred not in queued:
                    queued.add(pred)
                    queue.append(pred)
    return credit


def _demand(credit, transition, cutoff: int) -> int | float:
    """Credit needed to take ``transition``; a demand above ``cutoff`` is infinite."""
    target = credit[transition.target]
    if target == INFINITE_CREDIT:
        return INFINITE_CREDIT
    need = max(0, target - transition.reward)
    return INFINITE_CREDIT if need > cutoff else need


def energy_keeper_choice(game, credit, keeper: str = "max") -> dict[str, int]:
    """Keeper's credit-preserving edge at every finite-credit keeper state."""
    view = _transition_weight_view(game)
    cutoff = len(view.states)
    choice = {}
    for s in view.states:
        if s.owner != keeper or credit[s.id] == INFINITE_CREDIT:
            continue
        demands = [_demand(credit, t, cutoff) for t in s.transitions]
        choice[s.id] = demands.index(min(demands))
    return choice


# ---------------------------------------------------------------------------
# Qualitative and quantitative limit objectives


def _mec_gain(game, mec: Mec, direction: str):
    sub, index_map = _restrict_to_mec(game, mec)
    gains, strat = expected_mean_payoff(sub, direction)
    values = {gains[sid] for sid in mec.members}
    if len(values) != 1:
        raise AssertionError("gain not constant on an end component")
    original = {sid: index_map[sid][k] for sid, k in strat.choice.items()}
    return values.pop(), original, sub, index_map


def _divergence_core(game, mec: Mec):
    """A policy BSCC inside the MEC that almost surely drives liminf to -inf.

    Returns (core_states, core_choice) in original indices, or None.  The
    quick paths: a MEC with negative minimal gain always qualifies; one with
    positive minimal gain, or whose allowed edges admit a potential function,
    never does.  The zero-gain remainder is decided in polynomial time from
    the bias h of the min-gain policy.  The slack r(s,k) + h(target) - h(s)
    is >= 0 on every controlled edge and averages 0 at rand states, so a
    gain-0 policy BSCC uses only tight (slack-0) controlled edges, and it is
    potential-consistent exactly when none of its rand states is noisy (has
    an edge of nonzero slack).  Hence a core exists iff some end component of
    the tight sub-MDP holds a noisy rand state x; the policy that reaches x
    almost surely inside it has x in a gain-0, non-degenerate BSCC.
    """
    min_gain, strat, sub, index_map = _mec_gain(game, mec, "min")
    if min_gain < 0:
        return frozenset(mec.members), strat
    if min_gain > 0:
        return None
    if chain_mod.potential(game, mec.members, mec.allowed) is not None:
        return None
    _, bias = _evaluate_gain_bias(sub, {sid: index_map[sid].index(k) for sid, k in strat.items()})

    def slack(s, k):
        return _per_visit_reward(sub, s, k) + bias[s.transitions[k].target] - bias[s.id]

    allowed = {}
    noisy = set()
    for s in sub.states:
        edges = range(len(s.transitions))
        if s.owner == "rand":
            allowed[s.id] = tuple(edges)
            if any(slack(s, k) != 0 for k in edges):
                noisy.add(s.id)
        else:
            allowed[s.id] = tuple(k for k in edges if slack(s, k) == 0)
    tight, tight_map = _restrict_to_mec(sub, Mec(frozenset(sub.ids()), allowed))
    for component in mec_decompose(tight):
        x = min(component.members & noisy, default=None)
        if x is None:
            continue
        inner, inner_map = _restrict_to_mec(tight, component)
        choice = almost_sure_reach(inner, {x}).max_choice
        bsccs, _ = chain_mod.bscc_decompose(_induced_chain(inner, choice))
        core = next(b for b in bsccs if x in b)
        core_choice = {
            sid: index_map[sid][tight_map[sid][inner_map[sid][choice[sid]]]]
            for sid in core
            if sid in choice
        }
        return core, core_choice
    return None


def _value_one_region(game, objective: Objective):
    """Maximising value-1 set W plus a witness choice map defined on W."""
    relabeled = relabel_controlled(game, "max")
    kind = objective.kind
    cores: dict[str, int] = {}
    targets: set[str] = set()

    if kind in ("mean-gt", "liminf-plus-inf", "mean-leq", "liminf-lt-plus-inf"):
        direction = "max" if kind in ("mean-gt", "liminf-plus-inf") else "min"
        for mec in mec_decompose(relabeled):
            gain, choice, _, _ = _mec_gain(relabeled, mec, direction)
            hit = gain > 0 if direction == "max" else gain <= 0
            if hit:
                targets.update(mec.members)
                cores.update(choice)
    elif kind == "liminf-minus-inf":
        for mec in mec_decompose(relabeled):
            core = _divergence_core(relabeled, mec)
            if core is not None:
                members, choice = core
                targets.update(members)
                cores.update(choice)
    elif kind == "liminf-gt-minus-inf":
        w_inf, inf_choice = _value_one_region(game, Objective("liminf-plus-inf"))
        credit = energy_min_credit(relabeled, keeper="max")
        keeper = energy_keeper_choice(relabeled, credit, keeper="max")
        finite = {sid for sid, c in credit.items() if c != INFINITE_CREDIT}
        targets.update(w_inf)
        targets.update(sid for sid in finite if credit[sid] == 0)
        for sid in finite - w_inf:
            if sid in keeper:
                cores[sid] = keeper[sid]
        for sid in w_inf:
            if sid in inf_choice:
                cores[sid] = inf_choice[sid]
    else:
        raise ValueError(f"unsupported limit tag {kind}")

    asr = almost_sure_reach(relabeled, targets)
    winning = asr.winning
    choice = dict(asr.max_choice)
    choice.update({sid: k for sid, k in cores.items() if sid in winning})
    return winning, choice


def qualitative_limit(game, objective: Objective, direction: str = "max"):
    """Value-1 set (for the given direction) and a total witness strategy."""
    result = quantitative_limit(game, objective, direction)
    return result.value_one_set, result.witness_max or result.witness_min


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
    for sid, k in region_choice.items():
        if game.state(sid).owner != "rand":
            policy[sid] = k
    witness = _strategy(game, policy, "max")
    return SolveResult.from_values(
        reach.values,
        witness_max=witness if witness.player == "max" else None,
        witness_min=witness if witness.player == "min" else None,
    )
