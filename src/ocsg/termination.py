"""Qualitative termination for one-counter games.

The counter is never materialised: large initial values reduce to the
liminf=-inf question on the reward view, small ones to almost-sure
reachability on a bounded accumulated-reward unfolding (the level game).
Witness synthesis collapses the level-game strategies back onto the control
states: Max gets a memoryless counter-oblivious strategy, Min a strategy
whose memory is the saturated level index (at most |V| memory states).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import mdp, ssg
from .model import (
    LIMINF_MINUS_INF,
    FiniteMemoryStrategy,
    OcSsg,
    PureMemorylessStrategy,
    Ssg,
    State,
    Transition,
    check_valid,
    oc_to_reward_ssg,
)


def _level_id(state_id: str, level: int) -> str:
    return f"{state_id}@{level}"


@dataclass(frozen=True)
class LevelGame:
    game: Ssg
    j: int
    hi: int
    targets: frozenset[str]
    to_base: dict[str, tuple[str, int]]


def build_level_game(base: Ssg, j: int, liminf_value_one, hi: int | None = None) -> LevelGame:
    """Unfold accumulated rewards into levels -j..hi with absorbing boundaries.

    ``liminf_value_one`` is the value-1 set of liminf=-inf on ``base``; the
    target set collects the bottom boundary and every level copy of those
    states.  The default window tops out at |V|-j.
    """
    if base.reward_location != "transitions":
        raise ValueError("level game expects rewards on transitions")
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
        for level in range(-j, hi + 1):
            lid = _level_id(s.id, level)
            to_base[lid] = (s.id, level)
            if level == -j or s.id in liminf_value_one:
                targets.add(lid)
            if level in (-j, hi):
                prob = Fraction(1) if s.owner == "rand" else None
                transitions = (Transition(lid, prob=prob, reward=0),)
            else:
                transitions = tuple(
                    Transition(_level_id(t.target, level + t.reward), prob=t.prob, reward=t.reward)
                    for t in s.transitions
                )
            states.append(State(lid, s.owner, transitions=transitions))
    game = Ssg(tuple(states), reward_location="transitions")
    return LevelGame(game, j, hi, frozenset(targets), to_base)


@dataclass(frozen=True)
class TermDecision:
    value_one: bool
    branch: str
    start: str
    j: int
    liminf_value_one: frozenset[str]
    level_winning: frozenset[str] | None = None
    start_level_state: str | None = None


def _term_pipeline(game: OcSsg, start: str, j: int):
    """The liminf=-inf solve of the reward view and, for j < |V|, the level
    game, its almost-sure reach and the start's level-0 state (else Nones)."""
    if j < 1:
        raise ValueError("termination requires j >= 1")
    if start not in game.by_id:
        raise ValueError(f"unknown state {start!r}")
    rewards = oc_to_reward_ssg(game)
    solve = ssg.solve_limit_ssg(rewards, LIMINF_MINUS_INF)
    if j >= len(game.states):
        return solve, None, None, None
    level = build_level_game(rewards, j, solve.result.value_one_set)
    return solve, level, mdp.almost_sure_reach(level.game, level.targets), _level_id(start, 0)


def decide_term_one(game: OcSsg, start: str, j: int) -> TermDecision:
    """Is the termination value 1 from ``start`` with initial counter ``j``?

    For j >= |V| this is exactly the liminf=-inf value-1 question; below
    that, the level game reduces it to almost-sure reachability.
    """
    solve, level, asr, entry = _term_pipeline(game, start, j)
    w = solve.result.value_one_set
    if level is None:
        return TermDecision(start in w, "limit", start, j, w)
    return TermDecision(entry in asr.winning, "level", start, j, w, asr.winning, entry)


def decide_term_zero(game: OcSsg, start: str, j: int) -> bool:
    """Is the termination value 0?  Min keeps the counter positive forever.

    Min (also answering for nobody else: random states side with Max here)
    must keep all prefix delta sums >= 1-j, i.e. win the nonnegative-energy
    game with initial credit j-1.
    """
    if j < 1:
        raise ValueError("termination requires j >= 1")
    credit = mdp.energy_min_credit(game, keeper="min")
    return credit[start] <= j - 1


def synthesize_term_strategies(game: OcSsg, start: str, j: int):
    """Witness strategies for the qualitative termination decision.

    Value 1: a pure memoryless counter-oblivious Max strategy optimal in
    ``start``; states with liminf=-inf value 1 keep that witness's choice,
    every other Max state reachable in the level game adopts the level-game
    choice at its highest reachable level.  Value < 1: a Min strategy whose
    memory is the level index saturating at the window top, where it switches
    to the liminf=-inf witness for Min.
    """
    solve, level, asr, entry = _term_pipeline(game, start, j)
    w = solve.result.value_one_set
    sigma_liminf = solve.max_witness
    pi_liminf = solve.min_witness
    if level is None:
        if start in w:
            return sigma_liminf, None
        return None, _memoryless_as_finite(pi_liminf)
    if entry in asr.winning:
        sigma = _collapse_max_strategy(game, level, asr, entry, w, sigma_liminf)
        return sigma, None
    return None, _level_min_strategy(game, level, asr, pi_liminf)


def _memoryless_as_finite(strategy: PureMemorylessStrategy) -> FiniteMemoryStrategy:
    memory = ("-",)
    choice = {("-", sid): k for sid, k in strategy.choice.items()}
    return FiniteMemoryStrategy(strategy.player, memory, "-", {}, choice)


def _collapse_max_strategy(game, level, asr, entry, safe, sigma_liminf) -> PureMemorylessStrategy:
    reachable = _reachable_under_witness(level, asr, entry)
    top_level: dict[str, int] = {}
    for lid in reachable:
        base_id, lvl = level.to_base[lid]
        if base_id in safe or lvl == -level.j:
            # Safe states keep their liminf witness; a state first entered at
            # the bottom boundary is only ever seen once the play terminated.
            continue
        top_level[base_id] = max(top_level.get(base_id, lvl), lvl)
    choice = {}
    for sid in game.owner_ids("max"):
        if sid in safe:
            choice[sid] = sigma_liminf.choice[sid]
        elif sid in top_level:
            lvl = top_level[sid]
            if lvl == level.hi:
                raise AssertionError("unsafe state reachable at the absorbing top level")
            choice[sid] = asr.max_choice[_level_id(sid, lvl)]
        else:
            choice[sid] = 0
    return PureMemorylessStrategy("max", choice)


def _reachable_under_witness(level, asr, entry) -> set[str]:
    """Level states reachable from the entry when Max follows the witness."""
    seen = {entry}
    frontier = [entry]
    while frontier:
        lid = frontier.pop()
        s = level.game.state(lid)
        if lid in level.targets:
            continue
        if s.owner == "max":
            indices = [asr.max_choice[lid]] if lid in asr.max_choice else []
        else:
            indices = range(len(s.transitions))
        for k in indices:
            nxt = s.transitions[k].target
            if nxt in asr.winning and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _level_min_strategy(game, level, asr, pi_liminf) -> FiniteMemoryStrategy:
    """Memory = saturated level index in [-j+1, hi]; spoil below, liminf at top."""
    lo = -level.j + 1
    hi = level.hi
    memory_states = tuple(range(lo, hi + 1))
    choice = {}
    for sid in game.owner_ids("min"):
        for m in memory_states:
            if m == hi:
                choice[(m, sid)] = pi_liminf.choice[sid]
                continue
            lid = _level_id(sid, m)
            if lid in asr.spoil_choice:
                choice[(m, sid)] = asr.spoil_choice[lid]
            else:
                choice[(m, sid)] = 0
    update = {}
    for s in game.states:
        for k, t in enumerate(s.transitions):
            for m in memory_states:
                if m == hi:
                    continue
                nxt = min(max(m + t.delta, lo), hi)
                if nxt != m:
                    update[(m, s.id, k)] = nxt
    return FiniteMemoryStrategy("min", memory_states, 0, update, choice)


def product_with_strategy(game: OcSsg, strategy: FiniteMemoryStrategy, start: str):
    """Product of the game with a finite-memory strategy's automaton.

    States owned by the strategy's player keep only the chosen edge; the
    result is the residual one-player game, with the product start state.
    Only the reachable part is built.
    """
    check_valid(game)

    def pid(state_id, memory):
        return f"{state_id}@{memory}"

    start_key = (start, strategy.initial_memory)
    queue = [start_key]
    seen = {start_key}
    states = []
    while queue:
        sid, memory = queue.pop()
        s = game.state(sid)
        indices = [strategy.choose(memory, sid)] if s.owner == strategy.player else range(len(s.transitions))
        transitions = []
        for k in indices:
            t = s.transitions[k]
            nxt_memory = strategy.next_memory(memory, sid, k)
            key = (t.target, nxt_memory)
            if key not in seen:
                seen.add(key)
                queue.append(key)
            transitions.append(Transition(pid(*key), prob=t.prob, delta=t.delta))
        states.append(State(pid(sid, memory), s.owner, transitions=tuple(transitions)))
    return OcSsg(tuple(states)), pid(*start_key)
