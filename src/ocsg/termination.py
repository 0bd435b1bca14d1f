"""Qualitative termination for one-counter games.

The counter is never materialised: every solver here runs on the counter
game as parsed and reads the counter change of a step from the game's
``Index`` (its ``model.step_reward`` weights), so a query builds no
``State``.  Large initial values reduce to the liminf=-inf
question, small ones to almost-sure reachability on the counter unfolded to
|V|+1 levels.  That unfolding, the level product, is an int ``model.Graph``
built from the base game's ``Index`` with no ``State`` objects, and
``mdp.almost_sure_reach`` runs on it as it runs on a game's index.  A
start in the liminf=-inf value-1 set is a target of the product, so it
wins at every j and no product is built for it.  A product of more than
``MAX_LEVEL_NODES`` nodes is refused before any solve.
Witness synthesis collapses the level-product strategies back onto the
control states: Max gets a memoryless counter-oblivious strategy, Min a
strategy whose memory is the saturated level index (at most |V| memory
states).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import mdp, ssg
from .model import (
    LIMINF_MINUS_INF,
    FiniteMemoryStrategy,
    Graph,
    OcSsg,
    PureMemorylessStrategy,
    Ssg,
    State,
    Transition,
    _quoted,
    check_valid,
)

# The largest level product, |V|·(|V|+1) nodes, that a value-1 query or a
# synthesis with j < |V| builds.  Building it and its almost-sure reach
# take about 6 µs and 470 bytes per node on a 2-vCPU host (Python 3.11):
# a whole query at this size answers in about 7 s, inside a 10 s budget
# with room for 25% timing noise.
MAX_LEVEL_NODES = 1_000_000


class LevelProductTooLarge(ValueError):
    """A value-1 query or synthesis with j < |V| whose level product would
    exceed ``MAX_LEVEL_NODES`` nodes."""


def _level_product(base: Ssg | OcSsg, liminf_value_one) -> tuple[Graph, frozenset[int]]:
    """The running sum of step weights unfolded to L = |V|+1 levels, and its
    targets.

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


@dataclass(frozen=True)
class TermDecision:
    value_one: bool
    branch: str
    liminf_value_one: frozenset[str]
    start_level_state: str | None = None


def check_query(game: OcSsg, start: str, j: int) -> None:
    """Reject a termination query on an invalid game, with j < 1, or with a
    start state not in ``game``."""
    check_valid(game)
    if j < 1:
        raise ValueError("termination requires j >= 1")
    if start not in game.index.pos:
        raise ValueError(f"unknown state {_quoted(start)}")


@dataclass(frozen=True)
class _Levels:
    """Almost-sure reach on the level product for initial counter ``j``;
    ``entry`` is the start at level 0."""

    graph: Graph
    targets: frozenset[int]
    asr: mdp.AsrResult
    j: int
    entry: int


def _term_pipeline(game: OcSsg, start: str, j: int):
    """The liminf=-inf solve and, for j < |V| with ``start`` outside its
    value-1 set W, almost-sure reach on the level product (else None).  A
    product too large is refused before the solve."""
    check_query(game, start, j)
    n = len(game.index.ids)
    if j < n and n * (n + 1) > MAX_LEVEL_NODES:
        raise LevelProductTooLarge(
            f"level product too large: {n} states unfold to {n * (n + 1)} nodes, over {MAX_LEVEL_NODES}"
        )
    solve = ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
    if j >= n or start in solve.result.value_one_set:
        return solve, None
    graph, targets = _level_product(game, solve.result.value_one_set)
    entry = game.index.pos[start] * (n + 1) + j
    return solve, _Levels(graph, targets, mdp.almost_sure_reach(graph, targets), j, entry)


def decide_term_one(game: OcSsg, start: str, j: int) -> TermDecision:
    """Is the termination value 1 from ``start`` with initial counter ``j``?

    For j >= |V| this is exactly the liminf=-inf value-1 question; below
    that, the level product reduces it to almost-sure reachability.  A
    start in the liminf=-inf value-1 set W has value 1 at every j (its
    entry copy is a target), so no product is built for it.
    """
    solve, levels = _term_pipeline(game, start, j)
    w = solve.result.value_one_set
    if j >= len(game.index.ids):
        return TermDecision(start in w, "limit", w)
    won = levels is None or levels.entry in levels.asr.winning
    return TermDecision(won, "level", w, f"{start}@0")


def decide_term_zero(game: OcSsg, start: str, j: int) -> bool:
    """Is the termination value 0?  Min keeps the counter positive forever.

    Random states side with Max here: Min alone must keep every prefix
    delta sum >= 1-j, that is, win the nonnegative-energy game with
    initial credit j-1.
    """
    check_query(game, start, j)
    credit = mdp.energy_min_credit(game, keeper="min")
    return credit[start] <= j - 1


def synthesize_term_strategies(game: OcSsg, start: str, j: int):
    """Witness strategies for the qualitative termination decision.

    Value 1: a pure memoryless counter-oblivious Max strategy optimal in
    ``start``; states with liminf=-inf value 1 keep that witness's choice,
    every other Max state reachable in the level product adopts the
    level-product choice at its highest reachable level.  Value < 1: a Min
    strategy whose memory is the level index saturating at the window top,
    where it switches to the liminf=-inf witness for Min.
    """
    solve, levels = _term_pipeline(game, start, j)
    w = solve.result.value_one_set
    sigma_liminf = solve.result.witness_max
    pi_liminf = solve.result.witness_min
    if j >= len(game.index.ids):
        if start in w:
            return sigma_liminf, None
        return None, _memoryless_as_finite(pi_liminf)
    if levels is None or levels.entry in levels.asr.winning:
        return _collapse_max_strategy(game, levels, w, sigma_liminf), None
    return None, _level_min_strategy(game, levels, pi_liminf)


def _memoryless_as_finite(strategy: PureMemorylessStrategy) -> FiniteMemoryStrategy:
    memory = ("-",)
    choice = {("-", sid): k for sid, k in strategy.choice.items()}
    return FiniteMemoryStrategy(strategy.player, memory, "-", {}, choice)


def _collapse_max_strategy(game, levels, safe, sigma_liminf) -> PureMemorylessStrategy:
    """With ``levels`` None (a start in ``safe``) nothing is reached but
    the start, and every Max state outside ``safe`` takes edge 0."""
    index = game.index
    width = len(index.ids) + 1
    top: dict[int, int] = {}  # base state index -> highest reachable offset
    for v in (_reachable_under_witness(levels) if levels is not None else ()):
        i, offset = divmod(v, width)
        if index.ids[i] in safe or offset == 0:
            # Safe states keep their liminf witness; a state first entered at
            # the bottom boundary is only ever seen once the play terminated.
            continue
        top[i] = max(top.get(i, offset), offset)
    choice = {}
    for i, (sid, who) in enumerate(zip(index.ids, index.owner)):
        if who != "max":
            continue
        if sid in safe:
            choice[sid] = sigma_liminf.choice[sid]
        elif i in top:
            if top[i] == width - 1:
                raise AssertionError("unsafe state reachable at the absorbing top level")
            choice[sid] = levels.asr.max_choice[i * width + top[i]]
        else:
            choice[sid] = 0
    return PureMemorylessStrategy("max", choice)


def _reachable_under_witness(levels) -> set[int]:
    """Level-product nodes reachable from the entry when Max follows the witness."""
    owner, succ = levels.graph.owner, levels.graph.succ
    max_choice, winning = levels.asr.max_choice, levels.asr.winning
    seen = {levels.entry}
    frontier = [levels.entry]
    while frontier:
        v = frontier.pop()
        if v in levels.targets:
            continue
        if owner[v] == "max":
            nxt = [succ[v][max_choice[v]]] if v in max_choice else []
        else:
            nxt = succ[v]
        for t in nxt:
            if t in winning and t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def _level_min_strategy(game, levels, pi_liminf) -> FiniteMemoryStrategy:
    """Memory = saturated level index in [-j+1, |V|-j]; spoil below, liminf at top."""
    j = levels.j
    index = game.index
    width = len(index.ids) + 1
    lo = -j + 1
    hi = width - 1 - j
    memory_states = tuple(range(lo, hi + 1))
    spoil = levels.asr.spoil_choice
    choice = {}
    for i, (sid, who) in enumerate(zip(index.ids, index.owner)):
        if who != "min":
            continue
        for m in memory_states:
            if m == hi:
                choice[(m, sid)] = pi_liminf.choice[sid]
            else:
                choice[(m, sid)] = spoil.get(i * width + m + j, 0)
    update = {}
    for sid, weights in zip(index.ids, index.weight):
        for k, w in enumerate(weights):
            for m in memory_states:
                if m == hi:
                    continue
                nxt = min(max(m + w, lo), hi)
                if nxt != m:
                    update[(m, sid, k)] = nxt
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
