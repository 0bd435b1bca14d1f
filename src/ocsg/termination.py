"""Qualitative termination for one-counter games.

The counter is never materialised: every solver here runs on the counter
game as parsed and reads the counter change of a step from the game's
``Index`` (its weights, the counter deltas), so a query builds no
``State``.  Large initial values reduce to the liminf=-inf
question, small ones to almost-sure reachability on the counter unfolded to
|V|+1 offsets, the level product.  No product is built: value 1 is
downward closed in the offset, so almost-sure reach on the product comes
out of a fixpoint on one threshold per state of the base game
(``_value_one_thresholds``).  A start in the liminf=-inf value-1 set wins
at every j, so no fixpoint runs for it.  One worklist relaxation, seeded
successors first, serves both passes of each round of the fixpoint, the
doomed pass on reflected offsets, and no query is refused for its size.
Witness synthesis collapses its choices back onto the control states:
Max gets a memoryless counter-oblivious strategy, Min one whose memory is
the saturated level index (|V| values) and whose choices are bands, runs
of memory values that take one edge: O(|V| + |E| + bands) entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import mdp, ssg
from .model import (
    LIMINF_MINUS_INF,
    FiniteMemoryStrategy,
    OcSsg,
    PureMemorylessStrategy,
    _quoted,
    band_edge,
    check_counter_start,
    check_valid,
)


@dataclass(frozen=True)
class _Thresholds:
    """Almost-sure reach on the level product, one threshold per state.

    ``top[i]`` is the largest offset from which Max wins at state i (game
    order), and a number above |V| on the liminf=-inf value-1 set W.
    The choice tables, recorded only for synthesis (else None):
    ``max_choice[i]`` of a Max state i holds its attractor choices over
    offsets 1..top[i] as bands (first offset, edge), read by ``band_edge``,
    and ``spoil[i]`` of a Min state its spoiling edge at each offset
    1..|V|-1 (index offset; 0 where it wins).
    """

    top: list[int]
    max_choice: list[list[tuple[int, int]]] | None
    spoil: list[list[int]] | None


def _value_one_thresholds(index, safe, *, choices: bool) -> _Thresholds:
    """Almost-sure reach on the level product of the game with ``index``,
    whose liminf=-inf value-1 set W is the bool list ``safe``, without the
    product.

    Product node (i, o) is state i at offset o in 0..|V|: with initial
    counter j the offset is the level plus j, and edge k moves it by the
    edge's weight.  Offset 0 and every copy of a W state are targets; a
    state outside W at offset |V| is a dead end that loses.  Value 1 from
    (s, j) holds iff s is in W or j <= top[s].

    The two-player alternating fixpoint of almost-sure reach keeps an alive
    set, takes Max's positive attractor to the targets within it, and
    removes the blocked rest with its Min/rand attractor (the doomed set)
    until nothing is blocked.  Every one of these sets is a threshold set
    per state, so each is one int per state:

    - the alive set is {o <= a(i)}, downward closed in the offset, and
      closed under Min and rand edges (a Min or rand node with an edge
      into the doomed set is doomed itself);
    - its positive attractor is {o <= p(i)}: with the alive set closed,
      a Min node needs all its edges in it and a Max or rand node one, and
      an edge from (i, o) to (t, o + w) enters it iff o <= p(t) - w, so
      each round of the attractor adds downward-closed offsets;
    - so the blocked set is {p(i) < o <= a(i)}, and its doomed attractor
      {d(i) <= o <= a(i)} is upward closed within the alive set: an edge
      enters it or a removed node iff o >= min(d(t), a(t) + 1) - w.

    Behind this is that steps are +-1: a play shifted down by one offset
    meets 0 no later and the top no sooner.  So each round runs one
    worklist relaxation over the base game's edges, ``_relax`` (as in
    ``mdp.energy_min_credit``; Brim, Chaloupka, Doyen, Gentilini, Raskin
    2011), twice.  First p rises from 0 to the least fixpoint of
    min(a(i), |V|-1, F), F the max over edges of p(t) - w at Max and rand
    states and the min at Min states.  Then out = p + 1 falls to the
    greatest fixpoint of max(1, G), G the min over edges of
    min(out(t), a(t)+1) - w at Min and rand states and the max at Max
    states.  Reflected, r = |V|+3 - out, that is the same relaxation on
    negated weights: r rises to the least fixpoint of min(|V|+2, |V|+3 - G),
    the cap |V|+2 being the floor out >= 1, and Max takes the min, its max
    over out(t) - w being a min over r(t) + w (r, unlike -out, stays a
    small nonnegative int).  A W state sits at r = 0, its cap, so it never
    moves, and 0 is more than one step below every other r, so no Max
    state with an edge into W rises.  Then a becomes out - 1.  It stops
    when p = a outside W.

    Rounds: each round but the last removes its blocked product nodes
    from the alive set, at least one, so there are at most |V|·(|V|+1) + 1
    rounds; no smaller bound is proved.  On the
    bench term-counter instances (seeds 0-1) a fixpoint takes 1 or 2
    rounds, on ``chance_counter(999 or 2000, 1, None)`` 2 and on
    ``dense_counter(999, 1, None)`` 3, and on 3,247 random and exhaustive
    counter games of 1-20 states at most 3.  Both passes are seeded from
    ``Index.sinks_last``, successors first.

    With ``choices`` set, the fixpoint also records the product
    attractors' choices, which only synthesis reads: a Max state keeps,
    per offset band, the edge that raised p into it in the last round, and
    a Min state the edge by which each offset left the alive set, one that
    leaves the positive attractor where it was blocked and the edge that
    lowered out where it was pulled.  The thresholds do not depend on them.
    """
    owner, succ, weight, preds, order = index.owner, index.succ, index.weight, index.preds, index.sinks_last
    n = len(owner)
    far = n + 2  # above every offset: W is never blocked or pulled
    top = [far if s else n for s in safe]
    spoil = [[0] * n if who == "min" else [] for who in owner] if choices else None
    positive_min = [who == "min" for who in owner]
    doomed_min = [who == "max" for who in owner]
    negated = [[-w for w in ws] for ws in weight]
    doomed_cap = [0 if s else far for s in safe]

    def band(v, k, old, new):
        if owner[v] == "max" and (not bands[v] or bands[v][-1][1] != k):
            bands[v].append((old + 1, k))

    def spoiled(v, k, old, new):
        if owner[v] == "min":
            spoil[v][far + 1 - new : far + 1 - old] = [k] * (new - old)

    while True:
        cap = [min(a, n - 1) for a in top]
        bands = [[] for _ in owner] if choices else None
        p = [far if s else 0 for s in safe]
        _relax(succ, weight, preds, positive_min, p, cap, list(order), band if choices else None)
        if all(s or p[i] >= top[i] for i, s in enumerate(safe)):
            return _Thresholds(top, bands, spoil)
        for i, who in enumerate(owner if choices else ()):
            if who == "min" and not safe[i]:
                for o in range(p[i] + 1, cap[i] + 1):
                    spoil[i][o] = next(k for k, (t, w) in enumerate(zip(succ[i], weight[i])) if p[t] < o + w <= top[t])
        blocked = [i for i in order if not safe[i] and p[i] < top[i]]
        doomed = [far - v for v in p]
        _relax(succ, negated, preds, doomed_min, doomed, doomed_cap, blocked, spoiled if choices else None)
        top = [a if s else far - d for a, s, d in zip(top, safe, doomed)]


def _relax(succ, weight, preds, takes_min, value, cap, queue, record):
    """Raise ``value`` in place to the least fixpoint at or above it of
    min(cap(v), F(v)), F(v) the min over v's edges k of value(succ[v][k]) -
    weight[v][k] where ``takes_min[v]`` and the max otherwise, by relaxing
    edges from the nodes in ``queue``: a node whose value rose relaxes the
    edges into it, so a max node rises to what that edge gives and a min
    node to the least over its edges.  A node at its cap never moves.
    Each rise of node v by edge k from old to new is passed to
    ``record(v, k, old, new)`` unless ``record`` is None.

    Cost: each value rises by integer steps to a cap of at most |V| + 2,
    and a node is queued once per rise, so the relaxations of edges into
    risen nodes number O(|V|·|E|).  A min node whose edge passes the first
    test rereads its own edges, so the worst case is O(|V|·Σ deg(v)²),
    which is O(|V|·|E|) at bounded out-degree.  Seeded with
    ``Index.sinks_last`` (successors pop first), an acyclic stretch pops
    each node once, after its successors, and relaxes each edge once, in
    any listing of the game; only cycles climb."""
    queued = [False] * len(value)
    for v in queue:
        queued[v] = True
    while queue:
        t = queue.pop()
        queued[t] = False
        reached = value[t]
        for v, k in preds[t]:
            rise = reached - weight[v][k]
            if rise <= value[v] or value[v] >= cap[v]:
                continue
            if takes_min[v]:
                rise = min(value[u] - w for u, w in zip(succ[v], weight[v]))
                if rise <= value[v]:
                    continue
            if rise > cap[v]:
                rise = cap[v]
            if record is not None:
                record(v, k, value[v], rise)
            value[v] = rise
            if not queued[v]:
                queued[v] = True
                queue.append(v)


@dataclass(frozen=True)
class TermDecision:
    value_one: bool
    branch: str
    liminf_value_one: frozenset[str]
    start_level_state: str | None = None


def check_query(game: OcSsg, start: str, j: int) -> None:
    """Reject a termination query on an invalid game, with j not an int
    >= 1, or with a start state not in ``game``."""
    check_valid(game)
    check_counter_start(j, "termination")
    if start not in game.index.pos:
        raise ValueError(f"unknown state {_quoted(start)}")


def _term_pipeline(game: OcSsg, start: str, j: int, choices: bool):
    """The liminf=-inf solve and, for j < |V| with ``start`` outside its
    value-1 set W, the value-1 thresholds (else None), with their choice
    tables if ``choices`` is set.  Every size is answered: the thresholds
    hold O(|V|) ints, and each pass of their fixpoint is one ``_relax``
    call, whose cost that docstring bounds."""
    check_query(game, start, j)
    index = game.index
    solve = ssg.solve_limit_ssg(game, LIMINF_MINUS_INF)
    w = solve.result.value_one_set
    if j >= len(index.ids) or start in w:
        return solve, None
    return solve, _value_one_thresholds(index, [sid in w for sid in index.ids], choices=choices)


def decide_term_one(game: OcSsg, start: str, j: int) -> TermDecision:
    """Is the termination value 1 from ``start`` with initial counter ``j``?

    For j >= |V| this is exactly the liminf=-inf value-1 question; below
    that it is almost-sure reachability on the level product, read off the
    start's value-1 threshold.  A start in the liminf=-inf value-1 set W
    has value 1 at every j, so no threshold is computed for it.  A
    decision records no choice table.
    """
    solve, thresholds = _term_pipeline(game, start, j, choices=False)
    w = solve.result.value_one_set
    if j >= len(game.index.ids):
        return TermDecision(start in w, "limit", w)
    won = thresholds is None or j <= thresholds.top[game.index.pos[start]]
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
    every other Max state reachable in the level product adopts its
    attractor choice at its highest reachable offset.  Value < 1: a Min
    strategy whose memory is the level index saturating at the window top,
    where it switches to the liminf=-inf witness for Min (alone if j >= |V|).
    """
    solve, thresholds = _term_pipeline(game, start, j, choices=True)
    w = solve.result.value_one_set
    sigma_liminf = solve.result.witness_max
    pi_liminf = solve.result.witness_min
    if j >= len(game.index.ids):
        if start in w:
            return sigma_liminf, None
        return None, FiniteMemoryStrategy("min", 0, 0, 0, {}, {sid: ((0, k),) for sid, k in pi_liminf.choice.items()})
    if thresholds is None or j <= thresholds.top[game.index.pos[start]]:
        return _collapse_max_strategy(game, thresholds, start, j, w, sigma_liminf), None
    return None, _level_min_strategy(game, thresholds, j, pi_liminf)


def _collapse_max_strategy(game, thresholds, start, j, safe, sigma_liminf) -> PureMemorylessStrategy:
    """With ``thresholds`` None (a start in ``safe``) nothing is reached
    but the start, and every Max state outside ``safe`` takes edge 0."""
    index = game.index
    top = _highest_reached(index, thresholds, index.pos[start], j) if thresholds is not None else {}
    choice = {}
    for i, (sid, who) in enumerate(zip(index.ids, index.owner)):
        if who != "max":
            continue
        if sid in safe:
            choice[sid] = sigma_liminf.choice[sid]
        elif i in top:
            choice[sid] = band_edge(thresholds.max_choice[i], top[i])
        else:
            choice[sid] = 0
    return PureMemorylessStrategy("max", choice)


def _highest_reached(index, thresholds, entry: int, j: int) -> dict[int, int]:
    """Per state outside W, the highest offset >= 1 that the play reaches
    from (``entry``, ``j``) inside the winning region when Max follows its
    attractor choices, explored over (state, offset) pairs.  The play stops
    at the targets: a state first entered at offset 0 is only ever seen
    once the play terminated, and a W state keeps its liminf witness."""
    owner, succ, weight = index.owner, index.succ, index.weight
    top, max_choice = thresholds.top, thresholds.max_choice
    n = len(owner)
    highest: dict[int, int] = {}
    seen = {(entry, j)}
    frontier = [(entry, j)]
    while frontier:
        i, o = frontier.pop()
        if o == 0 or top[i] > n:
            continue
        highest[i] = max(highest.get(i, o), o)
        edges = (band_edge(max_choice[i], o),) if owner[i] == "max" else range(len(succ[i]))
        for k in edges:
            reached = (succ[i][k], o + weight[i][k])
            if reached[1] <= top[reached[0]] and reached not in seen:
                seen.add(reached)
                frontier.append(reached)
    return highest


def _level_min_strategy(game, thresholds, j, pi_liminf) -> FiniteMemoryStrategy:
    """Memory = saturated level index in [-j+1, |V|-j]; spoil below, liminf at top."""
    index = game.index
    lo = 1 - j
    bands = {}
    for i, (sid, who) in enumerate(zip(index.ids, index.owner)):
        if who == "min":
            runs = []
            for m, k in enumerate(thresholds.spoil[i][1:] + [pi_liminf.choice[sid]], lo):
                if not runs or runs[-1][1] != k:
                    runs.append((m, k))
            bands[sid] = tuple(runs)
    return FiniteMemoryStrategy("min", lo, len(index.ids) - j, 0, dict(zip(index.ids, index.weight)), bands)
