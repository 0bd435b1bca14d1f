"""Ground truth at desk scale.

``enumerate_solve`` walks every pure memoryless strategy profile (complete
for the limit objectives, where pure memoryless optima exist for both
players) and evaluates each induced chain exactly; ``enumerate_reach``
does the same for reachability and ``enumerate_mean_payoff`` for the
expected mean payoff of a one-player game.  A profile is a choice of edge
by node of the game's own index, and ``certify.chain_values`` evaluates
its chain there, so no game is built per profile and no solver they check
is called.  ``check_enumerable`` is their one product-size guard.
``simulate`` and ``estimate_objective`` are a seeded Monte Carlo sanity
layer: deterministic given the seed, with the generator named by
``RNG_ALGORITHM``."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import certify
from .model import (
    FiniteMemoryStrategy,
    Objective,
    PureMemorylessStrategy,
    SolveResult,
    Ssg,
    _clipped,
    _quoted,
    check_counter_start,
    check_valid,
    require_limit,
)

RNG_ALGORITHM = "mt19937-randrange"

ENUMERATION_GUARD = 1 << 20


class EnumerationTooLarge(RuntimeError):
    pass


def player_profiles(index, owners) -> tuple[list[int], list[int]]:
    """The nodes of ``index`` owned by one of ``owners``, in node order, and
    their edge counts."""
    nodes = [v for v, who in enumerate(index.owner) if who in owners]
    return nodes, [len(index.succ[v]) for v in nodes]


def check_enumerable(sizes) -> None:
    """Raise EnumerationTooLarge when the product of ``sizes`` exceeds ``ENUMERATION_GUARD``."""
    total = 1
    for n in sizes:
        total *= n
        if total > ENUMERATION_GUARD:
            raise EnumerationTooLarge(f"profile space exceeds {ENUMERATION_GUARD}")


def _strategy(index, player: str, nodes, combo) -> PureMemorylessStrategy:
    return PureMemorylessStrategy(player, {index.ids[v]: k for v, k in zip(nodes, combo)})


def enumerate_solve(game: Ssg, objective: Objective) -> SolveResult:
    """Statewise sup-inf over all pure memoryless profiles, exact rationals."""
    require_limit(objective)
    check_valid(game)
    index = game.index
    return _enumerate(index, lambda choice: certify.chain_values(index, choice, objective))


def enumerate_reach(game: Ssg, targets) -> SolveResult:
    """Same exhaustive evaluation for reachability objectives."""
    targets = frozenset(targets)
    check_valid(game)
    index = game.index
    unknown = targets - index.pos.keys()
    if unknown:
        raise ValueError(f"unknown target states {sorted(unknown)}")
    nodes = frozenset(index.pos[sid] for sid in targets)
    return _enumerate(index, lambda choice: certify.chain_values(index, choice, targets=nodes))


def _enumerate(index, evaluate) -> SolveResult:
    """The statewise sup-inf of ``evaluate(choice)`` (values by node) over
    every profile, choices keyed by node, Max's and Min's nodes in node
    order, and the first Max and the first Min profile in
    ``itertools.product`` order that attain it."""
    max_nodes, max_sizes = player_profiles(index, ("max",))
    min_nodes, min_sizes = player_profiles(index, ("min",))
    check_enumerable(max_sizes + min_sizes)
    max_combos = list(itertools.product(*map(range, max_sizes)))
    min_combos = list(itertools.product(*map(range, min_sizes)))

    table = []  # per Max profile, the value vector of each Min profile
    for mc in max_combos:
        choice = dict(zip(max_nodes, mc))
        vectors = []
        for nc in min_combos:
            choice.update(zip(min_nodes, nc))
            vectors.append(tuple(evaluate(choice)))
        table.append(vectors)
    floors = [tuple(map(min, zip(*vectors))) for vectors in table]
    value_vec = tuple(map(max, zip(*floors)))

    witness_max = witness_min = None
    for mc, floor in zip(max_combos, floors):
        if floor == value_vec:
            witness_max = _strategy(index, "max", max_nodes, mc)
            break
    for i, nc in enumerate(min_combos):
        if tuple(map(max, zip(*(vectors[i] for vectors in table)))) == value_vec:
            witness_min = _strategy(index, "min", min_nodes, nc)
            break
    if witness_max is None or witness_min is None:
        raise AssertionError("no statewise optimal memoryless profile found")
    return SolveResult.from_values(dict(zip(index.ids, value_vec)), witness_max, witness_min)


def enumerate_mean_payoff(game: Ssg, direction: str = "max"):
    """Statewise optimal expected mean payoff of a one-player game.

    Every controlled state is optimised in ``direction`` whatever its owner
    label.  Each policy's gain (``certify.chain_values`` with no objective)
    is the reach-weighted mean payoff of the closed classes of its chain.
    Returns the gains by state id and the first policy in
    ``itertools.product`` order that attains them at every state, labelled
    Max.
    """
    if direction not in ("max", "min"):
        raise ValueError("direction must be max or min")
    check_valid(game)
    index = game.index
    nodes, sizes = player_profiles(index, ("max", "min"))
    check_enumerable(sizes)
    combos = list(itertools.product(*map(range, sizes)))
    gains = [certify.chain_values(index, dict(zip(nodes, combo))) for combo in combos]
    best = list(map(max if direction == "max" else min, zip(*gains)))
    for combo, gain in zip(combos, gains):
        if gain == best:
            return dict(zip(index.ids, gain)), _strategy(index, "max", nodes, combo)
    raise AssertionError("no statewise optimal mean-payoff policy found")


# ---------------------------------------------------------------------------
# Monte Carlo simulation


@dataclass(frozen=True)
class TrialRecord:
    min_prefix_sum: int
    max_prefix_sum: int
    final_mean: Fraction
    hit_time: int | None


@dataclass(frozen=True)
class SimulationStats:
    trials: int
    records: tuple[TrialRecord, ...]
    termination_frequency: Fraction | None

    def frequency(self, predicate) -> Fraction:
        return Fraction(sum(1 for r in self.records if predicate(r)), len(self.records))


def _check_run(name: str, seed, trials: int, steps: int) -> None:
    """The checks every Monte Carlo run makes; ``name`` opens the message."""
    if seed is None:
        raise ValueError(f"{name} requires an explicit seed")
    if trials < 1:
        raise ValueError(f"{name} requires at least one trial")
    if steps < 1:
        raise ValueError(f"{name} requires at least one step")


class _Compiled:
    """Index-based trajectory engine for ``strategies`` from ``start``; edge
    sampling is integer-exact.

    Edges, weights and probabilities are read from the game's ``index``
    and the start's reward from its ``state_rewards``, so a parsed game
    derives no ``states``.  The last strategy
    given for a player resolves that player's states.
    A start state not in ``game`` and every strategy (``validate_for``) are
    checked first, so an unknown start, or a strategy with a missing state,
    an edge index out of range or, with memory, a bad band or memory delta,
    is rejected before any trial.
    """

    def __init__(self, game, strategies, start: str):
        check_valid(game)
        index = game.index
        if start not in index.pos:
            raise ValueError(f"unknown state {_quoted(start)}")
        by_player = {"max": None, "min": None}
        for strat in strategies or ():
            if strat is not None:
                by_player[strat.player] = strat
        for strat in by_player.values():
            if strat is not None:
                strat.validate_for(game)
        self.ids = index.ids
        self.edges: list[list[tuple[int, int]]] = [
            list(zip(targets, weights)) for targets, weights in zip(index.succ, index.weight)
        ]
        self.tables: list[tuple[int, list[int]] | None] = []
        self.fixed: list[int | None] = []
        self.finite: list[FiniteMemoryStrategy | None] = []
        # The finite-memory strategies whose memory a trial must track.
        self.tracked = tuple(s for s in by_player.values() if isinstance(s, FiniteMemoryStrategy))
        for sid, owner, probs in zip(index.ids, index.owner, index.prob):
            if owner == "rand":
                denom = lcm(*(p.denominator for p in probs))
                acc = 0
                cumulative = []
                for p in probs:
                    acc += int(p * denom)
                    cumulative.append(acc)
                self.tables.append((denom, cumulative))
                self.fixed.append(None)
                self.finite.append(None)
            else:
                self.tables.append(None)
                strat = by_player[owner]
                if strat is None:
                    raise ValueError(f"{_clipped(sid)}: no strategy resolves this state")
                if isinstance(strat, FiniteMemoryStrategy):
                    self.fixed.append(None)
                    self.finite.append(strat)
                else:
                    self.fixed.append(strat.choice[sid])
                    self.finite.append(None)
        self.start = index.pos[start]
        # The start state's own reward opens the running sum (None unless rewards sit on states).
        self.opening = game.state_rewards[self.start] or 0


def _run_trial(compiled, rng, steps, j, stop_at_hit, plus_threshold=None):
    """One trajectory; returns (record, stays_above_flag).

    ``j`` arms the first-hit detector for running sum -j (all step increments
    lie in {-1,0,+1}, so sums never skip a value).  ``plus_threshold`` arms
    the exceed-then-stay-above tracker used by the liminf=+inf proxy.
    """
    edges = compiled.edges
    tables = compiled.tables
    fixed = compiled.fixed
    finite = compiled.finite
    tracked = compiled.tracked
    tracks = bool(tracked)  # a bool tests faster than a tuple in the step loop
    randrange = rng.randrange
    state = compiled.start
    total = lo = hi = compiled.opening
    hit_time = None
    taken = 0
    exceeded = False
    stays_above = False
    memory = {strat.player: strat.initial_memory for strat in tracked}
    for step in range(1, steps + 1):
        table = tables[state]
        if table is not None:
            denom, cumulative = table
            draw = randrange(denom)
            k = 0
            while cumulative[k] <= draw:
                k += 1
        elif fixed[state] is not None:
            k = fixed[state]
        else:
            strat = finite[state]
            k = strat.choose(memory[strat.player], compiled.ids[state])
        if tracks:
            sid = compiled.ids[state]
            for strat in tracked:
                memory[strat.player] = strat.next_memory(memory[strat.player], sid, k)
        state, inc = edges[state][k]
        total += inc
        taken = step
        if total < lo:
            lo = total
        elif total > hi:
            hi = total
        if j is not None and hit_time is None and total == -j:
            hit_time = step
            if stop_at_hit:
                break
        if plus_threshold is not None:
            if total > plus_threshold:
                exceeded = True
            elif exceeded:
                break
    if plus_threshold is not None:
        stays_above = exceeded and total > plus_threshold
    return TrialRecord(lo, hi, Fraction(total, taken), hit_time), stays_above


def simulate(game, strategies, start: str, steps: int, trials: int, seed: int,
             j: int | None = None, stop_at_termination: bool = False) -> SimulationStats:
    """Seeded trajectory statistics; identical seeds give identical results.

    Counts accumulated rewards (or counter deltas) along each trajectory and
    reports per-trial extremes, the final mean-payoff estimate, and the first
    time the running sum hits ``-j``.  With ``stop_at_termination`` a trial
    ends at that hit and its record covers the truncated trajectory.
    """
    _check_run("simulation", seed, trials, steps)
    if j is not None:
        check_counter_start(j, "simulation")
    rng = random.Random(seed)
    compiled = _Compiled(game, strategies, start)
    records = tuple(_run_trial(compiled, rng, steps, j, stop_at_termination)[0] for _ in range(trials))
    termination = None
    if j is not None:
        termination = Fraction(sum(1 for r in records if r.hit_time is not None), trials)
    return SimulationStats(trials, records, termination)


# The objectives whose finite proxy reads a threshold.
THRESHOLD_PROXIES = ("liminf-minus-inf", "liminf-plus-inf")


def estimate_objective(game, strategies, objective: Objective, threshold: int | None,
                       steps: int, trials: int, seed: int, start: str) -> Fraction:
    """Empirical frequency of a finite proxy for the objective.

    liminf-minus-inf: the running sum dips below -threshold; liminf-plus-inf:
    the sum exceeds +threshold and stays above it for the rest of the
    horizon; mean-gt: the final average is positive; term: the sum hits -j.
    ``threshold`` is required, and positive, exactly for the two proxies
    that read it (``THRESHOLD_PROXIES``), and must be None for the others.
    """
    if objective.kind in THRESHOLD_PROXIES:
        if threshold is None or threshold <= 0:
            raise ValueError("threshold must be positive")
    elif threshold is not None:
        raise ValueError(f"threshold applies only to {' or '.join(THRESHOLD_PROXIES)}")
    _check_run("estimation", seed, trials, steps)
    rng = random.Random(seed)
    compiled = _Compiled(game, strategies, start)
    # Per proxy: the hit level j, the stay-above level, and what counts as
    # a success.  Unit increments never skip a value, so dipping below -B is
    # exactly hitting -(B+1); a trial stops at its hit.
    dip = None if threshold is None else threshold + 1
    proxies = {
        "term": (objective.j, None, lambda record, _: record.hit_time is not None),
        "liminf-minus-inf": (dip, None, lambda record, _: record.hit_time is not None),
        "liminf-plus-inf": (None, threshold, lambda _, stays_above: stays_above),
        "mean-gt": (None, None, lambda record, _: record.final_mean > 0),
    }
    if objective.kind not in proxies:
        raise ValueError(f"no finite proxy for objective {objective.kind}")
    j, plus_threshold, success = proxies[objective.kind]
    hits = sum(success(*_run_trial(compiled, rng, steps, j, True, plus_threshold)) for _ in range(trials))
    return Fraction(hits, trials)
