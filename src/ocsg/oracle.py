"""Ground truth at desk scale.

``enumerate_solve`` walks every pure memoryless strategy profile (complete
for the limit objectives, where pure memoryless optima exist for both
players) and evaluates each induced chain exactly; ``enumerate_mean_payoff``
does the same for the expected mean payoff of a one-player game.  Both use
only ``certify``'s chain analyses, never the solvers they check, and
``check_enumerable`` is their one product-size guard.  ``simulate`` and
``estimate_objective`` are a seeded Monte Carlo sanity layer:
deterministic given the seed, with the generator named by
``RNG_ALGORITHM``.
"""

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
    fix_strategies,
    relabel_controlled,
    require_limit,
)

RNG_ALGORITHM = "mt19937-randrange"

ENUMERATION_GUARD = 1 << 20


class EnumerationTooLarge(RuntimeError):
    pass


def player_profiles(game, owner: str) -> tuple[list[str], list[int]]:
    """The ``owner`` states in game order and their edge counts."""
    ids = list(game.owner_ids(owner))
    sizes = [len(game.state(sid).transitions) for sid in ids]
    return ids, sizes


def check_enumerable(sizes) -> None:
    """Raise EnumerationTooLarge when the product of ``sizes`` exceeds ``ENUMERATION_GUARD``."""
    total = 1
    for n in sizes:
        total *= n
        if total > ENUMERATION_GUARD:
            raise EnumerationTooLarge(f"profile space exceeds {ENUMERATION_GUARD}")


def enumerate_solve(game: Ssg, objective: Objective) -> SolveResult:
    """Statewise sup-inf over all pure memoryless profiles, exact rationals."""
    require_limit(objective)
    check_valid(game)
    return _enumerate(game, lambda chain: certify.chain_tail_value(chain, objective))


def enumerate_reach(game: Ssg, targets) -> SolveResult:
    """Same exhaustive evaluation for reachability objectives."""
    targets = frozenset(targets)
    check_valid(game)
    return _enumerate(game, lambda chain: certify.reach_probabilities(chain, targets))


def _enumerate(game, evaluate) -> SolveResult:
    max_ids, max_sizes = player_profiles(game, "max")
    min_ids, min_sizes = player_profiles(game, "min")
    check_enumerable(max_sizes + min_sizes)
    order = game.ids()

    rows = []  # per Max profile: (choices, statewise floor over Min profiles)
    min_combos = list(itertools.product(*(range(n) for n in min_sizes)))
    max_combos = list(itertools.product(*(range(n) for n in max_sizes)))
    table = {}
    for mc in max_combos:
        sigma = PureMemorylessStrategy("max", dict(zip(max_ids, mc)))
        vectors = []
        for nc in min_combos:
            pi = PureMemorylessStrategy("min", dict(zip(min_ids, nc)))
            values = evaluate(fix_strategies(game, sigma, pi))
            vec = tuple(values[sid] for sid in order)
            vectors.append(vec)
            table[(mc, nc)] = vec
        floor = tuple(min(v[i] for v in vectors) for i in range(len(order)))
        rows.append((mc, floor))

    value_vec = tuple(max(floor[i] for _, floor in rows) for i in range(len(order)))
    values = {sid: value_vec[i] for i, sid in enumerate(order)}

    witness_max = None
    for mc, floor in rows:
        if floor == value_vec:
            witness_max = PureMemorylessStrategy("max", dict(zip(max_ids, mc)))
            break
    witness_min = None
    for nc in min_combos:
        ceiling = tuple(max(table[(mc, nc)][i] for mc in max_combos) for i in range(len(order)))
        if ceiling == value_vec:
            witness_min = PureMemorylessStrategy("min", dict(zip(min_ids, nc)))
            break
    if witness_max is None or witness_min is None:
        raise AssertionError("no statewise optimal memoryless profile found")
    return SolveResult.from_values(values, witness_max, witness_min)


def enumerate_mean_payoff(game: Ssg, direction: str = "max"):
    """Statewise optimal expected mean payoff of a one-player game.

    Every controlled state is optimised in ``direction`` whatever its owner
    label.  Each policy's gain is the reach-weighted mean payoff of the BSCCs
    of its induced chain.  Returns the gains and a policy attaining them at
    every state.
    """
    if direction not in ("max", "min"):
        raise ValueError("direction must be max or min")
    check_valid(game)
    game = relabel_controlled(game, "max")
    ids, sizes = player_profiles(game, "max")
    check_enumerable(sizes)
    candidates = []
    for combo in itertools.product(*(range(n) for n in sizes)):
        sigma = PureMemorylessStrategy("max", dict(zip(ids, combo)))
        induced = fix_strategies(game, sigma)
        gain = {sid: Fraction(0) for sid in induced.ids()}
        for members in certify.bscc_decompose(induced)[0]:
            mean = certify.analyze_bscc(induced, members).mean_payoff
            for sid, p in certify.reach_probabilities(induced, members).items():
                gain[sid] += p * mean
        candidates.append((sigma, gain))
    pick = max if direction == "max" else min
    best = {sid: pick(gain[sid] for _, gain in candidates) for sid in game.ids()}
    for sigma, gain in candidates:
        if gain == best:
            return gain, sigma
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
