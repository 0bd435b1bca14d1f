"""Ground truth at desk scale.

``enumerate_solve`` walks every pure memoryless strategy profile (complete
for the limit objectives, where pure memoryless optima exist for both
players) and evaluates each induced chain exactly; ``enumerate_mean_payoff``
does the same for the expected mean payoff of a one-player game.  Both use
only ``chain``, never the solvers they check.  ``check_enumerable`` is the
single product-size guard, shared with the two-player solver's fallbacks.
``simulate`` and
``estimate_objective`` are a seeded Monte Carlo sanity layer: deterministic
given the seed, with the generator identified in the output record.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import chain as chain_mod
from .model import (
    LIMIT_KINDS,
    ON_STATES,
    FiniteMemoryStrategy,
    Objective,
    OcSsg,
    PureMemorylessStrategy,
    SolveResult,
    Ssg,
    check_valid,
    fix_strategies,
    relabel_controlled,
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


def check_enumerable(sizes, limit: int = ENUMERATION_GUARD, what: str = "profile space") -> None:
    """Raise EnumerationTooLarge when the product of ``sizes`` exceeds ``limit``."""
    total = 1
    for n in sizes:
        total *= n
        if total > limit:
            raise EnumerationTooLarge(f"{what} exceeds {limit}")


def enumerate_solve(game: Ssg, objective: Objective) -> SolveResult:
    """Statewise sup-inf over all pure memoryless profiles, exact rationals."""
    if objective.kind not in LIMIT_KINDS:
        raise ValueError(f"not a limit objective: {objective.kind}")
    check_valid(game)
    return _enumerate(game, lambda chain: chain_mod.chain_tail_value(chain, objective))


def enumerate_reach(game: Ssg, targets) -> SolveResult:
    """Same exhaustive evaluation for reachability objectives."""
    targets = frozenset(targets)
    check_valid(game)
    return _enumerate(game, lambda chain: chain_mod.reach_probabilities(chain, targets))


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
    every state, as ``mdp.expected_mean_payoff`` does.
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
        for members in chain_mod.bscc_decompose(induced)[0]:
            mean = chain_mod.analyze_bscc(induced, members).mean_payoff
            for sid, p in chain_mod.reach_probabilities(induced, members).items():
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
    steps_taken: int


@dataclass(frozen=True)
class SimulationStats:
    trials: int
    steps: int
    seed: int
    rng: str
    records: tuple[TrialRecord, ...]
    termination_frequency: Fraction | None

    def frequency(self, predicate) -> Fraction:
        return Fraction(sum(1 for r in self.records if predicate(r)), len(self.records))


def _resolve(strategies):
    by_player = {"max": None, "min": None}
    if strategies:
        for strat in strategies:
            if strat is not None:
                by_player[strat.player] = strat
    return by_player


class _Compiled:
    """Index-based trajectory engine; edge sampling is integer-exact."""

    def __init__(self, game, by_player):
        check_valid(game)
        ids = game.ids()
        self.index = {sid: i for i, sid in enumerate(ids)}
        self.ids = ids
        self.edges: list[list[tuple[int, int]]] = []
        self.tables: list[tuple[int, list[int]] | None] = []
        self.fixed: list[int | None] = []
        self.finite: list[FiniteMemoryStrategy | None] = []
        on_states = isinstance(game, Ssg) and game.reward_location == ON_STATES
        self.initial_reward = [s.reward if on_states else 0 for s in game.states]
        self.tracks_memory = any(isinstance(s, FiniteMemoryStrategy) for s in by_player.values())
        for s in game.states:
            row = []
            for t in s.transitions:
                if isinstance(game, OcSsg):
                    inc = t.delta
                elif on_states:
                    inc = game.state(t.target).reward
                else:
                    inc = t.reward
                row.append((self.index[t.target], inc))
            self.edges.append(row)
            if s.owner == "rand":
                denom = lcm(*(t.prob.denominator for t in s.transitions))
                acc = 0
                cumulative = []
                for t in s.transitions:
                    acc += int(t.prob * denom)
                    cumulative.append(acc)
                self.tables.append((denom, cumulative))
                self.fixed.append(None)
                self.finite.append(None)
            else:
                self.tables.append(None)
                strat = by_player[s.owner]
                if strat is None:
                    raise ValueError(f"{s.id}: no strategy resolves this state")
                if isinstance(strat, FiniteMemoryStrategy):
                    self.fixed.append(None)
                    self.finite.append(strat)
                else:
                    self.fixed.append(strat.choice[s.id])
                    self.finite.append(None)


def _run_trial(compiled, rng, by_player, start_index, steps, j, stop_at_hit, plus_threshold=None):
    """One trajectory; returns (record, stays_above_flag).

    ``j`` arms the first-hit detector for running sum -j (all step increments
    lie in {-1,0,+1}, so sums never skip a value).  ``plus_threshold`` arms
    the exceed-then-stay-above tracker used by the liminf=+inf proxy.
    """
    edges = compiled.edges
    tables = compiled.tables
    fixed = compiled.fixed
    finite = compiled.finite
    randrange = rng.randrange
    state = start_index
    total = compiled.initial_reward[state]
    lo = hi = total
    hit_time = None
    taken = 0
    exceeded = False
    stays_above = False
    memory = {
        player: strat.initial_memory if isinstance(strat, FiniteMemoryStrategy) else None
        for player, strat in by_player.items()
    }
    tracks = compiled.tracks_memory
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
            for player, strat in by_player.items():
                if isinstance(strat, FiniteMemoryStrategy):
                    memory[player] = strat.next_memory(memory[player], sid, k)
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
    final_mean = Fraction(total, taken) if taken else Fraction(0)
    return TrialRecord(lo, hi, final_mean, hit_time, taken), stays_above


def simulate(game, strategies, start: str, steps: int, trials: int, seed: int,
             j: int | None = None, stop_at_termination: bool = False) -> SimulationStats:
    """Seeded trajectory statistics; identical seeds give identical results.

    Counts accumulated rewards (or counter deltas) along each trajectory and
    reports per-trial extremes, the final mean-payoff estimate, and the first
    time the running sum hits ``-j``.  With ``stop_at_termination`` a trial
    ends at that hit and its record covers the truncated trajectory.
    """
    if seed is None:
        raise ValueError("simulation requires an explicit seed")
    rng = random.Random(seed)
    by_player = _resolve(strategies)
    compiled = _Compiled(game, by_player)
    start_index = compiled.index[start]
    records = []
    for _ in range(trials):
        record, _ = _run_trial(compiled, rng, by_player, start_index, steps, j, stop_at_termination)
        records.append(record)
    termination = None
    if j is not None:
        termination = Fraction(sum(1 for r in records if r.hit_time is not None), trials)
    return SimulationStats(trials, steps, seed, RNG_ALGORITHM, tuple(records), termination)


def estimate_objective(game, strategies, objective: Objective, threshold: int,
                       steps: int, trials: int, seed: int, start: str) -> Fraction:
    """Empirical frequency of a finite proxy for the objective.

    liminf-minus-inf: the running sum dips below -threshold; liminf-plus-inf:
    the sum exceeds +threshold and stays above it for the rest of the
    horizon; mean-gt: the final average is positive; term: the sum hits -j.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if seed is None:
        raise ValueError("estimation requires an explicit seed")
    rng = random.Random(seed)
    by_player = _resolve(strategies)
    compiled = _Compiled(game, by_player)
    start_index = compiled.index[start]

    kind = objective.kind
    hits = 0
    for _ in range(trials):
        if kind == "term":
            record, _ = _run_trial(compiled, rng, by_player, start_index, steps, objective.j, True)
            hits += record.hit_time is not None
        elif kind == "liminf-minus-inf":
            # Unit increments never skip a value, so dipping below -B is
            # exactly hitting -(B+1); the trial can stop there.
            record, _ = _run_trial(compiled, rng, by_player, start_index, steps, threshold + 1, True)
            hits += record.hit_time is not None
        elif kind == "liminf-plus-inf":
            _, stays_above = _run_trial(
                compiled, rng, by_player, start_index, steps, None, False, plus_threshold=threshold
            )
            hits += stays_above
        elif kind == "mean-gt":
            record, _ = _run_trial(compiled, rng, by_player, start_index, steps, None, False)
            hits += record.final_mean > 0
        else:
            raise ValueError(f"no finite proxy for objective {kind}")
    return Fraction(hits, trials)
