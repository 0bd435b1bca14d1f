"""Two-player solving of the limit objectives.

Values are pinned down through pure memoryless strategies for both players:
fixing one side yields a one-player residual that the ``mdp`` module solves
exactly, so a pair of mutually best responses certifies the game value.  The
solver improves Min against Max's exact best response and accepts the result
only once ``_find_max_witness`` certifies it.  Only when that certificate
cannot be found does it enumerate Min's strategies, and only while they
number at most ``ENUMERATION_CUTOFF``; beyond that it refuses with
``EnumerationTooLarge``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import mdp
from .model import (
    LIMIT_KINDS,
    Objective,
    PureMemorylessStrategy,
    SolveResult,
    Ssg,
    check_valid,
    fix_strategies,
)
from .oracle import EnumerationTooLarge, check_enumerable

ENUMERATION_CUTOFF = 1 << 12


@dataclass(frozen=True)
class SsgSolve:
    result: SolveResult
    max_witness: PureMemorylessStrategy
    min_witness: PureMemorylessStrategy
    method: str


def _limit_only(objective: Objective) -> None:
    if objective.kind not in LIMIT_KINDS:
        raise ValueError(f"not a limit objective: {objective.kind}")


def best_response(game: Ssg, fixed: PureMemorylessStrategy, objective: Objective) -> SolveResult:
    """Exact best response of the other player against ``fixed``."""
    _limit_only(objective)
    fixed.validate_for(game)
    if fixed.player == "min":
        residual = fix_strategies(game, min_strategy=fixed)
        return mdp.quantitative_limit(residual, objective, "max")
    residual = fix_strategies(game, max_strategy=fixed)
    return mdp.quantitative_limit(residual, objective, "min")


def _min_profiles(game):
    min_ids = list(game.owner_ids("min"))
    sizes = [len(game.state(sid).transitions) for sid in min_ids]
    return min_ids, sizes


def _evaluate_min(game, objective, choice) -> SolveResult:
    strat = PureMemorylessStrategy("min", choice)
    return best_response(game, strat, objective)


def _vector(game, values) -> tuple:
    return tuple(values[sid] for sid in game.ids())


def solve_limit_ssg(game: Ssg, objective: Objective) -> SsgSolve:
    """Exact values and mutually-best-response pure memoryless witnesses."""
    _limit_only(objective)
    check_valid(game)
    min_ids, sizes = _min_profiles(game)

    solve = _solve_by_improvement(game, objective, min_ids)
    if solve is None:
        check_enumerable(sizes, ENUMERATION_CUTOFF, "improvement failed and Min's profile space")
        solve = _solve_by_enumeration(game, objective, min_ids, sizes)
    return solve


def _solve_by_improvement(game, objective, min_ids) -> SsgSolve | None:
    """Pointwise-improving switches for Min against Max best responses.

    Every accepted switch strictly lowers the value vector, so no profile
    repeats.  The result counts only when a mutually-best-response pair is
    found; otherwise the caller falls back to enumeration.
    """
    choice = {sid: 0 for sid in min_ids}
    current = _evaluate_min(game, objective, choice)
    vec = _vector(game, current.values)
    improved = True
    while improved:
        improved = False
        for sid in min_ids:
            for k in range(len(game.state(sid).transitions)):
                if k == choice[sid]:
                    continue
                candidate = dict(choice)
                candidate[sid] = k
                result = _evaluate_min(game, objective, candidate)
                cvec = _vector(game, result.values)
                if all(a <= b for a, b in zip(cvec, vec)) and cvec != vec:
                    choice, current, vec = candidate, result, cvec
                    improved = True
                    break
            if improved:
                break

    min_witness = PureMemorylessStrategy("min", choice)
    max_witness = _find_max_witness(game, objective, current.values, current.witness_max)
    if max_witness is None:
        return None
    return SsgSolve(
        SolveResult.from_values(current.values, max_witness, min_witness),
        max_witness,
        min_witness,
        method="improvement",
    )


def _find_max_witness(game, objective, values, seed) -> PureMemorylessStrategy | None:
    """A Max strategy whose exact Min best response reproduces ``values``.

    A best response to the optimal Min strategy attains the values against
    that one opponent but need not hold them against every Min strategy, so
    certification requires this search: pointwise improvement of Max against
    Min best responses, then guarded enumeration.  Any Max strategy's
    guaranteed vector is bounded by the game values, hence matching them
    certifies optimality.
    """
    max_ids = list(game.owner_ids("max"))

    def guaranteed(choice):
        return best_response(game, PureMemorylessStrategy("max", choice), objective).values

    choice = dict(seed.choice) if seed is not None else {sid: 0 for sid in max_ids}
    current = guaranteed(choice)
    while current != values:
        improved = False
        for sid in max_ids:
            for k in range(len(game.state(sid).transitions)):
                if k == choice[sid]:
                    continue
                candidate = dict(choice)
                candidate[sid] = k
                result = guaranteed(candidate)
                if all(result[x] >= current[x] for x in game.ids()) and result != current:
                    choice, current = candidate, result
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    if current == values:
        return PureMemorylessStrategy("max", choice)

    sizes = [len(game.state(sid).transitions) for sid in max_ids]
    try:
        check_enumerable(sizes)
    except EnumerationTooLarge:
        return None
    for combo in itertools.product(*(range(n) for n in sizes)):
        candidate = dict(zip(max_ids, combo))
        if guaranteed(candidate) == values:
            return PureMemorylessStrategy("max", candidate)
    return None


def _solve_by_enumeration(game, objective, min_ids, sizes) -> SsgSolve:
    evaluations = []
    for combo in itertools.product(*(range(n) for n in sizes)):
        choice = dict(zip(min_ids, combo))
        evaluations.append((choice, _evaluate_min(game, objective, choice)))
    floor = {
        sid: min(result.values[sid] for _, result in evaluations) for sid in game.ids()
    }
    for choice, result in evaluations:
        if all(result.values[sid] == floor[sid] for sid in game.ids()):
            min_witness = PureMemorylessStrategy("min", choice)
            max_witness = _find_max_witness(game, objective, result.values, result.witness_max)
            if max_witness is None:
                raise AssertionError("no certified Max witness for the enumerated optimum")
            return SsgSolve(
                SolveResult.from_values(result.values, max_witness, min_witness),
                max_witness,
                min_witness,
                method="enumeration",
            )
    raise AssertionError("no statewise optimal Min strategy found")


def _check_threshold(p: Fraction, relation: str) -> None:
    if relation not in (">", ">=", "gt", "ge"):
        raise ValueError(f"relation must be > or >=, got {relation!r}")
    if not 0 <= p <= 1:
        raise ValueError("threshold must lie in [0,1]")


def threshold_holds(value: Fraction, p: Fraction, relation: str) -> bool:
    """Exact comparison of an already computed value against ``p``."""
    _check_threshold(p, relation)
    if relation in (">", "gt"):
        return value > p
    return value >= p


def decide_threshold(game: Ssg, objective: Objective, state: str, p: Fraction, relation: str) -> bool:
    """Exact comparison of the game value at ``state`` against ``p``."""
    _check_threshold(p, relation)
    return threshold_holds(solve_limit_ssg(game, objective).result.values[state], p, relation)
