"""Verification: the reference analyses that ``oracle`` and the tests check
the solvers with.  No solve calls them and no solver module imports this
one, so a solve loads none of it.

* Chains keyed by state id, on ``chain``'s int kernels: ``bscc_decompose``,
  ``strongly_connected_components``, ``stationary_law`` of a checked BSCC,
  ``potential`` (zero drift), ``analyze_bscc`` (law, mean, potential and
  the 0/1 class under each limit objective), ``reach_probabilities`` and
  ``chain_tail_value`` (the probability of hitting a winning BSCC).
  ``oracle`` evaluates every strategy profile's chain with them.
* ``product_with_strategy``: a counter game under a finite-memory
  strategy, on which synthesized termination witnesses are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import chain as chain_mod
from . import linsolve
from .model import OWNERS, FiniteMemoryStrategy, Objective, OcSsg, Ssg, State, Transition
from .model import _quoted, check_valid, require_limit

_ONE = Fraction(1)


def _require_chain(chain: Ssg) -> None:
    index = chain.index
    controlled = [sid for sid, who in zip(index.ids, index.owner) if who != "rand"]
    if controlled:
        raise ValueError(f"not a chain, controlled states remain: {controlled}")


@dataclass(frozen=True)
class BsccAnalysis:
    members: frozenset[str]
    stationary: dict[str, Fraction]
    mean_payoff: Fraction
    potential: dict[str, int] | None
    classification: dict[str, int]


def bscc_decompose(chain: Ssg) -> tuple[list[frozenset[str]], frozenset[str]]:
    """Bottom SCCs plus the transient remainder; together they partition V."""
    _require_chain(chain)
    ids = chain.index.ids
    succ = chain.index.succ
    bottoms = chain_mod.bottom_sccs(succ, range(len(succ)))
    closed = {v for members in bottoms for v in members}
    transient = frozenset(sid for v, sid in enumerate(ids) if v not in closed)
    return [frozenset(ids[v] for v in members) for members in bottoms], transient


def strongly_connected_components(game, within=None) -> list[list[str]]:
    """SCCs of the multigraph, or of the subgraph induced by ``within``, in
    ``chain.tarjan``'s discovery order."""
    index = game.index
    ids = index.ids
    if within is None:
        succ, roots = index.succ, range(len(ids))
    else:
        inside = [sid in within for sid in ids]
        succ = [[t for t in targets if inside[t]] if inside[v] else () for v, targets in enumerate(index.succ)]
        roots = [v for v in range(len(ids)) if inside[v]]
    return [[ids[v] for v in comp] for comp in chain_mod.tarjan(succ, roots)]


def _check_bscc(chain: Ssg, members: frozenset[str]) -> None:
    index = chain.index
    for sid in members:
        if sid not in index.pos:
            raise ValueError(f"unknown state {sid!r}")
        for t in index.succ[index.pos[sid]]:
            if index.ids[t] not in members:
                raise ValueError(f"{sid}: component is not bottom (edge to {index.ids[t]})")
    if len(strongly_connected_components(chain, within=members)) != 1:
        raise ValueError("component is not strongly connected")


def stationary_law(chain: Ssg, members: frozenset[str]) -> tuple[dict[str, Fraction], linsolve.Factorization]:
    """Stationary law of the BSCC ``members`` and the factorization of its
    system S (``chain.stationary_system``); the law is keyed by state id, in
    game order."""
    _require_chain(chain)
    _check_bscc(chain, members)
    index = chain.index
    order = [v for v, sid in enumerate(index.ids) if sid in members]
    system = chain_mod.stationary_system(order, index.succ, index.prob)
    law = system.solve([1] + [0] * (len(order) - 1))
    if any(v <= 0 for v in law):
        raise ValueError("stationary distribution not positive, component is not a BSCC")
    return dict(zip((index.ids[v] for v in order), law)), system


def analyze_bscc(chain: Ssg, members: frozenset[str]) -> BsccAnalysis:
    """Stationary law, drift, potential, and 0/1 tail classification of a BSCC."""
    stationary, _ = stationary_law(chain, members)
    index = chain.index
    mean = Fraction(0)
    for sid, weight in stationary.items():
        v = index.pos[sid]
        mean += weight * sum((p * w for p, w in zip(index.prob[v], index.weight[v])), Fraction(0))
    h = potential(chain, members)
    classification = {
        kind: int(chain_mod.class_wins(kind, mean, lambda: h is not None)) for kind in chain_mod.WINNING_SIGNS
    }
    return BsccAnalysis(frozenset(members), stationary, mean, h, classification)


def potential(game, members) -> dict[str, int] | None:
    """Potential h with h(v) - h(u) = step reward on every edge u -> v, by
    state id (``chain.node_potential`` on the game's index, anchored at the
    first member in game order)."""
    index = game.index
    h = chain_mod.node_potential([v for v, sid in enumerate(index.ids) if sid in members], index.succ, index.weight)
    return None if h is None else {index.ids[v]: x for v, x in h.items()}


def reach_probabilities(chain: Ssg, targets) -> dict[str, Fraction]:
    """Exact hitting probabilities of ``targets`` from every state.

    States that cannot reach the target get 0, target states get 1, and the
    rest solve the one-step equations (``chain.hitting_rows``) restricted to
    the can-reach region.
    """
    _require_chain(chain)
    targets = frozenset(targets)
    unknown = targets - set(chain.ids())
    if unknown:
        raise ValueError(f"unknown target states {sorted(unknown)}")
    index = chain.index
    nodes = frozenset(index.pos[sid] for sid in targets)
    can_reach, _ = chain_mod.attractor(index, nodes, OWNERS)
    values = [Fraction(0)] * len(index.ids)
    for v in nodes:
        values[v] = _ONE
    interior = [v for v, reached in enumerate(can_reach) if reached and v not in nodes]
    if interior:
        rows, scales, rhs = chain_mod.hitting_rows(interior, index.succ, index.prob, nodes)
        for v, x in zip(interior, linsolve.factor(rows, scales).solve(rhs)):
            values[v] = x
    return dict(zip(index.ids, values))


def chain_tail_value(chain: Ssg, objective: Objective) -> dict[str, Fraction]:
    """Value of a tail limit objective: probability of hitting a class-1 BSCC."""
    require_limit(objective)
    bsccs, _ = bscc_decompose(chain)
    winning: set[str] = set()
    for members in bsccs:
        if analyze_bscc(chain, members).classification[objective.kind]:
            winning.update(members)
    if not winning:
        return {sid: Fraction(0) for sid in chain.ids()}
    return reach_probabilities(chain, winning)


def product_with_strategy(game: OcSsg, strategy: FiniteMemoryStrategy, start: str):
    """Product of the game with a finite-memory strategy's automaton.

    States owned by the strategy's player keep only the chosen edge; the
    result is the residual one-player game, with the product start state.
    Only the reachable part is built.  The strategy is checked against the
    game first (``validate_for``), and an unknown start is refused.
    """
    check_valid(game)
    strategy.validate_for(game)
    if start not in game.index.pos:
        raise ValueError(f"unknown state {_quoted(start)}")

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
