"""Verification: the reference analyses that ``oracle`` and the tests check
the solvers with.  No solve calls them and no solver module imports this
one, so a solve loads none of it.

* ``chain_values``: the exact values of the chain that a profile leaves
  on a game's own index (``Index.steps``), by node: hitting
  probabilities, the probability of a limit objective, or the expected
  mean payoff, from ``chain``'s kernels and ``linsolve``.
  ``oracle`` evaluates every strategy profile with it.
* ``product_with_strategy``: a counter game under a finite-memory
  strategy, on which synthesized termination witnesses are checked.
"""

from __future__ import annotations

from fractions import Fraction

from . import chain as chain_mod
from . import linsolve
from .model import OWNERS, FiniteMemoryStrategy, Objective, OcSsg, State, Transition
from .model import _quoted, check_valid, require_limit

_ZERO = Fraction(0)
_ONE = Fraction(1)


def chain_values(index, choice: dict[int, int], objective: Objective | None = None, targets=None) -> list[Fraction]:
    """Exact values by node of the chain in which each node v of ``choice``
    takes its edge ``choice[v]`` (``Index.steps``): with ``targets`` (a set
    of nodes) the probability of hitting them, with a limit ``objective``
    the probability of the objective, and with neither the expected mean
    payoff.  Every controlled node must be in ``choice``.

    A limit objective holds exactly on the runs that enter a closed class
    that wins it, and the mean payoff of a run is the mean of the class it
    enters.  The closed classes are ``chain.bottom_sccs``; each class's
    mean is its stationary law (``chain.stationary_system``) times the
    visit rewards (``Index.visit_reward``), and ``chain.class_wins``
    judges it, calling ``chain.node_potential`` only where the mean alone
    does not decide.  Each node of a class then holds the class's value (1
    or 0, or its mean), and each target 1.  Every other node holds the
    expected value of the first such node it hits: 0 outside the attractor
    of the nonzero ones over the chain's edges (``chain.attractor``), and
    one solve of ``chain.hitting_rows`` on the rest.
    """
    if objective is not None:
        require_limit(objective)
    missing = [sid for v, (sid, who) in enumerate(zip(index.ids, index.owner)) if who != "rand" and v not in choice]
    if missing:
        raise ValueError(f"not a chain, controlled states remain: {missing}")
    succ, prob, weight, rewards = index.steps(choice)
    values = [_ZERO] * len(succ)
    if targets is not None:
        for v in targets:
            values[v] = _ONE
    else:
        for members in chain_mod.bottom_sccs(succ, range(len(succ))):
            law = chain_mod.stationary_system(members, succ, prob).solve([1] + [0] * (len(members) - 1))
            value = sum([x * rewards[v] for x, v in zip(law, members)], _ZERO)
            if objective is not None:
                wins = chain_mod.class_wins(
                    objective.kind, value, lambda: chain_mod.node_potential(members, succ, weight) is not None
                )
                value = _ONE if wins else _ZERO
            for v in members:
                values[v] = value
    seeds = frozenset(v for v, x in enumerate(values) if x)
    if not seeds:
        return values
    allowed = [range(len(edges)) for edges in index.succ]
    for v, k in choice.items():
        allowed[v] = (k,)
    reached, _ = chain_mod.attractor(index, seeds, OWNERS, allowed=allowed)
    interior = [v for v, hit in enumerate(reached) if hit and v not in seeds]
    if interior:
        rows, scales, _ = chain_mod.hitting_rows(interior, succ, prob, seeds)
        # The interior still reads 0, so each sum is over the seeds.
        rhs = [sum([p * values[t] for t, p in zip(succ[v], prob[v])], _ZERO) for v in interior]
        for v, x in zip(interior, linsolve.factor(rows, scales).solve(rhs)):
            values[v] = x
    return values


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
