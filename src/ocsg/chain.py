"""Exact finite Markov chain analysis: BSCCs, stationary laws, mean payoff,
the zero-drift degeneracy test, tail-objective classification, and hitting
probabilities.

A chain here is an ``Ssg`` whose states are all rand.  Rewards may sit on
states or on transitions; accumulated reward of a step u -> v is r(v) in the
first case and the edge reward in the second, so cycle sums agree with the
run prefix sums either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linsolve
from .model import LIMIT_KINDS, OWNERS, Objective, Ssg, step_reward


def _require_chain(chain: Ssg) -> None:
    if not chain.is_chain():
        controlled = [s.id for s in chain.states if s.owner != "rand"]
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
    sccs = strongly_connected_components(chain)
    bsccs = []
    transient = set()
    for comp in sccs:
        members = frozenset(comp)
        closed = all(t.target in members for sid in comp for t in chain.state(sid).transitions)
        if closed:
            bsccs.append(members)
        else:
            transient.update(comp)
    return bsccs, frozenset(transient)


def strongly_connected_components(game, within=None) -> list[list[str]]:
    """Iterative Tarjan over the multigraph, or over the subgraph induced by
    ``within``; components in discovery order."""

    def successors(sid):
        succ = game.successors(sid)
        return succ if within is None else [t for t in succ if t in within]

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    for root in game.ids():
        if root in index or (within is not None and root not in within):
            continue
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)
    return components


def attractor(game, seeds, any_owners, within=None, allowed=None):
    """Least superset W of ``seeds`` inside ``within`` closed under attraction.

    A state whose owner is in ``any_owners`` joins W once one of its counted
    edges enters W; any other state joins once all of its counted edges do,
    and it must have at least one.  ``allowed[sid]`` limits the counted edge
    indices (default: every edge).  Returns (W, choice), where ``choice``
    maps each controlled ``any_owners`` state outside ``seeds`` to the edge
    that pulled it in; that edge leads to a state that joined earlier.

    A worklist over ``game.predecessors`` with a counter of edges still
    outside W per state: O(|V| + |E|).
    """
    attracted = set(seeds)
    # Game order, not set order, so ``choice`` does not depend on string hashing.
    queue = [sid for sid in game.by_id if sid in attracted]
    outside: dict[str, int] = {}
    choice: dict[str, int] = {}
    while queue:
        target = queue.pop()
        for sid, k in game.predecessors[target]:
            if sid in attracted or (within is not None and sid not in within):
                continue
            if allowed is not None and k not in allowed[sid]:
                continue
            s = game.state(sid)
            if s.owner in any_owners:
                if s.owner != "rand":
                    choice[sid] = k
            else:
                left = outside.get(sid)
                if left is None:
                    left = len(allowed[sid]) if allowed is not None else len(s.transitions)
                outside[sid] = left = left - 1
                if left:
                    continue
            attracted.add(sid)
            queue.append(sid)
    return attracted, choice


def _check_bscc(chain: Ssg, members: frozenset[str]) -> None:
    for sid in members:
        if sid not in chain.by_id:
            raise ValueError(f"unknown state {sid!r}")
        for t in chain.state(sid).transitions:
            if t.target not in members:
                raise ValueError(f"{sid}: component is not bottom (edge to {t.target})")
    if len(strongly_connected_components(chain, within=members)) != 1:
        raise ValueError("component is not strongly connected")


def analyze_bscc(chain: Ssg, members: frozenset[str]) -> BsccAnalysis:
    """Stationary law, drift, potential, and 0/1 tail classification of a BSCC."""
    _require_chain(chain)
    _check_bscc(chain, members)
    order = [sid for sid in chain.ids() if sid in members]
    pos = {sid: i for i, sid in enumerate(order)}
    n = len(order)

    # Balance equations with the first one replaced by normalisation.
    matrix = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0)] * n
    for j in range(n):
        matrix[0][j] = Fraction(1)
    rhs[0] = Fraction(1)
    for i, uid in enumerate(order):
        if i:
            matrix[i][i] += Fraction(1)
        for t in chain.state(uid).transitions:
            j = pos[t.target]
            if j:
                matrix[j][i] -= t.prob
    solution, _ = linsolve.solve_linear_system(matrix, rhs)
    stationary = {sid: solution[pos[sid]] for sid in order}
    if any(v <= 0 for v in stationary.values()):
        raise ValueError("stationary distribution not positive, component is not a BSCC")

    mean = Fraction(0)
    for sid in order:
        s = chain.state(sid)
        if chain.reward_location == "states":
            mean += stationary[sid] * s.reward
        else:
            mean += stationary[sid] * sum((t.prob * t.reward for t in s.transitions), Fraction(0))

    h = potential(chain, members)

    mu_pos, mu_neg = mean > 0, mean < 0
    classification = {
        "liminf-plus-inf": int(mu_pos),
        "mean-gt": int(mu_pos),
        "mean-leq": int(not mu_pos),
        "liminf-lt-plus-inf": int(not mu_pos),
        "liminf-minus-inf": int(mu_neg or (mean == 0 and h is None)),
        "liminf-gt-minus-inf": int(mu_pos or (mean == 0 and h is not None)),
    }
    return BsccAnalysis(frozenset(members), stationary, mean, h, classification)


def potential(game, members, allowed=None) -> dict[str, int] | None:
    """Potential h with h(v) - h(u) = step reward on every counted edge u -> v.

    ``members`` must be strongly connected under the counted edges, which
    stay inside it; ``allowed[sid]`` limits them (default: every edge).  h is
    zero at the first member in game order.  Returns None when some cycle
    has nonzero total reward.  Each edge is checked once, when its source
    is expanded.
    """
    anchor = next(sid for sid in game.by_id if sid in members)
    h = {anchor: 0}
    queue = [anchor]
    while queue:
        uid = queue.pop()
        state = game.state(uid)
        for k in allowed[uid] if allowed is not None else range(len(state.transitions)):
            t = state.transitions[k]
            level = h[uid] + step_reward(game, state, t)
            if t.target not in h:
                h[t.target] = level
                queue.append(t.target)
            elif h[t.target] != level:
                return None
    return h


def reach_probabilities(chain: Ssg, targets, return_pivot: bool = False):
    """Exact hitting probabilities of ``targets`` from every state.

    States that cannot reach the target get 0, target states get 1, and the
    rest solve the one-step equations restricted to the can-reach region.
    With ``return_pivot`` also returns the elimination's pivot product.
    """
    _require_chain(chain)
    targets = frozenset(targets)
    unknown = set(targets) - set(chain.ids())
    if unknown:
        raise ValueError(f"unknown target states {sorted(unknown)}")

    can_reach, _ = attractor(chain, targets, OWNERS)

    values = {sid: Fraction(0) for sid in chain.ids()}
    for sid in targets:
        values[sid] = Fraction(1)
    interior = [sid for sid in chain.ids() if sid in can_reach and sid not in targets]
    pivot = 1
    if interior:
        pos = {sid: i for i, sid in enumerate(interior)}
        n = len(interior)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        rhs = [Fraction(0)] * n
        for i, sid in enumerate(interior):
            matrix[i][i] += Fraction(1)
            for t in chain.state(sid).transitions:
                if t.target in targets:
                    rhs[i] += t.prob
                elif t.target in pos:
                    matrix[i][pos[t.target]] -= t.prob
        solution, pivot = linsolve.solve_linear_system(matrix, rhs)
        for sid, v in zip(interior, solution):
            values[sid] = v
    if return_pivot:
        return values, pivot
    return values


def chain_tail_value(chain: Ssg, objective: Objective) -> dict[str, Fraction]:
    """Value of a tail limit objective: probability of hitting a class-1 BSCC."""
    if objective.kind not in LIMIT_KINDS:
        raise ValueError(f"not a tail limit objective: {objective.kind}")
    bsccs, _ = bscc_decompose(chain)
    winning: set[str] = set()
    for members in bsccs:
        if analyze_bscc(chain, members).classification[objective.kind]:
            winning.update(members)
    if not winning:
        return {sid: Fraction(0) for sid in chain.ids()}
    return reach_probabilities(chain, winning)
