"""One-player solvers on the game graph.

All operations optimise every controlled state in the requested direction;
inputs are expected to be one-player models (the residual index that
``Index.fixed`` leaves, its fixed nodes on the steps ``Index.steps`` gives
them, or a game whose controlled states belong to a single player).

Probabilities, values, and gains are exact Fractions throughout; policy
iteration terminates because every accepted switch strictly improves an
exactly evaluated quantity.

A limit objective is decided from the end components, as in the paper, by
one rule table (``_MEC_RULES``, derived from ``chain.WINNING_SIGNS``) read
by one function (``_mec_part``): the sign of each MEC's optimal gain, and
at gain 0 one part of its tight sub-MDP, the end components with a noisy
rand state (liminf = -inf) or those without one (liminf > -inf); then
almost-sure reach of the states they win.  Every gain policy iteration
(``_policy_iteration``) starts from the greedy one-step policy, each
controlled state on its first edge of extreme step weight; Howard's
iteration terminates and is optimal from any start, so the start only saves
rounds.  A MEC's gain policy iteration stops at the first policy whose
closed classes all have a mean of winning sign, which then wins the whole
MEC (every state's gain is a convex combination of class means); only a MEC
that no policy wins is solved to optimality, so a gain-0 MEC gets the
optimal bias.  Each round evaluates its policy only as far as it reads
(``_PolicyEvaluation``): class means first, the transient gain when it does
not stop, the bias when no gain switch exists.  No potential test runs on
this path (only the chains that bound a two-player scan's candidates test
one), and energy lifting (``energy_min_credit``) serves only the
termination-value-0 question.

Everything here runs on an int ``model.Index``; the public
``mec_decompose``, ``solve_reachability`` and ``quantitative_limit`` read
their game's index and key their results by state id, and a two-player
best response hands ``limit_on_index`` the residual index that
``Index.fixed`` derives and gets node values and a node policy back.  No
game is built per best response, MEC, round or cut:

* MECs (``_mecs``) refine strongly connected candidates only, the SCCs
  that one ``chain.tarjan`` finds over the allowed edges inside a node
  set, kept with several nodes or an allowed self-loop.  A candidate that
  no allowed edge leaves, or that loses no node to the attractor of the
  targets those edges reach (one ``chain.attractor`` on its nodes and
  allowed edges), is a MEC; the survivors of one that loses some are
  split again.  The tight parts decompose on the same index with their
  allowed edges.  They read only rand vs controlled, and so does
  almost-sure reach (``almost_sure_reach``, alternating
  ``chain.attractor`` calls, none with no target), so the value-1 region
  hands every controlled node to Max without relabelling.
* A MEC's policy iteration runs in place on its members and allowed
  edges, with no sub-index.  Each round reads its policy's chain as int
  lists by node from ``Index.steps``, the one statement of a fixed
  node's step (a rand node's reward is its ``Index.visit_reward``),
  splits it with ``chain.bottom_sccs`` and builds the stationary and
  transient systems from those lists.
* A reachability round (``_chain_reach``) reads its chain the same way:
  one ``chain.attractor`` of the targets over the policy's edges and one
  solve of ``chain.hitting_rows``.  None runs when the targets are no
  node or every node (``_reach``).
* A two-player scan bounds a switch candidate that switches node u by the
  sign of c(u) - vec(u), c the limit values of the chain it makes with the
  held reply's witness and vec the scan's vector (``_switch_sign``): the
  closed classes u reaches (``chain.bottom_sccs`` rooted at u, on the
  chain ``Index.steps`` gives), their memoized means judged by
  ``chain.class_wins`` (``chain.node_potential`` on that chain's weights
  at mean 0, its verdict memoized with the class), and one step from u
  when they are mixed.  It analyses only the nodes u reaches, and solves
  nothing but the stationary systems of classes not yet memoized.

Inside one ``ssg.solve_limit_ssg`` call, ``COMPONENT_MEMO`` holds a dict
that memoizes closed classes of induced chains (``_closed_classes``):
each class's mean and unshifted bias h from one transposed solve (none
for a cycle, evaluated in closed form), its potential verdict once
tested, and its canonical bias once a chain with several closed classes
reads it.  It keeps no factorization: a one-class evaluation reads h
itself (``_PolicyEvaluation``), and only a several-class bias read
factors the class's stationary system again, once per class.  The key is
a tuple of ints over the members in game order: a rand node with several
edges by its node, a one-edge step by (node, target, weight).  It is exact
because every index of one solve numbers its nodes as the game's index
does (``Index.fixed`` keeps the numbering and nothing renumbers), so a
rand node keeps its edges and a key holds every probability and weight
the analysis reads.  A MEC's gain policy iteration may run again, but its
rounds find their classes there.  Outside a solve the variable is None and
nothing is cached.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import chain as chain_mod
from . import linsolve
from .model import OWNERS, Objective, PureMemorylessStrategy, SolveResult, Ssg, require_limit

INFINITE_CREDIT = math.inf

COMPONENT_MEMO: ContextVar[dict | None] = ContextVar("COMPONENT_MEMO", default=None)


def _require_one_player(game) -> None:
    if len(game.index.choosers) > 1:
        raise ValueError("one-player model expected, both players still have choices")


def _player_label(owners, direction: str) -> str:
    owners = {owner for owner in owners if owner != "rand"}
    return owners.pop() if len(owners) == 1 else direction


def _strategy(index, policy: dict[int, int], direction: str) -> PureMemorylessStrategy:
    """A policy by node as a strategy keyed by state id."""
    ids = index.ids
    return PureMemorylessStrategy(_player_label(index.owner, direction), {ids[v]: k for v, k in policy.items()})


def _one_player_result(index, values: list, policy: dict[int, int], direction: str) -> SolveResult:
    """Values by node and a policy by node as a ``SolveResult`` keyed by
    state id, the witness filed under its player."""
    witness = _strategy(index, policy, direction)
    return SolveResult.from_values(
        dict(zip(index.ids, values)),
        witness_max=witness if witness.player == "max" else None,
        witness_min=witness if witness.player == "min" else None,
    )


def _better(direction: str, a, b) -> bool:
    return a > b if direction == "max" else a < b


def _extreme(direction: str, values):
    return max(values) if direction == "max" else min(values)


# ---------------------------------------------------------------------------
# Reachability


def solve_reachability(game: Ssg, targets, direction: str = "max") -> SolveResult:
    """Optimal hitting probabilities by policy iteration with exact evaluation
    (``_reach`` on the game's index)."""
    if direction not in ("max", "min"):
        raise ValueError("direction must be max or min")
    _require_one_player(game)
    targets = frozenset(targets)
    missing = targets - set(game.ids())
    if missing:
        raise ValueError(f"unknown target states {sorted(missing)}")
    index = game.index
    values, policy = _reach(index, frozenset(index.pos[sid] for sid in targets), direction)
    return _one_player_result(index, values, policy, direction)


def _reach(index, targets: frozenset[int], direction: str):
    """Optimal hitting probabilities of the nodes ``targets`` on a
    one-player index, by node, and an optimal policy (node -> edge) of its
    controlled nodes in node order.

    Each candidate policy is evaluated exactly (``_chain_reach``), a switch
    is accepted only on strict improvement, and the loop stops at a policy
    with no improving switch.  It starts from every first edge; minimising,
    a node that can avoid the targets starts on an edge that keeps
    avoiding them.  With no target, or every node a target, that start is
    every first edge, every value is 0 or 1, and the constant vector
    admits no strictly better switch, so the start comes back with no
    round run.
    """
    succ = index.succ
    controlled = [v for v, owner in enumerate(index.owner) if owner != "rand"]
    choice = [0] * len(succ)
    if not targets or len(targets) == len(succ):
        return [Fraction(1 if targets else 0)] * len(succ), dict.fromkeys(controlled, 0)
    if direction == "min":
        reaching, _ = chain_mod.attractor(index, targets, ("rand",))
        for v in controlled:
            if not reaching[v]:
                choice[v] = next(k for k, t in enumerate(succ[v]) if not reaching[t])

    limit = 1
    for v in controlled:
        limit *= len(succ[v])
    allowed = [range(len(edges)) for edges in succ]
    for _ in range(limit + 1):
        for v in controlled:
            allowed[v] = (choice[v],)
        values = _chain_reach(index, choice, targets, allowed)
        switched = False
        for v in controlled:
            if v in targets:
                continue
            qs = [values[t] for t in succ[v]]
            best = _extreme(direction, qs)
            if _better(direction, best, values[v]):
                choice[v] = qs.index(best)
                switched = True
        if not switched:
            return values, {v: choice[v] for v in controlled}
    raise AssertionError("policy iteration failed to terminate")


def _chain_reach(index, choice: list[int], targets: frozenset[int], allowed) -> list[Fraction]:
    """Exact hitting probabilities of ``targets`` in the chain where each
    controlled node v takes its edge ``choice[v]`` (``Index.steps``), as
    ``certify.reach_probabilities`` gives them on that chain: 1 on the
    targets, 0 outside their attractor over the chain's edges
    (``chain.attractor``), and one linear solve of ``chain.hitting_rows``,
    rows in node order, on the rest.  ``allowed`` holds those edges by node,
    ``(choice[v],)`` at a controlled node and all of them at a rand node;
    ``_reach`` builds it once and resets its controlled entries each round."""
    owner = index.owner
    succ, prob, _, _ = index.steps({v: k for v, k in enumerate(choice) if owner[v] != "rand"})
    reached, _ = chain_mod.attractor(index, targets, OWNERS, allowed=allowed)
    values = [Fraction(0)] * len(succ)
    for t in targets:
        values[t] = Fraction(1)
    interior = [v for v, hit in enumerate(reached) if hit and v not in targets]
    if interior:
        rows, rhs = chain_mod.hitting_rows(interior, succ, prob, targets)
        for v, x in zip(interior, linsolve.factor(rows).solve(rhs)):
            values[v] = x
    return values


def _switch_sign(index, choice: list[int], u: int, kind: str, vec) -> int:
    """The sign of c(u) - vec(u), for c the values of the limit objective
    ``kind`` in the chain C where each controlled node v of ``index`` takes
    its edge ``choice[v]``, and ``vec`` the values of a chain H that takes
    C's step at every node but ``u``: the sign of c - vec wherever it is
    not 0.

    Each value is the probability of hitting a winning closed class, so c
    is harmonic in C and vec in H, and d = c - vec is harmonic in C at every
    node but u.  A node that cannot reach u in C reaches the same nodes in
    H, so d = 0 there, and the bounded martingale d(X_t), stopped at the
    first visit to u, gives d(w) = P_w(C reaches u) d(u) at every node w.

    c(u) reads only the closed classes u reaches in C (``_closed_classes``
    rooted at u, memoized as a best response's are), judged by
    ``chain.class_wins``, which runs ``chain.node_potential`` only on a
    mean-0 class under the liminf = -inf and liminf > -inf objectives, and
    once per memoized class (``_ClosedClass.potential``).  c(u) is 1 if
    they all win and 0 if they all lose.  Otherwise u is transient, its
    return probability r is below 1, and the step from u gives
    d(u) = q + r d(u) for q = sum_t P_C(u, t) vec(t) - vec(u), so
    d(u) has the sign of q.  The chain is ``Index.steps`` of the choice,
    and a class's potential test reads its weights there.  Nothing is
    solved but the stationary systems of classes not yet memoized, and
    only the nodes u reaches are analysed.
    """
    owner = index.owner
    succ, prob, weights, rewards = index.steps({v: k for v, k in enumerate(choice) if owner[v] != "rand"})

    def has_potential(members, closed):
        if closed.potential is None:
            closed.potential = chain_mod.node_potential(members, succ, weights) is not None
        return closed.potential

    wins = {
        chain_mod.class_wins(kind, closed.mean, lambda: has_potential(members, closed))
        for members, closed in zip(*_closed_classes(succ, prob, rewards, [u]))
    }
    if len(wins) == 1:
        return chain_mod.sign(wins.pop() - vec[u])
    return chain_mod.sign(sum(p * vec[t] for t, p in zip(succ[u], prob[u])) - vec[u])


# ---------------------------------------------------------------------------
# Almost-sure reachability


@dataclass(frozen=True)
class AsrResult:
    """Keyed by node of the index."""

    winning: frozenset[int]
    max_choice: dict[int, int]


def almost_sure_reach(index, targets) -> AsrResult:
    """The nodes of a one-player index from which the controlled nodes
    reach the nodes ``targets`` almost surely, and their choices there.

    Like ``_mecs`` it reads only rand vs controlled: every controlled node
    works toward the targets.  Repeatedly delete the region from which the
    targets cannot be reached with positive probability (outside their
    ``chain.attractor`` within the surviving region), together with its
    attractor, until stable: a rand node joins it by one edge into it, a
    controlled node once all of its edges into the surviving region (the
    ``allowed`` ones) enter it.  Target nodes are treated as absorbing:
    they are not ``within`` that attractor.  The choices follow the edges
    that pulled the controlled nodes into the final positive attractor.  A
    dead end that is not a target loses.  With no target nothing is
    reached, and the empty set comes back with no attractor run.
    """
    if not targets:
        return AsrResult(frozenset(), {})
    n = len(index.succ)
    target = [False] * n
    for v in targets:
        target[v] = True
    alive = [True] * n
    while True:
        seeds = [v for v in range(n) if target[v] and alive[v]]
        pos, choice = chain_mod.attractor(index, seeds, OWNERS, within=alive)
        blocked = [v for v in range(n) if alive[v] and not pos[v]]
        if not blocked:
            return AsrResult(frozenset(v for v in range(n) if alive[v]), choice)
        within = [live and not hit for live, hit in zip(alive, target)]
        into_alive = [[k for k, t in enumerate(targets) if alive[t]] for targets in index.succ]
        doomed, _ = chain_mod.attractor(index, blocked, ("rand",), within=within, allowed=into_alive)
        alive = [live and not gone for live, gone in zip(alive, doomed)]


# ---------------------------------------------------------------------------
# Expected mean payoff (gain/bias policy iteration)


class _ClosedClass:
    """A closed class of an induced chain: its mean payoff ``mean``, its
    unshifted bias ``h`` (a list in member order, 0 at the first member)
    and ``potential``, whether it has a potential
    (``chain.node_potential``), None until ``_switch_sign`` first tests it.
    The memo key holds every target and weight that test reads.  The
    canonical bias is computed by ``bias`` on its first call and kept; no
    factorization is.

    ``members`` are nodes of the game index in game order; node v steps to
    ``succ[v][k]`` with probability ``prob[v][k]`` and has the per-visit
    reward ``rewards[v]``.  The unichain evaluation g + h(s) - sum_t P(s,
    t) h(t) = r(s) with h(first member) = 0 is M x = r for x = (g, h
    without its first entry) and M = [1 | (I - P) without column 0].  M^T
    is the stationary system S of ``chain.stationary_system``, so one
    ``solve_transposed`` on its factorization gives the mean g and h.

    A class whose every member has one step is a cycle, and is evaluated
    in closed form with nothing factored: its law is uniform, so g is the
    plain average of the rewards, and the evaluation at v reads h(t) = h(v)
    + g - r(v) for the step v -> t, so h follows the cycle from the first
    member.
    """

    def __init__(self, members, succ, prob, rewards):
        self.potential: bool | None = None
        self._bias = None
        if all(len(succ[v]) == 1 for v in members):
            self.mean = Fraction(sum(rewards[v] for v in members), len(members))
            h = {members[0]: Fraction(0)}
            v = members[0]
            while (t := succ[v][0]) not in h:
                h[t] = h[v] + self.mean - rewards[v]
                v = t
            self.h = [h[v] for v in members]
            return
        solution = chain_mod.stationary_system(members, succ, prob).solve_transposed([rewards[v] for v in members])
        self.mean, self.h = solution[0], [Fraction(0)] + solution[1:]

    def bias(self, members, succ, prob) -> list[Fraction]:
        """The canonical bias (stationary average 0, in member order) of the
        class ``members`` of the chain ``succ``, ``prob`` that it was built
        from, computed on the first call and kept: h shifted by its
        stationary average, the plain one for a cycle, else the law's, S x =
        e_0 solved on a fresh factorization of S."""
        if self._bias is None:
            if all(len(succ[v]) == 1 for v in members):
                shift = Fraction(sum(self.h), len(self.h))
            else:
                law = chain_mod.stationary_system(members, succ, prob).solve([1] + [0] * (len(self.h) - 1))
                shift = sum((w * v for w, v in zip(law, self.h)), Fraction(0))
            self._bias = [v - shift for v in self.h]
        return self._bias


def _closed_classes(succ, prob, rewards, roots):
    """The closed classes that the nodes ``roots`` reach in the chain whose
    node v has the successors ``succ[v]``, probabilities ``prob[v]`` and
    per-visit reward ``rewards[v]``: its ``chain.bottom_sccs`` (node lists),
    and each one's ``_ClosedClass``, looked up in and stored to
    ``COMPONENT_MEMO`` when a solve has set it.  The key holds ints only:
    per member v, v itself if it steps to several nodes (a rand node, whose
    edges every index of the solve keeps), else (v, target, weight); callers
    must not mutate what comes back."""
    memo = COMPONENT_MEMO.get()
    if memo is None:
        memo = {}
    bottoms = chain_mod.bottom_sccs(succ, roots)
    classes = []
    for members in bottoms:
        key = tuple(v if len(succ[v]) > 1 else (v, succ[v][0], rewards[v]) for v in members)
        closed = memo.get(key)
        if closed is None:
            closed = memo[key] = _ClosedClass(members, succ, prob, rewards)
        classes.append(closed)
    return bottoms, classes


class _PolicyEvaluation:
    """The gain and a bias, by node, of the policy where each controlled
    node v of ``members`` (default: every node) takes its edge
    ``choice[v]`` (multichain evaluation), computed only as far as they
    are read, each at most once; None off ``members``, which the policy
    must keep closed.

    The induced chain is ``Index.steps`` of the choice on ``members``, int
    lists by node; no game or index is built.  Its closed
    classes, ``members`` (node lists), are its ``chain.bottom_sccs``.
    ``means`` (the closed classes' mean payoffs) come first, one transposed
    solve per class that is not a cycle (``_ClosedClass``).  ``gain`` adds
    the transient states: one factorization of I - P_TT
    (``chain.hitting_rows`` with no targets), kept.  ``bias`` adds each
    class's values and solves the transient bias with that factorization.
    A closed class is memoized in ``COMPONENT_MEMO``, keyed by node
    (``_closed_classes``).

    With several closed classes the class values are the canonical bias
    (``_ClosedClass.bias``, one law solve per class that is not a cycle).
    With one, they are the class's h, and the result is the canonical bias
    b plus one constant c at every node, so no law is solved.  On the
    class, b = h - c for c = pi.h, pi the class's stationary law.  On the
    transient nodes, b solves x = r - g + P_TT x + P_TC b_C, and since each
    row of P sums to 1, x + c solves the same system with h_C = b_C + c in
    place of b_C, which is what the extension solves, so the transient
    values differ by c too.  Every reader compares the bias at two nodes of
    the chain: Howard's bias test ``w + b(t)`` against ``g(v) + b(v)``
    among gain-tied edges (``_policy_iteration``), and the tight test ``w +
    b(t) = b(v)`` (``_tight_part``).  A common constant cancels in both, so
    every decision and witness is the canonical bias's.  With several
    classes an edge may join classes whose constants differ, so each class
    is shifted by its own.
    """

    def __init__(self, index, choice: list[int], members=None):
        members = range(len(choice)) if members is None else members
        owner = index.owner
        self._succ, self._prob, _, self._rewards = index.steps({v: choice[v] for v in members if owner[v] != "rand"})
        self.members, self._classes = _closed_classes(self._succ, self._prob, self._rewards, members)
        self.means = [closed.mean for closed in self._classes]
        closed = {v for nodes in self.members for v in nodes}
        self._transient = [v for v in members if v not in closed]

    @cached_property
    def _system(self) -> linsolve.Factorization:
        rows, _ = chain_mod.hitting_rows(self._transient, self._succ, self._prob, ())
        return linsolve.factor(rows)

    def _extend(self, values: list, rhs) -> list:
        """``values`` on the closed classes (None elsewhere) extended to the
        transient states: x = rhs + P_TC values, solved against I - P_TT."""
        if self._transient:
            succ, prob = self._succ, self._prob
            exits = [
                sum((p * values[t] for t, p in zip(succ[v], prob[v]) if values[t] is not None), r)
                for v, r in zip(self._transient, rhs)
            ]
            for v, x in zip(self._transient, self._system.solve(exits)):
                values[v] = x
        return values

    @cached_property
    def gain(self) -> list[Fraction]:
        gain = [None] * len(self._succ)
        for members, closed in zip(self.members, self._classes):
            for v in members:
                gain[v] = closed.mean
        return self._extend(gain, [Fraction(0)] * len(self._transient))

    @cached_property
    def bias(self) -> list[Fraction]:
        bias = [None] * len(self._succ)
        one = len(self._classes) == 1
        for members, closed in zip(self.members, self._classes):
            values = closed.h if one else closed.bias(members, self._succ, self._prob)
            for v, h in zip(members, values):
                bias[v] = h
        gain = self.gain
        return self._extend(bias, [self._rewards[v] - gain[v] for v in self._transient])


def _policy_iteration(index, direction: str, stop=None, members=None, allowed=None):
    """The last ``_PolicyEvaluation`` and the choice list (node -> edge, 0
    at a rand node and off ``members``) of Howard's multichain policy
    iteration (Puterman 1994, section 9.2) from the greedy one-step policy,
    on the nodes ``members`` (in node order) of ``index``, each using only
    its edges ``allowed[v]`` (in edge order), such as a MEC's, or on the
    whole index.

    The loop starts each controlled node on its first allowed edge of
    extreme step weight (the largest when maximising, the smallest when
    minimising), so a node whose edges all weigh the same starts on its
    first.  Each round switches to an edge of strictly better gain, and
    only when none exists to a gain-tied edge of strictly better reward
    plus bias (``_PolicyEvaluation.bias``, the canonical one up to a
    constant that cancels in the test).  Switching is conservative (the
    current edge stays unless a strictly better one exists), so no policy
    repeats; a repeat raises AssertionError.  Termination (finitely many policies, none
    repeated) and optimality at a policy with no improving switch hold from
    any start, so the start decides only how many rounds run and which
    optimal or winning policy comes back.  The loop returns at the first
    policy with no improving switch, or earlier at the first evaluated
    policy whose closed-class means satisfy ``stop``.  A round reads the
    gain only when it does not stop, and the bias only when no gain switch
    exists.  The rounds read the columns of ``index``, whose numbering
    they keep.
    """
    succ, weight = index.succ, index.weight
    if members is None:
        members, allowed = range(len(succ)), [range(len(targets)) for targets in succ]
    controlled = [v for v in members if index.owner[v] != "rand"]
    choice = [0] * len(succ)
    for v in controlled:
        weights = [weight[v][k] for k in allowed[v]]
        choice[v] = allowed[v][weights.index(_extreme(direction, weights))]
    seen = set()
    while True:
        key = tuple(map(choice.__getitem__, controlled))
        if key in seen:
            raise AssertionError("mean-payoff policy iteration revisited a policy")
        seen.add(key)
        evaluation = _PolicyEvaluation(index, choice, members)
        if stop is not None and stop(evaluation.means):
            return evaluation, choice
        gain = evaluation.gain
        switched = False
        for v in controlled:
            qs_gain = [gain[succ[v][k]] for k in allowed[v]]
            best_gain = _extreme(direction, qs_gain)
            if _better(direction, best_gain, gain[v]):
                choice[v] = allowed[v][qs_gain.index(best_gain)]
                switched = True
        if switched:
            continue
        bias = evaluation.bias
        for v in controlled:
            qs_bias = {k: weight[v][k] + bias[t] for k in allowed[v] if gain[t := succ[v][k]] == gain[v]}
            best = _extreme(direction, qs_bias.values())
            if _better(direction, best, gain[v] + bias[v]):
                choice[v] = next(k for k, q in qs_bias.items() if q == best)
                switched = True
        if not switched:
            return evaluation, choice


# ---------------------------------------------------------------------------
# Maximal end components


@dataclass(frozen=True)
class Mec:
    """A maximal end component: its members and, per member, the edges
    that stay in it.  State ids from ``mec_decompose``, nodes inside the
    solve."""

    members: frozenset
    allowed: dict


def mec_decompose(game, within=None) -> list[Mec]:
    """Maximal end components of the game, or of the sub-MDP that the start
    set ``within`` induces (``_mecs`` on the game's index).  An id of
    ``within`` that is no state of the game raises ValueError."""
    _require_one_player(game)
    index = game.index
    ids = index.ids
    nodes = None
    if within is not None:
        within = frozenset(within)
        missing = within - index.pos.keys()
        if missing:
            raise ValueError(f"unknown states {sorted(missing)}")
        nodes = [v for v, sid in enumerate(ids) if sid in within]
    return [
        Mec(frozenset(ids[v] for v in mec.members), {ids[v]: edges for v, edges in mec.allowed.items()})
        for mec in _mecs(index, nodes)
    ]


def _mecs(index, within=None, allowed=None) -> list[Mec]:
    """The maximal end components on the nodes ``within`` (default: all)
    of a one-player index, counting only the edges ``allowed[v]`` of each
    node (default: all), sorted by their least member id.

    Every candidate is strongly connected: ``split`` cuts a node set into
    its SCCs over the allowed edges that stay in it (one ``chain.tarjan``)
    and keeps those that can hold an end component, with several nodes or
    one node with an allowed edge to itself.  The queue starts with the
    split of ``within``.  A candidate with no allowed edge leaving it is a
    MEC.  Otherwise it loses one ``chain.attractor`` of the targets of
    those edges, inside it over the allowed edges.  A candidate that loses
    no node is a MEC, and the survivors of one that loses some are split
    again.  Only rand vs controlled is read.  A MEC's allowed edges are, in
    edge order, the allowed edges of a member that stay in it, all of them
    at a rand member.

    Each skip is sound.  A one-node SCC without an allowed self-loop has
    no allowed edge that stays in it, so it is in no end component; the
    attractor of its exits would remove it too, a rand node by any edge
    that leaves and a controlled node once none of its edges stays.  A
    candidate that loses no node is an end component: each rand member's
    edges all stay (one that left would pull it out), each controlled
    member has an edge that stays, and the set is strongly connected over
    the edges that stay, so ``tarjan`` would find it as one component
    again.
    """
    succ, ids = index.succ, index.ids
    n = len(succ)
    if allowed is None:
        allowed = [range(len(targets)) for targets in succ]

    def split(nodes):
        inside = [False] * n
        for v in nodes:
            inside[v] = True
        inner = [()] * n
        for v in nodes:
            inner[v] = [t for k in allowed[v] if inside[t := succ[v][k]]]
        return [c for c in chain_mod.tarjan(inner, nodes) if len(c) > 1 or c[0] in inner[c[0]]]

    mecs = []
    queue = split(range(n) if within is None else within)
    while queue:
        candidate = queue.pop()
        inside = [False] * n
        for v in candidate:
            inside[v] = True
        exits = [t for v in candidate for k in allowed[v] if not inside[t := succ[v][k]]]
        if exits:
            gone, _ = chain_mod.attractor(index, exits, ("rand",), within=inside, allowed=allowed)
            survivors = [v for v in candidate if not gone[v]]
            if len(survivors) < len(candidate):
                queue.extend(split(survivors))
                continue
        members = sorted(candidate)
        mecs.append(Mec(frozenset(members), {v: tuple(k for k in allowed[v] if inside[succ[v][k]]) for v in members}))
    mecs.sort(key=lambda mec: min(ids[v] for v in mec.members))
    return mecs


# ---------------------------------------------------------------------------
# Energy games: minimal credit for keeping prefix sums nonnegative


def energy_min_credit(game, keeper: str = "max") -> dict[str, int | float]:
    """Minimal initial credit per state in the nonnegative-energy game.

    ``keeper`` must keep every prefix sum of step weights >= 0; the other
    player and all rand states are adversarial.  Standard lifting fixpoint
    (Brim, Chaloupka, Doyen, Gentilini, Raskin 2011) run as a worklist.  A
    state's lift is the least (keeper) or greatest (adversary) demand
    max(0, c(t) - w) of its edges, so a rise of c(t) can lift a
    predecessor only through an edge whose new demand c(t) - w exceeds the
    predecessor's credit; only such predecessors are queued again.  Every
    state starts queued successors first (``Index.sinks_last``), but one
    whose demand from all-zero credits is not positive is idle, skipped
    when popped, until such a rise reaches it; a game of idle states only
    builds neither the order nor the predecessors.  Lifting is monotone,
    so this reaches the least fixpoint.  The lifts read the successor, weight and predecessor lists
    of the game's ``index``, the predecessors only once a state rises.
    Weights in {-1,0,+1} cap finite credits at |V|, larger demands are
    infinite.

    A climb ends at the first gap in the finite credits, far below the
    cap.  Lemma: freeze some states at credits <= θ or at infinity and
    take the least credits c of the others; their finite values, if any,
    are θ+1, ..., m with none missing.  Were some k in θ+1..m missing,
    lowering every finite c(u) > k by one would lower such a state's demand
    through each edge by one or keep it <= k, so it would give a smaller
    pre-fixed point.  Soundness: freeze the states whose current credit
    is <= θ or infinite at that credit.  Every other state rose by plain
    lifts, each the lifting operator applied to credits at or below c, so
    the current credits stay at or below c, and c stays at or below the
    true credits.
    So if no state holds θ+1 while some finite credits exceed it, those
    states cannot make up θ+1 in c: they are all infinite.  A lift that
    empties its level therefore sends itself and every state above that
    level to infinity.  Any other lift rises to at most the largest
    finite credit plus one, so the finite credits always fill 0..top with
    every level held, and top < |V|: a demand above the cap is infinite.
    One test per lift, whether its old level is empty, replaces counting:
    a bound from the number of states above θ would have to count every
    one of them, and could be afforded only at a new largest credit.

    Cost: each credit rises by integer steps to at most |V| before it
    turns infinite, and a rise reads the edges into its state, so those
    reads number O(|V|·|E|).  A pop reads the popped state's own edges,
    and a state is queued at most once per rise of a successor, so the
    worst case is O(|V|·Σ deg(v)²), which is O(|V|·|E|) at bounded
    out-degree.  The states at each finite credit are kept as sets, so a
    lift does O(1) more than its edges, and a state is swept to infinity
    once, so the rule adds O(lifts + |V| + |E|) in all.  Successors first,
    an acyclic stretch pops and lifts each state once in any listing: a
    4,000-state staircase (v_k -> v_{k-1} of weight -1) lifts in about
    10 ms listed either way, where index order took 9.2 s listed bottom
    first (2-vCPU Xeon, Python 3.11).
    Only the termination-value-0 question (``termination.decide_term_zero``)
    needs it; the limit objectives are decided from end components.
    """
    if keeper not in ("max", "min"):
        raise ValueError("keeper must be max or min")
    index = game.index
    ids, succ, weight = index.ids, index.succ, index.weight
    keeps = [owner == keeper for owner in index.owner]
    cutoff = len(ids)
    credit: list[int | float] = [0] * cutoff
    level = [set(range(cutoff))]  # the states at each finite credit 0..top
    # Idle: no demand from all-zero credits and no rise through an edge yet.
    idle = [(max(ws) if keeps[i] else min(ws)) >= 0 for i, ws in enumerate(weight)]
    queue = [] if all(idle) else list(index.sinks_last)
    queued = [True] * cutoff
    while queue:
        i = queue.pop()
        queued[i] = False
        if idle[i]:
            continue
        # Credits are >= 0, so the demand's floor at 0 never lifts a state.
        needs = [credit[t] - w for t, w in zip(succ[i], weight[i])]
        need = min(needs) if keeps[i] else max(needs)
        if need <= credit[i]:
            continue
        old = credit[i]
        level[old].remove(i)
        if need <= cutoff and level[old]:
            if need == len(level):
                level.append(set())
            level[need].add(i)
            risen = [i]
        else:
            # Infinite, or the lift empties its level: every credit above
            # that level is infinite.
            need, risen = INFINITE_CREDIT, [i]
            if not level[old]:
                for above in level[old + 1 :]:
                    risen += above
                del level[old:]
        preds = index.preds  # built at the first rise: an all-idle game needs none
        for u in risen:
            credit[u] = need
            for pred, k in preds[u]:
                if need - weight[pred][k] > credit[pred]:
                    idle[pred] = False
                    if not queued[pred]:
                        queued[pred] = True
                        queue.append(pred)
    return dict(zip(ids, credit))


# ---------------------------------------------------------------------------
# Qualitative and quantitative limit objectives


def _mec_gain(index, mec: Mec, rule):
    """Gain policy iteration on the MEC's members and allowed edges inside
    ``index`` in the rule's direction: a gain, the choice (controlled
    member -> edge) and the bias (a list by node, None off the MEC).

    It stops at the first policy whose closed classes all have a mean of
    winning sign, and returns the least favourable of those means and no
    bias.  That test reads no transient gain, and it is exact: a transient
    state's gain is a convex combination, with positive weights, of the
    means of the classes it reaches, and each set of winning signs is an
    interval, so every state's gain wins exactly when every class mean
    does, and the least favourable gain is the extreme class mean.  Such a
    policy wins the whole MEC.  A MEC that no policy wins, a gain-0 one
    included, is solved to optimality: its gain is constant and the bias
    is the optimiser's.
    """
    direction, winning_signs, _ = rule

    def wins(means):
        return all(chain_mod.sign(m) in winning_signs for m in means)

    members = sorted(mec.members)
    evaluation, choice = _policy_iteration(index, direction, wins, members, mec.allowed)
    edges = {v: choice[v] for v in members if index.owner[v] != "rand"}
    least = min if direction == "max" else max
    if wins(evaluation.means):
        return least(evaluation.means), edges, None
    values = {evaluation.gain[v] for v in members}
    if len(values) != 1:
        raise AssertionError("gain not constant on an end component")
    return least(values), edges, evaluation.bias


def _tight_part(index, mec: Mec, bias):
    """The allowed edges of the MEC's tight sub-MDP under the bias h (by
    node) of a gain-0 optimiser, and its noisy rand nodes.  h may be the
    canonical bias plus a constant (``_PolicyEvaluation.bias``), which
    cancels in every slack.

    The slack r(s,k) + h(target) - h(s) is >= 0 (min) or <= 0 (max) on every
    controlled edge and averages 0 at rand states.  The tight sub-MDP keeps
    every rand edge and the controlled edges of slack 0; a rand state with
    an edge of nonzero slack is noisy.
    """
    succ, weight = index.succ, index.weight
    allowed, noisy = {}, set()
    for v, edges in mec.allowed.items():
        zero = tuple(k for k in edges if weight[v][k] + bias[succ[v][k]] == bias[v])
        if index.owner[v] != "rand":
            allowed[v] = zero
        else:
            allowed[v] = edges
            if len(zero) < len(edges):
                noisy.add(v)
    return allowed, noisy


def _noisy_components(index, members, allowed, noisy):
    """The end components C of the min-gain tight sub-MDP (``members`` with
    the edges ``allowed``) that hold a noisy state, each with the choice of
    the positive attractor toward x = min(C & noisy) by state id
    (``chain.attractor`` within C over C's allowed edges): liminf = -inf
    almost surely on C.

    The attractor pulls in all of C, and C is closed under the choice, so x
    is reached almost surely and lies in a BSCC B.  B has mean 0: its
    controlled edges are tight and rand slacks average 0.  B has no
    potential: if phi were one, each slack in B would be g(t) - g(s) with g
    = phi + h, g would be harmonic on the irreducible chain B, hence
    constant, and x would have no edge of nonzero slack.  A mean-0 BSCC
    without a potential drives liminf to -inf.  Conversely every policy
    BSCC of mean 0 uses only tight controlled edges, and one with no noisy
    state has the potential -h, so these components are all the gain-0 MEC
    offers; with a potential on the MEC no tight component holds a noisy
    state.
    """
    core, choice = set(), {}
    for component in _mecs(index, members, allowed):
        x = min(component.members & noisy, key=index.ids.__getitem__, default=None)
        if x is not None:
            core |= component.members
            inside = [v in component.members for v in range(len(index.succ))]
            choice.update(chain_mod.attractor(index, (x,), OWNERS, within=inside, allowed=component.allowed)[1])
    return core, choice


def _quiet_components(index, members, allowed, noisy):
    """The end components of the max-gain tight sub-MDP (``members`` with
    the edges ``allowed``) without noisy states, where each controlled
    state takes its first edge inside its component: liminf > -inf almost
    surely there.

    Every slack inside is 0, so the prefix sum from s to t is h(s) - h(t),
    which is bounded.  It is all the gain-0 MEC offers: let B be a policy
    BSCC in the MEC with liminf > -inf almost surely.  Its mean is <= 0 (the
    max gain) and not < 0, so 0.  Stationary weights are positive,
    controlled slacks <= 0 and rand slacks average 0, and the weighted slack
    sum is the mean, so B uses only tight controlled edges.  B has a
    potential phi (a mean-0 BSCC with liminf > -inf), so each slack in B is
    g(t) - g(s) with g = phi + h; g is harmonic on the irreducible chain B,
    hence constant, and no rand state of B is noisy.
    """
    core, choice = set(), {}
    for component in _mecs(index, members - noisy, allowed):
        core |= component.members
        choice.update({v: edges[0] for v, edges in component.allowed.items() if index.owner[v] != "rand"})
    return core, choice


# Per limit objective (``chain.WINNING_SIGNS``): the direction of the MEC
# gain solve, the one that favours a winning sign, the gain signs that win
# the whole MEC, and the part a gain-0 MEC wins (None: nothing), the end
# components without a potential (noisy) or with one (quiet).
_MEC_RULES = {
    kind: ("max" if 1 in signs else "min", signs, {None: None, False: _noisy_components, True: _quiet_components}[zero])
    for kind, (signs, zero) in chain_mod.WINNING_SIGNS.items()
}


def _mec_part(index, mec: Mec, rule):
    """The MEC nodes where Max wins by staying in the MEC, with a choice
    (node -> edge) that does so: the whole MEC with the choice of a policy
    whose gain wins at every state, the rule's tight part at gain 0, and
    nothing otherwise."""
    _, winning_signs, zero_part = rule
    gain, choice, bias = _mec_gain(index, mec, rule)
    if chain_mod.sign(gain) in winning_signs:
        return frozenset(mec.members), choice
    if gain != 0 or zero_part is None:
        return frozenset(), {}
    allowed, noisy = _tight_part(index, mec, bias)
    members, choice = zero_part(index, mec.members, allowed, noisy)
    return frozenset(members), choice


def _value_one_region(index, objective: Objective):
    """Maximising value-1 set W of a one-player index, by node, plus a
    witness choice map (node -> edge) defined on W.

    Every controlled node is handed to Max.  Each MEC yields, by
    ``_mec_part`` and the objective's row of ``_MEC_RULES``, the nodes
    where Max wins by staying in it and a choice that stays; W is
    almost-sure reach of them, and contains them.
    """
    rule = _MEC_RULES[objective.kind]
    cores: dict[int, int] = {}
    targets: set[int] = set()
    for mec in _mecs(index):
        members, choice = _mec_part(index, mec, rule)
        targets |= members
        cores.update(choice)
    asr = almost_sure_reach(index, targets)
    return asr.winning, {**asr.max_choice, **cores}


def quantitative_limit(game, objective: Objective, direction: str = "max") -> SolveResult:
    """Exact optimal values of a one-player game (``limit_on_index`` on its
    index), keyed by state id.  The witness is filed under the owner of the
    controlled states, or under Max when there are none."""
    if direction not in ("max", "min"):
        raise ValueError("direction must be max or min")
    _require_one_player(game)
    return _one_player_result(game.index, *limit_on_index(game.index, objective, direction), "max")


def limit_on_index(index, objective: Objective, direction: str = "max"):
    """Exact optimal values on a one-player index, such as the residual
    ``Index.fixed`` leaves, in node form: the values by node and an optimal
    policy (node -> edge) of exactly the controlled nodes.  Reachability of
    the value-1 region (max form), complemented for the minimising
    direction."""
    require_limit(objective)
    if direction == "min":
        values, policy = limit_on_index(index, objective.complement(), "max")
        return [1 - v for v in values], policy

    winning, region_choice = _value_one_region(index, objective)
    values, policy = _reach(index, winning, "max")
    policy.update(region_choice)
    return values, policy
