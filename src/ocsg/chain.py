"""Int kernels on graphs and Markov chains, one per question, shared by
the solvers.

Each reads int nodes 0..n-1 with successor lists, and for a chain their
probabilities and weights, as a ``model.Index`` holds them or as
``Index.steps`` gives them for a policy's chain (the one statement of a
fixed node's step), so none builds a ``State``: the SCC kernel
(``tarjan``) and a chain's closed classes (``bottom_sccs``), the attractor
(``attractor``, grown only on the nodes ``within`` over the edges
``allowed``), the factorization of a closed class's stationary system
(``stationary_system``, built once per class for its mean and h, and again
only for the law when several classes share a chain), the potential test
(``node_potential``), the hitting-probability rows (``hitting_rows``), and
the winning mean signs of each limit objective with the mean-0 potential
rule (``WINNING_SIGNS``, read by ``class_wins``).

The weight of a step u -> v is the one in ``model.Index.weight``: the edge
reward, the counter delta, or the reward r(v) of the state it arrives at,
so cycle sums agree with the run prefix sums in every flavour.
"""

from __future__ import annotations

from fractions import Fraction

from . import linsolve

_ONE = Fraction(1)


def bottom_sccs(succ, roots) -> list[list[int]]:
    """The bottom SCCs that the nodes ``roots`` reach in the graph on nodes
    0..len(succ)-1 with successor lists ``succ``, in ``tarjan``'s discovery
    order from ``roots``, each in node order.  Only the nodes reached are
    read."""
    components = tarjan(succ, roots)
    component_of = [0] * len(succ)
    for c, comp in enumerate(components):
        for v in comp:
            component_of[v] = c
    return [
        sorted(comp) for c, comp in enumerate(components) if all(component_of[t] == c for v in comp for t in succ[v])
    ]


def tarjan(succ, roots) -> list[list[int]]:
    """Iterative Tarjan on nodes 0..len(succ)-1 with successor lists
    ``succ``, started from each of ``roots`` in order; the SCCs of the nodes
    reached, in discovery order.  The one SCC kernel, on lists indexed by
    node."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[node]:
                    low[node] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == node:
                            break
                    components.append(comp)
    return components


def attractor(graph, seeds, any_owners, within=None, allowed=None):
    """Least superset W of the nodes ``seeds`` closed under attraction, on
    an int graph: per node its owner, successors and (source, edge)
    predecessors, as a ``model.Index`` holds them.

    Two restrictions, both default everything: only nodes of ``within`` (a
    bool list) join W, and a node v counts only its edges ``allowed[v]``
    (edge indices).  A node whose owner is in ``any_owners`` joins once one
    of its counted edges enters W; any other node joins once all of them
    do, and it must have at least one.  Returns (W as a bool list, choice),
    where ``choice`` maps each controlled ``any_owners`` node outside
    ``seeds`` to the edge that pulled it in; that edge leads to a node that
    joined earlier.

    A worklist over the predecessors with a count of counted edges still
    outside W per node, taken on the node's first visit: O(|V| + |E|).
    Seeds are expanded last to first in node order, so ``choice`` depends
    on the graph alone.
    """
    owner, succ, preds = graph.owner, graph.succ, graph.preds
    n = len(succ)
    if within is None:
        within = [True] * n
    attracted = [False] * n
    queue = sorted(set(seeds))
    for v in queue:
        attracted[v] = True
    outside = [-1] * n
    choice: dict[int, int] = {}
    while queue:
        target = queue.pop()
        for v, k in preds[target]:
            if attracted[v] or not within[v] or allowed is not None and k not in allowed[v]:
                continue
            who = owner[v]
            if who in any_owners:
                if who != "rand":
                    choice[v] = k
            else:
                left = outside[v]
                if left < 0:
                    left = len(succ[v] if allowed is None else allowed[v])
                outside[v] = left = left - 1
                if left:
                    continue
            attracted[v] = True
            queue.append(v)
    return attracted, choice


def stationary_system(members, succ, prob) -> linsolve.Factorization:
    """The factorization of the stationary system S of the closed class
    ``members`` (nodes in game order) of the chain whose node v steps to
    ``succ[v][k]`` with probability ``prob[v][k]``.

    S holds the balance equations over the members, with the first
    replaced by normalisation: row 0 is all ones and row j > 0 has column i
    equal to [i == j] - P(i, j).  The stationary law solves S x = e_0, and
    S^T is the unichain evaluation matrix: ``mdp._ClosedClass`` solves it
    once for the mean and the unshifted bias and keeps no factorization,
    and factors S again only for a bias read on a chain with several
    closed classes, to solve the law.
    """
    pos = {v: i for i, v in enumerate(members)}
    n = len(members)
    rows = [dict.fromkeys(range(n), 1)] + [{i: 1} for i in range(1, n)]
    for i, v in enumerate(members):
        for t, p in zip(succ[v], prob[v]):
            j = pos[t]
            if j:
                rows[j][i] = rows[j].get(i, 0) - p
    return linsolve.factor(rows)


# Per limit objective: the mean signs with which a closed class wins, and
# at mean 0 whether it wins exactly when it has a potential (True), exactly
# when it has none (False), or by the sign alone (None).
WINNING_SIGNS = {
    "liminf-plus-inf": ((1,), None),
    "mean-gt": ((1,), None),
    "mean-leq": ((-1, 0), None),
    "liminf-lt-plus-inf": ((-1, 0), None),
    "liminf-minus-inf": ((-1,), False),
    "liminf-gt-minus-inf": ((1,), True),
}


def sign(x) -> int:
    return (x > 0) - (x < 0)


def class_wins(kind: str, mean, has_potential) -> bool:
    """Whether a closed class of mean ``mean`` wins the limit objective
    ``kind`` (``WINNING_SIGNS``); ``has_potential()`` is called only at
    mean 0 under the liminf = -inf and liminf > -inf objectives."""
    signs, with_potential = WINNING_SIGNS[kind]
    if mean == 0 and with_potential is not None:
        return has_potential() == with_potential
    return sign(mean) in signs


def node_potential(members, succ, weights) -> dict[int, int] | None:
    """Potential h with h(t) - h(v) = w on every edge v -> t of weight w,
    node v having successors ``succ[v]`` of weights ``weights[v]``.

    ``members`` must be strongly connected, and their edges must stay inside
    it (a closed class).  h is zero at ``members[0]``.  Returns None when
    some cycle has nonzero total weight.  Each edge is checked once, when
    its source is expanded.  The one potential test.
    """
    h = {members[0]: 0}
    queue = [members[0]]
    while queue:
        v = queue.pop()
        for t, w in zip(succ[v], weights[v]):
            level = h[v] + w
            if t not in h:
                h[t] = level
                queue.append(t)
            elif h[t] != level:
                return None
    return h


def hitting_rows(interior, succ, prob, targets) -> tuple[list[dict], list[Fraction]]:
    """The hitting-probability equations x(v) - sum_t P(v, t) x(t) =
    P(v, ``targets``) on the nodes ``interior`` (row and column i for
    ``interior[i]``), node v stepping to ``succ[v][k]`` with probability
    ``prob[v][k]``; a node neither a target nor interior has value 0.  The
    one builder of these rows: the caller picks the interior and solves."""
    pos = {v: i for i, v in enumerate(interior)}
    rows = [{i: _ONE} for i in range(len(interior))]
    rhs = [Fraction(0)] * len(interior)
    for i, v in enumerate(interior):
        row = rows[i]
        for t, p in zip(succ[v], prob[v]):
            if t in targets:
                rhs[i] += p
            elif t in pos:
                j = pos[t]
                row[j] = row[j] - p if j in row else -p
    return rows, rhs
