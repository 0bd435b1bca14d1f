"""Two-player solving of the limit objectives.

Values are pinned down through pure memoryless strategies for both
players: fixing one side yields a one-player residual index that the
``mdp`` module solves exactly, and by pure memoryless determinacy a pair
of mutually best responses is optimal and certifies the game value.
``solve_limit_ssg`` finds such a pair by alternating single-switch
improvement of Min and Max, each started from a best response to the other
(symmetric strategy improvement), and refuses with ``NoCertificate`` only
if a Min strategy comes back before a pair is found.  The loop runs only
when both players have a choice: where one has a single strategy
(``Index.choosers``), the other's best response to it is a certified
pair.  It runs on tuples by node of the game's index, with state ids only
in what it returns.  Min's descent tests the pair it holds before it scans
single switches, and within one solve no strategy is evaluated twice.  The
test needs Min's reply only if some reply could lower Max's: one rule,
``settled``, certifies Min's strategy on Max's reply alone when that reply
is worth 0 at every state, so a descent from an optimal strategy costs one
best response then and at most two otherwise.  A switch candidate gets its
best response only if the chain it makes against the held reply's witness
passes the vector test; that chain's values bound the best response, so
the skipped candidates are ones the test would reject.  The chain differs
from the held pair's at the switched state alone, so the test is one sign
there (``mdp._switch_sign``): no hitting or transient solve, and no state
that the switched one cannot reach is analysed.  Nothing here enumerates
strategies; exhaustive enumeration lives in ``oracle`` as ground truth.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from . import mdp
from .model import Objective, PureMemorylessStrategy, SolveResult, Ssg, check_valid, require_limit


class NoCertificate(RuntimeError):
    """A Min strategy came back before a mutual best response was found."""


@dataclass(frozen=True)
class SsgSolve:
    result: SolveResult
    method: str


def best_response(game: Ssg, fixed: PureMemorylessStrategy, objective: Objective) -> SolveResult:
    """Exact best response of the other player against ``fixed``, solved on
    the residual index that ``fixed`` leaves of the game's index
    (``model.Index.fixed``); no game is built.  The witness is filed under
    the opponent, or under Max when the opponent owns no state."""
    require_limit(objective)
    fixed.validate_for(game)
    index = game.index
    residual = index.fixed({index.pos[sid]: k for sid, k in fixed.choice.items()})
    direction = "max" if fixed.player == "min" else "min"
    return mdp._one_player_result(residual, *mdp.limit_on_index(residual, objective, direction), "max")


def _reply(index, objective, player, choice):
    """The opponent's exact best response to ``player``'s ``choice`` (edge
    by node, 0 off ``player``'s nodes): its values and its witness, tuples
    by node.  The witness is 0 off the opponent's nodes: they are the
    residual's controlled nodes, and ``mdp.limit_on_index`` returns a
    policy of exactly those."""
    owned = {v: k for v, (who, k) in enumerate(zip(index.owner, choice)) if who == player}
    values, policy = mdp.limit_on_index(index.fixed(owned), objective, "max" if player == "min" else "min")
    return tuple(values), tuple(policy.get(v, 0) for v in range(len(choice)))


def solve_limit_ssg(game: Ssg, objective: Objective) -> SsgSolve:
    """Exact values and mutually-best-response pure memoryless witnesses.

    Each round runs Min's descent, then Max's ascent started from Max's best
    response to Min's strategy, which stops once Max guarantees Min's
    vector.  Equal vectors certify the pair: Min's vector bounds the values
    from above and Max's guaranteed vector bounds them from below.
    Otherwise the next round starts Min's descent from Min's best response
    to Max's strategy.  The loop runs on the nodes of the game's index: a
    strategy is a tuple of edges by node, 0 off its player's nodes, and a
    best response (``_reply``) a tuple of values and a tuple of witness
    edges, both by node; state ids appear only in the returned pair.

    Min's descent stops early once its τ is certified: at its start and
    after each accepted switch it takes σ, Max's best response to τ, and
    checks whether Min's best response to σ has the same value vector.  A
    certified τ is optimal, so no single switch can lower its vector and a
    descent without the check would stop at the same τ; Max's ascent, which
    starts from σ, then meets its goal at its first best response.  Within
    one call each strategy is evaluated once: best responses are memoized
    by player and choice for the length of the call.  Every best response
    solves the residual index that ``model.Index.fixed`` derives from the
    game's index, compiled once, so no game is built per best response,
    per MEC or per round.  The call also sets ``mdp.COMPONENT_MEMO`` to a
    fresh dict and resets it on return or raise, so best responses to
    strategies that share a closed class of an induced chain evaluate it
    once (``mdp`` states what the memo keeps); a MEC's gain policy
    iteration may run again, but its classes are not re-evaluated.

    A scan spends a best response only on a candidate that its chain bound
    admits.  Min's exact reply to a Max candidate σ′, which differs from σ
    at one node u, has values v′ ≤ val(σ′, τ) at every node for every Min
    strategy τ, since the reply minimizes over all of them; take for τ the
    Min witness of the reply the scan holds, and let c = val(σ′, τ), the
    values of the Markov chain the pair makes.  The vector test accepts σ′
    only if v′ ≥ vec and v′ ≠ vec.  Then c ≥ v′ ≥ vec, and c ≠ vec, since c
    = vec would squeeze v′ to vec.  The witness τ attains vec against σ, so
    vec are the values of the chain that (σ, τ) makes, which takes the
    same step as c's chain at every node but u.  Then c - vec has the sign
    of c(u) - vec(u) wherever it is not 0 (``mdp._switch_sign``), and "c ≥
    vec and c ≠ vec" holds exactly when c(u) > vec(u).  So σ′ is skipped
    when c(u) ≤ vec(u), and v′ fails the test then too.  Min's descent is
    the mirror case: Max's reply to τ′ has v′ ≥ val(σ, τ′) for σ the Max
    witness of the held reply, the test asks for v′ ≤ vec and v′ ≠ vec, and
    τ′ is skipped when c(u) ≥ vec(u).  The rule needs the held witness to
    attain vec; every best response's witness does.  The sign is decided
    in Fractions, so the bound skips only candidates the scan would reject:
    the scan order, the accepted switch, the returned strategies and
    replies do not change, only the number of best responses does.

    A player not in ``Index.choosers`` has a single strategy, edge 0 at
    every node, and the solve is the other's exact reply to it, one
    ``_reply``, Min checked first.  The pair is certified: the reply is a
    best response by construction, and a player's only strategy is a best
    response to anything.  Where Min has a single strategy (a chain too),
    the loop would return the same pair after the same best response; where
    only Max has one, its descent could end at another Min witness of the
    same values.

    Min's descent certifies τ on Max's reply alone when vec, the values of
    Max's exact best response to τ, is 0 at every node (``settled``).  The
    rule is checked in the descent's stop test and again right after the
    descent, which then returns vec with σ, the Max witness of that reply,
    and τ.  σ is a best response to τ by construction, and τ is one to σ:
    values lie in [0, 1], so val(σ′, τ) ≤ vec = 0 makes τ get the least
    possible value against every σ′.  So the pair is certified.  The loop
    without the rule returns the same pair after Min's reply to σ, one
    more best response unless an earlier round memoized it: that reply's
    values equal vec, since τ is a best response to σ and σ attains vec
    against τ, and Max's ascent then starts at σ, whose reply is memoized,
    and meets its goal at once.  So the rule changes no value or witness.

    Termination: descents, ascents and best responses are deterministic.  A
    descent started from a Min strategy that an earlier round started from
    or ended at ends where that round's descent ended, so the rounds would
    repeat forever; the loop raises ``NoCertificate`` instead.  Hence every
    round starts from a Min strategy no earlier round started from or ended
    at, and Min has finitely many pure memoryless strategies, so the loop
    ends.
    """
    require_limit(objective)
    check_valid(game)
    scope = mdp.COMPONENT_MEMO.set({})
    try:
        return _alternate(game, objective)
    finally:
        mdp.COMPONENT_MEMO.reset(scope)


def _alternate(game, objective):
    """The alternating loop of ``solve_limit_ssg``."""
    index = game.index
    replies = {}

    def respond(player, choice):
        key = (player, choice)
        if key not in replies:
            replies[key] = _reply(index, objective, player, choice)
        return replies[key]

    def solved(values, sigma, tau):
        ids, owner = index.ids, index.owner
        sigma, tau = (
            PureMemorylessStrategy(player, {sid: k for sid, who, k in zip(ids, owner, choice) if who == player})
            for player, choice in (("max", sigma), ("min", tau))
        )
        return SsgSolve(SolveResult.from_values(dict(zip(ids, values)), sigma, tau), "improvement")

    tau = (0,) * len(index.ids)
    for player in ("min", "max"):
        if player not in index.choosers:  # ``tau`` is the player's one strategy
            values, reply = _reply(index, objective, player, tau)
            sigma, tau = (reply, tau) if player == "min" else (tau, reply)
            return solved(values, sigma, tau)

    def settled(vec):  # no Min reply can lower ``vec``: it is 0 at every node
        return not any(vec)

    def certified(vec, sigma):
        return settled(vec) or respond("max", sigma)[0] == vec

    visited = set()
    while True:
        visited.add(tau)
        tau, goal, sigma = _improve(index, objective, "min", tau, respond, certified)
        visited.add(tau)
        if settled(goal):
            return solved(goal, sigma, tau)
        sigma, vec, reply_tau = _improve(index, objective, "max", sigma, respond, lambda vec, _: vec == goal)
        if vec == goal:
            return solved(goal, sigma, tau)
        tau = reply_tau
        if tau in visited:
            raise NoCertificate("alternating improvement revisited a Min strategy without a certified pair")


def _improve(index, objective, player, choice, respond, done):
    """Single-switch improvement of ``player``'s pure memoryless ``choice``.

    A strategy is scored by the values of the opponent's exact best response
    to it, ``respond(player, choice)`` (values, witness).  The first switch
    that moves that vector in ``player``'s favour at some node and against
    it at none is taken, and the scan starts over; it ends when no switch
    improves or ``done(values, witness)`` holds for the current choice.
    Returns the final choice and its reply's values and witness.

    A candidate gets its best response only if ``_may_improve`` admits it,
    as it does every candidate whose best response passes the test.
    """
    better = operator.ge if player == "max" else operator.le
    vec, witness = respond(player, choice)
    while not done(vec, witness):
        # Each tuple is 0 off its owner's nodes, so the sum is the pair.
        held = list(map(operator.add, choice, witness))
        for u, candidate in _switches(index, player, choice):
            profile = held.copy()
            profile[u] = candidate[u]
            if not _may_improve(index, objective, player, profile, u, vec):
                continue
            cvec, cwitness = respond(player, candidate)
            if cvec != vec and all(map(better, cvec, vec)):
                choice, vec, witness = candidate, cvec, cwitness
                break
        else:
            break
    return choice, vec, witness


def _may_improve(index, objective, player, profile, u, vec):
    """Whether the chain where each controlled node v of ``index`` takes
    its edge ``profile[v]`` passes the vector test against ``vec``, the
    values of the chain that differs from it at node ``u`` alone: its
    values are better for ``player`` than ``vec`` at u, and so at least as
    good at every node (``mdp._switch_sign``)."""
    return mdp._switch_sign(index, profile, u, objective.kind, vec) == (1 if player == "max" else -1)


def _switches(index, player, choice):
    """Every strategy that differs from ``choice`` at one node, in node
    order, with the node where it differs."""
    for u, (who, targets) in enumerate(zip(index.owner, index.succ)):
        if who == player:
            for k in range(len(targets)):
                if k != choice[u]:
                    yield u, choice[:u] + (k,) + choice[u + 1 :]


def check_threshold(p: Fraction, relation: str) -> None:
    """Reject a relation other than > or >= and a threshold outside [0,1]."""
    if relation not in (">", ">=", "gt", "ge"):
        raise ValueError(f"relation must be > or >=, got {relation!r}")
    if not 0 <= p <= 1:
        raise ValueError("threshold must lie in [0,1]")


def threshold_holds(value: Fraction, p: Fraction, relation: str) -> bool:
    """Exact comparison of an already computed value against ``p``."""
    check_threshold(p, relation)
    if relation in (">", "gt"):
        return value > p
    return value >= p
