"""Executable hardness reductions from quantitative reachability.

``condon_to_limit`` rewires a reachability instance with distinguished sinks
t and t' into a reward game whose liminf values are 0/1 answers to the
threshold question: the run keeps restarting from s, so termination-free
random-walk behaviour turns "reach t with probability >= 1/2" into
"accumulated reward has liminf -inf almost surely".  The transformed games
double as cross-validation generators for the solvers.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .chain import attractor
from .model import OWNERS, OcSsg, Ssg, State, Transition, _quoted, check_counter_start, check_valid


class NormalizationError(ValueError):
    pass


def _route_dead_sinks(game: Ssg, t: str, t_prime: str) -> Ssg:
    """Send states that cannot reach {t, t'} straight to t' instead."""
    pos = game.index.pos
    can_reach, _ = attractor(game.index, (pos[t], pos[t_prime]), OWNERS)
    states = []
    for s, reached in zip(game.states, can_reach):
        if reached:
            states.append(s)
            continue
        prob = Fraction(1) if s.owner == "rand" else None
        reward = s.transitions[0].reward if game.reward_location == "transitions" else None
        states.append(s._replace(transitions=(Transition(t_prime, prob=prob, reward=reward),)))
    return replace(game, states=tuple(states))


def _check_normalized(game: Ssg, t: str, t_prime: str) -> None:
    """All strategy pairs must reach {t, t'} with probability 1.

    ``sure`` holds the states that hit {t, t'} with positive probability
    whatever the players do (a rand state needs one edge into it, a
    controlled state all of them).  Outside it the players can keep the play
    away from {t, t'} forever, so reachability falls below 1 exactly at the
    states that can reach that trap before {t, t'}.
    """
    index = game.index
    sinks = (index.pos[t], index.pos[t_prime])
    sure, _ = attractor(index, sinks, ("rand",))
    within = [v not in sinks for v in range(len(sure))]
    trapped, _ = attractor(index, [v for v, hit in enumerate(sure) if not hit], OWNERS, within=within)
    offenders = sorted(sid for sid, hit in zip(index.ids, trapped) if hit)
    if offenders:
        raise NormalizationError(
            f"players can avoid {{t, t'}} from {offenders}: reachability is not almost sure"
        )


def normalize_reach_instance(game: Ssg, t: str, t_prime: str) -> Ssg:
    """Route dead sinks to t' and verify {t, t'} is reached almost surely.

    The returned game is the instance the reduction contracts refer to.
    """
    check_valid(game)
    if t == t_prime:
        raise ValueError("t and t' must differ")
    for sid in (t, t_prime):
        if sid not in game.index.pos:
            raise ValueError(f"unknown state {_quoted(sid)}")
    routed = _route_dead_sinks(game, t, t_prime)
    _check_normalized(routed, t, t_prime)
    return routed


def condon_to_limit(game: Ssg, s: str, t: str, t_prime: str) -> Ssg:
    """Reward game whose liminf values answer the reachability threshold.

    t and t' lose their outgoing edges, gain an edge back to s, and join
    Max; state rewards are -1 at t, +1 at t', 0 elsewhere.  Contract:
    liminf=-inf value at s is 1 iff the reach-t value is >= 1/2 (else 0),
    and liminf=+inf value 1 iff the reach-t' value is > 1/2 (else 0), both
    reach values taken on the normalized instance.
    """
    check_valid(game)
    if s not in game.index.pos:
        raise ValueError(f"unknown state {_quoted(s)}")
    routed = normalize_reach_instance(game, t, t_prime)

    states = []
    for st in routed.states:
        if st.id in (t, t_prime):
            states.append(State(st.id, "max", reward=-1 if st.id == t else 1, transitions=(Transition(s),)))
        else:
            transitions = tuple(Transition(tr.target, prob=tr.prob) for tr in st.transitions)
            states.append(st._replace(reward=0, transitions=transitions))
    return Ssg(tuple(states), reward_location="states")


def condon_to_termination(game: Ssg, s: str, t: str, t_prime: str, j: int | None = None):
    """Counter view of the limit reduction plus the matching query (s, j).

    State rewards become arrival deltas, and with the initial counter at
    j = |V| the termination value is 1 exactly when the reach-t value is
    >= 1/2.
    """
    if j is not None:
        check_counter_start(j, "termination")
    limit_game = condon_to_limit(game, s, t, t_prime)
    reward = {st.id: st.reward for st in limit_game.states}
    states = tuple(
        st._replace(reward=None, transitions=tuple(tr._replace(delta=reward[tr.target]) for tr in st.transitions))
        for st in limit_game.states
    )
    counter_game = OcSsg(states)
    if j is None:
        j = len(counter_game.states)
    return counter_game, s, j
