"""Deterministic instance generators shared by the test suite.

The exhaustive layers enumerate every game shape for 1 and 2 states and a
fixed-stride slice of the 3-state space (full enumeration is ~375k games,
far beyond the intended minutes of runtime).  Random layers draw from a
seeded generator so every run sees identical instances.  ``oc_to_reward_ssg``
is the reward view of a counter game, a reference the solvers never use:
they read counter games as parsed.  ``build_level_game`` is the level game
of termination built as a full ``Ssg`` with string ids, the reference the
int-keyed level product of ``ocsg.termination`` is checked against.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ocsg.model import (
    ON_TRANSITIONS,
    OcSsg,
    Ssg,
    State,
    Transition,
    check_valid,
    relabel_controlled,
    step_reward,
)

PROBS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
SPLITS = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4)))
REWARDS = (-1, 0, 1)
OWNERS = ("max", "min", "rand")

THREE_STATE_STRIDE = 241


def _state_options(ids):
    """All (owner, reward, transitions) combinations for one state."""
    options = []
    singles = [(t,) for t in ids]
    pairs = list(itertools.combinations(ids, 2))
    for owner in ("max", "min"):
        for targets in singles + pairs:
            trans = tuple(Transition(t) for t in targets)
            for reward in REWARDS:
                options.append((owner, reward, trans))
    for targets in singles:
        trans = (Transition(targets[0], prob=Fraction(1)),)
        for reward in REWARDS:
            options.append(("rand", reward, trans))
    for targets in pairs:
        for split in SPLITS:
            trans = tuple(Transition(t, prob=p) for t, p in zip(targets, split))
            for reward in REWARDS:
                options.append(("rand", reward, trans))
    return options


def _assemble(ids, picks):
    states = tuple(
        State(sid, owner, reward=reward, transitions=trans)
        for sid, (owner, reward, trans) in zip(ids, picks)
    )
    return Ssg(states, reward_location="states")


def exhaustive_games(max_states: int = 3, stride: int = THREE_STATE_STRIDE):
    """Every 1- and 2-state game; every ``stride``-th 3-state game."""
    games = []
    for n in range(1, max_states + 1):
        ids = tuple("abc"[:n])
        options = _state_options(ids)
        combos = itertools.product(options, repeat=n)
        if n < 3:
            games.extend(_assemble(ids, picks) for picks in combos)
        else:
            games.extend(
                _assemble(ids, picks)
                for i, picks in enumerate(combos)
                if i % stride == 0
            )
    return games


def random_game(rng: random.Random, n: int, reward_location: str = "states") -> Ssg:
    ids = [chr(ord("a") + i) for i in range(n)]
    states = []
    for sid in ids:
        owner = rng.choice(OWNERS)
        width = rng.choice((1, 2))
        targets = rng.sample(ids, min(width, n))
        if owner == "rand":
            if len(targets) == 1:
                probs = [Fraction(1)]
            else:
                p = rng.choice(SPLITS)
                probs = list(p)
        else:
            probs = [None] * len(targets)
        if reward_location == "states":
            trans = tuple(Transition(t, prob=p) for t, p in zip(targets, probs))
            states.append(State(sid, owner, reward=rng.choice(REWARDS), transitions=trans))
        else:
            trans = tuple(
                Transition(t, prob=p, reward=rng.choice(REWARDS)) for t, p in zip(targets, probs)
            )
            states.append(State(sid, owner, transitions=trans))
    return Ssg(tuple(states), reward_location=reward_location)


def random_games(count: int, sizes=(4, 5), seed: int = 20110419, reward_location: str = "states"):
    rng = random.Random(seed)
    return [random_game(rng, rng.choice(sizes), reward_location) for _ in range(count)]


def as_mdp(game: Ssg) -> Ssg:
    """Hand every controlled state to Max, turning the game into an MDP."""
    return relabel_controlled(game, "max")


def random_reach_instance(rng: random.Random, n: int) -> tuple[Ssg, str, str, str]:
    """A reachability SSG with distinguished s, absorbing t and t'."""
    ids = [chr(ord("a") + i) for i in range(n)] + ["t", "u"]
    states = []
    for sid in ids:
        if sid in ("t", "u"):
            states.append(State(sid, "rand", reward=0, transitions=(Transition(sid, prob=Fraction(1)),)))
            continue
        owner = rng.choice(OWNERS)
        width = rng.choice((1, 2))
        targets = rng.sample(ids, width)
        if owner == "rand":
            if width == 1:
                probs = [Fraction(1)]
            else:
                probs = list(rng.choice(SPLITS))
        else:
            probs = [None] * width
        trans = tuple(Transition(t, prob=p) for t, p in zip(targets, probs))
        states.append(State(sid, owner, reward=0, transitions=trans))
    return Ssg(tuple(states), reward_location="states"), "a", "t", "u"


def random_reach_instances(count: int, seed: int = 62831853, max_core: int = 3):
    """Seeded normalized instances: every strategy pair reaches {t, t'} a.s."""
    from ocsg.reduce import NormalizationError, condon_to_limit

    rng = random.Random(seed)
    instances = []
    while len(instances) < count:
        instance = random_reach_instance(rng, rng.randint(1, max_core))
        try:
            condon_to_limit(*instance[:1], *instance[1:])
        except NormalizationError:
            continue
        instances.append(instance)
    return instances


def bench_families():
    """``bench/families.py``, loaded without putting bench/ on sys.path."""
    path = Path(__file__).parents[1] / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oc_to_reward_ssg(game: OcSsg) -> Ssg:
    """Turn counter deltas into transition rewards on the identical graph."""
    check_valid(game)
    states = tuple(
        State(
            s.id,
            s.owner,
            reward=None,
            transitions=tuple(Transition(t.target, prob=t.prob, reward=t.delta) for t in s.transitions),
        )
        for s in game.states
    )
    return Ssg(states, reward_location=ON_TRANSITIONS)


def level_id(state_id: str, level: int) -> str:
    return f"{state_id}@{level}"


@dataclass(frozen=True)
class LevelGame:
    game: Ssg
    j: int
    hi: int
    targets: frozenset[str]
    to_base: dict[str, tuple[str, int]]


def build_level_game(base: Ssg | OcSsg, j: int, liminf_value_one, hi: int | None = None) -> LevelGame:
    """Unfold the running sum of step weights into levels -j..hi with
    absorbing boundaries, as an ``Ssg`` whose states are ``<id>@<level>``.

    ``base`` is a counter game or a reward game; each step moves the level
    by its ``step_reward``, which the level game carries as its transition
    reward.  ``liminf_value_one`` is the value-1 set of liminf=-inf on
    ``base``; the target set collects the bottom boundary and every level
    copy of those states.  The default window tops out at |V|-j, the window
    of ``ocsg.termination``; a wider ``hi`` checks the limit branch.
    """
    n = len(base.states)
    if hi is None:
        if not 0 < j < n:
            raise ValueError(f"level construction needs 0 < j < |V|, got j={j}, |V|={n}")
        hi = n - j
    if j < 1 or hi < 0:
        raise ValueError("window must contain the start level 0")
    liminf_value_one = frozenset(liminf_value_one)

    states = []
    to_base = {}
    targets = set()
    for s in base.states:
        steps = [(t, step_reward(base, s, t)) for t in s.transitions]
        for level in range(-j, hi + 1):
            lid = level_id(s.id, level)
            to_base[lid] = (s.id, level)
            if level == -j or s.id in liminf_value_one:
                targets.add(lid)
            if level in (-j, hi):
                prob = Fraction(1) if s.owner == "rand" else None
                transitions = (Transition(lid, prob=prob, reward=0),)
            else:
                transitions = tuple(
                    Transition(level_id(t.target, level + w), prob=t.prob, reward=w) for t, w in steps
                )
            states.append(State(lid, s.owner, transitions=transitions))
    game = Ssg(tuple(states), reward_location="transitions")
    return LevelGame(game, j, hi, frozenset(targets), to_base)
