"""Seeded instance families, emitted directly as model text.

Every generator is a pure function of its arguments: the same arguments
give byte-identical text.  The structure of an instance comes from its
size and its family seed ``fseed``; the workload seed ``seed`` only
permutes the numeric state labels (file order is kept), so every workload
seed poses the same problems under different names.  ``names`` returns
that labelling, which maps checked-in references onto the file.
"""

from __future__ import annotations

import random

REWARDS = (-1, 0, 1)


def names(prefix: str, n: int, seed: int | None) -> list[str]:
    """Label of the i-th state: ``prefix`` plus a seeded permutation of
    0..n-1; ``seed=None`` gives the canonical labels ``prefix + str(i)``."""
    perm = list(range(n))
    if seed is not None:
        random.Random(f"labels/{prefix}/{n}/{seed}").shuffle(perm)
    return [f"{prefix}{k}" for k in perm]


def _owner(rng: random.Random, p_max: float, p_min: float) -> str:
    x = rng.random()
    if x < p_max:
        return "max"
    if x < p_max + p_min:
        return "min"
    return "rand"


def _emit(header: str, ids, owners, edges, label: str) -> str:
    """``edges[i]``: list of (target index, probability, weight) of state i."""
    lines = [header]
    lines += [f"state {sid} owner={owner}" for sid, owner in zip(ids, owners)]
    for sid, owner, out in zip(ids, owners, edges):
        for target, p, weight in out:
            prob = f" p={p}" if owner == "rand" else ""
            lines.append(f"trans {sid} -> {ids[target]}{prob} {label}={weight}")
    return "\n".join(lines) + "\n"


def _dense(n: int, fseed: int):
    rng = random.Random(fseed)
    owners, edges = [], []
    for _ in range(n):
        owners.append(_owner(rng, 0.3, 0.3))
        targets = rng.sample(range(n), 2)
        edges.append([(t, "1/2", rng.choice(REWARDS)) for t in targets])
    return owners, edges


def dense(n: int, fseed: int, seed: int | None) -> str:
    """The dense family: 2 successors, owners max/min/rand at 0.3/0.3/0.4,
    rand edges 1/2-1/2, transition rewards uniform in {-1,0,1}, drawn from
    ``random.Random(fseed)``.  fseed 7 gives the reference instances
    (n=32: 13 Min, 10 Max, 9 rand)."""
    owners, edges = _dense(n, fseed)
    return _emit("ssg rewards=transitions", names("s", n, seed), owners, edges, "reward")


def dense_mdp(n: int, fseed: int, seed: int | None) -> str:
    """The dense family with every controlled state relabelled Max."""
    owners, edges = _dense(n, fseed)
    owners = ["rand" if o == "rand" else "max" for o in owners]
    return _emit("ssg rewards=transitions", names("s", n, seed), owners, edges, "reward")


def dense_counter(n: int, fseed: int, seed: int | None) -> str:
    """The dense family read as a one-counter game: rewards become deltas."""
    owners, edges = _dense(n, fseed)
    return _emit("ocssg", names("s", n, seed), owners, edges, "delta")


def ring(k: int, seed: int | None) -> str:
    """k Max states in a cycle, each with a reward-0 and then a reward-+1
    edge to the next state.  Rewards are never negative, so liminf=-inf
    has value 0 everywhere and every other limit objective value 1."""
    edges = [[((i + 1) % k, None, 0), ((i + 1) % k, None, 1)] for i in range(k)]
    return _emit("ssg rewards=transitions", names("r", k, seed), ["max"] * k, edges, "reward")


def ruin(n: int, seed: int | None) -> str:
    """Gambler's ruin on n states in a line: the first loops with reward -1,
    the last with +1, interior states step 1/2-1/2 to their neighbours with
    seeded rewards.  The liminf=-inf value of the i-th state is
    (n-1-i)/(n-1) whatever those rewards."""
    rng = random.Random(f"ruin/{n}/{seed}")
    edges = [[(0, "1/1", -1)]]
    edges += [[(i - 1, "1/2", rng.choice(REWARDS)), (i + 1, "1/2", rng.choice(REWARDS))] for i in range(1, n - 1)]
    edges.append([(n - 1, "1/1", 1)])
    return _emit("ssg rewards=transitions", names("g", n, seed), ["rand"] * n, edges, "reward")


def chance_counter(n: int, fseed: int, seed: int | None, controlled: int = 4) -> str:
    """Chance-heavy one-counter game: ``controlled`` states split between
    Max and Min, every other state rand with two 1/2-1/2 edges; deltas
    uniform in {-1,0,1}, so some states terminate almost surely and some
    do not.  The query state is the first one."""
    rng = random.Random(fseed)
    owners = ["rand"] * n
    for i, idx in enumerate(rng.sample(range(n), controlled)):
        owners[idx] = "max" if i % 2 == 0 else "min"
    edges = [[(t, "1/2", rng.choice(REWARDS)) for t in rng.sample(range(n), 2)] for _ in range(n)]
    return _emit("ocssg", names("c", n, seed), owners, edges, "delta")


def drift_counter(n: int, fseed: int, seed: int | None, balanced: bool) -> str:
    """Large sparse counter game: state i steps to i+1 (mod n) and takes one
    seeded chord; a fifth of the states are Min.  The query state is the
    first one.

    Positive drift (``balanced=False``): the step has delta +1 and chords
    skip a few states forward with delta 0 or +1, so no prefix sum drops
    and lifting settles at once.  Drift-balanced: states step with -1 and
    chord with +1 (mean drift 0 at rand states), so the adversarial credit
    demand climbs by one per sweep up to the |V| cap."""
    rng = random.Random(fseed)
    owners, edges = [], []
    for i in range(n):
        owners.append("min" if rng.random() < 0.2 else "rand")
        if balanced:
            edges.append([((i + 1) % n, "1/2", -1), (rng.randrange(n), "1/2", 1)])
        else:
            skip = (i + 2 + rng.randrange(8)) % n
            edges.append([((i + 1) % n, "1/2", 1), (skip, "1/2", rng.choice((0, 1)))])
    return _emit("ocssg", names("d", n, seed), owners, edges, "delta")


def reach_instance(n: int, fseed: int, seed: int | None) -> str:
    """A Condon reachability instance: n core states plus absorbing t and u
    (the last two states).  Core edges only go to later states, so every
    strategy pair reaches {t, u} almost surely; the start is the first."""
    rng = random.Random(fseed)
    owners, edges = [], []
    for i in range(n):
        owner = _owner(rng, 0.3, 0.3)
        owners.append(owner)
        edges.append([(t, "1/2", 0) for t in rng.sample(range(i + 1, n + 2), 2)])
    owners += ["rand", "rand"]
    edges += [[(n, "1/1", 0)], [(n + 1, "1/1", 0)]]
    ids = names("q", n, seed) + ["t", "u"]
    lines = ["ssg rewards=states"]
    lines += [f"state {sid} owner={owner} reward=0" for sid, owner in zip(ids, owners)]
    for sid, owner, out in zip(ids, owners, edges):
        for target, p, _ in out:
            prob = f" p={p}" if owner == "rand" else ""
            lines.append(f"trans {sid} -> {ids[target]}{prob}")
    return "\n".join(lines) + "\n"
