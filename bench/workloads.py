"""The three workloads as seeded operation lists.

An operation is one user request: a CLI invocation (``solve``, ``term``,
``reduce | solve``) or one ``termination.synthesize_term_strategies`` call.
Each workload is a fixed set of instances (family, size, family seed); the
workload seed permutes the state labels inside every file and the order in
which the operations run.  Every seed therefore poses the same problems,
which keeps percentiles comparable between seeds, under different names.

References are checked in (``refs.json``, built by ``make_refs.py``) in
canonical labels, except where a closed form gives them directly (ring,
ruin, positive-drift counter); ``Instance.rename`` maps them onto a seed's
labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

import families

DEADLINE_S = 10.0
DEFAULT_SEED = 0

OBJECTIVES = (
    "liminf-minus-inf",
    "liminf-plus-inf",
    "liminf-gt-minus-inf",
    "liminf-lt-plus-inf",
    "mean-gt",
    "mean-leq",
)

# size -> family seeds of the fixed instance set
DENSE = {8: (1, 2, 3), 9: (1,), 10: (1, 2, 3), 12: (1, 2, 3), 14: (1, 2, 3), 16: (1, 2)}
CONDON = {n: (1, 2) for n in (4, 6, 8)}
MDP = {20: tuple(range(1, 12)), 40: (1, 2), 60: (1,)}
MDP_N60_OBJECTIVES = ("liminf-minus-inf", "mean-gt")
CHANCE = {20: tuple(range(1, 26)), 30: (1, 2, 3, 4), 40: (1,), 50: (1,)}
SYNTH = {30: (1, 2, 3), 40: (1,)}

# Passes over the operation list in one run (an operation's time is its
# fastest execution): as many as fit in about 40 s on the reference host.
PASSES = {"ssg-dense": 2, "mdp-limit": 3, "term-counter": 2}

# Inputs the seed code cannot answer within the deadline (family seed 7,
# the ROADMAP's dense instances), present in every run of their workload.
KNOWN_HANGS = {
    "ssg-dense": ("solve:dense-n24-f7:liminf-minus-inf", "solve:dense-n32-f7:liminf-minus-inf"),
    "mdp-limit": (),
    "term-counter": ("term1:dcounter-n24-f7:j2",),
}


@dataclass(frozen=True)
class Instance:
    key: str
    family: str
    size: int
    text: str
    rename: dict = field(compare=False)  # canonical state id -> id in this file
    start: str = ""  # query state (term, synth, Condon start), in this file's labels
    reach: tuple = ()  # Condon targets (t, t')


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # solve | pipe | term1 | term0 | synth
    instance: Instance
    objective: str = ""
    j: int = 0
    closed_form: dict | None = field(default=None, compare=False)  # reference, canonical labels


def _instance(key, family, size, prefix, text, seed, **extra) -> Instance:
    labels = families.names(prefix, size, seed)
    rename = {f"{prefix}{i}": label for i, label in enumerate(labels)}
    return Instance(key, family, size, text, rename, start=labels[0], **extra)


def _solves(instance, objectives=OBJECTIVES, closed_form=None):
    return [
        Op(f"solve:{instance.key}:{k}", "solve", instance, objective=k,
           closed_form=closed_form(k) if closed_form else None)
        for k in objectives
    ]


def _ring_values(k: int):
    return lambda obj: {"values": {f"r{i}": "0/1" if obj == "liminf-minus-inf" else "1/1" for i in range(k)}}


def _ruin_values(n: int):
    def values(obj):
        down = obj in ("liminf-minus-inf", "liminf-lt-plus-inf", "mean-leq")
        return {"values": {f"g{i}": _frac(n - 1 - i if down else i, n - 1) for i in range(n)}}
    return values


def _frac(num: int, den: int) -> str:
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def ssg_dense(seed) -> list[Op]:
    ops = []
    for n, fseeds in DENSE.items():
        for f in fseeds:
            ops += _solves(_instance(f"dense-n{n}-f{f}", "dense", n, "s", families.dense(n, f, seed), seed))
    for n, fseeds in CONDON.items():
        for f in fseeds:
            inst = _instance(f"condon-n{n}-f{f}", "condon", n, "q", families.reach_instance(n, f, seed), seed,
                             reach=("t", "u"))
            for k in ("liminf-minus-inf", "liminf-plus-inf"):
                ops.append(Op(f"pipe:{inst.key}:{k}", "pipe", inst, objective=k))
    for n in (24, 32):
        hang = _instance(f"dense-n{n}-f7", "dense", n, "s", families.dense(n, 7, seed), seed)
        ops += _solves(hang, ("liminf-minus-inf",))
    return ops


def mdp_limit(seed) -> list[Op]:
    ops = []
    for n, fseeds in MDP.items():
        for f in fseeds:
            inst = _instance(f"mdp-n{n}-f{f}", "dense-mdp", n, "s", families.dense_mdp(n, f, seed), seed)
            ops += _solves(inst, MDP_N60_OBJECTIVES if n == 60 else OBJECTIVES)
    for k in (6, 8, 10):
        inst = _instance(f"ring-k{k}", "ring", k, "r", families.ring(k, seed), seed)
        ops += _solves(inst, closed_form=_ring_values(k))
    for n, objectives in ((100, ("mean-gt",)), (200, ("liminf-minus-inf",))):
        inst = _instance(f"ruin-n{n}", "ruin", n, "g", families.ruin(n, seed), seed)
        ops += _solves(inst, objectives, closed_form=_ruin_values(n))
    return ops


def term_counter(seed) -> list[Op]:
    ops = []
    for n, fseeds in CHANCE.items():
        for f in fseeds:
            inst = _instance(f"chance-n{n}-f{f}", "level", n, "c", families.chance_counter(n, f, seed), seed)
            for j in (1, 2):
                ops.append(Op(f"term1:{inst.key}:j{j}", "term1", inst, j=j))
            ops.append(Op(f"term0:{inst.key}:j2", "term0", inst, j=2))
            if f in SYNTH.get(n, ()):
                ops.append(Op(f"synth:{inst.key}:j2", "synth", inst, j=2))
    positive = _instance("positive-n4000-f1", "drift-positive", 4000, "d",
                         families.drift_counter(4000, 1, seed, balanced=False), seed)
    # No delta is negative, so the counter never drops: value 0 holds.
    ops.append(Op(f"term0:{positive.key}:j1", "term0", positive, j=1, closed_form={"value0": "true"}))
    balanced = _instance("balanced-n1000-f1", "drift-balanced", 1000, "d",
                         families.drift_counter(1000, 1, seed, balanced=True), seed)
    ops.append(Op(f"term0:{balanced.key}:j2", "term0", balanced, j=2))
    hang = _instance("dcounter-n24-f7", "dense-counter", 24, "s", families.dense_counter(24, 7, seed), seed)
    ops.append(Op(f"term1:{hang.key}:j2", "term1", hang, j=2))
    return ops


WORKLOADS = {
    "ssg-dense": ssg_dense,
    "mdp-limit": mdp_limit,
    "term-counter": term_counter,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations for ``seed``, in seeded execution order."""
    ops = WORKLOADS[workload](seed)
    random.Random(f"{workload}/{seed}/order").shuffle(ops)
    return ops


def canonical_ops(workload: str) -> list[Op]:
    """The operations in canonical labels, as references are stored."""
    return WORKLOADS[workload](None)
