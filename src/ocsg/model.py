"""Core game model: data types, text format, validation, and reward translations.

A game is a finite directed multigraph whose states belong to player Max,
player Min, or chance ("rand").  Two flavours exist:

* ``Ssg`` -- rewards in {-1, 0, +1} sit either on states or on transitions
  (``reward_location`` says which).
* ``OcSsg`` -- every transition carries a counter delta in {-1, 0, +1}
  instead of a reward; the counter itself is never materialised.

Text format (UTF-8, line oriented, ``#`` starts a comment):

    ssg rewards=states|transitions        (or:  ocssg)
    state <id> owner=max|min|rand [reward=<-1|0|1>]
    trans <src> -> <dst> [p=<num>/<den>] [reward=<-1|0|1>] [delta=<-1|0|1>]

An id is one or more of the characters ``A-Za-z0-9_.@+'-``.
``p=`` is required exactly for transitions leaving a rand state, ``reward=``
exactly where ``reward_location`` says, ``delta=`` exactly in ocssg files.
``print_model`` emits this format bit-exactly, probabilities in lowest terms.

These and the other model rules are stated once, in ``validate``, whose
rules on a state's successors and probabilities are ``_successor_faults``.
Input is validated where it enters the program, derived games are not.

A game has one per-state form, its ``states``: per state a ``State`` (id,
owner, reward, transitions), each edge a ``Transition`` (target, prob,
reward, delta), both named tuples, which ``validate``, the printer and the
int ``Index`` read.  ``parse_model`` is one pass over the lines that
compiles every text straight into the ``Index`` and a per-state reward
column.  It splits a line at whitespace once and reads each distinct
attribute spelling token by token once; it checks the rules on successors
and probabilities with ``_successor_faults``, once per distinct owner and
run of ``p=`` numerals, and makes each distinct numeral one ``Fraction``.
A parsed game's states are derived from its index in one pass on their
first read, so a solve, a termination query or a simulation on it, which
read the index, builds none.  A syntax error's column is computed only
when the error is raised, and only a text that breaks a model rule builds
its states, to report the rule at its line.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import chain

OWNERS = ("max", "min", "rand")
REWARD_VALUES = (-1, 0, 1)

ON_STATES = "states"
ON_TRANSITIONS = "transitions"

_ID_RE = re.compile(r"[A-Za-z0-9_.@+'\-]+\Z")
_TOKEN_RE = re.compile(r"\S+")  # the tokens of str.split(), with their offsets
_PROB_RE = re.compile(r"(\d+)(?:/(\d+))?")
_HEADER_KEYS = frozenset({"rewards"})
_STATE_KEYS = frozenset({"owner", "reward"})
_TRANS_KEYS = frozenset({"p", "reward", "delta"})


class ModelError(ValueError):
    """Base class for parse and validation failures."""


class ModelSyntaxError(ModelError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ModelSemanticError(ModelError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


class Transition(NamedTuple):
    target: str
    prob: Fraction | None = None
    reward: int | None = None
    delta: int | None = None


class State(NamedTuple):
    id: str
    owner: str
    reward: int | None = None
    transitions: tuple[Transition, ...] = ()


_ONE = Fraction(1)


@dataclass(frozen=True, eq=False)
class Index:
    """A game on int nodes 0..n-1 in game order, the form the int fixpoints
    read (``_GameOps.index``): ``ids[v]`` and ``pos`` convert between nodes
    and state ids; per node its owner and, in edge order, the target nodes,
    probabilities (None on a controlled edge) and weights of its edges, by
    the rule ``_GameOps.index`` states.

    A two-player solve derives what each best response reads from the
    game's one index with ``fixed``, which collapses one player's nodes to
    their choices (``steps``) and keeps the node numbering, with no game
    built.  ``visit_reward`` is computed once per game index and copied by
    ``fixed``.  ``choosers`` is the one test of which players have a choice.
    """

    ids: tuple[str, ...]
    pos: dict[str, int]
    owner: tuple[str, ...]
    succ: tuple[tuple[int, ...], ...]
    prob: tuple[tuple[Fraction | None, ...], ...]
    weight: tuple[tuple[int, ...], ...]

    @cached_property
    def preds(self) -> list[list[tuple[int, int]]]:
        """Per node, the (source, edge index) of every edge entering it,
        sources in node order."""
        preds: list[list[tuple[int, int]]] = [[] for _ in self.ids]
        for v, targets in enumerate(self.succ):
            for k, t in enumerate(targets):
                preds[t].append((v, k))
        return preds

    @cached_property
    def sinks_last(self) -> list[int]:
        """Every node, each strongly connected component before the ones it
        reaches: ``chain.tarjan``'s sinks-first order, flattened and
        reversed.  A worklist that pops from the end of this list takes
        successors first, the order in which both counter fixpoints
        (``termination._relax``, ``mdp.energy_min_credit``) are seeded."""
        order = [v for comp in chain.tarjan(self.succ, range(len(self.ids))) for v in comp]
        order.reverse()
        return order

    @cached_property
    def choosers(self) -> frozenset[str]:
        """The players with a choice: the owners of a controlled node with a
        second edge.  A player not among them has a single strategy."""
        return frozenset(who for who, targets in zip(self.owner, self.succ) if who != "rand" and len(targets) > 1)

    @cached_property
    def visit_reward(self) -> tuple[Fraction | int | None, ...]:
        """Per node the expected weight of a step from it, the reward of one
        visit in any chain: at a rand node the sum of p * w over its edges,
        added up in integers over the lcm of the denominators and reduced
        once, the int weight itself on a one-edge node; None at a controlled
        node, whose reward is the weight of the edge it takes."""
        rewards = []
        for who, probs, weights in zip(self.owner, self.prob, self.weight):
            if who != "rand":
                rewards.append(None)
            elif len(weights) == 1:
                rewards.append(weights[0])
            else:
                ratios = [p.as_integer_ratio() for p in probs]
                den = lcm(*[d for _, d in ratios])
                num = sum([n * (den // d) * w for (n, d), w in zip(ratios, weights)])
                rewards.append(Fraction(num, den))
        return tuple(rewards)

    def steps(self, choice: dict[int, int]):
        """The step of every node once each node v of ``choice`` takes its
        edge ``choice[v]``: per node its successors, their probabilities,
        its edge weights and its per-visit reward, four lists by node.  A
        node of ``choice`` steps to ``succ[v][k]`` with probability 1 and
        weight ``weight[v][k]``, which is also its visit reward; every other
        node keeps its columns (``visit_reward`` None at a controlled one).
        The one statement of that rule: ``fixed`` and every policy chain of
        ``mdp`` read it."""
        succ, prob, weight, rewards = list(self.succ), list(self.prob), list(self.weight), list(self.visit_reward)
        certain = (_ONE,)
        for v, k in choice.items():
            w = rewards[v] = weight[v][k]
            succ[v] = (succ[v][k],)
            prob[v] = certain
            weight[v] = (w,)
        return succ, prob, weight, rewards

    def fixed(self, choice: dict[int, int]) -> "Index":
        """This index with each node of ``choice`` fixed to its edge
        ``choice[v]`` (``steps``) and relabelled rand, as ``fix_strategies``
        leaves it; the index itself when ``choice`` is empty."""
        if not choice:
            return self
        succ, prob, weight, rewards = self.steps(choice)
        owner = list(self.owner)
        for v in choice:
            owner[v] = "rand"
        derived = Index(self.ids, self.pos, tuple(owner), tuple(succ), tuple(prob), tuple(weight))
        vars(derived)["visit_reward"] = tuple(rewards)
        return derived


class _GameOps:
    """Shared helpers; subclasses carry a ``states`` tuple, the game's one
    per-state form, and each builds its int ``index`` once.

    A game built in code holds its states.  A parsed game holds only its
    index and ``state_rewards``, and derives its states from them on their
    first read.
    """

    states: tuple[State, ...]

    @classmethod
    def _compiled(cls, **fields):
        """A game of this type that holds ``fields`` and no states yet."""
        game = cls.__new__(cls)
        vars(game).update(fields)
        return game

    def __getattr__(self, name):
        # Reached only for a missing attribute: a compiled game's states,
        # derived from its index on their first read, in one pass, by the
        # flavour's weight rule (``index``) read backwards.
        if name != "states" or "index" not in vars(self):
            raise AttributeError(name)
        index = self.index
        ids = index.ids
        on_counter = isinstance(self, OcSsg)
        on_edges = not on_counter and self.reward_location == ON_TRANSITIONS
        states = vars(self)["states"] = tuple(
            State(
                sid,
                owner,
                reward,
                tuple(
                    Transition(ids[t], p, w if on_edges else None, w if on_counter else None)
                    for t, p, w in zip(targets, probs, weights)
                ),
            )
            for sid, owner, reward, targets, probs, weights in zip(
                ids, index.owner, self.state_rewards, index.succ, index.prob, index.weight
            )
        )
        return states

    @cached_property
    def state_rewards(self) -> tuple[int | None, ...]:
        """Per state in game order its reward, None unless rewards sit on states."""
        return tuple(s.reward for s in self.states)

    @cached_property
    def index(self) -> Index:
        """This game as an ``Index``, built once from its states, column by
        column.  The weight of a step is the counter delta in a counter
        game, the edge reward in a transition-reward game, and the reward of
        the state it arrives at in a state-reward game, so prefix sums of a
        run differ from the state-reward sums only by the initial state's
        reward, which no limit objective observes.  A parsed game holds its
        index from the start."""
        states = self.states
        ids = tuple(s.id for s in states)
        pos = {sid: v for v, sid in enumerate(ids)}
        # Per state its edges' columns: targets, probabilities, rewards, deltas.
        columns = [tuple(zip(*s.transitions)) or ((),) * 4 for s in states]
        succ = tuple(tuple(map(pos.__getitem__, column[0])) for column in columns)
        if isinstance(self, OcSsg):
            weight = tuple(column[3] for column in columns)
        elif self.reward_location == ON_TRANSITIONS:
            weight = tuple(column[2] for column in columns)
        else:
            reward = [s.reward for s in states]
            weight = tuple(tuple(map(reward.__getitem__, targets)) for targets in succ)
        return Index(ids, pos, tuple(s.owner for s in states), succ, tuple(column[1] for column in columns), weight)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """``validate`` of this game, computed once; ``check_valid`` reads it."""
        return tuple(validate(self))

    def state(self, state_id: str) -> State:
        return self.states[self.index.pos[state_id]]

    def ids(self) -> tuple[str, ...]:
        return self.index.ids

    def controlled_ids(self) -> tuple[str, ...]:
        index = self.index
        return tuple(sid for sid, who in zip(index.ids, index.owner) if who != "rand")

    def owner_ids(self, owner: str) -> tuple[str, ...]:
        index = self.index
        return tuple(sid for sid, who in zip(index.ids, index.owner) if who == owner)

    def is_chain(self) -> bool:
        return all(who == "rand" for who in self.index.owner)


@dataclass(frozen=True, eq=True)
class Ssg(_GameOps):
    states: tuple[State, ...]
    reward_location: str = ON_STATES


@dataclass(frozen=True, eq=True)
class OcSsg(_GameOps):
    states: tuple[State, ...]


@dataclass(frozen=True)
class PureMemorylessStrategy:
    """One player's deterministic choice map: state id -> transition index."""

    player: str
    choice: dict[str, int]

    def validate_for(self, game: Ssg | OcSsg) -> None:
        if self.player not in ("max", "min"):
            raise ValueError(f"strategy player must be max or min, got {self.player!r}")
        index = game.index
        owned = [v for v, who in enumerate(index.owner) if who == self.player]
        if len(owned) != len(self.choice) or any(index.ids[v] not in self.choice for v in owned):
            ids = {index.ids[v] for v in owned}
            missing = ids - set(self.choice)
            extra = set(self.choice) - ids
            raise ValueError(f"strategy domain mismatch: missing {_sample(missing)}, extra {_sample(extra)}")
        for v in owned:
            k = self.choice[index.ids[v]]
            if type(k) is not int or not 0 <= k < len(index.succ[v]):
                raise ValueError(f"invalid transition index {k} at {_clipped(index.ids[v])}")


@dataclass(frozen=True)
class FiniteMemoryStrategy:
    """Strategy whose memory is a counter saturated to lo..hi.

    Edge k of state s adds ``delta[s][k]`` to the memory, clamped to lo..hi,
    and hi absorbs.  ``bands[s]`` of an owned state s holds its choices as
    runs (first memory, edge) by increasing first, the first at lo.  A
    memoryless strategy is one band per state with lo = hi.
    """

    player: str
    lo: int
    hi: int
    initial_memory: int
    delta: dict[str, tuple[int, ...]]
    bands: dict[str, tuple[tuple[int, int], ...]]

    @property
    def memory_size(self) -> int:
        return self.hi - self.lo + 1

    def next_memory(self, memory: int, source: str, index: int) -> int:
        if memory == self.hi:
            return memory
        return min(max(memory + self.delta[source][index], self.lo), self.hi)

    def choose(self, memory: int, state_id: str) -> int:
        return band_edge(self.bands[state_id], memory)

    def validate_for(self, game: Ssg | OcSsg) -> None:
        """Check what ``choose`` and ``next_memory`` read: the bands of every
        owned state and, unless lo = hi, a delta entry per edge of every state."""
        if self.player not in ("max", "min"):
            raise ValueError(f"strategy player must be max or min, got {self.player!r}")
        if not self.lo <= self.initial_memory <= self.hi:
            raise ValueError(f"initial memory {self.initial_memory} outside {self.lo}..{self.hi}")
        index = game.index
        owned = [v for v, who in enumerate(index.owner) if who == self.player]
        missing = [index.ids[v] for v in owned if index.ids[v] not in self.bands]
        if missing:
            raise ValueError(f"strategy bands missing {_sample(missing)}")
        for v in owned:
            sid = _clipped(index.ids[v])
            bands = self.bands[index.ids[v]]
            firsts = [first for first, _ in bands]
            if firsts[:1] != [self.lo] or firsts[-1] > self.hi or any(a >= b for a, b in zip(firsts, firsts[1:])):
                raise ValueError(f"bands at {sid} must start at {self.lo} and rise strictly to at most {self.hi}")
            for _, k in bands:
                if type(k) is not int or not 0 <= k < len(index.succ[v]):
                    raise ValueError(f"invalid transition index {k} at {sid}")
        if self.lo < self.hi:
            bad = [sid for sid, targets in zip(index.ids, index.succ) if len(self.delta.get(sid, ())) != len(targets)]
            if bad:
                raise ValueError(f"memory deltas missing or not one per edge at {_sample(bad)}")


def band_edge(bands: Sequence[tuple[int, int]], at: int) -> int:
    """The edge of the last band (first, edge) of ``bands`` that starts at or below ``at``."""
    return bands[bisect_right(bands, at, key=itemgetter(0)) - 1][1]


LIMIT_KINDS = (
    "liminf-minus-inf",
    "liminf-plus-inf",
    "liminf-gt-minus-inf",
    "liminf-lt-plus-inf",
    "mean-gt",
    "mean-leq",
)

COMPLEMENT_KIND = {
    "liminf-minus-inf": "liminf-gt-minus-inf",
    "liminf-gt-minus-inf": "liminf-minus-inf",
    "liminf-plus-inf": "liminf-lt-plus-inf",
    "liminf-lt-plus-inf": "liminf-plus-inf",
    "mean-gt": "mean-leq",
    "mean-leq": "mean-gt",
}

_ALL_KINDS = LIMIT_KINDS + ("term",)


def check_counter_start(j, what: str) -> None:
    """Reject an initial counter ``j`` that is missing, not an int (a bool
    included) or below 1; ``what`` names the check in the message."""
    if j is not None and type(j) is not int:
        raise ValueError(f"{what} requires an int j, got {j!r}")
    if j is None or j < 1:
        raise ValueError(f"{what} requires j >= 1")


@dataclass(frozen=True)
class Objective:
    kind: str
    j: int | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "term":
            check_counter_start(self.j, "term objective")
        elif self.j is not None:
            raise ValueError(f"{self.kind} objective takes no parameters")

    def complement(self) -> "Objective":
        require_limit(self)
        return Objective(COMPLEMENT_KIND[self.kind])

    @staticmethod
    def term(j: int) -> "Objective":
        return Objective("term", j=j)


def require_limit(objective: Objective) -> None:
    """Reject an objective that is not a limit objective: the one check of
    every limit solver's entry."""
    if objective.kind not in LIMIT_KINDS:
        raise ValueError(f"not a limit objective: {objective.kind}")


LIMINF_MINUS_INF = Objective("liminf-minus-inf")
LIMINF_PLUS_INF = Objective("liminf-plus-inf")
LIMINF_GT_MINUS_INF = Objective("liminf-gt-minus-inf")
LIMINF_LT_PLUS_INF = Objective("liminf-lt-plus-inf")
MEAN_GT = Objective("mean-gt")
MEAN_LEQ = Objective("mean-leq")

LIMIT_OBJECTIVES = (
    LIMINF_MINUS_INF,
    LIMINF_PLUS_INF,
    LIMINF_GT_MINUS_INF,
    LIMINF_LT_PLUS_INF,
    MEAN_GT,
    MEAN_LEQ,
)


@dataclass(frozen=True)
class SolveResult:
    values: dict[str, Fraction]
    witness_max: PureMemorylessStrategy | None = None
    witness_min: PureMemorylessStrategy | None = None
    value_one_set: frozenset[str] = frozenset()

    @staticmethod
    def from_values(values, witness_max=None, witness_min=None) -> "SolveResult":
        ones = frozenset(s for s, v in values.items() if v == 1)
        return SolveResult(dict(values), witness_max, witness_min, ones)


# ---------------------------------------------------------------------------
# Validation


def _successor_faults(rand: bool, probs) -> dict[int | None, str]:
    """The broken rules on one state's successors and their probabilities
    ``probs`` (in edge order, None where an edge has none), as edge position
    -> message, position None for the state: at least one successor; at a
    rand state a positive probability on every edge, summing to 1; at a
    controlled state none.  ``_violations`` and ``parse_model`` both read
    the rules from here."""
    if not probs:
        return {None: "no successor"}
    if not rand:
        return {k: "probability on a controlled transition" for k, prob in enumerate(probs) if prob is not None}
    faults = {}
    # The sum of the probabilities, num/den over the lcm of their denominators.
    num, den = 0, 1
    for k, prob in enumerate(probs):
        if prob is None:
            faults[k] = "missing probability"
        elif prob.numerator <= 0:
            faults[k] = "positivity violated"
        else:
            common = lcm(den, prob.denominator)
            num = num * (common // den) + prob.numerator * (common // prob.denominator)
            den = common
    if not faults and num != den:
        faults[None] = f"probabilities sum {_clipped_fraction(Fraction(num, den))} != 1"
    return faults


def _weight_fault(what: str, value) -> str | None:
    """Why ``value`` is no weight, or None for an int in {-1,0,1}.  A bool
    or a float equal to one is refused too: the printer would write a token
    the parser rejects, and exact sums would turn into floats."""
    if type(value) is not int:
        return f"{what} {value!r} is not an int"
    if value not in REWARD_VALUES:
        return f"{what} {value} outside {{-1,0,1}}"
    return None


def _violations(game: Ssg | OcSsg):
    """Yield ``(state position, edge position or None, message)`` per broken
    model rule, in a fixed order; a whole-game rule has state position None.
    The rules read the game's ``states``; those on successors and
    probabilities are ``_successor_faults``."""
    states = game.states
    seen = set()
    for i, s in enumerate(states):
        if not isinstance(s.id, str) or not _ID_RE.match(s.id):
            yield i, None, f"invalid state id {_quoted(str(s.id))}"
        if s.id in seen:
            yield i, None, "duplicate state id"
        seen.add(s.id)
    is_oc = isinstance(game, OcSsg)
    loc = None if is_oc else game.reward_location
    if not is_oc and loc not in (ON_STATES, ON_TRANSITIONS):
        yield None, None, f"reward location {loc!r} invalid"

    for i, (_, owner, state_reward, edges) in enumerate(states):
        if owner not in OWNERS:
            yield i, None, f"unknown owner {_quoted(owner)}"
        faults = _successor_faults(owner == "rand", [edge[1] for edge in edges])
        if not edges:
            yield i, None, faults[None]
        if loc == ON_STATES:
            if state_reward is None:
                yield i, None, "missing state reward"
            elif fault := _weight_fault("state reward", state_reward):
                yield i, None, fault
        elif state_reward is not None:
            yield i, None, "unexpected state reward"

        for k, (target, _, reward, delta) in enumerate(edges):
            if target not in seen:
                yield i, k, f"dangling target {_quoted(str(target))}"
            if k in faults:
                yield i, k, faults[k]
            if is_oc:
                if delta is None:
                    yield i, k, "missing delta"
                elif fault := _weight_fault("delta", delta):
                    yield i, k, fault
            elif delta is not None:
                yield i, k, "unexpected delta"
            if loc == ON_TRANSITIONS:
                if reward is None:
                    yield i, k, "missing transition reward"
                elif fault := _weight_fault("transition reward", reward):
                    yield i, k, fault
            elif reward is not None:
                yield i, k, "unexpected reward"
        if edges and None in faults:
            yield i, None, faults[None]


def _describe(game: Ssg | OcSsg, i: int | None, k: int | None, message: str) -> str:
    """``message`` prefixed with the state (``a: ...``) or edge (``a[k]: ...``) it is about."""
    if i is None:
        return message
    sid = _clipped(str(game.states[i].id))
    where = sid if k is None else f"{sid}[{k}]"
    return f"{where}: {message}"


def validate(game: Ssg | OcSsg) -> list[str]:
    """Return human-readable invariant violations, empty list when well formed."""
    return [_describe(game, i, k, message) for i, k, message in _violations(game)]


def check_valid(game: Ssg | OcSsg) -> None:
    if game.violations:
        raise ModelSemanticError("; ".join(game.violations))


# ---------------------------------------------------------------------------
# Parsing and printing


def _column(line: str, index: int) -> int:
    """1-based column of the ``index``-th whitespace-separated token of
    ``line``.  Only an error reports a column, so it is found only then."""
    return [m.start() for m in _TOKEN_RE.finditer(line)][index] + 1


def _syntax_error(line: str, lineno: int, index: int, message: str) -> ModelSyntaxError:
    return ModelSyntaxError(lineno, _column(line, index), message)


def _parse_attrs(line, lineno, tokens, start, allowed):
    """``key -> (token index, raw value)`` for ``tokens[start:]``."""
    attrs = {}
    for index in range(start, len(tokens)):
        key, eq, raw = tokens[index].partition("=")
        if not eq:
            raise _syntax_error(line, lineno, index, f"expected key=value, found {_quoted(tokens[index])}")
        if key not in allowed:
            raise _syntax_error(line, lineno, index, f"unknown attribute {_quoted(key)}")
        if key in attrs:
            raise _syntax_error(line, lineno, index, f"repeated attribute {_quoted(key)}")
        attrs[key] = (index, raw)
    return attrs


def _clipped(raw: str) -> str:
    """A token cut after 20 characters, so no error echoes a huge id or numeral."""
    return raw if len(raw) <= 20 else f"{raw[:20]}..."


def _sample(ids) -> str:
    """How many ``ids`` there are and the first 3 in sorted order, each
    ``_clipped``, so no error echoes a whole state set."""
    ids = sorted(ids)
    shown = [_clipped(str(sid)) for sid in ids[:3]] + ["..."] * (len(ids) > 3)
    return f"{len(ids)} [{', '.join(shown)}]"


def _clipped_fraction(value: Fraction) -> str:
    """``value`` as ``num/den`` cut like ``_clipped``.  A part with more
    digits than ``str`` converts (``sys.get_int_max_str_digits()``) is named
    by that limit instead."""

    def part(n: int) -> str:
        try:
            return str(n)
        except ValueError:
            return f"<over {sys.get_int_max_str_digits()} digits>"

    if value.denominator == 1:
        return _clipped(part(value.numerator))
    return _clipped(f"{part(value.numerator)}/{part(value.denominator)}")


def _quoted(raw: str) -> str:
    """``repr`` of a token, cut after 20 characters like ``_clipped``."""
    return repr(raw) if len(raw) <= 20 else f"{raw[:20]!r}..."


def _parse_int_reward(line, lineno, index, raw, what):
    try:
        value = int(raw)
    except ValueError:
        raise _syntax_error(line, lineno, index, f"expected integer {what}, found {_quoted(raw)}") from None
    if value not in REWARD_VALUES:
        raise ModelSemanticError(f"{what} {_quoted(raw)} outside {{-1,0,1}}", lineno)
    return value


def _parse_prob(line, lineno, index, raw):
    m = _PROB_RE.fullmatch(raw)
    if not m:
        raise _syntax_error(line, lineno, index, f"expected probability num/den, found {_quoted(raw)}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError:  # more digits than int() converts
        raise _syntax_error(line, lineno, index, f"probability numeral too long, found {_quoted(raw)}") from None
    if den == 0:
        raise ModelSemanticError("zero probability denominator", lineno)
    return Fraction(num, den)


def _state_line(line, lineno, pos) -> tuple[str, int | None]:
    """The owner and reward of a state line, read token by token; raises
    the line's first error, with ``pos`` the states declared before it."""
    tokens = line.split()
    if len(tokens) < 2:
        raise _syntax_error(line, lineno, 0, "expected state id")
    sid = tokens[1]
    if not _ID_RE.match(sid):
        raise _syntax_error(line, lineno, 1, f"invalid state id {_quoted(sid)}")
    attrs = _parse_attrs(line, lineno, tokens, 2, _STATE_KEYS)
    if "owner" not in attrs:
        raise _syntax_error(line, lineno, 1, "state line requires owner=max|min|rand")
    index, owner = attrs["owner"]
    if owner not in OWNERS:
        raise _syntax_error(line, lineno, index, f"expected owner max|min|rand, found {_quoted(owner)}")
    if sid in pos:
        raise ModelSemanticError(f"{_clipped(sid)}: duplicate state id", lineno)
    reward = _parse_int_reward(line, lineno, *attrs["reward"], "reward") if "reward" in attrs else None
    return owner, reward


def _trans_line(line, lineno, pos, probs) -> tuple[str | None, int | None, int | None]:
    """The ``p=`` numeral, reward and delta of a trans line, read token by
    token; raises the line's first error, with ``pos`` the states declared
    before it.  A numeral not in ``probs`` yet is put there with its value."""
    tokens = line.split()
    if len(tokens) < 4 or tokens[2] != "->":
        raise _syntax_error(line, lineno, 2 if len(tokens) > 2 else 0, "expected trans <src> -> <dst>")
    dst = tokens[3]
    if not _ID_RE.match(dst):
        raise _syntax_error(line, lineno, 3, f"invalid target id {_quoted(dst)}")
    attrs = _parse_attrs(line, lineno, tokens, 4, _TRANS_KEYS)
    if tokens[1] not in pos:
        raise ModelSemanticError(f"transition from undeclared state {_quoted(tokens[1])}", lineno)
    numeral = None
    if "p" in attrs:
        index, numeral = attrs["p"]
        if numeral not in probs:
            probs[numeral] = _parse_prob(line, lineno, index, numeral)
    reward = _parse_int_reward(line, lineno, *attrs["reward"], "reward") if "reward" in attrs else None
    delta = _parse_int_reward(line, lineno, *attrs["delta"], "delta") if "delta" in attrs else None
    return numeral, reward, delta


def parse_model(text: str) -> Ssg | OcSsg:
    """Parse the text format; raises ModelSyntaxError / ModelSemanticError.

    One pass over the lines emits the game's ``Index`` columns and
    ``state_rewards``; the game holds no states until they are read.  Each
    line is split at whitespace once.  The attributes of a line (its text
    after the ids) are read token by token, and checked against the
    flavour, only the first time they are spelled so (``_state_line``,
    ``_trans_line``); a later line spelled alike needs only its ids
    checked.  A syntax error, or a rule that one line breaks (a duplicate
    id, a value out of range, an undeclared source), is raised at its line
    as the line is read.  The rules on successors and probabilities
    (``_successor_faults``) are checked once per distinct owner and run of
    ``p=`` numerals, and a dangling target is a miss in the id map.  Only a
    text that breaks one of these rules builds its states, and
    ``_violations`` reports the rule at the first line it concerns: the
    ``trans`` line of an edge, the ``state`` line of a state.
    """
    lines = enumerate(text.splitlines(), start=1)
    for lineno, line in lines:
        line = line.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            break
    else:
        raise ModelSyntaxError(1, 1, "empty input, expected header ssg|ocssg")
    header, reward_location = tokens[0], None
    if header == "ssg":
        attrs = _parse_attrs(line, lineno, tokens, 1, _HEADER_KEYS)
        if "rewards" not in attrs:
            raise _syntax_error(line, lineno, 0, "ssg header requires rewards=states|transitions")
        index, reward_location = attrs["rewards"]
        if reward_location not in (ON_STATES, ON_TRANSITIONS):
            raise _syntax_error(line, lineno, index, f"expected states|transitions, found {_quoted(reward_location)}")
    elif header != "ocssg":
        raise _syntax_error(line, lineno, 0, f"expected header ssg|ocssg, found {_quoted(header)}")
    elif len(tokens) > 1:
        raise _syntax_error(line, lineno, 1, "ocssg header takes no attributes")
    on_counter, on_edges, on_states = header == "ocssg", reward_location == ON_TRANSITIONS, reward_location == ON_STATES

    ids, pos, owner, state_rewards, state_lines = [], {}, [], [], []  # per state, in line order
    sources, targets, tails, edge_lines = [], [], [], []  # per edge, in line order
    # Each attribute spelling read so far -> what it says: a state line's
    # tokens after the id -> (owner, reward), a trans line's text after the
    # target -> (p= numeral, reward, delta).
    state_tails: dict[tuple[str, ...], tuple[str, int | None]] = {}
    trans_tails: dict[str, tuple[str | None, int | None, int | None]] = {}
    probs: dict[str | None, Fraction | None] = {None: None}  # each p= numeral read -> its value
    broken = False  # a model rule is broken

    for lineno, line in lines:
        if "#" in line:
            line = line[: line.index("#")]
        parts = line.split(None, 4)
        if not parts:
            continue
        keyword = parts[0]
        if keyword == "trans":
            tail = parts[4] if len(parts) == 5 else ""
            if (
                tail not in trans_tails
                or len(parts) < 4
                or parts[2] != "->"
                or parts[1] not in pos
                or (parts[3] not in pos and not _ID_RE.match(parts[3]))
            ):
                _, reward, delta = trans_tails[tail] = _trans_line(line, lineno, pos, probs)
                broken |= (reward is not None) != on_edges or (delta is not None) != on_counter
            sources.append(pos[parts[1]])
            targets.append(parts[3])
            tails.append(tail)
            edge_lines.append(lineno)
        elif keyword == "state":
            key = tuple(parts[2:])
            sid = parts[1] if len(parts) > 1 else ""
            attrs = state_tails.get(key)
            if attrs is None or sid in pos or not _ID_RE.match(sid):
                attrs = state_tails[key] = _state_line(line, lineno, pos)
                broken |= (attrs[1] is not None) != on_states
            pos[sid] = len(ids)
            ids.append(sid)
            owner.append(attrs[0])
            state_rewards.append(attrs[1])
            state_lines.append(lineno)
        else:
            raise _syntax_error(line, lineno, 0, f"expected state|trans, found {_quoted(keyword)}")

    if sources != sorted(sources):
        # The edges grouped by source in state order, each source's in line order.
        order = sorted(range(len(sources)), key=sources.__getitem__)
        sources, targets, tails, edge_lines = ([c[e] for e in order] for c in (sources, targets, tails, edge_lines))
    bounds = [0] * (len(ids) + 1)
    for v in sources:
        bounds[v + 1] += 1
    bounds = list(accumulate(bounds))
    spans = list(map(slice, bounds, bounds[1:]))  # per state, where its edges are
    try:
        succ = tuple(map(pos.__getitem__, targets))
    except KeyError:  # a dangling target
        broken = True
    # Per edge its p= numeral, reward and delta; the probabilities of each
    # distinct run of numerals checked once per owner.
    numerals, rewards, deltas = zip(*map(trans_tails.__getitem__, tails)) if tails else ((),) * 3
    runs = map(numerals.__getitem__, spans)
    for who, run in set(zip(owner, runs)):
        broken = broken or bool(_successor_faults(who == "rand", tuple(map(probs.__getitem__, run))))
    prob = tuple(map(probs.__getitem__, numerals))
    if broken:
        edges = list(map(Transition, targets, prob, rewards, deltas))
        states = tuple(map(State, ids, owner, state_rewards, map(tuple, map(edges.__getitem__, spans))))
        game = OcSsg(states) if on_counter else Ssg(states, reward_location)
        line, _, i, k, message = min(
            (state_lines[i] if k is None else edge_lines[bounds[i] + k], rank, i, k, message)
            for rank, (i, k, message) in enumerate(_violations(game))
        )
        raise ModelSemanticError(_describe(game, i, k, message), line)

    state_rewards = tuple(state_rewards)
    weight = tuple(map(state_rewards.__getitem__, succ)) if on_states else deltas if on_counter else rewards
    columns = (tuple(map(column.__getitem__, spans)) for column in (succ, prob, weight))
    index = Index(tuple(ids), pos, tuple(owner), *columns)
    fields = {"index": index, "state_rewards": state_rewards, "violations": ()}
    if on_counter:
        return OcSsg._compiled(**fields)
    return Ssg._compiled(reward_location=reward_location, **fields)


def _fmt_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def print_model(game: Ssg | OcSsg) -> str:
    lines = []
    if isinstance(game, OcSsg):
        lines.append("ocssg")
    else:
        lines.append(f"ssg rewards={game.reward_location}")
    for sid, owner, reward, _ in game.states:
        entry = f"state {sid} owner={owner}"
        if reward is not None:
            entry += f" reward={reward}"
        lines.append(entry)
    for sid, _, _, edges in game.states:
        for target, prob, reward, delta in edges:
            entry = f"trans {sid} -> {target}"
            if prob is not None:
                entry += f" p={_fmt_fraction(prob)}"
            if reward is not None:
                entry += f" reward={reward}"
            if delta is not None:
                entry += f" delta={delta}"
            lines.append(entry)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Translations


def fix_strategies(
    game: Ssg | OcSsg,
    max_strategy: PureMemorylessStrategy | None = None,
    min_strategy: PureMemorylessStrategy | None = None,
):
    """Substitute pure memoryless choices; substituted states become rand.

    Fixing both players on a two-player game yields a chain; fixing one
    player yields a one-player residual for the other.
    """
    by_player = {}
    for strat in (max_strategy, min_strategy):
        if strat is not None:
            strat.validate_for(game)
            by_player[strat.player] = strat
    states = []
    for s in game.states:
        strat = by_player.get(s.owner)
        if strat is not None:
            t = s.transitions[strat.choice[s.id]]
            s = s._replace(owner="rand", transitions=(t._replace(prob=_ONE),))
        states.append(s)
    return replace(game, states=tuple(states))
