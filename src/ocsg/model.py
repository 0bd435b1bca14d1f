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

``p=`` is required exactly for transitions leaving a rand state, ``reward=``
exactly where ``reward_location`` says, ``delta=`` exactly in ocssg files.
``print_model`` emits this format bit-exactly, probabilities in lowest terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

OWNERS = ("max", "min", "rand")
REWARD_VALUES = (-1, 0, 1)

ON_STATES = "states"
ON_TRANSITIONS = "transitions"

_ID_RE = re.compile(r"[A-Za-z0-9_.@+'\-]+\Z")


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


@dataclass(frozen=True)
class Transition:
    target: str
    prob: Fraction | None = None
    reward: int | None = None
    delta: int | None = None


@dataclass(frozen=True)
class State:
    id: str
    owner: str
    reward: int | None = None
    transitions: tuple[Transition, ...] = ()


class _GameOps:
    """Shared helpers; subclasses carry a ``states`` tuple."""

    states: tuple[State, ...]

    @cached_property
    def by_id(self) -> dict[str, State]:
        return {s.id: s for s in self.states}

    @cached_property
    def predecessors(self) -> dict[str, list[tuple[str, int]]]:
        """State id -> (source id, edge index) of every edge entering it."""
        preds: dict[str, list[tuple[str, int]]] = {s.id: [] for s in self.states}
        for s in self.states:
            for k, t in enumerate(s.transitions):
                preds[t.target].append((s.id, k))
        return preds

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """``validate`` of this game, computed once; ``check_valid`` reads it."""
        return tuple(validate(self))

    def state(self, state_id: str) -> State:
        return self.by_id[state_id]

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.states)

    def controlled_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.states if s.owner != "rand")

    def owner_ids(self, owner: str) -> tuple[str, ...]:
        return tuple(s.id for s in self.states if s.owner == owner)

    def successors(self, state_id: str) -> tuple[str, ...]:
        return tuple(t.target for t in self.by_id[state_id].transitions)

    def is_chain(self) -> bool:
        return all(s.owner == "rand" for s in self.states)


@dataclass(frozen=True, eq=True)
class Ssg(_GameOps):
    states: tuple[State, ...]
    reward_location: str = ON_STATES

    def with_states(self, states: tuple[State, ...]) -> "Ssg":
        return Ssg(states=states, reward_location=self.reward_location)


@dataclass(frozen=True, eq=True)
class OcSsg(_GameOps):
    states: tuple[State, ...]

    def with_states(self, states: tuple[State, ...]) -> "OcSsg":
        return OcSsg(states=states)


@dataclass(frozen=True)
class PureMemorylessStrategy:
    """One player's deterministic choice map: state id -> transition index."""

    player: str
    choice: dict[str, int]

    def validate_for(self, game: Ssg | OcSsg) -> None:
        owned = [s for s in game.states if s.owner == self.player]
        if len(owned) != len(self.choice) or any(s.id not in self.choice for s in owned):
            ids = {s.id for s in owned}
            missing = ids - set(self.choice)
            extra = set(self.choice) - ids
            raise ValueError(f"strategy domain mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for s in owned:
            if not 0 <= self.choice[s.id] < len(s.transitions):
                raise ValueError(f"invalid transition index {self.choice[s.id]} at {s.id}")


@dataclass(frozen=True)
class FiniteMemoryStrategy:
    """Strategy driven by a finite automaton that reads the edges of the run.

    ``update`` maps (memory, source state, transition index) to the next
    memory; ``choice`` maps (memory, owned state) to a transition index.
    Reported memory size is ``len(memory_states)``.
    """

    player: str
    memory_states: tuple
    initial_memory: object
    update: dict
    choice: dict

    @property
    def memory_size(self) -> int:
        return len(self.memory_states)

    def next_memory(self, memory, source: str, index: int):
        return self.update.get((memory, source, index), memory)

    def choose(self, memory, state_id: str) -> int:
        return self.choice[(memory, state_id)]


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

_ALL_KINDS = LIMIT_KINDS + ("term", "reach", "all-geq-zero")


@dataclass(frozen=True)
class Objective:
    kind: str
    j: int | None = None
    targets: frozenset[str] | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "term":
            if self.j is None or self.j < 1:
                raise ValueError("term objective requires j >= 1")
        elif self.kind == "reach":
            if not self.targets:
                raise ValueError("reach objective requires a nonempty target set")
        elif self.j is not None or self.targets is not None:
            raise ValueError(f"{self.kind} objective takes no parameters")

    @property
    def is_limit(self) -> bool:
        return self.kind in LIMIT_KINDS

    def complement(self) -> "Objective":
        return Objective(COMPLEMENT_KIND[self.kind])

    @staticmethod
    def term(j: int) -> "Objective":
        return Objective("term", j=j)

    @staticmethod
    def reach(targets) -> "Objective":
        return Objective("reach", targets=frozenset(targets))


LIMINF_MINUS_INF = Objective("liminf-minus-inf")
LIMINF_PLUS_INF = Objective("liminf-plus-inf")
LIMINF_GT_MINUS_INF = Objective("liminf-gt-minus-inf")
LIMINF_LT_PLUS_INF = Objective("liminf-lt-plus-inf")
MEAN_GT = Objective("mean-gt")
MEAN_LEQ = Objective("mean-leq")
ALL_GEQ_ZERO = Objective("all-geq-zero")

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


def validate(game: Ssg | OcSsg) -> list[str]:
    """Return human-readable invariant violations, empty list when well formed."""
    violations = []
    seen = set()
    for s in game.states:
        if s.id in seen:
            violations.append(f"{s.id}: duplicate state id")
        seen.add(s.id)
    ids = seen
    is_oc = isinstance(game, OcSsg)
    loc = None if is_oc else game.reward_location
    if not is_oc and loc not in (ON_STATES, ON_TRANSITIONS):
        violations.append(f"reward location {loc!r} invalid")

    for s in game.states:
        if s.owner not in OWNERS:
            violations.append(f"{s.id}: unknown owner {s.owner!r}")
        if not s.transitions:
            violations.append(f"{s.id}: no successor")
        if not is_oc and loc == ON_STATES:
            if s.reward is None:
                violations.append(f"{s.id}: missing state reward")
            elif s.reward not in REWARD_VALUES:
                violations.append(f"{s.id}: state reward {s.reward} outside {{-1,0,1}}")
        elif s.reward is not None:
            violations.append(f"{s.id}: unexpected state reward")

        total = Fraction(0)
        for k, t in enumerate(s.transitions):
            where = f"{s.id}[{k}]"
            if t.target not in ids:
                violations.append(f"{where}: dangling target {t.target!r}")
            if s.owner == "rand":
                if t.prob is None:
                    violations.append(f"{where}: missing probability")
                elif t.prob <= 0:
                    violations.append(f"{where}: positivity violated")
                else:
                    total += t.prob
            elif t.prob is not None:
                violations.append(f"{where}: probability on a controlled transition")
            if is_oc:
                if t.delta is None:
                    violations.append(f"{where}: missing delta")
                elif t.delta not in REWARD_VALUES:
                    violations.append(f"{where}: delta {t.delta} outside {{-1,0,1}}")
                if t.reward is not None:
                    violations.append(f"{where}: unexpected reward")
            else:
                if t.delta is not None:
                    violations.append(f"{where}: unexpected delta")
                if loc == ON_TRANSITIONS:
                    if t.reward is None:
                        violations.append(f"{where}: missing transition reward")
                    elif t.reward not in REWARD_VALUES:
                        violations.append(f"{where}: transition reward {t.reward} outside {{-1,0,1}}")
                elif t.reward is not None:
                    violations.append(f"{where}: unexpected transition reward")
        if s.owner == "rand" and all(t.prob is not None and t.prob > 0 for t in s.transitions) and s.transitions:
            if total != 1:
                violations.append(f"{s.id}: probabilities sum {total} != 1")
    return violations


def check_valid(game: Ssg | OcSsg) -> None:
    if game.violations:
        raise ModelSemanticError("; ".join(game.violations))


# ---------------------------------------------------------------------------
# Parsing and printing


def _tokens(line: str):
    """Yield (column, token) pairs, columns 1-based."""
    for m in re.finditer(r"\S+", line):
        yield m.start() + 1, m.group()


def _parse_attrs(parts, lineno, allowed):
    attrs = {}
    for col, tok in parts:
        if "=" not in tok:
            raise ModelSyntaxError(lineno, col, f"expected key=value, found {tok!r}")
        key, _, raw = tok.partition("=")
        if key not in allowed:
            raise ModelSyntaxError(lineno, col, f"unknown attribute {key!r}")
        if key in attrs:
            raise ModelSyntaxError(lineno, col, f"repeated attribute {key!r}")
        attrs[key] = (col, raw)
    return attrs


def _parse_int_reward(lineno, col, raw, what):
    try:
        value = int(raw)
    except ValueError:
        raise ModelSyntaxError(lineno, col, f"expected integer {what}, found {raw!r}") from None
    if value not in REWARD_VALUES:
        raise ModelSemanticError(f"{what} {value} outside {{-1,0,1}}", lineno)
    return value


def _parse_prob(lineno, col, raw):
    m = re.fullmatch(r"(\d+)(?:/(\d+))?", raw)
    if not m:
        raise ModelSyntaxError(lineno, col, f"expected probability num/den, found {raw!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ModelSemanticError("zero probability denominator", lineno)
    return Fraction(num, den)


def parse_model(text: str) -> Ssg | OcSsg:
    """Parse the text format; raises ModelSyntaxError / ModelSemanticError."""
    header = None
    reward_location = None
    owner_of: dict[str, str] = {}  # declaration order
    state_rewards: dict[str, int | None] = {}
    transitions: dict[str, list[Transition]] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = list(_tokens(line))
        col0, keyword = parts[0]

        if header is None:
            if keyword == "ssg":
                attrs = _parse_attrs(parts[1:], lineno, {"rewards"})
                if "rewards" not in attrs:
                    raise ModelSyntaxError(lineno, col0, "ssg header requires rewards=states|transitions")
                col, raw = attrs["rewards"]
                if raw not in (ON_STATES, ON_TRANSITIONS):
                    raise ModelSyntaxError(lineno, col, f"expected states|transitions, found {raw!r}")
                reward_location = raw
            elif keyword == "ocssg":
                if parts[1:]:
                    raise ModelSyntaxError(lineno, parts[1][0], "ocssg header takes no attributes")
            else:
                raise ModelSyntaxError(lineno, col0, f"expected header ssg|ocssg, found {keyword!r}")
            header = keyword
            continue

        if keyword == "state":
            if len(parts) < 2:
                raise ModelSyntaxError(lineno, col0, "expected state id")
            col_id, sid = parts[1]
            if not _ID_RE.match(sid):
                raise ModelSyntaxError(lineno, col_id, f"invalid state id {sid!r}")
            attrs = _parse_attrs(parts[2:], lineno, {"owner", "reward"})
            if "owner" not in attrs:
                raise ModelSyntaxError(lineno, col_id, "state line requires owner=max|min|rand")
            col, raw = attrs["owner"]
            if raw not in OWNERS:
                raise ModelSyntaxError(lineno, col, f"expected owner max|min|rand, found {raw!r}")
            if sid in owner_of:
                raise ModelSemanticError(f"{sid}: duplicate state id", lineno)
            reward = None
            if "reward" in attrs:
                rcol, rraw = attrs["reward"]
                reward = _parse_int_reward(lineno, rcol, rraw, "reward")
                if header == "ocssg" or reward_location != ON_STATES:
                    raise ModelSemanticError(f"{sid}: unexpected state reward", lineno)
            elif header == "ssg" and reward_location == ON_STATES:
                raise ModelSemanticError(f"{sid}: missing state reward", lineno)
            owner_of[sid] = raw
            state_rewards[sid] = reward
            transitions[sid] = []

        elif keyword == "trans":
            if len(parts) < 4 or parts[2][1] != "->":
                col = parts[2][0] if len(parts) > 2 else col0
                raise ModelSyntaxError(lineno, col, "expected trans <src> -> <dst>")
            _, src = parts[1]
            _, dst = parts[3]
            attrs = _parse_attrs(parts[4:], lineno, {"p", "reward", "delta"})
            owner = owner_of.get(src)
            if owner is None:
                raise ModelSemanticError(f"transition from undeclared state {src!r}", lineno)
            prob = reward = delta = None
            if "p" in attrs:
                pcol, praw = attrs["p"]
                prob = _parse_prob(lineno, pcol, praw)
                if owner != "rand":
                    raise ModelSemanticError(f"{src}: probability on a controlled transition", lineno)
            elif owner == "rand":
                raise ModelSemanticError(f"{src}: missing probability", lineno)
            if "reward" in attrs:
                rcol, rraw = attrs["reward"]
                reward = _parse_int_reward(lineno, rcol, rraw, "reward")
                if header == "ocssg" or reward_location != ON_TRANSITIONS:
                    raise ModelSemanticError(f"{src}: unexpected reward", lineno)
            elif header == "ssg" and reward_location == ON_TRANSITIONS:
                raise ModelSemanticError(f"{src}: missing transition reward", lineno)
            if "delta" in attrs:
                dcol, draw = attrs["delta"]
                delta = _parse_int_reward(lineno, dcol, draw, "delta")
                if header != "ocssg":
                    raise ModelSemanticError(f"{src}: unexpected delta", lineno)
            elif header == "ocssg":
                raise ModelSemanticError(f"{src}: missing delta", lineno)
            transitions[src].append(Transition(dst, prob=prob, reward=reward, delta=delta))

        else:
            raise ModelSyntaxError(lineno, col0, f"expected state|trans, found {keyword!r}")

    if header is None:
        raise ModelSyntaxError(1, 1, "empty input, expected header ssg|ocssg")

    states = tuple(
        State(sid, owner, reward=state_rewards[sid], transitions=tuple(transitions[sid]))
        for sid, owner in owner_of.items()
    )
    game = OcSsg(states) if header == "ocssg" else Ssg(states, reward_location=reward_location)
    check_valid(game)
    return game


def _fmt_prob(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def print_model(game: Ssg | OcSsg) -> str:
    lines = []
    if isinstance(game, OcSsg):
        lines.append("ocssg")
    else:
        lines.append(f"ssg rewards={game.reward_location}")
    for s in game.states:
        entry = f"state {s.id} owner={s.owner}"
        if s.reward is not None:
            entry += f" reward={s.reward}"
        lines.append(entry)
    for s in game.states:
        for t in s.transitions:
            entry = f"trans {s.id} -> {t.target}"
            if t.prob is not None:
                entry += f" p={_fmt_prob(t.prob)}"
            if t.reward is not None:
                entry += f" reward={t.reward}"
            if t.delta is not None:
                entry += f" delta={t.delta}"
            lines.append(entry)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Translations


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
    rewards = Ssg(states, reward_location=ON_TRANSITIONS)
    rewards.__dict__["violations"] = ()  # the reward view of a valid counter game is valid
    return rewards


def _fresh_id(base: str, taken: set[str]) -> str:
    candidate = base
    while candidate in taken:
        candidate += "'"
    taken.add(candidate)
    return candidate


def transition_to_state_rewards(game: Ssg) -> Ssg:
    """Push transition rewards onto fresh rand states along each edge.

    Each transition u -> v with reward rho becomes u -> aux -> v where aux
    carries state reward rho; original states get reward 0.  Accumulated
    reward sequences of corresponding runs agree at corresponding positions.
    """
    if game.reward_location != ON_TRANSITIONS:
        raise ValueError("expects rewards on transitions")
    check_valid(game)
    taken = set(game.ids())
    new_states: list[State] = []
    aux_states: list[State] = []
    for s in game.states:
        new_transitions = []
        for k, t in enumerate(s.transitions):
            aux_id = _fresh_id(f"{s.id}.t{k}", taken)
            aux_states.append(
                State(aux_id, "rand", reward=t.reward, transitions=(Transition(t.target, prob=Fraction(1)),))
            )
            new_transitions.append(Transition(aux_id, prob=t.prob))
        new_states.append(State(s.id, s.owner, reward=0, transitions=tuple(new_transitions)))
    return Ssg(tuple(new_states) + tuple(aux_states), reward_location=ON_STATES)


def state_to_transition_rewards(game: Ssg) -> Ssg:
    """Move state rewards onto incoming transitions (arrival increments).

    The accumulated sums of a run differ from the state-reward sums only by
    the constant initial-state reward, which no limit objective observes.
    """
    if game.reward_location != ON_STATES:
        raise ValueError("expects rewards on states")
    states = tuple(
        State(
            s.id,
            s.owner,
            reward=None,
            transitions=tuple(
                Transition(t.target, prob=t.prob, reward=game.state(t.target).reward) for t in s.transitions
            ),
        )
        for s in game.states
    )
    return Ssg(states, reward_location=ON_TRANSITIONS)


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
    new_states = []
    for s in game.states:
        strat = by_player.get(s.owner)
        if strat is None:
            new_states.append(s)
            continue
        t = s.transitions[strat.choice[s.id]]
        collapsed = Transition(t.target, prob=Fraction(1), reward=t.reward, delta=t.delta)
        new_states.append(State(s.id, "rand", reward=s.reward, transitions=(collapsed,)))
    return game.with_states(tuple(new_states))


def relabel_controlled(game, owner: str):
    """Give every controlled state the same owner label (probabilities kept)."""
    states = tuple(
        State(s.id, owner if s.owner != "rand" else "rand", reward=s.reward, transitions=s.transitions)
        for s in game.states
    )
    return game.with_states(states)


def step_reward(game: Ssg, source: State, transition: Transition) -> int:
    """Reward collected when the step ``source -> transition.target`` is taken."""
    if game.reward_location == ON_TRANSITIONS:
        return transition.reward
    return game.state(transition.target).reward

