import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ocsg import certify, oracle
from ocsg.model import (
    LIMINF_MINUS_INF,
    MEAN_GT,
    FiniteMemoryStrategy,
    ModelError,
    ModelSemanticError,
    ModelSyntaxError,
    Objective,
    OcSsg,
    PureMemorylessStrategy,
    Ssg,
    State,
    Transition,
    fix_strategies,
    parse_model,
    print_model,
    validate,
)

from conftest import DATA
from grids import oc_to_reward_ssg, random_games, reference_parse_model


def test_parse_minimal_ssg():
    game = parse_model("ssg rewards=states\nstate a owner=max reward=0\ntrans a -> a\n")
    assert isinstance(game, Ssg)
    assert game.ids() == ("a",)
    assert game.state("a").transitions == (Transition("a"),)


def test_parse_bad_probability_sum_reports_fraction():
    text = """ssg rewards=states
state r owner=rand reward=0
state x owner=rand reward=0
trans r -> x p=1/2
trans r -> r p=1/3
trans x -> x p=1/1
"""
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text)
    assert "5/6" in str(err.value)


def test_parse_five_state_example(five_state_game):
    assert isinstance(five_state_game, OcSsg)
    assert len(five_state_game.states) == 5
    assert sum(len(s.transitions) for s in five_state_game.states) == 7


def test_syntax_error_has_position():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("ssg rewards=states\nstate a owner=boss reward=0\n")
    assert err.value.line == 2
    assert err.value.column > 1


@pytest.mark.parametrize(
    "prob",
    ["7" * 4301 + "/9", "1/" + "3" * 5000, "0" * 4301 + "1"],
    ids=["long-numerator", "long-denominator", "leading-zeros"],
)
def test_oversized_probability_numeral_has_position(prob):
    text = f"ssg rewards=states\nstate r owner=rand reward=0\ntrans r -> r p={prob}\n"
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert (err.value.line, err.value.column) == (3, 14)
    assert "probability numeral too long" in str(err.value)


@pytest.mark.parametrize(
    "line,needle",
    [
        ("trans a -> b", "dangling"),
        ("trans a -> a reward=1", "unexpected reward"),
    ],
)
def test_semantic_errors(line, needle):
    text = f"ssg rewards=states\nstate a owner=max reward=0\n{line}\n"
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text)
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("ssg rewards=states\nstate a owner=max reward=0\ntrans a -> a\ntrans a -> b\n", 4,
         "a[1]: dangling target 'b'"),
        ("ssg rewards=states\nstate a owner=max reward=0\nstate b owner=max reward=0\ntrans a -> b\n", 3,
         "b: no successor"),
        ("ssg rewards=states\n# comment\nstate r owner=rand reward=0\ntrans r -> r p=1/2\ntrans r -> r p=1/3\n", 3,
         "r: probabilities sum 5/6 != 1"),
        ("ocssg\nstate r owner=rand\ntrans r -> r p=1/1 delta=0\ntrans r -> r p=0/1 delta=1\n", 4,
         "r[1]: positivity violated"),
    ],
    ids=["dangling-target", "no-successor", "probability-sum", "positivity"],
)
def test_whole_model_rules_report_their_line(text, line, message):
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_probability_sum_too_long_to_print_gives_a_short_error():
    # Each numeral converts, but the sum's numerator has one digit more than int() prints.
    limit = sys.get_int_max_str_digits()
    text = f"ocssg\nstate r owner=rand\ntrans r -> r p=1/2 delta=1\ntrans r -> r p=5{'0' * (limit - 1)} delta=-1\n"
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text)
    assert err.value.line == 2
    assert str(err.value).startswith("line 2: r: probabilities sum <over")
    assert len(str(err.value)) < 120


def test_the_first_offending_line_is_reported():
    # validate lists a's edge before b's; b's edge sits on the earlier line.
    text = "ssg rewards=states\nstate a owner=max reward=0\nstate b owner=max\ntrans b -> c\ntrans a -> a reward=1\n"
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text.replace("state b owner=max", "state b owner=max reward=0"))
    assert str(err.value) == "line 4: b[0]: dangling target 'c'"
    # b now has no successor and no reward, both on its state line: validate's
    # order breaks the tie.
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text.replace("trans b -> c\n", ""))
    assert str(err.value) == "line 3: b: no successor"


@pytest.mark.parametrize("digits", [5000, 100])
@pytest.mark.parametrize(
    "template,line",
    [
        ("ssg rewards=states\nstate a owner=max reward={}\ntrans a -> a\n", 2),
        ("ssg rewards=transitions\nstate a owner=max\ntrans a -> a reward={}\n", 3),
        ("ocssg\nstate a owner=max\ntrans a -> a delta={}\n", 3),
    ],
    ids=["state-reward", "transition-reward", "delta"],
)
def test_long_integer_numerals_give_short_positioned_errors(template, line, digits):
    with pytest.raises(ModelError) as err:
        parse_model(template.format("7" * digits))
    assert err.value.line == line
    if isinstance(err.value, ModelSyntaxError):
        assert err.value.column > 1
    assert len(str(err.value)) < 120


@pytest.mark.parametrize("length", [5000, 100])
@pytest.mark.parametrize(
    "template,line,column",
    [
        ("ssg rewards=states\nstate a owner=max reward=0\ntrans a -> {ok}\n", 3, None),
        ("ssg rewards=states\nstate a owner=max reward=0\ntrans a -> {bad}\n", 3, 12),
        ("ssg rewards=states\nstate {bad} owner=max reward=0\n", 2, 7),
        ("ssg rewards=states\nstate a owner=max reward=0 {ok}=1\ntrans a -> a\n", 2, 28),
        ("ssg rewards=states\nstate {ok} owner=max reward=0\n", 2, None),
        ("ssg rewards=states\nstate {ok} owner=max reward=0\ntrans {ok} -> {ok}\nstate {ok} owner=max reward=0\n", 4, None),
        ("ssg rewards=states\nstate a owner=max reward=0\ntrans {ok} -> a\n", 3, None),
        ("ssg rewards=states\nstate a owner=max reward=0\n{ok} a -> a\n", 3, 1),
    ],
    ids=["dangling-target", "bad-target", "bad-state-id", "unknown-key", "no-successor", "duplicate-id",
         "undeclared-source", "unknown-keyword"],
)
def test_long_ids_and_keys_give_short_positioned_errors(template, line, column, length):
    with pytest.raises(ModelError) as err:
        parse_model(template.format(ok="b" * length, bad="$" * length))
    assert err.value.line == line
    if column is None:
        assert isinstance(err.value, ModelSemanticError)
    else:
        assert isinstance(err.value, ModelSyntaxError) and err.value.column == column
    assert len(str(err.value)) < 120


def _cycle_text(ids):
    states = "".join(f"state {sid} owner=max reward=0\n" for sid in ids)
    edges = "".join(f"trans {sid} -> {ids[(i + 1) % len(ids)]}\n" for i, sid in enumerate(ids))
    return "ssg rewards=states\n" + states + edges


@pytest.mark.parametrize(
    "ids, choice, message",
    [
        (["x" * 5000], {}, "strategy domain mismatch: missing 1 [xxxxxxxxxxxxxxxxxxxx...], extra 0 []"),
        ([f"s{i}" for i in range(3000)], {}, "strategy domain mismatch: missing 3000 [s0, s1, s10, ...], extra 0 []"),
        (
            [f"s{i}" for i in range(3000)],
            {"s0": 0, "y" * 5000: 0, "z": 0},
            "strategy domain mismatch: missing 2999 [s1, s10, s100, ...], extra 2 [yyyyyyyyyyyyyyyyyyyy..., z]",
        ),
    ],
    ids=["long-id", "3000-states", "both-sides"],
)
def test_strategy_domain_mismatch_is_counted_and_clipped(ids, choice, message):
    game = parse_model(_cycle_text(ids))
    with pytest.raises(ValueError) as err:
        PureMemorylessStrategy("max", choice).validate_for(game)
    assert str(err.value) == message and len(message) < 300


def test_missing_delta_rejected():
    with pytest.raises(ModelSemanticError) as err:
        parse_model("ocssg\nstate a owner=max\ntrans a -> a\n")
    assert "missing delta" in str(err.value)


def test_missing_probability_rejected():
    with pytest.raises(ModelSemanticError) as err:
        parse_model("ocssg\nstate a owner=rand\ntrans a -> a delta=0\n")
    assert "missing probability" in str(err.value)


def test_duplicate_state_rejected():
    text = "ssg rewards=states\nstate a owner=max reward=0\nstate a owner=min reward=0\ntrans a -> a\n"
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text)
    assert "duplicate" in str(err.value)


def test_validate_no_successor():
    game = Ssg((State("a", "max", reward=0),), reward_location="states")
    assert any("no successor" in v for v in validate(game))


def test_validate_zero_probability_edge():
    game = Ssg(
        (
            State(
                "r",
                "rand",
                reward=0,
                transitions=(Transition("r", prob=Fraction(0)), Transition("r", prob=Fraction(1))),
            ),
        ),
        reward_location="states",
    )
    assert any("positivity" in v for v in validate(game))


def test_validate_reports_an_id_the_format_cannot_hold():
    game = Ssg((State("a b", "max", transitions=(Transition("a b", reward=0),)),), "transitions")
    assert validate(game) == ["a b: invalid state id 'a b'"]
    with pytest.raises(ModelSyntaxError):
        parse_model(print_model(game))
    # An id that is not a string is reported too, not raised on.
    game = Ssg((State(1, "max", transitions=(Transition(1, reward=0),)),), "transitions")
    assert validate(game) == ["1: invalid state id '1'"]
    # So is a target that is not a string.
    game = Ssg((State("a", "max", transitions=(Transition(1, reward=0),)),), "transitions")
    assert validate(game) == ["a[0]: dangling target '1'"]


_ID_CHARS = "a1_.@+'-"


# Weights equal to one of -1, 0, 1 that are not ints.
_NOT_INT_WEIGHTS = (1.0, 0.0, True, False)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(alphabet=_ID_CHARS + " #=>\t", max_size=3), min_size=1, max_size=4),
    st.sampled_from(("states", "transitions", "ocssg")),
    st.randoms(),
)
def test_every_valid_game_prints_text_that_parses_back(ids, form, rng):
    # Ids drawn from the format's characters and a few it cannot hold, and
    # weights (state reward, transition reward or delta) drawn from -1, 0,
    # 1 and values equal to them that are not ints: an id outside the
    # format and a weight that is not an int are reported, and a game that
    # validates prints a text that parses back equal.
    def weight(where):
        return rng.choice((-1, 0, 1) + _NOT_INT_WEIGHTS) if form == where else None

    states = tuple(
        State(
            sid,
            rng.choice(("max", "min")),
            reward=weight("states"),
            transitions=(Transition(rng.choice(ids), reward=weight("transitions"), delta=weight("ocssg")),),
        )
        for sid in ids
    )
    game = OcSsg(states) if form == "ocssg" else Ssg(states, form)
    bad = {sid for sid in ids if not sid or set(sid) - set(_ID_CHARS)}
    violations = validate(game)
    assert {sid for sid in ids if any(v.endswith(f"invalid state id {sid!r}") for v in violations)} == bad
    weights = [w for s in states for w in (s.reward, s.transitions[0].reward, s.transitions[0].delta) if w is not None]
    assert sum(v.endswith("is not an int") for v in violations) == sum(type(w) is not int for w in weights)
    if not violations:
        assert parse_model(print_model(game)) == game


def test_validate_well_formed_empty(five_state_game):
    assert validate(five_state_game) == []


def test_round_trip_fixed_examples(five_state_game, fair_walk):
    for game in (five_state_game, fair_walk):
        assert parse_model(print_model(game)) == game


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_random_models(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    loc = data.draw(st.sampled_from(["states", "transitions", "ocssg"]))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    game = random_games(1, sizes=(n,), seed=seed, reward_location="states" if loc == "ocssg" else loc)[0]
    if loc == "ocssg":
        game = OcSsg(
            tuple(
                State(
                    s.id,
                    s.owner,
                    transitions=tuple(
                        Transition(t.target, prob=t.prob, delta=((len(s.id) + 2 * k) % 3) - 1)
                        for k, t in enumerate(s.transitions)
                    ),
                )
                for s in game.states
            )
        )
    assert parse_model(print_model(game)) == game


def _large_counter_game(n: int, seed: int) -> tuple[OcSsg, str]:
    """A seeded n-state counter game and its text: rand states step by
    1/2-1/2 or by one ``p=1/1`` edge, controlled states take 1 or 2 edges."""
    rng = random.Random(seed)
    ids = [f"c{i}" for i in range(n)]
    states = []
    for sid in ids:
        owner = rng.choice(("max", "min", "rand"))
        targets = rng.sample(ids, rng.choice((1, 2)))
        if owner != "rand":
            probs = [None] * len(targets)
        elif len(targets) == 1:
            probs = [Fraction(1)]
        else:
            probs = [Fraction(1, 2)] * 2
        trans = tuple(Transition(t, prob=p, delta=rng.choice((-1, 0, 1))) for t, p in zip(targets, probs))
        states.append(State(sid, owner, transitions=trans))
    lines = ["ocssg"] + [f"state {s.id} owner={s.owner}" for s in states]
    for s in states:
        for t in s.transitions:
            prob = "" if t.prob is None else f" p={t.prob.numerator}/{t.prob.denominator}"
            lines.append(f"trans {s.id} -> {t.target}{prob} delta={t.delta}")
    return OcSsg(tuple(states)), "\n".join(lines) + "\n"


def test_round_trip_large_counter_game():
    game, text = _large_counter_game(4000, seed=17)
    parsed = parse_model(text)
    assert parsed == game
    assert print_model(parsed) == text
    assert parse_model(print_model(game)) == game
    # Each distinct p= numeral is parsed once per text: equal tokens share one Fraction.
    shared = {}
    for s in parsed.states:
        for t in s.transitions:
            if t.prob is not None:
                assert shared.setdefault(t.prob, t.prob) is t.prob
    assert set(shared) == {Fraction(1, 2), Fraction(1)}


def _printed_texts():
    """``print_model`` of seeded random grid games of each flavour (the
    counter games take their deltas from the reward of the state each edge
    enters), and the text of every data model."""
    texts = []
    for seed, location in enumerate(("states", "transitions", "states") * 20):
        game = random_games(1, sizes=(1, 2, 3, 4, 6, 9), seed=seed, reward_location=location)[0]
        if seed % 3 == 2:
            game = OcSsg(
                tuple(
                    State(s.id, s.owner, transitions=tuple(
                        Transition(t.target, prob=t.prob, delta=game.state(t.target).reward) for t in s.transitions
                    ))
                    for s in game.states
                )
            )
        texts.append(print_model(game))
    return texts + [path.read_text() for path in sorted(DATA.glob("*.*ssg"))]


def test_printer_form_is_compiled_straight_into_the_index():
    # `print_model`'s text is compiled straight into the index: the game
    # holds no states until they are read, has the reference parser's index
    # columns and state rewards, keeps every rule and prints the text back.
    for text in _printed_texts():
        game = parse_model(text)
        assert "states" not in vars(game), text
        reference = reference_parse_model(text)
        for column in ("ids", "pos", "owner", "succ", "prob", "weight"):
            assert getattr(game.index, column) == getattr(reference.index, column), (column, text)
        assert game.state_rewards == reference.state_rewards
        assert validate(game) == [] and print_model(game) == text
        assert game == reference and game.states == reference.states


def test_probabilities_printed_in_lowest_terms():
    game = Ssg(
        (
            State(
                "r",
                "rand",
                reward=0,
                transitions=(Transition("r", prob=Fraction(2, 4)), Transition("r", prob=Fraction(4, 8))),
            ),
        ),
        reward_location="states",
    )
    assert "p=1/2" in print_model(game)


def test_oc_to_reward_ssg_preserves_shape(five_state_game):
    rewards = oc_to_reward_ssg(five_state_game)
    assert rewards.reward_location == "transitions"
    assert len(rewards.states) == len(five_state_game.states)
    for before, after in zip(five_state_game.states, rewards.states):
        assert len(before.transitions) == len(after.transitions)
        for tb, ta in zip(before.transitions, after.transitions):
            assert ta.reward == tb.delta
            assert ta.delta is None


def test_oc_to_reward_appendix_rewards(five_state_game):
    rewards = oc_to_reward_ssg(five_state_game)
    v = rewards.state("v")
    assert [t.reward for t in v.transitions] == [0, -1]
    assert [t.reward for t in rewards.state("back").transitions] == [0, 1]


def test_fix_strategies_substitutes_choice(five_state_game):
    chain = fix_strategies(five_state_game, min_strategy=PureMemorylessStrategy("min", {"v": 1}))
    assert chain.is_chain()
    v = chain.state("v")
    assert len(v.transitions) == 1
    assert v.transitions[0].target == "low"
    assert v.transitions[0].prob == 1


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective.term(0)
    with pytest.raises(ValueError):
        Objective("nonsense")
    assert Objective.term(3).j == 3


@pytest.mark.parametrize("j", [1.5, True, "2"])
def test_term_objective_requires_an_int_j(j):
    with pytest.raises(ValueError, match=f"^term objective requires an int j, got {re.escape(repr(j))}$"):
        Objective.term(j)


def test_limit_entries_reject_a_termination_objective():
    # One check, one message, at every public entry of the limit solvers.
    from ocsg import certify, mdp, oracle, ssg

    game = parse_model("ssg rewards=transitions\nstate a owner=max\nstate b owner=rand\ntrans a -> b reward=0\n"
                       "trans a -> a reward=1\ntrans b -> b p=1/1 reward=-1\n")
    term = Objective.term(1)
    entries = (
        lambda: ssg.solve_limit_ssg(game, term),
        lambda: ssg.best_response(game, PureMemorylessStrategy("min", {}), term),
        lambda: mdp.quantitative_limit(game, term),
        lambda: mdp.limit_on_index(game.index, term),
        lambda: oracle.enumerate_solve(game, term),
        lambda: certify.chain_values(game.index, {0: 0}, term),
    )
    for entry in entries:
        with pytest.raises(ValueError) as raised:
            entry()
        assert str(raised.value) == "not a limit objective: term"
    # The complement is a limit-objective notion too: the same check.
    with pytest.raises(ValueError, match="^not a limit objective: term$"):
        term.complement()


@pytest.mark.parametrize("k", [1.0, True], ids=["float", "bool"])
def test_strategy_edge_index_must_be_an_int(k):
    # 1.0 and True compare equal to an edge index, but a float cannot index
    # the edge tuples and a bool would silently act as edge 1.
    from ocsg import ssg

    game = parse_model((DATA / "dense-n7-f36.ssg").read_text())
    strategy = PureMemorylessStrategy("max", {sid: k for sid in game.owner_ids("max")})
    message = f"^invalid transition index {k} at {game.owner_ids('max')[0]}$"
    with pytest.raises(ValueError, match=message):
        strategy.validate_for(game)
    with pytest.raises(ValueError, match=message):
        ssg.best_response(game, strategy, MEAN_GT)
    with pytest.raises(ValueError, match=message):
        fix_strategies(game, strategy)


def test_strategy_player_must_be_max_or_min():
    # A misspelt player fixes no state: without the check a best response
    # would solve the two-player index as one player's game.
    from ocsg import ssg

    game = parse_model("ssg rewards=transitions\nstate a owner=max\nstate b owner=min\n"
                       "trans a -> b reward=0\ntrans a -> a reward=1\ntrans b -> a reward=-1\ntrans b -> b reward=0\n")
    for player in ("Max", "MIN", "rand", ""):
        strategy = PureMemorylessStrategy(player, {})
        with pytest.raises(ValueError, match="^strategy player must be max or min"):
            strategy.validate_for(game)
        with pytest.raises(ValueError, match="^strategy player must be max or min"):
            ssg.best_response(game, strategy, LIMINF_MINUS_INF)
        with pytest.raises(ValueError, match="^strategy player must be max or min"):
            fix_strategies(game, strategy)


# A 2-state counter game: Max at a, Min at b, two edges each.
_MEMORY_GAME_TEXT = (
    "ocssg\nstate a owner=max\nstate b owner=min\n"
    "trans a -> b delta=-1\ntrans a -> a delta=1\ntrans b -> a delta=0\ntrans b -> b delta=1\n"
)
_DELTA = {"a": (-1, 1), "b": (0, 1)}
_BANDS = {"b": ((0, 0), (1, 1))}


def _memory_strategy(**fields):
    base = {"player": "min", "lo": 0, "hi": 2, "initial_memory": 0, "delta": _DELTA, "bands": _BANDS}
    return FiniteMemoryStrategy(**{**base, **fields})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"player": "x"}, "strategy player must be max or min, got 'x'"),
        ({"initial_memory": 9}, "initial memory 9 outside 0..2"),
        ({"initial_memory": -1}, "initial memory -1 outside 0..2"),
        ({"bands": {}}, "strategy bands missing 1 [b]"),
        ({"bands": {"b": ()}}, "bands at b must start at 0 and rise strictly to at most 2"),
        ({"bands": {"b": ((1, 0),)}}, "bands at b must start at 0 and rise strictly to at most 2"),
        ({"bands": {"b": ((0, 0), (0, 1))}}, "bands at b must start at 0 and rise strictly to at most 2"),
        ({"bands": {"b": ((0, 0), (3, 1))}}, "bands at b must start at 0 and rise strictly to at most 2"),
        ({"bands": {"b": ((0, 7),)}}, "invalid transition index 7 at b"),
        ({"bands": {"b": ((0, 0), (1, True))}}, "invalid transition index True at b"),
        ({"delta": {"a": (-1, 1)}}, "memory deltas missing or not one per edge at 1 [b]"),
        ({"delta": {"a": (-1,), "b": (0, 1)}}, "memory deltas missing or not one per edge at 1 [a]"),
    ],
    ids=[
        "player", "memory-above", "memory-below", "no-band", "empty-bands", "first-above-lo",
        "not-rising", "above-hi", "edge-out-of-range", "bool-edge", "no-delta", "short-delta",
    ],
)
def test_finite_memory_strategy_is_checked_before_use(fields, message):
    # Unchecked, these raise a bare KeyError or IndexError mid-play, or, for
    # a memory outside lo..hi or a first band above lo, play a wrong edge.
    game = parse_model(_MEMORY_GAME_TEXT)
    strategy = _memory_strategy(**fields)
    sigma = PureMemorylessStrategy("max", {"a": 0})
    for check in (
        lambda: strategy.validate_for(game),
        lambda: oracle.simulate(game, [sigma, strategy], "a", 5, 2, seed=1),
        lambda: certify.product_with_strategy(game, strategy, "a"),
    ):
        with pytest.raises(ValueError) as raised:
            check()
        assert str(raised.value) == message


def test_finite_memory_strategy_checks_pass_a_well_formed_one():
    game = parse_model(_MEMORY_GAME_TEXT)
    # The memoryless form (lo = hi) reads no delta.
    memoryless = _memory_strategy(lo=1, hi=1, initial_memory=1, delta={}, bands={"b": ((1, 0),)})
    for strategy in (_memory_strategy(), memoryless):
        strategy.validate_for(game)
        oracle.simulate(game, [PureMemorylessStrategy("max", {"a": 0}), strategy], "a", 5, 2, seed=1)
        product, start = certify.product_with_strategy(game, strategy, "a")
        assert start in product.ids()
    # Extra bands or deltas are never read, so they pass.
    _memory_strategy(bands={**_BANDS, "a": ((0, 0),)}, delta={**_DELTA, "z": ()}).validate_for(game)


def test_product_with_strategy_refuses_an_unknown_start():
    game = parse_model(_MEMORY_GAME_TEXT)
    for start, message in (("nowhere", "unknown state 'nowhere'"), ("x" * 5000, f"unknown state {'x' * 20!r}...")):
        with pytest.raises(ValueError) as raised:
            certify.product_with_strategy(game, _memory_strategy(), start)
        assert str(raised.value) == message
