"""Fuzzing ``parse_model`` with mutated model texts.

Valid texts are mutated by dropping or duplicating tokens and lines,
swapping keywords, writing long or odd numerals into attributes, long ids
and keys into tokens, and inserting stray characters.  Every result must be
a game or a ``ModelError`` that says where the fault is, in under 120
characters: a syntax error carries a line and a column, a semantic error
the line it concerns.  The same mutated texts are fed to
``ocsg solve`` and ``ocsg term``, which must answer or exit 2 with one
``error = ...`` line and an empty report.  With runs of odd whitespace
between their tokens and other line ends, they must also give
``parse_model`` and the reference parser of ``grids`` the same game or the
same error, and on a game the same ``Index`` columns and ``validate``
result; so must texts in ``print_model``'s form, texts just outside that
form, every data model and one printed text of each bench family, the
last two also spelled with tabs, ``\r\n`` line ends and comments.
"""

import io
import re
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings, strategies as st

from ocsg.cli import run
from ocsg.model import (
    LIMIT_KINDS,
    ModelError,
    ModelSemanticError,
    ModelSyntaxError,
    OcSsg,
    Ssg,
    parse_model,
    print_model,
    validate,
)

from conftest import DATA, FAIR_WALK_TEXT, FIVE_STATE_TEXT
from grids import bench_families, reference_parse_model

SEEDS = (
    FIVE_STATE_TEXT,
    FAIR_WALK_TEXT,
    "ssg rewards=states\n"
    "state s owner=rand reward=0\nstate t owner=max reward=1\nstate u owner=min reward=-1\n"
    "trans s -> t p=1/3\ntrans s -> u p=2/3\ntrans t -> t\ntrans t -> s\ntrans u -> u\n",
    "ssg rewards=transitions  # a comment\n"
    "state a owner=max\nstate b owner=rand\n"
    "trans a -> b reward=1\ntrans a -> a reward=-1\n"
    "trans b -> a p=1/2 reward=0\ntrans b -> b p=1/2 reward=1\n",
)

KEYWORDS = (
    "ssg", "ocssg", "state", "trans", "->", "owner=max", "owner=min", "owner=rand",
    "rewards=states", "rewards=transitions", "p=1/2", "p=1", "reward=1", "reward=0", "delta=-1", "delta=1",
)

ODD_NUMERALS = (
    "", "0", "-0", "+1", "-1", "2", "-2", "1_0", "1/0", "0/1", "00/001", "1/", "/1", "1//2", "3/2",
    "1e3", "0x1", "1.5", " 1", "٣", "٣/٤", "１", "1/½", "²", "nan", "inf",
)


def _long_numeral():
    digits = st.sampled_from("0123456789")
    length = st.integers(min_value=4290, max_value=4400)
    numeral = st.builds(lambda d, first, n: first + d * n, digits, st.sampled_from("0123456789"), length)
    return st.one_of(
        numeral,
        st.builds(lambda a, b: f"{a}/{b}", numeral, st.sampled_from(("1", "2", "7"))),
        st.builds(lambda a, b: f"{a}/{b}", st.sampled_from(("0", "1", "3")), numeral),
    )


NUMERALS = st.one_of(st.sampled_from(ODD_NUMERALS), _long_numeral())

# Long tokens of valid id characters and of characters no id may hold.
LONG_TOKENS = st.builds(lambda c, n: c * n, st.sampled_from(("b", "x_1.", "$", "a b")), st.integers(30, 5000))

# Numerals are drawn most often: the other mutations mostly break a line's
# syntax before any numeral on it is read.
MUTATIONS = ("numeral",) * 3 + ("long", "drop", "dup", "keyword", "stray", "drop-line", "dup-line")


def _mutate(data, lines):
    """Apply one drawn mutation to ``lines`` (a list of token lists)."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    if not lines:
        lines.append([])
    if kind == "numeral":
        i = data.draw(st.sampled_from([i for i, tokens in enumerate(lines) if len(tokens) > 1] or [0]))
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i]
    if kind == "drop-line":
        del lines[i]
    elif kind == "dup-line":
        lines.insert(i, list(tokens))
    elif kind == "keyword":
        j = data.draw(st.integers(0, len(tokens)))
        word = data.draw(st.sampled_from(KEYWORDS))
        if j < len(tokens) and data.draw(st.booleans()):
            tokens[j] = word
        else:
            tokens.insert(j, word)
    elif kind == "numeral":
        attributes = [j for j, tok in enumerate(tokens) if "=" in tok]
        value = data.draw(NUMERALS)
        if attributes:
            j = data.draw(st.sampled_from(attributes))
            tokens[j] = tokens[j].partition("=")[0] + "=" + value
        else:
            key = data.draw(st.sampled_from(("p", "reward", "delta")))
            tokens.append(f"{key}={value}")
    elif kind == "long":
        # A long id in place of a token, or a long key before an attribute's value.
        j = data.draw(st.integers(0, max(0, len(tokens) - 1)))
        value = data.draw(LONG_TOKENS)
        if j < len(tokens) and "=" in tokens[j] and data.draw(st.booleans()):
            tokens[j] = value + "=" + tokens[j].partition("=")[2]
        else:
            tokens[j:j + 1] = [value]
    elif kind == "stray":
        j = data.draw(st.integers(0, len(tokens)))
        tokens.insert(j, data.draw(st.text(min_size=1, max_size=3)))
    elif tokens:
        j = data.draw(st.integers(0, len(tokens) - 1))
        if kind == "drop":
            del tokens[j]
        else:
            tokens.insert(j, tokens[j])


def _mutated_text(data, seeds=SEEDS):
    text = data.draw(st.sampled_from(seeds))
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 4))):
        _mutate(data, lines)
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_models_parse_or_fail_with_a_position(data):
    text = _mutated_text(data)
    try:
        game = parse_model(text)
    except ModelError as exc:
        assert len(str(exc)) < 120, str(exc)[:300]
        physical = text.splitlines()
        if isinstance(exc, ModelSyntaxError):
            assert 1 <= exc.line <= max(1, len(physical))
            assert 1 <= exc.column <= max(1, len(physical[exc.line - 1]) if physical else 1)
        else:
            assert isinstance(exc, ModelSemanticError)
            assert exc.line is not None and 1 <= exc.line <= len(physical)
        return
    assert isinstance(game, (Ssg, OcSsg))


# Whitespace that may stand between tokens; a vertical tab also ends a line.
SEPARATORS = ("  ", "\t", "\x0b", "\u3000", " \t ")

# Line ends other than "\n" that `str.splitlines` also splits at.
LINE_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")

# One text of each flavour in `print_model`'s form.
PRINTED = (
    "ocssg\nstate s owner=rand\nstate t owner=max\n"
    "trans s -> t p=1/2 delta=1\ntrans s -> s p=1/2 delta=-1\ntrans t -> s delta=0\n",
    "ssg rewards=states\nstate s owner=rand reward=0\nstate t owner=min reward=1\n"
    "trans s -> t p=1/3\ntrans s -> s p=2/3\ntrans t -> t\ntrans t -> s\n",
    "ssg rewards=transitions\nstate a owner=max\nstate b owner=rand\n"
    "trans a -> b reward=1\ntrans a -> a reward=-1\ntrans b -> a p=1/2 reward=0\ntrans b -> b p=1/2 reward=1\n",
)

# Texts just outside that form: the printed counter game with other line
# ends, no final newline, blank lines, p= numerals the printer never
# writes, attributes out of the printer's order, a reward and a delta on
# one edge, a state line after trans lines, a duplicate state, a dangling
# target, probabilities summing to 3/2, trans lines not grouped by source
# in state order, a comment after one of two edges of a controlled state,
# and a commented state line of a state with no edge.
PRINTER_FORM_BOUNDARIES = tuple(PRINTED[0].replace("\n", end) for end in LINE_BREAKS) + (
    PRINTED[0][:-1],
    PRINTED[0].replace("\nstate t", "\n\nstate t") + "\n",
    PRINTED[0].replace("p=1/2 delta=1", "p=3 delta=1"),
    PRINTED[0].replace("p=1/2 delta=1", "p=1/0 delta=1"),
    PRINTED[0].replace("p=1/2 delta=1", "p=0/2 delta=1"),
    PRINTED[0].replace("p=1/2 delta=1", "p=02/04 delta=1"),
    PRINTED[0].replace("p=1/2 delta=1", "p=\u0661/\u0662 delta=1"),
    PRINTED[0].replace("p=1/2 delta=1", "delta=1 p=1/2"),
    PRINTED[1].replace("state s owner=rand reward=0", "state s reward=0 owner=rand"),
    PRINTED[0].replace("trans t -> s delta=0", "trans t -> s reward=0 delta=0"),
    PRINTED[0].replace("state t owner=max\n", "").replace("trans t", "state t owner=max\ntrans t"),
    PRINTED[0].replace("state t owner=max\n", "state t owner=max\nstate s owner=min\n"),
    PRINTED[0].replace("trans t -> s", "trans t -> u"),
    PRINTED[0].replace("p=1/2 delta=-1", "p=1/1 delta=-1"),
    "ocssg\nstate s owner=rand\nstate t owner=max\n"
    "trans s -> t p=1/2 delta=1\ntrans t -> s delta=0\ntrans s -> s p=1/2 delta=-1\n",
    "ocssg\nstate s owner=rand\nstate t owner=max\n"
    "trans t -> s delta=0\ntrans s -> t p=1/2 delta=1\ntrans s -> s p=1/2 delta=-1\n",
    "ssg rewards=states\nstate a owner=max reward=0\nstate b owner=min reward=1\n"
    "trans a -> b\ntrans b -> a\ntrans a -> a\n",
    PRINTED[1].replace("trans t -> s\n", "trans t -> s  # back\n"),
    PRINTED[0].replace("state t owner=max\n", "state t owner=max\nstate u owner=min  # no edge\n"),
)

# The seeds, and models that break validation rules (a zero, a missing and
# an excess probability, a probability on a controlled edge, a dangling
# target), so that the rules are compared on texts that pass the syntax checks.
DIFFERENTIAL_SEEDS = SEEDS + (
    "ssg rewards=states\nstate r owner=rand reward=0\nstate x owner=max reward=1\n"
    "trans r -> x p=0/1\ntrans r -> r p=1/1\ntrans x -> x\n",
    "ocssg\nstate r owner=rand\nstate x owner=min\n"
    "trans r -> x delta=1\ntrans r -> r p=2/3 delta=0\ntrans x -> y delta=-1\n",
    "ssg rewards=transitions\nstate r owner=rand\nstate x owner=max\n"
    "trans r -> x p=1/2 reward=0\ntrans r -> r p=2/3 reward=1\ntrans x -> x reward=1 p=1/1\n",
) + (
    # Trans lines that leave the parser's plain-line path: a reward or
    # delta spelled +1 or 01, p= numerals read for the first time, a
    # repeated p=, an undeclared source, a target declared later, and
    # trailing comments.
    "ssg rewards=transitions\nstate a owner=max\nstate b owner=rand\n"
    "trans a -> b reward=+1\ntrans a -> a reward=-1  # a loop\n"
    "trans b -> a p=2/4 reward=0\ntrans b -> b p=3/6 reward=1\n",
    "ocssg\nstate s owner=rand\nstate t owner=max\n"
    "trans s -> t p=1/2 delta=01\ntrans s -> s p=1/2 delta=-1 # back\ntrans t -> s delta=0\n",
    "ocssg\nstate s owner=rand\ntrans s -> s p=1/2 delta=1\ntrans s -> s p=1/2 p=1/2 delta=-1\n",
    "ocssg\nstate s owner=rand\ntrans s -> s p=1/2 delta=1\ntrans q -> s p=1/2 delta=-1\n",
    "ocssg\nstate s owner=rand\ntrans s -> s p=1/2 delta=1\ntrans s -> t p=1/2 delta=0\n"
    "state t owner=max\ntrans t -> s delta=1\n",
) + PRINTED + PRINTER_FORM_BOUNDARIES

INDEX_COLUMNS = ("ids", "pos", "owner", "succ", "prob", "weight")


def _respaced(data, text):
    """``text`` with some of its spaces replaced by drawn separators."""
    rng = data.draw(st.randoms(use_true_random=False))
    return "".join(rng.choice(SEPARATORS) if c == " " and rng.random() < 0.3 else c for c in text)


def _outcome(parse, text):
    try:
        return parse(text)
    except ModelError as exc:
        return type(exc), str(exc), exc.line, getattr(exc, "column", None)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_parser_agrees_with_the_reference_parser(data):
    if data.draw(st.booleans()):
        text = _mutated_text(data, DIFFERENTIAL_SEEDS)
    else:
        text = data.draw(st.sampled_from(DIFFERENTIAL_SEEDS))
    text = _respaced(data, text)
    if data.draw(st.booleans()):
        text = text.replace("\n", data.draw(st.sampled_from(LINE_BREAKS)))
    _assert_parsers_agree(text)


def _assert_parsers_agree(text):
    outcome, reference = _outcome(parse_model, text), _outcome(reference_parse_model, text)
    assert outcome == reference
    if isinstance(outcome, (Ssg, OcSsg)):
        # The parsed game's index is compiled from the text, the reference
        # game's from its states.
        for column in INDEX_COLUMNS:
            assert getattr(outcome.index, column) == getattr(reference.index, column), column
        assert validate(outcome) == validate(reference) == []


def test_printer_form_boundaries_agree_with_the_reference_parser():
    # The printed texts and the texts just outside their form give the
    # reference parser's game or error; a game holds no states until they
    # are read, and its print parses back to it, the printed texts' print
    # being the text itself.
    errors = 0
    for text in PRINTED + PRINTER_FORM_BOUNDARIES:
        outcome = _outcome(parse_model, text)
        if isinstance(outcome, tuple):
            errors += 1
        else:
            assert "states" not in vars(outcome), text
            printed = print_model(outcome)
            assert printed == text or text not in PRINTED
            assert parse_model(printed) == outcome
        _assert_parsers_agree(text)
    assert errors == 8


def _respelled(text):
    """``text`` with its tokens tab-separated, ``\r\n`` line ends and a
    comment ending every line."""
    return "".join("\t".join(line.split()) + "\t# c\r\n" for line in text.splitlines())


def _fixed_texts():
    """Every data model and one printed text of each bench family (n <= 200)."""
    families = bench_families()
    return [path.read_text() for path in sorted(DATA.glob("*.*ssg"))] + [
        families.dense(12, 1, None),
        families.dense_mdp(20, 1, None),
        families.dense_counter(24, 7, None),
        families.ring(6, None),
        families.ruin(100, None),
        families.chance_counter(20, 1, None),
        families.drift_counter(200, 1, None, balanced=False),
        families.drift_counter(200, 1, None, balanced=True),
        families.reach_instance(8, 1, None),
    ]


@pytest.mark.parametrize("respell", (False, True), ids=("printed", "respelled"))
def test_fixed_texts_agree_with_the_reference_parser(respell):
    for text in _fixed_texts():
        if respell:
            text = _respelled(text)
        _assert_parsers_agree(text)
        outcome, reference = parse_model(text), reference_parse_model(text)
        assert outcome.state_rewards == reference.state_rewards, text[:40]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_models_through_the_cli_answer_or_fail_cleanly(tmp_path_factory, data):
    # Some examples keep a seed as it is, so the solvers run too.
    text = _mutated_text(data) if data.draw(st.booleans()) else data.draw(st.sampled_from(SEEDS))
    path = tmp_path_factory.getbasetemp() / "fuzzed-model.txt"
    path.write_text(text, encoding="utf-8")
    declared = [tokens[1] for tokens in map(str.split, text.splitlines()) if tokens[:1] == ["state"] and len(tokens) > 1]
    state = data.draw(st.sampled_from(declared or ["nowhere"]))
    commands = (
        ["solve", str(path), "--objective", data.draw(st.sampled_from(LIMIT_KINDS))],
        ["term", str(path), "--state", state, "--j", str(data.draw(st.integers(0, 3))),
         "--qual", data.draw(st.sampled_from(("one", "zero")))],
    )
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            code = run(argv, out)
        assert code in (0, 2), (argv, code)
        if code == 2:
            assert out.getvalue() == "", argv
            assert re.fullmatch(r"error = [^\n]*\n", err.getvalue()), (argv, err.getvalue())
        else:
            assert err.getvalue() == "" and out.getvalue(), argv
