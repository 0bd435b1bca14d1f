"""Answers that do not depend on the numbering.

The two-player loop breaks its ties by node and edge order, so the same
game under another numbering may take another path, and may refuse with
``NoCertificate`` where the first numbering answers.  It must never give
another value.  ``grids.renumber``, ``grids.swap_edges`` and
``grids.swap_owners`` rebuild a game with the same ids, so values compare
by id; under the owner swap the value of the complement objective is
1 minus the game's value.  A counter game's termination decisions,
value 1 and value 0, must not change under ``renumber`` either, at any
start and initial counter.

``dense-n18-f199-shuffled.ssg`` is the smallest refusal found: bench
``families._dense(18, 199)`` with ids ``s<v>``, its state and trans lines
in the node order of ``random.Random("18/199/2")``'s shuffle of
``range(18)``.  In file order it answers every objective.  Its oracle
values are pinned below: ``oracle.enumerate_solve`` takes about 7 s per
objective on it, too long to run here.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ocsg import ssg, termination
from ocsg.model import LIMIT_OBJECTIVES, parse_model

from conftest import DATA
from grids import arrival_counter_view, bench_families, exhaustive_games, renumber, swap_edges, swap_owners

REFUSAL = "alternating improvement revisited a Min strategy without a certified pair"

# ``oracle.enumerate_solve`` on the fixture: each objective's value-1 set;
# every other value is 0.
_BUT_S14 = frozenset(f"s{v}" for v in range(18)) - {"s14"}
FIXTURE_ORACLE = {
    "liminf-minus-inf": frozenset(),
    "liminf-plus-inf": _BUT_S14 - {"s6"},
    "liminf-gt-minus-inf": _BUT_S14,
    "liminf-lt-plus-inf": frozenset(),
    "mean-gt": _BUT_S14 - {"s6"},
    "mean-leq": frozenset(),
}
# The objectives on which the fixture refused when it was checked in.
FIXTURE_REFUSALS = {"liminf-plus-inf", "liminf-gt-minus-inf", "mean-gt"}


def test_the_18_state_refusal_never_gives_another_value():
    game = parse_model((DATA / "dense-n18-f199-shuffled.ssg").read_text())
    assert game.ids() == tuple(f"s{v}" for v in (4, 14, 8, 7, 2, 11, 12, 15, 9, 5, 1, 0, 10, 16, 17, 6, 13, 3))
    for objective in LIMIT_OBJECTIVES:
        ones = FIXTURE_ORACLE[objective.kind]
        try:
            result = ssg.solve_limit_ssg(game, objective).result
        except ssg.NoCertificate as exc:
            assert objective.kind in FIXTURE_REFUSALS and str(exc) == REFUSAL
            continue
        assert result.values == {sid: Fraction(sid in ones) for sid in game.ids()}, objective.kind
        assert result.value_one_set == ones


def _dense(n, fseed):
    return parse_model(bench_families().dense(n, fseed, None))


GRID = exhaustive_games()
GAMES = st.one_of(st.sampled_from(GRID), st.builds(_dense, st.integers(4, 16), st.integers(1, 400)))
VARIANTS = st.sampled_from(("renumber", "swap_edges", "swap_owners"))


def _answer(game, objective):
    """The values and value-1 set of the solve, or None if it refuses.  An
    answer's pair must be certified: the best response to each witness
    gives the returned values."""
    try:
        result = ssg.solve_limit_ssg(game, objective).result
    except ssg.NoCertificate:
        return None
    for witness in (result.witness_max, result.witness_min):
        assert ssg.best_response(game, witness, objective).values == result.values, (witness.player, objective.kind)
    return result.values, result.value_one_set


@settings(max_examples=300, deadline=None)
@given(GAMES, st.sampled_from(LIMIT_OBJECTIVES), VARIANTS, st.data())
def test_values_do_not_depend_on_the_numbering(game, objective, variant, data):
    answer = _answer(game, objective)
    if variant == "renumber":
        order = data.draw(st.permutations(range(len(game.ids()))), label="order")
        other = _answer(renumber(game, order), objective)
    elif variant == "swap_edges":
        other = _answer(swap_edges(game), objective)
    else:
        other = _answer(swap_owners(game), objective.complement())
        if other is not None:
            values, _ = other
            values = {sid: 1 - value for sid, value in values.items()}
            other = values, frozenset(sid for sid, value in values.items() if value == 1)
    if answer is not None and other is not None:
        assert other == answer


def _term_answers(game):
    """Per start and 1 <= j <= |V|+1 the value-1 decision (None where the
    liminf solve refuses) and the value-0 answer."""
    answers = {}
    for start in game.ids():
        for j in range(1, len(game.states) + 2):
            try:
                one = termination.decide_term_one(game, start, j)
            except ssg.NoCertificate:
                one = None
            answers[start, j] = one, termination.decide_term_zero(game, start, j)
    return answers


COUNTERS = st.one_of(
    st.sampled_from(GRID).map(arrival_counter_view),
    st.builds(lambda n, f: parse_model(bench_families().dense_counter(n, f, None)), st.integers(2, 6), st.integers(1, 400)),
    st.builds(lambda n, f: parse_model(bench_families().chance_counter(n, f, None)), st.integers(4, 6), st.integers(1, 400)),
)


@settings(max_examples=100, deadline=None)
@given(COUNTERS, st.data())
def test_termination_does_not_depend_on_the_numbering(game, data):
    order = data.draw(st.permutations(range(len(game.ids()))), label="order")
    answers, others = _term_answers(game), _term_answers(renumber(game, order))
    for key, (one, zero) in answers.items():
        other_one, other_zero = others[key]
        assert other_zero == zero, key
        if one is not None and other_one is not None:
            assert other_one == one, key
