from fractions import Fraction

import pytest

from ocsg import oracle, ssg, termination
from ocsg.model import LIMINF_MINUS_INF, LIMINF_PLUS_INF, MEAN_GT, parse_model
from ocsg.reduce import (
    NormalizationError,
    condon_to_limit,
    condon_to_termination,
    normalize_reach_instance,
)

from conftest import DEAD_SINK_TEXT
from grids import random_reach_instances

FAIR_COIN = parse_model(
    "ssg rewards=states\n"
    "state s owner=rand reward=0\nstate t owner=rand reward=0\nstate u owner=rand reward=0\n"
    "trans s -> t p=1/2\ntrans s -> u p=1/2\ntrans t -> t p=1/1\ntrans u -> u p=1/1\n"
)

DIRECT = parse_model(
    "ssg rewards=states\n"
    "state s owner=rand reward=0\nstate t owner=rand reward=0\nstate u owner=rand reward=0\n"
    "trans s -> t p=1/1\ntrans t -> t p=1/1\ntrans u -> u p=1/1\n"
)

THIRD = parse_model(
    "ssg rewards=states\n"
    "state s owner=rand reward=0\nstate t owner=rand reward=0\nstate u owner=rand reward=0\n"
    "trans s -> t p=1/3\ntrans s -> u p=2/3\ntrans t -> t p=1/1\ntrans u -> u p=1/1\n"
)


def test_reduction_shape():
    reduced = condon_to_limit(FAIR_COIN, "s", "t", "u")
    t = reduced.state("t")
    u = reduced.state("u")
    assert t.owner == "max" and u.owner == "max"
    assert t.reward == -1 and u.reward == 1
    assert [tr.target for tr in t.transitions] == ["s"]
    assert [tr.target for tr in u.transitions] == ["s"]
    assert all(s.reward == 0 for s in reduced.states if s.id not in ("t", "u"))


def test_fair_coin_contract():
    reduced = condon_to_limit(FAIR_COIN, "s", "t", "u")
    assert ssg.solve_limit_ssg(reduced, LIMINF_MINUS_INF).result.values["s"] == 1
    assert ssg.solve_limit_ssg(reduced, LIMINF_PLUS_INF).result.values["s"] == 0
    assert ssg.solve_limit_ssg(reduced, MEAN_GT).result.values["s"] == 0


def test_direct_hit_contract():
    reduced = condon_to_limit(DIRECT, "s", "t", "u")
    assert ssg.solve_limit_ssg(reduced, LIMINF_MINUS_INF).result.values["s"] == 1
    assert ssg.solve_limit_ssg(reduced, LIMINF_PLUS_INF).result.values["s"] == 0


def test_one_third_contract():
    reduced = condon_to_limit(THIRD, "s", "t", "u")
    assert ssg.solve_limit_ssg(reduced, LIMINF_MINUS_INF).result.values["s"] == 0
    assert ssg.solve_limit_ssg(reduced, LIMINF_PLUS_INF).result.values["s"] == 1


def test_dead_sinks_are_routed():
    reduced = condon_to_limit(parse_model(DEAD_SINK_TEXT), "s", "t", "u")
    lost = reduced.state("lost")
    assert [tr.target for tr in lost.transitions] == ["u"]


def test_normalization_violation_detected():
    game = parse_model(
        "ssg rewards=states\n"
        "state s owner=max reward=0\nstate t owner=rand reward=0\nstate u owner=rand reward=0\n"
        "trans s -> t\ntrans s -> s\ntrans t -> t p=1/1\ntrans u -> u p=1/1\n"
    )
    with pytest.raises(NormalizationError):
        condon_to_limit(game, "s", "t", "u")


def test_termination_reduction_fair_coin():
    counter, start, j = condon_to_termination(FAIR_COIN, "s", "t", "u")
    assert j == len(counter.states)
    assert termination.decide_term_one(counter, start, j).value_one is True


@pytest.mark.parametrize("j", [1.5, True])
def test_termination_reduction_requires_an_int_j(j):
    with pytest.raises(ValueError, match=f"^termination requires an int j, got {j}$"):
        condon_to_termination(FAIR_COIN, "s", "t", "u", j)


def test_termination_reduction_one_third():
    counter, start, j = condon_to_termination(THIRD, "s", "t", "u")
    assert termination.decide_term_one(counter, start, j).value_one is False


def test_termination_reduction_drifts_up():
    # Deterministic hit of t' keeps the counter climbing: value below 1.
    game = parse_model(
        "ssg rewards=states\n"
        "state s owner=rand reward=0\nstate t owner=rand reward=0\nstate u owner=rand reward=0\n"
        "trans s -> u p=1/1\ntrans t -> t p=1/1\ntrans u -> u p=1/1\n"
    )
    counter, start, j = condon_to_termination(game, "s", "t", "u")
    assert termination.decide_term_one(counter, start, j).value_one is False


def test_contract_on_seeded_instances():
    for game, s, t, u in random_reach_instances(20, seed=456):
        normalized = normalize_reach_instance(game, t, u)
        reduced = condon_to_limit(game, s, t, u)
        reach_t = oracle.enumerate_reach(normalized, {t}).values[s]
        reach_u = oracle.enumerate_reach(normalized, {u}).values[s]
        minus = ssg.solve_limit_ssg(reduced, LIMINF_MINUS_INF).result.values[s]
        plus = ssg.solve_limit_ssg(reduced, LIMINF_PLUS_INF).result.values[s]
        assert minus == (1 if reach_t >= Fraction(1, 2) else 0)
        assert plus == (1 if reach_u > Fraction(1, 2) else 0)
