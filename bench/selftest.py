"""Tests of the benchmark itself (not collected by the package suite).

    python -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import families  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ocsg import oracle  # noqa: E402
from ocsg.model import Objective, parse_model  # noqa: E402

REFS = json.loads((HERE / "refs.json").read_text())


def _fmt(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(workload):
    first = [(op.name, op.instance.text) for op in workloads.build(workload, 5)]
    again = [(op.name, op.instance.text) for op in workloads.build(workload, 5)]
    other = [(op.name, op.instance.text) for op in workloads.build(workload, 6)]
    assert first == again
    assert first != other


def test_seed_only_renames_states():
    canonical = parse_model(families.dense(12, 3, None))
    seeded_op = next(op for op in workloads.build("ssg-dense", 9) if op.instance.key == "dense-n12-f3")
    seeded = parse_model(seeded_op.instance.text)
    rename = seeded_op.instance.rename
    assert [rename[s.id] for s in canonical.states] == [s.id for s in seeded.states]
    for a, b in zip(canonical.states, seeded.states):
        assert a.owner == b.owner
        assert [(rename[t.target], t.prob, t.reward) for t in a.transitions] == [
            (t.target, t.prob, t.reward) for t in b.transitions
        ]


def test_roadmap_n32_instance_shape():
    game = parse_model(families.dense(32, 7, None))
    owners = [s.owner for s in game.states]
    assert (owners.count("min"), owners.count("max"), owners.count("rand")) == (13, 10, 9)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_operation_has_a_reference(workload, seed):
    for op in workloads.build(workload, seed):
        assert op.closed_form is not None or op.name in REFS, op.name


@pytest.mark.parametrize("f", workloads.DENSE[8])
def test_smallest_dense_references_match_the_oracle(f):
    game = parse_model(families.dense(8, f, None))
    for kind in workloads.OBJECTIVES:
        values = oracle.enumerate_solve(game, Objective(kind)).values
        assert REFS[f"solve:dense-n8-f{f}:{kind}"]["values"] == {s: _fmt(v) for s, v in values.items()}


@pytest.mark.parametrize("f", workloads.CONDON[4])
def test_smallest_condon_references_match_the_oracle(f):
    game = parse_model(families.reach_instance(4, f, None))
    reach_t = oracle.enumerate_reach(game, {"t"}).values["q0"]
    reach_u = oracle.enumerate_reach(game, {"u"}).values["q0"]
    assert REFS[f"pipe:condon-n4-f{f}:liminf-minus-inf"]["values"]["q0"] == ("1/1" if reach_t >= Fraction(1, 2) else "0/1")
    assert REFS[f"pipe:condon-n4-f{f}:liminf-plus-inf"]["values"]["q0"] == ("1/1" if reach_u > Fraction(1, 2) else "0/1")


def test_closed_forms_match_the_oracle():
    ring = parse_model(families.ring(6, None))
    ruin = parse_model(families.ruin(7, None))
    for kind in workloads.OBJECTIVES:
        got = {s: _fmt(v) for s, v in oracle.enumerate_solve(ring, Objective(kind)).values.items()}
        assert got == workloads._ring_values(6)(kind)["values"]
        got = {s: _fmt(v) for s, v in oracle.enumerate_solve(ruin, Objective(kind)).values.items()}
        assert got == workloads._ruin_values(7)(kind)["values"]


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--limit", "4")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "ssg-dense", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
