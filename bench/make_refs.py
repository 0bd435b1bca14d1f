"""Build ``refs.json``: the checked-in reference answer of every pooled
operation, each tagged with where it came from.

Sources, most independent first:
  oracle          ``oracle.enumerate_solve`` over all pure memoryless
                  profiles (used when the profile space has at most
                  ORACLE_PROFILES members); the solver's own answer is
                  checked against it and any disagreement is reported.
  condon+oracle   the Condon reduction contract evaluated on
                  ``oracle.enumerate_reach`` reachability values.
  max-guarantee   the maximum, over every pure memoryless Max strategy, of
                  its exact Min best response (pure memoryless determinacy
                  makes that the game value).
  regression      the solver's answer at the commit that introduced the
                  benchmark, kept so later changes cannot silently alter it.

Existing entries are kept, so a rerun only computes references for new
pool members: ``python3 bench/make_refs.py`` (minutes from scratch).
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from ocsg import oracle, ssg, termination  # noqa: E402
from ocsg.model import Objective, PureMemorylessStrategy, parse_model  # noqa: E402

ORACLE_PROFILES = 1 << 10
MAX_GUARANTEE = {"solve:dense-n32-f7:liminf-minus-inf"}
SOLVER_COMMIT = "7d07d98"


def _fmt(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _values(game, values) -> dict:
    return {sid: _fmt(values[sid]) for sid in game.ids()}


def _profiles(game) -> int:
    total = 1
    for s in game.states:
        if s.owner != "rand":
            total *= len(s.transitions)
    return total


def _max_guarantee(game, objective):
    max_ids = list(game.owner_ids("max"))
    sizes = [len(game.state(sid).transitions) for sid in max_ids]
    best = None
    for combo in itertools.product(*(range(n) for n in sizes)):
        sigma = PureMemorylessStrategy("max", dict(zip(max_ids, combo)))
        vals = ssg.best_response(game, sigma, objective).values
        best = dict(vals) if best is None else {s: max(best[s], vals[s]) for s in best}
    return best


def reference(op) -> dict:
    game = parse_model(op.instance.text)
    if op.kind == "solve":
        objective = Objective(op.objective)
        if op.name in MAX_GUARANTEE:
            return {"source": "max-guarantee", "values": _values(game, _max_guarantee(game, objective))}
        solved = _values(game, ssg.solve_limit_ssg(game, objective).result.values)
        if _profiles(game) <= ORACLE_PROFILES:
            truth = _values(game, oracle.enumerate_solve(game, objective).values)
            ref = {"source": "oracle", "values": truth}
            if solved != truth:
                ref["solver_disagrees"] = True
            return ref
        return {"source": f"regression@{SOLVER_COMMIT}", "values": solved}
    if op.kind == "pipe":
        t, t_prime = op.instance.reach
        s = op.instance.start
        if op.objective == "liminf-minus-inf":
            won = oracle.enumerate_reach(game, {t}).values[s] >= Fraction(1, 2)
        else:
            won = oracle.enumerate_reach(game, {t_prime}).values[s] > Fraction(1, 2)
        return {"source": "condon+oracle", "values": {s: "1/1" if won else "0/1"}}
    start = op.instance.start
    if op.kind == "term0":
        decision = termination.decide_term_zero(game, start, op.j)
        return {"source": f"regression@{SOLVER_COMMIT}", "value0": "true" if decision else "false"}
    decision = termination.decide_term_one(game, start, op.j).value_one
    return {"source": f"regression@{SOLVER_COMMIT}", "value1": "true" if decision else "false"}


def main() -> int:
    """Keep the references still in use, compute the missing ones."""
    path = HERE / "refs.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    refs = {}
    for name in workloads.WORKLOADS:
        for op in workloads.canonical_ops(name):
            if op.closed_form is not None:
                continue
            if op.name in old:
                refs[op.name] = old[op.name]
                continue
            t0 = time.perf_counter()
            refs[op.name] = reference(op)
            print(f"{op.name} {refs[op.name]['source']} {time.perf_counter() - t0:.2f}s", flush=True)
    disagreements = sorted(k for k, v in refs.items() if v.get("solver_disagrees"))
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"{len(refs)} references, solver disagreements: {disagreements or 'none'}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
