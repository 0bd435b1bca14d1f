"""Benchmark harness: seeded workloads of real requests against the exact
solvers, one closed-loop caller in one process.

    python3 bench/run.py --workload ssg-dense --seed 0 --seconds 40 --trace 0

Run it from the repository root; it imports ``ocsg`` from ``src/``.  Set-up
generates the workload's model files under ``.bench_work/``, loads the
references and warms up; it is repeated ``SETUP_REPEATS`` times and the
median is ``setup_s``.  The timed phase then runs the workload's
``workloads.PASSES`` whole passes over the operation list (a pass starts only within
``--seconds``).  Times are scaled to the reference host's speed by an
interleaved probe (``hostspeed.py``); the raw wall times stay in the
result file.  Each
operation runs under the same in-process deadline; an operation that
overruns it, exits with an error or answers wrongly is a failure, and
every answer is checked against its reference.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then one pass with every public ``ocsg`` function wrapped
(see ``layertrace.py``), and prints the per-layer metrics instead.  The
last line of standard output is the JSON result; the full record
(executions, failures by name, scaling rows, spans) goes to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
LOAD = "closed loop: one caller, one process, no threads; the next operation starts when the previous returns"

END_TO_END = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.self_s": "s", "model.parse_s": "s", "model.parse_calls": "count",
    "model.validate_calls": "count", "model.fix_strategies_calls": "count", "model.exceptions": "count",
    "linsolve.self_s": "s", "linsolve.calls": "count", "linsolve.dim_max": "rows",
    "linsolve.dim_mean": "rows", "linsolve.n3_sum": "rows3", "linsolve.pivot_bits_max": "bits",
    "linsolve.exceptions": "count",
    "chain.self_s": "s", "chain.reach_calls": "count", "chain.bscc_calls": "count",
    "chain.analyze_calls": "count", "chain.scc_calls": "count", "chain.exceptions": "count",
    "mdp.self_s": "s", "mdp.quantitative_calls": "count", "mdp.reach_pi_calls": "count",
    "mdp.mean_payoff_calls": "count", "mdp.mec_calls": "count", "mdp.asr_calls": "count",
    "mdp.asr_s": "s", "mdp.energy_calls": "count", "mdp.energy_s": "s", "mdp.refusals": "count",
    "mdp.exceptions": "count",
    "ssg.self_s": "s", "ssg.solve_calls": "count", "ssg.best_response_calls": "count",
    "ssg.best_responses_per_solve": "ratio", "ssg.improvement_frac": "ratio", "ssg.exceptions": "count",
    "termination.self_s": "s", "termination.level_states": "states", "termination.build_s": "s",
    "termination.decide_calls": "count", "termination.synth_calls": "count",
    "termination.exceptions": "count",
    "reduce.self_s": "s", "reduce.calls": "count", "reduce.exceptions": "count",
    "cli.self_s": "s", "cli.exceptions": "count",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class Deadline(BaseException):
    """Raised by SIGALRM inside an operation that overran the deadline."""


def _alarm(signum, frame):
    raise Deadline()


# ---------------------------------------------------------------------------
# set-up


def _setup(workload: str, seed: int, workdir: Path):
    """Generate and write the model files, resolve references, warm up."""
    ops = workloads.build(workload, seed)
    refs = json.loads((HERE / "refs.json").read_text())
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    paths, expected = {}, {}
    for op in ops:
        inst = op.instance
        if inst.key not in paths:
            path = workdir / f"{inst.key}.model"
            path.write_text(inst.text)
            paths[inst.key] = str(path)
        if op.closed_form is not None:
            ref = {"source": "closed-form", **op.closed_form}
        elif op.name in refs:
            ref = refs[op.name]
        else:
            raise SystemExit(f"error: no reference for {op.name}; rebuild bench/refs.json")
        if "values" in ref:
            ref = dict(ref, values={inst.rename[sid]: v for sid, v in ref["values"].items()})
        expected[op.name] = ref
    for op in _warmup_ops(workload, ops):
        _execute(op, paths[op.instance.key], expected[op.name])
    return ops, paths, expected


def _warmup_ops(workload: str, ops):
    """The smallest non-hanging operation of each kind (by size, then name)."""
    hangs = set(workloads.KNOWN_HANGS[workload])
    smallest = {}
    for op in sorted(ops, key=lambda op: (op.instance.size, op.name), reverse=True):
        if op.name not in hangs:
            smallest[op.kind] = op
    return list(smallest.values())


# ---------------------------------------------------------------------------
# operations


def _dispatch(op, path: str):
    """Run one request; returns (exit code, report text or synthesis result).

    The ``ocsg`` functions are looked up on their modules at call time, so
    a traced pass goes through the wrapped bindings."""
    from ocsg import cli, model, termination

    out = io.StringIO()
    if op.kind == "solve":
        return cli.run(["solve", path, "--objective", op.objective], out=out), out.getvalue()
    if op.kind == "pipe":
        s = op.instance.start
        t, t_prime = op.instance.reach
        reduced = io.StringIO()
        rc = cli.run(["reduce", path, "--kind", "condon-limit", "--start", s, "--t", t, "--tprime", t_prime], out=reduced)
        if rc:
            return rc, ""
        stdin = sys.stdin
        sys.stdin = io.StringIO(reduced.getvalue())
        try:
            return cli.run(["solve", "-", "--objective", op.objective, "--state", s], out=out), out.getvalue()
        finally:
            sys.stdin = stdin
    if op.kind in ("term1", "term0"):
        argv = ["term", path, "--j", str(op.j), "--state", op.instance.start]
        if op.kind == "term0":
            argv += ["--qual", "zero"]
        return cli.run(argv, out=out), out.getvalue()
    with open(path, encoding="utf-8") as handle:
        game = model.parse_model(handle.read())
    return 0, (game, termination.synthesize_term_strategies(game, op.instance.start, op.j))


def _execute(op, path: str, expected: dict) -> dict:
    """Run ``op`` under the deadline and check its answer."""
    err = io.StringIO()
    detail = ""
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, workloads.DEADLINE_S)
            with contextlib.redirect_stderr(err):
                rc, answer = _dispatch(op, path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        status = "deadline"
    except Exception as exc:  # an uncaught solver error is a failed operation
        status = "refused" if type(exc).__name__ == "EnumerationTooLarge" else "error"
        detail = f"{type(exc).__name__}: {exc}"
    else:
        if rc != 0:
            detail = err.getvalue().strip()
            status = "refused" if "too large" in detail or "space exceeds" in detail else "error"
        else:
            detail = _check(op, answer, expected)
            status = "wrong" if detail else "ok"
    return {"name": op.name, "seconds": perf_counter() - t0, "status": status, "detail": detail[:300]}


def _report(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


def _check(op, answer, expected: dict) -> str:
    """Empty when the answer matches the reference, else what differs."""
    if op.kind == "synth":
        game, (sigma, pi) = answer
        want_max = expected["value1"] == "true"
        if (sigma is not None) != want_max or (pi is not None) == want_max:
            return f"witness side: max={sigma is not None} min={pi is not None}, value1={expected['value1']}"
        if sigma is not None and set(sigma.choice) != set(game.owner_ids("max")):
            return "Max witness domain differs from the Max states"
        if pi is not None and pi.memory_size > len(game.states):
            return f"Min witness memory {pi.memory_size} exceeds |V|"
        return ""
    fields = _report(answer)
    if op.kind in ("term1", "term0"):
        key = "value1" if op.kind == "term1" else "value0"
        return "" if fields.get(key) == expected[key] else f"{key} = {fields.get(key)}, expected {expected[key]}"
    wrong = [f"{sid} = {fields.get(sid)}, expected {v}" for sid, v in expected["values"].items() if fields.get(sid) != v]
    if not wrong and op.kind == "solve":
        ones = {sid for sid, v in expected["values"].items() if v == "1/1"}
        got = set(filter(None, fields.get("value1", "").split(",")))
        if got != ones:
            wrong.append(f"value1 = {sorted(got)}, expected {sorted(ones)}")
    return "; ".join(wrong[:3])


# ---------------------------------------------------------------------------
# timed phase and metrics


def _timed_phase(ops, paths, expected, seconds: float, passes: int, tracer=None):
    """Up to ``passes`` whole passes over ``ops``; a pass starts only while
    less than ``seconds`` have gone by.  An operation that failed is final
    and is not run again.  The host speed probe runs before each operation
    and once at the end, and each record gets ``ref_seconds``.  Returns the
    execution records, the wall time, each pass's wall time and the time
    spent probing."""
    records, failed, pass_walls, probes = [], set(), [], []
    start = perf_counter()
    while len(pass_walls) < passes and (not pass_walls or perf_counter() - start < seconds):
        pass_start = perf_counter()
        for index, op in enumerate(ops):
            if op.name in failed:
                continue
            probes.append(hostspeed.probe())
            if tracer is not None:
                tracer.request = index
            record = _execute(op, paths[op.instance.key], expected[op.name])
            record["pass"] = len(pass_walls)
            records.append(record)
            if record["status"] != "ok":
                failed.add(op.name)
        pass_walls.append(perf_counter() - pass_start)
    probes.append(hostspeed.probe())
    wall = perf_counter() - start
    for i, record in enumerate(records):
        # Probes i-1 .. i+2 surround execution i (probe i runs just before it).
        record["ref_seconds"] = hostspeed.scale(record["seconds"], probes[max(0, i - 1): i + 3])
    return records, wall, pass_walls, sum(probes)


def _per_op(records) -> dict:
    """Each operation's outcome: its best time over the passes, or its failure.

    Times are reference-host seconds (``hostspeed``); the fastest of an
    operation's executions, a pass apart, also filters the host's
    short-lived slow stretches.  ``wall_s`` keeps the fastest raw time."""
    ops = {}
    for r in records:
        seen = ops.setdefault(r["name"], {"status": "ok", "seconds": math.inf, "wall_s": math.inf, "detail": "", "runs": 0})
        seen["runs"] += 1
        if r["status"] != "ok":
            seen.update(status=r["status"], detail=r["detail"])
        elif seen["status"] == "ok":
            seen["seconds"] = min(seen["seconds"], r["ref_seconds"])
            seen["wall_s"] = min(seen["wall_s"], r["seconds"])
    return ops


def _busy(records) -> float:
    """Time spent in operations, in reference seconds; a deadline hit
    counts as the wall-clock time it is."""
    return sum(r["ref_seconds"] if r["status"] == "ok" else r["seconds"] for r in records)


def _nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _end_to_end(per_op: dict, records, setup_times) -> dict:
    # A failed operation counts as slower than any success; if failures
    # reach a percentile it reads as the deadline.
    times = sorted(o["seconds"] if o["status"] == "ok" else math.inf for o in per_op.values())
    p50, p90 = (min(_nearest_rank(times, q), workloads.DEADLINE_S) for q in (0.5, 0.9))
    return {
        "op_s.p50": p50,
        "op_s.p90": p90,
        "ops_per_s": sum(r["status"] == "ok" for r in records) / _busy(records),
        "ok_frac": sum(o["status"] == "ok" for o in per_op.values()) / len(per_op),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _wall_percentiles(per_op: dict) -> dict:
    """``op_s.p50`` and ``op_s.p90`` from raw wall times (diagnostic)."""
    times = sorted(o["wall_s"] if o["status"] == "ok" else math.inf for o in per_op.values())
    return {f"p{int(q * 100)}": min(_nearest_rank(times, q), workloads.DEADLINE_S) for q in (0.5, 0.9)}


def _scaling_rows(ops, per_op) -> list[dict]:
    """Median operation time per family, kind and size (diagnostic, not gated)."""
    groups = {}
    for op in ops:
        groups.setdefault((op.instance.family, op.kind, op.instance.size), []).append(op.name)
    rows = []
    for (family, kind, size), names in sorted(groups.items()):
        ok = [per_op[n]["seconds"] for n in names if per_op[n]["status"] == "ok"]
        rows.append({
            "family": family, "kind": kind, "size": size, "ops": len(names),
            "median_s": statistics.median(ok) if ok else None,
            "failures": sorted(f"{n}: {per_op[n]['status']}" for n in names if per_op[n]["status"] != "ok"),
        })
    return rows


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, help="smoke run: only the first N operations that are not known hangs")
    args = parser.parse_args(argv)

    if not (SRC / "ocsg" / "__init__.py").is_file():
        print(f"error: the ocsg sources are missing ({SRC / 'ocsg'}); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    hangs = set(workloads.KNOWN_HANGS[args.workload])

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = hostspeed.probe()
            t0 = perf_counter()
            ops, paths, expected = _setup(args.workload, args.seed, workdir)
            setup_times.append(hostspeed.scale(perf_counter() - t0, [before, hostspeed.probe()]))
        if args.limit is not None:
            ops = [op for op in ops if op.name not in hangs][: args.limit]

        # A traced run needs only the untraced first pass, for the overhead.
        passes = 1 if args.trace else workloads.PASSES[args.workload]
        records, wall, pass_walls, _ = _timed_phase(ops, paths, expected, args.seconds, passes)
        per_op = _per_op(records)
        metrics = _end_to_end(per_op, records, setup_times)
        result = {"metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}}
        traced = None
        if args.trace:
            # One traced pass, compared with the untraced pass above.
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                traced_records, traced_wall, _, probing = _timed_phase(ops, paths, expected, args.seconds, 1, tracer)
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics()
            harness = traced_wall - tracer.top_level_time() - probing
            layer["harness.self_s"] = harness
            layer["trace.wall_s"] = traced_wall
            layer["trace.overhead_frac"] = _busy(traced_records) / _busy(records) - 1
            result = {"metrics": {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}}
            traced = (tracer, traced_records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    counted = traced[1] if traced else records
    summary = {
        "correct": not any(r["status"] == "wrong" for r in records + (counted if traced else [])),
        "attempted": len(counted),
        "failed": sum(r["status"] != "ok" for r in counted),
        **result,
    }
    failures = {name: o for name, o in per_op.items() if o["status"] != "ok"}
    _write_record(args, ops, expected, records, wall, pass_walls, per_op, metrics, setup_times, failures, hangs, traced)
    for name, o in failures.items():
        tag = "known" if name in hangs else "UNEXPECTED"
        print(f"FAIL [{tag}] {name}: {o['status']} {o['detail']}".rstrip(), file=sys.stderr)
    print(json.dumps(summary))
    return 0


def _write_record(args, ops, expected, records, wall, pass_walls, per_op, metrics, setup_times, failures, hangs,
                  traced):
    sources = {}
    for op in ops:
        src = expected[op.name]["source"]
        sources[src] = sources.get(src, 0) + 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "load": LOAD,
        "deadline_s": workloads.DEADLINE_S,
        "operations": len(ops),
        "pass_walls_s": pass_walls,
        "timed_wall_s": wall,
        "setup_s_each": setup_times,
        "end_to_end": metrics,
        "wall_percentiles_s": _wall_percentiles(per_op),
        "fail_frac": len(failures) / len(per_op),
        "failures": [dict(o, name=name, known=name in hangs) for name, o in failures.items()],
        "known_hangs": sorted(hangs),
        "reference_sources": sources,
        "scaling": _scaling_rows(ops, per_op),
        "per_operation": per_op,
        "executions": records,
    }
    if traced:
        tracer, traced_records = traced
        record["traced_executions"] = traced_records
        record["per_function"] = tracer.function_table()
        record["spans"] = tracer.span_table()  # request = index into "operation_order"
        record["operation_order"] = [op.name for op in ops]
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
