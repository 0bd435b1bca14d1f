"""Command-line front end.

Reports are line-oriented ``key = value`` records (probabilities always as
num/den in lowest terms); the ``reduce`` subcommand emits the transformed
model in the text format so it can be piped back into ``solve`` or ``term``.
Exit codes: 0 success, 1 decision-false under ``--exit-status``, 2 input
error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import oracle, ssg, termination
from . import reduce as reduce_mod
from .model import (
    LIMIT_KINDS,
    ModelError,
    Objective,
    OcSsg,
    PureMemorylessStrategy,
    parse_model,
    print_model,
)


class CliError(Exception):
    pass


def _fmt(value: Fraction) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _read_model(path: str):
    try:
        text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise CliError(f"cannot read model: {exc}") from None
    return parse_model(text)


def _objective(tag: str) -> Objective:
    if tag not in LIMIT_KINDS:
        raise CliError(f"unknown objective {tag!r}, expected one of {', '.join(LIMIT_KINDS)}")
    return Objective(tag)


def _threshold(raw: str) -> Fraction:
    try:
        if "/" in raw:
            num, den = raw.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(raw))
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad threshold {raw!r}, expected num/den") from None


def _emit(out, key, value):
    print(f"{key} = {value}", file=out)


def _emit_strategy(out, label, strategy):
    if strategy is None:
        return
    for sid in sorted(strategy.choice):
        _emit(out, f"witness.{label}.{sid}", strategy.choice[sid])


def _emit_solution(out, game, objective, method, result, state) -> None:
    """Objective, method, values (all states or ``state``), value-1 set, witnesses."""
    _emit(out, "objective", objective.kind)
    _emit(out, "method", method)
    for sid in [state] if state else game.ids():
        if sid not in game.by_id:
            raise CliError(f"unknown state {sid!r}")
        _emit(out, sid, _fmt(result.values[sid]))
    _emit(out, "value1", ",".join(sid for sid in game.ids() if sid in result.value_one_set))
    _emit_strategy(out, "max", result.witness_max)
    _emit_strategy(out, "min", result.witness_min)


def _cmd_solve(args, out) -> int:
    game = _read_model(args.model)
    if isinstance(game, OcSsg):
        raise CliError("solve expects a reward game; translate the counter model first")
    objective = _objective(args.objective)
    solve = ssg.solve_limit_ssg(game, objective)
    _emit_solution(out, game, objective, solve.method, solve.result, args.state)
    if args.threshold is not None:
        if not args.state:
            raise CliError("--threshold requires --state")
        p = _threshold(args.threshold)
        decision = ssg.threshold_holds(solve.result.values[args.state], p, args.relation)
        _emit(out, "decision", "true" if decision else "false")
        if args.exit_status and not decision:
            return 1
    return 0


def _cmd_term(args, out) -> int:
    game = _read_model(args.model)
    if not isinstance(game, OcSsg):
        raise CliError("term expects an ocssg model")
    if args.state not in game.by_id:
        raise CliError(f"unknown state {args.state!r}")
    _emit(out, "j", args.j)
    _emit(out, "state", args.state)
    if args.qual == "zero":
        decision = termination.decide_term_zero(game, args.state, args.j)
        _emit(out, "value0", "true" if decision else "false")
    else:
        result = termination.decide_term_one(game, args.state, args.j)
        decision = result.value_one
        _emit(out, "value1", "true" if decision else "false")
        _emit(out, "branch", result.branch)
        _emit(out, "certificate.liminf_value1", ",".join(sorted(result.liminf_value_one)))
        if result.start_level_state is not None:
            _emit(out, "certificate.start_level", result.start_level_state)
    if args.exit_status and not decision:
        return 1
    return 0


def _cmd_reduce(args, out) -> int:
    game = _read_model(args.model)
    if isinstance(game, OcSsg):
        raise CliError("reduce expects a reward game (a reachability instance)")
    if args.kind == "condon-limit":
        transformed = reduce_mod.condon_to_limit(game, args.start, args.t, args.tprime)
        out.write(print_model(transformed))
    else:
        counter_game, start, j = reduce_mod.condon_to_termination(
            game, args.start, args.t, args.tprime, args.j
        )
        out.write(f"# query: state {start}, j {j}\n")
        out.write(print_model(counter_game))
    return 0


def _parse_choices(pairs, game, player) -> PureMemorylessStrategy | None:
    owned = list(game.owner_ids(player))
    if not owned:
        return None
    choice = {sid: 0 for sid in owned}
    for raw in pairs or ():
        if "=" not in raw:
            raise CliError(f"bad choice {raw!r}, expected state=index")
        sid, _, idx = raw.partition("=")
        if sid not in choice:
            raise CliError(f"{sid!r} is not a {player} state")
        choice[sid] = int(idx)
    return PureMemorylessStrategy(player, choice)


def _cmd_simulate(args, out) -> int:
    if args.seed is None:
        raise CliError("simulate requires an explicit --seed")
    game = _read_model(args.model)
    strategies = (
        _parse_choices(args.max_choice, game, "max"),
        _parse_choices(args.min_choice, game, "min"),
    )
    if args.state not in game.by_id:
        raise CliError(f"unknown state {args.state!r}")
    _emit(out, "rng", oracle.RNG_ALGORITHM)
    _emit(out, "seed", args.seed)
    _emit(out, "trials", args.trials)
    _emit(out, "steps", args.steps)
    if args.objective:
        objective = Objective.term(args.j) if args.objective == "term" else _objective(args.objective)
        freq = oracle.estimate_objective(
            game, strategies, objective, args.threshold_b, args.steps, args.trials, args.seed, args.state
        )
        _emit(out, "proxy", objective.kind)
        _emit(out, "frequency", _fmt(freq))
        return 0
    stats = oracle.simulate(game, strategies, args.state, args.steps, args.trials, args.seed, j=args.j)
    if stats.termination_frequency is not None:
        _emit(out, "terminated", _fmt(stats.termination_frequency))
    _emit(out, "min_prefix_sum.min", min(r.min_prefix_sum for r in stats.records))
    _emit(out, "max_prefix_sum.max", max(r.max_prefix_sum for r in stats.records))
    mean = sum((r.final_mean for r in stats.records), Fraction(0)) / stats.trials
    _emit(out, "mean_payoff.avg", _fmt(mean))
    return 0


def _cmd_oracle(args, out) -> int:
    game = _read_model(args.model)
    if isinstance(game, OcSsg):
        raise CliError("oracle expects a reward game")
    objective = _objective(args.objective)
    _emit_solution(out, game, objective, "enumeration", oracle.enumerate_solve(game, objective), args.state)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ocsg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact values and witnesses for a limit objective")
    p.add_argument("model", help="model file path, or - for stdin")
    p.add_argument("--objective", required=True)
    p.add_argument("--state")
    p.add_argument("--threshold")
    p.add_argument("--relation", choices=("gt", "ge"), default="ge")
    p.add_argument("--exit-status", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("term", help="qualitative termination decisions")
    p.add_argument("model")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--qual", choices=("one", "zero"), default="one")
    p.add_argument("--exit-status", action="store_true")
    p.set_defaults(func=_cmd_term)

    p = sub.add_parser("reduce", help="hardness reductions from reachability")
    p.add_argument("model")
    p.add_argument("--kind", choices=("condon-limit", "condon-term"), required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--tprime", required=True)
    p.add_argument("--j", type=int)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("simulate", help="seeded Monte Carlo statistics")
    p.add_argument("model")
    p.add_argument("--state", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--objective")
    p.add_argument("--threshold-b", type=int, default=50)
    p.add_argument("--max-choice", action="append")
    p.add_argument("--min-choice", action="append")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="exhaustive strategy enumeration")
    p.add_argument("model")
    p.add_argument("--objective", required=True)
    p.add_argument("--state")
    p.set_defaults(func=_cmd_oracle)

    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (CliError, ModelError, oracle.EnumerationTooLarge, ValueError) as exc:
        print(f"error = {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
