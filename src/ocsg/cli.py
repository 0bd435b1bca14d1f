"""Command-line front end.

Reports are line-oriented ``key = value`` records (probabilities always as
num/den in lowest terms); the ``reduce`` subcommand emits the transformed
model in the text format so it can be piped back into ``solve`` or ``term``.
Exit codes: 0 success, 1 decision-false under ``--exit-status``, 2 input
error.  Arguments are checked before any solve or report line, so an input
error leaves the report empty.
"""

from __future__ import annotations

import argparse
import functools
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
    _clipped,
    _fmt_fraction,
    _quoted,
    parse_model,
    print_model,
)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Turns argparse's usage errors into ``CliError``, so they too end in
    one ``error = ...`` line; subparsers inherit it as ``parser_class``.
    Each token of the message is cut after 20 characters, so a huge
    argument value is not echoed."""

    def error(self, message):
        raise CliError(" ".join(_clipped(token) for token in message.split()))


def _read_model(path: str):
    """The model in the file ``path``, or on stdin for ``-``, as strict
    UTF-8: stdin's bytes are decoded here, not by its locale's error
    handler (``surrogateescape`` under the C locale); a stream with no byte
    buffer is read as text, and a closed stdin (None) is unreadable."""
    try:
        if path == "-":
            if sys.stdin is None:
                raise OSError("stdin is closed")
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as file:
                text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read model: {exc}") from None
    return parse_model(text)


def _objective(tag: str) -> Objective:
    if tag not in LIMIT_KINDS:
        raise CliError(f"unknown objective {_quoted(tag)}, expected one of {', '.join(LIMIT_KINDS)}")
    return Objective(tag)


def _threshold(raw: str) -> Fraction:
    try:
        if "/" in raw:
            num, den = raw.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(raw))
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad threshold {_quoted(raw)}, expected num/den") from None


def _write_report(out, report) -> None:
    """The ``(key, value)`` pairs of ``report`` as ``key = value`` lines, in one write."""
    out.write("".join(f"{key} = {value}\n" for key, value in report))


def _check_state(game, state) -> None:
    if state is not None and state not in game.index.pos:
        raise CliError(f"unknown state {_quoted(state)}")


def _solution(game, objective, method, result, state) -> list[tuple]:
    """Objective, method, values (all states or ``state``), value-1 set and
    witnesses, as report pairs."""
    values, ones = result.values, result.value_one_set
    report = [("objective", objective.kind), ("method", method)]
    report += [(sid, _fmt_fraction(values[sid])) for sid in ([state] if state else game.ids())]
    report.append(("value1", ",".join(sid for sid in game.ids() if sid in ones)))
    for label, strategy in (("max", result.witness_max), ("min", result.witness_min)):
        if strategy is not None:
            report += [(f"witness.{label}.{sid}", strategy.choice[sid]) for sid in sorted(strategy.choice)]
    return report


def _cmd_solve(args, out) -> int:
    game = _read_model(args.model)
    if isinstance(game, OcSsg):
        raise CliError("solve expects a reward game; translate the counter model first")
    objective = _objective(args.objective)
    _check_state(game, args.state)
    if args.threshold is not None:
        if not args.state:
            raise CliError("--threshold requires --state")
        p = _threshold(args.threshold)
        relation = args.relation or "ge"
        ssg.check_threshold(p, relation)
    elif args.relation is not None or args.exit_status:
        flag = "--relation" if args.relation is not None else "--exit-status"
        raise CliError(f"{flag} applies only with --threshold")
    solve = ssg.solve_limit_ssg(game, objective)
    report = _solution(game, objective, solve.method, solve.result, args.state)
    decision = True
    if args.threshold is not None:
        decision = ssg.threshold_holds(solve.result.values[args.state], p, relation)
        report.append(("decision", "true" if decision else "false"))
    _write_report(out, report)
    return 1 if args.exit_status and not decision else 0


def _cmd_term(args, out) -> int:
    game = _read_model(args.model)
    if not isinstance(game, OcSsg):
        raise CliError("term expects an ocssg model")
    termination.check_query(game, args.state, args.j)
    report = [("j", args.j), ("state", args.state)]
    if args.qual == "zero":
        decision = termination.decide_term_zero(game, args.state, args.j)
        report.append(("value0", "true" if decision else "false"))
    else:
        result = termination.decide_term_one(game, args.state, args.j)
        decision = result.value_one
        report += [
            ("value1", "true" if decision else "false"),
            ("branch", result.branch),
            ("certificate.liminf_value1", ",".join(sorted(result.liminf_value_one))),
        ]
        if result.start_level_state is not None:
            report.append(("certificate.start_level", result.start_level_state))
    _write_report(out, report)
    if args.exit_status and not decision:
        return 1
    return 0


def _cmd_reduce(args, out) -> int:
    game = _read_model(args.model)
    if isinstance(game, OcSsg):
        raise CliError("reduce expects a reward game (a reachability instance)")
    if args.kind == "condon-limit":
        if args.j is not None:
            raise CliError("--j applies only to --kind condon-term")
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
    """``player``'s strategy, edge 0 where ``pairs`` name none; None when
    the player owns no state.  Every pair is checked either way."""
    choice = dict.fromkeys(game.owner_ids(player), 0)
    for raw in pairs or ():
        sid, _, idx = raw.partition("=")
        try:
            index = int(idx)
        except ValueError:
            raise CliError(f"bad choice {_quoted(raw)}, expected state=index") from None
        if sid not in choice:
            raise CliError(f"{_quoted(sid)} is not a {player} state")
        choice[sid] = index
    return PureMemorylessStrategy(player, choice) if choice else None


def _cmd_simulate(args, out) -> int:
    if args.seed is None:
        raise CliError("simulate requires an explicit --seed")
    game = _read_model(args.model)
    strategies = (
        _parse_choices(args.max_choice, game, "max"),
        _parse_choices(args.min_choice, game, "min"),
    )
    _check_state(game, args.state)
    objective = None
    if args.objective:
        objective = Objective.term(args.j) if args.objective == "term" else _objective(args.objective)
    if args.threshold_b is not None and args.objective not in oracle.THRESHOLD_PROXIES:
        raise CliError(f"--threshold-b applies only to --objective {' or '.join(oracle.THRESHOLD_PROXIES)}")
    report = [("rng", oracle.RNG_ALGORITHM), ("seed", args.seed), ("trials", args.trials), ("steps", args.steps)]
    if objective is not None:
        if args.j is not None and objective.kind != "term":
            raise CliError("--j applies only to --objective term or to a run without --objective")
        # A threshold proxy reads ``--threshold-b``, 50 by default; no other reads one.
        threshold = None
        if objective.kind in oracle.THRESHOLD_PROXIES:
            threshold = 50 if args.threshold_b is None else args.threshold_b
        freq = oracle.estimate_objective(
            game, strategies, objective, threshold, args.steps, args.trials, args.seed, args.state
        )
        report += [("proxy", objective.kind), ("frequency", _fmt_fraction(freq))]
    else:
        stats = oracle.simulate(game, strategies, args.state, args.steps, args.trials, args.seed, j=args.j)
        if stats.termination_frequency is not None:
            report.append(("terminated", _fmt_fraction(stats.termination_frequency)))
        mean = sum((r.final_mean for r in stats.records), Fraction(0)) / stats.trials
        report += [
            ("min_prefix_sum.min", min(r.min_prefix_sum for r in stats.records)),
            ("max_prefix_sum.max", max(r.max_prefix_sum for r in stats.records)),
            ("mean_payoff.avg", _fmt_fraction(mean)),
        ]
    _write_report(out, report)
    return 0


def _cmd_oracle(args, out) -> int:
    game = _read_model(args.model)
    if isinstance(game, OcSsg):
        raise CliError("oracle expects a reward game")
    objective = _objective(args.objective)
    _check_state(game, args.state)
    _write_report(out, _solution(game, objective, "enumeration", oracle.enumerate_solve(game, objective), args.state))
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser by name, built
    once per process: ``parse_args`` leaves them as they are and returns a
    fresh namespace.  ``run`` hands a command line that names a subcommand
    to that subcommand's parser, which reads it in one pass; the top-level
    parser reads only the others (no command, an unknown one, ``-h``),
    each ending in its usage error or help."""
    parser = _Parser(prog="ocsg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["solve"] = sub.add_parser("solve", help="exact values and witnesses for a limit objective")
    p.add_argument("model", help="model file path, or - for stdin")
    p.add_argument("--objective", required=True)
    p.add_argument("--state")
    p.add_argument("--threshold")
    p.add_argument("--relation", choices=("gt", "ge"))
    p.add_argument("--exit-status", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = commands["term"] = sub.add_parser("term", help="qualitative termination decisions")
    p.add_argument("model")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--qual", choices=("one", "zero"), default="one")
    p.add_argument("--exit-status", action="store_true")
    p.set_defaults(func=_cmd_term)

    p = commands["reduce"] = sub.add_parser("reduce", help="hardness reductions from reachability")
    p.add_argument("model")
    p.add_argument("--kind", choices=("condon-limit", "condon-term"), required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--tprime", required=True)
    p.add_argument("--j", type=int)
    p.set_defaults(func=_cmd_reduce)

    p = commands["simulate"] = sub.add_parser("simulate", help="seeded Monte Carlo statistics")
    p.add_argument("model")
    p.add_argument("--state", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--objective")
    p.add_argument("--threshold-b", type=int)
    p.add_argument("--max-choice", action="append")
    p.add_argument("--min-choice", action="append")
    p.set_defaults(func=_cmd_simulate)

    p = commands["oracle"] = sub.add_parser("oracle", help="exhaustive strategy enumeration")
    p.add_argument("model")
    p.add_argument("--objective", required=True)
    p.add_argument("--state")
    p.set_defaults(func=_cmd_oracle)

    return parser, commands


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser, commands = _build_parser()
        command = commands.get(argv[0]) if argv else None
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
        return args.func(args, out)
    except (CliError, ModelError, oracle.EnumerationTooLarge, ssg.NoCertificate, ValueError) as exc:
        print(f"error = {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
