import gc
import io
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from ocsg import cli, ssg, termination
from ocsg.cli import run
from ocsg.model import LIMIT_KINDS, Objective, PureMemorylessStrategy, parse_model, print_model
from ocsg.reduce import condon_to_limit

from conftest import DATA, DEAD_SINK_TEXT, FIVE_STATE_TEXT
from grids import bench_families

FAIR_COIN_TEXT = """\
ssg rewards=states
state s owner=rand reward=0
state t owner=rand reward=0
state u owner=rand reward=0
trans s -> t p=1/2
trans s -> u p=1/2
trans t -> t p=1/1
trans u -> u p=1/1
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _lines(out):
    return out.getvalue().splitlines()


def _record(out):
    entries = {}
    for line in _lines(out):
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def test_module_entry_point_prints_the_report():
    # `python -m ocsg.cli` runs `main`, as the `ocsg` console script does.
    argv = ["solve", str(DATA / "dense-n7-f36.ssg"), "--objective", "mean-gt"]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "ocsg.cli", *argv], capture_output=True, text=True, env=env, check=False, timeout=120
    )
    expected = io.StringIO()
    assert run(argv, expected) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, expected.getvalue(), "")
    assert "method = " in done.stdout


def test_solve_on_condon_reduction(tmp_path):
    reduced = condon_to_limit(parse_model(FAIR_COIN_TEXT), "s", "t", "u")
    path = _write(tmp_path, "reduced.ssg", print_model(reduced))
    out = io.StringIO()
    code = run(["solve", path, "--objective", "liminf-minus-inf"], out)
    assert code == 0
    assert "s = 1/1" in _lines(out)


def test_solve_threshold_decision(tmp_path):
    reduced = condon_to_limit(parse_model(FAIR_COIN_TEXT), "s", "t", "u")
    path = _write(tmp_path, "reduced.ssg", print_model(reduced))
    out = io.StringIO()
    code = run(
        ["solve", path, "--objective", "liminf-minus-inf", "--state", "s",
         "--threshold", "1/2", "--relation", "gt", "--exit-status"],
        out,
    )
    assert code == 0
    assert _record(out)["decision"] == "true"
    out = io.StringIO()
    code = run(
        ["solve", path, "--objective", "liminf-plus-inf", "--state", "s",
         "--threshold", "1/2", "--relation", "gt", "--exit-status"],
        out,
    )
    assert code == 1
    assert _record(out)["decision"] == "false"


def test_solve_threshold_reuses_the_solve(tmp_path, monkeypatch):
    calls = []
    solve = ssg.solve_limit_ssg

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(ssg, "solve_limit_ssg", counting)
    reduced = condon_to_limit(parse_model(FAIR_COIN_TEXT), "s", "t", "u")
    path = _write(tmp_path, "reduced.ssg", print_model(reduced))
    out = io.StringIO()
    argv = ["solve", path, "--objective", "liminf-minus-inf", "--state", "s", "--threshold", "1/2"]
    assert run(argv, out) == 0
    assert _record(out)["decision"] == "true"
    assert len(calls) == 1


def test_term_on_appendix_example(tmp_path):
    path = _write(tmp_path, "appendix.ocssg", FIVE_STATE_TEXT)
    out = io.StringIO()
    code = run(["term", path, "--j", "1", "--state", "v"], out)
    assert code == 0
    record = _record(out)
    assert record["value1"] == "false"
    assert record["branch"] == "level"
    out = io.StringIO()
    assert run(["term", path, "--j", "1", "--state", "v", "--exit-status"], out) == 1
    out = io.StringIO()
    assert run(["term", path, "--j", "1", "--state", "v", "--qual", "zero"], out) == 0
    assert _record(out)["value0"] == "false"


def test_reduce_then_solve_pipeline(tmp_path, monkeypatch):
    source = _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT)
    piped = io.StringIO()
    assert run(["reduce", source, "--kind", "condon-limit", "--start", "s", "--t", "t", "--tprime", "u"], piped) == 0

    direct = io.StringIO()
    reduced_path = _write(tmp_path, "reduced.ssg", piped.getvalue())
    assert run(["solve", reduced_path, "--objective", "liminf-minus-inf"], direct) == 0

    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(piped.getvalue()))
    via_stdin = io.StringIO()
    assert run(["solve", "-", "--objective", "liminf-minus-inf"], via_stdin) == 0
    assert via_stdin.getvalue() == direct.getvalue()
    assert "s = 1/1" in _lines(direct)


def test_reduce_condon_term_emits_query(tmp_path):
    source = _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT)
    out = io.StringIO()
    assert run(["reduce", source, "--kind", "condon-term", "--start", "s", "--t", "t", "--tprime", "u"], out) == 0
    text = out.getvalue()
    assert text.startswith("# query: state s, j 3\n")
    assert parse_model(text) is not None


def test_simulate_reports_rng_and_is_deterministic(tmp_path):
    path = _write(tmp_path, "walk.ocssg", "ocssg\nstate s owner=rand\ntrans s -> s p=1/2 delta=1\ntrans s -> s p=1/2 delta=-1\n")
    out1, out2 = io.StringIO(), io.StringIO()
    argv = ["simulate", path, "--state", "s", "--steps", "200", "--trials", "100", "--seed", "5", "--j", "1"]
    assert run(argv, out1) == 0
    assert run(argv, out2) == 0
    assert out1.getvalue() == out2.getvalue()
    record = _record(out1)
    assert record["rng"] == "mt19937-randrange"
    assert "terminated" in record


def test_simulate_requires_seed(tmp_path):
    path = _write(tmp_path, "walk.ocssg", "ocssg\nstate s owner=rand\ntrans s -> s p=1/1 delta=1\n")
    out = io.StringIO()
    code = run(["simulate", path, "--state", "s", "--steps", "10", "--trials", "10"], out)
    assert code == 2


def test_oracle_subcommand(tmp_path):
    reduced = condon_to_limit(parse_model(FAIR_COIN_TEXT), "s", "t", "u")
    path = _write(tmp_path, "reduced.ssg", print_model(reduced))
    out = io.StringIO()
    assert run(["oracle", path, "--objective", "liminf-minus-inf"], out) == 0
    record = _record(out)
    assert record["method"] == "enumeration"
    assert record["s"] == "1/1"


def test_malformed_model_exit_code(tmp_path):
    path = _write(tmp_path, "bad.ssg", "ssg rewards=states\nstate a owner=emperor reward=0\n")
    out = io.StringIO()
    assert run(["solve", path, "--objective", "mean-gt"], out) == 2


def test_oversized_probability_numeral_is_a_positioned_error(tmp_path, capsys):
    numeral = "1" * 4301
    text = FAIR_COIN_TEXT.replace("trans t -> t p=1/1", f"trans t -> t p={numeral}/{numeral}")
    path = _write(tmp_path, "long.ssg", text)
    out = io.StringIO()
    assert run(["solve", path, "--objective", "mean-gt"], out) == 2
    assert out.getvalue() == ""
    message = "line 7, column 14: probability numeral too long, found '11111111111111111111'..."
    assert capsys.readouterr().err == f"error = {message}\n"


def test_solve_closes_the_model_file(tmp_path):
    path = _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["solve", path, "--objective", "mean-gt"], io.StringIO()) == 0
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_unknown_objective_exit_code(tmp_path):
    path = _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT)
    out = io.StringIO()
    assert run(["solve", path, "--objective", "par"], out) == 2


def test_missing_file_exit_code():
    out = io.StringIO()
    assert run(["solve", "/nonexistent/model.ssg", "--objective", "mean-gt"], out) == 2


def test_no_certificate_is_a_typed_refusal(tmp_path, monkeypatch, capsys):
    def refuse(game, objective):
        raise ssg.NoCertificate("alternating improvement revisited a Min strategy without a certified pair")

    monkeypatch.setattr(ssg, "solve_limit_ssg", refuse)
    path = _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT)
    out = io.StringIO()
    assert run(["solve", path, "--objective", "mean-gt"], out) == 2
    err = capsys.readouterr().err
    assert err == "error = alternating improvement revisited a Min strategy without a certified pair\n"
    assert out.getvalue() == ""


@pytest.mark.parametrize(
    "qual, module, name, error",
    [
        ("one", ssg, "solve_limit_ssg", ssg.NoCertificate),
        ("zero", termination, "decide_term_zero", ValueError),
    ],
    ids=["one", "zero"],
)
def test_term_refusal_leaves_the_report_empty(tmp_path, monkeypatch, capsys, qual, module, name, error):
    def refuse(*args):
        raise error("refused")

    monkeypatch.setattr(module, name, refuse)
    path = _write(tmp_path, "appendix.ocssg", FIVE_STATE_TEXT)
    out = io.StringIO()
    assert run(["term", path, "--j", "2", "--state", "v", "--qual", qual], out) == 2
    assert capsys.readouterr().err == "error = refused\n"
    assert out.getvalue() == ""


def _forbid_solving(monkeypatch):
    """Make every solver the CLI can call fail the test if it runs."""
    from ocsg import oracle

    def refuse(*args):
        raise AssertionError("a solver ran")

    for module, name in ((ssg, "solve_limit_ssg"), (oracle, "enumerate_solve"),
                         (termination, "decide_term_one"), (termination, "decide_term_zero")):
        monkeypatch.setattr(module, name, refuse)


def test_bad_arguments_fail_before_solving_or_reporting(tmp_path, monkeypatch, capsys):
    _forbid_solving(monkeypatch)
    coin = _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT)
    appendix = _write(tmp_path, "appendix.ocssg", FIVE_STATE_TEXT)
    simulate = ["simulate", appendix, "--state", "v", "--steps", "10", "--trials", "5", "--seed", "1"]
    condon_term = ["reduce", coin, "--kind", "condon-term", "--start", "s", "--t", "t", "--tprime", "u"]
    cases = [
        (["solve", coin, "--objective", "mean-gt", "--state", "nowhere"], "unknown state 'nowhere'"),
        (["oracle", coin, "--objective", "mean-gt", "--state", "nowhere"], "unknown state 'nowhere'"),
        (["solve", coin, "--objective", "mean-gt", "--threshold", "1/2"], "--threshold requires --state"),
        (["solve", coin, "--objective", "mean-gt", "--state", "s", "--threshold", "3/2"],
         "threshold must lie in [0,1]"),
        (["term", appendix, "--j", "0", "--state", "v"], "termination requires j >= 1"),
        (["term", appendix, "--j", "0", "--state", "v", "--qual", "zero"], "termination requires j >= 1"),
        (["term", appendix, "--j", "1", "--state", "nowhere"], "unknown state 'nowhere'"),
        (simulate + ["--objective", "par"], "unknown objective 'par', expected one of " + ", ".join(LIMIT_KINDS)),
        (simulate + ["--objective", "term"], "term objective requires j >= 1"),
        (simulate + ["--objective", "mean-leq"], "no finite proxy for objective mean-leq"),
        (simulate + ["--objective", "liminf-plus-inf", "--threshold-b", "0"], "threshold must be positive"),
        (simulate + ["--trials", "0"], "simulation requires at least one trial"),
        (simulate + ["--trials", "0", "--objective", "mean-gt"], "estimation requires at least one trial"),
        (simulate + ["--steps", "0"], "simulation requires at least one step"),
        (simulate + ["--steps", "-5", "--objective", "mean-gt"], "estimation requires at least one step"),
        (simulate + ["--min-choice", "v=7"], "invalid transition index 7 at v"),
        (simulate + ["--min-choice", "v=-1", "--objective", "mean-gt"], "invalid transition index -1 at v"),
        (simulate + ["--min-choice", "v=x"], "bad choice 'v=x', expected state=index"),
        # The game has no Max state; a Max choice is checked all the same.
        (simulate + ["--max-choice", "v=1"], "'v' is not a max state"),
        (simulate + ["--max-choice", "zz=3"], "'zz' is not a max state"),
        (simulate + ["--min-choice", "zz=3"], "'zz' is not a min state"),
        (simulate + ["--j", "0"], "simulation requires j >= 1"),
        (simulate + ["--j", "-2"], "simulation requires j >= 1"),
        (condon_term + ["--j", "0"], "termination requires j >= 1"),
        (condon_term + ["--j", "-4"], "termination requires j >= 1"),
    ]
    for argv, message in cases:
        out = io.StringIO()
        assert run(argv, out) == 2, argv
        assert out.getvalue() == "", argv
        assert capsys.readouterr().err == f"error = {message}\n", argv


def test_options_that_do_not_apply_are_refused(tmp_path, capsys):
    # An option the command would drop is an input error: one error line,
    # nothing on stdout, exit 2, before any report line.
    reach = _write(tmp_path, "reach-n6.ssg", bench_families().reach_instance(6, 1, None))
    dense, counter = str(DATA / "dense-n7-f36.ssg"), str(DATA / "dcounter-n24-f7.ocssg")
    condon = ["reduce", reach, "--start", "q0", "--t", "t", "--tprime", "u"]
    simulate = ["simulate", dense, "--state", "s0", "--steps", "10", "--trials", "2", "--seed", "1"]
    on_counter = ["simulate", counter, "--state", "s0", "--steps", "10", "--trials", "2", "--seed", "1"]
    threshold_b = "--threshold-b applies only to --objective liminf-minus-inf or liminf-plus-inf"
    bogus = f"unknown objective 'bogus', expected one of {', '.join(LIMIT_KINDS)}"
    cases = [
        (condon + ["--kind", "condon-limit", "--j", "5"], "--j applies only to --kind condon-term"),
        (simulate + ["--objective", "liminf-minus-inf", "--j", "4"],
         "--j applies only to --objective term or to a run without --objective"),
        (simulate + ["--objective", "mean-gt", "--j", "4"],
         "--j applies only to --objective term or to a run without --objective"),
        (simulate + ["--threshold-b", "7"], threshold_b),
        (simulate + ["--objective", "mean-gt", "--threshold-b", "7"], threshold_b),
        (on_counter + ["--objective", "term", "--j", "2", "--threshold-b", "7"], threshold_b),
        (on_counter + ["--j", "2", "--threshold-b", "7"], threshold_b),
        # The objective's name is read before any option is judged against it.
        (simulate + ["--objective", "bogus", "--threshold-b", "3"], bogus),
        (simulate + ["--objective", "bogus", "--j", "2"], bogus),
        (["solve", dense, "--objective", "mean-gt", "--relation", "gt"], "--relation applies only with --threshold"),
        (["solve", dense, "--objective", "mean-gt", "--exit-status"], "--exit-status applies only with --threshold"),
    ]
    for argv, message in cases:
        out = io.StringIO()
        assert run(argv, out) == 2, argv
        assert out.getvalue() == "", argv
        assert capsys.readouterr().err == f"error = {message}\n", argv

    # The forms where each option applies still answer; a proxy that reads
    # the threshold defaults to 50.
    valid = [
        condon + ["--kind", "condon-term", "--j", "5"],
        on_counter + ["--j", "2"],
        on_counter + ["--objective", "term", "--j", "2"],
        simulate + ["--objective", "liminf-minus-inf", "--threshold-b", "7"],
        simulate + ["--objective", "liminf-plus-inf"],
        ["solve", dense, "--objective", "mean-gt", "--state", "s0", "--threshold", "0", "--relation", "gt"],
        ["solve", dense, "--objective", "mean-gt", "--state", "s0", "--threshold", "0", "--exit-status"],
    ]
    for argv in valid:
        out = io.StringIO()
        assert run(argv, out) == 0, argv
        assert out.getvalue() and capsys.readouterr().err == "", argv
    outs = [io.StringIO(), io.StringIO()]
    run(simulate + ["--objective", "liminf-plus-inf"], outs[0])
    run(simulate + ["--objective", "liminf-plus-inf", "--threshold-b", "50"], outs[1])
    assert outs[0].getvalue() == outs[1].getvalue()
    # ``--relation`` defaults to ge where the threshold is read.
    threshold = ["solve", dense, "--objective", "mean-gt", "--state", "s0", "--threshold", "0"]
    outs = [io.StringIO(), io.StringIO()]
    run(threshold, outs[0])
    run(threshold + ["--relation", "ge"], outs[1])
    assert outs[0].getvalue() == outs[1].getvalue() and "decision = true\n" in outs[0].getvalue()


def test_parser_is_built_once(tmp_path, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", spy)
    path = _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT)
    outs = [io.StringIO(), io.StringIO()]
    for out in outs:
        assert run(["solve", path, "--objective", "mean-gt", "--state", "s"], out) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert outs[1].getvalue() == outs[0].getvalue()


def test_a_command_line_is_read_by_its_subcommand_parser_alone(tmp_path, monkeypatch, capsys):
    # A line that names a subcommand is read once, by that subcommand's
    # parser; the top-level parser reads only a line with no command, an
    # unknown one or -h.
    parser, commands = cli._build_parser()
    parsers = []
    parse_args = cli._Parser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", spy)
    coin = _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT)
    appendix = _write(tmp_path, "appendix.ocssg", FIVE_STATE_TEXT)
    lines = {
        "solve": ["solve", coin, "--objective", "mean-gt"],
        "term": ["term", appendix, "--j", "1", "--state", "v"],
        "reduce": ["reduce", coin, "--kind", "condon-limit", "--start", "s", "--t", "t", "--tprime", "u"],
        "simulate": ["simulate", coin, "--state", "s", "--steps", "5", "--trials", "2", "--seed", "1"],
        "oracle": ["oracle", coin, "--objective", "mean-gt"],
    }
    assert set(lines) == set(commands)
    for name, argv in lines.items():
        parsers.clear()
        assert run(argv, io.StringIO()) == 0, name
        assert parsers == [commands[name]], name
    assert capsys.readouterr().err == ""

    for argv in ([], ["bogus", coin]):
        parsers.clear()
        out = io.StringIO()
        assert run(argv, out) == 2
        assert parsers == [parser] and out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        if argv:
            # The choice list is quoted differently across Python versions.
            assert err.startswith("error = argument command: invalid choice: 'bogus'"), err
        else:
            assert err == "error = the following arguments are required: command\n"
    parsers.clear()
    with pytest.raises(SystemExit) as exited:
        run(["-h"], io.StringIO())
    assert exited.value.code == 0 and parsers == [parser]
    assert "{solve,term,reduce,simulate,oracle}" in capsys.readouterr().out


def test_unreadable_models_are_one_error_line(tmp_path, monkeypatch, capsys):
    # A missing file, a directory and text that is not UTF-8, in a file or
    # on stdin, and a closed stdin (``sys.stdin`` is None when descriptor 0
    # is closed), each end in one `cannot read model` line and no report.
    latin = tmp_path / "latin.ssg"
    latin.write_bytes(FAIR_COIN_TEXT.encode() + b"# caf\xe9\n")
    bad_stdin = io.TextIOWrapper(io.BytesIO(b"ssg rewards=states\n\xff\n"), encoding="utf-8")
    cases = [
        (str(tmp_path / "missing.ssg"), None, "No such file or directory"),
        (str(tmp_path), None, "Is a directory"),
        (str(latin), None, "'utf-8' codec can't decode byte 0xe9"),
        ("-", bad_stdin, "'utf-8' codec can't decode byte 0xff"),
        ("-", None, "stdin is closed"),
    ]
    for path, stdin, reason in cases:
        monkeypatch.setattr(sys, "stdin", stdin)
        out = io.StringIO()
        assert run(["solve", path, "--objective", "mean-gt"], out) == 2, path
        err = capsys.readouterr().err
        assert err.startswith("error = cannot read model: ") and err.count("\n") == 1, err
        assert reason in err and out.getvalue() == "", err


BAD_BYTES_MODEL = b"ssg rewards=states\n\xff\n"


def test_stdin_bytes_are_strict_utf8(monkeypatch, capsys):
    # A stdin whose own error handler would let the byte through as a lone
    # surrogate (the C locale's `surrogateescape`) still gets the file's
    # `cannot read model` line: its bytes are decoded as strict UTF-8.
    stdin = io.TextIOWrapper(io.BytesIO(BAD_BYTES_MODEL), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    out = io.StringIO()
    assert run(["solve", "-", "--objective", "mean-gt"], out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error = cannot read model: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1, err
    assert out.getvalue() == ""


def test_stdin_bytes_are_strict_utf8_without_a_locale():
    # The same bytes piped to `python -m ocsg.cli` with no locale set.
    src = str(Path(cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("LANG", "LC_ALL", "LC_CTYPE", "PYTHONIOENCODING")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ocsg.cli", "solve", "-", "--objective", "mean-gt"],
        input=BAD_BYTES_MODEL, capture_output=True, env=env, check=False, timeout=120,
    )
    err = done.stderr.decode()
    assert (done.returncode, done.stdout) == (2, b""), err
    assert err.startswith("error = cannot read model: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1, err


DASHED_TEXT = """\
ssg rewards=states
state -a owner=rand reward=1
trans -a -> -a p=1/1
"""


def test_argparse_errors_are_one_error_line(tmp_path, capsys):
    dashed = _write(tmp_path, "dashed.ssg", DASHED_TEXT)
    appendix = _write(tmp_path, "appendix.ocssg", FIVE_STATE_TEXT)
    cases = [
        (["term", appendix, "--state", "->", "--j", "1"], "argument --state: expected one argument"),
        (["solve", dashed, "--state=-a"], "the following arguments are required: --objective"),
        (["term", appendix, "--state", "v", "--j", "x"], "argument --j: invalid int value: 'x'"),
    ]
    for argv, message in cases:
        out = io.StringIO()
        assert run(argv, out) == 2, argv
        assert out.getvalue() == "", argv
        assert capsys.readouterr().err == f"error = {message}\n", argv
    out = io.StringIO()
    assert run(["solve", dashed, "--objective", "mean-gt", "--state=-a"], out) == 0
    assert _record(out)["-a"] == "1/1"


LONG = "x" * 5000
ONE_MAX_TEXT = "ssg rewards=states\nstate m owner=max reward=0\ntrans m -> m\n"
LONG_MAX_TEXT = f"ssg rewards=states\nstate {LONG} owner=max reward=0\ntrans {LONG} -> {LONG}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{coin}", "--objective", "mean-gt", "--state", LONG],
        ["term", "{appendix}", "--j", "1", "--state", LONG],
        ["reduce", "{coin}", "--kind", "condon-limit", "--start", LONG, "--t", "t", "--tprime", "u"],
        ["solve", "{coin}", "--objective", LONG],
        ["solve", "{coin}", "--objective", "mean-gt", "--state", "s", "--threshold", LONG],
        ["simulate", "{max}", "--state", "m", "--steps", "1", "--trials", "1", "--seed", "1", "--max-choice", "m=" + LONG],
        ["simulate", "{max}", "--state", "m", "--steps", "1", "--trials", "1", "--seed", "1", "--max-choice", LONG + "=0"],
        ["simulate", "{long}", "--state", LONG, "--steps", "1", "--trials", "1", "--seed", "1", "--max-choice", LONG + "=3"],
    ],
    ids=["solve-state", "term-state", "reduce-start", "objective", "threshold", "choice-index", "choice-state",
         "choice-range"],
)
def test_long_arguments_are_cut_in_the_error_line(tmp_path, capsys, argv):
    paths = {
        "{coin}": _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT),
        "{appendix}": _write(tmp_path, "appendix.ocssg", FIVE_STATE_TEXT),
        "{max}": _write(tmp_path, "max.ssg", ONE_MAX_TEXT),
        "{long}": _write(tmp_path, "long.ssg", LONG_MAX_TEXT),
    }
    out = io.StringIO()
    assert run([paths.get(arg, arg) for arg in argv], out) == 2
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error = ")
    # The unknown-objective message lists the six objective tags after the cut argument.
    listing = ", ".join(LIMIT_KINDS) if "unknown objective" in err else ""
    assert len(err) - len(listing) < 120, err[:200]


@pytest.mark.parametrize(
    "argv, names",
    [
        (["solve", "{coin}", "--objective", "mean-gt", "--relation", "{long}"], "argument --relation: invalid choice"),
        (["term", "{appendix}", "--j", "{long}", "--state", "v"], "argument --j: invalid int value"),
        (["simulate", "{max}", "--state", "m", "--steps", "{long}", "--trials", "1", "--seed", "1"],
         "argument --steps: invalid int value"),
        (["reduce", "{coin}", "--kind", "{long}", "--start", "s", "--t", "t", "--tprime", "u"],
         "argument --kind: invalid choice"),
        (["{long}"], "argument command: invalid choice"),
        (["solve", "{coin}", "--objective", "mean-gt", "{long}"], "unrecognized arguments"),
    ],
    ids=["relation", "j", "steps", "kind", "command", "positional"],
)
def test_argparse_errors_cut_long_values(tmp_path, capsys, argv, names):
    paths = {
        "{coin}": _write(tmp_path, "coin.ssg", FAIR_COIN_TEXT),
        "{appendix}": _write(tmp_path, "appendix.ocssg", FIVE_STATE_TEXT),
        "{max}": _write(tmp_path, "max.ssg", ONE_MAX_TEXT),
    }
    lengths = []
    for size in (5_000, 50_000):
        out = io.StringIO()
        assert run([paths.get(arg, "x" * size if arg == "{long}" else arg) for arg in argv], out) == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error = {names}"), err[:200]
        lengths.append(len(err))
    assert lengths[0] == lengths[1] < 200


def _golden(name, marker="# "):
    """The reports of a golden file by case, the words after each ``marker``."""
    golden = {}
    for line in (DATA / name).read_text().splitlines(keepends=True):
        if line.startswith(marker):
            case = tuple(line.split()[1:])
            golden[case] = ""
        else:
            golden[case] += line
    return golden


def test_solve_reports_match_golden_file():
    # Full reports (values, value1, method, witness lines) of the dense
    # fixtures and of the one-player mdp-n20-f1 under every limit objective,
    # of dense-n96-f3 under mean-leq (30 best responses), and of the
    # 18-state refusal under the three objectives it answers, pinned byte
    # for byte: a change that only speeds the solver up leaves them as they
    # are.
    golden = _golden("golden-solve-reports.txt")
    assert len(golden) == 4 * len(LIMIT_KINDS) + 1 + 3
    for (name, kind), expected in golden.items():
        out = io.StringIO()
        assert run(["solve", str(DATA / name), "--objective", kind], out) == 0
        assert out.getvalue() == expected, (name, kind)


def test_golden_witnesses_are_mutual_best_responses():
    # The witness lines of each golden report certify its values: the best
    # response to either pinned witness gives exactly the pinned values.
    for (name, kind), report in _golden("golden-solve-reports.txt").items():
        game = parse_model((DATA / name).read_text())
        values, choices = {}, {"max": {}, "min": {}}
        for line in report.splitlines():
            key, value = line.split(" = ")
            if key.startswith("witness."):
                _, player, sid = key.split(".", 2)
                choices[player][sid] = int(value)
            elif key in game.index.pos:
                values[key] = Fraction(value)
        assert values.keys() == set(game.index.ids)
        for player, choice in choices.items():
            response = ssg.best_response(game, PureMemorylessStrategy(player, choice), Objective(kind))
            assert response.values == values, (name, kind, player)


def test_term_reports_match_golden_file():
    # Full `term` reports of the dense counter fixture and of the
    # drift-balanced one (bench/families.py drift_counter(200, 1, None,
    # balanced=True)) under both --qual values at j = 1, 2 and |V|, pinned
    # byte for byte.  On the dense counter fixture the start is in the
    # liminf=-inf value-1 set, so j < |V| answers without a level product.
    # The two chance counters (bench/families.py chance_counter(8, 1, None)
    # and chance_counter(8, 27, None)) take the level branch with the start
    # outside that set (empty, then {c2}): value 1 at j = 1, not above.
    golden = _golden("golden-term-reports.txt")
    assert len(golden) == 2 * 2 * 3 + 3 + 2
    for (name, qual, j), expected in golden.items():
        start = {"dcounter": "s0", "dbalanced": "d0", "chance": "c0"}[name.split("-")[0]]
        out = io.StringIO()
        assert run(["term", str(DATA / name), "--j", j, "--state", start, "--qual", qual], out) == 0
        assert out.getvalue() == expected, (name, qual, j)


def test_reduce_reports_match_golden_file(tmp_path):
    # `reduce` output of both kinds on the Condon instances of the
    # ssg-dense pipes (bench/families.py reach_instance(n, f, None) for n
    # = 4, 6, 8 and f = 1, 2, start q0) and on the dead-sink fixture, whose
    # state lost is routed to u, pinned byte for byte.  A case starts at
    # `## `, as condon-term output starts with its `# query` line.
    reach_instance = bench_families().reach_instance
    sources = {f"reach-n{n}-f{f}": (reach_instance(n, f, None), "q0") for n in (4, 6, 8) for f in (1, 2)}
    sources["dead-sink"] = (DEAD_SINK_TEXT, "s")
    golden = _golden("golden-reduce-reports.txt", "## ")
    assert len(golden) == 2 * len(sources)
    for (name, kind), expected in golden.items():
        text, start = sources[name]
        path = _write(tmp_path, f"{name}.ssg", text)
        out = io.StringIO()
        assert run(["reduce", path, "--kind", kind, "--start", start, "--t", "t", "--tprime", "u"], out) == 0
        assert out.getvalue() == expected, (name, kind)


def test_solve_and_term_build_no_state_objects(built_states):
    # A data model is compiled into its index; `solve` and `term` read only
    # that, so no `State` or `Transition` is built, and the reports stay
    # those of the golden files.
    solve, term = _golden("golden-solve-reports.txt"), _golden("golden-term-reports.txt")
    cases = [
        (["solve", "mdp-n20-f1.ssg", "--objective", "mean-gt"], solve["mdp-n20-f1.ssg", "mean-gt"]),
        (["solve", "dense-n32-f7.ssg", "--objective", "liminf-minus-inf"],
         solve["dense-n32-f7.ssg", "liminf-minus-inf"]),
        (["term", "dcounter-n24-f7.ocssg", "--j", "2", "--state", "s0"], term["dcounter-n24-f7.ocssg", "one", "2"]),
        (["term", "dbalanced-n200-f1.ocssg", "--j", "2", "--state", "d0", "--qual", "zero"],
         term["dbalanced-n200-f1.ocssg", "zero", "2"]),
    ]
    for argv, expected in cases:
        out = io.StringIO()
        assert run([argv[0], str(DATA / argv[1]), *argv[2:]], out) == 0
        assert out.getvalue() == expected, argv
    assert built_states == {}
    # The spy counts: reading a parsed game's states builds them.
    assert parse_model(FIVE_STATE_TEXT).states and built_states == {"State": 5, "Transition": 7}


def test_solve_and_term_on_data_models_build_no_rows(built_states, monkeypatch):
    # Every data model is in `print_model`'s form, so it is compiled
    # straight into its index: `solve` and `term` read only that, and
    # neither the game's states nor any `State` is built.  The reports are
    # those of the golden files (the first case of each model).
    parsed = []

    def spy(text, _parse=cli.parse_model):
        parsed.append(_parse(text))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_model", spy)
    cases = {}
    for name in ("golden-solve-reports.txt", "golden-term-reports.txt"):
        for case, report in _golden(name).items():
            cases.setdefault(case[0], (case, report))
    assert set(cases) == {path.name for path in DATA.glob("*.*ssg")}
    for name, (case, expected) in sorted(cases.items()):
        if name.endswith(".ocssg"):
            start = expected.split("state = ", 1)[1].split()[0]
            argv = ["term", str(DATA / name), "--j", case[2], "--state", start, "--qual", case[1]]
        else:
            argv = ["solve", str(DATA / name), "--objective", case[1]]
        out = io.StringIO()
        assert run(argv, out) == 0
        assert out.getvalue() == expected, case
        assert "states" not in vars(parsed[-1]), case
    assert len(parsed) == len(cases) and built_states == {}


def test_large_value_one_query_answers(tmp_path):
    # 1000 states: a level product of 1,001,000 nodes, answered by one
    # threshold per state.
    path = _write(tmp_path, "dbalanced-n1000.ocssg", bench_families().drift_counter(1000, 1, None, balanced=True))
    out = io.StringIO()
    assert run(["term", path, "--j", "1", "--state", "d0"], out) == 0
    assert "value1 = false" in _lines(out) and "branch = level" in _lines(out)
