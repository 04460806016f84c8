"""Input fuzz of the CLI: any eta^2, --kappa, --alpha, --window and integer-flag text
ends in a documented exit status, never in an escaping exception or a numpy
warning, and a run that writes its CSV (exit 0 or 2) writes only finite
numbers.

Runs `main()` in-process with a tiny basis so each example takes
milliseconds.  Each run gives --threads, at most 1: a larger value, and on
energy-scan an omitted one, forks worker processes, which the thread tests
of test_cli.py cover.
"""

import cmath
import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st

from kho import cli

ETA2_TEXT = st.one_of(
    st.sampled_from(["pi", "pi/2", "2pi/sqrt3", "phi*pi", "3/2*pi", "sqrt3*pi/2", "pi/0",
                     "0", "-pi", "nan", "inf", "1e-320", "1e308*10", "1e-300/1e300", "",
                     "*", "pi//2", "2*", "/3", "pi*pi*pi*pi", "1_0", " PI "]),
    st.from_regex(r"[-+0-9.e]{0,4}(pi|phi|sqrt3)?([*/][-+0-9.e]{0,4}(pi|phi|sqrt3)?){0,2}",
                  fullmatch=True),
    st.text(max_size=8),
)


def int_text(lo, hi):
    """Integers in [lo, hi] as text, or text that int() takes to at most hi
    or rejects."""
    return st.one_of(st.integers(lo, hi).map(str),
                     st.sampled_from(["", "x", "1.5", "1e3", "0x10", "-0", f"+{hi}", f" {hi} "]))


NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e-320", "0", "-0", "50", "1e59",
                     "", "x", "1,", "1e", "+", "j"]),
)
ALPHA_TEXT = st.one_of(
    NUMBER_TEXT,
    st.complex_numbers().map(str),
    st.tuples(NUMBER_TEXT, NUMBER_TEXT).map(lambda t: f"{t[0]}+{t[1]}j"),
    st.text(max_size=8),
)
WINDOW_TEXT = st.one_of(
    NUMBER_TEXT,
    st.lists(NUMBER_TEXT, min_size=2, max_size=5).map(",".join),
    st.lists(st.floats(-1e60, 1e60), min_size=4, max_size=4).map(
        lambda xs: ",".join(map(repr, xs))),
    st.text(max_size=8),
)


# flag -> (values it is fuzzed with, valid values it takes otherwise)
FUZZED = {"q": (int_text(-1, 7), ["4", "5", "7"]), "r": (int_text(-1, 4), ["1", "3"]),
             "dim": (int_text(-2, 6), ["1", "2", "5", "6"]),
             "kicks": (int_text(-2, 5), ["0", "3"]), "res": (int_text(-1, 4), ["2", "3"]),
             "scan-points": (int_text(-1, 3), ["1", "2"]), "threads": (int_text(-2, 1), ["1"]),
             "alpha": (ALPHA_TEXT, ["0", "0.3-0.2j", "1.5j"]),
             "window": (WINDOW_TEXT, ["4", "-3,3,-2,2"]),
             "kappa": (NUMBER_TEXT, ["-0.8", "0", "3", "-1e300", "1e-300"])}
VALID_ETA2 = ["pi", "phi*pi", "0.7", "2pi/sqrt3", "3/2*pi"]
FLAGS = {"evolve": ("q", "r", "kappa", "dim", "kicks", "alpha", "eta2"),
         "qfunc": ("q", "r", "kappa", "dim", "kicks", "res", "alpha", "window", "eta2"),
         "energy-scan": ("q", "r", "kappa", "dim", "kicks", "scan-points", "threads",
                         "scan-min", "scan-max"),
         "spectrum": ("q", "r", "kappa", "dim", "scan-points", "threads",
                      "scan-min", "scan-max")}


@st.composite
def argvs(draw):
    """A subcommand with one or two flags fuzzed and the rest valid."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    fuzzed = draw(st.lists(st.sampled_from(FLAGS[command]), min_size=1, max_size=2))
    argv = [command]
    for flag in FLAGS[command]:
        fuzz, valid = FUZZED.get(flag, (ETA2_TEXT, VALID_ETA2))
        value = draw(fuzz if flag in fuzzed else st.sampled_from(valid))
        argv.append(f"--{flag}={value}")
    return argv


def assert_finite_csv(path, argv):
    """Every number of a kho CSV is finite: each data field, and each value
    of a key=value header token."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines:
        if line.startswith("#"):
            fields = [token.partition("=")[2] for token in line.split()]
        else:
            fields = line.split(",")
        for field in fields:
            try:
                value = complex(field)
            except ValueError:
                continue
            assert cmath.isfinite(value), (argv, line)


@settings(max_examples=300, deadline=None)
@given(argvs())
@example(["qfunc", "--q=4", "--r=1", "--dim=1", "--kicks=0", "--res=2", "--alpha=0",
          "--window=1e308", "--eta2=pi", "--kappa=-0.8"])  # linspace width overflowed
@example(["evolve", "--q=4", "--r=1", "--kappa=-0.8", "--dim=4", "--kicks=1", "--alpha=0",
          "--eta2=1e-320"])  # zeta overflowed to inf, and the trace to nan
def test_cli_input_fuzz(argv):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning escapes as an exception
        out = os.path.join(tmp, "out")
        try:
            code = cli.main([*argv, f"--out={out}"])
        except SystemExit as exc:  # argparse rejects the flag text
            code = exc.code
        if code in (cli.EXIT_OK, cli.EXIT_TRUNCATION):
            assert_finite_csv(out, argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_TRUNCATION, cli.EXIT_VERIFY), argv
    if code == cli.EXIT_USAGE:
        assert "kho: error:" in err.getvalue(), argv
