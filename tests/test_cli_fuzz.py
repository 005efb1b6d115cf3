"""Fuzz the command line: any argv ends in exit 0, 1, 2 or 3 with a
message, never a traceback or a warning.

Every subcommand draws its options from a pool of hostile values (zero,
negative, NaN, infinities, the largest and smallest floats, subnormals,
empty strings, garbage and lists of the wrong length). Counts stay small
and the inputs are a small prebuilt chain, so each example runs in
milliseconds.
"""

import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from keflow.cli import main

FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-200", "1e-320", "",
          "garbage", "1", "0.5", "2"]
INTS = ["0", "-1", "1", "2", "5", "9", "1e308", "", "garbage"]
# e2 shoot's b_max, kept at 10 or below so that a shoot stays short
B_MAX = ["0", "-1", "nan", "1e-200", "1e-320", "", "garbage", "1", "2",
         "10"]


def _list(arity):
    """A comma-separated list of pool values, of the right length or one
    off, or a single garbage word."""
    return st.one_of(
        st.integers(max(arity - 1, 1), arity + 1).flatmap(
            lambda n: st.lists(st.sampled_from(FLOATS), min_size=n,
                               max_size=n)).map(",".join),
        st.sampled_from(["", "garbage", ",,,"]))


def _paths(*names):
    return st.sampled_from(names + ("empty.txt", "missing.json"))


def _choice(*values):
    return st.sampled_from(values + ("garbage", ""))


_floats = st.sampled_from(FLOATS)
_ints = st.sampled_from(INTS)
# per subcommand: its fixed prefix and positionals, and a strategy per
# option (None for a flag)
COMMANDS = {
    "bianchi solve": ([], {
        "--p1": _floats, "--p2": _floats, "--p3": _floats, "--lam": _floats,
        "--alpha": _floats,
        "--case": _choice("poincare", "torus", "heisenberg", "euclidean"),
        "--alpha-eq-ab": None, "--k": _floats, "--w3": _floats,
        "--t0": _floats, "--a0": _floats, "--b0": _floats, "--c0": _floats,
        "--start": _list(4), "--t-start": _floats, "--t-end": _floats,
        "--samples": _ints}),
    "e2 shoot": ([], {
        "--q": _floats, "--eps": _floats, "--r-max": _floats,
        "--start": _list(3)}),
    "e2 diagnose": ([_paths("e2_trajectory.csv", "off_curve.csv",
                            "leafspec.json")], {}),
    "e2 bolt": ([_paths("e2_trajectory.csv", "off_curve.csv",
                        "leafspec.json")], {
        "--r-max": _floats, "--n": _ints, "--r0": _floats}),
    "pde leaf-build": ([], {
        "--h-expr": st.sampled_from(["x", "-0.5*x", "x*y", "1e308*x",
                                     "log(x)", "", "garbage", "x(", "2**x"]),
        "--domain": _list(4), "--nx": _ints, "--ny": _ints,
        "--ell-axis": _choice("x", "y")}),
    "pde profile": ([], {
        "--spec": _paths("leafspec.json", "cprofile.json"),
        "--nx": _ints, "--ny": _ints, "--step": _floats,
        "--y-start": _floats}),
    "pde construct": ([], {
        "--profile": _paths("cprofile.json", "leafspec.json"),
        "--init": _list(4), "--compat-threshold": _floats}),
    "pde verify": ([], {
        "--metric": _paths("metric.json", "kahler.json", "leafspec.json"),
        "--form": _paths("kahler.json", "metric.json"),
        "--lam": _floats}),
}


@st.composite
def argvs(draw):
    """argv for one subcommand: the command, its positionals, and some of
    its options with values from the pool. Required options are left out
    at times too."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    positional, options = COMMANDS[name]
    argv = name.split() + [draw(p) for p in positional]
    # the two options whose defaults are expensive: b_max 100, n 257
    if name == "e2 shoot":
        argv += ["--b-max", draw(st.sampled_from(B_MAX))]
    if name == "pde leaf-build":
        argv += ["--n", draw(_ints)]
    drawn = st.lists(st.sampled_from(sorted(options)), unique=True,
                     max_size=3) if options else st.just([])
    for option in draw(drawn):
        argv.append(option)
        if options[option] is not None:
            argv.append(draw(options[option]))
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The files the argv pool names: a small leaf-build, profile and
    construct chain, an e2 shoot and one from a custom start."""
    d = tmp_path_factory.mktemp("fuzz-inputs")
    runs = [
        ["pde", "leaf-build", "--n", "17", "--domain", "0,1,10,11"],
        ["pde", "profile", "--spec", "leafspec.json", "--step", "0.05",
         "--nx", "9", "--ny", "9", "--y-start", "10.2"],
        ["pde", "construct", "--profile", "cprofile.json"],
        ["e2", "shoot", "--b-max", "10"],
    ]
    for argv in runs:
        assert main(["--out-dir", str(d)] + _in(d, argv)) == 0
    (d / "e2_trajectory.csv").rename(d / "shoot.csv")
    assert main(["--out-dir", str(d), "e2", "shoot", "--start", "1,0.5,1",
                 "--b-max", "10"]) == 0
    (d / "e2_trajectory.csv").rename(d / "off_curve.csv")
    (d / "shoot.csv").rename(d / "e2_trajectory.csv")
    (d / "empty.txt").write_text("")
    return d


def _in(directory, argv):
    """argv with every pool file name made a path into directory."""
    names = {"e2_trajectory.csv", "off_curve.csv", "leafspec.json",
             "cprofile.json", "metric.json", "kahler.json", "empty.txt",
             "missing.json"}
    return [str(directory / a) if a in names else a for a in argv]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
# a*b*c of the start underflows to 0: a ZeroDivisionError traceback from
# the right-hand side before the start was refused
@example(argv=["e2", "shoot", "--b-max", "10", "--q", "1e-200"])
# a singular h: numpy's divide-by-zero warning before the refusal
@example(argv=["pde", "leaf-build", "--n", "5", "--h-expr", "log(x)"])
# h's second difference along y overflowed in the harmonicity check
@example(argv=["pde", "leaf-build", "--n", "5", "--h-expr", "1e308*x"])
def test_any_argv_exits_with_a_code_and_no_traceback(inputs, capsys, argv):
    capsys.readouterr()
    # recorded, not raised: a warning turned into an error could be caught
    # on its way and end in a refusal, hiding it
    with tempfile.TemporaryDirectory() as out, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--out-dir", out] + _in(inputs, argv))
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert not [str(w.message) for w in caught]
