import json
import re
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from keflow import bianchi, e2flow, leafpde, manifest, odes
from keflow.cli import main
from keflow.grids import Axis, TwoFormGrid, dump_artifact


def read_json(path):
    return json.loads(Path(path).read_text())


def test_bianchi_solve_matches_closed_form(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "bianchi", "solve",
               "--case", "euclidean", "--k", "1.2", "--w3", "0.8",
               "--alpha", "0.3", "--t-start", "1.0", "--t-end", "2.0"])
    assert rc == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    rep = read_json(tmp_path / "bianchi_report.json")
    assert rep["closed_form"]["matched"]
    assert rep["closed_form"]["max_rel_deviation"] < \
        rep["closed_form"]["bound"]


def test_bianchi_torus_flat_check(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "bianchi", "solve",
               "--case", "torus", "--alpha-eq-ab", "--a0", "0.8",
               "--b0", "0.75", "--t-start", "0.1", "--t-end", "1.0"])
    assert rc == 0
    rep = read_json(tmp_path / "bianchi_report.json")
    assert rep["torus_flatness"]["flat"]
    assert rep["torus_flatness"]["max_riemann"] < 1e-6
    # sha256 of the README torus artifact, which does not depend on the
    # out-dir path; numpy 2.4.6. x, y and z are one-node axes
    assert manifest.sha256_of(tmp_path / "torus_metric.json") == (
        "5fd39e3b26c5a25a58bd3dcaa617924bededd6aa842d75884798eea90552e38b")
    axes = read_json(tmp_path / "torus_metric.json")["axes"]
    assert [ax["count"] for ax in axes] == [7, 1, 1, 1]


# the check reads the rows the march stored, off by 3.8e-12 (euclidean)
# and 1.2e-12 (torus); the dense output between them is off by about 7e-11
@pytest.mark.parametrize("args", [
    ["--case", "euclidean", "--k", "1.2", "--w3", "0.8", "--alpha", "0.3",
     "--t-start", "1.0", "--t-end", "2.0"],
    ["--case", "torus", "--alpha-eq-ab", "--a0", "0.8", "--b0", "0.75",
     "--t-start", "0.1", "--t-end", "1.0"],
], ids=["euclidean", "torus"])
def test_bianchi_closed_form_check_reads_the_stored_rows(tmp_path, args):
    assert main(["--out-dir", str(tmp_path), "bianchi", "solve"] + args) == 0
    params = read_json(tmp_path / "manifest.json")["parameters"]
    consts = bianchi.ClosedFormConstants(**params["constants"])
    traj = odes.Trajectory.from_csv((tmp_path / "trajectory.csv").read_bytes())
    exact = [bianchi.closed_form(params["case"], consts, t)
             for t in traj.t.tolist()]
    exact = np.array([[s.a, s.b, s.c] for s in exact])
    dev = np.max(np.abs(traj.states - exact) / exact)
    rep = read_json(tmp_path / "bianchi_report.json")["closed_form"]
    assert rep["max_rel_deviation"] == dev
    assert dev <= 1e-11


def test_bianchi_rejects_inconsistent_parameters(tmp_path):
    # p3 = 0 demands lam = 0
    rc = main(["--out-dir", str(tmp_path), "bianchi", "solve",
               "--p1", "1", "--p2", "1", "--p3", "0", "--lam", "-1",
               "--start", "1,1,1", "--t-end", "1"])
    assert rc == 1


# --case sets the flow and its start, and these options used to be
# dropped without a word: the manifest of `--case torus --lam nan` said
# lam 0.0
@pytest.mark.parametrize("args, named", [
    (["--lam", "nan", "--p1", "nan"], "--p1, --lam"),
    (["--lam", "0"], "--lam"),
    (["--p2", "1"], "--p2"),
    (["--p3", "0"], "--p3"),
    (["--start", "0,1,1,1"], "--start"),
])
def test_bianchi_case_refuses_flow_options(tmp_path, capsys, args, named):
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "bianchi", "solve", "--case",
                 "torus", "--t-end", "1.0"] + args) == 1
    err = capsys.readouterr().err
    assert f"Error: {named} cannot be combined with --case" in err
    assert not any(tmp_path.iterdir())


_TYPE_A = ["--p1", "1", "--p2", "0", "--p3", "1", "--lam", "-1",
           "--start", "0,1,0.5,1", "--t-end", "1"]


# non-finite parameters used to march until the step underflowed (exit 2)
# and left a manifest.json with a bare NaN token, which is not JSON
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option, base", [
    ("--p1", _TYPE_A), ("--p2", _TYPE_A), ("--p3", _TYPE_A),
    ("--lam", _TYPE_A),
    ("--alpha", ["--p1", "1", "--p2", "1", "--p3", "0", "--start",
                 "0,1,0.5,1", "--t-end", "1"]),
])
def test_bianchi_non_finite_parameters_exit_1(tmp_path, capsys, option,
                                              base, value):
    args = list(base)
    if option in args:
        args[args.index(option) + 1] = value
    else:
        args += [option, value]
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "bianchi", "solve"] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p1, p2, p3, lam and alpha0 must be finite")
    assert not (tmp_path / "manifest.json").exists()


def test_bianchi_blow_up_exit_code(tmp_path):
    # poincare waists collapse at a finite time inside this span
    rc = main(["--out-dir", str(tmp_path), "bianchi", "solve",
               "--case", "poincare", "--alpha", "0.1",
               "--t-start", "0.4", "--t-end", "3.0"])
    assert rc == 2
    rep = read_json(tmp_path / "bianchi_report.json")
    assert rep["blow_up"]


def test_bianchi_overflowing_first_step_exits_2(tmp_path, capsys):
    # b's derivative over atol overflows the first-step rule's norm; this
    # used to end in a ZeroDivisionError traceback. The dense output's
    # coefficients overflow as on floats, without a RuntimeWarning
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--out-dir", str(tmp_path), "bianchi", "solve"]
                    + _TYPE_A[:-4] + ["--start", "0,1e150,1e-150,1e150",
                                      "--t-end", "1"]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "terminated: step_underflow" in capsys.readouterr().out


# a backward march's rows run in increasing t too, and the report and the
# echo gave the first of them, the start, as where the march ended
@pytest.mark.parametrize("t_end, rc, reason", [("-1", 0, "t_end"),
                                               ("-100", 2, "step_underflow")])
def test_bianchi_backward_run_reports_where_the_march_ended(tmp_path, capsys,
                                                           t_end, rc, reason):
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "bianchi", "solve", "--p1", "1",
                 "--p2", "1", "--p3", "1", "--lam", "1", "--start", "0,1,1,1",
                 "--t-end", t_end]) == rc
    traj = odes.Trajectory.from_csv((tmp_path / "trajectory.csv").read_bytes())
    rep = read_json(tmp_path / "bianchi_report.json")
    assert rep["stop_reason"] == reason
    assert rep["t_final"] == traj.t[0] < 0.0
    assert rep["final_state"] == traj.states[0].tolist() != [1.0, 1.0, 1.0]
    if reason == "t_end":
        assert rep["t_final"] == -1.0
    assert f"t = {traj.t[0]:.6g} " in capsys.readouterr().out


def test_usage_error_exit_code(tmp_path):
    assert main(["--out-dir", str(tmp_path), "bianchi", "solve",
                 "--p1", "1", "--p2", "1"]) == 1


_EUCLIDEAN = ["bianchi", "solve", "--case", "euclidean", "--k", "1.2",
              "--w3", "0.8", "--alpha", "0.3", "--t-start", "1.0"]


# The nan spans used to march forever and the nan or inf starts ended in
# a traceback from the integrator's own input check. Starts whose (a b)^2
# overflows ended in an OverflowError traceback from the float square. A
# shoot that stops at its start used to leave e2_trajectory.csv behind,
# without a manifest. A start whose a*b*c underflows to 0 ended in a
# ZeroDivisionError traceback from the right-hand side.
@pytest.mark.parametrize("args, message", [
    (["e2", "shoot", "--r-max", "nan"], "r_end must be finite, got nan"),
    (_EUCLIDEAN + ["--t-end", "nan"], "t_end must be finite, got nan"),
    (["e2", "shoot", "--q", "nan"], "initial a must be finite, got nan"),
    (["e2", "shoot", "--q", "inf"], "initial a must be finite, got inf"),
    (["e2", "shoot", "--q", "1e200", "--b-max", "1e300", "--r-max", "1e300"],
     "the right-hand side is not finite at the start: (nan, nan, nan, 0.0)"),
    (["e2", "shoot", "--eps", "nan"], "initial b must be finite, got nan"),
    (["e2", "shoot", "--start", "1,2,nan"],
     "initial c must be finite, got nan"),
    (["e2", "shoot", "--q", "1e200"],
     "b_max 100.0 must lie above the start's b = 1.0000000000000001e+195"),
    (["e2", "shoot", "--q", "1e100"],
     "b_max 100.0 must lie above the start's b = 1.0000000000000002e+95"),
    (["e2", "shoot", "--q", "1e100", "--b-max", "1e300", "--r-max", "1e300"],
     "the right-hand side is not finite at the start: (0.0, "),
    (["bianchi", "solve", "--p1", "1", "--p2", "0", "--p3", "1", "--lam",
      "-1", "--start", "0,1e100,1e95,1e100", "--t-end", "1"],
     "the right-hand side is not finite at the start: (0.0, 1e+295, inf)"),
    (["e2", "shoot", "--q", "1e50", "--b-max", "1e300", "--r-max", "1e300"],
     "diagnostics need two samples or more; the run stopped at its start "
     "(step_underflow)"),

    (["e2", "shoot", "--q", "1e-110"], "the start's a*b*c = 0.0 underflows"),
    (["e2", "shoot", "--start", "1e-120,1e-120,1e-120"],
     "the start's a*b*c = 0.0 underflows"),
])
def test_non_finite_integration_inputs_exit_1(tmp_path, capsys, args,
                                              message):
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert not any(tmp_path.iterdir())


# a nan b_max used to run until the step underflowed, a negative one to
# the end of the span, both ending in exit 2
@pytest.mark.parametrize("args", [["--b-max", "nan"],
                                  ["--b-max", "-3", "--r-max", "5"]])
def test_e2_shoot_bad_b_max_exits_1(tmp_path, capsys, args):
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "e2", "shoot"] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: b_max must be positive and finite")
    assert not (tmp_path / "manifest.json").exists()


# a b_max at or below the start's b is never crossed upward, so the shoot
# used to run to the end of its span and exit 2
@pytest.mark.parametrize("args, b_start", [
    (["--b-max", "1e-6", "--r-max", "5"], "1e-05"),
    (["--b-max", "1e-5"], "1e-05"),
    (["--q", "2", "--b-max", "1.5e-5"], "2e-05"),
    (["--start", "1,2,3", "--b-max", "2"], "2.0"),
])
def test_e2_shoot_b_max_at_or_below_the_start_exits_1(tmp_path, capsys, args,
                                                       b_start):
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "e2", "shoot"] + args) == 1
    err = capsys.readouterr().err
    b_max = repr(float(args[args.index("--b-max") + 1]))
    assert err == (f"error: b_max {b_max} must lie above the start's "
                   f"b = {b_start}\n")
    assert not any(tmp_path.iterdir())


# backward in r the shoot runs into the bolt, where a*b*c -> 0, and a
# stage landing on b = 0 exactly ended in a ZeroDivisionError traceback;
# the march now rejects such a step as it does a non-finite error
# an r_max at or below the start's r used to march backward, into the
# bolt, and exit 2 with the artifacts of a shoot that never heads for b_max
@pytest.mark.parametrize("args, r_start", [
    (["e2", "shoot", "--b-max", "2", "--r-max", "1e-6"], "1e-05"),
    (["e2", "shoot", "--b-max", "2", "--r-max", "1e-320"], "1e-05"),
    (["e2", "shoot", "--eps", "1e-3", "--r-max", "1e-3"], "0.001"),
    (["e2", "shoot", "--start", "1,2,3", "--r-max", "0"], "0.0"),
    (["e2", "shoot", "--start", "1,2,3", "--r-max", "-inf"], "0.0"),
])
def test_e2_shoot_r_max_at_or_below_the_start_exits_1(tmp_path, capsys, args,
                                                       r_start):
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path)] + args) == 1
    r_max = repr(float(args[args.index("--r-max") + 1]))
    assert capsys.readouterr().err == (
        f"error: r_max {r_max} must lie above the start's r = {r_start}\n")
    assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def e2_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("e2run")
    rc = main(["--out-dir", str(d), "e2", "shoot", "--q", "1.0",
               "--eps", "1e-5", "--b-max", "100"])
    assert rc == 0
    return d


def test_e2_shoot_artifacts(e2_run):
    # the shoot reports where and why it stopped; the verdicts are
    # `e2 diagnose`'s alone
    doc = read_json(e2_run / "e2_diagnostics.json")
    assert sorted(doc) == ["blow_up", "final_state", "n_steps", "r_final",
                           "stop_reason"]
    assert doc["stop_reason"] == "event:b_max"
    assert (e2_run / "e2_trajectory.csv").exists()


def test_e2_diagnose_from_csv(e2_run, tmp_path):
    rc = main(["--out-dir", str(tmp_path), "e2", "diagnose",
               str(e2_run / "e2_trajectory.csv")])
    assert rc == 0
    diag = read_json(tmp_path / "e2_diagnostics.json")
    assert diag["monotone_all"]


def test_e2_bolt_from_csv(e2_run, tmp_path):
    rc = main(["--out-dir", str(tmp_path), "e2", "bolt",
               str(e2_run / "e2_trajectory.csv"), "--n", "120"])
    assert rc == 0
    rep = read_json(tmp_path / "bolt_report.json")
    assert rep["smooth"]
    assert rep["db_dr_deviation"] < 1e-4
    assert (tmp_path / "bolt_profile.csv").exists()


def test_e2_diagnose_matches_the_shoot_diagnostics(e2_run, tmp_path):
    # the replayed dense output is the shoot's, so every figure agrees
    # with the diagnostics of the live march
    assert main(["--out-dir", str(tmp_path), "e2", "diagnose",
                 str(e2_run / "e2_trajectory.csv")]) == 0
    diag = read_json(tmp_path / "e2_diagnostics.json")
    assert diag.pop("monotone_all")
    live = e2flow.diagnose(e2flow.shoot_unstable(1.0, eps=1e-5, b_max=100.0))
    assert diag == manifest.jsonable(asdict(live))


@pytest.mark.parametrize("command", ["diagnose", "bolt"])
def test_e2_analyses_integrate_no_shoot(e2_run, tmp_path, monkeypatch,
                                        command):
    def refuse(*args, **kwargs):
        raise AssertionError("shot again")

    spans = []

    def integrate_flow(rhs, t0, y0, t_end, *args, **kwargs):
        spans.append((t0, t_end))
        return odes.integrate_flow(rhs, t0, y0, t_end, *args, **kwargs)

    monkeypatch.setattr(e2flow, "shoot_unstable", refuse)
    monkeypatch.setattr(e2flow, "integrate_flow", integrate_flow)
    assert main(["--out-dir", str(tmp_path), "e2", command,
                 str(e2_run / "e2_trajectory.csv")]) == 0
    # diagnose's backward tail leg is the only integration left
    assert all(t_end < t0 for t0, t_end in spans)


def _samples(edit):
    """CSV mutation applying edit to the sample rows after the column row."""
    def mutate(text):
        lines = text.splitlines()
        k = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        return "\n".join(lines[:k + 1] + edit(lines[k + 1:])) + "\n"
    return mutate


@pytest.mark.parametrize("command", ["diagnose", "bolt"])
@pytest.mark.parametrize("mutate, message", [
    (lambda text: "hello\n", "does not contain a sampled table"),
    (lambda text: b"\xff\xfe", "not UTF-8"),
    (_samples(lambda rows: rows[:3] + ["0.5,abc,1,1,1"] + rows[4:]),
     "could not convert string to float: 'abc'"),
    (_samples(lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0]] + rows[4:]),
     "4 cells, 5 columns"),
    (_samples(lambda rows: [rows[1], rows[0]] + rows[2:]),
     "strictly increasing"),
    (lambda text: "\n".join(
        ln if ln.startswith("#") and not ln.startswith("# columns:")
        else ln.rsplit(",", 1)[0] for ln in text.splitlines()),
     "are not those of 'e2 shoot' (r,a,b,c,t)"),
    (lambda text: text.replace("# rtol: 1e-14", "# rtol: abc"),
     "CSV line 2: could not convert"),
    (lambda text: text.replace("# meta q: 1.0", "# meta q: 'abc'"),
     "malformed shoot metadata"),
    (lambda text: text.replace("# meta eps: 1e-05\n", ""),
     "malformed shoot metadata: KeyError('eps')"),
    (lambda text: re.sub(r"# last_step: .*\n", "", text),
     "no last_step header; write it again with 'e2 shoot'"),
    (lambda text: text.replace("# rtol:", "# colour: red\n# rtol:"),
     "CSV line 2: unknown header key 'colour'"),
    (lambda text: text.replace("# columns: r,a,b,c,t", "# columns: r,a,c,b,t"),
     "columns header 'r,a,c,b,t' does not name the column row 'r,a,b,c,t'"),
    # a shoot stored in t, as 'e2 shoot' wrote it before it shot in r
    (lambda text: text.replace("r,a,b,c,t", "t,a,b,c,r"),
     "trajectory columns t,a,b,c,r are not those of 'e2 shoot' (r,a,b,c,t)"),
    (lambda text: re.sub(r"# n_steps: (\d+)",
                         lambda m: f"# n_steps: {int(m[1]) + 1}", text),
     "n_steps 228 but 228 sample rows; n steps store n + 1 rows"),
])
def test_e2_bad_csv_exit_1(e2_run, tmp_path, capsys, command, mutate,
                           message):
    text = mutate((e2_run / "e2_trajectory.csv").read_text())
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    capsys.readouterr()
    rc = main(["--out-dir", str(tmp_path / "out"), "e2", command, str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and message in err, err


def _drop_row(k):
    """CSV mutation deleting sample row k and counting one step fewer."""
    def mutate(text):
        n = int(re.search(r"# n_steps: (\d+)", text)[1])
        text = text.replace(f"# n_steps: {n}", f"# n_steps: {n - 1}")
        return _samples(lambda rows: rows[:k] + rows[k + 1:])(text)
    return mutate


def _scale_row(k, factor):
    def edit(rows):
        t, *values = rows[k].split(",")
        scaled = [repr(float(v) * factor) for v in values]
        return rows[:k] + [",".join([t] + scaled)] + rows[k + 1:]
    return _samples(edit)


@pytest.mark.parametrize("command", ["diagnose", "bolt"])
@pytest.mark.parametrize("mutate, message", [
    (_scale_row(100, 1 + 1e-7),
     "row 100 differs from the step replayed from the row before"),
    # the merged step lands 1e-13 off the stored row, and its error norm
    # is far above 1
    (_drop_row(100), "the step from row 99 fails the error test"),
    (lambda text: text.replace("# meta eps: 1e-05", "# meta eps: 2e-05"),
     "the start row is not the shoot's start"),
    (lambda text: text.replace("# atol: 1e-16", "# atol: 1e-10"),
     "atol is not the shoot's rtol * 1e-2"),
])
def test_e2_stale_csv_exit_3(e2_run, tmp_path, capsys, command, mutate,
                             message):
    bad = tmp_path / "stale.csv"
    bad.write_text(mutate((e2_run / "e2_trajectory.csv").read_text()))
    capsys.readouterr()
    rc = main(["--out-dir", str(tmp_path / "out"), "e2", command, str(bad)])
    err = capsys.readouterr().err
    assert rc == 3
    assert message in err and "artifact stale?" in err, err


@pytest.fixture(scope="module")
def long_step_run(tmp_path_factory):
    # a march with safety factor 0.95 instead of 0.9 takes steps up to 6 %
    # longer than the controller proposes, each passing its error test
    d = tmp_path_factory.mktemp("longstep")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odes, "SAFETY", 0.95)
        assert main(["--out-dir", str(d), "e2", "shoot"]) == 0
    return d


@pytest.mark.parametrize("command", ["diagnose", "bolt"])
def test_e2_csv_with_long_steps_exit_3(long_step_run, tmp_path, capsys,
                                       command):
    capsys.readouterr()
    rc = main(["--out-dir", str(tmp_path), "e2", command,
               str(long_step_run / "e2_trajectory.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "longer than the controller's proposal" in err, err
    assert "artifact stale?" in err


@pytest.fixture(scope="module")
def off_curve_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("offcurve")
    main(["--out-dir", str(d), "e2", "shoot", "--start", "2,0.5,0.3",
          "--b-max", "30"])
    return d


def test_e2_diagnose_flags_off_curve_start(off_curve_run, tmp_path):
    rc = main(["--out-dir", str(tmp_path), "e2", "diagnose",
               str(off_curve_run / "e2_trajectory.csv")])
    assert rc == 3
    diag = read_json(tmp_path / "e2_diagnostics.json")
    assert not diag["region_ok"]


@pytest.mark.parametrize("args, message", [
    (["--n", "0"], "needs n >= 2 samples"),
    (["--r-max", "0"], "r_max 0.0 outside"),
    (["--r-max", "-1"], "r_max -1.0 outside"),
    (["--r-max", "nan"], "r_max nan outside"),
    (["--r-max", "1e-6"], "r_max 1e-06 outside"),
    (["--r0", "nan"], "r0/4 = nan below"),
])
def test_e2_bolt_bad_input_exit_1(e2_run, tmp_path, capsys, args, message):
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "e2", "bolt",
                 str(e2_run / "e2_trajectory.csv")] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_e2_bolt_needs_tail_origin(off_curve_run, tmp_path):
    rc = main(["--out-dir", str(tmp_path), "e2", "bolt",
               str(off_curve_run / "e2_trajectory.csv")])
    assert rc == 1


@pytest.fixture(scope="module")
def pde_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("pde")
    rc = main(["--out-dir", str(d / "spec"), "pde", "leaf-build",
               "--h-expr", "x", "--domain", "0,1,1,2", "--n", "129"])
    assert rc == 0
    rc = main(["--out-dir", str(d / "prof"), "pde", "profile",
               "--spec", str(d / "spec" / "leafspec.json"),
               "--step", "0.02", "--nx", "25", "--ny", "27",
               "--y-start", "1.1"])
    assert rc == 0
    rc = main(["--out-dir", str(d / "met"), "pde", "construct",
               "--profile", str(d / "prof" / "cprofile.json")])
    assert rc == 0
    rc = main(["--out-dir", str(d / "ver"), "pde", "verify",
               "--metric", str(d / "met" / "metric.json"),
               "--form", str(d / "met" / "kahler.json"), "--lam", "0"])
    assert rc == 0
    return d


def test_pde_artifacts_golden_bytes(pde_run):
    # sha256 of the README-size artifacts (n = 129); the profile's and the
    # verify report's, which pins the 4D Einstein residual, from when the
    # geodesic shoot's spline of phi moved from scipy to numpy, the leaf
    # report's from when its rescaled deviation became leaf_spec's
    # curvature -2 check of l g0; numpy 2.4.6
    assert manifest.sha256_of(pde_run / "prof" / "cprofile.json") == (
        "f3748520771607d95e259ba3cef6577cd2ccd9c662fde4b8ce17c679558edf1f")
    assert manifest.sha256_of(pde_run / "spec" / "leaf_report.json") == (
        "58f54f61fb3350b8d65f462ecb7a917a414503d28781d4cb8bb23be1e162997a")
    assert manifest.sha256_of(pde_run / "ver" / "verify_report.json") == (
        "b8a90cb5a2fa3a295ff7bb059bc861918d266ebdf4e93e685a760d2a4b1bb68f")


def test_pde_leaf_report(pde_run):
    rep = read_json(pde_run / "spec" / "leaf_report.json")
    assert rep["gauss_curvature_deviation"] < 1e-3
    assert rep["leaf_pde_residual"] < 1e-2
    assert rep["rescaled_curvature_deviation"] < 1e-2
    # the command writes leafpde.leaf_report of its spec, and the step
    spec = leafpde.LeafSpec.from_json(
        (pde_run / "spec" / "leafspec.json").read_bytes())
    assert rep.pop("step") == [spec.x_axis.step, spec.y_axis.step]
    assert rep == leafpde.leaf_report(spec)


def test_pde_construct_report(pde_run):
    rep = read_json(pde_run / "met" / "construct_report.json")
    assert rep["compat_residual"] < 1e-2
    assert rep["det_drift"] < 1e-8
    # u and v are stored once, so the README-size artifacts stay small
    assert (pde_run / "met" / "metric.json").stat().st_size < 200_000
    assert (pde_run / "met" / "kahler.json").stat().st_size < 200_000


def test_pde_verify_pipeline_metric(pde_run):
    rep = read_json(pde_run / "ver" / "verify_report.json")
    assert rep["einstein_residual"] < 5e-3
    assert rep["closedness"] < 1e-10


def test_pde_verify_reads_padded_killing_axes(pde_run, tmp_path):
    # earlier versions wrote u and v as 5 identical nodes: the same
    # document with count 5 in place of 1, since the codec stores one slice
    reports = []
    for count in (1, 5):
        paths = []
        for name in ("metric.json", "kahler.json"):
            doc = read_json(pde_run / "met" / name)
            assert [ax["count"] for ax in doc["axes"][2:]] == [1, 1]
            for ax in doc["axes"][2:]:
                ax["count"] = count
            paths.append(tmp_path / f"{count}-{name}")
            paths[-1].write_text(json.dumps(doc))
        out = tmp_path / f"ver{count}"
        assert main(["--out-dir", str(out), "pde", "verify",
                     "--metric", str(paths[0]), "--form", str(paths[1]),
                     "--lam", "0"]) == 0
        reports.append((out / "verify_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_pde_construct_compat_threshold(pde_run, tmp_path):
    rc = main(["--out-dir", str(tmp_path), "pde", "construct",
               "--profile", str(pde_run / "prof" / "cprofile.json"),
               "--compat-threshold", "1e-12"])
    assert rc == 3
    rep = read_json(tmp_path / "construct_report.json")
    assert "error" in rep


# these used to exit 3 as a verification failure and write a construct
# report holding the error
@pytest.mark.parametrize("threshold", ["nan", "-1"])
def test_pde_construct_bad_compat_threshold_exits_1(pde_run, tmp_path,
                                                    capsys, threshold):
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "pde", "construct",
                 "--profile", str(pde_run / "prof" / "cprofile.json"),
                 "--compat-threshold", threshold]) == 1
    assert "Invalid value for '--compat-threshold'" in capsys.readouterr().err
    assert not (tmp_path / "construct_report.json").exists()


def _edit(key, field, value):
    def mutate(doc):
        if field is None:
            del doc[key]
        elif field == "pop":
            doc[key]["values"].pop()
        else:
            doc[key][field] = value
        return json.dumps(doc)
    return mutate


# artifact -> (file in the pde_run fixture, command loading it)
_LOADS = {"metric": ("met/metric.json", ["pde", "verify", "--metric"]),
          "form": ("met/kahler.json", ["pde", "verify", "--metric", None,
                                       "--form"]),
          "spec": ("spec/leafspec.json", ["pde", "profile", "--spec"]),
          "profile": ("prof/cprofile.json", ["pde", "construct",
                                             "--profile"])}


@pytest.mark.parametrize("artifact, mutate, message", [
    ("metric", lambda doc: "{not json", "not a JSON document"),
    ("metric", lambda doc: b"\xff\xfe{", "not a JSON document"),
    ("metric", lambda doc: "[1, 2]", "must be a JSON object"),
    ("metric", _edit("axes", None, None), "malformed axes"),
    ("metric", _edit("components", None, None), "'components': missing"),
    ("metric", _edit("components", "pop", None), "values for stored shape"),
    ("metric", _edit("components", "constant_axes", [4]), "distinct node axes"),
    ("metric", _edit("components", "constant_axes", [2, 2]),
     "distinct node axes"),
    ("metric", _edit("components", "values", ["a"]), "not numbers"),
    ("metric", lambda doc: json.dumps(dict(doc, schema=1)),
     "unsupported schema 1"),
    ("form", _edit("components", "pop", None), "values for stored shape"),
    ("spec", _edit("ell", None, None), "'ell': missing"),
    ("spec", lambda doc: json.dumps(dict(doc, axes=[{"name": "x"}])),
     "malformed axes"),
    ("spec", lambda doc: json.dumps(dict(doc, axes=doc["axes"][:1])),
     "needs 2 axes"),
    ("profile", _edit("c", "pop", None), "values for stored shape"),
    ("profile", lambda doc: json.dumps(dict(doc, kind="leaf_spec")),
     "expected kind 'c_profile'"),
    ("profile", lambda doc: json.dumps(dict(doc, x_map=dict(
        doc["x_map"], values=[float("nan")] + doc["x_map"]["values"][1:]))),
     "'x_map': non-finite values"),
    ("profile", lambda doc: json.dumps(dict(doc, coverage="abc")),
     "coverage 'abc'"),
    ("profile", lambda doc: json.dumps(dict(doc, coverage=0)), "coverage 0,"),
    ("profile", lambda doc: json.dumps(dict(doc, coverage=1.5)),
     "coverage 1.5,"),
    ("profile", lambda doc: json.dumps(dict(doc, truncated="no")),
     "truncated 'no'"),
    ("profile", lambda doc: json.dumps(dict(doc, truncation_reason=5)),
     "truncation_reason 5"),
    ("profile", lambda doc: json.dumps(dict(doc, meta=[1])),
     "'meta' must be a JSON object"),
    ("spec", lambda doc: json.dumps(dict(doc, meta="x")),
     "'meta' must be a JSON object"),
    ("metric", lambda doc: json.dumps(dict(doc, manifest=[1])),
     "'manifest' must be a JSON object"),
    # a key outside the kind's own is rejected, not ignored
    ("spec", lambda doc: json.dumps(dict(doc, foo=1)),
     "unknown key(s) 'foo' in leaf_spec document"),
    ("profile", lambda doc: json.dumps(dict(doc, foo=1)),
     "unknown key(s) 'foo' in c_profile document"),
    ("metric", lambda doc: json.dumps(dict(doc, foo=1)),
     "unknown key(s) 'foo' in metric_grid document"),
    ("form", lambda doc: json.dumps(dict(doc, foo=1)),
     "unknown key(s) 'foo' in two_form_grid document"),
    ("metric", lambda doc: json.dumps(dict(doc, axes=[
        dict(doc["axes"][0], foo=1)] + doc["axes"][1:])),
     "unknown axis key(s) 'foo'"),
])
def test_malformed_artifacts_exit_1(pde_run, tmp_path, capsys, artifact,
                                    mutate, message):
    name, command = _LOADS[artifact]
    text = mutate(read_json(pde_run / name))
    bad = tmp_path / "bad.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    args = [str(pde_run / "met/metric.json") if a is None else a
            for a in command]
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path / "out")] + args + [str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_h_expr_is_parsed_not_executed(tmp_path, capsys):
    payload = ("x*0 + [c for c in ().__class__.__base__.__subclasses__() "
               "if c.__name__=='Popen'].__len__()")
    capsys.readouterr()
    rc = main(["--out-dir", str(tmp_path), "pde", "leaf-build",
               "--h-expr", payload, "--n", "9"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot evaluate harmonic expression")
    assert not (tmp_path / "leafspec.json").exists()


def test_leaf_build_ell_axis_x(tmp_path, monkeypatch):
    # 1/(2 x^2) comes from leafpde.hyperbolic_factor, as 1/(2 y^2) does;
    # sha256 of the spec cli wrote when it built the factor inline, the
    # same bytes; numpy 2.4.6. The leaf is exactly constant along y, so
    # leaf_spec's curvature -2 check and the report's Gauss curvature
    # check, leaf residual and curvature -2 check all run on one y slice
    counts = []

    def recorded(f):
        def call(g, *args):
            counts.append(g.counts)
            return f(g, *args)
        return call

    for name in ("gauss_curvature_2d", "leaf_pde_residual"):
        monkeypatch.setattr(leafpde, name, recorded(getattr(leafpde, name)))
    assert main(["--out-dir", str(tmp_path), "pde", "leaf-build",
                 "--domain", "1,2,0,1", "--n", "33", "--ell-axis", "x"]) == 0
    assert manifest.sha256_of(tmp_path / "leafspec.json") == (
        "eabbeb4d3e19b189e38b2cc89e420d3e2131a17844a5ddfe21c5e26525d4c237")
    assert counts == [(33, 1)] * 4
    assert manifest.sha256_of(tmp_path / "leaf_report.json") == (
        "f24fa5275a451f58a6c05b43acf0fe9d36531cc82faa503687ebbe641e06fe8c")


def test_leaf_build_ell_axis_x_needs_the_domain_in_x_positive(tmp_path,
                                                             capsys):
    # the default domain starts at x = 0, where 1/(2 x^2) used to reach
    # the metric as inf and be refused as a "non-finite metric component"
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "pde", "leaf-build",
                 "--n", "9", "--ell-axis", "x"]) == 1
    assert capsys.readouterr().err == (
        "error: hyperbolic factor needs the domain inside x > 0\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("option", ["--n", "--nx", "--ny"])
@pytest.mark.parametrize("count", ["0", "4"])
def test_leaf_build_rejects_counts_below_five(tmp_path, capsys, option,
                                             count):
    # a count below 5 is refused by click, and 0 is not read as "not given"
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "pde", "leaf-build",
                 "--n", "33", option, count]) == 1
    err = capsys.readouterr().err
    assert f"Invalid value for '{option}'" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


# a step whose square underflows made the harmonicity and curvature
# stencils divide by zero (two numpy RuntimeWarnings), and the run then
# blamed ell; one whose square overflows warned from hyperbolic_factor
@pytest.mark.parametrize("domain, message", [
    ("0,1e-300,1,2", "axis 'x': step 1.25e-301 squared is not a normal float"),
    ("0,1,1,1e200", "axis 'y': step 1.25e+199 squared is not a normal float"),
])
def test_leaf_build_refuses_steps_whose_square_is_not_normal(
        tmp_path, capsys, domain, message):
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--out-dir", str(tmp_path), "pde", "leaf-build",
                     "--domain", domain, "--n", "9"]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("option", ["--nx", "--ny"])
@pytest.mark.parametrize("count", ["0", "1", "-3"])
def test_pde_profile_rejects_counts_below_two(pde_run, tmp_path, capsys,
                                              option, count):
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "pde", "profile",
                 "--spec", str(pde_run / "spec" / "leafspec.json"),
                 "--step", "0.02", "--y-start", "1.1", option, count]) == 1
    err = capsys.readouterr().err
    assert f"Invalid value for '{option}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cprofile.json").exists()


def test_pde_profile_refuses_a_one_node_base_curve(pde_run, tmp_path,
                                                   capsys, monkeypatch):
    # two and a half source steps below the top edge, the default base
    # curve has one node; a profile would be y-invariant along it. It is
    # refused before the shoot: no spline is fitted, no RK4 step taken
    def shoot(*args):
        raise AssertionError("the shoot ran")

    monkeypatch.setattr(leafpde, "factor_spline", shoot)
    monkeypatch.setattr(leafpde, "_rk4", shoot)
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "pde", "profile",
                 "--spec", str(pde_run / "spec" / "leafspec.json"),
                 "--y-start", "1.98046875"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need at least 2 nodes per axis, got (")
    assert err.endswith(", 1)\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [[], ["--nx", "2"]])
def test_pde_profile_names_the_geodesic_that_leaves(pde_run, tmp_path,
                                                    capsys, args):
    # base-curve seeds one node in, so the top pad seed lies on the source's
    # top edge, and its geodesic leaves the rectangle in the first step
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "pde", "profile",
                 "--spec", str(pde_run / "spec" / "leafspec.json"),
                 "--y-start", "1.0078125", "--ny", "127"] + args) == 1
    err = capsys.readouterr().err
    assert err == ("error: the geodesic from base-curve y = 2 leaves the "
                   "source rectangle [0, 1] x [1, 2] before the second "
                   "profile node (profile step 0.0078125)\n")
    assert not (tmp_path / "cprofile.json").exists()


@pytest.mark.parametrize("args, y_axis", [
    ([], (1.015625, 0.0078125, 125)),
    (["--nx", "2"], (1.015625, 0.0078125, 125)),
    (["--step", "0.02", "--nx", "25"], (1.04, 0.02, 47)),
    (["--step", "0.02", "--ny", "9"], (1.04, 0.02, 9)),
    (["--step", "0.001", "--nx", "3"], (1.002, 0.001, 125)),
])
def test_pde_profile_default_axes_keep_the_seeds_inside(pde_run, tmp_path,
                                                        args, y_axis):
    # the base curve starts two steps in and ends at least two steps below
    # the top, so the pad seeds are strictly inside the source [1, 2]
    assert main(["--out-dir", str(tmp_path), "pde", "profile",
                 "--spec", str(pde_run / "spec" / "leafspec.json")]
                + args) == 0
    doc = read_json(tmp_path / "cprofile.json")
    y = doc["axes"][1]
    assert (y["min"], y["step"], y["count"]) == y_axis
    assert 1.0 < y["min"] - y["step"]
    assert y["min"] + y["count"] * y["step"] < 2.0
    rep = read_json(tmp_path / "profile_report.json")
    assert rep["truncated"] == (rep["coverage"] < 1.0)
    if rep["truncated"]:
        assert rep["truncation_reason"] == "geodesic left the source domain"


@pytest.fixture(scope="module")
def oblong_spec(tmp_path_factory):
    d = tmp_path_factory.mktemp("oblong")
    assert main(["--out-dir", str(d), "pde", "leaf-build", "--h-expr", "x",
                 "--domain", "0,1,1,2", "--nx", "65", "--ny", "129"]) == 0
    return d / "leafspec.json"


@pytest.mark.parametrize("args, y_axis", [
    (["--nx", "5"], (1.015625, 0.0078125, 125)),
    (["--nx", "5", "--ny", "100"], (1.015625, 0.0078125, 100)),
    (["--ny", "100"], (1.015625, 0.0078125, 100)),
    (["--nx", "5", "--y-start", "1.05"], (1.05, 0.0078125, 120)),
])
def test_pde_profile_axes_keep_their_own_steps(oblong_spec, tmp_path, args,
                                               y_axis):
    # a 65 x 129 source has x step 1/64 and y step 1/128; without --step
    # each profile axis takes its own source axis's step, whatever is set
    assert main(["--out-dir", str(tmp_path), "pde", "profile",
                 "--spec", str(oblong_spec)] + args) == 0
    x, y = read_json(tmp_path / "cprofile.json")["axes"]
    assert x["step"] == 0.015625
    assert (y["min"], y["step"], y["count"]) == y_axis


# verify checks the one grid it is given; the Richardson sweep over
# subsampled copies of it is gone (on this metric it exited 3)
def test_pde_verify_has_no_sweep_option(tmp_path, pde_run, capsys):
    capsys.readouterr()
    rc = main(["--out-dir", str(tmp_path), "pde", "verify",
               "--metric", str(pde_run / "met" / "metric.json"),
               "--sweep", "3"])
    assert rc == 1
    assert "No such option '--sweep'" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


# a form on another grid used to be checked against the metric anyway
# (exit 0, passed: true)
def test_pde_verify_refuses_a_form_on_other_axes(tmp_path, pde_run, capsys):
    form = TwoFormGrid.from_json((pde_run / "met" / "kahler.json").read_bytes())
    x, *rest = form.axes
    others = {
        "(17, 25, 1, 1)": TwoFormGrid(
            (Axis(x.name, x.start, x.step, x.count - 4), *rest),
            form.components[:-4]),
        "(21, 25, 1, 1)": TwoFormGrid(
            (Axis(x.name, x.start + x.step, x.step, x.count), *rest),
            form.components),
    }
    for shape, other in others.items():
        path = tmp_path / "kahler.json"
        path.write_text(other.to_json())
        out = tmp_path / "ver"
        capsys.readouterr()
        assert main(["--out-dir", str(out), "pde", "verify",
                     "--metric", str(pde_run / "met" / "metric.json"),
                     "--form", str(path), "--lam", "0"]) == 1
        assert capsys.readouterr().err == (
            f"error: the form's axes do not match the metric's: shape "
            f"{shape} against (21, 25, 1, 1)\n")
        assert not any(out.iterdir())


@pytest.fixture(scope="module")
def torus_metric(tmp_path_factory):
    d = tmp_path_factory.mktemp("torus")
    assert main(["--out-dir", str(d), "bianchi", "solve", "--case", "torus",
                 "--alpha-eq-ab", "--a0", "0.8", "--b0", "0.75",
                 "--t-start", "0.1", "--t-end", "1.0"]) == 0
    return d / "torus_metric.json"


# lam * g overflowed with a numpy RuntimeWarning, and the run then blamed
# the grid ("non-finite values inside the valid interior")
@pytest.mark.parametrize("lam, message", [
    ("1e308", "error: lam * g is not finite for lam = 1e+308"),
    ("-1e308", "error: lam * g is not finite for lam = -1e+308"),
    ("nan", "Invalid value for '--lam': nan is not a finite number"),
    ("inf", "Invalid value for '--lam': inf is not a finite number"),
])
def test_pde_verify_refuses_a_lam_whose_product_is_not_finite(
        torus_metric, tmp_path, capsys, lam, message):
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--out-dir", str(tmp_path), "pde", "verify",
                     "--metric", str(torus_metric), "--lam", lam]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_manifests_are_reproducible(tmp_path):
    args = ["e2", "shoot", "--q", "1.0", "--eps", "1e-4", "--b-max", "10"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--out-dir", str(d1)] + args) == 0
    assert main(["--out-dir", str(d2)] + args) == 0
    assert (d1 / "manifest.json").read_bytes() == \
        (d2 / "manifest.json").read_bytes()
    m = read_json(d1 / "manifest.json")
    assert set(m["outputs"]) == set(m["checksums"])


# each command's tolerances and acceptance bounds: fixed literals, which
# its manifest records and its report's bound fields repeat
_TOLERANCES = {
    "bianchi solve": {"integrator_tol": 1e-10, "closed_form_match": 1e-6,
                      "flatness": 1e-6},
    "e2 shoot": {"integrator_tol": 1e-14},
    "e2 diagnose": {"region_slack": 1e-10, "monotone_slack": 1e-10,
                    "nullcline_slack": 1e-8, "tail_gap_rtol": 1e-12,
                    "tail_gap_atol": 1e-20},
    "e2 bolt": {"db_dr_bound": 1e-4},
    "pde leaf-build": {},
    "pde profile": {},
    "pde construct": {},
    "pde verify": {"einstein": 5e-3, "closedness": 1e-10},
}


def test_each_manifest_records_its_commands_fixed_tolerances(e2_run, pde_run,
                                                             tmp_path):
    runs = {"e2 shoot": e2_run, "pde leaf-build": pde_run / "spec",
            "pde profile": pde_run / "prof", "pde construct": pde_run / "met",
            "pde verify": pde_run / "ver"}
    shoot = str(e2_run / "e2_trajectory.csv")
    for command, argv in (
            ("bianchi solve", _EUCLIDEAN + ["--t-end", "2.0"]),
            ("e2 diagnose", ["e2", "diagnose", shoot]),
            ("e2 bolt", ["e2", "bolt", shoot])):
        runs[command] = tmp_path / command.replace(" ", "-")
        assert main(["--out-dir", str(runs[command])] + argv) == 0
    assert sorted(runs) == sorted(_TOLERANCES)
    for command, d in runs.items():
        m = read_json(d / "manifest.json")
        assert (m["subcommand"], m["tolerances"]) == (command,
                                                      _TOLERANCES[command])
    bianchi = read_json(runs["bianchi solve"] / "bianchi_report.json")
    assert bianchi["closed_form"]["bound"] == 1e-6
    bolt = read_json(runs["e2 bolt"] / "bolt_report.json")
    assert bolt["db_dr_bound"] == 1e-4
    verify = read_json(runs["pde verify"] / "verify_report.json")
    assert (verify["einstein_bound"], verify["closedness_bound"]) == (
        5e-3, 1e-10)


# the global --tol, which overrode each command's main tolerance and bound,
# is gone: no option changes a bound
@pytest.mark.parametrize("command", sorted(_TOLERANCES))
def test_tol_is_no_option(tmp_path, capsys, command):
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "--tol", "1"]
                + command.split()) == 1
    assert "Error: No such option '--tol'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _refused_without_warning(capsys, argv):
    """stderr of main(argv), which must exit 1 with no RuntimeWarning."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    return capsys.readouterr().err


# a singular h printed numpy's RuntimeWarning (divide by zero, overflow)
# before the refusal; with warnings as errors the refusal quoted numpy
@pytest.mark.parametrize("h_expr", ["log(x)", "1/x", "exp(1000*x)"])
def test_leaf_build_refuses_a_singular_h_without_a_warning(tmp_path, capsys,
                                                          h_expr):
    err = _refused_without_warning(capsys, [
        "--out-dir", str(tmp_path), "pde", "leaf-build", "--h-expr", h_expr,
        "--domain", "0,1,1,2", "--n", "33"])
    assert err == (f"error: harmonic expression {h_expr!r} is singular on "
                   f"the domain\n")
    assert not any(tmp_path.iterdir())


# a metric whose leading minors overflow printed numpy's RuntimeWarning and
# was then refused as "metric not invertible at node (0, 0, 0, 0)"
@pytest.mark.parametrize("counts, diagonal, message", [
    ((7, 7, 1, 1), 1e150, "metric minor 3 overflows at node (0, 0, 0, 0)"),
    ((7, 7), 1e300, "metric minor 2 overflows at node (0, 0)"),
])
def test_pde_verify_refuses_a_metric_whose_minors_overflow(
        tmp_path, capsys, counts, diagonal, message):
    axes = [Axis(f"x{m}", 0.0, 0.1, n) for m, n in enumerate(counts)]
    d = len(counts)
    g = np.zeros(counts + (d, d))
    for k in range(d):
        g[..., k, k] = diagonal
    path = tmp_path / "metric.json"
    path.write_text(dump_artifact("metric_grid", axes, {"components": g}))
    out = tmp_path / "out"
    err = _refused_without_warning(capsys, [
        "--out-dir", str(out), "pde", "verify", "--metric", str(path),
        "--lam", "0"])
    assert err == f"error: {message}\n"


# a frame whose march or metric overflows (huge entries, or a determinant
# whose square underflows) printed numpy's RuntimeWarnings; the last one
# overflows to inf and NaN in the first column's march on Python floats
@pytest.mark.parametrize("init", ["1,0,0,1e300", "1e-320,0,0,1",
                                  "1e308,1e308,-1e-308,1e-308"])
def test_pde_construct_refuses_a_frame_that_overflows(pde_run, tmp_path,
                                                     capsys, init):
    err = _refused_without_warning(capsys, [
        "--out-dir", str(tmp_path), "pde", "construct", "--profile",
        str(pde_run / "prof" / "cprofile.json"), "--init", init])
    assert err == "error: non-finite metric component\n"
    assert not any(tmp_path.iterdir())


# a non-finite entry, or finite ones whose as - rb overflows, was refused
# only by the assembled metric's "non-finite metric component"
@pytest.mark.parametrize("init, det0", [
    ("nan,1,1,1", "nan"), ("0,0,0,inf", "nan"), ("1e200,0,0,1e200", "inf"),
    ("1,1e308,1e308,1", "-inf")])
def test_pde_construct_refuses_an_initial_frame_whose_det_is_not_finite(
        pde_run, tmp_path, capsys, init, det0):
    err = _refused_without_warning(capsys, [
        "--out-dir", str(tmp_path), "pde", "construct", "--profile",
        str(pde_run / "prof" / "cprofile.json"), "--init", init])
    assert err == ("error: initial frame must have a finite, nonzero "
                   f"as - rb, got {det0}\n")
    assert not any(tmp_path.iterdir())


# exp(alpha (t - t0)) ended in an OverflowError traceback
def test_bianchi_closed_form_growth_that_overflows_exits_1(tmp_path, capsys):
    err = _refused_without_warning(capsys, [
        "--out-dir", str(tmp_path), "bianchi", "solve", "--case", "poincare",
        "--alpha", "1e308"])
    assert err == "error: exp(alpha (t - t0)) overflows at t = 0.4\n"
    assert not any(tmp_path.iterdir())
