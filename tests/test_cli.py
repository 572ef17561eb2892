import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausszeros
from gausszeros import variance
from gausszeros.cli import build_parser, main
from gausszeros.densities import rho_k
from gausszeros.models import get_model
from gausszeros.simulation import SimulationSpec, replicate_statistics
from gausszeros.variance import TestFunction


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_is_numpy_only():
    # a fresh interpreter: no command and not even clt_diagnostic loads scipy
    code = ("import sys, gausszeros.cli\n"
            "from gausszeros import SimulationSpec, TestFunction, get_model\n"
            "from gausszeros import clt_diagnostic\n"
            "gausszeros.cli.main(['rho', '--points', '0,0.5'])\n"
            "clt_diagnostic(get_model('bargmann-fock'), SimulationSpec(5.0, "
            "num_samples=8), TestFunction.indicator(0, 1), 5.0, 0.4)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(gausszeros.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_rho_single_point(capsys):
    code, out, _ = run_cli(capsys, "rho", "--model", "bargmann-fock",
                           "--points", "0")
    assert code == 0
    rec = json.loads(out)
    assert rec["rho"] == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_rho_diagonal_vanishes(capsys):
    code, out, _ = run_cli(capsys, "rho", "--points", "0,0")
    assert code == 0
    assert json.loads(out)["rho"] == 0.0


def test_rho_partition_routes_agree(capsys):
    code, out1, _ = run_cli(capsys, "rho", "--points", "0,0.5",
                            "--partition", "{0,1}")
    assert code == 0
    code, out2, _ = run_cli(capsys, "rho", "--points", "0,0.5",
                            "--partition", "{0},{1}")
    assert code == 0
    r1, r2 = json.loads(out1)["rho"], json.loads(out2)["rho"]
    assert r1 == pytest.approx(r2, rel=1e-8)


def test_rho_degenerate_exit_code(capsys):
    code, _, err = run_cli(capsys, "rho", "--points", "0,0",
                           "--partition", "{0},{1}")
    assert code == 2
    assert "degenerate" in err.lower() or "singular" in err.lower()


def test_sigma2(capsys):
    code, out, _ = run_cli(capsys, "sigma2", "--model", "bargmann-fock")
    assert code == 0
    rec = json.loads(out)
    assert 0.17 <= rec["sigma2"] <= 0.19
    assert 0.0 < rec["lower_bound"] <= rec["sigma2"]
    assert rec["converged"] is True


def test_sigma2_tolerance_consistency(capsys):
    _, out1, _ = run_cli(capsys, "sigma2", "--tolerance", "1e-6")
    _, out2, _ = run_cli(capsys, "sigma2", "--tolerance", "1e-10")
    v1 = json.loads(out1)["sigma2"]
    v2 = json.loads(out2)["sigma2"]
    assert v1 == pytest.approx(v2, abs=1e-6)


def test_sigma2_not_converged_exit(capsys):
    code, out, _ = run_cli(capsys, "sigma2", "--model", "sinc-sqrt3",
                           "--tolerance", "1e-12")
    assert code == 3
    assert json.loads(out)["converged"] is False


def test_fcurve(capsys):
    code, out, _ = run_cli(capsys, "fcurve", "--zmax", "0.1", "--step", "0.01")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,F"
    z0, f0 = lines[1].split(",")
    assert float(z0) == pytest.approx(0.01)
    assert float(f0) == pytest.approx(-1.0 / math.pi ** 2, abs=1e-3)


def test_simulate_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for path in (out1, out2):
        code = main(["simulate", "--R", "10", "--n", "5", "--seed", "7",
                     "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    rec = json.loads(out1.read_text().splitlines()[0])
    assert set(rec) == {"seed", "count", "stat"}


def test_moments_command(capsys):
    code, out, _ = run_cli(capsys, "moments", "--p", "2", "--R", "10",
                           "--n", "60", "--seed", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["p"] == 2
    assert rec["ci"][0] <= rec["estimate"] <= rec["ci"][1]
    assert rec["predicted_pair_sum"] > 0


def test_clustering_command(capsys):
    code, out, _ = run_cli(capsys, "clustering", "--points", "0,0.5,8,8.5",
                           "--partition", "{0,1},{2,3}")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["ratio"] - 1.0) <= 10.0 * rec["bound"] + 1e-9


def test_clustering_separation_exit(capsys):
    code, _, _ = run_cli(capsys, "clustering", "--points", "0,0.5",
                         "--partition", "{0},{1}")
    assert code == 2


def test_vanishing_command(capsys):
    code, out, _ = run_cli(capsys, "vanishing", "--points", "0,0")
    assert code == 0
    assert json.loads(out)["ell"] == pytest.approx(1.0 / (4 * math.pi),
                                                   rel=1e-6)


def test_unknown_model_exit_code(capsys):
    code, _, err = run_cli(capsys, "rho", "--points", "0",
                           "--model", "nope")
    assert code == 4


_MOMENTS = ["moments", "--p", "2", "--R", "10", "--n", "20", "--phi"]


@pytest.mark.parametrize("argv, doc", [
    (["simulate", "--R", "5", "--n", "2", "--phi", "weird:1,2"], None),
    (_MOMENTS + ["gaussian:0"], None),
    (_MOMENTS + ["indicator:0,x"], None),
    (_MOMENTS + ["indicator:0,1,2"], None),
    (_MOMENTS + ["indicator:0,inf"], None),
    (_MOMENTS + ["gaussian:nan,1"], None),
    (_MOMENTS + ["table:PATH"], [1, 2]),
    (_MOMENTS + ["table:PATH"], {"xs": [0.0, 1.0]}),
    (["rho", "--points", "0,1", "--partition", "a"], None),
    (["fcurve", "--zmax", "1", "--step", "2"], None),
], ids=["weird", "gaussian-one-value", "indicator-not-a-number",
        "indicator-three-values", "indicator-inf", "gaussian-nan",
        "table-list", "table-without-ys", "partition-not-a-number",
        "zmax-below-step"])
def test_bad_phi_exit_code(tmp_path, capsys, argv, doc):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc))
    argv = [a.replace("PATH", str(path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1


_GOOD_TABLE = {"xi": [0.0, 0.5, 1.0, 1.5, 2.0], "g": [1.0, 0.9, 0.6, 0.3, 0.1],
               "tail": {"kind": "gaussian", "params": [0.739, 0.5]}}


@pytest.mark.parametrize("doc", [
    [1, 2],
    dict(_GOOD_TABLE, xi=[0.0, "a", 1.0, 1.5, 2.0]),
    dict(_GOOD_TABLE, xi=[0.0, None, 1.0, 1.5, 2.0]),
    dict(_GOOD_TABLE, tail="gaussian"),
    dict(_GOOD_TABLE, tail={"kind": "gaussian", "params": [1.0]}),
    dict(_GOOD_TABLE, tail={"kind": "gaussian", "params": ["x", 0.5]}),
    dict(_GOOD_TABLE, xi=[0.5, 1.0, 1.5, 2.0, 2.5]),
], ids=["list", "xi-string", "xi-null", "tail-string", "params-count",
        "params-string", "xi-from-half"])
def test_malformed_spectral_table_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "rho", "--model", str(path),
                             "--points", "0,0.3")
    assert code == 4
    assert out == "" and "Traceback" not in err
    assert err.startswith("configuration error:")


@pytest.mark.parametrize("m", [3.5, 5.0, 10.0])
def test_heavy_power_tail_is_a_domain_error(tmp_path, capsys, m):
    # the top finite moment of c |xi|^-m decays like a power of the
    # truncation, so the tolerance needs a truncation past the node budget
    path = tmp_path / "table.json"
    path.write_text(json.dumps(dict(
        _GOOD_TABLE, tail={"kind": "power", "params": [0.1, m]})))
    code, out, err = run_cli(capsys, "rho", "--model", str(path),
                             "--points", "0,0.3")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err.startswith("domain error:") and "power tail" in err
    assert len(err.splitlines()) == 1


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["rho", "--help"]) == 0


def test_dump_config_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--R", "10", "--n", "5",
                           "--seed", "7", "--dump-config")
    assert code == 0
    cfg = json.loads(out)
    assert cfg["R"] == 10.0 and cfg["n"] == 5 and cfg["seed"] == 7
    assert cfg["model"] == "bargmann-fock"
    # the dumped config drives an identical run through --config
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    direct = tmp_path / "direct.jsonl"
    refed = tmp_path / "refed.jsonl"
    assert main(["simulate", "--R", "10", "--n", "5", "--seed", "7",
                 "--out", str(direct)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(refed)]) == 0
    capsys.readouterr()
    assert direct.read_bytes() == refed.read_bytes()


def test_config_equals_form(tmp_path, capsys):
    cfg = tmp_path / "rho.json"
    cfg.write_text(json.dumps({"points": "0,0.5"}))
    code, out, _ = run_cli(capsys, "rho", f"--config={cfg}")
    assert code == 0
    assert json.loads(out)["points"] == [0.0, 0.5]


def test_config_without_value(capsys):
    code, out, err = run_cli(capsys, "rho", "--points", "0", "--config")
    assert code == 4
    assert out == "" and "--config" in err and "Traceback" not in err


def test_config_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"R": 5.0, "mystery_knob": 1}))
    code = main(["simulate", "--config", str(bad)])
    capsys.readouterr()
    assert code == 4


def test_format_overrides(capsys):
    code, out, _ = run_cli(capsys, "rho", "--points", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == \
        "points,rho,d,n,partition,vandermonde,stderr,routes"
    code, out, _ = run_cli(capsys, "fcurve", "--zmax", "0.05", "--step",
                           "0.01", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["z"]) == len(rec["F"]) == 5


@pytest.mark.parametrize("points", ["0,nan", "0,inf"])
def test_rho_rejects_non_finite_points(capsys, points):
    code, out, err = run_cli(capsys, "rho", "--points", points)
    assert code == 4
    assert out == ""
    assert "--points" in err


@pytest.mark.parametrize("command, option, value", [
    (["fcurve", "--zmax", "0.1"], "step", "0"),
    (["simulate", "--R", "5", "--n", "2"], "step", "0"),
    (["moments", "--p", "2", "--R", "5", "--n", "4"], "step", "0"),
    (["fcurve"], "zmax", "nan"),
    (["fcurve"], "zmax", "inf"),
    (["fcurve"], "zmax", "-1"),
    (["sigma2"], "tolerance", "nan"),
    (["moments", "--p", "2", "--R", "5", "--n", "4"], "tolerance", "nan"),
], ids=["command0", "command1", "command2", "fcurve-zmax-nan", "fcurve-zmax-inf",
        "fcurve-zmax-neg", "sigma2-tolerance-nan", "moments-tolerance-nan"])
def test_step_must_be_positive(capsys, command, option, value):
    code, out, err = run_cli(capsys, *command, f"--{option}={value}")
    assert code == 4
    assert out == ""
    assert f"--{option}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--R", "5", "--n", "4", "--threads", "0"],
    ["simulate", "--R", "5", "--n", "4", "--threads", "-1"],
    ["moments", "--p", "2", "--R", "5", "--n", "4", "--threads", "0"],
    ["simulate", "--R", "5", "--n", "1"],
    ["moments", "--p", "2", "--R", "10", "--n", "1"],
], ids=["simulate-threads-0", "simulate-threads-neg", "moments-threads-0",
        "simulate-n-1", "moments-n-1"])
def test_threads_and_replicates_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert argv[-2] in err


@pytest.mark.parametrize("argv, cause", [
    (["rho", "--points", "0,1,2,3,4,5,6"], "order 14"),
    (["rho", "--points", "0,1,2,3,4,5,6", "--partition",
      "{0,1,2,3,4,5,6}"], "order 14"),
    (["simulate", "--R", "1e9", "--n", "2"], "budget"),
    (["fcurve", "--zmax", "1e300", "--step", "1e-300"],
     "inf points, over the budget of 1048576"),
    (["fcurve", "--zmax", "1e9", "--step", "1e-3"],
     "1e+12 points, over the budget of 1048576"),
], ids=["rho-7-points", "rho-7-points-partition", "simulate-huge-window",
        "fcurve-overflowing-grid", "fcurve-huge-grid"])
def test_oversized_requests_are_domain_errors(capsys, argv, cause):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and cause in err


@pytest.mark.parametrize("command", ["rho", "vanishing"])
def test_overflowing_span_is_a_config_error(capsys, command):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, command, "--points", "1e308,-1e308")
    assert code == 4 and out == "" and caught == []
    assert len(err.splitlines()) == 1 and "span" in err


def test_simulate_stat_is_replicate_statistics(capsys):
    # a smooth phi: both commands sum each replicate in the same order
    code, out, _ = run_cli(capsys, "simulate", "--R", "30", "--n", "300",
                           "--seed", "22", "--phi", "gaussian:0.5,0.05",
                           "--threads", "1")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    phi = TestFunction.gaussian(0.5, 0.05)
    spec = SimulationSpec(30.0 * phi.support_radius(), num_samples=300,
                          master_seed=22)
    ref = replicate_statistics(get_model("bargmann-fock"), spec, phi, 30.0)
    assert [r["seed"] for r in recs] == list(range(300))
    assert [r["stat"].hex() for r in recs] == [v.hex() for v in ref.tolist()]


def test_threads_environment_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("GAUSSZEROS_THREADS", "abc")
    code, out, _ = run_cli(capsys, "rho", "--points", "0,1")
    assert code == 0 and json.loads(out)["rho"] > 0


@pytest.mark.parametrize("model", ["bargmann-fock", "sinc-sqrt3", "cauchy"])
def test_rho_far_apart_points(capsys, model):
    code, out, err = run_cli(capsys, "rho", "--model", model,
                             "--points", "0,1e300")
    assert code == 0, err
    assert json.loads(out)["rho"] == pytest.approx(1.0 / math.pi ** 2, abs=1e-12)


@pytest.mark.parametrize("model", ["bargmann-fock", "sinc-sqrt3", "cauchy"])
def test_rho_far_point_keeps_near_pair(capsys, model):
    # the far point factors out; the near pair must keep its own gap
    code, out, err = run_cli(capsys, "rho", "--model", model,
                             "--points=1.327,-1e300,1e-11")
    assert code == 0, err
    pair = rho_k(get_model(model), [1e-11, 1.327]).rho
    assert json.loads(out)["rho"] == pytest.approx(pair / math.pi, rel=1e-12)


def test_fcurve_one_array_call(capsys, monkeypatch):
    calls = []
    two_point_F = variance.two_point_F
    monkeypatch.setattr(variance, "two_point_F",
                        lambda model, z: calls.append(z) or two_point_F(model, z))
    code, out, _ = run_cli(capsys, "fcurve", "--zmax", "0.1", "--step", "0.01",
                           "--format", "json")
    assert code == 0
    assert len(calls) == 1 and len(calls[0]) == 10
    rec = json.loads(out)
    assert rec["F"] == [two_point_F(get_model("bargmann-fock"), z) for z in rec["z"]]


def test_rho_reports_stderr_and_routes(capsys):
    code, out, _ = run_cli(capsys, "rho", "--points",
                           "0,0.3,5;0,2;0,0.9,1.8;0,0.9,1.8,2.7")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["routes"] for r in recs] == [
        ["taylor", "taylor"], ["closed-form", "closed-form"], ["newton"],
        ["newton"]]
    # three points have a closed-form moment; four sample
    assert [r["stderr"] == 0.0 for r in recs] == [True, True, True, False]
    assert recs[3]["stderr"] > 0.0


def test_table_far_point_refused(tmp_path, capsys):
    xi = np.linspace(0.0, 3.0, 13)
    g = np.exp(-0.5 * xi * xi) * (1.0 + 0.3 * np.cos(2.0 * xi))
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "xi": xi.tolist(), "g": g.tolist(),
        "tail": {"kind": "gaussian", "params": [g[-1] * math.exp(4.5), 0.5]}}))
    code, out, err = run_cli(capsys, "rho", "--model", str(path),
                             "--points", "0,1e6")
    assert code == 3
    assert out == "" and "Traceback" not in err and "budget" in err


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


_FUZZ_POINTS = st.one_of(
    st.sampled_from([0.0, 1e-11, -1e-11, 1e-9, 0.3, 1.0, 1e8, 1e300, -1e300]),
    st.floats(-10.0, 10.0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["rho", "vanishing"]),
       model=st.sampled_from(["bargmann-fock", "sinc-sqrt3", "cauchy"]),
       points=st.lists(_FUZZ_POINTS, min_size=1, max_size=3))
def test_cli_fuzz(command, model, points):
    # in process, without capsys: hypothesis runs many examples per test call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--model", model, "--seed", "5",
                     "--points=" + ",".join(repr(p) for p in points)])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=_reject_constant)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(argv=st.sampled_from([["fcurve", "--format", "json", "--zmax"],
                              ["sigma2", "--tolerance"]]),
       model=st.sampled_from(["bargmann-fock", "sinc-sqrt3", "cauchy"]),
       value=st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 0.05, 1e-3]))
def test_cli_fuzz_numeric_options(argv, model, value):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv[:-1], "--model", model, f"{argv[-1]}={value!r}"])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=_reject_constant)


class _ReadRecorder(argparse.Namespace):
    """Namespace that records the names of the attributes read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault(
                "_read", set()).add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    ["rho", "--points", "0"],
    ["sigma2"],
    ["fcurve", "--zmax", "0.05"],
    ["simulate", "--R", "2", "--n", "2"],
    ["moments", "--p", "2", "--R", "2", "--n", "4"],
    ["clustering", "--points", "0,8", "--partition", "{0},{1}"],
    ["vanishing", "--points", "0,0"],
])
def test_every_option_is_read(capsys, argv):
    parser, _ = build_parser()
    args = _ReadRecorder(**vars(parser.parse_args(argv)))
    if "phi" in vars(args):
        args.phi_obj = TestFunction.from_spec(args.phi)
    assert args.func(args) == 0
    capsys.readouterr()
    read = vars(args)["_read"]
    if "phi_obj" in read:
        read.add("phi")
    unread = set(vars(args)) - read - {"func", "command", "config",
                                       "dump_config", "phi_obj", "_read"}
    assert not unread, f"{argv[0]} declares options it never reads: {sorted(unread)}"
