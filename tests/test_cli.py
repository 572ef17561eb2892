import json
import math

import pytest

from gausszeros.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_bad_phi_exit_code(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--R", "5", "--n", "2",
                         "--phi", "weird:1,2")
    assert code == 4


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


def test_config_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"R": 5.0, "mystery_knob": 1}))
    code = main(["simulate", "--config", str(bad)])
    capsys.readouterr()
    assert code == 4


def test_format_overrides(capsys):
    code, out, _ = run_cli(capsys, "rho", "--points", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "points,rho,d,n,partition,vandermonde"
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


@pytest.mark.parametrize("command", [
    ["fcurve", "--zmax", "0.1"],
    ["simulate", "--R", "5", "--n", "2"],
    ["moments", "--p", "2", "--R", "5", "--n", "4"],
])
def test_step_must_be_positive(capsys, command):
    code, out, err = run_cli(capsys, *command, "--step", "0")
    assert code == 4
    assert out == ""
    assert "--step" in err

