"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import os
import time
import types

import numpy as np
import pytest

from ensembleq.accinfo import OptimizerConfig
from ensembleq.cli import (SWEEP_HEADER, _build_parser, _optimizer_config, _render_csv_value,
                           _render_json, run)
from ensembleq.densmat import DensityMatrix, matrix_to_json
from ensembleq.ensemble import Ensemble
from ensembleq.errors import NumericalFailure
from ensembleq.extopt import QuantumnessReport
from ensembleq.rand import random_density_matrix, random_kraus
from ensembleq.recovery import Channel

KET0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
KET1 = DensityMatrix(np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
PLUS = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))


@pytest.fixture()
def zero_plus_file(tmp_path):
    path = tmp_path / "zero_plus.json"
    blob = Ensemble([(0.5, KET0), (0.5, PLUS)]).to_json()
    path.write_text(json.dumps(blob))
    return str(path)


@pytest.fixture()
def orthogonal_file(tmp_path):
    path = tmp_path / "orthogonal.json"
    blob = Ensemble([(0.5, KET0), (0.5, KET1)]).to_json()
    path.write_text(json.dumps(blob))
    return str(path)


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# scalar commands
# ---------------------------------------------------------------------------

def test_holevo_json_output(capsys, zero_plus_file):
    blob = run_json(capsys, ["holevo", zero_plus_file])
    assert set(blob) == {"value"}
    assert blob["value"] == pytest.approx(0.6008760366928562, abs=1e-9)


def test_holevo_csv_output(capsys, zero_plus_file):
    rc = run(["holevo", zero_plus_file, "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value"
    assert float(lines[1]) == pytest.approx(0.6008760366928562, abs=1e-9)


def test_chi_q_command(capsys, zero_plus_file):
    blob = run_json(capsys, ["chi-q", zero_plus_file, "--n", "2"])
    assert set(blob) == {
        "value",
        "objective",
        "baseline",
        "feasibility_residual",
        "iterations",
        "converged",
        "restarts",
    }
    assert blob["value"] == pytest.approx(0.21040208776627656, abs=1e-6)
    assert blob["converged"] is True


def test_exact_zeros_print_without_a_sign(capsys, tmp_path):
    # a pure state's entropy is -0.0, and so is the one-member chi
    path = tmp_path / "one.json"
    path.write_text(json.dumps(Ensemble([(1.0, KET0)]).to_json()))
    assert run(["holevo", str(path)]) == 0
    assert capsys.readouterr().out == '{\n  "value": 0\n}\n'
    blob = run_json(capsys, ["chi-q", str(path)])
    assert (blob["value"], blob["objective"], blob["baseline"]) == (0, 0, 0)
    assert blob["restarts"] == [0]
    assert run(["chi-q", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "-0" not in out and out.splitlines()[1].startswith("0,0,0,")


def test_numpy_bool_flags_render_as_json_and_csv_booleans():
    r = QuantumnessReport(
        value=0.0, objective_at_optimum=1.0, baseline=1.0,
        feasibility_residual=0.0, iterations=1, converged=np.False_,
        restart_values=(1.0,),
    )
    assert r.to_json()["converged"] is False
    assert '"converged": false' in _render_json(r.to_json())
    assert _render_json(np.True_) == _render_csv_value(np.True_) == "true"
    assert _render_csv_value(np.False_) == "false"


@pytest.mark.parametrize(
    "argv",
    [
        ["chi-q", "{file}", "--restarts", "1"],
        ["chi-q", "{file}", "--max-iters", "50"],
        ["sweep-example", "--restarts", "1"],
        ["chi-q", "{file}", "--n", "2", "--dykstra-iters", "50"],
        ["sweep-example", "--max-iters", "5"],
        ["sweep-example", "--dykstra-iters", "5"],
        ["holevo", "{file}", "--seed", "3"],
        ["holevo", "{file}", "--fidelity-convention", "root"],
    ],
)
def test_extension_commands_reject_restart_flags(orthogonal_file, argv):
    # each command takes only the flags of the solvers it runs: chi_q and
    # fidelity_q are convex, run from one start and take no settings
    with pytest.raises(SystemExit) as exc:
        run([a.format(file=orthogonal_file) for a in argv])
    assert exc.value.code == 2


def test_acc_info_command(capsys, zero_plus_file):
    blob = run_json(capsys, ["acc-info", zero_plus_file, "--restarts", "2"])
    assert blob["value"] == pytest.approx(0.3991, abs=2e-3)
    # two ascent starts plus the deterministic qubit scan candidate
    assert blob["restarts_used"] == len(blob["mutual_info_per_restart"]) >= 2
    assert "best_povm" in blob


@pytest.fixture()
def qutrit_pair_file(tmp_path):
    path = tmp_path / "qutrit_pair.json"
    states = [DensityMatrix(random_density_matrix(3, seed=s)) for s in (11, 12)]
    path.write_text(json.dumps(Ensemble([(0.5, s) for s in states]).to_json()))
    return str(path)


@pytest.mark.parametrize("command", ["acc-info", "fuchs", "pure-limits"])
def test_measurement_commands_reject_dykstra_iters(qutrit_pair_file, command):
    with pytest.raises(SystemExit) as exc:
        run([command, qutrit_pair_file, "--dykstra-iters", "5"])
    assert exc.value.code == 2


def test_acc_info_max_iters_caps_the_ascent(capsys, qutrit_pair_file):
    full = run_json(capsys, ["acc-info", qutrit_pair_file, "--restarts", "1"])
    capped = run_json(
        capsys, ["acc-info", qutrit_pair_file, "--restarts", "1", "--max-iters", "1"]
    )
    assert capped["value"] < full["value"] - 1e-3


def test_fuchs_command(capsys, orthogonal_file):
    blob = run_json(capsys, ["fuchs", orthogonal_file, "--restarts", "2"])
    assert set(blob) == {"holevo", "acc_info", "value"}
    assert blob["value"] == pytest.approx(0.0, abs=2e-4)


def test_pure_limits_command(capsys, zero_plus_file):
    blob = run_json(capsys, ["pure-limits", zero_plus_file, "--restarts", "2"])
    assert set(blob) == {"chi_q_inf", "iacc_q_inf", "q_fuchs", "identity_residual"}
    assert blob["identity_residual"] <= 1e-9


def test_pure_limits_rejects_mixed(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    e = Ensemble(
        [(0.5, KET0), (0.5, DensityMatrix(random_density_matrix(2, seed=3)))]
    )
    path.write_text(json.dumps(e.to_json()))
    assert run(["pure-limits", str(path)]) == 2


# ---------------------------------------------------------------------------
# petz-check and au-check
# ---------------------------------------------------------------------------

def test_petz_check_command(tmp_path, capsys):
    ref_path = tmp_path / "ref.json"
    ch_path = tmp_path / "ch.json"
    ref_path.write_text(json.dumps(matrix_to_json(random_density_matrix(2, seed=41))))
    ch_path.write_text(json.dumps(Channel(random_kraus(2, 2, 2, seed=42)).to_json()))
    blob = run_json(
        capsys, ["petz-check", "--reference", str(ref_path), "--channel", str(ch_path)]
    )
    assert blob["ok"] is True
    assert blob["recovery_residual"] <= 1e-7
    assert blob["in_dim"] == blob["out_dim"] == 2


def test_au_check_builtin_example(capsys):
    blob = run_json(capsys, ["au-check", "--a", "0.25"])
    assert blob["a"] == 0.25
    assert blob["feasible"] is False
    assert blob["min_margin"] == pytest.approx(1.0 - np.sqrt(3.0), abs=1e-9)
    assert blob["argmin_t"] == 2
    assert set(blob) == {"a", "feasible", "min_margin", "argmin_t"}


def test_au_check_limit_only_infimum(capsys):
    # at a = 1/2 only the limit t -> infinity attains the infimum: null in
    # JSON, an empty last field in CSV
    blob = run_json(capsys, ["au-check", "--a", "0.5"])
    assert blob["min_margin"] == -1
    assert blob["argmin_t"] is None
    assert run(["au-check", "--a", "0.5", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "a,feasible,min_margin,argmin_t\n0.5,false,-1,\n"


def test_au_check_input_file(tmp_path, capsys):
    rho1 = random_density_matrix(2, seed=51)
    rho2 = random_density_matrix(2, seed=52)
    path = tmp_path / "pairs.json"
    path.write_text(
        json.dumps(
            {
                "rho1": matrix_to_json(rho1),
                "rho2": matrix_to_json(rho2),
                "sigma1": matrix_to_json(rho1),
                "sigma2": matrix_to_json(rho2),
            }
        )
    )
    blob = run_json(capsys, ["au-check", "--input", str(path)])
    assert blob["feasible"] is True


def test_au_check_requires_exactly_one_source(tmp_path):
    assert run(["au-check"]) == 2
    path = tmp_path / "x.json"
    path.write_text("{}")
    assert run(["au-check", "--a", "0.1", "--input", str(path)]) == 2


# ---------------------------------------------------------------------------
# sweep-example
# ---------------------------------------------------------------------------

def test_sweep_header_and_shape(capsys):
    rc = run(["sweep-example", "--steps", "3", "--a-min", "0.0", "--a-max", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert SWEEP_HEADER == (
        "a, commutator_norm, au_min_margin, au_feasible, chi_q_n2, fidelity_q_n2"
    )
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[3] in ("true", "false")


def test_sweep_deterministic_output(tmp_path):
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    argv = ["sweep-example", "--steps", "3", "--a-min", "0.05", "--a-max", "0.45"]
    assert run(argv + ["--output", str(out1)]) == 0
    assert run(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_json_format(capsys):
    blob = run_json(
        capsys,
        ["sweep-example", "--steps", "2", "--a-min", "0.1", "--a-max", "0.2",
         "--format", "json"],
    )
    assert isinstance(blob, list) and len(blob) == 2
    assert set(blob[0]) == {
        "a",
        "commutator_norm",
        "au_min_margin",
        "au_feasible",
        "chi_q_n2",
        "fidelity_q_n2",
    }


def test_sweep_rejects_bad_range():
    assert run(["sweep-example", "--a-min", "0.4", "--a-max", "0.1"]) == 2
    assert run(["sweep-example", "--a-min", "-0.2", "--a-max", "0.3"]) == 2
    assert run(["sweep-example", "--steps", "0"]) == 2


# ---------------------------------------------------------------------------
# output files, exit codes, seeds
# ---------------------------------------------------------------------------

def test_output_file_written_atomically(tmp_path, zero_plus_file, capsys):
    target = tmp_path / "result.json"
    assert run(["holevo", zero_plus_file, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    blob = json.loads(target.read_text())
    assert blob["value"] == pytest.approx(0.6008760366928562, abs=1e-9)


def test_failed_run_leaves_no_output_file(tmp_path):
    target = tmp_path / "never.json"
    assert run(["holevo", str(tmp_path / "missing.json"),
                "--output", str(target)]) == 2
    assert not target.exists()


@pytest.mark.parametrize("dir_in_the_way", [False, True],
                         ids=["missing-directory", "directory-in-the-way"])
def test_unwritable_output_exits_2_and_leaves_nothing(tmp_path, capsys, zero_plus_file,
                                                      dir_in_the_way):
    target = tmp_path / "out" / "x.json"
    if dir_in_the_way:
        # the temporary file is made, and then cannot replace a directory
        target.mkdir(parents=True)
    assert run(["holevo", zero_plus_file, "--output", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert target.exists() == dir_in_the_way
    assert not list(tmp_path.rglob(".ensembleq-*.tmp"))


def test_exit_code_on_missing_file(tmp_path):
    assert run(["holevo", str(tmp_path / "nope.json")]) == 2


def test_exit_code_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["holevo", str(path)]) == 2


def test_exit_code_on_au_check_input_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert run(["au-check", "--input", str(path)]) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("member, field", [(0, "p"), (1, "re")])
def test_exit_code_on_ensemble_json_with_a_nan_literal(tmp_path, capsys, member, field):
    blob = Ensemble([(0.5, KET0), (0.5, PLUS)]).to_json()
    if field == "p":
        blob["members"][member]["p"] = float("nan")
    else:
        blob["members"][member]["state"]["re"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(blob))
    assert "NaN" in path.read_text()
    assert run(["holevo", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("p", "half"), ("dim", "two")])
def test_exit_code_on_malformed_ensemble_field(tmp_path, capsys, field, value):
    blob = Ensemble([(0.5, KET0), (0.5, PLUS)]).to_json()
    if field == "p":
        blob["members"][0]["p"] = value
    else:
        blob["dim"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert run(["holevo", str(path)]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_exit_code_on_malformed_channel_field(tmp_path, capsys):
    ref_path = tmp_path / "ref.json"
    ch_path = tmp_path / "ch.json"
    ref_path.write_text(json.dumps(matrix_to_json(random_density_matrix(2, seed=41))))
    blob = Channel(random_kraus(2, 2, 2, seed=42)).to_json()
    blob["in_dim"] = "x"
    ch_path.write_text(json.dumps(blob))
    assert run(["petz-check", "--reference", str(ref_path), "--channel", str(ch_path)]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_exit_code_on_resource_limit(tmp_path):
    path = tmp_path / "big.json"
    e = Ensemble([(1.0, DensityMatrix(np.eye(5) / 5))])
    path.write_text(json.dumps(e.to_json()))
    assert run(["acc-info", str(path)]) == 4


def test_chi_q_exits_on_resource_limit_for_a_huge_site_count(capsys, zero_plus_file):
    # 2**20000 has more digits than int-to-str conversion allows, so the cap
    # must be checked without forming it, let alone printing it
    assert run(["chi-q", zero_plus_file, "--n", "20000"]) == 4
    assert "resource limit" in capsys.readouterr().err


def test_exit_code_on_numerical_failure(monkeypatch, zero_plus_file):
    import ensembleq.cli as cli_mod

    def explode(*args, **kwargs):
        raise NumericalFailure("synthetic instability")

    monkeypatch.setattr(cli_mod, "holevo", explode)
    assert run(["holevo", zero_plus_file]) == 3


def test_unknown_subcommand_raises_system_exit():
    with pytest.raises(SystemExit):
        run(["frobnicate"])


def test_seed_resolution_order(monkeypatch, zero_plus_file, capsys):
    import ensembleq.cli as cli_mod

    captured = {}

    def fake_accessible_information(e, cfg):
        captured["seed"] = cfg.seed
        return types.SimpleNamespace(to_json=lambda: {"value": 0.0})

    monkeypatch.setattr(cli_mod, "accessible_information", fake_accessible_information)

    monkeypatch.delenv("ENSEMBLEQ_SEED", raising=False)
    assert run(["acc-info", zero_plus_file]) == 0
    assert captured["seed"] == 42

    monkeypatch.setenv("ENSEMBLEQ_SEED", "7")
    assert run(["acc-info", zero_plus_file]) == 0
    assert captured["seed"] == 7

    assert run(["acc-info", zero_plus_file, "--seed", "13"]) == 0
    assert captured["seed"] == 13
    capsys.readouterr()


def test_invalid_seed_env_rejected(monkeypatch, zero_plus_file):
    monkeypatch.setenv("ENSEMBLEQ_SEED", "not-a-number")
    assert run(["acc-info", zero_plus_file]) == 2


def test_negative_seed_exits_2(monkeypatch, zero_plus_file, capsys):
    monkeypatch.delenv("ENSEMBLEQ_SEED", raising=False)
    assert run(["acc-info", zero_plus_file, "--seed", "-1"]) == 2
    monkeypatch.setenv("ENSEMBLEQ_SEED", "-1")
    assert run(["acc-info", zero_plus_file]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["acc-info", "fuchs", "pure-limits"])
def test_measurement_defaults_are_the_optimizer_config_defaults(monkeypatch, command):
    monkeypatch.delenv("ENSEMBLEQ_SEED", raising=False)
    args = _build_parser().parse_args([command, "ensemble.json"])
    assert _optimizer_config(args) == OptimizerConfig()


def test_chi_q_exits_2_on_one_level_members_at_any_site_count(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(Ensemble([(1.0, np.ones((1, 1)))]).to_json()))
    start = time.perf_counter()
    assert run(["chi-q", str(path), "--n", "100000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "local dimension must be at least 2" in capsys.readouterr().err


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ensembleq.cli", "au-check", "--a", "0.0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["feasible"] is True
