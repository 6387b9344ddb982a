import dataclasses
import importlib.util
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from gqms import cli, diagnostics, evolution, generator

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


FINITE_QUBIT = {"kind": "finite", "n": 2, "c": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def minimal_config(**overrides):
    config = {
        "seed": 1,
        "model": {"kind": "gaussian", "d": 1, "V": [[1.0]], "U": [[0.0]]},
        "space": {"N_max": 6},
        "tasks": [{"name": "kossakowski"}],
    }
    config.update(overrides)
    return config


def test_validate_good_config():
    cli.validate_config(minimal_config())


def test_validate_rejects_empty_tasks():
    with pytest.raises(cli.InputError) as err:
        cli.validate_config(minimal_config(tasks=[]))
    assert "/tasks" in str(err.value)


def test_validate_rejects_unknown_task():
    with pytest.raises(cli.InputError) as err:
        cli.validate_config(minimal_config(tasks=[{"name": "frobnicate"}]))
    assert "/tasks/0/name" in str(err.value)


def test_validate_rejects_missing_seed():
    config = minimal_config()
    del config["seed"]
    with pytest.raises(cli.InputError):
        cli.validate_config(config)


def test_cli_validate_command(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_config()))
    assert cli.main(["validate", "--config", str(path)]) == 0

    path.write_text(json.dumps(minimal_config(tasks=[])))
    assert cli.main(["validate", "--config", str(path)]) == 1

    assert cli.main(["validate", "--config", str(tmp_path / "missing.json")]) == 1


def test_run_two_boson_scenario(tmp_path):
    code = cli.main([
        "run", "--config", str(SCENARIOS / "two_boson.json"),
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    names = [t["name"] for t in report["tasks"]]
    assert names[0] == "kossakowski"
    kreport = report["tasks"][0]["report"]
    assert kreport["strictly_positive"] is True
    assert kreport["rank"] == 4
    # K = blockdiag(I2, I2) for the identity bath
    matrix = kreport["matrix"]
    for i in range(4):
        for j in range(4):
            assert matrix[i][j] == pytest.approx([1.0 if i == j else 0.0, 0.0])
    assert (tmp_path / "05_evolve_timeseries.csv").exists()
    assert (tmp_path / "06_improve_support-rank-vs-t.csv").exists()
    scatter = (tmp_path / "08_sector_numerical-range-scatter.csv").read_text()
    lines = scatter.strip().splitlines()
    assert lines[0] == "re,im"
    # Omega = 0 makes G self-adjoint: the sampled numerical range is real
    assert all(abs(float(line.split(",")[1])) <= 1e-12 for line in lines[1:])


def test_run_damping_contrast_scenario(tmp_path):
    code = cli.main([
        "run", "--config", str(SCENARIOS / "damping_contrast.json"),
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    improve = next(t for t in report["tasks"] if t["name"] == "improve")
    assert improve["report"]["all_full"] is False
    assert improve["passed"] is True  # the expect block asserts the failure
    rank_csv = (tmp_path / "03_improve_support-rank-vs-t.csv").read_text()
    lines = rank_csv.strip().splitlines()
    assert lines[0] == "t,rank_psi0"
    assert all(line.endswith(",1") for line in lines[1:])


def test_expect_mismatch_fails_run(tmp_path):
    config = minimal_config()
    config["tasks"] = [{"name": "kossakowski",
                        "expect": {"strictly_positive": True}}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    mism = report["tasks"][0]["expect_mismatches"]
    assert mism[0]["key"] == "strictly_positive"


def test_input_error_exit_code(tmp_path):
    config = minimal_config()
    config["model"] = {"kind": "finite", "n": 2,
                       "c": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    # gaussian task against a finite model is an input error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
    # so is a config that is not a JSON object
    path.write_text("[1, 2]")
    assert cli.main(["run", "--config", str(path)]) == 1


def test_fd_tasks(tmp_path):
    config = {
        "seed": 5,
        "model": {"kind": "finite", "n": 2, "H": [[0, 0], [0, 0]],
                  "c": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "tasks": [
            {"name": "fd-probe", "t_grid": [0.01, 0.1], "n_pairs": 50},
            {"name": "fd-derivative", "n_pairs": 20},
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tasks"][0]["report"]["positive"] is True
    assert report["tasks"][1]["report"]["max_relative_mismatch"] <= 1e-5


def test_improve_plot_with_multiple_initials(tmp_path):
    config = {
        "seed": 2,
        "model": {"kind": "gaussian", "d": 1,
                  "V": [[1.0], [0.0]], "U": [[0.0], [1.0]]},
        "space": {"N_max": 6},
        "tasks": [{"name": "improve", "initials": ["vacuum", [1]],
                   "times": [0.1, 0.2],
                   "plots": ["support-rank-vs-t", "min-eig-vs-t"]}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
    assert code == 0
    rank_lines = (tmp_path / "out" / "00_improve_support-rank-vs-t.csv") \
        .read_text().strip().splitlines()
    assert rank_lines[0] == "t,rank_psi0,rank_psi1"
    assert len(rank_lines) == 3
    eig_lines = (tmp_path / "out" / "00_improve_min-eig-vs-t.csv") \
        .read_text().strip().splitlines()
    assert eig_lines[0] == "t,min_eig_psi0,min_eig_psi1"


def test_dimension_cap_is_input_error(tmp_path):
    config = minimal_config(space={"N_max": 6000},
                            tasks=[{"name": "invariant"}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1


def test_assembly_guard_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(generator, "ASSEMBLY_MAX_BYTES", 2 ** 15)
    config = minimal_config(space={"N_max": 30}, tasks=[{"name": "evolve"}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
    assert "bytes" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_unknown_plot_kind_is_input_error(tmp_path):
    config = minimal_config()
    config["tasks"] = [{"name": "improve", "plots": ["not-a-kind"]}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("section, value, pointer", [
    ("tasks", [{"name": "improve", "timez": [0.1]}], "/tasks/0/timez"),
    ("tasks", [{"name": "number-bound", "n_sample": 3}], "/tasks/0/n_sample"),
    ("tasks", [{"name": "sector", "plots": ["min-eig-vs-t"]}], "/tasks/0/plots/0"),
    ("model", {"kind": "gaussian", "d": 1, "V": [[1.0]]}, "/model"),
    ("space", {"N_max": 6, "dimension_cap": 100}, "/space/dimension_cap"),
    ("model", {"kind": "two_boson", "gamma_minus": [[1, 0], [0, 1]]}, "/model"),
    ("model", {**FINITE_QUBIT, "Hamiltonian": [[0, 0], [0, 0]]}, "/model/Hamiltonian"),
    ("tasks", [{"name": "number-bound", "seed": "x"}], "/tasks/0/seed"),
    ("tasks", [{"name": "number-bound", "n_samples": "many"}], "/tasks/0/n_samples"),
    ("tasks", [{"name": "number-bound", "n_samples": 2.7}], "/tasks/0/n_samples"),
    ("tasks", [{"name": "sector", "shift_grid": 5}], "/tasks/0/shift_grid"),
    ("tasks", [{"name": "support", "rank_rtol": -1.0}], "/tasks/0/rank_rtol"),
    ("tasks", [{"name": "improve", "rank_rtol": 0}], "/tasks/0/rank_rtol"),
    ("tasks", [{"name": "evolve", "method": "rk4", "h": 0.0}], "/tasks/0/h"),
    ("tasks", [{"name": "evolve", "method": "rk4", "h": -1.0}], "/tasks/0/h"),
    ("tasks", [{"name": "number-bound", "n_samples": 0}], "/tasks/0/n_samples"),
    ("seed", -1, "/seed"),
    ("tasks", [{"name": "sector", "seed": -1}], "/tasks/0/seed"),
])
def test_schema_violation_is_input_error(tmp_path, capsys, section, value, pointer):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_config(**{section: value})))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert f"{pointer}:" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
    assert f"{pointer}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def counting_calls(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends each call's positional args."""
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, counted)


def test_sampled_tasks_draw_the_stream_once(tmp_path, monkeypatch):
    blocks, streams = [], []
    counting_calls(monkeypatch, diagnostics, "_interior_blocks", streams)
    counting_calls(monkeypatch, diagnostics, "sample_blocks", blocks)
    config = minimal_config(tasks=[
        {"name": "number-bound", "n_samples": 120},
        {"name": "domain-comparison", "n_samples": 70},
        {"name": "sector", "n_samples": 150}])
    code, report = cli.run_scenario(config, tmp_path)
    assert code == 0
    assert [(n, seed) for _, n, seed in streams] == [(150, 1)]
    # the number-bound identity check redraws its first 50 samples
    assert [args[1] for args in blocks] == [150, 50]


class CountingOperator:
    """A sparse matrix that adds the columns of every block it is applied to."""

    def __init__(self, matrix, name, applied):
        self.matrix, self.name, self.applied = matrix, name, applied

    def __matmul__(self, X):
        self.applied[self.name] = self.applied.get(self.name, 0) + X.shape[1]
        return self.matrix @ X


@pytest.mark.parametrize("tasks, columns", [
    ([{"name": "sector"}], {1: {"G": 200}}),
    ([{"name": "number-bound", "n_samples": 100},
      {"name": "domain-comparison", "n_samples": 70},
      {"name": "sector", "n_samples": 130, "seed": 5},
      {"name": "sector", "n_samples": 40}],
     {1: {"G0": 100, "N": 100, "G": 70}, 5: {"G": 130}}),
])
def test_sample_pass_applies_each_operator_to_its_readers_samples(
        tmp_path, monkeypatch, tasks, columns):
    real = diagnostics.sample_statistics
    applied = {}

    def counting(ops, seed, counts):
        seen = applied.setdefault(seed, {})
        ops = dataclasses.replace(ops, **{
            name: CountingOperator(getattr(ops, name), name, seen)
            for name in ("G0", "N", "G")})
        return real(ops, seed, counts)
    monkeypatch.setattr(diagnostics, "sample_statistics", counting)
    code, _ = cli.run_scenario(minimal_config(tasks=tasks), tmp_path)
    assert code == 0
    assert applied == columns


@pytest.mark.parametrize("workload", ["shipped", *workloads.BUILDERS])
def test_shipped_and_benchmark_configs_validate(workload):
    if workload == "shipped":
        configs = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))]
    else:
        configs = [config for _, config in workloads.build(workload, 1)]
    for config in configs:
        cli.validate_config(config)


@pytest.mark.parametrize("error_type", ["IntegrationError", "LinAlgError"])
def test_integration_error_is_a_failed_task(tmp_path, monkeypatch, error_type):
    if error_type == "IntegrationError":
        # RK4 with h = 0.2 is unstable on the damping rates near N_max = 30
        failing = {"name": "evolve", "times": [0, 1, 2, 4],
                   "method": "rk4", "h": 0.2}
        message = "trace error"
    else:
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(evolution, "support_rank", no_convergence)
        failing = {"name": "improve", "times": [0.1]}
        message = "did not converge"
    config = {
        "seed": 1,
        "model": {"kind": "gaussian", "d": 1, "V": [[1]], "U": [[0.5]]},
        "space": {"N_max": 30},
        "tasks": [{"name": "kossakowski"}, failing, {"name": "minimality"}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    assert [t["passed"] for t in report["tasks"]] == [True, False, True]
    failed = report["tasks"][1]
    assert "report" not in failed
    assert failed["error"]["type"] == error_type
    assert message in failed["error"]["message"]


def test_unbounded_evolution_is_a_failed_task(tmp_path):
    # D = 28: at t = 1e6 the support closure's e^{tG} and the density
    # evolution would plan 1.7e7 and 8.9e7 products; both are refused up front
    config = json.loads((SCENARIOS / "two_boson.json").read_text())
    config["tasks"] = [{"name": "support", "t": 1e6},
                       {"name": "evolve", "times": [0.0, 1e6]},
                       {"name": "kossakowski"}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    start = time.perf_counter()
    code = cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [t["passed"] for t in report["tasks"]] == [False, False, True]
    for failed in report["tasks"][:2]:
        assert failed["error"]["type"] == "IntegrationError"
        assert "matrix products" in failed["error"]["message"]
    assert elapsed < 1.0


@pytest.mark.parametrize("task, model, named", [
    ({"name": "fd-probe", "t_grid": []}, FINITE_QUBIT, "t_grid"),
    ({"name": "fd-probe", "n_pairs": 0}, FINITE_QUBIT, "n_pairs"),
    ({"name": "fd-derivative", "n_pairs": 0}, FINITE_QUBIT, "n_pairs"),
    ({"name": "improve", "times": []}, None, "times"),
    ({"name": "improve", "initials": []}, None, "initial states"),
    ({"name": "sector", "shift_grid": []}, None, "shift_grid"),
    ({"name": "domain-comparison", "c_grid": []}, None, "c_grid"),
])
def test_empty_sample_is_input_error(tmp_path, capsys, task, model, named):
    config = minimal_config(tasks=[task])
    if model is not None:
        config["model"] = model
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_readme_task_table_matches_signatures():
    readme = (ROOT / "README.md").read_text()
    table = {}
    for names, params in re.findall(r"^\| (`[a-z-]+`(?:, `[a-z-]+`)*) \| (.*) \|$", readme, re.M):
        for name in re.findall(r"`([a-z-]+)`", names):
            table[name] = re.findall(r"`(\w+)`", params)
    assert table == cli.TASK_PARAMS
