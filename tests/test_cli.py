import contextlib
import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from gqms import cli, commutators, diagnostics, evolution, fock, generator, serialize
from gqms import model as gm
from helpers import counting_threads

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
    with pytest.raises(ValueError) as err:
        cli.validate_config(minimal_config(tasks=[]))
    assert "/tasks" in str(err.value)


def test_validate_rejects_unknown_task():
    with pytest.raises(ValueError) as err:
        cli.validate_config(minimal_config(tasks=[{"name": "frobnicate"}]))
    assert "/tasks/0/name" in str(err.value)


def test_validate_rejects_missing_seed():
    config = minimal_config()
    del config["seed"]
    with pytest.raises(ValueError):
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
            {"name": "fd-probe", "n_pairs": 50},
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


def test_a_finite_run_assembles_its_generator_once(tmp_path, monkeypatch):
    # fd-probe and fd-derivative exponentiate the one dense generator of the model
    assemblies = []
    counting_calls(monkeypatch, generator, "gkls_superoperator", assemblies)
    config = {"seed": 5, "model": FINITE_QUBIT,
              "tasks": [{"name": "fd-probe", "n_pairs": 5}, {"name": "fd-derivative", "n_pairs": 5}]}
    code, _ = cli.run_scenario(config, tmp_path)
    assert code == 0
    assert len(assemblies) == 1


def test_report_json_is_the_standard_encoding_of_its_content(tmp_path, monkeypatch):
    def no_dump(*args, **kwargs):
        raise AssertionError("json.dump ran")
    monkeypatch.setattr(json, "dump", no_dump)
    config = minimal_config(tasks=[{"name": "kossakowski"}, {"name": "sector", "n_samples": 5},
                                   {"name": "bogoliubov", "squeeze": 2000}])
    with pytest.warns(RuntimeWarning):  # the overflowing squeeze leaves NaN residuals
        code, report = cli.run_scenario(config, tmp_path)
    assert code == 2
    text = (tmp_path / "report.json").read_text()
    assert "NaN" in text
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert text == json.dumps(serialize.jsonable(report), sort_keys=True, indent=2) + "\n"


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


def test_density_budget_counts_the_states_a_task_keeps(monkeypatch):
    # `support` keeps the states at 0 and t; `improve` those at 0 and each
    # distinct time, `evolve` those at its times
    config = minimal_config(space={"N_max": 30}, tasks=[{"name": "support"}])
    superop = cli.validate_config(config).lindbladian
    monkeypatch.setattr(generator, "ASSEMBLY_MAX_BYTES",
                        evolution.density_bytes(superop.dim, superop.matrix.nnz, 2))
    cli.validate_config(config)
    for task in ({"name": "improve", "times": [0.1, 0.05, 0.1]},
                 {"name": "evolve", "times": [0, 0.1, 0.2]}):
        with pytest.raises(ValueError, match="/space/N_max: a density evolution keeping 3 states"):
            cli.validate_config(minimal_config(space={"N_max": 30}, tasks=[task]))


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
    ("tasks", [{"name": "invariant", "n_seeds": -2, "starts": ["vacuum"]}], "/tasks/0/n_seeds"),
    # keys no shipped or benchmark config set, removed with their valid values
    *[("tasks", [{"name": task, key: value}], f"/tasks/0/{key}") for task, key, value in [
        *[(task, "seed", 1) for task in ("bogoliubov", "number-bound", "domain-comparison",
                                         "invariant", "sector", "fd-probe", "fd-derivative")],
        ("bogoliubov", "rotation", 1.0), ("domain-comparison", "c_grid", [0.0, 1.0]),
        ("evolve", "method", "auto"), ("evolve", "h", 1e-3), ("evolve", "trace_tol", 1e-6),
        ("support", "max_order", 2), ("support", "max_word", 4),
        ("support", "rank_rtol", 1e-8), ("improve", "rank_rtol", 1e-8),
        ("sector", "theta_max", 1.0), ("fd-probe", "t_grid", [0.01, 0.1, 1.0])]],
    # forms of an input that have one other form
    ("tasks", [{"name": "sector", "shift_grid": None}], "/tasks/0/shift_grid"),
    ("output_dir", "out", "/output_dir"),
    # a mode count or a finite dimension that is not a positive integer
    ("model", {"kind": "gaussian", "d": True, "V": [[1.0]], "U": [[0.0]]}, "/model/d"),
    ("model", {"kind": "gaussian", "d": 1.7, "V": [[1.0]], "U": [[0.0]]}, "/model/d"),
    ("model", {**FINITE_QUBIT, "n": 2.9}, "/model/n"),
    ("model", {"kind": "gaussian", "d": 0, "V": [[1.0]], "U": [[0.0]]}, "/model/d"),
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


def test_observable_outside_the_basis_is_named_before_evolving(tmp_path, capsys, monkeypatch):
    def no_evolution(*args, **kwargs):
        raise AssertionError("the evolution ran")
    monkeypatch.setattr(evolution, "evolve_density", no_evolution)
    config = minimal_config(tasks=[{"name": "evolve", "observables": [[1], [9]]}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert "occupation (9,) not in the truncated basis" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def counting_calls(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends each call's positional args."""
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, counted)


def test_sampled_tasks_draw_the_stream_once(tmp_path, monkeypatch):
    blocks = []
    counting_calls(monkeypatch, diagnostics, "sample_blocks", blocks)
    config = minimal_config(tasks=[
        {"name": "number-bound", "n_samples": 120},
        {"name": "domain-comparison", "n_samples": 70},
        {"name": "sector", "n_samples": 150}])
    code, report = cli.run_scenario(config, tmp_path)
    assert code == 0
    # the pass draws the largest count once; the number-bound identity
    # check redraws its first 50 samples
    assert [args[1] for args in blocks] == [150, 50]


class CountingOperator:
    """A sparse matrix that records the column count of every block it, or
    a slice of it, is applied to."""

    def __init__(self, matrix, name, applied):
        self.matrix, self.name, self.applied = matrix, name, applied

    def __getitem__(self, key):
        return type(self)(self.matrix[key], self.name, self.applied)

    def diagonal(self):
        return CountingDiagonal(self.matrix.diagonal(), self.name, self.applied)

    def count(self, X):
        self.applied.setdefault(self.name, []).append(X.shape[1])

    def __matmul__(self, X):
        self.count(X)
        return self.matrix @ X


class CountingDiagonal(CountingOperator):
    """A matrix's diagonal that records the column count of every block it scales."""

    def __mul__(self, X):
        self.count(X)
        return self.matrix * X


@pytest.mark.parametrize("tasks, columns", [
    ([{"name": "sector"}], [64, 64, 64, 8]),
    ([{"name": "number-bound", "n_samples": 100},
      {"name": "domain-comparison", "n_samples": 70},
      {"name": "sector", "n_samples": 40}], [64, 36]),
])
def test_sample_pass_applies_each_operator_to_its_readers_samples(
        tmp_path, monkeypatch, tasks, columns):
    # one pass applies each operator once to each block of the largest count:
    # the interior columns of G0 and G, and N's diagonal
    real = diagnostics.sample_statistics
    applied = {}

    def counting(ops, seed, n_samples):
        seen = applied.setdefault(seed, {})
        ops = dataclasses.replace(ops, **{
            name: CountingOperator(getattr(ops, name), name, seen)
            for name in ("G0", "N", "G")})
        return real(ops, seed, n_samples)
    monkeypatch.setattr(diagnostics, "sample_statistics", counting)
    code, _ = cli.run_scenario(minimal_config(tasks=tasks), tmp_path)
    assert code == 0
    assert applied == {1: {"G0": columns, "N": columns, "G": columns}}


def test_sampled_task_reports_what_it_reports_alone(tmp_path):
    # 65 and 129 samples end a pass of their own with a one-column block
    tasks = [{"name": "number-bound", "n_samples": 65},
             {"name": "domain-comparison", "n_samples": 129},
             {"name": "sector", "n_samples": 200, "shift_grid": [0.0, 1.0],
              "plots": ["numerical-range-scatter"]}]
    config = minimal_config(model={"kind": "two_boson", "gamma_minus": [[1, 0], [0, 2]],
                                   "gamma_plus": [[1, 0], [0, 1]],
                                   "omega": [[1, 0.5], [0.5, -1]]}, tasks=tasks)
    code, mixed = cli.run_scenario(config, tmp_path / "mixed")
    assert code == 0
    for i, task in enumerate(tasks):
        code, alone = cli.run_scenario({**config, "tasks": [task]}, tmp_path / str(i))
        assert code == 0
        assert alone["tasks"][0] == mixed["tasks"][i]
        for path in (tmp_path / str(i)).glob("*.csv"):
            twin = tmp_path / "mixed" / path.name.replace("00_", f"{i:02d}_", 1)
            assert path.read_bytes() == twin.read_bytes()


@pytest.mark.parametrize("workload", ["shipped", *workloads.BUILDERS])
def test_shipped_and_benchmark_configs_validate(workload):
    if workload == "shipped":
        configs = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))]
    else:
        configs = [config for _, config in workloads.build(workload, 1)]
    for config in configs:
        cli.validate_config(config)


@pytest.mark.parametrize("name, products", [
    ("two_boson", [22]), ("damping_contrast", [81, 1]), ("closure", [21]), ("assembly", [14])])
def test_density_tasks_evolve_each_state_once(tmp_path, monkeypatch, name, products):
    # one evolve_density per distinct initial state of the density tasks, each
    # taking its plan's products: two_boson's `improve` reads the `evolve`
    # states, damping_contrast's evolves the stationary vacuum in one product
    if name in ("closure", "assembly"):
        (_, config), = workloads.build(name, 1)
    else:
        config = json.loads((SCENARIOS / f"{name}.json").read_text())
    counts, real = [], generator.Superoperator.matvec

    def counted(superop, u):
        counts[-1] += 1
        return real(superop, u)
    evolve = evolution.evolve_density
    monkeypatch.setattr(generator.Superoperator, "matvec", counted)
    monkeypatch.setattr(evolution, "evolve_density",
                        lambda *args: counts.append(0) or evolve(*args))
    cli.run_scenario(config, tmp_path)
    assert counts == products


def test_a_kept_evolution_lives_only_until_its_last_reader(tmp_path, monkeypatch):
    # the evolution of a state is kept while a later density task reads that
    # state, and dropped before another evolution starts: at most one lives
    kept, evolve = [], evolution.evolve_density

    def tracked(*args):
        assert all(ref() is None for ref in kept)
        result = evolve(*args)
        kept.append(weakref.ref(result))
        return result
    monkeypatch.setattr(evolution, "evolve_density", tracked)
    alive = []
    search = diagnostics.invariant_subspace_search
    monkeypatch.setattr(diagnostics, "invariant_subspace_search", lambda *args, **kwargs: (
        alive.append([ref() is not None for ref in kept]) or search(*args, **kwargs)))
    model = {"kind": "gaussian", "d": 1, "V": [[1.0]], "U": [[0.5]]}
    config = minimal_config(model=model, space={"N_max": 4}, tasks=[
        {"name": "evolve", "times": [0, 0.1, 0.2]}, {"name": "invariant", "n_seeds": 1},
        {"name": "improve", "initials": ["vacuum", [1], "vacuum"], "times": [0.2, 0.1]},
        {"name": "invariant", "n_seeds": 1}, {"name": "support", "initial": [1], "t": 0.3},
        {"name": "invariant", "n_seeds": 1}])
    _, report = cli.run_scenario(config, tmp_path)
    assert len(kept) == 4  # vacuum, [1], vacuum again, then [1] again for `support`
    assert alive == [[True], [False, False, False], [False, False, False, False]]
    rows = report["tasks"][2]["report"]["reports"]
    assert [row["t"] for row in rows] == [0.1, 0.2] * 3
    assert [row["psi_index"] for row in rows] == [0, 0, 1, 1, 2, 2]
    # the vacuum's rows read from the `evolve` states and from its own evolution
    assert [{**row, "psi_index": 0} for row in rows[4:]] == rows[:2]


def test_the_model_builds_its_kossakowski_matrix_once(tmp_path, monkeypatch):
    # the kossakowski task, the sampled bound and the Lindbladian's pairs all
    # read the one matrix of the model; bogoliubov builds its transformed model's
    calls = []
    counting_calls(monkeypatch, gm, "build_kossakowski", calls)
    config = minimal_config(tasks=[
        {"name": "kossakowski"}, {"name": "number-bound", "n_samples": 5},
        {"name": "improve"}, {"name": "bogoliubov"}])
    code, _ = cli.run_scenario(config, tmp_path)
    assert code == 2  # pure loss is not positivity improving
    assert len(calls) == 2


def test_the_model_builds_its_adjoint_action_once(tmp_path, monkeypatch):
    # the operators' Kraus rows and the support task's word span and oracle
    # read the one action of the model
    built, real = [], commutators.AdjointActionMatrix
    monkeypatch.setattr(commutators, "AdjointActionMatrix",
                        lambda **fields: built.append(fields) or real(**fields))
    config = minimal_config(tasks=[{"name": "number-bound", "n_samples": 5}, {"name": "support"}])
    code, _ = cli.run_scenario(config, tmp_path)
    assert code == 0
    assert len(built) == 1


# two_boson's `improve` reads the ranks of the `evolve` states it shares;
# damping_contrast's tasks read different states.  Each scenario's `evolve`
# CSV ranks one initial state, read from its trace with no eigensolve
@pytest.mark.parametrize("name, ranks", [("two_boson", 4), ("damping_contrast", 7)])
def test_each_kept_state_is_ranked_once(tmp_path, monkeypatch, name, ranks):
    solved, initial = [], []
    counting_calls(monkeypatch, evolution, "support_rank", solved)
    counting_calls(monkeypatch, evolution, "_initial_rank", initial)
    code, _ = cli.run_scenario(json.loads((SCENARIOS / f"{name}.json").read_text()), tmp_path)
    assert code == 0
    assert len(solved) + len(initial) == ranks
    assert len(initial) == 1


def test_small_evolutions_start_no_thread(tmp_path, monkeypatch):
    # the shipped scenarios (D = 28 and 9) and the closure workload (D = 105)
    # evolve below TWO_CORE_ENTRIES and draw no sample pass ahead
    configs = [json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))]
    configs += [config for _, config in workloads.build("closure", 1)]
    started = counting_threads(monkeypatch)
    sizes, build = [], generator.build_lindbladian
    monkeypatch.setattr(generator, "build_lindbladian", lambda *args, **kwargs: (
        sizes.append(build(*args, **kwargs)) or sizes[-1]))
    codes = [cli.run_scenario(config, tmp_path / str(i))[0] for i, config in enumerate(configs)]
    assert codes == [0, 0, 2]  # closure/support is the workload's known failure
    assert [superop.dim for superop in sizes] == [9, 28, 105]
    assert max(superop.matrix.nnz for superop in sizes) < evolution.TWO_CORE_ENTRIES
    assert started == []


def test_invariant_task_memory_is_refused_at_validate(monkeypatch):
    # dense interior blocks of G and each L_l, the basis and its copy
    config = minimal_config(space={"N_max": 6}, tasks=[{"name": "invariant"}])
    needed = diagnostics.closure_bytes(5, 1)
    assert needed == 16 * 25 * 4
    monkeypatch.setattr(generator, "ASSEMBLY_MAX_BYTES", needed)
    cli.validate_config(config)
    monkeypatch.setattr(generator, "ASSEMBLY_MAX_BYTES", needed - 1)
    with pytest.raises(ValueError, match=f"/space/N_max: an invariant closure needs {needed} bytes"):
        cli.validate_config(config)


@pytest.mark.parametrize("error_type", ["IntegrationError", "LinAlgError", "MemoryError",
                                        "ValueError"])
def test_integration_error_is_a_failed_task(tmp_path, monkeypatch, error_type):
    if error_type == "IntegrationError":
        # at t = 1e6 the evolution would plan more than MAX_PRODUCTS products
        failing = {"name": "evolve", "times": [0, 1e6]}
        message = "matrix products"
    elif error_type == "MemoryError":
        # numpy's refusal of an allocation, raised without allocating
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr(diagnostics, "sample_statistics", refuse)
        failing = {"name": "number-bound", "n_samples": 1000}
        message = "Unable to allocate"
    elif error_type == "ValueError":
        # a numerical ValueError raised inside a task, after the config validated
        def refuse(*args, **kwargs):
            raise ValueError("array must not contain infs or NaNs")
        monkeypatch.setattr(diagnostics, "invariant_subspace_search", refuse)
        failing = {"name": "invariant"}
        message = "infs or NaNs"
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


def test_bogoliubov_violation_is_a_failed_task(tmp_path):
    # squeeze 20 misses the constraints far beyond BOGOLIUBOV_TOL; at 2000
    # the exponential overflows and the residuals are NaN
    for squeeze in (20, 2000):
        config = json.loads((SCENARIOS / "two_boson.json").read_text())
        config["tasks"] = [{"name": "bogoliubov", "squeeze": squeeze},
                           {"name": "bogoliubov", "squeeze": 0.3},
                           {"name": "kossakowski"}]
        path = tmp_path / f"{squeeze}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"{squeeze}_out"
        overflow = pytest.warns(RuntimeWarning) if squeeze == 2000 else contextlib.nullcontext()
        with overflow:
            code = cli.main(["run", "--config", str(path), "--output-dir", str(out)])
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert [t["passed"] for t in report["tasks"]] == [False, True, True]
        violated = report["tasks"][0]["report"]["constraint_residuals"]
        if squeeze == 2000:
            assert all(math.isnan(r) for r in violated)
        else:
            assert max(violated) > 1.0
    assert max(report["tasks"][1]["report"]["constraint_residuals"]) <= 1e-10


def test_bogoliubov_beyond_the_product_budget_is_a_failed_task(tmp_path):
    # at squeeze 20000 the exponential would plan more than MAX_PRODUCTS products
    config = json.loads((SCENARIOS / "two_boson.json").read_text())
    config["tasks"] = [{"name": "bogoliubov", "squeeze": 20000}, {"name": "kossakowski"}]
    code, report = cli.run_scenario(config, tmp_path)
    assert code == 2
    failed, kept = report["tasks"]
    assert failed["error"]["type"] == "IntegrationError"
    assert "matrix products" in failed["error"]["message"]
    assert kept["passed"]


def test_readme_library_example(capsys):
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"^## Library example\n\n```python\n(.*?)^```", readme, re.M | re.S)
    exec(example.group(1), {})
    assert capsys.readouterr().out == "1.0 True\n"


@pytest.mark.parametrize("task, model, named", [
    ({"name": "fd-probe", "t_grid": []}, FINITE_QUBIT, "t_grid"),
    ({"name": "fd-probe", "n_pairs": 0}, FINITE_QUBIT, "n_pairs"),
    ({"name": "fd-derivative", "n_pairs": 0}, FINITE_QUBIT, "n_pairs"),
    ({"name": "improve", "times": []}, None, "times"),
    ({"name": "improve", "initials": []}, None, "initials"),
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


@pytest.mark.parametrize("task, pointer", [
    ({"name": "invariant", "n_seeds": 0}, "/tasks/1/n_seeds"),
    ({"name": "invariant", "n_seeds": 0, "starts": []}, "/tasks/1/n_seeds"),
    ({"name": "improve", "initials": []}, "/tasks/1/initials"),
])
def test_empty_sample_fails_validate_and_runs_no_task(tmp_path, capsys, task, pointer):
    # the error is a schema error: `validate` names it, and `run` stops
    # before the first task writes its CSV
    config = minimal_config(tasks=[{"name": "evolve", "times": [0, 0.1]}, task])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert pointer in capsys.readouterr().err
    assert cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
    assert pointer in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


EVOLVE = {"name": "evolve", "times": [0, 0.1]}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("model, space, tasks, pointer", [
    (None, {"N_max": 6}, [EVOLVE, {"name": "fd-probe"}], "/tasks/1/name"),
    (FINITE_QUBIT, None, [{"name": "fd-probe", "n_pairs": 5}, {"name": "kossakowski"}],
     "/tasks/1/name"),
    (None, None, [{"name": "kossakowski"}, EVOLVE], "/space"),
    ({"kind": "two_boson", "gamma_minus": [[1, 0], [0, 1]], "gamma_plus": [[1, 0], [0, 1]]},
     None, [{"name": "kossakowski"}, {"name": "support"}], "/space"),
    (None, {"N_max": 2, "interior_margin": 3}, [EVOLVE, {"name": "sector"}],
     "/space/interior_margin"),
    (None, {"N_max": 6}, [{"name": "improve"}, {"name": "evolve", "times": [0.5, 1.0]}],
     "/tasks/1/times"),
    (None, {"N_max": 6}, [{"name": "evolve", "times": [0, 0.2, 0.2, 0.3]}], "/tasks/0/times"),
    (None, {"N_max": 6}, [EVOLVE, {"name": "improve", "times": [-0.1, 0.1]}],
     "/tasks/1/times/0"),
    (None, {"N_max": 6}, [EVOLVE, {"name": "support", "t": 0}], "/tasks/1/t"),
    (None, {"N_max": 6}, [EVOLVE, {"name": "improve", "initials": ["vac"]}],
     "/tasks/1/initials/0"),
    (None, {"N_max": 6}, [EVOLVE, {"name": "support", "initial": [9]}], "/tasks/1/initial"),
    (None, {"N_max": 6}, [EVOLVE, {"name": "invariant", "starts": ["vacuum", [1, 0]]}],
     "/tasks/1/starts/1"),
    (None, {"N_max": 6}, [EVOLVE, {**EVOLVE, "observables": [[1], [-1]]}],
     "/tasks/1/observables/1/0"),
    ({**minimal_config()["model"], "omega": [[float("nan")]]}, {"N_max": 6}, [EVOLVE], "/model"),
    ({**minimal_config()["model"], "omega": [[[0, 1]]]}, {"N_max": 6}, [EVOLVE], "/model"),
    ({"kind": "gaussian", "d": 2, "V": [[1, 0]], "U": [[0, 0]], "omega": [[1]]}, {"N_max": 6},
     [EVOLVE], "/model"),
    ({**minimal_config()["model"], "V": [[10 ** 400]]}, {"N_max": 6}, [EVOLVE], "/model"),
    ({**minimal_config()["model"], "d": None}, {"N_max": 6}, [EVOLVE], "/model/d"),
    ({**minimal_config()["model"], "d": float("inf")}, {"N_max": 6}, [EVOLVE], "/model/d"),
    ({**FINITE_QUBIT, "n": 7}, None, [{"name": "fd-probe", "n_pairs": 5}], "/model"),
    ({"kind": "gaussian", "d": 2, "V": [[1, 0]], "U": [[0, 0]]}, {"N_max": 200},
     [{"name": "kossakowski"}, EVOLVE], "/space/N_max"),
    ({"kind": "gaussian", "d": 1, "V": [[1], [1]], "U": [[1], [2]]}, {"N_max": 4999},
     [{"name": "kossakowski"}, {"name": "improve"}], "/space/N_max"),
    ({**minimal_config()["model"], "U": [[0.5]]}, {"N_max": 6},
     [{"name": "kossakowski"}, {"name": "invariant", "n_seeds": 1, "starts": [[6]]}],
     "/tasks/1/starts/0"),
    *[({**minimal_config()["model"], "U": [[0.5]]}, {"N_max": 6},
       [{"name": "kossakowski"}, task], pointer) for task, pointer in [
        ({"name": "bogoliubov", "squeeze": 10 ** 400}, "/tasks/1/squeeze"),
        ({"name": "support", "t": 10 ** 400}, "/tasks/1/t"),
        ({"name": "support", "t": NAN}, "/tasks/1/t"),
        ({"name": "support", "t": INF}, "/tasks/1/t"),
        ({"name": "evolve", "times": [0, 10 ** 400]}, "/tasks/1/times/1"),
        ({"name": "evolve", "times": [0, NAN]}, "/tasks/1/times/1"),
        ({"name": "improve", "times": [0.1, 10 ** 400]}, "/tasks/1/times/1"),
        ({"name": "improve", "times": [NAN]}, "/tasks/1/times/0"),
        ({"name": "sector", "shift_grid": [0, 10 ** 400]}, "/tasks/1/shift_grid/1"),
        ({"name": "sector", "shift_grid": [NAN]}, "/tasks/1/shift_grid/0"),
        ({"name": "sector", "shift_grid": [INF]}, "/tasks/1/shift_grid/0"),
        ({"name": "kossakowski", "expect": {"eps0": 10 ** 400}}, "/tasks/1/expect/eps0"),
    ]],
    (FINITE_QUBIT, None, [{"name": "fd-probe", "n_pairs": 10 ** 12}], "/tasks/0/n_pairs"),
    (FINITE_QUBIT, None, [{"name": "fd-derivative", "n_pairs": 10 ** 12}], "/tasks/0/n_pairs"),
    (None, {"N_max": 6}, [{"name": "sector", "n_samples": 10 ** 12}], "/tasks/0/n_samples"),
    (None, {"N_max": 6}, [{"name": "invariant", "n_seeds": 10 ** 12}], "/tasks/0/n_seeds"),
    # 300 start closures of 398 products each, and no seed
    ({**minimal_config()["model"], "U": [[0.5]]}, {"N_max": 200},
     [{"name": "kossakowski"}, {"name": "invariant", "n_seeds": 0, "starts": ["vacuum"] * 300}],
     "/tasks/1/starts"),
])
def test_dependent_value_fails_validate_and_runs_no_task(tmp_path, capsys, model, space,
                                                         tasks, pointer):
    # a task that needs the other model kind, a task that truncates without
    # a space, a range that a task or the space would refuse, a state outside
    # the truncated basis, a start state outside the interior, a model its
    # decoder refuses, a space above the dimension cap, a superoperator
    # above its byte budget, the closures of an invariant task's seeds and
    # starts above their product budget and a task number that is NaN,
    # infinite or beyond float range are schema errors: `run` stops before
    # the first task writes its CSV
    config = {"seed": 1, "model": model or minimal_config()["model"], "tasks": tasks}
    if space is not None:
        config["space"] = space
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert f"{pointer}:" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
    assert f"{pointer}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


REFUSALS = json.loads((ROOT / "tests" / "refusals.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", REFUSALS, ids=[case["name"] for case in REFUSALS])
def test_refusal_table_case(tmp_path, capsys, case):
    # the table the CI console-script step runs through `gqms`
    # (tests/refusals.py): each command exits with the case's code and
    # names its pointer and message once, and `run` writes nothing
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(case["config"]))
    for command in case["commands"]:
        argv = [command, "--config", str(path)]
        if command == "run":
            argv += ["--output-dir", str(tmp_path / "out")]
        assert cli.main(argv) == case["exit"]
        assert capsys.readouterr().err.count(f"{case['pointer']}: {case['message']}") == 1
    assert not (tmp_path / "out").exists()


def test_space_is_required_only_by_a_task_that_truncates(tmp_path, monkeypatch):
    # kossakowski, minimality and bogoliubov read only the model: a strictly
    # positive d = 50 model runs them with no `space` and builds none; each
    # other bosonic task is refused at /space
    d = 50
    eye, zero = np.eye(d).tolist(), np.zeros((d, d)).tolist()
    config = {"seed": 1, "model": {"kind": "gaussian", "d": d, "V": eye + zero, "U": zero + eye},
              "tasks": [{"name": name} for name in cli.SPACELESS_TASKS]}
    monkeypatch.setattr(fock, "build_space", lambda **kw: pytest.fail("a space was built"))
    code, report = cli.run_scenario(config, tmp_path / "out")
    assert code == 0 and report["tasks"][0]["report"]["strictly_positive"]
    truncating = set(cli.TASKS) - set(cli.SPACELESS_TASKS) - set(cli.FINITE_TASKS)
    assert len(truncating) == 7
    for name in sorted(truncating):
        with pytest.raises(ValueError, match=f"/space: required by the {name} task"):
            cli.validate_config({**config, "tasks": [*config["tasks"], {"name": name}]})


@pytest.mark.parametrize("model, task, key, limit", [
    # products per item: a finite pair's propagators, a sample's G0, N and G,
    # and a seed's closure, G and the one L on each of 5 interior vectors
    (FINITE_QUBIT, "fd-probe", "n_pairs", evolution.MAX_PRODUCTS // 3),
    (FINITE_QUBIT, "fd-derivative", "n_pairs", evolution.MAX_PRODUCTS // 2),
    (None, "number-bound", "n_samples", evolution.MAX_PRODUCTS // 3),
    (None, "invariant", "n_seeds", evolution.MAX_PRODUCTS // (5 * 2)),
])
def test_count_setting_is_bounded_by_its_products(model, task, key, limit):
    config = minimal_config(tasks=[{"name": task, key: limit}])
    if model is not None:
        config = {"seed": 1, "model": model, "tasks": config["tasks"]}
    cli.validate_config(config)
    config["tasks"][0][key] = limit + 1
    with pytest.raises(ValueError, match=f"/tasks/0/{key}:"):
        cli.validate_config(config)


def test_a_run_decodes_its_model_and_builds_its_space_once(tmp_path, monkeypatch):
    # validation decodes the model and builds the space and the superoperator
    # as a run does, and `run_scenario` reuses that context: `main`
    # validates a run once
    calls = []
    decode, build = cli.MODELS["gaussian"], fock.build_space
    assemble = generator.build_lindbladian
    monkeypatch.setitem(cli.MODELS, "gaussian", lambda **kw: calls.append("model") or decode(**kw))
    monkeypatch.setattr(fock, "build_space", lambda **kw: calls.append("space") or build(**kw))
    monkeypatch.setattr(generator, "build_lindbladian",
                        lambda *a, **kw: calls.append("lindbladian") or assemble(*a, **kw))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_config(tasks=[EVOLVE, {"name": "support"}])))
    assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert calls == ["model", "space", "lindbladian"]



@pytest.mark.parametrize("model, named", [
    ({**minimal_config()["model"], "omega": [[NAN]]}, "nan"),
    ({**minimal_config()["model"], "V": [[INF]]}, "inf"),
    ({**minimal_config()["model"], "zeta": [[0, -INF]]}, "[0, -inf]"),
    ({"kind": "two_boson", "gamma_minus": [[NAN, 0], [0, 1]], "gamma_plus": [[1, 0], [0, 1]]},
     "nan"),
    ({**FINITE_QUBIT, "c": [[1, 0, 0], [0, [1, NAN], 0], [0, 0, 1]]}, "[1, nan]"),
    ({**FINITE_QUBIT, "H": [[0, INF], [INF, 0]]}, "inf"),
])
def test_non_finite_model_entry_is_an_input_error(tmp_path, capsys, model, named):
    # JSON's NaN and Infinity are refused where the model is decoded, before
    # any task runs or the output directory is made
    assert_model_entry_refused(tmp_path, capsys, model, named)


def assert_model_entry_refused(tmp_path, capsys, model, named):
    """`validate` and `run` exit 1 at /model, naming the entry, and `run` makes no directory."""
    tasks = ([{"name": "fd-probe", "n_pairs": 5}] if model["kind"] == "finite"
             else [{"name": "kossakowski"}, {"name": "minimality"}, EVOLVE])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_config(model=model, tasks=tasks)))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert f"/model: expected a finite number or [re, im] pair, got {named}" in \
        capsys.readouterr().err
    assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert f"got {named}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, named", [
    ({**minimal_config()["model"], "V": [[True]]}, "True"),
    ({**minimal_config()["model"], "U": [[[0, False]]]}, "[0, False]"),
    ({**FINITE_QUBIT, "c": [[1, 0, 0], [0, True, 0], [0, 0, 1]]}, "True"),
])
def test_boolean_model_entry_is_an_input_error(tmp_path, capsys, model, named):
    # a JSON boolean is not a number, as a task setting's is not
    assert_model_entry_refused(tmp_path, capsys, model, named)


def test_integral_floats_are_integers():
    # JSON Schema's integer: 6.0 is one, as 6 is; each reaches its builder as an int
    config = minimal_config(model={**minimal_config()["model"], "d": 1.0},
                            space={"N_max": 6.0, "interior_margin": 2.0},
                            tasks=[{"name": "invariant", "n_seeds": 1.0}])
    assert cli.validate_config(config).space.D == 7


def test_seeded_starts_may_be_zero_with_explicit_starts():
    cli.validate_config(minimal_config(
        tasks=[{"name": "invariant", "n_seeds": 0, "starts": ["vacuum"]},
               {"name": "sector"}]))


def test_settings_take_their_defaults_type(tmp_path):
    # a JSON 3.0 for an integer count and a JSON 1 for a real time reach
    # their tasks as 3 and 1.0
    config = minimal_config(tasks=[{"name": "number-bound", "n_samples": 3.0},
                                   {"name": "sector", "n_samples": 3.0},
                                   {"name": "support", "t": 1}])
    code, report = cli.run_scenario(config, tmp_path)
    assert code == 0
    bound, _, support = (task["report"] for task in report["tasks"])
    assert bound["samples"] == 3 and type(bound["samples"]) is int
    assert support["t"] == 1.0 and type(support["t"]) is float
    text = (tmp_path / "report.json").read_text()
    assert '"samples": 3,' in text and '"t": 1.0,' in text


def test_unusable_output_dir_is_input_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_config()))
    taken = tmp_path / "taken"
    taken.write_text("")
    for output_dir in (taken, taken / "sub"):
        assert cli.main(["run", "--config", str(path), "--output-dir", str(output_dir)]) == 1
        err = capsys.readouterr().err
        assert f"cannot make output directory {output_dir}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("offset, passed", [(5e-10, True), (1e-6, False), ("x", False),
                                            ([1], False)])
def test_expect_compares_floats_within_1e_9(tmp_path, offset, passed):
    # eps0 is 0.0 for V = [[1]], U = [[0]]; an expectation that is not a
    # number is compared for equality, so it is a mismatch, not an error
    config = minimal_config(tasks=[{"name": "kossakowski", "expect": {"eps0": offset}}])
    code, report = cli.run_scenario(config, tmp_path)
    task = report["tasks"][0]
    assert task["report"]["eps0"] == 0.0
    assert (code, task["passed"]) == ((0, True) if passed else (2, False))
    assert (tmp_path / "report.json").exists()
    assert task["expect_mismatches"] == ([] if passed else [
        {"key": "eps0", "expected": offset, "actual": 0.0}])


def test_verbose_run_prints_each_task(tmp_path, capsys):
    config = minimal_config(tasks=[{"name": "kossakowski"},
                                   {"name": "minimality", "expect": {"minimal": False}}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--output-dir", str(out), "--verbose"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "[0] kossakowski: PASS", "[1] minimality: FAIL",
        f"task failures; report at {out / 'report.json'}"]


# Runs every task in a fresh interpreter, then one density evolution; prints
# which of scipy.linalg and jsonschema were loaded and the bytes of the
# evolved state.
FOOTPRINT = """
import json, sys
from gqms import cli, evolution
configs, out = json.loads(sys.argv[1]), sys.argv[2]
for i, config in enumerate(configs):
    cli.run_scenario(config, f"{out}/{i}")
ctx = cli.RunContext(configs[0])
result = evolution.evolve_density(ctx.lindbladian, ctx.space.vacuum(), [0.0, 0.1])
print(json.dumps({"loaded": sorted({"scipy.linalg", "jsonschema"} & sys.modules.keys()),
                  "rho": result.states[-1].tobytes().hex()}))
"""


def test_scipy_linalg_never_loads(tmp_path):
    configs = [
        minimal_config(space={"N_max": 4}, tasks=[
            {"name": "evolve", "times": [0, 0.1]}, {"name": "support"},
            {"name": "improve"}, {"name": "invariant"}]),
        minimal_config(tasks=[
            {"name": "kossakowski"}, {"name": "minimality"}, {"name": "bogoliubov"},
            {"name": "number-bound", "n_samples": 20},
            {"name": "domain-comparison", "n_samples": 20}, {"name": "sector", "n_samples": 20}]),
        minimal_config(model=FINITE_QUBIT, tasks=[
            {"name": "fd-probe", "n_pairs": 5}, {"name": "fd-derivative", "n_pairs": 2}]),
    ]
    assert {task["name"] for config in configs for task in config["tasks"]} == set(cli.TASKS)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(configs),
                           str(tmp_path / "fresh")],
                          capture_output=True, text=True, env=env, check=True)
    fresh = json.loads(done.stdout.splitlines()[-1])
    assert fresh["loaded"] == []
    # the same bytes in this process, with scipy.linalg loaded
    import scipy.linalg  # noqa: F401
    for i, config in enumerate(configs):
        cli.run_scenario(config, tmp_path / f"here{i}")
        for path in (tmp_path / f"here{i}").iterdir():
            ours, theirs = path.read_text(), (tmp_path / "fresh" / str(i) / path.name).read_text()
            if path.name == "report.json":
                ours, theirs = ({k: v for k, v in json.loads(text).items() if k != "timestamps"}
                                for text in (ours, theirs))
            assert ours == theirs
    ctx = cli.RunContext(configs[0])
    rho = evolution.evolve_density(ctx.lindbladian, ctx.space.vacuum(), [0.0, 0.1]).states[-1]
    assert rho.tobytes().hex() == fresh["rho"]


def test_readme_task_table_matches_signatures():
    readme = (ROOT / "README.md").read_text()
    table = {}
    for names, params in re.findall(r"^\| (`[a-z-]+`(?:, `[a-z-]+`)*) \| (.*) \|$", readme, re.M):
        for name in re.findall(r"`([a-z-]+)`", names):
            table[name] = re.findall(r"`(\w+)`", params)
    assert table == {name: list(params) for name, params in cli.TASK_PARAMS.items()}
