"""Batch front door: validate a scenario config, run its tasks, emit reports.

Usage:
    gqms run --config scenario.json [--output-dir DIR] [--verbose]
    gqms validate --config scenario.json

A scenario is a single JSON object holding a seed, a model (gaussian,
two_boson or finite), truncation parameters, and an ordered task list.
Each task writes its findings into report.json; tasks may carry an
`expect` block whose key/value pairs replace the task's default
assertion, so contrast scenarios can assert *failure* of a property and
still exit 0.  A task raising IntegrationError or numpy's LinAlgError
fails with an "error" {type, message}.  Exit codes: 0 all tasks passed,
2 some task failed, 1 input or schema error.  report.json is
byte-identical across runs with the same config and seed except for the
top-level "timestamps" field.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__, commutators, diagnostics, evolution, fock, generator
from . import finite_dim as fd
from . import model as gm
from . import serialize

TASK_NAMES = [
    "kossakowski", "minimality", "bogoliubov", "number-bound",
    "domain-comparison", "evolve", "support", "improve", "invariant",
    "sector", "fd-probe", "fd-derivative",
]

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["seed", "model", "tasks"],
    "properties": {
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
        "model": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["gaussian", "two_boson", "finite"]},
            },
        },
        "space": {
            "type": "object",
            "required": ["N_max"],
            "properties": {
                "N_max": {"type": "integer", "minimum": 1},
                "interior_margin": {"type": "integer", "minimum": 0},
                "dimension_cap": {"type": "integer", "minimum": 1},
            },
        },
        "tasks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name"],
                "properties": {
                    "name": {"enum": TASK_NAMES},
                    "expect": {"type": "object"},
                },
            },
        },
    },
}


class InputError(Exception):
    """Configuration or model input problem (exit code 1)."""


def validate_config(config):
    """Schema-check a config dict; raises InputError listing JSON pointers."""
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for e in errors:
            pointer = "/" + "/".join(str(p) for p in e.absolute_path)
            lines.append(f"  {pointer}: {e.message}")
        raise InputError("config schema violations:\n" + "\n".join(lines))


class RunContext:
    """Lazily built model/space/operator objects shared by the tasks."""

    def __init__(self, config):
        self.config = config
        self.seed = int(config["seed"])
        self._cache = {}

    @property
    def kind(self):
        return self.config["model"]["kind"]

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def gaussian_model(self):
        def build():
            entry = self.config["model"]
            if entry["kind"] == "gaussian":
                return gm.model_from_jsonable(entry)
            if entry["kind"] == "two_boson":
                params = gm.TwoBosonParams(
                    gamma_minus=serialize.pairs_to_matrix(entry["gamma_minus"]),
                    gamma_plus=serialize.pairs_to_matrix(entry["gamma_plus"]),
                    Omega=serialize.pairs_to_matrix(entry["omega"])
                    if "omega" in entry else np.zeros((2, 2)),
                )
                return gm.two_boson_model(params)
            raise InputError(f"model kind {entry['kind']!r} has no Gaussian form")
        return self._get("gaussian_model", build)

    @property
    def finite_model(self):
        def build():
            entry = self.config["model"]
            if entry["kind"] != "finite":
                raise InputError("this task needs a finite-dimensional model")
            return fd.fd_model_from_jsonable(entry)
        return self._get("finite_model", build)

    @property
    def space(self):
        def build():
            if "space" not in self.config:
                raise InputError("gaussian tasks need a 'space' section")
            entry = self.config["space"]
            return fock.build_space(
                d=self.gaussian_model.d,
                N_max=int(entry["N_max"]),
                interior_margin=int(entry.get("interior_margin", 2)),
                dimension_cap=int(entry.get("dimension_cap", fock.DEFAULT_DIMENSION_CAP)),
            )
        return self._get("space", build)

    @property
    def ops(self):
        return self._get("ops", lambda: generator.build_operators(
            self.gaussian_model, self.space))

    @property
    def kossakowski(self):
        return self._get("kossakowski", lambda: gm.build_kossakowski(
            self.gaussian_model.V, self.gaussian_model.U))

    @property
    def lindbladian(self):
        return self._get("lindbladian", lambda: generator.build_lindbladian(
            self.ops, picture="schrodinger"))

    @property
    def action(self):
        return self._get("action", lambda: commutators.adjoint_action(
            self.gaussian_model))

    def state_vector(self, label):
        if label == "vacuum":
            return self.space.vacuum()
        if isinstance(label, list):
            return self.space.basis_vector(label)
        raise InputError(f"cannot parse initial state {label!r}")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_plotdata(report, kind, path):
    """Write plot-ready CSV extracted from a task report dict."""
    if kind == "support-rank-vs-t":
        times = sorted({row["t"] for row in report["reports"]})
        psis = sorted({row["psi_index"] for row in report["reports"]})
        header = ["t"] + [f"rank_psi{i}" for i in psis]
        table = {(row["psi_index"], row["t"]): row["rank"] for row in report["reports"]}
        rows = [[f"{t:.12g}"] + [str(table[(i, t)]) for i in psis] for t in times]
    elif kind == "min-eig-vs-t":
        times = sorted({row["t"] for row in report["reports"]})
        psis = sorted({row["psi_index"] for row in report["reports"]})
        header = ["t"] + [f"min_eig_psi{i}" for i in psis]
        table = {(row["psi_index"], row["t"]): row["min_interior_eig"]
                 for row in report["reports"]}
        rows = [[f"{t:.12g}"] + [f"{table[(i, t)]:.6e}" for i in psis] for t in times]
    elif kind == "numerical-range-scatter":
        header = ["re", "im"]
        rows = [[f"{z[0]:.12g}", f"{z[1]:.12g}"] for z in report["z_samples"]]
    else:
        raise InputError(f"unknown plot kind {kind!r}")
    _write_csv(path, header, rows)


def task_kossakowski(ctx, params, outdir, tag):
    model = ctx.gaussian_model
    K = ctx.kossakowski
    B = gm.kossakowski_factor(model.V, model.U)
    fact_err = float(np.abs(K.matrix - B @ B.conj().T).max())
    herm_err = float(np.abs(K.matrix - K.matrix.conj().T).max())
    report = {
        "eps0": K.eps0,
        "rank": K.rank,
        "m": model.m,
        "strictly_positive": K.strictly_positive,
        "factorization_error": fact_err,
        "hermiticity_error": herm_err,
        "matrix": serialize.complex_to_pairs(K.matrix),
    }
    ok = fact_err <= 1e-12 and herm_err <= 1e-12
    return report, ok


def task_minimality(ctx, params, outdir, tag):
    model = ctx.gaussian_model
    K = ctx.kossakowski
    minimal = gm.check_minimality(model.V, model.U)
    consistent = minimal == (K.rank == model.m)
    report = {
        "minimal": bool(minimal),
        "rank": K.rank,
        "m": model.m,
        "rank_equals_m": bool(K.rank == model.m),
        "consistent": bool(consistent),
    }
    return report, bool(consistent)


def task_bogoliubov(ctx, params, outdir, tag):
    model = ctx.gaussian_model
    K = ctx.kossakowski
    pair = gm.generate_bogoliubov(
        model.d, params.get("seed", ctx.seed),
        rotation=params.get("rotation", 1.0),
        squeeze=params.get("squeeze", 0.5),
    )
    E, F = pair.E, pair.F
    res1 = float(np.abs(E.conj().T @ E - F.conj().T @ F - np.eye(model.d)).max())
    res2 = float(np.abs(E.T @ F - F.T @ E).max())
    transformed = gm.bogoliubov_transform(model, pair)
    K2 = gm.build_kossakowski(transformed.V, transformed.U)
    T = pair.mode_matrix()
    congruence_err = float(np.abs(K2.matrix - T @ K.matrix @ T.conj().T).max())
    preserved = K2.strictly_positive == K.strictly_positive
    report = {
        "constraint_residuals": [res1, res2],
        "congruence_error": congruence_err,
        "eps0_before": K.eps0,
        "eps0_after": K2.eps0,
        "positivity_preserved": bool(preserved),
    }
    ok = max(res1, res2) <= 1e-10 and congruence_err <= 1e-10 and preserved
    return report, ok


def task_number_bound(ctx, params, outdir, tag):
    n_samples = int(params.get("n_samples", 1000))
    seed = params.get("seed", ctx.seed)
    rep = diagnostics.number_operator_bound(
        ctx.ops, ctx.kossakowski, n_samples, seed)
    # the first min(n, 50) samples of the bound's stream (prefix property)
    xi = np.hstack(list(diagnostics.sample_blocks(
        np.random.default_rng(seed), min(n_samples, 50),
        ctx.space.interior_dim(), ctx.space.D)))
    lhs, rhs = generator.dissipation_quadratic_identity(ctx.ops, ctx.kossakowski, xi)
    identity_err = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))
    report = {
        "samples": rep.samples,
        "min_slack": rep.min_slack,
        "violations": rep.violations,
        "identity_error": identity_err,
    }
    ok = rep.violations == 0 and identity_err <= 1e-10
    return report, ok


def task_domain_comparison(ctx, params, outdir, tag):
    rep = diagnostics.domain_comparison_constants(
        ctx.ops, ctx.kossakowski,
        int(params.get("n_samples", 500)),
        params.get("seed", ctx.seed),
        c_grid=params.get("c_grid"),
    )
    report = {
        "samples": rep.samples,
        "c0_hat": rep.c0_hat,
        "c_hat": rep.c_hat,
        "max_required_c0": rep.max_required_c0,
        "max_required_c": rep.max_required_c,
        "feasible": bool(rep.feasible),
    }
    return report, bool(rep.feasible)


def task_evolve(ctx, params, outdir, tag):
    psi = ctx.state_vector(params.get("initial", "vacuum"))
    times = params.get("times", [round(0.1 * k, 10) for k in range(11)])
    result = evolution.evolve_density(
        ctx.lindbladian, evolution.DensityMatrix.pure(psi), times,
        method=params.get("method", "auto"), h=float(params.get("h", 1e-3)))
    csv_path = outdir / f"{tag}_timeseries.csv"
    evolution.export_timeseries_csv(
        result, csv_path, space=ctx.space,
        observables=params.get("observables", []))
    max_trace = float(result.stats["trace_err"].max())
    min_eig = float(result.stats["min_eig"].min())
    report = {
        "times": [float(t) for t in result.times],
        "max_trace_err": max_trace,
        "min_eig": min_eig,
        "csv": csv_path.name,
    }
    ok = max_trace <= float(params.get("trace_tol", 1e-6))
    return report, ok


def task_support(ctx, params, outdir, tag):
    psi = ctx.state_vector(params.get("initial", "vacuum"))
    t = float(params.get("t", 0.1))
    span = commutators.support_span(
        ctx.ops, ctx.action, psi, t,
        max_order=int(params.get("max_order", 2)),
        max_word=params.get("max_word"),
    )
    probes = diagnostics.positivity_improving_probe(
        ctx.lindbladian, [psi], [t], ctx.space,
        rank_rtol=float(params.get("rank_rtol", 1e-8)))
    oracle = commutators.validate_action_oracle(ctx.ops, ctx.action)
    report = {
        "t": t,
        "span_rank": span.rank,
        "evolved_rank": probes[0].rank,
        "match": bool(span.rank == probes[0].rank),
        "oracle_error": float(oracle),
        "word_census": list(span.word_census),
    }
    ok = report["match"] and oracle <= 1e-9
    return report, ok


def task_improve(ctx, params, outdir, tag):
    initials = params.get("initials", ["vacuum"])
    psis = [ctx.state_vector(s) for s in initials]
    times = params.get("times", [0.05, 0.1])
    reports = diagnostics.positivity_improving_probe(
        ctx.lindbladian, psis, times, ctx.space,
        rank_rtol=float(params.get("rank_rtol", 1e-8)))
    rows = [{
        "psi_index": r.psi_index,
        "t": r.t,
        "rank": r.rank,
        "min_interior_eig": r.min_interior_eig,
        "full": bool(r.full),
    } for r in reports]
    report = {
        "interior_dim": ctx.space.interior_dim(),
        "reports": rows,
        "all_full": bool(all(r.full for r in reports)),
    }
    _write_csv(
        outdir / f"{tag}_improve.csv",
        ["psi_index", "t", "rank", "min_interior_eig", "full"],
        [[str(r["psi_index"]), f"{r['t']:.12g}", str(r["rank"]),
          f"{r['min_interior_eig']:.6e}", str(r["full"]).lower()] for r in rows],
    )
    for kind in params.get("plots", []):
        emit_plotdata(report, kind, outdir / f"{tag}_{kind}.csv")
    return report, report["all_full"]


def task_invariant(ctx, params, outdir, tag):
    starts = [ctx.state_vector(s) for s in params.get("starts", [])]
    rep = diagnostics.invariant_subspace_search(
        ctx.ops, int(params.get("n_seeds", 3)),
        params.get("seed", ctx.seed), starts=starts or None)
    report = {
        "seed_count": rep.seed_count,
        "min_closure_dim": rep.min_closure_dim,
        "interior_dim": rep.interior_dim,
        "closure_dims": list(rep.closure_dims),
        "full_closure": bool(rep.full_closure),
    }
    return report, bool(rep.full_closure)


def task_sector(ctx, params, outdir, tag):
    rep = diagnostics.sector_estimate(
        ctx.ops, int(params.get("n_samples", 200)),
        params.get("seed", ctx.seed),
        shift_grid=params.get("shift_grid"),
    )
    report = {
        "theta_hat": rep.theta_hat,
        "shift": rep.shift,
        "per_shift": [[w, th] for w, th in rep.per_shift],
        "z_samples": [[float(z.real), float(z.imag)] for z in rep.z_samples],
    }
    for kind in params.get("plots", []):
        emit_plotdata(report, kind, outdir / f"{tag}_{kind}.csv")
    ok = True
    if "theta_max" in params:
        ok = rep.theta_hat <= float(params["theta_max"])
    return report, ok


def task_fd_probe(ctx, params, outdir, tag):
    minimum = fd.fd_positivity_probe(
        ctx.finite_model,
        params.get("t_grid", [0.01, 0.1, 1.0]),
        int(params.get("n_pairs", 200)),
        params.get("seed", ctx.seed),
    )
    report = {"min_value": minimum, "positive": bool(minimum > 1e-12)}
    return report, report["positive"]


def task_fd_derivative(ctx, params, outdir, tag):
    n_pairs = int(params.get("n_pairs", 100))
    worst = fd.fd_derivative_check(
        ctx.finite_model, n_pairs, params.get("seed", ctx.seed))
    report = {"pairs": n_pairs, "max_relative_mismatch": worst}
    return report, worst <= 1e-5


TASKS = {
    "kossakowski": task_kossakowski,
    "minimality": task_minimality,
    "bogoliubov": task_bogoliubov,
    "number-bound": task_number_bound,
    "domain-comparison": task_domain_comparison,
    "evolve": task_evolve,
    "support": task_support,
    "improve": task_improve,
    "invariant": task_invariant,
    "sector": task_sector,
    "fd-probe": task_fd_probe,
    "fd-derivative": task_fd_derivative,
}


def _check_expect(report, expect):
    mismatches = []
    for key, wanted in expect.items():
        have = report.get(key)
        if isinstance(wanted, float) or isinstance(have, float):
            match = have is not None and abs(float(have) - float(wanted)) <= 1e-9
        else:
            match = have == wanted
        if not match:
            mismatches.append({"key": key, "expected": wanted, "actual": have})
    return mismatches


def run_scenario(config, output_dir, verbose=False):
    """Execute a validated config; returns (exit_code, report_dict)."""
    validate_config(config)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(config)
    started = time.time()
    task_entries = []
    all_passed = True
    task_seconds = {}
    for idx, task in enumerate(config["tasks"]):
        name = task["name"]
        params = {k: v for k, v in task.items() if k not in ("name", "expect")}
        tag = f"{idx:02d}_{name}"
        t0 = time.time()
        try:
            report, default_ok = TASKS[name](ctx, params, outdir, tag)
        except (evolution.IntegrationError, np.linalg.LinAlgError) as exc:
            report = None
            error = {"type": type(exc).__name__, "message": str(exc)}
        task_seconds[tag] = time.time() - t0
        expect = task.get("expect")
        if report is None:
            passed = False
            entry = {"name": name, "error": error, "passed": passed}
        elif expect is not None:
            mismatches = _check_expect(report, expect)
            passed = not mismatches
            entry = {"name": name, "report": report, "passed": passed,
                     "expect": expect, "expect_mismatches": mismatches}
        else:
            passed = bool(default_ok)
            entry = {"name": name, "report": report, "passed": passed}
        all_passed = all_passed and passed
        task_entries.append(entry)
        if verbose:
            print(f"[{idx}] {name}: {'PASS' if passed else 'FAIL'}")
    report = {
        "config": config,
        "seed": ctx.seed,
        "versions": {
            "gqms": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "tasks": task_entries,
        "passed": all_passed,
        "timestamps": {
            "started_unix": started,
            "finished_unix": time.time(),
            "task_seconds": task_seconds,
        },
    }
    with open(outdir / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(serialize.jsonable(report), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return (0 if all_passed else 2), report


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gqms",
        description="Gaussian quantum Markov semigroup diagnostics at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--verbose", action="store_true")
    p_val = sub.add_parser("validate", help="schema-check a scenario config")
    p_val.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        if args.command == "validate":
            validate_config(config)
            print("config ok")
            return 0
        output_dir = args.output_dir or config.get("output_dir") \
            or Path(args.config).stem + "_out"
        code, report = run_scenario(config, output_dir, verbose=args.verbose)
        if args.verbose or code != 0:
            status = "all tasks passed" if code == 0 else "task failures"
            print(f"{status}; report at {Path(output_dir) / 'report.json'}")
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, fock.DimensionCapError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
