"""Batch front door: validate a scenario config, run its tasks, emit reports.

Usage:
    gqms run --config scenario.json [--output-dir DIR] [--verbose]
    gqms validate --config scenario.json

A scenario is a single JSON object holding a seed, a model (gaussian,
two_boson or finite), truncation parameters, and an ordered task list.
A model's fields are the keyword parameters of its kind's decoder in
MODELS, a task's settings those of its `task_*` function (a declared
`seed` is a non-negative integer, by default the run seed).  A parameter
without a default is required, and one with an int, float or tuple
default is a JSON integer, number or array (a `None` default admits null
beside its declared type); any other key or type, or a value outside the
bounds TASK_VALIDATORS declares, is a schema error, reported before a
task runs.  The sampled tasks on one seed share one sample pass.
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
import inspect
import json
import platform
import sys
import time
from dataclasses import asdict
from functools import cached_property
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__, commutators, diagnostics, evolution, fock, generator
from . import finite_dim as fd
from . import model as gm
from . import serialize

# model kind -> decoder; a kind's fields are its decoder's keyword parameters
MODELS = {
    "gaussian": gm.model_from_jsonable,
    "two_boson": gm.two_boson_from_jsonable,
    "finite": fd.fd_model_from_jsonable,
}

# t-by-psi plot kind of the `improve` task -> (row key, CSV column prefix, cell format)
PIVOTS = {
    "support-rank-vs-t": ("rank", "rank_psi", "{}"),
    "min-eig-vs-t": ("min_interior_eig", "min_eig_psi", "{:.6e}"),
}
PLOTS = {"improve": list(PIVOTS), "sector": ["numerical-range-scatter"]}
# `additionalProperties` that rejects every extra key, as `false` does, but
# reports each one at its own JSON pointer
UNKNOWN_KEY = {"not": {}}
# schema of a parameter by the type of its default; other defaults leave it untyped
JSON_TYPES = {int: {"type": "integer"}, float: {"type": "number"}, tuple: {"type": "array"}}


class InputError(Exception):
    """Configuration or model input problem (exit code 1)."""


# sampled task -> the operators its certificate reads from the seed's sample pass
SAMPLED = {"number-bound": ("G0", "N"), "domain-comparison": ("G0", "N", "G"),
           "sector": ("G",)}


class RunContext:
    """The decoded model and the lazily built space/operator objects shared by the tasks."""

    def __init__(self, config):
        self.config = config
        self.seed = int(config["seed"])
        fields = dict(config["model"])
        self.kind = fields.pop("kind")
        self.model = MODELS[self.kind](**fields)
        self._samples = {}

    def params(self, task):
        """A task's settings, with its declared `seed` defaulting to the run seed."""
        params = {k: v for k, v in task.items() if k not in ("name", "expect")}
        if "seed" in TASK_PARAMS[task["name"]]:
            params["seed"] = int(params.get("seed", self.seed))
        return params

    def samples(self, seed):
        """The one sample pass of `seed`, shared by the sampled tasks of that seed.

        Each operator is applied to as many samples as the largest
        `n_samples` among the tasks on this seed that read it.
        """
        if seed not in self._samples:
            counts = {}
            for task in self.config["tasks"]:
                params = self.params(task)
                if task["name"] not in SAMPLED or params["seed"] != seed:
                    continue
                n = int(params.get("n_samples", inspect.signature(
                    TASKS[task["name"]]).parameters["n_samples"].default))
                for name in SAMPLED[task["name"]]:
                    counts[name] = max(counts.get(name, 0), n)
            self._samples[seed] = diagnostics.sample_statistics(self.ops, seed, counts)
        return self._samples[seed]

    @property
    def gaussian_model(self):
        if self.kind == "finite":
            raise InputError(f"model kind {self.kind!r} has no Gaussian form")
        return self.model

    @property
    def finite_model(self):
        if self.kind != "finite":
            raise InputError("this task needs a finite-dimensional model")
        return self.model

    @cached_property
    def space(self):
        if "space" not in self.config:
            raise InputError("gaussian tasks need a 'space' section")
        entry = self.config["space"]
        return fock.build_space(
            d=self.gaussian_model.d,
            N_max=int(entry["N_max"]),
            interior_margin=int(entry.get("interior_margin", 2)),
        )

    @cached_property
    def ops(self):
        return generator.build_operators(self.gaussian_model, self.space)

    @cached_property
    def kossakowski(self):
        return gm.build_kossakowski(self.gaussian_model.V, self.gaussian_model.U)

    @cached_property
    def lindbladian(self):
        return generator.build_lindbladian(self.ops, picture="schrodinger")

    @cached_property
    def action(self):
        return commutators.adjoint_action(self.gaussian_model)

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


def _write_pivot(rows, kind, path):
    """Write the t-by-psi table of one PIVOTS column of `improve` report rows."""
    key, prefix, cell = PIVOTS[kind]
    times = sorted({row["t"] for row in rows})
    psis = sorted({row["psi_index"] for row in rows})
    table = {(row["psi_index"], row["t"]): row[key] for row in rows}
    _write_csv(path, ["t"] + [f"{prefix}{i}" for i in psis],
               [[f"{t:.12g}"] + [cell.format(table[(i, t)]) for i in psis] for t in times])


# Each task_* takes the run context, `out` (CSV suffix -> path in the output
# directory) and its settings as keyword parameters, and returns
# (report dict with JSON-native values, default verdict).

def task_kossakowski(ctx, out):
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


def task_minimality(ctx, out):
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


def task_bogoliubov(ctx, out, seed=None, rotation=1.0, squeeze=0.5):
    model = ctx.gaussian_model
    K = ctx.kossakowski
    pair = gm.generate_bogoliubov(model.d, seed, rotation=rotation, squeeze=squeeze)
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


def task_number_bound(ctx, out, n_samples=1000, seed=None):
    n_samples = int(n_samples)
    rep = diagnostics.number_operator_bound(ctx.samples(seed), ctx.kossakowski, n_samples)
    # the first min(n, 50) samples of the bound's stream (prefix property)
    xi = np.hstack(list(diagnostics.sample_blocks(
        np.random.default_rng(seed), min(n_samples, 50),
        ctx.space.interior_dim(), ctx.space.D)))
    lhs, rhs = generator.dissipation_quadratic_identity(ctx.ops, xi)
    identity_err = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))
    report = {
        "samples": rep.samples,
        "min_slack": rep.min_slack,
        "violations": rep.violations,
        "identity_error": identity_err,
    }
    ok = rep.violations == 0 and identity_err <= 1e-10
    return report, ok


def task_domain_comparison(ctx, out, n_samples=500, seed=None, c_grid=None):
    rep = diagnostics.domain_comparison_constants(
        ctx.samples(seed), ctx.kossakowski, int(n_samples), c_grid=c_grid)
    report = {**serialize.jsonable(asdict(rep)), "feasible": bool(rep.feasible)}
    return report, report["feasible"]


def task_evolve(ctx, out, initial="vacuum",
                times=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
                method="auto", h=1e-3, observables=(), trace_tol=1e-6):
    psi = ctx.state_vector(initial)
    result = evolution.evolve_density(
        ctx.lindbladian, evolution.DensityMatrix.pure(psi), times,
        method=method, h=float(h))
    csv_path = out("timeseries")
    evolution.export_timeseries_csv(
        result, csv_path, space=ctx.space, observables=observables)
    max_trace = float(result.stats["trace_err"].max())
    min_eig = float(result.stats["min_eig"].min())
    report = {
        "times": [float(t) for t in result.times],
        "max_trace_err": max_trace,
        "min_eig": min_eig,
        "csv": csv_path.name,
    }
    ok = max_trace <= float(trace_tol)
    return report, ok


def task_support(ctx, out, initial="vacuum", t=0.1, max_order=2, max_word=None,
                 rank_rtol=1e-8):
    psi = ctx.state_vector(initial)
    t = float(t)
    span = commutators.support_span(
        ctx.ops, ctx.action, psi, t, max_order=int(max_order), max_word=max_word)
    probes = diagnostics.positivity_improving_probe(
        ctx.lindbladian, [psi], [t], ctx.space, rank_rtol=float(rank_rtol))
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


def task_improve(ctx, out, initials=("vacuum",), times=(0.05, 0.1), rank_rtol=1e-8,
                 plots=()):
    psis = [ctx.state_vector(s) for s in initials]
    reports = diagnostics.positivity_improving_probe(
        ctx.lindbladian, psis, times, ctx.space, rank_rtol=float(rank_rtol))
    rows = [serialize.jsonable(asdict(r)) for r in reports]
    report = {
        "interior_dim": ctx.space.interior_dim(),
        "reports": rows,
        "all_full": bool(all(r.full for r in reports)),
    }
    _write_csv(
        out("improve"),
        ["psi_index", "t", "rank", "min_interior_eig", "full"],
        [[str(r["psi_index"]), f"{r['t']:.12g}", str(r["rank"]),
          f"{r['min_interior_eig']:.6e}", str(r["full"]).lower()] for r in rows],
    )
    for kind in plots:
        _write_pivot(rows, kind, out(kind))
    return report, report["all_full"]


def task_invariant(ctx, out, n_seeds=3, seed=None, starts=()):
    starts = [ctx.state_vector(s) for s in starts]
    rep = diagnostics.invariant_subspace_search(
        ctx.ops, int(n_seeds), seed, starts=starts or None)
    report = {
        "seed_count": rep.seed_count,
        "min_closure_dim": rep.min_closure_dim,
        "interior_dim": rep.interior_dim,
        "closure_dims": list(rep.closure_dims),
        "full_closure": bool(rep.full_closure),
    }
    return report, bool(rep.full_closure)


def task_sector(ctx, out, n_samples=200, seed=None, shift_grid=None, plots=(),
                theta_max=None):
    rep = diagnostics.sector_estimate(
        ctx.samples(seed), int(n_samples), shift_grid=shift_grid)
    report = serialize.jsonable(asdict(rep))
    for kind in plots:  # numerical-range-scatter
        _write_csv(out(kind), ["re", "im"],
                   [[f"{re:.12g}", f"{im:.12g}"] for re, im in report["z_samples"]])
    ok = theta_max is None or rep.theta_hat <= float(theta_max)
    return report, ok


def task_fd_probe(ctx, out, t_grid=(0.01, 0.1, 1.0), n_pairs=200, seed=None):
    minimum = fd.fd_positivity_probe(ctx.finite_model, t_grid, int(n_pairs), seed)
    report = {"min_value": minimum, "positive": bool(minimum > 1e-12)}
    return report, report["positive"]


def task_fd_derivative(ctx, out, n_pairs=100, seed=None):
    n_pairs = int(n_pairs)
    worst = fd.fd_derivative_check(ctx.finite_model, n_pairs, seed)
    report = {"pairs": n_pairs, "max_relative_mismatch": worst}
    return report, worst <= 1e-5


# A task's config name is its function's name without `task_`, `-` for `_`.
TASKS = {name[len("task_"):].replace("_", "-"): fn
         for name, fn in list(globals().items()) if name.startswith("task_")}
TASK_PARAMS = {name: list(inspect.signature(fn).parameters)[2:]
               for name, fn in TASKS.items()}


def _closed(required, properties):
    """Schema of an object with the `required` keys and no key beyond `properties`."""
    return {"type": "object", "required": required, "properties": properties,
            "additionalProperties": UNKNOWN_KEY}


def _signature_schema(fn, skip, keys, params):
    """Closed schema of `keys` and of the parameters of `fn` after its first `skip`.

    A parameter without a default is required; one named in `params` takes
    that schema, any other the JSON_TYPES entry of its default's type.
    """
    signature = list(inspect.signature(fn).parameters.values())[skip:]
    return _closed([p.name for p in signature if p.default is p.empty], {
        **keys, **{p.name: params.get(p.name, JSON_TYPES.get(type(p.default), {}))
                   for p in signature}})


SEED = {"type": "integer", "minimum": 0}
CONFIG_SCHEMA = _closed(["seed", "model", "tasks"], {
    "seed": SEED,
    "output_dir": {"type": "string"},
    "model": {"type": "object", "required": ["kind"],
              "properties": {"kind": {"enum": list(MODELS)}}},
    "space": _closed(["N_max"], {"N_max": {"type": "integer", "minimum": 1},
                                 "interior_margin": {"type": "integer", "minimum": 0}}),
    "tasks": {"type": "array", "minItems": 1,
              "items": {"type": "object", "required": ["name"],
                        "properties": {"name": {"enum": list(TASKS)}}}},
})
VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
# validators of the model by kind and of a task by name, each closed to its
# function's signature; a task's `seed` is a non-negative integer, like the
# top-level one, sample and pair counts are at least 1, the rk4 step `h` is
# positive, a parameter whose default is None takes its type or null, and
# `rank_rtol`, a threshold relative to the largest eigenvalue, lies in (0, 1)
NUMBERS_OR_NULL = {"type": ["array", "null"], "items": {"type": "number"}}
COUNT = {"type": "integer", "minimum": 1}
MODEL_VALIDATORS = {
    kind: jsonschema.Draft202012Validator(_signature_schema(fn, 0, {"kind": {}}, {}))
    for kind, fn in MODELS.items()}
TASK_VALIDATORS = {
    name: jsonschema.Draft202012Validator(_signature_schema(
        fn, 2, {"name": {}, "expect": {"type": "object"}},
        {"seed": SEED, "n_samples": COUNT, "n_pairs": COUNT,
         "h": {"type": "number", "exclusiveMinimum": 0},
         "plots": {"type": "array", "items": {"enum": PLOTS.get(name, [])}},
         "c_grid": NUMBERS_OR_NULL, "shift_grid": NUMBERS_OR_NULL,
         "max_word": {"type": ["integer", "null"]},
         "theta_max": {"type": ["number", "null"]},
         "rank_rtol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}}))
    for name, fn in TASKS.items()}


def validate_config(config):
    """Schema-check a config dict; raises InputError listing JSON pointers.

    Once the config has the top-level shape, the model and each task are
    checked against the schema of their kind or name.
    """
    errors = [(list(e.absolute_path), e) for e in VALIDATOR.iter_errors(config)]
    if not errors:
        parts = [(["model"], MODEL_VALIDATORS[config["model"]["kind"]], config["model"])]
        parts += [(["tasks", i], TASK_VALIDATORS[task["name"]], task)
                  for i, task in enumerate(config["tasks"])]
        errors = [([*at, *e.absolute_path], e)
                  for at, validator, part in parts for e in validator.iter_errors(part)]
    if errors:
        lines = []
        for path, e in sorted(errors, key=lambda error: error[0]):
            pointer = "/" + "/".join(str(p) for p in path)
            message = "unknown key" if e.schema is UNKNOWN_KEY else e.message
            lines.append(f"  {pointer}: {message}")
        raise InputError("config schema violations:\n" + "\n".join(lines))


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
        params = ctx.params(task)
        tag = f"{idx:02d}_{name}"
        t0 = time.time()
        try:
            report, default_ok = TASKS[name](
                ctx, lambda suffix: outdir / f"{tag}_{suffix}.csv", **params)
        except (evolution.IntegrationError, np.linalg.LinAlgError) as exc:
            report = None
            error = {"type": type(exc).__name__, "message": str(exc)}
        task_seconds[tag] = time.time() - t0
        expect = task.get("expect")
        if report is None:
            entry = {"name": name, "error": error, "passed": False}
        elif expect is None:
            entry = {"name": name, "report": report, "passed": bool(default_ok)}
        else:
            mismatches = _check_expect(report, expect)
            entry = {"name": name, "report": report, "passed": not mismatches,
                     "expect": expect, "expect_mismatches": mismatches}
        all_passed = all_passed and entry["passed"]
        task_entries.append(entry)
        if verbose:
            print(f"[{idx}] {name}: {'PASS' if entry['passed'] else 'FAIL'}")
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
        validate_config(config)
        if args.command == "validate":
            print("config ok")
            return 0
        output_dir = args.output_dir or config.get("output_dir") \
            or Path(args.config).stem + "_out"
        code, report = run_scenario(config, output_dir, verbose=args.verbose)
        if args.verbose or code != 0:
            status = "all tasks passed" if code == 0 else "task failures"
            print(f"{status}; report at {Path(output_dir) / 'report.json'}")
        return code
    except (InputError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
