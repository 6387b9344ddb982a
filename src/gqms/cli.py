"""Batch front door: validate a scenario config, run its tasks, emit reports.

Usage:
    gqms run --config scenario.json [--output-dir DIR] [--verbose]
    gqms validate --config scenario.json

A scenario is a single JSON object holding a seed, a model (gaussian,
two_boson or finite), truncation parameters, and an ordered task list.
A model's fields are the keyword parameters of its kind's decoder in
MODELS, a task's settings those of its `task_*` function; seeded tasks
draw from the run seed.  A parameter without a default is required, and
one with an int, float or tuple default is a JSON integer, number or
array; an int or float setting reaches its task as its default's type.
Any other key or type, a value outside the bounds TASK_VALIDATORS or
_dependent_errors declare (every number in a task is finite), or a task
of the other model kind is a schema error, reported before a task runs.
The sampled tasks reduce the run seed's one sample pass, of their
largest `n_samples`.  Each task writes its findings into report.json;
tasks may carry an `expect` block whose key/value pairs replace the
task's default assertion, so contrast scenarios can assert *failure* of
a property and still exit 0; an expected number is compared within 1e-9
when it or the report's value is a float, any other value for equality.
A task raising IntegrationError, numpy's LinAlgError or a MemoryError (a
refused allocation) fails with an "error" {type, message}.  Exit codes:
0 all tasks passed, 2 some task failed, 1 input error (a ValueError: a
schema error, an unreadable config or an unusable output directory).
report.json is byte-identical across runs with the same config and seed
except for the top-level "timestamps" field.
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
# the tasks of a finite model; the others need a bosonic model and its `space`
FINITE_TASKS = ("fd-probe", "fd-derivative")
# the tasks that evolve density states under the superoperator `lindbladian`
DENSITY_TASKS = ("evolve", "support", "improve")
# the times of the fd-probe task
FD_TIMES = (0.01, 0.1, 1.0)
# Matrix products per item of a count setting; the items of one task may
# take evolution.MAX_PRODUCTS in all.  A sample is applied to G0, N and G,
# and a pair of fd-probe (fd-derivative) to the propagator of each of its
# times (finite-difference steps).  An `invariant` seed's closure applies G
# and every L_l to each of its at most interior_dim vectors (checked in
# _dependent_errors).
SAMPLE_PRODUCTS = 3
PAIR_PRODUCTS = {"fd-probe": len(FD_TIMES), "fd-derivative": 2}
# `additionalProperties` that rejects every extra key, as `false` does, but
# reports each one at its own JSON pointer
UNKNOWN_KEY = {"not": {}}
# schema of a parameter by the type of its default; other defaults leave it untyped
JSON_TYPES = {int: {"type": "integer"}, float: {"type": "number"}, tuple: {"type": "array"}}


class RunContext:
    """The model, space and operator objects shared by the tasks, each decoded or built once."""

    def __init__(self, config):
        self.config = config
        self.seed = int(config["seed"])
        self.kind = config["model"]["kind"]

    @cached_property
    def model(self):
        return MODELS[self.kind](**{k: v for k, v in self.config["model"].items() if k != "kind"})

    @cached_property
    def samples(self):
        """The run seed's one sample pass over the largest `n_samples` of the sampled tasks."""
        counts = [s["n_samples"] for s in map(_settings, self.config["tasks"]) if "n_samples" in s]
        return diagnostics.sample_statistics(self.ops, self.seed, max(counts))

    @property
    def finite_model(self):
        """The model, under the name `perfbench/setup_probe.py` reads."""
        return self.model

    @cached_property
    def space(self):
        return fock.build_space(
            d=self.model.d, **{key: int(n) for key, n in self.config["space"].items()})

    @cached_property
    def ops(self):
        return generator.build_operators(self.model, self.space)

    @cached_property
    def kossakowski(self):
        return gm.build_kossakowski(self.model.V, self.model.U)

    @cached_property
    def lindbladian(self):
        """The Schrodinger superoperator, refused over its byte budget for an
        evolution keeping the most states any of DENSITY_TASKS keeps: its time
        grid with t = 0."""
        settings = [{**TASK_PARAMS[task["name"]], **task}
                    for task in self.config["tasks"] if task["name"] in DENSITY_TASKS]
        grids = [{0, *s["times"]} if "times" in s else {0, s["t"]} for s in settings]
        return generator.build_lindbladian(self.ops, max(map(len, grids), default=0))

    @cached_property
    def action(self):
        return commutators.adjoint_action(self.model)

    def state_vector(self, label):
        return self.space.vacuum() if label == "vacuum" else self.space.basis_vector(label)


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
    model = ctx.model
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
    model = ctx.model
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


def task_bogoliubov(ctx, out, squeeze=0.5):
    model = ctx.model
    K = ctx.kossakowski
    try:
        pair = gm.generate_bogoliubov(model.d, ctx.seed, squeeze=squeeze)
    except gm.BogoliubovError as exc:
        return {"constraint_residuals": list(exc.residuals)}, False
    transformed = gm.bogoliubov_transform(model, pair)
    K2 = gm.build_kossakowski(transformed.V, transformed.U)
    T = pair.mode_matrix()
    congruence_err = float(np.abs(K2.matrix - T @ K.matrix @ T.conj().T).max())
    preserved = K2.strictly_positive == K.strictly_positive
    report = {
        "constraint_residuals": list(pair.residuals),
        "congruence_error": congruence_err,
        "eps0_before": K.eps0,
        "eps0_after": K2.eps0,
        "positivity_preserved": bool(preserved),
    }
    return report, congruence_err <= 1e-10 and preserved


def task_number_bound(ctx, out, n_samples=1000):
    rep = diagnostics.number_operator_bound(ctx.samples, ctx.kossakowski, n_samples)
    # the first min(n, 50) samples of the bound's stream (prefix property)
    xi = np.hstack(list(diagnostics.sample_blocks(
        np.random.default_rng(ctx.seed), min(n_samples, 50),
        ctx.space.interior_dim(), ctx.space.D)))
    lhs, rhs = generator.dissipation_quadratic_identity(ctx.ops, xi)
    identity_err = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))
    report = {**serialize.jsonable(asdict(rep)), "identity_error": identity_err}
    return report, rep.violations == 0 and identity_err <= 1e-10


def task_domain_comparison(ctx, out, n_samples=500):
    rep = diagnostics.domain_comparison_constants(ctx.samples, ctx.kossakowski, n_samples)
    report = {**serialize.jsonable(asdict(rep)), "feasible": bool(rep.feasible)}
    return report, report["feasible"]


def task_evolve(ctx, out, initial="vacuum",
                times=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
                observables=()):
    psi = ctx.state_vector(initial)
    result = evolution.evolve_density(ctx.lindbladian, np.outer(psi, psi.conj()), times)
    stats, dim = result.stats, ctx.space.interior_dim()
    observables = [tuple(map(int, n)) for n in observables]
    diagonal = [ctx.space.index_of[n] for n in observables]
    csv_path = out("timeseries")
    _write_csv(csv_path, ["t", "trace_err", "min_eig", "support_rank"]
               + ["p" + "".join(map(str, n)) for n in observables],
               [[f"{t:.12g}", f"{err:.6e}", f"{eig:.6e}",
                 str(evolution.support_rank(rho, dim)[0])]
                + [f"{rho[k, k].real:.12g}" for k in diagonal]
                for t, rho, err, eig in zip(result.times, result.states,
                                              stats["trace_err"], stats["min_eig"])])
    max_trace = float(stats["trace_err"].max())
    min_eig = float(stats["min_eig"].min())
    report = {
        "times": [float(t) for t in result.times],
        "max_trace_err": max_trace,
        "min_eig": min_eig,
        "csv": csv_path.name,
    }
    return report, max_trace <= 1e-6


def task_support(ctx, out, initial="vacuum", t=0.1):
    psi = ctx.state_vector(initial)
    span = commutators.support_span(ctx.ops, ctx.action, psi, t)
    probes = diagnostics.positivity_improving_probe(ctx.lindbladian, [psi], [t], ctx.space)
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


def task_improve(ctx, out, initials=("vacuum",), times=(0.05, 0.1), plots=()):
    psis = [ctx.state_vector(s) for s in initials]
    reports = diagnostics.positivity_improving_probe(ctx.lindbladian, psis, times, ctx.space)
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


def task_invariant(ctx, out, n_seeds=3, starts=()):
    rep = diagnostics.invariant_subspace_search(
        ctx.ops, n_seeds, ctx.seed, starts=[ctx.state_vector(s) for s in starts])
    report = {**serialize.jsonable(asdict(rep)), "full_closure": bool(rep.full_closure)}
    return report, report["full_closure"]


def task_sector(ctx, out, n_samples=200, shift_grid=diagnostics.SHIFT_GRID, plots=()):
    rep = diagnostics.sector_estimate(ctx.samples, n_samples, shift_grid=shift_grid)
    report = serialize.jsonable(asdict(rep))
    for kind in plots:  # numerical-range-scatter
        _write_csv(out(kind), ["re", "im"],
                   [[f"{re:.12g}", f"{im:.12g}"] for re, im in report["z_samples"]])
    return report, True


def task_fd_probe(ctx, out, n_pairs=200):
    minimum = fd.fd_positivity_probe(ctx.model, FD_TIMES, n_pairs, ctx.seed)
    report = {"min_value": minimum, "positive": bool(minimum > 1e-12)}
    return report, report["positive"]


def task_fd_derivative(ctx, out, n_pairs=100):
    worst = fd.fd_derivative_check(ctx.model, n_pairs, ctx.seed)
    report = {"pairs": n_pairs, "max_relative_mismatch": worst}
    return report, worst <= 1e-5


# A task's config name is its function's name without `task_`, `-` for `_`.
TASKS = {name[len("task_"):].replace("_", "-"): fn
         for name, fn in list(globals().items()) if name.startswith("task_")}
# task -> {setting: default}, the parameters after `ctx` and `out`
TASK_PARAMS = {name: {p.name: p.default for p in inspect.signature(fn).parameters.values()
                      if p.name not in ("ctx", "out")} for name, fn in TASKS.items()}


def _settings(task):
    """A task's settings over its defaults, each int or float one as its default's type."""
    settings = dict(TASK_PARAMS[task["name"]])
    for key in settings.keys() & task.keys():
        kind = type(settings[key])
        settings[key] = kind(task[key]) if kind in (int, float) else task[key]
    return settings


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
# function's signature; sample and pair counts are at least 1 and within
# the product budget (SAMPLE_PRODUCTS, PAIR_PRODUCTS), `times` (of
# non-negative numbers), `initials` and a `shift_grid` list are not empty,
# `t` is positive, a state is "vacuum" or an occupation (non-negative
# integers), and the count of seeded start vectors is at least 0, or at
# least 1 without a non-empty `starts`
COUNT = {"type": "integer", "minimum": 1}
NONEMPTY = {"type": "array", "minItems": 1}
OCCUPATION = {"type": "array", "items": {"type": "integer", "minimum": 0}}
STATE = {"if": {"type": "string"}, "then": {"const": "vacuum"}, "else": OCCUPATION}
SEEDS_OR_STARTS = {
    "if": {"not": {"required": ["starts"], "properties": {"starts": NONEMPTY}}},
    "then": {"properties": {"n_seeds": {"minimum": 1}}}}
MODEL_VALIDATORS = {
    kind: jsonschema.Draft202012Validator(_signature_schema(fn, 0, {"kind": {}}, {}))
    for kind, fn in MODELS.items()}
TASK_VALIDATORS = {
    name: jsonschema.Draft202012Validator({**SEEDS_OR_STARTS, **_signature_schema(
        fn, 2, {"name": {}, "expect": {"type": "object"}},
        {"n_samples": {**COUNT, "maximum": evolution.MAX_PRODUCTS // SAMPLE_PRODUCTS},
         "n_pairs": {**COUNT, "maximum": evolution.MAX_PRODUCTS // PAIR_PRODUCTS.get(name, 1)},
         "n_seeds": {"type": "integer", "minimum": 0},
         "times": {**NONEMPTY, "items": {"type": "number", "minimum": 0}},
         "t": {"type": "number", "exclusiveMinimum": 0}, "initial": STATE,
         "initials": {**NONEMPTY, "items": STATE}, "starts": {"type": "array", "items": STATE},
         "observables": {"type": "array", "items": OCCUPATION},
         "plots": {"type": "array", "items": {"enum": PLOTS.get(name, [])}},
         "shift_grid": {**NONEMPTY, "items": {"type": "number"}}})})
    for name, fn in TASKS.items()}


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _non_finite(value, path):
    """JSON pointers of the NaN, infinite and beyond-float-range numbers in a JSON value."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite(item, [*path, key])
    elif _is_number(value) and not abs(value) <= sys.float_info.max:
        yield path


def _dependent_errors(ctx):
    """(path, message) of each schema-valid value that decoding or another value rules out."""
    config = ctx.config
    finite = ctx.kind == "finite"
    if not finite and "space" not in config:
        yield ["space"], "required for a bosonic model"
    space = config.get("space")
    if space is not None and space.get("interior_margin", 2) > space["N_max"]:
        yield ["space", "interior_margin"], "exceeds N_max, leaving no interior"
    path, basis = ["model"], None
    try:
        ctx.model
        path = ["space", "N_max"]
        basis = None if finite or space is None else ctx.space.index_of
        if basis is not None and any(t["name"] in DENSITY_TASKS for t in config["tasks"]):
            ctx.lindbladian  # its byte budget refuses here, not after a task has run
    except (TypeError, ValueError, OverflowError) as exc:
        yield path, str(exc)
    for i, task in enumerate(config["tasks"]):
        if (task["name"] in FINITE_TASKS) != finite:
            yield ["tasks", i, "name"], f"needs a {'bosonic' if finite else 'finite'} model"
        yield from ((at, "must be a finite number") for at in _non_finite(task, ["tasks", i]))
        states = {("initial",): task.get("initial", "vacuum")}
        states.update({(key, j): n for key in ("initials", "starts", "observables")
                       for j, n in enumerate(task.get(key, ()))})
        for at, n in states.items():
            if n == "vacuum" or basis is None:
                continue
            if tuple(n) not in basis:
                yield ["tasks", i, *at], f"occupation {tuple(n)} not in the truncated basis"
            elif at[0] == "starts" and sum(n) > ctx.space.N_max - ctx.space.interior_margin:
                yield ["tasks", i, *at], "start vector has no interior component"
        if task["name"] == "invariant" and basis is not None:
            n_seeds = _settings(task)["n_seeds"]
            products = n_seeds * ctx.space.interior_dim() * (1 + len(ctx.action.kraus))
            if products > evolution.MAX_PRODUCTS:
                yield ["tasks", i, "n_seeds"], (
                    f"{n_seeds} seed closures may take {products} matrix products "
                    f"(limit {evolution.MAX_PRODUCTS})")
        times = task.get("times")
        if task["name"] == "evolve" and times is not None and (
                times[0] != 0 or any(b <= a for a, b in zip(times, times[1:]))):
            yield ["tasks", i, "times"], "must start at 0 and increase strictly"


def validate_config(config):
    """Schema-check a config; returns its RunContext, or raises ValueError listing JSON pointers.

    Once the config has the top-level shape, the model and each task are
    checked against the schema of their kind or name, then the model, the
    space and, for DENSITY_TASKS, the superoperator are built as a run builds
    them (refusals at /model, /space/N_max) and checked against the values
    that rule out others (`_dependent_errors`).
    """
    errors = [(list(e.absolute_path), e) for e in VALIDATOR.iter_errors(config)]
    if not errors:
        parts = [(["model"], MODEL_VALIDATORS[config["model"]["kind"]], config["model"])]
        parts += [(["tasks", i], TASK_VALIDATORS[task["name"]], task)
                  for i, task in enumerate(config["tasks"])]
        errors = [([*at, *e.absolute_path], e)
                  for at, validator, part in parts for e in validator.iter_errors(part)]
    errors = [(path, "unknown key" if e.schema is UNKNOWN_KEY else e.message)
              for path, e in errors] or list(_dependent_errors(ctx := RunContext(config)))
    if errors:
        raise ValueError("config schema violations:\n" + "\n".join(
            f"  /{'/'.join(map(str, path))}: {message}"
            for path, message in sorted(errors, key=lambda error: error[0])))
    return ctx


def _check_expect(report, expect):
    """Mismatches of `expect`: two numbers, one a float, agree within 1e-9, other pairs if equal."""
    mismatches = []
    for key, wanted in expect.items():
        have = report.get(key)
        pair = (have, wanted)
        if all(map(_is_number, pair)) and any(isinstance(x, float) for x in pair):
            match = abs(have - wanted) <= 1e-9
        else:
            match = have == wanted
        if not match:
            mismatches.append({"key": key, "expected": wanted, "actual": have})
    return mismatches


def run_scenario(config, output_dir, verbose=False):
    """Execute a validated config; returns (exit_code, report_dict)."""
    ctx = validate_config(config)
    outdir = Path(output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot make output directory {outdir}: {exc}") from exc
    started = time.time()
    task_entries = []
    all_passed = True
    task_seconds = {}
    for idx, task in enumerate(config["tasks"]):
        name = task["name"]
        tag = f"{idx:02d}_{name}"
        t0 = time.time()
        try:
            report, default_ok = TASKS[name](
                ctx, lambda suffix: outdir / f"{tag}_{suffix}.csv", **_settings(task))
        except (evolution.IntegrationError, np.linalg.LinAlgError, MemoryError) as exc:
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
        raise ValueError(f"cannot read config {path}: {exc}") from exc


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
        output_dir = args.output_dir or Path(args.config).stem + "_out"
        code, report = run_scenario(config, output_dir, verbose=args.verbose)
        if args.verbose or code != 0:
            status = "all tasks passed" if code == 0 else "task failures"
            print(f"{status}; report at {Path(output_dir) / 'report.json'}")
        return code
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
