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
Any other key or type, a value outside the bounds `schema_errors` or
_dependent_errors declare (every number in a task is finite), or a task
of the other model kind is a schema error, reported before a task runs.
The sampled tasks reduce the run seed's one sample pass, of their
largest `n_samples`.  Each task writes its findings into report.json;
tasks may carry an `expect` block whose key/value pairs replace the task's
default assertion, so contrast scenarios can assert *failure* of a property
and still exit 0; an expected number is compared within 1e-9 when it or the
report's value is a float, any other value for equality (a bool is no number).
A task raising IntegrationError, numpy's LinAlgError, a MemoryError (a
refused allocation) or a ValueError fails with an "error" {type, message}.
Exit codes: 0 all tasks passed, 2 some task failed, 1 input error (a
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
# the tasks of a finite model; of the others, all but SPACELESS_TASKS need a `space`
FINITE_TASKS = ("fd-probe", "fd-derivative")
SPACELESS_TASKS = ("kossakowski", "minimality", "bogoliubov")
# the tasks that evolve density states under the superoperator `lindbladian`
DENSITY_TASKS = ("evolve", "support", "improve")
# the times of the fd-probe task
FD_TIMES = (0.01, 0.1, 1.0)
# Matrix products per item of a count setting; the items of one task may
# take evolution.MAX_PRODUCTS in all.  A sample is applied to G0, N and G,
# and a pair of fd-probe (fd-derivative) to the propagator of each of its
# times (finite-difference steps).  An `invariant` closure, of a seed or of
# a start, applies G and every L_l to each of its at most interior_dim
# vectors (checked in _dependent_errors).
SAMPLE_PRODUCTS = 3
PAIR_PRODUCTS = {"fd-probe": len(FD_TIMES), "fd-derivative": 2}


class RunContext:
    """The model, space and operator objects shared by the tasks, each decoded or built
    once, and the run's last density evolution, lent whole to the tasks that read its state."""

    def __init__(self, config):
        self.config = config
        self.seed = int(config["seed"])
        self.kind = config["model"]["kind"]
        self.kept = None  # (occupation of its initial state, EvolutionResult)

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

    @property
    def kossakowski(self):
        return self.model.kossakowski

    @cached_property
    def lindbladian(self):
        """The Schrodinger superoperator, refused over its byte budget for an
        evolution keeping the most states any of DENSITY_TASKS keeps: its time
        grid with t = 0."""
        settings = [{**TASK_PARAMS[task["name"]], **task}
                    for task in self.config["tasks"] if task["name"] in DENSITY_TASKS]
        grids = [{0, *s["times"]} if "times" in s else {0, s["t"]} for s in settings]
        return generator.build_lindbladian(self.ops, max(map(len, grids), default=0))

    @property
    def action(self):
        return self.model.adjoint_action

    def occupation(self, label):
        """The occupation tuple of a state label: "vacuum" or a list of occupation numbers."""
        return (0,) * self.space.d if label == "vacuum" else tuple(map(int, label))

    def state_vector(self, label):
        return self.space.basis_vector(self.occupation(label))

    def density_evolution(self, label, times):
        """The `evolution.evolve_density` of the state `label` under `lindbladian` over
        the sorted distinct `times` with 0, to be read by output time: the kept evolution
        itself when it is of that state and its grid holds them, else a new one kept in its
        place, the kept one dropped first so at most one is alive (`run_scenario` drops it
        also when a task outside DENSITY_TASKS starts and when the run ends)."""
        grid = sorted({0.0, *map(float, times)})
        n = self.occupation(label)
        if not (self.kept and self.kept[0] == n and set(grid) <= set(self.kept[1].times.tolist())):
            self.kept = None  # before the new evolution keeps its states
            self.kept = n, evolution.evolve_density(
                self.lindbladian, self.space.basis_vector(n), grid)
        return self.kept[1]


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
    return report, fact_err <= 1e-12 and herm_err <= 1e-12


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
    times, dim = [float(t) for t in times], ctx.space.interior_dim()
    result = ctx.density_evolution(initial, times)
    rows = np.searchsorted(result.times, times)
    trace_err = result.trace_err[rows]
    observables = [tuple(map(int, n)) for n in observables]
    diagonal = [ctx.space.index_of[n] for n in observables]
    csv_path = out("timeseries")
    _write_csv(csv_path, ["t", "trace_err", "min_eig", "support_rank"]
               + ["p" + "".join(map(str, n)) for n in observables],
               [[f"{t:.12g}", f"{err:.6e}", f"{result.min_eig_at(t):.6e}",
                 str(result.support_rank_at(t, dim)[0])]
                + [f"{result.states[i][k, k].real:.12g}" for k in diagonal]
                for t, i, err in zip(times, rows, trace_err)])
    max_trace = float(trace_err.max())
    min_eig = float(np.min([result.min_eig_at(t) for t in times]))
    report = {
        "times": times,
        "max_trace_err": max_trace,
        "min_eig": min_eig,
        "csv": csv_path.name,
    }
    return report, max_trace <= 1e-6


def task_support(ctx, out, initial="vacuum", t=0.1):
    probe, = diagnostics.support_reports(
        ctx.density_evolution(initial, [t]), [t], ctx.space.interior_dim())
    span = commutators.support_span(ctx.ops, ctx.action, ctx.state_vector(initial), t)
    oracle = commutators.validate_action_oracle(ctx.ops, ctx.action)
    report = {
        "t": t,
        "span_rank": span.rank,
        "evolved_rank": probe.rank,
        "match": bool(span.rank == probe.rank),
        "oracle_error": float(oracle),
        "word_census": list(span.word_census),
    }
    return report, report["match"] and oracle <= 1e-9


def task_improve(ctx, out, initials=("vacuum",), times=(0.05, 0.1), plots=()):
    times, dim = sorted({float(t) for t in times}), ctx.space.interior_dim()
    reports = [report for i, label in enumerate(initials) for report in
               diagnostics.support_reports(ctx.density_evolution(label, times), times, dim, i)]
    rows = [serialize.jsonable(asdict(r)) for r in reports]
    report = {
        "interior_dim": dim,
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


def _params(fn, skip):
    """{name: default} of the parameters of `fn` after its first `skip` (REQUIRED for none)."""
    return {p.name: p.default for p in list(inspect.signature(fn).parameters.values())[skip:]}


REQUIRED = inspect.Parameter.empty
# task -> {setting: default}, the parameters after `ctx` and `out`
TASK_PARAMS = {name: _params(fn, 2) for name, fn in TASKS.items()}


def _settings(task):
    """A task's settings over its defaults, each int or float one as its default's type."""
    settings = dict(TASK_PARAMS[task["name"]])
    for key in settings.keys() & task.keys():
        kind = type(settings[key])
        settings[key] = kind(task[key]) if kind in (int, float) else task[key]
    return settings


def _rule(kind=None, low=None, high=None, strict=False, items=None, nonempty=False, names=None):
    """Rule of a JSON value of JSON Schema's type `kind` (any if None; a bool is no number,
    an integral float an integer): one of `names`, a number in [low, high] (above `low` if
    `strict`) or an array (non-empty if `nonempty`) of `items`; yields (path, message) pairs."""
    def check(value, path):
        if kind in ("integer", "number"):
            valid = serialize.is_number(value) and (
                kind == "number" or isinstance(value, int) or value.is_integer())
        else:
            valid = kind is None or isinstance(value, {"array": list, "object": dict}[kind])
        if not valid:
            yield path, f"{value!r} is not of type {kind!r}"
        elif names is not None and value not in names:
            yield path, f"{value!r} is not one of {names!r}"
        elif low is not None and (value <= low if strict else value < low):
            yield path, f"{value!r} is less than {'or equal to ' * strict}the minimum of {low}"
        elif high is not None and value > high:
            yield path, f"{value!r} is greater than the maximum of {high}"
        elif nonempty and not value:
            yield path, "[] should be non-empty"
        elif items:
            for i, entry in enumerate(value):
                yield from items(entry, [*path, i])
    return check


def _fields(params, rules, closed=True):
    """Rule of a JSON object of `params` ({key: default}, REQUIRED for none), each meeting
    its rule in `rules` or that of its default's type; other keys are unknown if `closed`."""
    def check(value, path):
        if not isinstance(value, dict):
            yield path, f"{value!r} is not of type 'object'"
            return
        yield from ((path, f"{key!r} is a required property")
                    for key, default in params.items() if default is REQUIRED and key not in value)
        for key, entry in value.items():
            if key in params:
                rule = rules.get(key) or BY_DEFAULT.get(type(params[key]), ANY)
                yield from rule(entry, [*path, key])
            elif closed:
                yield [*path, key], "unknown key"
    return check


ANY = _rule()
BY_DEFAULT = {int: _rule("integer"), float: _rule("number"), tuple: _rule("array")}
COUNT = _rule("integer", 1)
OCCUPATION = _rule("array", items=_rule("integer", 0))


def _state(value, path):
    """Rule of a state: "vacuum" or an occupation (non-negative integers)."""
    return (_rule(names=["vacuum"]) if isinstance(value, str) else OCCUPATION)(value, path)


CONFIG = _fields({"seed": REQUIRED, "model": REQUIRED, "space": None, "tasks": REQUIRED}, {
    "seed": _rule("integer", 0),
    "model": _fields({"kind": REQUIRED}, {"kind": _rule(names=list(MODELS))}, closed=False),
    "space": _fields(_params(fock.build_space, 1),
                     {"N_max": COUNT, "interior_margin": _rule("integer", 0)}),
    "tasks": _rule("array", nonempty=True, items=_fields(
        {"name": REQUIRED}, {"name": _rule(names=list(TASKS))}, closed=False))})
MODEL_FIELDS = {kind: _fields({"kind": None, **_params(fn, 0)}, {"d": COUNT, "n": COUNT})
                for kind, fn in MODELS.items()}


def _task_errors(task, path):
    """Violations of a task's settings (TASK_PARAMS): counts within the product budget
    (SAMPLE_PRODUCTS, PAIR_PRODUCTS), `n_seeds` at least 1 without a non-empty `starts`."""
    name, starts, budget = task["name"], task.get("starts"), evolution.MAX_PRODUCTS
    return _fields({"name": None, "expect": None, **TASK_PARAMS[name]}, {
        "expect": _rule("object"), "n_samples": _rule("integer", 1, budget // SAMPLE_PRODUCTS),
        "n_pairs": _rule("integer", 1, budget // PAIR_PRODUCTS.get(name, 1)),
        "n_seeds": _rule("integer", 0 if isinstance(starts, list) and starts else 1),
        "times": _rule("array", items=_rule("number", 0), nonempty=True),
        "t": _rule("number", 0, strict=True), "initial": _state,
        "initials": _rule("array", items=_state, nonempty=True),
        "starts": _rule("array", items=_state), "observables": _rule("array", items=OCCUPATION),
        "plots": _rule("array", items=_rule(names=PLOTS.get(name, []))),
        "shift_grid": _rule("array", items=_rule("number"), nonempty=True)})(task, path)


def schema_errors(config):
    """(path, message) of each violation of the top-level shape (CONFIG) or,
    once it holds, of the fields of the model's kind and of each task."""
    return list(CONFIG(config, [])) or [
        *MODEL_FIELDS[config["model"]["kind"]](config["model"], ["model"]),
        *(error for i, task in enumerate(config["tasks"])
          for error in _task_errors(task, ["tasks", i]))]


def _non_finite(value, path):
    """JSON pointers of the NaN, infinite and beyond-float-range numbers in a JSON value."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite(item, [*path, key])
    elif serialize.is_number(value) and not abs(value) <= sys.float_info.max:
        yield path


def _dependent_errors(ctx):
    """(path, message) of each schema-valid value that decoding or another value rules out."""
    config = ctx.config
    finite = ctx.kind == "finite"
    truncating = [task["name"] for task in config["tasks"]
                  if task["name"] not in FINITE_TASKS + SPACELESS_TASKS]
    if not finite and "space" not in config and truncating:
        yield ["space"], f"required by the {truncating[0]} task"
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
            n_seeds, starts = _settings(task)["n_seeds"], len(task.get("starts", ()))
            dim, m = ctx.space.interior_dim(), len(ctx.action.kraus)
            per_closure = dim * (1 + m)
            products = (n_seeds + starts) * per_closure
            if products > evolution.MAX_PRODUCTS:
                key = "n_seeds" if n_seeds * per_closure > evolution.MAX_PRODUCTS else "starts"
                yield ["tasks", i, key], (
                    f"{n_seeds} seed and {starts} start closures may take {products} "
                    f"matrix products (limit {evolution.MAX_PRODUCTS})")
            nbytes = diagnostics.closure_bytes(dim, m)
            if nbytes > generator.ASSEMBLY_MAX_BYTES:
                yield ["space", "N_max"], (
                    f"an invariant closure needs {nbytes} bytes at its peak at interior "
                    f"dimension {dim} (limit {generator.ASSEMBLY_MAX_BYTES})")
        times = task.get("times")
        if task["name"] == "evolve" and times is not None and (
                times[0] != 0 or any(b <= a for a, b in zip(times, times[1:]))):
            yield ["tasks", i, "times"], "must start at 0 and increase strictly"


def validate_config(config):
    """Schema-check a config; returns its RunContext, or raises ValueError listing JSON pointers.

    After `schema_errors`, the model, the space and, for DENSITY_TASKS, the
    superoperator are built as a run builds them (refusals at /model,
    /space/N_max) and checked against the values that rule out others.
    """
    errors = schema_errors(config) or list(_dependent_errors(ctx := RunContext(config)))
    if errors:
        raise ValueError("config schema violations:\n" + "\n".join(
            f"  /{'/'.join(map(str, path))}: {message}"
            for path, message in sorted(errors, key=lambda error: error[0])))
    return ctx


def _check_expect(report, expect):
    """Mismatches of `expect`: two numbers, one a float, agree within 1e-9, other pairs if
    equal, where at any depth a bool equals only a bool and a number only a number."""
    def typed(value):  # each value at any depth paired with whether it is a bool
        if isinstance(value, dict):
            return {key: typed(item) for key, item in value.items()}
        return [*map(typed, value)] if isinstance(value, list) else (isinstance(value, bool), value)

    def match(have, wanted):
        pair = (have, wanted)
        if all(map(serialize.is_number, pair)) and any(isinstance(x, float) for x in pair):
            return abs(have - wanted) <= 1e-9
        return typed(have) == typed(wanted)
    return [{"key": key, "expected": wanted, "actual": report.get(key)}
            for key, wanted in expect.items() if not match(report.get(key), wanted)]


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
    task_seconds = {}
    for idx, task in enumerate(config["tasks"]):
        name = task["name"]
        if name not in DENSITY_TASKS:
            ctx.kept = None  # an evolution is kept only across consecutive density tasks
        tag = f"{idx:02d}_{name}"
        t0 = time.time()
        try:
            report, default_ok = TASKS[name](
                ctx, lambda suffix: outdir / f"{tag}_{suffix}.csv", **_settings(task))
        except (evolution.IntegrationError, np.linalg.LinAlgError, MemoryError,
                ValueError) as exc:
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
        task_entries.append(entry)
        if verbose:
            print(f"[{idx}] {name}: {'PASS' if entry['passed'] else 'FAIL'}")
    ctx.kept = None
    all_passed = all(entry["passed"] for entry in task_entries)
    versions = {"gqms": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                "python": platform.python_version()}
    timestamps = {"started_unix": started, "finished_unix": time.time(),
                  "task_seconds": task_seconds}
    report = {"config": config, "seed": ctx.seed, "versions": versions, "tasks": task_entries,
              "passed": all_passed, "timestamps": timestamps}
    with open(outdir / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize.dumps(report) + "\n")
    return (0 if all_passed else 2), report


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gqms", description="Gaussian quantum Markov semigroup diagnostics at desk scale")
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
