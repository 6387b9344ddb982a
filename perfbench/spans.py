"""In-memory span tracer that wraps gqms public functions from outside the package.

`Tracer.install()` replaces module attributes (and `scipy.linalg.expm`,
which the package calls as `scipy.linalg.expm`) with wrappers that record
a span per call: name, layer, parent span, start, end, whether it raised,
and a few computed counts taken from the arguments and the result.
Calls inside the package resolve these names through the module at call
time, so nested calls are traced too.  A direct recursive call
(`serialize.jsonable`) is folded into its outermost span.

`pass_metrics()` turns the spans of one pass into the per-layer metrics
named in BENCHMARK.json.  Self time is a span's duration minus the time
covered by its child spans.  Sizes and bytes are computed from array
shapes and file sizes, not measured.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc

import scipy.linalg

MB = float(2 ** 20)

# layer -> (module, wrapped public function names; None = every public function)
WRAPPED = {
    "fock": ("gqms.fock", ["build_space", "build_ladders"]),
    "model": ("gqms.model", None),
    "generator": ("gqms.generator", ["build_operators", "build_lindbladian"]),
    "evolution": ("gqms.evolution", ["evolve_density", "evolve_vector", "support_rank"]),
    "commutators": ("gqms.commutators", ["support_span", "validate_action_oracle"]),
    "diagnostics": ("gqms.diagnostics", [
        "invariant_subspace_search", "positivity_improving_probe",
        "number_operator_bound", "domain_comparison_constants", "sector_estimate"]),
    "finite_dim": ("gqms.finite_dim", [
        "build_fd_generators", "initial_derivative", "fd_positivity_probe"]),
    "cli": ("gqms.cli", ["run_scenario"]),
    "serialize": ("gqms.serialize", ["jsonable"]),
}
LAYERS = list(WRAPPED) + ["kernel"]
SAMPLERS = ("diagnostics.number_operator_bound", "diagnostics.domain_comparison_constants",
            "diagnostics.sector_estimate")

NAME, LAYER, PARENT, START, END, ERROR, INFO, PASS = range(8)


def _space_info(space, *args, **kwargs):
    return {"D": space.D, "interior_dim": space.interior_dim()}


def _lindbladian_info(superop, *args, **kwargs):
    m = superop.matrix
    return {"nnz": int(m.nnz),
            "bytes": int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)}


def _states_info(result, *args, **kwargs):
    return {"states": len(result.states)}


def _support_span_info(span, ops, action, *args, **kwargs):
    from gqms import commutators
    max_order = kwargs.get("max_order", args[2] if len(args) > 2 else 2)
    forms = sum(not commutators.iterated_commutator(action, ell, order).is_zero()
                for ell in range(len(action.kraus)) for order in range(max_order + 1))
    census = list(span.word_census)
    frontiers = [1] + census[:-1]
    return {"rank": span.rank, "added": sum(census),
            "candidates": forms * sum(frontiers[:len(census)])}


def _closure_info(report, *args, **kwargs):
    return {"closure_dim_sum": int(sum(report.closure_dims))}


def _samples_info(report, *args, **kwargs):
    samples = getattr(report, "samples", None)
    return {"samples": int(samples if samples is not None else len(report.z_samples))}


def _expm_info(result, A, *args, **kwargs):
    return {"rows": int(A.shape[0])}


INFO_HOOKS = {
    "fock.build_space": _space_info,
    "generator.build_lindbladian": _lindbladian_info,
    "evolution.evolve_density": _states_info,
    "evolution.evolve_vector": _states_info,
    "commutators.support_span": _support_span_info,
    "diagnostics.invariant_subspace_search": _closure_info,
    "diagnostics.number_operator_bound": _samples_info,
    "diagnostics.domain_comparison_constants": _samples_info,
    "diagnostics.sector_estimate": _samples_info,
    "kernel.expm": _expm_info,
}
# tracemalloc runs only inside these spans; numpy reports its buffers to it.
PEAK_MEMORY = {"generator.build_lindbladian"}


class Tracer:
    """Records spans while installed; `spans` holds every span of the run."""

    def __init__(self):
        self.spans = []
        self.keys = set()
        self.pass_id = 0
        self._stack = []
        self._patches = []

    def _wrap(self, key, layer, fn):
        spans, stack = self.spans, self._stack
        info_hook = INFO_HOOKS.get(key)
        peak = key in PEAK_MEMORY

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == key:
                return fn(*args, **kwargs)
            rec = [key, layer, stack[-1] if stack else None, 0.0, 0.0, False, None,
                   self.pass_id]
            stack.append(len(spans))
            spans.append(rec)
            if peak:
                tracemalloc.start()
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                if peak:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            info = info_hook(result, *args, **kwargs) if info_hook else None
            if peak:
                info = dict(info or {}, peak_bytes=peak_bytes)
            rec[INFO] = info
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, key, layer):
        original = getattr(owner, attr)
        self.keys.add(key)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(key, layer, original))

    def install(self):
        for layer, (module_name, names) in WRAPPED.items():
            module = importlib.import_module(module_name)
            if names is None:
                names = [n for n, obj in vars(module).items()
                         if inspect.isfunction(obj) and obj.__module__ == module_name
                         and not n.startswith("_")]
            for name in names:
                self._patch(module, name, f"{layer}.{name}", layer)
        self._patch(scipy.linalg, "expm", "kernel.expm", "kernel")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, t0):
        """Spans as JSON-ready dicts, times in seconds from t0."""
        return [{"id": i, "pass": s[PASS], "parent": s[PARENT], "name": s[NAME],
                 "start": s[START] - t0, "end": s[END] - t0, "error": s[ERROR],
                 "info": s[INFO]} for i, s in enumerate(self.spans)]


def _covered_by(spans, ids, match):
    """Total duration of spans matching `match` that have no matching ancestor."""
    total = 0.0
    for i in ids:
        if not match(spans[i]):
            continue
        p = spans[i][PARENT]
        while p is not None and not match(spans[p]):
            p = spans[p][PARENT]
        if p is None:
            total += spans[i][END] - spans[i][START]
    return total


def pass_metrics(tracer, focus):
    """Per-layer metrics of the tracer's current pass.

    `focus` is the set of layers or span names whose share of the pass
    is reported as trace.focus_share.
    """
    spans = tracer.spans
    ids = [i for i, s in enumerate(spans) if s[PASS] == tracer.pass_id]
    child = {i: 0.0 for i in ids}
    for i in ids:
        p = spans[i][PARENT]
        if p is not None:
            child[p] += spans[i][END] - spans[i][START]
    out = {}
    for key in tracer.keys:
        out.update({f"{key}.calls": 0, f"{key}.s": 0.0, f"{key}.self_s": 0.0})
    infos = {}
    for i in ids:
        key = spans[i][NAME]
        dur = spans[i][END] - spans[i][START]
        out[f"{key}.calls"] += 1
        out[f"{key}.s"] += dur
        out[f"{key}.self_s"] += dur - child[i]
        if spans[i][INFO]:
            infos.setdefault(key, []).append(spans[i][INFO])
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(1 for i in ids
                                     if spans[i][LAYER] == layer and spans[i][ERROR])
    out["model.calls"] = sum(1 for i in ids if spans[i][LAYER] == "model")
    out["model.s"] = _covered_by(spans, ids, lambda s: s[LAYER] == "model")

    def collect(key, field, agg):
        values = [info[field] for info in infos.get(key, [])]
        return agg(values) if values else 0

    out["fock.D"] = collect("fock.build_space", "D", max)
    out["fock.D2"] = out["fock.D"] ** 2
    out["fock.interior_dim"] = collect("fock.build_space", "interior_dim", max)
    out["generator.lindbladian.nnz"] = collect("generator.build_lindbladian", "nnz", max)
    out["generator.lindbladian.mb"] = collect(
        "generator.build_lindbladian", "bytes", max) / MB
    out["generator.build_lindbladian.peak_mb"] = collect(
        "generator.build_lindbladian", "peak_bytes", max) / MB
    out["evolution.states"] = (collect("evolution.evolve_density", "states", sum)
                               + collect("evolution.evolve_vector", "states", sum))
    out["kernel.expm.rows_max"] = collect("kernel.expm", "rows", max)
    out["commutators.support_span.rank"] = collect("commutators.support_span", "rank", max)
    added = collect("commutators.support_span", "added", sum)
    candidates = collect("commutators.support_span", "candidates", sum)
    out["commutators.support_span.added"] = added
    out["commutators.support_span.useful_ratio"] = added / candidates if candidates else 0.0
    out["diagnostics.invariant_subspace_search.closure_dim_sum"] = collect(
        "diagnostics.invariant_subspace_search", "closure_dim_sum", sum)
    samples = sum(collect(key, "samples", sum) for key in SAMPLERS)
    sampler_s = sum(out[f"{key}.s"] for key in SAMPLERS)
    out["diagnostics.samples_per_s"] = samples / sampler_s if sampler_s else 0.0
    run_s = out["cli.run_scenario.s"]
    focused = _covered_by(spans, ids, lambda s: s[LAYER] in focus or s[NAME] in focus)
    out["trace.focus_share"] = focused / run_s if run_s else 0.0
    return out
