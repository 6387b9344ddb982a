"""Seeded scenario configs, expected verdicts and size guards for each workload.

A workload is a list of scenario configs that `gqms.cli.run_scenario`
runs one after another; one such run over the list is a *pass*.  Every
config carries, per task, the verdict the paper predicts (`passed` is
true for every task: a strictly positive Kossakowski matrix makes the
semigroup positivity improving, and the damping contrast encodes its
own prediction in each task's `expect`).  Tasks listed in
KNOWN_FAILURES disagree with that prediction at the parent commit; they
are counted as failed, never dropped or retuned.

Configs are plain JSON-ready dicts, the inputs a user would write; this
module does not import gqms.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"
DEFAULT_SEED = 1

# Tasks that evolve a density matrix and so need the Lindbladian.
DENSITY_TASKS = {"evolve", "support", "improve"}

# At 29 <= D <= 100 the `auto` integrator runs dense expm on up to 10^4
# rows (800 MB per copy at d=3, N_max=6), with several copies live.
DENSE_EXPM_UNSAFE_D = (29, 100)


# Layers or span names (spans.py) whose share of a traced pass should
# exceed one half: the layer each workload exists to stress.
FOCUS = {
    "scenarios": {"evolution"},
    "closure": {"commutators.support_span", "diagnostics.invariant_subspace_search"},
    "sampling": {"diagnostics.number_operator_bound",
                 "diagnostics.domain_comparison_constants",
                 "diagnostics.sector_estimate", "finite_dim"},
    "assembly": {"generator.build_lindbladian"},
}

# Paper prediction is `passed: true`; these tasks fail it at the parent
# commit.  closure/support: at t=0.1 the evolved interior rank (36 of 78 at
# the default seed) falls far short of the commutator-span rank (78),
# because high-grade populations of e^{tL}(|0><0|) lie below the 1e-8
# relative rank threshold.
KNOWN_FAILURES = {"closure": {("closure", "support")}}


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pairs(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_pairs(row) for row in a]


def _haar(rng, n):
    q, r = np.linalg.qr(_cgauss(rng, (n, n)) / np.sqrt(2.0))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(rng, n, scale):
    a = _cgauss(rng, (n, n))
    return scale * 0.5 * (a + a.conj().T)


def strictly_positive_model(rng, d, sv_range=(0.7, 1.3), quad_scale=0.2):
    """JSON Gaussian model with m = 2d Kraus rows and K = B B† eigenvalues in sv_range**2."""
    m = 2 * d
    s = rng.uniform(sv_range[0], sv_range[1], size=m)
    B = _haar(rng, 2 * d) @ np.diag(s).astype(complex) @ _haar(rng, m).conj().T
    kappa = _cgauss(rng, (d, d))
    return {
        "kind": "gaussian", "d": d,
        "omega": _pairs(_hermitian(rng, d, quad_scale)),
        "kappa": _pairs(quad_scale * 0.5 * (kappa + kappa.T)),
        "zeta": _pairs(quad_scale * _cgauss(rng, d)),
        "V": _pairs(B[:d, :].T),
        "U": _pairs(B[d:, :].conj().T),
    }


def strictly_positive_finite_model(rng, n):
    """JSON finite model on C^n with a strictly positive (n^2-1)-square c."""
    k = n * n - 1
    q = _haar(rng, k)
    c = q @ np.diag(rng.uniform(0.5, 1.5, size=k)) @ q.conj().T
    c = 0.5 * (c + c.conj().T)
    return {"kind": "finite", "n": n, "H": _pairs(_hermitian(rng, n, 1.0)),
            "c": _pairs(c), "basis": "gellmann"}


def _shipped(name, seed):
    config = json.loads((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))
    config["seed"] = seed
    return config


def _scenarios(seed):
    return [("two_boson", _shipped("two_boson", seed)),
            ("damping_contrast", _shipped("damping_contrast", seed))]


# Each pass is sized to take 1-2 s, so one run of BENCHMARK.json's
# run_seconds holds several passes for its median.  closure stays at
# N_max=13 (D=105), the smallest d=2 space above the dense-expm guard.
def _closure(seed):
    rng = np.random.default_rng([seed, 2])
    return [("closure", {
        "seed": seed, "model": strictly_positive_model(rng, 2),
        "space": {"N_max": 13, "interior_margin": 2},
        "tasks": [{"name": "invariant", "n_seeds": 3},
                  {"name": "support", "t": 0.1}],
    })]


def _sampling(seed):
    rng = np.random.default_rng([seed, 3])
    n = 1000
    gaussian = {
        "seed": seed, "model": strictly_positive_model(rng, 3),
        "space": {"N_max": 12, "interior_margin": 2},
        "tasks": [{"name": "kossakowski"}, {"name": "minimality"},
                  {"name": "bogoliubov"},
                  {"name": "number-bound", "n_samples": n},
                  {"name": "domain-comparison", "n_samples": n},
                  {"name": "sector", "n_samples": n}],
    }
    finite = {
        "seed": seed, "model": strictly_positive_finite_model(rng, 6),
        "tasks": [{"name": "fd-probe", "n_pairs": 50},
                  {"name": "fd-derivative", "n_pairs": 2}],
    }
    return [("sampling", gaussian), ("finite", finite)]


def _assembly(seed):
    rng = np.random.default_rng([seed, 4])
    return [("assembly", {
        "seed": seed, "model": strictly_positive_model(rng, 3),
        "space": {"N_max": 9, "interior_margin": 2},
        "tasks": [{"name": "evolve", "initial": "vacuum",
                   "times": [0.0, 0.01, 0.02]}],
    })]


BUILDERS = {"scenarios": _scenarios, "closure": _closure,
            "sampling": _sampling, "assembly": _assembly}


def space_dim(config):
    """D = binomial(N_max + d, d) of a bosonic config, None for finite models."""
    model = config["model"]
    if model["kind"] == "finite":
        return None
    d = 2 if model["kind"] == "two_boson" else int(model["d"])
    return math.comb(int(config["space"]["N_max"]) + d, d)


def check_guard(configs):
    """Refuse a density evolution in the dense-expm memory trap 29 <= D <= 100."""
    lo, hi = DENSE_EXPM_UNSAFE_D
    for name, config in configs:
        D = space_dim(config)
        evolves = any(t["name"] in DENSITY_TASKS for t in config["tasks"])
        if evolves and D is not None and lo <= D <= hi:
            raise ValueError(f"config {name!r} evolves a density at D={D}, "
                             f"inside the dense-expm range {lo}..{hi}")


def build(workload, seed):
    """[(config_name, config)] for a workload, refused when it trips the size guard."""
    configs = BUILDERS[workload](int(seed))
    check_guard(configs)
    return configs


def expected(configs):
    """{(config_name, task_index): predicted `passed` flag} for every task."""
    return {(name, i): True
            for name, config in configs for i, _ in enumerate(config["tasks"])}
