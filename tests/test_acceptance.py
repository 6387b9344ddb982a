"""Acceptance checklist: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist.
"""

import json
from pathlib import Path

import numpy as np

from gqms import cli, commutators, diagnostics, evolution, fock, generator
from gqms import finite_dim as fd
from gqms import model as gm
from helpers import (
    complex_gaussian, haar_unitary, random_model, random_vu,
    strictly_positive_model,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(index, title, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{index}/9] {title}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {index} failed: {title}{tail}"


def test_criterion_1_kossakowski_construction():
    rng = np.random.default_rng(101)
    worst_fact = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 2 * d + 1))
        V, U = random_vu(rng, d, m)
        K = gm.build_kossakowski(V, U)
        B = gm.kossakowski_factor(V, U)
        worst_fact = max(worst_fact, float(np.abs(K.matrix - B @ B.conj().T).max()))
        assert worst_fact <= 1e-12
        assert gm.check_minimality(V, U) == (K.rank == m)
        if K.eps0 > 1e-10:
            assert m == 2 * d
    _report(1, "Kossakowski factorization, minimality, full Kraus count",
            worst_fact <= 1e-12, f"max factorization error {worst_fact:.2e}")


def test_criterion_2_invariance_suite():
    rng = np.random.default_rng(102)
    worst_mix = 0.0
    worst_constraint = 0.0
    verdicts_preserved = True
    for trial in range(30):
        d = int(rng.integers(1, 4))
        if trial % 2 == 0:
            model = strictly_positive_model(rng, d)
        else:
            model = random_model(rng, d, int(rng.integers(1, 2 * d + 1)))
        K = gm.build_kossakowski(model.V, model.U)
        mixed = gm.mix_kraus(model, haar_unitary(rng, model.m))
        K_mixed = gm.build_kossakowski(mixed.V, mixed.U)
        worst_mix = max(worst_mix, float(np.abs(K_mixed.matrix - K.matrix).max()))
        pair = gm.generate_bogoliubov(d, seed=1000 + trial, squeeze=0.4)
        res1 = np.abs(pair.E.conj().T @ pair.E - pair.F.conj().T @ pair.F
                      - np.eye(d)).max()
        res2 = np.abs(pair.E.T @ pair.F - pair.F.T @ pair.E).max()
        worst_constraint = max(worst_constraint, float(res1), float(res2))
        transformed = gm.bogoliubov_transform(model, pair)
        K_transformed = gm.build_kossakowski(transformed.V, transformed.U)
        verdicts_preserved &= (
            K_transformed.strictly_positive == K.strictly_positive)
    ok = worst_mix <= 1e-10 and worst_constraint <= 1e-10 and verdicts_preserved
    _report(2, "Kraus mixing and Bogoliubov invariance", ok,
            f"mix dev {worst_mix:.2e}, constraint dev {worst_constraint:.2e}")


def test_criterion_3_number_bound_two_boson():
    model = gm.two_boson_model(
        gamma_minus=np.eye(2), gamma_plus=np.eye(2), Omega=np.zeros((2, 2)))
    space = fock.build_space(2, 6, interior_margin=2)
    ops = generator.build_operators(model, space)
    K = gm.build_kossakowski(model.V, model.U)
    bound = diagnostics.number_operator_bound(
        diagnostics.sample_statistics(ops, 103, 1000), K, 1000)
    rng = np.random.default_rng(103)
    samples = np.hstack(list(diagnostics.sample_blocks(
        rng, 1000, space.interior_dim(), space.D)))
    worst_identity = 0.0
    for xi in samples.T:
        lhs, rhs = generator.dissipation_quadratic_identity(ops, xi)
        worst_identity = max(worst_identity, abs(lhs - rhs) / (1.0 + abs(lhs)))
    ok = bound.violations == 0 and worst_identity <= 1e-10
    _report(3, "number-operator lower bound and quadratic identity", ok,
            f"violations {bound.violations}, identity dev {worst_identity:.2e}")


def test_criterion_4_exact_damping_dynamics():
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops)
    times = np.round(np.linspace(0.0, 2.0, 11), 12)
    res = evolution.evolve_density(lind, space.basis_vector((1,)), times)
    pop_err = max(abs(res.states[i][1, 1].real - np.exp(-t))
                  for i, t in enumerate(times))
    vres = evolution.evolve_vector(ops, space.basis_vector((1,)), times)
    vec_err = max(np.linalg.norm(vres.states[i]
                                 - np.exp(-t / 2) * space.basis_vector((1,)))
                  for i, t in enumerate(times))
    ok = pop_err <= 1e-6 and vec_err <= 1e-8
    _report(4, "single-mode damping against closed forms", ok,
            f"population err {pop_err:.2e}, semigroup err {vec_err:.2e}")


def test_criterion_5_irreducibility_and_support_growth():
    rng = np.random.default_rng(105)
    all_ok = True
    detail = []
    for case in range(10):
        d, N_max = (1, 8) if case < 5 else (2, 6)
        model = strictly_positive_model(rng, d)
        K = gm.build_kossakowski(model.V, model.U)
        assert K.eps0 >= 0.1
        space = fock.build_space(d, N_max, interior_margin=2)
        ops = generator.build_operators(model, space)
        closure = diagnostics.invariant_subspace_search(ops, 3, seed=200 + case)
        all_ok &= closure.full_closure
        lind = generator.build_lindbladian(ops)
        starts = [space.vacuum(), space.basis_vector((1,) + (0,) * (d - 1))]
        probes = diagnostics.positivity_improving_probe(
            lind, starts, [0.05, 0.1], space)
        min_eig = min(p.min_interior_eig for p in probes)
        all_ok &= min_eig > 0
        detail.append(f"{min_eig:.1e}")
    contrast = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    cspace = fock.build_space(1, 8, interior_margin=2)
    cops = generator.build_operators(contrast, cspace)
    cclosure = diagnostics.invariant_subspace_search(
        cops, 0, seed=7, starts=[cspace.vacuum()])
    clind = generator.build_lindbladian(cops)
    cprobes = diagnostics.positivity_improving_probe(
        clind, [cspace.vacuum()], [0.05, 0.1, 0.5, 1.0], cspace)
    contrast_ok = (cclosure.min_closure_dim == 1
                   and all(p.rank == 1 for p in cprobes))
    all_ok &= contrast_ok
    _report(5, "full closure and support growth for eps0 >= 0.1; contrast stays reducible",
            all_ok, f"min interior eigs {min(detail)}")


def test_criterion_6_support_span_oracle_equivalence():
    root2 = np.sqrt(2.0)
    model = gm.quadratic_free_model(1, V=[[root2], [0.0]], U=[[0.0], [root2]])
    space = fock.build_space(1, 10, interior_margin=2)
    ops = generator.build_operators(model, space)
    action = commutators.adjoint_action(model)
    span = commutators.support_span(ops, action, space.vacuum(), 0.1)
    lind = generator.build_lindbladian(ops)
    probe = diagnostics.positivity_improving_probe(
        lind, [space.vacuum()], [0.1], space)[0]
    oracle_err = commutators.validate_action_oracle(ops, action)
    ok = span.rank == probe.rank and oracle_err <= 1e-9
    _report(6, "commutator-word span matches evolved support rank", ok,
            f"span {span.rank}, evolved {probe.rank}, oracle {oracle_err:.2e}")


def test_criterion_7_finite_dimensional_suite():
    model = fd.FiniteGKLSModel(n=2, H=np.zeros((2, 2)), c=np.eye(3))
    minimum = fd.fd_positivity_probe(model, [0.01, 0.1, 1.0], 200, seed=107)
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        u = complex_gaussian(rng, 2)
        u /= np.linalg.norm(u)
        v = complex_gaussian(rng, 2)
        v -= np.vdot(u, v) * u
        v /= np.linalg.norm(v)
        analytic, numeric = fd.initial_derivative(model, u, v)
        worst = max(worst, abs(analytic - numeric) / (1.0 + abs(analytic)))
    basis_case, _ = fd.initial_derivative(
        model, np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex))
    ok = minimum > 0 and worst <= 1e-5 and abs(basis_case - 1.0) <= 1e-6
    _report(7, "qubit positivity probe and initial-derivative oracle", ok,
            f"probe min {minimum:.2e}, derivative dev {worst:.2e}")


def test_criterion_8_sector_heuristic():
    base = dict(gamma_minus=np.eye(2), gamma_plus=np.eye(2))
    space = fock.build_space(2, 6, interior_margin=2)
    flat = gm.two_boson_model(Omega=np.zeros((2, 2)), **base)
    ops0 = generator.build_operators(flat, space)
    self_adjoint = diagnostics.sector_estimate(
        diagnostics.sample_statistics(ops0, 108, 200), 200, shift_grid=[0.0])
    thetas = []
    for scale in (0.25, 0.5, 1.0):
        model = gm.two_boson_model(Omega=scale * np.diag([1.0, 0.5]), **base)
        ops = generator.build_operators(model, space)
        rep = diagnostics.sector_estimate(
            diagnostics.sample_statistics(ops, 108, 200), 200, shift_grid=[0.0])
        thetas.append(rep.theta_hat)
    monotone = thetas[0] < thetas[1] < thetas[2]
    ok = self_adjoint.theta_hat <= 1e-6 and monotone
    _report(8, "degenerate sector for G0 and monotone growth in the Hamiltonian",
            ok, f"theta0 {self_adjoint.theta_hat:.1e}, "
                f"trend {[f'{t:.3f}' for t in thetas]}")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        code = cli.main(["run", "--config", str(SCENARIOS / "two_boson.json"),
                         "--output-dir", str(outdir)])
        assert code == 0
        outs.append(json.loads((outdir / "report.json").read_text()))
    for report in outs:
        report.pop("timestamps")
    dumps = [json.dumps(r, sort_keys=True) for r in outs]
    ok = dumps[0] == dumps[1]
    _report(9, "identical report.json across reruns modulo timestamps", ok)
