import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from gqms import cli, evolution, fock, generator
from gqms import model as gm
from helpers import (expm_states, folded_identity, kraus_form_lindbladian, pure,
                     strictly_positive_model)


def damping_setup(N_max=6):
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, N_max)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops)
    return space, ops, lind


def test_damping_population_decay_expm():
    space, ops, lind = damping_setup()
    rho0 = pure(space.basis_vector((1,)))
    times = np.linspace(0.0, 2.0, 9)
    res = evolution.evolve_density(lind, rho0, times)
    for i, t in enumerate(times):
        assert abs(res.states[i][1, 1].real - np.exp(-t)) <= 1e-10


def test_initial_state_returned_exactly():
    space, ops, lind = damping_setup()
    rho0 = pure(space.basis_vector((2,)))
    res = evolution.evolve_density(lind, rho0, [0.0, 0.1])
    np.testing.assert_allclose(res.states[0], rho0)


def test_mixed_state_flows_to_vacuum():
    space, ops, lind = damping_setup()
    dim = space.interior_dim()
    rho0 = np.zeros((space.D, space.D), dtype=complex)
    rho0[:dim, :dim] = np.eye(dim) / dim
    res = evolution.evolve_density(lind, rho0, np.linspace(0.0, 4.0, 9))
    weights = [s[0, 0].real for s in res.states]
    assert all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
    assert weights[-1] > 0.9


def test_positivity_drift_bounded():
    space, ops, lind = damping_setup()
    rho0 = pure(
        (space.basis_vector((0,)) + space.basis_vector((2,))) / np.sqrt(2))
    res = evolution.evolve_density(lind, rho0, [0.0, 0.25, 0.5])
    assert res.stats["min_eig"].min() >= -1e-8
    assert max(np.abs(rho - rho.conj().T).max() for rho in res.states) <= 1e-10


def test_semigroup_property():
    rng = np.random.default_rng(21)
    model = strictly_positive_model(rng, 1)
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops)
    rho0 = pure(space.vacuum())
    direct = evolution.evolve_density(lind, rho0, [0.0, 0.3])
    stepped = evolution.evolve_density(lind, rho0, [0.0, 0.1, 0.3])
    assert np.abs(direct.states[-1] - stepped.states[-1]).max() <= 1e-6


def test_vector_semigroup_diagonal():
    space, ops, lind = damping_setup()
    e1 = space.basis_vector((1,))
    res = evolution.evolve_vector(ops, e1, [0.0, 0.5, 1.0])
    for i, t in enumerate(res.times):
        np.testing.assert_allclose(res.states[i], np.exp(-t / 2) * e1, atol=1e-12)
    vac = evolution.evolve_vector(ops, space.vacuum(), [0.0, 1.0])
    np.testing.assert_allclose(vac.states[-1], space.vacuum(), atol=1e-14)


def test_vector_contraction_seeded():
    rng = np.random.default_rng(22)
    for _ in range(5):
        model = strictly_positive_model(rng, 1)
        space = fock.build_space(1, 8)
        ops = generator.build_operators(model, space)
        psi = rng.standard_normal(space.D) + 1j * rng.standard_normal(space.D)
        psi /= np.linalg.norm(psi)
        res = evolution.evolve_vector(ops, psi, [0.0, 0.2, 0.5, 1.0])
        # e^{tG} is a contraction semigroup: the norm never grows
        norms = np.array([np.linalg.norm(v) for v in res.states])
        assert np.all(np.diff(norms) <= 1e-8)
        assert np.all(norms <= 1.0 + 1e-8)


def test_times_validation():
    space, ops, lind = damping_setup()
    rho0 = pure(space.vacuum())
    with pytest.raises(ValueError):
        evolution.evolve_density(lind, rho0, [0.1, 0.2])
    with pytest.raises(ValueError):
        evolution.evolve_density(lind, rho0, [0.0, 0.2, 0.2])
    with pytest.raises(ValueError):
        evolution.evolve_vector(ops, 2.0 * space.vacuum(), [0.0, 1.0])
    for times in ([0.0, np.nan], [0.0, np.inf], [0.0, 1.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="times must be finite"):
            evolution.evolve_density(lind, rho0, times)
        with pytest.raises(ValueError, match="times must be finite"):
            evolution.evolve_vector(ops, space.vacuum(), times)


def test_invalid_initial_state_rejected():
    space, ops, lind = damping_setup()
    bad = np.eye(space.D, dtype=complex)  # trace != 1
    with pytest.raises(ValueError):
        evolution.evolve_density(lind, bad, [0.0, 0.1])


@pytest.mark.parametrize("entries, message", [
    ({(0, 0): 1.0, (0, 1): 0.5}, "not Hermitian"),
    ({(0, 0): 2.0}, "trace differs from 1"),
    ({(0, 0): 1.5, (1, 1): -0.5}, "negative eigenvalue"),
])
def test_initial_state_refusal_names_its_fault(entries, message):
    space, ops, lind = damping_setup()
    rho0 = np.zeros((space.D, space.D), dtype=complex)
    for at, value in entries.items():
        rho0[at] = value
    with pytest.raises(ValueError, match=message):
        evolution.evolve_density(lind, rho0, [0.0, 0.1])


def test_trace_instability_aborts():
    space, ops, lind = damping_setup()
    # trace-violating generator: add a multiple of the identity superoperator
    broken = dataclasses.replace(
        lind, matrix=(lind.matrix + 0.5 * folded_identity(space.D)).tocsr(),
        trace=lind.trace + 0.5 * space.D ** 2)
    rho0 = pure(space.vacuum())
    with pytest.raises(evolution.IntegrationError, match="at t=1 exceeds"):
        evolution.evolve_density(broken, rho0, [0.0, 1.0, 2.0])


def seeded_lindbladian(seed, d, N_max):
    model = strictly_positive_model(np.random.default_rng(seed), d)
    space = fock.build_space(d, N_max)
    ops = generator.build_operators(model, space)
    return space, ops, generator.build_lindbladian(ops)


def test_auto_matches_expm_small():
    space, ops, lind = seeded_lindbladian(32, 1, 6)
    assert space.D == 7
    rho0 = pure(space.basis_vector((1,)))
    times = [0.0, 0.1, 0.5, 1.0]
    a = evolution.evolve_density(lind, rho0, times)
    b = expm_states(kraus_form_lindbladian(ops), rho0, times)
    for sa, sb in zip(a.states, b):
        assert np.abs(sa - sb).max() <= 1e-12
    va = evolution.evolve_vector(ops, space.vacuum(), times)
    vb = expm_states(ops.G, space.vacuum(), times)
    for xa, xb in zip(va.states, vb):
        assert np.abs(xa - xb).max() <= 1e-12


def test_auto_matches_expm_and_rk4_on_a_mixed_state():
    # a full-rank rho0 with complex coherences exercises every mirrored entry
    space, ops, lind = seeded_lindbladian(34, 2, 3)
    rng = np.random.default_rng(35)
    z = rng.standard_normal((space.D, space.D)) + 1j * rng.standard_normal((space.D, space.D))
    rho0 = z @ z.conj().T
    rho0 /= np.trace(rho0)
    times = [0.0, 0.1, 0.3]
    a = evolution.evolve_density(lind, rho0, times)
    b = expm_states(kraus_form_lindbladian(ops), rho0, times)
    for sa, sb in zip(a.states, b):
        assert np.abs(sa - sb).max() <= 1e-12
    assert max(np.abs(rho - rho.conj().T).max() for rho in a.states) <= 1e-15
    # min_eig at t = 0 is that of the PSD check, the bits of one eigvalsh of rho0
    rho = a.states[0]
    assert a.stats["min_eig"][0] == np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()


def test_min_eig_is_solved_when_read(monkeypatch):
    # the PSD check is the only eigensolve until stats are read; then one
    # per later output time, the bits of an eigvalsh of the Hermitized state
    space, ops, lind = seeded_lindbladian(31, 2, 5)
    rho0 = pure(space.vacuum())
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    res = evolution.evolve_density(lind, rho0, [0.0, 0.05, 0.1, 0.2])
    assert shapes == [(space.D, space.D)]
    min_eig = res.stats["min_eig"]
    assert res.stats is res.stats and len(shapes) == 4
    assert min_eig[0] == res.min_eig0 == eigvalsh(rho0).min()
    for rho, value in zip(res.states, min_eig):
        assert value == eigvalsh(0.5 * (rho + rho.conj().T)).min()
    assert evolution.evolve_vector(ops, space.vacuum(), [0.0, 0.1]).stats == {}


def test_evolution_cost_is_refused_before_the_first_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(evolution, "_expm_action", refuse)
    space, ops, lind = damping_setup()
    rho0 = pure(space.vacuum())
    for t in (1e6, 1e308):
        with pytest.raises(evolution.IntegrationError, match="products"):
            evolution.evolve_density(lind, rho0, [0.0, t])
        with pytest.raises(evolution.IntegrationError, match="products"):
            evolution.evolve_vector(ops, space.vacuum(), [0.0, t])
    # an evolution plans m s products over its horizon: exactly MAX_PRODUCTS is admitted
    times = [0.0, 1.0, 3.0]
    for run, (_, norm) in (
            (lambda: evolution.evolve_density(lind, rho0, times), lind.shift_and_norm),
            (lambda: evolution.evolve_vector(ops, space.vacuum(), times),
             evolution._shift_and_norm(ops.G))):
        m, s = evolution._taylor_plan(times[-1], norm)
        planned = m * s
        assert planned > 1
        monkeypatch.setattr(evolution, "MAX_PRODUCTS", planned)
        with pytest.raises(AssertionError):
            run()
        monkeypatch.setattr(evolution, "MAX_PRODUCTS", planned - 1)
        with pytest.raises(evolution.IntegrationError, match="products"):
            run()


def test_zero_horizon_takes_no_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(evolution, "_expm_action", refuse)
    space, ops, lind = damping_setup()
    rho0 = pure(space.basis_vector((1,)))
    res = evolution.evolve_density(lind, rho0, [0.0])
    assert len(res.states) == 1 and np.array_equal(res.states[0], rho0)
    assert res.stats["trace_err"].tolist() == [0.0]
    vec = evolution.evolve_vector(ops, space.vacuum(), [0.0])
    assert len(vec.states) == 1 and np.array_equal(vec.states[0], space.vacuum())


def scaled_operators(N_max, scale):
    """A d = 1 space and the operators of a seeded strictly positive model
    whose Kraus singular values lie in scale * [0.7, 1.3]."""
    model = strictly_positive_model(np.random.default_rng(36), 1,
                                    sv_range=(0.7 * scale, 1.3 * scale))
    space = fock.build_space(1, N_max)
    return space, generator.build_operators(model, space)


def test_output_times_cost_no_products(monkeypatch):
    products = []
    propagate = evolution._propagate

    def counting(matvec, *args):
        def counted(v):
            products.append(None)
            return matvec(v)
        return propagate(counted, *args)

    monkeypatch.setattr(evolution, "_propagate", counting)
    # one horizon T = 0.3 planned as s = 3 steps of h = 0.3/3, a float just
    # below 0.1: outputs off the step ends, on them in floating point (h and
    # 2 h) and on one only in exact arithmetic (0.1, just after h)
    h = 0.3 / 3
    assert h < 0.1
    grids = ([0.0, 0.3], [0.0, 0.1, 0.15, 0.3], [0.0, 0.05, h, 0.1, 2 * h, 0.25, 0.3])
    space, ops = scaled_operators(4, 3.0)
    lind = generator.build_lindbladian(ops)
    rho0 = pure(space.basis_vector((1,)))
    vspace, vops = scaled_operators(6, 6.0)
    psi0 = vspace.basis_vector((2,))
    for norm, run, reference in (
            (lind.shift_and_norm[1], lambda times: evolution.evolve_density(lind, rho0, times),
             lambda times: expm_states(kraus_form_lindbladian(ops), rho0, times)),
            (evolution._shift_and_norm(vops.G)[1],
             lambda times: evolution.evolve_vector(vops, psi0, times),
             lambda times: expm_states(vops.G, psi0, times))):
        assert evolution._taylor_plan(0.3, norm)[1] == 3
        counts, finals = [], []
        for times in grids:
            products.clear()
            res = run(times)
            counts.append(len(products))
            assert len(res.states) == len(times)
            for ours, exact in zip(res.states, reference(times)):
                assert np.abs(ours - exact).max() <= 1e-12
            finals.append(res.states[-1])
        assert counts[0] >= 3 and counts == counts[:1] * len(grids)
        assert all(np.array_equal(final, finals[0]) for final in finals)


def test_auto_scaling_steps_match_expm():
    space, ops, lind = seeded_lindbladian(32, 1, 6)
    theta_max = max(evolution.TAYLOR_THETA.values())
    # every Taylor degree needs s >= 2 steps on the intervals of length 1 and 4
    assert 1.0 * lind.shift_and_norm[1] > theta_max
    assert 4.0 * evolution._shift_and_norm(ops.G)[1] > theta_max
    times = [0.0, 1.0, 5.0]
    rho0 = pure(space.basis_vector((1,)))
    a = evolution.evolve_density(lind, rho0, times)
    b = expm_states(kraus_form_lindbladian(ops), rho0, times)
    for sa, sb in zip(a.states, b):
        assert np.abs(sa - sb).max() <= 1e-12
    va = evolution.evolve_vector(ops, space.basis_vector((2,)), times)
    vb = expm_states(ops.G, space.basis_vector((2,)), times)
    for xa, xb in zip(va.states, vb):
        assert np.abs(xa - xb).max() <= 1e-12


def test_auto_matches_scipy_expm_multiply():
    space, ops, lind = seeded_lindbladian(31, 2, 13)
    rho0 = pure(space.vacuum())
    times = [0.0, 0.05, 0.1, 0.3]
    res = evolution.evolve_density(lind, rho0, times)
    whole = kraus_form_lindbladian(ops)
    v = rho0.reshape(-1, order="F")
    for dt, state in zip(np.diff(times), res.states[1:]):
        v = scipy.sparse.linalg.expm_multiply(whole, v, start=0.0, stop=dt,
                                              num=2, endpoint=True)[-1]
        ours = state.reshape(-1, order="F")
        assert np.abs(ours - v).max() <= 1e-13 * np.abs(v).max()


def test_density_bytes_is_the_peak_of_an_evolution(monkeypatch):
    # D = 105: the superoperator is refused for an evolution keeping 11
    # states one byte below the figure `density_bytes` names, and the figure
    # is the CSR plus the traced peak of that evolution; over 0.3 the plan
    # takes two steps, and the grids after the first have no output time
    # on the step end
    space, ops, lind = seeded_lindbladian(31, 2, 13)
    assert evolution._taylor_plan(0.3, lind.shift_and_norm[1])[1] == 2
    for times in (np.linspace(0.0, 0.1, 11), np.array([0.0, 0.05, 0.3]), np.array([0.0, 0.3])):
        needed = evolution.density_bytes(space.D, lind.matrix.nnz, times.size)
        if times.size == 11:
            monkeypatch.setattr(generator, "ASSEMBLY_MAX_BYTES", needed - 1)
            with pytest.raises(ValueError, match=f"keeping 11 states needs {needed} bytes"):
                generator.build_lindbladian(ops, states=times.size)
            monkeypatch.setattr(generator, "ASSEMBLY_MAX_BYTES", needed)
        superop = generator.build_lindbladian(ops, states=times.size)
        M = superop.matrix
        csr_bytes = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
        tracemalloc.start()
        try:
            evolution.evolve_density(superop, pure(space.vacuum()), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.9 * needed <= csr_bytes + peak <= 1.05 * needed


def test_shift_and_norm_matches_bincount_and_stays_below_half_the_csr():
    # the closed form from the folded dissipator's column sums and the drift
    space, ops, lind = seeded_lindbladian(31, 2, 13)
    A, D, X = lind.matrix, space.D, ops.G.toarray()
    rows, mirrors = lind.fold
    strict = rows != mirrors
    entry_rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    stored = np.bincount(A.indices, weights=np.abs(A.data), minlength=D * D)
    mirrored = np.bincount(A.indices, weights=np.abs(A.data) * strict[entry_rows],
                           minlength=D * D)
    g = np.diag(X)
    c = np.abs(X).sum(axis=0) - np.abs(g)
    mu_ref = 2 * g.real.sum() / D
    colsums = (stored.reshape(D, D) + mirrored.reshape(D, D).T + c[:, None] + c[None, :]
               + np.abs(g[None, :] + g.conj()[:, None] - mu_ref))
    csr_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    tracemalloc.start()
    try:
        mu, norm = lind.shift_and_norm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lind.trace == 0
    assert abs(mu - mu_ref) <= 1e-14 * abs(mu_ref)
    assert abs(norm - colsums.max()) <= 1e-14 * norm
    # |A.data| and the index arrays D^2 entries at a time, and the column sums
    assert peak <= 0.5 * csr_bytes
    # the square-CSR form evolve_vector uses, on G
    G = ops.G
    mu_G, norm_G = evolution._shift_and_norm(G)
    dG = G.diagonal()
    sums_G = np.bincount(G.indices, weights=np.abs(G.data), minlength=space.D)
    assert mu_G == dG.sum() / space.D
    sums_G += np.abs(dG - mu_G) - np.abs(dG)
    assert norm_G == float(sums_G.max())


def test_auto_never_builds_dense_exponential(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense scipy.linalg.expm or expm_multiply called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refuse)
    space, ops, lind = seeded_lindbladian(33, 1, 6)
    rho0 = pure(space.vacuum())
    evolution.evolve_density(lind, rho0, [0.0, 0.1, 0.2])
    evolution.evolve_vector(ops, space.vacuum(), [0.0, 0.1, 0.2])
    with pytest.raises(AssertionError):
        expm_states(ops.G, space.vacuum(), [0.0, 0.1])


def test_timeseries_csv_export(tmp_path):
    # the `evolve` task of a damped mode started in |1>
    config = {"seed": 1, "model": {"kind": "gaussian", "d": 1, "V": [[1.0]], "U": [[0.0]]},
              "space": {"N_max": 6},
              "tasks": [{"name": "evolve", "initial": [1], "times": [0.0, 0.5, 1.0],
                         "observables": [[0], [1]]}]}
    assert cli.run_scenario(config, tmp_path)[0] == 0
    lines = (tmp_path / "00_evolve_timeseries.csv").read_text().splitlines()
    assert lines[0] == "t,trace_err,min_eig,support_rank,p0,p1"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == pytest.approx(1.0)
