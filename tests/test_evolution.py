import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from gqms import evolution, fock, generator
from gqms import model as gm
from helpers import folded_identity, kraus_form_lindbladian, strictly_positive_model


def damping_setup(N_max=6):
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, N_max)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops, "schrodinger")
    return space, ops, lind


def test_damping_population_decay_expm():
    space, ops, lind = damping_setup()
    rho0 = evolution.DensityMatrix.pure(space.basis_vector((1,)))
    times = np.linspace(0.0, 2.0, 9)
    res = evolution.evolve_density(lind, rho0, times, method="expm")
    for i, t in enumerate(times):
        assert abs(res.states[i].rho[1, 1].real - np.exp(-t)) <= 1e-10


def test_damping_population_decay_rk4():
    space, ops, lind = damping_setup()
    rho0 = evolution.DensityMatrix.pure(space.basis_vector((1,)))
    times = [0.0, 0.5, 1.0]
    res = evolution.evolve_density(lind, rho0, times, method="rk4", h=1e-3)
    for i, t in enumerate(times):
        assert abs(res.states[i].rho[1, 1].real - np.exp(-t)) <= 1e-6


def test_initial_state_returned_exactly():
    space, ops, lind = damping_setup()
    rho0 = evolution.DensityMatrix.pure(space.basis_vector((2,)))
    res = evolution.evolve_density(lind, rho0, [0.0, 0.1])
    np.testing.assert_allclose(res.states[0].rho, rho0.rho)


def test_mixed_state_flows_to_vacuum():
    space, ops, lind = damping_setup()
    dim = space.interior_dim()
    rho0 = np.zeros((space.D, space.D), dtype=complex)
    rho0[:dim, :dim] = np.eye(dim) / dim
    res = evolution.evolve_density(lind, rho0, np.linspace(0.0, 4.0, 9))
    weights = [s.rho[0, 0].real for s in res.states]
    assert all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
    assert weights[-1] > 0.9


def test_positivity_drift_bounded():
    space, ops, lind = damping_setup()
    rho0 = evolution.DensityMatrix.pure(
        (space.basis_vector((0,)) + space.basis_vector((2,))) / np.sqrt(2))
    res = evolution.evolve_density(lind, rho0, [0.0, 0.25, 0.5], method="rk4")
    assert res.stats["min_eig"].min() >= -1e-8
    assert res.stats["herm_err"].max() <= 1e-10


def test_semigroup_property():
    rng = np.random.default_rng(21)
    model = strictly_positive_model(rng, 1)
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops, "schrodinger")
    rho0 = evolution.DensityMatrix.pure(space.vacuum())
    direct = evolution.evolve_density(lind, rho0, [0.0, 0.3], method="expm")
    stepped = evolution.evolve_density(lind, rho0, [0.0, 0.1, 0.3], method="expm")
    assert np.abs(direct.states[-1].rho - stepped.states[-1].rho).max() <= 1e-6


def test_rk4_matches_expm():
    rng = np.random.default_rng(23)
    model = strictly_positive_model(rng, 1)
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops, "schrodinger")
    rho0 = evolution.DensityMatrix.pure(space.basis_vector((1,)))
    times = [0.0, 0.2, 0.4]
    a = evolution.evolve_density(lind, rho0, times, method="expm")
    b = evolution.evolve_density(lind, rho0, times, method="rk4", h=1e-3)
    for sa, sb in zip(a.states, b.states):
        assert np.abs(sa.rho - sb.rho).max() <= 1e-9


def test_vector_semigroup_diagonal():
    space, ops, lind = damping_setup()
    e1 = space.basis_vector((1,))
    res = evolution.evolve_vector(ops, e1, [0.0, 0.5, 1.0], method="expm")
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
        assert res.stats["contraction_ok"]
        assert np.all(res.stats["norms"] <= 1.0 + 1e-8)


def test_times_validation():
    space, ops, lind = damping_setup()
    rho0 = evolution.DensityMatrix.pure(space.vacuum())
    with pytest.raises(ValueError):
        evolution.evolve_density(lind, rho0, [0.1, 0.2])
    with pytest.raises(ValueError):
        evolution.evolve_density(lind, rho0, [0.0, 0.2, 0.2])
    with pytest.raises(ValueError):
        evolution.evolve_vector(ops, 2.0 * space.vacuum(), [0.0, 1.0])


def test_invalid_initial_state_rejected():
    space, ops, lind = damping_setup()
    bad = np.eye(space.D, dtype=complex)  # trace != 1
    with pytest.raises(ValueError):
        evolution.evolve_density(lind, bad, [0.0, 0.1])


def test_trace_instability_aborts():
    space, ops, lind = damping_setup()
    # trace-violating generator: add a multiple of the identity superoperator
    broken = generator.Superoperator(
        matrix=(lind.matrix + 0.5 * folded_identity(space.D)).tocsr(),
        picture="schrodinger", dim=space.D)
    rho0 = evolution.DensityMatrix.pure(space.vacuum())
    with pytest.raises(evolution.IntegrationError):
        evolution.evolve_density(broken, rho0, [0.0, 1.0, 2.0], method="rk4", h=0.05)


def test_expm_dimension_guard():
    big = 101 ** 2
    superop = generator.Superoperator(
        matrix=folded_identity(101),
        picture="schrodinger", dim=101)
    rho0 = np.zeros((101, 101), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(evolution.IntegrationError):
        evolution.evolve_density(superop, rho0, [0.0, 0.1], method="expm")


def test_expm_guard_counts_bytes():
    # D = 91 is the smallest density dimension whose dense D^2 x D^2
    # complex superoperator exceeds the byte budget
    assert 16 * (90 ** 2) ** 2 <= evolution.EXPM_MAX_BYTES < 16 * (91 ** 2) ** 2
    superop = generator.Superoperator(
        matrix=folded_identity(91),
        picture="schrodinger", dim=91)
    rho0 = np.zeros((91, 91), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(evolution.IntegrationError, match=f"{16 * 91 ** 4} bytes"):
        evolution.evolve_density(superop, rho0, [0.0, 0.1], method="expm")


def seeded_lindbladian(seed, d, N_max):
    model = strictly_positive_model(np.random.default_rng(seed), d)
    space = fock.build_space(d, N_max)
    ops = generator.build_operators(model, space)
    return space, ops, generator.build_lindbladian(ops, "schrodinger")


def test_auto_matches_rk4_above_former_dense_cap():
    space, ops, lind = seeded_lindbladian(31, 2, 13)
    assert space.D ** 2 > 10 ** 4
    rho0 = evolution.DensityMatrix.pure(space.vacuum())
    a = evolution.evolve_density(lind, rho0, [0.0, 0.1])
    b = evolution.evolve_density(lind, rho0, [0.0, 0.1], method="rk4", h=1e-3)
    assert np.abs(a.states[-1].rho - b.states[-1].rho).max() <= 1e-9


def test_auto_matches_expm_small():
    space, ops, lind = seeded_lindbladian(32, 1, 6)
    assert space.D == 7
    rho0 = evolution.DensityMatrix.pure(space.basis_vector((1,)))
    times = [0.0, 0.1, 0.5, 1.0]
    a = evolution.evolve_density(lind, rho0, times)
    b = evolution.evolve_density(lind, rho0, times, method="expm")
    for sa, sb in zip(a.states, b.states):
        assert np.abs(sa.rho - sb.rho).max() <= 1e-12
    va = evolution.evolve_vector(ops, space.vacuum(), times)
    vb = evolution.evolve_vector(ops, space.vacuum(), times, method="expm")
    for xa, xb in zip(va.states, vb.states):
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
    b = evolution.evolve_density(lind, rho0, times, method="expm")
    c = evolution.evolve_density(lind, rho0, times, method="rk4", h=1e-3)
    for sa, sb, sc in zip(a.states, b.states, c.states):
        assert np.abs(sa.rho - sb.rho).max() <= 1e-12
        assert np.abs(sa.rho - sc.rho).max() <= 1e-9
    assert a.stats["herm_err"].max() <= 1e-15


def test_evolution_cost_is_refused_before_the_first_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(evolution, "_expm_action", refuse)
    monkeypatch.setattr(evolution, "_rk4_segment", refuse)
    space, ops, lind = damping_setup()
    rho0 = evolution.DensityMatrix.pure(space.vacuum())
    for t in (1e6, 1e308):
        with pytest.raises(evolution.IntegrationError, match="products"):
            evolution.evolve_density(lind, rho0, [0.0, t])
        with pytest.raises(evolution.IntegrationError, match="products"):
            evolution.evolve_vector(ops, space.vacuum(), [0.0, t])
        with pytest.raises(evolution.IntegrationError, match="products"):
            evolution.evolve_density(lind, rho0, [0.0, t], method="rk4", h=0.5)
    # rk4 plans 4 ceil(dt / h) products: exactly MAX_PRODUCTS is admitted
    t = evolution.MAX_PRODUCTS / 4 * 0.5
    with pytest.raises(AssertionError):
        evolution.evolve_density(lind, rho0, [0.0, t], method="rk4", h=0.5)
    with pytest.raises(evolution.IntegrationError, match="products"):
        evolution.evolve_density(lind, rho0, [0.0, t + 0.5], method="rk4", h=0.5)


def test_auto_scaling_steps_match_expm():
    space, ops, lind = seeded_lindbladian(32, 1, 6)
    theta_max = max(evolution.TAYLOR_THETA.values())
    # every Taylor degree needs s >= 2 steps on the intervals of length 1 and 4
    assert 1.0 * evolution._shift_and_norm(lind.matrix, lind)[1] > theta_max
    assert 4.0 * evolution._shift_and_norm(ops.G)[1] > theta_max
    times = [0.0, 1.0, 5.0]
    rho0 = evolution.DensityMatrix.pure(space.basis_vector((1,)))
    a = evolution.evolve_density(lind, rho0, times)
    b = evolution.evolve_density(lind, rho0, times, method="expm")
    for sa, sb in zip(a.states, b.states):
        assert np.abs(sa.rho - sb.rho).max() <= 1e-12
    va = evolution.evolve_vector(ops, space.basis_vector((2,)), times)
    vb = evolution.evolve_vector(ops, space.basis_vector((2,)), times, method="expm")
    for xa, xb in zip(va.states, vb.states):
        assert np.abs(xa - xb).max() <= 1e-12


def test_auto_matches_scipy_expm_multiply():
    space, ops, lind = seeded_lindbladian(31, 2, 13)
    rho0 = evolution.DensityMatrix.pure(space.vacuum())
    times = [0.0, 0.05, 0.1, 0.3]
    res = evolution.evolve_density(lind, rho0, times)
    whole = kraus_form_lindbladian(ops, "schrodinger")
    v = rho0.rho.reshape(-1, order="F")
    for dt, state in zip(np.diff(times), res.states[1:]):
        v = scipy.sparse.linalg.expm_multiply(whole, v, start=0.0, stop=dt,
                                              num=2, endpoint=True)[-1]
        ours = state.rho.reshape(-1, order="F")
        assert np.abs(ours - v).max() <= 1e-13 * np.abs(v).max()


def test_auto_peak_memory_below_superoperator():
    space, ops, lind = seeded_lindbladian(31, 2, 13)
    M = lind.matrix
    csr_bytes = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    rho0 = evolution.DensityMatrix.pure(space.vacuum())
    tracemalloc.start()
    try:
        evolution.evolve_density(lind, rho0, [0.0, 0.05, 0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * csr_bytes


def test_shift_and_norm_matches_bincount_and_stays_below_half_the_csr():
    space, ops, lind = seeded_lindbladian(31, 2, 13)
    A, D = lind.matrix, space.D
    rows, mirrors = lind.fold
    strict = rows != mirrors
    diag = np.array([A[r, c] for r, c in enumerate(rows)])
    mu_ref = (diag.real.sum() + diag.real[strict].sum()) / D ** 2
    entry_rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    stored = np.bincount(A.indices, weights=np.abs(A.data), minlength=D * D)
    mirrored = np.bincount(A.indices, weights=np.abs(A.data) * strict[entry_rows],
                           minlength=D * D)
    colsums = stored + mirrored.reshape(D, D).T.ravel()
    colsums[mirrors] += np.abs(diag - mu_ref) - np.abs(diag)
    colsums[rows[strict]] += (np.abs(diag - mu_ref) - np.abs(diag))[strict]
    csr_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    tracemalloc.start()
    try:
        mu, norm = evolution._shift_and_norm(lind.matrix, lind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mu == mu_ref and norm == float(colsums.max())
    # |A.data| and the column sums only: the int32 indices are never widened
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
    rho0 = evolution.DensityMatrix.pure(space.vacuum())
    evolution.evolve_density(lind, rho0, [0.0, 0.1, 0.2])
    evolution.evolve_vector(ops, space.vacuum(), [0.0, 0.1, 0.2])
    with pytest.raises(AssertionError):
        evolution.evolve_density(lind, rho0, [0.0, 0.1], method="expm")


def test_timeseries_csv_export(tmp_path):
    space, ops, lind = damping_setup()
    rho0 = evolution.DensityMatrix.pure(space.basis_vector((1,)))
    res = evolution.evolve_density(lind, rho0, [0.0, 0.5, 1.0])
    path = tmp_path / "series.csv"
    evolution.export_timeseries_csv(res, path, space=space,
                                    observables=[(0,), (1,)])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,trace_err,min_eig,support_rank,p0,p1"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == pytest.approx(1.0)
