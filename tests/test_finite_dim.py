import numpy as np
import pytest
import scipy.linalg

from gqms import finite_dim as fd
from gqms import generator
from helpers import complex_gaussian, random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def qubit_model(c=None, H=None):
    c = np.eye(3) if c is None else c
    H = np.zeros((2, 2)) if H is None else H
    return fd.FiniteGKLSModel(n=2, H=H, c=c)


def random_fd_model(rng, n, c_floor=0.0):
    k = n * n - 1
    a = complex_gaussian(rng, (k, k))
    c = a @ a.conj().T / k + c_floor * np.eye(k)
    return fd.FiniteGKLSModel(n=n, H=random_hermitian(rng, n, 0.5), c=c)


def test_gellmann_qubit_is_scaled_paulis():
    F = fd.gellmann_basis(2)
    np.testing.assert_allclose(F[0], SX / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(F[1], SY / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(F[2], SZ / np.sqrt(2), atol=1e-15)


def test_gellmann_orthonormal_traceless():
    for n in range(2, 6):
        F = fd.gellmann_basis(n)
        assert len(F) == n * n - 1
        for i, f in enumerate(F):
            assert abs(np.trace(f)) <= 1e-14
            for j, g in enumerate(F):
                inner = np.trace(g @ f.conj().T)
                assert abs(inner - (1.0 if i == j else 0.0)) <= 1e-14


def test_gellmann_rejects_dimension_one():
    with pytest.raises(ValueError):
        fd.gellmann_basis(1)


def test_model_guards():
    with pytest.raises(ValueError):
        fd.FiniteGKLSModel(n=7, H=np.zeros((7, 7)), c=np.eye(48))
    with pytest.raises(ValueError):
        qubit_model(c=np.diag([1.0, -0.2, 0.0]))
    with pytest.raises(ValueError):
        qubit_model(H=np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_model_refuses_non_finite_entries(bad):
    # a NaN compares False with every tolerance, so it would pass the
    # Hermiticity and PSD checks unrefused
    H = np.zeros((2, 2), dtype=complex)
    H[0, 0] = bad
    c = np.eye(3, dtype=complex)
    c[1, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        qubit_model(H=H)
    with pytest.raises(ValueError, match="must be finite"):
        qubit_model(c=c)


def test_zero_model_gives_zero_generators():
    model = qubit_model(c=np.zeros((3, 3)))
    assert np.abs(fd.build_fd_generators(model).toarray()).max() == 0.0


def test_generator_unitality_trace_preservation_duality():
    rng = np.random.default_rng(51)
    for n in (2, 3):
        model = random_fd_model(rng, n)
        Ls = fd.build_fd_generators(model).toarray()
        Lh = Ls.conj().T
        vec_id = np.eye(n).reshape(n * n, order="F")
        assert np.abs(Lh @ vec_id).max() <= 1e-12
        assert np.abs(vec_id.conj() @ Ls).max() <= 1e-12
        for _ in range(10):
            rho = complex_gaussian(rng, (n, n))
            x = complex_gaussian(rng, (n, n))
            drho = (Ls @ rho.reshape(-1, order="F")).reshape(n, n, order="F")
            dx = (Lh @ x.reshape(-1, order="F")).reshape(n, n, order="F")
            assert abs(np.trace(drho @ x) - np.trace(rho @ dx)) <= 1e-10


def double_loop_generators(model):
    """The c_kj double-loop kron assembly, written out term by term."""
    n = model.n
    I = np.eye(n, dtype=complex)
    comm = np.kron(I, model.H) - np.kron(model.H.T, I)
    heis = 1j * comm
    schr = -1j * comm
    for k, Fk in enumerate(model.F):
        for j, Fj in enumerate(model.F):
            ckj = model.c[k, j]
            Fjd = Fj.conj().T
            FjdFk = Fjd @ Fk
            anti = 0.5 * (np.kron(I, FjdFk) + np.kron(FjdFk.T, I))
            heis += ckj * (np.kron(Fk.T, Fjd) - anti)
            schr += ckj * (np.kron(Fjd.T, Fk) - anti)
    return heis, schr


def test_generators_match_double_loop_formula():
    rng = np.random.default_rng(59)
    models = [random_fd_model(rng, 2), random_fd_model(rng, 3),
              qubit_model(c=np.diag([1.0, 0.0, 0.0]), H=random_hermitian(rng, 2))]
    for model in models:
        schr = fd.build_fd_generators(model).toarray()
        old_heis, old_schr = double_loop_generators(model)
        assert np.abs(schr.conj().T - old_heis).max() <= 1e-12
        assert np.abs(schr - old_schr).max() <= 1e-12


def test_depolarizing_qubit_image():
    model = qubit_model()
    schr = fd.build_fd_generators(model)
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = (schr.toarray() @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert abs(np.trace(out)) <= 1e-14
    np.testing.assert_allclose(out, out.conj().T, atol=1e-14)


def test_complete_positivity_shadow():
    rng = np.random.default_rng(52)
    for _ in range(5):
        model = random_fd_model(rng, 3)
        schr = fd.build_fd_generators(model)
        T = scipy.linalg.expm(schr.toarray() * 0.3)
        psi = complex_gaussian(rng, 3)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        out = (T @ rho.reshape(-1, order="F")).reshape(3, 3, order="F")
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() >= -1e-9


def test_diagonalizing_rotation_leaves_generator_invariant():
    rng = np.random.default_rng(53)
    model = random_fd_model(rng, 2)
    # c = W diag(w) W† makes the dissipator sum_a w_a F'_a rho F'_a† over the
    # rotated basis F'_a = sum_k W_ka F_k: the pairs (F'_a, w_a F'_a)
    w, W = np.linalg.eigh(model.c)
    rotated_F = [sum(W[k, a] * model.F[k] for k in range(3)) for a in range(3)]
    pairs = [(F, w_a * F) for F, w_a in zip(rotated_F, w)]
    G = -1j * model.H - 0.5 * sum(F.conj().T @ B for F, B in pairs)
    built = fd.build_fd_generators(model)
    rotated = generator.gkls_superoperator(G, pairs)
    assert np.abs(built.toarray() - rotated.toarray()).max() <= 1e-10


def test_initial_derivative_qubit_identity_kossakowski():
    model = qubit_model()
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([0.0, 1.0], dtype=complex)
    analytic, numeric = fd.initial_derivative(model, u, v)
    assert analytic == pytest.approx(1.0, abs=1e-12)
    assert abs(analytic - numeric) <= 1e-5 * (1 + abs(analytic))


def test_initial_derivative_single_term():
    model = qubit_model(c=np.diag([1.0, 0.0, 0.0]))
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([0.0, 1.0], dtype=complex)
    analytic, _ = fd.initial_derivative(model, u, v)
    assert analytic == pytest.approx(0.5, abs=1e-12)


def test_initial_derivative_zero_kossakowski():
    model = qubit_model(c=np.zeros((3, 3)))
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([0.0, 1.0], dtype=complex)
    analytic, numeric = fd.initial_derivative(model, u, v)
    assert analytic == 0.0
    assert abs(numeric) <= 1e-6


def test_initial_derivative_degenerate_pair():
    # c = diag(1,0,0) only sees F1 = sx/sqrt(2); the sx eigenvectors give a
    # vanishing derivative, the strictness failure of a rank-one Kossakowski
    model = qubit_model(c=np.diag([1.0, 0.0, 0.0]))
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    analytic, numeric = fd.initial_derivative(model, minus, plus)
    assert abs(analytic) <= 1e-14
    assert abs(numeric) <= 1e-6


def test_initial_derivative_requires_orthogonal_unit_pair():
    model = qubit_model()
    u = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        fd.initial_derivative(model, u, u)
    with pytest.raises(ValueError):
        fd.initial_derivative(model, 2 * u, np.array([0.0, 1.0], dtype=complex))


def test_initial_derivative_matches_fd_oracle_seeded():
    rng = np.random.default_rng(54)
    model = random_fd_model(rng, 2, c_floor=0.05)
    for _ in range(25):
        u = complex_gaussian(rng, 2)
        u /= np.linalg.norm(u)
        v = complex_gaussian(rng, 2)
        v -= np.vdot(u, v) * u
        v /= np.linalg.norm(v)
        analytic, numeric = fd.initial_derivative(model, u, v)
        assert abs(analytic - numeric) <= 1e-5 * (1 + abs(analytic))


def test_probe_strictly_positive_kossakowski():
    model = qubit_model()
    minimum = fd.fd_positivity_probe(model, [0.01, 0.1, 1.0], 200, seed=55)
    assert minimum > 1e-12


def test_probe_positive_for_well_conditioned_kossakowski():
    rng = np.random.default_rng(58)
    for _ in range(3):
        model = random_fd_model(rng, 2, c_floor=0.1)
        assert np.linalg.eigvalsh(model.c).min() >= 0.1
        minimum = fd.fd_positivity_probe(
            model, [0.05, 0.25, 0.5, 1.0], 100, seed=58)
        assert minimum > 0


def test_probe_rejects_time_zero():
    model = qubit_model()
    with pytest.raises(ValueError):
        fd.fd_positivity_probe(model, [0.0, 0.1], 10, seed=56)
    with pytest.raises(ValueError, match="t_grid must not be empty"):
        fd.fd_positivity_probe(model, [], 10, seed=56)


def test_probe_degenerate_kossakowski_not_negative():
    model = qubit_model(c=np.diag([1.0, 0.0, 0.0]))
    minimum = fd.fd_positivity_probe(model, [0.01], 100, seed=57)
    assert minimum >= -1e-12


def test_fd_model_json_decoding():
    obj = {"n": 2, "H": [[0, 0], [0, 0]],
           "c": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "basis": "gellmann"}
    model = fd.fd_model_from_jsonable(**obj)
    assert model.n == 2
    np.testing.assert_allclose(model.c, np.eye(3))
    with pytest.raises(ValueError):
        fd.fd_model_from_jsonable(**{"n": 2, "c": [[1]], "basis": "pauli"})


def per_pair_units(rng, n):
    """The per-vector draw the pair loops consumed before they were blocked."""
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def heisenberg_value(model, T, u, v):
    x = np.outer(u, u.conj()).reshape(model.n ** 2, order="F")
    return float(np.real(np.vdot(v, (T @ x).reshape(model.n, model.n, order="F") @ v)))


def test_probe_minimum_ignores_the_order_and_repeats_of_its_grid():
    model = random_fd_model(np.random.default_rng(61), 3, c_floor=0.1)
    assert fd.fd_positivity_probe(model, [0.5, 0.05, 0.5, 0.2], 30, 7) == \
        fd.fd_positivity_probe(model, [0.05, 0.2, 0.5], 30, 7)


def test_pair_checks_match_per_pair_loops():
    model = random_fd_model(np.random.default_rng(59), 3, c_floor=0.1)
    heis = fd.build_fd_generators(model).toarray().conj().T
    n_pairs, seed, t_grid = 40, 60, [0.05, 0.5]  # 80 columns: two blocks

    rng = np.random.default_rng(seed)
    pairs = [(per_pair_units(rng, 3), per_pair_units(rng, 3)) for _ in range(n_pairs)]
    minimum = min(heisenberg_value(model, scipy.linalg.expm(heis * t), u, v)
                  for t in t_grid for u, v in pairs)
    assert fd.fd_positivity_probe(model, t_grid, n_pairs, seed) == \
        pytest.approx(minimum, rel=1e-12)

    h = fd.FD_STEP
    T_h, T_2h = scipy.linalg.expm(heis * h), scipy.linalg.expm(heis * 2 * h)
    worst = 0.0
    for u, v in pairs:
        v = v - np.vdot(u, v) * u
        v = v / np.linalg.norm(v)
        z = np.array([np.vdot(Fj @ v, u) for Fj in model.F])
        analytic = float(np.real(z.conj() @ model.c @ z))
        numeric = (4.0 * heisenberg_value(model, T_h, u, v)
                   - heisenberg_value(model, T_2h, u, v)) / (2.0 * h)
        worst = max(worst, abs(analytic - numeric) / (1.0 + abs(analytic)))
    # the (4 f(h) - f(2h)) / 2h difference amplifies rounding by about 1/h
    assert abs(fd.fd_derivative_check(model, n_pairs, seed) - worst) <= 1e-12
