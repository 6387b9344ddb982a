import numpy as np
import pytest

from gqms import model as gm
from gqms import serialize
from helpers import haar_unitary, random_hermitian, random_model, random_vu


def test_kossakowski_identity_block():
    K = gm.build_kossakowski([[1.0], [0.0]], [[0.0], [1.0]])
    np.testing.assert_allclose(K.matrix, np.eye(2), atol=1e-15)
    assert K.eps0 == pytest.approx(1.0)
    assert K.rank == 2
    assert K.strictly_positive


def test_kossakowski_annihilation_only():
    d = 3
    K = gm.build_kossakowski(np.eye(d), np.zeros((d, d)))
    expected = np.block([
        [np.eye(d), np.zeros((d, d))],
        [np.zeros((d, d)), np.zeros((d, d))],
    ])
    np.testing.assert_allclose(K.matrix, expected, atol=1e-15)
    assert K.eps0 == pytest.approx(0.0, abs=1e-12)
    assert K.rank == d
    assert not K.strictly_positive


def test_kossakowski_rank_one():
    K = gm.build_kossakowski([[1.0]], [[1.0]])
    np.testing.assert_allclose(K.matrix, np.ones((2, 2)), atol=1e-15)
    w = np.linalg.eigvalsh(K.matrix)
    np.testing.assert_allclose(w, [0.0, 2.0], atol=1e-12)
    assert K.rank == 1


def test_kossakowski_factorization_seeded():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 2 * d + 1))
        V, U = random_vu(rng, d, m)
        K = gm.build_kossakowski(V, U)
        B = gm.kossakowski_factor(V, U)
        assert np.abs(K.matrix - B @ B.conj().T).max() <= 1e-12
        assert np.abs(K.matrix - K.matrix.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(K.matrix).min() >= -1e-10
        assert K.rank <= min(m, 2 * d)


def test_kossakowski_shape_mismatch():
    with pytest.raises(ValueError):
        gm.build_kossakowski(np.ones((2, 1)), np.ones((3, 1)))


def test_minimality_examples():
    assert gm.check_minimality([[1.0]], [[1.0]])
    # x = (1, -1) lies in ker(V*) and ker(U^T)
    assert not gm.check_minimality([[1.0], [1.0]], [[0.0], [0.0]])
    assert gm.check_minimality(np.eye(2), np.zeros((2, 2)))


def test_minimality_matches_kossakowski_rank():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 2 * d + 1))
        V, U = random_vu(rng, d, m)
        K = gm.build_kossakowski(V, U)
        assert gm.check_minimality(V, U) == (K.rank == m)


def test_mix_kraus_identity_and_swap():
    m = gm.quadratic_free_model(1, V=[[1.0], [0.0]], U=[[0.0], [1.0]])
    same = gm.mix_kraus(m, np.eye(2))
    np.testing.assert_allclose(same.V, m.V)
    np.testing.assert_allclose(same.U, m.U)

    swap = gm.mix_kraus(m, np.array([[0.0, 1.0], [1.0, 0.0]]))
    K = gm.build_kossakowski(swap.V, swap.U)
    np.testing.assert_allclose(K.matrix, np.eye(2), atol=1e-14)


def test_mix_kraus_haar_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 2 * d + 1))
        model = random_model(rng, d, m)
        K = gm.build_kossakowski(model.V, model.U)
        mixed = gm.mix_kraus(model, haar_unitary(rng, m))
        K2 = gm.build_kossakowski(mixed.V, mixed.U)
        assert np.abs(K2.matrix - K.matrix).max() <= 1e-10


def test_mix_kraus_rejects_non_unitary():
    m = gm.quadratic_free_model(1, V=[[1.0], [0.0]], U=[[0.0], [1.0]])
    with pytest.raises(ValueError):
        gm.mix_kraus(m, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_bogoliubov_pair_validation():
    gm.BogoliubovPair(E=np.eye(2), F=np.zeros((2, 2)))
    r = 0.5
    gm.BogoliubovPair(E=[[np.cosh(r)]], F=[[np.sinh(r)]])
    with pytest.raises(ValueError):
        gm.BogoliubovPair(E=2 * np.eye(2), F=np.zeros((2, 2)))


def test_bogoliubov_identity_transform():
    rng = np.random.default_rng(4)
    model = random_model(rng, 2, 3)
    pair = gm.BogoliubovPair(E=np.eye(2), F=np.zeros((2, 2)))
    out = gm.bogoliubov_transform(model, pair)
    np.testing.assert_allclose(out.V, model.V, atol=1e-14)
    np.testing.assert_allclose(out.U, model.U, atol=1e-14)
    np.testing.assert_allclose(out.Omega, model.Omega, atol=1e-14)
    np.testing.assert_allclose(out.kappa, model.kappa, atol=1e-14)
    np.testing.assert_allclose(out.zeta, model.zeta, atol=1e-14)


def test_bogoliubov_congruence_single_mode():
    r = 0.5
    pair = gm.BogoliubovPair(E=[[np.cosh(r)]], F=[[np.sinh(r)]])
    model = gm.GaussianModel(
        d=1, Omega=[[0.3]], kappa=[[0.1j]], zeta=[0.2],
        V=[[1.0], [0.0]], U=[[0.0], [1.0]])
    K = gm.build_kossakowski(model.V, model.U)
    out = gm.bogoliubov_transform(model, pair)
    K2 = gm.build_kossakowski(out.V, out.U)
    T = pair.mode_matrix()
    np.testing.assert_allclose(K2.matrix, T @ K.matrix @ T.conj().T, atol=1e-12)
    assert K2.strictly_positive == K.strictly_positive


def test_bogoliubov_congruence_and_verdict_seeded():
    rng = np.random.default_rng(5)
    for seed in range(10):
        d = int(rng.integers(1, 4))
        model = random_model(rng, d, 2 * d)
        pair = gm.generate_bogoliubov(d, seed, squeeze=0.4)
        K = gm.build_kossakowski(model.V, model.U)
        out = gm.bogoliubov_transform(model, pair)
        K2 = gm.build_kossakowski(out.V, out.U)
        T = pair.mode_matrix()
        assert np.abs(K2.matrix - T @ K.matrix @ T.conj().T).max() <= 1e-10
        assert K2.strictly_positive == K.strictly_positive
        # model invariants survive the transformation
        np.testing.assert_allclose(out.Omega, out.Omega.conj().T, atol=1e-10)
        np.testing.assert_allclose(out.kappa, out.kappa.T, atol=1e-10)


def test_bogoliubov_hamiltonian_data_single_mode_oracle():
    # real squeeze: a = E b + F b† turns omega a†a into
    # omega (E^2 + F^2) b†b + omega E F (b†b† + bb) + const
    r, omega, zeta = 0.4, 0.9, 0.3
    E, F = np.cosh(r), np.sinh(r)
    pair = gm.BogoliubovPair(E=[[E]], F=[[F]])
    model = gm.GaussianModel(d=1, Omega=[[omega]], kappa=[[0.0]], zeta=[zeta],
                             V=[[1.0]], U=[[0.0]])
    out = gm.bogoliubov_transform(model, pair)
    assert out.Omega[0, 0] == pytest.approx(omega * (E ** 2 + F ** 2))
    assert out.kappa[0, 0] == pytest.approx(2 * omega * E * F)
    assert out.zeta[0] == pytest.approx(zeta * (E + F))


def test_bogoliubov_inverse_round_trip():
    r = 0.4
    pair = gm.BogoliubovPair(E=[[np.cosh(r)]], F=[[np.sinh(r)]])
    inverse = gm.BogoliubovPair(E=[[np.cosh(r)]], F=[[-np.sinh(r)]])
    rng = np.random.default_rng(44)
    model = random_model(rng, 1, 2)
    back = gm.bogoliubov_transform(gm.bogoliubov_transform(model, pair), inverse)
    np.testing.assert_allclose(back.V, model.V, atol=1e-12)
    np.testing.assert_allclose(back.U, model.U, atol=1e-12)
    np.testing.assert_allclose(back.Omega, model.Omega, atol=1e-12)
    np.testing.assert_allclose(back.kappa, model.kappa, atol=1e-12)
    np.testing.assert_allclose(back.zeta, model.zeta, atol=1e-12)


def test_generate_bogoliubov_constraints():
    for d in (1, 2, 3):
        for seed in (0, 1, 7):
            pair = gm.generate_bogoliubov(d, seed)
            E, F = pair.E, pair.F
            assert np.abs(E.conj().T @ E - F.conj().T @ F - np.eye(d)).max() <= 1e-10
            assert np.abs(E.T @ F - F.T @ E).max() <= 1e-10


def test_generate_bogoliubov_zero_squeeze():
    pair = gm.generate_bogoliubov(1, seed=9, squeeze=0.0)
    assert np.abs(pair.F).max() <= 1e-14


def test_two_boson_identity_bath():
    model = gm.two_boson_model(
        gamma_minus=np.eye(2), gamma_plus=np.eye(2), Omega=np.zeros((2, 2)))
    assert model.d == 2 and model.m == 4
    K = gm.build_kossakowski(model.V, model.U)
    np.testing.assert_allclose(K.matrix, np.eye(4), atol=1e-12)
    assert K.strictly_positive
    np.testing.assert_allclose(model.kappa, np.zeros((2, 2)))
    np.testing.assert_allclose(model.zeta, np.zeros(2))


def test_two_boson_singular_bath():
    model = gm.two_boson_model(
        gamma_minus=np.diag([1.0, 0.0]), gamma_plus=np.eye(2),
        Omega=np.zeros((2, 2)))
    K = gm.build_kossakowski(model.V, model.U)
    assert K.eps0 == pytest.approx(0.0, abs=1e-12)
    assert not K.strictly_positive


def test_two_boson_spectral_reconstruction():
    model = gm.two_boson_model(
        gamma_minus=np.diag([2.0, 1.0]), gamma_plus=np.eye(2),
        Omega=np.zeros((2, 2)))
    np.testing.assert_allclose(np.abs(model.V[:2]),
                               [[np.sqrt(2), 0.0], [0.0, 1.0]], atol=1e-12)
    K = gm.build_kossakowski(model.V, model.U)
    np.testing.assert_allclose(K.matrix[:2, :2], np.diag([2.0, 1.0]), atol=1e-12)


def test_two_boson_block_diagonal_for_complex_gammas():
    rng = np.random.default_rng(6)
    for _ in range(10):
        gm_minus = random_hermitian(rng, 2)
        gm_minus = gm_minus @ gm_minus.conj().T  # PSD
        gm_plus = random_hermitian(rng, 2)
        gm_plus = gm_plus @ gm_plus.conj().T
        model = gm.two_boson_model(
            gamma_minus=gm_minus, gamma_plus=gm_plus,
            Omega=random_hermitian(rng, 2))
        K = gm.build_kossakowski(model.V, model.U)
        expected = np.block([
            [gm_minus, np.zeros((2, 2))],
            [np.zeros((2, 2)), gm_plus],
        ])
        assert np.abs(K.matrix - expected).max() <= 1e-10


def test_two_boson_rejects_non_psd():
    with pytest.raises(ValueError):
        gm.two_boson_model(gamma_minus=np.diag([1.0, -0.5]),
                           gamma_plus=np.eye(2), Omega=np.zeros((2, 2)))


def test_two_boson_rejects_a_wrong_shape_and_a_non_hermitian_omega():
    with pytest.raises(ValueError, match="gamma_plus must be 2 x 2"):
        gm.two_boson_model(gamma_minus=np.eye(2), gamma_plus=np.eye(3),
                           Omega=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="Omega must be Hermitian"):
        gm.two_boson_model(gamma_minus=np.eye(2), gamma_plus=np.eye(2),
                           Omega=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_model_validation():
    with pytest.raises(ValueError):
        gm.GaussianModel(d=1, Omega=[[1j]], kappa=[[0.0]], zeta=[0.0],
                         V=[[1.0]], U=[[0.0]])
    with pytest.raises(ValueError):
        gm.quadratic_free_model(1, V=[[0.0]], U=[[0.0]])


@pytest.mark.parametrize("field", ["Omega", "kappa", "zeta", "V", "U"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_refuses_non_finite_data(field, value):
    data = {"d": 1, "Omega": [[0.0]], "kappa": [[0.0]], "zeta": [0.0], "V": [[1.0]], "U": [[0.0]]}
    data[field] = np.full(np.shape(data[field]), value)
    with pytest.raises(ValueError, match="finite"):
        gm.GaussianModel(**data)


def test_strict_positivity_requires_full_kraus_count():
    rng = np.random.default_rng(7)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 2 * d + 1))
        V, U = random_vu(rng, d, m)
        K = gm.build_kossakowski(V, U)
        if K.eps0 > 1e-10:
            assert m == 2 * d


def test_json_round_trip():
    rng = np.random.default_rng(8)
    model = random_model(rng, 2, 3)
    fields = {"omega": model.Omega, "kappa": model.kappa, "zeta": model.zeta,
              "V": model.V, "U": model.U}
    decoded = gm.model_from_jsonable(
        d=model.d, **{k: serialize.complex_to_pairs(v) for k, v in fields.items()})
    np.testing.assert_allclose(decoded.Omega, model.Omega, atol=1e-15)
    np.testing.assert_allclose(decoded.kappa, model.kappa, atol=1e-15)
    np.testing.assert_allclose(decoded.zeta, model.zeta, atol=1e-15)
    np.testing.assert_allclose(decoded.V, model.V, atol=1e-15)
    np.testing.assert_allclose(decoded.U, model.U, atol=1e-15)
