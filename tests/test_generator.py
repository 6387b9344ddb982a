import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from gqms import evolution, fock, generator
from gqms import model as gm
from helpers import (complex_gaussian, kraus_form_lindbladian, random_model,
                     strictly_positive_model)


def damping_ops(N_max=6):
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, N_max)
    return model, space, generator.build_operators(model, space)


def test_pure_damping_assembly():
    model, space, ops = damping_ops()
    lad = ops.ladders
    np.testing.assert_allclose(ops.L[0].toarray(), lad.a[0].toarray())
    np.testing.assert_allclose(ops.G0.toarray(), -0.5 * lad.N.toarray(), atol=1e-14)
    np.testing.assert_allclose(ops.G.toarray(), -0.5 * lad.N.toarray(), atol=1e-14)


def test_hamiltonian_assembly_single_mode():
    omega = 0.8
    model = gm.GaussianModel(d=1, Omega=[[omega]], kappa=[[0.0]], zeta=[0.0],
                             V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    N = ops.ladders.N.toarray()
    np.testing.assert_allclose(ops.H.toarray(), omega * N, atol=1e-14)
    np.testing.assert_allclose(ops.G.toarray(), (-1j * omega - 0.5) * N, atol=1e-14)


def test_linear_hamiltonian_term():
    model = gm.GaussianModel(d=2, Omega=np.zeros((2, 2)), kappa=np.zeros((2, 2)),
                             zeta=[1.0, 0.0], V=[[1.0, 0.0]], U=[[0.0, 0.0]])
    space = fock.build_space(2, 4)
    ops = generator.build_operators(model, space)
    lad = ops.ladders
    expected = 0.5 * (lad.adag[0] + lad.a[0]).toarray()
    np.testing.assert_allclose(ops.H.toarray(), expected, atol=1e-14)


def test_operator_invariants_seeded():
    rng = np.random.default_rng(10)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        model = random_model(rng, d, int(rng.integers(1, 2 * d + 1)))
        space = fock.build_space(d, 6 if d == 1 else 4)
        ops = generator.build_operators(model, space)
        H = ops.H.toarray()
        assert np.abs(H - H.conj().T).max() <= 1e-10
        G0 = ops.G0.toarray()
        assert np.linalg.eigvalsh(0.5 * (G0 + G0.conj().T)).max() <= 1e-10
        np.testing.assert_allclose(
            ops.G.toarray(), -1j * H + G0, atol=1e-12)
        # grade locality: quadratic pieces connect grades differing by <= 2
        grades = space.grades
        for M in (ops.H, ops.G, ops.G0):
            coo = M.tocoo()
            assert all(abs(grades[r] - grades[c]) <= 2
                       for r, c in zip(coo.row, coo.col))


def test_amplitude_damping_lindbladian():
    model, space, ops = damping_ops()
    lind = generator.build_lindbladian(ops, "schrodinger")
    rho = np.outer(space.basis_vector((1,)), space.basis_vector((1,)))
    out = lind.apply(rho)
    expected = (np.outer(space.vacuum(), space.vacuum()) - rho)
    np.testing.assert_allclose(out, expected, atol=1e-13)


def test_unitality_and_trace_preservation():
    rng = np.random.default_rng(11)
    model = random_model(rng, 2, 3)
    space = fock.build_space(2, 4)
    ops = generator.build_operators(model, space)
    heis = generator.build_lindbladian(ops, "heisenberg")
    out = heis.apply(np.eye(space.D))
    assert np.abs(out).max() <= 1e-10

    schr = generator.build_lindbladian(ops, "schrodinger")
    for _ in range(5):
        z = complex_gaussian(rng, (space.D, space.D))
        rho = z @ z.conj().T
        rho = rho / np.trace(rho)
        drho = schr.apply(rho)
        assert abs(np.trace(drho)) <= 1e-10
        assert np.abs(drho - drho.conj().T).max() <= 1e-10


def test_duality_of_pictures():
    rng = np.random.default_rng(12)
    model = random_model(rng, 1, 2)
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    heis = generator.build_lindbladian(ops, "heisenberg")
    schr = generator.build_lindbladian(ops, "schrodinger")
    dim = space.interior_dim()
    for _ in range(100):
        rho = np.zeros((space.D, space.D), dtype=complex)
        x = np.zeros((space.D, space.D), dtype=complex)
        rho[:dim, :dim] = complex_gaussian(rng, (dim, dim))
        x[:dim, :dim] = complex_gaussian(rng, (dim, dim))
        lhs = np.trace(schr.apply(rho) @ x)
        rhs = np.trace(rho @ heis.apply(x))
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_bad_picture_rejected():
    model, space, ops = damping_ops()
    with pytest.raises(ValueError):
        generator.build_lindbladian(ops, "both")


def heisenberg_form(heis, x, v, u):
    """<v, L(x) u> from the Heisenberg superoperator."""
    return np.vdot(v, heis.apply(x) @ u)


def test_quadratic_form_unitality():
    model, space, ops = damping_ops()
    heis = generator.build_lindbladian(ops, "heisenberg")
    rng = np.random.default_rng(13)
    dim = space.interior_dim()
    for _ in range(5):
        v = np.zeros(space.D, dtype=complex)
        u = np.zeros(space.D, dtype=complex)
        v[:dim] = complex_gaussian(rng, dim)
        u[:dim] = complex_gaussian(rng, dim)
        val = heisenberg_form(heis, np.eye(space.D), v, u)
        assert abs(val) <= 1e-12 * (1 + np.linalg.norm(v) * np.linalg.norm(u))


def test_quadratic_form_damping_number_observable():
    model, space, ops = damping_ops()
    heis = generator.build_lindbladian(ops, "heisenberg")
    e1 = space.basis_vector((1,))
    val = heisenberg_form(heis, ops.N.toarray(), e1, e1)
    assert val == pytest.approx(-1.0, abs=1e-12)


def test_quadratic_form_matches_heisenberg_generator():
    # i<Hv, xu> - i<v, xHu> - (1/2) sum_l (<v, x L†L u> - 2 <Lv, x Lu> + <L†L v, x u>)
    rng = np.random.default_rng(14)
    model = random_model(rng, 1, 2)
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    heis = generator.build_lindbladian(ops, "heisenberg")
    dim = space.interior_dim()
    for _ in range(20):
        x = complex_gaussian(rng, (space.D, space.D))
        v = np.zeros(space.D, dtype=complex)
        u = np.zeros(space.D, dtype=complex)
        v[:dim] = complex_gaussian(rng, dim)
        u[:dim] = complex_gaussian(rng, dim)
        form = 1j * np.vdot(ops.H @ v, x @ u) - 1j * np.vdot(v, x @ (ops.H @ u))
        for Lop in ops.L:
            LdL = Lop.conj().T @ Lop
            form -= 0.5 * (np.vdot(v, x @ (LdL @ u)) - 2.0 * np.vdot(Lop @ v, x @ (Lop @ u))
                           + np.vdot(LdL @ v, x @ u))
        direct = heisenberg_form(heis, x, v, u)
        assert abs(form - direct) <= 1e-9 * (1 + abs(direct))


def test_quadratic_form_conjugate_symmetry():
    # the *-map property L(x†) = L(x)† that the fold rests on, for non-Hermitian x
    rng = np.random.default_rng(15)
    model = random_model(rng, 1, 2)
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    heis = generator.build_lindbladian(ops, "heisenberg")
    dim = space.interior_dim()
    x = complex_gaussian(rng, (space.D, space.D))
    v = np.zeros(space.D, dtype=complex)
    u = np.zeros(space.D, dtype=complex)
    v[:dim] = complex_gaussian(rng, dim)
    u[:dim] = complex_gaussian(rng, dim)
    a = heisenberg_form(heis, x, v, u)
    b = heisenberg_form(heis, x.conj().T, u, v)
    assert abs(a - np.conj(b)) <= 1e-10 * (1 + abs(a))


def test_dissipation_identity_vacuum():
    model = gm.quadratic_free_model(1, V=[[1.0], [0.0]], U=[[0.0], [1.0]])
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    lhs, rhs = generator.dissipation_quadratic_identity(ops, space.vacuum())
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)

    zero = np.zeros(space.D, dtype=complex)
    assert generator.dissipation_quadratic_identity(ops, zero) == (0.0, 0.0)


def test_dissipation_identity_seeded():
    rng = np.random.default_rng(16)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        model = strictly_positive_model(rng, d)
        space = fock.build_space(d, 6 if d == 1 else 4)
        ops = generator.build_operators(model, space)
        dim = space.interior_dim()
        xi = np.zeros(space.D, dtype=complex)
        xi[:dim] = complex_gaussian(rng, dim)
        xi /= np.linalg.norm(xi)
        lhs, rhs = generator.dissipation_quadratic_identity(ops, xi)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def commutator_form_lindbladian(ops, picture):
    """The H / L†L kron assembly, written out term by term."""
    D = ops.space.D
    I = sp.identity(D, dtype=complex, format="csr")
    H = ops.H
    comm = sp.kron(I, H) - sp.kron(H.T, I)
    M = (1j if picture == "heisenberg" else -1j) * comm
    for Lop in ops.L:
        Ld = Lop.conj().T
        LdL = Ld @ Lop
        if picture == "schrodinger":
            M = M + sp.kron(Lop.conj(), Lop)
        else:
            M = M + sp.kron(Lop.T, Ld)
        M = M - 0.5 * sp.kron(I, LdL) - 0.5 * sp.kron(LdL.T, I)
    return M.tocsr()


def test_drift_assembly_matches_commutator_form():
    rng = np.random.default_rng(17)
    model = random_model(rng, 2, 3)
    space = fock.build_space(2, 5)
    ops = generator.build_operators(model, space)
    for picture in generator.PICTURES:
        new = generator.build_lindbladian(ops, picture)
        old = commutator_form_lindbladian(ops, picture)
        assert abs(new.matrix - old[new.fold[0]]).max() <= 1e-12
        assert np.abs(new.toarray() - old.toarray()).max() <= 1e-12


def kossakowski_assembly_models():
    rng = np.random.default_rng(18)
    damping = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    return [
        (strictly_positive_model(rng, 2), 5),
        (strictly_positive_model(rng, 3), 4),
        (damping, 8),  # m = 1 < 2d, K of rank 1
        (random_model(rng, 2, 6), 5),  # non-minimal, m > 2d
    ]


def test_kossakowski_assembly_matches_kraus_form():
    # the folded CSR is the j <= k rows of the Kraus-form kron sum, and unfolds to all of it
    for model, N_max in kossakowski_assembly_models():
        space = fock.build_space(model.d, N_max)
        ops = generator.build_operators(model, space)
        D = space.D
        for picture in generator.PICTURES:
            superop = generator.build_lindbladian(ops, picture)
            rows = superop.fold[0]
            np.testing.assert_array_equal(
                rows, [k * D + j for k in range(D) for j in range(k + 1)])
            new = superop.matrix
            old = kraus_form_lindbladian(ops, picture)
            upper = old[rows]
            assert new.shape == (D * (D + 1) // 2, D * D)
            assert new.has_canonical_format
            assert new.nnz == upper.nnz
            np.testing.assert_array_equal(new.indptr, upper.indptr)
            np.testing.assert_array_equal(new.indices, upper.indices)
            assert abs(new - upper).max() <= 1e-12 * abs(old).max()
            assert np.abs(superop.toarray() - old.toarray()).max() <= 1e-12 * abs(old).max()


def test_apply_non_hermitian_matches_dense_product():
    rng = np.random.default_rng(24)
    model = random_model(rng, 2, 3)
    space = fock.build_space(2, 4)
    ops = generator.build_operators(model, space)
    D = space.D
    for picture in generator.PICTURES:
        superop = generator.build_lindbladian(ops, picture)
        X = complex_gaussian(rng, (D, D))
        assert np.abs(X - X.conj().T).max() > 1.0
        expected = (kraus_form_lindbladian(ops, picture) @ X.reshape(D * D, order="F")
                    ).reshape(D, D, order="F")
        assert np.abs(superop.apply(X) - expected).max() <= 1e-12 * np.abs(expected).max()


def test_folded_shift_and_norm_match_dense():
    # mu = tr(A)/n and ||A - mu I||_1 of the whole generator, from the folded rows
    rng = np.random.default_rng(25)
    for model, N_max in [(strictly_positive_model(rng, 1), 6),
                         (random_model(rng, 2, 3), 4)]:
        ops = generator.build_operators(model, fock.build_space(model.d, N_max))
        superop = generator.build_lindbladian(ops)
        A = kraus_form_lindbladian(ops, "schrodinger").toarray()
        n = A.shape[0]
        mu_ref = np.trace(A) / n
        norm_ref = np.abs(A - mu_ref * np.eye(n)).sum(axis=0).max()
        mu, norm = evolution._shift_and_norm(superop.matrix, superop)
        assert np.isrealobj(mu)
        assert abs(mu - mu_ref) <= 1e-14 * abs(mu_ref)
        assert abs(norm - norm_ref) <= 1e-14 * norm_ref


def test_grouped_ladder_pairs_match_per_entry_pairs():
    # one pair (s_q, sum_p K_qp s_p) per ladder gives exactly the CSR of the
    # per-entry pairs (s_q, K_qp s_p)
    model = strictly_positive_model(np.random.default_rng(41), 2)
    ops = generator.build_operators(model, fock.build_space(2, 7))
    K = gm.build_kossakowski(model.V, model.U).matrix
    s = list(ops.ladders.a) + list(ops.ladders.adag)
    pairs = [(s[q], K[q, p] * s[p]) for q, p in zip(*np.nonzero(K))]
    assert len(pairs) == 16
    for picture in generator.PICTURES:
        grouped = generator.build_lindbladian(ops, picture).matrix
        per_entry = generator.gkls_superoperator(ops.G, pairs, picture).matrix
        np.testing.assert_array_equal(grouped.indptr, per_entry.indptr)
        np.testing.assert_array_equal(grouped.indices, per_entry.indices)
        np.testing.assert_array_equal(grouped.data, per_entry.data)


def test_gkls_pairs_heisenberg_is_adjoint():
    rng = np.random.default_rng(19)
    D = 5
    G = complex_gaussian(rng, (D, D))
    # sparse A_j, dense B_j, A_j != B_j; closed under A_j <-> B_j, so the map
    # preserves Hermiticity
    half = [(sp.random(D, D, density=0.4, random_state=k, format="csr")
             * complex_gaussian(rng, ()), complex_gaussian(rng, (D, D)))
            for k in range(3)]
    pairs = half + [(B, A) for A, B in half]
    schr = generator.gkls_superoperator(G, pairs, "schrodinger")
    heis = generator.gkls_superoperator(G, pairs, "heisenberg")
    assert np.abs(heis.toarray() - schr.toarray().conj().T).max() <= 1e-12
    rho = complex_gaussian(rng, (D, D))
    x = complex_gaussian(rng, (D, D))
    dense = [(sp.csr_matrix(A).toarray(), sp.csr_matrix(B).toarray()) for A, B in pairs]
    expected = G @ rho + rho @ G.conj().T + sum(B @ rho @ A.conj().T for A, B in dense)
    np.testing.assert_allclose(schr.apply(rho), expected, atol=1e-12)
    lhs = np.vdot(x, schr.apply(rho))
    rhs = np.vdot(heis.apply(x), rho)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_gkls_drops_exact_zeros():
    # pairs (L, L) and (L, -L) cancel exactly: only the drift terms remain stored
    rng = np.random.default_rng(22)
    G = sp.random(6, 6, density=0.3, random_state=1, format="csr")
    L = complex_gaussian(rng, (6, 6))
    drift = generator.gkls_superoperator(G, []).matrix
    for picture in generator.PICTURES:
        M = generator.gkls_superoperator(G, [(L, L), (L, -L)], picture).matrix
        assert M.nnz == drift.nnz
        assert np.all(M.data != 0)


def test_assembly_byte_guard_raises_before_allocating(monkeypatch):
    rng = np.random.default_rng(20)
    model = strictly_positive_model(rng, 2)
    space = fock.build_space(2, 13)
    ops = generator.build_operators(model, space)
    monkeypatch.setattr(generator, "ASSEMBLY_MAX_BYTES", 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bytes") as err:
            generator.build_lindbladian(ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    needed = int(re.search(r"needs (\d+) bytes", str(err.value)).group(1))
    assert needed > 2 ** 20
    assert peak < needed / 10
    monkeypatch.setattr(generator, "ASSEMBLY_MAX_BYTES", needed)
    tracemalloc.start()
    try:
        # the 5565 stored rows of the 11025-row generator, which holds 356461 entries
        assert generator.build_lindbladian(ops).matrix.nnz == 179960
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the figure the guard names is the peak of the assembly it admits
    assert 0.9 * needed <= peak <= 1.05 * needed


def test_assembly_peak_memory_bound():
    # D = 105: the transient of one assembly stays within 2.5x the CSR it returns
    rng = np.random.default_rng(21)
    model = strictly_positive_model(rng, 2)
    space = fock.build_space(2, 13)
    ops = generator.build_operators(model, space)
    generator.build_lindbladian(ops)
    tracemalloc.start()
    try:
        M = generator.build_lindbladian(ops).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csr_bytes = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    assert peak <= 2.5 * csr_bytes
