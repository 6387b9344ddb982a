import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from gqms import cli, evolution, fock, generator
from gqms import finite_dim as fd
from gqms import model as gm
from helpers import (complex_gaussian, csr_bits, kraus_form_dissipator, kraus_form_lindbladian,
                     random_model, strictly_positive_model)


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
    np.testing.assert_allclose((1j * (ops.G - ops.G0)).toarray(), omega * N, atol=1e-14)
    np.testing.assert_allclose(ops.G.toarray(), (-1j * omega - 0.5) * N, atol=1e-14)


def test_linear_hamiltonian_term():
    model = gm.GaussianModel(d=2, Omega=np.zeros((2, 2)), kappa=np.zeros((2, 2)),
                             zeta=[1.0, 0.0], V=[[1.0, 0.0]], U=[[0.0, 0.0]])
    space = fock.build_space(2, 4)
    ops = generator.build_operators(model, space)
    lad = ops.ladders
    expected = 0.5 * (lad.adag[0] + lad.a[0]).toarray()
    np.testing.assert_allclose((1j * (ops.G - ops.G0)).toarray(), expected, atol=1e-14)


def test_hamiltonian_is_hermitian_for_every_admitted_omega():
    # Omega is Hermitian only within 4.5e-13, inside the model's tolerance;
    # H = (P + P†)/2 is Hermitian by construction all the same.
    Omega = np.array([[1.0, 0.5], [0.5 + 4.5e-13, 1.0]])
    model = gm.GaussianModel(d=2, Omega=Omega, kappa=[[0.3, 0.1], [0.1, 0.0]],
                             zeta=[0.2j, 0.0], V=[[1.0, 0.0]], U=[[0.0, 0.5]])
    ops = generator.build_operators(model, fock.build_space(2, 6))
    H = (1j * (ops.G - ops.G0)).toarray()
    assert np.abs(H - H.conj().T).max() <= 1e-14


def test_operator_invariants_seeded():
    rng = np.random.default_rng(10)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        model = random_model(rng, d, int(rng.integers(1, 2 * d + 1)))
        space = fock.build_space(d, 6 if d == 1 else 4)
        ops = generator.build_operators(model, space)
        H = (1j * (ops.G - ops.G0)).toarray()
        assert np.abs(H - H.conj().T).max() <= 1e-10
        G0 = ops.G0.toarray()
        assert np.linalg.eigvalsh(0.5 * (G0 + G0.conj().T)).max() <= 1e-10
        # grade locality: quadratic pieces connect grades differing by <= 2
        grades = space.grades
        for M in (ops.G, ops.G0):
            coo = M.tocoo()
            assert all(abs(grades[r] - grades[c]) <= 2
                       for r, c in zip(coo.row, coo.col))


def test_amplitude_damping_lindbladian():
    model, space, ops = damping_ops()
    lind = generator.build_lindbladian(ops)
    rho = np.outer(space.basis_vector((1,)), space.basis_vector((1,)))
    out = lind.apply(rho)
    expected = (np.outer(space.vacuum(), space.vacuum()) - rho)
    np.testing.assert_allclose(out, expected, atol=1e-13)


def heisenberg_form(schr, x, v, u):
    """<v, L(x) u> of the Heisenberg generator L, taken by duality from the
    Schrodinger superoperator: tr(x L*(u v†))."""
    return np.trace(x @ schr.apply(np.outer(u, v.conj())))


def heisenberg_map(schr):
    """x -> L(x) by duality, from L* of every matrix unit:
    <e_a, L(x) e_b> = tr(x L*(|e_b><e_a|))."""
    E = np.eye(schr.dim)
    units = np.array([[schr.apply(np.outer(E[b], E[a])) for a in range(schr.dim)]
                      for b in range(schr.dim)])
    return lambda x: np.einsum("cd,badc->ab", x, units)


def test_unitality_and_trace_preservation():
    rng = np.random.default_rng(11)
    model = random_model(rng, 2, 3)
    space = fock.build_space(2, 4)
    ops = generator.build_operators(model, space)
    schr = generator.build_lindbladian(ops)
    out = heisenberg_map(schr)(np.eye(space.D))
    assert np.abs(out).max() <= 1e-10

    for _ in range(5):
        z = complex_gaussian(rng, (space.D, space.D))
        rho = z @ z.conj().T
        rho = rho / np.trace(rho)
        drho = schr.apply(rho)
        assert abs(np.trace(drho)) <= 1e-10
        assert np.abs(drho - drho.conj().T).max() <= 1e-10


def test_duality_of_pictures():
    # L taken by duality on the matrix units is the conjugate transpose of
    # the dense L*, and tr(L*(rho) x) = tr(rho L(x)) for every rho and x
    rng = np.random.default_rng(12)
    model = random_model(rng, 1, 2)
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    schr = generator.build_lindbladian(ops)
    heis = heisenberg_map(schr)
    D = space.D
    x = complex_gaussian(rng, (D, D))
    adjoint = (schr.toarray().conj().T @ x.reshape(D * D, order="F")).reshape(D, D, order="F")
    assert np.abs(heis(x) - adjoint).max() <= 1e-12 * np.abs(adjoint).max()
    dim = space.interior_dim()
    for _ in range(100):
        rho = np.zeros((space.D, space.D), dtype=complex)
        x = np.zeros((space.D, space.D), dtype=complex)
        rho[:dim, :dim] = complex_gaussian(rng, (dim, dim))
        x[:dim, :dim] = complex_gaussian(rng, (dim, dim))
        lhs = np.trace(schr.apply(rho) @ x)
        rhs = np.trace(rho @ heis(x))
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_quadratic_form_unitality():
    model, space, ops = damping_ops()
    schr = generator.build_lindbladian(ops)
    rng = np.random.default_rng(13)
    dim = space.interior_dim()
    for _ in range(5):
        v = np.zeros(space.D, dtype=complex)
        u = np.zeros(space.D, dtype=complex)
        v[:dim] = complex_gaussian(rng, dim)
        u[:dim] = complex_gaussian(rng, dim)
        val = heisenberg_form(schr, np.eye(space.D), v, u)
        assert abs(val) <= 1e-12 * (1 + np.linalg.norm(v) * np.linalg.norm(u))


def test_quadratic_form_damping_number_observable():
    model, space, ops = damping_ops()
    schr = generator.build_lindbladian(ops)
    e1 = space.basis_vector((1,))
    val = heisenberg_form(schr, ops.N.toarray(), e1, e1)
    assert val == pytest.approx(-1.0, abs=1e-12)


def test_quadratic_form_matches_heisenberg_generator():
    # i<Hv, xu> - i<v, xHu> - (1/2) sum_l (<v, x L†L u> - 2 <Lv, x Lu> + <L†L v, x u>)
    rng = np.random.default_rng(14)
    model = random_model(rng, 1, 2)
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    schr = generator.build_lindbladian(ops)
    H = 1j * (ops.G - ops.G0)
    dim = space.interior_dim()
    for _ in range(20):
        x = complex_gaussian(rng, (space.D, space.D))
        v = np.zeros(space.D, dtype=complex)
        u = np.zeros(space.D, dtype=complex)
        v[:dim] = complex_gaussian(rng, dim)
        u[:dim] = complex_gaussian(rng, dim)
        form = 1j * np.vdot(H @ v, x @ u) - 1j * np.vdot(v, x @ (H @ u))
        for Lop in ops.L:
            LdL = Lop.conj().T @ Lop
            form -= 0.5 * (np.vdot(v, x @ (LdL @ u)) - 2.0 * np.vdot(Lop @ v, x @ (Lop @ u))
                           + np.vdot(LdL @ v, x @ u))
        direct = heisenberg_form(schr, x, v, u)
        assert abs(form - direct) <= 1e-9 * (1 + abs(direct))


def test_quadratic_form_conjugate_symmetry():
    # the *-map property L(x†) = L(x)† that the fold rests on, for non-Hermitian x
    rng = np.random.default_rng(15)
    model = random_model(rng, 1, 2)
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    schr = generator.build_lindbladian(ops)
    dim = space.interior_dim()
    x = complex_gaussian(rng, (space.D, space.D))
    v = np.zeros(space.D, dtype=complex)
    u = np.zeros(space.D, dtype=complex)
    v[:dim] = complex_gaussian(rng, dim)
    u[:dim] = complex_gaussian(rng, dim)
    a = heisenberg_form(schr, x, v, u)
    b = heisenberg_form(schr, x.conj().T, u, v)
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


def commutator_form_lindbladian(ops):
    """The H / L†L kron assembly, written out term by term."""
    D = ops.space.D
    I = sp.identity(D, dtype=complex, format="csr")
    H = 1j * (ops.G - ops.G0)
    M = -1j * (sp.kron(I, H) - sp.kron(H.T, I))
    for Lop in ops.L:
        LdL = Lop.conj().T @ Lop
        M = M + sp.kron(Lop.conj(), Lop)
        M = M - 0.5 * sp.kron(I, LdL) - 0.5 * sp.kron(LdL.T, I)
    return M.tocsr()


def drift_krons(X):
    """kron(I, X) + kron(conj X, I): the drift's part of the vectorized generator."""
    I = sp.identity(X.shape[0], dtype=complex, format="csr")
    return (sp.kron(I, X) + sp.kron(X.conj(), I)).tocsr()


def test_drift_assembly_matches_commutator_form():
    # the drift is G, the folded CSR the rest
    rng = np.random.default_rng(17)
    model = random_model(rng, 2, 3)
    space = fock.build_space(2, 5)
    ops = generator.build_operators(model, space)
    new = generator.build_lindbladian(ops)
    old = commutator_form_lindbladian(ops)
    assert abs(new.drift - ops.G).max() == 0
    assert abs(new.matrix - (old - drift_krons(ops.G))[new.fold[0]]).max() <= 1e-12
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
    # the folded CSR is the j <= k rows of the Kraus-form dissipator, and the
    # superoperator unfolds to the whole Kraus-form generator
    for model, N_max in kossakowski_assembly_models():
        space = fock.build_space(model.d, N_max)
        ops = generator.build_operators(model, space)
        D = space.D
        superop = generator.build_lindbladian(ops)
        rows = superop.fold[0]
        np.testing.assert_array_equal(
            rows, [k * D + j for k in range(D) for j in range(k + 1)])
        new = superop.matrix
        old = kraus_form_lindbladian(ops)
        upper = kraus_form_dissipator(ops)[rows]
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
    superop = generator.build_lindbladian(ops)
    X = complex_gaussian(rng, (D, D))
    assert np.abs(X - X.conj().T).max() > 1.0
    expected = (kraus_form_lindbladian(ops) @ X.reshape(D * D, order="F")
                ).reshape(D, D, order="F")
    assert np.abs(superop.apply(X) - expected).max() <= 1e-12 * np.abs(expected).max()


def test_folded_shift_and_norm_match_dense():
    # mu = tr(A)/n and ||A - mu I||_1 of the whole generator, from the folded rows
    rng = np.random.default_rng(25)
    for model, N_max in [(strictly_positive_model(rng, 1), 6),
                         (random_model(rng, 2, 3), 4)]:
        ops = generator.build_operators(model, fock.build_space(model.d, N_max))
        superop = generator.build_lindbladian(ops)
        A = kraus_form_lindbladian(ops).toarray()
        n = A.shape[0]
        mu_ref = np.trace(A) / n
        norm_ref = np.abs(A - mu_ref * np.eye(n)).sum(axis=0).max()
        mu, norm = superop.shift_and_norm
        assert np.isrealobj(mu)
        assert abs(mu - mu_ref) <= 1e-14 * abs(mu_ref)
        assert abs(norm - norm_ref) <= 1e-14 * norm_ref


def closed_form_models():
    """Seeded d = 1, 2, 3 models with their truncations, and the shipped scenarios' operators."""
    rng = np.random.default_rng(42)
    seeded = [generator.build_operators(model, fock.build_space(model.d, N_max))
              for model, N_max in [(strictly_positive_model(rng, 1), 9),
                                   (random_model(rng, 2, 3), 5),
                                   (strictly_positive_model(rng, 3), 3)]]
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    shipped = [cli.validate_config(json.loads(path.read_text())).ops
               for path in sorted(scenarios.glob("*.json"))]
    assert len(shipped) == 2
    return seeded + shipped


def exact_shift_and_norm(superop):
    """mu = tr(A)/n and ||A - mu I||_1 of the dense generator."""
    A = superop.toarray()
    mu = np.trace(A) / A.shape[0]
    return mu, np.abs(A - mu * np.eye(A.shape[0])).sum(axis=0).max()


def test_closed_form_norm_is_exact_on_gaussian_models():
    for ops in closed_form_models():
        superop = generator.build_lindbladian(ops)
        mu, norm = superop.shift_and_norm
        mu_ref, norm_ref = exact_shift_and_norm(superop)
        assert np.isrealobj(mu)
        assert abs(mu - mu_ref) <= 1e-12 * abs(mu_ref)
        assert abs(norm - norm_ref) <= 1e-12 * norm_ref


def test_no_dissipator_entry_shares_a_drift_position():
    # the drift takes |a><b| to rows (i, b) and (a, l); a ladder pair moves
    # both indices, so stored entry (j, k) of column b D + a has j != a and k != b
    for ops in closed_form_models():
        D = ops.space.D
        superop = generator.build_lindbladian(ops)
        M = superop.matrix.tocoo()
        k, j = np.divmod(superop.fold[0][M.row], D)
        b, a = np.divmod(M.col, D)
        assert M.nnz > 0
        assert not np.any((j == a) | (k == b))
        assert superop.trace == 0


def test_closed_form_norm_bounds_the_norm_of_dense_pairs():
    # finite_dim's dense pairs share positions with the drift: the closed
    # form is an upper bound at the same mu
    rng = np.random.default_rng(43)
    for n in (2, 3):
        a = complex_gaussian(rng, (n * n - 1,) * 2)
        model = fd.FiniteGKLSModel(n=n, H=np.diag(np.arange(n) * 0.3), c=a @ a.conj().T / n)
        superop = fd.build_fd_generators(model)
        mu, norm = superop.shift_and_norm
        mu_ref, norm_ref = exact_shift_and_norm(superop)
        assert abs(mu - mu_ref) <= 1e-12 * abs(mu_ref)
        assert norm >= norm_ref
        assert norm > (1 + 1e-6) * norm_ref


def test_grouped_ladder_pairs_match_per_entry_pairs():
    # one pair (s_q, sum_p K_qp s_p) per ladder gives exactly the CSR of the
    # per-entry pairs (s_q, K_qp s_p)
    model = strictly_positive_model(np.random.default_rng(41), 2)
    ops = generator.build_operators(model, fock.build_space(2, 7))
    K = gm.build_kossakowski(model.V, model.U).matrix
    s = list(ops.ladders.a) + list(ops.ladders.adag)
    pairs = [(s[q], K[q, p] * s[p]) for q, p in zip(*np.nonzero(K))]
    assert len(pairs) == 16
    grouped = generator.build_lindbladian(ops).matrix
    per_entry = generator.gkls_superoperator(ops.G, pairs).matrix
    np.testing.assert_array_equal(grouped.indptr, per_entry.indptr)
    np.testing.assert_array_equal(grouped.indices, per_entry.indices)
    np.testing.assert_array_equal(grouped.data, per_entry.data)


def row_order_operators():
    """Seeded d = 1, 2 and 3 models and the models of both shipped scenarios."""
    seeded = [generator.build_operators(strictly_positive_model(np.random.default_rng(42 + d), d),
                                        fock.build_space(d, N_max))
              for d, N_max in ((1, 12), (2, 8), (3, 5))]
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    return seeded + [cli.RunContext(json.loads(path.read_text())).ops
                     for path in sorted(scenarios.glob("*.json"))]


def test_row_ordered_pairs_assemble_without_a_sort(monkeypatch):
    # build_lindbladian's pair order makes every row canonical as written, so
    # no CSR is sorted, and the CSR is that of the pairs in their own order
    sorts, sort = [], sp.csr_matrix.sort_indices
    monkeypatch.setattr(sp.csr_matrix, "sort_indices",
                        lambda self: sorts.append(self.shape) or sort(self))
    unsorted = 0
    for ops in row_order_operators():
        del sorts[:]
        M = generator.build_lindbladian(ops).matrix
        assert sorts == []
        own = generator.gkls_superoperator(ops.G, ops.pairs).matrix
        unsorted += len(sorts)
        assert M.has_canonical_format and csr_bits(M) == csr_bits(own)
    assert unsorted > 0  # the pairs in their own order are sorted


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
    schr = generator.gkls_superoperator(G, pairs)
    rho = complex_gaussian(rng, (D, D))
    x = complex_gaussian(rng, (D, D))
    dense = [(sp.csr_matrix(A).toarray(), sp.csr_matrix(B).toarray()) for A, B in pairs]
    expected = G @ rho + rho @ G.conj().T + sum(B @ rho @ A.conj().T for A, B in dense)
    np.testing.assert_allclose(schr.apply(rho), expected, atol=1e-12)
    # the Heisenberg map x -> G† x + x G + sum_j A_j† x B_j, its adjoint
    heis = G.conj().T @ x + x @ G + sum(A.conj().T @ x @ B for A, B in dense)
    np.testing.assert_allclose(heisenberg_map(schr)(x), heis, atol=1e-12)
    lhs = np.vdot(x, schr.apply(rho))
    rhs = np.vdot(heis, rho)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
    # pairs of nonzero trace: mu = tr(A)/n takes the dissipator's trace
    mu, norm = schr.shift_and_norm
    mu_ref, norm_ref = exact_shift_and_norm(schr)
    assert abs(schr.trace) > 1.0
    assert abs(mu - mu_ref) <= 1e-12 * abs(mu_ref)
    assert norm >= norm_ref


def cancelling_pairs(rng):
    """Drift G, a sparse pair (S, S) and dense pairs (L, L) and (L, -L) that cancel exactly."""
    G = sp.random(6, 6, density=0.3, random_state=1, format="csr")
    S = sp.random(6, 6, density=0.3, random_state=2, format="csr")
    L = complex_gaussian(rng, (6, 6))
    return G, (S, S), [(L, L), (L, -L)]


def assert_same_entries(A, B):
    """The same stored positions, and values equal up to the order of their sums."""
    np.testing.assert_array_equal(A.indptr, B.indptr)
    np.testing.assert_array_equal(A.indices, B.indices)
    assert np.abs(A.data - B.data).max() <= 1e-15 * np.abs(B.data).max()


def test_gkls_drops_exact_zeros():
    # pairs (L, L) and (L, -L) cancel exactly: only the entries of (S, S) remain stored
    G, kept, cancelling = cancelling_pairs(np.random.default_rng(22))
    alone = generator.gkls_superoperator(G, [kept]).matrix
    M = generator.gkls_superoperator(G, cancelling + [kept]).matrix
    assert generator.gkls_superoperator(G, cancelling).matrix.nnz == 0
    assert alone.nnz > 0
    assert np.all(M.data != 0)
    assert_same_entries(M, alone)


def test_assembly_byte_guard_raises_before_allocating(monkeypatch):
    rng = np.random.default_rng(20)
    model = strictly_positive_model(rng, 2)
    space = fock.build_space(2, 13)
    ops = generator.build_operators(model, space)
    # at the shipped block size (one conversion at D = 105), then in many blocks
    for block in (generator.ASSEMBLY_BLOCK, 2 ** 14):
        monkeypatch.setattr(generator, "ASSEMBLY_BLOCK", block)
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
            # the 5565 stored rows of the 11025-row dissipator, which holds 132496 entries
            assert generator.build_lindbladian(ops).matrix.nnz == 66911
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


BLOCK_COO = generator._block_coo


def count_blocks(monkeypatch, block):
    """Set the block size; returns the list that collects each block's (a0, a1)."""
    calls = []
    monkeypatch.setattr(generator, "ASSEMBLY_BLOCK", block)
    monkeypatch.setattr(generator, "_block_coo",
                        lambda terms, a0, a1, D: calls.append((a0, a1)) or BLOCK_COO(terms, a0, a1, D))
    return calls


def assert_same_csr(A, B):
    np.testing.assert_array_equal(A.indptr, B.indptr)
    np.testing.assert_array_equal(A.indices, B.indices)
    np.testing.assert_array_equal(A.data, B.data)


def test_blocked_assembly_peak_memory_bound():
    # D = 220 at the shipped block size: the transient beyond the CSR is one
    # block's triplets and their CSR copy, 44 B each, whatever the total
    model = strictly_positive_model(np.random.default_rng(23), 3)
    ops = generator.build_operators(model, fock.build_space(3, 9))
    tracemalloc.start()
    try:
        M = generator.build_lindbladian(ops).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csr_bytes = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    assert M.nnz > 3 * generator.ASSEMBLY_BLOCK
    assert peak <= 1.05 * (csr_bytes + 44 * generator.ASSEMBLY_BLOCK)


def test_blocked_assembly_is_bit_identical(monkeypatch):
    # D = 105: many blocks give exactly the one-block CSR
    model = strictly_positive_model(np.random.default_rng(24), 2)
    ops = generator.build_operators(model, fock.build_space(2, 13))
    calls = count_blocks(monkeypatch, 2 ** 40)
    whole = generator.build_lindbladian(ops).matrix
    assert calls == [(0, 105)]
    calls = count_blocks(monkeypatch, 2 ** 10)
    blocked = generator.build_lindbladian(ops).matrix
    assert len(calls) > 40 and calls[-1][1] == 105
    assert_same_csr(blocked, whole)


def test_blocked_finite_assembly_is_bit_identical(monkeypatch):
    # n = 3, dense drift and pairs: one row a of P per block
    rng = np.random.default_rng(25)
    a = complex_gaussian(rng, (8, 8))
    model = fd.FiniteGKLSModel(n=3, H=np.diag([0.3, -0.1, 0.2]), c=a @ a.conj().T / 8)
    count_blocks(monkeypatch, 2 ** 40)
    whole = fd.build_fd_generators(model)
    calls = count_blocks(monkeypatch, 1)
    blocked = fd.build_fd_generators(model)
    assert calls == [(0, 1), (1, 2), (2, 3)]
    assert_same_csr(blocked.matrix, whole.matrix)


def test_gkls_drops_exact_zeros_across_blocks(monkeypatch):
    # the cancelling pairs of test_gkls_drops_exact_zeros, one row a of P per block
    G, kept, cancelling = cancelling_pairs(np.random.default_rng(22))
    count_blocks(monkeypatch, 2 ** 40)
    whole = generator.gkls_superoperator(G, cancelling + [kept]).matrix
    calls = count_blocks(monkeypatch, 1)
    alone = generator.gkls_superoperator(G, [kept]).matrix
    del calls[:]
    M = generator.gkls_superoperator(G, cancelling + [kept]).matrix
    assert len(calls) == 6
    assert np.all(M.data != 0)
    assert_same_entries(M, alone)
    assert_same_csr(M, whole)
