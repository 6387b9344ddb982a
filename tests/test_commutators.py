import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from gqms import cli, commutators, evolution, fock, generator
from gqms import model as gm
from helpers import (complex_gaussian, csr_bits, haar_unitary, random_model,
                     strictly_positive_model)

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def test_adjoint_action_pure_damping():
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    action = commutators.adjoint_action(model)
    np.testing.assert_allclose(action.M, np.diag([0.0, 0.5, -0.5]), atol=1e-14)


def test_adjoint_action_first_column_vanishes():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        model = random_model(rng, d, int(rng.integers(1, 2 * d + 1)))
        action = commutators.adjoint_action(model)
        assert np.abs(action.M[:, 0]).max() == 0.0


def test_adjoint_action_rotating_damped_mode():
    omega = 0.6
    model = gm.GaussianModel(d=1, Omega=[[omega]], kappa=[[0.0]], zeta=[0.0],
                             V=[[1.0]], U=[[0.0]])
    action = commutators.adjoint_action(model)
    eigs = np.linalg.eigvals(action.M[1:, 1:])
    expected = np.array([1j * omega + 0.5, -(1j * omega + 0.5)])
    assert min(abs(eigs[0] - expected[0]), abs(eigs[0] - expected[1])) <= 1e-12
    assert min(abs(eigs[1] - expected[0]), abs(eigs[1] - expected[1])) <= 1e-12


def test_iterated_commutator_order_zero_is_kraus_row():
    rng = np.random.default_rng(32)
    model = random_model(rng, 2, 3)
    action = commutators.adjoint_action(model)
    for ell in range(model.m):
        coeffs = commutators.iterated_commutator(action, ell, 0).coeffs
        assert coeffs[0] == 0.0
        np.testing.assert_allclose(coeffs[1:3], model.V[ell].conj())
        np.testing.assert_allclose(coeffs[3:], model.U[ell])


def test_iterated_commutator_repeated_halving():
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    action = commutators.adjoint_action(model)
    coeffs = commutators.iterated_commutator(action, 0, 3).coeffs
    np.testing.assert_allclose(coeffs, [0.0, 0.125, 0.0])


def test_iterated_commutator_zero_row_stays_zero():
    model = gm.quadratic_free_model(1, V=[[1.0], [0.0]], U=[[0.0], [0.0]])
    action = commutators.adjoint_action(model)
    for order in range(4):
        assert commutators.iterated_commutator(action, 1, order).is_zero()


def test_iterated_commutator_index_errors():
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    action = commutators.adjoint_action(model)
    with pytest.raises(IndexError):
        commutators.iterated_commutator(action, 1, 0)
    with pytest.raises(ValueError):
        commutators.iterated_commutator(action, 0, -1)


def test_linear_form_matrix_realization():
    space = fock.build_space(1, 4)
    lad = fock.build_ladders(space)
    M = commutators.form_matrix(np.array([0.5, 2.0, 1j]), lad).toarray()
    expected = (0.5 * np.eye(space.D) + 2.0 * lad.a[0].toarray()
                + 1j * lad.adag[0].toarray())
    np.testing.assert_allclose(M, expected)
    # only nonzero terms are stored, so a zero Kraus row gives an empty L_l
    assert commutators.form_matrix(np.zeros(3, dtype=complex), lad).nnz == 0
    # the one term of V = [[-1]], conj(-1) = -1 - 0j, stores no -0.0
    # part, as a sum of terms stores none
    M = commutators.form_matrix(np.array([0, -1, 0], dtype=complex).conj(), lad)
    assert not np.signbit(M.data.imag).any()


@pytest.mark.parametrize("d, N_max", [(1, 4), (2, 3), (3, 2)])
def test_form_matrix_basis_rows_are_the_identity_and_the_ladders(d, N_max):
    lad = fock.build_ladders(fock.build_space(d, N_max))
    identity = sp.identity(lad.space.D, dtype=complex, format="csr")
    for f, term in zip(np.eye(2 * d + 1, dtype=complex), (identity, *lad.a, *lad.adag)):
        assert csr_bits(commutators.form_matrix(f, lad)) == csr_bits(term)


def test_validate_action_oracle_damping():
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    action = commutators.adjoint_action(model)
    assert commutators.validate_action_oracle(ops, action) <= 1e-12


def test_validate_action_oracle_seeded():
    rng = np.random.default_rng(33)
    for _ in range(5):
        model = random_model(rng, 2, int(rng.integers(1, 5)), quad_scale=0.5)
        space = fock.build_space(2, 6)
        ops = generator.build_operators(model, space)
        action = commutators.adjoint_action(model)
        assert commutators.validate_action_oracle(ops, action) <= 1e-9


def test_closure_under_commutation():
    # [G, form] of a linear form is again linear: matrix oracle over a
    # basis of forms, including the constant, must agree on the interior.
    rng = np.random.default_rng(34)
    model = random_model(rng, 1, 2, quad_scale=0.7)
    space = fock.build_space(1, 10)
    ops = generator.build_operators(model, space)
    action = commutators.adjoint_action(model)
    assert commutators.validate_action_oracle(ops, action) <= 1e-9


def test_krylov_closure_contract():
    # two maps that leave span(U[:, :4]) invariant, a seed inside it
    rng = np.random.default_rng(36)
    n, block = 9, 4
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    maps = []
    for _ in range(2):
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T[block:, :block] = 0.0
        maps.append(U @ T @ U.conj().T)
    seed = U[:, :block] @ (rng.standard_normal(block) + 1j * rng.standard_normal(block))
    words = [seed]  # every word of length <= max_rounds applied to the seed
    for max_rounds in range(4):
        basis, census = commutators.krylov_closure(maps, seed[:, None], max_rounds)
        krylov_rank = np.linalg.matrix_rank(np.column_stack(words), rtol=1e-10)
        rank = basis.shape[1]
        assert rank == krylov_rank == min(1 + 2 * max_rounds, block)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(rank), atol=1e-12)
        assert np.abs(U[:, block:].conj().T @ basis).max() <= 1e-12
        assert sum(census) == rank - 1
        words += [M @ w for w in words for M in maps]
    # the closure stops after the first round that adds nothing
    _, census = commutators.krylov_closure(maps, seed[:, None], 10)
    assert census == [2, 1, 0]

    # max_rounds=0 only orthonormalises: a duplicate and a zero seed are dropped
    other = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    seeds = np.column_stack([seed, 2.0 * seed, np.zeros(n), other])
    basis, census = commutators.krylov_closure(maps, seeds, 0)
    assert basis.shape == (n, 2) and census == []
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)
    residual = seeds - basis @ (basis.conj().T @ seeds)
    assert np.abs(residual).max() <= 1e-12 * np.abs(seeds).max()


def exhaustive_closure(maps, seeds, max_rounds):
    """`krylov_closure` as it was before a full basis ended the closure.

    Every candidate of every round is projected and judged, also after the
    basis spans the space.  Also returns the number of map products
    evaluated up to the keep that filled the basis (None if it never
    filled) and the number evaluated in all.
    """
    seeds = np.asarray(seeds, dtype=complex)
    n = seeds.shape[0]
    rows = np.empty((n, n), dtype=complex)
    rank, max_norm, products, products_at_fill = 0, 0.0, 0, None

    def extend(candidates, from_maps):
        nonlocal rank, max_norm, products, products_at_fill
        start = rank
        for w in candidates:
            products += from_maps
            max_norm = max(max_norm, np.linalg.norm(w))
            Q = rows[:rank]
            for _ in range(2):
                w = w - (Q @ w.conj()).conj() @ Q
            rn = np.linalg.norm(w)
            if rank < n and rn > commutators.GS_DROP_RTOL * max(1e-300, max_norm):
                rows[rank] = w / rn
                rank += 1
                if rank == n:
                    products_at_fill = products
        return rows[start:rank]

    frontier = extend(seeds.T, False)
    census = []
    while len(frontier) and len(census) < max_rounds:
        frontier = extend((M @ q for q in frontier for M in maps), True)
        census.append(len(frontier))
    return rows[:rank].T.copy(), census, products_at_fill, products


class CountingMap:
    """A matrix whose products `M @ q` are appended to a shared log."""

    def __init__(self, M, log):
        self.M, self.log = M, log

    def __matmul__(self, q):
        self.log.append(self)
        return self.M @ q


def closure_case(case):
    """(maps, seeds, max_rounds) of one seeded full-rank or invariant-block case."""
    rng = np.random.default_rng(37)
    n = 8
    maps = [complex_gaussian(rng, (n, n)) for _ in range(2)]
    seed = complex_gaussian(rng, (n, 1))
    if case == "fills-mid-round":
        return maps, seed, 10
    if case == "fills-from-seeds":
        return maps, complex_gaussian(rng, (n, n)), 3
    if case == "extra-and-zero-seeds":
        seeds = complex_gaussian(rng, (n, n + 3))
        seeds[:, 2] = 0.0
        return maps, seeds, 2
    if case == "cut-before-full":
        return maps, seed, 2
    if case == "cut-at-full":
        return maps, seed, 3
    if case == "cut-after-full":
        return maps, seed, 4
    # maps that leave span(U[:, :block]) invariant and a seed inside it
    block = 5
    U = haar_unitary(rng, n)
    for M in maps:
        M[:] = U.conj().T @ M @ U
        M[block:, :block] = 0.0
        M[:] = U @ M @ U.conj().T
    return maps, U[:, :block] @ complex_gaussian(rng, (block, 1)), 10


@pytest.mark.parametrize("case, census", [
    ("fills-mid-round", [2, 4, 1, 0]),
    ("fills-from-seeds", [0]),
    ("extra-and-zero-seeds", [0]),
    ("cut-before-full", [2, 4]),
    ("cut-at-full", [2, 4, 1]),
    ("cut-after-full", [2, 4, 1, 0]),
    ("invariant-block", [2, 2, 0]),
])
def test_krylov_closure_stops_at_full_rank(case, census):
    maps, seeds, max_rounds = closure_case(case)
    ref_basis, ref_census, at_fill, products = exhaustive_closure(maps, seeds, max_rounds)
    assert ref_census == census
    log = []
    basis, got_census = commutators.krylov_closure(
        [CountingMap(M, log) for M in maps], seeds, max_rounds)
    assert np.array_equal(basis, ref_basis)
    assert got_census == ref_census
    # no map product is evaluated after the keep that fills the basis
    assert len(log) == (products if at_fill is None else at_fill)
    if case == "invariant-block":
        assert at_fill is None and basis.shape[1] == 5
    elif case != "cut-before-full":
        assert at_fill is not None and basis.shape[1] == seeds.shape[0]
        if case == "extra-and-zero-seeds":
            assert at_fill == 0  # seeds past the filling keep are not projected
        else:
            assert at_fill < products


def test_support_span_reaches_full_interior():
    model = gm.quadratic_free_model(1, V=[[1.0], [0.0]], U=[[0.0], [1.0]])
    space = fock.build_space(1, 10)
    ops = generator.build_operators(model, space)
    action = commutators.adjoint_action(model)
    span = commutators.support_span(ops, action, space.vacuum(), 0.1)
    assert span.rank == space.interior_dim() == 9
    # the Kraus operators a and a† span every commutator form of this model, so
    # their closure of P_t psi, projected onto the interior, has the span's rank
    # and an orthonormal basis
    dim = space.interior_dim()
    phi = evolution.evolve_vector(ops, space.vacuum(), [0.0, 0.1]).states[-1]
    closure, _ = commutators.krylov_closure(list(ops.L), phi[:, None], space.D)
    interior, _ = commutators.krylov_closure([], closure[:dim], 0)
    assert interior.shape == (dim, span.rank)
    np.testing.assert_allclose(interior.conj().T @ interior, np.eye(span.rank), atol=1e-10)


def test_support_span_damping_vacuum_is_fixed():
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    action = commutators.adjoint_action(model)
    span = commutators.support_span(ops, action, space.vacuum(), 0.5)
    assert span.rank == 1
    # the one basis vector is the vacuum, which the damping Kraus operator annihilates
    basis, census = commutators.krylov_closure(list(ops.L), space.vacuum()[:, None], space.D)
    assert census == [0]
    overlap = abs(np.vdot(basis[:, 0], space.vacuum()))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def count_closures(monkeypatch):
    """Record each `krylov_closure` call's (maps, seeds, result)."""
    calls, closure = [], commutators.krylov_closure
    monkeypatch.setattr(commutators, "krylov_closure",
                        lambda maps, seeds, rounds: calls.append(
                            (maps, seeds, closure(maps, seeds, rounds))) or calls[-1][2])
    return calls


def test_support_span_projects_a_proper_closure_onto_the_interior(monkeypatch):
    # the damping vacuum's closure is the vacuum alone, rank 1 < D, so the
    # interior pass runs on its interior rows
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    calls = count_closures(monkeypatch)
    span = commutators.support_span(ops, commutators.adjoint_action(model), space.vacuum(), 0.5)
    assert len(calls) == 3
    closure = calls[1][2][0]
    assert closure.shape == (space.D, 1)
    assert calls[2][0] == [] and calls[2][1].shape == (space.interior_dim(), 1)
    assert span.rank == calls[2][2][0].shape[1] == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_support_span_of_a_full_closure_is_the_interior(monkeypatch, seed):
    # closure seeds (D = 105): the closure spans C^D, so the interior pass is
    # skipped, and its explicit result has the same rank
    (_, config), = workloads.build("closure", seed)
    ctx = cli.RunContext(config)
    calls = count_closures(monkeypatch)
    span = commutators.support_span(ctx.ops, ctx.action, ctx.space.vacuum(), 0.1)
    assert len(calls) == 2
    closure, census = calls[1][2]
    assert closure.shape == (ctx.space.D, ctx.space.D)
    monkeypatch.undo()
    interior, _ = commutators.krylov_closure([], closure[:ctx.space.interior_dim()], 0)
    assert span.rank == interior.shape[1] == ctx.space.interior_dim() == 78
    assert span.word_census == census


def test_support_span_input_validation():
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    action = commutators.adjoint_action(model)
    with pytest.raises(ValueError):
        commutators.support_span(ops, action, space.vacuum(), 0.0)
    with pytest.raises(ValueError):
        commutators.support_span(ops, action, 2.0 * space.vacuum(), 0.1)


def test_support_span_equivalence_both_probe_times():
    # hot enough that every interior grade clears the eigen-rank threshold
    # already at t = 0.05
    model = gm.quadratic_free_model(1, V=[[2.0], [0.0]], U=[[0.0], [2.0]])
    space = fock.build_space(1, 10)
    ops = generator.build_operators(model, space)
    action = commutators.adjoint_action(model)
    lind = generator.build_lindbladian(ops, "schrodinger")
    from gqms import diagnostics
    for t in (0.05, 0.1):
        span = commutators.support_span(ops, action, space.vacuum(), t)
        probe = diagnostics.positivity_improving_probe(
            lind, [space.vacuum()], [t], space)[0]
        assert span.rank == probe.rank == space.interior_dim()


def hopping_chain(d):
    """Detunings 0.3 (j + 1), unit nearest-neighbour hopping, one L = a_1 + 0.5 a_1†."""
    omega = np.diag(0.3 * np.arange(1, d + 1)) + np.eye(d, k=1) + np.eye(d, k=-1)
    V, U = np.zeros((1, d)), np.zeros((1, d))
    V[0, 0], U[0, 0] = 1.0, 0.5
    return gm.GaussianModel(d=d, Omega=omega, kappa=np.zeros((d, d)), zeta=np.zeros(d), V=V, U=U)


def reference_span_rank(ops, action, psi, t):
    """Interior rank of P_t psi closed, to a fixed point, under every nonzero iterate of order <= 2d."""
    forms = [commutators.form_matrix(f.coeffs, ops.ladders).toarray()
             for ell in range(len(action.kraus)) for order in range(2 * ops.space.d + 1)
             if not (f := commutators.iterated_commutator(action, ell, order)).is_zero()]
    basis = evolution.evolve_vector(ops, psi, [0.0, t]).states[-1][:, None]
    while True:
        u, s, _ = np.linalg.svd(np.hstack([basis] + [F @ basis for F in forms]),
                                full_matrices=False)
        if (s > 1e-10 * s[0]).sum() == basis.shape[1]:
            break
        basis = u[:, s > 1e-10 * s[0]]
    s = np.linalg.svd(basis[:ops.space.interior_dim()], compute_uv=False)
    return int((s > 1e-10).sum())


ROOT2 = np.sqrt(2.0)
# L = x_1 + x_2 up to a phase and H rotating the mode (a_1 - a_2)/sqrt(2): [G, L] = 0
# but for rounding, which the later iterates rotate into that mode
QUADRATURE = 0.3 * np.exp(0.7j)
ROTATED = gm.GaussianModel(d=2, Omega=0.25 * np.array([[1, -1], [-1, 1]]), kappa=np.zeros((2, 2)),
                           zeta=np.zeros(2), V=[[QUADRATURE] * 2], U=[[QUADRATURE] * 2])


@pytest.mark.parametrize("model, N_max, rank", [
    (strictly_positive_model(np.random.default_rng(36), 2), 8, 28),
    (gm.quadratic_free_model(1, V=[[ROOT2], [0.0]], U=[[0.0], [ROOT2]]), 10, 9),
    (hopping_chain(2), 8, 28),
    (ROTATED, 10, 9),
])
def test_support_span_matches_a_closure_under_every_order(model, N_max, rank):
    # the span of the iterates up to order 2d holds every order, so closing
    # under its basis reaches what closing under all the iterates does; an
    # iterate that is zero but for rounding adds no form
    space = fock.build_space(model.d, N_max)
    ops = generator.build_operators(model, space)
    action = commutators.adjoint_action(model)
    span = commutators.support_span(ops, action, space.vacuum(), 0.1)
    assert span.rank == reference_span_rank(ops, action, space.vacuum(), 0.1) == rank


def test_kraus_coefficient_matrix_inversion_premise():
    rng = np.random.default_rng(35)
    model = strictly_positive_model(rng, 2)
    cond = commutators.inversion_condition_number(model)
    assert np.isfinite(cond)
    C = gm.kossakowski_factor(model.V, model.U).conj().T
    K = gm.build_kossakowski(model.V, model.U)
    np.testing.assert_allclose(C.conj().T @ C, K.matrix, atol=1e-12)

    degenerate = gm.quadratic_free_model(1, V=[[1.0], [1.0]], U=[[0.0], [0.0]])
    assert commutators.inversion_condition_number(degenerate) > 1e12
