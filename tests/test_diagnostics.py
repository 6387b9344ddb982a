import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from gqms import commutators, diagnostics, fock, generator
from gqms import model as gm
from helpers import counting_threads, sample_statistics_by_rows, strictly_positive_model


def heated_mode_setup(N_max=8):
    model = gm.quadratic_free_model(1, V=[[1.0], [0.0]], U=[[0.0], [1.0]])
    space = fock.build_space(1, N_max)
    ops = generator.build_operators(model, space)
    K = gm.build_kossakowski(model.V, model.U)
    return model, space, ops, K


def test_number_bound_equality_case():
    # K = I makes -2 G0 = 2N + 1 exactly, so the slack vanishes sample by sample
    model, space, ops, K = heated_mode_setup()
    rep = diagnostics.number_operator_bound(diagnostics.sample_statistics(ops, 1, 200), K, 200)
    assert rep.violations == 0
    assert abs(rep.min_slack) <= 1e-12


def test_number_bound_vacuum_slack():
    rng = np.random.default_rng(41)
    model = strictly_positive_model(rng, 2)
    space = fock.build_space(2, 5)
    ops = generator.build_operators(model, space)
    K = gm.build_kossakowski(model.V, model.U)
    vac = space.vacuum()
    lhs = float(np.real(np.vdot(vac, -2.0 * (ops.G0 @ vac))))
    rhs = K.eps0 * float(np.real(np.vdot(vac, 2.0 * (ops.N @ vac) + 2 * vac)))
    assert lhs - rhs >= -1e-12


def test_number_bound_seeded_models():
    rng = np.random.default_rng(42)
    for _ in range(5):
        d = int(rng.integers(1, 3))
        model = strictly_positive_model(rng, d)
        space = fock.build_space(d, 7 if d == 1 else 5)
        ops = generator.build_operators(model, space)
        K = gm.build_kossakowski(model.V, model.U)
        rep = diagnostics.number_operator_bound(
            diagnostics.sample_statistics(ops, 7, 200), K, 200)
        assert rep.violations == 0


def test_number_bound_boundary_sampling_violates():
    # with margin 0 the samples reach the top grade, where the truncated
    # creation operator breaks the bound: the violation machinery must
    # report it (this is exactly why interior sampling is required)
    model = gm.quadratic_free_model(1, V=[[1.0], [0.0]], U=[[0.0], [1.0]])
    space = fock.build_space(1, 1, interior_margin=0)
    ops = generator.build_operators(model, space)
    K = gm.build_kossakowski(model.V, model.U)
    rep = diagnostics.number_operator_bound(diagnostics.sample_statistics(ops, 40, 50), K, 50)
    assert rep.violations > 0
    assert rep.min_slack < -1e-10


def test_domain_comparison_identity_case():
    model, space, ops, K = heated_mode_setup()
    rep = diagnostics.domain_comparison_constants(
        diagnostics.sample_statistics(ops, 2, 200), K, 200)
    assert rep.feasible
    assert rep.c0_hat == 0.0
    assert rep.max_required_c0 <= 0.0


def test_domain_comparison_two_boson():
    model = gm.two_boson_model(
        gamma_minus=np.eye(2), gamma_plus=np.eye(2),
        Omega=0.2 * np.eye(2))
    space = fock.build_space(2, 6)
    ops = generator.build_operators(model, space)
    K = gm.build_kossakowski(model.V, model.U)
    rep = diagnostics.domain_comparison_constants(
        diagnostics.sample_statistics(ops, 3, 300), K, 300)
    assert rep.feasible
    assert np.isfinite(rep.max_required_c)


def test_probe_two_boson_full_rank():
    model = gm.two_boson_model(
        gamma_minus=np.eye(2), gamma_plus=np.eye(2), Omega=np.zeros((2, 2)))
    space = fock.build_space(2, 6)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops)
    reports = diagnostics.positivity_improving_probe(
        lind, [space.vacuum()], [0.1], space)
    assert reports[0].full
    assert reports[0].min_interior_eig > 0


def test_probe_damping_vacuum_stays_rank_one():
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops)
    reports = diagnostics.positivity_improving_probe(
        lind, [space.vacuum()], [0.05, 0.1, 0.5, 1.0], space)
    assert all(r.rank == 1 for r in reports)
    assert not any(r.full for r in reports)


def test_probe_at_time_zero_is_rank_one():
    model, space, ops, K = heated_mode_setup()
    lind = generator.build_lindbladian(ops)
    reports = diagnostics.positivity_improving_probe(
        lind, [space.vacuum()], [0.0], space)
    assert reports[0].rank == 1


def test_probe_solves_the_initial_states_and_the_interior_blocks(monkeypatch):
    # one interior solve per (psi, t), and no full-D solve: the initial
    # states take none, and the evolved states' min_eig is never read
    model, space, ops, K = heated_mode_setup()
    lind = generator.build_lindbladian(ops)
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    psis = [space.vacuum(), space.basis_vector((1,))]
    reports = diagnostics.positivity_improving_probe(lind, psis, [0.05, 0.1, 0.2], space)
    dim = space.interior_dim()
    assert len(reports) == 6
    assert shapes == [(dim, dim)] * 6


def test_invariant_search_full_closure():
    model, space, ops, K = heated_mode_setup()
    rep = diagnostics.invariant_subspace_search(ops, 3, seed=4)
    assert rep.full_closure
    assert rep.min_closure_dim == space.interior_dim()


def test_interior_compressions_densify_only_the_interior_block():
    # D = 220, interior dimension 120: a dense D x D copy is 3.4 interior blocks
    model = strictly_positive_model(np.random.default_rng(5), 3)
    space = fock.build_space(3, 9)
    ops = generator.build_operators(model, space)
    action = commutators.adjoint_action(model)
    block = 16 * space.interior_dim() ** 2
    # the interior blocks of G and the L_l (live together) or of the two
    # commutator matrices, plus three blocks of closure or difference work
    for run, live in ((lambda: diagnostics.invariant_subspace_search(ops, 1, seed=0),
                       1 + len(ops.L)),
                      (lambda: commutators.validate_action_oracle(ops, action), 2)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (live + 3) * block


def test_invariant_search_damping_vacuum_witness():
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    rep = diagnostics.invariant_subspace_search(
        ops, 0, seed=5, starts=[space.vacuum()])
    assert rep.min_closure_dim == 1
    assert not rep.full_closure
    # the vacuum spans the invariant subspace: G and L = a keep it
    dim = space.interior_dim()
    mats = [M[:dim, :dim].toarray() for M in (ops.G, *ops.L)]
    closure, _ = commutators.krylov_closure(mats, space.vacuum()[:dim, None], dim)
    assert closure.shape == (dim, 1)
    assert abs(abs(np.vdot(closure[:, 0], space.vacuum()[:dim])) - 1.0) <= 1e-10


@pytest.mark.parametrize("n_seeds, with_start, message", [
    (-5, True, "n_seeds must be >= 0"),
    (-1, False, "n_seeds must be >= 0"),
    (0, False, "need n_seeds >= 1 or explicit start vectors"),
])
def test_invariant_search_refuses_a_seed_count(n_seeds, with_start, message):
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    starts = [space.vacuum()] if with_start else ()
    with pytest.raises(ValueError, match=message):
        diagnostics.invariant_subspace_search(ops, n_seeds, 0, starts=starts)


def test_invariant_search_trivial_two_level_space():
    model = gm.quadratic_free_model(1, V=[[1.0], [0.0]], U=[[0.0], [1.0]])
    space = fock.build_space(1, 1, interior_margin=0)
    ops = generator.build_operators(model, space)
    rep = diagnostics.invariant_subspace_search(
        ops, 0, seed=6, starts=[space.vacuum()])
    assert rep.min_closure_dim == 2


def test_sector_estimate_self_adjoint():
    model, space, ops, K = heated_mode_setup()
    # Omega = 0 so G = G0 is self-adjoint: degenerate sector
    rep = diagnostics.sector_estimate(
        diagnostics.sample_statistics(ops, 7, 200), 200, shift_grid=[0.0])
    assert rep.theta_hat <= 1e-6


def test_sector_estimate_rotating_mode():
    omega = 0.7
    model = gm.GaussianModel(d=1, Omega=[[omega]], kappa=[[0.0]], zeta=[0.0],
                             V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, 8)
    ops = generator.build_operators(model, space)
    rep = diagnostics.sector_estimate(
        diagnostics.sample_statistics(ops, 8, 200), 200, shift_grid=[0.0])
    assert rep.theta_hat == pytest.approx(np.arctan(2 * omega), abs=1e-10)
    assert rep.z_samples.shape == (200,)


def test_sector_estimate_shift_grid_selection():
    model, space, ops, K = heated_mode_setup()
    rep = diagnostics.sector_estimate(diagnostics.sample_statistics(ops, 9, 100), 100,
                                      shift_grid=[0.0, 1.0])
    assert rep.shift in (0.0, 1.0)
    assert len(rep.per_shift) == 2

    default = diagnostics.sector_estimate(diagnostics.sample_statistics(ops, 9, 50), 50)
    assert len(default.per_shift) == 4
    assert default.theta_hat <= min(th for _, th in default.per_shift) + 1e-15


def test_minimal_kossakowski_eig():
    def bath(gamma_minus, gamma_plus):
        return gm.two_boson_model(
            gamma_minus=gamma_minus, gamma_plus=gamma_plus, Omega=np.zeros((2, 2)))

    unit = bath(np.eye(2), np.eye(2))
    K = gm.build_kossakowski(unit.V, unit.U)
    np.testing.assert_allclose(K.matrix, np.eye(4), atol=1e-12)
    assert K.eps0 == pytest.approx(1.0)
    K = gm.build_kossakowski([[1.0]], [[1.0]])
    np.testing.assert_allclose(K.matrix, np.ones((2, 2)), atol=1e-12)
    assert K.eps0 == pytest.approx(0.0, abs=1e-12)
    gamma_m = np.diag([2.0, 0.5])
    gamma_p = np.diag([3.0, 1.5])
    block = np.block([
        [gamma_m, np.zeros((2, 2))],
        [np.zeros((2, 2)), gamma_p],
    ])
    model = bath(gamma_m, gamma_p)
    K = gm.build_kossakowski(model.V, model.U)
    np.testing.assert_allclose(K.matrix, block, atol=1e-12)
    assert K.eps0 == pytest.approx(0.5)


def test_sample_blocks_interior_support():
    space = fock.build_space(2, 5)
    rng = np.random.default_rng(10)
    v = next(diagnostics.sample_blocks(rng, 1, space.interior_dim(), space.D))[:, 0]
    assert np.linalg.norm(v) == pytest.approx(1.0)
    fock.check_interior(space, v)


def per_sample_unit(rng, dim, rows):
    """The per-vector draw the samplers consumed before they were blocked."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = np.zeros(rows, dtype=complex)
    v[:dim] = z / np.linalg.norm(z)
    return v


@pytest.mark.parametrize("count", [1, diagnostics.SAMPLE_BLOCK,
                                   diagnostics.SAMPLE_BLOCK + 1])
def test_sample_blocks_draw_contract(count):
    dim, rows = 7, 10
    ref_rng = np.random.default_rng(12)
    reference = np.array([per_sample_unit(ref_rng, dim, rows) for _ in range(count)]).T
    rng = np.random.default_rng(12)
    blocks = list(diagnostics.sample_blocks(rng, count, dim, rows))
    assert all(B.shape[0] == rows and 1 <= B.shape[1] <= diagnostics.SAMPLE_BLOCK
               for B in blocks)
    X = np.hstack(blocks)
    assert X.shape == (rows, count)
    assert np.abs(X - reference).max() <= 1e-15
    # the same stream is consumed: the generators leave in the same state
    assert rng.standard_normal() == ref_rng.standard_normal()
    # prefix property, across the block boundary for count >= SAMPLE_BLOCK
    longer = np.hstack(list(diagnostics.sample_blocks(
        np.random.default_rng(12), count + 3, dim, rows)))
    assert np.abs(longer[:, :count] - X).max() <= 1e-15


def test_samplers_match_per_sample_loops(monkeypatch):
    rng = np.random.default_rng(43)
    model = strictly_positive_model(rng, 2)
    space = fock.build_space(2, 6)
    ops = generator.build_operators(model, space)
    K = gm.build_kossakowski(model.V, model.U)
    n, seed = 150, 17  # three blocks, the last one partial
    ref_rng = np.random.default_rng(seed)
    xs = [per_sample_unit(ref_rng, space.interior_dim(), space.D) for _ in range(n)]

    slack = np.array([
        float(np.real(np.vdot(xi, -2.0 * (ops.G0 @ xi))))
        - K.eps0 * float(np.real(np.vdot(xi, 2.0 * (ops.N @ xi) + space.d * xi)))
        for xi in xs])
    tol = -float(np.median(slack))  # makes about half of the samples violations
    stats = diagnostics.sample_statistics(ops, seed, n)
    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, "BOUND_TOL", tol)
        bound = diagnostics.number_operator_bound(stats, K, n)
    assert bound.samples == n
    assert bound.min_slack == pytest.approx(slack.min(), rel=1e-12)
    assert bound.violations == int(np.count_nonzero(slack < -tol))
    assert diagnostics.number_operator_bound(stats, K, n).violations == \
        int(np.count_nonzero(slack < -1e-10))

    n2 = np.array([np.linalg.norm(ops.N @ xi) ** 2 for xi in xs])
    req_c0 = max(K.eps0 ** 2 * n2 - 2.0 * np.array(
        [np.linalg.norm(ops.G0 @ xi) ** 2 for xi in xs]))
    req_c = max(K.eps0 ** 2 * n2 - 2.0 * np.array(
        [np.linalg.norm(ops.G @ xi) ** 2 for xi in xs]))
    dc = diagnostics.domain_comparison_constants(stats, K, n)
    assert dc.max_required_c0 == pytest.approx(req_c0, rel=1e-12)
    assert dc.max_required_c == pytest.approx(req_c, rel=1e-12)

    zs = np.array([np.vdot(xi, ops.G @ xi) for xi in xs])
    sector = diagnostics.sector_estimate(stats, n)
    assert np.abs(sector.z_samples - zs).max() <= 1e-12 * np.abs(zs).max()


def statistics(stats):
    """{(kind, operator): per-sample array} of a sample pass."""
    return {**{("form", op): v for op, v in stats.form.items()},
            **{("norm2", op): v for op, v in stats.norm2.items()}}


def seeded_ops(seed, d, N_max):
    model = strictly_positive_model(np.random.default_rng(seed), d)
    return generator.build_operators(model, fock.build_space(d, N_max))


# n = 1 (mod SAMPLE_BLOCK) ends the pass with a one-column block, whose
# squared norms are summed row by row as a wider block's are
@pytest.mark.parametrize("n", [1, 50, 64, 65, 150, 200])
def test_sample_statistics_prefix_is_bit_equal(n):
    ops = seeded_ops(44, 2, 6)
    longer = statistics(diagnostics.sample_statistics(ops, 19, 1000))
    short = statistics(diagnostics.sample_statistics(ops, 19, n))
    assert len(short) == 6
    for key, values in short.items():
        assert values.shape == (n,)
        assert np.array_equal(values, longer[key][:n]), key


# at (3, 10) the interior holds 165 entries a column, so a pass of more than
# one block draws ahead on a worker thread; n = 65 ends it with a one-column
# block and n = 150 with a partial one
@pytest.mark.parametrize("d, N_max", [(1, 8), (2, 6), (3, 6), (3, 10)])
@pytest.mark.parametrize("n", [1, 65, 150])
def test_interior_sample_pass_equals_the_whole_space_pass(d, N_max, n):
    # interior-sized blocks, sliced G0 and G and N's diagonal give the bits
    # of applying the whole operators to zero-padded D-row samples
    ops = seeded_ops(50 + d, d, N_max)
    fast = statistics(diagnostics.sample_statistics(ops, 29, n))
    reference = statistics(sample_statistics_by_rows(ops, 29, n))
    assert fast.keys() == reference.keys()
    for key, values in fast.items():
        assert np.array_equal(values, reference[key]), key


# two_boson's pass (n = 15) and a one-block pass have nothing the handoff pays for
@pytest.mark.parametrize("d, N_max, n_samples, threads", [
    (2, 6, 500, 0), (3, 10, diagnostics.SAMPLE_BLOCK, 0), (3, 10, 150, 1)])
def test_a_pass_draws_ahead_only_when_its_blocks_pay(monkeypatch, d, N_max, n_samples, threads):
    ops = seeded_ops(48, d, N_max)
    started = counting_threads(monkeypatch)
    diagnostics.sample_statistics(ops, 1, n_samples)
    assert len(started) == threads
    assert not any(thread.is_alive() for thread in started)


class FailingProduct:
    """A sparse matrix whose slice's product with a block raises at the
    `fail_at`-th block."""

    def __init__(self, matrix, fail_at):
        self.matrix, self.fail_at, self.products = matrix, fail_at, 0

    def __getitem__(self, key):
        return type(self)(self.matrix[key], self.fail_at)

    def __matmul__(self, X):
        self.products += 1
        if self.products == self.fail_at:
            raise MemoryError(f"block {self.fail_at}")
        return self.matrix @ X


def test_a_product_that_raises_mid_pass_leaves_no_worker(monkeypatch):
    ops = seeded_ops(48, 3, 10)
    failing = dataclasses.replace(ops, G=FailingProduct(ops.G, 2))
    started = counting_threads(monkeypatch)
    with pytest.raises(MemoryError, match="block 2"):
        try:
            diagnostics.sample_statistics(failing, 1, 200)
        finally:
            # read while the traceback, which holds the pass's frame, lives
            alive = [thread.is_alive() for thread in started]
    assert alive == [False]


def test_concurrent_drawn_ahead_passes_keep_their_bits():
    # eight passes on four threads, each with its own draw-ahead worker, under
    # thread switches every microsecond: a block drawn out of turn, or one
    # generator advanced by two threads, would move the bits
    ops = seeded_ops(53, 3, 10)
    reference = statistics(sample_statistics_by_rows(ops, 31, 150))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            passes = [pool.submit(diagnostics.sample_statistics, ops, 31, 150) for _ in range(8)]
            results = [statistics(future.result(timeout=60)) for future in passes]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        for key, values in reference.items():
            assert np.array_equal(result[key], values), key


def test_sample_statistics_rejects_bad_counts():
    ops = seeded_ops(46, 1, 6)
    for count in (0, -1):
        with pytest.raises(ValueError):
            diagnostics.sample_statistics(ops, 1, count)
    stats = diagnostics.sample_statistics(ops, 1, 10)
    for n in (0, 11):
        with pytest.raises(ValueError, match="1..10"):
            diagnostics.sector_estimate(stats, n)
        with pytest.raises(ValueError, match="1..10"):
            diagnostics.number_operator_bound(stats, None, n)


def test_sample_pass_peak_memory_is_a_few_blocks():
    ops = seeded_ops(47, 3, 12)
    block = ops.space.D * diagnostics.SAMPLE_BLOCK * 16
    tracemalloc.start()
    try:
        diagnostics.sample_statistics(ops, 23, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * block


def test_domain_comparison_reports_none_past_the_grid():
    # eps0^2 ||N xi||^2 = 5000 needs c0 = 0 against 2 ||G0 xi||^2 = 5000, but
    # c = 5000 against 2 ||G xi||^2 = 0, beyond the grid's largest 1024
    stats = diagnostics.SampleStatistics(
        form={}, norm2={"N": np.array([5000.0]), "G0": np.array([2500.0]), "G": np.array([0.0])})
    rep = diagnostics.domain_comparison_constants(stats, SimpleNamespace(eps0=1.0), 1)
    assert (rep.c0_hat, rep.c_hat) == (0.0, None)
    assert (rep.max_required_c0, rep.max_required_c) == (0.0, 5000.0)
    assert rep.feasible is False
