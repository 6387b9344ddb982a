import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from gqms import cli, evolution, fock, generator
from gqms import model as gm
from helpers import (complex_gaussian, counting_threads, expm_states, folded_identity,
                     kraus_form_lindbladian, pure, strictly_positive_model)


def damping_setup(N_max=6):
    model = gm.quadratic_free_model(1, V=[[1.0]], U=[[0.0]])
    space = fock.build_space(1, N_max)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops)
    return space, ops, lind


def test_damping_population_decay_expm():
    space, ops, lind = damping_setup()
    times = np.linspace(0.0, 2.0, 9)
    res = evolution.evolve_density(lind, space.basis_vector((1,)), times)
    for i, t in enumerate(times):
        assert abs(res.states[i][1, 1].real - np.exp(-t)) <= 1e-10


def test_initial_state_returned_exactly():
    space, ops, lind = damping_setup()
    psi0 = space.basis_vector((2,))
    res = evolution.evolve_density(lind, psi0, [0.0, 0.1])
    assert np.array_equal(res.states[0], pure(psi0))


def mixed_evolution(lind, rho0, times):
    """The states from a mixed rho0, by linearity: the evolutions of its
    eigenvectors summed with their eigenvalues as weights."""
    weights, vectors = np.linalg.eigh(rho0)
    runs = [evolution.evolve_density(lind, psi, times) for psi in vectors.T]
    return [sum(w * res.states[i] for w, res in zip(weights, runs)) for i in range(len(times))]


def test_mixed_state_flows_to_vacuum():
    space, ops, lind = damping_setup()
    dim = space.interior_dim()
    rho0 = np.zeros((space.D, space.D), dtype=complex)
    rho0[:dim, :dim] = np.eye(dim) / dim
    times = np.linspace(0.0, 4.0, 9)
    states = mixed_evolution(lind, rho0, times)
    for ours, exact in zip(states, expm_states(kraus_form_lindbladian(ops), rho0, times)):
        assert np.abs(ours - exact).max() <= 1e-12
    weights = [s[0, 0].real for s in states]
    assert all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
    assert weights[-1] > 0.9


def test_positivity_drift_bounded():
    space, ops, lind = damping_setup()
    psi0 = (space.basis_vector((0,)) + space.basis_vector((2,))) / np.sqrt(2)
    res = evolution.evolve_density(lind, psi0, [0.0, 0.25, 0.5])
    assert res.stats["min_eig"].min() >= -1e-8
    assert max(np.abs(rho - rho.conj().T).max() for rho in res.states) <= 1e-10


def test_semigroup_property():
    rng = np.random.default_rng(21)
    model = strictly_positive_model(rng, 1)
    space = fock.build_space(1, 6)
    ops = generator.build_operators(model, space)
    lind = generator.build_lindbladian(ops)
    direct = evolution.evolve_density(lind, space.vacuum(), [0.0, 0.3])
    stepped = evolution.evolve_density(lind, space.vacuum(), [0.0, 0.1, 0.3])
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
    psi0 = space.vacuum()
    with pytest.raises(ValueError):
        evolution.evolve_density(lind, psi0, [0.1, 0.2])
    with pytest.raises(ValueError):
        evolution.evolve_density(lind, psi0, [0.0, 0.2, 0.2])
    for bad in (2.0 * space.vacuum(), np.full(space.D, np.nan)):
        with pytest.raises(ValueError, match="unit vector"):
            evolution.evolve_vector(ops, bad, [0.0, 1.0])
    for times in ([0.0, np.nan], [0.0, np.inf], [0.0, 1.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="times must be finite"):
            evolution.evolve_density(lind, psi0, times)
        with pytest.raises(ValueError, match="times must be finite"):
            evolution.evolve_vector(ops, space.vacuum(), times)


def test_invalid_initial_state_rejected():
    # a D x D density array is no initial state
    space, ops, lind = damping_setup()
    with pytest.raises(ValueError):
        evolution.evolve_density(lind, pure(space.vacuum()), [0.0, 0.1])


@pytest.mark.parametrize("psi0", [
    [1.0, 0.5] + [0.0] * 5, [np.nan] + [0.0] * 6, [1.0] + [0.0] * 7,
], ids=["not-unit-norm", "nan", "wrong-length"])
def test_initial_state_refusal_names_its_fault(psi0):
    space, ops, lind = damping_setup()
    assert space.D == 7
    with pytest.raises(ValueError, match="psi0 must be a unit vector of 7 entries"):
        evolution.evolve_density(lind, psi0, [0.0, 0.1])


def test_trace_instability_aborts():
    space, ops, lind = damping_setup()
    # trace-violating generator: add a multiple of the identity superoperator
    broken = dataclasses.replace(
        lind, matrix=(lind.matrix + 0.5 * folded_identity(space.D)).tocsr(),
        trace=lind.trace + 0.5 * space.D ** 2)
    with pytest.raises(evolution.IntegrationError, match="at t=1 exceeds"):
        evolution.evolve_density(broken, space.vacuum(), [0.0, 1.0, 2.0])


def seeded_lindbladian(seed, d, N_max):
    model = strictly_positive_model(np.random.default_rng(seed), d)
    space = fock.build_space(d, N_max)
    ops = generator.build_operators(model, space)
    return space, ops, generator.build_lindbladian(ops)


def test_auto_matches_expm_small():
    space, ops, lind = seeded_lindbladian(32, 1, 6)
    assert space.D == 7
    psi0 = space.basis_vector((1,))
    times = [0.0, 0.1, 0.5, 1.0]
    a = evolution.evolve_density(lind, psi0, times)
    b = expm_states(kraus_form_lindbladian(ops), pure(psi0), times)
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
    a = mixed_evolution(lind, rho0, times)
    b = expm_states(kraus_form_lindbladian(ops), rho0, times)
    for sa, sb in zip(a, b):
        assert np.abs(sa - sb).max() <= 1e-12
    # each pure evolution of a complex eigenvector, and so their sum, is exactly Hermitian
    assert all(np.array_equal(rho, rho.conj().T) for rho in a)


def test_min_eig_is_solved_when_read(monkeypatch):
    # no eigensolve until stats are read; then one per later output time, of
    # the exactly Hermitian state as it is, the bits of one of the
    # Hermitized state.  At t = 0, min_eig is 0.0, what eigvalsh gives for
    # the projector of every basis vector
    space, ops, lind = seeded_lindbladian(31, 2, 5)
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    res = evolution.evolve_density(lind, space.vacuum(), [0.0, 0.05, 0.1, 0.2])
    assert shapes == []
    min_eig = res.stats["min_eig"]
    assert res.stats is res.stats and len(shapes) == 3
    assert min_eig[0] == 0.0 and np.signbit(min_eig[0]) == 0
    assert all(eigvalsh(pure(psi)).min() == 0.0 for psi in np.eye(space.D))
    for rho, value in zip(res.states[1:], min_eig[1:]):
        assert np.array_equal(rho, rho.conj().T)
        assert value == eigvalsh(rho).min() == eigvalsh(0.5 * (rho + rho.conj().T)).min()
    assert evolution.evolve_vector(ops, space.vacuum(), [0.0, 0.1]).stats == {}


def refuse_products(monkeypatch):
    """Make every product an evolution takes, in a step or before the first, raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a product was taken")

    real = evolution._propagate
    monkeypatch.setattr(evolution, "_expm_action", refuse)
    monkeypatch.setattr(evolution, "_propagate", lambda matvec, *args: real(refuse, *args))


def counting_products(monkeypatch):
    """The list that gets one entry per product any later evolution takes."""
    products, real = [], evolution._propagate

    def counting(matvec, *args):
        return real(lambda v: products.append(None) or matvec(v), *args)
    monkeypatch.setattr(evolution, "_propagate", counting)
    return products


def test_evolution_cost_is_refused_before_the_first_product(monkeypatch):
    refuse_products(monkeypatch)
    space, ops, lind = damping_setup()
    for t in (1e6, 1e308):
        with pytest.raises(evolution.IntegrationError, match="products"):
            evolution.evolve_density(lind, space.vacuum(), [0.0, t])
        with pytest.raises(evolution.IntegrationError, match="products"):
            evolution.evolve_vector(ops, space.vacuum(), [0.0, t])
    # an evolution plans m s products over its horizon: exactly MAX_PRODUCTS is admitted
    times = [0.0, 1.0, 3.0]
    for run, (_, norm) in (
            (lambda: evolution.evolve_density(lind, space.vacuum(), times), lind.shift_and_norm),
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


def test_propagators_read_any_times_from_one_evolution(monkeypatch):
    # unsorted, repeated and zero times: each is e^{tA}, a repeat shares its
    # array, 0 is the identity, and the s steps of one plan over the largest
    # time serve them all
    A = complex_gaussian(np.random.default_rng(71), (5, 5)) + 2j * np.eye(5)
    steps = []
    real = evolution._expm_action
    monkeypatch.setattr(evolution, "_expm_action", lambda *args: steps.append(1) or real(*args))
    times = [0.7, 0.0, 0.2, 0.7, 1.3]
    Ps = evolution.propagators(A, times)
    assert len(steps) == evolution._taylor_plan(1.3, evolution._shift_and_norm(A)[1])[1]
    assert np.array_equal(Ps[1], np.eye(5)) and Ps[0] is Ps[3]
    for t, P in zip(times, Ps):
        R = scipy.linalg.expm(t * A)
        assert np.abs(P - R).max() <= 1e-13 * np.abs(R).max()
    ordered = evolution.propagators(A, [0.2, 0.7, 1.3])
    assert all(np.array_equal(a, b) for a, b in zip(ordered, [Ps[2], Ps[0], Ps[4]]))


def test_propagators_refuse_bad_times_and_plans_over_the_budget(monkeypatch):
    refuse_products(monkeypatch)
    A = np.array([[0.0, 1e6], [-1e6, 0.0]])
    for times, message in (([-0.1], "start at 0"), ([0.1, np.nan], "finite"),
                           ([np.inf], "finite")):
        with pytest.raises(ValueError, match=message):
            evolution.propagators(A, times)
    with pytest.raises(evolution.IntegrationError, match="products"):
        evolution.propagators(A, [1.0])
    with pytest.raises(evolution.IntegrationError, match="products"):
        evolution.propagators(np.full((2, 2), np.nan), [1.0])


def test_propagator_of_a_multiple_of_the_identity_takes_no_product(monkeypatch):
    # the shift takes all of A, so the plan has degree 0: one step, its scaling alone
    products = counting_products(monkeypatch)
    assert np.array_equal(evolution.propagators(3j * np.eye(2), [1.0])[0], np.exp(3j) * np.eye(2))
    assert products == []


def test_subnormal_horizon_takes_one_step():
    # t norm / theta_m rounds to 0 for the larger theta_m; the plan still takes a step
    space, ops, lind = damping_setup(N_max=2)
    assert evolution._taylor_plan(5e-324, lind.shift_and_norm[1]) == (1, 1.0)
    psi0 = space.basis_vector((1,))
    res = evolution.evolve_density(lind, psi0, [0.0, 5e-324])
    assert np.abs(res.states[1] - pure(psi0)).max() <= 1e-300
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(evolution.propagators(A, [5e-324])[0], np.eye(2) + 5e-324 * A)


def test_zero_horizon_takes_no_product(monkeypatch):
    refuse_products(monkeypatch)
    space, ops, lind = damping_setup()
    psi0 = space.basis_vector((1,))
    res = evolution.evolve_density(lind, psi0, [0.0])
    assert len(res.states) == 1 and np.array_equal(res.states[0], pure(psi0))
    assert res.stats["trace_err"].tolist() == [0.0]
    vec = evolution.evolve_vector(ops, space.vacuum(), [0.0])
    assert len(vec.states) == 1 and np.array_equal(vec.states[0], space.vacuum())


def test_stationary_start_takes_one_product(monkeypatch):
    # pure loss leaves the vacuum fixed: L(|0><0|) = 0 and G|0> = 0 exactly,
    # so the first product is zero and every output time is a copy of the start
    products = counting_products(monkeypatch)
    space, ops, lind = damping_setup()
    times = [0.0, 0.05, 0.5, 3.0]
    for run, start in ((lambda: evolution.evolve_density(lind, space.vacuum(), times),
                        pure(space.vacuum())),
                       (lambda: evolution.evolve_vector(ops, space.vacuum(), times),
                        space.vacuum())):
        products.clear()
        res = run()
        assert len(products) == 1
        assert all(np.array_equal(state, start) for state in res.states)
        assert len({id(state) for state in res.states}) == len(times)
    assert res.stats == {} and evolution.evolve_density(
        lind, space.vacuum(), times).trace_err.tolist() == [0.0] * len(times)
    # a start that is not stationary steps as before
    products.clear()
    evolution.evolve_density(lind, space.basis_vector((1,)), times)
    assert len(products) > 1


def test_first_product_is_the_first_steps_first_term(monkeypatch):
    # the product taken before the first step is that step's first term: the
    # states are those of the steps taken one by one, bit for bit, and the
    # evolution takes no more products than they do
    space, ops, lind = seeded_lindbladian(32, 1, 6)
    mu, norm = lind.shift_and_norm
    T = 1.0
    m, s = evolution._taylor_plan(T, norm)
    assert s >= 2
    rows, _ = lind.fold
    u0 = pure(space.vacuum()).reshape(-1, order="F")[rows]
    steps, F, h = [], u0.copy(), T / s
    calls = []

    def matvec(v):
        calls.append(None)
        return lind.matvec(v)
    for k in range(int(s)):
        outs = evolution._expm_action(matvec, F, T, mu, m, s, [0.5 * h], [])
        steps += [outs[0], F.copy()]
    stepwise = len(calls)
    products = counting_products(monkeypatch)
    times = np.concatenate(([0.0], np.arange(1, 2 * int(s) + 1) * 0.5 * h))
    times[-1] = T
    res = evolution.evolve_density(lind, space.vacuum(), times)
    assert len(products) == stepwise
    for rho, u in zip(res.states[1:], steps):
        assert np.array_equal(rho, lind.unfold(u))


def scaled_operators(N_max, scale):
    """A d = 1 space and the operators of a seeded strictly positive model
    whose Kraus singular values lie in scale * [0.7, 1.3]."""
    model = strictly_positive_model(np.random.default_rng(36), 1,
                                    sv_range=(0.7 * scale, 1.3 * scale))
    space = fock.build_space(1, N_max)
    return space, generator.build_operators(model, space)


def test_output_times_cost_no_products(monkeypatch):
    products = counting_products(monkeypatch)
    # one horizon T = 0.3 planned as s = 3 steps of h = 0.3/3, a float just
    # below 0.1: outputs off the step ends, on them in floating point (h and
    # 2 h) and on one only in exact arithmetic (0.1, just after h)
    h = 0.3 / 3
    assert h < 0.1
    grids = ([0.0, 0.3], [0.0, 0.1, 0.15, 0.3], [0.0, 0.05, h, 0.1, 2 * h, 0.25, 0.3])
    space, ops = scaled_operators(4, 3.0)
    lind = generator.build_lindbladian(ops)
    e1 = space.basis_vector((1,))
    vspace, vops = scaled_operators(6, 6.0)
    psi0 = vspace.basis_vector((2,))
    for norm, run, reference in (
            (lind.shift_and_norm[1], lambda times: evolution.evolve_density(lind, e1, times),
             lambda times: expm_states(kraus_form_lindbladian(ops), pure(e1), times)),
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
    psi0 = space.basis_vector((1,))
    a = evolution.evolve_density(lind, psi0, times)
    b = expm_states(kraus_form_lindbladian(ops), pure(psi0), times)
    for sa, sb in zip(a.states, b):
        assert np.abs(sa - sb).max() <= 1e-12
    va = evolution.evolve_vector(ops, space.basis_vector((2,)), times)
    vb = expm_states(ops.G, space.basis_vector((2,)), times)
    for xa, xb in zip(va.states, vb):
        assert np.abs(xa - xb).max() <= 1e-12


def test_auto_matches_scipy_expm_multiply():
    space, ops, lind = seeded_lindbladian(31, 2, 13)
    times = [0.0, 0.05, 0.1, 0.3]
    res = evolution.evolve_density(lind, space.vacuum(), times)
    whole = kraus_form_lindbladian(ops)
    v = pure(space.vacuum()).reshape(-1, order="F")
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
    # on the step end.  The grids are evolved again above the threshold
    # lowered to the superoperator's entries, where the worker thread holds
    # the dissipator's product while the caller takes the drift's
    space, ops, lind = seeded_lindbladian(31, 2, 13)
    assert evolution._taylor_plan(0.3, lind.shift_and_norm[1])[1] == 2
    assert lind.matrix.nnz < evolution.TWO_CORE_ENTRIES
    started = counting_threads(monkeypatch)
    grids = (np.linspace(0.0, 0.1, 11), np.array([0.0, 0.05, 0.3]), np.array([0.0, 0.3]))
    for threshold in (evolution.TWO_CORE_ENTRIES, lind.matrix.nnz):
        monkeypatch.setattr(evolution, "TWO_CORE_ENTRIES", threshold)
        for times in grids:
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
                evolution.evolve_density(superop, space.vacuum(), times)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0.9 * needed <= csr_bytes + peak <= 1.05 * needed
    assert len(started) == len(grids)


def test_two_core_products_keep_the_bits(monkeypatch):
    # at d = 3, N_max = 8 the folded dissipator stores 260,928 entries, over
    # TWO_CORE_ENTRIES: every product sends the dissipator's part to one
    # worker thread, joined by the return.  With the threshold above the
    # entries no thread starts, and the states, trace errors and product
    # counts are the same, bit for bit
    space, ops, lind = seeded_lindbladian(61, 3, 8)
    assert lind.matrix.nnz >= evolution.TWO_CORE_ENTRIES
    products, started = counting_products(monkeypatch), counting_threads(monkeypatch)
    on_worker, product = [], generator._product
    monkeypatch.setattr(generator, "_product", lambda *args: (
        on_worker.append(threading.current_thread()) or product(*args)))
    times = [0.0, 0.005, 0.01, 0.02]
    runs = []
    for threshold in (evolution.TWO_CORE_ENTRIES, lind.matrix.nnz + 1):
        monkeypatch.setattr(evolution, "TWO_CORE_ENTRIES", threshold)
        products.clear(), started.clear(), on_worker.clear()
        res = evolution.evolve_density(lind, space.basis_vector((1, 0, 0)), times)
        assert on_worker == started * len(products)
        assert not any(thread.is_alive() for thread in started)
        runs.append((len(started), len(products), res.trace_err.tobytes(),
                     [rho.tobytes(order="F") for rho in res.states]))
    (threads, count, *bits), (no_threads, same_count, *same_bits) = runs
    assert (threads, no_threads) == (1, 0) and count == same_count > 1
    assert bits == same_bits


class FailingDissipator:
    """A folded dissipator whose product raises at the `fail_at`-th call."""

    def __init__(self, matrix, fail_at):
        self.matrix, self.fail_at, self.products, self.nnz = matrix, fail_at, 0, matrix.nnz

    def __matmul__(self, v):
        self.products += 1
        if self.products == self.fail_at:
            raise MemoryError(f"product {self.fail_at}")
        return self.matrix @ v


def test_the_product_worker_is_joined_however_the_evolution_ends(monkeypatch):
    # the worker forced on D = 7: it has stopped after a return, after a
    # trace abort and after a dissipator product that raises on the worker
    # mid-evolution, read while the raising call's traceback lives
    monkeypatch.setattr(evolution, "TWO_CORE_ENTRIES", 0)
    space, ops, lind = damping_setup()
    unstable = dataclasses.replace(
        lind, matrix=(lind.matrix + 0.5 * folded_identity(space.D)).tocsr(),
        trace=lind.trace + 0.5 * space.D ** 2)
    failing = dataclasses.replace(lind, matrix=FailingDissipator(lind.matrix, 3))
    started = counting_threads(monkeypatch)
    psi0 = space.basis_vector((1,))
    evolution.evolve_density(lind, psi0, [0.0, 1.0, 2.0])
    assert len(started) == 1 and not started[0].is_alive()
    for superop, error, message in ((unstable, evolution.IntegrationError, "at t=1 exceeds"),
                                    (failing, MemoryError, "product 3")):
        started.clear()
        with pytest.raises(error, match=message):
            try:
                evolution.evolve_density(superop, psi0, [0.0, 1.0, 2.0])
            finally:
                alive = [thread.is_alive() for thread in started]
        assert alive == [False]
    assert failing.matrix.products == 3


@pytest.mark.parametrize("occupation, interior_dim", [
    ((0, 0), 1), ((0, 0), 6), ((1, 0), 6), ((0, 3), 6), ((0, 3), 10), ((0, 5), 21)])
def test_the_initial_state_is_ranked_without_an_eigensolve(monkeypatch, occupation, interior_dim):
    # a basis-state start |n><n| gives, as eigvalsh does, (1, 0.0) inside the
    # interior, (0, 0.0) outside it, and (1, 1.0) on a one-state interior;
    # no eigensolve is made at t = 0, and later times still solve one
    space, ops, lind = seeded_lindbladian(31, 2, 5)
    res = evolution.evolve_density(lind, space.basis_vector(occupation), [0.0, 0.05])
    expected = evolution.support_rank(res.states[0], interior_dim)
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    rank, min_eig = res.support_rank_at(0.0, interior_dim)
    assert shapes == []
    assert (rank, min_eig) == expected and type(rank) is int and type(min_eig) is float
    assert np.signbit(min_eig) == np.signbit(expected[1])
    inside = space.index_of[occupation] < interior_dim
    assert expected == ((1, 1.0) if interior_dim == 1 else (int(inside), 0.0))
    res.support_rank_at(0.05, interior_dim)
    assert shapes == [(interior_dim, interior_dim)]


def test_a_superposed_start_is_ranked_from_its_interior_weight():
    # a superposition is still rank one: its interior rank is 1 and its
    # smallest interior eigenvalue exactly 0, where eigvalsh leaves rounding;
    # on a one-state interior it is the weight there
    space, ops, lind = seeded_lindbladian(31, 2, 5)
    psi = complex_gaussian(np.random.default_rng(5), space.D)
    res = evolution.evolve_density(lind, psi / np.linalg.norm(psi), [0.0, 0.05])
    for dim in (1, 6, space.D):
        rank, min_eig = evolution.support_rank(res.states[0], dim)
        assert res.support_rank_at(0, dim) == (rank, 0.0 if dim > 1 else min_eig)
        assert rank == 1 and (abs(min_eig) <= 1e-15 if dim > 1 else min_eig > 0)


def test_support_rank_at_refuses_a_time_off_the_grid():
    space, ops, lind = damping_setup()
    res = evolution.evolve_density(lind, space.basis_vector((1,)), [0.0, 0.01, 0.02])
    for t in (0.015, 0.03, -0.01, np.nan):
        with pytest.raises(ValueError, match=f"t = {t} is not an output time"):
            res.support_rank_at(t, 3)
    assert res.ranks == {}
    assert res.support_rank_at(0.02, 3) == evolution.support_rank(res.states[2], 3)
    assert list(res.ranks) == [(0.02, 3)]


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
    evolution.evolve_density(lind, space.vacuum(), [0.0, 0.1, 0.2])
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
