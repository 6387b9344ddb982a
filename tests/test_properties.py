"""Property tests: seeded (derandomized) hypothesis searches against references and invariants."""

import copy
import json

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gqms import cli, commutators, evolution, fock, generator, serialize
from gqms import model as gm
from helpers import (complex_gaussian, csr_bits, form_matrix_by_terms, haar_unitary,
                     operators_by_sparse_algebra, random_model, reference_schema_pointers)

# coefficient parts: zeros of both signs, subnormals, large and ordinary floats
PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e300, -1.7e308]),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def forms(draw):
    d = draw(st.integers(1, 3))
    N_max = draw(st.integers(1, 5 if d < 3 else 3))
    coeffs = [complex(draw(PARTS), draw(PARTS)) for _ in range(2 * d + 1)]
    return d, N_max, np.array(coeffs)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(forms())
def test_form_matrix_is_the_sum_of_its_scaled_terms(form):
    d, N_max, coeffs = form
    lad = fock.build_ladders(fock.build_space(d, N_max))
    with np.errstate(over="ignore"):  # a large part times sqrt(n) may overflow, in both
        assert csr_bits(commutators.form_matrix(coeffs, lad)) == csr_bits(
            form_matrix_by_terms(coeffs, lad))


@st.composite
def seeded_models(draw, max_d=2):
    """A seeded Gaussian model with d <= max_d and m = 1..2d + 1 Kraus rows, and its rng."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, max_d))
    return rng, random_model(rng, d, draw(st.integers(1, 2 * d + 1)))


@st.composite
def truncated_models(draw):
    """A seeded model of d = 1..3 modes and m = 1..2d+1 Kraus rows whose zeta
    entries and Omega and kappa rows (with their columns) are each kept or
    zeroed per mode, and a space with N_max = 1..6 and interior_margin 0..2."""
    rng, model = draw(seeded_models(max_d=3))
    d = model.d
    kept = [np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d))) for _ in range(3)]
    zeta, Omega, kappa = (np.where(k, x, 0) if x.ndim == 1 else x * np.outer(k, k)
                          for k, x in zip(kept, (model.zeta, model.Omega, model.kappa)))
    model = gm.GaussianModel(d=d, Omega=Omega, kappa=kappa, zeta=zeta, V=model.V, U=model.U)
    return model, fock.build_space(d, draw(st.integers(1, 6)), draw(st.integers(0, 2)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(truncated_models())
def test_operators_by_index_arithmetic_match_the_sparse_algebra(truncated):
    # the ladders and N are the loop's bit for bit; G, G0, the L_l and the
    # Kossakowski pairs have the sparse algebra's stored positions, and
    # values within 1e-15 of the operator's largest entry (G0 and H sum
    # their products in another order than scipy's sparse products)
    model, space = truncated
    ops = generator.build_operators(model, space)
    ref, ref_pairs = operators_by_sparse_algebra(model, space)
    lad, ref_lad = ops.ladders, ref.ladders
    for A, B in zip(lad.a + lad.adag + (lad.N,), ref_lad.a + ref_lad.adag + (ref_lad.N,)):
        assert csr_bits(A) == csr_bits(B)
    assert len(ops.L) == len(ref.L) and len(ops.pairs) == len(ref_pairs)
    for A, B in [(ops.G, ref.G), (ops.G0, ref.G0), *zip(ops.L, ref.L),
                 *[pair for pairs in zip(ops.pairs, ref_pairs) for pair in zip(*pairs)]]:
        assert A.indptr.tolist() == B.indptr.tolist() and A.indices.tolist() == B.indices.tolist()
        assert np.abs(A.data - B.data).max(initial=0) <= 1e-15 * np.abs(B.data).max(initial=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seeded_models(max_d=3), st.integers(2, 5))
def test_stored_half_product_matches_the_dense_generator(seeded, N_max):
    # at d = 3 N_max stops at 4 (D = 35): the dense generator at N_max = 5 takes 157 MB
    rng, model = seeded
    space = fock.build_space(model.d, min(N_max, 4 if model.d == 3 else 5))
    superop = generator.build_lindbladian(generator.build_operators(model, space))
    D, rows = space.D, superop.fold[0]
    dense = superop.toarray()
    X = complex_gaussian(rng, (D, D))
    H = X + X.conj().T
    image = superop.unfold(superop.matvec(H.reshape(-1, order="F")[rows]))
    expected = (dense @ H.reshape(-1, order="F")).reshape(D, D, order="F")
    assert np.abs(image - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(image, image.conj().T) and not image.diagonal().imag.any()
    expected = (dense @ X.reshape(-1, order="F")).reshape(D, D, order="F")
    assert np.abs(superop.apply(X) - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seeded_models(), st.integers(2, 5))
def test_generator_preserves_trace_and_hermiticity(seeded, N_max):
    rng, model = seeded
    space = fock.build_space(model.d, N_max)
    superop = generator.build_lindbladian(generator.build_operators(model, space))
    dim = space.interior_dim()
    X = np.zeros((space.D, space.D), dtype=complex)
    X[:dim, :dim] = complex_gaussian(rng, (dim, dim))
    H = X + X.conj().T
    Y, image = superop.apply(X), superop.apply(H)
    scale = 1e-12 * np.abs(Y).sum()
    assert abs(np.trace(Y)) <= scale
    assert abs(np.trace(image)) <= 1e-12 * np.abs(image).sum()
    assert np.array_equal(image, image.conj().T)
    assert np.abs(superop.apply(X.conj().T) - Y.conj().T).max() <= scale


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seeded_models(), st.integers(2, 5))
def test_action_oracle_matches_the_matrix_commutators(seeded, N_max):
    # the bound the `support` task holds the oracle to
    _, model = seeded
    ops = generator.build_operators(model, fock.build_space(model.d, N_max))
    assert commutators.validate_action_oracle(ops, commutators.adjoint_action(model)) <= 1e-9


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seeded_models())
def test_kossakowski_matrix_is_invariant_under_kraus_mixing(seeded):
    rng, model = seeded
    K = gm.build_kossakowski(model.V, model.U).matrix
    mixed = gm.mix_kraus(model, haar_unitary(rng, model.m))
    assert np.abs(gm.build_kossakowski(mixed.V, mixed.U).matrix - K).max() <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.floats(0, 10),
       st.complex_numbers(max_magnitude=5),
       st.lists(st.floats(0, 1), min_size=1, max_size=4))
def test_propagators_match_expm(seed, n, norm, shift, times):
    # a complex A of 1-norm `norm` whose diagonal carries a drawn shift, at
    # times in any order, with repeats
    A = complex_gaussian(np.random.default_rng(seed), (n, n)) + shift * np.eye(n)
    A *= norm / np.abs(A).sum(axis=0).max()
    for t, P in zip(times, evolution.propagators(A, times)):
        R = scipy.linalg.expm(t * A)
        assert np.abs(P - R).max() <= 1e-13 * np.abs(R).max()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.floats(0, 1))
def test_bogoliubov_pairs_meet_the_constraints_and_the_congruence(seed, d, squeeze):
    pair = gm.generate_bogoliubov(d, seed, squeeze)
    T = pair.mode_matrix()
    # E†E and E^T F are sums of products of T's entries, rounded at their scale
    assert max(pair.residuals) <= 1e-13 * max(1.0, np.abs(T).max() ** 2)
    rng = np.random.default_rng(seed)
    model = random_model(rng, d, int(rng.integers(1, 2 * d + 2)))
    K = gm.build_kossakowski(model.V, model.U).matrix
    moved = gm.bogoliubov_transform(model, pair)
    K2 = gm.build_kossakowski(moved.V, moved.U).matrix
    assert np.abs(K2 - T @ K @ T.conj().T).max() <= 1e-10


# JSON-bound floats: NaN, both infinities, both zeros, subnormals and numpy's float64
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, -2.5e-320]),
                   st.floats().map(np.float64))
COMPLEX_ARRAYS = hnp.arrays(complex, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0))
SCALARS = st.one_of(FLOATS, st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(),
                    st.text(), COMPLEX_ARRAYS)
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4),
    st.dictionaries(st.integers() | st.floats(allow_nan=False) | st.booleans(), inner,
                    max_size=4)), max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(JSON_VALUES)
def test_dumps_is_the_standard_indented_encoding(value):
    # non-ASCII and control characters, ints beyond 2**63, empty containers,
    # number and bool keys and 1-D and 2-D complex arrays, at any nesting
    assert serialize.dumps(value) == json.dumps(serialize.jsonable(value),
                                                sort_keys=True, indent=2)


# lists of rows, the shape of [re, im] pairs and of matrices of them: rows
# empty or not, holding NaN or infinities, ints or bare floats among them
FLOAT_ROWS = st.lists(st.lists(FLOATS, min_size=1, max_size=3)
                      | st.lists(FLOATS | st.integers(), max_size=3).map(tuple) | FLOATS,
                      min_size=1, max_size=5)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(FLOAT_ROWS | st.lists(FLOAT_ROWS, max_size=3))
def test_dumps_of_float_rows_is_the_standard_encoding(rows):
    assert serialize.dumps(rows) == json.dumps(rows, sort_keys=True, indent=2)


# A valid config of each model kind; together they hold every task, each
# with every setting it takes
CONFIG_MODELS = {
    "gaussian": {"kind": "gaussian", "d": 1, "V": [[1.0]], "U": [[0.5]], "omega": [[0.2]]},
    "two_boson": {"kind": "two_boson", "gamma_minus": [[1, 0], [0, 1]],
                  "gamma_plus": [[0.5, 0], [0, 0.5]]},
    "finite": {"kind": "finite", "n": 2, "c": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
}
BOSONIC_TASKS = [
    {"name": "kossakowski", "expect": {"eps0": 0.0}}, {"name": "minimality"},
    {"name": "bogoliubov", "squeeze": 0.5}, {"name": "number-bound", "n_samples": 10},
    {"name": "domain-comparison", "n_samples": 10},
    {"name": "evolve", "initial": [1], "times": [0, 0.1], "observables": [[0], [1]]},
    {"name": "support", "initial": "vacuum", "t": 0.1},
    {"name": "improve", "initials": ["vacuum", [1]], "times": [0.05],
     "plots": ["min-eig-vs-t", "support-rank-vs-t"]},
    {"name": "invariant", "n_seeds": 2, "starts": ["vacuum", [2]]},
    {"name": "sector", "n_samples": 10, "shift_grid": [0.0, 1.0],
     "plots": ["numerical-range-scatter"]},
]
FINITE_TASKS = [{"name": "fd-probe", "n_pairs": 5}, {"name": "fd-derivative", "n_pairs": 5}]


def valid_config(kind):
    config = {"seed": 1, "model": copy.deepcopy(CONFIG_MODELS[kind]),
              "tasks": copy.deepcopy(FINITE_TASKS if kind == "finite" else BOSONIC_TASKS)}
    if kind != "finite":
        config["space"] = {"N_max": 6, "interior_margin": 2}
    return config


def with_task(kind, index, **settings):
    """A valid config of `kind` with its task `index` updated by `settings`
    (a setting of None deleted)."""
    config = valid_config(kind)
    task = config["tasks"][index]
    task.update(settings)
    for key in [key for key, value in settings.items() if value is None]:
        del task[key]
    return config


NAN, INF = float("nan"), float("inf")
# wrong JSON types, booleans, integral and fractional floats, counts at and
# past their bounds, negative and non-finite numbers, labels and occupations
MUTANTS = st.sampled_from([
    None, True, False, "x", "vacuum", "vac", "gaussian", "two_boson", "finite", "sector",
    "invariant", "fd-probe", "min-eig-vs-t", "numerical-range-scatter", 0, 1, -1, 2, 6, 0.0,
    -0.0, 1.0, 6.0, 0.5, -0.5, 2.7, NAN, INF, -INF, 10 ** 400, -10 ** 400, 1e300, 33333, 33334,
    33333.0, 33334.0, 50000, 50001, 10 ** 12, [], [0], [1, 0], [-1], [True], [0.5], [2.0],
    ["vacuum"], ["vac"], [[1], [-1]], [[0.5]], {}, {"eps0": 0.0}]).map(copy.deepcopy)
# a task name or model kind in place of another, or a label of neither
LABELS = st.sampled_from([*cli.TASKS, *cli.MODELS, "x"])
KEYS = st.sampled_from([
    "timez", "n_sample", "seed", "name", "kind", "model", "space", "tasks", "expect", "d", "n",
    "V", "H", "N_max", "interior_margin", "dimension_cap", *sorted(
        {key for params in cli.TASK_PARAMS.values() for key in params})])


def locations(value, deep=True):
    """(container, key) of every entry of a JSON value, at any depth if
    `deep`; the entries of the model's fields (untyped matrices) are left out."""
    entries = value.items() if isinstance(value, dict) else enumerate(value)
    for key, entry in list(entries):
        yield value, key
        if isinstance(entry, (dict, list)) and deep:
            yield from locations(entry, deep=key != "model")


@st.composite
def mutated_configs(draw):
    """A valid config with one to three entries replaced, deleted or added,
    most of them in a task, where a mutation is checked against the task's
    fields."""
    config = valid_config(draw(st.sampled_from(list(CONFIG_MODELS))))
    for _ in range(draw(st.integers(1, 3))):
        tasks = config.get("tasks")
        roots = [config, config, *(tasks if isinstance(tasks, list) else ())]
        roots = [root for root in roots if isinstance(root, dict) and root]
        if not roots:
            break
        container, key = draw(st.sampled_from(list(locations(draw(st.sampled_from(roots))))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if key in ("name", "kind"):  # a label is replaced, so its fields are checked
            container[key] = draw(LABELS)
        elif action == "replace":
            container[key] = draw(MUTANTS)
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[draw(KEYS)] = draw(MUTANTS)
        else:
            container.append(draw(MUTANTS))
    return config


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(mutated_configs())
@example(valid_config("gaussian"))
@example(valid_config("two_boson"))
@example(valid_config("finite"))
@example([])
@example(with_task("gaussian", 1, name=None))
@example({**valid_config("gaussian"), "space": {"N_max": 6.0, "interior_margin": 2.0}})
@example({**valid_config("gaussian"), "seed": True})
@example(with_task("gaussian", 3, n_samples=33333))
@example(with_task("gaussian", 3, n_samples=33334))
@example(with_task("gaussian", 9, n_samples=33334.0))
@example(with_task("finite", 0, n_pairs=33334))
@example(with_task("finite", 1, n_pairs=50001))
@example(with_task("gaussian", 2, squeeze=10 ** 400))
@example(with_task("gaussian", 2, squeeze=True))
@example(with_task("gaussian", 5, times=[0, NAN]))
@example(with_task("gaussian", 7, times=[-0.1]))
@example(with_task("gaussian", 6, t=0))
@example(with_task("gaussian", 6, t=NAN))
@example({**valid_config("finite"), "tasks": []})
@example(with_task("gaussian", 7, times=[], initials=[]))
@example(with_task("gaussian", 9, shift_grid=[], plots=[]))
@example(with_task("gaussian", 8, n_seeds=0))
@example(with_task("gaussian", 8, n_seeds=0, starts=None))
@example(with_task("gaussian", 8, n_seeds=0, starts=[]))
@example(with_task("gaussian", 8, n_seeds=-1))
@example(with_task("gaussian", 0, n_seeds=0))
@example(with_task("gaussian", 7, initials=["vac", [1, -1], [True]], plots=["x"]))
@example(with_task("gaussian", 5, observables=[[0.5], 3], timez=[0.1]))
def test_schema_errors_are_at_the_reference_pointers(config):
    assert {tuple(path) for path, _ in cli.schema_errors(config)} == \
        reference_schema_pointers(config)
