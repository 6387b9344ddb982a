"""Shared seeded samplers and references for the test suite."""

import functools
import inspect
import math
import threading

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from gqms import cli, commutators, diagnostics, evolution, fock, generator
from gqms import model as gm


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng, n):
    z = complex_gaussian(rng, (n, n)) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_vu(rng, d, m, scale=1.0):
    return (scale * complex_gaussian(rng, (m, d)),
            scale * complex_gaussian(rng, (m, d)))


def random_hermitian(rng, d, scale=1.0):
    a = complex_gaussian(rng, (d, d))
    return scale * 0.5 * (a + a.conj().T)


def random_symmetric(rng, d, scale=1.0):
    a = complex_gaussian(rng, (d, d))
    return scale * 0.5 * (a + a.T)


def random_model(rng, d, m, quad_scale=0.2, kraus_scale=1.0):
    V, U = random_vu(rng, d, m, scale=kraus_scale)
    return gm.GaussianModel(
        d=d,
        Omega=random_hermitian(rng, d, quad_scale),
        kappa=random_symmetric(rng, d, quad_scale),
        zeta=quad_scale * complex_gaussian(rng, d),
        V=V, U=U,
    )


def strictly_positive_model(rng, d, sv_range=(0.7, 1.3), quad_scale=0.2):
    """Model with m = 2d and Kossakowski matrix eigenvalues in sv_range**2.

    The factor B with K = B B† is built from seeded unitaries and singular
    values drawn in sv_range, so eps0 = min(s)^2 is controlled directly.
    """
    m = 2 * d
    q1 = haar_unitary(rng, 2 * d)
    q2 = haar_unitary(rng, m)
    s = rng.uniform(sv_range[0], sv_range[1], size=m)
    B = q1 @ np.diag(s).astype(complex) @ q2.conj().T
    V = B[:d, :].T.copy()
    U = B[d:, :].conj().T.copy()
    return gm.GaussianModel(
        d=d,
        Omega=random_hermitian(rng, d, quad_scale),
        kappa=random_symmetric(rng, d, quad_scale),
        zeta=quad_scale * complex_gaussian(rng, d),
        V=V, U=U,
    )


def counting_threads(monkeypatch):
    """The list of threads started from now on."""
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    return started


def csr_bits(M):
    """A CSR's index arrays and the bit patterns of its values (signed zeros
    and NaN payloads included)."""
    return (M.indptr.dtype, M.indptr.tolist(), M.indices.dtype, M.indices.tolist(),
            M.data.dtype, M.data.view(np.int64).tolist())


def form_matrix_by_terms(coeffs, ladders):
    """The form's CSR as the sum of its scaled nonzero terms, the identity
    last: the reference for `commutators.form_matrix`.

    A -0.0 part of a one-term form is made +0.0, as a sum of two or more
    terms makes it.
    """
    D = ladders.space.D
    terms = [c * s for c, s in zip(coeffs[1:], ladders.a + ladders.adag) if c != 0]
    if coeffs[0] != 0:
        terms.append(coeffs[0] * sp.identity(D, dtype=complex, format="csr"))
    if not terms:
        return sp.csr_matrix((D, D), dtype=complex)
    M = sum(terms[1:], terms[0])
    M.data += 0
    return M


def ladders_by_basis_loop(space):
    """The ladders by a loop over the basis and its index dict, a† as the
    transpose of a: the reference for `fock.build_ladders`."""
    D = space.D
    a_ops = []
    for j in range(space.d):
        rows, cols, vals = [], [], []
        for i, n in enumerate(space.basis):
            if n[j] > 0:
                lower = n[:j] + (n[j] - 1,) + n[j + 1:]
                rows.append(space.index_of[lower])
                cols.append(i)
                vals.append(math.sqrt(n[j]))
        a_ops.append(sp.csr_matrix(
            (np.asarray(vals, dtype=complex), (rows, cols)), shape=(D, D)))
    N = sp.diags(space.grades.astype(complex), format="csr")
    return fock.LadderOperators(space=space, a=tuple(a_ops),
                                adag=tuple(a.T.tocsr() for a in a_ops), N=N)


def operators_by_sparse_algebra(model, space):
    """(ops, pairs): L_l, G0 = -(1/2) sum L_l†L_l and G = -iH + G0 with
    H = (P + P†)/2, P = sum_j a_j† X_j, by sparse products and sums of the
    loop ladders' forms, and the Kossakowski pairs (s_q, B_q): the reference
    for `generator.build_operators` and `TruncatedOperators.pairs`.

    scipy's products leave the entries of a row in an order of their own,
    so G and G0 are returned with sorted indices.
    """
    lad = ladders_by_basis_loop(space)
    rows = np.column_stack([model.zeta, model.Omega, model.kappa])
    P = sum(adag @ form_matrix_by_terms(row, lad) for adag, row in zip(lad.adag, rows))
    H = 0.5 * (P + P.conj().T)
    L = [form_matrix_by_terms(row, lad) for row in commutators.adjoint_action(model).kraus]
    G0 = -0.5 * sum(Lop.conj().T @ Lop for Lop in L)
    G = (-1j) * H + G0
    ops = generator.TruncatedOperators(
        space=space, ladders=lad, G=G.tocsr().sorted_indices(), G0=G0.tocsr().sorted_indices(),
        N=lad.N, L=tuple(L), model=model)
    K = gm.build_kossakowski(model.V, model.U).matrix
    s = lad.a + lad.adag
    pairs = [(s[q], form_matrix_by_terms(np.concatenate(([0], K[q])), lad))
             for q in range(len(s)) if K[q].any()]
    return ops, pairs


def sample_statistics_by_rows(ops, seed, n_samples):
    """The sample pass on whole-space columns: each block has all D rows,
    zero past the interior, every operator is applied whole, and the forms
    are reduced over all D rows; the reference for
    `diagnostics.sample_statistics`."""
    space, d = ops.space, ops.space.d
    norm2 = {name: np.empty(n_samples) for name in ("G0", "N", "G")}
    form = {name: np.empty(n_samples, dtype=complex if name == "G" else float)
            for name in norm2}
    work = np.zeros(space.D * diagnostics.SAMPLE_BLOCK, dtype=complex)
    start = 0
    for X in diagnostics.sample_blocks(np.random.default_rng(seed), n_samples,
                                       space.interior_dim(), space.D):
        b = X.shape[1]
        T2 = work[:space.D * max(b, 2)].reshape(space.D, max(b, 2))
        T = T2[:, :b]
        for name in norm2:
            Y = getattr(ops, name) @ X
            np.multiply(np.conjugate(Y, out=T), Y, out=T)
            norm2[name][start:start + b] = np.sqrt(np.add.reduce(T2.real, axis=0)[:b]) ** 2
            if name == "G0":
                Y *= -2.0
            elif name == "N":
                Y *= 2.0
                Y += np.multiply(d, X, out=T)
            z = np.einsum("ij,ij->j", np.conjugate(X, out=T), Y)
            form[name][start:start + b] = z if name == "G" else np.real(z)
        start += b
    return diagnostics.SampleStatistics(form=form, norm2=norm2)


def pure(psi):
    """The density array |psi><psi| of a unit vector psi."""
    return np.outer(psi, np.conj(psi))


def kraus_form_dissipator(ops):
    """The whole (unfolded) m-kron Kraus-form dissipator, term by term."""
    M = sp.csr_matrix((ops.space.D ** 2,) * 2, dtype=complex)
    for K in ops.L:
        M = M + sp.kron(K.conj(), K, format="csr")
    return M


def kraus_form_lindbladian(ops):
    """The whole (unfolded) 2 + m kron Kraus-form generator, term by term."""
    D = ops.space.D
    I = sp.identity(D, dtype=complex, format="csr")
    G = ops.G
    return (sp.kron(I, G, format="csr") + sp.kron(G.conj(), I, format="csr")
            + kraus_form_dissipator(ops))


def folded_identity(D):
    """The folded CSR (rows (j, k), j <= k, of vec index k D + j) of the identity."""
    k, j = np.tril_indices(D)
    return sp.csr_matrix((np.ones(k.size), (np.arange(k.size), k * D + j)),
                         shape=(k.size, D * D))


def expm_states(A, v0, times):
    """e^{t A} v0 at each of `times` by scipy.linalg.expm, one interval at a time.

    A is a sparse generator: ops.G for a vector v0, or the whole
    `kraus_form_lindbladian` for a D x D density array v0, which is
    column-stacked and whose states are returned as D x D arrays.
    """
    dense = A.toarray()
    v = np.asarray(v0).reshape(-1, order="F")
    states = [v]
    for dt in np.diff(times):
        states.append(scipy.linalg.expm(dt * dense) @ states[-1])
    return [state.reshape(np.shape(v0), order="F") for state in states]


# The config schema in JSON Schema, checked by jsonschema: the reference for
# `cli.schema_errors`.  UNKNOWN_KEY rejects every extra key, as `false` does,
# but at the key's own JSON pointer.
UNKNOWN_KEY = {"not": {}}
# schema of a parameter by the type of its default; other defaults leave it untyped
JSON_TYPES = {int: {"type": "integer"}, float: {"type": "number"}, tuple: {"type": "array"}}


def _closed(required, properties):
    """Schema of an object with the `required` keys and no key beyond `properties`."""
    return {"type": "object", "required": required, "properties": properties,
            "additionalProperties": UNKNOWN_KEY}


def _signature_schema(fn, skip, keys, params):
    """Closed schema of `keys` and of the parameters of `fn` after its first `skip`.

    A parameter without a default is required; one named in `params` takes
    that schema, any other the JSON_TYPES entry of its default's type.
    """
    signature = list(inspect.signature(fn).parameters.values())[skip:]
    return _closed([p.name for p in signature if p.default is p.empty], {
        **keys, **{p.name: params.get(p.name, JSON_TYPES.get(type(p.default), {}))
                   for p in signature}})


@functools.cache
def reference_validators():
    """jsonschema validators of the top-level shape, of the model by kind and
    of a task by name, each closed to its function's signature."""
    import jsonschema

    config = _closed(["seed", "model", "tasks"], {
        "seed": {"type": "integer", "minimum": 0},
        "model": {"type": "object", "required": ["kind"],
                  "properties": {"kind": {"enum": list(cli.MODELS)}}},
        "space": _closed(["N_max"], {"N_max": {"type": "integer", "minimum": 1},
                                     "interior_margin": {"type": "integer", "minimum": 0}}),
        "tasks": {"type": "array", "minItems": 1,
                  "items": {"type": "object", "required": ["name"],
                            "properties": {"name": {"enum": list(cli.TASKS)}}}},
    })
    count = {"type": "integer", "minimum": 1}
    nonempty = {"type": "array", "minItems": 1}
    occupation = {"type": "array", "items": {"type": "integer", "minimum": 0}}
    state = {"if": {"type": "string"}, "then": {"const": "vacuum"}, "else": occupation}
    seeds_or_starts = {
        "if": {"not": {"required": ["starts"], "properties": {"starts": nonempty}}},
        "then": {"properties": {"n_seeds": {"minimum": 1}}}}
    models = {kind: jsonschema.Draft202012Validator(
        _signature_schema(fn, 0, {"kind": {}}, {"d": count, "n": count}))
        for kind, fn in cli.MODELS.items()}
    tasks = {name: jsonschema.Draft202012Validator({**seeds_or_starts, **_signature_schema(
        fn, 2, {"name": {}, "expect": {"type": "object"}},
        {"n_samples": {**count, "maximum": evolution.MAX_PRODUCTS // cli.SAMPLE_PRODUCTS},
         "n_pairs": {**count,
                     "maximum": evolution.MAX_PRODUCTS // cli.PAIR_PRODUCTS.get(name, 1)},
         "n_seeds": {"type": "integer", "minimum": 0},
         "times": {**nonempty, "items": {"type": "number", "minimum": 0}},
         "t": {"type": "number", "exclusiveMinimum": 0}, "initial": state,
         "initials": {**nonempty, "items": state}, "starts": {"type": "array", "items": state},
         "observables": {"type": "array", "items": occupation},
         "plots": {"type": "array", "items": {"enum": cli.PLOTS.get(name, [])}},
         "shift_grid": {**nonempty, "items": {"type": "number"}}})})
        for name, fn in cli.TASKS.items()}
    return jsonschema.Draft202012Validator(config), models, tasks


def reference_schema_pointers(config):
    """The set of JSON pointers (path tuples) at which the reference refuses
    `config`: the top-level shape, then, if it holds, the model and each task."""
    validator, models, tasks = reference_validators()
    errors = [tuple(e.absolute_path) for e in validator.iter_errors(config)]
    if not errors:
        errors = [("model", *e.absolute_path)
                  for e in models[config["model"]["kind"]].iter_errors(config["model"])]
        errors += [("tasks", i, *e.absolute_path) for i, task in enumerate(config["tasks"])
                   for e in tasks[task["name"]].iter_errors(task)]
    return set(errors)
