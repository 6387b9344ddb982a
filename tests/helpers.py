"""Shared seeded samplers and references for the test suite."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

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
