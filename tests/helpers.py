"""Shared seeded samplers for the test suite."""

import numpy as np
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


def kraus_form_lindbladian(ops, picture):
    """The whole (unfolded) 2 + m kron Kraus-form generator, term by term."""
    D = ops.space.D
    I = sp.identity(D, dtype=complex, format="csr")
    X, Ks = ops.G, list(ops.L)
    if picture == "heisenberg":
        X, Ks = X.conj().T, [Lop.conj().T for Lop in Ks]
    M = sp.kron(I, X, format="csr") + sp.kron(X.conj(), I, format="csr")
    for K in Ks:
        M = M + sp.kron(K.conj(), K, format="csr")
    return M


def folded_identity(D):
    """The folded CSR (rows (j, k), j <= k, of vec index k D + j) of the identity."""
    k, j = np.tril_indices(D)
    return sp.csr_matrix((np.ones(k.size), (np.arange(k.size), k * D + j)),
                         shape=(k.size, D * D))
