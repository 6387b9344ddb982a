"""The finite-dimensional GKLS generator over the generalized Gell-Mann basis.

The generator is specified by a Hamiltonian H and a Hermitian positive
semidefinite Kossakowski matrix c over the Gell-Mann matrices F_k, with
tr(F_k) = 0 and tr(F_k F_j†) = delta_kj.  `gkls_superoperator` assembles
its Schrodinger form

    L*(rho) = -i[H, rho] + sum_kj c_kj (F_k rho F_j† - {F_j†F_k, rho}/2);

the probes exponentiate its adjoint, the Heisenberg generator
L(x) = i[H, x] + sum_kj c_kj (F_j† x F_k - {F_j†F_k, x}/2), as the
conjugate transpose of the dense L*.

A strictly positive c makes the semigroup positivity improving; the probe
and derivative checks below sample that behaviour on the unit sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .diagnostics import sample_blocks
from .generator import gkls_superoperator
from .model import HERMITICITY_TOL, POSITIVITY_TOL

MAX_DIM = 6
# Step of the finite-difference derivative oracle.
FD_STEP = 1e-4


def gellmann_basis(n):
    """Generalized Gell-Mann matrices normalized to tr(F_j F_k†) = delta_jk.

    Ordering: symmetric pair matrices (j < k lexicographic), antisymmetric
    pair matrices, then the n-1 diagonal matrices.  For n = 2 this is
    (sigma_x, sigma_y, sigma_z) / sqrt(2).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1j / np.sqrt(2.0)
            m[k, j] = 1j / np.sqrt(2.0)
            mats.append(m)
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1)))
    return mats


@dataclass(frozen=True, eq=False)
class FiniteGKLSModel:
    """Hilbert dimension n, Hamiltonian H and Kossakowski matrix c over the
    Gell-Mann basis F = gellmann_basis(n)."""

    n: int
    H: np.ndarray
    c: np.ndarray
    F: list = field(init=False)

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise ValueError("need n >= 2")
        if n > MAX_DIM:
            raise ValueError(f"n = {n} exceeds the superoperator size guard {MAX_DIM}")
        H = np.asarray(self.H, dtype=complex)
        c = np.asarray(self.c, dtype=complex)
        k = n * n - 1
        if H.shape != (n, n):
            raise ValueError("H must be n x n")
        if c.shape != (k, k):
            raise ValueError(f"c must be {k} x {k}")
        if not (np.isfinite(H).all() and np.isfinite(c).all()):
            raise ValueError("H and c must be finite")
        if np.abs(H - H.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("H must be Hermitian")
        if np.abs(c - c.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("c must be Hermitian")
        if np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() < -POSITIVITY_TOL:
            raise ValueError("c must be positive semidefinite")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "F", gellmann_basis(n))


def _drift_and_pairs(model):
    """Drift G and Kossakowski pairs (F_j, B_j) of the model (see build_fd_generators)."""
    pairs = list(zip(model.F, np.einsum("kj,kab->jab", model.c, np.asarray(model.F))))
    return -1j * model.H - 0.5 * sum(F.conj().T @ B for F, B in pairs), pairs


def build_fd_generators(model):
    """Vectorized (Schrodinger) generator L* of the model.

    Passes the drift G = -iH - (1/2) sum_j F_j† B_j and the Kossakowski
    pairs (F_j, B_j = sum_k c_kj F_k), whose dissipator
    sum_j B_j rho F_j† = sum_kj c_kj F_k rho F_j†, to the shared
    `gkls_superoperator`, the GKS form `build_lindbladian` uses too.
    """
    return gkls_superoperator(*_drift_and_pairs(model))


def _heisenberg_propagators(model, times):
    """Dense e^{tL} of the Heisenberg generator L, the adjoint of L*, for each t in times."""
    import scipy.linalg  # loaded only for dense exponentials

    dense = gkls_superoperator(*_drift_and_pairs(model)).toarray().conj().T
    return [scipy.linalg.expm(dense * t) for t in times]


def _heisenberg_expectations(T, U, V):
    """<v, T(|u><u|) v> for every column pair (u, v) of the blocks U, V."""
    n, k = U.shape
    X = np.einsum("ap,bp->abp", U, U.conj()).reshape(n * n, k, order="F")
    evolved = (T @ X).reshape(n, n, k, order="F")
    return np.real(np.einsum("ap,abp,bp->p", V.conj(), evolved, V))


def _pair_blocks(model, n_pairs, seed):
    """Seeded unit pairs as (U, V) blocks, drawn as interleaved u, v columns."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    return ((B[:, 0::2], B[:, 1::2])
            for B in sample_blocks(np.random.default_rng(seed), 2 * n_pairs, model.n))


def _derivatives(model, Ts, U, V):
    """(analytic, numeric) initial derivatives of orthonormal column pairs.

    analytic_p = sum_kj c_kj <F_j v_p, u_p><u_p, F_k v_p>; numeric_p is the
    second-order one-sided difference (4 f(h) - f(2h)) / (2h) of
    f(t) = <v_p, T_t(|u_p><u_p|) v_p> at h = FD_STEP, with Ts = (T_h, T_2h).
    """
    z = np.einsum("jab,bp,ap->jp", np.conj(model.F), V.conj(), U)
    f_h, f_2h = (_heisenberg_expectations(T, U, V) for T in Ts)
    return (np.real(np.einsum("kp,kj,jp->p", z.conj(), model.c, z)),
            (4.0 * f_h - f_2h) / (2.0 * FD_STEP))


def initial_derivative(model, u, v):
    """Initial growth rate of t -> <v, T_t(|u><u|) v> for orthogonal unit u, v.

    Returns (analytic, numeric): the closed form
    sum_kj c_kj <F_j v, u><u, F_k v> and a second-order one-sided finite
    difference of the semigroup expectation at t = 0+ (the |<v, P_t* u>|^2
    contribution is second order for orthogonal pairs).
    """
    u = np.asarray(u, dtype=complex).reshape(model.n)
    v = np.asarray(v, dtype=complex).reshape(model.n)
    if abs(np.linalg.norm(u) - 1.0) > 1e-10 or abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("u and v must be unit vectors")
    if abs(np.vdot(u, v)) > 1e-10:
        raise ValueError("u and v must be orthogonal")
    Ts = _heisenberg_propagators(model, (FD_STEP, 2 * FD_STEP))
    analytic, numeric = _derivatives(model, Ts, u[:, None], v[:, None])
    return float(analytic[0]), float(numeric[0])


def fd_derivative_check(model, n_pairs, seed):
    """Largest |analytic - numeric| / (1 + |analytic|) of `initial_derivative`
    over n_pairs seeded pairs, v made orthogonal to u, a block at a time.
    """
    pairs = _pair_blocks(model, n_pairs, seed)
    Ts = _heisenberg_propagators(model, (FD_STEP, 2 * FD_STEP))
    worst = 0.0
    for U, V in pairs:
        V = V - np.sum(U.conj() * V, axis=0) * U
        analytic, numeric = _derivatives(model, Ts, U, V / np.linalg.norm(V, axis=0))
        mismatch = np.abs(analytic - numeric) / (1.0 + np.abs(analytic))
        worst = max(worst, np.max(mismatch))
    return float(worst)


def fd_positivity_probe(model, t_grid, n_pairs, seed):
    """Minimum of <v, T_t(|u><u|) v> over sampled unit pairs and times.

    A strictly positive minimum across the grid is the sampled signature
    of a positivity-improving semigroup.  Each e^{tL} is formed once and
    applied to a whole block of vectorized |u><u|.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must not be empty")
    if any(t <= 0 for t in t_grid):
        raise ValueError("t_grid entries must be positive")
    pairs = _pair_blocks(model, n_pairs, seed)
    Ts = _heisenberg_propagators(model, t_grid)
    return float(min(np.min(_heisenberg_expectations(T, U, V))
                     for U, V in pairs for T in Ts))


def fd_model_from_jsonable(n, c, H=None, basis="gellmann"):
    """Decode the fields of the JSON finite model; H defaults to zero."""
    n = int(n)
    if basis != "gellmann":
        raise ValueError(f"unknown basis {basis!r}")
    H = np.zeros((n, n)) if H is None else serialize.pairs_to_matrix(H)
    return FiniteGKLSModel(n=n, H=H, c=serialize.pairs_to_matrix(c))
