"""Gaussian model data and the associated Kossakowski matrix.

A Gaussian generator on d modes is specified by
    H   = sum_jk Omega_jk a_j† a_k + (kappa_jk/2) a_j† a_k†
          + (conj(kappa_jk)/2) a_j a_k
          + sum_j (zeta_j/2) a_j† + (conj(zeta_j)/2) a_j,
    L_l = sum_k conj(v_lk) a_k + u_lk a_k†,    l = 1..m,
with Omega Hermitian, kappa symmetric, and V = (v_lk), U = (u_lk) the
m x d coefficient matrices of the Kraus operators.

The Kossakowski matrix is the 2d x 2d positive semidefinite block matrix

    K = [[V^T conj(V), V^T U ],
         [U† conj(V),  U† U  ]]  =  B B†,   B = [[V^T], [U†]],

whose smallest eigenvalue eps0 controls the irreducibility and
positivity-improvement diagnostics implemented elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import evolution, serialize

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
RANK_RTOL = 1e-10
BOGOLIUBOV_TOL = 1e-10
UNITARITY_TOL = 1e-10


def _as_matrix(x, name):
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Matrix data (Omega, kappa, zeta, V, U) of a Gaussian generator."""

    d: int
    Omega: np.ndarray
    kappa: np.ndarray
    zeta: np.ndarray
    V: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        d = self.d
        Omega = _as_matrix(self.Omega, "Omega")
        kappa = _as_matrix(self.kappa, "kappa")
        zeta = np.asarray(self.zeta, dtype=complex).reshape(-1)
        V = _as_matrix(self.V, "V")
        U = _as_matrix(self.U, "U")
        if Omega.shape != (d, d) or kappa.shape != (d, d) or zeta.shape != (d,):
            raise ValueError("Omega, kappa must be d x d and zeta length d")
        if V.shape[1] != d or U.shape != V.shape:
            raise ValueError(
                f"V and U must share shape (m, d={d}); got {V.shape}, {U.shape}"
            )
        if not all(np.isfinite(x).all() for x in (Omega, kappa, zeta, V, U)):
            raise ValueError("Omega, kappa, zeta, V and U must be finite")
        if np.abs(Omega - Omega.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("Omega must be Hermitian")
        if np.abs(kappa - kappa.T).max() > HERMITICITY_TOL:
            raise ValueError("kappa must be symmetric")
        if np.abs(V).max() == 0.0 and np.abs(U).max() == 0.0:
            raise ValueError("V and U cannot both be zero")
        object.__setattr__(self, "Omega", Omega)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "U", U)

    @property
    def m(self):
        """Number of Kraus operators."""
        return self.V.shape[0]

    @cached_property
    def kossakowski(self):
        """The model's `build_kossakowski(V, U)`, built once."""
        return build_kossakowski(self.V, self.U)

    @cached_property
    def adjoint_action(self):
        """The model's `commutators.adjoint_action`, built once."""
        from .commutators import adjoint_action  # keeps scipy.sparse out of this module
        return adjoint_action(self)


def quadratic_free_model(d, V, U):
    """Model with zero Hamiltonian data, dissipator only."""
    return GaussianModel(
        d=d, Omega=np.zeros((d, d)), kappa=np.zeros((d, d)),
        zeta=np.zeros(d), V=V, U=U,
    )


@dataclass(frozen=True, eq=False)
class KossakowskiMatrix:
    """2d x 2d Hermitian PSD matrix with spectral metadata."""

    matrix: np.ndarray
    eps0: float
    rank: int
    strictly_positive: bool


def build_kossakowski(V, U):
    """Assemble the Kossakowski block matrix of (V, U) with spectral metadata.

    eps0 is the smallest eigenvalue; the rank uses a relative threshold of
    RANK_RTOL times the spectral norm; strict positivity means
    eps0 > POSITIVITY_TOL.
    """
    V = _as_matrix(V, "V")
    U = _as_matrix(U, "U")
    if V.shape != U.shape:
        raise ValueError(f"V and U must share a shape; got {V.shape}, {U.shape}")
    K = np.block([
        [V.T @ V.conj(), V.T @ U],
        [U.conj().T @ V.conj(), U.conj().T @ U],
    ])
    w = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
    norm = float(np.abs(w).max())
    eps0 = float(w.min())
    rank = int(np.sum(w > RANK_RTOL * norm)) if norm > 0 else 0
    return KossakowskiMatrix(
        matrix=K, eps0=eps0, rank=rank,
        strictly_positive=bool(eps0 > POSITIVITY_TOL),
    )


def kossakowski_factor(V, U):
    """The 2d x m factor B with K = B B†."""
    V = _as_matrix(V, "V")
    U = _as_matrix(U, "U")
    return np.vstack([V.T, U.conj().T])


def check_minimality(V, U):
    """True iff the Kraus count m cannot be reduced.

    Equivalent formulations: ker(V†) ∩ ker(U^T) = {0}; the stacked 2d x m
    matrix [[V†], [U^T]] has rank m; rank(K) = m.
    """
    V = _as_matrix(V, "V")
    U = _as_matrix(U, "U")
    if V.shape != U.shape:
        raise ValueError(f"V and U must share a shape; got {V.shape}, {U.shape}")
    stacked = np.vstack([V.conj().T, U.T])
    return int(np.linalg.matrix_rank(stacked)) == V.shape[0]


def mix_kraus(model, r):
    """Replace the Kraus family by L'_l = sum_j r_lj L_j for unitary r.

    On the coefficient matrices this acts as V -> conj(r) V, U -> r U and
    leaves the Kossakowski matrix invariant.
    """
    r = _as_matrix(r, "r")
    m = model.m
    if r.shape != (m, m):
        raise ValueError(f"r must be {m} x {m}, got {r.shape}")
    if np.abs(r.conj().T @ r - np.eye(m)).max() > UNITARITY_TOL:
        raise ValueError("r is not unitary within tolerance")
    return GaussianModel(
        d=model.d, Omega=model.Omega, kappa=model.kappa, zeta=model.zeta,
        V=r.conj() @ model.V, U=r @ model.U,
    )


class BogoliubovError(ValueError):
    """Matrices (E, F) violate the Bogoliubov constraints by `residuals`."""

    def __init__(self, residuals):
        super().__init__("Bogoliubov constraints violated: residuals "
                         f"{residuals[0]:.3e}, {residuals[1]:.3e}")
        self.residuals = residuals


@dataclass(frozen=True, eq=False)
class BogoliubovPair:
    """Matrices (E, F) of a Bogoliubov transformation.

    Constraints: E†E - F†F = 1 and E^T F - F^T E = 0, which preserve the
    canonical commutation relations of the transformed modes; a residual
    above BOGOLIUBOV_TOL, or one that is not finite, raises BogoliubovError.
    """

    E: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        E = _as_matrix(self.E, "E")
        F = _as_matrix(self.F, "F")
        d = E.shape[0]
        if E.shape != (d, d) or F.shape != (d, d):
            raise ValueError("E and F must be square with equal shape")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "F", F)
        if not all(r <= BOGOLIUBOV_TOL for r in self.residuals):
            raise BogoliubovError(self.residuals)

    @property
    def residuals(self):
        """(max |E†E - F†F - 1|, max |E^T F - F^T E|) of the two constraints."""
        E, F = self.E, self.F
        return (float(np.abs(E.conj().T @ E - F.conj().T @ F - np.eye(self.d)).max()),
                float(np.abs(E.T @ F - F.T @ E).max()))

    @property
    def d(self):
        return self.E.shape[0]

    def mode_matrix(self):
        """The 2d x 2d matrix [[conj(E), F], [conj(F), E]] acting on (a, a†) coefficients."""
        return np.block([
            [self.E.conj(), self.F],
            [self.F.conj(), self.E],
        ])


def bogoliubov_transform(model, pair):
    """Rewrite the model in Bogoliubov-transformed modes.

    The old modes are expressed as a = E^T b + F^T b†, a† = F† b + E† b†
    (dagger rows entrywise conjugated), and all coefficient matrices are
    pushed through.  The Kossakowski matrix transforms by the congruence
    T K T† with T = pair.mode_matrix(), so strict positivity is preserved
    in both directions; the additive scalar produced by reordering the
    Hamiltonian is dropped.
    """
    if pair.d != model.d:
        raise ValueError(f"pair is for d={pair.d}, model has d={model.d}")
    E, F = pair.E, pair.F
    Eb, Fb = E.conj(), F.conj()
    Ed = E.conj().T
    Omega, kappa, zeta = model.Omega, model.kappa, model.zeta
    V2 = model.V @ Ed + model.U.conj() @ F.T
    U2 = model.V.conj() @ F.T + model.U @ Ed
    Omega2 = (Eb @ Omega @ E.T + F @ Omega.T @ F.conj().T
              + Eb @ kappa @ F.conj().T + F @ kappa.conj() @ E.T)
    kappa2 = (Eb @ Omega @ F.T + F @ Omega.T @ Ed
              + Eb @ kappa @ Ed + F @ kappa.conj() @ F.T)
    zeta2 = Eb @ zeta + F @ zeta.conj()
    Omega2 = 0.5 * (Omega2 + Omega2.conj().T)
    kappa2 = 0.5 * (kappa2 + kappa2.T)
    return GaussianModel(
        d=model.d, Omega=Omega2, kappa=kappa2, zeta=zeta2, V=V2, U=U2,
    )


def generate_bogoliubov(d, seed, squeeze=0.5):
    """Seeded Bogoliubov pair from the exponential of a quadratic-Hamiltonian generator.

    A random Hermitian `rot` and symmetric `sq` (scaled by `squeeze`) are
    drawn and the mode transformation is
    exp(i [[-rot, -sq], [conj(sq), rot^T]]), taken by the package's one
    exponential kernel, `evolution.propagators`; squeeze=0 yields F = 0.
    A squeeze whose exponential needs more than `evolution.MAX_PRODUCTS`
    products raises IntegrationError.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rot = 0.5 * (A + A.conj().T)
    B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sq = squeeze * 0.5 * (B + B.T)
    gen = np.block([
        [-rot, -sq],
        [sq.conj(), rot.T],
    ])
    M = evolution.propagators(1j * gen, [1.0])[0]
    E = M[:d, :d].T.copy()
    F = M[:d, d:].T.copy()
    return BogoliubovPair(E=E, F=F)


def _descending_eigh(g):
    w, vecs = np.linalg.eigh(g)
    order = np.argsort(w)[::-1]
    return w[order], vecs[:, order]


def two_boson_model(gamma_minus, gamma_plus, Omega):
    """Gaussian model for two modes coupled to a common bath.

    gamma_minus, gamma_plus (the damping and pumping matrices) and the
    Hamiltonian Omega must be 2 x 2 and Hermitian, the gammas also PSD.
    The dissipator has two annihilation Kraus rows from the spectral
    decomposition of gamma_minus and two creation rows from gamma_plus
    (zero eigenvalues still emit a zero row, so m = 4 and the Kossakowski
    matrix is exactly blockdiag(gamma_minus, gamma_plus)); kappa = 0 and
    zeta = 0.
    """
    d = 2
    gm = _as_matrix(gamma_minus, "gamma_minus")
    gp = _as_matrix(gamma_plus, "gamma_plus")
    Omega = _as_matrix(Omega, "Omega")
    for name, g in (("gamma_minus", gm), ("gamma_plus", gp), ("Omega", Omega)):
        if g.shape != (2, 2):
            raise ValueError(f"{name} must be 2 x 2")
        if np.abs(g - g.conj().T).max() > HERMITICITY_TOL:
            raise ValueError(f"{name} must be Hermitian")
    for name, g in (("gamma_minus", gm), ("gamma_plus", gp)):
        if np.linalg.eigvalsh(g).min() < -POSITIVITY_TOL:
            raise ValueError(f"{name} must be positive semidefinite")
    wm, vm = _descending_eigh(gm)
    wp, vp = _descending_eigh(gp)
    wm = np.clip(wm, 0.0, None)
    wp = np.clip(wp, 0.0, None)
    V = np.zeros((4, d), dtype=complex)
    U = np.zeros((4, d), dtype=complex)
    for i in range(2):
        V[i] = np.sqrt(wm[i]) * vm[:, i]
        U[2 + i] = np.sqrt(wp[i]) * vp[:, i].conj()
    return GaussianModel(
        d=d, Omega=Omega, kappa=np.zeros((d, d)), zeta=np.zeros(d),
        V=V, U=U,
    )


def model_from_jsonable(d, V, U, omega=None, kappa=None, zeta=None):
    """Decode the fields of the JSON gaussian model; omega/kappa/zeta default to zero."""
    d = int(d)
    zeros = np.zeros((d, d))
    Omega = zeros if omega is None else serialize.pairs_to_matrix(omega)
    kappa = zeros if kappa is None else serialize.pairs_to_matrix(kappa)
    zeta = np.zeros(d) if zeta is None else serialize.pairs_to_vector(zeta)
    V = serialize.pairs_to_matrix(V)
    U = serialize.pairs_to_matrix(U)
    return GaussianModel(d=d, Omega=Omega, kappa=kappa, zeta=zeta, V=V, U=U)


def two_boson_from_jsonable(gamma_minus, gamma_plus, omega=None):
    """Decode the fields of the JSON two_boson model; omega defaults to zero."""
    return two_boson_model(
        serialize.pairs_to_matrix(gamma_minus), serialize.pairs_to_matrix(gamma_plus),
        np.zeros((2, 2)) if omega is None else serialize.pairs_to_matrix(omega))
