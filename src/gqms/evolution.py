"""Time evolution of density matrices and of the vector semigroup e^{tG}.

The default integrator (`method="auto"`) applies the exponential to the
state once per output interval by `_expm_action`, the truncated-Taylor
method of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011, Alg. 3.2)
on the sparse matrix itself.  The shift mu = tr(A)/n and the exact
1-norm of A - mu I are computed once per evolution, without forming the
shifted matrix (the shift enters each product as A v - mu v); each
interval then takes its step count and Taylor degree from the theta
table.  Dense `expm` and fixed-step RK4 remain as explicit cross-checks.
Trace is never renormalized by default: trace drift, loss of Hermiticity
and negative eigenvalues are recorded per output time as
truncation/integration diagnostics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

EXPM_MAX_BYTES = 2 ** 30  # dense complex input of method="expm"
# theta_m: the largest dt ||A||_1 at which m Taylor terms of e^{dt A} meet
# the backward error TAYLOR_TOL (Al-Mohy & Higham 2011, Table 3.1; the
# entries m <= 30 are Higham, Functions of Matrices, Table A.3)
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
TAYLOR_TOL = 2.0 ** -53
TRACE_ABORT = 1e-4
CONTRACTION_SLACK = 1e-8


class IntegrationError(RuntimeError):
    """Evolution aborted: instability detected or size guard tripped."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A truncated state rho at time t (dimensionless generator units)."""

    rho: np.ndarray
    t: float

    def validate(self, herm_tol=1e-10, trace_tol=1e-8, eig_tol=1e-8):
        rho = self.rho
        if np.abs(rho - rho.conj().T).max() > herm_tol:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(rho) - 1.0) > trace_tol:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -eig_tol:
            raise ValueError("density matrix has a negative eigenvalue")
        return self

    @classmethod
    def pure(cls, psi, t=0.0):
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        psi = psi / np.linalg.norm(psi)
        return cls(rho=np.outer(psi, psi.conj()), t=t)


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Output times, states (DensityMatrix or vectors) and per-step diagnostics."""

    times: np.ndarray
    states: list
    stats: dict


def _check_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def _rk4_segment(matvec, v, dt, h):
    steps = max(1, int(np.ceil(dt / h)))
    sub = dt / steps
    for _ in range(steps):
        k1 = matvec(v)
        k2 = matvec(v + 0.5 * sub * k1)
        k3 = matvec(v + 0.5 * sub * k2)
        k4 = matvec(v + sub * k3)
        v = v + (sub / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def _shift_and_norm(A):
    """mu = tr(A)/n and the exact 1-norm of A - mu I for a CSR matrix A.

    The column sums of |A| are |A|^T times ones, with |A|^T the CSR's own
    arrays read as CSC (no index array is copied or widened), corrected on
    the diagonal by |a_jj - mu| - |a_jj|, so the shifted matrix is never
    formed.
    """
    diag = A.diagonal()
    mu = diag.sum() / A.shape[0]
    abs_t = sp.csc_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape[::-1])
    colsums = abs_t @ np.ones(A.shape[0])
    colsums += np.abs(diag - mu) - np.abs(diag)
    return mu, float(colsums.max())


def _expm_action(A, v, dt, mu, norm):
    """e^{dt A} v, given mu = tr(A)/n and norm = ||A - mu I||_1.

    s steps of the degree-m Taylor polynomial of e^{(dt/s)(A - mu I)},
    each scaled by e^{dt mu/s}; (m, s) minimises m s with
    s = ceil(dt norm / theta_m).  A step stops adding terms once the
    infinity norms of the last two are at most TAYLOR_TOL times that of
    the partial sum.
    """
    if dt * norm == 0:
        m, s = 0, 1
    else:
        m, s = min(((deg, int(np.ceil(dt * norm / theta)))
                    for deg, theta in TAYLOR_THETA.items()),
                   key=lambda pair: pair[0] * pair[1])
    eta = np.exp(dt * mu / s)
    F = v
    for _ in range(s):
        c1 = np.abs(v).max()
        for j in range(m):
            v = (dt / (s * (j + 1))) * (A @ v - mu * v)
            c2 = np.abs(v).max()
            F = F + v
            if c1 + c2 <= TAYLOR_TOL * np.abs(F).max():
                break
            c1 = c2
        F = eta * F
        v = F
    return F


def _propagate(matrix, v0, times, method, h):
    """Yield the state vector at each output time under dv/dt = matrix v."""
    if method not in ("auto", "expm", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        matrix = matrix.tocsr()
        mu, norm = _shift_and_norm(matrix)
    elif method == "expm":
        nbytes = 16 * matrix.shape[0] ** 2
        if nbytes > EXPM_MAX_BYTES:
            raise IntegrationError(
                f"dense expm needs {nbytes} bytes per copy (limit {EXPM_MAX_BYTES})")
        dense = matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix)
    v = v0
    yield v
    for dt in np.diff(times):
        if method == "auto":
            v = _expm_action(matrix, v, dt, mu, norm)
        elif method == "expm":
            v = scipy.linalg.expm(dense * dt) @ v
        else:
            v = _rk4_segment(matrix.__matmul__, v, dt, h)
        yield v


def evolve_density(superop, rho0, times, method="auto", h=1e-3, renormalize=False):
    """Integrate rho' = L*(rho) from a valid initial state.

    Aborts with IntegrationError when the trace drifts by more than 1e-4.
    Stats arrays: trace_err, herm_err, min_eig per output time.
    """
    if superop.picture != "schrodinger":
        raise ValueError("evolve_density needs a schrodinger-picture superoperator")
    times = _check_times(times)
    D = superop.dim
    if isinstance(rho0, DensityMatrix):
        rho0 = rho0.rho
    rho0 = np.asarray(rho0, dtype=complex).reshape(D, D)
    DensityMatrix(rho=rho0, t=0.0).validate()
    states = []
    trace_err = np.zeros(times.size)
    herm_err = np.zeros(times.size)
    min_eig = np.zeros(times.size)
    v0 = rho0.reshape(D * D, order="F")
    for i, v in enumerate(_propagate(superop.matrix, v0, times, method, h)):
        rho = v.reshape(D, D, order="F")
        tr = np.trace(rho)
        trace_err[i] = abs(tr - 1.0)
        if trace_err[i] > TRACE_ABORT:
            raise IntegrationError(
                f"trace error {trace_err[i]:.3e} at t={times[i]:g} exceeds "
                f"{TRACE_ABORT:g}; integration unstable"
            )
        if renormalize and tr != 0:
            rho = rho / tr
        herm_err[i] = np.abs(rho - rho.conj().T).max()
        min_eig[i] = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
        states.append(DensityMatrix(rho=rho, t=float(times[i])))
    return EvolutionResult(
        times=times, states=states,
        stats={"trace_err": trace_err, "herm_err": herm_err, "min_eig": min_eig},
    )


def evolve_vector(ops, psi0, times, method="auto", h=1e-3):
    """Apply the contraction semigroup e^{tG} to a unit vector.

    Norms are recorded per time; `contraction_ok` is true when they are
    non-increasing within a 1e-8 slack.
    """
    times = _check_times(times)
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("psi0 must be a unit vector")
    states = list(_propagate(ops.G, psi0, times, method, h))
    norms = np.array([np.linalg.norm(v) for v in states])
    contraction_ok = bool(np.all(np.diff(norms) <= CONTRACTION_SLACK))
    return EvolutionResult(
        times=times, states=states,
        stats={"norms": norms, "contraction_ok": contraction_ok},
    )


def number_semigroup_limit(space, v, rtol=1e-12):
    """Project v onto its lowest non-vanishing grade.

    This is the limit of e^{n0 t} e^{-tN} v as t grows, computed exactly
    from the graded basis ordering.
    """
    v = np.asarray(v, dtype=complex).reshape(space.D)
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        raise ValueError("v must be non-zero")
    grades = space.grades
    support = grades[mags > rtol * top]
    n0 = int(support.min())
    out = np.where(grades == n0, v, 0.0)
    return out


def support_rank(rho, interior_dim, rtol=1e-8):
    """Eigen-rank and smallest eigenvalue of the interior block of rho."""
    sub = np.asarray(rho)[:interior_dim, :interior_dim]
    w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
    top = w.max()
    rank = int(np.sum(w > rtol * top)) if top > 0 else 0
    return rank, float(w.min())


def export_timeseries_csv(result, path, space=None, observables=None):
    """Write a density-evolution time series as CSV.

    Columns: t, trace_err, min_eig, support_rank, then one diagonal
    expectation column per requested occupation multi-index.
    """
    observables = observables or []
    cols = ["t", "trace_err", "min_eig", "support_rank"]
    obs_idx = []
    for n in observables:
        n = tuple(int(k) for k in n)
        cols.append("p" + "".join(str(k) for k in n))
        obs_idx.append(space.index_of[n])
    interior = space.interior_dim() if space is not None else None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for i, state in enumerate(result.states):
            rho = state.rho
            dim = interior if interior is not None else rho.shape[0]
            rank, _ = support_rank(rho, dim)
            row = [
                f"{result.times[i]:.12g}",
                f"{result.stats['trace_err'][i]:.6e}",
                f"{result.stats['min_eig'][i]:.6e}",
                str(rank),
            ]
            row += [f"{rho[k, k].real:.12g}" for k in obs_idx]
            writer.writerow(row)
