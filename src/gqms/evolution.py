"""Time evolution of density matrices and of the vector semigroup e^{tG}.

The one integrator applies the exponential to the state by `_expm_action`,
the truncated-Taylor method of Al-Mohy & Higham (SIAM J. Sci. Comput. 33,
2011, Alg. 3.2), by products with the generator itself: the sparse G for
a vector, and for a density matrix its Superoperator's `matvec`, the
folded dissipator plus the drift's product with the state, mirrored into
the lower triangle.  The shift mu = tr(A)/n and the exact 1-norm of
A - mu I are computed once per generator, without forming the shifted
matrix (a Superoperator's in closed form, its cached `shift_and_norm`);
an evolution then takes one step count and Taylor degree from the theta
table for its whole horizon, and reads every output time inside a step
from that step's series (ibid., Sec. 5).  No dense exponential is formed.
Trace is never renormalized: trace drift is recorded per output time, and
the smallest eigenvalue taken per output time when read, as
truncation/integration diagnostics.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
MAX_PRODUCTS = 10 ** 5  # matrix products one evolution may plan
# D x D complex arrays an evolve_density holds beside its kept states (the
# last of them the step's Taylor sum, the others at output times inside the
# step the sums weighted by their offsets) while a product is taken: the
# term it reads, mu times that term (then the weighted term), and two in
# `Superoperator.matvec` (the drift's product and the folded rows, then the
# output and the folded rows with their conjugates)
DENSITY_COPIES = 4
# An interior eigenvalue counts towards the support rank above RANK_RTOL times the largest.
RANK_RTOL = 1e-8


class IntegrationError(RuntimeError):
    """Evolution aborted: instability detected or size guard tripped."""


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Output times, states (D x D density arrays or vectors) and, for a
    density evolution, its trace error per output time and the smallest
    eigenvalue of its initial state."""

    times: np.ndarray
    states: list
    trace_err: np.ndarray | None = None
    min_eig0: float | None = None

    @cached_property
    def stats(self):
        """A density evolution's trace_err and min_eig per output time ({} for
        a vector one); min_eig at t = 0 is min_eig0, the others take one
        eigvalsh each, on the first read."""
        if self.trace_err is None:
            return {}
        min_eig = [self.min_eig0] + [np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
                                     for rho in self.states[1:]]
        return {"trace_err": self.trace_err, "min_eig": np.array(min_eig)}


def _check_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def _shift_and_norm(A):
    """mu = tr(A)/n and the exact 1-norm of A - mu I for a square CSR A.

    The column sums of |A| are corrected by |a_cc - mu| - |a_cc|, so the
    shifted matrix is never formed.
    """
    n = A.shape[0]
    diag = A.diagonal()
    mu = diag.sum() / n
    sums = np.bincount(A.indices, np.abs(A.data), minlength=n)
    return mu, float((sums + (np.abs(diag - mu) - np.abs(diag))).max())


def _taylor_plan(dt, norm):
    """Degree m and step count s (a float) minimising m s, s = ceil(dt norm / theta_m)."""
    if dt * norm == 0:
        return 0, 1.0
    return min(((deg, float(np.ceil(dt * norm / theta))) for deg, theta in TAYLOR_THETA.items()),
               key=lambda pair: pair[0] * pair[1])


def _expm_action(matvec, F, T, mu, m, s, taus):
    """One step of the `_taylor_plan(T, norm)` (m, s), given matvec(v) = A v
    and mu = tr(A)/n: F becomes e^{(T/s) A} F in place, and e^{tau A} F for
    each offset tau in taus, all in (0, T/s), is returned as a new array.

    The step sums the degree-m Taylor polynomial of e^{(T/s)(A - mu I)} and
    scales it by e^{T mu/s}; the state at offset tau weights term j by
    (tau s/T)^j and is scaled by e^{tau mu}.  Terms stop once the infinity
    norms of the last two are at most TAYLOR_TOL times that of the step's
    sum.  Each term is made in the buffer its product returns; F is read by
    the first product and written after it.
    """
    outs = [F.copy() for _ in taus]
    ratios = [tau * s / T for tau in taus]
    shifted = np.empty_like(F)
    v = F
    c1 = np.abs(v).max()
    for j in range(m):
        term = matvec(v)
        term -= np.multiply(mu, v, out=shifted)
        term *= T / (s * (j + 1))
        v = term
        c2 = np.abs(v).max()
        F += v
        for out, ratio in zip(outs, ratios):
            out += np.multiply(v, ratio ** (j + 1), out=shifted)
        if c1 + c2 <= TAYLOR_TOL * np.abs(F).max():
            break
        c1 = c2
    F *= np.exp(T * mu / s)
    for out, tau in zip(outs, taus):
        out *= np.exp(tau * mu)
    return outs


def _propagate(matvec, shift_and_norm, v0, times):
    """Yield the state vector at each output time under dv/dt = A v, given
    matvec(v) = A v and (mu, ||A - mu I||_1).

    One `_taylor_plan` covers the horizon T = times[-1]: s steps of length
    h = T/s, each an `_expm_action` that advances the running sum F and
    returns the output times inside the step.  F becomes the state at T;
    it is copied only at an output time on an earlier step end.  An
    evolution that plans more than MAX_PRODUCTS products (m s) is refused
    before the first one.
    """
    times = times.tolist()  # Python floats: a huge T overflows to inf silently
    T = times[-1]
    mu, norm = shift_and_norm
    m, s = _taylor_plan(T, norm)
    if m * s > MAX_PRODUCTS:
        raise IntegrationError(
            f"evolution plans {m * s:.3g} matrix products (limit {MAX_PRODUCTS})")
    yield v0
    if T == 0:  # times is [0]: no step to take
        return
    h, i, F = T / s, 1, v0.copy()
    for k in range(1, int(s) + 1):
        start, end = (k - 1) * h, T if k == s else k * h
        j = bisect.bisect_left(times, end, i)
        yield from _expm_action(matvec, F, T, mu, m, s, [t - start for t in times[i:j]])
        if times[j] == end:
            yield F if k == s else F.copy()
            j += 1
        i = j


def density_bytes(D, nnz, states):
    """Peak bytes of an `evolve_density` that keeps `states` states on a
    folded CSR of nnz entries: the CSR (20 B per entry, 4 B per row
    pointer), the fold (two int64 vec indices per stored row) and
    `states` + DENSITY_COPIES D x D complex arrays."""
    n = D * (D + 1) // 2
    return 20 * nnz + 4 * (n + 1) + 16 * n + 16 * D * D * (states + DENSITY_COPIES)


def evolve_density(superop, rho0, times):
    """Integrate rho' = L*(rho) from a D x D density array rho0.

    rho0 must be Hermitian within 1e-10, of trace 1 and PSD within 1e-8;
    it is Hermitized once, and each product is `Superoperator.matvec`.
    Aborts with IntegrationError when the trace drifts by more than 1e-4.
    The result holds trace_err per output time and min_eig0, the smallest
    eigenvalue of the PSD check; its `stats` add min_eig per output time
    when first read, so an evolution whose stats nobody reads makes no
    eigensolve after the check.
    """
    times = _check_times(times)
    D = superop.dim
    rho0 = np.asarray(rho0, dtype=complex).reshape(D, D)
    if np.abs(rho0 - rho0.conj().T).max() > 1e-10:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho0) - 1.0) > 1e-8:
        raise ValueError("density matrix trace differs from 1")
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    min_eig0 = np.linalg.eigvalsh(rho0).min()
    if min_eig0 < -1e-8:
        raise ValueError("density matrix has a negative eigenvalue")
    states = []
    trace_err = np.zeros(times.size)
    v0 = rho0.reshape(D * D, order="F")
    del rho0  # v0 is its copy
    for i, v in enumerate(_propagate(superop.matvec, superop.shift_and_norm, v0, times)):
        rho = v.reshape(D, D, order="F")
        trace_err[i] = abs(np.trace(rho) - 1.0)
        if trace_err[i] > TRACE_ABORT:
            raise IntegrationError(
                f"trace error {trace_err[i]:.3e} at t={times[i]:g} exceeds "
                f"{TRACE_ABORT:g}; integration unstable"
            )
        states.append(rho)
    return EvolutionResult(times, states, trace_err, min_eig0)


def evolve_vector(ops, psi0, times):
    """Apply the contraction semigroup e^{tG} to a unit vector (no stats)."""
    times = _check_times(times)
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("psi0 must be a unit vector")
    G = ops.G.tocsr()
    states = list(_propagate(G.__matmul__, _shift_and_norm(G), psi0, times))
    return EvolutionResult(times, states)


def support_rank(rho, interior_dim):
    """Eigen-rank (at RANK_RTOL) and smallest eigenvalue of the interior block of rho."""
    sub = np.asarray(rho)[:interior_dim, :interior_dim]
    w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
    top = w.max()
    rank = int(np.sum(w > RANK_RTOL * top)) if top > 0 else 0
    return rank, float(w.min())
