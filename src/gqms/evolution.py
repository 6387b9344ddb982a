"""Time evolution of density matrices and of the vector semigroup e^{tG}.

The one integrator applies the exponential to the state by `_expm_action`,
the truncated-Taylor method of Al-Mohy & Higham (SIAM J. Sci. Comput. 33,
2011, Alg. 3.2), by products with the generator itself: the sparse G for
a vector, and for a density matrix its Superoperator's `matvec`, the
folded dissipator plus the drift's product with the state, on the
state's D(D+1)/2 stored entries.  The shift mu = tr(A)/n and the exact 1-norm of
A - mu I are computed once per generator, without forming the shifted
matrix (a Superoperator's in closed form, its cached `shift_and_norm`);
an evolution then takes one step count and Taylor degree from the theta
table for its whole horizon, and reads every output time inside a step
from that step's series (ibid., Sec. 5).  The first product, A v0, is
taken once before the first step and serves as its first term; a start it
leaves exactly zero is stationary and costs that one product.  The same
kernel gives the dense propagators e^{tA} of a small dense A
(`propagators`) by evolving the identity: the theta table bounds the
backward error of the approximant itself, so it serves a matrix as well
as a vector.  The package takes no other exponential.  Trace is never
renormalized: trace drift is recorded per output time, and the smallest
eigenvalue taken per output time when read, as truncation/integration
diagnostics.
"""

from __future__ import annotations

import bisect
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

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
# D x D complex arrays an evolve_density holds while a product is taken,
# beside the D x D states it has kept and the sums of the output times
# inside the step, a state's stored entries counting as half of one: the
# stored entries of the initial state, the step's Taylor sum, the term the
# product reads and mu times it, and in `Superoperator.matvec` the unfolded
# input, the product of the stored rows and the drift's product
DENSITY_COPIES = 4.5
# An evolve_density whose folded dissipator stores at least this many entries
# opens one worker thread, passes it to every `Superoperator.matvec`, which
# takes the dissipator's part there while the caller takes the drift's, and
# joins it on exit.  A handoff costs a thread wake-up and GIL hand-backs per
# product, so on 2 vCPUs, evolving the vacuum with the worker forced, D = 105
# (66,911 entries) slowed by 5 to 13 % and D = 120 at d = 2 (88,970) by 2 to
# 4 %, while 116,085 entries (D = 136) gained 6 %, 128,184 (D = 120, d = 3)
# 7 to 17 %, 260,928 (D = 165) 17 to 21 % and 492,480 (D = 220) 20 %; 2^17
# keeps the D = 105 closures and the shipped scenarios on one thread.
TWO_CORE_ENTRIES = 2 ** 17
# An interior eigenvalue counts towards the support rank above RANK_RTOL times the largest.
RANK_RTOL = 1e-8


class IntegrationError(RuntimeError):
    """Evolution aborted: instability detected or size guard tripped."""


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Output times, states (D x D density arrays or vectors) and, for a density evolution,
    its trace error per output time; a state's rank and smallest eigenvalue are solved when read."""

    times: np.ndarray
    states: list
    trace_err: np.ndarray | None = None
    # (t, interior_dim) -> `support_rank_at`, (t, None) -> `min_eig_at`
    ranks: dict = field(default_factory=dict, init=False)

    def _row(self, t):
        """The index of output time t; a t that is not one raises ValueError."""
        i = int(np.searchsorted(self.times, t))
        if i == self.times.size or self.times[i] != t:
            raise ValueError(f"t = {t} is not an output time of this evolution")
        return i

    def support_rank_at(self, t, interior_dim):
        """`support_rank` of the state at output time t, solved on the first read.

        At t = 0 the state is the rank-one |psi0><psi0|, whose interior block
        |phi><phi| has the eigenvalues ||phi||^2 (its trace) and zeros: the
        rank is 1 when that trace is positive and 0 otherwise, and the
        minimum 0.0, or the trace when interior_dim is 1; no eigensolve is
        made.
        """
        i, key = self._row(t), (float(t), interior_dim)
        if key not in self.ranks:
            self.ranks[key] = (_initial_rank(self.states[0], interior_dim) if i == 0
                               else support_rank(self.states[i], interior_dim))
        return self.ranks[key]

    def min_eig_at(self, t):
        """Smallest eigenvalue of the density state at output time t, solved on the
        first read: 0.0 at t = 0, that of the rank-one initial state, else one eigvalsh."""
        i, key = self._row(t), (float(t), None)
        if key not in self.ranks:
            self.ranks[key] = 0.0 if i == 0 else float(np.linalg.eigvalsh(self.states[i]).min())
        return self.ranks[key]


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
    """mu = tr(A)/n and the exact 1-norm of A - mu I for a square CSR or dense A.

    The column sums of |A| are corrected by |a_cc - mu| - |a_cc|, so the
    shifted matrix is never formed.
    """
    n = A.shape[0]
    diag = A.diagonal()
    mu = diag.sum() / n
    if isinstance(A, np.ndarray):
        sums = np.abs(A).sum(axis=0)
    else:
        sums = np.bincount(A.indices, np.abs(A.data), minlength=n)
    return mu, float((sums + (np.abs(diag - mu) - np.abs(diag))).max())


def _taylor_plan(dt, norm):
    """Degree m and step count s (a float) minimising m s, s = ceil(dt norm / theta_m),
    or 1 where dt norm / theta_m rounds to 0 (a subnormal dt norm)."""
    if dt * norm == 0:
        return 0, 1.0
    return min(((deg, float(np.ceil(dt * norm / theta)) or 1.0)
                for deg, theta in TAYLOR_THETA.items()),
               key=lambda pair: pair[0] * pair[1])


def _expm_action(matvec, F, T, mu, m, s, taus, first):
    """One step of the `_taylor_plan(T, norm)` (m, s), given matvec(v) = A v
    and mu = tr(A)/n: F becomes e^{(T/s) A} F in place, and e^{tau A} F for
    each offset tau in taus, all in (0, T/s), is returned as a new array.

    The step sums the degree-m Taylor polynomial of e^{(T/s)(A - mu I)} and
    scales it by e^{T mu/s}; the state at offset tau weights term j by
    (tau s/T)^j and is scaled by e^{tau mu}.  Terms stop once the infinity
    norms of the last two are at most TAYLOR_TOL times that of the step's
    sum.  Each term is made in the buffer its product returns; F is read by
    the first product and written after it.  When the list `first` holds
    A F, taken already, it gives that up as the first term's buffer, so
    no product is made for the term and the list no longer keeps it.
    """
    outs = [F.copy() for _ in taus]
    ratios = [tau * s / T for tau in taus]
    shifted = np.empty_like(F)
    v = F
    c1 = np.abs(v).max()
    for j in range(m):
        term = first.pop() if first else matvec(v)
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
    returns the output times inside the step; each is yielded and dropped
    in turn, so only the caller keeps it.  F becomes the state at T; it is
    copied only at an output time on an earlier step end.  An
    evolution that plans more than MAX_PRODUCTS products (m s), or NaN
    products (from a NaN norm), is refused before the first one.  The
    first product A v0 is taken before the first step, which reuses it as
    its first term; when it is exactly zero, v0 is stationary, e^{tA} v0 =
    v0, and each later output time is a copy of v0 with no further product.
    """
    times = times.tolist()  # Python floats: a huge T overflows to inf silently
    T = times[-1]
    mu, norm = shift_and_norm
    m, s = _taylor_plan(T, norm)
    if not m * s <= MAX_PRODUCTS:
        raise IntegrationError(
            f"evolution plans {m * s:.3g} matrix products (limit {MAX_PRODUCTS})")
    yield v0
    if T == 0:  # times is [0]: no step to take
        return
    first = [matvec(v0)] if m else []
    if first and not first[0].any():
        for _ in times[1:]:
            yield v0.copy()
        return
    h, i, F = T / s, 1, v0.copy()
    for k in range(1, int(s) + 1):
        start, end = (k - 1) * h, T if k == s else k * h
        j = bisect.bisect_left(times, end, i)
        outs = _expm_action(matvec, F, T, mu, m, s, [t - start for t in times[i:j]], first)
        while outs:
            yield outs.pop(0)
        if times[j] == end:
            yield F if k == s else F.copy()
            j += 1
        i = j


def propagators(A, times):
    """e^{tA} of a dense square matrix A for each t of `times` (finite and
    non-negative, in any order), as dense complex arrays.

    One `_propagate` evolves the identity over the sorted distinct times
    with 0, so a single Taylor plan serves them all; a repeated time
    shares its array.  A plan over MAX_PRODUCTS products raises
    IntegrationError.
    """
    A = np.asarray(A, dtype=complex)
    grid = _check_times(sorted({0.0, *map(float, times)}))
    identity = np.eye(A.shape[0], dtype=complex)
    states = dict(zip(grid.tolist(), _propagate(A.__matmul__, _shift_and_norm(A), identity, grid)))
    return [states[float(t)] for t in times]


def density_bytes(D, nnz, states):
    """Peak bytes of an `evolve_density` that keeps `states` states on a
    folded CSR of nnz entries: the CSR (20 B per entry, 4 B per row
    pointer), the fold (two int64 vec indices per stored row) and
    states - 1 + DENSITY_COPIES D x D complex arrays, the count while a
    product is taken.  At the end of a step that holds every output time
    it is only states + 1.5, since each output's stored entries are let go
    once it is unfolded: the states, the initial state's stored entries,
    and the last state's stored entries and their conjugate while it is
    unfolded."""
    n = D * (D + 1) // 2
    return 20 * nnz + 4 * (n + 1) + 16 * n + int(16 * D * D * (states - 1 + DENSITY_COPIES))


def evolve_density(superop, psi0, times):
    """Integrate rho' = L*(rho) from |psi0><psi0|, psi0 a unit vector (within 1e-10) of D entries.

    The Taylor sums carry the state's stored entries (`Superoperator.fold`),
    each product is `Superoperator.matvec`, and each output state is
    unfolded once into an exactly Hermitian D x D array.  When the folded
    dissipator stores at least TWO_CORE_ENTRIES entries, this function
    opens one worker thread and passes it to every product as `matvec`'s
    `worker`, which takes the dissipator's part there while this thread
    takes the drift's, with the same bits and the same arrays alive at
    once; the worker is joined before the call returns or raises.  Aborts
    with IntegrationError when the trace drifts by more than 1e-4.  The
    result holds trace_err per output time; its `min_eig_at` solves a time's
    smallest eigenvalue when first read, so a time nobody reads costs no
    eigensolve.
    """
    times = _check_times(times)
    D = superop.dim
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (D,) or not abs(np.linalg.norm(psi0) - 1.0) <= 1e-10:
        raise ValueError(f"psi0 must be a unit vector of {D} entries")
    rows, mirrors = superop.fold
    u0 = np.outer(psi0, psi0.conj()).reshape(-1, order="F")[rows]
    u0.imag[rows == mirrors] = 0.0  # |psi_k|^2, whatever a fused multiply-add left
    states, trace_err = [], np.zeros(times.size)
    two_core = superop.matrix.nnz >= TWO_CORE_ENTRIES
    with ThreadPoolExecutor(max_workers=1) if two_core else nullcontext() as worker:
        matvec = partial(superop.matvec, worker=worker)
        evolved = _propagate(matvec, superop.shift_and_norm, u0, times)
        for i, rho in enumerate(map(superop.unfold, evolved)):
            trace_err[i] = abs(np.trace(rho) - 1.0)
            if trace_err[i] > TRACE_ABORT:
                raise IntegrationError(
                    f"trace error {trace_err[i]:.3e} at t={times[i]:g} exceeds "
                    f"{TRACE_ABORT:g}; integration unstable"
                )
            states.append(rho)
    return EvolutionResult(times, states, trace_err)


def evolve_vector(ops, psi0, times):
    """Apply the contraction semigroup e^{tG} to a unit vector (no trace_err)."""
    times = _check_times(times)
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-10:
        raise ValueError("psi0 must be a unit vector")
    G = ops.G.tocsr()
    states = list(_propagate(G.__matmul__, _shift_and_norm(G), psi0, times))
    return EvolutionResult(times, states)


def _initial_rank(rho, interior_dim):
    """`support_rank` of a rank-one rho, read from its interior trace."""
    weight = float(np.trace(rho[:interior_dim, :interior_dim]).real)
    return int(weight > 0), weight if interior_dim == 1 else 0.0


def support_rank(rho, interior_dim):
    """Eigen-rank (at RANK_RTOL) and smallest eigenvalue of the interior block
    of an exactly Hermitian rho (an `evolve_density` state)."""
    w = np.linalg.eigvalsh(np.asarray(rho)[:interior_dim, :interior_dim])
    top = w.max()
    rank = int(np.sum(w > RANK_RTOL * top)) if top > 0 else 0
    return rank, float(w.min())
