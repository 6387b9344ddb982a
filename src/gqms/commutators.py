"""Closed commutator algebra of linear forms in (1, a_j, a_j†).

For a Gaussian model the drift G is at most quadratic in ladder
operators, so commutation with G maps the (2d+1)-dimensional space of
forms c0 + sum_j alpha_j a_j + sum_j beta_j a_j† into itself.  The action
is represented by an explicit (2d+1) x (2d+1) matrix derived from the
CCR:

    [G, a_m]  = (i/2) zeta_m
              + sum_k (i Omega_mk + (V^T conj(V) + U^T conj(U))_mk / 2) a_k
              + sum_k (i kappa_mk + (V^T U + U^T V)_mk / 2) a_k†
    [G, a_m†] = -(i/2) conj(zeta_m)
              + sum_k (-i conj(kappa)_mk - (V†conj(U) + U†conj(V))_mk / 2) a_k
              + sum_k (-i Omega_km - (V†V + U†U)_mk / 2) a_k†

A form is held as its coefficient vector (c0, alpha_1..alpha_d,
beta_1..beta_d), the Kraus operators as the rows (0, conj(V_l), U_l);
`form_matrix` is the one sparse realisation of a form on a truncated
space.  validate_action_oracle cross-checks the closed form against the
interior block of the matrix commutators, where truncation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import evolution

GS_DROP_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class LinearForm:
    """The form c0 + sum_j alpha_j a_j + sum_j beta_j a_j† by its coefficient
    vector `coeffs` = (c0, alpha_1..alpha_d, beta_1..beta_d)."""

    coeffs: np.ndarray

    def is_zero(self):
        return bool(np.abs(self.coeffs).max() <= 1e-14)


@dataclass(frozen=True, eq=False)
class AdjointActionMatrix:
    """Matrix M of form -> [G, form] on coefficient vectors, and the m x (2d+1)
    coefficient rows `kraus` = (0, conj(V_l), U_l) of the Kraus operators."""

    M: np.ndarray
    kraus: np.ndarray


def form_matrix(coeffs, ladders):
    """Sparse CSR matrix of the form with coefficient vector `coeffs` on a truncated space.

    The entries are those of `ladders.pattern` whose term has a nonzero
    coefficient, each scaled by it: the identity and the 2d ladders have
    disjoint supports, so every stored entry is the one product c v a sum
    of the scaled terms would store, with a -0.0 part made +0.0 as that
    sum makes it, in the same (row, col) order.
    """
    indptr, _, cols, values, terms = ladders.pattern
    D = ladders.space.D
    coeffs = np.asarray(coeffs)
    keep = (coeffs != 0)[terms]
    data = coeffs[terms[keep]] * values[keep]
    data += 0  # -0.0 parts to +0.0
    kept = np.concatenate(([0], np.cumsum(keep, dtype=np.int32)))
    return sp.csr_matrix((data, cols[keep], kept[indptr]), shape=(D, D))


def adjoint_action(model):
    """Closed-form matrix of the map form -> [G, form] for a Gaussian model."""
    d = model.d
    V, U = model.V, model.U
    Omega, kappa, zeta = model.Omega, model.kappa, model.zeta
    A = 1j * Omega + 0.5 * (V.T @ V.conj() + U.T @ U.conj())
    B = 1j * kappa + 0.5 * (V.T @ U + U.T @ V)
    C = -1j * kappa.conj() - 0.5 * (V.conj().T @ U.conj() + U.conj().T @ V.conj())
    Dm = -1j * Omega.T - 0.5 * (V.conj().T @ V + U.conj().T @ U)
    M = np.zeros((2 * d + 1, 2 * d + 1), dtype=complex)
    M[0, 1:1 + d] = 0.5j * zeta
    M[0, 1 + d:] = -0.5j * zeta.conj()
    M[1:1 + d, 1:1 + d] = A.T
    M[1:1 + d, 1 + d:] = C.T
    M[1 + d:, 1:1 + d] = B.T
    M[1 + d:, 1 + d:] = Dm.T
    return AdjointActionMatrix(M=M, kraus=np.hstack([np.zeros((model.m, 1)), V.conj(), U]))


def iterated_commutator(action, ell, order):
    """The order-fold commutator [G, [..., [G, L_ell]]] as a LinearForm.

    order = 0 returns L_ell itself; ell is 0-based.
    """
    if not 0 <= ell < len(action.kraus):
        raise IndexError(f"ell must be in [0, {len(action.kraus)}), got {ell}")
    if order < 0:
        raise ValueError("order must be non-negative")
    vec = action.kraus[ell]
    for _ in range(order):
        vec = action.M @ vec
    return LinearForm(vec)


def validate_action_oracle(ops, action):
    """Max interior-block deviation between the closed form and matrix commutators.

    For each basis form f in (1, a_j, a_j†), compares the matrix of the
    predicted [G, f] against the interior block of G F - F G, with F the
    matrix of f and G the caller's truncated drift `ops.G`.  F is a weighted
    partial permutation, at most one entry F_rc = v per row and per column,
    so (G F)_ic = G_ir v and (F G)_rk = v G_ck: the block gathers and scales
    G's stored entries, each the single product a sparse product would give.
    """
    space = ops.space
    dim = space.interior_dim()
    _, rows, cols, values, terms = ops.ladders.pattern
    inside = (rows < dim) & (cols < dim)
    G = ops.G.tocoo()
    worst = 0.0
    for t, predicted in enumerate(action.M.T):  # [G, f] for f = e_t
        own = terms == t
        r, c, v = rows[own], cols[own], values[own]
        block = np.zeros((dim, dim), dtype=complex)
        # G F: G's entry (i, r) goes to column c
        target, scale = np.full(space.D, -1), np.zeros(space.D, dtype=complex)
        target[r], scale[r] = np.where(c < dim, c, -1), v
        hit = (G.row < dim) & (target[G.col] >= 0)
        block[G.row[hit], target[G.col[hit]]] = G.data[hit] * scale[G.col[hit]]
        # F G: G's entry (c, k) goes to row r
        target[:], scale[:] = -1, 0
        target[c], scale[c] = np.where(r < dim, r, -1), v
        hit = (G.col < dim) & (target[G.row] >= 0)
        block[target[G.row[hit]], G.col[hit]] -= scale[G.row[hit]] * G.data[hit]
        block[rows[inside], cols[inside]] -= predicted[terms[inside]] * values[inside]
        worst = max(worst, float(np.abs(block).max()))
    return worst


def krylov_closure(maps, seeds, max_rounds):
    """Orthonormal basis of the smallest subspace holding the seeds and closed under maps.

    `seeds` is an n x k array of column vectors.  The span is grown
    breadth-first: each round applies every map to every vector the
    previous round added (vector-major order), and the closure stops after
    `max_rounds` rounds or after a round that adds nothing.  Each candidate
    is projected out of the basis twice with matrix products (classical
    Gram-Schmidt with reorthogonalisation) and kept when its residual norm
    exceeds GS_DROP_RTOL times the largest candidate norm seen so far.
    A full basis (rank n) can keep no candidate, so the keep that fills it
    ends its round, and a later round (within `max_rounds`) is recorded as
    adding nothing without applying any map.
    Returns the n x rank basis and the census: the number of vectors each
    round added.
    """
    seeds = np.asarray(seeds, dtype=complex)
    n = seeds.shape[0]
    rows = np.empty((n, n), dtype=complex)  # basis vectors stored as rows
    rank = 0
    max_norm = 0.0

    def extend(candidates):
        nonlocal rank, max_norm
        start = rank
        for w in candidates:
            max_norm = max(max_norm, np.linalg.norm(w))
            Q = rows[:rank]
            for _ in range(2):
                w = w - (Q @ w.conj()).conj() @ Q
            rn = np.linalg.norm(w)
            if rn > GS_DROP_RTOL * max(1e-300, max_norm):
                rows[rank] = w / rn
                rank += 1
                if rank == n:
                    break
        return rows[start:rank]

    frontier = extend(seeds.T)
    census = []
    while len(frontier) and len(census) < max_rounds:
        if rank == n:
            census.append(0)
            break
        frontier = extend(M @ q for q in frontier for M in maps)
        census.append(len(frontier))
    return rows[:rank].T.copy(), census


@dataclass(frozen=True, eq=False)
class SupportSpan:
    """Interior rank of the span of commutator words applied to P_t psi."""

    rank: int
    word_census: list


def support_span(ops, action, psi, t):
    """Span of {P_t psi} and commutator words applied to it, restricted to the interior.

    Words are products of an orthonormal basis of the span of the iterates
    ad_G^k L_l, k <= 2d, which holds every order by Cayley-Hamilton on M; an
    iterate within GS_DROP_RTOL ||M||_F of its predecessor's norm is rounding
    and ends its chain.  `krylov_closure` closes P_t psi under the basis in
    at most 2 (N_max - interior_margin + 1) rounds (`word_census`: new vectors per round).
    The rank is that of the closure's interior rows: the interior dimension
    when the closure spans C^D, else the rank of a second closure of them.
    """
    space = ops.space
    if t <= 0:
        raise ValueError("t must be positive")
    psi = np.asarray(psi, dtype=complex).reshape(space.D)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("psi must be a unit vector")
    words = np.array([[iterated_commutator(action, ell, order).coeffs
                       for order in range(len(action.M))] for ell in range(len(action.kraus))])
    norms = np.linalg.norm(words, axis=2)
    floor = np.pad(GS_DROP_RTOL * np.linalg.norm(action.M) * norms[:, :-1], ((0, 0), (1, 0)))
    kept = np.logical_and.accumulate(norms > floor, axis=1)
    basis, _ = krylov_closure([], (words[kept] / norms[kept, None]).T, 0)
    forms = [form_matrix(f, ops.ladders) for f in basis.T]

    phi = evolution.evolve_vector(ops, psi, [0.0, t]).states[-1]
    closure, census = krylov_closure(
        forms, phi[:, None], 2 * (space.N_max - space.interior_margin + 1))
    rank = space.interior_dim()  # the interior rows of a basis of C^D span the interior
    if closure.shape[1] < space.D:
        rank = krylov_closure([], closure[:rank], 0)[0].shape[1]
    return SupportSpan(rank=rank, word_census=census)


def inversion_condition_number(model):
    """Condition number of the m x 2d Kraus coefficient matrix B† (inf when singular).

    B = `model.kossakowski_factor(V, U)`: the rows of B† are the Kraus
    coefficients `adjoint_action.kraus` without the constant, and its Gram
    matrix is the Kossakowski matrix B B†, so for a strictly positive one
    with m = 2d it is invertible and the ladder operators can be recovered
    as combinations of the L_l.
    """
    s = np.linalg.svd(model.adjoint_action.kraus[:, 1:], compute_uv=False)
    if s.min() == 0.0:
        return float("inf")
    return float(s.max() / s.min())
