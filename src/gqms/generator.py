"""Truncated operators and Lindblad superoperators of a Gaussian model.

Assembles sparse matrices for the Kraus operators L_l, the drift
G = -iH - (1/2) sum_l L_l† L_l and its dissipative part G0 on a truncated
Fock space (G0 and H from their coefficient matrices over the ladders'
table of products, each operator one CSR construction), together with
the vectorized generator of states (the Schrodinger picture)

    rho -> G rho + rho G† + sum_l L_l rho L_l†;

the Heisenberg generator x -> G† x + x G + sum_l L_l† x L_l is its
Hilbert-Schmidt adjoint and is not built.
Only the dissipator is assembled, in its Kossakowski (GKS) form
sum_pq K_qp s_p rho s_q† over the ladder operators
s = (a_1..a_d, a_1†..a_d†), by `gkls_superoperator`, the one GKLS
assembly of the package (finite_dim passes its Kossakowski pairs to it).
The drift G stays a D x D CSR and acts on the state as G H + (G H)†
for Hermitian H.
Vectorization is by column stacking, vec(A X B) = (B^T kron A) vec(X).
The generator is a *-map, L(X†) = L(X)†, so only the D(D+1)/2 rows
of the upper-triangle entries of the dissipator are assembled and
stored, and a Hermitian state is carried by its D(D+1)/2 upper-triangle
entries; `Superoperator` unfolds the rest.  The stored rows are assembled
in blocks of at most ASSEMBLY_BLOCK triplets, bit-identical to one
conversion of all of them.  Sparse entries are kept exactly as assembled
(no drop thresholding); only exact zeros of the summed result are dropped.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import evolution, fock
from .commutators import form_matrix

ASSEMBLY_MAX_BYTES = 2 ** 31  # peak of the assembly, and of an evolution (see gkls_superoperator)
ASSEMBLY_BLOCK = 2 ** 17  # triplets written and made CSR at a time
# .worker: the thread that takes the dissipator products of this thread's
# `Superoperator.matvec` calls, inside a `Superoperator.dissipator_worker`
_products = threading.local()


@dataclass(frozen=True, eq=False)
class TruncatedOperators:
    """Sparse G, G0, N and Kraus list L on a truncated Fock space."""

    space: fock.TruncatedFockSpace
    ladders: fock.LadderOperators
    G: sp.spmatrix
    G0: sp.spmatrix
    N: sp.spmatrix
    L: tuple
    model: object

    @cached_property
    def pairs(self):
        """The Kossakowski pairs (s_q, B_q = sum_p K_qp s_p), one per nonzero row q
        of K, over the ladders s = (a_1..a_d, a_1†..a_d†); B_q is the form
        with coefficients (0, K_q)."""
        K = self.model.kossakowski.matrix
        s = self.ladders.a + self.ladders.adag
        return [(s[q], form_matrix(np.concatenate(([0], K[q])), self.ladders))
                for q in range(len(s)) if K[q].any()]


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Vectorized Hermiticity-preserving generator on D x D matrices: a drift
    and a folded dissipator.

    The generator is A(R) = X R + R X† + dissipator(R) with the D x D CSR
    `drift` X.  The dissipator is a *-map: the row of entry (k, j) is that
    of (j, k) conjugated, with the columns b D + a and a D + b swapped.  So
    `matrix` holds only its D(D+1)/2 rows (j, k), j <= k, in increasing vec
    index k D + j; `trace` is the trace of the whole D^2 x D^2 dissipator.
    A Hermitian H is carried by its entries at these vec indices, and
    `pair_sums` [j] holds the column sums of |A_j| and |B_j| of pair j.
    """

    matrix: sp.spmatrix
    drift: sp.spmatrix
    trace: float
    dim: int
    pair_sums: np.ndarray

    @cached_property
    def fold(self):
        """(vec index k D + j of each stored row, vec index j D + k of its mirror)."""
        k, j = np.tril_indices(self.dim)
        return k * self.dim + j, j * self.dim + k

    @cached_property
    def _conj_drift(self):
        return self.drift.conj()

    @cached_property
    def _diagonal_rows(self):
        """The stored rows (k, k), k (k + 3) / 2."""
        k = np.arange(self.dim)
        return k * (k + 3) // 2

    @cached_property
    def shift_and_norm(self):
        """mu = tr(A)/D^2 and the 1-norm of A - mu I, from the column sums of the pairs.

        Column k D + j of |kron(conj A_j, B_j)| sums to `pair_sums` [j] at k
        times at j, so the dissipator's sums are one (D x m)(m x D) product.
        The drift takes |j><k| to sum_i X_ij |i><k| + sum_l conj(X_lk) |j><l|:
        column k D + j adds c_j + c_k + |g_j + conj(g_k) - mu|, with g the
        diagonal of X and c the column sums of |X| off it, so
        mu = (2 D Re tr X + `trace`) / D^2.  The 2d ladders have disjoint
        supports and move both indices of |j><k|, so on a Gaussian model no
        two pairs, nor a pair and the drift, share a position and the norm is
        exact; where they share one (finite_dim's dense pairs) it is an upper bound.
        """
        D, sums, X = self.dim, self.pair_sums, self.drift
        off = np.repeat(np.arange(D), np.diff(X.indptr)) != X.indices
        c = np.bincount(X.indices[off], np.abs(X.data[off]), minlength=D)
        g = X.diagonal()
        mu = (2 * D * g.real.sum() + self.trace) / D ** 2
        cols = sums[:, 0].T @ sums[:, 1]  # [k, j]: column k D + j
        cols += c[:, None] + c
        diagonal = g + g.conj()[:, None]
        diagonal -= mu
        cols += np.abs(diagonal)
        return mu, float(cols.max())

    def unfold(self, u):
        """The D x D array (column-major) of the Hermitian matrix of stored entries u."""
        (rows, mirrors), D = self.fold, self.dim
        out = np.empty(D * D, dtype=complex)
        out[mirrors] = u.conj()
        out[rows] = u
        return out.reshape(D, D, order="F")

    def matvec(self, u):
        """The stored entries of A(H), for the Hermitian H of stored entries u.

        H is unfolded once; the stored rows of the dissipator take vec H,
        and the drift's X H + (X H)† is added at their entries.  vec H in
        row-major order is H^T = conj H, so Y = conj(X) times it is
        conj(X H), and the drift's entry (j, k) is Y_kj + conj(Y_jk).  The
        diagonal entries are made exactly real, which the Taylor sums need:
        an imaginary diagonal, on which the drift acts as zero, would grow
        under the dissipator alone.  Inside a `dissipator_worker` the
        dissipator's product is taken on its worker thread while this one
        takes the drift's; the gathers wait for both, so the same arrays
        are alive at once and the sums are those of one thread, bit for bit.
        """
        (rows, mirrors), D = self.fold, self.dim
        v = self.unfold(u).reshape(-1, order="F")  # vec H, a view
        worker = getattr(_products, "worker", None)
        dissipated = worker.submit(_product, self.matrix, [v]) if worker else None
        Y = (self._conj_drift @ v.reshape(D, D)).reshape(-1)  # row-major
        y = dissipated.result() if dissipated else self.matrix @ v
        del v
        y += Y[rows]
        mirrored = Y[mirrors]
        del Y
        y += np.conjugate(mirrored, out=mirrored)
        y.imag[self._diagonal_rows] = 0.0
        return y

    @contextmanager
    def dissipator_worker(self, start):
        """While open, and when `start`, the `matvec` calls this thread makes
        take the dissipator's product on one worker thread, which is joined
        on exit, whether the block returns or raises."""
        if not start:
            yield
            return
        with ThreadPoolExecutor(max_workers=1) as worker:
            _products.worker = worker
            try:
                yield
            finally:
                _products.worker = None

    def apply(self, X):
        """A(X) for any D x D matrix X, as A(H1) + i A(H2) with X = H1 + i H2."""
        X, rows = np.asarray(X, dtype=complex), self.fold[0]
        re, im = (self.unfold(self.matvec(H.reshape(-1, order="F")[rows]))
                  for H in (0.5 * (X + X.conj().T), -0.5j * (X - X.conj().T)))
        return re + 1j * im

    def toarray(self):
        """The dense D^2 x D^2 generator: the mirrored rows unfolded, plus
        kron(I, X) + kron(conj X, I)."""
        (rows, mirrors), D = self.fold, self.dim
        stored = self.matrix.toarray()
        dense = np.empty((D * D, D * D), dtype=complex)
        dense[mirrors] = stored.reshape(-1, D, D).transpose(0, 2, 1).reshape(-1, D * D).conj()
        dense[rows] = stored
        X, I = self.drift.toarray(), np.eye(D)
        dense += np.kron(I, X)
        dense += np.kron(X.conj(), I)
        return dense


def _product(matrix, box):
    """matrix @ box.pop(): the worker holds no reference to the vector once
    the product is returned, so the caller's `del` frees it."""
    return matrix @ box.pop()


def _hermitian_part(table, coefficients):
    """0.5 (S + S†) at every position of `table` (`LadderOperators.products()`),
    S = sum_{x,t} coefficients[x, t] T_x T_t summed entry by entry in table order."""
    positions, pairs, slots, weights, mirror = table
    terms = coefficients.ravel()[pairs] * weights
    S = np.empty(positions.size, dtype=complex)
    S.real = np.bincount(slots, terms.real, positions.size)
    S.imag = np.bincount(slots, terms.imag, positions.size)
    return 0.5 * (S + S[mirror].conj())


def _csr(table, data, D):
    """The D x D CSR of the nonzero `data` at the table's sorted positions."""
    keep = data != 0
    keys = table[0][keep]
    indptr = np.searchsorted(keys, np.arange(D + 1) * D).astype(np.int32)
    return sp.csr_matrix((data[keep], (keys % D).astype(np.int32), indptr), shape=(D, D))


def build_operators(model, space):
    """Assemble L_l, G0 = -(1/2) sum L_l†L_l and G = -iH + G0 (H = i (G - G0) is not kept).

    L_l is the `commutators.form_matrix` form of the l-th Kraus row of the
    model's `adjoint_action`.  G0 and H are quadratic in the ladders:
    each is sum_{x,t} C[x, t] T_x T_t over the terms T of
    (1, a_1..a_d, a_1†..a_d†) with a (2d+1) x (2d+1) coefficient matrix C,
    realised over one table of products, `ladders.products()`.  G0 has
    C0[x, t] = -(1/2) (kraus† kraus)[x†, t], so it holds the Kossakowski
    matrix, and H is (P + P†)/2 with P = sum_j a_j† X_j, X_j the form of
    mode j's Hamiltonian row (zeta_j, Omega_j., kappa_j.).  Both are taken
    as their entrywise Hermitian parts, so on the truncated space H is
    exactly Hermitian, for every Omega the model admits, and so is G0,
    negative semidefinite as -(1/2) sum L_l†L_l; identities involving
    products of quadratic operators hold on the interior subspace.  G and
    G0 are one CSR construction each.
    """
    if model.d != space.d:
        raise ValueError(f"model has d={model.d}, space has d={space.d}")
    lad = fock.build_ladders(space)
    d, kraus = space.d, model.adjoint_action.kraus
    adjoint = np.concatenate(([0], np.arange(d + 1, 2 * d + 1), np.arange(1, d + 1)))  # x†
    hamiltonian = np.zeros((2 * d + 1, 2 * d + 1), dtype=complex)
    hamiltonian[d + 1:] = np.column_stack([model.zeta, model.Omega, model.kappa])
    table = lad.products()
    G0 = _hermitian_part(table, -0.5 * (kraus.conj().T @ kraus)[adjoint])
    G = -1j * _hermitian_part(table, hamiltonian) + G0
    return TruncatedOperators(
        space=space, ladders=lad, G=_csr(table, G, space.D), G0=_csr(table, G0, space.D),
        N=lad.N, L=tuple(form_matrix(row, lad) for row in kraus), model=model,
    )


def _triplets(A):
    """(rows, cols, values) of the stored entries of a sparse or dense A, sorted by row."""
    if sp.issparse(A):
        A = A.tocsr()
        return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices, A.data
    rows, cols = np.nonzero(A)
    return rows, cols, A[rows, cols]


def _block_coo(terms, a0, a1, D):
    """COO of the stored rows a0 (a0 + 1) / 2 ... a1 (a1 + 1) / 2 - 1, block-local.

    Within each row the entries keep the order of one term-major pass over
    every term's (P, Q) products, so summing the duplicates gives the same
    bits whatever the blocks are.
    """
    r0, r1 = a0 * (a0 + 1) // 2, a1 * (a1 + 1) // 2
    parts = [(P, Q, counts, slice(*np.searchsorted(P[0], [a0, a1])))
             for P, Q, counts in terms]
    E = sum(int(counts[sel].sum()) for _, _, counts, sel in parts)
    rows, cols, data = np.empty(E, np.int32), np.empty(E, np.int32), np.empty(E, complex)
    start = 0
    for (Pr, Pc, Pv), (Qr, Qc, Qv), counts, sel in parts:
        Pr, Pc, Pv, counts = Pr[sel], Pc[sel], Pv[sel], counts[sel]
        part = slice(start, start + int(counts.sum()))
        mask = np.arange(Qv.size) < counts[:, None]
        for out, p_part, q_part, op in ((rows, Pr * (Pr + 1) // 2 - r0, Qr, np.add),
                                        (cols, Pc * D, Qc, np.add),
                                        (data, Pv.conj(), Qv, np.multiply)):
            op(np.repeat(p_part, counts), np.broadcast_to(q_part, mask.shape)[mask],
               out=out[part])
        start = part.stop
    return sp.coo_matrix((data, (rows, cols)), shape=(r1 - r0, D * D))


def gkls_superoperator(G, pairs, states=0):
    """Vectorized GKLS generator of the drift G and dissipator pairs (A_j, B_j),
    its dissipator assembled and folded.

    A pair contributes rho -> B_j rho A_j†, so the generator is
    kron(I, G) + kron(conj G, I) + sum_j kron(conj A_j, B_j); Kraus
    operators enter as pairs (L, L).  Its Hilbert-Schmidt adjoint (the
    Heisenberg generator) is the conjugate transpose of `toarray()`.
    G and the pair entries may be sparse or dense; the pairs must give a
    Hermiticity-preserving map (Kraus pairs, a Hermitian Kossakowski
    matrix, or a set closed under A_j <-> B_j).  Only the pairs' sum is
    assembled: the drift G is kept as a CSR beside it, the dissipator's
    trace is the real part of sum_j conj(tr A_j) tr B_j, and each pair's
    column sums of |A_j| and |B_j| are kept for the 1-norm.

    kron(P, Q) puts P_ab Q_ij in vec row a D + i, stored as row
    a (a + 1) / 2 + i when i <= a.  The stored triplets are counted per
    row a of P and cut into blocks of consecutive a of at most
    ASSEMBLY_BLOCK triplets (a single a may exceed it).  Each block's
    triplets are written into int32 / complex arrays and made CSR
    (duplicates summed) on their own, then copied into index and value
    arrays sized once to all the triplets; exact zeros are dropped at the
    end.  Each row sums its entries in the order of one term-major pass,
    so the result is bit-identical whatever the blocks.  When the copy
    arrays would cost more than the blocks save, all triplets are made CSR
    at once.  A ValueError naming the bytes is raised before any triplet
    is allocated when the peak of the chosen path (the largest block's
    triplets and its CSR copy, the copy arrays, the row pointer) would
    exceed ASSEMBLY_MAX_BYTES, or, for `states` > 0, when the peak of an
    `evolution.evolve_density` that keeps that many states would
    (`evolution.density_bytes`, with the triplet count for the nnz).
    """
    D = G.shape[0]
    drift = sp.csr_matrix(G)
    trace = float(sum(np.conj(A.diagonal().sum()) * B.diagonal().sum() for A, B in pairs).real)
    terms = []  # (P, Q, counts) of kron(conj P, Q), both sorted by row
    for A, B in pairs:
        P, Q = _triplets(A), _triplets(B)
        terms.append((P, Q, np.searchsorted(Q[0], P[0], side="right")))
    pair_sums = np.array([[np.bincount(T[1], np.abs(T[2]), minlength=D) for T in (P, Q)]
                          for P, Q, _ in terms]).reshape(-1, 2, D)
    per_row = sum((np.bincount(P[0], counts, minlength=D) for P, _, counts in terms),
                  np.zeros(D, np.int64))
    cum = np.concatenate(([0], np.cumsum(per_row, dtype=np.int64)))
    bounds = [0]
    while bounds[-1] < D:
        a0 = bounds[-1]
        a1 = int(np.searchsorted(cum, cum[a0] + ASSEMBLY_BLOCK, side="right")) - 1
        bounds.append(max(a1, a0 + 1))
    E, n = int(cum[-1]), D * (D + 1) // 2
    # 24 B per triplet of a block (int32 row and column, complex value),
    # which tocsr holds while it writes 20 B per entry (int32 index, complex
    # value); blocks add 20 B per triplet for the arrays they are copied
    # into, so all triplets are made CSR at once when that peaks no higher
    largest = int(np.diff(cum[bounds]).max())
    if 44 * largest + 20 * E >= 44 * E:
        bounds, largest = [0, D], E
    nbytes = 44 * largest + 20 * E * (len(bounds) > 2) + 4 * (n + 1)  # and the row pointer
    if nbytes > ASSEMBLY_MAX_BYTES:
        raise ValueError(
            f"superoperator assembly needs {nbytes} bytes at its peak for "
            f"{E} triplets at D = {D} (limit {ASSEMBLY_MAX_BYTES})")
    nbytes = evolution.density_bytes(D, E, states) if states else 0
    if nbytes > ASSEMBLY_MAX_BYTES:
        raise ValueError(
            f"a density evolution keeping {states} states needs {nbytes} bytes at its "
            f"peak for {E} stored entries at D = {D} (limit {ASSEMBLY_MAX_BYTES})")
    # the row pointer alone bounds D^2 below 2^30 for every admitted size
    assert D * D <= np.iinfo(np.int32).max
    if len(bounds) == 2:
        M = _block_coo(terms, 0, D, D).tocsr()
    else:
        indptr, indices, data = np.zeros(n + 1, np.int32), np.empty(E, np.int32), np.empty(E, complex)
        for a0, a1 in zip(bounds, bounds[1:]):
            block = _block_coo(terms, a0, a1, D).tocsr()
            r0, r1 = a0 * (a0 + 1) // 2, a1 * (a1 + 1) // 2
            start = indptr[r0]
            indptr[r0 + 1:r1 + 1] = block.indptr[1:] + start
            indices[start:start + block.nnz] = block.indices
            data[start:start + block.nnz] = block.data
            del block  # before the next block's triplets are written
        M = sp.csr_matrix((data, indices, indptr), shape=(n, D * D))
    M.eliminate_zeros()
    return Superoperator(matrix=M, drift=drift, trace=trace, dim=D, pair_sums=pair_sums)


def build_lindbladian(ops, states=0):
    """Vectorized (Schrodinger) Lindblad generator of a Gaussian model.

    The dissipator is taken in its Kossakowski (GKS) form,
    sum_l L_l rho L_l† = sum_pq K_qp s_p rho s_q† with
    s = (a_1..a_d, a_1†..a_d†), so `gkls_superoperator` receives one
    pair (s_q, sum_p K_qp s_p) per nonzero row q of K.  The 2d ladders
    have disjoint supports, so these give the triplets of the pairs
    (s_q, K_qp s_p): at most 4d^2 D^2 before the fold, whatever m is, and
    no two of them, and none with the drift, share a position.  The pairs
    go in increasing preimage index of their ladder s_q's one entry per
    row in the graded-lex basis: a_1†..a_d†, a_d..a_1.  Every row's
    entries then come out in increasing column with no duplicate, so the
    block COOs convert to CSR without a sort, to the same CSR as any pair
    order.
    `states` is the number of states an evolution under it keeps, for its
    byte budget.
    """
    lad = ops.ladders
    rank = {id(s): i for i, s in enumerate(lad.adag + lad.a[::-1])}
    pairs = sorted(ops.pairs, key=lambda pair: rank[id(pair[0])])
    return gkls_superoperator(ops.G, pairs, states)


def dissipation_quadratic_identity(ops, xi):
    """Evaluate <xi, -2 G0 xi> and the Kossakowski quadratic form <a# xi, K a# xi>.

    The form is sum_q <s_q xi, B_q xi> over `ops.pairs`, the pairs that
    `build_lindbladian` assembles, so two ladder images are live at a time;
    the two numbers agree up to rounding for interior xi, where the truncated
    ladder actions are exact.  xi may also be a D x b block of columns;
    then lhs and rhs are length-b arrays.
    """
    xi = fock.check_interior(ops.space, xi)
    dot = "i...,i...->..."
    rhs = sum(np.einsum(dot, (s @ xi).conj(), B @ xi) for s, B in ops.pairs)
    return np.real(np.einsum(dot, xi.conj(), -2.0 * (ops.G0 @ xi))), np.real(rhs)
