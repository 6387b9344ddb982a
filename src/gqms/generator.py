"""Truncated operators and Lindblad superoperators of a Gaussian model.

Assembles sparse matrices for H, the Kraus operators L_l, the drift
G = -iH - (1/2) sum_l L_l† L_l and its dissipative part G0 on a truncated
Fock space, together with the vectorized generator in either picture:

    Schrodinger:  rho -> G rho + rho G† + sum_l L_l rho L_l†
    Heisenberg:   x   -> G† x + x G + sum_l L_l† x L_l

The dissipator is assembled in its Kossakowski (GKS) form
sum_pq K_qp s_p rho s_q† over the ladder operators
s = (a_1..a_d, a_1†..a_d†), by `gkls_superoperator`, the one GKLS
assembly of the package (finite_dim passes its Kraus operators to it).
Vectorization is by column stacking, vec(A X B) = (B^T kron A) vec(X).
Both generators are *-maps, L(X†) = L(X)†, so only the D(D+1)/2 rows
of the upper-triangle entries are assembled and stored; `Superoperator`
unfolds the rest.  Sparse entries are kept exactly as assembled (no drop
thresholding); only exact zeros of the summed result are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import fock
from . import model as gm
from .commutators import kraus_form

PICTURES = ("schrodinger", "heisenberg")
ASSEMBLY_MAX_BYTES = 2 ** 31  # peak of the COO triplets and their CSR copy


@dataclass(frozen=True, eq=False)
class TruncatedOperators:
    """Sparse H, G, G0, N and Kraus list L on a truncated Fock space."""

    space: fock.TruncatedFockSpace
    ladders: fock.LadderOperators
    H: sp.spmatrix
    G: sp.spmatrix
    G0: sp.spmatrix
    N: sp.spmatrix
    L: tuple
    model: object

    @cached_property
    def pairs(self):
        """The Kossakowski pairs (s_q, B_q = sum_p K_qp s_p), one per nonzero row q
        of K, over the ladders s = (a_1..a_d, a_1†..a_d†)."""
        K = gm.build_kossakowski(self.model.V, self.model.U).matrix
        s = list(self.ladders.a) + list(self.ladders.adag)
        return [(s[q], sum(K[q, p] * s[p] for p in np.flatnonzero(K[q])))
                for q in range(len(s)) if K[q].any()]


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Vectorized Hermiticity-preserving generator on D x D matrices, folded.

    L(X†) = L(X)†: the row of entry (k, j) is that of (j, k) conjugated,
    with the columns b D + a and a D + b swapped.  So `matrix` holds only
    the D(D+1)/2 rows (j, k), j <= k, in increasing vec index k D + j.
    """

    matrix: sp.spmatrix
    picture: str
    dim: int

    @cached_property
    def fold(self):
        """(vec index k D + j of each stored row, vec index j D + k of its mirror)."""
        k, j = np.tril_indices(self.dim)
        return k * self.dim + j, j * self.dim + k

    def matvec(self, v):
        """vec L(X) of a Hermitian X = unvec(v): the stored rows, conjugated into their mirrors."""
        rows, mirrors = self.fold
        y = self.matrix @ v
        out = np.empty(self.dim ** 2, dtype=complex)
        out[mirrors] = y.conj()
        out[rows] = y
        return out

    def apply(self, X):
        """L(X) for any D x D matrix X, as L(H1) + i L(H2) with X = H1 + i H2."""
        D, X = self.dim, np.asarray(X, dtype=complex)
        re, im = (self.matvec(H.reshape(D * D, order="F"))
                  for H in (0.5 * (X + X.conj().T), -0.5j * (X - X.conj().T)))
        return (re + 1j * im).reshape(D, D, order="F")

    def toarray(self):
        """The dense D^2 x D^2 generator, the mirrored rows unfolded."""
        (rows, mirrors), D = self.fold, self.dim
        stored = self.matrix.toarray()
        dense = np.empty((D * D, D * D), dtype=complex)
        dense[mirrors] = stored.reshape(-1, D, D).transpose(0, 2, 1).reshape(-1, D * D).conj()
        dense[rows] = stored
        return dense


def build_operators(model, space):
    """Assemble H, L_l, G0 = -(1/2) sum L_l†L_l and G = -iH + G0.

    L_l is the matrix of `commutators.kraus_form(model, l)`, for each of
    the m rows of (V, U).  On the truncated space H is exactly Hermitian
    and G0 exactly negative semidefinite; identities involving products
    of quadratic operators hold on the interior subspace.
    """
    if model.d != space.d:
        raise ValueError(f"model has d={model.d}, space has d={space.d}")
    lad = fock.build_ladders(space)
    d = model.d
    D = space.D
    H = sp.csr_matrix((D, D), dtype=complex)
    for j in range(d):
        for k in range(d):
            if model.Omega[j, k] != 0:
                H = H + model.Omega[j, k] * (lad.adag[j] @ lad.a[k])
            if model.kappa[j, k] != 0:
                H = H + 0.5 * model.kappa[j, k] * (lad.adag[j] @ lad.adag[k])
                H = H + 0.5 * np.conj(model.kappa[j, k]) * (lad.a[j] @ lad.a[k])
    for j in range(d):
        if model.zeta[j] != 0:
            H = H + 0.5 * model.zeta[j] * lad.adag[j]
            H = H + 0.5 * np.conj(model.zeta[j]) * lad.a[j]
    L = [kraus_form(model, ell).to_matrix(lad) for ell in range(model.m)]
    G0 = sp.csr_matrix((D, D), dtype=complex)
    for Lop in L:
        G0 = G0 - 0.5 * (Lop.conj().T @ Lop)
    G = (-1j) * H + G0
    return TruncatedOperators(
        space=space, ladders=lad, H=H.tocsr(), G=G.tocsr(), G0=G0.tocsr(),
        N=lad.N, L=tuple(L), model=model,
    )


def _triplets(A, adjoint):
    """(rows, cols, values) of the stored entries of a sparse or dense A, or of A†."""
    if sp.issparse(A):
        A = A.tocsr()
        rows, cols, vals = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices, A.data
    else:
        rows, cols = np.nonzero(A)
        vals = A[rows, cols]
    return (cols, rows, vals.conj()) if adjoint else (rows, cols, vals)


def gkls_superoperator(G, pairs, picture="schrodinger"):
    """Folded vectorized GKLS generator of the drift G and dissipator pairs (A_j, B_j).

    A pair contributes rho -> B_j rho A_j†, so the Schrodinger form is
    kron(I, G) + kron(conj G, I) + sum_j kron(conj A_j, B_j); Kraus
    operators enter as pairs (L, L).  The Heisenberg form is the
    Hilbert-Schmidt adjoint, the same sum with G† and the pairs
    (A_j†, B_j†).  G and the pair entries may be sparse or dense; the
    pairs must give a Hermiticity-preserving map (Kraus pairs, a Hermitian
    Kossakowski matrix, or a set closed under A_j <-> B_j).

    kron(P, Q) puts P_ab Q_ij in vec row a D + i, stored as row
    a (a + 1) / 2 + i when i <= a.  The stored triplets are counted, written
    into int32 / complex arrays sized once and made CSR once (duplicates
    summed, exact zeros dropped); a ValueError naming the bytes is raised
    before any is allocated when the peak of that conversion (triplets, CSR
    copy and row pointer) would exceed ASSEMBLY_MAX_BYTES.
    """
    if picture not in PICTURES:
        raise ValueError(f"picture must be one of {PICTURES}")
    D = G.shape[0]
    adjoint = picture == "heisenberg"
    X = _triplets(G, adjoint)
    diag = np.arange(D, dtype=np.int32)
    I = (diag, diag, np.ones(D, dtype=complex))
    terms = []  # (P, Q) of kron(conj P, Q)
    for P, Q in [(I, X), (X, I)] + [(_triplets(A, adjoint), _triplets(B, adjoint))
                                    for A, B in pairs]:
        order = np.argsort(Q[0], kind="stable")
        Q = tuple(part[order] for part in Q)
        terms.append((P, Q, np.searchsorted(Q[0], P[0], side="right")))
    E = sum(int(counts.sum()) for _, _, counts in terms)
    n = D * (D + 1) // 2
    # 24 B per triplet (int32 row and column, complex value), which tocsr
    # holds while it writes 20 B per entry (int32 index, complex value)
    # and an int32 row pointer over the n stored rows
    nbytes = 44 * E + 4 * (n + 1)
    if nbytes > ASSEMBLY_MAX_BYTES:
        raise ValueError(
            f"superoperator assembly needs {nbytes} bytes at its peak for "
            f"{E} triplets at D = {D} (limit {ASSEMBLY_MAX_BYTES})")
    # the row pointer alone bounds D^2 below 2^30 for every admitted size
    assert D * D <= np.iinfo(np.int32).max
    rows, cols, data = np.empty(E, np.int32), np.empty(E, np.int32), np.empty(E, complex)
    start = 0
    for (Pr, Pc, Pv), (Qr, Qc, Qv), counts in terms:
        part = slice(start, start + int(counts.sum()))
        mask = np.arange(Qv.size) < counts[:, None]
        for out, p_part, q_part, op in ((rows, Pr * (Pr + 1) // 2, Qr, np.add),
                                        (cols, Pc * D, Qc, np.add),
                                        (data, Pv.conj(), Qv, np.multiply)):
            op(np.repeat(p_part, counts), np.broadcast_to(q_part, mask.shape)[mask],
               out=out[part])
        start = part.stop
    M = sp.coo_matrix((data, (rows, cols)), shape=(n, D * D)).tocsr()
    M.eliminate_zeros()
    return Superoperator(matrix=M, picture=picture, dim=D)


def build_lindbladian(ops, picture="schrodinger"):
    """Folded vectorized Lindblad generator of a Gaussian model in the requested picture.

    The dissipator is taken in its Kossakowski (GKS) form,
    sum_l L_l rho L_l† = sum_pq K_qp s_p rho s_q† with
    s = (a_1..a_d, a_1†..a_d†), so `gkls_superoperator` receives one
    pair (s_q, sum_p K_qp s_p) per nonzero row q of K.  The 2d ladders
    have disjoint supports, so these give the triplets of the pairs
    (s_q, K_qp s_p): at most 4d^2 D^2 before the fold, whatever m is.
    """
    return gkls_superoperator(ops.G, ops.pairs, picture)


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
