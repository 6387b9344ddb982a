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
Sparse entries are kept exactly as assembled (no drop thresholding);
only exact zeros of the summed result are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Vectorized generator acting on column-stacked D x D matrices."""

    matrix: sp.spmatrix
    picture: str
    dim: int


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


def _triplets(A):
    """(rows, cols, values) of the stored entries of a sparse or dense matrix."""
    A = sp.coo_matrix(A)
    return A.row, A.col, A.data


def _adjoint(T):
    rows, cols, vals = T
    return cols, rows, vals.conj()


def _conj(T):
    rows, cols, vals = T
    return rows, cols, vals.conj()


def gkls_superoperator(G, pairs, picture="schrodinger"):
    """Vectorized GKLS generator of the drift G and dissipator pairs (A_j, B_j).

    A pair contributes rho -> B_j rho A_j†, so the Schrodinger form is
    kron(I, G) + kron(conj G, I) + sum_j kron(conj A_j, B_j); Kraus
    operators enter as pairs (L, L).  The Heisenberg form is the
    Hilbert-Schmidt adjoint, the same sum with G† and the pairs
    (A_j†, B_j†).  G and the pair entries may be sparse or dense.

    Every term's COO triplets are written into int32 / complex arrays
    sized once to E = sum nnz(P) nnz(Q) over the kron factors (P, Q),
    with no per-term kron, sum or concatenation; the triplets become CSR
    once (duplicates summed, exact zeros dropped).  When the peak of
    that conversion, the triplets and the E-long CSR copy with its row
    pointer live at once, would exceed ASSEMBLY_MAX_BYTES a ValueError
    naming the bytes is raised before any of them is allocated.
    """
    if picture not in PICTURES:
        raise ValueError(f"picture must be one of {PICTURES}")
    D = G.shape[0]
    X = _triplets(G)
    pairs = [(_triplets(A), _triplets(B)) for A, B in pairs]
    if picture == "heisenberg":
        X = _adjoint(X)
        pairs = [(_adjoint(A), _adjoint(B)) for A, B in pairs]
    diag = np.arange(D, dtype=np.int32)
    I = (diag, diag, np.ones(D, dtype=complex))
    terms = [(I, X), (_conj(X), I)] + [(_conj(A), B) for A, B in pairs]
    E = sum(P[2].size * Q[2].size for P, Q in terms)
    # 24 B per triplet (int32 row and column, complex value), which tocsr
    # holds while it writes 20 B per entry (int32 index, complex value)
    # and an int32 row pointer
    nbytes = 44 * E + 4 * (D * D + 1)
    if nbytes > ASSEMBLY_MAX_BYTES:
        raise ValueError(
            f"superoperator assembly needs {nbytes} bytes at its peak for "
            f"{E} triplets at D = {D} (limit {ASSEMBLY_MAX_BYTES})")
    # the row pointer alone bounds D^2 below 2^29 for every admitted size
    assert D * D <= np.iinfo(np.int32).max
    rows = np.empty(E, dtype=np.int32)
    cols = np.empty(E, dtype=np.int32)
    data = np.empty(E, dtype=complex)
    start = 0
    for (Pr, Pc, Pv), (Qr, Qc, Qv) in terms:
        stop = start + Pv.size * Qv.size
        shape = (Pv.size, Qv.size)
        np.add.outer(Pr * D, Qr, out=rows[start:stop].reshape(shape))
        np.add.outer(Pc * D, Qc, out=cols[start:stop].reshape(shape))
        np.multiply.outer(Pv, Qv, out=data[start:stop].reshape(shape))
        start = stop
    M = sp.coo_matrix((data, (rows, cols)), shape=(D * D, D * D)).tocsr()
    M.eliminate_zeros()
    return Superoperator(matrix=M, picture=picture, dim=D)


def build_lindbladian(ops, picture="schrodinger"):
    """Vectorized Lindblad generator of a Gaussian model in the requested picture.

    The dissipator is taken in its Kossakowski (GKS) form,
    sum_l L_l rho L_l† = sum_pq K_qp s_p rho s_q† with
    s = (a_1..a_d, a_1†..a_d†), so `gkls_superoperator` receives one
    pair (s_q, sum_p K_qp s_p) per nonzero row q of K.  The 2d ladder
    operators have disjoint supports, so the grouped pairs give the same
    triplets as the pairs (s_q, K_qp s_p): at most 4d^2 D^2, whatever
    the number m of Kraus operators, in 2d terms.  Truncation error
    enters only through the operators themselves.
    """
    model = ops.model
    K = gm.build_kossakowski(model.V, model.U).matrix
    s = list(ops.ladders.a) + list(ops.ladders.adag)
    pairs = [(s[q], sum(K[q, p] * s[p] for p in np.flatnonzero(K[q])))
             for q in range(len(s)) if K[q].any()]
    return gkls_superoperator(ops.G, pairs, picture)


def apply_superoperator(superop, X):
    """Apply a vectorized generator to a D x D matrix, returning a matrix."""
    D = superop.dim
    v = superop.matrix @ np.asarray(X, dtype=complex).reshape(D * D, order="F")
    return v.reshape(D, D, order="F")


def quadratic_form_apply(ops, x, v, u):
    """Sesquilinear form of the Heisenberg generator at (v, u), both interior.

    Returns i<Hv, xu> - i<v, xHu>
            - (1/2) sum_l (<v, x L†L u> - 2 <Lv, x Lu> + <L†L v, x u>),
    which agrees with <v, L(x) u> computed from the vectorized generator.
    """
    v = fock.check_interior(ops.space, v)
    u = fock.check_interior(ops.space, u)
    x = np.asarray(x, dtype=complex)
    Hv = ops.H @ v
    Hu = ops.H @ u
    total = 1j * np.vdot(Hv, x @ u) - 1j * np.vdot(v, x @ Hu)
    for Lop in ops.L:
        Lu = Lop @ u
        Lv = Lop @ v
        LdLu = Lop.conj().T @ Lu
        LdLv = Lop.conj().T @ Lv
        total -= 0.5 * (np.vdot(v, x @ LdLu) - 2.0 * np.vdot(Lv, x @ Lu)
                        + np.vdot(LdLv, x @ u))
    return complex(total)


def dissipation_quadratic_identity(ops, K, xi):
    """Evaluate <xi, -2 G0 xi> and the Kossakowski quadratic form on a# xi.

    a# xi stacks (a_1 xi, ..., a_d xi, a_1† xi, ..., a_d† xi); the two
    numbers agree up to rounding for interior xi, where the truncated
    ladder actions are exact.  xi may also be a D x b block of columns;
    then lhs and rhs are length-b arrays.
    """
    xi = fock.check_interior(ops.space, xi)

    def dot(x, y):
        return np.einsum("i...,i...->...", x.conj(), y)

    stack = [op @ xi for op in list(ops.ladders.a) + list(ops.ladders.adag)]
    Km = K.matrix if hasattr(K, "matrix") else np.asarray(K, dtype=complex)
    rhs = sum(Km[p, q] * dot(stack[p], stack[q]) for p, q in zip(*np.nonzero(Km)))
    return np.real(dot(xi, -2.0 * (ops.G0 @ xi))), np.real(rhs)
