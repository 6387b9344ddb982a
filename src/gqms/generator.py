"""Truncated operators and Lindblad superoperators of a Gaussian model.

Assembles sparse matrices for H, the Kraus operators L_l, the drift
G = -iH - (1/2) sum_l L_l† L_l and its dissipative part G0 on a truncated
Fock space, together with the vectorized generator in either picture:

    Schrodinger:  rho -> G rho + rho G† + sum_l L_l rho L_l†
    Heisenberg:   x   -> G† x + x G + sum_l L_l† x L_l

Vectorization is by column stacking, vec(A X B) = (B^T kron A) vec(X).
Sparse entries are kept exactly as assembled (no drop thresholding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fock

PICTURES = ("schrodinger", "heisenberg")


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

    The Kraus sum runs over all m rows of (V, U).  On the truncated space
    H is exactly Hermitian and G0 exactly negative semidefinite; identities
    involving products of quadratic operators hold on the interior subspace.
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
    L = []
    for ell in range(model.m):
        Lop = sp.csr_matrix((D, D), dtype=complex)
        for k in range(d):
            if model.V[ell, k] != 0:
                Lop = Lop + np.conj(model.V[ell, k]) * lad.a[k]
            if model.U[ell, k] != 0:
                Lop = Lop + model.U[ell, k] * lad.adag[k]
        L.append(Lop.tocsr())
    G0 = sp.csr_matrix((D, D), dtype=complex)
    for Lop in L:
        G0 = G0 - 0.5 * (Lop.conj().T @ Lop)
    G = (-1j) * H + G0
    return TruncatedOperators(
        space=space, ladders=lad, H=H.tocsr(), G=G.tocsr(), G0=G0.tocsr(),
        N=lad.N, L=tuple(L), model=model,
    )


def gkls_superoperator(G, Ls, picture="schrodinger"):
    """Vectorized GKLS generator of the drift G and Kraus operators Ls.

    Assembled as kron(I, X) + kron(conj X, I) + sum_l kron(conj K_l, K_l),
    with (X, K_l) = (G, L_l) in the Schrodinger picture and (G†, L_l†) in
    the Heisenberg picture.  G and the L_l may be sparse or dense; the
    result is CSR.  With G = -iH - (1/2) sum_l L_l†L_l the Schrodinger
    form is exactly trace preserving and the Heisenberg form exactly
    unital at the matrix level.
    """
    if picture not in PICTURES:
        raise ValueError(f"picture must be one of {PICTURES}")
    D = G.shape[0]
    I = sp.identity(D, dtype=complex, format="csr")
    X, Ks = G, Ls
    if picture == "heisenberg":
        X, Ks = X.conj().T, [Lop.conj().T for Lop in Ks]
    M = sp.kron(I, X, format="csr") + sp.kron(X.conj(), I, format="csr")
    for K in Ks:
        M = M + sp.kron(K.conj(), K, format="csr")
    return Superoperator(matrix=M, picture=picture, dim=D)


def build_lindbladian(ops, picture="schrodinger"):
    """Vectorized Lindblad generator of a Gaussian model in the requested picture.

    The shared GKLS assembly (`gkls_superoperator`) of the truncated drift
    G and Kraus operators L_l; truncation error enters only through the
    operators themselves.
    """
    return gkls_superoperator(ops.G, ops.L, picture)


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
