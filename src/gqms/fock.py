"""Truncated bosonic Fock spaces with a total-excitation cutoff.

The d-mode Fock space is truncated to occupation multi-indices
n = (n_1, ..., n_d) with |n| = n_1 + ... + n_d <= N_max.  The basis is
ordered by grade |n| first and lexicographically within each grade, so
grade blocks are contiguous and at-most-quadratic operators are block
banded (they connect grades differing by at most 2).

Creation rows that would leave the cutoff are set to zero (hard
truncation).  Operator identities such as the CCR therefore hold exactly
only after compression to the *interior* subspace spanned by basis
vectors with |n| <= N_max - interior_margin; the default margin of 2
covers every quadratic operator built here.

The ladders are built by index arithmetic on this basis: the index of an
occupation follows in closed form from its suffix sums (`_basis_index`),
so `build_ladders` finds the index of n + e_j for every n below the
cutoff grade in one vectorised lookup and writes the CSR arrays of a_j
and a_j† directly.  Each term of (1, a_1..a_d, a_1†..a_d†) is a weighted
partial permutation (`LadderOperators.maps`), so the product of two terms
is one too, found by composing their index maps (`LadderOperators.products()`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

DEFAULT_DIMENSION_CAP = 5000


def _compositions(total, parts):
    """Yield tuples of `parts` non-negative ints summing to `total`, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True, eq=False)
class TruncatedFockSpace:
    """Graded-lexicographic basis of occupation multi-indices with |n| <= N_max."""

    d: int
    N_max: int
    basis: tuple
    index_of: dict
    interior_margin: int = 2

    @property
    def D(self):
        return len(self.basis)

    @cached_property
    def occupations(self):
        """The basis as a D x d integer array."""
        return np.array(self.basis, dtype=int).reshape(self.D, self.d)

    @property
    def grades(self):
        """Integer array of total excitation |n| per basis index."""
        return self.occupations.sum(axis=1)

    def interior_dim(self):
        """Count binomial(N_max - margin + d, d) of basis vectors with |n| <= N_max - margin."""
        if self.interior_margin > self.N_max:
            raise ValueError(
                f"interior_margin={self.interior_margin} exceeds N_max={self.N_max}"
            )
        return math.comb(self.N_max - self.interior_margin + self.d, self.d)

    def basis_vector(self, n):
        """Unit coordinate vector for the occupation tuple n."""
        n = tuple(int(k) for k in n)
        if n not in self.index_of:
            raise ValueError(f"occupation {n} not in the truncated basis")
        e = np.zeros(self.D, dtype=complex)
        e[self.index_of[n]] = 1.0
        return e

    def vacuum(self):
        return self.basis_vector((0,) * self.d)


@dataclass(frozen=True, eq=False)
class LadderOperators:
    """Sparse annihilation, creation and number operators on a truncated space."""

    space: TruncatedFockSpace
    a: tuple
    adag: tuple
    N: sp.spmatrix

    @cached_property
    def maps(self):
        """(targets, weights), int32 and float (2d+1) x D arrays: row r of
        term t of (1, a_1..a_d, a_1†..a_d†) holds weights[t, r] at column
        targets[t, r], or nothing where targets[t, r] is -1 (weight 0)."""
        ladders = self.a + self.adag
        targets = np.full((len(ladders) + 1, self.space.D), -1, dtype=np.int32)
        weights = np.zeros(targets.shape)
        targets[0], weights[0] = np.arange(self.space.D), 1.0
        rows = np.diff([m.indptr for m in ladders], axis=1) > 0
        targets[1:][rows] = np.concatenate([m.indices for m in ladders])
        weights[1:][rows] = np.concatenate([m.data.real for m in ladders])
        return targets, weights

    @cached_property
    def pattern(self):
        """(indptr, rows, cols, values, terms): the stored entries of the
        identity and the 2d ladders, which are disjoint, in (row, col) order.

        terms[e] is entry e's index in (1, a_1..a_d, a_1†..a_d†), values[e]
        its complex value, and indptr the int32 CSR row pointer of all of
        them; each term has at most one entry per row and per column.
        """
        targets, weights = self.maps
        terms, rows = np.nonzero(targets >= 0)
        cols = targets[terms, rows]
        order = np.lexsort((cols, rows))
        terms, rows, cols = terms[order], rows[order], cols[order]
        indptr = np.searchsorted(rows, np.arange(self.space.D + 1)).astype(np.int32)
        return indptr, rows, cols, weights[terms, rows].astype(complex), terms

    def products(self):
        """(positions, pairs, slots, weights, mirror): every entry of the
        products T_x T_t of two terms of (1, a_1..a_d, a_1†..a_d†), pair
        (x, t) by pair in row-major order.  Built on each call and not kept:
        `generator.build_operators` realises all it needs from one table.

        Row r of T_x T_t holds weights_x[r] weights_t[k] at column
        targets_t[k], k = targets_x[r] (`maps`), where both terms have an
        entry: the product of the truncated matrices.  An entry carries its
        pair index (2d+1) x + t, that weight and its slot in `positions`, the
        sorted distinct keys r D + c.  These are closed under transposition,
        as (T_x T_t)^T = T_t† T_x†; mirror[s] is the slot of the transpose
        of position s.
        """
        targets, weights = self.maps
        n, D = targets.shape
        mid = np.maximum(targets, 0)
        cols = targets[:, mid].swapaxes(0, 1)  # [x, t, r]
        x, t, r = np.nonzero((targets >= 0)[:, None, :] & (cols >= 0))
        k = mid[x, r]
        positions, slots = np.unique(r * D + cols[x, t, r], return_inverse=True)
        mirror = np.searchsorted(positions, positions % D * D + positions // D)
        return positions, x * n + t, slots, weights[x, r] * weights[t, k], mirror


def build_space(d, N_max, interior_margin=2):
    """Enumerate the truncated d-mode Fock basis with total excitation <= N_max.

    The dimension is binomial(N_max + d, d); requests above
    DEFAULT_DIMENSION_CAP are rejected as a resource guard.
    """
    if d < 1 or N_max < 1:
        raise ValueError(f"need d >= 1 and N_max >= 1, got d={d}, N_max={N_max}")
    if interior_margin < 0:
        raise ValueError("interior_margin must be non-negative")
    D = math.comb(N_max + d, d)
    if D > DEFAULT_DIMENSION_CAP:
        raise ValueError(
            f"dimension {D} for (d={d}, N_max={N_max}) exceeds cap {DEFAULT_DIMENSION_CAP}"
        )
    basis = []
    for grade in range(N_max + 1):
        basis.extend(_compositions(grade, d))
    basis = tuple(basis)
    index_of = {n: i for i, n in enumerate(basis)}
    return TruncatedFockSpace(
        d=d, N_max=N_max, basis=basis, index_of=index_of,
        interior_margin=interior_margin,
    )


def _basis_index(suffix, N_max):
    """Basis index of each occupation n in the truncated basis, given by its
    suffix sums s_k = n_k + ... + n_d along the last axis.

    With f(t, q) = binomial(t + q, q) occupations of q modes with total at
    most t, f(s_1, d) basis vectors have a grade up to n's, and
    f(s_k - 1, d - k + 1) of n's grade first differ from n at mode k - 1,
    where they are larger; so n has index
    f(s_1, d) - 1 - sum_{k=2}^d f(s_k - 1, d - k + 1).
    """
    d = suffix.shape[-1]
    f = np.zeros((N_max + 2, d + 1), dtype=int)  # f[t + 1, q] = f(t, q), t >= -1
    f[1:, 0] = 1
    for q in range(1, d + 1):
        np.cumsum(f[1:, q - 1], out=f[1:, q])
    return f[suffix[..., 0] + 1, d] - 1 - f[suffix[..., 1:], np.arange(d - 1, 0, -1)].sum(-1)


def build_ladders(space):
    """Build sparse matrices for a_j, a_j† and the total number operator.

    a_j e(n) = sqrt(n_j) e(n - delta_j); a_j† e(n) = sqrt(n_j + 1) e(n + delta_j)
    when the target stays under the cutoff, zero otherwise (hard truncation).
    The rows of a_j are the basis vectors m below the cutoff grade, the
    first `lower` of the graded basis; row m holds sqrt(m_j + 1) at the
    index of m + e_j, which `_basis_index` gives for every m and j at once.
    a_j† holds the same entries transposed: row m + e_j has column m.
    """
    D, d = space.D, space.d
    lower = math.comb(space.N_max - 1 + d, d)
    occupations = space.occupations[:lower]
    suffix = np.cumsum(occupations[:, ::-1], axis=1)[:, ::-1]
    raised = suffix + (np.arange(d) <= np.arange(d)[:, None])[:, None]  # [j, m]: m + e_j
    cols = _basis_index(raised, space.N_max)
    values = np.sqrt(occupations.T + 1.0).astype(complex, order="C")
    source = np.full((d, D), -1)
    source[np.arange(d)[:, None], cols] = np.arange(lower)
    has = source >= 0
    adag_indptr = np.zeros((d, D + 1), np.int32)
    np.cumsum(has, axis=1, out=adag_indptr[:, 1:])
    a_ops, adag_ops = [], []
    for j in range(d):
        a_ops.append(sp.csr_matrix(
            (values[j], cols[j].astype(np.int32),
             np.minimum(np.arange(D + 1), lower).astype(np.int32)), shape=(D, D)))
        rows = source[j][has[j]]
        adag_ops.append(sp.csr_matrix(
            (values[j][rows], rows.astype(np.int32), adag_indptr[j]), shape=(D, D)))
    grades = space.grades
    excited = np.flatnonzero(grades)
    N = sp.csr_matrix((grades[excited].astype(complex), excited.astype(np.int32),
                       np.searchsorted(excited, np.arange(D + 1)).astype(np.int32)),
                      shape=(D, D))
    return LadderOperators(space=space, a=tuple(a_ops), adag=tuple(adag_ops), N=N)


def check_interior(space, v):
    """Raise ValueError unless v is supported on the interior.

    v is a vector, returned with shape (D,), or a 2-D block of D-row
    columns, each checked on its own; a column's boundary weight may be
    at most 1e-12 times max(1, its norm).
    """
    dim = space.interior_dim()
    v = np.asarray(v)
    v = v.reshape(space.D, -1) if v.ndim == 2 else v.reshape(space.D)
    boundary = np.linalg.norm(v[dim:], axis=0)
    if np.any(boundary > 1e-12 * np.maximum(1.0, np.linalg.norm(v, axis=0))):
        raise ValueError(
            f"vector has boundary weight {np.max(boundary):.3e} outside grade "
            f"{space.N_max - space.interior_margin}"
        )
    return v
