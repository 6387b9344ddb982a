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

    @property
    def grades(self):
        """Integer array of total excitation |n| per basis index."""
        return np.array([sum(n) for n in self.basis], dtype=int)

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
    def pattern(self):
        """(indptr, rows, cols, values, terms): the stored entries of the
        identity and the 2d ladders, which are disjoint, in (row, col) order.

        terms[e] is entry e's index in (1, a_1..a_d, a_1†..a_d†), values[e]
        its complex value, and indptr the int32 CSR row pointer of all of
        them; each term has at most one entry per row and per column.
        """
        D = self.space.D
        mats = [sp.identity(D, dtype=complex, format="csr"), *self.a, *self.adag]
        rows = np.concatenate([np.repeat(np.arange(D), np.diff(m.indptr)) for m in mats])
        cols = np.concatenate([m.indices for m in mats])
        order = np.lexsort((cols, rows))
        terms = np.repeat(np.arange(len(mats)), [m.nnz for m in mats])[order]
        values = np.concatenate([m.data for m in mats])[order]
        rows, cols = rows[order], cols[order].astype(np.int32)
        indptr = np.searchsorted(rows, np.arange(D + 1)).astype(np.int32)
        return indptr, rows, cols, values, terms


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


def build_ladders(space):
    """Build sparse matrices for a_j, a_j† and the total number operator.

    a_j e(n) = sqrt(n_j) e(n - delta_j); a_j† e(n) = sqrt(n_j + 1) e(n + delta_j)
    when the target stays under the cutoff, zero otherwise (hard truncation).
    """
    D = space.D
    a_ops = []
    for j in range(space.d):
        rows, cols, vals = [], [], []
        for i, n in enumerate(space.basis):
            if n[j] > 0:
                lower = n[:j] + (n[j] - 1,) + n[j + 1:]
                rows.append(space.index_of[lower])
                cols.append(i)
                vals.append(math.sqrt(n[j]))
        a_ops.append(sp.csr_matrix(
            (np.asarray(vals, dtype=complex), (rows, cols)), shape=(D, D)))
    N = sp.diags(space.grades.astype(complex), format="csr")
    return LadderOperators(space=space, a=tuple(a_ops),
                           adag=tuple(a.T.tocsr() for a in a_ops), N=N)


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
