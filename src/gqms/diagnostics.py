"""Sampled certificates for Gaussian generators on truncated spaces.

All spectra, ranks and quadratic forms are evaluated after compression to
the interior subspace so that hard-truncation artifacts at the cutoff are
quarantined.  Random probe vectors have complex-Gaussian coefficients on
the interior block, are normalized, and are deterministic per seed
(`sample_blocks`).  The three sampled certificates reduce one pass over
a seed's samples, `sample_statistics`, instead of drawing their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evolution
from .commutators import krylov_closure

# Columns per sampled block: bounds the working memory of every sampler.
SAMPLE_BLOCK = 64
# A slack below -BOUND_TOL is a violation of the number-operator bound.
BOUND_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Sampled-inequality outcome: violations = 0 iff min_slack >= -BOUND_TOL."""

    samples: int
    min_slack: float
    violations: int
    witness: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class DomainComparisonReport:
    """Empirical constants for the graph-norm bounds of N against G0 and G."""

    samples: int
    c0_hat: float | None
    c_hat: float | None
    max_required_c0: float
    max_required_c: float

    @property
    def feasible(self):
        return self.c0_hat is not None and self.c_hat is not None


@dataclass(frozen=True, eq=False)
class SupportReport:
    """Interior eigen-rank of an evolved state at one time."""

    t: float
    rank: int
    min_interior_eig: float
    full: bool
    psi_index: int = 0


@dataclass(frozen=True, eq=False)
class InvariantSubspaceReport:
    """Joint closure dimensions under G and the Kraus operators."""

    seed_count: int
    min_closure_dim: int
    interior_dim: int
    closure_dims: tuple
    reducible_witness: np.ndarray | None = None

    @property
    def full_closure(self):
        return self.min_closure_dim == self.interior_dim


@dataclass(frozen=True, eq=False)
class SectorReport:
    """Numerical-range sector estimate: |Im z| <= tan(theta_hat) (shift - Re z)."""

    theta_hat: float
    shift: float
    per_shift: tuple
    z_samples: np.ndarray


def sample_blocks(rng, count, dim, rows=None):
    """Yield `count` seeded unit vectors as complex rows x b blocks of columns.

    b <= SAMPLE_BLOCK, so memory stays bounded whatever `count` is.  Each
    column draws `dim` real and then `dim` imaginary standard normals
    from `rng`, is normalized, and is supported on the first `dim` rows
    (rows defaults to dim).  The stream is the one `count` successive
    per-vector draws consume, so the first k columns do not depend on
    `count`.
    """
    rows = dim if rows is None else rows
    for start in range(0, count, SAMPLE_BLOCK):
        x = rng.standard_normal((min(SAMPLE_BLOCK, count - start), 2, dim))
        z = (x[:, 0] + 1j * x[:, 1]).T
        del x  # each draw temporary is freed before the next is allocated
        block = np.zeros((rows, z.shape[1]), dtype=complex)
        block[:dim] = z / np.linalg.norm(z, axis=0)
        del z
        yield block


def _interior_blocks(space, n_samples, seed):
    """Seeded interior samples of a truncated space, as D x b blocks."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return sample_blocks(np.random.default_rng(seed), n_samples,
                         space.interior_dim(), space.D)


@dataclass(frozen=True, eq=False)
class SampleStatistics:
    """Per-sample statistics of one seeded pass, keyed by operator.

    For the first len(norm2[op]) interior unit vectors xi of the seed's
    stream, norm2[op] holds ||op xi||^2 and form[op] holds
    Re<xi, -2 G0 xi> (op "G0"), Re<xi, (2N + d) xi> ("N") or <xi, G xi> ("G").
    """

    space: object
    seed: int
    form: dict
    norm2: dict

    def head(self, operators, n_samples):
        """The slice of the first n_samples, which the pass must hold for each operator."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        for name in operators:
            have = len(self.norm2.get(name, ()))
            if have < n_samples:
                raise ValueError(f"the sample pass applied {name} to {have} < "
                                 f"{n_samples} samples")
        return slice(0, n_samples)


def sample_statistics(ops, seed, counts):
    """One pass over the seed's interior samples for every sampled certificate.

    `counts` maps some of "G0", "N" and "G" to the number of leading
    samples that operator is applied to.  The pass draws max(counts)
    samples, a block at a time, and applies each operator once per block
    to the columns below its count, so an operator sees the same block
    widths as a pass of its own count.  One image block is live at a time.
    """
    if not counts or set(counts) - {"G0", "N", "G"}:
        raise ValueError(f"counts must map some of G0, N, G to sizes, got {counts!r}")
    if min(counts.values()) < 1:
        raise ValueError("n_samples must be >= 1")
    d = ops.space.d
    norm2 = {name: np.empty(n) for name, n in counts.items()}
    form = {name: np.empty(n, dtype=complex if name == "G" else float)
            for name, n in counts.items()}
    work = np.empty(ops.space.D * SAMPLE_BLOCK, dtype=complex)  # one reused temporary block
    start = 0
    for X in _interior_blocks(ops.space, max(counts.values()), seed):
        for name, n in counts.items():
            b = min(n - start, X.shape[1])
            if b <= 0:
                continue
            Xb = X[:, :b] if b < X.shape[1] else X
            Y = getattr(ops, name) @ Xb
            T = work[:Y.size].reshape(Y.shape)
            np.multiply(np.conjugate(Y, out=T), Y, out=T)
            norm2[name][start:start + b] = np.sqrt(np.add.reduce(T.real, axis=0)) ** 2
            if name == "G0":  # -2 G0 xi
                Y *= -2.0
            elif name == "N":  # (2N + d) xi
                Y *= 2.0
                Y += np.multiply(d, Xb, out=T)
            z = np.einsum("ij,ij->j", np.conjugate(Xb, out=T), Y)
            del Y  # before the next operator's image is allocated
            form[name][start:start + b] = z if name == "G" else np.real(z)
        start += X.shape[1]
    return SampleStatistics(space=ops.space, seed=seed, form=form, norm2=norm2)


def number_operator_bound(stats, K, n_samples):
    """Sample the lower bound <xi, -2 G0 xi> >= eps0 <xi, (2N + d) xi>.

    Valid for a positive semidefinite Kossakowski matrix with smallest
    eigenvalue eps0; slack is recorded per normalized interior sample,
    over the first n_samples of the pass `stats`.  The witness is the
    first sample of least slack, redrawn from the seed's stream, kept
    only when that slack is a violation.
    """
    head = stats.head(("G0", "N"), n_samples)
    slack = stats.form["G0"][head] - K.eps0 * stats.form["N"][head]
    j = int(np.argmin(slack))
    witness = None
    if slack[j] < -BOUND_TOL:
        *_, last = _interior_blocks(stats.space, j + 1, stats.seed)
        witness = last[:, -1].copy()
    return BoundReport(
        samples=n_samples, min_slack=float(slack[j]),
        violations=int(np.count_nonzero(slack < -BOUND_TOL)), witness=witness,
    )


def domain_comparison_constants(stats, K, n_samples, c_grid=None):
    """Smallest grid constants c0, c with eps0^2 ||N xi||^2 <= 2 ||G0 xi||^2 + c0
    and eps0^2 ||N xi||^2 <= 2 ||G xi||^2 + c over the first n_samples of
    the pass `stats`.

    Existence of finite constants is the quantity of interest; the grid
    search reports the empirical values, None when the grid is exhausted.
    """
    if c_grid is None:
        c_grid = [0.0] + [float(2 ** k) for k in range(-2, 11)]
    if len(c_grid) == 0:
        raise ValueError("c_grid must not be empty")
    c_grid = sorted(float(c) for c in c_grid)
    head = stats.head(("G0", "N", "G"), n_samples)
    n2 = K.eps0 ** 2 * stats.norm2["N"][head]
    req_c0 = float(np.max(n2 - 2.0 * stats.norm2["G0"][head]))
    req_c = float(np.max(n2 - 2.0 * stats.norm2["G"][head]))
    def pick(required):
        for c in c_grid:
            if c >= required:
                return c
        return None
    return DomainComparisonReport(
        samples=n_samples,
        c0_hat=pick(req_c0), c_hat=pick(req_c),
        max_required_c0=req_c0, max_required_c=req_c,
    )


def positivity_improving_probe(superop, psis, times, space, rank_rtol=1e-8):
    """Evolve pure states (`auto` integrator) and report the interior eigen-rank at each time.

    full is true when the interior block of the evolved state has full
    eigen-rank at the relative threshold, the numerical signature of a
    positivity-improving semigroup at that (psi, t).
    """
    times = sorted(set(float(t) for t in times))
    if not times:
        raise ValueError("times must not be empty")
    if len(psis) == 0:
        raise ValueError("psis (initial states) must not be empty")
    if any(t < 0 for t in times):
        raise ValueError("times must be non-negative")
    grid = np.array(sorted({0.0} | set(times)))
    dim = space.interior_dim()
    reports = []
    for idx, psi in enumerate(psis):
        rho0 = evolution.DensityMatrix.pure(psi)
        result = evolution.evolve_density(superop, rho0, grid)
        for t in times:
            i = int(np.searchsorted(grid, t))
            rank, min_eig = evolution.support_rank(
                result.states[i].rho, dim, rtol=rank_rtol)
            reports.append(SupportReport(
                t=t, rank=rank, min_interior_eig=min_eig,
                full=bool(rank == dim), psi_index=idx,
            ))
    return reports


def invariant_subspace_search(ops, n_seeds, seed, starts=None):
    """Grow span{v} under the interior compressions of G and every L_l.

    Each seed vector (n_seeds interior vectors from `sample_blocks`, then
    the interior parts of `starts`) is closed by one `krylov_closure` call,
    which stops after the first round that adds nothing; interior_dim
    rounds always suffice.  A closure smaller than the interior dimension
    is returned as a reducibility witness basis.
    """
    if n_seeds < 1 and not starts:
        raise ValueError("need n_seeds >= 1 or explicit start vectors")
    space = ops.space
    dim = space.interior_dim()
    mats = [np.asarray(ops.G.toarray())[:dim, :dim]]
    mats += [np.asarray(L.toarray())[:dim, :dim] for L in ops.L]
    rng = np.random.default_rng(seed)
    vectors = [v for X in sample_blocks(rng, max(0, n_seeds), dim) for v in X.T]
    for v in starts or []:
        v = np.asarray(v, dtype=complex).reshape(space.D)[:dim]
        nv = np.linalg.norm(v)
        if nv == 0:
            raise ValueError("start vector has no interior component")
        vectors.append(v / nv)
    closure_dims = []
    witness = None
    for v in vectors:
        closure, _ = krylov_closure(mats, v[:, None], dim)
        closure_dims.append(closure.shape[1])
        if closure.shape[1] < dim and witness is None:
            witness = np.zeros((space.D, closure.shape[1]), dtype=complex)
            witness[:dim] = closure
    return InvariantSubspaceReport(
        seed_count=len(vectors),
        min_closure_dim=int(min(closure_dims)),
        interior_dim=dim,
        closure_dims=tuple(closure_dims),
        reducible_witness=witness,
    )


def sector_estimate(stats, n_samples, shift_grid=None):
    """Heuristic sector half-angle of the numerical range of G.

    Takes z = <xi, G xi> over the first n_samples of the pass `stats`
    and, for each shift w in the grid, finds the smallest theta with
    |Im z| <= tan(theta) (w - Re z) for every sample; reports the best
    (theta_hat, shift).  A necessary-style indication of sectoriality,
    not a proof of analyticity.
    """
    if shift_grid is None:
        shift_grid = [0.0, 0.5, 1.0, 2.0]
    if len(shift_grid) == 0:
        raise ValueError("shift_grid must not be empty")
    head = stats.head(("G",), n_samples)
    zs = stats.form["G"][head]
    per_shift = []
    for w in shift_grid:
        angles = np.arctan2(np.abs(zs.imag), float(w) - zs.real)
        per_shift.append((float(w), float(angles.max())))
    best_shift, best_theta = min(per_shift, key=lambda p: p[1])
    return SectorReport(
        theta_hat=best_theta, shift=best_shift,
        per_shift=tuple(per_shift), z_samples=zs,
    )
