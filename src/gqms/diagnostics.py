"""Sampled certificates for Gaussian generators on truncated spaces.

All spectra, ranks and quadratic forms are evaluated after compression to
the interior subspace so that hard-truncation artifacts at the cutoff are
quarantined.  Random probe vectors have complex-Gaussian coefficients on
the interior block, are normalized, and are deterministic per seed
(`sample_blocks`).  The three sampled certificates reduce one pass over
a seed's samples, `sample_statistics`, instead of drawing their own; the
pass holds the samples as interior-sized vectors and applies only the
interior columns of G0 and G and the interior part of N's diagonal.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import evolution
from .commutators import krylov_closure

# Columns per sampled block: bounds the working memory of every sampler.
SAMPLE_BLOCK = 64
# A sample pass draws its next block on a worker thread while it applies the
# current one when a block has at least this many interior entries.  Handing
# a block over costs a thread wake-up and GIL hand-backs, about 0.1 ms
# whatever the block's size (a pass of n = 6 slowed 1.4 -> 3.2 ms over 16
# blocks), while the draw it hides costs about 40 ns an entry (two standard
# normals and the normalisation).  On 2 vCPUs, 500- and 1000-sample passes
# broke even near 5,000 entries and gained from 7,680 (n = 120, -2 to -12 %)
# through 18,304 (n = 286, -17 to -27 %); 2^13 entries, about 0.3 ms of
# draws, keeps every pipelined pass clear of the break-even point.
DRAW_AHEAD_ENTRIES = 2 ** 13
# A slack below -BOUND_TOL is a violation of the number-operator bound.
BOUND_TOL = 1e-10
# Candidate graph-norm constants, in increasing order.
C_GRID = (0.0,) + tuple(2.0 ** k for k in range(-2, 11))
# Default shifts w of the sector estimate.
SHIFT_GRID = (0.0, 0.5, 1.0, 2.0)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Sampled-inequality outcome: violations = 0 iff min_slack >= -BOUND_TOL."""

    samples: int
    min_slack: float
    violations: int


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
    `count`.  Besides the block last yielded, two draw-sized arrays are
    live at a time: the draw and the samples, whose squared moduli reuse
    the draw's memory, then the samples and the new block.
    """
    rows = dim if rows is None else rows
    for start in range(0, count, SAMPLE_BLOCK):
        b = min(SAMPLE_BLOCK, count - start)
        x = rng.standard_normal((b, 2, dim))
        z = np.empty((b, dim), dtype=complex)
        z.real, z.imag = x[:, 0], x[:, 1]
        # np.linalg.norm(z.T, axis=0), with its products in the draw's memory
        s = np.conjugate(z, out=x.reshape(b, 2 * dim).view(complex))
        np.multiply(s, z, out=s)
        norm = np.sqrt(np.add.reduce(s.real, axis=1))
        del x, s
        z /= norm[:, None]
        block = np.zeros((rows, b), dtype=complex)
        block[:dim] = z.T
        del z  # before the next draw is allocated
        yield block


@dataclass(frozen=True, eq=False)
class SampleStatistics:
    """Per-sample statistics of one seeded pass, keyed by operator.

    For each of the pass's interior unit vectors xi, norm2[op] holds
    ||op xi||^2 and form[op] holds Re<xi, -2 G0 xi> (op "G0"),
    Re<xi, (2N + d) xi> ("N") or <xi, G xi> ("G").
    """

    form: dict
    norm2: dict

    def head(self, n_samples):
        """The slice of the first n_samples, which the pass must hold."""
        have = len(self.norm2["G"])
        if not 1 <= n_samples <= have:
            raise ValueError(f"n_samples must be in 1..{have}, the pass's count")
        return slice(0, n_samples)


def sample_statistics(ops, seed, n_samples):
    """One pass over the seed's first n_samples interior samples for every sampled certificate.

    The pass draws interior-sized samples a block at a time and applies
    each of G0, N and G once per block: the interior columns of G0 and G,
    sliced once per pass, and N's diagonal (`fock.build_ladders` makes N
    diagonal), so nothing reads the zeros a sample has past the interior.
    One image block is live at a time.  A pass of more than one block of
    at least DRAW_AHEAD_ENTRIES interior entries opens one worker thread
    around its block loop and passes it to `_drawn_ahead`, which draws
    each next sample block there while the pass applies the current one,
    so one more sample block, and the draw arrays of `sample_blocks`, can
    be live; the worker alone advances the pass's generator, so the
    samples are those drawn in turn, and it is joined before the pass
    returns or raises.  Each column's squared image norm is summed row by
    row over all the image's rows, and its form over the interior rows, so
    its statistics do not depend on the width of its block, and a pass
    holds the first columns of any longer pass.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    space, d = ops.space, ops.space.d
    n = space.interior_dim()
    maps = {"G0": ops.G0[:, :n], "N": ops.N.diagonal()[:n, None], "G": ops.G[:, :n]}
    norm2 = {name: np.empty(n_samples) for name in maps}
    form = {name: np.empty(n_samples, dtype=complex if name == "G" else float)
            for name in maps}
    work = np.zeros(space.D * SAMPLE_BLOCK, dtype=complex)  # one reused temporary block
    blocks = sample_blocks(np.random.default_rng(seed), n_samples, n)
    draw_ahead = n_samples > SAMPLE_BLOCK and n * SAMPLE_BLOCK >= DRAW_AHEAD_ENTRIES
    start = 0
    with ThreadPoolExecutor(max_workers=1) if draw_ahead else nullcontext() as worker:
        for X in _drawn_ahead(blocks, worker) if worker else blocks:
            b = X.shape[1]
            for name, op in maps.items():
                Y = op * X if name == "N" else op @ X
                # a one-column reduction would sum pairwise, so reduce it beside a
                # second column of finite leftovers (work starts zeroed)
                T2 = work[:len(Y) * max(b, 2)].reshape(len(Y), max(b, 2))
                T = T2[:, :b]
                np.multiply(np.conjugate(Y, out=T), Y, out=T)
                norm2[name][start:start + b] = np.sqrt(np.add.reduce(T2.real, axis=0)[:b]) ** 2
                Y = Y[:n]
                T = work[:n * b].reshape(n, b)
                if name == "G0":  # -2 G0 xi
                    Y *= -2.0
                elif name == "N":  # (2N + d) xi
                    Y *= 2.0
                    Y += np.multiply(d, X, out=T)
                z = np.einsum("ij,ij->j", np.conjugate(X, out=T), Y)
                del Y  # before the next operator's image is allocated
                form[name][start:start + b] = z if name == "G" else np.real(z)
            start += b
    return SampleStatistics(form=form, norm2=norm2)


def _drawn_ahead(blocks, worker):
    """Yield the items of the iterator `blocks`, each one taken from it on
    the one-thread executor `worker` while the caller uses the one before.

    Only the worker advances `blocks`, one item at a time and in order, so
    the items are the ones `blocks` yields.  The caller owns the worker and
    joins it; a draw still pending then finishes first.
    """
    ahead = worker.submit(next, blocks, None)
    while (block := ahead.result()) is not None:
        ahead = worker.submit(next, blocks, None)
        yield block


def number_operator_bound(stats, K, n_samples):
    """Sample the lower bound <xi, -2 G0 xi> >= eps0 <xi, (2N + d) xi>.

    Valid for a positive semidefinite Kossakowski matrix with smallest
    eigenvalue eps0; slack is recorded per normalized interior sample,
    over the first n_samples of the pass `stats`.
    """
    head = stats.head(n_samples)
    slack = stats.form["G0"][head] - K.eps0 * stats.form["N"][head]
    return BoundReport(samples=n_samples, min_slack=float(slack.min()),
                       violations=int(np.count_nonzero(slack < -BOUND_TOL)))


def domain_comparison_constants(stats, K, n_samples):
    """Smallest grid constants c0, c with eps0^2 ||N xi||^2 <= 2 ||G0 xi||^2 + c0
    and eps0^2 ||N xi||^2 <= 2 ||G xi||^2 + c over the first n_samples of
    the pass `stats`.

    Existence of finite constants is the quantity of interest; the search
    over C_GRID reports the empirical values, None when the grid is exhausted.
    """
    head = stats.head(n_samples)
    n2 = K.eps0 ** 2 * stats.norm2["N"][head]
    req_c0 = float(np.max(n2 - 2.0 * stats.norm2["G0"][head]))
    req_c = float(np.max(n2 - 2.0 * stats.norm2["G"][head]))
    def pick(required):
        for c in C_GRID:
            if c >= required:
                return c
        return None
    return DomainComparisonReport(
        samples=n_samples,
        c0_hat=pick(req_c0), c_hat=pick(req_c),
        max_required_c0=req_c0, max_required_c=req_c,
    )


def positivity_improving_probe(superop, psis, times, space):
    """Evolve pure states (`evolve_density`) and report the interior eigen-rank at each time.

    Each normalized psi is evolved over the sorted distinct times with 0,
    and its evolution is reduced by `support_reports`.
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
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        # the evolution is let go before the next one keeps its states
        reports += support_reports(
            evolution.evolve_density(superop, psi / np.linalg.norm(psi), grid), times, dim, idx)
    return reports


def support_reports(result, times, interior_dim, psi_index=0):
    """SupportReport rows of a density evolution (`evolve_density`) at each of
    `times`, every one an output time of it.

    full is true when the interior block of the evolved state has full
    eigen-rank at evolution.RANK_RTOL, the numerical signature of a
    positivity-improving semigroup at that (psi, t).
    """
    reports = []
    for t in times:
        rank, min_eig = result.support_rank_at(t, interior_dim)
        reports.append(SupportReport(t=t, rank=rank, min_interior_eig=min_eig,
                                     full=bool(rank == interior_dim), psi_index=psi_index))
    return reports


def closure_bytes(interior_dim, n_kraus):
    """Bytes of the complex arrays an `invariant_subspace_search` holds at its
    peak: the dense interior blocks of G and of n_kraus L_l, and the closure
    basis with its returned copy, interior_dim^2 entries each."""
    return 16 * interior_dim ** 2 * (n_kraus + 3)


def invariant_subspace_search(ops, n_seeds, seed, starts=()):
    """Grow span{v} under the interior compressions of G and every L_l.

    Each seed vector (n_seeds interior vectors from `sample_blocks`, then
    the interior parts of `starts`) is closed by one `krylov_closure` call,
    which stops after the first round that adds nothing; interior_dim
    rounds always suffice.
    """
    if n_seeds < 0:
        raise ValueError("n_seeds must be >= 0")
    if n_seeds < 1 and not starts:
        raise ValueError("need n_seeds >= 1 or explicit start vectors")
    space = ops.space
    dim = space.interior_dim()
    mats = [M[:dim, :dim].toarray() for M in (ops.G, *ops.L)]
    rng = np.random.default_rng(seed)
    vectors = [v for X in sample_blocks(rng, n_seeds, dim) for v in X.T]
    for v in starts:
        v = np.asarray(v, dtype=complex).reshape(space.D)[:dim]
        nv = np.linalg.norm(v)
        if nv == 0:
            raise ValueError("start vector has no interior component")
        vectors.append(v / nv)
    closure_dims = [krylov_closure(mats, v[:, None], dim)[0].shape[1] for v in vectors]
    return InvariantSubspaceReport(
        seed_count=len(vectors),
        min_closure_dim=int(min(closure_dims)),
        interior_dim=dim,
        closure_dims=tuple(closure_dims),
    )


def sector_estimate(stats, n_samples, shift_grid=SHIFT_GRID):
    """Heuristic sector half-angle of the numerical range of G.

    Takes z = <xi, G xi> over the first n_samples of the pass `stats`
    and, for each shift w in the grid, finds the smallest theta with
    |Im z| <= tan(theta) (w - Re z) for every sample; reports the best
    (theta_hat, shift).  A necessary-style indication of sectoriality,
    not a proof of analyticity.
    """
    if len(shift_grid) == 0:
        raise ValueError("shift_grid must not be empty")
    head = stats.head(n_samples)
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
