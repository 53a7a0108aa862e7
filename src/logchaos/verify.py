"""Oracles and statistical checks for the chaos laboratory.

Everything Monte Carlo runs through a Bench: factor matrices, stencil
spectra, and kernel tables are computed once, then replicas are processed
in the sampler's fixed blocks of 32, drawn one stream per block and handed
to the consume closures a few blocks at a time.  Worker threads claim whole
batches and results are assembled in batch order, so every estimate is
byte-identical for any worker count and any batch size.

Ladder cells for squared-difference quantities use median-of-means over 40
fixed replica blocks: |M_eps - M_eps'|^2 has a one-sided heavy tail in the
non-L2 subcritical phase (tail index d/alpha^2 < 2), so the plain mean is
noise-dominated at desk-scale R while the block median concentrates.
Moment estimates proper (untruncated means against exact oracles,
mc_moments) keep the plain mean and the standard unbiased SE.  Truncated
chaos values feed the ladders alone; sup_field_prob estimates the events.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import kernels
from .chaos import barrier_below, chaos_density, sobolev_diag
from .grids import Grid
from .mollifier import Mollifier, discrete_stencil, interior_rows
from .phase import PhaseError
from .sampler import (BLOCK, TiltShift, block_z, increment_factors,
                      level_groups, next_fast_len, sampled_rows,
                      tilt_shift_rows)

ENV_WORKERS = "LOGCHAOS_WORKERS"

MOM_BLOCKS = 40
# values per batch of blocks handed to a consume closure: small blocks are
# consumed a few at a time, so that per-call overhead is paid once per
# batch, while a batch's arrays stay below glibc's 128 KB mmap threshold
BATCH_VALUES = 2 ** 14
# sd of the median of n block means, relative to block sd: sqrt(pi/2)/sqrt(n)
_MEDIAN_FACTOR = math.sqrt(math.pi / 2.0)


def default_workers():
    return max(1, int(os.environ.get(ENV_WORKERS, "1")))


@dataclass(frozen=True)
class MomentEstimate:
    """Plain-mean Monte Carlo estimate with per-component SEs.

    z-scores are (estimate - oracle) / SE componentwise when an oracle is
    present; overflow-flagged replicas are excluded and counted.
    """

    estimator: str
    replicas: int
    estimate: complex
    se_re: float
    se_im: float
    oracle: complex | None = None
    z_re: float | None = None
    z_im: float | None = None
    excluded: int = 0

    @property
    def max_z(self):
        zs = [abs(z) for z in (self.z_re, self.z_im) if z is not None]
        return max(zs) if zs else None


def _component_z(diff, se, scale=0.0):
    # differences below float resolution carry no statistical meaning; this
    # happens in deterministic degenerate runs (gamma = 0) where the SE is
    # pure summation rounding
    if abs(diff) <= 16.0 * np.finfo(float).eps * scale:
        return 0.0
    if se > 0:
        return diff / se
    return math.copysign(math.inf, diff)


def moment_from_values(estimator, values, oracle=None, exclude=None):
    """Build a MomentEstimate from per-replica (complex) values."""
    values = np.asarray(values)
    excluded = 0
    if exclude is not None:
        excluded = int(np.count_nonzero(exclude))
        values = values[~np.asarray(exclude)]
    n = values.size
    if n < 2:
        raise ValueError("need at least two surviving replicas")
    est = complex(values.mean())
    se_re = float(values.real.std(ddof=1) / math.sqrt(n))
    se_im = float(values.imag.std(ddof=1) / math.sqrt(n))
    z_re = z_im = None
    if oracle is not None:
        oracle = complex(oracle)
        z_re = _component_z(est.real - oracle.real, se_re,
                            max(abs(est.real), abs(oracle.real)))
        z_im = _component_z(est.imag - oracle.imag, se_im,
                            max(abs(est.imag), abs(oracle.imag)))
    return MomentEstimate(estimator=estimator, replicas=n, estimate=est,
                          se_re=se_re, se_im=se_im, oracle=oracle,
                          z_re=z_re, z_im=z_im, excluded=excluded)


@dataclass(frozen=True)
class LadderReport:
    """Ladder of nonnegative cells with a decreasing-within-noise verdict.

    Cells are median-of-means over MOM_BLOCKS fixed replica blocks;
    consecutive differences carry SEs from the paired per-block means.
    Verdict rule: every consecutive difference is negative or within 2 SE
    of zero, and the last cell is below half the first (an all-zero ladder
    counts as converged).  excluded counts the replicas left out over all
    cells; cell_excluded splits it per cell, and empty_blocks counts per
    cell the blocks with no replica left, which its median skips.
    """

    estimator: str
    steps: tuple
    values: tuple
    ses: tuple
    diffs: tuple
    diff_ses: tuple
    verdict: bool
    excluded: int = 0
    cell_excluded: tuple = ()
    empty_blocks: tuple = ()


def trend_verdict(values, diff_ses):
    values = np.asarray(values, dtype=float)
    diffs = np.diff(values)
    for d, se in zip(diffs, diff_ses):
        if d >= 0 and abs(d) > 2.0 * se:
            return False
    if values[0] == 0.0 and values[-1] == 0.0:
        return True
    return values[-1] < 0.5 * values[0]


def _mom_blocks(values, keep):
    """Per-block means of one cell's replica values; NaN for empty blocks."""
    r = values.shape[-1]
    bins = np.array_split(np.arange(r), MOM_BLOCKS)
    out = np.full(MOM_BLOCKS, np.nan)
    for b, idx in enumerate(bins):
        k = keep[idx]
        if k.any():
            out[b] = values[idx][k].mean()
    return out


def ladder_from_values(estimator, steps, values, keep=None):
    """Median-of-means ladder cells plus paired-difference SEs and verdict.

    values has shape (cells, R) with R >= MOM_BLOCKS, so no block starts
    empty; keep marks surviving replicas per cell.
    """
    values = np.asarray(values, dtype=float)
    c, r = values.shape
    if r < MOM_BLOCKS:
        raise ValueError(f"median-of-means needs R >= {MOM_BLOCKS} replicas "
                         f"(one per block), got R={r}")
    if keep is None:
        keep = np.ones_like(values, dtype=bool)
    bm = np.stack([_mom_blocks(values[i], keep[i]) for i in range(c)])
    counts = np.sum(np.isfinite(bm), axis=1)
    cells = np.nanmedian(bm, axis=1)
    ses = _MEDIAN_FACTOR * np.nanstd(bm, axis=1, ddof=1) / np.sqrt(counts)
    paired = np.diff(bm, axis=0)
    diff_counts = np.sum(np.isfinite(paired), axis=1)
    diff_ses = _MEDIAN_FACTOR * np.nanstd(paired, axis=1, ddof=1) / np.sqrt(diff_counts)
    verdict = trend_verdict(cells, diff_ses)
    dropped = (~keep).sum(axis=1)
    return LadderReport(estimator=estimator, steps=tuple(steps),
                        values=tuple(float(v) for v in cells),
                        ses=tuple(float(s) for s in ses),
                        diffs=tuple(float(d) for d in np.diff(cells)),
                        diff_ses=tuple(float(s) for s in diff_ses),
                        verdict=bool(verdict),
                        excluded=int(dropped.sum()),
                        cell_excluded=tuple(int(n) for n in dropped),
                        empty_blocks=tuple(int(MOM_BLOCKS - n) for n in counts))


@dataclass(frozen=True)
class Draw:
    """What one sweep samples: grid rows lo..hi (z row i is grid row
    lo + i) on a torus of next_fast_len(hi - lo + 1) points, and tops, the
    last level of each of its level groups (slabs).  A function of the
    draw's own levels and keys (Bench.draw), never of earlier draws."""

    lo: int
    hi: int
    torus: int
    tops: tuple

    @property
    def rows(self):
        return self.hi - self.lo + 1

    def slab(self, level):
        """Index of the slab whose last level is level; ValueError when
        this draw does not hold Y_level."""
        if level not in self.tops:
            raise ValueError(f"Y_{level} is not drawn: the draw reads "
                             f"levels {list(self.tops)}")
        return self.tops.index(level)


class Bench:
    """Shared state for block-deterministic Monte Carlo runs.

    One Bench per (spec, grid, n_max, f).  Each estimator builds the Draw
    of its sweep once (Bench.draw of the levels it reads and the (channel,
    eps) keys it mollifies) and hands that same Draw to its consume and to
    map_blocks, so calls that share a Bench never read each other's rows.
    A draw is centred, so a consume adds any mean itself.  It holds the
    grid rows lo..hi = sampled_rows(grid, f, widest eps among its keys) and
    one slab per group of consecutive levels ending at a partial sum Y_l it
    reads: the cumsum of a block over slabs 0..draw.slab(l) is Y_l.  The
    caches only grow: group factors (one circulant embedding per group) per
    (tops, rows), stencil spectra per (channel, eps, torus), the
    kernel-table diagonal per (channel, eps) and the support kernel table
    per (eps, eps'), one value per row offset; lattice kernel values at
    n_max levels come from one lattice routine of kernels (_lattice_table,
    which offset_table calls), with no Gram block, so they are the exact
    covariances of the sampled fields.
    last_draw records the Draw of the last map_blocks call (a new bench:
    every level on supp(f)), which factors and safety_net report.
    """

    def __init__(self, spec, grid, n_max, f=None, mol=None):
        self.spec = spec
        self.grid = grid
        self.n_max = int(n_max)
        self.f = None if f is None else np.asarray(f, dtype=float)
        self.channels = {"main": mol if mol is not None else Mollifier()}
        self.supp = None if self.f is None else np.flatnonzero(self.f != 0.0)
        self._groups = {}
        self._supp_tables = {}
        self._spectra = {}
        self._cross_tables = {}
        self.last_draw = self.draw()

    def add_channel(self, name, mol):
        self.channels[name] = mol

    def draw(self, levels=None, keys=()):
        """The Draw of the partial sums in levels (default every level)
        whose consume mollifies the (channel, eps) keys: rows lo..hi =
        sampled_rows(grid, f, widest eps in keys, 0 for none).  Bad levels
        or keys raise ValueError; the keys' stencil spectra are built here,
        so that worker threads only read the cache."""
        tops = tuple(b for _, b in level_groups(self.n_max, levels))
        for key in keys:
            self.supp_tables(*key)
        widest = max((float(eps) for _, eps in keys), default=0.0)
        lo, hi = sampled_rows(self.grid, self.f, widest)
        out = Draw(lo, hi, next_fast_len(hi - lo + 1), tops)
        for key in keys:
            self._spectrum(*key, out)
        return out

    def _factors(self, draw):
        """One LevelFactor per group of draw, cached per (level set, rows)."""
        key = (draw.tops, draw.rows)
        if key not in self._groups:
            self._groups[key] = increment_factors(
                self.spec, self.grid, self.n_max, draw.rows, draw.tops)
        return self._groups[key]

    @property
    def factors(self):
        """One LevelFactor per group of last_draw."""
        return self._factors(self.last_draw)

    def supp_tables(self, channel, eps):
        """((offsets, weights), k_diag_supp) on the test-function support
        rows: the channel's discrete_stencil at eps, tap w(o) reading row
        r + o for support row r, and the kernel-table diagonal.  Raises
        ValueError when the support leaks out of D_eps.  Every D_eps row of
        a regular grid holds the whole stencil, so the diagonal is one
        offset-0 value, the one-offset lattice table whose value
        cross_table holds at offset 0, bit for bit."""
        key = (channel, float(eps))
        if key not in self._supp_tables:
            if self.supp is None:
                raise ValueError("bench has no test function")
            mol, supp = self.channels[channel], self.supp
            if not np.isin(supp, interior_rows(self.grid, eps)).all():
                raise ValueError(f"test function support leaks outside D_eps at eps={eps}")
            k_diag = np.full(supp.size, kernels._lattice_table(
                self.spec, [0], eps, eps, mol, self.n_max, self.grid.h)[0])
            self._supp_tables[key] = (discrete_stencil(mol, eps, self.grid.h),
                                      k_diag)
        return self._supp_tables[key]

    def _spectrum(self, channel, eps, draw):
        """The rfft of the stencil taps w(o) placed at -o on draw's torus,
        so that circular convolution gives X(r) = sum_o w(o) y(r + o).
        ValueError when a support row's taps leave draw's rows, so no tap
        wraps around the torus."""
        (offs, w), _ = self.supp_tables(channel, eps)
        if (self.supp[0] + offs[0] < draw.lo
                or self.supp[-1] + offs[-1] > draw.hi):
            raise ValueError(f"convolution at eps={eps} reads outside "
                             "the sampled rows")
        key = (channel, float(eps), draw.torus)
        if key not in self._spectra:
            taps = np.zeros(draw.torus)
            taps[-offs % draw.torus] = w
            self._spectra[key] = np.fft.rfft(taps)
        return self._spectra[key]

    def mollify(self, y, keys, draw):
        """Mollified fields on the support rows, one (S, B) array per
        (channel, eps) in keys, of y = Y_{n_max} on draw's rows, shape
        (W, B): one rfft of y, then per key a product with its _spectrum
        and one irfft.  pocketfft transforms each column alone, outside
        BLAS, so no byte depends on other columns or BLAS threads."""
        spectra = [self._spectrum(*key, draw) for key in keys]
        fy = np.fft.rfft(y, draw.torus, axis=0)
        return [np.fft.irfft(fy * s[:, None], draw.torus,
                             axis=0)[self.supp - draw.lo] for s in spectra]

    @property
    def safety_net(self):
        """Sampled rows [lo, hi] and level_groups [first, last] of the last
        draw and, per group, its circulant embedding's safety net, as the
        resolved block records them: embedding_min_ratio (smallest
        eigenvalue over the largest) and torus_points."""
        d = self.last_draw
        groups = self._factors(d)
        return {"sampled_rows": [d.lo, d.hi],
                "level_groups": [[g.first, g.last] for g in groups],
                "embedding_min_ratio": [g.net for g in groups],
                "torus_points": [g.draws for g in groups]}

    def cross_table(self, eps, eps2):
        """K_{eps,eps2} of the main channel (lattice, exact) at the 2S - 1
        row offsets o = x - y of the S-row support run, x at eps and y at
        eps2: entry o + S - 1 holds offset o.  Checked as supp_tables checks
        each eps and cached per (eps, eps2): the one kernel table the
        moment oracles read."""
        key = (float(eps), float(eps2))
        if key not in self._cross_tables:
            for e in key:
                self.supp_tables("main", e)
            self._cross_tables[key] = kernels.offset_table(
                self.spec, self.grid, self.supp, self.supp, eps, eps2,
                self.channels["main"], self.n_max)[2]
        return self._cross_tables[key]

    def map_blocks(self, seed, replicas, consume, workers=None, draw=None):
        """Run consume(start, z) over batches of blocks; fixed-order assembly.

        z is a block of draw, a Draw of this bench (default self.draw():
        every level, one group per level, on the rows of supp(f)); a
        consume that reads rows or mollifies takes them from the same
        Draw, and this call records it as last_draw.  A batch is k
        consecutive blocks, k = max(1, BATCH_VALUES // the normals one
        block draws), each drawn by block_z from its own stream; z is their
        (groups, W, k BLOCK) concatenation along the replica axis
        (block_z's own array when k = 1), and start is the batch's first
        replica.  Batch 0 runs in the calling thread, worker threads claim
        the others whole.  consume returns a tuple of arrays with trailing
        replica axis; each batch writes them into one array per output,
        shaped by batch 0 and trimmed to the replica budget.  Every
        consume in this module acts on each replica column alone, its
        stencil spectra too (mollify), so the bytes do not depend on k.
        """
        if replicas < 1:
            raise ValueError(f"map_blocks needs replicas >= 1, got {replicas}")
        workers = workers if workers is not None else default_workers()
        draw = self.draw() if draw is None else draw
        self.last_draw = draw
        factors = self._factors(draw)
        per = max(1, BATCH_VALUES // (BLOCK * sum(g.draws for g in factors)))
        blocks = range(0, replicas, BLOCK)
        batches = [blocks[i:i + per] for i in range(0, len(blocks), per)]

        def run(i):
            zs = [block_z(self.spec, self.grid, factors, seed, start,
                          self.n_max) for start in batches[i]]
            z = zs[0] if len(zs) == 1 else np.concatenate(zs, axis=-1)
            return consume(batches[i][0], z)

        first = run(0)
        outs = tuple(np.empty((*o.shape[:-1], replicas), o.dtype)
                     for o in first)

        def put(i, parts):
            lo = batches[i][0]
            for out, part in zip(outs, parts):
                out[..., lo:lo + part.shape[-1]] = part[..., :replicas - lo]

        put(0, first)
        if workers <= 1:
            for i in range(1, len(batches)):
                put(i, run(i))
        else:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                list(ex.map(lambda i: put(i, run(i)), range(1, len(batches))))
        return outs


def _chaos_levels(bench, trunc):
    """The partial sums a chaos value reads: Y_q..Y_n_max under the barrier
    trunc=(q, lam), each the top of its own slab, Y_n_max alone without.
    Raises ValueError for a barrier level outside 1..n_max."""
    if trunc is None:
        return [bench.n_max]
    q = trunc[0]
    if not 1 <= q <= bench.n_max:
        raise ValueError(f"barrier level Y_{q} outside Y_1..Y_{bench.n_max}")
    return list(range(q, bench.n_max + 1))


def _gamma_trunc(bench, params):
    """(gamma, trunc) of single-mode params, trunc = (q, lam) under
    truncation and None without; the block engine samples one field and
    integrates the bench's test function, so params.f must be it."""
    if params.mode != "single":
        raise ValueError("the block engine samples one field: it does not "
                         "sample two-field chaos yet")
    if not np.array_equal(params.f, bench.f):
        raise ValueError("params.f differs from the bench's test function")
    return params.gamma, (params.q, params.lam) if params.truncation else None


def _block_densities(bench, draw, gammas, keys, trunc):
    """densities(z, partner=False) -> [cells of z], and then the cells of
    its antithetic partner -z with partner set.

    cells[g][k] = (density, overflow) for gammas[g] and (channel, eps) key
    keys[k]: chaos_density on the support rows of the block's mollified
    field, which Bench.mollify convolves once per key for all the gammas,
    with the barrier event A_{q,lam} of trunc=(q, lam) against the slab
    tops of draw.  The partner negates z's fields and its slabs on the
    support rows, which negation leaves exact: bit for bit the cells of a
    block -z, with no second block or convolution.  z is a block of draw.
    """
    k_diags = [bench.supp_tables(channel, eps)[1] for channel, eps in keys]
    f_supp = bench.f[bench.supp]
    rows = bench.supp - draw.lo

    def cells(xs, z, at):
        event = None
        if trunc is not None:
            event = barrier_below(z, at, trunc[1], draw.tops).all(axis=0)
        return [[chaos_density(gamma, x, k_diag, f_supp, event)
                 for x, k_diag in zip(xs, k_diags)] for gamma in gammas]

    def densities(z, partner=False):
        xs = bench.mollify(z.sum(axis=0), keys, draw)
        out = [cells(xs, z, rows)]
        if partner:
            out.append(cells([-x for x in xs], -z[:, rows], slice(None)))
        return out

    return densities


def _chaos_values(bench, gammas, keys, trunc, replicas, seed, workers):
    """(values, overflow flags) of one sweep of the draw of
    _chaos_levels(bench, trunc) and keys: chaos values per replica, one row
    per (gamma, key) pair, gamma-major."""
    draw = bench.draw(_chaos_levels(bench, trunc), keys)
    densities = _block_densities(bench, draw, gammas, keys, trunc)
    wgt = bench.grid.weight

    def consume(start, z):
        (cells,) = densities(z)
        shape = (len(gammas) * len(keys), z.shape[2])
        vals = np.empty(shape, dtype=complex)
        ovf = np.empty(shape, dtype=bool)
        for i, (dens, flags) in enumerate(c for row in cells for c in row):
            vals[i] = dens.sum(axis=0) * wgt
            ovf[i] = flags
        return vals, ovf

    return bench.map_blocks(seed, replicas, consume, workers, draw)


def second_moment_oracle(bench, gamma, eps, eps_prime):
    """Exact E[M_eps conj(M_eps')] for the fields bench samples.

    Sum over support rows x, y of f(x) f(y) exp(|gamma|^2 K_{eps,eps'}(x,y))
    w^2, finite because the mollified kernel is bounded.  K is
    bench.cross_table: the lattice table at the bench's level count, so the
    oracle is exact to rounding; it depends on gamma only through |gamma|^2.
    K depends on x - y = o alone, so the sum is sum_o acf_f(o) exp(|gamma|^2
    K(o)) w^2, with acf_f the autocorrelation of f on the support run, and
    np.sum takes the sum over offsets, outside BLAS.
    """
    table = bench.cross_table(eps, eps_prime)
    f_s = bench.f[bench.supp[0]:bench.supp[-1] + 1]
    acf = np.correlate(f_s, f_s, "full")
    w = bench.grid.weight
    return float(np.sum(acf * np.exp(abs(complex(gamma)) ** 2 * table))
                 * w * w)


ESTIMANDS = ("mean", "product", "distance2")


def mc_moments(bench, jobs, replicas=1000, seed=0, workers=None):
    """Seeded Monte Carlo estimates of several chaos moments from one sweep.

    Each job is (params, estimand, eps, eps_prime), read as by mc_moment
    (eps_prime is ignored by "mean").  Every replica block of Y_n_max is
    drawn once for all jobs: per block the field is summed once, convolved
    once per distinct eps, and the chaos density computed once per
    distinct (gamma, eps).  Every estimate has an exact oracle, so
    truncated params, like a bad estimand, raise ValueError before any
    block is drawn (sup_field_prob estimates the barrier event).  The
    sweep draws the rows its widest eps reads (Bench.draw), so each
    estimate equals the one its job would get alone, bit for bit, when
    the job convolves at that eps.  The oracles read the bench's support
    tables (second_moment_oracle), built once per (eps, eps') pair for
    every gamma and every sweep on the bench.  Returns one MomentEstimate
    per job, in job order.
    """
    # distinct gammas and eps, each mapped to its index
    gammas, epss = {}, {}
    for params, estimand, eps, eps_prime in jobs:
        if estimand not in ESTIMANDS:
            raise ValueError(f"unknown estimand {estimand!r}")
        gamma, trunc = _gamma_trunc(bench, params)
        if trunc is not None:
            raise ValueError("mc_moments scores untruncated moments alone, "
                             f"got the barrier (q, lam) = {trunc}")
        if estimand != "mean" and eps_prime is None:
            raise ValueError(f"estimand {estimand} needs eps_prime")
        gammas.setdefault(complex(gamma), len(gammas))
        for e in (eps,) if estimand == "mean" else (eps, eps_prime):
            epss.setdefault(float(e), len(epss))

    vals, ovf = _chaos_values(bench, list(gammas),
                              [("main", e) for e in epss], None, replicas,
                              seed, workers)

    out = []
    for params, estimand, eps, eps_prime in jobs:
        gamma = params.gamma
        row = gammas[complex(gamma)] * len(epss)
        a = row + epss[float(eps)]
        if estimand == "mean":
            out.append(moment_from_values(
                f"E[M] eps={eps}", vals[a],
                oracle=bench.f.sum() * bench.grid.weight, exclude=ovf[a]))
            continue
        b = row + epss[float(eps_prime)]
        if estimand == "product":
            name, values = "E[M Mbar']", vals[a] * np.conj(vals[b])
            orc = second_moment_oracle(bench, gamma, eps, eps_prime)
        else:
            name, values = "E|M-M'|^2", np.abs(vals[a] - vals[b]) ** 2
            aa, bb, ab = (second_moment_oracle(bench, gamma, *e) for e in (
                (eps, eps), (eps_prime, eps_prime), (eps, eps_prime)))
            orc = aa + bb - 2.0 * ab
        out.append(moment_from_values(f"{name} {eps}x{eps_prime}", values,
                                      oracle=orc, exclude=ovf[a] | ovf[b]))
    return out


def mc_moment(bench, params, estimand, eps, eps_prime=None, replicas=1000,
              seed=0, workers=None):
    """Seeded Monte Carlo estimate of one chaos moment.

    estimand: "mean" (E[M], oracle int f), "product" (E[M conj(M')], oracle
    from second_moment_oracle) or "distance2" (E|M - M'|^2, oracle by
    expanding the square), on untruncated params.  A one-job mc_moments
    sweep.
    """
    (m,) = mc_moments(bench, [(params, estimand, eps, eps_prime)],
                      replicas=replicas, seed=seed, workers=workers)
    return m


def _pair_ladder(eps_ladder):
    """The rungs of a ladder whose cells are consecutive pairs, as floats,
    strictly decreasing."""
    eps_ladder = [float(e) for e in eps_ladder]
    if len(eps_ladder) < 2:
        raise ValueError("eps_ladder needs at least 2 rungs: its cells are "
                         f"consecutive pairs, got {eps_ladder}")
    if any(a <= b for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    return eps_ladder


def _distance_ladder(name, steps, bench, params, keys, a, b, replicas, seed,
                     workers):
    """Ladder of E|M_a - M_b|^2 cells, M_a and M_b the chaos-value rows a
    and b (slices over keys) of one sweep, a replica kept where neither
    overflowed."""
    gamma, trunc = _gamma_trunc(bench, params)
    vals, ovf = _chaos_values(bench, [gamma], keys, trunc, replicas, seed,
                              workers)
    return ladder_from_values(name, steps, np.abs(vals[a] - vals[b]) ** 2,
                              ~(ovf[a] | ovf[b]))


def cauchy_ladder(bench, params, eps_ladder, replicas, seed, workers=None):
    """Coupled E|M_{eps,q} - M_{eps',q}|^2 down the ladder.

    Consecutive-pair cells from the same underlying increments; truncation
    per params (enabled outside the L2 region, with params.q, params.lam).
    """
    eps_ladder = _pair_ladder(eps_ladder)
    return _distance_ladder(
        "cauchy" + (" truncated" if params.truncation else ""),
        list(zip(eps_ladder, eps_ladder[1:])), bench, params,
        [("main", e) for e in eps_ladder], slice(None, -1), slice(1, None),
        replicas, seed, workers)


def mollifier_independence(bench, params, eps_ladder, replicas, seed,
                           workers=None):
    """Coupled E|M_eps^theta - M_eps^theta'|^2 per ladder entry.

    theta is the bench's "main" channel and theta' its "alt" channel.  Both
    convolutions act on the same partial sum; each chaos value is
    Wick-normalized by its own channel's variance table.
    """
    if "alt" not in bench.channels:
        raise ValueError("bench is missing mollifier channel 'alt'")
    eps_ladder = [float(e) for e in eps_ladder]
    n = len(eps_ladder)
    keys = [(c, e) for c in ("main", "alt") for e in eps_ladder]
    return _distance_ladder("mollifier independence", eps_ladder, bench,
                            params, keys, slice(None, n), slice(n, None),
                            replicas, seed, workers)


@dataclass(frozen=True)
class KernelEstimateReport:
    """Suprema of a kernel-gap quantity along a refinement ladder."""

    kind: str
    steps: tuple
    suprema: tuple
    ratios: tuple
    stable: bool


def kernel_estimate_check(spec, kind, grid, eps_ladder=(), n_ladder=(),
                          eps_fixed=None):
    """Empirical suprema of the kernel-estimate gaps, with stability verdict.

    kind "mollified": per eps rung, sup over grid pairs of
    |K_{eps,eps'}(x,y) - log(1/(|x-y| v eps v eps'))| for eps' in {eps, next
    rung}; eps_ladder must be nonempty and strictly decreasing.  kind
    "partial": per level rung n of a nonempty n_ladder at fixed eps, sup of
    |K_{n,eps,eps}(x,y) - min(log 1/|x-y|, log 1/eps, n)|.  K is the lattice
    table of the default Mollifier, the kernel of the sampled fields.  On a
    regular grid each gap depends on x - y alone, so each supremum runs
    over the lattice offsets of kernels.offset_table between the D_eps and
    D_eps' rows, one separation each, and no rows x rows' array is built.
    Stability = consecutive suprema within a factor 1.5.
    """
    mol = Mollifier()
    d_rows = cache(lambda eps: interior_rows(grid, eps))  # once per eps

    def table(eps, eps2, n_levels):
        """(separations, values) of the (eps, eps2) table's offsets."""
        if not 0.0 < eps2 <= eps <= 1.0:
            raise ValueError(f"need 0 < eps'={eps2} <= eps={eps} <= 1")
        return kernels.offset_table(spec, grid, d_rows(eps), d_rows(eps2),
                                    eps, eps2, mol, n_levels)[1:]

    sups = []
    if kind == "mollified":
        steps = [float(e) for e in eps_ladder]
        for a, b in zip(steps, steps[1:]):
            if not b < a:
                raise ValueError(f"eps_ladder must be strictly decreasing: "
                                 f"need 0 < eps'={b} < eps={a}")
        for i, eps in enumerate(steps):
            gaps = []
            for e2 in [eps, *steps[i + 1:i + 2]]:
                seps, vals = table(eps, e2, kernels.exact_level(spec, e2))
                vals = vals + np.log(np.maximum(np.abs(seps), eps))
                gaps.append(float(np.abs(vals).max()))
            sups.append(max(gaps))
    elif kind == "partial":
        if eps_fixed is None:
            raise ValueError("kind 'partial' needs eps_fixed")
        steps = [int(n) for n in n_ladder]
        log_r = None  # every rung has the same offsets: -log r once
        for n in steps:
            seps, vals = table(eps_fixed, eps_fixed, n)
            if log_r is None:
                with np.errstate(divide="ignore"):  # -log 0 = inf
                    log_r = -np.log(np.abs(seps))
            vals = vals - np.minimum(log_r, min(-math.log(eps_fixed), n))
            sups.append(float(np.abs(vals).max()))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if not steps:
        raise ValueError(f"kind {kind!r} needs a nonempty ladder")
    ratios = [b / a for a, b in zip(sups, sups[1:])]
    stable = all(q <= 1.5 for q in ratios)
    return KernelEstimateReport(kind=kind, steps=tuple(steps),
                                suprema=tuple(sups), ratios=tuple(ratios),
                                stable=stable)


@dataclass(frozen=True)
class TailBoundReport:
    """Exact Gaussian tails against the corrected two-sided bound."""

    rows: tuple            # (u / sigma, exact, bound, holds)
    all_hold: bool
    literal_exact: float   # exact tail at u / sigma = 3
    literal_bound: float   # the uncorrected bound 2 exp(-u^2/sigma^2) there
    literal_violated: bool


def tail_bound_check(u_over_sigma=(0, 1, 2, 3, 4, 5)):
    """Tabulate the upper Gaussian tail against 2 exp(-u^2 / (2 sigma^2)).

    The exact tail is (1/sqrt(2 pi) sigma) int_u^inf e^{-x^2/(2 sigma^2)} dx
    = erfc(k / sqrt 2) / 2 and the bound is 2 exp(-k^2 / 2), so both depend
    on k = u / sigma alone.  With the exponent u^2/(2 sigma^2) the bound
    holds everywhere; with the uncorrected exponent u^2/sigma^2 it fails at
    k = 3, where the exact tail 1.35e-3 exceeds 2 e^{-9} = 2.47e-4.  Both
    facts are recorded.  Both columns are finite at every finite k >= 0.
    """
    rows = []
    for k in u_over_sigma:
        k = float(k)
        exact = 0.5 * math.erfc(k / math.sqrt(2.0))
        bound = 2.0 * math.exp(-k * k / 2.0)
        rows.append((k, exact, bound, exact <= bound))
    lit_exact = 0.5 * math.erfc(3.0 / math.sqrt(2.0))
    lit_bound = 2.0 * math.exp(-9.0)
    return TailBoundReport(rows=tuple(rows),
                           all_hold=all(row[3] for row in rows),
                           literal_exact=lit_exact, literal_bound=lit_bound,
                           literal_violated=lit_exact > lit_bound)


@dataclass(frozen=True)
class SupFieldReport:
    """Barrier exceedance and global-event probabilities with trend fits."""

    lam: float
    ks: tuple
    k_probs: tuple          # MomentEstimate per k
    slope: float
    slope_se: float
    decay_ok: bool          # slope + 2 SE < 0 over the nonzero cells
    qs: tuple
    q_probs: tuple          # MomentEstimate per q
    q_increasing: bool
    q_final: float


def _ls_fit(xs, ys):
    """Least-squares slope with its SE, in closed form: slope = Sxy / Sxx and
    SE = sqrt(RSS / (n - 2) / Sxx); NaN without two distinct xs (the slope)
    or three points (the SE)."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n = xs.size
    if n < 2 or xs.min() == xs.max():
        return float("nan"), float("nan")
    dx, dy = xs - xs.mean(), ys - ys.mean()
    sxx = float(np.sum(dx * dx))
    slope = float(np.sum(dx * dy)) / sxx
    rss = float(np.sum((dy - slope * dx) ** 2))
    return slope, math.sqrt(rss / (n - 2) / sxx) if n > 2 else float("nan")


def sup_field_prob(bench, lam, ks, qs, replicas, seed, workers=None):
    """P(sup over support of Y_k > lam k) per k, and P[global event] per q.

    Events are evaluated on the shared replica set, so the q-ladder of
    global-event probabilities is exactly monotone samplewise.  Requires
    lam > sqrt(2d) (the barrier regime where the decay argument applies).
    A block holds Y_k for each k and Y_q..Y_n_max from the smallest q, on
    the rows of supp(f).
    """
    if lam <= math.sqrt(2.0 * bench.spec.d):
        raise ValueError(f"lam={lam} must exceed sqrt(2d)")
    ks = [int(k) for k in ks]
    qs = [int(q) for q in qs]
    draw = bench.draw([*ks, *range(min(qs), bench.n_max + 1)])
    k_slabs = [draw.slab(k) for k in ks]
    q_slabs = [draw.slab(q) for q in qs]
    rows = bench.supp - draw.lo

    def consume(start, z):
        below = barrier_below(z, rows, lam, draw.tops)
        exceed = np.stack([~below[i].all(axis=0) for i in k_slabs]).astype(float)
        ok_all = np.stack([below[i:].all(axis=(0, 1))
                           for i in q_slabs]).astype(float)
        return exceed, ok_all

    exceed, ok_all = bench.map_blocks(seed, replicas, consume, workers, draw)
    k_probs = [moment_from_values(f"P[sup Y_{k} > {lam}k]", exceed[i])
               for i, k in enumerate(ks)]
    q_probs = [moment_from_values(f"P[event q={q}]", ok_all[i])
               for i, q in enumerate(qs)]
    counts = exceed.sum(axis=1)
    live = counts > 0
    xs = np.asarray(ks, dtype=float)[live]
    ys = np.log(np.asarray([p.estimate.real for p in k_probs])[live])
    slope, slope_se = _ls_fit(xs, ys)
    decay_ok = bool(live.sum() >= 3 and slope + 2.0 * slope_se < 0.0)
    q_vals = [p.estimate.real for p in q_probs]
    q_increasing = all(b >= a for a, b in zip(q_vals, q_vals[1:]))
    return SupFieldReport(lam=float(lam), ks=tuple(ks), k_probs=tuple(k_probs),
                          slope=slope, slope_se=slope_se, decay_ok=decay_ok,
                          qs=tuple(qs), q_probs=tuple(q_probs),
                          q_increasing=bool(q_increasing),
                          q_final=float(q_vals[-1]) if q_vals else float("nan"))


def fit_abscissae(separations, eps):
    """log(max(s, eps)) per separation s: the abscissae of the tilted
    exponent fit.  ValueError when they take one value, where no slope
    can be fitted."""
    xs = np.log(np.maximum(np.asarray(separations, dtype=float), eps))
    if xs.min() == xs.max():
        raise ValueError("the exponent fit needs two distinct log(max(s, "
                         f"eps)): separations {list(separations)} at "
                         f"eps={eps} give one")
    return xs


@dataclass(frozen=True)
class TiltedEventReport:
    """Tilted barrier-event probabilities across a separation ladder."""

    separations: tuple
    estimates: tuple        # MomentEstimate per separation
    slope: float
    slope_se: float
    exponent_target: float  # (2 alpha - lam)^2 / 2
    one_sided_ok: bool      # slope >= target - 0.3
    embedding_min_ratio: tuple = ()  # per separation, per group
    level_groups: tuple = ()     # (first, last) per group


def tilted_event_prob(spec, separations, eps, q, lam, alpha, n_max,
                      replicas, seed, workers=None):
    """P-tilde[A_q(x, y)] under the two-point Cameron-Martin tilt.

    For each separation s the centred field is drawn at x = 1/2 - s/2,
    y = 1/2 + s/2, and the consume adds the alpha-tilt toward both points,
    its levels' tilt_shift_rows summed per group, before counting {Y_k(x)
    <= k lam and Y_k(y) <= k lam for all k in q..n_max}, drawing only those
    partial sums: each group's pair is a 2-point torus.
    The log-probability is then regressed on log(s v eps) (fit_abscissae);
    the decay exponent should dominate (2 alpha - lam)^2 / 2 - 0.3 one-sidedly.
    """
    if len(separations) < 4:
        raise ValueError("exponent fits need at least 4 separations")
    xs = fit_abscissae(separations, eps)
    if not q >= 1 or q > n_max:
        raise ValueError(f"q={q} outside 1..{n_max}")
    if lam <= math.sqrt(2.0 * spec.d):
        raise PhaseError(f"lam={lam} must exceed sqrt(2d)")
    tops = range(q, n_max + 1)

    estimates, ratios = [], []
    for si, s in enumerate(separations):
        x, y = 0.5 - 0.5 * s, 0.5 + 0.5 * s
        grid2 = Grid.from_points(np.array([[x], [y]]), spec.box)
        bench = Bench(spec, grid2, n_max)
        means = np.add.reduceat(tilt_shift_rows(
            spec, grid2, TiltShift(x=x, y=y, eps=eps, alpha=alpha), n_max,
            bench.channels["main"]), [0, *tops[1:]], axis=0)[:, :, None]

        def event(start, z):
            z += means
            below = barrier_below(z, slice(None), lam, tops)
            return (below.all(axis=(0, 1)).astype(float),)

        (ind,) = bench.map_blocks(seed + si, replicas, event, workers,
                                  bench.draw(tops))
        estimates.append(moment_from_values(f"P~[A_{q}] sep={s}", ind))
        ratios.append(tuple(bench.safety_net["embedding_min_ratio"]))
    probs = np.asarray([max(e.estimate.real, 0.5 / replicas) for e in estimates])
    slope, slope_se = _ls_fit(xs, np.log(probs))
    target = 0.5 * (2.0 * alpha - lam) ** 2
    return TiltedEventReport(separations=tuple(float(s) for s in separations),
                             estimates=tuple(estimates), slope=slope,
                             slope_se=slope_se, exponent_target=target,
                             one_sided_ok=bool(slope >= target - 0.3),
                             embedding_min_ratio=tuple(ratios),
                             level_groups=tuple(map(
                                 tuple, bench.safety_net["level_groups"])))


def field_stats(bench, ns, n_probes, eps, eps_prime, replicas, seed,
                workers=None):
    """Covariance-fidelity estimates against exact kernel oracles.

    Var(Y_n(x)) at a center point for each n (oracle Q_0 + n), plus
    Cov(X_eps(x), X_eps'(y)) on n_probes seeded random support pairs
    (oracle: the lattice cross table).  A block holds Y_n for each n and
    Y_n_max.
    """
    rng = np.random.default_rng([seed, 424242])
    cross = bench.cross_table(eps, eps_prime)
    s = bench.supp.size
    probes = np.stack([rng.integers(0, s, n_probes),
                       rng.integers(0, s, n_probes)])
    mid = s // 2
    keys = [("main", eps), ("main", eps_prime)]
    draw = bench.draw(ns, keys)
    slabs = [draw.slab(n) for n in ns]
    rows = bench.supp - draw.lo

    def consume(start, z):
        var_rows = np.cumsum(z[:, rows[mid], :], axis=0)[slabs] ** 2
        xa, xb = bench.mollify(z.sum(axis=0), keys, draw)
        return var_rows, xa[probes[0]] * xb[probes[1]]

    var_rows, prods = bench.map_blocks(seed, replicas, consume, workers, draw)
    out = []
    for i, n in enumerate(ns):
        oracle = bench.spec.q0 + n
        out.append(moment_from_values(f"Var(Y_{n})", var_rows[i], oracle=oracle))
    offsets = (bench.supp[probes[0]] - bench.supp[probes[1]]
               + bench.supp[-1] - bench.supp[0])
    for j in range(n_probes):
        oracle = cross[offsets[j]]
        out.append(moment_from_values(f"Cov(X,X') probe {j}", prods[j],
                                      oracle=oracle))
    return out


def sobolev_ladder(bench, params, u, eps_ladder, replicas, seed,
                   workers=None):
    """H^{-u} distance between consecutive chaos densities, per replica.

    The density at level eps is the Wick integrand times the test function
    (times the barrier indicator when truncation is on), placed on the full
    periodized grid; consecutive-pair squared distances (sobolev_diag)
    feed the usual ladder machinery.  A replica's value is the mean of its
    distances at z and at its antithetic partner -z (_block_densities):
    the two centred draws are equal in law, so the mean keeps the cell's
    expectation and lowers its variance, and a replica is kept only when
    neither draw overflowed.
    """
    grid = bench.grid
    if u <= 0.5:
        raise ValueError(f"u={u} must exceed d/2 = 0.5")
    eps_ladder = _pair_ladder(eps_ladder)
    gamma, trunc = _gamma_trunc(bench, params)
    keys = [("main", e) for e in eps_ladder]
    draw = bench.draw(_chaos_levels(bench, trunc), keys)
    densities = _block_densities(bench, draw, [gamma], keys, trunc)

    def consume(start, z):
        out = np.zeros((len(eps_ladder) - 1, z.shape[2]))
        kout = np.ones((len(eps_ladder) - 1, z.shape[2]), dtype=bool)
        diff = np.zeros((grid.n, z.shape[2]), dtype=complex)
        for (row,) in densities(z, partner=True):
            for i, ((da, oa), (db, ob)) in enumerate(zip(row, row[1:])):
                diff[bench.supp] = da - db
                out[i] += 0.5 * sobolev_diag(diff, grid, u)
                kout[i] &= ~(oa | ob)
        return out, kout

    d2, keep = bench.map_blocks(seed, replicas, consume, workers, draw)
    pairs = list(zip(eps_ladder, eps_ladder[1:]))
    return ladder_from_values(f"sobolev u={u}", pairs, d2, keep)
