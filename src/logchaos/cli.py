"""Config-driven experiment runner.

One experiment per run directory: manifest.json (config, resolved
parameters, code version, numeric environment, output hashes), one CSV per
table and verdicts.json with the pass/fail gates, and nothing else.  Replays
re-execute a manifest's config and compare CSV bytes; the fixed-order
block reductions make those bytes independent of the worker count.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, kernels, phase, verify
from .chaos import ChaosParams, bump_function, q0_for
from .grids import Grid
from .kernels import KernelSpec
from .mollifier import Mollifier, ResolutionError, interior_rows
from .sampler import NumericError

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

DEFAULT_LADDER = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7]

# products one kernel-check run may take, summed over the tables it builds
# (kernels.table_work: offsets x stencil-pair lags, one np.correlate per
# table).  Up to v0.20.0 a table was admitted up to 9,765 offsets, and a
# table has at most N + 1 lags, so 9,765 x (2^17 + 1) admits every such
# table.  On a 2-vCPU Xeon the default ladders at grid_n 16384 (1.1e9
# products) take 0.21 s, and grid_n 2^17 with eps_ladder [0.245] takes
# 0.08 s for its 6.7e8 products, after 0.61 s building the bins of its
# 64,183-tap stencils: the bins, quadratic in the stencil width and built
# once per eps pair, are not counted
TABLE_WORK_BOUND = 9765 * (2 ** 17 + 1)

# points one phase scan may label, 25 times the 200 x 200 default.  On a
# 2-vCPU Xeon, phase.classify takes 2.3 us a point (10^5 points in 0.23 s),
# and a run of 10^6 points takes 8 s, peaks at 300 MB of RSS and writes a
# 68 MB CSV
SCAN_POINT_BOUND = 10 ** 6

# size bounds, each checked at plan time.  LEVEL_BOUND: kernels.level_sum
# evaluates exp(t0 + n + 1), finite up to n = 708 at the runs' t0 = 0 (a
# field-stats var_levels entry 709 overflows it).  GRID_POINT_BOUND, on
# grid_n before Grid.regular allocates: it admits exact ladders at N = 2^17,
# where a 40-replica run of a sampled kind takes 1-6 s and peaks at 120-430
# MB of RSS (sup-prob the most) on a 2-vCPU Xeon.  REPLICA_BOUND: a run
# holds every output column for every replica; a field-stats run at
# PROBE_BOUND probes (5 times the default 20) holds 1.6 KB a replica there
# (10^5 replicas: 2.0 s and 199 MB, against 56 MB at 10^4)
LEVEL_BOUND = 708
GRID_POINT_BOUND = 2 ** 17
REPLICA_BOUND = 10 ** 6
PROBE_BOUND = 100


class ConfigError(ValueError):
    """Validation failure; the message names the violated precondition."""


def _finite(v):
    """conv for _list: a finite number, as _num reads a scalar."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"not finite: {v!r}")
    return x


def _num(cfg, key, default):
    v = cfg.get(key, default)
    try:
        return _finite(v)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a finite number, got {v!r}")


def _int(cfg, key, default, lo=None, hi=None):
    v = cfg.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{key} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{key} must be <= {hi}, got {v}")
    return v


def _list(cfg, key, default, conv=_finite):
    """A list entry of the config with every item read by conv."""
    v = cfg.get(key, default)
    if not isinstance(v, list):
        raise ConfigError(f"{key} must be a list, got {v!r}")
    try:
        return [conv(x) for x in v]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} has an invalid entry: {v!r}")


def _integer(v):
    """conv for _list: an integer entry, as _int reads a scalar."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"not an integer: {v!r}")
    return v


def _levels(cfg, key, default, lo):
    """A nonempty list of integer levels, each in lo..LEVEL_BOUND."""
    ns = _list(cfg, key, default, _integer)
    if not ns or min(ns) < lo or max(ns) > LEVEL_BOUND:
        raise ConfigError(f"{key} must be a nonempty list of levels in "
                          f"{lo}..{LEVEL_BOUND}, got {ns}")
    return ns


def _replicas(cfg, default):
    """Replica budget of a sampled kind; every estimate needs two replicas."""
    return _int(cfg, "replicas", default, lo=2, hi=REPLICA_BOUND)


def _dim(cfg, allowed=(1,)):
    """Dimension d: 1, or one of allowed (phase-scan's formula takes 2)."""
    d = _int(cfg, "d", 1)
    if d not in allowed:
        raise ConfigError(f"d={d} unsupported, this kind needs d in "
                          f"{list(allowed)}")
    return d


def _gamma_value(raw):
    try:
        if isinstance(raw, (int, float)):
            return complex(raw)
        if isinstance(raw, (list, tuple)) and len(raw) == 2:
            return complex(float(raw[0]), float(raw[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"gamma must be a number or [re, im] pair, got {raw!r}")


def _eps_ladder(cfg):
    ladder = _list(cfg, "eps_ladder", DEFAULT_LADDER)
    if not ladder or any(not 0.0 < e <= 1.0 for e in ladder):
        raise ConfigError("eps_ladder entries must lie in (0, 1]")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("eps_ladder must be strictly decreasing")
    return ladder


def run_id_of(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _grid(cfg, spec, default_n, used=()):
    """Grid of grid_n points; for each (key, eps) in used it resolves the
    mollifier (h <= eps/4) and has a point in D_eps."""
    # checked before Grid.regular allocates the points
    n = _int(cfg, "grid_n", default_n, lo=1, hi=GRID_POINT_BOUND)
    grid = Grid.regular(spec.box, n)
    for key, eps in used:
        if grid.h > eps / 4.0:
            raise ConfigError(
                f"mollifier resolution violated: grid spacing {grid.h} > "
                f"eps/4 = {eps / 4.0} at {key}={eps} (raise grid_n)")
        if interior_rows(grid, eps).size == 0:
            raise ConfigError(f"{key}={eps} leaves no grid point in D_eps")
    return grid


def _test_function(cfg, grid, convolved, default_radius):
    """Bump test function f, nonzero on the grid and supported in D_eps
    (the rows the convolution weights cover) for each convolved (key, eps)."""
    fc = cfg.get("f", {})
    if not isinstance(fc, dict):
        raise ConfigError(f"f must be an object with center and radius, "
                          f"got {fc!r}")
    center = _num(fc, "center", 0.5)
    radius = _num(fc, "radius", default_radius)
    if radius <= 0.0:
        raise ConfigError(f"f radius must be > 0, got {radius}")
    f = bump_function(grid, center=center, radius=radius)
    supp, where = np.flatnonzero(f), f"f (center {center}, radius {radius})"
    if supp.size == 0:
        raise ConfigError(f"{where} is zero on every grid point")
    for key, eps in convolved:
        if not np.isin(supp, interior_rows(grid, eps)).all():
            raise ConfigError(f"{where} leaks outside D_eps at {key}={eps}")
    return f, center, radius


def _resolve_common(cfg, used, default_n=2048, default_radius=0.05,
                    convolved=None):
    """(spec, grid, f, resolved) of a sampled kind: the least eps in used
    sets the grid resolution and the level count, and f is checked at the
    convolved (key, eps) pairs (default: used)."""
    spec = KernelSpec(d=_dim(cfg))
    grid = _grid(cfg, spec, default_n, used)
    f, center, radius = _test_function(cfg, grid, used if convolved is None
                                       else convolved, default_radius)
    level = kernels.exact_level(spec, min(eps for _, eps in used))
    n_max = _int(cfg, "n_max", level + 1, lo=level, hi=LEVEL_BOUND)
    return spec, grid, f, {"d": spec.d, "grid_n": grid.n,
                           "f_center": center, "f_radius": radius,
                           "q_floor": q0_for(f, grid), "n_max": n_max,
                           "grid_digest": grid.digest()}


def _phase(d, gamma, allowed, key="gamma"):
    """Phase label of gamma = alpha + i beta, which must be one of allowed."""
    label = phase.classify(d, gamma.real, gamma.imag)
    if label not in allowed:
        raise ConfigError(f"phase precondition violated: {key}={gamma} is "
                          f"{label}, need {' or '.join(allowed)}")
    return label


def _lam(cfg, d, n_max, default="auto", gamma=None):
    """Barrier slope lam > sqrt(2d) whose barrier lam * n_max at the deepest
    level is finite; "auto" picks phase.pick_lambda at gamma."""
    if gamma is not None and cfg.get("lam", default) == "auto":
        return phase.pick_lambda(d, gamma.real, gamma.imag)
    lam = _num(cfg, "lam", default)
    if lam <= math.sqrt(2.0 * d):
        raise ConfigError(
            f"barrier slope precondition violated: lam={lam} <= sqrt(2d)")
    if not math.isfinite(lam * n_max):
        raise ConfigError(f"lam={lam} is too large: the barrier lam * n_max "
                          f"at n_max={n_max} overflows")
    return lam


def _q(cfg, n_max):
    """Truncation level q of the barrier event, in 1..n_max."""
    q = _int(cfg, "q", 2)
    if not 1 <= q <= n_max:
        raise ConfigError(f"q={q} outside 1..n_max={n_max}")
    return q


def _moment_rows(estimates, run_id):
    rows = [[m.estimator, m.replicas,
             repr(m.estimate.real), repr(m.estimate.imag),
             repr(m.se_re), repr(m.se_im),
             "" if m.oracle is None else repr(m.oracle.real),
             "" if m.oracle is None else repr(m.oracle.imag),
             "" if m.z_re is None else repr(m.z_re),
             "" if m.z_im is None else repr(m.z_im),
             m.excluded, run_id] for m in estimates]
    return (["estimator", "replicas", "estimate_re", "estimate_im", "se_re",
             "se_im", "oracle_re", "oracle_im", "z_re", "z_im", "excluded",
             "run_id"], rows)


def _z_outputs(estimates, stem, run_id):
    """(tables, verdicts) of oracle-scored estimates: |z| <= 4 each."""
    return ({f"{stem}.csv": _moment_rows(estimates, run_id)},
            {"all_z_within_4se": all(m.max_z <= 4.0 for m in estimates
                                     if m.max_z is not None)})


def _scan_axis(cfg, key):
    """A phase-scan axis (lo, hi, count): finite numbers with a finite span
    hi - lo (np.linspace(-1e308, 1e308, 3) is [nan, inf, 1e308], which
    would write NaN into the CSV), integer count >= 1."""
    v = cfg.get(key, [-2.5, 2.5, 200])
    try:
        if not isinstance(v, list) or len(v) != 3 or _integer(v[2]) < 1:
            raise ValueError
        lo, hi = _finite(v[0]), _finite(v[1])
        _finite(hi - lo)
        return lo, hi, v[2]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be [lo, hi, count] with finite numbers "
                          f"lo, hi, a finite span hi - lo and an integer "
                          f"count >= 1, got {v!r}")


def plan_phase_scan(cfg):
    d = _dim(cfg, allowed=(1, 2))
    axes, points = [], 1
    for key in ("alpha_range", "beta_range"):
        lo, hi, count = _scan_axis(cfg, key)
        points *= count
        # checked before np.linspace allocates the axis
        if points > SCAN_POINT_BOUND:
            raise ConfigError(f"{key} count {count} takes the scan to "
                              f"{points} points, over the bound "
                              f"{SCAN_POINT_BOUND:.0e}")
        axes.append(np.linspace(lo, hi, count))
    alphas, betas = axes

    def run(workers, run_id):
        labels = phase.scan(d, alphas, betas)
        # a generator, so that write_csv streams the rows
        rows = ([repr(float(a)), repr(float(b)), labels[i, j], run_id]
                for i, a in enumerate(alphas) for j, b in enumerate(betas))
        known = set(phase.LABELS)
        verdicts = {"all_points_labeled": all(lb in known
                                              for lb in labels.flat)}
        tables = {"phase_scan.csv": (["alpha", "beta", "label", "run_id"],
                                     rows)}
        return tables, verdicts, {}

    return {"d": d, "alphas": len(alphas), "betas": len(betas)}, run


def plan_kernel_check(cfg):
    spec = KernelSpec(d=_dim(cfg))
    which = cfg.get("check", "both")
    if which not in ("mollified", "partial", "both"):
        raise ConfigError(f"check must be mollified|partial|both, got {which!r}")
    ladder = _eps_ladder(cfg)
    n_ladder = _levels(cfg, "n_ladder", [4, 6, 8, 10, 12], 1)
    eps_fixed = _num(cfg, "eps_fixed", 2.0 ** -4)
    if not 0.0 < eps_fixed <= 1.0:
        raise ConfigError(f"eps_fixed must lie in (0, 1], got {eps_fixed}")
    kinds = ["mollified", "partial"] if which == "both" else [which]
    used = [("eps_ladder", e) for e in ladder] if "mollified" in kinds else []
    if "partial" in kinds:
        used.append(("eps_fixed", eps_fixed))
    grid = _grid(cfg, spec, 512, used)
    # the tables the run builds: (eps, eps) and (eps, next rung) per rung,
    # and one (eps_fixed, eps_fixed) per level rung
    pairs = []
    if "mollified" in kinds:
        pairs += [(e, e2) for i, e in enumerate(ladder)
                  for e2 in [e, *ladder[i + 1:i + 2]]]
    if "partial" in kinds:
        pairs += [(eps_fixed, eps_fixed)] * len(n_ladder)
    work = sum(kernels.table_work(grid, e, e2) for e, e2 in pairs)
    if work > TABLE_WORK_BOUND:
        raise ConfigError(
            f"kernel-check at d={spec.d}, grid_n={grid.n} needs {work:.3g} "
            f"kernel-table products, over the bound {TABLE_WORK_BOUND:.3g}")

    def run(workers, run_id):
        rows, verdicts = [], {}
        for kind in kinds:
            rep = verify.kernel_estimate_check(
                spec, kind, grid, eps_ladder=ladder, n_ladder=n_ladder,
                eps_fixed=eps_fixed)
            for i, step in enumerate(rep.steps):
                rows.append([rep.kind, repr(float(step)), repr(rep.suprema[i]),
                             "" if i == 0 else repr(rep.ratios[i - 1]),
                             run_id])
            verdicts[f"{rep.kind}_stable"] = rep.stable
        tables = {"kernel_check.csv": (["kind", "step", "supremum",
                                        "ratio_prev", "run_id"], rows)}
        return tables, verdicts, {}

    return {"d": spec.d, "grid_n": grid.n, "eps_ladder": ladder,
            "n_ladder": n_ladder, "eps_fixed": eps_fixed,
            "grid_digest": grid.digest()}, run


def plan_field_stats(cfg):
    eps = _num(cfg, "eps", 2.0 ** -4)
    eps_prime = _num(cfg, "eps_prime", 2.0 ** -5)
    spec, grid, f, resolved = _resolve_common(
        cfg, [("eps", eps), ("eps_prime", eps_prime)], default_n=128,
        default_radius=0.2)
    ns = _levels(cfg, "var_levels", [2, 5, 8], 0)
    n_max = max(resolved["n_max"], max(ns))
    probes = _int(cfg, "probes", 20, lo=1, hi=PROBE_BOUND)
    replicas = _replicas(cfg, 10000)
    seed = _int(cfg, "seed", 0, lo=0)
    resolved.update({"eps": eps, "eps_prime": eps_prime, "var_levels": ns,
                     "probes": probes, "replicas": replicas, "seed": seed,
                     "n_max": n_max})

    def run(workers, run_id):
        bench = verify.Bench(spec, grid, n_max, f=f)
        ests = verify.field_stats(bench, ns, probes, eps, eps_prime, replicas,
                                  seed, workers=workers)
        return (*_z_outputs(ests, "field_stats", run_id),
                {**bench.safety_net, "excluded": [m.excluded for m in ests]})

    return resolved, run


def plan_moment_check(cfg):
    eps = _num(cfg, "eps", 2.0 ** -5)
    eps_prime = _num(cfg, "eps_prime", eps)
    d = _dim(cfg)
    estimands = _list(cfg, "estimands", ["mean"], conv=lambda e: e)
    for e in estimands:
        if e not in ("mean", "product", "distance2"):
            raise ConfigError(f"unknown estimand {e!r}")
    gammas = _list(cfg, "gammas", [0.5, 0.8], _gamma_value)
    if not estimands or not gammas:
        raise ConfigError("moment-check needs nonempty gammas and estimands, "
                          f"got gammas={gammas}, estimands={estimands}")
    for g in gammas:
        _phase(d, g, (phase.L2, phase.SUBCRITICAL))
    pairs = bool(set(estimands) - {"mean"})
    if eps_prime > eps and pairs:
        raise ConfigError(f"product and distance2 need eps_prime <= eps, got "
                          f"eps={eps}, eps_prime={eps_prime}")
    used = [("eps", eps), ("eps_prime", eps_prime)]
    spec, grid, f, resolved = _resolve_common(
        cfg, used, default_n=128, default_radius=0.2,
        convolved=used if pairs else used[:1])
    replicas = _replicas(cfg, 10000)
    seed = _int(cfg, "seed", 0, lo=0)
    resolved.update({"eps": eps, "eps_prime": eps_prime,
                     "gammas": [[g.real, g.imag] for g in gammas],
                     "estimands": estimands, "replicas": replicas,
                     "seed": seed})

    def run(workers, run_id):
        bench = verify.Bench(spec, grid, resolved["n_max"], f=f)
        jobs = [(ChaosParams(f=f, gamma=g), est, eps, eps_prime)
                for g in gammas for est in estimands]
        ests = verify.mc_moments(bench, jobs, replicas=replicas, seed=seed,
                                 workers=workers)
        ests = [replace(m, estimator=f"{m.estimator} gamma={job[0].gamma}")
                for job, m in zip(jobs, ests)]
        return (*_z_outputs(ests, "moments", run_id),
                {**bench.safety_net, "excluded": [m.excluded for m in ests]})

    return resolved, run


def _profiles(cfg, spec):
    profiles = _list(cfg, "profiles", ["bump", "quartic"],
                     lambda p: Mollifier(profile=p).profile)
    if len(profiles) != 2:
        raise ConfigError(
            f"profiles must name exactly two mollifiers, got {profiles}")
    return {"profiles": profiles}, verify.mollifier_independence


def _sobolev_index(cfg, spec):
    u = _num(cfg, "u", 0.75)
    if u <= spec.d / 2.0:
        raise ConfigError(f"Sobolev index precondition violated: u={u} <= d/2")
    return {"u": u}, partial(verify.sobolev_ladder, u=u)


# What the ladder kinds do not share: default gamma and replicas, a reader of
# the kind's own key -> (resolved entries, verify call), and file stem.
LADDERS = {
    "cauchy": (0.8, 2000, lambda cfg, spec: ({}, verify.cauchy_ladder),
               "cauchy_ladder"),
    "mollifier-independence": (0.8, 2000, _profiles,
                               "mollifier_independence"),
    "sobolev": ([1.1, 0.25], 500, _sobolev_index, "sobolev_ladder"),
}


def plan_ladder(cfg):
    default_gamma, default_replicas, own, stem = LADDERS[cfg["kind"]]
    ladder = _eps_ladder(cfg)
    # cauchy and sobolev cells are consecutive pairs of rungs
    if cfg["kind"] != "mollifier-independence" and len(ladder) < 2:
        raise ConfigError(f"{cfg['kind']} cells are consecutive pairs: "
                          f"eps_ladder needs at least 2 rungs, got {ladder}")
    spec, grid, f, resolved = _resolve_common(
        cfg, [("eps_ladder", e) for e in ladder])
    gamma = _gamma_value(cfg.get("gamma", default_gamma))
    label = _phase(spec.d, gamma, (phase.L2, phase.SUBCRITICAL))
    # the barrier truncates outside the L2 phase only
    trunc = label == phase.SUBCRITICAL
    q = _q(cfg, resolved["n_max"]) if trunc else 0
    lam = _lam(cfg, spec.d, resolved["n_max"], gamma=gamma) if trunc else 0.0
    extra, cells = own(cfg, spec)
    replicas = _replicas(cfg, default_replicas)
    if replicas < verify.MOM_BLOCKS:
        raise ConfigError(
            f"replicas={replicas} below the {verify.MOM_BLOCKS} "
            "median-of-means blocks of a ladder cell")
    seed = _int(cfg, "seed", 0, lo=0)
    params = ChaosParams(f=f, gamma=gamma, truncation=trunc, q=q, lam=lam)
    resolved.update(extra, gamma=[gamma.real, gamma.imag], phase=label,
                    truncation=trunc, q=q, lam=lam, eps_ladder=ladder,
                    replicas=replicas, seed=seed)

    def run(workers, run_id):
        mols = [Mollifier(profile=p)
                for p in extra.get("profiles", ["bump"])]
        bench = verify.Bench(spec, grid, resolved["n_max"], f=f, mol=mols[0])
        for mol in mols[1:]:
            bench.add_channel("alt", mol)
        report = cells(bench, params, eps_ladder=ladder, replicas=replicas,
                       seed=seed, workers=workers)
        rows = []
        for i, step in enumerate(report.steps):
            hi, lo = step if isinstance(step, tuple) else (step, step)
            rows.append([repr(float(hi)), repr(float(lo)),
                         repr(report.values[i]), repr(report.ses[i]),
                         "" if i == 0 else repr(report.diffs[i - 1]),
                         "" if i == 0 else repr(report.diff_ses[i - 1]),
                         run_id])
        tables = {f"{stem}.csv": (["eps_hi", "eps_lo", "value", "se",
                                   "diff_prev", "diff_se", "run_id"], rows)}
        # the per-cell safety nets, outside the hashed CSV
        return (tables, {"trend_decreasing": report.verdict},
                {**bench.safety_net, "excluded": list(report.cell_excluded),
                 "empty_blocks": list(report.empty_blocks)})

    return resolved, run


def plan_tail_check(cfg):
    ratios = _list(cfg, "u_over_sigma", [0, 1, 2, 3, 4, 5])
    if not ratios or min(ratios) < 0:
        raise ConfigError("u_over_sigma must be a nonempty list of numbers "
                          f">= 0, got {ratios}")

    def run(workers, run_id):
        report = verify.tail_bound_check(ratios)
        rows = [[repr(k), repr(exact), repr(bound), holds, run_id]
                for k, exact, bound, holds in report.rows]
        rows.append(["literal_at_3", repr(report.literal_exact),
                     repr(report.literal_bound), not report.literal_violated,
                     run_id])
        verdicts = {"corrected_bound_holds": report.all_hold,
                    "literal_bound_violated": report.literal_violated}
        tables = {"tail_bound.csv": (["u_over_sigma", "exact_tail", "bound",
                                      "holds", "run_id"], rows)}
        return tables, verdicts, {}

    return {"u_over_sigma": ratios}, run


def plan_sup_prob(cfg):
    d = _dim(cfg)
    ks = _list(cfg, "ks", list(range(4, 11)), _integer)
    qs = _list(cfg, "qs", [2, 4, 6, 8], _integer)
    if not ks or not qs or min(ks + qs) < 0 or max(ks + qs) > LEVEL_BOUND:
        raise ConfigError("ks and qs must each name at least one level, "
                          f"each in 0..{LEVEL_BOUND}")
    deepest = max(ks + qs + [1])
    n_max = _int(cfg, "n_max", deepest, lo=deepest, hi=LEVEL_BOUND)
    lam = _lam(cfg, d, n_max, 1.6)
    spec = KernelSpec(d=d)
    grid = _grid(cfg, spec, 512)
    f, _, _ = _test_function(cfg, grid, [], 0.2)
    replicas = _replicas(cfg, 1000)
    seed = _int(cfg, "seed", 0, lo=0)

    def run(workers, run_id):
        bench = verify.Bench(spec, grid, n_max, f=f)
        rep = verify.sup_field_prob(bench, lam, ks, qs, replicas, seed,
                                    workers=workers)
        k_rows = [[k, repr(m.estimate.real), repr(m.se_re), run_id]
                  for k, m in zip(rep.ks, rep.k_probs)]
        q_rows = [[q, repr(m.estimate.real), repr(m.se_re), run_id]
                  for q, m in zip(rep.qs, rep.q_probs)]
        verdicts = {"exceedance_decay": rep.decay_ok,
                    "event_prob_monotone": rep.q_increasing}
        tables = {"sup_exceedance.csv": (["k", "prob", "se", "run_id"],
                                         k_rows),
                  "event_prob.csv": (["q", "prob", "se", "run_id"], q_rows)}
        return tables, verdicts, {
            "slope": rep.slope, "slope_se": rep.slope_se, **bench.safety_net}

    return {"d": d, "lam": lam, "ks": ks, "qs": qs, "n_max": n_max,
            "grid_n": grid.n, "replicas": replicas, "seed": seed,
            "grid_digest": grid.digest()}, run


def plan_tilt_check(cfg):
    d = _dim(cfg)
    gamma = complex(_num(cfg, "alpha", 1.1), _num(cfg, "beta", 0.25))
    _phase(d, gamma, (phase.SUBCRITICAL,), "alpha + i beta")
    n_max = _int(cfg, "n_max", 8, lo=1, hi=LEVEL_BOUND)
    alpha, beta = gamma.real, gamma.imag
    lam = _lam(cfg, d, n_max, gamma=gamma)
    if not math.isfinite((2.0 * alpha - lam) * (2.0 * alpha - lam)):
        raise ConfigError(f"lam={lam} is too large: the exponent target "
                          "(2 alpha - lam)^2 / 2 overflows")
    seps = _list(cfg, "separations", [math.exp(-k) for k in range(2, 6)])
    if len(seps) < 4 or min(seps) <= 0.0:
        raise ConfigError("exponent fits need at least 4 separations, "
                          f"each > 0, got {seps}")
    eps = _num(cfg, "eps", math.exp(-5))
    if not 0.0 < eps <= 1.0:
        raise ConfigError(f"eps must lie in (0, 1], got {eps}")
    try:
        verify.fit_abscissae(seps, eps)
        for s in seps:
            verify.pair_grid(s)
    except ValueError as e:
        raise ConfigError(str(e))
    q = _q(cfg, n_max)
    replicas = _replicas(cfg, 10000)
    seed = _int(cfg, "seed", 0, lo=0)

    def run(workers, run_id):
        rep = verify.tilted_event_prob(KernelSpec(d=d), seps, eps, q, lam,
                                       alpha, n_max, replicas, seed,
                                       workers=workers)
        rows = [[repr(s), repr(m.estimate.real), repr(m.se_re), run_id]
                for s, m in zip(rep.separations, rep.estimates)]
        verdicts = {"exponent_dominates_bound": rep.one_sided_ok}
        tables = {"tilted_event.csv": (["separation", "prob", "se", "run_id"],
                                       rows)}
        return tables, verdicts, {
            "slope": rep.slope, "slope_se": rep.slope_se,
            "target": rep.exponent_target,
            "embedding_min_ratio": [list(r)
                                    for r in rep.embedding_min_ratio],
            "level_groups": [list(g) for g in rep.level_groups]}

    return {"d": d, "alpha": alpha, "beta": beta, "q": q, "lam": lam,
            "separations": seps, "eps": eps, "n_max": n_max,
            "replicas": replicas, "seed": seed}, run


PLANS = {
    "phase-scan": plan_phase_scan,
    "kernel-check": plan_kernel_check,
    "field-stats": plan_field_stats,
    "moment-check": plan_moment_check,
    "cauchy": plan_ladder,
    "mollifier-independence": plan_ladder,
    "tail-check": plan_tail_check,
    "sup-prob": plan_sup_prob,
    "tilt-check": plan_tilt_check,
    "sobolev": plan_ladder,
}


def _kind(cfg):
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in PLANS:
        raise ConfigError(f"kind must be one of {', '.join(PLANS)}; got {kind!r}")
    return kind


class _Reads(dict):
    """A config recording each key its get reads; object values (f) too."""

    def __init__(self, cfg):
        super().__init__({k: _Reads(v) if isinstance(v, dict) else v
                          for k, v in cfg.items()})
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def refuse_unread(self, path=""):
        for key, v in self.items():
            if key not in self.read:
                import difflib  # here: a module-level import adds 0.2 MB RSS
                near = difflib.get_close_matches(key, sorted(self.read), 1)
                raise ConfigError(f"key {path}{key} is not read" + "".join(
                    f"; did you mean {path}{n}?" for n in near))
            if isinstance(v, _Reads):
                v.refuse_unread(f"{path}{key}.")


def plan(cfg):
    """(resolved, run) of a config: every check its run makes before sampling.

    plan_<kind>(cfg) reads and checks the keys of the config, refuses any
    other (but kind, out and seed) and resolves its parameters without
    sampling.  run(workers, run_id) samples, never reads cfg, and returns
    (tables, verdicts, the resolved entries known only after sampling).
    """
    kind, out, _ = _kind(cfg := _Reads(cfg)), cfg.get("out"), cfg.get("seed")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    planned = PLANS[kind](cfg)
    cfg.refuse_unread()
    return planned


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, UnicodeDecodeError, integers over the digit limit
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _kind(cfg)
    return cfg


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\r\n")
        wr.writerow(header)
        wr.writerows(rows)
    return sha256_file(path)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _cpu_model():
    """The model name of /proc/cpuinfo, else what platform reports."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_core():
    """(core, threads) of the OpenBLAS numpy loaded, read through ctypes: the
    kernel family it selected for this CPU, which numpy's build string does
    not name, and its thread count; (None, None) when no such library or
    symbol is found."""
    try:
        with open("/proc/self/maps") as fh:
            maps = [line.split()[-1] for line in fh if "openblas" in line]
    except OSError:
        maps = []
    root = Path(np.__file__).parent  # wheels: numpy.libs, or .dylibs on macOS
    wheel = [*root.parent.glob("numpy.libs/*openblas*"),
             *root.glob(".dylibs/*openblas*")]
    for path in dict.fromkeys([*maps, *map(str, wheel)]):
        try:  # RTLD_NOLOAD opens only a library this process already loaded
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except (OSError, AttributeError):
            continue
        for name in ("scipy_openblas_get_{}64_", "openblas_get_{}64_",
                     "openblas_get_{}"):
            core, threads = (getattr(lib, name.format(what), None)
                             for what in ("corename", "num_threads"))
            if core is not None and threads is not None:
                core.restype = ctypes.c_char_p
                name = (core() or b"").decode(errors="replace")
                return name or None, threads()
    return None, None


def environment(workers):
    """The numeric environment of a run, for the manifest; replay compares
    CSV hashes only and never reads it."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version')}"
        # real-coefficient chaos values take numpy's dispatched real exp
        simd = config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy < 1.26 prints and returns None
        blas = simd = None
    core, threads = _blas_core()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "numpy_simd": simd,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_count": os.cpu_count(),
            "cpu": _cpu_model(),
            "blas_core": core, "blas_threads": threads,
            "workers": workers}


def safety_nets(resolved):
    """The safety nets a resolved block records, one number each: the
    smallest embedding_min_ratio (over every group, and every separation
    of tilt-check), and the total excluded replicas and empty
    median-of-means blocks.  fired names each net that changed numbers:
    an embedding eigenvalue clipped at zero (a negative ratio), replicas
    excluded or a median-of-means block left empty."""
    reduce = {"embedding_min_ratio": np.min, "excluded": np.sum,
              "empty_blocks": np.sum}
    nets = {key: how(resolved[key]).item() for key, how in reduce.items()
            if key in resolved}
    nets["fired"] = [key for key, v in nets.items()
                     if (v < 0 if key == "embedding_min_ratio" else v > 0)]
    return nets


def execute(cfg, out_dir, workers):
    """Plan, then run one config into out_dir; returns (verdicts, manifest).
    A config the plan rejects raises ConfigError before anything is written,
    and an out_dir that cannot be made raises it before sampling."""
    run_id = run_id_of(cfg)
    resolved, run = plan(cfg)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out directory {out_dir} cannot be made: {e}")
    tables, verdicts, late = run(workers, run_id)
    resolved.update(late)
    csv_hashes = {}
    for name, (header, rows) in tables.items():
        csv_hashes[name] = write_csv(out / name, header, rows)
    manifest = {
        "tool": "logchaos",
        "version": __version__,
        "run_id": run_id,
        "config": cfg,
        "resolved": resolved,
        "csv_sha256": csv_hashes,
        "environment": environment(workers),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    with open(out / "verdicts.json", "w") as fh:
        json.dump({"run_id": run_id, "verdicts": verdicts,
                   "safety_nets": safety_nets(resolved),
                   "pass": all(verdicts.values())}, fh, indent=2,
                  sort_keys=True)
    return verdicts, manifest


def cmd_run(args):
    cfg = load_config(args.config)
    out_dir = args.out or cfg.get("out") or f"runs/{cfg['kind']}"
    verdicts, _ = execute(cfg, out_dir, args.workers)
    for name, ok in verdicts.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    print(f"run directory: {out_dir}")
    return EXIT_OK if all(verdicts.values()) else EXIT_VERDICT


def cmd_validate(args):
    cfg = load_config(args.config)
    plan(cfg)
    print(f"config valid: kind={cfg['kind']}")
    return EXIT_OK


def cmd_replay(args):
    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(f"cannot read manifest: {e}")
    if (not isinstance(manifest, dict) or manifest.get("tool") != "logchaos"
            or not isinstance(manifest.get("config"), dict)):
        raise ConfigError("not a logchaos run manifest")
    if manifest.get("version") != __version__:
        print(f"refusing to replay: manifest version "
              f"{manifest.get('version')} != tool version {__version__}")
        return EXIT_VALIDATION
    cfg = manifest["config"]
    out_dir = args.out or str(Path(args.manifest).parent) + "-replay"
    _, new_manifest = execute(cfg, out_dir, args.workers)
    old_hashes = manifest.get("csv_sha256", {})
    new_hashes = new_manifest["csv_sha256"]
    mismatched = sorted(set(old_hashes) ^ set(new_hashes))
    mismatched += sorted(k for k in old_hashes
                         if k in new_hashes and old_hashes[k] != new_hashes[k])
    if manifest.get("run_id") != new_manifest["run_id"]:
        print("non-replay mode: config differs from the recorded run")
        return EXIT_VERDICT
    if mismatched:
        print("non-replay mode: CSV outputs differ: " + ", ".join(mismatched))
        return EXIT_VERDICT
    print(f"replay verified: {len(new_hashes)} CSV file(s) byte-identical")
    print(f"replay directory: {out_dir}")
    return EXIT_OK


def _default_workers():
    try:
        return verify.default_workers()
    except ValueError:
        raise ConfigError(f"{verify.ENV_WORKERS} must be an integer, got "
                          f"{os.environ.get(verify.ENV_WORKERS)!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="logchaos",
        description="chaos-measure experiment runner")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads (default: LOGCHAOS_WORKERS or 1)")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    p_rep = sub.add_parser("replay", help="re-run a manifest and compare bytes")
    p_rep.add_argument("manifest")
    p_rep.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        if args.workers is None:
            args.workers = _default_workers()
        if args.command == "run":
            return cmd_run(args)
        if args.command == "validate":
            return cmd_validate(args)
        return cmd_replay(args)
    except (ConfigError, ResolutionError, phase.PhaseError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
