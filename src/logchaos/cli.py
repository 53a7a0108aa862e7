"""Config-driven experiment runner.

One experiment per run directory: manifest.json (config, resolved
parameters, code version, output hashes), one CSV per table, one SVG per
plot, verdicts.json with the pass/fail gates.  Replays re-execute a
manifest's config and compare CSV bytes; the fixed-order block reductions
make those bytes independent of the worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, _svg, kernels, phase, verify
from .chaos import ChaosParams, bump_function, q0_for
from .grids import Grid
from .kernels import KernelSpec
from .mollifier import Mollifier, ResolutionError
from .sampler import NumericError

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

KINDS = ("phase-scan", "kernel-check", "field-stats", "moment-check",
         "cauchy", "mollifier-independence", "tail-check", "sup-prob",
         "tilt-check", "sobolev")

DEFAULT_LADDER = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7]


class ConfigError(ValueError):
    """Validation failure; the message names the violated precondition."""


def _num(cfg, key, default):
    v = cfg.get(key, default)
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {v!r}")


def _int(cfg, key, default):
    v = cfg.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return v


def _list(cfg, key, default, conv=float):
    """A list entry of the config with every item read by conv."""
    v = cfg.get(key, default)
    if not isinstance(v, list):
        raise ConfigError(f"{key} must be a list, got {v!r}")
    try:
        return [conv(x) for x in v]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} has an entry of the wrong type: {v!r}")


def _integer(v):
    """conv for _list: an integer entry, as _int reads a scalar."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"not an integer: {v!r}")
    return v


def _replicas(cfg, default):
    """Replica budget of a sampled kind; every estimate needs two replicas."""
    r = _int(cfg, "replicas", default)
    if r < 2:
        raise ConfigError(f"replicas must be >= 2, got {r}")
    return r


def _ladder_replicas(cfg, default):
    """Replica budget of a ladder kind: one replica per median-of-means block."""
    r = _replicas(cfg, default)
    if r < verify.MOM_BLOCKS:
        raise ConfigError(
            f"replicas={r} below the {verify.MOM_BLOCKS} median-of-means "
            "blocks of a ladder cell")
    return r


def _gamma_value(raw, key="gamma"):
    if isinstance(raw, (int, float)):
        return complex(raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        try:
            return complex(float(raw[0]), float(raw[1]))
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key} must be a number or [re, im] pair, got {raw!r}")


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


def _resolve_common(cfg, eps_min, default_n=2048, default_radius=0.05):
    d = _int(cfg, "d", 1)
    if d != 1:
        raise ConfigError("sampled experiments are wired for d=1 grids")
    grid_n = _int(cfg, "grid_n", default_n)
    spec = KernelSpec(d=d)
    grid = Grid.regular(spec.box, grid_n)
    if grid.h > eps_min / 4.0:
        raise ConfigError(
            f"mollifier resolution violated: grid spacing {grid.h} > eps/4 "
            f"= {eps_min / 4.0} (raise grid_n)")
    fc = cfg.get("f", {})
    center = _num(fc, "center", 0.5)
    radius = _num(fc, "radius", default_radius)
    f = bump_function(grid, center=center, radius=radius)
    q_floor = q0_for(f, grid)
    n_max = _int(cfg, "n_max", kernels.exact_level(spec, eps_min) + 1)
    if n_max < kernels.exact_level(spec, eps_min):
        raise ConfigError(
            f"n_max={n_max} below exact level {kernels.exact_level(spec, eps_min)}"
            f" for eps={eps_min}")
    return spec, grid, f, {"d": d, "grid_n": grid_n, "f_center": center,
                           "f_radius": radius, "q_floor": q_floor,
                           "n_max": n_max, "grid_digest": grid.digest()}


def _resolve_trunc(cfg, d, gamma):
    """Classify gamma, then settle (truncation, q, lam) per the phase."""
    label = phase.classify(d, gamma.real, gamma.imag)
    if label == phase.L2:
        return label, False, 0, 0.0
    if label != phase.SUBCRITICAL:
        raise ConfigError(
            f"phase precondition violated: gamma={gamma} is {label}, "
            "need L2_subcritical or subcritical_non_L2")
    q = _int(cfg, "q", 2)
    lam_cfg = cfg.get("lam", "auto")
    if lam_cfg == "auto":
        lam = phase.pick_lambda(d, gamma.real, gamma.imag)
    else:
        lam = _num(cfg, "lam", None)
        if lam <= math.sqrt(2.0 * d):
            raise ConfigError(f"lam={lam} must exceed sqrt(2d)")
    return label, True, q, lam


def _moment_rows(estimates, run_id):
    rows = []
    for m in estimates:
        rows.append([m.estimator, m.replicas,
                     repr(m.estimate.real), repr(m.estimate.imag),
                     repr(m.se_re), repr(m.se_im),
                     "" if m.oracle is None else repr(m.oracle.real),
                     "" if m.oracle is None else repr(m.oracle.imag),
                     "" if m.z_re is None else repr(m.z_re),
                     "" if m.z_im is None else repr(m.z_im),
                     m.excluded, run_id])
    return (["estimator", "replicas", "estimate_re", "estimate_im", "se_re",
             "se_im", "oracle_re", "oracle_im", "z_re", "z_im", "excluded",
             "run_id"], rows)


def _ladder_rows(report, run_id):
    rows = []
    for i, step in enumerate(report.steps):
        if isinstance(step, tuple):
            hi, lo = step
        else:
            hi, lo = step, step
        rows.append([repr(float(hi)), repr(float(lo)),
                     repr(report.values[i]), repr(report.ses[i]),
                     "" if i == 0 else repr(report.diffs[i - 1]),
                     "" if i == 0 else repr(report.diff_ses[i - 1]),
                     run_id])
    return (["eps_hi", "eps_lo", "value", "se", "diff_prev", "diff_se",
             "run_id"], rows)


def _ladder_svg(report, title):
    xs = list(range(1, len(report.values) + 1))
    return _svg.line_plot(
        [{"x": xs, "y": list(report.values), "err": list(report.ses),
          "label": report.estimator}],
        title=title, xlabel="ladder step", ylabel="cell value",
        logy=all(v > 0 for v in report.values))


def _z_svg(estimates, title):
    names = [m.estimator for m in estimates if m.z_re is not None]
    zs = [m.max_z for m in estimates if m.z_re is not None]
    return _svg.bar_plot(names, zs, title=title, ylabel="|z| (worst component)",
                         hlines=[(4.0, "gate 4")])


def _scan_axis(cfg, key):
    """A phase-scan axis [lo, hi, count]: finite numbers, integer count >= 1."""
    v = cfg.get(key, [-2.5, 2.5, 200])
    try:
        if not isinstance(v, list) or len(v) != 3:
            raise TypeError
        lo, hi, count = float(v[0]), float(v[1]), _integer(v[2])
        valid = count >= 1 and math.isfinite(lo) and math.isfinite(hi)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ConfigError(f"{key} must be [lo, hi, count] with finite numbers "
                          f"lo, hi and an integer count >= 1, got {v!r}")
    return np.linspace(lo, hi, count)


def run_phase_scan(cfg, workers, run_id):
    d = _int(cfg, "d", 1)
    alphas = _scan_axis(cfg, "alpha_range")
    betas = _scan_axis(cfg, "beta_range")
    labels = phase.scan(d, alphas, betas)
    rows = []
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            rows.append([repr(float(a)), repr(float(b)), labels[i, j], run_id])
    grid_rows = [[labels[i, j] for i in range(len(alphas))]
                 for j in range(len(betas))]
    known = set(phase.LABELS)
    verdicts = {"all_points_labeled": all(labels[i, j] in known
                                          for i in range(len(alphas))
                                          for j in range(len(betas)))}
    tables = {"phase_scan.csv": (["alpha", "beta", "label", "run_id"], rows)}
    plots = {"phase_scan.svg": _svg.phase_map(list(alphas), list(betas),
                                              grid_rows,
                                              title=f"phase labels d={d}")}
    resolved = {"d": d, "alphas": len(alphas), "betas": len(betas)}
    return tables, plots, verdicts, resolved


def run_kernel_check(cfg, workers, run_id):
    d = _int(cfg, "d", 1)
    spec = KernelSpec(d=d)
    which = cfg.get("check", "both")
    if which not in ("mollified", "partial", "both"):
        raise ConfigError(f"check must be mollified|partial|both, got {which!r}")
    ladder = _eps_ladder(cfg)
    n_ladder = _list(cfg, "n_ladder", [4, 6, 8, 10, 12], _integer)
    eps_fixed = _num(cfg, "eps_fixed", 2.0 ** -4)
    grid_n = _int(cfg, "grid_n", 512)
    grid = Grid.regular(spec.box, grid_n, d=d)
    if grid.h > min(ladder) / 4.0:
        raise ConfigError(
            f"mollifier resolution violated: spacing {grid.h} > eps/4")
    reports = []
    if which in ("mollified", "both"):
        reports.append(verify.kernel_estimate_check(
            spec, "mollified", grid, eps_ladder=ladder))
    if which in ("partial", "both"):
        reports.append(verify.kernel_estimate_check(
            spec, "partial", grid, n_ladder=n_ladder, eps_fixed=eps_fixed))
    rows = []
    series = []
    verdicts = {}
    for rep in reports:
        for i, step in enumerate(rep.steps):
            rows.append([rep.kind, repr(float(step)), repr(rep.suprema[i]),
                         "" if i == 0 else repr(rep.ratios[i - 1]), run_id])
        verdicts[f"{rep.kind}_stable"] = rep.stable
        series.append({"x": list(range(1, len(rep.steps) + 1)),
                       "y": list(rep.suprema), "label": rep.kind})
    tables = {"kernel_check.csv": (["kind", "step", "supremum", "ratio_prev",
                                    "run_id"], rows)}
    plots = {"kernel_check.svg": _svg.line_plot(
        series, title="kernel estimate suprema", xlabel="ladder step",
        ylabel="supremum")}
    resolved = {"d": d, "grid_n": grid_n, "eps_ladder": ladder,
                "n_ladder": n_ladder, "eps_fixed": eps_fixed,
                "grid_digest": grid.digest()}
    return tables, plots, verdicts, resolved


def _var_levels(cfg):
    ns = _list(cfg, "var_levels", [2, 5, 8], _integer)
    if not ns or min(ns) < 0:
        raise ConfigError(
            f"var_levels must be a nonempty list of levels >= 0, got {ns}")
    return ns


def run_field_stats(cfg, workers, run_id):
    eps = _num(cfg, "eps", 2.0 ** -4)
    eps_prime = _num(cfg, "eps_prime", 2.0 ** -5)
    spec, grid, f, resolved = _resolve_common(cfg, min(eps, eps_prime),
                                              default_n=128,
                                              default_radius=0.2)
    ns = _var_levels(cfg)
    n_max = max(resolved["n_max"], max(ns))
    probes = _int(cfg, "probes", 20)
    replicas = _replicas(cfg, 10000)
    seed = _int(cfg, "seed", 0)
    bench = verify.Bench(spec, grid, n_max, f=f)
    ests = verify.field_stats(bench, ns, probes, eps, eps_prime, replicas,
                              seed, workers=workers)
    header, rows = _moment_rows(ests, run_id)
    verdicts = {"all_z_within_4se": all(m.max_z is not None and m.max_z <= 4.0
                                        for m in ests)}
    resolved.update({"eps": eps, "eps_prime": eps_prime, "var_levels": ns,
                     "probes": probes, "replicas": replicas, "seed": seed,
                     "n_max": n_max, "cholesky_jitter": bench.cholesky_jitter})
    tables = {"field_stats.csv": (header, rows)}
    plots = {"field_stats.svg": _z_svg(ests, "covariance fidelity z-scores")}
    return tables, plots, verdicts, resolved


def _moment_terms(cfg, d, eps, eps_prime):
    """(gammas, estimands) of a moment-check: nonempty lists it can score."""
    estimands = _list(cfg, "estimands", ["mean"], conv=lambda e: e)
    for e in estimands:
        if e not in ("mean", "product", "distance2"):
            raise ConfigError(f"unknown estimand {e!r}")
    gammas = _list(cfg, "gammas", [0.5, 0.8], _gamma_value)
    if not estimands or not gammas:
        raise ConfigError("moment-check needs nonempty gammas and estimands, "
                          f"got gammas={gammas}, estimands={estimands}")
    for g in gammas:
        label = phase.classify(d, g.real, g.imag)
        if label not in (phase.L2, phase.SUBCRITICAL) and g != 0:
            raise ConfigError(
                f"phase precondition violated: gamma={g} is {label}")
    if eps_prime > eps and set(estimands) - {"mean"}:
        raise ConfigError(f"product and distance2 need eps_prime <= eps, got "
                          f"eps={eps}, eps_prime={eps_prime}")
    return gammas, estimands


def run_moment_check(cfg, workers, run_id):
    eps = _num(cfg, "eps", 2.0 ** -5)
    eps_prime = _num(cfg, "eps_prime", eps)
    spec, grid, f, resolved = _resolve_common(cfg, min(eps, eps_prime),
                                              default_n=128,
                                              default_radius=0.2)
    gammas, estimands = _moment_terms(cfg, spec.d, eps, eps_prime)
    replicas = _replicas(cfg, 10000)
    seed = _int(cfg, "seed", 0)
    bench = verify.Bench(spec, grid, resolved["n_max"], f=f)
    jobs = [(ChaosParams(f=f, gamma=g), est, eps, eps_prime)
            for g in gammas for est in estimands]
    ests = verify.mc_moments(bench, jobs, replicas=replicas, seed=seed,
                             workers=workers)
    ests = [replace(m, estimator=f"{m.estimator} gamma={job[0].gamma}")
            for job, m in zip(jobs, ests)]
    header, rows = _moment_rows(ests, run_id)
    gated = [m for m in ests if m.max_z is not None]
    verdicts = {"all_z_within_4se": all(m.max_z <= 4.0 for m in gated)}
    resolved.update({"eps": eps, "eps_prime": eps_prime,
                     "gammas": [[g.real, g.imag] for g in gammas],
                     "estimands": estimands, "replicas": replicas,
                     "seed": seed, "cholesky_jitter": bench.cholesky_jitter})
    tables = {"moments.csv": (header, rows)}
    plots = {"moments.svg": _z_svg(ests, "moment oracle z-scores")}
    return tables, plots, verdicts, resolved


def run_cauchy(cfg, workers, run_id):
    ladder = _eps_ladder(cfg)
    spec, grid, f, resolved = _resolve_common(cfg, min(ladder))
    gamma = _gamma_value(cfg.get("gamma", 0.8))
    label, trunc, q, lam = _resolve_trunc(cfg, spec.d, gamma)
    replicas = _ladder_replicas(cfg, 2000)
    seed = _int(cfg, "seed", 0)
    bench = verify.Bench(spec, grid, resolved["n_max"], f=f)
    params = ChaosParams(f=f, gamma=gamma, truncation=trunc, q=q, lam=lam)
    report = verify.cauchy_ladder(bench, params, ladder, replicas, seed,
                                  workers=workers)
    header, rows = _ladder_rows(report, run_id)
    verdicts = {"trend_decreasing": report.verdict}
    resolved.update({"gamma": [gamma.real, gamma.imag], "phase": label,
                     "truncation": trunc, "q": q, "lam": lam,
                     "eps_ladder": ladder, "replicas": replicas,
                     "seed": seed, "cholesky_jitter": bench.cholesky_jitter})
    tables = {"cauchy_ladder.csv": (header, rows)}
    plots = {"cauchy_ladder.svg": _ladder_svg(
        report, f"coupled |M_eps - M_eps'|^2, gamma={gamma}")}
    return tables, plots, verdicts, resolved


def run_mollifier_independence(cfg, workers, run_id):
    ladder = _eps_ladder(cfg)
    spec, grid, f, resolved = _resolve_common(cfg, min(ladder))
    gamma = _gamma_value(cfg.get("gamma", 0.8))
    label, trunc, q, lam = _resolve_trunc(cfg, spec.d, gamma)
    profiles = cfg.get("profiles", ["bump", "quartic"])
    if len(profiles) != 2:
        raise ConfigError("profiles must name exactly two mollifiers")
    replicas = _ladder_replicas(cfg, 2000)
    seed = _int(cfg, "seed", 0)
    try:
        mol_a = Mollifier(d=spec.d, profile=profiles[0])
        mol_b = Mollifier(d=spec.d, profile=profiles[1])
    except ValueError as e:
        raise ConfigError(str(e))
    bench = verify.Bench(spec, grid, resolved["n_max"], f=f, mol=mol_a)
    bench.add_channel("alt", mol_b)
    params = ChaosParams(f=f, gamma=gamma, truncation=trunc, q=q, lam=lam)
    report = verify.mollifier_independence(bench, params, ladder, replicas,
                                           seed, workers=workers)
    header, rows = _ladder_rows(report, run_id)
    verdicts = {"trend_decreasing": report.verdict}
    resolved.update({"gamma": [gamma.real, gamma.imag], "phase": label,
                     "profiles": list(profiles), "eps_ladder": ladder,
                     "replicas": replicas, "seed": seed, "q": q, "lam": lam,
                     "cholesky_jitter": bench.cholesky_jitter})
    tables = {"mollifier_independence.csv": (header, rows)}
    plots = {"mollifier_independence.svg": _ladder_svg(
        report, f"|M^theta - M^theta'|^2, {profiles[0]} vs {profiles[1]}")}
    return tables, plots, verdicts, resolved


def _tail_grid(cfg):
    sigmas = _list(cfg, "sigmas", [0.5, 1.0, 2.0, 4.0])
    ratios = _list(cfg, "u_over_sigma", [0, 1, 2, 3, 4, 5])
    if any(s <= 0 for s in sigmas) or any(u < 0 for u in ratios):
        raise ConfigError("need sigma > 0 and u >= 0")
    return sigmas, ratios


def run_tail_check(cfg, workers, run_id):
    sigmas, ratios = _tail_grid(cfg)
    report = verify.tail_bound_check(sigmas, ratios)
    rows = [[repr(s), repr(u), repr(exact), repr(bound), holds, run_id]
            for s, u, exact, bound, holds in report.rows]
    rows.append(["literal_at_sigma1_u3", repr(3.0), repr(report.literal_exact),
                 repr(report.literal_bound), not report.literal_violated,
                 run_id])
    one = [r for r in report.rows if r[0] == sigmas[0]]
    plots = {"tail_bound.svg": _svg.line_plot(
        [{"x": [r[1] for r in one], "y": [max(r[2], 1e-18) for r in one],
          "label": "exact tail"},
         {"x": [r[1] for r in one], "y": [r[3] for r in one],
          "label": "bound"}],
        title=f"Gaussian tail vs bound, sigma={sigmas[0]}", xlabel="u",
        ylabel="probability", logy=True)}
    verdicts = {"corrected_bound_holds": report.all_hold,
                "literal_bound_violated": report.literal_violated}
    tables = {"tail_bound.csv": (["sigma", "u", "exact_tail", "bound",
                                  "holds", "run_id"], rows)}
    resolved = {"sigmas": sigmas, "u_over_sigma": ratios}
    return tables, plots, verdicts, resolved


def _sup_levels(cfg):
    lam = _num(cfg, "lam", 1.6)
    ks = _list(cfg, "ks", list(range(4, 11)), _integer)
    qs = _list(cfg, "qs", [2, 4, 6, 8], _integer)
    if not ks or not qs:
        raise ConfigError("ks and qs must each name at least one level")
    d = _int(cfg, "d", 1)
    if lam <= math.sqrt(2.0 * d):
        raise ConfigError(
            f"barrier slope precondition violated: lam={lam} <= sqrt(2d)")
    n_max = _int(cfg, "n_max", max(ks + qs))
    if n_max < max(ks + qs):
        raise ConfigError(f"n_max={n_max} below the deepest requested level")
    return d, lam, ks, qs, n_max


def run_sup_prob(cfg, workers, run_id):
    d, lam, ks, qs, n_max = _sup_levels(cfg)
    grid_n = _int(cfg, "grid_n", 512)
    spec = KernelSpec(d=d)
    grid = Grid.regular(spec.box, grid_n)
    fc = cfg.get("f", {})
    f = bump_function(grid, center=_num(fc, "center", 0.5),
                      radius=_num(fc, "radius", 0.2))
    replicas = _replicas(cfg, 1000)
    seed = _int(cfg, "seed", 0)
    bench = verify.Bench(spec, grid, n_max, f=f)
    rep = verify.sup_field_prob(bench, lam, ks, qs, replicas, seed,
                                workers=workers)
    k_rows = [[k, repr(m.estimate.real), repr(m.se_re), run_id]
              for k, m in zip(rep.ks, rep.k_probs)]
    q_rows = [[q, repr(m.estimate.real), repr(m.se_re), run_id]
              for q, m in zip(rep.qs, rep.q_probs)]
    verdicts = {"exceedance_decay": rep.decay_ok,
                "event_prob_monotone": rep.q_increasing}
    tables = {"sup_exceedance.csv": (["k", "prob", "se", "run_id"], k_rows),
              "event_prob.csv": (["q", "prob", "se", "run_id"], q_rows)}
    live = [(k, m.estimate.real) for k, m in zip(rep.ks, rep.k_probs)
            if m.estimate.real > 0]
    plots = {"sup_exceedance.svg": _svg.line_plot(
        [{"x": [k for k, _ in live], "y": [p for _, p in live],
          "label": "P(sup Y_k > lam k)"}],
        title=f"barrier exceedance, lam={lam} (slope {rep.slope:.3f})",
        xlabel="k", ylabel="probability", logy=True)}
    resolved = {"d": d, "lam": lam, "ks": ks, "qs": qs, "n_max": n_max,
                "grid_n": grid_n, "replicas": replicas, "seed": seed,
                "slope": rep.slope, "slope_se": rep.slope_se,
                "grid_digest": grid.digest(),
                "cholesky_jitter": bench.cholesky_jitter}
    return tables, plots, verdicts, resolved


def _separations(cfg):
    seps = _list(cfg, "separations", [math.exp(-k) for k in range(2, 6)])
    if len(seps) < 4:
        raise ConfigError("exponent fits need at least 4 separations")
    return seps


def run_tilt_check(cfg, workers, run_id):
    d = _int(cfg, "d", 1)
    alpha = _num(cfg, "alpha", 1.1)
    beta = _num(cfg, "beta", 0.25)
    label = phase.classify(d, alpha, beta)
    if label != phase.SUBCRITICAL:
        raise ConfigError(
            f"phase precondition violated: (alpha={alpha}, beta={beta}) is "
            f"{label}, need subcritical_non_L2")
    q = _int(cfg, "q", 2)
    lam = (phase.pick_lambda(d, alpha, beta) if cfg.get("lam", "auto") == "auto"
           else _num(cfg, "lam", None))
    seps = _separations(cfg)
    eps = _num(cfg, "eps", math.exp(-5))
    n_max = _int(cfg, "n_max", 8)
    replicas = _replicas(cfg, 10000)
    seed = _int(cfg, "seed", 0)
    spec = KernelSpec(d=d)
    try:
        rep = verify.tilted_event_prob(spec, seps, eps, eps, q, lam, alpha,
                                       n_max, replicas, seed, workers=workers)
    except (ValueError, phase.PhaseError) as e:
        raise ConfigError(str(e))
    rows = [[repr(s), repr(m.estimate.real), repr(m.se_re), run_id]
            for s, m in zip(rep.separations, rep.estimates)]
    verdicts = {"exponent_dominates_bound": rep.one_sided_ok}
    tables = {"tilted_event.csv": (["separation", "prob", "se", "run_id"],
                                   rows)}
    plots = {"tilted_event.svg": _svg.line_plot(
        [{"x": [max(s, eps) for s in rep.separations],
          "y": [max(m.estimate.real, 1e-12) for m in rep.estimates],
          "label": "P~[A_q(x,y)]"}],
        title=(f"tilted event vs separation (slope {rep.slope:.3f}, "
               f"target {rep.exponent_target:.3f})"),
        xlabel="separation v eps", ylabel="probability", logx=True,
        logy=True)}
    resolved = {"d": d, "alpha": alpha, "beta": beta, "q": q, "lam": lam,
                "separations": seps, "eps": eps, "n_max": n_max,
                "replicas": replicas, "seed": seed, "slope": rep.slope,
                "slope_se": rep.slope_se, "target": rep.exponent_target,
                "cholesky_jitter": [list(j) for j in rep.cholesky_jitter]}
    return tables, plots, verdicts, resolved


def run_sobolev(cfg, workers, run_id):
    ladder = _eps_ladder(cfg)
    spec, grid, f, resolved = _resolve_common(cfg, min(ladder))
    gamma = _gamma_value(cfg.get("gamma", [1.1, 0.25]))
    label, trunc, q, lam = _resolve_trunc(cfg, spec.d, gamma)
    u = _num(cfg, "u", 0.75)
    if u <= spec.d / 2.0:
        raise ConfigError(f"Sobolev index precondition violated: u={u} <= d/2")
    replicas = _ladder_replicas(cfg, 500)
    seed = _int(cfg, "seed", 0)
    bench = verify.Bench(spec, grid, resolved["n_max"], f=f)
    params = ChaosParams(f=f, gamma=gamma, truncation=trunc, q=q, lam=lam)
    report = verify.sobolev_ladder(bench, params, u, ladder, replicas, seed,
                                   workers=workers)
    header, rows = _ladder_rows(report, run_id)
    verdicts = {"trend_decreasing": report.verdict}
    resolved.update({"gamma": [gamma.real, gamma.imag], "phase": label,
                     "u": u, "q": q, "lam": lam, "eps_ladder": ladder,
                     "replicas": replicas, "seed": seed,
                     "cholesky_jitter": bench.cholesky_jitter})
    tables = {"sobolev_ladder.csv": (header, rows)}
    plots = {"sobolev_ladder.svg": _ladder_svg(
        report, f"H^-{u} coupled distance, gamma={gamma}")}
    return tables, plots, verdicts, resolved


RUNNERS = {
    "phase-scan": run_phase_scan,
    "kernel-check": run_kernel_check,
    "field-stats": run_field_stats,
    "moment-check": run_moment_check,
    "cauchy": run_cauchy,
    "mollifier-independence": run_mollifier_independence,
    "tail-check": run_tail_check,
    "sup-prob": run_sup_prob,
    "tilt-check": run_tilt_check,
    "sobolev": run_sobolev,
}


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {', '.join(KINDS)}; got {kind!r}")
    return cfg


def write_csv(path, header, rows):
    import csv as _csv

    with open(path, "w", newline="") as fh:
        wr = _csv.writer(fh, lineterminator="\r\n")
        wr.writerow(header)
        wr.writerows(rows)
    return sha256_file(path)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def execute(cfg, out_dir, workers):
    """Run one validated config into out_dir; returns (verdicts, manifest)."""
    run_id = run_id_of(cfg)
    tables, plots, verdicts, resolved = RUNNERS[cfg["kind"]](cfg, workers,
                                                             run_id)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_hashes = {}
    for name, (header, rows) in tables.items():
        csv_hashes[name] = write_csv(out / name, header, rows)
    for name, svg in plots.items():
        (out / name).write_text(svg)
    manifest = {
        "tool": "logchaos",
        "version": __version__,
        "run_id": run_id,
        "config": cfg,
        "resolved": resolved,
        "csv_sha256": csv_hashes,
        "svg_files": sorted(plots),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    with open(out / "verdicts.json", "w") as fh:
        json.dump({"run_id": run_id, "verdicts": verdicts,
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
    _validate_only(cfg)
    print(f"config valid: kind={cfg['kind']}")
    return EXIT_OK


def _validate_only(cfg):
    """Re-use each runner's parameter resolution paths without sampling.

    Replica budgets are read with their smallest valid value as default (2,
    or MOM_BLOCKS for ladder kinds); an absent key runs at the runner's own
    default.
    """
    kind = cfg["kind"]
    if kind == "phase-scan":
        _int(cfg, "d", 1)
        _scan_axis(cfg, "alpha_range")
        _scan_axis(cfg, "beta_range")
        return
    if kind == "tail-check":
        _tail_grid(cfg)
        return
    if kind == "kernel-check":
        d = _int(cfg, "d", 1)
        ladder = _eps_ladder(cfg)
        grid = Grid.regular(KernelSpec(d=d).box, _int(cfg, "grid_n", 512), d=d)
        if grid.h > min(ladder) / 4.0:
            raise ConfigError("mollifier resolution violated")
        if cfg.get("check", "both") not in ("mollified", "partial", "both"):
            raise ConfigError("check must be mollified|partial|both")
        _list(cfg, "n_ladder", [4, 6, 8, 10, 12], _integer)
        return
    if kind in ("field-stats", "moment-check"):
        eps = _num(cfg, "eps", 2.0 ** -5 if kind == "moment-check" else 2.0 ** -4)
        eps_p = _num(cfg, "eps_prime", eps if kind == "moment-check" else 2.0 ** -5)
        spec, _, _, _ = _resolve_common(cfg, min(eps, eps_p), default_n=128,
                                        default_radius=0.2)
        _replicas(cfg, 2)
        if kind == "field-stats":
            _var_levels(cfg)
        if kind == "moment-check":
            _moment_terms(cfg, spec.d, eps, eps_p)
        return
    if kind in ("cauchy", "mollifier-independence", "sobolev"):
        ladder = _eps_ladder(cfg)
        spec, _, _, _ = _resolve_common(cfg, min(ladder))
        default = [1.1, 0.25] if kind == "sobolev" else 0.8
        gamma = _gamma_value(cfg.get("gamma", default))
        _resolve_trunc(cfg, spec.d, gamma)
        _ladder_replicas(cfg, verify.MOM_BLOCKS)
        if kind == "sobolev" and _num(cfg, "u", 0.75) <= spec.d / 2.0:
            raise ConfigError("Sobolev index precondition violated")
        return
    if kind == "sup-prob":
        _sup_levels(cfg)
        _replicas(cfg, 2)
        return
    if kind == "tilt-check":
        d = _int(cfg, "d", 1)
        alpha, beta = _num(cfg, "alpha", 1.1), _num(cfg, "beta", 0.25)
        if phase.classify(d, alpha, beta) != phase.SUBCRITICAL:
            raise ConfigError("phase precondition violated")
        _separations(cfg)
        _replicas(cfg, 2)
        return
    raise ConfigError(f"unknown kind {kind!r}")


def cmd_replay(args):
    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read manifest: {e}")
    if manifest.get("tool") != "logchaos" or "config" not in manifest:
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
    if args.workers is None:
        args.workers = verify.default_workers()
    try:
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
