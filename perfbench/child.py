"""The measuring process of the logchaos benchmark.

    python3 perfbench/child.py '<task JSON>'

The driver starts one of these per run, so the workload's peak memory is
this process's own.  After one warm-up execution of a small config of the
same kind, it repeats rounds until the budget is spent:

* untraced: one `logchaos run` execution, then set-up of the state a run
  computes from (repeated within the round when it is cheap), then one
  call of the workload's verify entry point on that state;
* traced: one untraced and one traced `logchaos run` execution; after the
  rounds, the N-scaling sweep of the dense engine.

Interleaving spreads every metric's samples over the whole run, which keeps
medians steady on a host whose speed drifts.  The last line of stdout is
the result as one JSON object.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import logchaos  # noqa: E402
from logchaos import cli, phase, sampler, verify  # noqa: E402
from logchaos.chaos import ChaosParams, bump_function  # noqa: E402
from logchaos.grids import Grid  # noqa: E402
from logchaos.kernels import KernelSpec  # noqa: E402
from logchaos.mollifier import Mollifier, weight_matrix  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import SCALE_NS, WORKLOADS  # noqa: E402

WORKERS = 1


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- `logchaos run` executions ---------------------------------------------------

def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def diagnose(out):
    """What a verdict rests on: worst |z|, ladder cells or kernel suprema."""
    parts = []
    if (out / "moments.csv").exists():
        zs = [abs(float(r[k])) for r in _rows(out / "moments.csv")
              for k in ("z_re", "z_im") if r[k]]
        parts.append(f"worst |z| {max(zs):.3f}" if zs else "no gated rows")
    if (out / "cauchy_ladder.csv").exists():
        rows = _rows(out / "cauchy_ladder.csv")
        parts.append("cells " + " ".join(f"{float(r['value']):.4g}"
                                         for r in rows))
    if (out / "kernel_check.csv").exists():
        for kind in ("mollified", "partial"):
            sups = [f"{float(r['supremum']):.4g}"
                    for r in _rows(out / "kernel_check.csv") if r["kind"] == kind]
            parts.append(f"{kind} suprema " + " ".join(sups))
    return "; ".join(parts)


def execute(cfg_path, out, tracer=None):
    """One `logchaos run`; returns its record (time, exit, verdicts, bytes)."""
    rec = {"traced": tracer is not None, "rc": None, "error": None}
    if tracer is not None:
        tracer.install()
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rec["rc"] = cli.main(["--workers", str(WORKERS), "run",
                                  str(cfg_path), "--out", str(out)])
    except SystemExit as e:
        rec["rc"] = e.code
        rec["error"] = f"SystemExit({e.code})"
    except Exception:  # a raising execution is counted as failed
        rec["error"] = traceback.format_exc(limit=4)
    rec["wall_s"] = time.perf_counter() - t0
    if tracer is not None:
        rec["restored"] = tracer.restore()
        rec["layers"] = tracer.summary()
        rec["missing"] = tracer.missing
    verdicts_path = out / "verdicts.json"
    rec["verdicts"] = (json.loads(verdicts_path.read_text())["verdicts"]
                       if verdicts_path.exists() else {})
    rec["csv"] = {p.name: _sha256(p) for p in sorted(out.glob("*.csv"))}
    rec["detail"] = diagnose(out) if rec["csv"] else ""
    shutil.rmtree(out, ignore_errors=True)
    return rec


# -- library-level set-up and verify ----------------------------------------------

def _common(cfg):
    spec = KernelSpec(d=1)
    grid = Grid.regular(spec.box, cfg["grid_n"])
    f = bump_function(grid, center=cfg["f"]["center"], radius=cfg["f"]["radius"])
    return spec, grid, f


def _gamma(raw):
    return complex(*raw) if isinstance(raw, list) else complex(raw)


def setup_state(cfg):
    """The state a run computes from, built as the run builds it."""
    if cfg["kind"] == "kernel-check":
        spec = KernelSpec(d=1)
        grid = Grid.regular(spec.box, cfg["grid_n"])
        mol = Mollifier(d=1)
        eps_all = sorted(set(cfg["eps_ladder"]) | {cfg["eps_fixed"]})
        return {"spec": spec, "grid": grid,
                "weights": [weight_matrix(grid, mol, e) for e in eps_all]}
    spec, grid, f = _common(cfg)
    bench = verify.Bench(spec, grid, cfg["n_max"], f=f)
    eps_list = (cfg["eps_ladder"] if cfg["kind"] == "cauchy"
                else [cfg["eps"], cfg["eps_prime"]])
    for eps in eps_list:
        bench.supp_tables("main", eps)
    return {"bench": bench, "f": f}


def verify_call(cfg, state, replicas):
    """One call of the workload's verify entry point; returns its numbers."""
    kind = cfg["kind"]
    if kind == "cauchy":
        gamma = _gamma(cfg["gamma"])
        lam = phase.pick_lambda(1, gamma.real, gamma.imag)
        params = ChaosParams(f=state["f"], gamma=gamma, truncation=True,
                             q=cfg["q"], lam=lam)
        rep = verify.cauchy_ladder(state["bench"], params, cfg["eps_ladder"],
                                   replicas, cfg["seed"], workers=WORKERS)
        return list(rep.values) + list(rep.ses), replicas
    if kind == "moment-check":
        out = []
        for g in cfg["gammas"]:
            params = ChaosParams(f=state["f"], gamma=_gamma(g))
            for est in cfg["estimands"]:
                kw = {} if est == "mean" else {"eps_prime": cfg["eps_prime"]}
                m = verify.mc_moment(state["bench"], params, est, cfg["eps"],
                                     replicas=replicas, seed=cfg["seed"],
                                     workers=WORKERS, **kw)
                out += [m.estimate.real, m.estimate.imag, m.se_re, m.se_im]
        return out, replicas * len(cfg["gammas"]) * len(cfg["estimands"])
    spec, grid = state["spec"], state["grid"]
    mol = verify.kernel_estimate_check(spec, "mollified", grid,
                                       eps_ladder=cfg["eps_ladder"])
    part = verify.kernel_estimate_check(spec, "partial", grid,
                                        n_ladder=cfg["n_ladder"],
                                        eps_fixed=cfg["eps_fixed"])
    return list(mol.suprema) + list(part.suprema), 0


# -- N-scaling -------------------------------------------------------------------

def _slope(ns, ts):
    """Least-squares growth exponent of ts against ns on log-log axes."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for t in ts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def scale_sweep(seed, blocks):
    """Bench build and median block_z time on the ladder-2048 geometry per N."""
    cfg = WORKLOADS["ladder-2048"]["config"]
    out, inits, p50s = {}, [], []
    for n in SCALE_NS:
        spec, grid, f = _common(dict(cfg, grid_n=n))
        t0 = time.perf_counter()
        bench = verify.Bench(spec, grid, cfg["n_max"], f=f)
        inits.append(time.perf_counter() - t0)
        times = []
        for b in range(blocks):
            tb = time.perf_counter()
            sampler.block_z(spec, grid, bench.factors, seed, b * sampler.BLOCK,
                            cfg["n_max"])
            times.append(time.perf_counter() - tb)
        bench = None
        p50s.append(1e3 * statistics.median(times))
        out[f"scale.n{n}.bench_init_s"] = inits[-1]
        out[f"scale.n{n}.block_z_p50_ms"] = p50s[-1]
    out["scale.bench_init_exponent"] = _slope(SCALE_NS, inits)
    out["scale.block_z_exponent"] = _slope(SCALE_NS, p50s)
    return out


# -- environment --------------------------------------------------------------

def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "logchaos": logchaos.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "seed": seed,
    }


def lib_round(cfg, replicas, reps, res):
    """Time reps set-ups and one verify call; returns the verify fingerprint."""
    for _ in range(reps):
        state = None  # free the previous state before building the next
        t0 = time.perf_counter()
        state = setup_state(cfg)
        res["setup_s"].append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    values, res["replicas_per_call"] = verify_call(cfg, state, replicas)
    res["verify_s"].append(time.perf_counter() - t0)
    return hashlib.sha256(repr(values).encode()).hexdigest()


def measure(task):
    work = Path(task["work"])
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(task["config"]))
    warm_path = work / "warmup.json"
    warm_path.write_text(json.dumps(task["warmup"]))
    res = {"warmup": execute(warm_path, work / "warmup"), "execs": [],
           "setup_s": [], "verify_s": [], "lib_rounds": 0, "lib_failures": [],
           "replicas_per_call": 0}
    fingerprint, reps = None, 1
    t0 = time.perf_counter()
    while True:
        res["execs"].append(execute(cfg_path, work / "exec", None))
        if task["trace"]:
            res["execs"].append(execute(cfg_path, work / "exec", Tracer()))
        else:
            res["lib_rounds"] += 1
            try:
                fp = lib_round(task["config"], task["verify_replicas"], reps, res)
            except Exception:  # a raising round is counted as failed
                res["lib_failures"].append(traceback.format_exc(limit=4))
            else:
                fingerprint = fingerprint or fp
                if fp != fingerprint:
                    res["lib_failures"].append(
                        f"round {res['lib_rounds']}: verify numbers differ from round 1")
            # cheap set-ups repeat within a round so their median is steady
            reps = max(1, min(50, math.ceil(0.25 / statistics.median(res["setup_s"] or [1.0]))))
        rounds = len(res["execs"]) // (2 if task["trace"] else 1)
        elapsed = time.perf_counter() - t0
        if rounds >= task["min_rounds"] and elapsed >= task["budget_s"]:
            break
        if elapsed * (rounds + 1) / rounds > task["hard_s"]:
            break
    if task["trace"]:
        res["scale"] = scale_sweep(task["seed"], task["scale_blocks"])
    res["peak_rss_mb"] = peak_rss_mb()
    res["environment"] = environment(task["seed"])
    return res


def main():
    task = json.loads(sys.argv[1])
    src = (ROOT / "src").resolve()
    if not Path(logchaos.__file__).resolve().is_relative_to(src):
        print(f"logchaos imported from {logchaos.__file__}, not {src}",
              file=sys.stderr)
        return 2
    print(json.dumps(measure(task)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
