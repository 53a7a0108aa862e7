"""Benchmark driver for logchaos.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The driver imports neither numpy nor
logchaos, so its memory stays out of the measurement: all of a run's work
happens in one child process (perfbench/child.py) that imports logchaos
from the checkout's src/ and runs with --workers 1 and the default BLAS
thread count.  Without src/logchaos the driver exits 2 and prints no result.

--trace 0 prints the end-to-end metrics, each a median over repeated work
within the run:

  run_s        wall time of one `logchaos run` of the workload config
  setup_s      building the state a run computes from (Bench plus
               supp_tables; the weight matrices for kernel-tables-512)
  verify_s     one call of the workload's verify entry point on that state
  peak_rss_mb  peak resident memory of the child process

--trace 1 alternates untraced and traced executions and prints the
per-layer metrics (see tracer.py), the tracing overhead and the N-scaling
of the dense engine.

An operation fails when it raises, exits non-zero, has a false verdict, or
writes CSV bytes that differ from another execution of the same config in
the same run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, config  # noqa: E402

DEADLINE_S = 175.0    # every run must end within 180 s
HARD_S = 130.0        # no round starts that would end the rounds after this
MIN_ROUNDS = 2        # a ladder-2048 round alone takes ~17 s
SCALE_BLOCKS = 7      # block_z calls timed per N in the scaling sweep


def child(task, deadline):
    """Run the measuring process; returns its result or an error message."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(task)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "measuring process killed at the deadline"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"measuring process exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), None


def exec_failures(execs, reference):
    """Why each execution failed, if it did; bytes compare with reference."""
    out = []
    for e in execs:
        why = []
        if e["error"]:
            why.append(f"raised: {e['error'].strip().splitlines()[-1]}")
        if e["rc"] != 0:
            why.append(f"exit code {e['rc']}")
        why += [f"verdict {k} false" for k, ok in e["verdicts"].items() if not ok]
        if not e["csv"]:
            why.append("wrote no CSV")
        elif e["csv"] != reference:
            why.append("CSV bytes differ from the first execution")
        if e.get("restored") is False:
            why.append("the tracer left a wrapped function behind")
        if why and e["detail"]:
            why.append(f"[{e['detail']}]")
        out.append(why)
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def end_to_end(res):
    """Untraced run: metric -> (value, how it was taken)."""
    runs = [e["wall_s"] for e in res["execs"]]
    verify_s = statistics.median(res["verify_s"])
    drawn = res["replicas_per_call"]
    return {
        "run_s": (statistics.median(runs),
                  f"median of {len(runs)} executions, quartiles "
                  + "%.4g..%.4g" % quartiles(runs)),
        "setup_s": (statistics.median(res["setup_s"]),
                    f"median of {len(res['setup_s'])} set-ups"),
        "verify_s": (verify_s, f"median of {len(res['verify_s'])} calls"),
        "peak_rss_mb": (res["peak_rss_mb"], "the measuring process"),
    }, [f"replicas_per_s {drawn / verify_s:.6g} 1/s ({drawn} replicas per "
        "verify call)" if drawn else "replicas_per_s n/a (draws no replicas)"]


def per_layer(res, units):
    """Traced run: metric -> (value, note), plus lines that explain them."""
    untraced = [e["wall_s"] for e in res["execs"] if not e["traced"]]
    traced = [e for e in res["execs"] if e["traced"]]
    layers = [e["layers"] for e in traced]
    run_u = statistics.median(untraced)
    run_t = statistics.median(e["wall_s"] for e in traced)
    top = statistics.median(l["trace.layers_s"] for l in layers)
    # counts are exact: taken from the first traced execution, checked below
    counts = [name for name, unit in units.items() if unit in ("count", "B")]
    out = {name: (layers[0].get(name, 0) if name in counts
                  else statistics.median(l.get(name, 0.0) for l in layers), "")
           for name in units}
    out.update((k, (v, "")) for k, v in res["scale"].items())
    out["trace.untraced_run_s"] = (run_u, f"median of {len(untraced)}")
    out["trace.traced_run_s"] = (run_t, f"median of {len(traced)}")
    out["trace.overhead_s"] = (run_t - run_u, "traced minus untraced run_s")
    out["trace.layers_s"] = (top, "spans directly under cli.execute")
    repeat = all(l.get(k) == layers[0].get(k) for l in layers for k in counts)
    notes = [f"top-level layers account for {top:.4f} s of the untraced "
             f"run_s {run_u:.4f} s (gap {run_u - top:.4f} s, tracing overhead "
             f"{run_t - run_u:.4f} s)",
             f"exact counts repeat across {len(layers)} traced executions: "
             + ("yes" if repeat else "NO")]
    if traced[0]["missing"]:
        notes.append("not found, so not traced: " + ", ".join(traced[0]["missing"]))
    return out, notes


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = WORKLOADS[args.workload]
    work = HERE / "_runs" / f"{args.workload}-{os.getpid()}"
    task = {"config": config(args.workload, args.seed),
            "warmup": config(args.workload, args.seed, warmup=True),
            "work": str(work), "seed": args.seed, "trace": args.trace,
            "verify_replicas": wl["verify_replicas"],
            "min_rounds": MIN_ROUNDS,
            "budget_s": args.seconds,
            "hard_s": HARD_S, "scale_blocks": SCALE_BLOCKS}
    try:
        res, err = child(task, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if err:
        print(err, file=sys.stderr)
        return 1

    execs = res["execs"]
    errors = [f"execution {i}: " + "; ".join(why)
              for i, why in enumerate(exec_failures(execs, execs[0]["csv"])) if why]
    warm = res["warmup"]
    if warm["error"] or warm["rc"] not in (0, 1):  # at R=64 a gate may fail
        errors.append(f"warm-up: exit {warm['rc']} {warm['error'] or ''}")
    errors += res["lib_failures"]
    attempted = 1 + len(execs) + res["lib_rounds"]
    verdicts = ", ".join(f"{k} {'pass' if ok else 'FAIL'}"
                         for k, ok in execs[0]["verdicts"].items())
    print(f"  verdicts: {verdicts}  [{execs[0]['detail']}]")
    if not args.trace and not (res["setup_s"] and res["verify_s"]):
        print("\n".join(errors), file=sys.stderr)
        return 1
    metrics, notes = per_layer(res, units) if args.trace else end_to_end(res)
    for name, unit in units.items():
        value, note = metrics[name]
        print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_frac':<32} {len(errors) / attempted:>14.6g} {'ratio':<6} "
          f"{len(errors)} of {attempted} operations")
    for line in notes + [f"error: {e}" for e in errors]:
        print(f"  {line}")
    print("environment: " + json.dumps(res["environment"], sort_keys=True))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "logchaos" / "cli.py").is_file():
        print(f"no logchaos sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
