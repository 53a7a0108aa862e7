"""Workload table of the logchaos benchmark.

Each workload is one `logchaos run` config (timed end to end) plus the
library-level work the benchmark times on its own: the set-up that builds
the state a run samples from, and one call of the run's verify entry point
on that state.  Configs take their seed from the benchmark's --seed.

Why these three:

* ladder-2048 is the acceptance geometry (N=2048, n_max=8, R=2000, a
  truncated 5-rung Cauchy ladder).  The dense engine dominates it: Bench
  build (Grams plus Cholesky) and the level mat-vecs in block_z.
* moments-128 is small-N and replica-heavy, so it is bound by the RNG and
  the consume closures; a factor-engine change must leave it flat.
* kernel-tables-512 draws no replicas; midpoint kernel tables are nearly
  all of its time, so a sampling change must leave it flat.

Stdlib only: the driver imports this file without numpy.
"""

from __future__ import annotations

LADDER = [2.0 ** -k for k in range(3, 8)]

WORKLOADS = {
    "ladder-2048": {
        "config": {
            "kind": "cauchy", "grid_n": 2048, "n_max": 8, "replicas": 2000,
            "eps_ladder": LADDER, "gamma": [1.1, 0.25], "q": 2,
            "lam": "auto", "f": {"center": 0.5, "radius": 0.05},
        },
        "warmup": {
            "kind": "cauchy", "grid_n": 256, "n_max": 8, "replicas": 64,
            "eps_ladder": LADDER[:3], "gamma": [1.1, 0.25], "q": 2,
            "lam": "auto", "f": {"center": 0.5, "radius": 0.05},
        },
        # replicas per verify call: the 640-replica ladder of the baseline
        "verify_replicas": 640,
    },
    "moments-128": {
        "config": {
            "kind": "moment-check", "grid_n": 128, "n_max": 8,
            "replicas": 10000, "gammas": [0.8, [0.5, 0.5]],
            "estimands": ["mean", "product"], "eps": 2.0 ** -4,
            "eps_prime": 2.0 ** -5, "f": {"center": 0.5, "radius": 0.2},
        },
        "warmup": {
            "kind": "moment-check", "grid_n": 128, "n_max": 8,
            "replicas": 64, "gammas": [0.8, [0.5, 0.5]],
            "estimands": ["mean", "product"], "eps": 2.0 ** -4,
            "eps_prime": 2.0 ** -5, "f": {"center": 0.5, "radius": 0.2},
        },
        "verify_replicas": 10000,
    },
    "kernel-tables-512": {
        "config": {
            "kind": "kernel-check", "grid_n": 512, "eps_ladder": LADDER,
            "n_ladder": [4, 6, 8, 10, 12], "eps_fixed": 2.0 ** -4,
        },
        "warmup": {
            "kind": "kernel-check", "grid_n": 128, "eps_ladder": LADDER[:2],
            "n_ladder": [4, 6], "eps_fixed": 2.0 ** -4,
        },
        "verify_replicas": 0,
    },
}

# N-scaling of the dense engine on the ladder-2048 geometry (traced runs)
SCALE_NS = [512, 1024, 2048]


def config(name, seed, warmup=False):
    """The workload's `logchaos run` config with its seed set."""
    cfg = dict(WORKLOADS[name]["warmup" if warmup else "config"])
    if cfg["kind"] != "kernel-check":
        cfg["seed"] = int(seed)
    return cfg

