"""Acceptance checklist, one test and one printed verdict line per criterion.

Run with -s to see the lines as they appear; each test also asserts its
verdict so the suite fails loudly on any regression.  Monte Carlo scales are
the frozen desk-scale geometries; seeds are fixed.
"""

import json
import math

import numpy as np

from logchaos import (Bench, ChaosParams, Grid, KernelSpec, Mollifier,
                      bump_function, cauchy_ladder, field_stats, gram,
                      k_exact, kernel_estimate_check, mc_moment,
                      mollifier_independence, pd_check, pick_lambda,
                      sobolev_ladder, sup_field_prob, tail_bound_check,
                      tilted_event_prob)
from logchaos.cli import main, run_id_of

import pytest

SPEC = KernelSpec(d=1)
LADDER = [2.0 ** -k for k in range(3, 8)]

# every runner kind at reduced scale, for test_13 (the import guard of
# tests/test_imports.py runs three of them)
SHORT = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
REPRO_CONFIGS = {
    "phase-scan": {"alpha_range": [-2.0, 2.0, 15],
                   "beta_range": [-2.0, 2.0, 15]},
    "kernel-check": {"grid_n": 512, "eps_ladder": SHORT,
                     "n_ladder": [4, 6, 8], "eps_fixed": 2.0 ** -4},
    "field-stats": {"grid_n": 128, "eps": 2.0 ** -4,
                    "eps_prime": 2.0 ** -5, "var_levels": [2, 4],
                    "probes": 3, "replicas": 300,
                    "f": {"center": 0.5, "radius": 0.2}},
    "moment-check": {"grid_n": 128, "gammas": [0.5],
                     "estimands": ["mean"], "eps": 2.0 ** -5,
                     "replicas": 400,
                     "f": {"center": 0.5, "radius": 0.2}},
    "cauchy": {"grid_n": 256, "gamma": 0.5, "eps_ladder": SHORT,
               "replicas": 300, "f": {"center": 0.5, "radius": 0.1}},
    "mollifier-independence": {"grid_n": 256, "gamma": 0.5,
                               "eps_ladder": SHORT, "replicas": 300,
                               "f": {"center": 0.5, "radius": 0.1}},
    "tail-check": {},
    "sup-prob": {"grid_n": 512, "lam": 1.6, "ks": [4, 5, 6],
                 "qs": [2, 4], "replicas": 400,
                 "f": {"center": 0.5, "radius": 0.2}},
    "tilt-check": {"replicas": 500},
    "sobolev": {"grid_n": 256, "eps_ladder": SHORT, "replicas": 200,
                "f": {"center": 0.5, "radius": 0.1}},
}


def report(num, name, ok):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name})"


@pytest.fixture(scope="module")
def bench2048():
    grid = Grid.regular((0.0, 1.0), 2048)
    f = bump_function(grid, center=0.5, radius=0.05)
    # each ladder draws the partial sums it reads: Y_2..Y_8 truncated at
    # q=2, Y_8 alone untruncated
    bench = Bench(SPEC, grid, 8, f=f)
    bench.add_channel("alt", Mollifier(d=1, profile="quartic"))
    return bench


def bench128():
    """The 128-point Bench of the moment and covariance checks."""
    grid = Grid.regular((0.0, 1.0), 128)
    f = bump_function(grid, center=0.5, radius=0.2)
    return Bench(SPEC, grid, 8, f=f)


class TestAcceptance:
    def test_01_closed_form_kernel(self):
        rs = np.linspace(1e-4, math.exp(-1.0), 50)
        vals = k_exact(SPEC, rs)
        target = np.log(1.0 / rs) - 2.0 + math.e * rs
        ok = bool(np.abs(vals - target).max() <= 1e-9)
        report(1, "closed-form kernel", ok)

    def test_02_positive_definiteness(self):
        four = pd_check(SPEC, Grid.regular((0.0, 1.0), 1024), n=1)
        ok = four.fourier_points == 1024 and four.fourier_min >= -1e-8
        grid64 = Grid.regular((0.0, 1.0), 64)
        for n in range(1, 9):
            g = gram(SPEC, n, grid64)
            eig_min = float(np.linalg.eigvalsh(g)[0])
            ok = ok and eig_min >= -1e-8 * float(np.trace(g))
        report(2, "positive definiteness", ok)

    def test_03_covariance_fidelity(self):
        ests = field_stats(bench128(), ns=[2, 5, 8], n_probes=20, eps=2 ** -4,
                           eps_prime=2 ** -5, replicas=10000, seed=0)
        ok = all(m.max_z is not None and m.max_z <= 4.0 for m in ests)
        report(3, "covariance fidelity", ok)

    def test_04_mean_identity(self):
        bench = bench128()
        f = bench.f
        ok = True
        for g in [0.5, 0.8, 0.5 + 0.5j, 1.1 + 0.25j]:
            m = mc_moment(bench, ChaosParams(f=f, gamma=g), "mean",
                          2 ** -5, replicas=10000, seed=1)
            ok = ok and m.max_z <= 4.0
        report(4, "mean identity", ok)

    def test_05_second_moment_oracle(self):
        bench = bench128()
        f = bench.f
        ok = True
        for g in [0.8, 0.5 + 0.5j]:
            for eps in [2 ** -4, 2 ** -5]:
                m = mc_moment(bench, ChaosParams(f=f, gamma=g), "product",
                              eps, eps_prime=eps, replicas=10000, seed=2)
                ok = ok and m.max_z <= 4.0
        report(5, "second-moment oracle", ok)

    def test_06_cauchy_ladders(self, bench2048):
        f = bench2048.f
        rep_a = cauchy_ladder(bench2048, ChaosParams(f=f, gamma=0.8), LADDER,
                              2000, 0)
        lam = pick_lambda(1, 1.1, 0.25)
        params = ChaosParams(f=f, gamma=1.1 + 0.25j, truncation=True, q=2,
                             lam=lam)
        rep_b = cauchy_ladder(bench2048, params, LADDER, 2000, 0)
        report(6, "cauchy ladders", rep_a.verdict and rep_b.verdict)

    def test_07_mollifier_independence(self, bench2048):
        rep = mollifier_independence(bench2048,
                                     ChaosParams(f=bench2048.f, gamma=0.8),
                                     LADDER, 2000, 0)
        report(7, "mollifier independence", rep.verdict)

    def test_08_truncation_events(self):
        grid = Grid.regular((0.0, 1.0), 512)
        f = bump_function(grid, center=0.5, radius=0.2)
        bench = Bench(SPEC, grid, 10, f=f)
        q_part = sup_field_prob(bench, 1.6, ks=[4, 5, 6], qs=[2, 4, 6, 8],
                                replicas=1000, seed=3)
        k_part = sup_field_prob(bench, 1.6, ks=[4, 5, 6, 7, 8, 9, 10],
                                qs=[2], replicas=10000, seed=4)
        ok = (q_part.q_increasing and q_part.q_final >= 0.99
              and k_part.decay_ok)
        report(8, "truncation events", ok)

    def test_09_tilted_event_scaling(self):
        seps = [math.exp(-k) for k in range(2, 6)]
        lam = pick_lambda(1, 1.1, 0.0)
        rep = tilted_event_prob(SPEC, seps, math.exp(-5), 2, lam, 1.1, 8,
                                replicas=10000, seed=5)
        report(9, "tilted-event scaling", rep.one_sided_ok)

    def test_10_kernel_estimate_stability(self):
        grid = Grid.regular((0.0, 1.0), 512)
        mol = kernel_estimate_check(SPEC, "mollified", grid,
                                    eps_ladder=LADDER)
        par = kernel_estimate_check(SPEC, "partial", grid,
                                    n_ladder=[4, 6, 8, 10, 12],
                                    eps_fixed=2 ** -4)
        report(10, "kernel estimate stability", mol.stable and par.stable)

    def test_11_tail_bound_table(self):
        rep = tail_bound_check()
        report(11, "tail bound table", rep.all_hold and rep.literal_violated)

    def test_12_sobolev_ladder(self, bench2048):
        lam = pick_lambda(1, 1.1, 0.25)
        params = ChaosParams(f=bench2048.f, gamma=1.1 + 0.25j,
                             truncation=True, q=2, lam=lam)
        rep = sobolev_ladder(bench2048, params, 0.75, LADDER, 500, 0)
        report(12, "sobolev ladder", rep.verdict)

    def test_13_reproducibility(self, tmp_path, capsys):
        # every runner kind at reduced scale: identical CSV bytes for 1 and
        # 8 workers, and a byte-verified replay of each run
        ok = True
        for kind, body in REPRO_CONFIGS.items():
            cfg = dict(body, kind=kind, seed=9)
            p = tmp_path / f"{kind}.json"
            p.write_text(json.dumps(cfg))
            hashes = {}
            for w in (1, 8):
                out = tmp_path / f"{kind}-w{w}"
                code = main(["--workers", str(w), "run", str(p),
                             "--out", str(out)])
                assert code in (0, 1), f"{kind} workers={w} exited {code}"
                doc = json.loads((out / "manifest.json").read_text())
                assert doc["run_id"] == run_id_of(cfg)
                hashes[w] = doc["csv_sha256"]
            same = hashes[1] == hashes[8]
            replay = main(["replay", str(tmp_path / f"{kind}-w1" /
                                         "manifest.json"),
                           "--out", str(tmp_path / f"{kind}-replay")])
            ok = ok and same and replay == 0
            capsys.readouterr()
        report(13, "reproducibility", ok)
