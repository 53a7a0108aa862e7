import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import erfc

import logchaos
from logchaos import (Bench, ChaosParams, Grid, KernelSpec, Mollifier,
                      PhaseError, bump_function, cauchy_ladder, chaos_density,
                      field_stats, gram, increment_factors,
                      kernel_estimate_check,
                      ladder_from_values, mc_moment, mc_moments,
                      moment_from_values, mollifier_independence,
                      sampled_rows, second_moment_oracle, sobolev_ladder,
                      sup_field_prob, tail_bound_check, tilted_event_prob,
                      trend_verdict, weight_matrix)
from logchaos.mollifier import discrete_stencil, interior_rows
from logchaos.verify import _ls_fit
from test_cli import TINY

SPEC = KernelSpec(d=1)
GRID = Grid.regular((0.0, 1.0), 128)
F = bump_function(GRID, center=0.5, radius=0.2)


def small_bench(n_max=7, f=F, grid=GRID):
    return Bench(SPEC, grid, n_max, f=f)


class TestMomentEstimate:
    def test_moments_and_se(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        m = moment_from_values("t", vals)
        assert m.estimate == 2.5 + 0j
        assert abs(m.se_re - vals.std(ddof=1) / 2.0) < 1e-15
        assert m.se_im == 0.0
        assert m.oracle is None and m.max_z is None

    def test_z_scores(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        m = moment_from_values("t", vals, oracle=2.0)
        assert abs(m.z_re - 0.5 / m.se_re) < 1e-12
        assert m.z_im == 0.0, "zero imag diff with zero imag SE is z=0"

    def test_exclusion(self):
        vals = np.array([1.0, 1.0, 1.0, 500.0])
        m = moment_from_values("t", vals, exclude=np.array([0, 0, 0, 1],
                                                           dtype=bool))
        assert m.excluded == 1
        assert m.replicas == 3
        assert m.estimate == 1.0 + 0j
        assert m.se_re == 0.0

    def test_degenerate_se_infinite_z(self):
        m = moment_from_values("t", np.array([2.0, 2.0]), oracle=1.0)
        assert math.isinf(m.z_re) and m.z_re > 0

    def test_too_few_survivors(self):
        with pytest.raises(ValueError):
            moment_from_values("t", np.array([1.0]))


class TestTrendVerdict:
    def test_clean_decrease(self):
        assert trend_verdict([1.0, 0.6, 0.3], [0.01, 0.01])

    def test_noise_bump_tolerated(self):
        # one small up-step within 2 SE does not spoil the verdict
        assert trend_verdict([1.0, 0.4, 0.41, 0.2], [0.02, 0.02, 0.02])

    def test_significant_increase_fails(self):
        assert not trend_verdict([1.0, 0.4, 0.9, 0.2], [0.02, 0.02, 0.02])

    def test_weak_total_decay_fails(self):
        assert not trend_verdict([1.0, 0.9, 0.8, 0.6], [1.0, 1.0, 1.0])

    def test_all_zero_ladder_converged(self):
        assert trend_verdict([0.0, 0.0, 0.0], [0.0, 0.0])

    def test_ladder_from_values_shapes(self):
        vals = np.abs(np.random.default_rng(0).standard_normal((3, 400)))
        vals[1] *= 0.5
        vals[2] *= 0.2
        rep = ladder_from_values("t", [(1, 2), (2, 3), (3, 4)], vals)
        assert len(rep.values) == 3
        assert len(rep.diffs) == 2 and len(rep.diff_ses) == 2
        assert rep.verdict

    def test_ladder_counts_exclusions_per_cell(self):
        # R = 80 gives 40 blocks of 2 replicas: cell 0 loses one replica of
        # block 0, cell 1 both replicas of blocks 0 and 5 plus one of block 9
        vals = np.ones((3, 80))
        keep = np.ones((3, 80), dtype=bool)
        keep[0, 0] = False
        keep[1, [0, 1, 10, 11, 18]] = False
        rep = ladder_from_values("t", [1, 2, 3], vals, keep)
        assert rep.cell_excluded == (1, 5, 0) and rep.excluded == 6
        assert rep.empty_blocks == (0, 2, 0)

    def test_ladder_needs_one_replica_per_block(self):
        vals = np.ones((2, 20))
        with pytest.raises(ValueError, match="median-of-means"):
            ladder_from_values("t", [1, 2], vals)


class TestSecondMomentOracle:
    def test_gamma_zero(self):
        val = second_moment_oracle(small_bench(), 0.0, 2 ** -4, 2 ** -4)
        target = (F.sum() * GRID.weight) ** 2
        assert abs(val - target) < 1e-12

    def test_support_violation(self):
        bench = small_bench(f=np.ones(GRID.n))
        with pytest.raises(ValueError, match="leaks outside D_eps"):
            second_moment_oracle(bench, 0.5, 2 ** -4, 2 ** -4)

    def test_complex_gamma_uses_modulus(self):
        bench = small_bench()
        a = second_moment_oracle(bench, 0.5 + 0.5j, 2 ** -4, 2 ** -4)
        b = second_moment_oracle(bench, math.sqrt(0.5), 2 ** -4, 2 ** -4)
        assert abs(a - b) < 1e-12, "oracle depends on gamma only through |gamma|^2"

    @pytest.mark.parametrize("n,radius", [(128, 0.2), (2048, 0.05)])
    def test_offset_sum_matches_pair_sum(self, n, radius):
        # sum_o acf_f(o) exp(c T(o)) w^2 against the sum over support pairs
        # f(x) f(y) exp(c T(x - y)) w^2 of the same offset values
        grid = Grid.regular((0.0, 1.0), n)
        bench = small_bench(f=bump_function(grid, 0.5, radius), grid=grid)
        supp, w = bench.supp, grid.weight
        f_s = bench.f[supp]
        for eps, eps2 in ((2 ** -4, 2 ** -4), (2 ** -4, 2 ** -5)):
            cross = bench.cross_table(eps, eps2)
            table = cross[np.subtract.outer(supp, supp) + supp.size - 1]
            for g in (0.8, 0.5 + 0.5j):
                pairs = f_s @ np.exp(abs(g) ** 2 * table) @ f_s * w * w
                got = second_moment_oracle(bench, g, eps, eps2)
                assert abs(got - pairs) <= 1e-14 * pairs


class TestBench:
    def test_block_determinism_across_workers(self):
        bench = small_bench()
        params = ChaosParams(f=F, gamma=0.6)
        a = mc_moment(bench, params, "mean", 2 ** -4, replicas=100, seed=5,
                      workers=1)
        b = mc_moment(bench, params, "mean", 2 ** -4, replicas=100, seed=5,
                      workers=3)
        assert a.estimate == b.estimate, "worker count leaked into bytes"
        assert a.se_re == b.se_re

    def test_support_leak_rejected(self):
        bench = Bench(SPEC, GRID, 7, f=np.ones(GRID.n))
        with pytest.raises(ValueError):
            bench.supp_tables("main", 2 ** -4)

    def test_cross_table_matches_variance_diag(self):
        # the Wick variance is the cross table at offset 0, bit for bit: both
        # come from the one lattice routine (moments-128 and ladder-2048
        # geometries)
        for n, radius, ks in ((128, 0.2, (4, 5)), (2048, 0.05, range(3, 8))):
            grid = Grid.regular((0.0, 1.0), n)
            bench = small_bench(n_max=8, f=bump_function(grid, 0.5, radius),
                                grid=grid)
            s = bench.supp.size
            for eps in (2.0 ** -k for k in ks):
                _, k_diag = bench.supp_tables("main", eps)
                cross = bench.cross_table(eps, eps)
                assert np.array_equal(k_diag, np.full(s, cross[s - 1])), eps

    def test_cholesky_jitter_recorded(self):
        # coincident points make every level Gram singular, so each free-set
        # factor needs jitter (the scalar Q_0 group needs none), grouped or
        # not, even where rounding leaves a tiny positive pivot; the
        # acceptance geometry is embedded instead, with every group's
        # eigenvalue ratio recorded and positive; a bench reports the
        # groups of its last draw, every level before any
        pair = Grid.from_points(np.array([[0.4], [0.4]]), (0.0, 1.0))
        net = Bench(SPEC, pair, 4).safety_net
        jitter = net["cholesky_jitter"]
        assert net["level_groups"] == [[k, k] for k in range(5)]
        assert len(jitter) == 5 and jitter[0] == 0.0
        assert all(j > 0.0 for j in jitter[1:])
        bench = Bench(SPEC, pair, 4)
        bench.map_blocks(0, 1, lambda start, z: (z,), draw=bench.draw([2]))
        grouped = bench.safety_net
        assert grouped["level_groups"] == [[0, 2], [3, 4]]
        assert len(grouped["cholesky_jitter"]) == 2
        assert all(j > 0.0 for j in grouped["cholesky_jitter"])
        fine = Grid.regular((0.0, 1.0), 2048)
        ratios = Bench(SPEC, fine, 8).safety_net["embedding_min_ratio"]
        assert len(ratios) == 9 and all(0.0 < r <= 1.0 for r in ratios)

    def test_unread_level_raises(self, monkeypatch):
        # a consumer asking for a partial sum a draw does not hold is
        # refused, never served from another slab; each estimator draws
        # exactly the partial sums it reads, so none asks for another
        from logchaos import verify
        bench = small_bench(8)
        draw = bench.draw([5])
        assert draw.slab(5) == 0 and draw.slab(8) == 1
        assert bench.draw().slab(3) == 3
        with pytest.raises(ValueError, match="Y_3 is not drawn"):
            draw.slab(3)
        drawn, inner = [], verify.block_z

        def recorded(spec, grid, factors, *args):
            drawn.append([(g.first, g.last) for g in factors])
            return inner(spec, grid, factors, *args)

        monkeypatch.setattr(verify, "block_z", recorded)
        params = ChaosParams(f=F, gamma=1.1 + 0.25j, truncation=True, q=2,
                             lam=2.0)
        ladder = [2 ** -3, 2 ** -4]
        barrier = [(0, 2)] + [(k, k) for k in range(3, 9)]
        calls = [
            (lambda b: field_stats(b, [2], 2, 2 ** -4, 2 ** -5, 40, 0),
             [(0, 2), (3, 8)]),
            (lambda b: cauchy_ladder(b, params, ladder, 40, 0), barrier),
            (lambda b: mc_moments(b, [(params, "event", 2 ** -4, None)], 40,
                                  0, trunc=(2, 2.0)), barrier),
            (lambda b: sup_field_prob(b, 1.6, [4], [5], 40, 0),
             [(0, 4)] + [(k, k) for k in range(5, 9)]),
            (lambda b: sup_field_prob(b, 1.6, [5], [4], 40, 0),
             [(0, 4)] + [(k, k) for k in range(5, 9)]),
        ]
        for call, groups in calls:
            drawn.clear()
            call(bench)
            assert drawn and all(g == groups for g in drawn)

    def test_empty_budget_rejected(self):
        with pytest.raises(ValueError, match="replicas"):
            small_bench().map_blocks(0, 0, lambda start, z: (z[0, 0],))

    def test_channels(self):
        bench = small_bench()
        bench.add_channel("alt", Mollifier(d=1, profile="quartic"))
        keys = [("main", 2 ** -4), ("alt", 2 ** -4)]
        (y,) = bench.map_blocks(0, 8, lambda start, z: (z.sum(axis=0),),
                                draw=bench.draw(keys=keys))
        xa, xb = bench.mollify(y, keys, bench.last_draw)
        assert xa.shape == xb.shape == (bench.supp.size, 8)
        assert np.abs(xa - xb).max() > 1e-3, "profiles must differ"

    def test_tables_independent_of_blas_threads(self, tmp_path):
        # the support diagonals, cross tables and moment oracles of the
        # ladder-2048 geometry are fixed-order sums, and the sampled fields
        # are mollified in pocketfft, so 1 and 2 BLAS threads give the same
        # bytes: the tables, a 40-replica ladder-2048 run's CSV, and every
        # CSV and resolved slope of a tiny run of each kind
        cfgs = [{"kind": "cauchy", "grid_n": 2048, "n_max": 8,
                 "replicas": 40, "eps_ladder": [2.0 ** -k for k in range(3, 8)],
                 "gamma": [1.1, 0.25], "q": 2, "lam": "auto",
                 "f": {"center": 0.5, "radius": 0.05}, "seed": 7}, *TINY]
        paths = []
        for i, cfg in enumerate(cfgs):
            paths.append(tmp_path / f"cfg{i}.json")
            paths[-1].write_text(json.dumps(cfg))
        script = "\n".join([
            "import contextlib, hashlib, io, json, pathlib, sys",
            "from logchaos import (Bench, Grid, KernelSpec, bump_function,",
            "                      cli, second_moment_oracle)",
            "grid = Grid.regular((0.0, 1.0), 2048)",
            "f = bump_function(grid, center=0.5, radius=0.05)",
            "bench = Bench(KernelSpec(d=1), grid, 8, f=f)",
            "ladder = [2.0 ** -k for k in range(3, 8)]",
            "for eps in ladder:",
            "    kd = bench.supp_tables('main', eps)[1]",
            "    print(hashlib.sha256(kd.tobytes()).hexdigest())",
            "for eps, eps2 in zip(ladder, ladder[1:]):",
            "    cross = bench.cross_table(eps, eps2)",
            "    print(hashlib.sha256(cross.tobytes()).hexdigest())",
            "    for g in (0.8, 0.5 + 0.5j):",
            "        print(second_moment_oracle(bench, g, eps, eps2).hex())",
            "for path in sys.argv[1:]:",
            "    out = path + '.out'",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        code = cli.main(['run', path, '--out', out])",
            "    doc = json.loads((pathlib.Path(out) / 'manifest.json')",
            "                     .read_text())",
            "    slopes = [doc['resolved'].get(k) for k in ('slope', 'slope_se')]",
            "    print(json.dumps([code, doc['csv_sha256'], slopes],",
            "                     sort_keys=True).replace(' ', ''))",
        ])
        src = str(pathlib.Path(logchaos.__file__).resolve().parents[1])
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run(
                [sys.executable, "-c", script, *map(str, paths)], env=env,
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            out.append(proc.stdout.split())
        assert len(out[0]) == 17 + len(cfgs) and out[0] == out[1]
        runs = [json.loads(line) for line in out[0][17:]]
        assert all(code in (0, 1) and hashes for code, hashes, _ in runs)
        slopes = {cfg["kind"]: s for cfg, (_, _, s) in zip(cfgs, runs)}
        assert all(v is not None for k in ("sup-prob", "tilt-check")
                   for v in slopes[k])


class TestBatches:
    """map_blocks hands consume k consecutive blocks at once; its outputs
    are bitwise those of one consume call per block, whatever k, the
    budget or the worker count."""

    SEED = 11

    # an untruncated sweep reads Y_8 alone on the rows its widest eps
    # convolves: one group, 120 normals per replica on the moments-128
    # geometry
    LEVELS = [8]
    KEYS = [("main", 2 ** -4), ("main", 2 ** -5)]

    @staticmethod
    def moments_bench():
        grid = Grid.regular((0.0, 1.0), 128)
        f = bump_function(grid, center=0.5, radius=0.2)
        return Bench(SPEC, grid, 8, f=f)

    def sweep(self, bench):
        """(consume, draw) that the moments sweep (verify._chaos_values)
        hands map_blocks."""
        from logchaos import verify
        seen = {}

        def record(seed, replicas, consume, workers=None, draw=None):
            seen.update(consume=consume, draw=draw)

        bench.map_blocks = record
        verify._chaos_values(bench, [0.8, 0.5 + 0.5j], self.KEYS, None, 1,
                             self.SEED, 1)
        del bench.map_blocks
        return seen["consume"], seen["draw"]

    def per_block(self, bench, replicas):
        from logchaos import verify
        consume, draw = self.sweep(bench)
        assert draw.tops == tuple(self.LEVELS)
        factors = increment_factors(bench.spec, bench.grid, bench.n_max,
                                    draw.rows, draw.tops)
        outs = [consume(start, verify.block_z(bench.spec, bench.grid,
                                              factors, self.SEED, start,
                                              bench.n_max, None))
                for start in range(0, replicas, verify.BLOCK)]
        return tuple(np.concatenate([o[j] for o in outs], axis=-1)[..., :replicas]
                     for j in range(len(outs[0])))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("replicas", [1, 33, 128, 300])
    def test_batches_match_per_block_calls(self, replicas, workers):
        from logchaos import verify
        bench = self.moments_bench()
        (consume, draw), calls = self.sweep(bench), []

        def recorded(start, z):
            calls.append((start, z.shape[-1]))
            return consume(start, z)

        got = bench.map_blocks(self.SEED, replicas, recorded, workers, draw)
        assert sum(g.draws for g in bench.factors) == 120
        want = self.per_block(bench, replicas)
        assert [a.shape for a in got] == [(4, replicas)] * 2
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        # 4 blocks of 32 per batch; the last batch holds what is left
        drawn = -(-replicas // verify.BLOCK) * verify.BLOCK
        assert sorted(calls) == [(s, min(128, drawn - s))
                                 for s in range(0, replicas, 128)]

    def test_first_replicas_independent_of_budget(self):
        bench = self.moments_bench()
        consume, draw = self.sweep(bench)
        firsts = [tuple(a[..., :100] for a in bench.map_blocks(
            self.SEED, r, consume, workers=1, draw=draw))
            for r in (100, 128, 300)]
        for other in firsts[1:]:
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(firsts[0], other))

    def test_ladder_batch_is_one_block_uncopied(self, monkeypatch):
        # ladder-2048: one block of the truncated (q=2) ladder's draw of
        # Y_2..Y_8, on the rows its head 2^-3 convolves, holds 7 groups x
        # 716 rows x 32 values
        from logchaos import verify
        grid = Grid.regular((0.0, 1.0), 2048)
        f = bump_function(grid, center=0.5, radius=0.05)
        bench = Bench(SPEC, grid, 8, f=f)
        drawn, inner = [], verify.block_z

        def recorded(*args, **kwargs):
            drawn.append(inner(*args, **kwargs))
            return drawn[-1]

        def consume(start, z):
            assert z is drawn[-1], "a one-block batch is block_z's array"
            return (np.full(z.shape[-1], start),)

        monkeypatch.setattr(verify, "block_z", recorded)
        (starts,) = bench.map_blocks(
            0, 64, consume, workers=1,
            draw=bench.draw(range(2, 9), [("main", 2 ** -3)]))
        assert drawn[0].shape == (7, 716, 32) and len(drawn) == 2
        assert starts.tolist() == [0] * 32 + [32] * 32

    def test_outputs_held_once(self, monkeypatch):
        # every batch writes into one output array per consume result, so
        # a field-stats sweep at 100 probes (824 B a replica) peaks near its
        # output bytes, under 1 and 2 workers alike; concatenating the kept
        # batches held them twice
        import tracemalloc
        from logchaos import verify
        grid = Grid.regular((0.0, 1.0), 256)
        bench = Bench(SPEC, grid, 6, f=bump_function(grid, center=0.5,
                                                     radius=0.2))
        bench.cross_table(2 ** -4, 2 ** -5)
        seen, inner = {}, verify.Bench.map_blocks

        def traced(self, *args, **kwargs):
            tracemalloc.start()
            try:
                out = inner(self, *args, **kwargs)
                seen["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            seen["bytes"] = sum(o.nbytes for o in out)
            return out

        monkeypatch.setattr(verify.Bench, "map_blocks", traced)
        results = []
        for workers in (1, 2):
            ests = field_stats(bench, [2, 4, 6], 100, 2 ** -4, 2 ** -5,
                               10 ** 4, 7, workers=workers)
            assert seen["bytes"] == 10 ** 4 * 103 * 8
            assert seen["peak"] < 1.3 * seen["bytes"], (workers, seen)
            results.append([(m.estimate, m.se_re, m.se_im) for m in ests])
        assert results[0] == results[1]


class TestSampledWindow:
    """A draw holds only the rows its keys convolve (sampler.sampled_rows
    at the widest eps among them)."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([64, 128, 256]),
           center=st.floats(0.05, 0.95), radius=st.floats(0.005, 0.45),
           frac=st.floats(0.0, 1.0))
    def test_support_columns_inside_window(self, n, center, radius, frac):
        # every eps the program admits for f (h <= eps/4 and supp(f) in
        # D_eps), up to the largest such eps, convolves only the rows of
        # a draw that mollifies at it
        grid = Grid.regular((0.0, 1.0), n)
        f = bump_function(grid, center=center, radius=radius)
        supp = np.flatnonzero(f)
        assume(supp.size > 0)
        pts = grid.points[supp, 0]
        half = min(pts.min(), 1.0 - pts.max()) / 2.0
        cands = [2.0 ** -k for k in range(1, 9)]
        cands += [np.nextafter(half, 0.0),
                  4.0 * grid.h + frac * (half - 4.0 * grid.h)]
        admitted = [e for e in cands if grid.h <= e / 4.0 and 0.0 < e <= 1.0
                    and np.isin(supp, grid.interior_idx(2.0 * e)).all()]
        bench = Bench(SPEC, grid, 2, f=f)
        for eps in admitted:
            keys = [("main", eps)]
            draw = bench.draw(keys=keys)
            lo, hi = draw.lo, draw.hi
            assert (lo, hi) == sampled_rows(grid, f, eps)
            _, w = weight_matrix(grid, Mollifier(d=1), eps)
            rows = grid.interior_idx(2.0 * eps)
            live = np.flatnonzero(w[np.isin(rows, supp)].any(axis=0))
            assert lo <= live[0] and live[-1] <= hi, f"eps={eps}"
            offs, _ = discrete_stencil(Mollifier(d=1), eps, grid.h)
            taps = supp[:, None] + offs[:, 0]
            assert lo <= taps.min() and taps.max() <= hi, f"eps={eps}"
            # the symmetric stencil keeps a linear field, so a tap wrapped
            # around the torus would show on the grid-row ramp
            (x,) = bench.mollify(np.arange(lo, hi + 1.0)[:, None], keys,
                                 draw)
            assert np.abs(x[:, 0] - supp).max() < 1e-10, f"eps={eps}"

    def test_window_leak_raises(self):
        # a draw whose widest key is eps convolves at eps, and refuses, not
        # reads, a wider eps f admits whose stencil reaches one row further
        # (1% past (floor(eps / h) + 1) h: nearer, the bump's end taps
        # underflow to 0)
        for eps in (2 ** -4, 0.07):
            bench = Bench(SPEC, GRID, 7, f=F)
            keys = [("main", eps)]
            draw = bench.draw(keys=keys)
            (y,) = bench.map_blocks(0, 1, lambda start, z: (z.sum(axis=0),),
                                    draw=draw)
            bench.mollify(y, keys, draw)
            offs, _ = discrete_stencil(Mollifier(d=1), eps, GRID.h)
            taps = np.flatnonzero(F)[:, None] + offs[:, 0]
            assert draw.lo <= taps.min() and taps.max() <= draw.hi
            reach = math.floor(eps / GRID.h) + 1
            wider = 1.01 * reach * GRID.h
            offs, _ = discrete_stencil(Mollifier(d=1), wider, GRID.h)
            assert offs[-1, 0] == reach
            assert np.isin(np.flatnonzero(F),
                           GRID.interior_idx(2.0 * wider)).all()
            bench.supp_tables("main", wider)
            with pytest.raises(ValueError, match="outside the sampled rows"):
                bench.mollify(y, [("main", wider)], draw)

    # each estimator's call on a Bench built with no window, and the
    # widest eps it mollifies (0: its events read supp(f) alone); the
    # truncated calls read Y_2..Y_8
    TRUNC = ChaosParams(f=F, gamma=1.1 + 0.25j, truncation=True, q=2,
                        lam=1.6)
    ESTIMATORS = [
        (lambda b: mc_moments(b, [(ChaosParams(f=F, gamma=0.5), "mean",
                                   2 ** -4, None)], 40, 0), 2 ** -4),
        (lambda b: mc_moment(b, ChaosParams(f=F, gamma=0.5), "product",
                             2 ** -5, eps_prime=2 ** -4, replicas=40),
         2 ** -4),
        (lambda b: mc_moments(b, [(ChaosParams(f=F, gamma=0.5), "event",
                                   2 ** -3, None)], 40, 0, trunc=(2, 1.6)),
         0.0),
        (lambda b: cauchy_ladder(b, TestSampledWindow.TRUNC,
                                 [2 ** -3, 2 ** -4], 40, 0), 2 ** -3),
        (lambda b: mollifier_independence(
            b, ChaosParams(f=F, gamma=0.5), [2 ** -4, 2 ** -3], 40, 0),
         2 ** -3),
        (lambda b: sobolev_ladder(b, TestSampledWindow.TRUNC, 0.75,
                                  [2 ** -3, 2 ** -4], 40, 0), 2 ** -3),
        (lambda b: field_stats(b, [2], 2, 2 ** -5, 2 ** -4, 40, 0), 2 ** -4),
        (lambda b: sup_field_prob(b, 1.6, [4], [2], 40, 0), 0.0),
    ]
    ESTIMATOR_IDS = ["mc_moments", "mc_moment", "event", "cauchy_ladder",
                     "mollifier_independence", "sobolev_ladder",
                     "field_stats", "sup_field_prob"]

    @pytest.mark.parametrize("call,widest", ESTIMATORS, ids=ESTIMATOR_IDS)
    def test_estimator_draws_its_widest_rows(self, call, widest):
        # tilted_event_prob draws free points, all N rows of which a draw
        # holds (test_sampler test_full_grid_without_window)
        bench = Bench(SPEC, GRID, 8, f=F)
        bench.add_channel("alt", Mollifier(d=1, profile="quartic"))
        bench.draw(keys=[("main", 0.14)])
        call(bench)
        rows = sampled_rows(GRID, F, widest)
        assert bench.safety_net["sampled_rows"] == list(rows)
        assert rows != sampled_rows(GRID, F, 0.14)

    def test_ladders_share_blocks_by_head(self):
        # a draw's rows depend on its widest eps alone: ladders 2^-3..2^-7
        # and 2^-3..2^-6 share the head, so they draw the same blocks and
        # share cells, while 2^-4..2^-7 draws fewer rows (test_cli
        # TestReplayContract: the runs draw the same way)
        from logchaos import verify
        grid = Grid.regular((0.0, 1.0), 512)
        f = bump_function(grid, center=0.5, radius=0.05)
        params = ChaosParams(f=f, gamma=0.6)
        blocks, reps, rows = [], [], []
        for ladder in ([2.0 ** -k for k in range(3, 8)],
                       [2.0 ** -k for k in range(3, 7)],
                       [2.0 ** -k for k in range(4, 8)]):
            bench = Bench(SPEC, grid, 8, f=f)
            reps.append(cauchy_ladder(bench, params, ladder, replicas=64,
                                      seed=4))
            rows.append(bench.safety_net["sampled_rows"])
            blocks.append(bench.map_blocks(
                4, 64, lambda start, z: (z,),
                draw=bench.draw([8], [("main", e) for e in ladder]))[0])
            assert verify._chaos_levels(bench, None) == [8]
        assert rows[0] == rows[1] == list(sampled_rows(grid, f, 2.0 ** -3))
        assert np.array_equal(blocks[0], blocks[1])
        assert reps[0].values[:3] == reps[1].values
        assert reps[0].diff_ses[:2] == reps[1].diff_ses
        assert rows[2] == list(sampled_rows(grid, f, 2.0 ** -4))
        assert rows[0][0] < rows[2][0] and rows[2][1] < rows[0][1]
        assert blocks[2].shape[1] < blocks[0].shape[1]

    @pytest.mark.parametrize("call,widest", ESTIMATORS, ids=ESTIMATOR_IDS)
    def test_estimator_reads_its_own_draw(self, call, widest):
        # another call on the same Bench draws wider rows before every
        # batch, as a second thread would: each consume reads the rows of
        # its own Draw, so the estimate keeps its bytes
        def bench():
            b = Bench(SPEC, GRID, 8, f=F)
            b.add_channel("alt", Mollifier(d=1, profile="quartic"))
            return b

        ref, shared = call(bench()), bench()
        own = shared.map_blocks

        def interleaved(seed, replicas, consume, *args, **kw):
            def wrapped(start, z):
                own(0, 1, lambda s, zb: (zb[0, 0],),
                    draw=shared.draw(keys=[("main", 0.14)]))
                assert shared.last_draw.lo < sampled_rows(GRID, F, widest)[0]
                return consume(start, z)
            return own(seed, replicas, wrapped, *args, **kw)

        shared.map_blocks = interleaved
        assert repr(call(shared)) == repr(ref)

    @pytest.mark.parametrize("call,widest", ESTIMATORS, ids=ESTIMATOR_IDS)
    def test_estimator_draws_once(self, call, widest):
        # each estimator builds the Draw of its sweep once and hands that
        # same Draw to its consume and to map_blocks
        bench = Bench(SPEC, GRID, 8, f=F)
        bench.add_channel("alt", Mollifier(d=1, profile="quartic"))
        calls, own = [], bench.draw

        def counted(*args, **kw):
            calls.append(args)
            return own(*args, **kw)

        bench.draw = counted
        call(bench)
        assert len(calls) == 1


class TestEngineAgreement:
    """The block engine's chaos values against an inline numpy Wick sum over
    the same draws, replica by replica: the oracle convolves with the dense
    W on the full grid and reads the variance from the dense W G W^T."""

    EPS = 2 ** -4
    N_MAX = 7
    SUPP = np.flatnonzero(F)

    def field(self, bench, seed, replicas, levels=None):
        """(X_eps on supp(F), block slabs) of the bench's draws of levels on
        the rows the eps convolution reads."""
        (z,) = bench.map_blocks(seed, replicas, lambda start, zb: (zb,),
                                draw=bench.draw(levels, [("main", self.EPS)]))
        rows, w = weight_matrix(GRID, Mollifier(d=1), self.EPS)
        y = np.zeros((GRID.n, replicas))
        y[bench.last_draw.lo:bench.last_draw.hi + 1] = z.sum(axis=0)
        return w[np.searchsorted(rows, self.SUPP)] @ y, z

    def k_diag(self):
        """Var(X_eps) on supp(F) by the dense definition diag(W G W^T)."""
        rows, w = weight_matrix(GRID, Mollifier(d=1), self.EPS)
        w = w[np.searchsorted(rows, self.SUPP)]
        g = sum(gram(SPEC, k, GRID) for k in range(self.N_MAX + 1))
        return np.einsum("ij,jk,ik->i", w, g, w)

    @pytest.mark.parametrize("trunc", [None, (2, 1.6)])
    def test_mean_matches_inline_wick_sum(self, trunc):
        # 40 replicas cross the block-of-32 boundary; the summation order
        # differs between the two, so agreement is to 1e-10 relative
        # on the draw the estimator reads: Y_q..Y_n_max, or Y_n_max alone
        R, seed, gamma = 40, 5, 0.6 + 0.3j
        bench = small_bench(self.N_MAX)
        q = self.N_MAX if trunc is None else trunc[0]
        x, z = self.field(bench, seed, R, range(q, self.N_MAX + 1))
        dens = (np.exp(gamma * x - 0.5 * gamma ** 2 * self.k_diag()[:, None])
                * F[self.SUPP][:, None])
        vals = dens.sum(axis=0) * GRID.weight
        if trunc is not None:
            # Y_k <= k lam for k in q..n_max: slab i sums up to level q + i
            lam = trunc[1]
            ys = np.cumsum(z, axis=0)[:, self.SUPP - bench.last_draw.lo]
            ok = (ys <= lam * np.arange(q, self.N_MAX + 1)[:, None, None]
                  ).all(axis=0)
            full, vals = vals, (dens * ok).sum(axis=0) * GRID.weight
            assert np.any(vals != full), \
                "no replica left the barrier event; the case is vacuous"
        m = mc_moment(bench, ChaosParams(f=F, gamma=gamma), "mean", self.EPS,
                      replicas=R, seed=seed, trunc=trunc)
        assert m.replicas == R and m.excluded == 0
        assert abs(m.estimate - vals.mean()) <= 1e-10 * abs(vals.mean())

    def test_two_field_matches_inline_formula(self):
        # chaos_density with stacked coefficients (alpha, i beta) over the
        # bench tables, X and Y drawn at two seeds
        alpha, beta = 0.8, 0.4
        bench = small_bench(self.N_MAX)
        (x, _), (y, _) = self.field(bench, 7, 8), self.field(bench, 8, 8)
        expo = (alpha * x + 1j * beta * y
                + 0.5 * (beta ** 2 - alpha ** 2) * self.k_diag()[:, None])
        expect = (np.exp(expo) * F[self.SUPP][:, None]).sum(axis=0) * GRID.weight
        _, kd = bench.supp_tables("main", self.EPS)
        keys = [("main", self.EPS)]
        draw = bench.draw(keys=keys)
        xy = np.stack([bench.map_blocks(seed, 8, lambda start, zb: (
            bench.mollify(zb.sum(axis=0), keys, draw)[0],), draw=draw)[0]
            for seed in (7, 8)])
        dens, ovf = chaos_density((alpha, 1j * beta), xy, kd, F[bench.supp])
        got = dens.sum(axis=0) * GRID.weight
        assert not ovf.any()
        assert np.all(np.abs(got - expect) <= 1e-10 * np.abs(expect))


class TestMcMoment:
    def test_mean_gamma_zero_exact(self):
        bench = small_bench()
        m = mc_moment(bench, ChaosParams(f=F, gamma=0.0), "mean", 2 ** -4,
                      replicas=50, seed=0)
        # every replica integrates the same constant, so the spread is pure
        # summation rounding (np.std of a constant array is ulp-level, not 0)
        assert m.se_re < 1e-15 and m.se_im < 1e-15
        assert m.excluded == 0
        assert abs(m.estimate - m.oracle) < 5e-14
        assert m.max_z == 0.0, "ulp-level gaps must not register as z-failures"

    def test_mean_identity_z_gate(self):
        bench = small_bench()
        m = mc_moment(bench, ChaosParams(f=F, gamma=0.5), "mean", 2 ** -4,
                      replicas=1500, seed=1)
        assert m.max_z is not None and m.max_z <= 4.0, f"z = {m.max_z}"

    def test_product_oracle_z_gate(self):
        bench = small_bench()
        m = mc_moment(bench, ChaosParams(f=F, gamma=0.5), "product", 2 ** -4,
                      eps_prime=2 ** -4, replicas=1500, seed=2)
        assert m.oracle is not None and m.oracle.imag == 0.0
        assert m.max_z <= 4.0, f"z = {m.max_z}"

    def test_distance2_gamma_zero_exactly_zero(self):
        bench = small_bench()
        m = mc_moment(bench, ChaosParams(f=F, gamma=0.0), "distance2",
                      2 ** -3, eps_prime=2 ** -4, replicas=50, seed=3)
        assert m.estimate == 0.0 + 0.0j
        assert m.se_re == 0.0
        assert m.z_re == 0.0, "constants cancel exactly at gamma = 0"

    def test_distance2_oracle_z_gate(self):
        bench = small_bench()
        m = mc_moment(bench, ChaosParams(f=F, gamma=0.5), "distance2",
                      2 ** -3, eps_prime=2 ** -4, replicas=2000, seed=4)
        assert m.oracle is not None and m.oracle.real > 0
        assert m.max_z <= 4.0, f"z = {m.max_z}"

    def test_event_sure_at_huge_lambda(self):
        bench = small_bench()
        params = ChaosParams(f=F, gamma=0.8, truncation=True, q=2, lam=50.0)
        m = mc_moment(bench, params, "event", 2 ** -4, replicas=200, seed=5,
                      trunc=(2, 50.0))
        assert m.estimate == 1.0 + 0j and m.se_re == 0.0

    def test_event_needs_trunc(self):
        bench = small_bench()
        with pytest.raises(ValueError):
            mc_moment(bench, ChaosParams(f=F, gamma=0.8), "event", 2 ** -4,
                      replicas=64, seed=0)

    def test_two_field_params_rejected(self):
        # one sampled field cannot carry two-field chaos; reading
        # params.gamma instead would silently compute gamma = 0
        params = ChaosParams(f=F, mode="two-field", alpha=0.8, beta=0.4)
        with pytest.raises(ValueError, match="two-field"):
            mc_moment(small_bench(), params, "mean", 2 ** -4, replicas=40)

    def test_unknown_estimand(self):
        bench = small_bench()
        with pytest.raises(ValueError):
            mc_moment(bench, ChaosParams(f=F, gamma=0.5), "variance", 2 ** -4,
                      replicas=64, seed=0)

    def test_pair_estimand_needs_eps_prime(self):
        bench = small_bench()
        with pytest.raises(ValueError):
            mc_moment(bench, ChaosParams(f=F, gamma=0.5), "product", 2 ** -4,
                      replicas=64, seed=0)


class TestMomentSweep:
    """One mc_moments sweep against a separate mc_moment call per job."""

    EPS, EPS_PRIME = 2 ** -3, 2 ** -4

    def jobs(self, estimands=("mean", "product", "distance2")):
        return [(ChaosParams(f=F, gamma=g), est, self.EPS, self.EPS_PRIME)
                for g in (0.8, 0.5 + 0.5j) for est in estimands]

    def assert_bitwise(self, bench, jobs, workers, trunc=None):
        sweep = mc_moments(bench, jobs, replicas=100, seed=6,
                           workers=workers, trunc=trunc)
        assert len(sweep) == len(jobs)
        for (params, est, eps, eps_p), m in zip(jobs, sweep):
            if est == "event":
                # an event convolves nothing, so alone it draws the rows of
                # supp(f) only: a mean at the sweep's widest eps (every
                # job's eps here) gives it the sweep's rows
                alone = mc_moments(bench, [(params, est, eps, eps_p),
                                           (params, "mean", self.EPS, None)],
                                   replicas=100, seed=6, workers=workers,
                                   trunc=trunc)[0]
            else:
                alone = mc_moment(bench, params, est, eps, eps_prime=eps_p,
                                  replicas=100, seed=6, workers=workers,
                                  trunc=trunc)
            # repr tells -0.0 from 0.0: estimate, SEs, z, oracle, excluded
            assert repr(m) == repr(alone), est

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_separate_calls(self, workers):
        bench = small_bench()
        self.assert_bitwise(bench, self.jobs(), workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_truncated_with_event(self, workers):
        bench = small_bench()
        jobs = self.jobs(("mean", "event", "product", "distance2"))
        self.assert_bitwise(bench, jobs, workers, trunc=(2, 1.6))
        event = mc_moments(bench, jobs[1:2], replicas=100, seed=6,
                           trunc=(2, 1.6))[0]
        assert 0.0 < event.estimate.real < 1.0, "the barrier event is vacuous"

    def test_oracle_table_per_eps_pair(self, monkeypatch):
        # product and distance2 at two gammas need the (eps, eps'), (eps,
        # eps) and (eps', eps') tables once each, not once per gamma, and
        # a second sweep on the same bench reads the bench's cached tables
        from logchaos import kernels
        built = []
        table = kernels.offset_table

        def counted(spec, grid, rows, rows_p, eps, eps_prime, *args):
            built.append((eps, eps_prime))
            return table(spec, grid, rows, rows_p, eps, eps_prime, *args)

        monkeypatch.setattr(kernels, "offset_table", counted)
        bench = small_bench()
        for seed in (1, 2):
            ests = mc_moments(bench, self.jobs(("product", "distance2")),
                              replicas=40, seed=seed)
            assert all(m.oracle is not None for m in ests)
        assert sorted(built) == sorted([(self.EPS, self.EPS_PRIME),
                                        (self.EPS, self.EPS),
                                        (self.EPS_PRIME, self.EPS_PRIME)])

    def test_oracle_memory_bounded_by_support(self):
        # the oracles read support x support tables (204 rows of a
        # radius-0.05 bump at N=2048), not the 1,536 x 1,792 D_eps x D_eps'
        # matrix, which holds 22 MB per array
        import tracemalloc
        grid = Grid.regular((0.0, 1.0), 2048)
        f = bump_function(grid, center=0.5, radius=0.05)
        bench = Bench(SPEC, grid, 8, f=f)
        jobs = [(ChaosParams(f=f, gamma=g), est, 2 ** -4, 2 ** -5)
                for g in (0.8, 0.5 + 0.5j) for est in ("product", "distance2")]
        tracemalloc.start()
        try:
            ests = mc_moments(bench, jobs, replicas=64, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(m.oracle is not None for m in ests)
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"

    def test_cross_tables_memory_bounded(self):
        # the nine support x support tables of an exact Cauchy ladder at
        # N=2048 (bump radius 0.05, eps 2^-3..2^-7, pairs (i, i) and
        # (i, i+1)): the d=1 kernel holds its radii once, at any level
        # count, where a level-by-level sum peaked at 31 MB
        import tracemalloc
        grid = Grid.regular((0.0, 1.0), 2048)
        bench = Bench(SPEC, grid, 8, f=bump_function(grid, 0.5, 0.05))
        ladder = [2.0 ** -k for k in range(3, 8)]
        pairs = [(e, e) for e in ladder] + list(zip(ladder, ladder[1:]))
        tracemalloc.start()
        try:
            tables = [bench.cross_table(e, e2) for e, e2 in pairs]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tables) == 9
        assert all(t.shape == (2 * bench.supp.size - 1,) for t in tables)
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"

    def test_params_f_must_be_the_bench_f(self):
        # the sweep integrates the bench's test function; a different
        # params.f would be silently ignored
        other = bump_function(GRID, center=0.5, radius=0.1)
        with pytest.raises(ValueError, match="params.f"):
            mc_moments(small_bench(), [(ChaosParams(f=other, gamma=0.5),
                                        "mean", self.EPS, None)])

    def test_bad_job_rejected_before_sampling(self, monkeypatch):
        from logchaos import verify

        def no_draws(*a, **k):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(verify, "block_z", no_draws)
        bench = small_bench()
        with pytest.raises(ValueError, match="unknown estimand"):
            mc_moments(bench, self.jobs() + [(ChaosParams(f=F), "variance",
                                             self.EPS, None)])


class TestCauchyLadder:
    def test_gamma_zero_identically_zero(self):
        bench = small_bench()
        rep = cauchy_ladder(bench, ChaosParams(f=F, gamma=0.0),
                            [2 ** -3, 2 ** -4, 2 ** -5], replicas=100, seed=0)
        assert all(v == 0.0 for v in rep.values)
        assert rep.verdict, "all-zero ladder counts as converged"

    def test_values_nonnegative(self):
        bench = small_bench()
        rep = cauchy_ladder(bench, ChaosParams(f=F, gamma=0.5),
                            [2 ** -3, 2 ** -4, 2 ** -5], replicas=800, seed=1)
        assert all(v >= 0.0 for v in rep.values)
        assert len(rep.steps) == 2

    def test_ladder_must_decrease(self):
        bench = small_bench()
        with pytest.raises(ValueError):
            cauchy_ladder(bench, ChaosParams(f=F, gamma=0.5),
                          [2 ** -4, 2 ** -4], replicas=64, seed=0)

    def test_params_f_must_be_the_bench_f(self):
        other = bump_function(GRID, center=0.5, radius=0.1)
        with pytest.raises(ValueError, match="params.f"):
            cauchy_ladder(small_bench(), ChaosParams(f=other, gamma=0.5),
                          [2 ** -3, 2 ** -4], replicas=64, seed=0)

    def test_one_rung_rejected(self):
        # cells are consecutive pairs: one rung has none
        with pytest.raises(ValueError, match="eps_ladder needs at least 2"):
            cauchy_ladder(small_bench(), ChaosParams(f=F, gamma=0.5),
                          [2 ** -3], replicas=64, seed=0)


class TestMollifierIndependence:
    def test_same_profile_is_zero(self):
        bench = small_bench()
        bench.add_channel("alt", Mollifier(d=1, profile="bump"))
        rep = mollifier_independence(bench, ChaosParams(f=F, gamma=0.5),
                                     [2 ** -3, 2 ** -4], replicas=100, seed=0)
        assert all(v == 0.0 for v in rep.values)
        assert rep.verdict

    def test_distinct_profiles_nonzero(self):
        bench = small_bench()
        bench.add_channel("alt", Mollifier(d=1, profile="quartic"))
        rep = mollifier_independence(bench, ChaosParams(f=F, gamma=0.5),
                                     [2 ** -3, 2 ** -4, 2 ** -5],
                                     replicas=800, seed=1)
        assert all(v > 0.0 for v in rep.values)


class TestKernelEstimateCheck:
    def test_single_rung_matches_manual_rebuild(self):
        # the supremum over every (row, row') pair of the dense table; on
        # dyadic grids each pair of an offset has the same separation, so
        # the offset suprema are bitwise equal, and to rounding elsewhere
        import logchaos.kernels as kernels
        for n, eps, nodes, rtol in ((256, 2 ** -4, 32, 0.0),
                                    (300, 2 ** -4, 32, 4e-15)):
            spec = KernelSpec(d=1, q0=0.7)
            grid = Grid.regular((0.0, 1.0), n)
            rep = kernel_estimate_check(spec, "mollified", grid,
                                        eps_ladder=[eps], nodes=nodes)
            mol = Mollifier(d=1)
            rows = rows_p = interior_rows(grid, mol, eps)
            lo, _, vals = kernels.offset_table(
                spec, grid, rows, rows_p, eps, eps, mol, "midpoint",
                kernels.exact_level(spec, eps), nodes)
            values = vals[np.subtract.outer(rows, rows) - lo]
            r = np.abs(grid.points[rows] - grid.points[rows_p].T)
            ref = -np.log(np.maximum(r, eps))
            manual = float(np.abs(values - ref).max())
            if rtol == 0.0:
                assert rep.suprema[0] == manual, n
            else:
                assert abs(rep.suprema[0] - manual) <= rtol * manual, n
            assert rep.ratios == () and rep.stable

    def test_memory_bounded_by_offsets(self):
        # a dense 1,024 x 1,536 table of the first cell would hold 12.6 MB
        # per array; the offset suprema hold a few offset rows
        import tracemalloc
        grid = Grid.regular((0.0, 1.0), 2048)
        tracemalloc.start()
        try:
            kernel_estimate_check(SPEC, "mollified", grid,
                                  eps_ladder=[2 ** -3, 2 ** -4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"

    def test_log_floor_off_keeps_divergence(self):
        # dropping the log reference leaves the full |K| magnitude behind
        grid = Grid.regular((0.0, 1.0), 256)
        with_ref = kernel_estimate_check(SPEC, "mollified", grid,
                                         eps_ladder=[2 ** -4])
        without = kernel_estimate_check(SPEC, "mollified", grid,
                                        eps_ladder=[2 ** -4],
                                        log_floor=False)
        assert without.suprema[0] > with_ref.suprema[0]
        assert without.suprema[0] > 0.5 * math.log(16.0)

    def test_mollified_stability_short_ladder(self):
        grid = Grid.regular((0.0, 1.0), 256)
        rep = kernel_estimate_check(SPEC, "mollified", grid,
                                    eps_ladder=[2 ** -3, 2 ** -4, 2 ** -5])
        assert rep.stable, f"ratios {rep.ratios}"
        assert all(s < 5.0 for s in rep.suprema)

    def test_partial_stability(self):
        grid = Grid.regular((0.0, 1.0), 256)
        rep = kernel_estimate_check(SPEC, "partial", grid,
                                    n_ladder=[4, 6, 8, 10],
                                    eps_fixed=2 ** -4)
        assert rep.stable, f"ratios {rep.ratios}"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            kernel_estimate_check(SPEC, "uniform", GRID,
                                  eps_ladder=[2 ** -3])

    def test_partial_needs_eps(self):
        with pytest.raises(ValueError):
            kernel_estimate_check(SPEC, "partial", GRID, n_ladder=[4, 6])


class TestTailBound:
    def test_table_and_flags(self):
        rep = tail_bound_check()
        assert rep.all_hold, "corrected bound must dominate the exact tail"
        assert rep.literal_violated, "the u^2/sigma^2 exponent must fail at 3 sigma"
        by_k = {k: (exact, bound) for k, exact, bound, _ in rep.rows}
        assert sorted(by_k) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        exact0, bound0 = by_k[0.0]
        assert exact0 == 0.5 and bound0 == 2.0
        exact3, bound3 = by_k[3.0]
        assert abs(exact3 - 0.0013499) < 1e-6
        assert abs(bound3 - 2 * math.exp(-4.5)) < 1e-12
        assert abs(rep.literal_bound - 2 * math.exp(-9.0)) < 1e-12
        assert rep.literal_exact > rep.literal_bound
        # math.erfc against scipy's: at these k each is within 1 ulp of the
        # correctly rounded tail, so they differ by at most 2 (k = 4 and 5)
        for k, (exact, _) in by_k.items():
            want = 0.5 * float(erfc(k / math.sqrt(2.0)))
            assert abs(exact - want) <= 2 * math.ulp(want), k

    def test_bound_holds_at_every_scale(self):
        # both columns depend on k = u / sigma alone and stay finite at
        # every finite k >= 0, so the bound holds without any guard
        ks = [*np.linspace(0.0, 45.0, 4501), 1e154, 1e308, sys.float_info.max]
        rep = tail_bound_check(ks)
        assert rep.all_hold
        for k, exact, bound, _ in rep.rows:
            assert math.isfinite(exact) and math.isfinite(bound), k

    def test_tail_monotone_in_u(self):
        rep = tail_bound_check((0, 1, 2, 3))
        exacts = [r[1] for r in rep.rows]
        assert all(b < a for a, b in zip(exacts, exacts[1:]))

    def test_literal_flags_independent_of_table(self):
        # the 3-sigma counterexample is recorded even when the table
        # never visits that point
        rep = tail_bound_check((0,))
        assert rep.literal_violated
        assert abs(rep.literal_exact - 0.0013499) < 1e-6


class TestLsFit:
    def test_matches_polyfit(self):
        # the closed form against numpy's least squares, on seeded lines
        # with noise, at the sizes the fits see (sup-prob ks, separations)
        rng = np.random.default_rng(5)
        for n in (3, 4, 7, 20):
            xs = np.sort(rng.uniform(-6.0, 10.0, n))
            ys = -1.3 * xs + 0.4 + rng.normal(0.0, 0.2, n)
            slope, se = _ls_fit(xs, ys)
            coef, cov = np.polyfit(xs, ys, 1, cov=True)
            assert abs(slope - coef[0]) <= 1e-12 * abs(coef[0]), n
            assert abs(se - math.sqrt(cov[0, 0])) <= 1e-12 * se, n

    def test_undefined_fits_are_nan(self):
        # two points give no SE; one point or equal xs give no slope
        slope, se = _ls_fit([1.0, 2.0], [1.0, 3.0])
        assert slope == 2.0 and math.isnan(se)
        for xs, ys in (([], []), ([2.0], [1.0]), ([3.0] * 3, [1.0, 2.0, 4.0])):
            assert all(map(math.isnan, _ls_fit(xs, ys))), xs


class TestSupFieldProb:
    def test_huge_lambda_no_exceedance(self):
        grid = Grid.regular((0.0, 1.0), 64)
        bench = Bench(SPEC, grid, 6, f=bump_function(grid, radius=0.2))
        rep = sup_field_prob(bench, 10.0, ks=[5], qs=[2], replicas=500,
                             seed=0)
        assert rep.k_probs[0].estimate == 0.0 + 0j, "10k is way past 4 sd"
        assert rep.q_probs[0].estimate == 1.0 + 0j

    def test_barrier_slope_guard(self):
        bench = small_bench()
        with pytest.raises(ValueError):
            sup_field_prob(bench, 1.0, ks=[2, 3], qs=[2], replicas=64, seed=0)

    def test_ladder_depth_guard(self):
        bench = small_bench(n_max=5)
        with pytest.raises(ValueError):
            sup_field_prob(bench, 1.6, ks=[4, 6], qs=[2], replicas=64, seed=0)

    def test_event_monotone_samplewise(self):
        grid = Grid.regular((0.0, 1.0), 64)
        bench = Bench(SPEC, grid, 8, f=bump_function(grid, radius=0.2))
        rep = sup_field_prob(bench, 1.6, ks=[4, 5, 6], qs=[2, 4, 6, 8],
                             replicas=600, seed=3)
        probs = [p.estimate.real for p in rep.q_probs]
        assert rep.q_increasing, f"event probabilities {probs}"


class TestTiltedEventProb:
    SEPS = [math.exp(-2), math.exp(-3), math.exp(-4), math.exp(-5)]

    def test_zero_tilt_matches_direct(self):
        eps = math.exp(-5)
        q, lam, n_max = 2, 1.6, 6
        rep = tilted_event_prob(SPEC, self.SEPS, eps, eps, q, lam, alpha=0.0,
                                n_max=n_max, replicas=1200, seed=7)
        # direct untilted estimate at the first separation
        s = self.SEPS[0]
        x, y = 0.5 - s / 2, 0.5 + s / 2
        grid2 = Grid.from_points(np.array([[x], [y]]), (0.0, 1.0))

        def below(start, z):
            # Y_k <= k lam at both points for every k in q..n_max
            ys = np.cumsum(z, axis=0)[q:]
            tops = lam * np.arange(q, n_max + 1)[:, None, None]
            return ((ys <= tops).all(axis=(0, 1)).astype(float),)

        (hits,) = Bench(SPEC, grid2, n_max).map_blocks(99, 1200, below)
        direct = float(np.mean(hits))
        se_d = float(np.std(hits, ddof=1) / math.sqrt(len(hits)))
        est = rep.estimates[0]
        gap = abs(est.estimate.real - direct)
        se = math.hypot(est.se_re, se_d)
        assert gap <= 4 * se, f"tilt-free vs direct: {est.estimate.real} vs {direct}"

    def test_needs_four_separations(self):
        with pytest.raises(ValueError):
            tilted_event_prob(SPEC, self.SEPS[:3], math.exp(-5), math.exp(-5),
                              2, 1.6, 1.1, 6, replicas=64, seed=0)

    def test_barrier_guard(self):
        with pytest.raises(PhaseError):
            tilted_event_prob(SPEC, self.SEPS, math.exp(-5), math.exp(-5),
                              2, 1.0, 1.1, 6, replicas=64, seed=0)

    def test_exponent_target_formula(self):
        rep = tilted_event_prob(SPEC, self.SEPS, math.exp(-5), math.exp(-5),
                                2, 1.5, 1.1, 6, replicas=400, seed=8)
        assert abs(rep.exponent_target - 0.5 * (2.2 - 1.5) ** 2) < 1e-12
        # raising lambda toward 2 alpha shrinks the target exponent
        rep2 = tilted_event_prob(SPEC, self.SEPS, math.exp(-5), math.exp(-5),
                                 2, 2.0, 1.1, 6, replicas=400, seed=8)
        assert rep2.exponent_target < rep.exponent_target


class TestFieldStats:
    def test_oracle_gates_small_run(self):
        bench = small_bench(n_max=8)
        ests = field_stats(bench, ns=[2, 5], n_probes=5, eps=2 ** -4,
                           eps_prime=2 ** -5, replicas=800, seed=11)
        assert len(ests) == 7
        for m in ests:
            assert m.oracle is not None
            assert m.max_z <= 4.0, f"{m.estimator}: z = {m.max_z}"

    def test_variance_oracle_value(self):
        bench = small_bench(n_max=8)
        ests = field_stats(bench, ns=[3], n_probes=1, eps=2 ** -4,
                           eps_prime=2 ** -4, replicas=200, seed=12)
        assert ests[0].oracle == 3.0 + 0j, "Var(Y_n) oracle is Q_0 + n"


class TestSobolevLadder:
    def test_index_guard(self):
        bench = small_bench()
        with pytest.raises(ValueError):
            sobolev_ladder(bench, ChaosParams(f=F, gamma=0.5), 0.5,
                           [2 ** -3, 2 ** -4], replicas=64, seed=0)

    def test_one_rung_rejected(self):
        with pytest.raises(ValueError, match="eps_ladder needs at least 2"):
            sobolev_ladder(small_bench(), ChaosParams(f=F, gamma=0.5), 0.75,
                           [2 ** -3], replicas=64, seed=0)

    @pytest.mark.parametrize("ladder", [[2 ** -4, 2 ** -3],
                                        [2 ** -3, 2 ** -3]])
    def test_ladder_not_decreasing_rejected(self, ladder):
        # both pair ladders read their rungs through one check: a ladder
        # that does not strictly decrease is refused by each alike
        params = ChaosParams(f=F, gamma=0.5)
        with pytest.raises(ValueError, match="strictly decreasing"):
            cauchy_ladder(small_bench(), params, ladder, replicas=64, seed=0)
        with pytest.raises(ValueError, match="strictly decreasing"):
            sobolev_ladder(small_bench(), params, 0.75, ladder, replicas=64,
                           seed=0)

    def test_gamma_zero_identically_zero(self):
        bench = small_bench()
        rep = sobolev_ladder(bench, ChaosParams(f=F, gamma=0.0), 0.75,
                             [2 ** -3, 2 ** -4, 2 ** -5], replicas=100,
                             seed=0)
        assert all(v == 0.0 for v in rep.values)
        assert rep.verdict

    def test_values_nonnegative(self):
        bench = small_bench()
        rep = sobolev_ladder(bench, ChaosParams(f=F, gamma=0.5), 0.75,
                             [2 ** -3, 2 ** -4, 2 ** -5], replicas=400,
                             seed=1)
        assert all(v >= 0.0 for v in rep.values)

    @pytest.mark.parametrize("alpha", [0.0, 0.8])
    def test_antithetic_partner_reflects_about_the_mean(self, alpha):
        # the partner of a block is the block reflected about the draw's
        # tilt shifts (about 0 untilted), so the pair is equal in law
        from logchaos.sampler import TiltShift
        from logchaos.verify import _reflect
        bench = small_bench()
        bench.set_tilt(TiltShift(x=0.45, y=0.55, eps=2 ** -4,
                                 eps_prime=2 ** -4, alpha=alpha))
        keys = [("main", 2 ** -3)]
        draw = bench.draw([2], keys)
        (z,) = bench.map_blocks(3, 32, lambda start, zb: (zb,), draw=draw)
        shifts = bench._shifts(draw)
        partner = _reflect(z, shifts)
        if alpha == 0.0:
            assert shifts is None and np.array_equal(partner, -z)
        else:
            assert np.abs(shifts).max() > 0.1
            assert np.abs(0.5 * (z + partner) - shifts[:, :, None]).max() < 1e-12
