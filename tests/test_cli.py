import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from logchaos import (ChaosParams, Grid, KernelSpec, bump_function, phase,
                      verify)
from logchaos.cli import (TABLE_WORK_BOUND, ConfigError, _blas_core,
                          load_config, main, plan, run_id_of, safety_nets,
                          sha256_file, write_csv)

PHASE_CFG = {"kind": "phase-scan", "d": 1,
             "alpha_range": [-2.0, 2.0, 9], "beta_range": [-2.0, 2.0, 9]}

# distance2 of the same coupled pair is exactly zero at gamma = 0, so this
# run is deterministic down to the bytes and cheap to replay
MOM0_CFG = {"kind": "moment-check", "gammas": [0], "estimands": ["distance2"],
            "eps": 0.0625, "eps_prime": 0.03125, "grid_n": 128,
            "replicas": 60, "seed": 3, "f": {"center": 0.5, "radius": 0.2}}

FS_CFG = {"kind": "field-stats", "grid_n": 128, "eps": 0.0625,
          "eps_prime": 0.03125, "var_levels": [2, 4], "probes": 3,
          "replicas": 300, "seed": 1, "f": {"center": 0.5, "radius": 0.2}}

# near-equal rungs leave the last cell at the same height as the first,
# which the trend rule rejects regardless of seed
CAUCHY_FAIL_CFG = {"kind": "cauchy", "gamma": 0.5, "grid_n": 64,
                   "eps_ladder": [0.125, 0.124, 0.123], "replicas": 100,
                   "seed": 0, "f": {"center": 0.5, "radius": 0.2}}

TRUNC_CAUCHY_CFG = {"kind": "cauchy", "gamma": [1.1, 0.25], "q": 2,
                    "grid_n": 128, "eps_ladder": [0.125, 0.0625],
                    "replicas": 64, "seed": 0,
                    "f": {"center": 0.5, "radius": 0.2}}

F_CENTER = {"center": 0.5, "radius": 0.2}

SUP_CFG = {"kind": "sup-prob", "grid_n": 128, "ks": [2, 3, 4], "qs": [2, 4],
           "replicas": 32, "seed": 0, "f": {"center": 0.5, "radius": 0.2}}


def cfg_file(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{kind: phase-scan}")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_non_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(cfg_file(tmp_path, {"kind": "bogus"}))

    def test_roundtrip(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, PHASE_CFG))
        assert cfg == PHASE_CFG


class TestRunId:
    def test_shape(self):
        rid = run_id_of(PHASE_CFG)
        assert len(rid) == 12
        assert all(c in "0123456789abcdef" for c in rid)

    def test_key_order_invariant(self):
        a = {"kind": "tail-check", "u_over_sigma": [1.0]}
        b = {"u_over_sigma": [1.0], "kind": "tail-check"}
        assert run_id_of(a) == run_id_of(b)

    def test_value_sensitive(self):
        a = dict(MOM0_CFG)
        b = dict(MOM0_CFG, seed=4)
        assert run_id_of(a) != run_id_of(b)


class TestWriteCsv:
    def test_crlf_and_hash(self, tmp_path):
        p = tmp_path / "t.csv"
        digest = write_csv(p, ["a", "b"], [[1, "x"], [2, "y"]])
        raw = p.read_bytes()
        assert raw == b"a,b\r\n1,x\r\n2,y\r\n"
        assert digest == sha256_file(p)


# configs every plan rejects, each with the text its message must contain
REJECTIONS = [
    ({"kind": "kernel-check", "grid_n": 64}, "grid_n"),
    ({"kind": "kernel-check", "check": "everything"}, "check"),
    ({"kind": "moment-check", "estimands": ["variance"]}, "estimand"),
    ({"kind": "moment-check", "gammas": [[1.2, 0.5]]}, "gamma="),
    ({"kind": "moment-check", "gammas": [[0.5, 1.2]]}, "gamma="),
    ({"kind": "sobolev", "u": 0.4}, "u=0.4"),
    ({"kind": "sup-prob", "lam": 1.2}, "lam=1.2"),
    ({"kind": "tilt-check", "alpha": 1.2, "beta": 0.5}, "alpha + i beta"),
    ({"kind": "tilt-check", "separations": [0.1, 0.05, 0.02]}, "separations"),
    ({"kind": "cauchy", "eps_ladder": [0.1, 0.2]}, "eps_ladder"),
    ({"kind": "cauchy", "eps_ladder": [1.5, 0.5]}, "eps_ladder"),
    ({"kind": "cauchy", "d": 2}, "d=2"),
    ({"kind": "field-stats", "grid_n": 16}, "grid_n"),
    ({"kind": "kernel-check", "grid_n": 10 ** 11}, "grid_n"),
    ({"kind": "tail-check", "u_over_sigma": [-1]}, "u_over_sigma"),
    ({"kind": "sup-prob", "n_max": 3}, "n_max"),
    ({"kind": "sup-prob", "ks": [], "qs": []}, "ks and qs"),
    ({"kind": "moment-check", "estimands": []}, "estimands"),
    ({"kind": "moment-check", "gammas": []}, "gammas"),
    ({"kind": "moment-check", "estimands": "mean"}, "estimands"),
    ({"kind": "moment-check", "estimands": ["product"], "eps": 0.03125,
      "eps_prime": 0.0625}, "eps_prime"),
    ({"kind": "phase-scan", "alpha_range": ["a", 1, 3]}, "alpha_range"),
    ({"kind": "phase-scan", "alpha_range": [0, 1]}, "alpha_range"),
    ({"kind": "phase-scan", "beta_range": [0, 1, 0]}, "beta_range"),
    ({"kind": "phase-scan", "beta_range": [0, 1, -3]}, "beta_range"),
    ({"kind": "phase-scan", "alpha_range": "x"}, "alpha_range"),
    ({"kind": "bogus"}, "kind"),
]

# more rejected configs: non-finite numbers, grids, test functions,
# per-kind keys and barrier levels
RUN_ONLY_REJECTIONS = [
    ({"kind": "moment-check", "eps": float("inf")}, "eps"),
    ({"kind": "moment-check", "eps": "nan"}, "eps"),
    ({"kind": "sobolev", "u": "nan"}, "u"),
    ({"kind": "tail-check", "u_over_sigma": [float("inf")]}, "u_over_sigma"),
    ({"kind": "tail-check", "u_over_sigma": []}, "u_over_sigma"),
    ({"kind": "moment-check", "f": 3}, "f must be an object"),
    ({"kind": "moment-check", "f": {"radius": 0}}, "radius"),
    ({"kind": "sup-prob", "grid_n": 128, "f": {"radius": 0}}, "radius"),
    ({"kind": "sup-prob", "grid_n": 128, "f": {"radius": -0.1}}, "radius"),
    ({"kind": "moment-check", "f": {"center": 0.5, "radius": 1e-9}},
     "zero on every grid point"),
    ({"kind": "moment-check", "eps": 2}, "eps=2"),
    ({"kind": "cauchy", "grid_n": 256, "eps_ladder": [0.125, 0.0625, 0.03125],
      "f": {"center": 0.85, "radius": 0.05}}, "D_eps at eps_ladder=0.125"),
    ({"kind": "field-stats", "f": {"center": 0.9}}, "D_eps at eps=0.0625"),
    ({"kind": "kernel-check", "grid_n": 0}, "grid_n"),
    ({"kind": "kernel-check", "grid_n": -512}, "grid_n"),
    ({"kind": "sup-prob", "grid_n": -512}, "grid_n"),
    ({"kind": "sup-prob", "grid_n": "x"}, "grid_n"),
    ({"kind": "sup-prob", "d": 2, "lam": 2.5}, "d=2"),
    ({"kind": "phase-scan", "d": 3}, "d=3"),
    ({"kind": "kernel-check", "eps_fixed": "x"}, "eps_fixed"),
    ({"kind": "kernel-check", "eps_fixed": 0}, "eps_fixed"),
    ({"kind": "kernel-check", "n_ladder": [0, 1]}, "n_ladder"),
    ({"kind": "kernel-check", "grid_n": 128, "eps_ladder": [0.5]},
     "eps_ladder=0.5"),
    ({"kind": "mollifier-independence", "profiles": 5}, "profiles"),
    ({"kind": "mollifier-independence", "profiles": ["bump", "nope"]},
     "profiles"),
    ({"kind": "field-stats", "probes": 0}, "probes"),
    ({"kind": "field-stats", "probes": -1}, "probes"),
    ({"kind": "tilt-check", "q": 0}, "q=0"),
    ({"kind": "tilt-check", "lam": 1.0}, "lam=1.0"),
    ({"kind": "tilt-check", "n_max": 0}, "n_max"),
    ({"kind": "tilt-check", "eps": -1}, "eps"),
    ({"kind": "cauchy", "gamma": [1.1, 0.25], "q": -1}, "q=-1"),
    ({"kind": "cauchy", "seed": "x"}, "seed"),
    ({"kind": "moment-check", "seed": -1}, "seed"),
    ({"kind": "tilt-check", "lam": 1e300, "replicas": 40}, "lam=1e+300"),
    ({"kind": "kernel-check", "d": 2}, "d=2 unsupported"),
    # cauchy and sobolev cells are consecutive pairs of rungs (last in the
    # list, so that the ids of REJECTIONS + RUN_ONLY_REJECTIONS stay put)
    ({"kind": "cauchy", "grid_n": 128, "eps_ladder": [0.125], "replicas": 40,
      "seed": 1}, "eps_ladder"),
    ({"kind": "sobolev", "grid_n": 128, "eps_ladder": [0.125],
      "replicas": 40, "seed": 1}, "eps_ladder"),
    # sizes over the plan-time bounds, refused before anything allocates
    # (eight entries, so that the ids of the phase-scan entries below stay)
    ({"kind": "moment-check", "grid_n": 10 ** 11}, "grid_n"),
    ({"kind": "moment-check", "n_max": 10 ** 11}, "n_max"),
    ({"kind": "sup-prob", "n_max": 10 ** 11}, "n_max"),
    ({"kind": "tilt-check", "n_max": 10 ** 11}, "n_max"),
    ({"kind": "field-stats", "var_levels": [10 ** 11]}, "var_levels"),
    ({"kind": "kernel-check", "n_ladder": [4, 10 ** 300]}, "n_ladder"),
    ({"kind": "field-stats", "probes": 10 ** 9}, "probes"),
    ({"kind": "cauchy", "replicas": 10 ** 15}, "replicas"),
    # a phase-scan axis whose span hi - lo overflows
    ({"kind": "phase-scan", "alpha_range": [-1e308, 1e308, 5],
      "beta_range": [-2, 2, 5]}, "alpha_range"),
    ({"kind": "phase-scan", "beta_range": [1e308, -1e308, 5]}, "beta_range"),
    # phase-scan grids over the point bound, refused before np.linspace
    # allocates an axis: 10^13 points on one axis, 10^10 on two
    ({"kind": "phase-scan", "alpha_range": [0, 1, 10 ** 13]}, "alpha_range"),
    ({"kind": "phase-scan", "alpha_range": [0, 1, 10 ** 5],
      "beta_range": [0, 1, 10 ** 5]}, "beta_range"),
    # each bound one past its limit: levels to 708, where exp(t0 + n + 1)
    # is still finite, and grids to 2^17 points
    ({"kind": "field-stats", "var_levels": [2, 709]}, "var_levels"),
    ({"kind": "kernel-check", "n_ladder": [709]}, "n_ladder"),
    ({"kind": "cauchy", "n_max": 709}, "n_max"),
    ({"kind": "sup-prob", "ks": [4, 709]}, "ks and qs"),
    ({"kind": "sup-prob", "qs": [10 ** 11]}, "ks and qs"),
    ({"kind": "sobolev", "grid_n": 2 ** 17 + 1}, "grid_n"),
    ({"kind": "kernel-check", "grid_n": 2 ** 17 + 1}, "grid_n"),
    ({"kind": "field-stats", "probes": 101}, "probes"),
    ({"kind": "moment-check", "replicas": 10 ** 6 + 1}, "replicas"),
    # a kind that is not a string, a gamma past the float range alone or as
    # a pair, and an out that is not a path string
    ({"kind": ["cauchy"]}, "kind"),
    ({"kind": {"a": 1}}, "kind"),
    ({"kind": "cauchy", "gamma": 10 ** 400}, "gamma"),
    ({"kind": "sobolev", "gamma": 10 ** 400}, "gamma"),
    ({"kind": "mollifier-independence", "gamma": [10 ** 400, 0]}, "gamma"),
    ({"kind": "tail-check", "out": 5}, "out"),
    ({"kind": "tail-check", "out": ["a"]}, "out"),
    # barrier slopes whose barrier lam * n_max overflows
    ({"kind": "sup-prob", "lam": 1e308, "replicas": 40, "grid_n": 64},
     "lam=1e+308"),
    ({"kind": "cauchy", "gamma": [1.1, 0.25], "lam": 1e308, "replicas": 40},
     "lam=1e+308"),
    # the kernel layer is d=1 only, also where a d=2 table would be small:
    # here D_eps is one point per axis
    ({"kind": "kernel-check", "d": 2, "grid_n": 17, "eps_ladder": [0.24],
      "check": "mollified"}, "d=2 unsupported"),
    # tilt-check separations whose fit abscissae log(max(s, eps)) take one
    # value, so that no exponent can be fitted
    ({"kind": "tilt-check", "separations": [0.1, 0.1, 0.1, 0.1]},
     "separations"),
    ({"kind": "tilt-check", "eps": 1.0}, "separations"),
    ({"kind": "tilt-check", "separations": [1e-300, 1e-300, 2e-300, 3e-300]},
     "separations"),
    # keys the plan does not read, named with the closest key it read
    ({"kind": "moment-check", "replica": 400, "sed": 3},
     "key replica is not read; did you mean replicas?"),
    ({"kind": "cauchy", "gama": 0.3},
     "key gama is not read; did you mean gamma?"),
    ({"kind": "cauchy", "f": {"center": 0.5, "radus": 0.05}},
     "key f.radus is not read; did you mean f.radius?"),
    ({"kind": "cauchy", "gamma": 0.5, "q": 2}, "key q is not read"),
]


class TestValidateOnly:
    MINIMAL = [
        {"kind": "phase-scan"},
        {"kind": "kernel-check"},
        {"kind": "field-stats"},
        {"kind": "moment-check"},
        {"kind": "cauchy"},
        {"kind": "mollifier-independence"},
        {"kind": "tail-check"},
        {"kind": "sup-prob"},
        {"kind": "tilt-check"},
        {"kind": "sobolev"},
    ]

    def test_minimal_defaults_all_pass(self):
        for cfg in self.MINIMAL:
            resolved, run = plan(dict(cfg))
            assert callable(run) and isinstance(resolved, dict)

    def test_d1_kernel_check_plans_to_16384(self):
        # the bound sums the products of the tables the run builds: the
        # default ladders take 2.8e8 at grid_n 8192 and 1.1e9 at 16384, and
        # 4.5e9 at 32768, over the bound
        plan({"kind": "kernel-check", "grid_n": 4096,
              "eps_ladder": [2.0 ** -3, 2.0 ** -10]})
        for n in (8192, 16384):
            plan({"kind": "kernel-check", "grid_n": n})
        with pytest.raises(ConfigError, match="d=1, grid_n=32768"):
            plan({"kind": "kernel-check", "grid_n": 32768})
        # the single 0.245 table at 2^17, the widest up to v0.20.0 admitted
        plan({"kind": "kernel-check", "grid_n": 2 ** 17,
              "eps_ladder": [0.245], "check": "mollified"})

    def test_kernel_check_work_counts_every_table(self):
        # one (eps_fixed, eps_fixed) table per level rung: at grid_n 4096
        # a rung takes 6.3e6 products, so 204 rungs fit and a 205th does
        # not
        from logchaos import kernels
        grid_n, eps = 4096, 2.0 ** -4
        per_rung = kernels.table_work(Grid.regular((0.0, 1.0), grid_n), eps,
                                      eps)
        fit = TABLE_WORK_BOUND // per_rung
        cfg = {"kind": "kernel-check", "grid_n": grid_n, "check": "partial",
               "eps_fixed": eps}
        plan(dict(cfg, n_ladder=[4] * fit))
        with pytest.raises(ConfigError, match="kernel-table products"):
            plan(dict(cfg, n_ladder=[4] * (fit + 1)))

    def test_kernel_check_plan_warms_the_run_clouds(self):
        # the plan-time work bound reads the run's own cached stencil-pair
        # bins, so the run builds no bins of its own
        from logchaos import kernels
        kernels._lattice_bins.cache_clear()
        _, run = plan({"kind": "kernel-check", "grid_n": 512})
        planned = kernels._lattice_bins.cache_info().misses
        run(1, "warm")
        assert planned == 9
        assert kernels._lattice_bins.cache_info().misses == planned

    def test_size_bounds_admit_their_limits(self):
        # the parity tables refuse one past each of these
        for cfg in ({"kind": "sobolev", "grid_n": 2 ** 17},
                    {"kind": "field-stats", "var_levels": [2, 708],
                     "probes": 100, "replicas": 10 ** 6},
                    {"kind": "sup-prob", "ks": [4, 708], "qs": [708]},
                    {"kind": "kernel-check", "n_ladder": [708]},
                    {"kind": "cauchy", "n_max": 708}):
            plan(cfg)

    def test_deepest_level_runs_silently(self, tmp_path, capsys):
        # exp(t0 + n + 1) at n = 708 is finite: no overflow warning
        cfg = dict(TINY[2], var_levels=[2, 708])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", cfg_file(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) in (0, 1)

    def test_one_rung_mollifier_independence_runs(self, tmp_path, capsys):
        # its cells are per rung, so one rung is a one-cell ladder (cauchy
        # and sobolev, whose cells are pairs of rungs, reject it)
        cfg = {"kind": "mollifier-independence", "grid_n": 128,
               "eps_ladder": [0.125], "replicas": 40, "seed": 1}
        out = tmp_path / "o"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) in (0, 1)
        assert len((out / "mollifier_independence.csv").read_text().split()) == 2

    @pytest.mark.parametrize("cfg", [cfg for cfg, _ in REJECTIONS])
    def test_rejections(self, cfg):
        with pytest.raises(ConfigError):
            plan(cfg)


class TestValidateRunParity:
    """validate runs the run's own plan: both exit 2, name the key, write
    nothing."""

    @pytest.mark.parametrize("cfg,named", REJECTIONS + RUN_ONLY_REJECTIONS)
    def test_both_exit_2(self, tmp_path, capsys, cfg, named):
        path = cfg_file(tmp_path, cfg)
        out = tmp_path / "o"
        for argv in (["validate", path], ["run", path, "--out", str(out)]):
            assert main(argv) == 2, f"{argv[0]} {cfg}"
            err = capsys.readouterr().err
            assert named in err, argv[0]
            assert len(err.strip().splitlines()) == 1, argv[0]
        assert not out.exists(), "nothing is written"

    # files json.load cannot read: a UnicodeDecodeError, a RecursionError
    # and the ValueError of an integer over Python's 4,300-digit limit
    UNREADABLE = [b"\xff{}", b"[" * 200000,
                  b'{"kind": "phase-scan", "alpha_range": [0, 1, '
                  + b"9" * 5000 + b"]}"]

    @pytest.mark.parametrize("raw", UNREADABLE,
                             ids=["not-utf8", "deep-nesting", "huge-int"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, raw):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        out = tmp_path / "o"
        for argv, named in (
                (["validate", str(path)], "config is not valid JSON"),
                (["run", str(path), "--out", str(out)],
                 "config is not valid JSON"),
                (["replay", str(path), "--out", str(out)],
                 "cannot read manifest")):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert named in err, argv[0]
            assert len(err.strip().splitlines()) == 1, argv[0]
        assert not out.exists(), "nothing is written"

    def test_bad_workers_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LOGCHAOS_WORKERS", "abc")
        path = cfg_file(tmp_path, PHASE_CFG)
        out = tmp_path / "o"
        for argv in (["validate", path], ["run", path, "--out", str(out)]):
            assert main(argv) == 2, argv[0]
            assert "LOGCHAOS_WORKERS" in capsys.readouterr().err, argv[0]
        assert not out.exists(), "nothing is written"


class TestReplicaBudget:
    @pytest.mark.parametrize("kind", ["field-stats", "moment-check", "cauchy",
                                      "mollifier-independence", "sup-prob",
                                      "tilt-check", "sobolev"])
    def test_fewer_than_two_rejected(self, tmp_path, capsys, kind):
        for replicas in (-5, 0, 1):
            path = cfg_file(tmp_path, {"kind": kind, "replicas": replicas})
            for argv in (["validate", path],
                         ["run", path, "--out", str(tmp_path / "o")]):
                assert main(argv) == 2, f"{argv[0]} replicas={replicas}"
                assert "replicas must be >= 2" in capsys.readouterr().err


class TestMainValidate:
    def test_good_config(self, tmp_path, capsys):
        assert main(["validate", cfg_file(tmp_path, PHASE_CFG)]) == 0
        assert "config valid: kind=phase-scan" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "nope.json")])
        assert code == 2
        assert "validation error:" in capsys.readouterr().err

    def test_phase_violation_detected(self, tmp_path, capsys):
        cfg = dict(MOM0_CFG, gammas=[[1.2, 0.5]])
        assert main(["validate", cfg_file(tmp_path, cfg)]) == 2
        assert "phase precondition" in capsys.readouterr().err


class TestMainRun:
    def test_phase_scan_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", cfg_file(tmp_path, PHASE_CFG),
                     "--out", str(out)])
        assert code == 0
        assert "all_points_labeled: pass" in capsys.readouterr().out

        raw = (out / "phase_scan.csv").read_bytes()
        assert raw.endswith(b"\r\n")
        lines = raw.decode().split("\r\n")
        assert lines[0] == "alpha,beta,label,run_id"
        assert len([ln for ln in lines if ln]) == 1 + 81

        rid = run_id_of(PHASE_CFG)
        assert all(ln.endswith("," + rid) for ln in lines[1:] if ln)

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "logchaos"
        assert manifest["run_id"] == rid
        assert manifest["config"] == PHASE_CFG
        assert manifest["csv_sha256"]["phase_scan.csv"] == sha256_file(
            out / "phase_scan.csv")
        assert "svg_files" not in manifest
        assert not list(out.glob("*.svg"))

        verdicts = json.loads((out / "verdicts.json").read_text())
        assert verdicts == {"run_id": rid,
                            "verdicts": {"all_points_labeled": True},
                            "safety_nets": {"fired": []}, "pass": True}

    def test_phase_scan_rows_point_by_point(self, tmp_path, capsys):
        # the streamed CSV equals rows built point by point from
        # phase.classify on the axes np.linspace gives
        cfg = {"kind": "phase-scan", "d": 2, "alpha_range": [-2.0, 1.5, 7],
               "beta_range": [0.0, 2.5, 4]}
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) == 0
        rid = run_id_of(cfg)
        want = io.StringIO()
        wr = csv.writer(want, lineterminator="\r\n")
        wr.writerow(["alpha", "beta", "label", "run_id"])
        for a in np.linspace(-2.0, 1.5, 7):
            for b in np.linspace(0.0, 2.5, 4):
                wr.writerow([repr(float(a)), repr(float(b)),
                             phase.classify(2, a, b), rid])
        assert (out / "phase_scan.csv").read_bytes() == want.getvalue().encode()

    def test_default_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {"kind": "tail-check", "u_over_sigma": [0, 1, 2, 3]}
        assert main(["run", cfg_file(tmp_path, cfg)]) == 0
        assert (tmp_path / "runs" / "tail-check" / "tail_bound.csv").exists()

    def test_config_out_key(self, tmp_path, capsys):
        cfg = {"kind": "tail-check", "out": str(tmp_path / "somewhere")}
        assert main(["run", cfg_file(tmp_path, cfg)]) == 0
        assert (tmp_path / "somewhere" / "tail_bound.csv").exists()

    def test_out_that_cannot_be_made_exits_2(self, tmp_path, capsys,
                                             monkeypatch):
        # a run directory under a plain file is refused before sampling
        from logchaos import verify
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
        sampled = []
        monkeypatch.setattr(verify, "block_z",
                            lambda *a: sampled.append(a))
        for cfg, argv in (
                (TINY[4], ["--out", str(out)]),
                ({**TINY[6], "out": str(out)}, [])):
            assert main(["run", cfg_file(tmp_path, cfg), *argv]) == 2
            err = capsys.readouterr().err
            assert "out" in err and len(err.strip().splitlines()) == 1
        assert not sampled

    def test_exact_zero_moment_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", cfg_file(tmp_path, MOM0_CFG), "--out", str(out)])
        assert code == 0
        lines = (out / "moments.csv").read_bytes().decode().split("\r\n")
        header = lines[0].split(",")
        row = lines[1].split(",")
        cells = dict(zip(header, row))
        assert cells["estimate_re"] == "0.0"
        assert cells["se_re"] == "0.0"
        assert cells["z_re"] == "0.0"
        resolved = json.loads((out / "manifest.json").read_text())["resolved"]
        ratios = resolved["embedding_min_ratio"]
        assert len(ratios) == len(resolved["level_groups"])
        assert all(0.0 < r <= 1.0 for r in ratios)
        assert "cholesky_jitter" not in resolved

    def test_verdict_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", cfg_file(tmp_path, CAUCHY_FAIL_CFG),
                     "--out", str(out)])
        assert code == 1
        assert "trend_decreasing: FAIL" in capsys.readouterr().out
        # artifacts are still written for a failed verdict
        assert (out / "verdicts.json").exists()
        assert not json.loads((out / "verdicts.json").read_text())["pass"]

    def test_bad_estimand_exit_code(self, tmp_path, capsys):
        cfg = dict(MOM0_CFG, estimands=["variance"])
        code = main(["run", cfg_file(tmp_path, cfg), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert "validation error:" in capsys.readouterr().err


class TestWorkersDeterminism:
    def test_flag_and_env(self, tmp_path, capsys, monkeypatch):
        p = cfg_file(tmp_path, FS_CFG)
        hashes = {}
        for name, argv in [("w1", ["--workers", "1"]),
                           ("w3", ["--workers", "3"])]:
            out = tmp_path / name
            assert main(argv + ["run", p, "--out", str(out)]) == 0
            m = json.loads((out / "manifest.json").read_text())
            hashes[name] = m["csv_sha256"]
        monkeypatch.setenv("LOGCHAOS_WORKERS", "4")
        out = tmp_path / "env4"
        assert main(["run", p, "--out", str(out)]) == 0
        hashes["env4"] = json.loads(
            (out / "manifest.json").read_text())["csv_sha256"]
        assert hashes["w1"] == hashes["w3"] == hashes["env4"]


class TestReplay:
    def run_once(self, tmp_path, capsys):
        out = tmp_path / "orig"
        assert main(["run", cfg_file(tmp_path, MOM0_CFG),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        return out / "manifest.json"

    def test_verified(self, tmp_path, capsys):
        manifest = self.run_once(tmp_path, capsys)
        code = main(["replay", str(manifest)])
        assert code == 0
        text = capsys.readouterr().out
        assert "replay verified: 1 CSV file(s) byte-identical" in text
        assert (tmp_path / "orig-replay" / "moments.csv").exists()

    def test_tampered_config(self, tmp_path, capsys):
        manifest = self.run_once(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        doc["config"]["seed"] = 99
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        code = main(["replay", str(tampered), "--out",
                     str(tmp_path / "r2")])
        assert code == 1
        assert "config differs" in capsys.readouterr().out

    def test_tampered_hash(self, tmp_path, capsys):
        manifest = self.run_once(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        doc["csv_sha256"]["moments.csv"] = "0" * 64
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        code = main(["replay", str(tampered), "--out",
                     str(tmp_path / "r3")])
        assert code == 1
        assert "CSV outputs differ: moments.csv" in capsys.readouterr().out

    def test_version_refusal(self, tmp_path, capsys):
        manifest = self.run_once(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        doc["version"] = "0.0.0"
        tampered = tmp_path / "oldver.json"
        tampered.write_text(json.dumps(doc))
        code = main(["replay", str(tampered)])
        assert code == 2
        assert "refusing to replay" in capsys.readouterr().out

    def test_not_a_manifest(self, tmp_path, capsys):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"tool": "other", "config": {}}))
        assert main(["replay", str(p)]) == 2
        assert "not a logchaos run manifest" in capsys.readouterr().err


class TestRunRecord:
    """What a manifest records beside the hashed CSVs: the sampled rows, the
    torus sizes and the numeric environment.  Replay reads none of them."""

    def replay_tampered(self, tmp_path, capsys, doc):
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["replay", str(tampered), "--out", str(tmp_path / "r")])
        assert code == 0
        assert "replay verified" in capsys.readouterr().out

    def test_cauchy_records_sampled_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, CAUCHY_FAIL_CFG),
                     "--out", str(out)]) == 1
        doc = json.loads((out / "manifest.json").read_text())
        resolved = doc["resolved"]
        # f = bump(0.5, 0.2) on 64 points is nonzero on rows 19..44, and the
        # ladder head eps = 0.125 reaches floor(0.125 / h) = floor(0.125 *
        # 64) = 8 rows on each side (f admits floor(19.5 / 2) = 9)
        assert resolved["sampled_rows"] == [11, 52]
        torus = resolved["torus_points"]
        assert len(torus) == len(resolved["embedding_min_ratio"]) == \
            len(resolved["level_groups"])
        assert all(m >= 42 + 1 for m in torus)
        assert torus == sorted(torus, reverse=True)
        # per-cell exclusions and empty median-of-means blocks, 2 cells
        assert resolved["excluded"] == [0, 0]
        assert resolved["empty_blocks"] == [0, 0]
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert sorted(doc["csv_sha256"]) == csvs
        for name in csvs:
            text = (out / name).read_text()
            assert "sampled_rows" not in text and "torus_points" not in text
        doc["resolved"] = dict(resolved, sampled_rows=[0, 63],
                               torus_points=[1] * len(torus),
                               excluded=[7, 7], empty_blocks=[1, 1])
        self.replay_tampered(tmp_path, capsys, doc)

    def test_safety_nets_in_verdicts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, TRUNC_CAUCHY_CFG),
                     "--out", str(out)]) in (0, 1)
        doc = json.loads((out / "manifest.json").read_text())
        resolved = doc["resolved"]
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert set(verdicts["verdicts"]) == {"trend_decreasing"}
        assert verdicts["safety_nets"] == {
            "embedding_min_ratio": min(resolved["embedding_min_ratio"]),
            "excluded": sum(resolved["excluded"]),
            "empty_blocks": sum(resolved["empty_blocks"]),
            "fired": []}
        assert "safety_nets" not in doc["csv_sha256"]
        assert main(["replay", str(out / "manifest.json"), "--out",
                     str(tmp_path / "r")]) == 0
        assert "replay verified" in capsys.readouterr().out

    def test_safety_nets_reduce_nested_ratios(self):
        # tilt-check records one ratio per group per separation
        resolved = {"embedding_min_ratio": [[1.0, 0.5], [1.0, -1e-13]],
                    "level_groups": [[2, 8]]}
        assert safety_nets(resolved) == {"embedding_min_ratio": -1e-13,
                                         "fired": ["embedding_min_ratio"]}
        assert safety_nets({"slope": 1.0}) == {"fired": []}

    @pytest.mark.parametrize("resolved,fired", [
        # a clipped eigenvalue reads a negative ratio; a tiny positive one
        # clipped nothing
        ({"embedding_min_ratio": [0.5, -1e-13]}, ["embedding_min_ratio"]),
        ({"embedding_min_ratio": [0.5, 6.5e-6]}, []),
        ({"embedding_min_ratio": [0.5, 0.0]}, []),
        ({"embedding_min_ratio": [[1.0, 0.5], [1.0, 0.0]]}, []),
        ({"embedding_min_ratio": [[1.0, -1e-14], [1.0, 0.5]]},
         ["embedding_min_ratio"]),
        ({"excluded": [0, 2, 0], "empty_blocks": [0, 0]}, ["excluded"]),
        ({"excluded": [0], "empty_blocks": [[0, 1]]}, ["empty_blocks"]),
        ({"embedding_min_ratio": [-1e-14], "excluded": [1],
          "empty_blocks": [1]},
         ["embedding_min_ratio", "excluded", "empty_blocks"]),
    ])
    def test_safety_nets_name_the_fired(self, resolved, fired):
        assert safety_nets(resolved)["fired"] == fired

    def test_ladder_geometry_fires_no_net(self, tmp_path, capsys):
        # the acceptance geometry: every group embedding is positive (the
        # smallest ratio 6.5e-6, group 0..2), and no replica is excluded
        cfg = {"kind": "cauchy", "grid_n": 2048, "n_max": 8,
               "replicas": 2000, "seed": 7,
               "eps_ladder": [2.0 ** -k for k in range(3, 8)],
               "gamma": [1.1, 0.25], "q": 2, "lam": "auto",
               "f": {"center": 0.5, "radius": 0.05}}
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved"]
        nets = json.loads((out / "verdicts.json").read_text())["safety_nets"]
        assert len(resolved["embedding_min_ratio"]) == 7
        assert 0.0 < nets["embedding_min_ratio"] < 1e-5
        assert nets["fired"] == []
        assert not any("fired" in p.read_text() for p in out.glob("*.csv"))

    @pytest.mark.parametrize("cfg,stem", [(MOM0_CFG, "moments"),
                                          (FS_CFG, "field_stats")],
                             ids=["moment-check", "field-stats"])
    def test_safety_nets_count_estimate_exclusions(self, tmp_path, capsys,
                                                   cfg, stem):
        # each estimate's excluded replicas reach resolved and safety_nets
        # beside the hashed CSV's column, and replay still verifies
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) in (0, 1)
        with open(out / f"{stem}.csv", newline="") as fh:
            column = [int(row["excluded"]) for row in csv.DictReader(fh)]
        resolved = json.loads((out / "manifest.json").read_text())["resolved"]
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert resolved["excluded"] == column and column
        assert verdicts["safety_nets"]["excluded"] == sum(column)
        assert main(["replay", str(out / "manifest.json"), "--out",
                     str(tmp_path / "r")]) == 0
        assert "replay verified" in capsys.readouterr().out

    # f = bump(0.5, 0.2) on 128 points; sup-prob reads supp(f) alone,
    # moment-check and field-stats convolve at eps = 2^-4 and eps' = 2^-5,
    # reaching floor(2^-4 * 128) = 8 rows on each side, and a moment-check
    # of means convolves at eps = 2^-5 alone, reaching 4 rows
    @pytest.mark.parametrize("cfg,reach", [
        (SUP_CFG, 0), (MOM0_CFG, 8), (FS_CFG, 8),
        (dict(MOM0_CFG, estimands=["mean"], eps=2 ** -5, eps_prime=2 ** -3), 4),
    ], ids=["sup-prob", "moment-check", "field-stats", "moment-check-means"])
    def test_sampled_rows_by_widest_eps(self, tmp_path, cfg, reach):
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) in (0, 1)
        resolved = json.loads((out / "manifest.json").read_text())["resolved"]
        grid = Grid.regular((0.0, 1.0), cfg["grid_n"])
        supp = np.flatnonzero(bump_function(grid, center=0.5, radius=0.2))
        assert resolved["sampled_rows"] == [supp[0] - reach, supp[-1] + reach]

    @pytest.mark.parametrize("cfg,groups", [
        # untruncated: the convolutions read Y_n_max alone, one group
        (MOM0_CFG, lambda n: [[0, n]]),
        # truncated at q=2: the barrier reads Y_2..Y_n_max
        (TRUNC_CAUCHY_CFG, lambda n: [[0, 2]] + [[k, k] for k in range(3, n + 1)]),
    ], ids=["moment-check", "truncated-cauchy"])
    def test_level_groups_recorded(self, tmp_path, capsys, cfg, groups):
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) in (0, 1)
        doc = json.loads((out / "manifest.json").read_text())
        resolved = doc["resolved"]
        assert resolved["level_groups"] == groups(resolved["n_max"])
        assert len(resolved["torus_points"]) == len(resolved["level_groups"])
        assert all(r > 0.0 for r in resolved["embedding_min_ratio"])
        # same-version replay verifies the grouped draw's bytes
        capsys.readouterr()
        assert main(["replay", str(out / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 0
        assert "replay verified" in capsys.readouterr().out

    def test_environment_outside_hashes(self, tmp_path, capsys, monkeypatch):
        p = cfg_file(tmp_path, MOM0_CFG)
        docs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert main(["--workers", str(workers), "run", p,
                         "--out", str(out)]) == 0
            docs.append(json.loads((out / "manifest.json").read_text()))
        env = docs[0]["environment"]
        assert set(env) == {"python", "numpy", "blas", "numpy_simd",
                            "openblas_num_threads", "cpu_count", "cpu",
                            "blas_core", "blas_threads", "workers"}
        assert env["numpy"] == np.__version__ and env["workers"] == 1
        assert isinstance(env["cpu"], str) and env["cpu"]
        # an OpenBLAS numpy names the core it selected and its threads
        if "openblas" in (env["blas"] or "").lower():
            assert isinstance(env["blas_core"], str) and env["blas_core"]
            assert isinstance(env["blas_threads"], int)
            assert env["blas_threads"] >= 1
        assert env["numpy_simd"] == np.show_config(
            mode="dicts")["SIMD Extensions"]["found"]
        assert docs[1]["environment"]["workers"] == 2
        assert docs[0]["csv_sha256"] == docs[1]["csv_sha256"]
        self.replay_tampered(tmp_path, capsys,
                             dict(docs[0], environment={"numpy": "0.0"}))
        # no loadable library leaves both entries None, without raising
        import ctypes

        def no_library(*args, **kwargs):
            raise OSError("not loaded")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert _blas_core() == (None, None)


class TestReplayContract:
    """A block's draw depends on (seed, block, grid, n_max, f, the read
    levels, the widest eps convolved) and on nothing else of the config."""

    def test_draw_depends_on_ladder_head_not_tail(self, monkeypatch):
        # the three ladders share f, q and n_max; the first two share the
        # head 2^-3, the third's head 2^-4 convolves narrower
        draws = []
        inner = verify.block_z

        def recorded(*args, **kwargs):
            z = inner(*args, **kwargs)
            draws[-1].append(z)
            return z

        monkeypatch.setattr(verify, "block_z", recorded)
        rows = []
        for ladder in ([0.125, 0.0625, 0.03125], [0.125, 0.03125],
                       [0.0625, 0.03125]):
            draws.append([])
            _, run = plan(dict(TRUNC_CAUCHY_CFG, grid_n=256,
                               eps_ladder=ladder))
            rows.append(run(1, "id")[2]["sampled_rows"])
        assert rows[0] == rows[1] and len(draws[0]) == len(draws[1]) == 2
        assert all(np.array_equal(a, b) for a, b in zip(*draws[:2]))
        assert rows[2][0] > rows[0][0] and rows[2][1] < rows[0][1]
        assert draws[2][0].shape[1] < draws[0][0].shape[1]


class TestListEntries:
    @pytest.mark.parametrize("kind,key", [
        ("cauchy", "eps_ladder"), ("kernel-check", "n_ladder"),
        ("field-stats", "var_levels"), ("moment-check", "gammas"),
        ("tail-check", "u_over_sigma"), ("sup-prob", "ks"),
        ("sup-prob", "qs"), ("tilt-check", "separations"),
    ])
    @pytest.mark.parametrize("value", [["a"], 3])
    def test_bad_list_exits_2(self, tmp_path, capsys, kind, key, value):
        path = cfg_file(tmp_path, {"kind": kind, key: value})
        for argv in (["validate", path],
                     ["run", path, "--out", str(tmp_path / "o")]):
            assert main(argv) == 2, f"{argv[0]} {key}={value!r}"
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [{"ks": []}, {"qs": []},
                                        {"ks": [], "qs": []}])
    def test_empty_sup_levels_exit_2(self, tmp_path, capsys, levels):
        path = cfg_file(tmp_path, dict(levels, kind="sup-prob"))
        for argv in (["validate", path],
                     ["run", path, "--out", str(tmp_path / "o")]):
            assert main(argv) == 2, argv[0]
            assert "ks and qs" in capsys.readouterr().err


class TestMedianOfMeansBudget:
    @pytest.mark.parametrize("kind", ["cauchy", "mollifier-independence",
                                      "sobolev"])
    def test_fewer_than_mom_blocks_rejected(self, tmp_path, capsys, kind):
        for replicas in (2, 20, 39):
            path = cfg_file(tmp_path, {"kind": kind, "replicas": replicas})
            for argv in (["validate", path],
                         ["run", path, "--out", str(tmp_path / "o")]):
                assert main(argv) == 2, f"{argv[0]} replicas={replicas}"
                assert "median-of-means" in capsys.readouterr().err


class TestBadRunInputs:
    """Inputs validate rejects also exit 2 under run, with the key named."""

    @pytest.mark.parametrize("key,value", [
        ("alpha_range", ["a", 1, 3]), ("alpha_range", [0, 1]),
        ("beta_range", [0, 1, 0]), ("beta_range", [0, 1, -3]),
        ("alpha_range", "x"),
    ])
    def test_phase_scan_range_exits_2(self, tmp_path, capsys, key, value):
        path = cfg_file(tmp_path, dict(PHASE_CFG, **{key: value}))
        for argv in (["validate", path],
                     ["run", path, "--out", str(tmp_path / "o")]):
            assert main(argv) == 2, f"{argv[0]} {key}={value!r}"
            assert key in capsys.readouterr().err

    def test_tail_check_extreme_ratios_run(self, tmp_path, capsys):
        # both columns are finite at every finite u / sigma >= 0: the exact
        # tail underflows to 0 by 38.5 and the bound by 38.7, and past
        # 1.3e154 the bound's k^2 overflows to an exp(-inf) of 0
        ratios = [0, 5e-324, 1, 38.5, 38.6, 38.7, 1e154, 1e308, 1.79e308]
        cfg = {"kind": "tail-check", "u_over_sigma": ratios}
        out = tmp_path / "o"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) == 0
        with open(out / "tail_bound.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["u_over_sigma"]) for r in rows[:-1]] == ratios
        assert float(rows[5]["bound"]) == 0.0 < float(rows[4]["bound"])
        assert rows[-1]["u_over_sigma"] == "literal_at_3"
        for r in rows[:-1]:
            assert r["holds"] == "True"
            exact, bound = float(r["exact_tail"]), float(r["bound"])
            assert 0.0 <= exact <= bound <= 2.0

    @pytest.mark.parametrize("change,named", [
        ({"estimands": []}, "estimands"), ({"gammas": []}, "gammas"),
        ({"estimands": "mean"}, "estimands"),
        ({"estimands": ["product"], "eps": 0.03125, "eps_prime": 0.0625},
         "eps_prime"),
    ])
    def test_moment_check_exits_2(self, tmp_path, capsys, change, named):
        path = cfg_file(tmp_path, dict(MOM0_CFG, **change))
        for argv in (["validate", path],
                     ["run", path, "--out", str(tmp_path / "o")]):
            assert main(argv) == 2, f"{argv[0]} {change}"
            assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists(), "nothing is written"


class TestMomentSweepBlocks:
    def test_each_block_drawn_once(self, tmp_path, capsys, monkeypatch):
        # 2 gammas x 2 estimands at R=100: ceil(100/32) = 4 blocks, not 16
        from logchaos import verify
        starts = []
        block_z = verify.block_z

        def counted(spec, grid, factors, seed, start, *a, **k):
            starts.append(start)
            return block_z(spec, grid, factors, seed, start, *a, **k)

        monkeypatch.setattr(verify, "block_z", counted)
        cfg = dict(MOM0_CFG, gammas=[0.8, [0.5, 0.5]],
                   estimands=["mean", "product"], replicas=100)
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) in (0, 1)
        assert starts == [0, 32, 64, 96]
        rows = (out / "moments.csv").read_text().splitlines()
        assert len(rows) == 1 + 4


SHORT = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]


class TestEstimatorLevels:
    """Each estimator draws the partial sums it reads, which are the sets
    each plan once passed its Bench: the same groups and tori per kind."""

    # the acceptance test_13 configs of each sampled kind and a truncated
    # cauchy, with their level_groups and torus_points (None: tilt-check
    # records ratios per separation, each group on a 2-point torus)
    @pytest.mark.parametrize("cfg,groups,torus", [
        ({"kind": "field-stats", "grid_n": 128, "eps": 2.0 ** -4,
          "eps_prime": 2.0 ** -5, "var_levels": [2, 4], "probes": 3,
          "replicas": 300, "f": F_CENTER},
         [[0, 2], [3, 4], [5, 7]], [120, 75, 72]),
        ({"kind": "moment-check", "grid_n": 128, "gammas": [0.5],
          "estimands": ["mean"], "eps": 2.0 ** -5, "replicas": 400,
          "f": F_CENTER}, [[0, 7]], [108]),
        ({"kind": "cauchy", "grid_n": 256, "gamma": 0.5,
          "eps_ladder": SHORT, "replicas": 300,
          "f": {"center": 0.5, "radius": 0.1}}, [[0, 7]], [216]),
        ({"kind": "mollifier-independence", "grid_n": 256, "gamma": 0.5,
          "eps_ladder": SHORT, "replicas": 300,
          "f": {"center": 0.5, "radius": 0.1}}, [[0, 7]], [216]),
        ({"kind": "sup-prob", "grid_n": 512, "lam": 1.6, "ks": [4, 5, 6],
          "qs": [2, 4], "replicas": 400, "f": F_CENTER},
         [[0, 2], [3, 3], [4, 4], [5, 5], [6, 6]],
         [400, 240, 216, 216, 216]),
        ({"kind": "tilt-check", "replicas": 500},
         [[0, 2]] + [[k, k] for k in range(3, 9)], None),
        ({"kind": "sobolev", "grid_n": 256, "eps_ladder": SHORT,
          "replicas": 200, "f": {"center": 0.5, "radius": 0.1}},
         [[0, 2]] + [[k, k] for k in range(3, 8)],
         [216, 135, 125, 120, 120, 120]),
        (TRUNC_CAUCHY_CFG, [[0, 2]] + [[k, k] for k in range(3, 7)],
         [135, 96, 90, 90, 90]),
    ], ids=["field-stats", "moment-check", "cauchy", "mollifier-independence",
            "sup-prob", "tilt-check", "sobolev", "truncated-cauchy"])
    def test_groups_match_plan_sets(self, cfg, groups, torus):
        _, run = plan(dict(cfg, seed=9))
        nets = run(1, "id")[2]
        assert nets["level_groups"] == groups
        assert nets.get("torus_points") == torus
        if torus is None:  # per separation, one positive ratio per group
            ratios = nets["embedding_min_ratio"]
            assert len(ratios) == 4
            assert all(len(r) == len(groups) and min(r) > 0 for r in ratios)

    def test_untruncated_moments_draw_one_group(self):
        grid = Grid.regular((0.0, 1.0), 128)
        f = bump_function(grid, center=0.5, radius=0.2)
        bench = verify.Bench(KernelSpec(d=1), grid, 8, f=f)
        verify.mc_moments(bench, [(ChaosParams(f=f, gamma=0.8), "product",
                                   2 ** -4, 2 ** -5)], replicas=40, seed=1)
        assert bench.safety_net["level_groups"] == [[0, 8]]

    def test_library_moments_equal_cli_csv(self, tmp_path, capsys):
        # mc_moments on a Bench built with no level or window argument
        # gives the run's moments.csv estimates bit for bit
        cfg = {"kind": "moment-check", "grid_n": 128, "replicas": 300,
               "gammas": [0.8, [0.5, 0.5]], "estimands": ["mean", "product"],
               "eps": 2.0 ** -4, "eps_prime": 2.0 ** -5, "seed": 7,
               "f": F_CENTER}
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved"]
        with open(out / "moments.csv", newline="") as fh:
            rows = [(r["estimate_re"], r["estimate_im"])
                    for r in csv.DictReader(fh)]
        grid = Grid.regular((0.0, 1.0), 128)
        f = bump_function(grid, center=0.5, radius=0.2)
        bench = verify.Bench(KernelSpec(d=1), grid, resolved["n_max"], f=f)
        jobs = [(ChaosParams(f=f, gamma=g), est, 2.0 ** -4, 2.0 ** -5)
                for g in (0.8, 0.5 + 0.5j) for est in ("mean", "product")]
        ests = verify.mc_moments(bench, jobs, replicas=300, seed=7)
        assert rows == [(repr(m.estimate.real), repr(m.estimate.imag))
                        for m in ests]


# one tiny valid config per kind: grid_n <= 64 and replicas <= 64
F_TINY = {"center": 0.5, "radius": 0.2}
TINY = [
    {"kind": "phase-scan", "alpha_range": [-2.0, 2.0, 5],
     "beta_range": [-2.0, 2.0, 5]},
    {"kind": "kernel-check", "grid_n": 64, "eps_ladder": [0.125, 0.0625],
     "n_ladder": [2, 3, 4], "eps_fixed": 0.125},
    {"kind": "field-stats", "grid_n": 64, "eps": 0.125, "eps_prime": 0.0625,
     "var_levels": [2, 3], "probes": 3, "replicas": 40, "seed": 1,
     "f": F_TINY},
    {"kind": "moment-check", "grid_n": 64, "gammas": [0.5],
     "estimands": ["mean", "product"], "eps": 0.125, "eps_prime": 0.0625,
     "replicas": 40, "seed": 1, "f": F_TINY},
    {"kind": "cauchy", "gamma": 0.5, "grid_n": 64,
     "eps_ladder": [0.125, 0.0625], "replicas": 40, "seed": 0, "f": F_TINY},
    {"kind": "mollifier-independence", "gamma": 0.5, "grid_n": 64,
     "eps_ladder": [0.125], "replicas": 40, "seed": 0, "f": F_TINY},
    {"kind": "tail-check", "u_over_sigma": [0, 1, 2]},
    {"kind": "sup-prob", "grid_n": 64, "ks": [2, 3], "qs": [2],
     "replicas": 40, "seed": 0, "f": F_TINY},
    {"kind": "tilt-check", "n_max": 6, "replicas": 40, "seed": 0},
    {"kind": "sobolev", "grid_n": 64, "eps_ladder": [0.125, 0.0625],
     "replicas": 40, "seed": 0, "f": F_TINY},
]

# every key a plan reads but kind, out and the two scale keys
FUZZ_KEYS = ["alpha", "alpha_range", "beta", "beta_range", "check", "d",
             "eps", "eps_fixed", "eps_ladder", "eps_prime", "estimands", "f",
             "gamma", "gammas", "ks", "lam", "n_ladder", "n_max", "probes",
             "profiles", "q", "qs", "seed", "separations", "u",
             "u_over_sigma", "var_levels"]
FUZZ_VALUES = (
    st.integers(-2, 12) | st.floats(-2.0, 2.0)
    | st.sampled_from([None, True, "x", "nan", "auto", "both", "partial",
                       1e300, float("inf"), [], [0.5], [0.125, 0.0625],
                       [0.25, 0.125, 0.0625], [0.1, 0.05, 0.02, 0.01],
                       [2, 3], [1, 2, 4], [-2.0, 2.0, 3], ["mean"],
                       ["product", "distance2"], [[0.5, 0.5]], [[1.1, 0.25]],
                       ["bump", "quartic"], {"center": 0.5},
                       {"radius": 0.1}, {"center": 0.3, "radius": 0.05},
                       10 ** 400, [10 ** 400, 0]]))
FUZZ_MUTATIONS = st.lists(st.one_of(
    st.tuples(st.sampled_from(FUZZ_KEYS), st.just(None), st.just(True)),
    st.tuples(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES, st.just(False)),
    st.tuples(st.sampled_from(["grid_n", "replicas"]),
              st.integers(-1, 64) | st.sampled_from([None, "x", 2.5]),
              st.just(False)),
    st.tuples(st.sampled_from(["kind", "out"]), FUZZ_VALUES,
              st.sampled_from([False, True]))), max_size=3)


# finite floats, half of them at the ends of the double range
FUZZ_EXTREMES = st.floats(allow_nan=False, allow_infinity=False) | \
    st.sampled_from([1e308, -1e308, 1e-300, 5e-324])
FUZZ_AXIS = st.tuples(FUZZ_EXTREMES, FUZZ_EXTREMES, st.integers(1, 4)).map(list)
# tail-check and phase-scan, the kinds whose numbers alone set their scale
FUZZ_SCALES = (
    st.builds(lambda u: {"kind": "tail-check", "u_over_sigma": u},
              st.lists(FUZZ_EXTREMES.map(abs), min_size=1, max_size=3))
    | st.builds(lambda a, b: {"kind": "phase-scan", "alpha_range": a,
                              "beta_range": b}, FUZZ_AXIS, FUZZ_AXIS))


class TestRunDirectory:
    """A run writes its CSV tables, manifest.json and verdicts.json, and
    nothing else."""

    @pytest.mark.parametrize("cfg", TINY, ids=[cfg["kind"] for cfg in TINY])
    def test_only_tables_and_records(self, tmp_path, capsys, cfg):
        out = tmp_path / "out"
        assert main(["run", cfg_file(tmp_path, cfg), "--out", str(out)]) in (0, 1)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*manifest["csv_sha256"], "manifest.json", "verdicts.json"])

    def test_no_run_factors_a_matrix(self, tmp_path, capsys, monkeypatch):
        # every sampled kind, tilt-check's pair too, draws through circulant
        # roots alone: no run asks LAPACK for a Cholesky factor
        def refuse(*args, **kwargs):
            raise AssertionError("a dense Cholesky factor was built")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        for i, cfg in enumerate(TINY):
            out = tmp_path / f"out{i}"
            code = main(["run", cfg_file(tmp_path, cfg), "--out", str(out)])
            assert code in (0, 1), cfg["kind"]


class TestConfigFuzz:
    """A tiny config of any kind, with keys mutated or missing, exits 0 or 1
    with its run record, or 2 or 3 with one line and no traceback."""

    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(TINY), FUZZ_MUTATIONS)
    def test_run_ends_cleanly(self, base, mutations):
        cfg = dict(base)
        for key, value, drop in mutations:
            if drop:
                cfg.pop(key, None)
            else:
                cfg[key] = value
        self.ends_cleanly(cfg)

    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(FUZZ_SCALES)
    def test_extreme_scales_end_cleanly(self, cfg):
        self.ends_cleanly(cfg)

    @staticmethod
    def ends_cleanly(cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["run", str(path), "--out", str(out)])
            if code in (0, 1):
                assert (out / "manifest.json").exists(), cfg
                assert (out / "verdicts.json").exists(), cfg
            else:
                assert code in (2, 3), cfg
                assert len(err.getvalue().strip().splitlines()) == 1, cfg
