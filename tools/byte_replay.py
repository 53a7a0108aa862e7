"""Byte replay: run one set of configs under two source trees and compare.

    python tools/byte_replay.py PARENT_SRC CHANGE_SRC [--runs REGEX]
                                [--extra FILE]

PARENT_SRC and CHANGE_SRC are source directories that each hold a
`logchaos` package (a checkout's `src`).  Each tree runs every config of
the set in one fresh Python process, with PYTHONPATH set to that tree,
PYTHONDONTWRITEBYTECODE=1 and a temporary output directory, and reports
each run's exit code and manifest `csv_sha256`.  The script prints every
run that raised in either tree (a crash, even one both trees share) and
every run whose exit code or CSV hashes differ between the trees, and
exits 1 on any such line, 0 when every run agrees, and 2 when a tree
cannot run.

The set holds 49 runs, named as printed:

* `tiny/KIND`: the ten TINY configs of tests/test_cli.py, with their seeds;
* `test_13/KIND/seed=S`: the ten REPRO_CONFIGS of tests/test_acceptance.py
  at seeds 0, 7 and 9;
* `workload/NAME/seed=S`: the three perfbench workload configs
  (perfbench/workloads.config) at seeds 7 and 9;
* `tilt-check/R=500/seed=S`: the default tilt-check at 500 replicas and
  seeds 0, 7 and 9.

--runs keeps the runs whose name matches REGEX (re.search), and --extra
adds the configs of a JSON object {name: config}.  The configs are read
from the test and benchmark files of this checkout, which stay unchanged.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in the tree's own process: one manifest per config, no output shown
CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
from logchaos.cli import main

runs, out = json.loads(Path(sys.argv[1]).read_text()), Path(sys.argv[2])
result = {}
for i, (name, cfg) in enumerate(runs):
    path = out / f"{i}.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["run", str(path), "--out", str(out / str(i))])
        except (Exception, SystemExit) as e:
            code = f"{type(e).__name__}: {e}"
    manifest = out / str(i) / "manifest.json"
    result[name] = [code, json.loads(manifest.read_text())["csv_sha256"]
                    if manifest.exists() else None]
Path(sys.argv[3]).write_text(json.dumps(result))
"""


def run_set():
    """[(name, config)] of the 49-run set."""
    path = sys.path[:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        from test_acceptance import REPRO_CONFIGS
        from test_cli import TINY
    finally:
        sys.path[:] = path

    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = [(f"tiny/{cfg['kind']}", cfg) for cfg in TINY]
    runs += [(f"test_13/{kind}/seed={s}", dict(body, kind=kind, seed=s))
             for kind, body in REPRO_CONFIGS.items() for s in (0, 7, 9)]
    runs += [(f"workload/{name}/seed={s}", workloads.config(name, s))
             for name in workloads.WORKLOADS for s in (7, 9)]
    runs += [(f"tilt-check/R=500/seed={s}",
              {"kind": "tilt-check", "replicas": 500, "seed": s})
             for s in (0, 7, 9)]
    return runs


def replay(src, runs):
    """{name: [exit code, csv_sha256]} of every run under the tree src."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "runs.json").write_text(json.dumps(runs))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(tmp / "runs.json"), str(tmp),
             str(tmp / "result.json")], cwd=tmp, env=env,
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{src}: the replay process exited "
                               f"{proc.returncode}\n{proc.stderr[-2000:]}")
        return json.loads((tmp / "result.json").read_text())


def compare(names, parent, change):
    """One line per run that raised in either tree (its code is the
    exception string CHILD records), else per run whose exit code differs,
    and one per run whose CSV hashes differ."""
    lines = []
    for name in names:
        (code_a, hashes_a), (code_b, hashes_b) = parent[name], change[name]
        raised = [f"{tree} ({code})" for tree, code in
                  (("parent", code_a), ("change", code_b))
                  if isinstance(code, str)]
        if raised:
            lines.append(f"{name}: raised in {', '.join(raised)}")
        elif code_a != code_b:
            lines.append(f"{name}: exit code {code_a} -> {code_b}")
        if hashes_a != hashes_b:
            a, b = hashes_a or {}, hashes_b or {}
            moved = sorted(k for k in a.keys() | b.keys()
                           if a.get(k) != b.get(k))
            lines.append(f"{name}: csv_sha256 differs in {', '.join(moved)}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--runs", default="", help="regex the run names match")
    ap.add_argument("--extra", help="JSON object {name: config} to add")
    args = ap.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (Path(src) / "logchaos" / "__init__.py").is_file():
            print(f"{src}: no logchaos package", file=sys.stderr)
            return 2
    runs = run_set()
    if args.extra:
        runs += list(json.loads(Path(args.extra).read_text()).items())
    runs = [(name, cfg) for name, cfg in runs if re.search(args.runs, name)]
    if not runs:
        print(f"no run matches {args.runs!r}", file=sys.stderr)
        return 2
    try:
        parent = replay(args.parent_src, runs)
        change = replay(args.change_src, runs)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 2
    lines = compare([name for name, _ in runs], parent, change)
    for line in lines:
        print(line)
    print(f"{len(runs)} runs, {len(lines)} mismatches")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
