"""A run imports numpy and scipy's top-level package, not scipy's heavy
subpackages: scipy.special loads only for tail-check, and no run loads
scipy.integrate, scipy.fft or what they pull in."""

import json
import os
import pathlib
import subprocess
import sys

import logchaos
from test_acceptance import REPRO_CONFIGS

SRC = str(pathlib.Path(logchaos.__file__).resolve().parents[1])

HEAVY = [f"scipy.{m}" for m in ("fft", "special", "integrate", "linalg",
                                 "sparse", "optimize", "spatial")]

# argv: one config path per run; prints, as its last line, the heavy
# subpackages loaded after the imports and after each run
SCRIPT = f"""
import contextlib, io, json, sys
HEAVY = {HEAVY!r}

def loaded():
    return [m for m in HEAVY if m in sys.modules]

import logchaos
import logchaos.cli
seen = [["import", 0, loaded()]]
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = logchaos.cli.main(["run", path, "--out", path + ".out"])
    seen.append([path, code, loaded()])
print(json.dumps(seen))
"""


def test_runs_load_no_heavy_scipy(tmp_path):
    paths = []
    for kind in ("moment-check", "cauchy", "kernel-check", "tail-check"):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(dict(REPRO_CONFIGS[kind], kind=kind,
                                        seed=9)))
        paths.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *paths], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    *before, (_, tail_code, tail_loaded) = seen
    for step, code, mods in before:
        assert code in (0, 1) and mods == [], (step, code, mods)
    assert tail_code == 0 and "scipy.special" in tail_loaded
