"""No run loads scipy: numpy is the package's only runtime dependency, and
neither importing the CLI, a run of any kind nor the continuum mollifier
constant c_d imports a scipy module."""

import json
import os
import pathlib
import subprocess
import sys

import logchaos
from test_cli import TINY

SRC = str(pathlib.Path(logchaos.__file__).resolve().parents[1])

# argv: one config path per run; prints, as its last line, the scipy
# modules loaded after the imports, after each run and after reading c_d
SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import logchaos
import logchaos.cli
seen = [["import", 0, loaded()]]
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = logchaos.cli.main(["run", path, "--out", path + ".out"])
    seen.append([path, code, loaded()])
from logchaos.mollifier import Mollifier
[Mollifier(d=1, profile=p).c_d for p in ("bump", "quartic")]
seen.append(["c_d", 0, loaded()])
print(json.dumps(seen))
"""


def test_runs_load_no_heavy_scipy(tmp_path):
    paths = []
    for cfg in TINY:
        path = tmp_path / f"{cfg['kind']}.json"
        path.write_text(json.dumps(cfg))
        paths.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *paths], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(seen) == 2 + len(TINY)
    for step, code, mods in seen:
        assert code in (0, 1) and mods == [], (step, code, mods)
