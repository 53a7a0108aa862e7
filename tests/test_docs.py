"""The demos and the README's code run as written, each in a fresh process,
and the API names the README cites exist."""

import importlib
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import logchaos

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(pathlib.Path(logchaos.__file__).resolve().parents[1])

# each demo at a scale that takes about a second
DEMOS = [
    ("barrier_events", ["--replicas", "64"]),
    ("convergence_ladders", ["--grid-n", "256", "--replicas", "80",
                             "--rungs", "3"]),
    ("field_gallery", ["--n", "128", "--n-max", "7", "--replicas", "64",
                       "--csv", "{tmp}/gallery.csv"]),
    ("moment_identities", ["--replicas", "64"]),
    ("phase_portrait", ["--n", "21"]),
]


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name,args", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs(name, args, tmp_path):
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = run_python([str(ROOT / "demos" / f"{name}.py"), *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_readme_python_blocks(tmp_path):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks, "README has no python block"
    for i, code in enumerate(blocks):
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, f"block {i}:\n{proc.stderr[-2000:]}"


def test_exports_match_all():
    # a deleted name must leave __all__ with its import, and a new public
    # name must join it
    public = {name for name, value in vars(logchaos).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert [n for n in logchaos.__all__ if not hasattr(logchaos, n)] == []
    assert sorted(public - set(logchaos.__all__)) == []


def test_readme_api_names_resolve():
    # every backticked `module.name` or `Name.attr` whose head is a module of
    # logchaos or an exported name (`Bench.draw`) names something that exists
    text = (ROOT / "README.md").read_text()
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        m = re.match(r"(\w+)((?:\.\w+)+)", span)
        if m is None:
            continue
        try:
            obj = importlib.import_module(f"logchaos.{m[1]}")
        except ImportError:
            obj = getattr(logchaos, m[1], None)
        if obj is None:
            continue
        for part in m[2].split(".")[1:]:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(span)
    assert missing == []
