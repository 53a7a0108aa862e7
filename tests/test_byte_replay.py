"""tools/byte_replay.py: the byte-replay harness between two source trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "byte_replay.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("byte_replay", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_tree_replays_itself():
    # two TINY configs, each tree in its own process: equal bytes, exit 0
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(TOOL), src, src,
         "--runs", "^tiny/(kernel-check|tilt-check)$"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["2 runs, 0 mismatches"]


def test_run_set_is_the_49_runs():
    names = [name for name, _ in load_tool().run_set()]
    assert len(names) == len(set(names)) == 49
    assert sum(n.startswith("tiny/") for n in names) == 10
    assert sum(n.startswith("test_13/") for n in names) == 30


def test_mismatches_named():
    # an exit code and a CSV hash that move are each one line; a run that
    # writes no manifest on one side names every CSV of the other; a run
    # that raised is one line naming each tree it raised in, also when
    # both trees raised alike
    tool = load_tool()
    crash = "ValueError: degenerate box (0.5, 0.5)"
    parent = {"a": [0, {"x.csv": "1"}], "b": [0, {"x.csv": "1", "y.csv": "2"}],
              "c": [0, {"z.csv": "3"}], "d": [1, {"x.csv": "4"}],
              "e": [crash, None], "f": [0, {"x.csv": "6"}]}
    change = {"a": [0, {"x.csv": "1"}], "b": [0, {"x.csv": "1", "y.csv": "5"}],
              "c": [2, None], "d": [1, {"x.csv": "4"}],
              "e": [crash, None], "f": [crash, None]}
    assert tool.compare(list(parent), parent, change) == [
        "b: csv_sha256 differs in y.csv",
        "c: exit code 0 -> 2",
        "c: csv_sha256 differs in z.csv",
        f"e: raised in parent ({crash}), change ({crash})",
        f"f: raised in change ({crash})",
        "f: csv_sha256 differs in x.csv"]
