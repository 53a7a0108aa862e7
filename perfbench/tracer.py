"""Per-layer spans and counts for logchaos, recorded from outside its source.

The tracer wraps the public functions of each module (kernels, mollifier,
sampler, verify, cli) for the length of one execution.  Modules import
functions by name (verify holds sampler.block_z as verify.block_z), so every
binding of a wrapped function in the loaded logchaos modules is replaced, and
every one is put back by restore().  Spans are kept in memory: name, start,
end and the index of the enclosing span.  Times are inclusive, so
sampler.block_z.s contains sampler.replica_normals.s.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name)
TARGETS = [
    ("kernels", "gram", "kernels.gram"),
    ("kernels", "q_n", "kernels.q_n"),
    ("kernels", "mollified_table", "kernels.mollified_table"),
    ("mollifier", "weight_matrix", "mollifier.weight_matrix"),
    ("sampler", "increment_factors", "sampler.increment_factors"),
    ("sampler", "block_z", "sampler.block_z"),
    ("sampler", "replica_normals", "sampler.replica_normals"),
    ("verify", "Bench.__init__", "verify.Bench.init"),
    ("verify", "Bench.supp_tables", "verify.supp_tables"),
    ("verify", "Bench.map_blocks", "verify.map_blocks"),
    ("verify", "ladder_from_values", "verify.reduce"),
    ("verify", "moment_from_values", "verify.reduce"),
    ("verify", "second_moment_oracle", "verify.second_moment_oracle"),
    ("cli", "execute", "cli.execute"),
    ("cli", "write_csv", "cli.write_csv"),
]

TOP = "cli.execute"


def array_bytes(obj):
    """nbytes of every ndarray reachable through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v) for v in obj)
    return 0


def _logchaos_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "logchaos" or name.startswith("logchaos."))]


class Tracer:
    """Spans and counters for one traced execution."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.bench_bytes = 0
        self.missing = []        # targets absent from this version of the code
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._wrappers = {}      # id -> wrapper; holding them keeps ids unique

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # hooks: count work at the boundary where it happens

    def _before_q_n(self, bound):
        self.counts["kernels.q_n.evals"] += int(np.size(bound.arguments["r"]))

    def _before_map_blocks(self, bound):
        bench = bound.arguments["self"]
        self.counts["verify.replicas"] += int(bound.arguments["replicas"])
        self.bench_bytes = max(self.bench_bytes, array_bytes(vars(bench)))
        consume = bound.arguments["consume"]

        def timed_consume(*a, **k):
            return self.call("verify.consume", consume, a, k)

        bound.arguments["consume"] = timed_consume

    def _after_reduce(self, bound, out):
        self.counts["verify.excluded"] += int(getattr(out, "excluded", 0))

    def _after_write_csv(self, bound, out):
        self.counts["cli.write_csv.bytes"] += os.path.getsize(bound.arguments["path"])

    def _wrap(self, name, orig):
        hooks = {"kernels.q_n": (self._before_q_n, None),
                 "verify.map_blocks": (self._before_map_blocks, None),
                 "verify.reduce": (None, self._after_reduce),
                 "cli.write_csv": (None, self._after_write_csv)}
        before, after = hooks.get(name, (None, None))
        sig = inspect.signature(orig) if before or after else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if sig is None:
                return self.call(name, orig, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            if before:
                before(bound)
            out = self.call(name, orig, bound.args, bound.kwargs)
            if after:
                after(bound, out)
            return out

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def install(self):
        mods = _logchaos_modules()
        for mod_name, attr, name in TARGETS:
            owner = importlib.import_module(f"logchaos.{mod_name}")
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if not callable(orig):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, orig)
            if cls_name:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def restore(self):
        """Put back every original; True when no wrapper is left anywhere."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        left = [owner for owner, attr, orig in self._patches
                if vars(owner)[attr] is not orig]
        for mod in _logchaos_modules():
            spaces = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                    if isinstance(v, type)]
            left += [k for ns in spaces for k, v in ns.items()
                     if id(v) in self._wrappers]
        return not left

    def summary(self):
        """Per-span calls and inclusive seconds, block_z quantiles, counts."""
        durs = defaultdict(list)
        top = {i for i, s in enumerate(self.spans) if s[0] == TOP}
        layers_s = 0.0
        for name, t0, t1, parent in self.spans:
            durs[name].append(t1 - t0)
            if parent in top:
                layers_s += t1 - t0
        out = {}
        for name, ds in durs.items():
            out[f"{name}.calls"] = len(ds)
            out[f"{name}.s"] = sum(ds)
        bz = sorted(durs.get("sampler.block_z", []))
        out["sampler.block_z.p50_ms"] = 1e3 * _quantile(bz, 0.5)
        out["sampler.block_z.p90_ms"] = 1e3 * _quantile(bz, 0.9)
        out["verify.Bench.init_s"] = out.pop("verify.Bench.init.s", 0.0)
        out["verify.bench_bytes"] = self.bench_bytes
        out["trace.layers_s"] = layers_s
        out.update(self.counts)
        return out


def _quantile(xs, q):
    """Linear-interpolated quantile of sorted xs; 0.0 when there are none."""
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
