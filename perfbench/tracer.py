"""Layer spans recorded from outside the package, for traced runs only.

`Tracer.install()` wraps the public functions of each layer module (the
names in its `__all__`; `main` for `cli`, which has none) at every
`gbscavity` module that binds them, including the defining module, so calls
such as `protocol.monte_carlo_jitter -> run_generation` and
`cli.cmd_generate -> run_generation` are both seen.  The `__post_init__` of
the state classes is wrapped too, which counts and times every state object
built.  `uninstall()` puts the original objects back.

Spans are recorded only while an op is open (`begin_op`/`end_op`), so output
checks run between ops stay out of the trace.  Each span holds its name,
start and end (ns), parent span and op id, in flat arrays kept in memory
until `dump` writes them out.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("states", "dynamics", "protocol", "angular", "cli")
STATE_CLASSES = ("FieldState", "AtomState", "JointState")
SERIALIZERS = ("states.state_to_dict", "states.state_from_dict")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.op_id = None
        self.ops = 0
        self.mc_attempted = 0
        self.mc_used = 0
        self.mc_p2_sum = 0.0
        self.patches = []

    # ------------------------------------------------------------ install

    def install(self):
        modules = {layer: importlib.import_module(f"gbscavity.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ("main",)):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "gbscavity" and not name.startswith("gbscavity."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for cls_name in STATE_CLASSES:
            cls = getattr(modules["states"], cls_name)
            self._patch(cls, "__post_init__",
                        self._wrap(f"states.{cls_name}.__post_init__", cls.__post_init__))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _patch(self, owner, attr, replacement):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        on_result = self._mc_result if name == "protocol.monte_carlo_jitter" else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _mc_result(self, report):
        self.mc_attempted += len(report.samples)
        self.mc_used += report.samples_used
        self.mc_p2_sum += report.mean_p2 * report.samples_used

    # ---------------------------------------------------------------- ops

    def begin_op(self):
        self.op_id = self.ops
        self.ops += 1

    def end_op(self):
        self.op_id = None

    # ------------------------------------------------------------ results

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_ns[self.parent[i]] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["incl_s"] += dur * 1e-9
            row["self_s"] += (dur - child_ns[i]) * 1e-9
        return out

    def layer_self_s(self, totals):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, row in totals.items():
            out[name.split(".", 1)[0]] += row["self_s"]
        return out

    def dump(self, path, meta):
        """Write every span as columns; times are ns from the first span."""
        t0 = min(self.start) if self.start else 0
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name_id.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
