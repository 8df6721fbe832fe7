"""In-memory span tracer and the layer wrappers the traced run installs.

A span is (name, start, end, parent span, op id).  Spans are kept in flat
arrays while the run goes and written once it ends.  A layer's self time is
its span's duration minus the time covered by its direct child spans; calls
are single-threaded, so child spans nest and never overlap.

The wrappers are installed from here, around the public functions of each
``ncfree`` module, by replacing the module (or class) attribute.  The
package looks those attributes up at call time, so nested calls inside the
package record spans too.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

from ncfree.ncpart import catalan

# layer name -> (module, attribute path) wrapped under it
LAYERS = {
    "model.tau_word": [("ncfree.model", "tau_word")],
    "model.z_moment": [("ncfree.model", "z_moment")],
    "model.centering_moment": [("ncfree.model", "centering_moment")],
    "ratmat.product_trace": [("ncfree.ratmat", "product_trace")],
    "ncpart.moments_to_cumulants": [("ncfree.ncpart", "moments_to_cumulants")],
    "freeprob.mixed_cumulant": [("ncfree.freeprob", "mixed_cumulant"),
                                ("ncfree.model", "mixed_cumulant")],
    "freeprob.FreeProduct.moment": [("ncfree.freeprob", "FreeProduct.moment")],
    "factors": [("ncfree.factors", "dykema_free_product"),
                ("ncfree.factors", "free_product_with_matrix"),
                ("ncfree.factors", "vn_z_description"),
                ("ncfree.factors", "m3_parameter")],
    "rmt.estimate_words": [("ncfree.rmt", "FreePairSampler.estimate_words")],
    "rmt.linalg_qr": [("numpy.linalg", "qr")],
    "rmt.linalg_svd": [("numpy.linalg", "svd")],
}


class Tracer:
    """Records spans in flat arrays; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        # time spent in this tracer's own hooks inside each span
        self.hidden = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        # tau_word keys seen in this pass, and the derived partition count
        self.tau_seen: set = set()
        self.tau_repeats = 0
        self.partitions_computed = 0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, t: float | None = None) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter() if t is None else t)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.hidden.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, t: float | None = None) -> None:
        self._stack.pop()
        self.end[idx] = time.perf_counter() if t is None else t

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the currently open one."""
        self.close(self.open(self.name_id(name), start), end)

    def wrap(self, name: str, fn, on_call=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                h0 = time.perf_counter()
                on_call(args, kwargs)
                if self._stack:
                    self.hidden[self._stack[-1]] += time.perf_counter() - h0
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- layer hooks

    def _tau_call(self, args, kwargs):
        word = tuple(args[0])
        params = args[1] if len(args) > 1 else kwargs["params"]
        key = (word, params.n)
        if key in self.tau_seen:
            self.tau_repeats += 1
            return
        self.tau_seen.add(key)
        d = sum(1 for letter in word if getattr(letter, "is_z", False))
        if d:
            self.partitions_computed += catalan(d)

    def _z_moment_call(self, args, kwargs):
        self.partitions_computed += catalan(max(args[0], 0))

    def install(self) -> None:
        """Wrap every layer whose module is already imported."""
        hooks = {"model.tau_word": self._tau_call,
                 "model.z_moment": self._z_moment_call}
        wrapped: dict = {}
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                owner = module
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
                key = id(fn)
                if key not in wrapped:
                    wrapped[key] = self.wrap(layer, fn, hooks.get(layer))
                setattr(owner, leaf, wrapped[key])

    # -- reduction

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += (self.end[i] - self.start[i] - child[i]
                            - self.hidden[i])
        return {nm: (calls[i], self_s[i]) for i, nm in enumerate(self.names)}

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [self.end[i] - self.start[i]
                for i in range(len(self.start)) if self.name[i] == nid]

    def merge(self, payload: dict) -> None:
        """Add spans recorded by a child process under the open span."""
        base = len(self.start)
        outer = self._stack[-1] if self._stack else -1
        ids = [self.name_id(nm) for nm in payload["names"]]
        for s, e, p, nm in zip(payload["start"], payload["end"],
                               payload["parent"], payload["name"]):
            self.start.append(s)
            self.end.append(e)
            self.parent.append(outer if p < 0 else base + p)
            self.name.append(ids[nm])
            self.op.append(self.op_id)
            self.hidden.append(0.0)
        for i, h in enumerate(payload["hidden"]):
            self.hidden[base + i] = h
        self.tau_repeats += payload["tau_repeats"]
        self.partitions_computed += payload["partitions_computed"]

    def payload(self) -> dict:
        return {"names": self.names, "start": self.start.tolist(),
                "end": self.end.tolist(), "parent": self.parent.tolist(),
                "name": self.name.tolist(), "hidden": self.hidden.tolist(),
                "tau_repeats": self.tau_repeats,
                "partitions_computed": self.partitions_computed}

    def write(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {"names": self.names,
               "columns": ["start_s", "end_s", "parent", "name", "op"],
               "start_s": [round(s - t0, 7) for s in self.start],
               "end_s": [round(e - t0, 7) for e in self.end],
               "parent": self.parent.tolist(), "name": self.name.tolist(),
               "op": self.op.tolist()}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
