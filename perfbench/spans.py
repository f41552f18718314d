"""Spans around every public function of eprkit's modules, installed from outside the package.

The tracer replaces each public function of a layer module by a wrapper
that records one span (name, start, end, parent) per call.  It re-binds the
wrapper everywhere the package holds the original: the defining module, every
module that imported the name with ``from … import``, the package namespace,
and the ``verify.SUITES`` tuple.  The report writer's ``json.dumps`` call in
``eprkit.cli`` gets its own span, ``cli.report_encode``.

Spans of one op live in plain lists while the op runs and are packed into
arrays when it ends, tagged with the op index; nothing is written to disk
until the run is over.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "eprkit"
LAYERS = ("linalg", "antilinear", "bipartite", "sampling", "teleport", "modular", "formats", "verify", "cli")
REPORT_ENCODE = "cli.report_encode"


class _JsonProxy:
    """Stands in for the json module inside eprkit.cli, with a traced dumps."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Wraps eprkit's public functions and keeps the spans of each op.

    Call install() before the traced pass and uninstall() after it; bracket
    each op with begin_op() and end_op(index).
    """

    def __init__(self):
        self.names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._name_ids: list[int] = []
        self._parents: list[int] = []
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.ops: list[dict[str, np.ndarray]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        starts, ends, name_ids, parents, stack = (
            self._starts, self._ends, self._name_ids, self._parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._set(mod, attr, wrappers[id(obj)][1])
        verify = modules[f"{PACKAGE}.verify"]
        self._set(verify, "SUITES", tuple(wrappers[id(s)][1] for s in verify.SUITES))
        cli = modules[f"{PACKAGE}.cli"]
        self._set(cli, "json", _JsonProxy(cli.json, self._wrap(cli.json.dumps, REPORT_ENCODE)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------------

    def begin_op(self):
        """Drop spans recorded since the last op ended (calls made by outside checks)."""
        for buf in (self._starts, self._ends, self._name_ids, self._parents):
            del buf[:]

    def end_op(self, op_index: int):
        if len(self._stack) != 1:
            raise RuntimeError("span stack not empty at the end of an op")
        self.ops.append(
            {
                "name": np.array(self._name_ids, dtype=np.int32),
                "start": np.array(self._starts),
                "end": np.array(self._ends),
                "parent": np.array(self._parents, dtype=np.int32),
                "op": np.full(len(self._starts), op_index, dtype=np.int32),
            }
        )
        self.begin_op()

    def op_totals(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Calls and self seconds per span name in the k-th recorded op.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        s = self.ops[k]
        dur = s["end"] - s["start"]
        child = s["parent"] >= 0
        covered = np.bincount(s["parent"][child], weights=dur[child], minlength=dur.size)
        own = dur - covered
        n = len(self.names)
        return (
            np.bincount(s["name"], minlength=n),
            np.bincount(s["name"], weights=own, minlength=n),
        )

    def save(self, path):
        """Write every span: name table, then start, end, parent (index within its op) and op."""
        packed = {key: np.concatenate([s[key] for s in self.ops]) for key in ("name", "start", "end", "parent", "op")}
        np.savez_compressed(path, names=np.array(self.names), **packed)
