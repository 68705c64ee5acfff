"""Span recording for the benchmark's traced run.

Spans are taken around the engine's calls into other layers by wrapping
callables from outside the simulator, so the simulator's code is unchanged:

* ``process_access`` on the engine instance is the root span of an event;
  every span opened while it runs carries the same event id;
* every public method of the engine's ``store``, ``flat_cache``,
  ``overflow``, ``mac_cache`` and ``tree`` objects (whichever exist);
* the module-level names ``freshsim.engine.decode_*`` and
  ``freshsim.version_store.pack_bitfields`` / ``unpack_bitfields``, which is
  where those layers look them up at call time.

Spans live in compact in-memory arrays until :meth:`SpanRecorder.save`
writes them out.  A span's self time is its duration minus the durations of
the spans directly inside it.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYER_OBJECTS = ("store", "flat_cache", "overflow", "mac_cache", "tree")
MODULE_FUNCTIONS = (
    ("freshsim.engine", "decode_entry_image"),
    ("freshsim.engine", "decode_uneven_line"),
    ("freshsim.engine", "decode_full_lines"),
    ("freshsim.version_store", "pack_bitfields"),
    ("freshsim.version_store", "unpack_bitfields"),
)
ROOT_SPAN = "engine.process_access"


class SpanRecorder:
    """Columnar span store: name id, event id, parent span index, start, end
    (``perf_counter_ns``).  A parent index of -1 marks a root span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("B")
        self.event = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self._event = [-1]

    def wrap(self, name: str, fn, root: bool = False):
        """Return ``fn`` recording one span per call; a root call opens a new event."""
        if name not in self._name_ids:
            if len(self.names) == 255:
                raise ValueError("too many span names for the uint8 name column")
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, events, parents = self.name, self.event, self.parent
        starts, ends = self.start, self.end
        open_spans, event = self._open, self._event
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if root:
                event[0] += 1
            idx = len(starts)
            names.append(nid)
            events.append(event[0])
            parents.append(open_spans[-1] if open_spans else -1)
            starts.append(0)
            ends.append(0)
            open_spans.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.uint8)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - children, minlength=k)
        return {
            label: (int(calls[i]), float(total[i]) / 1e9, float(own[i]) / 1e9)
            for i, label in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint8),
            event=np.frombuffer(self.event, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _public_methods(obj) -> list[str]:
    found = []
    for klass in type(obj).__mro__:
        for attr, raw in vars(klass).items():
            if attr.startswith("_") or attr in found:
                continue
            if inspect.isfunction(raw):
                found.append(attr)
    return found


class Instrumented:
    """Context manager that wraps one engine for the duration of a replay."""

    def __init__(self, recorder: SpanRecorder, engine) -> None:
        self.recorder = recorder
        self.engine = engine
        self._undo: list = []

    def __enter__(self):
        rec = self.recorder
        engine = self.engine
        engine.process_access = rec.wrap(ROOT_SPAN, engine.process_access, root=True)
        self._undo.append(lambda: delattr(engine, "process_access"))
        for label in LAYER_OBJECTS:
            obj = getattr(engine, label, None)
            if obj is None:
                continue
            for meth in _public_methods(obj):
                setattr(obj, meth, rec.wrap(f"{label}.{meth}", getattr(obj, meth)))
                self._undo.append(lambda o=obj, m=meth: delattr(o, m))
        for module_name, fn_name in MODULE_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, fn_name)
            setattr(module, fn_name, rec.wrap(f"{module_name.split('.')[-1]}.{fn_name}", original))
            self._undo.append(lambda m=module, f=fn_name, o=original: setattr(m, f, o))
        return engine

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()
