"""Span recorder that times calls into each hsplit layer from outside the package.

Spans are recorded by wrapping functions where their callers look them
up.  ``splitting``, ``fields``, ``equilibrium`` and ``apps`` import the
``manifold`` helpers (``exp_map``, ``dist`` ...) by name, so those are
caught through the class methods the helpers call (``Manifold.exp`` ...).
The layers reach each other through module attributes resolved at call
time (``fields.resolvent_with_residual``, ``equilibrium.resolvent_T``
...), so wrapping the attribute catches every caller.  ``splitting.run``
dispatches its steps through a private table, so steps get no span of
their own.

Each span holds a name, start and end (``perf_counter``), its parent
span and the thread CPU time spent inside it.  Spans live in per-thread
column buffers in memory and are written out once, when the benchmark
ends.  A layer is the first dotted component of a span name.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class _ThreadBuffer:
    __slots__ = ("name", "parent", "start", "end", "cpu", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.stack: list[int] = []


@dataclass(frozen=True)
class Spans:
    """Spans merged across threads; a parent always precedes its children."""

    names: tuple[str, ...]
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    cpu: np.ndarray

    def __len__(self) -> int:
        return len(self.name)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the part covered by direct child spans."""
        covered = np.zeros(len(self))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        return self.duration - covered

    def is_named(self, *names: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, ids)

    def in_layer(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return np.isin(self.name, ids)

    def within(self, *names: str) -> np.ndarray:
        """Spans named ``names`` and every span nested below one of them."""
        inside = self.is_named(*names).tolist()
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0 and inside[p]:
                inside[i] = True
        return np.asarray(inside, dtype=bool)

    def count(self, *names: str) -> int:
        return int(self.is_named(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.duration[self.is_named(*names)].sum())

    def arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return {
            f"{prefix}names": np.asarray(self.names),
            f"{prefix}name": self.name,
            f"{prefix}parent": self.parent,
            f"{prefix}start": self.start,
            f"{prefix}end": self.end,
            f"{prefix}cpu": self.cpu,
        }


class SpanRecorder:
    """Collects spans from any number of threads into memory."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, fn, span_name: str):
        """``fn`` with every call recorded as a span named ``span_name``."""
        if span_name not in self._names:
            self._names.append(span_name)
        name_id = self._names.index(span_name)
        buffer = self._buffer
        clock = time.perf_counter
        cpu_clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.start.append(0.0)
            buf.end.append(0.0)
            buf.cpu.append(0.0)
            buf.stack.append(idx)
            c0 = cpu_clock()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu_clock()
                buf.stack.pop()
                buf.start[idx] = t0
                buf.end[idx] = t1
                buf.cpu[idx] = c1 - c0

        return traced

    def take(self) -> Spans:
        """Everything recorded so far; the recorder starts empty again.

        Call only while no span is open.
        """
        with self._lock:
            buffers, self._buffers = self._buffers, []
            self._local = threading.local()

        def column(attr: str, dtype) -> np.ndarray:
            parts = [np.asarray(getattr(b, attr), dtype=dtype) for b in buffers]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        sizes = [len(b.start) for b in buffers]
        offsets = np.repeat(np.cumsum([0] + sizes[:-1]), sizes).astype(np.int64)
        parent = column("parent", np.int64)
        return Spans(
            names=tuple(self._names),
            name=column("name", np.int32),
            parent=np.where(parent >= 0, parent + offsets, -1),
            start=column("start", float),
            end=column("end", float),
            cpu=column("cpu", float),
        )


@contextmanager
def patched(owner, attr: str, value):
    """Temporarily replace ``owner.attr``."""
    original = owner.__dict__[attr]
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def _targets():
    from hsplit import apps, cli, equilibrium, fields, manifold, splitting

    methods = [
        (manifold.Manifold, "exp", "manifold.exp"),
        (manifold.Manifold, "log", "manifold.log"),
        (manifold.Manifold, "dist", "manifold.dist"),
        (manifold.Manifold, "point", "manifold.point"),
        (fields.VectorField, "evaluate", "fields.evaluate"),
        (equilibrium.Bifunction, "eval", "equilibrium.eval"),
        (splitting.IterationTrace, "write", "splitting.trace_write"),
    ]
    targets = []
    for cls, attr, span in methods:
        # a subclass that overrides the method would bypass the base wrapper
        stack = [cls]
        while stack:
            c = stack.pop()
            if attr in c.__dict__:
                targets.append((c, attr, span))
            stack.extend(c.__subclasses__())
    targets += [
        (fields, "resolvent_with_residual", "fields.resolvent_with_residual"),
        (fields, "resolvent", "fields.resolvent"),
        (equilibrium, "resolvent_T", "equilibrium.resolvent_T"),
        (splitting, "run", "splitting.run"),
        (splitting, "validate_schedule", "splitting.validate_schedule"),
        (apps, "get_problem", "apps.get_problem"),
        (apps, "subdifferential_field", "apps.subdifferential_field"),
        (apps, "saddle_field", "apps.saddle_field"),
        (cli, "main", "cli.main"),
    ]
    return targets


@contextmanager
def tracing(recorder: SpanRecorder):
    """Record spans for calls into every layer while the block runs."""
    with ExitStack() as stack:
        for owner, attr, span in _targets():
            stack.enter_context(patched(owner, attr, recorder.wrap(owner.__dict__[attr], span)))
        yield recorder


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer counts and self times of the solve path."""
    self_time = spans.self_time()
    out: dict[str, float] = {}

    manifold = spans.in_layer("manifold")
    for op in ("exp", "log", "dist", "point"):
        out[f"manifold.{op}.calls"] = spans.count(f"manifold.{op}")
    calls = int(manifold.sum())
    out["manifold.self_s"] = float(self_time[manifold].sum())
    out["manifold.us_per_call"] = 1e6 * out["manifold.self_s"] / calls if calls else 0.0

    f_res = spans.within("fields.resolvent_with_residual", "fields.resolvent")
    resolvents = spans.count("fields.resolvent_with_residual")
    evals_inside = int((f_res & spans.is_named("fields.evaluate")).sum())
    out["fields.resolvent.calls"] = resolvents
    out["fields.evaluate.calls"] = spans.count("fields.evaluate")
    out["fields.evals_per_resolvent"] = evals_inside / resolvents if resolvents else 0.0
    out["fields.resolvent.self_s"] = float(self_time[f_res & spans.in_layer("fields")].sum())

    e_res = spans.within("equilibrium.resolvent_T")
    resolvents = spans.count("equilibrium.resolvent_T")
    evals_inside = int((e_res & spans.is_named("equilibrium.eval")).sum())
    out["equilibrium.resolvent.calls"] = resolvents
    out["equilibrium.eval.calls"] = spans.count("equilibrium.eval")
    out["equilibrium.evals_per_resolvent"] = evals_inside / resolvents if resolvents else 0.0
    out["equilibrium.resolvent.self_s"] = float(
        self_time[e_res & spans.in_layer("equilibrium")].sum()
    )

    out["splitting.validate.s"] = spans.total("splitting.validate_schedule")
    out["splitting.self_s"] = float(self_time[spans.in_layer("splitting")].sum())
    out["splitting.trace_write.s"] = spans.total("splitting.trace_write")
    out["trace.spans"] = len(spans)
    return out


def write_spans(path: Path, **phases: Spans) -> None:
    """Write each phase's spans as arrays prefixed by the phase name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for phase, spans in phases.items():
        arrays.update(spans.arrays(f"{phase}_"))
    np.savez(path, **arrays)
