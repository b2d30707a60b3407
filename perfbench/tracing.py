"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the repro layers *from the
benchmark's side*: each wrap point names the attribute a caller actually
resolves at call time (a module global such as
``repro.verification.reduced.pack_frozen``, or a method on a class), and
the wrapper records one span per call.  Nothing under ``src/`` changes.

A span is (layer, start, end, parent, op).  Spans live in flat arrays
until the run ends; :func:`layer_totals` then charges every span's
duration minus its children's to its layer.  Counts that the program
already returns (fleet rounds, explorer states, fault events) are read
from the return values of the wrapped calls, never recomputed.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Layer name of the per-op root span.  Its self time is whatever the op
#: spends outside every wrapped layer (ring construction, result objects).
OP = "op"


class Tracer:
    """In-memory span recorder with a counter registry."""

    def __init__(self) -> None:
        self.layers: List[str] = [OP]
        self._layer_index: Dict[str, int] = {OP: 0}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack: List[int] = []
        self._ops = 0
        self._op_id = -1
        self.counters: Dict[str, float] = defaultdict(float)

    def layer_id(self, name: str) -> int:
        if name not in self._layer_index:
            self._layer_index[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_index[name]

    def open(self, layer: int) -> int:
        index = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> int:
        """Open the root span of the next op; pass the result to close."""
        self._op_id = self._ops
        self._ops += 1
        return self.open(0)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def __len__(self) -> int:
        return len(self.start)


def layer_totals(tracer: Tracer) -> Dict[str, Tuple[int, float, float]]:
    """Per layer: (spans, self seconds, inclusive seconds).

    Self time is a span's duration minus its children's.  Spans come
    from one thread, so a span's children are disjoint and lie inside
    it; the part of a span they cover is the sum of their durations.
    """
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    layer = np.frombuffer(tracer.layer, dtype=np.uint16)
    width = len(tracer.layers)
    duration = end - start
    nested = parent >= 0
    child = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    spans = np.bincount(layer, minlength=width)
    own = np.bincount(layer, weights=duration - child, minlength=width)
    inclusive = np.bincount(layer, weights=duration, minlength=width)
    return {
        name: (int(spans[lid]), float(own[lid]), float(inclusive[lid]))
        for lid, name in enumerate(tracer.layers)
    }


def root_wall(tracer: Tracer) -> float:
    """Seconds spent inside op root spans (the traced op time)."""
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    roots = np.frombuffer(tracer.parent, dtype=np.int64) < 0
    return float((end[roots] - start[roots]).sum())


# -- wrap points ------------------------------------------------------------

#: ``on_result(tracer, result, args, kwargs)`` reads counts off a return
#: value after the span has closed.
OnResult = Callable[[Tracer, Any, tuple, dict], None]


@dataclass(frozen=True)
class WrapPoint:
    """One attribute to wrap: ``owner.attr`` charged to ``layer``."""

    owner: Any
    attr: str
    layer: str
    on_result: Optional[OnResult] = None


def traced(
    tracer: Tracer, layer: str, fn: Callable, on_result: Optional[OnResult] = None
) -> Callable:
    """``fn`` with one span per call charged to ``layer``."""
    lid = tracer.layer_id(layer)
    open_span, close_span = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = open_span(lid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(span)
        if on_result is not None:
            on_result(tracer, result, args, kwargs)
        return result

    return wrapper


class Installed:
    """Wrappers in place; :meth:`restore` puts every original back.

    Restoring is exact: an attribute the owner held itself gets the very
    same object back, one it inherited is deleted again, and a registry
    entry gets its original tuple back.
    """

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set_attr(self, owner: Any, attr: str, value: Any) -> None:
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def set_item(self, mapping: Dict[str, Any], key: str, value: Any) -> None:
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(
    tracer: Tracer,
    points: Sequence[WrapPoint],
    registries: Sequence[tuple] = (),
) -> Installed:
    """Wrap every point, and every function in each ``(dict, layer)``
    registry (``{name: tuple_of_functions}``, read at call time, as the
    invariant batteries are).  A function listed under several names is
    wrapped once, so it still records one span per call."""
    installed = Installed()
    try:
        for point in points:
            original = getattr(point.owner, point.attr)
            installed.set_attr(
                point.owner,
                point.attr,
                traced(tracer, point.layer, original, point.on_result),
            )
        for registry, layer in registries:
            wrapped: Dict[int, Callable] = {}
            for name, battery in list(registry.items()):
                installed.set_item(
                    registry,
                    name,
                    tuple(
                        wrapped.setdefault(id(fn), traced(tracer, layer, fn))
                        for fn in battery
                    ),
                )
    except BaseException:
        installed.restore()
        raise
    return installed
