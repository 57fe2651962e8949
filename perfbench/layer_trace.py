"""In-memory span tracer for the kv-store benchmark.

The tracer measures each layer from outside: it wraps the layer's public
entry points (functions and methods of ``repro``) for the duration of one
traced round and restores them afterwards, so the untraced rounds run the
program exactly as shipped.  A wrapped call records one span -- name, start,
end, parent span and the op id its arguments carry -- and adds its *self*
time (its duration minus the time its child spans cover) to its layer.

The engines bind message and codec helpers by name at import
(``from ...messages import make_batch_ack``), so a function is patched in
every loaded ``repro`` module that binds it, not only where it is defined.
Methods are patched on their class.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers in report order; every per-layer metric name starts with one.
LAYERS = (
    "observe", "sim", "codec", "messages", "engine.proxy", "engine.cache",
    "engine.server", "protocols", "engine.client",
)

_clock = time.perf_counter_ns


def _span_id(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Optional[str]:
    """The op or round id a call's arguments carry, if any."""
    op_id = kwargs.get("op_id")
    if op_id is not None:
        return op_id
    for arg in args[:3]:
        op_id = getattr(arg, "op_id", None)
        if isinstance(op_id, str):
            return op_id
    return None


class LayerTotals:
    """Calls, self time and extra counts of one layer."""

    __slots__ = ("calls", "self_ns", "bytes", "events")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.bytes = 0
        self.events = 0


class Tracer:
    """Records spans of wrapped calls made on the current thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.totals: Dict[str, LayerTotals] = {layer: LayerTotals() for layer in LAYERS}
        self._stack: List[List[int]] = []  # [span index, child ns] per open span
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_ids: List[Optional[str]] = []

    def reset(self) -> None:
        """Zero the layer totals and forget recorded spans.

        Spans still open keep running and are counted when they close, so a
        reset at the first op invoked starts the run phase cleanly.
        """
        for totals in self.totals.values():
            totals.__init__()
        for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del column[:]
        self.span_ids.clear()
        for frame in self._stack:
            frame[0] = -1  # their start was forgotten; they close unrecorded

    # -- wrappers --------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable,
             measure: Optional[Callable[[LayerTotals, Any, Tuple], None]] = None
             ) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``measure(totals, result, args)`` adds layer-specific counts (bytes
        encoded, events executed) after each call.
        """
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(layer, name, fn)
        name_id = len(self.names)
        self.names.append(name)
        totals = self.totals[layer]
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ids, stack = self.span_parent, self.span_ids, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(starts)
            names.append(name_id)
            parents.append(parent[0] if parent is not None else -1)
            ids.append(_span_id(args, kwargs))
            frame = [index, 0]
            stack.append(frame)
            start = _clock()
            starts.append(start)
            ends.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                if frame[0] >= 0:
                    ends[frame[0]] = end
                totals.calls += 1
                totals.self_ns += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
            if measure is not None:
                measure(totals, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_async(self, layer: str, name: str, fn: Callable) -> Callable:
        # A coroutine's span would cover the time it spends suspended, and
        # other tasks interleave with it; count the call only.  Its
        # synchronous work is the wrapped encode/decode it calls.
        totals = self.totals[layer]

        async def traced(*args, **kwargs):
            totals.calls += 1
            return await fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tname\tstart_ns\tend_ns\tid\n")
            names = self.names
            for index, (name_id, start, end, parent, op_id) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_ids)):
                out.write(f"{index}\t{parent}\t{names[name_id]}\t{start}\t{end}\t"
                          f"{op_id or ''}\n")
        return len(self.span_start)


# -- what gets wrapped ----------------------------------------------------------------


def _encoded_bytes(totals: LayerTotals, result: Any, _args: Tuple) -> None:
    totals.bytes += len(result)


def _events_executed(totals: LayerTotals, result: Any, _args: Tuple) -> None:
    totals.events += result


def _published(totals: LayerTotals, _result: Any, _args: Tuple) -> None:
    totals.events += 1


def entry_points() -> List[Tuple[str, Any, str, Optional[Callable]]]:
    """``(layer, owner, attribute, measure)`` for every wrapped entry point.

    ``owner`` is a class (patch the method) or a module (patch the function
    wherever a ``repro`` module binds it).
    """
    from repro import messages
    from repro.asyncio_net import codec
    from repro.kvstore.engine.cache import ReadCache
    from repro.kvstore.engine.client import ClientSessionEngine
    from repro.kvstore.engine.proxy import ProxyEngine
    from repro.kvstore.engine.server import GroupServerEngine
    from repro.observe.events import ObserverHub, _ScopedObserver
    from repro.observe.metrics import MetricsObserver
    from repro.protocols import registry as _all_protocols  # noqa: F401
    from repro.protocols.base import ServerLogic
    from repro.sim.clock import EventQueue

    points: List[Tuple[str, Any, str, Optional[Callable]]] = [
        ("observe", _ScopedObserver, "emit", None),
        ("observe", ObserverHub, "publish", _published),
        ("observe", MetricsObserver, "handle", None),
        ("sim", EventQueue, "run", _events_executed),
        ("codec", codec, "encode_message", _encoded_bytes),
        ("codec", codec, "decode_message", None),
        ("codec", codec, "read_frame", None),
        ("codec", codec, "write_frame", None),
    ]
    points += [
        ("messages", messages, name, None)
        for name in sorted(vars(messages))
        if name.startswith(("make_", "unpack_")) and inspect.isfunction(getattr(messages, name))
    ]
    points += [("engine.proxy", ProxyEngine, name, None)
               for name in ("on_frame", "on_frame_undeliverable", "on_peer_lost", "on_timer")]
    points += [("engine.cache", ReadCache, name, None)
               for name in ("get", "peek", "pop", "insert")]
    points += [("engine.server", GroupServerEngine, name, None)
               for name in ("on_frame", "on_timer", "handle")]
    points += [("protocols", cls, "handle", None)
               for cls in _concrete_server_logics(ServerLogic)
               if cls.__module__.startswith("repro.protocols") and "handle" in vars(cls)]
    points += [("engine.client", ClientSessionEngine, name, None)
               for name in ("invoke", "on_frame", "on_timer", "on_connected",
                            "on_connect_failed", "on_peer_lost", "on_frame_undeliverable")]
    return points


def _concrete_server_logics(base: type) -> List[type]:
    found: List[type] = []
    for cls in base.__subclasses__():
        found.append(cls)
        found.extend(_concrete_server_logics(cls))
    return sorted(set(found), key=lambda cls: (cls.__module__, cls.__qualname__))


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point for the body of the ``with``; then restore."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for layer, owner, attr, measure in entry_points():
            original = vars(owner)[attr]
            if isinstance(owner, type):
                label = f"{owner.__module__}.{owner.__qualname__}.{attr}"
                restore.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(layer, label, original, measure))
                continue
            label = f"{owner.__name__}.{attr}"
            wrapper = tracer.wrap(layer, label, original, measure)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, name, original))
                        setattr(module, name, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
