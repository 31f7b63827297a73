"""Span tracing for the traced benchmark run, installed from outside ``src/``.

:func:`install` wraps the public methods at each layer boundary of
:mod:`repro` with timing wrappers and returns a function that restores the
originals.  Nothing under ``src/`` is edited: the wrappers are class
attributes set at run time, so they must be installed *before* the system
under test is built (Kompics binds ``ComponentCore.execute_batch`` when a
component is created).

Each wrapped call records a span ``(id, parent, name, thread, start, end,
wait, self, msg, n)``:

* ``parent`` is the innermost open span on the same thread (0 for none);
* ``wait`` is the time a coroutine span spent suspended (0 for plain calls);
* ``self`` is the span's time minus its wait minus the time its child
  spans cover;
* ``msg`` is the message id where the call carries one message;
* ``n`` is a per-call count (frames in a batch, flows on a link).

Spans go to one buffer per thread and are aggregated per name as they
close, so long runs keep exact totals while the buffer is capped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> layer; the order is the report order
LAYER_OF = {
    "sim.run_until": "sim",
    "kompics.execute_batch": "kompics",
    "kompics.trigger": "kompics",
    "messaging.serialize": "messaging",
    "messaging.deserialize": "messaging",
    "messaging.wire_size": "messaging",
    "netsim.allocate_rate": "netsim",
    "core.select": "core",
    "core.update": "core",
    "core.end_episode": "core",
    "aio.send_frames": "aio",
    "aio.drain": "aio",
    "aio.notify_wait": "aio",
}
LAYERS = ("sim", "kompics", "messaging", "netsim", "core", "aio")

Record = Tuple[int, int, str, str, float, float, float, float, Optional[str], int]


def message_id(obj: Any) -> Optional[str]:
    """A stable id for an application message, or None.

    A ping and its pong share one id, as do a chunk's request and
    delivery, so the spans of one exchange can be joined.
    """
    msg = getattr(obj, "msg", obj)  # MessageNotify.Req wraps its message
    seq = getattr(msg, "seq", None)
    if seq is None:
        return None
    transfer = getattr(msg, "transfer_id", None)
    if transfer is not None:
        return f"chunk:{transfer}:{seq}"
    return f"ping:{seq}"


class _Agg:
    __slots__ = ("calls", "total", "self_time", "wait", "n")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.wait = 0.0
        self.n = 0


class _ThreadState:
    __slots__ = ("name", "stack", "spans", "aggs", "dropped")

    def __init__(self, name: str) -> None:
        self.name = name
        #: open spans: [span id, time covered by closed children]
        self.stack: List[List[Any]] = []
        self.spans: List[Record] = []
        self.aggs: Dict[str, _Agg] = {}
        #: spans closed after the buffer was full
        self.dropped = 0


class Recorder:
    """Per-thread span buffers plus per-name aggregates."""

    #: spans kept per thread for the written trace; later ones are only
    #: aggregated (a sim-pair unit closes ~230k spans)
    KEEP_SPANS = 100_000

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _close(self, state: _ThreadState, sid: int, parent: int, name: str,
               start: float, end: float, wait: float, self_time: float,
               msg: Optional[str], n: int) -> None:
        agg = state.aggs.get(name)
        if agg is None:
            agg = state.aggs[name] = _Agg()
        agg.calls += 1
        agg.total += end - start
        agg.self_time += self_time
        agg.wait += wait
        agg.n += n
        if len(state.spans) < self.KEEP_SPANS:
            state.spans.append((sid, parent, name, state.name, start, end, wait, self_time, msg, n))
        else:
            state.dropped += 1

    def interval(self, name: str, start: float, end: float, msg: Optional[str] = None) -> None:
        """Record a pure-wait span measured by the caller (no parent)."""
        self._close(self._state(), next(self._ids), 0, name, start, end,
                    end - start, 0.0, msg, 0)

    # -- aggregation ----------------------------------------------------
    def aggregates(self) -> Dict[str, _Agg]:
        out: Dict[str, _Agg] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, agg in state.aggs.items():
                acc = out.setdefault(name, _Agg())
                acc.calls += agg.calls
                acc.total += agg.total
                acc.self_time += agg.self_time
                acc.wait += agg.wait
                acc.n += agg.n
        return out

    def spans(self) -> List[Record]:
        with self._lock:
            states = list(self._states)
        out: List[Record] = []
        for state in states:
            out.extend(state.spans)
        out.sort(key=lambda r: r[4])
        return out

    @property
    def dropped(self) -> int:
        """Spans aggregated but not kept, once the buffers were full."""
        with self._lock:
            return sum(state.dropped for state in self._states)

    def reset(self) -> None:
        """Forget everything recorded so far (open spans stay open)."""
        with self._lock:
            for state in self._states:
                state.spans.clear()
                state.aggs.clear()
                state.dropped = 0

    def write(self, path: str) -> int:
        """Write the buffered spans as gzipped JSON lines; returns the count."""
        records = self.spans()
        keys = ("id", "parent", "name", "thread", "start", "end", "wait", "self", "msg", "n")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for record in records:
                fh.write(json.dumps(dict(zip(keys, record))))
                fh.write("\n")
        return len(records)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def _sync(rec: Recorder, name: str, fn: Callable,
          msg_of: Optional[Callable] = None,
          n_of: Optional[Callable] = None) -> Callable:
    ids = rec._ids

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state = rec._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        frame = [next(ids), 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            rec._close(
                state, frame[0], parent[0] if parent is not None else 0, name,
                start, end, 0.0, duration - frame[1],
                msg_of(args) if msg_of is not None else None,
                n_of(args) if n_of is not None else 0,
            )

    return wrapper


class _TimedAwait:
    """Drives a coroutine step by step, timing busy steps and suspensions."""

    __slots__ = ("rec", "name", "coro", "n")

    def __init__(self, rec: Recorder, name: str, coro: Any, n: int) -> None:
        self.rec = rec
        self.name = name
        self.coro = coro
        self.n = n

    def __await__(self):  # noqa: C901 - one generator protocol loop
        rec = self.rec
        coro = self.coro
        state = rec._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        frame = [next(rec._ids), 0.0]
        start = perf_counter()
        busy = 0.0
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                stack.append(frame)
                step = perf_counter()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    busy += perf_counter() - step
                    stack.pop()
                try:
                    value = yield yielded
                    error = None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # delivered into the coroutine
                    value = None
                    error = exc
        finally:
            end = perf_counter()
            if parent is not None:
                parent[1] += busy
            rec._close(state, frame[0], parent[0] if parent is not None else 0,
                       self.name, start, end, (end - start) - busy, busy - frame[1],
                       None, self.n)


def _coroutine(rec: Recorder, name: str, fn: Callable,
               n_of: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        n = n_of(args) if n_of is not None else 0
        return await _TimedAwait(rec, name, fn(*args, **kwargs), n)

    return wrapper


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that unwraps them."""
    from repro.aio.transport import AioConnection
    from repro.core.flow import DestinationFlow
    from repro.core.prp import ProtocolRatioPolicy
    from repro.core.psp import ProtocolSelectionPolicy
    from repro.kompics.component import ComponentCore
    from repro.kompics.port import Port
    from repro.messaging.serialization import SerializerRegistry
    from repro.netsim.link import LinkDirection
    from repro.sim.simulator import Simulator

    # The concrete subclasses must be imported to be found and wrapped.
    for module in ("repro.aio.tcp", "repro.aio.udt", "repro.core.arms",
                   "repro.core.patterns", "repro.core.td_learner"):
        importlib.import_module(module)
    first = lambda args: message_id(args[1])  # noqa: E731
    patches: List[Tuple[type, str, Callable]] = [
        (Simulator, "run_until", lambda f: _sync(rec, "sim.run_until", f)),
        (ComponentCore, "execute_batch", lambda f: _sync(rec, "kompics.execute_batch", f)),
        (Port, "trigger", lambda f: _sync(rec, "kompics.trigger", f, msg_of=first)),
        (SerializerRegistry, "serialize", lambda f: _sync(rec, "messaging.serialize", f, msg_of=first)),
        (SerializerRegistry, "deserialize", lambda f: _sync(rec, "messaging.deserialize", f)),
        (SerializerRegistry, "wire_size", lambda f: _sync(rec, "messaging.wire_size", f, msg_of=first)),
        (LinkDirection, "allocate_rate", lambda f: _sync(
            rec, "netsim.allocate_rate", f, n_of=lambda a: len(a[0].active_flows))),
        (ProtocolSelectionPolicy, "select", lambda f: _sync(rec, "core.select", f)),
        (DestinationFlow, "end_episode", lambda f: _sync(rec, "core.end_episode", f)),
    ]
    for cls in _subclasses(ProtocolRatioPolicy):
        if "update" in cls.__dict__:
            patches.append((cls, "update", lambda f: _sync(rec, "core.update", f)))
    for cls in _subclasses(AioConnection):
        if "send_frames" in cls.__dict__:
            patches.append((cls, "send_frames", lambda f: _coroutine(
                rec, "aio.send_frames", f, n_of=lambda a: len(a[1]))))
        if "drain" in cls.__dict__:
            patches.append((cls, "drain", lambda f: _coroutine(rec, "aio.drain", f)))

    originals = []
    for cls, attr, make in patches:
        original = cls.__dict__[attr]
        originals.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def uninstall() -> None:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# span checks (used by the benchmark's tests)
# ----------------------------------------------------------------------

def nesting_errors(records: List[Record]) -> List[str]:
    """Problems with the span tree: a child outside its parent's interval
    or thread, or a negative self time."""
    by_id = {r[0]: r for r in records}
    errors = []
    for r in records:
        if r[7] < 0:
            errors.append(f"span {r[0]} {r[2]} has negative self time {r[7]}")
        parent = by_id.get(r[1])
        if parent is None:
            continue
        if parent[3] != r[3]:
            errors.append(f"span {r[0]} {r[2]} crosses threads")
        if not (parent[4] <= r[4] and r[5] <= parent[5]):
            errors.append(f"span {r[0]} {r[2]} lies outside parent {parent[0]} {parent[2]}")
    return errors
