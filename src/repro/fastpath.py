"""Feature flag for the one fast path that changes event structure.

The performance pass keeps a hard invariant: *optimized runs produce
byte-identical simulated results to the unoptimized paths*.  Pure
memoizations (dispatch tables, serializer lookup, the kernel run queue,
allocation epochs, the vectorized max-min solver) are unconditional;
the committed golden-digest table (``scripts/ci_checks.py golden``)
pins their output instead.  The one fast path left behind a flag
coalesces events, so its reference path is a different event stream
with the same observable results: the equivalence gate
(``repro perf --equivalence``) and ``repro check compare`` rerun
workloads with it off and byte-compare.  See ``docs/performance.md``.

Flags
-----
``RX_TRAIN``
    Per-flow receive-side delivery trains in the fluid network model
    (one pump event per flow instead of one heap entry per in-flight
    message; see :class:`repro.netsim.connection.FlowState`).

The flag defaults to on.  Flipping it must never change simulated
timestamps, metric values or trace streams, only how many kernel
events carry them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

RX_TRAIN: bool = True

_ALL: Tuple[str, ...] = ("RX_TRAIN",)


def flags() -> Dict[str, bool]:
    """Current flag values, for logging and bench metadata."""
    return {name: bool(globals()[name]) for name in _ALL}


@contextmanager
def disabled(*names: str) -> Iterator[None]:
    """Temporarily turn fast paths off (all of them when none are named).

    Used by the equivalence gate and the correctness tests to run the
    reference (unoptimized) code paths::

        with fastpath.disabled():
            result, doc = run_observed(...)
    """
    targets = names or _ALL
    for name in targets:
        if name not in _ALL:
            raise ValueError(f"unknown fastpath flag {name!r}; known: {_ALL}")
    saved = {name: globals()[name] for name in targets}
    try:
        for name in targets:
            globals()[name] = False
        yield
    finally:
        globals().update(saved)
