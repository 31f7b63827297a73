"""Per-layer metrics from the traced run's span aggregates.

A layer's self time is the sum of its spans' self times (span time minus
suspension minus the time child spans cover).  Per-message figures divide
by the application messages delivered in the traced units; per-unit counts
divide by the number of traced units.  A layer that did no work on a
workload reports 0 calls and 0 time.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from perfbench.tracing import LAYER_OF, LAYERS

#: name -> unit, in report order; BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.self_us_per_event": "us/event",
    "kompics.triggers_per_msg": "calls/msg",
    "kompics.self_us_per_msg": "us/msg",
    "messaging.serialize_calls_per_msg": "calls/msg",
    "messaging.self_us_per_msg": "us/msg",
    "netsim.alloc_calls": "count",
    "netsim.flows_per_alloc": "flows",
    "netsim.alloc_us_per_call": "us/call",
    "core.selects_per_msg": "calls/msg",
    "core.episodes": "count",
    "core.update_us_per_episode": "us/episode",
    "core.self_us_per_msg": "us/msg",
    "aio.frames_per_batch": "frames",
    "aio.send_us_per_batch": "us/batch",
    "aio.drain_wait_ms_per_batch": "ms/batch",
    "aio.notify_wait_ms_p50": "ms",
    "aio.send_failures": "count",
    "aio.dups_suppressed": "count",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_seconds(aggs: Dict[str, Any]) -> Dict[str, float]:
    """Self time per layer, in seconds."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, agg in aggs.items():
        out[LAYER_OF[name]] += agg.self_time
    return out


def self_ms_per_unit(aggs: Dict[str, Any], units: int) -> Dict[str, float]:
    """Self time per layer per unit, in ms (the traced run's detail line)."""
    return {layer: _ratio(seconds * 1e3, units) for layer, seconds in layer_self_seconds(aggs).items()}


def layer_metrics(aggs: Dict[str, Any], msgs: int, units: int, sim_events: int,
                  notify_waits: List[float], aio_counters: Dict[str, int],
                  overhead: float) -> Dict[str, Dict[str, Any]]:
    def calls(name: str) -> int:
        agg = aggs.get(name)
        return agg.calls if agg is not None else 0

    def attr(name: str, field: str) -> float:
        agg = aggs.get(name)
        return getattr(agg, field) if agg is not None else 0.0

    self_s = layer_self_seconds(aggs)
    batches = calls("aio.send_frames")
    episodes = calls("core.end_episode")
    values = {
        "sim.events": _ratio(sim_events, units),
        "sim.self_us_per_event": _ratio(self_s["sim"] * 1e6, sim_events),
        "kompics.triggers_per_msg": _ratio(calls("kompics.trigger"), msgs),
        "kompics.self_us_per_msg": _ratio(self_s["kompics"] * 1e6, msgs),
        "messaging.serialize_calls_per_msg": _ratio(
            calls("messaging.serialize") + calls("messaging.deserialize")
            + calls("messaging.wire_size"), msgs),
        "messaging.self_us_per_msg": _ratio(self_s["messaging"] * 1e6, msgs),
        "netsim.alloc_calls": _ratio(calls("netsim.allocate_rate"), units),
        "netsim.flows_per_alloc": _ratio(attr("netsim.allocate_rate", "n"),
                                         calls("netsim.allocate_rate")),
        "netsim.alloc_us_per_call": _ratio(attr("netsim.allocate_rate", "self_time") * 1e6,
                                           calls("netsim.allocate_rate")),
        "core.selects_per_msg": _ratio(calls("core.select"), msgs),
        "core.episodes": _ratio(episodes, units),
        "core.update_us_per_episode": _ratio(attr("core.update", "total") * 1e6, episodes),
        "core.self_us_per_msg": _ratio(self_s["core"] * 1e6, msgs),
        "aio.frames_per_batch": _ratio(attr("aio.send_frames", "n"), batches),
        "aio.send_us_per_batch": _ratio(attr("aio.send_frames", "self_time") * 1e6, batches),
        "aio.drain_wait_ms_per_batch": _ratio(
            (attr("aio.send_frames", "wait") + attr("aio.drain", "total")) * 1e3, batches),
        "aio.notify_wait_ms_p50": statistics.median(notify_waits) * 1e3 if notify_waits else 0.0,
        "aio.send_failures": float(aio_counters.get("send_failures", 0)),
        "aio.dups_suppressed": float(aio_counters.get("dups_suppressed", 0)),
        "trace.overhead_frac": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
