"""Run one benchmark workload and print its metrics as a JSON last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-pair --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports the per-layer metrics from a traced run (timing
wrappers installed at run time) and writes its spans under
``perfbench/out/``.  The exit code is 0 when every correctness check
passed, 1 when one failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-pair", "sim-incast", "loopback-tcp")
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "goodput_mb_s": "MB/s",
    "cpu_ms_per_mb": "ms/MB",
    "delivered_frac": "ratio",
    "peak_rss_mb": "MB",
}
MB = 1024 * 1024
#: fewest passes over the workload's parts a run makes, whatever ``--seconds`` says
MIN_UNITS = 3
#: host-probe time (ms) of the reference host speed the metrics are scaled to
REFERENCE_PROBE_MS = 15.0


def _pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU, the highest allowed.

    On a shared host other tenants load the CPUs unevenly; pinned, the probe
    and the program (with all its threads) share one CPU's load, so the
    probe's scale applies to what the program got.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: program source not found at {src}/repro\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {src}\n")
        raise SystemExit(2)


def _per_part(units: List[Any], attr: str, scaled: bool = True) -> float:
    """Sum over the workload's parts of each part's median of ``attr``,
    each unit's value scaled to the reference host speed unless not
    ``scaled``."""
    parts: Dict[int, List[float]] = {}
    for unit in units:
        value = getattr(unit, attr) * (unit.scale if scaled else 1.0)
        parts.setdefault(unit.key, []).append(value)
    return sum(statistics.median(values) for values in parts.values())


class HostClock:
    """The host probe timed between units, giving each unit its scale.

    On a shared host other tenants load the cores in bursts of seconds to
    minutes (slowing the program by up to 1.7x on a 2-vCPU VM).  The
    probe, timed right before and right after a unit, slows by about the
    same factor; the unit's times are multiplied (and its goodput divided)
    by ``REFERENCE_PROBE_MS`` over the mean of those two probes.  A unit
    has torn down its system (and ``loopback-tcp`` checked that its
    threads ended) before it returns, so the program never runs beside
    the probe and cannot shift the scale by burning CPU while idle.
    """

    def __init__(self) -> None:
        from perfbench.workloads import host_probe

        self._probe = host_probe
        self.probes = [host_probe()]

    def scale(self) -> float:
        """Probe again; the scale for what ran since the last probe."""
        before = self.probes[-1]
        self.probes.append(self._probe())
        return 2.0 * REFERENCE_PROBE_MS / (before + self.probes[-1])


def _payload(units: List[Any]) -> int:
    """Payload bytes of one pass over every part."""
    return sum({u.key: u.payload_bytes for u in units}.values())


class Outcome:
    """What one invocation measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.detail: Dict[str, Any] = {}

    def add(self, unit: Any) -> None:
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.errors.extend(unit.errors)

    def delivered_frac(self) -> float:
        """Operations delivered over attempted; a failed check is undelivered."""
        return max(self.attempted - self.failed, 0) / self.attempted

    def end_to_end(self, setup_times: List[float], units: List[Any]) -> None:
        """Medians over the units at the reference host speed (see
        :class:`HostClock`); ``setup_times`` are scaled already.  The
        unscaled medians go to the detail line."""
        payload_mb = _payload(units) / MB
        run_s = _per_part(units, "run_s")
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "goodput_mb_s": payload_mb / run_s,
            "cpu_ms_per_mb": _per_part(units, "cpu_s") * 1000.0 / payload_mb,
            "delivered_frac": self.delivered_frac(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        self.metrics = {name: {"value": values[name], "unit": unit}
                        for name, unit in E2E_UNITS.items()}
        self.detail["raw"] = {"run_s": _per_part(units, "run_s", scaled=False),
                              "cpu_s": _per_part(units, "cpu_s", scaled=False)}
        self.detail["host_scale"] = statistics.median(u.scale for u in units)

    def document(self) -> Dict[str, Any]:
        return {
            "correct": not self.errors and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


# ----------------------------------------------------------------------
# the run loop
# ----------------------------------------------------------------------

def _check_repeats(units: List[Any], out: Outcome, name: str) -> None:
    """The same seed must give the same simulated outputs in every unit."""
    for key in sorted({u.key for u in units}):
        digests = {u.digest for u in units if u.key == key}
        if len(digests) != 1:
            out.errors.append(f"{name}: part {key} gave different simulated outputs "
                              f"in units of one seed: {sorted(digests)}")
            out.failed += units[-1].attempted


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Repeat the workload's units for ``seconds``, probing the host between them.

    Every unit sets up and tears down its whole system, so each probe runs
    while none of the program's threads or state is alive.
    """
    from perfbench import layers, workloads
    from perfbench.tracing import Recorder, install

    unit_fn, parts = workloads.workload_units(name, seed)
    out = Outcome()
    clock = HostClock()
    plain: List[Any] = []
    traced: List[Any] = []
    rec = Recorder() if trace else None
    deadline = perf_counter() + seconds
    # Untraced runs cycle through the parts; traced runs run each part
    # untraced, then traced, so both halves see the same host.
    step = 2 if trace else 1
    index = 0
    while True:
        part = (index // step) % parts
        if trace and index % 2 == 1:
            assert rec is not None
            if len(traced) == 1:
                rec.reset()  # the first traced unit warms the wrappers
            uninstall = install(rec)
            try:
                unit = unit_fn(part, rec)
            finally:
                uninstall()
            traced.append(unit)
        else:
            unit = unit_fn(part, None)
            plain.append(unit)
        unit.scale = clock.scale()
        out.add(unit)
        index += 1
        passes, rest = divmod(index, step * parts)
        if rest == 0 and passes > MIN_UNITS and perf_counter() >= deadline:
            break
    _check_repeats(plain + traced, out, name)
    measured = plain[1:]  # the first unit of a process is a warm-up
    out.detail = {"units": len(measured), "host_probe_ms": _spread(clock.probes)}
    if name == "loopback-tcp":
        out.detail.update(_loopback_detail(measured))
    else:
        out.detail["events_per_pass"] = sum({u.key: u.sim_events for u in measured}.values())
        out.detail["model"] = {u.key: dict(u.model, digest=u.digest) for u in measured}
    if not trace:
        out.end_to_end([u.setup_s * u.scale for u in measured], measured)
        return out
    assert rec is not None
    sample = traced[1:]
    overhead = _per_part(sample, "cpu_s") / _per_part(
        [u for u in measured if u.key in {t.key for t in sample}], "cpu_s") - 1.0
    aggs = rec.aggregates()
    out.metrics = layers.layer_metrics(
        aggs,
        msgs=sum(u.msgs for u in sample),
        units=len(sample),
        sim_events=sum(u.sim_events for u in sample),
        notify_waits=[w for u in sample for w in u.notify_waits],
        aio_counters=_sum_counters(sample),
        overhead=overhead,
    )
    out.detail["layer_self_ms_per_unit"] = layers.self_ms_per_unit(aggs, len(sample))
    out.detail["spans"] = _write_spans(rec, name, seed)
    return out


def _sum_counters(units: List[Any]) -> Dict[str, int]:
    """The units' AioNetwork counters, summed."""
    out: Dict[str, int] = {}
    for unit in units:
        for key, value in unit.counters.items():
            out[key] = out.get(key, 0) + value
    return out


def _loopback_detail(units: List[Any]) -> Dict[str, Any]:
    """Control-ping RTTs and generator lateness over the units, plus the
    AioNetwork counters summed over them."""
    rtts = sorted(r for u in units for r in u.ctrl_rtts_ms)
    detail: Dict[str, Any] = {
        "ctrl_samples": len(rtts),
        "ctrl_send_lateness_ms": _spread([x for u in units for x in u.ctrl_lateness_ms]),
        "aio_counters": _sum_counters(units),
    }
    if rtts:
        p95 = min(int(0.95 * len(rtts)), len(rtts) - 1)
        detail["ctrl_rtt_p50_ms"] = statistics.median(rtts)
        detail["ctrl_rtt_p95_ms"] = rtts[p95]
        detail["ctrl_samples_beyond_p95"] = len(rtts) - p95 - 1
    return detail


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def _spread(values: List[float]) -> Dict[str, float]:
    if not values:
        return {}
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def _write_spans(rec: Any, name: str, seed: int) -> Dict[str, Any]:
    directory = Path(__file__).resolve().parent / "out"
    directory.mkdir(exist_ok=True)
    path = directory / f"{name}-seed{seed}.spans.jsonl.gz"
    written = rec.write(str(path))
    return {"file": str(path.relative_to(ROOT)), "written": written, "dropped": rec.dropped}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    doc = out.document()
    for error in out.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "detail": out.detail}, default=str))
    for key, metric in out.metrics.items():
        print(f"{key:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    _pin_to_one_cpu()
    sys.exit(main())
