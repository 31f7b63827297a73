"""The benchmark's own tests: output contract, correctness checks, spans.

Run from the root of a checkout with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.layers import PER_LAYER_UNITS, layer_self_seconds
from perfbench.tracing import Recorder, install, nesting_errors

ROOT = Path(__file__).resolve().parents[2]
SMALL_TRANSFER = 8 * workloads.MB
SMALL_FLOWS = 40


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


# ----------------------------------------------------------------------
# output contract
# ----------------------------------------------------------------------

def test_spec_lists_the_metrics_the_code_reports():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_output_names_every_end_to_end_metric_with_its_unit(workload):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == run.E2E_UNITS
    lines = proc.stdout.splitlines()
    for name, metric in doc["metrics"].items():
        assert metric["value"] > 0, name
        assert any(line.split()[:1] == [name] and line.endswith(metric["unit"]) for line in lines)


def test_traced_output_names_every_per_layer_metric():
    proc = _run_cli("--workload", "sim-incast", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == PER_LAYER_UNITS
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    # The incast bypasses the middleware: only sim and netsim do work.
    assert metrics["netsim.alloc_calls"] > 0 and metrics["sim.events"] > 0
    for idle in ("kompics.triggers_per_msg", "messaging.serialize_calls_per_msg",
                 "core.selects_per_msg", "aio.frames_per_batch"):
        assert metrics[idle] == 0, idle


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli("--workload", "sim-pair", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# the correctness checks catch lost and truncated messages
# ----------------------------------------------------------------------

def test_simulated_transfer_cut_short_is_caught(monkeypatch):
    monkeypatch.setattr(workloads, "MAX_SIM_TIME", 1.0)
    unit = workloads.sim_pair_unit(1, transfer_bytes=SMALL_TRANSFER)
    assert unit.errors and unit.failed > 0


def test_incast_flows_cut_short_are_caught(monkeypatch):
    monkeypatch.setattr(workloads, "INCAST_HORIZON", 0.5)
    unit = workloads.sim_incast_unit(1, flows=SMALL_FLOWS)
    assert unit.errors and unit.failed > 0


def test_failed_check_makes_the_command_fail(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "MAX_SIM_TIME", 1.0)
    assert run.main(["--workload", "sim-pair", "--seed", "1", "--seconds", "0"]) == 1
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["correct"] is False and doc["failed"] > 0
    assert doc["metrics"]["delivered_frac"]["value"] < 1.0


def _loopback_with_tampered_frames(tamper, chunks=40):
    """One short loopback transfer whose receiving network tampers frames.

    ``tamper(kind, n, frame)`` sees the ``n``-th frame of its kind
    (``"chunk"`` or ``"ping"``, told apart by size) and returns the frame to
    deliver, or None to drop it.
    """
    payloads = workloads.make_payloads(1)
    pair, _ = workloads.loopback_setup(payloads, workers=2)
    try:
        net_b = pair.net_b.definition
        original = net_b._on_frame
        seen = {"chunk": 0, "ping": 0}

        def on_frame(frame, key=None):
            kind = "chunk" if len(frame) > 1000 else "ping"
            seen[kind] += 1
            frame = tamper(kind, seen[kind], frame)
            if frame is not None:
                original(frame, key)

        net_b._on_frame = on_frame
        pings = workloads.PingGenerator(pair.pinger.definition)
        unit = workloads.loopback_transfer(pair, pings, None, chunks=chunks, timeout=2.0)
        return unit, workloads.finish_pings(pair, pings, timeout=1.0), len(pings.due)
    finally:
        pair.close()


def test_loopback_dropped_chunk_is_caught():
    unit, _, _ = _loopback_with_tampered_frames(
        lambda kind, n, f: None if kind == "chunk" and n == 5 else f)
    assert unit.errors and unit.failed > 0


def test_loopback_dropped_ping_is_caught():
    _, ping_errors, sent = _loopback_with_tampered_frames(
        lambda kind, n, f: None if kind == "ping" and n == 1 else f, chunks=400)
    assert sent > 0 and ping_errors


def test_loopback_truncated_chunk_is_caught():
    unit, _, _ = _loopback_with_tampered_frames(
        lambda kind, n, f: f[:-100] if kind == "chunk" and n == 7 else f)
    assert unit.errors and unit.failed > 0


def test_loopback_corrupted_chunk_is_caught():
    # The frame still decodes: the receiver's byte check must catch it.
    unit, _, _ = _loopback_with_tampered_frames(
        lambda kind, n, f: f[:-1] + bytes([f[-1] ^ 0xFF]) if kind == "chunk" and n == 7 else f)
    assert unit.errors and unit.failed > 0


def test_loopback_run_time_covers_delivery():
    # The receiving network stalls on the last chunk, after the sender has
    # had every notify: run_s must still include the stall.
    def stall(kind, n, frame):
        if kind == "chunk" and n == 40:
            time.sleep(0.3)
        return frame

    unit, _, _ = _loopback_with_tampered_frames(stall)
    assert not unit.errors and unit.run_s >= 0.3


def test_loopback_unit_closes_its_pair():
    before = threading.active_count()
    unit = workloads.loopback_unit(workloads.make_payloads(3), 2, None)
    assert not unit.errors and unit.failed == 0
    assert threading.active_count() == before
    assert unit.setup_s > 0 and unit.ctrl_rtts_ms and unit.counters["sent"] > 0
    assert unit.attempted == workloads.LOOPBACK_CHUNKS + len(unit.ctrl_rtts_ms)


def test_loopback_clean_transfer_passes():
    unit, ping_errors, _ = _loopback_with_tampered_frames(lambda kind, n, f: f)
    assert not unit.errors and unit.failed == 0 and not ping_errors
    assert unit.payload_bytes == 40 * workloads.LOOPBACK_CHUNK


# ----------------------------------------------------------------------
# traced spans
# ----------------------------------------------------------------------

def _traced(fn):
    rec = Recorder()
    uninstall = install(rec)
    try:
        result = fn()
    finally:
        uninstall()
    return rec, result


def test_sim_pair_spans_nest_and_self_times_are_not_negative():
    rec, unit = _traced(lambda: workloads.sim_pair_unit(2, transfer_bytes=SMALL_TRANSFER))
    assert not unit.errors
    spans = rec.spans()
    names = {s[2] for s in spans}
    assert {"sim.run_until", "kompics.execute_batch", "kompics.trigger",
            "messaging.wire_size", "netsim.allocate_rate", "core.select",
            "core.end_episode", "core.update"} <= names
    assert nesting_errors(spans) == []
    assert any(s[8] is not None for s in spans)  # message ids recorded
    assert all(v >= 0 for v in layer_self_seconds(rec.aggregates()).values())


def test_incast_netsim_allocation_dominates():
    rec, unit = _traced(lambda: workloads.sim_incast_unit(2))
    assert not unit.errors
    self_s = layer_self_seconds(rec.aggregates())
    assert max(self_s, key=self_s.get) == "netsim"
    for idle in ("kompics", "messaging", "core", "aio"):
        assert self_s[idle] == 0.0


def test_loopback_spans_nest_and_skip_the_simulator():
    payloads = workloads.make_payloads(2)
    rec = Recorder()
    uninstall = install(rec)
    try:
        pair, _ = workloads.loopback_setup(payloads, workers=2)
        try:
            pings = workloads.PingGenerator(pair.pinger.definition)
            unit = workloads.loopback_transfer(pair, pings, rec, chunks=60)
            assert not workloads.finish_pings(pair, pings)
        finally:
            pair.close()
    finally:
        uninstall()
    assert not unit.errors
    spans = rec.spans()
    assert nesting_errors(spans) == []
    self_s = layer_self_seconds(rec.aggregates())
    for idle in ("sim", "netsim", "core"):
        assert self_s[idle] == 0.0
    for busy in ("kompics", "messaging", "aio"):
        assert self_s[busy] > 0.0
    send = [s for s in spans if s[2] == "aio.send_frames"]
    assert send and all(s[9] >= 1 for s in send)  # frames per batch


def test_coroutine_span_splits_busy_and_wait():
    import asyncio

    from perfbench.tracing import _coroutine

    rec = Recorder()

    async def work():
        await asyncio.sleep(0.02)
        return 7

    timed = _coroutine(rec, "aio.drain", work)
    assert asyncio.run(timed()) == 7
    (span,) = rec.spans()
    assert span[6] >= 0.015  # suspended in the sleep
    assert 0 <= span[7] < span[6]


# ----------------------------------------------------------------------
# seeds
# ----------------------------------------------------------------------

def test_same_seed_reproduces_the_simulated_digests():
    a = workloads.sim_pair_unit(4, transfer_bytes=SMALL_TRANSFER)
    b = workloads.sim_pair_unit(4, transfer_bytes=SMALL_TRANSFER)
    assert a.digest == b.digest and a.model == b.model
    c = workloads.sim_incast_unit(4, flows=SMALL_FLOWS)
    d = workloads.sim_incast_unit(4, flows=SMALL_FLOWS)
    assert c.digest == d.digest and c.model == d.model


def test_different_seed_changes_the_inputs():
    assert workloads.make_payloads(1) == workloads.make_payloads(1)
    assert workloads.make_payloads(1) != workloads.make_payloads(2)
    a = workloads.sim_incast_unit(5, flows=SMALL_FLOWS)
    b = workloads.sim_incast_unit(6, flows=SMALL_FLOWS)
    assert a.digest != b.digest
