"""The benchmark's three workloads, each as a repeatable fixed-work unit.

* ``sim-pair`` -- the paper's host pair on the simulated EU2US setup: one
  395 MB DATA transfer (adaptive TCP/UDT selection by the Sarsa(lambda)
  learner) with open-loop TCP control pings on the same pair.
* ``sim-incast`` -- a 64-host star with hundreds of flows fanned into one
  sink, driven on raw netsim connections (no Kompics, no middleware).
* ``loopback-tcp`` -- two ``AioNetwork`` instances on 127.0.0.1: a
  notify-clocked window of 60 kB chunks plus open-loop control pings over
  the same TCP channel.

Every unit checks its own outputs and returns a :class:`Unit`; a failed
check lands in ``errors`` and counts its operations as failed.  Inputs
derive from the seed only; payload bytes are generated before any timed
region.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps import FileReceiver, FileSender, Pinger, Ponger, SyntheticDataset, register_app_serializers
from repro.apps.filetransfer.chunks import PAPER_CHUNK_BYTES, DataChunkMsg, next_transfer_id
from repro.apps.pingpong import PingMsg, PongMsg
from repro.bench.fleet import plan_flows
from repro.bench.harness import default_transfer_learner, run_in_steps, wire_endpoint
from repro.bench.scenario import MB, TestbedPair, setup_by_name
from repro.bench.topology import generate_topology
from repro.kompics import KompicsSystem, SimTimerComponent, Timer
from repro.kompics.component import ComponentDefinition, ComponentState
from repro.messaging import BasicHeader, MessageNotify, Network, SerializerRegistry, Transport
from repro.messaging.address import BasicAddress
from repro.netsim import Proto, SimNetwork, WireMessage
from repro.sim import Simulator
from repro.util.rng import derive_seed

from perfbench.tracing import Recorder


@dataclass
class Unit:
    """One fixed-work unit: timings, accounting and model outputs."""

    setup_s: float
    run_s: float
    cpu_s: float
    payload_bytes: int
    attempted: int
    failed: int
    msgs: int
    errors: List[str] = field(default_factory=list)
    #: simulated-time outputs (model, not program speed); digest covers them
    model: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""
    sim_events: int = 0
    #: which part of the workload this unit is (the incast's sub-seed index)
    key: int = 0
    #: loopback only: each chunk's MessageNotify Req->Resp wait, seconds
    notify_waits: List[float] = field(default_factory=list)
    #: loopback only: control-ping RTTs from each ping's due time, and the
    #: generator's lateness in sending them, ms
    ctrl_rtts_ms: List[float] = field(default_factory=list)
    ctrl_lateness_ms: List[float] = field(default_factory=list)
    #: loopback only: both AioNetworks' counters, summed
    counters: Dict[str, int] = field(default_factory=dict)
    #: factor to the reference host speed, from the probes around the unit
    scale: float = 1.0


def _digest(*parts: Any) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# sim-pair
# ----------------------------------------------------------------------

SIM_PAIR_SETUP = "EU2US"
SIM_PAIR_BYTES = 395 * MB  # the paper's dataset
PING_INTERVAL_SIM = 0.25  # simulated seconds between control pings
MAX_SIM_TIME = 2400.0


def sim_pair_unit(seed: int, transfer_bytes: int = SIM_PAIR_BYTES) -> Unit:
    """One DATA transfer plus control pings on the simulated EU2US pair.

    The wiring is ``run_latency_experiment``'s, with the Sarsa(lambda)
    transfer learner on the DATA side.  The data source is closed loop
    (the interceptor's notify window paces it); pings are open loop, one
    every 0.25 simulated seconds.
    """
    gc.collect()
    t0 = perf_counter()
    pair = TestbedPair(setup_by_name(SIM_PAIR_SETUP), seed=seed)
    snd = wire_endpoint(pair, pair.sender, "snd", data=True,
                        prp_factory=default_transfer_learner(seed), episode_length=0.25)
    rcv = wire_endpoint(pair, pair.receiver, "rcv", data=False)
    system = pair.system
    pinger = system.create(Pinger, pair.sender.address, pair.receiver.address,
                           transport=Transport.TCP, interval=PING_INTERVAL_SIM)
    ponger = system.create(Ponger, pair.receiver.address)
    timer = system.create(SimTimerComponent)
    system.connect(timer.provided(Timer), pinger.required(Timer))
    snd.attach(system, pinger)
    rcv.attach(system, ponger)
    dataset = SyntheticDataset(size=transfer_bytes, chunk_size=PAPER_CHUNK_BYTES, seed=seed)
    sender = system.create(FileSender, pair.sender.address, pair.receiver.address, dataset,
                           transport=Transport.DATA, disk=pair.sender.disk)
    receiver = system.create(FileReceiver, pair.receiver.address, disk=pair.receiver.disk)
    snd.attach(system, sender)
    rcv.attach(system, receiver)
    for component in (receiver, sender, timer, ponger, pinger):
        system.start(component)
    t1 = perf_counter()
    c1 = process_time()
    snd_def, png_def = sender.definition, pinger.definition
    run_in_steps(pair, MAX_SIM_TIME, lambda: snd_def.duration is not None, step=1.0)
    transfer_done = snd_def.duration is not None
    # Drain: every ping sent during the transfer must come home.
    run_in_steps(pair, pair.sim.now + 60.0, lambda: png_def.outstanding == 0, step=1.0)
    t2 = perf_counter()
    c2 = process_time()

    errors = []
    state = receiver.definition.transfers.get(snd_def.transfer_id)
    chunks = dataset.total_chunks
    got = len(state.seen) if state is not None else 0
    if not transfer_done or got != chunks or state.bytes_written != dataset.size:
        errors.append(f"sim-pair: {got}/{chunks} chunks delivered")
    if receiver.definition.duplicate_chunks:
        errors.append(f"sim-pair: {receiver.definition.duplicate_chunks} duplicate chunks")
    # Strict notify accounting inside the DATA interceptor: every chunk was
    # released and resolved by exactly one notify, nothing left queued.
    flow = snd.interceptor.flow_to(pair.receiver.address.ip, pair.receiver.address.port)
    if flow is None or flow.queued or flow.in_flight or flow.total_messages != chunks:
        errors.append("sim-pair: interceptor notify accounting " + (
            "missing" if flow is None else
            f"queued={flow.queued} in_flight={flow.in_flight} resolved={flow.total_messages}/{chunks}"))
    rtts = png_def.rtts
    pings = len(rtts) + png_def.outstanding
    if png_def.outstanding or not rtts:
        errors.append(f"sim-pair: {png_def.outstanding}/{pings} pings unanswered")
    duration = snd_def.duration or float("nan")
    model = {
        "sim_transfer_s": duration,
        "sim_goodput_mb_s": dataset.size / duration / MB,
        "sim_pings": len(rtts),
        "sim_ping_rtt_p50_ms": statistics.median(rtts) * 1000.0 if rtts else float("nan"),
    }
    failed = (chunks - got) + png_def.outstanding
    return Unit(
        setup_s=t1 - t0, run_s=t2 - t1, cpu_s=c2 - c1,
        payload_bytes=state.bytes_written if state is not None else 0,
        attempted=chunks + pings, failed=max(failed, 1) if errors else 0,
        msgs=got + 2 * len(rtts) + 1, errors=errors, model=model,
        digest=_digest(duration, rtts, got), sim_events=pair.sim.events_executed,
    )


# ----------------------------------------------------------------------
# sim-incast
# ----------------------------------------------------------------------

INCAST_HOSTS = 64
INCAST_FLOWS = 200
#: incasts per workload, each from its own sub-seed of the run's seed: one
#: incast's work varies with its plan by ~12% between seeds, the sum of
#: eight by ~4%
INCAST_PARTS = 8
INCAST_MEAN_FLOW = MB // 2
INCAST_MSG = 64 * 1024
INCAST_PORT = 34000
INCAST_HORIZON = 600.0


def sim_incast_unit(seed: int, part: int = 0, flows: int = INCAST_FLOWS) -> Unit:
    """Incast ``part`` of the workload: ``flows`` flows from 63 leaves into one sink.

    The part's plan comes from its own sub-seed of ``seed``.  Arrivals
    follow the plan (open loop, clustered in the first 1.5 simulated
    seconds); each flow's TCP or UDT window paces it.
    """
    seed = derive_seed(seed, f"perfbench.incast.{part}")
    gc.collect()
    t0 = perf_counter()
    topo = generate_topology("star", INCAST_HOSTS, seed=seed)
    plans = plan_flows(topo, flows, seed=seed, pattern="incast",
                       mean_flow_bytes=INCAST_MEAN_FLOW, msg_size=INCAST_MSG)
    sim = Simulator()
    net = SimNetwork(sim, seed=derive_seed(seed, "perfbench.incast"))
    net.apply_topology(topo)
    received = [0] * len(plans)
    completed_at: List[Optional[float]] = [None] * len(plans)
    sent = [[0, 0] for _ in plans]  # ok, failed

    def on_message(index: Any, size: int, conn: Any) -> None:
        received[index] += size
        if received[index] >= plans[index].size and completed_at[index] is None:
            completed_at[index] = sim.now

    def on_accept(conn: Any) -> None:
        conn.on_message = on_message

    for ip in sorted({plan.dst for plan in plans}):
        stack = net.stack_for(ip)
        for proto in (Proto.TCP, Proto.UDT):
            stack.listen(INCAST_PORT, proto, on_accept=on_accept)

    def launch(index: int) -> None:
        plan = plans[index]
        conn = net.stack_for(plan.src).connect((plan.dst, INCAST_PORT), Proto(plan.proto))
        counts = sent[index]

        def on_sent(ok: bool) -> None:
            counts[0 if ok else 1] += 1

        remaining = plan.size
        while remaining > 0:
            chunk = min(remaining, INCAST_MSG)
            conn.send(WireMessage(index, chunk, on_sent=on_sent))
            remaining -= chunk

    for plan in plans:
        sim.schedule_at(plan.start, lambda i=plan.index: launch(i), label="incast-launch")
    t1 = perf_counter()
    c1 = process_time()
    while None in completed_at and sim.now < INCAST_HORIZON:
        sim.run_until(min(sim.now + 5.0, INCAST_HORIZON))
    t2 = perf_counter()
    c2 = process_time()

    errors = []
    messages = sum(-(-plan.size // INCAST_MSG) for plan in plans)
    offered = sum(plan.size for plan in plans)
    delivered = sum(received)
    unfinished = sum(1 for t in completed_at if t is None)
    failed_msgs = sum(s[1] for s in sent)
    if unfinished or delivered != offered:
        errors.append(f"sim-incast: {unfinished} flows unfinished, {delivered}/{offered} bytes")
    if failed_msgs or sum(s[0] for s in sent) != messages:
        errors.append(f"sim-incast: {failed_msgs} sends failed of {messages}")
    ends = [t for t in completed_at if t is not None]
    model = {
        "sim_flows_completed": len(ends),
        "sim_last_completion_s": max(ends) if ends else float("nan"),
    }
    undelivered = messages * (offered - delivered) // offered if offered else 0
    return Unit(
        setup_s=t1 - t0, run_s=t2 - t1, cpu_s=c2 - c1, payload_bytes=delivered,
        attempted=messages, failed=max(undelivered + failed_msgs, 1) if errors else 0,
        msgs=messages, errors=errors, model=model,
        digest=_digest(topo.digest(), received, completed_at, sent), sim_events=sim.events_executed,
        key=part,
    )


# ----------------------------------------------------------------------
# loopback-tcp
# ----------------------------------------------------------------------

HOST = "127.0.0.1"
LOOPBACK_CHUNK = 60_000
LOOPBACK_WINDOW = 32  # notify-clocked chunks in flight
LOOPBACK_CHUNKS = 1000  # 60 MB per transfer
LOOPBACK_POOL = 16  # distinct payloads, generated before timing
PING_INTERVAL = 0.01  # wall seconds between control pings


def make_payloads(seed: int) -> List[bytes]:
    """The chunk payloads, from the seed; chunk ``i`` carries ``pool[i % LOOPBACK_POOL]``."""
    rng = random.Random(derive_seed(seed, "perfbench.payloads"))
    return [rng.randbytes(LOOPBACK_CHUNK) for _ in range(LOOPBACK_POOL)]


class BulkSender(ComponentDefinition):
    """Closed loop: keeps ``LOOPBACK_WINDOW`` chunks in flight, each under a notify.

    Strict accounting: ``requested - ok - failed`` is the leak count once
    ``done`` is set.  Each Req->Resp wait is kept (and, traced, recorded
    as an ``aio.notify_wait`` span).
    """

    def __init__(self, self_address, destination, payloads: List[bytes], chunks: int,
                 recorder: Optional[Recorder] = None) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.header = BasicHeader(self_address, destination, Transport.TCP)
        self.payloads = payloads
        self.chunks = chunks
        self.recorder = recorder
        self.transfer_id = next_transfer_id()
        self.requested = self.ok = self.failed = 0
        self._next = 0
        self._in_flight: Dict[int, Tuple[float, int]] = {}
        self.notify_waits: List[float] = []
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done = threading.Event()
        self.subscribe(self.net, MessageNotify.Resp, self._on_resp)

    def on_start(self) -> None:
        self.started_at = perf_counter()
        self._pump()

    def _pump(self) -> None:
        pool = self.payloads
        while self._next < self.chunks and len(self._in_flight) < LOOPBACK_WINDOW:
            seq = self._next
            self._next += 1
            payload = pool[seq % len(pool)]
            msg = DataChunkMsg(self.header, self.transfer_id, seq, len(payload), self.chunks,
                               self.chunks * len(payload), payload=payload)
            req = MessageNotify.Req(msg)
            self._in_flight[req.notify_id] = (perf_counter(), seq)
            self.requested += 1
            self.trigger(req, self.net)

    def _on_resp(self, resp: MessageNotify.Resp) -> None:
        entry = self._in_flight.pop(resp.notify_id, None)
        if entry is None:
            return
        now = perf_counter()
        self.notify_waits.append(now - entry[0])
        if self.recorder is not None:
            self.recorder.interval("aio.notify_wait", entry[0], now,
                                   f"chunk:{self.transfer_id}:{entry[1]}")
        if resp.success:
            self.ok += 1
        else:
            self.failed += 1
        if self._next >= self.chunks and not self._in_flight:
            self.finished_at = now
            self.done.set()
        else:
            self._pump()


class BulkReceiver(ComponentDefinition):
    """Checks every chunk: order per transfer and payload bytes.

    ``completed_at`` holds, per expected transfer, when its last chunk was
    delivered (after the receiving network read and deserialised it).
    """

    def __init__(self, payloads: List[bytes]) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.payloads = payloads
        self.next_seq: Dict[int, int] = {}
        self.delivered: Dict[int, int] = {}
        #: chunks out of order or with wrong bytes, per transfer
        self.bad: Dict[int, int] = {}
        self.completed_at: Dict[int, float] = {}
        self._expect: Dict[int, Tuple[int, threading.Event]] = {}
        self.subscribe(self.net, DataChunkMsg, self._on_chunk)

    def expect(self, transfer_id: int, chunks: int) -> threading.Event:
        event = threading.Event()
        self._expect[transfer_id] = (chunks, event)
        return event

    def _on_chunk(self, msg: DataChunkMsg) -> None:
        tid = msg.transfer_id
        if msg.seq != self.next_seq.get(tid, 0) or \
                msg.payload != self.payloads[msg.seq % len(self.payloads)]:
            self.bad[tid] = self.bad.get(tid, 0) + 1
        self.next_seq[tid] = msg.seq + 1
        count = self.delivered.get(tid, 0) + 1
        self.delivered[tid] = count
        expected = self._expect.get(tid)
        if expected is not None and count == expected[0]:
            self.completed_at[tid] = perf_counter()
            expected[1].set()


class CtrlPinger(ComponentDefinition):
    """Control pings sent by the benchmark's load generator.

    ``send`` is called from the generator thread with the ping's *due*
    time as its timestamp; the pong echoes it, so each RTT is measured
    from when the ping was due, not from when it went out.
    """

    def __init__(self, self_address, peer) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.header = BasicHeader(self_address, peer, Transport.TCP)
        self.rtts: Dict[int, float] = {}
        self.subscribe(self.net, PongMsg, self._on_pong)

    def send(self, seq: int, due: float) -> None:
        self.trigger(PingMsg(self.header, seq, due), self.net)

    def _on_pong(self, pong: PongMsg) -> None:
        self.rtts[pong.seq] = perf_counter() - pong.ping_sent_at


def _free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


class LoopbackPair:
    """Two AioNetworks on loopback with the benchmark's components wired."""

    def __init__(self, payloads: List[bytes], workers: int) -> None:
        from repro.aio import AioNetwork

        self.system = system = KompicsSystem.threaded(workers=workers)
        self.addr_a = BasicAddress(HOST, _free_port())
        self.addr_b = BasicAddress(HOST, _free_port())
        self.payloads = payloads
        self.net_a = system.create(AioNetwork, self.addr_a, protocols=(Transport.TCP,),
                                   serializers=register_app_serializers(SerializerRegistry()))
        self.net_b = system.create(AioNetwork, self.addr_b, protocols=(Transport.TCP,),
                                   serializers=register_app_serializers(SerializerRegistry()))
        self.pinger = system.create(CtrlPinger, self.addr_a, self.addr_b)
        self.receiver = system.create(BulkReceiver, payloads)
        self.ponger = system.create(Ponger, self.addr_b)
        system.connect(self.net_a.provided(Network), self.pinger.required(Network))
        system.connect(self.net_b.provided(Network), self.receiver.required(Network))
        system.connect(self.net_b.provided(Network), self.ponger.required(Network))
        apps = (self.pinger, self.receiver, self.ponger)
        for component in (self.net_a, self.net_b) + apps:
            system.start(component)
        self.net_a.definition.wait_ready(10.0)
        self.net_b.definition.wait_ready(10.0)
        deadline = perf_counter() + 10.0
        while any(c.core.state is not ComponentState.ACTIVE for c in apps):
            if perf_counter() > deadline:
                raise RuntimeError("loopback components did not start")
            time.sleep(0.0005)

    def sender(self, chunks: int, recorder: Optional[Recorder]):
        """A new sender on network A."""
        component = self.system.create(BulkSender, self.addr_a, self.addr_b, self.payloads,
                                        chunks, recorder=recorder)
        self.system.connect(self.net_a.provided(Network), component.required(Network))
        return component

    def counters(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for net in (self.net_a, self.net_b):
            for key, value in net.definition.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    def close(self) -> None:
        self.system.shutdown()


class PingGenerator:
    """Open-loop ping schedule on the benchmark's own clock (one thread)."""

    def __init__(self, pinger: CtrlPinger) -> None:
        self.pinger = pinger
        self.due: List[float] = []
        self.lateness: List[float] = []
        self._next = perf_counter() + PING_INTERVAL

    def wait(self, event: threading.Event, timeout: float) -> bool:
        """Wait for ``event``, sending every ping that falls due meanwhile."""
        deadline = perf_counter() + timeout
        while not event.is_set():
            now = perf_counter()
            if now > deadline:
                return False
            while self._next <= now:
                seq = len(self.due)
                self.due.append(self._next)
                self.pinger.send(seq, self._next)
                self.lateness.append(perf_counter() - self._next)
                self._next += PING_INTERVAL
            event.wait(max(0.0, min(self._next - perf_counter(), deadline - now)))
        return True


def loopback_setup(payloads: List[bytes], workers: int) -> Tuple[LoopbackPair, float]:
    gc.collect()
    t0 = perf_counter()
    pair = LoopbackPair(payloads, workers)
    return pair, perf_counter() - t0


def loopback_transfer(pair: LoopbackPair, pings: PingGenerator, recorder: Optional[Recorder],
                      chunks: int = LOOPBACK_CHUNKS, timeout: float = 60.0) -> Unit:
    """One fixed-size transfer over the pair, pings flowing throughout.

    ``run_s`` runs from the sender's start to the later of its last notify
    and the receiver's delivery of the last chunk, so it covers delivery.
    """
    gc.collect()
    component = pair.sender(chunks, recorder)
    sender = component.definition
    receiver = pair.receiver.definition
    arrived = receiver.expect(sender.transfer_id, chunks)
    t0 = perf_counter()
    c0 = process_time()
    pair.system.start(component)
    finished = pings.wait(sender.done, timeout) and pings.wait(arrived, timeout)
    c1 = process_time()
    errors = []
    got = receiver.delivered.get(sender.transfer_id, 0)
    if not finished:
        errors.append(f"loopback: transfer stalled, {sender.ok} ok / {got} delivered of {chunks}")
    leaked = sender.requested - sender.ok - sender.failed
    if sender.failed or leaked or sender.requested != chunks:
        errors.append(f"loopback: notify accounting requested={sender.requested} "
                      f"ok={sender.ok} failed={sender.failed} leaked={leaked}")
    if got != chunks:
        errors.append(f"loopback: {got}/{chunks} chunks delivered")
    bad = receiver.bad.get(sender.transfer_id, 0)
    if bad:
        errors.append(f"loopback: {bad} chunks out of order or with wrong bytes")
    ends = (sender.finished_at, receiver.completed_at.get(sender.transfer_id))
    run_s = (perf_counter() if None in ends else max(ends)) - (sender.started_at or t0)
    return Unit(
        setup_s=0.0, run_s=run_s, cpu_s=c1 - c0, payload_bytes=got * LOOPBACK_CHUNK,
        attempted=chunks, failed=max(chunks - got + bad, 1) if errors else 0,
        msgs=got, errors=errors, notify_waits=sender.notify_waits,
    )


def finish_pings(pair: LoopbackPair, pings: PingGenerator, timeout: float = 10.0) -> List[str]:
    """Wait until every ping sent has been answered; returns errors."""
    rtts = pair.pinger.definition.rtts
    deadline = perf_counter() + timeout
    while len(rtts) < len(pings.due) and perf_counter() < deadline:
        time.sleep(0.002)
    missing = len(pings.due) - len(rtts)
    return [f"loopback: {missing}/{len(pings.due)} pings unanswered"] if missing else []


def loopback_unit(payloads: List[bytes], workers: int, recorder: Optional[Recorder]) -> Unit:
    """One ``loopback-tcp`` unit: set up a pair, run one transfer with
    control pings, wait for every pong, close the pair.

    The pair's threads have ended when this returns, so the host probe
    taken between units never shares the CPU with them.
    """
    before = set(threading.enumerate())
    pair, setup_s = loopback_setup(payloads, workers)
    try:
        pings = PingGenerator(pair.pinger.definition)
        unit = loopback_transfer(pair, pings, recorder)
        unit.errors.extend(finish_pings(pair, pings))
        rtts = pair.pinger.definition.rtts
        unit.attempted += len(pings.due)
        unit.failed += len(pings.due) - len(rtts)
        unit.msgs += 2 * len(rtts)
        unit.ctrl_rtts_ms = [rtt * 1000.0 for rtt in rtts.values()]
        unit.ctrl_lateness_ms = [late * 1000.0 for late in pings.lateness]
        unit.counters = pair.counters()
    finally:
        pair.close()
    if unit.counters["send_failures"]:
        unit.errors.append(f"loopback: {unit.counters['send_failures']} aio send failures")
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        unit.errors.append(f"loopback: threads still running after close: {left}")
    if unit.errors:
        unit.failed = max(unit.failed, 1)
    unit.setup_s = setup_s
    return unit


# ----------------------------------------------------------------------
# host-speed probe
# ----------------------------------------------------------------------

def host_probe() -> float:
    """Milliseconds for a fixed pure-Python loop: the host's current speed.

    It never touches the program, so no change to the program can move it.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (perf_counter() - t0) * 1000.0


UnitFn = Callable[[int, Optional[Recorder]], Unit]


def workload_units(name: str, seed: int) -> Tuple[UnitFn, int]:
    """The workload's unit function of (part, recorder) and its number of parts.

    The recorder is None in untraced units.  Loopback payloads are
    generated here, before any timed region.
    """
    if name == "sim-pair":
        return (lambda part, rec: sim_pair_unit(seed)), 1
    if name == "sim-incast":
        return (lambda part, rec: sim_incast_unit(seed, part)), INCAST_PARTS
    if name == "loopback-tcp":
        payloads = make_payloads(seed)
        workers = min(2, os.cpu_count() or 1)
        return (lambda part, rec: loopback_unit(payloads, workers, rec)), 1
    raise ValueError(f"unknown workload {name!r}")
