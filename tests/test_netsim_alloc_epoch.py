"""Vectorized max-min solver equivalence and allocation-epoch cache tests.

The allocation fast paths promise *bit-identical* results: the numpy
solver must reproduce the scalar reference exactly (same IEEE operations
in the same order), and the epoch cache must never serve a stale
allocation across an activate/deactivate/spec-change/demand-dirty
boundary.  The references are the scalar solver (selected by raising
``VEC_MAXMIN_THRESHOLD`` out of reach) and the uncached
``LinkDirection._allocate_general``.
"""

import math
import struct
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Proto, WireMessage
from repro.netsim.link import (
    LinkDirection,
    LinkSpec,
    max_min_allocation,
    max_min_allocation_vec,
)
from repro.sim import Simulator

from .netsim_helpers import Sink, make_pair

MB = 1024 * 1024


def _bits(values):
    """Bit pattern of a float list — catches 0.0 vs -0.0 and NaN payloads."""
    return struct.pack(f"<{len(values)}d", *values)


@contextmanager
def _threshold(link_mod, value):
    """Temporarily lower VEC_MAXMIN_THRESHOLD so small pools vectorize."""
    saved = link_mod.VEC_MAXMIN_THRESHOLD
    link_mod.VEC_MAXMIN_THRESHOLD = value
    try:
        yield
    finally:
        link_mod.VEC_MAXMIN_THRESHOLD = saved


# Demand strategies: finite rates, exact-tie pools (duplicates are the
# interesting case for stable-sort tie-breaking), and inf (greedy flows).
_finite = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
_tied = st.sampled_from([0.0, 1.0, 10.0, 1e4, 1e4, 2.5e5, 1e9])
_demand = st.one_of(_finite, _tied, st.just(math.inf))


class TestVecEquivalence:
    @given(
        st.lists(_demand, min_size=3, max_size=64),
        st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_vec_bit_equal_to_scalar(self, demands, capacity):
        ref = max_min_allocation(demands, capacity)
        vec = max_min_allocation_vec(demands, capacity)
        assert _bits(vec) == _bits(ref)

    @given(
        st.lists(_tied, min_size=3, max_size=40),
        st.sampled_from([1.0, 1e4, 5e4, 1e9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_ties_break_identically(self, demands, capacity):
        # All-duplicate pools exercise argsort-vs-sorted stability head on.
        assert _bits(max_min_allocation_vec(demands, capacity)) == _bits(
            max_min_allocation(demands, capacity)
        )

    @given(st.lists(st.just(math.inf), min_size=3, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_all_infinite_demands(self, demands):
        ref = max_min_allocation(demands, 80.0)
        assert _bits(max_min_allocation_vec(demands, 80.0)) == _bits(ref)
        assert sum(ref) == pytest.approx(80.0)


class _StubCC:
    demand_time_varying = False


class _StubFlow:
    """Just enough of FlowState for LinkDirection's allocation paths."""

    def __init__(self, sim, demand, udp=False, scavenger=False):
        self.sim = sim
        self.demand = demand
        self.subject_to_udp_cap = udp
        self.scavenger = scavenger
        self.cc = _StubCC()
        self.queries = 0

    def demand_rate(self):
        self.queries += 1
        return self.demand


def _direction(spec=None):
    return LinkDirection(spec or LinkSpec(100 * MB, 0.01), "t:a->b")


class TestTieredVecEquivalence:
    @given(
        st.lists(
            st.tuples(_demand, st.booleans(), st.booleans()),
            min_size=3,
            max_size=24,
        ),
        st.floats(min_value=1e3, max_value=1e9, allow_nan=False),
        st.floats(min_value=1e3, max_value=1e8, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_udp_pool_and_scavenger_tiers(self, flow_specs, bandwidth, udp_cap):
        # Force the vec solver to engage for every pool size so the tiers
        # (udp-cap pool, foreground, scavenger leftover) all go through it.
        import repro.netsim.link as link_mod

        with _threshold(link_mod, 3):
            sim = Simulator()
            direction = _direction(LinkSpec(bandwidth, 0.01, udp_cap=udp_cap))
            flows = [
                _StubFlow(sim, d, udp=u, scavenger=s) for (d, u, s) in flow_specs
            ]
            demands = {f: f.demand_rate() for f in flows}
            vec_map = direction._tiered_allocation(flows, dict(demands))
        with _threshold(link_mod, 10**9):
            ref_map = direction._tiered_allocation(flows, dict(demands))
        assert _bits([vec_map[f] for f in flows]) == _bits(
            [ref_map[f] for f in flows]
        )

    @given(
        st.lists(_demand, min_size=3, max_size=16),
        st.floats(min_value=1e3, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_allocate_rate_flag_equivalence(self, demand_values, bandwidth):
        import repro.netsim.link as link_mod

        with _threshold(link_mod, 3):
            sim = Simulator()
            fast_dir = _direction(LinkSpec(bandwidth, 0.01))
            ref_dir = _direction(LinkSpec(bandwidth, 0.01))
            fast = [_StubFlow(sim, d) for d in demand_values]
            ref = [_StubFlow(sim, d) for d in demand_values]
            for f in fast:
                fast_dir.activate(f)
            for f in ref:
                ref_dir.activate(f)
            fast_rates = [fast_dir.allocate_rate(f) for f in fast]
        # Reference: uncached general path with the scalar solver.
        with _threshold(link_mod, 10**9):
            ref_rates = [ref_dir._allocate_general(f) for f in ref]
        assert _bits(fast_rates) == _bits(ref_rates)


class TestEpochCacheInvalidation:
    def _two_flow_direction(self):
        sim = Simulator()
        direction = _direction()
        f0 = _StubFlow(sim, 30 * MB)
        f1 = _StubFlow(sim, 90 * MB)
        direction.activate(f0)
        direction.activate(f1)
        return direction, f0, f1

    def test_cache_hit_skips_demand_queries(self):
        direction, f0, f1 = self._two_flow_direction()
        first = direction.allocate_rate(f0)
        queries = f0.queries + f1.queries
        assert queries == 2  # one solve queries every participant once
        assert direction.allocate_rate(f1) == 70 * MB  # min(90, 100 - 30)
        assert direction.allocate_rate(f0) == first
        # Same epoch: both answers came from the cached map.
        assert f0.queries + f1.queries == queries

    def test_spec_change_mid_flight_invalidates(self):
        direction, f0, f1 = self._two_flow_direction()
        direction.allocate_rate(f0)
        epoch = direction._epoch
        direction.update_spec(LinkSpec(40 * MB, 0.01))
        assert direction._epoch == epoch + 1
        # The new bandwidth must be visible immediately: 40 MB/s shared
        # max-min between 30 and 90 MB/s demands -> 20/20.
        assert direction.allocate_rate(f0) == 20 * MB
        assert direction.allocate_rate(f1) == 20 * MB

    def test_demand_dirty_invalidates(self):
        direction, f0, f1 = self._two_flow_direction()
        assert direction.allocate_rate(f0) == 30 * MB
        f0.demand = 80 * MB
        # Without the dirty signal the cached epoch still answers; the
        # contract is that FlowState calls demand_dirty() whenever a
        # controller's demand-relevant state moves.
        assert direction.allocate_rate(f0) == 30 * MB
        direction.demand_dirty()
        assert direction.allocate_rate(f0) == 50 * MB

    def test_deactivate_invalidates(self):
        direction, f0, f1 = self._two_flow_direction()
        direction.allocate_rate(f0)
        direction.deactivate(f1)
        # Sole remaining flow gets its full demand, not the stale share.
        assert direction.allocate_rate(f0) == 30 * MB
        assert f1 not in direction._active

    def test_time_varying_cache_is_timestamp_scoped(self):
        sim = Simulator()
        direction = _direction()
        f0 = _StubFlow(sim, 30 * MB)
        f1 = _StubFlow(sim, 90 * MB)
        f1.cc = type("_TV", (), {"demand_time_varying": True})()
        direction.activate(f0)
        direction.activate(f1)
        direction.allocate_rate(f0)
        queries = f0.queries + f1.queries
        direction.allocate_rate(f1)  # same timestamp: cache hit
        assert f0.queries + f1.queries == queries
        sim.schedule(1.0, lambda: None)
        sim.run()
        direction.allocate_rate(f1)  # clock moved: must re-query
        assert f0.queries + f1.queries == queries + 2

    def test_abort_during_train_invalidates_epoch(self):
        # Integration: two competing connections, one closed mid-transfer
        # while its deliveries are still in the RX train.  The abort must
        # deactivate the flow (epoch bump) so the survivor's next
        # allocation sees the whole link.
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=10 * MB, delay=0.05)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        c1 = a.stack.connect((b.ip, 7000), Proto.TCP)
        c2 = a.stack.connect((b.ip, 7000), Proto.TCP)
        for i in range(40):
            c1.send(WireMessage(("c1", i), 64 * 1024))
            c2.send(WireMessage(("c2", i), 64 * 1024))
        link_dir = c1.flow.link_dir
        epochs = []

        def cut():
            epochs.append(link_dir._epoch)
            assert c2.flow._train or c2.flow.queue  # genuinely mid-flight
            c2.close()
            epochs.append(link_dir._epoch)

        sim.schedule(0.3, cut)
        sim.run()
        assert epochs[1] > epochs[0]
        assert c2.flow not in link_dir._active
        # The survivor finished untouched by the stale two-flow epoch.
        c1_payloads = [p for p in sink.payloads if p[0] == "c1"]
        assert len(c1_payloads) == 40
        assert c1.flow.messages_dropped == 0
