"""Property test: ``Network.multicast`` is observably identical to the
naive per-destination ``send`` loop.

The multicast fast path exists purely for mechanical speed (vectorized
monitor records, batch latency sampling, pooled grouped delivery events).
Its contract is that *nothing observable changes*: for the same RNG seed
and the same fanout, the exact (time, dst, message) delivery sequence, the
drop counters and the monitor accounting must all equal what a per-copy
``send`` loop produces — under random fanout shapes, message sizes on both
sides of the downlink-queue threshold (including size 0, which produces
exact arrival ties and exercises the shared slot-delivery grouping),
random latency models, disconnected peers, drop filters, and handlers that
re-enter the network mid-delivery.

Since ``send`` is itself a one-copy call of the same kernel, the suite also
checks the kernel against :class:`NaiveNetwork`, an independent per-copy
reference written out from the physics alone.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.link import CoDelConfig, LinkModel
from repro.net.message import RawMessage
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network, NetworkConfig
from repro.simulation._core import link_enqueue
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams

NODES = ["n0", "n1", "n2", "n3", "n4", "n5"]


def build(latency_model, queue_min, seed):
    sim = Simulator()
    network = Network(
        sim,
        RandomStreams(seed),
        NetworkConfig(
            bandwidth=1_000_000.0,
            envelope_overhead=64,
            latency=latency_model,
            downlink_queue_min_bytes=queue_min,
        ),
    )
    return sim, network


fanouts = st.lists(
    st.sampled_from(NODES[1:]), min_size=0, max_size=8
)  # duplicates allowed: the contract covers them too
sizes = st.sampled_from([0, 10, 2_000, 60_000])
latencies = st.sampled_from(
    [
        ("constant0", lambda: ConstantLatency(0.0)),
        ("constant", lambda: ConstantLatency(0.004)),
        ("uniform", lambda: UniformLatency(0.001, 0.02)),
    ]
)
disconnected_sets = st.sets(st.sampled_from(NODES), max_size=2)
drop_nth = st.integers(min_value=0, max_value=9)


@settings(max_examples=120, deadline=None)
@given(
    dsts=fanouts,
    size=sizes,
    latency=latencies,
    disconnected=disconnected_sets,
    drop_every=drop_nth,
    seed=st.integers(min_value=1, max_value=8),
    reentrant=st.booleans(),
    reactive_disconnect=st.booleans(),
)
def test_multicast_equals_naive_send_loop(
    dsts, size, latency, disconnected, drop_every, seed, reentrant, reactive_disconnect
):
    """Exact (time, dst, message-id) delivery-sequence equivalence."""
    if "n0" in disconnected:
        disconnected = disconnected - {"n0"}  # keep the source sendable half the time

    results = {}
    for mode in ("multicast", "loop"):
        sim, network = build(latency[1](), 25_000 if size != 60_000 else 10_000, seed)
        message = RawMessage(size, body="payload")
        echo = RawMessage(1, kind="Echo")
        deliveries = []

        def handler(name):
            def on_message(src, msg, name=name):
                deliveries.append((sim.now, name, msg.kind))
                # Re-entrant send from inside a delivery: the echo must
                # interleave identically in both modes.
                if reentrant and msg.kind != "Echo" and name != "n1":
                    network.send(name, "n1", echo)
                # Reactive fault: a delivery handler disconnecting another
                # peer must affect later deliveries (including later
                # members of the same tie-grouped event) identically.
                if reactive_disconnect and name == "n2" and msg.kind != "Echo":
                    network.set_disconnected("n3", True)

            return on_message

        for name in NODES:
            network.register(name, handler(name))
        for name in disconnected:
            network.set_disconnected(name, True)
        if drop_every:
            counter = {"n": 0}

            def drop(src, dst, msg):
                counter["n"] += 1
                return counter["n"] % drop_every == 0

            network.set_drop_filter(drop)
        if mode == "multicast":
            network.multicast("n0", dsts, message)
        else:
            for dst in dsts:
                network.send("n0", dst, message)
        sim.run()
        totals = network.monitor.totals
        results[mode] = (
            deliveries,
            network.dropped_messages,
            totals.messages,
            totals.bytes,
            sorted(network.monitor.nodes()),
        )

    assert results["multicast"] == results["loop"]


@settings(max_examples=40, deadline=None)
@given(
    dsts=st.lists(st.sampled_from(NODES[1:]), min_size=2, max_size=8, unique=True),
    seed=st.integers(min_value=1, max_value=4),
)
def test_multicast_rng_stream_matches_send_loop(dsts, seed):
    """The RNG-order contract: after a fanout, the sender's latency
    stream must sit at exactly the same position as after a send loop, so
    subsequent traffic draws identical latencies."""
    outcomes = {}
    for mode in ("multicast", "loop"):
        sim, network = build(UniformLatency(0.001, 0.05), 25_000, seed)
        for name in NODES:
            network.register(name, lambda src, msg: None)
        message = RawMessage(100)
        if mode == "multicast":
            network.multicast("n0", dsts, message)
        else:
            for dst in dsts:
                network.send("n0", dst, message)
        # A probe draw after the fanout exposes the stream position.
        outcomes[mode] = network.latency_rng("n0").random()
    assert outcomes["multicast"] == outcomes["loop"]


class NaiveNetwork:
    """Test-local reference network: every copy runs the physics written
    out plainly — drop check, monitor record, uplink, link admission,
    scalar latency draw (``LatencyModel.sample``), then ``schedule_call``
    to a one-shot delivery or a two-phase arrival. It shares nothing with
    :class:`Network` but the config, the monitor type and the link
    kernel; its RNG streams are seeded by name exactly as the network's.
    """

    def __init__(self, sim, seed, config):
        self.sim = sim
        self.config = config
        self.streams = RandomStreams(seed)
        self.monitor = TrafficMonitor(bin_width=config.monitor_bin_width)
        self.handlers = {}
        self.disconnected = set()
        self.drop_filter = None
        self.dropped_messages = 0
        self.uplink_free_at = {}
        self.downlink_free_at = {}
        self.link_states = {}

    def register(self, name, handler):
        self.handlers[name] = handler

    def set_disconnected(self, name, disconnected):
        if disconnected:
            self.disconnected.add(name)
        else:
            self.disconnected.discard(name)

    def set_drop_filter(self, drop):
        self.drop_filter = drop

    def send(self, src, dst, message):
        config = self.config
        if src in self.disconnected or dst in self.disconnected:
            self.dropped_messages += 1
            return
        if self.drop_filter is not None and self.drop_filter(src, dst, message):
            self.dropped_messages += 1
            return
        size = message.payload_size() + config.envelope_overhead
        now = self.sim.now
        self.monitor.record(now, src, dst, message.kind, size)
        transfer = size / config.bandwidth
        done = max(self.uplink_free_at.get(src, 0.0), now) + transfer
        self.uplink_free_at[src] = done
        link = config.link
        if link is not None and not link.is_noop:
            state = self.link_states.setdefault(src, [0.0, 0.0, 0.0, 0.0])
            uniform = self.streams.stream(f"network:queue:{src}").random
            done = link_enqueue(
                state, done, size / link.bandwidth, *link.kernel_args(), uniform
            )
            if done < 0.0:
                self.dropped_messages += 1
                return
        rng = self.streams.stream(f"network:latency:{src}")
        arrival = done + config.resolved_latency.sample(rng, src, dst)
        if size < config.downlink_queue_min_bytes:
            self.sim.schedule_call(arrival + transfer, self._deliver, (src, dst, message))
        else:
            self.sim.schedule_call(arrival, self._arrive, (src, dst, message, transfer))

    def _arrive(self, src, dst, message, transfer):
        now = self.sim.now
        delivered = max(self.downlink_free_at.get(dst, 0.0), now) + transfer
        self.downlink_free_at[dst] = delivered
        self.sim.schedule_call(delivered, self._deliver, (src, dst, message))

    def _deliver(self, src, dst, message):
        handler = self.handlers.get(dst)
        if dst in self.disconnected or handler is None:
            self.dropped_messages += 1
            return
        handler(src, message)


links = st.sampled_from(
    [
        None,
        # Tail drops for block-sized copies, CoDel episodes for small ones.
        LinkModel(
            bandwidth=50_000.0,
            queue_bytes=20_000.0,
            codel=CoDelConfig(target=0.001, interval=0.002, ramp=2.0),
        ),
    ]
)

# Fault-free draws half the time, so the kernel's batched mode (no drop
# filter, no disconnected node) is exercised as often as the guarded one.
oracle_disconnected_sets = st.one_of(st.just(set()), disconnected_sets)
oracle_drop_nth = st.one_of(st.just(0), drop_nth)


@settings(max_examples=200, deadline=None)
@given(
    dsts=fanouts,
    size=sizes,
    latency=latencies,
    link=links,
    disconnected=oracle_disconnected_sets,
    drop_every=oracle_drop_nth,
    seed=st.integers(min_value=1, max_value=8),
    reentrant=st.booleans(),
    reactive_disconnect=st.booleans(),
)
def test_kernel_matches_naive_per_copy_oracle(
    dsts, size, latency, link, disconnected, drop_every, seed, reentrant, reactive_disconnect
):
    """``multicast`` and a ``send`` loop both reproduce the oracle's
    (time, dst, message) sequence, drop count, monitor totals and RNG
    stream positions."""
    if "n0" in disconnected:
        disconnected = disconnected - {"n0"}

    results = {}
    for mode in ("oracle", "multicast", "loop"):
        sim = Simulator()
        config = NetworkConfig(
            bandwidth=1_000_000.0,
            envelope_overhead=64,
            latency=latency[1](),
            downlink_queue_min_bytes=25_000 if size != 60_000 else 10_000,
            link=link,
        )
        if mode == "oracle":
            network = NaiveNetwork(sim, seed, config)
        else:
            network = Network(sim, RandomStreams(seed), config)
        message = RawMessage(size, body="payload")
        echo = RawMessage(1, kind="Echo")
        deliveries = []

        def handler(name, network=network, sim=sim, deliveries=deliveries, echo=echo):
            def on_message(src, msg):
                deliveries.append((sim.now, name, msg.kind))
                if reentrant and msg.kind != "Echo" and name != "n1":
                    network.send(name, "n1", echo)
                if reactive_disconnect and name == "n2" and msg.kind != "Echo":
                    network.set_disconnected("n3", True)

            return on_message

        for name in NODES:
            network.register(name, handler(name))
        for name in disconnected:
            network.set_disconnected(name, True)
        if drop_every:
            counter = {"n": 0}

            def drop(src, dst, msg, counter=counter):
                counter["n"] += 1
                return counter["n"] % drop_every == 0

            network.set_drop_filter(drop)
        if mode == "multicast":
            network.multicast("n0", dsts, message)
        else:
            for dst in dsts:
                network.send("n0", dst, message)
        sim.run()
        totals = network.monitor.totals
        streams = network.streams if mode == "oracle" else network._streams
        results[mode] = (
            deliveries,
            network.dropped_messages,
            totals.messages,
            totals.bytes,
            sorted(network.monitor.nodes()),
            [streams.stream(f"network:{use}:{name}").random() for use in ("latency", "queue") for name in NODES],
        )

    assert results["multicast"] == results["oracle"]
    assert results["loop"] == results["oracle"]
