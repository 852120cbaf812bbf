"""Outside-in span tracing and probes around the program's public functions.

Everything here wraps functions of the program from the outside; nothing
under ``src/`` knows about it. Wrappers must be installed **before the
network is built**: several hot paths bind methods once at construction
(the peer's dispatch table, ``EnhancedGossip._deliver_block``, the
network's pre-bound monitor calls), and a wrapper installed later would be
skipped. The per-layer counters are reconciled against the program's own
counters after each traced run to prove that no call went around a
wrapper.

Two kinds of instrumentation live here:

* :class:`Probe` — a handful of one-shot timestamps (set-up finished, loop
  finished) and result captures. Always installed; its cost is a few calls
  per run, so the untraced end-to-end numbers stay honest.
* :class:`Tracer` — spans around every layer boundary, installed only for
  the traced run. Spans are aggregated in memory as they close (calls,
  total and self time per span name, in integer nanoseconds so the self
  times of a root span's subtree sum to its duration exactly).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter_ns

# Span name -> layer. Self time per layer is the sum over its spans.
LAYER_OF_SPAN = {
    "setup.build_network": "setup",
    "setup.build_views": "setup",
    "engine.run": "engine",
    "net.send": "net",
    "net.multicast": "net",
    "net.aggregate": "net",
    "gossip.handle": "gossip",
    "gossip.on_block_from_orderer": "gossip",
    "gossip.deliver_block": "gossip",
    "fabric.validate_block": "fabric",
    "fabric.submit": "fabric",
    "fabric.emit_block": "fabric",
    "ledger.commit": "ledger",
    "ledger.kv_put": "ledger",
    "faults.filter": "faults",
    "metrics.first_reception": "metrics",
    "metrics.committed": "metrics",
    "metrics.snapshot": "metrics",
    "shard.round": "shard",
}
LAYERS = ("setup", "engine", "net", "gossip", "fabric", "ledger", "faults", "metrics", "shard")

# Message kinds whose bytes count as digests / full blocks.
DIGEST_KINDS = frozenset({"PushDigest", "PullDigestRequest", "PullDigestResponse"})
BLOCK_KINDS = frozenset({"BlockPush", "PullBlockResponse", "RecoveryResponse", "OrdererBlock"})


class Tracer:
    """Aggregating span recorder plus boundary counters."""

    def __init__(self) -> None:
        self._stack: List[int] = []  # child time (ns) of each open span
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(int)
        self.kind_bytes: Dict[str, int] = defaultdict(int)
        self.net_depth = 0

    def enter(self) -> int:
        self._stack.append(0)
        return _clock()

    def leave(self, name: str, start: int) -> None:
        elapsed = _clock() - start
        stack = self._stack
        own = elapsed - stack.pop()
        self.calls[name] += 1
        self.total_ns[name] += elapsed
        self.self_ns[name] += own
        if stack:
            stack[-1] += elapsed

    def span(self, name: str, fn: Callable) -> Callable:
        enter, leave = self.enter, self.leave

        def wrapped(*args, **kwargs):
            start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, start)

        wrapped.__wrapped__ = fn
        return wrapped

    def export(self) -> dict:
        """Plain-dict aggregate (picklable, JSON-able)."""
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "kind_bytes": dict(self.kind_bytes),
        }


class Probe:
    """One-shot timestamps and captures, installed on every run."""

    def __init__(self) -> None:
        self.setup_end: Optional[float] = None
        self.loop_end: Optional[float] = None
        self.shard_results: Optional[list] = None


class _Patcher:
    """Records every attribute it replaces so :meth:`undo` restores them."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def install(probe: Probe, tracer: Optional[Tracer] = None) -> Callable[[], None]:
    """Install the probe (and the tracer's spans, if given).

    Returns a function that removes everything again.
    """
    import repro.experiments.builders as builders
    import repro.experiments.conflicts as conflicts
    import repro.experiments.dissemination as dissemination
    import repro.fabric.peer as peer_module
    import repro.scenarios.sharded as scenarios_sharded
    from repro.experiments.builders import FabricNetwork
    from repro.scenarios.sharded import ShardSession
    from repro.simulation.sharded import WindowedCoordinator

    patch = _Patcher()

    # ----- probe: set-up end, loop end, sharded result capture -------------
    start = FabricNetwork.start

    def probed_start(self):
        start(self)
        if probe.setup_end is None:
            probe.setup_end = time.perf_counter()

    patch.set(FabricNetwork, "start", probed_start)

    run = WindowedCoordinator.run

    def probed_run(self):
        # Every shard session is built and started before the coordinator
        # runs: this, not the first network's start, ends a sharded set-up.
        probe.setup_end = time.perf_counter()
        result = run(self)
        probe.loop_end = time.perf_counter()
        return result

    patch.set(WindowedCoordinator, "run", probed_run)

    result_ = ShardSession.result

    def probed_result(self):
        # The coordinator sees only the shard's result: stamp on it what
        # the session alone knows (its owned chains, its heap peak).
        shard_result = result_(self)
        shard_result.bench_chains_ok = all(
            self.net.peers[name].blockchain.verify_committed_chain()
            for name in self.owned_peers
        )
        shard_result.bench_peak_heap = self.net.sim.peak_heap_size
        return shard_result

    patch.set(ShardSession, "result", probed_result)

    merge = scenarios_sharded.merge_shard_results
    if tracer is not None:
        merge = tracer.span("metrics.snapshot", merge)

    def probed_merge(spec, seed, results):
        snapshot = merge(spec, seed, results)
        probe.shard_results = sorted(results, key=lambda result: result.shard_id)
        return snapshot

    patch.set(scenarios_sharded, "merge_shard_results", probed_merge)

    if tracer is not None:
        _install_spans(patch, tracer, builders, conflicts, dissemination, peer_module, scenarios_sharded)
    return patch.undo


def _install_spans(patch, tracer, builders, conflicts, dissemination, peer_module, scenarios_sharded):
    from repro.faults.injectors import _ComposableDropFilter
    from repro.fabric.orderer import OrderingService
    from repro.fabric.peer import Peer
    from repro.gossip.enhanced import EnhancedGossip
    from repro.gossip.original import OriginalGossip
    from repro.ledger.chain import Blockchain
    from repro.ledger.kvstore import KeyValueStore
    from repro.metrics.latency import DisseminationTracker
    from repro.net.network import Network
    from repro.scenarios.runner import ScenarioRun
    from repro.simulation._core import Simulator
    from repro.simulation.sharded import WindowedCoordinator

    span = tracer.span
    enter, leave, counts = tracer.enter, tracer.leave, tracer.counts

    # ----- set-up: the builder, imported by name into its callers ---------
    build_network = span("setup.build_network", builders.build_network)
    for module in (builders, dissemination, conflicts, scenarios_sharded):
        patch.set(module, "build_network", build_network)
    patch.set(builders, "build_views", span("setup.build_views", builders.build_views))

    # ----- engine ----------------------------------------------------------
    patch.set(Simulator, "run", span("engine.run", Simulator.run))
    patch.set(Simulator, "run_window", span("engine.run", Simulator.run_window))

    # ----- net: per outermost call, copies that reached the monitor -------
    for attr, name, fanout in (
        ("send", "net.send", False),
        ("multicast", "net.multicast", True),
        ("send_aggregate", "net.aggregate", True),
    ):
        patch.set(Network, attr, _net_span(tracer, name, getattr(Network, attr), fanout))

    # ----- gossip ----------------------------------------------------------
    attach = Peer.attach_gossip

    def traced_attach(self, factory):
        attach(self, factory)
        # Messages reach the module through the peer's merged dispatch
        # table, not GossipModule.handle: wrap the table's gossip entries.
        table = self._dispatch_all
        gossip_table = getattr(self.gossip, "_dispatch", None)
        if table is not None and gossip_table is not None:
            for message_type in gossip_table:
                table[message_type] = span("gossip.handle", table[message_type])

    patch.set(Peer, "attach_gossip", traced_attach)
    for module_class in (EnhancedGossip, OriginalGossip):
        patch.set(
            module_class,
            "on_block_from_orderer",
            span("gossip.on_block_from_orderer", module_class.on_block_from_orderer),
        )
    deliver_block = Peer.deliver_block

    def traced_deliver_block(self, block, via):
        start = enter()
        try:
            is_new = deliver_block(self, block, via)
        finally:
            leave("gossip.deliver_block", start)
        counts["gossip.deliver_calls"] += 1
        if is_new:
            counts["gossip.deliver_new"] += 1
            counts["gossip.new_via." + via] += 1
        return is_new

    patch.set(Peer, "deliver_block", traced_deliver_block)

    # ----- fabric + ledger -------------------------------------------------
    validate_block = peer_module.validate_block

    def traced_validate_block(block, store, policy):
        start = enter()
        try:
            result = validate_block(block, store, policy)
        finally:
            leave("fabric.validate_block", start)
        counts["fabric.tx_validated"] += len(result.codes)
        counts["fabric.mvcc_conflicts"] += sum(
            1 for code in result.codes if code.name == "MVCC_READ_CONFLICT"
        )
        return result

    patch.set(peer_module, "validate_block", traced_validate_block)
    patch.set(OrderingService, "submit", span("fabric.submit", OrderingService.submit))
    patch.set(OrderingService, "emit_block", span("fabric.emit_block", OrderingService.emit_block))
    patch.set(Blockchain, "commit", span("ledger.commit", Blockchain.commit))
    patch.set(KeyValueStore, "put", span("ledger.kv_put", KeyValueStore.put))

    # ----- faults: every injector predicate runs inside the composable ----
    drop_filter = _ComposableDropFilter.__call__

    def traced_filter(self, src, dst, message):
        start = enter()
        try:
            dropped = drop_filter(self, src, dst, message)
        finally:
            leave("faults.filter", start)
        counts["faults.filter_calls"] += 1
        if dropped:
            counts["faults.dropped"] += 1
        return dropped

    patch.set(_ComposableDropFilter, "__call__", traced_filter)

    # ----- metrics -----------------------------------------------------------
    for attr in ("first_reception", "committed"):
        patch.set(DisseminationTracker, attr, span("metrics." + attr, getattr(DisseminationTracker, attr)))
    patch.set(ScenarioRun, "snapshot", span("metrics.snapshot", ScenarioRun.snapshot))

    # ----- sharded: coordinator rounds -------------------------------------
    round_ = span("shard.round", WindowedCoordinator._round)

    def traced_round(self, op, time_):
        if op == "window":
            counts["shard.windows"] += 1
        return round_(self, op, time_)

    patch.set(WindowedCoordinator, "_round", traced_round)


def _net_span(tracer: Tracer, name: str, fn: Callable, fanout: bool) -> Callable:
    """Span around a Network send entry point that also counts copies.

    Counted only at the outermost network call (``multicast`` may route
    through ``send``). Copies that reached the monitor are the attempted
    copies minus those dropped before the monitor records them; the link
    model records a copy and then may drop it, so its drops are added back.
    """
    enter, leave, counts, kind_bytes = tracer.enter, tracer.leave, tracer.counts, tracer.kind_bytes

    def wrapped(self, src, dst, message):
        if tracer.net_depth:
            start = enter()
            try:
                return fn(self, src, dst, message)
            finally:
                leave(name, start)
        dropped_before = self.dropped_messages
        stats = self.queue_accounting().get(src)
        queue_drops_before = stats[1] + stats[2] if stats else 0.0
        queue_delay_before = stats[3] if stats else 0.0
        tracer.net_depth = 1
        start = enter()
        try:
            return fn(self, src, dst, message)
        finally:
            leave(name, start)
            tracer.net_depth = 0
            attempted = len(dst) if fanout else 1
            stats = self.queue_accounting().get(src)
            queue_drops = (stats[1] + stats[2] if stats else 0.0) - queue_drops_before
            dropped = self.dropped_messages - dropped_before
            copies = attempted - dropped + int(queue_drops)
            counts[name + "_calls"] += 1
            counts["net.attempted"] += attempted
            counts["net.dropped"] += dropped
            counts["net.copies"] += copies
            counts["net.queue_drops"] += int(queue_drops)
            counts["net.queue_delay_total_s"] += (stats[3] if stats else 0.0) - queue_delay_before
            if copies:
                kind_bytes[message.kind] += copies * self.wire_size(message)

    return wrapped
