"""Point-to-point network with per-NIC serialization.

Delivery time of a message from A to B decomposes as:

* **uplink serialization** at A: the NIC transmits at ``bandwidth`` bytes/s
  and messages queue FIFO, so a burst of ``fout`` pushes of a 160 KB block
  serializes — this is exactly the leader-peer bottleneck the paper's Fig. 10
  ablation demonstrates;
* **propagation latency** drawn from the latency model;
* **downlink serialization** at B, modelling receive-side contention when
  many peers push the same block to one target.

Nodes register a handler; the fault layer can additionally drop messages or
disconnect nodes. All traffic is accounted in the :class:`TrafficMonitor`.

Three entry points, one kernel
------------------------------

:meth:`Network.send` (one copy), :meth:`Network.multicast` (one shared
message instance to many destinations) and :meth:`Network.send_aggregate`
(an approximated background batch) validate their arguments and hand the
copies to one private kernel, :meth:`Network._transmit`. For every copy it
runs, in order: drop check, monitor record, uplink reservation, bottleneck
link admission, latency draw, then local scheduling or — in sharded mode —
the egress queue. Deliveries travel as plain records through the public
:meth:`~repro.simulation.engine.Simulator.schedule_call` and
:meth:`~repro.simulation.engine.Simulator.schedule_records`.

The kernel picks its mode from fault state it can already observe. With no
drop filter and no disconnected node nothing foreign runs inside the loop,
so a fanout is recorded by one vectorized monitor call, draws its latencies
from the batch sampler and coalesces exact-tie deliveries into shared
events. Otherwise every copy is checked, recorded, drawn and scheduled
before the next one, so a drop filter that mutates fault state mid-fanout
sees exactly what a ``send`` loop would. Both modes produce the same
deliveries, RNG positions and monitor totals as the per-copy loop (see
``docs/networking.md``). ``send_aggregate`` is the one-burst case: one link
admission, one latency draw and one delivery event for the whole fanout.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.net.latency import LanLatency, LatencyModel
from repro.net.link import LinkModel, new_queue_stats, summarize_queue_accounting
from repro.net.message import Message
from repro.net.monitor import TrafficMonitor
from repro.net.spec import LatencySpec
from repro.simulation._core import LINK_DROP_TAIL, link_enqueue
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams

Handler = Callable[[str, Message], None]

GIGABIT_PER_SECOND_BYTES = 125_000_000  # 1 Gbps full duplex, per direction


@dataclass
class NetworkConfig:
    """Wire-level parameters.

    Attributes:
        bandwidth: NIC rate in bytes/second per direction (full duplex).
        envelope_overhead: fixed per-message overhead in bytes (TCP/IP +
            gRPC framing + protobuf envelope + signature).
        latency: the propagation model, preferably as a declarative
            :class:`~repro.net.spec.LatencySpec` (resolved through the
            kind registry); a ready :class:`LatencyModel` instance is also
            accepted. ``None`` defaults to LAN latency.
        link: optional :class:`~repro.net.link.LinkModel` adding sender
            bottleneck-link physics — finite bandwidth (serialization
            delay), a bounded queue and CoDel-style AQM drops — on top of
            the NIC model. ``None`` (or a no-op link) disables it.
        monitor_bin_width: traffic accounting bin width (seconds).
        downlink_queue_min_bytes: receive-side serialization is modelled
            only for messages at least this large (full blocks). Small
            messages pay their transfer time but skip the queue — their
            contribution to receiver contention is negligible and skipping
            it halves the event count.
        regions: optional node→region placement (multi-datacenter
            topologies). Region-aware latency models consult it; the fault
            layer uses it to resolve region-level partition/degrade events.
            ``build_network`` fills it from the organization placement.
        resolved_latency: the :class:`LatencyModel` that ``latency``
            resolves to (not a constructor argument). A model instance is
            used as is; a spec or ``None`` resolves to a fresh model on
            construction, so ``dataclasses.replace`` of a spec-configured
            config yields a fresh, region-unassigned model.
    """

    bandwidth: float = float(GIGABIT_PER_SECOND_BYTES)
    envelope_overhead: int = 256
    latency: Union[LatencySpec, LatencyModel, None] = None
    monitor_bin_width: float = 1.0
    downlink_queue_min_bytes: int = 25_000
    regions: Optional[Dict[str, str]] = None
    link: Optional[LinkModel] = None
    resolved_latency: LatencyModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.link is not None and not isinstance(self.link, LinkModel):
            raise TypeError(f"link must be a LinkModel, got {type(self.link).__name__}")
        latency = self.latency
        if latency is None:
            self.resolved_latency = LanLatency()
        elif isinstance(latency, LatencySpec):
            self.resolved_latency = LatencyModel.from_spec(latency)
        elif isinstance(latency, LatencyModel):
            self.resolved_latency = latency
        else:
            raise TypeError(
                f"latency must be a LatencySpec or LatencyModel, got {type(latency).__name__}"
            )


class Network:
    """The simulated LAN connecting all processes.

    The gossip layer of Fabric operates on a complete graph (every peer can
    reach every other peer in its organization), so the network imposes no
    topology restriction; access control lives in the protocol layer.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        bandwidth = self.config.bandwidth
        if not bandwidth > 0:  # also rejects NaN
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self._streams = streams
        self._handlers: Dict[str, Handler] = {}
        self._uplink_free_at: Dict[str, float] = {}
        self._downlink_free_at: Dict[str, float] = {}
        self._disconnected: Dict[str, bool] = {}
        # Count of currently disconnected nodes: lets every hot path skip
        # the per-copy dict probes once a crashed peer has recovered (the
        # flag dict keeps ``False`` tombstones forever).
        self._n_disconnected = 0
        self.monitor = TrafficMonitor(bin_width=self.config.monitor_bin_width)
        self.regions: Dict[str, str] = dict(self.config.regions) if self.config.regions else {}
        self.dropped_messages = 0
        self._drop_filter: Optional[Callable[[str, str, Message], bool]] = None
        # Hot-path hoists: one attribute lookup at construction instead of
        # several per message.
        self._bandwidth = bandwidth
        self._overhead = self.config.envelope_overhead
        self._queue_min = self.config.downlink_queue_min_bytes
        # Latency draws come from a *per-source* stream
        # (``network:latency:<src>``), bound lazily on a node's first send.
        # Keying the stream by sender is what makes the simulation
        # shardable: a node's draw sequence depends only on its own event
        # order, never on how other nodes' events interleave with it, so a
        # shard that executes a subset of the nodes consumes each stream
        # exactly as the single-process run does (see docs/sharding.md).
        self._latency_model = self.config.resolved_latency
        self._send_samplers: Dict[str, Callable[[str, str], float]] = {}
        self._batch_samplers: Dict[str, Callable] = {}
        self._record = self.monitor.record
        self._record_multicast = self.monitor.record_multicast
        # Bottleneck-link physics (repro.net.link). A no-op link (infinite
        # bandwidth) is disarmed outright so the link-free kernel runs
        # exactly as before; that, plus the link kernel's zero-RNG
        # guarantee, is what keeps pre-link goldens bit-for-bit identical
        # (docs/networking.md).
        link = self.config.link
        if link is not None and link.is_noop:
            link = None
        self._link = link
        if link is not None:
            self._link_bandwidth = link.bandwidth
            (
                self._link_queue_limit,
                self._link_target,
                self._link_interval,
                self._link_max_p,
                self._link_ramp,
            ) = link.kernel_args()
        # Per-source mutable queue state ([free_at, first_above, count,
        # dropping]), CoDel drop RNG (stream ``network:queue:<src>``) and
        # accounting — all keyed by sender, like the latency streams, so
        # link physics shard along with everything else.
        self._link_states: Dict[str, list] = {}
        self._queue_rngs: Dict[str, Callable[[], float]] = {}
        self._queue_stats: Dict[str, List[float]] = {}
        # Process-sharded execution (repro.simulation.sharded): when a
        # shard owns only a subset of the nodes, sends to foreign
        # destinations compute their full physics here (monitor record,
        # uplink reservation, latency draw) and are appended to the egress
        # queue as plain records instead of being scheduled locally; the
        # owning shard injects them at the next window barrier.
        self._shard_owned: Optional[frozenset] = None
        self._shard_egress: Optional[list] = None

    def register(self, name: str, handler: Handler) -> None:
        """Attach a process; ``handler(src, message)`` is called on delivery."""
        if name in self._handlers:
            raise ValueError(f"node {name!r} already registered")
        # Interned names make every per-message dict probe a pointer
        # comparison in the common case.
        self._handlers[sys.intern(name)] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def region_of(self, name: str) -> Optional[str]:
        """The node's region in a multi-datacenter topology, if placed."""
        return self.regions.get(name)

    def set_disconnected(self, name: str, disconnected: bool) -> None:
        """Simulate a node dropping off the network (crash / partition)."""
        previously = self._disconnected.get(name, False)
        if disconnected and not previously:
            self._n_disconnected += 1
        elif previously and not disconnected:
            self._n_disconnected -= 1
        self._disconnected[name] = disconnected

    def set_drop_filter(self, drop: Optional[Callable[[str, str, Message], bool]]) -> None:
        """Install a message-drop predicate (fault injection / packet loss)."""
        self._drop_filter = drop

    def _bind_latency(self, src: str) -> Callable[[str, str], float]:
        """Create and cache the per-source latency samplers for ``src``.

        Both the scalar and the batch sampler close over the *same*
        ``random.Random``, so sends and multicasts from one source consume
        its stream sequentially in call order — the per-source form of the
        RNG-order contract (docs/networking.md).
        """
        rng = self._streams.stream(f"network:latency:{src}")
        sampler = self._latency_model.bind(rng)
        self._send_samplers[src] = sampler
        self._batch_samplers[src] = self._latency_model.bind_batch(rng)
        return sampler

    def latency_rng(self, src: str):
        """The raw per-source latency stream (tests probe its position)."""
        if src not in self._send_samplers:
            self._bind_latency(src)
        return self._streams.stream(f"network:latency:{src}")

    def _link_admit(self, src: str, size: int, at: float) -> float:
        """Admit one ``size``-byte copy to ``src``'s bottleneck link at
        time ``at`` (the moment it clears the NIC). Returns the time the
        copy finishes serializing onto the wire, or ``-1.0`` if the link
        dropped it (bounded queue overflow or CoDel).

        RNG contract (docs/networking.md): CoDel's probabilistic drops
        draw from the per-source ``network:queue:<src>`` stream — at most
        one uniform per copy, *before* the copy's latency draw, and a
        dropped copy consumes no latency draw at all. Tail drops consume
        no RNG. Callers must therefore invoke this before sampling
        propagation latency and skip the sample on drop.
        """
        state = self._link_states.get(src)
        if state is None:
            state = [0.0, 0.0, 0.0, 0.0]
            self._link_states[src] = state
            self._queue_rngs[src] = self._streams.stream(f"network:queue:{src}").random
            self._queue_stats[src] = new_queue_stats()
        transfer = size / self._link_bandwidth
        done = link_enqueue(
            state,
            at,
            transfer,
            self._link_queue_limit,
            self._link_target,
            self._link_interval,
            self._link_max_p,
            self._link_ramp,
            self._queue_rngs[src],
        )
        stats = self._queue_stats[src]
        stats[0] += 1.0
        if done < 0.0:
            if done == LINK_DROP_TAIL:
                stats[1] += 1.0
            else:
                stats[2] += 1.0
            return -1.0
        wait = done - transfer - at
        if wait > 0.0:
            stats[3] += wait
            if wait > stats[4]:
                stats[4] = wait
            stats[5] += size
        return done

    def queue_accounting(self) -> Dict[str, List[float]]:
        """Per-source link-queue accounting records (see
        :func:`repro.net.link.new_queue_stats` for the slot layout).
        Sharded runs merge these dicts across workers — sources are owned
        by exactly one shard, so the union is disjoint."""
        return self._queue_stats

    def link_summary(self) -> Dict[str, object]:
        """The snapshot ``link`` section: enabled flag + aggregated queue
        accounting (sorted-source summation — bit-for-bit equal between
        single-process and merged sharded runs)."""
        summary: Dict[str, object] = {"enabled": self._link is not None}
        summary.update(summarize_queue_accounting(self._queue_stats))
        return summary

    def enable_shard_egress(self, owned, egress: list) -> None:
        """Put the network into sharded mode.

        ``owned`` is the set of node names this shard executes; ``egress``
        is the list that collects outbound cross-shard records. Records
        are plain picklable tuples — ``("d", time, src, dst, message)``
        for single-phase deliveries and ``("a", time, src, dst, message,
        transfer)`` for two-phase (downlink-queued) arrivals — appended in
        send order. The shard coordinator drains the list at every window
        barrier and injects each record on the destination's owner shard
        (:meth:`inject_shard_records`).
        """
        self._shard_owned = frozenset(owned)
        self._shard_egress = egress

    def inject_shard_records(self, records) -> None:
        """Schedule cross-shard records received at a window barrier.

        Records must be sorted by the coordinator's canonical order
        (time, then source-shard id, then send order); scheduling them in
        that order assigns consecutive sequence numbers, which fixes the
        relative order of same-time injected events deterministically.
        """
        schedule_call = self.sim.schedule_call
        for rec in records:
            if rec[0] == "d":
                schedule_call(rec[1], self._deliver_copies, [rec[1], rec[2], rec[4], rec[3], 0.0])
            else:
                schedule_call(rec[1], self._arrive_copies, [rec[1], rec[2], rec[4], rec[3], rec[5]])

    def wire_size(self, message: Message) -> int:
        """Bytes on the wire: payload plus fixed envelope."""
        return message.payload_size() + self._overhead


    def send(self, src: str, dst: str, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        Sends to unknown or disconnected destinations are silently dropped,
        like packets to a crashed host; sends from a disconnected source are
        dropped too. Self-sends are rejected — the protocols never need them.
        Validation happens before any traffic is recorded, so a rejected
        send never pollutes the monitor.
        """
        if src == dst:
            raise ValueError(f"{src!r} attempted to send a message to itself")
        if src not in self._handlers:
            raise ValueError(f"unknown source node {src!r}")
        self._transmit(src, (dst,), message)

    def multicast(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """Send one shared ``message`` instance from ``src`` to every
        destination in ``dsts``, with per-destination physics identical to
        calling :meth:`send` once per destination in order.

        The equivalence is exact — the property suite replays random
        fanouts against an independent per-copy oracle and asserts the
        same (time, dst, message) delivery sequence:

        * drop rules (disconnected source/destination, drop filters) apply
          per copy, in destination order, before that copy is recorded;
        * the sender's uplink serializes the copies back to back and each
          copy draws its own propagation latency, **in destination order**
          — the RNG-order contract that keeps metrics bit-for-bit equal to
          the per-copy loop;
        * large copies take the same two-phase arrival/downlink schedule
          as :meth:`send`, per destination.

        Every gossip fanout goes through it; see :meth:`_transmit` for
        what the kernel batches when no fault state is installed.
        """
        if src not in self._handlers:
            raise ValueError(f"unknown source node {src!r}")
        # Full validation before any state change, exactly like send().
        for dst in dsts:
            if dst == src:
                raise ValueError(f"{src!r} attempted to send a message to itself")
        if len(dsts):
            self._transmit(src, dsts, message)

    def send_aggregate(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """Send one identical metadata message to each destination as a
        single simulator event.

        The aggregated-background path: a periodic emitter's fanout of
        ``MembershipAlive`` copies coalesces into one scheduled delivery
        instead of one or two events per copy. Semantics relative to
        per-copy :meth:`send`:

        * **byte accounting is exactly equivalent** — the monitor records
          one ``wire_size`` message per destination at send time (the
          delivery batching is invisible to every bandwidth figure);
        * uplink serialization reserves the sender's NIC for the *total*
          bytes of the fanout, like the per-copy sends would;
        * drop rules (disconnected source/destination, drop filters) apply
          per copy, before anything is recorded;
        * the fanout crosses a bottleneck link as one burst: one admission
          (one queue draw at most) for its total bytes, and a link drop
          loses the whole batch;
        * one propagation latency is drawn for the whole batch and the
          copies are delivered together one transfer after arrival —
          per-destination latency spread is dropped;
        * receiver-side downlink queueing is not modelled. Per-copy sends
          of default-sized background messages *do* cross the
          ``downlink_queue_min_bytes`` threshold and occupy receiver
          downlinks (the seed's 100 KB messages did too); the aggregated
          path deliberately trades that receive-contention detail away —
          metadata is a small, steady fraction of any receiver's downlink,
          and the golden tolerance check pins the resulting latency drift.

        Drop state is re-read per copy, so a drop filter that mutates the
        fault machinery mid-fanout (disconnecting the source, swapping
        itself) affects the remaining copies exactly as it would a
        per-copy loop — a mid-fanout drop can never leave the shared-event
        accounting out of step with the drop counters.
        """
        if src not in self._handlers:
            raise ValueError(f"unknown source node {src!r}")
        # Full validation before any state change, exactly like send(): a
        # rejected call must not pollute drop counters or the monitor.
        for dst in dsts:
            if dst == src:
                raise ValueError(f"{src!r} attempted to send a message to itself")
        if len(dsts):
            self._transmit(src, dsts, message, burst=True)

    def _drops(self, src: str, dst: str, message: Message) -> bool:
        """The per-copy drop check: count and report a copy that a
        disconnected endpoint or the drop filter discards. Fault state is
        re-read on every call — the filter may mutate it."""
        if self._n_disconnected:
            disconnected = self._disconnected
            if disconnected.get(src) or disconnected.get(dst):
                self.dropped_messages += 1
                return True
        drop_filter = self._drop_filter
        if drop_filter is not None and drop_filter(src, dst, message):
            self.dropped_messages += 1
            return True
        return False

    def _transmit(
        self, src: str, dsts: Sequence[str], message: Message, burst: bool = False
    ) -> None:
        """The per-copy delivery kernel behind every entry point.

        Each copy runs, in order: drop check, monitor record, uplink
        reservation, bottleneck-link admission (:meth:`_link_admit`, whose
        queue draw precedes the latency draw; a dropped copy takes no
        latency draw), latency draw, then local scheduling or shard egress.
        Single-phase copies are delivered one transfer after arrival;
        copies of at least ``downlink_queue_min_bytes`` are handed to
        :meth:`_arrive_copies` at arrival so receiver downlinks are
        reserved in arrival order.

        The mode follows from observable fault state:

        * **guarded** (a drop filter or a disconnected node exists): the
          filter is foreign code that may mutate fault state or schedule
          events, so each copy is checked, recorded, drawn and scheduled
          before the next one is looked at;
        * **batched** (no fault state, more than one copy): nothing foreign
          runs inside the loop, so the fanout is recorded by one vectorized
          monitor call, draws its latencies from the batch sampler (unless
          a live link can drop copies, which then draw one by one) and
          coalesces consecutive exact-tie deliveries into one event — safe
          because their sequence numbers are consecutive, so no other event
          can order between them;
        * **burst** (``send_aggregate``): drop checks per destination, then
          the survivors travel as one copy of their total size — one
          admission, one latency draw (for the first survivor), one event.
        """
        size = message.payload_size() + self._overhead
        kind = message.kind
        transfer = size / self._bandwidth
        now = self.sim.now
        guarded = self._n_disconnected > 0 or self._drop_filter is not None
        width = 1
        latencies: Optional[List[float]] = None
        if burst:
            if guarded:
                recipients = [dst for dst in dsts if not self._drops(src, dst, message)]
            else:
                recipients = list(dsts)  # the event must not alias the caller's list
            if not recipients:
                return
            self._record_multicast(now, src, recipients, kind, size)
            width = len(recipients)
            dsts = recipients[:1]
            per_copy = batched = False
        else:
            batched = not guarded and len(dsts) > 1
            per_copy = not batched
            if batched:
                self._record_multicast(now, src, dsts, kind, size)
        sample = self._send_samplers.get(src)
        if batched and self._link is None:
            if sample is None:
                sample = self._bind_latency(src)
            latencies = self._batch_samplers[src](src, dsts)
        two_phase = not burst and size >= self._queue_min
        callback = self._arrive_copies if two_phase else self._deliver_copies
        uplink_transfer = transfer * width
        wire_bytes = size * width
        link = self._link
        uplink_free_at = self._uplink_free_at
        owned = self._shard_owned
        schedule_call = self.sim.schedule_call
        records: List[list] = []
        previous_time = -1.0
        previous_rec: Optional[list] = None
        for index, dst in enumerate(dsts):
            if per_copy:
                if guarded and self._drops(src, dst, message):
                    continue
                # The monitor accounts the copy at send time: utilization
                # plots reflect when bytes enter the network.
                self._record(now, src, dst, kind, size)
            free_at = uplink_free_at.get(src, 0.0)
            done = (free_at if free_at > now else now) + uplink_transfer
            uplink_free_at[src] = done
            if link is not None:
                done = self._link_admit(src, wire_bytes, done)
                if done < 0.0:
                    self.dropped_messages += width
                    continue
            if latencies is not None:
                arrival = done + latencies[index]
            else:
                if sample is None:
                    sample = self._bind_latency(src)
                arrival = done + sample(src, dst)
            time = arrival if two_phase else arrival + transfer
            target = recipients if burst else dst
            if owned is not None:
                # Sharded mode: the send-side physics above ran exactly as
                # for a local copy; delivery is the owner shard's job.
                # Two-phase copies hand over at their physical arrival so
                # the receiver's downlink is reserved in merged order.
                if burst:
                    target = [each for each in recipients if each in owned]
                    for each in recipients:
                        if each not in owned:
                            self._shard_egress.append(("d", time, src, each, message))
                    if not target:
                        continue
                elif dst not in owned:
                    if two_phase:
                        self._shard_egress.append(("a", time, src, dst, message, transfer))
                    else:
                        self._shard_egress.append(("d", time, src, dst, message))
                    continue
            if batched and time == previous_time:
                # Exact tie with the immediately preceding copy: fold into
                # its record, keeping destination (= sequence) order.
                group = previous_rec[3]
                if group.__class__ is list:
                    group.append(dst)
                else:
                    previous_rec[3] = [group, dst]
                continue
            # The record is the event's argument list; ties mutate its
            # target slot.
            rec = [time, src, message, target, transfer]
            if batched:
                records.append(rec)
                previous_time = time
                previous_rec = rec
            else:
                schedule_call(time, callback, rec)
        if records:
            self.sim.schedule_records(callback, records)

    def _deliver_copies(
        self, time: float, src: str, message: Message, target, transfer: float
    ) -> None:
        """Deliver a record's copy — or, for a tie group, each copy in
        order — to its handler."""
        if target.__class__ is list:
            # Disconnect state is re-read per copy: a handler earlier in
            # the group may disconnect a later recipient, and the per-copy
            # loop this path must match would drop that copy at its own
            # delivery event.
            for dst in target:
                self._deliver_copies(time, src, message, dst, transfer)
            return
        if self._n_disconnected and self._disconnected.get(target):
            self.dropped_messages += 1
            return
        handler = self._handlers.get(target)
        if handler is None:
            self.dropped_messages += 1
            return
        handler(src, message)

    def _arrive_copies(
        self, time: float, src: str, message: Message, target, transfer: float
    ) -> None:
        """Phase two of a large copy: grant receiver downlinks.

        Runs at the copies' (shared or singleton) physical arrival time and
        reserves each destination's downlink in destination order — exactly
        the reservations one arrival event per copy would make, since tied
        arrivals carry consecutive sequence numbers. Deliveries are then
        scheduled as single-phase records, re-grouping delivery-time ties.
        """
        downlink_free_at = self._downlink_free_at
        records: list = []
        previous_time = -1.0
        previous_rec: Optional[list] = None
        for dst in target if target.__class__ is list else (target,):
            free_at = downlink_free_at.get(dst, 0.0)
            delivered = (free_at if free_at > time else time) + transfer
            downlink_free_at[dst] = delivered
            if delivered == previous_time:
                group = previous_rec[3]
                if group.__class__ is list:
                    group.append(dst)
                else:
                    previous_rec[3] = [group, dst]
                continue
            previous_rec = [delivered, src, message, dst, transfer]
            records.append(previous_rec)
            previous_time = delivered
        self.sim.schedule_records(self._deliver_copies, records)
