"""Run one benchmark instance in a fresh process and print it as JSON.

``run.py`` starts one process per instance so that every instance pays
the same import and heap state and reports its own peak RSS. The last
line of standard output is the instance's JSON result.

    python3 perfbench/instance.py --workload scale-3000 --seed 1000
    python3 perfbench/instance.py --workload scale-3000 --seed 1000 --trace
    python3 perfbench/instance.py --workload sharded-1000x2 --seed 1000 --reference

``--seed`` is the simulation seed itself (``run.py`` derives sub-seeds).
``--reference`` runs a sharded workload's spec single-process, for the
sharded == single-process check.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def _percentiles(latencies):
    from repro.metrics.latency import percentile

    ordered = sorted(latencies)
    return percentile(ordered, 0.5), percentile(ordered, 0.99), len(ordered)


def _complete(tracker, blocks: int, n_peers: int) -> bool:
    coverage = tracker.coverage(n_peers)
    return len(coverage) == blocks and all(count == n_peers for count in coverage.values())


def _without_runtime(snapshot: dict) -> dict:
    return {key: value for key, value in snapshot.items() if key != "runtime"}


def _drive(workload: Workload, spec, seed: int, reference: bool):
    if workload.entry == "conflict":
        from repro.experiments.conflicts import run_conflict_experiment

        return run_conflict_experiment(spec)
    if workload.entry == "sharded" and not reference:
        from repro.scenarios.sharded import run_scenario_sharded

        return run_scenario_sharded(spec, seed=seed, shards=spec.shards, mode="inline")
    from repro.scenarios.runner import run_scenario

    return run_scenario(spec, seed=seed)


def _scenario_facts(run, spec) -> dict:
    net = run.result.net
    blocks = spec.workload.blocks
    deliveries = sum(net.tracker.coverage(spec.n_peers).values())
    return {
        "latencies": net.tracker.all_latencies(),
        "snapshot": _without_runtime(run.snapshot()),
        "attempted": blocks * spec.n_peers,
        "failed": blocks * spec.n_peers - deliveries,
        "deliveries": deliveries,
        "peer_blocks": spec.n_peers * blocks,
        "events": net.sim.events_executed,
        "peak_heap": net.sim.peak_heap_size,
        "checks": {
            "coverage_complete": [run.result.coverage_complete(), ""],
            "chains_verified": [
                all(peer.blockchain.verify_committed_chain() for peer in net.peers.values()),
                f"{len(net.peers)} peers",
            ],
        },
    }


def _sharded_facts(run, spec, probe: spans.Probe) -> dict:
    results = probe.shard_results or []
    snapshot = _without_runtime(run.snapshot())
    blocks = spec.workload.blocks
    facts = {
        "snapshot": snapshot,
        "attempted": blocks * spec.n_peers,
        "peer_blocks": spec.n_peers * blocks,
        "events": snapshot["events_executed"],
        "checks": {
            "ran_on_shards": [
                run.mode == "inline" and len(results) == spec.shards,
                f"mode={run.mode} shards={len(results)}",
            ],
        },
    }
    if not results:
        facts.update(latencies=[], deliveries=0, failed=facts["attempted"], peak_heap=0)
        return facts
    tracker = results[0].tracker  # merge_shard_results folded every shard into it
    deliveries = sum(tracker.coverage(spec.n_peers).values())
    facts.update(
        latencies=tracker.all_latencies(),
        deliveries=deliveries,
        failed=facts["attempted"] - deliveries,
        peak_heap=max(result.bench_peak_heap for result in results),
    )
    facts["checks"]["coverage_complete"] = [_complete(tracker, blocks, spec.n_peers), ""]
    facts["checks"]["chains_verified"] = [
        all(result.bench_chains_ok for result in results),
        "owned peers of every shard",
    ]
    return facts


def _conflict_facts(result) -> dict:
    from repro.metrics.resilience import peer_resilience_counters

    net = result.net
    tracker = net.tracker
    stats = tracker.summary()
    totals = net.network.monitor.totals
    attempted = result.config.total_transactions
    snapshot = {
        "events_executed": net.sim.events_executed,
        "final_time": net.sim.now,
        "latency_max": stats.maximum,
        "latency_mean": stats.mean,
        "latency_p50": stats.p50,
        "latency_p95": stats.p95,
        "total_bytes": totals.bytes,
        "total_messages": totals.messages,
        "by_kind_bytes": dict(sorted(totals.by_kind_bytes.items())),
        "dropped_messages": net.network.dropped_messages,
        "blocks_via_recovery": sum(
            peer.blocks_received_via.get("recovery", 0) for peer in net.peers.values()
        ),
        "resilience": {
            "counters": peer_resilience_counters(net.peers.values()),
            "faults_dropped": 0,
        },
        "link": net.network.link_summary(),
        "invalidated": result.invalidated,
        "invalidated_by_ledger": result.invalidated_by_ledger,
        "proposal_conflicts": result.proposal_conflicts,
        "blocks": result.blocks,
        "tx_ordered": result.tx_ordered,
        "final_counters": dict(sorted(result.final_counters.items())),
    }
    return {
        "latencies": tracker.all_latencies(),
        "snapshot": snapshot,
        "attempted": attempted,
        "failed": attempted - result.tx_ordered,
        "deliveries": sum(tracker.coverage(result.config.n_peers).values()),
        "peer_blocks": result.config.n_peers * result.blocks,
        "events": net.sim.events_executed,
        "peak_heap": net.sim.peak_heap_size,
        "invalidated": result.invalidated,
        "ordered": result.tx_ordered,
        "checks": {
            "coverage_complete": [_complete(tracker, result.blocks, result.config.n_peers), ""],
            "chains_verified": [
                all(peer.blockchain.verify_committed_chain() for peer in net.peers.values()),
                f"{len(net.peers)} peers",
            ],
            "invalidated_matches_ledger": [
                result.invalidated == result.invalidated_by_ledger,
                f"{result.invalidated} counted, {result.invalidated_by_ledger} from the ledger",
            ],
        },
    }


def run_instance(
    workload: Workload,
    seed: int,
    size: str = "full",
    trace: bool = False,
    reference: bool = False,
) -> dict:
    """Drive one instance; return its host timings, simulated facts and checks."""
    from repro.simulation._core import active_engine

    probe = spans.Probe()
    tracer = spans.Tracer() if trace else None
    uninstall = spans.install(probe, tracer)
    try:
        spec = workload.build(seed, size)
        start = time.perf_counter()
        outcome = _drive(workload, spec, seed, reference)
        end = time.perf_counter()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        if workload.entry == "conflict":
            facts = _conflict_facts(outcome)
        elif workload.entry == "sharded" and not reference:
            facts = _sharded_facts(outcome, spec, probe)
            end = probe.loop_end if probe.loop_end is not None else end
        else:
            facts = _scenario_facts(outcome, spec)
    finally:
        uninstall()
    setup_end = probe.setup_end if probe.setup_end is not None else start
    p50, p99, samples = _percentiles(facts.pop("latencies"))
    deliveries = facts["deliveries"]
    run_s = end - setup_end
    instance = {
        "seed": seed,
        "kind": "reference" if reference else "full",
        "traced": trace,
        "stamp": {"python": sys.version.split()[0], "engine": active_engine()},
        "setup_s": setup_end - start,
        "run_s": run_s,
        "deliveries": deliveries,
        "deliveries_per_s": deliveries / run_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "sim": {
            "latency_p50_s": p50,
            "latency_p99_s": p99,
            "samples": samples,
            # Background membership heartbeats are a constant rate, not
            # per-block work: counting them would make bytes per block
            # measure how long the run lasted.
            "bytes": facts["snapshot"]["total_bytes"]
            - facts["snapshot"]["by_kind_bytes"].get("MembershipAlive", 0),
            "peer_blocks": facts["peer_blocks"],
            "invalidated": facts.get("invalidated"),
            "ordered": facts.get("ordered"),
        },
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "snapshot": dict(facts["snapshot"], sim_latency_p99=p99, sim_samples=samples),
        "checks": facts["checks"],
    }
    if tracer is not None:
        instance["trace"] = layer_report(tracer.export(), facts, deliveries)
        instance["checks"].update(instance["trace"].pop("reconciliation"))
    return instance


def layer_report(export: dict, facts: dict, deliveries: int) -> dict:
    """Per-layer metrics of a traced instance, plus reconciliation checks.

    ``engine.events_per_s`` and ``trace.overhead_ratio`` need the untraced
    run and are filled in by ``run.py``.
    """
    calls = export.get("calls", {})
    total_s = {name: ns / 1e9 for name, ns in export.get("total_ns", {}).items()}
    counts = export.get("counts", {})
    kind_bytes = export.get("kind_bytes", {})
    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    for name, ns in export.get("self_ns", {}).items():
        layer_self[spans.LAYER_OF_SPAN[name]] += ns / 1e9
    snapshot = facts["snapshot"]
    counters = snapshot["resilience"]["counters"]
    link = snapshot["link"]
    attempted = counts.get("net.attempted", 0)
    deliver_calls = counts.get("gossip.deliver_calls", 0)
    work = sum(seconds for layer, seconds in layer_self.items() if layer != "shard")
    rounds = calls.get("shard.round", 0)

    def share(*layers):
        return sum(layer_self[layer] for layer in layers) / work if work else 0.0

    metrics = {
        "setup.build_network_s": total_s.get("setup.build_network", 0.0),
        "setup.build_views_s": total_s.get("setup.build_views", 0.0),
        "engine.self_s": layer_self["engine"],
        "engine.events": facts["events"],
        "engine.peak_heap": facts["peak_heap"],
        "net.self_s": layer_self["net"],
        "net.send_calls": counts.get("net.send_calls", 0),
        "net.multicast_calls": counts.get("net.multicast_calls", 0),
        "net.aggregate_calls": counts.get("net.aggregate_calls", 0),
        "net.copies": counts.get("net.copies", 0),
        "net.bytes": sum(kind_bytes.values()),
        "net.drop_ratio": counts.get("net.dropped", 0) / attempted if attempted else 0.0,
        "net.queue_delay_total_s": counts.get("net.queue_delay_total_s", 0.0),
        "net.queue_drops": counts.get("net.queue_drops", 0),
        "gossip.self_s": layer_self["gossip"],
        "gossip.handle_calls": calls.get("gossip.handle", 0),
        "gossip.useful_block_ratio": (
            counts.get("gossip.deliver_new", 0) / deliver_calls if deliver_calls else 0.0
        ),
        "gossip.digest_bytes": sum(kind_bytes.get(kind, 0) for kind in spans.DIGEST_KINDS),
        "gossip.block_bytes": sum(kind_bytes.get(kind, 0) for kind in spans.BLOCK_KINDS),
        "gossip.request_retries": counters.get("requests_retried", 0),
        "gossip.request_timeouts": counters.get("request_timeouts", 0),
        "gossip.blocks_via_recovery": counts.get("gossip.new_via.recovery", 0),
        "gossip.blocks_via_pull": counts.get("gossip.new_via.pull", 0),
        "fabric.self_s": layer_self["fabric"],
        "fabric.tx_validated": counts.get("fabric.tx_validated", 0),
        "fabric.mvcc_conflicts": counts.get("fabric.mvcc_conflicts", 0),
        "ledger.self_s": layer_self["ledger"],
        "ledger.commits": calls.get("ledger.commit", 0),
        "ledger.kv_puts": calls.get("ledger.kv_put", 0),
        "faults.self_s": layer_self["faults"],
        "faults.filter_calls": counts.get("faults.filter_calls", 0),
        "faults.dropped": counts.get("faults.dropped", 0),
        "metrics.self_s": layer_self["metrics"],
        "metrics.tracker_calls": calls.get("metrics.first_reception", 0)
        + calls.get("metrics.committed", 0),
        "shard.windows": counts.get("shard.windows", 0),
        "shard.round_s": total_s.get("shard.round", 0.0) / rounds if rounds else 0.0,
        "share.setup_gossip": share("setup", "gossip"),
        "share.fabric_ledger": share("fabric", "ledger"),
        "share.net_faults": share("net", "faults"),
    }
    reconciliation = {
        "trace_net_copies_match_monitor": [
            metrics["net.copies"] == snapshot["total_messages"]
            and metrics["net.bytes"] == snapshot["total_bytes"],
            f"{metrics['net.copies']:.0f} copies traced, {snapshot['total_messages']} recorded",
        ],
        "trace_first_receptions_match_tracker": [
            counts.get("gossip.deliver_new", 0) == deliveries,
            f"{counts.get('gossip.deliver_new', 0):.0f} new deliver_block, {deliveries} in tracker",
        ],
        "trace_recovery_matches_program": [
            metrics["gossip.blocks_via_recovery"] == snapshot["blocks_via_recovery"],
            f"{metrics['gossip.blocks_via_recovery']:.0f} traced, "
            f"{snapshot['blocks_via_recovery']} counted by peers",
        ],
        "trace_fault_drops_match_program": [
            metrics["faults.dropped"] == snapshot["resilience"]["faults_dropped"],
            f"{metrics['faults.dropped']:.0f} traced, "
            f"{snapshot['resilience']['faults_dropped']} counted by injectors",
        ],
        "trace_queue_drops_match_link": [
            metrics["net.queue_drops"]
            == link.get("dropped_tail", 0) + link.get("dropped_codel", 0),
            f"{metrics['net.queue_drops']:.0f} traced",
        ],
    }
    return {
        "metrics": metrics,
        "layer_self_s": layer_self,
        "spans": {
            name: {"calls": calls[name], "total_s": total_s[name], "self_s": export["self_ns"][name] / 1e9}
            for name in sorted(calls)
        },
        "reconciliation": reconciliation,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    result = run_instance(
        WORKLOADS[args.workload],
        args.seed,
        size=args.size,
        trace=args.trace,
        reference=args.reference,
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
