"""The repository benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload scale-3000 --seed 1 --seconds 30 --trace 0

Run from the repository root (the program is imported from ``src/``).
Every instance runs in a fresh process (``instance.py``). With
``--trace 0`` the run measures the workload's end-to-end metrics with
tracing off: one instance per sub-seed, a repeat of the first sub-seed
(the determinism check), then repeats of the sub-seeds in turn while
``--seconds`` allows. With ``--trace 1`` it runs the first sub-seed untraced and then
traced, and reports the per-layer metrics and the tracing overhead. Host
metrics are the median over sub-seeds of each sub-seed's median, so one
sub-seed with a slow tail (a block that needs recovery) does not move
them; simulated (``sim_*``) metrics come from the first instance of each
sub-seed, so they are a pure function of ``--seed``.

The last line of standard output is the JSON result; the full record
(every instance, span and check) is written to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json``. The exit code is 0
only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# name -> unit; ``sim_*`` metrics are simulated, all others host-side.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "deliveries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_latency_p50_s": "sim_s",
    "sim_latency_p99_s": "sim_s",
    "sim_mb_per_peer_block": "MB",
}
PER_LAYER = {
    "setup.build_network_s": "s",
    "setup.build_views_s": "s",
    "engine.self_s": "s",
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.peak_heap": "count",
    "net.self_s": "s",
    "net.send_calls": "count",
    "net.multicast_calls": "count",
    "net.aggregate_calls": "count",
    "net.copies": "count",
    "net.bytes": "B",
    "net.drop_ratio": "ratio",
    "net.queue_delay_total_s": "sim_s",
    "net.queue_drops": "count",
    "gossip.self_s": "s",
    "gossip.handle_calls": "count",
    "gossip.useful_block_ratio": "ratio",
    "gossip.digest_bytes": "B",
    "gossip.block_bytes": "B",
    "gossip.request_retries": "count",
    "gossip.request_timeouts": "count",
    "gossip.blocks_via_recovery": "count",
    "gossip.blocks_via_pull": "count",
    "fabric.self_s": "s",
    "fabric.tx_validated": "count",
    "fabric.mvcc_conflicts": "count",
    "ledger.self_s": "s",
    "ledger.commits": "count",
    "ledger.kv_puts": "count",
    "faults.self_s": "s",
    "faults.filter_calls": "count",
    "faults.dropped": "count",
    "metrics.self_s": "s",
    "metrics.tracker_calls": "count",
    "shard.windows": "count",
    "shard.round_s": "s",
    "share.setup_gossip": "ratio",
    "share.fabric_ledger": "ratio",
    "share.net_faults": "ratio",
    "trace.overhead_ratio": "ratio",
}
MIN_SAMPLES = 1000  # latency samples per sub-seed at full size, for a p99


class InstanceFailed(RuntimeError):
    pass


class Runner:
    """Starts instance processes and keeps what they report."""

    def __init__(self, workload: str, size: str, seconds: float) -> None:
        self.workload = workload
        self.size = size
        self.seconds = seconds
        self.started = time.perf_counter()
        self.walls: list = []

    def run(self, seed: int, *flags: str) -> dict:
        # An instance is hung once it takes four times the slowest one so
        # far; the first may take the whole measuring time and a minute.
        timeout = 4 * max(self.walls) if self.walls else self.seconds + 60
        command = [
            sys.executable, str(HERE / "instance.py"),
            "--workload", self.workload, "--seed", str(seed), "--size", self.size, *flags,
        ]
        begin = time.perf_counter()
        try:
            process = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise InstanceFailed(f"instance {' '.join(flags)} seed {seed} timed out") from exc
        if process.returncode != 0:
            tail = "\n".join(process.stderr.strip().splitlines()[-15:])
            raise InstanceFailed(f"instance seed {seed} {' '.join(flags)} failed:\n{tail}")
        self.walls.append(time.perf_counter() - begin)
        return json.loads(process.stdout.strip().splitlines()[-1])

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def _same_snapshots(instances: list) -> list:
    """Failures of the rule: one seed, one ``sim`` snapshot."""
    first: dict = {}
    failures = []
    for instance in instances:
        reference = first.setdefault(instance["seed"], instance["snapshot"])
        if instance["snapshot"] != reference:
            changed = sorted(
                key for key in set(reference) | set(instance["snapshot"])
                if reference.get(key) != instance["snapshot"].get(key)
            )
            failures.append(f"seed {instance['seed']}: {', '.join(changed)} differ")
    return failures


def _sharded_matches_single(sharded: dict, single: dict) -> list:
    ignored = {"events_executed"}
    return sorted(
        key for key in set(sharded) | set(single)
        if key not in ignored and sharded.get(key) != single.get(key)
    )


def _checks(instances: list) -> dict:
    checks: dict = {}
    for instance in instances:
        for name, (ok, detail) in instance["checks"].items():
            previous = checks.get(name)
            if previous is None or (previous[0] and not ok):
                checks[name] = [ok, f"seed {instance['seed']}: {detail}" if detail else ""]
    failures = _same_snapshots(instances)
    checks["same_seed_same_sim_snapshot"] = [not failures, "; ".join(failures)]
    return checks


def measure(workload_name: str, seed: int, seconds: float, size: str) -> dict:
    """``--trace 0``: the end-to-end metrics."""
    workload = WORKLOADS[workload_name]
    runner = Runner(workload_name, size, seconds)
    seeds = workload.seeds(seed)
    # The single-process reference runs first, so the timed instances fill
    # what is left of ``--seconds`` and the whole command stays near it.
    reference = runner.run(seeds[0], "--reference") if workload.entry == "sharded" else None
    full = [runner.run(sub_seed) for sub_seed in seeds]
    full.append(runner.run(seeds[0]))
    while runner.elapsed() + statistics.fmean(runner.walls) <= seconds:
        full.append(runner.run(seeds[(len(full) - len(seeds)) % len(seeds)]))
    sim = [instance["sim"] for instance in full[: len(seeds)]]

    def host(key: str) -> float:
        return statistics.median(
            statistics.median(instance[key] for instance in full if instance["seed"] == sub_seed)
            for sub_seed in seeds
        )

    metrics = {
        "setup_s": host("setup_s"),
        "run_s": host("run_s"),
        "deliveries_per_s": host("deliveries_per_s"),
        "peak_rss_mb": host("peak_rss_mb"),
        "sim_latency_p50_s": statistics.median([entry["latency_p50_s"] for entry in sim]),
        "sim_latency_p99_s": statistics.median([entry["latency_p99_s"] for entry in sim]),
        "sim_mb_per_peer_block": sum(entry["bytes"] for entry in sim)
        / sum(entry["peer_blocks"] for entry in sim)
        / 1e6,
    }
    extra = {
        "sim_latency_samples": sum(entry["samples"] for entry in sim),
        "sim_invalidated_tx_ratio": (
            sum(entry["invalidated"] for entry in sim) / sum(entry["ordered"] for entry in sim)
            if workload.entry == "conflict"
            else None
        ),
    }
    checks = _checks(full)
    if size == "full":
        fewest = min(entry["samples"] for entry in sim)
        checks["latency_samples_at_least_1000"] = [
            fewest >= MIN_SAMPLES, f"fewest per sub-seed: {fewest}"
        ]
    instances = list(full)
    if reference is not None:
        differ = _sharded_matches_single(full[0]["snapshot"], reference["snapshot"])
        checks["sharded_matches_single_process"] = [not differ, ", ".join(differ)]
        instances.append(reference)
    return {
        "metrics": metrics,
        "extra": extra,
        "checks": checks,
        "attempted": sum(instance["attempted"] for instance in full),
        "failed": sum(instance["failed"] for instance in full),
        "instances": instances,
        "basis": (
            f"{len(full)} full instances ({len(seeds)} sub-seeds from {seeds[0]} + "
            f"{len(full) - len(seeds)} repeats); sim_* over the {len(seeds)} sub-seeds"
        ),
    }


def trace(workload_name: str, seed: int, seconds: float, size: str) -> dict:
    """``--trace 1``: the per-layer metrics of a traced instance."""
    workload = WORKLOADS[workload_name]
    runner = Runner(workload_name, size, seconds)
    first = workload.seeds(seed)[0]
    untraced = runner.run(first)
    traced = runner.run(first, "--trace")
    metrics = dict(traced["trace"]["metrics"])
    metrics["engine.events_per_s"] = metrics["engine.events"] / untraced["run_s"]
    metrics["trace.overhead_ratio"] = traced["run_s"] / untraced["run_s"]
    checks = _checks([untraced, traced])
    instances = [untraced, traced]
    if workload.entry == "sharded":
        reference = runner.run(first, "--reference")
        differ = _sharded_matches_single(untraced["snapshot"], reference["snapshot"])
        checks["sharded_matches_single_process"] = [not differ, ", ".join(differ)]
        instances.append(reference)
    return {
        "metrics": metrics,
        "extra": {"layer_self_s": traced["trace"]["layer_self_s"]},
        "checks": checks,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "instances": instances,
        "basis": f"sub-seed {first}: one untraced and one traced instance",
    }


def _report(args, outcome: dict, units: dict) -> None:
    stamp = outcome["instances"][0]["stamp"]
    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"python={stamp['python']} engine={stamp['engine']} size={args.size}"
    )
    print(f"  basis: {outcome['basis']}")
    for name, unit in units.items():
        print(f"  {name:<28} {outcome['metrics'][name]:>16.6g} {unit}")
    extra = outcome["extra"]
    if args.trace == 0:
        ratio = extra["sim_invalidated_tx_ratio"]
        print(
            "  sim_invalidated_tx_ratio     "
            + (f"{ratio:>16.6g} ratio" if ratio is not None else "n/a (no FULL validation here)")
        )
        print(f"  sim latency samples          {extra['sim_latency_samples']:>16d} count")
    else:
        shares = ", ".join(f"{layer} {seconds:.3f}" for layer, seconds in extra["layer_self_s"].items())
        print(f"  self time by layer (s): {shares}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"  delivery_failed_ratio        {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    for name, (ok, detail) in sorted(outcome["checks"].items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}{' - ' + detail if detail else ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long shrink of each workload, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            outcome, units = trace(args.workload, args.seed, args.seconds, args.size), PER_LAYER
        else:
            outcome, units = measure(args.workload, args.seed, args.seconds, args.size), END_TO_END
    except InstanceFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _report(args, outcome, units)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(outcome, args=vars(args)), indent=1, sort_keys=True))
    correct = all(ok for ok, _detail in outcome["checks"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
