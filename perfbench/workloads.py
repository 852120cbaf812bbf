"""The benchmark's workloads: fixed-size batch jobs built from registered specs.

Every workload derives its input from a registered scenario (or the
Table II experiment config) with :func:`dataclasses.replace`, so the
program under test only ever receives declarative specs plus a seed.
``size="tiny"`` shrinks each workload to a few seconds for the
benchmark's own tests; the shape (gossip module, faults, link physics,
validation mode, sharding) stays the same.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

# Sub-seeds of one run are ``seed * SEED_STRIDE + i``: distinct across
# the seeds a caller passes, and the same seed gives the same inputs.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``entry`` names the public entry point the instance drives:
    ``"scenario"`` (``run_scenario``), ``"sharded"``
    (``run_scenario_sharded``) or ``"conflict"``
    (``run_conflict_experiment``). ``sub_seeds`` independent seeds make
    up one run's simulated statistics; the first is also run again to
    check determinism and, while time remains, to add host samples.
    """

    name: str
    why: str
    entry: str
    sub_seeds: int
    build: Callable[[int, str], object]

    def seeds(self, seed: int) -> Tuple[int, ...]:
        return tuple(seed * SEED_STRIDE + index for index in range(self.sub_seeds))


def _scale_spec(seed: int, size: str):
    from repro.scenarios.registry import get_scenario

    base = get_scenario("sweep-bench")
    peers, blocks = (3000, 1) if size == "full" else (200, 2)
    return dataclasses.replace(
        base,
        name="bench-scale-3000",
        n_peers=peers,
        workload=dataclasses.replace(base.workload, blocks=blocks),
        seeds=(seed,),
    )


def _adversarial_spec(seed: int, size: str):
    from repro.net.link import CoDelConfig, LinkModel
    from repro.scenarios.registry import get_scenario

    base = get_scenario("byzantine-teasers")
    blocks = 16 if size == "full" else 3
    return dataclasses.replace(
        base,
        name="bench-adversarial-congested-250",
        link=LinkModel(bandwidth=12e6, queue_bytes=2e6, codel=CoDelConfig()),
        workload=dataclasses.replace(base.workload, blocks=blocks),
        seeds=(seed,),
    )


def _table2_config(seed: int, size: str):
    from repro.experiments.conflicts import ConflictExperimentConfig

    base = ConflictExperimentConfig.scaled()
    if size != "full":
        base = dataclasses.replace(base, n_peers=30, keys=10, increments_per_key=6)
    return dataclasses.replace(base, block_period=1.0, seed=seed)


def _sharded_spec(seed: int, size: str):
    from repro.scenarios.registry import get_scenario

    base = get_scenario("sweep-bench")
    peers, blocks = (1000, 3) if size == "full" else (120, 2)
    return dataclasses.replace(
        base,
        name="bench-sharded-1000x2",
        n_peers=peers,
        shards=2,
        workload=dataclasses.replace(base.workload, blocks=blocks),
        seeds=(seed,),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="scale-3000",
            why=(
                "O(n^2) membership views make set-up and memory dominate; the "
                "fault-free pooled multicast path runs at a large heap"
            ),
            entry="scenario",
            sub_seeds=3,
            build=_scale_spec,
        ),
        Workload(
            name="adversarial-congested-250",
            why=(
                "every copy takes the guarded network path: drop filter, "
                "link_enqueue, CoDel and request retries"
            ),
            entry="scenario",
            sub_seeds=3,
            build=_adversarial_spec,
        ),
        Workload(
            name="table2-original-100",
            why=(
                "the write path: client, endorse, order, FULL validation and "
                "MVCC, alongside push-infect-die plus pull"
            ),
            entry="conflict",
            sub_seeds=4,
            build=_table2_config,
        ),
        Workload(
            name="sharded-1000x2",
            why=(
                "the only workload that runs simulation/sharded and scenarios/sharded: "
                "2 shards stepped inline through the window protocol and merged"
            ),
            entry="sharded",
            sub_seeds=3,
            build=_sharded_spec,
        ),
    )
}
