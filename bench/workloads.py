"""The benchmark's workloads: fixed sets of manetguard scenarios drawn from a seed.

Each workload is a list of scenario configs plus the public entry point that
runs them. Scenario seeds come from the benchmark's `--seed` alone, as one
block of consecutive seeds per value, so the same `--seed` always gives the
same inputs and different values give disjoint seed sets.

The set sizes are chosen so that one pass takes about 30 s on a 2-core
x86-64 host. Host time per run varies by 16-21% (coefficient of variation)
from one scenario seed to the next, mostly with the number of control
messages the seed produces, so a workload averages over 23-30 seeds to keep
its total within about 5% across benchmark seeds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from manetguard.scenario import (
    ScenarioConfig,
    VARIANT_INDIVIDUAL,
    VARIANT_NAIVE,
    VARIANT_PROPOSED,
    table1_connected_preset,
)

# Scenario seeds per workload pass.
CONNECTED_SEEDS = 24
MATRIX_SEEDS = 30
SCALE_SEEDS = 23
# The traced run covers the first 1/TRACED_SHARE of a workload's seeds.
TRACED_SHARE = 3

MATRIX_VARIANTS = (VARIANT_NAIVE, VARIANT_INDIVIDUAL)
SCALE_NODES = 200
SCALE_HORIZON_S = 100.0

NAMES = ("connected_proposed", "baseline_matrix", "scale_200")


@dataclass(frozen=True)
class Workload:
    """One workload: the configs of every run, in execution order.

    With `matrix_seeds` set, a pass is a single `experiment.run_matrix` call
    over `configs[0]` (the base), `matrix_variants` and `matrix_seeds`, and
    `configs` lists the runs it makes. Otherwise a pass calls
    `simulation.run_once` on each config in turn.
    """

    name: str
    configs: Tuple[ScenarioConfig, ...]
    matrix_variants: Tuple[str, ...] = ()
    matrix_seeds: Optional[Tuple[int, ...]] = None


def seed_block(seed: int, count: int) -> Tuple[int, ...]:
    """`count` consecutive scenario seeds owned by one benchmark seed."""
    if seed < 0:
        raise ValueError(f"--seed must be >= 0; got {seed}")
    first = seed * count + 1
    return tuple(range(first, first + count))


def scaled_config(nodes: int, seed: int, horizon_s: float) -> ScenarioConfig:
    """`table1_connected` at constant density: side = 1000 m * sqrt(N / 50),
    9 flows and 5 adversaries per 50 nodes (the ROADMAP node-count sweep)."""
    cfg = table1_connected_preset(seed=seed, variant=VARIANT_PROPOSED)
    side = 1000.0 * math.sqrt(nodes / 50)
    cfg.world.node_count = nodes
    cfg.world.width_m = side
    cfg.world.height_m = side
    cfg.world.duration_s = horizon_s
    cfg.traffic.flow_count = round(9 * nodes / 50)
    cfg.adversaries.count = nodes // 10
    return cfg


def _with_horizon(cfg: ScenarioConfig, horizon_s: Optional[float]) -> ScenarioConfig:
    if horizon_s is not None:
        cfg.world.duration_s = horizon_s
    return cfg


def make(name: str, seed: int, horizon_s: Optional[float] = None) -> Workload:
    """Build workload `name` for benchmark seed `seed`.

    `horizon_s` shortens every scenario's simulated duration; the smoke test
    uses it, the benchmark itself never does.
    """
    if name == "connected_proposed":
        configs = tuple(
            _with_horizon(table1_connected_preset(seed=s, variant=VARIANT_PROPOSED), horizon_s)
            for s in seed_block(seed, CONNECTED_SEEDS)
        )
        return Workload(name, configs)
    if name == "baseline_matrix":
        seeds = seed_block(seed, MATRIX_SEEDS)
        base = _with_horizon(table1_connected_preset(), horizon_s)
        configs = tuple(
            base.replace(detector_variant=v, seed=s) for v in MATRIX_VARIANTS for s in seeds
        )
        return Workload(name, configs, MATRIX_VARIANTS, seeds)
    if name == "scale_200":
        configs = tuple(
            _with_horizon(scaled_config(SCALE_NODES, s, SCALE_HORIZON_S), horizon_s)
            for s in seed_block(seed, SCALE_SEEDS)
        )
        return Workload(name, configs)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def traced_part(workload: Workload) -> Workload:
    """The runs of the first 1/TRACED_SHARE of the workload's seeds."""
    if workload.matrix_seeds is not None:
        seeds = workload.matrix_seeds[: math.ceil(len(workload.matrix_seeds) / TRACED_SHARE)]
        configs = tuple(c for c in workload.configs if c.seed in seeds)
        return dataclasses.replace(workload, configs=configs, matrix_seeds=seeds)
    return dataclasses.replace(
        workload, configs=workload.configs[: math.ceil(len(workload.configs) / TRACED_SHARE)])


def paper_claim_matrix() -> Tuple[ScenarioConfig, Sequence[str], Sequence[int]]:
    """The fixed paper-claim matrix: table1_connected, 3 variants, seeds 1-10."""
    return (
        table1_connected_preset(),
        (VARIANT_PROPOSED, VARIANT_NAIVE, VARIANT_INDIVIDUAL),
        tuple(range(1, 11)),
    )
